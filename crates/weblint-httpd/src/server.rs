//! The TCP front end: configuration, bind, graceful shutdown.
//!
//! [`HttpServer::bind`] claims the listening socket together with
//! everything the readiness loop needs — the [`Poller`] and the
//! self-pipe [`WakePipe`] — so a server either serves on the loop (see
//! [`crate::event`]) or refuses at bind time. In-flight requests always
//! finish and get their response before the connection closes.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use weblint_gateway::Gateway;
use weblint_service::{LintService, ServiceConfig, ServiceMetrics};
use weblint_site::{FaultSpec, SharedWeb};

use crate::handler::App;
use crate::metrics::{HttpCounters, HttpMetrics};
use crate::sys::{Poller, WakePipe};

/// How connections are multiplexed onto threads. There is one way: a
/// readiness loop drives every connection as a nonblocking state
/// machine, with pooled lint work on a small dispatcher pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerMode {
    /// The readiness loop; scales to tens of thousands of idle
    /// keep-alive connections with flat memory.
    #[default]
    EventLoop,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Always [`ServerMode::EventLoop`]; no server code reads it. Kept
    /// only so the `wlbench` serve workload, which asserts on it, still
    /// builds.
    pub mode: ServerMode,
    /// Dispatcher threads the event loop hands parsed requests to
    /// (`0` = auto: lint workers + 2, so the pool can keep every worker
    /// fed and still answer `/health` while all workers are busy).
    pub dispatchers: usize,
    /// Lint pool configuration.
    pub service: ServiceConfig,
    /// Largest accepted request body, in bytes; larger POSTs get a 413.
    pub max_body: usize,
    /// On the streaming lint path, stop linting a `POST /lint` body once
    /// this many diagnostics have been collected: the session is
    /// abandoned, remaining body bytes are consumed for framing only,
    /// and the truncated report is flagged with an `X-Weblint-Truncated`
    /// header. `0` means no limit.
    pub max_findings: usize,
    /// Whether to honour persistent connections at all.
    pub keep_alive: bool,
    /// Most requests served over one connection before it is closed.
    pub max_requests_per_connection: usize,
    /// Deadline for reading a complete request head once its first byte
    /// has arrived. Much shorter than [`read_timeout`](Self::read_timeout)
    /// and enforced across the whole head, not per read, so a client
    /// dribbling one header byte at a time cannot hold the connection
    /// open (the slowloris defense).
    pub header_timeout: Duration,
    /// Socket read timeout: idle keep-alive, and stalled clients sending
    /// a request body, are dropped after this long.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Inject deterministic faults into the `url=` fetch path (the chaos
    /// harness; `None` in normal operation).
    pub faults: Option<FaultSpec>,
    /// Seed for fault injection and retry jitter.
    pub fault_seed: u64,
    /// Enable the adaptive pacer (AIMD limits + hedging telemetry) on
    /// the chaos fetch stack; only meaningful with `faults` set.
    pub adaptive: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            mode: ServerMode::default(),
            dispatchers: 0,
            service: ServiceConfig::default(),
            max_body: 1 << 20,
            max_findings: 0,
            keep_alive: true,
            max_requests_per_connection: 100,
            header_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            faults: None,
            fault_seed: 0,
            adaptive: false,
        }
    }
}

/// The per-connection subset of [`ServerConfig`].
#[derive(Debug)]
pub(crate) struct ConnLimits {
    pub(crate) max_body: usize,
    pub(crate) max_findings: usize,
    pub(crate) keep_alive: bool,
    pub(crate) max_requests: usize,
    pub(crate) header_timeout: Duration,
    pub(crate) read_timeout: Duration,
    pub(crate) write_timeout: Duration,
}

/// A bound-but-not-yet-serving server. [`HttpServer::start`] begins
/// accepting and hands back the [`ServerHandle`] that controls shutdown.
pub struct HttpServer {
    listener: TcpListener,
    addr: SocketAddr,
    app: Arc<App>,
    limits: ConnLimits,
    dispatchers: usize,
    poller: Poller,
    waker: Arc<WakePipe>,
}

impl HttpServer {
    /// Bind with a default gateway and an empty simulated web.
    pub fn bind(config: ServerConfig) -> io::Result<HttpServer> {
        HttpServer::bind_with(config, Gateway::default(), SharedWeb::default())
    }

    /// Bind with an explicit gateway and simulated web (the `url=` flow
    /// resolves against `web`). Fails if the address cannot be bound or
    /// the readiness loop's poller or self-pipe cannot be set up.
    pub fn bind_with(
        config: ServerConfig,
        gateway: Gateway,
        web: SharedWeb,
    ) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(&config.addr)?;
        // The loop accepts only on readiness and must never block in it.
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // The self-pipe lets shutdown (and completed lint jobs) interrupt
        // the loop's wait.
        let waker = Arc::new(WakePipe::new()?);
        let poller = crate::event::poller_for(&listener, &waker)?;
        let service = LintService::new(config.service.clone());
        let counters = Arc::new(HttpCounters::default());
        let app = Arc::new(match config.faults.clone() {
            None => App::new(service, gateway, web, counters),
            Some(spec) => App::with_chaos(
                service,
                gateway,
                web,
                counters,
                spec,
                config.fault_seed,
                config.adaptive,
            ),
        });
        let dispatchers = if config.dispatchers == 0 {
            config.service.workers + 2
        } else {
            config.dispatchers
        };
        Ok(HttpServer {
            listener,
            addr,
            app,
            limits: ConnLimits {
                max_body: config.max_body,
                max_findings: config.max_findings,
                keep_alive: config.keep_alive,
                max_requests: config.max_requests_per_connection.max(1),
                header_timeout: config.header_timeout,
                read_timeout: config.read_timeout,
                write_timeout: config.write_timeout,
            },
            dispatchers,
            poller,
            waker,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Start the readiness loop on a background thread.
    pub fn start(self) -> ServerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let app = Arc::clone(&self.app);
            let stop = Arc::clone(&stop);
            let wake = Arc::clone(&self.waker);
            thread::Builder::new()
                .name("httpd-loop".to_string())
                .spawn(move || {
                    crate::event::event_loop(
                        self.poller,
                        self.listener,
                        app,
                        self.limits,
                        stop,
                        wake,
                        self.dispatchers,
                    );
                })
                .expect("spawn event-loop thread")
        };
        ServerHandle {
            addr: self.addr,
            app: self.app,
            stop,
            waker: self.waker,
            thread: Some(thread),
        }
    }
}

/// Controls a running server: address, metrics, graceful shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    app: Arc<App>,
    stop: Arc<AtomicBool>,
    waker: Arc<WakePipe>,
    thread: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the server-side counters.
    pub fn http_metrics(&self) -> HttpMetrics {
        self.app.counters.snapshot()
    }

    /// Snapshot of the lint pool's metrics.
    pub fn service_metrics(&self) -> ServiceMetrics {
        self.app.service.metrics()
    }

    /// Graceful shutdown: stop accepting, let every in-flight request
    /// finish and its connection close, join all threads. Returns the
    /// final metrics.
    pub fn shutdown(mut self) -> (HttpMetrics, ServiceMetrics) {
        self.stop_and_join();
        (self.http_metrics(), self.service_metrics())
    }

    /// Block until the server exits (it only does on shutdown, so this
    /// parks the caller — the `weblint-serve` binary's foreground mode).
    pub fn join(mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        // An idle event loop blocks in its wait; the self-pipe gets it to
        // notice the flag now rather than at its next deadline.
        self.waker.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Read, Write};
    use std::net::TcpStream;

    #[test]
    fn serves_health_over_tcp_and_shuts_down() {
        let handle = HttpServer::bind(ServerConfig::default()).unwrap().start();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .write_all(b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.ends_with("\r\n\r\nok\n"), "{response}");
        let (http, _service) = handle.shutdown();
        assert_eq!(http.connections_accepted, 1);
        assert_eq!(http.requests_served, 1);
        assert_eq!(http.open_connections, 0);
        assert!(http.bytes_out > 0);
    }

    #[test]
    fn keep_alive_serves_multiple_requests_up_to_cap() {
        let config = ServerConfig {
            max_requests_per_connection: 3,
            ..ServerConfig::default()
        };
        let handle = HttpServer::bind(config).unwrap().start();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for i in 0..3 {
            crate::client::write_request(&mut stream, "GET", "/health", &[], b"").unwrap();
            let response = crate::client::read_response(&mut reader).unwrap();
            assert_eq!(response.status, 200);
            let expected = if i < 2 { "keep-alive" } else { "close" };
            assert_eq!(response.header("connection"), Some(expected), "request {i}");
            assert_eq!(response.body_text(), "ok\n");
        }
        // The cap closed the connection after the third response.
        assert_eq!(reader.read(&mut [0u8; 1]).unwrap(), 0);
        let (http, _) = handle.shutdown();
        assert_eq!(http.connections_accepted, 1);
        assert_eq!(http.requests_served, 3);
        assert_eq!(http.keepalive_reuse, 2);
    }

    #[test]
    fn keep_alive_disabled_closes_after_one_request() {
        let config = ServerConfig {
            keep_alive: false,
            ..ServerConfig::default()
        };
        let handle = HttpServer::bind(config).unwrap().start();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .write_all(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.contains("Connection: close\r\n"), "{response}");
        handle.shutdown();
    }

    #[test]
    fn malformed_request_is_answered_then_closed() {
        let handle = HttpServer::bind(ServerConfig::default()).unwrap().start();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(b"NOT-EVEN-HTTP\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
        let (http, _) = handle.shutdown();
        assert_eq!(http.parse_errors, 1);
    }
}
