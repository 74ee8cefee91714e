//! E19: C10k — idle scale on the readiness loop.
//!
//! Ten thousand established keep-alive connections must sit on one loop
//! thread with flat memory — a buffer each, not a stack each — and the
//! loop must still answer with all of them parked. Request throughput
//! under load is timed end to end by the wlbench `serve` workload, not
//! here.
//!
//! The server runs as a real `weblint-serve` subprocess (its own file
//! descriptor budget, its own address space for the RSS measurements);
//! the test process plays the 10k clients. Each process needs an open-file
//! limit above 10k, so the test is ignored by default and `ci.sh` runs it
//! with `--ignored`. It reads `/proc/<pid>/status`, so it is Linux-only
//! like the epoll backend.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use weblint_httpd::client;

/// Idle population parked on the loop.
const IDLE_CONNS: usize = 10_000;
/// Idle-population memory bound: bytes of server RSS growth per
/// additional established connection. A parked connection costs a small
/// heap record; a thread costs kilobytes of touched stack. The bound
/// sits far above the former and far below the latter.
const MAX_BYTES_PER_IDLE_CONN: u64 = 4096;

/// A `weblint-serve` subprocess bound to an ephemeral port.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    fn spawn() -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_weblint-serve"))
            .args([
                "-port",
                "0",
                "-jobs",
                "2",
                "-idle-timeout",
                "600",
                "-max-requests",
                "1000000",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn weblint-serve");
        // First stdout line: "weblint-serve: listening on http://ADDR/ ...".
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("child stdout"))
            .read_line(&mut line)
            .expect("read listening line");
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split('/').next())
            .and_then(|addr| addr.parse().ok())
            .unwrap_or_else(|| panic!("unparseable listening line: {line:?}"));
        Server { child, addr }
    }

    /// The `open_connections` gauge, parsed off `/metrics` (fetched over
    /// a throwaway connection) at its "  loop:  N open, ..." line.
    fn open_connections(&self) -> u64 {
        let mut stream = TcpStream::connect(self.addr).expect("connect for metrics");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        client::write_request(&mut stream, "GET", "/metrics", &[], b"").expect("send");
        let response = client::read_response(&mut BufReader::new(stream)).expect("metrics");
        let text = response.body_text();
        text.lines()
            .find_map(|line| {
                line.trim_start()
                    .strip_prefix("loop:")
                    .and_then(|rest| rest.trim_start().split(' ').next())
                    .and_then(|n| n.parse().ok())
            })
            .unwrap_or_else(|| panic!("no loop: line in metrics:\n{text}"))
    }

    /// `(VmRSS in KiB, thread count)` from `/proc/<pid>/status`.
    fn rss_and_threads(&self) -> (u64, u64) {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .expect("read /proc status");
        let field = |name: &str| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(name))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|n| n.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("no {name} in /proc status"))
        };
        (field("VmRSS:"), field("Threads:"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
#[ignore = "needs a 10k+ fd budget"]
fn ten_thousand_idle_connections_keep_memory_and_threads_flat() {
    let server = Server::spawn();

    // Grow the population in quarters; after each, wait for the server's
    // open-connection gauge to catch up (accepts are asynchronous) and
    // sample its memory.
    let step = IDLE_CONNS / 4;
    let mut conns: Vec<TcpStream> = Vec::with_capacity(IDLE_CONNS);
    let mut samples = Vec::new();
    while conns.len() < IDLE_CONNS {
        let target = conns.len() + step;
        while conns.len() < target {
            let stream = TcpStream::connect(server.addr)
                .unwrap_or_else(|e| panic!("connect {}: {e}", conns.len()));
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("read timeout");
            conns.push(stream);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while (server.open_connections() as usize) < target {
            assert!(Instant::now() < deadline, "accepts stalled at {target}");
            std::thread::sleep(Duration::from_millis(20));
        }
        let (rss_kb, threads) = server.rss_and_threads();
        eprintln!("  {target:>6} idle conn(s): RSS {rss_kb:>6} KiB, {threads} thread(s)");
        samples.push((target as u64, rss_kb, threads));
    }

    // Flat memory: no new threads past the first sample, and RSS growth
    // per additional parked connection bounded well below a thread
    // stack's touched pages.
    let (first_count, first_rss, first_threads) = samples[0];
    let (last_count, last_rss, last_threads) = *samples.last().expect("samples");
    assert_eq!(
        first_threads, last_threads,
        "the idle population grew the thread count"
    );
    let grown = last_rss.saturating_sub(first_rss) * 1024;
    let per_conn = grown / (last_count - first_count);
    eprintln!(
        "  growth {first_count}..{last_count}: {} KiB total, {per_conn} B per connection \
         (bound {MAX_BYTES_PER_IDLE_CONN})",
        grown / 1024
    );
    assert!(
        per_conn <= MAX_BYTES_PER_IDLE_CONN,
        "idle connections cost {per_conn} B each (bound {MAX_BYTES_PER_IDLE_CONN})"
    );

    // The loop still answers with the whole population parked: round
    // trips through a connection in the middle of it.
    let request = client::request_bytes("GET", "/health", &[], b"");
    let mut stream = conns[IDLE_CONNS / 2].try_clone().expect("clone");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for _ in 0..10 {
        stream.write_all(&request).expect("send");
        let response = client::read_response(&mut reader).expect("response");
        assert_eq!(response.status, 200);
    }

    let open = server.open_connections();
    assert!(
        open >= IDLE_CONNS as u64,
        "gauge says {open} open with {IDLE_CONNS} parked"
    );
}
