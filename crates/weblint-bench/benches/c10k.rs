//! E19: C10k — idle scale on the readiness loop.
//!
//! Ten thousand established keep-alive connections must sit on one loop
//! thread with flat memory — a buffer each, not a stack each — and the
//! loop must still answer promptly with all of them parked. Request
//! throughput under load is timed end to end by the wlbench `serve`
//! workload, not here.
//!
//! The server runs as a real `weblint-serve` subprocess (its own file
//! descriptor budget, its own address space for the RSS measurements);
//! the bench process plays the 10k clients.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use weblint_bench::experiment_header;
use weblint_httpd::client;

/// Idle population for the flat-memory phase (`C10K_IDLE` overrides).
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
        let mut child = Command::new(server_binary())
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

    /// Fetch `/metrics` over a throwaway connection.
    fn metrics(&self) -> String {
        let mut stream = TcpStream::connect(self.addr).expect("connect for metrics");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("send metrics request");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("read metrics");
        String::from_utf8_lossy(&raw).into_owned()
    }

    /// The `open_connections` gauge, parsed off the rendered metrics
    /// ("  loop:  N open, ...").
    fn open_connections(&self) -> u64 {
        let text = self.metrics();
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

/// Locate (building if needed) the release `weblint-serve` binary.
fn server_binary() -> PathBuf {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/release/weblint-serve");
    if !path.exists() {
        let status = Command::new("cargo")
            .args([
                "build",
                "--release",
                "-p",
                "weblint-cli",
                "--bin",
                "weblint-serve",
            ])
            .current_dir(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."))
            .status()
            .expect("run cargo build");
        assert!(status.success(), "building weblint-serve failed");
    }
    path.canonicalize().expect("weblint-serve binary path")
}

/// The C10k phase proper: park an idle keep-alive population on the
/// event loop and watch the server's RSS and thread count as it grows.
fn bench_idle_scale(c: &mut Criterion) {
    let idle: usize = std::env::var("C10K_IDLE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(IDLE_CONNS);
    experiment_header(
        "E19",
        "C10k: idle keep-alive population on one event-loop thread",
    );
    let server = Server::spawn();
    let request = client::request_bytes("GET", "/health", &[], b"");

    // Grow the population in steps; after each, wait for the server's
    // open-connection gauge to catch up (accepts are asynchronous) and
    // sample its memory.
    let step = (idle / 4).max(1);
    let mut conns: Vec<TcpStream> = Vec::with_capacity(idle);
    let mut samples = Vec::new();
    while conns.len() < idle {
        let target = (conns.len() + step).min(idle);
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
        println!("  {target:>6} idle conn(s): RSS {rss_kb:>6} KiB, {threads} thread(s)");
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
    let grown = (last_rss.saturating_sub(first_rss)) * 1024;
    let per_conn = grown / (last_count - first_count).max(1);
    println!(
        "  growth {}..{}: {} KiB total, {per_conn} B per connection (bound {MAX_BYTES_PER_IDLE_CONN})",
        first_count,
        last_count,
        grown / 1024
    );
    assert!(
        per_conn <= MAX_BYTES_PER_IDLE_CONN,
        "idle connections cost {per_conn} B each (bound {MAX_BYTES_PER_IDLE_CONN})"
    );

    // The loop must still be responsive with the whole population
    // parked: time a round trip over a handful of the parked
    // connections, criterion-sampled.
    let mut group = c.benchmark_group("c10k_idle");
    group.throughput(Throughput::Elements(1));
    group.bench_function(BenchmarkId::new("roundtrip_amid", idle), |b| {
        let mut stream = conns[idle / 2].try_clone().expect("clone");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        b.iter(|| {
            stream.write_all(&request).expect("send");
            let response = client::read_response(&mut reader).expect("response");
            assert_eq!(response.status, 200);
        })
    });
    group.finish();

    let open = server.open_connections();
    assert!(
        open >= idle as u64,
        "gauge says {open} open with {idle} parked"
    );
    drop(conns);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_idle_scale
}
criterion_main!(benches);
