//! weblint-rs benchmark: three seeded workloads, one per way the paper's
//! users reach weblint, each checked against an oracle that does not come
//! from the linter under test.
//!
//! ```text
//! cargo run --release --manifest-path wlbench/Cargo.toml -- \
//!     --workload files|serve|crawl --seed N --seconds S --trace 0|1
//! ```
//!
//! * `files` — the command-line and library user: corpus documents linted
//!   one-shot, streamed in 8 KiB feeds, and fixed, on one thread.
//! * `serve` — the gateway user: an in-process `HttpServer` on loopback,
//!   one interactive keep-alive connection (`/lint`, `/fix`, `/health`)
//!   and one bulk-upload connection sharing its event loop.
//! * `crawl` — the robot user: `Robot::crawl_sharded` over seeded
//!   `MegaSite` federations behind a fetcher with a real per-request delay.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. Every
//! workload reports every one of them, each read on that workload's path:
//!
//! | metric | files | serve | crawl |
//! |---|---|---|---|
//! | `ops_s` | documents/s | interactive requests/s | pages/s |
//! | `mib_s` | corpus bytes/s | one bulk upload's bytes/latency | page bytes/s |
//! | `p50_ms`, `p99_ms` | one document's lint + report | `POST /lint` | one crawl |
//!
//! plus `setup_s` (building the session and fixer, the server up to its
//! first `/health` 200, or the robot and its fetch stacks), `ok_ratio`
//! (operations passing their oracle ÷ attempted) and `peak_rss_mib`.
//! Figures that belong to one workload print as `metric:` lines without
//! entering the result: files' one-shot and 8 KiB-streamed MiB/s and
//! `Fixer` latency, serve's `POST /fix` latency.
//!
//! `--trace 1` is the separate traced run: the selected workload untraced,
//! then the layer ladder (files, serve and crawl, each traced) for the
//! per-layer metrics and the tracing overhead. Its spans go to
//! `.bench_trace/`. The last line of standard output is the JSON result.

mod corpus;
mod crawl;
mod files;
mod http;
mod serve;
mod trace;
mod util;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Tracer;
use util::Outcome;

/// End-to-end metrics, reported by every workload (`--trace 0`).
const END_TO_END: &[&str] = &[
    "setup_s",
    "ok_ratio",
    "peak_rss_mib",
    "ops_s",
    "mib_s",
    "p50_ms",
    "p99_ms",
];

/// Per-layer metrics, reported by the traced run (`--trace 1`).
const PER_LAYER: &[&str] = &[
    "tokenizer.busy_s",
    "tokenizer.tokens",
    "tokenizer.bytes_per_token",
    "core.oneshot.busy_s",
    "core.oneshot.walk_s",
    "core.stream.busy_s",
    "core.stream.feeds",
    "core.stream.toll",
    "core.diagnostics",
    "core.format.busy_s",
    "core.replay.feed_s",
    "fix.busy_s",
    "fix.applied",
    "service.jobs",
    "service.cache_hit_ratio",
    "service.coalesced",
    "service.queue_wait_s",
    "service.lint_s",
    "service.rejected",
    "httpd.requests",
    "httpd.streamed_lints",
    "httpd.wakeups_per_request",
    "httpd.keepalive_reuse",
    "httpd.shed",
    "httpd.worker_errors",
    "httpd.bytes_in",
    "httpd.bytes_out",
    "httpd.client.send_s",
    "httpd.client.wait_s",
    "httpd.client.recv_s",
    "site.fetch.calls",
    "site.fetch.busy_s",
    "site.useful_ratio",
    "site.retries",
    "site.hedges_fired",
    "site.hedges_won",
    "site.aimd_decreases",
    "site.waves",
    "trace.overhead",
    "trace.spans",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Files,
    Serve,
    Crawl,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "files" => Some(Workload::Files),
            "serve" => Some(Workload::Serve),
            "crawl" => Some(Workload::Crawl),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Files => "files",
            Workload::Serve => "serve",
            Workload::Crawl => "crawl",
        }
    }

    fn run(self, seed: u64, window: Duration, tracer: &mut Tracer) -> Outcome {
        match self {
            Workload::Files => files::run(seed, window, tracer),
            Workload::Serve => serve::run(seed, window, tracer),
            Workload::Crawl => crawl::run(seed, window, tracer),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload files|serve|crawl")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wlbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "env: nproc={nproc} profile={} server_mode=event-loop transport=loopback(127.0.0.1) \
         workload={} seed={} seconds={} trace={} machine_probe_mib_s={:.0}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        util::machine_probe_mib_s()
    );
    let window = Duration::from_secs(args.seconds);
    let (outcome, wanted) = if args.trace {
        (traced_run(&args, window), PER_LAYER)
    } else {
        let mut outcome =
            args.workload
                .run(args.seed, window, &mut Tracer::new(false, Instant::now()));
        outcome.put("ok_ratio", outcome.ok_ratio(), "ratio");
        outcome.put("peak_rss_mib", util::peak_rss_mib(), "MiB");
        (outcome, END_TO_END)
    };
    println!(
        "env: machine_probe_mib_s={:.0} (after)",
        util::machine_probe_mib_s()
    );
    for metric in &outcome.metrics {
        println!("metric: {} = {} {}", metric.name, metric.value, metric.unit);
    }
    println!(
        "oracle: attempted={} failed={} fail_ratio={} (base: attempted)",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for error in &outcome.errors {
        println!("oracle failure: {error}");
    }
    println!("{}", outcome.json(wanted));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The traced run: the selected workload untraced, then the layer ladder
/// (files, serve and crawl, each traced) so every layer reports. The gap
/// between the selected workload's untraced and traced rates is the
/// tracing overhead. Each phase runs for a quarter of the window.
fn traced_run(args: &Args, window: Duration) -> Outcome {
    let share = window / 4;
    let epoch = Instant::now();
    let mut outcome = args
        .workload
        .run(args.seed, share, &mut Tracer::new(false, epoch));
    // Each workload's `trace_base` is a rate over work its traced run does
    // too (the traced files pass adds a tokenize call outside it).
    let untraced = metric(&outcome, "trace_base");
    outcome.metrics.clear();
    let mut tracer = Tracer::new(true, epoch);
    for (phase, workload) in [Workload::Files, Workload::Serve, Workload::Crawl]
        .into_iter()
        .enumerate()
    {
        let mut spans = Tracer::new(true, epoch);
        let mut result = workload.run(args.seed, share, &mut spans);
        if workload == args.workload {
            let traced = metric(&result, "trace_base");
            outcome.put("trace.overhead", untraced / traced - 1.0, "ratio");
        }
        // Only layer metrics leave a phase; its end-to-end figures were
        // taken with tracing on and are not reported.
        result.metrics.retain(|m| m.name.contains('.'));
        outcome.absorb(result);
        tracer.merge(spans, (phase as u64) << 40);
    }
    outcome.put("trace.spans", tracer.spans().len() as f64, "count");
    for (name, self_s) in tracer.self_times() {
        println!("self-time: {name} = {self_s} s");
    }
    let path = std::path::PathBuf::from(format!(
        ".bench_trace/{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!(
            "trace: {} spans -> {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("wlbench: writing {}: {e}", path.display()),
    }
    outcome
}

fn metric(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}
