//! `weblint-serve` — the lint engine as a long-lived HTTP service.
//!
//! The paper's gateways forked a Perl interpreter per CGI submission
//! (§4.5); this binary is the same front door as one resident process: a
//! std-only HTTP/1.1 server over the `weblint-service` worker pool.
//!
//! ```text
//! usage: weblint-serve [options]
//!   -port N       listen port (default 8018, 0 picks an ephemeral port)
//!   -jobs N       lint worker threads (default: one per CPU, capped at 8)
//!   -max-body N   largest accepted POST body in bytes (default 1048576)
//!   -keep-alive on|off   persistent connections (default on)
//!   -smoke        bind an ephemeral port, self-check every route, exit
//!   -help
//! ```

use std::io::BufReader;
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

use weblint_gateway::Gateway;
use weblint_httpd::{client, HttpServer, ServerConfig};
use weblint_service::ServiceConfig;
use weblint_site::{FaultSpec, SharedWeb, SimulatedWeb};

const USAGE: &str = "\
usage: weblint-serve [options]

Serve weblint over HTTP. POST a document to /lint (pick the output with
?format=lint|short|terse|explain|json|html or an Accept header), or GET
/lint?url=... to lint a page of the built-in demo site. POST a document
to /fix to get it back repaired (the X-Weblint-Fixed-Count header counts
the applied fixes). /health answers liveness probes and /metrics reports
pool and server counters.

options:
  -port N       listen port (default 8018, 0 picks an ephemeral port)
  -jobs N       lint worker threads (default: one per CPU, capped at 8)
  -max-body N   largest accepted POST body in bytes (default 1048576)
  -max-findings N   stop a streamed lint after N findings; the truncated
                response carries an X-Weblint-Truncated header
                (default 0 = report everything)
  -keep-alive on|off   persistent connections (default on)
  -idle-timeout SECS   drop idle or stalled connections after this many
                seconds (default 5)
  -max-requests N   close a keep-alive connection after serving this
                many requests (default 100)
  -faults SPEC  inject deterministic faults into the url= fetch path;
                SPEC is RATE% or RATE%:KIND+KIND (kinds: latency,
                timeout, 5xx, reset, truncate), optionally confined to
                one host with @HOST
  -fault-seed N seed for fault injection and retry jitter (default 0)
  -adaptive     pace faulted fetches: AIMD per-host limits plus
                budget-capped hedges (needs -faults)
  -smoke        bind an ephemeral port, self-check every route, exit
  -help         this message";

struct Options {
    port: u16,
    jobs: usize,
    max_body: usize,
    max_findings: usize,
    keep_alive: bool,
    idle_timeout: Option<Duration>,
    max_requests: Option<usize>,
    faults: Option<FaultSpec>,
    /// Non-fatal `-faults` parse warnings (unknown kinds), collected so
    /// `main` prints them — the same convention as poacher, down to the
    /// valid-kinds list in the message.
    fault_warnings: Vec<String>,
    fault_seed: u64,
    adaptive: bool,
    smoke: bool,
}

fn parse(argv: &[String]) -> Result<Options, String> {
    let mut options = Options {
        port: 8018,
        jobs: 0,
        max_body: 1 << 20,
        max_findings: 0,
        keep_alive: true,
        idle_timeout: None,
        max_requests: None,
        faults: None,
        fault_warnings: Vec::new(),
        fault_seed: 0,
        adaptive: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-port" => {
                let v = it.next().ok_or("-port needs a number")?;
                options.port = v
                    .parse()
                    .map_err(|_| format!("-port needs a port number, got `{v}'"))?;
            }
            "-jobs" => {
                let v = it.next().ok_or("-jobs needs a number")?;
                options.jobs = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("-jobs needs a positive number, got `{v}'"))?;
            }
            "-max-body" => {
                let v = it.next().ok_or("-max-body needs a number")?;
                options.max_body = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("-max-body needs a positive number, got `{v}'"))?;
            }
            "-max-findings" => {
                let v = it.next().ok_or("-max-findings needs a number")?;
                options.max_findings =
                    v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("-max-findings needs a positive number, got `{v}'")
                    })?;
            }
            "-keep-alive" => {
                let v = it.next().ok_or("-keep-alive needs on or off")?;
                options.keep_alive = match v.as_str() {
                    "on" => true,
                    "off" => false,
                    _ => return Err(format!("-keep-alive needs on or off, got `{v}'")),
                };
            }
            "-idle-timeout" => {
                let v = it.next().ok_or("-idle-timeout needs seconds")?;
                options.idle_timeout = Some(
                    v.parse()
                        .ok()
                        .filter(|&n: &u64| n >= 1)
                        .map(Duration::from_secs)
                        .ok_or_else(|| {
                            format!("-idle-timeout needs a positive number of seconds, got `{v}'")
                        })?,
                );
            }
            "-max-requests" => {
                let v = it.next().ok_or("-max-requests needs a number")?;
                options.max_requests =
                    Some(v.parse().ok().filter(|&n: &usize| n >= 1).ok_or_else(|| {
                        format!("-max-requests needs a positive number, got `{v}'")
                    })?);
            }
            "-faults" => {
                let v = it
                    .next()
                    .ok_or("-faults needs a spec, e.g. 20% or 5%:timeout+5xx")?;
                // Unknown fault kinds degrade to a warning (the same
                // convention as unknown check ids): warn, keep going.
                let (spec, warnings) =
                    FaultSpec::parse_lenient(v).map_err(|e| format!("-faults: {e}"))?;
                options.faults = Some(spec);
                options
                    .fault_warnings
                    .extend(warnings.into_iter().map(|w| format!("-faults: {w}")));
            }
            "-fault-seed" => {
                let v = it.next().ok_or("-fault-seed needs a number")?;
                options.fault_seed = v
                    .parse()
                    .map_err(|_| format!("-fault-seed needs a number, got `{v}'"))?;
            }
            "-adaptive" => options.adaptive = true,
            "-smoke" => options.smoke = true,
            "-help" | "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}'")),
        }
    }
    Ok(options)
}

/// The demo site behind `GET /lint?url=…` — pages with and without
/// problems, plus a redirect, so the URL flow is explorable out of the box.
fn demo_web() -> SharedWeb {
    let mut web = SimulatedWeb::new();
    web.add_page(
        "http://demo/index.html",
        "<HTML><HEAD><TITLE>Demo</TITLE></HEAD>\n\
         <BODY><H1>Welcome</H2><IMG SRC=\"logo.gif\"></BODY></HTML>\n",
    );
    web.add_page(
        "http://demo/clean.html",
        "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0//EN\">\n\
         <HTML><HEAD><TITLE>Clean</TITLE></HEAD>\n\
         <BODY><P>Nothing to report.</P></BODY></HTML>\n",
    );
    web.add_redirect("http://demo/old.html", "/clean.html");
    SharedWeb::new(web)
}

fn server_config(options: &Options) -> ServerConfig {
    let mut service = ServiceConfig::default();
    if options.jobs >= 1 {
        service.workers = options.jobs;
    }
    let mut config = ServerConfig {
        addr: format!("127.0.0.1:{}", options.port),
        service,
        max_body: options.max_body,
        max_findings: options.max_findings,
        keep_alive: options.keep_alive,
        faults: options.faults.clone(),
        fault_seed: options.fault_seed,
        adaptive: options.adaptive,
        ..ServerConfig::default()
    };
    if let Some(idle) = options.idle_timeout {
        config.read_timeout = idle;
    }
    if let Some(max) = options.max_requests {
        config.max_requests_per_connection = max;
    }
    config
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&argv) {
        Ok(o) => o,
        Err(message) => {
            if message.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("weblint-serve: {message}");
            return ExitCode::from(2);
        }
    };
    for warning in &options.fault_warnings {
        eprintln!("weblint-serve: {warning}");
    }
    if options.smoke {
        return match smoke(&options) {
            Ok(summary) => {
                println!("weblint-serve: smoke ok ({summary})");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("weblint-serve: smoke FAILED: {message}");
                ExitCode::from(1)
            }
        };
    }
    let config = server_config(&options);
    let server = match HttpServer::bind_with(config, Gateway::default(), demo_web()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("weblint-serve: cannot bind port {}: {e}", options.port);
            return ExitCode::from(2);
        }
    };
    let addr = server.local_addr();
    println!("weblint-serve: listening on http://{addr}/ (POST /lint, POST /fix, GET /lint?url=..., /health, /metrics)");
    server.start().join();
    ExitCode::SUCCESS
}

/// Requests the `-smoke` self-check sends on its one connection.
const SMOKE_REQUESTS: u64 = 9;

/// The `-smoke` self-check: bind an ephemeral port, drive every route
/// over a real socket, verify the answers, shut down gracefully.
fn smoke(options: &Options) -> Result<String, String> {
    let mut config = server_config(options);
    config.addr = "127.0.0.1:0".to_string();
    let server = HttpServer::bind_with(config, Gateway::default(), demo_web())
        .map_err(|e| format!("bind: {e}"))?;
    let handle = server.start();
    let addr = handle.addr();

    let fixture = "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><H1>x</H2></BODY></HTML>";
    let run = || -> Result<String, String> {
        let io = |e: std::io::Error| format!("io: {e}");
        let mut stream = TcpStream::connect(addr).map_err(io)?;
        let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
        let mut ask = |method: &str, target: &str, body: &[u8]| {
            client::write_request(&mut stream, method, target, &[], body).map_err(io)?;
            client::read_response(&mut reader).map_err(io)
        };

        let health = ask("GET", "/health", b"")?;
        if health.status != 200 || health.body_text() != "ok\n" {
            return Err(format!("/health answered {}", health.status));
        }
        // Lint the fixture twice: each streams through a fresh session on
        // the event loop, and the repeat must be byte-identical.
        let first = ask("POST", "/lint?name=smoke.html", fixture.as_bytes())?;
        if first.status != 200 || !first.body_text().contains("malformed heading") {
            return Err(format!(
                "POST /lint missed the malformed heading: {}",
                first.body_text().trim()
            ));
        }
        let second = ask("POST", "/lint?name=smoke.html", fixture.as_bytes())?;
        if second.body != first.body {
            return Err("repeated POST /lint was not byte-identical".to_string());
        }
        // The URL flow at both ends: a page with problems, a redirect
        // reported under the page it lands on, and a missing page.
        for (url, status, needle) in [
            ("http://demo/index.html", 200, "malformed heading"),
            ("http://demo/old.html", 200, "http://demo/clean.html"),
            ("http://demo/missing.html", 404, "404 Not Found"),
        ] {
            let answer = ask("GET", &format!("/lint?url={url}"), b"")?;
            if options.faults.is_some() {
                // Under injected faults the fetch may legitimately fail after
                // retries; what matters is a definite answer, not a wedge.
                if answer.status != status && answer.status != 502 {
                    return Err(format!(
                        "chaotic GET /lint?url={url} answered {}",
                        answer.status
                    ));
                }
            } else if answer.status != status || !answer.body_text().contains(needle) {
                return Err(format!(
                    "GET /lint?url={url} answered {}, expected {status} naming {needle:?}",
                    answer.status
                ));
            }
        }
        // POST /fix must hand back a repaired document and say how much
        // it repaired in the X-Weblint-Fixed-Count header.
        let fixed = ask("POST", "/fix", fixture.as_bytes())?;
        if fixed.status != 200 || !fixed.body_text().contains("</H1>") {
            return Err(format!(
                "POST /fix did not repair the heading: {}",
                fixed.body_text().trim()
            ));
        }
        match fixed.header("x-weblint-fixed-count") {
            Some(n) if n.parse::<u64>().is_ok_and(|n| n >= 1) => {}
            other => return Err(format!("bad X-Weblint-Fixed-Count: {other:?}")),
        }
        // Fix jobs ride the worker pool, so repeating the POST /fix
        // exercises the result cache.
        let refixed = ask("POST", "/fix", fixture.as_bytes())?;
        if refixed.body != fixed.body {
            return Err("repeated POST /fix was not byte-identical".to_string());
        }
        let metrics = ask("GET", "/metrics", b"")?;
        if !metrics.body_text().contains("cache:") {
            return Err("GET /metrics lacks cache counters".to_string());
        }
        if !metrics.body_text().contains("fix(es) applied") {
            return Err("GET /metrics lacks fix counters".to_string());
        }
        if options.faults.is_some() && !metrics.body_text().contains("fault injection:") {
            return Err("chaotic GET /metrics lacks fault injection counters".to_string());
        }
        Ok(format!("{SMOKE_REQUESTS} request(s) on one connection"))
    };
    let outcome = run();

    let (http, service) = handle.shutdown();
    let summary = outcome?;
    if service.cache.hits < 1 {
        return Err(format!(
            "expected a cache hit from the duplicate POST /fix, saw {}",
            service.cache.hits
        ));
    }
    if http.requests_served < SMOKE_REQUESTS {
        return Err(format!(
            "expected {SMOKE_REQUESTS} requests served, counted {}",
            http.requests_served
        ));
    }
    if http.fix_requests < 1 {
        return Err("expected the POST /fix request in the fix counters".to_string());
    }
    Ok(format!(
        "{summary}, {} job(s) linted, {} cache hit(s)",
        service.jobs_completed, service.cache.hits
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse() {
        let options = parse(&args(&[
            "-port",
            "0",
            "-jobs",
            "2",
            "-max-body",
            "4096",
            "-keep-alive",
            "off",
        ]))
        .unwrap();
        assert_eq!(options.port, 0);
        assert_eq!(options.jobs, 2);
        assert_eq!(options.max_body, 4096);
        assert!(!options.keep_alive);
        assert!(parse(&args(&["-smoke"])).unwrap().smoke);
        let options = parse(&args(&["-max-findings", "25"])).unwrap();
        assert_eq!(options.max_findings, 25);
        assert_eq!(server_config(&options).max_findings, 25);
        assert_eq!(
            parse(&args(&[])).unwrap().max_findings,
            0,
            "default: report everything"
        );
    }

    #[test]
    fn connection_cap_flags_parse() {
        let options = parse(&args(&["-idle-timeout", "300"])).unwrap();
        assert_eq!(options.idle_timeout, Some(Duration::from_secs(300)));
        assert_eq!(
            server_config(&options).read_timeout,
            Duration::from_secs(300)
        );
        let options = parse(&args(&["-max-requests", "1000000"])).unwrap();
        assert_eq!(options.max_requests, Some(1_000_000));
        assert_eq!(
            server_config(&options).max_requests_per_connection,
            1_000_000
        );
    }

    #[test]
    fn bad_flags_error() {
        for bad in [
            &["-port", "pony"][..],
            &["-jobs", "0"],
            &["-jobs", "four"],
            &["-max-body", "0"],
            &["-max-findings", "0"],
            &["-max-findings", "some"],
            &["-keep-alive", "maybe"],
            &["-idle-timeout", "0"],
            &["-idle-timeout", "soon"],
            &["-max-requests", "0"],
            &["-max-requests", "lots"],
            &["-wat"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn fault_flags_parse() {
        let options = parse(&args(&["-faults", "20%", "-fault-seed", "7", "-adaptive"])).unwrap();
        assert_eq!(options.faults.unwrap().rate_percent, 20);
        assert!(options.fault_warnings.is_empty());
        assert_eq!(options.fault_seed, 7);
        assert!(options.adaptive);
        assert!(!parse(&args(&["-smoke"])).unwrap().adaptive);
        assert!(parse(&args(&["-faults", "huge%"])).is_err());
        assert!(parse(&args(&["-fault-seed", "soon"])).is_err());
    }

    #[test]
    fn unknown_fault_kind_warns_with_the_valid_kinds() {
        // The same leniency (and the same message, valid-kinds list
        // included) as poacher: the unknown kind is dropped with a
        // warning, the known remainder still applies.
        let options = parse(&args(&["-faults", "20%:timeout+gremlins"])).unwrap();
        assert_eq!(options.faults.unwrap().kinds.len(), 1);
        assert_eq!(options.fault_warnings.len(), 1);
        assert!(
            options.fault_warnings[0].contains("gremlins")
                && options.fault_warnings[0].contains("valid kinds"),
            "{:?}",
            options.fault_warnings
        );
    }

    #[test]
    fn smoke_passes_end_to_end() {
        let options = parse(&args(&["-smoke", "-jobs", "2"])).unwrap();
        let summary = smoke(&options).unwrap();
        assert!(summary.contains("cache hit"), "{summary}");
    }

    #[test]
    fn smoke_passes_under_injected_faults() {
        let options = parse(&args(&["-smoke", "-faults", "20%", "-fault-seed", "7"])).unwrap();
        let summary = smoke(&options).unwrap();
        assert!(summary.contains("cache hit"), "{summary}");
    }
}
