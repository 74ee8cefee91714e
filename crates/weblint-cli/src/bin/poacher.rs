//! `poacher` — crawl a site, lint every page, validate every link.
//!
//! "A robot can be used to invoke weblint on all accessible pages on a
//! site. I have written one, called poacher, which is included with the
//! robot module for Perl. Poacher also performs basic link validation"
//! (§4.5). This poacher crawls a local directory tree served through the
//! store fetcher, starting at its `index.html` — or, with `-mega`, a
//! generated federation of hosts for the sharded-crawl experiments.
//! Either way the crawl is one `Robot::crawl_sharded` call and one report
//! printer; `-shards` and `-jobs` change how fast it runs, not what it
//! prints. `-jobs` is how many requests each shard has in flight at once,
//! HEAD link checks and page GETs alike.
//!
//! ```text
//! usage: poacher [options] DIRECTORY
//!   -s            short per-page messages
//!   -max N        stop after N pages (default 1000)
//!   -jobs N       requests in flight per shard: HEAD link checks and page GETs
//!   -quiet        dead links and summary only, no per-page lint
//!   -help
//! ```

use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use weblint_core::{format_report, LintConfig, OutputFormat};
use weblint_corpus::{MegaSite, MegaSiteOptions};
use weblint_site::{
    CheckpointConfig, CrawledPage, DirStore, FaultSpec, FetchStack, Fetcher, FnFetcher, Robot,
    RobotOptions, ShardedOptions, ShardedOutcome, StoreFetcher, Url,
};

const USAGE: &str = "\
usage: poacher [options] DIRECTORY

Crawl the site rooted at DIRECTORY (starting from its index.html), run
weblint on every reachable page, validate every link, and report the
site's navigational shape.

options:
  -s            short per-page messages (line N: ...)
  -max N        stop after N pages (default 1000); links on the pages
                crawled are still validated
  -jobs N       keep up to N requests in flight per shard, HEAD link
                checks and page GETs alike (1..=64, default 1; the
                adaptive per-host limit clamps each batch further)
  -adaptive     pace the crawl: AIMD per-host in-flight limits plus
                budget-capped hedged fetches
  -shards N     partition the crawl across N robot shards by host hash;
                shards crawl in lockstep waves and the merged report is
                byte-identical for a fixed seed
  -mega HxP     crawl a generated federation of H hosts with P pages
                each instead of DIRECTORY (seeded by -fault-seed)
  -checkpoint-dir DIR  write crash-safe crawl checkpoints into DIR
  -checkpoint-every N  checkpoint every N crawled pages (default 64)
  -resume       resume an interrupted crawl from -checkpoint-dir
  -stop-file F  stop gracefully — flush a final checkpoint, exit 0 — as
                soon as the file F exists
  -fix          repair every crawled page in place (originals kept as
                FILE.orig); messages and the exit status reflect what is
                left over after fixing (not with -mega)
  -quiet        only dead links and the summary
  -stats        print a per-rule hit table and the fetch stack's
                telemetry (faults, resilience, pacing) after the summary
  -faults SPEC  inject deterministic fetch faults and crawl through the
                retrying fetcher; SPEC is RATE% or RATE%:KIND+KIND
                (kinds: latency, timeout, 5xx, reset, truncate),
                optionally confined to one host with @HOST; unknown
                kinds are ignored with a warning
  -fault-seed N seed for fault injection and retry jitter (default 0)
  -help         this message

exit status: 0 clean (or paused by -stop-file), 1 messages or dead
links, 2 usage or I/O trouble";

#[derive(Debug)]
struct Options {
    dir: Option<String>,
    format: OutputFormat,
    max_pages: usize,
    jobs: usize,
    adaptive: bool,
    fix: bool,
    quiet: bool,
    stats: bool,
    faults: Option<FaultSpec>,
    faults_raw: String,
    fault_warnings: Vec<String>,
    fault_seed: u64,
    shards: Option<usize>,
    mega: Option<(usize, usize)>,
    checkpoint_dir: Option<String>,
    checkpoint_every: usize,
    resume: bool,
    stop_file: Option<String>,
}

fn parse_mega(v: &str) -> Result<(usize, usize), String> {
    let (h, p) = v
        .split_once('x')
        .ok_or_else(|| format!("-mega needs HOSTSxPAGES, got `{v}'"))?;
    let hosts = h
        .parse()
        .ok()
        .filter(|&n| (1..=64).contains(&n))
        .ok_or_else(|| format!("-mega needs 1..=64 hosts, got `{h}'"))?;
    let pages = p
        .parse()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("-mega needs at least one page per host, got `{p}'"))?;
    Ok((hosts, pages))
}

fn parse(argv: &[String]) -> Result<Options, String> {
    let mut options = Options {
        dir: None,
        format: OutputFormat::Lint,
        max_pages: 1_000,
        jobs: 1,
        adaptive: false,
        fix: false,
        quiet: false,
        stats: false,
        faults: None,
        faults_raw: String::new(),
        fault_warnings: Vec::new(),
        fault_seed: 0,
        shards: None,
        mega: None,
        checkpoint_dir: None,
        checkpoint_every: 64,
        resume: false,
        stop_file: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-s" => options.format = OutputFormat::Short,
            "-max" => {
                let v = it.next().ok_or("-max needs a number")?;
                options.max_pages = v.parse().map_err(|_| format!("bad -max value `{v}'"))?;
            }
            "-jobs" => {
                let v = it.next().ok_or("-jobs needs a number")?;
                options.jobs = v
                    .parse()
                    .ok()
                    .filter(|&n| (1..=64).contains(&n))
                    .ok_or_else(|| format!("-jobs needs a number in 1..=64, got `{v}'"))?;
            }
            "-adaptive" => options.adaptive = true,
            "-shards" => {
                let v = it.next().ok_or("-shards needs a number")?;
                options.shards = Some(
                    v.parse()
                        .ok()
                        .filter(|&n| (1..=64).contains(&n))
                        .ok_or_else(|| format!("-shards needs a number in 1..=64, got `{v}'"))?,
                );
            }
            "-mega" => {
                let v = it.next().ok_or("-mega needs HOSTSxPAGES, e.g. 4x50")?;
                options.mega = Some(parse_mega(v)?);
            }
            "-checkpoint-dir" => {
                let v = it.next().ok_or("-checkpoint-dir needs a directory")?;
                options.checkpoint_dir = Some(v.to_string());
            }
            "-checkpoint-every" => {
                let v = it.next().ok_or("-checkpoint-every needs a number")?;
                options.checkpoint_every = v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    format!("-checkpoint-every needs a positive number, got `{v}'")
                })?;
            }
            "-resume" => options.resume = true,
            "-stop-file" => {
                let v = it.next().ok_or("-stop-file needs a path")?;
                options.stop_file = Some(v.to_string());
            }
            "-fix" => options.fix = true,
            "-quiet" => options.quiet = true,
            "-stats" => options.stats = true,
            "-faults" => {
                let v = it
                    .next()
                    .ok_or("-faults needs a spec, e.g. 20% or 5%:timeout+5xx")?;
                let (spec, warnings) =
                    FaultSpec::parse_lenient(v).map_err(|e| format!("-faults: {e}"))?;
                options.faults = Some(spec);
                options.faults_raw = v.to_string();
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
            "-help" | "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}'"));
            }
            dir => options.dir = Some(dir.to_string()),
        }
    }
    if options.resume && options.checkpoint_dir.is_none() {
        return Err("-resume needs -checkpoint-dir".to_string());
    }
    if options.mega.is_some() && options.dir.is_some() {
        return Err("give DIRECTORY or -mega, not both".to_string());
    }
    if options.fix && options.mega.is_some() {
        return Err("-fix needs a DIRECTORY; -mega has no files to repair".to_string());
    }
    Ok(options)
}

/// Per-shard fault/jitter seed: a stable function of the crawl seed and
/// the shard index, so resumes and shard-death replays see the same
/// schedule.
fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed ^ (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The `-stats` per-rule hit table over everything the crawl linted, in
/// the same shape the lint service's metrics endpoint prints.
fn print_rule_stats(pages: &[CrawledPage]) {
    let mut counts: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for page in pages {
        for d in &page.diagnostics {
            *counts.entry(d.id).or_insert(0) += 1;
        }
    }
    if !counts.is_empty() {
        let mut pairs: Vec<(&str, u64)> = counts.into_iter().collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        println!("poacher lint statistics:");
        print!("{}", weblint_core::render_hits(&pairs));
    }
}

/// Crawl `starts` and print the report: `-shards` shard threads,
/// optional checkpoints, graceful stop, and `-fix` over a DIRECTORY's
/// files.
/// Everything on stdout is the report; notices (resume, shard deaths,
/// pause) go to stderr so a resumed crawl's stdout is byte-identical to
/// an uninterrupted run's.
fn run_crawl<F, M>(options: &Options, starts: &[Url], make_stack: M) -> ExitCode
where
    F: Fetcher + Sync,
    M: Fn(usize) -> FetchStack<F> + Sync,
{
    let robot = Robot::new(
        RobotOptions::builder()
            .max_pages(options.max_pages)
            .jobs(options.jobs)
            .check_external(false)
            .lint(LintConfig::default())
            .build(),
    );
    // A stop file that already exists pauses before the first wave.
    let stop_now = options
        .stop_file
        .as_ref()
        .is_some_and(|path| Path::new(path).exists());
    let stop = Arc::new(AtomicBool::new(stop_now));
    if let Some(path) = options.stop_file.clone() {
        let flag = Arc::clone(&stop);
        std::thread::spawn(move || loop {
            if Path::new(&path).exists() {
                flag.store(true, Ordering::SeqCst);
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        });
    }
    let sharded_options = ShardedOptions {
        shards: options.shards.unwrap_or(1),
        seed: options.fault_seed,
        checkpoint: options.checkpoint_dir.as_ref().map(|dir| CheckpointConfig {
            dir: dir.into(),
            every_pages: options.checkpoint_every,
            config_token: format!(
                "faults={};adaptive={};mega={:?}",
                options.faults_raw, options.adaptive, options.mega
            ),
        }),
        resume: options.resume,
        stop: Some(Arc::clone(&stop)),
        chaos: Default::default(),
    };
    let outcome = match robot.crawl_sharded(starts, make_stack, &sharded_options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("poacher: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(wave) = outcome.resumed_from_wave {
        eprintln!("poacher: resumed from checkpoint at wave {wave}");
    }
    if outcome.shard_deaths > 0 {
        eprintln!("poacher: survived {} shard death(s)", outcome.shard_deaths);
    }

    let report = &outcome.report;
    let mut messages = 0usize;
    let mut fixes_applied = 0usize;
    let mut io_trouble = false;
    let mut fixer = options.fix.then(weblint_fix::Fixer::new);
    for page in &report.pages {
        // `-fix`: the crawled URL path is the file's path under the root
        // (that is how StoreFetcher serves it), so repair it in place and
        // let the *residue* drive the report and the exit status.
        let diagnostics = match (fixer.as_mut(), &options.dir) {
            (Some(fixer), Some(dir)) => {
                let path = Path::new(dir).join(page.url.path.trim_start_matches('/'));
                match fix_file(fixer, &path) {
                    Ok((applied, remaining)) => {
                        fixes_applied += applied;
                        remaining
                    }
                    Err(e) => {
                        eprintln!("poacher: {}: {e}", path.display());
                        io_trouble = true;
                        continue;
                    }
                }
            }
            _ => page.diagnostics.clone(),
        };
        messages += diagnostics.len();
        if !options.quiet && !diagnostics.is_empty() {
            print!(
                "{}",
                format_report(&diagnostics, &page.url.to_string(), options.format)
            );
        }
    }
    for dead in &report.dead_links {
        println!(
            "dead link on {}: \"{}\" ({})",
            dead.page, dead.href, dead.reason
        );
    }
    if options.fix {
        println!(
            "poacher: {} fix(es) applied, {} message(s) remain",
            fixes_applied, messages
        );
    }
    println!(
        "poacher: {} page(s) crawled, {} message(s), {} dead link(s), max depth {}",
        report.pages.len(),
        messages,
        report.dead_links.len(),
        report.max_depth()
    );
    if report.truncated {
        println!("poacher: crawl truncated at {} pages", options.max_pages);
    }
    if options.stats {
        print_rule_stats(&report.pages);
    }
    if options.stats || options.faults.is_some() {
        for (i, telemetry) in &outcome.telemetry {
            if !telemetry.is_empty() {
                println!("shard {i} telemetry:");
                println!("{telemetry}");
            }
        }
    }
    if outcome.outcome != ShardedOutcome::Complete && options.checkpoint_dir.is_some() {
        eprintln!("poacher: crawl stopped; resume with -resume");
    }
    // A budget cut is a finished (truncated) crawl; only the stop file
    // pauses one.
    let paused = outcome.outcome == ShardedOutcome::Killed
        || (outcome.outcome == ShardedOutcome::Paused && stop.load(Ordering::SeqCst));
    if paused {
        // The checkpoint holds the rest of the crawl; this run did its job.
        ExitCode::SUCCESS
    } else if io_trouble {
        ExitCode::from(2)
    } else if messages > 0 || !report.dead_links.is_empty() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
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
            eprintln!("poacher: {message}");
            return ExitCode::from(2);
        }
    };
    for warning in &options.fault_warnings {
        eprintln!("poacher: {warning}");
    }

    if let Some((hosts, pages)) = options.mega {
        let site = MegaSite::new(
            options.fault_seed,
            &MegaSiteOptions {
                hosts,
                pages_per_host: pages,
                ..MegaSiteOptions::default()
            },
        );
        let starts: Vec<Url> = site
            .start_urls()
            .iter()
            .map(|u| Url::parse(u).expect("generated start URL"))
            .collect();
        let make_stack = |shard: usize| {
            let fetcher = FnFetcher::new(|url: &Url| site.resolve(&url.host, &url.path));
            build_stack(&options, fetcher, shard)
        };
        return run_crawl(&options, &starts, make_stack);
    }
    let Some(dir) = options.dir.clone() else {
        eprintln!("poacher: no directory given (try -help)");
        return ExitCode::from(2);
    };
    let store = match DirStore::open(&dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("poacher: {dir}: {e}");
            return ExitCode::from(2);
        }
    };
    let starts = vec![StoreFetcher::new(&store, "local").start_url()];
    let make_stack =
        |shard: usize| build_stack(&options, StoreFetcher::new(&store, "local"), shard);
    run_crawl(&options, &starts, make_stack)
}

/// Compose the fetch stack for one shard: faults + resilience under
/// `-faults`, pacing under `-adaptive`, the bare transport otherwise.
fn build_stack<F: Fetcher>(options: &Options, fetcher: F, shard: usize) -> FetchStack<F> {
    let seed = shard_seed(options.fault_seed, shard);
    let mut builder = FetchStack::new(fetcher);
    if let Some(spec) = options.faults.clone() {
        builder = builder.faults(spec, seed).resilience_defaults();
    }
    if options.adaptive {
        builder = builder.adaptive_defaults().hedging_defaults();
    }
    builder.build()
}

/// Repair one crawled file in place, keeping the original as `.orig`.
/// Returns (fixes applied, diagnostics remaining afterwards).
fn fix_file(
    fixer: &mut weblint_fix::Fixer,
    path: &std::path::Path,
) -> std::io::Result<(usize, Vec<weblint_core::Diagnostic>)> {
    let bytes = std::fs::read(path)?;
    let src = String::from_utf8_lossy(&bytes).into_owned();
    let report = fixer.fix_until_stable(&src, 4);
    if report.output != src {
        let mut backup = path.as_os_str().to_owned();
        backup.push(".orig");
        std::fs::write(&backup, &src)?;
        std::fs::write(path, &report.output)?;
    }
    Ok((report.fixes_applied, report.remaining))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn jobs_must_be_a_positive_number() {
        assert_eq!(parse(&args(&["-jobs", "4", "site"])).unwrap().jobs, 4);
        assert_eq!(parse(&args(&["-jobs", "64", "site"])).unwrap().jobs, 64);
        for bad in [
            &["-jobs", "0"][..],
            &["-jobs", "65"],
            &["-jobs", "four"],
            &["-jobs"],
        ] {
            let err = parse(&args(bad)).unwrap_err();
            assert!(err.contains("-jobs"), "{err}");
        }
        // No -jobs at all means the sequential crawl.
        assert_eq!(parse(&args(&["site"])).unwrap().jobs, 1);
    }

    #[test]
    fn jobs_and_adaptive_parse() {
        let options = parse(&args(&["-jobs", "8", "-adaptive", "-stats", "site"])).unwrap();
        assert_eq!(options.jobs, 8);
        assert!(options.adaptive);
        assert!(options.stats);
        // Defaults: one page in flight, no pacing, no stats dump.
        let plain = parse(&args(&["site"])).unwrap();
        assert_eq!(plain.jobs, 1);
        assert!(!plain.adaptive && !plain.stats);
        // The old width flag is gone: -jobs is the one width.
        let err = parse(&args(&["-fetchers", "8", "site"])).unwrap_err();
        assert!(err.contains("-fetchers"), "{err}");
    }

    #[test]
    fn fix_flag_parses() {
        assert!(parse(&args(&["-fix", "site"])).unwrap().fix);
        assert!(!parse(&args(&["site"])).unwrap().fix);
    }

    #[test]
    fn options_parse() {
        let options = parse(&args(&["-s", "-max", "7", "-quiet", "site"])).unwrap();
        assert_eq!(options.format, OutputFormat::Short);
        assert_eq!(options.max_pages, 7);
        assert!(options.quiet);
        assert_eq!(options.dir.as_deref(), Some("site"));
        assert!(parse(&args(&["-wat"])).is_err());
    }

    #[test]
    fn fault_flags_parse() {
        let options = parse(&args(&[
            "-faults",
            "20%:timeout+5xx",
            "-fault-seed",
            "42",
            "site",
        ]))
        .unwrap();
        let spec = options.faults.unwrap();
        assert_eq!(spec.rate_percent, 20);
        assert_eq!(spec.kinds.len(), 2);
        assert!(options.fault_warnings.is_empty());
        assert_eq!(options.fault_seed, 42);
        // No flag means no injection at all, not a 0% spec.
        assert!(parse(&args(&["site"])).unwrap().faults.is_none());
        for bad in [
            &["-faults"][..],
            &["-faults", "150%"],
            &["-fault-seed", "soon"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn unknown_fault_kinds_degrade_to_a_warning() {
        // PR 7's unknown-check-id convention: unknown names warn and are
        // dropped, the known remainder still applies.
        let options = parse(&args(&["-faults", "20%:timeout+gremlins", "site"])).unwrap();
        let spec = options.faults.unwrap();
        assert_eq!(spec.kinds.len(), 1);
        assert_eq!(options.fault_warnings.len(), 1);
        assert!(
            options.fault_warnings[0].contains("gremlins")
                && options.fault_warnings[0].contains("valid kinds"),
            "{:?}",
            options.fault_warnings
        );
    }

    #[test]
    fn sharded_flags_parse() {
        let options = parse(&args(&[
            "-shards",
            "4",
            "-checkpoint-dir",
            "/tmp/ckpt",
            "-checkpoint-every",
            "8",
            "-stop-file",
            "/tmp/stop",
            "-mega",
            "4x50",
        ]))
        .unwrap();
        assert_eq!(options.shards, Some(4));
        assert_eq!(options.checkpoint_dir.as_deref(), Some("/tmp/ckpt"));
        assert_eq!(options.checkpoint_every, 8);
        assert_eq!(options.stop_file.as_deref(), Some("/tmp/stop"));
        assert_eq!(options.mega, Some((4, 50)));
        for bad in [
            &["-shards", "0"][..],
            &["-shards", "65"],
            &["-mega", "4"],
            &["-mega", "0x5"],
            &["-mega", "4x0"],
            &["-checkpoint-every", "0"],
            &["-resume"],              // needs -checkpoint-dir
            &["-mega", "2x2", "site"], // both inputs
            &["-fix", "-mega", "2x2"], // no files to repair
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
        // -resume with a dir parses, and -fix rides along any DIRECTORY
        // crawl, sharded or not.
        assert!(
            parse(&args(&["-resume", "-checkpoint-dir", "d", "site"]))
                .unwrap()
                .resume
        );
        assert!(parse(&args(&["-fix", "-shards", "2", "site"])).unwrap().fix);
    }
}
