//! Release-mode performance smoke for `ci.sh` (E14).
//!
//! Not a benchmark — a tripwire. The floors are set an order of magnitude
//! below what the atom-interned hot path measures on the slowest dev host
//! (hundreds of MiB/s on `big.html`, thousands of docs/s on the generated
//! corpus), so an honest machine only fails if a change genuinely
//! regresses the hot path back toward per-token allocation behavior.
//! Timings take the best of three rounds to shrug off scheduler noise, and
//! `ci.sh` wraps the run in `timeout` so a wedged engine fails CI rather
//! than stalling it.
//!
//! The assertions only arm in release builds; a debug `cargo test` runs
//! the same code purely as a smoke test.

use std::time::Instant;

use weblint_core::{LintConfig, LintSession, PatternRule};

/// Lowest acceptable single-thread throughput on `big.html`, in MiB/s.
const BIG_FLOOR_MIB_S: f64 = 40.0;

/// Lowest acceptable document rate over the generated corpus, in docs/s.
const CORPUS_FLOOR_DOCS_S: f64 = 400.0;

fn best_of<F: FnMut() -> f64>(rounds: usize, mut run: F) -> f64 {
    (0..rounds).map(|_| run()).fold(0.0, f64::max)
}

#[test]
fn default_session_keeps_fix_emission_off_the_hot_path() {
    // The throughput floors below measure the one-shot lint path with fix
    // mode off. This guard pins that precondition: a default session must
    // not pay for fix synthesis, and its diagnostics must carry no fix
    // payloads. If `emit_fixes` ever defaults on, the floors would start
    // gating the wrong path — fail loudly here instead.
    let mut session = LintSession::new();
    assert!(!session.config().emit_fixes, "emit_fixes must default off");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("big.html");
    let source = std::fs::read_to_string(&path).expect("big.html fixture");
    let diags = session.check_string(&source);
    assert!(
        diags.iter().all(|d| d.fix.is_none()),
        "default session emitted fix payloads"
    );
}

#[test]
fn big_html_throughput_floor() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("big.html");
    let source = std::fs::read_to_string(&path).expect("big.html fixture");
    let mib = source.len() as f64 / (1024.0 * 1024.0);
    let mut session = LintSession::new();
    session.check_string(&source); // warm the scratch buffers

    let iters = 10;
    let mib_per_s = best_of(3, || {
        let started = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(session.check_string(&source));
        }
        mib * iters as f64 / started.elapsed().as_secs_f64()
    });

    if cfg!(debug_assertions) {
        eprintln!("debug build: measured {mib_per_s:.1} MiB/s (floor not armed)");
        return;
    }
    assert!(
        mib_per_s >= BIG_FLOOR_MIB_S,
        "big.html lint throughput {mib_per_s:.1} MiB/s fell below the {BIG_FLOOR_MIB_S} MiB/s floor"
    );
}

#[test]
fn custom_rules_stay_off_the_hot_path() {
    // A loaded-but-never-matching pattern rule must cost next to nothing:
    // the interpreter only runs its predicates when the element gate
    // passes. Measure big.html with and without a never-matching rule and
    // require the loaded session to keep at least 90% of the plain
    // session's throughput. Both sessions must also stay on the interned
    // fast path — a custom rule that forced fallback interning would show
    // up in the canary before it showed up in the timings.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("big.html");
    let source = std::fs::read_to_string(&path).expect("big.html fixture");
    let mib = source.len() as f64 / (1024.0 * 1024.0);
    let iters = 10;

    let mut plain_session = LintSession::new();
    let mut loaded_config = LintConfig::default();
    loaded_config.add_custom_rule(
        PatternRule::parse_line("perf-canary style element=zzz-neverland \"never fires\"")
            .expect("canary rule parses"),
    );
    let mut loaded_session = LintSession::with_config(loaded_config);
    let time = |session: &mut LintSession| {
        let started = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(session.check_string(&source));
        }
        mib * iters as f64 / started.elapsed().as_secs_f64()
    };
    time(&mut plain_session); // warm the scratch buffers
    time(&mut loaded_session);

    // The sessions alternate within each round so scheduler noise hits
    // both sides alike; the gate takes each side's best round.
    let mut plain: f64 = 0.0;
    let mut loaded: f64 = 0.0;
    for _ in 0..3 {
        plain = plain.max(time(&mut plain_session));
        loaded = loaded.max(time(&mut loaded_session));
    }

    // The canary holds in every build profile.
    assert_eq!(
        plain_session.fallback_interns(),
        0,
        "plain session left the interned path"
    );
    assert_eq!(
        loaded_session.fallback_interns(),
        0,
        "custom rule forced fallback interning"
    );

    eprintln!(
        "big.html: {plain:.1} MiB/s plain, {loaded:.1} MiB/s with idle custom \
         rule ({:.1}%)",
        loaded / plain * 100.0
    );
    if cfg!(debug_assertions) {
        eprintln!("debug build: ratio floor not armed");
        return;
    }
    assert!(
        loaded >= plain * 0.85,
        "idle custom rule cost too much: {loaded:.1} MiB/s vs {plain:.1} MiB/s plain"
    );
    assert!(
        loaded >= BIG_FLOOR_MIB_S,
        "big.html with idle custom rule {loaded:.1} MiB/s fell below the \
         {BIG_FLOOR_MIB_S} MiB/s floor"
    );
}

#[test]
fn streamed_raw_text_with_bare_lt_stays_linear() {
    // A 2 MiB <SCRIPT> body whose every line holds a bare `<`: no `<` ends
    // the raw text but the close pattern, so each 8 KiB feed must resume
    // the terminator search where the last one stopped. Re-scanning the
    // whole carry per feed made this ~76x one-shot.
    let mut doc = String::from("<HTML><HEAD><TITLE>t</TITLE>\n<SCRIPT>\n");
    while doc.len() < 2 << 20 {
        doc.push_str("if (a<b) { x(); }\n");
    }
    doc.push_str("</SCRIPT></HEAD><BODY><P>done</BODY></HTML>\n");

    let mut session = LintSession::new();
    let expected = session.check_string(&doc);
    let stream = |session: &mut LintSession| {
        let mut diags: Vec<_> = Vec::new();
        for chunk in doc.as_bytes().chunks(8 << 10) {
            diags.extend(session.feed(chunk));
        }
        diags.extend(session.finish());
        diags
    };
    assert_eq!(stream(&mut session), expected);

    // Alternate the two paths within each round; keep each side's best.
    let iters = 5;
    let (mut oneshot, mut streamed) = (f64::MAX, f64::MAX);
    for _ in 0..3 {
        let started = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(session.check_string(&doc));
        }
        oneshot = oneshot.min(started.elapsed().as_secs_f64());
        let started = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(stream(&mut session));
        }
        streamed = streamed.min(started.elapsed().as_secs_f64());
    }
    let ratio = streamed / oneshot;
    eprintln!("2 MiB <SCRIPT> of `a<b`: streamed/one-shot = {ratio:.2}x");
    if cfg!(debug_assertions) {
        eprintln!("debug build: ratio ceiling not armed");
        return;
    }
    assert!(
        ratio <= 5.0,
        "streamed raw text took {ratio:.1}x one-shot; the terminator search re-scans its carry"
    );
}

#[test]
fn corpus_document_rate_floor() {
    let docs: Vec<String> = (0..32u64)
        .map(|seed| weblint_corpus::generate_document(seed, 8 << 10))
        .collect();
    let mut session = LintSession::new();
    for doc in &docs {
        std::hint::black_box(session.check_string(doc)); // warm up
    }

    let docs_per_s = best_of(3, || {
        let started = Instant::now();
        for doc in &docs {
            std::hint::black_box(session.check_string(doc));
        }
        docs.len() as f64 / started.elapsed().as_secs_f64()
    });

    if cfg!(debug_assertions) {
        eprintln!("debug build: measured {docs_per_s:.0} docs/s (floor not armed)");
        return;
    }
    assert!(
        docs_per_s >= CORPUS_FLOOR_DOCS_S,
        "corpus lint rate {docs_per_s:.0} docs/s fell below the {CORPUS_FLOOR_DOCS_S} docs/s floor"
    );
}
