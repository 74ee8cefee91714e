//! Release-mode performance smoke for `ci.sh` (E14, E20b).
//!
//! Not a benchmark — a tripwire; the benchmark is `wlbench/`. Structural
//! properties are counted, not timed, in every build profile. The timed
//! floors sit well below what the hot path measures on the slowest dev
//! host and are taken on generated corpus documents, except the labelled
//! `big.html` edge-case row (one text token: it times the byte scan).
//! Timings take each side's best round, and `ci.sh` wraps the run in
//! `timeout` so a wedged engine fails CI rather than stalling it. The
//! timed assertions only arm in release builds.

use std::time::Instant;

use weblint_core::{LintConfig, LintSession, PatternRule, Profile};

/// Lowest acceptable single-thread throughput on `big.html`, in MiB/s.
const BIG_FLOOR_MIB_S: f64 = 40.0;

/// Lowest acceptable document rate over the generated corpus, in docs/s.
const CORPUS_FLOOR_DOCS_S: f64 = 400.0;

/// Streamed full-document throughput must stay within this factor of
/// one-shot: the session's chunk bookkeeping may not tax the engine.
const STREAM_TOLL: f64 = 0.70;

/// Feed granularity of the streamed side: a socket or stdin read.
const CHUNK: usize = 8 << 10;

fn best_of<F: FnMut() -> f64>(rounds: usize, mut run: F) -> f64 {
    (0..rounds).map(|_| run()).fold(0.0, f64::max)
}

/// Seeded corpus documents from 1 KiB to 64 KiB.
fn corpus() -> Vec<String> {
    (0..32u64)
        .map(|seed| weblint_corpus::generate_document(seed, 1 << (10 + seed % 7)))
        .collect()
}

/// Best seconds over `rounds` for `iters` one-shot lints of `doc`, and for
/// `iters` streamed ones. The two paths alternate within each round, so
/// scheduler noise hits both alike.
fn one_shot_vs_streamed(doc: &str, rounds: usize, iters: usize) -> (f64, f64) {
    let mut session = LintSession::new();
    let mut best = (f64::MAX, f64::MAX);
    for _ in 0..rounds {
        let started = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(session.check_string(doc));
        }
        best.0 = best.0.min(started.elapsed().as_secs_f64());
        let started = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(stream(&mut session, doc));
        }
        best.1 = best.1.min(started.elapsed().as_secs_f64());
    }
    best
}

/// Lint `doc` in [`CHUNK`]-byte feeds.
fn stream(session: &mut LintSession, doc: &str) -> Vec<weblint_core::Diagnostic> {
    let mut diags = Vec::new();
    for chunk in doc.as_bytes().chunks(CHUNK) {
        diags.extend(session.feed(chunk));
    }
    diags.extend(session.finish());
    diags
}

#[test]
fn default_session_keeps_fix_emission_off_the_hot_path() {
    // The throughput floors below measure the one-shot lint path with fix
    // mode off. This guard pins that precondition: a default session must
    // not pay for fix synthesis, and its diagnostics must carry no fix
    // payloads. If `emit_fixes` ever defaults on, the floors would start
    // gating the wrong path — fail loudly here instead. Every document
    // carries a fixable defect, so the check cannot pass vacuously.
    let mut session = LintSession::new();
    assert!(!session.config().emit_fixes, "emit_fixes must default off");
    for doc in corpus() {
        let dirty = doc.replacen("<BODY>", "<BODY>\n<H1>x</H2>", 1);
        let diags = session.check_string(&dirty);
        assert!(
            diags.iter().any(|d| d.id == "heading-mismatch"),
            "seeded defect not found"
        );
        assert!(
            diags.iter().all(|d| d.fix.is_none()),
            "default session emitted fix payloads"
        );
    }
}

#[test]
fn big_html_throughput_floor() {
    // The edge-case row: big.html is 2 MB of `x` with no markup, one text
    // token, so this times the byte scan, not the linter. Corpus-shaped
    // documents carry the real floors below.
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
        "edge case (one text token): big.html byte scan {mib_per_s:.1} MiB/s fell below \
         the {BIG_FLOOR_MIB_S} MiB/s floor"
    );
}

#[test]
fn custom_rules_stay_off_the_hot_path() {
    // A loaded-but-never-matching pattern rule must cost next to nothing:
    // the interpreter only runs a rule's predicates when its element gate
    // passes. So count the gate passes instead of timing them: over corpus
    // documents that hold no <zzz-neverland>, the canary's gate must never
    // pass. A control rule on IMG must pass its gate exactly once per
    // <IMG> start tag, so the counter cannot read zero by being dead.
    let mut config = LintConfig::default();
    for line in [
        "perf-canary style element=zzz-neverland \"never fires\"",
        "img-control style element=img attr=zzz-never \"never fires either\"",
    ] {
        config.add_custom_rule(PatternRule::parse_line(line).expect("rule parses"));
    }
    let mut plain_session = LintSession::new();
    let mut loaded_session = LintSession::with_config(config);
    let mut profile = Profile::new();
    let mut images = 0;
    for doc in corpus() {
        assert!(!doc.to_ascii_lowercase().contains("zzz-neverland"));
        images += doc.matches("<IMG ").count() as u64;
        assert_eq!(
            loaded_session.check_string_profiled(&doc, &mut profile),
            plain_session.check_string(&doc),
            "an idle custom rule changed the report"
        );
    }
    let canary = profile.custom_stat("perf-canary");
    assert_eq!(canary.gate_passes, 0, "the canary's element gate passed");
    assert_eq!(canary.hits, 0);
    let control = profile.custom_stat("img-control");
    assert!(
        images > 0,
        "the corpus must hold <IMG> tags for the control"
    );
    assert_eq!(control.gate_passes, images, "one gate pass per <IMG>");
    assert_eq!(control.hits, 0);

    // Both sessions must also stay on the interned fast path: a custom
    // rule that forced fallback interning would show up here.
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
}

#[test]
fn streaming_toll_floor_on_a_corpus_document() {
    // E20b: one engine path, no toll. Streamed in 8 KiB feeds, a seeded
    // 1 MiB corpus document must keep STREAM_TOLL of its one-shot
    // throughput.
    let doc = weblint_corpus::generate_document(0xE20, 1 << 20);
    let mut session = LintSession::new();
    assert_eq!(stream(&mut session, &doc), session.check_string(&doc));

    let (one_shot, streamed) = one_shot_vs_streamed(&doc, 5, 3);
    let mib = 3.0 * doc.len() as f64 / (1024.0 * 1024.0);
    let (one_shot, streamed) = (mib / one_shot, mib / streamed);
    eprintln!("1 MiB corpus document: {one_shot:.1} MiB/s one-shot, {streamed:.1} MiB/s streamed");
    if cfg!(debug_assertions) {
        eprintln!("debug build: toll floor not armed");
        return;
    }
    assert!(
        streamed >= one_shot * STREAM_TOLL,
        "streaming tolls the engine: {streamed:.1} MiB/s streamed vs {one_shot:.1} MiB/s one-shot"
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
    assert_eq!(stream(&mut session, &doc), session.check_string(&doc));

    let (oneshot, streamed) = one_shot_vs_streamed(&doc, 3, 5);
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

/// Seconds for `iters` one-shot tokenizes, for `iters` one-shot lints and
/// for `iters` lints streamed in [`CHUNK`]-byte feeds of `doc`.
fn linear_times(session: &mut LintSession, doc: &str, iters: usize) -> [f64; 3] {
    let time = |run: &mut dyn FnMut()| {
        let started = Instant::now();
        for _ in 0..iters {
            run();
        }
        started.elapsed().as_secs_f64()
    };
    let tokenize = time(&mut || {
        std::hint::black_box(weblint_tokenizer::tokenize(doc).len());
    });
    let one_shot = time(&mut || {
        std::hint::black_box(session.check_string(doc));
    });
    let streamed = time(&mut || {
        std::hint::black_box(stream(session, doc));
    });
    [tokenize, one_shot, streamed]
}

/// Assert that tokenizing and linting `build(bytes)`, one-shot and
/// streamed in [`CHUNK`]-byte feeds, stays linear in `bytes`: from `small`
/// bytes to `step` times as many, each path's time may grow at most
/// `1.5 * step`-fold, where a scan or walk that re-reads what it passed
/// grows `step * step`-fold. At the larger size the streamed lint may take
/// at most 5x the one-shot one, the ceiling of
/// `streamed_raw_text_with_bare_lt_stays_linear`. The sizes alternate
/// within each round, so scheduler noise hits both alike, and each keeps
/// its best round.
fn assert_linear(what: &str, small: usize, step: usize, build: impl Fn(usize) -> String) {
    let (small_doc, large_doc) = (build(small), build(small * step));
    let mut session = LintSession::new();
    assert_eq!(
        stream(&mut session, &large_doc),
        session.check_string(&large_doc),
        "{what}: streamed lint differs from one-shot"
    );
    let (mut small_s, mut large_s) = ([f64::MAX; 3], [f64::MAX; 3]);
    // Debug builds arm no ceiling, so one round shows the figures.
    let rounds = if cfg!(debug_assertions) { 1 } else { 7 };
    for _ in 0..rounds {
        for (best, doc) in [(&mut small_s, &small_doc), (&mut large_s, &large_doc)] {
            let times = linear_times(&mut session, doc, 3);
            for (best, t) in best.iter_mut().zip(times) {
                *best = best.min(t);
            }
        }
    }
    let one_shot = (large_s[0] + large_s[1]) / (small_s[0] + small_s[1]);
    let streamed = large_s[2] / small_s[2];
    let toll = large_s[2] / large_s[1];
    eprintln!(
        "{what}: {step}x the bytes takes {one_shot:.2}x one-shot, {streamed:.2}x streamed; \
         streamed/one-shot = {toll:.2}x"
    );
    if cfg!(debug_assertions) {
        eprintln!("debug build: ratio ceilings not armed");
        return;
    }
    let ceiling = 1.5 * step as f64;
    assert!(
        one_shot <= ceiling,
        "{what}: {step}x the bytes took {one_shot:.1}x the time one-shot; a scan re-reads its input"
    );
    assert!(
        streamed <= ceiling,
        "{what}: {step}x the bytes took {streamed:.1}x the time streamed; a feed re-reads its carry"
    );
    assert!(
        toll <= 5.0,
        "{what}: streamed took {toll:.1}x one-shot; a feed re-reads its carry"
    );
}

/// `head`, then lines of `body` up to `bytes`, then `tail`.
fn filled(head: &str, body: &str, bytes: usize, tail: &str) -> String {
    let mut doc = String::from(head);
    while doc.len() < bytes {
        doc.push_str(body);
    }
    doc.push_str(tail);
    doc
}

/// `head`, then `piece(0)`, `piece(1)`, … up to `bytes`, then `tail`.
fn numbered(head: &str, piece: impl Fn(usize) -> String, bytes: usize, tail: &str) -> String {
    let mut doc = String::from(head);
    for i in 0.. {
        if doc.len() >= bytes {
            break;
        }
        doc.push_str(&piece(i));
    }
    doc.push_str(tail);
    doc
}

const HEAD: &str = "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>\n";

#[test]
fn one_shot_unterminated_comment_stays_linear() {
    // A comment with no `-->` runs to end-of-file: one token, found by one
    // search for the terminator, which each feed resumes.
    assert_linear("unterminated comment", 1 << 20, 2, |bytes| {
        filled(
            &format!("{HEAD}<!-- "),
            "a comment line, <B>markup</B> and -- dashes\n",
            bytes,
            "",
        )
    });
}

#[test]
fn one_shot_runaway_quoted_value_stays_linear() {
    // A quoted value that never closes: the quote-aware tag scan gives up
    // at its cap and the quote-parity fallback cuts the tag at the first
    // `>`, two megabytes on. The attribute parser then reads the value once.
    assert_linear("runaway quoted value", 1 << 20, 2, |bytes| {
        filled(
            &format!("{HEAD}<A HREF=\""),
            "words of a value that never closes its quote\n",
            bytes,
            ">here</A></BODY></HTML>\n",
        )
    });
}

#[test]
fn open_doctype_quote_stays_linear() {
    // A DOCTYPE whose quoted public id never closes: the quote-aware walk
    // for its `>` runs to end-of-file, passing every `>` in the quote.
    assert_linear("open DOCTYPE quote", 1 << 20, 2, |bytes| {
        filled(
            "<!DOCTYPE HTML PUBLIC \"",
            "a public id that never closes, with > and <B> inside\n",
            bytes,
            "",
        )
    });
}

#[test]
fn open_cdata_section_stays_linear() {
    // A CDATA section with no `]]>` runs to end-of-file.
    assert_linear("open CDATA section", 1 << 20, 2, |bytes| {
        filled(
            &format!("{HEAD}<![CDATA[ "),
            "character data with <B>markup</B>, ]] and > but no close\n",
            bytes,
            "",
        )
    });
}

#[test]
fn distinct_unknown_element_names_stay_linear() {
    // Every tag names an element the tables do not hold, each a new one,
    // so each misses the static atoms and interns a new side name.
    assert_linear("distinct unknown elements", 32 << 10, 4, |bytes| {
        numbered(HEAD, |i| format!("<Q{i:x}>\n"), bytes, "")
    });
}

#[test]
fn distinct_unknown_attribute_names_stay_linear() {
    // One tag holding ever more attributes, each with a new unknown name:
    // one default-capped `POST /lint` body of this shape once held a
    // thread for 24 s.
    assert_linear("distinct unknown attributes", 32 << 10, 4, |bytes| {
        numbered(
            &format!("{HEAD}<P"),
            |i| format!(" a{i:x}"),
            bytes,
            ">x</P>\n",
        )
    });
}

#[test]
fn stray_end_tags_under_a_deep_stack_stay_linear() {
    // Thousands of open `<DIV>`s, then as many bytes of `</P>`s that match
    // nothing on either stack.
    assert_linear("stray end tags under a deep stack", 32 << 10, 4, |bytes| {
        filled(&filled(HEAD, "<DIV>", bytes / 2, ""), "</P>", bytes, "")
    });
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
