//! `files`: the command-line and library user. One thread, one reused
//! session, every corpus document linted one-shot (and its report
//! rendered), then streamed in 8 KiB feeds, then fixed.

use std::time::{Duration, Instant};

use weblint_core::{format_report, Diagnostic, LintSession, OutputFormat};
use weblint_fix::Fixer;

use crate::corpus::{files_corpus, total_bytes, Doc};
use crate::trace::{Tracer, NONE};
use crate::util::{
    calm_mask, calm_median, calm_pool, calm_setup, median_setup, ms, percentiles, Outcome, MIB,
};

/// Feed size of the streamed pass.
pub const FEED: usize = 8 * 1024;
/// Set-ups timed per round; the round's figure is their median.
pub const SETUP_REPS: usize = 11;

/// Oracle for one document: its injected classes' messages all appear,
/// a clean document reports nothing.
pub fn expected_ids_present(doc: &Doc, diags: &[Diagnostic]) -> bool {
    if doc.is_clean() {
        diags.is_empty()
    } else {
        doc.expected
            .iter()
            .all(|id| diags.iter().any(|d| d.id == *id))
    }
}

/// Lint `src` through `feed` in `chunk`-byte pieces plus `finish`,
/// recording one span per call under `parent` when tracing.
pub fn stream_lint(
    session: &mut LintSession,
    src: &str,
    chunk: usize,
    tracer: &mut Tracer,
    trace: u64,
    parent: u32,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for piece in src.as_bytes().chunks(chunk) {
        let id = tracer.begin(trace, parent, "core.feed");
        diags.extend(session.feed(piece));
        tracer.end(id);
    }
    let id = tracer.begin(trace, parent, "core.finish");
    diags.extend(session.finish());
    tracer.end(id);
    diags
}

pub fn run(seed: u64, window: Duration, tracer: &mut Tracer) -> Outcome {
    let corpus = files_corpus(seed);
    let bytes = total_bytes(&corpus);
    println!(
        "input: files documents={} bytes={} sizes={}..{} feed={}",
        corpus.len(),
        bytes,
        corpus.iter().map(|d| d.text.len()).min().unwrap_or(0),
        corpus.iter().map(|d| d.text.len()).max().unwrap_or(0),
        FEED
    );
    let mut out = Outcome::default();
    let mut session = LintSession::new();
    let mut fixer = Fixer::new();
    // Warm-up pass: first-touch allocation and page faults stay out of
    // the window.
    for doc in &corpus {
        std::hint::black_box(session.check_string(&doc.text));
    }

    let traced = tracer.enabled();
    let start = Instant::now();
    let (mut lint_ms, mut fix_ms): (Vec<Vec<f64>>, Vec<Vec<f64>>) = (Vec::new(), Vec::new());
    let (mut oneshot_rates, mut stream_rates) = (Vec::new(), Vec::new());
    let (mut doc_rates, mut byte_rates) = (Vec::new(), Vec::new());
    let mut seq = 0u64;
    let mut counts = LayerCounts::default();
    let mut setup_s = Vec::new();
    // Whole passes only, so per-pass rates and counts are comparable.
    while start.elapsed() < window {
        // Set-up is timed every round, so it samples the machine across the
        // whole run.
        setup_s.push(median_setup(SETUP_REPS, || {
            (LintSession::new(), Fixer::new())
        }));
        let first_pass = oneshot_rates.is_empty();
        let (mut pass_oneshot, mut pass_stream, mut pass_cycle) = (0.0, 0.0, 0.0);
        let (mut pass_lint, mut pass_fix) = (Vec::new(), Vec::new());
        for doc in &corpus {
            seq += 1;
            let root = tracer.begin(seq, NONE, "files.doc");
            if traced {
                let tokens = tracer.span(seq, root, "tokenizer.tokenize", || {
                    weblint_tokenizer::tokenize(&doc.text).len()
                });
                if first_pass {
                    counts.tokens += tokens as u64;
                    counts.token_bytes += doc.text.len() as u64;
                }
            }
            let t0 = Instant::now();
            let diags = tracer.span(seq, root, "core.oneshot", || {
                session.check_string(&doc.text)
            });
            let t1 = Instant::now();
            let report = tracer.span(seq, root, "core.format", || {
                format_report(&diags, &doc.name, OutputFormat::Lint)
            });
            let t2 = Instant::now();
            let stream_span = tracer.begin(seq, root, "core.stream");
            let streamed = stream_lint(&mut session, &doc.text, FEED, tracer, seq, stream_span);
            tracer.end(stream_span);
            let t3 = Instant::now();
            let fixed = tracer.span(seq, root, "fix.fix", || fixer.fix(&doc.text));
            let t4 = Instant::now();
            tracer.end(root);

            pass_cycle += (t4 - t0).as_secs_f64();
            pass_oneshot += (t1 - t0).as_secs_f64();
            pass_stream += (t3 - t2).as_secs_f64();
            pass_lint.push(ms(t2 - t0));
            pass_fix.push(ms(t4 - t3));
            if first_pass {
                counts.diagnostics += diags.len() as u64;
                counts.feeds += doc.text.len().div_ceil(FEED) as u64;
            }

            let fix_ids_match = fixed.diagnostics.len() == diags.len()
                && fixed
                    .diagnostics
                    .iter()
                    .zip(&diags)
                    .all(|(a, b)| a.id == b.id);
            out.check(
                expected_ids_present(doc, &diags)
                    && streamed == diags
                    && report.is_empty() == diags.is_empty()
                    && fix_ids_match,
                || {
                    format!(
                        "{}: expected {:?}, one-shot {:?}, streamed equal {}, fixer ids equal {}",
                        doc.name,
                        doc.expected,
                        diags.iter().map(|d| d.id).collect::<Vec<_>>(),
                        streamed == diags,
                        fix_ids_match
                    )
                },
            );
        }
        // Rates over the documents' own time: the oracle checks between
        // documents are the benchmark's work, not the user's.
        doc_rates.push(corpus.len() as f64 / pass_cycle);
        byte_rates.push(bytes as f64 / MIB / pass_cycle);
        oneshot_rates.push(bytes as f64 / MIB / pass_oneshot);
        stream_rates.push(bytes as f64 / MIB / pass_stream);
        lint_ms.push(pass_lint);
        fix_ms.push(pass_fix);
    }
    // Rounds are corpus passes; their speed is the pass's document rate.
    let calm = calm_mask(&doc_rates);
    let (p50, p99, lint_n) = percentiles(&calm_pool(&lint_ms, &calm));
    let (fix_p50, fix_p99, fix_n) = percentiles(&calm_pool(&fix_ms, &calm));
    println!(
        "samples: files passes={} calm_passes={} documents={} lint={} fix={}",
        oneshot_rates.len(),
        calm.iter().filter(|&&c| c).count(),
        seq,
        lint_n,
        fix_n
    );
    out.put("setup_s", calm_setup(&setup_s), "s");
    out.put("ops_s", calm_median(&doc_rates, &calm), "1/s");
    out.put("mib_s", calm_median(&byte_rates, &calm), "MiB/s");
    out.put("p50_ms", p50, "ms");
    out.put("p99_ms", p99, "ms");
    out.put("fix_p50_ms", fix_p50, "ms");
    out.put("fix_p99_ms", fix_p99, "ms");
    out.put("oneshot_mib_s", calm_median(&oneshot_rates, &calm), "MiB/s");
    out.put("stream_mib_s", calm_median(&stream_rates, &calm), "MiB/s");
    out.put("trace_base", calm_median(&doc_rates, &calm), "1/s");
    if traced {
        counts.report(tracer, oneshot_rates.len() as f64, &mut out);
    }
    out
}

/// Counts over one corpus pass (so they repeat exactly for a seed),
/// gathered alongside the engine-layer spans of a traced run.
#[derive(Debug, Default)]
struct LayerCounts {
    tokens: u64,
    token_bytes: u64,
    diagnostics: u64,
    feeds: u64,
}

impl LayerCounts {
    /// The tokenizer and core layer metrics: counts per pass, busy
    /// times as span totals divided by the `passes` they cover.
    fn report(&self, tracer: &Tracer, passes: f64, out: &mut Outcome) {
        let per_pass = |name| tracer.total_s(name) / passes;
        let tokenize = per_pass("tokenizer.tokenize");
        let oneshot = per_pass("core.oneshot");
        let stream = per_pass("core.stream");
        out.put("tokenizer.busy_s", tokenize, "s");
        out.put("tokenizer.tokens", self.tokens as f64, "count");
        out.put(
            "tokenizer.bytes_per_token",
            self.token_bytes as f64 / self.tokens.max(1) as f64,
            "B/token",
        );
        out.put("core.oneshot.busy_s", oneshot, "s");
        out.put("core.oneshot.walk_s", oneshot - tokenize, "s");
        out.put("core.stream.busy_s", stream, "s");
        out.put("core.stream.feeds", self.feeds as f64, "count");
        out.put("core.stream.toll", stream / oneshot, "ratio");
        out.put("core.diagnostics", self.diagnostics as f64, "count");
    }
}
