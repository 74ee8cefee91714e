//! Chunk-boundary equivalence suite for the incremental lint session.
//!
//! The streaming API's contract is absolute: feeding a document to
//! [`LintSession::feed`] in arbitrary pieces must yield diagnostics
//! byte-identical to the one-shot check — same ids, messages, lines,
//! columns, spans, order — no matter where the chunk boundaries fall.
//! Every carry the tokenizer holds across a feed (a split tag, a half
//! comment, a raw-text element, a multi-byte UTF-8 character) is a way
//! this can break silently, so this suite brute-forces boundaries:
//!
//! - every golden-corpus document (generated clean/dirty, one snippet per
//!   defect class, every `tests/samples/*.html` page, `frag.html`) split
//!   in two at every byte offset of a sliding window — and at *every*
//!   offset outright for documents small enough,
//! - windows cut from `big.html`, so real-page token shapes cross
//!   boundaries mid-attribute and mid-entity,
//! - seeded random multi-chunk partitions of every document, chunk sizes
//!   from 1 byte to a few hundred,
//! - a multi-byte UTF-8 document split inside its characters.
//!
//! It also pins E20a's latency claim by counting feeds instead of timing
//! them: a finding near the top of a document leaves the session on the
//! first 8 KiB feed whether 64 KiB or 6.4 MiB follow.
//!
//! `ci.sh` runs this in release mode under `timeout`.

use std::path::Path;

use rand::{Rng, SeedableRng};
use weblint_core::{Diagnostic, LintSession};
use weblint_corpus::dirty_document;

/// Width of the sliding split window, in bytes. Documents at or below
/// this size are split at every single offset instead.
const WINDOW: usize = 96;

/// How many window positions to visit per document.
const POSITIONS: usize = 6;

/// Seeded random partitions per document.
const RANDOM_SPLITS: usize = 12;

/// Lint `source` through a fresh session, feeding `chunks`, and return
/// the full diagnostic list.
fn streamed(chunks: &[&[u8]]) -> Vec<Diagnostic> {
    let mut session = LintSession::new();
    let mut diags = Vec::new();
    for chunk in chunks {
        diags.extend(session.feed(chunk));
    }
    diags.extend(session.finish());
    diags
}

fn assert_parity(name: &str, source: &str, one_shot: &[Diagnostic], chunks: &[&[u8]]) {
    let got = streamed(chunks);
    assert_eq!(
        got,
        one_shot,
        "{name}: diagnostics diverged for chunk split {:?} of a {}-byte document",
        chunks.iter().map(|c| c.len()).collect::<Vec<_>>(),
        source.len()
    );
}

/// Split `source` in two at every offset of a sliding window (or at
/// every offset outright when the document fits inside one window) and
/// assert parity with `one_shot` at each split.
fn sliding_window_splits(name: &str, source: &str, one_shot: &[Diagnostic]) {
    let bytes = source.as_bytes();
    let len = bytes.len();
    if len <= WINDOW {
        for cut in 0..=len {
            assert_parity(name, source, one_shot, &[&bytes[..cut], &bytes[cut..]]);
        }
        return;
    }
    // Window positions spread over the document, first and last byte
    // included, so both edges of the carry logic get exercised.
    for pos in 0..POSITIONS {
        let start = pos * (len - WINDOW) / (POSITIONS - 1);
        for cut in start..start + WINDOW {
            assert_parity(name, source, one_shot, &[&bytes[..cut], &bytes[cut..]]);
        }
    }
}

/// Partition `source` into random-size chunks with a seeded generator
/// and assert parity. Chunk sizes mix single bytes with a few hundred.
fn random_splits(name: &str, source: &str, one_shot: &[Diagnostic], seed: u64) {
    let bytes = source.as_bytes();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for round in 0..RANDOM_SPLITS {
        let mut chunks: Vec<&[u8]> = Vec::new();
        let mut at = 0usize;
        while at < bytes.len() {
            let take: usize = if rng.random_range(0..4) == 0 {
                rng.random_range(1..4)
            } else {
                rng.random_range(1..311)
            };
            let end = (at + take).min(bytes.len());
            chunks.push(&bytes[at..end]);
            at = end;
        }
        let one_shot_round = one_shot.to_vec();
        assert_parity(
            &format!("{name} (random round {round})"),
            source,
            &one_shot_round,
            &chunks,
        );
    }
}

/// The golden corpus, minus `big.html` (windowed separately below).
fn corpus() -> Vec<(String, String)> {
    let mut docs = Vec::new();
    for &(seed, bytes) in &[(1u64, 1usize << 10), (2, 4 << 10)] {
        docs.push((
            format!("gen-clean-{seed}-{bytes}"),
            weblint_corpus::generate_document(seed, bytes),
        ));
    }
    for &(seed, bytes, defects) in &[(10u64, 4usize << 10, 4usize), (11, 8 << 10, 8)] {
        docs.push((
            format!("gen-dirty-{seed}-{bytes}-{defects}"),
            dirty_document(seed, bytes, defects),
        ));
    }
    for &class in weblint_corpus::all_defect_classes() {
        docs.push((
            format!("defect-{}", class.name()),
            class.snippet().to_string(),
        ));
    }
    let samples = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/samples");
    let mut paths: Vec<_> = std::fs::read_dir(&samples)
        .expect("tests/samples")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "html"))
        .collect();
    paths.sort();
    for path in paths {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).unwrap();
        docs.push((format!("sample-{name}"), source));
    }
    let frag = Path::new(env!("CARGO_MANIFEST_DIR")).join("frag.html");
    docs.push((
        "fixture-frag.html".to_string(),
        std::fs::read_to_string(&frag).unwrap(),
    ));
    docs
}

#[test]
fn every_corpus_document_is_split_stable() {
    for (name, source) in corpus() {
        let one_shot = LintSession::new().check_string(&source);
        sliding_window_splits(&name, &source, &one_shot);
        random_splits(&name, &source, &one_shot, 0xE20_0001);
    }
}

#[test]
fn big_html_windows_are_split_stable() {
    // Windows cut from the middle of a real-shaped page start and end
    // mid-construct (inside tags, attributes, entities), which is exactly
    // the carry state a boundary bug hides in. Each window is linted as
    // its own document; the split point then walks across it.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("big.html");
    let big = std::fs::read_to_string(&path).expect("big.html fixture");
    let bytes = big.as_bytes();
    const WIN: usize = 4096;
    for pos in 0..5 {
        let start = pos * (bytes.len() - WIN) / 4;
        // Snap to a char boundary so the window itself is valid UTF-8;
        // the splits inside it still land anywhere.
        let mut s = start;
        while !big.is_char_boundary(s) {
            s += 1;
        }
        let mut e = s + WIN;
        while !big.is_char_boundary(e) {
            e -= 1;
        }
        let window = &big[s..e];
        let name = format!("big.html[{s}..{e}]");
        let one_shot = LintSession::new().check_string(window);
        sliding_window_splits(&name, window, &one_shot);
        random_splits(&name, window, &one_shot, 0xE20_0002 ^ s as u64);
    }
}

#[test]
fn multibyte_utf8_survives_splits_inside_characters() {
    // Byte-offset splits land inside the 3-byte CJK characters and the
    // 4-byte emoji; the session must reassemble them across feeds and
    // report identical columns.
    let source = "<HTML><HEAD><TITLE>缓存与流</TITLE></HEAD><BODY>\
                  <H1>héllo — wörld 🌍</H2><P>日本語のテキスト &AMP; more</P>\
                  </BODY></HTML>";
    let one_shot = LintSession::new().check_string(source);
    assert!(
        !one_shot.is_empty(),
        "fixture must produce findings for the comparison to bite"
    );
    sliding_window_splits("multibyte", source, &one_shot);
    random_splits("multibyte", source, &one_shot, 0xE20_0003);
}

#[test]
fn rendered_reports_match_byte_for_byte() {
    // Parity holds at the rendered layer too: identical diagnostics must
    // produce identical bytes in every output format.
    use weblint_core::{format_report, OutputFormat};
    let source = dirty_document(77, 8 << 10, 8);
    let bytes = source.as_bytes();
    let one_shot = LintSession::new().check_string(&source);
    let mid = bytes.len() / 2;
    let got = streamed(&[&bytes[..mid], &bytes[mid..]]);
    for format in [OutputFormat::Lint, OutputFormat::Terse, OutputFormat::Short] {
        assert_eq!(
            format_report(&got, "doc", format),
            format_report(&one_shot, "doc", format),
        );
    }
}

#[test]
fn first_finding_leaves_the_first_feed_at_every_size() {
    // E20a: time-to-first-finding is flat in document size. One-shot
    // cannot report anything before the whole document is linted; the
    // session reports a defect as soon as its trigger token closes. So a
    // malformed heading at the top of the body must come out of feed 1 at
    // 1x, 10x and 100x the size — a count, not a timing.
    const CHUNK: usize = 8 << 10;
    for bytes in [64 << 10, 640 << 10, 6400 << 10] {
        let doc = weblint_corpus::generate_document(0xE20, bytes).replacen(
            "<BODY>",
            "<BODY>\n<H1>early finding</H2>",
            1,
        );
        let mut session = LintSession::new();
        let first = doc
            .as_bytes()
            .chunks(CHUNK)
            .enumerate()
            .find_map(|(i, chunk)| session.feed(chunk).next().map(|d| (i + 1, d.id)));
        session.abort();
        assert_eq!(
            first,
            Some((1, "heading-mismatch")),
            "first finding of a {}-byte document (feed, id)",
            doc.len()
        );
    }
}
