//! Seeded fuzz gate for the tokenizer and its streaming wrapper.
//!
//! Corpus documents (the golden corpus, generated pages and the
//! tokenizer crate's torture inputs) are cut to a window and mutated by
//! inserting the bytes a tokenizer decides on: `<`, `>`, quotes, `&`,
//! `--`, newlines and multibyte characters, alone and in markup-shaped
//! runs. Every mutant must:
//!
//! - tokenize one-shot without a panic, into spans that tile the input;
//! - carry on every text token a `has_metachar` equal to
//!   `find_metachar(raw).is_some()`;
//! - tokenize identically through [`StreamTokenizer`] at random chunkings,
//!   and at every two-way split when it is short.
//!
//! A second mutator leaves a comment, CDATA section, declaration, tag,
//! quoted value or raw-text body open across chunk cuts: it inserts the
//! construct's opener with a cut inside or just after it, perhaps drops
//! every later terminator, and feeds the rest in small chunks, so the
//! stream suspends and resumes the construct's scan many times. Its
//! streamed tokens must equal the one-shot ones.
//!
//! The default run fits a short CI budget. Set `WEBLINT_FUZZ_ITERS` for a
//! long run, e.g.
//!
//! ```sh
//! WEBLINT_FUZZ_ITERS=200000 cargo test --release --test tokenizer_fuzz
//! ```

mod common;
#[path = "../crates/weblint-tokenizer/tests/common/mod.rs"]
mod nasty;

use std::panic::{catch_unwind, AssertUnwindSafe};

use weblint_tokenizer::{find_metachar, StreamTokenizer, TokenKind, Tokenizer};

/// Mutants per run in a release build; debug builds run an eighth.
const DEFAULT_ITERS: usize = 6_000;

/// Longest window cut from a seed document, in bytes.
const WINDOW: usize = 2_048;

/// Inputs up to this many bytes are also split in two at every offset.
const SHORT: usize = 96;

/// What the mutator inserts.
const INSERTS: &[&str] = &[
    "<",
    ">",
    "\"",
    "'",
    "&",
    "--",
    "\n",
    "\r\n",
    "\u{e9}",
    "\u{65e5}",
    "\u{1f600}",
    "<B>",
    "</",
    "<!--",
    "-->",
    "<!",
    "<?",
    "=",
    "&amp;",
    "&#",
    "<SCRIPT>",
    "</SCRIPT>",
    "<PLAINTEXT>",
    " ",
    "<A HREF=\"",
    "/>",
];

/// Openers the open-construct mutator inserts, each with the terminator
/// it may drop from the text after it.
const OPENERS: &[(&str, &str)] = &[
    ("<!--", "-->"),
    ("<![CDATA[", "]]>"),
    ("<!DOCTYPE HTML PUBLIC \"", ">"),
    ("<!ENTITY x '", ">"),
    ("<?pi \"", ">"),
    ("<A HREF=\"", ">"),
    ("<P TITLE='", ">"),
    ("<IMG SRC=x ", ">"),
    ("</ ", ">"),
    ("<SCRIPT>", "</SCRIPT>"),
    ("<style>", "</style>"),
    ("<XMP>", "</XMP>"),
];

/// Open-construct mutants per run in a release build; debug builds run
/// an eighth.
const OPEN_ITERS: usize = 2_000;

/// xorshift64*: small, seedable, and the same on every platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `default` mutants in a release build, an eighth of it in a debug
/// build, or the `WEBLINT_FUZZ_ITERS` count.
fn iterations(default: usize) -> usize {
    match std::env::var("WEBLINT_FUZZ_ITERS") {
        Ok(n) => n.parse().expect("WEBLINT_FUZZ_ITERS is a count"),
        Err(_) if cfg!(debug_assertions) => default / 8,
        Err(_) => default,
    }
}

/// The seed documents, `big.html` left out: it is one text token of `x`.
fn seeds() -> Vec<String> {
    let mut docs: Vec<String> = common::golden_corpus()
        .into_iter()
        .filter(|(name, _)| name != "fixture-big.html")
        .map(|(_, src)| src)
        .collect();
    docs.extend(nasty::all().into_iter().map(|(_, src)| src));
    docs
}

/// The largest character boundary of `s` at or below `at`.
fn floor_boundary(s: &str, mut at: usize) -> usize {
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// A window of `doc` with a few insertions and perhaps one deletion.
fn mutate(doc: &str, rng: &mut Rng) -> String {
    let start = floor_boundary(doc, rng.below(doc.len() + 1));
    let end = floor_boundary(doc, (start + 1 + rng.below(WINDOW)).min(doc.len()));
    let mut out = doc[start..end].to_string();
    for _ in 0..1 + rng.below(6) {
        let at = floor_boundary(&out, rng.below(out.len() + 1));
        out.insert_str(at, INSERTS[rng.below(INSERTS.len())]);
    }
    if rng.below(4) == 0 && !out.is_empty() {
        let a = floor_boundary(&out, rng.below(out.len()));
        let b = floor_boundary(&out, (a + 1 + rng.below(16)).min(out.len()));
        out.replace_range(a..b, "");
    }
    out
}

/// A mutated window with a construct's opener inserted and perhaps every
/// later occurrence of its terminator dropped, and the chunk cuts to feed
/// it at: one inside or just after the opener, then every few bytes.
fn open_construct(doc: &str, rng: &mut Rng) -> (String, Vec<usize>) {
    let mut out = mutate(doc, rng);
    let (open, close) = OPENERS[rng.below(OPENERS.len())];
    let at = floor_boundary(&out, rng.below(out.len() + 1));
    out.insert_str(at, open);
    let after = at + open.len();
    if rng.below(2) == 0 {
        let tail = out[after..].replace(close, "");
        out.truncate(after);
        out.push_str(&tail);
    }
    let step = 1 + rng.below(64);
    let cuts = std::iter::once(at + 1 + rng.below(open.len()))
        .chain((after..out.len()).step_by(step))
        .collect();
    (out, cuts)
}

/// Every token of `src` rendered in full, checking the one-shot
/// invariants on the way.
fn one_shot(src: &str) -> Vec<String> {
    let mut offset = 0;
    let mut rendered = Vec::new();
    for tok in Tokenizer::new(src) {
        assert_eq!(tok.span.start.offset, offset, "gap or overlap");
        offset = tok.span.end.offset;
        if let TokenKind::Text(text) = &tok.kind {
            assert_eq!(
                text.has_metachar,
                find_metachar(text.raw).is_some(),
                "has_metachar of {:?}",
                text.raw
            );
        }
        rendered.push(format!("{tok:?}"));
    }
    assert_eq!(offset, src.len(), "lost tail");
    rendered
}

/// Every token of `src` fed to a stream at the given cut offsets.
fn streamed(src: &[u8], cuts: &[usize]) -> Vec<String> {
    let mut stream = StreamTokenizer::new();
    let mut rendered = Vec::new();
    let mut last = 0;
    for &cut in cuts.iter().chain([&src.len()]) {
        stream.feed(&src[last..cut]);
        last = cut;
        stream.drain_tokens(|_, _, tokens| rendered.extend(tokens.map(|t| format!("{t:?}"))));
    }
    stream.finish();
    stream.drain_tokens(|_, _, tokens| rendered.extend(tokens.map(|t| format!("{t:?}"))));
    rendered
}

fn check(src: &str, rng: &mut Rng) {
    let want = one_shot(src);
    let bytes = src.as_bytes();
    for _ in 0..2 {
        let mut cuts: Vec<usize> = (0..rng.below(8))
            .map(|_| rng.below(bytes.len() + 1))
            .collect();
        cuts.sort_unstable();
        assert_eq!(streamed(bytes, &cuts), want, "chunked at {cuts:?}");
    }
    if bytes.len() <= SHORT {
        for cut in 0..=bytes.len() {
            assert_eq!(streamed(bytes, &[cut]), want, "split at {cut}");
        }
    }
}

#[test]
fn mutated_documents_tokenize_alike_one_shot_and_streamed() {
    let seeds = seeds();
    let mut rng = Rng(0x5EED_7041_2E2E_F022);
    for i in 0..iterations(DEFAULT_ITERS) {
        let src = mutate(&seeds[rng.below(seeds.len())], &mut rng);
        let mut case_rng = Rng(rng.next() | 1);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| check(&src, &mut case_rng))) {
            eprintln!("mutant {i} failed: {src:?}");
            std::panic::resume_unwind(panic);
        }
    }
}

#[test]
fn constructs_left_open_across_chunk_cuts_resume_alike() {
    let seeds = seeds();
    let mut rng = Rng(0x0BE7_C0DE_5CA7_7E11);
    for i in 0..iterations(OPEN_ITERS) {
        let (src, cuts) = open_construct(&seeds[rng.below(seeds.len())], &mut rng);
        let same = catch_unwind(AssertUnwindSafe(|| {
            assert_eq!(
                streamed(src.as_bytes(), &cuts),
                one_shot(&src),
                "chunked at {cuts:?}"
            );
        }));
        if let Err(panic) = same {
            eprintln!("open-construct mutant {i} failed: {src:?}");
            std::panic::resume_unwind(panic);
        }
    }
}
