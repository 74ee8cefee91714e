//! Golden token streams: the tokenizer's whole output, pinned per document.
//!
//! Every token the one-shot [`Tokenizer`] yields is rendered field by field
//! (kind, flags, names, attribute and value spans, line, column and offset)
//! and folded into an FNV-1a digest; `tests/golden/tokens.txt` holds one
//! line per document with its token count and digest. A rewrite of the
//! scanners must leave every line as it is. The rendering is written out
//! here rather than taken from `{:?}`, so a field added to a token type
//! moves the golden only when this file learns to print it.
//!
//! The documents: the golden corpus (generated, dirty, one snippet per
//! defect class, `tests/samples`, `big.html`, `frag.html`), a geometric
//! spread of generated sizes, one dirty document per defect class, and
//! every torture input of the tokenizer crate's `nasty.rs`.
//!
//! Regenerate after an *intentional* tokenizer change with:
//!
//! ```sh
//! WEBLINT_GOLDEN_REGEN=1 cargo test -q --test token_golden
//! ```

mod common;
#[path = "../crates/weblint-tokenizer/tests/common/mod.rs"]
mod nasty;

use std::fmt::Write as _;

use rand::SeedableRng;
use weblint_tokenizer::{Attr, Pos, Quote, Span, Tag, Token, TokenKind, Tokenizer};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/tokens.txt");

/// Every (name, source) pair the golden covers, in golden order.
fn documents() -> Vec<(String, String)> {
    let mut docs = common::golden_corpus();
    for (i, shift) in (8..=20).step_by(2).enumerate() {
        let seed = 100 + i as u64;
        let bytes = 1usize << shift;
        docs.push((
            format!("gen-{seed}-{bytes}"),
            weblint_corpus::generate_document(seed, bytes),
        ));
    }
    for (i, &class) in weblint_corpus::all_defect_classes().iter().enumerate() {
        let seed = 200 + i as u64;
        let doc = weblint_corpus::generate_document(seed, 4 << 10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        docs.push((
            format!("dirty-{}", class.name()),
            class.inject(&doc, &mut rng),
        ));
    }
    for (name, src) in nasty::all() {
        docs.push((format!("nasty-{name}"), src));
    }
    docs
}

fn pos(out: &mut String, p: Pos) {
    write!(out, "{}:{}@{}", p.line, p.col, p.offset).unwrap();
}

fn span(out: &mut String, s: Span) {
    pos(out, s.start);
    out.push_str("..");
    pos(out, s.end);
}

/// A length-prefixed string: no escaping, and no two renderings alike.
fn text(out: &mut String, s: &str) {
    write!(out, " {}:{s}", s.len()).unwrap();
}

fn flag(out: &mut String, name: &str, on: bool) {
    write!(out, " {name}={}", u8::from(on)).unwrap();
}

fn attr(out: &mut String, a: &Attr<'_>) {
    out.push_str(" [");
    text(out, a.name);
    out.push(' ');
    span(out, a.span);
    flag(out, "eq", a.has_eq);
    if let Some(v) = &a.value {
        let quote = match v.quote {
            Quote::None => "none",
            Quote::Single => "single",
            Quote::Double => "double",
        };
        text(out, v.raw);
        write!(out, " quote={quote}").unwrap();
        flag(out, "terminated", v.terminated);
        out.push(' ');
        span(out, v.span);
    }
    out.push(']');
}

fn tag(out: &mut String, t: &Tag<'_>) {
    text(out, t.name);
    flag(out, "self_closing", t.self_closing);
    flag(out, "odd_quotes", t.odd_quotes);
    flag(out, "unterminated", t.unterminated);
    flag(out, "space_before_name", t.space_before_name);
    for a in &t.attrs {
        attr(out, a);
    }
}

/// One line per token, every field spelled out.
fn render(out: &mut String, tok: &Token<'_>) {
    out.push_str(tok.kind.kind_name());
    out.push(' ');
    span(out, tok.span);
    match &tok.kind {
        TokenKind::StartTag(t) | TokenKind::EndTag(t) => tag(out, t),
        TokenKind::Text(t) => {
            text(out, t.raw);
            flag(out, "raw", t.is_raw);
        }
        TokenKind::Comment(c) => {
            text(out, c.text);
            flag(out, "unterminated", c.unterminated);
            flag(out, "contains_markup", c.contains_markup);
            flag(out, "interior_dashes", c.interior_dashes);
        }
        TokenKind::Doctype(d) | TokenKind::Decl(d) | TokenKind::Pi(d) => {
            text(out, d.text);
            flag(out, "unterminated", d.unterminated);
        }
    }
    out.push('\n');
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn render_golden() -> String {
    let mut golden = String::from(
        "# Token count and FNV-1a of the rendered tokens per document. \
         Regenerate: WEBLINT_GOLDEN_REGEN=1 cargo test -q --test token_golden\n",
    );
    let mut rendered = String::new();
    for (name, src) in documents() {
        rendered.clear();
        let mut count = 0;
        for tok in Tokenizer::new(&src) {
            render(&mut rendered, &tok);
            count += 1;
        }
        writeln!(
            golden,
            "{name} tokens={count} fnv={:016x}",
            fnv1a(rendered.as_bytes())
        )
        .unwrap();
    }
    golden
}

#[test]
fn token_streams_match_the_golden() {
    let actual = render_golden();
    if std::env::var_os("WEBLINT_GOLDEN_REGEN").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run with WEBLINT_GOLDEN_REGEN=1 to create it");
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(e, a, "first divergence at golden line {}", i + 1);
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "golden and actual differ in length"
    );
}
