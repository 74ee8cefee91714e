//! Torture tests: the kinds of mangled HTML a 1998 checker actually met.
//!
//! The tokenizer's contract: never panic, never lose bytes, always produce
//! a token stream whose spans tile the input exactly.

mod common;

use common::*;
use weblint_tokenizer::{tokenize, Quote, TokenKind, Tokenizer};

/// Assert the token spans tile `src` with no gaps or overlap.
fn assert_covers(src: &str) {
    let mut offset = 0;
    for t in Tokenizer::new(src) {
        assert_eq!(t.span.start.offset, offset, "gap in {src:?}");
        offset = t.span.end.offset;
    }
    assert_eq!(offset, src.len(), "lost tail of {src:?}");
}

#[test]
fn empty_and_whitespace() {
    for src in EMPTY_AND_WHITESPACE {
        assert_covers(src);
    }
}

#[test]
fn lone_delimiters() {
    for src in LONE_DELIMITERS {
        assert_covers(src);
    }
}

#[test]
fn unterminated_everything() {
    for src in UNTERMINATED_EVERYTHING {
        assert_covers(src);
    }
}

#[test]
fn pathological_quotes() {
    for src in PATHOLOGICAL_QUOTES {
        assert_covers(src);
    }
}

#[test]
fn interleaved_and_nested_gibberish() {
    for src in NESTED_GIBBERISH {
        assert_covers(src);
    }
}

#[test]
fn real_world_1998_idioms() {
    assert_covers(FRONT_PAGE);
    let tokens = tokenize(FRONT_PAGE);
    // The script content (including the comment-wrapped document.write)
    // must be a single raw text token, not parsed as markup.
    let raw: Vec<_> = tokens
        .iter()
        .filter_map(|t| match &t.kind {
            TokenKind::Text(text) if text.is_raw => Some(text.raw),
            _ => None,
        })
        .collect();
    assert_eq!(raw.len(), 1);
    assert!(raw[0].contains("document.write"));
}

#[test]
fn unquoted_attribute_values_parse() {
    let tokens = tokenize(UNQUOTED_VALUES);
    let TokenKind::StartTag(tag) = &tokens[0].kind else {
        panic!("expected start tag");
    };
    assert_eq!(tag.attr("bgcolor").unwrap().value_raw(), "#FFFFFF");
    assert_eq!(
        tag.attr("bgcolor").unwrap().value.as_ref().unwrap().quote,
        Quote::None
    );
}

#[test]
fn crlf_line_endings_count_lines_correctly() {
    let src = CRLF_LINES;
    let tokens = tokenize(src);
    let b = tokens
        .iter()
        .find(|t| matches!(&t.kind, TokenKind::StartTag(tag) if tag.name == "B"))
        .unwrap();
    assert_eq!(b.span.start.line, 2);
    let i = tokens
        .iter()
        .find(|t| matches!(&t.kind, TokenKind::StartTag(tag) if tag.name == "I"))
        .unwrap();
    assert_eq!(i.span.start.line, 3);
    assert_covers(src);
}

#[test]
fn eight_bit_latin1_as_utf8() {
    let src = LATIN1_AS_UTF8;
    assert_covers(src);
    let tokens = tokenize(src);
    assert_eq!(tokens.len(), 3);
}

#[test]
fn huge_single_tag() {
    // A tag with 1000 attributes must not blow up or quadratically stall.
    let src = common::huge_single_tag();
    let tokens = tokenize(&src);
    assert_eq!(tokens.len(), 1);
    let TokenKind::StartTag(tag) = &tokens[0].kind else {
        panic!("expected start tag");
    };
    assert_eq!(tag.attrs.len(), 1000);
    assert_covers(&src);
}

#[test]
fn deeply_nested_tags() {
    let src = common::deeply_nested_tags();
    assert_eq!(tokenize(&src).len(), 4000);
    assert_covers(&src);
}

#[test]
fn comment_like_decls() {
    for src in COMMENT_LIKE_DECLS {
        assert_covers(src);
    }
}

#[test]
fn plaintext_eats_everything_after() {
    let src = PLAINTEXT;
    let tokens = tokenize(src);
    assert_eq!(tokens.len(), 2);
    let TokenKind::Text(text) = &tokens[1].kind else {
        panic!("expected text");
    };
    assert!(text.is_raw);
    assert!(text.raw.contains("</just>"));
}

#[test]
fn every_shared_input_is_covered() {
    for (_, src) in all() {
        assert_covers(&src);
    }
}
