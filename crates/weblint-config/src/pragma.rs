//! Page-embedded configuration pragmas.
//!
//! The paper's §6.1 lists "page-specific configuration of weblint:
//! configuration information embedded in comments, which traditional lint
//! supports" as future work. This module implements it: HTML comments of
//! the form
//!
//! ```html
//! <!-- weblint: disable here-anchor, img-alt -->
//! <!-- weblint: enable physical-font -->
//! ```
//!
//! carry ordinary `.weblintrc` directives that apply to the page they
//! appear in. Pragmas apply page-wide regardless of position, mirroring
//! lint's file-scoped `/* LINTLIBRARY */`-style comments.

use weblint_core::LintConfig;
use weblint_tokenizer::{TokenKind, Tokenizer};

use crate::directive::{apply_directive, parse_config, ConfigError, ConfigWarning, Directive};

/// The marker that introduces a weblint pragma comment.
const PRAGMA_PREFIX: &str = "weblint:";

/// Extract the directives from every `<!-- weblint: … -->` comment in a
/// page.
///
/// Malformed pragma bodies are reported, with the line number of the
/// comment; non-pragma comments are ignored.
///
/// # Examples
///
/// ```
/// use weblint_config::extract_pragmas;
///
/// let page = "<HTML><!-- weblint: disable here-anchor --><BODY>…";
/// let pragmas = extract_pragmas(page).unwrap();
/// assert_eq!(pragmas.len(), 1);
/// ```
pub fn extract_pragmas(src: &str) -> Result<Vec<Directive>, ConfigError> {
    let mut out = Vec::new();
    for token in Tokenizer::new(src) {
        let TokenKind::Comment(comment) = &token.kind else {
            continue;
        };
        let body = comment.text.trim();
        let Some(rest) = body.strip_prefix(PRAGMA_PREFIX) else {
            continue;
        };
        let directives = parse_config(rest.trim()).map_err(|mut e| {
            e.line = token.span.start.line;
            e.message = format!("in weblint pragma comment: {}", e.message);
            e
        })?;
        out.extend(directives);
    }
    Ok(out)
}

/// Apply every pragma in `src` onto `config`, returning how many directives
/// were applied plus the non-fatal warnings (unknown check ids are skipped
/// with a warning, not an error — a page pragma naming a check this weblint
/// does not have should not kill the page's lint run).
pub fn apply_pragmas(
    src: &str,
    config: &mut LintConfig,
) -> Result<(usize, Vec<ConfigWarning>), ConfigError> {
    let directives = extract_pragmas(src)?;
    let mut warnings = Vec::new();
    for d in &directives {
        if let Some(mut w) = apply_directive(d, config)? {
            w.message = format!("in weblint pragma comment: {}", w.message);
            warnings.push(w);
        }
    }
    Ok((directives.len(), warnings))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_pragmas_in_plain_page() {
        let src = "<HTML><!-- ordinary comment --><BODY>x</BODY></HTML>";
        assert_eq!(extract_pragmas(src).unwrap(), vec![]);
    }

    #[test]
    fn extracts_multiple_directives() {
        let src = "<!-- weblint: disable here-anchor, img-alt -->\n\
                   <!-- weblint: enable physical-font -->";
        let ds = extract_pragmas(src).unwrap();
        assert_eq!(
            ds,
            vec![
                Directive::Disable("here-anchor".into()),
                Directive::Disable("img-alt".into()),
                Directive::Enable("physical-font".into()),
            ]
        );
    }

    #[test]
    fn applies_to_config() {
        let mut c = LintConfig::default();
        let (n, warnings) = apply_pragmas("<!-- weblint: disable img-alt -->", &mut c).unwrap();
        assert_eq!(n, 1);
        assert_eq!(warnings, vec![]);
        assert!(!c.is_enabled("img-alt"));
    }

    #[test]
    fn pragma_parse_error_carries_comment_line() {
        let src = "line one\n<!-- weblint: explode -->";
        let e = extract_pragmas(src).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("pragma"));
    }

    #[test]
    fn pragma_end_to_end_with_linter() {
        // The lint driver flow: read page, apply pragmas, lint.
        let page = "<!-- weblint: fragment on -->\n<B>bold</B>\n";
        let mut config = LintConfig::default();
        apply_pragmas(page, &mut config).unwrap();
        let mut weblint = weblint_core::LintSession::with_config(config);
        assert_eq!(weblint.check_string(page), vec![]);
    }

    #[test]
    fn unknown_id_in_pragma_warns() {
        let mut c = LintConfig::default();
        let (n, warnings) =
            apply_pragmas("<!-- weblint: enable nonsense-check -->", &mut c).unwrap();
        assert_eq!(n, 1);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].message.contains("pragma"), "{:?}", warnings);
        assert!(warnings[0].message.contains("nonsense-check"));
    }

    #[test]
    fn pragma_disables_custom_rule() {
        let mut c = LintConfig::default();
        crate::apply_config_text("[rules]\nmy-rule warning element=b \"m\"\n", &mut c).unwrap();
        let (_, warnings) = apply_pragmas("<!-- weblint: disable my-rule -->", &mut c).unwrap();
        assert_eq!(warnings, vec![]);
        assert!(!c.is_enabled("my-rule"));
    }
}
