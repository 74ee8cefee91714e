//! The `.weblintrc` directive language.

use std::fmt;

use weblint_core::{Category, LintConfig, PatternRule};
use weblint_core::{Extensions, HtmlVersion};

/// One parsed configuration directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// `enable <id-or-category>, …`
    Enable(String),
    /// `disable <id-or-category>, …`
    Disable(String),
    /// `version <html-version>`
    Version(HtmlVersion),
    /// `extension netscape|microsoft|both|none`
    Extension(String),
    /// `fragment on|off`
    Fragment(bool),
    /// `here-anchor-text "…"` — extend the content-free anchor list.
    HereAnchorText(String),
    /// `max-title-length <n>`
    MaxTitleLength(usize),
    /// `pedantic` — enable everything except the contradictory case pair.
    Pedantic,
    /// `element NAME, …` — declare custom (tool-specific) elements that
    /// should not be reported as unknown (§4.6, §6.1).
    CustomElement(String),
    /// `attribute ELEMENT NAME` — declare a custom attribute; `*` as the
    /// element allows it everywhere.
    CustomAttribute(String, String),
    /// One line of a `[rules]` section: a custom pattern rule, already
    /// parsed and validated.
    Rule(PatternRule),
}

/// A parse or application error, with the 1-based line it came from
/// (line 0 for errors not tied to a line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Line number in the configuration text.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "config line {}: {}", self.line, self.message)
        } else {
            write!(f, "config: {}", self.message)
        }
    }
}

impl std::error::Error for ConfigError {}

/// A non-fatal configuration problem: the directive was skipped, the rest
/// of the configuration applied. The canonical case is an unknown check
/// identifier — a stale `.weblintrc` should not stop the lint run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigWarning {
    /// Line number in the configuration text (0 when not tied to a line).
    pub line: u32,
    /// What was skipped and why, with a nearest-identifier suggestion
    /// where one exists.
    pub message: String,
}

impl fmt::Display for ConfigWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "config line {}: {}", self.line, self.message)
        } else {
            write!(f, "config: {}", self.message)
        }
    }
}

fn err(line: u32, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// Parse a configuration file's text into directives.
///
/// Blank lines and `#` comments (full-line or trailing) are ignored.
/// `enable`/`disable` accept multiple comma- or space-separated names and
/// expand to one directive per name. A `[rules]` section switches to the
/// custom-rule line format (see [`weblint_core::PatternRule`]); a
/// `[config]` header switches back.
pub fn parse_config(text: &str) -> Result<Vec<Directive>, ConfigError> {
    Ok(parse_numbered(text)?.into_iter().map(|(_, d)| d).collect())
}

/// [`parse_config`], keeping each directive's 1-based source line so
/// warnings raised while applying it can point back at the file.
pub fn parse_numbered(text: &str) -> Result<Vec<(u32, Directive)>, ConfigError> {
    let mut out = Vec::new();
    let mut in_rules = false;
    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx as u32 + 1;
        // Rule lines carry a quoted message that may contain `#`, so their
        // comment stripping must respect the quotes.
        let line = if in_rules {
            strip_rule_comment(raw_line).trim()
        } else {
            strip_comment(raw_line).trim()
        };
        if line.is_empty() {
            continue;
        }
        if let Some(section) = line.strip_prefix('[') {
            let Some(name) = section.strip_suffix(']') else {
                return Err(err(lineno, format!("malformed section header `{line}'")));
            };
            match name.trim().to_ascii_lowercase().as_str() {
                "rules" => in_rules = true,
                "config" => in_rules = false,
                other => {
                    return Err(err(
                        lineno,
                        format!("unknown section `[{other}]' (expected [rules] or [config])"),
                    ))
                }
            }
            continue;
        }
        if in_rules {
            let rule = PatternRule::parse_line(line).map_err(|e| err(lineno, e.0))?;
            out.push((lineno, Directive::Rule(rule)));
            continue;
        }
        let (keyword, rest) = match line.split_once(char::is_whitespace) {
            Some((k, r)) => (k, r.trim()),
            None => (line, ""),
        };
        match keyword.to_ascii_lowercase().as_str() {
            "enable" | "disable" => {
                if rest.is_empty() {
                    return Err(err(lineno, format!("`{keyword}' needs at least one name")));
                }
                for name in rest.split([',', ' ', '\t']).filter(|s| !s.is_empty()) {
                    let d = if keyword.eq_ignore_ascii_case("enable") {
                        Directive::Enable(name.to_string())
                    } else {
                        Directive::Disable(name.to_string())
                    };
                    out.push((lineno, d));
                }
            }
            "version" => {
                let v: HtmlVersion = rest.parse().map_err(|e: String| err(lineno, e))?;
                out.push((lineno, Directive::Version(v)));
            }
            "extension" | "x" => {
                let lc = rest.to_ascii_lowercase();
                match lc.as_str() {
                    "netscape" | "microsoft" | "both" | "none" => {
                        out.push((lineno, Directive::Extension(lc)));
                    }
                    other => {
                        return Err(err(
                            lineno,
                            format!(
                                "unknown extension `{other}' \
                                 (expected netscape, microsoft, both, or none)"
                            ),
                        ))
                    }
                }
            }
            "fragment" => {
                let on = parse_bool(rest).ok_or_else(|| {
                    err(lineno, format!("`fragment' expects on/off, got `{rest}'"))
                })?;
                out.push((lineno, Directive::Fragment(on)));
            }
            "here-anchor-text" => {
                let text = rest.trim_matches('"');
                if text.is_empty() {
                    return Err(err(lineno, "`here-anchor-text' needs a string"));
                }
                out.push((lineno, Directive::HereAnchorText(text.to_string())));
            }
            "max-title-length" => {
                let n: usize = rest
                    .parse()
                    .map_err(|_| err(lineno, format!("bad number `{rest}'")))?;
                out.push((lineno, Directive::MaxTitleLength(n)));
            }
            "pedantic" => out.push((lineno, Directive::Pedantic)),
            "element" => {
                if rest.is_empty() {
                    return Err(err(lineno, "`element' needs at least one name"));
                }
                for name in rest.split([',', ' ', '\t']).filter(|s| !s.is_empty()) {
                    out.push((lineno, Directive::CustomElement(name.to_string())));
                }
            }
            "attribute" => {
                let mut parts = rest.split_whitespace();
                match (parts.next(), parts.next(), parts.next()) {
                    (Some(element), Some(attribute), None) => {
                        out.push((
                            lineno,
                            Directive::CustomAttribute(element.to_string(), attribute.to_string()),
                        ));
                    }
                    _ => {
                        return Err(err(
                            lineno,
                            "`attribute' needs an element (or *) and an attribute name",
                        ))
                    }
                }
            }
            other => {
                return Err(err(lineno, format!("unknown directive `{other}'")));
            }
        }
    }
    Ok(out)
}

/// Apply one directive to a configuration.
///
/// Returns `Ok(Some(warning))` for problems that should not stop the run —
/// enabling or disabling an identifier that no check has (a stale or
/// mistyped `.weblintrc` line). The directive is skipped, everything else
/// applies. Hard errors remain `Err`.
pub fn apply_directive(
    directive: &Directive,
    config: &mut LintConfig,
) -> Result<Option<ConfigWarning>, ConfigError> {
    match directive {
        Directive::Enable(name) | Directive::Disable(name) => {
            let on = matches!(directive, Directive::Enable(_));
            // A category name toggles every message in the category.
            if let Some(category) = Category::parse(name) {
                config.set_category_enabled(category, on);
                return Ok(None);
            }
            match config.set_enabled(name, on) {
                Ok(()) => Ok(None),
                Err(e) => Ok(Some(ConfigWarning {
                    line: 0,
                    message: format!("{e} - directive ignored"),
                })),
            }
        }
        Directive::Version(v) => {
            config.version = *v;
            Ok(None)
        }
        Directive::Extension(which) => {
            match which.as_str() {
                "netscape" => config.extensions.netscape = true,
                "microsoft" => config.extensions.microsoft = true,
                "both" => config.extensions = Extensions::all(),
                "none" => config.extensions = Extensions::none(),
                other => return Err(err(0, format!("unknown extension `{other}'"))),
            }
            Ok(None)
        }
        Directive::Fragment(on) => {
            config.fragment = *on;
            Ok(None)
        }
        Directive::HereAnchorText(text) => {
            let lc = text.to_lowercase();
            if !config.here_anchor_texts.contains(&lc) {
                config.here_anchor_texts.push(lc);
            }
            Ok(None)
        }
        Directive::MaxTitleLength(n) => {
            config.max_title_length = *n;
            Ok(None)
        }
        Directive::Pedantic => {
            *config = pedantic_preserving(config);
            Ok(None)
        }
        Directive::CustomElement(name) => {
            config.add_custom_element(name);
            Ok(None)
        }
        Directive::CustomAttribute(element, attribute) => {
            config.add_custom_attribute(element, attribute);
            Ok(None)
        }
        Directive::Rule(rule) => {
            config.add_custom_rule(rule.clone());
            Ok(None)
        }
    }
}

/// Parse config text and apply every directive, collecting the non-fatal
/// warnings (each tagged with its source line).
pub fn apply_config_text(
    text: &str,
    config: &mut LintConfig,
) -> Result<Vec<ConfigWarning>, ConfigError> {
    let mut warnings = Vec::new();
    for (lineno, directive) in parse_numbered(text)? {
        if let Some(mut w) = apply_directive(&directive, config)? {
            w.line = lineno;
            warnings.push(w);
        }
    }
    Ok(warnings)
}

/// A pedantic config that keeps the non-message knobs from `base`.
fn pedantic_preserving(base: &LintConfig) -> LintConfig {
    let mut p = LintConfig::pedantic();
    p.version = base.version;
    p.extensions = base.extensions;
    p.fragment = base.fragment;
    p.here_anchor_texts = base.here_anchor_texts.clone();
    p.max_title_length = base.max_title_length;
    p.heuristics = base.heuristics;
    p.custom_elements = base.custom_elements.clone();
    p.custom_attributes = base.custom_attributes.clone();
    for rule in &base.custom_rules {
        p.add_custom_rule(rule.clone());
    }
    p
}

fn parse_bool(s: &str) -> Option<bool> {
    match s.to_ascii_lowercase().as_str() {
        "on" | "true" | "yes" | "1" => Some(true),
        "off" | "false" | "no" | "0" => Some(false),
        _ => None,
    }
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Comment stripping for `[rules]` lines: a rule's quoted message may
/// contain `#`, so only a `#` after the closing quote (or on a line with
/// no quotes at all) starts a comment.
fn strip_rule_comment(line: &str) -> &str {
    if line.trim_start().starts_with('#') {
        return "";
    }
    match line.rfind('"') {
        Some(q) => match line[q + 1..].find('#') {
            Some(h) => &line[..q + 1 + h],
            None => line,
        },
        None => strip_comment(line),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_empty_and_comments() {
        assert_eq!(parse_config("").unwrap(), vec![]);
        assert_eq!(parse_config("# just a comment\n\n  \n").unwrap(), vec![]);
    }

    #[test]
    fn parse_enable_disable_lists() {
        let ds = parse_config("enable here-anchor, physical-font\ndisable img-alt\n").unwrap();
        assert_eq!(
            ds,
            vec![
                Directive::Enable("here-anchor".into()),
                Directive::Enable("physical-font".into()),
                Directive::Disable("img-alt".into()),
            ]
        );
    }

    #[test]
    fn parse_trailing_comment() {
        let ds = parse_config("disable style # too noisy\n").unwrap();
        assert_eq!(ds, vec![Directive::Disable("style".into())]);
    }

    #[test]
    fn parse_version_and_extension() {
        let ds = parse_config("version html-4.0-strict\nextension netscape\n").unwrap();
        assert_eq!(
            ds,
            vec![
                Directive::Version(HtmlVersion::Html40Strict),
                Directive::Extension("netscape".into()),
            ]
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = parse_config("enable img-alt\nbogus directive\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bogus"));
        let e = parse_config("extension opera\n").unwrap_err();
        assert!(e.message.contains("opera"));
        let e = parse_config("enable\n").unwrap_err();
        assert!(e.message.contains("at least one"));
        let e = parse_config("max-title-length many\n").unwrap_err();
        assert!(e.message.contains("bad number"));
        let e = parse_config("fragment sideways\n").unwrap_err();
        assert!(e.message.contains("on/off"));
    }

    #[test]
    fn apply_enable_category() {
        let mut c = LintConfig::default();
        apply_config_text("disable errors\n", &mut c).unwrap();
        assert!(!c.is_enabled("unclosed-element"));
        assert!(c.is_enabled("img-alt"));
        apply_config_text("enable style\n", &mut c).unwrap();
        assert!(c.is_enabled("physical-font"));
    }

    #[test]
    fn apply_unknown_id_warns_with_suggestion() {
        // A stale or mistyped identifier must not stop the run: the
        // directive is skipped with a warning naming the nearest id.
        let mut c = LintConfig::default();
        let warnings = apply_config_text("enable unclosed-elemnt\ndisable img-alt\n", &mut c)
            .expect("unknown ids are not fatal");
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].line, 1);
        assert!(warnings[0].message.contains("unclosed-elemnt"));
        assert!(
            warnings[0]
                .message
                .contains("did you mean `unclosed-element`"),
            "{}",
            warnings[0].message
        );
        // The rest of the file still applied.
        assert!(!c.is_enabled("img-alt"));
    }

    #[test]
    fn rules_section_parses_and_applies() {
        let mut c = LintConfig::default();
        let text = "disable img-alt\n\
                    [rules]\n\
                    # a comment line\n\
                    button-class warning element=button !attr=class \"needs a class\"\n\
                    frag-link style attr=href^=#contents \"message with # inside\" # trailing\n\
                    [config]\n\
                    enable img-alt\n";
        let warnings = apply_config_text(text, &mut c).unwrap();
        assert_eq!(warnings, vec![]);
        assert_eq!(c.custom_rules.len(), 2);
        assert_eq!(c.custom_rules[0].id, "button-class");
        assert_eq!(c.custom_rules[1].message, "message with # inside");
        assert!(c.is_enabled("button-class"));
        // The [config] section after [rules] still works.
        assert!(c.is_enabled("img-alt"));
    }

    #[test]
    fn custom_rule_can_be_disabled_by_id() {
        let mut c = LintConfig::default();
        apply_config_text(
            "[rules]\nmy-rule warning element=b \"m\"\n[config]\ndisable my-rule\n",
            &mut c,
        )
        .unwrap();
        assert!(!c.is_enabled("my-rule"));
    }

    #[test]
    fn rules_section_errors_are_fatal() {
        let e = parse_config("[rules]\nimg-alt warning element=img \"m\"\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("collides"), "{e}");
        let e = parse_config("[nonsense]\n").unwrap_err();
        assert!(e.message.contains("unknown section"), "{e}");
        let e = parse_config("[rules\n").unwrap_err();
        assert!(e.message.contains("malformed section"), "{e}");
    }

    #[test]
    fn redeclared_rule_last_wins() {
        let mut c = LintConfig::default();
        apply_config_text(
            "[rules]\nr-one warning element=b \"first\"\nr-one error element=i \"second\"\n",
            &mut c,
        )
        .unwrap();
        assert_eq!(c.custom_rules.len(), 1);
        assert_eq!(c.custom_rules[0].message, "second");
    }

    #[test]
    fn pedantic_preserves_custom_rules() {
        let mut c = LintConfig::default();
        apply_config_text(
            "[rules]\nmy-rule warning element=b \"m\"\n[config]\npedantic\n",
            &mut c,
        )
        .unwrap();
        assert_eq!(c.custom_rules.len(), 1);
        assert!(c.is_enabled("my-rule"));
    }

    #[test]
    fn apply_version_extension_fragment() {
        let mut c = LintConfig::default();
        apply_config_text(
            "version 3.2\nextension both\nfragment on\nmax-title-length 10\n",
            &mut c,
        )
        .unwrap();
        assert_eq!(c.version, HtmlVersion::Html32);
        assert!(c.extensions.netscape && c.extensions.microsoft);
        assert!(c.fragment);
        assert_eq!(c.max_title_length, 10);
    }

    #[test]
    fn apply_here_anchor_text_dedups() {
        let mut c = LintConfig::default();
        let before = c.here_anchor_texts.len();
        apply_config_text(
            "here-anchor-text \"click me\"\nhere-anchor-text \"click me\"\n",
            &mut c,
        )
        .unwrap();
        assert_eq!(c.here_anchor_texts.len(), before + 1);
        assert!(c.here_anchor_texts.contains(&"click me".to_string()));
    }

    #[test]
    fn apply_pedantic_preserves_knobs() {
        let mut c = LintConfig::default();
        c.version = HtmlVersion::Html32;
        c.max_title_length = 10;
        apply_config_text("pedantic\n", &mut c).unwrap();
        assert!(c.is_enabled("title-length"));
        assert_eq!(c.version, HtmlVersion::Html32);
        assert_eq!(c.max_title_length, 10);
    }

    #[test]
    fn custom_markup_directives() {
        let mut c = LintConfig::default();
        apply_config_text(
            "element WOBBLE, FROB\nattribute p wibble\nattribute * tooldata\n",
            &mut c,
        )
        .unwrap();
        assert!(c.is_custom_element("wobble"));
        assert!(c.is_custom_element("frob"));
        assert!(!c.is_custom_element("zap"));
        assert!(c.is_custom_attribute("p", "wibble"));
        assert!(!c.is_custom_attribute("b", "wibble"));
        assert!(c.is_custom_attribute("b", "tooldata"));
    }

    #[test]
    fn custom_markup_parse_errors() {
        assert!(parse_config("element\n").is_err());
        assert!(parse_config("attribute onlyone\n").is_err());
        assert!(parse_config("attribute a b c\n").is_err());
    }

    #[test]
    fn custom_markup_silences_engine() {
        // The §4.6 scenario: a generator's tool-specific markup.
        let mut c = LintConfig::default();
        c.fragment = true;
        apply_config_text("element GENERATOR-NOTE\nattribute * toolid\n", &mut c).unwrap();
        let mut weblint = weblint_core::LintSession::with_config(c);
        let page = "<GENERATOR-NOTE>made by tool</GENERATOR-NOTE>\
                    <P TOOLID=\"77\">content</P>";
        assert_eq!(weblint.check_string(page), vec![]);
        // Without the declarations the same page is noisy.
        let mut plain = LintConfig::default();
        plain.fragment = true;
        let mut weblint = weblint_core::LintSession::with_config(plain);
        assert_eq!(weblint.check_string(page).len(), 2);
    }

    #[test]
    fn extension_none_resets() {
        let mut c = LintConfig::default();
        apply_config_text("extension both\nextension none\n", &mut c).unwrap();
        assert!(!c.extensions.netscape && !c.extensions.microsoft);
    }
}
