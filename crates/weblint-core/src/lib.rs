//! The weblint engine: lint-style syntax and style checking for HTML.
//!
//! A Rust reproduction of weblint 2 (Neil Bowers, *Weblint: Just Another
//! Perl Hack*, USENIX 1998). Weblint "does not aspire to be a strict SGML
//! validator, but to provide helpful comments for humans": it tokenizes a
//! page, runs a stack machine with cascade-suppression heuristics over the
//! tokens, and reports errors, warnings and style comments — every one of
//! which can be enabled or disabled by identifier.
//!
//! The crate layering mirrors the paper's module architecture (§5):
//!
//! * `weblint-tokenizer` — the ad-hoc, error-tolerant parser (§5.1)
//! * `weblint-html` — the table-driven HTML version modules (§5.5)
//! * this crate — the Weblint class (§5.4), here [`LintSession`], the
//!   warnings catalog (§5.6) and output formatting
//! * `weblint-config` — configuration files and switches (§5.7)
//!
//! # Examples
//!
//! ```
//! use weblint_core::{LintSession, format_report, OutputFormat};
//!
//! let mut weblint = LintSession::new();
//! let diags = weblint.check_string("<H1>My Example</H2>");
//! assert!(diags.iter().any(|d| d.id == "heading-mismatch"));
//! let report = format_report(&diags, "test.html", OutputFormat::Short);
//! assert!(report.contains("malformed heading"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
mod engine;
mod fix;
mod fnv;
mod format;
mod message;
mod options;
mod session;

pub use catalog::{check_def, ids_in_category, CheckDef, CATALOG};
pub use fix::{Edit, Fix};
pub use fnv::{fnv1a, Fnv1a};
pub use format::{format_diagnostic, format_report, OutputFormat, Summary};
pub use message::{Category, Diagnostic};
pub use options::{CaseStyle, LintConfig, UnknownCheck};
pub use session::LintSession;

// The registry this engine dispatches over, re-exported whole: descriptors,
// custom pattern rules, and the profiling counters.
pub use weblint_rules::pattern::{PatternRule, RuleParseError};
pub use weblint_rules::profile::{render_hits, Profile, RuleStat};
pub use weblint_rules::{applies, intern_id, kind_mask, Rule, REGISTRY};

// Re-export the types callers need to configure a checker.
pub use weblint_html::{Extensions, HtmlSpec, HtmlVersion};
pub use weblint_tokenizer::{Pos, Span};
