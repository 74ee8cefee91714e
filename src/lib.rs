//! # weblint
//!
//! A Rust reproduction of **Weblint** (Neil Bowers, *Weblint: Just Another
//! Perl Hack*, USENIX 1998): a lint-style syntax and style checker for
//! HTML. "Weblint does not aspire to be a strict SGML validator, but to
//! provide helpful comments for humans."
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`core`] — the [`LintSession`] checker (the paper's Weblint class),
//!   message catalog, formatters
//! * [`tokenizer`] — the error-tolerant ad-hoc HTML tokenizer
//! * [`html`] — table-driven HTML version modules (3.2, 4.0, extensions)
//! * [`config`] — `.weblintrc` files, layering, page pragmas
//! * [`site`] — `-R` site mode, simulated web, the poacher robot
//! * [`service`] — concurrent lint service: worker pool + result cache
//! * [`gateway`] — CGI-gateway-style HTML report rendering
//! * [`httpd`] — std-only HTTP/1.1 server putting the service on a socket
//! * [`validator`] — the strict-validator and htmlchek-style baselines
//! * [`corpus`] — deterministic document/site/defect generation
//!
//! # Examples
//!
//! ```
//! use weblint::core::LintSession;
//!
//! let mut weblint = LintSession::new();
//! let diags = weblint.check_string("<H1>My Example</H2>");
//! assert!(diags.iter().any(|d| d.id == "heading-mismatch"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use weblint_config as config;
pub use weblint_core as core;
pub use weblint_corpus as corpus;
pub use weblint_gateway as gateway;
pub use weblint_html as html;
pub use weblint_httpd as httpd;
pub use weblint_service as service;
pub use weblint_site as site;
pub use weblint_tokenizer as tokenizer;
pub use weblint_validator as validator;

// The most-used types, at the top level.
pub use weblint_core::{
    format_report, Category, Diagnostic, LintConfig, LintSession, OutputFormat, Summary,
};
pub use weblint_service::{LintService, ServiceConfig, ServiceMetrics};
