//! The weblint CGI gateway, as a library.
//!
//! "There are numerous weblint gateways available, which let you use
//! weblint without having to install it. These are CGI forms where you
//! provide the HTML by entering a URL, pasting in the text, or through
//! file upload. … The warnings generated by weblint are embedded into the
//! web page generated by the gateway" (§4.5). Weblint 2's gateway script
//! "is designed to facilitate customisation, modification, and other
//! tinkering" (§5.3), and uses a subclassed warnings module "to provide
//! warnings more appropriate to the web page context" (§5.6).
//!
//! This crate is that gateway with the CGI plumbing abstracted away: it
//! turns (document, diagnostics) into a self-contained HTML report page,
//! renders the submission form, and implements the URL flow against the
//! simulated web. The rendered pages are themselves valid HTML 4.0 — they
//! pass weblint with no messages, which the test suite enforces.
//!
//! # Examples
//!
//! ```
//! use weblint_gateway::Gateway;
//!
//! let gateway = Gateway::default();
//! let report = gateway.check_and_render("pasted HTML", "<H1>x</H2>");
//! assert!(report.contains("malformed heading"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod escape;
mod gateway;
mod meta;
mod render;

pub use escape::escape_html;
pub use gateway::Gateway;
pub use meta::render_meta_report;
pub use render::{render_form, render_report, render_report_into, ReportOptions};
