//! The gateway driver: paste-in and URL flows.

use weblint_core::{Diagnostic, LintConfig, LintSession};
use weblint_site::{resolve, FetchError, Fetcher};

use crate::render::{render_report, ReportOptions};

/// The gateway: a lint configuration plus report rendering.
///
/// Mirrors the paper's `check_string` and `check_url` module methods
/// (§5.4) at gateway level: both return a complete HTML report page.
#[derive(Debug, Clone)]
pub struct Gateway {
    config: LintConfig,
    options: ReportOptions,
}

impl Gateway {
    /// A gateway with explicit configuration.
    pub fn new(config: LintConfig, options: ReportOptions) -> Gateway {
        Gateway { config, options }
    }

    /// The paste-in flow: check a snippet and render the report.
    pub fn check_and_render(&self, input_name: &str, src: &str) -> String {
        let diags = LintSession::with_config(self.config.clone()).check_string(src);
        render_report(input_name, src, &diags, &self.options)
    }

    /// The URL flow: fetch (following redirects), check, render.
    ///
    /// "If a URL is given, the gateway script retrieves the page, usually
    /// using a dedicated retrieval program" (§4.5) — here, any
    /// [`Fetcher`], in practice the simulated web.
    pub fn check_url(&self, fetcher: &dyn Fetcher, url: &str) -> Result<String, FetchError> {
        let (resolved, body) = resolve(fetcher, url)?;
        Ok(self.check_and_render(&resolved.to_string(), &body))
    }

    /// The lint configuration this gateway checks pages under.
    pub fn lint_config(&self) -> &LintConfig {
        &self.config
    }

    /// Render an already-produced diagnostic list as the HTML report
    /// page (for callers that lint through the service themselves).
    pub fn render(&self, input_name: &str, src: &str, diags: &[Diagnostic]) -> String {
        render_report(input_name, src, diags, &self.options)
    }
}

impl Default for Gateway {
    fn default() -> Gateway {
        Gateway::new(LintConfig::default(), ReportOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weblint_site::{SimulatedWeb, WebFetcher};

    #[test]
    fn paste_flow_renders_report() {
        let gateway = Gateway::default();
        let page = gateway.check_and_render("snippet", "<H1>x</H2>");
        assert!(page.contains("malformed heading"));
    }

    #[test]
    fn url_flow_fetches_and_checks() {
        let mut web = SimulatedWeb::new();
        web.add_page("http://h/p.html", "<H1>x</H2>");
        let gateway = Gateway::default();
        let page = gateway
            .check_url(&WebFetcher::new(&web), "http://h/p.html")
            .unwrap();
        assert!(page.contains("malformed heading"));
        assert!(page.contains("http://h/p.html"));
    }

    #[test]
    fn url_flow_follows_redirects() {
        let mut web = SimulatedWeb::new();
        web.add_redirect("http://h/old.html", "/new.html");
        web.add_page("http://h/new.html", "<P>fine");
        let gateway = Gateway::default();
        let page = gateway
            .check_url(&WebFetcher::new(&web), "http://h/old.html")
            .unwrap();
        assert!(page.contains("http://h/new.html"));
    }

    #[test]
    fn url_flow_errors() {
        let mut web = SimulatedWeb::new();
        web.add(
            "http://h/pic.gif",
            weblint_site::Resource::asset("image/gif"),
        );
        web.add_redirect("http://h/loop.html", "http://h/loop.html");
        let gateway = Gateway::default();
        let f = WebFetcher::new(&web);
        assert_eq!(
            gateway.check_url(&f, "not a url"),
            Err(FetchError::BadUrl("not a url".to_string()))
        );
        assert!(matches!(
            gateway.check_url(&f, "http://h/gone.html"),
            Err(FetchError::NotFound(_))
        ));
        assert!(matches!(
            gateway.check_url(&f, "http://h/pic.gif"),
            Err(FetchError::NotHtml(_))
        ));
        assert!(matches!(
            gateway.check_url(&f, "http://h/loop.html"),
            Err(FetchError::TooManyRedirects(_))
        ));
        let err = gateway.check_url(&f, "http://h/gone.html").unwrap_err();
        assert!(err.to_string().contains("404"));
    }

    #[test]
    fn custom_config_respected() {
        let mut config = LintConfig::default();
        config.fragment = true;
        let gateway = Gateway::new(config, ReportOptions::default());
        let page = gateway.check_and_render("snippet", "<B>just bold</B>");
        assert!(page.contains("No problems found"));
    }
}
