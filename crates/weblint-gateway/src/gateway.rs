//! The gateway driver: paste-in and URL flows.

use std::fmt;

use weblint_core::{Diagnostic, LintConfig, LintSession};
use weblint_service::LintService;
use weblint_site::{Fetcher, Status, Url};

use crate::render::{render_report, ReportOptions};

/// Errors from the URL flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayError {
    /// The submitted URL did not parse.
    BadUrl(String),
    /// The target returned 404.
    NotFound(String),
    /// The target returned a server error.
    ServerError(String),
    /// The target is not HTML.
    NotHtml(String),
    /// Too many redirect hops.
    TooManyRedirects(String),
    /// The target timed out or reset the connection (transient transport
    /// failure, possibly after retries).
    Unreachable(String),
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayError::BadUrl(u) => write!(f, "cannot parse URL {u}"),
            GatewayError::NotFound(u) => write!(f, "{u}: 404 Not Found"),
            GatewayError::ServerError(u) => write!(f, "{u}: server error"),
            GatewayError::NotHtml(u) => write!(f, "{u} is not an HTML page"),
            GatewayError::TooManyRedirects(u) => write!(f, "{u}: too many redirects"),
            GatewayError::Unreachable(u) => write!(f, "{u}: host unreachable"),
        }
    }
}

impl std::error::Error for GatewayError {}

/// The gateway: a lint configuration plus report rendering.
///
/// Mirrors the paper's `check_string` and `check_url` module methods
/// (§5.4) at gateway level: both return a complete HTML report page.
#[derive(Debug, Clone)]
pub struct Gateway {
    config: LintConfig,
    options: ReportOptions,
    max_redirects: usize,
}

impl Gateway {
    /// A gateway with explicit configuration.
    pub fn new(config: LintConfig, options: ReportOptions) -> Gateway {
        Gateway {
            config,
            options,
            max_redirects: 5,
        }
    }

    /// The paste-in flow: check a snippet and render the report.
    pub fn check_and_render(&self, input_name: &str, src: &str) -> String {
        let diags = self.session().check_string(src);
        render_report(input_name, src, &diags, &self.options)
    }

    /// [`Gateway::check_and_render`] through a shared [`LintService`], so
    /// a busy gateway's repeated submissions hit the service's result
    /// cache instead of re-linting. Falls back to inline checking if the
    /// service refuses the job (full queue, shut down).
    pub fn check_and_render_with(
        &self,
        service: &LintService,
        input_name: &str,
        src: &str,
    ) -> String {
        let diags = self.lint_via(service, src);
        render_report(input_name, src, &diags, &self.options)
    }

    /// Render a report for every `(name, source)` page in the batch,
    /// fanned out over `service`. Reports come back in input order.
    pub fn render_batch(&self, service: &LintService, pages: &[(&str, &str)]) -> Vec<String> {
        let handles: Vec<_> = pages
            .iter()
            .map(|(_, src)| service.submit_with(src.to_string(), Some(self.config.clone())))
            .collect();
        // Pages the service refused or failed are linted inline, all
        // through one session.
        let mut session = self.session();
        handles
            .into_iter()
            .zip(pages)
            .map(|(handle, (name, src))| {
                let diags = handle
                    .ok()
                    .and_then(|h| h.wait().ok())
                    .unwrap_or_else(|| session.check_string(src));
                render_report(name, src, &diags, &self.options)
            })
            .collect()
    }

    fn lint_via(&self, service: &LintService, src: &str) -> Vec<Diagnostic> {
        service
            .submit_with(src.to_string(), Some(self.config.clone()))
            .ok()
            .and_then(|handle| handle.wait().ok())
            .unwrap_or_else(|| self.session().check_string(src))
    }

    /// A fresh lint session under this gateway's configuration.
    fn session(&self) -> LintSession {
        LintSession::with_config(self.config.clone())
    }

    /// The URL flow: fetch (following redirects), check, render.
    ///
    /// "If a URL is given, the gateway script retrieves the page, usually
    /// using a dedicated retrieval program" (§4.5) — here, any
    /// [`Fetcher`], in practice the simulated web.
    pub fn check_url(&self, fetcher: &dyn Fetcher, url: &str) -> Result<String, GatewayError> {
        let parsed = Url::parse(url).ok_or_else(|| GatewayError::BadUrl(url.to_string()))?;
        let mut current = parsed;
        // Lint during the fetch: each hop's bytes feed an incremental
        // session as they arrive, so by the time the final hop completes
        // only the report rendering remains.
        let mut session = self.session();
        for _ in 0..=self.max_redirects {
            let mut body = Vec::new();
            let mut diags = Vec::new();
            let (status, ct) = fetcher.get_streamed(&current, &mut |chunk| {
                diags.extend(session.feed(chunk));
                body.extend_from_slice(chunk);
            });
            match status {
                Status::Ok if ct.starts_with("text/html") => {
                    diags.extend(session.finish());
                    let body = String::from_utf8_lossy(&body);
                    return Ok(self.render(&current.to_string(), &body, &diags));
                }
                Status::Ok => return Err(GatewayError::NotHtml(current.to_string())),
                Status::Redirect(location) => {
                    session.abort();
                    current = current.join(&location);
                }
                Status::NotFound => return Err(GatewayError::NotFound(current.to_string())),
                Status::ServerError => return Err(GatewayError::ServerError(current.to_string())),
                Status::TimedOut | Status::Reset => {
                    return Err(GatewayError::Unreachable(current.to_string()))
                }
            }
        }
        Err(GatewayError::TooManyRedirects(current.to_string()))
    }

    /// [`Gateway::check_url`] with the lint routed through a shared
    /// [`LintService`], so repeated fetches of an unchanged page are
    /// answered from the service's result cache.
    pub fn check_url_with(
        &self,
        service: &LintService,
        fetcher: &dyn Fetcher,
        url: &str,
    ) -> Result<String, GatewayError> {
        let (resolved, body) = self.resolve(fetcher, url)?;
        Ok(self.check_and_render_with(service, &resolved.to_string(), &body))
    }

    /// The lint configuration jobs submitted through this gateway carry.
    pub fn lint_config(&self) -> &LintConfig {
        &self.config
    }

    /// Render an already-produced diagnostic list as the HTML report
    /// page (for callers that lint through the service themselves).
    pub fn render(&self, input_name: &str, src: &str, diags: &[Diagnostic]) -> String {
        render_report(input_name, src, diags, &self.options)
    }

    /// Fetch a URL, following up to `max_redirects` redirects, down to the
    /// final HTML body. Shared by both URL flows.
    pub fn resolve(&self, fetcher: &dyn Fetcher, url: &str) -> Result<(Url, String), GatewayError> {
        let parsed = Url::parse(url).ok_or_else(|| GatewayError::BadUrl(url.to_string()))?;
        let mut current = parsed;
        for _ in 0..=self.max_redirects {
            match fetcher.get(&current) {
                (Status::Ok, ct, body) if ct.starts_with("text/html") => {
                    return Ok((current, body));
                }
                (Status::Ok, _, _) => {
                    return Err(GatewayError::NotHtml(current.to_string()));
                }
                (Status::Redirect(location), _, _) => {
                    current = current.join(&location);
                }
                (Status::NotFound, _, _) => {
                    return Err(GatewayError::NotFound(current.to_string()));
                }
                (Status::ServerError, _, _) => {
                    return Err(GatewayError::ServerError(current.to_string()));
                }
                (Status::TimedOut, _, _) | (Status::Reset, _, _) => {
                    return Err(GatewayError::Unreachable(current.to_string()));
                }
            }
        }
        Err(GatewayError::TooManyRedirects(current.to_string()))
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
            Err(GatewayError::BadUrl("not a url".to_string()))
        );
        assert!(matches!(
            gateway.check_url(&f, "http://h/gone.html"),
            Err(GatewayError::NotFound(_))
        ));
        assert!(matches!(
            gateway.check_url(&f, "http://h/pic.gif"),
            Err(GatewayError::NotHtml(_))
        ));
        assert!(matches!(
            gateway.check_url(&f, "http://h/loop.html"),
            Err(GatewayError::TooManyRedirects(_))
        ));
        let err = gateway.check_url(&f, "http://h/gone.html").unwrap_err();
        assert!(err.to_string().contains("404"));
    }

    #[test]
    fn service_backed_flows_match_inline() {
        let gateway = Gateway::default();
        let service = LintService::with_config(LintConfig::default());
        let inline = gateway.check_and_render("snippet", "<H1>x</H2>");
        let via = gateway.check_and_render_with(&service, "snippet", "<H1>x</H2>");
        assert_eq!(inline, via);

        let pages = [
            ("one", "<H1>x</H2>"),
            ("two", "<H1>x</H2>"),
            ("three", "<P>ok"),
        ];
        let batch = gateway.render_batch(&service, &pages);
        assert_eq!(batch.len(), 3);
        for ((name, src), report) in pages.iter().zip(&batch) {
            assert_eq!(report, &gateway.check_and_render(name, src));
        }
        // Identical sources in the batch share the service's cache.
        assert!(service.metrics().cache.hits >= 1, "{:?}", service.metrics());
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
