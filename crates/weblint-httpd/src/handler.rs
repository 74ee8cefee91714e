//! Route dispatch: requests in, responses out.
//!
//! The handler is deliberately transport-free — it maps a parsed
//! [`Request`] to a [`Response`] given the shared application state, so
//! tests can drive every route without a socket.

use std::sync::Arc;

use weblint_core::{format_report, Diagnostic, LintSession, OutputFormat};
use weblint_gateway::{render_form, Gateway};
use weblint_service::{JobError, LintService, SubmitError};
use weblint_site::{resolve, FaultSpec, FetchError, FetchStack, SharedWeb};

use crate::http::{Request, Response};
use crate::metrics::HttpCounters;

/// Shared state behind every connection thread. The `url=` fetch path
/// always goes through a [`FetchStack`]: the bare transport in normal
/// operation, fault injection under retries and per-host breakers when
/// the server was started with `-faults`, and the adaptive pacer on top
/// under `-adaptive`.
pub(crate) struct App {
    pub(crate) service: LintService,
    pub(crate) gateway: Gateway,
    pub(crate) stack: FetchStack<SharedWeb>,
    pub(crate) counters: Arc<HttpCounters>,
}

impl App {
    pub(crate) fn new(
        service: LintService,
        gateway: Gateway,
        web: SharedWeb,
        counters: Arc<HttpCounters>,
    ) -> App {
        App {
            service,
            gateway,
            stack: FetchStack::new(web).build(),
            counters,
        }
    }

    /// [`App::new`], with URL fetches routed through seeded fault
    /// injection under retries and per-host breakers; `adaptive`
    /// adds the AIMD/hedging pacer so `/metrics` exposes its tables.
    pub(crate) fn with_chaos(
        service: LintService,
        gateway: Gateway,
        web: SharedWeb,
        counters: Arc<HttpCounters>,
        spec: FaultSpec,
        seed: u64,
        adaptive: bool,
    ) -> App {
        let mut builder = FetchStack::new(web)
            .faults(spec, seed)
            .resilience_defaults();
        if adaptive {
            builder = builder.adaptive_defaults().hedging_defaults();
        }
        App {
            service,
            gateway,
            stack: builder.build(),
            counters,
        }
    }

    /// Lint through the pool, mapping refusals to client-visible errors:
    /// a full (or shut) queue sheds the request with a 503 + `Retry-After`
    /// instead of silently linting inline — under overload the server's
    /// job is to stay honest about capacity, not to absorb unbounded work
    /// on dispatcher threads — and a panicked job surfaces as a 500.
    fn lint(
        &self,
        src: &str,
        config: Option<weblint_core::LintConfig>,
    ) -> Result<Vec<Diagnostic>, Response> {
        match self.service.submit_with(src.to_string(), config) {
            Ok(handle) => match handle.wait() {
                Ok(diags) => Ok(diags),
                Err(JobError::WorkerPanicked) => {
                    HttpCounters::bump(&self.counters.worker_errors);
                    Err(Response::text(
                        500,
                        "lint failed: the job crashed its worker (the pool has recovered)\n",
                    ))
                }
            },
            Err(SubmitError::QueueFull | SubmitError::ShutDown) => {
                HttpCounters::bump(&self.counters.shed);
                Err(shed_response())
            }
        }
    }
}

/// The 503 an overloaded server answers with. Only the service pool's
/// queue sheds: the loop's dispatch channel is unbounded (a connection
/// holds at most one job in it), and streamed lints never queue.
pub(crate) fn shed_response() -> Response {
    let mut response = Response::text(503, "lint queue is full; retry in a moment\n");
    response
        .extra_headers
        .push(("Retry-After", "1".to_string()));
    response
}

/// How the client wants the report rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReportStyle {
    /// One of the CLI text formats.
    Text(OutputFormat),
    /// The full gateway HTML report page.
    Html,
}

/// Resolve the response style: an explicit `format` query parameter wins,
/// then the `Accept` header, then the route's default.
fn negotiate(req: &Request, default: ReportStyle) -> Result<ReportStyle, Response> {
    if let Some(name) = req.query_param("format") {
        return match name {
            "lint" => Ok(ReportStyle::Text(OutputFormat::Lint)),
            "short" => Ok(ReportStyle::Text(OutputFormat::Short)),
            "terse" => Ok(ReportStyle::Text(OutputFormat::Terse)),
            "explain" => Ok(ReportStyle::Text(OutputFormat::Explain)),
            "json" => Ok(ReportStyle::Text(OutputFormat::Json)),
            "html" => Ok(ReportStyle::Html),
            _ => Err(Response::text(
                400,
                format!("unknown format {name:?}: expected lint, short, terse, explain, json, or html\n"),
            )),
        };
    }
    if let Some(accept) = req.header("accept") {
        if accept.contains("application/json") {
            return Ok(ReportStyle::Text(OutputFormat::Json));
        }
        if accept.contains("text/html") {
            return Ok(ReportStyle::Html);
        }
    }
    Ok(default)
}

/// A `POST /lint` being linted as its body arrives off the socket — the
/// event loop's streaming path. The engine's incremental session replaces
/// the buffered body: bytes are fed as they land and never retained, so a
/// connection mid-upload costs O(engine state), not O(document).
///
/// Streaming changes *where* the lint runs — on the loop thread, token by
/// token, instead of as one job on the worker pool — so streamed lints
/// are never cached, never shed, and never wait on a dispatcher. The
/// diagnostics (and thus the rendered report) are byte-identical to the
/// buffered path: both drive the same engine.
pub(crate) struct LintStream {
    session: LintSession,
    format: OutputFormat,
    name: String,
    diags: Vec<Diagnostic>,
    utf8: Utf8Checker,
    /// The findings budget tripped: the session is abandoned and later
    /// body bytes only matter for framing.
    truncated: bool,
}

/// Decide whether a parsed head can be linted as its body streams in:
/// `POST /lint`, rendered as one of the text formats. The HTML report
/// page and `POST /fix` embed the full source in their response, so they
/// keep buffering; an invalid `format=` also buffers, so the ordinary
/// handler can refuse it with the usual 400.
pub(crate) fn stream_plan(app: &App, req: &Request) -> Option<LintStream> {
    if req.method != "POST" || req.path != "/lint" {
        return None;
    }
    let style = negotiate(req, ReportStyle::Text(OutputFormat::Lint)).ok()?;
    let ReportStyle::Text(format) = style else {
        return None;
    };
    Some(LintStream {
        session: LintSession::with_config(app.service.config().clone()),
        format,
        name: req.query_param("name").unwrap_or("posted").to_string(),
        diags: Vec::new(),
        utf8: Utf8Checker::default(),
        truncated: false,
    })
}

impl LintStream {
    /// Feed the next decoded body bytes. `max_findings` (0 = unlimited)
    /// is the early-abort budget: once tripped, the engine stops but the
    /// stream keeps accepting bytes so the connection's framing survives
    /// for keep-alive.
    pub(crate) fn feed(&mut self, chunk: &[u8], max_findings: usize) {
        self.utf8.push(chunk);
        if self.truncated {
            return;
        }
        self.diags.extend(self.session.feed(chunk));
        self.enforce(max_findings);
    }

    fn enforce(&mut self, max_findings: usize) {
        if max_findings > 0 && self.diags.len() >= max_findings {
            self.diags.truncate(max_findings);
            self.session.abort();
            self.truncated = true;
        }
    }

    /// End of body: run the end-of-document checks and render the report,
    /// exactly as the buffered path would have.
    pub(crate) fn into_response(mut self, app: &App, max_findings: usize) -> Response {
        if !self.utf8.is_valid() {
            // The whole body was validated as it streamed; the refusal is
            // the same one the buffered path issues.
            return Response::text(400, "document body must be UTF-8\n");
        }
        if !self.truncated {
            self.diags.extend(self.session.finish());
            self.enforce(max_findings);
        }
        HttpCounters::bump(&app.counters.streamed_lints);
        let report = format_report(&self.diags, &self.name, self.format);
        let mut response = Response::text(200, report);
        if self.format == OutputFormat::Json {
            response.content_type = "application/json";
        }
        if self.truncated {
            response.extra_headers.push((
                "X-Weblint-Truncated",
                format!("stopped after {} finding(s)", self.diags.len()),
            ));
        }
        response
    }
}

/// Incremental UTF-8 validation across arbitrary chunk boundaries. The
/// buffered path refuses non-UTF-8 documents outright while the lint
/// session replaces bad sequences, so the streaming path validates every
/// byte on the side to reach the buffered path's verdict.
#[derive(Debug, Default)]
struct Utf8Checker {
    /// An incomplete trailing sequence carried to the next chunk.
    pending: [u8; 4],
    pending_len: u8,
    invalid: bool,
}

impl Utf8Checker {
    fn push(&mut self, mut chunk: &[u8]) {
        if self.invalid {
            return;
        }
        if self.pending_len > 0 {
            // Top up the carried sequence to its declared length, then
            // judge it whole.
            let need = utf8_len(self.pending[0]) - self.pending_len as usize;
            let take = need.min(chunk.len());
            self.pending[self.pending_len as usize..self.pending_len as usize + take]
                .copy_from_slice(&chunk[..take]);
            self.pending_len += take as u8;
            chunk = &chunk[take..];
            if (self.pending_len as usize) < utf8_len(self.pending[0]) {
                return; // chunk exhausted mid-sequence; keep carrying
            }
            if std::str::from_utf8(&self.pending[..self.pending_len as usize]).is_err() {
                self.invalid = true;
                return;
            }
            self.pending_len = 0;
        }
        if let Err(e) = std::str::from_utf8(chunk) {
            if e.error_len().is_some() {
                self.invalid = true;
            } else {
                // A valid prefix of a multi-byte character ends the chunk.
                let tail = &chunk[e.valid_up_to()..];
                self.pending[..tail.len()].copy_from_slice(tail);
                self.pending_len = tail.len() as u8;
            }
        }
    }

    /// Whether the bytes seen so far form complete, valid UTF-8 (called
    /// at end of body — a dangling partial sequence is invalid).
    fn is_valid(&self) -> bool {
        !self.invalid && self.pending_len == 0
    }
}

/// Declared length of a UTF-8 sequence from its lead byte. Only called
/// on bytes `from_utf8` classified as the valid-prefix start of an
/// incomplete sequence, so the lead is always well-formed.
fn utf8_len(lead: u8) -> usize {
    match lead {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Dispatch one request. HEAD routes like GET; the server omits the body
/// when writing the response.
pub(crate) fn handle(app: &App, req: &Request) -> Response {
    let method = if req.method == "HEAD" {
        "GET"
    } else {
        req.method.as_str()
    };
    match (method, req.path.as_str()) {
        ("GET", "/") => Response::html(200, render_form("/lint")),
        ("GET", "/health") => Response::text(200, "ok\n"),
        ("GET", "/metrics") => {
            let service = app.service.metrics();
            let http = app.counters.snapshot();
            let mut text = format!("{service}\n\n{http}\n");
            // One shared render path with poacher -stats: the stack's
            // unified telemetry snapshot, section per enabled layer.
            let telemetry = app.stack.telemetry();
            if !telemetry.is_empty() {
                text.push_str(&format!("\n{telemetry}\n"));
            }
            Response::text(200, text)
        }
        ("POST", "/lint") => handle_post_lint(app, req),
        ("GET", "/lint") => handle_get_lint(app, req),
        ("POST", "/fix") => handle_post_fix(app, req),
        (_, "/" | "/health" | "/metrics") => method_not_allowed("GET, HEAD"),
        (_, "/lint") => method_not_allowed("GET, HEAD, POST"),
        (_, "/fix") => method_not_allowed("POST"),
        _ => Response::text(404, format!("no such route: {}\n", req.path)),
    }
}

fn method_not_allowed(allow: &'static str) -> Response {
    let mut response = Response::text(405, format!("method not allowed; try {allow}\n"));
    response.extra_headers.push(("Allow", allow.to_string()));
    response
}

/// `POST /lint`: the body is the document. Defaults to traditional lint
/// output, like the command line.
fn handle_post_lint(app: &App, req: &Request) -> Response {
    let src = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return Response::text(400, "document body must be UTF-8\n"),
    };
    let name = req.query_param("name").unwrap_or("posted");
    let style = match negotiate(req, ReportStyle::Text(OutputFormat::Lint)) {
        Ok(style) => style,
        Err(response) => return response,
    };
    render_lint(app, name, src, style)
}

/// `POST /fix`: the body is the document; the response is the repaired
/// document, with the number of fixes applied in `X-Weblint-Fixed-Count`.
///
/// The lint pass runs through the same service pool as `/lint` — under
/// overload fix jobs shed with the same 503 — but under a fix-collecting
/// configuration, which fingerprints differently, so fix results and
/// plain lint results never replay one another from the cache.
fn handle_post_fix(app: &App, req: &Request) -> Response {
    let src = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return Response::text(400, "document body must be UTF-8\n"),
    };
    let mut config = app.service.config().clone();
    config.emit_fixes = true;
    let diags = match app.lint(src, Some(config)) {
        Ok(diags) => diags,
        Err(refusal) => return refusal,
    };
    let outcome = weblint_fix::apply_fixes(src, &diags);
    HttpCounters::bump(&app.counters.fix_requests);
    HttpCounters::add(&app.counters.fixes_applied, outcome.fixes_applied as u64);
    let mut response = Response::text(200, outcome.output);
    response.content_type = "text/html; charset=utf-8";
    response
        .extra_headers
        .push(("X-Weblint-Fixed-Count", outcome.fixes_applied.to_string()));
    response
}

/// `GET /lint?url=…`: fetch through the simulated web, then lint.
/// Defaults to the gateway's HTML report, like the CGI flow.
fn handle_get_lint(app: &App, req: &Request) -> Response {
    let Some(url) = req.query_param("url") else {
        return Response::text(
            400,
            "missing url parameter: POST a document body, or GET /lint?url=...\n",
        );
    };
    let style = match negotiate(req, ReportStyle::Html) {
        Ok(style) => style,
        Err(response) => return response,
    };
    let (resolved, body) = match resolve(&app.stack, url) {
        Ok(hit) => hit,
        Err(err) => {
            let status = match err {
                FetchError::BadUrl(_) => 400,
                FetchError::NotFound(_) => 404,
                FetchError::NotHtml(_) => 415,
                FetchError::ServerError(_)
                | FetchError::TooManyRedirects(_)
                | FetchError::Unreachable(_) => 502,
            };
            return Response::text(status, format!("{err}\n"));
        }
    };
    render_lint(app, &resolved.to_string(), &body, style)
}

/// Lint through the service pool and render in the requested style. The
/// HTML path keeps carrying the gateway's lint configuration, like the
/// CGI flow always has.
fn render_lint(app: &App, name: &str, src: &str, style: ReportStyle) -> Response {
    let config = match style {
        ReportStyle::Html => Some(app.gateway.lint_config().clone()),
        ReportStyle::Text(_) => None,
    };
    let diags = match app.lint(src, config) {
        Ok(diags) => diags,
        Err(refusal) => return refusal,
    };
    match style {
        ReportStyle::Html => Response::html(200, app.gateway.render(name, src, &diags)),
        ReportStyle::Text(format) => {
            let report = format_report(&diags, name, format);
            let mut response = Response::text(200, report);
            if format == OutputFormat::Json {
                response.content_type = "application/json";
            }
            response
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weblint_core::LintConfig;
    use weblint_gateway::ReportOptions;
    use weblint_service::ServiceConfig;
    use weblint_site::{Resource, SimulatedWeb};

    fn app() -> App {
        let mut web = SimulatedWeb::new();
        web.add_page("http://h/p.html", "<H1>x</H2>");
        web.add("http://h/pic.gif", Resource::asset("image/gif"));
        web.add_redirect("http://h/loop.html", "http://h/loop.html");
        web.add_redirect("http://h/old.html", "/p.html");
        App::new(
            LintService::new(ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            }),
            Gateway::new(LintConfig::default(), ReportOptions::default()),
            SharedWeb::new(web),
            Arc::new(HttpCounters::default()),
        )
    }

    fn request(method: &str, path: &str, query: &[(&str, &str)], body: &[u8]) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            http10: false,
            headers: Vec::new(),
            body: body.to_vec(),
        }
    }

    #[test]
    fn health_and_form_and_metrics() {
        let app = app();
        assert_eq!(
            handle(&app, &request("GET", "/health", &[], b"")).body,
            b"ok\n"
        );
        let form = handle(&app, &request("GET", "/", &[], b""));
        assert!(String::from_utf8(form.body).unwrap().contains("/lint"));
        let metrics = handle(&app, &request("GET", "/metrics", &[], b""));
        let text = String::from_utf8(metrics.body).unwrap();
        assert!(text.contains("service statistics:"), "{text}");
        assert!(text.contains("httpd statistics:"), "{text}");
    }

    #[test]
    fn metrics_include_per_rule_hits_after_linting() {
        let app = app();
        let response = handle(&app, &request("POST", "/lint", &[], b"<H1>x</H2>"));
        assert_eq!(response.status, 200);
        let metrics = handle(&app, &request("GET", "/metrics", &[], b""));
        let text = String::from_utf8(metrics.body).unwrap();
        assert!(text.contains("rule hits:"), "{text}");
        assert!(text.contains("heading-mismatch"), "{text}");
    }

    #[test]
    fn post_lint_default_is_lint_style() {
        let app = app();
        let response = handle(&app, &request("POST", "/lint", &[], b"<H1>x</H2>"));
        assert_eq!(response.status, 200);
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.starts_with("posted("), "{text}");
        assert!(text.contains("malformed heading"), "{text}");
    }

    #[test]
    fn post_lint_formats() {
        let app = app();
        let json = handle(
            &app,
            &request("POST", "/lint", &[("format", "json")], b"<H1>x</H2>"),
        );
        assert_eq!(json.content_type, "application/json");
        serde_json::from_str::<serde_json::Value>(std::str::from_utf8(&json.body).unwrap())
            .unwrap();

        let html = handle(
            &app,
            &request(
                "POST",
                "/lint",
                &[("format", "html"), ("name", "mine")],
                b"<H1>x</H2>",
            ),
        );
        assert!(html.content_type.starts_with("text/html"));
        let page = String::from_utf8(html.body).unwrap();
        assert!(page.contains("mine"), "{page}");

        let bad = handle(&app, &request("POST", "/lint", &[("format", "yaml")], b"x"));
        assert_eq!(bad.status, 400);
    }

    #[test]
    fn accept_header_negotiates() {
        let app = app();
        let mut req = request("POST", "/lint", &[], b"<H1>x</H2>");
        req.headers
            .push(("accept".to_string(), "application/json".to_string()));
        assert_eq!(handle(&app, &req).content_type, "application/json");
        req.headers[0].1 = "text/html".to_string();
        assert!(handle(&app, &req).content_type.starts_with("text/html"));
        // An explicit format parameter beats the Accept header.
        req.query = vec![("format".to_string(), "terse".to_string())];
        assert!(handle(&app, &req).content_type.starts_with("text/plain"));
    }

    #[test]
    fn url_flow_and_error_mapping() {
        let app = app();
        let ok = handle(
            &app,
            &request("GET", "/lint", &[("url", "http://h/p.html")], b""),
        );
        assert_eq!(ok.status, 200);
        let page = String::from_utf8(ok.body).unwrap();
        assert!(page.contains("malformed heading"), "{page}");

        // A followed redirect reports under the URL it landed on.
        let moved = handle(
            &app,
            &request(
                "GET",
                "/lint",
                &[("url", "http://h/old.html"), ("format", "lint")],
                b"",
            ),
        );
        assert_eq!(moved.status, 200);
        let report = String::from_utf8(moved.body).unwrap();
        assert!(report.starts_with("http://h/p.html("), "{report}");
        assert!(!report.contains("old.html"), "{report}");

        for (url, status) in [
            ("not a url", 400),
            ("http://h/gone.html", 404),
            ("http://h/pic.gif", 415),
            ("http://h/loop.html", 502),
        ] {
            let response = handle(&app, &request("GET", "/lint", &[("url", url)], b""));
            assert_eq!(response.status, status, "{url}");
        }
        let missing = handle(&app, &request("GET", "/lint", &[], b""));
        assert_eq!(missing.status, 400);
    }

    #[test]
    fn post_fix_returns_repaired_document_and_count() {
        let app = app();
        let response = handle(
            &app,
            &request(
                "POST",
                "/fix",
                &[],
                b"<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><H1>Hi</H2></BODY></HTML>",
            ),
        );
        assert_eq!(response.status, 200);
        let body = String::from_utf8(response.body).unwrap();
        assert!(body.starts_with("<!DOCTYPE"), "{body}");
        assert!(body.contains("</H1>"), "{body}");
        let count = response
            .extra_headers
            .iter()
            .find(|(n, _)| *n == "X-Weblint-Fixed-Count")
            .map(|(_, v)| v.clone())
            .expect("count header");
        assert_eq!(count, "2", "doctype + heading rename");
        let snap = app.counters.snapshot();
        assert_eq!(snap.fix_requests, 1);
        assert_eq!(snap.fixes_applied, 2);
        // The metrics page renders the new counters.
        let metrics = handle(&app, &request("GET", "/metrics", &[], b""));
        let text = String::from_utf8(metrics.body).unwrap();
        assert!(text.contains("1 request(s), 2 fix(es) applied"), "{text}");
    }

    #[test]
    fn post_fix_clean_document_round_trips() {
        let app = app();
        let doc = b"<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
                    <HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><P>hi</P></BODY></HTML>\n";
        let response = handle(&app, &request("POST", "/fix", &[], doc));
        assert_eq!(response.status, 200);
        assert_eq!(response.body, doc.to_vec());
        assert!(response
            .extra_headers
            .iter()
            .any(|(n, v)| *n == "X-Weblint-Fixed-Count" && v == "0"));
    }

    #[test]
    fn fix_jobs_cache_separately_from_lint_jobs() {
        let app = app();
        let doc = b"<H1>x</H2>";
        // Lint twice: second submission is a cache hit.
        handle(&app, &request("POST", "/lint", &[], doc));
        handle(&app, &request("POST", "/lint", &[], doc));
        let after_lint = app.service.metrics().cache;
        assert_eq!(after_lint.hits, 1, "{after_lint:?}");
        // A fix job on the same bytes must MISS (different fingerprint) —
        // a replayed lint result would carry no fixes at all.
        let fixed = handle(&app, &request("POST", "/fix", &[], doc));
        assert!(fixed
            .extra_headers
            .iter()
            .any(|(n, v)| *n == "X-Weblint-Fixed-Count" && v != "0"));
        let after_fix = app.service.metrics().cache;
        assert_eq!(after_fix.hits, 1, "fix job must not replay a lint result");
        assert_eq!(after_fix.misses, after_lint.misses + 1);
        // But a second identical fix job replays the fix-mode entry.
        let again = handle(&app, &request("POST", "/fix", &[], doc));
        assert_eq!(again.extra_headers, fixed.extra_headers);
        assert_eq!(app.service.metrics().cache.hits, 2);
    }

    #[test]
    fn fix_rejects_non_post_and_bad_bodies() {
        let app = app();
        let response = handle(&app, &request("GET", "/fix", &[], b""));
        assert_eq!(response.status, 405);
        assert!(response
            .extra_headers
            .iter()
            .any(|(n, v)| *n == "Allow" && v == "POST"));
        let bad = handle(&app, &request("POST", "/fix", &[], &[0xff, 0xfe]));
        assert_eq!(bad.status, 400);
    }

    #[test]
    fn unknown_routes_and_methods() {
        let app = app();
        assert_eq!(handle(&app, &request("GET", "/nope", &[], b"")).status, 404);
        let response = handle(&app, &request("DELETE", "/lint", &[], b""));
        assert_eq!(response.status, 405);
        assert!(response
            .extra_headers
            .iter()
            .any(|(n, v)| *n == "Allow" && v.contains("POST")));
        assert_eq!(
            handle(&app, &request("POST", "/health", &[], b"")).status,
            405
        );
    }

    #[test]
    fn head_routes_like_get() {
        let app = app();
        let response = handle(&app, &request("HEAD", "/health", &[], b""));
        assert_eq!(response.status, 200);
    }

    #[test]
    fn non_utf8_body_is_400() {
        let app = app();
        let response = handle(&app, &request("POST", "/lint", &[], &[0xff, 0xfe]));
        assert_eq!(response.status, 400);
    }

    #[test]
    fn utf8_checker_matches_whole_buffer_validation() {
        let cases: &[&[u8]] = &[
            b"plain ascii",
            "caf\u{e9} and \u{4e2d}\u{6587}".as_bytes(),
            b"<TITLE>caf\xe9</TITLE>",
            b"dangling \xe4\xb8",
            b"\xff\xfe",
            b"",
        ];
        for bytes in cases {
            let expected = std::str::from_utf8(bytes).is_ok();
            for split in 0..=bytes.len() {
                let mut checker = Utf8Checker::default();
                checker.push(&bytes[..split]);
                checker.push(&bytes[split..]);
                assert_eq!(checker.is_valid(), expected, "{bytes:?} split at {split}");
            }
            let mut checker = Utf8Checker::default();
            for b in *bytes {
                checker.push(std::slice::from_ref(b));
            }
            assert_eq!(checker.is_valid(), expected, "{bytes:?} byte-at-a-time");
        }
    }

    #[test]
    fn stream_plan_covers_exactly_the_text_lint_routes() {
        let app = app();
        assert!(stream_plan(&app, &request("POST", "/lint", &[], b"")).is_some());
        assert!(stream_plan(&app, &request("POST", "/lint", &[("format", "json")], b"")).is_some());
        // The HTML report needs the whole source; an unknown format must
        // reach the ordinary handler's 400; /fix returns the repaired
        // document; GET has no body to stream.
        assert!(stream_plan(&app, &request("POST", "/lint", &[("format", "html")], b"")).is_none());
        assert!(stream_plan(&app, &request("POST", "/lint", &[("format", "yaml")], b"")).is_none());
        assert!(stream_plan(&app, &request("POST", "/fix", &[], b"")).is_none());
        assert!(stream_plan(&app, &request("GET", "/lint", &[], b"")).is_none());
    }

    #[test]
    fn streamed_lint_matches_the_buffered_response_byte_for_byte() {
        let app = app();
        let doc =
            b"<HTML><HEAD><TITLE>t</TITLE></HEAD>\n<BODY><H1>x</H2><IMG SRC=a.gif></BODY></HTML>";
        for format in ["lint", "short", "terse", "explain", "json"] {
            let req = request("POST", "/lint", &[("format", format)], doc);
            let buffered = handle(&app, &req);
            assert_eq!(buffered.status, 200, "{format}");
            let mut lint = stream_plan(&app, &req).expect("eligible");
            for chunk in doc.chunks(7) {
                lint.feed(chunk, 0);
            }
            let streamed = lint.into_response(&app, 0);
            assert_eq!(streamed.status, 200, "{format}");
            assert_eq!(streamed.body, buffered.body, "{format}");
            assert_eq!(streamed.content_type, buffered.content_type, "{format}");
        }
        assert_eq!(app.counters.snapshot().streamed_lints, 5);
    }

    #[test]
    fn streamed_lint_stops_at_the_findings_budget() {
        let app = app();
        let req = request("POST", "/lint", &[("format", "terse")], b"");
        let mut lint = stream_plan(&app, &req).unwrap();
        let doc = "<NOSUCHTAG>x</NOSUCHTAG>".repeat(50);
        for chunk in doc.as_bytes().chunks(16) {
            lint.feed(chunk, 3);
        }
        let response = lint.into_response(&app, 3);
        assert_eq!(response.status, 200);
        assert!(
            response
                .extra_headers
                .iter()
                .any(|(n, v)| *n == "X-Weblint-Truncated" && v.contains("3 finding(s)")),
            "{:?}",
            response.extra_headers
        );
        let text = String::from_utf8(response.body).unwrap();
        assert_eq!(text.lines().count(), 3, "{text}");
    }

    #[test]
    fn streamed_non_utf8_is_refused_like_buffered() {
        let app = app();
        let req = request("POST", "/lint", &[], b"");
        let mut lint = stream_plan(&app, &req).unwrap();
        lint.feed(b"<P>ok \xff\xfe rest", 0);
        let response = lint.into_response(&app, 0);
        assert_eq!(response.status, 400);
        let buffered = handle(&app, &request("POST", "/lint", &[], b"<P>ok \xff\xfe rest"));
        assert_eq!(response.body, buffered.body);
    }

    #[test]
    fn refused_jobs_are_shed_with_503_and_retry_after() {
        let app = app();
        // A closed queue refuses every submission, exactly like a full
        // one under Reject — the deterministic way to provoke shedding.
        app.service.shutdown();
        let response = handle(&app, &request("POST", "/lint", &[], b"<H1>x</H2>"));
        assert_eq!(response.status, 503);
        assert!(
            response
                .extra_headers
                .iter()
                .any(|(n, v)| *n == "Retry-After" && v == "1"),
            "{:?}",
            response.extra_headers
        );
        // The HTML path sheds the same way.
        let html = handle(
            &app,
            &request("POST", "/lint", &[("format", "html")], b"<H1>x</H2>"),
        );
        assert_eq!(html.status, 503);
        assert_eq!(app.counters.snapshot().requests_shed, 2);
    }

    #[test]
    fn chaos_metrics_expose_fault_and_resilience_stats() {
        let mut web = SimulatedWeb::new();
        web.add_page("http://h/p.html", "<H1>x</H2>");
        let app = App::with_chaos(
            LintService::new(ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            }),
            Gateway::new(LintConfig::default(), ReportOptions::default()),
            SharedWeb::new(web),
            Arc::new(HttpCounters::default()),
            weblint_site::FaultSpec::parse("100:5xx").unwrap(),
            7,
            true,
        );
        // Under 100% server errors with retries exhausted, the fetch
        // fails as a bad gateway rather than hanging or panicking.
        let response = handle(
            &app,
            &request("GET", "/lint", &[("url", "http://h/p.html")], b""),
        );
        assert_eq!(response.status, 502);
        let metrics = handle(&app, &request("GET", "/metrics", &[], b""));
        let text = String::from_utf8(metrics.body).unwrap();
        assert!(text.contains("fault injection:"), "{text}");
        assert!(text.contains("resilience:"), "{text}");
        assert!(text.contains("pacing:"), "{text}");
    }
}
