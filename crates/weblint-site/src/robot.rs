//! The *poacher* robot: crawl a site, lint every page, validate links.
//!
//! "A robot can be used to invoke weblint on all accessible pages on a
//! site. I have written one, called poacher … Poacher also performs basic
//! link validation. … At its simplest, this merely consists of sending a
//! HEAD request, and reporting all URLs which result in a 404 response
//! code. Smarter robots will handle redirects" (§4.5, §3.5). This robot
//! does both: it follows redirects (bounded), GETs and lints same-site HTML
//! pages breadth-first, and HEAD-validates everything else.

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

use weblint_core::{Diagnostic, LintConfig, LintSession};
use weblint_service::{JobHandle, LintService};

use crate::checkpoint::{
    self, load_checkpoint, save_checkpoint, CheckpointError, CheckpointMeta, ShardState,
};
use crate::fault::{transient, HopRecord, VIRTUAL_RTT_US};
use crate::frontier::{shard_of, Candidate, ShardFrontier};
use crate::links::{extract_links, Link, LinkKind};
use crate::pacing::{HedgeToken, Observation};
use crate::stack::{FetchStack, StackState, StackTelemetry};
use crate::url::Url;
use crate::web::{SimulatedWeb, Status};

/// Bytes per transport delivery when a buffered body is replayed as a
/// stream — the packet size the default [`Fetcher::get_streamed`]
/// simulates, and the feed granularity for linting on a fetch worker.
const FETCH_CHUNK: usize = 4096;

/// Transport abstraction so the robot can crawl the simulated web today
/// and a real HTTP client if one is ever wired in.
pub trait Fetcher {
    /// HEAD: status and content type.
    fn head(&self, url: &Url) -> (Status, String);
    /// GET: status, content type, body.
    fn get(&self, url: &Url) -> (Status, String, String);
    /// GET, delivering the body through `sink` as it arrives; returns
    /// status and content type. This is what lets the robot lint a page
    /// *during* its fetch. The default buffers via [`Fetcher::get`] and
    /// replays the body in 4 KiB pieces; a transport with
    /// a real wire overrides it to call `sink` as bytes land.
    fn get_streamed(&self, url: &Url, sink: &mut dyn FnMut(&[u8])) -> (Status, String) {
        let (status, content_type, body) = self.get(url);
        for chunk in body.as_bytes().chunks(FETCH_CHUNK) {
            sink(chunk);
        }
        (status, content_type)
    }
}

/// [`SimulatedWeb`] as a [`Fetcher`].
pub struct WebFetcher<'a> {
    web: &'a SimulatedWeb,
}

impl<'a> WebFetcher<'a> {
    /// Wrap a simulated web.
    pub fn new(web: &'a SimulatedWeb) -> WebFetcher<'a> {
        WebFetcher { web }
    }
}

impl Fetcher for WebFetcher<'_> {
    fn head(&self, url: &Url) -> (Status, String) {
        self.web.head(url)
    }

    fn get(&self, url: &Url) -> (Status, String, String) {
        self.web.get(url)
    }
}

/// A [`crate::PageStore`] served as a website: `http://{host}/{path}` maps
/// to the store's `path`. This is how *poacher* crawls a local directory
/// tree — the same traversal code, with the filesystem as the transport.
pub struct StoreFetcher<'a> {
    store: &'a (dyn crate::PageStore + Sync),
    host: String,
}

impl<'a> StoreFetcher<'a> {
    /// Serve `store` as `http://{host}/`.
    pub fn new(store: &'a (dyn crate::PageStore + Sync), host: &str) -> StoreFetcher<'a> {
        StoreFetcher {
            store,
            host: host.to_ascii_lowercase(),
        }
    }

    /// The URL of the store's root index page.
    pub fn start_url(&self) -> Url {
        Url::parse(&format!("http://{}/index.html", self.host)).expect("valid URL")
    }

    fn path_of<'u>(&self, url: &'u Url) -> Option<&'u str> {
        if url.host != self.host {
            return None;
        }
        Some(url.path.trim_start_matches('/'))
    }
}

impl Fetcher for StoreFetcher<'_> {
    fn head(&self, url: &Url) -> (Status, String) {
        match self.path_of(url) {
            Some(path) if self.store.exists(path) => (Status::Ok, content_type_of(path)),
            _ => (Status::NotFound, String::new()),
        }
    }

    fn get(&self, url: &Url) -> (Status, String, String) {
        match self
            .path_of(url)
            .and_then(|p| self.store.read(p).map(|body| (content_type_of(p), body)))
        {
            Some((ct, body)) => (Status::Ok, ct, body),
            None => (Status::NotFound, String::new(), String::new()),
        }
    }
}

/// MIME type by file extension, 1998 edition.
fn content_type_of(path: &str) -> String {
    let lower = path.to_ascii_lowercase();
    let ct = if lower.ends_with(".html") || lower.ends_with(".htm") || lower.ends_with(".shtml") {
        "text/html"
    } else if lower.ends_with(".gif") {
        "image/gif"
    } else if lower.ends_with(".jpg") || lower.ends_with(".jpeg") {
        "image/jpeg"
    } else if lower.ends_with(".css") {
        "text/css"
    } else if lower.ends_with(".txt") {
        "text/plain"
    } else {
        "application/octet-stream"
    };
    ct.to_string()
}

/// A [`Fetcher`] backed by a resolver closure: `resolve(url)` returns
/// `Some((content_type, body))` for resources that exist. This is how
/// generated corpora (the mega-site) plug into the robot without a
/// dependency on this crate's web types.
pub struct FnFetcher<G> {
    resolve: G,
}

impl<G> FnFetcher<G>
where
    G: Fn(&Url) -> Option<(String, String)>,
{
    /// Wrap a resolver closure.
    pub fn new(resolve: G) -> FnFetcher<G> {
        FnFetcher { resolve }
    }
}

impl<G> Fetcher for FnFetcher<G>
where
    G: Fn(&Url) -> Option<(String, String)>,
{
    fn head(&self, url: &Url) -> (Status, String) {
        match (self.resolve)(url) {
            Some((ct, _)) => (Status::Ok, ct),
            None => (Status::NotFound, String::new()),
        }
    }

    fn get(&self, url: &Url) -> (Status, String, String) {
        match (self.resolve)(url) {
            Some((ct, body)) => (Status::Ok, ct, body),
            None => (Status::NotFound, String::new(), String::new()),
        }
    }
}

/// Robot knobs. Prefer [`RobotOptions::builder`] — its setters validate
/// their inputs — over field-by-field struct construction; `Default` is
/// kept for compatibility.
#[derive(Debug, Clone)]
pub struct RobotOptions {
    /// Stop after this many pages have been fetched and linted.
    pub max_pages: usize,
    /// Give up on a redirect chain after this many hops.
    pub max_redirects: usize,
    /// Bound on click depth: links found on pages at this depth are
    /// still validated, but not crawled. `None` crawls without bound.
    pub max_depth: Option<usize>,
    /// Fetches [`Robot::crawl_stack`] may keep in flight at once (the
    /// adaptive per-host limit clamps each batch further). `1` crawls
    /// sequentially; `crawl`/`crawl_with` are always sequential.
    pub jobs: usize,
    /// HEAD-validate links that leave the start host.
    pub check_external: bool,
    /// Lint configuration applied to each fetched page.
    pub lint: LintConfig,
}

impl Default for RobotOptions {
    fn default() -> RobotOptions {
        RobotOptions {
            max_pages: 1_000,
            max_redirects: 5,
            max_depth: None,
            jobs: 1,
            check_external: true,
            lint: LintConfig::default(),
        }
    }
}

impl RobotOptions {
    /// A builder seeded with the defaults.
    pub fn builder() -> RobotOptionsBuilder {
        RobotOptionsBuilder {
            options: RobotOptions::default(),
        }
    }
}

/// Validating builder for [`RobotOptions`]: every setter clamps its
/// input to the option's sane range, so no combination of calls can
/// produce a robot that fetches zero pages or spawns a thousand
/// threads.
#[derive(Debug, Clone)]
pub struct RobotOptionsBuilder {
    options: RobotOptions,
}

impl RobotOptionsBuilder {
    /// Page budget; clamped to at least 1.
    pub fn max_pages(mut self, pages: usize) -> Self {
        self.options.max_pages = pages.max(1);
        self
    }

    /// Redirect-chain hop limit; clamped to at most 64.
    pub fn max_redirects(mut self, hops: usize) -> Self {
        self.options.max_redirects = hops.min(64);
        self
    }

    /// Click-depth bound (0 crawls only the start page).
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.options.max_depth = Some(depth);
        self
    }

    /// Parallel fetch slots for [`Robot::crawl_stack`]; clamped to
    /// 1..=64.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.options.jobs = jobs.clamp(1, 64);
        self
    }

    /// Whether to HEAD-validate off-site links.
    pub fn check_external(mut self, yes: bool) -> Self {
        self.options.check_external = yes;
        self
    }

    /// Lint configuration applied to each page.
    pub fn lint(mut self, config: LintConfig) -> Self {
        self.options.lint = config;
        self
    }

    /// Finish.
    pub fn build(self) -> RobotOptions {
        self.options
    }
}

/// One crawled page.
#[derive(Debug, Clone)]
pub struct CrawledPage {
    /// Final URL (after redirects).
    pub url: Url,
    /// Lint results for the page.
    pub diagnostics: Vec<Diagnostic>,
    /// Links found on the page.
    pub link_count: usize,
    /// Click depth from the start page (the start page is depth 0).
    ///
    /// §2 asks "How easy is your site to navigate?" and §3.5 notes that
    /// "smarter robots … generate navigational analysis of your site" —
    /// this is that analysis: BFS depth is the minimum number of clicks a
    /// visitor needs.
    pub depth: usize,
}

/// A dead or broken link discovered during the crawl.
#[derive(Debug, Clone)]
pub struct DeadLink {
    /// Page the link appeared on.
    pub page: Url,
    /// The reference as written.
    pub href: String,
    /// Why it is considered dead.
    pub reason: String,
}

/// What the robot found.
#[derive(Debug, Clone, Default)]
pub struct RobotReport {
    /// Every page fetched and linted.
    pub pages: Vec<CrawledPage>,
    /// Every broken link.
    pub dead_links: Vec<DeadLink>,
    /// Redirect hops followed.
    pub redirects_followed: usize,
    /// Crawl stopped early because `max_pages` was reached.
    pub truncated: bool,
}

impl RobotReport {
    /// Total diagnostics across all pages.
    pub fn total_diagnostics(&self) -> usize {
        self.pages.iter().map(|p| p.diagnostics.len()).sum()
    }

    /// The deepest click depth reached.
    pub fn max_depth(&self) -> usize {
        self.pages.iter().map(|p| p.depth).max().unwrap_or(0)
    }

    /// Page count per click depth: index `d` holds how many pages sit `d`
    /// clicks from the start.
    pub fn depth_histogram(&self) -> Vec<usize> {
        let mut histogram = vec![0; self.max_depth() + 1];
        for page in &self.pages {
            histogram[page.depth] += 1;
        }
        if self.pages.is_empty() {
            histogram.clear();
        }
        histogram
    }
}

/// The poacher analog.
#[derive(Debug, Clone)]
pub struct Robot {
    options: RobotOptions,
}

impl Robot {
    /// A robot with the given options.
    pub fn new(options: RobotOptions) -> Robot {
        Robot { options }
    }

    /// Crawl breadth-first from `start`, staying on `start`'s host.
    pub fn crawl(&self, fetcher: &dyn Fetcher, start: &Url) -> RobotReport {
        self.crawl_impl(fetcher, start, None)
    }

    /// [`Robot::crawl`], with page linting handed to a [`LintService`] so
    /// the crawl (fetching, link extraction, HEAD validation) overlaps
    /// with linting. The report is identical to the sequential one: pages
    /// stay in crawl order and each page's diagnostics are collected from
    /// its service handle at the end.
    pub fn crawl_with(
        &self,
        fetcher: &dyn Fetcher,
        start: &Url,
        service: &LintService,
    ) -> RobotReport {
        self.crawl_impl(fetcher, start, Some(service))
    }

    /// [`Robot::crawl`] over a composed [`FetchStack`], with the
    /// adaptive scheduler engaged: each round issues a *batch* of
    /// frontier URLs — at most `min(jobs, per-host AIMD limit)` — to
    /// parallel fetch workers, then settles the results in issue order,
    /// so the report (and every stats table) is byte-identical run to
    /// run for a fixed stack seed. With `jobs = 1` the batches degrade
    /// to the exact sequential crawl.
    pub fn crawl_stack<F: Fetcher + Sync>(
        &self,
        stack: &FetchStack<F>,
        start: &Url,
    ) -> RobotReport {
        self.crawl_stack_impl(stack, start, None)
    }

    /// [`Robot::crawl_stack`] with page linting handed to a
    /// [`LintService`], overlapping fetching with linting.
    pub fn crawl_stack_with<F: Fetcher + Sync>(
        &self,
        stack: &FetchStack<F>,
        start: &Url,
        service: &LintService,
    ) -> RobotReport {
        self.crawl_stack_impl(stack, start, Some(service))
    }

    /// The sequential frontier: batch size 1, no pacing — byte-identical
    /// to the historical fetch-then-lint loop.
    fn crawl_impl(
        &self,
        fetcher: &dyn Fetcher,
        start: &Url,
        service: Option<&LintService>,
    ) -> RobotReport {
        let mut state = CrawlState::begin(start);
        // Without a service, pages lint as their bytes arrive off the
        // transport (one session, reused page to page); with one, whole
        // bodies still go to the worker pool.
        let mut session = service
            .is_none()
            .then(|| LintSession::with_config(self.options.lint.clone()));
        while let Some((url, depth)) = state.queue.pop_front() {
            if state.report.pages.len() >= self.options.max_pages {
                state.report.truncated = true;
                break;
            }
            let (outcome, redirects) = match session.as_mut() {
                Some(session) => {
                    follow_redirects_streaming(self.options.max_redirects, &url, fetcher, session)
                }
                None => follow_redirects(self.options.max_redirects, &url, |u| fetcher.get(u)),
            };
            self.apply_outcome(
                &FetcherProbe(fetcher),
                start,
                &url,
                depth,
                outcome,
                redirects,
                service,
                &mut state,
            );
        }
        state.finish()
    }

    /// The adaptive frontier scheduler. Determinism contract: every
    /// order-sensitive decision happens on this thread — hedge tokens
    /// are authorized at issue time against a snapshot of the breaker
    /// and budget, workers only read frozen state and run retry loops
    /// whose fault schedule depends solely on `(seed, url, attempt)`,
    /// and all breaker transitions plus AIMD feedback are settled here
    /// in issue order after the batch joins.
    fn crawl_stack_impl<F: Fetcher + Sync>(
        &self,
        stack: &FetchStack<F>,
        start: &Url,
        service: Option<&LintService>,
    ) -> RobotReport {
        let mut state = CrawlState::begin(start);
        let host = start.host.clone();
        loop {
            if state.queue.is_empty() {
                break;
            }
            if state.report.pages.len() >= self.options.max_pages {
                state.report.truncated = true;
                break;
            }
            // The batch never exceeds the page budget, so a fully
            // successful batch cannot overshoot `max_pages`.
            let remaining = self.options.max_pages - state.report.pages.len();
            let width = self
                .options
                .jobs
                .min(stack.pacer().limit(&host))
                .min(remaining)
                .min(state.queue.len())
                .max(1);
            let mut batch: Vec<FetchTask> = Vec::with_capacity(width);
            for _ in 0..width {
                let (url, depth) = state.queue.pop_front().expect("width <= queue.len()");
                let token = stack
                    .pacer()
                    .authorize(&url.host, stack.breaker_state(&url.host));
                batch.push(FetchTask::new(url, depth, token));
            }
            // Without a service, fetch workers lint their page before
            // the batch joins; the service path keeps pool submission.
            let lint = service.is_none().then_some(&self.options.lint);
            run_batch(self.options.max_redirects, stack, lint, &mut batch);
            for task in batch {
                self.settle_task(stack, start, task, service, &mut state);
            }
        }
        state.finish()
    }

    /// Settle one fetched task in issue order: resilience bookkeeping,
    /// pacer feedback, then the same report/lint/link processing the
    /// sequential crawl does.
    fn settle_task<F: Fetcher>(
        &self,
        stack: &FetchStack<F>,
        start: &Url,
        task: FetchTask,
        service: Option<&LintService>,
        state: &mut CrawlState,
    ) {
        for (hop_host, record) in &task.hops {
            stack.settle_hop(hop_host, record);
        }
        let host = task.url.host.as_str();
        stack
            .pacer()
            .settle_hedge(host, task.token, task.hedge_fired, task.hedge_won);
        stack.pacer().observe(
            host,
            Observation {
                clean: !task.bad,
                bad: task.bad,
                latency_us: task.cost_us,
            },
        );
        let (outcome, redirects) = task.outcome.expect("batch ran every task");
        self.apply_outcome(
            &StackProbe(stack),
            start,
            &task.url,
            task.depth,
            outcome,
            redirects,
            service,
            state,
        );
    }

    /// Fold one fetch outcome into the report: redirects, dead links,
    /// and — for a page — lint submission plus link validation.
    #[allow(clippy::too_many_arguments)]
    fn apply_outcome(
        &self,
        probe: &dyn HeadProbe,
        start: &Url,
        origin: &Url,
        depth: usize,
        outcome: FetchOutcome,
        redirects: usize,
        service: Option<&LintService>,
        state: &mut CrawlState,
    ) {
        state.report.redirects_followed += redirects;
        match outcome {
            FetchOutcome::Skip => {}
            FetchOutcome::Dead { href, reason } => state.report.dead_links.push(DeadLink {
                page: origin.clone(),
                href,
                reason,
            }),
            FetchOutcome::Page {
                url: final_url,
                body,
                diagnostics,
            } => {
                let diagnostics = match (diagnostics, service) {
                    // Already linted while the body streamed in.
                    (Some(diags), _) => diags,
                    // With a service attached, hand the body to a worker
                    // and keep crawling; the diagnostics slot is filled
                    // in afterwards.
                    (None, Some(service)) => {
                        match service.submit_with(body.clone(), Some(self.options.lint.clone())) {
                            Ok(handle) => {
                                state.pending.push((state.report.pages.len(), handle));
                                Vec::new()
                            }
                            Err(_) => LintSession::with_config(self.options.lint.clone())
                                .check_string(&body),
                        }
                    }
                    (None, None) => {
                        unreachable!("without a service, pages are linted during their fetch")
                    }
                };
                let links = extract_links(&body);
                state.report.pages.push(CrawledPage {
                    url: final_url.clone(),
                    diagnostics,
                    link_count: links.len(),
                    depth,
                });
                self.validate_links(probe, start, &final_url, links, depth, state);
            }
        }
    }

    /// HEAD-validate a page's links, enqueueing crawlable same-site
    /// targets (depth permitting) and reporting the dead.
    fn validate_links(
        &self,
        probe: &dyn HeadProbe,
        start: &Url,
        final_url: &Url,
        links: Vec<Link>,
        depth: usize,
        state: &mut CrawlState,
    ) {
        let within_depth = self.options.max_depth.is_none_or(|limit| depth < limit);
        for link in links {
            match link.kind {
                LinkKind::Fragment | LinkKind::Mailto => continue,
                LinkKind::Local | LinkKind::External => {}
            }
            let target = final_url.join(&link.href);
            if target.same_site(start) {
                if state.enqueued.insert(target.to_string()) {
                    // Cheap HEAD before committing to a GET: dead links
                    // are reported here, non-HTML is HEAD-only.
                    match probe.probe(&target) {
                        (Status::Ok, ct) if ct.starts_with("text/html") => {
                            if within_depth {
                                state.queue.push_back((target, depth + 1));
                            }
                        }
                        (Status::Ok, _) => {}
                        (Status::Redirect(_), _) => {
                            if within_depth {
                                state.queue.push_back((target, depth + 1));
                            }
                        }
                        (Status::NotFound, _) => state.report.dead_links.push(DeadLink {
                            page: final_url.clone(),
                            href: link.href.clone(),
                            reason: "404 Not Found".to_string(),
                        }),
                        (Status::ServerError, _) => state.report.dead_links.push(DeadLink {
                            page: final_url.clone(),
                            href: link.href.clone(),
                            reason: "server error".to_string(),
                        }),
                        (Status::TimedOut, _) => state.report.dead_links.push(DeadLink {
                            page: final_url.clone(),
                            href: link.href.clone(),
                            reason: "timed out".to_string(),
                        }),
                        (Status::Reset, _) => state.report.dead_links.push(DeadLink {
                            page: final_url.clone(),
                            href: link.href.clone(),
                            reason: "connection reset".to_string(),
                        }),
                    }
                }
            } else if self.options.check_external && state.head_checked.insert(target.to_string()) {
                match probe.probe(&target) {
                    (Status::NotFound, _) => state.report.dead_links.push(DeadLink {
                        page: final_url.clone(),
                        href: link.href.clone(),
                        reason: "404 Not Found (external)".to_string(),
                    }),
                    (Status::ServerError, _) => state.report.dead_links.push(DeadLink {
                        page: final_url.clone(),
                        href: link.href.clone(),
                        reason: "server error (external)".to_string(),
                    }),
                    (Status::TimedOut, _) => state.report.dead_links.push(DeadLink {
                        page: final_url.clone(),
                        href: link.href.clone(),
                        reason: "timed out (external)".to_string(),
                    }),
                    (Status::Reset, _) => state.report.dead_links.push(DeadLink {
                        page: final_url.clone(),
                        href: link.href.clone(),
                        reason: "connection reset (external)".to_string(),
                    }),
                    _ => {}
                }
            }
        }
    }
}

/// Mutable crawl bookkeeping shared by the sequential and adaptive
/// frontiers.
struct CrawlState {
    report: RobotReport,
    pending: Vec<(usize, JobHandle)>,
    queue: VecDeque<(Url, usize)>,
    enqueued: HashSet<String>,
    head_checked: HashSet<String>,
}

impl CrawlState {
    fn begin(start: &Url) -> CrawlState {
        let mut state = CrawlState {
            report: RobotReport::default(),
            pending: Vec::new(),
            queue: VecDeque::new(),
            enqueued: HashSet::new(),
            head_checked: HashSet::new(),
        };
        state.queue.push_back((start.clone(), 0));
        state.enqueued.insert(start.to_string());
        state
    }

    fn finish(mut self) -> RobotReport {
        for (index, handle) in self.pending {
            self.report.pages[index].diagnostics = handle.wait().unwrap_or_default();
        }
        self.report
    }
}

/// What following one queued URL produced, before any report
/// bookkeeping — so fetch workers can compute it off-thread and the
/// scheduler can apply it in issue order.
enum FetchOutcome {
    /// An HTML page at its post-redirect URL. `diagnostics` is filled
    /// when the fetch path already linted the body as it arrived (the
    /// streaming crawl and the fetch workers); `None` leaves linting to
    /// the settle side (service submission, or the fallback one-shot).
    Page {
        url: Url,
        body: String,
        diagnostics: Option<Vec<Diagnostic>>,
    },
    /// The chain ended somewhere dead; `href` is the final URL tried.
    Dead { href: String, reason: String },
    /// A definitive non-HTML answer: nothing to lint, nothing dead.
    Skip,
}

/// GET `url` following redirects up to the hop limit, classifying the
/// result. Returns the outcome plus the redirect hops taken.
fn follow_redirects(
    max_redirects: usize,
    url: &Url,
    mut get: impl FnMut(&Url) -> (Status, String, String),
) -> (FetchOutcome, usize) {
    let mut redirects = 0usize;
    let mut current = url.clone();
    for _ in 0..=max_redirects {
        match get(&current) {
            (Status::Ok, ct, body) if ct.starts_with("text/html") => {
                return (
                    FetchOutcome::Page {
                        url: current,
                        body,
                        diagnostics: None,
                    },
                    redirects,
                );
            }
            (Status::Ok, _, _) => return (FetchOutcome::Skip, redirects),
            (Status::Redirect(location), _, _) => {
                redirects += 1;
                current = current.join(&location);
            }
            (Status::NotFound, _, _) => {
                return (
                    FetchOutcome::Dead {
                        href: current.to_string(),
                        reason: "404 Not Found".to_string(),
                    },
                    redirects,
                )
            }
            (Status::ServerError, _, _) => {
                return (
                    FetchOutcome::Dead {
                        href: current.to_string(),
                        reason: "server error".to_string(),
                    },
                    redirects,
                )
            }
            (Status::TimedOut, _, _) => {
                return (
                    FetchOutcome::Dead {
                        href: current.to_string(),
                        reason: "timed out".to_string(),
                    },
                    redirects,
                )
            }
            (Status::Reset, _, _) => {
                return (
                    FetchOutcome::Dead {
                        href: current.to_string(),
                        reason: "connection reset".to_string(),
                    },
                    redirects,
                )
            }
        }
    }
    (
        FetchOutcome::Dead {
            href: current.to_string(),
            reason: "too many redirects".to_string(),
        },
        redirects,
    )
}

/// [`follow_redirects`], but each hop's body streams through `session`
/// as the transport delivers it, so the final page's lint finishes with
/// its fetch. A hop that turns out to be a redirect or a non-HTML answer
/// discards its partial stream.
fn follow_redirects_streaming(
    max_redirects: usize,
    url: &Url,
    fetcher: &dyn Fetcher,
    session: &mut LintSession,
) -> (FetchOutcome, usize) {
    let mut hop_diags: Vec<Diagnostic> = Vec::new();
    let (mut outcome, redirects) = follow_redirects(max_redirects, url, |current| {
        session.abort();
        hop_diags.clear();
        let mut body = Vec::new();
        let (status, content_type) = fetcher.get_streamed(current, &mut |chunk| {
            hop_diags.extend(session.feed(chunk));
            body.extend_from_slice(chunk);
        });
        (
            status,
            content_type,
            String::from_utf8_lossy(&body).into_owned(),
        )
    });
    match &mut outcome {
        FetchOutcome::Page { diagnostics, .. } => {
            hop_diags.extend(session.finish());
            *diagnostics = Some(std::mem::take(&mut hop_diags));
        }
        _ => session.abort(),
    }
    (outcome, redirects)
}

/// One frontier URL issued to a fetch worker, with everything the
/// scheduler needs to settle it afterwards.
struct FetchTask {
    url: Url,
    depth: usize,
    token: HedgeToken,
    outcome: Option<(FetchOutcome, usize)>,
    /// Per-hop resilience records, settled in issue order.
    hops: Vec<(String, HopRecord)>,
    /// Total virtual latency across hops (including a fired hedge).
    cost_us: u64,
    /// The task burned retries, was shed, or ended transiently failed.
    bad: bool,
    hedge_fired: bool,
    hedge_won: bool,
}

impl FetchTask {
    fn new(url: Url, depth: usize, token: HedgeToken) -> FetchTask {
        FetchTask {
            url,
            depth,
            token,
            outcome: None,
            hops: Vec::new(),
            cost_us: 0,
            bad: false,
            hedge_fired: false,
            hedge_won: false,
        }
    }
}

/// Run a batch of fetch tasks — inline when it is one task, otherwise
/// one scoped worker thread per task (the batch width is already capped
/// by `jobs` and the per-host limit).
fn run_batch<F: Fetcher + Sync>(
    max_redirects: usize,
    stack: &FetchStack<F>,
    lint: Option<&LintConfig>,
    batch: &mut [FetchTask],
) {
    if let [task] = batch {
        run_task(max_redirects, stack, lint, task);
        return;
    }
    std::thread::scope(|scope| {
        for task in batch.iter_mut() {
            scope.spawn(move || run_task(max_redirects, stack, lint, task));
        }
    });
}

/// Execute one fetch task on a worker: follow redirects through the
/// stack, recording per-hop resilience outcomes for deferred settling,
/// and fire the hedge if the token allows and the primary attempt came
/// back transiently failed *and* slow.
fn run_task<F: Fetcher>(
    max_redirects: usize,
    stack: &FetchStack<F>,
    lint: Option<&LintConfig>,
    task: &mut FetchTask,
) {
    let token = task.token;
    let mut hops: Vec<(String, HopRecord)> = Vec::new();
    let mut cost_us = 0u64;
    let mut bad = false;
    let mut fired = false;
    let mut won = false;
    let (outcome, redirects) = follow_redirects(max_redirects, &task.url, |current| {
        if !stack.frozen_allows(&current.host) {
            hops.push((current.host.clone(), HopRecord::Shed));
            bad = true;
            return (Status::ServerError, String::new(), String::new());
        }
        let (result, cost) = stack.attempt_get(current);
        cost_us += cost.virtual_us();
        let failed = transient(&result.0);
        if failed || cost.retries > 0 {
            bad = true;
        }
        if failed && token.granted && !fired && cost.virtual_us() >= token.threshold_us {
            // The primary is both failed and slow: spend the hedge — one
            // speculative attempt below the retry layer — and take its
            // answer if it is definitive.
            fired = true;
            cost_us += VIRTUAL_RTT_US;
            let hedge = stack.raw_get(current);
            if !transient(&hedge.0) {
                won = true;
                hops.push((
                    current.host.clone(),
                    HopRecord::Done {
                        failed: false,
                        retries: cost.retries,
                    },
                ));
                return hedge;
            }
        }
        hops.push((
            current.host.clone(),
            HopRecord::Done {
                failed,
                retries: cost.retries,
            },
        ));
        result
    });
    let mut outcome = outcome;
    if let (
        Some(config),
        FetchOutcome::Page {
            body, diagnostics, ..
        },
    ) = (lint, &mut outcome)
    {
        // Lint on the fetch worker, overlapping the rest of the batch:
        // the settle loop then just copies the result into the report.
        let mut session = LintSession::with_config(config.clone());
        let mut diags: Vec<Diagnostic> = Vec::new();
        for chunk in body.as_bytes().chunks(FETCH_CHUNK) {
            diags.extend(session.feed(chunk));
        }
        diags.extend(session.finish());
        *diagnostics = Some(diags);
    }
    task.outcome = Some((outcome, redirects));
    task.hops = hops;
    task.cost_us = cost_us;
    task.bad = bad;
    task.hedge_fired = fired;
    task.hedge_won = won;
}

/// HEAD transport used during link validation: the bare fetcher for the
/// sequential crawl, or the stack — guarded drive plus a pacing
/// observation — for the adaptive one.
trait HeadProbe {
    fn probe(&self, url: &Url) -> (Status, String);
}

struct FetcherProbe<'a>(&'a dyn Fetcher);

impl HeadProbe for FetcherProbe<'_> {
    fn probe(&self, url: &Url) -> (Status, String) {
        self.0.head(url)
    }
}

struct StackProbe<'a, F: Fetcher>(&'a FetchStack<F>);

impl<F: Fetcher> HeadProbe for StackProbe<'_, F> {
    fn probe(&self, url: &Url) -> (Status, String) {
        let (result, cost) = self.0.head_cost(url);
        let bad = cost.shed || cost.retries > 0 || transient(&result.0);
        self.0.pacer().observe(
            &url.host,
            Observation {
                clean: !bad,
                bad,
                latency_us: cost.virtual_us(),
            },
        );
        result
    }
}

impl Default for Robot {
    fn default() -> Robot {
        Robot::new(RobotOptions::default())
    }
}

/// Why a URL could not be checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchError {
    /// The URL did not parse.
    BadUrl(String),
    /// 404.
    NotFound(String),
    /// 5xx.
    ServerError(String),
    /// Content type is not HTML.
    NotHtml(String),
    /// Redirect chain exceeded the hop limit.
    TooManyRedirects(String),
    /// The host timed out or reset the connection (transient transport
    /// failure, possibly after retries).
    Unreachable(String),
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::BadUrl(u) => write!(f, "cannot parse URL {u}"),
            FetchError::NotFound(u) => write!(f, "{u}: 404 Not Found"),
            FetchError::ServerError(u) => write!(f, "{u}: server error"),
            FetchError::NotHtml(u) => write!(f, "{u} is not an HTML page"),
            FetchError::TooManyRedirects(u) => write!(f, "{u}: too many redirects"),
            FetchError::Unreachable(u) => write!(f, "{u}: host unreachable"),
        }
    }
}

impl std::error::Error for FetchError {}

/// Fetch one URL (following up to five redirects) and lint it — the
/// paper's `check_url` method (§5.4): "The latter requires the LWP
/// modules… If you don't have LWP installed, you can still use weblint,
/// but the check_url method won't be available." Here the transport is a
/// [`Fetcher`] rather than LWP.
///
/// # Examples
///
/// ```
/// use weblint_site::{check_url, SimulatedWeb, WebFetcher};
/// use weblint_core::LintConfig;
///
/// let mut web = SimulatedWeb::new();
/// web.add_page("http://h/p.html", "<H1>x</H2>");
/// let diags = check_url(
///     &WebFetcher::new(&web),
///     "http://h/p.html",
///     &LintConfig::default(),
/// ).unwrap();
/// assert!(diags.iter().any(|d| d.id == "heading-mismatch"));
/// ```
pub fn check_url(
    fetcher: &dyn Fetcher,
    url: &str,
    config: &LintConfig,
) -> Result<Vec<Diagnostic>, FetchError> {
    let parsed = Url::parse(url).ok_or_else(|| FetchError::BadUrl(url.to_string()))?;
    let mut current = parsed;
    // Lint while the body arrives: each hop's bytes stream into the
    // session as the transport delivers them, so the final hop's
    // diagnostics are ready the moment the fetch completes.
    let mut session = LintSession::with_config(config.clone());
    for _ in 0..=5 {
        let mut diags: Vec<Diagnostic> = Vec::new();
        let (status, ct) =
            fetcher.get_streamed(&current, &mut |chunk| diags.extend(session.feed(chunk)));
        match status {
            Status::Ok if ct.starts_with("text/html") => {
                diags.extend(session.finish());
                return Ok(diags);
            }
            Status::Ok => return Err(FetchError::NotHtml(current.to_string())),
            Status::Redirect(location) => {
                session.abort();
                current = current.join(&location);
            }
            Status::NotFound => return Err(FetchError::NotFound(current.to_string())),
            Status::ServerError => return Err(FetchError::ServerError(current.to_string())),
            Status::TimedOut | Status::Reset => {
                return Err(FetchError::Unreachable(current.to_string()))
            }
        }
    }
    Err(FetchError::TooManyRedirects(current.to_string()))
}

// ---------------------------------------------------------------------
// Sharded, checkpointed crawling
// ---------------------------------------------------------------------

/// Durability knobs for [`Robot::crawl_sharded`].
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding `shard{N}.{epoch}.ckpt` files and the manifest.
    pub dir: PathBuf,
    /// Write a checkpoint whenever this many new pages have been
    /// crawled since the last one (plus always on graceful stop).
    pub every_pages: usize,
    /// Opaque token folded into the checkpoint fingerprint; callers put
    /// anything schedule-relevant that the robot cannot see here (fault
    /// spec, stack configuration, lint config).
    pub config_token: String,
}

/// Chaos injection for the sharded crawl, exercised by `tests/chaos.rs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardChaos {
    /// Panic shard `.0` midway through wave `.1` — once; the coordinator
    /// must detect the death, respawn the shard from its pre-wave state,
    /// and finish with a byte-identical report.
    pub panic_shard: Option<(usize, usize)>,
    /// Abort the crawl (no final checkpoint flush — a simulated
    /// `SIGKILL`) right after the Nth periodic checkpoint is written.
    pub kill_after_checkpoints: Option<usize>,
}

/// Options for [`Robot::crawl_sharded`].
#[derive(Debug, Clone, Default)]
pub struct ShardedOptions {
    /// Number of shards to partition hosts across (clamped to 1..=64).
    pub shards: usize,
    /// Seed recorded in checkpoints; fold the same seed into the stacks
    /// `make_stack` builds.
    pub seed: u64,
    /// Durability: where and how often to checkpoint. `None` crawls
    /// in-memory only.
    pub checkpoint: Option<CheckpointConfig>,
    /// Resume from `checkpoint.dir` if it holds a valid checkpoint.
    pub resume: bool,
    /// Cooperative stop flag, checked between waves: when it goes true
    /// the crawl flushes a final checkpoint and returns `Paused`.
    pub stop: Option<Arc<AtomicBool>>,
    /// Fault injection for the chaos suite.
    pub chaos: ShardChaos,
}

/// How a sharded crawl ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardedOutcome {
    /// The frontier drained: every reachable page within budget and
    /// depth was crawled.
    Complete,
    /// Stopped early — page budget exhausted or the stop flag was
    /// raised — with the frontier checkpointed for resumption.
    Paused,
    /// Chaos killed the process mid-crawl (no final flush).
    Killed,
}

/// What [`Robot::crawl_sharded`] produced.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// The merged report: pages sorted by `(depth, url)`, dead links by
    /// `(page, href, reason)` — a canonical order independent of shard
    /// timing.
    pub report: RobotReport,
    /// Per-shard stack telemetry, in shard order.
    pub telemetry: Vec<(usize, StackTelemetry)>,
    /// Shard count the crawl ran with.
    pub shards: usize,
    /// Waves executed (including waves replayed from a checkpoint).
    pub waves: usize,
    /// Shard threads that died and were respawned.
    pub shard_deaths: usize,
    /// The wave a resumed crawl picked up from, if it resumed.
    pub resumed_from_wave: Option<usize>,
    /// How the crawl ended.
    pub outcome: ShardedOutcome,
}

/// Coordinator-side working state for one shard.
#[derive(Default)]
struct ShardWork {
    frontier: ShardFrontier,
    probes: ShardFrontier,
    pages: Vec<CrawledPage>,
    dead_links: Vec<DeadLink>,
    redirects: u64,
    stack: StackState,
}

impl ShardWork {
    fn restore(state: ShardState) -> ShardWork {
        ShardWork {
            frontier: ShardFrontier::restore(state.visited, state.frontier),
            probes: ShardFrontier::restore(state.head_checked, state.probes),
            pages: state.pages,
            dead_links: state.dead_links,
            redirects: state.redirects,
            stack: state.stack,
        }
    }

    fn snapshot(&self, shard: usize) -> ShardState {
        ShardState {
            shard,
            visited: self.frontier.visited(),
            frontier: self.frontier.pending_candidates(),
            probes: self.probes.pending_candidates(),
            head_checked: self.probes.visited(),
            pages: self.pages.clone(),
            dead_links: self.dead_links.clone(),
            redirects: self.redirects,
            stack: self.stack.clone(),
        }
    }
}

/// One shard's work for one wave, extracted by the coordinator.
struct WaveAssignment {
    /// Crawl candidates, sorted by `(depth, url)`.
    candidates: Vec<Candidate>,
    /// Link-validation probes (HEAD only), sorted by `(depth, url)`.
    probes: Vec<Candidate>,
    /// Chaos: panic midway through this wave.
    inject_panic: bool,
}

impl WaveAssignment {
    fn is_empty(&self) -> bool {
        self.candidates.is_empty() && self.probes.is_empty()
    }
}

/// What one shard produced in one wave, sent back over the reply
/// channel and merged by the coordinator in shard order.
#[derive(Default)]
struct WaveDelta {
    pages: Vec<CrawledPage>,
    dead_links: Vec<DeadLink>,
    /// Federation links to crawl next wave (routed to their owner
    /// shard's frontier).
    discovered: Vec<Candidate>,
    /// Links to HEAD-validate but never crawl: external targets and
    /// same-site links past the depth bound.
    probe_requests: Vec<Candidate>,
    redirects: u64,
    stack: StackState,
}

/// Where a dead candidate is attributed: the page it was discovered on,
/// or itself when it is a seed.
fn attribution(candidate: &Candidate) -> (Url, String) {
    if candidate.via.is_empty() {
        (candidate.url.clone(), candidate.url.to_string())
    } else {
        (
            Url::parse(&candidate.via).unwrap_or_else(|| candidate.url.clone()),
            candidate.href.clone(),
        )
    }
}

/// The dead-link reason for a probe answer, `None` when the target is
/// alive (or redirecting — good enough for a HEAD check).
fn dead_reason(status: &Status, external: bool) -> Option<String> {
    let base = match status {
        Status::NotFound => "404 Not Found",
        Status::ServerError => "server error",
        Status::TimedOut => "timed out",
        Status::Reset => "connection reset",
        Status::Ok | Status::Redirect(_) => return None,
    };
    Some(if external {
        format!("{base} (external)")
    } else {
        base.to_string()
    })
}

/// Run one shard's wave on its own thread: HEAD-validate probes,
/// classify candidates, then GET + lint pages in bounded batches with
/// the same issue-order settling discipline as [`Robot::crawl_stack`].
/// Everything order-sensitive happens in `(depth, url)` order, so the
/// delta is a pure function of (assignment, restored stack state).
fn run_shard_wave<F: Fetcher + Sync>(
    options: &RobotOptions,
    federation: &BTreeSet<String>,
    stack: &FetchStack<F>,
    assignment: &WaveAssignment,
) -> WaveDelta {
    let mut delta = WaveDelta::default();
    let probe = StackProbe(stack);
    for request in &assignment.probes {
        let (status, _) = probe.probe(&request.url);
        let external = !federation.contains(&request.url.host);
        if let Some(reason) = dead_reason(&status, external) {
            let (page, href) = attribution(request);
            delta.dead_links.push(DeadLink { page, href, reason });
        }
    }
    // HEAD-classify candidates: pages and redirects go on to the GET
    // phase, assets are done, the dead are reported.
    let mut gets: Vec<&Candidate> = Vec::new();
    for candidate in &assignment.candidates {
        match probe.probe(&candidate.url) {
            (Status::Ok, ct) if ct.starts_with("text/html") => gets.push(candidate),
            (Status::Ok, _) => {}
            (Status::Redirect(_), _) => gets.push(candidate),
            (status, _) => {
                if let Some(reason) = dead_reason(&status, false) {
                    let (page, href) = attribution(candidate);
                    delta.dead_links.push(DeadLink { page, href, reason });
                }
            }
        }
    }
    if assignment.inject_panic && gets.is_empty() {
        panic!("injected shard death");
    }
    // GET in batches: take candidates from the front (never reorder)
    // while each host stays under its frozen AIMD limit and the batch
    // under `jobs`; settle in issue order.
    let mut index = 0usize;
    let mut first_batch = true;
    while index < gets.len() {
        let batch_start = index;
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        let mut batch: Vec<FetchTask> = Vec::new();
        while index < gets.len() && batch.len() < options.jobs {
            let host = gets[index].url.host.as_str();
            let limit = stack.pacer().limit(host).max(1);
            let seen = counts.get(host).copied().unwrap_or(0);
            if !batch.is_empty() && seen >= limit {
                break;
            }
            *counts.entry(host).or_insert(0) += 1;
            let url = gets[index].url.clone();
            let token = stack
                .pacer()
                .authorize(&url.host, stack.breaker_state(&url.host));
            batch.push(FetchTask::new(url, gets[index].depth, token));
            index += 1;
        }
        run_batch(
            options.max_redirects,
            stack,
            Some(&options.lint),
            &mut batch,
        );
        for (offset, task) in batch.into_iter().enumerate() {
            settle_sharded_task(
                options,
                federation,
                stack,
                gets[batch_start + offset],
                task,
                &mut delta,
            );
        }
        if assignment.inject_panic && first_batch {
            // Mid-wave: some of this wave's work is settled, the rest is
            // in flight. The coordinator must rerun the whole wave from
            // the pre-wave snapshot.
            panic!("injected shard death");
        }
        first_batch = false;
    }
    delta.stack = stack.export_state();
    delta
}

/// Settle one sharded GET in issue order: resilience + pacer feedback,
/// then lint, then route the page's links.
fn settle_sharded_task<F: Fetcher>(
    options: &RobotOptions,
    federation: &BTreeSet<String>,
    stack: &FetchStack<F>,
    candidate: &Candidate,
    task: FetchTask,
    delta: &mut WaveDelta,
) {
    for (hop_host, record) in &task.hops {
        stack.settle_hop(hop_host, record);
    }
    let host = task.url.host.as_str();
    stack
        .pacer()
        .settle_hedge(host, task.token, task.hedge_fired, task.hedge_won);
    stack.pacer().observe(
        host,
        Observation {
            clean: !task.bad,
            bad: task.bad,
            latency_us: task.cost_us,
        },
    );
    let (outcome, redirects) = task.outcome.expect("batch ran every task");
    delta.redirects += redirects as u64;
    match outcome {
        FetchOutcome::Skip => {}
        FetchOutcome::Dead { href, reason } => delta.dead_links.push(DeadLink {
            page: task.url.clone(),
            href,
            reason,
        }),
        FetchOutcome::Page {
            url: final_url,
            body,
            diagnostics,
        } => {
            let diagnostics = diagnostics.expect("run_batch lints every page it fetches");
            let links = extract_links(&body);
            delta.pages.push(CrawledPage {
                url: final_url.clone(),
                diagnostics,
                link_count: links.len(),
                depth: candidate.depth,
            });
            let within_depth = options
                .max_depth
                .is_none_or(|limit| candidate.depth < limit);
            for link in links {
                match link.kind {
                    LinkKind::Fragment | LinkKind::Mailto => continue,
                    LinkKind::Local | LinkKind::External => {}
                }
                let target = final_url.join(&link.href);
                let next = Candidate {
                    url: target,
                    depth: candidate.depth + 1,
                    via: final_url.to_string(),
                    href: link.href.clone(),
                };
                if federation.contains(&next.url.host) {
                    if within_depth {
                        delta.discovered.push(next);
                    } else {
                        // Past the depth bound: validated, not crawled.
                        delta.probe_requests.push(next);
                    }
                } else if options.check_external {
                    delta.probe_requests.push(next);
                }
            }
        }
    }
}

impl Robot {
    /// Crawl `starts` partitioned across `opts.shards` shard threads,
    /// each owning the hosts that hash to it ([`shard_of`]) and running
    /// its own [`FetchStack`] built by `make_stack(shard)`.
    ///
    /// The crawl proceeds in coordinator-barriered *waves* (see
    /// [`crate::ShardFrontier`]); discovered links cross shards through
    /// the coordinator, and the merged report uses a canonical
    /// `(depth, url)` order — so for a fixed seed the output is
    /// byte-identical run to run, across shard deaths, and across a
    /// kill + resume, which the chaos suite asserts.
    ///
    /// With `opts.checkpoint` set, every shard's full state (visited
    /// set, pending frontier, probe queue, pages, per-host stack state)
    /// is written to a per-shard checkpoint file every
    /// `every_pages` pages and on graceful stop; `opts.resume` picks an
    /// interrupted crawl back up from the newest intact epoch.
    pub fn crawl_sharded<F, M>(
        &self,
        starts: &[Url],
        make_stack: M,
        opts: &ShardedOptions,
    ) -> Result<ShardedReport, CheckpointError>
    where
        F: Fetcher + Sync,
        M: Fn(usize) -> FetchStack<F> + Sync,
    {
        let shards = opts.shards.clamp(1, 64);
        let federation: BTreeSet<String> = starts.iter().map(|u| u.host.clone()).collect();
        let fingerprint = {
            let mut parts: Vec<String> = vec![
                format!("shards={shards}"),
                format!("seed={}", opts.seed),
                format!("redirects={}", self.options.max_redirects),
                format!("depth={:?}", self.options.max_depth),
                format!("jobs={}", self.options.jobs),
                format!("external={}", self.options.check_external),
                opts.checkpoint
                    .as_ref()
                    .map(|c| c.config_token.clone())
                    .unwrap_or_default(),
            ];
            let mut sorted_starts: Vec<String> = starts.iter().map(|u| u.to_string()).collect();
            sorted_starts.sort();
            parts.extend(sorted_starts);
            let refs: Vec<&str> = parts.iter().map(|s| s.as_str()).collect();
            checkpoint::fingerprint(&refs)
        };

        let mut work: Vec<ShardWork> = (0..shards).map(|_| ShardWork::default()).collect();
        let mut wave = 0usize;
        let mut resumed_from_wave = None;
        let mut resumed_complete = false;
        let mut truncated = false;
        if opts.resume {
            if let Some(cfg) = &opts.checkpoint {
                if let Some(loaded) = load_checkpoint(&cfg.dir)? {
                    if loaded.meta.fingerprint != fingerprint {
                        return Err(CheckpointError::Incompatible(format!(
                            "checkpoint in {} was written by a different crawl configuration",
                            cfg.dir.display()
                        )));
                    }
                    wave = loaded.meta.wave;
                    truncated = loaded.meta.truncated;
                    resumed_complete = loaded.meta.complete;
                    resumed_from_wave = Some(wave);
                    for state in loaded.shards {
                        let shard = state.shard;
                        work[shard] = ShardWork::restore(state);
                    }
                }
            }
        }
        if resumed_from_wave.is_none() {
            for start in starts {
                let candidate = Candidate::seed(start.clone());
                let owner = shard_of(&candidate.url.host, shards);
                work[owner].frontier.admit(candidate);
            }
        }

        let mut shard_deaths = 0usize;
        let mut checkpoints_written = 0usize;
        let mut chaos_panic = opts.chaos.panic_shard;
        let mut last_checkpoint_pages: usize = work.iter().map(|w| w.pages.len()).sum();
        let mut outcome = ShardedOutcome::Complete;
        let mut killed = false;

        loop {
            if resumed_complete {
                break;
            }
            if opts
                .stop
                .as_ref()
                .is_some_and(|flag| flag.load(Ordering::SeqCst))
            {
                outcome = ShardedOutcome::Paused;
                break;
            }
            let pages_total: usize = work.iter().map(|w| w.pages.len()).sum();
            let pending_pages: usize = work.iter().map(|w| w.frontier.pending()).sum();
            let pending_probes: usize = work.iter().map(|w| w.probes.pending()).sum();
            if pending_pages == 0 && pending_probes == 0 {
                outcome = ShardedOutcome::Complete;
                break;
            }
            let remaining = self.options.max_pages.saturating_sub(pages_total);
            if remaining == 0 && pending_probes == 0 {
                truncated = true;
                outcome = ShardedOutcome::Paused;
                break;
            }

            // Global budget cut: the first `remaining` pending
            // candidates in (depth, url) order run this wave; the rest
            // stay in their frontiers (and survive a pause).
            let mut keys: Vec<(usize, String, usize)> = Vec::new();
            for (i, w) in work.iter().enumerate() {
                for (depth, url) in w.frontier.pending_keys() {
                    keys.push((depth, url.to_string(), i));
                }
            }
            keys.sort();
            keys.truncate(remaining);
            let mut assigned: Vec<Vec<String>> = (0..shards).map(|_| Vec::new()).collect();
            for (_, url, i) in keys {
                assigned[i].push(url);
            }
            let mut assignments: Vec<WaveAssignment> = Vec::with_capacity(shards);
            for (i, w) in work.iter_mut().enumerate() {
                let candidates = w.frontier.extract(&assigned[i]);
                let probe_urls: Vec<String> = w
                    .probes
                    .pending_candidates()
                    .iter()
                    .map(|c| c.url.to_string())
                    .collect();
                let probes = w.probes.extract(&probe_urls);
                assignments.push(WaveAssignment {
                    candidates,
                    probes,
                    inject_panic: chaos_panic == Some((i, wave)),
                });
            }

            // Run the wave: one scoped thread per shard with work,
            // deltas returning over a bounded reply channel. A shard
            // that panics is respawned from its pre-wave state (which
            // the coordinator still owns) until the wave completes.
            let mut deltas: Vec<Option<WaveDelta>> = (0..shards).map(|_| None).collect();
            let mut to_run: Vec<usize> = (0..shards)
                .filter(|&i| !assignments[i].is_empty())
                .collect();
            while !to_run.is_empty() {
                let (tx, rx) = mpsc::sync_channel::<(usize, WaveDelta)>(to_run.len());
                let options = &self.options;
                let federation_ref = &federation;
                let make_stack_ref = &make_stack;
                let work_ref = &work;
                let assignments_ref = &assignments;
                let panicked: Vec<usize> = std::thread::scope(|scope| {
                    let handles: Vec<(usize, std::thread::ScopedJoinHandle<'_, ()>)> = to_run
                        .iter()
                        .map(|&i| {
                            let tx = tx.clone();
                            let handle = scope.spawn(move || {
                                let stack = make_stack_ref(i);
                                stack.restore_state(&work_ref[i].stack);
                                let delta = run_shard_wave(
                                    options,
                                    federation_ref,
                                    &stack,
                                    &assignments_ref[i],
                                );
                                let _ = tx.send((i, delta));
                            });
                            (i, handle)
                        })
                        .collect();
                    handles
                        .into_iter()
                        .filter_map(|(i, handle)| handle.join().is_err().then_some(i))
                        .collect()
                });
                drop(tx);
                for (i, delta) in rx.try_iter() {
                    deltas[i] = Some(delta);
                }
                shard_deaths += panicked.len();
                for &i in &panicked {
                    // Respawn without the injected fault: the retry is
                    // the recovery, and it must reproduce the wave.
                    assignments[i].inject_panic = false;
                    if chaos_panic.is_some_and(|(shard, w)| shard == i && w == wave) {
                        chaos_panic = None;
                    }
                }
                to_run = panicked;
            }

            // Merge in shard order; route discoveries to their owners.
            let mut discovered_all: Vec<Candidate> = Vec::new();
            let mut probes_all: Vec<Candidate> = Vec::new();
            for (i, slot) in deltas.iter_mut().enumerate() {
                let Some(delta) = slot.take() else { continue };
                let w = &mut work[i];
                w.pages.extend(delta.pages);
                w.dead_links.extend(delta.dead_links);
                w.redirects += delta.redirects;
                w.stack = delta.stack;
                discovered_all.extend(delta.discovered);
                probes_all.extend(delta.probe_requests);
            }
            for candidate in discovered_all {
                let owner = shard_of(&candidate.url.host, shards);
                // A URL queued as a probe that turns out crawlable is
                // promoted to a full candidate.
                work[owner]
                    .probes
                    .remove_pending(&candidate.url.to_string());
                work[owner].frontier.admit(candidate);
            }
            for candidate in probes_all {
                let owner = shard_of(&candidate.url.host, shards);
                if work[owner].frontier.has_seen(&candidate.url.to_string()) {
                    continue;
                }
                work[owner].probes.admit(candidate);
            }
            wave += 1;

            if let Some(cfg) = &opts.checkpoint {
                let pages_now: usize = work.iter().map(|w| w.pages.len()).sum();
                if pages_now.saturating_sub(last_checkpoint_pages) >= cfg.every_pages.max(1) {
                    self.save_sharded(
                        cfg,
                        &work,
                        shards,
                        wave,
                        opts.seed,
                        fingerprint,
                        false,
                        false,
                    )?;
                    last_checkpoint_pages = pages_now;
                    checkpoints_written += 1;
                    if opts
                        .chaos
                        .kill_after_checkpoints
                        .is_some_and(|n| checkpoints_written >= n)
                    {
                        outcome = ShardedOutcome::Killed;
                        killed = true;
                        break;
                    }
                }
            }
        }

        if let Some(cfg) = &opts.checkpoint {
            if !killed {
                let complete = outcome == ShardedOutcome::Complete;
                self.save_sharded(
                    cfg,
                    &work,
                    shards,
                    wave,
                    opts.seed,
                    fingerprint,
                    truncated,
                    complete,
                )?;
            }
        }

        // Canonical merge: sorted, so the report is independent of
        // shard count and thread timing.
        let mut report = RobotReport {
            truncated,
            ..RobotReport::default()
        };
        let mut telemetry = Vec::with_capacity(shards);
        for (i, w) in work.iter().enumerate() {
            report.pages.extend(w.pages.iter().cloned());
            report.dead_links.extend(w.dead_links.iter().cloned());
            report.redirects_followed += w.redirects as usize;
            let stack = make_stack(i);
            stack.restore_state(&w.stack);
            telemetry.push((i, stack.telemetry()));
        }
        report.pages.sort_by_key(|a| (a.depth, a.url.to_string()));
        report.dead_links.sort_by(|a, b| {
            (a.page.to_string(), &a.href, &a.reason).cmp(&(b.page.to_string(), &b.href, &b.reason))
        });
        Ok(ShardedReport {
            report,
            telemetry,
            shards,
            waves: wave,
            shard_deaths,
            resumed_from_wave,
            outcome,
        })
    }

    /// Snapshot every shard and publish one checkpoint epoch.
    #[allow(clippy::too_many_arguments)]
    fn save_sharded(
        &self,
        cfg: &CheckpointConfig,
        work: &[ShardWork],
        shards: usize,
        wave: usize,
        seed: u64,
        fingerprint: u64,
        truncated: bool,
        complete: bool,
    ) -> Result<(), CheckpointError> {
        let pages_total: usize = work.iter().map(|w| w.pages.len()).sum();
        let meta = CheckpointMeta {
            shards,
            wave,
            seed,
            fingerprint,
            pages_total: pages_total as u64,
            truncated,
            complete,
        };
        let states: Vec<ShardState> = work
            .iter()
            .enumerate()
            .map(|(i, w)| w.snapshot(i))
            .collect();
        save_checkpoint(&cfg.dir, &meta, &states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(body: &str) -> String {
        format!(
            "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
             <HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>{body}</BODY></HTML>\n"
        )
    }

    fn start() -> Url {
        Url::parse("http://site/index.html").unwrap()
    }

    #[test]
    fn crawls_reachable_pages() {
        let mut web = SimulatedWeb::new();
        web.add_page(
            "http://site/index.html",
            page("<P><A HREF=\"a.html\">a</A> <A HREF=\"d/b.html\">b</A></P>"),
        );
        web.add_page("http://site/a.html", page("<P>leaf</P>"));
        web.add_page(
            "http://site/d/b.html",
            page("<P><A HREF=\"../a.html\">back</A></P>"),
        );
        let report = Robot::default().crawl(&WebFetcher::new(&web), &start());
        assert_eq!(report.pages.len(), 3);
        assert!(report.dead_links.is_empty());
        assert!(!report.truncated);
    }

    #[test]
    fn reports_dead_links_via_head() {
        let mut web = SimulatedWeb::new();
        web.add_page(
            "http://site/index.html",
            page("<P><A HREF=\"gone.html\">x</A></P>"),
        );
        let report = Robot::default().crawl(&WebFetcher::new(&web), &start());
        assert_eq!(report.dead_links.len(), 1);
        assert_eq!(report.dead_links[0].href, "gone.html");
        assert!(report.dead_links[0].reason.contains("404"));
    }

    #[test]
    fn follows_redirects() {
        let mut web = SimulatedWeb::new();
        web.add_page(
            "http://site/index.html",
            page("<P><A HREF=\"moved.html\">x</A></P>"),
        );
        web.add_redirect("http://site/moved.html", "http://site/new.html");
        web.add_page("http://site/new.html", page("<P>landed</P>"));
        let report = Robot::default().crawl(&WebFetcher::new(&web), &start());
        assert_eq!(report.pages.len(), 2);
        assert_eq!(report.redirects_followed, 1);
        assert!(report.dead_links.is_empty());
    }

    #[test]
    fn redirect_loops_bounded() {
        let mut web = SimulatedWeb::new();
        web.add_redirect("http://site/index.html", "http://site/index.html");
        let report = Robot::default().crawl(&WebFetcher::new(&web), &start());
        assert!(report
            .dead_links
            .iter()
            .any(|d| d.reason.contains("too many redirects")));
    }

    #[test]
    fn stays_on_site_but_head_checks_external() {
        let mut web = SimulatedWeb::new();
        web.add_page(
            "http://site/index.html",
            page(
                "<P><A HREF=\"http://other/ok.html\">a</A>\
                  <A HREF=\"http://other/gone.html\">b</A></P>",
            ),
        );
        web.add_page("http://other/ok.html", page("<P>elsewhere</P>"));
        let report = Robot::default().crawl(&WebFetcher::new(&web), &start());
        // Only the start page is fetched; the external 404 is reported.
        assert_eq!(report.pages.len(), 1);
        assert_eq!(report.dead_links.len(), 1);
        assert!(report.dead_links[0].reason.contains("external"));
    }

    #[test]
    fn external_checking_can_be_disabled() {
        let mut web = SimulatedWeb::new();
        web.add_page(
            "http://site/index.html",
            page("<P><A HREF=\"http://other/gone.html\">b</A></P>"),
        );
        let robot = Robot::new(RobotOptions {
            check_external: false,
            ..RobotOptions::default()
        });
        let report = robot.crawl(&WebFetcher::new(&web), &start());
        assert!(report.dead_links.is_empty());
    }

    #[test]
    fn max_pages_truncates() {
        let mut web = SimulatedWeb::new();
        // A chain of pages, each linking to the next.
        for i in 0..10 {
            let body = page(&format!("<P><A HREF=\"p{}.html\">next</A></P>", i + 1));
            let path = if i == 0 {
                "http://site/index.html".to_string()
            } else {
                format!("http://site/p{i}.html")
            };
            web.add_page(&path, body);
        }
        let robot = Robot::new(RobotOptions {
            max_pages: 3,
            ..RobotOptions::default()
        });
        let report = robot.crawl(&WebFetcher::new(&web), &start());
        assert_eq!(report.pages.len(), 3);
        assert!(report.truncated);
    }

    #[test]
    fn lints_every_fetched_page() {
        let mut web = SimulatedWeb::new();
        web.add_page(
            "http://site/index.html",
            page("<P><A HREF=\"bad.html\">x</A></P>"),
        );
        web.add_page("http://site/bad.html", page("<H1>oops</H2>"));
        let report = Robot::default().crawl(&WebFetcher::new(&web), &start());
        assert_eq!(report.total_diagnostics(), 1);
        let bad = report
            .pages
            .iter()
            .find(|p| p.url.path == "/bad.html")
            .unwrap();
        assert_eq!(bad.diagnostics[0].id, "heading-mismatch");
    }

    #[test]
    fn crawl_with_service_matches_sequential() {
        let mut web = SimulatedWeb::new();
        web.add_page(
            "http://site/index.html",
            page("<P><A HREF=\"a.html\">a</A> <A HREF=\"gone.html\">x</A></P>"),
        );
        web.add_page("http://site/a.html", page("<H1>oops</H2>"));
        let robot = Robot::default();
        let sequential = robot.crawl(&WebFetcher::new(&web), &start());
        let service = LintService::with_config(LintConfig::default());
        let fanned = robot.crawl_with(&WebFetcher::new(&web), &start(), &service);
        assert_eq!(fanned.pages.len(), sequential.pages.len());
        for (a, b) in fanned.pages.iter().zip(&sequential.pages) {
            assert_eq!(a.url, b.url);
            assert_eq!(a.diagnostics, b.diagnostics);
            assert_eq!((a.link_count, a.depth), (b.link_count, b.depth));
        }
        assert_eq!(fanned.dead_links.len(), sequential.dead_links.len());
        assert_eq!(service.metrics().jobs_completed, 2);
    }

    #[test]
    fn depth_tracks_click_distance() {
        let mut web = SimulatedWeb::new();
        web.add_page(
            "http://site/index.html",
            page("<P><A HREF=\"a.html\">a</A> <A HREF=\"b.html\">b</A></P>"),
        );
        web.add_page(
            "http://site/a.html",
            page("<P><A HREF=\"deep.html\">x</A></P>"),
        );
        web.add_page("http://site/b.html", page("<P>leaf</P>"));
        web.add_page("http://site/deep.html", page("<P>deep</P>"));
        let report = Robot::default().crawl(&WebFetcher::new(&web), &start());
        assert_eq!(report.max_depth(), 2);
        assert_eq!(report.depth_histogram(), vec![1, 2, 1]);
        let deep = report
            .pages
            .iter()
            .find(|p| p.url.path == "/deep.html")
            .unwrap();
        assert_eq!(deep.depth, 2);
    }

    #[test]
    fn empty_crawl_has_empty_histogram() {
        let web = SimulatedWeb::new();
        let report = Robot::default().crawl(&WebFetcher::new(&web), &start());
        assert!(report.depth_histogram().is_empty());
        assert_eq!(report.max_depth(), 0);
    }

    #[test]
    fn store_fetcher_serves_a_memstore() {
        use crate::store::MemStore;
        let mut store = MemStore::new();
        store.insert("index.html", page("<P><A HREF=\"sub/a.html\">a</A></P>"));
        store.insert(
            "sub/a.html",
            page(
                "<P><IMG SRC=\"pic.gif\" ALT=\"p\" \
                                         WIDTH=\"1\" HEIGHT=\"1\"></P>",
            ),
        );
        store.insert("sub/pic.gif", "GIF89a");
        let fetcher = StoreFetcher::new(&store, "local");
        let report = Robot::default().crawl(&fetcher, &fetcher.start_url());
        assert_eq!(report.pages.len(), 2);
        assert!(report.dead_links.is_empty());
        // Content types derived from extension:
        let (status, ct) = fetcher.head(&Url::parse("http://local/sub/pic.gif").unwrap());
        assert_eq!(status, Status::Ok);
        assert_eq!(ct, "image/gif");
        // Other hosts 404:
        let (status, _) = fetcher.head(&Url::parse("http://elsewhere/x.html").unwrap());
        assert_eq!(status, Status::NotFound);
    }

    #[test]
    fn check_url_follows_redirects_and_errors() {
        let mut web = SimulatedWeb::new();
        web.add_redirect("http://h/old.html", "/new.html");
        web.add_page("http://h/new.html", page("<H2>wrong</H3>"));
        web.add("http://h/pic.gif", crate::web::Resource::asset("image/gif"));
        let f = WebFetcher::new(&web);
        let config = LintConfig::default();
        let diags = check_url(&f, "http://h/old.html", &config).unwrap();
        assert!(diags.iter().any(|d| d.id == "heading-mismatch"));
        assert!(matches!(
            check_url(&f, "http://h/gone.html", &config),
            Err(FetchError::NotFound(_))
        ));
        assert!(matches!(
            check_url(&f, "http://h/pic.gif", &config),
            Err(FetchError::NotHtml(_))
        ));
        assert!(matches!(
            check_url(&f, "::", &config),
            Err(FetchError::BadUrl(_))
        ));
    }

    #[test]
    fn check_url_streams_across_chunk_boundaries() {
        // A body several FETCH_CHUNK windows wide, with findings in the
        // middle and at the end, so tags straddle feed boundaries. The
        // streamed result must be byte-identical to the one-shot check.
        let mut body = String::from("<H1>top</H2>");
        for i in 0..600 {
            body.push_str(&format!("<P>paragraph number {i} for padding</P>\n"));
        }
        body.push_str("<IMG SRC=\"x.gif\"><B>tail");
        assert!(body.len() > 2 * FETCH_CHUNK, "body must span chunks");
        let mut web = SimulatedWeb::new();
        web.add_page("http://h/big.html", body.clone());
        let config = LintConfig::default();
        let streamed = check_url(&WebFetcher::new(&web), "http://h/big.html", &config).unwrap();
        let one_shot = LintSession::with_config(config).check_string(&body);
        assert_eq!(streamed, one_shot);
        assert!(streamed.iter().any(|d| d.id == "img-alt"));
    }

    #[test]
    fn crawl_lints_during_fetch_and_matches_one_shot() {
        // The sequential crawl lints pages as their bytes stream in; the
        // report must match linting each page after the fact.
        let mut web = SimulatedWeb::new();
        web.add_page(
            "http://site/index.html",
            page("<H1>x</H2><P><A HREF=\"a.html\">a</A></P>"),
        );
        web.add_redirect("http://site/a.html", "http://site/b.html");
        web.add_page("http://site/b.html", page("<IMG SRC=\"p.gif\">"));
        let robot = Robot::default();
        let report = robot.crawl(&WebFetcher::new(&web), &start());
        assert_eq!(report.pages.len(), 2);
        let mut weblint = LintSession::with_config(RobotOptions::default().lint.clone());
        for crawled in &report.pages {
            let (_, _, body) = WebFetcher::new(&web).get(&crawled.url);
            assert_eq!(crawled.diagnostics, weblint.check_string(&body));
        }
        assert!(report.pages[0]
            .diagnostics
            .iter()
            .any(|d| d.id == "heading-mismatch"));
    }

    #[test]
    fn builder_validates_every_knob() {
        let options = RobotOptions::builder()
            .max_pages(0)
            .max_redirects(1_000)
            .max_depth(2)
            .jobs(0)
            .check_external(false)
            .build();
        assert_eq!(options.max_pages, 1, "zero pages clamps to one");
        assert_eq!(options.max_redirects, 64, "hop limit is capped");
        assert_eq!(options.max_depth, Some(2));
        assert_eq!(options.jobs, 1, "zero jobs clamps to one");
        assert!(!options.check_external);
        let wide = RobotOptions::builder().jobs(10_000).build();
        assert_eq!(wide.jobs, 64, "jobs are capped");
        let default = RobotOptions::default();
        assert_eq!(default.jobs, 1);
        assert_eq!(default.max_depth, None);
    }

    #[test]
    fn max_depth_bounds_the_crawl_but_still_validates_links() {
        let mut web = SimulatedWeb::new();
        web.add_page(
            "http://site/index.html",
            page("<P><A HREF=\"a.html\">a</A></P>"),
        );
        web.add_page(
            "http://site/a.html",
            page("<P><A HREF=\"b.html\">b</A> <A HREF=\"gone.html\">x</A></P>"),
        );
        web.add_page("http://site/b.html", page("<P>leaf</P>"));
        let robot = Robot::new(RobotOptions::builder().max_depth(1).build());
        let report = robot.crawl(&WebFetcher::new(&web), &start());
        // Depth 0 and 1 are crawled; b.html (depth 2) is not — but the
        // dead link on the depth-1 page is still reported.
        assert_eq!(report.pages.len(), 2);
        assert_eq!(report.max_depth(), 1);
        assert_eq!(report.dead_links.len(), 1);
        assert!(!report.truncated);
    }

    fn shared_site() -> crate::web::SharedWeb {
        let mut web = SimulatedWeb::new();
        web.add_page(
            "http://site/index.html",
            page(
                "<P><A HREF=\"a.html\">a</A> <A HREF=\"b.html\">b</A> \
                 <A HREF=\"gone.html\">x</A></P>",
            ),
        );
        web.add_page(
            "http://site/a.html",
            page("<H1>oops</H2><P><A HREF=\"c.html\">c</A></P>"),
        );
        web.add_page("http://site/b.html", page("<P>leaf</P>"));
        web.add_page("http://site/c.html", page("<P>deep</P>"));
        crate::web::SharedWeb::new(web)
    }

    #[test]
    fn crawl_stack_matches_sequential_crawl() {
        let robot = Robot::new(RobotOptions::builder().jobs(4).build());
        let sequential = {
            let web = shared_site();
            robot.crawl(&web, &start())
        };
        let stack = FetchStack::new(shared_site()).adaptive_defaults().build();
        let adaptive = robot.crawl_stack(&stack, &start());
        assert_eq!(adaptive.pages.len(), sequential.pages.len());
        for (a, b) in adaptive.pages.iter().zip(&sequential.pages) {
            assert_eq!(a.url, b.url, "page order must match BFS");
            assert_eq!(a.diagnostics, b.diagnostics);
            assert_eq!((a.link_count, a.depth), (b.link_count, b.depth));
        }
        assert_eq!(adaptive.dead_links.len(), sequential.dead_links.len());
        assert_eq!(adaptive.redirects_followed, sequential.redirects_followed);
        // The pacer saw the crawl: every GET was authorized and observed.
        let pacing = stack.pacer().stats();
        let (host, site) = &pacing.hosts[0];
        assert_eq!(host, "site");
        assert_eq!(site.authorized, 4, "index + a + b + c");
        assert_eq!(site.clean + site.bad, 4 + 4, "4 GETs + 4 link HEADs");
    }

    #[test]
    fn crawl_stack_with_service_matches_and_truncates() {
        let robot = Robot::new(RobotOptions::builder().jobs(3).max_pages(2).build());
        let stack = FetchStack::new(shared_site()).adaptive_defaults().build();
        let service = LintService::with_config(LintConfig::default());
        let report = robot.crawl_stack_with(&stack, &start(), &service);
        assert_eq!(report.pages.len(), 2, "page budget holds under batching");
        assert!(report.truncated);
        assert!(report.pages.iter().all(|p| p.url.host == "site"));
        // The service really linted: a.html's heading mismatch surfaced.
        assert_eq!(report.total_diagnostics(), 1);
    }

    #[test]
    fn non_html_targets_head_only() {
        let mut web = SimulatedWeb::new();
        web.add_page(
            "http://site/index.html",
            page("<P><IMG SRC=\"logo.gif\" ALT=\"l\" WIDTH=\"1\" HEIGHT=\"1\"></P>"),
        );
        web.add(
            "http://site/logo.gif",
            crate::web::Resource::asset("image/gif"),
        );
        let report = Robot::default().crawl(&WebFetcher::new(&web), &start());
        assert_eq!(report.pages.len(), 1);
        assert!(report.dead_links.is_empty());
        assert_eq!(web.stats().heads, 1);
    }
}
