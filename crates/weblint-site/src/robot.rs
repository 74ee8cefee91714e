//! The *poacher* robot: crawl a site, lint every page, validate links.
//!
//! "A robot can be used to invoke weblint on all accessible pages on a
//! site. I have written one, called poacher … Poacher also performs basic
//! link validation. … At its simplest, this merely consists of sending a
//! HEAD request, and reporting all URLs which result in a 404 response
//! code. Smarter robots will handle redirects" (§4.5, §3.5). This robot
//! does both: it follows redirects (bounded), GETs and lints same-site HTML
//! pages breadth-first, and HEAD-validates everything else. A page it is
//! about to GET is not HEADed first: the GET is its link check, and a
//! GET that fails on its first hop is reported as the HEAD would have
//! been.
//!
//! [`Robot::crawl_sharded`] is the one crawl. A plain crawl is one shard
//! over a default [`FetchStack`]:
//!
//! ```
//! use weblint_site::{FetchStack, Robot, ShardedOptions, SharedWeb, SimulatedWeb, Url};
//!
//! let mut web = SimulatedWeb::new();
//! web.add_page("http://h/index.html", "<P><A HREF=\"gone.html\">x</A></P>");
//! let web = SharedWeb::new(web);
//! let start = Url::parse("http://h/index.html").unwrap();
//! let run = Robot::default()
//!     .crawl_sharded(&[start], |_| FetchStack::new(web.clone()).build(), &ShardedOptions::default())
//!     .unwrap();
//! assert_eq!(run.report.pages.len(), 1);
//! assert_eq!(run.report.dead_links[0].href, "gone.html");
//! ```
//!
//! Each shard is one thread for the whole crawl, spawned the first time
//! the shard gets work. It builds its [`FetchStack`] once and keeps one
//! set of fetch workers: `jobs − 1` scoped threads plus the shard thread.
//! The coordinator hands it one wave at a time over a channel. The shard
//! runs a wave in two phases. First it HEADs the link checks and the crawl
//! candidates whose paths do not name HTML (a budget cut, which fetches
//! nothing, HEADs all its candidates). Then it GETs and lints the pages:
//! the candidates named as pages (`.html`, `.htm`, `.shtml`, a directory,
//! no extension) and the HEADed ones that answered HTML or a redirect,
//! extracting their links on the worker. So a crawled page costs one
//! request, and an asset whose name is not page-like is never
//! downloaded; an HTML-named or extensionless resource is fetched by GET
//! whatever its type. Both phases issue in
//! batches of up to [`RobotOptions::jobs`] requests, clamped per host by
//! the frozen AIMD limit. Workers only run requests and read a frozen breaker snapshot;
//! every breaker transition and pacer observation is settled on the
//! shard thread in issue order before the next batch forms.
//!
//! More shards, a wider [`RobotOptions::jobs`], checkpoints, and fault or
//! pacing layers in the stack change how the crawl runs, not what a
//! fault-free crawl reports.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{Scope, ScopedJoinHandle};

use weblint_core::{Diagnostic, LintConfig, LintSession};

use crate::checkpoint::{
    self, load_checkpoint, save_checkpoint, CheckpointError, CheckpointMeta, ShardState,
};
use crate::fault::{transient, HopRecord, RequestCost, VIRTUAL_RTT_US};
use crate::frontier::{shard_of, Candidate, ShardFrontier};
use crate::links::{extract_links, Link, LinkKind};
use crate::pacing::{HedgeToken, Observation, Pacer};
use crate::stack::{FetchStack, StackState, StackTelemetry};
use crate::url::Url;
use crate::web::{SimulatedWeb, Status};

/// Redirect hops a URL flow follows before giving up: [`resolve`]'s
/// limit and the default of [`RobotOptions::max_redirects`].
const MAX_REDIRECTS: usize = 5;

/// Transport abstraction so the robot can crawl the simulated web today
/// and a real HTTP client if one is ever wired in. A transport
/// implements exactly `head` and `get`.
pub trait Fetcher {
    /// HEAD: status and content type.
    fn head(&self, url: &Url) -> (Status, String);
    /// GET: status, content type, body.
    fn get(&self, url: &Url) -> (Status, String, String);
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

    /// A directory answers `Ok` with an empty body, as its HEAD does; a
    /// file that cannot be read answers `NotFound`.
    fn get(&self, url: &Url) -> (Status, String, String) {
        match self.path_of(url) {
            Some(path) if self.store.is_dir(path) => {
                (Status::Ok, content_type_of(path), String::new())
            }
            Some(path) => match self.store.read(path) {
                Some(body) => (Status::Ok, content_type_of(path), body),
                None => (Status::NotFound, String::new(), String::new()),
            },
            None => (Status::NotFound, String::new(), String::new()),
        }
    }
}

/// MIME type by file extension, 1998 edition.
fn content_type_of(path: &str) -> String {
    let lower = path.to_ascii_lowercase();
    let ct = if crate::store::is_html_path(&lower) {
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
    /// Stop after this many pages have been fetched and linted; the
    /// links on those pages are still validated.
    pub max_pages: usize,
    /// Give up on a redirect chain after this many hops.
    pub max_redirects: usize,
    /// Bound on click depth: links found on pages at this depth are
    /// still validated, but not crawled. `None` crawls without bound.
    pub max_depth: Option<usize>,
    /// Requests each shard has in flight, HEADs and GETs alike: the HEAD
    /// link checks of a wave, then its page GETs, each the page's only
    /// request (the adaptive per-host limit clamps each batch further).
    /// A shard spawns its `jobs − 1` fetch workers once and keeps them
    /// for the whole crawl, so a crawl runs at most `shards × jobs`
    /// fetching threads. `1` crawls sequentially, on the shard thread
    /// alone.
    pub jobs: usize,
    /// HEAD-validate links that leave the start URLs' hosts.
    pub check_external: bool,
    /// Lint configuration applied to each fetched page.
    pub lint: LintConfig,
}

impl Default for RobotOptions {
    fn default() -> RobotOptions {
        RobotOptions {
            max_pages: 1_000,
            max_redirects: MAX_REDIRECTS,
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

    /// Requests in flight per shard, HEADs and GETs; clamped to 1..=64.
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

impl Default for Robot {
    fn default() -> Robot {
        Robot::new(RobotOptions::default())
    }
}

/// What following one frontier URL produced, computed on a fetch worker
/// and folded into the report by the shard in issue order.
enum FetchOutcome {
    /// An HTML page at its post-redirect URL, linted and its links
    /// extracted on the worker.
    Page {
        url: Url,
        links: Vec<Link>,
        diagnostics: Vec<Diagnostic>,
    },
    /// The chain ended somewhere dead; `href` is the final URL tried.
    Dead { href: String, reason: String },
    /// A definitive non-HTML answer: nothing to lint, nothing dead.
    Skip,
}

/// Where a redirect chain ended.
enum Landing {
    /// A 200, with its content type and body.
    Page { content_type: String, body: String },
    /// A status that is neither a 200 nor a redirect.
    Failed(Status),
    /// The hop limit ran out.
    TooManyRedirects,
}

/// GET `url` through `get`, following up to `max_redirects` redirects.
/// Returns the URL the chain stopped at, how it ended, and the redirect
/// hops taken. The one redirect loop: the crawl and every URL flow
/// ([`resolve`], [`check_url`]) follow chains through it.
fn redirect_chain(
    url: &Url,
    max_redirects: usize,
    mut get: impl FnMut(&Url) -> (Status, String, String),
) -> (Url, Landing, usize) {
    let mut current = url.clone();
    for redirects in 0..=max_redirects {
        match get(&current) {
            (Status::Redirect(location), _, _) => current = current.join(&location),
            (Status::Ok, content_type, body) => {
                return (current, Landing::Page { content_type, body }, redirects)
            }
            (status, _, _) => return (current, Landing::Failed(status), redirects),
        }
    }
    (current, Landing::TooManyRedirects, max_redirects + 1)
}

/// GET `url` following redirects up to the hop limit, classifying the
/// result, and linting and extracting the links of the page it lands on.
/// Returns the outcome plus the redirect hops taken.
fn follow_redirects(
    options: &RobotOptions,
    url: &Url,
    get: impl FnMut(&Url) -> (Status, String, String),
) -> (FetchOutcome, usize) {
    let (url, landing, redirects) = redirect_chain(url, options.max_redirects, get);
    let outcome = match landing {
        Landing::Page { content_type, body } if content_type.starts_with("text/html") => {
            // Contain an engine panic: a shard wave that panicked would
            // be replayed into the same page, and the same panic, forever.
            let lint = || LintSession::with_config(options.lint.clone()).check_string(&body);
            let diagnostics = catch_unwind(AssertUnwindSafe(lint)).unwrap_or_default();
            FetchOutcome::Page {
                url,
                links: extract_links(&body),
                diagnostics,
            }
        }
        Landing::Page { .. } => FetchOutcome::Skip,
        Landing::Failed(status) => FetchOutcome::Dead {
            href: url.to_string(),
            reason: dead_reason(&status, false).expect("a failed status"),
        },
        Landing::TooManyRedirects => FetchOutcome::Dead {
            href: url.to_string(),
            reason: "too many redirects".to_string(),
        },
    };
    (outcome, redirects)
}

/// One GET as a fetch worker ran it, with everything the shard needs
/// to settle it in issue order.
struct Fetched {
    token: HedgeToken,
    outcome: FetchOutcome,
    redirects: usize,
    /// Per-hop resilience records, settled in issue order.
    hops: Vec<(String, HopRecord)>,
    /// Total virtual latency across hops (including a fired hedge).
    cost_us: u64,
    /// The fetch burned retries, was shed, or ended transiently failed.
    bad: bool,
    hedge_fired: bool,
    hedge_won: bool,
}

/// A request for the fetch workers, boxed with its answer type erased:
/// the pool below is then compiled once, here, rather than once per
/// fetcher type in every crate that crawls.
type Request<'env> = Box<dyn FnOnce() -> Answer + Send + 'env>;
type Answer = Box<dyn Any + Send>;
/// What a worker runs: a request that sends its own answer back.
type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// One shard's fetch workers for the whole crawl: `jobs − 1` scoped
/// threads that serve every HEAD and GET batch of every wave, plus the
/// shard thread itself, which runs the first request of each batch.
/// `jobs = 1` spawns none.
struct FetchPool<'scope, 'env> {
    queue: mpsc::Sender<Job<'env>>,
    workers: Vec<ScopedJoinHandle<'scope, ()>>,
}

impl<'scope, 'env> FetchPool<'scope, 'env> {
    /// Spawn `workers` threads on `scope`, serving one queue until
    /// [`Self::join`] closes it.
    fn spawn(scope: &'scope Scope<'scope, 'env>, workers: usize) -> FetchPool<'scope, 'env> {
        let (queue, inbox) = mpsc::channel::<Job<'env>>();
        let inbox = Arc::new(Mutex::new(inbox));
        let workers = (0..workers)
            .map(|_| {
                let inbox = Arc::clone(&inbox);
                scope.spawn(move || loop {
                    // The guard drops at the `;`: one worker waits on the
                    // queue at a time, none holds it while fetching.
                    let job = inbox.lock().expect("queue lock").recv();
                    match job {
                        Ok(job) => job(),
                        Err(_) => break,
                    }
                })
            })
            .collect();
        FetchPool { queue, workers }
    }

    /// Close the queue and wait until every worker has exited, so the
    /// next crawl's threads can reuse their stacks and allocator arenas.
    fn join(self) {
        drop(self.queue);
        for worker in self.workers {
            // A worker catches every request's panic; it cannot die.
            let _ = worker.join();
        }
    }

    /// Run `batch` — the first request here, the rest on the workers —
    /// and return the answers in batch order. A request that panicked
    /// re-raises its panic on the shard thread, once every request of
    /// the batch has finished.
    fn run<T: Send + 'static>(
        &self,
        batch: impl Iterator<Item = impl FnOnce() -> T + Send + 'env>,
    ) -> Vec<T> {
        let requests = batch
            .map(|request| Box::new(move || Box::new(request()) as Answer) as Request<'env>)
            .collect();
        self.dispatch(requests)
            .into_iter()
            .map(|answer| {
                *answer
                    .downcast::<T>()
                    .expect("a request answers its own type")
            })
            .collect()
    }

    /// The untyped half of [`Self::run`].
    fn dispatch(&self, batch: Vec<Request<'env>>) -> Vec<Answer> {
        let len = batch.len();
        let (tx, rx) = mpsc::channel();
        let mut batch = batch.into_iter();
        let first = batch.next();
        for (i, request) in batch.enumerate() {
            let tx = tx.clone();
            let job: Job<'env> = Box::new(move || {
                let _ = tx.send((i + 1, catch_unwind(AssertUnwindSafe(request))));
            });
            self.queue
                .send(job)
                .expect("fetch workers outlive the shard");
        }
        drop(tx);
        let mut answers: Vec<Option<std::thread::Result<Answer>>> =
            (0..len).map(|_| None).collect();
        if let Some(first) = first {
            answers[0] = Some(catch_unwind(AssertUnwindSafe(first)));
        }
        for (i, answer) in rx.iter() {
            answers[i] = Some(answer);
        }
        // Nothing is in flight any more, so a panic leaving here cannot
        // race the restore of the stack the shard replays the wave on.
        answers
            .into_iter()
            .map(|answer| {
                answer
                    .expect("every request answers")
                    .unwrap_or_else(|e| std::panic::resume_unwind(e))
            })
            .collect()
    }
}

/// How many requests from the front of `pending` the next batch takes:
/// issue order is never changed, the batch holds at most `jobs`, and no
/// host gets more than its frozen AIMD limit (the first always goes).
/// The caller issues and settles the batch before forming the next.
fn batch_len(jobs: usize, pacer: &Pacer, pending: &[&Candidate]) -> usize {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    let mut len = 0usize;
    for candidate in pending.iter().take(jobs) {
        let host = candidate.url.host.as_str();
        let seen = counts.entry(host).or_insert(0);
        if len > 0 && *seen >= pacer.limit(host).max(1) {
            break;
        }
        *seen += 1;
        len += 1;
    }
    len
}

/// Fetch one URL on a worker: follow redirects through the stack (a
/// hop to a host whose frozen breaker is open is shed there),
/// recording per-hop resilience outcomes for deferred settling, fire the
/// hedge if the token allows and the primary attempt came back
/// transiently failed *and* slow, and lint the page it lands on — so the
/// settle loop just copies the result into the report.
fn run_task<F: Fetcher>(
    options: &RobotOptions,
    stack: &FetchStack<F>,
    url: &Url,
    token: HedgeToken,
) -> Fetched {
    let mut hops: Vec<(String, HopRecord)> = Vec::new();
    let mut cost_us = 0u64;
    let mut bad = false;
    let mut fired = false;
    let mut won = false;
    let (outcome, redirects) = follow_redirects(options, url, |current| {
        let (mut result, cost) = stack.attempt_get(current);
        cost_us += cost.virtual_us();
        let mut failed = transient(&result.0);
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
                (result, failed) = (hedge, false);
            }
        }
        hops.push((current.host.clone(), HopRecord::of(&result.0, &cost)));
        result
    });
    Fetched {
        token,
        outcome,
        redirects,
        hops,
        cost_us,
        bad,
        hedge_fired: fired,
        hedge_won: won,
    }
}

/// Settle one HEAD in issue order: the resilience bookkeeping its worker
/// skipped, then one pacer observation.
fn settle_head<F: Fetcher>(stack: &FetchStack<F>, url: &Url, status: &Status, cost: RequestCost) {
    stack.settle_hop(&url.host, &HopRecord::of(status, &cost));
    let bad = cost.shed || cost.retries > 0 || transient(status);
    stack.pacer().observe(
        &url.host,
        Observation {
            clean: !bad,
            bad,
            latency_us: cost.virtual_us(),
        },
    );
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

/// Fetch a URL down to its final HTML page, following up to five
/// redirects: the fetch half of [`check_url`], of the gateway's URL flow
/// and of the HTTP front end's `GET /lint?url=`. Returns the URL the
/// chain landed on and the page body.
///
/// # Examples
///
/// ```
/// use weblint_site::{resolve, FetchError, SimulatedWeb, WebFetcher};
///
/// let mut web = SimulatedWeb::new();
/// web.add_redirect("http://h/old.html", "/new.html");
/// web.add_page("http://h/new.html", "<P>moved");
/// let fetcher = WebFetcher::new(&web);
/// let (url, body) = resolve(&fetcher, "http://h/old.html").unwrap();
/// assert_eq!(url.to_string(), "http://h/new.html");
/// assert_eq!(body, "<P>moved");
/// assert_eq!(
///     resolve(&fetcher, "http://h/gone.html"),
///     Err(FetchError::NotFound("http://h/gone.html".to_string()))
/// );
/// ```
pub fn resolve(fetcher: &dyn Fetcher, url: &str) -> Result<(Url, String), FetchError> {
    let start = Url::parse(url).ok_or_else(|| FetchError::BadUrl(url.to_string()))?;
    let (url, landing, _) = redirect_chain(&start, MAX_REDIRECTS, |hop| fetcher.get(hop));
    match landing {
        Landing::Page { content_type, body } if content_type.starts_with("text/html") => {
            Ok((url, body))
        }
        Landing::Page { .. } => Err(FetchError::NotHtml(url.to_string())),
        Landing::Failed(Status::NotFound) => Err(FetchError::NotFound(url.to_string())),
        Landing::Failed(Status::ServerError) => Err(FetchError::ServerError(url.to_string())),
        // Timed out, reset or cut short: the chain ends on no other status.
        Landing::Failed(_) => Err(FetchError::Unreachable(url.to_string())),
        Landing::TooManyRedirects => Err(FetchError::TooManyRedirects(url.to_string())),
    }
}

/// Fetch one URL (following up to five redirects) and lint it — the
/// paper's `check_url` method (§5.4): "The latter requires the LWP
/// modules… If you don't have LWP installed, you can still use weblint,
/// but the check_url method won't be available." Here the transport is a
/// [`Fetcher`] rather than LWP, and the fetch is [`resolve`].
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
    let (_, body) = resolve(fetcher, url)?;
    Ok(LintSession::with_config(config.clone()).check_string(&body))
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
    /// must detect the death, hand the shard the wave again on its
    /// pre-wave stack state, and finish with a byte-identical report.
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
    /// Shard waves that panicked and were replayed.
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
    /// Budget cut: HEAD-validate `candidates` but fetch none of them.
    /// They stay pending in the frontier unless they are dead.
    cut: bool,
    /// Chaos: panic midway through this wave.
    inject_panic: bool,
    /// Restore the shard's stack to this state before the wave: set on
    /// the shard's first wave and on the replay of a wave it died in.
    restore: Option<StackState>,
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
    /// Candidates found dead. Only a budget cut leaves them pending, and
    /// the coordinator drops them from the frontier.
    dead_pending: Vec<String>,
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

/// Report a candidate whose own URL answered dead, to a HEAD or on the
/// first hop of its GET: attributed like any dead link, and dropped from
/// the frontier if a cut left it pending.
fn candidate_dead(candidate: &Candidate, reason: String, delta: &mut WaveDelta) {
    let (page, href) = attribution(candidate);
    delta.dead_links.push(DeadLink { page, href, reason });
    delta.dead_pending.push(candidate.url.to_string());
}

/// Whether a path names an HTML page: `.html`, `.htm`, `.shtml`, a
/// directory, or no extension. The crawl GETs such a candidate without
/// HEADing it first, whatever it turns out to be; any other name is
/// HEADed, so an asset so named is never downloaded.
fn names_html(path: &str) -> bool {
    let name = path.rsplit('/').next().unwrap_or_default();
    !name.contains('.') || crate::store::is_html_path(name)
}

/// The dead-link reason for a failed answer to a HEAD or to a GET's
/// first hop, `None` when the target is alive (or redirecting — a HEAD
/// check does not follow it).
fn dead_reason(status: &Status, external: bool) -> Option<String> {
    let base = match status {
        Status::NotFound => "404 Not Found",
        Status::ServerError => "server error",
        Status::TimedOut => "timed out",
        Status::Reset => "connection reset",
        Status::Truncated => "truncated body",
        Status::Ok | Status::Redirect(_) => return None,
    };
    Some(if external {
        format!("{base} (external)")
    } else {
        base.to_string()
    })
}

/// A shard thread's answer to one wave: its delta, or — when the wave
/// panicked — the assignment itself, for the coordinator to re-send.
type WaveReply = Result<WaveDelta, WaveAssignment>;

/// The coordinator's end of one shard thread.
struct ShardLink<'scope> {
    inbox: mpsc::Sender<WaveAssignment>,
    replies: mpsc::Receiver<WaveReply>,
    thread: ScopedJoinHandle<'scope, ()>,
}

/// One shard thread for the whole crawl: spawn the fetch workers once
/// and run every wave the inbox delivers on `stack`, until the
/// coordinator closes the inbox.
fn shard_thread<F: Fetcher + Sync>(
    options: &RobotOptions,
    federation: &BTreeSet<String>,
    stack: FetchStack<F>,
    inbox: mpsc::Receiver<WaveAssignment>,
    replies: mpsc::Sender<WaveReply>,
) {
    std::thread::scope(|scope| {
        let pool = FetchPool::spawn(scope, options.jobs - 1);
        serve_waves(
            inbox,
            replies,
            &|state| stack.restore_state(state),
            &|assignment| shard_wave(options, federation, &stack, assignment, &pool),
        );
        pool.join();
    });
}

/// The shard's wave loop, compiled once whatever the transport: restore
/// the stack when the assignment says so, run the wave, and answer. A
/// wave that panics answers with its assignment; the stack is left for
/// the replay's restore to reset.
fn serve_waves(
    inbox: mpsc::Receiver<WaveAssignment>,
    replies: mpsc::Sender<WaveReply>,
    restore: &dyn Fn(&StackState),
    run_wave: &dyn Fn(&WaveAssignment) -> WaveDelta,
) {
    for mut assignment in inbox {
        if let Some(state) = assignment.restore.take() {
            restore(&state);
        }
        let reply =
            catch_unwind(AssertUnwindSafe(|| run_wave(&assignment))).map_err(|_| assignment);
        if replies.send(reply).is_err() {
            break;
        }
    }
}

/// Run one shard's wave on its thread: HEAD-validate probes and classify
/// the candidates not named as pages, then GET + lint pages (a page's GET
/// is its link check), every request in bounded batches on the shard's
/// [`FetchPool`] and settled in issue order. Everything
/// order-sensitive happens in `(depth, url)` order, so the delta is a
/// pure function of (assignment, stack state before the wave).
fn shard_wave<'env, F: Fetcher + Sync>(
    options: &'env RobotOptions,
    federation: &BTreeSet<String>,
    stack: &'env FetchStack<F>,
    assignment: &WaveAssignment,
    pool: &FetchPool<'_, 'env>,
) -> WaveDelta {
    let mut delta = WaveDelta::default();
    // A page's GET is its own link check, so only the probes and the
    // candidates not named as pages are HEADed first, as one queue. A cut
    // fetches nothing: it HEADs every candidate.
    let get_first = |c: &Candidate| !assignment.cut && names_html(&c.url.path);
    let heads: Vec<&Candidate> = assignment
        .probes
        .iter()
        .chain(assignment.candidates.iter().filter(|c| !get_first(c)))
        .collect();
    let mut answers: Vec<(Status, String)> = Vec::with_capacity(heads.len());
    let mut pending = &heads[..];
    while !pending.is_empty() {
        let (batch, rest) = pending.split_at(batch_len(options.jobs, stack.pacer(), pending));
        let requests = batch.iter().map(|c| {
            let url = c.url.clone();
            move || stack.attempt_head(&url)
        });
        for (candidate, (answer, cost)) in batch.iter().zip(pool.run(requests)) {
            settle_head(stack, &candidate.url, &answer.0, cost);
            answers.push(answer);
        }
        pending = rest;
    }
    let (probe_answers, candidate_answers) = answers.split_at(assignment.probes.len());
    for (request, (status, _)) in assignment.probes.iter().zip(probe_answers) {
        let external = !federation.contains(&request.url.host);
        if let Some(reason) = dead_reason(status, external) {
            let (page, href) = attribution(request);
            delta.dead_links.push(DeadLink { page, href, reason });
        }
    }
    // Classify candidates: pages, and HEADed pages and redirects, go on to
    // the GET phase; assets are done; the dead are reported.
    let mut candidate_answers = candidate_answers.iter();
    let mut gets: Vec<&Candidate> = Vec::new();
    for candidate in &assignment.candidates {
        if get_first(candidate) {
            gets.push(candidate);
            continue;
        }
        match candidate_answers
            .next()
            .expect("a HEADed candidate has an answer")
        {
            (Status::Ok, ct) if ct.starts_with("text/html") => gets.push(candidate),
            (Status::Ok, _) => {}
            (Status::Redirect(_), _) => gets.push(candidate),
            (status, _) => {
                let reason = dead_reason(status, false).expect("a failed status");
                candidate_dead(candidate, reason, &mut delta);
            }
        }
    }
    if assignment.cut {
        gets.clear();
    }
    if assignment.inject_panic && gets.is_empty() {
        panic!("injected shard death");
    }
    let mut pending = &gets[..];
    while !pending.is_empty() {
        let (batch, rest) = pending.split_at(batch_len(options.jobs, stack.pacer(), pending));
        let requests = batch.iter().map(|c| {
            let host = c.url.host.as_str();
            let token = stack.pacer().authorize(host, stack.breaker_state(host));
            let url = c.url.clone();
            move || run_task(options, stack, &url, token)
        });
        for (candidate, fetched) in batch.iter().zip(pool.run(requests)) {
            settle_sharded_task(options, federation, stack, candidate, fetched, &mut delta);
        }
        if assignment.inject_panic {
            // Mid-wave: some of this wave's work is settled, the rest is
            // in flight. The coordinator must rerun the whole wave from
            // the pre-wave snapshot.
            panic!("injected shard death");
        }
        pending = rest;
    }
    delta.stack = stack.export_state();
    delta
}

/// Settle one sharded GET in issue order: resilience + pacer feedback,
/// then record the page and route its links.
fn settle_sharded_task<F: Fetcher>(
    options: &RobotOptions,
    federation: &BTreeSet<String>,
    stack: &FetchStack<F>,
    candidate: &Candidate,
    fetched: Fetched,
    delta: &mut WaveDelta,
) {
    for (hop_host, record) in &fetched.hops {
        stack.settle_hop(hop_host, record);
    }
    let host = candidate.url.host.as_str();
    stack
        .pacer()
        .settle_hedge(host, fetched.token, fetched.hedge_fired, fetched.hedge_won);
    stack.pacer().observe(
        host,
        Observation {
            clean: !fetched.bad,
            bad: fetched.bad,
            latency_us: fetched.cost_us,
        },
    );
    delta.redirects += fetched.redirects as u64;
    match fetched.outcome {
        FetchOutcome::Skip => {}
        // Dead on its first hop: the GET was the candidate's link check.
        FetchOutcome::Dead { reason, .. } if fetched.redirects == 0 => {
            candidate_dead(candidate, reason, delta)
        }
        FetchOutcome::Dead { href, reason } => delta.dead_links.push(DeadLink {
            page: candidate.url.clone(),
            href,
            reason,
        }),
        FetchOutcome::Page {
            url: final_url,
            links,
            diagnostics,
        } => {
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
                    href: link.href,
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
    /// A robot with the given options.
    pub fn new(options: RobotOptions) -> Robot {
        Robot { options }
    }

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

        std::thread::scope(|scope| -> Result<ShardedReport, CheckpointError> {
            // One thread per shard for the whole crawl, spawned the first
            // time the shard gets work.
            let mut links: Vec<Option<ShardLink<'_>>> = (0..shards).map(|_| None).collect();
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
                // Budget cut: no fetch is left, but the links crawled pages
                // found still get their HEAD check in one last wave.
                let cut = remaining == 0 && pending_pages > 0;
                if cut && truncated {
                    // Resumed from the checkpoint this cut wrote: its pending
                    // links were validated before it was saved.
                    outcome = ShardedOutcome::Paused;
                    break;
                }
                truncated = cut;

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
                    let candidates = if cut {
                        // Seeds no crawled page linked to are not checked.
                        let mut found: Vec<Candidate> = w
                            .frontier
                            .pending_candidates()
                            .into_iter()
                            .filter(|c| !c.via.is_empty())
                            .collect();
                        found.sort_by_cached_key(|c| (c.depth, c.url.to_string()));
                        found
                    } else {
                        w.frontier.extract(&assigned[i])
                    };
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
                        cut,
                        inject_panic: chaos_panic == Some((i, wave)),
                        restore: None,
                    });
                }

                // Hand each shard with work its wave, spawning its thread
                // (which restores the shard's stack state) on first use.
                let mut active: Vec<usize> = Vec::with_capacity(shards);
                for (i, mut assignment) in assignments.into_iter().enumerate() {
                    if assignment.is_empty() {
                        continue;
                    }
                    let link = links[i].get_or_insert_with(|| {
                        assignment.restore = Some(work[i].stack.clone());
                        let (inbox, shard_inbox) = mpsc::channel();
                        let (shard_replies, replies) = mpsc::channel();
                        let (options, federation, make_stack) =
                            (&self.options, &federation, &make_stack);
                        let thread = scope.spawn(move || {
                            let stack = make_stack(i);
                            shard_thread(options, federation, stack, shard_inbox, shard_replies)
                        });
                        ShardLink {
                            inbox,
                            replies,
                            thread,
                        }
                    });
                    link.inbox
                        .send(assignment)
                        .expect("a shard thread lives until its inbox closes");
                    active.push(i);
                }
                // Merge the deltas in shard order, then route discoveries
                // to their owners. A shard whose wave panicked gets the
                // wave back with its stack reset to the pre-wave state
                // (which the coordinator still owns) until the wave
                // completes.
                let mut discovered_all: Vec<Candidate> = Vec::new();
                let mut probes_all: Vec<Candidate> = Vec::new();
                for i in active {
                    let link = links[i].as_ref().expect("an active shard has a thread");
                    let delta = loop {
                        let reply = link
                            .replies
                            .recv()
                            .expect("a shard thread answers every wave");
                        match reply {
                            Ok(delta) => break delta,
                            Err(mut assignment) => {
                                // Replay without the injected fault: the
                                // retry is the recovery, and it must
                                // reproduce the wave.
                                shard_deaths += 1;
                                assignment.inject_panic = false;
                                assignment.restore = Some(work[i].stack.clone());
                                if chaos_panic.is_some_and(|(shard, w)| shard == i && w == wave) {
                                    chaos_panic = None;
                                }
                                link.inbox
                                    .send(assignment)
                                    .expect("a shard thread lives until its inbox closes");
                            }
                        }
                    };
                    let w = &mut work[i];
                    w.pages.extend(delta.pages);
                    w.dead_links.extend(delta.dead_links);
                    w.redirects += delta.redirects;
                    w.stack = delta.stack;
                    w.frontier.extract(&delta.dead_pending);
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
                if cut {
                    outcome = ShardedOutcome::Paused;
                    break;
                }

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
            // Close the inboxes now: the shard threads wind down while the
            // final checkpoint and merge run.
            let threads: Vec<_> = links.into_iter().flatten().map(|l| l.thread).collect();

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
            report
                .pages
                .sort_by_cached_key(|p| (p.depth, p.url.to_string()));
            report
                .dead_links
                .sort_by_cached_key(|d| (d.page.to_string(), d.href.clone(), d.reason.clone()));
            // Join before returning, so that the next crawl's threads can
            // reuse these threads' stacks and allocator arenas.
            for thread in threads {
                if let Err(panic) = thread.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            Ok(ShardedReport {
                report,
                telemetry,
                shards,
                waves: wave,
                shard_deaths,
                resumed_from_wave,
                outcome,
            })
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
    use crate::web::SharedWeb;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::thread::ThreadId;
    use std::time::Duration;

    fn page(body: &str) -> String {
        format!(
            "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
             <HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>{body}</BODY></HTML>\n"
        )
    }

    fn start() -> Url {
        Url::parse("http://site/index.html").unwrap()
    }

    /// A plain crawl from [`start`]: one shard over a bare stack.
    fn crawl_site(robot: &Robot, web: &SharedWeb) -> RobotReport {
        robot
            .crawl_sharded(
                &[start()],
                |_| FetchStack::new(web.clone()).build(),
                &ShardedOptions::default(),
            )
            .expect("an in-memory crawl cannot fail")
            .report
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
        let report = crawl_site(&Robot::default(), &SharedWeb::new(web));
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
        let report = crawl_site(&Robot::default(), &SharedWeb::new(web));
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
        let report = crawl_site(&Robot::default(), &SharedWeb::new(web));
        assert_eq!(report.pages.len(), 2);
        assert_eq!(report.redirects_followed, 1);
        assert!(report.dead_links.is_empty());
    }

    #[test]
    fn redirect_loops_bounded() {
        let mut web = SimulatedWeb::new();
        web.add_redirect("http://site/index.html", "http://site/index.html");
        let report = crawl_site(&Robot::default(), &SharedWeb::new(web));
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
        let report = crawl_site(&Robot::default(), &SharedWeb::new(web));
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
        let report = crawl_site(&robot, &SharedWeb::new(web));
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
        let report = crawl_site(&robot, &SharedWeb::new(web));
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
        let report = crawl_site(&Robot::default(), &SharedWeb::new(web));
        assert_eq!(report.total_diagnostics(), 1);
        let bad = report
            .pages
            .iter()
            .find(|p| p.url.path == "/bad.html")
            .unwrap();
        assert_eq!(bad.diagnostics[0].id, "heading-mismatch");
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
        let report = crawl_site(&Robot::default(), &SharedWeb::new(web));
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
        let report = crawl_site(&Robot::default(), &SharedWeb::new(web));
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
        let report = Robot::default()
            .crawl_sharded(
                &[fetcher.start_url()],
                |_| FetchStack::new(StoreFetcher::new(&store, "local")).build(),
                &ShardedOptions::default(),
            )
            .unwrap()
            .report;
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
        web.add_redirect("http://h/loop.html", "http://h/loop.html");
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
        assert_eq!(
            check_url(&f, "http://h/loop.html", &config),
            Err(FetchError::TooManyRedirects(
                "http://h/loop.html".to_string()
            ))
        );
    }

    #[test]
    fn check_url_equals_one_shot_lint_on_a_multi_kib_page() {
        // A multi-KiB body with findings at the top and at the end: the
        // URL flow's report must be byte-identical to linting the page
        // directly.
        let mut body = String::from("<H1>top</H2>");
        for i in 0..600 {
            body.push_str(&format!("<P>paragraph number {i} for padding</P>\n"));
        }
        body.push_str("<IMG SRC=\"x.gif\"><B>tail");
        assert!(body.len() > 16 * 1024, "a multi-KiB page");
        let mut web = SimulatedWeb::new();
        web.add_page("http://h/big.html", body.clone());
        let config = LintConfig::default();
        let via_url = check_url(&WebFetcher::new(&web), "http://h/big.html", &config).unwrap();
        let one_shot = LintSession::with_config(config).check_string(&body);
        assert_eq!(via_url, one_shot);
        assert!(via_url.iter().any(|d| d.id == "img-alt"));
    }

    #[test]
    fn crawl_lints_during_fetch_and_matches_one_shot() {
        // The crawl lints each page on its fetch worker; the report must
        // match linting each page after the fact.
        let mut web = SimulatedWeb::new();
        web.add_page(
            "http://site/index.html",
            page("<H1>x</H2><P><A HREF=\"a.html\">a</A></P>"),
        );
        web.add_redirect("http://site/a.html", "http://site/b.html");
        web.add_page("http://site/b.html", page("<IMG SRC=\"p.gif\">"));
        let web = SharedWeb::new(web);
        let report = crawl_site(&Robot::default(), &web);
        assert_eq!(report.pages.len(), 2);
        let mut weblint = LintSession::with_config(RobotOptions::default().lint.clone());
        for crawled in &report.pages {
            let (_, _, body) = web.get(&crawled.url);
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
        let report = crawl_site(&robot, &SharedWeb::new(web));
        // Depth 0 and 1 are crawled; b.html (depth 2) is not — but the
        // dead link on the depth-1 page is still reported.
        assert_eq!(report.pages.len(), 2);
        assert_eq!(report.max_depth(), 1);
        assert_eq!(report.dead_links.len(), 1);
        assert!(!report.truncated);
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
        let web = SharedWeb::new(web);
        let report = crawl_site(&Robot::default(), &web);
        assert_eq!(report.pages.len(), 1);
        assert!(report.dead_links.is_empty());
        // The image's HEAD, and the seed's GET with no HEAD before it.
        let stats = web.stats();
        assert_eq!((stats.heads, stats.gets), (1, 1));
    }

    #[test]
    fn a_candidate_is_fetched_by_the_plan_its_name_picks() {
        // index links a page, a missing page, a redirect, a directory, an
        // `.html` path serving a picture, an extensionless asset and a
        // `.gif` path serving HTML. The second seed is missing.
        let mut web = SimulatedWeb::new();
        web.add_page(
            "http://site/index.html",
            page(
                "<P><A HREF=\"a.html\">a</A> <A HREF=\"gone.html\">x</A> \
                 <A HREF=\"moved.html\">m</A> <A HREF=\"dir/\">d</A> \
                 <A HREF=\"pic.html\">p</A> <A HREF=\"feed\">f</A> \
                 <A HREF=\"page.gif\">g</A></P>",
            ),
        );
        web.add_page("http://site/a.html", page("<P>leaf</P>"));
        web.add_redirect("http://site/moved.html", "http://site/new.html");
        web.add_page("http://site/new.html", page("<P>landed</P>"));
        web.add_page("http://site/dir/", page("<P>listing</P>"));
        let asset = crate::web::Resource::asset;
        web.add("http://site/pic.html", asset("image/gif"));
        web.add("http://site/feed", asset("application/octet-stream"));
        web.add_page("http://site/page.gif", page("<P>not a picture</P>"));
        let gauge = Gauge::new(SharedWeb::new(web));
        let lost = Url::parse("http://site/lost.html").unwrap();
        let run = Robot::default()
            .crawl_sharded(
                &[start(), lost],
                |_| FetchStack::new(&gauge).build(),
                &ShardedOptions::default(),
            )
            .unwrap();

        let pages: Vec<&str> = run
            .report
            .pages
            .iter()
            .map(|p| p.url.path.as_str())
            .collect();
        assert_eq!(
            pages,
            ["/index.html", "/a.html", "/dir/", "/new.html", "/page.gif"]
        );
        assert_eq!(run.report.redirects_followed, 1);
        // A dead GET on its first hop is attributed as a dead HEAD was:
        // to the page and the href as written, or to a seed itself.
        let dead: Vec<(String, &str, &str)> = run
            .report
            .dead_links
            .iter()
            .map(|d| (d.page.to_string(), d.href.as_str(), d.reason.as_str()))
            .collect();
        assert_eq!(
            dead,
            [
                (
                    "http://site/index.html".to_string(),
                    "gone.html",
                    "404 Not Found"
                ),
                (
                    "http://site/lost.html".to_string(),
                    "http://site/lost.html",
                    "404 Not Found"
                ),
            ]
        );

        // Pages, directories and extensionless names are one GET and no
        // HEAD, whatever they turn out to be; a redirect's GET lands on
        // its target. Another name is HEADed, and GET only if it
        // answers HTML.
        for path in [
            "index.html",
            "lost.html",
            "a.html",
            "gone.html",
            "moved.html",
            "new.html",
            "dir/",
            "pic.html",
            "feed",
        ] {
            assert_eq!(gauge.requests(path), (0, 1), "{path}");
        }
        assert_eq!(gauge.requests("page.gif"), (1, 1));
        assert_eq!((gauge.heads.urls(), gauge.gets.urls()), (1, 10));
    }

    #[test]
    fn a_body_cut_short_on_every_attempt_is_dead_not_a_page() {
        let mut web = SimulatedWeb::new();
        web.add_page(
            "http://site/index.html",
            page("<P><A HREF=\"a.html\">a</A></P>"),
        );
        let web = SharedWeb::new(web);
        let stack = || {
            let truncate = crate::fault::FaultSpec {
                kinds: vec![crate::fault::FaultKind::Truncate],
                ..crate::fault::FaultSpec::all(100)
            };
            FetchStack::new(web.clone())
                .faults(truncate, 1)
                .resilience_defaults()
                .build()
        };
        // Every retry comes up short too: no half page is linted or
        // followed, and the seed is reported dead.
        let run = Robot::default()
            .crawl_sharded(&[start()], |_| stack(), &ShardedOptions::default())
            .unwrap();
        assert!(run.report.pages.is_empty());
        let dead: Vec<(&str, &str)> = run
            .report
            .dead_links
            .iter()
            .map(|d| (d.href.as_str(), d.reason.as_str()))
            .collect();
        assert_eq!(dead, [("http://site/index.html", "truncated body")]);
        let resilience = run.telemetry[0].1.resilience.as_ref().unwrap();
        assert_eq!(
            (resilience.retries_total(), resilience.failures_total()),
            (3, 1)
        );
        // A URL flow cannot get the page either.
        assert_eq!(
            resolve(&stack(), "http://site/index.html"),
            Err(FetchError::Unreachable(
                "http://site/index.html".to_string()
            ))
        );
    }

    /// `index` links `a` and `b`; `a` links `c` and the missing `gone`.
    fn four_page_site() -> SharedWeb {
        let mut web = SimulatedWeb::new();
        web.add_page(
            "http://site/index.html",
            page("<P><A HREF=\"a.html\">a</A> <A HREF=\"b.html\">b</A></P>"),
        );
        web.add_page(
            "http://site/a.html",
            page("<P><A HREF=\"c.html\">c</A> <A HREF=\"gone.html\">x</A></P>"),
        );
        web.add_page("http://site/b.html", page("<P>leaf</P>"));
        web.add_page("http://site/c.html", page("<P>deep</P>"));
        SharedWeb::new(web)
    }

    #[test]
    fn truncated_crawl_still_validates_links_on_crawled_pages() {
        let web = four_page_site();
        let robot = Robot::new(RobotOptions::builder().max_pages(2).build());
        let report = crawl_site(&robot, &web);
        assert!(report.truncated);
        let crawled: Vec<&str> = report.pages.iter().map(|p| p.url.path.as_str()).collect();
        assert_eq!(crawled, ["/index.html", "/a.html"]);
        assert_eq!(report.dead_links.len(), 1, "{:?}", report.dead_links);
        assert_eq!(report.dead_links[0].page.path, "/a.html");
        assert_eq!(report.dead_links[0].href, "gone.html");

        // The live links stay pending: a checkpointed cut resumes with a
        // bigger budget, crawls them, and reports the dead link once.
        let dir = std::env::temp_dir().join(format!("weblint-cut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ShardedOptions {
            checkpoint: Some(CheckpointConfig {
                dir: dir.clone(),
                every_pages: 64,
                config_token: String::new(),
            }),
            resume: true,
            ..ShardedOptions::default()
        };
        let make_stack = |_| FetchStack::new(web.clone()).build();
        let cut = robot.crawl_sharded(&[start()], make_stack, &opts).unwrap();
        assert_eq!(cut.outcome, ShardedOutcome::Paused);
        assert_eq!(cut.report.dead_links.len(), 1);
        let wider = Robot::new(RobotOptions::builder().max_pages(10).build());
        let resumed = wider.crawl_sharded(&[start()], make_stack, &opts).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(resumed.resumed_from_wave.is_some());
        assert_eq!(resumed.outcome, ShardedOutcome::Complete);
        assert!(!resumed.report.truncated);
        assert_eq!(resumed.report.pages.len(), 4);
        assert_eq!(resumed.report.dead_links.len(), 1);
    }

    /// One kind of request as a [`Gauge`] saw it: how many per URL, and
    /// the most ever in flight at once.
    #[derive(Default)]
    struct Tally {
        per_url: Mutex<BTreeMap<String, usize>>,
        in_flight: AtomicUsize,
        peak: AtomicUsize,
    }

    impl Tally {
        fn of(&self, url: &str) -> usize {
            self.per_url.lock().unwrap().get(url).copied().unwrap_or(0)
        }

        fn urls(&self) -> usize {
            self.per_url.lock().unwrap().len()
        }

        fn peak(&self) -> usize {
            self.peak.load(Ordering::SeqCst)
        }
    }

    /// A transport that counts what the robot asks of it: a [`Tally`] of
    /// HEADs and one of GETs, and every thread a request ran on. Each
    /// request lingers a moment so that requests issued together overlap;
    /// nothing asserted reads a clock.
    struct Gauge {
        web: SharedWeb,
        heads: Tally,
        gets: Tally,
        threads: Mutex<HashSet<ThreadId>>,
    }

    impl Gauge {
        fn new(web: SharedWeb) -> Gauge {
            Gauge {
                web,
                heads: Tally::default(),
                gets: Tally::default(),
                threads: Mutex::new(HashSet::new()),
            }
        }

        fn threads(&self) -> usize {
            self.threads.lock().unwrap().len()
        }

        /// `(HEADs, GETs)` of `http://site/{path}`.
        fn requests(&self, path: &str) -> (usize, usize) {
            let url = format!("http://site/{path}");
            (self.heads.of(&url), self.gets.of(&url))
        }

        /// Count one request of `url` in `tally` and answer it.
        fn track<T>(&self, tally: &Tally, url: &Url, answer: impl FnOnce() -> T) -> T {
            self.threads
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
            *tally
                .per_url
                .lock()
                .unwrap()
                .entry(url.to_string())
                .or_insert(0) += 1;
            let now = tally.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            tally.peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(5));
            let answer = answer();
            tally.in_flight.fetch_sub(1, Ordering::SeqCst);
            answer
        }
    }

    impl Fetcher for &Gauge {
        fn head(&self, url: &Url) -> (Status, String) {
            self.track(&self.heads, url, || self.web.head(url))
        }

        fn get(&self, url: &Url) -> (Status, String, String) {
            self.track(&self.gets, url, || self.web.get(url))
        }
    }

    /// One host whose index links ten pages and six pictures; the last
    /// page starts a chain of four more, one page a wave.
    fn wide_site() -> SharedWeb {
        let mut web = SimulatedWeb::new();
        let links: String = (1..=10)
            .map(|i| format!("<A HREF=\"p{i}.html\">{i}</A> "))
            .chain((1..=6).map(|i| format!("<A HREF=\"i{i}.gif\">{i}</A> ")))
            .collect();
        web.add_page("http://site/index.html", page(&format!("<P>{links}</P>")));
        for i in 1..=9 {
            web.add_page(&format!("http://site/p{i}.html"), page("<P>leaf</P>"));
        }
        for i in 1..=6 {
            web.add(
                &format!("http://site/i{i}.gif"),
                crate::web::Resource::asset("image/gif"),
            );
        }
        web.add_page(
            "http://site/p10.html",
            page("<P><A HREF=\"c1.html\">on</A></P>"),
        );
        for i in 1..=4 {
            let next = format!("<P><A HREF=\"c{}.html\">on</A></P>", i + 1);
            let body = if i < 4 {
                page(&next)
            } else {
                page("<P>end</P>")
            };
            web.add_page(&format!("http://site/c{i}.html"), body);
        }
        SharedWeb::new(web)
    }

    #[test]
    fn head_checks_go_out_jobs_wide_on_one_pool_per_crawl() {
        // The host's AIMD limit is pinned at 3, below the width of 4.
        let crawl = |jobs: usize| {
            let gauge = Gauge::new(wide_site());
            let robot = Robot::new(RobotOptions::builder().jobs(jobs).build());
            let make_stack = |_| {
                FetchStack::new(&gauge)
                    .adaptive_defaults()
                    .build()
                    .cap_limit(3)
            };
            let run = robot
                .crawl_sharded(&[start()], make_stack, &ShardedOptions::default())
                .unwrap();
            assert_eq!(run.report.pages.len(), 15);
            // A page's GET is its link check; only the pictures are HEADed.
            assert_eq!(gauge.gets.urls(), 15, "one GET per page");
            assert_eq!(gauge.heads.urls(), 6, "one HEAD per picture");
            assert_eq!(
                (gauge.requests("p1.html"), gauge.requests("i1.gif")),
                ((0, 1), (1, 0))
            );
            // More waves than the widest pool has threads: a crawl that
            // spawned its fetching threads per wave would show more.
            assert!(run.waves > 4, "{} waves", run.waves);
            (gauge.heads.peak(), gauge.gets.peak(), gauge.threads())
        };

        // One wide: one request at a time, every fetch of the crawl on
        // the one shard thread.
        let (heads, gets, threads) = crawl(1);
        assert_eq!((heads, gets), (1, 1));
        assert_eq!(threads, 1, "{threads} fetching threads at jobs 1");

        // Four wide: HEADs overlap and GETs overlap, but never past the
        // host's limit, and every batch of every wave shares the shard's
        // one set of workers.
        let (heads, gets, threads) = crawl(4);
        assert!((2..=3).contains(&heads), "peak {heads} HEADs in flight");
        assert!((2..=3).contains(&gets), "peak {gets} GETs in flight");
        assert!(threads <= 4, "{threads} fetching threads at jobs 4");
    }

    #[test]
    fn a_panicking_batch_finishes_every_request_before_it_unwinds() {
        // The shard replays a panicked wave on the same stack, so no
        // request of the batch may still be running when the panic
        // reaches the shard's wave loop.
        let finished = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let pool = FetchPool::spawn(scope, 3);
            let finished = &finished;
            let batch = (0..4).map(|i| {
                move || {
                    if i == 0 {
                        panic!("request died");
                    }
                    std::thread::sleep(Duration::from_millis(20));
                    finished.fetch_add(1, Ordering::SeqCst);
                }
            });
            let died = catch_unwind(AssertUnwindSafe(|| pool.run(batch)));
            assert!(died.is_err());
            assert_eq!(finished.load(Ordering::SeqCst), 3);
        });
    }

    #[test]
    fn resumed_cuts_report_once_and_recheck_pending_links() {
        // index -> a, b; a -> c, gone; b -> gone2.
        let mut web = SimulatedWeb::new();
        web.add_page(
            "http://site/index.html",
            page("<P><A HREF=\"a.html\">a</A> <A HREF=\"b.html\">b</A></P>"),
        );
        web.add_page(
            "http://site/a.html",
            page("<P><A HREF=\"c.html\">c</A> <A HREF=\"gone.html\">x</A></P>"),
        );
        web.add_page(
            "http://site/b.html",
            page("<P><A HREF=\"gone2.html\">y</A></P>"),
        );
        web.add_page("http://site/c.html", page("<P>deep</P>"));
        let gauge = Gauge::new(SharedWeb::new(web));
        let dir = std::env::temp_dir().join(format!("weblint-recut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ShardedOptions {
            checkpoint: Some(CheckpointConfig {
                dir: dir.clone(),
                every_pages: 64,
                config_token: String::new(),
            }),
            resume: true,
            ..ShardedOptions::default()
        };
        let crawl = |max_pages: usize| {
            let robot = Robot::new(RobotOptions::builder().max_pages(max_pages).build());
            let make_stack = |_| FetchStack::new(&gauge).build();
            robot.crawl_sharded(&[start()], make_stack, &opts).unwrap()
        };
        let heads = |path: &str| gauge.requests(path).0;

        // Cut after index and a: the cut HEADs b, c and gone; gone is
        // reported and leaves the frontier, b and c stay pending.
        let first = crawl(2);
        assert_eq!(first.outcome, ShardedOutcome::Paused);
        assert_eq!(
            (heads("b.html"), heads("c.html"), heads("gone.html")),
            (1, 1, 1)
        );

        // Resume one page wider: b is crawled, its GET its own check; the
        // second cut HEADs c again, and gone2 once.
        let second = crawl(3);
        assert_eq!(second.outcome, ShardedOutcome::Paused);
        assert!(second.report.truncated);
        assert_eq!((heads("b.html"), heads("c.html")), (1, 2));
        assert_eq!(heads("gone2.html"), 1);

        // Resume to completion: c, HEADed once by each cut, is crawled
        // with no third HEAD. Nothing dead is ever re-checked, and every
        // page is one GET.
        let last = crawl(10);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(last.outcome, ShardedOutcome::Complete);
        assert!(!last.report.truncated);
        assert_eq!((heads("b.html"), heads("c.html")), (1, 2));
        assert_eq!((heads("gone.html"), heads("gone2.html")), (1, 1));
        assert_eq!((heads("index.html"), heads("a.html")), (0, 0));
        for path in ["index.html", "a.html", "b.html", "c.html"] {
            assert_eq!(gauge.requests(path).1, 1, "GETs of {path}");
        }
        assert_eq!(gauge.gets.urls(), 4, "nothing dead is fetched");

        // Every page and every dead link appears exactly once.
        let pages: Vec<&str> = last
            .report
            .pages
            .iter()
            .map(|p| p.url.path.as_str())
            .collect();
        assert_eq!(pages, ["/index.html", "/a.html", "/b.html", "/c.html"]);
        let dead: Vec<(&str, &str)> = last
            .report
            .dead_links
            .iter()
            .map(|d| (d.page.path.as_str(), d.href.as_str()))
            .collect();
        assert_eq!(dead, [("/a.html", "gone.html"), ("/b.html", "gone2.html")]);
    }
}
