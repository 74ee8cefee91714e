//! The lint service: a worker pool in front of the engine.

use std::borrow::Cow;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use weblint_core::{Diagnostic, LintConfig, LintSession};

use crate::cache::{config_fingerprint, CacheKey, ResultCache};
use crate::fnv::fnv1a;
use crate::metrics::{Counters, ServiceMetrics};
use crate::queue::{BoundedQueue, SubmitError, SubmitPolicy};

/// How a worker pool is sized and behaves.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads. Defaults to the machine's available parallelism,
    /// capped at 8 — linting is CPU-bound, more threads just thrash.
    pub workers: usize,
    /// Bounded job-queue capacity; `submit` applies `policy` when full.
    pub queue_capacity: usize,
    /// Result-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
    /// What `submit` does when the queue is full.
    pub policy: SubmitPolicy,
    /// Base lint configuration jobs run under (unless overridden per-job).
    pub lint: LintConfig,
    /// Deliberately panic any job whose source contains [`PANIC_MARKER`].
    /// A chaos hook for tests and the `-smoke` harness; off by default.
    pub enable_panic_marker: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        let workers = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .min(8);
        ServiceConfig {
            workers,
            queue_capacity: 256,
            cache_capacity: 1024,
            policy: SubmitPolicy::Block,
            lint: LintConfig::default(),
            enable_panic_marker: false,
        }
    }
}

/// Sources containing this marker panic their worker when
/// [`ServiceConfig::enable_panic_marker`] is set — the chaos suite's way
/// of exercising panic isolation end to end without a buggy engine.
pub const PANIC_MARKER: &str = "<!--weblint:chaos:panic-->";

/// Why a submitted job produced no diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// The lint panicked (a bug in the engine) or the worker died before
    /// replying.
    WorkerPanicked,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::WorkerPanicked => f.write_str("lint worker panicked"),
        }
    }
}

impl std::error::Error for JobError {}

/// The outcome of one lint job.
pub type JobResult = Result<Vec<Diagnostic>, JobError>;

/// A ticket for one submitted job; redeem it with [`JobHandle::wait`].
///
/// Handles are how callers preserve ordering under concurrency: submit a
/// batch, keep the handles in submit order, wait on them in that order —
/// the output sequence is then independent of which worker finished first.
#[derive(Debug)]
pub struct JobHandle {
    rx: mpsc::Receiver<JobResult>,
}

impl JobHandle {
    /// Block until the job finishes and take its result.
    pub fn wait(self) -> JobResult {
        self.rx.recv().unwrap_or(Err(JobError::WorkerPanicked))
    }

    fn immediate(result: JobResult) -> JobHandle {
        let (tx, rx) = mpsc::channel();
        let _ = tx.send(result);
        JobHandle { rx }
    }
}

struct Job {
    source: String,
    /// Per-job configuration override (pages with pragmas); `None` means
    /// the service's base configuration.
    config: Option<Arc<LintConfig>>,
    /// Fingerprint of the effective configuration.
    fingerprint: u64,
    content_hash: u64,
    enqueued: Instant,
    reply: mpsc::Sender<JobResult>,
}

struct Shared {
    queue: BoundedQueue<Job>,
    cache: Option<ResultCache>,
    /// In-flight duplicate coalescing: while a job for a key is queued or
    /// being linted, identical submissions attach a reply sender here
    /// instead of linting the same bytes again (single lint, many hits).
    /// Only maintained when the cache is enabled — it shares the cache's
    /// notion of "identical" (content hash + config fingerprint).
    pending: Mutex<HashMap<CacheKey, Vec<mpsc::Sender<JobResult>>>>,
    base: Arc<LintConfig>,
    base_fingerprint: u64,
    panic_marker: bool,
    counters: Counters,
}

/// A concurrent lint service: N worker threads pull jobs off a bounded
/// queue, lint them, and reply through per-job channels; results are
/// memoized in a sharded LRU cache keyed by content hash and configuration
/// fingerprint.
///
/// Built on `std` threads and channels only — no async runtime.
///
/// # Examples
///
/// ```
/// use weblint_service::{LintService, ServiceConfig};
///
/// let service = LintService::new(ServiceConfig {
///     workers: 2,
///     ..ServiceConfig::default()
/// });
/// let handle = service.submit("<H1>hello</H2>").unwrap();
/// let diags = handle.wait().unwrap();
/// assert!(diags.iter().any(|d| d.id == "heading-mismatch"));
/// assert_eq!(service.metrics().jobs_completed, 1);
/// ```
pub struct LintService {
    shared: Arc<Shared>,
    policy: SubmitPolicy,
    workers: Vec<JoinHandle<()>>,
}

impl LintService {
    /// Start the worker pool described by `config`.
    pub fn new(config: ServiceConfig) -> LintService {
        let ServiceConfig {
            workers,
            queue_capacity,
            cache_capacity,
            policy,
            lint,
            enable_panic_marker,
        } = config;
        let workers = workers.max(1);
        let base = Arc::new(lint);
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(queue_capacity),
            cache: (cache_capacity > 0).then(|| ResultCache::new(cache_capacity)),
            pending: Mutex::new(HashMap::new()),
            base_fingerprint: config_fingerprint(&base),
            base,
            panic_marker: enable_panic_marker,
            counters: Counters::new(workers),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("weblint-worker-{i}"))
                    .spawn(move || {
                        // A clean return means the queue closed. A panic
                        // means a job unwound the worker: its JobGuard has
                        // already answered the caller and any coalesced
                        // waiters, so just count the respawn and re-enter.
                        while catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, i))).is_err() {
                            shared.counters.respawned.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                    .expect("spawn lint worker")
            })
            .collect();
        LintService {
            shared,
            policy,
            workers: handles,
        }
    }

    /// A service with default sizing over `config`.
    pub fn with_config(config: LintConfig) -> LintService {
        LintService::new(ServiceConfig {
            lint: config,
            ..ServiceConfig::default()
        })
    }

    /// Submit one document under the service's base configuration.
    ///
    /// Accepts either borrowed or owned sources. A borrowed source is only
    /// copied if the job actually reaches the queue — cache hits and
    /// coalesced joins are answered without allocating.
    pub fn submit<'a>(&self, source: impl Into<Cow<'a, str>>) -> Result<JobHandle, SubmitError> {
        self.submit_with(source, None)
    }

    /// Submit one document, optionally overriding the configuration (the
    /// CLI and site checker use this for pages carrying pragmas).
    pub fn submit_with<'a>(
        &self,
        source: impl Into<Cow<'a, str>>,
        config: Option<LintConfig>,
    ) -> Result<JobHandle, SubmitError> {
        self.submit_inner(source.into(), config, self.policy)
    }

    fn submit_inner(
        &self,
        source: Cow<'_, str>,
        config: Option<LintConfig>,
        policy: SubmitPolicy,
    ) -> Result<JobHandle, SubmitError> {
        if self.shared.queue.is_closed() {
            self.shared
                .counters
                .rejected
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::ShutDown);
        }
        let (config, fingerprint) = match config {
            Some(c) => {
                let fp = config_fingerprint(&c);
                (Some(Arc::new(c)), fp)
            }
            None => (None, self.shared.base_fingerprint),
        };
        let content_hash = fnv1a(source.as_bytes());
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);

        let key = CacheKey {
            content: content_hash,
            config: fingerprint,
        };
        // Serve from cache, or attach to an identical in-flight job. The
        // pending lock is held across the cache probe so a worker cannot
        // publish a result between our miss and our attach.
        if let Some(cache) = &self.shared.cache {
            let mut pending = self.shared.pending.lock().unwrap();
            if let Some(diags) = cache.get(&key) {
                drop(pending);
                self.shared
                    .counters
                    .cache_served
                    .fetch_add(1, Ordering::Relaxed);
                self.shared
                    .counters
                    .completed
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(JobHandle::immediate(Ok(diags.as_ref().clone())));
            }
            if let Some(waiters) = pending.get_mut(&key) {
                let (tx, rx) = mpsc::channel();
                waiters.push(tx);
                self.shared
                    .counters
                    .coalesced
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(JobHandle { rx });
            }
            // This submission is the leader for the key: announce the
            // in-flight job before enqueueing it. (Not across the push —
            // a Block push can wait on workers, and workers take this
            // lock to publish.)
            pending.insert(key, Vec::new());
        }

        let (tx, rx) = mpsc::channel();
        let job = Job {
            // The only point the submit path takes ownership of the bytes:
            // everything before here works on the borrowed form.
            source: source.into_owned(),
            config,
            fingerprint,
            content_hash,
            enqueued: Instant::now(),
            reply: tx,
        };
        match self.shared.queue.push(job, policy) {
            Ok(()) => Ok(JobHandle { rx }),
            Err((job, err)) => {
                // The job never reached the queue. Any identical
                // submission that attached to it in the meantime was
                // already promised a result, so lint inline on its behalf
                // (rare: a full queue under Reject, or a shutdown race).
                if self.shared.cache.is_some() {
                    let waiters = self
                        .shared
                        .pending
                        .lock()
                        .unwrap()
                        .remove(&key)
                        .unwrap_or_default();
                    if !waiters.is_empty() {
                        let config = job
                            .config
                            .as_deref()
                            .cloned()
                            .unwrap_or_else(|| self.shared.base.as_ref().clone());
                        let result = lint_with(config, &job.source);
                        if let Ok(diags) = &result {
                            self.shared.counters.count_rule_hits(diags);
                        }
                        self.shared.answer_waiters(key, waiters, &result);
                    }
                }
                self.shared
                    .counters
                    .rejected
                    .fetch_add(1, Ordering::Relaxed);
                // The submission never became a job.
                self.shared
                    .counters
                    .submitted
                    .fetch_sub(1, Ordering::Relaxed);
                Err(err)
            }
        }
    }

    /// Lint a batch of documents, blocking until all are done. Results come
    /// back in submit order regardless of which worker finished first.
    ///
    /// The batch always uses [`SubmitPolicy::Block`] internally so it
    /// cannot lose members to a full queue.
    pub fn lint_batch<'a, I>(&self, sources: I) -> Vec<JobResult>
    where
        I: IntoIterator,
        I::Item: Into<Cow<'a, str>>,
    {
        let handles: Vec<Result<JobHandle, SubmitError>> = sources
            .into_iter()
            .map(|s| self.submit_inner(s.into(), None, SubmitPolicy::Block))
            .collect();
        handles
            .into_iter()
            .map(|h| match h {
                Ok(handle) => handle.wait(),
                Err(_) => Err(JobError::WorkerPanicked),
            })
            .collect()
    }

    /// The base configuration jobs run under.
    pub fn config(&self) -> &LintConfig {
        &self.shared.base
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Snapshot all counters.
    pub fn metrics(&self) -> ServiceMetrics {
        let c = &self.shared.counters;
        ServiceMetrics {
            workers: self.workers.len(),
            jobs_submitted: c.submitted.load(Ordering::Relaxed),
            jobs_completed: c.completed.load(Ordering::Relaxed),
            jobs_failed: c.failed.load(Ordering::Relaxed),
            jobs_rejected: c.rejected.load(Ordering::Relaxed),
            cache_served: c.cache_served.load(Ordering::Relaxed),
            jobs_coalesced: c.coalesced.load(Ordering::Relaxed),
            worker_panics: c.panicked.load(Ordering::Relaxed),
            worker_respawns: c.respawned.load(Ordering::Relaxed),
            per_worker_completed: c
                .per_worker
                .iter()
                .map(|n| n.load(Ordering::Relaxed))
                .collect(),
            queue_depth: self.shared.queue.len(),
            queue_high_water: self.shared.queue.high_water(),
            cache: self
                .shared
                .cache
                .as_ref()
                .map(|c| c.stats())
                .unwrap_or_default(),
            queue_wait: std::time::Duration::from_nanos(c.queue_wait_nanos.load(Ordering::Relaxed)),
            lint_time: std::time::Duration::from_nanos(c.lint_nanos.load(Ordering::Relaxed)),
            rule_hits: c.rule_hit_pairs(),
        }
    }

    /// Stop accepting new jobs. Jobs already queued still run; workers
    /// exit once the queue drains. Idempotent.
    pub fn shutdown(&self) {
        self.shared.queue.close();
    }
}

impl Drop for LintService {
    /// Closes the queue and joins every worker. Queued jobs are drained,
    /// not dropped — any outstanding [`JobHandle`] can still be waited on.
    fn drop(&mut self) {
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for LintService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LintService")
            .field("workers", &self.workers.len())
            .field("metrics", &self.metrics())
            .finish()
    }
}

impl Shared {
    /// Publish a finished job for `key`: memoize the result, detach every
    /// coalesced waiter, and answer them all. The cache insert happens
    /// *before* the pending entry is removed so a racing prober always
    /// finds one or the other — never the gap between them.
    fn publish(&self, key: CacheKey, result: &JobResult) {
        self.memoize(key, result);
        let waiters = if self.cache.is_some() {
            self.pending
                .lock()
                .unwrap()
                .remove(&key)
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        self.send_to_waiters(waiters, result);
    }

    /// The submit-failure path: the waiters are already detached, so just
    /// memoize and answer them.
    fn answer_waiters(
        &self,
        key: CacheKey,
        waiters: Vec<mpsc::Sender<JobResult>>,
        result: &JobResult,
    ) {
        self.memoize(key, result);
        self.send_to_waiters(waiters, result);
    }

    fn memoize(&self, key: CacheKey, result: &JobResult) {
        if let (Ok(diags), Some(cache)) = (result, &self.cache) {
            cache.insert(key, Arc::new(diags.clone()));
        }
    }

    fn send_to_waiters(&self, waiters: Vec<mpsc::Sender<JobResult>>, result: &JobResult) {
        if waiters.is_empty() {
            return;
        }
        let n = waiters.len() as u64;
        match result {
            Ok(_) => self.counters.completed.fetch_add(n, Ordering::Relaxed),
            Err(_) => self.counters.failed.fetch_add(n, Ordering::Relaxed),
        };
        for tx in waiters {
            let _ = tx.send(match result {
                Ok(diags) => Ok(diags.clone()),
                Err(e) => Err(*e),
            });
        }
    }
}

/// Answers a job's caller — and every coalesced waiter — if the lint
/// unwinds the worker. Without it a panicking job would leave the primary
/// caller covered (its channel closes, `wait` maps that to an error) but
/// coalesced waiters attached to the pending entry would hang forever:
/// nothing ever publishes for the key.
struct JobGuard<'a> {
    shared: &'a Shared,
    key: CacheKey,
    reply: Option<mpsc::Sender<JobResult>>,
}

impl JobGuard<'_> {
    /// The happy path: the lint returned, take the reply sender back and
    /// defuse the drop behavior.
    fn disarm(mut self) -> mpsc::Sender<JobResult> {
        self.reply.take().expect("guard disarmed twice")
    }
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        let Some(reply) = self.reply.take() else {
            return;
        };
        // Only reached while unwinding out of a panicking lint. The
        // pending mutex may have been poisoned by this same panic; take
        // the data regardless — consistency here is answering waiters.
        let result: JobResult = Err(JobError::WorkerPanicked);
        self.shared
            .counters
            .panicked
            .fetch_add(1, Ordering::Relaxed);
        self.shared.counters.failed.fetch_add(1, Ordering::Relaxed);
        let _ = reply.send(Err(JobError::WorkerPanicked));
        if self.shared.cache.is_some() {
            let waiters = self
                .shared
                .pending
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .remove(&self.key)
                .unwrap_or_default();
            self.shared.send_to_waiters(waiters, &result);
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    // Each worker owns one reusable session built from the base
    // configuration and a tiny cache of sessions for pragma-override
    // configurations. Sessions carry the engine's scratch buffers across
    // jobs, so a steady-state worker lints without per-document allocation
    // churn. Rebuilt on respawn after a panic, which also discards any
    // scratch state the unwind left behind.
    let mut base_session = LintSession::with_config(shared.base.as_ref().clone());
    let mut override_sessions: Vec<(u64, LintSession)> = Vec::new();
    const OVERRIDE_SESSIONS: usize = 4;

    while let Some(job) = shared.queue.pop() {
        shared.counters.add_queue_wait(job.enqueued.elapsed());

        let key = CacheKey {
            content: job.content_hash,
            config: job.fingerprint,
        };
        // Armed before the lint runs: a panicking job must answer its
        // caller and waiters on the way out of the unwind.
        let guard = JobGuard {
            shared,
            key,
            reply: Some(job.reply),
        };
        if shared.panic_marker && job.source.contains(PANIC_MARKER) {
            panic!("lint job carries {PANIC_MARKER}");
        }

        let started = Instant::now();
        let diags = if job.fingerprint == shared.base_fingerprint {
            base_session.check_string(&job.source)
        } else {
            let session = match override_sessions
                .iter()
                .position(|(fp, _)| *fp == job.fingerprint)
            {
                Some(i) => &mut override_sessions[i].1,
                None => {
                    let config = job
                        .config
                        .as_deref()
                        .cloned()
                        .unwrap_or_else(|| shared.base.as_ref().clone());
                    if override_sessions.len() >= OVERRIDE_SESSIONS {
                        override_sessions.remove(0);
                    }
                    override_sessions.push((job.fingerprint, LintSession::with_config(config)));
                    &mut override_sessions.last_mut().expect("just pushed").1
                }
            };
            session.check_string(&job.source)
        };
        shared.counters.add_lint_time(started.elapsed());
        shared.counters.per_worker[index].fetch_add(1, Ordering::Relaxed);
        shared.counters.count_rule_hits(&diags);

        let reply = guard.disarm();
        let result = Ok(diags);
        shared.publish(key, &result);
        shared.counters.completed.fetch_add(1, Ordering::Relaxed);
        let _ = reply.send(result);
    }
}

fn lint_with(config: LintConfig, source: &str) -> JobResult {
    // The inline fallback path runs on the *caller's* thread, where an
    // engine panic has no respawning guard — contain it here.
    catch_unwind(AssertUnwindSafe(|| {
        LintSession::with_config(config).check_string(source)
    }))
    .map_err(|_| JobError::WorkerPanicked)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_service(workers: usize) -> LintService {
        LintService::new(ServiceConfig {
            workers,
            queue_capacity: 8,
            cache_capacity: 32,
            policy: SubmitPolicy::Block,
            lint: LintConfig::default(),
            enable_panic_marker: false,
        })
    }

    #[test]
    fn single_job_round_trips() {
        let service = small_service(2);
        let diags = service.submit("<H1>x</H2>").unwrap().wait().unwrap();
        assert!(diags.iter().any(|d| d.id == "heading-mismatch"));
        let m = service.metrics();
        assert_eq!(m.jobs_submitted, 1);
        assert_eq!(m.jobs_completed, 1);
        assert_eq!(m.jobs_failed, 0);
    }

    #[test]
    fn batch_results_are_in_submit_order() {
        let service = small_service(4);
        let docs: Vec<String> = (0..40)
            .map(|i| {
                format!(
                    "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><H{h}>x</H{h}></BODY></HTML>",
                    h = i % 3 + 1
                )
            })
            .collect();
        let sequential: Vec<Vec<Diagnostic>> = {
            let mut session = LintSession::new();
            docs.iter().map(|d| session.check_string(d)).collect()
        };
        let batch = service.lint_batch(docs.iter().map(String::as_str));
        let batch: Vec<Vec<Diagnostic>> = batch.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(batch, sequential);
    }

    #[test]
    fn metrics_count_per_rule_hits() {
        let service = small_service(2);
        service.submit("<H1>x</H2>").unwrap().wait().unwrap();
        service
            .submit("<IMG SRC=a><IMG SRC=b>")
            .unwrap()
            .wait()
            .unwrap();
        let m = service.metrics();
        let hits: std::collections::HashMap<&str, u64> = m.rule_hits.iter().copied().collect();
        assert_eq!(hits.get("heading-mismatch"), Some(&1), "{:?}", m.rule_hits);
        assert_eq!(hits.get("img-alt"), Some(&2), "{:?}", m.rule_hits);
        assert!(m.to_string().contains("rule hits:"), "{m}");
        // A cache-served resubmission does not double-count.
        service.submit("<H1>x</H2>").unwrap().wait().unwrap();
        let again = service.metrics();
        let hits: std::collections::HashMap<&str, u64> = again.rule_hits.iter().copied().collect();
        assert_eq!(
            hits.get("heading-mismatch"),
            Some(&1),
            "{:?}",
            again.rule_hits
        );
    }

    #[test]
    fn identical_documents_hit_the_cache() {
        let service = small_service(2);
        let doc = "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><P>hi</BODY></HTML>";
        let first = service.submit(doc).unwrap().wait().unwrap();
        // Let the worker finish and populate the cache before resubmitting.
        let second = service.submit(doc).unwrap().wait().unwrap();
        assert_eq!(first, second);
        let m = service.metrics();
        assert_eq!(m.cache.hits, 1, "{m:?}");
        assert_eq!(m.cache_served, 1);
    }

    #[test]
    fn config_override_changes_results_not_cache_collisions() {
        let service = small_service(2);
        let doc = "<IMG SRC=x>"; // img-alt fires under the default config
        let with_default = service.submit(doc).unwrap().wait().unwrap();
        assert!(with_default.iter().any(|d| d.id == "img-alt"));

        let mut quiet = LintConfig::default();
        quiet.disable("img-alt").unwrap();
        let with_override = service
            .submit_with(doc.to_string(), Some(quiet))
            .unwrap()
            .wait()
            .unwrap();
        assert!(!with_override.iter().any(|d| d.id == "img-alt"));
    }

    #[test]
    fn submit_after_shutdown_errors() {
        let service = small_service(1);
        service.shutdown();
        assert_eq!(service.submit("<P>").unwrap_err(), SubmitError::ShutDown);
        let m = service.metrics();
        assert_eq!(m.jobs_rejected, 1);
        assert_eq!(m.jobs_submitted, 0);
    }

    #[test]
    fn reject_policy_surfaces_queue_full() {
        // One worker, tiny queue, slow drain: flood it and expect at least
        // one rejection once capacity + in-flight are exceeded.
        let service = LintService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            cache_capacity: 0,
            policy: SubmitPolicy::Reject,
            lint: LintConfig::default(),
            enable_panic_marker: false,
        });
        let doc = "<HTML>".repeat(200);
        let mut handles = Vec::new();
        let mut saw_full = false;
        for _ in 0..64 {
            match service.submit(doc.as_str()) {
                Ok(h) => handles.push(h),
                Err(SubmitError::QueueFull) => saw_full = true,
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert!(saw_full, "64 instant submits never filled a 1-slot queue");
        for h in handles {
            h.wait().unwrap();
        }
    }

    fn chaos_service(workers: usize) -> LintService {
        LintService::new(ServiceConfig {
            workers,
            queue_capacity: 8,
            cache_capacity: 32,
            policy: SubmitPolicy::Block,
            lint: LintConfig::default(),
            enable_panic_marker: true,
        })
    }

    #[test]
    fn panicking_job_errors_and_the_worker_respawns() {
        let service = chaos_service(1);
        let poison = format!("<P>{PANIC_MARKER}</P>");
        let err = service.submit(poison.as_str()).unwrap().wait().unwrap_err();
        assert_eq!(err, JobError::WorkerPanicked);
        // The pool survives: the single worker must have respawned for the
        // next job to complete at all.
        let diags = service.submit("<H1>x</H2>").unwrap().wait().unwrap();
        assert!(diags.iter().any(|d| d.id == "heading-mismatch"));
        let m = service.metrics();
        assert_eq!(m.worker_panics, 1, "{m:?}");
        assert_eq!(m.worker_respawns, 1, "{m:?}");
        assert_eq!(m.jobs_failed, 1, "{m:?}");
        assert_eq!(m.jobs_completed, 1, "{m:?}");
    }

    #[test]
    fn coalesced_waiters_observe_the_panic_instead_of_hanging() {
        // One worker, occupied by a deliberately large document, so the
        // poisoned leader sits in the queue while its duplicate attaches
        // to the pending entry. When the leader's lint panics, both the
        // leader and the coalesced duplicate must see an error — before
        // this guard existed, the duplicate's channel was simply never
        // answered and its wait() hung forever.
        let service = chaos_service(1);
        let blocker = "<P>blocker</P>".repeat(20_000);
        let slow = service.submit(blocker.as_str()).unwrap();
        let poison = format!("<P>{PANIC_MARKER}</P>");
        let leader = service.submit(poison.as_str()).unwrap();
        let duplicate = service.submit(poison.as_str()).unwrap();

        assert!(slow.wait().is_ok());
        assert_eq!(leader.wait().unwrap_err(), JobError::WorkerPanicked);
        assert_eq!(duplicate.wait().unwrap_err(), JobError::WorkerPanicked);

        // The pool still lints afterwards.
        assert!(service.submit("<P>fine</P>").unwrap().wait().is_ok());
        let m = service.metrics();
        assert_eq!(m.jobs_coalesced, 1, "duplicate did not coalesce: {m:?}");
        assert_eq!(m.worker_panics, 1, "{m:?}");
        assert_eq!(m.jobs_failed, 2, "leader and duplicate: {m:?}");
    }

    #[test]
    fn marker_is_inert_unless_enabled() {
        let service = small_service(1);
        let poison = format!("<P>{PANIC_MARKER}</P>");
        let diags = service.submit(poison.as_str()).unwrap().wait();
        assert!(diags.is_ok(), "{diags:?}");
        assert_eq!(service.metrics().worker_panics, 0);
    }
}
