//! Fault injection and resilience: two layers of a
//! [`FetchStack`](crate::FetchStack).
//!
//! The paper's poacher and `-R` mode exist because the real web fails:
//! hosts stall, connections drop, pages arrive truncated (§3.5 wants
//! robots that "handle redirects" and survive dead links). The simulated
//! web is a perfect oracle, so this module makes it imperfect on demand —
//! and teaches the crawl to cope:
//!
//! * [`FaultLayer`] injects *deterministic, seeded* faults into whatever
//!   transport each request is handed: added latency, timeouts,
//!   transient 5xx, connection resets, and truncated bodies. Same seed,
//!   same spec, same request sequence → byte-identical fault schedule.
//! * [`ResilienceLayer`] adds bounded retries with exponential backoff
//!   and deterministic jitter, plus a per-host circuit breaker
//!   (closed → open → half-open) so a dying host degrades to fast
//!   failures instead of hammering it on every link.
//!
//! Neither is generic: each takes the transport as a `&dyn Fetcher`
//! argument, so its code compiles once, here. Both keep per-host
//! statistics so every injected fault is accounted for: a transient
//! fault either burns a retry or becomes a final failure, and the chaos
//! suite asserts exactly that balance.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Mutex;

use weblint_core::fnv1a;

use crate::robot::Fetcher;
use crate::url::Url;
use crate::web::Status;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The request succeeds but the (simulated) wire is slow.
    Latency,
    /// The request times out: [`Status::TimedOut`].
    Timeout,
    /// The host answers a transient 5xx: [`Status::ServerError`].
    ServerError,
    /// The connection is reset mid-request: [`Status::Reset`].
    Reset,
    /// A GET succeeds but the body arrives cut off halfway.
    Truncate,
}

impl FaultKind {
    /// Every kind, in spec order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Latency,
        FaultKind::Timeout,
        FaultKind::ServerError,
        FaultKind::Reset,
        FaultKind::Truncate,
    ];

    /// The spec-string name (`latency`, `timeout`, `5xx`, `reset`,
    /// `truncate`).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Latency => "latency",
            FaultKind::Timeout => "timeout",
            FaultKind::ServerError => "5xx",
            FaultKind::Reset => "reset",
            FaultKind::Truncate => "truncate",
        }
    }
}

/// What to inject and how often.
///
/// Parsed from the CLI's `-faults` spec: `RATE%` or
/// `RATE%:KIND+KIND+…`, e.g. `20%` (every kind at 20%) or
/// `5%:timeout+5xx`. A trailing `@HOST` confines injection to one host
/// (`50%@flaky`, `50%:timeout@flaky`) so a multi-host workload can have
/// exactly one struggling host.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Percent of requests that receive a fault (0–100).
    pub rate_percent: u8,
    /// Kinds to draw from when a request is faulted.
    pub kinds: Vec<FaultKind>,
    /// Simulated microseconds a [`FaultKind::Latency`] fault adds.
    pub added_latency_us: u64,
    /// Only fault requests to this host (every host when `None`).
    pub host: Option<String>,
}

impl FaultSpec {
    /// Every fault kind at the given rate.
    pub fn all(rate_percent: u8) -> FaultSpec {
        FaultSpec {
            rate_percent: rate_percent.min(100),
            kinds: FaultKind::ALL.to_vec(),
            added_latency_us: 250_000,
            host: None,
        }
    }

    /// [`FaultSpec::all`], confined to one host.
    pub fn all_at(rate_percent: u8, host: &str) -> FaultSpec {
        FaultSpec {
            host: Some(host.to_ascii_lowercase()),
            ..FaultSpec::all(rate_percent)
        }
    }

    /// Parse a CLI spec: `20%`, `20`, `20%:timeout+reset`, or any of
    /// those with a trailing `@HOST`. The strict reading of
    /// [`FaultSpec::parse_lenient`]: any warning is the error.
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let (parsed, warnings) = FaultSpec::parse_lenient(spec)?;
        match warnings.is_empty() {
            true => Ok(parsed),
            false => Err(warnings.join("; ")),
        }
    }

    /// [`FaultSpec::parse`] for the CLIs: unknown fault-kind tokens
    /// degrade to warnings (matching the unknown-check-id convention)
    /// instead of aborting the whole invocation. Structural errors — a
    /// bad rate, an empty `@host` — still fail. If *every* named kind is
    /// unknown the spec falls back to all kinds, with a warning saying
    /// so.
    pub fn parse_lenient(spec: &str) -> Result<(FaultSpec, Vec<String>), String> {
        let (body, host) = match spec.rsplit_once('@') {
            Some((s, h)) if !h.trim().is_empty() => (s, Some(h.trim().to_ascii_lowercase())),
            Some(_) => return Err("fault spec names an empty @host".to_string()),
            None => (spec, None),
        };
        let (rate_part, kinds_part) = match body.split_once(':') {
            Some((r, k)) => (r, Some(k)),
            None => (body, None),
        };
        let rate = rate_part.trim().trim_end_matches('%');
        let rate_percent: u8 = rate
            .parse()
            .ok()
            .filter(|&r| r <= 100)
            .ok_or_else(|| format!("bad fault rate `{rate_part}' (want 0-100, e.g. 20%)"))?;
        let valid = FaultKind::ALL.map(FaultKind::name).join(", ");
        let mut out = FaultSpec::all(rate_percent);
        let mut warnings = Vec::new();
        if let Some(kinds_part) = kinds_part {
            let mut kinds = Vec::new();
            for name in kinds_part.split('+') {
                let name = name.trim();
                match FaultKind::ALL.into_iter().find(|k| k.name() == name) {
                    Some(kind) => {
                        if !kinds.contains(&kind) {
                            kinds.push(kind);
                        }
                    }
                    None => warnings.push(format!(
                        "ignoring unknown fault kind `{name}' (valid kinds: {valid})"
                    )),
                }
            }
            if kinds.is_empty() {
                warnings.push(format!(
                    "no valid fault kinds in `{kinds_part}'; injecting every kind ({valid})"
                ));
            } else {
                out.kinds = kinds;
            }
        }
        out.host = host;
        Ok((out, warnings))
    }
}

/// Simulated round-trip cost of one transport attempt, in microseconds.
/// Matches the simulated web's wire model so virtual latencies estimated
/// by the resilience layer line up with [`crate::WebStats::simulated_us`].
pub const VIRTUAL_RTT_US: u64 = 20_000;

/// SplitMix64: the fault schedule's deterministic hash-to-random step.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-host injection counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostFaults {
    /// Requests (GET + HEAD) that reached this host through the layer.
    pub requests: u64,
    /// Latency faults injected.
    pub latency: u64,
    /// Timeouts injected.
    pub timeouts: u64,
    /// Transient 5xx injected.
    pub server_errors: u64,
    /// Connection resets injected.
    pub resets: u64,
    /// Bodies truncated.
    pub truncated: u64,
    /// Simulated microseconds of added latency.
    pub added_latency_us: u64,
}

impl HostFaults {
    /// Faults of every kind injected at this host.
    pub fn injected(&self) -> u64 {
        self.latency + self.timeouts + self.server_errors + self.resets + self.truncated
    }

    /// Injected faults that present as request failures (a success-path
    /// fault — latency, truncation — is not one).
    pub fn transient_failures(&self) -> u64 {
        self.timeouts + self.server_errors + self.resets
    }
}

/// Per-host fault accounting, sorted by host for deterministic output.
///
/// # Examples
///
/// ```
/// use weblint_site::{FaultSpec, FetchStack, Fetcher, SimulatedWeb, Url, WebFetcher};
///
/// let mut web = SimulatedWeb::new();
/// web.add_page("http://h/p.html", "<P>hi</P>");
/// let stack = FetchStack::new(WebFetcher::new(&web))
///     .faults(FaultSpec::all(100), 7)
///     .build();
/// let _ = stack.get(&Url::parse("http://h/p.html").unwrap());
/// // Every request is faulted at 100%; the kind depends on the seed.
/// let faults = stack.telemetry().faults.unwrap();
/// assert_eq!(faults.injected_total(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// `(host, counters)` pairs in host order.
    pub hosts: Vec<(String, HostFaults)>,
}

impl FaultStats {
    /// Total faults injected across all hosts.
    pub fn injected_total(&self) -> u64 {
        self.hosts.iter().map(|(_, h)| h.injected()).sum()
    }

    /// Total requests seen across all hosts.
    pub fn requests_total(&self) -> u64 {
        self.hosts.iter().map(|(_, h)| h.requests).sum()
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fault injection: {} fault(s) over {} request(s)",
            self.injected_total(),
            self.requests_total()
        )?;
        for (host, h) in &self.hosts {
            write!(
                f,
                "\n  {host}: {} of {} request(s) faulted \
                 ({} latency, {} timeout, {} 5xx, {} reset, {} truncated)",
                h.injected(),
                h.requests,
                h.latency,
                h.timeouts,
                h.server_errors,
                h.resets,
                h.truncated
            )?;
        }
        Ok(())
    }
}

struct FaultState {
    /// Per-URL request counter: the "attempt" axis of the schedule, so a
    /// retry of the same URL rolls fresh dice while the overall schedule
    /// stays independent of cross-URL ordering.
    attempts: HashMap<String, u64>,
    /// Per-host counters, kept ordered so a stats snapshot is already
    /// sorted and never needs a per-call sort.
    hosts: BTreeMap<String, HostFaults>,
}

/// The fault-injection layer: deterministic, seeded faults on top of
/// the transport each request is handed.
///
/// The fault decision for a request is a pure function of
/// `(seed, url, per-url attempt number)` — it does not depend on the
/// order in which *other* URLs are fetched, so a crawl's fault schedule
/// is reproducible even when fetch order changes elsewhere.
pub(crate) struct FaultLayer {
    spec: FaultSpec,
    seed: u64,
    state: Mutex<FaultState>,
}

impl FaultLayer {
    /// A layer injecting `spec`'s faults on the schedule `seed` fixes.
    pub(crate) fn new(spec: FaultSpec, seed: u64) -> FaultLayer {
        FaultLayer {
            spec,
            seed,
            state: Mutex::new(FaultState {
                attempts: HashMap::new(),
                hosts: BTreeMap::new(),
            }),
        }
    }

    /// Per-host injection counters so far: a pre-sorted snapshot (the
    /// counters live in an ordered map, so no per-call sort or re-sort
    /// can drift between renders).
    pub(crate) fn stats(&self) -> FaultStats {
        let state = self.state.lock().unwrap();
        FaultStats {
            hosts: state.hosts.iter().map(|(h, c)| (h.clone(), *c)).collect(),
        }
    }

    /// Roll the dice for one request. Counts the request; counts the
    /// fault too unless it is [`FaultKind::Truncate`], which only counts
    /// once actually applied to a non-empty GET body (see `get`).
    fn decide(&self, url: &Url, head: bool) -> Option<FaultKind> {
        let mut state = self.state.lock().unwrap();
        let key = url.to_string();
        let attempt = {
            let n = state.attempts.entry(key.clone()).or_insert(0);
            *n += 1;
            *n
        };
        let host = state.hosts.entry(url.host.clone()).or_default();
        host.requests += 1;
        if self.spec.rate_percent == 0 || self.spec.kinds.is_empty() {
            return None;
        }
        if let Some(only) = &self.spec.host {
            if *only != url.host {
                return None;
            }
        }
        let roll = splitmix64(
            self.seed ^ fnv1a(key.as_bytes()) ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        if roll % 100 >= u64::from(self.spec.rate_percent) {
            return None;
        }
        let kind = self.spec.kinds[((roll >> 32) as usize) % self.spec.kinds.len()];
        match kind {
            // Truncation cannot apply to a HEAD; the request passes clean.
            FaultKind::Truncate if head => return None,
            FaultKind::Truncate => {}
            FaultKind::Latency => {
                host.latency += 1;
                host.added_latency_us += self.spec.added_latency_us;
            }
            FaultKind::Timeout => host.timeouts += 1,
            FaultKind::ServerError => host.server_errors += 1,
            FaultKind::Reset => host.resets += 1,
        }
        Some(kind)
    }

    fn count_truncated(&self, host: &str) {
        let mut state = self.state.lock().unwrap();
        state.hosts.entry(host.to_string()).or_default().truncated += 1;
    }

    /// Snapshot the layer's mutable state — per-URL attempt counters and
    /// per-host fault counters — for checkpointing. Restoring this into a
    /// fresh layer with the same spec and seed resumes the exact fault
    /// schedule, because every decision is a pure function of
    /// `(seed, url, attempt)`.
    pub(crate) fn export_state(&self) -> FaultLayerState {
        let state = self.state.lock().unwrap();
        let mut attempts: Vec<(String, u64)> = state
            .attempts
            .iter()
            .map(|(u, n)| (u.clone(), *n))
            .collect();
        attempts.sort();
        FaultLayerState {
            attempts,
            hosts: state.hosts.iter().map(|(h, c)| (h.clone(), *c)).collect(),
        }
    }

    /// Overwrite the layer's mutable state from a checkpoint snapshot.
    pub(crate) fn restore_state(&self, snapshot: &FaultLayerState) {
        let mut state = self.state.lock().unwrap();
        state.attempts = snapshot.attempts.iter().cloned().collect();
        state.hosts = snapshot.hosts.iter().cloned().collect();
    }

    /// HEAD `url` from `transport`, with this request's fault applied.
    pub(crate) fn head(&self, transport: &dyn Fetcher, url: &Url) -> (Status, String) {
        match self.decide(url, true) {
            Some(FaultKind::Timeout) => (Status::TimedOut, String::new()),
            Some(FaultKind::Reset) => (Status::Reset, String::new()),
            Some(FaultKind::ServerError) => (Status::ServerError, String::new()),
            // Latency only slows the wire; the answer is the real one.
            Some(FaultKind::Latency) | Some(FaultKind::Truncate) | None => transport.head(url),
        }
    }

    /// GET `url` from `transport`, with this request's fault applied.
    pub(crate) fn get(&self, transport: &dyn Fetcher, url: &Url) -> (Status, String, String) {
        match self.decide(url, false) {
            Some(FaultKind::Timeout) => (Status::TimedOut, String::new(), String::new()),
            Some(FaultKind::Reset) => (Status::Reset, String::new(), String::new()),
            Some(FaultKind::ServerError) => (Status::ServerError, String::new(), String::new()),
            Some(FaultKind::Truncate) => {
                let (status, ct, body) = transport.get(url);
                if status == Status::Ok && !body.is_empty() {
                    self.count_truncated(&url.host);
                    (status, ct, truncate_body(&body))
                } else {
                    (status, ct, body)
                }
            }
            Some(FaultKind::Latency) | None => transport.get(url),
        }
    }
}

/// Checkpointable state of a [`FetchStack`](crate::FetchStack)'s fault
/// layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLayerState {
    /// Per-URL request counters, sorted by URL.
    pub attempts: Vec<(String, u64)>,
    /// Per-host fault counters, sorted by host.
    pub hosts: Vec<(String, HostFaults)>,
}

/// Cut `body` roughly in half on a character boundary.
fn truncate_body(body: &str) -> String {
    let mut cut = body.len() / 2;
    while !body.is_char_boundary(cut) {
        cut -= 1;
    }
    body[..cut].to_string()
}

/// Retries after the first attempt (so four attempts in all).
const MAX_RETRIES: u32 = 3;
/// First backoff, in virtual microseconds; doubles per retry.
const BASE_BACKOFF_US: u64 = 10_000;
/// Backoff ceiling, before jitter.
const MAX_BACKOFF_US: u64 = 160_000;
/// Consecutive request failures (retries exhausted) that open a host's
/// breaker.
const FAILURE_THRESHOLD: u32 = 5;
/// Requests shed while open before one probe is let through (the
/// request-count analog of a cooldown timer — the simulated web has no
/// wall clock).
const COOLDOWN_REQUESTS: u32 = 8;

/// Breaker state machine, per host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    Closed { failures: u32 },
    Open { remaining: u32 },
    HalfOpen,
}

/// The externally visible circuit-breaker state of a host, for layers
/// that modulate their behaviour on it (the pacing module suppresses
/// hedges entirely unless a host's breaker is closed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Requests flow normally (also the state of a never-seen host).
    #[default]
    Closed,
    /// Requests are being shed without touching the transport.
    Open,
    /// The next request is (or just was) a recovery probe.
    HalfOpen,
}

/// What one request cost the resilience layer: how many retries
/// it burned and how much virtual backoff it accumulated. The pacing
/// layer turns this into a latency observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestCost {
    /// Retries performed after the first attempt.
    pub retries: u32,
    /// Virtual microseconds spent backing off between attempts.
    pub backoff_us: u64,
    /// The request never reached the transport (breaker open).
    pub shed: bool,
}

impl RequestCost {
    /// The request's total virtual latency: one RTT per attempt plus all
    /// backoff — the feedback signal for per-host latency estimation.
    pub fn virtual_us(&self) -> u64 {
        if self.shed {
            return 0;
        }
        self.backoff_us + u64::from(self.retries + 1) * VIRTUAL_RTT_US
    }
}

/// Per-host resilience counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostResilience {
    /// Requests attempted against this host (fast failures included).
    pub requests: u64,
    /// Requests that ended in a definitive answer (2xx/3xx/404).
    pub successes: u64,
    /// Requests that stayed transiently failed after every retry.
    pub failures: u64,
    /// Individual retries performed.
    pub retries: u64,
    /// Simulated microseconds spent backing off (with jitter).
    pub backoff_us: u64,
    /// Times the breaker tripped open.
    pub breaker_opens: u64,
    /// Requests failed fast while the breaker was open.
    pub fast_failures: u64,
    /// Half-open probe requests let through.
    pub probes: u64,
}

/// Per-host resilience accounting, sorted by host.
///
/// # Examples
///
/// ```
/// use weblint_site::{FetchStack, Fetcher, SimulatedWeb, Status, Url, WebFetcher};
///
/// let mut web = SimulatedWeb::new();
/// web.add_page("http://h/p.html", "<P>hi</P>");
/// let stack = FetchStack::new(WebFetcher::new(&web))
///     .resilience_defaults()
///     .build();
/// let (status, _, body) = stack.get(&Url::parse("http://h/p.html").unwrap());
/// assert_eq!(status, Status::Ok);
/// assert!(body.contains("hi"));
/// let resilience = stack.telemetry().resilience.unwrap();
/// assert_eq!(resilience.hosts[0].1.successes, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResilienceStats {
    /// `(host, counters)` pairs in host order.
    pub hosts: Vec<(String, HostResilience)>,
}

impl ResilienceStats {
    /// Total retries across all hosts.
    pub fn retries_total(&self) -> u64 {
        self.hosts.iter().map(|(_, h)| h.retries).sum()
    }

    /// Total requests that failed after every retry.
    pub fn failures_total(&self) -> u64 {
        self.hosts.iter().map(|(_, h)| h.failures).sum()
    }
}

impl fmt::Display for ResilienceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "resilience: {} retrie(s), {} request(s) failed after retries",
            self.retries_total(),
            self.failures_total()
        )?;
        for (host, h) in &self.hosts {
            write!(
                f,
                "\n  {host}: {} ok / {} failed of {} request(s), {} retrie(s) \
                 ({:.1}ms backoff), breaker opened {} time(s) \
                 ({} fast-fail(s), {} probe(s))",
                h.successes,
                h.failures,
                h.requests,
                h.retries,
                h.backoff_us as f64 / 1000.0,
                h.breaker_opens,
                h.fast_failures,
                h.probes
            )?;
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct HostState {
    breaker: Option<Breaker>,
    stats: HostResilience,
}

/// A host's breaker position, flattened for checkpointing (the internal
/// state machine carries its counters along).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerSnapshot {
    /// No request to the host has settled yet (no breaker allocated).
    #[default]
    Unset,
    /// Closed, with the current consecutive-failure count.
    Closed {
        /// Consecutive request failures so far.
        failures: u32,
    },
    /// Open, shedding requests.
    Open {
        /// Requests left to shed before the half-open probe.
        remaining: u32,
    },
    /// Waiting on (or just admitted) the recovery probe.
    HalfOpen,
}

/// Checkpointable state of a [`FetchStack`](crate::FetchStack)'s
/// resilience layer: one entry per
/// host, sorted by host.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceLayerState {
    /// Per-host counters and breaker positions.
    pub hosts: Vec<ResilienceHostState>,
}

/// One host's checkpointed resilience state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceHostState {
    /// The host — stored alongside the counters so the vector is
    /// self-contained.
    pub host: String,
    /// The host's counters.
    pub stats: HostResilience,
    /// The host's breaker position.
    pub breaker: BreakerSnapshot,
}

/// Whether a status is worth retrying: the host itself misbehaved, as
/// opposed to answering definitively (2xx/3xx/404 are answers).
pub(crate) fn transient(status: &Status) -> bool {
    matches!(
        status,
        Status::ServerError | Status::TimedOut | Status::Reset
    )
}

/// What one scheduler-issued hop did to the resilience layer, recorded
/// by a fetch worker and *settled* later by the crawl scheduler in issue
/// order. Splitting the bookkeeping this way keeps parallel crawls
/// deterministic: workers only read a frozen breaker snapshot and run
/// retries (whose schedule depends solely on `(seed, url, attempt)`),
/// while every order-sensitive breaker transition happens sequentially
/// at settle time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HopRecord {
    /// The frozen breaker snapshot said open: the hop was shed without
    /// touching the transport.
    Shed,
    /// The hop ran its retry loop to a conclusion.
    Done {
        /// The final status was still transient after every retry.
        failed: bool,
        /// Retries burned after the first attempt.
        retries: u32,
    },
}

impl HopRecord {
    /// The record of a request that answered `status` at `cost`.
    pub(crate) fn of(status: &Status, cost: &RequestCost) -> HopRecord {
        match cost.shed {
            true => HopRecord::Shed,
            false => HopRecord::Done {
                failed: transient(status),
                retries: cost.retries,
            },
        }
    }
}

/// The resilience layer: bounded retries (exponential backoff with
/// deterministic jitter) and a per-host circuit breaker.
///
/// Backoff is *virtual*: the simulated web has no wall clock, so waits
/// accumulate into [`HostResilience::backoff_us`] instead of sleeping,
/// keeping crawls fast and byte-deterministic.
///
/// Every request runs in two halves. [`Self::attempt`] reads the
/// host's breaker — open sheds the request with no transport call —
/// and otherwise runs the retry loop; [`Self::settle_hop`] then books
/// the outcome and moves the breaker. The robot's workers run the first
/// half in parallel and its shard thread settles in issue order; a
/// direct request runs both at once. Once [`COOLDOWN_REQUESTS`] have
/// been shed, the next request is a half-open probe — success closes
/// the breaker, failure reopens it.
pub(crate) struct ResilienceLayer {
    seed: u64,
    hosts: Mutex<BTreeMap<String, HostState>>,
}

impl ResilienceLayer {
    /// A layer whose backoff jitter is fixed by `seed`.
    pub(crate) fn new(seed: u64) -> ResilienceLayer {
        ResilienceLayer {
            seed,
            hosts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Per-host resilience counters so far: a pre-sorted snapshot (the
    /// counters live in an ordered map, so every render — `-stats`,
    /// `/metrics` — sees the same host order without re-sorting).
    pub(crate) fn stats(&self) -> ResilienceStats {
        let hosts = self.hosts.lock().unwrap();
        ResilienceStats {
            hosts: hosts.iter().map(|(h, s)| (h.clone(), s.stats)).collect(),
        }
    }

    /// The current breaker state of `host` (a never-seen host is closed).
    pub(crate) fn breaker_state(&self, host: &str) -> BreakerState {
        let hosts = self.hosts.lock().unwrap();
        match hosts.get(host).and_then(|s| s.breaker) {
            None | Some(Breaker::Closed { .. }) => BreakerState::Closed,
            // An open breaker whose cooldown has drained will admit the
            // next request as a probe: report it half-open so hedging
            // treats the probe window as fragile, not as capacity.
            Some(Breaker::Open { remaining: 0 }) | Some(Breaker::HalfOpen) => {
                BreakerState::HalfOpen
            }
            Some(Breaker::Open { .. }) => BreakerState::Open,
        }
    }

    /// Snapshot every host's counters and breaker position for
    /// checkpointing.
    pub(crate) fn export_state(&self) -> ResilienceLayerState {
        let hosts = self.hosts.lock().unwrap();
        ResilienceLayerState {
            hosts: hosts
                .iter()
                .map(|(h, s)| ResilienceHostState {
                    host: h.clone(),
                    stats: s.stats,
                    breaker: match s.breaker {
                        None => BreakerSnapshot::Unset,
                        Some(Breaker::Closed { failures }) => BreakerSnapshot::Closed { failures },
                        Some(Breaker::Open { remaining }) => BreakerSnapshot::Open { remaining },
                        Some(Breaker::HalfOpen) => BreakerSnapshot::HalfOpen,
                    },
                })
                .collect(),
        }
    }

    /// Overwrite every host's counters and breaker position from a
    /// checkpoint snapshot.
    pub(crate) fn restore_state(&self, snapshot: &ResilienceLayerState) {
        let mut hosts = self.hosts.lock().unwrap();
        hosts.clear();
        for h in &snapshot.hosts {
            hosts.insert(
                h.host.clone(),
                HostState {
                    stats: h.stats,
                    breaker: match h.breaker {
                        BreakerSnapshot::Unset => None,
                        BreakerSnapshot::Closed { failures } => Some(Breaker::Closed { failures }),
                        BreakerSnapshot::Open { remaining } => Some(Breaker::Open { remaining }),
                        BreakerSnapshot::HalfOpen => Some(Breaker::HalfOpen),
                    },
                },
            );
        }
    }

    fn record_success(&self, host: &str, retries_used: u32) {
        let mut hosts = self.hosts.lock().unwrap();
        let state = hosts.entry(host.to_string()).or_default();
        state.stats.successes += 1;
        state.stats.retries += u64::from(retries_used);
        state.breaker = Some(Breaker::Closed { failures: 0 });
    }

    fn record_failure(&self, host: &str, retries_used: u32) {
        let mut hosts = self.hosts.lock().unwrap();
        let state = hosts.entry(host.to_string()).or_default();
        state.stats.failures += 1;
        state.stats.retries += u64::from(retries_used);
        let next = match state.breaker.unwrap_or(Breaker::Closed { failures: 0 }) {
            Breaker::Closed { failures } => {
                let failures = failures + 1;
                if failures >= FAILURE_THRESHOLD {
                    state.stats.breaker_opens += 1;
                    Breaker::Open {
                        remaining: COOLDOWN_REQUESTS,
                    }
                } else {
                    Breaker::Closed { failures }
                }
            }
            // A failed probe reopens the breaker for another cooldown.
            Breaker::HalfOpen | Breaker::Open { .. } => {
                state.stats.breaker_opens += 1;
                Breaker::Open {
                    remaining: COOLDOWN_REQUESTS,
                }
            }
        };
        state.breaker = Some(next);
    }

    /// Virtual backoff before retry `attempt` (0-based), with jitter
    /// derived from the seed so the schedule is reproducible.
    fn backoff(&self, host: &str, attempt: u32) -> u64 {
        let base = BASE_BACKOFF_US
            .saturating_mul(1 << attempt.min(16))
            .min(MAX_BACKOFF_US);
        let jitter = splitmix64(
            self.seed ^ fnv1a(host.as_bytes()) ^ u64::from(attempt).wrapping_mul(0x6A09_E667),
        ) % (base / 2 + 1);
        base + jitter
    }

    fn add_backoff(&self, host: &str, us: u64) {
        let mut hosts = self.hosts.lock().unwrap();
        hosts.entry(host.to_string()).or_default().stats.backoff_us += us;
    }

    /// Worker half of a request: shed it if `host`'s breaker is open —
    /// answering `shed` without calling `op` — or else run the retry
    /// loop, calling `op` until `failed` clears or the retries run out.
    /// Only backoff is booked here (a commutative add, safe from any
    /// thread); the breaker is read, never moved, so a batch of workers
    /// sees one frozen snapshot. [`Self::settle_hop`] does the rest.
    pub(crate) fn attempt<R>(
        &self,
        url: &Url,
        shed: R,
        op: impl Fn() -> R,
        failed: impl Fn(&R) -> bool,
    ) -> (R, RequestCost) {
        let host = url.host.as_str();
        if self.breaker_state(host) == BreakerState::Open {
            let cost = RequestCost {
                shed: true,
                ..RequestCost::default()
            };
            return (shed, cost);
        }
        let mut cost = RequestCost::default();
        loop {
            let result = op();
            if !failed(&result) || cost.retries >= MAX_RETRIES {
                return (result, cost);
            }
            let wait = self.backoff(host, cost.retries);
            self.add_backoff(host, wait);
            cost.backoff_us += wait;
            cost.retries += 1;
        }
    }

    /// Settling half of a request: count it, book its outcome and move
    /// the breaker — a shed drains the cooldown, the first request
    /// after it is the probe. The robot settles strictly in issue order,
    /// so breaker transitions are deterministic no matter how the
    /// parallel workers interleaved.
    pub(crate) fn settle_hop(&self, host: &str, record: &HopRecord) {
        match record {
            HopRecord::Shed => {
                let mut hosts = self.hosts.lock().unwrap();
                let state = hosts.entry(host.to_string()).or_default();
                state.stats.requests += 1;
                state.stats.fast_failures += 1;
                if let Some(Breaker::Open { remaining }) = &mut state.breaker {
                    *remaining = remaining.saturating_sub(1);
                }
            }
            HopRecord::Done { failed, retries } => {
                {
                    let mut hosts = self.hosts.lock().unwrap();
                    let state = hosts.entry(host.to_string()).or_default();
                    state.stats.requests += 1;
                    // A drained cooldown means this settled request was
                    // the recovery probe.
                    if state.breaker == Some(Breaker::Open { remaining: 0 }) {
                        state.breaker = Some(Breaker::HalfOpen);
                        state.stats.probes += 1;
                    }
                }
                if *failed {
                    self.record_failure(host, *retries);
                } else {
                    self.record_success(host, *retries);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::web::{Resource, SharedWeb, SimulatedWeb};
    use crate::{FetchStack, WebFetcher};

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn page_web() -> SimulatedWeb {
        let mut web = SimulatedWeb::new();
        for i in 0..20 {
            web.add_page(&format!("http://h/p{i}.html"), format!("<P>page {i}</P>"));
        }
        web
    }

    /// A web whose one page always answers a transient 5xx.
    fn down_web(target: &str) -> SimulatedWeb {
        let mut web = SimulatedWeb::new();
        web.add(
            target,
            Resource {
                status: Status::ServerError,
                content_type: "text/html".to_string(),
                body: String::new(),
            },
        );
        web
    }

    #[test]
    fn spec_parses() {
        assert_eq!(FaultSpec::parse("20%").unwrap(), FaultSpec::all(20));
        assert_eq!(FaultSpec::parse("20").unwrap(), FaultSpec::all(20));
        let spec = FaultSpec::parse("5%:timeout+5xx").unwrap();
        assert_eq!(spec.rate_percent, 5);
        assert_eq!(spec.kinds, vec![FaultKind::Timeout, FaultKind::ServerError]);
        assert_eq!(FaultSpec::parse("0%").unwrap().rate_percent, 0);
        for bad in ["pony", "101%", "20%:gremlins", "20%:", "20%@", "20%@ "] {
            assert!(FaultSpec::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn strict_parse_errs_exactly_where_lenient_parse_warns() {
        let (spec, warnings) = FaultSpec::parse_lenient("20%:timeout+gremlins").unwrap();
        assert_eq!(spec.kinds, vec![FaultKind::Timeout]);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("gremlins") && warnings[0].contains("valid kinds"));
        assert_eq!(
            FaultSpec::parse("20%:timeout+gremlins"),
            Err(warnings[0].clone())
        );
        // Every kind unknown: the lenient reading injects them all.
        let (spec, warnings) = FaultSpec::parse_lenient("20%:gremlins@Flaky").unwrap();
        assert_eq!(spec.kinds, FaultKind::ALL.to_vec());
        assert_eq!(spec.host.as_deref(), Some("flaky"));
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        // Structural errors fail both readings alike.
        for bad in ["pony", "101%", "20%@"] {
            assert_eq!(
                FaultSpec::parse(bad),
                FaultSpec::parse_lenient(bad).map(|p| p.0)
            );
        }
    }

    #[test]
    fn host_filter_parses_and_confines_faults() {
        let spec = FaultSpec::parse("100%@Flaky").unwrap();
        assert_eq!(spec.host.as_deref(), Some("flaky"));
        assert_eq!(spec.rate_percent, 100);
        let spec = FaultSpec::parse("50%:timeout@flaky").unwrap();
        assert_eq!(spec.kinds, vec![FaultKind::Timeout]);
        assert_eq!(spec.host.as_deref(), Some("flaky"));

        let mut web = SimulatedWeb::new();
        web.add_page("http://good/p.html", "<P>ok</P>");
        web.add_page("http://flaky/p.html", "<P>ok</P>");
        let transport = WebFetcher::new(&web);
        let faults = FaultLayer::new(FaultSpec::all_at(100, "flaky"), 3);
        for _ in 0..10 {
            let (status, _, _) = faults.get(&transport, &url("http://good/p.html"));
            assert_eq!(status, Status::Ok, "filtered host must stay clean");
            let _ = faults.get(&transport, &url("http://flaky/p.html"));
        }
        let stats = faults.stats();
        let good = &stats.hosts.iter().find(|(h, _)| h == "good").unwrap().1;
        let flaky = &stats.hosts.iter().find(|(h, _)| h == "flaky").unwrap().1;
        assert_eq!(good.injected(), 0, "{good:?}");
        assert_eq!(good.requests, 10);
        assert_eq!(flaky.injected(), 10, "{flaky:?}");
    }

    #[test]
    fn request_cost_reports_retries_and_backoff() {
        let web = page_web();
        let spec = FaultSpec {
            kinds: vec![FaultKind::Timeout],
            ..FaultSpec::all(50)
        };
        let stack = FetchStack::new(WebFetcher::new(&web))
            .faults(spec, 5)
            .resilience_defaults()
            .build();
        let mut total_retries = 0u64;
        let mut total_backoff = 0u64;
        for i in 0..20 {
            let ((status, _, _), cost) = stack.get_cost(&url(&format!("http://h/p{i}.html")));
            assert_eq!(status, Status::Ok);
            assert!(!cost.shed);
            assert!(
                cost.virtual_us() >= u64::from(cost.retries + 1) * VIRTUAL_RTT_US,
                "{cost:?}"
            );
            assert_eq!(cost.backoff_us == 0, cost.retries == 0, "{cost:?}");
            total_retries += u64::from(cost.retries);
            total_backoff += cost.backoff_us;
        }
        let stats = stack.telemetry().resilience.unwrap();
        assert_eq!(total_retries, stats.retries_total(), "costs reconcile");
        assert_eq!(total_backoff, stats.hosts[0].1.backoff_us);
        assert!(total_retries > 0, "50% timeouts must cost retries");
    }

    #[test]
    fn breaker_state_is_visible_per_host() {
        let web = down_web("http://down/x.html");
        let stack = FetchStack::new(WebFetcher::new(&web))
            .resilience_defaults()
            .build();
        let target = url("http://down/x.html");
        assert_eq!(stack.breaker_state("down"), BreakerState::Closed);
        assert_eq!(stack.breaker_state("never-seen"), BreakerState::Closed);
        for _ in 0..FAILURE_THRESHOLD {
            let _ = stack.head(&target); // the failures open it
        }
        assert_eq!(stack.breaker_state("down"), BreakerState::Open);
        for _ in 0..COOLDOWN_REQUESTS {
            let ((status, _), cost) = stack.head_cost(&target); // shed
            assert_eq!(status, Status::ServerError);
            assert!(cost.shed);
        }
        // Cooldown drained: the next request will be the half-open probe.
        assert_eq!(stack.breaker_state("down"), BreakerState::HalfOpen);
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let web = page_web();
        let transport = WebFetcher::new(&web);
        let faults = FaultLayer::new(FaultSpec::all(0), 1);
        for i in 0..20 {
            let (status, _, _) = faults.get(&transport, &url(&format!("http://h/p{i}.html")));
            assert_eq!(status, Status::Ok);
        }
        let stats = faults.stats();
        assert_eq!(stats.injected_total(), 0);
        assert_eq!(stats.requests_total(), 20);
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<(Status, usize)> {
            let web = page_web();
            let transport = WebFetcher::new(&web);
            let faults = FaultLayer::new(FaultSpec::all(40), seed);
            (0..20)
                .map(|i| {
                    let u = url(&format!("http://h/p{i}.html"));
                    let (status, _, body) = faults.get(&transport, &u);
                    (status, body.len())
                })
                .collect()
        };
        assert_eq!(run(7), run(7), "same seed must replay the same faults");
        assert_ne!(run(7), run(8), "different seeds should differ at 40%");
    }

    #[test]
    fn schedule_is_per_url_not_per_order() {
        // Fetching URLs in a different order must not change which URLs
        // fault: the roll depends on (seed, url, attempt), not sequence.
        let collect = |order: &[usize]| -> Vec<(String, Status)> {
            let web = page_web();
            let transport = WebFetcher::new(&web);
            let faults = FaultLayer::new(FaultSpec::all(40), 3);
            let mut out: Vec<(String, Status)> = order
                .iter()
                .map(|i| {
                    let u = format!("http://h/p{i}.html");
                    let (status, _, _) = faults.get(&transport, &url(&u));
                    (u, status)
                })
                .collect();
            out.sort_by(|a, b| a.0.cmp(&b.0));
            out
        };
        let forward: Vec<usize> = (0..20).collect();
        let backward: Vec<usize> = (0..20).rev().collect();
        assert_eq!(collect(&forward), collect(&backward));
    }

    #[test]
    fn every_kind_eventually_fires_at_full_rate() {
        let web = page_web();
        let transport = WebFetcher::new(&web);
        let faults = FaultLayer::new(FaultSpec::all(100), 11);
        for _round in 0..10 {
            for i in 0..20 {
                let _ = faults.get(&transport, &url(&format!("http://h/p{i}.html")));
            }
        }
        let stats = faults.stats();
        let (_, h) = &stats.hosts[0];
        assert!(h.latency > 0, "{h:?}");
        assert!(h.timeouts > 0, "{h:?}");
        assert!(h.server_errors > 0, "{h:?}");
        assert!(h.resets > 0, "{h:?}");
        assert!(h.truncated > 0, "{h:?}");
        assert_eq!(h.injected(), h.requests, "100% rate faults every GET");
    }

    #[test]
    fn truncation_halves_the_body() {
        let mut web = SimulatedWeb::new();
        web.add_page("http://h/p.html", "<P>0123456789</P>");
        let spec = FaultSpec {
            kinds: vec![FaultKind::Truncate],
            ..FaultSpec::all(100)
        };
        let transport = WebFetcher::new(&web);
        let faults = FaultLayer::new(spec, 1);
        let (status, _, body) = faults.get(&transport, &url("http://h/p.html"));
        assert_eq!(status, Status::Ok);
        assert_eq!(body.len(), "<P>0123456789</P>".len() / 2);
        assert_eq!(faults.stats().hosts[0].1.truncated, 1);
        // A HEAD cannot be truncated: it passes clean and counts nothing.
        let (status, _) = faults.head(&transport, &url("http://h/p.html"));
        assert_eq!(status, Status::Ok);
        assert_eq!(faults.stats().injected_total(), 1);
    }

    #[test]
    fn retries_recover_through_transient_faults() {
        // Timeout-only faults at 50%: with 3 retries the chance all four
        // attempts fault is 6.25% per request; seed 5 is checked below to
        // recover every one of the 20 pages.
        let web = page_web();
        let spec = FaultSpec {
            kinds: vec![FaultKind::Timeout],
            ..FaultSpec::all(50)
        };
        let stack = FetchStack::new(WebFetcher::new(&web))
            .faults(spec, 5)
            .resilience_defaults()
            .build();
        for i in 0..20 {
            let (status, _, _) = stack.get(&url(&format!("http://h/p{i}.html")));
            assert_eq!(status, Status::Ok, "p{i} not recovered");
        }
        let telemetry = stack.telemetry();
        let (faults, res) = (telemetry.faults.unwrap(), telemetry.resilience.unwrap());
        assert!(res.retries_total() > 0, "50% faults must cost retries");
        assert_eq!(res.failures_total(), 0);
        // Accounting closes: every transient fault burned exactly one
        // retry (none were final failures here).
        assert_eq!(
            faults.hosts[0].1.transient_failures(),
            res.retries_total(),
            "{faults} / {res}"
        );
    }

    #[test]
    fn breaker_opens_fast_fails_and_recovers_via_probe() {
        let web = down_web("http://down/x.html");
        let stack = FetchStack::new(WebFetcher::new(&web))
            .resilience_defaults()
            .build();
        let target = url("http://down/x.html");
        // The threshold's worth of real failures opens the breaker, the
        // cooldown sheds, then a probe fails and reopens it.
        for _ in 0..FAILURE_THRESHOLD + COOLDOWN_REQUESTS + 1 {
            let (status, _) = stack.head(&target);
            assert_eq!(status, Status::ServerError);
        }
        let stats = stack.telemetry().resilience.unwrap();
        let h = &stats.hosts[0].1;
        assert_eq!(h.failures, u64::from(FAILURE_THRESHOLD) + 1, "{h:?}");
        assert_eq!(h.fast_failures, u64::from(COOLDOWN_REQUESTS), "{h:?}");
        assert_eq!(h.retries, u64::from(MAX_RETRIES) * h.failures, "{h:?}");
        assert_eq!(h.breaker_opens, 2, "{h:?}");
        assert_eq!(h.probes, 1, "{h:?}");

        // A healthy host: closed-path successes keep the breaker closed.
        let mut healthy = SimulatedWeb::new();
        healthy.add_page("http://up/x.html", "<P>back</P>");
        let stack = FetchStack::new(WebFetcher::new(&healthy))
            .resilience_defaults()
            .build();
        for _ in 0..3 {
            let (status, _, _) = stack.get(&url("http://up/x.html"));
            assert_eq!(status, Status::Ok);
        }
        let stats = stack.telemetry().resilience.unwrap();
        assert_eq!(stats.hosts[0].1.successes, 3);
        assert_eq!(stack.breaker_state("up"), BreakerState::Closed);
    }

    #[test]
    fn probe_success_closes_the_breaker() {
        // A host that fails exactly long enough to open the breaker, then
        // recovers: the half-open probe must close it and stop shedding.
        let shared = SharedWeb::new(down_web("http://flaky/x.html"));
        let stack = FetchStack::new(shared.clone())
            .resilience_defaults()
            .build();
        let target = url("http://flaky/x.html");
        for _ in 0..FAILURE_THRESHOLD {
            assert_eq!(stack.head(&target).0, Status::ServerError); // opens
        }
        for _ in 0..COOLDOWN_REQUESTS {
            assert_eq!(stack.head(&target).0, Status::ServerError); // shed
        }
        // Host recovers before the probe.
        shared.with(|w| w.add_page("http://flaky/x.html", "<P>ok</P>"));
        assert_eq!(stack.head(&target).0, Status::Ok); // probe closes it
        assert_eq!(stack.head(&target).0, Status::Ok); // normal again
        let stats = stack.telemetry().resilience.unwrap();
        let h = &stats.hosts[0].1;
        assert_eq!(h.breaker_opens, 1, "{h:?}");
        assert_eq!(h.fast_failures, u64::from(COOLDOWN_REQUESTS), "{h:?}");
        assert_eq!(h.probes, 1, "{h:?}");
        assert_eq!(h.successes, 2, "{h:?}");
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let layer = ResilienceLayer::new(3);
        let a: Vec<u64> = (0..6).map(|i| layer.backoff("h", i)).collect();
        let b: Vec<u64> = (0..6).map(|i| layer.backoff("h", i)).collect();
        assert_eq!(a, b);
        for (i, &us) in a.iter().enumerate() {
            let cap = MAX_BACKOFF_US;
            assert!(us <= cap + cap / 2, "attempt {i} backoff {us} over cap");
        }
        // Exponential shape: attempt 1's floor is above attempt 0's base.
        assert!(a[1] >= 20_000, "{a:?}");
    }

    #[test]
    fn stats_render_per_host() {
        let web = page_web();
        let stack = FetchStack::new(WebFetcher::new(&web))
            .faults(FaultSpec::all(100), 2)
            .resilience_defaults()
            .build();
        for i in 0..5 {
            let _ = stack.get(&url(&format!("http://h/p{i}.html")));
        }
        let telemetry = stack.telemetry();
        let faults = telemetry.faults.unwrap().to_string();
        assert!(faults.contains("fault injection:"), "{faults}");
        assert!(faults.contains("  h: "), "{faults}");
        let res = telemetry.resilience.unwrap().to_string();
        assert!(res.contains("resilience:"), "{res}");
        assert!(res.contains("breaker opened"), "{res}");
    }
}
