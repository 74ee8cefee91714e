//! [`FetchStack`]: one place to compose the fetch decorator tower.
//!
//! Before this module, every consumer that wanted chaos plus resilience
//! hand-nested the decorators — `ResilientFetcher::with_defaults(
//! FaultyWeb::new(web, spec, seed), seed)` — and then had to remember
//! which layer exposes which stats and in what order to print them. The
//! builder centralizes that wiring:
//!
//! ```
//! use weblint_site::{FaultSpec, FetchStack, SharedWeb, SimulatedWeb};
//!
//! let stack = FetchStack::new(SharedWeb::new(SimulatedWeb::new()))
//!     .faults(FaultSpec::all(20), 42)
//!     .resilience_defaults()
//!     .adaptive_defaults()
//!     .hedging_defaults()
//!     .build();
//! assert!(stack.telemetry().to_string().contains("pacing:"));
//! ```
//!
//! Each layer is optional and independently toggled; a stack with no
//! layers is the plain transport that [`crate::Robot::crawl_sharded`]
//! builds per shard, and [`FetchStack`] itself implements [`Fetcher`],
//! so it drops into any other consumer unchanged. [`FetchStack::telemetry`] returns the one
//! unified snapshot ([`StackTelemetry`]) whose `Display` is the single
//! render path shared by poacher `-stats` and the httpd `/metrics`
//! endpoint — the two can no longer drift.

use std::fmt;

use crate::fault::{
    BreakerPolicy, BreakerState, FaultLayerState, FaultSpec, FaultStats, FaultyWeb, RequestCost,
    ResilienceLayerState, ResilienceStats, ResilientFetcher, RetryPolicy,
};
use crate::pacing::{AimdPolicy, HedgePolicy, Pacer, PacingLayerState, PacingStats};
use crate::robot::Fetcher;
use crate::url::Url;
use crate::web::Status;

/// The four shapes the optional fault/resilience layers can compose
/// into. An enum rather than nested generics so `FetchStack<F>` has one
/// concrete type regardless of which layers are enabled.
enum Tower<F> {
    Plain(F),
    Faulty(FaultyWeb<F>),
    Resilient(ResilientFetcher<F>),
    ResilientFaulty(ResilientFetcher<FaultyWeb<F>>),
}

/// Builder for [`FetchStack`]; see the module docs for the idiom.
pub struct FetchStackBuilder<F> {
    base: F,
    faults: Option<(FaultSpec, u64)>,
    resilience: Option<(RetryPolicy, BreakerPolicy)>,
    aimd: Option<AimdPolicy>,
    hedge: Option<HedgePolicy>,
}

impl<F> FetchStackBuilder<F> {
    /// Inject deterministic faults below every other layer.
    pub fn faults(mut self, spec: FaultSpec, seed: u64) -> Self {
        self.faults = Some((spec, seed));
        self
    }

    /// Wrap the transport in retries + per-host circuit breakers. The
    /// backoff jitter reuses the fault seed so one seed fixes the whole
    /// stack's schedule.
    pub fn resilience(mut self, retry: RetryPolicy, breaker: BreakerPolicy) -> Self {
        self.resilience = Some((retry, breaker));
        self
    }

    /// [`Self::resilience`] with default policies.
    pub fn resilience_defaults(self) -> Self {
        self.resilience(RetryPolicy::default(), BreakerPolicy::default())
    }

    /// Enable per-host AIMD in-flight limits for crawl scheduling.
    pub fn adaptive(mut self, aimd: AimdPolicy) -> Self {
        self.aimd = Some(aimd);
        self
    }

    /// [`Self::adaptive`] with the default policy.
    pub fn adaptive_defaults(self) -> Self {
        self.adaptive(AimdPolicy::default())
    }

    /// Enable budget-capped hedged fetches for crawl scheduling.
    pub fn hedging(mut self, policy: HedgePolicy) -> Self {
        self.hedge = Some(policy);
        self
    }

    /// [`Self::hedging`] with the default policy.
    pub fn hedging_defaults(self) -> Self {
        self.hedging(HedgePolicy::default())
    }

    /// Compose the configured layers into a [`FetchStack`].
    pub fn build(self) -> FetchStack<F> {
        let seed = self.faults.as_ref().map(|(_, seed)| *seed).unwrap_or(0);
        let tower = match (self.faults, self.resilience) {
            (None, None) => Tower::Plain(self.base),
            (Some((spec, seed)), None) => Tower::Faulty(FaultyWeb::new(self.base, spec, seed)),
            (None, Some((retry, breaker))) => {
                Tower::Resilient(ResilientFetcher::new(self.base, retry, breaker, seed))
            }
            (Some((spec, fault_seed)), Some((retry, breaker))) => {
                Tower::ResilientFaulty(ResilientFetcher::new(
                    FaultyWeb::new(self.base, spec, fault_seed),
                    retry,
                    breaker,
                    fault_seed,
                ))
            }
        };
        FetchStack {
            tower,
            pacer: Pacer::new(self.aimd, self.hedge),
        }
    }
}

/// A composed fetch stack: optional fault injection, optional
/// resilience, plus the adaptive pacer the crawl scheduler consults.
pub struct FetchStack<F> {
    tower: Tower<F>,
    pacer: Pacer,
}

impl<F> FetchStack<F> {
    /// Start building a stack over `base` (the transport: a
    /// [`crate::SharedWeb`], a live fetcher, a test double).
    ///
    /// `new` deliberately returns the builder, not the stack — the whole
    /// point of the API is that the tower is only ever composed in one
    /// place, through `FetchStack::new(web)…build()`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(base: F) -> FetchStackBuilder<F> {
        FetchStackBuilder {
            base,
            faults: None,
            resilience: None,
            aimd: None,
            hedge: None,
        }
    }

    /// The adaptive pacer (inert when neither `adaptive` nor `hedging`
    /// was configured).
    pub fn pacer(&self) -> &Pacer {
        &self.pacer
    }

    /// The host's breaker state, [`BreakerState::Closed`] when no
    /// resilience layer is present.
    pub fn breaker_state(&self, host: &str) -> BreakerState {
        match &self.tower {
            Tower::Plain(_) | Tower::Faulty(_) => BreakerState::Closed,
            Tower::Resilient(r) => r.breaker_state(host),
            Tower::ResilientFaulty(r) => r.breaker_state(host),
        }
    }

    /// The unified telemetry snapshot: every enabled layer's stats, each
    /// pre-sorted by host, behind one `Display`.
    pub fn telemetry(&self) -> StackTelemetry {
        let faults = match &self.tower {
            Tower::Faulty(f) => Some(f.stats()),
            Tower::ResilientFaulty(r) => Some(r.inner().stats()),
            _ => None,
        };
        let resilience = match &self.tower {
            Tower::Resilient(r) => Some(r.stats()),
            Tower::ResilientFaulty(r) => Some(r.stats()),
            _ => None,
        };
        let pacing = if self.pacer.adaptive() || self.pacer.hedging() {
            Some(self.pacer.stats())
        } else {
            None
        };
        StackTelemetry {
            faults,
            resilience,
            pacing,
        }
    }

    /// Snapshot every enabled layer's mutable state for checkpointing.
    /// Restoring this into a freshly built stack with the same
    /// configuration makes its future schedule identical to the
    /// original's — attempt counters, breakers, AIMD limits and latency
    /// estimators all carry over.
    pub fn export_state(&self) -> StackState {
        let faults = match &self.tower {
            Tower::Faulty(f) => Some(f.export_state()),
            Tower::ResilientFaulty(r) => Some(r.inner().export_state()),
            _ => None,
        };
        let resilience = match &self.tower {
            Tower::Resilient(r) => Some(r.export_state()),
            Tower::ResilientFaulty(r) => Some(r.export_state()),
            _ => None,
        };
        StackState {
            faults,
            resilience,
            pacing: self.pacer.export_state(),
        }
    }

    /// Overwrite every enabled layer's mutable state from a checkpoint
    /// snapshot. Layers absent from either side are left untouched.
    pub fn restore_state(&self, snapshot: &StackState) {
        if let Some(faults) = &snapshot.faults {
            match &self.tower {
                Tower::Faulty(f) => f.restore_state(faults),
                Tower::ResilientFaulty(r) => r.inner().restore_state(faults),
                _ => {}
            }
        }
        if let Some(resilience) = &snapshot.resilience {
            match &self.tower {
                Tower::Resilient(r) => r.restore_state(resilience),
                Tower::ResilientFaulty(r) => r.restore_state(resilience),
                _ => {}
            }
        }
        self.pacer.restore_state(&snapshot.pacing);
    }
}

impl<F: Fetcher> FetchStack<F> {
    /// Whether a worker may touch the transport for `host` under the
    /// breaker snapshot frozen for the current batch (an open breaker
    /// sheds; closed and half-open — the probe — proceed). Towers
    /// without a resilience layer always admit.
    pub(crate) fn frozen_allows(&self, host: &str) -> bool {
        self.breaker_state(host) != BreakerState::Open
    }

    /// Worker half of a scheduler-issued GET: retries without breaker
    /// bookkeeping (see [`ResilientFetcher::attempt_get`]).
    pub(crate) fn attempt_get(&self, url: &Url) -> ((Status, String, String), RequestCost) {
        match &self.tower {
            Tower::Plain(f) => (f.get(url), RequestCost::default()),
            Tower::Faulty(f) => (f.get(url), RequestCost::default()),
            Tower::Resilient(r) => r.attempt_get(url),
            Tower::ResilientFaulty(r) => r.attempt_get(url),
        }
    }

    /// Worker half of a scheduler-issued HEAD: retries without breaker
    /// bookkeeping (see [`ResilientFetcher::attempt_head`]).
    pub(crate) fn attempt_head(&self, url: &Url) -> ((Status, String), RequestCost) {
        match &self.tower {
            Tower::Plain(f) => (f.head(url), RequestCost::default()),
            Tower::Faulty(f) => (f.head(url), RequestCost::default()),
            Tower::Resilient(r) => r.attempt_head(url),
            Tower::ResilientFaulty(r) => r.attempt_head(url),
        }
    }

    /// One raw attempt below the resilience layer — the hedge: a single
    /// speculative fetch, never a second retry loop.
    pub(crate) fn raw_get(&self, url: &Url) -> (Status, String, String) {
        match &self.tower {
            Tower::Plain(f) => f.get(url),
            Tower::Faulty(f) => f.get(url),
            Tower::Resilient(r) => r.inner().get(url),
            Tower::ResilientFaulty(r) => r.inner().get(url),
        }
    }

    /// Scheduler half: settle one recorded hop in issue order (see
    /// [`ResilientFetcher::settle_hop`]). No-op for towers without a
    /// resilience layer.
    pub(crate) fn settle_hop(&self, host: &str, record: &crate::fault::HopRecord) {
        match &self.tower {
            Tower::Plain(_) | Tower::Faulty(_) => {}
            Tower::Resilient(r) => r.settle_hop(host, record),
            Tower::ResilientFaulty(r) => r.settle_hop(host, record),
        }
    }

    /// HEAD through the tower, reporting the request's virtual cost.
    pub fn head_cost(&self, url: &Url) -> ((Status, String), RequestCost) {
        match &self.tower {
            Tower::Plain(f) => (f.head(url), RequestCost::default()),
            Tower::Faulty(f) => (f.head(url), RequestCost::default()),
            Tower::Resilient(r) => r.head_cost(url),
            Tower::ResilientFaulty(r) => r.head_cost(url),
        }
    }

    /// GET through the tower, reporting the request's virtual cost.
    pub fn get_cost(&self, url: &Url) -> ((Status, String, String), RequestCost) {
        match &self.tower {
            Tower::Plain(f) => (f.get(url), RequestCost::default()),
            Tower::Faulty(f) => (f.get(url), RequestCost::default()),
            Tower::Resilient(r) => r.get_cost(url),
            Tower::ResilientFaulty(r) => r.get_cost(url),
        }
    }
}

impl<F: Fetcher> Fetcher for FetchStack<F> {
    fn head(&self, url: &Url) -> (Status, String) {
        self.head_cost(url).0
    }

    fn get(&self, url: &Url) -> (Status, String, String) {
        self.get_cost(url).0
    }
}

/// Checkpointable state of a whole [`FetchStack`]: the mutable parts of
/// every enabled layer. Configuration (policies, fault spec, seed) is
/// *not* captured — a restore target must be built with the same
/// configuration, which the checkpoint layer enforces by fingerprint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StackState {
    /// Fault-layer attempt counters and per-host accounting, when a
    /// fault layer is present.
    pub faults: Option<FaultLayerState>,
    /// Retry/breaker state, when a resilience layer is present.
    pub resilience: Option<ResilienceLayerState>,
    /// Per-host AIMD and latency-estimator state.
    pub pacing: PacingLayerState,
}

/// Unified stats snapshot across every enabled stack layer. Its
/// `Display` — present sections joined by blank lines — is the shared
/// render path for poacher `-stats` and httpd `/metrics`.
#[derive(Debug, Clone, Default)]
pub struct StackTelemetry {
    /// Fault-injection accounting, when a fault layer is present.
    pub faults: Option<FaultStats>,
    /// Retry/breaker accounting, when a resilience layer is present.
    pub resilience: Option<ResilienceStats>,
    /// Adaptive pacing accounting, when AIMD limits or hedging are on.
    pub pacing: Option<PacingStats>,
}

impl StackTelemetry {
    /// Whether any layer contributed a section.
    pub fn is_empty(&self) -> bool {
        self.faults.is_none() && self.resilience.is_none() && self.pacing.is_none()
    }
}

impl fmt::Display for StackTelemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut section = |f: &mut fmt::Formatter<'_>, text: String| {
            let sep = if first { "" } else { "\n\n" };
            first = false;
            write!(f, "{sep}{text}")
        };
        if let Some(faults) = &self.faults {
            section(f, faults.to_string())?;
        }
        if let Some(resilience) = &self.resilience {
            section(f, resilience.to_string())?;
        }
        if let Some(pacing) = &self.pacing {
            section(f, pacing.to_string())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::web::{SharedWeb, SimulatedWeb};

    fn web() -> SharedWeb {
        let mut web = SimulatedWeb::new();
        web.add_page("http://s/x.html", "<HTML><BODY>x</BODY></HTML>");
        SharedWeb::new(web)
    }

    #[test]
    fn plain_stack_fetches_and_reports_nothing() {
        let stack = FetchStack::new(web()).build();
        let url = Url::parse("http://s/x.html").unwrap();
        let ((status, _, body), cost) = stack.get_cost(&url);
        assert_eq!(status, Status::Ok);
        assert!(body.contains("x"));
        assert_eq!(cost, RequestCost::default());
        assert_eq!(stack.breaker_state("s"), BreakerState::Closed);
        let telemetry = stack.telemetry();
        assert!(telemetry.is_empty());
        assert_eq!(telemetry.to_string(), "");
    }

    #[test]
    fn full_stack_renders_every_section_once() {
        let stack = FetchStack::new(web())
            .faults(FaultSpec::all(50), 7)
            .resilience_defaults()
            .adaptive_defaults()
            .hedging_defaults()
            .build();
        let url = Url::parse("http://s/x.html").unwrap();
        for _ in 0..8 {
            let _ = stack.get(&url);
        }
        stack.pacer().observe(
            "s",
            crate::pacing::Observation {
                clean: true,
                bad: false,
                latency_us: 20_000,
            },
        );
        let text = stack.telemetry().to_string();
        assert_eq!(text.matches("fault injection:").count(), 1, "{text}");
        assert_eq!(text.matches("resilience:").count(), 1, "{text}");
        assert_eq!(text.matches("pacing:").count(), 1, "{text}");
        let sections: Vec<&str> = text.split("\n\n").collect();
        assert_eq!(sections.len(), 3, "{text}");
    }

    #[test]
    fn layers_toggle_independently() {
        let faulty_only = FetchStack::new(web()).faults(FaultSpec::all(10), 1).build();
        let t = faulty_only.telemetry();
        assert!(t.faults.is_some() && t.resilience.is_none() && t.pacing.is_none());

        let resilient_only = FetchStack::new(web()).resilience_defaults().build();
        let t = resilient_only.telemetry();
        assert!(t.faults.is_none() && t.resilience.is_some() && t.pacing.is_none());
        assert!(!resilient_only.pacer().adaptive());

        let adaptive_only = FetchStack::new(web()).adaptive_defaults().build();
        let t = adaptive_only.telemetry();
        assert!(t.faults.is_none() && t.resilience.is_none() && t.pacing.is_some());
        assert_eq!(adaptive_only.pacer().limit("s"), 4);
    }

    #[test]
    fn stack_matches_hand_nested_construction() {
        // The builder must reproduce the legacy hand-nested tower
        // byte-for-byte: same seed, same schedule, same stats.
        let url = Url::parse("http://s/x.html").unwrap();
        let stack = FetchStack::new(web())
            .faults(FaultSpec::all(30), 11)
            .resilience_defaults()
            .build();
        let legacy =
            ResilientFetcher::with_defaults(FaultyWeb::new(web(), FaultSpec::all(30), 11), 11);
        for _ in 0..12 {
            assert_eq!(stack.get(&url), legacy.get(&url));
            assert_eq!(stack.head(&url), legacy.head(&url));
        }
        let telemetry = stack.telemetry();
        assert_eq!(
            telemetry.faults.as_ref().unwrap().to_string(),
            legacy.inner().stats().to_string()
        );
        assert_eq!(
            telemetry.resilience.as_ref().unwrap().to_string(),
            legacy.stats().to_string()
        );
    }
}
