//! [`FetchStack`]: the one fetch decorator. Fault injection, retries
//! with per-host circuit breakers, and the adaptive pacer are optional
//! layers held beside the transport:
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
//! Each layer is independently toggled; a stack with no layers is the
//! plain transport that [`crate::Robot::crawl_sharded`] builds per shard,
//! and [`FetchStack`] itself implements [`Fetcher`], so it drops into any
//! other consumer unchanged. Every request takes one path: the breaker
//! gate, then the retry loop over the (faulted) transport, then the
//! breaker bookkeeping. The robot's workers run the first two and its
//! shard thread settles the third in issue order;
//! [`FetchStack::get_cost`] and [`FetchStack::head_cost`] run all three
//! in a row. [`FetchStack::telemetry`] returns the one unified snapshot
//! ([`StackTelemetry`]) whose `Display` is the single render path shared
//! by poacher `-stats` and the httpd `/metrics` endpoint.

use std::fmt;

use crate::fault::{
    transient, BreakerState, FaultLayer, FaultLayerState, FaultSpec, FaultStats, HopRecord,
    RequestCost, ResilienceLayer, ResilienceLayerState, ResilienceStats,
};
use crate::pacing::{Pacer, PacingLayerState, PacingStats};
use crate::robot::Fetcher;
use crate::url::Url;
use crate::web::Status;

/// Builder for [`FetchStack`]; see the module docs for the idiom.
pub struct FetchStackBuilder<F> {
    base: F,
    faults: Option<(FaultSpec, u64)>,
    resilience: bool,
    adaptive: bool,
    hedging: bool,
}

impl<F> FetchStackBuilder<F> {
    /// Inject deterministic faults below every other layer.
    pub fn faults(mut self, spec: FaultSpec, seed: u64) -> Self {
        self.faults = Some((spec, seed));
        self
    }

    /// Retry transient failures and guard each host with a circuit
    /// breaker. The backoff jitter reuses the fault seed so one seed
    /// fixes the whole stack's schedule.
    pub fn resilience_defaults(mut self) -> Self {
        self.resilience = true;
        self
    }

    /// Enable per-host AIMD in-flight limits for crawl scheduling.
    pub fn adaptive_defaults(mut self) -> Self {
        self.adaptive = true;
        self
    }

    /// Enable budget-capped hedged fetches for crawl scheduling.
    pub fn hedging_defaults(mut self) -> Self {
        self.hedging = true;
        self
    }

    /// Compose the configured layers into a [`FetchStack`].
    pub fn build(self) -> FetchStack<F> {
        let seed = self.faults.as_ref().map_or(0, |(_, seed)| *seed);
        FetchStack {
            base: self.base,
            layers: Layers {
                faults: self.faults.map(|(spec, seed)| FaultLayer::new(spec, seed)),
                resilience: self.resilience.then(|| ResilienceLayer::new(seed)),
                pacer: Pacer::new(self.adaptive, self.hedging),
            },
        }
    }
}

/// A composed fetch stack: the transport, plus optional fault
/// injection, optional resilience, and the adaptive pacer the crawl
/// scheduler consults.
pub struct FetchStack<F> {
    base: F,
    layers: Layers,
}

/// The layers of a [`FetchStack`], held beside its transport. Nothing
/// here is generic: each request is handed the transport as a
/// `&dyn Fetcher`, so the stack's logic compiles once, in this crate,
/// whatever transport a caller builds it over.
struct Layers {
    faults: Option<FaultLayer>,
    resilience: Option<ResilienceLayer>,
    pacer: Pacer,
}

impl Layers {
    /// One raw HEAD: the transport, through the fault layer if any.
    fn raw_head(&self, base: &dyn Fetcher, url: &Url) -> (Status, String) {
        match &self.faults {
            Some(faults) => faults.head(base, url),
            None => base.head(url),
        }
    }

    /// One raw GET: the transport, through the fault layer if any.
    fn raw_get(&self, base: &dyn Fetcher, url: &Url) -> (Status, String, String) {
        match &self.faults {
            Some(faults) => faults.get(base, url),
            None => base.get(url),
        }
    }

    fn attempt_head(&self, base: &dyn Fetcher, url: &Url) -> ((Status, String), RequestCost) {
        let op = || self.raw_head(base, url);
        let shed = (Status::ServerError, String::new());
        match &self.resilience {
            Some(r) => r.attempt(url, shed, op, |answer| transient(&answer.0)),
            None => (op(), RequestCost::default()),
        }
    }

    fn attempt_get(
        &self,
        base: &dyn Fetcher,
        url: &Url,
    ) -> ((Status, String, String), RequestCost) {
        let op = || self.raw_get(base, url);
        let shed = (Status::ServerError, String::new(), String::new());
        match &self.resilience {
            Some(r) => r.attempt(url, shed, op, |answer| transient(&answer.0)),
            None => (op(), RequestCost::default()),
        }
    }
}

impl<F> FetchStack<F> {
    /// Start building a stack over `base` (the transport: a
    /// [`crate::SharedWeb`], a live fetcher, a test double).
    ///
    /// `new` deliberately returns the builder, not the stack — the
    /// layers are only ever composed in one place, through
    /// `FetchStack::new(web)…build()`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(base: F) -> FetchStackBuilder<F> {
        FetchStackBuilder {
            base,
            faults: None,
            resilience: false,
            adaptive: false,
            hedging: false,
        }
    }

    /// The adaptive pacer (inert when neither `adaptive` nor `hedging`
    /// was configured).
    pub fn pacer(&self) -> &Pacer {
        &self.layers.pacer
    }

    /// Cap the pacer's per-host AIMD limit at `limit`.
    #[cfg(test)]
    pub(crate) fn cap_limit(mut self, limit: u32) -> Self {
        self.layers.pacer.cap_limit(limit);
        self
    }

    /// The host's breaker state, [`BreakerState::Closed`] when no
    /// resilience layer is present.
    pub fn breaker_state(&self, host: &str) -> BreakerState {
        self.layers
            .resilience
            .as_ref()
            .map_or(BreakerState::Closed, |r| r.breaker_state(host))
    }

    /// The unified telemetry snapshot: every enabled layer's stats, each
    /// pre-sorted by host, behind one `Display`.
    pub fn telemetry(&self) -> StackTelemetry {
        let pacer = &self.layers.pacer;
        StackTelemetry {
            faults: self.layers.faults.as_ref().map(FaultLayer::stats),
            resilience: self.layers.resilience.as_ref().map(ResilienceLayer::stats),
            pacing: (pacer.adaptive() || pacer.hedging()).then(|| pacer.stats()),
        }
    }

    /// Snapshot every enabled layer's mutable state for checkpointing.
    /// Restoring this into a freshly built stack with the same
    /// configuration makes its future schedule identical to the
    /// original's — attempt counters, breakers, AIMD limits and latency
    /// estimators all carry over.
    pub fn export_state(&self) -> StackState {
        StackState {
            faults: self.layers.faults.as_ref().map(FaultLayer::export_state),
            resilience: self
                .layers
                .resilience
                .as_ref()
                .map(ResilienceLayer::export_state),
            pacing: self.layers.pacer.export_state(),
        }
    }

    /// Overwrite every enabled layer's mutable state from a checkpoint
    /// snapshot. An enabled layer the snapshot has no state for is reset
    /// to its freshly built state, so restoring onto a used stack gives
    /// the same stack as restoring onto a new one.
    pub fn restore_state(&self, snapshot: &StackState) {
        if let Some(layer) = &self.layers.faults {
            layer.restore_state(snapshot.faults.as_ref().unwrap_or(&Default::default()));
        }
        if let Some(layer) = &self.layers.resilience {
            layer.restore_state(snapshot.resilience.as_ref().unwrap_or(&Default::default()));
        }
        self.layers.pacer.restore_state(&snapshot.pacing);
    }

    /// Settling half of a request: book one hop's outcome on the
    /// resilience layer, in issue order. No-op without one.
    pub(crate) fn settle_hop(&self, host: &str, record: &HopRecord) {
        if let Some(r) = &self.layers.resilience {
            r.settle_hop(host, record);
        }
    }
}

impl<F: Fetcher> FetchStack<F> {
    /// Worker half of a GET: shed it if the host's breaker is open (the
    /// batch's frozen snapshot — a shed never touches the transport),
    /// else run the retry loop. Settle it with [`Self::settle_hop`].
    pub(crate) fn attempt_get(&self, url: &Url) -> ((Status, String, String), RequestCost) {
        self.layers.attempt_get(&self.base, url)
    }

    /// Worker half of a HEAD, the link check's twin of
    /// [`Self::attempt_get`].
    pub(crate) fn attempt_head(&self, url: &Url) -> ((Status, String), RequestCost) {
        self.layers.attempt_head(&self.base, url)
    }

    /// One raw attempt below the resilience layer — the hedge: a single
    /// speculative fetch, never a second retry loop.
    pub(crate) fn raw_get(&self, url: &Url) -> (Status, String, String) {
        self.layers.raw_get(&self.base, url)
    }

    /// HEAD through every layer, reporting the request's virtual cost.
    pub fn head_cost(&self, url: &Url) -> ((Status, String), RequestCost) {
        let (answer, cost) = self.attempt_head(url);
        self.settle_hop(&url.host, &HopRecord::of(&answer.0, &cost));
        (answer, cost)
    }

    /// GET through every layer, reporting the request's virtual cost.
    pub fn get_cost(&self, url: &Url) -> ((Status, String, String), RequestCost) {
        let (answer, cost) = self.attempt_get(url);
        self.settle_hop(&url.host, &HopRecord::of(&answer.0, &cost));
        (answer, cost)
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
    fn restoring_onto_a_used_stack_equals_restoring_onto_a_fresh_one() {
        let full = || {
            FetchStack::new(web())
                .faults(FaultSpec::all(40), 3)
                .resilience_defaults()
                .adaptive_defaults()
                .hedging_defaults()
                .build()
        };
        let urls: Vec<Url> = ["http://s/x.html", "http://s/gone.html", "http://t/y.html"]
            .iter()
            .map(|u| Url::parse(u).unwrap())
            .collect();
        let drive = |stack: &FetchStack<SharedWeb>, rounds: usize| {
            for _ in 0..rounds {
                for url in &urls {
                    let (_, cost) = stack.get_cost(url);
                    let _ = stack.head_cost(url);
                    stack.pacer().observe(
                        &url.host,
                        crate::pacing::Observation {
                            clean: cost.retries == 0,
                            bad: cost.retries > 0,
                            latency_us: cost.virtual_us(),
                        },
                    );
                }
            }
        };
        let rich = full();
        drive(&rich, 5);
        let rich = rich.export_state();
        assert!(rich.faults.as_ref().is_some_and(|f| !f.attempts.is_empty()));

        for state in [StackState::default(), rich] {
            let fresh = full();
            fresh.restore_state(&state);
            let used = full();
            drive(&used, 3);
            assert_ne!(used.export_state(), fresh.export_state());
            used.restore_state(&state);
            assert_eq!(used.export_state(), fresh.export_state());
            assert_eq!(
                format!("{:?}", used.telemetry()),
                format!("{:?}", fresh.telemetry())
            );
            for url in urls.iter().cycle().take(12) {
                assert_eq!(used.head_cost(url), fresh.head_cost(url), "HEAD {url}");
                assert_eq!(used.get_cost(url), fresh.get_cost(url), "GET {url}");
            }
            assert_eq!(used.export_state(), fresh.export_state());
        }
    }
}
