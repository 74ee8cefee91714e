//! Adaptive per-host pacing: AIMD in-flight limits and hedged-request
//! policy for the crawl scheduler.
//!
//! The paper's poacher "walks a site, applying weblint to each page"
//! with a fixed request pattern; this module gives the walk a control
//! loop. Two classic algorithms, both driven by the resilience layer's
//! per-host feedback ([`crate::HostResilience`]):
//!
//! * **AIMD in-flight limits** (TCP congestion control transplanted to
//!   a crawler): each host has an in-flight limit that grows by one
//!   after a streak of clean completions (additive increase) and halves
//!   on any retry, timeout, or 5xx (multiplicative decrease), floored
//!   at 1 — so a struggling host is throttled *before* its circuit
//!   breaker ever opens, and a healthy host is probed up to the ceiling.
//! * **Hedged requests** (Dean & Barroso, "The Tail at Scale"): when an
//!   attempt's virtual latency exceeds the host's slow threshold — an
//!   RTO-style estimate `srtt + 4·dev` fed from per-request
//!   backoff/attempt costs — one speculative retry may be issued and
//!   the first definite answer taken. Hedges are *budgeted* (never more
//!   than [`HEDGE_BUDGET_PERCENT`] of a host's requests) and
//!   suppressed entirely while the host's breaker is anything but
//!   closed, so hedging can never double load on a host that is already
//!   in recovery.
//!
//! Everything here is deterministic: decisions are pure functions of
//! the authorization order and the observed virtual costs, never of
//! wall-clock time, so a crawl with a fixed seed replays byte-for-byte.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

use crate::fault::BreakerState;

/// In-flight limit granted to a host never seen before.
const INITIAL_LIMIT: u32 = 4;
/// Ceiling the additive increase may reach.
const MAX_LIMIT: u32 = 16;
/// Clean completions in a row needed for a +1 increase.
const INCREASE_PER: u32 = 4;
/// Hedges may never exceed this percentage of a host's authorized
/// requests (Dean & Barroso use ~5%).
const HEDGE_BUDGET_PERCENT: u64 = 5;
/// Floor for the slow threshold, in virtual microseconds, so a host with
/// a short history is not hedged on noise. Three virtual RTTs: a first
/// retry (2 attempts + backoff) always clears it, a clean single attempt
/// never does.
const MIN_THRESHOLD_US: u64 = 60_000;
/// Deviation multiplier in the RTO-style threshold (`srtt + factor · dev`).
const DEVIATION_FACTOR: i64 = 4;

/// Permission to hedge one request, issued at schedule time so the
/// decision is deterministic regardless of worker interleaving. The
/// token snapshots the host's slow threshold; the fetch worker fires the
/// hedge only if the token grants it *and* the primary attempt actually
/// exceeded the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgeToken {
    /// Whether a hedge may be fired at all.
    pub granted: bool,
    /// The host's slow threshold at authorization time, in virtual
    /// microseconds.
    pub threshold_us: u64,
}

impl HedgeToken {
    /// A token that never hedges (plain transports, hedging disabled).
    pub fn denied() -> HedgeToken {
        HedgeToken {
            granted: false,
            threshold_us: u64::MAX,
        }
    }
}

/// One completed request's feedback to the pacer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// The request ended in a definitive answer without any retries.
    pub clean: bool,
    /// The request burned retries or stayed transiently failed — the
    /// multiplicative-decrease signal.
    pub bad: bool,
    /// Virtual latency of the request (attempts + backoff), for the
    /// slow-threshold estimator; `0` is ignored (shed requests).
    pub latency_us: u64,
}

/// RTO-style latency estimator (integer EWMA of value and deviation,
/// exactly the TCP smoothed-RTT recurrence), kept per host.
#[derive(Debug, Clone, Copy, Default)]
struct SlowEstimator {
    srtt_us: i64,
    dev_us: i64,
    samples: u64,
}

impl SlowEstimator {
    fn observe(&mut self, latency_us: u64) {
        let x = latency_us as i64;
        if self.samples == 0 {
            self.srtt_us = x;
            self.dev_us = x / 2;
        } else {
            let err = x - self.srtt_us;
            self.srtt_us += err / 8;
            self.dev_us += (err.abs() - self.dev_us) / 4;
        }
        self.samples += 1;
    }

    fn threshold_us(&self) -> u64 {
        let estimate = self.srtt_us + DEVIATION_FACTOR * self.dev_us;
        (estimate.max(0) as u64).max(MIN_THRESHOLD_US)
    }
}

/// Per-host pacing state.
#[derive(Debug, Clone, Default)]
struct HostState {
    limit: u32,
    clean_streak: u32,
    estimator: SlowEstimator,
    stats: HostPacing,
}

/// Per-host pacing counters, snapshot into [`PacingStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostPacing {
    /// Current in-flight limit.
    pub limit: u32,
    /// Requests authorized through the pacer.
    pub authorized: u64,
    /// Clean completions observed.
    pub clean: u64,
    /// Bad completions (retries/timeouts/5xx) observed.
    pub bad: u64,
    /// Multiplicative decreases actually applied (the limit shrank).
    pub decreases: u64,
    /// Additive increases applied.
    pub increases: u64,
    /// Hedges fired (a speculative retry actually went out).
    pub hedges_fired: u64,
    /// Fired hedges whose answer was used (the hedge "won").
    pub hedges_won: u64,
    /// Hedge authorizations denied because the host's breaker was not
    /// closed.
    pub suppressed_breaker: u64,
    /// Hedge authorizations denied by the budget.
    pub suppressed_budget: u64,
    /// The host's current slow threshold, in virtual microseconds.
    pub threshold_us: u64,
}

/// Per-host pacing accounting, pre-sorted by host.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PacingStats {
    /// `(host, counters)` pairs in host order.
    pub hosts: Vec<(String, HostPacing)>,
}

impl PacingStats {
    /// Total hedges fired across all hosts.
    pub fn hedges_fired_total(&self) -> u64 {
        self.hosts.iter().map(|(_, h)| h.hedges_fired).sum()
    }

    /// Total hedges won across all hosts.
    pub fn hedges_won_total(&self) -> u64 {
        self.hosts.iter().map(|(_, h)| h.hedges_won).sum()
    }

    /// Total hedge authorizations suppressed (breaker + budget).
    pub fn suppressed_total(&self) -> u64 {
        self.hosts
            .iter()
            .map(|(_, h)| h.suppressed_breaker + h.suppressed_budget)
            .sum()
    }

    /// Total multiplicative decreases across all hosts.
    pub fn decreases_total(&self) -> u64 {
        self.hosts.iter().map(|(_, h)| h.decreases).sum()
    }
}

impl fmt::Display for PacingStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pacing: {} host(s) paced, {} hedge(s) fired ({} won, {} suppressed), \
             {} limit decrease(s)",
            self.hosts.len(),
            self.hedges_fired_total(),
            self.hedges_won_total(),
            self.suppressed_total(),
            self.decreases_total()
        )?;
        for (host, h) in &self.hosts {
            write!(
                f,
                "\n  {host}: limit {}, {} clean / {} bad of {} authorized \
                 ({} decrease(s), {} increase(s)), hedges {} fired / {} won \
                 ({} breaker-suppressed, {} budget-suppressed), \
                 slow over {:.1}ms",
                h.limit,
                h.clean,
                h.bad,
                h.authorized,
                h.decreases,
                h.increases,
                h.hedges_fired,
                h.hedges_won,
                h.suppressed_breaker,
                h.suppressed_budget,
                h.threshold_us as f64 / 1000.0
            )?;
        }
        Ok(())
    }
}

/// The adaptive pacer: per-host AIMD limits plus the hedge budget.
///
/// All methods are `&self` behind one mutex so the pacer can be shared
/// by a scheduler thread and stats renderers. Decisions happen at
/// *authorization* time (on the crawl scheduler's one thread), so
/// parallel fetch workers cannot race the budget into nondeterminism.
#[derive(Debug)]
pub struct Pacer {
    adaptive: bool,
    hedging: bool,
    /// [`MAX_LIMIT`], lowered only by the crate's own tests.
    max_limit: u32,
    hosts: Mutex<BTreeMap<String, HostState>>,
}

impl Pacer {
    /// A pacer with AIMD limits on if `adaptive`, hedging on if
    /// `hedging`; a pacer with both off is inert.
    pub fn new(adaptive: bool, hedging: bool) -> Pacer {
        Pacer {
            adaptive,
            hedging,
            max_limit: MAX_LIMIT,
            hosts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Cap every host's AIMD limit at `limit`: a new host starts there
    /// and never grows past it.
    #[cfg(test)]
    pub(crate) fn cap_limit(&mut self, limit: u32) {
        self.max_limit = limit;
    }

    /// Whether adaptive limits are active.
    pub fn adaptive(&self) -> bool {
        self.adaptive
    }

    /// Whether hedging is active.
    pub fn hedging(&self) -> bool {
        self.hedging
    }

    /// The limit a new host starts at (`u32::MAX` without AIMD).
    fn initial_limit(&self) -> u32 {
        match self.adaptive {
            true => INITIAL_LIMIT.min(self.max_limit),
            false => u32::MAX,
        }
    }

    fn entry<'a>(
        &self,
        hosts: &'a mut BTreeMap<String, HostState>,
        host: &str,
    ) -> &'a mut HostState {
        if !hosts.contains_key(host) {
            let limit = self.initial_limit();
            hosts.insert(
                host.to_string(),
                HostState {
                    limit,
                    stats: HostPacing {
                        limit,
                        threshold_us: match self.hedging {
                            true => MIN_THRESHOLD_US,
                            false => u64::MAX,
                        },
                        ..HostPacing::default()
                    },
                    ..HostState::default()
                },
            );
        }
        hosts.get_mut(host).expect("just inserted")
    }

    /// The host's current in-flight limit (`usize::MAX` when adaptive
    /// limits are disabled).
    pub fn limit(&self, host: &str) -> usize {
        if !self.adaptive {
            return usize::MAX;
        }
        let hosts = self.hosts.lock().unwrap();
        let limit = hosts.get(host).map_or(self.initial_limit(), |s| s.limit);
        limit as usize
    }

    /// Authorize one request against `host`, deciding up front whether it
    /// may hedge. Called in schedule order — the budget arithmetic is
    /// exact because authorization is never concurrent with itself.
    pub fn authorize(&self, host: &str, breaker: BreakerState) -> HedgeToken {
        let mut hosts = self.hosts.lock().unwrap();
        let state = self.entry(&mut hosts, host);
        state.stats.authorized += 1;
        if !self.hedging {
            return HedgeToken::denied();
        }
        let threshold_us = state.estimator.threshold_us();
        state.stats.threshold_us = threshold_us;
        // Never hedge a host whose breaker is open or probing: the hedge
        // would either be shed (wasted) or double load on the one probe
        // the breaker is using to decide recovery.
        if breaker != BreakerState::Closed {
            state.stats.suppressed_breaker += 1;
            return HedgeToken::denied();
        }
        // Budget: counting this grant, fired hedges must stay within
        // the budget's share of everything authorized so far. Unfired grants
        // are refunded in `settle_hedge`, so the budget is spent on real
        // hedges, yet can never be exceeded even transiently.
        let outstanding = state.stats.hedges_fired + 1;
        if outstanding * 100 > HEDGE_BUDGET_PERCENT * state.stats.authorized {
            state.stats.suppressed_budget += 1;
            return HedgeToken::denied();
        }
        // Reserve the budget slot by pre-counting the hedge as fired;
        // refunded if the worker never fires it.
        state.stats.hedges_fired += 1;
        HedgeToken {
            granted: true,
            threshold_us,
        }
    }

    /// Report what became of a granted token: refund the reserved budget
    /// slot if the hedge never fired, count the win if its answer was
    /// used. No-op for denied tokens.
    pub fn settle_hedge(&self, host: &str, token: HedgeToken, fired: bool, won: bool) {
        if !token.granted {
            return;
        }
        let mut hosts = self.hosts.lock().unwrap();
        let state = self.entry(&mut hosts, host);
        if !fired {
            state.stats.hedges_fired = state.stats.hedges_fired.saturating_sub(1);
        } else if won {
            state.stats.hedges_won += 1;
        }
    }

    /// Feed one completed request's outcome into the AIMD loop and the
    /// latency estimator. Called in schedule order.
    pub fn observe(&self, host: &str, obs: Observation) {
        let mut hosts = self.hosts.lock().unwrap();
        let state = self.entry(&mut hosts, host);
        if obs.latency_us > 0 {
            state.estimator.observe(obs.latency_us);
            if self.hedging {
                state.stats.threshold_us = state.estimator.threshold_us();
            }
        }
        if !self.adaptive {
            if obs.bad {
                state.stats.bad += 1;
            } else if obs.clean {
                state.stats.clean += 1;
            }
            return;
        }
        if obs.bad {
            state.stats.bad += 1;
            state.clean_streak = 0;
            let halved = (state.limit / 2).max(1);
            if halved < state.limit {
                state.limit = halved;
                state.stats.decreases += 1;
            }
        } else if obs.clean {
            state.stats.clean += 1;
            state.clean_streak += 1;
            if state.clean_streak >= INCREASE_PER && state.limit < self.max_limit {
                state.limit += 1;
                state.stats.increases += 1;
                state.clean_streak = 0;
            }
        }
        state.stats.limit = state.limit;
    }

    /// Pre-sorted per-host snapshot.
    pub fn stats(&self) -> PacingStats {
        let hosts = self.hosts.lock().unwrap();
        PacingStats {
            hosts: hosts.iter().map(|(h, s)| (h.clone(), s.stats)).collect(),
        }
    }

    /// Snapshot every host's AIMD position, latency estimator, and
    /// counters for checkpointing.
    pub fn export_state(&self) -> PacingLayerState {
        let hosts = self.hosts.lock().unwrap();
        PacingLayerState {
            hosts: hosts
                .iter()
                .map(|(h, s)| PacerHostState {
                    host: h.clone(),
                    limit: s.limit,
                    clean_streak: s.clean_streak,
                    srtt_us: s.estimator.srtt_us,
                    dev_us: s.estimator.dev_us,
                    samples: s.estimator.samples,
                    stats: s.stats,
                })
                .collect(),
        }
    }

    /// Overwrite every host's state from a checkpoint snapshot.
    pub fn restore_state(&self, snapshot: &PacingLayerState) {
        let mut hosts = self.hosts.lock().unwrap();
        hosts.clear();
        for h in &snapshot.hosts {
            hosts.insert(
                h.host.clone(),
                HostState {
                    limit: h.limit,
                    clean_streak: h.clean_streak,
                    estimator: SlowEstimator {
                        srtt_us: h.srtt_us,
                        dev_us: h.dev_us,
                        samples: h.samples,
                    },
                    stats: h.stats,
                },
            );
        }
    }
}

/// Checkpointable state of a [`Pacer`]: one entry per host, sorted by
/// host.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PacingLayerState {
    /// Per-host pacing state.
    pub hosts: Vec<PacerHostState>,
}

/// One host's checkpointed pacing state: the AIMD limit and streak, the
/// RTO estimator, and the visible counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacerHostState {
    /// The host.
    pub host: String,
    /// Current in-flight limit.
    pub limit: u32,
    /// Clean completions since the last limit change.
    pub clean_streak: u32,
    /// Smoothed virtual latency (integer EWMA).
    pub srtt_us: i64,
    /// Smoothed latency deviation.
    pub dev_us: i64,
    /// Samples fed to the estimator.
    pub samples: u64,
    /// The host's visible counters.
    pub stats: HostPacing,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(latency_us: u64) -> Observation {
        Observation {
            clean: true,
            bad: false,
            latency_us,
        }
    }

    fn bad(latency_us: u64) -> Observation {
        Observation {
            clean: false,
            bad: true,
            latency_us,
        }
    }

    #[test]
    fn aimd_decreases_multiplicatively_and_floors_at_one() {
        let pacer = Pacer::new(true, false);
        assert_eq!(pacer.limit("h"), 4);
        pacer.observe("h", bad(100_000));
        assert_eq!(pacer.limit("h"), 2);
        pacer.observe("h", bad(100_000));
        assert_eq!(pacer.limit("h"), 1);
        pacer.observe("h", bad(100_000));
        assert_eq!(pacer.limit("h"), 1, "floor is 1, never 0");
        let stats = pacer.stats();
        let h = &stats.hosts[0].1;
        assert_eq!(h.decreases, 2, "a decrease at the floor is not counted");
        assert_eq!(h.bad, 3);
    }

    #[test]
    fn aimd_recovers_additively_after_a_clean_streak() {
        let pacer = Pacer::new(true, false);
        for _ in 0..4 {
            pacer.observe("h", bad(100_000));
        }
        assert_eq!(pacer.limit("h"), 1);
        // Four cleans per +1: 12 cleans climb 1 → 4.
        for _ in 0..12 {
            pacer.observe("h", clean(20_000));
        }
        assert_eq!(pacer.limit("h"), 4);
        // The ceiling holds no matter how long the streak runs.
        for _ in 0..200 {
            pacer.observe("h", clean(20_000));
        }
        assert_eq!(pacer.limit("h"), MAX_LIMIT as usize);
    }

    #[test]
    fn hosts_are_paced_independently() {
        let pacer = Pacer::new(true, false);
        for _ in 0..3 {
            pacer.observe("sick", bad(200_000));
            pacer.observe("well", clean(20_000));
        }
        assert_eq!(pacer.limit("sick"), 1);
        assert_eq!(pacer.limit("well"), 4, "healthy host keeps its limit");
        assert_eq!(pacer.limit("unseen"), 4, "new host starts at initial");
    }

    #[test]
    fn hedge_budget_is_enforced_and_refunds_unfired_grants() {
        let pacer = Pacer::new(false, true);
        let mut granted = 0;
        for _ in 0..100 {
            let token = pacer.authorize("h", BreakerState::Closed);
            if token.granted {
                granted += 1;
                pacer.settle_hedge("h", token, true, false);
            }
        }
        // 5% of 100 authorized = at most 5 grants, and the first cannot
        // come before the 20th request.
        assert_eq!(granted, 5);
        let stats = pacer.stats();
        let h = &stats.hosts[0].1;
        assert_eq!(h.hedges_fired, 5);
        assert!(h.suppressed_budget >= 90, "{h:?}");
        assert!(
            h.hedges_fired * 100 <= 5 * h.authorized,
            "budget invariant: {h:?}"
        );

        // Refunded grants free budget for later hedges.
        let pacer = Pacer::new(false, true);
        let mut fired = 0;
        for i in 0..200 {
            let token = pacer.authorize("h", BreakerState::Closed);
            if token.granted {
                // Fire only every other grant; the rest refund.
                let fire = i % 2 == 0;
                if fire {
                    fired += 1;
                }
                pacer.settle_hedge("h", token, fire, false);
            }
        }
        let h = pacer.stats().hosts[0].1;
        assert_eq!(h.hedges_fired, fired);
        assert!(
            fired > 5,
            "refunds must free budget beyond the no-refund cap: {h:?}"
        );
        assert!(h.hedges_fired * 100 <= 5 * h.authorized, "{h:?}");
    }

    #[test]
    fn hedges_suppressed_unless_breaker_closed() {
        let pacer = Pacer::new(false, true);
        // Warm the budget far past the 20-request threshold.
        for _ in 0..50 {
            let _ = pacer.authorize("h", BreakerState::Closed);
        }
        for state in [BreakerState::Open, BreakerState::HalfOpen] {
            let token = pacer.authorize("h", state);
            assert!(!token.granted, "{state:?} must suppress hedging");
        }
        assert_eq!(pacer.stats().hosts[0].1.suppressed_breaker, 2);
    }

    #[test]
    fn slow_threshold_tracks_latency_and_keeps_its_floor() {
        let pacer = Pacer::new(false, true);
        let _ = pacer.authorize("h", BreakerState::Closed);
        assert_eq!(
            pacer.stats().hosts[0].1.threshold_us,
            MIN_THRESHOLD_US,
            "no observations yet: the floor holds"
        );
        // A steady fast host keeps the floor.
        for _ in 0..50 {
            pacer.observe("h", clean(20_000));
        }
        assert_eq!(pacer.stats().hosts[0].1.threshold_us, MIN_THRESHOLD_US);
        // A slow host raises it above the floor.
        for _ in 0..50 {
            pacer.observe("slow", clean(400_000));
        }
        let slow = pacer
            .stats()
            .hosts
            .iter()
            .find(|(h, _)| h == "slow")
            .unwrap()
            .1;
        assert!(
            slow.threshold_us > 400_000,
            "srtt + 4·dev over a 400ms host: {slow:?}"
        );
    }

    #[test]
    fn disabled_halves_behave_inertly() {
        let pacer = Pacer::new(false, false);
        assert_eq!(pacer.limit("h"), usize::MAX);
        let token = pacer.authorize("h", BreakerState::Closed);
        assert!(!token.granted);
        pacer.observe("h", bad(1));
        assert_eq!(pacer.limit("h"), usize::MAX);
        let stats = pacer.stats();
        assert_eq!(stats.hosts[0].1.bad, 1);
    }

    #[test]
    fn stats_render_per_host_in_order() {
        let pacer = Pacer::new(true, true);
        pacer.observe("zebra", bad(100_000));
        pacer.observe("aardvark", clean(20_000));
        let stats = pacer.stats();
        assert_eq!(stats.hosts[0].0, "aardvark");
        assert_eq!(stats.hosts[1].0, "zebra");
        let text = stats.to_string();
        assert!(text.starts_with("pacing:"), "{text}");
        assert!(text.contains("  zebra: limit 2"), "{text}");
        assert!(text.contains("decrease(s)"), "{text}");
    }
}
