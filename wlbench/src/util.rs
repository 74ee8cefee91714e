//! Shared plumbing: a seeded RNG, order statistics, peak RSS, and the
//! metric table every workload fills in.

use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own deterministic choice stream, so input
/// generation depends on nothing but `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0FBE_7C4A_11D5)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// True with probability `percent / 100`.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }
}

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// `(p50, p99, count)` of latency samples, in the samples' unit.
pub fn percentiles(samples: &[f64]) -> (f64, f64, usize) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    (quantile(&v, 0.5), quantile(&v, 0.99), v.len())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// Median wall time of `reps` calls of `build`, each result dropped after
/// its timing: the set-up metric, repeated so one slow call cannot set it.
pub fn median_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let built = std::hint::black_box(build());
            let elapsed = start.elapsed().as_secs_f64();
            drop(built);
            elapsed
        })
        .collect();
    median(&times)
}

/// The machine's current speed on a fixed kernel that does not involve
/// the program: MiB/s of FNV-1a over a 256 KiB buffer hashed 16 times,
/// best of five. Printed before and after a run, so a run on a machine
/// slowed from outside can be recognised as such; never used to adjust a
/// metric. The buffer is small so it cannot set the peak RSS.
pub fn machine_probe_mib_s() -> f64 {
    let buf: Vec<u8> = (0..256 << 10).map(|i| (i * 131 % 251) as u8).collect();
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for _ in 0..16 {
                for &b in &buf {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
            std::hint::black_box(h);
            (16 * buf.len()) as f64 / MIB / start.elapsed().as_secs_f64()
        })
        .fold(0.0, f64::max)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The calmer half of a run's rounds.
///
/// A small shared virtual machine drifts in speed by a quarter or more
/// over seconds as other tenants come and go, which moves a whole-run
/// median with the weather. Every workload
/// therefore repeats its work in rounds (a corpus pass, a bulk cycle, a
/// crawl of every federation) and computes its metrics over the rounds
/// whose `speed` is at or above the median: the rounds least slowed from
/// outside. A change to the program moves every round alike, so it still
/// shows; only slowdowns confined to some rounds are discarded.
pub fn calm_mask(speed: &[f64]) -> Vec<bool> {
    let cut = median(speed);
    speed.iter().map(|&s| s >= cut).collect()
}

/// Median of `values` over the calm rounds.
pub fn calm_median(values: &[f64], calm: &[bool]) -> f64 {
    let kept: Vec<f64> = values
        .iter()
        .zip(calm)
        .filter(|(_, &c)| c)
        .map(|(&v, _)| v)
        .collect();
    median(&kept)
}

/// Set-up time from per-round medians: the median of the faster half.
/// A round's set-up is small enough that what the round before left in
/// the allocator and caches swings it between two modes, so its calm
/// rounds are judged by its own speed.
pub fn calm_setup(per_round: &[f64]) -> f64 {
    let speed: Vec<f64> = per_round.iter().map(|s| 1.0 / s).collect();
    calm_median(per_round, &calm_mask(&speed))
}

/// Every sample of the calm rounds, pooled.
pub fn calm_pool(per_round: &[Vec<f64>], calm: &[bool]) -> Vec<f64> {
    per_round
        .iter()
        .zip(calm)
        .filter(|(_, &c)| c)
        .flat_map(|(v, _)| v.iter().copied())
        .collect()
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's outcome: correctness accounting plus its metrics, printed as
/// the final JSON line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable oracle failures (the first few are printed).
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Count one operation and whether it passed its oracle.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        for e in other.errors {
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }

    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line, keeping only `wanted` metrics in that order.
    pub fn json(&self, wanted: &[&str]) -> String {
        let mut fields = Vec::new();
        for name in wanted {
            let metric = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(value),
                metric.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

/// Shortest round-trip decimal with a JSON-legal shape.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}
