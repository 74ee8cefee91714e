//! Per-rule cost counters.
//!
//! A [`Profile`] accumulates, per registry rule (and per custom rule), how
//! many diagnostics it produced and how much wall time its check sections
//! consumed. The engine fills one in when profiling is requested;
//! `weblint -profile` renders the table, and the service tier aggregates
//! hit counts for `poacher -stats` and the httpd `/metrics` endpoint.

use std::time::Duration;

use crate::{Rule, REGISTRY};

/// Counters for one rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleStat {
    /// Diagnostics emitted.
    pub hits: u64,
    /// Wall time attributed to the rule's check sections, in nanoseconds.
    pub nanos: u64,
    /// Custom rules only: start tags that passed the rule's element gate
    /// and so reached its attribute predicates.
    pub gate_passes: u64,
}

/// Accumulated per-rule cost over one or more lint runs.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    builtin: Vec<RuleStat>,
    custom: Vec<(&'static str, RuleStat)>,
    /// Total engine wall time, in nanoseconds. Time not attributed to any
    /// rule (tokenizing, stack upkeep) is the remainder against this.
    pub total_nanos: u64,
    /// Documents profiled.
    pub documents: u64,
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Profile {
        Profile {
            builtin: vec![RuleStat::default(); Rule::COUNT],
            custom: Vec::new(),
            total_nanos: 0,
            documents: 0,
        }
    }

    fn builtin_mut(&mut self, rule: Rule) -> &mut RuleStat {
        if self.builtin.is_empty() {
            self.builtin = vec![RuleStat::default(); Rule::COUNT];
        }
        &mut self.builtin[rule as usize]
    }

    fn custom_mut(&mut self, id: &'static str) -> &mut RuleStat {
        if let Some(i) = self.custom.iter().position(|(c, _)| *c == id) {
            return &mut self.custom[i].1;
        }
        self.custom.push((id, RuleStat::default()));
        &mut self.custom.last_mut().expect("just pushed").1
    }

    /// Count one diagnostic for a built-in rule.
    pub fn hit(&mut self, rule: Rule) {
        self.builtin_mut(rule).hits += 1;
    }

    /// Attribute elapsed wall time to a built-in rule.
    pub fn add_time(&mut self, rule: Rule, elapsed: Duration) {
        self.builtin_mut(rule).nanos += elapsed.as_nanos() as u64;
    }

    /// Count one diagnostic for a custom rule.
    pub fn hit_custom(&mut self, id: &'static str) {
        self.custom_mut(id).hits += 1;
    }

    /// Count one start tag past a custom rule's element gate.
    pub fn pass_custom_gate(&mut self, id: &'static str) {
        self.custom_mut(id).gate_passes += 1;
    }

    /// Attribute elapsed wall time to a custom rule.
    pub fn add_custom_time(&mut self, id: &'static str, elapsed: Duration) {
        self.custom_mut(id).nanos += elapsed.as_nanos() as u64;
    }

    /// The stats recorded for a built-in rule.
    pub fn stat(&self, rule: Rule) -> RuleStat {
        self.builtin.get(rule as usize).copied().unwrap_or_default()
    }

    /// The stats recorded for a custom rule (zero if it never ran).
    pub fn custom_stat(&self, id: &str) -> RuleStat {
        self.custom
            .iter()
            .find(|(c, _)| *c == id)
            .map(|(_, stat)| *stat)
            .unwrap_or_default()
    }

    /// Every rule with activity: `(id, stat)`, built-ins first (registry
    /// order), then custom rules in first-seen order.
    pub fn active(&self) -> Vec<(&'static str, RuleStat)> {
        let mut out: Vec<(&'static str, RuleStat)> = Vec::new();
        for (i, stat) in self.builtin.iter().enumerate() {
            if stat.hits > 0 || stat.nanos > 0 {
                out.push((REGISTRY[i].id, *stat));
            }
        }
        for (id, stat) in &self.custom {
            if stat.hits > 0 || stat.nanos > 0 {
                out.push((id, *stat));
            }
        }
        out
    }

    /// Total diagnostics counted.
    pub fn total_hits(&self) -> u64 {
        self.builtin.iter().map(|s| s.hits).sum::<u64>()
            + self.custom.iter().map(|(_, s)| s.hits).sum::<u64>()
    }

    /// Fold another profile into this one.
    pub fn merge(&mut self, other: &Profile) {
        for (i, stat) in other.builtin.iter().enumerate() {
            if stat.hits > 0 || stat.nanos > 0 {
                let mine = self.builtin_mut(REGISTRY[i].rule);
                mine.hits += stat.hits;
                mine.nanos += stat.nanos;
            }
        }
        for (id, stat) in &other.custom {
            let mine = self.custom_mut(id);
            mine.hits += stat.hits;
            mine.nanos += stat.nanos;
            mine.gate_passes += stat.gate_passes;
        }
        self.total_nanos += other.total_nanos;
        self.documents += other.documents;
    }

    /// Render the per-rule cost table `weblint -profile` prints: rules
    /// sorted by attributed time (then hits, then id), one line each, with
    /// the unattributed engine remainder at the bottom.
    pub fn render(&self) -> String {
        let mut rows = self.active();
        rows.sort_by(|a, b| {
            b.1.nanos
                .cmp(&a.1.nanos)
                .then(b.1.hits.cmp(&a.1.hits))
                .then(a.0.cmp(b.0))
        });
        let mut out = format!(
            "per-rule cost ({} document{}, {} diagnostic{}):\n",
            self.documents,
            if self.documents == 1 { "" } else { "s" },
            self.total_hits(),
            if self.total_hits() == 1 { "" } else { "s" },
        );
        out.push_str(&format!(
            "  {:<24} {:>8} {:>12} {:>7}\n",
            "rule", "hits", "time", "share"
        ));
        let attributed: u64 = rows.iter().map(|(_, s)| s.nanos).sum();
        for (id, stat) in &rows {
            out.push_str(&format!(
                "  {:<24} {:>8} {:>12} {:>6.1}%\n",
                id,
                stat.hits,
                format_nanos(stat.nanos),
                percent(stat.nanos, self.total_nanos),
            ));
        }
        if self.total_nanos > 0 {
            let rest = self.total_nanos.saturating_sub(attributed);
            out.push_str(&format!(
                "  {:<24} {:>8} {:>12} {:>6.1}%\n",
                "(engine)",
                "-",
                format_nanos(rest),
                percent(rest, self.total_nanos),
            ));
        }
        out
    }
}

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

/// `1234567` → `"1.235ms"`, scaled to a readable unit.
fn format_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

/// Render a plain hit-count table (no timings) from `(id, hits)` pairs —
/// the shape `poacher -stats` and the service metrics share. Pairs are
/// printed in the order given; callers sort.
pub fn render_hits(pairs: &[(&str, u64)]) -> String {
    let total: u64 = pairs.iter().map(|(_, n)| n).sum();
    let mut out = format!(
        "  rule hits: {} across {} rule{}\n",
        total,
        pairs.len(),
        if pairs.len() == 1 { "" } else { "s" }
    );
    for (id, hits) in pairs {
        out.push_str(&format!("    {id:<24} {hits:>8}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_time_accumulate() {
        let mut p = Profile::new();
        p.hit(Rule::ImgAlt);
        p.hit(Rule::ImgAlt);
        p.add_time(Rule::ImgAlt, Duration::from_micros(5));
        p.hit_custom("button-class");
        p.pass_custom_gate("button-class");
        p.pass_custom_gate("button-class");
        assert_eq!(p.custom_stat("button-class").gate_passes, 2);
        assert_eq!(p.custom_stat("never-ran"), RuleStat::default());
        assert_eq!(p.stat(Rule::ImgAlt).hits, 2);
        assert_eq!(p.stat(Rule::ImgAlt).nanos, 5_000);
        assert_eq!(p.total_hits(), 3);
        let active = p.active();
        assert_eq!(active.len(), 2);
        assert_eq!(active[0].0, "img-alt");
        assert_eq!(active[1].0, "button-class");
    }

    #[test]
    fn merge_folds_counters() {
        let mut a = Profile::new();
        a.hit(Rule::OddQuotes);
        a.total_nanos = 100;
        a.documents = 1;
        let mut b = Profile::new();
        b.hit(Rule::OddQuotes);
        b.hit_custom("x-rule");
        b.pass_custom_gate("x-rule");
        b.total_nanos = 50;
        b.documents = 2;
        a.merge(&b);
        assert_eq!(a.stat(Rule::OddQuotes).hits, 2);
        assert_eq!(a.total_nanos, 150);
        assert_eq!(a.documents, 3);
        assert_eq!(a.total_hits(), 3);
        assert_eq!(a.custom_stat("x-rule").gate_passes, 1);
    }

    #[test]
    fn render_sorts_by_time_and_shows_remainder() {
        let mut p = Profile::new();
        p.hit(Rule::ImgAlt);
        p.add_time(Rule::ImgAlt, Duration::from_nanos(10));
        p.hit(Rule::OddQuotes);
        p.add_time(Rule::OddQuotes, Duration::from_nanos(500));
        p.total_nanos = 1_000;
        p.documents = 1;
        let table = p.render();
        let odd = table.find("odd-quotes").unwrap();
        let img = table.find("img-alt").unwrap();
        assert!(odd < img, "{table}");
        assert!(table.contains("(engine)"), "{table}");
        assert!(table.contains("50.0%"), "{table}");
    }

    #[test]
    fn format_nanos_scales() {
        assert_eq!(format_nanos(12), "12ns");
        assert_eq!(format_nanos(1_500), "1.500us");
        assert_eq!(format_nanos(2_000_000), "2.000ms");
        assert_eq!(format_nanos(3_000_000_000), "3.000s");
    }

    #[test]
    fn render_hits_table() {
        let out = render_hits(&[("img-alt", 3), ("button-class", 1)]);
        assert!(out.contains("rule hits: 4 across 2 rules"));
        assert!(out.contains("img-alt"));
        assert!(out.contains("button-class"));
    }
}
