//! Shared helpers for the benchmark harness.
//!
//! Each bench target regenerates one paper experiment from EXPERIMENTS.md
//! that nothing else measures (E5, E6, E7 `-R`, E8, E9, E10, E13): it first prints
//! the experiment's table (the "shape" result — who wins, by how much),
//! then runs the Criterion timings. All workloads come from
//! `weblint-corpus` with fixed seeds, so the numbers are reproducible.
//! The engine, streaming, service, HTTP and crawl layers are timed by the
//! `wlbench/` ladder instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use weblint_core::{LintConfig, LintSession};

/// A lint session with the cascade heuristics disabled (the naive checker
/// used by the E5 ablation).
pub fn naive_weblint() -> LintSession {
    let mut config = LintConfig::default();
    config.heuristics = false;
    LintSession::with_config(config)
}

/// Print one experiment header so `cargo bench` output reads as a report.
pub fn experiment_header(id: &str, claim: &str) {
    println!("\n=== {id}: {claim} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_document_is_dirty() {
        use weblint_corpus::dirty_document;
        let mut weblint = LintSession::new();
        let clean = dirty_document(1, 4096, 0);
        assert!(weblint.check_string(&clean).is_empty());
        let dirty = dirty_document(1, 4096, 5);
        assert!(weblint.check_string(&dirty).len() >= 4);
    }

    #[test]
    fn naive_weblint_has_heuristics_off() {
        assert!(!naive_weblint().config().heuristics);
    }
}
