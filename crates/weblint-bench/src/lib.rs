//! Shared helpers for the benchmark harness.
//!
//! Each bench target regenerates one experiment from EXPERIMENTS.md: it
//! first prints the experiment's table (the "shape" result — who wins, by
//! how much), then runs the Criterion timings. All workloads come from
//! `weblint-corpus` with fixed seeds, so the numbers are reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use weblint_core::{LintConfig, LintSession};

/// The standard document sizes the throughput experiments sweep.
pub const DOC_SIZES: &[(&str, usize)] = &[
    ("1KiB", 1 << 10),
    ("16KiB", 16 << 10),
    ("256KiB", 256 << 10),
    ("1MiB", 1 << 20),
];

/// A lint session with the default configuration.
pub fn default_weblint() -> LintSession {
    LintSession::new()
}

/// A lint session with the cascade heuristics disabled (the naive checker
/// used by the E5 ablation).
pub fn naive_weblint() -> LintSession {
    let mut config = LintConfig::default();
    config.heuristics = false;
    LintSession::with_config(config)
}

/// Inject `count` defects of rotating classes into a clean document,
/// producing the "dirty" corpus for the throughput sweeps.
pub fn dirty_document(seed: u64, bytes: usize, defects: usize) -> String {
    use rand::SeedableRng;
    let mut doc = weblint_corpus::generate_document(seed, bytes);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD1517);
    let classes = weblint_corpus::all_defect_classes();
    for i in 0..defects {
        let class = classes[i % classes.len()];
        if class == weblint_corpus::DefectClass::UnclosedComment {
            // An unclosed comment swallows the rest of the document, which
            // would mask every later defect; skip it in density sweeps.
            continue;
        }
        doc = class.inject(&doc, &mut rng);
    }
    doc
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
        let mut weblint = default_weblint();
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
