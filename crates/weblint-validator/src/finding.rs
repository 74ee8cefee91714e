//! The common checker interface used by the comparison experiments.

use weblint_core::{LintConfig, LintSession};

/// One finding from any checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// 1-based line.
    pub line: u32,
    /// A stable machine-readable code for the finding type.
    pub code: String,
    /// Human-readable message, in the checker's native voice.
    pub message: String,
}

impl Finding {
    /// Build a finding.
    pub fn new(line: u32, code: impl Into<String>, message: impl Into<String>) -> Finding {
        Finding {
            line,
            code: code.into(),
            message: message.into(),
        }
    }
}

/// Anything that can check an HTML document — weblint, the strict
/// validator, or the regex baseline.
pub trait HtmlChecker {
    /// Checker name for reports.
    fn name(&self) -> &'static str;
    /// Check one document.
    fn check(&self, src: &str) -> Vec<Finding>;
}

/// Weblint viewed through the common checker interface.
#[derive(Debug, Clone)]
pub struct WeblintChecker {
    config: LintConfig,
}

impl WeblintChecker {
    /// Wrap a weblint configuration.
    pub fn new(config: LintConfig) -> WeblintChecker {
        WeblintChecker { config }
    }
}

impl Default for WeblintChecker {
    fn default() -> WeblintChecker {
        WeblintChecker::new(LintConfig::default())
    }
}

impl HtmlChecker for WeblintChecker {
    fn name(&self) -> &'static str {
        "weblint"
    }

    fn check(&self, src: &str) -> Vec<Finding> {
        LintSession::with_config(self.config.clone())
            .check_string(src)
            .into_iter()
            .map(|d| Finding::new(d.line, d.id, d.message))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weblint_checker_maps_diagnostics() {
        let checker = WeblintChecker::default();
        let findings = checker.check("<H1>x</H2>");
        assert_eq!(checker.name(), "weblint");
        assert!(findings.iter().any(|f| f.code == "heading-mismatch"));
        assert!(findings.iter().all(|f| f.line >= 1));
    }

    #[test]
    fn finding_constructor() {
        let f = Finding::new(3, "x", "y");
        assert_eq!((f.line, f.code.as_str(), f.message.as_str()), (3, "x", "y"));
    }
}
