//! Structured diagnostics emitted by the spec linter.
//!
//! A [`Diagnostic`] is deliberately compiler-shaped: a stable lint id, a
//! severity, a one-line message, span-like context naming the offending
//! spec fields and their values, and an optional suggested fix. Tools (the
//! `mlm-verify` CLI, CI, the bench harness) decide how to render or act on
//! them; the linter itself never prints.

use std::fmt;

use serde::Serialize;

/// How bad a diagnostic is.
///
/// `Error` means the spec is rejected by any runner that honours
/// [`crate::lint_target`]; `Warning` means the spec will
/// run but the paper's model (§3.2) or the protocol analysis says the
/// configuration is wasteful or degenerate; `Info` is advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Severity {
    /// Advisory note; no action required.
    Info,
    /// Runs, but the configuration is degenerate or wasteful.
    Warning,
    /// The spec must not run: it would panic, deadlock, or silently
    /// compute the wrong experiment.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Span-like context: the spec field (or derived quantity) a diagnostic
/// points at, with the value the linter saw.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Context {
    /// Dotted path of the field, e.g. `spec.chunk_bytes` or
    /// `machine.mcdram_capacity`.
    pub field: String,
    /// The offending value, rendered.
    pub value: String,
}

impl Context {
    /// Build a context entry from any displayable value.
    pub fn new(field: &str, value: impl fmt::Display) -> Self {
        Context {
            field: field.to_string(),
            value: value.to_string(),
        }
    }
}

/// One finding of one lint.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Diagnostic {
    /// Stable lint id, e.g. `V002`.
    pub id: &'static str,
    /// The lint's kebab-case name, e.g. `mcdram-fit`.
    pub lint: &'static str,
    /// Severity of this particular finding.
    pub severity: Severity,
    /// One-line human-readable description of the problem.
    pub message: String,
    /// The fields (and values) the finding is anchored to.
    pub context: Vec<Context>,
    /// A concrete suggested fix, when one exists.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Start building a diagnostic.
    pub fn new(id: &'static str, lint: &'static str, severity: Severity, message: String) -> Self {
        Diagnostic {
            id,
            lint,
            severity,
            message,
            context: Vec::new(),
            suggestion: None,
        }
    }

    /// Attach a span-like context entry.
    pub fn with_context(mut self, field: &str, value: impl fmt::Display) -> Self {
        self.context.push(Context::new(field, value));
        self
    }

    /// Attach a suggested fix.
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.id, self.lint, self.message
        )?;
        for c in &self.context {
            write!(f, "\n    --> {} = {}", c.field, c.value)?;
        }
        if let Some(s) = &self.suggestion {
            write!(f, "\n    help: {s}")?;
        }
        Ok(())
    }
}

/// Everything the registry found for one target.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct LintReport {
    /// All findings, in registry order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// True if any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// All error-level findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The distinct lint ids that fired at error level.
    pub fn error_ids(&self) -> Vec<&'static str> {
        let mut ids: Vec<&'static str> = self.errors().map(|d| d.id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// True when nothing at all was reported.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return write!(f, "no findings");
        }
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn diagnostic_renders_all_parts() {
        let d = Diagnostic::new("V999", "demo-lint", Severity::Error, "it broke".into())
            .with_context("spec.chunk_bytes", 30)
            .with_suggestion("use a multiple of 8");
        let s = d.to_string();
        assert!(s.contains("error[V999]"));
        assert!(s.contains("demo-lint"));
        assert!(s.contains("spec.chunk_bytes = 30"));
        assert!(s.contains("help: use a multiple of 8"));
    }

    #[test]
    fn report_error_queries() {
        let mut r = LintReport::default();
        assert!(r.is_clean() && !r.has_errors());
        r.diagnostics
            .push(Diagnostic::new("V001", "a", Severity::Warning, "w".into()));
        assert!(!r.has_errors());
        r.diagnostics
            .push(Diagnostic::new("V002", "b", Severity::Error, "e".into()));
        r.diagnostics
            .push(Diagnostic::new("V002", "b", Severity::Error, "e2".into()));
        assert!(r.has_errors());
        assert_eq!(r.error_ids(), vec!["V002"]);
        assert_eq!(r.errors().count(), 2);
    }
}
