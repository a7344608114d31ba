//! Typed errors for feed collection and downstream pipeline stages.
//!
//! The collection pipeline degrades gracefully under fault injection:
//! recoverable conditions (lost records, collector outages) shrink the
//! feeds rather than abort, while genuinely unusable inputs — an
//! invalid configuration, an invalid fault profile, a scenario that
//! fails validation — surface as a [`PipelineError`] instead of a
//! panic.

use taster_ecosystem::GenerateError;

/// An unrecoverable error in the collection pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The feeds configuration failed validation.
    InvalidConfig(String),
    /// The fault profile failed validation.
    InvalidFaultProfile(String),
    /// The scenario failed validation (reported by `taster-core`).
    InvalidScenario(String),
    /// Ground-truth generation rejected its configuration (including a
    /// memory budget below the floor).
    Generation(GenerateError),
    /// A run produced no records in any feed without an outage model
    /// that explains it — a silent zero row in a sweep or benchmark
    /// would hide real breakage, so this surfaces as a typed error.
    EmptyCollection(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::InvalidConfig(msg) => write!(f, "invalid feeds config: {msg}"),
            PipelineError::InvalidFaultProfile(msg) => {
                write!(f, "invalid fault profile: {msg}")
            }
            PipelineError::InvalidScenario(msg) => write!(f, "invalid scenario: {msg}"),
            PipelineError::Generation(msg) => write!(f, "ground-truth generation failed: {msg}"),
            PipelineError::EmptyCollection(msg) => write!(f, "empty collection: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = PipelineError::InvalidConfig("bad prob".to_string());
        assert!(e.to_string().contains("invalid feeds config"));
        assert!(e.to_string().contains("bad prob"));
        let e = PipelineError::InvalidFaultProfile("rate".to_string());
        assert!(e.to_string().contains("fault profile"));
    }
}
