//! Error types shared across the KGModel workspace.

use std::fmt;

/// Convenience alias used by every KGModel crate.
pub type Result<T> = std::result::Result<T, KgmError>;

/// The unified error type of the KGModel workspace.
///
/// Subsystems wrap their failures in the variant matching their layer so
/// callers composing a pipeline (parse → analyze → translate → reason →
/// enforce) can report where the pipeline broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KgmError {
    /// A language-level parse error (GSL, MetaLog, Vadalog).
    Parse {
        /// Which language failed to parse.
        language: &'static str,
        /// Human-readable description with position information.
        message: String,
    },
    /// A static-analysis rejection (wardedness, stratification, star-in-recursion).
    Analysis(String),
    /// Schema-level violation: invalid super-schema or model schema.
    Schema(String),
    /// Constraint violation raised by a store (unique, key, foreign key, domain).
    Constraint(String),
    /// Lookup of a missing object (OID, predicate, table, label...).
    NotFound(String),
    /// A translation (MTV / SSST / view generation) failed.
    Translation(String),
    /// The reasoner exceeded a safety bound (null depth, iteration cap).
    ResourceExhausted(String),
    /// A run was cooperatively cancelled (via a `CancelToken`) while the
    /// caller had opted into strict erroring.
    Cancelled(String),
    /// Type mismatch between values.
    Type(String),
    /// Catch-all for invariants that should never break.
    Internal(String),
}

impl KgmError {
    /// Build a parse error for `language` at a given position.
    pub fn parse(language: &'static str, message: impl Into<String>) -> Self {
        KgmError::Parse {
            language,
            message: message.into(),
        }
    }
}

impl fmt::Display for KgmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KgmError::Parse { language, message } => {
                write!(f, "{language} parse error: {message}")
            }
            KgmError::Analysis(m) => write!(f, "program analysis error: {m}"),
            KgmError::Schema(m) => write!(f, "schema error: {m}"),
            KgmError::Constraint(m) => write!(f, "constraint violation: {m}"),
            KgmError::NotFound(m) => write!(f, "not found: {m}"),
            KgmError::Translation(m) => write!(f, "translation error: {m}"),
            KgmError::ResourceExhausted(m) => write!(f, "resource exhausted: {m}"),
            KgmError::Cancelled(m) => write!(f, "cancelled: {m}"),
            KgmError::Type(m) => write!(f, "type error: {m}"),
            KgmError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for KgmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_layer_and_message() {
        let e = KgmError::parse("MetaLog", "unexpected token at 1:4");
        assert_eq!(
            e.to_string(),
            "MetaLog parse error: unexpected token at 1:4"
        );
        let e = KgmError::Constraint("unique(fiscalCode)".into());
        assert!(e.to_string().contains("unique(fiscalCode)"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            KgmError::NotFound("x".into()),
            KgmError::NotFound("x".into())
        );
        assert_ne!(KgmError::NotFound("x".into()), KgmError::Schema("x".into()));
    }
}
