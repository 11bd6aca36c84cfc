//! Error type for the micro-kernel generator.

use std::fmt;

/// Errors produced while generating a micro-kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum GenError {
    /// A scheduling operator failed while applying a recipe.
    Sched {
        /// The recipe step that failed (human-readable).
        step: String,
        /// The underlying scheduling error.
        source: exo_sched::SchedError,
    },
    /// A backend failed on the generated kernel.
    Codegen(exo_codegen::CodegenError),
    /// The requested kernel shape cannot be generated with the requested
    /// strategy (e.g. a lane-indexed kernel on an ISA without a lane-indexed
    /// FMA), or its scheduled form cannot be lowered to an executable tier
    /// (the tape declines register tiles past its size caps).
    UnsupportedShape {
        /// Requested register rows.
        mr: usize,
        /// Requested register columns.
        nr: usize,
        /// Why the shape/strategy combination is not supported.
        reason: String,
    },
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::Sched { step, source } => write!(f, "scheduling step `{step}` failed: {source}"),
            GenError::Codegen(e) => write!(f, "backend failure: {e}"),
            GenError::UnsupportedShape { mr, nr, reason } => {
                write!(f, "cannot generate a {mr}x{nr} micro-kernel: {reason}")
            }
        }
    }
}

impl std::error::Error for GenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GenError::Sched { source, .. } => Some(source),
            GenError::Codegen(e) => Some(e),
            GenError::UnsupportedShape { .. } => None,
        }
    }
}

impl From<exo_codegen::CodegenError> for GenError {
    fn from(e: exo_codegen::CodegenError) -> Self {
        GenError::Codegen(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, GenError>;

/// Attaches a step label to a scheduling result.
pub(crate) fn step<T>(label: &str, r: std::result::Result<T, exo_sched::SchedError>) -> Result<T> {
    r.map_err(|source| GenError::Sched { step: label.to_string(), source })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_the_step() {
        let e = GenError::Sched {
            step: "divide_loop i".into(),
            source: exo_sched::SchedError::NonConstantBound { var: "i".into() },
        };
        assert!(e.to_string().contains("divide_loop i"));
        assert!(std::error::Error::source(&e).is_some());
        let u = GenError::UnsupportedShape { mr: 3, nr: 5, reason: "odd".into() };
        assert!(u.to_string().contains("3x5"));
    }
}
