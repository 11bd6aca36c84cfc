//! Error type of the autotuning subsystem.

use std::fmt;

/// Errors produced while searching, persisting or dispatching.
#[derive(Debug, Clone, PartialEq)]
pub enum TuneError {
    /// Kernel generation failed for a candidate shape.
    Generation {
        /// The candidate tile.
        mr: usize,
        /// The candidate tile.
        nr: usize,
        /// Generator failure description.
        message: String,
    },
    /// The GEMM driver or simulator rejected a problem; carries the
    /// driver's error unchanged.
    Gemm(gemm_blis::GemmError),
    /// The persistence file could not be read or written.
    Io(String),
    /// The persistence file exists but does not parse as a registry.
    Corrupt(String),
    /// The search space is empty for the requested problem.
    EmptySpace,
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::Generation { mr, nr, message } => {
                write!(f, "generating the {mr}x{nr} candidate failed: {message}")
            }
            TuneError::Gemm(e) => write!(f, "gemm failed: {e}"),
            TuneError::Io(message) => write!(f, "registry persistence failed: {message}"),
            TuneError::Corrupt(message) => write!(f, "registry file is corrupt: {message}"),
            TuneError::EmptySpace => f.write_str("the design space contains no candidates"),
        }
    }
}

impl std::error::Error for TuneError {}

impl From<gemm_blis::GemmError> for TuneError {
    fn from(e: gemm_blis::GemmError) -> Self {
        TuneError::Gemm(e)
    }
}

/// The error `TunedGemm` reports as a [`gemm_blis::GemmExecutor`]: a
/// driver error comes back unchanged, every other failure as
/// [`gemm_blis::GemmError::Backend`].
impl From<TuneError> for gemm_blis::GemmError {
    fn from(e: TuneError) -> Self {
        match e {
            TuneError::Gemm(e) => e,
            e => gemm_blis::GemmError::Backend { backend: "exo-tune".into(), message: e.to_string() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_context() {
        let e = TuneError::Generation { mr: 3, nr: 7, message: "no recipe".into() };
        assert!(e.to_string().contains("3x7"));
        let e: TuneError = gemm_blis::GemmError::ShapeMismatch { what: "bad".into() }.into();
        assert!(e.to_string().contains("bad"));
        assert!(TuneError::EmptySpace.to_string().contains("no candidates"));
    }

    #[test]
    fn driver_errors_survive_the_round_trip() {
        let kernel = gemm_blis::GemmError::Kernel { kernel: "EXO 8x12".into(), message: "boom".into() };
        assert_eq!(gemm_blis::GemmError::from(TuneError::from(kernel.clone())), kernel);
        let panicked = gemm_blis::GemmError::JobPanicked { message: "worker".into() };
        assert_eq!(gemm_blis::GemmError::from(TuneError::from(panicked.clone())), panicked);
        assert!(matches!(
            gemm_blis::GemmError::from(TuneError::EmptySpace),
            gemm_blis::GemmError::Backend { backend, .. } if backend == "exo-tune"
        ));
    }
}
