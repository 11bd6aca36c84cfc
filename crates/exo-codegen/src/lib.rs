//! # exo-codegen
//!
//! Backends over scheduled procedures, mirroring what the paper's toolchain
//! obtains from Exo plus what this reproduction needs in place of a native
//! ARM toolchain:
//!
//! * [`c::emit_c`] — C-with-intrinsics source, the artifact's visible output
//!   (Section III, step g),
//! * [`asm::emit_asm`] — a pseudo-assembly rendering of the `k`-loop, the
//!   analogue of the paper's Fig. 12,
//! * [`trace::extract_trace`] — the machine-operation trace consumed by the
//!   `carmel-sim` performance model,
//! * [`exec::compile`] — an executable lowering whose tree-walking
//!   [`CompiledKernel::run`] is the bitwise oracle of the differential
//!   tests (never a dispatch tier),
//! * [`tape`] — a flat, register-allocated tape compiled from the executable
//!   lowering: IR only, with no executor of its own,
//! * [`superword`] — the superword lowering of the tape: whole-vector ops
//!   (`VLoad`, `VStore`, `VFmaLane`, `VFmaBcast`) that execute one vector
//!   register per dispatch over a validated, bounds-free register file —
//!   the portable tier, and the bottom of the execution ladder,
//! * [`simd`] — the in-process vector tier: the validated superword ops
//!   compiled once per kernel into a chain of monomorphic closures over
//!   the widest vector ISA the host can run — AVX2/FMA on x86_64, NEON on
//!   aarch64, a bit-exact scalar reference everywhere (pin one with
//!   `EXO_ISA`) — the fast path on hosts without a C toolchain.
//!
//! The native tier above them (C emitted by [`c::emit_superword_c`], built
//! and loaded by `exo-aot`) completes the ladder: a generated kernel runs
//! native → simd → superword, and nothing else.

#![warn(missing_docs)]

pub mod asm;
pub mod c;
pub mod env;
pub mod error;
pub mod exec;
pub mod simd;
pub mod superword;
pub mod tape;
pub mod trace;

pub use asm::{count_mnemonics, emit_asm};
pub use c::{emit_c, emit_superword_c};
pub use env::env_once;
pub use error::{CodegenError, Result};
pub use exec::{compile, CompiledKernel, RunArg};
pub use simd::{
    active_isa, env_isa_override, fma_contraction_tol, simd_available, IsaKind, SimdDispatch, SimdKernel,
};
pub use superword::{SuperwordKernel, TensorView};
pub use tape::TapeKernel;
pub use trace::{extract_trace, summarise, KernelTrace, MachineOp};
