//! In-process execution: the superword IR lowered to per-architecture
//! vector intrinsics through a pre-compiled chain of monomorphic closures.
//!
//! The superword IR of [`crate::superword`] re-rolls the scalar tape into
//! whole-vector ops, but has no executor of its own. This module is the
//! one in-process executor — the "last mile" the Exo paper delegates to a
//! native compiler backend: the validated superword ops (`VLoad` /
//! `VStore` / `VFmaLane` / `VFmaBcast`) are compiled **once per kernel**
//! into a chain of monomorphic closures over one instruction library:
//!
//! * every closure carries its operands pre-resolved (register offsets,
//!   the pre-compiled specialised address shapes of the superword IR) —
//!   no per-op decode survives to run time;
//! * runs of isomorphic `VFmaLane` ops over one staged operand (the
//!   accumulator tile of a laneq kernel) fuse into a single closure that
//!   hoists the operand load across the whole tile;
//! * dynamic loops become native Rust loops over the closure chain — the
//!   tape's `LoopBegin`/`LoopEnd` jump dispatch disappears entirely.
//!
//! **Multi-ISA.** The chain compiler (the `compile` submodule) is generic
//! over the crate-private `VectorIsa` trait — splat / load / store / fma
//! plus masked partial load/store for fringes, a `LANES` width, and a
//! runtime `available()` probe — and is monomorphised once per
//! implementation:
//!
//! * `x86_64` — AVX2/FMA (`_mm256_fmadd_ps`), 8 lanes, selected when
//!   `is_x86_feature_detected!` confirms both features;
//! * `aarch64` — NEON (`vfmaq_f32`), 4 lanes, always available on
//!   aarch64 (NEON is baseline): an 8-lane superword run re-rolls into a
//!   pair of `float32x4_t` ops;
//! * `scalar` — the 1-lane reference implementation, available
//!   everywhere. Its multiply-then-add matches the interpreter's rounding
//!   **bit for bit**; the chain compiled for it *is* the `superword` rung
//!   of the execution ladder. It also hosts the checked reference
//!   executor every chain falls back to when the bounds proof declines.
//!
//! [`active_isa`] picks the widest available implementation at process
//! start ([`IsaKind::Avx2`] → [`IsaKind::Neon`] → [`IsaKind::Scalar`]);
//! `EXO_ISA=avx2|neon|scalar` pins one (a pin the host cannot run
//! panics). [`SimdKernel::compile_for`] compiles for an explicit ISA,
//! which is how the differential suites compare implementations inside
//! one process.
//!
//! **Selection and safety.** The closure chain runs bounds-free: it
//! relies on exactly the proofs the superword IR carries — the
//! construction-time register/loop-structure validation and the run-time
//! affine-interval proof over the tensor addresses — plus `Rw` views for
//! every written tensor. Every entry point funnels through one
//! prove-then-run body, the only call site of the unchecked chain.
//! [`SimdDispatch`] memoises the proof per distinct input, so
//! steady-state micro-tile dispatch re-proves nothing; when the proof
//! declines, execution falls back to the checked reference loop in the
//! `scalar` module, which reports the first access that leaves its
//! buffer.
//!
//! **Bit compatibility.** The native FMA intrinsics *contract* the
//! multiply-then-add of the tape's `Fma` semantics into a single rounding,
//! so the AVX2 and NEON chains are **not** bit-identical to the scalar
//! chain or the interpreter (they are at least as accurate: one
//! rounding instead of two per multiply-add). The differential suites
//! therefore compare those chains against the references within an
//! accumulation-scaled ULP bound — `|simd − superword| ≤
//! 2·ε·(KC + 4)²·scale` ([`fma_contraction_tol`]) — and demand exact
//! equality of the scalar chain, which does not contract. Lane order
//! inside every packed op is preserved, so every chain stays
//! deterministic: the same inputs produce the same bits on every run and
//! every thread count.

use std::sync::{Arc, OnceLock};

use crate::env::env_once;
use crate::error::Result;
use crate::superword::{SuperwordKernel, TensorView};

#[cfg(target_arch = "aarch64")]
pub(crate) mod aarch64;
mod compile;
pub(crate) mod scalar;
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86_64;

use compile::Node;

/// The per-architecture vector primitive set the chain compiler is
/// generic over. One implementation per [`IsaKind`]; the compiler is
/// monomorphised per implementation, so every closure in a compiled chain
/// calls straight into one ISA's intrinsics with no dispatch in between.
///
/// The fine-grained ops (`splat` / `load` / `store` / `fma` and the masked
/// `load_partial` / `store_partial` fringe forms) describe one vector
/// register; the provided register-file helpers (`fma_run`, `fma_tile`,
/// `fma_run_inorder`) compose them over superword lane runs and may be
/// overridden where an architecture needs a `#[target_feature]` call
/// boundary (x86_64) instead of the generic composition (aarch64, scalar).
///
/// Not to be confused with `exo_isa::VectorIsa`, the *codegen-time*
/// description of the paper's target instruction set: this trait is the
/// *run-time* lowering of validated superword ops onto the host.
///
/// # Safety
///
/// All vector ops are `unsafe fn`s: callers guarantee the pointers are
/// valid for the accessed lanes and, for the native implementations, that
/// [`VectorIsa::available`] returned `true` on this host.
pub(crate) trait VectorIsa {
    /// One native vector register (`[f32; LANES]` semantics).
    type Vector: Copy;
    /// Lane count of one vector register.
    const LANES: usize;
    /// Short lowercase name, equal to the matching [`IsaKind::name`].
    const NAME: &'static str;

    /// Whether the running host can execute this implementation's ops.
    fn available() -> bool;

    /// Broadcasts one value into every lane.
    unsafe fn splat(v: f32) -> Self::Vector;
    /// Loads `LANES` contiguous values from `p`.
    unsafe fn load(p: *const f32) -> Self::Vector;
    /// Stores `LANES` contiguous values to `p`.
    unsafe fn store(p: *mut f32, v: Self::Vector);
    /// Per-lane multiply-add `acc + a·b` in this implementation's
    /// rounding (contracted for the native ISAs, two roundings for the
    /// scalar reference).
    unsafe fn fma(acc: Self::Vector, a: Self::Vector, b: Self::Vector) -> Self::Vector;
    /// Masked fringe load: lanes `0..n` from `p`, remaining lanes zero.
    /// Only lanes `0..n` of `p` are accessed (`n < LANES`).
    unsafe fn load_partial(p: *const f32, n: usize) -> Self::Vector;
    /// Masked fringe store: lanes `0..n` of `v` to `p`, the rest dropped.
    /// Only lanes `0..n` of `p` are accessed (`n < LANES`).
    unsafe fn store_partial(p: *mut f32, v: Self::Vector, n: usize);
    /// One scalar multiply-add `acc + a·b` in this implementation's
    /// rounding — the lane the vector ops generalise.
    fn fma_scalar(acc: f32, a: f32, b: f32) -> f32;

    /// `lanes` multiply-adds `reg[dst+i] = reg[a+i]·bval + reg[dst+i]`:
    /// whole vectors, then a masked fringe, in ascending lane order.
    ///
    /// # Safety
    ///
    /// Both register runs in bounds (the superword construction proof)
    /// and, where they overlap, `dst == a` (whole-register loads of a
    /// *partially* overlapping run would read stale lanes — the compiler
    /// routes those to [`VectorIsa::fma_run_inorder`]).
    unsafe fn fma_run(regs: *mut f32, dst: usize, a: usize, bval: f32, lanes: usize) {
        let mut i = 0;
        if Self::LANES > 1 && lanes >= Self::LANES {
            let vb = Self::splat(bval);
            while i + Self::LANES <= lanes {
                let d = regs.add(dst + i);
                let va = Self::load(regs.add(a + i));
                Self::store(d, Self::fma(Self::load(d), va, vb));
                i += Self::LANES;
            }
            if i < lanes {
                let rem = lanes - i;
                let d = regs.add(dst + i);
                let va = Self::load_partial(regs.add(a + i), rem);
                let acc = Self::load_partial(d, rem);
                Self::store_partial(d, Self::fma(acc, va, vb), rem);
                i = lanes;
            }
        }
        while i < lanes {
            let d = regs.add(dst + i);
            *d = Self::fma_scalar(*d, *regs.add(a + i), bval);
            i += 1;
        }
    }

    /// The strictly ascending one-lane-at-a-time form of
    /// [`VectorIsa::fma_run`], taken when the operand run partially
    /// overlaps the accumulator run and the lane order is semantic.
    ///
    /// # Safety
    ///
    /// Both register runs in bounds.
    unsafe fn fma_run_inorder(regs: *mut f32, dst: usize, a: usize, bval: f32, lanes: usize) {
        for i in 0..lanes {
            let d = regs.add(dst + i);
            *d = Self::fma_scalar(*d, *regs.add(a + i), bval);
        }
    }

    /// A fused accumulator tile: `count` consecutive `VFmaLane` ops over
    /// one operand run, `reg[dst0 + g·lanes + i] += reg[a+i] · reg[b0+g]`.
    /// Each operand vector is loaded once and held across the whole tile —
    /// the inner-loop body of a laneq micro-kernel with the operand reload
    /// hoisted. Every accumulator element is touched exactly once (the
    /// rows are disjoint), so the chunk-major walk computes the same bits
    /// as the row-major op order.
    ///
    /// # Safety
    ///
    /// All register runs in bounds, and the operand run disjoint from the
    /// accumulator span (checked at fuse time).
    unsafe fn fma_tile(regs: *mut f32, dst0: usize, a: usize, b0: usize, lanes: usize, count: usize) {
        let mut i = 0;
        if Self::LANES > 1 {
            while i + Self::LANES <= lanes {
                let va = Self::load(regs.add(a + i));
                for g in 0..count {
                    let d = regs.add(dst0 + g * lanes + i);
                    let vb = Self::splat(*regs.add(b0 + g));
                    Self::store(d, Self::fma(Self::load(d), va, vb));
                }
                i += Self::LANES;
            }
            if i < lanes {
                let rem = lanes - i;
                let va = Self::load_partial(regs.add(a + i), rem);
                for g in 0..count {
                    let d = regs.add(dst0 + g * lanes + i);
                    let vb = Self::splat(*regs.add(b0 + g));
                    Self::store_partial(d, Self::fma(Self::load_partial(d, rem), va, vb), rem);
                }
                i = lanes;
            }
        }
        while i < lanes {
            let av = *regs.add(a + i);
            for g in 0..count {
                let d = regs.add(dst0 + g * lanes + i);
                *d = Self::fma_scalar(*d, av, *regs.add(b0 + g));
            }
            i += 1;
        }
    }
}

/// The vector instruction sets the chain compiler can target, widest
/// first. Every variant exists on every build target so `EXO_ISA` values
/// parse everywhere — pinning an ISA the host cannot run is a loud panic,
/// not an "unknown ISA" error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsaKind {
    /// x86_64 AVX2 + FMA: 8-lane `__m256` chains.
    Avx2,
    /// aarch64 NEON: 4-lane `float32x4_t` chains (8-lane superword runs
    /// re-roll into pairs).
    Neon,
    /// The portable 1-lane reference implementation: available on every
    /// host, bit-identical to the interpreter. Its chain is the
    /// `superword` rung of the execution ladder.
    Scalar,
}

impl IsaKind {
    /// Every ISA, widest first — the runtime selection order.
    pub const ALL: [IsaKind; 3] = [IsaKind::Avx2, IsaKind::Neon, IsaKind::Scalar];

    /// The lowercase name, as accepted by `EXO_ISA` and recorded by the
    /// bench harness.
    pub fn name(self) -> &'static str {
        match self {
            IsaKind::Avx2 => "avx2",
            IsaKind::Neon => "neon",
            IsaKind::Scalar => "scalar",
        }
    }

    /// Vector lane width of one register.
    pub fn lanes(self) -> usize {
        match self {
            IsaKind::Avx2 => 8,
            IsaKind::Neon => 4,
            IsaKind::Scalar => 1,
        }
    }

    /// Whether this ISA contracts each multiply-add into a single rounding.
    /// Contracting chains are held to [`fma_contraction_tol`] by the
    /// differential suites; the scalar chain is held to bit equality.
    pub fn contracts_fma(self) -> bool {
        !matches!(self, IsaKind::Scalar)
    }

    /// Whether the running host can execute chains compiled for this ISA.
    pub fn available(self) -> bool {
        match self {
            IsaKind::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            // NEON is baseline on every aarch64 Rust target.
            IsaKind::Neon => cfg!(target_arch = "aarch64"),
            IsaKind::Scalar => true,
        }
    }

    /// Parses an `EXO_ISA` value.
    ///
    /// # Errors
    ///
    /// Returns a description naming the accepted ISAs.
    pub fn parse(value: &str) -> std::result::Result<IsaKind, String> {
        match value.trim().to_ascii_lowercase().as_str() {
            "avx2" => Ok(IsaKind::Avx2),
            "neon" => Ok(IsaKind::Neon),
            "scalar" => Ok(IsaKind::Scalar),
            other => Err(format!("unknown ISA `{other}` (expected one of: avx2, neon, scalar)")),
        }
    }
}

impl std::fmt::Display for IsaKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The process-wide `EXO_ISA` override, read once (same contract as
/// `EXO_BACKEND` — see [`crate::env::env_once`]): unset or empty means "no
/// override" (pick the widest available ISA), anything else must parse as
/// an ISA name.
///
/// # Panics
///
/// Panics on an unparseable value, naming the accepted ISAs.
pub fn env_isa_override() -> Option<IsaKind> {
    static OVERRIDE: OnceLock<Option<IsaKind>> = OnceLock::new();
    env_once(&OVERRIDE, "EXO_ISA", IsaKind::parse)
}

/// The vector ISA the SIMD tier targets on this host, decided once per
/// process: the `EXO_ISA` pin when set, otherwise the widest available
/// implementation (AVX2 → NEON → scalar). Never less than
/// [`IsaKind::Scalar`], so [`SimdKernel::compile`] succeeds on every host.
///
/// # Panics
///
/// Panics when `EXO_ISA` pins an ISA this host cannot run — a silent
/// fallback would report numbers for the wrong implementation.
pub fn active_isa() -> IsaKind {
    static ACTIVE: OnceLock<IsaKind> = OnceLock::new();
    *ACTIVE.get_or_init(|| match env_isa_override() {
        Some(pinned) => {
            assert!(
                pinned.available(),
                "EXO_ISA: `{pinned}` is not available on this host (available: {})",
                IsaKind::ALL
                    .iter()
                    .filter(|isa| isa.available())
                    .map(|isa| isa.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            pinned
        }
        None => *IsaKind::ALL.iter().find(|isa| isa.available()).expect("scalar is always available"),
    })
}

/// Whether the SIMD tier runs a *native* vector ISA on this host — i.e.
/// [`active_isa`] resolved to something wider than the scalar reference.
/// Differential suites use this to decide between the FMA-contraction
/// bound (native chains contract) and bit equality (the scalar chain does
/// not); `EXO_ISA=scalar` therefore reports `false` even on AVX2 hosts.
pub fn simd_available() -> bool {
    active_isa() != IsaKind::Scalar
}

/// The accumulation-scaled tolerance of the SIMD tier's FMA-contraction
/// contract — the single definition every differential suite in the
/// workspace holds `|simd − superword|` to, relative to the element
/// magnitude (floor 1.0): the native chains contract each multiply-add
/// into one rounding, so a `k`-deep accumulation over unit-magnitude data
/// differs from the mul-then-add tiers by at most `2·ε·(k + 4)²`. The
/// scalar chain does not contract and its distance is exactly zero.
pub fn fma_contraction_tol(k: usize) -> f32 {
    2.0 * f32::EPSILON * ((k + 4) as f32).powi(2)
}

/// A kernel compiled to a chain of native vector closures.
///
/// Obtained from [`SimdKernel::compile`] (the host's [`active_isa`]) or
/// [`SimdKernel::compile_for`] (an explicit ISA). The fastest in-process
/// tier; results of the native chains are within a documented ULP bound
/// of the scalar chain (FMA contraction), the scalar chain is
/// bit-identical to the interpreter, and no chain is ever bit-different
/// across runs or thread counts.
pub struct SimdKernel {
    source: Arc<SuperwordKernel>,
    isa: IsaKind,
    program: Vec<Node>,
    n_steps: usize,
    n_fused_tiles: usize,
}

impl std::fmt::Debug for SimdKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimdKernel")
            .field("name", &self.source.name)
            .field("isa", &self.isa.name())
            .field("steps", &self.n_steps)
            .field("fused_tiles", &self.n_fused_tiles)
            .finish_non_exhaustive()
    }
}

impl SimdKernel {
    /// Compiles a superword kernel into the closure chain of the host's
    /// [`active_isa`].
    ///
    /// The scalar implementation is always available, so this succeeds on
    /// every host for every generated kernel; `None` survives only for
    /// the (never observed for generated kernels) case of a tape
    /// construct the chain compiler declines.
    pub fn compile(source: Arc<SuperwordKernel>) -> Option<SimdKernel> {
        Self::compile_for(source, active_isa())
    }

    /// Compiles a superword kernel into the closure chain of an explicit
    /// ISA — how the differential suites compare implementations inside
    /// one process, independent of the `EXO_ISA` pin.
    ///
    /// Returns `None` when the host cannot run `isa`
    /// ([`IsaKind::available`]) or the chain compiler declines the tape.
    pub fn compile_for(source: Arc<SuperwordKernel>, isa: IsaKind) -> Option<SimdKernel> {
        if !isa.available() {
            return None;
        }
        let mut stats = compile::BuildStats::default();
        let program = match isa {
            IsaKind::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    compile::build_nodes::<x86_64::Avx2>(&source.ops, &mut stats)?
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    return None;
                }
            }
            IsaKind::Neon => {
                #[cfg(target_arch = "aarch64")]
                {
                    compile::build_nodes::<aarch64::Neon>(&source.ops, &mut stats)?
                }
                #[cfg(not(target_arch = "aarch64"))]
                {
                    return None;
                }
            }
            IsaKind::Scalar => compile::build_nodes::<scalar::ScalarIsa>(&source.ops, &mut stats)?,
        };
        Some(SimdKernel { source, isa, program, n_steps: stats.steps, n_fused_tiles: stats.fused_tiles })
    }

    /// The superword kernel this chain was compiled from (the owner of
    /// the proofs the chain runs under).
    pub fn source(&self) -> &Arc<SuperwordKernel> {
        &self.source
    }

    /// The vector ISA this chain's closures target — the reported-ISA
    /// probe the cross-target CI asserts against.
    pub fn isa(&self) -> IsaKind {
        self.isa
    }

    /// Name of the source procedure.
    pub fn name(&self) -> &str {
        &self.source.name
    }

    /// Number of pre-compiled closures in the chain (loop nodes count
    /// their bodies, not themselves).
    pub fn step_count(&self) -> usize {
        self.n_steps
    }

    /// How many fused accumulator-tile closures the chain compiler formed
    /// (each replaces a whole run of `VFmaLane` ops and hoists the shared
    /// operand load).
    pub fn fused_tile_count(&self) -> usize {
        self.n_fused_tiles
    }

    /// Runs the chain over borrowed tensor views, proving bounds for this
    /// exact input first (one-shot entry point; the GEMM hot path uses
    /// [`SimdDispatch`] instead, which memoises the proof).
    ///
    /// # Errors
    ///
    /// [`crate::CodegenError::BadArguments`] on an argument-count or kind
    /// mismatch or a read-only view of a written tensor, and
    /// [`crate::CodegenError::OutOfBounds`] from the checked fallback when
    /// the interval proof declines and an access indeed leaves its buffer.
    pub fn run_views(&self, scalars: &[i64], tensors: &mut [TensorView<'_>]) -> Result<()> {
        let mut scratch = ExecScratch::for_kernel(&self.source);
        self.run_proved(scalars, tensors, &mut Vec::new(), &mut scratch)
    }

    /// Runs the packed micro-kernel signature `(KC, Ac, Bc, C)`:
    /// `c[nr][mr] += ac[kc][mr] * bc[kc][nr]` through the closure chain.
    ///
    /// # Errors
    ///
    /// [`crate::CodegenError::BadArguments`] if the kernel does not have
    /// the one-scalar/three-tensor packed signature or writes its packed
    /// operands; otherwise as [`Self::run_views`].
    pub fn run_packed(&self, kc: usize, ac: &[f32], bc: &[f32], c: &mut [f32]) -> Result<()> {
        self.source.check_packed_signature()?;
        self.run_views(&[kc as i64], &mut [TensorView::Ro(ac), TensorView::Ro(bc), TensorView::Rw(c)])
    }

    /// A prove-once dispatch handle over this chain (see [`SimdDispatch`]).
    pub fn dispatcher(self: &Arc<Self>) -> SimdDispatch {
        SimdDispatch::new(Arc::clone(self))
    }

    /// The one prove-then-run body behind every entry point: validate the
    /// arguments, look up (or run and memoise in `proofs`) the interval
    /// proof for these inputs, then run the chain bounds-free — or, when
    /// the proof declines, the checked reference loop, which reports the
    /// first access that leaves its buffer.
    fn run_proved(
        &self,
        scalars: &[i64],
        tensors: &mut [TensorView<'_>],
        proofs: &mut Vec<ProofEntry>,
        scratch: &mut ExecScratch,
    ) -> Result<()> {
        self.source.validate_views(scalars, tensors)?;
        // The proof inputs: buffer lengths only (contents never affect
        // addresses — the tape has no data-dependent control flow). The
        // packed signature's three tensors stay on the stack.
        let mut lens_stack = [0usize; 4];
        let lens_heap: Vec<usize>;
        let lens: &[usize] = if tensors.len() <= lens_stack.len() {
            for (slot, t) in lens_stack.iter_mut().zip(tensors.iter()) {
                *slot = t.as_slice().len();
            }
            &lens_stack[..tensors.len()]
        } else {
            lens_heap = tensors.iter().map(|t| t.as_slice().len()).collect();
            &lens_heap
        };
        if provable(proofs, &self.source, scalars, lens) {
            // SAFETY: the three obligations of `exec_unchecked` (and of the
            // chain compiler's safety contract) hold. Construction proof:
            // `to_superword` proved every register operand and the loop
            // structure of the source kernel. Memoised interval proof:
            // `provable` just certified (or recalled the certification of)
            // every tensor access for these exact scalars and lengths. `Rw`
            // views: `validate_views` above rejected read-only views of
            // written tensors. Every caller sizes `scratch` for the source
            // kernel.
            unsafe { self.exec_unchecked(scalars, tensors, scratch) };
            Ok(())
        } else {
            scalar::exec_checked(&self.source, scalars, tensors, scratch)
        }
    }

    /// Runs the pre-compiled chain with no checks.
    ///
    /// # Safety
    ///
    /// Callers must have established, for the *source* kernel: the
    /// construction-time register/loop proof (always true), the interval
    /// proof for these exact scalars and tensor lengths, and `Rw` views
    /// for every written tensor. `scratch` must be sized for the source
    /// kernel.
    unsafe fn exec_unchecked(
        &self,
        scalars: &[i64],
        tensors: &mut [TensorView<'_>],
        scratch: &mut ExecScratch,
    ) {
        scratch.regs.fill(0.0);
        let regs = scratch.regs.as_mut_ptr();
        // Raw base pointers: the `*mut` view of a read-only tensor is
        // never written through (precondition three). The packed signature
        // has three tensors, so the common case stays on the stack.
        let mut tens_stack = [std::ptr::null_mut::<f32>(); 4];
        let mut tens_heap: Vec<*mut f32> = Vec::new();
        let raw = |t: &mut TensorView<'_>| match t {
            TensorView::Ro(s) => s.as_ptr().cast_mut(),
            TensorView::Rw(s) => s.as_mut_ptr(),
        };
        let tens: &[*mut f32] = if tensors.len() <= tens_stack.len() {
            for (slot, t) in tens_stack.iter_mut().zip(tensors.iter_mut()) {
                *slot = raw(t);
            }
            &tens_stack[..tensors.len()]
        } else {
            tens_heap.extend(tensors.iter_mut().map(raw));
            &tens_heap
        };
        compile::run_nodes(&self.program, regs, tens, &mut scratch.loops, scalars);
    }
}

/// Reusable execution state: the flat register file and the loop
/// counter/bound tables, allocated once per [`SimdDispatch`] and shared by
/// every run (the chain uses the counters, the checked reference loop the
/// counters and bounds).
#[derive(Debug, Clone)]
pub(crate) struct ExecScratch {
    pub(crate) regs: Vec<f32>,
    pub(crate) loops: Vec<i64>,
    pub(crate) bounds: Vec<i64>,
}

impl ExecScratch {
    pub(crate) fn for_kernel(kernel: &SuperwordKernel) -> Self {
        ExecScratch {
            regs: vec![0.0; kernel.n_regs],
            loops: vec![0; kernel.n_dyn_loops],
            bounds: vec![0; kernel.n_dyn_loops],
        }
    }
}

/// One memoised run of the interval proof: the scalar arguments and buffer
/// lengths it was run for, and its verdict.
#[derive(Debug, Clone)]
struct ProofEntry {
    scalars: Vec<i64>,
    lens: Vec<usize>,
    provable: bool,
}

/// Looks up (or runs and memoises) the interval proof of `kernel` for one
/// input tuple. A hit is one allocation-free scan of the memo.
fn provable(proofs: &mut Vec<ProofEntry>, kernel: &SuperwordKernel, scalars: &[i64], lens: &[usize]) -> bool {
    if let Some(entry) = proofs.iter().find(|p| p.scalars == scalars && p.lens == lens) {
        return entry.provable;
    }
    let provable = kernel.bounds_provable(scalars, lens);
    proofs.push(ProofEntry { scalars: scalars.to_vec(), lens: lens.to_vec(), provable });
    provable
}

/// A prove-once dispatch handle for the SIMD tier: the per-worker reusable
/// state of a [`SimdKernel`].
///
/// [`SimdKernel::run_views`] re-runs the (cheap, `O(ops)`) interval proof
/// and re-allocates its register file on **every** call, even though a
/// GEMM driver dispatches the same kernel thousands of times per problem
/// with only a couple of distinct proof inputs (`KC` full vs. fringe, and
/// the matching buffer lengths). A `SimdDispatch` memoises the proof
/// verdict per distinct `(scalars, buffer lengths)` tuple — one verdict
/// gates both the chain and, when it declines, the checked reference
/// fallback (identical error semantics) — and owns one register file and
/// loop table, so steady-state dispatch allocates nothing and re-proves
/// nothing. Results are bit-for-bit identical to the one-shot entry
/// points. Create one per worker thread (it is `Send`) and reuse it for
/// every micro-tile.
#[derive(Debug, Clone)]
pub struct SimdDispatch {
    kernel: Arc<SimdKernel>,
    proofs: Vec<ProofEntry>,
    scratch: ExecScratch,
}

impl SimdDispatch {
    /// Creates a dispatch handle, allocating the register file and loop
    /// tables up front.
    pub fn new(kernel: Arc<SimdKernel>) -> Self {
        let scratch = ExecScratch::for_kernel(kernel.source());
        SimdDispatch { kernel, proofs: Vec::new(), scratch }
    }

    /// How many distinct `(scalars, buffer lengths)` proof inputs have
    /// been memoised so far. A well-blocked GEMM sees only a handful.
    pub fn memoised_proofs(&self) -> usize {
        self.proofs.len()
    }

    /// Whether a packed call with these operand lengths passes the
    /// memoised affine-interval bounds proof. The native (`exo-aot`)
    /// dispatch consults this before handing the call to the compiled C
    /// kernel, which has no bounds checks of its own; a `false` answer
    /// routes the call to this handle's checked fallback instead.
    pub fn packed_provable(&mut self, kc: usize, ac_len: usize, bc_len: usize, c_len: usize) -> bool {
        let source = self.kernel.source();
        source.check_packed_signature().is_ok()
            && provable(&mut self.proofs, source, &[kc as i64], &[ac_len, bc_len, c_len])
    }

    /// Runs the chain over borrowed tensor views, reusing the memoised
    /// proof and this handle's register file.
    ///
    /// # Errors
    ///
    /// As [`SimdKernel::run_views`].
    pub fn run_views(&mut self, scalars: &[i64], tensors: &mut [TensorView<'_>]) -> Result<()> {
        let SimdDispatch { kernel, proofs, scratch } = self;
        kernel.run_proved(scalars, tensors, proofs, scratch)
    }

    /// Runs the packed `(KC, Ac, Bc, C)` micro-kernel signature through
    /// the chain, reusing the memoised proof and register file.
    ///
    /// # Errors
    ///
    /// As [`SimdKernel::run_packed`].
    pub fn run_packed(&mut self, kc: usize, ac: &[f32], bc: &[f32], c: &mut [f32]) -> Result<()> {
        self.kernel.source().check_packed_signature()?;
        self.run_views(&[kc as i64], &mut [TensorView::Ro(ac), TensorView::Ro(bc), TensorView::Rw(c)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CodegenError;
    use crate::exec::{compile as compile_proc, CompiledKernel, RunArg};
    use crate::superword::tests::{bcast_proc, interp_packed, oob_proc, staged_kernels as staged_superword};
    use exo_ir::builder::*;
    use exo_ir::{Expr, MemSpace, ScalarType};

    fn assert_close(x: &[f32], y: &[f32], kc: usize, what: &str) {
        let tol = fma_contraction_tol(kc);
        for (i, (a, b)) in x.iter().zip(y).enumerate() {
            let scale = a.abs().max(b.abs()).max(1.0);
            assert!((a - b).abs() <= tol * scale, "{what} at {i}: {a} vs {b} (tol {tol})");
        }
    }

    /// Every ISA the running host can execute — always at least the
    /// scalar reference, plus the native one of the build target.
    fn available_isas() -> Vec<IsaKind> {
        IsaKind::ALL.iter().copied().filter(|isa| isa.available()).collect()
    }

    /// The staged 8x4 laneq kernel of the superword tests (the tape
    /// scalarises its staged tiles into exactly the lane runs the chain
    /// compiler fuses), compiled for the active ISA, with its interpreter
    /// oracle.
    fn staged_kernels() -> (CompiledKernel, Arc<SuperwordKernel>, SimdKernel) {
        let (compiled, _, sw) = staged_superword(8, 4);
        let sw = Arc::new(sw);
        let simd = SimdKernel::compile(Arc::clone(&sw)).expect("the scalar floor always compiles");
        (compiled, sw, simd)
    }

    #[test]
    fn the_scalar_isa_is_always_available_and_is_the_selection_floor() {
        assert!(IsaKind::Scalar.available());
        let active = active_isa();
        assert!(active.available());
        // `simd_available` now means "a native ISA was selected".
        assert_eq!(simd_available(), active != IsaKind::Scalar);
        // The selection is the widest available ISA (or the env pin).
        if env_isa_override().is_none() {
            let widest = *IsaKind::ALL.iter().find(|isa| isa.available()).unwrap();
            assert_eq!(active, widest);
        }
    }

    #[test]
    fn isa_parse_accepts_names_case_insensitively_and_names_the_choices_on_a_typo() {
        assert_eq!(IsaKind::parse("avx2"), Ok(IsaKind::Avx2));
        assert_eq!(IsaKind::parse(" NEON "), Ok(IsaKind::Neon));
        assert_eq!(IsaKind::parse("Scalar"), Ok(IsaKind::Scalar));
        assert_eq!(
            IsaKind::parse("sse9"),
            Err("unknown ISA `sse9` (expected one of: avx2, neon, scalar)".to_string())
        );
        for isa in IsaKind::ALL {
            assert_eq!(IsaKind::parse(isa.name()), Ok(isa), "names round-trip");
        }
    }

    #[test]
    fn isa_lane_widths_and_contraction_contract() {
        assert_eq!(IsaKind::Avx2.lanes(), 8);
        assert_eq!(IsaKind::Neon.lanes(), 4);
        assert_eq!(IsaKind::Scalar.lanes(), 1);
        assert!(IsaKind::Avx2.contracts_fma());
        assert!(IsaKind::Neon.contracts_fma());
        assert!(!IsaKind::Scalar.contracts_fma());
    }

    #[test]
    fn simd_matches_superword_within_the_fma_bound_and_fuses_tiles() {
        let (compiled, _, simd) = staged_kernels();
        assert_eq!(simd.isa(), active_isa());
        assert!(simd.fused_tile_count() > 0, "the staged kernel's FMA runs must fuse: {simd:?}");
        assert!(simd.step_count() > 0);
        let (mr, nr) = (8usize, 4usize);
        for kc in [0usize, 1, 2, 17, 64] {
            let a: Vec<f32> = (0..kc * mr).map(|i| ((i * 7 + 3) % 13) as f32 * 0.5 - 2.0).collect();
            let b: Vec<f32> = (0..kc * nr).map(|i| ((i * 5 + 1) % 11) as f32 * 0.25 - 1.0).collect();
            let c0: Vec<f32> = (0..nr * mr).map(|i| (i % 5) as f32 * 0.5).collect();
            let mut c_sw = c0.clone();
            interp_packed(&compiled, kc, &a, &b, &mut c_sw);
            let mut c_simd = c0.clone();
            simd.run_packed(kc, &a, &b, &mut c_simd).unwrap();
            assert_close(&c_simd, &c_sw, kc, &format!("kc={kc}"));
            if kc == 0 {
                assert_eq!(c_simd, c0, "kc = 0 stages C through registers and writes it back unchanged");
            }
        }
    }

    #[test]
    fn every_available_isa_compiles_the_staged_kernel_and_the_scalar_chain_is_bit_exact() {
        let (compiled, sw, _) = staged_kernels();
        let (mr, nr) = (8usize, 4usize);
        for isa in available_isas() {
            let chain = SimdKernel::compile_for(Arc::clone(&sw), isa)
                .unwrap_or_else(|| panic!("{isa} is available but declined the staged kernel"));
            assert_eq!(chain.isa(), isa);
            assert!(chain.fused_tile_count() > 0, "{isa}: the accumulator tiles must fuse");
            for kc in [0usize, 1, 2, 17, 64] {
                let a: Vec<f32> = (0..kc * mr).map(|i| ((i * 7 + 3) % 13) as f32 * 0.5 - 2.0).collect();
                let b: Vec<f32> = (0..kc * nr).map(|i| ((i * 5 + 1) % 11) as f32 * 0.25 - 1.0).collect();
                let c0: Vec<f32> = (0..nr * mr).map(|i| (i % 5) as f32 * 0.5).collect();
                let mut c_sw = c0.clone();
                interp_packed(&compiled, kc, &a, &b, &mut c_sw);
                let mut c_chain = c0.clone();
                chain.run_packed(kc, &a, &b, &mut c_chain).unwrap();
                if isa.contracts_fma() {
                    assert_close(&c_chain, &c_sw, kc, &format!("{isa} kc={kc}"));
                } else {
                    assert_eq!(c_chain, c_sw, "{isa} kc={kc}: the scalar chain must be bit-exact");
                }
            }
        }
    }

    #[test]
    fn compile_for_an_unavailable_isa_returns_none() {
        let (_, sw, _) = staged_kernels();
        for isa in IsaKind::ALL {
            if !isa.available() {
                assert!(SimdKernel::compile_for(Arc::clone(&sw), isa).is_none());
            }
        }
    }

    #[test]
    fn broadcast_and_scalar_passthrough_kernels_lower_and_match() {
        // Unscheduled reference kernel: C stays in memory, nothing packs —
        // the chain degenerates to scalar closures and must still agree.
        let p = exo_isa::ukernel_ref_simple(ScalarType::F32);
        let p = exo_sched::partial_eval(&p, &[4, 4]).unwrap();
        let compiled = compile_proc(&p).unwrap();
        let sw = Arc::new(compiled.to_superword().unwrap());
        let kc = 13usize;
        let a: Vec<f32> = (0..kc * 4).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect();
        let b: Vec<f32> = (0..kc * 4).map(|i| (i % 5) as f32 * 0.5 - 1.0).collect();
        let c0: Vec<f32> = (0..16).map(|i| i as f32 * 0.125).collect();
        let mut c_sw = c0.clone();
        interp_packed(&compiled, kc, &a, &b, &mut c_sw);
        for isa in available_isas() {
            let simd = SimdKernel::compile_for(Arc::clone(&sw), isa).unwrap();
            let mut c_simd = c0.clone();
            simd.run_packed(kc, &a, &b, &mut c_simd).unwrap();
            assert_close(&c_simd, &c_sw, kc, &format!("{isa} scalar passthrough"));
        }

        // A broadcast-from-memory FMA (VFmaBcast) shape.
        let p = bcast_proc();
        let sw = Arc::new(compile_proc(&p).unwrap().to_superword().unwrap());
        for isa in available_isas() {
            let simd = SimdKernel::compile_for(Arc::clone(&sw), isa).unwrap();
            let mut x = vec![1.5f32, -2.0, 0.25, 3.0];
            let mut s = vec![0.5f32];
            let mut y = vec![0.0f32; 4];
            simd.run_views(
                &[],
                &mut [TensorView::Rw(&mut x), TensorView::Rw(&mut s), TensorView::Rw(&mut y)],
            )
            .unwrap();
            assert_eq!(y, vec![0.75, -1.0, 0.125, 1.5], "{isa}: one product per lane — exact even under FMA");
        }
    }

    #[test]
    fn nested_dynamic_loops_compile_and_run() {
        // Two nested dynamic loops: the inner LoopBegin's absolute `end`
        // jump target must be rebased when the chain compiler recurses
        // into the outer body, or compilation silently declines.
        let p = proc("nested")
            .size_arg("N")
            .size_arg("M")
            // Constant column extent keeps the addresses affine (the tape
            // rejects `i * M`); both loop bounds stay dynamic.
            .tensor_arg("x", ScalarType::F32, vec![var("N"), int(8)], MemSpace::Dram)
            .body(vec![for_(
                "i",
                0,
                var("N"),
                vec![for_(
                    "j",
                    0,
                    var("M"),
                    vec![assign(
                        "x",
                        vec![var("i"), var("j")],
                        Expr::add(Expr::mul(var("i"), int(10)), var("j")),
                    )],
                )],
            )])
            .build();
        let compiled = compile_proc(&p).unwrap();
        let sw = Arc::new(compiled.to_superword().unwrap());
        let (n, m) = (3usize, 5usize);
        let mut want = vec![-1.0f32; n * 8];
        compiled
            .run(&mut [RunArg::Size(n as i64), RunArg::Size(m as i64), RunArg::Tensor(&mut want)])
            .unwrap();
        for isa in available_isas() {
            let simd = SimdKernel::compile_for(Arc::clone(&sw), isa)
                .expect("nested dynamic loops must not decline chain compilation");
            let mut x = vec![-1.0f32; n * 8];
            simd.run_views(&[n as i64, m as i64], &mut [TensorView::Rw(&mut x)]).unwrap();
            assert_eq!(x, want, "{isa}: integer-valued writes — exact across tiers");
            assert_eq!(x[8 + 4], 14.0, "x[1][4] = 1*10 + 4");
            assert_eq!(x[8 + 5], -1.0, "columns past M stay untouched");
        }
    }

    #[test]
    fn out_of_bounds_falls_back_to_the_checked_loop_with_identical_errors() {
        let p = oob_proc();
        let sw = Arc::new(compile_proc(&p).unwrap().to_superword().unwrap());
        for isa in available_isas() {
            let simd = Arc::new(SimdKernel::compile_for(Arc::clone(&sw), isa).unwrap());
            // Claim N = 7 over a 2-element buffer: the interval proof
            // declines and the checked reference loop reports the first
            // out-of-bounds access — after the partial stores before it.
            let mut x = vec![0.0f32; 2];
            assert!(matches!(
                simd.run_views(&[7], &mut [TensorView::Rw(&mut x)]),
                Err(CodegenError::OutOfBounds { .. })
            ));
            assert_eq!(x, vec![1.0, 1.0], "{isa}: partial stores precede the error");
            // Same through the dispatch handle, which memoises the declined
            // verdict too.
            let mut dispatch = simd.dispatcher();
            let mut x = vec![0.0f32; 2];
            assert!(matches!(
                dispatch.run_views(&[7], &mut [TensorView::Rw(&mut x)]),
                Err(CodegenError::OutOfBounds { .. })
            ));
            assert_eq!(x, vec![1.0, 1.0]);
            assert_eq!(dispatch.memoised_proofs(), 1);
            let mut y = vec![0.0f32; 8];
            dispatch.run_views(&[7], &mut [TensorView::Rw(&mut y)]).unwrap();
            assert_eq!(&y[..7], &[1.0; 7]);
            assert_eq!(dispatch.memoised_proofs(), 2);
        }
    }

    #[test]
    fn dispatch_handle_matches_one_shot_runs_and_memoises_proofs() {
        let (_, _, simd) = staged_kernels();
        let simd = Arc::new(simd);
        let mut dispatch = simd.dispatcher();
        let (mr, nr) = (8usize, 4usize);
        for rep in 0..6 {
            for &kc in &[17usize, 5] {
                let a: Vec<f32> = (0..kc * mr).map(|i| ((i * 7 + rep) % 13) as f32 * 0.5 - 2.0).collect();
                let b: Vec<f32> = (0..kc * nr).map(|i| ((i * 5 + rep) % 11) as f32 * 0.25 - 1.0).collect();
                let c0: Vec<f32> = (0..nr * mr).map(|i| ((i + rep) % 5) as f32 * 0.5).collect();
                let mut c_dispatch = c0.clone();
                dispatch.run_packed(kc, &a, &b, &mut c_dispatch).unwrap();
                let mut c_one_shot = c0.clone();
                simd.run_packed(kc, &a, &b, &mut c_one_shot).unwrap();
                assert_eq!(c_dispatch, c_one_shot, "kc={kc} rep={rep}: the chain is deterministic");
            }
        }
        assert_eq!(dispatch.memoised_proofs(), 2, "one proof per distinct (KC, lens) input");
    }
}
