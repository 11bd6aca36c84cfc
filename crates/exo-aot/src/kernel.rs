//! The loaded native kernel and its proof-guarded dispatch.

use std::sync::Arc;

use exo_codegen::{CodegenError, IsaKind, SimdDispatch, SimdKernel, SuperwordKernel};

use crate::dylib::Dylib;
use crate::error::Result;

/// The exported symbol every emitted kernel carries.
pub const KERNEL_SYMBOL: &str = "exo_aot_kernel";

/// The packed micro-kernel ABI: `(KC, Ac, Bc, C)`, matching
/// [`SimdKernel::run_packed`] with the slices lowered to raw pointers.
pub type KernelFn = unsafe extern "C" fn(i64, *const f32, *const f32, *mut f32);

/// A compiled, loaded native micro-kernel.
///
/// Holds the source superword tape (for the bounds proof and the checked
/// fallback), the emitted C, and the open dylib the function pointer
/// points into — the handle keeps the library mapped for as long as any
/// clone is alive.
#[derive(Debug, Clone)]
pub struct NativeKernel {
    source: Arc<SuperwordKernel>,
    c_source: Arc<str>,
    isa: IsaKind,
    lib: Arc<Dylib>,
    f: KernelFn,
}

impl NativeKernel {
    pub(crate) fn from_lib(
        source: Arc<SuperwordKernel>,
        c_source: Arc<str>,
        isa: IsaKind,
        lib: Arc<Dylib>,
    ) -> Result<NativeKernel> {
        let ptr = lib.symbol(KERNEL_SYMBOL)?;
        // SAFETY: the symbol was emitted by `emit_superword_c` with
        // exactly the `KernelFn` signature; the transmute re-types the
        // loader's raw pointer to it.
        let f: KernelFn = unsafe { std::mem::transmute(ptr) };
        Ok(NativeKernel { source, c_source, isa, lib, f })
    }

    /// The superword tape this kernel was compiled from.
    pub fn source(&self) -> &Arc<SuperwordKernel> {
        &self.source
    }

    /// The emitted C translation unit (also kept next to the artifact on
    /// disk).
    pub fn c_source(&self) -> &str {
        &self.c_source
    }

    /// The ISA the C was lowered for.
    pub fn isa(&self) -> IsaKind {
        self.isa
    }

    /// The raw function pointer (for callers managing their own proofs).
    pub fn raw(&self) -> KernelFn {
        self.f
    }

    /// Keeps the dylib mapped independently of this handle.
    pub fn lib(&self) -> &Arc<Dylib> {
        &self.lib
    }

    /// Runs the packed micro-kernel `c += ac * bc` natively when the
    /// affine-interval proof admits the call, and through the scalar
    /// chain's checked reference loop otherwise — same decline behaviour
    /// as the simd chain, so the native tier never trades safety for
    /// speed.
    ///
    /// # Errors
    ///
    /// As [`SimdKernel::run_packed`] (only reachable on the checked
    /// fallback path; proven calls cannot fail).
    pub fn run_packed(&self, kc: usize, ac: &[f32], bc: &[f32], c: &mut [f32]) -> exo_codegen::Result<()> {
        if self.source.packed_bounds_provable(kc, ac.len(), bc.len(), c.len()) {
            // SAFETY: the interval proof just established that every
            // tensor access of the tape — and therefore of the C lowered
            // from it — stays inside `ac`, `bc` and `c` for this `kc`
            // and these lengths; the pointers are valid for those
            // lengths and `c` is exclusive.
            unsafe { (self.f)(kc as i64, ac.as_ptr(), bc.as_ptr(), c.as_mut_ptr()) };
            Ok(())
        } else {
            SimdKernel::compile_for(Arc::clone(&self.source), IsaKind::Scalar)
                .ok_or_else(|| CodegenError::Unsupported {
                    backend: "simd",
                    what: "a tape the scalar chain declines".into(),
                })?
                .run_packed(kc, ac, bc, c)
        }
    }
}

/// A reusable dispatch handle pairing the native kernel with a simd
/// dispatcher: proofs are memoised across calls (the per-GEMM tile loop
/// hits the same `(kc, lengths)` key thousands of times), and unproven
/// calls route to the simd handle's own checked ladder.
#[derive(Debug, Clone)]
pub struct NativeDispatch {
    native: Arc<NativeKernel>,
    simd: SimdDispatch,
}

impl NativeDispatch {
    /// Pairs a loaded kernel with the simd dispatcher that backs it up.
    pub fn new(native: Arc<NativeKernel>, simd: SimdDispatch) -> NativeDispatch {
        NativeDispatch { native, simd }
    }

    /// The loaded kernel.
    pub fn kernel(&self) -> &Arc<NativeKernel> {
        &self.native
    }

    /// Runs the packed call through the native function pointer when the
    /// memoised proof admits it, else through the simd dispatcher.
    ///
    /// # Errors
    ///
    /// As [`SimdDispatch::run_packed`] (the fallback path).
    pub fn run_packed(
        &mut self,
        kc: usize,
        ac: &[f32],
        bc: &[f32],
        c: &mut [f32],
    ) -> exo_codegen::Result<()> {
        if self.simd.packed_provable(kc, ac.len(), bc.len(), c.len()) {
            // SAFETY: as in `NativeKernel::run_packed` — the memoised
            // interval proof covers every access for these lengths.
            unsafe { (self.native.f)(kc as i64, ac.as_ptr(), bc.as_ptr(), c.as_mut_ptr()) };
            Ok(())
        } else {
            self.simd.run_packed(kc, ac, bc, c)
        }
    }
}
