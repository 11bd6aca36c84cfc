//! Differential suite for the execution ladder native → simd → superword,
//! with an **ISA axis**: the ahead-of-time compiled native tier (a
//! dlopen'd `.so` emitted from the superword tape), the in-process SIMD
//! chain (compiled per vector ISA — AVX2/FMA, NEON, or the scalar
//! reference), the superword tier, the bitwise oracles (the tree-walking
//! interpreter `CompiledKernel::run` per kernel call, the scalar
//! `reference_kernel` per driver run), and the naive reference must
//! agree. Where the computation is literally the same sequence of f32
//! operations (superword vs. the oracles, a fresh call vs. a reused
//! runner, 1 vs. N threads, ic vs. jc split — and any one SIMD chain
//! against *itself* across drivers and thread counts), they must agree
//! **bit for bit**.
//! The native tier is emitted so that each lane performs the same fused
//! (or, on the scalar floor, unfused) operations as the simd chain, so
//! native vs. simd is held to exact equality on every host — including
//! hosts without a C toolchain, where "native" silently *is* the simd
//! chain. The native ISAs contract their FMAs, so against the portable
//! tiers they are held to the accumulation-scaled ULP bound of
//! `common::assert_fma_close`; the scalar ISA chain does not contract
//! and is held to exact equality — which is also what `EXO_ISA=scalar`
//! (the CI forced-scalar leg) pins process-wide, and what
//! `EXO_BACKEND=superword` (the CI fallback leg) gets by skipping the
//! chains entirely. `EXO_CC=/nonexistent/cc` (the CI poisoned-toolchain
//! leg) disables only the ahead-of-time tier; every test here must still
//! pass, with the native legs collapsing onto the simd chain.

mod common;

use std::sync::Arc;

use common::{assert_fma_close, Cases};
use exo_gemm::exo_codegen::{CompiledKernel, RunArg, SimdKernel};
use exo_gemm::exo_isa::neon_f32;
use exo_gemm::gemm_blis::{
    active_isa, exo_kernel, exo_kernel_simd, exo_kernel_superword, naive_gemm, native_available,
    reference_kernel, toolchain, BlisGemm, BlockingParams, ExecBackend, GemmProblem, GemmRunner, IsaKind,
    Matrix,
};
use exo_gemm::ukernel_gen::{KernelCache, KernelSet, MicroKernelGenerator};

/// The kernel-level bitwise oracle: the tree-walking interpreter on the
/// packed `(KC, Ac, Bc, C)` signature (its argument interface takes every
/// tensor mutably, hence the operand copies).
fn interp_packed(compiled: &CompiledKernel, kc: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let (mut a, mut b) = (a.to_vec(), b.to_vec());
    compiled
        .run(&mut [
            RunArg::Size(kc as i64),
            RunArg::Tensor(&mut a),
            RunArg::Tensor(&mut b),
            RunArg::Tensor(c),
        ])
        .unwrap();
}

fn packed_operands(mr: usize, nr: usize, kc: usize, cases: &mut Cases) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let a: Vec<f32> = (0..kc * mr).map(|_| cases.f32_unit()).collect();
    let b: Vec<f32> = (0..kc * nr).map(|_| cases.f32_unit()).collect();
    let c: Vec<f32> = (0..mr * nr).map(|_| cases.f32_unit()).collect();
    (a, b, c)
}

/// Kernel-level differential on every registry tile shape, plus the 4x24
/// and 12x8 tiles the tuner selects for ResNet50, across several KC values
/// from `k = 0` and `k = 1` up to the production depths of the ResNet50
/// verdicts (`kc = 400` and `512`): superword ≡ interpreter bit-for-bit,
/// the SIMD chain within the FMA-contraction bound, and the ahead-of-time
/// native tier **bit-identical to the SIMD chain** — with a toolchain
/// because the emitted C performs the same per-lane fused ops, without one
/// because the fallback *is* the chain. The tiers are called directly, so
/// an `EXO_BACKEND` override does not collapse them.
#[test]
fn native_simd_superword_and_the_interpreter_agree_across_registry_shapes() {
    let cache = KernelCache::new();
    let generator = MicroKernelGenerator::new(neon_f32());
    let mut cases = Cases::new(0x7a9e);
    let shapes: Vec<(usize, usize)> =
        KernelSet::paper_shapes().into_iter().chain([(4, 24), (12, 8)]).collect();
    for &(mr, nr) in &shapes {
        let kernel = cache.get_or_generate(&generator, mr, nr).unwrap();
        let sw = kernel.superword.as_ref().expect("every generated kernel carries its superword lowering");
        assert!(sw.vector_op_count() > 0, "{mr}x{nr} must pack whole-vector ops");
        // The superword rung: the same IR on the scalar chain.
        let superword =
            SimdKernel::compile_for(Arc::clone(sw), IsaKind::Scalar).expect("the scalar chain compiles");
        assert_eq!(kernel.simd.isa(), active_isa(), "{mr}x{nr}: chain targets the active ISA");
        // Settle the asynchronous native verdict before measuring, so the
        // bit-faithfulness leg below actually exercises the compiled tier
        // whenever a toolchain answers. A None verdict (no toolchain, or
        // the engine declined) is fine — the chain stands in for it below.
        let native = kernel.native_wait();
        if let Some(native) = &native {
            assert!(native_available(), "{mr}x{nr}: a native kernel implies an answering toolchain");
            assert_eq!(native.isa(), active_isa(), "{mr}x{nr}: native artifact targets the active ISA");
        }
        for kc in [0usize, 1, 2, 17, 64, 400, 512] {
            let (a, b, c0) = packed_operands(mr, nr, kc, &mut cases);
            let mut c_simd = c0.clone();
            kernel.simd.run_packed(kc, &a, &b, &mut c_simd).unwrap();
            let mut c_sw = c0.clone();
            superword.run_packed(kc, &a, &b, &mut c_sw).unwrap();
            let mut c_interp = c0.clone();
            interp_packed(&kernel.compiled, kc, &a, &b, &mut c_interp);
            let mut c_native = c0.clone();
            match &native {
                Some(native) => native.run_packed(kc, &a, &b, &mut c_native).unwrap(),
                None => kernel.simd.run_packed(kc, &a, &b, &mut c_native).unwrap(),
            }
            assert_eq!(c_native, c_simd, "{mr}x{nr} kc={kc}: native must be bit-faithful to simd");
            assert_eq!(c_sw, c_interp, "{mr}x{nr} kc={kc}: superword vs interpreter");
            assert_fma_close(&c_simd, &c_sw, kc, &format!("{mr}x{nr} kc={kc}: simd vs superword"));
            if kc == 0 {
                assert_eq!(c_simd, c_sw, "{mr}x{nr} kc=0: no FMA executes, all tiers bit-equal");
            }
        }
    }
    // The cache lowered each kernel's tiers exactly once, alongside it.
    assert_eq!(cache.generator_invocations(), shapes.len() as u64);
}

/// Every tier agrees with `naive_gemm` (to accumulation tolerance) on
/// fringe-heavy problems through the full five-loop driver; the superword
/// run is bit-identical to the scalar `reference_kernel` through the same
/// driver, the native (default) run is bit-identical to the pinned-simd
/// run, and both stay within the FMA bound of the superword tier.
#[test]
fn native_and_simd_drivers_match_naive_on_fringe_heavy_problems() {
    let generator = MicroKernelGenerator::new(neon_f32());
    let mut cases = Cases::new(0x51ab);
    // (mr, nr) x (m, n, k) including m < mr, n < nr, and k = 1.
    let shapes = [(8usize, 12usize), (4, 4), (1, 8)];
    let problems = [(3usize, 5usize, 1usize), (5, 40, 9), (13, 7, 23), (50, 45, 16), (8, 12, 1)];
    for &(mr, nr) in &shapes {
        let kernel = Arc::new(generator.generate(mr, nr).unwrap());
        // Settle the native tier up front so the default driver's runs
        // exercise the compiled artifact deterministically (when a
        // toolchain answers) instead of racing the background build.
        let _ = kernel.native_wait();
        for &(m, n, k) in &problems {
            let a = Matrix::from_fn(m, k, |_, _| cases.f32_unit());
            let b = Matrix::from_fn(k, n, |_, _| cases.f32_unit());
            let c0 = Matrix::from_fn(m, n, |_, _| cases.f32_unit());
            let blocking = BlockingParams { mc: 16, kc: 8, nc: 24, mr, nr };
            let run = |kimpl| {
                let mut c = c0.clone();
                BlisGemm::new(blocking)
                    .gemm_with(&kimpl, GemmProblem::new(a.view(), b.view(), c.view_mut()))
                    .unwrap();
                c
            };

            let c_native = run(exo_kernel(Arc::clone(&kernel)));
            let c_simd = run(exo_kernel_simd(Arc::clone(&kernel)));
            let c_sw = run(exo_kernel_superword(Arc::clone(&kernel)));
            let c_ref = run(reference_kernel(mr, nr));
            assert_eq!(
                c_native.data, c_simd.data,
                "{mr}x{nr} on {m}x{n}x{k}: native (default) vs pinned-simd driver"
            );
            assert_eq!(c_sw.data, c_ref.data, "{mr}x{nr} on {m}x{n}x{k}: superword vs reference driver");
            assert_fma_close(
                &c_simd.data,
                &c_sw.data,
                k,
                &format!("{mr}x{nr} on {m}x{n}x{k}: simd vs superword driver"),
            );

            let mut c_ref = c0.clone();
            naive_gemm(&a, &b, &mut c_ref);
            for idx in 0..c_simd.data.len() {
                assert!(
                    (c_simd.data[idx] - c_ref.data[idx]).abs() < 1e-3,
                    "{mr}x{nr} on {m}x{n}x{k} mismatch at {idx}: {} vs {}",
                    c_simd.data[idx],
                    c_ref.data[idx]
                );
            }
        }
    }
}

/// The programmatic backend pin: `with_backend(Superword)` on the simd
/// default must be bit-identical to the dedicated superword pin through
/// the full driver — the portable fallback is the one superword rung (the
/// scalar chain), not a third code path.
#[test]
fn forced_superword_fallback_is_bit_identical_to_the_superword_pin() {
    let generator = MicroKernelGenerator::new(neon_f32());
    let kernel = Arc::new(generator.generate(8, 12).unwrap());
    let mut cases = Cases::new(0xfa11);
    let blocking = BlockingParams { mc: 16, kc: 8, nc: 24, mr: 8, nr: 12 };
    for &(m, n, k) in &[(37usize, 29usize, 23usize), (8, 60, 9)] {
        let a = Matrix::from_fn(m, k, |_, _| cases.f32_unit());
        let b = Matrix::from_fn(k, n, |_, _| cases.f32_unit());
        let c0 = Matrix::from_fn(m, n, |_, _| cases.f32_unit());
        let mut c_forced = c0.clone();
        BlisGemm::new(blocking)
            .gemm_with(
                &exo_kernel(Arc::clone(&kernel)).with_backend(ExecBackend::Superword),
                GemmProblem::new(a.view(), b.view(), c_forced.view_mut()),
            )
            .unwrap();
        let mut c_sw = c0.clone();
        BlisGemm::new(blocking)
            .gemm_with(
                &exo_kernel_superword(Arc::clone(&kernel)),
                GemmProblem::new(a.view(), b.view(), c_sw.view_mut()),
            )
            .unwrap();
        assert_eq!(c_forced.data, c_sw.data, "{m}x{n}x{k}");
    }
}

/// The `superword` pin through the handle the driver dispatches with
/// (`KernelDispatch`, reused across calls) runs the scalar chain: bitwise
/// equal to the interpreter oracle on every registry tile plus the
/// ResNet50 tiles, from `kc = 0` up to the production depths 400 and 512.
#[test]
fn the_superword_pin_dispatches_bitwise_equal_to_the_interpreter() {
    if ExecBackend::Superword.effective() != ExecBackend::Superword {
        // A forced `EXO_BACKEND` override reroutes the pin to another tier.
        return;
    }
    let generator = MicroKernelGenerator::new(neon_f32());
    let mut cases = Cases::new(0x5e1f);
    for (mr, nr) in KernelSet::paper_shapes().into_iter().chain([(4, 24), (12, 8)]) {
        let kernel = Arc::new(generator.generate(mr, nr).unwrap());
        let mut dispatch = exo_kernel_superword(Arc::clone(&kernel)).dispatcher();
        for kc in [0usize, 1, 17, 400, 512] {
            let (a, b, c0) = packed_operands(mr, nr, kc, &mut cases);
            let mut c_pin = c0.clone();
            dispatch.run(kc, &a, &b, &mut c_pin).unwrap();
            let mut c_interp = c0.clone();
            interp_packed(&kernel.compiled, kc, &a, &b, &mut c_interp);
            assert_eq!(c_pin, c_interp, "{mr}x{nr} kc={kc}: superword pin vs interpreter");
        }
    }
}

/// A runner of `driver` that has already solved a problem larger than
/// `m x n x k` in every dimension, so its arena and staged tile hold
/// unrelated values when the caller's problem arrives.
fn dirty_runner<'d>(driver: &'d BlisGemm, m: usize, n: usize, k: usize, cases: &mut Cases) -> GemmRunner<'d> {
    let (m, n, k) = (m + 9, n + 13, k + 7);
    let a = Matrix::from_fn(m, k, |_, _| cases.f32_unit() * 8.0 - 4.0);
    let b = Matrix::from_fn(k, n, |_, _| cases.f32_unit() * 8.0 - 4.0);
    let mut c = Matrix::from_fn(m, n, |_, _| cases.f32_unit());
    let mut runner = driver.runner();
    runner.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut()).alpha(3.0).beta(-2.0)).unwrap();
    runner
}

/// A fresh driver call computes bit-identical results to a reused runner
/// whose arena a larger problem has dirtied — per tier, including the
/// SIMD chain (same packing, same op order either way).
#[test]
fn arena_driver_is_bit_identical_to_a_reused_dirty_runner() {
    let generator = MicroKernelGenerator::new(neon_f32());
    let kernel = Arc::new(generator.generate(8, 8).unwrap());
    let mut cases = Cases::new(0xc0de);
    for &(m, n, k) in &[(64usize, 64usize, 64usize), (37, 53, 29), (7, 3, 11)] {
        let a = Matrix::from_fn(m, k, |_, _| cases.f32_unit());
        let b = Matrix::from_fn(k, n, |_, _| cases.f32_unit());
        let c0 = Matrix::from_fn(m, n, |_, _| cases.f32_unit());
        let blocking = BlockingParams { mc: 24, kc: 16, nc: 32, mr: 8, nr: 8 };
        for (label, kimpl) in [
            ("simd", exo_kernel(Arc::clone(&kernel))),
            ("superword", exo_kernel_superword(Arc::clone(&kernel))),
        ] {
            let mut c_fresh = c0.clone();
            BlisGemm::new(blocking)
                .gemm_with(&kimpl, GemmProblem::new(a.view(), b.view(), c_fresh.view_mut()))
                .unwrap();
            let driver = BlisGemm::new(blocking).with_kernel(kimpl);
            let mut c_reused = c0.clone();
            dirty_runner(&driver, m, n, k, &mut cases)
                .gemm(GemmProblem::new(a.view(), b.view(), c_reused.view_mut()))
                .unwrap();
            assert_eq!(c_fresh.data, c_reused.data, "{m}x{n}x{k} {label}");
        }
    }
}

/// `threads = 1` and `threads = N` produce identical `C` on the SIMD
/// default: tall problems are split into disjoint `mr`-aligned row ranges,
/// each computed in the same order — the chain is deterministic, so even
/// the contracted FMAs agree bit-for-bit across thread counts.
#[test]
fn thread_count_never_changes_the_result() {
    let generator = MicroKernelGenerator::new(neon_f32());
    let kernel = Arc::new(generator.generate(8, 12).unwrap());
    let mut cases = Cases::new(0xbeef);
    // Small mc so every worker's row range spans several ic blocks.
    let blocking = BlockingParams { mc: 8, kc: 16, nc: 36, mr: 8, nr: 12 };
    for &(m, n, k) in &[(96usize, 60usize, 33usize), (70, 25, 9)] {
        let a = Matrix::from_fn(m, k, |_, _| cases.f32_unit());
        let b = Matrix::from_fn(k, n, |_, _| cases.f32_unit());
        let c0 = Matrix::from_fn(m, n, |_, _| cases.f32_unit());
        let mut c1 = c0.clone();
        BlisGemm::new(blocking)
            .gemm_with(&exo_kernel(Arc::clone(&kernel)), GemmProblem::new(a.view(), b.view(), c1.view_mut()))
            .unwrap();
        for threads in [2usize, 4, 7] {
            let mut cn = c0.clone();
            BlisGemm::new(blocking)
                .with_threads(threads)
                .gemm_with(
                    &exo_kernel(Arc::clone(&kernel)),
                    GemmProblem::new(a.view(), b.view(), cn.view_mut()),
                )
                .unwrap();
            assert_eq!(c1.data, cn.data, "{m}x{n}x{k} with {threads} threads");
        }
    }
}

/// Wide-and-short problems split their columns (the longer side) into
/// `nr`-aligned ranges instead of their rows; across fringe-heavy shapes,
/// every backend tier, and 1–7 threads the split must stay bit-identical
/// to that tier's sequential run and match the naive reference.
#[test]
fn jc_split_is_bit_identical_across_backends_and_thread_counts() {
    let generator = MicroKernelGenerator::new(neon_f32());
    let kernel = Arc::new(generator.generate(8, 12).unwrap());
    let mut cases = Cases::new(0x1c0f);
    // Single ic block (m <= mc) with many nc-wide jc blocks, including a
    // fringe column block and a fringe row range.
    let blocking = BlockingParams { mc: 32, kc: 16, nc: 24, mr: 8, nr: 12 };
    for &(m, n, k) in &[(8usize, 200usize, 33usize), (13, 100, 9), (5, 49, 17)] {
        let a = Matrix::from_fn(m, k, |_, _| cases.f32_unit());
        let b = Matrix::from_fn(k, n, |_, _| cases.f32_unit());
        let c0 = Matrix::from_fn(m, n, |_, _| cases.f32_unit());
        for (label, kimpl) in [
            ("simd", exo_kernel(Arc::clone(&kernel))),
            ("superword", exo_kernel_superword(Arc::clone(&kernel))),
        ] {
            let mut c_seq = c0.clone();
            BlisGemm::new(blocking)
                .gemm_with(&kimpl, GemmProblem::new(a.view(), b.view(), c_seq.view_mut()))
                .unwrap();
            for threads in [2usize, 4, 7] {
                let mut c_par = c0.clone();
                BlisGemm::new(blocking)
                    .with_threads(threads)
                    .gemm_with(&kimpl, GemmProblem::new(a.view(), b.view(), c_par.view_mut()))
                    .unwrap();
                assert_eq!(
                    c_seq.data, c_par.data,
                    "{m}x{n}x{k} jc split, {threads} threads, {label} backend"
                );
            }
            let mut c_ref = c0.clone();
            naive_gemm(&a, &b, &mut c_ref);
            for idx in 0..c_seq.data.len() {
                assert!((c_seq.data[idx] - c_ref.data[idx]).abs() < 1e-3, "{m}x{n}x{k} at {idx} ({label})");
            }
        }
    }
}

/// The ISA axis of the differential suite: for every registry shape and
/// every vector ISA the host can run, the chain compiled *for that ISA*
/// (via `SimdKernel::compile_for`, independent of the `EXO_ISA` pin) must
/// agree with the interpreter oracle — the scalar chain (the superword
/// rung) **bit for bit**, since it rounds multiply-then-add exactly like
/// the interpreter, the native AVX2/NEON chains within the documented
/// FMA-contraction bound.
#[test]
fn every_available_isa_matches_superword_across_registry_shapes() {
    let generator = MicroKernelGenerator::new(neon_f32());
    let mut cases = Cases::new(0x15a5);
    let isas: Vec<IsaKind> = IsaKind::ALL.iter().copied().filter(|isa| isa.available()).collect();
    assert!(isas.contains(&IsaKind::Scalar), "the scalar reference is available on every host");
    for (mr, nr) in KernelSet::paper_shapes() {
        let kernel = generator.generate(mr, nr).unwrap();
        let sw = kernel.superword.as_ref().unwrap_or_else(|| panic!("{mr}x{nr} must superword-compile"));
        for &isa in &isas {
            let chain = SimdKernel::compile_for(Arc::clone(sw), isa)
                .unwrap_or_else(|| panic!("{mr}x{nr}: {isa} is available but declined the chain"));
            assert_eq!(chain.isa(), isa);
            for kc in [0usize, 1, 2, 17, 64] {
                let (a, b, c0) = packed_operands(mr, nr, kc, &mut cases);
                let mut c_sw = c0.clone();
                interp_packed(&kernel.compiled, kc, &a, &b, &mut c_sw);
                let mut c_chain = c0.clone();
                chain.run_packed(kc, &a, &b, &mut c_chain).unwrap();
                if isa.contracts_fma() {
                    assert_fma_close(&c_chain, &c_sw, kc, &format!("{mr}x{nr} kc={kc}: {isa} vs superword"));
                } else {
                    assert_eq!(c_chain, c_sw, "{mr}x{nr} kc={kc}: the scalar chain must be bit-exact");
                }
            }
        }
    }
}

/// The masked-fringe axis: a staged kernel whose lane runs (6 and 3) are
/// *not* multiples of any native vector width, so the NEON chain must take
/// its masked partial-vector path (one whole `float32x4_t` plus a 2-lane
/// masked fringe per 6-lane run) and the AVX2 chain its `__m128`-quarter +
/// scalar-tail path. Every available ISA must still agree with the
/// interpreter oracle under the same per-ISA contract as the registry
/// shapes.
#[test]
fn fringe_lane_runs_take_the_masked_partial_vector_path_on_every_isa() {
    use exo_gemm::exo_ir::builder::*;
    use exo_gemm::exo_ir::{Expr, MemSpace, ScalarType};

    let (mr, nr) = (6i64, 3i64);
    let p = proc("ukr_6x3_staged")
        .size_arg("KC")
        .tensor_arg("Ac", ScalarType::F32, vec![var("KC"), int(mr)], MemSpace::Dram)
        .tensor_arg("Bc", ScalarType::F32, vec![var("KC"), int(nr)], MemSpace::Dram)
        .tensor_arg("C", ScalarType::F32, vec![int(nr * mr)], MemSpace::Dram)
        .body(vec![
            alloc("Ct", ScalarType::F32, vec![int(nr), int(mr)], MemSpace::Neon),
            alloc("Ra", ScalarType::F32, vec![int(mr)], MemSpace::Neon),
            alloc("Rb", ScalarType::F32, vec![int(nr)], MemSpace::Neon),
            for_(
                "j",
                0,
                nr,
                vec![for_(
                    "i",
                    0,
                    mr,
                    vec![assign(
                        "Ct",
                        vec![var("j"), var("i")],
                        read("C", vec![Expr::add(Expr::mul(var("j"), int(mr)), var("i"))]),
                    )],
                )],
            ),
            for_(
                "k",
                0,
                var("KC"),
                vec![
                    for_(
                        "i",
                        0,
                        mr,
                        vec![assign("Ra", vec![var("i")], read("Ac", vec![var("k"), var("i")]))],
                    ),
                    for_(
                        "j",
                        0,
                        nr,
                        vec![assign("Rb", vec![var("j")], read("Bc", vec![var("k"), var("j")]))],
                    ),
                    for_(
                        "j",
                        0,
                        nr,
                        vec![for_(
                            "i",
                            0,
                            mr,
                            vec![reduce(
                                "Ct",
                                vec![var("j"), var("i")],
                                Expr::mul(read("Ra", vec![var("i")]), read("Rb", vec![var("j")])),
                            )],
                        )],
                    ),
                ],
            ),
            for_(
                "j",
                0,
                nr,
                vec![for_(
                    "i",
                    0,
                    mr,
                    vec![assign(
                        "C",
                        vec![Expr::add(Expr::mul(var("j"), int(mr)), var("i"))],
                        read("Ct", vec![var("j"), var("i")]),
                    )],
                )],
            ),
        ])
        .build();
    let compiled = exo_gemm::exo_codegen::compile(&p).unwrap();
    let sw = Arc::new(compiled.to_superword().unwrap());
    assert!(sw.vector_op_count() > 0, "the 6-lane staged tiles must pack whole-vector ops");
    let (mr, nr) = (mr as usize, nr as usize);
    let mut cases = Cases::new(0xf41e);
    for isa in IsaKind::ALL.iter().copied().filter(|isa| isa.available()) {
        let chain = SimdKernel::compile_for(Arc::clone(&sw), isa)
            .unwrap_or_else(|| panic!("{isa} declined the fringe kernel"));
        for kc in [0usize, 1, 2, 17, 64] {
            let (a, b, c0) = packed_operands(mr, nr, kc, &mut cases);
            let mut c_sw = c0.clone();
            interp_packed(&compiled, kc, &a, &b, &mut c_sw);
            let mut c_chain = c0.clone();
            chain.run_packed(kc, &a, &b, &mut c_chain).unwrap();
            if isa.contracts_fma() {
                assert_fma_close(&c_chain, &c_sw, kc, &format!("fringe {mr}x{nr} kc={kc}: {isa}"));
            } else {
                assert_eq!(c_chain, c_sw, "fringe {mr}x{nr} kc={kc}: scalar chain must be bit-exact");
            }
        }
    }
}

/// The reported-ISA probe the cross-target CI matrix asserts against: the
/// runtime selection must actually pick the native ISA of the build target
/// (NEON under the aarch64/QEMU job, AVX2 on the x86 runners) unless
/// `EXO_ISA` pins one — and a pinned run must report exactly the pin.
/// `simd_available()` means "a native ISA was selected", so the
/// forced-scalar leg reports `false` even on AVX2 hosts.
#[test]
fn the_active_isa_is_the_native_one_unless_pinned() {
    let active = active_isa();
    assert!(active.available());
    assert_eq!(exo_gemm::gemm_blis::simd_available(), active != IsaKind::Scalar);
    match exo_gemm::gemm_blis::env_isa_override() {
        Some(pinned) => assert_eq!(active, pinned, "EXO_ISA pin must win the selection"),
        None => {
            #[cfg(target_arch = "aarch64")]
            assert_eq!(active, IsaKind::Neon, "NEON is baseline on aarch64 and must be selected");
            #[cfg(target_arch = "x86_64")]
            if IsaKind::Avx2.available() {
                assert_eq!(active, IsaKind::Avx2, "AVX2 hosts must select the AVX2 chain");
            } else {
                assert_eq!(active, IsaKind::Scalar);
            }
        }
    }
    // The generator's chains report the same selection.
    let kernel = MicroKernelGenerator::new(neon_f32()).generate(4, 4).unwrap();
    assert_eq!(kernel.simd.isa(), active);
}

/// The native-tier probe the CI toolchain legs assert against. With an
/// answering C compiler (the ordinary runners), the registry kernel must
/// actually compile, load, and target the active ISA — the tier being
/// "available but silently declined" would hide a real regression. With
/// none (`EXO_CC=/nonexistent/cc` on the poisoned leg, or a genuinely
/// bare host), the tier must vanish without a single error surfacing:
/// `native_available()` is false, no artifact exists, and the Native
/// dispatch still answers — running the simd chain, bit for bit.
#[test]
fn the_native_tier_follows_the_toolchain_probe_and_never_errors() {
    assert_eq!(ExecBackend::default(), ExecBackend::Native, "Native is the top of the default ladder");
    assert_eq!(ExecBackend::Native.degraded(), Some(ExecBackend::Simd), "and degrades onto simd");
    let kernel = Arc::new(MicroKernelGenerator::new(neon_f32()).generate(8, 12).unwrap());
    match toolchain() {
        Some(tc) => {
            assert!(native_available());
            assert!(!tc.cc.is_empty() && !tc.version.is_empty(), "the probe records cc and version");
            let native = kernel.native_wait().unwrap_or_else(|| {
                panic!("toolchain `{}` answered but the 8x12 kernel did not compile natively", tc.cc)
            });
            assert_eq!(native.isa(), active_isa(), "the artifact targets the active ISA");
        }
        None => {
            assert!(!native_available());
            assert!(kernel.native_wait().is_none(), "no toolchain, no artifact — and no error either");
        }
    }
    // Both probe branches continue here: the dispatch handle and the
    // full driver under an explicit `Native` pin answer identically to
    // the simd pin, so a toolchain outage is invisible except in speed.
    let mut cases = Cases::new(0xaa07);
    let mut native = exo_kernel(Arc::clone(&kernel)).with_backend(ExecBackend::Native).dispatcher();
    let mut simd = exo_kernel_simd(Arc::clone(&kernel)).dispatcher();
    for kc in [0usize, 1, 7, 33] {
        let (a, b, c0) = packed_operands(8, 12, kc, &mut cases);
        let mut c_native = c0.clone();
        native.run(kc, &a, &b, &mut c_native).unwrap();
        let mut c_simd = c0.clone();
        simd.run(kc, &a, &b, &mut c_simd).unwrap();
        assert_eq!(c_native, c_simd, "kc={kc}: native dispatch vs simd dispatch");
    }
    let blocking = BlockingParams { mc: 16, kc: 8, nc: 24, mr: 8, nr: 12 };
    for &(m, n, k) in &[(37usize, 29usize, 23usize), (8, 60, 9)] {
        let a = Matrix::from_fn(m, k, |_, _| cases.f32_unit());
        let b = Matrix::from_fn(k, n, |_, _| cases.f32_unit());
        let c0 = Matrix::from_fn(m, n, |_, _| cases.f32_unit());
        let mut c_native = c0.clone();
        BlisGemm::new(blocking)
            .gemm_with(
                &exo_kernel(Arc::clone(&kernel)).with_backend(ExecBackend::Native),
                GemmProblem::new(a.view(), b.view(), c_native.view_mut()),
            )
            .unwrap();
        let mut c_simd = c0.clone();
        BlisGemm::new(blocking)
            .gemm_with(
                &exo_kernel_simd(Arc::clone(&kernel)),
                GemmProblem::new(a.view(), b.view(), c_simd.view_mut()),
            )
            .unwrap();
        assert_eq!(c_native.data, c_simd.data, "{m}x{n}x{k}: Native pin vs simd pin through the driver");
    }
}
