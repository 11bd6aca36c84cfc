//! Per-layer measurements, each timed around the benchmark's own calls
//! into one crate's public functions.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use exo_aot::AotEngine;
use exo_tune::{TuneVerdict, TunedGemm};
use gemm_blis::packing::{a_panel, b_panel};
use gemm_blis::{
    active_isa, exo_kernel, exo_kernel_simd, exo_kernel_superword, pack_a_into, pack_b_into, BlisGemm,
    BlockingParams, ExecBackend, GemmError, GemmExecutor, KernelImpl, MatRef, ThreadPool,
};
use ukernel_gen::{GeneratedKernel, MicroKernelGenerator};

use crate::trace;
use crate::util::{median, ms_since, quantile, Gemm, Rng};
use crate::workloads::Shape;

/// A tuned executor whose every selected kernel has promoted to the
/// native tier, with the verdict of each distinct shape of its mix.
pub struct Prepared {
    pub tuned: TunedGemm,
    pub verdicts: Vec<TuneVerdict>,
}

impl Prepared {
    /// Plans every distinct `(m, n, k)` of `dims` and waits for each
    /// selected kernel's native build. Fails — the tier-honesty guard —
    /// unless every selected kernel promoted and dispatches natively: a
    /// run that silently measured the simd chain would measure a
    /// different program.
    pub fn new(dims: &[(usize, usize, usize)], threads: usize) -> Result<Prepared, String> {
        let tuned = TunedGemm::new().with_threads(threads);
        let mut verdicts = Vec::with_capacity(dims.len());
        for &(m, n, k) in dims {
            let _span = trace::span("exo-tune.TunedGemm.plan");
            verdicts.push(tuned.plan(m, n, k).map_err(|e| format!("plan {m}x{n}x{k}: {e}"))?);
        }
        let prepared = Prepared { tuned, verdicts };
        for v in &prepared.verdicts {
            let kernel = prepared.kernel(v)?;
            if kernel.native_wait().is_none() || kernel.native().is_none() {
                return Err(format!("tier guard: kernel {}x{} did not promote to native", v.mr, v.nr));
            }
            if prepared.kernel_impl(v)?.backend.effective() != ExecBackend::Native {
                return Err(format!("tier guard: kernel {}x{} does not dispatch natively", v.mr, v.nr));
            }
        }
        Ok(prepared)
    }

    pub fn kernel(&self, v: &TuneVerdict) -> Result<Arc<GeneratedKernel>, String> {
        self.tuned.tuner().kernel_for(v).map_err(|e| e.to_string())
    }

    pub fn kernel_impl(&self, v: &TuneVerdict) -> Result<KernelImpl, String> {
        self.tuned.tuner().kernel_impl_for(v).map_err(|e| e.to_string())
    }

    /// The verdict of shape `s` (planned by [`Prepared::new`]).
    pub fn verdict(&self, s: (usize, usize, usize)) -> &TuneVerdict {
        self.verdicts.iter().find(|v| (v.m, v.n, v.k) == s).expect("every shape of the mix was planned")
    }
}

/// Set-up layers: cold and warm `TunedGemm::plan`, kernel generation and
/// the AOT build of the selected kernels in a cold, then a warm directory.
pub struct SetupLayers {
    pub plan_cold_ms: f64,
    pub plan_warm_us: Vec<f64>,
    pub generator_invocations: u64,
    pub generate_ms: f64,
    pub build_ms: f64,
    pub load_ms: f64,
    pub c_source_bytes: usize,
    pub compiler_invocations: u64,
    pub builds_failed: u64,
    pub verified_promotions: u64,
    pub tiles: BTreeSet<(usize, usize)>,
}

pub fn setup_layers(
    dims: &[(usize, usize, usize)],
    aot_dir: &std::path::Path,
) -> Result<SetupLayers, String> {
    let tuned = TunedGemm::new();
    let t = Instant::now();
    let mut verdicts = Vec::new();
    for &(m, n, k) in dims {
        let _span = trace::span("exo-tune.TunedGemm.plan");
        verdicts.push(tuned.plan(m, n, k).map_err(|e| e.to_string())?);
    }
    let plan_cold_ms = ms_since(t);
    let generator_invocations = tuned.registry().generator_invocations();
    // Memoised plans take tens of nanoseconds, so each sample times a
    // batch of calls.
    const BATCH: usize = 100;
    let mut plan_warm_us = Vec::new();
    for _ in 0..50 {
        let _span = trace::span("exo-tune.TunedGemm.plan");
        let t = Instant::now();
        for &(m, n, k) in dims.iter().cycle().take(BATCH) {
            black_box(tuned.plan(m, n, k).map_err(|e| e.to_string())?);
        }
        plan_warm_us.push(t.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
    }
    let tiles: BTreeSet<(usize, usize)> = verdicts.iter().map(|v| (v.mr, v.nr)).collect();

    let generator = MicroKernelGenerator::new(tuned.tuner().isa().clone());
    let t = Instant::now();
    let mut kernels = Vec::new();
    for &(mr, nr) in &tiles {
        let _span = trace::span("ukernel-gen.MicroKernelGenerator.generate");
        kernels.push(generator.generate(mr, nr).map_err(|e| e.to_string())?);
    }
    let generate_ms = ms_since(t);

    let sources: Vec<_> = kernels.iter().filter_map(|k| k.superword.clone()).collect();
    let aot = |dir: &std::path::Path| -> Result<(f64, usize, exo_aot::AotStats), String> {
        let engine = AotEngine::with_dir(dir.to_path_buf());
        let t = Instant::now();
        let mut bytes = 0;
        for sw in &sources {
            let req = {
                let _span = trace::span("exo-aot.AotEngine.prepare");
                engine.prepare(sw, active_isa()).map_err(|e| e.to_string())?
            };
            bytes += req.c_source().len();
            let _span = trace::span("exo-aot.AotEngine.wait");
            engine.wait(&req).map_err(|e| format!("aot build: {e}"))?;
        }
        Ok((ms_since(t), bytes, engine.stats()))
    };
    let (build_ms, c_source_bytes, cold) = aot(aot_dir)?;
    let (load_ms, _, _) = aot(aot_dir)?;
    Ok(SetupLayers {
        plan_cold_ms,
        plan_warm_us,
        generator_invocations,
        generate_ms,
        build_ms,
        load_ms,
        c_source_bytes,
        compiler_invocations: cold.compiler_invocations,
        builds_failed: cold.builds_failed,
        verified_promotions: cold.verified_promotions,
        tiles,
    })
}

/// GFLOPS of one tile's native, simd and superword tiers on hot packed
/// panels at depth `kc` (median of short trials), after checking that the
/// native and simd tiers agree bit for bit on one call.
pub fn kernel_tiers(kernel: &Arc<GeneratedKernel>, kc: usize, rng: &mut Rng) -> Result<[f64; 3], String> {
    let (mr, nr) = (kernel.mr, kernel.nr);
    let a = rng.fill(kc * mr);
    let b = rng.fill(kc * nr);
    let tiers =
        [exo_kernel(kernel.clone()), exo_kernel_simd(kernel.clone()), exo_kernel_superword(kernel.clone())];
    let mut outputs = Vec::new();
    for imp in &tiers[..2] {
        let mut c = vec![0.0f32; mr * nr];
        imp.dispatcher().run(kc, &a, &b, &mut c).map_err(|e| e.to_string())?;
        outputs.push(c);
    }
    if outputs[0].iter().zip(&outputs[1]).any(|(x, y)| x.to_bits() != y.to_bits()) {
        return Err(format!("kernel {mr}x{nr}: native and simd tiers disagree bitwise"));
    }
    let flops_per_call = 2.0 * (mr * nr * kc) as f64;
    let mut out = [0.0; 3];
    for (slot, imp) in out.iter_mut().zip(&tiers) {
        let mut dispatch = imp.dispatcher();
        let mut c = vec![0.0f32; mr * nr];
        let mut trials = Vec::new();
        for _ in 0..5 {
            let _span = trace::span("gemm-blis.KernelDispatch.run");
            let (t, mut calls) = (Instant::now(), 0u64);
            while t.elapsed() < Duration::from_millis(25) {
                for _ in 0..64 {
                    dispatch.run(kc, black_box(&a), black_box(&b), &mut c).map_err(|e| e.to_string())?;
                }
                calls += 64;
            }
            trials.push(calls as f64 * flops_per_call / t.elapsed().as_secs_f64() / 1e9);
        }
        black_box(&c);
        *slot = median(&trials);
    }
    Ok(out)
}

/// Packing bandwidth of the four paths over a square `side x side` source
/// (at least 4x the LLC), packed block by block under `blocking`:
/// `[a_gather, a_copy, b_copy, b_gather]` in GB/s, counting the source
/// read plus the packed write.
pub fn pack_bandwidth(side: usize, blocking: BlockingParams, rng: &mut Rng) -> [f64; 4] {
    let src = rng.fill(side * side);
    let dense = MatRef::from_slice(&src, side, side);
    let BlockingParams { mc, kc, nc, mr, nr } = blocking;
    let mut buf = vec![0.0f32; (mc.div_ceil(mr) * mr).max(nc.div_ceil(nr) * nr) * kc];
    let mut sweep = |pack_a: bool, view: MatRef<'_>| -> f64 {
        let mut trials = Vec::new();
        for _ in 0..3 {
            let (t, mut bytes) = (Instant::now(), 0usize);
            let mut pc = 0;
            while pc < side {
                let kc_eff = kc.min(side - pc);
                let (step, tile) = if pack_a { (mc, mr) } else { (nc, nr) };
                let mut x = 0;
                while x < side {
                    let eff = step.min(side - x);
                    let len = eff.div_ceil(tile) * tile * kc_eff;
                    if pack_a {
                        let _span = trace::span("gemm-blis.pack_a_into");
                        pack_a_into(&mut buf[..len], view, x, pc, eff, kc_eff, mr, 1.0);
                    } else {
                        let _span = trace::span("gemm-blis.pack_b_into");
                        pack_b_into(&mut buf[..len], view, pc, x, kc_eff, eff, nr);
                    }
                    bytes += 4 * (eff * kc_eff + len);
                    x += eff;
                }
                pc += kc_eff;
            }
            black_box(&buf);
            trials.push(bytes as f64 / t.elapsed().as_secs_f64() / 1e9);
        }
        median(&trials)
    };
    [sweep(true, dense), sweep(true, dense.t()), sweep(false, dense), sweep(false, dense.t())]
}

/// Pack/kernel self time of one-thread passes, summed over a pass.
#[derive(Default, Clone, Copy)]
pub struct Split {
    pub pack_a_ms: f64,
    pub pack_b_ms: f64,
    pub kernel_ms: f64,
    pub kernel_calls: u64,
}

/// Replays the one-thread five-loop driver on `g` with the verdict's
/// kernel and blocking — `pack_b_into`, `pack_a_into` and
/// `KernelDispatch::run` called from here, in the driver's order, with
/// the driver's `C` staging — timing each call into `split`.
fn replay(
    g: &mut Gemm,
    kernel: &KernelImpl,
    blocking: BlockingParams,
    split: &mut Split,
) -> Result<(), GemmError> {
    let Gemm { m, n, k, a, b, c, trans_a, trans_b, alpha, beta, .. } = g;
    let (m, n, k, alpha, beta) = (*m, *n, *k, *alpha, *beta);
    let a = if *trans_a { a.view().t() } else { a.view() };
    let b = if *trans_b { b.view().t() } else { b.view() };
    let BlockingParams { mc, kc, nc, .. } = blocking;
    let (mr, nr) = (kernel.mr, kernel.nr);
    let mut a_buf = vec![0.0f32; mc.min(m).div_ceil(mr) * mr * kc.min(k)];
    let mut b_buf = vec![0.0f32; nc.min(n).div_ceil(nr) * nr * kc.min(k)];
    let mut tile = vec![0.0f32; mr * nr];
    let mut dispatch = kernel.dispatcher();
    let (rs, cs) = (c.rs, c.cs);
    let c = &mut c.data;
    let mut jc = 0;
    while jc < n {
        let nc_eff = nc.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc_eff = kc.min(k - pc);
            let first_k = pc == 0;
            let b_len = nc_eff.div_ceil(nr) * kc_eff * nr;
            {
                let _span = trace::span("gemm-blis.pack_b_into");
                let t = Instant::now();
                pack_b_into(&mut b_buf[..b_len], b, pc, jc, kc_eff, nc_eff, nr);
                split.pack_b_ms += ms_since(t);
            }
            let mut ic = 0;
            while ic < m {
                let mc_eff = mc.min(m - ic);
                let a_len = mc_eff.div_ceil(mr) * kc_eff * mr;
                {
                    let _span = trace::span("gemm-blis.pack_a_into");
                    let t = Instant::now();
                    pack_a_into(&mut a_buf[..a_len], a, ic, pc, mc_eff, kc_eff, mr, alpha);
                    split.pack_a_ms += ms_since(t);
                }
                let _span = trace::span("perfbench.micro_tiles");
                for jr in 0..nc_eff.div_ceil(nr) {
                    for ir in 0..mc_eff.div_ceil(mr) {
                        let rows = mr.min(mc_eff - ir * mr);
                        let cols = nr.min(nc_eff - jr * nr);
                        let at = |i: usize, j: usize| (ic + ir * mr + i) * rs + (jc + jr * nr + j) * cs;
                        for j in 0..cols {
                            for i in 0..rows {
                                let stored = c[at(i, j)];
                                tile[j * mr + i] = if !first_k || beta == 1.0 {
                                    stored
                                } else if beta == 0.0 {
                                    0.0
                                } else {
                                    beta * stored
                                };
                            }
                        }
                        let ap = a_panel(&a_buf[..a_len], ir, kc_eff, mr);
                        let bp = b_panel(&b_buf[..b_len], jr, kc_eff, nr);
                        let t = Instant::now();
                        dispatch.run(kc_eff, ap, bp, &mut tile)?;
                        split.kernel_ms += ms_since(t);
                        split.kernel_calls += 1;
                        for j in 0..cols {
                            for i in 0..rows {
                                c[at(i, j)] = tile[j * mr + i];
                            }
                        }
                    }
                }
                ic += mc_eff;
            }
            pc += kc_eff;
        }
        jc += nc_eff;
    }
    Ok(())
}

/// The driver layers of one closed-loop mix.
pub struct DriverLayers {
    pub split: Split,
    /// One-thread `BlisGemm::gemm` pass time, median.
    pub blis_1t_ms: f64,
    pub passes: usize,
}

/// Replays `passes` one-thread passes of `problems` and times as many
/// one-thread `BlisGemm::gemm` passes with the same kernels and blocking.
/// The replay guard: the first replay of every problem must produce `C`
/// bitwise equal to `BlisGemm::gemm`'s, or the split is rejected — it
/// would be timing different work.
pub fn driver_layers(
    prepared: &Prepared,
    problems: &mut [Gemm],
    passes: usize,
) -> Result<DriverLayers, String> {
    let plans: Vec<(KernelImpl, BlockingParams)> = problems
        .iter()
        .map(|g| {
            let v = prepared.verdict((g.m, g.n, g.k));
            prepared.kernel_impl(v).map(|imp| (imp, v.blocking()))
        })
        .collect::<Result<_, _>>()?;
    for (g, (imp, blocking)) in problems.iter_mut().zip(&plans) {
        g.reset_c();
        replay(g, imp, *blocking, &mut Split::default()).map_err(|e| e.to_string())?;
        let replayed = g.c.data.clone();
        g.reset_c();
        BlisGemm::new(*blocking).with_kernel(imp.clone()).gemm(g.problem()).map_err(|e| e.to_string())?;
        if replayed.iter().zip(&g.c.data).any(|(x, y)| x.to_bits() != y.to_bits()) {
            return Err(format!("replay guard: {}x{}x{} replay differs from BlisGemm::gemm", g.m, g.n, g.k));
        }
    }
    let mut splits = Vec::new();
    let mut blis = Vec::new();
    for _ in 0..passes {
        let mut split = Split::default();
        for (g, (imp, blocking)) in problems.iter_mut().zip(&plans) {
            g.reset_c();
            let _span = trace::span("perfbench.replay");
            replay(g, imp, *blocking, &mut split).map_err(|e| e.to_string())?;
        }
        splits.push(split);
        let mut pass_ms = 0.0;
        for (g, (imp, blocking)) in problems.iter_mut().zip(&plans) {
            g.reset_c();
            let driver = BlisGemm::new(*blocking).with_kernel(imp.clone());
            let _span = trace::span("gemm-blis.BlisGemm.gemm");
            let t = Instant::now();
            driver.gemm(g.problem()).map_err(|e| e.to_string())?;
            pass_ms += ms_since(t);
        }
        blis.push(pass_ms);
    }
    let med = |f: fn(&Split) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
    Ok(DriverLayers {
        split: Split {
            pack_a_ms: med(|s| s.pack_a_ms),
            pack_b_ms: med(|s| s.pack_b_ms),
            kernel_ms: med(|s| s.kernel_ms),
            kernel_calls: splits[0].kernel_calls,
        },
        blis_1t_ms: median(&blis),
        passes,
    })
}

/// One-thread over all-core pass time of `problems` through `TunedGemm`
/// (median of `passes` each), and the pool tasks one all-core pass runs.
pub fn thread_scaling(problems: &mut [Gemm], passes: usize) -> (f64, f64, usize) {
    let dims: Vec<_> = problems.iter().map(|g| (g.m, g.n, g.k)).collect();
    let mut pass = |exec: &TunedGemm| {
        let t = Instant::now();
        for g in problems.iter_mut() {
            g.reset_c();
            let _span = trace::span("exo-tune.TunedGemm.gemm");
            exec.gemm(g.problem()).expect("a planned problem runs");
        }
        ms_since(t)
    };
    let one = TunedGemm::new().with_threads(1);
    let all = TunedGemm::new().with_threads(0);
    for &(m, n, k) in &dims {
        let _ = one.plan(m, n, k);
        let _ = all.plan(m, n, k);
    }
    pass(&one);
    pass(&all);
    let one_ms = median(&(0..passes).map(|_| pass(&one)).collect::<Vec<_>>());
    let all_ms = median(&(0..passes).map(|_| pass(&all)).collect::<Vec<_>>());
    let before = ThreadPool::global().tasks_executed();
    pass(&all);
    let tasks = ThreadPool::global().tasks_executed() - before;
    (one_ms, all_ms, tasks)
}

/// Useful flops and computed memory traffic of one pass over `shapes`
/// under each shape's verdict blocking: operand reads, packed-buffer
/// writes (`A` repacked once per `nc` column block, `B` once per pass,
/// both padded to the register tile), and `C` read and written once per
/// `kc` depth block (the first block does not read `C` when `beta = 0`).
pub fn computed_traffic(shapes: &[Shape], verdict: impl Fn(&Shape) -> BlockingParams) -> (f64, f64) {
    let (mut flops, mut bytes) = (0.0, 0.0);
    for s in shapes {
        let BlockingParams { kc, nc, mr, nr, .. } = verdict(s);
        let (m, n, k) = (s.m as f64, s.n as f64, s.k as f64);
        let col_blocks = s.n.div_ceil(nc) as f64;
        let depth_blocks = s.k.div_ceil(kc) as f64;
        let a = m * k * col_blocks + (s.m.div_ceil(mr) * mr) as f64 * k * col_blocks;
        let b = k * n + k * (s.n.div_ceil(nr) * nr) as f64;
        let c_reads = if s.beta1 { depth_blocks } else { depth_blocks - 1.0 };
        let c = m * n * (c_reads + depth_blocks);
        flops += s.flops();
        bytes += 4.0 * (a + b + c);
    }
    (flops, bytes)
}

/// The `p`-quantile of `v`, or 0 when `v` is empty.
pub fn q_or_zero(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        quantile(v, p)
    }
}
