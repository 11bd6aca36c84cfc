//! The functional BLIS-like GEMM algorithm: the five loops of Fig. 1 around
//! the packing routines and a micro-kernel, computing
//! `C = alpha * op(A) * op(B) + beta * C` over strided views
//! ([`crate::GemmProblem`]).
//!
//! The BLAS contract is honored *inside* the blocked structure, never via
//! temporaries:
//!
//! * `op(A)`/`op(B)` reach the packing routines as stride-swapped views, so
//!   a transpose is a different gather walk, not a copy;
//! * `alpha` is folded into the packed `Ac` elements (one multiply in the
//!   pass that already touches every element once per k-block);
//! * `beta` is applied on the `C` write-back path of the **first** k-block
//!   only — later k-blocks accumulate — and `beta == 0` never reads `C`.
//!
//! The driver is allocation-free in its loops: a
//! [`crate::packing::PackArena`], the staged `C` tile, and a prove-once
//! [`KernelDispatch`] per worker are allocated once per GEMM (or once per
//! [`GemmRunner`]) and reused across every `(jc, pc, ic)` iteration. There
//! is one five-loop body, and threading ([`BlisGemm::with_threads`]) only
//! decides what it runs on: the longer of `m` and `n` is split into
//! tile-aligned ranges, and each worker of the shared pool solves its
//! range as a sub-problem — rows of `A` or columns of `B`, and the matching
//! window of `C` — on that body. Every `C` element is computed by exactly
//! one worker over the same `kc` blocks in the same order, so the result
//! is bit-for-bit identical for any thread count.
//!
//! Correctness for arbitrary (including fringe) problem sizes is the point;
//! with generated kernels the same entry point is also the fast path.
//! Modelled performance questions go through [`crate::model`] instead.

use crate::baselines::{neon_intrinsics_kernel, KernelDispatch, KernelImpl};
use crate::blocking::BlockingParams;
use crate::packing::{a_panel, b_panel, pack_a_into, pack_b_into, PackArena};
use crate::pool::{PoolJob, ThreadPool};
use crate::problem::{GemmExecutor, GemmProblem, GemmStats};
use crate::views::{MatMut, MatRef};
use crate::GemmError;

/// A dense row-major owned matrix: the convenience container of the
/// workspace's tests, benches, and examples.
///
/// `Matrix` is storage only — GEMM entry points take borrowed strided views
/// ([`MatRef`]/[`MatMut`]), which a `Matrix` produces zero-copy via
/// [`Matrix::view`] / [`Matrix::view_mut`] (or the `From` impls).
#[derive(Debug, Clone)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major element storage.
    pub data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix with `f(row, col)` values.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Element accessor.
    ///
    /// Both axes are checked in debug builds: an out-of-range `j` with an
    /// in-range `i` would otherwise silently alias into the next row of the
    /// flat storage instead of panicking.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows, "row index {i} out of {} rows", self.rows);
        debug_assert!(j < self.cols, "column index {j} out of {} columns", self.cols);
        self.data[i * self.cols + j]
    }

    /// Mutable element accessor (both axes checked in debug builds, see
    /// [`Matrix::get`]).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows, "row index {i} out of {} rows", self.rows);
        debug_assert!(j < self.cols, "column index {j} out of {} columns", self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a slice — hoists the row offset out of hot loops.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let w = self.cols;
        &mut self.data[i * w..(i + 1) * w]
    }

    /// A borrowed read-only view of the whole matrix.
    #[inline]
    pub fn view(&self) -> MatRef<'_> {
        MatRef::from_slice(&self.data, self.rows, self.cols)
    }

    /// A borrowed mutable view of the whole matrix.
    #[inline]
    pub fn view_mut(&mut self) -> MatMut<'_> {
        MatMut::from_slice(&mut self.data, self.rows, self.cols)
    }
}

impl<'a> From<&'a Matrix> for MatRef<'a> {
    fn from(m: &'a Matrix) -> Self {
        m.view()
    }
}

impl<'a> From<&'a mut Matrix> for MatMut<'a> {
    fn from(m: &'a mut Matrix) -> Self {
        m.view_mut()
    }
}

/// Reference triple-loop GEMM over dense matrices, the ground truth for the
/// dense differential tests in the workspace: `c += a * b`.
///
/// Row slices are hoisted out of the inner loop so the baseline pays no
/// per-element index arithmetic — it is run by every differential test, and
/// its wall-time bounds the whole suite's. The strided/transposed/
/// alpha-beta generalisation is [`crate::NaiveGemm`].
pub fn naive_gemm(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    assert_eq!(a.cols, b.rows);
    assert_eq!(a.rows, c.rows);
    assert_eq!(b.cols, c.cols);
    for i in 0..a.rows {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for (p, &aip) in a_row.iter().enumerate() {
            let b_row = b.row(p);
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += aip * bv;
            }
        }
    }
}

/// A raw strided window onto the `C` operand, shared across the driver's
/// workers.
///
/// Why raw pointers: with arbitrary strides the workers' blocks of `C` are
/// logically disjoint but *interleaved* in memory (e.g. the row ranges of a
/// column-major `C`, or the column ranges of a row-major one), so the safe
/// `split_at_mut` partition cannot express them. Each worker reads and
/// writes only the elements of its own [`RawMat::window`]; [`MatMut`]'s
/// constructor proved the stride map injective, so disjoint windows are
/// disjoint element sets and the shared pointer is race-free.
#[derive(Clone, Copy)]
struct RawMat {
    ptr: *mut f32,
    row_stride: usize,
    col_stride: usize,
    rows: usize,
    cols: usize,
}

// SAFETY: a `RawMat` is a pointer plus strides; moving one to a worker
// moves no element. Every access goes through the `unsafe` `load`/`store`,
// whose callers own the elements they touch.
unsafe impl Send for RawMat {}
// SAFETY: shared `RawMat`s are only dereferenced through `load`/`store`,
// and the driver hands each worker a disjoint window (see the type docs),
// so no element is reached from two threads.
unsafe impl Sync for RawMat {}

impl RawMat {
    fn of(c: &mut MatMut<'_>) -> Self {
        let (rows, cols) = (c.rows(), c.cols());
        let (ptr, row_stride, col_stride) = c.raw_parts();
        RawMat { ptr, row_stride, col_stride, rows, cols }
    }

    /// The non-empty `rows x cols` window whose top-left corner is
    /// `(row, col)`: the `C` of one worker's sub-problem.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or does not fit inside this one.
    fn window(self, row: usize, col: usize, rows: usize, cols: usize) -> Self {
        assert!(
            rows > 0 && cols > 0 && row + rows <= self.rows && col + cols <= self.cols,
            "window ({row}+{rows}, {col}+{cols}) of a {}x{} C",
            self.rows,
            self.cols
        );
        // SAFETY: `(row, col)` is an element of this non-empty window, so
        // the offset lands inside the storage the `MatMut` borrow covers.
        let ptr = unsafe { self.ptr.add(row * self.row_stride + col * self.col_stride) };
        RawMat { ptr, rows, cols, ..self }
    }

    /// # Safety
    ///
    /// `(i, j)` must be in bounds and the caller must own the element (no
    /// concurrent writer).
    #[inline]
    unsafe fn load(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        *self.ptr.add(i * self.row_stride + j * self.col_stride)
    }

    /// # Safety
    ///
    /// `(i, j)` must be in bounds and the caller must own the element (no
    /// concurrent reader or writer).
    #[inline]
    unsafe fn store(&self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        *self.ptr.add(i * self.row_stride + j * self.col_stride) = v;
    }
}

/// The BLIS-like GEMM driver of Fig. 1, parameterised by blocking values and
/// a micro-kernel.
///
/// As a [`GemmExecutor`] it dispatches its stored kernel (set with
/// [`BlisGemm::with_kernel`] / [`BlisGemm::for_kernel`]); the kernel-sweep
/// harnesses use [`BlisGemm::gemm_with`] to supply one per call.
#[derive(Debug, Clone)]
pub struct BlisGemm {
    /// Cache blocking parameters.
    pub blocking: BlockingParams,
    /// Maximum parallelism drawn from the shared worker pool
    /// ([`ThreadPool::global`]): the longer of `m` and `n` is split into up
    /// to this many sub-problems. `1` is fully sequential; `0` means "the
    /// pool's full width" (the machine, or the `EXO_THREADS` override).
    pub threads: usize,
    /// The micro-kernel the [`GemmExecutor`] entry point dispatches.
    kernel: KernelImpl,
}

impl BlisGemm {
    /// Creates a driver with the given blocking (single thread, and the
    /// hand-written NEON 8x12 kernel as the executor default — override
    /// with [`BlisGemm::with_kernel`]).
    pub fn new(blocking: BlockingParams) -> Self {
        BlisGemm { blocking, threads: 1, kernel: neon_intrinsics_kernel() }
    }

    /// Creates a driver around a micro-kernel, with blocking derived
    /// analytically from the cache hierarchy for the kernel's register tile
    /// — the constructor used when a registry (rather than a hard-coded
    /// shape) chooses the kernel.
    pub fn for_kernel(kernel: &KernelImpl, mem: &carmel_sim::CacheHierarchy) -> Self {
        BlisGemm::new(BlockingParams::analytical(mem, kernel.mr, kernel.nr, 4)).with_kernel(kernel.clone())
    }

    /// Sets the micro-kernel the [`GemmExecutor`] entry point dispatches.
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelImpl) -> Self {
        self.kernel = kernel;
        self
    }

    /// The micro-kernel the [`GemmExecutor`] entry point dispatches.
    pub fn kernel(&self) -> &KernelImpl {
        &self.kernel
    }

    /// Sets the worker-thread count (`0` = all cores). The longer of `m`
    /// and `n` is split into up to this many tile-aligned ranges, each
    /// solved as a sub-problem by the sequential five-loop body; the
    /// result is identical for any count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Creates an amortised sequential runner around this driver's stored
    /// kernel and blocking: the arena, staged `C` tile, and prove-once
    /// dispatch handle are allocated here, once, and reused by every
    /// [`GemmRunner::gemm`] call.
    pub fn runner(&self) -> GemmRunner<'_> {
        GemmRunner { driver: self, scratch: RunnerScratch::new(&self.kernel) }
    }

    /// Re-attaches detached runner scratch ([`GemmRunner::into_scratch`])
    /// to this driver: the warm arena, staged tile, and memoised dispatch
    /// proofs are reused when the scratch was built for this driver's
    /// kernel and backend, so a caller keeping scratch across batches pays
    /// the [`BlisGemm::runner`] costs once per kernel group instead of
    /// once per batch. Scratch from a *different* kernel or backend keeps
    /// only its warm buffers — the dispatch handle is rebuilt, so results
    /// never depend on where the scratch came from.
    pub fn runner_with(&self, scratch: RunnerScratch) -> GemmRunner<'_> {
        let RunnerScratch { dispatch, arena, mut c_tile } = scratch;
        let matches = {
            let built_for = dispatch.kernel();
            built_for.name == self.kernel.name
                && built_for.mr == self.kernel.mr
                && built_for.nr == self.kernel.nr
                && built_for.backend == self.kernel.backend
        };
        let dispatch = if matches { dispatch } else { self.kernel.dispatcher() };
        c_tile.resize(self.kernel.mr * self.kernel.nr, 0.0);
        GemmRunner { driver: self, scratch: RunnerScratch { dispatch, arena, c_tile } }
    }

    /// Solves a [`GemmProblem`] with an explicitly supplied micro-kernel
    /// (the stored one is ignored): the full-control entry point behind the
    /// [`GemmExecutor`] impl, used by harnesses that sweep kernels over one
    /// driver.
    ///
    /// Fringe tiles are zero-padded by the packing routines and the `C`
    /// tile is staged through a padded scratch tile, exactly as the
    /// monolithic library kernels do.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError::ShapeMismatch`] if the view dimensions are
    /// inconsistent, and propagates micro-kernel failures.
    pub fn gemm_with(&self, kernel: &KernelImpl, problem: GemmProblem<'_>) -> Result<GemmStats, GemmError> {
        solve(kernel, problem, |a, b, c, alpha, beta| self.fan_out(kernel, a, b, c, alpha, beta))
    }

    /// The parallel rule: split the longer of `m` and `n` (so workers
    /// duplicate only the packing of the smaller operand) into
    /// `min(threads, panels)` tile-aligned ranges, and solve each range's
    /// sub-problem — its rows of `A` or columns of `B`, and the matching
    /// window of `C` — with private scratch on the sequential five-loop
    /// body. Returns the worker count.
    ///
    /// Every `C` element lies in exactly one window and still sees the
    /// same `kc` blocks in the same order, so the result is bit-for-bit
    /// identical for any thread count.
    fn fan_out(
        &self,
        kernel: &KernelImpl,
        a: MatRef<'_>,
        b: MatRef<'_>,
        mut c: MatMut<'_>,
        alpha: f32,
        beta: f32,
    ) -> Result<usize, GemmError> {
        let (m, n, k) = (a.rows(), b.cols(), a.cols());
        let threads = match self.threads {
            0 => ThreadPool::global().workers(),
            t => t,
        };
        let split_rows = m >= n;
        let (extent, tile) = if split_rows { (m, kernel.mr) } else { (n, kernel.nr) };
        let ranges = tile_ranges(extent, tile, threads);
        let c_raw = RawMat::of(&mut c);
        let worker = |(start, len): (usize, usize)| {
            let (a, b, c) = if split_rows {
                (a.submatrix(start, 0, len, k), b, c_raw.window(start, 0, len, n))
            } else {
                (a, b.submatrix(0, start, k, len), c_raw.window(0, start, m, len))
            };
            // SAFETY: `c` is this worker's window of the exclusively
            // borrowed `C`; the ranges are disjoint, so no other worker
            // touches its elements.
            unsafe { RunnerScratch::new(kernel).sequential(&self.blocking, a, b, c, alpha, beta) }
        };
        // One range runs on the caller: a sequential GEMM is no pool job.
        if let [range] = ranges[..] {
            worker(range)?;
            return Ok(1);
        }
        let mut results: Vec<Result<(), GemmError>> = vec![Ok(()); ranges.len()];
        let jobs: Vec<PoolJob<'_>> = ranges
            .iter()
            .zip(results.iter_mut())
            .map(|(&range, result)| Box::new(move || *result = worker(range)) as PoolJob<'_>)
            .collect();
        ThreadPool::global().scope_run(jobs);
        results.into_iter().collect::<Result<(), GemmError>>()?;
        Ok(ranges.len())
    }
}

impl GemmExecutor for BlisGemm {
    fn gemm(&self, problem: GemmProblem<'_>) -> Result<GemmStats, GemmError> {
        self.gemm_with(&self.kernel, problem)
    }
}

/// An amortised sequential GEMM runner: one packing arena (grown to the
/// largest problem it has seen, at the driver's blocking), one staged `C`
/// tile, and one prove-once [`KernelDispatch`] handle, reused across every
/// problem passed to [`GemmRunner::gemm`].
///
/// This is the per-shard engine of the `exo-serve` batch executor: where
/// [`BlisGemm::gemm`] pays arena allocation and dispatch proof per call, a
/// runner pays them once per batch. Results are bit-identical to
/// [`BlisGemm::gemm`] for any thread count — same packing, same op order.
/// Built with [`BlisGemm::runner`].
pub struct GemmRunner<'d> {
    driver: &'d BlisGemm,
    scratch: RunnerScratch,
}

/// The owned state of a [`GemmRunner`] — packing arena, staged `C` tile,
/// and prove-once dispatch handle — detached from the driver borrow.
///
/// A runner borrows its [`BlisGemm`] for its whole life, which stops a
/// caller from keeping it warm across scopes that rebuild the driver (the
/// `exo-serve` batch executor builds one driver borrow per batch). The
/// scratch is the movable part: [`GemmRunner::into_scratch`] detaches it,
/// [`BlisGemm::runner_with`] re-attaches it, and the arena capacity plus
/// the memoised dispatch proofs survive the round trip. Each worker of a
/// threaded [`BlisGemm::gemm`] owns one, too.
pub struct RunnerScratch {
    dispatch: KernelDispatch,
    arena: PackArena,
    c_tile: Vec<f32>,
}

impl RunnerScratch {
    /// Fresh scratch for `kernel`: an empty arena that grows on first use.
    fn new(kernel: &KernelImpl) -> Self {
        RunnerScratch {
            dispatch: kernel.dispatcher(),
            arena: PackArena::empty(),
            c_tile: vec![0.0f32; kernel.mr * kernel.nr],
        }
    }

    /// The sequential five-loop body: loops L1/L2 packing `Bc` blocks,
    /// then every `ic` block through [`run_ic_block`]. Every path of the
    /// driver ends here, so all of them produce identical bits by
    /// construction.
    ///
    /// # Safety
    ///
    /// `c` must point to live storage covering its declared extent, with no
    /// other thread accessing any of its elements during the call.
    unsafe fn sequential(
        &mut self,
        blocking: &BlockingParams,
        a: MatRef<'_>,
        b: MatRef<'_>,
        c: RawMat,
        alpha: f32,
        beta: f32,
    ) -> Result<(), GemmError> {
        let (m, n, k) = (a.rows(), b.cols(), a.cols());
        let BlockingParams { mc, kc, nc, .. } = *blocking;
        let (mr, nr) = (self.dispatch.kernel().mr, self.dispatch.kernel().nr);
        // Panels are shaped by the *kernel's* register tile, which the
        // blocking's mr/nr need not match (callers may pair a generic
        // blocking with any kernel), so the arena is sized for the tile
        // that will actually be packed.
        self.arena.ensure_for_problem(&BlockingParams { mr, nr, ..*blocking }, m, n, k);
        let (a_buf, b_buf) = self.arena.buffers();
        let mut jc = 0;
        while jc < n {
            let nc_eff = nc.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kc_eff = kc.min(k - pc);
                let b_len = nc_eff.div_ceil(nr) * kc_eff * nr;
                pack_b_into(&mut b_buf[..b_len], b, pc, jc, kc_eff, nc_eff, nr);
                let mut ic = 0;
                while ic < m {
                    let mc_eff = mc.min(m - ic);
                    // SAFETY: forwarded from the caller — exclusive C access.
                    unsafe {
                        run_ic_block(
                            &mut self.dispatch,
                            a,
                            ic,
                            pc,
                            mc_eff,
                            kc_eff,
                            &b_buf[..b_len],
                            nc_eff,
                            jc,
                            c,
                            alpha,
                            beta,
                            pc == 0,
                            a_buf,
                            &mut self.c_tile,
                        )?;
                    }
                    ic += mc_eff;
                }
                pc += kc_eff;
            }
            jc += nc_eff;
        }
        Ok(())
    }
}

impl GemmRunner<'_> {
    /// Detaches the runner's owned scratch from the driver borrow, for
    /// re-attachment (to the same or an equivalent driver) with
    /// [`BlisGemm::runner_with`].
    pub fn into_scratch(self) -> RunnerScratch {
        self.scratch
    }

    /// Solves one problem on the calling thread with the reused scratch.
    ///
    /// # Errors
    ///
    /// Same contract as [`BlisGemm::gemm`]: [`GemmError::ShapeMismatch`]
    /// for inconsistent dimensions, micro-kernel failures propagated.
    pub fn gemm(&mut self, problem: GemmProblem<'_>) -> Result<GemmStats, GemmError> {
        let (driver, scratch) = (self.driver, &mut self.scratch);
        solve(&driver.kernel, problem, |a, b, mut c, alpha, beta| {
            // SAFETY: `c` is the problem's exclusively borrowed C view; this
            // sequential call is its only user.
            unsafe { scratch.sequential(&driver.blocking, a, b, RawMat::of(&mut c), alpha, beta)? };
            Ok(1)
        })
    }
}

/// The prologue every entry point shares: checks the dimensions, applies
/// `op(A)`/`op(B)`, settles the degenerate problems (nothing to do for an
/// empty `C`; `C = beta * C` when `k = 0` or `alpha = 0`), and otherwise
/// hands the operands to `blocked`, which returns its worker count.
fn solve<'p>(
    kernel: &KernelImpl,
    problem: GemmProblem<'p>,
    blocked: impl FnOnce(MatRef<'p>, MatRef<'p>, MatMut<'p>, f32, f32) -> Result<usize, GemmError>,
) -> Result<GemmStats, GemmError> {
    let (m, n, k) = problem.dims()?;
    let a = problem.op_a.apply(problem.a);
    let b = problem.op_b.apply(problem.b);
    let (alpha, beta) = (problem.alpha, problem.beta);
    let mut c = problem.c;
    let threads = if m == 0 || n == 0 {
        1
    } else if k == 0 || alpha == 0.0 {
        // Degenerate product: C = beta * C, honoring beta == 0 as "never
        // read".
        scale_c(&mut c, beta);
        1
    } else {
        blocked(a, b, c, alpha, beta)?
    };
    Ok(GemmStats {
        m,
        n,
        k,
        flop_count: GemmStats::flops_for(m, n, k, alpha),
        kernel: kernel.name.clone(),
        threads,
        pool_workers: if threads > 1 { ThreadPool::global().workers() } else { 0 },
        batched: false,
        degraded: false,
    })
}

/// The worker ranges of a split axis: `min(threads, panels)` consecutive
/// `(start, len)` ranges of `extent`, each a whole number of `tile`-wide
/// panels (only the last may end in the fringe panel), with panel counts
/// differing by at most one.
fn tile_ranges(extent: usize, tile: usize, threads: usize) -> Vec<(usize, usize)> {
    let panels = extent.div_ceil(tile);
    let workers = threads.clamp(1, panels);
    let (base, extra) = (panels / workers, panels % workers);
    let mut start = 0;
    (0..workers)
        .map(|w| {
            let len = ((base + usize::from(w < extra)) * tile).min(extent - start);
            start += len;
            (start - len, len)
        })
        .collect()
}

/// `C = beta * C` in place, honoring `beta == 0` as "never read".
fn scale_c(c: &mut MatMut<'_>, beta: f32) {
    if beta == 1.0 {
        return;
    }
    for i in 0..c.rows() {
        for j in 0..c.cols() {
            let v = if beta == 0.0 { 0.0 } else { beta * c.get(i, j) };
            c.set(i, j, v);
        }
    }
}

/// The staged value of one `C` element: `beta` belongs to the first k-block
/// only, and `beta == 0` means the stored value is never trusted (it may be
/// NaN garbage) — the tile starts from zero instead.
#[inline]
fn staged_c_value(stored: f32, beta: f32, first_k_block: bool) -> f32 {
    if !first_k_block || beta == 1.0 {
        stored
    } else if beta == 0.0 {
        0.0
    } else {
        beta * stored
    }
}

/// Loops L4/L5 for one `ic` block: pack the `op(A)` block (scaled by
/// `alpha`) into `a_buf`, then run the micro-kernel over every `(jr, ir)`
/// tile, staging each (possibly fringe) `C` tile through `c_tile` and
/// applying `beta` on the first k-block's staging load.
///
/// # Safety
///
/// `c` must point to live storage covering its declared `rows x cols`
/// extent, and no other thread may concurrently access any `C` element with
/// row in `[ic, ic + mc_eff)` — the driver guarantees this by handing each
/// worker a disjoint window of `C`.
#[allow(clippy::too_many_arguments)]
unsafe fn run_ic_block(
    dispatch: &mut KernelDispatch,
    a: MatRef<'_>,
    ic: usize,
    pc: usize,
    mc_eff: usize,
    kc_eff: usize,
    packed_b: &[f32],
    nc_eff: usize,
    jc: usize,
    c: RawMat,
    alpha: f32,
    beta: f32,
    first_k_block: bool,
    a_buf: &mut [f32],
    c_tile: &mut [f32],
) -> Result<(), GemmError> {
    let (mr, nr) = (dispatch.kernel().mr, dispatch.kernel().nr);
    let a_len = mc_eff.div_ceil(mr) * kc_eff * mr;
    pack_a_into(&mut a_buf[..a_len], a, ic, pc, mc_eff, kc_eff, mr, alpha);
    let packed_a = &a_buf[..a_len];

    let n_panels = nc_eff.div_ceil(nr);
    let m_panels = mc_eff.div_ceil(mr);
    for jr in 0..n_panels {
        for ir in 0..m_panels {
            let ap = a_panel(packed_a, ir, kc_eff, mr);
            let bp = b_panel(packed_b, jr, kc_eff, nr);
            let rows = mr.min(mc_eff - ir * mr);
            let cols = nr.min(nc_eff - jr * nr);
            // Stage the C tile. Fringe padding positions receive only
            // zero-padded products from the kernel and are never copied
            // back, so the reused scratch needs no re-zeroing. On the first
            // k-block the staged values carry beta (and beta == 0 loads
            // nothing at all — C may hold NaN garbage).
            if first_k_block && beta == 0.0 {
                for j in 0..cols {
                    c_tile[j * mr..j * mr + rows].fill(0.0);
                }
            } else {
                for j in 0..cols {
                    let col0 = jc + jr * nr + j;
                    let tile_col = &mut c_tile[j * mr..j * mr + rows];
                    for (i, t) in tile_col.iter_mut().enumerate() {
                        *t = staged_c_value(c.load(ic + ir * mr + i, col0), beta, first_k_block);
                    }
                }
            }
            dispatch.run(kc_eff, ap, bp, c_tile)?;
            for j in 0..cols {
                let col0 = jc + jr * nr + j;
                let tile_col = &c_tile[j * mr..j * mr + rows];
                for (i, t) in tile_col.iter().enumerate() {
                    c.store(ic + ir * mr + i, col0, *t);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{blis_assembly_kernel, exo_kernel, neon_intrinsics_kernel, reference_kernel};
    use crate::problem::NaiveGemm;
    use exo_isa::neon_f32;
    use std::sync::Arc;
    use ukernel_gen::MicroKernelGenerator;

    /// A runner of `driver` that has already solved a problem larger than
    /// `m x n x k` in every dimension, so its arena and staged tile hold
    /// unrelated values when the caller's problem arrives.
    fn dirty_runner(driver: &BlisGemm, m: usize, n: usize, k: usize) -> GemmRunner<'_> {
        let (m, n, k) = (m + 9, n + 13, k + 7);
        let a = Matrix::from_fn(m, k, |i, j| ((i * 13 + j * 5) % 19) as f32 - 9.0);
        let b = Matrix::from_fn(k, n, |i, j| ((i * 7 + j * 11) % 23) as f32 - 11.0);
        let mut c = Matrix::from_fn(m, n, |i, j| ((i + j) % 29) as f32);
        let mut runner = driver.runner();
        runner.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut()).alpha(3.0).beta(-2.0)).unwrap();
        runner
    }

    fn check_gemm(kernel: &KernelImpl, m: usize, n: usize, k: usize) {
        let a = Matrix::from_fn(m, k, |i, j| ((i * 7 + j * 3 + 1) % 13) as f32 * 0.25 - 1.0);
        let b = Matrix::from_fn(k, n, |i, j| ((i * 5 + j * 11 + 2) % 17) as f32 * 0.125 - 1.0);
        let mut c = Matrix::from_fn(m, n, |i, j| ((i + j) % 3) as f32);
        let mut c_ref = c.clone();
        let c_start = c.clone();
        // Use small blocking values so every loop level is exercised even on
        // small problems.
        let blocking = BlockingParams { mc: 24, kc: 16, nc: 36, mr: kernel.mr, nr: kernel.nr };
        let stats = BlisGemm::new(blocking)
            .gemm_with(kernel, GemmProblem::new(a.view(), b.view(), c.view_mut()))
            .unwrap();
        assert_eq!((stats.m, stats.n, stats.k), (m, n, k));
        naive_gemm(&a, &b, &mut c_ref);
        for idx in 0..c.data.len() {
            assert!(
                (c.data[idx] - c_ref.data[idx]).abs() < 1e-3,
                "{} mismatch at {idx}: {} vs {}",
                kernel.name,
                c.data[idx],
                c_ref.data[idx]
            );
        }
        // A runner reused after a larger problem and a threaded run must
        // agree with the fresh call bit-for-bit: same packing, same op
        // order, disjoint per-thread row blocks.
        let driver = BlisGemm::new(blocking).with_kernel(kernel.clone());
        let mut runner = dirty_runner(&driver, m, n, k);
        let mut c_reused = c_start.clone();
        runner.gemm(GemmProblem::new(a.view(), b.view(), c_reused.view_mut())).unwrap();
        assert_eq!(c.data, c_reused.data, "{}: fresh call vs reused dirty runner", kernel.name);
        let mut c_threaded = c_start;
        BlisGemm::new(blocking)
            .with_threads(4)
            .gemm_with(kernel, GemmProblem::new(a.view(), b.view(), c_threaded.view_mut()))
            .unwrap();
        assert_eq!(c.data, c_threaded.data, "{}: threads=4 vs threads=1", kernel.name);
    }

    #[test]
    fn blis_algorithm_matches_naive_for_exact_tiles() {
        check_gemm(&neon_intrinsics_kernel(), 48, 48, 32);
    }

    #[test]
    fn blis_algorithm_handles_fringe_tiles() {
        check_gemm(&blis_assembly_kernel(true), 50, 45, 23);
        check_gemm(&reference_kernel(3, 5), 17, 11, 9);
    }

    #[test]
    fn generated_exo_kernels_drop_into_the_algorithm() {
        let generator = MicroKernelGenerator::new(neon_f32());
        let k8x8 = exo_kernel(Arc::new(generator.generate(8, 8).unwrap()));
        check_gemm(&k8x8, 40, 40, 24);
        let k1x12 = exo_kernel(Arc::new(generator.generate(1, 12).unwrap()));
        check_gemm(&k1x12, 13, 36, 20);
    }

    #[test]
    fn executor_entry_point_uses_the_stored_kernel() {
        let generator = MicroKernelGenerator::new(neon_f32());
        let kernel = exo_kernel(Arc::new(generator.generate(8, 8).unwrap()));
        let driver = BlisGemm::for_kernel(&kernel, &carmel_sim::CacheHierarchy::carmel());
        let a = Matrix::from_fn(20, 12, |i, j| (i * 3 + j) as f32 * 0.125 - 1.0);
        let b = Matrix::from_fn(12, 9, |i, j| (i + j * 2) as f32 * 0.25 - 0.5);
        let mut c = Matrix::zeros(20, 9);
        let mut c_ref = Matrix::zeros(20, 9);
        let stats = driver.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut())).unwrap();
        assert_eq!(stats.kernel, "EXO 8x8");
        naive_gemm(&a, &b, &mut c_ref);
        for idx in 0..c.data.len() {
            assert!((c.data[idx] - c_ref.data[idx]).abs() < 1e-3);
        }
    }

    #[test]
    fn transposes_alpha_and_beta_match_the_strided_reference() {
        // C = alpha * A^T * B^T + beta * C, through the blocked driver vs
        // the naive strided reference.
        let (m, n, k) = (23usize, 17usize, 11usize);
        let at = Matrix::from_fn(k, m, |i, j| ((i * 5 + j * 7 + 3) % 11) as f32 * 0.25 - 1.0);
        let bt = Matrix::from_fn(n, k, |i, j| ((i * 3 + j * 13 + 1) % 7) as f32 * 0.5 - 1.5);
        let c0 = Matrix::from_fn(m, n, |i, j| ((i * 2 + j) % 5) as f32 * 0.5 - 1.0);
        let kernel = neon_intrinsics_kernel();
        let blocking = BlockingParams { mc: 8, kc: 4, nc: 12, mr: kernel.mr, nr: kernel.nr };
        fn build<'x>(at: &'x Matrix, bt: &'x Matrix, c: MatMut<'x>) -> GemmProblem<'x> {
            GemmProblem::new(at.view(), bt.view(), c).transpose_a().transpose_b().alpha(-0.5).beta(0.75)
        }
        let mut c_blis = c0.clone();
        BlisGemm::new(blocking).gemm_with(&kernel, build(&at, &bt, c_blis.view_mut())).unwrap();
        let mut c_ref = c0.clone();
        NaiveGemm.gemm(build(&at, &bt, c_ref.view_mut())).unwrap();
        for idx in 0..c_blis.data.len() {
            assert!(
                (c_blis.data[idx] - c_ref.data[idx]).abs() < 1e-3,
                "mismatch at {idx}: {} vs {}",
                c_blis.data[idx],
                c_ref.data[idx]
            );
        }
        // And a runner whose arena a larger problem dirtied agrees
        // bit-for-bit with the fresh call.
        let driver = BlisGemm::new(blocking).with_kernel(kernel);
        let mut c_reused = c0.clone();
        dirty_runner(&driver, m, n, k).gemm(build(&at, &bt, c_reused.view_mut())).unwrap();
        assert_eq!(c_blis.data, c_reused.data);
    }

    #[test]
    fn beta_zero_overwrites_nan_garbage() {
        let a = Matrix::from_fn(10, 6, |i, j| (i + j) as f32 * 0.25);
        let b = Matrix::from_fn(6, 7, |i, j| (i * 2 + j) as f32 * 0.125);
        let mut c = Matrix::from_fn(10, 7, |_, _| f32::NAN);
        let kernel = neon_intrinsics_kernel();
        let blocking = BlockingParams { mc: 4, kc: 4, nc: 4, mr: kernel.mr, nr: kernel.nr };
        BlisGemm::new(blocking)
            .gemm_with(&kernel, GemmProblem::new(a.view(), b.view(), c.view_mut()).beta(0.0))
            .unwrap();
        assert!(c.data.iter().all(|v| v.is_finite()), "beta = 0 must never read C");
    }

    #[test]
    fn degenerate_k_and_alpha_zero_scale_c_only() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        let mut c = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f32);
        let gemm = BlisGemm::new(BlockingParams::carmel_defaults(8, 12));
        gemm.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut()).beta(2.0)).unwrap();
        assert_eq!(c.get(2, 3), 22.0, "k = 0 still applies beta");
        let a = Matrix::from_fn(3, 5, |_, _| f32::NAN);
        let b = Matrix::from_fn(5, 4, |_, _| f32::NAN);
        gemm.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut()).alpha(0.0).beta(0.5)).unwrap();
        assert_eq!(c.get(2, 3), 11.0, "alpha = 0 must not read A or B");
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let a = Matrix::zeros(4, 4);
        let b = Matrix::zeros(5, 4);
        let mut c = Matrix::zeros(4, 4);
        let gemm = BlisGemm::new(BlockingParams::carmel_defaults(8, 12));
        assert!(matches!(
            gemm.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut())),
            Err(GemmError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn empty_problems_are_a_no_op() {
        let a = Matrix::zeros(0, 0);
        let b = Matrix::zeros(0, 0);
        let mut c = Matrix::zeros(0, 0);
        let gemm = BlisGemm::new(BlockingParams::carmel_defaults(8, 12));
        gemm.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut())).unwrap();
    }

    #[test]
    fn blocking_tile_need_not_match_the_kernel_tile() {
        // The public API lets a generic blocking drive any kernel; the
        // arena must size its panels from the kernel's tile, not the
        // blocking's, or packing overruns the buffer.
        let kernel = reference_kernel(16, 32);
        let blocking = BlockingParams { mc: 24, kc: 16, nc: 36, mr: 8, nr: 12 };
        let a = Matrix::from_fn(13, 9, |i, j| (i * 2 + j) as f32 * 0.25);
        let b = Matrix::from_fn(9, 13, |i, j| (i + j * 3) as f32 * 0.125);
        let mut c = Matrix::zeros(13, 13);
        let mut c_ref = Matrix::zeros(13, 13);
        BlisGemm::new(blocking)
            .with_threads(3)
            .gemm_with(&kernel, GemmProblem::new(a.view(), b.view(), c.view_mut()))
            .unwrap();
        naive_gemm(&a, &b, &mut c_ref);
        for idx in 0..c.data.len() {
            assert!((c.data[idx] - c_ref.data[idx]).abs() < 1e-3);
        }
    }

    #[test]
    fn threaded_runs_split_the_longer_side_bit_identically() {
        // (what, m, n, k): wide-short and tall-skinny problems span many
        // jc or ic blocks; the last fits one mc x nc block (ResNet50's
        // stage-5 class), so only a sub-block split can thread it.
        let shapes = [("wide-short", 8, 200, 33), ("tall-skinny", 200, 8, 33), ("one block", 25, 90, 40)];
        let kernel = neon_intrinsics_kernel();
        let blocking = BlockingParams { mc: 32, kc: 16, nc: 96, mr: kernel.mr, nr: kernel.nr };
        // C layouts over one buffer: (what, buffer length, view of it).
        type Layout = (&'static str, fn(usize, usize) -> usize, fn(&mut [f32], usize, usize) -> MatMut<'_>);
        let layouts: [Layout; 3] = [
            ("row-major", |m, n| m * n, |d, m, n| MatMut::from_slice(d, m, n)),
            ("col-major", |m, n| m * n, |d, m, n| MatMut::col_major(d, m, n)),
            (
                "padded submatrix",
                |m, n| (m + 3) * (n + 5),
                |d, m, n| MatMut::with_strides(d, m + 3, n + 2, n + 5, 1).submatrix(2, 1, m, n),
            ),
        ];
        for (what, m, n, k) in shapes {
            let a = Matrix::from_fn(m, k, |i, j| ((i * 5 + j * 7 + 1) % 11) as f32 * 0.25 - 1.0);
            let b = Matrix::from_fn(k, n, |i, j| ((i * 3 + j * 13 + 2) % 17) as f32 * 0.125 - 1.0);
            let (extent, tile) = if m >= n { (m, kernel.mr) } else { (n, kernel.nr) };
            for (layout, len, view) in layouts {
                let c0: Vec<f32> = (0..len(m, n)).map(|x| (x % 5) as f32 * 0.5).collect();
                let run = |threads: usize| {
                    let mut c = c0.clone();
                    let problem =
                        GemmProblem::new(a.view(), b.view(), view(&mut c, m, n)).alpha(0.5).beta(1.5);
                    let stats =
                        BlisGemm::new(blocking).with_threads(threads).gemm_with(&kernel, problem).unwrap();
                    (c, stats.threads)
                };
                let (c_seq, one) = run(1);
                assert_eq!(one, 1);
                for threads in [2usize, 3, 8] {
                    let (c_par, used) = run(threads);
                    assert_eq!(c_seq, c_par, "{what}, {layout} C, {threads} threads");
                    assert_eq!(used, threads.min(extent.div_ceil(tile)), "{what}, {layout} C: worker count");
                }
                // And it is actually correct, not just self-consistent.
                let mut c_ref = c0.clone();
                NaiveGemm
                    .gemm(GemmProblem::new(a.view(), b.view(), view(&mut c_ref, m, n)).alpha(0.5).beta(1.5))
                    .unwrap();
                for (idx, (x, y)) in c_seq.iter().zip(&c_ref).enumerate() {
                    assert!((x - y).abs() < 1e-3, "{what}, {layout} C at {idx}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn zero_threads_means_all_cores() {
        let kernel = neon_intrinsics_kernel();
        let a = Matrix::from_fn(40, 16, |i, j| (i + j) as f32 * 0.25);
        let b = Matrix::from_fn(16, 24, |i, j| (i * 2 + j) as f32 * 0.125);
        let mut c = Matrix::zeros(40, 24);
        let mut c_ref = Matrix::zeros(40, 24);
        let blocking = BlockingParams { mc: 8, kc: 8, nc: 24, mr: kernel.mr, nr: kernel.nr };
        BlisGemm::new(blocking)
            .with_threads(0)
            .gemm_with(&kernel, GemmProblem::new(a.view(), b.view(), c.view_mut()))
            .unwrap();
        naive_gemm(&a, &b, &mut c_ref);
        for idx in 0..c.data.len() {
            assert!((c.data[idx] - c_ref.data[idx]).abs() < 1e-3);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "column index")]
    fn matrix_accessors_check_both_axes_in_debug_builds() {
        // 3 x 4: (0, 5) used to alias silently into row 1 (index 5 of the
        // flat storage); the per-axis assert must catch it.
        let m = Matrix::zeros(3, 4);
        let _ = m.get(0, 5);
    }
}
