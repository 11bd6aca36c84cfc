//! The three problem mixes: shapes first (cheap, shared with the set-up
//! probes), then operands from the run's seed.

use dnn_models::{resnet50_table, vgg16_table};

use crate::util::{Gemm, Mat, Rng};

/// Workload names, as passed to `--workload`.
pub const WORKLOADS: [&str; 2] = ["resnet50", "strided_1t"];

/// Offered rates of the traced run's serve open loops, in jobs per second:
/// about a
/// third and two thirds of the serve mix's capacity — the highest offered
/// rate whose p99 meets `SERVE_P99_LIMIT_MS` without a growing backlog,
/// 1100 to 1500 jobs/s — measured on the reference host (AMD EPYC,
/// 2 vCPUs, AVX2+FMA, gcc 12.2).
pub const SERVE_LOW_RATE: f64 = 400.0;
pub const SERVE_HIGH_RATE: f64 = 800.0;

/// The p99 latency limit of the serve path (`max_rate`).
pub const SERVE_P99_LIMIT_MS: f64 = 5.0;

/// The `strided_1t` pass: one problem per `(log2 m, log2 n)` point of this
/// fixed spread of aspect ratios (square, tall, wide, skinny, deep,
/// shallow) inside `[48, 1536]`, with `k` set so every problem has the
/// same `m * n * k` volume. The shapes do not depend on the seed: a seeded
/// jitter of even 7% moved verdicts between register tiles and pass times
/// by a fifth, which would hide any change smaller than that.
const STRIDED_POINTS: [(f64, f64); 8] =
    [(8.58, 8.58), (10.0, 8.0), (8.0, 10.0), (6.2, 10.3), (10.3, 6.2), (7.9, 7.9), (9.5, 9.5), (6.8, 9.0)];
const STRIDED_VOLUME: f64 = 384.0 * 384.0 * 384.0;

/// Tiny fringe templates of the serve mix (`m` and `n` below every
/// register tile) and the shares of templates with `op(B) = T` and with
/// `beta = 1`.
const SERVE_TINY: usize = 16;
const SERVE_TRANS_B_SHARE: f64 = 0.2;
const SERVE_BETA1_SHARE: f64 = 0.1;

/// RNG streams: one per independent use of the seed.
const STREAM_SHAPES: u64 = 1;
pub const STREAM_OPERANDS: u64 = 2;
pub const STREAM_CHECKS: u64 = 3;
pub const STREAM_ARRIVALS: u64 = 4;

/// The shape (and layout flags) of one problem of a mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub trans_a: bool,
    pub trans_b: bool,
    pub beta1: bool,
}

impl Shape {
    fn dense(m: usize, n: usize, k: usize) -> Shape {
        Shape { m, n, k, trans_a: false, trans_b: false, beta1: false }
    }

    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }
}

/// The 53 IM2ROW GEMMs of one ResNet50 v1.5 inference at batch 1, in layer
/// order (Table I).
pub fn resnet50_shapes() -> Vec<Shape> {
    resnet50_table().instances().into_iter().map(|(_, s)| Shape::dense(s.m, s.n, s.k)).collect()
}

/// The `strided_1t` shapes (see [`STRIDED_POINTS`]). Every dimension is
/// odd, so none is a multiple of any register tile's MR or NR.
pub fn strided_shapes() -> Vec<Shape> {
    let odd = |v: usize| v | 1;
    STRIDED_POINTS
        .iter()
        .map(|&(lm, ln)| {
            let (m, n) = (lm.exp2().round() as usize, ln.exp2().round() as usize);
            let k = (STRIDED_VOLUME / (m * n) as f64).round() as usize;
            Shape { m: odd(m), n: odd(n), k: odd(k), trans_a: true, trans_b: true, beta1: true }
        })
        .collect()
}

/// The serve mix: every miniaturised ResNet50/VGG16 layer shape (`m <=
/// 128`, `n <= 256`, `k <= 768`, as the `gemm_service` example builds
/// them) twice, plus `SERVE_TINY` tiny fringe shapes, so the work of the
/// mix does not depend on the seed; the seed draws the tiny shapes and
/// which templates take `op(B) = T` or `beta = 1`.
pub fn serve_shapes(seed: u64) -> Vec<Shape> {
    let mut layers: Vec<(usize, usize, usize)> = resnet50_table()
        .unique_layers
        .iter()
        .chain(vgg16_table().unique_layers.iter())
        .map(|s| (s.m.min(128), s.n.min(256), s.k.min(768)))
        .collect();
    layers.sort_unstable();
    layers.dedup();
    let mut rng = Rng::new(seed, STREAM_SHAPES);
    let tiny: Vec<(usize, usize, usize)> =
        (0..SERVE_TINY).map(|_| (rng.range(1, 3), rng.range(1, 7), rng.range(1, 64))).collect();
    layers
        .iter()
        .chain(&layers)
        .chain(&tiny)
        .map(|&(m, n, k)| {
            let trans_b = rng.unit() < SERVE_TRANS_B_SHARE;
            let beta1 = rng.unit() < SERVE_BETA1_SHARE;
            Shape { m, n, k, trans_a: false, trans_b, beta1 }
        })
        .collect()
}

/// The shapes of a closed-loop workload's pass.
pub fn shapes(workload: &str) -> Vec<Shape> {
    match workload {
        "resnet50" => resnet50_shapes(),
        _ => strided_shapes(),
    }
}

/// Distinct `(m, n, k)` of a mix, in first-seen order.
pub fn distinct_dims(shapes: &[Shape]) -> Vec<(usize, usize, usize)> {
    let mut out: Vec<(usize, usize, usize)> = Vec::new();
    for s in shapes {
        if !out.contains(&(s.m, s.n, s.k)) {
            out.push((s.m, s.n, s.k));
        }
    }
    out
}

/// Materialises operands for `shapes`. Dense problems are row-major with
/// `alpha = 1`; `strided_1t` problems pad every leading dimension by a
/// seeded 1..=15 elements, store `op(A)` column-major (a `k x m` row-major
/// buffer under `op(A) = T`), store `B` as `n x k` under `op(B) = T`, and
/// use `alpha = 0.5`, `beta = 1`.
pub fn operands(shapes: &[Shape], seed: u64, strided: bool) -> Vec<Gemm> {
    let mut rng = Rng::new(seed, STREAM_OPERANDS);
    shapes
        .iter()
        .map(|s| {
            let mut pad = || if strided { rng.range(1, 15) } else { 0 };
            let (pa, pb, pc) = (pad(), pad(), pad());
            let a = if s.trans_a {
                Mat::row_major(&mut rng, s.k, s.m, s.m + pa)
            } else {
                Mat::row_major(&mut rng, s.m, s.k, s.k + pa)
            };
            let b = if s.trans_b {
                Mat::row_major(&mut rng, s.n, s.k, s.k + pb)
            } else {
                Mat::row_major(&mut rng, s.k, s.n, s.n + pb)
            };
            let c = Mat::row_major(&mut rng, s.m, s.n, s.n + pc);
            let c0 = if s.beta1 { c.data.clone() } else { Vec::new() };
            Gemm {
                m: s.m,
                n: s.n,
                k: s.k,
                a,
                b,
                c,
                c0,
                trans_a: s.trans_a,
                trans_b: s.trans_b,
                alpha: if strided { 0.5 } else { 1.0 },
                beta: if s.beta1 { 1.0 } else { 0.0 },
            }
        })
        .collect()
}
