//! Seeded randomness, order statistics and the strided operand type every
//! workload is built from.

use std::time::Instant;

use gemm_blis::{GemmProblem, MatMut, MatRef};

/// SplitMix64: small, seedable, and identical on every platform, so one
/// seed always yields the same shapes, operands, check entries and
/// arrival times.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one independent `stream` of a run's `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Exponentially distributed gap of a Poisson process at `rate` per second.
    pub fn exp_gap_s(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// An operand value in `[-1, 1)`.
    pub fn value(&mut self) -> f32 {
        (self.unit() * 2.0 - 1.0) as f32
    }

    pub fn fill(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| self.value()).collect()
    }
}

/// The `p`-quantile (`0 <= p <= 1`) of unsorted samples, interpolating
/// linearly between order statistics.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One owned operand: a `rows x cols` view with explicit strides over a
/// buffer that may be wider than the view (padded leading dimension).
#[derive(Clone)]
pub struct Mat {
    pub data: Vec<f32>,
    pub rows: usize,
    pub cols: usize,
    pub rs: usize,
    pub cs: usize,
}

impl Mat {
    /// Row-major with leading dimension `ld >= cols`, filled from `rng`
    /// (padding included, so padding is never silently zero).
    pub fn row_major(rng: &mut Rng, rows: usize, cols: usize, ld: usize) -> Mat {
        assert!(ld >= cols);
        Mat { data: rng.fill(rows * ld), rows, cols, rs: ld, cs: 1 }
    }

    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }

    pub fn view(&self) -> MatRef<'_> {
        MatRef::with_strides(&self.data, self.rows, self.cols, self.rs, self.cs)
    }

    pub fn view_mut(&mut self) -> MatMut<'_> {
        MatMut::with_strides(&mut self.data, self.rows, self.cols, self.rs, self.cs)
    }
}

/// One GEMM problem `C = alpha * op(A) * op(B) + beta * C` with owned
/// operands. `c0` keeps the initial `C` of a `beta != 0` problem (empty
/// otherwise) so it can be re-run and re-checked.
#[derive(Clone)]
pub struct Gemm {
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub a: Mat,
    pub b: Mat,
    pub c: Mat,
    pub c0: Vec<f32>,
    pub trans_a: bool,
    pub trans_b: bool,
    pub alpha: f32,
    pub beta: f32,
}

impl Gemm {
    /// `op(A)(i, p)`.
    pub fn op_a(&self, i: usize, p: usize) -> f32 {
        if self.trans_a {
            self.a.get(p, i)
        } else {
            self.a.get(i, p)
        }
    }

    /// `op(B)(p, j)`.
    pub fn op_b(&self, p: usize, j: usize) -> f32 {
        if self.trans_b {
            self.b.get(j, p)
        } else {
            self.b.get(p, j)
        }
    }

    /// The initial value of `C(i, j)`.
    pub fn c0_at(&self, i: usize, j: usize) -> f32 {
        self.c0[i * self.c.rs + j * self.c.cs]
    }

    /// Puts `C` back to its initial value before re-running a `beta != 0`
    /// problem (a no-op for `beta = 0`, which never reads `C`).
    pub fn reset_c(&mut self) {
        if !self.c0.is_empty() {
            self.c.data.copy_from_slice(&self.c0);
        }
    }

    pub fn problem(&mut self) -> GemmProblem<'_> {
        let mut p = GemmProblem::new(self.a.view(), self.b.view(), self.c.view_mut())
            .alpha(self.alpha)
            .beta(self.beta);
        if self.trans_a {
            p = p.transpose_a();
        }
        if self.trans_b {
            p = p.transpose_b();
        }
        p
    }
}
