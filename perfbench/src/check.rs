//! Output checks against an independent f64 dot-product reference.
//!
//! An entry passes when `|C(i, j) - exact| <= gamma_(k+3) * (|alpha| *
//! sum_p |a_ip * b_pj| + |beta * C0(i, j)|)`, `gamma_n = n u / (1 - n u)`:
//! the standard bound of a k-deep f32 accumulation in any order, plus the
//! roundings of the alpha scaling, the beta term and the final add. A
//! fused multiply-add only removes roundings, so the bound holds for every
//! tier. `exo_codegen::fma_contraction_tol` is not added: it is a
//! tier-to-tier tolerance that grows as `k^2` and exceeds 5x the value at
//! `k = 4608`, which would pass a zeroed `C`.

use crate::util::{Gemm, Rng};

/// `(exact, bound)` for entry `(i, j)` of `g`, from its operands (`c0`
/// for `beta != 0`).
fn reference(g: &Gemm, i: usize, j: usize) -> (f64, f64) {
    let (mut dot, mut abs) = (0.0f64, 0.0f64);
    for p in 0..g.k {
        let t = g.op_a(i, p) as f64 * g.op_b(p, j) as f64;
        dot += t;
        abs += t.abs();
    }
    let (alpha, beta) = (g.alpha as f64, g.beta as f64);
    let c_term = if beta == 0.0 { 0.0 } else { beta * g.c0_at(i, j) as f64 };
    let exact = alpha * dot + c_term;
    let unit_roundoff = f32::EPSILON as f64 / 2.0;
    let depth = (g.k + 3) as f64 * unit_roundoff;
    let gamma = depth / (1.0 - depth);
    (exact, gamma * (alpha.abs() * abs + c_term.abs()))
}

/// Whether the stored `C(i, j)` is within the bound (NaN never is).
pub fn entry_ok(g: &Gemm, i: usize, j: usize) -> bool {
    let (exact, bound) = reference(g, i, j);
    (g.c.get(i, j) as f64 - exact).abs() <= bound
}

/// Seeded check entries for `g`: `count` uniform entries plus one in the
/// last row and one in the last column, where fringe tiles land.
pub fn sample_entries(rng: &mut Rng, g: &Gemm, count: usize) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> =
        (0..count).map(|_| (rng.range(0, g.m - 1), rng.range(0, g.n - 1))).collect();
    out.push((g.m - 1, rng.range(0, g.n - 1)));
    out.push((rng.range(0, g.m - 1), g.n - 1));
    out
}

pub fn entries_ok(g: &Gemm, entries: &[(usize, usize)]) -> bool {
    entries.iter().all(|&(i, j)| entry_ok(g, i, j))
}

pub fn all_ok(g: &Gemm) -> bool {
    (0..g.m).all(|i| (0..g.n).all(|j| entry_ok(g, i, j)))
}

/// The check's self-test: the program's product `g` passes both the full
/// and the sampled check, and the same product with one entry moved just
/// outside its bound fails each of them.
pub fn self_test(g: &Gemm, rng: &mut Rng) -> Result<(), String> {
    let entries = sample_entries(rng, g, 4);
    if !all_ok(g) || !entries_ok(g, &entries) {
        return Err("self-test: the program's product failed the check".into());
    }
    for (what, (i, j)) in [("full", (rng.range(0, g.m - 1), rng.range(0, g.n - 1))), ("sampled", entries[0])]
    {
        let mut planted = g.clone();
        let (exact, bound) = reference(g, i, j);
        let idx = i * planted.c.rs + j * planted.c.cs;
        planted.c.data[idx] = (exact + 2.0 * bound) as f32;
        let caught = match what {
            "full" => !all_ok(&planted),
            _ => !entries_ok(&planted, &entries),
        };
        if !caught {
            return Err(format!("self-test: the {what} check missed a wrong entry planted at ({i}, {j})"));
        }
    }
    Ok(())
}
