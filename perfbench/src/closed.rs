//! Closed loops: one caller, each pass starting when the previous one
//! returned (`resnet50`: one inference; `strided_1t`: one draw of strided
//! problems).

use std::time::{Duration, Instant};

use gemm_blis::GemmExecutor;

use crate::check;
use crate::trace;
use crate::util::{ms_since, Gemm, Rng};
use crate::workloads::STREAM_CHECKS;

/// Uniform check entries per problem per pass (plus one in the last row
/// and one in the last column).
const CHECK_ENTRIES: usize = 2;

pub struct PassTimes {
    /// Wall time of each pass: the sum of its GEMM calls, excluding the
    /// untimed `C` resets and output checks between them.
    pub pass_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs passes over `problems` through `exec` until `seconds` have passed
/// and at least `min_passes` were timed (but never past `cap`), after one
/// untimed warm-up pass. Every call's output, the warm-up's included, is
/// checked at seeded entries; a wrong entry or an error counts the call as
/// failed.
pub fn run(
    exec: &dyn GemmExecutor,
    problems: &mut [Gemm],
    seed: u64,
    seconds: f64,
    min_passes: usize,
    cap: Duration,
) -> PassTimes {
    let mut rng = Rng::new(seed, STREAM_CHECKS);
    let mut out = PassTimes { pass_ms: Vec::new(), attempted: 0, failed: 0 };
    let start = Instant::now();
    for pass in 0.. {
        let _pass_span = trace::span("perfbench.pass");
        let mut pass_ms = 0.0;
        for g in problems.iter_mut() {
            g.reset_c();
            let span = trace::span("exo-tune.TunedGemm.gemm");
            let t = Instant::now();
            let result = exec.gemm(g.problem());
            pass_ms += ms_since(t);
            drop(span);
            let entries = check::sample_entries(&mut rng, g, CHECK_ENTRIES);
            let ok = result.is_ok() && check::entries_ok(g, &entries);
            out.attempted += 1;
            out.failed += u64::from(!ok);
        }
        if pass == 0 {
            continue;
        }
        out.pass_ms.push(pass_ms);
        let elapsed = start.elapsed();
        if (elapsed.as_secs_f64() >= seconds && out.pass_ms.len() >= min_passes) || elapsed >= cap {
            break;
        }
    }
    out
}
