//! The serve path: Poisson open loops into a `GemmService`, and the
//! closed bursts that compare per-call, batched and queued execution.
//!
//! Every job is a copy of one of the mix's templates. Each template's
//! output is checked once in full against the f64 reference; every later
//! result of that template must then match the checked one bit for bit
//! (the stack is deterministic across batching, threads and tiers), and
//! any result that does not is checked in full again.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use exo_serve::{
    CachedTunedGemm, GemmBatch, GemmBatchExecutor, GemmJob, GemmService, OwnedMat, ServiceStats,
};
use exo_tune::TunedGemm;
use gemm_blis::GemmExecutor;

use crate::check;
use crate::trace;
use crate::util::{median, quantile, Gemm, Mat, Rng};
use crate::workloads::STREAM_ARRIVALS;

/// How long before a job's due time the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(200);

/// The serve mix with its checked outputs.
pub struct Mix {
    pub templates: Vec<Gemm>,
    /// `C` of each template as first computed and checked in full.
    pub expected: Vec<Vec<f32>>,
}

fn owned(m: &Mat) -> OwnedMat {
    OwnedMat::with_layout(m.data.clone(), m.rows, m.cols, m.rs, m.cs, 0)
}

/// A fresh job from template `g`.
pub fn job(g: &Gemm) -> GemmJob {
    let c = if g.c0.is_empty() {
        OwnedMat::zeros(g.m, g.n)
    } else {
        OwnedMat::with_layout(g.c0.clone(), g.m, g.n, g.c.rs, g.c.cs, 0)
    };
    let mut job = GemmJob::new(owned(&g.a), owned(&g.b), c).alpha(g.alpha).beta(g.beta);
    if g.trans_a {
        job = job.transpose_a();
    }
    if g.trans_b {
        job = job.transpose_b();
    }
    job
}

impl Mix {
    /// Runs every template once through `exec` and checks each output in
    /// full; `None` if any is wrong.
    pub fn checked(mut templates: Vec<Gemm>, exec: &TunedGemm) -> Option<Mix> {
        let mut expected = Vec::with_capacity(templates.len());
        for g in templates.iter_mut() {
            g.reset_c();
            exec.gemm(g.problem()).ok()?;
            if !check::all_ok(g) {
                return None;
            }
            expected.push(g.c.data.clone());
        }
        Some(Mix { templates, expected })
    }

    /// Whether `c` is a correct output of template `idx`.
    pub fn output_ok(&self, idx: usize, c: &[f32]) -> bool {
        let same = c.len() == self.expected[idx].len()
            && c.iter().zip(&self.expected[idx]).all(|(x, y)| x.to_bits() == y.to_bits());
        same || {
            let mut g = self.templates[idx].clone();
            g.c.data.copy_from_slice(c);
            check::all_ok(&g)
        }
    }
}

/// A `GemmService` (default config) over a `TunedGemm` made by `exec`,
/// warmed with every template submitted one at a time and checked.
/// Returns the service and the number of wrong warm-up results.
fn warm_service(mix: &Mix, exec: TunedGemm) -> (GemmService, u64) {
    let service = GemmService::new(exec);
    let mut failed = 0;
    for (idx, g) in mix.templates.iter().enumerate() {
        let ok = match service.submit(job(g)) {
            Ok(h) => h.wait().is_ok_and(|done| mix.output_ok(idx, &done.c.into_data())),
            Err(_) => false,
        };
        failed += u64::from(!ok);
    }
    (service, failed)
}

pub struct OpenLoop {
    /// Due-to-observed latency of every job due inside the window.
    pub latency_ms: Vec<f64>,
    /// How late the generator submitted each job.
    pub late_ms: Vec<f64>,
    /// Time each `submit` call blocked.
    pub submit_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// `ServiceStats` counters of the window (warm-up excluded).
    pub stats: ServiceStats,
}

impl OpenLoop {
    pub fn p(&self, q: f64) -> f64 {
        quantile(&self.latency_ms, q)
    }

    /// A backlog that grows over the window: the last quarter of jobs
    /// waits more than twice as long as the first quarter, plus 1 ms.
    pub fn backlog_growing(&self) -> bool {
        let n = self.latency_ms.len();
        if n < 8 {
            return false;
        }
        let first = median(&self.latency_ms[..n / 4]);
        let last = median(&self.latency_ms[n - n / 4..]);
        last > 2.0 * first + 1.0
    }

    /// Meets the p99 latency limit with no failure and no growing backlog.
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.failed == 0 && !self.latency_ms.is_empty() && self.p(0.99) <= limit_ms && !self.backlog_growing()
    }
}

/// Offers the mix to a fresh service over `exec` as a Poisson process at
/// `rate` jobs/s for `seconds`. One generator thread submits each job at
/// its due time; the calling thread observes results in submission order.
pub fn open_loop(mix: &Mix, exec: TunedGemm, rate: f64, seconds: f64, seed: u64) -> OpenLoop {
    let (service, warm_failed) = warm_service(mix, exec);
    let before = service.stats();
    let mut out = OpenLoop {
        latency_ms: Vec::new(),
        late_ms: Vec::new(),
        submit_us: Vec::new(),
        attempted: mix.templates.len() as u64,
        failed: warm_failed,
        stats: before.clone(),
    };
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let service = &service;
        scope.spawn(move || {
            let mut rng = Rng::new(seed, STREAM_ARRIVALS);
            let mut due = start;
            loop {
                due += Duration::from_secs_f64(rng.exp_gap_s(rate));
                if due - start > window {
                    break;
                }
                let idx = rng.range(0, mix.templates.len() - 1);
                let job = job(&mix.templates[idx]);
                // Sleep to just before the due time, then spin: a plain
                // sleep overshoots by tens of microseconds on a VM.
                if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
                    std::thread::sleep(wait);
                }
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                let sent = Instant::now();
                let span = trace::span("exo-serve.GemmService.submit");
                let handle = service.submit(job);
                drop(span);
                let submit_us = sent.elapsed().as_secs_f64() * 1e6;
                let late_ms = (sent - due).as_secs_f64() * 1e3;
                if tx.send((due, idx, handle.ok(), late_ms, submit_us)).is_err() {
                    break;
                }
            }
        });
        for (due, idx, handle, late_ms, submit_us) in rx {
            out.attempted += 1;
            out.late_ms.push(late_ms);
            out.submit_us.push(submit_us);
            let Some(handle) = handle else {
                out.failed += 1;
                continue;
            };
            let span = trace::span("exo-serve.JobHandle.wait");
            let result = handle.wait();
            let observed = Instant::now();
            drop(span);
            if result.is_ok_and(|done| mix.output_ok(idx, &done.c.into_data())) {
                out.latency_ms.push((observed - due).as_secs_f64() * 1e3);
            } else {
                out.failed += 1;
            }
        }
    });
    out.stats = service.stats();
    out.stats.batches -= before.batches;
    out.stats.jobs_completed -= before.jobs_completed;
    out.stats.jobs_failed -= before.jobs_failed;
    out.stats.retries -= before.retries;
    out.stats.degraded_completions -= before.degraded_completions;
    out.stats.deadline_expired -= before.deadline_expired;
    out
}

/// Closed-burst throughput (jobs/s, median of `reps`) of the mix through
/// the three serve paths: a `GemmExecutor::gemm` loop, one
/// `CachedTunedGemm::gemm_batch`, and a `GemmService` fed every job at
/// once. `exec` builds a prepared executor per path. Returns the three
/// rates and the number of wrong outputs.
pub fn bursts(mix: &mut Mix, exec: impl Fn() -> TunedGemm, reps: usize) -> ([f64; 3], u64) {
    let jobs = mix.templates.len() as f64;
    let mut failed = 0u64;
    let wrong = |mix: &Mix| {
        (0..mix.templates.len()).filter(|&idx| !mix.output_ok(idx, &mix.templates[idx].c.data)).count() as u64
    };

    let per_call_exec = exec();
    let mut per_call = Vec::new();
    for _ in 0..reps {
        mix.templates.iter_mut().for_each(Gemm::reset_c);
        let t = Instant::now();
        for g in mix.templates.iter_mut() {
            let _span = trace::span("exo-tune.TunedGemm.gemm");
            failed += u64::from(per_call_exec.gemm(g.problem()).is_err());
        }
        per_call.push(jobs / t.elapsed().as_secs_f64());
        failed += wrong(mix);
    }

    let batch_exec = CachedTunedGemm::new(exec());
    let mut batched = Vec::new();
    for _ in 0..reps {
        mix.templates.iter_mut().for_each(Gemm::reset_c);
        let t = Instant::now();
        let mut batch = GemmBatch::new();
        for g in mix.templates.iter_mut() {
            batch.push(g.problem());
        }
        let span = trace::span("exo-serve.CachedTunedGemm.gemm_batch");
        failed += batch_exec.gemm_batch(batch).outcomes.iter().filter(|o| o.is_err()).count() as u64;
        drop(span);
        batched.push(jobs / t.elapsed().as_secs_f64());
        failed += wrong(mix);
    }

    let (service, warm_failed) = warm_service(mix, exec());
    failed += warm_failed;
    let mut queued = Vec::new();
    for _ in 0..reps {
        let prepared: Vec<GemmJob> = mix.templates.iter().map(job).collect();
        let t = Instant::now();
        let handles: Vec<_> = prepared
            .into_iter()
            .map(|j| {
                let _span = trace::span("exo-serve.GemmService.submit");
                service.submit(j).ok()
            })
            .collect();
        let mut outputs = Vec::with_capacity(handles.len());
        for h in handles {
            let _span = trace::span("exo-serve.JobHandle.wait");
            outputs.push(h.and_then(|h| h.wait().ok()));
        }
        queued.push(jobs / t.elapsed().as_secs_f64());
        for (idx, done) in outputs.into_iter().enumerate() {
            failed += u64::from(!done.is_some_and(|d| mix.output_ok(idx, &d.c.into_data())));
        }
    }
    ([median(&per_call), median(&batched), median(&queued)], failed)
}
