//! `perfbench`: the layered GEMM benchmark of this repository.
//!
//! ```text
//! perfbench --workload <resnet50|strided_1t> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --compare <result.json> <result.json>
//! ```
//!
//! An untraced run (`--trace 0`) measures the workload's end-to-end
//! metrics; a traced run (`--trace 1`) measures every per-layer metric —
//! the serving path's open loops among them — with spans around the
//! benchmark's calls into each crate. Either prints
//! the host fingerprint and one line per metric, and as its last line one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. A wrong
//! output, a kernel that did not promote to the native tier, or a failed
//! replay guard makes the run exit non-zero. See `perfbench/README.md`.

mod check;
mod closed;
mod host;
mod layers;
mod serve;
mod trace;
mod util;
mod workloads;

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use exo_tune::TunedGemm;

use crate::layers::{q_or_zero, Prepared};
use crate::util::{median, quantile, Rng};
use crate::workloads::{Shape, WORKLOADS};

/// Environment overrides that would make the run measure a different
/// program (another tier, ISA, thread count, injected faults, compiler).
const REFUSED_ENV: [&str; 5] = ["EXO_BACKEND", "EXO_ISA", "EXO_THREADS", "EXO_FAULT", "EXO_CC"];

/// Set-up probes per untraced run; `setup_s` is their median.
const SETUP_PROBES: usize = 3;

/// Closed loops time at least this many passes (p90 then has ten beyond
/// it), and stop after `CLOSED_CAP` whatever the count.
const MIN_PASSES: usize = 100;
const CLOSED_CAP: Duration = Duration::from_secs(90);

/// Register tiles whose kernel tiers the traced run measures: those the
/// `resnet50` verdicts select.
const KERNEL_TILES: [(usize, usize); 3] = [(4, 24), (8, 12), (12, 8)];

/// Work per traced-run layer measurement. `LADDER` holds the offered rates
/// of the max-rate search as shares of the closed-burst service capacity.
const REPLAY_PASSES: usize = 3;
const BURST_REPS: usize = 5;
const OPEN_LOOP_PROBE_S: f64 = 4.0;
const LADDER: [f64; 6] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6];
const LADDER_STEP_S: f64 = 1.0;
/// Length of each half (untraced, traced) of the workload's own loop in
/// a traced run, which gives the tracing overhead.
const OWN_LOOP_MAX_S: f64 = 5.0;

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name: name.into(), value, unit, samples });
    }

    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

#[derive(Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&String, String> {
        let at = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(at + 1).ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (expected one of {WORKLOADS:?})"));
    }
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    let trace = match value("--trace").map(String::as_str) {
        Ok("1") => true,
        Ok("0") | Err(_) => false,
        Ok(other) => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn refuse_overrides() -> Result<(), String> {
    match REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        Some(v) => Err(format!("refusing to run: {v} is set, so the run would measure a different program")),
        None => Ok(()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("--compare") if args.len() == 3 => compare(&args[1], &args[2]),
        Some("--setup-probe") => parse_args(&args).and_then(|a| setup_probe(&a)).map(|()| 0),
        _ => parse_args(&args).and_then(|a| run(&a)),
    };
    std::process::exit(code.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        2
    }));
}

/// Set-up as one probe process does it: plan the workload's shapes and
/// wait for every selected kernel's native build (`EXO_AOT_DIR` is the
/// probe's own empty directory).
fn setup_probe(args: &Args) -> Result<(), String> {
    refuse_overrides()?;
    let shapes = workloads::shapes(&args.workload);
    Prepared::new(&workloads::distinct_dims(&shapes), 1).map(drop)
}

/// Median wall time of `SETUP_PROBES` probe processes, each against a
/// fresh artifact directory `<scratch>/aot-<i>`.
fn measure_setup(args: &Args, scratch: &Path) -> Result<(f64, usize), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for i in 0..SETUP_PROBES {
        let t = Instant::now();
        let status = Command::new(&exe)
            .args(["--setup-probe", "--workload", &args.workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", "1"])
            .env("EXO_AOT_DIR", scratch.join(format!("aot-{i}")))
            .status()
            .map_err(|e| format!("set-up probe: {e}"))?;
        if !status.success() {
            return Err(format!("set-up probe {i} failed ({status})"));
        }
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((median(&times), times.len()))
}

fn run(args: &Args) -> Result<i32, String> {
    refuse_overrides()?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?.join(".bench_scratch");
    let scratch = root.join(format!("run-{}", std::process::id()));
    let tmp = scratch.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    // The C compiler's temporary files, in this process and the probes,
    // stay inside the run's own directory too.
    std::env::set_var("TMPDIR", &tmp);
    let outcome = run_in(args, &root, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    outcome
}

fn run_in(args: &Args, root: &Path, scratch: &Path) -> Result<i32, String> {
    let mut report = Report::default();
    let fingerprint = host::fingerprint();
    if args.trace {
        std::env::set_var("EXO_AOT_DIR", scratch.join("aot-main"));
        trace::set_enabled(true);
        layer_suite(args, scratch, &mut report)?;
    } else {
        let (setup_s, probes) = measure_setup(args, scratch)?;
        // The last probe left its directory warm: the measured process
        // starts from it instead of compiling a sixth time.
        std::env::set_var("EXO_AOT_DIR", scratch.join(format!("aot-{}", SETUP_PROBES - 1)));
        report.put("setup_s", setup_s, "s", probes);
        end_to_end(args, MIN_PASSES, &mut report)?;
        report.put("peak_rss_mb", host::peak_rss_mb(), "MB", 1);
    }
    let correct = report.failed == 0;

    for (key, value) in &fingerprint {
        println!("host.{key}: {value}");
    }
    for m in &report.metrics {
        println!("metric {} = {} {} (samples: {})", m.name, m.value, m.unit, m.samples);
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
    }
    let results = root.join("results");
    std::fs::create_dir_all(&results).map_err(|e| e.to_string())?;
    let stem =
        format!("{}-seed{}-trace{}-{}", args.workload, args.seed, u8::from(args.trace), std::process::id());
    std::fs::write(results.join(format!("{stem}.json")), result_json(args, &fingerprint, &report, correct))
        .map_err(|e| e.to_string())?;
    if args.trace {
        trace::write(&results.join(format!("{stem}.spans.jsonl"))).map_err(|e| e.to_string())?;
    }

    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    Ok(if correct { 0 } else { 1 })
}

fn result_json(args: &Args, fingerprint: &[(&str, String)], report: &Report, correct: bool) -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let host: Vec<String> = fingerprint.iter().map(|(k, v)| format!("\"{k}\": \"{}\"", esc(v))).collect();
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                m.name, m.value, m.unit, m.samples
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host\": {{{}}}, \"correct\": {correct}, \
         \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        args.workload,
        args.seed,
        args.trace,
        host.join(", "),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// Checks the output check itself on a small strided, transposed,
/// `beta = 1` product computed by `exec`.
fn check_self_test(exec: &TunedGemm, seed: u64) -> Result<(), String> {
    let shape = Shape { m: 37, n: 29, k: 41, trans_a: true, trans_b: true, beta1: true };
    let mut g = workloads::operands(&[shape], seed, true).remove(0);
    use gemm_blis::GemmExecutor;
    exec.gemm(g.problem()).map_err(|e| e.to_string())?;
    check::self_test(&g, &mut Rng::new(seed, workloads::STREAM_CHECKS))
}

/// The untraced measurement of one workload: a closed loop of at least
/// `min_passes` passes.
fn end_to_end(args: &Args, min_passes: usize, report: &mut Report) -> Result<(), String> {
    let shapes = workloads::shapes(&args.workload);
    let strided = args.workload == "strided_1t";
    let prepared = Prepared::new(&workloads::distinct_dims(&shapes), if strided { 1 } else { 0 })?;
    check_self_test(&prepared.tuned, args.seed)?;
    let mut problems = workloads::operands(&shapes, args.seed, strided);
    let passes = closed::run(&prepared.tuned, &mut problems, args.seed, args.seconds, min_passes, CLOSED_CAP);
    report.count(passes.attempted, passes.failed);
    let flops: f64 = shapes.iter().map(Shape::flops).sum();
    let p50 = median(&passes.pass_ms);
    let n = passes.pass_ms.len();
    report.put("latency_ms_p50", p50, "ms", n);
    report.put("latency_ms_p90", quantile(&passes.pass_ms, 0.9), "ms", n);
    println!(
        "{}: {:.4} GFLOP per pass, {:.3} GFLOPS at the median pass",
        args.workload,
        flops / 1e9,
        flops / (p50 * 1e-3) / 1e9
    );
    Ok(())
}

/// The traced run: every per-layer metric, then the workload's own loop
/// untraced and traced for the tracing overhead.
fn layer_suite(args: &Args, scratch: &Path, report: &mut Report) -> Result<(), String> {
    let mut rng = Rng::new(args.seed, workloads::STREAM_OPERANDS);
    let dims = workloads::distinct_dims(&workloads::shapes(&args.workload));

    let peak = host::fma_peak_gflops();
    report.put("host.fma_peak_gflops", peak, "GFLOPS", 5);

    let setup = layers::setup_layers(&dims, &scratch.join("aot-cold"))?;
    println!("selected tiles ({}): {:?}", args.workload, setup.tiles);
    report.put("ukernel-gen.generate_ms", setup.generate_ms, "ms", setup.tiles.len());
    report.put("exo-tune.plan_cold_ms", setup.plan_cold_ms, "ms", dims.len());
    report.put("exo-tune.plan_warm_us_p50", median(&setup.plan_warm_us), "us", setup.plan_warm_us.len());
    report.put("exo-tune.generator_invocations", setup.generator_invocations as f64, "count", 1);
    report.put("exo-aot.build_ms", setup.build_ms, "ms", setup.tiles.len());
    report.put("exo-aot.load_ms", setup.load_ms, "ms", setup.tiles.len());
    report.put("exo-aot.c_source_bytes", setup.c_source_bytes as f64, "bytes", setup.tiles.len());
    report.put("exo-aot.compiler_invocations", setup.compiler_invocations as f64, "count", 1);
    report.put("exo-aot.builds_failed", setup.builds_failed as f64, "count", 1);
    report.put("exo-aot.verified_promotions", setup.verified_promotions as f64, "count", 1);

    // Kernel tiers, at the kc the resnet50 verdicts pair with each tile.
    let resnet = workloads::resnet50_shapes();
    let resnet_prep = Prepared::new(&workloads::distinct_dims(&resnet), 1)?;
    for (mr, nr) in KERNEL_TILES {
        let kc = resnet_prep.verdicts.iter().find(|v| (v.mr, v.nr) == (mr, nr)).map_or(256, |v| v.kc);
        let kernel = resnet_prep
            .tuned
            .registry()
            .kernel_cache()
            .get(resnet_prep.tuned.tuner().isa().name.as_str(), mr, nr)
            .ok_or(format!("kernel {mr}x{nr} was not generated"))?;
        if kernel.native_wait().is_none() {
            return Err(format!("tier guard: kernel {mr}x{nr} did not promote to native"));
        }
        let [native, simd, superword] = layers::kernel_tiers(&kernel, kc, &mut rng)?;
        println!("kernel {mr}x{nr} at kc={kc}: packed panels {} KiB", kc * (mr + nr) * 4 / 1024);
        report.put(format!("kernel.{mr}x{nr}.native.gflops"), native, "GFLOPS", 5);
        report.put(format!("kernel.{mr}x{nr}.simd.gflops"), simd, "GFLOPS", 5);
        report.put(format!("kernel.{mr}x{nr}.superword.gflops"), superword, "GFLOPS", 5);
        report.put(format!("kernel.{mr}x{nr}.native.pct_peak"), 100.0 * native / peak, "%", 5);
    }

    // Packing bandwidth over a source of at least 4x the LLC.
    let llc = host::llc_bytes();
    let side = (llc as f64).sqrt().ceil() as usize;
    let blocking = resnet_prep.verdict((3136, 64, 576)).blocking();
    println!(
        "pack: source {side}x{side} f32 = {:.1} MB ({:.1}x LLC of {:.1} MB), blocks mc={} kc={} nc={}",
        (side * side * 4) as f64 / 1e6,
        (side * side * 4) as f64 / llc as f64,
        llc as f64 / 1e6,
        blocking.mc,
        blocking.kc,
        blocking.nc
    );
    let bw = layers::pack_bandwidth(side, blocking, &mut rng);
    for (name, v) in ["a_gather", "a_copy", "b_copy", "b_gather"].iter().zip(bw) {
        report.put(format!("pack.{name}.gbps"), v, "GB/s", 3);
    }

    // Driver split and thread scaling of the two closed-loop mixes.
    for (wl, strided) in [("resnet50", false), ("strided_1t", true)] {
        let wl_shapes = workloads::shapes(wl);
        let strided_prep;
        let prep = if strided {
            strided_prep = Prepared::new(&workloads::distinct_dims(&wl_shapes), 1)?;
            &strided_prep
        } else {
            &resnet_prep
        };
        let mut problems = workloads::operands(&wl_shapes, args.seed, strided);
        let d = layers::driver_layers(prep, &mut problems, REPLAY_PASSES)?;
        let s = d.split;
        report.put(format!("{wl}.pack_a.self_ms"), s.pack_a_ms, "ms", d.passes);
        report.put(format!("{wl}.pack_b.self_ms"), s.pack_b_ms, "ms", d.passes);
        report.put(format!("{wl}.kernel.self_ms"), s.kernel_ms, "ms", d.passes);
        report.put(format!("{wl}.kernel.calls"), s.kernel_calls as f64, "count", 1);
        report.put(
            format!("{wl}.driver.overhead_ms"),
            d.blis_1t_ms - s.pack_a_ms - s.pack_b_ms - s.kernel_ms,
            "ms",
            d.passes,
        );
        let (flops, bytes) =
            layers::computed_traffic(&wl_shapes, |sh| prep.verdict((sh.m, sh.n, sh.k)).blocking());
        report.put(format!("{wl}.gflop_per_pass"), flops / 1e9, "GFLOP", 1);
        report.put(format!("{wl}.bytes_moved_computed"), bytes, "bytes", 1);
        report.put(format!("{wl}.flops_per_byte_computed"), flops / bytes, "flop/byte", 1);
        if !strided {
            let (one_ms, all_ms, tasks) = layers::thread_scaling(&mut problems, REPLAY_PASSES);
            let workers = gemm_blis::ThreadPool::global().workers() as f64;
            report.put("resnet50.threads.speedup", one_ms / all_ms, "x", REPLAY_PASSES);
            report.put("resnet50.threads.efficiency", one_ms / all_ms / workers, "ratio", REPLAY_PASSES);
            report.put("pool.tasks_per_pass", tasks as f64, "count", 1);
        }
    }

    serve_layers(args, report)?;

    // The workload's own loop, untraced then traced.
    let half = (args.seconds / 2.0).clamp(1.0, OWN_LOOP_MAX_S);
    let mut p50 = [0.0; 2];
    for (slot, traced) in p50.iter_mut().zip([false, true]) {
        trace::set_enabled(traced);
        let mut own = Report::default();
        end_to_end(&Args { seconds: half, ..args.clone() }, 10, &mut own)?;
        report.count(own.attempted, own.failed);
        *slot = own.metrics.iter().find(|m| m.name == "latency_ms_p50").map_or(f64::NAN, |m| m.value);
    }
    trace::set_enabled(true);
    report.put("trace.overhead_pct", 100.0 * (p50[1] / p50[0] - 1.0), "%", 2);

    println!("layer self time (spans):");
    for (name, t) in trace::layer_times() {
        println!("  {name}: self {:.3} ms, total {:.3} ms, spans {}", t.self_ms, t.total_ms, t.count);
    }
    Ok(())
}

/// Serve-layer metrics over the serve mix of this seed.
fn serve_layers(args: &Args, report: &mut Report) -> Result<(), String> {
    let shapes = workloads::serve_shapes(args.seed);
    let dims = workloads::distinct_dims(&shapes);
    let prepared = Prepared::new(&dims, 1)?;
    let templates = workloads::operands(&shapes, args.seed, false);
    let mut mix =
        serve::Mix::checked(templates, &prepared.tuned).ok_or("serve mix: a template output is wrong")?;
    let planned = || {
        let t = TunedGemm::new();
        for &(m, n, k) in &dims {
            let _ = t.plan(m, n, k);
        }
        t
    };
    let ([per_call, batched, service], failed) = serve::bursts(&mut mix, planned, BURST_REPS);
    report.count(3 * (BURST_REPS * mix.templates.len()) as u64, failed);
    report.put("serve_mixed.per_call.jobs_s", per_call, "1/s", BURST_REPS);
    report.put("serve_mixed.batched.jobs_s", batched, "1/s", BURST_REPS);
    report.put("serve_mixed.service.jobs_s", service, "1/s", BURST_REPS);
    let (flops, bytes) = layers::computed_traffic(&shapes, |s| prepared.verdict((s.m, s.n, s.k)).blocking());
    report.put("serve_mixed.gflop_per_pass", flops / 1e9, "GFLOP", 1);
    report.put("serve_mixed.bytes_moved_computed", bytes, "bytes", 1);
    report.put("serve_mixed.flops_per_byte_computed", flops / bytes, "flop/byte", 1);

    for (name, rate) in [("serve_low", workloads::SERVE_LOW_RATE), ("serve_high", workloads::SERVE_HIGH_RATE)]
    {
        let run = open_loop(&mix, planned(), rate, OPEN_LOOP_PROBE_S, args.seed, report)?;
        let n = run.latency_ms.len();
        for (q, label) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
            report.put(format!("{name}.latency_ms_{label}"), q_or_zero(&run.latency_ms, q), "ms", n);
        }
        report.put(format!("{name}.submit_us_p99"), q_or_zero(&run.submit_us, 0.99), "us", n);
        report.put(format!("{name}.generator_late_ms_p99"), q_or_zero(&run.late_ms, 0.99), "ms", n);
        report.put(
            format!("{name}.mean_batch"),
            run.stats.jobs_completed as f64 / run.stats.batches.max(1) as f64,
            "jobs",
            n,
        );
        report.put(format!("{name}.queue_highwater"), run.stats.queue_highwater as f64, "count", 1);
        report.put(format!("{name}.retries"), run.stats.retries as f64, "count", 1);
        report.put(format!("{name}.degraded_completions"), run.stats.degraded_completions as f64, "count", 1);
        report.put(format!("{name}.deadline_expired"), run.stats.deadline_expired as f64, "count", 1);
    }

    // Highest offered rate on a ladder around the burst capacity whose p99
    // meets the limit without a growing backlog.
    let mut max_rate = 0.0;
    for frac in LADDER {
        let rate = (service * frac).round();
        let run = open_loop(&mix, planned(), rate, LADDER_STEP_S, args.seed, report)?;
        let meets = run.meets(workloads::SERVE_P99_LIMIT_MS);
        println!(
            "max_rate ladder: {rate} jobs/s -> p99 {:.3} ms, backlog growing {}, failed {}: {}",
            q_or_zero(&run.latency_ms, 0.99),
            run.backlog_growing(),
            run.failed,
            if meets { "meets" } else { "misses" }
        );
        if !meets {
            break;
        }
        max_rate = rate;
    }
    report.put("serve_mixed.max_rate_jobs_s", max_rate, "1/s", LADDER.len());
    Ok(())
}

/// One open loop of the serve mix, counted into `report`. A job the
/// service degraded below the native tier fails the run (tier guard).
fn open_loop(
    mix: &serve::Mix,
    exec: TunedGemm,
    rate: f64,
    seconds: f64,
    seed: u64,
    report: &mut Report,
) -> Result<serve::OpenLoop, String> {
    let run = serve::open_loop(mix, exec, rate, seconds, seed);
    report.count(run.attempted, run.failed);
    if run.stats.degraded_completions > 0 {
        return Err(format!("tier guard: the service degraded jobs below the native tier at {rate} jobs/s"));
    }
    Ok(run)
}

/// Compares two saved results metric by metric — unless their host
/// fingerprints differ, in which case it refuses a verdict.
fn compare(a: &str, b: &str) -> Result<i32, String> {
    let load = |p: &str| -> Result<exo_tune::json::Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        exo_tune::json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (ja, jb) = (load(a)?, load(b)?);
    let host = |j: &exo_tune::json::Json| j.get("host").and_then(|h| h.as_obj()).cloned().unwrap_or_default();
    let (ha, hb) = (host(&ja), host(&jb));
    let differing: std::collections::BTreeSet<&String> =
        ha.keys().chain(hb.keys()).filter(|k| ha.get(*k) != hb.get(*k)).collect();
    if !differing.is_empty() {
        let banner = "!".repeat(72);
        println!("{banner}\nHOST FINGERPRINT MISMATCH: these results come from different hosts; no verdict.");
        for k in differing {
            let show = |h: &std::collections::BTreeMap<String, exo_tune::json::Json>| {
                h.get(k).and_then(|v| v.as_str()).unwrap_or("<missing>").to_string()
            };
            println!("  {k}: {} vs {}", show(&ha), show(&hb));
        }
        println!("{banner}");
        return Ok(3);
    }
    let metrics =
        |j: &exo_tune::json::Json| j.get("metrics").and_then(|m| m.as_obj()).cloned().unwrap_or_default();
    let (ma, mb) = (metrics(&ja), metrics(&jb));
    for (name, va) in &ma {
        let value = |v: &exo_tune::json::Json| v.get("value").and_then(|x| x.as_num());
        if let (Some(x), Some(y)) = (value(va), mb.get(name).and_then(value)) {
            println!("{name}: {x} -> {y} ({:+.2}%)", 100.0 * (y / x - 1.0));
        }
    }
    Ok(0)
}
