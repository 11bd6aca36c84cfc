//! The host fingerprint every result carries, the in-run FMA peak probe,
//! and the process's peak resident set.

use std::hint::black_box;
use std::time::Instant;

/// Everything that makes two results comparable. Recorded in every
/// result; `perfbench --compare` refuses a verdict across a mismatch.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let flags = field("flags");
    let isa_flags: Vec<&str> = flags
        .split_whitespace()
        .filter(|f| ["sse4_2", "avx", "avx2", "fma", "avx512f", "avx512vl", "neon", "asimd"].contains(f))
        .collect();
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    vec![
        ("cpu_model", field("model name")),
        ("nproc", nproc.to_string()),
        ("caches", caches().iter().map(|(l, s)| format!("{l}={s}")).collect::<Vec<_>>().join(",")),
        ("isa_flags", isa_flags.join(",")),
        ("active_isa", gemm_blis::active_isa().name().to_string()),
        ("toolchain", gemm_blis::toolchain().map(|t| t.version.clone()).unwrap_or_else(|| "none".into())),
        ("native_available", gemm_blis::native_available().to_string()),
    ]
}

/// `(level+type, size)` of every sysfs cache of cpu0, e.g. `("L1d", "48K")`.
fn caches() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else { break };
        let kind = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push((format!("L{level}{kind}"), size));
    }
    out
}

/// Size of the last-level cache in bytes (32 MiB when sysfs is silent).
pub fn llc_bytes() -> usize {
    caches()
        .last()
        .and_then(|(_, s)| {
            let (num, mult) = match s.strip_suffix('K') {
                Some(v) => (v, 1024),
                None => (s.strip_suffix('M').unwrap_or(s), 1024 * 1024),
            };
            num.parse::<usize>().ok().map(|v| v * mult)
        })
        .unwrap_or(32 << 20)
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Single-core f32 FMA peak in GFLOPS, measured with independent
/// accumulator chains wide enough to cover FMA latency times throughput.
/// Uses 8-lane AVX2 FMA on x86_64 hosts that have it (the ISA the native
/// kernels are emitted for), scalar `mul_add` chains elsewhere. Best of a
/// few short trials, so a preempted trial does not lower the peak.
pub fn fma_peak_gflops() -> f64 {
    const ITERS: u64 = 4_000_000;
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let flops = fma_chains(black_box(ITERS));
            flops / start.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

#[cfg(target_arch = "x86_64")]
fn fma_chains(iters: u64) -> f64 {
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the features the function is compiled for were just
        // detected on this CPU.
        let sink = unsafe { fma_chains_avx2(iters) };
        black_box(sink);
        return (iters * 12 * 8 * 2) as f64;
    }
    fma_chains_scalar(iters)
}

#[cfg(not(target_arch = "x86_64"))]
fn fma_chains(iters: u64) -> f64 {
    fma_chains_scalar(iters)
}

fn fma_chains_scalar(iters: u64) -> f64 {
    let mut acc = [1.0f32; 8];
    let (x, y) = (black_box(0.999_999f32), black_box(1.0e-7f32));
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = a.mul_add(x, y);
        }
    }
    black_box(acc);
    (iters * 8 * 2) as f64
}

/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(iters: u64) -> f32 {
    use std::arch::x86_64::*;
    let x = _mm256_set1_ps(black_box(0.999_999));
    let y = _mm256_set1_ps(black_box(1.0e-7));
    let mut acc = [_mm256_set1_ps(1.0); 12];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = _mm256_fmadd_ps(*a, x, y);
        }
    }
    let mut sum = _mm256_setzero_ps();
    for a in acc {
        sum = _mm256_add_ps(sum, a);
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
    lanes.iter().sum()
}
