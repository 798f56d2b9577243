//! Host description and host-bound probes.

use std::hint::black_box;
use std::time::Instant;

use dynamic_data_layout::core::{simd_active_isa, BackendKind};
use dynamic_data_layout::num::Complex64;

use crate::stats::median;

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Data and unified caches of cpu0 as `L1d 48K/12w L2 2048K/16w ...`.
fn cache_geometry() -> String {
    let mut out = Vec::new();
    for index in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| {
            std::fs::read_to_string(format!("{base}/{f}"))
                .map(|s| s.trim().to_string())
                .unwrap_or_default()
        };
        let kind = read("type");
        if kind.is_empty() {
            break;
        }
        if kind == "Instruction" {
            continue;
        }
        let d = if kind == "Data" { "d" } else { "" };
        out.push(format!(
            "L{}{d} {}/{}w/{}B",
            read("level"),
            read("size"),
            read("ways_of_associativity"),
            read("coherency_line_size")
        ));
    }
    if out.is_empty() {
        "unknown".into()
    } else {
        out.join(" ")
    }
}

/// The commit being measured, from `.git` in the working directory when
/// there is one (a plain source checkout has none).
fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().chars().take(12).collect())
            .unwrap_or_else(|_| "unknown".into()),
        None => head.chars().take(12).collect(),
    }
}

/// The environment header printed before the metrics.
pub fn header(workload: &str, seed: u64, seconds: u64, trace: bool) -> Vec<String> {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        format!(
            "workload {workload} seed {seed} seconds {seconds} trace {}",
            u8::from(trace)
        ),
        format!("cpu {} ({threads} threads available)", cpu_model()),
        format!("caches {}", cache_geometry()),
        format!(
            "backend {} simd_isa {}",
            BackendKind::selected().label(),
            simd_active_isa()
        ),
        format!("git {}", git_sha()),
    ]
}

/// Copy rate in GB/s (bytes read plus bytes written) for a buffer of
/// `points` complex points — the same size as the workload's buffers, so
/// for sizes that fit the last-level cache this is an in-cache rate,
/// not DRAM bandwidth. Median of `reps` copies.
pub fn copy_gbps(points: usize, reps: usize) -> f64 {
    let src: Vec<Complex64> = (0..points).map(|i| Complex64::new(i as f64, 1.0)).collect();
    let mut dst = vec![Complex64::ZERO; points];
    dst.copy_from_slice(&src);
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        let s = t0.elapsed().as_secs_f64();
        rates.push(2.0 * 16.0 * points as f64 / s / 1e9);
    }
    median(&mut rates).unwrap_or(0.0)
}

/// Multiply-add rate in GFLOP/s on one core: 16 independent `a*b+c`
/// chains (2 flops each), as the compiler emits them for the default
/// target. Median of `reps` bursts.
pub fn fma_gflops(reps: usize) -> f64 {
    const CHAINS: usize = 16;
    const ITERS: usize = 1 << 18;
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut acc = [1.0f64; CHAINS];
        let (b, c) = (black_box(0.999_999_9), black_box(1e-7));
        let t0 = Instant::now();
        for _ in 0..ITERS {
            for a in acc.iter_mut() {
                *a = *a * b + c;
            }
        }
        black_box(&acc);
        let s = t0.elapsed().as_secs_f64();
        rates.push(2.0 * (CHAINS * ITERS) as f64 / s / 1e9);
    }
    median(&mut rates).unwrap_or(0.0)
}
