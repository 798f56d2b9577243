//! The two workloads, each with a plain run (end-to-end metrics) and a
//! traced run (per-layer metrics).
//!
//! Every traced run reports every per-layer metric. The replay, planner
//! and host probes run on the workload's representative plan (2^20 for
//! `dft_large`, 2^16 for `serve_mix`); the serve layer comes from the
//! workload itself where it drives it (`serve_mix`) and otherwise from a
//! short probe that sends the workload's own transform through it, and
//! the scheduler layer from batches of the workload's transform.

use std::time::{Duration, Instant};

use dynamic_data_layout::core::{Engine, EngineStats, PlanKey, PlannerConfig, Strategy};
use dynamic_data_layout::kernels::iterative::fft_radix2_inplace;
use dynamic_data_layout::num::{Complex64, Direction};
use dynamic_data_layout::prelude::{try_plan_dft, DftPlan, SixStepPlan, TransformKind};
use dynamic_data_layout::serve::Service;

use crate::batch::{self, Batch};
use crate::host;
use crate::oracle::{roots_of_unity, seeded_bins, DftOracle, WhtOracle};
use crate::replay::{LayerTimes, Replay, POINT_BYTES};
use crate::report::Report;
use crate::rng::Rng;
use crate::serve::{self, ServeRun};
use crate::stats::{quantile, tail_q};

/// `dft_large` transform size: 16 MiB per buffer.
const LARGE_N: usize = 1 << 20;
/// The size `serve_mix` replays: its 2^16 tail.
const MEDIUM_N: usize = 1 << 16;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Fewest operations a closed-loop run makes, so that its p90 has ten
/// samples beyond it.
const CLOSED_MIN: usize = 101;
/// Latency limit for the goodput of the closed-loop workloads.
const CLOSED_LIMIT: Duration = Duration::from_secs(1);

/// A workload's name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One 2^20-point DFT at a time, interleaved with radix-2.
    DftLarge,
    /// Open-loop wire traffic on a one-worker service.
    ServeMix,
}

impl Workload {
    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DftLarge => "dft_large",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "dft_large" => Some(Workload::DftLarge),
            "serve_mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The `q`-quantile of durations, in seconds.
fn q_s(samples: &[Duration], q: f64) -> f64 {
    let mut v: Vec<f64> = samples.iter().map(|d| secs(*d)).collect();
    quantile(&mut v, q).unwrap_or(f64::NAN)
}

fn med_s(samples: &[Duration]) -> f64 {
    q_s(samples, 0.5)
}

fn med(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    quantile(&mut v, 0.5).unwrap_or(f64::NAN)
}

/// Goodput of one closed-loop caller: calls per second at the median
/// call time, scaled by the share of calls that were correct and within
/// the latency limit. (A mean-based rate would let one host stall move
/// the whole run.)
fn closed_goodput(good: usize, calls: usize, median_s: f64) -> f64 {
    good as f64 / calls.max(1) as f64 / median_s
}

/// `5 n log2 n`, the nominal flop count of an `n`-point complex FFT.
fn fft_flops(n: usize) -> f64 {
    5.0 * n as f64 * (n as f64).log2()
}

/// The planner configuration of `Engine::default()`.
fn default_planner() -> PlannerConfig {
    *Engine::default().planner_config()
}

/// Plans and compiles a forward DFT with the library defaults.
fn plan_default(n: usize) -> Result<DftPlan, String> {
    let outcome = try_plan_dft(n, &default_planner()).map_err(|e| e.to_string())?;
    DftPlan::new(outcome.tree, Direction::Forward).map_err(|e| e.to_string())
}

fn time_radix2(x: &[Complex64], buf: &mut [Complex64]) -> Duration {
    buf.copy_from_slice(x);
    let t0 = Instant::now();
    fft_radix2_inplace(buf, Direction::Forward);
    t0.elapsed()
}

/// Runs the workload and fills `r`.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, r: &mut Report) {
    match (workload, trace) {
        (Workload::DftLarge, false) => dft_large(seed, seconds, r),
        (Workload::DftLarge, true) => dft_large_traced(seed, seconds, r),
        (Workload::ServeMix, false) => serve_mix(seed, seconds, r),
        (Workload::ServeMix, true) => serve_mix_traced(seed, seconds, r),
    }
}

/// A seeded input and its oracle.
fn dft_input(n: usize, seed: u64) -> (Vec<Complex64>, DftOracle) {
    let x = Rng::new(seed, 1).complex_signal(n);
    let oracle = DftOracle::new(
        &x,
        &roots_of_unity(n, Direction::Forward),
        &seeded_bins(n, seed),
    );
    (x, oracle)
}

fn record_rss(r: &mut Report) {
    r.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN));
}

// ---------------------------------------------------------------- dft_large

fn dft_large(seed: u64, seconds: f64, r: &mut Report) {
    let n = LARGE_N;
    let (x, oracle) = dft_input(n, seed);
    let mut setups = Vec::new();
    let mut plan = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let p = match plan_default(n) {
            Ok(p) => p,
            Err(e) => return r.check("plan", Err(e)),
        };
        let mut y = vec![Complex64::ZERO; n];
        let res = p.try_execute(&x, &mut y);
        setups.push(t0.elapsed());
        r.check(
            "first execute",
            res.map_err(|e| e.to_string())
                .and_then(|()| oracle.check(&y)),
        );
        plan = Some(p);
    }
    let plan = plan.expect("SETUP_REPS > 0");
    r.set("setup_s", med_s(&setups));
    r.note(format!(
        "tree {}",
        dynamic_data_layout::prelude::print_dft(plan.tree())
    ));

    let mut y = vec![Complex64::ZERO; n];
    let mut buf = vec![Complex64::ZERO; n];
    let (mut exec, mut radix2, mut good) = (Vec::new(), Vec::new(), 0usize);
    let start = Instant::now();
    let mut i = 0;
    while i < CLOSED_MIN || start.elapsed().as_secs_f64() < seconds {
        // Alternate which of the pair runs first, so drift and cache
        // state favour neither.
        if i % 2 == 1 {
            radix2.push(time_radix2(&x, &mut buf));
        }
        let t0 = Instant::now();
        let res = plan.try_execute(&x, &mut y);
        let d = t0.elapsed();
        exec.push(d);
        let ok = res
            .map_err(|e| e.to_string())
            .and_then(|()| oracle.check(&y));
        good += usize::from(ok.is_ok() && d <= CLOSED_LIMIT);
        r.check("execute", ok);
        if i % 2 == 0 {
            radix2.push(time_radix2(&x, &mut buf));
        }
        i += 1;
    }
    r.note(format!("{} execute calls", exec.len()));
    r.set("exec_ms_p50", 1e3 * q_s(&exec, 0.5));
    r.set("exec_ms_p90", 1e3 * q_s(&exec, 0.9));
    r.set("gflops", fft_flops(n) / med_s(&exec) / 1e9);
    r.set("vs_radix2", med_s(&exec) / med_s(&radix2));
    r.set("latency_ms_p50", 1e3 * q_s(&exec, 0.5));
    r.set(
        "goodput_rps",
        closed_goodput(good, exec.len(), med_s(&exec)),
    );
    record_rss(r);
}

fn dft_large_traced(seed: u64, seconds: f64, r: &mut Report) {
    let n = LARGE_N;
    let (x, oracle) = dft_input(n, seed);
    let plan = match plan_default(n) {
        Ok(p) => p,
        Err(e) => return r.check("plan", Err(e)),
    };
    let exec_s = layer_probes(r, &plan, &x, &oracle, 0.6 * seconds);
    scheduler_probe(r, &plan, 2, seed, 0.15 * seconds);
    serve_probe(r, seed, n, exec_s, 0.15 * seconds);
    host_probes(r, n);
}

// ---------------------------------------------------------------- serve_mix

/// Starts a service and sends each distinct mix line once: the set-up
/// every key pays on its first request.
fn serve_setup(r: &mut Report) -> (Service, Duration) {
    let t0 = Instant::now();
    let svc = serve::start_service();
    for (line, op) in serve::mix_lines() {
        let response = svc.handle(line);
        r.check(line, serve::check_response(op, &response).map(|_| ()));
    }
    (svc, t0.elapsed())
}

/// Checks every plan the service's engine holds for the mix on a seeded
/// input against the exact oracle (the wire protocol only shows the DC
/// bin of an all-ones input).
fn check_engine_plans(svc: &Service, seed: u64, r: &mut Report) {
    for (i, key) in serve::mix_plan_keys().into_iter().enumerate() {
        let what = format!("engine plan {key:?}");
        let artifact = match svc.engine().plan(key) {
            Ok(a) => a,
            Err(e) => {
                r.check(&what, Err(e.to_string()));
                continue;
            }
        };
        let n = key.n;
        let bins = seeded_bins(n, seed ^ i as u64);
        let mut rng = Rng::new(seed, 0x100 + i as u64);
        let outcome = match (key.kind, artifact.as_dft(), artifact.as_wht()) {
            (TransformKind::Dft(dir), Some(plan), _) => {
                let x = rng.complex_signal(n);
                let oracle = DftOracle::new(&x, &roots_of_unity(n, dir), &bins);
                let mut y = vec![Complex64::ZERO; n];
                plan.try_execute(&x, &mut y)
                    .map_err(|e| e.to_string())
                    .and_then(|()| oracle.check(&y))
            }
            (TransformKind::Wht, _, Some(plan)) => {
                let x = rng.real_signal(n);
                let oracle = WhtOracle::new(&x, &bins);
                let mut y = x.clone();
                plan.try_execute(&mut y)
                    .map_err(|e| e.to_string())
                    .and_then(|()| oracle.check(&y))
            }
            _ => Err("artifact kind does not match its key".into()),
        };
        r.check(&what, outcome);
    }
}

/// Counts a serve run's outcomes into the report.
fn absorb_outcomes(run: &ServeRun, r: &mut Report) {
    for o in &run.outcomes {
        r.check(
            &o.line,
            if o.ok {
                Ok(())
            } else {
                Err(o.error.clone().unwrap_or_default())
            },
        );
    }
}

/// The `serve_mix` arrival rate: [`serve::MIX_UTILIZATION`] of what the
/// one worker of `svc` serves, as measured now.
fn mix_rate(svc: &Service, r: &mut Report) -> Option<f64> {
    let service_s = serve::mix_service_s(svc);
    r.check(
        "capacity calibration",
        service_s.as_ref().map(|_| ()).map_err(Clone::clone),
    );
    let service_s = service_s.ok()?;
    r.note(format!(
        "capacity: mean service time {:.3} ms, {:.1} requests/s on one worker",
        1e3 * service_s,
        1.0 / service_s
    ));
    Some(serve::MIX_UTILIZATION / service_s)
}

fn serve_mix(seed: u64, seconds: f64, r: &mut Report) {
    let mut setups = Vec::new();
    let mut svc: Option<Service> = None;
    for _ in 0..SETUP_REPS {
        // One service at a time, so peak memory holds one engine.
        if let Some(old) = svc.take() {
            old.shutdown();
        }
        let (s, d) = serve_setup(r);
        setups.push(d);
        svc = Some(s);
    }
    let svc = svc.expect("SETUP_REPS > 0");
    r.set("setup_s", med_s(&setups));

    let Some(rate) = mix_rate(&svc, r) else {
        return svc.shutdown();
    };
    let schedule = serve::mix_schedule(seed, seconds, rate);
    let run = serve::run_open_loop(&svc, &schedule, 2);
    absorb_outcomes(&run, r);
    record_rss(r);
    // After the memory reading: the oracle's buffers are the benchmark's,
    // not the service's.
    check_engine_plans(&svc, seed, r);
    svc.shutdown();

    let ok_exec: Vec<&serve::Outcome> = run
        .outcomes
        .iter()
        .filter(|o| o.ok && o.exec_ns.is_some())
        .collect();
    let exec: Vec<Duration> = ok_exec
        .iter()
        .map(|o| Duration::from_nanos(o.exec_ns.unwrap_or(0)))
        .collect();
    let dft_gflops: Vec<f64> = ok_exec
        .iter()
        .filter_map(|o| match o.exec {
            Some((true, n)) => Some(fft_flops(n) / o.exec_ns.unwrap_or(0).max(1) as f64),
            _ => None,
        })
        .collect();
    let probe_line = format!("exec dft {} ddl", serve::RADIX2_PROBE_N);
    let probe: Vec<Duration> = ok_exec
        .iter()
        .filter(|o| o.line == probe_line)
        .map(|o| Duration::from_nanos(o.exec_ns.unwrap_or(0)))
        .collect();
    let latency: Vec<Duration> = run.outcomes.iter().map(|o| o.latency).collect();
    let good = run
        .outcomes
        .iter()
        .filter(|o| o.ok && o.latency <= serve::SERVE_LIMIT)
        .count();
    r.note(format!(
        "{} requests at {rate:.1} /s, {} radix-2 samples; latency p99 {:.3} ms",
        latency.len(),
        run.radix2.len(),
        1e3 * q_s(&latency, 0.99)
    ));
    r.set("exec_ms_p50", 1e3 * q_s(&exec, 0.5));
    r.set("exec_ms_p90", 1e3 * q_s(&exec, 0.9));
    r.set("gflops", med(&dft_gflops));
    r.set("vs_radix2", med_s(&probe) / med_s(&run.radix2));
    r.set("latency_ms_p50", 1e3 * q_s(&latency, 0.5));
    r.set("goodput_rps", good as f64 / seconds);
}

fn serve_mix_traced(seed: u64, seconds: f64, r: &mut Report) {
    let (svc, _) = serve_setup(r);
    let Some(rate) = mix_rate(&svc, r) else {
        return svc.shutdown();
    };
    let before = svc.engine().stats();
    let schedule = serve::mix_schedule(seed, 0.4 * seconds, rate);
    let run = serve::run_open_loop(&svc, &schedule, 0);
    absorb_outcomes(&run, r);
    serve_layer_metrics(
        r,
        &svc,
        &run,
        before,
        &serve::mix_plan_keys(),
        serve::SERVE_LIMIT,
    );
    svc.shutdown();

    let plan = match plan_default(MEDIUM_N) {
        Ok(p) => p,
        Err(e) => return r.check("plan", Err(e)),
    };
    let (x, oracle) = dft_input(MEDIUM_N, seed);
    layer_probes(r, &plan, &x, &oracle, 0.45 * seconds);
    // The mix's most common transforms are 2^12 points.
    match plan_default(serve::RADIX2_PROBE_N) {
        Ok(small) => scheduler_probe(r, &small, 64, seed, 0.1 * seconds),
        Err(e) => r.check("plan", Err(e)),
    }
    host_probes(r, MEDIUM_N);
}

// ------------------------------------------------------------ layer probes

/// Serve and engine metrics of one open-loop run against `svc`.
fn serve_layer_metrics(
    r: &mut Report,
    svc: &Service,
    run: &ServeRun,
    before: EngineStats,
    keys: &[PlanKey],
    limit: Duration,
) {
    let after = svc.engine().stats();
    let hits = after.plan_hits - before.plan_hits;
    let lookups = hits + after.plan_misses - before.plan_misses;
    let o = &run.outcomes;
    let latency: f64 = o.iter().map(|o| secs(o.latency)).sum();
    let exec: f64 = o
        .iter()
        .filter_map(|o| o.exec_ns)
        .map(|ns| ns as f64 * 1e-9)
        .sum();
    let busy: f64 = o.iter().map(|o| secs(o.busy)).sum();
    let missed = o.iter().filter(|o| !o.ok || o.latency > limit).count();
    let submit: Vec<Duration> = o.iter().map(|o| o.submit).collect();
    let lag: Vec<Duration> = o.iter().map(|o| o.lag).collect();
    let latencies: Vec<Duration> = o.iter().map(|o| o.latency).collect();
    let tail = tail_q(o.len());
    r.note(format!(
        "serve layer: {} requests, {lookups} engine lookups during the run; \
         latency and lag tails are p{}",
        o.len(),
        tail * 100.0
    ));
    r.set("serve.latency_ms_p99", 1e3 * q_s(&latencies, tail));
    r.set("engine.hit_ratio", hits as f64 / lookups.max(1) as f64);
    r.set("serve.submit_us", 1e6 * med_s(&submit));
    r.set("serve.exec_share", exec / latency);
    r.set("serve.worker_busy", busy / secs(run.elapsed));
    r.set("serve.shed", o.iter().filter(|o| o.shed).count() as f64);
    r.set("serve.slo_miss_frac", missed as f64 / o.len().max(1) as f64);
    r.set("gen.lag_ms_p99", 1e3 * q_s(&lag, tail));

    // Plan-cache hit path: ten rounds of 100 lookups over the keys.
    let mut per_lookup = Vec::new();
    for _ in 0..10 {
        let t0 = Instant::now();
        for i in 0..100 {
            let hit = svc.engine().plan(keys[i % keys.len()]);
            std::hint::black_box(&hit);
        }
        per_lookup.push(secs(t0.elapsed()) / 100.0);
    }
    r.set("engine.lookup_us", 1e6 * med(&per_lookup));
}

/// Sends the workload's own transform through a one-worker service as
/// an open loop at half the rate one worker can serve.
fn serve_probe(r: &mut Report, seed: u64, n: usize, exec_s: f64, budget: f64) {
    let svc = serve::start_service();
    let line = format!("exec dft {n} ddl");
    let op = serve::Op::Exec { dft: true, n };
    let response = svc.handle(&line);
    r.check(&line, serve::check_response(op, &response).map(|_| ()));
    let before = svc.engine().stats();
    // Per-request allocation roughly doubles a bare execute.
    let rate = 0.5 / (2.0 * exec_s).max(1e-6);
    let schedule = serve::single_schedule(seed, budget.max(0.5), rate, "dft", n);
    let run = serve::run_open_loop(&svc, &schedule, 0);
    absorb_outcomes(&run, r);
    let key = PlanKey::dft(n, Strategy::Ddl);
    serve_layer_metrics(r, &svc, &run, before, &[key], CLOSED_LIMIT);
    svc.shutdown();
}

/// Scheduler metrics from two-thread and one-thread batches of `items`
/// signals through `plan`.
fn scheduler_probe(r: &mut Report, plan: &DftPlan, items: usize, seed: u64, budget: f64) {
    let batch = Batch::new(plan.clone(), items, seed);
    r.check("first batch", batch::first_batch(&batch));
    let run = batch::run_pairs(&batch, budget, 3, r);
    r.note(format!(
        "scheduler: {} batch pairs of {items} x {}, {} threads available",
        run.wall_2t.len(),
        plan.n(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    r.set(
        "scheduler.speedup_2t",
        med_s(&run.wall_1t) / med_s(&run.wall_2t),
    );
    r.set("scheduler.efficiency", med(&run.efficiency));
    r.set(
        "scheduler.steals",
        run.steals as f64 / run.wall_2t.len().max(1) as f64,
    );
    r.set("scheduler.degraded", run.degraded as f64);
}

fn host_probes(r: &mut Report, n: usize) {
    r.set("host.copy_gbps", host::copy_gbps(n, 31));
    r.set("host.fma_gflops", host::fma_gflops(21));
}

/// Replay, allocation, planner and regret probes on `plan`. Returns the
/// plan's median `execute` time in seconds.
fn layer_probes(
    r: &mut Report,
    plan: &DftPlan,
    x: &[Complex64],
    oracle: &DftOracle,
    budget: f64,
) -> f64 {
    let n = plan.n();
    let cfg = default_planner();
    let mut plan_t = Vec::new();
    let mut compile_t = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let outcome = try_plan_dft(n, &cfg);
        plan_t.push(t0.elapsed());
        if let Err(e) = outcome {
            r.check("plan", Err(e.to_string()));
        }
        let t0 = Instant::now();
        let compiled = DftPlan::new(plan.tree().clone(), plan.direction());
        compile_t.push(t0.elapsed());
        std::hint::black_box(&compiled);
    }
    r.set("planner.plan_ms", 1e3 * med_s(&plan_t));
    r.set("core.compile_ms", 1e3 * med_s(&compile_t));
    r.set(
        "core.plan_bytes",
        (plan.twiddle_points() as u64 * POINT_BYTES) as f64,
    );

    let replay = Replay::new(plan);
    let mut y = vec![Complex64::ZERO; n];
    let mut y2 = vec![Complex64::ZERO; n];
    let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
    let mut replay_scratch = vec![Complex64::ZERO; replay.scratch_len()];

    // Plain: `execute` (allocating) against `execute_with_scratch`.
    let (mut plain, mut reused) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.len() < 5 || start.elapsed().as_secs_f64() < 0.25 * budget {
        let t0 = Instant::now();
        let res = plan.try_execute(x, &mut y);
        plain.push(t0.elapsed());
        r.check(
            "execute",
            res.map_err(|e| e.to_string())
                .and_then(|()| oracle.check(&y)),
        );
        let t0 = Instant::now();
        plan.execute_with_scratch(x, &mut y2, &mut scratch);
        reused.push(t0.elapsed());
        r.check(
            "execute_with_scratch",
            if y2 == y {
                Ok(())
            } else {
                Err("differs from execute".into())
            },
        );
    }

    // Traced: the spanned replay, whose output must equal `execute`'s
    // (`y` holds it from the plain loop).
    let (mut replays, mut replay_wall) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while replays.len() < 5 || start.elapsed().as_secs_f64() < 0.35 * budget {
        let mut times = LayerTimes::default();
        let t0 = Instant::now();
        replay.run(x, &mut y2, &mut replay_scratch, &mut times);
        replay_wall.push(t0.elapsed());
        replays.push(times);
        r.check(
            "replay",
            if y2 == y {
                Ok(())
            } else {
                Err("replay output differs from execute".into())
            },
        );
    }
    let field = |f: fn(&LayerTimes) -> u64| -> f64 {
        med(&replays
            .iter()
            .map(|t| f(t) as f64 * 1e-9)
            .collect::<Vec<_>>())
    };
    let one = replays[0];
    let (leaf_s, tw_s, reorg_s) = (
        field(|t| t.leaf_ns),
        field(|t| t.twiddle_ns),
        field(|t| t.reorg_ns),
    );
    let spans_s = field(LayerTimes::attributed_ns);
    let (e, w, traced) = (med_s(&plain), med_s(&reused), med_s(&replay_wall));
    r.note(format!(
        "replay of {}: {} spans per replay, {} replays, median replay wall {:.3} ms",
        dynamic_data_layout::prelude::print_dft(plan.tree()),
        one.spans,
        replays.len(),
        1e3 * traced
    ));
    r.set("kernels.leaf_ms", 1e3 * leaf_s);
    r.set("kernels.leaf_calls", one.leaf_calls as f64);
    r.set("kernels.leaf_gflops", one.leaf_flops as f64 / leaf_s / 1e9);
    r.set("kernels.twiddle_ms", 1e3 * tw_s);
    r.set("kernels.twiddle_points", one.twiddle_points as f64);
    r.set(
        "kernels.twiddle_gbps",
        3.0 * (POINT_BYTES * one.twiddle_points) as f64 / tw_s / 1e9,
    );
    r.set("layout.reorg_ms", 1e3 * reorg_s);
    r.set("layout.reorg_points", one.reorg_points as f64);
    r.set(
        "layout.reorg_gbps",
        if one.reorg_points == 0 {
            0.0
        } else {
            2.0 * (POINT_BYTES * one.reorg_points) as f64 / reorg_s / 1e9
        },
    );
    r.set("core.scratch_alloc_ms", 1e3 * (e - w));
    r.set("core.glue_ms", 1e3 * (w - spans_s));
    r.set("core.unattributed_share", (w - spans_s) / e);
    r.set("core.replay_ratio", spans_s / w);
    r.set(
        "core.bytes_moved_computed",
        one.bytes_moved(replay.leaf_points()) as f64,
    );
    r.set("trace.overhead_ratio", traced / w);

    regret_probe(r, plan, x, oracle, 0.4 * budget);
    e
}

/// `planner.regret`: the chosen plan's median time over the best of the
/// SDL tree, the DDL tree, radix-2 and the balanced six-step, minus one.
fn regret_probe(r: &mut Report, plan: &DftPlan, x: &[Complex64], oracle: &DftOracle, budget: f64) {
    let n = plan.n();
    let dir = Direction::Forward;
    let tree_plan = |cfg: PlannerConfig| -> Result<DftPlan, String> {
        let o = try_plan_dft(n, &cfg).map_err(|e| e.to_string())?;
        DftPlan::new(o.tree, dir).map_err(|e| e.to_string())
    };
    let (sdl, ddl, six) = match (
        tree_plan(PlannerConfig::sdl_analytical()),
        tree_plan(PlannerConfig::ddl_analytical()),
        SixStepPlan::balanced(n, dir, &default_planner()).map_err(|e| e.to_string()),
    ) {
        (Ok(s), Ok(d), Ok(six)) => (s, d, six),
        (a, b, c) => {
            let e = [a.err(), b.err(), c.err()].into_iter().flatten().next();
            return r.check("regret candidates", Err(e.unwrap_or_default()));
        }
    };
    let ddl_is_chosen = ddl.tree() == plan.tree();
    let mut y = vec![Complex64::ZERO; n];
    let mut buf = vec![Complex64::ZERO; n];
    let mut scratch = Vec::new();
    const NAMES: [&str; 5] = ["chosen", "sdl", "ddl", "radix-2", "six-step"];
    // Tree plans reuse scratch, so regret compares trees rather than
    // allocation; six-step allocates its work buffer internally.
    let mut t: [Vec<Duration>; 5] = Default::default();
    let start = Instant::now();
    let mut round = 0;
    while round < 3 || start.elapsed().as_secs_f64() < budget {
        for k in 0..5 {
            let c = (k + round) % 5;
            if c == 2 && ddl_is_chosen {
                continue;
            }
            if c == 3 {
                buf.copy_from_slice(x);
            }
            let t0 = Instant::now();
            let res = match c {
                0..=2 => {
                    [plan, &sdl, &ddl][c].execute_with_scratch(x, &mut y, &mut scratch);
                    Ok(())
                }
                3 => {
                    fft_radix2_inplace(&mut buf, dir);
                    Ok(())
                }
                _ => six.try_execute(x, &mut y),
            };
            t[c].push(t0.elapsed());
            if round > 0 {
                continue;
            }
            if c == 3 {
                // Radix-2 is a timing baseline, not an operation of any
                // workload. Its twiddles come from a running product, whose
                // error grows with the butterfly span, so its accuracy is
                // logged rather than counted.
                let accuracy = oracle.check(&buf).err().unwrap_or_else(|| "ok".into());
                r.note(format!("radix-2 baseline accuracy at n={n}: {accuracy}"));
            } else {
                r.check(
                    NAMES[c],
                    res.map_err(|e| e.to_string())
                        .and_then(|()| oracle.check(&y)),
                );
            }
        }
        round += 1;
    }
    if ddl_is_chosen {
        t[2] = t[0].clone();
    }
    let m: Vec<f64> = t.iter().map(|v| med_s(v)).collect();
    let best = m[1..].iter().copied().fold(f64::INFINITY, f64::min);
    r.note(format!(
        "regret: chosen {:.3} ms; sdl {:.3}, ddl {:.3}, radix-2 {:.3}, six-step {:.3} ms over {round} rounds",
        1e3 * m[0],
        1e3 * m[1],
        1e3 * m[2],
        1e3 * m[3],
        1e3 * m[4]
    ));
    r.set("planner.regret", m[0] / best - 1.0);
}
