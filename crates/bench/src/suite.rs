//! The pinned benchmark suite behind the `bench_suite` binary: a fixed
//! set of transform cases measured with noise controls (warm-up run,
//! median-of-k repeats), stamped with an environment header, and
//! serialized under the versioned `ddl-bench` schema so successive runs
//! form a comparable performance trajectory.
//!
//! A report can be compared against a stored baseline with [`compare`]:
//! per-case median ratios beyond the noise tolerance are flagged as
//! regressions (or improvements), and cases present on only one side are
//! reported rather than silently dropped.

use crate::host;
use ddl_core::json::{self, Json};
use ddl_core::planner::{try_plan_dft, try_plan_wht, PlannerConfig, Strategy};
use ddl_core::wisdom::Wisdom;
use ddl_core::{try_execute_dft_batch, BackendKind, DftPlan, WhtPlan};
use ddl_num::{Complex64, DdlError, Direction};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Schema identifier stamped into every benchmark report.
pub const BENCH_SCHEMA: &str = "ddl-bench";
/// Current schema version; bump on breaking layout changes.
pub const BENCH_VERSION: u64 = 1;

/// Transform size of the batch-engine and wisdom-hit cases.
const SERVICE_CASE_N: usize = 1 << 12;
/// Signals per batch in the batch-engine case.
const BATCH_SIGNALS: usize = 8;
/// Worker threads in the batch-engine case.
const BATCH_THREADS: usize = 2;

/// Environment header identifying the host a report was measured on —
/// the analogue of the paper's platform tables, so trajectories are only
/// compared within a matching environment.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEnv {
    /// CPU model string from `/proc/cpuinfo` (or "unknown").
    pub cpu: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// Architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// `rustc --version` of the toolchain that built the suite.
    pub rustc: String,
    /// Git commit the working tree was at, or "unknown".
    pub git_sha: String,
    /// Data-cache geometry: `(level, size_bytes, line_bytes, ways)`.
    pub caches: Vec<host::CacheDesc>,
}

/// Collects the environment header from the running host.
pub fn collect_env() -> BenchEnv {
    BenchEnv {
        cpu: host::cpu_model(),
        os: std::env::consts::OS.to_string(),
        arch: std::env::consts::ARCH.to_string(),
        rustc: host::rustc_version(),
        git_sha: host::git_sha(),
        caches: host::caches(),
    }
}

/// One measured case: `repeats` timed executions (after one warm-up),
/// summarized as median / min / max nanoseconds per execution.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchCase {
    /// Stable identifier baselines are matched on, e.g. `dft-ddl-n4096`
    /// (scalar) or `dft-ddl-n4096-simd`.
    pub id: String,
    /// `dft` | `wht` | `dft-batch` | `wisdom`.
    pub transform: String,
    /// `sdl` | `ddl`.
    pub strategy: String,
    /// Execution backend the case ran on: `scalar` | `simd` (`interp` in
    /// reports written while the DAG-interpreter lowering existed).
    /// Additive in schema version 1; absent in older reports (= scalar).
    pub backend: String,
    /// Transform size in points.
    pub n: usize,
    /// Measured repetitions behind the summary statistics.
    pub repeats: u32,
    /// Median wall-clock nanoseconds over the repeats.
    pub median_ns: f64,
    /// Fastest repeat.
    pub min_ns: f64,
    /// Slowest repeat.
    pub max_ns: f64,
}

/// A full suite run: label, mode, environment header and measured cases.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Free-form run label (`--label`), e.g. a branch name or date.
    pub label: String,
    /// Whether this was a `--quick` run (smaller sizes, fewer repeats);
    /// quick and full reports are not comparable.
    pub quick: bool,
    /// Host environment the numbers were measured on.
    pub env: BenchEnv,
    /// Measured cases in suite order.
    pub cases: Vec<BenchCase>,
}

/// Suite parameters.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// Run label recorded in the report.
    pub label: String,
    /// Quick mode: CI-sized subset of sizes and repeats.
    pub quick: bool,
    /// Timed repetitions per case (median-of-k noise control).
    pub repeats: u32,
}

impl SuiteConfig {
    /// Config with the default repeat count for the mode.
    pub fn new(label: &str, quick: bool) -> Self {
        SuiteConfig {
            label: label.to_string(),
            quick,
            repeats: default_repeats(quick),
        }
    }
}

/// Default median-of-k repeat count: 3 in quick mode, 7 in full mode.
pub fn default_repeats(quick: bool) -> u32 {
    if quick {
        3
    } else {
        7
    }
}

/// The pinned size sweep (log2): `4..=20` stepping by 2 in full mode, a
/// three-point subset in quick mode. Both cover the paper's in-cache /
/// out-of-cache transition on typical hosts.
pub fn suite_log_sizes(quick: bool) -> Vec<u32> {
    if quick {
        vec![4, 8, 12]
    } else {
        (4..=20).step_by(2).collect()
    }
}

/// Runs the pinned suite: every `(transform, strategy, size)` triple
/// from [`suite_log_sizes`] on the scalar backend, the DDL DFT column
/// repeated on the `simd` backend, plus one batch-engine case (on the
/// host's default lowering) and one wisdom-hit case. Plans use the
/// analytical model so the *measured* quantity is execution, not planner
/// noise.
pub fn run_suite(cfg: &SuiteConfig) -> Result<BenchReport, DdlError> {
    let mut cases = Vec::new();
    for &log in &suite_log_sizes(cfg.quick) {
        let n = 1usize << log;
        for strategy in [Strategy::Sdl, Strategy::Ddl] {
            cases.push(dft_case(n, strategy, BackendKind::Scalar, cfg.repeats)?);
            cases.push(wht_case(n, strategy, cfg.repeats)?);
        }
        cases.push(dft_case(n, Strategy::Ddl, BackendKind::Simd, cfg.repeats)?);
    }
    cases.push(batch_case(cfg.repeats)?);
    cases.push(wisdom_case(cfg.repeats)?);
    Ok(BenchReport {
        label: cfg.label.clone(),
        quick: cfg.quick,
        env: collect_env(),
        cases,
    })
}

fn planner_cfg(strategy: Strategy) -> PlannerConfig {
    match strategy {
        Strategy::Sdl => PlannerConfig::sdl_analytical(),
        Strategy::Ddl => PlannerConfig::ddl_analytical(),
    }
}

/// Deterministic non-constant input so executions touch real data.
fn dft_input(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new((i % 7) as f64, (i % 5) as f64 * -0.5))
        .collect()
}

fn wht_input(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i % 17) as f64 - 8.0).collect()
}

/// One warm-up call, then `repeats` timed calls; returns
/// `(median, min, max)` nanoseconds.
fn time_median_ns<F>(repeats: u32, mut f: F) -> Result<(f64, f64, f64), DdlError>
where
    F: FnMut() -> Result<(), DdlError>,
{
    f()?; // warm-up: page in buffers, twiddles and code
    let reps = repeats.max(1);
    let mut samples = Vec::with_capacity(reps as usize);
    for _ in 0..reps {
        let t0 = Instant::now();
        f()?;
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    Ok(summary(&mut samples))
}

/// Sorts in place and returns `(median, min, max)`; zeros when empty.
fn summary(samples: &mut [f64]) -> (f64, f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let min = samples.first().copied().unwrap_or(0.0);
    let max = samples.last().copied().unwrap_or(0.0);
    let median = match samples.len() {
        0 => 0.0,
        len if len % 2 == 1 => samples[len / 2],
        len => (samples[len / 2 - 1] + samples[len / 2]) / 2.0,
    };
    (median, min, max)
}

/// Measures one DFT case on an explicit execution backend. Scalar keeps
/// the historical un-suffixed case id so stored baselines keep matching;
/// other backends suffix the id with their label.
pub fn dft_case(
    n: usize,
    strategy: Strategy,
    backend: BackendKind,
    repeats: u32,
) -> Result<BenchCase, DdlError> {
    let outcome = try_plan_dft(n, &planner_cfg(strategy))?;
    let plan = DftPlan::with_backend(outcome.tree, Direction::Forward, backend)?;
    let input = dft_input(n);
    let mut output = vec![Complex64::ZERO; n];
    let (median_ns, min_ns, max_ns) =
        time_median_ns(repeats, || plan.try_execute(&input, &mut output))?;
    let id = match backend {
        BackendKind::Scalar => format!("dft-{}-n{n}", strategy.label()),
        other => format!("dft-{}-n{n}-{}", strategy.label(), other.label()),
    };
    Ok(BenchCase {
        id,
        transform: "dft".into(),
        strategy: strategy.label().into(),
        backend: backend.label().into(),
        n,
        repeats,
        median_ns,
        min_ns,
        max_ns,
    })
}

fn wht_case(n: usize, strategy: Strategy, repeats: u32) -> Result<BenchCase, DdlError> {
    let outcome = try_plan_wht(n, &planner_cfg(strategy))?;
    let plan = WhtPlan::new(outcome.tree)?;
    let base = wht_input(n);
    let mut data = base.clone();
    let (median_ns, min_ns, max_ns) = time_median_ns(repeats, || {
        // In-place transform: restore the input so every repeat runs the
        // same numbers (the copy is timed, uniformly across repeats).
        data.copy_from_slice(&base);
        plan.try_execute(&mut data)
    })?;
    Ok(BenchCase {
        id: format!("wht-{}-n{n}", strategy.label()),
        transform: "wht".into(),
        strategy: strategy.label().into(),
        backend: BackendKind::Scalar.label().into(),
        n,
        repeats,
        median_ns,
        min_ns,
        max_ns,
    })
}

/// Batch engine: [`BATCH_SIGNALS`] independent DFTs over
/// [`BATCH_THREADS`] workers — covers queueing plus panic containment
/// overhead, the extension path the per-plan cases miss.
fn batch_case(repeats: u32) -> Result<BenchCase, DdlError> {
    let n = SERVICE_CASE_N;
    let outcome = try_plan_dft(n, &planner_cfg(Strategy::Ddl))?;
    let plan = DftPlan::new(outcome.tree, Direction::Forward)?;
    let inputs = dft_input(n * BATCH_SIGNALS);
    let mut outputs = vec![Complex64::ZERO; n * BATCH_SIGNALS];
    let (median_ns, min_ns, max_ns) = time_median_ns(repeats, || {
        try_execute_dft_batch(&plan, &inputs, &mut outputs, BATCH_THREADS).map(|_| ())
    })?;
    Ok(BenchCase {
        id: format!("dft-batch-n{n}-s{BATCH_SIGNALS}-t{BATCH_THREADS}"),
        transform: "dft-batch".into(),
        strategy: Strategy::Ddl.label().into(),
        backend: plan.backend().label().into(),
        n,
        repeats,
        median_ns,
        min_ns,
        max_ns,
    })
}

/// Wisdom hit path: recall of an already-planned tree, the latency every
/// warm-start consumer pays instead of a search.
fn wisdom_case(repeats: u32) -> Result<BenchCase, DdlError> {
    let n = SERVICE_CASE_N;
    let cfg = planner_cfg(Strategy::Ddl);
    let mut wisdom = Wisdom::default();
    wisdom.get_or_plan_dft(n, &cfg)?; // populate: miss + plan
    let (median_ns, min_ns, max_ns) =
        time_median_ns(repeats, || wisdom.get_or_plan_dft(n, &cfg).map(|_| ()))?;
    Ok(BenchCase {
        id: format!("wisdom-hit-dft-n{n}"),
        transform: "wisdom".into(),
        strategy: Strategy::Ddl.label().into(),
        backend: BackendKind::Scalar.label().into(),
        n,
        repeats,
        median_ns,
        min_ns,
        max_ns,
    })
}

// --- serialization ---------------------------------------------------

fn bench_err(detail: String) -> DdlError {
    DdlError::Metrics { detail }
}

impl BenchEnv {
    fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("cpu".into(), Json::Str(self.cpu.clone()));
        m.insert("os".into(), Json::Str(self.os.clone()));
        m.insert("arch".into(), Json::Str(self.arch.clone()));
        m.insert("rustc".into(), Json::Str(self.rustc.clone()));
        m.insert("git_sha".into(), Json::Str(self.git_sha.clone()));
        m.insert(
            "caches".into(),
            Json::Arr(
                self.caches
                    .iter()
                    .map(|&(level, size, line, ways)| {
                        let mut c = BTreeMap::new();
                        c.insert("level".into(), Json::Num(level as f64));
                        c.insert("size_bytes".into(), Json::Num(size as f64));
                        c.insert("line_bytes".into(), Json::Num(line as f64));
                        c.insert("ways".into(), Json::Num(ways as f64));
                        Json::Obj(c)
                    })
                    .collect(),
            ),
        );
        Json::Obj(m)
    }

    fn from_json(v: &Json, path: &str) -> Result<BenchEnv, DdlError> {
        let m = obj(v, path)?;
        let mut caches = Vec::new();
        if let Some(arr) = m.get("caches") {
            let items = match arr {
                Json::Arr(items) => items,
                _ => return Err(bench_err(format!("{path}.caches: not an array"))),
            };
            for (i, c) in items.iter().enumerate() {
                let cpath = format!("{path}.caches[{i}]");
                let cm = obj(c, &cpath)?;
                caches.push((
                    get_u64(cm, &cpath, "level")? as u32,
                    get_u64(cm, &cpath, "size_bytes")? as usize,
                    get_u64(cm, &cpath, "line_bytes")? as usize,
                    get_u64(cm, &cpath, "ways")? as usize,
                ));
            }
        }
        Ok(BenchEnv {
            cpu: get_str(m, path, "cpu")?,
            os: get_str(m, path, "os")?,
            arch: get_str(m, path, "arch")?,
            rustc: get_str(m, path, "rustc")?,
            git_sha: get_str(m, path, "git_sha")?,
            caches,
        })
    }
}

impl BenchCase {
    fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("id".into(), Json::Str(self.id.clone()));
        m.insert("transform".into(), Json::Str(self.transform.clone()));
        m.insert("strategy".into(), Json::Str(self.strategy.clone()));
        m.insert("backend".into(), Json::Str(self.backend.clone()));
        m.insert("n".into(), Json::Num(self.n as f64));
        m.insert("repeats".into(), Json::Num(self.repeats as f64));
        m.insert("median_ns".into(), Json::Num(self.median_ns));
        m.insert("min_ns".into(), Json::Num(self.min_ns));
        m.insert("max_ns".into(), Json::Num(self.max_ns));
        Json::Obj(m)
    }

    fn from_json(v: &Json, path: &str) -> Result<BenchCase, DdlError> {
        let m = obj(v, path)?;
        // `backend` is additive (execution backends landed after v1
        // reports existed): absent means the only backend of that era.
        let backend = m
            .get("backend")
            .and_then(Json::as_str)
            .unwrap_or("scalar")
            .to_string();
        if !matches!(backend.as_str(), "scalar" | "interp" | "simd") {
            return Err(bench_err(format!(
                "{path}.backend: unknown backend \"{backend}\" (want scalar|interp|simd)"
            )));
        }
        let case = BenchCase {
            id: get_str(m, path, "id")?,
            transform: get_str(m, path, "transform")?,
            strategy: get_str(m, path, "strategy")?,
            backend,
            n: get_u64(m, path, "n")? as usize,
            repeats: get_u64(m, path, "repeats")? as u32,
            median_ns: get_f64(m, path, "median_ns")?,
            min_ns: get_f64(m, path, "min_ns")?,
            max_ns: get_f64(m, path, "max_ns")?,
        };
        for (key, val) in [
            ("median_ns", case.median_ns),
            ("min_ns", case.min_ns),
            ("max_ns", case.max_ns),
        ] {
            if !val.is_finite() || val < 0.0 {
                return Err(bench_err(format!(
                    "{path}.{key}: not a finite non-negative number"
                )));
            }
        }
        Ok(case)
    }
}

impl BenchReport {
    /// Serializes under the `ddl-bench` schema.
    pub fn to_json(&self) -> Json {
        let mut top = BTreeMap::new();
        top.insert("schema".into(), Json::Str(BENCH_SCHEMA.into()));
        top.insert("version".into(), Json::Num(BENCH_VERSION as f64));
        top.insert("label".into(), Json::Str(self.label.clone()));
        top.insert("quick".into(), Json::Bool(self.quick));
        top.insert("env".into(), self.env.to_json());
        top.insert(
            "cases".into(),
            Json::Arr(self.cases.iter().map(BenchCase::to_json).collect()),
        );
        Json::Obj(top)
    }

    /// Pretty-printed JSON text of [`BenchReport::to_json`].
    pub fn to_pretty_json(&self) -> String {
        self.to_json().pretty()
    }

    /// Parses and validates a report, reporting violations with the JSON
    /// path of the offending field (e.g. `$.cases[3].median_ns`).
    pub fn parse(text: &str) -> Result<BenchReport, DdlError> {
        let v = json::parse(text).map_err(|e| bench_err(format!("$: {e}")))?;
        let top = obj(&v, "$")?;
        match top.get("schema").and_then(Json::as_str) {
            Some(s) if s == BENCH_SCHEMA => {}
            Some(s) => {
                return Err(bench_err(format!(
                    "$.schema: expected \"{BENCH_SCHEMA}\", got \"{s}\""
                )))
            }
            None => return Err(bench_err("$.schema: missing or non-string".into())),
        }
        match top.get("version").and_then(Json::as_u64) {
            Some(v) if v == BENCH_VERSION => {}
            Some(v) => {
                return Err(bench_err(format!(
                    "$.version: unsupported version {v} (expected {BENCH_VERSION})"
                )))
            }
            None => return Err(bench_err("$.version: missing or non-integer".into())),
        }
        let label = get_str(top, "$", "label")?;
        let quick = get_bool(top, "$", "quick")?;
        let env = BenchEnv::from_json(
            top.get("env")
                .ok_or_else(|| bench_err("$.env: missing".into()))?,
            "$.env",
        )?;
        let items = match top.get("cases") {
            Some(Json::Arr(items)) => items,
            _ => return Err(bench_err("$.cases: missing or non-array".into())),
        };
        let mut cases = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            cases.push(BenchCase::from_json(item, &format!("$.cases[{i}]"))?);
        }
        Ok(BenchReport {
            label,
            quick,
            env,
            cases,
        })
    }

    /// Writes the pretty JSON to `path`.
    pub fn write(&self, path: &Path) -> Result<(), DdlError> {
        std::fs::write(path, self.to_pretty_json())
            .map_err(|e| bench_err(format!("cannot write {}: {e}", path.display())))
    }
}

// --- baseline comparison ---------------------------------------------

/// Default relative tolerance for median comparisons: quick CI runners
/// are noisy, so a generous band avoids false gates.
pub const DEFAULT_TOLERANCE: f64 = 0.5;

/// One case whose median moved beyond the tolerance.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseDelta {
    /// Case identifier.
    pub id: String,
    /// Baseline median nanoseconds.
    pub baseline_ns: f64,
    /// Current median nanoseconds.
    pub current_ns: f64,
    /// `current / baseline` (infinite if the baseline median is zero).
    pub ratio: f64,
}

/// Outcome of [`compare`]: per-case verdicts plus coverage drift.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Comparison {
    /// Cases slower than `baseline * (1 + tolerance)`.
    pub regressions: Vec<CaseDelta>,
    /// Cases faster than `baseline * (1 - tolerance)`.
    pub improvements: Vec<CaseDelta>,
    /// Case ids present in the baseline but absent from the current run.
    pub missing: Vec<String>,
    /// Case ids present in the current run but absent from the baseline.
    pub added: Vec<String>,
}

impl Comparison {
    /// A comparison passes when nothing regressed and no baseline case
    /// disappeared (new cases are fine — the suite grew).
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }
}

/// Compares `current` against `baseline` by case id. A case regresses
/// when its median exceeds the baseline median by more than `tolerance`
/// (relative); symmetric for improvements.
pub fn compare(current: &BenchReport, baseline: &BenchReport, tolerance: f64) -> Comparison {
    let mut out = Comparison::default();
    let current_by_id: BTreeMap<&str, &BenchCase> =
        current.cases.iter().map(|c| (c.id.as_str(), c)).collect();
    for base in &baseline.cases {
        let Some(cur) = current_by_id.get(base.id.as_str()) else {
            out.missing.push(base.id.clone());
            continue;
        };
        let ratio = if base.median_ns > 0.0 {
            cur.median_ns / base.median_ns
        } else if cur.median_ns > 0.0 {
            f64::INFINITY
        } else {
            1.0
        };
        let delta = CaseDelta {
            id: base.id.clone(),
            baseline_ns: base.median_ns,
            current_ns: cur.median_ns,
            ratio,
        };
        if ratio > 1.0 + tolerance {
            out.regressions.push(delta);
        } else if ratio < 1.0 - tolerance {
            out.improvements.push(delta);
        }
    }
    let baseline_ids: std::collections::BTreeSet<&str> =
        baseline.cases.iter().map(|c| c.id.as_str()).collect();
    for cur in &current.cases {
        if !baseline_ids.contains(cur.id.as_str()) {
            out.added.push(cur.id.clone());
        }
    }
    out
}

// --- decoding helpers (local: ddl-core's are crate-private) -----------

fn obj<'a>(v: &'a Json, path: &str) -> Result<&'a BTreeMap<String, Json>, DdlError> {
    v.as_obj()
        .ok_or_else(|| bench_err(format!("{path}: not an object")))
}

fn get_str(m: &BTreeMap<String, Json>, path: &str, key: &str) -> Result<String, DdlError> {
    m.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| bench_err(format!("{path}.{key}: missing or non-string")))
}

fn get_u64(m: &BTreeMap<String, Json>, path: &str, key: &str) -> Result<u64, DdlError> {
    m.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| bench_err(format!("{path}.{key}: missing or non-integer")))
}

fn get_f64(m: &BTreeMap<String, Json>, path: &str, key: &str) -> Result<f64, DdlError> {
    m.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| bench_err(format!("{path}.{key}: missing or non-number")))
}

fn get_bool(m: &BTreeMap<String, Json>, path: &str, key: &str) -> Result<bool, DdlError> {
    match m.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(bench_err(format!("{path}.{key}: missing or non-boolean"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(id: &str, median: f64) -> BenchCase {
        BenchCase {
            id: id.into(),
            transform: "dft".into(),
            strategy: "ddl".into(),
            backend: "scalar".into(),
            n: 64,
            repeats: 3,
            median_ns: median,
            min_ns: median * 0.9,
            max_ns: median * 1.1,
        }
    }

    fn report(cases: Vec<BenchCase>) -> BenchReport {
        BenchReport {
            label: "test".into(),
            quick: true,
            env: collect_env(),
            cases,
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report(vec![case("dft-ddl-n64", 1234.5), case("wht-sdl-n64", 99.0)]);
        let parsed = BenchReport::parse(&r.to_pretty_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn schema_violations_name_the_path() {
        let r = report(vec![case("dft-ddl-n64", 10.0)]);
        let good = r.to_pretty_json();
        for (needle, bad) in [
            ("$.schema", good.replace("\"ddl-bench\"", "\"other\"")),
            (
                "$.version",
                good.replace("\"version\": 1", "\"version\": 9"),
            ),
            ("$.label", good.replace("\"label\"", "\"labell\"")),
            (
                "$.cases[0].median_ns",
                good.replace("\"median_ns\": 10", "\"median_ns\": -10"),
            ),
            (
                "$.cases[0].repeats",
                good.replace("\"repeats\": 3", "\"repeats\": \"three\""),
            ),
        ] {
            let err = BenchReport::parse(&bad).unwrap_err().to_string();
            assert!(err.contains(needle), "wanted {needle} in: {err}");
        }
    }

    #[test]
    fn summary_handles_odd_even_and_empty() {
        assert_eq!(summary(&mut []), (0.0, 0.0, 0.0));
        assert_eq!(summary(&mut [5.0, 1.0, 3.0]), (3.0, 1.0, 5.0));
        assert_eq!(summary(&mut [4.0, 2.0]), (3.0, 2.0, 4.0));
    }

    #[test]
    fn compare_flags_regressions_and_coverage_drift() {
        let base = report(vec![case("a", 100.0), case("b", 100.0), case("gone", 1.0)]);
        let cur = report(vec![case("a", 200.0), case("b", 40.0), case("new", 1.0)]);
        let cmp = compare(&cur, &base, 0.5);
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(cmp.regressions[0].id, "a");
        assert!((cmp.regressions[0].ratio - 2.0).abs() < 1e-12);
        assert_eq!(cmp.improvements.len(), 1);
        assert_eq!(cmp.improvements[0].id, "b");
        assert_eq!(cmp.missing, vec!["gone".to_string()]);
        assert_eq!(cmp.added, vec!["new".to_string()]);
        assert!(!cmp.passed());
    }

    #[test]
    fn removed_cases_fail_even_without_regressions() {
        // Every surviving case is stable or faster; only the coverage
        // shrank. A silently vanished case is still a failed comparison —
        // a deleted benchmark would otherwise hide its own regression.
        let base = report(vec![case("a", 100.0), case("gone", 50.0)]);
        let cur = report(vec![case("a", 90.0)]);
        let cmp = compare(&cur, &base, 0.5);
        assert!(cmp.regressions.is_empty());
        assert_eq!(cmp.missing, vec!["gone".to_string()]);
        assert!(!cmp.passed());
    }

    #[test]
    fn self_comparison_passes() {
        let r = report(vec![case("a", 100.0), case("b", 0.0)]);
        let cmp = compare(&r, &r, 0.1);
        assert!(cmp.passed());
        assert!(cmp.regressions.is_empty() && cmp.improvements.is_empty());
        assert!(cmp.missing.is_empty() && cmp.added.is_empty());
    }

    #[test]
    fn quick_suite_runs_end_to_end() {
        let cfg = SuiteConfig {
            label: "unit".into(),
            quick: true,
            repeats: 1,
        };
        let report = run_suite(&cfg).unwrap();
        assert!(report.quick);
        // 3 sizes x (2 transforms x 2 strategies + simd) + batch + wisdom
        assert_eq!(report.cases.len(), 17);
        assert!(report.cases.iter().all(|c| c.median_ns > 0.0));
        assert!(report
            .cases
            .iter()
            .any(|c| c.transform == "dft-batch" || c.transform == "wisdom"));
        for backend in ["scalar", "simd"] {
            assert!(
                report.cases.iter().any(|c| c.backend == backend),
                "suite must cover the {backend} backend"
            );
        }
        // Backend-tagged ids stay distinct from the scalar baseline ids.
        assert!(report.cases.iter().any(|c| c.id == "dft-ddl-n256"));
        assert!(report.cases.iter().any(|c| c.id == "dft-ddl-n256-simd"));
        let batch = report.cases.iter().find(|c| c.transform == "dft-batch");
        assert_eq!(
            batch.map(|c| c.backend.as_str()),
            Some(BackendKind::selected().label()),
            "the batch case reports the lowering it ran on"
        );
        let parsed = BenchReport::parse(&report.to_pretty_json()).unwrap();
        assert_eq!(parsed.cases.len(), report.cases.len());
    }

    #[test]
    fn backend_field_is_additive_in_the_schema() {
        let r = report(vec![case("dft-ddl-n64", 10.0)]);
        let text = r.to_pretty_json();
        assert!(text.contains("\"backend\": \"scalar\""), "always written");
        // A pre-backend report (field absent) still parses as scalar.
        let legacy = text.replace("      \"backend\": \"scalar\",\n", "");
        assert!(!legacy.contains("backend"), "field removed: {legacy}");
        let parsed = BenchReport::parse(&legacy).unwrap();
        assert_eq!(parsed.cases[0].backend, "scalar");
        // An unknown backend label is a schema violation, with the path.
        let bad = text.replace("\"backend\": \"scalar\"", "\"backend\": \"avx512\"");
        let err = BenchReport::parse(&bad).unwrap_err().to_string();
        assert!(err.contains("$.cases[0].backend"), "got: {err}");
    }
}
