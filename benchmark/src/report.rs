//! Metric names, units and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: every plain run reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("exec_ms_p50", "ms"),
    ("exec_ms_p90", "ms"),
    ("gflops", "GFLOP/s"),
    ("vs_radix2", "ratio"),
    ("latency_ms_p50", "ms"),
    ("goodput_rps", "1/s"),
];

/// Per-layer metrics: every traced run reports each of them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernels.leaf_ms", "ms"),
    ("kernels.leaf_calls", "count"),
    ("kernels.leaf_gflops", "GFLOP/s"),
    ("kernels.twiddle_ms", "ms"),
    ("kernels.twiddle_points", "count"),
    ("kernels.twiddle_gbps", "GB/s"),
    ("layout.reorg_ms", "ms"),
    ("layout.reorg_points", "count"),
    ("layout.reorg_gbps", "GB/s"),
    ("core.scratch_alloc_ms", "ms"),
    ("core.glue_ms", "ms"),
    ("core.unattributed_share", "ratio"),
    ("core.replay_ratio", "ratio"),
    ("core.compile_ms", "ms"),
    ("core.plan_bytes", "bytes"),
    ("core.bytes_moved_computed", "bytes"),
    ("planner.plan_ms", "ms"),
    ("planner.regret", "ratio"),
    ("engine.lookup_us", "us"),
    ("engine.hit_ratio", "ratio"),
    ("serve.submit_us", "us"),
    ("serve.exec_share", "ratio"),
    ("serve.worker_busy", "ratio"),
    ("serve.shed", "count"),
    ("serve.slo_miss_frac", "ratio"),
    ("serve.latency_ms_p99", "ms"),
    ("gen.lag_ms_p99", "ms"),
    ("scheduler.speedup_2t", "ratio"),
    ("scheduler.efficiency", "ratio"),
    ("scheduler.steals", "count"),
    ("scheduler.degraded", "count"),
    ("host.copy_gbps", "GB/s"),
    ("host.fma_gflops", "GFLOP/s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Operations attempted and failed, metric values and log lines of one
/// run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: timed calls, requests, batches and
    /// correctness checks made outside the timed region.
    pub attempted: u64,
    /// Operations that returned an error or failed a check.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    log: Vec<String>,
    errors: Vec<String>,
}

impl Report {
    /// Records one value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a line to the human-readable log.
    pub fn note(&mut self, line: String) {
        self.log.push(line);
    }

    /// Counts one attempted operation and its outcome; the first ten
    /// failures are kept for the log.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 10 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }

    /// Renders the log, a table of `wanted` metrics and, as the last
    /// line, the JSON result. A missing or non-finite metric makes the
    /// run incorrect.
    pub fn render(&self, header: &[String], wanted: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for line in header.iter().chain(&self.log) {
            out.push_str(&format!("# {line}\n"));
        }
        for e in &self.errors {
            out.push_str(&format!("# FAILED {e}\n"));
        }
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut json = Vec::new();
        for (name, unit) in wanted {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                other => {
                    correct = false;
                    out.push_str(&format!("# FAILED metric {name} is {other:?}\n"));
                    0.0
                }
            };
            out.push_str(&format!("{name:<28} {value:>16.6} {unit}\n"));
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str(&format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn lists_match_the_benchmark_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        for (list, key) in [(END_TO_END, "end_to_end"), (PER_LAYER, "per_layer")] {
            let section = text.split(&format!("\"{key}\"")).nth(1).unwrap();
            let section = &section[..section.find(']').unwrap()];
            let names: Vec<&str> = section
                .split("\"name\": \"")
                .skip(1)
                .map(|s| &s[..s.find('"').unwrap()])
                .collect();
            let want: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, want, "{key}");
            for (name, unit) in list.iter() {
                let entry = section
                    .split(&format!("\"name\": \"{name}\""))
                    .nth(1)
                    .unwrap();
                assert!(
                    entry
                        .trim_start()
                        .starts_with(&format!(", \"unit\": \"{unit}\"")),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn result_line_is_last_and_counts_failures() {
        let mut r = Report::default();
        r.set("setup_s", 0.5);
        r.check("ok op", Ok(()));
        r.check("bad op", Err("bin 3".into()));
        let out = r.render(&["hdr".into()], &[("setup_s", "s")]);
        let last = out.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(out.contains("# FAILED bad op: bin 3"));
    }
}
