//! Metric names, sample statistics, and the benchmark's outputs: the
//! result line, the `rtos-sld-bench/1` results document and the span
//! trace.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use bench::json::Json;
use bench::results::ResultsDoc;
use bench::scenario::ScenarioOutcome;

/// End-to-end metrics, `(name, unit)`, reported by every workload's
/// untraced run. `BENCHMARK.json` lists the same names.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("run_ms_p50", "ms"),
    ("run_ms_p90", "ms"),
    ("points_per_s", "1/s"),
    ("warm_points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, reported by every workload's traced
/// run. A layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("sim.switches", "count"),
    ("sim.resumes", "count"),
    ("sim.timer_ops", "count"),
    ("sim.self_resume_frac", "ratio"),
    ("sim.switch_us", "us"),
    ("sim.switch_us_free", "us"),
    ("sim.resume_ns", "ns"),
    ("sim.spawn_us", "us"),
    ("sim.switch_share", "ratio"),
    ("core.dispatches", "count"),
    ("core.deadline_misses", "count"),
    ("core.select_ns", "ns"),
    ("core.a3_ratio", "ratio"),
    ("vocoder.encode_us", "us"),
    ("vocoder.decode_us", "us"),
    ("vocoder.model_share", "ratio"),
    ("bus.transactions", "count"),
    ("bus.busy_us", "us"),
    ("bus.contended_frac", "ratio"),
    ("bus.max_wait_us", "us"),
    ("iss.assemble_ms", "ms"),
    ("iss.minstr_per_s", "Minstr/s"),
    ("iss.instructions", "count"),
    ("iss.cycles", "count"),
    ("iss.delay_err_pct", "%"),
    ("farm.busy_frac", "ratio"),
    ("farm.speedup_vs_serial", "ratio"),
    ("farm.self_ms", "ms"),
    ("cache.lookup_us", "us"),
    ("cache.miss_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.hit_frac", "ratio"),
    ("cache.corrupt", "count"),
    ("json.render_ms", "ms"),
    ("trace.records", "count"),
    ("trace.ns_per_record", "ns"),
    ("trace.export_ms", "ms"),
    ("trace.analyze_ms", "ms"),
    ("bench.traced_run_ms_p50", "ms"),
    ("bench.unit_self_ms", "ms"),
    ("bench.span_overhead_pct", "%"),
];

/// Median of `xs` (0 when empty).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs` by the nearest-rank rule (0 when empty).
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    bench::stats::percentile_sorted(&v, q * 100.0)
}

/// Milliseconds of a duration.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of this process in MB, from `/proc`.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units (or points) attempted.
    pub attempted: u64,
    /// Units that did not complete or failed their correctness check.
    pub failed: u64,
    /// One message per failed check (the first few are printed).
    pub failures: Vec<String>,
    /// Metric values by name; the reported set is filled in from
    /// [`END_TO_END`] or [`PER_LAYER`], reading 0 where absent.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed check.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        self.failures.push(msg.into());
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The reported metrics of a traced (`per_layer`) or untraced
    /// (`end_to_end`) run, in declaration order.
    #[must_use]
    pub fn reported(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        let names: &[(&'static str, &'static str)] = if traced { &PER_LAYER } else { &END_TO_END };
        names
            .iter()
            .map(|&(n, u)| {
                let v = self.metrics.get(n).copied().unwrap_or(0.0);
                (n, u, if v.is_finite() { v } else { 0.0 })
            })
            .collect()
    }

    /// The last line of standard output.
    #[must_use]
    pub fn result_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .reported(traced)
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Writes the run as an `rtos-sld-bench/1` document (one point
    /// holding the reported metrics), marked `host_dependent`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_doc(
        &self,
        path: &Path,
        workload: &str,
        seed: u64,
        traced: bool,
        headers: &[(&str, Json)],
    ) -> std::io::Result<()> {
        let mut doc = ResultsDoc::new(format!("perfbench_{workload}"), seed);
        doc.header("host_dependent", Json::Bool(true));
        doc.header("traced", Json::Bool(traced));
        for (k, v) in headers {
            doc.header(*k, v.clone());
        }
        let mut metrics: BTreeMap<String, f64> = self
            .reported(traced)
            .into_iter()
            .map(|(n, _, v)| (n.to_string(), v))
            .collect();
        metrics.insert("attempted".into(), self.attempted as f64);
        metrics.insert("failed".into(), self.failed as f64);
        let outcome = ScenarioOutcome {
            status: if self.failed == 0 {
                "completed".into()
            } else {
                format!("{} failed check(s)", self.failed)
            },
            completed: self.failed == 0,
            metrics,
            kernel_stats: None,
            tasks: Vec::new(),
            records: Vec::new(),
            dropped_records: 0,
            host_time: Duration::ZERO,
        };
        let kind = if traced { "per_layer" } else { "end_to_end" };
        doc.push_point(
            kind,
            0,
            Json::obj([("workload", Json::str(workload))]),
            &outcome,
        );
        doc.write(path).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&xs), 5.0);
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_lists_every_metric_once() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("run_ms_p50", 1.5);
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (n, _) in END_TO_END {
            assert_eq!(line.matches(&format!("\"{n}\"")).count(), 1, "{n}");
        }
        assert!(line.contains("\"run_ms_p50\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        let parsed = Json::parse(&line).expect("result line is JSON");
        assert_eq!(parsed.get("failed").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the package");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }
}
