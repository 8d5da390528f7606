//! Validates emitted JSON artifacts by parsing each one with the reader
//! that owns its schema. Exits nonzero on the first invalid file.
//!
//! Usage: `cargo run -p bench --bin trace_lint -- FILE [FILE ...]`
//!
//! | `schema`                 | owning reader                          | passes when                                    |
//! |--------------------------|----------------------------------------|------------------------------------------------|
//! | `rtos-sld-bench/1`       | `results::ResultsDoc::from_json`       | it re-renders to the file's bytes              |
//! | `rtos-sld-cache/1`       | `cache::decode_entry`                  | schema, key (file stem), payload hash, outcome |
//! | `rtos-sld-chaos-repro/2` | `repro::Repro::from_json`              | the failing spec and its failure parse         |
//! | `rtos-sld-analysis/1`    | `analyze::Analysis::check_json`        | sections typed, no dropped records             |
//! | none (Chrome trace)      | `analyze::TraceData::from_chrome_json` | it ingests                                     |
//!
//! Beyond the owners, a results document needs at least one point or
//! degraded entry, and `comm_sweep` documents keep their cross-field
//! rules (`lint_comm_sweep`).

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;

use bench::analyze::{self, Analysis, TraceData};
use bench::cache::{self, Hash128};
use bench::json::Json;
use bench::repro::{Repro, REPRO_SCHEMA};
use bench::results::{self, ResultsDoc};

/// Lints the contents `text` of the file at `path`.
fn lint(path: &str, text: &str) -> Result<String, String> {
    let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let schema = doc
        .get("schema")
        .map(|s| s.as_str().ok_or("`schema` is not a string"));
    match schema.transpose()? {
        Some(results::SCHEMA) => lint_results(&doc, text),
        Some(cache::CACHE_SCHEMA) => {
            let stem = Path::new(path).file_stem().and_then(|s| s.to_str());
            let key = stem.and_then(Hash128::from_hex).ok_or_else(|| {
                format!("cache entry file stem {stem:?} is not a 32-hex-digit key")
            })?;
            cache::decode_entry(text, key)?;
            Ok(format!("valid {} entry", cache::CACHE_SCHEMA))
        }
        Some(REPRO_SCHEMA) => {
            Repro::from_json(&doc).map(|_| format!("valid {REPRO_SCHEMA} artifact"))
        }
        Some(analyze::SCHEMA) => Analysis::check_json(&doc),
        Some(other) => Err(format!("unsupported schema {other:?}")),
        None => TraceData::from_chrome_json(&doc).map(|d| {
            let (spans, bus) = (d.spans.len(), d.bus_markers.len());
            format!("valid Chrome trace ({spans} spans, {bus} bus markers)")
        }),
    }
}

/// A results document must re-render byte for byte through its reader.
fn lint_results(doc: &Json, text: &str) -> Result<String, String> {
    let rebuilt = ResultsDoc::from_json(doc)?;
    let rendered = rebuilt.to_json().render();
    if rendered != text {
        let diff = first_difference(text, &rendered);
        return Err(format!("does not round-trip through its reader: {diff}"));
    }
    let (points, degraded) = rebuilt.counts();
    if points + degraded == 0 {
        return Err("results document has no points and no degraded entries".into());
    }
    if doc.get("bench").and_then(Json::as_str) == Some("comm_sweep") {
        lint_comm_sweep(doc)?;
    }
    Ok(format!(
        "valid {} document ({points} points, {degraded} degraded)",
        results::SCHEMA
    ))
}

/// Where `file` first departs from its reader's rendering of it.
fn first_difference(file: &str, owner: &str) -> String {
    let end = std::iter::once("<end>");
    let lines = file
        .lines()
        .chain(end.clone())
        .zip(owner.lines().chain(end));
    match lines.enumerate().find(|(_, (a, b))| a != b) {
        Some((n, (a, b))) => format!("line {}: file has {a:?}, reader renders {b:?}", n + 1),
        None => "line endings differ".into(),
    }
}

/// Metrics every completed `comm_sweep` point must carry — the bus
/// instrumentation the contention tables consume.
const COMM_SWEEP_METRICS: [&str; 6] = [
    "bus_transactions",
    "bus_bytes",
    "bus_busy_us",
    "bus_max_wait_us",
    "bus_contended",
    "bus_bytes_per_sec",
];

/// `comm_sweep`'s cross-field rules: its rates are simulated-time, so
/// the document is never `host_dependent`; the zero-latency `ideal`
/// baseline point is present; and every completed point carries the full
/// bus metric set.
fn lint_comm_sweep(doc: &Json) -> Result<(), String> {
    if doc.get("host_dependent") == Some(&Json::Bool(true)) {
        return Err(
            "comm_sweep rates are simulated-time; the document must not be `host_dependent`".into(),
        );
    }
    let points = doc.get("points").and_then(Json::as_array).unwrap_or(&[]);
    for (i, p) in points.iter().enumerate() {
        let completed = p.get("completed") == Some(&Json::Bool(true));
        let Some(metrics) = p.get("metrics").filter(|_| completed) else {
            continue;
        };
        if let Some(want) = COMM_SWEEP_METRICS.iter().find(|k| metrics.get(k).is_none()) {
            return Err(format!("points[{i}] lacks `{want}`"));
        }
    }
    if !points
        .iter()
        .any(|p| p.get("name") == Some(&Json::str("ideal")))
    {
        return Err("comm_sweep document has no `ideal` baseline point".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: trace_lint FILE [FILE ...]");
        return ExitCode::from(2);
    }
    for f in &files {
        let verdict = std::fs::read_to_string(f)
            .map_err(|e| format!("read failed: {e}"))
            .and_then(|text| lint(f, &text));
        match verdict {
            Ok(msg) => println!("{f}: {msg}"),
            Err(msg) => {
                eprintln!("{f}: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::cache::hash_bytes;
    use bench::farm::derive_seed;

    /// Lints `text` after rendering it canonically, so hand-written
    /// fixtures need not match the writer's whitespace.
    fn check(text: &str) -> Result<String, String> {
        lint("doc.json", &Json::parse(text).unwrap().render())
    }

    fn golden(name: &str) -> String {
        let path = format!("{}/tests/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(path).unwrap()
    }

    /// A results point as the writer renders it.
    fn point(name: &str, index: u64, metrics: &str) -> String {
        format!(
            r#"{{"name":"{name}","index":{index},"seed":{},"params":{{}},
                "status":"completed","completed":true,"metrics":{{{metrics}}},
                "kernel_stats":null,"tasks":[]}}"#,
            derive_seed(1, index)
        )
    }

    fn results_doc(bench: &str, extra: &str, points: &[String]) -> String {
        format!(
            r#"{{"schema":"rtos-sld-bench/1","bench":"{bench}","base_seed":1,{extra}
                "points":[{}]}}"#,
            points.join(",")
        )
    }

    fn trace(events: &str) -> String {
        let meta = r#"{"name":"thread_name","ph":"M","pid":0,"tid":9,"args":{"name":"bus:pebus"}},
                      {"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"task"}}"#;
        format!(r#"{{"traceEvents":[{meta},{events}]}}"#)
    }

    #[test]
    fn committed_documents_pass() {
        for name in [
            "golden/comm_sweep_default.json",
            "golden/robustness_f2_s7.json",
            "golden/schedulers_f10_x2_s11.json",
            "golden/load_sweep_trace_f2_s5.json",
            "fixtures/chaos_repro.json",
        ] {
            let text = golden(name);
            assert!(lint(name, &text).is_ok(), "{name}: {:?}", lint(name, &text));
        }
    }

    #[test]
    fn accepts_well_formed_events() {
        let ok = trace(
            r#"{"name":"a","ph":"X","pid":1,"tid":2,"ts":0,"dur":1.5},
               {"name":"process_name","ph":"M","pid":1,"tid":0}"#,
        );
        assert!(check(&ok).is_ok(), "{:?}", check(&ok));
    }

    #[test]
    fn accepts_well_formed_results_points() {
        let doc = results_doc(
            "b",
            "",
            &[point("handoff", 0, r#""handoffs_per_sec":1.5,"ops":5"#)],
        );
        let msg = check(&doc).unwrap();
        assert!(msg.contains("1 points"), "{msg}");
    }

    #[test]
    fn rejects_malformed_results_documents() {
        let no_metrics = point("x", 0, "").replace(r#""metrics":{},"#, "");
        assert!(check(&results_doc("b", "", &[no_metrics])).is_err());
        let non_numeric_metric = point("x", 0, r#""ops":"many""#);
        assert!(check(&results_doc("b", "", &[non_numeric_metric])).is_err());
        assert!(check(r#"{"schema":"rtos-sld-bench/99","points":[]}"#).is_err());
        assert!(check(&results_doc("b", "", &[])).is_err());
    }

    #[test]
    fn rejects_a_point_seed_not_derived_from_its_index() {
        let text = golden("golden/robustness_f2_s7.json");
        assert!(lint("r.json", &text).is_ok());
        let seed = Json::parse(&text)
            .unwrap()
            .get("points")
            .unwrap()
            .as_array()
            .unwrap()[1]
            .get("seed")
            .and_then(Json::as_u64)
            .unwrap();
        let broken = text.replacen(&format!("\"seed\": {seed},"), "\"seed\": 12345,", 1);
        assert_ne!(broken, text);
        let err = lint("r.json", &broken).unwrap_err();
        assert!(err.contains("12345"), "{err}");
    }

    #[test]
    fn degraded_sections_are_validated() {
        let degraded = |kind: &str| {
            format!(r#""degraded":[{{"index":2,"seed":9,"kind":"{kind}","message":"hung"}}],"#)
        };
        // `degraded` renders after `points`; build the document in that order.
        let doc = |extra: &str| {
            format!(
                r#"{{"schema":"rtos-sld-bench/1","bench":"chaos","base_seed":1,"points":[],
                    {}}}"#,
                extra.trim_end_matches(',')
            )
        };
        let msg = check(&doc(&degraded("overtime"))).unwrap();
        assert!(msg.contains("1 degraded"), "{msg}");
        // Degraded entries are themselves shape-checked.
        assert!(check(&doc(&degraded("melted"))).is_err());
        // An empty degraded array is a rendering bug, not a valid shape.
        assert!(check(&doc(r#""degraded":[]"#)).is_err());
    }

    #[test]
    fn chaos_repro_artifacts_are_validated() {
        let ok = golden("fixtures/chaos_repro.json");
        assert!(check(&ok).is_ok(), "{:?}", check(&ok));
        assert!(check(&ok.replace("\"invariant\"", "\"cosmic-rays\"")).is_err());
        // The artifact's seed is the spec's.
        assert!(check(&ok.replacen("\"seed\": ", "\"seed\": 1", 1)).is_err());
        // A pick is a [choice, position] pair.
        assert!(check(&ok.replace("\"chaos\": []", "\"chaos\": [[3]]")).is_err());
        assert!(check(&ok.replace("\"chaos\": []", "\"chaos\": [[3, 1]]")).is_ok());
    }

    #[test]
    fn cache_entries_are_validated() {
        let key = "0123456789abcdef0123456789abcdef";
        let file = format!("cache/{key}.json");
        let entry = |key: &str, metrics: &str, hash: Option<&str>| {
            let point = format!(
                r#"{{"status":"ok","completed":true,"metrics":{{{metrics}}},
                    "kernel_stats":null,"tasks":[]}}"#
            );
            let hash = hash.map_or_else(
                || hash_bytes(Json::parse(&point).unwrap().render().as_bytes()).to_hex(),
                str::to_string,
            );
            format!(
                r#"{{"schema":"rtos-sld-cache/1","key":"{key}","payload_hash":"{hash}",
                    "point":{point}}}"#
            )
        };
        let ok = entry(key, r#""cycles":12"#, None);
        assert!(lint(&file, &ok).is_ok(), "{:?}", lint(&file, &ok));
        // The key must be the file stem, itself a 32-hex-digit key.
        assert!(lint(&file, &entry("abc", "", None)).is_err());
        assert!(lint("cache/abc.json", &entry("abc", "", None)).is_err());
        assert!(lint(&file, &entry(key, r#""cycles":"twelve""#, None)).is_err());
        let no_point = format!(
            r#"{{"schema":"rtos-sld-cache/1","key":"{key}",
                "payload_hash":"fedcba9876543210fedcba9876543210"}}"#
        );
        assert!(lint(&file, &no_point).is_err());
        // One flipped payload-hash digit.
        let doc = Json::parse(&ok).unwrap();
        let hash = doc.get("payload_hash").and_then(Json::as_str).unwrap();
        let flipped = format!(
            "{}{}",
            if hash.starts_with('0') { '1' } else { '0' },
            &hash[1..]
        );
        let err = lint(&file, &entry(key, r#""cycles":12"#, Some(&flipped))).unwrap_err();
        assert!(err.contains("payload hash"), "{err}");
    }

    #[test]
    fn analysis_documents_are_validated() {
        // End-to-end: a real analysis document from a traced run passes.
        let o = bench::scenario::ScenarioSpec::new(
            "t",
            bench::scenario::Workload::TaskSet {
                tasks: 3,
                utilization: 0.5,
                horizon_us: 20_000,
            },
        )
        .trace(true)
        .run_seeded(5);
        let analysis = |dropped| {
            Analysis::from_trace(&TraceData::from_records(&o.records, dropped))
                .to_json()
                .render()
        };
        let msg = check(&analysis(0)).unwrap();
        assert!(msg.contains("valid rtos-sld-analysis/1"), "{msg}");
        // A lossy trace's document is rejected even though well-shaped.
        let err = check(&analysis(7)).unwrap_err();
        assert!(err.contains("lossy"), "{err}");
        // Missing sections are named.
        assert!(check(r#"{"schema":"rtos-sld-analysis/1","dropped_records":0}"#).is_err());
    }

    #[test]
    fn rejects_malformed_events() {
        let no_name = trace(r#"{"ph":"i","pid":1,"tid":2,"ts":0}"#);
        assert!(check(&no_name).is_err());
        let bad_phase = trace(r#"{"name":"a","ph":"Z","pid":1,"tid":2}"#);
        assert!(check(&bad_phase).is_err());
        let x_without_dur = trace(r#"{"name":"a","ph":"X","pid":1,"tid":2,"ts":0}"#);
        assert!(check(&x_without_dur).is_err());
    }

    #[test]
    fn rejects_phases_no_writer_emits() {
        for ph in ["B", "E", "I"] {
            let doc = trace(&format!(
                r#"{{"name":"a","ph":"{ph}","pid":1,"tid":2,"ts":0}}"#
            ));
            let err = check(&doc).unwrap_err();
            assert!(err.contains("phase"), "{ph}: {err}");
        }
    }

    #[test]
    fn comm_sweep_documents_are_validated() {
        // Metrics render sorted by name.
        let metrics = r#""bus_busy_us":560,"bus_bytes":680,"bus_bytes_per_sec":3400.5,
            "bus_contended":30,"bus_max_wait_us":1.45,"bus_transactions":44,
            "frames_decoded":10"#;
        let sweep = |host: &str, points: &[String]| results_doc("comm_sweep", host, points);
        let ok = sweep(
            "",
            &[
                point("ideal", 0, metrics),
                point("w1_c500_fixed_priority", 1, metrics),
            ],
        );
        assert!(check(&ok).is_ok(), "{:?}", check(&ok));

        // Simulated-time bus metrics must not be flagged host-dependent.
        let host_flagged = sweep(r#""host_dependent":true,"#, &[point("ideal", 0, metrics)]);
        let err = check(&host_flagged).unwrap_err();
        assert!(err.contains("host_dependent"), "{err}");

        // Without the zero-latency baseline the sweep is uninterpretable.
        let no_ideal = sweep("", &[point("w1_c500_fixed_priority", 0, metrics)]);
        let err = check(&no_ideal).unwrap_err();
        assert!(err.contains("ideal"), "{err}");

        // A completed point missing any bus metric is rejected.
        let truncated = metrics.replace(r#""bus_contended":30,"#, "");
        let err = check(&sweep("", &[point("ideal", 0, &truncated)])).unwrap_err();
        assert!(err.contains("bus_contended"), "{err}");
    }

    #[test]
    fn bus_events_are_shape_checked() {
        let ok = trace(
            r#"{"name":"req:pe0:link","ph":"i","pid":0,"tid":9,"ts":1},
               {"name":"grant:pe0:link","ph":"i","pid":0,"tid":9,"ts":1},
               {"name":"contend:pe1:link","ph":"i","pid":0,"tid":9,"ts":2},
               {"name":"xfer:pe0:link:16","ph":"X","pid":0,"tid":9,"ts":1,"dur":10}"#,
        );
        let msg = check(&ok).unwrap();
        assert!(msg.contains("1 spans, 3 bus markers"), "{msg}");

        // Events on non-bus threads are out of scope for this check.
        let other_thread = trace(r#"{"name":"whatever","ph":"i","pid":0,"tid":3,"ts":1}"#);
        assert!(check(&other_thread).is_ok());

        let bad_marker = trace(r#"{"name":"release:pe0","ph":"i","pid":0,"tid":9,"ts":1}"#);
        assert!(check(&bad_marker).is_err());
        let bare_prefix = trace(r#"{"name":"req:","ph":"i","pid":0,"tid":9,"ts":1}"#);
        assert!(check(&bare_prefix).is_err());
        let bad_bytes =
            trace(r#"{"name":"xfer:pe0:link:lots","ph":"X","pid":0,"tid":9,"ts":1,"dur":2}"#);
        assert!(check(&bad_bytes).is_err());
        let no_bytes = trace(r#"{"name":"xfer:pe0","ph":"X","pid":0,"tid":9,"ts":1,"dur":2}"#);
        assert!(check(&no_bytes).is_err());
    }
}
