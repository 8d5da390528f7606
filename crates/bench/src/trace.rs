//! Chrome-trace-event / Perfetto JSON export of simulation traces.
//!
//! Every bench binary accepts `--trace-out PATH` (see [`crate::cli`]) and
//! writes its representative scenario's execution trace in the [Chrome
//! Trace Event Format], which <https://ui.perfetto.dev> (and
//! `chrome://tracing`) loads directly:
//!
//! * closed execution spans ([`segments`]) become `"ph": "X"` *complete*
//!   events with microsecond `ts`/`dur`;
//! * markers (context switches, interrupts) become `"ph": "i"` *instant*
//!   events;
//! * scheduler decision records become instant events named
//!   `sched:<reason>` whose `args` carry the dispatched/displaced tasks —
//!   the trace *explains* scheduling instead of just showing it;
//! * each PE maps to one `pid` (derived from `pe:…` track prefixes), each
//!   track to one `tid`, with `M` metadata events naming both.
//!
//! The byte output is deterministic for a given record sequence: tracks
//! are ordered by first appearance, floats render shortest-roundtrip, and
//! nothing host-dependent (wall time, paths) enters the document. That is
//! what lets `farm_determinism.rs` compare `--jobs 1` vs `--jobs N`
//! trace files as raw bytes.
//!
//! [Chrome Trace Event Format]:
//!     https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! [`segments`]: sldl_sim::trace::segments

use std::collections::HashMap;
use std::path::Path;

use sldl_sim::trace::segments;
use sldl_sim::{Record, RecordKind, SimTime};

use crate::json::Json;
use crate::scenario::ScenarioSpec;

/// The default process name for tracks that carry no `pe:` prefix (task
/// tracks); if the trace names exactly one PE, those tracks are folded
/// into that PE's process instead.
const DEFAULT_PROCESS: &str = "sim";

/// Deterministic pid/tid assignment for a record sequence.
struct TrackMap {
    /// `(process name, pid)` in first-appearance order; pids start at 1.
    processes: Vec<(String, u32)>,
    /// track name → `(pid, tid)`; tids are globally unique, starting at 1.
    tracks: Vec<(String, (u32, u32))>,
    index: HashMap<String, (u32, u32)>,
}

/// The PE prefix of a track (`"dsp:sched"` → `"dsp"`), if it has one.
fn pe_prefix(track: &str) -> Option<&str> {
    track
        .split_once(':')
        .map(|(pe, _)| pe)
        .filter(|p| !p.is_empty())
}

impl TrackMap {
    fn build(records: &[Record]) -> TrackMap {
        // Tracks in first-appearance order.
        let mut order: Vec<String> = Vec::new();
        let mut seen: HashMap<String, ()> = HashMap::new();
        let mut note = |t: &str| {
            if seen.insert(t.to_string(), ()).is_none() {
                order.push(t.to_string());
            }
        };
        for r in records {
            // Every track-addressed kind (spans, markers, scheduler
            // decisions, mutex records) claims its track.
            if let Some(track) = r.kind.track() {
                note(track);
            }
        }

        // One pid per PE. With exactly one PE in the trace, unprefixed
        // (task) tracks join its process; otherwise they live under a
        // synthetic "sim" process.
        let mut pes: Vec<String> = Vec::new();
        for t in &order {
            if let Some(pe) = pe_prefix(t) {
                if !pes.iter().any(|p| p == pe) {
                    pes.push(pe.to_string());
                }
            }
        }
        let default_process = if pes.len() == 1 {
            pes[0].clone()
        } else {
            DEFAULT_PROCESS.to_string()
        };

        let mut processes: Vec<(String, u32)> = Vec::new();
        let pid_of = |name: &str, processes: &mut Vec<(String, u32)>| -> u32 {
            if let Some((_, pid)) = processes.iter().find(|(n, _)| n == name) {
                return *pid;
            }
            let pid = u32::try_from(processes.len()).unwrap_or(u32::MAX) + 1;
            processes.push((name.to_string(), pid));
            pid
        };

        let mut tracks = Vec::with_capacity(order.len());
        let mut index = HashMap::with_capacity(order.len());
        for (i, t) in order.iter().enumerate() {
            let process = pe_prefix(t).unwrap_or(&default_process).to_string();
            let pid = pid_of(&process, &mut processes);
            let tid = u32::try_from(i).unwrap_or(u32::MAX) + 1;
            tracks.push((t.clone(), (pid, tid)));
            index.insert(t.clone(), (pid, tid));
        }
        TrackMap {
            processes,
            tracks,
            index,
        }
    }

    fn ids(&self, track: &str) -> (u32, u32) {
        self.index.get(track).copied().unwrap_or((0, 0))
    }
}

/// Simulated nanoseconds → Chrome trace microseconds.
fn ts_us(t: SimTime) -> Json {
    Json::Num(t.as_nanos() as f64 / 1e3)
}

fn event(name: &str, ph: &str, pid: u32, tid: u32) -> Vec<(String, Json)> {
    vec![
        ("name".into(), Json::str(name)),
        ("ph".into(), Json::str(ph)),
        ("pid".into(), Json::U64(u64::from(pid))),
        ("tid".into(), Json::U64(u64::from(tid))),
    ]
}

/// Converts trace records to a Chrome-trace-event JSON document
/// (`{"traceEvents": [...]}`) with `dropped_records: 0` metadata —
/// shorthand for [`to_chrome_json_with_meta`] for a complete record set
/// (every in-process trace is).
#[must_use]
pub fn to_chrome_json(records: &[Record]) -> Json {
    to_chrome_json_with_meta(records, 0)
}

/// Converts trace records to a Chrome-trace-event JSON document
/// (`{"traceEvents": [...]}`).
///
/// Spans are exported from [`segments`], so the span multiset of the JSON
/// equals the one every existing analysis sees; markers, scheduler
/// decisions and mutex records are exported in record order as instant
/// events. `dropped_records` (the count of records the producer lost)
/// lands in the top-level `otherData` object so consumers — notably
/// `bench::analyze` — can tell a lossless trace from a lossy one. Output
/// bytes are a pure function of the arguments.
#[must_use]
pub fn to_chrome_json_with_meta(records: &[Record], dropped_records: u64) -> Json {
    let map = TrackMap::build(records);
    let mut events: Vec<Json> = Vec::new();

    // Metadata: process and thread names.
    for (name, pid) in &map.processes {
        let mut e = event("process_name", "M", *pid, 0);
        e.push(("args".into(), Json::obj([("name", Json::str(name))])));
        events.push(Json::Obj(e));
    }
    for (track, (pid, tid)) in &map.tracks {
        let mut e = event("thread_name", "M", *pid, *tid);
        e.push(("args".into(), Json::obj([("name", Json::str(track))])));
        events.push(Json::Obj(e));
    }

    // Complete events, per track in tid order, time-ordered within track.
    let segs = segments(records);
    for (track, (pid, tid)) in &map.tracks {
        let Some(track_segs) = segs.get(track) else {
            continue;
        };
        for s in track_segs {
            let mut e = event(&s.label, "X", *pid, *tid);
            e.push(("ts".into(), ts_us(s.start)));
            e.push((
                "dur".into(),
                Json::Num(s.duration().as_nanos() as f64 / 1e3),
            ));
            events.push(Json::Obj(e));
        }
    }

    // Instant events in record order.
    for r in records {
        match &r.kind {
            RecordKind::Marker { track, label } => {
                let (pid, tid) = map.ids(track);
                let mut e = event(label, "i", pid, tid);
                e.push(("ts".into(), ts_us(r.time)));
                e.push(("s".into(), Json::str("t")));
                events.push(Json::Obj(e));
            }
            RecordKind::SchedDecision {
                track,
                dispatched,
                displaced,
                reason,
            } => {
                let (pid, tid) = map.ids(track);
                let mut e = event(&format!("sched:{reason}"), "i", pid, tid);
                e.push(("ts".into(), ts_us(r.time)));
                e.push(("s".into(), Json::str("t")));
                let opt = |v: &Option<String>| v.as_ref().map_or(Json::Null, Json::str);
                e.push((
                    "args".into(),
                    Json::obj([
                        ("dispatched", opt(dispatched)),
                        ("displaced", opt(displaced)),
                        ("reason", Json::str(reason.as_str())),
                    ]),
                ));
                events.push(Json::Obj(e));
            }
            RecordKind::MutexWait {
                track,
                task,
                owner,
                mutex,
            } => {
                let (pid, tid) = map.ids(track);
                let mut e = event("mutex:wait", "i", pid, tid);
                e.push(("ts".into(), ts_us(r.time)));
                e.push(("s".into(), Json::str("t")));
                e.push((
                    "args".into(),
                    Json::obj([
                        ("task", Json::str(task)),
                        ("owner", Json::str(owner)),
                        ("mutex", Json::U64(u64::from(*mutex))),
                    ]),
                ));
                events.push(Json::Obj(e));
            }
            RecordKind::TaskReleased {
                track,
                task,
                release,
            } => {
                let (pid, tid) = map.ids(track);
                let mut e = event("task:released", "i", pid, tid);
                e.push(("ts".into(), ts_us(r.time)));
                e.push(("s".into(), Json::str("t")));
                e.push((
                    "args".into(),
                    Json::obj([("task", Json::str(task)), ("release", ts_us(*release))]),
                ));
                events.push(Json::Obj(e));
            }
            RecordKind::MutexAcquired { track, task, mutex }
            | RecordKind::MutexReleased { track, task, mutex } => {
                let name = match &r.kind {
                    RecordKind::MutexAcquired { .. } => "mutex:acquired",
                    _ => "mutex:released",
                };
                let (pid, tid) = map.ids(track);
                let mut e = event(name, "i", pid, tid);
                e.push(("ts".into(), ts_us(r.time)));
                e.push(("s".into(), Json::str("t")));
                e.push((
                    "args".into(),
                    Json::obj([
                        ("task", Json::str(task)),
                        ("mutex", Json::U64(u64::from(*mutex))),
                    ]),
                ));
                events.push(Json::Obj(e));
            }
            _ => {}
        }
    }

    Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        (
            "otherData",
            Json::obj([("dropped_records", Json::U64(dropped_records))]),
        ),
        ("traceEvents", Json::Arr(events)),
    ])
}

/// Renders and writes `records` as a Chrome trace to `path`, creating
/// parent directories as needed. Returns the number of trace events
/// written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_chrome_trace(path: &Path, records: &[Record]) -> std::io::Result<usize> {
    let doc = to_chrome_json(records);
    let n = match &doc {
        Json::Obj(pairs) => pairs
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map_or(0, |(_, v)| match v {
                Json::Arr(items) => items.len(),
                _ => 0,
            }),
        _ => 0,
    };
    doc.write_to(path)?;
    Ok(n)
}

/// Re-runs `spec` (with tracing forced on and the given per-point seed)
/// and writes its Chrome trace to `path` — the implementation behind
/// every sweep binary's `--trace-out`. The traced re-run is separate from
/// the farm's measured runs, so enabling export never perturbs results.
/// Returns the number of trace events written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn export_scenario_trace(
    spec: &ScenarioSpec,
    seed: u64,
    path: &Path,
) -> std::io::Result<usize> {
    let outcome = spec.clone().trace(true).run_seeded(seed);
    write_chrome_trace(path, &outcome.records)
}

/// Handles a binary's `--trace-out` flag: when present, re-runs `spec`
/// (its representative sweep point) with tracing enabled under `seed`
/// (pass the same per-point seed the sweep used — typically
/// [`derive_seed`]`(args.seed, index)` or a pre-baked `spec.seed`) and
/// writes the Chrome trace, printing a pointer to ui.perfetto.dev unless
/// `--quiet`. Exits the process with status 1 on I/O errors, mirroring
/// `--json` handling in the bins.
///
/// [`derive_seed`]: crate::farm::derive_seed
pub fn handle_trace_out(args: &crate::cli::Args, spec: &ScenarioSpec, seed: u64) {
    let Some(path) = &args.trace_out else {
        return;
    };
    match export_scenario_trace(spec, seed, path) {
        Ok(n) => {
            if !args.quiet {
                println!(
                    "wrote {n} trace events to {} (load at https://ui.perfetto.dev)",
                    path.display()
                );
            }
        }
        Err(e) => {
            eprintln!("error: writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Handles a binary's `--analyze-out` flag: when present, re-runs `spec`
/// (the same representative point `--trace-out` exports, under the same
/// seed) with tracing enabled, runs the [`crate::analyze`] engine over
/// the in-memory records, and writes the `rtos-sld-analysis/1` document.
/// Exits the process with status 1 on failure.
pub fn handle_analyze_out(args: &crate::cli::Args, spec: &ScenarioSpec, seed: u64) {
    let Some(path) = &args.analyze_out else {
        return;
    };
    let outcome = spec.clone().trace(true).run_seeded(seed);
    let data = crate::analyze::TraceData::from_records(&outcome.records, 0);
    let analysis = crate::analyze::Analysis::from_trace(&data);
    match analysis.to_json().write_to(path) {
        Ok(()) => {
            if !args.quiet {
                println!("wrote analysis document to {}", path.display());
            }
        }
        Err(e) => {
            eprintln!("error: writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sldl_sim::{DecisionReason, TraceHandle};

    fn sample_records() -> Vec<Record> {
        let t = TraceHandle::new();
        t.record(
            SimTime::from_micros(0),
            RecordKind::SpanBegin {
                track: "encoder".into(),
                label: "LP_analysis".into(),
            },
        );
        t.record(
            SimTime::from_micros(40),
            RecordKind::SpanEnd {
                track: "encoder".into(),
            },
        );
        t.record(
            SimTime::from_micros(40),
            RecordKind::Marker {
                track: "dsp:switch".into(),
                label: "→decoder".into(),
            },
        );
        t.record(
            SimTime::from_micros(40),
            RecordKind::SchedDecision {
                track: "dsp:sched".into(),
                dispatched: Some("decoder".into()),
                displaced: Some("encoder".into()),
                reason: DecisionReason::Preemption,
            },
        );
        t.snapshot()
    }

    #[test]
    fn export_is_deterministic_and_parses() {
        let records = sample_records();
        let a = to_chrome_json(&records).render();
        let b = to_chrome_json(&records).render();
        assert_eq!(a, b);
        let doc = Json::parse(&a).expect("valid JSON");
        let Json::Obj(pairs) = doc else {
            panic!("expected object")
        };
        let events = pairs
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents");
        let Json::Arr(items) = events else {
            panic!("expected array")
        };
        // 1 process + 3 threads metadata, 1 X span, 1 marker, 1 decision.
        assert_eq!(items.len(), 7, "{a}");
    }

    #[test]
    fn mutex_records_and_dropped_count_are_exported() {
        let t = TraceHandle::new();
        t.record(
            SimTime::from_micros(5),
            RecordKind::MutexWait {
                track: "dsp:mutex".into(),
                task: "b".into(),
                owner: "a".into(),
                mutex: 3,
            },
        );
        t.record(
            SimTime::from_micros(9),
            RecordKind::MutexAcquired {
                track: "dsp:mutex".into(),
                task: "b".into(),
                mutex: 3,
            },
        );
        let records = t.snapshot();
        let text = to_chrome_json_with_meta(&records, 42).render();
        let doc = Json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("otherData").and_then(|o| o.get("dropped_records")),
            Some(&Json::U64(42)),
            "{text}"
        );
        // The mutex track claims a tid, and both records export as
        // instant events with their args.
        assert!(text.contains("\"mutex:wait\""), "{text}");
        assert!(text.contains("\"mutex:acquired\""), "{text}");
        assert!(text.contains("\"owner\": \"a\""), "{text}");
        let map = TrackMap::build(&records);
        assert_eq!(map.tracks.len(), 1);
        assert_eq!(map.tracks[0].0, "dsp:mutex");
    }

    #[test]
    fn single_pe_claims_task_tracks() {
        let records = sample_records();
        let map = TrackMap::build(&records);
        // One PE ("dsp") in the trace: every track shares its pid.
        assert_eq!(map.processes.len(), 1);
        assert_eq!(map.processes[0].0, "dsp");
        let pids: Vec<u32> = map.tracks.iter().map(|(_, (p, _))| *p).collect();
        assert!(pids.iter().all(|p| *p == pids[0]));
        // tids are unique.
        let mut tids: Vec<u32> = map.tracks.iter().map(|(_, (_, t))| *t).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), map.tracks.len());
    }

    #[test]
    fn span_multiset_matches_segments() {
        let records = sample_records();
        let doc = to_chrome_json(&records).render();
        let parsed = Json::parse(&doc).unwrap();
        let Json::Obj(pairs) = parsed else { panic!() };
        let Json::Arr(events) = &pairs.iter().find(|(k, _)| k == "traceEvents").unwrap().1 else {
            panic!()
        };
        let mut exported = 0usize;
        for e in events {
            let Json::Obj(fields) = e else { panic!() };
            let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
            if get("ph") == Some(&Json::str("X")) {
                exported += 1;
            }
        }
        let total: usize = segments(&records).values().map(Vec::len).sum();
        assert_eq!(exported, total);
    }
}
