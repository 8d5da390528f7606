//! The four workloads (`sweep` lives in [`crate::sweep`]). Each is a
//! closed loop: the next unit starts only when the previous one has
//! finished and been checked.
//!
//! * `vocoder_arch` — the Table-1 architecture model, 200 frames a unit;
//! * `taskset_edf` — a fresh 64-task UUniFast set under EDF a unit;
//! * `sweep` — cold and warm passes of a design-space sweep on the farm;
//! * `iss_impl` — the implementation model on the ISS, 8 frames a unit.
//!
//! Every unit is asked twice: the *cold* ask is the sample behind
//! `run_ms_p50`/`run_ms_p90`/`points_per_s`, the *warm* ask repeats it
//! (`warm_points_per_s`). In `sweep` the warm pass is answered from the
//! result cache; the single-simulation workloads call the models
//! directly, which keep no cache, so there the warm ask runs again and
//! must reproduce the cold one.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bench::cache::hash_bytes;
use bench::farm::derive_seed;
use bench::scenario::{ScenarioSpec, Workload};
use dsp_iss::vocoder_app::{run_impl_model, ImplConfig};
use rtos_model::{SchedAlg, TimeSlice};
use sldl_sim::KernelStats;
use vocoder::{simulate_architecture, simulate_unscheduled, VocoderConfig, VocoderRun};

use crate::affinity;
use crate::probes;
use crate::report::{median, ms, quantile, Outcome};
use crate::spans::{SpanId, Spans, NONE};

/// The seed whose units are checked against the recorded reference.
pub const DEFAULT_SEED: u64 = 1;

/// Leading units of a run on [`DEFAULT_SEED`] that have a recorded
/// reference. `iss_impl` repeats one input, so its one line covers every
/// unit; `sweep`'s lines cover its first round, and every later round
/// must equal the first.
pub const REFERENCE_UNITS: u64 = 8;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Frames of one `vocoder_arch` unit (4 s simulated).
pub const VOCODER_FRAMES: usize = 200;
/// Tasks, utilization and horizon of one `taskset_edf` unit.
pub const EDF_TASKS: usize = 64;
const EDF_UTILIZATION: f64 = 0.85;
const EDF_HORIZON_US: u64 = 250_000;
/// Frames of one `iss_impl` unit.
pub const ISS_FRAMES: u32 = 8;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Table-1 architecture model.
    VocoderArch,
    /// A periodic task set under EDF.
    TasksetEdf,
    /// A design-space sweep through the farm and the result cache.
    Sweep,
    /// The implementation model on the ISS.
    IssImpl,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::VocoderArch,
        Kind::TasksetEdf,
        Kind::Sweep,
        Kind::IssImpl,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::VocoderArch => "vocoder_arch",
            Kind::TasksetEdf => "taskset_edf",
            Kind::Sweep => "sweep",
            Kind::IssImpl => "iss_impl",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the workload runs one simulation at a time (and is held
    /// to one CPU); `sweep` runs the farm free on every CPU.
    #[must_use]
    pub fn single(self) -> bool {
        self != Kind::Sweep
    }
}

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The workload.
    pub kind: Kind,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Length of the measured phase.
    pub measure: Duration,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Reference lines for the leading units (empty: invariants only).
    pub reference: Vec<String>,
    /// Directory for the results document, span trace and cache.
    pub out_dir: PathBuf,
}

/// One unit's checked result.
#[derive(Debug, Clone, Default)]
pub struct UnitRun {
    /// The unit's deterministic simulated statistics, rendered
    /// canonically; cold and warm asks and the reference must agree.
    pub line: String,
    /// Per-unit layer counts (`sim.switches`, …).
    pub counts: Vec<(&'static str, f64)>,
    /// Mean SNR of the decoded speech (vocoder units).
    pub snr_db: Option<f64>,
}

fn kernel_line(k: &KernelStats) -> String {
    format!(
        "{}/{}/{}/{}/{}/{}/{}/{}",
        k.delta_cycles,
        k.events_notified,
        k.processes_spawned,
        k.processes_resumed,
        k.processes_suspended,
        k.timer_ops,
        k.max_ready_depth,
        k.context_switches
    )
}

pub(crate) fn kernel_counts(k: &KernelStats) -> Vec<(&'static str, f64)> {
    vec![
        ("sim.switches", k.context_switches as f64),
        ("sim.resumes", k.processes_resumed as f64),
        ("sim.timer_ops", k.timer_ops as f64),
    ]
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

// ---------------------------------------------------------------- units

/// The `vocoder_arch` input of unit `i`: the speech seed is derived from
/// the workload seed.
#[must_use]
fn vocoder_config(seed: u64, i: u64) -> VocoderConfig {
    VocoderConfig {
        frames: VOCODER_FRAMES,
        seed: derive_seed(seed, i),
        ..VocoderConfig::default()
    }
}

fn vocoder_line(run: &VocoderRun) -> String {
    let (misses, dispatches) = run.metrics.as_ref().map_or((0, 0), |m| {
        (
            m.deadline_misses(),
            m.tasks.iter().map(|t| t.dispatches).sum::<u64>(),
        )
    });
    format!(
        "frames={} switches={} mean_delay_ns={} max_delay_ns={} snr_db={:?} misses={misses} dispatches={dispatches} kernel={}",
        run.transcode_delays.len(),
        run.context_switches,
        run.mean_transcode_delay().as_nanos(),
        run.max_transcode_delay().unwrap_or_default().as_nanos(),
        run.mean_snr_db,
        kernel_line(&run.kernel_stats)
    )
}

/// One `vocoder_arch` unit.
///
/// # Errors
///
/// Returns why the unit failed: a run error or undecoded frames.
pub fn vocoder_unit(seed: u64, i: u64) -> Result<UnitRun, String> {
    let cfg = vocoder_config(seed, i);
    let run = simulate_architecture(&cfg, SchedAlg::PriorityPreemptive, TimeSlice::WholeDelay)
        .map_err(|e| bench::scenario::describe_run_error(&e))?;
    if run.transcode_delays.len() != VOCODER_FRAMES {
        return Err(format!(
            "decoded {} of {VOCODER_FRAMES} frames",
            run.transcode_delays.len()
        ));
    }
    let mut counts = kernel_counts(&run.kernel_stats);
    if let Some(m) = &run.metrics {
        counts.push((
            "core.dispatches",
            m.tasks.iter().map(|t| t.dispatches).sum::<u64>() as f64,
        ));
        counts.push(("core.deadline_misses", m.deadline_misses() as f64));
    }
    Ok(UnitRun {
        line: vocoder_line(&run),
        counts,
        snr_db: Some(run.mean_snr_db),
    })
}

/// The `taskset_edf` input of unit `i`: a fresh task set per unit.
#[must_use]
fn taskset_spec(seed: u64, i: u64) -> ScenarioSpec {
    ScenarioSpec::new(
        "taskset_edf",
        Workload::TaskSet {
            tasks: EDF_TASKS,
            utilization: EDF_UTILIZATION,
            horizon_us: EDF_HORIZON_US,
        },
    )
    .sched(SchedAlg::Edf)
    .slice(TimeSlice::Quantum(Duration::from_micros(100)))
    .seeded(derive_seed(seed, i))
}

/// One `taskset_edf` unit.
///
/// # Errors
///
/// Returns why the unit failed: a run error, no completed cycle, or a
/// missed deadline (EDF meets every deadline at U = 0.85).
pub fn taskset_unit(seed: u64, i: u64) -> Result<UnitRun, String> {
    let o = taskset_spec(seed, i).run();
    if !o.completed {
        return Err(o.status);
    }
    let cycles = o.metric("cycles_run").unwrap_or(0.0);
    let misses = o.metric("deadline_misses").unwrap_or(0.0);
    if cycles <= 0.0 {
        return Err("no task cycle completed".into());
    }
    if misses > 0.0 {
        return Err(format!(
            "{misses} deadline misses under EDF at U = {EDF_UTILIZATION}"
        ));
    }
    let kernel = o.kernel_stats.clone().unwrap_or_default();
    let mut counts = kernel_counts(&kernel);
    counts.push((
        "core.dispatches",
        o.tasks.iter().map(|t| t.dispatches).sum::<u64>() as f64,
    ));
    counts.push(("core.deadline_misses", misses));
    Ok(UnitRun {
        line: format!(
            "cycles_run={cycles} misses={misses} kernel={} outcome={}",
            kernel_line(&kernel),
            hash_bytes(o.to_json().render().as_bytes()).to_hex()
        ),
        counts,
        snr_db: None,
    })
}

/// The `iss_impl` input. The implementation model takes no data input,
/// so it does not depend on the seed.
#[must_use]
fn impl_config() -> ImplConfig {
    ImplConfig {
        frames: ISS_FRAMES,
        ..ImplConfig::default()
    }
}

/// One `iss_impl` unit.
///
/// # Errors
///
/// Returns why the unit failed: the model panicked or dropped frames.
pub fn iss_unit() -> Result<UnitRun, String> {
    let run = catch_unwind(|| run_impl_model(&impl_config())).map_err(|p| panic_text(&*p))?;
    if run.transcode_delays.len() != ISS_FRAMES as usize {
        return Err(format!(
            "decoded {} of {ISS_FRAMES} frames",
            run.transcode_delays.len()
        ));
    }
    let delays: Vec<String> = run
        .transcode_delays
        .iter()
        .map(|d| d.as_nanos().to_string())
        .collect();
    Ok(UnitRun {
        line: format!(
            "frames={} switches={} cycles={} instructions={} delays_ns={}",
            run.transcode_delays.len(),
            run.context_switches,
            run.cycles,
            run.instructions,
            delays.join(",")
        ),
        counts: vec![
            ("iss.instructions", run.instructions as f64),
            ("iss.cycles", run.cycles as f64),
        ],
        snr_db: None,
    })
}

/// The abstract model's transcoding-delay error against the
/// implementation model at the same frame count, in percent.
#[must_use]
pub fn delay_err_pct(seed: u64) -> f64 {
    let cfg = VocoderConfig {
        frames: ISS_FRAMES as usize,
        seed: derive_seed(seed, 0),
        ..VocoderConfig::default()
    };
    let arch = simulate_architecture(&cfg, SchedAlg::PriorityPreemptive, TimeSlice::WholeDelay)
        .expect("architecture model runs clean")
        .mean_transcode_delay()
        .as_secs_f64();
    let imp = run_impl_model(&impl_config())
        .mean_transcode_delay()
        .as_secs_f64();
    (arch - imp).abs() / imp * 100.0
}

// ------------------------------------------------- single-simulation loop

/// Runs `f` [`SETUP_REPS`] times and returns the median seconds; the
/// first set-up is timed from `process_start`.
pub(crate) fn setups(process_start: Instant, mut f: impl FnMut()) -> f64 {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let started = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        f();
        secs.push(started.elapsed().as_secs_f64());
    }
    median(&secs)
}

fn ask(unit: &(dyn Fn(u64) -> Result<UnitRun, String> + Sync), i: u64) -> Result<UnitRun, String> {
    catch_unwind(AssertUnwindSafe(|| unit(i))).unwrap_or_else(|p| Err(panic_text(&*p)))
}

/// A workload-specific step run inside each unit's span after its asks
/// (extra invariants, traced-run probes). It returns a failed check.
type Extra<'a> = dyn FnMut(u64, SpanId, &UnitRun) -> Result<(), String> + 'a;

/// Samples of a single-simulation run.
#[derive(Debug, Default)]
struct Samples {
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    counts: BTreeMap<&'static str, Vec<f64>>,
}

/// The closed loop of a single-simulation workload: set-up (pre-warm
/// `prewarm` pool workers, run `warmups` unchecked units; repeated),
/// then units until the measured phase ends.
fn unit_loop(
    opts: &Opts,
    process_start: Instant,
    spans: &Spans,
    out: &mut Outcome,
    (prewarm, warmups): (usize, u64),
    unit: &(dyn Fn(u64) -> Result<UnitRun, String> + Sync),
    extra: &mut Extra<'_>,
) -> Samples {
    let setup_s = setups(process_start, || {
        sldl_sim::pool::drain();
        sldl_sim::pool::prewarm(prewarm);
        for w in 0..warmups {
            let _ = ask(unit, w);
        }
    });
    out.set("setup_s", setup_s);

    let mut s = Samples::default();
    let deadline = Instant::now() + opts.measure;
    let mut i = 0u64;
    while Instant::now() < deadline {
        let uid = spans.open("unit", "main", NONE, i);
        let (cold, cold_t) = spans.timed("run", "main", uid, i, |_| ask(unit, i));
        let (warm, warm_t) = spans.timed("run.warm", "main", uid, i, |_| ask(unit, i));
        out.attempted += 1;
        let checked = spans.timed("check", "main", uid, i, |_| -> Result<UnitRun, String> {
            let cold = cold.map_err(|e| format!("unit {i}: {e}"))?;
            let warm = warm.map_err(|e| format!("unit {i} (warm): {e}"))?;
            if warm.line != cold.line {
                return Err(format!(
                    "unit {i}: warm ask differs\n  cold {}\n  warm {}",
                    cold.line, warm.line
                ));
            }
            // `iss_impl` repeats one input, so its one line covers every unit.
            let k = if opts.kind == Kind::IssImpl { 0 } else { i };
            let r = usize::try_from(k).ok().and_then(|k| opts.reference.get(k));
            if let Some(expected) = r {
                if *expected != cold.line {
                    return Err(format!(
                        "unit {i}: differs from the reference\n  expected {expected}\n  got      {}",
                        cold.line
                    ));
                }
            }
            Ok(cold)
        });
        match checked.0.and_then(|run| extra(i, uid, &run).map(|()| run)) {
            Ok(run) => {
                s.cold_ms.push(ms(cold_t));
                s.warm_ms.push(ms(warm_t));
                for (k, v) in run.counts {
                    s.counts.entry(k).or_default().push(v);
                }
            }
            Err(e) => out.fail(e),
        }
        spans.close(uid);
        i += 1;
    }
    summarize(out, &s.cold_ms, &s.warm_ms);
    for (k, v) in &s.counts {
        out.set(k, v.iter().sum::<f64>() / v.len() as f64);
    }
    s
}

/// Sets the timing metrics every workload shares from cold and warm
/// per-unit samples.
fn summarize(out: &mut Outcome, cold_ms: &[f64], warm_ms: &[f64]) {
    out.set("run_ms_p50", median(cold_ms));
    out.set("run_ms_p90", quantile(cold_ms, 0.9));
    let rate = |xs: &[f64]| xs.len() as f64 * 1e3 / xs.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    out.set("points_per_s", rate(cold_ms));
    out.set("warm_points_per_s", rate(warm_ms));
    out.notes.push(format!(
        "samples: {} cold, {} warm (p90 has {} samples beyond it)",
        cold_ms.len(),
        warm_ms.len(),
        cold_ms.len() - (cold_ms.len() * 9).div_ceil(10)
    ));
}

/// The kernel probes shared by the workloads that run on the SLDL
/// kernel, measured under the current CPU mask.
pub(crate) fn sim_probes(out: &mut Outcome, spans: &Spans, confined: bool) {
    let name = if confined {
        "sim.switch_us"
    } else {
        "sim.switch_us_free"
    };
    let (v, _) = spans.timed("probe.switch", "main", NONE, 0, |_| {
        probes::switch_us(5_000)
    });
    out.set(name, v);
    if confined {
        let (v, _) = spans.timed("probe.resume", "main", NONE, 0, |_| {
            probes::resume_ns(200_000)
        });
        out.set("sim.resume_ns", v);
        let (v, _) = spans.timed("probe.spawn", "main", NONE, 0, |_| probes::spawn_us(200));
        out.set("sim.spawn_us", v);
    }
}

pub(crate) fn set_overhead(
    out: &mut Outcome,
    spans: &Spans,
    units: f64,
    cold_ms: &[f64],
    unit_span: &str,
) {
    let per_unit = spans.len() as f64 / units.max(1.0);
    let span_ns = probes::span_ns();
    let p50 = median(cold_ms);
    out.set("bench.traced_run_ms_p50", p50);
    out.set(
        "bench.span_overhead_pct",
        per_unit * span_ns / (p50 * 1e6).max(1.0) * 100.0,
    );
    let t = spans.self_times();
    if let Some(u) = t.get(unit_span) {
        out.set(
            "bench.unit_self_ms",
            ms(u.self_time) / u.count.max(1) as f64,
        );
    }
    out.notes.push(format!(
        "spans: {} recorded, {per_unit:.1} per unit, {span_ns:.0} ns each",
        spans.len()
    ));
    out.notes
        .push("span self time (count, total ms, self ms):".into());
    for (name, st) in t {
        out.notes.push(format!(
            "  {name:<16} {:>7} {:>12.3} {:>12.3}",
            st.count,
            ms(st.total),
            ms(st.self_time)
        ));
    }
}

/// Holds a single-simulation workload to one CPU; in a traced run the
/// unconfined switch cost is probed first.
fn with_one_cpu(opts: &Opts, spans: &Spans, out: &mut Outcome, f: impl FnOnce(&mut Outcome)) {
    if opts.trace && opts.kind != Kind::IssImpl {
        sim_probes(out, spans, false);
    }
    if let Err(e) = affinity::confined(|| f(out)) {
        out.fail(format!("cannot hold the process to one CPU: {e}"));
    }
}

/// Runs `vocoder_arch`.
pub fn run_vocoder_arch(opts: &Opts, process_start: Instant, spans: &Spans, out: &mut Outcome) {
    with_one_cpu(opts, spans, out, |out| {
        let mut unsched_ms = Vec::new();
        let mut enc_us = Vec::new();
        let mut dec_us = Vec::new();
        let seed = opts.seed;
        let trace = opts.trace;
        let mut extra = |i: u64, uid: SpanId, run: &UnitRun| -> Result<(), String> {
            if trace {
                let ((e, d), _) = spans.timed("probe.codec", "main", uid, i, |_| {
                    probes::codec_us(derive_seed(seed, i), VOCODER_FRAMES)
                });
                enc_us.push(e);
                dec_us.push(d);
            }
            if !trace && i >= REFERENCE_UNITS {
                return Ok(());
            }
            let (u, t) = spans.timed("probe.unscheduled", "main", uid, i, |_| {
                simulate_unscheduled(&vocoder_config(seed, i))
            });
            unsched_ms.push(ms(t));
            let u = u.map_err(|e| {
                format!(
                    "unit {i} (unscheduled): {}",
                    bench::scenario::describe_run_error(&e)
                )
            })?;
            match run.snr_db {
                Some(snr) if snr.to_bits() == u.mean_snr_db.to_bits() => Ok(()),
                snr => Err(format!(
                    "unit {i}: SNR differs between models: architecture {snr:?}, unscheduled {}",
                    u.mean_snr_db
                )),
            }
        };
        let s = unit_loop(
            opts,
            process_start,
            spans,
            out,
            (4, 2),
            &|i| vocoder_unit(seed, i),
            &mut extra,
        );
        if trace {
            sim_probes(out, spans, true);
            let (v, _) = spans.timed("probe.select", "main", NONE, 0, |_| {
                probes::select_ns(SchedAlg::PriorityPreemptive, 2, 200_000)
            });
            out.set("core.select_ns", v);
            let p50 = median(&s.cold_ms);
            out.set(
                "core.a3_ratio",
                p50 / median(&unsched_ms).max(f64::MIN_POSITIVE),
            );
            let (e, d) = (median(&enc_us), median(&dec_us));
            out.set("vocoder.encode_us", e);
            out.set("vocoder.decode_us", d);
            out.set(
                "vocoder.model_share",
                VOCODER_FRAMES as f64 * (e + d) / (p50 * 1e3),
            );
            set_sim_ratios(out, p50);
            let (c, _) = spans.timed("probe.trace", "main", NONE, 0, |_| {
                probes::trace_cost(&vocoder_config(seed, 0))
            });
            out.set("trace.records", c.records);
            out.set("trace.ns_per_record", c.ns_per_record);
            out.set("trace.export_ms", c.export_ms);
            out.set("trace.analyze_ms", c.analyze_ms);
            set_overhead(out, spans, s.cold_ms.len() as f64, &s.cold_ms, "unit");
        }
    });
}

/// Runs `taskset_edf`.
pub fn run_taskset_edf(opts: &Opts, process_start: Instant, spans: &Spans, out: &mut Outcome) {
    with_one_cpu(opts, spans, out, |out| {
        let seed = opts.seed;
        let s = unit_loop(
            opts,
            process_start,
            spans,
            out,
            (EDF_TASKS + 2, 2),
            &|i| taskset_unit(seed, i),
            &mut |_, _, _| Ok(()),
        );
        if opts.trace {
            sim_probes(out, spans, true);
            let (v, _) = spans.timed("probe.select", "main", NONE, 0, |_| {
                probes::select_ns(SchedAlg::Edf, EDF_TASKS as u32, 200_000)
            });
            out.set("core.select_ns", v);
            set_sim_ratios(out, median(&s.cold_ms));
            set_overhead(out, spans, s.cold_ms.len() as f64, &s.cold_ms, "unit");
        }
    });
}

/// Runs `iss_impl`.
pub fn run_iss_impl(opts: &Opts, process_start: Instant, spans: &Spans, out: &mut Outcome) {
    with_one_cpu(opts, spans, out, |out| {
        let trace = opts.trace;
        let mut asm_ms = Vec::new();
        let mut extra = |i: u64, uid: SpanId, _: &UnitRun| -> Result<(), String> {
            if trace {
                let (v, _) = spans.timed("probe.assemble", "main", uid, i, |_| {
                    probes::assemble_ms(&impl_config())
                });
                asm_ms.push(v);
            }
            Ok(())
        };
        let s = unit_loop(
            opts,
            process_start,
            spans,
            out,
            (0, 1),
            &|_| iss_unit(),
            &mut extra,
        );
        let err = delay_err_pct(opts.seed);
        out.notes.push(format!(
            "delay_err_pct: {err:.4} % (architecture vs implementation model, {ISS_FRAMES} frames, simulated)"
        ));
        if trace {
            out.set("iss.delay_err_pct", err);
            let a = median(&asm_ms);
            out.set("iss.assemble_ms", a);
            let instr = out.metrics.get("iss.instructions").copied().unwrap_or(0.0);
            out.set("iss.minstr_per_s", instr / ((median(&s.cold_ms) - a) * 1e3));
            set_overhead(out, spans, s.cold_ms.len() as f64, &s.cold_ms, "unit");
        }
    });
}

/// Sets `sim.self_resume_frac` and `sim.switch_share` from the per-unit
/// kernel counts, the unit's median host time and the confined switch
/// cost `sim.switch_us`.
pub(crate) fn set_sim_ratios(out: &mut Outcome, p50_ms: f64) {
    let get = |k: &str| out.metrics.get(k).copied().unwrap_or(0.0);
    let (resumes, switches, cost) = (
        get("sim.resumes"),
        get("sim.switches"),
        get("sim.switch_us"),
    );
    if resumes > 0.0 {
        out.set("sim.self_resume_frac", (resumes - switches) / resumes);
    }
    out.set(
        "sim.switch_share",
        switches * cost / (p50_ms * 1e3).max(f64::MIN_POSITIVE),
    );
}
