//! Chaos torture sweep **C1**: every same-delta dispatch schedule of the
//! kernel, under fault injection, with the invariant oracle armed.
//!
//! The matrix is `(workload × FaultPlan × seed)`: the vocoder
//! architecture and unscheduled models and a synthetic periodic task set,
//! each clean and under notify-drop, notify-dup and WCET-jitter faults.
//! The seed keys the fault draws and the task-set generation. Each point
//! enumerates its run's schedules with [`explore`]: rounds of 0, 1, 2, …
//! non-FIFO picks at the kernel's choice points, up to [`MAX_PICKS`],
//! every run with [`KernelInvariants::all`] and the RTOS
//! scheduler-conformance checks armed. A point reports `schedules` (runs
//! made) and `complete` (1 when that was every schedule).
//!
//! Model-level failures (watchdog expiries, detected deadlocks) are
//! *expected* under faults and count as clean outcomes; a **chaos
//! failure** is a kernel invariant violation, a panic, or a point
//! exceeding the wall-clock watchdog, which the farm quarantines as
//! `degraded` instead of aborting the sweep. The first failure is written
//! as a `rtos-sld-chaos-repro/2` artifact ([`Repro`]): the failing
//! [`ScenarioSpec`], schedule included. No failing schedule of its point
//! has fewer non-FIFO picks, so it needs no shrinking. `--repro PATH`
//! replays it.
//!
//! The matrix is a set of declarative points on the shared [`SweepApp`]
//! skeleton (watchdog-guarded farm, `--json` document, incremental
//! `--cache-dir` reruns, keyed apart from plain runs of the same specs).
//!
//! Run with `cargo run -p bench --bin chaos -- [--frames N] [--seeds N]
//! [--jobs N] [--seed S] [--watchdog-us US] [--repro-out PATH]
//! [--repro PATH] [--json PATH] [--cache-dir DIR] [--quiet]`. Exits
//! nonzero iff chaos failures were found (or, in `--repro` mode, iff the
//! artifact fails to reproduce).

#![forbid(unsafe_code)]

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::time::Duration;

use bench::cli::{self, SweepApp, SweepPoint};
use bench::farm::{derive_seed, panic_message, run_guarded, DegradedKind, Guarded, PointResult};
use bench::json::Json;
use bench::repro::{FailureKind, Repro};
use bench::scenario::{ScenarioOutcome, ScenarioSpec, Workload};
use bench::TextTable;
use sldl_sim::chaos::explore;
use sldl_sim::prelude::*;

const ABOUT: &str =
    "C1: chaos torture matrix (workload x FaultPlan x seed), every same-delta schedule per point";

/// Most non-FIFO picks in an enumerated schedule. No schedule of the
/// default matrix needs more than 6; a point that would is reported
/// incomplete.
const MAX_PICKS: usize = 8;

/// The matrix workloads. Size is `frames` vocoder frames, or a task-set
/// horizon of `frames × 10 ms`.
fn workloads(frames: usize) -> [(&'static str, Workload); 3] {
    [
        ("vocoder", Workload::VocoderArchitecture),
        // The unscheduled model's queues ride the plain kernel sync layer
        // (`ctx.notify`), so it is the workload that exposes kernel-level
        // notify faults to the oracle; the architecture model implements
        // RTOS events above the kernel.
        ("vocoder_unsched", Workload::VocoderUnscheduled),
        (
            "task_set",
            Workload::TaskSet {
                tasks: 4,
                utilization: 0.85,
                horizon_us: frames as u64 * 10_000,
            },
        ),
    ]
}

/// One run of `spec`: its choice-point log (`None` after a model-level
/// error, which leaves none), or the chaos failure.
fn run_schedule(spec: &ScenarioSpec) -> Result<Option<Vec<ChoicePoint>>, (FailureKind, String)> {
    let (outcome, choices) = std::panic::catch_unwind(AssertUnwindSafe(|| spec.run_with_choices()))
        .map_err(|payload| (FailureKind::Panicked, panic_message(payload.as_ref())))?;
    if !outcome.completed && outcome.status.starts_with("kernel invariant") {
        return Err((FailureKind::Invariant, outcome.status));
    }
    Ok(choices)
}

/// Enumerates the schedules of `spec`; the failure, if any, comes first.
fn explore_spec(spec: &ScenarioSpec) -> sldl_sim::chaos::Exploration<(FailureKind, String)> {
    explore(MAX_PICKS, |plan| {
        run_schedule(&spec.clone().chaos(plan.clone()))
    })
}

/// The per-point runner. A failing schedule makes the outcome's status
/// `"{kind}: {message}"`.
fn enumerate(spec: &ScenarioSpec) -> ScenarioOutcome {
    let e = explore_spec(spec);
    let mut o = ScenarioOutcome::completed([
        ("schedules", e.schedules as f64),
        ("complete", f64::from(u8::from(e.complete))),
    ]);
    if let Some((_, (kind, message))) = e.failure {
        o.completed = false;
        o.status = format!("{}: {message}", kind.as_str());
    }
    o
}

fn classify(outcome: &PointResult<ScenarioOutcome>) -> Option<(FailureKind, String)> {
    match outcome {
        PointResult::Completed(o) => {
            let (kind, message) = o.status.split_once(": ")?;
            Some((FailureKind::parse(kind)?, message.to_string()))
        }
        PointResult::Degraded(d) => {
            let kind = match d.kind {
                DegradedKind::Overtime => FailureKind::Overtime,
                // `DegradedKind` is #[non_exhaustive]; treat future kinds
                // as the most severe class until given their own bucket.
                _ => FailureKind::Panicked,
            };
            Some((kind, d.message.clone()))
        }
    }
}

/// The repro artifact of a failing point. Enumerating the point again
/// yields the failing schedule of an invariant violation or panic. A
/// point the watchdog abandoned names no schedule, so its artifact holds
/// the armed FIFO schedule.
fn repro(spec: ScenarioSpec, kind: FailureKind, message: String) -> Repro {
    if kind != FailureKind::Overtime {
        if let Some((plan, (kind, message))) = explore_spec(&spec).failure {
            return Repro {
                spec: spec.chaos(plan),
                kind,
                message,
            };
        }
    }
    Repro {
        spec: spec.chaos(ChaosPlan::schedule([])),
        kind,
        message,
    }
}

/// `--repro PATH` mode: replay a repro artifact and report whether the
/// recorded failure kind reproduces.
fn replay(path: &Path, watchdog: Duration, quiet: bool) -> i32 {
    let repro = std::fs::read_to_string(path)
        .map_err(|e| format!("reading {}: {e}", path.display()))
        .and_then(|text| Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display())))
        .and_then(|doc| Repro::from_json(&doc).map_err(|e| format!("invalid repro artifact: {e}")));
    let repro = match repro {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    if !quiet {
        println!(
            "replaying {}: {} frames={} seed={} picks={:?} (expecting {})",
            path.display(),
            repro.spec.name,
            repro.spec.frames,
            repro.spec.seed,
            repro.spec.chaos.picks(),
            repro.kind.as_str()
        );
    }
    let spec = repro.spec.clone();
    let observed = match run_guarded(watchdog, move || run_schedule(&spec)) {
        Guarded::Finished(r) => r.err(),
        Guarded::Panicked(message) => Some((FailureKind::Panicked, message)),
        Guarded::Overtime => Some((
            FailureKind::Overtime,
            format!("exceeded the {} ms watchdog", watchdog.as_millis()),
        )),
    };
    match observed {
        Some((kind, message)) if kind == repro.kind => {
            if !quiet {
                println!("reproduced: {} — {message}", kind.as_str());
            }
            0
        }
        Some((kind, message)) => {
            eprintln!(
                "not reproduced: observed {} — {message} (artifact recorded {})",
                kind.as_str(),
                repro.kind.as_str()
            );
            1
        }
        None => {
            eprintln!(
                "not reproduced: run was clean (artifact recorded {})",
                repro.kind.as_str()
            );
            1
        }
    }
}

/// The labels of one torture-matrix point; the runnable spec lives in
/// the parallel [`SweepPoint`] at the same index.
#[derive(Debug, Clone, Copy)]
struct CellLabel {
    workload: &'static str,
    fault_name: &'static str,
}

fn main() {
    let args = cli::parse(
        "chaos",
        ABOUT,
        0xC1,
        &[
            ("seeds", "N", "seeds per matrix cell (default 6)"),
            (
                "watchdog-us",
                "US",
                "per-point wall-clock watchdog in microseconds (default 5000000)",
            ),
            (
                "repro-out",
                "PATH",
                "where to write the repro artifact (default chaos_repro.json)",
            ),
            (
                "repro",
                "PATH",
                "replay a repro artifact instead of sweeping",
            ),
        ],
    );
    let watchdog = Duration::from_micros(args.extra_or("watchdog-us", 5_000_000u64));
    if let Some(path) = args.extra("repro") {
        std::process::exit(replay(&PathBuf::from(path), watchdog, args.quiet));
    }

    let frames = args.frames.unwrap_or(4);
    let seeds: usize = args.extra_or("seeds", 6);
    let repro_out = PathBuf::from(
        args.extra("repro-out")
            .unwrap_or("chaos_repro.json")
            .to_string(),
    );

    let fault_plans: [(&str, FaultPlan); 4] = [
        ("clean", FaultPlan::none()),
        ("drop", FaultPlan::none().with_drop_notify(0.3)),
        ("dup", FaultPlan::none().with_dup_notify(0.3)),
        ("jitter", FaultPlan::none().with_wcet_jitter(0.3, 2.0)),
    ];

    let matrix = workloads(frames);
    let mut labels: Vec<CellLabel> = Vec::new();
    let mut points: Vec<SweepPoint> = Vec::new();
    for &(workload, ref w) in &matrix {
        for (fault_name, faults) in &fault_plans {
            for seed_idx in 0..seeds {
                labels.push(CellLabel {
                    workload,
                    fault_name,
                });
                let spec = ScenarioSpec::new(format!("chaos/{workload}"), w.clone())
                    .frames(frames)
                    .faults(faults.clone())
                    .oracle(true);
                points.push(
                    SweepPoint::new(spec)
                        .named(format!("{workload}/{fault_name}/s{seed_idx}"))
                        .param("workload", Json::str(workload))
                        .param("faults", Json::str(*fault_name)),
                );
            }
        }
    }

    // The per-point seed is derived from --seed and the point index, so
    // every cell draws `--seeds` independent fault streams and task sets.
    let app = SweepApp::new("chaos", args)
        .header("frames", Json::U64(frames as u64))
        .header("seeds_per_cell", Json::U64(seeds as u64))
        .header("max_picks", Json::U64(MAX_PICKS as u64))
        .watchdog(watchdog)
        .runner("enumerate", enumerate);
    let run = app.run(&points);

    struct Failure {
        index: usize,
        kind: FailureKind,
        message: String,
    }
    let failures: Vec<Failure> = run
        .outcomes
        .iter()
        .enumerate()
        .filter_map(|(index, outcome)| {
            classify(outcome).map(|(kind, message)| Failure {
                index,
                kind,
                message,
            })
        })
        .collect();

    if !app.args.quiet {
        println!(
            "C1: chaos torture matrix — {} points ({} workloads x {} faults x {seeds} seeds), \
             frames={frames}, every schedule up to {MAX_PICKS} non-FIFO picks\n",
            points.len(),
            matrix.len(),
            fault_plans.len(),
        );
        let mut t = TextTable::new();
        t.row([
            "workload",
            "faults",
            "points",
            "schedules",
            "per point",
            "complete",
            "failures",
        ]);
        for (cell, chunk) in run.outcomes.chunks(seeds.max(1)).enumerate() {
            let l = labels[cell * seeds];
            let counts: Vec<f64> = chunk
                .iter()
                .filter_map(|o| o.as_completed()?.metric("schedules"))
                .collect();
            let complete = chunk
                .iter()
                .filter(|o| o.as_completed().and_then(|o| o.metric("complete")) == Some(1.0))
                .count();
            let failed = chunk.iter().filter(|o| classify(o).is_some()).count();
            let (lo, hi) = counts.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &c| {
                (lo.min(c), hi.max(c))
            });
            t.row([
                l.workload.to_string(),
                l.fault_name.to_string(),
                chunk.len().to_string(),
                counts.iter().sum::<f64>().to_string(),
                if counts.is_empty() {
                    "-".to_string()
                } else {
                    format!("{lo}–{hi}")
                },
                complete.to_string(),
                failed.to_string(),
            ]);
        }
        print!("{}", t.render());
        for f in &failures {
            let l = &labels[f.index];
            println!(
                "\nfailure: point {} ({}/{} seed {}): {} — {}",
                f.index,
                l.workload,
                l.fault_name,
                derive_seed(app.args.seed, f.index as u64),
                f.kind.as_str(),
                f.message
            );
        }
    }

    app.finish(&points, &run, |_doc| {});

    if failures.is_empty() {
        if !app.args.quiet {
            println!("\nno chaos failures found");
        }
        return;
    }

    // Prefer a deterministic failure (invariant/panic), whose artifact
    // names its schedule, over an overtime one.
    let first = failures
        .iter()
        .find(|f| f.kind != FailureKind::Overtime)
        .unwrap_or(&failures[0]);
    let spec = points[first.index]
        .spec
        .clone()
        .seeded(derive_seed(app.args.seed, first.index as u64));
    let repro = repro(spec, first.kind, first.message.clone());
    match repro.to_json().write_to(&repro_out) {
        Ok(()) if !app.args.quiet => {
            println!(
                "\nrepro: point {} ({}), {} non-FIFO picks {:?}",
                first.index,
                repro.kind.as_str(),
                repro.spec.chaos.picks().len(),
                repro.spec.chaos.picks()
            );
            println!(
                "wrote {} — replay with: cargo run -p bench --bin chaos -- --repro {}",
                repro_out.display(),
                repro_out.display()
            );
        }
        Ok(()) => {}
        Err(e) => eprintln!("error: writing {}: {e}", repro_out.display()),
    }
    eprintln!(
        "error: {} chaos failure(s) across {} points",
        failures.len(),
        points.len()
    );
    std::process::exit(1);
}
