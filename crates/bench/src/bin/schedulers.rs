//! Ablation **A2**: scheduling-algorithm comparison on synthetic periodic
//! task sets — the RTOS model "supports all the key concepts found in
//! modern RTOS … real time scheduling"; this harness shows the classic
//! textbook behavior emerging from the model:
//!
//! * EDF schedules any set with utilization ≤ 1;
//! * RMS is safe below the Liu–Layland bound and can miss above it;
//! * naive FIFO degrades much earlier.
//!
//! For each target utilization, random task sets (log-uniform periods,
//! UUniFast-style utilization split) run to a fixed horizon under each
//! algorithm. Every `(utilization, algorithm, set)` triple is one
//! declarative [`ScenarioSpec`] point driven by the shared [`SweepApp`]
//! skeleton; the set's generator seed depends only on `(base seed,
//! utilization, set index)` — **not** on the algorithm — so all four
//! algorithms face identical task sets (paired sampling) and results are
//! `--jobs`-independent.
//!
//! Run with `cargo run -p bench --bin schedulers -- [--sets N]
//! [--frames HORIZON_MS] [--jobs N] [--seed S] [--json PATH]
//! [--cache-dir DIR] [--quiet]`.

#![forbid(unsafe_code)]

use std::time::Duration;

use bench::cli::{self, SweepApp, SweepPoint};
use bench::farm::derive_seed;
use bench::json::Json;
use bench::scenario::{ScenarioSpec, Workload};
use bench::stats::Aggregate;
use bench::TextTable;
use rtos_model::{SchedAlg, TimeSlice};

const ABOUT: &str =
    "A2: scheduler comparison on random periodic task sets (RMS/EDF/fixed-prio/FIFO)";
const N_TASKS: usize = 5;

fn algs() -> [(&'static str, SchedAlg); 4] {
    [
        ("RMS", SchedAlg::Rms),
        ("EDF", SchedAlg::Edf),
        ("fixed-prio (RM-assigned)", SchedAlg::PriorityPreemptive),
        ("FIFO", SchedAlg::Fifo),
    ]
}

/// The `(utilization, algorithm)` pair a point belongs to, read back
/// from its params (the grouping key of the paired-sampling aggregate).
fn group_key(p: &SweepPoint) -> (f64, &str) {
    let util = match p.params[0].1 {
        Json::Num(x) => x,
        _ => f64::NAN,
    };
    let alg = match &p.params[1].1 {
        Json::Str(s) => s.as_str(),
        _ => "",
    };
    (util, alg)
}

fn main() {
    let args = cli::parse(
        "schedulers",
        ABOUT,
        0xA2,
        &[("sets", "N", "random task sets per sweep point (default 10)")],
    );
    let sets_per_point: usize = args.extra_or("sets", 10);
    let horizon_ms = args.frames.unwrap_or(400);
    let horizon_us = horizon_ms as u64 * 1000;

    let utils = [0.5, 0.69, 0.85, 0.95, 1.05];
    let mut points = Vec::new();
    for (u_idx, util) in utils.iter().enumerate() {
        for (alg_name, alg) in algs() {
            for set_idx in 0..sets_per_point {
                // Paired sampling: the task-set seed is shared by all four
                // algorithms (it ignores the algorithm), derived via two
                // SplitMix64 splits from the base seed.
                let set_seed = derive_seed(derive_seed(args.seed, u_idx as u64), set_idx as u64);
                points.push(
                    SweepPoint::new(
                        ScenarioSpec::new(
                            format!("u={util:.2}/{alg_name}/set={set_idx}"),
                            Workload::TaskSet {
                                tasks: N_TASKS,
                                utilization: *util,
                                horizon_us,
                            },
                        )
                        .sched(alg)
                        // 100 µs preemption quantum: fine enough that the
                        // textbook schedulability results emerge (whole-delay
                        // slicing would charge priority inversions of entire
                        // delay annotations and miss deadlines at low load).
                        .slice(TimeSlice::Quantum(Duration::from_micros(100)))
                        .seeded(set_seed),
                    )
                    // Seeds are pre-baked into the specs (paired sampling),
                    // so the farm's per-index seed is unused here.
                    .prebaked()
                    .param("utilization", Json::Num(*util))
                    .param("algorithm", Json::str(alg_name))
                    .param("set", Json::U64(set_idx as u64))
                    .param("set_seed", Json::U64(set_seed)),
                );
            }
        }
    }

    let app = SweepApp::new("schedulers", args)
        .header("tasks", Json::U64(N_TASKS as u64))
        .header("sets_per_point", Json::U64(sets_per_point as u64))
        .header("horizon_ms", Json::U64(horizon_ms as u64));
    let run = app.run(&points);

    // Aggregate per (utilization, algorithm) over the paired sets, in
    // sweep order — deterministic regardless of --jobs.
    struct Group {
        util: f64,
        alg_name: String,
        misses: u64,
        cycles: u64,
        worst: f64,
    }
    let mut groups: Vec<Group> = Vec::new();
    for (p, outcome) in points.iter().zip(&run.outcomes) {
        let Some(o) = outcome.as_completed() else {
            continue; // quarantined by the farm; reported in the document
        };
        if !o.completed {
            eprintln!("warning: point {} failed: {}", p.spec.name, o.status);
            continue;
        }
        let (util, alg_name) = group_key(p);
        let pos = groups
            .iter()
            .position(|g| g.util == util && g.alg_name == alg_name)
            .unwrap_or_else(|| {
                groups.push(Group {
                    util,
                    alg_name: alg_name.to_string(),
                    misses: 0,
                    cycles: 0,
                    worst: 0.0,
                });
                groups.len() - 1
            });
        let g = &mut groups[pos];
        g.misses += o.metric("deadline_misses").unwrap_or(0.0) as u64;
        g.cycles += o.metric("cycles_run").unwrap_or(0.0) as u64;
        let w = o.metric("worst_resp_over_period").unwrap_or(0.0);
        g.worst = g.worst.max(w);
    }

    if !app.args.quiet {
        println!(
            "A2: scheduler comparison — {N_TASKS} periodic tasks, {sets_per_point} random \
             sets/point, horizon {horizon_ms} ms\n"
        );
        let mut table = TextTable::new();
        table.row([
            "utilization",
            "algorithm",
            "miss rate",
            "worst resp/period",
            "cycles run",
        ]);
        for g in &groups {
            table.row([
                format!("{:.2}", g.util),
                g.alg_name.clone(),
                format!("{:.3}%", 100.0 * g.misses as f64 / g.cycles.max(1) as f64),
                format!("{:.2}", g.worst),
                g.cycles.to_string(),
            ]);
        }
        print!("{}", table.render());
        println!(
            "\nShape checks: EDF misses ≈ 0 up to util 1.0; RMS safe ≤ 0.69 (Liu–Layland, \
             n=5 bound 0.743); FIFO degrades first."
        );
    }

    app.finish(&points, &run, |doc| {
        for g in &groups {
            let collect = |key: &str| -> Vec<f64> {
                points
                    .iter()
                    .zip(&run.outcomes)
                    .filter_map(|(p, outcome)| outcome.as_completed().map(|o| (p, o)))
                    .filter(|(p, o)| group_key(p) == (g.util, g.alg_name.as_str()) && o.completed)
                    .filter_map(|(_, o)| o.metric(key))
                    .collect()
            };
            let mut metrics: Vec<(&str, Aggregate)> = Vec::new();
            for key in ["deadline_misses", "cycles_run", "worst_resp_over_period"] {
                if let Some(a) = Aggregate::from_samples(&collect(key)) {
                    metrics.push((key, a));
                }
            }
            doc.push_aggregate(format!("u={:.2}/{}", g.util, g.alg_name), metrics);
        }
    });
}
