//! Property tests for explicit dispatch schedules and the kernel
//! invariant oracle.
//!
//! Load-bearing invariants:
//!
//! * the unarmed plan ([`ChaosPlan::none`]) leaves a run *identical* to
//!   one with no plan — same end time, same trace (byte for byte), empty
//!   choice-point log — and an armed schedule with no non-FIFO pick
//!   dispatches identically too, only logging its choice points;
//! * a schedule is a pure function of its picks: replays are exact;
//! * the invariant oracle never fires on a healthy kernel under any
//!   schedule, and its presence does not change the simulated schedule.

use std::sync::Arc;
use std::time::Duration;

use sldl_sim::chaos::explore;
use sldl_sim::sync::Mutex;
use sldl_sim::{
    ChaosPlan, Child, ChoicePoint, FaultPlan, KernelInvariants, Pick, Record, SimTime, Simulation,
    TraceConfig,
};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// What one run of [`run_workload`] shows: end time, kernel trace,
/// choice-point log and wake-order log.
type Run = (SimTime, Vec<Record>, Vec<ChoicePoint>, Vec<(u64, usize)>);

/// A workload with real same-delta contention (several processes become
/// runnable in one delta every tick), so schedules have choices to make.
fn run_workload(plan: Option<ChaosPlan>, checks: Option<KernelInvariants>, ticks: usize) -> Run {
    let mut builder = Simulation::builder().trace(TraceConfig {
        kernel_records: true,
    });
    if let Some(p) = plan {
        builder = builder.chaos_plan(p);
    }
    if let Some(c) = checks {
        builder = builder.invariants(c);
    }
    let mut sim = builder.build();
    let trace = sim.trace_handle().expect("trace configured");
    let ev = sim.event_new();
    let log = Arc::new(Mutex::new(Vec::new()));

    sim.spawn(Child::new("ticker", move |ctx| {
        for _ in 0..ticks {
            ctx.waitfor(us(50));
            ctx.notify(ev);
        }
    }));
    // Three same-priority waiters wake in the same delta every tick; the
    // order they observe (and append to the log) is exactly the kernel's
    // dispatch order.
    for i in 0..3usize {
        let l = Arc::clone(&log);
        sim.spawn(Child::new(format!("waiter{i}"), move |ctx| {
            for _ in 0..ticks {
                ctx.wait(ev);
                l.lock().push((ctx.now().as_micros(), i));
                // A little same-delta compute churn so ready queues of
                // depth > 1 exist at dispatch time.
                ctx.waitfor(Duration::ZERO);
            }
        }));
    }

    let report = sim.run().expect("workload runs clean");
    let log = Arc::try_unwrap(log).unwrap().into_inner();
    (report.end_time, trace.snapshot(), report.chaos, log)
}

fn pick(choice: u64, position: u32) -> Pick {
    Pick { choice, position }
}

#[test]
fn empty_plan_is_byte_identical_to_no_plan() {
    let baseline = run_workload(None, None, 20);
    let run = run_workload(Some(ChaosPlan::none()), None, 20);
    assert_eq!(run.0, baseline.0, "end time differs");
    assert_eq!(run.1, baseline.1, "trace differs");
    assert!(run.2.is_empty(), "unarmed plan logged choice points");
    assert_eq!(run.3, baseline.3, "wake order differs");
    // An armed schedule without a non-FIFO pick (position-0 picks are the
    // default) dispatches exactly as the unarmed kernel; it only logs.
    for plan in [
        ChaosPlan::schedule([]),
        ChaosPlan::schedule([pick(0, 0), pick(3, 0)]),
    ] {
        let run = run_workload(Some(plan.clone()), None, 20);
        assert_eq!(run.0, baseline.0, "end time differs for {plan:?}");
        assert_eq!(run.1, baseline.1, "trace differs for {plan:?}");
        assert_eq!(run.3, baseline.3, "wake order differs for {plan:?}");
        assert!(!run.2.is_empty(), "armed plan logged no choice point");
        assert!(run.2.iter().all(|c| c.position == 0 && c.ready >= 2));
    }
}

#[test]
fn oracle_alone_does_not_change_the_schedule() {
    let baseline = run_workload(None, None, 20);
    let with_oracle = run_workload(None, Some(KernelInvariants::all()), 20);
    assert_eq!(with_oracle.0, baseline.0);
    assert_eq!(with_oracle.1, baseline.1, "oracle perturbed the trace");
    assert_eq!(with_oracle.3, baseline.3);
    // An empty check selection is not even armed.
    let with_none = run_workload(None, Some(KernelInvariants::none()), 20);
    assert_eq!(with_none.1, baseline.1);
}

#[test]
fn schedules_replay_exactly() {
    let e = explore(2, |plan| -> Result<_, String> {
        let a = run_workload(Some(plan.clone()), None, 1);
        let b = run_workload(Some(plan.clone()), None, 1);
        if a != b {
            return Err(format!("{plan:?} did not replay"));
        }
        Ok(Some(a.2))
    });
    assert_eq!((e.schedules, e.complete, e.failure), (73, false, None));
}

#[test]
fn a_non_fifo_pick_changes_the_dispatch_order() {
    let baseline = run_workload(Some(ChaosPlan::schedule([])), None, 4);
    let first = &baseline.2[3];
    let run = run_workload(Some(ChaosPlan::schedule([pick(3, 1)])), None, 4);
    assert_eq!(
        run.0, baseline.0,
        "a schedule must not change simulated time"
    );
    assert_ne!(run.3, baseline.3, "the pick did not change the order");
    assert_eq!((run.2[3].at, run.2[3].ready), (first.at, first.ready));
    assert_eq!(run.2[3].position, 1);
    assert_ne!(run.2[3].process, first.process);
}

#[test]
fn oracle_stays_quiet_on_every_schedule() {
    let e = explore(8, |plan| -> Result<_, String> {
        let run = run_workload(Some(plan.clone()), Some(KernelInvariants::all()), 1);
        if run.3.len() != 3 {
            return Err(format!("{plan:?} lost wakeups: {:?}", run.3));
        }
        Ok(Some(run.2))
    });
    // Startup orders 4 ready processes (4! schedules), and the tick wakes
    // three waiters twice (3! × 3!).
    assert_eq!((e.schedules, e.complete, e.failure), (24 * 36, true, None));
}

// Under the chaos-bug feature the dropped notifications in this workload
// legitimately trip the oracle, so the clean-composition claim only holds
// on an unbugged kernel.
#[cfg(not(feature = "chaos-bug"))]
#[test]
fn oracle_composes_with_fault_injection() {
    // Schedules + faults + oracle together: the kernel must stay
    // internally consistent even when notifications are dropped or
    // duplicated while the dispatch order varies.
    for seed in 0..4u64 {
        let e = explore(2, |plan| {
            let mut sim = Simulation::builder()
                .fault_plan(
                    FaultPlan::seeded(seed)
                        .with_drop_notify(0.2)
                        .with_dup_notify(0.2),
                )
                .chaos_plan(plan.clone())
                .invariants(KernelInvariants::all())
                .build();
            let ev = sim.event_new();
            sim.spawn(Child::new("producer", move |ctx| {
                for _ in 0..15 {
                    ctx.waitfor(us(10));
                    ctx.notify(ev);
                }
            }));
            for i in 0..3 {
                sim.spawn(Child::new(format!("consumer{i}"), move |ctx| {
                    for _ in 0..15 {
                        // A timeout is a dropped notify: keep going.
                        let _ = ctx.wait_timeout(ev, us(25));
                    }
                }));
            }
            sim.run().map(|report| Some(report.chaos))
        });
        assert!(e.failure.is_none(), "seed {seed}: {:?}", e.failure);
    }
}

#[cfg(feature = "chaos-bug")]
#[test]
fn injected_bug_is_caught_by_the_oracle() {
    // With the chaos-bug feature, a dropped notification under an armed
    // chaos plan regresses the delta-stamp clock; the oracle must turn
    // that into a structured violation instead of silent corruption.
    let mut caught = false;
    for seed in 0..32u64 {
        let mut sim = Simulation::builder()
            .fault_plan(FaultPlan::seeded(seed).with_drop_notify(0.5))
            .chaos_plan(ChaosPlan::schedule([]))
            .invariants(KernelInvariants::all())
            .build();
        let ev = sim.event_new();
        sim.spawn(Child::new("producer", move |ctx| {
            for _ in 0..10 {
                ctx.waitfor(us(10));
                ctx.notify(ev);
            }
        }));
        sim.spawn(Child::new("consumer", move |ctx| {
            for _ in 0..10 {
                let _ = ctx.wait_timeout(ev, us(25));
            }
        }));
        if let Err(sldl_sim::RunError::InvariantViolation { invariant, .. }) = sim.run() {
            assert!(
                invariant == "delta-monotonicity" || invariant == "event-consistency",
                "unexpected invariant {invariant}"
            );
            caught = true;
        }
    }
    assert!(caught, "injected bug never tripped the oracle");
}

#[test]
fn choice_point_log_is_pinned() {
    // The ticker workload's choice points under the FIFO schedule and
    // under two non-FIFO picks: (time µs, ready, position, process index).
    type Logged = (u64, u32, u32, usize);
    const PICKED: &[Logged] = &[
        (0, 4, 3, 3),
        (0, 3, 0, 0),
        (0, 2, 0, 1),
        (50, 3, 2, 2),
        (50, 2, 0, 3),
        (50, 3, 0, 2),
        (50, 2, 0, 3),
        (100, 3, 0, 2),
        (100, 2, 0, 3),
        (100, 3, 0, 2),
        (100, 2, 0, 3),
        (150, 3, 0, 2),
        (150, 2, 0, 3),
        (150, 3, 0, 2),
        (150, 2, 0, 3),
        (200, 3, 0, 2),
        (200, 2, 0, 3),
        (200, 3, 0, 2),
        (200, 2, 0, 3),
    ];
    const FIFO: &[Logged] = &[
        (0, 4, 0, 0),
        (0, 3, 0, 1),
        (0, 2, 0, 2),
        (50, 3, 0, 1),
        (50, 2, 0, 2),
        (50, 3, 0, 1),
        (50, 2, 0, 2),
        (100, 3, 0, 1),
        (100, 2, 0, 2),
        (100, 3, 0, 1),
        (100, 2, 0, 2),
        (150, 3, 0, 1),
        (150, 2, 0, 2),
        (150, 3, 0, 1),
        (150, 2, 0, 2),
        (200, 3, 0, 1),
        (200, 2, 0, 2),
        (200, 3, 0, 1),
        (200, 2, 0, 2),
    ];
    let pinned: [(&[Pick], &[Logged]); 2] = [(&[], FIFO), (&[pick(0, 3), pick(3, 2)], PICKED)];
    for (picks, want) in pinned {
        let run = run_workload(Some(ChaosPlan::schedule(picks.iter().copied())), None, 4);
        let got: Vec<Logged> = run
            .2
            .iter()
            .map(|c| (c.at.as_micros(), c.ready, c.position, c.process.index()))
            .collect();
        assert_eq!(got, want, "picks {picks:?}");
    }
}

#[test]
fn oracle_reports_a_body_that_outlives_its_cancellation() {
    // A body that swallows the teardown's cancellation and suspends again
    // keeps live frames on its stack: the stack can never be reused, and
    // the pool-quiescence check must say which process did it.
    let mut sim = Simulation::builder()
        .invariants(KernelInvariants::all())
        .build();
    let e = sim.event_new();
    sim.spawn(Child::new("stubborn", move |ctx| {
        let wait = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.wait(e)));
        assert!(
            wait.is_err(),
            "only the teardown's cancellation ends the wait"
        );
        ctx.waitfor(us(1));
    }));
    match sim.run() {
        Err(sldl_sim::RunError::InvariantViolation {
            invariant, subject, ..
        }) => {
            assert_eq!(invariant, "pool-quiescence");
            assert!(subject.contains("stubborn"), "{subject}");
        }
        other => panic!("expected a pool-quiescence violation, got {other:?}"),
    }
}
