//! Scheduler conformance under every same-delta dispatch order.
//!
//! A [`ChaosPlan`] sets a *kernel* decision (same-delta dispatch order)
//! underneath the RTOS model, and `explore` enumerates every such
//! schedule of a scenario. These tests pin down that the RTOS layer stays
//! well-formed under each of them:
//!
//! * a run under a schedule is a pure function of its picks (replays are
//!   exact);
//! * the scheduler conformance oracle (`set_conformance_checks`) and the
//!   kernel invariant oracle both stay quiet on every schedule of a
//!   workload mixing `RtosMutex::lock_timeout` bounded waits with
//!   deadline-miss policies;
//! * enabling the oracles does not change observable results.

use std::sync::Arc;
use std::time::Duration;

use rtos_model::{
    CycleOutcome, InheritancePolicy, MissPolicy, MutexError, Priority, Rtos, RtosMutex, SchedAlg,
    TaskParams,
};
use sldl_sim::chaos::explore;
use sldl_sim::sync::Mutex;
use sldl_sim::{ChaosPlan, Child, ChoicePoint, KernelInvariants, RunError, SimTime, Simulation};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// Observable digest of one scenario run: end time, context switches,
/// deadline misses, and the time-stamped mutex-acquisition log.
type Digest = (SimTime, u64, u64, Vec<(u64, Result<(), MutexError>)>);

/// A PE mixing two robustness features: a periodic overrunner governed by
/// a deadline-miss policy, and two aperiodic tasks contending on a mutex
/// through bounded `lock_timeout` waits. Returns the digest and the
/// choice-point log.
fn run_scenario(
    chaos: Option<ChaosPlan>,
    oracle: bool,
) -> Result<(Digest, Vec<ChoicePoint>), RunError> {
    let mut builder = Simulation::builder();
    if let Some(plan) = chaos {
        builder = builder.chaos_plan(plan);
    }
    if oracle {
        builder = builder.invariants(KernelInvariants::all());
    }
    let mut sim = builder.build();
    let os = Rtos::new("pe", sim.sync_layer());
    os.start(SchedAlg::PriorityPreemptive);
    os.set_conformance_checks(oracle);
    let m = RtosMutex::named(os.clone(), InheritancePolicy::Inherit, "shared");
    let locks = Arc::new(Mutex::new(Vec::new()));

    // Periodic task that overruns its WCET every cycle; SkipCycle sheds
    // load once the budget is exhausted. Its preemptions give the kernel
    // same-delta choices to make.
    let os_o = os.clone();
    sim.spawn(Child::new("overrunner", move |ctx| {
        let mut p = TaskParams::periodic("overrunner", us(100));
        p.priority(Priority(1))
            .wcet(us(40))
            .miss_policy(MissPolicy::SkipCycle)
            .miss_budget(2);
        let me = os_o.task_create(&p);
        os_o.task_activate(ctx, me);
        for _ in 0..6 {
            os_o.time_wait(ctx, us(130)); // overruns the 100 us period
            if os_o.task_endcycle(ctx) == CycleOutcome::Stop {
                return;
            }
        }
        os_o.task_terminate(ctx);
    }));
    // Holder: grabs the mutex and parks on an RTOS event while holding it
    // — on a single CPU a lock can only be *attempted* while the holder is
    // blocked, so this is what makes bounded waits genuinely expire.
    let release_ev = os.event_new();
    let os_h = os.clone();
    let mh = m.clone();
    sim.spawn(Child::new("holder", move |ctx| {
        let me = os_h.task_create(&TaskParams::aperiodic("holder", Priority(2)));
        os_h.task_activate(ctx, me);
        mh.lock(ctx);
        os_h.event_wait(ctx, release_ev);
        mh.unlock(ctx);
        os_h.task_terminate(ctx);
    }));
    // Two same-priority contenders hammer the mutex with bounded waits.
    // A timed-out contender asks the holder to release, so later attempts
    // succeed: both Ok and Timeout outcomes occur in every run.
    for i in 0..2u32 {
        let os_c = os.clone();
        let mc = m.clone();
        let log = Arc::clone(&locks);
        sim.spawn(Child::new(format!("contender{i}"), move |ctx| {
            let me = os_c.task_create(&TaskParams::aperiodic(format!("contender{i}"), Priority(3)));
            os_c.task_activate(ctx, me);
            for _ in 0..4 {
                let got = mc.lock_timeout(ctx, us(35));
                log.lock().push((ctx.now().as_micros(), got));
                match got {
                    Ok(()) => {
                        os_c.time_wait(ctx, us(20));
                        mc.unlock(ctx);
                    }
                    Err(_) => os_c.event_notify(ctx, release_ev),
                }
                os_c.time_wait(ctx, us(10));
            }
            // Retire the holder in case every bounded wait happened to
            // succeed (a lost notify on a free event is harmless).
            os_c.event_notify(ctx, release_ev);
            os_c.task_terminate(ctx);
        }));
    }

    let report = sim.run()?;
    let metrics = os.metrics_at(report.end_time);
    let misses: u64 = metrics.tasks.iter().map(|t| t.deadline_misses).sum();
    let locks = Arc::try_unwrap(locks).unwrap().into_inner();
    let digest = (report.end_time, metrics.context_switches, misses, locks);
    Ok((digest, report.chaos))
}

#[test]
fn scenario_exercises_both_lock_outcomes() {
    let ((_, _, misses, locks), _) = run_scenario(None, false).unwrap();
    assert!(misses > 0, "overrunner must miss deadlines");
    assert!(locks.iter().any(|(_, r)| r.is_ok()), "{locks:?}");
    assert!(
        locks.iter().any(|(_, r)| *r == Err(MutexError::Timeout)),
        "bounded waits must also time out: {locks:?}"
    );
}

#[test]
fn every_schedule_replays_and_keeps_both_oracles_quiet() {
    // The acceptance sweep: on every schedule, every dispatch conformance
    // check and every kernel invariant holds, the run replays exactly,
    // and arming the oracles changes nothing observable.
    let e = explore(8, |plan| {
        let checked =
            run_scenario(Some(plan.clone()), true).map_err(|err| format!("{plan:?}: {err}"))?;
        let replay = run_scenario(Some(plan.clone()), true).unwrap();
        let bare = run_scenario(Some(plan.clone()), false).unwrap();
        if checked != replay {
            return Err(format!("{plan:?} did not replay"));
        }
        if checked.0 != bare.0 {
            return Err(format!("the oracles perturbed {plan:?}"));
        }
        if checked.0 .3.is_empty() {
            return Err(format!("{plan:?} produced no lock traffic"));
        }
        Ok(Some(checked.1))
    });
    assert_eq!((e.schedules, e.complete, e.failure), (160, true, None));
}
