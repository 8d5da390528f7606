//! Teardown under thread recycling: simulated processes run on pooled OS
//! threads ([`sldl_sim::pool`]), so every way a process can end —
//! normal return, cancellation, panic, teardown-before-start — must hand
//! its worker thread back to the pool instead of leaking it, and kernel
//! error reporting must be unaffected by which (recycled) thread a
//! process happened to run on.
//!
//! The last test guards what direct handoff buys: a process that is its
//! own successor keeps running on its thread, so a self-resume costs far
//! less than a switch to another process's thread. It compares two host
//! timings from the same run, so it does not depend on host speed.
//!
//! The pool is **process-global**, so these tests serialize on a shared
//! mutex: each one needs exclusive pool visibility for its spawn/recycle
//! delta assertions, the `/proc` leak sweep and the timings.

use std::sync::Mutex;
use std::time::Duration;

use sldl_sim::{pool, Child, RunError, SimTime, Simulation};

/// Serializes the tests in this file (the pool is process-global state).
static POOL_LOCK: Mutex<()> = Mutex::new(());

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// Runs a trivial simulation of `procs` processes to completion,
/// returning how many processes the kernel spawned.
fn run_trivial(procs: u64) -> u64 {
    let mut sim = Simulation::new();
    for p in 0..procs {
        sim.spawn(Child::new("leaf", move |ctx| {
            ctx.waitfor(us(p));
        }));
    }
    sim.run()
        .expect("trivial sim runs clean")
        .kernel
        .processes_spawned
}

#[test]
fn cancelled_processes_return_their_threads_to_the_pool() {
    let _guard = POOL_LOCK.lock().unwrap();

    // Warm the pool past what one simulation needs, so the measured runs
    // below never need a cold spawn.
    pool::prewarm(6);

    // A canceller kills three parked victims mid-run. Every victim's
    // worker must come back to the idle stack once the run tears down.
    let mut sim = Simulation::new();
    let e = sim.event_new();
    let mut victims = Vec::new();
    for i in 0..3 {
        victims.push(sim.spawn(Child::new(format!("victim{i}"), move |ctx| {
            ctx.wait(e); // parked forever; only cancel releases it
        })));
    }
    sim.spawn(Child::new("canceller", move |ctx| {
        ctx.waitfor(us(10));
        for v in &victims {
            ctx.cancel(*v);
        }
    }));
    let report = sim.run().expect("cancellation is a clean outcome");
    assert_eq!(report.kernel.processes_spawned, 4);

    // With the pool warm and every worker returned, a follow-up sim must
    // recycle only: zero new OS threads.
    let before = pool::stats();
    let spawned = run_trivial(4);
    let after = pool::stats();
    assert_eq!(spawned, 4);
    assert_eq!(
        after.threads_spawned, before.threads_spawned,
        "follow-up sim should not need cold thread spawns"
    );
    assert_eq!(
        after.jobs_recycled - before.jobs_recycled,
        4,
        "all four follow-up processes should run on recycled threads"
    );
}

#[test]
fn panicking_processes_return_their_threads_to_the_pool() {
    let _guard = POOL_LOCK.lock().unwrap();
    pool::prewarm(6);

    let mut sim = Simulation::new();
    let e = sim.event_new();
    sim.spawn(Child::new("bystander", move |ctx| {
        ctx.wait(e); // cancelled at teardown
    }));
    sim.spawn(Child::new("bomber", move |ctx| {
        ctx.waitfor(us(1));
        panic!("teardown-recycling bomber");
    }));
    match sim.run() {
        Err(RunError::ProcessPanicked { process, .. }) => {
            assert_eq!(process, "bomber");
        }
        other => panic!("expected process panic, got {other:?}"),
    }

    // A process panic unwinds *inside* the job (caught by the kernel's
    // catch_unwind), so even the bomber's thread is reusable — not
    // poisoned, not retired.
    let before = pool::stats();
    let spawned = run_trivial(4);
    let after = pool::stats();
    assert_eq!(spawned, 4);
    assert_eq!(after.threads_spawned, before.threads_spawned);
    assert_eq!(after.jobs_recycled - before.jobs_recycled, 4);
}

#[test]
fn drop_without_run_cancels_parked_processes_cleanly() {
    let _guard = POOL_LOCK.lock().unwrap();
    pool::prewarm(6);

    // Processes are dispatched at spawn time but wait for their first GO
    // token; dropping the Simulation without ever calling run() must hand
    // each one a cancel token and quiesce without hanging.
    {
        let mut sim = Simulation::new();
        for i in 0..4 {
            sim.spawn(Child::new(format!("unstarted{i}"), move |ctx| {
                ctx.waitfor(us(1));
            }));
        }
        // Dropped here: teardown cancels + waits for quiescence.
    }

    let before = pool::stats();
    let spawned = run_trivial(4);
    let after = pool::stats();
    assert_eq!(spawned, 4);
    assert_eq!(after.threads_spawned, before.threads_spawned);
}

#[cfg(target_os = "linux")]
#[test]
fn no_leaked_sim_threads_after_drop_and_drain() {
    let _guard = POOL_LOCK.lock().unwrap();

    // Exercise every teardown path once, then drain the pool and sweep
    // the process's thread list: nothing named `sim-*` may survive.
    for round in 0..3u64 {
        let mut sim = Simulation::new();
        let e = sim.event_new();
        let victim = sim.spawn(Child::new("victim", move |ctx| {
            ctx.wait(e);
        }));
        sim.spawn(Child::new("worker", move |ctx| {
            ctx.waitfor(us(round + 1));
            ctx.cancel(victim);
        }));
        sim.run().expect("round runs clean"); // run() consumes + tears down
    }

    // A worker signals its job done before it pushes itself back on the
    // idle stack, so one can re-idle just after a drain: drain again while
    // polling. drain() waits on the workers' exit flags, but the OS thread
    // itself unwinds a hair later; poll briefly before calling it a leak.
    let mut drained = 0;
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        drained += pool::drain();
        let leaked = sim_thread_names();
        if leaked.is_empty() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "leaked simulation threads after drop+drain: {leaked:?}"
        );
        std::thread::yield_now();
    }
    assert!(drained > 0, "expected idle workers to drain");
    assert_eq!(pool::idle_workers(), 0);
}

#[cfg(target_os = "linux")]
#[test]
fn prewarm_then_drain_round_trip() {
    let _guard = POOL_LOCK.lock().unwrap();

    pool::prewarm(4);
    assert!(pool::idle_workers() >= 4);
    let names_before = sim_thread_names();
    let drained = pool::drain();
    assert!(drained >= 4);
    // Drained slots hand their interned names back, so respawned workers
    // reuse them: no thread may carry a name that was not alive before.
    pool::prewarm(2);
    let fresh: Vec<String> = sim_thread_names()
        .into_iter()
        .filter(|n| n.starts_with("sim-w") && !names_before.contains(n))
        .collect();
    assert!(
        fresh.is_empty(),
        "respawned workers got new names: {fresh:?}"
    );
    pool::drain();
}

/// Names of this process's live threads that look like simulation
/// workers (`sim-*`), via `/proc/self/task/*/comm`.
#[cfg(target_os = "linux")]
fn sim_thread_names() -> Vec<String> {
    let mut names = Vec::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return names;
    };
    for task in tasks.flatten() {
        if let Ok(comm) = std::fs::read_to_string(task.path().join("comm")) {
            let comm = comm.trim();
            if comm.starts_with("sim-") {
                names.push(comm.to_string());
            }
        }
    }
    names
}

#[test]
fn deadlock_reporting_survives_thread_recycling() {
    let _guard = POOL_LOCK.lock().unwrap();

    // Churn the pool first so the deadlocking processes land on recycled
    // threads rather than fresh ones.
    for _ in 0..4 {
        run_trivial(3);
    }

    // Classic ABBA: a holds m0 and wants m1; b holds m1 and wants m0.
    let mut sim = Simulation::new();
    let ea = sim.event_new();
    let eb = sim.event_new();
    let sync = sim.sync_layer();
    let sa = sync.clone();
    sim.spawn(Child::new("a", move |ctx| {
        ctx.waitfor(us(5));
        sa.declare_wait("a", "m1", "b");
        ctx.wait(ea);
    }));
    let sb = sync.clone();
    sim.spawn(Child::new("b", move |ctx| {
        ctx.waitfor(us(5));
        sb.declare_wait("b", "m0", "a");
        ctx.wait(eb);
    }));
    match sim.run() {
        Err(RunError::Deadlock { at, cycle, blocked }) => {
            assert_eq!(at, SimTime::from_micros(5));
            assert_eq!(cycle.len(), 2, "ABBA cycle must have both edges");
            for (i, edge) in cycle.iter().enumerate() {
                let next = &cycle[(i + 1) % cycle.len()];
                assert_eq!(edge.holder, next.waiter, "cycle must close");
            }
            assert_eq!(blocked, vec!["a".to_string(), "b".to_string()]);
        }
        other => panic!("expected ABBA deadlock, got {other:?}"),
    }

    // The pool stays healthy after an errored run: the blocked processes
    // were cancelled at teardown and their threads recycled.
    let before = pool::stats();
    assert_eq!(run_trivial(2), 2);
    let after = pool::stats();
    assert!(after.jobs_recycled > before.jobs_recycled);
}

/// Median of five host timings of `run`, which returns the elapsed time
/// and the op count it stands for, in nanoseconds per op.
fn median_ns_per_op(mut run: impl FnMut() -> (Duration, u64)) -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let (wall, ops) = run();
            wall.as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[2]
}

#[test]
fn self_resume_is_far_cheaper_than_a_cross_thread_switch() {
    const ROUNDS: u64 = 2_000;
    const YIELDS: u64 = 20_000;
    let _guard = POOL_LOCK.lock().unwrap();
    pool::prewarm(2);

    // Cross-thread switches: two processes ping-ponging one notification
    // each way. Each round hands the run token to the other thread and
    // back.
    let round_ns = median_ns_per_op(|| {
        let mut sim = Simulation::new();
        let ping = sim.event_new();
        let pong = sim.event_new();
        sim.spawn(Child::new("ping", move |ctx| {
            for _ in 0..ROUNDS {
                ctx.notify(ping);
                ctx.wait(pong);
            }
            ctx.notify(ping);
        }));
        sim.spawn(Child::new("pong", move |ctx| {
            for _ in 0..=ROUNDS {
                ctx.wait(ping);
                ctx.notify(pong);
            }
        }));
        let started = std::time::Instant::now();
        let kernel = sim.run().expect("ping-pong runs clean").kernel;
        let wall = started.elapsed();
        assert!(kernel.context_switches >= 2 * ROUNDS, "{kernel:?}");
        (wall, ROUNDS)
    });

    // Self-resume: one process yielding with `waitfor(0)`. The kernel
    // picks the same process again, so the token never leaves its thread.
    let resume_ns = median_ns_per_op(|| {
        let mut sim = Simulation::new();
        sim.spawn(Child::new("yielder", |ctx| {
            for _ in 0..YIELDS {
                ctx.waitfor(Duration::ZERO);
            }
        }));
        let started = std::time::Instant::now();
        let kernel = sim.run().expect("yielder runs clean").kernel;
        let wall = started.elapsed();
        assert!(kernel.context_switches <= 1, "{kernel:?}");
        (wall, YIELDS)
    });

    // Per loop iteration: measured 12-94x in debug builds. When the
    // yielding thread stops driving the scheduler, so that every resume
    // round-trips through the kernel thread, it measured 1.5-2.9x.
    let ratio = round_ns / resume_ns;
    println!("ping-pong round {round_ns:.0} ns, self-resume {resume_ns:.0} ns, ratio {ratio:.1}x");
    assert!(
        ratio >= 4.0,
        "a ping-pong round ({round_ns:.0} ns) is only {ratio:.1}x a self-resume \
         ({resume_ns:.0} ns); self-resumes must not cross threads"
    );
}
