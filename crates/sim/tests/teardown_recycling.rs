//! Teardown under stack recycling: every simulated process runs as a
//! coroutine on a pooled stack ([`sldl_sim::pool`]), so every way a
//! process can end — normal return, cancellation, panic, teardown before
//! it ever ran — must hand its stack back to the pool (or never take
//! one), with the process's destructors run on its own stack first.
//!
//! The pool is **process-global**, so these tests serialize on a shared
//! mutex: each one needs exclusive pool visibility for its exact
//! stats deltas.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

use sldl_sim::{pool, Child, RunError, SimTime, Simulation};

/// Serializes the tests in this file (the pool is process-global state).
static POOL_LOCK: Mutex<()> = Mutex::new(());

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// Pool counters and idle depth, for exact before/after deltas.
#[derive(Debug, PartialEq, Eq)]
struct Snapshot {
    mapped: u64,
    recycled: u64,
    idle: usize,
}

fn snapshot() -> Snapshot {
    let s = pool::stats();
    Snapshot {
        mapped: s.stacks_mapped,
        recycled: s.stacks_recycled,
        idle: pool::idle_workers(),
    }
}

/// Asserts that exactly `started` processes took a pooled stack (none
/// mapped fresh) and that every one of them came back.
fn assert_all_returned(before: &Snapshot, started: u64) {
    let after = snapshot();
    assert_eq!(
        after.mapped, before.mapped,
        "no stack should be mapped fresh"
    );
    assert_eq!(after.recycled - before.recycled, started, "stacks taken");
    assert_eq!(after.idle, before.idle, "every stack taken came back");
}

/// Counts its drops, and where they ran: on which thread, and at which
/// stack address.
struct DropProbe {
    drops: Arc<AtomicUsize>,
    seen: Arc<Mutex<Vec<(ThreadId, usize)>>>,
}

impl Drop for DropProbe {
    fn drop(&mut self) {
        let here = 0u8;
        self.seen
            .lock()
            .unwrap()
            .push((thread::current().id(), std::ptr::addr_of!(here) as usize));
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn cancelled_processes_return_their_stacks_to_the_pool() {
    let _guard = POOL_LOCK.lock().unwrap();
    pool::prewarm(8);
    let before = snapshot();

    // A canceller kills three parked victims mid-run.
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
    assert_eq!(report.kernel.stacks_recycled, 4);
    assert!(report.blocked.is_empty());
    assert_all_returned(&before, 4);
}

#[test]
fn panicking_processes_return_their_stacks_to_the_pool() {
    let _guard = POOL_LOCK.lock().unwrap();
    pool::prewarm(8);
    let before = snapshot();

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
        Err(RunError::ProcessPanicked { process, .. }) => assert_eq!(process, "bomber"),
        other => panic!("expected process panic, got {other:?}"),
    }
    // The panic unwound inside the bomber's coroutine (caught by the
    // kernel's harness), so its stack is as reusable as the bystander's.
    assert_all_returned(&before, 2);
}

#[test]
fn never_started_processes_take_no_stack() {
    let _guard = POOL_LOCK.lock().unwrap();
    pool::prewarm(8);
    let before = snapshot();
    let drops = Arc::new(AtomicUsize::new(0));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let probe = || DropProbe {
        drops: Arc::clone(&drops),
        seen: Arc::clone(&seen),
    };

    // Dropped without ever running: the bodies (and what they captured)
    // are dropped, and no stack is touched.
    {
        let mut sim = Simulation::new();
        for i in 0..4 {
            let p = probe();
            sim.spawn(Child::new(format!("unstarted{i}"), move |ctx| {
                let _p = p;
                ctx.waitfor(us(1));
            }));
        }
    }
    assert_eq!(drops.load(Ordering::SeqCst), 4);
    assert_eq!(snapshot(), before);

    // Cancelled while still ready, before its first resume: the body is
    // dropped unrun and only the canceller takes a stack.
    let mut sim = Simulation::new();
    let p = probe();
    sim.spawn(Child::new("canceller", move |ctx| {
        let victim = ctx.spawn(Child::new("victim", move |_ctx| {
            let _p = p;
            unreachable!("a cancelled process never runs");
        }));
        ctx.cancel(victim);
    }));
    let report = sim.run().expect("cancelling an unstarted process is clean");
    assert_eq!(report.kernel.processes_spawned, 2);
    assert_eq!(report.kernel.processes_resumed, 1, "the victim never ran");
    assert_eq!(drops.load(Ordering::SeqCst), 5);
    assert_all_returned(&before, 1);
}

/// Holds `probe` in this frame and `depth` frames further down, then
/// parks on `e` forever.
fn park_holding(ctx: &sldl_sim::ProcCtx, e: sldl_sim::EventId, probe: DropProbe, depth: u32) {
    if depth == 0 {
        ctx.wait(e);
    } else {
        let deeper = DropProbe {
            drops: Arc::clone(&probe.drops),
            seen: Arc::clone(&probe.seen),
        };
        park_holding(ctx, e, deeper, depth - 1);
    }
    drop(probe);
}

#[test]
fn cancelled_process_runs_its_destructors_on_its_own_stack_before_run_returns() {
    let _guard = POOL_LOCK.lock().unwrap();
    pool::prewarm(8);
    let before = snapshot();
    let caller = thread::current().id();
    let drops = Arc::new(AtomicUsize::new(0));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let frames = Arc::new(Mutex::new(Vec::new()));

    let mut sim = Simulation::new();
    let e = sim.event_new();
    let mut pids = Vec::new();
    // Two victims, each holding three probes: one in the body's frame and
    // one in each of the two frames below it. `cancelled` is cancelled by
    // a process mid-run; `torn_down` is still parked when the run ends.
    for name in ["cancelled", "torn_down"] {
        let (drops, seen, frames) = (Arc::clone(&drops), Arc::clone(&seen), Arc::clone(&frames));
        pids.push(sim.spawn(Child::new(name, move |ctx| {
            let here = 0u8;
            frames
                .lock()
                .unwrap()
                .push(std::ptr::addr_of!(here) as usize);
            let _outer = DropProbe {
                drops: Arc::clone(&drops),
                seen: Arc::clone(&seen),
            };
            park_holding(ctx, e, DropProbe { drops, seen }, 1);
        })));
    }
    let cancelled = pids[0];
    let observed = Arc::new(AtomicUsize::new(usize::MAX));
    let obs = Arc::clone(&observed);
    let d2 = Arc::clone(&drops);
    sim.spawn(Child::new("killer", move |ctx| {
        ctx.waitfor(us(5));
        ctx.cancel(cancelled);
        // The victim unwinds as soon as this process suspends, before
        // the kernel resumes anything else.
        ctx.waitfor(Duration::ZERO);
        obs.store(d2.load(Ordering::SeqCst), Ordering::SeqCst);
    }));
    let report = sim.run().expect("cancellation is a clean outcome");
    assert_eq!(report.blocked, vec!["torn_down".to_string()]);
    assert_eq!(
        observed.load(Ordering::SeqCst),
        3,
        "victim unwound before the next resume"
    );
    assert_eq!(
        drops.load(Ordering::SeqCst),
        6,
        "every probe dropped before run returned"
    );

    // Every destructor ran on the run() thread, within its process's
    // stack (a few KiB from the body's first frame).
    let frames = frames.lock().unwrap().clone();
    let seen = seen.lock().unwrap().clone();
    for (i, &(tid, addr)) in seen.iter().enumerate() {
        assert_eq!(tid, caller, "drop {i} ran off the run() thread");
        let frame = frames[i / 3];
        assert!(
            frame.abs_diff(addr) < 64 << 10,
            "drop {i} at {addr:#x} is not on the stack of frame {frame:#x}"
        );
    }
    assert_all_returned(&before, 3);
}

#[cfg(target_os = "linux")]
#[test]
fn every_pooled_stack_sits_above_a_guard_page() {
    const PROCS: usize = 8;
    let _guard = POOL_LOCK.lock().unwrap();
    pool::drain();
    pool::prewarm(PROCS);
    assert_eq!(pool::idle_workers(), PROCS);
    let before = snapshot();

    // Every pooled stack is taken by one process, which checks its own
    // stack in /proc/self/maps while all of them are alive.
    let checked = Arc::new(AtomicUsize::new(0));
    let mut sim = Simulation::new();
    let all_started = sim.event_new();
    for i in 0..PROCS {
        let checked = Arc::clone(&checked);
        sim.spawn(Child::new(format!("p{i}"), move |ctx| {
            if i + 1 == PROCS {
                ctx.notify(all_started);
            } else {
                ctx.wait(all_started);
            }
            let here = 0u8;
            let addr = std::ptr::addr_of!(here) as usize;
            let maps = std::fs::read_to_string("/proc/self/maps").expect("read maps");
            let regions: Vec<(usize, usize, String)> = maps.lines().map(parse_region).collect();
            let at = regions
                .iter()
                .position(|&(lo, hi, _)| lo <= addr && addr < hi)
                .expect("the stack is mapped");
            let (lo, _, ref perms) = regions[at];
            assert!(perms.starts_with("rw"), "stack region is {perms}");
            assert!(at > 0, "nothing is mapped below the stack");
            let (glo, ghi, ref gperms) = regions[at - 1];
            assert_eq!(ghi, lo, "the region below the stack is not adjacent");
            assert!(
                gperms.starts_with("---"),
                "the page below the stack is {gperms}"
            );
            assert!(ghi - glo >= 4096, "the guard is smaller than a page");
            checked.fetch_add(1, Ordering::SeqCst);
        }));
    }
    sim.run().expect("guard check runs clean");
    assert_eq!(checked.load(Ordering::SeqCst), PROCS);
    assert_all_returned(&before, PROCS as u64);
}

/// Parses one `/proc/self/maps` line into `(start, end, perms)`.
#[cfg(target_os = "linux")]
fn parse_region(line: &str) -> (usize, usize, String) {
    let mut fields = line.split_whitespace();
    let range = fields.next().expect("address range");
    let perms = fields.next().expect("permissions").to_string();
    let (lo, hi) = range.split_once('-').expect("lo-hi");
    let hex = |s: &str| usize::from_str_radix(s, 16).expect("hex address");
    (hex(lo), hex(hi), perms)
}

#[test]
fn prewarm_and_drain_count_exactly() {
    let _guard = POOL_LOCK.lock().unwrap();
    pool::drain();
    let before = pool::stats();
    pool::prewarm(4);
    assert_eq!(pool::idle_workers(), 4);
    pool::prewarm(2); // already satisfied
    assert_eq!(pool::stats().stacks_mapped - before.stacks_mapped, 4);
    assert_eq!(pool::drain(), 4);
    assert_eq!(pool::idle_workers(), 0);
}

#[test]
fn deadlock_reporting_survives_stack_recycling() {
    let _guard = POOL_LOCK.lock().unwrap();
    pool::prewarm(8);

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
    let before = snapshot();
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
    // The blocked processes were cancelled at teardown and their stacks
    // returned.
    assert_all_returned(&before, 2);
}

/// The `voluntary_ctxt_switches` count of one `/proc` status file (0 if
/// the thread has exited meanwhile).
#[cfg(target_os = "linux")]
fn voluntary_in(status: &std::path::Path) -> u64 {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|n| n.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Voluntary context switches of this thread, and summed over every live
/// thread of this process.
#[cfg(target_os = "linux")]
fn voluntary_switches() -> (u64, u64) {
    let mine = voluntary_in("/proc/thread-self/status".as_ref());
    let all = std::fs::read_dir("/proc/self/task")
        .expect("list threads")
        .flatten()
        .map(|task| voluntary_in(&task.path().join("status")))
        .sum();
    (mine, all)
}

#[cfg(target_os = "linux")]
#[test]
fn processes_run_on_the_callers_thread_without_blocking_it() {
    const ROUNDS: u64 = 10_000;
    let _guard = POOL_LOCK.lock().unwrap();
    pool::prewarm(2);
    let caller = thread::current().id();
    let foreign = Arc::new(AtomicUsize::new(0));

    // Two processes ping-ponging one notification each way: 2 × ROUNDS
    // kernel context switches.
    let mut sim = Simulation::new();
    let ping = sim.event_new();
    let pong = sim.event_new();
    let f1 = Arc::clone(&foreign);
    sim.spawn(Child::new("ping", move |ctx| {
        for _ in 0..ROUNDS {
            f1.fetch_add(
                usize::from(thread::current().id() != caller),
                Ordering::Relaxed,
            );
            ctx.notify(ping);
            ctx.wait(pong);
        }
        ctx.notify(ping);
    }));
    let f2 = Arc::clone(&foreign);
    sim.spawn(Child::new("pong", move |ctx| {
        for _ in 0..=ROUNDS {
            ctx.wait(ping);
            f2.fetch_add(
                usize::from(thread::current().id() != caller),
                Ordering::Relaxed,
            );
            ctx.notify(pong);
        }
    }));
    let (mine_before, all_before) = voluntary_switches();
    let kernel = sim.run().expect("ping-pong runs clean").kernel;
    let (mine_after, all_after) = voluntary_switches();

    assert!(kernel.context_switches >= 2 * ROUNDS, "{kernel:?}");
    assert_eq!(
        foreign.load(Ordering::Relaxed),
        0,
        "every body step ran on the thread that called run()"
    );
    // A process switch is a user-space stack switch: no thread blocks,
    // so none gives up its CPU voluntarily, bar a few wake-ups of the
    // other test threads waiting on `POOL_LOCK`.
    let mine = mine_after - mine_before;
    let all = all_after.saturating_sub(all_before);
    for (whose, blocked) in [("the calling thread", mine), ("the process", all)] {
        assert!(
            blocked < 100,
            "{whose} blocked {blocked} times over {} kernel switches",
            kernel.context_switches
        );
    }
}
