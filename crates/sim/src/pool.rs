//! Process-thread recycling pool.
//!
//! Every simulated process runs its body on a real OS thread (the
//! co-routine model of the SpecC reference simulator). Before this module
//! existed, each `Simulation` spawned a fresh thread per process and
//! joined it at teardown — for the experiment farm, which constructs and
//! destroys thousands of short simulations per sweep, thread spawn/join
//! dominated `Simulation` construction cost.
//!
//! The pool keeps finished worker threads parked on an idle stack instead:
//!
//! * the internal `dispatch` hands a job (one process body plus its kernel
//!   harness) to an idle worker via its [`ParkCell`], or spawns a new
//!   worker when the stack is empty;
//! * a worker that finishes a job pushes itself back onto the idle stack
//!   (up to `MAX_IDLE`) and parks until the next job;
//! * worker threads are named from an interned name table (`sim-w0`,
//!   `sim-w1`, …), formatted **once per worker slot** — never per process
//!   spawn — and reused verbatim when a drained slot is respawned.
//!
//! The pool is process-global and shared by all simulations, so the farm's
//! concurrent sweep points recycle each other's threads for free. Safety
//! of reuse is the kernel's problem and it solves it with a
//! [`WaitGroup`](crate::sync::WaitGroup): teardown *quiesces* (waits for
//! every dispatched job to finish) instead of joining, so no process
//! thread can touch a dead simulation's state.
//!
//! [`ParkCell`]: crate::sync::ParkCell

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::sync::{Mutex, ParkCell, MIN_TOKEN};

/// A unit of work for a pool worker: the full process harness.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// Token: a job is ready in the worker's slot.
const TOK_JOB: u32 = MIN_TOKEN;
/// Token: the worker should exit (pool drain).
const TOK_EXIT: u32 = MIN_TOKEN + 1;

/// Idle workers retained beyond this are released to the OS instead.
const MAX_IDLE: usize = 256;

struct Worker {
    /// The next job, written by the dispatcher before signalling.
    slot: Mutex<Option<Job>>,
    /// Spin-then-park signal: `TOK_JOB` or `TOK_EXIT`.
    signal: ParkCell,
    /// Set by the worker thread on exit, so [`drain`] can confirm death
    /// without a `JoinHandle`.
    exited: AtomicBool,
    /// Interned thread name (shared with any future respawn of the slot).
    name: &'static str,
}

struct Pool {
    idle: Mutex<Vec<Arc<Worker>>>,
    /// Interned worker thread names; index = worker slot. Names are
    /// leaked exactly once and reused by respawns after a drain.
    names: Mutex<Vec<&'static str>>,
    /// Name slots currently free for reuse (pushed on worker exit).
    free_names: Mutex<Vec<&'static str>>,
    spawned: AtomicU64,
    recycled: AtomicU64,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        idle: Mutex::new(Vec::new()),
        names: Mutex::new(Vec::new()),
        free_names: Mutex::new(Vec::new()),
        spawned: AtomicU64::new(0),
        recycled: AtomicU64::new(0),
    })
}

/// Interned worker name: reuse a freed slot's name, or format (and leak)
/// a new one exactly once.
fn intern_worker_name(p: &'static Pool) -> &'static str {
    if let Some(name) = p.free_names.lock().pop() {
        return name;
    }
    let mut names = p.names.lock();
    let name: &'static str = Box::leak(format!("sim-w{}", names.len()).into_boxed_str());
    names.push(name);
    name
}

fn worker_loop(me: &Arc<Worker>, first: Option<Job>) {
    let p = pool();
    let mut job = first;
    loop {
        if let Some(j) = job.take() {
            // The job harness (`run_process`) already catches every body
            // panic; this guard is defensive — a worker whose job somehow
            // unwound is *not* returned to the pool.
            if catch_unwind(AssertUnwindSafe(j)).is_err() {
                break;
            }
        }
        {
            let mut idle = p.idle.lock();
            if idle.len() >= MAX_IDLE {
                break;
            }
            idle.push(Arc::clone(me));
        }
        match me.signal.wait() {
            TOK_JOB => job = me.slot.lock().take(),
            _ => break, // TOK_EXIT
        }
    }
    p.free_names.lock().push(me.name);
    me.exited.store(true, Ordering::Release);
}

/// Spawns a brand-new worker whose first action is `first` (or idling).
fn spawn_worker(p: &'static Pool, first: Option<Job>) {
    p.spawned.fetch_add(1, Ordering::Relaxed);
    let name = intern_worker_name(p);
    let worker = Arc::new(Worker {
        slot: Mutex::new(None),
        signal: ParkCell::new(),
        exited: AtomicBool::new(false),
        name,
    });
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            worker.signal.register();
            worker_loop(&worker, first);
        })
        .expect("spawn simulation worker thread");
}

/// Hands `job` to an idle worker (recycling its thread) or spawns a new
/// one. Returns `true` when the job was placed on a recycled thread.
pub(crate) fn dispatch(job: Job) -> bool {
    let p = pool();
    let idle = p.idle.lock().pop();
    match idle {
        Some(w) => {
            *w.slot.lock() = Some(job);
            w.signal.set(TOK_JOB);
            p.recycled.fetch_add(1, Ordering::Relaxed);
            true
        }
        None => {
            spawn_worker(p, Some(job));
            false
        }
    }
}

/// Ensures at least `n` idle workers exist, spawning the difference.
/// Sweep drivers call this once so even the first sweep point runs on
/// pre-warmed threads.
pub fn prewarm(n: usize) {
    let p = pool();
    let missing = n.min(MAX_IDLE).saturating_sub(p.idle.lock().len());
    for _ in 0..missing {
        spawn_worker(p, None);
    }
    // Wait until the fresh workers have actually parked on the idle
    // stack, so a `prewarm(n)`/`idle_workers()` pair reads coherently.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
    while p.idle.lock().len() < n.min(MAX_IDLE) && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
}

/// Number of workers currently parked on the idle stack.
#[must_use]
pub fn idle_workers() -> usize {
    pool().idle.lock().len()
}

/// Cumulative pool counters (process-global, monotonic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// OS threads ever spawned by the pool.
    pub threads_spawned: u64,
    /// Jobs served by recycling an idle thread (no OS spawn).
    pub jobs_recycled: u64,
}

/// Snapshot of the cumulative pool counters.
#[must_use]
pub fn stats() -> PoolStats {
    let p = pool();
    PoolStats {
        threads_spawned: p.spawned.load(Ordering::Relaxed),
        jobs_recycled: p.recycled.load(Ordering::Relaxed),
    }
}

/// Asks every *idle* worker to exit and waits until they are gone,
/// returning how many were released. Busy workers are untouched (they
/// re-idle or exit later). Mostly useful for leak-checking tests.
pub fn drain() -> usize {
    let p = pool();
    let drained: Vec<Arc<Worker>> = std::mem::take(&mut *p.idle.lock());
    for w in &drained {
        w.signal.set(TOK_EXIT);
    }
    for w in &drained {
        while !w.exited.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }
    drained.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// The pool is process-global, so tests touching it share state with
    /// the kernel tests running in the same binary; assertions below are
    /// written to be robust to that.
    #[test]
    fn dispatch_runs_jobs_and_recycles_threads() {
        let hits = Arc::new(AtomicUsize::new(0));
        let before = stats();
        for _ in 0..16 {
            let hits = Arc::clone(&hits);
            let wg = Arc::new(crate::sync::WaitGroup::new());
            wg.add(1);
            let wg2 = Arc::clone(&wg);
            dispatch(Box::new(move || {
                hits.fetch_add(1, Ordering::Relaxed);
                wg2.done();
            }));
            wg.wait_zero(); // serialize so the worker is idle again
        }
        assert_eq!(hits.load(Ordering::Relaxed), 16);
        let after = stats();
        // 16 sequential jobs reuse threads: far fewer spawns than jobs.
        assert!(
            after.threads_spawned - before.threads_spawned
                + (after.jobs_recycled - before.jobs_recycled)
                >= 16
        );
        assert!(after.jobs_recycled > before.jobs_recycled);
    }

    #[test]
    fn prewarm_then_drain_round_trip() {
        prewarm(4);
        assert!(idle_workers() >= 4);
        let drained = drain();
        assert!(drained >= 4);
        // Names were returned for reuse: a respawn formats nothing new.
        let names_before = pool().names.lock().len();
        prewarm(2);
        assert!(pool().names.lock().len() >= names_before);
        drain();
    }
}
