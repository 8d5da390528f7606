//! Process-stack pool.
//!
//! Every simulated process runs its body as a coroutine on a stack of its
//! own (2 MiB above a `PROT_NONE` guard page), switched in and out on the
//! thread that runs the simulation. The experiment farm constructs and
//! destroys thousands of short simulations per sweep, so stacks are not
//! mapped and unmapped per process: a process takes a stack from this pool
//! when it first runs and gives it back when its body has returned or
//! unwound (finished, panicked or cancelled).
//!
//! The pool is process-global and shared by all simulations, so the
//! farm's concurrent sweep points reuse each other's stacks. A stack that
//! still holds a suspended body's frames is never returned here.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::coro::Stack;
use crate::sync::Mutex;

/// Idle stacks retained beyond this are unmapped instead.
const MAX_IDLE: usize = 256;

struct Pool {
    idle: Mutex<Vec<Stack>>,
    mapped: AtomicU64,
    recycled: AtomicU64,
}

static POOL: Pool = Pool {
    idle: Mutex::new(Vec::new()),
    mapped: AtomicU64::new(0),
    recycled: AtomicU64::new(0),
};

fn map_stack() -> Stack {
    POOL.mapped.fetch_add(1, Ordering::Relaxed);
    Stack::map()
}

/// Takes an idle stack, or maps a fresh one when none is idle. Returns
/// `true` alongside when the stack was recycled.
pub(crate) fn take() -> (Stack, bool) {
    let idle = POOL.idle.lock().pop();
    match idle {
        Some(stack) => {
            POOL.recycled.fetch_add(1, Ordering::Relaxed);
            (stack, true)
        }
        None => (map_stack(), false),
    }
}

/// Returns a stack that holds no live frame.
pub(crate) fn give(stack: Stack) {
    let mut idle = POOL.idle.lock();
    if idle.len() < MAX_IDLE {
        idle.push(stack);
    }
}

/// Ensures at least `n` idle stacks exist, mapping the difference. Sweep
/// drivers call this once so even the first sweep point runs on pooled
/// stacks.
pub fn prewarm(n: usize) {
    let missing = n.min(MAX_IDLE).saturating_sub(idle_workers());
    let fresh: Vec<Stack> = (0..missing).map(|_| map_stack()).collect();
    POOL.idle.lock().extend(fresh);
}

/// Number of stacks currently idle in the pool.
#[must_use]
pub fn idle_workers() -> usize {
    POOL.idle.lock().len()
}

/// Cumulative pool counters (process-global, monotonic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Stacks ever mapped by the pool.
    pub stacks_mapped: u64,
    /// Process starts served by an idle stack (no new mapping).
    pub stacks_recycled: u64,
}

/// Snapshot of the cumulative pool counters.
#[must_use]
pub fn stats() -> PoolStats {
    PoolStats {
        stacks_mapped: POOL.mapped.load(Ordering::Relaxed),
        stacks_recycled: POOL.recycled.load(Ordering::Relaxed),
    }
}

/// Unmaps every idle stack, returning how many were released. Stacks in
/// use are untouched (they return to the pool when their process ends).
pub fn drain() -> usize {
    let drained = std::mem::take(&mut *POOL.idle.lock());
    drained.len()
}
