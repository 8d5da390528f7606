//! Minimal host-side synchronization shim — plus the kernel's hot-path
//! handoff primitive.
//!
//! The kernel and every model layer built on it need a plain mutual-
//! exclusion lock for *host* state (simulation bookkeeping, channel
//! buffers, measurement sinks). This module wraps [`std::sync::Mutex`]
//! with a `parking_lot`-style API — `lock()` returns the guard directly —
//! so the workspace stays dependency-free and builds in hermetic/offline
//! environments.
//!
//! Poisoning is deliberately ignored: simulated processes run on real
//! threads and may panic while the kernel is tearing the simulation down;
//! the teardown path must still be able to inspect state. The kernel
//! already reports process panics as structured
//! [`RunError`](crate::RunError)s, so propagating poison would only turn
//! one reported failure into a second, less useful one.
//!
//! ## The handoff primitive
//!
//! [`ParkCell`] is the spin-then-park token word the discrete-event kernel
//! uses for every scheduling step (crossbeam-`Parker` style: one
//! `AtomicU32` plus `thread::park`/`unpark`). It replaced the previous
//! dual-mpsc-channel ping-pong — two condvar round-trips per step — with
//! one atomic store and (at most) one `unpark` syscall per direction,
//! which is the dominant cost of an abstract-RTOS simulation run.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Condvar, Mutex as StdMutex, PoisonError};
use std::thread::Thread;

/// A mutual-exclusion lock with a `parking_lot`-style infallible `lock()`.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking the current (host) thread.
    ///
    /// Never fails: a poisoned lock (a thread panicked while holding it)
    /// is recovered, because the kernel reports simulated-process panics
    /// through [`RunError`](crate::RunError) instead.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

// ---------------------------------------------------------------------------
// ParkCell — the spin-then-park handoff token word
// ---------------------------------------------------------------------------

/// Cell state: no token pending, no waiter parked.
const EMPTY: u32 = 0;
/// Cell state: the registered waiter announced it is parked.
const PARKED: u32 = 1;
/// Smallest value a caller-defined token may take ([`ParkCell::set`]).
pub const MIN_TOKEN: u32 = 2;

/// How many `spin_loop` iterations a waiter burns before parking. Kept
/// deliberately small: on a loaded single-core host the partner cannot
/// respond while we spin, so long spins are pure waste; on a multicore
/// host a short spin is enough to catch a sub-microsecond response.
const SPIN_LIMIT: u32 = 64;

/// A single-waiter, multi-waker token word: one `AtomicU32` plus
/// `thread::park`/`unpark` (crossbeam-`Parker` style).
///
/// Exactly one thread (the *waiter*, which must call
/// [`register`](ParkCell::register) first) consumes tokens with
/// [`wait`](ParkCell::wait); any thread may deposit a token with
/// [`set`](ParkCell::set). Setting a token while one is already pending
/// *overwrites* it — the cell holds at most one token, which is exactly
/// the kernel's strict-token-passing protocol (the overwrite case only
/// arises when teardown supersedes a stale resume token with a cancel
/// token).
///
/// In the common case a handoff is **one atomic store** on the waker side
/// (plus an `unpark` only if the waiter already parked) and **one atomic
/// load** on a spinning waiter — no mutex, no condvar, no allocation.
#[derive(Debug)]
pub struct ParkCell {
    state: AtomicU32,
    /// The registered waiter's thread handle, needed only on the slow
    /// (park) path; wakers lock it only after observing `PARKED`.
    waiter: Mutex<Option<Thread>>,
}

impl Default for ParkCell {
    fn default() -> Self {
        Self::new()
    }
}

impl ParkCell {
    /// Creates an empty cell with no registered waiter.
    #[must_use]
    pub fn new() -> Self {
        ParkCell {
            state: AtomicU32::new(EMPTY),
            waiter: Mutex::new(None),
        }
    }

    /// Registers the calling thread as the cell's (sole) waiter. Must be
    /// called before [`wait`](ParkCell::wait); tokens deposited before
    /// registration are retained and consumed by the first `wait`.
    pub fn register(&self) {
        *self.waiter.lock() = Some(std::thread::current());
    }

    /// Deposits `token` (≥ [`MIN_TOKEN`]) and wakes the waiter if it is
    /// parked. Overwrites any pending token.
    pub fn set(&self, token: u32) {
        debug_assert!(token >= MIN_TOKEN, "tokens below MIN_TOKEN are reserved");
        let prev = self.state.swap(token, Ordering::Release);
        if prev == PARKED {
            // The waiter announced it parked (or is about to); its handle
            // was registered before that announcement could happen.
            if let Some(t) = self.waiter.lock().as_ref() {
                t.unpark();
            }
        }
    }

    /// Non-consuming snapshot of the raw cell state: a pending token
    /// (≥ [`MIN_TOKEN`]) or one of the internal empty/parked states.
    /// Diagnostic only — the kernel's invariant oracle uses it to assert
    /// that no unconsumed token exists while a scheduling decision runs;
    /// it must never drive a handoff.
    #[must_use]
    pub fn peek_raw(&self) -> u32 {
        self.state.load(Ordering::Acquire)
    }

    /// Consumes a pending token without blocking, if one is present.
    pub fn try_take(&self) -> Option<u32> {
        loop {
            let s = self.state.load(Ordering::Acquire);
            if s < MIN_TOKEN {
                return None;
            }
            if self
                .state
                .compare_exchange(s, EMPTY, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return Some(s);
            }
        }
    }

    /// Blocks the registered waiter until a token is deposited, consuming
    /// and returning it. Spins briefly (`SPIN_LIMIT` iterations) before
    /// parking; spurious unparks are absorbed by re-checking the state.
    pub fn wait(&self) -> u32 {
        // Fast path: the token often lands while we spin (the partner is
        // mid-store on another core).
        for _ in 0..SPIN_LIMIT {
            if let Some(tok) = self.try_take() {
                return tok;
            }
            core::hint::spin_loop();
        }
        // Slow path: announce the park, then sleep until a token arrives.
        // If a token raced in between the spin and the announcement, the
        // CAS fails and we consume it immediately.
        loop {
            if self
                .state
                .compare_exchange(EMPTY, PARKED, Ordering::Acquire, Ordering::Acquire)
                .is_ok()
            {
                loop {
                    std::thread::park();
                    let s = self.state.load(Ordering::Acquire);
                    if s >= MIN_TOKEN {
                        break;
                    }
                    // Spurious wakeup: still PARKED, park again.
                }
            }
            if let Some(tok) = self.try_take() {
                return tok;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// WaitGroup — teardown quiescence without joining threads
// ---------------------------------------------------------------------------

/// A Go-style wait group: [`add`](WaitGroup::add) before handing work to
/// another thread, [`done`](WaitGroup::done) when it completes,
/// [`wait_zero`](WaitGroup::wait_zero) to block until the count drains.
///
/// The kernel uses this to make `Simulation` teardown *quiesce* instead of
/// *join*: with process threads recycled through the worker pool there is
/// no `JoinHandle` to join, but teardown must still guarantee that no
/// process thread touches kernel state after `Drop` returns.
#[derive(Debug, Default)]
pub struct WaitGroup {
    count: StdMutex<usize>,
    cv: Condvar,
}

impl WaitGroup {
    /// Creates a wait group with a zero count.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the outstanding-work count by `n`.
    pub fn add(&self, n: usize) {
        *self.count.lock().unwrap_or_else(PoisonError::into_inner) += n;
    }

    /// Decrements the count; wakes waiters when it reaches zero.
    ///
    /// # Panics
    ///
    /// Panics if the count would go negative (an `add`/`done` pairing
    /// bug).
    pub fn done(&self) {
        let mut c = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        *c = c.checked_sub(1).expect("WaitGroup::done without add");
        if *c == 0 {
            self.cv.notify_all();
        }
    }

    /// Current outstanding count (advisory; races with `add`/`done`).
    #[must_use]
    pub fn outstanding(&self) -> usize {
        *self.count.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until the count reaches zero.
    pub fn wait_zero(&self) {
        let mut c = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        while *c != 0 {
            c = self.cv.wait(c).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn poisoned_lock_is_recovered() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }

    const GO: u32 = MIN_TOKEN;
    const STOP: u32 = MIN_TOKEN + 1;

    #[test]
    fn park_cell_token_set_before_wait_is_retained() {
        let cell = ParkCell::new();
        cell.set(GO);
        cell.register();
        assert_eq!(cell.wait(), GO);
        assert_eq!(cell.try_take(), None);
    }

    #[test]
    fn park_cell_overwrite_keeps_latest_token() {
        let cell = ParkCell::new();
        cell.set(GO);
        cell.set(STOP);
        cell.register();
        assert_eq!(cell.wait(), STOP);
    }

    #[test]
    fn park_cell_cross_thread_ping_pong() {
        let a = Arc::new(ParkCell::new());
        let b = Arc::new(ParkCell::new());
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = std::thread::spawn(move || {
            a2.register();
            for _ in 0..10_000 {
                assert_eq!(a2.wait(), GO);
                b2.set(GO);
            }
        });
        b.register();
        for _ in 0..10_000 {
            a.set(GO);
            assert_eq!(b.wait(), GO);
        }
        t.join().unwrap();
    }

    #[test]
    fn park_cell_absorbs_spurious_unpark() {
        let cell = Arc::new(ParkCell::new());
        let c2 = Arc::clone(&cell);
        let t = std::thread::spawn(move || {
            c2.register();
            c2.wait()
        });
        // Hammer the thread with unparks that carry no token; the waiter
        // must keep sleeping until a real token arrives.
        std::thread::sleep(std::time::Duration::from_millis(5));
        for _ in 0..64 {
            t.thread().unpark();
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        cell.set(STOP);
        assert_eq!(t.join().unwrap(), STOP);
    }

    #[test]
    fn wait_group_drains_across_threads() {
        let wg = Arc::new(WaitGroup::new());
        wg.add(8);
        for _ in 0..8 {
            let wg = Arc::clone(&wg);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                wg.done();
            });
        }
        wg.wait_zero();
        assert_eq!(wg.outstanding(), 0);
        // An already-drained group does not block.
        wg.wait_zero();
    }
}
