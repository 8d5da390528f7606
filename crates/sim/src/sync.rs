//! Minimal host-side synchronization shim.
//!
//! The kernel and every model layer built on it need a plain mutual-
//! exclusion lock for *host* state (simulation bookkeeping, channel
//! buffers, measurement sinks). This module wraps [`std::sync::Mutex`]
//! with a `parking_lot`-style API — `lock()` returns the guard directly —
//! so the workspace stays dependency-free and builds in hermetic/offline
//! environments.
//!
//! Poisoning is deliberately ignored: a simulated process may panic while
//! it holds a lock, and the kernel and the layers above must still be able
//! to inspect that state afterwards. The kernel already reports process
//! panics as structured [`RunError`](crate::RunError)s, so propagating
//! poison would only turn one reported failure into a second, less useful
//! one.

use std::sync::PoisonError;

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
}
