//! Holding the benchmark process to one CPU.
//!
//! The SLDL kernel runs each simulated process on its own OS thread and
//! hands one run token between them, so a single simulation only ever
//! uses one core. Left free, the OS may place the token's sender and
//! receiver on different cores; every handoff then pays a cross-core
//! wake-up and the run's host time depends on thread placement rather
//! than on the program (see `NOTES.md`). Confining the process makes the
//! single-simulation workloads steady.
//!
//! Affinity is per thread and inherited at spawn: confine *before* the
//! kernel's thread pool spawns workers, and drain the pool when the mask
//! changes so no worker keeps the old one.

/// `cpu_set_t` of glibc: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU mask of the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mask(CpuSet);

impl Mask {
    /// The calling thread's current mask.
    ///
    /// # Errors
    ///
    /// Returns the OS error if the mask cannot be read.
    pub fn current() -> std::io::Result<Mask> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        if rc != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Mask(set))
    }

    /// The lowest-numbered CPU of this mask, alone.
    #[must_use]
    pub fn first_cpu(&self) -> Option<Mask> {
        let (word, bits) = self.0.iter().enumerate().find(|(_, w)| **w != 0)?;
        let mut set: CpuSet = [0; 16];
        set[word] = 1 << bits.trailing_zeros();
        Some(Mask(set))
    }

    /// Applies the mask to the calling thread (threads it spawns later
    /// inherit it).
    ///
    /// # Errors
    ///
    /// Returns the OS error if the mask is refused.
    pub fn apply(&self) -> std::io::Result<()> {
        // SAFETY: `self.0` is a readable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), self.0.as_ptr()) };
        if rc != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }
}

/// Runs `f` with the calling thread held to its first CPU, then restores
/// the previous mask. The kernel's idle pool workers are drained on both
/// sides, so `f` spawns confined workers and later work spawns free ones.
///
/// # Errors
///
/// Returns the OS error if the mask cannot be read or set.
pub fn confined<R>(f: impl FnOnce() -> R) -> std::io::Result<R> {
    let free = Mask::current()?;
    let one = free.first_cpu().unwrap_or(free);
    sldl_sim::pool::drain();
    one.apply()?;
    let r = f();
    sldl_sim::pool::drain();
    free.apply()?;
    Ok(r)
}
