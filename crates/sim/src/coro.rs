//! Stackful coroutines: the execution vehicle of every simulated process.
//!
//! A process body is ordinary blocking code (`ctx.wait(e)` returns when
//! `e` fires), so it needs a stack of its own that survives its
//! suspensions. This module gives it one without an OS thread: each
//! process runs on a pooled, guard-paged [`Stack`] and is switched in and
//! out on the thread that called `Simulation::run`, by a few instructions
//! that save and restore the x86-64 callee-saved registers.
//!
//! Scheduling is asymmetric. The kernel loop [`resume`](Coroutine::resume)s
//! one process at a time on its own stack; the process runs until it calls
//! [`suspend`], which switches straight back into that `resume` call. A
//! process never switches to another process, so every scheduling decision
//! is taken by the kernel loop, between two resumes.
//!
//! Cancellation is a resume with a flag: [`suspend`] returns `true`, and
//! the process unwinds on its own stack, running its destructors there.
//! No unwind ever crosses a switch: a body must catch every panic before
//! its coroutine finishes (the kernel's process harness does), and an
//! escaping one aborts the program at the `extern "C"` entry.
//!
//! This is the only module of the workspace that uses `unsafe`.

#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("sldl-sim's process coroutines support x86-64 Linux only");

use std::arch::naked_asm;
use std::cell::Cell;
use std::ptr;

/// Usable bytes of one process stack (the default Rust thread stack).
const STACK_SIZE: usize = 2 << 20;
/// The `PROT_NONE` guard page below each stack: an overflow faults
/// instead of scribbling over the neighbouring mapping.
const GUARD: usize = 4096;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x2_0000;
const MAP_FAILED: *mut u8 = usize::MAX as *mut u8;

unsafe extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

/// One process stack: an anonymous mapping of [`STACK_SIZE`] bytes above
/// a `PROT_NONE` guard page. Pages are committed only when first touched.
#[derive(Debug)]
pub(crate) struct Stack {
    /// Lowest address of the mapping (the guard page).
    base: *mut u8,
}

// SAFETY: a `Stack` is the sole owner of its mapping, and the mapping is
// plain memory with no affinity to the thread that created it.
unsafe impl Send for Stack {}

impl Stack {
    /// Maps a fresh stack.
    ///
    /// # Panics
    ///
    /// Panics if the address space is exhausted.
    pub(crate) fn map() -> Stack {
        let len = GUARD + STACK_SIZE;
        // SAFETY: an anonymous private mapping at a kernel-chosen address
        // aliases no existing memory.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base != MAP_FAILED,
            "mmap of a process stack failed: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: `base..base + GUARD` lies inside the mapping just made,
        // which nothing else references yet.
        let rc = unsafe { mprotect(base, GUARD, PROT_NONE) };
        assert!(
            rc == 0,
            "mprotect of a stack guard page failed: {}",
            std::io::Error::last_os_error()
        );
        Stack { base }
    }

    /// One past the highest usable address (16-byte aligned).
    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(GUARD + STACK_SIZE)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base` is the start of a mapping of exactly this length
        // that this `Stack` owns; no frame lives on it (a stack is dropped
        // only by the pool, which holds only stacks without live frames).
        unsafe { munmap(self.base, GUARD + STACK_SIZE) };
    }
}

/// Saves the callee-saved registers on the current stack, stores the
/// stack pointer to `*save`, loads `to` as the stack pointer, restores the
/// registers saved there and returns `arg` into that context.
///
/// Everything the System V ABI lets a callee clobber is clobbered by the
/// call itself, so only `rbx`, `rbp` and `r12`–`r15` need saving. Neither
/// side changes the MXCSR or x87 control words.
///
/// # Safety
///
/// `save` must be writable, and `to` must be a stack pointer saved by an
/// earlier `switch` (or an initial frame laid out like one) on a stack
/// that is still mapped and on which nothing else runs. Control comes back
/// only when some later `switch` names the pointer stored in `*save`.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8, arg: usize) -> usize {
    naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "mov rax, rdx",
        "ret",
    )
}

/// First frame of every coroutine: `switch` returns here with the control
/// block in `r12`, the entry function in `r13` and the first resume's
/// argument in `rax`. `.cfi_undefined rip` marks the frame as outermost,
/// so a backtrace taken on the coroutine ends here cleanly.
///
/// # Safety
///
/// Only ever entered by `switch` through the initial frame that
/// `Coroutine::new` lays out; never called.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() -> ! {
    naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r12",
        "mov rsi, rax",
        "call r13",
        "ud2",
        ".cfi_endproc",
    )
}

type Body = Box<dyn FnOnce()>;

/// Per-coroutine control block, at a fixed heap address for the
/// coroutine's whole life. Accessed only through raw pointers, by
/// whichever side is running.
struct Control {
    /// The resumer's stack pointer, saved while the coroutine runs.
    caller_sp: *mut u8,
    /// The coroutine's stack pointer, saved while it is suspended.
    coro_sp: *mut u8,
    /// The body, taken by [`entry`] on the first resume.
    body: Option<Body>,
    /// Set by [`entry`] once the body has returned; the coroutine's stack
    /// then holds no live frame.
    finished: bool,
}

thread_local! {
    /// The control block of the coroutine running on this thread, if any.
    static CURRENT: Cell<*mut Control> = const { Cell::new(ptr::null_mut()) };
}

/// Runs the body, then switches back for good. `cancel` is the first
/// resume's flag: a coroutine cancelled before it ever ran drops its body
/// unrun.
extern "C" fn entry(ctrl: *mut Control, cancel: usize) -> ! {
    // SAFETY: `ctrl` is the live control block of the coroutine being
    // entered (placed in `r12` by `Coroutine::new`); its resumer is
    // parked inside `switch` and touches it again only after we switch
    // back.
    let body = unsafe { (*ctrl).body.take() };
    if cancel == 0 {
        if let Some(body) = body {
            body();
        }
    } else {
        drop(body);
    }
    // SAFETY: as above; after this switch nothing runs on this stack
    // again (a finished coroutine is never resumed), so the saved stack
    // pointer is never used.
    unsafe {
        (*ctrl).finished = true;
        switch(&raw mut (*ctrl).coro_sp, (*ctrl).caller_sp, 0);
    }
    std::process::abort()
}

/// A process body on its own stack, suspended between resumes.
pub(crate) struct Coroutine {
    ctrl: *mut Control,
    /// Taken only by `drop`.
    stack: Option<Stack>,
    /// The body has started and not yet finished: its stack holds frames.
    live: bool,
}

impl Coroutine {
    /// Prepares `body` to run on `stack`; nothing runs until the first
    /// [`resume`](Coroutine::resume).
    pub(crate) fn new(stack: Stack, body: impl FnOnce() + 'static) -> Coroutine {
        let ctrl = Box::into_raw(Box::new(Control {
            caller_sp: ptr::null_mut(),
            coro_sp: ptr::null_mut(),
            body: Some(Box::new(body)),
            finished: false,
        }));
        // The initial frame `switch` pops: r15, r14, r13 (entry), r12
        // (control block), rbx, rbp, then the return address into the
        // trampoline. It sits so that the trampoline starts with a
        // 16-byte aligned stack pointer, as its `call` requires.
        let frame: [usize; 7] = [
            0,
            0,
            entry as *const () as usize,
            ctrl as usize,
            0,
            0,
            trampoline as *const () as usize,
        ];
        let sp = stack.top().wrapping_sub(16 + 8 * frame.len());
        // SAFETY: `sp..top - 16` lies in the stack's usable range, is
        // 8-byte aligned, and the fresh stack holds no frames.
        unsafe { ptr::copy_nonoverlapping(frame.as_ptr(), sp.cast::<usize>(), frame.len()) };
        // SAFETY: `ctrl` came from `Box::into_raw` above and is unshared.
        unsafe { (*ctrl).coro_sp = sp };
        Coroutine {
            ctrl,
            stack: Some(stack),
            live: false,
        }
    }

    /// Switches into the coroutine until it suspends or finishes. Returns
    /// `true` once it has finished.
    pub(crate) fn resume(&mut self) -> bool {
        self.switch_in(false)
    }

    /// Resumes a suspended coroutine with the cancel flag, so it unwinds
    /// on its own stack, then drops it. A coroutine that never ran drops
    /// its body unrun. Returns `false` if the body swallowed the cancel
    /// and suspended again; its stack is then leaked, never reused.
    pub(crate) fn cancel(mut self) -> bool {
        self.switch_in(true)
    }

    fn switch_in(&mut self, cancel: bool) -> bool {
        // SAFETY: `ctrl` is live for `self`'s lifetime and only this
        // thread's running side touches it.
        if unsafe { (*self.ctrl).finished } {
            return true;
        }
        self.live = true;
        let prev = CURRENT.replace(self.ctrl);
        // SAFETY: `coro_sp` is the stack pointer the coroutine saved when
        // it last suspended (or the initial frame built in `new`), on a
        // stack this coroutine owns. The coroutine switches back into
        // this call before `self` can be touched again.
        unsafe {
            switch(
                &raw mut (*self.ctrl).caller_sp,
                (*self.ctrl).coro_sp,
                cancel.into(),
            )
        };
        CURRENT.set(prev);
        // SAFETY: as above; the coroutine is suspended or finished again.
        let finished = unsafe { (*self.ctrl).finished };
        self.live = !finished;
        finished
    }
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        // SAFETY: `ctrl` came from `Box::into_raw` in `new` and is freed
        // only here. A suspended coroutine is never resumed after its
        // drop, so nothing reads the block again.
        drop(unsafe { Box::from_raw(self.ctrl) });
        let stack = self.stack.take().expect("a coroutine owns its stack");
        if self.live {
            // Frames still live on the stack: it can neither be reused
            // nor unmapped under them.
            std::mem::forget(stack);
        } else {
            crate::pool::give(stack);
        }
    }
}

/// Suspends the running coroutine, switching back into the `resume` that
/// entered it. Returns `true` if it was resumed to be cancelled.
///
/// # Panics
///
/// Panics when called outside a coroutine (for example from a thread the
/// process body spawned).
pub(crate) fn suspend() -> bool {
    let ctrl = CURRENT.get();
    assert!(
        !ctrl.is_null(),
        "a simulated process may only suspend from its own body, on the thread running the \
         simulation"
    );
    // SAFETY: `ctrl` is the control block of the coroutine running on
    // this thread; its resumer is parked inside `switch` with its stack
    // pointer in `caller_sp`, and resumes us by switching to `coro_sp`.
    let arg = unsafe { switch(&raw mut (*ctrl).coro_sp, (*ctrl).caller_sp, 0) };
    arg != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    fn fresh() -> Stack {
        Stack::map()
    }

    #[test]
    fn resume_and_suspend_ping_pong() {
        let log = Rc::new(Cell::new(0u32));
        let l2 = Rc::clone(&log);
        let mut co = Coroutine::new(fresh(), move || {
            for i in 1..=3 {
                l2.set(i);
                assert!(!suspend());
            }
        });
        for want in 1..=3 {
            assert!(!co.resume());
            assert_eq!(log.get(), want);
        }
        assert!(co.resume(), "body returned");
        assert!(co.resume(), "finished stays finished");
    }

    #[test]
    fn cancel_unwinds_on_the_coroutine_stack() {
        struct Guard(Rc<Cell<bool>>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let dropped = Rc::new(Cell::new(false));
        let d2 = Rc::clone(&dropped);
        let mut co = Coroutine::new(fresh(), move || {
            let _guard = Guard(d2);
            let r = std::panic::catch_unwind(|| {
                if suspend() {
                    std::panic::resume_unwind(Box::new(()));
                }
            });
            assert!(r.is_err(), "the cancel resumed with the flag set");
        });
        assert!(!co.resume());
        assert!(!dropped.get());
        assert!(co.cancel());
        assert!(dropped.get(), "destructors ran before cancel returned");
    }

    #[test]
    fn cancel_before_start_drops_the_body_unrun() {
        let ran = Rc::new(Cell::new(false));
        let r2 = Rc::clone(&ran);
        let co = Coroutine::new(fresh(), move || r2.set(true));
        assert!(co.cancel());
        assert!(!ran.get());
        assert_eq!(Rc::strong_count(&ran), 1, "the body was dropped");
    }

    #[test]
    fn nested_coroutines_return_to_their_own_resumer() {
        let mut outer = Coroutine::new(fresh(), || {
            let mut inner = Coroutine::new(fresh(), || {
                assert!(!suspend());
            });
            assert!(!inner.resume());
            assert!(!suspend()); // back to the test, not into `inner`
            assert!(inner.resume());
        });
        assert!(!outer.resume());
        assert!(outer.resume());
    }

    #[test]
    fn floats_and_deep_frames_survive_switches() {
        let mut co = Coroutine::new(fresh(), || {
            fn deep(n: u32) -> f64 {
                let buf = [f64::from(n); 64];
                if n == 0 {
                    assert!(!suspend());
                    return 0.5;
                }
                buf.iter().sum::<f64>() / 64.0 + deep(n - 1)
            }
            assert!((deep(200) - (200.0 * 201.0 / 2.0 + 0.5)).abs() < 1e-9);
        });
        let x = std::hint::black_box(1.25f64);
        assert!(!co.resume());
        assert!((x * 2.0 - 2.5).abs() < f64::EPSILON);
        assert!(co.resume());
    }

    #[test]
    #[should_panic(expected = "only suspend from its own body")]
    fn suspend_outside_a_coroutine_panics() {
        suspend();
    }
}
