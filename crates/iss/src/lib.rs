//! # dsp-iss — toy DSP instruction-set simulator and custom RTOS kernel
//!
//! The *implementation model* of the DATE 2003 paper runs the compiled
//! application, linked against a small custom RTOS kernel, on an
//! instruction-set simulator of the target DSP (Fig. 2(c); Table 1 "impl."
//! column). This crate provides that substrate from scratch:
//!
//! * [`isa`] — a small load/store DSP-flavored instruction set with cycle
//!   costs at a 60 MHz clock, two interrupt lines, and memory-mapped I/O;
//! * [`asm`] — a two-pass assembler (labels, `.equ`, `.word`/`.space`,
//!   pseudo-instructions);
//! * [`cpu`] — the interpreter: interrupt dispatch, devices (timer, frame
//!   source), host-visible event ports;
//! * [`rtk`] — a priority-preemptive kernel written in the toy assembly:
//!   context switching, semaphores, a ready bitmap scheduler, ISR-driven
//!   preemption;
//! * [`vocoder_app`] — the vocoder encoder/decoder tasks as guest programs,
//!   producing the Table 1 implementation-model measurements.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod asm;
pub mod cpu;
pub mod isa;
pub mod rtk;
pub mod vocoder_app;

pub use asm::{assemble, AsmError, Program};
pub use cpu::{ExitReason, HostEvent, Machine};
