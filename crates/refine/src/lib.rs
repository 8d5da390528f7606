//! # model-refine — specification models and dynamic-scheduling refinement
//!
//! This crate implements the *design-flow* side of the DATE 2003 paper
//! *RTOS Modeling for System Level Design*: a small DSL for specification
//! models ([`SystemSpec`]: serial–parallel behaviors, channels, interrupt
//! sources, multi-PE partitioning) and two executors —
//!
//! * [`run_unscheduled`]: the *unscheduled model*, behaviors truly parallel
//!   on the SLDL kernel (paper Fig. 3(a) / 8(a));
//! * [`run_architecture`]: the automated dynamic-scheduling refinement into
//!   an RTOS-based *architecture model* (paper Fig. 3(b) / 8(b), §4.2).
//!
//! ```
//! use model_refine::{figure3_spec, run_architecture, run_unscheduled,
//!                    Figure3Delays, RunConfig};
//! use rtos_model::{SchedAlg, TimeSlice};
//!
//! # fn main() -> Result<(), model_refine::RunModelError> {
//! let spec = figure3_spec(&Figure3Delays::default());
//! let unsched = run_unscheduled(&spec, &RunConfig::default())?;
//! let arch = run_architecture(
//!     &spec,
//!     SchedAlg::PriorityPreemptive,
//!     TimeSlice::WholeDelay,
//!     &RunConfig::default(),
//! )?;
//! // Refinement serializes the tasks: the architecture model never
//! // finishes earlier than the unscheduled model.
//! assert!(arch.end_time() >= unsched.end_time());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod architecture;
pub mod check;
pub mod comm;
mod cross;
mod figure3;
mod run;
mod spec;
mod unscheduled;

pub use architecture::{run_architecture, run_architecture_with_comm};
pub use check::{check, Constraint, Violation};
pub use comm::{BusBinding, BusChannel, BusMap, SharedBus};
pub use cross::{CrossFairness, CrossRendezvous};
pub use figure3::{figure3_spec, Figure3Delays};
pub use run::{ChannelFairness, ModelRun, PeMetrics, RunConfig, RunModelError};
pub use spec::{
    Action, Behavior, ChanId, ChannelKind, ChannelSpec, InterruptSpec, PeSpec, SystemSpec,
    ValidateSpecError,
};
pub use unscheduled::run_unscheduled;
