//! Root façade crate: re-exports the workspace libraries.

#![forbid(unsafe_code)]

pub use dsp_iss as iss;
pub use model_refine as refine;
pub use rtos_model as rtos;
pub use sldl_sim as sim;
pub use vocoder;
