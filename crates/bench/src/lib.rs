//! Shared experiment definitions for the reproduction harness: every
//! table and figure of the paper, expressed as reusable functions driven
//! by the `repro` binary. The `tables` bench (on the in-tree `criterion`
//! shim) times the figure rigs and the table pipeline on miniature
//! traces; capbench (`capbench/` at the repository root) measures the
//! monitor's speed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod figures;

pub use experiments::{evaluate_scenario, TraceKind, TraceRun};
