//! Hardware architecture models for the HyperPRAW reproduction.
//!
//! HyperPRAW needs to know, for every pair of compute units `(i, j)`, how
//! expensive it is to send data between them. On the paper's testbed (the
//! ARCHER Cray XC30) this information is obtained by profiling the
//! peer-to-peer bandwidth with an MPI ring benchmark; the profile directly
//! reflects the machine's hierarchy (cores sharing a socket communicate much
//! faster than cores in different cabinet groups).
//!
//! This crate provides:
//!
//! * [`MachineModel`] — a hierarchical description of an HPC machine
//!   (socket / node / blade / group levels with per-level bandwidth and
//!   latency), including an ARCHER-calibrated preset,
//! * [`BandwidthMatrix`] — a peer-to-peer bandwidth matrix, either derived
//!   from a machine model (with realistic measurement noise) or measured by
//!   the simulated ring profiler in `hyperpraw-netsim`,
//! * [`CostMatrix`] — the normalised communication-cost matrix
//!   `C(i,j) = 2 − (b_ij − b_min)/(b_max − b_min)` consumed by
//!   HyperPRAW-aware (and a uniform variant for HyperPRAW-basic),
//! * [`hierarchy`] — helpers mapping process ranks to hardware coordinates.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bandwidth;
mod cost;
mod machine;

pub mod hierarchy;

pub use bandwidth::BandwidthMatrix;
pub use cost::CostMatrix;
pub use machine::{MachineError, MachineLevel, MachineModel};

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::{BandwidthMatrix, CostMatrix, MachineLevel, MachineModel};
}
