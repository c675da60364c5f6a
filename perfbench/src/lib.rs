//! Host-time benchmark of the CORD simulator.
//!
//! Four seeded workloads (see `README.md` in this directory) each run in
//! their own process. A plain run reports the end-to-end metrics with
//! tracing off; a traced run reports per-layer metrics read from what the
//! simulator's public calls return. Every pass is checked against an
//! output digest over simulated fields.

pub mod calib;
pub mod digest;
pub mod layers;
pub mod measure;
pub mod report;
pub mod workload;

pub use workload::{Inputs, Job, Size, Workload};
