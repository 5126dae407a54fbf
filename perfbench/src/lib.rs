#![forbid(unsafe_code)]

//! Layer ledger for the uniform-node-sampling service.
//!
//! Three closed-loop workloads drive the real service through its public
//! API (see `README.md` beside this crate). An untraced run reports the
//! end-to-end metrics; a traced run reports per-layer metrics, a ledger
//! waterfall and span self times. Every run checks the service's outputs
//! by replaying them in the order the service applied them.

pub mod check;
pub mod closed_loop;
pub mod counters;
pub mod deploy;
pub mod ledger;
pub mod run;
pub mod stats;
pub mod trace;
pub mod waterfall;
pub mod workload;
