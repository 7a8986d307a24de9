//! End-to-end and per-layer benchmark of the `tep-broker` publish path.
//!
//! One process runs an open-loop publisher thread and one collector
//! thread against a broker with production defaults, times every
//! notification from its event's *scheduled* send time, and checks the
//! delivered (subscription, event) pairs against a single-threaded
//! reference pass over the same matcher. See `README.md` for the
//! workloads, the metric definitions and the layer table.

pub mod alloc;
pub mod load;
pub mod report;
pub mod run;
pub mod trace;
pub mod workload;
