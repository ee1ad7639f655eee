//! The numa-perf-tools benchmark: three closed-loop workloads driven
//! through the workspace's public functions, with every op's output
//! checked against a reference computed during set-up. See `README.md`
//! for the workloads, the metrics and the layer map.

pub mod cases;
pub mod layers;
pub mod spans;
pub mod stats;

/// A run stops measuring after this many seconds even short of its
/// minimum op count or rotations, so a slow host still exits in time.
pub const HARD_CAP_S: f64 = 120.0;
