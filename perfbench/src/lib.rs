//! End-to-end benchmark of the crowd-sensing spine: scripted or replayed
//! sensing → reliable uplink over the simulated network → the Hive's
//! collector → campaign publication, with a layer-by-layer breakdown timed
//! from outside the program.
//!
//! Run `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload fleet_chaos --seed 1 --seconds 20 --trace 0`; see
//! `perfbench/README.md` for the workloads and metrics.

pub mod heap;
pub mod host;
pub mod measure;
pub mod spine;
pub mod stats;

/// Every allocation of the benchmark binary (and its tests) is counted.
#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;
