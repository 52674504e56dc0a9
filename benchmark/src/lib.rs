//! # mwc-benchmark — the repository's one benchmark
//!
//! Five workloads run the simulator through its public functions
//! ([`passes`]); an untraced run reports what a user of the simulator
//! waits for and pays (`wall_s`, `setup_s`, `peak_rss_mib`), a traced run
//! ([`trace`], [`probes`]) reports where that time goes, layer by layer,
//! and the simulated results of the workload. [`spec`] names every metric.
//!
//! `README.md` beside this crate explains the workloads, the metrics and
//! how they interact; `../BENCHMARK.json` is the contract the driver reads.

pub mod passes;
pub mod probes;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
