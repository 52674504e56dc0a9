//! # harness — experiment drivers regenerating the paper's evaluation
//!
//! The nine runtime configurations and their stacks ([`config`]), the measurement
//! methodology ([`runner`]), the paper's evaluation as one measured
//! [`Grid`] with its figures as data ([`figures`]), and the paper's
//! quantitative claims as checks on that grid ([`claims`]).
//!
//! Every sweep runs its cells in order on the calling thread. Four
//! binaries drive it: `figures <fig3..fig10|all|table1|table2|phases|
//! cluster|claims>` (print a table, write a CSV under
//! `target/experiments/`), `studies`, `chaos` and `traffic`.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod claims;
pub mod cluster_scale;
pub(crate) mod config;
pub mod explorer;
pub mod figures;
pub mod isolation;
pub(crate) mod report;
pub(crate) mod runner;
pub mod traffic;

pub use cluster_scale::{measure_scale, ScaleSample};
pub use config::{Config, Guest, Stack, Workload};
pub use explorer::{
    explore, generate_schedule, recovery_times, run_schedule, ExplorePlan, FaultEvent,
    InvariantKnobs, ScheduleOutcome,
};
pub use figures::{Column, Figure, Grid};
pub use report::mb;
pub use runner::{
    deploy_density, measure_cell, measure_memory, measure_stack, new_cluster, run_cells_on, warmup,
    Cell, CellSample, MemorySample, Observe, Reading, StartupSample,
};
pub use traffic::{
    check_contract, request_exec, run_overload_contract, run_steady_cell, ContractPlan, PhaseStats,
    SweepPlan,
};
