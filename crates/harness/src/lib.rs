//! # harness — experiment drivers regenerating the paper's evaluation
//!
//! The nine runtime configurations ([`config`]), the measurement
//! methodology ([`runner`]), the paper's evaluation as one measured
//! [`Grid`] with its figures as data ([`figures`]), and the paper's
//! quantitative claims as checks on that grid ([`claims`]).
//!
//! Every sweep fans out through [`parallel::run_grid`], the only place the
//! harness spawns threads. Five binaries drive it: `figures <fig3..fig10|
//! all|table1|table2|phases|cluster|claims>` (print a table, write a CSV
//! under `target/experiments/`), `calibrate`, `studies`, `chaos` and
//! `traffic`.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod claims;
pub mod cluster_scale;
pub(crate) mod config;
pub mod explorer;
pub mod figures;
pub mod isolation;
pub(crate) mod parallel;
pub(crate) mod report;
pub(crate) mod runner;
pub mod traffic;

pub use cluster_scale::{
    density_sweep, measure_scale, policy_ablation, run_drain, DrainOutcome, ScalePlan, ScaleSample,
};
pub use config::{Config, Workload};
pub use explorer::{
    explore, generate_schedule, recovery_table, recovery_times, run_schedule, shrink,
    Counterexample, ExplorePlan, ExploreReport, FaultEvent, InvariantKnobs, RecoverySample,
    ScheduleOutcome,
};
pub use figures::{Column, Figure, Grid, Sample, FIGURES, PAPER_DENSITIES};
pub use parallel::{run_cells, run_cells_on, run_grid, run_grid_on, worker_count, Cell};
pub use report::{mb, Table};
pub use runner::{
    deploy_density, measure_cell, measure_memory, measure_startup, new_cluster, warmup, CellSample,
    MemorySample, Observe, StartupSample,
};
pub use traffic::{
    check_contract, check_scenario, contract_sweep, contract_table, pod_capacity_rps, request_exec,
    run_overload_contract, run_scenario, run_steady_cell, run_traffic, traffic_sweep,
    ArrivalProfile, ContractOutcome, ContractPlan, PhaseSpec, PhaseStats, ScenarioObservation,
    SweepPlan, TrafficPlan, TrafficRun, TrafficSummary,
};
