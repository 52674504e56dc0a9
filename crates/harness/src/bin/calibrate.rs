//! Calibration helpers, used while tuning the profile constants against
//! the paper's bands (DESIGN.md "Calibration").
//!
//! Usage: `cargo run --release -p harness --bin calibrate -- <memory|startup|workload>`
//!
//! * `memory` — both memory observers for every runtime configuration at
//!   one density.
//! * `startup` — the startup figures at the paper's two densities (inputs
//!   to the latency cost model).
//! * `workload` — the default workload's real instruction/op counts and
//!   artifact sizes (inputs to the cost-model constants).

#[path = "../cli.rs"]
mod cli;

use std::sync::Arc;

use harness::{mb, Column, Config, Figure, Grid, Workload};
use wasm_core::{decode_module, ExecTier, Imports, Instance, InstanceConfig, Value};

const USAGE: &str = "calibrate <memory|startup|workload>";

fn memory() {
    let grid = Grid::measure(&Config::ALL, &[16], &Workload::default()).unwrap();
    println!("{:<28} {:>10} {:>10}", "config", "metricsMB", "freeMB");
    for c in Config::ALL {
        let s = grid.at(c, 16).unwrap().memory;
        println!("{:<28} {:>10.2} {:>10.2}", c.label(), mb(s.metrics_avg), mb(s.free_per_pod));
    }
}

fn startup() {
    let grid = Grid::measure(&Config::ALL, &[10, 400], &Workload::default()).unwrap();
    for (n, title) in [
        (10, "Time to start 10 concurrent containers"),
        (400, "Time to start 400 concurrent containers"),
    ] {
        let figure =
            Figure { name: "startup", title, configs: &Config::ALL, column: Column::StartupAt(n) };
        println!("{}", figure.table(&grid).unwrap().render());
    }
}

fn workload() {
    let bytes = workloads::microservice_module(&workloads::MicroserviceConfig::default());
    println!("module size = {} bytes", bytes.len());
    let module = Arc::new(decode_module(bytes).unwrap());
    println!("code size = {}", module.code_size());
    let run = |tier: ExecTier| {
        let imports = Imports::new()
            .func("wasi_snapshot_preview1", "fd_write", |_, _| Ok(vec![Value::I32(0)]));
        let mut inst = Instance::instantiate(
            module.clone(),
            imports,
            InstanceConfig { tier, fuel: Some(1_000_000_000), ..Default::default() },
        )
        .unwrap();
        inst.run_start().unwrap();
        inst.stats()
    };
    println!("instrs (inplace) = {}", run(ExecTier::InPlace).instrs_retired);
    let lowered = run(ExecTier::Lowered);
    println!(
        "instrs (lowered) = {} lowered_bytes = {}",
        lowered.instrs_retired, lowered.lowered_bytes
    );
    // python ops
    let src = workloads::python_microservice_script(&workloads::PythonScriptConfig::default());
    let program = pyrt::parse(&src).unwrap();
    let mut i = pyrt::Interp::new(vec![], vec![]);
    i.run(&program).unwrap();
    println!("python ops = {} allocs = {}", i.stats().ops, i.stats().allocs);
}

fn main() {
    let cli = cli::Cli::parse(USAGE, &["memory", "startup", "workload"], &[], &[]);
    match cli.command.as_deref() {
        Some("memory") => memory(),
        Some("startup") => startup(),
        Some("workload") => workload(),
        _ => cli::usage_exit(USAGE, "which calibration?"),
    }
}
