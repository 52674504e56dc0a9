//! Runtime shootout: the paper's §IV-F overview table, live.
//!
//! Deploys the same microservice under all nine runtime configurations and
//! prints memory (both observers) plus startup time side by side.
//!
//! Run with: `cargo run --release --example runtime_shootout [density]`

use memwasm::harness::{mb, measure_cell, Config, Observe, Workload};

fn main() {
    let density: usize = match std::env::args().nth(1) {
        None => 20,
        Some(arg) => arg.parse().ok().filter(|d| *d >= 1).unwrap_or_else(|| {
            eprintln!("usage: runtime_shootout [density >= 1]");
            std::process::exit(2)
        }),
    };
    let workload = Workload::default();

    println!("{:<28} {:>12} {:>12} {:>12}", "runtime", "metrics MB", "free MB", "startup s");
    let mut ours = None;
    let mut rows = Vec::new();
    for config in Config::ALL {
        // Both observers from one deployment per configuration.
        let cell = measure_cell(config, density, &workload, Observe::Both).expect("cell");
        let (memory, startup) = (cell.memory.expect("memory"), cell.startup.expect("startup"));
        let row =
            (config, mb(memory.metrics_avg), mb(memory.free_per_pod), startup.total.as_secs_f64());
        if config.is_ours() {
            ours = Some(row.1);
        }
        rows.push(row);
    }
    for (config, metrics, free, startup) in &rows {
        let marker = if config.is_ours() { "*" } else { " " };
        println!(
            "{marker}{:<27} {:>12.2} {:>12.2} {:>12.2}",
            config.label(),
            metrics,
            free,
            startup
        );
    }
    let ours = ours.expect("ours measured");
    println!("\nmemory vs ours (metrics-server), {density} pods:");
    for (config, metrics, _, _) in &rows {
        if !config.is_ours() {
            println!(
                "  {:<28} ours is {:>5.1}% lower",
                config.label(),
                (1.0 - ours / metrics) * 100.0
            );
        }
    }
}
