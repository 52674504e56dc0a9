//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each `figN` function deploys the corresponding configurations at the
//! paper's densities and returns a [`Table`] with the same rows/series the
//! paper plots. Absolute values come from this reproduction's simulated
//! testbed; EXPERIMENTS.md records them against the paper's claims.

use simkernel::{KernelResult, Phase};

use crate::config::{Config, Workload};
use crate::parallel::{run_cells, Cell};
use crate::report::{mb, Table};
use crate::runner::{deploy_density, MemorySample};

/// The paper's deployment densities (Table II: 10 to 400 containers).
pub const PAPER_DENSITIES: [usize; 3] = [10, 100, 400];

fn density_columns(densities: &[usize]) -> Vec<String> {
    densities.iter().map(|d| format!("{d} pods")).collect()
}

/// Run the (configs × densities) memory grid through the parallel driver
/// and return the samples in grid order (config-major, as the serial loops
/// produced them).
fn memory_grid(
    configs: &[Config],
    densities: &[usize],
    workload: &Workload,
) -> KernelResult<Vec<MemorySample>> {
    let cells = Cell::memory_grid(configs, densities);
    Ok(run_cells(&cells, workload)?.into_iter().map(|c| c.memory.expect("memory cell")).collect())
}

/// Assemble one figure table from a grid-ordered sample list.
fn memory_table(
    title: &str,
    configs: &[Config],
    densities: &[usize],
    samples: &[MemorySample],
    use_free: bool,
) -> Table {
    let mut table = Table::new(title, density_columns(densities), "MB/ctr");
    let mut it = samples.iter();
    for &config in configs {
        let values = densities
            .iter()
            .map(|_| {
                let s = it.next().expect("one sample per grid cell");
                mb(if use_free { s.free_per_pod } else { s.metrics_avg })
            })
            .collect();
        table.row(config.label(), values, config.is_ours());
    }
    table
}

fn memory_figure(
    title: &str,
    configs: &[Config],
    densities: &[usize],
    workload: &Workload,
    use_free: bool,
) -> KernelResult<Table> {
    let samples = memory_grid(configs, densities, workload)?;
    Ok(memory_table(title, configs, densities, &samples, use_free))
}

const FIG3_TITLE: &str =
    "Figure 3: Avg memory/container, Wasm runtimes in crun (Kubernetes metrics-server)";
const FIG4_TITLE: &str = "Figure 4: Avg memory/container, Wasm runtimes in crun (Linux free)";
const FIG6_TITLE: &str =
    "Figure 6: Avg memory/container vs Python containers (Kubernetes metrics-server)";
const FIG7_TITLE: &str = "Figure 7: Avg memory/container vs Python containers (Linux free)";

const FIG3_4_CONFIGS: [Config; 4] =
    [Config::WamrCrun, Config::CrunWasmtime, Config::CrunWasmer, Config::CrunWasmEdge];
const FIG6_7_CONFIGS: [Config; 4] =
    [Config::WamrCrun, Config::ShimWasmtime, Config::CrunPython, Config::RuncPython];

/// Fig. 3: memory per container, Wasm runtimes in crun, metrics-server.
pub fn fig3(workload: &Workload, densities: &[usize]) -> KernelResult<Table> {
    memory_figure(FIG3_TITLE, &FIG3_4_CONFIGS, densities, workload, false)
}

/// Fig. 4: same configurations, measured by the OS (`free`).
pub fn fig4(workload: &Workload, densities: &[usize]) -> KernelResult<Table> {
    memory_figure(FIG4_TITLE, &FIG3_4_CONFIGS, densities, workload, true)
}

/// Figs. 3 and 4 from **one** grid run: both figures observe the same
/// configurations, differing only in which observer column they plot, and
/// [`MemorySample`] carries both observers from a single deployment.
pub fn figs3_4(workload: &Workload, densities: &[usize]) -> KernelResult<(Table, Table)> {
    let samples = memory_grid(&FIG3_4_CONFIGS, densities, workload)?;
    Ok((
        memory_table(FIG3_TITLE, &FIG3_4_CONFIGS, densities, &samples, false),
        memory_table(FIG4_TITLE, &FIG3_4_CONFIGS, densities, &samples, true),
    ))
}

/// Fig. 5: runwasi shims vs. our integration (`free`).
pub fn fig5(workload: &Workload, densities: &[usize]) -> KernelResult<Table> {
    memory_figure(
        "Figure 5: Avg memory/container, runwasi shims vs ours (Linux free)",
        &[Config::WamrCrun, Config::ShimWasmtime, Config::ShimWasmer, Config::ShimWasmEdge],
        densities,
        workload,
        true,
    )
}

/// Fig. 6: ours vs. Python containers (metrics-server). The paper also
/// quotes containerd-shim-wasmtime (the second-best Wasm runtime) here.
pub fn fig6(workload: &Workload, densities: &[usize]) -> KernelResult<Table> {
    memory_figure(FIG6_TITLE, &FIG6_7_CONFIGS, densities, workload, false)
}

/// Fig. 7: same comparison via `free`.
pub fn fig7(workload: &Workload, densities: &[usize]) -> KernelResult<Table> {
    memory_figure(FIG7_TITLE, &FIG6_7_CONFIGS, densities, workload, true)
}

/// Figs. 6 and 7 from one grid run (same sharing as [`figs3_4`]).
pub fn figs6_7(workload: &Workload, densities: &[usize]) -> KernelResult<(Table, Table)> {
    let samples = memory_grid(&FIG6_7_CONFIGS, densities, workload)?;
    Ok((
        memory_table(FIG6_TITLE, &FIG6_7_CONFIGS, densities, &samples, false),
        memory_table(FIG7_TITLE, &FIG6_7_CONFIGS, densities, &samples, true),
    ))
}

pub(crate) fn startup_figure(title: &str, n: usize, workload: &Workload) -> KernelResult<Table> {
    let mut table = Table::new(title, vec![format!("{n} pods")], "s");
    let cells: Vec<Cell> = Config::ALL.iter().map(|&c| Cell::startup(c, n)).collect();
    for sample in run_cells(&cells, workload)? {
        let s = sample.startup.expect("startup cell");
        table.row(s.config.label(), vec![s.total.as_secs_f64()], s.config.is_ours());
    }
    Ok(table)
}

/// Fig. 8: time to start 10 concurrent containers' workloads.
pub fn fig8(workload: &Workload) -> KernelResult<Table> {
    startup_figure("Figure 8: Time to start 10 concurrent containers", 10, workload)
}

/// Fig. 8 companion: where the startup time of Fig. 8 goes, per lifecycle
/// phase. One row per runtime configuration, one column per [`Phase`],
/// each value the mean per-pod busy time (CPU + I/O) charged to that
/// phase. This is *serial* busy time, not the DES makespan: phases of
/// different pods overlap under contention, so a row's sum exceeds its
/// share of Fig. 8's wall-clock total.
pub fn fig8_phases(workload: &Workload, n: usize) -> KernelResult<Table> {
    // Columns are the frozen fault-free startup phases, not `Phase::ALL`:
    // fault-only phases (teardown-after-fault) would otherwise widen this
    // figure's CSV whenever the taxonomy grows.
    let columns = Phase::STARTUP.iter().map(|p| p.label().to_string()).collect();
    let mut table = Table::new(
        format!("Figure 8 (phase breakdown): mean per-pod busy time, {n} concurrent containers"),
        columns,
        "s",
    );
    for &config in &Config::ALL {
        let (_cluster, d) = deploy_density(config, n, workload)?;
        let busy = d.mean_phase_busy();
        let values = Phase::STARTUP.iter().map(|p| busy[p.index()].as_secs_f64()).collect();
        table.row(config.label(), values, config.is_ours());
    }
    Ok(table)
}

/// Fig. 9: time to start 400 concurrent containers' workloads.
pub fn fig9(workload: &Workload) -> KernelResult<Table> {
    startup_figure("Figure 9: Time to start 400 concurrent containers", 400, workload)
}

/// Fig. 10: memory overview, all runtimes, averaged over the densities
/// (`free` observer, as in the §IV-F discussion).
pub fn fig10(workload: &Workload, densities: &[usize]) -> KernelResult<Table> {
    let mut table = Table::new(
        "Figure 10: Avg memory/container across runtimes (mean over deployment sizes, free)",
        vec!["mean".to_string()],
        "MB/ctr",
    );
    let samples = memory_grid(&Config::ALL, densities, workload)?;
    let mut it = samples.iter();
    for config in Config::ALL {
        let total: f64 =
            densities.iter().map(|_| mb(it.next().expect("sample").free_per_pod)).sum();
        table.row(config.label(), vec![total / densities.len() as f64], config.is_ours());
    }
    Ok(table)
}

/// Table I: the software stack of the evaluation.
pub fn table1() -> String {
    let rows: Vec<(&str, String)> = vec![
        ("Linux", "5.4.0-187-generic (simulated kernel substrate)".to_string()),
        ("Kubernetes", "1.27.0 (k8s-sim)".to_string()),
        ("containerd", "1.7.x (containerd-sim)".to_string()),
        ("runC", container_runtimes::profile::RUNC.version.to_string()),
        ("crun", container_runtimes::profile::CRUN.version.to_string()),
        ("WAMR", engines::profile::WAMR.version.to_string()),
        ("WasmEdge", engines::profile::WASMEDGE.version.to_string()),
        ("Wasmer", engines::profile::WASMER.version.to_string()),
        ("Wasmtime", engines::profile::WASMTIME.version.to_string()),
    ];
    let mut out = String::from("Table I: Software stack for the evaluation\n");
    out.push_str("===========================================\n");
    for (k, v) in rows {
        out.push_str(&format!("{k:<12} {v}\n"));
    }
    out
}

/// Table II: the experiments overview.
pub fn table2() -> String {
    let mut out =
        String::from("Table II: Experiments overview (10-400 containers, 1 container/pod)\n");
    out.push_str("====================================================================\n");
    let rows = [
        ("Fig 3/4", "Memory", "crun", "WAMR, WasmEdge, Wasmer, Wasmtime"),
        ("Fig 5", "Memory", "crun, containerd (runwasi)", "WAMR, WasmEdge, Wasmer, Wasmtime"),
        ("Fig 6/7", "Memory", "crun, runC", "WAMR, Python"),
        (
            "Fig 8/9",
            "Latency",
            "crun, runC, containerd",
            "WAMR, WasmEdge, Wasmer, Wasmtime, Python",
        ),
    ];
    out.push_str(&format!(
        "{:<9} {:<8} {:<28} {}\n",
        "Section", "Metric", "Container runtime", "Language runtime"
    ));
    for (a, b, c, d) in rows {
        out.push_str(&format!("{a:<9} {b:<8} {c:<28} {d}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_density_fig3_shape() {
        let w = Workload::light();
        let t = fig3(&w, &[4]).unwrap();
        assert_eq!(t.rows.len(), 4);
        let ours = t.ours().unwrap().values[0];
        for r in &t.rows {
            if !r.ours {
                assert!(ours < r.values[0], "{}: {} vs ours {}", r.label, r.values[0], ours);
            }
        }
    }

    #[test]
    fn fig8_phases_shape() {
        let w = Workload::light();
        let t = fig8_phases(&w, 2).unwrap();
        assert_eq!(t.columns.len(), Phase::STARTUP.len());
        // Fault-only and termination phases are frozen out of the figure:
        // its CSV must stay byte-identical as the lifecycle taxonomy grows.
        for frozen_out in [Phase::TeardownAfterFault, Phase::Terminating] {
            assert!(
                !t.columns.iter().any(|c| c == frozen_out.label()),
                "{} must not widen the fig8 phase CSV",
                frozen_out.label()
            );
        }
        assert_eq!(t.rows.len(), Config::ALL.len());
        let api = Phase::ApiDispatch.index();
        let exec = Phase::Exec.index();
        for r in &t.rows {
            assert!(r.values[api] > 0.0, "{}: api-dispatch busy", r.label);
            assert!(r.values[exec] > 0.0, "{}: exec busy", r.label);
        }
        // The API/scheduler leg is runtime-independent: identical across rows.
        let first = t.rows[0].values[api];
        assert!(t.rows.iter().all(|r| (r.values[api] - first).abs() < 1e-12));
    }

    #[test]
    fn tables_render() {
        assert!(table1().contains("WAMR"));
        assert!(table1().contains("2.1.0"));
        assert!(table2().contains("Latency"));
    }
}
