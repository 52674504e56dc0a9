//! The paper's evaluation: one measured grid, and its figures as data.
//!
//! Table II *is* a grid — runtime configurations × deployment densities,
//! every cell read by two memory observers and one startup clock from the
//! same deployment. [`Grid::measure`] is the only function here that
//! deploys (besides the phase breakdown, [`fig8_phases`]); each paper
//! figure is a row of [`FIGURES`] and [`Figure::table`] projects it out of
//! a grid, as [`crate::claims::check`] does for the paper's claims.
//! Absolute values come from this reproduction's simulated testbed;
//! EXPERIMENTS.md records them against the paper's claims.

use simkernel::{KernelError, KernelResult, Phase};

use crate::config::{Config, Workload};
use crate::parallel::{run_cells, Cell};
use crate::report::{mb, Table};
use crate::runner::{deploy_density, MemorySample, StartupSample};

/// The paper's deployment densities (Table II: 10 to 400 containers).
pub const PAPER_DENSITIES: [usize; 3] = [10, 100, 400];

/// What one cell's deployment measured: both memory observers and the
/// startup clock.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub memory: MemorySample,
    pub startup: StartupSample,
}

/// The samples of a (configurations × densities) grid, each cell measured
/// exactly once.
#[derive(Debug, Clone)]
pub struct Grid {
    densities: Vec<usize>,
    samples: Vec<Sample>,
}

impl Grid {
    /// Deploy every (configuration, density) cell once — each on its own
    /// freshly booted, warmed cluster, through the parallel driver — and
    /// keep all three readings. Densities are put in ascending order, and
    /// one listed twice is measured once.
    pub fn measure(
        configs: &[Config],
        densities: &[usize],
        workload: &Workload,
    ) -> KernelResult<Grid> {
        let mut densities = densities.to_vec();
        densities.sort_unstable();
        densities.dedup();
        let cells: Vec<Cell> = configs
            .iter()
            .flat_map(|&c| densities.iter().map(move |&d| Cell::both(c, d)))
            .collect();
        let samples = run_cells(&cells, workload)?
            .into_iter()
            .map(|c| Sample {
                memory: c.memory.expect("Cell::both observes memory"),
                startup: c.startup.expect("Cell::both observes startup"),
            })
            .collect();
        Ok(Grid { densities, samples })
    }

    /// The densities measured, ascending.
    pub fn densities(&self) -> &[usize] {
        &self.densities
    }

    /// The sample of one cell; a cell that was not measured is an error
    /// naming it, never another cell's numbers.
    pub fn at(&self, config: Config, density: usize) -> KernelResult<Sample> {
        self.samples
            .iter()
            .find(|s| s.memory.config == config && s.memory.density == density)
            .copied()
            .ok_or_else(|| {
                KernelError::InvalidState(format!(
                    "the grid has no cell ({}, {density} pods)",
                    config.label()
                ))
            })
    }
}

/// Which reading of its cells a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column {
    /// Metrics-server working set per container, a column per density.
    Metrics,
    /// `free` growth per container, a column per density.
    Free,
    /// `free` per container, averaged over the densities.
    MeanFree,
    /// Time to start this many concurrent containers.
    StartupAt(usize),
}

/// One paper figure: the configurations it shows and the reading it plots.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Subcommand of the `figures` binary and stem of the CSV file.
    pub name: &'static str,
    pub title: &'static str,
    pub configs: &'static [Config],
    pub column: Column,
}

const CRUN_WASM: [Config; 4] =
    [Config::WamrCrun, Config::CrunWasmtime, Config::CrunWasmer, Config::CrunWasmEdge];
const VS_SHIMS: [Config; 4] =
    [Config::WamrCrun, Config::ShimWasmtime, Config::ShimWasmer, Config::ShimWasmEdge];
/// The paper also quotes containerd-shim-wasmtime (the second-best Wasm
/// runtime) against the Python containers.
const VS_PYTHON: [Config; 4] =
    [Config::WamrCrun, Config::ShimWasmtime, Config::CrunPython, Config::RuncPython];

/// Figs. 3–10 of the paper. A figure is added by adding a row.
pub const FIGURES: [Figure; 8] = [
    Figure {
        name: "fig3",
        title: "Figure 3: Avg memory/container, Wasm runtimes in crun (Kubernetes metrics-server)",
        configs: &CRUN_WASM,
        column: Column::Metrics,
    },
    Figure {
        name: "fig4",
        title: "Figure 4: Avg memory/container, Wasm runtimes in crun (Linux free)",
        configs: &CRUN_WASM,
        column: Column::Free,
    },
    Figure {
        name: "fig5",
        title: "Figure 5: Avg memory/container, runwasi shims vs ours (Linux free)",
        configs: &VS_SHIMS,
        column: Column::Free,
    },
    Figure {
        name: "fig6",
        title: "Figure 6: Avg memory/container vs Python containers (Kubernetes metrics-server)",
        configs: &VS_PYTHON,
        column: Column::Metrics,
    },
    Figure {
        name: "fig7",
        title: "Figure 7: Avg memory/container vs Python containers (Linux free)",
        configs: &VS_PYTHON,
        column: Column::Free,
    },
    Figure {
        name: "fig8",
        title: "Figure 8: Time to start 10 concurrent containers",
        configs: &Config::ALL,
        column: Column::StartupAt(10),
    },
    Figure {
        name: "fig9",
        title: "Figure 9: Time to start 400 concurrent containers",
        configs: &Config::ALL,
        column: Column::StartupAt(400),
    },
    Figure {
        name: "fig10",
        title: "Figure 10: Avg memory/container across runtimes (mean over deployment sizes, free)",
        configs: &Config::ALL,
        column: Column::MeanFree,
    },
];

impl Figure {
    /// The densities of the figure as the paper plots it — with
    /// [`Figure::configs`], the sub-grid `figures <name>` measures.
    pub fn densities(&self) -> &[usize] {
        match &self.column {
            Column::StartupAt(n) => std::slice::from_ref(n),
            _ => &PAPER_DENSITIES,
        }
    }

    /// Project the figure out of `grid`: the memory columns span the
    /// grid's densities, a startup column reads its own.
    pub fn table(&self, grid: &Grid) -> KernelResult<Table> {
        let densities = grid.densities();
        let (columns, unit) = match self.column {
            Column::Metrics | Column::Free => {
                (densities.iter().map(|d| format!("{d} pods")).collect(), "MB/ctr")
            }
            Column::MeanFree => (vec!["mean".to_string()], "MB/ctr"),
            Column::StartupAt(n) => (vec![format!("{n} pods")], "s"),
        };
        let mut table = Table::new(self.title, columns, unit);
        for &config in self.configs {
            let at_each = |read: fn(Sample) -> f64| -> KernelResult<Vec<f64>> {
                densities.iter().map(|&d| grid.at(config, d).map(read)).collect()
            };
            let values = match self.column {
                Column::Metrics => at_each(|s| mb(s.memory.metrics_avg))?,
                Column::Free => at_each(|s| mb(s.memory.free_per_pod))?,
                Column::MeanFree => {
                    let free = at_each(|s| mb(s.memory.free_per_pod))?;
                    vec![free.iter().sum::<f64>() / free.len() as f64]
                }
                Column::StartupAt(n) => vec![grid.at(config, n)?.startup.total.as_secs_f64()],
            };
            table.row(config.label(), values, config.is_ours());
        }
        Ok(table)
    }
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
        let fig3 = &FIGURES[0];
        let grid = Grid::measure(fig3.configs, &[4], &Workload::light()).unwrap();
        let t = fig3.table(&grid).unwrap();
        assert_eq!((t.rows.len(), t.columns.as_slice()), (4, &["4 pods".to_string()][..]));
        let ours = t.ours().unwrap().values[0];
        for r in &t.rows {
            if !r.ours {
                assert!(ours < r.values[0], "{}: {} vs ours {}", r.label, r.values[0], ours);
            }
        }
    }

    #[test]
    fn a_cell_that_was_not_measured_is_an_error_naming_it() {
        // Density 2 listed twice is one cell.
        let grid = Grid::measure(&[Config::WamrCrun], &[2, 2], &Workload::light()).unwrap();
        assert_eq!(grid.densities(), [2]);
        let s = grid.at(Config::WamrCrun, 2).unwrap();
        assert_eq!((s.memory.config, s.startup.density), (Config::WamrCrun, 2));
        for (config, density) in [(Config::WamrCrun, 3), (Config::RuncPython, 2)] {
            let e = grid.at(config, density).unwrap_err().to_string();
            assert!(e.contains(config.label()) && e.contains(&format!("{density} pods")), "{e}");
        }
        // A figure propagates it: Fig. 3 needs three more configurations,
        // Fig. 8 the 10-pod cell.
        let e = FIGURES[0].table(&grid).unwrap_err().to_string();
        assert!(e.contains("crun-wasmtime") && e.contains("2 pods"), "{e}");
        let fig8 = FIGURES.iter().find(|f| f.name == "fig8").unwrap();
        let e = fig8.table(&grid).unwrap_err().to_string();
        assert!(e.contains("crun-wamr") && e.contains("10 pods"), "{e}");
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
