//! Regenerate the paper's evaluation: every figure and table, the
//! startup phase breakdown, the multi-node sweep and the claim checks.
//!
//! Usage: `cargo run --release -p harness --bin figures -- <name>`
//!
//! * `fig3` … `fig10` — one of the paper's figures at its densities
//!   (10/100/400 pods), measuring only the cells that figure shows.
//! * `all` — all eight figures from one measurement of the paper's grid
//!   (nine configurations × three densities).
//! * `table1`, `table2` — the paper's two tables.
//! * `phases` — where Fig. 8's startup time goes: mean per-pod busy time
//!   per lifecycle phase (`fig8_phases.csv`). The Kubernetes legs are
//!   runtime-independent, the engine legs are not.
//! * `cluster [--smoke]` — pods-per-cluster density sweep (25 nodes, swept
//!   to 10k pods) and the scheduler-policy ablation; `--smoke` is the
//!   CI-sized plan (3 nodes, tens of pods).
//! * `claims` — every quantitative claim of the paper checked against one
//!   measurement of the grid at the paper's densities, exit 1 if one
//!   fails.
//!
//! Figures print their table and write `target/experiments/<name>.csv`.

#[path = "../cli.rs"]
mod cli;

use harness::claims::{self, render_claims};
use harness::cluster_scale::{density_sweep, policy_ablation, ScalePlan};
use harness::figures::{self, Figure, Grid, FIGURES, PAPER_DENSITIES};
use harness::{Config, Workload};
use simkernel::KernelResult;

const USAGE: &str = "figures <fig3..fig10|all|table1|table2|phases|cluster [--smoke]|claims>";

/// One subcommand besides the figures of [`FIGURES`]: its name and the
/// function that runs it given whether `--smoke` was set (only `cluster`
/// takes the flag).
type Command = (&'static str, fn(bool) -> KernelResult<()>);

const COMMANDS: [Command; 6] = [
    ("all", |_| emit(&FIGURES)),
    ("table1", |_| text(figures::table1())),
    ("table2", |_| text(figures::table2())),
    ("phases", |_| phases()),
    ("cluster", cluster),
    ("claims", |_| claims()),
];

fn names() -> Vec<&'static str> {
    FIGURES.iter().map(|f| f.name).chain(COMMANDS.iter().map(|c| c.0)).collect()
}

/// Measure the cells `figures` show, each once, and emit every figure.
fn emit(figures: &[Figure]) -> KernelResult<()> {
    let shown = |c: &Config| figures.iter().any(|f| f.configs.contains(c));
    let configs: Vec<Config> = Config::ALL.into_iter().filter(shown).collect();
    let densities: Vec<usize> = figures.iter().flat_map(|f| f.densities()).copied().collect();
    let grid = Grid::measure(&configs, &densities, &Workload::default())?;
    for fig in figures {
        fig.table(&grid)?.emit(fig.name);
    }
    Ok(())
}

fn phases() -> KernelResult<()> {
    figures::fig8_phases(&Workload::default(), 10)?.emit("fig8_phases");
    Ok(())
}

fn text(table: String) -> KernelResult<()> {
    println!("{table}");
    Ok(())
}

fn cluster(smoke: bool) -> KernelResult<()> {
    let workload = Workload::default();
    let plan = if smoke { ScalePlan::smoke() } else { ScalePlan::tenk() };
    density_sweep(&plan, &workload)?.0.emit("cluster_density");
    let (nodes, pods) = if smoke { (3, 30) } else { (8, 2_000) };
    policy_ablation(Config::WamrCrun, nodes, pods, &workload)?.emit("scheduler_ablation");
    Ok(())
}

fn claims() -> KernelResult<()> {
    let grid = Grid::measure(&Config::ALL, &PAPER_DENSITIES, &Workload::default())?;
    let all = claims::check(&grid, &PAPER_DENSITIES, 10, 400)?;
    let (text, passed) = render_claims(&all);
    println!("{text}");
    if !passed {
        println!("Some claims FAILED.");
        std::process::exit(1);
    }
    println!("All {} claims hold.", all.len());
    Ok(())
}

fn main() {
    let cli = cli::Cli::parse(USAGE, &names(), &["--smoke"], &[]);
    let Some(name) = cli.command.as_deref() else { cli::usage_exit(USAGE, "which figure?") };
    // A figure takes no flag; everything else is a row of COMMANDS.
    if name != "cluster" && cli.has("--smoke") {
        cli::usage_exit(USAGE, &format!("{name} does not take --smoke"));
    }
    let result = match COMMANDS.iter().find(|c| c.0 == name) {
        Some(command) => (command.1)(cli.has("--smoke")),
        None => {
            let i = FIGURES.iter().position(|f| f.name == name);
            let i = i.expect("the parser admits only names()");
            emit(&FIGURES[i..=i])
        }
    };
    if let Err(e) = result {
        eprintln!("{name}: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_names_are_every_figure_table_and_sweep_exactly_once() {
        assert_eq!(
            super::names(),
            [
                "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "all", "table1",
                "table2", "phases", "cluster", "claims"
            ]
        );
    }
}
