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
//! * `claims [--quick]` — every quantitative claim of the paper checked
//!   against one measurement of the grid, exit 1 if one fails; `--quick`
//!   checks the memory claims at densities 8/64 instead of 10/100/400 and
//!   skips the three startup claims pinned to 400 pods (`[SKIP]`, not
//!   counted).
//!
//! Figures print their table and write `target/experiments/<name>.csv`.

#[path = "../cli.rs"]
mod cli;

use harness::claims::{self, render_claims};
use harness::cluster_scale::{density_sweep, policy_ablation, ScalePlan};
use harness::figures::{self, Figure, Grid, FIGURES, PAPER_DENSITIES};
use harness::{Config, Workload};
use simkernel::KernelResult;

const USAGE: &str =
    "figures <fig3..fig10|all|table1|table2|phases|cluster [--smoke]|claims [--quick]>";

/// One subcommand besides the figures of [`FIGURES`]: its name, the one
/// flag it accepts ("" for none), and the function that runs it given
/// whether that flag was set.
type Command = (&'static str, &'static str, fn(bool) -> KernelResult<()>);

const COMMANDS: [Command; 6] = [
    ("all", "", |_| emit(&FIGURES)),
    ("table1", "", |_| text(figures::table1())),
    ("table2", "", |_| text(figures::table2())),
    ("phases", "", |_| phases()),
    ("cluster", "--smoke", cluster),
    ("claims", "--quick", claims),
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

fn claims(quick: bool) -> KernelResult<()> {
    let (memory, small_n, large_n): (&[usize], usize, Option<usize>) =
        if quick { (&[8, 64], 10, None) } else { (&PAPER_DENSITIES, 10, Some(400)) };
    let densities: Vec<usize> = memory.iter().copied().chain([small_n]).chain(large_n).collect();
    let grid = Grid::measure(&Config::ALL, &densities, &Workload::default())?;
    let all = claims::check(&grid, memory, small_n, large_n)?;
    let (text, passed) = render_claims(&all);
    println!("{text}");
    if !passed {
        println!("Some claims FAILED.");
        std::process::exit(1);
    }
    match all.iter().filter(|c| c.skipped).count() {
        0 => println!("All {} claims hold.", all.len()),
        skipped => {
            println!("All {} evaluated claims hold ({skipped} skipped).", all.len() - skipped)
        }
    }
    Ok(())
}

fn main() {
    let cli = cli::Cli::parse(USAGE, &names(), &["--smoke", "--quick"], &[]);
    let Some(name) = cli.command.as_deref() else { cli::usage_exit(USAGE, "which figure?") };
    // A figure takes no flag; everything else is a row of COMMANDS.
    let command = COMMANDS.iter().find(|c| c.0 == name);
    let flag = command.map_or("", |c| c.1);
    if let Some(other) = ["--smoke", "--quick"].iter().find(|&&f| f != flag && cli.has(f)) {
        cli::usage_exit(USAGE, &format!("{name} does not take {other}"));
    }
    let result = match command {
        Some(command) => (command.2)(cli.has(flag)),
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
