//! Regenerate the paper's evaluation: every figure and table, the
//! startup phase breakdown, the multi-node sweep and the claim checks.
//!
//! Usage: `cargo run --release -p harness --bin figures -- <name>`
//!
//! * `fig3` … `fig10`, `table1`, `table2` — the paper's figures and tables
//!   at its densities (10/100/400 pods).
//! * `phases` — where Fig. 8's startup time goes: mean per-pod busy time
//!   per lifecycle phase (`fig8_phases.csv`). The Kubernetes legs are
//!   runtime-independent, the engine legs are not.
//! * `cluster [--smoke]` — pods-per-cluster density sweep (25 nodes, swept
//!   to 10k pods) and the scheduler-policy ablation; `--smoke` is the
//!   CI-sized plan (3 nodes, tens of pods).
//! * `claims [--quick]` — every quantitative claim of the paper checked
//!   against this reproduction, exit 1 if one fails; `--quick` checks the
//!   memory claims at densities 8/64 instead of 10/100/400 and skips the
//!   three startup claims pinned to 400 pods (`[SKIP]`, not counted).
//!
//! Figures print their table and write `target/experiments/<name>.csv`.

#[path = "../cli.rs"]
mod cli;

use harness::claims::{check_memory_claims, check_startup_claims, render_claims};
use harness::cluster_scale::{density_sweep, policy_ablation, ScalePlan};
use harness::figures::{self, PAPER_DENSITIES};
use harness::{Config, Table, Workload};
use simkernel::KernelResult;

const USAGE: &str = "figures <fig3..fig10|table1|table2|phases|cluster [--smoke]|claims [--quick]>";

/// One subcommand: its name, the one flag it accepts ("" for none), and
/// the function that runs it given whether that flag was set.
type Figure = (&'static str, &'static str, fn(bool) -> KernelResult<()>);

const FIGURES: [Figure; 13] = [
    ("fig3", "", |_| memory("fig3", figures::fig3)),
    ("fig4", "", |_| memory("fig4", figures::fig4)),
    ("fig5", "", |_| memory("fig5", figures::fig5)),
    ("fig6", "", |_| memory("fig6", figures::fig6)),
    ("fig7", "", |_| memory("fig7", figures::fig7)),
    ("fig8", "", |_| startup("fig8", figures::fig8)),
    ("fig9", "", |_| startup("fig9", figures::fig9)),
    ("fig10", "", |_| memory("fig10", figures::fig10)),
    ("table1", "", |_| text(figures::table1())),
    ("table2", "", |_| text(figures::table2())),
    ("phases", "", |_| startup("fig8_phases", |w| figures::fig8_phases(w, 10))),
    ("cluster", "--smoke", cluster),
    ("claims", "--quick", claims),
];

fn memory(name: &str, figure: fn(&Workload, &[usize]) -> KernelResult<Table>) -> KernelResult<()> {
    figure(&Workload::default(), &PAPER_DENSITIES)?.emit(name);
    Ok(())
}

fn startup(name: &str, figure: fn(&Workload) -> KernelResult<Table>) -> KernelResult<()> {
    figure(&Workload::default())?.emit(name);
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
    let (densities, large_n): (&[usize], Option<usize>) =
        if quick { (&[8, 64], None) } else { (&PAPER_DENSITIES, Some(400)) };
    let workload = Workload::default();
    let mut all = check_memory_claims(&workload, densities)?;
    all.extend(check_startup_claims(&workload, 10, large_n)?);
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
    let names: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
    let cli = cli::Cli::parse(USAGE, &names, &["--smoke", "--quick"], &[]);
    let Some(&(name, flag, run)) = FIGURES.iter().find(|f| Some(f.0) == cli.command.as_deref())
    else {
        cli::usage_exit(USAGE, "which figure?")
    };
    if let Some(other) = ["--smoke", "--quick"].iter().find(|&&f| f != flag && cli.has(f)) {
        cli::usage_exit(USAGE, &format!("{name} does not take {other}"));
    }
    if let Err(e) = run(cli.has(flag)) {
        eprintln!("{name}: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_table_names_every_figure_table_and_sweep_exactly_once() {
        let names: Vec<&str> = super::FIGURES.iter().map(|f| f.0).collect();
        assert_eq!(
            names,
            [
                "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table1",
                "table2", "phases", "cluster", "claims"
            ]
        );
    }
}
