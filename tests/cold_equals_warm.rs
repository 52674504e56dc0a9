//! What a run prints does not depend on what the process ran before it.
//! The host keeps three process-wide memos — the `ArtifactCache` of
//! decoded modules, the guest record `engines::guests()` and the script
//! record `pyrt::scripts()` — and `explore` reuses one schedule's outcome
//! for every repeat of it, which is sound only while an outcome is a
//! function of its inputs alone. So the explorer's report and the eight
//! figure CSVs of the light grid must read the same from cold memos and
//! from memos another plan and grid have warmed.
//!
//! Its own integration-test binary with one test function: it clears the
//! process-wide memos, which a test running beside it would refill.

use memwasm::engines::guests;
use memwasm::harness::explorer::{explore, ExplorePlan, InvariantKnobs};
use memwasm::harness::figures::FIGURES;
use memwasm::harness::{Column, Config, Figure, Grid, Workload};
use memwasm::pyrt::scripts;
use memwasm::wasm_core::ArtifactCache;

/// The explorer's smoke report and the light grid's eight figure CSVs
/// (Figs. 8 and 9 at the grid's own densities, as in
/// `tests/parallel_determinism.rs`).
fn outputs() -> (String, Vec<String>) {
    let w = Workload::light();
    let report = explore(&ExplorePlan::smoke(1), &w, InvariantKnobs::default()).unwrap();
    let grid = Grid::measure(&Config::ALL, &[2, 4], &w).unwrap();
    let csvs = FIGURES
        .iter()
        .map(|fig| {
            let column = match fig.name {
                "fig8" => Column::StartupAt(2),
                "fig9" => Column::StartupAt(4),
                _ => fig.column,
            };
            Figure { column, ..*fig }.table(&grid).unwrap().to_csv()
        })
        .collect();
    (report.render(), csvs)
}

#[test]
fn a_run_reads_the_same_on_cold_and_on_warm_host_memos() {
    ArtifactCache::global().clear();
    guests().clear();
    scripts().clear();
    let (cold_report, cold_csvs) = outputs();

    let plan = ExplorePlan { schedules: 20, ..ExplorePlan::smoke(11) };
    explore(&plan, &Workload::default(), InvariantKnobs::default()).unwrap();
    Grid::measure(&Config::ALL, &[3], &Workload::default()).unwrap();
    let warmed = |replayed: u64| assert!(replayed > 0, "the memos are warm");
    warmed(ArtifactCache::global().stats().hits);
    warmed(guests().stats().replayed);
    warmed(scripts().stats().replayed);

    let (warm_report, warm_csvs) = outputs();
    assert_eq!(warm_report, cold_report);
    for ((fig, warm), cold) in FIGURES.iter().zip(&warm_csvs).zip(&cold_csvs) {
        assert_eq!(warm, cold, "{}", fig.name);
    }
}
