//! Every claim is read off one measurement of the grid: checking all
//! fifteen deploys each (configuration, density) cell exactly once. And
//! every figure is a projection of one grid whose CSV bytes are pinned.
//!
//! Counted in module lookups of the process-wide `ArtifactCache` — one per
//! Wasm pod start — which is why this is its own integration-test binary,
//! like `tests/cache_hit_rate.rs`, and why its two tests take turns.

use std::sync::{Mutex, MutexGuard, PoisonError};

use memwasm::harness::figures::FIGURES;
use memwasm::harness::{claims, Column, Config, Figure, Grid, Workload};
use memwasm::wasm_core::ArtifactCache;

/// Held by each test: a grid measured beside the lookup count moves it.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn checking_every_claim_deploys_each_cell_once() {
    let _serial = serial();
    let cache = ArtifactCache::global();
    cache.clear();
    let lookups = || cache.stats().hits + cache.stats().misses;

    // Memory claims at {2, 3} pods, startup claims at 2 and 3: two
    // distinct densities, however many claims read them.
    let (memory, small_n, large_n) = ([2, 3], 2, 3);
    let densities = [memory[0], memory[1], small_n, large_n];
    let grid = Grid::measure(&Config::ALL, &densities, &Workload::light()).unwrap();
    // 7 Wasm configurations × ((1 warm-up + 2) + (1 warm-up + 3) pods).
    // Five per-figure sweeps over the same inputs made 119.
    assert_eq!(lookups(), 49);

    let results = claims::check(&grid, &memory, small_n, large_n).unwrap();
    assert_eq!(results.len(), 15);
    assert_eq!(lookups(), 49, "claims are read off the grid, not deployed for");
}

/// FNV-1a of each paper figure's CSV bytes at `Workload::light()`,
/// densities {2, 4} (Figs. 8 and 9: startup at 2 and at 4 pods — a CSV
/// does not carry the title). Recorded from the per-figure sweeps before
/// one grid replaced them: whatever produces the figures has to reproduce
/// these bytes.
const FIGURE_CSV_DIGESTS: [(&str, u64); 8] = [
    ("fig3", 0x6550_98b7_3c65_a3cc),
    ("fig4", 0x1985_b765_17ab_198b),
    ("fig5", 0xe01f_01ad_3fe1_77e0),
    ("fig6", 0x7b92_1bc8_caee_ad0b),
    ("fig7", 0x21af_3753_dcdb_748e),
    ("fig8", 0x928c_17b4_0a73_ee4e),
    ("fig9", 0x9ac4_72be_8cdd_4bc2),
    ("fig10", 0x117d_6aa0_2d8f_04bd),
];

#[test]
fn golden_figure_csv_digests() {
    let _serial = serial();
    let grid = Grid::measure(&Config::ALL, &[2, 4], &Workload::light()).unwrap();
    for (fig, (name, digest)) in FIGURES.iter().zip(FIGURE_CSV_DIGESTS) {
        assert_eq!(fig.name, name);
        // The paper's 10 and 400 pods are not test-sized.
        let column = match fig.name {
            "fig8" => Column::StartupAt(2),
            "fig9" => Column::StartupAt(4),
            _ => fig.column,
        };
        let csv = Figure { column, ..*fig }.table(&grid).unwrap().to_csv();
        let got = memwasm::wasm_core::cache::content_hash(csv.as_bytes());
        assert_eq!(got, digest, "{name}: {got:#018x}\n{csv}");
    }
}
