//! Every claim is read off one measurement of the grid: checking all
//! fifteen deploys each (configuration, density) cell exactly once.
//!
//! Counted in module lookups of the process-wide `ArtifactCache` — one per
//! Wasm pod start — which is why this is its own integration-test binary
//! with one test function, like `tests/cache_hit_rate.rs`.

use memwasm::harness::{claims, Config, Grid, Workload};
use memwasm::wasm_core::ArtifactCache;

#[test]
fn checking_every_claim_deploys_each_cell_once() {
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
