//! Effectiveness of the process-wide module-artifact cache across a figure
//! sweep: a grid re-deploys the same handful of workload images hundreds of
//! times, so nearly every decode+validate should be a cache hit.
//!
//! This lives in its own integration-test binary (one test function) so the
//! global cache counters aren't perturbed by unrelated tests running in the
//! same process — which is also why the exact count of module bytes hashed
//! by a sweep is asserted here and nowhere else, and the exact split of its
//! guest starts into executed and replayed (`engines::guests`,
//! `pyrt::scripts`).

use memwasm::engines::guests;
use memwasm::harness::{run_cells_on, Cell, Config, Grid, Workload};
use memwasm::pyrt::scripts;
use memwasm::simkernel::ReplayStats;
use memwasm::wasm_core::ArtifactCache;

#[test]
fn artifact_cache_hit_rate_exceeds_90_percent_across_a_sweep() {
    let w = Workload::light();
    let cache = ArtifactCache::global();
    cache.clear();
    guests().clear();
    scripts().clear();

    // The paper's grid at reduced size: all nine configurations × two
    // densities, every observer's sample from each deployment.
    Grid::measure(&Config::ALL, &[4, 10], &w).unwrap();

    let stats = cache.stats();
    let total = stats.hits + stats.misses;
    // 7 Wasm configs × 2 cells × (1 warmup + its pods) = 112 decode
    // requests for one distinct module byte string.
    assert!(total >= 100, "expected a full sweep of lookups, saw {total}");
    assert_eq!(stats.misses, 1, "one distinct module in the sweep: {stats:?}");
    assert!(
        stats.hit_rate() > 0.9,
        "hit rate {:.3} (hits {}, misses {})",
        stats.hit_rate(),
        stats.hits,
        stats.misses
    );
    assert_eq!(cache.len(), 1);
    // Every image shares the memoised module allocation, so the sweep saw
    // one distinct buffer and hashed it once, on first sight — not once per
    // lookup, and not a second time for each Wasmtime start's code-cache
    // file name (both Wasmtime configs are in the sweep): that would be
    // about 135 modules' worth.
    let module = memwasm::workloads::microservice_module_bytes(&w.wasm);
    assert_eq!(stats.hashed_bytes, module.len() as u64, "{stats:?}");

    // Every start asked what its guest does, one artifact lookup each, and
    // none of these guests looks at the world. How many of them executed
    // depends on how many workers met a guest at first sight together.
    let (wasm, python) = (guests().stats(), scripts().stats());
    assert_eq!(wasm.executed + wasm.replayed, total, "{wasm:?}");
    assert_eq!(python.executed + python.replayed, 2 * (5 + 11), "{python:?}");
    assert_eq!((wasm.unreplayable, python.unreplayable), (0, 0));

    // On one thread the split is exact: the grid's 144 starts (per cell, a
    // warm-up and its pods) are three programs — the module on the
    // in-place tier (crun-wamr), the module on the lowered tier (the six
    // others), one Python script — each executed once and replayed for
    // every other start.
    cache.clear();
    guests().clear();
    scripts().clear();
    let cells: Vec<Cell> =
        Config::ALL.iter().flat_map(|&c| [4, 10].map(|d| Cell::both(c, d))).collect();
    run_cells_on(&cells, &w, 1).unwrap();
    let lookups = cache.stats().hits + cache.stats().misses;
    assert_eq!(lookups, 7 * (5 + 11));
    assert_eq!(
        guests().stats(),
        ReplayStats { executed: 2, replayed: lookups - 2, unreplayable: 0 }
    );
    assert_eq!(scripts().stats(), ReplayStats { executed: 1, replayed: 31, unreplayable: 0 });
    assert_eq!((guests().len(), scripts().len()), (2, 1));
}
