//! Effectiveness of the process-wide module-artifact cache across a figure
//! sweep: a grid re-deploys the same handful of workload images hundreds of
//! times, so nearly every decode+validate should be a cache hit.
//!
//! This lives in its own integration-test binary (one test function) so the
//! global cache counters aren't perturbed by unrelated tests running in the
//! same process — which is also why the exact count of module bytes hashed
//! by a sweep is asserted here and nowhere else.

use memwasm::harness::{Config, Grid, Workload};
use memwasm::wasm_core::ArtifactCache;

#[test]
fn artifact_cache_hit_rate_exceeds_90_percent_across_a_sweep() {
    let w = Workload::light();
    let cache = ArtifactCache::global();
    cache.clear();

    // The paper's grid at reduced size: all nine configurations × two
    // densities, every observer's sample from each deployment.
    Grid::measure(&Config::ALL, &[4, 10], &w).unwrap();

    let stats = cache.stats();
    let total = stats.hits + stats.misses;
    // 7 Wasm configs × (1 warmup + 4 + 10 pods) = 105 decode requests for
    // one distinct module byte string.
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
}
