//! `explore` boots its plan's cluster once and forks it per schedule, where
//! a standalone `run_schedule` boots its own: over n schedules that is
//! n − 1 boots saved, each of them nine Wasm pod starts (3 warm-up pods,
//! 6 replicas) — and nothing else, so the difference is exact while the n
//! schedules are distinct (`explore` runs a repeat once).
//!
//! Counted in module lookups of the process-wide `ArtifactCache` — one per
//! Wasm pod start — which is why this is its own integration-test binary
//! with one test function, like `tests/cache_hit_rate.rs`.

use memwasm::harness::explorer::{explore, run_schedule, ExplorePlan, InvariantKnobs};
use memwasm::harness::Workload;
use memwasm::wasm_core::ArtifactCache;

#[test]
fn exploring_n_schedules_boots_one_cluster_not_n() {
    let n = 8;
    let plan = ExplorePlan { schedules: n, ..ExplorePlan::smoke(1) };
    let (w, knobs) = (Workload::light(), InvariantKnobs::default());
    let cache = ArtifactCache::global();
    let lookups = || cache.stats().hits + cache.stats().misses;

    cache.clear();
    let report = explore(&plan, &w, knobs).unwrap();
    let explored = lookups();
    assert!(report.counterexamples.is_empty(), "{}", report.render());
    // `explore` runs a repeated schedule once, so the equation below
    // holds only while no two of these schedules are alike.
    for (i, o) in report.outcomes.iter().enumerate() {
        let earlier = report.outcomes[..i].iter().position(|e| e.events == o.events);
        assert_eq!(earlier, None, "schedule {i} repeats one: pick a plan of distinct schedules");
    }

    cache.clear();
    for o in &report.outcomes {
        assert_eq!(run_schedule(&plan, o.seed, &o.events, &w, knobs).unwrap(), *o);
    }
    let standalone = lookups();

    let per_boot = (plan.nodes + plan.replicas) as u64;
    assert_eq!(standalone - explored, per_boot * (n as u64 - 1), "{standalone} vs {explored}");
}
