//! `explore` simulates each distinct fault schedule once and gives its
//! outcome to every schedule that repeats it. A schedule's outcome is a
//! function of its events alone (every run starts on a fork of one settled
//! template), so a repeat must read exactly what a standalone
//! `run_schedule` of it reads, while costing `explore` nothing: one boot,
//! plus each distinct schedule's own pod starts once.
//!
//! Counted in module lookups of the process-wide `ArtifactCache` — one per
//! Wasm pod start — which is why this is its own integration-test binary
//! with one test function, like `tests/explorer_boots_once.rs`.

use memwasm::harness::explorer::{
    explore, run_schedule, schedule_line, ExplorePlan, FaultEvent, InvariantKnobs,
};
use memwasm::harness::Workload;
use memwasm::wasm_core::ArtifactCache;

#[test]
fn exploring_runs_each_distinct_schedule_once() {
    let plan = ExplorePlan { schedules: 12, ..ExplorePlan::smoke(1) };
    let (w, knobs) = (Workload::light(), InvariantKnobs::default());
    let cache = ArtifactCache::global();
    let lookups = || cache.stats().hits + cache.stats().misses;

    cache.clear();
    let report = explore(&plan, &w, knobs).unwrap();
    let explored = lookups();
    assert!(report.counterexamples.is_empty(), "{}", report.render());

    // Every outcome, repeat or not, is its standalone run's; the lookups
    // of each distinct schedule are those of its first standalone run.
    let mut distinct: Vec<(&[FaultEvent], u64)> = Vec::new();
    for o in &report.outcomes {
        let before = lookups();
        assert_eq!(run_schedule(&plan, o.seed, &o.events, &w, knobs).unwrap(), *o);
        let used = lookups() - before;
        match distinct.iter().find(|(events, _)| *events == o.events) {
            Some(&(_, first)) => assert_eq!(used, first, "seed {:#x}: a rerun is a run", o.seed),
            None => distinct.push((&o.events, used)),
        }
    }

    let per_boot = (plan.nodes + plan.replicas) as u64;
    let last = &report.outcomes[11];
    assert_eq!(schedule_line(&last.events), "crash(2)", "schedule 11 repeats crash(2)");
    let (_, crash) = distinct.iter().find(|(events, _)| *events == last.events).unwrap();
    assert!(*crash > per_boot, "crash(2) re-homes replicas, so its repeat would start pods");
    assert!(distinct.len() < report.outcomes.len(), "the plan repeats a schedule");

    let once: u64 = distinct.iter().map(|&(_, used)| used - per_boot).sum();
    assert_eq!(explored, per_boot + once, "{} distinct of 12", distinct.len());
}
