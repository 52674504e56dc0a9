//! The paper's quantitative claims, checked against this reproduction.
//!
//! Each claim compares cells of one measured [`Grid`] against the
//! acceptance bands in DESIGN.md, on the same `mb()` / `as_secs_f64()`
//! values the figures print. Bands check *shape* (ordering, rough
//! factors, crossovers), not the paper's absolute megabytes/seconds.

use simkernel::KernelResult;

use crate::config::Config;
use crate::figures::Grid;
use crate::report::mb;

/// Result of one claim check.
#[derive(Debug, Clone)]
pub struct ClaimResult {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

impl ClaimResult {
    fn check(name: &'static str, passed: bool, detail: String) -> ClaimResult {
        ClaimResult { name, passed, detail }
    }
}

const OURS: Config = Config::WamrCrun;
const OTHER_CRUN_WASM: [Config; 3] =
    [Config::CrunWasmtime, Config::CrunWasmer, Config::CrunWasmEdge];
const PYTHON: [Config; 2] = [Config::CrunPython, Config::RuncPython];

/// One reading of a grid cell, in the unit its figure prints.
type Reading<'a> = &'a dyn Fn(Config, usize) -> KernelResult<f64>;

/// Percentage by which `ours` is below `theirs`.
fn reduction(ours: f64, theirs: f64) -> f64 {
    (1.0 - ours / theirs) * 100.0
}

/// The smallest percentage by which ours is below any of `others`, over
/// `densities`.
fn min_reduction(read: Reading, others: &[Config], densities: &[usize]) -> KernelResult<f64> {
    let mut min = f64::INFINITY;
    for &d in densities {
        let ours = read(OURS, d)?;
        for &other in others {
            min = min.min(reduction(ours, read(other, d)?));
        }
    }
    Ok(min)
}

/// The percentage by which ours is below `other`, averaged over
/// `densities`.
fn mean_reduction(read: Reading, other: Config, densities: &[usize]) -> KernelResult<f64> {
    let each = densities
        .iter()
        .map(|&d| Ok(reduction(read(OURS, d)?, read(other, d)?)))
        .collect::<KernelResult<Vec<f64>>>()?;
    Ok(each.iter().sum::<f64>() / each.len() as f64)
}

/// Check every claim on `grid`: the memory claims (Figs. 3–7) at
/// `memory_densities`, then the startup claims — Fig. 8's shapes at
/// `small_n` pods and Fig. 9's density crossover at `large_n`. Deploys
/// nothing: a cell the grid lacks is an error.
pub fn check(
    grid: &Grid,
    memory_densities: &[usize],
    small_n: usize,
    large_n: usize,
) -> KernelResult<Vec<ClaimResult>> {
    let metrics = |c: Config, d: usize| grid.at(c, d).map(|s| mb(s.memory.metrics_avg));
    let free = |c: Config, d: usize| grid.at(c, d).map(|s| mb(s.memory.free_per_pod));
    let startup = |c: Config, n: usize| grid.at(c, n).map(|s| s.startup.total.as_secs_f64());
    let mut out = Vec::new();

    // Fig 3: ours ≥ 50% below every other crun Wasm runtime, all densities.
    let min_red = min_reduction(&metrics, &OTHER_CRUN_WASM, memory_densities)?;
    out.push(ClaimResult::check(
        "fig3_ours_50pct_below_crun_wasm",
        min_red >= 50.0,
        format!("min reduction {min_red:.1}% (paper: ≥50.34%)"),
    ));

    // Fig 4: ours ≥ 40% below the second-best crun runtime under free, and
    // free readings exceed metrics readings.
    let min_red = min_reduction(&free, &OTHER_CRUN_WASM, memory_densities)?;
    out.push(ClaimResult::check(
        "fig4_ours_40pct_below_second_best_free",
        min_red >= 40.0,
        format!("min reduction vs second-best {min_red:.1}% (paper: ≥40.0%)"),
    ));
    let mut free_exceeds = true;
    for &d in memory_densities {
        free_exceeds &= free(OURS, d)? > metrics(OURS, d)?;
    }
    out.push(ClaimResult::check(
        "fig4_free_exceeds_metrics",
        free_exceeds,
        "free(1) readings exceed metrics-server readings".into(),
    ));

    // Fig 5: ours ≥ 10% below shim-wasmtime (second best); ~75-80% below
    // shim-wasmer (paper: 77.53%).
    let min_wt = min_reduction(&free, &[Config::ShimWasmtime], memory_densities)?;
    out.push(ClaimResult::check(
        "fig5_ours_10pct_below_shim_wasmtime",
        min_wt >= 10.0,
        format!("min reduction vs shim-wasmtime {min_wt:.1}% (paper: ≥10.87%)"),
    ));
    let avg_wasmer = mean_reduction(&free, Config::ShimWasmer, memory_densities)?;
    out.push(ClaimResult::check(
        "fig5_ours_77pct_below_shim_wasmer",
        (70.0..=85.0).contains(&avg_wasmer),
        format!("avg reduction vs shim-wasmer {avg_wasmer:.1}% (paper: 77.53%)"),
    ));

    // Fig 6 (metrics): ours ≥ 17% below both Python configs; ~21% below
    // shim-wasmtime.
    let min_py = min_reduction(&metrics, &PYTHON, memory_densities)?;
    out.push(ClaimResult::check(
        "fig6_ours_17pct_below_python",
        min_py >= 16.0,
        format!("min reduction vs Python {min_py:.1}% (paper: ≥17.98%)"),
    ));
    let avg_wt = mean_reduction(&metrics, Config::ShimWasmtime, memory_densities)?;
    out.push(ClaimResult::check(
        "fig6_ours_21pct_below_shim_wasmtime",
        (15.0..=28.0).contains(&avg_wt),
        format!("avg reduction vs shim-wasmtime {avg_wt:.1}% (paper: 21.07%)"),
    ));

    // Fig 7 (free): ours ≥ 16% below both Python configs; shim-wasmtime is
    // the only other Wasm runtime beating Python (by ≥4%).
    let min_py = min_reduction(&free, &PYTHON, memory_densities)?;
    out.push(ClaimResult::check(
        "fig7_ours_16pct_below_python",
        min_py >= 15.0,
        format!("min reduction vs Python {min_py:.1}% (paper: ≥16.38%)"),
    ));
    let mut wt_vs_py = f64::INFINITY;
    for &d in memory_densities {
        let margin = reduction(free(Config::ShimWasmtime, d)?, free(Config::CrunPython, d)?);
        wt_vs_py = wt_vs_py.min(margin);
    }
    out.push(ClaimResult::check(
        "fig7_shim_wasmtime_beats_python",
        wt_vs_py >= 4.0,
        format!("shim-wasmtime below Python by {wt_vs_py:.1}% (paper: ≥4.66%)"),
    ));

    // Fig 8: shim-wasmedge and shim-wasmtime are faster than ours (up to
    // ~11.45%); every other crun Wasm runtime is slower (≥2.66%); Python is
    // slower.
    let ours_small = startup(OURS, small_n)?;
    let edge = startup(Config::ShimWasmEdge, small_n)?;
    let wt = startup(Config::ShimWasmtime, small_n)?;
    out.push(ClaimResult::check(
        "fig8_shims_beat_ours_at_10",
        edge < ours_small && wt < ours_small && reduction(edge, ours_small) <= 14.0,
        format!(
            "shim-wasmedge {:.2}s, shim-wasmtime {:.2}s vs ours {:.2}s (shims up to {:.1}% faster; paper ≤11.45%)",
            edge,
            wt,
            ours_small,
            reduction(edge.min(wt), ours_small)
        ),
    ));
    let worst_margin = min_reduction(&startup, &OTHER_CRUN_WASM, &[small_n])?;
    out.push(ClaimResult::check(
        "fig8_ours_beats_other_crun_at_10",
        worst_margin >= 2.0,
        format!(
            "ours faster than every other crun Wasm runtime by ≥{worst_margin:.1}% (paper ≥2.66%)"
        ),
    ));
    let py_margin = min_reduction(&startup, &PYTHON, &[small_n])?;
    out.push(ClaimResult::check(
        "fig8_ours_beats_python_at_10",
        py_margin >= 2.0,
        format!("ours faster than Python by ≥{py_margin:.1}% (paper 3%-18%)"),
    ));

    // Fig 9: the crossover — ours beats the shims at 400 (≈19%/28%), but
    // crun-Wasmtime beats ours (≈7%).
    let below_edge = min_reduction(&startup, &[Config::ShimWasmEdge], &[large_n])?;
    let below_wt = min_reduction(&startup, &[Config::ShimWasmtime], &[large_n])?;
    out.push(ClaimResult::check(
        "fig9_ours_beats_shims_at_400",
        below_edge >= 12.0 && below_wt >= 20.0,
        format!(
            "ours {below_edge:.1}% below shim-wasmedge (paper 18.82%), {below_wt:.1}% below shim-wasmtime (paper 28.38%)"
        ),
    ));
    let penalty = reduction(startup(Config::CrunWasmtime, large_n)?, startup(OURS, large_n)?);
    out.push(ClaimResult::check(
        "fig9_crun_wasmtime_beats_ours_at_400",
        (2.0..=14.0).contains(&penalty),
        format!("crun-wasmtime {penalty:.1}% faster than ours (paper: ours took 6.93% more time)"),
    ));
    let py_margin_l = min_reduction(&startup, &PYTHON, &[large_n])?;
    out.push(ClaimResult::check(
        "fig9_ours_beats_python_at_400",
        py_margin_l > 0.0,
        format!("ours faster than Python at 400 by ≥{py_margin_l:.1}%"),
    ));

    Ok(out)
}

/// Render claim results, returning whether every claim passed.
pub fn render_claims(claims: &[ClaimResult]) -> (String, bool) {
    let mut all = true;
    let mut out = String::new();
    for c in claims {
        all &= c.passed;
        let verdict = if c.passed { "PASS" } else { "FAIL" };
        out.push_str(&format!("[{verdict}] {:<42} {}\n", c.name, c.detail));
    }
    (out, all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Workload;

    #[test]
    fn a_claim_about_a_cell_the_grid_lacks_is_an_error_not_a_verdict() {
        let grid = Grid::measure(&Config::ALL, &[2], &Workload::light()).unwrap();
        let claims = check(&grid, &[2], 2, 2).unwrap();
        assert_eq!(claims.len(), 15);
        let e = check(&grid, &[2], 2, 3).unwrap_err().to_string();
        assert!(e.contains("3 pods"), "{e}");
    }

    #[test]
    fn one_failed_claim_fails_the_render() {
        let pass = ClaimResult::check("holds", true, "1.0% (paper 1.0%)".into());
        let fail = ClaimResult::check("broken", false, "0.1% (paper 9.9%)".into());
        let (text, ok) = render_claims(std::slice::from_ref(&pass));
        assert!(ok && text.starts_with("[PASS] holds"), "{text}");
        let (text, ok) = render_claims(&[pass, fail]);
        assert!(!ok && text.contains("\n[FAIL] broken"), "{text}");
    }
}
