//! The paper's quantitative claims, checked against this reproduction.
//!
//! Each claim compares measured values at the paper's densities against the
//! acceptance bands in DESIGN.md. Bands check *shape* (ordering, rough
//! factors, crossovers), not the paper's absolute megabytes/seconds.

use simkernel::KernelResult;

use crate::config::Workload;
use crate::figures;
use crate::report::Table;

/// Result of one claim check.
#[derive(Debug, Clone)]
pub struct ClaimResult {
    pub name: &'static str,
    pub passed: bool,
    /// The claim was not evaluated (`detail` says why): it has neither
    /// passed nor failed, and does not count either way.
    pub skipped: bool,
    pub detail: String,
}

impl ClaimResult {
    fn check(name: &'static str, passed: bool, detail: String) -> ClaimResult {
        ClaimResult { name, passed, skipped: false, detail }
    }
}

fn ours_vs(table: &Table, other: &str, col: usize) -> (f64, f64) {
    let ours = table.ours().expect("ours present").values[col];
    let theirs = table.value(other, col).unwrap_or(f64::NAN);
    (ours, theirs)
}

/// Percentage by which `ours` is below `theirs`.
fn reduction(ours: f64, theirs: f64) -> f64 {
    (1.0 - ours / theirs) * 100.0
}

/// Check every memory claim on the given density set.
pub fn check_memory_claims(
    workload: &Workload,
    densities: &[usize],
) -> KernelResult<Vec<ClaimResult>> {
    let mut out = Vec::new();
    // Figs 3+4 and 6+7 plot the two observers of the same grids, so each
    // pair shares one grid run (half the deployments, identical values).
    let (fig3, fig4) = figures::figs3_4(workload, densities)?;
    let fig5 = figures::fig5(workload, densities)?;
    let (fig6, fig7) = figures::figs6_7(workload, densities)?;

    // Fig 3: ours ≥ 50% below every other crun Wasm runtime, all densities.
    {
        let mut min_red = f64::INFINITY;
        let mut detail = String::new();
        for col in 0..densities.len() {
            for other in ["crun-wasmtime", "crun-wasmer", "crun-wasmedge"] {
                let (ours, theirs) = ours_vs(&fig3, other, col);
                let red = reduction(ours, theirs);
                min_red = min_red.min(red);
                detail = format!("min reduction {min_red:.1}% (paper: ≥50.34%)");
            }
        }
        out.push(ClaimResult::check("fig3_ours_50pct_below_crun_wasm", min_red >= 50.0, detail));
    }

    // Fig 4: ours ≥ 40% below the second-best crun runtime under free, and
    // free readings exceed metrics readings.
    {
        let mut min_red = f64::INFINITY;
        for col in 0..densities.len() {
            let ours = fig4.ours().expect("ours").values[col];
            let second_best = ["crun-wasmtime", "crun-wasmer", "crun-wasmedge"]
                .iter()
                .filter_map(|o| fig4.value(o, col))
                .fold(f64::INFINITY, f64::min);
            min_red = min_red.min(reduction(ours, second_best));
        }
        out.push(ClaimResult::check(
            "fig4_ours_40pct_below_second_best_free",
            min_red >= 40.0,
            format!("min reduction vs second-best {min_red:.1}% (paper: ≥40.0%)"),
        ));
        let free_exceeds = (0..densities.len()).all(|col| {
            fig4.ours().expect("ours").values[col] > fig3.ours().expect("ours").values[col]
        });
        out.push(ClaimResult::check(
            "fig4_free_exceeds_metrics",
            free_exceeds,
            "free(1) readings exceed metrics-server readings".into(),
        ));
    }

    // Fig 5: ours ≥ 10% below shim-wasmtime (second best); ~75-80% below
    // shim-wasmer (paper: 77.53%).
    {
        let mut min_wt = f64::INFINITY;
        let mut wasmer_reds = Vec::new();
        for col in 0..densities.len() {
            let (ours, wt) = ours_vs(&fig5, "shim-wasmtime", col);
            min_wt = min_wt.min(reduction(ours, wt));
            let (ours, wm) = ours_vs(&fig5, "shim-wasmer", col);
            wasmer_reds.push(reduction(ours, wm));
        }
        out.push(ClaimResult::check(
            "fig5_ours_10pct_below_shim_wasmtime",
            min_wt >= 10.0,
            format!("min reduction vs shim-wasmtime {min_wt:.1}% (paper: ≥10.87%)"),
        ));
        let avg_wasmer = wasmer_reds.iter().sum::<f64>() / wasmer_reds.len() as f64;
        out.push(ClaimResult::check(
            "fig5_ours_77pct_below_shim_wasmer",
            (70.0..=85.0).contains(&avg_wasmer),
            format!("avg reduction vs shim-wasmer {avg_wasmer:.1}% (paper: 77.53%)"),
        ));
    }

    // Fig 6 (metrics): ours ≥ 17% below both Python configs; ~21% below
    // shim-wasmtime.
    {
        let mut min_py = f64::INFINITY;
        let mut wt_reds = Vec::new();
        for col in 0..densities.len() {
            for other in ["crun-python", "runc-python"] {
                let (ours, py) = ours_vs(&fig6, other, col);
                min_py = min_py.min(reduction(ours, py));
            }
            let (ours, wt) = ours_vs(&fig6, "shim-wasmtime", col);
            wt_reds.push(reduction(ours, wt));
        }
        out.push(ClaimResult::check(
            "fig6_ours_17pct_below_python",
            min_py >= 16.0,
            format!("min reduction vs Python {min_py:.1}% (paper: ≥17.98%)"),
        ));
        let avg_wt = wt_reds.iter().sum::<f64>() / wt_reds.len() as f64;
        out.push(ClaimResult::check(
            "fig6_ours_21pct_below_shim_wasmtime",
            (15.0..=28.0).contains(&avg_wt),
            format!("avg reduction vs shim-wasmtime {avg_wt:.1}% (paper: 21.07%)"),
        ));
    }

    // Fig 7 (free): ours ≥ 16% below both Python configs; shim-wasmtime is
    // the only other Wasm runtime beating Python (by ≥4%).
    {
        let mut min_py = f64::INFINITY;
        let mut wt_vs_py = f64::INFINITY;
        for col in 0..densities.len() {
            for other in ["crun-python", "runc-python"] {
                let (ours, py) = ours_vs(&fig7, other, col);
                min_py = min_py.min(reduction(ours, py));
            }
            let wt = fig7.value("shim-wasmtime", col).expect("shim-wasmtime row");
            let py = fig7.value("crun-python", col).expect("crun-python row");
            wt_vs_py = wt_vs_py.min(reduction(wt, py));
        }
        out.push(ClaimResult::check(
            "fig7_ours_16pct_below_python",
            min_py >= 15.0,
            format!("min reduction vs Python {min_py:.1}% (paper: ≥16.38%)"),
        ));
        out.push(ClaimResult::check(
            "fig7_shim_wasmtime_beats_python",
            wt_vs_py >= 4.0,
            format!("shim-wasmtime below Python by {wt_vs_py:.1}% (paper: ≥4.66%)"),
        ));
    }

    Ok(out)
}

/// Check the startup claims (Figs. 8–9 shapes and the density crossover).
///
/// The Fig. 9 claims are pinned to the paper's contended density (their
/// names end `_at_400`): the crossover they describe needs hundreds of pods
/// contending for the task lock. With `large_n` `None` they are reported as
/// skipped rather than evaluated where it has not happened yet.
pub fn check_startup_claims(
    workload: &Workload,
    small_n: usize,
    large_n: impl Into<Option<usize>>,
) -> KernelResult<Vec<ClaimResult>> {
    let mut out = Vec::new();
    let small = crate::figures_startup(workload, small_n)?;
    let v = |t: &Table, label: &str| t.value(label, 0).expect("row present");
    let ours_small = small.ours().expect("ours").values[0];

    // Fig 8: shim-wasmedge and shim-wasmtime are faster than ours (up to
    // ~11.45%); every other crun Wasm runtime is slower (≥2.66%); Python is
    // slower.
    let edge = v(&small, "shim-wasmedge");
    let wt = v(&small, "shim-wasmtime");
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
    let worst_margin = ["crun-wasmtime", "crun-wasmer", "crun-wasmedge"]
        .iter()
        .map(|o| reduction(ours_small, v(&small, o)))
        .fold(f64::INFINITY, f64::min);
    out.push(ClaimResult::check(
        "fig8_ours_beats_other_crun_at_10",
        worst_margin >= 2.0,
        format!(
            "ours faster than every other crun Wasm runtime by ≥{worst_margin:.1}% (paper ≥2.66%)"
        ),
    ));
    let py_margin = ["crun-python", "runc-python"]
        .iter()
        .map(|o| reduction(ours_small, v(&small, o)))
        .fold(f64::INFINITY, f64::min);
    out.push(ClaimResult::check(
        "fig8_ours_beats_python_at_10",
        py_margin >= 2.0,
        format!("ours faster than Python by ≥{py_margin:.1}% (paper 3%-18%)"),
    ));

    // Fig 9: the crossover — ours beats the shims at 400 (≈19%/28%), but
    // crun-Wasmtime beats ours (≈7%).
    let large = large_n.into().map(|n| crate::figures_startup(workload, n)).transpose()?;
    let mut at_400 = |name: &'static str, check: &dyn Fn(&Table, f64) -> (bool, String)| {
        out.push(match &large {
            Some(large) => {
                let (passed, detail) = check(large, large.ours().expect("ours").values[0]);
                ClaimResult::check(name, passed, detail)
            }
            None => ClaimResult {
                name,
                passed: false,
                skipped: true,
                detail: "pinned to 400 pods; not evaluated at a reduced density".into(),
            },
        });
    };
    at_400("fig9_ours_beats_shims_at_400", &|large, ours_large| {
        let edge_l = v(large, "shim-wasmedge");
        let wt_l = v(large, "shim-wasmtime");
        (
            reduction(ours_large, edge_l) >= 12.0 && reduction(ours_large, wt_l) >= 20.0,
            format!(
                "ours {:.1}% below shim-wasmedge (paper 18.82%), {:.1}% below shim-wasmtime (paper 28.38%)",
                reduction(ours_large, edge_l),
                reduction(ours_large, wt_l)
            ),
        )
    });
    at_400("fig9_crun_wasmtime_beats_ours_at_400", &|large, ours_large| {
        let penalty = reduction(v(large, "crun-wasmtime"), ours_large);
        (
            (2.0..=14.0).contains(&penalty),
            format!(
                "crun-wasmtime {penalty:.1}% faster than ours (paper: ours took 6.93% more time)"
            ),
        )
    });
    at_400("fig9_ours_beats_python_at_400", &|large, ours_large| {
        let py_margin_l = ["crun-python", "runc-python"]
            .iter()
            .map(|o| reduction(ours_large, v(large, o)))
            .fold(f64::INFINITY, f64::min);
        (py_margin_l > 0.0, format!("ours faster than Python at 400 by ≥{py_margin_l:.1}%"))
    });

    Ok(out)
}

/// Render claim results, returning whether every evaluated claim passed.
pub fn render_claims(claims: &[ClaimResult]) -> (String, bool) {
    let mut all = true;
    let mut out = String::new();
    for c in claims {
        all &= c.passed || c.skipped;
        let verdict = match (c.skipped, c.passed) {
            (true, _) => "SKIP",
            (false, true) => "PASS",
            (false, false) => "FAIL",
        };
        out.push_str(&format!("[{verdict}] {:<42} {}\n", c.name, c.detail));
    }
    (out, all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_skipped_claim_counts_neither_way_and_a_failed_one_still_fails() {
        let pass = ClaimResult::check("holds", true, "1.0% (paper 1.0%)".into());
        let fail = ClaimResult::check("broken", false, "0.1% (paper 9.9%)".into());
        let skip = ClaimResult { skipped: true, ..fail.clone() };
        let (text, ok) = render_claims(&[pass.clone(), skip.clone()]);
        assert!(ok, "{text}");
        assert!(text.starts_with("[PASS] holds") && text.contains("\n[SKIP] broken"), "{text}");
        let (text, ok) = render_claims(&[pass, skip, fail]);
        assert!(!ok && text.contains("\n[FAIL] broken"), "{text}");
    }
}
