//! # mwc-bench — benchmark support for the paper's tables and figures
//!
//! The benches live in `benches/` and run on the homegrown [`timing`]
//! harness (the workspace is offline; Criterion is not resolvable):
//!
//! * `ablations` — the DESIGN.md ablations: dlopen page sharing on/off,
//!   Wasmtime's code cache on/off, in-place vs. lowered execution, and
//!   OCI-vs-runwasi sandbox accounting.
//!
//! Timing the figures and the Wasm substrate is the job of the repository
//! benchmark (`benchmark/`, workloads `fig_sweep` and the `wasm.*` probes).
//! This library provides the shared workload helpers so the benches stay
//! declarative.

use harness::{Config, Workload};
use workloads::MicroserviceConfig;

pub mod timing {
    //! Minimal wall-clock benchmark loop: one warm-up run, then
    //! `MWC_BENCH_ITERS` timed iterations (default 5), reporting
    //! mean/min/max. Good enough to spot order-of-magnitude regressions in
    //! the simulator without an external statistics crate.

    use std::time::{Duration, Instant};

    /// Timed iterations per bench, from `MWC_BENCH_ITERS` (default 5).
    pub fn iters() -> u32 {
        std::env::var("MWC_BENCH_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(5)
    }

    /// One bench's timing summary.
    #[derive(Debug, Clone)]
    pub struct Report {
        pub name: String,
        pub iters: u32,
        pub mean: Duration,
        pub min: Duration,
        pub max: Duration,
    }

    impl Report {
        pub fn render(&self) -> String {
            format!(
                "{:<36} {:>12?} mean  {:>12?} min  {:>12?} max  ({} iters)",
                self.name, self.mean, self.min, self.max, self.iters
            )
        }
    }

    /// Time `f`: one untimed warm-up call, then [`iters`] timed calls.
    /// Prints the summary line and returns it.
    pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> Report {
        let iters = iters();
        std::hint::black_box(f());
        let mut total = Duration::ZERO;
        let mut min = Duration::MAX;
        let mut max = Duration::ZERO;
        for _ in 0..iters {
            let t0 = Instant::now();
            std::hint::black_box(f());
            let dt = t0.elapsed();
            total += dt;
            min = min.min(dt);
            max = max.max(dt);
        }
        let report = Report { name: name.to_string(), iters, mean: total / iters, min, max };
        println!("{}", report.render());
        report
    }
}

/// Bench-sized density: large enough to exercise sharing and contention,
/// small enough for Criterion's repeated sampling.
pub const BENCH_DENSITY: usize = 6;

/// A workload with a small guest loop: bench iterations measure the
/// simulator, not the guest's startup slice.
pub fn bench_workload() -> Workload {
    Workload {
        wasm: MicroserviceConfig { loop_iterations: 50, ..MicroserviceConfig::default() },
        ..Default::default()
    }
}

/// The configurations each memory figure compares.
pub fn figure_configs(figure: u8) -> Vec<Config> {
    match figure {
        3 | 4 => {
            vec![Config::WamrCrun, Config::CrunWasmtime, Config::CrunWasmer, Config::CrunWasmEdge]
        }
        5 => vec![Config::WamrCrun, Config::ShimWasmtime, Config::ShimWasmer, Config::ShimWasmEdge],
        6 | 7 => {
            vec![Config::WamrCrun, Config::ShimWasmtime, Config::CrunPython, Config::RuncPython]
        }
        _ => Config::ALL.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_configs_cover_ours() {
        for fig in [3u8, 4, 5, 6, 7, 8, 9, 10] {
            assert!(figure_configs(fig).contains(&Config::WamrCrun), "fig {fig}");
        }
    }
}
