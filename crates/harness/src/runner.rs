//! Experiment execution: deploy → observe → tear down.
//!
//! Methodology follows §IV-A of the paper:
//!
//! * memory per container is the average over the 10–400 concurrently
//!   deployed containers, via both observers (metrics-server working set;
//!   `free` system deltas divided by container count);
//! * startup time is the span from beginning the deployment to the last
//!   container's workload reaching its ready state (DES makespan);
//! * every measurement runs on a freshly booted cluster, with one warm-up
//!   pod deployed and removed first so that shared artifacts (binaries,
//!   libraries, module layers, code caches) are in steady page-cache state
//!   — matching a cluster that has been running workloads, and making the
//!   per-container deviation negligible as the paper reports.

use k8s_sim::{Cluster, Deployment, ReconcileReport};
use simkernel::{Duration, KernelResult};

use crate::config::{Config, Stack, Workload};

/// One memory observation.
#[derive(Debug, Clone, Copy)]
pub struct MemorySample {
    pub config: Config,
    pub density: usize,
    /// Average metrics-server working set per pod, bytes.
    pub metrics_avg: u64,
    /// System-level (`free`) growth per pod, bytes.
    pub free_per_pod: u64,
}

/// One startup observation.
#[derive(Debug, Clone, Copy)]
pub struct StartupSample {
    pub config: Config,
    pub density: usize,
    /// Time to start all containers' workload executions.
    pub total: Duration,
}

/// Which observers to run at a grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Observe {
    Memory,
    Startup,
    /// Both observers from the *same* deployment: memory observation reads
    /// cluster state and startup is a pure DES replay of the recorded
    /// latency programs, so neither perturbs the other.
    Both,
}

impl Observe {
    pub(crate) fn wants_memory(self) -> bool {
        matches!(self, Observe::Memory | Observe::Both)
    }

    pub(crate) fn wants_startup(self) -> bool {
        matches!(self, Observe::Startup | Observe::Both)
    }
}

/// The observations from one grid cell's deployment.
#[derive(Debug, Clone, Copy)]
pub struct CellSample {
    pub config: Config,
    pub density: usize,
    /// Present iff the cell's [`Observe`] wanted memory.
    pub memory: Option<MemorySample>,
    /// Present iff the cell's [`Observe`] wanted startup.
    pub startup: Option<StartupSample>,
}

/// Boot a cluster with the given configurations installed.
pub fn new_cluster(configs: &[Config], workload: &Workload) -> KernelResult<Cluster> {
    let mut cluster = Cluster::bootstrap()?;
    for c in configs {
        c.stack().install(&mut cluster, workload)?;
    }
    Ok(cluster)
}

/// Deploy one warm-up pod and tear it down, leaving caches warm.
pub fn warmup(cluster: &mut Cluster, config: Config) -> KernelResult<()> {
    warm(cluster, &config.stack())
}

fn warm(cluster: &mut Cluster, stack: &Stack) -> KernelResult<()> {
    let d = cluster.deploy("warmup", stack.image_ref(), stack.class, 1)?;
    cluster.teardown(d)
}

/// Drive node 0's kubelet until it settles or `max_rounds` rounds have
/// run, on [`Cluster::run_rounds`]: a round steps the clock, then
/// reconciles. `observe` sees the cluster before the first round and after
/// each reconcile, with that pass's report (an empty one before the first
/// round). Returns the rounds driven; the clock is not stepped past the
/// last of them.
pub(crate) fn supervise(
    cluster: &mut Cluster,
    max_rounds: usize,
    mut observe: impl FnMut(&Cluster, &ReconcileReport),
) -> KernelResult<usize> {
    let mut passes = 0;
    let rounds = cluster.run_rounds(usize::MAX, |c| {
        let report = if passes > 0 { c.reconcile() } else { ReconcileReport::default() };
        observe(c, &report);
        passes += 1;
        Ok(c.kubelet().settled() || passes > max_rounds)
    })?;
    Ok(rounds.expect("the pass ends the loop at the round bound"))
}

/// Deploy `density` pods of `config` on a fresh, warmed cluster and return
/// the deployment together with its cluster.
pub fn deploy_density(
    config: Config,
    density: usize,
    workload: &Workload,
) -> KernelResult<(Cluster, Deployment)> {
    let (cluster, _, d) = deploy_stack(&config.stack(), density, workload)?;
    Ok((cluster, d))
}

/// Boot a cluster with `stack` installed, warm it with one pod, and deploy
/// `density` pods; also the `free` reading just before the deployment.
fn deploy_stack(
    stack: &Stack,
    density: usize,
    workload: &Workload,
) -> KernelResult<(Cluster, u64, Deployment)> {
    let mut cluster = Cluster::bootstrap()?;
    stack.install(&mut cluster, workload)?;
    warm(&mut cluster, stack)?;
    let free_before = cluster.free().used_with_cache();
    let d = cluster.deploy("bench", stack.image_ref(), stack.class, density)?;
    Ok((cluster, free_before, d))
}

/// Measure one (config, density) grid cell: [`measure_stack`] on
/// [`Config::stack`], tagged with the config.
pub fn measure_cell(
    config: Config,
    density: usize,
    workload: &Workload,
    observe: Observe,
) -> KernelResult<CellSample> {
    let (memory, startup) = measure_stack(&config.stack(), density, workload, observe)?;
    let memory = memory.map(|(metrics_avg, free_per_pod)| MemorySample {
        config,
        density,
        metrics_avg,
        free_per_pod,
    });
    let startup = startup.map(|total| StartupSample { config, density, total });
    Ok(CellSample { config, density, memory, startup })
}

/// What [`measure_stack`] reads, each part iff observed: the memory
/// observers (metrics-server working set, `free` growth; bytes per pod)
/// and the startup makespan.
pub type Reading = (Option<(u64, u64)>, Option<Duration>);

/// Deploy `density` pods of `stack` **once**, on a fresh warmed cluster,
/// and run the requested observers against that deployment. Memory
/// observation only reads cluster state, and startup observation is a pure
/// DES replay of the recorded per-pod latency programs, so the two cannot
/// perturb each other: a `Both` cell reads what two separate cells would.
pub fn measure_stack(
    stack: &Stack,
    density: usize,
    workload: &Workload,
    observe: Observe,
) -> KernelResult<Reading> {
    if density == 0 {
        return Err(simkernel::KernelError::InvalidState("density must be at least 1".into()));
    }
    let (cluster, free_before, d) = deploy_stack(stack, density, workload)?;
    let memory = if observe.wants_memory() {
        let metrics_avg = cluster.average_working_set(&d)?;
        let free_after = cluster.free().used_with_cache();
        Some((metrics_avg, free_after.saturating_sub(free_before) / density as u64))
    } else {
        None
    };
    let startup = observe.wants_startup().then(|| cluster.measure_startup(&[&d]).total());
    Ok((memory, startup))
}

/// Measure both memory observers at one (config, density) point.
pub fn measure_memory(
    config: Config,
    density: usize,
    workload: &Workload,
) -> KernelResult<MemorySample> {
    let (memory, _) = measure_stack(&config.stack(), density, workload, Observe::Memory)?;
    let (metrics_avg, free_per_pod) = memory.expect("Observe::Memory yields a memory reading");
    Ok(MemorySample { config, density, metrics_avg, free_per_pod })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Measure the startup makespan at one (config, density) point.
    fn measure_startup(
        config: Config,
        density: usize,
        workload: &Workload,
    ) -> KernelResult<StartupSample> {
        let cell = measure_cell(config, density, workload, Observe::Startup)?;
        Ok(cell.startup.expect("Observe::Startup yields a startup sample"))
    }

    #[test]
    fn memory_sample_shape() {
        let w = Workload::light();
        let s = measure_memory(Config::WamrCrun, 5, &w).unwrap();
        assert!(s.metrics_avg > 1 << 20, "metrics {}", s.metrics_avg);
        assert!(
            s.free_per_pod > s.metrics_avg,
            "free {} should exceed metrics {}",
            s.free_per_pod,
            s.metrics_avg
        );
    }

    #[test]
    fn startup_sample_shape() {
        let w = Workload::light();
        let s = measure_startup(Config::WamrCrun, 5, &w).unwrap();
        let secs = s.total.as_secs_f64();
        assert!(secs > 0.5 && secs < 30.0, "{secs}");
    }

    #[test]
    fn densities_scale_free_but_not_metrics_much() {
        let w = Workload::light();
        let a = measure_memory(Config::WamrCrun, 4, &w).unwrap();
        let b = measure_memory(Config::WamrCrun, 16, &w).unwrap();
        // Per-container metrics are roughly density-independent (§IV-B).
        let ratio = a.metrics_avg as f64 / b.metrics_avg as f64;
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn density_zero_is_rejected() {
        let w = Workload::light();
        assert!(measure_memory(Config::WamrCrun, 0, &w).is_err());
        assert!(measure_startup(Config::WamrCrun, 0, &w).is_err());
        assert!(measure_cell(Config::WamrCrun, 0, &w, Observe::Both).is_err());
    }

    #[test]
    fn both_observers_match_separate_runs() {
        let w = Workload::light();
        let cell = measure_cell(Config::WamrCrun, 5, &w, Observe::Both).unwrap();
        let m = measure_memory(Config::WamrCrun, 5, &w).unwrap();
        let s = measure_startup(Config::WamrCrun, 5, &w).unwrap();
        let cm = cell.memory.unwrap();
        assert_eq!((cm.metrics_avg, cm.free_per_pod), (m.metrics_avg, m.free_per_pod));
        assert_eq!(cell.startup.unwrap().total, s.total);
    }

    #[test]
    fn observe_gating() {
        let w = Workload::light();
        let c = measure_cell(Config::WamrCrun, 2, &w, Observe::Memory).unwrap();
        assert!(c.memory.is_some() && c.startup.is_none());
        let c = measure_cell(Config::WamrCrun, 2, &w, Observe::Startup).unwrap();
        assert!(c.memory.is_none() && c.startup.is_some());
    }

    /// The stacks `studies` derives from the table, measured through the
    /// one path: each moves the readings the way its study reports.
    #[test]
    fn derived_stacks_move_their_readings() {
        use crate::config::Guest;
        use container_runtimes::profile::YOUKI;
        use engines::profile::{WAMR_AOT, WASMTIME};
        use wamr_crun::WamrCrunConfig;

        let w = Workload::light();
        let read = |stack: &Stack| {
            let (memory, startup) = measure_stack(stack, 4, &w, Observe::Both).unwrap();
            (memory.unwrap(), startup.unwrap())
        };
        let wamr = Config::WamrCrun.stack();
        let wasmtime = Config::CrunWasmtime.stack();
        let ((wamr_metrics, wamr_free), _) = read(&wamr);

        let ((metrics, free), _) = read(&Stack { runtime: YOUKI, ..wamr });
        assert!(metrics > wamr_metrics && free > wamr_free, "WAMR in youki vs in crun");

        let ((aot, _), _) = read(&Stack { guest: Guest::Engine(WAMR_AOT), ..wasmtime });
        let ((wasmtime_metrics, _), wasmtime_startup) = read(&wasmtime);
        assert!(wamr_metrics < aot && aot < wasmtime_metrics, "crun-wamr-aot between the two");

        let unshared = WamrCrunConfig {
            dynamic_lib_loading: false,
            share_modules: false,
            ..Default::default()
        };
        let ((metrics, _), _) = read(&Stack { guest: Guest::Wamr(unshared), ..wamr });
        assert!(metrics > wamr_metrics, "WAMR without sharing vs shared");

        // One field of a copied profile, no `static` written.
        let mut slower = WASMTIME;
        slower.exec_ns_per_instr = WASMTIME.exec_ns_per_instr * 5 / 4;
        let (memory, startup) = read(&Stack { guest: Guest::Engine(slower), ..wasmtime });
        assert!(startup > wasmtime_startup, "{startup} vs {wasmtime_startup}");
        assert_eq!(memory, read(&wasmtime).0, "execution speed costs no memory");
    }
}
