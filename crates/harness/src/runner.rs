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

use crate::config::{Config, Workload};

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
        c.install(&mut cluster, workload)?;
    }
    Ok(cluster)
}

/// Deploy one warm-up pod and tear it down, leaving caches warm.
pub fn warmup(cluster: &mut Cluster, config: Config) -> KernelResult<()> {
    let d = cluster.deploy("warmup", config.image_ref(), config.class_name(), 1)?;
    cluster.teardown(d)?;
    Ok(())
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
    let mut cluster = new_cluster(&[config], workload)?;
    warmup(&mut cluster, config)?;
    let d = cluster.deploy("bench", config.image_ref(), config.class_name(), density)?;
    Ok((cluster, d))
}

/// Measure one (config, density) grid cell from a **single** deployment.
///
/// Builds a fresh warmed cluster, deploys once, and runs the requested
/// observers against that one deployment. Memory observation (`free`
/// deltas + metrics-server scrape) only reads cluster state, and startup
/// observation is a pure DES replay of the recorded per-pod latency
/// programs, so the two observers cannot perturb each other: a `Both` cell
/// yields byte-identical samples to running [`measure_memory`] and
/// [`measure_startup`] separately, at half the deployments.
pub fn measure_cell(
    config: Config,
    density: usize,
    workload: &Workload,
    observe: Observe,
) -> KernelResult<CellSample> {
    if density == 0 {
        return Err(simkernel::KernelError::InvalidState("density must be at least 1".into()));
    }
    let mut cluster = new_cluster(&[config], workload)?;
    warmup(&mut cluster, config)?;
    let free_before = cluster.free().used_with_cache();
    let d = cluster.deploy("bench", config.image_ref(), config.class_name(), density)?;
    let memory = if observe.wants_memory() {
        let metrics_avg = cluster.average_working_set(&d)?;
        let free_after = cluster.free().used_with_cache();
        let free_per_pod = free_after.saturating_sub(free_before) / density as u64;
        Some(MemorySample { config, density, metrics_avg, free_per_pod })
    } else {
        None
    };
    let startup = if observe.wants_startup() {
        let outcome = cluster.measure_startup(&[&d]);
        Some(StartupSample { config, density, total: outcome.total() })
    } else {
        None
    };
    Ok(CellSample { config, density, memory, startup })
}

/// Measure both memory observers at one (config, density) point.
pub fn measure_memory(
    config: Config,
    density: usize,
    workload: &Workload,
) -> KernelResult<MemorySample> {
    let cell = measure_cell(config, density, workload, Observe::Memory)?;
    Ok(cell.memory.expect("Observe::Memory yields a memory sample"))
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
}
