//! Cluster-scale experiments: pods-per-cluster density sweeps past 10k,
//! scheduler-policy ablation, and the node-drain convergence scenario.
//!
//! These are the multi-node counterparts of the paper's single-node
//! density experiments: an N-node cluster (each node the paper's 20-core
//! testbed shape with the §III-C max-pods extension) is filled through
//! the scheduler, and the same two observers report memory while the DES
//! reports startup. All placement goes through [`k8s_sim::Scheduler`]:
//! `Kubelet::manage_pod` and `sync_pod` are `pub(crate)` in `k8s-sim`, so
//! harness code cannot place a pod past it.

use k8s_sim::{Cluster, Policy};
use simkernel::{Duration, KernelConfig, KernelResult};

use crate::config::{Config, Workload};
use crate::explorer::Settled;
use crate::report::{mb, Table};

/// One multi-node density sweep of the contribution config under spread
/// placement: cluster size plus the pod counts to sweep.
#[derive(Debug, Clone)]
pub struct ScalePlan {
    pub nodes: usize,
    pub densities: Vec<usize>,
}

/// The config every density sweep deploys.
const SWEEP_CONFIG: Config = Config::WamrCrun;
/// The placement policy every density sweep schedules with.
const SWEEP_POLICY: Policy = Policy::Spread;

impl ScalePlan {
    /// The EXPERIMENTS.md sweep: 25 nodes (12.5k pod capacity), swept to
    /// 10k pods.
    pub fn tenk() -> ScalePlan {
        ScalePlan { nodes: 25, densities: vec![1_000, 2_500, 5_000, 10_000] }
    }

    /// A CI-sized sweep (3 nodes, tens of pods).
    pub fn smoke() -> ScalePlan {
        ScalePlan { nodes: 3, densities: vec![12, 30] }
    }
}

/// One multi-node observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleSample {
    pub pods: usize,
    pub nodes: usize,
    /// Average metrics-server working set per pod, bytes.
    pub metrics_avg: u64,
    /// Fewest pods any node carries after placement.
    pub min_pods_node: usize,
    /// Most pods any node carries after placement.
    pub max_pods_node: usize,
    /// DES makespan: deployment start to last workload executing.
    pub startup: Duration,
    /// State-transition events the DES processed.
    pub des_events: u64,
}

/// Boot an N-node cluster with `config` installed on every node.
pub fn new_scaled_cluster(
    config: Config,
    nodes: usize,
    policy: Policy,
    workload: &Workload,
) -> KernelResult<Cluster> {
    let mut cluster = Cluster::bootstrap_nodes(
        nodes,
        KernelConfig::default(),
        k8s_sim::NodeConfig::paper_extension(),
        policy,
    )?;
    config.stack().install(&mut cluster, workload)?;
    Ok(cluster)
}

/// Warm every node's caches: one warm-up pod per node (spread placement
/// guarantees exactly one each on an empty, uniform cluster), then tear
/// them down — the multi-node analogue of [`crate::runner::warmup`].
pub fn warmup_nodes(cluster: &mut Cluster, config: Config) -> KernelResult<()> {
    let saved = std::mem::replace(&mut cluster.scheduler.policy, Policy::Spread);
    let warmed = cluster
        .deploy("warmup", config.image_ref(), config.class_name(), cluster.node_count())
        .and_then(|d| cluster.teardown(d));
    // On the error path too: the caller may handle it and go on placing.
    cluster.scheduler.policy = saved;
    warmed
}

/// Measure one (nodes, pods) point on a fresh warmed cluster.
pub fn measure_scale(
    config: Config,
    nodes: usize,
    pods: usize,
    policy: Policy,
    workload: &Workload,
) -> KernelResult<ScaleSample> {
    let mut cluster = new_scaled_cluster(config, nodes, policy, workload)?;
    warmup_nodes(&mut cluster, config)?;
    let d = cluster.deploy("bench", config.image_ref(), config.class_name(), pods)?;
    let metrics_avg = cluster.average_working_set(&d)?;
    let per_node: Vec<usize> =
        (0..nodes).map(|i| d.pods.iter().filter(|p| p.node == i).count()).collect();
    let outcome = cluster.measure_startup(&[&d]);
    Ok(ScaleSample {
        pods,
        nodes,
        metrics_avg,
        min_pods_node: per_node.iter().copied().min().unwrap_or(0),
        max_pods_node: per_node.iter().copied().max().unwrap_or(0),
        startup: outcome.total(),
        des_events: outcome.events,
    })
}

/// The pods-per-cluster density sweep: one row per density, each measured
/// on a fresh cluster, in sweep order.
pub fn density_sweep(
    plan: &ScalePlan,
    workload: &Workload,
) -> KernelResult<(Table, Vec<ScaleSample>)> {
    let samples = plan
        .densities
        .iter()
        .map(|&pods| measure_scale(SWEEP_CONFIG, plan.nodes, pods, SWEEP_POLICY, workload))
        .collect::<KernelResult<Vec<_>>>()?;
    let mut table = Table::new(
        format!(
            "Cluster density sweep: {} on {} nodes ({} placement)",
            SWEEP_CONFIG.label(),
            plan.nodes,
            SWEEP_POLICY.label()
        ),
        vec![
            "MB/ctr".to_string(),
            "min pods/node".to_string(),
            "max pods/node".to_string(),
            "startup [s]".to_string(),
            "DES kevents".to_string(),
        ],
        "",
    );
    for s in &samples {
        table.row(
            format!("{} pods", s.pods),
            vec![
                mb(s.metrics_avg),
                s.min_pods_node as f64,
                s.max_pods_node as f64,
                s.startup.as_secs_f64(),
                s.des_events as f64 / 1e3,
            ],
            false,
        );
    }
    Ok((table, samples))
}

/// Scheduler-policy ablation: the same (nodes, pods) point under every
/// [`Policy`], one row per policy (measured like [`density_sweep`]).
pub fn policy_ablation(
    config: Config,
    nodes: usize,
    pods: usize,
    workload: &Workload,
) -> KernelResult<Table> {
    let samples = Policy::ALL
        .iter()
        .map(|&policy| measure_scale(config, nodes, pods, policy, workload))
        .collect::<KernelResult<Vec<_>>>()?;
    let mut table = Table::new(
        format!("Scheduler-policy ablation: {} pods on {} nodes, {}", pods, nodes, config.label()),
        vec![
            "MB/ctr".to_string(),
            "min pods/node".to_string(),
            "max pods/node".to_string(),
            "startup [s]".to_string(),
        ],
        "",
    );
    for (policy, s) in Policy::ALL.iter().zip(&samples) {
        table.row(
            policy.label(),
            vec![
                mb(s.metrics_avg),
                s.min_pods_node as f64,
                s.max_pods_node as f64,
                s.startup.as_secs_f64(),
            ],
            false,
        );
    }
    Ok(table)
}

/// Outcome of the node-drain chaos scenario.
#[derive(Debug, Clone)]
pub struct DrainOutcome {
    /// Pods evicted from the drained node.
    pub drained: Vec<String>,
    /// Did the controller converge after the drain?
    pub converged: bool,
    /// Replicas Running and ready after convergence.
    pub ready: usize,
    /// Pods left on the drained node (must be 0).
    pub pods_on_drained: usize,
    /// Replica placements after convergence (node index per replica).
    pub placements: Vec<usize>,
}

/// The node-drain convergence scenario: settle a controller-managed
/// deployment across `nodes` nodes, drain one node, and drive the
/// controller until every replica is Running and ready on the survivors.
pub fn run_drain(
    config: Config,
    nodes: usize,
    replicas: usize,
    workload: &Workload,
) -> KernelResult<DrainOutcome> {
    let Settled { mut cluster, mut ctrl, settled } =
        Settled::boot(config, nodes, replicas, workload)?;
    if !settled {
        return Ok(DrainOutcome {
            drained: Vec::new(),
            converged: false,
            ready: cluster.ready_replicas(&ctrl),
            pods_on_drained: 0,
            placements: ctrl.replicas.iter().map(|r| r.node).collect(),
        });
    }
    let victim_node = nodes / 2;
    let drained = cluster.drain_node(victim_node)?;
    let converged = cluster.settle_controller(&mut ctrl, 200)?;
    Ok(DrainOutcome {
        drained,
        converged,
        ready: cluster.ready_replicas(&ctrl),
        pods_on_drained: cluster.node(victim_node).kubelet.pod_count(),
        placements: ctrl.replicas.iter().map(|r| r.node).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_shape_and_balance() {
        let w = Workload::light();
        let (table, samples) = density_sweep(&ScalePlan::smoke(), &w).unwrap();
        assert_eq!(table.rows.len(), 2);
        for s in &samples {
            // Spread keeps the cluster balanced within one pod.
            assert!(s.max_pods_node - s.min_pods_node <= 1, "{s:?}");
            assert!(s.metrics_avg > 1 << 20, "{s:?}");
            assert!(s.des_events > 0, "{s:?}");
        }
        assert!(samples[1].startup >= samples[0].startup);
    }

    #[test]
    fn ablation_separates_policies() {
        let w = Workload::light();
        let t = policy_ablation(Config::WamrCrun, 3, 9, &w).unwrap();
        assert_eq!(t.rows.len(), Policy::ALL.len());
        // BinPack stacks one node; Spread balances.
        assert_eq!(t.value("binpack", 2), Some(9.0));
        assert_eq!(t.value("spread", 1), Some(3.0));
        assert_eq!(t.value("spread", 2), Some(3.0));
    }

    #[test]
    fn a_failed_warmup_leaves_the_scheduler_policy_as_it_found_it() {
        let w = Workload::light();
        let mut cluster = new_scaled_cluster(Config::WamrCrun, 2, Policy::BinPack, &w).unwrap();
        // The warm-up's first pod fails its first spawn; `deploy` is strict.
        cluster
            .node(0)
            .kernel
            .set_fault_plan(simkernel::FaultPlan::new(1).fail_call(simkernel::FaultSite::Spawn, 0));
        let err = warmup_nodes(&mut cluster, Config::WamrCrun).unwrap_err();
        assert!(matches!(err, simkernel::KernelError::FaultInjected(_)), "{err:?}");
        assert_eq!(cluster.scheduler.policy, Policy::BinPack);
        // And on the path that always worked.
        warmup_nodes(&mut cluster, Config::WamrCrun).unwrap();
        assert_eq!(cluster.scheduler.policy, Policy::BinPack);
    }

    #[test]
    fn drain_converges_on_survivors() {
        let w = Workload::light();
        let o = run_drain(Config::WamrCrun, 3, 6, &w).unwrap();
        assert!(o.converged, "{o:?}");
        assert!(!o.drained.is_empty());
        assert_eq!(o.ready, 6);
        assert_eq!(o.pods_on_drained, 0);
        assert!(o.placements.iter().all(|&n| n != 1), "{:?}", o.placements);
    }
}
