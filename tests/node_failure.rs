//! Ungraceful node death, end to end: lease-driven crash detection and
//! rescheduling, partition fencing without double-counting, a drain
//! racing a rolling update, and the fault-schedule explorer's determinism
//! and shrinking contracts.

use std::sync::Mutex;

use memwasm::harness::explorer::{
    explore, generate_schedule, run_schedule, shrink, ExplorePlan, FaultEvent, InvariantKnobs,
};
use memwasm::harness::{Config, Workload};
use memwasm::k8s_sim::{
    Cluster, DeploymentController, DeploymentSpec, NodeCondition, Policy, RolloutStep,
};
use memwasm::simkernel::{Duration, KernelConfig, KernelResult};

/// Serializes every test that mutates the process-wide `HARNESS_THREADS`
/// environment variable — tests in one binary share the environment.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// The kernels' running totals (page cache, per-process RSS, live
/// processes) still equal the walks they replaced, on every node.
fn assert_accounting(cluster: &Cluster) {
    for node in &cluster.nodes {
        assert_eq!(node.kernel.check_accounting(), Ok(()), "node {}", node.index);
    }
}

fn wamr_cluster(nodes: usize, workload: &Workload) -> KernelResult<Cluster> {
    let mut cluster = Cluster::bootstrap_nodes(
        nodes,
        KernelConfig::default(),
        memwasm::k8s_sim::NodeConfig::paper_extension(),
        Policy::Spread,
    )?;
    Config::WamrCrun.install(&mut cluster, workload)?;
    Ok(cluster)
}

/// Advance in lease-renewal steps, reconciling controller + kubelets each
/// step, until `total` simulated time has passed.
fn drive_for(cluster: &mut Cluster, ctrl: &mut DeploymentController, total: Duration) {
    let step = cluster.leases.renew_interval;
    let deadline = cluster.now() + total;
    while cluster.now() < deadline {
        cluster.advance(step);
        cluster.reconcile_controller(ctrl).unwrap();
        cluster.reconcile();
    }
}

#[test]
fn crash_one_of_three_nodes_reschedules_on_survivors() {
    let w = Workload::light();
    let mut cluster = wamr_cluster(3, &w).unwrap();
    let spec = DeploymentSpec::new("svc", Config::WamrCrun.image_ref(), "crun-wamr", 6);
    let mut ctrl = DeploymentController::new(spec);
    assert!(cluster.settle_controller(&mut ctrl, 100).unwrap());
    let victim = 1;
    assert!(ctrl.replicas.iter().any(|r| r.node == victim));

    cluster.crash_node(victim).unwrap();
    // The lease hasn't expired yet: condition still Ready, replicas still
    // counted — detection latency is real.
    assert_eq!(cluster.node(victim).condition, NodeCondition::Ready);

    // Wait out lease grace + eviction grace; the controller evicts the
    // lost replicas and re-homes them on the two survivors.
    let horizon = cluster.leases.grace + cluster.leases.pod_eviction_grace;
    drive_for(&mut cluster, &mut ctrl, horizon + Duration::from_secs(20));
    assert_eq!(cluster.node(victim).condition, NodeCondition::NotReady);
    assert!(cluster.settle_controller(&mut ctrl, 100).unwrap());
    assert_eq!(cluster.ready_replicas(&ctrl), 6);
    assert!(ctrl.replicas.iter().all(|r| r.node != victim), "{:?}", ctrl.replicas);
    assert_eq!(cluster.stats().ready, 6, "dead node's pods must not be counted");
    assert_accounting(&cluster);
}

#[test]
fn partition_heal_reconverges_without_double_counting() {
    let w = Workload::light();
    let mut cluster = wamr_cluster(3, &w).unwrap();
    let spec = DeploymentSpec::new("svc", Config::WamrCrun.image_ref(), "crun-wamr", 6);
    let mut ctrl = DeploymentController::new(spec);
    assert!(cluster.settle_controller(&mut ctrl, 100).unwrap());
    let victim = 2;
    let stale = cluster.node(victim).kubelet.pod_count();
    assert!(stale > 0);

    cluster.partition_node(victim).unwrap();
    let horizon = cluster.leases.grace + cluster.leases.pod_eviction_grace;
    drive_for(&mut cluster, &mut ctrl, horizon + Duration::from_secs(20));
    assert!(cluster.settle_controller(&mut ctrl, 100).unwrap());
    // Re-homed on the survivors — but the partitioned node's pods still
    // run: the cluster briefly double-counts (split-brain).
    assert_eq!(cluster.ready_replicas(&ctrl), 6);
    assert!(ctrl.replicas.iter().all(|r| r.node != victim));
    assert_eq!(cluster.node(victim).kubelet.pod_count(), stale);
    assert_eq!(cluster.stats().running, 6 + stale);

    // Heal: the first renewal fences the stale replicas before the node
    // turns Ready, so counts reconverge to exactly `replicas`.
    cluster.heal_node(victim).unwrap();
    let renew = cluster.leases.renew_interval;
    drive_for(&mut cluster, &mut ctrl, renew);
    assert!(cluster.node(victim).ready());
    assert_eq!(cluster.node(victim).kubelet.pod_count(), 0);
    assert_eq!(cluster.ready_replicas(&ctrl), 6);
    assert_eq!(cluster.stats().running, 6);
    assert_accounting(&cluster);
}

#[test]
fn drain_racing_rolling_update_converges_within_budget() {
    let w = Workload::light();
    let mut cluster = wamr_cluster(3, &w).unwrap();
    // A second image for the update (same workload, new tag).
    let image_v2 = "registry.local/microservice-wasm:v2";
    for node in 0..cluster.node_count() {
        cluster
            .pull_image_on(node, memwasm::workloads::wasm_microservice_image(image_v2, &w.wasm))
            .unwrap();
    }
    let spec = DeploymentSpec::new("svc", Config::WamrCrun.image_ref(), "crun-wamr", 6);
    let replicas = spec.replicas;
    let max_unavailable = spec.max_unavailable;
    let mut ctrl = DeploymentController::new(spec);
    assert!(cluster.settle_controller(&mut ctrl, 100).unwrap());

    // Begin the rollout, take one surge step, then drain a node mid-surge.
    cluster.begin_rolling_update(&mut ctrl, image_v2);
    let first = cluster.rollout_step(&mut ctrl).unwrap();
    assert!(first.created > 0 && !first.done);
    let victim = 1;
    cluster.drain_node(victim).unwrap();

    // Drive the rollout to convergence. The drain itself dips readiness
    // (that loss is the drain's, not the rollout's) — but once readiness
    // recovers into the `maxUnavailable` budget, no rollout step may ever
    // retire it back out of the budget.
    let mut done = false;
    let mut recovered = false;
    for _ in 0..200 {
        let step: RolloutStep = cluster.rollout_step(&mut ctrl).unwrap();
        let ready = cluster.ready_replicas(&ctrl);
        if recovered {
            assert!(
                ready + max_unavailable >= replicas,
                "rollout step broke the maxUnavailable budget: {ready} of {replicas} ready"
            );
        }
        recovered |= ready + max_unavailable >= replicas;
        if step.done {
            done = true;
            break;
        }
        let now = cluster.now();
        match cluster.next_deadline() {
            Some(d) if d > now => cluster.advance(d - now),
            _ => cluster.advance(Duration::from_secs(1)),
        }
        cluster.reconcile();
    }
    assert!(done, "rollout did not converge after the drain");
    assert!(ctrl.replicas.iter().all(|r| r.revision == 2));
    assert!(ctrl.replicas.iter().all(|r| r.node != victim), "{:?}", ctrl.replicas);
    assert_eq!(cluster.ready_replicas(&ctrl), replicas);
    assert_eq!(cluster.node(victim).kubelet.pod_count(), 0);
    for r in &ctrl.replicas {
        let e = cluster.node(r.node).kubelet.managed_pod(&r.pod).unwrap();
        assert_eq!(e.spec.image, image_v2);
    }
    assert_accounting(&cluster);
}

#[test]
fn explorer_is_byte_identical_across_worker_counts_and_runs() {
    let _env = ENV_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let w = Workload::light();
    let plan = ExplorePlan { schedules: 8, ..ExplorePlan::smoke(0xBADD_5EED) };

    let mut runs = Vec::new();
    for threads in ["1", "2", "8", "1"] {
        std::env::set_var("HARNESS_THREADS", threads);
        let report = explore(&plan, &w, InvariantKnobs::default()).unwrap();
        runs.push((threads, report.render().into_bytes()));
    }
    std::env::remove_var("HARNESS_THREADS");
    let (_, first) = &runs[0];
    for (threads, bytes) in &runs[1..] {
        assert_eq!(bytes, first, "explorer output differs at HARNESS_THREADS={threads}");
    }
}

#[test]
fn broken_invariant_is_caught_shrunk_and_reproducible() {
    let _env = ENV_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    std::env::set_var("HARNESS_THREADS", "2");
    let w = Workload::light();
    // The deliberately-broken invariant: forbid NotReady entirely. Any
    // schedule containing a crash or partition must now fail — and every
    // generated schedule starts with one, so the explorer must catch it.
    let knobs = InvariantKnobs { forbid_not_ready: true };
    let plan = ExplorePlan { schedules: 4, ..ExplorePlan::smoke(0xFA11_FA11) };
    let report = explore(&plan, &w, knobs).unwrap();
    std::env::remove_var("HARNESS_THREADS");
    assert_eq!(report.counterexamples.len(), plan.schedules, "every schedule must violate");

    for c in &report.counterexamples {
        // The minimal failing prefix is the first fault event alone.
        assert_eq!(c.shrunk.events.len(), 1, "{:?}", c.shrunk.events);
        assert!(matches!(c.shrunk.events[0], FaultEvent::Crash(_) | FaultEvent::Partition(_)));
        assert!(!c.shrunk.violations.is_empty());

        // Reproducible from the printed seed alone: regenerate the
        // schedule from the seed, re-run the shrunk prefix, same verdict.
        let regenerated = generate_schedule(c.full.seed, plan.nodes, plan.max_events);
        assert_eq!(regenerated, c.full.events);
        let replay = run_schedule(&plan, c.full.seed, &c.shrunk.events, &w, knobs).unwrap();
        assert_eq!(replay, c.shrunk);
        let reshrunk = shrink(&plan, c.full.seed, &regenerated, &w, knobs).unwrap().unwrap();
        assert_eq!(reshrunk, c.shrunk);
    }
}
