//! Ungraceful node death, end to end: lease-driven crash detection and
//! rescheduling, partition fencing without double-counting, a drain
//! racing a rolling update, and the fault-schedule explorer's determinism
//! and shrinking contracts.

use memwasm::harness::chaos::{hung_liveness_probe, HUNG_IMAGE_REF};
use memwasm::harness::explorer::{
    explore, generate_schedule, recovery_times, run_schedule, shrink, ExplorePlan, FaultEvent,
    InvariantKnobs,
};
use memwasm::harness::{Config, Workload};
use memwasm::k8s_sim::{
    Cluster, DeployOpts, DeploymentController, DeploymentSpec, NodeCondition, Policy, ProbeSpec,
    RestartPolicy, RolloutStep, LEASE_GRACE, LEASE_RENEW_INTERVAL, POD_EVICTION_GRACE,
};
use memwasm::simkernel::{Duration, KernelConfig, KernelResult, SimTime};
use memwasm::workloads::hung_service_image;

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
    Config::WamrCrun.stack().install(&mut cluster, workload)?;
    Ok(cluster)
}

/// Pull the rolling-update target on every node: same workload, new tag.
fn pull_v2(cluster: &mut Cluster, w: &Workload) -> &'static str {
    let image_v2 = "registry.local/microservice-wasm:v2";
    for node in 0..cluster.node_count() {
        let image = memwasm::workloads::wasm_microservice_image(image_v2, &w.wasm);
        cluster.pull_image_on(node, image).unwrap();
    }
    image_v2
}

/// Drive controller rounds until `total` simulated time has passed.
fn drive_for(cluster: &mut Cluster, ctrl: &mut DeploymentController, total: Duration) {
    let deadline = cluster.now() + total;
    let rounds = cluster.run_rounds(usize::MAX, |c| {
        c.reconcile_controller(ctrl)?;
        c.reconcile();
        Ok(c.now() >= deadline)
    });
    rounds.unwrap();
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
    let horizon = LEASE_GRACE + POD_EVICTION_GRACE;
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
    let horizon = LEASE_GRACE + POD_EVICTION_GRACE;
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
    drive_for(&mut cluster, &mut ctrl, LEASE_RENEW_INTERVAL);
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
    let image_v2 = pull_v2(&mut cluster, &w);
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
    let mut recovered = false;
    let done = cluster.run_rounds(200, |c| {
        // After a step of the clock the kubelets reconcile before the
        // rollout decides.
        c.reconcile();
        let step: RolloutStep = c.rollout_step(&mut ctrl)?;
        let ready = c.ready_replicas(&ctrl);
        if recovered {
            assert!(
                ready + max_unavailable >= replicas,
                "rollout step broke the maxUnavailable budget: {ready} of {replicas} ready"
            );
        }
        recovered |= ready + max_unavailable >= replicas;
        Ok(step.done)
    });
    assert!(done.unwrap().is_some(), "rollout did not converge after the drain");
    assert!(ctrl.replicas.iter().all(|r| r.revision == 2));
    assert!(ctrl.replicas.iter().all(|r| r.node != victim), "{:?}", ctrl.replicas);
    assert_eq!(cluster.ready_replicas(&ctrl), replicas);
    assert_eq!(cluster.node(victim).kubelet.pod_count(), 0);
    for r in &ctrl.replicas {
        let e = cluster.node(r.node).kubelet.managed_pod(&r.pod).unwrap();
        assert_eq!(e.spec.image(), image_v2);
    }
    assert_accounting(&cluster);
}

#[test]
fn explorer_is_byte_identical_across_runs() {
    // The second run starts from the host memos the first one filled.
    let w = Workload::light();
    let plan = ExplorePlan { schedules: 8, ..ExplorePlan::smoke(0xBADD_5EED) };
    let run = || explore(&plan, &w, InvariantKnobs::default()).unwrap().render();
    let (first, second) = (run(), run());
    assert_eq!(second, first, "explorer output differs between runs");
}

#[test]
fn broken_invariant_is_caught_shrunk_and_reproducible() {
    let w = Workload::light();
    // The deliberately-broken invariant: forbid NotReady entirely. Any
    // schedule containing a crash or partition must now fail — and every
    // generated schedule starts with one, so the explorer must catch it.
    let knobs = InvariantKnobs { forbid_not_ready: true };
    let plan = ExplorePlan { schedules: 4, ..ExplorePlan::smoke(0xFA11_FA11) };
    let report = explore(&plan, &w, knobs).unwrap();
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

#[test]
fn golden_recovery_times_and_explorer_rounds() {
    // EXPERIMENTS.md's regression canary. These are statements about one
    // timeline and about how often the round loop stepped it: a change to
    // the order of reconcile, step and predicate moves them.
    let w = Workload::light();
    let secs = Duration::from_secs;
    let s = recovery_times(Config::WamrCrun, &w).unwrap();
    assert_eq!((s.detect, s.crash_reconverge, s.heal_reconverge), (secs(41), secs(71), secs(1)));

    let plan = ExplorePlan::smoke(0xC4A0_5EED);
    for i in 0..3 {
        let seed = plan.schedule_seed(i);
        let events = generate_schedule(seed, plan.nodes, plan.max_events);
        let o = run_schedule(&plan, seed, &events, &w, InvariantKnobs::default()).unwrap();
        assert_eq!(o.rounds, 90, "schedule {i} {events:?}");
    }

    // `settle_controller` stops between a round's reconcile and its step;
    // a rollout round after a step has the kubelets reconcile first.
    let mut cluster = wamr_cluster(3, &w).unwrap();
    let image_v2 = pull_v2(&mut cluster, &w);
    let mut spec = DeploymentSpec::new("svc", Config::WamrCrun.image_ref(), "crun-wamr", 6);
    spec.opts.readiness_probe = Some(ProbeSpec { initial_delay: secs(2), ..ProbeSpec::default() });
    let mut ctrl = DeploymentController::new(spec);
    assert!(cluster.settle_controller(&mut ctrl, 100).unwrap());
    let settled_at = cluster.now();
    cluster.begin_rolling_update(&mut ctrl, image_v2);
    let mut stepped = false;
    let steps = cluster.run_rounds(100, |c| {
        if stepped {
            c.reconcile();
        }
        stepped = true;
        Ok(c.rollout_step(&mut ctrl)?.done)
    });
    let rounds = steps.unwrap().expect("the rollout converges") + 1;
    let rolled_in = cluster.now().since(settled_at);
    assert_eq!((settled_at.since(SimTime::ZERO), rounds, rolled_in), (secs(2), 12, secs(17)));
}

#[test]
fn wedged_drain_on_one_node_moves_every_nodes_clock() {
    // Draining a wedged pod rides out its grace period on the simulated
    // clock. That wait is cluster time: every node's kernel and the
    // cluster must agree on it afterwards.
    let w = Workload::light();
    let mut cluster = wamr_cluster(2, &w).unwrap();
    let ready_after = (cluster.now() + Duration::from_secs(60)).as_nanos();
    for node in 0..cluster.node_count() {
        cluster.pull_image_on(node, hung_service_image(HUNG_IMAGE_REF, ready_after)).unwrap();
    }
    let opts = DeployOpts {
        restart: RestartPolicy::Always,
        liveness_probe: Some(hung_liveness_probe()),
        ..Default::default()
    };
    cluster.deploy_with("hung", HUNG_IMAGE_REF, "crun-wamr", 2, opts).unwrap();
    assert_eq!(cluster.node(1).kubelet.pod_count(), 1);
    let before = cluster.now();
    cluster.drain_node(1).unwrap();
    for node in &cluster.nodes {
        assert_eq!(node.kernel.now(), cluster.now(), "node {}", node.index);
    }
    assert_eq!(cluster.now().since(before), Duration::from_secs(30), "the default grace");
}
