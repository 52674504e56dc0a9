//! Fault-injection integration tests: the full stack under the chaos
//! harness's recovery contract.
//!
//! The hard invariant tested first: a *zero-fault* plan must leave every
//! observable of a deployment — memory observers, startup makespan,
//! per-pod traces and stdout — byte-identical to a cluster that never had
//! a plan armed at all. Everything the fault model adds must be pay-as-
//! you-go.

use memwasm::harness::chaos::{
    check_hung_outcome, check_outcome, hung_liveness_probe, run_config, ChaosPlan, Scenario,
    HUNG_IMAGE_REF,
};
use memwasm::harness::isolation::{
    self, attacker_liveness_probe, isolation_sweep, observe_victims, run_tenants,
    victim_readiness_probe, Attacker, IsolationPlan, ATTACKER_CPU_MAX, ATTACKER_IO_BUDGET,
    ATTACKER_MEMORY_LIMIT, ISOLATION_CORES,
};
use memwasm::harness::{new_cluster, warmup, Config, Workload};
use memwasm::k8s_sim::{Cluster, DeployOpts, NodeConfig, PodPhase, ProbeSpec, RestartPolicy};
use memwasm::simkernel::{Duration, FaultPlan, FaultSite, KernelConfig, MapKind, ProcessImage};
use memwasm::workloads::hung_service_image;

/// The kernels' running totals (page cache, per-process RSS, live
/// processes) still equal the walks they replaced, on every node.
fn assert_accounting(cluster: &Cluster) {
    for node in &cluster.nodes {
        assert_eq!(node.kernel.check_accounting(), Ok(()), "node {}", node.index);
    }
}

fn wamr_cluster(w: &Workload) -> Cluster {
    let mut cluster = new_cluster(&[Config::WamrCrun], w).unwrap();
    warmup(&mut cluster, Config::WamrCrun).unwrap();
    cluster
}

#[test]
fn zero_fault_plan_is_byte_identical_to_no_plan() {
    let w = Workload::light();
    let deploy = |armed: bool| {
        let mut cluster = wamr_cluster(&w);
        if armed {
            // A seeded plan with every rate at zero: armed but inert.
            cluster.kernel().set_fault_plan(FaultPlan::new(0xDEAD_BEEF));
        }
        let d = cluster
            .deploy("svc", Config::WamrCrun.image_ref(), Config::WamrCrun.class_name(), 3)
            .unwrap();
        let metrics = cluster.average_working_set(&d).unwrap();
        let startup = cluster.measure_startup(&[&d]).total();
        let free = cluster.free();
        let pods: Vec<_> =
            d.pods.iter().map(|p| (p.trace.clone(), p.stdout.clone(), p.phase)).collect();
        (metrics, startup, free.used, free.used_with_cache(), pods)
    };
    assert_eq!(deploy(false), deploy(true));
}

#[test]
fn injected_sync_fault_becomes_crashloop_then_recovers() {
    let w = Workload::light();
    let mut cluster = wamr_cluster(&w);
    // Exactly one fault: the next spawn (the pod's shim) fails.
    cluster.kernel().set_fault_plan(FaultPlan::new(3).fail_call(FaultSite::Spawn, 0));
    cluster
        .deploy_with(
            "svc",
            Config::WamrCrun.image_ref(),
            Config::WamrCrun.class_name(),
            1,
            DeployOpts { restart: RestartPolicy::Always, ..Default::default() },
        )
        .unwrap();
    let entry = cluster.kubelet().managed_pod("svc-0").unwrap();
    assert_eq!(entry.phase, PodPhase::CrashLoopBackOff);
    assert_eq!(entry.failures, 1);
    assert_eq!(cluster.stats().crash_loop, 1);

    // The backoff schedule: due 10s after the failure, not before.
    cluster.kernel().advance(Duration::from_secs(5));
    assert!(cluster.reconcile().quiet(), "restart must wait out the backoff");
    cluster.kernel().advance(Duration::from_secs(5));
    let report = cluster.reconcile();
    assert_eq!(report.restarted, vec!["svc-0".to_string()]);

    let entry = cluster.kubelet().managed_pod("svc-0").unwrap();
    assert_eq!(entry.phase, PodPhase::Running);
    assert_eq!((entry.restarts, entry.failures), (1, 0));
    assert_eq!(entry.stdout, b"microservice ready\n");
    assert_eq!(cluster.stats().running, 1);
    cluster.teardown_managed().unwrap();
    assert_accounting(&cluster);
}

#[test]
fn engine_instantiate_fault_recovers_on_the_runwasi_path() {
    let w = Workload::light();
    let mut cluster = new_cluster(&[Config::ShimWasmtime], &w).unwrap();
    warmup(&mut cluster, Config::ShimWasmtime).unwrap();
    cluster.kernel().set_fault_plan(FaultPlan::new(9).fail_call(FaultSite::EngineInstantiate, 0));
    cluster
        .deploy_with(
            "svc",
            Config::ShimWasmtime.image_ref(),
            Config::ShimWasmtime.class_name(),
            1,
            DeployOpts { restart: RestartPolicy::Always, ..Default::default() },
        )
        .unwrap();
    assert_eq!(cluster.kubelet().managed_pod("svc-0").unwrap().phase, PodPhase::CrashLoopBackOff);
    assert_eq!(cluster.kernel().faults_injected(FaultSite::EngineInstantiate), 1);
    cluster.kernel().advance(Duration::from_secs(10));
    let report = cluster.reconcile();
    assert_eq!(report.restarted.len(), 1);
    let entry = cluster.kubelet().managed_pod("svc-0").unwrap();
    assert_eq!(entry.phase, PodPhase::Running);
    assert_eq!(entry.stdout, b"microservice ready\n");
    cluster.teardown_managed().unwrap();
    assert_accounting(&cluster);
}

#[test]
fn oom_killed_pod_is_detected_and_restarted() {
    let w = Workload::light();
    let mut cluster = wamr_cluster(&w);
    cluster
        .deploy_with(
            "svc",
            Config::WamrCrun.image_ref(),
            Config::WamrCrun.class_name(),
            1,
            DeployOpts { restart: RestartPolicy::Always, ..Default::default() },
        )
        .unwrap();
    let kernel = cluster.kernel().clone();
    let pod_cgroup = cluster.containerd().sandbox("svc-0").unwrap().pod_cgroup;

    // Clamp the pod just above its current usage, then have a memory hog
    // in the pod blow through it: the kernel must OOM-kill the pod's
    // largest consumer (the container workload), not the hog.
    let ws = kernel.cgroup_working_set(pod_cgroup).unwrap();
    kernel.cgroup_set_limit(pod_cgroup, Some(ws + (1 << 20))).unwrap();
    let hog = ProcessImage::spawn(&kernel, "hog", pod_cgroup).build().unwrap().detach();
    let map = kernel.mmap(hog, 4 << 20, MapKind::AnonPrivate).unwrap();
    kernel.touch(hog, map, 4 << 20).unwrap();
    assert!(kernel.cgroup_oom_events(pod_cgroup).unwrap() >= 1);
    assert!(cluster.containerd().pod_oom_killed("svc-0"), "a pod process was OOM-killed");
    // The hog is ours, not the pod's: clean it up before recovery runs,
    // and lift the limit so the restart can fit.
    kernel.exit(hog, 0).unwrap();
    kernel.reap(hog).unwrap();

    let report = cluster.reconcile();
    assert_eq!(report.oom_killed, vec!["svc-0".to_string()]);
    let entry = cluster.kubelet().managed_pod("svc-0").unwrap();
    assert_eq!(entry.phase, PodPhase::OomKilled);
    assert_eq!(cluster.stats().oom_killed, 1);

    cluster.kernel().advance(Duration::from_secs(10));
    let report = cluster.reconcile();
    assert_eq!(report.restarted, vec!["svc-0".to_string()]);
    let entry = cluster.kubelet().managed_pod("svc-0").unwrap();
    assert_eq!(entry.phase, PodPhase::Running);
    assert_eq!(entry.restarts, 1);
    cluster.teardown_managed().unwrap();
    assert_eq!(cluster.stats().pods_managed, 0);
    assert_accounting(&cluster);
}

#[test]
fn cluster_stats_count_failed_pods_and_restarts() {
    let w = Workload::light();
    let mut cluster = wamr_cluster(&w);
    let always = DeployOpts { restart: RestartPolicy::Always, ..Default::default() };
    // An image nobody pulled: no restart can fix that, so the pod parks
    // as Failed instead of crash-looping.
    let class = Config::WamrCrun.class_name();
    cluster.deploy_with("ghost", "registry.local/missing:v1", class, 1, always).unwrap();
    assert_eq!(cluster.kubelet().managed_pod("ghost-0").unwrap().phase, PodPhase::Failed);
    let stats = cluster.stats();
    assert_eq!((stats.failed, stats.crash_loop, stats.restarts), (1, 0, 0));

    // One injected spawn fault, then the backoff restart: the restart is
    // counted once, on the pod that took it.
    cluster.kernel().set_fault_plan(FaultPlan::new(3).fail_call(FaultSite::Spawn, 0));
    cluster.deploy_with("svc", Config::WamrCrun.image_ref(), class, 1, always).unwrap();
    assert_eq!(cluster.stats().crash_loop, 1);
    cluster.kernel().advance(Duration::from_secs(10));
    assert_eq!(cluster.reconcile().restarted, ["svc-0"]);
    let stats = cluster.stats();
    assert_eq!((stats.running, stats.failed, stats.restarts), (1, 1, 1));
    cluster.teardown_managed().unwrap();
    let stats = cluster.stats();
    assert_eq!((stats.running, stats.failed, stats.restarts), (0, 0, 0), "counts live entries");
    assert_accounting(&cluster);
}

#[test]
fn remove_pod_is_idempotent_on_a_crashlooping_pod() {
    let w = Workload::light();
    let mut cluster = wamr_cluster(&w);
    cluster.kernel().set_fault_plan(FaultPlan::new(11).fail_call(FaultSite::Spawn, 0));
    cluster
        .deploy_with(
            "svc",
            Config::WamrCrun.image_ref(),
            Config::WamrCrun.class_name(),
            1,
            DeployOpts { restart: RestartPolicy::Always, ..Default::default() },
        )
        .unwrap();
    assert_eq!(cluster.stats().crash_loop, 1);
    // Deleting a pod that failed mid-sync (nothing materialized) succeeds,
    // and deleting it again is a no-op.
    cluster.remove_pod("svc-0").unwrap();
    cluster.remove_pod("svc-0").unwrap();
    assert!(cluster.kubelet().managed_pod("svc-0").is_none());
    assert_eq!(cluster.stats().crash_loop, 0);
    assert_accounting(&cluster);
}

#[test]
fn seeded_chaos_converges_and_leaks_nothing() {
    // The full recovery contract, end to end, on the paper's contribution
    // config: aggressive seeded faults, reconcile to steady state, then a
    // fault-free teardown back to baseline.
    let w = Workload::light();
    let plan = ChaosPlan::smoke(0x5EED);
    let outcome = run_config(Config::WamrCrun, &Scenario::faults(), &w, &plan).unwrap();
    assert!(outcome.injected.iter().sum::<u64>() > 0);
    check_outcome(&outcome, &plan).unwrap();
}

#[test]
fn hung_guest_is_detected_interrupted_restarted_and_converges() {
    // The watchdog recovery contract, end to end: every pod of the initial
    // deployment wedges on its epoch budget, the liveness probe detects it,
    // the kubelet interrupts the guest through the epoch clock and parks
    // the pod in CrashLoopBackOff, and the post-backoff restart comes up
    // Running and ready — with flaky probe RPCs injected on top.
    let w = Workload::light();
    let plan = ChaosPlan::smoke(0xD06);
    let outcome = run_config(Config::WamrCrun, &Scenario::hung_guest(), &w, &plan).unwrap();
    assert_eq!(outcome.wedged, plan.pods, "every first start must wedge");
    assert!(outcome.probe_kills as usize >= plan.pods);
    check_hung_outcome(&outcome, &plan).unwrap();
}

#[test]
fn spurious_probe_faults_below_threshold_do_not_kill() {
    // A single injected probe-RPC fault against a healthy pod: one failure
    // is below the liveness failureThreshold, and the next success resets
    // the counter — the pod must never be killed or restarted.
    let w = Workload::light();
    let mut cluster = wamr_cluster(&w);
    cluster.kernel().set_fault_plan(FaultPlan::new(21).fail_call(FaultSite::Probe, 0));
    let liveness =
        ProbeSpec { period: Duration::from_secs(2), failure_threshold: 3, ..ProbeSpec::default() };
    cluster
        .deploy_with(
            "svc",
            Config::WamrCrun.image_ref(),
            Config::WamrCrun.class_name(),
            1,
            DeployOpts {
                restart: RestartPolicy::Always,
                liveness_probe: Some(liveness),
                ..Default::default()
            },
        )
        .unwrap();
    for round in 0..4 {
        cluster.kernel().advance(Duration::from_secs(2));
        let report = cluster.reconcile();
        assert!(report.probe_killed.is_empty(), "round {round} must not kill");
        assert!(report.restarted.is_empty());
    }
    assert_eq!(cluster.kernel().faults_injected(FaultSite::Probe), 1, "the fault was drawn");
    let entry = cluster.kubelet().managed_pod("svc-0").unwrap();
    assert_eq!(entry.phase, PodPhase::Running);
    assert_eq!((entry.restarts, entry.failures), (0, 0));
    cluster.teardown_managed().unwrap();
    assert_accounting(&cluster);
}

#[test]
fn clean_pod_termination_advances_no_simulated_time() {
    // SIGTERM to a responsive pod is honored promptly: the grace period
    // never elapses on the DES clock, which is what keeps the paper's
    // figure paths (deploy → measure → teardown) byte-identical.
    let w = Workload::light();
    let mut cluster = wamr_cluster(&w);
    cluster
        .deploy_with(
            "svc",
            Config::WamrCrun.image_ref(),
            Config::WamrCrun.class_name(),
            1,
            DeployOpts { restart: RestartPolicy::Always, ..Default::default() },
        )
        .unwrap();
    let before = cluster.kernel().now();
    cluster.remove_pod("svc-0").unwrap();
    assert_eq!(cluster.kernel().now(), before, "no grace period for a clean pod");
    assert!(cluster.kubelet().managed_pod("svc-0").is_none());
    assert_accounting(&cluster);
}

#[test]
fn wedged_pod_termination_rides_out_the_grace_period_then_sigkills() {
    let w = Workload::light();
    let mut cluster = wamr_cluster(&w);
    let procs_before = cluster.kernel().live_procs();
    // A guest that will not be ready for a minute: its first start wedges
    // on the 4 s watchdog budget the liveness probe derives.
    let ready_after = cluster.kernel().now() + Duration::from_secs(60);
    cluster.pull_image(hung_service_image(HUNG_IMAGE_REF, ready_after.as_nanos())).unwrap();
    let grace = Duration::from_secs(3);
    cluster
        .deploy_with(
            "hung",
            HUNG_IMAGE_REF,
            Config::WamrCrun.class_name(),
            1,
            DeployOpts {
                restart: RestartPolicy::Always,
                liveness_probe: Some(hung_liveness_probe()),
                termination_grace: Some(grace),
                ..Default::default()
            },
        )
        .unwrap();
    assert!(cluster.containerd().pod_wedged("hung-0"), "the guest must wedge at deploy");

    let before = cluster.kernel().now();
    cluster.remove_pod("hung-0").unwrap();
    assert_eq!(
        cluster.kernel().now().since(before),
        grace,
        "a wedged guest rides out exactly the grace period"
    );
    assert!(cluster.kubelet().managed_pod("hung-0").is_none());
    assert_eq!(cluster.kernel().live_procs(), procs_before, "SIGKILL reaped everything");
    assert_accounting(&cluster);
}

#[test]
fn zero_attacker_isolation_run_matches_plain_supervised_deploy() {
    // The isolation baseline must be a pure observer: a cluster with the
    // sustained-pressure eviction rule armed (but never tripped) and the
    // cgroup controllers present (but never set) yields victim observables
    // byte-identical to a plain supervised deploy on a stock node of the
    // same shape — the zero-attacker path costs nothing.
    let w = Workload::light();
    let plan = IsolationPlan { victims: 3, max_rounds: 8 };
    let baseline = run_tenants(Config::WamrCrun, &w, &plan, None).unwrap();

    // The plain path: same kernel shape, *no* pressure-eviction rule, the
    // pre-existing deploy/reconcile loop, measured the same way.
    let kcfg = KernelConfig { cores: ISOLATION_CORES, ..KernelConfig::default() };
    let mut cluster = Cluster::bootstrap_with(kcfg, NodeConfig::paper_extension()).unwrap();
    Config::WamrCrun.stack().install(&mut cluster, &w).unwrap();
    warmup(&mut cluster, Config::WamrCrun).unwrap();
    cluster
        .deploy_with(
            "victim",
            Config::WamrCrun.image_ref(),
            Config::WamrCrun.class_name(),
            plan.victims,
            DeployOpts {
                restart: RestartPolicy::Always,
                readiness_probe: Some(victim_readiness_probe()),
                ..Default::default()
            },
        )
        .unwrap();
    let mut rounds = 0;
    while !cluster.kubelet().settled() && rounds < plan.max_rounds {
        cluster.step();
        cluster.reconcile();
        rounds += 1;
    }
    let plain = observe_victims(&cluster, "victim").unwrap();

    assert_eq!(baseline.victims, plain, "armed-but-idle controllers must not perturb victims");
    assert_eq!(baseline.rounds, rounds);
    assert_accounting(&cluster);
}

#[test]
fn pressure_eviction_is_a_distinct_cluster_stats_reason() {
    // Satellite contract: sustained cpu/io throttle pressure routes
    // through the kubelet's eviction with its own reason — the thrasher
    // lands in `pressure_evicted`, never in the memory-pressure `evicted`
    // bucket, while its victims keep running.
    let w = Workload::light();
    let mut cluster = isolation::isolation_cluster(Config::WamrCrun, &w).unwrap();
    cluster.kernel().set_io_model(Some(isolation::isolation_io_model()));
    let thrasher = Attacker::Thrasher;
    cluster.pull_image(thrasher.image()).unwrap();
    cluster
        .deploy_with(
            "attacker",
            thrasher.image_ref(),
            Config::WamrCrun.class_name(),
            1,
            DeployOpts {
                restart: RestartPolicy::Always,
                memory_limit: Some(ATTACKER_MEMORY_LIMIT),
                cpu_max: Some(ATTACKER_CPU_MAX),
                io_read_budget: Some(ATTACKER_IO_BUDGET),
                liveness_probe: Some(attacker_liveness_probe()),
                ..Default::default()
            },
        )
        .unwrap();
    cluster
        .deploy_with(
            "victim",
            Config::WamrCrun.image_ref(),
            Config::WamrCrun.class_name(),
            2,
            DeployOpts { restart: RestartPolicy::Always, ..Default::default() },
        )
        .unwrap();

    cluster.kernel().advance(Duration::from_secs(1));
    let report = cluster.reconcile();
    assert_eq!(report.pressure_evicted, vec!["attacker-0".to_string()]);
    assert!(report.evicted.is_empty());

    let entry = cluster.kubelet().managed_pod("attacker-0").unwrap();
    assert_eq!(entry.phase, PodPhase::Evicted);
    assert!(entry.pressure_evicted);
    assert!(entry.next_restart_at.is_none(), "pressure eviction is terminal");

    let stats = cluster.stats();
    assert_eq!(stats.pressure_evicted, 1, "distinct reason, own counter");
    assert_eq!(stats.evicted, 0, "memory-pressure bucket stays empty");
    assert_eq!(stats.running, 2, "victims keep running");
    cluster.teardown_managed().unwrap();
    assert_accounting(&cluster);
}

#[test]
fn isolation_score_table_is_byte_identical_across_runs() {
    // The chaos-sweep isolation table renders to the same bytes twice in
    // one process: the host memos the first run filled change nothing.
    let w = Workload::light();
    let plan = IsolationPlan { victims: 2, max_rounds: 4 };
    let configs = [Config::WamrCrun, Config::CrunWasmtime];
    let attackers = [Attacker::Thrasher, Attacker::Balloon];
    let run = || {
        let (table, scores) = isolation_sweep(&configs, &attackers, &w, &plan).unwrap();
        (table.to_csv().into_bytes(), table.render(), scores.len())
    };

    let (first, second) = (run(), run());
    assert_eq!(first.2, configs.len() * attackers.len());
    assert_eq!(second.0, first.0, "isolation CSV differs between runs");
    assert_eq!(second.1, first.1, "isolation render differs between runs");
    assert_eq!(second.2, first.2);
}

#[test]
fn balloon_attacker_is_oom_contained_with_victims_unharmed() {
    let w = Workload::light();
    let plan = IsolationPlan { victims: 2, max_rounds: 6 };
    let base = run_tenants(Config::WamrCrun, &w, &plan, None).unwrap();
    let hit = run_tenants(Config::WamrCrun, &w, &plan, Some(Attacker::Balloon)).unwrap();
    let fate = hit.fate.unwrap();
    // The ratchet dies against memory.max every time it is retried: the
    // pod never reaches Running and sits in CrashLoopBackOff.
    assert!(fate.failures > 0, "balloon must keep failing on memory.max: {fate:?}");
    assert_eq!(fate.phase, Some(PodPhase::CrashLoopBackOff));
    assert!(fate.contained());
    let s = isolation::score_runs(&base, hit);
    isolation::check_isolation(&s, &plan).unwrap();
}
