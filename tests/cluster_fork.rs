//! `Cluster::fork`: a deep copy standing on a clock of its own. A fork is
//! what booting and driving a second cluster the same way would have
//! built, and it shares nothing mutable with the cluster it was taken from.

use memwasm::harness::chaos::{hung_liveness_probe, HUNG_IMAGE_REF};
use memwasm::harness::cluster_scale::{new_scaled_cluster, warmup_nodes};
use memwasm::harness::{Config, Workload};
use memwasm::k8s_sim::{
    Cluster, ClusterStats, DeployOpts, DeploymentController, DeploymentSpec, Policy, RestartPolicy,
};
use memwasm::simkernel::{Duration, FreeReport, SimTime};
use memwasm::workloads::hung_service_image;

const NODES: usize = 3;

/// Boot → warm → settle, as the fault explorer does it.
fn settled(config: Config, w: &Workload) -> (Cluster, DeploymentController) {
    let mut cluster = new_scaled_cluster(config, NODES, Policy::Spread, w).unwrap();
    warmup_nodes(&mut cluster, config).unwrap();
    let spec = DeploymentSpec::new("svc", config.image_ref(), config.class_name(), 6);
    let mut ctrl = DeploymentController::new(spec);
    assert!(cluster.settle_controller(&mut ctrl, 100).unwrap());
    (cluster, ctrl)
}

/// The explorer's bounded settle between two events.
fn rounds(cluster: &mut Cluster, ctrl: &mut DeploymentController, n: usize) {
    let pass = |c: &mut Cluster| {
        c.reconcile_controller(ctrl)?;
        c.reconcile();
        Ok(false)
    };
    cluster.run_rounds(n, pass).unwrap();
}

/// Crash 1, partition 2, restart 1, heal 2, then reconverge.
fn script(cluster: &mut Cluster, ctrl: &mut DeploymentController, config: Config, w: &Workload) {
    cluster.crash_node(1).unwrap();
    rounds(cluster, ctrl, 10);
    cluster.partition_node(2).unwrap();
    rounds(cluster, ctrl, 10);
    cluster.restart_node(1).unwrap();
    config.stack().install_on(cluster, 1, w).unwrap();
    rounds(cluster, ctrl, 10);
    cluster.heal_node(2).unwrap();
    rounds(cluster, ctrl, 120);
    assert!(cluster.settle_controller(ctrl, 100).unwrap());
}

/// Everything the tests compare two clusters by, accounting checked.
fn observe(cluster: &Cluster) -> (ClusterStats, SimTime, Vec<(FreeReport, SimTime, usize)>) {
    let per_node = |n: &memwasm::k8s_sim::Node| {
        assert_eq!(n.kernel.check_accounting(), Ok(()), "node {}", n.index);
        (n.kernel.free(), n.kernel.now(), n.kernel.ps().len())
    };
    (cluster.stats(), cluster.now(), cluster.nodes.iter().map(per_node).collect())
}

#[test]
fn a_fork_driven_through_a_fault_script_ends_where_a_booted_cluster_does() {
    let w = Workload::light();
    for config in Config::ALL {
        let (template, template_ctrl) = settled(config, &w);
        let (mut fork, mut fork_ctrl) = (template.fork(), template_ctrl.clone());
        let (mut booted, mut booted_ctrl) = settled(config, &w);
        assert_eq!(observe(&fork), observe(&booted), "{config:?}: before the script");

        script(&mut fork, &mut fork_ctrl, config, &w);
        script(&mut booted, &mut booted_ctrl, config, &w);
        assert_eq!(observe(&fork), observe(&booted), "{config:?}");
        assert_eq!(fork_ctrl.replicas, booted_ctrl.replicas, "{config:?}");
        assert_eq!(fork.ready_replicas(&fork_ctrl), 6, "{config:?}");
        assert!(fork.now() > template.now());
    }
}

#[test]
fn nothing_done_to_a_fork_reaches_the_cluster_it_was_taken_from() {
    let (w, config) = (Workload::light(), Config::WamrCrun);
    let (template, ctrl) = settled(config, &w);
    let before = observe(&template);

    let mut fork = template.fork();
    fork.crash_node(1).unwrap();
    let extra = fork.deploy("extra", config.image_ref(), config.class_name(), 4).unwrap();
    assert_eq!(extra.running(), 4);
    fork.advance(Duration::from_secs(90));
    fork.reconcile();
    assert_ne!(observe(&fork), before);
    assert_eq!(observe(&template), before);

    // Two forks of one template run one script to one end, whichever runs
    // first, and so does a fork of a fork; dropping them changes nothing.
    let run = |mut cluster: Cluster| {
        let mut ctrl = ctrl.clone();
        script(&mut cluster, &mut ctrl, config, &w);
        (observe(&cluster), ctrl.replicas)
    };
    let first = run(template.fork());
    assert_eq!(run(template.fork()), first);
    assert_eq!(run(template.fork().fork()), first);
    assert_eq!(observe(&template), before);
}

#[test]
fn a_fork_has_clocks_of_its_own() {
    let w = Workload::light();
    let mut template = new_scaled_cluster(Config::WamrCrun, 1, Policy::Spread, &w).unwrap();
    // A guest that will not be ready for a minute: its start wedges on the
    // watchdog budget the liveness probe derives, and the container record
    // retains the watchdog's epoch clock.
    let ready_after = (template.now() + Duration::from_secs(60)).as_nanos();
    template.pull_image(hung_service_image(HUNG_IMAGE_REF, ready_after)).unwrap();
    let opts = DeployOpts {
        restart: RestartPolicy::Always,
        liveness_probe: Some(hung_liveness_probe()),
        ..Default::default()
    };
    template.deploy_with("hung", HUNG_IMAGE_REF, "crun-wamr", 1, opts).unwrap();
    assert!(template.containerd().pod_wedged("hung-0"));
    let watchdog = |c: &Cluster| {
        let sandbox = c.containerd().sandbox("hung-0").expect("sandbox");
        sandbox.container("hung-0-c0").expect("container").watchdog_epoch().expect("armed")
    };
    let (epoch, now) = (watchdog(&template), template.now());
    assert_ne!(epoch, u64::MAX);

    // Interrupting the fork's guest ticks the fork's watchdog only.
    let mut fork = template.fork();
    assert_eq!((watchdog(&fork), fork.now()), (epoch, now));
    let containerd = &mut fork.node_mut(0).containerd;
    #[expect(clippy::disallowed_methods, reason = "the test stands in for the kubelet's kill")]
    containerd.interrupt_pod("hung-0").unwrap();
    assert_eq!(watchdog(&fork), u64::MAX);
    assert_eq!(watchdog(&template), epoch);

    // And time: each side moves its own.
    fork.advance(Duration::from_secs(30));
    assert_eq!((template.now(), template.kernel().now()), (now, now));
    template.advance(Duration::from_secs(1));
    assert_eq!(fork.kernel().now(), now + Duration::from_secs(30));
}
