//! The cluster: N worker nodes behind one scheduler.
//!
//! [`Cluster`] is the experiment entry point: register runtime classes and
//! images, deploy N identical pods (the paper's 10–400 densities and the
//! 10k+ cluster sweeps), measure startup with the DES, read both memory
//! observers, tear down. A one-node cluster is byte-identical to the old
//! single-node code path — every placement lands on node 0 and every
//! accessor resolves to that node — so the paper figures are untouched by
//! the N-node generalization.
//!
//! Above plain deployments sits a small controller plane:
//! [`DeploymentController`] reconciliation (replace lost replicas via the
//! scheduler), rolling updates (`maxSurge`/`maxUnavailable` gated on the
//! readiness machinery), a horizontal pod autoscaler keyed off the
//! service's mean endpoint queue depth, and node drain/cordon for
//! rescheduling chaos.
//!
//! Nodes can also leave the cluster ungracefully. [`Cluster::crash_node`]
//! is instant power loss and [`Cluster::partition_node`] cuts a node off
//! without killing it; both are detected the same way a real cluster
//! detects them — the node's lease goes stale, the node
//! turns NotReady, the scheduler stops placing on it, and after
//! [`POD_EVICTION_GRACE`] the controller gives up its
//! replicas and reschedules them on survivors. A healed partition is
//! *fenced* on reconnection: the stale duplicates are terminated before
//! the node turns Ready again, so replica counts reconverge without
//! split-brain double-counting.

use std::sync::Arc;

use containerd_sim::{Containerd, RuntimeClass};
use oci_spec_lite::ImageBuilder;
use simkernel::{
    CgroupId, Clock, Duration, FaultSite, FreeReport, Kernel, KernelConfig, KernelError,
    KernelResult, Sim, SimOutcome, SimTime, TaskResult, TaskSpec,
};

use crate::api::{
    Deployment, DeploymentController, HpaSpec, PodPhase, PodSpec, PodTemplate, ProbeSpec,
    ReplicaEntry, RolloutStep,
};
use crate::kubelet::{Kubelet, NodeConfig, ReconcileReport, RestartPolicy};
use crate::node::{Node, NodeCondition};
use crate::scheduler::{NodeSnapshot, Policy, Scheduler};
use crate::service::Service;

/// Lease-based failure detection, on Kubernetes' defaults: how often a
/// reachable node renews its lease.
pub const LEASE_RENEW_INTERVAL: Duration = Duration::from_secs(10);
/// Lease staleness past which a node is marked NotReady — the upper bound
/// on failure-detection latency.
pub const LEASE_GRACE: Duration = Duration::from_secs(40);
/// How long after NotReady the controller keeps a node's replicas before
/// giving them up for rescheduling on survivors.
pub const POD_EVICTION_GRACE: Duration = Duration::from_secs(30);
/// Scheduler/API-server dispatch: one pod reaches a kubelet sync loop
/// every 20 ms (50 pods per second), whatever the node.
const DISPATCH_GAP: Duration = Duration::from_millis(20);
/// `maxSurge`: extra pods a rolling update may run above `replicas`.
const MAX_SURGE: usize = 1;

/// A booted Kubernetes cluster: one or more [`Node`]s and a [`Scheduler`].
pub struct Cluster {
    pub nodes: Vec<Node>,
    pub scheduler: Scheduler,
    /// Simulated time: every node's kernel, a restarted one included,
    /// is booted on this clock.
    clock: Clock,
}

/// Cluster-level bookkeeping counters (summed over all nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterStats {
    /// Pods the kubelets have successfully synced to Running since boot
    /// (monotonic; teardown does not decrease it).
    pub pods_synced: usize,
    /// Pods currently managed by the kubelets.
    pub pods_managed: usize,
    /// Live simulated processes across all nodes.
    pub live_procs: usize,
    /// Supervised pods currently Running.
    pub running: usize,
    /// Supervised Running pods that are also ready: pods with a readiness
    /// probe count only after a probe success (and stop counting once the
    /// probe crosses its failure threshold); unprobed pods count whenever
    /// they are Running.
    pub ready: usize,
    /// Supervised pods waiting out a restart backoff.
    pub crash_loop: usize,
    /// Supervised pods evicted for node memory pressure (terminal).
    pub evicted: usize,
    /// Supervised pods evicted for sustained cpu/io pressure — cgroup
    /// throttle events past [`NodeConfig::pressure_eviction_threshold`]
    /// (terminal, disjoint from [`ClusterStats::evicted`]).
    pub pressure_evicted: usize,
    /// Supervised pods in the OomKilled phase (restart pending).
    pub oom_killed: usize,
    /// Supervised pods parked as Failed: a sync error no restart can fix
    /// (terminal).
    pub failed: usize,
    /// Successful restarts summed over supervised pods.
    pub restarts: u64,
}

/// Options for [`Cluster::deploy_with`]: the fault-tolerance knobs of a
/// deployment. The default reproduces [`Cluster::deploy`] exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeployOpts {
    /// Restart policy for the pods' containers.
    pub restart: RestartPolicy,
    /// Optional `resources.limits.memory` applied to every pod.
    pub memory_limit: Option<u64>,
    /// Optional `cpu.max` `(quota_ns, period_ns)` applied to every pod.
    pub cpu_max: Option<(u64, u64)>,
    /// Optional per-window cold-read byte budget applied to every pod.
    pub io_read_budget: Option<u64>,
    /// Liveness probe applied to every pod (also arms the guest watchdog).
    pub liveness_probe: Option<ProbeSpec>,
    /// Readiness probe applied to every pod (gates [`ClusterStats::ready`]).
    pub readiness_probe: Option<ProbeSpec>,
    /// Per-pod SIGTERM → SIGKILL grace period (`None`: Kubernetes' 30s).
    pub termination_grace: Option<Duration>,
}

impl DeployOpts {
    /// The template these options imply for pods of `image` under
    /// `runtime_class`: made once, shared by every pod it stamps.
    fn template(&self, image: Arc<str>, runtime_class: Arc<str>) -> Arc<PodTemplate> {
        Arc::new(PodTemplate { image, runtime_class, opts: *self })
    }
}

impl Cluster {
    /// Boot one node with the paper's testbed shape (20 cores, 256 GiB)
    /// and the 500-pod kubelet extension.
    pub fn bootstrap() -> KernelResult<Cluster> {
        Cluster::bootstrap_with(KernelConfig::default(), NodeConfig::paper_extension())
    }

    /// Boot one node with explicit kernel/node configuration.
    pub fn bootstrap_with(kcfg: KernelConfig, ncfg: NodeConfig) -> KernelResult<Cluster> {
        Cluster::bootstrap_nodes(1, kcfg, ncfg, Policy::default())
    }

    /// Boot an N-node cluster; every node gets the same kernel/node shape.
    pub fn bootstrap_nodes(
        n: usize,
        kcfg: KernelConfig,
        ncfg: NodeConfig,
        policy: Policy,
    ) -> KernelResult<Cluster> {
        assert!(n > 0, "a cluster needs at least one node");
        let clock = Clock::default();
        let nodes = (0..n)
            .map(|i| Node::bootstrap(i, kcfg.clone(), ncfg.clone(), &clock))
            .collect::<KernelResult<Vec<Node>>>()?;
        Ok(Cluster { nodes, scheduler: Scheduler::new(policy), clock })
    }

    /// A deep copy of the cluster standing on a clock of its own at this
    /// cluster's instant: what booting and driving a second cluster the
    /// same way would have built, for the price of copying it. A fork
    /// shares nothing mutable with its origin — immutable data (image
    /// layers, module bytes, handlers) stays shared by `Arc`, and the two
    /// `Arc`-backed cells, the clock and every retained watchdog clock, are
    /// re-made at their readings — so either side can be driven, crashed
    /// or dropped without the other noticing.
    pub fn fork(&self) -> Cluster {
        let clock = self.clock.fork();
        let nodes = self.nodes.iter().map(|n| n.fork(&clock)).collect();
        Cluster { nodes, scheduler: self.scheduler, clock }
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    pub fn node_mut(&mut self, i: usize) -> &mut Node {
        &mut self.nodes[i]
    }

    /// Node 0's kernel — *the* kernel of a single-node cluster (the figure
    /// paths).
    pub fn kernel(&self) -> &Kernel {
        &self.nodes[0].kernel
    }

    /// Node 0's containerd (the single-node daemon).
    pub fn containerd(&self) -> &Containerd {
        &self.nodes[0].containerd
    }

    /// Node 0's kubelet (the single-node kubelet).
    pub fn kubelet(&self) -> &Kubelet {
        &self.nodes[0].kubelet
    }

    pub fn system_cgroup(&self) -> CgroupId {
        self.nodes[0].system_cgroup
    }

    pub fn kubepods(&self) -> CgroupId {
        self.nodes[0].kubepods
    }

    /// Current simulated time, on every node.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Move simulated time forward by `d`. (Inlined across crates: the
    /// traffic loop calls this once per request event.)
    #[inline]
    pub fn advance(&self, d: Duration) {
        self.clock.advance(d);
    }

    /// Move simulated time to the next instant at which a kubelet has
    /// something to do — the earliest pending deadline across live nodes —
    /// or by one second when nothing is pending.
    pub fn step(&self) {
        let now = self.now();
        match self.next_deadline() {
            Some(d) if d > now => self.advance(d - now),
            _ => self.advance(Duration::from_secs(1)),
        }
    }

    /// Register a runtime class on node 0 (single-node path).
    pub fn register_class(&mut self, name: &str, class: RuntimeClass) {
        self.nodes[0].containerd.register_class(name, class);
    }

    /// Register a runtime class on one node of a multi-node cluster.
    pub fn register_class_on(&mut self, node: usize, name: &str, class: RuntimeClass) {
        self.nodes[node].containerd.register_class(name, class);
    }

    /// Pull an image on node 0 (single-node path).
    pub fn pull_image(&mut self, builder: ImageBuilder) -> KernelResult<String> {
        self.nodes[0].containerd.pull_image(builder)
    }

    /// Pull an image on one node of a multi-node cluster.
    pub fn pull_image_on(&mut self, node: usize, builder: ImageBuilder) -> KernelResult<String> {
        self.nodes[node].containerd.pull_image(builder)
    }

    /// The `free(1)` observer on node 0 (the single-node observer).
    pub fn free(&self) -> FreeReport {
        self.nodes[0].kernel.free()
    }

    /// Cluster bookkeeping counters (kubelet sync counters, process
    /// counts, supervised-pod phase breakdown), summed over all nodes.
    pub fn stats(&self) -> ClusterStats {
        let mut stats = ClusterStats::default();
        for node in &self.nodes {
            if !node.alive {
                // A crashed node's kubelet is frozen stale state: its pods
                // died with the power and must not inflate the counters.
                continue;
            }
            stats.pods_synced += node.kubelet.pods_synced();
            stats.pods_managed += node.kubelet.pod_count();
            stats.live_procs += node.kernel.live_procs();
            for e in node.kubelet.managed() {
                stats.restarts += u64::from(e.restarts);
                match e.phase {
                    PodPhase::Running => {
                        stats.running += 1;
                        stats.ready += usize::from(e.ready);
                    }
                    PodPhase::CrashLoopBackOff => stats.crash_loop += 1,
                    PodPhase::Evicted if e.pressure_evicted => stats.pressure_evicted += 1,
                    PodPhase::Evicted => stats.evicted += 1,
                    PodPhase::OomKilled => stats.oom_killed += 1,
                    PodPhase::Failed => stats.failed += 1,
                }
            }
        }
        stats
    }

    /// Deploy `n` identical pods of `image` under `runtime_class`.
    ///
    /// Pods are dispatched at the scheduler/API rate; state effects (memory,
    /// processes) are applied immediately, while the latency program of each
    /// pod is recorded for [`Cluster::measure_startup`].
    pub fn deploy(
        &mut self,
        name_prefix: &str,
        image: &str,
        runtime_class: &str,
        n: usize,
    ) -> KernelResult<Deployment> {
        self.deploy_with(name_prefix, image, runtime_class, n, DeployOpts::default())
    }

    /// [`Cluster::deploy`] with explicit fault-tolerance options.
    ///
    /// Every pod goes through the scheduler ([`Scheduler::place`]); on a
    /// one-node cluster that is always node 0, keeping the figure paths
    /// byte-identical. With [`RestartPolicy::Never`] (the default) this is
    /// the strict figure path: the first sync error aborts the deploy.
    /// With [`RestartPolicy::Always`] every pod is admitted under kubelet
    /// supervision — failures become CrashLoopBackOff entries that
    /// [`Cluster::reconcile`] retries — and the returned deployment holds
    /// no pods: supervised pods live in the kubelet's table
    /// ([`Kubelet::managed`]), whether or not their first sync succeeded.
    pub fn deploy_with(
        &mut self,
        name_prefix: &str,
        image: &str,
        runtime_class: &str,
        n: usize,
        opts: DeployOpts,
    ) -> KernelResult<Deployment> {
        let mut deployment = Deployment::default();
        // Dispatch stamps count from the current simulated time: a deploy
        // after the clock has advanced (rolling updates, chaos rounds)
        // must not back-date its pods to boot.
        let base = self.now();
        let template = opts.template(image.into(), runtime_class.into());
        // A pod start changes only its node: only that one is re-observed.
        let mut snaps: Vec<NodeSnapshot> =
            self.nodes.iter().map(|n| self.scheduler.observe(n)).collect();
        for i in 0..n {
            let dispatched_at = base + DISPATCH_GAP.scaled(i as u64);
            let spec =
                PodSpec { name: format!("{name_prefix}-{i}"), template: Arc::clone(&template) };
            let idx = self.place_pod(&snaps)?;
            let node = &mut self.nodes[idx];
            match opts.restart {
                RestartPolicy::Never => {
                    let mut record =
                        node.kubelet.sync_pod(&mut node.containerd, spec, dispatched_at)?;
                    record.node = idx;
                    deployment.pods.push(record);
                }
                RestartPolicy::Always => {
                    node.kubelet.manage_pod(&mut node.containerd, spec, dispatched_at);
                }
            }
            snaps[idx] = self.scheduler.observe(&self.nodes[idx]);
        }
        Ok(deployment)
    }

    /// Scheduler decision for one pod (the single placement choke point).
    fn place_pod(&self, snaps: &[NodeSnapshot]) -> KernelResult<usize> {
        let idx = self.scheduler.place_from(snaps.iter().copied());
        debug_assert_eq!(idx, self.scheduler.place(&self.nodes), "stale node snapshot");
        idx.ok_or_else(|| {
            KernelError::InvalidState(
                "scheduler: no feasible node (every node cordoned, NotReady or at max-pods)"
                    .to_string(),
            )
        })
    }

    /// One lease pass at the current simulated time — the cluster's
    /// failure detector. Every node that is due attempts a heartbeat
    /// renewal: reachable nodes renew unless the [`FaultSite::Heartbeat`]
    /// plan flakes the RPC; crashed and partitioned nodes never renew. A
    /// lease staler than [`LEASE_GRACE`] marks its node NotReady.
    /// The first successful renewal of an expired lease fences the stale
    /// replicas the controller re-homed in the meantime, then marks the
    /// node Ready again; if fencing is interrupted mid-drain the node
    /// stays NotReady and the next due renewal retries.
    pub fn tick_leases(&mut self) {
        let now = self.now();
        for node in &mut self.nodes {
            let due = now.since(node.lease.last_renewal) >= LEASE_RENEW_INTERVAL;
            let reachable = node.alive && !node.partitioned;
            if due && reachable && node.kernel.inject_fault(FaultSite::Heartbeat).is_ok() {
                node.lease.last_renewal = now;
                // A partial fence leaves the un-drained names queued: the
                // node stays NotReady until a later renewal finishes it.
                if node.condition == NodeCondition::NotReady && node.fence().is_ok() {
                    node.condition = NodeCondition::Ready;
                    node.not_ready_since = None;
                }
            } else if node.condition == NodeCondition::Ready
                && now.since(node.lease.last_renewal) >= LEASE_GRACE
            {
                node.condition = NodeCondition::NotReady;
                node.not_ready_since = Some(now);
            }
        }
    }

    /// One kubelet supervision pass per node at the current simulated
    /// time: lease renewal/expiry first, then OOM detection, node-pressure
    /// eviction and due restarts on every live node. Reports are merged
    /// across nodes; crashed nodes are skipped (nothing to supervise until
    /// the machine reboots).
    pub fn reconcile(&mut self) -> ReconcileReport {
        self.tick_leases();
        let now = self.now();
        let mut merged = ReconcileReport::default();
        for node in &mut self.nodes {
            if !node.alive {
                continue;
            }
            let mut r = node.kubelet.reconcile(&mut node.containerd, now);
            merged.oom_killed.append(&mut r.oom_killed);
            merged.evicted.append(&mut r.evicted);
            merged.pressure_evicted.append(&mut r.pressure_evicted);
            merged.restarted.append(&mut r.restarted);
            merged.backoff.append(&mut r.backoff);
            merged.probe_killed.append(&mut r.probe_killed);
        }
        merged
    }

    /// Earliest pending kubelet deadline across live nodes.
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        self.nodes.iter().filter(|n| n.alive).filter_map(|n| n.kubelet.next_deadline()).min()
    }

    /// The live node hosting a pod, by supervised entry or live sandbox.
    fn host_of(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| {
            n.alive
                && (n.kubelet.managed_pod(name).is_some() || n.containerd.sandbox(name).is_some())
        })
    }

    /// Remove one pod wherever it lives (graceful: SIGTERM → grace →
    /// SIGKILL via its node's kubelet). Idempotent like
    /// [`Kubelet::remove_pod`]: removing a pod that is already gone
    /// everywhere is a successful no-op.
    pub fn remove_pod(&mut self, name: &str) -> KernelResult<()> {
        let Some(idx) = self.host_of(name) else {
            return Ok(());
        };
        let node = &mut self.nodes[idx];
        node.kubelet.remove_pod(&mut node.containerd, name)
    }

    /// Tear down every supervised pod on every node (the counterpart of a
    /// [`RestartPolicy::Always`] deploy, which returns no deployment
    /// handle to pass to [`Cluster::teardown`]).
    pub fn teardown_managed(&mut self) -> KernelResult<()> {
        for node in &mut self.nodes {
            if !node.alive {
                continue;
            }
            for name in node.kubelet.managed_names() {
                node.kubelet.remove_pod(&mut node.containerd, &name)?;
            }
        }
        Ok(())
    }

    /// Run the DES over one or more deployments' startup programs. The
    /// outcome's total is the paper's "time to start N containers" (start
    /// of deployment to the last container's workload executing).
    ///
    /// Each node is its own core pool: pods contend for CPU only with
    /// pods on the same node, so a run is one [`Sim`] per node with the
    /// cluster makespan the maximum over nodes.
    ///
    /// A node's schedule is its core count and, for each of its pods in
    /// order, the pod's dispatch offset from the node's first dispatch and
    /// its program handle. [`Sim::run`] is translation-invariant, so a node
    /// whose schedule equals an earlier node's takes that node's outcome
    /// shifted by the difference of their first dispatches, its events
    /// counted again: only the first node of each distinct schedule is
    /// simulated, and the outcome is what simulating every node gives.
    pub fn measure_startup(&self, deployments: &[&Deployment]) -> SimOutcome {
        let pods: Vec<&crate::api::PodRecord> =
            deployments.iter().flat_map(|d| d.pods.iter()).collect();

        // Group pods by node, remembering their position in the input
        // order so results come back in deployment order with global ids.
        let mut per_node: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for (pos, p) in pods.iter().enumerate() {
            per_node[p.node].push(pos);
        }
        let first: Vec<SimTime> = per_node
            .iter()
            .map(|m| m.iter().map(|&pos| pods[pos].dispatched_at).min().unwrap_or(SimTime::ZERO))
            .collect();
        let cores: Vec<u32> = self.nodes.iter().map(|n| n.kernel.cores()).collect();
        let same_schedule = |a: usize, b: usize| {
            let (pa, pb) = (&per_node[a], &per_node[b]);
            cores[a] == cores[b]
                && pa.len() == pb.len()
                && pa.iter().zip(pb).all(|(&x, &y)| {
                    let (x, y) = (pods[x], pods[y]);
                    x.dispatched_at - first[a] == y.dispatched_at - first[b] && x.trace == y.trace
                })
        };

        let simulate = |node: usize| {
            let tasks = per_node[node].iter().map(|&pos| TaskSpec {
                name: String::new(),
                start_at: pods[pos].dispatched_at,
                steps: pods[pos].trace.steps(),
            });
            Sim::new(cores[node]).run(tasks.collect())
        };

        // Each distinct schedule's first node, with that node's outcome.
        let mut simulated: Vec<(usize, SimOutcome)> = Vec::new();
        let mut finished = vec![SimTime::ZERO; pods.len()];
        let (mut makespan, mut events) = (SimTime::ZERO, 0);
        let mut unchecked = cfg!(debug_assertions);
        for (node, members) in per_node.iter().enumerate().filter(|(_, m)| !m.is_empty()) {
            let known = simulated.iter().position(|&(origin, _)| same_schedule(origin, node));
            let (origin, out) = match known {
                Some(i) => &simulated[i],
                None => {
                    simulated.push((node, simulate(node)));
                    &simulated[simulated.len() - 1]
                }
            };
            let shift = |t: SimTime| first[node] + (t - first[*origin]);
            if unchecked && known.is_some() {
                unchecked = false;
                let at = |o: &SimOutcome| o.results.iter().map(|r| r.finished).collect::<Vec<_>>();
                let direct = simulate(node);
                debug_assert_eq!(
                    (direct.makespan, direct.events, at(&direct)),
                    (shift(out.makespan), out.events, at(out).into_iter().map(shift).collect()),
                    "node {node} replays node {origin}"
                );
            }
            makespan = makespan.max(shift(out.makespan));
            events += out.events;
            for (r, &pos) in out.results.iter().zip(members) {
                finished[pos] = shift(r.finished);
            }
        }
        let results =
            pods.iter().zip(finished).enumerate().map(|(pos, (p, finished))| TaskResult {
                id: simkernel::TaskId(pos),
                name: String::new(),
                started: p.dispatched_at,
                finished,
            });
        SimOutcome { results: results.collect(), makespan, events }
    }

    /// Average metrics-server working set per pod in bytes, reading each
    /// pod's cgroup on the node that hosts it — the paper's per-container
    /// metric ("memory use per container as an average of the concurrently
    /// deployed containers", §IV-A).
    pub fn average_working_set(&self, deployment: &Deployment) -> KernelResult<u64> {
        if deployment.is_empty() {
            return Ok(0);
        }
        let mut total = 0u64;
        for p in &deployment.pods {
            total += self.nodes[p.node].kernel.cgroup_working_set(p.pod_cgroup)?;
        }
        Ok(total / deployment.len() as u64)
    }

    /// Tear down a deployment completely.
    pub fn teardown(&mut self, deployment: Deployment) -> KernelResult<()> {
        for pod in deployment.pods {
            let node = &mut self.nodes[pod.node];
            node.kubelet.remove_pod(&mut node.containerd, &pod.spec.name)?;
        }
        Ok(())
    }

    // ---- node lifecycle -------------------------------------------------

    /// Typed bounds check shared by every by-index node operation.
    fn check_node(&self, node: usize) -> KernelResult<()> {
        if node < self.nodes.len() {
            Ok(())
        } else {
            Err(KernelError::NoSuchNode(node))
        }
    }

    /// Mark a node unschedulable; running pods are unaffected.
    pub(crate) fn cordon(&mut self, node: usize) -> KernelResult<()> {
        self.check_node(node)?;
        self.nodes[node].schedulable = false;
        Ok(())
    }

    /// Drain a node: cordon it, then gracefully remove every supervised
    /// pod (SIGTERM → grace → SIGKILL via the node's kubelet). Controller
    /// reconciliation reschedules the victims onto the remaining nodes.
    /// Returns the names of the removed pods.
    pub fn drain_node(&mut self, node: usize) -> KernelResult<Vec<String>> {
        self.cordon(node)?;
        let n = &mut self.nodes[node];
        let names = n.kubelet.managed_names();
        for name in &names {
            n.kubelet.remove_pod(&mut n.containerd, name)?;
        }
        Ok(names)
    }

    /// Ungraceful node death: instant power loss. No SIGTERM, no cgroup
    /// teardown — the node's pods vanish with its memory. Detection is
    /// *not* instant: the node stays Ready until its lease outlives
    /// [`LEASE_GRACE`], exactly the detection latency a real
    /// cluster pays.
    pub fn crash_node(&mut self, node: usize) -> KernelResult<()> {
        self.check_node(node)?;
        self.nodes[node].crash()
    }

    /// Reboot a crashed node as a fresh, empty machine on the cluster's
    /// clock, with a just-renewed lease. Runtime classes and images do not
    /// survive the reboot — re-provision the node (the harness `Config`
    /// installers do this) before scheduling onto it.
    pub fn restart_node(&mut self, node: usize) -> KernelResult<()> {
        self.check_node(node)?;
        self.nodes[node].restart(&self.clock)
    }

    /// Cut a node off from the control plane without killing it: its pods
    /// keep running, but lease renewals stop, so after
    /// [`LEASE_GRACE`] the node turns NotReady and the controller
    /// re-homes its replicas.
    pub fn partition_node(&mut self, node: usize) -> KernelResult<()> {
        self.check_node(node)?;
        self.nodes[node].partition()
    }

    /// Heal a partition. The node turns Ready again only at its next
    /// successful lease renewal, after its stale replicas are fenced — so
    /// replica counts reconverge without split-brain double-counting.
    pub fn heal_node(&mut self, node: usize) -> KernelResult<()> {
        self.check_node(node)?;
        self.nodes[node].heal()
    }

    // ---- the controller plane -------------------------------------------

    /// One controller reconcile pass: forget replicas that vanished or
    /// reached a terminal phase (Failed, Evicted), give up on replicas
    /// stranded on unreachable nodes once [`POD_EVICTION_GRACE`]
    /// expires (queueing them for fencing on reconnection), then create
    /// replicas through the scheduler until the desired count is met — or
    /// no node is feasible, in which case creation resumes on a later pass
    /// rather than failing the reconcile. Returns the number of pods
    /// created.
    pub fn reconcile_controller(&mut self, ctrl: &mut DeploymentController) -> KernelResult<usize> {
        let now = self.now();
        let mut dead: Vec<ReplicaEntry> = Vec::new();
        let mut stranded: Vec<ReplicaEntry> = Vec::new();
        let nodes = &self.nodes;
        ctrl.replicas.retain(|r| {
            let node = &nodes[r.node];
            if !node.ready() {
                // The node is unreachable (crashed or NotReady): its pods
                // can be neither inspected nor terminated. Keep the
                // replica for the eviction grace — the node may come back
                // — then give it up for rescheduling on survivors.
                match node.not_ready_since {
                    Some(since) if now.since(since) >= POD_EVICTION_GRACE => {
                        stranded.push(r.clone());
                        false
                    }
                    _ => true,
                }
            } else {
                match node.kubelet.managed_pod(&r.pod).map(|e| e.phase) {
                    None | Some(PodPhase::Failed) | Some(PodPhase::Evicted) => {
                        dead.push(r.clone());
                        false
                    }
                    _ => true,
                }
            }
        });
        for r in dead {
            // Clear any terminal supervision entry so the slot frees up
            // (idempotent; the pod may be gone entirely).
            let node = &mut self.nodes[r.node];
            let _ = node.kubelet.remove_pod(&mut node.containerd, &r.pod);
        }
        for r in stranded {
            // The pod cannot be killed now — the node is unreachable. If
            // it was a partition (pod still running), fencing on
            // reconnection terminates the duplicate; if a crash, restart
            // clears the queue (those pods died with the power).
            self.nodes[r.node].fence_pending.push(r.pod);
        }
        let mut created = 0usize;
        while ctrl.replicas.len() < ctrl.spec.replicas {
            if self.try_create_replica(ctrl, ctrl.revision)?.is_none() {
                break;
            }
            created += 1;
        }
        Ok(created)
    }

    /// Place and start one replica of the controller's template at the
    /// given revision; error when no node is feasible.
    fn create_replica(
        &mut self,
        ctrl: &mut DeploymentController,
        revision: u32,
    ) -> KernelResult<usize> {
        self.try_create_replica(ctrl, revision)?.ok_or_else(|| {
            KernelError::InvalidState(
                "scheduler: no feasible node (every node cordoned, NotReady or at max-pods)"
                    .to_string(),
            )
        })
    }

    /// [`Cluster::create_replica`], returning `Ok(None)` instead of an
    /// error when no node is feasible (the controller retries next pass).
    fn try_create_replica(
        &mut self,
        ctrl: &mut DeploymentController,
        revision: u32,
    ) -> KernelResult<Option<usize>> {
        let Some(idx) = self.scheduler.place(&self.nodes) else {
            return Ok(None);
        };
        let name = ctrl.next_pod_name(revision);
        let DeploymentController { spec, template, .. } = ctrl;
        let template = template.get_or_insert_with(|| {
            spec.opts.template(Arc::clone(&spec.image), Arc::clone(&spec.runtime_class))
        });
        let spec = PodSpec { name: name.clone(), template: Arc::clone(template) };
        let dispatched_at = self.now();
        let node = &mut self.nodes[idx];
        node.kubelet.manage_pod(&mut node.containerd, spec, dispatched_at);
        ctrl.replicas.push(ReplicaEntry { pod: name, node: idx, revision });
        Ok(Some(idx))
    }

    /// Is this replica Running and ready on its node?
    fn replica_ready(&self, r: &ReplicaEntry) -> bool {
        self.nodes[r.node]
            .kubelet
            .managed_pod(&r.pod)
            .is_some_and(|e| e.phase == PodPhase::Running && e.ready)
    }

    /// Replicas currently Running and ready.
    pub fn ready_replicas(&self, ctrl: &DeploymentController) -> usize {
        ctrl.replicas.iter().filter(|r| self.replica_ready(r)).count()
    }

    /// The controller round loop: `pass`, [`Cluster::step`], `pass`, … until
    /// a pass returns `true` (no step follows it; `Some(steps taken)`) or
    /// `max_rounds` rounds have run (`None`). Every wait for a controller
    /// or a kubelet to converge is this loop. A pass that reconciles and then judges
    /// leaves the clock where convergence was observed
    /// ([`Cluster::settle_controller`]); one that judges what the last step
    /// brought and then reconciles records times that include that step
    /// (the fault explorer).
    pub fn run_rounds(
        &mut self,
        max_rounds: usize,
        mut pass: impl FnMut(&mut Cluster) -> KernelResult<bool>,
    ) -> KernelResult<Option<usize>> {
        for steps in 0..max_rounds {
            if pass(self)? {
                return Ok(Some(steps));
            }
            self.step();
        }
        Ok(None)
    }

    /// Drive controller + kubelet reconciliation until every replica is
    /// Running and ready, or `max_rounds` elapse.
    pub fn settle_controller(
        &mut self,
        ctrl: &mut DeploymentController,
        max_rounds: usize,
    ) -> KernelResult<bool> {
        let settled = self.run_rounds(max_rounds, |c| {
            c.reconcile_controller(ctrl)?;
            c.reconcile();
            Ok(ctrl.replicas.len() == ctrl.spec.replicas
                && c.ready_replicas(ctrl) == ctrl.spec.replicas)
        })?;
        Ok(settled.is_some())
    }

    /// Flip a controller's template to a new image and bump the revision:
    /// the declarative half of a rolling update. Drive convergence with
    /// [`Cluster::rollout_step`] rounds.
    pub fn begin_rolling_update(&mut self, ctrl: &mut DeploymentController, image: &str) {
        ctrl.revision += 1;
        ctrl.spec.image = image.into();
        ctrl.template = None;
    }

    /// One rolling-update round: surge new-revision pods up to
    /// `replicas + maxSurge`, retire old-revision pods (oldest first)
    /// while at least `replicas − maxUnavailable` replicas stay ready —
    /// the readiness machinery gates every step — then run the controller
    /// and kubelet reconcile passes. Does not advance the clock: the
    /// caller owns pacing, so drains, crashes and partitions can
    /// interleave with a rollout mid-surge.
    pub fn rollout_step(&mut self, ctrl: &mut DeploymentController) -> KernelResult<RolloutStep> {
        let rev = ctrl.revision;
        let replicas = ctrl.spec.replicas;
        let mut created = 0usize;
        let mut deleted = 0usize;
        // Surge: create new-revision pods while headroom allows.
        while ctrl.replicas.iter().filter(|r| r.revision == rev).count() < replicas
            && ctrl.replicas.len() < replicas + MAX_SURGE
        {
            self.create_replica(ctrl, rev)?;
            created += 1;
        }
        // Retire old-revision pods (oldest first) within the availability
        // budget.
        while let Some(pos) = ctrl.replicas.iter().position(|r| r.revision < rev) {
            let ready = self.ready_replicas(ctrl);
            let victim_ready = self.replica_ready(&ctrl.replicas[pos]) as usize;
            if ready - victim_ready + ctrl.spec.max_unavailable < replicas {
                break;
            }
            let victim = ctrl.replicas.remove(pos);
            let node = &mut self.nodes[victim.node];
            node.kubelet.remove_pod(&mut node.containerd, &victim.pod)?;
            deleted += 1;
        }
        self.reconcile_controller(ctrl)?;
        self.reconcile();
        let done = ctrl.replicas.len() == replicas
            && ctrl.replicas.iter().all(|r| r.revision == rev)
            && self.ready_replicas(ctrl) == replicas;
        Ok(RolloutStep { created, deleted, done })
    }

    /// One HPA evaluation on the request-path signal: while the service's
    /// mean endpoint queue depth is above the target and the controller is
    /// below `max_replicas`, add one replica through the scheduler —
    /// saturation that shows as requests queueing rather than memory
    /// growing. Returns whether it added one; otherwise nothing changes.
    pub fn autoscale(
        &mut self,
        ctrl: &mut DeploymentController,
        hpa: &HpaSpec,
        service: &Service,
    ) -> KernelResult<bool> {
        if service.mean_depth_x1000() <= hpa.target_queue_depth_x1000
            || ctrl.spec.replicas >= hpa.max_replicas
        {
            return Ok(false);
        }
        ctrl.spec.replicas += 1;
        self.reconcile_controller(ctrl)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::DeploymentSpec;
    use crate::kubelet::Program;
    use container_runtimes::handler::PauseHandler;
    use container_runtimes::profile::CRUN;
    use container_runtimes::LowLevelRuntime;
    use simkernel::{ProcessImage, StepTrace};
    use std::sync::Arc;
    use wamr_crun::{WamrCrunConfig, WamrHandler};

    fn microservice() -> Vec<u8> {
        wasm_core::demo_wasi_module("svc up\n")
    }

    fn install_wamr_on(cluster: &mut Cluster, i: usize) {
        let mut crun = LowLevelRuntime::new(cluster.node(i).kernel.clone(), &CRUN);
        crun.register_handler(Box::new(WamrHandler::new(WamrCrunConfig::default())));
        crun.register_handler(Box::new(PauseHandler));
        cluster.register_class_on(i, "crun-wamr", RuntimeClass::Oci { runtime: crun });
        cluster
            .pull_image_on(
                i,
                ImageBuilder::new("svc:v1")
                    .entrypoint(["/app/main.wasm".to_string()])
                    .file("/app/main.wasm", microservice()),
            )
            .unwrap();
    }

    fn install_wamr(cluster: &mut Cluster) {
        for i in 0..cluster.node_count() {
            install_wamr_on(cluster, i);
        }
    }

    fn cluster_with_wamr() -> Cluster {
        let mut cluster = Cluster::bootstrap().unwrap();
        install_wamr(&mut cluster);
        cluster
    }

    #[test]
    fn deploy_measure_teardown() {
        let mut cluster = cluster_with_wamr();
        let free_before = cluster.free().used_with_cache();
        let d = cluster.deploy("web", "svc:v1", "crun-wamr", 10).unwrap();
        assert_eq!(d.running(), 10);
        assert_eq!(d.pods[0].stdout, b"svc up\n");
        assert!(d.pods.iter().all(|p| p.node == 0));

        // Metrics-server average is nonzero and per-pod deviation small.
        let avg = cluster.average_working_set(&d).unwrap();
        assert!(avg > 1 << 20, "avg {avg}");
        let dev = crate::metrics::working_set_stddev(cluster.kernel(), &d).unwrap();
        assert!(dev < 300.0 * 1024.0, "stddev {dev} (paper: < 0.1 MB, first pod pays cache)");

        // free sees more than metrics (shims, kubelet growth, kernel).
        let free_after = cluster.free().used_with_cache();
        let free_per_pod = (free_after - free_before) / 10;
        assert!(free_per_pod > avg, "free {free_per_pod} vs metrics {avg}");

        // Startup makespan: dispatch of 10 pods at 20/s plus pipeline.
        let outcome = cluster.measure_startup(&[&d]);
        let total = outcome.total().as_secs_f64();
        assert!(total > 1.0 && total < 10.0, "total {total}s");

        cluster.teardown(d).unwrap();
        assert_eq!(cluster.kubelet().pod_count(), 0);
    }

    /// Daemons keep no record per pod started: after twenty deploy and
    /// teardown rounds, containerd and the kubelet (the system cgroup's
    /// processes once the shims are gone) hold the mappings they were
    /// spawned with, their binary and their heap, and the heap holds the
    /// growth of every pod started.
    #[test]
    fn daemons_keep_no_record_per_pod_started() {
        let mut cluster = cluster_with_wamr();
        let daemons = |c: &Cluster| -> Vec<(simkernel::Pid, u64)> {
            let system = c.system_cgroup();
            c.kernel().ps().into_iter().filter(|p| p.1 == system).map(|p| (p.0, p.2)).collect()
        };
        let spawned = daemons(&cluster);
        assert_eq!(spawned.len(), 2);
        for round in 0..20 {
            let d = cluster.deploy(&format!("r{round}"), "svc:v1", "crun-wamr", 5).unwrap();
            cluster.teardown(d).unwrap();
        }
        let after = daemons(&cluster);
        assert_eq!(after.iter().map(|d| d.0).collect::<Vec<_>>(), [spawned[0].0, spawned[1].0]);
        let kubelet = cluster.kubelet().pid;
        for ((pid, rss), (_, rss_spawned)) in after.into_iter().zip(spawned) {
            // Mapping ids are issued in order: a probe mapping gets the
            // third, the spawn's two and nothing since.
            let probe = ProcessImage::attach(cluster.kernel(), pid).heap(4096, "probe").build();
            assert_eq!(probe.unwrap().heap(), Some(simkernel::MappingId(2)), "{pid:?}");
            assert!(rss > rss_spawned, "{pid:?}: its heap grew");
            if pid == kubelet {
                assert_eq!(rss - rss_spawned, 100 * crate::kubelet::KUBELET_GROWTH_PER_POD);
            }
        }
    }

    #[test]
    fn max_pods_enforced() {
        let mut cluster = Cluster::bootstrap_with(
            KernelConfig::default(),
            NodeConfig { max_pods: 3, ..Default::default() },
        )
        .unwrap();
        install_wamr(&mut cluster);
        let err = cluster.deploy("web", "svc:v1", "crun-wamr", 4).unwrap_err();
        assert!(err.to_string().contains("max-pods"));
    }

    #[test]
    fn stock_kubelet_cannot_run_the_density_experiment() {
        // The paper's experiments need up to 400 pods on one node — beyond
        // the stock limit of 110, hence the §III-C extension.
        assert!(NodeConfig::default().max_pods < 400);
        assert!(NodeConfig::paper_extension().max_pods >= 400);
    }

    #[test]
    fn spread_places_across_nodes() {
        let mut cluster = Cluster::bootstrap_nodes(
            3,
            KernelConfig::default(),
            NodeConfig::paper_extension(),
            Policy::Spread,
        )
        .unwrap();
        install_wamr(&mut cluster);
        let d = cluster.deploy("web", "svc:v1", "crun-wamr", 9).unwrap();
        for i in 0..3 {
            assert_eq!(d.pods.iter().filter(|p| p.node == i).count(), 3, "node {i}");
            assert_eq!(cluster.node(i).kubelet.pod_count(), 3);
        }
        cluster.teardown(d).unwrap();
    }

    #[test]
    fn binpack_fills_one_node_first() {
        let mut cluster = Cluster::bootstrap_nodes(
            3,
            KernelConfig::default(),
            NodeConfig::paper_extension(),
            Policy::BinPack,
        )
        .unwrap();
        install_wamr(&mut cluster);
        let d = cluster.deploy("web", "svc:v1", "crun-wamr", 6).unwrap();
        assert!(d.pods.iter().all(|p| p.node == 0));
        cluster.teardown(d).unwrap();
    }

    /// `n` pods on `nodes` alone: every other node is cordoned meanwhile.
    fn deploy_on(cluster: &mut Cluster, nodes: &[usize], name: &str, n: usize) -> Deployment {
        for (i, node) in cluster.nodes.iter_mut().enumerate() {
            node.schedulable = nodes.contains(&i);
        }
        let d = cluster.deploy(name, "svc:v1", "crun-wamr", n).unwrap();
        cluster.nodes.iter_mut().for_each(|node| node.schedulable = true);
        d
    }

    #[test]
    fn measure_startup_equals_a_des_run_per_node() {
        // Six nodes. All but node 4 start and remove one pod first, so
        // node 4's first measured pod reads the binaries cold. Node 5 has
        // one core. A second on, so that no node's first dispatch is at
        // time zero, two deployments 10 ms apart put four pods on every
        // node, contending on node 5's core; then nodes 2 and 3 get one
        // more pod each, a second apart.
        let mut cluster = Cluster::bootstrap_nodes(
            6,
            KernelConfig::default(),
            NodeConfig::paper_extension(),
            Policy::Spread,
        )
        .unwrap();
        let one_core = KernelConfig { cores: 1, ..KernelConfig::default() };
        cluster.nodes[5] =
            Node::bootstrap(5, one_core, NodeConfig::paper_extension(), &cluster.clock).unwrap();
        install_wamr(&mut cluster);
        let warm = deploy_on(&mut cluster, &[0, 1, 2, 3, 5], "warm", 5);
        cluster.teardown(warm).unwrap();
        cluster.advance(Duration::from_secs(1));
        let early = deploy_on(&mut cluster, &[0, 1, 2, 3, 4, 5], "early", 12);
        cluster.advance(Duration::from_millis(10));
        let late = deploy_on(&mut cluster, &[0, 1, 2, 3, 4, 5], "late", 12);
        cluster.advance(Duration::from_secs(1));
        let on_2 = deploy_on(&mut cluster, &[2], "on-2", 1);
        cluster.advance(Duration::from_secs(1));
        let on_3 = deploy_on(&mut cluster, &[3], "on-3", 1);

        // The earlier deployment comes after the later one.
        let deployments = [&late, &early, &on_2, &on_3];
        let got = cluster.measure_startup(&deployments);
        let pods: Vec<&crate::api::PodRecord> =
            deployments.iter().flat_map(|d| d.pods.iter()).collect();
        let mut want = Vec::new();
        let (mut makespan, mut events) = (SimTime::ZERO, 0);
        let mut schedules = Vec::new();
        let mut on_20_cores = Vec::new();
        for node in 0..cluster.node_count() {
            let members: Vec<usize> = (0..pods.len()).filter(|&i| pods[i].node == node).collect();
            let tasks: Vec<TaskSpec> = members
                .iter()
                .map(|&i| TaskSpec {
                    name: pods[i].spec.name.clone(),
                    start_at: pods[i].dispatched_at,
                    steps: pods[i].trace.steps(),
                })
                .collect();
            let cores = cluster.node(node).kernel.cores();
            on_20_cores.push(Sim::new(20).run(tasks.clone()).makespan);
            let out = Sim::new(cores).run(tasks);
            makespan = makespan.max(out.makespan);
            events += out.events;
            for (r, &i) in out.results.into_iter().zip(&members) {
                want.push((i, r.started, r.finished));
            }
            let first = members.iter().map(|&i| pods[i].dispatched_at).min().unwrap();
            let offsets: Vec<Duration> =
                members.iter().map(|&i| pods[i].dispatched_at - first).collect();
            let traces: Vec<&StepTrace> = members.iter().map(|&i| &*pods[i].trace).collect();
            schedules.push((cores, offsets, traces, out.makespan));
        }
        want.sort_by_key(|w| w.0);

        // The cases are there: nodes 0 and 1 repeat a schedule; nodes 2
        // and 3 differ in one offset alone, node 5 in its core count alone,
        // which stretches its makespan; node 4's first pod reads cold.
        let key = |n: usize| (&schedules[n].0, &schedules[n].1, &schedules[n].2);
        assert_eq!(key(0), key(1));
        assert_eq!((schedules[2].0, &schedules[2].2), (schedules[3].0, &schedules[3].2));
        assert_ne!(schedules[2].1, schedules[3].1);
        assert_eq!((&schedules[5].1, &schedules[5].2), (&schedules[0].1, &schedules[0].2));
        assert!(schedules[5].3 > on_20_cores[5], "node 5's pods contend for its core");
        let first_trace = |node| &early.pods.iter().find(|p| p.node == node).unwrap().trace;
        assert_ne!(first_trace(4), first_trace(0), "node 4's first pod reads cold");
        assert!(early.pods[0].dispatched_at < late.pods[0].dispatched_at);

        let got_results: Vec<_> =
            got.results.iter().map(|r| (r.id.0, r.started, r.finished)).collect();
        assert_eq!(got_results, want);
        assert_eq!((got.makespan, got.events), (makespan, events));
    }

    /// The first start on a node reads its binaries cold; every later one
    /// on that node, supervised or not, holds the node's one warm program,
    /// which the cold pod does not share.
    #[test]
    fn warm_pods_share_their_nodes_program_and_a_cold_pod_keeps_its_own() {
        let mut cluster = cluster_with_wamr();
        let d = cluster.deploy("web", "svc:v1", "crun-wamr", 6).unwrap();
        let opts = DeployOpts { restart: RestartPolicy::Always, ..Default::default() };
        cluster.deploy_with("sup", "svc:v1", "crun-wamr", 2, opts).unwrap();
        let handle = |p: &Program| Arc::clone(p.handle().expect("a started pod"));
        let (cold, warm) = (handle(&d.pods[0].trace), handle(&d.pods[1].trace));
        let managed = cluster.kubelet().managed().map(|e| handle(&e.trace));
        for h in d.pods[2..].iter().map(|p| handle(&p.trace)).chain(managed) {
            assert!(Arc::ptr_eq(&h, &warm));
        }
        assert_ne!(*cold, *warm, "the first pod reads cold");
        let table = cluster.kubelet().programs();
        assert_eq!(table.len(), 2);
        assert!(Arc::ptr_eq(&table[0], &cold) && Arc::ptr_eq(&table[1], &warm));
    }

    /// Starts and removals churn through a node's program table without
    /// growing it: after each deploy it holds only programs a live pod
    /// holds, and once every pod is gone at most the last one is left.
    #[test]
    fn a_nodes_program_table_holds_only_what_its_pods_hold() {
        let mut cluster = cluster_with_wamr();
        for round in 0..20 {
            let d = cluster.deploy(&format!("r{round}"), "svc:v1", "crun-wamr", 3).unwrap();
            let held = |p: &Arc<StepTrace>| {
                d.pods.iter().any(|pod| pod.trace.handle().is_some_and(|h| Arc::ptr_eq(h, p)))
            };
            assert!(cluster.kubelet().programs().iter().all(held), "round {round}");
            cluster.teardown(d).unwrap();
        }
        assert!(cluster.kubelet().programs().len() <= 1);
    }

    /// A pod's container init, read through its CRI record.
    fn container_init(cluster: &Cluster, pod: &str) -> simkernel::Pid {
        let sandbox = cluster.containerd().sandbox(pod).expect("sandbox");
        sandbox.init_pid().expect("init")
    }

    /// A fork starts out sharing its origin's programs; a restart in the
    /// fork interns into the fork's table and leaves the origin's as it was.
    #[test]
    fn a_forks_restart_interns_into_the_forks_table() {
        let mut cluster = cluster_with_wamr();
        let opts = DeployOpts { restart: RestartPolicy::Always, ..Default::default() };
        cluster.deploy_with("p", "svc:v1", "crun-wamr", 1, opts).unwrap();
        let before = cluster.kubelet().programs().to_vec();
        let mut fork = cluster.fork();
        let kernel = fork.kernel().clone();
        let init = container_init(&fork, "p-0");
        kernel.oom_kill(init).unwrap();
        assert_eq!(fork.reconcile().oom_killed, ["p-0"]);
        fork.advance(Kubelet::backoff_delay(0));
        assert_eq!(fork.reconcile().restarted, ["p-0"]);

        let restarted = fork.kubelet().managed_pod("p-0").unwrap().trace.handle().unwrap();
        let holds = |table: &[Arc<StepTrace>]| table.iter().any(|p| Arc::ptr_eq(p, restarted));
        assert!(holds(fork.kubelet().programs()));
        assert!(!holds(cluster.kubelet().programs()));
        let origin = cluster.kubelet().programs();
        assert_eq!(origin.len(), before.len());
        assert!(origin.iter().zip(&before).all(|(a, b)| Arc::ptr_eq(a, b)));
    }

    #[test]
    fn controller_reconcile_and_drain_reschedules() {
        let mut cluster = Cluster::bootstrap_nodes(
            3,
            KernelConfig::default(),
            NodeConfig::paper_extension(),
            Policy::Spread,
        )
        .unwrap();
        install_wamr(&mut cluster);
        let spec = DeploymentSpec::new("svc", "svc:v1", "crun-wamr", 6);
        let mut ctrl = DeploymentController::new(spec);
        assert!(cluster.settle_controller(&mut ctrl, 50).unwrap());
        assert_eq!(cluster.ready_replicas(&ctrl), 6);
        assert!(ctrl.replicas.iter().any(|r| r.node == 1));

        let drained = cluster.drain_node(1).unwrap();
        assert!(!drained.is_empty());
        assert!(cluster.settle_controller(&mut ctrl, 100).unwrap());
        assert_eq!(cluster.ready_replicas(&ctrl), 6);
        assert!(ctrl.replicas.iter().all(|r| r.node != 1), "{:?}", ctrl.replicas);
        assert_eq!(cluster.node(1).kubelet.pod_count(), 0);
    }

    #[test]
    fn a_rollout_replaces_all_replicas() {
        let mut cluster = cluster_with_wamr();
        cluster
            .pull_image(
                ImageBuilder::new("svc:v2")
                    .entrypoint(["/app/main.wasm".to_string()])
                    .file("/app/main.wasm", microservice()),
            )
            .unwrap();
        let spec = DeploymentSpec::new("svc", "svc:v1", "crun-wamr", 4);
        let mut ctrl = DeploymentController::new(spec);
        assert!(cluster.settle_controller(&mut ctrl, 50).unwrap());

        cluster.begin_rolling_update(&mut ctrl, "svc:v2");
        let (mut created, mut deleted, mut stepped) = (0, 0, false);
        let steps = cluster.run_rounds(100, |c| {
            // After a step of the clock the kubelets reconcile first, so
            // the round's surge and retire see the readiness it brought.
            if stepped {
                c.reconcile();
            }
            stepped = true;
            let step = c.rollout_step(&mut ctrl)?;
            created += step.created;
            deleted += step.deleted;
            Ok(step.done)
        });
        assert!(steps.unwrap().is_some(), "the rollout converges");
        assert_eq!((created, deleted), (4, 4));
        assert!(ctrl.replicas.iter().all(|r| r.revision == 2));
        for r in &ctrl.replicas {
            let e = cluster.node(r.node).kubelet.managed_pod(&r.pod).unwrap();
            assert_eq!(e.spec.image(), "svc:v2");
        }
        assert_eq!(cluster.ready_replicas(&ctrl), 4);
    }

    /// One template per `deploy_with` call: the call's pods hold it and
    /// nothing else does, a second call makes its own, and a supervised
    /// restart keeps the pod's. A controller's replicas share their
    /// revision's, and a rolling update makes a new one.
    #[test]
    fn pods_share_their_deployments_template() {
        let mut cluster = cluster_with_wamr();
        let a = cluster.deploy("a", "svc:v1", "crun-wamr", 3).unwrap();
        let shared = &a.pods[0].spec.template;
        assert!(a.pods.iter().all(|p| Arc::ptr_eq(&p.spec.template, shared)));
        assert_eq!(Arc::strong_count(shared), 3, "held by the call's pods alone");

        let opts = DeployOpts { restart: RestartPolicy::Always, ..Default::default() };
        cluster.deploy_with("s", "svc:v1", "crun-wamr", 2, opts).unwrap();
        let held = |c: &Cluster, pod: &str| {
            let node = (0..c.node_count()).find(|&n| c.node(n).kubelet.managed_pod(pod).is_some());
            Arc::clone(&c.node(node.unwrap()).kubelet.managed_pod(pod).unwrap().spec.template)
        };
        let supervised = held(&cluster, "s-0");
        assert!(!Arc::ptr_eq(&supervised, shared), "one template per call");
        assert!(Arc::ptr_eq(&supervised, &held(&cluster, "s-1")));
        let init = container_init(&cluster, "s-0");
        cluster.kernel().oom_kill(init).unwrap();
        assert_eq!(cluster.reconcile().oom_killed, ["s-0"]);
        cluster.advance(Kubelet::backoff_delay(0));
        assert_eq!(cluster.reconcile().restarted, ["s-0"]);
        assert!(Arc::ptr_eq(&held(&cluster, "s-0"), &supervised), "a restart keeps it");

        cluster
            .pull_image(
                ImageBuilder::new("svc:v2")
                    .entrypoint(["/app/main.wasm".to_string()])
                    .file("/app/main.wasm", microservice()),
            )
            .unwrap();
        let mut ctrl =
            DeploymentController::new(DeploymentSpec::new("c", "svc:v1", "crun-wamr", 2));
        assert!(cluster.settle_controller(&mut ctrl, 50).unwrap());
        let templates = |c: &Cluster, ctrl: &DeploymentController| -> Vec<Arc<PodTemplate>> {
            ctrl.replicas.iter().map(|r| held(c, &r.pod)).collect()
        };
        let v1 = templates(&cluster, &ctrl);
        assert!(Arc::ptr_eq(&v1[0], &v1[1]), "a revision's replicas share one");
        cluster.begin_rolling_update(&mut ctrl, "svc:v2");
        let rolled = cluster.run_rounds(100, |c| {
            c.reconcile();
            Ok(c.rollout_step(&mut ctrl)?.done)
        });
        assert!(rolled.unwrap().is_some(), "the rollout converges");
        let v2 = templates(&cluster, &ctrl);
        assert!(Arc::ptr_eq(&v2[0], &v2[1]) && !Arc::ptr_eq(&v2[0], &v1[0]));
        assert_eq!(&*v2[0].image, "svc:v2");
    }

    /// `manage_pod` enters a supervised pod into the kubelet's table as
    /// what its first sync made it: Running, CrashLoopBackOff after a
    /// retryable error, Failed after a fatal one.
    #[test]
    fn a_managed_pods_entry_is_its_first_syncs_outcome() {
        let mut cluster = cluster_with_wamr();
        let opts = DeployOpts { restart: RestartPolicy::Always, ..Default::default() };
        cluster.deploy_with("ok", "svc:v1", "crun-wamr", 1, opts).unwrap();
        // The sandbox's shim spawn fails: a retry can help.
        cluster
            .kernel()
            .set_fault_plan(simkernel::FaultPlan::new(3).fail_call(FaultSite::Spawn, 0));
        cluster.deploy_with("retry", "svc:v1", "crun-wamr", 1, opts).unwrap();
        cluster.kernel().set_fault_plan(simkernel::FaultPlan::none());
        // No such runtime class: no retry can help.
        cluster.deploy_with("fatal", "svc:v1", "crun-nothing", 1, opts).unwrap();
        let phase = |pod: &str| cluster.kubelet().managed_pod(pod).map(|e| e.phase);
        assert_eq!(phase("ok-0"), Some(PodPhase::Running));
        assert_eq!(phase("retry-0"), Some(PodPhase::CrashLoopBackOff));
        assert_eq!(phase("fatal-0"), Some(PodPhase::Failed));
    }

    /// Reconcile and step until a lease has had time to expire and the
    /// pod-eviction grace to pass.
    fn advance_past_eviction(cluster: &mut Cluster) {
        let until = cluster.now() + LEASE_GRACE + POD_EVICTION_GRACE + LEASE_RENEW_INTERVAL;
        let rounds = cluster.run_rounds(usize::MAX, |c| {
            c.reconcile();
            Ok(c.now() >= until)
        });
        rounds.unwrap();
    }

    #[test]
    fn crash_detected_by_lease_expiry_then_rescheduled_and_restarted() {
        let mut cluster = Cluster::bootstrap_nodes(
            3,
            KernelConfig::default(),
            NodeConfig::paper_extension(),
            Policy::Spread,
        )
        .unwrap();
        install_wamr(&mut cluster);
        let spec = DeploymentSpec::new("svc", "svc:v1", "crun-wamr", 6);
        let mut ctrl = DeploymentController::new(spec);
        assert!(cluster.settle_controller(&mut ctrl, 50).unwrap());
        assert!(ctrl.replicas.iter().any(|r| r.node == 1));

        cluster.crash_node(1).unwrap();
        // Detection is not instant: until the lease expires the node's
        // condition is still Ready and the controller still counts its
        // replicas (nobody has told it otherwise).
        assert_eq!(cluster.node(1).condition, NodeCondition::Ready);
        assert!(ctrl.replicas.iter().any(|r| r.node == 1));
        assert!(matches!(
            ProcessImage::spawn(&cluster.node(1).kernel, "x", cluster.node(1).system_cgroup)
                .build(),
            Err(KernelError::PoweredOff)
        ));

        advance_past_eviction(&mut cluster);
        assert_eq!(cluster.node(1).condition, NodeCondition::NotReady);
        assert!(cluster.settle_controller(&mut ctrl, 100).unwrap());
        assert_eq!(cluster.ready_replicas(&ctrl), 6);
        assert!(ctrl.replicas.iter().all(|r| r.node != 1), "{:?}", ctrl.replicas);
        assert_eq!(cluster.stats().ready, 6);

        // Reboot: fresh empty machine on the cluster's clock, Ready lease.
        cluster.restart_node(1).unwrap();
        assert!(cluster.node(1).ready());
        assert_eq!(cluster.node(1).kubelet.pod_count(), 0);
        assert_eq!(cluster.node(1).kernel.now(), cluster.now());
        // Re-provision (classes and images died with the node), then the
        // scheduler places on it again: Spread picks the emptiest node.
        install_wamr_on(&mut cluster, 1);
        let d = cluster.deploy("extra", "svc:v1", "crun-wamr", 1).unwrap();
        assert_eq!(d.pods[0].node, 1);
        cluster.teardown(d).unwrap();
    }

    #[test]
    fn partition_heal_fences_stale_replicas_without_double_count() {
        let mut cluster = Cluster::bootstrap_nodes(
            3,
            KernelConfig::default(),
            NodeConfig::paper_extension(),
            Policy::Spread,
        )
        .unwrap();
        install_wamr(&mut cluster);
        let spec = DeploymentSpec::new("svc", "svc:v1", "crun-wamr", 6);
        let mut ctrl = DeploymentController::new(spec);
        assert!(cluster.settle_controller(&mut ctrl, 50).unwrap());

        cluster.partition_node(2).unwrap();
        let stale = cluster.node(2).kubelet.pod_count();
        assert!(stale > 0);

        advance_past_eviction(&mut cluster);
        assert_eq!(cluster.node(2).condition, NodeCondition::NotReady);
        assert!(cluster.settle_controller(&mut ctrl, 100).unwrap());
        assert_eq!(cluster.ready_replicas(&ctrl), 6);
        assert!(ctrl.replicas.iter().all(|r| r.node != 2));
        // Unlike a crash, the partitioned node's pods kept running: the
        // cluster momentarily runs duplicates (split-brain).
        assert_eq!(cluster.node(2).kubelet.pod_count(), stale);
        assert_eq!(cluster.stats().running, 6 + stale);

        // Heal: the first successful renewal fences the stale replicas
        // *before* the node turns Ready, so counts reconverge.
        cluster.heal_node(2).unwrap();
        cluster.tick_leases();
        assert!(cluster.node(2).ready());
        assert_eq!(cluster.node(2).kubelet.pod_count(), 0);
        assert_eq!(cluster.ready_replicas(&ctrl), 6);
        assert_eq!(cluster.stats().running, 6);
    }

    #[test]
    fn node_ops_reject_bad_indices_and_invalid_states() {
        let mut cluster = cluster_with_wamr();
        assert!(matches!(cluster.cordon(7), Err(KernelError::NoSuchNode(7))));
        assert!(matches!(cluster.drain_node(7), Err(KernelError::NoSuchNode(7))));
        assert!(matches!(cluster.crash_node(7), Err(KernelError::NoSuchNode(7))));
        assert!(matches!(cluster.restart_node(7), Err(KernelError::NoSuchNode(7))));
        assert!(matches!(cluster.partition_node(7), Err(KernelError::NoSuchNode(7))));
        assert!(matches!(cluster.heal_node(7), Err(KernelError::NoSuchNode(7))));
        // State machine: no restarting a live node, no healing an
        // unpartitioned one, no double-crash.
        assert!(cluster.restart_node(0).is_err());
        assert!(cluster.heal_node(0).is_err());
        cluster.crash_node(0).unwrap();
        assert!(cluster.crash_node(0).is_err());
        assert!(cluster.partition_node(0).is_err());
    }

    #[test]
    fn hpa_adds_one_replica_per_evaluation_above_the_target_up_to_max() {
        let mut cluster = cluster_with_wamr();
        let spec = DeploymentSpec::new("svc", "svc:v1", "crun-wamr", 2);
        let mut ctrl = DeploymentController::new(spec);
        assert!(cluster.settle_controller(&mut ctrl, 50).unwrap());
        let exec = Duration::from_millis(1);
        let mut service = Service::new(crate::service::ServiceConfig::for_exec(exec, exec), 7);
        service.sync(&cluster, &ctrl);
        assert_eq!(service.endpoints.len(), 2);
        let hpa = HpaSpec { max_replicas: 4, target_queue_depth_x1000: 2_000 };
        let mut token = 0;
        let mut queue_on_every_endpoint = |service: &mut Service, now: SimTime| {
            for ep in 0..service.endpoints.len() {
                token += 1;
                service.admit(ep, now, token, now + Duration::from_secs(1)).unwrap();
            }
        };

        // Idle, then exactly at the target: nothing changes.
        for depth in 0..=2 {
            assert_eq!(service.mean_depth_x1000(), depth * 1_000);
            assert!(!cluster.autoscale(&mut ctrl, &hpa, &service).unwrap(), "depth {depth}");
            assert_eq!((ctrl.spec.replicas, ctrl.replicas.len()), (2, 2));
            queue_on_every_endpoint(&mut service, cluster.now());
        }

        // Above it: one replica per evaluation, then none past the maximum.
        assert_eq!(service.mean_depth_x1000(), 3_000);
        for (added, replicas) in [(true, 3), (true, 4), (false, 4)] {
            assert_eq!(cluster.autoscale(&mut ctrl, &hpa, &service).unwrap(), added);
            assert_eq!((ctrl.spec.replicas, ctrl.replicas.len()), (replicas, replicas));
        }
        assert!(cluster.settle_controller(&mut ctrl, 50).unwrap());
    }

    /// A container whose start OOM-kills the process it has been pointed
    /// at — standing in for a restart whose memory pushes a neighbour over
    /// a shared limit.
    struct Assassin(std::sync::Arc<std::sync::Mutex<Option<simkernel::Pid>>>);

    impl container_runtimes::handler::ContainerHandler for Assassin {
        fn name(&self) -> &'static str {
            "assassin"
        }
        fn matches(
            &self,
            spec: &oci_spec_lite::RuntimeSpec,
            _bundle: &oci_spec_lite::Bundle,
        ) -> bool {
            spec.process.args.first().map(String::as_str) == Some("/kill")
        }
        fn execute(
            &self,
            kernel: &Kernel,
            _pid: simkernel::Pid,
            _bundle: &oci_spec_lite::Bundle,
            _spec: &oci_spec_lite::RuntimeSpec,
        ) -> KernelResult<container_runtimes::handler::HandlerOutcome> {
            if let Some(victim) = self.0.lock().unwrap().take() {
                kernel.oom_kill(victim)?;
            }
            Ok(Default::default())
        }
    }

    #[test]
    fn an_oom_kill_is_acted_on_by_the_first_pass_that_could_have_seen_it() {
        let mut cluster = cluster_with_wamr();
        let target = std::sync::Arc::new(std::sync::Mutex::new(None));
        let mut crun = LowLevelRuntime::new(cluster.kernel().clone(), &CRUN);
        crun.register_handler(Box::new(Assassin(target.clone())));
        crun.register_handler(Box::new(PauseHandler));
        cluster.register_class("crun-assassin", RuntimeClass::Oci { runtime: crun });
        cluster
            .pull_image(ImageBuilder::new("assassin:v1").entrypoint(["/kill".to_string()]))
            .unwrap();
        let opts = DeployOpts { restart: RestartPolicy::Always, ..Default::default() };
        cluster.deploy_with("victim", "svc:v1", "crun-wamr", 1, opts).unwrap();
        cluster.deploy_with("killer", "assassin:v1", "crun-assassin", 1, opts).unwrap();
        let kernel = cluster.kernel().clone();
        assert!(cluster.reconcile().quiet(), "nobody killed yet: the pass walks no pod");

        // Killed between two passes: torn down by the very next one.
        kernel.oom_kill(container_init(&cluster, "killer-0")).unwrap();
        let pass = cluster.reconcile();
        assert_eq!(pass.oom_killed, ["killer-0"]);
        assert!(cluster.reconcile().quiet(), "the total has not moved since");

        // Killed by a restart, later in the same pass than the walk: that
        // pass cannot have seen it (the victim still reads Running), the
        // next one must.
        *target.lock().unwrap() = Some(container_init(&cluster, "victim-0"));
        cluster.advance(Kubelet::backoff_delay(0));
        let pass = cluster.reconcile();
        assert_eq!((pass.restarted, pass.oom_killed), (vec!["killer-0".to_string()], vec![]));
        assert_eq!(cluster.kubelet().managed_pod("victim-0").unwrap().phase, PodPhase::Running);
        assert!(cluster.containerd().pod_oom_killed("victim-0"));
        let pass = cluster.reconcile();
        assert_eq!(pass.oom_killed, ["victim-0"]);
        assert_eq!(kernel.oom_kills(), 2);
        assert_eq!(kernel.check_accounting(), Ok(()));
    }
}
