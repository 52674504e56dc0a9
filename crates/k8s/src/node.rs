//! One worker node: kernel + containerd + kubelet, wired together.
//!
//! A [`Node`] owns everything the single-node cluster used to own — its
//! own [`Kernel`] (page store, cgroup tree), a [`Containerd`] daemon, and
//! a [`Kubelet`] — so an N-node [`crate::Cluster`] is a vector of nodes
//! sharing nothing but the scheduler above them and the cluster's
//! [`Clock`]: every node's kernel is booted on it, so probes, backoffs,
//! grace periods and leases on different nodes are deadlines on one
//! timeline.
//!
//! Nodes can also die the *impolite* way. [`Node::crash`] is instant power
//! loss — no SIGTERM, no cgroup teardown, pods vanish with their memory —
//! and [`Node::restart`] reboots the machine from scratch: a fresh kernel
//! on the same clock, empty cgroup roots, a containerd with no
//! sandboxes and a kubelet with no pods (the crash's orphans are garbage-
//! collected by construction — nothing of the old kernel survives the
//! reboot). A [`Node::partition`]ed node keeps running its pods but cannot
//! renew its [`NodeLease`], so the cluster eventually marks it
//! [`NodeCondition::NotReady`]; on heal the first successful renewal
//! [`Node::fence`]s whatever replicas the controller re-homed in the
//! meantime.

use containerd_sim::Containerd;
use oci_spec_lite::ImageStore;
use simkernel::{CgroupId, Clock, Kernel, KernelConfig, KernelError, KernelResult, SimTime};

use crate::kubelet::{Kubelet, NodeConfig};

/// Node readiness as the control plane sees it: driven purely by the
/// node's lease (heartbeats on the cluster clock), never by direct inspection
/// — a crashed node stays `Ready` until its lease expires, exactly the
/// detection latency a real cluster pays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeCondition {
    Ready,
    NotReady,
}

/// The node's lease: the last instant a heartbeat renewal succeeded. The
/// cluster's lease config says how often renewals fire and how stale the
/// lease may go before the node is marked NotReady.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLease {
    pub last_renewal: SimTime,
}

/// A booted worker node.
pub struct Node {
    /// Node name (`node-0`, `node-1`, …) as the scheduler reports it.
    pub name: String,
    /// Position in the cluster's node vector; [`crate::api::PodRecord`]
    /// placements refer to this index.
    pub index: usize,
    pub kernel: Kernel,
    pub containerd: Containerd,
    pub kubelet: Kubelet,
    pub system_cgroup: CgroupId,
    pub kubepods: CgroupId,
    /// Cordoned nodes (`schedulable == false`) are skipped by every
    /// scheduling policy; running pods are unaffected until drained.
    pub schedulable: bool,
    /// Powered on? A crashed node keeps its (stale, frozen) kubelet and
    /// containerd state around until [`Node::restart`] rebuilds them.
    pub alive: bool,
    /// Partitioned from the control plane: pods keep running, heartbeat
    /// renewals don't go through.
    pub partitioned: bool,
    /// Lease-driven readiness; the scheduler only places on `Ready`.
    pub condition: NodeCondition,
    /// When the lease expired (cleared on recovery). The controller's
    /// pod-eviction grace counts from here.
    pub not_ready_since: Option<SimTime>,
    pub lease: NodeLease,
    /// Replicas the controller gave up on while this node was unreachable.
    /// The node cannot be told to kill them while unreachable; the first
    /// successful renewal after a partition heals drains this list
    /// ([`Node::fence`]) so replica counts reconverge without split-brain
    /// double-counting. A restart clears it — a crash already took the
    /// pods down with the power.
    pub fence_pending: Vec<String>,
}

impl Node {
    /// Boot a node on the cluster's clock: kernel, engines, runtimes,
    /// cgroup roots, containerd, kubelet — exactly the old single-node
    /// bootstrap. The lease starts renewed as of now.
    pub(crate) fn bootstrap(
        index: usize,
        kcfg: KernelConfig,
        ncfg: NodeConfig,
        clock: &Clock,
    ) -> KernelResult<Node> {
        let kernel = Kernel::boot_on(kcfg, clock.clone());
        engines::install_engines(&kernel)?;
        container_runtimes::profile::install_runtimes(&kernel)?;
        let system_cgroup = kernel.cgroup_create(Kernel::ROOT_CGROUP, "system.slice")?;
        let kubepods = kernel.cgroup_create(Kernel::ROOT_CGROUP, "kubepods")?;
        let containerd =
            Containerd::boot(kernel.clone(), system_cgroup, kubepods, ImageStore::new())?;
        let kubelet = Kubelet::start(kernel.clone(), system_cgroup, ncfg)?;
        Ok(Node {
            name: format!("node-{index}"),
            index,
            kernel,
            containerd,
            kubelet,
            system_cgroup,
            kubepods,
            schedulable: true,
            alive: true,
            partitioned: false,
            condition: NodeCondition::Ready,
            not_ready_since: None,
            lease: NodeLease { last_renewal: clock.now() },
            fence_pending: Vec::new(),
        })
    }

    /// A deep copy of the node — kernel, containerd, kubelet — on `clock`:
    /// one forked kernel, and both daemons re-pointed at it.
    pub(crate) fn fork(&self, clock: &Clock) -> Node {
        let kernel = self.kernel.fork(clock);
        Node {
            name: self.name.clone(),
            containerd: self.containerd.fork(kernel.clone()),
            kubelet: self.kubelet.fork(kernel.clone()),
            kernel,
            fence_pending: self.fence_pending.clone(),
            // Ids, flags, condition and lease: plain `Copy` values.
            ..*self
        }
    }

    /// Is this node a feasible placement target: powered on and its lease
    /// current? (Cordoning is a separate, orthogonal bit.)
    pub fn ready(&self) -> bool {
        self.alive && self.condition == NodeCondition::Ready
    }

    /// Instant power loss. No SIGTERM, no grace, no cgroup teardown: the
    /// kernel is powered off in place and every pod vanishes with its
    /// memory. The node's kubelet/containerd state is left frozen (stale)
    /// — the control plane only learns of the death when the lease
    /// expires.
    pub(crate) fn crash(&mut self) -> KernelResult<()> {
        if !self.alive {
            return Err(KernelError::InvalidState(format!("{} is already crashed", self.name)));
        }
        self.alive = false;
        self.partitioned = false;
        self.kernel.power_off();
        Ok(())
    }

    /// Reboot a crashed node as a fresh, empty machine re-registered with
    /// the scheduler: a new kernel of the same shape on the cluster's
    /// clock, rebuilt cgroup roots, a containerd with no sandboxes and a
    /// kubelet with no pods. Orphaned sandboxes, mappings and cgroups of
    /// the old kernel are gone by construction. Runtime classes and images
    /// are *not* carried over — a replacement node is provisioned from
    /// scratch, so the caller re-installs them (the harness's
    /// `Config::install_on`).
    pub(crate) fn restart(&mut self, clock: &Clock) -> KernelResult<()> {
        if self.alive {
            return Err(KernelError::InvalidState(format!("{} is not crashed", self.name)));
        }
        *self =
            Node::bootstrap(self.index, self.kernel.config(), self.kubelet.config.clone(), clock)?;
        Ok(())
    }

    /// Cut the node off from the control plane without killing it: pods
    /// keep running, heartbeat renewals stop going through.
    pub fn partition(&mut self) -> KernelResult<()> {
        if !self.alive {
            return Err(KernelError::InvalidState(format!("{} is crashed", self.name)));
        }
        if self.partitioned {
            return Err(KernelError::InvalidState(format!("{} is already partitioned", self.name)));
        }
        self.partitioned = true;
        Ok(())
    }

    /// Heal a partition. The node does not become `Ready` here — that
    /// happens at its next successful lease renewal, which also fences
    /// whatever the controller re-homed in the meantime.
    pub fn heal(&mut self) -> KernelResult<()> {
        if !self.partitioned {
            return Err(KernelError::InvalidState(format!("{} is not partitioned", self.name)));
        }
        self.partitioned = false;
        Ok(())
    }

    /// Fence the stale replicas the controller gave up on while this node
    /// was unreachable: gracefully terminate every pod in `fence_pending`.
    /// Runs on reconnection (first successful renewal of an expired
    /// lease); idempotent for pods already gone. Returns the fenced names.
    /// On error the un-drained names stay queued, so a later renewal can
    /// retry the fence.
    pub(crate) fn fence(&mut self) -> KernelResult<Vec<String>> {
        let mut fenced = Vec::new();
        while let Some(name) = self.fence_pending.first().cloned() {
            self.kubelet.remove_pod(&mut self.containerd, &name)?;
            self.fence_pending.remove(0);
            fenced.push(name);
        }
        Ok(fenced)
    }

    /// Supervised pods currently managed by this node's kubelet.
    pub fn pod_count(&self) -> usize {
        self.kubelet.pod_count()
    }

    /// Total cgroup throttle events (cpu + io) charged to this node's
    /// pod sandboxes — the pressure signal the scheduler scores on.
    pub fn throttle_events(&self) -> u64 {
        let mut total = 0u64;
        for pod_cgroup in self.containerd.sandbox_cgroups() {
            if let Ok(stats) = self.kernel.cgroup_stats(pod_cgroup) {
                total += stats.nr_cpu_throttled + stats.io_throttle_events;
            }
        }
        total
    }
}
