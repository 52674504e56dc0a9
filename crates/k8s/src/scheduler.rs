//! Pod placement: the cluster's scheduling policies.
//!
//! Every placement decision in the workspace goes through [`Scheduler`]
//! (a lint in `scripts/verify.sh` keeps `kubelet.manage_pod` calls out of
//! harness code). Policies score candidate nodes on three live signals:
//!
//! * **memory pressure** — the node kernel's `free(1)` available bytes;
//! * **running-pod count** — supervised pods on the node's kubelet;
//! * **cgroup throttle counters** — cpu + io throttle events summed over
//!   the node's pod sandboxes.
//!
//! Scoring is pure integer comparison with a lowest-node-index tie-break,
//! so placement is deterministic for a given cluster state — the
//! scheduler-determinism tests pin the resulting tables byte-identical
//! across worker counts and repeated runs.

use crate::node::Node;

/// What the scheduler saw on one node when it made a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSnapshot {
    pub index: usize,
    pub schedulable: bool,
    /// Supervised pods on the node's kubelet.
    pub pods: usize,
    /// The kubelet's admission ceiling.
    pub max_pods: usize,
    /// `free(1)` available bytes on the node kernel.
    pub available: u64,
    /// Cumulative cpu + io throttle events over the node's pod sandboxes.
    pub throttle_events: u64,
}

impl NodeSnapshot {
    pub fn observe(node: &Node) -> NodeSnapshot {
        NodeSnapshot::observe_with(node, true)
    }

    /// [`NodeSnapshot::observe`] with the throttle sum optional — policies
    /// that never read it skip the per-sandbox cgroup walk, which matters
    /// at 10k-pod placement rates.
    pub fn observe_with(node: &Node, with_throttle: bool) -> NodeSnapshot {
        NodeSnapshot {
            index: node.index,
            // Crashed and NotReady nodes are unschedulable regardless of
            // the cordon bit: the scheduler must never place onto a node
            // whose lease has expired.
            schedulable: node.schedulable && node.ready(),
            pods: node.kubelet.occupancy(),
            max_pods: node.kubelet.config.max_pods,
            available: node.kernel.free().available,
            throttle_events: if with_throttle { node.throttle_events() } else { 0 },
        }
    }

    /// Can this node accept one more pod?
    fn feasible(&self) -> bool {
        self.schedulable && self.pods < self.max_pods
    }
}

/// Placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Fill the fullest feasible node first (most pods, then least
    /// available memory): maximizes density per node, the paper's
    /// pods-per-node axis.
    BinPack,
    /// Spread across nodes (fewest pods, then most available memory):
    /// kube-scheduler's default `LeastAllocated` flavor.
    #[default]
    Spread,
    /// Avoid contended nodes (fewest throttle events, then spread): routes
    /// around cgroup cpu/io pressure that pod counts don't show.
    LeastThrottled,
}

impl Policy {
    pub const ALL: [Policy; 3] = [Policy::BinPack, Policy::Spread, Policy::LeastThrottled];

    pub fn label(self) -> &'static str {
        match self {
            Policy::BinPack => "binpack",
            Policy::Spread => "spread",
            Policy::LeastThrottled => "least-throttled",
        }
    }

    /// `true` when `a` places better than `b` under this policy. Strict:
    /// equal scores fall through to the caller's lowest-index tie-break.
    fn prefers(self, a: &NodeSnapshot, b: &NodeSnapshot) -> bool {
        match self {
            Policy::BinPack => (b.pods, a.available) < (a.pods, b.available),
            Policy::Spread => (a.pods, b.available) < (b.pods, a.available),
            Policy::LeastThrottled => {
                (a.throttle_events, a.pods, b.available) < (b.throttle_events, b.pods, a.available)
            }
        }
    }
}

/// The cluster's scheduler: a policy plus the decision procedure.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scheduler {
    pub policy: Policy,
}

impl Scheduler {
    pub fn new(policy: Policy) -> Scheduler {
        Scheduler { policy }
    }

    /// Choose a node for one pod: snapshot every node, drop infeasible
    /// ones (cordoned or at max-pods), pick the policy's best with the
    /// lowest node index breaking ties. `None` means the cluster is full.
    pub fn place(&self, nodes: &[Node]) -> Option<usize> {
        let with_throttle = self.policy == Policy::LeastThrottled;
        self.place_from(nodes.iter().map(|n| NodeSnapshot::observe_with(n, with_throttle)))
    }

    /// [`Scheduler::place`] on pre-taken snapshots, in ascending node
    /// index (testable without a booted cluster).
    pub fn place_from(&self, snapshots: impl IntoIterator<Item = NodeSnapshot>) -> Option<usize> {
        let mut best: Option<NodeSnapshot> = None;
        for s in snapshots.into_iter().filter(NodeSnapshot::feasible) {
            // Ascending index, strict preference: first best wins ties.
            if best.is_none_or(|b| self.policy.prefers(&s, &b)) {
                best = Some(s);
            }
        }
        best.map(|s| s.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(index: usize, pods: usize, available: u64, throttle: u64) -> NodeSnapshot {
        NodeSnapshot {
            index,
            schedulable: true,
            pods,
            max_pods: 500,
            available,
            throttle_events: throttle,
        }
    }

    #[test]
    fn binpack_fills_fullest_first() {
        let s = Scheduler::new(Policy::BinPack);
        let snaps = [snap(0, 3, 100, 0), snap(1, 7, 100, 0), snap(2, 5, 100, 0)];
        assert_eq!(s.place_from(snaps), Some(1));
    }

    #[test]
    fn spread_picks_emptiest() {
        let s = Scheduler::new(Policy::Spread);
        let snaps = [snap(0, 3, 100, 0), snap(1, 7, 100, 0), snap(2, 1, 100, 0)];
        assert_eq!(s.place_from(snaps), Some(2));
    }

    #[test]
    fn spread_breaks_pod_ties_on_memory() {
        let s = Scheduler::new(Policy::Spread);
        let snaps = [snap(0, 2, 100, 0), snap(1, 2, 900, 0)];
        assert_eq!(s.place_from(snaps), Some(1));
    }

    #[test]
    fn least_throttled_routes_around_pressure() {
        let s = Scheduler::new(Policy::LeastThrottled);
        let snaps = [snap(0, 1, 100, 50), snap(1, 4, 100, 0)];
        assert_eq!(s.place_from(snaps), Some(1));
    }

    #[test]
    fn ties_resolve_to_lowest_index() {
        for policy in Policy::ALL {
            let s = Scheduler::new(policy);
            let snaps = [snap(0, 2, 100, 1), snap(1, 2, 100, 1), snap(2, 2, 100, 1)];
            assert_eq!(s.place_from(snaps), Some(0), "{}", policy.label());
        }
    }

    #[test]
    fn cordoned_and_full_nodes_are_skipped() {
        let s = Scheduler::new(Policy::Spread);
        let mut cordoned = snap(0, 0, 100, 0);
        cordoned.schedulable = false;
        let mut full = snap(1, 500, 100, 0);
        full.max_pods = 500;
        let snaps = [cordoned, full, snap(2, 9, 100, 0)];
        assert_eq!(s.place_from(snaps), Some(2));
        assert_eq!(s.place_from(snaps[..2].iter().copied()), None);
    }
}
