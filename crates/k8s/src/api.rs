//! Kubernetes API objects (the subset the experiments use).

use std::sync::Arc;

use simkernel::{CgroupId, Duration, Phase, SimTime};

/// A kubelet health probe (`livenessProbe` / `readinessProbe`): fired on
/// the simulated clock from the kubelet's reconcile loop as CRI probe RPCs
/// against the pod's containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSpec {
    /// `initialDelaySeconds`: quiet window after the container starts
    /// before the first probe fires.
    pub initial_delay: Duration,
    /// `periodSeconds`: interval between probe firings.
    pub period: Duration,
    /// `failureThreshold`: consecutive failures before the probe verdict
    /// flips (liveness: kill and restart; readiness: unready).
    pub failure_threshold: u32,
}

impl Default for ProbeSpec {
    /// Kubernetes defaults: no initial delay, 10s period, 3 failures.
    fn default() -> Self {
        ProbeSpec {
            initial_delay: Duration::ZERO,
            period: Duration::from_secs(10),
            failure_threshold: 3,
        }
    }
}

impl ProbeSpec {
    /// The watchdog window this probe grants a guest before the kubelet
    /// would declare it dead: `period × failureThreshold`. The kubelet arms
    /// the container's epoch watchdog with this budget so a wedged guest is
    /// parked (interrupted, memory retained) rather than spinning forever.
    pub fn watchdog_budget(&self) -> Duration {
        Duration::from_nanos(self.period.as_nanos().saturating_mul(self.failure_threshold as u64))
    }
}

/// What every pod of one deployment shares: made once per `deploy_with`
/// call, and once per revision by a controller.
#[derive(Debug, Default)]
pub(crate) struct PodTemplate {
    pub(crate) image: Arc<str>,
    /// Runtime class name registered with containerd.
    pub(crate) runtime_class: Arc<str>,
    /// Limits, probes and grace period.
    pub(crate) opts: crate::cluster::DeployOpts,
}

/// A pod specification: one container per pod, as in the paper's
/// experiments (Table II: "1 container per pod"), and its template.
#[derive(Debug, Clone, Default)]
pub struct PodSpec {
    pub name: String,
    pub(crate) template: Arc<PodTemplate>,
}

impl PodSpec {
    /// The pod's image reference, from its template.
    pub fn image(&self) -> &str {
        &self.template.image
    }

    /// Limits, probes and grace period, from its template.
    pub(crate) fn opts(&self) -> &crate::cluster::DeployOpts {
        &self.template.opts
    }
}

// One per resident pod, a second per supervised one.
const _: () = assert!(std::mem::size_of::<PodSpec>() <= 32);

/// Pod lifecycle phase.
///
/// Beyond Running and Failed, the kubelet's supervision loop
/// surfaces the recovery states of the fault model: a pod OOM-killed by
/// the kernel, a pod evicted for node pressure, and a pod waiting out its
/// restart backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PodPhase {
    Running,
    /// Terminal: the pod cannot be (re)started — configuration error or
    /// restart policy exhausted.
    Failed,
    /// Waiting out the exponential restart backoff after failed starts.
    CrashLoopBackOff,
    /// Removed by node-pressure eviction (terminal: never restarted).
    Evicted,
    /// Backing processes were killed by the kernel's OOM killer; a restart
    /// is pending if the pod is supervised.
    OomKilled,
}

/// A deployed pod's record.
#[derive(Debug)]
pub struct PodRecord {
    pub spec: PodSpec,
    pub phase: PodPhase,
    /// The pod's cgroup (what the metrics-server scrapes).
    pub pod_cgroup: CgroupId,
    /// Index of the node the scheduler placed this pod on.
    pub node: usize,
    /// When the scheduler dispatched this pod to the kubelet.
    pub dispatched_at: SimTime,
    /// The pod's startup program (for the DES latency run), tagged with the
    /// lifecycle phase each step belongs to: a handle to its node's copy.
    pub trace: crate::kubelet::Program,
    /// Captured workload stdout.
    pub stdout: Vec<u8>,
}

// A deployment holds one per pod, 10 000 in the benchmark's densest pass.
const _: () = assert!(std::mem::size_of::<PodRecord>() <= 96);

/// A set of pods deployed together (the paper's 10–400 container runs).
#[derive(Debug, Default)]
pub struct Deployment {
    pub pods: Vec<PodRecord>,
}

impl Deployment {
    pub fn len(&self) -> usize {
        self.pods.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pods.is_empty()
    }

    pub fn running(&self) -> usize {
        self.pods.iter().filter(|p| p.phase == PodPhase::Running).count()
    }

    /// Mean per-pod busy time (CPU + I/O) charged to each lifecycle phase,
    /// indexed as [`Phase::ALL`] — the serial per-phase startup breakdown
    /// behind the harness's `fig8_phases` report.
    pub fn mean_phase_busy(&self) -> [Duration; Phase::ALL.len()] {
        let mut totals = [0u64; Phase::ALL.len()];
        for pod in &self.pods {
            for (i, d) in pod.trace.phase_busy().iter().enumerate() {
                totals[i] += d.as_nanos();
            }
        }
        let n = self.pods.len().max(1) as u64;
        let mut means = [Duration::ZERO; Phase::ALL.len()];
        for (i, t) in totals.iter().enumerate() {
            means[i] = Duration::from_nanos(t / n);
        }
        means
    }
}

/// Specification of a controller-managed deployment: what a Kubernetes
/// `Deployment` object declares. The cluster's controller loop
/// ([`crate::Cluster::reconcile_controller`]) converges the world onto it.
#[derive(Debug, Clone)]
pub struct DeploymentSpec {
    /// Pod-name prefix (`{name}-r{revision}-{ordinal}`).
    pub name: String,
    pub image: Arc<str>,
    pub(crate) runtime_class: Arc<str>,
    /// Desired replica count.
    pub replicas: usize,
    /// `maxUnavailable`: pods that may be not-ready below `replicas`
    /// during a rolling update.
    pub max_unavailable: usize,
    /// Per-pod fault-tolerance knobs (restart policy is forced to
    /// `Always`: a controller supervises its pods).
    pub opts: crate::cluster::DeployOpts,
}

impl DeploymentSpec {
    pub fn new(
        name: impl Into<String>,
        image: impl Into<Arc<str>>,
        runtime_class: impl Into<Arc<str>>,
        replicas: usize,
    ) -> DeploymentSpec {
        DeploymentSpec {
            name: name.into(),
            image: image.into(),
            runtime_class: runtime_class.into(),
            replicas,
            max_unavailable: 0,
            opts: crate::cluster::DeployOpts::default(),
        }
    }
}

/// One controller-owned replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaEntry {
    /// Pod name on the owning node's kubelet.
    pub pod: String,
    /// Node index the scheduler placed it on.
    pub node: usize,
    /// Template revision the pod was created from.
    pub revision: u32,
}

/// A Deployment controller: desired state plus the replicas it owns.
///
/// The controller is plain bookkeeping — every state change goes through
/// the cluster (scheduler placement, kubelet sync/removal); the cluster's
/// `reconcile_controller` / `rollout_step` / `autoscale` methods drive
/// it.
#[derive(Debug, Clone)]
pub struct DeploymentController {
    pub spec: DeploymentSpec,
    /// Current template revision; bumped by rolling updates.
    pub(crate) revision: u32,
    /// Replicas the controller believes exist.
    pub replicas: Vec<ReplicaEntry>,
    /// Monotonic ordinal so replacement pods never reuse a name.
    pub(crate) next_ordinal: u64,
    /// The current revision's pod template, made for its first replica and
    /// shared by the rest; [`crate::Cluster::begin_rolling_update`] drops it.
    pub(crate) template: Option<Arc<PodTemplate>>,
}

impl DeploymentController {
    pub fn new(spec: DeploymentSpec) -> DeploymentController {
        Self { spec, revision: 1, replicas: Vec::new(), next_ordinal: 0, template: None }
    }

    /// Mint the next pod name for the given revision.
    pub(crate) fn next_pod_name(&mut self, revision: u32) -> String {
        let ordinal = self.next_ordinal;
        self.next_ordinal += 1;
        format!("{}-r{}-{}", self.spec.name, revision, ordinal)
    }
}

/// Horizontal pod autoscaler policy for one controller: scale up on the
/// request-path pressure signal ([`crate::Cluster::autoscale`]).
#[derive(Debug, Clone, Copy)]
pub struct HpaSpec {
    /// Replicas the HPA never scales past.
    pub max_replicas: usize,
    /// Add a replica while the service's mean endpoint queue depth, in
    /// thousandths, exceeds this.
    pub target_queue_depth_x1000: u64,
}

/// Outcome of one rolling-update round ([`crate::Cluster::rollout_step`]):
/// what the surge/retire pass did and whether the rollout has converged.
/// Callers drive the rounds themselves, so other cluster events (a drain
/// racing an update, live traffic) can interleave with a rollout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RolloutStep {
    /// New-revision pods created this round.
    pub created: usize,
    /// Old-revision pods deleted this round.
    pub(crate) deleted: usize,
    /// Every replica on the new revision and ready.
    pub done: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployment_counts() {
        let mut d = Deployment::default();
        assert!(d.is_empty());
        d.pods.push(PodRecord {
            spec: PodSpec { name: "p".into(), ..Default::default() },
            phase: PodPhase::Running,
            pod_cgroup: CgroupId(1),
            node: 0,
            dispatched_at: SimTime::ZERO,
            trace: Default::default(),
            stdout: vec![],
        });
        assert_eq!(d.len(), 1);
        assert_eq!(d.running(), 1);
    }

    #[test]
    fn mean_phase_busy_averages_over_pods() {
        use simkernel::{Step, StepTrace};
        let mut d = Deployment::default();
        for i in 0..2u64 {
            let mut trace = StepTrace::new();
            trace.push(Phase::Cni, Step::Cpu(Duration::from_micros(100 * (i + 1))));
            d.pods.push(PodRecord {
                spec: PodSpec { name: format!("p{i}"), ..Default::default() },
                phase: PodPhase::Running,
                pod_cgroup: CgroupId(1),
                node: 0,
                dispatched_at: SimTime::ZERO,
                trace: trace.into(),
                stdout: vec![],
            });
        }
        let means = d.mean_phase_busy();
        assert_eq!(means[Phase::Cni.index()], Duration::from_micros(150));
        assert_eq!(means[Phase::Exec.index()], Duration::ZERO);
    }
}
