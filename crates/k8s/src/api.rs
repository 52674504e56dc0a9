//! Kubernetes API objects (the subset the experiments use).

use simkernel::{CgroupId, Duration, Phase, SimTime, StepTrace};

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

/// A pod specification: one container per pod, as in the paper's
/// experiments (Table II: "1 container per pod").
#[derive(Debug, Clone, Default)]
pub struct PodSpec {
    pub name: String,
    /// Image reference for the single container.
    pub image: String,
    /// Runtime class name registered with containerd.
    pub runtime_class: String,
    /// Optional memory limit (resources.limits.memory).
    pub memory_limit: Option<u64>,
    /// Optional `cpu.max` quota as `(quota_ns, period_ns)` applied to the
    /// pod's cgroup: the guest is throttled to quota/period of each period,
    /// stretching its wall time and shrinking its epoch-watchdog allowance.
    pub cpu_max: Option<(u64, u64)>,
    /// Optional per-window cold-read byte budget applied to the pod's
    /// cgroup (windows are [`simkernel::IO_WINDOW_NS`] long): reads past
    /// the budget queue for the next window.
    pub io_read_budget: Option<u64>,
    /// Liveness probe: consecutive failures interrupt the guest and route
    /// the pod into restart supervision.
    pub liveness_probe: Option<ProbeSpec>,
    /// Readiness probe: gates the pod's contribution to cluster readiness.
    pub readiness_probe: Option<ProbeSpec>,
    /// `terminationGracePeriodSeconds`: how long `remove_pod` waits between
    /// SIGTERM and SIGKILL for containers that do not terminate promptly.
    /// `None` uses the Kubernetes default (30s).
    pub termination_grace: Option<Duration>,
}

/// Pod lifecycle phase.
///
/// Beyond the classic four, the kubelet's supervision loop surfaces the
/// recovery states of the fault model: a pod OOM-killed by the kernel, a
/// pod evicted for node pressure, and a pod waiting out its restart
/// backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PodPhase {
    Pending,
    Running,
    /// Terminal: the pod cannot be (re)started — configuration error or
    /// restart policy exhausted.
    Failed,
    Terminated,
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
    /// lifecycle phase each step belongs to.
    pub trace: StepTrace,
    /// Captured workload stdout.
    pub stdout: Vec<u8>,
}

/// A set of pods deployed together (the paper's 10–400 container runs).
#[derive(Debug, Default)]
pub struct Deployment {
    pub pods: Vec<PodRecord>,
}

impl Deployment {
    pub fn len(&self) -> usize {
        self.pods.len()
    }

    pub fn is_empty(&self) -> bool {
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
    pub image: String,
    pub runtime_class: String,
    /// Desired replica count.
    pub replicas: usize,
    /// `maxSurge`: extra pods allowed above `replicas` during a rolling
    /// update.
    pub max_surge: usize,
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
        image: impl Into<String>,
        runtime_class: impl Into<String>,
        replicas: usize,
    ) -> DeploymentSpec {
        DeploymentSpec {
            name: name.into(),
            image: image.into(),
            runtime_class: runtime_class.into(),
            replicas,
            max_surge: 1,
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
/// `reconcile_controller` / `rolling_update` / `autoscale` methods drive
/// it.
#[derive(Debug, Clone)]
pub struct DeploymentController {
    pub spec: DeploymentSpec,
    /// Current template revision; bumped by rolling updates.
    pub revision: u32,
    /// Replicas the controller believes exist.
    pub replicas: Vec<ReplicaEntry>,
    /// Monotonic ordinal so replacement pods never reuse a name.
    pub next_ordinal: u64,
}

impl DeploymentController {
    pub fn new(spec: DeploymentSpec) -> DeploymentController {
        DeploymentController { spec, revision: 1, replicas: Vec::new(), next_ordinal: 0 }
    }

    /// Mint the next pod name for the given revision.
    pub fn next_pod_name(&mut self, revision: u32) -> String {
        let ordinal = self.next_ordinal;
        self.next_ordinal += 1;
        format!("{}-r{}-{}", self.spec.name, revision, ordinal)
    }

    /// Replicas created from a revision older than the current one.
    pub fn stale(&self) -> impl Iterator<Item = &ReplicaEntry> {
        let rev = self.revision;
        self.replicas.iter().filter(move |r| r.revision < rev)
    }
}

/// Horizontal pod autoscaler policy for one controller.
#[derive(Debug, Clone, Copy)]
pub struct HpaSpec {
    pub min_replicas: usize,
    pub max_replicas: usize,
    /// Scale so that average working set per pod approaches this target
    /// (the metrics-server signal; `desired = ceil(live × avg / target)`).
    pub target_working_set: Option<u64>,
    /// Scale up while average cpu-throttle events per pod exceed this
    /// rate (the cgroup pressure signal).
    pub target_cpu_throttle: Option<u64>,
    /// Scale up while the service's mean endpoint queue depth (thousandths,
    /// from [`crate::service::ServiceSignal`]) exceeds this — the
    /// request-path pressure signal.
    pub target_queue_depth_x1000: Option<u64>,
    /// Scale up while the service's observed p99 latency exceeds this
    /// many nanoseconds (the latency SLO signal).
    pub target_p99_ns: Option<u64>,
}

/// What one HPA evaluation observed and decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HpaDecision {
    /// Average working set per live pod at evaluation time.
    pub observed_working_set: u64,
    /// Average cpu-throttle events per live pod at evaluation time.
    pub observed_cpu_throttle: u64,
    /// Replicas before.
    pub from: usize,
    /// Replicas after (clamped to `[min_replicas, max_replicas]`).
    pub to: usize,
}

/// Outcome of one rolling-update round ([`crate::Cluster::rollout_step`]):
/// what the surge/retire pass did and whether the rollout has converged.
/// [`crate::Cluster::rolling_update`] is a loop of these; callers that
/// need to interleave other cluster events with a rollout (a drain racing
/// an update, chaos schedules) drive the steps themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RolloutStep {
    /// New-revision pods created this round.
    pub created: usize,
    /// Old-revision pods deleted this round.
    pub deleted: usize,
    /// Every replica on the new revision and ready.
    pub done: bool,
}

/// Outcome of a rolling update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RolloutReport {
    /// New-revision pods created.
    pub created: usize,
    /// Old-revision pods deleted.
    pub deleted: usize,
    /// Reconcile rounds the rollout took.
    pub rounds: usize,
    /// All replicas on the new revision and ready within the round budget.
    pub converged: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployment_counts() {
        let mut d = Deployment::default();
        assert!(d.is_empty());
        d.pods.push(PodRecord {
            spec: PodSpec {
                name: "p".into(),
                image: "i".into(),
                runtime_class: "c".into(),
                ..Default::default()
            },
            phase: PodPhase::Running,
            pod_cgroup: CgroupId(1),
            node: 0,
            dispatched_at: SimTime::ZERO,
            trace: StepTrace::new(),
            stdout: vec![],
        });
        assert_eq!(d.len(), 1);
        assert_eq!(d.running(), 1);
    }

    #[test]
    fn mean_phase_busy_averages_over_pods() {
        use simkernel::Step;
        let mut d = Deployment::default();
        for i in 0..2u64 {
            let mut trace = StepTrace::new();
            trace.push(Phase::Cni, Step::Cpu(Duration::from_micros(100 * (i + 1))));
            d.pods.push(PodRecord {
                spec: PodSpec {
                    name: format!("p{i}"),
                    image: "i".into(),
                    runtime_class: "c".into(),
                    ..Default::default()
                },
                phase: PodPhase::Running,
                pod_cgroup: CgroupId(1),
                node: 0,
                dispatched_at: SimTime::ZERO,
                trace,
                stdout: vec![],
            });
        }
        let means = d.mean_phase_busy();
        assert_eq!(means[Phase::Cni.index()], Duration::from_micros(150));
        assert_eq!(means[Phase::Exec.index()], Duration::ZERO);
    }
}
