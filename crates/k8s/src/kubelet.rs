//! The kubelet: node agent syncing pods through the CRI.
//!
//! Models the parts of kubelet that shape the paper's measurements:
//!
//! * a resident daemon whose heap grows per pod (visible to `free`, not to
//!   pod metrics);
//! * the pod sync pipeline — API watch, sandbox, CNI network setup, volume
//!   setup, CRI round-trips — whose largely runtime-independent latency is
//!   why Fig. 8's ten-container runs differ between runtimes by only a few
//!   percent;
//! * per-pod infrastructure charged to the pod cgroup (tmpfs volumes,
//!   service-account token, log buffers);
//! * the **max-pods limit**: Kubernetes defaults to 110 pods per node; the
//!   paper's §III-C extension raises it to 500 to run the density
//!   experiments. [`NodeConfig::paper_extension`] reproduces that setting.

use std::sync::Arc;

use containerd_sim::Containerd;
use oci_spec_lite::WATCHDOG_BUDGET_ANNOTATION;
use simkernel::image::grow_anon;
use simkernel::{
    CgroupId, Duration, Kernel, KernelError, KernelResult, MappingId, Phase, Pid, ProcState,
    ProcessImage, SimTime, Step, StepTrace,
};

use crate::api::{PodPhase, PodRecord, PodSpec, ProbeSpec};

/// Node-level kubelet configuration.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Maximum pods schedulable on this node.
    pub max_pods: usize,
    /// Sustained-pressure eviction: a Running pod whose cgroup shows at
    /// least this many cpu-throttle + io-throttle events is evicted with a
    /// distinct reason ([`PodEntry::pressure_evicted`]). `None` (the
    /// default) disables the stage entirely, so existing paths see no
    /// behavior change.
    pub pressure_eviction_threshold: Option<u64>,
}

impl Default for NodeConfig {
    /// Stock kubelet: 110 pods.
    fn default() -> Self {
        NodeConfig { max_pods: 110, pressure_eviction_threshold: None }
    }
}

impl NodeConfig {
    /// The paper's cluster extension: up to 500 pods per node (§III-C).
    pub fn paper_extension() -> Self {
        NodeConfig { max_pods: 500, ..Default::default() }
    }
}

/// Node-pressure eviction threshold: when the node's available memory drops
/// below this, [`Kubelet::reconcile`] evicts best-effort pods (newest first)
/// until pressure clears. The paper's experiments never reach it on the
/// 256 GiB testbed, so the figure paths are unaffected.
const EVICTION_THRESHOLD: u64 = 100 << 20;

/// Latency constants of the pod sync pipeline (runtime-independent).
mod cost {
    use simkernel::Duration;

    /// API server watch/dispatch round trip per pod.
    pub(crate) const API_DISPATCH: Duration = Duration::from_millis(300);
    /// kubelet work-queue latency: sync batching, per-pod backoff.
    pub(crate) const QUEUE_IO: Duration = Duration::from_millis(800);
    /// kubelet sync-loop processing.
    pub(crate) const SYNC_CPU: Duration = Duration::from_millis(3);
    /// CNI ADD (veth, IPAM, routes).
    pub(crate) const CNI_IO: Duration = Duration::from_millis(900);
    pub(crate) const CNI_CPU: Duration = Duration::from_millis(2);
    /// Volume/token mount setup.
    pub(crate) const VOLUMES_IO: Duration = Duration::from_millis(85);
    /// One CRI RPC round trip (kubelet ↔ containerd).
    pub(crate) const CRI_RPC: Duration = Duration::from_millis(28);
}

/// Kubernetes default `terminationGracePeriodSeconds`.
pub(crate) const DEFAULT_TERMINATION_GRACE: Duration = Duration::from_secs(30);

/// Per-pod infrastructure in the pod cgroup: tmpfs volumes, the projected
/// service-account token, container log buffers.
pub(crate) const POD_INFRA_BYTES: u64 = 1_600 << 10;
/// kubelet heap growth per managed pod.
pub(crate) const KUBELET_GROWTH_PER_POD: u64 = 260 << 10;
/// kubelet baseline footprint.
const KUBELET_BINARY: &str = "/usr/bin/kubelet";
const KUBELET_BINARY_SIZE: u64 = 110 << 20;
const KUBELET_HEAP: u64 = 70 << 20;

/// Whether the kubelet restarts a pod's containers after a failure
/// (Kubernetes `restartPolicy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestartPolicy {
    /// Fail fast: the first sync error aborts the deploy. This is the
    /// strict path every figure experiment uses.
    #[default]
    Never,
    /// Absorb failures into a CrashLoopBackOff entry and retry with
    /// exponential backoff from [`Kubelet::reconcile`].
    Always,
}

/// Runtime state of one armed probe: when it next fires and how many
/// consecutive failures it has seen.
#[derive(Debug, Clone, Copy)]
struct ProbeState {
    due: SimTime,
    failures: u32,
}

impl ProbeState {
    fn arm(spec: &ProbeSpec, now: SimTime) -> ProbeState {
        ProbeState { due: now + spec.initial_delay, failures: 0 }
    }
}

/// A pod start's finished program: a handle to its node's copy
/// ([`Kubelet::intern`]), compared by pointer first. The default, held by a
/// supervised pod that has not started, allocates nothing and reads empty.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program(Option<Arc<StepTrace>>);

impl std::ops::Deref for Program {
    type Target = StepTrace;

    fn deref(&self) -> &StepTrace {
        static EMPTY: StepTrace = StepTrace::new();
        self.0.as_deref().unwrap_or(&EMPTY)
    }
}

/// A pod under kubelet supervision ([`RestartPolicy::Always`]): survives
/// sync failures and OOM kills as a table entry whose phase tracks the
/// recovery state machine.
#[derive(Debug, Clone)]
pub struct PodEntry {
    pub spec: PodSpec,
    /// Admission order (monotonic). Node-pressure eviction removes the
    /// *newest* best-effort pod first, so this is the eviction key.
    pub(crate) seq: u64,
    pub phase: PodPhase,
    /// Consecutive failed sync/restart attempts since the last success —
    /// the exponent of the backoff schedule.
    pub failures: u32,
    /// Successful restarts over the pod's lifetime.
    pub restarts: u32,
    /// When the next restart attempt is due on the simulated clock.
    pub next_restart_at: Option<SimTime>,
    /// Stdout captured by the most recent successful start.
    pub stdout: Vec<u8>,
    /// Readiness gate: true when the pod counts toward cluster readiness.
    /// Pods without a readiness probe are ready whenever they are Running;
    /// probed pods earn it with a successful probe and lose it after
    /// `failureThreshold` consecutive failures.
    pub ready: bool,
    /// The pod was evicted for sustained cpu/io throttle pressure (distinct
    /// from the memory-pressure `Evicted` reason).
    pub pressure_evicted: bool,
    /// Startup program of the most recent successful sync (the DES replay
    /// input for supervised pods, mirroring `PodRecord::trace`).
    pub trace: Program,
    /// Dispatch time of the most recent successful sync.
    pub dispatched_at: SimTime,
    /// The most recent start wedged on its watchdog budget: the guest was
    /// epoch-interrupted and parked. Only the probe machinery may act on
    /// this — detection must flow through liveness, not this flag.
    wedged: bool,
    liveness: Option<ProbeState>,
    readiness: Option<ProbeState>,
}

impl PodEntry {
    /// Enter a failure phase — the only place one is written.
    /// `OomKilled` and `CrashLoopBackOff` schedule the next restart on the
    /// backoff schedule; `Evicted` and `Failed` are terminal. Both gates
    /// drop: nothing reads them outside `Running`, and the next start
    /// re-arms them.
    fn fail(&mut self, phase: PodPhase, now: SimTime) {
        self.phase = phase;
        self.ready = false;
        self.wedged = false;
        self.next_restart_at = match phase {
            PodPhase::OomKilled | PodPhase::CrashLoopBackOff => {
                let at = now + Kubelet::backoff_delay(self.failures);
                self.failures += 1;
                Some(at)
            }
            _ => None,
        };
    }
}

/// Why [`Kubelet::reconcile`] takes a Running pod down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// A backing process was OOM-killed.
    OomKilled,
    /// The liveness probe crossed its failure threshold.
    ProbeKilled,
    /// Node memory pressure.
    Evicted,
    /// Sustained cpu/io throttle pressure.
    PressureEvicted,
}

/// What one [`Kubelet::reconcile`] pass did.
#[derive(Debug, Default)]
pub struct ReconcileReport {
    /// Pods detected OOM-killed and torn down this pass.
    pub oom_killed: Vec<String>,
    /// Pods evicted for node pressure this pass (terminal).
    pub evicted: Vec<String>,
    /// Pods evicted for sustained cpu/io throttle pressure this pass
    /// (terminal, distinct reason).
    pub pressure_evicted: Vec<String>,
    /// Pods successfully restarted this pass.
    pub restarted: Vec<String>,
    /// Pods whose restart attempt failed again (backoff extended).
    pub(crate) backoff: Vec<String>,
    /// Pods whose liveness probe crossed its failure threshold this pass:
    /// the guest was epoch-interrupted, the pod torn down, and a backoff
    /// restart scheduled.
    pub probe_killed: Vec<String>,
}

impl ReconcileReport {
    /// Nothing was detected, evicted, or restarted this pass.
    pub fn quiet(&self) -> bool {
        self.oom_killed.is_empty()
            && self.evicted.is_empty()
            && self.pressure_evicted.is_empty()
            && self.restarted.is_empty()
            && self.backoff.is_empty()
            && self.probe_killed.is_empty()
    }
}

/// The node agent.
pub struct Kubelet {
    kernel: Kernel,
    pub(crate) config: NodeConfig,
    pub(crate) pid: Pid,
    /// The daemon's heap, which its per-pod bookkeeping grows in place.
    heap: MappingId,
    /// Pseudo-processes holding per-pod infrastructure charges.
    infra_procs: std::collections::BTreeMap<String, Pid>,
    /// Supervised pods (admitted with [`RestartPolicy::Always`]).
    pods: std::collections::BTreeMap<String, PodEntry>,
    /// Running count of `pods` entries with no `infra_procs` entry
    /// (supervised, resources torn down between restarts). Kept in step at
    /// the four sites that insert into or remove from either table.
    torn_down: usize,
    next_seq: u64,
    pods_synced: usize,
    /// [`Kernel::oom_kills`] as read at the top of the last reconcile pass.
    oom_kills_seen: u64,
    /// The start programs this node's pods hold, one allocation each.
    programs: Vec<Arc<StepTrace>>,
}

impl Kubelet {
    /// Start the kubelet daemon in the system cgroup.
    pub(crate) fn start(
        kernel: Kernel,
        system_cgroup: CgroupId,
        config: NodeConfig,
    ) -> KernelResult<Kubelet> {
        kernel.ensure_file(
            KUBELET_BINARY,
            simkernel::vfs::FileContent::Synthetic(KUBELET_BINARY_SIZE),
        )?;
        // Resident daemon: a third of the Go binary's text plus its heap.
        // Ownership moves to the Kubelet value (the node never stops it).
        let daemon = ProcessImage::spawn(&kernel, "kubelet", system_cgroup)
            .text(KUBELET_BINARY, KUBELET_BINARY_SIZE, KUBELET_BINARY_SIZE / 3, "kubelet")
            .heap(KUBELET_HEAP, "kubelet-heap")
            .build()?;
        let (heap, pid) = (daemon.heap().expect("the image has a heap"), daemon.detach());
        Ok(Kubelet {
            kernel,
            config,
            pid,
            heap,
            infra_procs: Default::default(),
            pods: Default::default(),
            torn_down: 0,
            next_seq: 0,
            pods_synced: 0,
            oom_kills_seen: 0,
            programs: Vec::new(),
        })
    }

    /// A deep copy of the kubelet's tables supervising `kernel`, a
    /// [`Kernel::fork`] of this kubelet's (pids carry over).
    pub(crate) fn fork(&self, kernel: Kernel) -> Kubelet {
        Kubelet {
            kernel,
            config: self.config.clone(),
            infra_procs: self.infra_procs.clone(),
            pods: self.pods.clone(),
            programs: self.programs.clone(),
            // The daemon's pid and heap and the counters: plain `Copy` values.
            ..*self
        }
    }

    /// Number of pods currently managed.
    pub fn pod_count(&self) -> usize {
        self.infra_procs.len()
    }

    /// Pods successfully synced to Running since the kubelet started
    /// (monotonic; unaffected by teardown).
    pub(crate) fn pods_synced(&self) -> usize {
        self.pods_synced
    }

    /// Pods occupying an admission slot on this node: every synced pod
    /// (supervised or not) plus supervised entries between restarts whose
    /// resources are torn down. This is the count the scheduler holds
    /// against [`NodeConfig::max_pods`].
    pub(crate) fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.torn_down,
            self.pods.keys().filter(|k| !self.infra_procs.contains_key(*k)).count()
        );
        self.infra_procs.len() + self.torn_down
    }

    /// Supervised pod entries, in name order.
    pub fn managed(&self) -> impl Iterator<Item = &PodEntry> {
        self.pods.values()
    }

    /// One supervised pod's entry.
    pub fn managed_pod(&self, name: &str) -> Option<&PodEntry> {
        self.pods.get(name)
    }

    /// Names of every supervised pod, in name order (drain/teardown paths
    /// collect these before removing pods one by one).
    pub fn managed_names(&self) -> Vec<String> {
        self.pods.keys().cloned().collect()
    }

    /// Delay before restart attempt `n` (0-based) of a crash-looping pod:
    /// kubelet's standard exponential schedule, 10s · 2ⁿ capped at 5
    /// minutes — 10s, 20s, 40s, 80s, 160s, 300s, 300s, …
    pub(crate) fn backoff_delay(n: u32) -> Duration {
        const CAP_SECS: u64 = 300;
        // 10 · 2⁵ is past the cap already; capping the exponent keeps the
        // shift from pushing the set bits out (10 << 63 wraps to 0).
        Duration::from_secs((10u64 << n.min(5)).min(CAP_SECS))
    }

    /// Whether a sync error is worth retrying: injected transient faults
    /// and memory pressure can clear; everything else (unknown class, bad
    /// image, node full) is a configuration error that a restart cannot
    /// fix.
    fn retryable(e: &KernelError) -> bool {
        matches!(e, KernelError::FaultInjected(_) | KernelError::OutOfMemory { .. })
    }

    /// True when every supervised pod is in a steady phase (Running or a
    /// terminal phase) with no restart pending and no probe verdict still
    /// in flight — the chaos harness's convergence condition. A Running pod
    /// is *not* steady while its readiness probe holds it unready, or while
    /// its guest sits wedged under a liveness probe that will eventually
    /// fire the detect → interrupt → restart path.
    pub fn settled(&self) -> bool {
        self.pods.values().all(|e| {
            e.next_restart_at.is_none()
                && match e.phase {
                    PodPhase::Evicted | PodPhase::Failed => true,
                    PodPhase::Running => {
                        (e.ready || e.spec.opts().readiness_probe.is_none())
                            && !(e.wedged && e.spec.opts().liveness_probe.is_some())
                    }
                    _ => false,
                }
        })
    }

    /// Earliest pending deadline across supervised pods: restart backoffs,
    /// plus probe firings that still have a verdict to deliver (readiness
    /// lost, or a wedged guest awaiting liveness detection). Steady-state
    /// probes against settled pods are excluded — they fire forever and
    /// would otherwise keep the chaos loop spinning.
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        self.pods
            .values()
            .flat_map(|e| {
                let mut due = [e.next_restart_at, None, None];
                if e.phase == PodPhase::Running {
                    if !e.ready && e.spec.opts().readiness_probe.is_some() {
                        due[1] = e.readiness.map(|p| p.due);
                    }
                    if e.wedged {
                        due[2] = e.liveness.map(|p| p.due);
                    }
                }
                due.into_iter().flatten()
            })
            .min()
    }

    /// Sync one pod: run the full startup pipeline through the CRI.
    /// Returns the pod record with its accumulated DES steps.
    #[expect(
        clippy::disallowed_methods,
        reason = "the pod sync applies the pod spec's cgroup limits, once per pod"
    )]
    pub(crate) fn sync_pod(
        &mut self,
        containerd: &mut Containerd,
        spec: PodSpec,
        dispatched_at: simkernel::SimTime,
    ) -> KernelResult<PodRecord> {
        if self.infra_procs.len() >= self.config.max_pods {
            let hint = if self.config.max_pods < 500 {
                " (the paper's \u{a7}III-C extension raises this to 500)"
            } else {
                ""
            };
            return Err(KernelError::InvalidState(format!(
                "node is full: max-pods {} reached{hint}",
                self.config.max_pods
            )));
        }
        // The start's one trace, which every layer below pushes into: room
        // for a crun start's ~40 steps.
        let mut trace = StepTrace::with_capacity(64);
        trace.push(Phase::ApiDispatch, Step::Io(cost::API_DISPATCH));
        trace.push(Phase::ApiDispatch, Step::Io(cost::QUEUE_IO));
        trace.push(Phase::ApiDispatch, Step::Cpu(cost::SYNC_CPU));

        // RunPodSandbox (CRI RPC + containerd work).
        trace.push(Phase::Sandbox, Step::Io(cost::CRI_RPC));
        containerd.run_pod_sandbox(&spec.name, &spec.template.runtime_class, &mut trace)?;

        // CNI and volumes happen after the sandbox exists.
        trace.push(Phase::Cni, Step::Io(cost::CNI_IO));
        trace.push(Phase::Cni, Step::Cpu(cost::CNI_CPU));
        trace.push(Phase::Volumes, Step::Io(cost::VOLUMES_IO));

        // Pod infrastructure charged to the pod cgroup: a pseudo-process
        // owned by the kubelet's infra table (removed in `remove_pod`).
        let pod_cgroup = containerd.sandbox(&spec.name).expect("sandbox just created").pod_cgroup;
        // Apply the pod's cpu/io controllers before any container runs in
        // the cgroup; pods without them never touch the controllers (the
        // figure paths stay byte-identical).
        if spec.opts().cpu_max.is_some() {
            self.kernel.cgroup_set_cpu_max(pod_cgroup, spec.opts().cpu_max)?;
        }
        if spec.opts().io_read_budget.is_some() {
            self.kernel.cgroup_set_io_read_budget(pod_cgroup, spec.opts().io_read_budget)?;
        }
        let infra_pid = ProcessImage::spawn(&self.kernel, "pod-infra", pod_cgroup)
            .heap(POD_INFRA_BYTES, "pod-infra")
            .build()?
            .detach();
        if self.infra_procs.insert(spec.name.clone(), infra_pid).is_none()
            && self.pods.contains_key(&spec.name)
        {
            self.torn_down -= 1;
        }

        // kubelet bookkeeping growth.
        grow_anon(&self.kernel, self.pid, self.heap, KUBELET_GROWTH_PER_POD)?;

        // CreateContainer + StartContainer. On failure the kubelet rolls
        // the pod back (sandbox, infra charge, bookkeeping) so a broken
        // image cannot leak node resources.
        let cid = [&spec.name, "-c0"].concat();
        // Arm the guest watchdog from the liveness-probe window: a guest
        // that would outlive `period × failureThreshold` is epoch-parked at
        // start rather than left spinning, so the probes that follow find a
        // wedged (but memory-accounted) container to act on.
        let watchdog: Vec<(String, String)> = spec
            .opts()
            .liveness_probe
            .iter()
            .map(|p| {
                (WATCHDOG_BUDGET_ANNOTATION.to_string(), p.watchdog_budget().as_nanos().to_string())
            })
            .collect();
        let started: KernelResult<Vec<u8>> = (|| {
            trace.push(Phase::RuntimeOp, Step::Io(cost::CRI_RPC));
            containerd.create_container_with(
                &spec.name,
                &cid,
                &spec.template.image,
                spec.opts().memory_limit,
                &watchdog,
                &mut trace,
            )?;
            trace.push(Phase::RuntimeOp, Step::Io(cost::CRI_RPC));
            containerd.start_container(&spec.name, &cid, &mut trace)
        })();
        let stdout = started.inspect_err(|_| {
            // Rollback is best-effort and must not shadow the original
            // sync error: a second failure mid-teardown is dropped. Any
            // supervision entry survives (reconcile retries from it).
            let _ = self.teardown_pod_resources(containerd, &spec.name);
        })?;
        self.pods_synced += 1;
        Ok(PodRecord {
            spec,
            phase: PodPhase::Running,
            pod_cgroup,
            node: 0,
            dispatched_at,
            trace: self.intern(trace),
            stdout,
        })
    }

    /// The node's handle to `trace`'s program: an equal one a pod here
    /// holds, else `trace` entered into the table. Programs only the table
    /// still holds leave it, so it never outgrows what the node's pods hold.
    fn intern(&mut self, trace: StepTrace) -> Program {
        let at = self.programs.iter().position(|p| **p == trace).unwrap_or_else(|| {
            self.programs.push(Arc::new(trace));
            self.programs.len() - 1
        });
        let shared = Arc::clone(&self.programs[at]);
        self.programs.retain(|p| Arc::strong_count(p) > 1);
        Program(Some(shared))
    }

    /// Admit a pod under supervision ([`RestartPolicy::Always`]): a failed
    /// sync is absorbed into a CrashLoopBackOff entry (retried by
    /// [`Kubelet::reconcile`] on the backoff schedule) instead of failing
    /// the deploy; a non-retryable error parks the pod as `Failed`.
    pub(crate) fn manage_pod(
        &mut self,
        containerd: &mut Containerd,
        spec: PodSpec,
        dispatched_at: SimTime,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let name = spec.name.clone();
        let synced = self.sync_pod(containerd, spec.clone(), dispatched_at);
        // The entry is what that first sync made it: `record_sync` fills in
        // a success, or moves the entry to the failure phase the error
        // implies.
        let mut entry = PodEntry {
            spec,
            seq,
            phase: PodPhase::Running,
            failures: 0,
            restarts: 0,
            next_restart_at: None,
            stdout: Vec::new(),
            ready: false,
            pressure_evicted: false,
            trace: Program::default(),
            dispatched_at,
            wedged: false,
            liveness: None,
            readiness: None,
        };
        Self::record_sync(&mut entry, synced, containerd, self.kernel.now());
        if !self.pods.contains_key(&name) && !self.infra_procs.contains_key(&name) {
            self.torn_down += 1;
        }
        self.pods.insert(name, entry);
    }

    /// Record a sync attempt on its supervision entry at time `now`: Running
    /// with the start's output and freshly armed probes, or the failure
    /// phase the error implies — CrashLoopBackOff when a retry can help,
    /// Failed when it cannot.
    fn record_sync(
        e: &mut PodEntry,
        synced: KernelResult<PodRecord>,
        containerd: &Containerd,
        now: SimTime,
    ) {
        match synced {
            Ok(record) => {
                e.phase = PodPhase::Running;
                e.failures = 0;
                e.next_restart_at = None;
                e.stdout = record.stdout;
                e.trace = record.trace;
                e.dispatched_at = record.dispatched_at;
                e.wedged = containerd.pod_wedged(&e.spec.name);
                e.ready = e.spec.opts().readiness_probe.is_none();
                e.liveness = e.spec.opts().liveness_probe.as_ref().map(|p| ProbeState::arm(p, now));
                e.readiness =
                    e.spec.opts().readiness_probe.as_ref().map(|p| ProbeState::arm(p, now));
            }
            Err(ref err) if Self::retryable(err) => e.fail(PodPhase::CrashLoopBackOff, now),
            Err(_) => e.fail(PodPhase::Failed, now),
        }
    }

    /// The one failure transition of a Running pod: stop its guest first
    /// when liveness killed it, release its node resources, and move its
    /// entry into the failure phase `fault` implies. The entry stays, so a
    /// restart re-syncs from its spec.
    #[expect(clippy::disallowed_methods, reason = "the liveness kill is a sanctioned hard kill")]
    fn fail_pod(
        &mut self,
        containerd: &mut Containerd,
        name: String,
        fault: Fault,
        now: SimTime,
        report: &mut ReconcileReport,
    ) {
        if fault == Fault::ProbeKilled {
            // Detect → interrupt → restart: the wedged (or unhealthy) guest
            // is stopped through its epoch clock before the teardown.
            let _ = containerd.interrupt_pod(&name);
        }
        let _ = self.teardown_pod_resources(containerd, &name);
        let (phase, reported) = match fault {
            Fault::OomKilled => (PodPhase::OomKilled, &mut report.oom_killed),
            Fault::ProbeKilled => (PodPhase::CrashLoopBackOff, &mut report.probe_killed),
            Fault::Evicted => (PodPhase::Evicted, &mut report.evicted),
            Fault::PressureEvicted => (PodPhase::Evicted, &mut report.pressure_evicted),
        };
        let e = self.pods.get_mut(&name).expect("a supervised pod");
        e.fail(phase, now);
        e.pressure_evicted = fault == Fault::PressureEvicted;
        reported.push(name);
    }

    /// Fire every `spec` probe due by `now` against `pod`, advancing
    /// `state` one period per firing. Returns `(passed, killed)`: whether
    /// any firing succeeded, and whether consecutive failures crossed the
    /// probe's threshold.
    fn fire_probes(
        containerd: &Containerd,
        pod: &str,
        spec: &ProbeSpec,
        state: &mut ProbeState,
        now: SimTime,
    ) -> (bool, bool) {
        let (mut passed, mut killed) = (false, false);
        while state.due <= now && !killed {
            state.due += spec.period;
            if matches!(containerd.probe(pod), Ok(true)) {
                state.failures = 0;
                passed = true;
            } else {
                state.failures += 1;
                killed = state.failures >= spec.failure_threshold;
            }
        }
        (passed, killed)
    }

    /// One pass of the supervision loop at simulated time `now`:
    ///
    /// 1. **OOM detection** — a Running pod whose backing processes (shim,
    ///    pause, container init, pod infra) show an OOM kill is torn down
    ///    and scheduled for restart on the backoff schedule.
    /// 2. **Health probes** — liveness and readiness probes due by `now`
    ///    fire as CRI RPCs. A liveness probe crossing its failure threshold
    ///    interrupts the guest via its watchdog epoch clock, tears the pod
    ///    down, and schedules a backoff restart; a readiness verdict only
    ///    toggles the pod's readiness gate.
    /// 3. **Node-pressure eviction** — while available memory is below
    ///    [`EVICTION_THRESHOLD`], the newest best-effort pod is
    ///    evicted (terminal: evicted pods are not restarted).
    /// 4. **Due restarts** — pods whose backoff deadline has passed are
    ///    re-synced from scratch; success resets the failure count, another
    ///    failure doubles the backoff.
    pub(crate) fn reconcile(
        &mut self,
        containerd: &mut Containerd,
        now: SimTime,
    ) -> ReconcileReport {
        let mut report = ReconcileReport::default();

        // No process on this node has been OOM-killed since the last pass
        // looked: skip the walk. It would find nothing — a pod's processes
        // reach `OomKilled` only through the kernel's counted teardown, and
        // a pod re-enters Running only through `sync_pod`, on fresh
        // processes. The reading is taken before the walk, so a kill that a
        // restart causes later in this pass is seen by the next one.
        let oom_kills = self.kernel.oom_kills();
        let running: Vec<String> = if oom_kills == self.oom_kills_seen {
            Vec::new()
        } else {
            self.pods
                .iter()
                .filter(|(_, e)| e.phase == PodPhase::Running)
                .map(|(n, _)| n.clone())
                .collect()
        };
        self.oom_kills_seen = oom_kills;
        for name in running {
            let infra_oomed = self.infra_procs.get(&name).is_some_and(|&pid| {
                matches!(self.kernel.proc_state(pid), Ok(ProcState::OomKilled))
            });
            if infra_oomed || containerd.pod_oom_killed(&name) {
                self.fail_pod(containerd, name, Fault::OomKilled, now, &mut report);
            }
        }

        // Health probes: every Running pod's due probes fire in pod-name
        // order (the supervision table is a name-keyed `BTreeMap`). The
        // pods just torn down for OOM are no longer Running and probe
        // nothing.
        let probed: Vec<String> = self
            .pods
            .iter()
            .filter(|(_, e)| e.phase == PodPhase::Running)
            .map(|(n, _)| n.clone())
            .collect();
        for name in probed {
            let e = self.pods.get_mut(&name).expect("selected from table");
            let mut kill = false;
            if let (Some(p), Some(mut st)) = (e.spec.opts().liveness_probe, e.liveness) {
                (_, kill) = Self::fire_probes(containerd, &name, &p, &mut st, now);
                e.liveness = Some(st);
            }
            if kill {
                self.fail_pod(containerd, name, Fault::ProbeKilled, now, &mut report);
            } else if let (Some(p), Some(mut st)) = (e.spec.opts().readiness_probe, e.readiness) {
                let (passed, unready) = Self::fire_probes(containerd, &name, &p, &mut st, now);
                if unready {
                    st.failures = 0;
                    e.ready = false;
                } else if passed {
                    e.ready = true;
                }
                e.readiness = Some(st);
            }
        }

        while self.kernel.free().available < EVICTION_THRESHOLD {
            let victim = self
                .pods
                .iter()
                .filter(|(_, e)| {
                    e.phase == PodPhase::Running && e.spec.opts().memory_limit.is_none()
                })
                .max_by_key(|(_, e)| e.seq)
                .map(|(n, _)| n.clone());
            let Some(name) = victim else { break };
            self.fail_pod(containerd, name, Fault::Evicted, now, &mut report);
        }

        // Sustained-pressure eviction: a Running pod whose cgroup has
        // accumulated enough cpu/io throttle events is the tenant the
        // controllers keep having to restrain — evict it through the same
        // best-effort path, with its own reason. Off unless configured.
        if let Some(threshold) = self.config.pressure_eviction_threshold {
            let offenders: Vec<String> = self
                .pods
                .iter()
                .filter(|(_, e)| e.phase == PodPhase::Running)
                .filter(|(name, _)| {
                    containerd.sandbox(name).is_some_and(|s| {
                        self.kernel.cgroup_stats(s.pod_cgroup).is_ok_and(|st| {
                            st.nr_cpu_throttled + st.io_throttle_events >= threshold
                        })
                    })
                })
                .map(|(n, _)| n.clone())
                .collect();
            for name in offenders {
                self.fail_pod(containerd, name, Fault::PressureEvicted, now, &mut report);
            }
        }

        let due: Vec<String> = self
            .pods
            .iter()
            .filter(|(_, e)| {
                matches!(e.phase, PodPhase::OomKilled | PodPhase::CrashLoopBackOff)
                    && e.next_restart_at.is_some_and(|t| t <= now)
            })
            .map(|(n, _)| n.clone())
            .collect();
        for name in due {
            let spec = self.pods.get(&name).expect("selected from table").spec.clone();
            let synced = self.sync_pod(containerd, spec, now);
            let e = self.pods.get_mut(&name).expect("selected from table");
            Self::record_sync(e, synced, containerd, now);
            match e.phase {
                PodPhase::Running => {
                    e.restarts += 1;
                    report.restarted.push(name);
                }
                PodPhase::CrashLoopBackOff => report.backoff.push(name),
                _ => {}
            }
        }
        report
    }

    /// Tear a pod down gracefully: SIGTERM its containers, give wedged
    /// guests the pod's termination grace period, escalate to SIGKILL via
    /// the watchdog epoch clock, then remove the sandbox, the infra charge,
    /// and any supervision entry.
    ///
    /// Clean pods honor SIGTERM promptly — no simulated time passes, which
    /// keeps the paper's figure paths (deploy → measure → teardown)
    /// byte-identical. Only a wedged guest rides out the grace period
    /// (advancing the DES clock) before the hard kill.
    ///
    /// Idempotent and best-effort: every sub-step is attempted even when an
    /// earlier one fails (so a mid-teardown error cannot strand the rest),
    /// the first error is reported at the end, and removing a pod that is
    /// already gone is a successful no-op.
    #[expect(
        clippy::disallowed_methods,
        reason = "the grace-period escalation is a sanctioned hard kill"
    )]
    pub(crate) fn remove_pod(
        &mut self,
        containerd: &mut Containerd,
        pod_name: &str,
    ) -> KernelResult<()> {
        let entry = self.pods.remove(pod_name);
        if entry.is_some() && !self.infra_procs.contains_key(pod_name) {
            self.torn_down -= 1;
        }
        let grace = entry
            .and_then(|e| e.spec.opts().termination_grace)
            .unwrap_or(DEFAULT_TERMINATION_GRACE);
        let mut first_err: Option<KernelError> = None;
        if containerd.begin_pod_termination(pod_name) {
            // A wedged guest cannot run a SIGTERM handler: wait out the
            // grace period on the simulated clock, then hard-kill.
            self.kernel.advance(grace);
            first_err = containerd.interrupt_pod(pod_name).err();
        }
        if let Err(e) = self.teardown_pod_resources(containerd, pod_name) {
            first_err.get_or_insert(e);
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Release a pod's node resources without touching the supervision
    /// table — the shared teardown under both an orderly [`remove_pod`]
    /// and a fault-forced restart (which must keep the entry to retry).
    ///
    /// [`remove_pod`]: Kubelet::remove_pod
    fn teardown_pod_resources(
        &mut self,
        containerd: &mut Containerd,
        pod_name: &str,
    ) -> KernelResult<()> {
        let mut first_err: Option<KernelError> = None;
        if let Some(pid) = self.infra_procs.remove(pod_name) {
            if self.pods.contains_key(pod_name) {
                self.torn_down += 1;
            }
            // The infra process may already be dead (OOM-killed): reap
            // whatever state it is in.
            if matches!(self.kernel.proc_state(pid), Ok(simkernel::ProcState::Running)) {
                if let Err(e) = self.kernel.exit(pid, 0) {
                    first_err.get_or_insert(e);
                }
            }
            if self.kernel.proc_state(pid).is_ok() {
                if let Err(e) = self.kernel.reap(pid) {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Err(e) = containerd.remove_pod_sandbox(pod_name) {
            first_err.get_or_insert(e);
        }
        first_err.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Kubelet {
        /// The node's program table.
        pub(crate) fn programs(&self) -> &[Arc<StepTrace>] {
            &self.programs
        }
    }

    impl Program {
        /// The shared program; `None` before a start.
        pub(crate) fn handle(&self) -> Option<&Arc<StepTrace>> {
            self.0.as_ref()
        }
    }

    impl From<StepTrace> for Program {
        fn from(trace: StepTrace) -> Program {
            Program(Some(Arc::new(trace)))
        }
    }

    #[test]
    fn node_config_defaults_and_extension() {
        assert_eq!(NodeConfig::default().max_pods, 110);
        assert_eq!(NodeConfig::paper_extension().max_pods, 500);
    }

    #[test]
    fn backoff_schedule_is_exponential_capped_at_five_minutes() {
        let secs: Vec<u64> =
            (0..8).map(|n| Kubelet::backoff_delay(n).as_nanos() / 1_000_000_000).collect();
        assert_eq!(secs, vec![10, 20, 40, 80, 160, 300, 300, 300]);
        // Every attempt count, the ones whose shift would wrap included:
        // the delay never falls and stays at the cap from attempt 5 on.
        let delays: Vec<Duration> = (0..=64).map(Kubelet::backoff_delay).collect();
        assert!(delays.windows(2).all(|w| w[0] <= w[1]), "{delays:?}");
        assert!(delays[5..].iter().all(|&d| d == Duration::from_secs(300)), "{delays:?}");
        // Huge attempt counts saturate rather than overflow the shift.
        assert_eq!(Kubelet::backoff_delay(u32::MAX), Duration::from_secs(300));
    }
}
