//! containerd daemon + Container Runtime Interface (CRI).
//!
//! Implements the CRI verbs kubelet uses — `RunPodSandbox`,
//! `CreateContainer`, `StartContainer`, `RemovePodSandbox` — over the
//! simulated kernel. Each verb records the DES latency steps it cost into
//! the caller's [`StepTrace`] (tagged with the lifecycle [`Phase`] they
//! belong to) so the kubelet can assemble per-pod startup programs and the
//! harness can break startup down per phase.
//!
//! Runtime classes mirror the paper's Figure 1: an OCI class routes through
//! the `containerd-shim-runc-v2` shim to a low-level runtime (crun, runC),
//! while a runwasi class embeds the Wasm engine in a per-pod shim process
//! with no low-level runtime at all.

use std::collections::BTreeMap;

use container_runtimes::handler::{ContainerHandler, WasmEngineHandler};
use container_runtimes::{Container, ContainerState, LowLevelRuntime, RuntimeCtx};
use engines::{Embedding, EngineKind};
use oci_spec_lite::{Bundle, Image, ImageStore, RuntimeSpec};
use simkernel::image::charge_anon;
use simkernel::{
    lifecycle, CgroupId, Duration, FaultSite, Kernel, KernelError, KernelResult, Lifecycle, LockId,
    Phase, Pid, ProcessImage, Step, StepTrace,
};
use wasm_core::EpochClock;

use crate::shim::{install_shims, runwasi_shim, spawn_shim, Shim, SHIM_RUNC_V2};

/// The containerd task-service lock: shim spawns serialize on it.
pub const TASK_SERVICE_LOCK: LockId = LockId(100);

/// containerd daemon footprint (resident once per node).
const DAEMON_BINARY: &str = "/usr/bin/containerd";
const DAEMON_BINARY_SIZE: u64 = 48 << 20;
const DAEMON_HEAP: u64 = 38 << 20;
/// Daemon metadata growth per pod sandbox / container.
const DAEMON_GROWTH_PER_POD: u64 = 96 << 10;
const DAEMON_GROWTH_PER_CONTAINER: u64 = 64 << 10;

/// How a runtime class executes containers.
pub enum RuntimeClass {
    /// Through containerd-shim-runc-v2 and a low-level OCI runtime.
    Oci { runtime: LowLevelRuntime },
    /// Through a runwasi shim embedding the engine.
    Runwasi { engine: EngineKind, fuel: u64 },
}

impl RuntimeClass {
    /// The same class on `kernel` (a fork of the one it executes on).
    fn fork(&self, kernel: &Kernel) -> RuntimeClass {
        match self {
            RuntimeClass::Oci { runtime } => {
                RuntimeClass::Oci { runtime: runtime.fork(kernel.clone()) }
            }
            &RuntimeClass::Runwasi { engine, fuel } => RuntimeClass::Runwasi { engine, fuel },
        }
    }
}

/// A CRI container record.
#[derive(Debug)]
pub struct CriContainer {
    pub id: String,
    pub image: String,
    /// Position in the shared OCI lifecycle state machine — the same
    /// machine `LowLevelRuntime` containers use.
    pub state: Lifecycle,
    pub stdout: Vec<u8>,
    /// The workload overstayed its watchdog epoch budget during start: the
    /// container is up but wedged (never reached ready). Liveness probes
    /// report it unhealthy.
    pub wedged: bool,
    /// Watchdog clock retained from the engine run (present when the
    /// container started with an epoch budget). [`Containerd::interrupt_pod`]
    /// bumps it so the guest observes the kill at its next epoch safepoint.
    epoch_clock: Option<EpochClock>,
    /// Present for OCI-class containers (init process of the container).
    oci: Option<Container>,
    bundle: Bundle,
    /// Present for a runwasi-class container until it has started: the
    /// shim is handed the spec in memory, where an OCI runtime re-reads
    /// `config.json` from the bundle. Boxed, so that a record without one
    /// does not carry room for it.
    spec: Option<Box<RuntimeSpec>>,
}

impl CriContainer {
    /// Reading of the retained watchdog clock (`u64::MAX` once
    /// interrupted); `None` when the container started without a budget.
    pub fn watchdog_epoch(&self) -> Option<u64> {
        self.epoch_clock.as_ref().map(EpochClock::now)
    }

    /// Deep copy; the retained watchdog clock is re-made at its reading
    /// (see [`Container::fork`]).
    fn fork(&self) -> CriContainer {
        CriContainer {
            id: self.id.clone(),
            image: self.image.clone(),
            stdout: self.stdout.clone(),
            epoch_clock: self.epoch_clock.as_ref().map(EpochClock::fork),
            oci: self.oci.as_ref().map(Container::fork),
            bundle: self.bundle.clone(),
            spec: self.spec.clone(),
            ..*self
        }
    }
}

/// A pod sandbox: cgroup + shim (+ pause container for OCI classes).
pub struct Sandbox {
    pub pod_id: String,
    pub pod_cgroup: CgroupId,
    pub class: String,
    pub shim: Shim,
    pause: Option<Container>,
    pause_bundle: Option<Bundle>,
    /// Sorted by id — a pod holds one container, a few at most — and grown
    /// one exact slot at a time.
    containers: Vec<CriContainer>,
}

impl Sandbox {
    fn fork(&self) -> Sandbox {
        Sandbox {
            pod_id: self.pod_id.clone(),
            pod_cgroup: self.pod_cgroup,
            class: self.class.clone(),
            shim: self.shim.clone(),
            pause: self.pause.as_ref().map(Container::fork),
            pause_bundle: self.pause_bundle.clone(),
            containers: self.containers.iter().map(CriContainer::fork).collect(),
        }
    }

    pub fn container(&self, id: &str) -> Option<&CriContainer> {
        self.position(id).ok().map(|i| &self.containers[i])
    }

    /// In id order.
    pub fn container_ids(&self) -> Vec<String> {
        self.containers.iter().map(|c| c.id.clone()).collect()
    }

    /// Where `id` is (`Ok`) or would be inserted (`Err`).
    fn position(&self, id: &str) -> Result<usize, usize> {
        self.containers.binary_search_by(|c| c.id.as_str().cmp(id))
    }
}

/// The containerd daemon.
pub struct Containerd {
    kernel: Kernel,
    pub daemon_pid: Pid,
    system_cgroup: CgroupId,
    kubepods: CgroupId,
    images: ImageStore,
    classes: BTreeMap<String, RuntimeClass>,
    sandboxes: BTreeMap<String, Sandbox>,
    pause_image: Image,
}

impl Containerd {
    /// Boot the daemon: resident process in the system cgroup, shim
    /// binaries installed, pause image registered.
    pub fn boot(
        kernel: Kernel,
        system_cgroup: CgroupId,
        kubepods: CgroupId,
        mut images: ImageStore,
    ) -> KernelResult<Containerd> {
        install_shims(&kernel)?;
        kernel.ensure_file(
            DAEMON_BINARY,
            simkernel::vfs::FileContent::Synthetic(DAEMON_BINARY_SIZE),
        )?;
        // Resident daemon: half its binary text plus the Go heap. Ownership
        // moves to the Containerd value (the node never stops it).
        let daemon_pid = ProcessImage::spawn(&kernel, "containerd", system_cgroup)
            .text(DAEMON_BINARY, DAEMON_BINARY_SIZE, DAEMON_BINARY_SIZE / 2, "containerd")
            .heap(DAEMON_HEAP, "daemon-heap")
            .build()?
            .detach();

        let pause_image = images
            .register(&kernel, oci_spec_lite::ImageBuilder::new("registry.k8s.io/pause:3.9"))?
            .clone();
        Ok(Containerd {
            kernel,
            daemon_pid,
            system_cgroup,
            kubepods,
            images,
            classes: BTreeMap::new(),
            sandboxes: BTreeMap::new(),
            pause_image,
        })
    }

    /// A deep copy of the daemon's tables — images, runtime classes,
    /// sandboxes with their containers and bundles — driving `kernel`, a
    /// [`Kernel::fork`] of this daemon's: pids, cgroup and file ids carry
    /// over. Image layers and handlers are immutable and stay shared.
    pub fn fork(&self, kernel: Kernel) -> Containerd {
        Containerd {
            images: self.images.clone(),
            classes: self.classes.iter().map(|(n, c)| (n.clone(), c.fork(&kernel))).collect(),
            sandboxes: self.sandboxes.iter().map(|(n, s)| (n.clone(), s.fork())).collect(),
            pause_image: self.pause_image.clone(),
            kernel,
            ..*self
        }
    }

    /// Register a runtime class under a name (e.g. "crun-wamr", "runwasi-wasmtime").
    pub fn register_class(&mut self, name: &str, class: RuntimeClass) {
        self.classes.insert(name.to_string(), class);
    }

    /// Register ("pull") an image.
    pub fn pull_image(&mut self, builder: oci_spec_lite::ImageBuilder) -> KernelResult<String> {
        let image = self.images.register(&self.kernel, builder)?;
        Ok(image.reference.clone())
    }

    /// Look up a pulled image by reference — how the service layer reads
    /// workload capability annotations (e.g. the brownout optional-work
    /// share) back from the deployed artifact.
    pub fn image(&self, reference: &str) -> Option<&Image> {
        self.images.get(reference).ok()
    }

    pub fn sandbox(&self, pod_id: &str) -> Option<&Sandbox> {
        self.sandboxes.get(pod_id)
    }

    /// Pod cgroups of every live sandbox, in pod-id order — the per-pod
    /// counters a node-pressure observer (e.g. the scheduler) sums over.
    pub fn sandbox_cgroups(&self) -> impl Iterator<Item = CgroupId> + '_ {
        self.sandboxes.values().map(|s| s.pod_cgroup)
    }

    /// Charge daemon metadata growth.
    fn grow_daemon(&self, bytes: u64) -> KernelResult<()> {
        charge_anon(&self.kernel, self.daemon_pid, bytes, "daemon-meta")
    }

    /// CRI RunPodSandbox: pod cgroup, shim, pause container. All recorded
    /// work lands in [`Phase::Sandbox`].
    pub fn run_pod_sandbox(
        &mut self,
        pod_id: &str,
        class_name: &str,
        trace: &mut StepTrace,
    ) -> KernelResult<()> {
        if self.sandboxes.contains_key(pod_id) {
            return Err(KernelError::InvalidState(format!("sandbox {pod_id} exists")));
        }
        let class = self
            .classes
            .get(class_name)
            .ok_or_else(|| KernelError::InvalidState(format!("no runtime class {class_name}")))?;
        trace.push(Phase::Sandbox, Step::Cpu(Duration::from_micros(900))); // CRI handling
        self.grow_daemon(DAEMON_GROWTH_PER_POD)?;
        let pod_cgroup = self.kernel.cgroup_create(self.kubepods, pod_id)?;

        let (shim, pause, pause_bundle) = match class {
            RuntimeClass::Oci { runtime } => {
                // Shim in the system cgroup: invisible to pod metrics. Its
                // guard owns the process until the sandbox is committed, so
                // every failure path below reaps it on drop.
                let shim = match spawn_shim(
                    &self.kernel,
                    &SHIM_RUNC_V2,
                    self.system_cgroup,
                    TASK_SERVICE_LOCK,
                    trace,
                ) {
                    Ok(g) => g,
                    Err(e) => {
                        let _ = self.kernel.cgroup_remove(pod_cgroup);
                        return Err(e);
                    }
                };
                // Pause container through the low-level runtime. Failures
                // past this point must not leak the shim or the pod cgroup.
                let pause_result = (|| {
                    let spec = RuntimeSpec::for_command(
                        &format!("{pod_id}-pause"),
                        vec!["/pause".to_string()],
                    );
                    let bundle = Bundle::create(
                        &self.kernel,
                        &format!("{pod_id}-pause"),
                        &self.pause_image,
                        &spec,
                    )?;
                    let ctx = RuntimeCtx { runtime_cgroup: self.system_cgroup };
                    let mut pause = runtime
                        .create(&ctx, &format!("{pod_id}-pause"), &bundle, pod_cgroup)
                        .inspect_err(|_| {
                            let _ = bundle.destroy(&self.kernel);
                        })?;
                    if let Err(e) = runtime.start(&ctx, &mut pause, &bundle) {
                        let _ = runtime.delete(&mut pause);
                        let _ = bundle.destroy(&self.kernel);
                        return Err(e);
                    }
                    Ok((pause, bundle))
                })();
                let (mut pause, bundle) = match pause_result {
                    Ok(v) => v,
                    Err(e) => {
                        drop(shim);
                        let _ = self.kernel.cgroup_remove(pod_cgroup);
                        return Err(e);
                    }
                };
                // The pause container's runtime steps are sandbox assembly
                // from the pod's point of view: retag them wholesale.
                trace.extend(Phase::Sandbox, std::mem::take(&mut pause.trace).into_steps());
                (Shim { pid: shim.detach(), profile: &SHIM_RUNC_V2 }, Some(pause), Some(bundle))
            }
            RuntimeClass::Runwasi { engine, .. } => {
                // Shim in the pod cgroup: it will host the Wasm instance.
                let engine = *engine;
                let profile = match runwasi_shim(engine) {
                    Some(p) => p,
                    None => {
                        let _ = self.kernel.cgroup_remove(pod_cgroup);
                        return Err(KernelError::InvalidState(format!(
                            "no runwasi shim exists for {engine:?} (the paper embeds it in crun instead)"
                        )));
                    }
                };
                let shim =
                    match spawn_shim(&self.kernel, profile, pod_cgroup, TASK_SERVICE_LOCK, trace) {
                        Ok(g) => g,
                        Err(e) => {
                            let _ = self.kernel.cgroup_remove(pod_cgroup);
                            return Err(e);
                        }
                    };
                // The shim holds the sandbox itself (no pause process); a
                // small allocation models its sandbox bookkeeping.
                if let Err(e) = shim.charge_heap(160 << 10, "sandbox-meta") {
                    drop(shim);
                    let _ = self.kernel.cgroup_remove(pod_cgroup);
                    return Err(e);
                }
                trace.push(Phase::Sandbox, Step::Cpu(Duration::from_micros(400)));
                (Shim { pid: shim.detach(), profile }, None, None)
            }
        };

        self.sandboxes.insert(
            pod_id.to_string(),
            Sandbox {
                pod_id: pod_id.to_string(),
                pod_cgroup,
                class: class_name.to_string(),
                shim,
                pause,
                pause_bundle,
                containers: Vec::new(),
            },
        );
        Ok(())
    }

    /// CRI CreateContainer: bundle + (for OCI classes) runtime `create`.
    pub fn create_container(
        &mut self,
        pod_id: &str,
        container_id: &str,
        image_ref: &str,
        memory_limit: Option<u64>,
        trace: &mut StepTrace,
    ) -> KernelResult<()> {
        self.create_container_with(pod_id, container_id, image_ref, memory_limit, &[], trace)
    }

    /// [`Containerd::create_container`] with extra OCI annotations merged
    /// into the container spec (after the image's own) — the kubelet uses
    /// this to arm the guest watchdog
    /// ([`oci_spec_lite::WATCHDOG_BUDGET_ANNOTATION`]) from a pod's
    /// liveness-probe window.
    pub fn create_container_with(
        &mut self,
        pod_id: &str,
        container_id: &str,
        image_ref: &str,
        memory_limit: Option<u64>,
        annotations: &[(String, String)],
        trace: &mut StepTrace,
    ) -> KernelResult<()> {
        let image = self.images.get(image_ref)?;
        self.grow_daemon(DAEMON_GROWTH_PER_CONTAINER)?;
        let sandbox = self
            .sandboxes
            .get_mut(pod_id)
            .ok_or_else(|| KernelError::InvalidState(format!("no sandbox {pod_id}")))?;
        let Err(slot) = sandbox.position(container_id) else {
            return Err(KernelError::InvalidState(format!(
                "container {container_id} already exists in {pod_id}"
            )));
        };

        let mut spec = RuntimeSpec::for_command(container_id, image.command());
        spec.process.env = image.config.env.clone();
        spec.linux.memory.limit = memory_limit;
        spec.linux.cgroups_path = format!("/kubepods/{pod_id}/{container_id}");
        for (k, v) in &image.config.annotations {
            spec.annotations.insert(k.clone(), v.clone());
        }
        for (k, v) in annotations {
            spec.annotations.insert(k.clone(), v.clone());
        }
        let bundle = Bundle::create(&self.kernel, container_id, image, &spec)?;

        // Snapshot preparation + metadata, under the task lock.
        trace.push(Phase::RuntimeOp, Step::Acquire(TASK_SERVICE_LOCK));
        trace.push(Phase::RuntimeOp, Step::Cpu(Duration::from_micros(1_200)));
        trace.push(Phase::RuntimeOp, Step::Release(TASK_SERVICE_LOCK));
        trace.push(Phase::RuntimeOp, Step::Io(Duration::from_micros(800)));

        let class = self.classes.get(&sandbox.class).expect("class checked at sandbox");
        let (oci, spec) = match class {
            RuntimeClass::Oci { runtime } => {
                let ctx = RuntimeCtx { runtime_cgroup: self.system_cgroup };
                let mut c = match runtime.create(&ctx, container_id, &bundle, sandbox.pod_cgroup) {
                    Ok(c) => c,
                    Err(e) => {
                        // A failed create must leave the container id
                        // reusable: drop the bundle we just materialized.
                        let _ = bundle.destroy(&self.kernel);
                        return Err(e);
                    }
                };
                trace.append(&mut c.trace);
                (Some(c), None)
            }
            RuntimeClass::Runwasi { .. } => (None, Some(Box::new(spec))),
        };

        sandbox.containers.reserve_exact(1);
        sandbox.containers.insert(
            slot,
            CriContainer {
                id: container_id.to_string(),
                image: image_ref.to_string(),
                state: Lifecycle::new(),
                stdout: Vec::new(),
                wedged: false,
                epoch_clock: None,
                oci,
                bundle,
                spec,
            },
        );
        Ok(())
    }

    /// CRI StartContainer: dispatch the workload.
    pub fn start_container(
        &mut self,
        pod_id: &str,
        container_id: &str,
        trace: &mut StepTrace,
    ) -> KernelResult<()> {
        let sandbox = self
            .sandboxes
            .get_mut(pod_id)
            .ok_or_else(|| KernelError::InvalidState(format!("no sandbox {pod_id}")))?;
        let shim_pid = sandbox.shim.pid;
        let slot = sandbox
            .position(container_id)
            .map_err(|_| KernelError::InvalidState(format!("no container {container_id}")))?;
        let container = &mut sandbox.containers[slot];
        if !lifecycle::legal(container.state.state(), ContainerState::Running) {
            return Err(KernelError::InvalidState(format!(
                "container {container_id} is {:?}",
                container.state.state()
            )));
        }
        let class = self.classes.get(&sandbox.class).expect("class checked at sandbox");
        match class {
            RuntimeClass::Oci { runtime } => {
                let ctx = RuntimeCtx { runtime_cgroup: self.system_cgroup };
                let oci = container.oci.as_mut().expect("oci class has container");
                runtime.start(&ctx, oci, &container.bundle)?;
                // `create` handed the create steps on, so what the runtime's
                // record holds now is this start; nothing reads it there
                // again, so steps, stdout and the watchdog clock (one holder
                // per container) move rather than copy.
                trace.append(&mut oci.trace);
                container.stdout = std::mem::take(&mut oci.stdout);
                container.wedged = oci.wedged;
                container.epoch_clock = oci.epoch_clock.take();
            }
            RuntimeClass::Runwasi { engine, fuel } => {
                // The shim executes the module in-process: crun's engine
                // handler, embedded as a crate, in the shim's pid.
                let shim = WasmEngineHandler {
                    profile: engine.profile(),
                    embedding: Embedding::Crate,
                    fuel: *fuel,
                };
                let spec = container.spec.as_deref().expect("runwasi class keeps the spec");
                let mut run = shim.execute(&self.kernel, shim_pid, &container.bundle, spec)?;
                container.spec = None;
                trace.append(&mut run.trace);
                container.stdout = run.stdout;
                container.wedged = run.interrupted;
                container.epoch_clock = run.epoch_clock;
            }
        }
        container.state.transition(ContainerState::Running, container_id)?;
        Ok(())
    }

    /// Hand a container's captured stdout to the caller — the kubelet, which
    /// keeps the pod's log; the container record keeps none of it. Empty
    /// for an unknown pod or container.
    pub fn take_container_stdout(&mut self, pod_id: &str, container_id: &str) -> Vec<u8> {
        let Some(sandbox) = self.sandboxes.get_mut(pod_id) else {
            return Vec::new();
        };
        match sandbox.position(container_id) {
            Ok(slot) => std::mem::take(&mut sandbox.containers[slot].stdout),
            Err(_) => Vec::new(),
        }
    }

    /// CRI RemovePodSandbox: stop containers, pause, and the shim.
    ///
    /// Idempotent: removing a sandbox that does not exist (already removed,
    /// or never fully created) is a successful no-op, so rollback paths can
    /// call it unconditionally. Teardown is best-effort: every resource is
    /// attempted even when an earlier one fails (a mid-teardown error must
    /// not strand the rest); the first error is reported after everything
    /// has been tried.
    pub fn remove_pod_sandbox(&mut self, pod_id: &str) -> KernelResult<()> {
        let Some(mut sandbox) = self.sandboxes.remove(pod_id) else {
            return Ok(());
        };
        let class = self.classes.get(&sandbox.class).expect("class checked at sandbox");
        let mut first_err: Option<KernelError> = None;
        let mut note = |r: KernelResult<()>| {
            if let Err(e) = r {
                first_err.get_or_insert(e);
            }
        };
        for mut c in std::mem::take(&mut sandbox.containers) {
            if let RuntimeClass::Oci { runtime } = class {
                if let Some(oci) = c.oci.as_mut() {
                    note(runtime.delete(oci));
                }
            }
            note(c.bundle.destroy(&self.kernel));
        }
        if let (RuntimeClass::Oci { runtime }, Some(mut pause)) = (class, sandbox.pause.take()) {
            note(runtime.delete(&mut pause));
        }
        if let Some(b) = sandbox.pause_bundle.take() {
            note(b.destroy(&self.kernel));
        }
        note(self.kernel.exit(sandbox.shim.pid, 0));
        note(self.kernel.reap(sandbox.shim.pid));
        note(self.kernel.cgroup_remove(sandbox.pod_cgroup));
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// A kubelet health-probe RPC against the pod's containers. Returns
    /// `Ok(true)` when every container is Running and responsive: a wedged
    /// container (watchdog-interrupted guest), a missing sandbox, or an
    /// OOM-killed backing process all probe unhealthy. [`FaultSite::Probe`]
    /// models a transient probe-RPC failure against a healthy pod — the
    /// probe reports failure without the pod being wrong, which is why
    /// probes carry a `failureThreshold` instead of acting on one miss.
    pub fn probe(&self, pod_id: &str, trace: &mut StepTrace) -> KernelResult<bool> {
        trace.push(Phase::RuntimeOp, Step::Io(Duration::from_micros(250)));
        match self.kernel.inject_fault(FaultSite::Probe) {
            Ok(()) => {}
            Err(KernelError::FaultInjected(_)) => return Ok(false),
            Err(e) => return Err(e),
        }
        let Some(s) = self.sandboxes.get(pod_id) else {
            return Ok(false);
        };
        if self.pod_oom_killed(pod_id) {
            return Ok(false);
        }
        Ok(s.containers.iter().all(|c| c.state.is(ContainerState::Running) && !c.wedged))
    }

    /// True when any container in the pod wedged on its watchdog budget and
    /// is still up (Running or riding out a termination grace period).
    pub fn pod_wedged(&self, pod_id: &str) -> bool {
        self.sandboxes.get(pod_id).map_or(false, |s| {
            s.containers.iter().any(|c| {
                c.wedged
                    && matches!(
                        c.state.state(),
                        ContainerState::Running | ContainerState::Terminating
                    )
            })
        })
    }

    /// Deliver SIGTERM to a pod's containers: each Running container moves
    /// to [`ContainerState::Terminating`]. Returns `true` when any of them
    /// is wedged — a wedged guest cannot honor SIGTERM, so the kubelet must
    /// ride out the grace period and escalate to [`Containerd::interrupt_pod`].
    /// Clean containers terminate promptly: the subsequent
    /// [`Containerd::remove_pod_sandbox`] stops them with no clock advance.
    pub fn begin_pod_termination(
        &mut self,
        pod_id: &str,
        trace: &mut StepTrace,
    ) -> KernelResult<bool> {
        let Some(sandbox) = self.sandboxes.get_mut(pod_id) else {
            return Ok(false);
        };
        let mut wedged = false;
        for c in &mut sandbox.containers {
            if c.state.begin_termination() {
                // SIGTERM delivery + signal-handler dispatch in the guest.
                trace.push(Phase::Terminating, Step::Cpu(Duration::from_micros(150)));
            }
            if let Some(oci) = c.oci.as_mut() {
                oci.state.begin_termination();
            }
            wedged |= c.wedged && c.state.is(ContainerState::Terminating);
        }
        Ok(wedged)
    }

    /// SIGKILL a pod's containers: bump each guest's watchdog epoch clock
    /// (the stop lands at its next epoch safepoint), mark the containers
    /// Failed, and kill their init processes. This is the only hard-kill
    /// path — the kubelet reaches it from a failed liveness probe or from
    /// termination-grace-period expiry, tagging the work with the phase the
    /// escalation belongs to.
    pub fn interrupt_pod(
        &mut self,
        pod_id: &str,
        phase: Phase,
        trace: &mut StepTrace,
    ) -> KernelResult<()> {
        let Some(sandbox) = self.sandboxes.get_mut(pod_id) else {
            return Ok(());
        };
        for c in &mut sandbox.containers {
            if let Some(clock) = &c.epoch_clock {
                clock.interrupt();
            }
            if let Some(oci) = c.oci.as_mut() {
                if matches!(self.kernel.proc_state(oci.pid), Ok(simkernel::ProcState::Running)) {
                    self.kernel.exit(oci.pid, 137)?;
                }
                if self.kernel.proc_state(oci.pid).is_ok() {
                    self.kernel.reap(oci.pid)?;
                }
                oci.state.fail(false);
            }
            c.state.fail(false);
            c.wedged = false;
            trace.push(phase, Step::Cpu(Duration::from_micros(200)));
        }
        Ok(())
    }

    /// True when any process backing this sandbox has been OOM-killed by
    /// the kernel — the shim, the pause container, or a container's init
    /// process. The kubelet polls this from its reconcile loop to detect
    /// pods that need a fault-forced teardown and restart. A sandbox that
    /// no longer exists reports `false` (nothing left to have been killed).
    pub fn pod_oom_killed(&self, pod_id: &str) -> bool {
        let Some(s) = self.sandboxes.get(pod_id) else {
            return false;
        };
        let oomed =
            |pid: Pid| matches!(self.kernel.proc_state(pid), Ok(simkernel::ProcState::OomKilled));
        oomed(s.shim.pid)
            || s.pause.as_ref().map_or(false, |p| oomed(p.pid))
            || s.containers.iter().any(|c| c.oci.as_ref().map_or(false, |o| oomed(o.pid)))
    }

    /// Pod working set as the metrics-server reads it.
    pub fn pod_working_set(&self, pod_id: &str) -> KernelResult<u64> {
        let s = self
            .sandboxes
            .get(pod_id)
            .ok_or_else(|| KernelError::InvalidState(format!("no sandbox {pod_id}")))?;
        self.kernel.cgroup_working_set(s.pod_cgroup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use container_runtimes::handler::{PauseHandler, WasmEngineHandler};
    use container_runtimes::profile::{install_runtimes, CRUN};
    use simkernel::{Kernel, KernelConfig};

    fn microservice() -> Vec<u8> {
        wasm_core::builder::demo_wasi_module("on\n")
    }

    fn boot() -> Containerd {
        let kernel = Kernel::boot(KernelConfig::default());
        engines::install_engines(&kernel).unwrap();
        install_runtimes(&kernel).unwrap();
        let system = kernel.cgroup_create(Kernel::ROOT_CGROUP, "system").unwrap();
        let kubepods = kernel.cgroup_create(Kernel::ROOT_CGROUP, "kubepods").unwrap();
        let mut cd = Containerd::boot(kernel.clone(), system, kubepods, ImageStore::new()).unwrap();

        // Classes: wamr-crun and a runwasi example.
        let mut crun = LowLevelRuntime::new(kernel.clone(), &CRUN);
        crun.register_handler(Box::new(wamr_crun::WamrHandler::default()));
        crun.register_handler(Box::new(WasmEngineHandler::new(EngineKind::Wasmtime)));
        crun.register_handler(Box::new(PauseHandler));
        cd.register_class("crun-wamr", RuntimeClass::Oci { runtime: crun });
        cd.register_class(
            "runwasi-wasmtime",
            RuntimeClass::Runwasi {
                engine: EngineKind::Wasmtime,
                fuel: engines::profile::DEFAULT_STARTUP_FUEL,
            },
        );

        cd.pull_image(
            oci_spec_lite::ImageBuilder::new("svc:v1")
                .entrypoint(["/app/main.wasm".to_string()])
                .annotation(oci_spec_lite::WASM_VARIANT_ANNOTATION, "compat")
                .file("/app/main.wasm", microservice()),
        )
        .unwrap();
        cd
    }

    #[test]
    fn oci_class_full_pod_lifecycle() {
        let mut cd = boot();
        let mut trace = StepTrace::new();
        cd.run_pod_sandbox("pod-1", "crun-wamr", &mut trace).unwrap();
        assert!(trace.steps().iter().any(|s| matches!(s, Step::Acquire(_))));
        assert!(
            trace.entries().iter().all(|(p, _)| *p == Phase::Sandbox),
            "RunPodSandbox work (shim, pause) is all sandbox-phase"
        );
        cd.create_container("pod-1", "c1", "svc:v1", None, &mut trace).unwrap();
        cd.start_container("pod-1", "c1", &mut trace).unwrap();
        let sandbox = cd.sandbox("pod-1").unwrap();
        let c = sandbox.container("c1").unwrap();
        assert_eq!(c.state, ContainerState::Running);
        assert_eq!(c.stdout, b"on\n");
        // The start carried engine work: later phases are represented too.
        assert!(trace.entries().iter().any(|(p, _)| *p == Phase::Exec));
        // Pod working set includes pause + wasm workload.
        let ws = cd.pod_working_set("pod-1").unwrap();
        assert!(ws > 500 << 10, "{ws}");
        cd.remove_pod_sandbox("pod-1").unwrap();
        assert!(cd.sandbox("pod-1").is_none());
        cd.remove_pod_sandbox("pod-1").unwrap(); // idempotent
    }

    #[test]
    fn runwasi_class_runs_in_shim() {
        let mut cd = boot();
        let mut trace = StepTrace::new();
        cd.run_pod_sandbox("pod-2", "runwasi-wasmtime", &mut trace).unwrap();
        cd.create_container("pod-2", "c1", "svc:v1", None, &mut trace).unwrap();
        cd.start_container("pod-2", "c1", &mut trace).unwrap();
        let c = cd.sandbox("pod-2").unwrap().container("c1").unwrap();
        assert_eq!(c.stdout, b"on\n");
        // The shim lives in the pod cgroup: its heavy base is visible to
        // metrics, unlike the runc-v2 shim.
        let ws = cd.pod_working_set("pod-2").unwrap();
        assert!(ws > 2 << 20, "shim base visible: {ws}");
        cd.remove_pod_sandbox("pod-2").unwrap();
    }

    #[test]
    fn shim_placement_differs_between_classes() {
        let mut cd = boot();
        cd.run_pod_sandbox("a", "crun-wamr", &mut StepTrace::new()).unwrap();
        cd.run_pod_sandbox("b", "runwasi-wasmtime", &mut StepTrace::new()).unwrap();
        let oci_ws = cd.pod_working_set("a").unwrap();
        let wasi_ws = cd.pod_working_set("b").unwrap();
        // The runwasi pod carries its shim; the OCI pod only pause.
        assert!(wasi_ws > oci_ws, "runwasi {wasi_ws} vs oci {oci_ws}");
    }

    #[test]
    fn unknown_class_and_duplicate_sandbox() {
        let mut cd = boot();
        assert!(cd.run_pod_sandbox("p", "nope", &mut StepTrace::new()).is_err());
        cd.run_pod_sandbox("p", "crun-wamr", &mut StepTrace::new()).unwrap();
        assert!(cd.run_pod_sandbox("p", "crun-wamr", &mut StepTrace::new()).is_err());
    }

    #[test]
    fn start_requires_create() {
        let mut cd = boot();
        let mut trace = StepTrace::new();
        cd.run_pod_sandbox("p", "crun-wamr", &mut trace).unwrap();
        assert!(cd.start_container("p", "ghost", &mut trace).is_err());
        cd.create_container("p", "c", "svc:v1", None, &mut trace).unwrap();
        cd.start_container("p", "c", &mut trace).unwrap();
        assert!(cd.start_container("p", "c", &mut trace).is_err(), "double start");
    }

    #[test]
    fn failed_sandbox_leaks_nothing() {
        // Trigger a mid-sandbox failure: a runtime class whose runtime has
        // NO pause handler makes the pause container's `start` fail after
        // the shim and pod cgroup already exist.
        let mut cd = boot();
        let mut rt = LowLevelRuntime::new(cd.kernel.clone(), &CRUN);
        rt.register_handler(Box::new(WasmEngineHandler::new(EngineKind::Wamr)));
        cd.register_class("no-pause", RuntimeClass::Oci { runtime: rt });
        let procs_before = cd.kernel.live_procs();
        let err = cd.run_pod_sandbox("leaky", "no-pause", &mut StepTrace::new());
        assert!(err.is_err(), "pause start must fail without a pause handler");
        assert_eq!(cd.kernel.live_procs(), procs_before, "no leaked processes");
        // The pod id is reusable afterwards (cgroup fully removed).
        cd.run_pod_sandbox("leaky", "crun-wamr", &mut StepTrace::new()).unwrap();
        cd.remove_pod_sandbox("leaky").unwrap();
    }

    #[test]
    fn containers_are_listed_and_torn_down_in_id_order_whatever_order_they_came_in() {
        let mut cd = boot();
        let procs = cd.kernel.live_procs();
        let mut trace = StepTrace::new();
        cd.run_pod_sandbox("p", "crun-wamr", &mut trace).unwrap();
        for id in ["m", "z", "a"] {
            cd.create_container("p", id, "svc:v1", None, &mut trace).unwrap();
            cd.start_container("p", id, &mut trace).unwrap();
        }
        let sandbox = cd.sandbox("p").unwrap();
        assert_eq!(sandbox.container_ids(), ["a", "m", "z"]);
        assert!(sandbox.container("m").is_some() && sandbox.container("b").is_none());
        assert!(cd.create_container("p", "m", "svc:v1", None, &mut trace).is_err(), "duplicate id");
        assert_eq!(cd.sandbox("p").unwrap().container_ids().len(), 3);

        // Teardown attempts everything and reports the first failure: with
        // two bundles' config.json already gone, that is the first of them
        // in id order — "a", created last — not in creation order.
        let config = |id: &str| cd.kernel.lookup(&format!("/run/containers/{id}/config.json"));
        let (a, m) = (config("a").unwrap(), config("m").unwrap());
        assert!(m < a, "created earlier");
        cd.kernel.remove_file(m).unwrap();
        cd.kernel.remove_file(a).unwrap();
        let err = cd.remove_pod_sandbox("p").unwrap_err();
        assert!(matches!(err, KernelError::NoSuchFile(f) if f == a), "{err:?}");
        assert!(cd.sandbox("p").is_none());
        assert_eq!(cd.kernel.live_procs(), procs, "every container was still torn down");
    }

    #[test]
    fn a_failed_create_leaves_the_container_id_reusable() {
        let mut cd = boot();
        let mut trace = StepTrace::new();
        cd.run_pod_sandbox("p", "crun-wamr", &mut trace).unwrap();
        // The transient `crun create` process fails to spawn.
        cd.kernel.set_fault_plan(simkernel::FaultPlan::new(1).fail_call(FaultSite::Spawn, 0));
        let err = cd.create_container("p", "c", "svc:v1", None, &mut trace).unwrap_err();
        assert!(matches!(err, KernelError::FaultInjected(FaultSite::Spawn)), "{err:?}");
        assert!(cd.sandbox("p").unwrap().container_ids().is_empty());
        cd.kernel.set_fault_plan(simkernel::FaultPlan::none());
        cd.create_container("p", "c", "svc:v1", None, &mut trace).unwrap();
        cd.start_container("p", "c", &mut trace).unwrap();
        assert_eq!(cd.sandbox("p").unwrap().container("c").unwrap().stdout, b"on\n");
        cd.remove_pod_sandbox("p").unwrap();
    }

    #[test]
    fn the_kubelet_takes_a_containers_stdout_once() {
        let mut cd = boot();
        let mut trace = StepTrace::new();
        // Bundles live under the container id: unique per pod.
        for (pod, c, class) in [("p1", "c1", "crun-wamr"), ("p2", "c2", "runwasi-wasmtime")] {
            cd.run_pod_sandbox(pod, class, &mut trace).unwrap();
            cd.create_container(pod, c, "svc:v1", None, &mut trace).unwrap();
            cd.start_container(pod, c, &mut trace).unwrap();
            assert_eq!(cd.take_container_stdout(pod, c), b"on\n");
            assert!(cd.take_container_stdout(pod, c).is_empty(), "moved, not copied");
            assert!(cd.take_container_stdout(pod, "ghost").is_empty());
        }
        assert!(cd.take_container_stdout("ghost", "c1").is_empty());
    }

    #[test]
    fn teardown_releases_everything() {
        let mut cd = boot();
        let mut trace = StepTrace::new();
        cd.run_pod_sandbox("p", "crun-wamr", &mut trace).unwrap();
        cd.create_container("p", "c", "svc:v1", None, &mut trace).unwrap();
        cd.start_container("p", "c", &mut trace).unwrap();
        cd.remove_pod_sandbox("p").unwrap();
        // The pod name (and its cgroup path) is reusable after removal,
        // which requires every per-pod resource to have been released.
        cd.run_pod_sandbox("p", "crun-wamr", &mut StepTrace::new()).unwrap();
        cd.remove_pod_sandbox("p").unwrap();
    }
}
