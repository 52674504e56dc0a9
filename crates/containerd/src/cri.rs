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
use std::sync::Arc;

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

use crate::shim::{install_shims, runwasi_shim, spawn_shim, SHIM_RUNC_V2};

/// The containerd task-service lock: shim spawns serialize on it.
pub(crate) const TASK_SERVICE_LOCK: LockId = LockId(100);

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
    Runwasi { engine: EngineKind },
}

impl RuntimeClass {
    /// The same class on `kernel` (a fork of the one it executes on).
    fn fork(&self, kernel: &Kernel) -> RuntimeClass {
        match self {
            RuntimeClass::Oci { runtime } => {
                RuntimeClass::Oci { runtime: runtime.fork(kernel.clone()) }
            }
            &RuntimeClass::Runwasi { engine } => RuntimeClass::Runwasi { engine },
        }
    }
}

/// A CRI container record.
#[derive(Debug)]
pub struct CriContainer {
    pub(crate) id: String,
    /// The image's own reference, shared.
    pub(crate) image: Arc<str>,
    /// Position in the shared OCI lifecycle state machine — the same
    /// machine `LowLevelRuntime` containers use.
    pub(crate) state: Lifecycle,
    pub(crate) stdout: Vec<u8>,
    /// The workload overstayed its watchdog epoch budget during start: the
    /// container is up but wedged (never reached ready). Liveness probes
    /// report it unhealthy.
    pub(crate) wedged: bool,
    /// Watchdog clock retained from the engine run (present when the
    /// container started with an epoch budget). [`Containerd::interrupt_pod`]
    /// bumps it so the guest observes the kill at its next epoch safepoint.
    epoch_clock: Option<EpochClock>,
    /// Present for OCI-class containers (init process of the container).
    oci: Option<Container>,
    /// Keeps the spec it wrote until the container has started: an OCI
    /// runtime's `config.json` loads return it after the read, and the
    /// runwasi shim is handed it in memory.
    bundle: Bundle,
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
            ..*self
        }
    }
}

/// A pod sandbox: cgroup + shim (+ pause container for OCI classes). Its
/// pod id is its key in the daemon's table.
pub struct Sandbox {
    pub pod_cgroup: CgroupId,
    /// The runtime class's registered name, shared.
    pub(crate) class: Arc<str>,
    /// The shim process; the sandbox tears it down.
    pub(crate) shim_pid: Pid,
    pause: Option<Container>,
    pause_bundle: Option<Bundle>,
    /// The pod's one app container, once created.
    container: Option<CriContainer>,
}

impl Sandbox {
    fn fork(&self) -> Sandbox {
        Sandbox {
            pod_cgroup: self.pod_cgroup,
            class: self.class.clone(),
            shim_pid: self.shim_pid,
            pause: self.pause.as_ref().map(Container::fork),
            pause_bundle: self.pause_bundle.clone(),
            container: self.container.as_ref().map(CriContainer::fork),
        }
    }

    pub fn container(&self, id: &str) -> Option<&CriContainer> {
        self.container.as_ref().filter(|c| c.id == id)
    }

    fn container_mut(&mut self, id: &str) -> Option<&mut CriContainer> {
        self.container.as_mut().filter(|c| c.id == id)
    }
}

/// The containerd daemon.
pub struct Containerd {
    kernel: Kernel,
    pub(crate) daemon_pid: Pid,
    system_cgroup: CgroupId,
    kubepods: CgroupId,
    images: ImageStore,
    classes: BTreeMap<Arc<str>, RuntimeClass>,
    /// Boxed: a tree leaf holds eleven pointers, not eleven sandboxes.
    sandboxes: BTreeMap<String, Box<Sandbox>>,
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
            classes: self.classes.iter().map(|(n, c)| (Arc::clone(n), c.fork(&kernel))).collect(),
            sandboxes: self
                .sandboxes
                .iter()
                .map(|(n, s)| (n.clone(), Box::new(s.fork())))
                .collect(),
            pause_image: self.pause_image.clone(),
            kernel,
            ..*self
        }
    }

    /// Register a runtime class under a name (e.g. "crun-wamr", "runwasi-wasmtime").
    pub fn register_class(&mut self, name: &str, class: RuntimeClass) {
        self.classes.insert(name.into(), class);
    }

    /// Register ("pull") an image.
    pub fn pull_image(&mut self, builder: oci_spec_lite::ImageBuilder) -> KernelResult<String> {
        let image = self.images.register(&self.kernel, builder)?;
        Ok(image.reference.to_string())
    }

    /// Look up a pulled image by reference — how the service layer reads
    /// workload capability annotations (e.g. the brownout optional-work
    /// share) back from the deployed artifact.
    pub fn image(&self, reference: &str) -> Option<&Image> {
        self.images.get(reference).ok()
    }

    pub fn sandbox(&self, pod_id: &str) -> Option<&Sandbox> {
        self.sandboxes.get(pod_id).map(|s| &**s)
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
        let (class_name, class) = self
            .classes
            .get_key_value(class_name)
            .ok_or_else(|| KernelError::InvalidState(format!("no runtime class {class_name}")))?;
        trace.push(Phase::Sandbox, Step::Cpu(Duration::from_micros(900))); // CRI handling
        self.grow_daemon(DAEMON_GROWTH_PER_POD)?;
        let pod_cgroup = self.kernel.cgroup_create(self.kubepods, pod_id)?;

        let (shim_pid, pause, pause_bundle) = match class {
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
                    let id = [pod_id, "-pause"].concat();
                    let spec = RuntimeSpec::for_command(&id, vec!["/pause".to_string()]);
                    let mut bundle = Bundle::create(&self.kernel, &id, &self.pause_image, spec)?;
                    let ctx = RuntimeCtx { runtime_cgroup: self.system_cgroup };
                    let mut pause =
                        runtime.create(&ctx, &id, &bundle, pod_cgroup).inspect_err(|_| {
                            let _ = bundle.destroy(&self.kernel);
                        })?;
                    if let Err(e) = runtime.start(&ctx, &mut pause, &bundle) {
                        let _ = runtime.delete(&mut pause);
                        let _ = bundle.destroy(&self.kernel);
                        return Err(e);
                    }
                    bundle.release_spec();
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
                let steps = std::mem::take(&mut pause.trace);
                trace.extend(Phase::Sandbox, steps.entries().map(|(_, step)| step));
                (shim.detach(), Some(pause), Some(bundle))
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
                (shim.detach(), None, None)
            }
        };

        let sandbox = Sandbox {
            pod_cgroup,
            class: Arc::clone(class_name),
            shim_pid,
            pause,
            pause_bundle,
            container: None,
        };
        self.sandboxes.insert(pod_id.to_string(), Box::new(sandbox));
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
        if let Some(c) = &sandbox.container {
            return Err(KernelError::InvalidState(format!(
                "{pod_id} already holds container {}",
                c.id
            )));
        }

        let mut spec = RuntimeSpec::for_command(container_id, image.command());
        spec.process.env = image.config.env.clone();
        spec.linux.memory.limit = memory_limit;
        spec.linux.cgroups_path = ["/kubepods/", pod_id, "/", container_id].concat();
        for (k, v) in &image.config.annotations {
            spec.annotations.insert(k.clone(), v.clone());
        }
        for (k, v) in annotations {
            spec.annotations.insert(k.clone(), v.clone());
        }
        let bundle = Bundle::create(&self.kernel, container_id, image, spec)?;

        // Snapshot preparation + metadata, under the task lock.
        trace.push(Phase::RuntimeOp, Step::Acquire(TASK_SERVICE_LOCK));
        trace.push(Phase::RuntimeOp, Step::Cpu(Duration::from_micros(1_200)));
        trace.push(Phase::RuntimeOp, Step::Release(TASK_SERVICE_LOCK));
        trace.push(Phase::RuntimeOp, Step::Io(Duration::from_micros(800)));

        let class = self.classes.get(&sandbox.class).expect("class checked at sandbox");
        let oci = match class {
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
                Some(c)
            }
            RuntimeClass::Runwasi { .. } => None,
        };

        sandbox.container = Some(CriContainer {
            id: container_id.to_string(),
            image: Arc::clone(&image.reference),
            state: Lifecycle::new(),
            stdout: Vec::new(),
            wedged: false,
            epoch_clock: None,
            oci,
            bundle,
        });
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
        let shim_pid = sandbox.shim_pid;
        let class = self.classes.get(&sandbox.class).expect("class checked at sandbox");
        let container = sandbox
            .container_mut(container_id)
            .ok_or_else(|| KernelError::InvalidState(format!("no container {container_id}")))?;
        if !lifecycle::legal(container.state.state(), ContainerState::Running) {
            return Err(KernelError::InvalidState(format!(
                "container {container_id} is {:?}",
                container.state.state()
            )));
        }
        match class {
            RuntimeClass::Oci { runtime } => {
                let ctx = RuntimeCtx { runtime_cgroup: self.system_cgroup };
                let oci = container.oci.as_mut().expect("oci class has container");
                // The runtime records into its container's trace: lend it
                // the pod's for the start, so the steps land in place.
                std::mem::swap(trace, &mut oci.trace);
                let started = runtime.start(&ctx, oci, &container.bundle);
                std::mem::swap(trace, &mut oci.trace);
                started?;
                // Nothing reads stdout or the watchdog clock (one holder per
                // container) in the runtime's record again: they move.
                container.stdout = std::mem::take(&mut oci.stdout);
                container.wedged = oci.wedged;
                container.epoch_clock = oci.epoch_clock.take();
            }
            RuntimeClass::Runwasi { engine } => {
                // The shim executes the module in-process: crun's engine
                // handler, embedded as a crate, in the shim's pid.
                let shim =
                    WasmEngineHandler { profile: engine.profile(), embedding: Embedding::Crate };
                let spec = container.bundle.spec().expect("kept until the container starts");
                let mut run = shim.execute(&self.kernel, shim_pid, &container.bundle, spec)?;
                trace.append(&mut run.trace);
                container.stdout = run.stdout;
                container.wedged = run.interrupted;
                container.epoch_clock = run.epoch_clock;
            }
        }
        container.bundle.release_spec();
        container.state.transition(ContainerState::Running, container_id)?;
        Ok(())
    }

    /// Hand a container's captured stdout to the caller — the kubelet, which
    /// keeps the pod's log; the container record keeps none of it. Empty
    /// for an unknown pod or container.
    pub fn take_container_stdout(&mut self, pod_id: &str, container_id: &str) -> Vec<u8> {
        let container = self.sandboxes.get_mut(pod_id).and_then(|s| s.container_mut(container_id));
        container.map(|c| std::mem::take(&mut c.stdout)).unwrap_or_default()
    }

    /// CRI RemovePodSandbox: stop the container, pause, and the shim.
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
        if let Some(mut c) = sandbox.container.take() {
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
        note(self.kernel.exit(sandbox.shim_pid, 0));
        note(self.kernel.reap(sandbox.shim_pid));
        note(self.kernel.cgroup_remove(sandbox.pod_cgroup));
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// A kubelet health-probe RPC against the pod's container. Returns
    /// `Ok(true)` when it is Running and responsive: a wedged
    /// container (watchdog-interrupted guest), a missing sandbox, or an
    /// OOM-killed backing process all probe unhealthy. [`FaultSite::Probe`]
    /// models a transient probe-RPC failure against a healthy pod — the
    /// probe reports failure without the pod being wrong, which is why
    /// probes carry a `failureThreshold` instead of acting on one miss.
    pub fn probe(&self, pod_id: &str) -> KernelResult<bool> {
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
        Ok(s.container.iter().all(|c| c.state.is(ContainerState::Running) && !c.wedged))
    }

    /// True when the pod's container wedged on its watchdog budget and is
    /// still up (Running or riding out a termination grace period).
    pub fn pod_wedged(&self, pod_id: &str) -> bool {
        self.sandboxes.get(pod_id).and_then(|s| s.container.as_ref()).is_some_and(|c| {
            c.wedged
                && matches!(c.state.state(), ContainerState::Running | ContainerState::Terminating)
        })
    }

    /// Deliver SIGTERM to a pod's container: a Running container moves to
    /// [`ContainerState::Terminating`]. Returns `true` when it is wedged — a
    /// wedged guest cannot honor SIGTERM, so the kubelet must
    /// ride out the grace period and escalate to [`Containerd::interrupt_pod`].
    /// Clean containers terminate promptly: the subsequent
    /// [`Containerd::remove_pod_sandbox`] stops them with no clock advance.
    /// A missing sandbox or container has nothing to signal: `false`.
    pub fn begin_pod_termination(&mut self, pod_id: &str) -> bool {
        let Some(c) = self.sandboxes.get_mut(pod_id).and_then(|s| s.container.as_mut()) else {
            return false;
        };
        c.state.begin_termination();
        if let Some(oci) = c.oci.as_mut() {
            oci.state.begin_termination();
        }
        c.wedged && c.state.is(ContainerState::Terminating)
    }

    /// SIGKILL a pod's container: bump its guest's watchdog epoch clock
    /// (the stop lands at its next epoch safepoint), mark the container
    /// Failed, and kill its init process. This is the only hard-kill
    /// path — the kubelet reaches it from a failed liveness probe or from
    /// termination-grace-period expiry.
    pub fn interrupt_pod(&mut self, pod_id: &str) -> KernelResult<()> {
        let Some(sandbox) = self.sandboxes.get_mut(pod_id) else {
            return Ok(());
        };
        if let Some(c) = sandbox.container.as_mut() {
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
                oci.state.fail();
            }
            c.state.fail();
            c.wedged = false;
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
        oomed(s.shim_pid)
            || s.pause.as_ref().is_some_and(|p| oomed(p.pid))
            || s.container.as_ref().and_then(|c| c.oci.as_ref()).is_some_and(|o| oomed(o.pid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use container_runtimes::handler::{PauseHandler, WasmEngineHandler};
    use container_runtimes::profile::{install_runtimes, CRUN};
    use simkernel::{Kernel, KernelConfig};

    impl Containerd {
        /// Pod working set as the metrics-server reads it.
        fn pod_working_set(&self, pod_id: &str) -> KernelResult<u64> {
            let s = self
                .sandboxes
                .get(pod_id)
                .ok_or_else(|| KernelError::InvalidState(format!("no sandbox {pod_id}")))?;
            self.kernel.cgroup_working_set(s.pod_cgroup)
        }
    }

    fn microservice() -> Vec<u8> {
        wasm_core::demo_wasi_module("on\n")
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
            RuntimeClass::Runwasi { engine: EngineKind::Wasmtime },
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
            trace.entries().all(|(p, _)| p == Phase::Sandbox),
            "RunPodSandbox work (shim, pause) is all sandbox-phase"
        );
        cd.create_container("pod-1", "c1", "svc:v1", None, &mut trace).unwrap();
        cd.start_container("pod-1", "c1", &mut trace).unwrap();
        let sandbox = cd.sandbox("pod-1").unwrap();
        let c = sandbox.container("c1").unwrap();
        assert_eq!(c.state, ContainerState::Running);
        assert_eq!(c.stdout, b"on\n");
        // The start carried engine work: later phases are represented too.
        assert!(trace.entries().any(|(p, _)| p == Phase::Exec));
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
    fn a_sandbox_holds_one_container_and_teardown_attempts_everything() {
        let mut cd = boot();
        let procs = cd.kernel.live_procs();
        let mut trace = StepTrace::new();
        cd.run_pod_sandbox("p", "crun-wamr", &mut trace).unwrap();
        cd.create_container("p", "m", "svc:v1", None, &mut trace).unwrap();
        let err = cd.create_container("p", "z", "svc:v1", None, &mut trace).unwrap_err();
        assert!(
            matches!(&err, KernelError::InvalidState(m) if m.contains("already holds container m")),
            "{err:?}"
        );
        cd.start_container("p", "m", &mut trace).unwrap();
        let sandbox = cd.sandbox("p").unwrap();
        assert!(sandbox.container("m").is_some() && sandbox.container("z").is_none());

        // Teardown attempts everything and reports the first failure: with
        // the bundle's config.json already gone, the container's processes,
        // the pause container and the shim still go.
        let config = cd.kernel.lookup("/run/containers/m/config.json").unwrap();
        cd.kernel.remove_file(config).unwrap();
        let err = cd.remove_pod_sandbox("p").unwrap_err();
        assert!(matches!(err, KernelError::NoSuchFile(f) if f == config), "{err:?}");
        assert!(cd.sandbox("p").is_none());
        assert_eq!(cd.kernel.live_procs(), procs, "the container was still torn down");
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
        assert!(cd.sandbox("p").unwrap().container("c").is_none());
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

    /// A bundle keeps its spec until its container starts, in both
    /// classes; the pause container starts with its sandbox.
    #[test]
    fn a_started_container_holds_no_spec() {
        let mut cd = boot();
        let mut trace = StepTrace::new();
        for (pod, c, class) in [("p1", "c1", "crun-wamr"), ("p2", "c2", "runwasi-wasmtime")] {
            cd.run_pod_sandbox(pod, class, &mut trace).unwrap();
            cd.create_container(pod, c, "svc:v1", None, &mut trace).unwrap();
            let sandbox = cd.sandbox(pod).unwrap();
            assert!(sandbox.pause_bundle.as_ref().is_none_or(|b| b.spec().is_none()));
            assert!(sandbox.container(c).unwrap().bundle.spec().is_some(), "not started yet");
            cd.start_container(pod, c, &mut trace).unwrap();
            assert!(cd.sandbox(pod).unwrap().container(c).unwrap().bundle.spec().is_none());
        }
        assert!(cd.sandbox("p1").unwrap().pause_bundle.is_some(), "the OCI pod has a pause");
    }

    /// A started crun pod's two `config.json` files are their documents'
    /// sizes: the kernel charges the lengths, and the host holds no text.
    #[test]
    fn a_started_pods_config_json_files_are_sizes_without_bytes() {
        let mut cd = boot();
        let mut trace = StepTrace::new();
        cd.run_pod_sandbox("p1", "crun-wamr", &mut trace).unwrap();
        cd.create_container("p1", "c1", "svc:v1", None, &mut trace).unwrap();
        cd.start_container("p1", "c1", &mut trace).unwrap();
        let sandbox = cd.sandbox("p1").unwrap();
        let pause = sandbox.pause_bundle.as_ref().unwrap().config_file;
        let workload = sandbox.container("c1").unwrap().bundle.config_file;
        let reader = ProcessImage::spawn(&cd.kernel, "reader", Kernel::ROOT_CGROUP)
            .build()
            .unwrap()
            .detach();
        for (file, len) in [(pause, 405), (workload, 440)] {
            assert_eq!(cd.kernel.file_size(file).unwrap(), len);
            assert_eq!(cd.kernel.read_file(reader, file).unwrap(), None, "no bytes on the host");
        }
    }

    /// A guest that spins from its first instruction until a watchdog
    /// stops it.
    fn spinning_module() -> Vec<u8> {
        let mut b = wasm_core::ModuleBuilder::new();
        let mem = b.memory(1, None);
        b.export_memory("memory", mem);
        let start = b.func(wasm_core::FuncType::new(vec![], vec![]), |f| {
            f.loop_(|f| {
                f.br(0);
            });
        });
        b.export_func("_start", start);
        b.build_bytes()
    }

    /// SIGTERM answers one question, whether the kubelet must wait out a
    /// grace period: only a wedged guest makes it wait.
    #[test]
    fn only_a_wedged_guest_outlasts_sigterm() {
        let mut cd = boot();
        assert!(!cd.begin_pod_termination("ghost"), "no sandbox, nothing to signal");

        let mut trace = StepTrace::new();
        cd.run_pod_sandbox("clean", "crun-wamr", &mut trace).unwrap();
        cd.create_container("clean", "c1", "svc:v1", None, &mut trace).unwrap();
        cd.start_container("clean", "c1", &mut trace).unwrap();
        assert!(!cd.begin_pod_termination("clean"), "a clean guest honors SIGTERM");
        let c = cd.sandbox("clean").unwrap().container("c1").unwrap();
        assert_eq!(c.state, ContainerState::Terminating);

        cd.pull_image(
            oci_spec_lite::ImageBuilder::new("spin:v1")
                .entrypoint(["/app/main.wasm".to_string()])
                .file("/app/main.wasm", spinning_module()),
        )
        .unwrap();
        let budget = Duration::from_millis(1).as_nanos().to_string();
        let watchdog = [(oci_spec_lite::WATCHDOG_BUDGET_ANNOTATION.to_string(), budget)];
        cd.run_pod_sandbox("hung", "crun-wamr", &mut trace).unwrap();
        cd.create_container_with("hung", "c2", "spin:v1", None, &watchdog, &mut trace).unwrap();
        cd.start_container("hung", "c2", &mut trace).unwrap();
        assert!(cd.pod_wedged("hung"));
        assert!(cd.begin_pod_termination("hung"));
        assert!(cd.begin_pod_termination("hung"), "re-delivered mid-grace, still wedged");
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
