//! The low-level OCI runtime lifecycle: create → start → kill → delete.
//!
//! `create` runs a *transient* runtime process (crun/runc/youki) that
//! reads the bundle's `config.json` (a size on the simulated filesystem)
//! and takes the spec the bundle kept, creates the container cgroup,
//! spawns the container init process, and unshare()s its namespaces.
//! `start` dispatches the workload to the first matching
//! [`ContainerHandler`], which executes it inside the container process.
//! The runtime process exits after each operation, exactly as the real
//! binaries do — so the steady-state memory the experiments measure
//! contains only container (and pause) processes.

use std::sync::Arc;

use oci_spec_lite::Bundle;
use simkernel::lifecycle;
use simkernel::{
    CgroupId, Duration, Kernel, KernelError, KernelResult, Lifecycle, Phase, Pid, ProcessImage,
    Step, StepTrace,
};

use crate::handler::{ContainerHandler, HandlerOutcome};
use crate::profile::RuntimeProfile;

/// Lifecycle state (OCI runtime spec §5) — the shared state machine from
/// `simkernel::lifecycle`, used identically by the runwasi shim path.
pub use simkernel::LifecycleState as ContainerState;

/// A container managed by a low-level runtime.
#[derive(Debug)]
pub struct Container {
    pub(crate) id: String,
    /// What a caller keeps of it once it has started.
    pub run: Resident,
    /// DES startup steps (create + start + workload) by lifecycle phase;
    /// `start` pushes onto it, so a caller can lend it a trace of its own.
    pub trace: StepTrace,
    /// Captured workload stdout.
    pub stdout: Vec<u8>,
    /// Name of the handler that ran the workload ("" before `start`).
    pub handler: &'static str,
}

/// A container as its caller keeps it resident: what `delete`, a probe and
/// a hard kill read.
#[derive(Debug)]
pub struct Resident {
    /// The container init process.
    pub pid: Pid,
    /// The container's own cgroup (child of the pod cgroup).
    pub cgroup: CgroupId,
    /// Position in the shared OCI lifecycle state machine.
    pub state: Lifecycle,
    /// The workload overstayed its watchdog epoch budget: the container is
    /// up but never reached ready. Liveness probes report failure for it.
    pub wedged: bool,
    /// Watchdog epoch clock retained from the workload run (present when
    /// the handler armed an epoch budget).
    pub epoch_clock: Option<wasm_core::EpochClock>,
}

impl Resident {
    /// A created container in `pid` and `cgroup`.
    pub fn new(pid: Pid, cgroup: CgroupId) -> Resident {
        Resident { pid, cgroup, state: Lifecycle::new(), wedged: false, epoch_clock: None }
    }

    /// A deep copy for a forked kernel. The watchdog clock, a cell, is
    /// re-made at its reading: an interrupt in one copy leaves the other's.
    pub fn fork(&self) -> Resident {
        Resident {
            epoch_clock: self.epoch_clock.as_ref().map(wasm_core::EpochClock::fork),
            ..*self
        }
    }
}

/// Ambient context for runtime invocations.
#[derive(Debug, Clone)]
pub struct RuntimeCtx {
    /// Cgroup the transient runtime processes run in (the runtime/system
    /// slice — *not* the pod cgroup; this split is why metrics-server and
    /// `free` disagree).
    pub runtime_cgroup: CgroupId,
}

/// A low-level OCI runtime with registered workload handlers.
pub struct LowLevelRuntime {
    kernel: Kernel,
    profile: RuntimeProfile,
    /// Stateless values, so forks of a runtime share them.
    handlers: Vec<Arc<dyn ContainerHandler>>,
}

impl LowLevelRuntime {
    /// A runtime on `kernel` holding its own copy of `profile`.
    pub fn new(kernel: Kernel, profile: &RuntimeProfile) -> Self {
        LowLevelRuntime { kernel, profile: *profile, handlers: Vec::new() }
    }

    /// The same runtime — profile and handlers, in order — on `kernel`: a
    /// [`Kernel::fork`] of the one this runtime drives.
    pub fn fork(&self, kernel: Kernel) -> LowLevelRuntime {
        LowLevelRuntime { kernel, profile: self.profile, handlers: self.handlers.clone() }
    }

    /// Register a workload handler. Order matters: first match wins.
    pub fn register_handler(&mut self, handler: Box<dyn ContainerHandler>) -> &mut Self {
        self.handlers.push(Arc::from(handler));
        self
    }

    pub fn handler_names(&self) -> Vec<&'static str> {
        self.handlers.iter().map(|h| h.name()).collect()
    }

    /// Run a transient runtime process for one lifecycle operation and
    /// account its footprint/latency; the process exits before returning.
    /// The [`ProcessImage`] guard owns the transient pid, so an error
    /// anywhere in `body` still exits and reaps it.
    fn transient_runtime_op(
        &self,
        ctx: &RuntimeCtx,
        trace: &mut StepTrace,
        body: impl FnOnce(&Kernel, Pid, &mut StepTrace) -> KernelResult<()>,
    ) -> KernelResult<()> {
        let kernel = &self.kernel;
        let p = &self.profile;
        // Exec: map the runtime binary; first exec pays the cold read.
        let rt = ProcessImage::spawn(kernel, p.name, ctx.runtime_cgroup)
            .text(p.binary_path, p.binary_size, p.binary_resident(), p.name)
            .heap(p.startup_heap, "rt-heap")
            .build()?;
        if let Some(io) = rt.cold_read_step() {
            trace.push(Phase::RuntimeOp, io);
        }
        trace.push(Phase::RuntimeOp, Step::Cpu(p.exec));
        trace.push(Phase::RuntimeOp, Step::Io(p.op_io));

        let result = body(kernel, rt.pid(), trace);

        // The workload's error (if any) outranks a failure to retire the
        // transient process.
        result.and(rt.exit(0))
    }

    /// OCI `create`: parse the config, build the cgroup, spawn the init
    /// process, unshare namespaces, apply resource limits.
    pub fn create(
        &self,
        ctx: &RuntimeCtx,
        id: &str,
        bundle: &Bundle,
        pod_cgroup: CgroupId,
    ) -> KernelResult<Container> {
        let p = &self.profile;
        let mut trace = StepTrace::new();
        let mut pid_slot: Option<Pid> = None;
        let mut cg_slot: Option<CgroupId> = None;

        let op_result = self.transient_runtime_op(ctx, &mut trace, |kernel, rt_pid, trace| {
            // Read config.json through the VFS; the parse is charged by
            // its size, and the bundle hands back the spec it wrote.
            let spec = bundle.load_spec(kernel, rt_pid)?;
            let config_kib = kernel.file_size(bundle.config_file)?.div_ceil(1024);
            trace.push(
                Phase::RuntimeOp,
                Step::Cpu(Duration::from_nanos(config_kib * p.parse_ns_per_kib)),
            );

            // Container cgroup under the pod, with the spec's memory limit.
            let cgroup = kernel.cgroup_create(pod_cgroup, id)?;
            cg_slot = Some(cgroup);
            if let Some(limit) = spec.linux.memory.limit {
                kernel.cgroup_set_limit(cgroup, Some(limit))?;
            }
            trace.push(Phase::RuntimeOp, Step::Cpu(p.cgroup_setup));

            // Container init process: a fork of the runtime, so it shares
            // the runtime binary text and keeps a small private residual.
            // The guard covers the window until unshare succeeds.
            let init = ProcessImage::spawn(kernel, "container", cgroup).build()?;
            kernel.unshare(init.pid(), spec.linux.namespaces.len() as u32)?;
            pid_slot = Some(init.detach());
            trace.push(Phase::RuntimeOp, Step::Cpu(p.create_sandbox));
            Ok(())
        });
        if let Err(e) = op_result {
            // Failures after the container pid/cgroup exist must not leak.
            self.cleanup_partial(pid_slot, cg_slot);
            return Err(e);
        }

        Ok(Container {
            id: id.to_string(),
            run: Resident::new(pid_slot.expect("set by create"), cg_slot.expect("set by create")),
            trace,
            stdout: Vec::new(),
            handler: "",
        })
    }

    /// Best-effort teardown of a partially-created container (used by
    /// error paths so failures cannot leak processes or cgroups).
    fn cleanup_partial(&self, pid: Option<Pid>, cgroup: Option<CgroupId>) {
        if let Some(p) = pid {
            let _ = self.kernel.exit(p, 1);
            let _ = self.kernel.reap(p);
        }
        if let Some(cg) = cgroup {
            let _ = self.kernel.cgroup_remove(cg);
        }
    }

    /// OCI `start`: dispatch the workload to the first matching handler.
    pub fn start(
        &self,
        ctx: &RuntimeCtx,
        container: &mut Container,
        bundle: &Bundle,
    ) -> KernelResult<()> {
        let Container { id, run, trace, stdout, handler } = container;
        // The start's steps follow the create's in the container's trace.
        (*stdout, *handler) = self.start_resident(ctx, id, run, bundle, trace)?;
        Ok(())
    }

    /// [`LowLevelRuntime::start`] for a created container its caller keeps
    /// as a [`Resident`] named `id`, recording into the caller's `trace`.
    /// Returns the workload's stdout and the handler's name.
    pub fn start_resident(
        &self,
        ctx: &RuntimeCtx,
        id: &str,
        run: &mut Resident,
        bundle: &Bundle,
        trace: &mut StepTrace,
    ) -> KernelResult<(Vec<u8>, &'static str)> {
        if !lifecycle::legal(run.state.state(), ContainerState::Running) {
            return Err(KernelError::InvalidState(format!(
                "start {id}: illegal lifecycle transition {:?} -> Running",
                run.state.state()
            )));
        }
        let p = &self.profile;
        let mut outcome_slot: Option<(HandlerOutcome, &'static str)> = None;

        self.transient_runtime_op(ctx, trace, |kernel, rt_pid, trace| {
            let spec = bundle.load_spec(kernel, rt_pid)?;
            let handler =
                self.handlers.iter().find(|h| h.matches(&spec, bundle)).ok_or_else(|| {
                    KernelError::InvalidState(format!(
                        "no handler for container {id} (args {:?})",
                        spec.process.args
                    ))
                })?;
            // In-process handlers (crun's Wasm handlers) keep the runtime's
            // image resident in the container process — its (shared) binary
            // text and a private residual. exec()ing handlers (Python,
            // pause) replace the image entirely and map their own binaries.
            // No cold-read step: the transient op above already faulted the
            // binary in, so the fork's text pages are warm by construction.
            if handler.in_process() {
                let mut image = ProcessImage::attach(kernel, run.pid).text(
                    p.binary_path,
                    p.binary_size,
                    p.binary_resident(),
                    p.name,
                );
                if p.container_residual > 0 {
                    image = image.heap(p.container_residual, "rt-residual");
                }
                let _warm = image.build()?;
            }
            let mut outcome = handler.execute(kernel, run.pid, bundle, &spec)?;
            trace.append(&mut outcome.trace);
            outcome_slot = Some((outcome, handler.name()));
            Ok(())
        })?;

        let (outcome, handler) = outcome_slot.expect("set in start body");
        run.wedged = outcome.interrupted;
        run.epoch_clock = outcome.epoch_clock;
        run.state.transition(ContainerState::Running, id)?;
        Ok((outcome.stdout, handler))
    }

    /// OCI `kill` + `delete`: stop the init process and remove the cgroup.
    /// Idempotent — a second delete (or deleting an already-stopped
    /// container) is a no-op.
    pub fn delete(&self, container: &mut Resident) -> KernelResult<()> {
        if container.state.stop() {
            // The init process may already be gone (OOM-killed by the
            // kernel); delete must still reap it and remove the cgroup.
            if matches!(self.kernel.proc_state(container.pid), Ok(simkernel::ProcState::Running)) {
                self.kernel.exit(container.pid, 0)?;
            }
            if self.kernel.proc_state(container.pid).is_ok() {
                self.kernel.reap(container.pid)?;
            }
        }
        if container.state.is(ContainerState::Deleted) {
            return Ok(());
        }
        self.kernel.cgroup_remove(container.cgroup)?;
        // Stopped or Failed by now, and both move to Deleted.
        container.state.transition(ContainerState::Deleted, "delete")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::{PauseHandler, WasmEngineHandler};
    use crate::profile::{install_runtimes, CRUN, RUNC};
    use engines::EngineKind;
    use oci_spec_lite::{ImageBuilder, ImageStore, RuntimeSpec};
    use simkernel::{Kernel, KernelConfig};

    fn microservice() -> Vec<u8> {
        wasm_core::demo_wasi_module("ready\n")
    }

    fn setup(kernel: &Kernel) -> (Bundle, RuntimeSpec) {
        engines::install_engines(kernel).unwrap();
        install_runtimes(kernel).unwrap();
        let mut store = ImageStore::new();
        let image = store
            .register(
                kernel,
                ImageBuilder::new("svc:v1")
                    .entrypoint(["/app/main.wasm".to_string()])
                    .file("/app/main.wasm", microservice()),
            )
            .unwrap()
            .clone();
        let spec = RuntimeSpec::for_command("c1", image.command());
        let bundle = Bundle::create(kernel, "c1", &image, &spec).unwrap();
        (bundle, spec)
    }

    fn ctx(kernel: &Kernel) -> RuntimeCtx {
        RuntimeCtx { runtime_cgroup: kernel.cgroup_create(Kernel::ROOT_CGROUP, "system").unwrap() }
    }

    #[test]
    fn full_lifecycle_with_wamr_handler() {
        let kernel = Kernel::boot(KernelConfig::default());
        let (bundle, _) = setup(&kernel);
        let ctx = ctx(&kernel);
        let pods = kernel.cgroup_create(Kernel::ROOT_CGROUP, "kubepods").unwrap();
        let pod = kernel.cgroup_create(pods, "pod-1").unwrap();

        let mut rt = LowLevelRuntime::new(kernel.clone(), &CRUN);
        rt.register_handler(Box::new(WasmEngineHandler::new(EngineKind::Wamr)));

        let mut c = rt.create(&ctx, "c1", &bundle, pod).unwrap();
        assert_eq!(c.run.state, ContainerState::Created);
        // The init process exists but maps nothing until `start` selects a
        // handler (exec()ing handlers replace the image entirely).
        assert_eq!(kernel.proc_rss(c.run.pid).unwrap(), 0);

        rt.start(&ctx, &mut c, &bundle).unwrap();
        assert_eq!(c.run.state, ContainerState::Running);
        assert_eq!(c.handler, "wamr");
        assert_eq!(c.stdout, b"ready\n");
        assert!(!c.trace.steps().is_empty());

        // Workload memory landed in the pod subtree.
        let pod_ws = kernel.cgroup_working_set(pod).unwrap();
        assert!(pod_ws > 500 << 10, "pod working set {pod_ws}");
        // Transient runtime processes are gone.
        assert_eq!(kernel.live_procs(), 1, "only the container init remains");

        rt.delete(&mut c.run).unwrap();
        assert_eq!(c.run.state, ContainerState::Deleted);
        rt.delete(&mut c.run).unwrap(); // idempotent
        assert_eq!(kernel.live_procs(), 0);
    }

    #[test]
    fn start_requires_created_state() {
        let kernel = Kernel::boot(KernelConfig::default());
        let (bundle, _) = setup(&kernel);
        let ctx = ctx(&kernel);
        let pod = kernel.cgroup_create(Kernel::ROOT_CGROUP, "pod").unwrap();
        let mut rt = LowLevelRuntime::new(kernel.clone(), &CRUN);
        rt.register_handler(Box::new(WasmEngineHandler::new(EngineKind::Wamr)));
        let mut c = rt.create(&ctx, "c1", &bundle, pod).unwrap();
        rt.start(&ctx, &mut c, &bundle).unwrap();
        assert!(rt.start(&ctx, &mut c, &bundle).is_err(), "double start rejected");
    }

    #[test]
    fn no_handler_is_an_error() {
        let kernel = Kernel::boot(KernelConfig::default());
        let (bundle, _) = setup(&kernel);
        let ctx = ctx(&kernel);
        let pod = kernel.cgroup_create(Kernel::ROOT_CGROUP, "pod").unwrap();
        let rt = LowLevelRuntime::new(kernel.clone(), &CRUN);
        let mut c = rt.create(&ctx, "c1", &bundle, pod).unwrap();
        let err = rt.start(&ctx, &mut c, &bundle).unwrap_err();
        assert!(matches!(err, KernelError::InvalidState(_)));
    }

    #[test]
    fn handler_priority_order() {
        let kernel = Kernel::boot(KernelConfig::default());
        let (bundle, _) = setup(&kernel);
        let ctx = ctx(&kernel);
        let pod = kernel.cgroup_create(Kernel::ROOT_CGROUP, "pod").unwrap();
        let mut rt = LowLevelRuntime::new(kernel.clone(), &CRUN);
        // Both match .wasm entrypoints; the first registered wins.
        rt.register_handler(Box::new(WasmEngineHandler::new(EngineKind::WasmEdge)));
        rt.register_handler(Box::new(WasmEngineHandler::new(EngineKind::Wamr)));
        let mut c = rt.create(&ctx, "c1", &bundle, pod).unwrap();
        rt.start(&ctx, &mut c, &bundle).unwrap();
        assert_eq!(c.handler, "wasmedge");
    }

    #[test]
    fn runc_costs_more_than_crun() {
        let kernel = Kernel::boot(KernelConfig::default());
        let (bundle, _) = setup(&kernel);
        let ctx = ctx(&kernel);
        let pods = kernel.cgroup_create(Kernel::ROOT_CGROUP, "pods").unwrap();

        let cpu_total = |c: &Container| -> u64 {
            c.trace
                .steps()
                .iter()
                .map(|s| match s {
                    Step::Cpu(d) => d.as_nanos(),
                    _ => 0,
                })
                .sum()
        };

        let pod_a = kernel.cgroup_create(pods, "a").unwrap();
        let mut crun = LowLevelRuntime::new(kernel.clone(), &CRUN);
        crun.register_handler(Box::new(PauseHandler));
        let mut image_store = ImageStore::new();
        let pause_img =
            image_store.register(&kernel, ImageBuilder::new("pause:3.9")).unwrap().clone();
        let pause_spec = RuntimeSpec::for_command("p", vec!["/pause".to_string()]);
        let pause_bundle_a = Bundle::create(&kernel, "pa", &pause_img, &pause_spec).unwrap();
        let mut ca = crun.create(&ctx, "pa", &pause_bundle_a, pod_a).unwrap();
        crun.start(&ctx, &mut ca, &pause_bundle_a).unwrap();

        let pod_b = kernel.cgroup_create(pods, "b").unwrap();
        let mut runc = LowLevelRuntime::new(kernel.clone(), &RUNC);
        runc.register_handler(Box::new(PauseHandler));
        let pause_bundle_b = Bundle::create(&kernel, "pb", &pause_img, &pause_spec).unwrap();
        let mut cb = runc.create(&ctx, "pb", &pause_bundle_b, pod_b).unwrap();
        runc.start(&ctx, &mut cb, &pause_bundle_b).unwrap();

        assert!(cpu_total(&cb) > cpu_total(&ca), "runc slower than crun");
        let _ = bundle;
    }
}
