//! The containerd 2.0 Sandbox API, Kuasar-style (paper §V, related work).
//!
//! The paper's related-work section points at containerd's experimental
//! Sandbox API and the Kuasar project: instead of one shim per pod routing
//! to per-container runtimes, a *sandboxer* owns a pod-level sandbox that
//! can host many containers inside **one** runtime instance. For Wasm that
//! means a single engine per pod with one module instance per container —
//! the engine library mapping and baseline are paid once per pod rather
//! than once per container: [`engines::load_engine`] once per sandbox
//! process, [`engines::run_module`] once per container — the two stages a
//! crun handler or a runwasi shim runs back to back, so a container here
//! meets the same fault site, watchdog, code cache and `cpu.max` charge
//! as a container anywhere else.
//!
//! This module implements that future integration so it can be benchmarked
//! against the paper's WAMR-crun integration (`examples/sandbox_api.rs`):
//! for the paper's 1-container-per-pod experiments the two are nearly
//! equivalent, but as containers-per-pod grows the sandboxer amortizes the
//! per-pod costs that WAMR-crun pays per container.

use container_runtimes::handler::guest_from_oci;
use engines::{load_engine, run_module, Embedding, EngineKind, ExecOptions, LoadedEngine};
use oci_spec_lite::{Bundle, Image, RuntimeSpec};
use simkernel::{
    CgroupId, Duration, Kernel, KernelError, KernelResult, Phase, Pid, ProcessImage, Step,
    StepTrace,
};

/// A sandbox hosting multiple Wasm containers in one process.
pub struct WasmSandbox {
    pub pod_id: String,
    pub pod_cgroup: CgroupId,
    /// The single sandbox process hosting every instance.
    pub pid: Pid,
    fuel: u64,
    containers: Vec<SandboxContainer>,
    /// What `load_engine` returned, once a container has paid for it.
    engine: Option<LoadedEngine<'static>>,
    /// Bundles owned by this sandbox (destroyed with it).
    bundles: Vec<Bundle>,
    /// Steps accumulated across sandbox + container startups, tagged with
    /// the lifecycle phase each belongs to.
    pub trace: StepTrace,
}

/// One container (module instance) inside a sandbox.
#[derive(Debug)]
pub struct SandboxContainer {
    pub id: String,
    pub stdout: Vec<u8>,
    pub exit_code: i32,
    /// The guest overstayed its watchdog epoch budget during start: the
    /// instance is up and keeps its memory, but never reached ready.
    pub wedged: bool,
}

/// The Kuasar-style Wasm sandboxer.
pub struct WasmSandboxer {
    kernel: Kernel,
    pub engine: EngineKind,
    pub fuel: u64,
}

/// Sandboxer process overhead (the kuasar-wasm-sandboxer daemon share).
const SANDBOX_PROCESS_BASE: u64 = 640 << 10;
const SANDBOX_CREATE: Duration = Duration::from_micros(4_000);

impl WasmSandboxer {
    pub fn new(kernel: Kernel, engine: EngineKind) -> WasmSandboxer {
        WasmSandboxer { kernel, engine, fuel: engines::profile::DEFAULT_STARTUP_FUEL }
    }

    /// Create a pod sandbox: one process in the pod cgroup, engine loaded
    /// lazily on the first container.
    pub fn create_sandbox(&self, pod_id: &str, pod_cgroup: CgroupId) -> KernelResult<WasmSandbox> {
        let pid = ProcessImage::spawn(&self.kernel, format!("wasm-sandbox:{pod_id}"), pod_cgroup)
            .heap(SANDBOX_PROCESS_BASE, "sandbox-base")
            .build()?
            .detach();
        let mut trace = StepTrace::new();
        trace.push(Phase::Sandbox, Step::Cpu(SANDBOX_CREATE));
        Ok(WasmSandbox {
            pod_id: pod_id.to_string(),
            pod_cgroup,
            pid,
            fuel: self.fuel,
            containers: Vec::new(),
            engine: None,
            bundles: Vec::new(),
            trace,
        })
    }

    /// Add (and start) a container inside the sandbox. The engine library
    /// and baseline are charged only for the first container; later
    /// containers pay only what a guest costs. On `Err` the sandbox — its
    /// process, its other containers, its bundles — is as it was before the
    /// call, and the same `id` can be added again.
    pub fn add_container(
        &self,
        sandbox: &mut WasmSandbox,
        id: &str,
        image: &Image,
    ) -> KernelResult<()> {
        let mut spec = RuntimeSpec::for_command(id, image.command());
        for (k, v) in &image.config.annotations {
            spec.annotations.insert(k.clone(), v.clone());
        }
        spec.process.env = image.config.env.clone();
        if !spec.wants_wasm() {
            return Err(KernelError::InvalidState(format!(
                "wasm sandboxer can only host Wasm containers, got {:?}",
                spec.process.args
            )));
        }
        let bundle =
            Bundle::create(&self.kernel, &format!("{}-{id}", sandbox.pod_id), image, &spec)?;
        let started = (|| {
            let base = ExecOptions { embedding: Embedding::Crate, ..Default::default() };
            let (module, wasi, opts) = guest_from_oci(&bundle, &spec, base)?;
            // The first container loads the engine and the sandbox keeps
            // what that returned: later containers — and the retry of a
            // first container whose *guest* failed — go straight to
            // `run_module`. A failed load rolled itself back.
            let engine = match sandbox.engine {
                Some(engine) => engine,
                None => {
                    let (engine, mut load) =
                        load_engine(&self.kernel, sandbox.pid, self.engine.profile(), opts)?;
                    sandbox.trace.append(&mut load);
                    *sandbox.engine.insert(engine)
                }
            };
            let fresh = StepTrace::new();
            run_module(&self.kernel, sandbox.pid, engine, module, &wasi, sandbox.fuel, opts, fresh)
        })();
        let mut run = started.inspect_err(|_| {
            // The sandbox process survives a failed guest and both stages
            // left it as they found it: only the bundle is ours to undo.
            let _ = bundle.destroy(&self.kernel);
        })?;
        sandbox.bundles.push(bundle);
        sandbox.trace.append(&mut run.trace);
        sandbox.containers.push(SandboxContainer {
            id: id.to_string(),
            stdout: run.stdout,
            exit_code: run.exit_code,
            wedged: run.interrupted,
        });
        Ok(())
    }

    /// Tear the sandbox (and every hosted container, and their bundles)
    /// down.
    pub fn remove_sandbox(&self, sandbox: WasmSandbox) -> KernelResult<()> {
        for b in &sandbox.bundles {
            b.destroy(&self.kernel)?;
        }
        self.kernel.exit(sandbox.pid, 0)?;
        self.kernel.reap(sandbox.pid)?;
        Ok(())
    }
}

impl WasmSandbox {
    pub fn containers(&self) -> &[SandboxContainer] {
        &self.containers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oci_spec_lite::{ImageBuilder, ImageStore};
    use simkernel::{Kernel, KernelConfig};

    fn microservice() -> Vec<u8> {
        wasm_core::builder::demo_wasi_module("in sandbox\n")
    }

    fn setup() -> (Kernel, Image) {
        let kernel = Kernel::boot(KernelConfig::default());
        engines::install_engines(&kernel).unwrap();
        let mut store = ImageStore::new();
        let image = store
            .register(
                &kernel,
                ImageBuilder::new("svc:v1")
                    .entrypoint(["/app/main.wasm".to_string()])
                    .annotation(oci_spec_lite::WASM_VARIANT_ANNOTATION, "compat")
                    .file("/app/main.wasm", microservice()),
            )
            .unwrap()
            .clone();
        (kernel, image)
    }

    #[test]
    fn sandbox_hosts_multiple_containers() {
        let (kernel, image) = setup();
        let pod = kernel.cgroup_create(Kernel::ROOT_CGROUP, "pod").unwrap();
        let sandboxer = WasmSandboxer::new(kernel.clone(), EngineKind::Wamr);
        let mut sandbox = sandboxer.create_sandbox("p1", pod).unwrap();
        for i in 0..4 {
            sandboxer.add_container(&mut sandbox, &format!("c{i}"), &image).unwrap();
        }
        assert_eq!(sandbox.containers().len(), 4);
        for c in sandbox.containers() {
            assert_eq!(c.stdout, b"in sandbox\n");
            assert_eq!(c.exit_code, 0);
        }
        // One process hosts all four instances.
        assert_eq!(kernel.live_procs(), 1);
        sandboxer.remove_sandbox(sandbox).unwrap();
        assert_eq!(kernel.live_procs(), 0);
    }

    #[test]
    fn engine_baseline_amortizes_across_containers() {
        let (kernel, image) = setup();
        // Warm shared files so deltas are marginal costs.
        let warm_pod = kernel.cgroup_create(Kernel::ROOT_CGROUP, "warm").unwrap();
        let sandboxer = WasmSandboxer::new(kernel.clone(), EngineKind::WasmEdge);
        let mut warm = sandboxer.create_sandbox("warm", warm_pod).unwrap();
        sandboxer.add_container(&mut warm, "w", &image).unwrap();
        sandboxer.remove_sandbox(warm).unwrap();

        let pod = kernel.cgroup_create(Kernel::ROOT_CGROUP, "pod").unwrap();
        let mut sandbox = sandboxer.create_sandbox("p", pod).unwrap();
        sandboxer.add_container(&mut sandbox, "c0", &image).unwrap();
        let after_first = kernel.cgroup_stat(pod).unwrap().current;
        sandboxer.add_container(&mut sandbox, "c1", &image).unwrap();
        let after_second = kernel.cgroup_stat(pod).unwrap().current;
        let marginal = after_second - after_first;
        assert!(
            marginal * 2 < after_first,
            "second container ({marginal} B) must cost well under half the first ({after_first} B)"
        );
    }

    #[test]
    fn six_container_pod_working_sets_are_pinned() {
        // `examples/sandbox_api` on this module's image (the `workloads`
        // microservice the example deploys is not a dependency of this
        // crate; `tests/full_stack.rs` pins the example's own numbers): six
        // containers in one pod, WAMR-crun against the sandboxer, in bytes.
        let (kernel, image) = setup();
        container_runtimes::profile::install_runtimes(&kernel).unwrap();
        let ctx = container_runtimes::RuntimeCtx {
            runtime_cgroup: kernel.cgroup_create(Kernel::ROOT_CGROUP, "system").unwrap(),
        };
        let rt = wamr_crun::wamr_crun_runtime(kernel.clone(), Default::default());
        let pod_a = kernel.cgroup_create(Kernel::ROOT_CGROUP, "pod-crun").unwrap();
        for i in 0..6 {
            let id = format!("a{i}");
            let mut spec = RuntimeSpec::for_command(&id, image.command());
            spec.annotations.extend(image.config.annotations.clone());
            let bundle = Bundle::create(&kernel, &id, &image, &spec).unwrap();
            let mut c = rt.create(&ctx, &id, &bundle, pod_a).unwrap();
            rt.start(&ctx, &mut c, &bundle).unwrap();
        }
        let pod_b = kernel.cgroup_create(Kernel::ROOT_CGROUP, "pod-sandbox").unwrap();
        let sandboxer = WasmSandboxer::new(kernel.clone(), EngineKind::Wamr);
        let mut sandbox = sandboxer.create_sandbox("pod-sandbox", pod_b).unwrap();
        for i in 0..6 {
            sandboxer.add_container(&mut sandbox, &format!("b{i}"), &image).unwrap();
        }
        let working_set = |pod| kernel.cgroup_working_set(pod).unwrap();
        assert_eq!((working_set(pod_a), working_set(pod_b)), (8_765_440, 1_835_008));
    }

    #[test]
    fn every_sandbox_container_is_charged_for_its_guest_cpu() {
        let (kernel, image) = setup();
        let pod = kernel.cgroup_create(Kernel::ROOT_CGROUP, "pod").unwrap();
        kernel.cgroup_set_cpu_max(pod, Some((1_000_000, 100_000_000))).unwrap();
        let sandboxer = WasmSandboxer::new(kernel.clone(), EngineKind::Wamr);
        let mut sandbox = sandboxer.create_sandbox("p", pod).unwrap();
        let mut throttled = 0;
        for i in 0..4 {
            sandboxer.add_container(&mut sandbox, &format!("c{i}"), &image).unwrap();
            let now = kernel.cgroup_stats(pod).unwrap().cpu_throttled_ns;
            assert!(now > throttled, "container {i} ran for free: {throttled} -> {now}");
            throttled = now;
        }
    }

    #[test]
    fn failed_guest_start_leaves_the_sandbox_as_it_found_it() {
        use simkernel::{FaultPlan, FaultSite};
        let (kernel, image) = setup();
        let sandboxer = WasmSandboxer::new(kernel.clone(), EngineKind::Wasmtime);
        let pod = kernel.cgroup_create(Kernel::ROOT_CGROUP, "pod").unwrap();
        let mut sandbox = sandboxer.create_sandbox("p", pod).unwrap();
        for i in 0..3 {
            sandboxer.add_container(&mut sandbox, &format!("c{i}"), &image).unwrap();
        }
        let state = |sandbox: &WasmSandbox| {
            (
                kernel.cgroup_working_set(sandbox.pod_cgroup).unwrap(),
                kernel.proc_rss(sandbox.pid).unwrap(),
                kernel.live_procs(),
                sandbox.containers().len(),
            )
        };

        // The fourth guest meets the fault site every guest start has,
        // before any instance state exists.
        let before = state(&sandbox);
        kernel.set_fault_plan(FaultPlan::new(1).fail_call(FaultSite::EngineInstantiate, 0));
        let err = sandboxer.add_container(&mut sandbox, "c3", &image);
        assert!(matches!(err, Err(KernelError::FaultInjected(FaultSite::EngineInstantiate))));
        assert_eq!(kernel.faults_injected(FaultSite::EngineInstantiate), 1);
        assert_eq!(state(&sandbox), before);
        // No bundle left behind: the same id starts on retry.
        sandboxer.add_container(&mut sandbox, "c3", &image).unwrap();

        // The fault lands on a fork-bomb spin instead: code, instance
        // metadata and linear memory are all charged by then.
        let mut churning = image.clone();
        churning
            .config
            .annotations
            .insert(oci_spec_lite::INSTANTIATE_CHURN_ANNOTATION.to_string(), "2".to_string());
        let before = state(&sandbox);
        kernel.set_fault_plan(FaultPlan::new(1).fail_call(FaultSite::EngineInstantiate, 1));
        let err = sandboxer.add_container(&mut sandbox, "c4", &churning);
        assert!(matches!(err, Err(KernelError::FaultInjected(FaultSite::EngineInstantiate))));
        assert_eq!(state(&sandbox), before);
        sandboxer.add_container(&mut sandbox, "c4", &churning).unwrap();

        // A *first* container whose engine load fails after the library is
        // mapped (the baseline heap is the first anonymous charge): the
        // retry must not map the library a second time.
        let clean_pod = kernel.cgroup_create(Kernel::ROOT_CGROUP, "clean").unwrap();
        let mut clean = sandboxer.create_sandbox("clean", clean_pod).unwrap();
        sandboxer.add_container(&mut clean, "c0", &image).unwrap();
        let retry_pod = kernel.cgroup_create(Kernel::ROOT_CGROUP, "retry").unwrap();
        let mut retried = sandboxer.create_sandbox("retry", retry_pod).unwrap();
        let before = state(&retried);
        kernel.set_fault_plan(FaultPlan::new(1).fail_call(FaultSite::MmapCharge, 0));
        let err = sandboxer.add_container(&mut retried, "c0", &image);
        assert!(matches!(err, Err(KernelError::FaultInjected(FaultSite::MmapCharge))));
        assert_eq!(state(&retried), before);
        sandboxer.add_container(&mut retried, "c0", &image).unwrap();
        assert_eq!(state(&retried), state(&clean), "one library, one baseline");
    }

    #[test]
    fn non_wasm_container_rejected() {
        let (kernel, _image) = setup();
        let mut store = ImageStore::new();
        let native = store
            .register(
                &kernel,
                ImageBuilder::new("py:v1").entrypoint(["/usr/bin/python3".to_string()]),
            )
            .unwrap()
            .clone();
        let pod = kernel.cgroup_create(Kernel::ROOT_CGROUP, "pod").unwrap();
        let sandboxer = WasmSandboxer::new(kernel.clone(), EngineKind::Wamr);
        let mut sandbox = sandboxer.create_sandbox("p", pod).unwrap();
        assert!(matches!(
            sandboxer.add_container(&mut sandbox, "c", &native),
            Err(KernelError::InvalidState(_))
        ));
    }
}
