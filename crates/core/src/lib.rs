//! # wamr-crun — the paper's contribution: WAMR embedded in crun
//!
//! This crate implements the integration described in §III-C of *Memory
//! Efficient WebAssembly Containers*, structured around the paper's three
//! aspects, each of which is one function [`WamrHandler`] calls:
//!
//! 1. **Dynamic library loading** — [`engines::load_engine`]: the WAMR
//!    shared library is dlopen'ed at container start, only when a Wasm
//!    container actually runs. Its text pages are file-backed and therefore
//!    resident **once per node** regardless of container count; non-Wasm
//!    containers never pay for it.
//!    ([`WamrCrunConfig::dynamic_lib_loading`] disables the sharing to
//!    model a statically-linked build — the `ablation_dlopen` bench.)
//! 2. **WASI argument handling** —
//!    [`container_runtimes::handler::guest_from_oci`]: the OCI
//!    `process.args`, `process.env` and rootfs mounts are plumbed into the
//!    module's WASI context (arguments, environment variables, pre-opened
//!    directories), so existing containerized workflows run unchanged.
//! 3. **Sandboxed execution** — [`engines::run_module`]: each module
//!    executes in its own container process, inside the namespaces and
//!    cgroup the runtime created, with an instruction budget; WAMR's
//!    in-place interpreter keeps per-instance memory to the module bytes
//!    (shared, from the page cache) plus small control side-tables.
//!    (`engines::execute_wasm_opts` is 1, then 3.)
//!
//! [`wamr_crun_runtime`] assembles the modified crun: the standard crun
//! lifecycle from `container-runtimes` with the [`WamrHandler`] registered
//! ahead of the stock handlers.

use container_runtimes::handler::{guest_from_oci, ContainerHandler, HandlerOutcome, PauseHandler};
use container_runtimes::profile::CRUN;
use container_runtimes::LowLevelRuntime;
use engines::profile::WAMR;
use engines::{execute_wasm_opts, ExecOptions};
use oci_spec_lite::{Bundle, RuntimeSpec};
use simkernel::{Kernel, KernelResult, Pid};

/// Configuration of the WAMR-in-crun integration.
#[derive(Debug, Clone, Copy)]
pub struct WamrCrunConfig {
    /// Aspect 1: dlopen the engine library with page sharing. Disabling
    /// models a statically-linked engine whose pages are private per
    /// container.
    pub dynamic_lib_loading: bool,
    /// Map module bytes from the page cache (in-place interpretation over
    /// shared pages). Disabling copies the module privately per container.
    pub share_modules: bool,
    /// Instruction budget for workload startup.
    pub fuel: u64,
}

impl Default for WamrCrunConfig {
    fn default() -> Self {
        WamrCrunConfig {
            dynamic_lib_loading: true,
            share_modules: true,
            fuel: engines::profile::DEFAULT_STARTUP_FUEL,
        }
    }
}

/// The crun handler embedding the WebAssembly Micro Runtime.
#[derive(Debug, Clone, Copy, Default)]
pub struct WamrHandler {
    pub(crate) config: WamrCrunConfig,
}

impl WamrHandler {
    pub fn new(config: WamrCrunConfig) -> Self {
        WamrHandler { config }
    }
}

impl ContainerHandler for WamrHandler {
    fn name(&self) -> &'static str {
        "wamr"
    }

    fn matches(&self, spec: &RuntimeSpec, _bundle: &Bundle) -> bool {
        spec.wants_wasm()
    }

    fn execute(
        &self,
        kernel: &Kernel,
        pid: Pid,
        bundle: &Bundle,
        spec: &RuntimeSpec,
    ) -> KernelResult<HandlerOutcome> {
        let base = ExecOptions {
            share_lib: self.config.dynamic_lib_loading,
            share_module: self.config.share_modules,
            ..Default::default()
        };
        let (module, wasi, opts) = guest_from_oci(bundle, spec, base)?;
        Ok(execute_wasm_opts(kernel, pid, &WAMR, module, &wasi, self.config.fuel, opts)?.into())
    }
}

/// Build the modified crun: WAMR handler first, pause handler for pod
/// sandboxes. Hybrid pods work because non-matching specs fall through to
/// whatever additional handlers the embedder registers.
pub fn wamr_crun_runtime(kernel: Kernel, config: WamrCrunConfig) -> LowLevelRuntime {
    let mut rt = LowLevelRuntime::new(kernel, &CRUN);
    rt.register_handler(Box::new(WamrHandler::new(config)));
    rt.register_handler(Box::new(PauseHandler));
    rt
}

#[cfg(test)]
mod tests {
    use super::*;
    use container_runtimes::handler::WasmEngineHandler;
    use container_runtimes::{ContainerState, RuntimeCtx};
    use engines::EngineKind;
    use oci_spec_lite::{ImageBuilder, ImageStore};
    use simkernel::{KernelConfig, Step};

    fn microservice() -> Vec<u8> {
        wasm_core::demo_wasi_module("up\n")
    }

    struct World {
        kernel: Kernel,
        ctx: RuntimeCtx,
        pods: simkernel::CgroupId,
        image: oci_spec_lite::Image,
    }

    fn world() -> World {
        let kernel = Kernel::boot(KernelConfig::default());
        engines::install_engines(&kernel).unwrap();
        container_runtimes::profile::install_runtimes(&kernel).unwrap();
        let ctx = RuntimeCtx {
            runtime_cgroup: kernel.cgroup_create(Kernel::ROOT_CGROUP, "system").unwrap(),
        };
        let pods = kernel.cgroup_create(Kernel::ROOT_CGROUP, "kubepods").unwrap();
        let mut store = ImageStore::new();
        let image = store
            .register(
                &kernel,
                ImageBuilder::new("svc:v1")
                    .entrypoint(["/app/main.wasm".to_string()])
                    .file("/app/main.wasm", microservice()),
            )
            .unwrap()
            .clone();
        World { kernel, ctx, pods, image }
    }

    fn deploy(
        w: &World,
        rt: &LowLevelRuntime,
        id: &str,
    ) -> (container_runtimes::Container, simkernel::CgroupId) {
        let pod = w.kernel.cgroup_create(w.pods, &format!("pod-{id}")).unwrap();
        let spec = RuntimeSpec::for_command(id, w.image.command());
        let bundle = Bundle::create(&w.kernel, id, &w.image, &spec).unwrap();
        let mut c = rt.create(&w.ctx, id, &bundle, pod).unwrap();
        rt.start(&w.ctx, &mut c, &bundle).unwrap();
        (c, pod)
    }

    #[test]
    fn end_to_end_microservice() {
        let w = world();
        let rt = wamr_crun_runtime(w.kernel.clone(), WamrCrunConfig::default());
        let (c, pod) = deploy(&w, &rt, "c1");
        assert_eq!(c.run.state, ContainerState::Running);
        assert_eq!(c.handler, "wamr");
        assert_eq!(c.stdout, b"up\n");
        assert!(w.kernel.cgroup_working_set(pod).unwrap() > 0);
    }

    #[test]
    fn wamr_crun_beats_existing_crun_integrations() {
        let w = world();
        let wamr = wamr_crun_runtime(w.kernel.clone(), WamrCrunConfig::default());
        let (_c, pod_wamr) = deploy(&w, &wamr, "wamr-1");

        for engine in [EngineKind::Wasmtime, EngineKind::Wasmer, EngineKind::WasmEdge] {
            let mut rt = LowLevelRuntime::new(w.kernel.clone(), &CRUN);
            rt.register_handler(Box::new(WasmEngineHandler::new(engine)));
            let (_c, pod) = deploy(&w, &rt, engine.profile().name);
            let ours = w.kernel.cgroup_working_set(pod_wamr).unwrap();
            let theirs = w.kernel.cgroup_working_set(pod).unwrap();
            assert!(
                (ours as f64) < theirs as f64 * 0.5,
                "{engine:?}: ours {ours} vs theirs {theirs} — paper: ≥50.34% lower"
            );
        }
    }

    #[test]
    fn dlopen_sharing_is_the_second_container_win() {
        let w = world();
        let rt = wamr_crun_runtime(w.kernel.clone(), WamrCrunConfig::default());
        let (_c1, pod1) = deploy(&w, &rt, "a");
        let (_c2, pod2) = deploy(&w, &rt, "b");
        // First container faulted the library (charged to its cgroup);
        // the second shares it and stays smaller.
        let first = w.kernel.cgroup_working_set(pod1).unwrap();
        let second = w.kernel.cgroup_working_set(pod2).unwrap();
        assert!(second < first, "second {second} should share lib pages of first {first}");
    }

    #[test]
    fn ablation_static_linking_costs_private_memory() {
        let w = world();
        let shared = wamr_crun_runtime(w.kernel.clone(), WamrCrunConfig::default());
        let static_cfg = WamrCrunConfig {
            dynamic_lib_loading: false,
            share_modules: false,
            ..Default::default()
        };
        let statik = wamr_crun_runtime(w.kernel.clone(), static_cfg);

        // Two containers each so both amortization effects can show.
        deploy(&w, &shared, "s1");
        let (_c, pod_shared) = deploy(&w, &shared, "s2");
        deploy(&w, &statik, "p1");
        let (_c, pod_static) = deploy(&w, &statik, "p2");

        let shared_ws = w.kernel.cgroup_working_set(pod_shared).unwrap();
        let static_ws = w.kernel.cgroup_working_set(pod_static).unwrap();
        assert!(
            static_ws > shared_ws + WAMR.lib_resident() / 2,
            "static {static_ws} vs shared {shared_ws}"
        );
    }

    #[test]
    fn hybrid_pods_fall_through_to_other_handlers() {
        let w = world();
        let rt = wamr_crun_runtime(w.kernel.clone(), WamrCrunConfig::default());
        // A pause container in the same runtime: handled by PauseHandler.
        let pod = w.kernel.cgroup_create(w.pods, "pod-h").unwrap();
        let spec = RuntimeSpec::for_command("pause", vec!["/pause".to_string()]);
        let mut store = ImageStore::new();
        let pause_img = store.register(&w.kernel, ImageBuilder::new("pause:3.9")).unwrap().clone();
        let bundle = Bundle::create(&w.kernel, "pause-h", &pause_img, &spec).unwrap();
        let mut c = rt.create(&w.ctx, "pause-h", &bundle, pod).unwrap();
        rt.start(&w.ctx, &mut c, &bundle).unwrap();
        assert_eq!(c.handler, "pause");
    }

    #[test]
    fn startup_steps_are_bounded() {
        let w = world();
        let rt = wamr_crun_runtime(w.kernel.clone(), WamrCrunConfig::default());
        let (c, _) = deploy(&w, &rt, "t");
        let cpu: u64 = c
            .trace
            .steps()
            .iter()
            .map(|s| match s {
                Step::Cpu(d) => d.as_nanos(),
                _ => 0,
            })
            .sum();
        // No compilation: the whole start should be well under 50ms of CPU.
        assert!(cpu < 50_000_000, "cpu {cpu}ns");
    }
}
