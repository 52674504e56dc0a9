//! The container-handler mechanism (crun's "handlers" feature).
//!
//! When a low-level runtime starts a container, it selects the first
//! registered handler whose [`ContainerHandler::matches`] accepts the spec.
//! The handler executes the workload *inside the container init process* —
//! for Wasm handlers that means the language runtime lives in-process, with
//! no shim or interpreter process beside it. The paper's WAMR integration
//! (`wamr-crun` crate) is one implementation of this trait; this module
//! provides the pre-existing integrations it is compared against.

use engines::profile::DEFAULT_STARTUP_FUEL;
use engines::{
    execute_wasm_opts, Embedding, EngineKind, EngineProfile, EngineRun, ExecOptions, WasiSpec,
};
use oci_spec_lite::{Bundle, RuntimeSpec};
use simkernel::image::charge_anon;
use simkernel::{Duration, FileId, Kernel, KernelError, KernelResult, Phase, Pid, Step, StepTrace};

/// Result of a handler executing a container workload.
#[derive(Debug, Default)]
pub struct HandlerOutcome {
    /// DES latency steps contributed by workload startup, tagged with the
    /// lifecycle phase each belongs to.
    pub trace: StepTrace,
    /// Captured stdout.
    pub stdout: Vec<u8>,
    /// Workload exit code (the paper's microservices stay resident; 0 means
    /// the service reached its ready state).
    pub exit_code: i32,
    /// The guest overstayed its watchdog epoch budget and was interrupted:
    /// the container is up but wedged (it never reached ready). Health
    /// probes discover this; the kubelet routes it into restart supervision.
    pub interrupted: bool,
    /// Watchdog epoch clock retained from the engine run (present when the
    /// container was started with an epoch budget). The kubelet's SIGKILL
    /// path calls [`wasm_core::EpochClock::interrupt`] on it so the guest
    /// observes the stop at its next epoch safepoint.
    pub epoch_clock: Option<wasm_core::EpochClock>,
}

impl From<EngineRun> for HandlerOutcome {
    fn from(run: EngineRun) -> Self {
        HandlerOutcome {
            trace: run.trace,
            stdout: run.stdout,
            exit_code: run.exit_code,
            interrupted: run.interrupted,
            epoch_clock: run.epoch_clock,
        }
    }
}

/// A workload executor embedded in the low-level runtime. A handler is a
/// stateless value: every fork of a cluster shares the ones its runtimes
/// registered.
pub trait ContainerHandler {
    /// Handler name for diagnostics ("wamr", "wasmtime", "pause", ...).
    fn name(&self) -> &'static str;

    /// Should this handler run the given container?
    fn matches(&self, spec: &RuntimeSpec, bundle: &Bundle) -> bool;

    /// Does the workload execute inside the runtime's own process image
    /// (crun's in-process Wasm handlers), as opposed to exec()ing a new
    /// image (Python, pause)? In-process handlers keep the runtime's
    /// residual pages resident in the container.
    fn in_process(&self) -> bool {
        true
    }

    /// Execute the workload inside the (already created) container process.
    fn execute(
        &self,
        kernel: &Kernel,
        pid: Pid,
        bundle: &Bundle,
        spec: &RuntimeSpec,
    ) -> KernelResult<HandlerOutcome>;
}

/// Locate the Wasm module a spec's entrypoint names within the bundle.
pub fn resolve_module(bundle: &Bundle, spec: &RuntimeSpec) -> KernelResult<FileId> {
    let entry = spec
        .process
        .args
        .first()
        .ok_or_else(|| KernelError::InvalidState("empty entrypoint".into()))?;
    bundle.resolve(entry).ok_or_else(|| KernelError::PathNotFound(format!("{entry} not in rootfs")))
}

/// Guest path of the streaming data file adversarial thrasher images carry.
pub(crate) const THRASH_STREAM_PATH: &str = "/data/stream.bin";

/// What a guest start needs from its OCI container — the paper's §III-C
/// integration aspect 2: the module the entrypoint names, the WASI view of
/// `process.args` and `process.env`, and the embedder's `base`
/// options completed with what the spec annotates (watchdog budget,
/// adversarial churn). The one translation, so that a crun handler, a
/// runwasi shim and a sandboxer differ only in `base`.
pub fn guest_from_oci(
    bundle: &Bundle,
    spec: &RuntimeSpec,
    base: ExecOptions,
) -> KernelResult<(FileId, WasiSpec, ExecOptions)> {
    let (instantiate_churn, io_churn) = adversarial_opts(bundle, spec);
    let epoch_budget = spec.watchdog_budget_ns().map(Duration::from_nanos);
    let opts = ExecOptions { epoch_budget, instantiate_churn, io_churn, ..base };
    Ok((resolve_module(bundle, spec)?, wasi_spec_from_oci(spec), opts))
}

/// Extract the adversarial [`ExecOptions`] knobs from the spec's
/// annotations: fork-bomb churn count, and thrasher passes resolved against
/// the bundle's [`THRASH_STREAM_PATH`] file. Both default to off; a thrash
/// annotation on an image without a stream file is silently inert.
fn adversarial_opts(bundle: &Bundle, spec: &RuntimeSpec) -> (u32, Option<(FileId, u32)>) {
    let churn = spec.instantiate_churn().unwrap_or(0);
    let io = spec
        .io_churn_passes()
        .and_then(|passes| bundle.resolve(THRASH_STREAM_PATH).map(|fid| (fid, passes)));
    (churn, io)
}

/// Build the WASI configuration from the OCI process spec (arguments and
/// environment).
fn wasi_spec_from_oci(spec: &RuntimeSpec) -> WasiSpec {
    WasiSpec { args: spec.process.args.clone(), env: spec.process.env_pairs() }
}

/// An engine running a Wasm container inside the process it is handed,
/// selected by the standard Wasm variant annotation. As built by
/// [`WasmEngineHandler::new`] it is one of the *pre-existing* crun
/// integrations the paper benchmarks against (crun-Wasmtime, crun-Wasmer,
/// crun-WasmEdge); embedded as a crate and handed a shim's pid, it is what
/// a runwasi shim does.
#[derive(Debug, Clone, Copy)]
pub struct WasmEngineHandler {
    pub profile: EngineProfile,
    pub embedding: Embedding,
}

impl WasmEngineHandler {
    pub fn new(engine: EngineKind) -> Self {
        WasmEngineHandler { profile: *engine.profile(), embedding: Embedding::CApi }
    }
}

impl ContainerHandler for WasmEngineHandler {
    fn name(&self) -> &'static str {
        self.profile.name
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
        let base = ExecOptions { embedding: self.embedding, ..Default::default() };
        let (module, wasi, opts) = guest_from_oci(bundle, spec, base)?;
        let fuel = DEFAULT_STARTUP_FUEL;
        Ok(execute_wasm_opts(kernel, pid, &self.profile, module, &wasi, fuel, opts)?.into())
    }
}

/// The Kubernetes pause container: a ~300 KB process that holds the pod
/// sandbox namespaces open. Every pod carries one.
#[derive(Debug, Clone, Copy, Default)]
pub struct PauseHandler;

/// Resident footprint of the pause process.
pub(crate) const PAUSE_RESIDENT: u64 = 300 << 10;

impl ContainerHandler for PauseHandler {
    fn name(&self) -> &'static str {
        "pause"
    }

    fn matches(&self, spec: &RuntimeSpec, _bundle: &Bundle) -> bool {
        spec.process.args.first().map(String::as_str) == Some("/pause")
    }

    fn in_process(&self) -> bool {
        false
    }

    fn execute(
        &self,
        kernel: &Kernel,
        pid: Pid,
        _bundle: &Bundle,
        _spec: &RuntimeSpec,
    ) -> KernelResult<HandlerOutcome> {
        charge_anon(kernel, pid, PAUSE_RESIDENT, "pause")?;
        let mut trace = StepTrace::new();
        trace.push(Phase::Exec, Step::Cpu(simkernel::Duration::from_micros(300)));
        Ok(HandlerOutcome { trace, stdout: Vec::new(), exit_code: 0, ..Default::default() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oci_spec_lite::{ImageBuilder, ImageStore};
    use simkernel::{Kernel, KernelConfig, ProcessImage};

    fn setup() -> (Kernel, Bundle, RuntimeSpec) {
        let kernel = Kernel::boot(KernelConfig::default());
        engines::install_engines(&kernel).unwrap();
        let mut store = ImageStore::new();
        let module = test_module();
        let image = store
            .register(
                &kernel,
                ImageBuilder::new("svc:v1")
                    .entrypoint(["/app/main.wasm".to_string()])
                    .file("/app/main.wasm", module)
                    .file("/etc/config.ini", &b"answer=42"[..]),
            )
            .unwrap()
            .clone();
        let mut spec = RuntimeSpec::for_command("c1", image.command());
        spec.annotations
            .insert(oci_spec_lite::WASM_VARIANT_ANNOTATION.to_string(), "compat".to_string());
        let bundle = Bundle::create(&kernel, "c1", &image, &spec).unwrap();
        (kernel, bundle, spec)
    }

    fn test_module() -> Vec<u8> {
        wasm_core::demo_wasi_module("ok\n")
    }

    #[test]
    fn engine_handler_matches_and_runs() {
        let (kernel, bundle, spec) = setup();
        let handler = WasmEngineHandler::new(EngineKind::Wasmtime);
        assert!(handler.matches(&spec, &bundle));
        let pid = ProcessImage::spawn(&kernel, "c1", Kernel::ROOT_CGROUP).build().unwrap().detach();
        let out = handler.execute(&kernel, pid, &bundle, &spec).unwrap();
        assert_eq!(out.exit_code, 0);
        assert_eq!(out.stdout, b"ok\n");
        assert!(!out.trace.steps().is_empty());
    }

    #[test]
    fn non_wasm_spec_not_matched() {
        let (_kernel, bundle, mut spec) = setup();
        spec.annotations.clear();
        spec.process.args = vec!["/usr/bin/python3".to_string()];
        let handler = WasmEngineHandler::new(EngineKind::Wamr);
        assert!(!handler.matches(&spec, &bundle));
    }

    #[test]
    fn wasi_spec_extraction() {
        let (_kernel, _bundle, mut spec) = setup();
        spec.process.env = vec!["PORT=9".into()];
        let wasi = wasi_spec_from_oci(&spec);
        assert_eq!(wasi.args, vec!["/app/main.wasm"]);
        assert_eq!(wasi.env, vec![("PORT".to_string(), "9".to_string())]);
    }

    #[test]
    fn missing_module_is_an_error() {
        let (kernel, bundle, mut spec) = setup();
        spec.process.args = vec!["/app/ghost.wasm".to_string()];
        let handler = WasmEngineHandler::new(EngineKind::Wamr);
        let pid = ProcessImage::spawn(&kernel, "c1", Kernel::ROOT_CGROUP).build().unwrap().detach();
        assert!(matches!(
            handler.execute(&kernel, pid, &bundle, &spec),
            Err(KernelError::PathNotFound(_))
        ));
    }

    #[test]
    fn pause_handler() {
        let (kernel, bundle, _) = setup();
        let spec = RuntimeSpec::for_command("pause", vec!["/pause".to_string()]);
        let h = PauseHandler;
        assert!(h.matches(&spec, &bundle));
        let pid =
            ProcessImage::spawn(&kernel, "pause", Kernel::ROOT_CGROUP).build().unwrap().detach();
        h.execute(&kernel, pid, &bundle, &spec).unwrap();
        assert_eq!(kernel.proc_rss(pid).unwrap(), PAUSE_RESIDENT);
    }
}
