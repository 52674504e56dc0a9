//! The nine runtime configurations the paper evaluates, and the [`Stack`]
//! each one installs: one table, [`Config::stack`].

use container_runtimes::handler::{ContainerHandler, PauseHandler, WasmEngineHandler};
use container_runtimes::profile::{CRUN, RUNC};
use container_runtimes::{LowLevelRuntime, RuntimeProfile};
use containerd_sim::RuntimeClass;
use engines::profile::{WASMEDGE, WASMER, WASMTIME};
use engines::{Embedding, EngineKind, EngineProfile};
use k8s_sim::Cluster;
use pyrt::PythonHandler;
use simkernel::KernelResult;
use wamr_crun::{WamrCrunConfig, WamrHandler};
use workloads::{
    python_microservice_image, wasm_microservice_image, MicroserviceConfig, PythonScriptConfig,
};

/// One bar/row of the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Config {
    /// The paper's contribution: WAMR embedded in crun.
    WamrCrun,
    // Existing Wasm integrations in crun (Fig. 3/4).
    CrunWasmtime,
    CrunWasmer,
    CrunWasmEdge,
    // runwasi shims (Fig. 5).
    ShimWasmtime,
    ShimWasmer,
    ShimWasmEdge,
    // Non-Wasm baselines (Fig. 6/7).
    CrunPython,
    RuncPython,
}

impl Config {
    /// All nine configurations, in the paper's presentation order.
    pub const ALL: [Config; 9] = [
        Config::WamrCrun,
        Config::CrunWasmtime,
        Config::CrunWasmer,
        Config::CrunWasmEdge,
        Config::ShimWasmtime,
        Config::ShimWasmer,
        Config::ShimWasmEdge,
        Config::CrunPython,
        Config::RuncPython,
    ];

    /// Label as it appears in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Config::WamrCrun => "crun-wamr (ours)",
            Config::CrunWasmtime => "crun-wasmtime",
            Config::CrunWasmer => "crun-wasmer",
            Config::CrunWasmEdge => "crun-wasmedge",
            Config::ShimWasmtime => "containerd-shim-wasmtime",
            Config::ShimWasmer => "containerd-shim-wasmer",
            Config::ShimWasmEdge => "containerd-shim-wasmedge",
            Config::CrunPython => "crun-python",
            Config::RuncPython => "runc-python",
        }
    }

    /// What this configuration installs: the table of the paper's nine.
    pub fn stack(self) -> Stack {
        let crun = |class, guest| Stack { class, runtime: CRUN, guest };
        match self {
            Config::WamrCrun => crun("crun-wamr", Guest::Wamr(WamrCrunConfig::default())),
            Config::CrunWasmtime => crun("crun-wasmtime", Guest::Engine(WASMTIME)),
            Config::CrunWasmer => crun("crun-wasmer", Guest::Engine(WASMER)),
            Config::CrunWasmEdge => crun("crun-wasmedge", Guest::Engine(WASMEDGE)),
            Config::ShimWasmtime => crun("runwasi-wasmtime", Guest::Runwasi(EngineKind::Wasmtime)),
            Config::ShimWasmer => crun("runwasi-wasmer", Guest::Runwasi(EngineKind::Wasmer)),
            Config::ShimWasmEdge => crun("runwasi-wasmedge", Guest::Runwasi(EngineKind::WasmEdge)),
            Config::CrunPython => crun("crun-python", Guest::Python),
            Config::RuncPython => {
                Stack { class: "runc-python", runtime: RUNC, guest: Guest::Python }
            }
        }
    }

    /// Runtime-class name registered with containerd.
    pub fn class_name(self) -> &'static str {
        self.stack().class
    }

    /// Is this the paper's contribution?
    pub(crate) fn is_ours(self) -> bool {
        self == Config::WamrCrun
    }

    /// Image reference the configuration deploys.
    pub fn image_ref(self) -> &'static str {
        self.stack().image_ref()
    }
}

/// What runs a stack's guest.
#[derive(Debug, Clone, Copy)]
pub enum Guest {
    /// WAMR embedded in the low-level runtime: the paper's contribution.
    Wamr(WamrCrunConfig),
    /// The low-level runtime's engine handler, linking the engine's C API.
    Engine(EngineProfile),
    /// A runwasi shim embedding the engine as a crate. The shim is its own
    /// runtime: it reads no [`Stack::runtime`].
    Runwasi(EngineKind),
    /// The Python interpreter, on the Python image.
    Python,
}

/// What a configuration installs on a node, as a value: a runtime class,
/// and the image its guest runs. [`Config::stack`] holds the paper's nine;
/// a study measures a variant as a copy with one field changed, e.g.
/// `Stack { runtime: YOUKI, ..Config::WamrCrun.stack() }`. Profiles are
/// held by value, so a copy allocates nothing and writes no `static`.
#[derive(Debug, Clone, Copy)]
pub struct Stack {
    /// Runtime-class name registered with containerd.
    pub class: &'static str,
    /// The low-level OCI runtime the pod's containers are created by (the
    /// table's runwasi rows carry crun's, which no shim reads).
    pub runtime: RuntimeProfile,
    /// What runs the guest.
    pub guest: Guest,
}

impl Stack {
    /// Does the stack run Wasm (vs. native Python)?
    pub fn is_wasm(&self) -> bool {
        !matches!(self.guest, Guest::Python)
    }

    /// Image reference the stack deploys.
    pub(crate) fn image_ref(&self) -> &'static str {
        if self.is_wasm() {
            "registry.local/microservice-wasm:v1"
        } else {
            "registry.local/microservice-python:v1"
        }
    }

    /// Register this stack's runtime class (and its image, if not yet
    /// pulled) on every node of a cluster. Runtime state is per-node: each
    /// node's containerd gets a runtime bound to that node's kernel, and
    /// each node pulls its own copy of the image (node-local layer stores,
    /// as on real clusters).
    pub fn install(&self, cluster: &mut Cluster, workload: &Workload) -> KernelResult<()> {
        for node in 0..cluster.node_count() {
            self.install_on(cluster, node, workload)?;
        }
        Ok(())
    }

    /// [`Stack::install`] for a single node.
    pub fn install_on(
        &self,
        cluster: &mut Cluster,
        node: usize,
        workload: &Workload,
    ) -> KernelResult<()> {
        let kernel = cluster.node(node).kernel.clone();
        let oci = |handler: Box<dyn ContainerHandler>| {
            let mut runtime = LowLevelRuntime::new(kernel, &self.runtime);
            runtime.register_handler(handler);
            runtime.register_handler(Box::new(PauseHandler));
            RuntimeClass::Oci { runtime }
        };
        let class = match self.guest {
            Guest::Wamr(config) => oci(Box::new(WamrHandler::new(config))),
            Guest::Engine(profile) => {
                oci(Box::new(WasmEngineHandler { profile, embedding: Embedding::CApi }))
            }
            Guest::Runwasi(engine) => RuntimeClass::Runwasi { engine },
            Guest::Python => {
                pyrt::install_python(&cluster.node(node).kernel)?;
                oci(Box::new(PythonHandler))
            }
        };
        cluster.register_class_on(node, self.class, class);

        // Pull the image (idempotent thanks to the layer store).
        let image = if self.is_wasm() {
            wasm_microservice_image(self.image_ref(), &workload.wasm)
        } else {
            python_microservice_image(self.image_ref(), &workload.python)
        };
        cluster.pull_image_on(node, image)?;
        Ok(())
    }
}

/// The benchmark workload pair (Wasm module + Python script).
#[derive(Debug, Clone, Default)]
pub struct Workload {
    pub wasm: MicroserviceConfig,
    pub python: PythonScriptConfig,
}

impl Workload {
    /// A workload with a tiny guest startup loop. Memory mechanisms are
    /// unchanged (linear memory, code size, interpreter heaps); only the
    /// executed-instruction count shrinks, so debug-mode tests stay fast.
    /// Startup-latency *calibration* requires [`Workload::default`].
    pub fn light() -> Workload {
        Workload {
            wasm: MicroserviceConfig { loop_iterations: 50, ..MicroserviceConfig::default() },
            python: PythonScriptConfig::default(),
        }
    }

    /// The serving workload: [`Workload::light`] plus a brownout
    /// annotation declaring that 35% of per-request work is optional —
    /// the service layer may drop it in degraded mode. The annotation
    /// does not change the module bytes, so images stay byte-identical
    /// with prior runs except for the declared capability.
    pub fn serving() -> Workload {
        Workload {
            wasm: MicroserviceConfig {
                loop_iterations: 50,
                optional_work_ppm: 350_000,
                ..MicroserviceConfig::default()
            },
            python: PythonScriptConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_classes_are_unique() {
        let mut labels: Vec<_> = Config::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 9);
        let mut classes: Vec<_> = Config::ALL.iter().map(|c| c.class_name()).collect();
        classes.sort_unstable();
        classes.dedup();
        assert_eq!(classes.len(), 9);
    }

    #[test]
    fn exactly_one_ours() {
        assert_eq!(Config::ALL.iter().filter(|c| c.is_ours()).count(), 1);
        assert_eq!(Config::ALL.iter().filter(|c| !c.stack().is_wasm()).count(), 2);
    }
}
