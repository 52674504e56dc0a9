//! Standalone probes of single layers, run after the traced passes.
//!
//! A pod start crosses `k8s` → `containerd` → `runtimes`/`core` →
//! `engines` → `wasm`. Each probe starts the same pods at one of those
//! boundaries, on a warmed cluster, and the layer's **self time** is the
//! time at its boundary minus the time at the boundary below. The stack
//! probes use the boot-only guest so that subtraction is not drowned by
//! guest execution; the guest itself is priced by the `wasm.*` and
//! `pyrt.*` probes.
//!
//! The probes are the same on every workload: they say how fast each layer
//! is, the traced passes say how much each workload uses it.

use std::collections::BTreeMap;
use std::time::Instant;

use bytelite::Bytes;
use container_runtimes::handler::{resolve_module, ContainerHandler};
use container_runtimes::{LowLevelRuntime, RuntimeCtx};
use engines::{execute_wasm_opts, Embedding, EngineKind, ExecOptions, WasiSpec};
use harness::cluster_scale::{new_scaled_cluster, warmup_nodes};
use harness::{
    generate_schedule, new_cluster, request_exec, run_cells_on, run_schedule, run_steady_cell,
    warmup, Cell, Config, ExplorePlan, InvariantKnobs, SweepPlan, Workload,
};
use k8s_sim::service::{Service, ServiceConfig};
use k8s_sim::{Cluster, DeploymentController, DeploymentSpec, Policy, Scheduler};
use oci_spec_lite::{Bundle, Image, RuntimeSpec};
use simkernel::{
    CalendarQueue, Duration, Kernel, KernelError, KernelResult, MapKind, Pid, ProcessImage, Sim,
    SimTime, StepTrace, TaskSpec,
};
use wamr_crun::{WamrCrunConfig, WamrHandler};
use wasm_core::interp::SideTable;
use wasm_core::lowered::lower_function;
use wasm_core::{
    decode_module, validate_module, ArtifactCache, ExecTier, Imports, Instance, InstanceConfig,
    Value,
};
use workloads::{microservice_module_bytes, wasm_microservice_image, MicroserviceConfig};

use crate::passes::{Guest, WorkloadId};
use crate::spec::Metrics;
use crate::stats::median;

const MIB: f64 = (1u64 << 20) as f64;
/// Pods per repetition of a stack probe.
const PODS: usize = 100;
/// Repetitions of a stack probe; the median is reported.
const REPS: usize = 5;

/// Median seconds of `reps` calls of `f`.
fn time<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Median of `reps` measurements, each taken by `f` itself on state it
/// builds fresh (a new cluster per repetition).
fn measure(reps: usize, mut f: impl FnMut() -> KernelResult<f64>) -> KernelResult<f64> {
    let samples = (0..reps).map(|_| f()).collect::<KernelResult<Vec<f64>>>()?;
    Ok(median(&samples))
}

fn invalid(what: impl std::fmt::Display) -> KernelError {
    KernelError::InvalidState(what.to_string())
}

// ---- guest execution --------------------------------------------------------

fn wasm_instance(bytes: &Bytes, tier: ExecTier) -> KernelResult<Instance> {
    let module = ArtifactCache::global().get_or_decode(bytes).map_err(invalid)?;
    let imports =
        Imports::new().func("wasi_snapshot_preview1", "fd_write", |_, _| Ok(vec![Value::I32(0)]));
    let config = InstanceConfig {
        tier,
        fuel: Some(engines::profile::DEFAULT_STARTUP_FUEL),
        ..Default::default()
    };
    Instance::instantiate_prevalidated(module, imports, config).map_err(invalid)
}

/// What one guest start costs the host in its executor, measured outside
/// the container stack.
#[derive(Debug, Clone, Copy, Default)]
pub struct GuestCost {
    /// Seconds to build the instance (Wasm) or parse the script (Python).
    pub instantiate_s: f64,
    /// Seconds to run `_start` or the script: guest execution proper.
    pub run_s: f64,
    /// Work units the run retired (0 for Python).
    pub instrs: u64,
    /// Fusion events per 16-byte lowered word (lowered tier only).
    pub fused_ratio: f64,
}

/// Start the guest `starts` times back to back, as a deployment does.
fn guest_starts(guest: Guest, workload: &Workload, starts: usize) -> KernelResult<GuestCost> {
    let mut cost = GuestCost::default();
    for _ in 0..starts {
        let t = Instant::now();
        if guest == Guest::Python {
            let source = workloads::python_microservice_script(&workload.python);
            let program = pyrt::parse(&source).map_err(invalid)?;
            cost.instantiate_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let mut interp =
                pyrt::Interp::new(vec!["main.py".into()], Vec::new()).with_fuel(200_000_000);
            match interp.run(&program) {
                Ok(_) | Err(pyrt::PyError::Exit(_)) => {}
                Err(e) => return Err(invalid(format!("python probe: {e}"))),
            }
            cost.run_s += t.elapsed().as_secs_f64();
        } else {
            let tier = if guest == Guest::Interp { ExecTier::InPlace } else { ExecTier::Lowered };
            let mut inst = wasm_instance(&microservice_module_bytes(&workload.wasm), tier)?;
            cost.instantiate_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            inst.run_start().map_err(invalid)?;
            cost.run_s += t.elapsed().as_secs_f64();
            let stats = inst.stats();
            cost.instrs = stats.instrs_retired;
            cost.fused_ratio = stats.fused_ops as f64 / (stats.lowered_bytes / 16).max(1) as f64;
        }
    }
    cost.instantiate_s /= starts as f64;
    cost.run_s /= starts as f64;
    Ok(cost)
}

/// Cost of one guest start of `workload` on `guest`: few starts per
/// repetition for a guest that computes, [`PODS`] for one that only boots.
/// The fastest repetition counts, as for the passes these costs are set
/// against (`run.rs`).
pub fn guest_cost(guest: Guest, workload: &Workload) -> KernelResult<GuestCost> {
    let starts = if workload.wasm.loop_iterations > 100 { 4 } else { PODS };
    let reps = (0..2 * REPS)
        .map(|_| guest_starts(guest, workload, starts))
        .collect::<KernelResult<Vec<_>>>()?;
    let of = |f: fn(&GuestCost) -> f64| reps.iter().map(f).fold(f64::INFINITY, f64::min);
    Ok(GuestCost { instantiate_s: of(|c| c.instantiate_s), run_s: of(|c| c.run_s), ..reps[0] })
}

fn probe_guest(m: &mut Metrics) -> KernelResult<()> {
    let workload = Workload::default();
    let interp = guest_cost(Guest::Interp, &workload)?;
    let lowered = guest_cost(Guest::Lowered, &workload)?;
    let python = guest_cost(Guest::Python, &workload)?;
    m.set("wasm.interp.minstr_per_s", interp.instrs as f64 / interp.run_s / 1e6);
    m.set("wasm.lowered.minstr_per_s", lowered.instrs as f64 / lowered.run_s / 1e6);
    m.set("wasm.lowered.fused_ratio", lowered.fused_ratio);
    m.set("wasm.exec.instrs_per_pod", interp.instrs as f64);
    m.set("wasm.instantiate_us", interp.instantiate_s * 1e6);
    m.set("pyrt.parse_us", python.instantiate_s * 1e6);
    m.set("pyrt.run_us", python.run_s * 1e6);
    Ok(())
}

// ---- once per process -------------------------------------------------------

fn probe_pipeline(m: &mut Metrics) -> KernelResult<()> {
    let cfg = MicroserviceConfig::default();
    let bytes = microservice_module_bytes(&cfg);
    let mib = bytes.len() as f64 / MIB;
    let decode_s = time(9, || decode_module(bytes.clone()).expect("decode"));
    let module = decode_module(bytes.clone()).map_err(invalid)?;
    let validate_s = time(9, || validate_module(&module).expect("validate"));
    // What the in-place tier builds where the lowered tier lowers.
    let side_table_s = time(9, || {
        for body in &module.bodies {
            std::hint::black_box(SideTable::build(&body.code).expect("side table"));
        }
    });
    let imported = module.num_imported_funcs();
    let lower_s = time(9, || {
        for i in 0..module.funcs.len() as u32 {
            std::hint::black_box(lower_function(&module, imported + i).expect("lower"));
        }
    });
    m.set("wasm.decode.mib_per_s", mib / decode_s);
    m.set("wasm.validate.mib_per_s", mib / validate_s);
    let code_mib = module.code_size() as f64 / MIB;
    m.set("wasm.side_table.mib_per_s", code_mib / side_table_s);
    m.set("wasm.lower.mib_per_s", code_mib / lower_s);

    // The module memo is keyed by config: a loop count nobody else uses
    // forces a real build each time.
    let mut unique = 0x5eed_0000;
    let build_s = time(9, || {
        unique += 1;
        microservice_module_bytes(&MicroserviceConfig { loop_iterations: unique, ..cfg.clone() })
    });
    m.set("workloads.module_build_us", build_s * 1e6);
    let kernel = Kernel::boot(Default::default());
    let mut store = oci_spec_lite::ImageStore::new();
    let mut n = 0;
    let image_s = time(9, || {
        n += 1;
        let image = wasm_microservice_image(&format!("probe/image:{n}"), &cfg);
        store.register(&kernel, image).map(|image| image.size())
    });
    m.set("workloads.image_build_us", image_s * 1e6);
    Ok(())
}

// ---- the pod-start stack ----------------------------------------------------

/// The guest of the stack probes (see the module doc).
fn boot_only() -> Workload {
    WorkloadId::DenseCluster.guest()
}

fn warmed_cluster(config: Config, workload: &Workload) -> KernelResult<Cluster> {
    let mut cluster = new_cluster(&[config], workload)?;
    warmup(&mut cluster, config)?;
    Ok(cluster)
}

/// Per-pod seconds of `Cluster::deploy` on one node and of teardown.
fn deploy_seconds(config: Config, workload: &Workload) -> KernelResult<(f64, f64)> {
    let mut cluster = new_scaled_cluster(config, 1, Policy::Spread, workload)?;
    warmup_nodes(&mut cluster, config)?;
    let t = Instant::now();
    let d = cluster.deploy("probe", config.image_ref(), config.class_name(), PODS)?;
    let deploy = t.elapsed().as_secs_f64() / PODS as f64;
    let t = Instant::now();
    cluster.teardown(d)?;
    Ok((deploy, t.elapsed().as_secs_f64() / PODS as f64))
}

/// Per-pod seconds of the three CRI calls made directly on each node's
/// containerd (round-robin over `nodes` nodes, as spread placement does),
/// and of `remove_pod_sandbox`.
fn cri_seconds(config: Config, nodes: usize, workload: &Workload) -> KernelResult<(f64, f64)> {
    let mut cluster = new_scaled_cluster(config, nodes, Policy::Spread, workload)?;
    warmup_nodes(&mut cluster, config)?;
    let pods: Vec<String> = (0..PODS).map(|i| format!("probe-{i}")).collect();
    let t = Instant::now();
    for (i, pod) in pods.iter().enumerate() {
        let containerd = &mut cluster.node_mut(i % nodes).containerd;
        let mut trace = StepTrace::new();
        // Bundles live under the container id, so it is unique per pod.
        let container = format!("{pod}-main");
        containerd.run_pod_sandbox(pod, config.class_name(), &mut trace)?;
        containerd.create_container(pod, &container, config.image_ref(), None, &mut trace)?;
        containerd.start_container(pod, &container, &mut trace)?;
    }
    let start = t.elapsed().as_secs_f64() / PODS as f64;
    let t = Instant::now();
    for (i, pod) in pods.iter().enumerate() {
        cluster.node_mut(i % nodes).containerd.remove_pod_sandbox(pod)?;
    }
    Ok((start, t.elapsed().as_secs_f64() / PODS as f64))
}

struct PodInputs {
    image: Image,
    kernel: Kernel,
    ctx: RuntimeCtx,
    kubepods: simkernel::CgroupId,
}

impl PodInputs {
    fn of(cluster: &Cluster, config: Config) -> KernelResult<PodInputs> {
        let image = cluster
            .containerd()
            .image(config.image_ref())
            .ok_or_else(|| invalid("probe image not pulled"))?
            .clone();
        engines::install_engines(cluster.kernel())?;
        Ok(PodInputs {
            image,
            kernel: cluster.kernel().clone(),
            ctx: RuntimeCtx { runtime_cgroup: cluster.system_cgroup() },
            kubepods: cluster.kubepods(),
        })
    }

    fn spec(&self, id: &str) -> RuntimeSpec {
        let mut spec = RuntimeSpec::for_command(id, self.image.command());
        for (k, v) in &self.image.config.annotations {
            spec.annotations.insert(k.clone(), v.clone());
        }
        spec
    }

    /// A bundle plus a process in a fresh pod cgroup to run it in.
    fn container(&self, id: &str) -> KernelResult<(Bundle, RuntimeSpec, Pid)> {
        let spec = self.spec(id);
        let bundle = Bundle::create(&self.kernel, id, &self.image, &spec)?;
        let cgroup = self.kernel.cgroup_create(self.kubepods, id)?;
        let pid = ProcessImage::spawn(&self.kernel, id, cgroup).build()?.detach();
        Ok((bundle, spec, pid))
    }
}

/// Per-pod seconds of `Bundle::create` and of `LowLevelRuntime::create` +
/// `start` under the modified crun.
fn runtime_seconds(workload: &Workload) -> KernelResult<(f64, f64)> {
    let config = Config::WamrCrun;
    let cluster = warmed_cluster(config, workload)?;
    let inputs = PodInputs::of(&cluster, config)?;
    let rt: LowLevelRuntime =
        wamr_crun::wamr_crun_runtime(inputs.kernel.clone(), WamrCrunConfig::default());
    let (mut bundle_s, mut runtime_s) = (0.0, 0.0);
    for i in 0..PODS {
        let id = format!("rt-{i}");
        let spec = inputs.spec(&id);
        let t = Instant::now();
        let bundle = Bundle::create(&inputs.kernel, &id, &inputs.image, &spec)?;
        bundle_s += t.elapsed().as_secs_f64();
        let pod = inputs.kernel.cgroup_create(inputs.kubepods, &id)?;
        let t = Instant::now();
        let mut container = rt.create(&inputs.ctx, &id, &bundle, pod)?;
        rt.start(&inputs.ctx, &mut container, &bundle)?;
        runtime_s += t.elapsed().as_secs_f64();
    }
    Ok((bundle_s / PODS as f64, runtime_s / PODS as f64))
}

/// Per-pod seconds of `WamrHandler::execute` in an existing process.
fn handler_seconds(workload: &Workload) -> KernelResult<f64> {
    let config = Config::WamrCrun;
    let cluster = warmed_cluster(config, workload)?;
    let inputs = PodInputs::of(&cluster, config)?;
    let handler = WamrHandler::new(WamrCrunConfig::default());
    let mut total = 0.0;
    for i in 0..PODS {
        let (bundle, spec, pid) = inputs.container(&format!("h-{i}"))?;
        let t = Instant::now();
        handler.execute(&inputs.kernel, pid, &bundle, &spec)?;
        total += t.elapsed().as_secs_f64();
    }
    Ok(total / PODS as f64)
}

/// Per-pod seconds of `execute_wasm_opts` for `kind` in an existing
/// process, embedded as `embedding`.
fn engine_seconds(
    kind: EngineKind,
    embedding: Embedding,
    workload: &Workload,
) -> KernelResult<f64> {
    let config = Config::WamrCrun;
    let cluster = warmed_cluster(config, workload)?;
    let inputs = PodInputs::of(&cluster, config)?;
    let mut total = 0.0;
    for i in 0..PODS {
        let (bundle, spec, pid) = inputs.container(&format!("e-{i}"))?;
        let module = resolve_module(&bundle, &spec)?;
        let opts = ExecOptions { embedding, ..ExecOptions::default() };
        let fuel = engines::profile::DEFAULT_STARTUP_FUEL;
        let t = Instant::now();
        execute_wasm_opts(
            &inputs.kernel,
            pid,
            kind.profile(),
            module,
            &WasiSpec::default(),
            fuel,
            opts,
        )?;
        total += t.elapsed().as_secs_f64();
    }
    Ok(total / PODS as f64)
}

/// Per-pod seconds of `Cluster::deploy` on 25 empty nodes: what a pod
/// costs before the growth `k8s.deploy_us_per_pod.loaded` shows sets in.
fn deploy25_seconds(workload: &Workload) -> KernelResult<f64> {
    let config = Config::WamrCrun;
    let mut cluster = new_scaled_cluster(config, 25, Policy::Spread, workload)?;
    warmup_nodes(&mut cluster, config)?;
    let t = Instant::now();
    cluster.deploy("probe", config.image_ref(), config.class_name(), PODS)?;
    Ok(t.elapsed().as_secs_f64() / PODS as f64)
}

fn probe_stack(m: &mut Metrics) -> KernelResult<()> {
    let w = boot_only();
    let engines = [
        (EngineKind::Wamr, Guest::Interp, "engines.exec_self_us.wamr"),
        (EngineKind::Wasmtime, Guest::Lowered, "engines.exec_self_us.wasmtime"),
        (EngineKind::Wasmer, Guest::Lowered, "engines.exec_self_us.wasmer"),
        (EngineKind::WasmEdge, Guest::Lowered, "engines.exec_self_us.wasmedge"),
    ];
    // One repetition measures every boundary back to back, so a self time
    // is a difference of neighbours in time; the median over repetitions
    // of each difference is reported.
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut record =
        |name: &'static str, seconds: f64| samples.entry(name).or_default().push(seconds * 1e6);
    for _ in 0..REPS {
        let mut handler = 0.0;
        for (kind, guest, name) in engines {
            let engine = engine_seconds(kind, Embedding::CApi, &w)?;
            let start = guest_starts(guest, &w, PODS)?;
            record(name, engine - start.instantiate_s - start.run_s);
            if kind == EngineKind::Wamr {
                handler = handler_seconds(&w)?;
                record("core.wamr_handler_self_us", handler - engine);
            }
        }
        let (bundle, runtime) = runtime_seconds(&w)?;
        record("oci.bundle.create_us", bundle);
        record("runtimes.create_start_self_us", runtime - handler);
        let (cri, remove) = cri_seconds(Config::WamrCrun, 1, &w)?;
        // What containerd adds around the runtime: sandbox, shim, pause
        // container, bookkeeping.
        record("containerd.cri_self_us", cri - runtime - bundle);
        record("containerd.remove_us", remove);
        let (deploy, teardown) = deploy_seconds(Config::WamrCrun, &w)?;
        record("k8s.deploy_self_us.n1", deploy - cri);
        record("k8s.teardown_us", teardown);
        // 25 nodes: the scheduler scores every node for every pod.
        let (cri25, _) = cri_seconds(Config::WamrCrun, 25, &w)?;
        let deploy25 = deploy25_seconds(&w)?;
        record("k8s.deploy_us_per_pod.empty", deploy25);
        record("k8s.deploy_self_us.n25", deploy25 - cri25);
        let (shim_cri, _) = cri_seconds(Config::ShimWasmtime, 1, &w)?;
        let shim_engine = engine_seconds(EngineKind::Wasmtime, Embedding::Crate, &w)?;
        record("containerd.shim_self_us", shim_cri - shim_engine);
    }
    for (name, values) in &samples {
        m.set(name, median(values));
    }

    let mut cluster = new_scaled_cluster(Config::WamrCrun, 25, Policy::Spread, &w)?;
    warmup_nodes(&mut cluster, Config::WamrCrun)?;
    let d = cluster.deploy("probe", Config::WamrCrun.image_ref(), "crun-wamr", PODS)?;
    let scheduler = Scheduler::new(Policy::Spread);
    m.set("k8s.scheduler.place_us", time(200, || scheduler.place(&cluster.nodes)) * 1e6);
    m.set("k8s.metrics.scrape_us", time(20, || cluster.average_working_set(&d)) * 1e6);
    m.set("simkernel.free_us", time(200, || cluster.free()) * 1e6);
    Ok(())
}

// ---- simkernel ---------------------------------------------------------------

fn probe_simkernel(m: &mut Metrics) -> KernelResult<()> {
    let kernel = Kernel::boot(Default::default());
    let cgroup = kernel.cgroup_create(Kernel::ROOT_CGROUP, "probe")?;
    kernel.ensure_file("/bin/probe", simkernel::vfs::FileContent::Synthetic(4 << 20))?;
    let mut n = 0;
    let spawn_s = time(200, || {
        n += 1;
        ProcessImage::spawn(&kernel, format!("p{n}"), cgroup)
            .text("/bin/probe", 4 << 20, 1 << 20, "probe")
            .heap(1 << 20, "heap")
            .build()
            .map(|guard| guard.detach())
    });
    m.set("simkernel.image.spawn_us", spawn_s * 1e6);

    // Grow a mapping's resident set one page at a time, as a guest's
    // linear memory does.
    let pid = ProcessImage::spawn(&kernel, "toucher", cgroup).build()?.detach();
    let pages = 4096u64;
    let mut touch = Vec::new();
    for _ in 0..9 {
        let mapping = kernel.mmap(pid, pages * simkernel::PAGE_SIZE, MapKind::AnonPrivate)?;
        let t = Instant::now();
        for page in 1..=pages {
            kernel.touch(pid, mapping, page * simkernel::PAGE_SIZE)?;
        }
        touch.push(t.elapsed().as_secs_f64() * 1e9 / pages as f64);
        kernel.munmap(pid, mapping)?;
    }
    m.set("simkernel.mem.touch_ns_per_page", median(&touch));

    // A cold read: evict the file, then fault it back into the page cache.
    let content = Bytes::from(vec![7u8; 1 << 20]);
    let file =
        kernel.create_file("/data/probe.bin", simkernel::vfs::FileContent::Bytes(content))?;
    let read_s = time(50, || {
        kernel.evict_file(file).expect("evict");
        kernel.read_file(pid, file)
    });
    m.set("simkernel.vfs.cold_read_ns", read_s * 1e9);
    Ok(())
}

/// The calendar queue under the traffic loop's access pattern (hold model:
/// pop the earliest event, push one a random gap later), and `Sim::run` on
/// the recorded latency programs of a 400-pod crun-wamr deployment.
fn probe_queues(m: &mut Metrics) -> KernelResult<()> {
    let mut rng = simkernel::rng::SplitMix64::new(0xca1e);
    let mut queue = CalendarQueue::new();
    for i in 0..4096 {
        queue.push(SimTime::ZERO + Duration::from_nanos(rng.next_u64() % 1_000_000), i);
    }
    let events = 1_000_000;
    let hold_s = time(3, || {
        for _ in 0..events {
            let (at, id) = queue.pop().expect("queue stays full");
            queue.push(at + Duration::from_nanos(1 + rng.next_u64() % 1_000_000), id);
        }
    });
    m.set("simkernel.calendar.ns_per_event", hold_s * 1e9 / events as f64);

    let config = Config::WamrCrun;
    let mut cluster = warmed_cluster(config, &boot_only())?;
    let d = cluster.deploy("probe", config.image_ref(), config.class_name(), 400)?;
    let tasks: Vec<TaskSpec> = d
        .pods
        .iter()
        .map(|p| TaskSpec {
            name: p.spec.name.clone(),
            start_at: p.dispatched_at,
            steps: p.trace.steps(),
        })
        .collect();
    let sim = Sim::new(cluster.kernel().cores());
    let events = sim.run(tasks.clone()).events;
    let run_s = time(9, || sim.run(tasks.clone()));
    m.set("simkernel.des.mevents_per_s", events as f64 / run_s / 1e6);
    Ok(())
}

// ---- request path --------------------------------------------------------------

fn settled(
    config: Config,
    nodes: usize,
    replicas: usize,
    workload: &Workload,
) -> KernelResult<(Cluster, DeploymentController)> {
    let mut cluster = new_scaled_cluster(config, nodes, Policy::Spread, workload)?;
    warmup_nodes(&mut cluster, config)?;
    let spec = DeploymentSpec::new("svc", config.image_ref(), config.class_name(), replicas);
    let mut ctrl = DeploymentController::new(spec);
    if !cluster.settle_controller(&mut ctrl, 100)? {
        return Err(invalid("probe deployment did not settle"));
    }
    Ok((cluster, ctrl))
}

fn probe_requests(m: &mut Metrics) -> KernelResult<()> {
    let workload = Workload::serving();
    let config = Config::CrunWasmtime;
    let (cluster, ctrl) = settled(config, 1, 2, &workload)?;
    let exec = request_exec(config);
    let mut service = Service::new(ServiceConfig::for_exec(exec, exec), 7);
    service.sync(&cluster, &ctrl);

    // Admit–serve–complete, one request at a time, through the four verbs
    // the traffic loop uses.
    let requests = 200_000u64;
    let mut now = cluster.now();
    let serve_s = time(3, || {
        for token in 0..requests {
            let ep = service.route(None).expect("endpoints admit");
            let deadline = now + Duration::from_secs(1);
            service.admit(ep, now, token, deadline).expect("queue has room");
            let started = service.try_start(ep, now).expect("server idle");
            now = started.finish;
            service.complete(ep, now).expect("request in service");
        }
    });
    m.set("k8s.service.ns_per_req", serve_s * 1e9 / requests as f64);
    // A request whose deadline has passed is shed at admission.
    let shed_s = time(3, || {
        for token in 0..requests {
            let ep = service.route(None).expect("endpoints admit");
            assert!(service.admit(ep, now, token, now).is_err(), "expired request admitted");
        }
    });
    m.set("k8s.service.ns_per_shed", shed_s * 1e9 / requests as f64);

    // The whole traffic loop per request: a long run minus a short one, so
    // cluster boot and replica start cancel.
    let (short, long) = (1_000usize, 101_000usize);
    let mut per_req = [0.0; 2];
    for (slot, config) in per_req.iter_mut().zip([Config::WamrCrun, Config::CrunWasmtime]) {
        let run = |requests: usize| {
            let plan = SweepPlan { requests, ..SweepPlan::new(7) };
            measure(REPS, || {
                let t = Instant::now();
                run_steady_cell(config, &workload, &plan)?;
                Ok(t.elapsed().as_secs_f64())
            })
        };
        *slot = (run(long)? - run(short)?) * 1e9 / (long - short) as f64;
    }
    m.set("harness.traffic.ns_per_req.wamr", per_req[0]);
    m.set("harness.traffic.ns_per_req.wasmtime", per_req[1]);
    m.set("harness.traffic.self_share", 1.0 - m.get("k8s.service.ns_per_req") / per_req[1]);
    Ok(())
}

// ---- control plane -------------------------------------------------------------

fn probe_control_plane(m: &mut Metrics) -> KernelResult<()> {
    let workload = boot_only();
    let config = Config::WamrCrun;
    let plan = ExplorePlan::smoke(7);

    let bootstrap_s = measure(REPS, || {
        let t = Instant::now();
        settled(config, plan.nodes, plan.replicas, &workload)?;
        Ok(t.elapsed().as_secs_f64())
    })?;
    m.set("k8s.bootstrap_ms", bootstrap_s * 1e3);

    let (mut cluster, mut ctrl) = settled(config, plan.nodes, plan.replicas, &workload)?;
    let rounds = 2_000;
    let (mut lease, mut controller, mut kubelets) = (0.0, 0.0, 0.0);
    for _ in 0..rounds {
        let t = Instant::now();
        std::hint::black_box(cluster.tick_leases());
        lease += t.elapsed().as_secs_f64();
        let t = Instant::now();
        cluster.reconcile_controller(&mut ctrl)?;
        controller += t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(cluster.reconcile());
        kubelets += t.elapsed().as_secs_f64();
        cluster.advance(Duration::from_secs(1));
    }
    let per_round = 1e6 / rounds as f64;
    m.set("k8s.lease_tick_us", lease * per_round);
    m.set("k8s.controller.reconcile_us", controller * per_round);
    m.set("k8s.reconcile_us", kubelets * per_round);

    let schedules = 24;
    let schedule_s = measure(REPS, || {
        let t = Instant::now();
        for i in 0..schedules {
            let seed = plan.schedule_seed(i);
            let events = generate_schedule(seed, plan.nodes, plan.max_events);
            run_schedule(&plan, seed, &events, &workload, InvariantKnobs::default())?;
        }
        Ok(t.elapsed().as_secs_f64() / schedules as f64)
    })?;
    m.set("harness.explorer.ms_per_schedule", schedule_s * 1e3);
    m.set("harness.explorer.setup_share", bootstrap_s / schedule_s);
    Ok(())
}

// ---- driver --------------------------------------------------------------------

fn probe_driver(m: &mut Metrics) -> KernelResult<()> {
    let spec = RuntimeSpec::for_command("probe", vec!["/app/main.wasm".into()]).to_json();
    let parse_s = time(200, || oci_spec_lite::parse_json(&spec).expect("spec json"));
    m.set("oci.json.parse_mib_per_s", spec.len() as f64 / MIB / parse_s);

    // The fig8 grid on one worker and on two. With one core the second
    // worker only adds contention; the ratio is recorded either way.
    let workload = Workload::default();
    let cells: Vec<Cell> = Config::ALL.iter().map(|&c| Cell::startup(c, 10)).collect();
    run_cells_on(&cells, &workload, 1)?; // fills the caches for this guest
    let mut speedup = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        run_cells_on(&cells, &workload, 1)?;
        let serial = t.elapsed().as_secs_f64();
        let t = Instant::now();
        run_cells_on(&cells, &workload, 2)?;
        speedup.push(serial / t.elapsed().as_secs_f64());
    }
    m.set("harness.parallel.speedup_2w", median(&speedup));
    Ok(())
}

/// Run every probe and record its metrics.
pub fn run(m: &mut Metrics) -> KernelResult<()> {
    probe_guest(m)?;
    probe_pipeline(m)?;
    probe_stack(m)?;
    probe_simkernel(m)?;
    probe_queues(m)?;
    probe_requests(m)?;
    probe_control_plane(m)?;
    probe_driver(m)
}
