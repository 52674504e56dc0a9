//! The host executes each distinct guest once per process and replays its
//! outcome; every container is still charged for the run. What keeps that
//! from being a lookup table is held here: a replayed start is equal, byte
//! for byte, to an executed one (a sample is re-executed for real); a
//! guest that looks at the world is never replayed; every input a guest
//! can see separates entries; and what belongs to a start — the fault
//! site, the charges and the OOM they may cause — happens on a replayed
//! start as on an executed one.
//!
//! The record and its counters are process-wide, so every test here holds
//! [`serial`] for its whole body.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use memwasm::container_runtimes::handler::{ContainerHandler, HandlerOutcome};
use memwasm::engines::profile::{DEFAULT_STARTUP_FUEL, WAMR};
use memwasm::engines::{
    execute_guest, execute_wasm_opts, guests, install_engines, Embedding, EngineKind,
    EngineProfile, EngineRun, ExecOptions, GuestInputs, WasiSpec, EPOCH_TICK_INSTRS,
};
use memwasm::harness::{new_cluster, warmup, Config, Workload};
use memwasm::oci_spec_lite::{
    Bundle, ImageBuilder, ImageStore, RuntimeSpec, WATCHDOG_BUDGET_ANNOTATION,
};
use memwasm::pyrt::{execute_script, scripts, PythonHandler, ScriptInputs};
use memwasm::simkernel::image::watchdog_ticks;
use memwasm::simkernel::vfs::FileContent;
use memwasm::simkernel::{
    CgroupId, CgroupStats, Duration, FaultPlan, FaultSite, FileId, Kernel, KernelConfig,
    KernelError, Pid, ProcState, ReplayStats, StepTrace,
};
use memwasm::wasm_core::{
    ArtifactCache, ExecStats, FuncType, Instruction, Module, ModuleBuilder, Trap, ValType,
};
use memwasm::workloads::{
    balloon_module, hung_service_module, microservice_module, python_microservice_script,
    MicroserviceConfig, PythonScriptConfig,
};

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const WASI: &str = "wasi_snapshot_preview1";

/// The seven Wasm configurations as the engine boundary sees them: a
/// profile and how it is embedded (crun handlers link the C API, the
/// runwasi shims embed the crate).
fn wasm_configs() -> [(Config, &'static EngineProfile, Embedding); 7] {
    let p = |k: EngineKind| k.profile();
    [
        (Config::WamrCrun, &WAMR, Embedding::CApi),
        (Config::CrunWasmtime, p(EngineKind::Wasmtime), Embedding::CApi),
        (Config::CrunWasmer, p(EngineKind::Wasmer), Embedding::CApi),
        (Config::CrunWasmEdge, p(EngineKind::WasmEdge), Embedding::CApi),
        (Config::ShimWasmtime, p(EngineKind::Wasmtime), Embedding::Crate),
        (Config::ShimWasmer, p(EngineKind::Wasmer), Embedding::Crate),
        (Config::ShimWasmEdge, p(EngineKind::WasmEdge), Embedding::Crate),
    ]
}

fn service_wasi() -> WasiSpec {
    WasiSpec {
        args: vec!["/app/main.wasm".into()],
        env: vec![("SERVICE_NAME".into(), "microservice".into())],
        preopens: Vec::new(),
    }
}

fn boot() -> Kernel {
    let kernel = Kernel::boot(KernelConfig::default());
    install_engines(&kernel).unwrap();
    kernel
}

fn install(kernel: &Kernel, path: &str, module: Vec<u8>) -> FileId {
    kernel.create_file(path, FileContent::Bytes(module.into())).unwrap()
}

fn pod(kernel: &Kernel, name: &str) -> (CgroupId, Pid) {
    let cg = kernel.cgroup_create(Kernel::ROOT_CGROUP, name).unwrap();
    (cg, kernel.spawn(name, cg).unwrap())
}

/// Everything of an [`EngineRun`] a layer above can read.
#[derive(Debug, PartialEq)]
struct Seen {
    exit_code: i32,
    interrupted: bool,
    stats: ExecStats,
    stdout: Vec<u8>,
    stderr: Vec<u8>,
    epoch: Option<u64>,
    cache_hit: bool,
    trace: StepTrace,
}

fn seen(run: Result<EngineRun, KernelError>) -> Result<Seen, String> {
    run.map_err(|e| e.to_string()).map(|run| Seen {
        exit_code: run.exit_code,
        interrupted: run.interrupted,
        stats: run.stats,
        stdout: run.stdout,
        stderr: run.stderr,
        epoch: run.epoch_clock.map(|c| c.now()),
        cache_hit: run.cache_hit,
        trace: run.trace,
    })
}

/// Start `module` on a fresh pod of `kernel`; what the start returned and
/// what it left charged to the pod.
fn start(
    kernel: &Kernel,
    name: &str,
    profile: &EngineProfile,
    module: FileId,
    wasi: &WasiSpec,
    fuel: u64,
    opts: ExecOptions,
) -> (Result<Seen, String>, CgroupStats) {
    let (cg, pid) = pod(kernel, name);
    let run = seen(execute_wasm_opts(kernel, pid, profile, module, wasi, fuel, opts));
    (run, kernel.cgroup_stats(cg).unwrap())
}

/// The counters' movement across `f`.
fn counted<T>(stats: impl Fn() -> ReplayStats, f: impl FnOnce() -> T) -> (T, ReplayStats) {
    let before = stats();
    let out = f();
    let after = stats();
    let moved = ReplayStats {
        executed: after.executed - before.executed,
        replayed: after.replayed - before.replayed,
        unreplayable: after.unreplayable - before.unreplayable,
    };
    (out, moved)
}

const EXECUTED: ReplayStats = ReplayStats { executed: 1, replayed: 0, unreplayable: 0 };
const REPLAYED: ReplayStats = ReplayStats { executed: 0, replayed: 1, unreplayable: 0 };

/// `_start` calls `proc_exit(3)` after a line on stderr.
fn exit3_module() -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    let fd_write =
        b.import_func(WASI, "fd_write", FuncType::new(vec![ValType::I32; 4], vec![ValType::I32]));
    let exit = b.import_func(WASI, "proc_exit", FuncType::new(vec![ValType::I32], vec![]));
    let mem = b.memory(1, None);
    b.export_memory("memory", mem);
    b.data(0, &b"bye\n"[..]);
    b.data(8, &[0u8, 0, 0, 0, 4, 0, 0, 0][..]);
    let start = b.func(FuncType::new(vec![], vec![]), |f| {
        f.i32_const(2).i32_const(8).i32_const(1).i32_const(16).call(fd_write).drop_();
        f.i32_const(3).call(exit);
    });
    b.export_func("_start", start);
    b.build_bytes()
}

/// `_start` executes `unreachable`.
fn trap_module() -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    let mem = b.memory(1, None);
    b.export_memory("memory", mem);
    let start = b.func(FuncType::new(vec![], vec![]), |f| {
        f.op(Instruction::Unreachable);
    });
    b.export_func("_start", start);
    b.build_bytes()
}

/// Exits with `argc + 10 × envc + 100 × (fd 3 is a preopen)`, after
/// fetching argv and environ: a guest whose outcome is a function of each
/// WASI input, importing nothing that reaches the kernel.
fn inputs_probe_module() -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    let sig2 = || FuncType::new(vec![ValType::I32; 2], vec![ValType::I32]);
    let args_sizes = b.import_func(WASI, "args_sizes_get", sig2());
    let args_get = b.import_func(WASI, "args_get", sig2());
    let env_sizes = b.import_func(WASI, "environ_sizes_get", sig2());
    let env_get = b.import_func(WASI, "environ_get", sig2());
    let prestat = b.import_func(WASI, "fd_prestat_get", sig2());
    let exit = b.import_func(WASI, "proc_exit", FuncType::new(vec![ValType::I32], vec![]));
    let mem = b.memory(1, None);
    b.export_memory("memory", mem);
    let start = b.func(FuncType::new(vec![], vec![]), |f| {
        f.i32_const(0).i32_const(4).call(args_sizes).drop_();
        f.i32_const(256).i32_const(1024).call(args_get).drop_();
        f.i32_const(8).i32_const(12).call(env_sizes).drop_();
        f.i32_const(512).i32_const(2048).call(env_get).drop_();
        f.i32_const(0).i32_load(0);
        f.i32_const(8).i32_load(0).i32_const(10).op(Instruction::I32Mul);
        f.op(Instruction::I32Add);
        f.i32_const(3).i32_const(16).call(prestat).op(Instruction::I32Eqz);
        f.i32_const(100).op(Instruction::I32Mul).op(Instruction::I32Add);
        f.call(exit);
    });
    b.export_func("_start", start);
    b.build_bytes()
}

// --------------------------------------------------- (a) replay ≡ execute

/// The seeded sample: every guest the harness starts anywhere, by shape.
fn sample() -> Vec<(&'static str, Vec<u8>, Option<Duration>)> {
    let short = Some(Duration::from_millis(5)); // interrupts every engine
    let long = Some(Duration::from_secs(60)); // armed, never fires
    let service = microservice_module;
    vec![
        ("default", service(&Workload::default().wasm), None),
        ("light", service(&Workload::light().wasm), None),
        ("compute-heavy", service(&MicroserviceConfig::compute_heavy()), None),
        ("compute-heavy/5ms", service(&MicroserviceConfig::compute_heavy()), short),
        ("memory-heavy", service(&MicroserviceConfig::memory_heavy()), None),
        ("memory-heavy/5ms", service(&MicroserviceConfig::memory_heavy()), short),
        ("spinner", service(&MicroserviceConfig::spinner(3_000)), None),
        ("spinner/5ms", service(&MicroserviceConfig::spinner(3_000)), short),
        ("spinner/60s", service(&MicroserviceConfig::spinner(3_000)), long),
        ("balloon", balloon_module(16, 8), None),
        ("exit-3", exit3_module(), None),
        ("trap", trap_module(), None),
    ]
}

#[test]
fn a_replayed_wasm_start_equals_an_executed_one_on_every_config() {
    let _serial = serial();
    let wasi = service_wasi();
    let (mut interrupted, mut watched_to_the_end, mut trapped) = (0, 0, 0);
    for (config, profile, embedding) in wasm_configs() {
        let kernel = boot();
        for (guest, module, epoch_budget) in sample() {
            let what = format!("{} / {guest}", config.label());
            let file = install(&kernel, &format!("/images/{guest}/app.wasm"), module);
            let opts = ExecOptions { embedding, epoch_budget, ..Default::default() };
            let go = |pod: &str| {
                let name = format!("{guest}-{pod}");
                counted(
                    || guests().stats(),
                    || start(&kernel, &name, profile, file, &wasi, DEFAULT_STARTUP_FUEL, opts),
                )
            };
            // Cold and executed, then replayed (the first start to hit
            // Wasmtime's code cache reads the artifact from disk); warm
            // and executed again, then replayed.
            guests().clear();
            let ((first, _), moved) = go("a");
            assert_eq!(moved, EXECUTED, "{what}");
            assert_eq!(go("b").1, REPLAYED, "{what}");
            guests().clear();
            let ((executed, executed_cg), moved) = go("c");
            assert_eq!(moved, EXECUTED, "{what}");
            let ((replayed, replayed_cg), moved) = go("d");
            assert_eq!(moved, REPLAYED, "{what}");

            assert_eq!(replayed, executed, "{what}");
            assert_eq!(replayed_cg, executed_cg, "{what}: charged per start, equally");
            // The cold start differs from the warm ones in what it read
            // from disk and compiled, never in what the guest did.
            match (&first, &executed) {
                (Ok(cold), Ok(warm)) => {
                    assert_eq!(
                        (cold.exit_code, cold.interrupted, cold.stats, cold.epoch),
                        (warm.exit_code, warm.interrupted, warm.stats, warm.epoch),
                        "{what}"
                    );
                    assert_eq!((&cold.stdout, &cold.stderr), (&warm.stdout, &warm.stderr));
                    assert_eq!(warm.epoch.is_some(), epoch_budget.is_some(), "{what}");
                    interrupted += warm.interrupted as u32;
                    watched_to_the_end += (warm.epoch.is_some() && !warm.interrupted) as u32;
                    match guest {
                        "exit-3" => {
                            assert_eq!((warm.exit_code, &warm.stderr[..]), (3, &b"bye\n"[..]))
                        }
                        "trap" => panic!("{what}: a trapping guest started"),
                        _ => assert_ne!(
                            warm.stdout.ends_with(b"ready\n"),
                            warm.interrupted,
                            "{what}"
                        ),
                    }
                }
                (Err(cold), Err(warm)) => {
                    assert_eq!((guest, cold), ("trap", warm), "{what}");
                    assert!(warm.contains("guest trapped: unreachable"), "{what}: {warm}");
                    trapped += 1;
                }
                _ => panic!("{what}: cold {first:?}, warm {executed:?}"),
            }
        }
    }
    // The sample holds every way a start can end.
    assert_eq!(interrupted, 7 * 3, "the 5 ms budget interrupts every engine");
    assert_eq!(watched_to_the_end, 7, "the 60 s budget is armed and never fires");
    assert_eq!(trapped, 7);
}

const PY_EXIT: &str = "import sys\nprint(\"leaving\")\nsys.exit(3)\n";
const PY_RAISES: &str = "print(\"about to fail\")\nx = undefined_name + 1\n";
const PY_HANGS: &str = "print(\"spinning\")\nwhile True:\n    pass\n";

/// A Python container's bundle and spec on `kernel`.
fn python_container(
    kernel: &Kernel,
    store: &mut ImageStore,
    name: &str,
    script: &str,
    budget: Option<Duration>,
) -> (Bundle, RuntimeSpec) {
    let image = ImageBuilder::new(&format!("{name}:v1"))
        .entrypoint(["/usr/bin/python3".to_string(), "/app/service.py".to_string()])
        .file("/app/service.py", script.as_bytes().to_vec());
    let image = store.register(kernel, image).unwrap().clone();
    let mut spec = RuntimeSpec::for_command(name, image.command());
    spec.process.env.push("SERVICE_NAME=microservice".into());
    if let Some(budget) = budget {
        spec.annotations
            .insert(WATCHDOG_BUDGET_ANNOTATION.to_string(), budget.as_nanos().to_string());
    }
    let bundle = Bundle::create(kernel, name, &image, &spec).unwrap();
    (bundle, spec)
}

#[test]
fn a_replayed_python_start_equals_an_executed_one() {
    let _serial = serial();
    // crun-python and runc-python differ in the low-level runtime around
    // this handler, not in the handler.
    let handler = PythonHandler::default();
    let kernel = Kernel::boot(KernelConfig::default());
    memwasm::pyrt::install_python(&kernel).unwrap();
    let mut store = ImageStore::new();
    let service = python_microservice_script(&PythonScriptConfig::default());
    let cache = python_microservice_script(&PythonScriptConfig::memory_heavy());
    let budget = Some(Duration::from_millis(500));
    let sample: [(&str, &str, Option<Duration>); 6] = [
        ("service", &service, None),
        ("service-watched", &service, Some(Duration::from_secs(600))),
        ("memory-heavy", &cache, None),
        ("exit-3", PY_EXIT, None),
        ("raises", PY_RAISES, None),
        ("hangs", PY_HANGS, budget),
    ];
    for (guest, script, budget) in sample {
        let (bundle, spec) = python_container(&kernel, &mut store, guest, script, budget);
        let go = |suffix: &str| {
            let (cg, pid) = pod(&kernel, &format!("{guest}-{suffix}"));
            let (out, moved) =
                counted(|| scripts().stats(), || handler.execute(&kernel, pid, &bundle, &spec));
            let out = out.map_err(|e| e.to_string()).map(
                |HandlerOutcome { trace, stdout, exit_code, interrupted, epoch_clock }| {
                    assert!(epoch_clock.is_none());
                    (trace, stdout, exit_code, interrupted)
                },
            );
            (out, kernel.cgroup_stats(cg).unwrap(), moved)
        };
        scripts().clear();
        let (first, _, moved) = go("a");
        assert_eq!(moved, EXECUTED, "{guest}");
        let (replayed, replayed_cg, moved) = go("b");
        assert_eq!(moved, REPLAYED, "{guest}");
        scripts().clear();
        let (executed, executed_cg, moved) = go("c");
        assert_eq!(moved, EXECUTED, "{guest}");

        assert_eq!(replayed, executed, "{guest}");
        assert_eq!(replayed_cg, executed_cg, "{guest}");
        match (guest, &first, &executed) {
            ("raises", Err(cold), Err(warm)) => {
                assert_eq!(cold, warm);
                assert!(warm.contains("python runtime"), "{warm}");
            }
            (_, Ok((_, stdout, exit_code, interrupted)), Ok(warm)) => {
                assert_eq!((stdout, exit_code, interrupted), (&warm.1, &warm.2, &warm.3));
                assert_eq!(
                    (*exit_code, *interrupted),
                    ((guest == "exit-3") as i32 * 3, guest == "hangs")
                );
                assert!(!stdout.is_empty(), "{guest}");
            }
            _ => panic!("{guest}: cold {first:?}, warm {executed:?}"),
        }

        // Straight through the execute function: what the record holds.
        let source = script.as_bytes().to_vec().into();
        let deadline = budget.map(|b| {
            let (_, pid) = pod(&kernel, &format!("{guest}-ticks"));
            let ns_per_tick =
                handler.profile.exec_ns_per_op * memwasm::pyrt::handler::PY_EPOCH_TICK_OPS;
            watchdog_ticks(&kernel, pid, b, ns_per_tick).unwrap()
        });
        let inputs =
            ScriptInputs { source: &source, process: &spec.process, fuel: handler.fuel, deadline };
        assert_eq!(scripts().recorded(&inputs), Some(true), "{guest}: filed under these inputs");
        let direct = execute_script(&inputs).unwrap();
        let recorded = scripts().outcome(&inputs, || -> Result<_, KernelError> {
            panic!("{guest}: on record, not to be executed")
        });
        assert_eq!(direct, *recorded.unwrap(), "{guest}");
    }
}

#[test]
fn pods_of_every_config_see_the_same_bytes_replayed_or_executed() {
    let _serial = serial();
    for workload in [Workload::light(), Workload::default()] {
        for config in Config::ALL {
            let mut cluster = new_cluster(&[config], &workload).unwrap();
            // Twice: the first start to hit Wasmtime's code cache reads the
            // artifact the warm-up wrote from disk.
            warmup(&mut cluster, config).unwrap();
            warmup(&mut cluster, config).unwrap();
            let mut pods = Vec::new();
            for (name, clear_first) in [("a", true), ("b", false), ("c", true)] {
                if clear_first {
                    guests().clear();
                    scripts().clear();
                }
                let starts = || if config.is_wasm() { guests().stats() } else { scripts().stats() };
                // The pods stay up (a `Deployment` is a record, dropping it
                // tears nothing down), as the pods of a measured cell do.
                let (d, moved) = counted(starts, || {
                    cluster.deploy(name, config.image_ref(), config.class_name(), 1).unwrap()
                });
                assert_eq!(
                    moved,
                    if clear_first { EXECUTED } else { REPLAYED },
                    "{}",
                    config.label()
                );
                let pod = &d.pods[0];
                let cgroup = cluster.kernel().cgroup_stats(pod.pod_cgroup).unwrap();
                pods.push((pod.trace.clone(), pod.stdout.clone(), pod.phase, cgroup));
            }
            assert_eq!(pods[0], pods[1], "{}: executed, then replayed", config.label());
            assert_eq!(pods[1], pods[2], "{}: replayed, then executed", config.label());
        }
    }
}

// ------------------------------------- (b) a guest that looks is never replayed

/// The module the artifact cache hands every start of `file`.
fn module_of(kernel: &Kernel, file: FileId) -> Arc<Module> {
    let (_, pid) = pod(kernel, "reader");
    let bytes = kernel.read_file(pid, file).unwrap().unwrap();
    ArtifactCache::global().get_or_decode(&bytes).unwrap()
}

/// The inputs `run_module` files a start of `module` on WAMR under.
fn wamr_inputs<'a>(
    module: &'a Arc<Module>,
    wasi: &'a WasiSpec,
    fuel: u64,
    deadline: Option<u64>,
) -> GuestInputs<'a> {
    GuestInputs {
        module,
        tier: WAMR.tier,
        fuel,
        max_call_depth: 1024,
        deadline: deadline.map(|ticks| (ticks, EPOCH_TICK_INSTRS)),
        wasi,
    }
}

#[test]
fn a_guest_that_reads_the_clock_is_executed_on_every_start() {
    let _serial = serial();
    let kernel = boot();
    let ready_after = Duration::from_secs(30);
    let file =
        install(&kernel, "/images/hung/app.wasm", hung_service_module(ready_after.as_nanos()));
    let wasi = service_wasi();
    let budget = Duration::from_millis(500);
    let opts = ExecOptions { epoch_budget: Some(budget), ..Default::default() };
    let go = |name: &str| start(&kernel, name, &WAMR, file, &wasi, u64::MAX, opts).0.unwrap();

    guests().clear();
    let (early, moved) = counted(|| guests().stats(), || [go("h1"), go("h2"), go("h3")]);
    assert_eq!(moved, ReplayStats { executed: 3, replayed: 0, unreplayable: 3 });
    for run in &early {
        assert!(run.interrupted, "started before {ready_after:?}: spins to the deadline");
        assert_eq!(run.stdout, b"hung service: waiting\n");
    }
    let (_, pid) = pod(&kernel, "ticks");
    let ticks = watchdog_ticks(&kernel, pid, budget, WAMR.exec_ns_per_instr * EPOCH_TICK_INSTRS);
    let module = module_of(&kernel, file);
    let inputs = wamr_inputs(&module, &wasi, u64::MAX, ticks.ok());
    assert_eq!(guests().recorded(&inputs), Some(false), "the tombstone");
    assert_eq!(guests().len(), 1);

    // The same guest, the same inputs, a later world: it comes up ready,
    // which no record of the earlier runs could have said.
    kernel.advance(ready_after);
    let (late, moved) = counted(|| guests().stats(), || go("h4"));
    assert_eq!(moved, ReplayStats { executed: 1, replayed: 0, unreplayable: 1 });
    assert!(!late.interrupted);
    assert_eq!(late.stdout, b"hung service: waiting\nhung service: ready\n");
}

#[test]
fn a_guest_that_only_reads_its_own_inputs_is_replayed() {
    let _serial = serial();
    let kernel = boot();
    let file = install(&kernel, "/images/probe/app.wasm", inputs_probe_module());
    let wasi = WasiSpec {
        args: vec!["probe".into()],
        env: vec![("A".into(), "1".into())],
        ..Default::default()
    };
    guests().clear();
    let go = |name: &str| {
        start(&kernel, name, &WAMR, file, &wasi, DEFAULT_STARTUP_FUEL, ExecOptions::default())
    };
    let (first, moved) = counted(|| guests().stats(), || go("p1").0.unwrap());
    assert_eq!(moved, EXECUTED);
    let (second, moved) = counted(|| guests().stats(), || go("p2").0.unwrap());
    assert_eq!(moved, REPLAYED);
    assert_eq!((first.exit_code, second.exit_code), (11, 11), "argc 1, envc 1, no preopen");
    assert_eq!(first.stats.host_calls, 6);
    let module = module_of(&kernel, file);
    let inputs = wamr_inputs(&module, &wasi, DEFAULT_STARTUP_FUEL, None);
    assert_eq!(guests().recorded(&inputs), Some(true));
}

// ------------------------------------------------------ (c) key separation

#[test]
fn every_input_the_guest_can_see_separates_entries() {
    let _serial = serial();
    let kernel = boot();
    kernel.create_file("/rootfs/data/f", FileContent::Bytes(b"x".to_vec().into())).unwrap();
    let file = install(&kernel, "/images/probe/app.wasm", inputs_probe_module());
    let strs = |s: &[&str]| s.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let pairs = |s: &[(&str, &str)]| {
        s.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect::<Vec<_>>()
    };
    let base = WasiSpec { args: strs(&["probe"]), env: pairs(&[("A", "1")]), preopens: vec![] };
    let variants = [
        (base.clone(), 11),
        (WasiSpec { args: strs(&["probe", "-v"]), ..base.clone() }, 12),
        (WasiSpec { env: pairs(&[("A", "1"), ("B", "2")]), ..base.clone() }, 21),
        (WasiSpec { preopens: pairs(&[("/data", "/rootfs/data")]), ..base.clone() }, 111),
        // Same counts, other contents: still another guest.
        (WasiSpec { args: strs(&["other"]), ..base.clone() }, 11),
        (WasiSpec { env: pairs(&[("A", "2")]), ..base.clone() }, 11),
    ];
    guests().clear();
    let fuel = DEFAULT_STARTUP_FUEL;
    for round in 0..2 {
        for (i, (wasi, exit_code)) in variants.iter().enumerate() {
            let name = format!("v{i}-{round}");
            let ((run, _), moved) = counted(
                || guests().stats(),
                || start(&kernel, &name, &WAMR, file, wasi, fuel, ExecOptions::default()),
            );
            assert_eq!(run.unwrap().exit_code, *exit_code, "variant {i}");
            assert_eq!(moved, if round == 0 { EXECUTED } else { REPLAYED }, "variant {i}");
        }
    }
    assert_eq!(guests().len(), variants.len());

    // Fuel: enough and not enough are two guests, each with its own end.
    let spin = install(
        &kernel,
        "/images/spin/app.wasm",
        microservice_module(&MicroserviceConfig::spinner(3_000)),
    );
    let wasi = service_wasi();
    for round in 0..2 {
        for (fuel, runs) in [(DEFAULT_STARTUP_FUEL, true), (1_000, false)] {
            let name = format!("fuel-{fuel}-{round}");
            let ((run, _), moved) = counted(
                || guests().stats(),
                || start(&kernel, &name, &WAMR, spin, &wasi, fuel, ExecOptions::default()),
            );
            assert_eq!(moved, if round == 0 { EXECUTED } else { REPLAYED }, "fuel {fuel}");
            match run {
                Ok(run) => assert!(runs && run.stdout == b"spinner ready\n"),
                Err(e) => assert!(!runs && e.contains("instruction budget exhausted"), "{e}"),
            }
        }
    }
    assert_eq!(guests().len(), variants.len() + 2);
}

#[test]
fn cpu_max_shrinks_the_deadline_and_so_names_another_guest() {
    let _serial = serial();
    let kernel = boot();
    let burn = MicroserviceConfig::spinner(3_000);
    let file = install(&kernel, "/images/spin/app.wasm", microservice_module(&burn));
    let wasi = service_wasi();
    // A budget the burn fits in at full speed and overshoots at a fifth.
    let budget = Duration::from_secs(1);
    let opts = ExecOptions { epoch_budget: Some(budget), ..Default::default() };
    let fuel = DEFAULT_STARTUP_FUEL;
    let ns_per_tick = WAMR.exec_ns_per_instr * EPOCH_TICK_INSTRS;

    guests().clear();
    let mut ticks_seen = Vec::new();
    for round in 0..2 {
        for (throttled, cpu_max) in [(false, None), (true, Some((20_000_000, 100_000_000)))] {
            let name = format!("spin-{throttled}-{round}");
            let (cg, pid) = pod(&kernel, &name);
            kernel.cgroup_set_cpu_max(cg, cpu_max).unwrap();
            let ticks = watchdog_ticks(&kernel, pid, budget, ns_per_tick).unwrap();
            let (run, moved) = counted(
                || guests().stats(),
                || seen(execute_wasm_opts(&kernel, pid, &WAMR, file, &wasi, fuel, opts)).unwrap(),
            );
            assert_eq!(moved, if round == 0 { EXECUTED } else { REPLAYED }, "{name}");
            assert_eq!(run.interrupted, throttled, "{name}: {ticks} ticks");

            // Exactly as when executed with these inputs.
            let module = module_of(&kernel, file);
            let inputs = wamr_inputs(&module, &wasi, fuel, Some(ticks));
            assert_eq!(guests().recorded(&inputs), Some(true), "{name}");
            let direct = execute_guest(&kernel, pid, &inputs).unwrap();
            assert_eq!(direct.end.is_err(), throttled, "{name}");
            assert_eq!(direct.end.clone().err(), throttled.then_some(Trap::Interrupted));
            assert_eq!(
                (direct.stats, &direct.stdout[..], direct.epoch, direct.observed_world),
                (run.stats, &run.stdout[..], run.epoch, false),
                "{name}"
            );
            ticks_seen.push(ticks);
        }
    }
    assert!(ticks_seen[1] < ticks_seen[0], "the quota is in the key by construction");
    assert_eq!(guests().len(), 2);
}

// ------------------------------------- (d) per-start things stay per start

#[test]
fn a_fault_plan_fails_a_start_that_would_have_been_replayed() {
    let _serial = serial();
    let kernel = boot();
    let file =
        install(&kernel, "/images/svc/app.wasm", microservice_module(&Workload::light().wasm));
    let wasi = service_wasi();
    let opts = ExecOptions::default();
    let fuel = DEFAULT_STARTUP_FUEL;
    guests().clear();
    let (warm, _) = start(&kernel, "warm", &WAMR, file, &wasi, fuel, opts);
    let warm = warm.unwrap();

    // The second call at the site from here on fails: a start that is on
    // record, and whose process outlives it (a sandbox's would).
    kernel.set_fault_plan(FaultPlan::new(7).fail_call(FaultSite::EngineInstantiate, 1));
    let ((ok, ok_cg), moved) =
        counted(|| guests().stats(), || start(&kernel, "ok", &WAMR, file, &wasi, fuel, opts));
    assert_eq!(moved, REPLAYED);

    let (cg, pid) = pod(&kernel, "faulted");
    let (engine, trace) = memwasm::engines::load_engine(&kernel, pid, &WAMR, opts).unwrap();
    let loaded = kernel.cgroup_stats(cg).unwrap();
    let (failed, moved) = counted(
        || guests().stats(),
        || {
            memwasm::engines::run_module(
                &kernel,
                pid,
                engine,
                file,
                &wasi,
                fuel,
                opts,
                trace.clone(),
            )
        },
    );
    assert!(matches!(failed, Err(KernelError::FaultInjected { .. })), "{failed:?}");
    assert_eq!(moved, ReplayStats::default(), "the fault site precedes the record");
    assert_eq!(kernel.cgroup_stats(cg).unwrap(), loaded, "rolled back to the loaded engine");
    assert_eq!(kernel.proc_state(pid).unwrap(), ProcState::Running);

    // The retry the fault model promises, in the same process.
    let (retried, moved) = counted(
        || guests().stats(),
        || memwasm::engines::run_module(&kernel, pid, engine, file, &wasi, fuel, opts, trace),
    );
    assert_eq!(moved, REPLAYED);
    let retried = seen(retried).unwrap();
    assert_eq!(Ok(&retried), ok.as_ref());
    assert_eq!(kernel.cgroup_stats(cg).unwrap(), ok_cg);
    assert_eq!((retried.stats, &retried.stdout), (warm.stats, &warm.stdout));
}

#[test]
fn a_replayed_balloon_is_oom_killed_under_memory_max_like_an_executed_one() {
    let _serial = serial();
    let kernel = boot();
    // 16 + 8 × 64 pages = 33 MiB of linear memory against 16 MiB.
    let file = install(&kernel, "/images/balloon/app.wasm", balloon_module(64, 8));
    let wasi = service_wasi();
    let fuel = DEFAULT_STARTUP_FUEL;
    let go = |name: &str, limit: Option<u64>| {
        let (cg, pid) = pod(&kernel, name);
        kernel.cgroup_set_limit(cg, limit).unwrap();
        let (run, moved) = counted(
            || guests().stats(),
            || execute_wasm_opts(&kernel, pid, &WAMR, file, &wasi, fuel, ExecOptions::default()),
        );
        // The message names the pod's cgroup; keep what follows it.
        let run = run
            .map(|run| run.stats)
            .map_err(|e| e.to_string().split_once(" OOM: ").map(|(_, what)| what.to_string()));
        let stats = kernel.cgroup_stats(cg).unwrap();
        (run, kernel.proc_state(pid).unwrap(), stats.oom_events, stats.mem, moved)
    };
    let limit = Some(16 << 20);
    // Left running, it stays the first toucher of the engine's and the
    // module's page cache.
    go("warm", None).0.unwrap();
    guests().clear();
    let (run, state, ooms, mem, moved) = go("executed", limit);
    assert_eq!(moved, EXECUTED, "the guest's answer does not depend on the limit");
    assert!(
        run.as_ref()
            .is_err_and(|e| e.as_deref() == Some("requested 34603008 bytes over limit 16777216")),
        "{run:?}"
    );
    assert!(state == ProcState::OomKilled && ooms == 1, "{state:?}, {ooms} OOMs");
    let replayed = go("replayed", limit);
    assert_eq!(replayed, (run, state, ooms, mem, REPLAYED), "the charge is per start");
    // And the same record inflates an unlimited pod to the full balloon.
    let (run, state, ooms, mem, moved) = go("unlimited", None);
    assert_eq!((moved, ooms, state), (REPLAYED, 0, ProcState::Running));
    assert!(run.is_ok() && mem.anon_bytes > 33 << 20, "{run:?}, {mem:?}");
}
