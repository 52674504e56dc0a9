//! Studies beyond the paper's figures, each answered by measurement.
//!
//! Usage: `cargo run --release -p harness --bin studies --
//! <design-questions|app-impact|wamr-aot|ablations>`
//!
//! * `design-questions` — §III-B: *which Wasm runtime should we choose
//!   between Wasmer, Wasmtime, WasmEdge and WAMR?* (embed each into crun,
//!   compare per-container memory) and *should we integrate it into crun
//!   or youki, or into containerd via runwasi?* (WAMR in crun and in youki
//!   against the best runwasi shim; no upstream WAMR shim exists, which is
//!   itself part of the answer).
//! * `app-impact` — §IV-D/F, "the impact of different applications": the
//!   minimal microservice, a compute-heavy and a memory-heavy service
//!   under the contribution and the Python baseline. The Wasm advantage
//!   narrows as the application's own footprint grows, which is why the
//!   paper benchmarks a minimal app.
//! * `wamr-aot` — §VI future work: the crun-embedded WAMR with its AOT
//!   compiler on. It keeps the tiny library but eagerly lowers every
//!   function like the JIT engines: real compiled-code bytes per container
//!   (still far under Wasmtime), a compile cost that hurts at low density,
//!   and faster execution that wins back some of Fig. 9's crun-Wasmtime
//!   gap under contention.
//! * `ablations` — the measured effect of the design choices DESIGN.md
//!   calls out: shared dynamic-library loading on/off (§III-C aspect 1),
//!   in-place interpretation vs eager lowering, Wasmtime's code cache cold
//!   vs warm (the Fig. 9 crossover mechanism), and OCI vs runwasi sandbox
//!   accounting.

#[path = "../cli.rs"]
mod cli;

use std::sync::Arc;

use container_runtimes::profile::YOUKI;
use engines::profile::WAMR_AOT;
use harness::{
    mb, measure_memory, measure_stack, new_cluster, Config, Grid, Guest, Observe, Stack, Workload,
};
use simkernel::{Duration, KernelResult};
use wamr_crun::WamrCrunConfig;
use wasm_core::{decode_module, ExecTier, Imports, Instance, InstanceConfig, Value};
use workloads::{MicroserviceConfig, PythonScriptConfig};

const USAGE: &str = "studies <design-questions|app-impact|wamr-aot|ablations>";

// ---- design-questions ---------------------------------------------------

fn design_questions() -> KernelResult<()> {
    let workload = Workload::default();
    let density = 20;

    println!("Design question 1: which Wasm runtime to embed into crun?\n");
    println!("{:<18} {:>12} {:>12}", "engine in crun", "metrics MB", "free MB");
    let engine_rows = [
        ("WAMR", Config::WamrCrun),
        ("Wasmtime", Config::CrunWasmtime),
        ("Wasmer", Config::CrunWasmer),
        ("WasmEdge", Config::CrunWasmEdge),
    ];
    let grid = Grid::measure(&engine_rows.map(|r| r.1), &[density], &workload)?;
    let mut best = ("", f64::INFINITY);
    for (name, config) in engine_rows {
        let s = grid.at(config, density)?.memory;
        let m = mb(s.metrics_avg);
        if m < best.1 {
            best = (name, m);
        }
        println!("{name:<18} {:>12.2} {:>12.2}", m, mb(s.free_per_pod));
    }
    println!("\n→ {} has the highest memory-saving potential, matching §III-B's choice.\n", best.0);

    println!("Design question 2: which integration point for WAMR?\n");
    println!("{:<26} {:>12} {:>12}", "integration", "metrics MB", "free MB");
    let crun = grid.at(Config::WamrCrun, density)?.memory;
    let (crun_m, crun_f) = (crun.metrics_avg, crun.free_per_pod);
    println!("{:<26} {:>12.2} {:>12.2}", "WAMR in crun", mb(crun_m), mb(crun_f));
    let youki = Stack { runtime: YOUKI, ..Config::WamrCrun.stack() };
    let (memory, _) = measure_stack(&youki, density, &workload, Observe::Memory)?;
    let (youki_m, youki_f) = memory.expect("memory");
    println!("{:<26} {:>12.2} {:>12.2}", "WAMR in youki", mb(youki_m), mb(youki_f));
    let shim = measure_memory(Config::ShimWasmtime, density, &workload)?;
    println!(
        "{:<26} {:>12.2} {:>12.2}   (no WAMR shim exists upstream; best runwasi shown)",
        "runwasi (best: wasmtime)",
        mb(shim.metrics_avg),
        mb(shim.free_per_pod)
    );
    println!(
        "\n→ crun: lighter than youki by {:.1}% (free) and than the best runwasi\n\
         shim by {:.1}% — §III-B's second choice, also by measurement.",
        (1.0 - crun_f as f64 / youki_f as f64) * 100.0,
        (1.0 - crun_f as f64 / shim.free_per_pod as f64) * 100.0
    );
    Ok(())
}

// ---- app-impact ---------------------------------------------------------

fn app_impact() -> KernelResult<()> {
    let density = 20;
    let apps: [(&str, Workload); 3] = [
        ("minimal microservice", Workload::default()),
        (
            "compute-heavy service",
            Workload {
                wasm: MicroserviceConfig::compute_heavy(),
                python: PythonScriptConfig::compute_heavy(),
            },
        ),
        (
            "memory-heavy service",
            Workload {
                wasm: MicroserviceConfig::memory_heavy(),
                python: PythonScriptConfig::memory_heavy(),
            },
        ),
    ];

    println!(
        "{:<24} {:>16} {:>16} {:>12}",
        "application", "wamr-crun MB/ctr", "crun-python MB/ctr", "ours vs py"
    );
    for (name, workload) in &apps {
        let ours = measure_memory(Config::WamrCrun, density, workload)?;
        let py = measure_memory(Config::CrunPython, density, workload)?;
        println!(
            "{:<24} {:>16.2} {:>16.2} {:>11.1}%",
            name,
            mb(ours.metrics_avg),
            mb(py.metrics_avg),
            (1.0 - ours.metrics_avg as f64 / py.metrics_avg as f64) * 100.0
        );
    }
    println!(
        "\nAs the application grows, its own memory dominates and the runtime\n\
         advantage narrows — the reason §IV-A benchmarks a minimal app whose\n\
         footprint is dominated by the runtime under evaluation."
    );
    Ok(())
}

// ---- wamr-aot -----------------------------------------------------------

fn wamr_aot() -> KernelResult<()> {
    let workload = Workload::default();
    let wasmtime = Config::CrunWasmtime.stack();
    // The crun engine handler, running WAMR in AOT mode.
    let aot = Stack { class: "crun-wamr-aot", guest: Guest::Engine(WAMR_AOT), ..wasmtime };
    let rows = [
        ("crun-wamr (interp, paper)", Config::WamrCrun.stack()),
        ("crun-wamr-aot (future)", aot),
        ("crun-wasmtime (reference)", wasmtime),
    ];
    for density in [10usize, 400] {
        println!("--- density {density} pods ---");
        println!("{:<26} {:>12} {:>12}", "integration", "metrics MB", "startup s");
        for (name, stack) in &rows {
            // One deployment per integration yields both observers.
            let (memory, startup) = measure_stack(stack, density, &workload, Observe::Both)?;
            let (metrics, startup) = (memory.expect("memory").0, startup.expect("startup"));
            println!("{name:<26} {:>12.2} {:>12.2}", mb(metrics), startup.as_secs_f64());
        }
        println!();
    }
    println!(
        "AOT narrows the dense-deployment startup gap to crun-Wasmtime at the\n\
         cost of per-container code memory — the optimization space §VI leaves\n\
         for future work, quantified."
    );
    Ok(())
}

// ---- ablations ----------------------------------------------------------

/// Ablation density: large enough to exercise sharing and contention.
const ABLATION_DENSITY: usize = 6;

/// A workload with a small guest loop: the ablations isolate the
/// integration's effect, not the guest's startup slice.
fn ablation_workload() -> Workload {
    Workload {
        wasm: MicroserviceConfig { loop_iterations: 50, ..MicroserviceConfig::default() },
        ..Default::default()
    }
}

/// `ablation_dlopen`: WAMR-crun with vs without shared dynamic-library
/// loading (both toggles live in [`WamrCrunConfig`]).
fn ablation_dlopen(w: &Workload) -> KernelResult<()> {
    let metrics = |stack: &Stack| -> KernelResult<u64> {
        let (memory, _) = measure_stack(stack, ABLATION_DENSITY, w, Observe::Memory)?;
        Ok(memory.expect("memory").0)
    };
    let wamr = Config::WamrCrun.stack();
    let unshared =
        WamrCrunConfig { dynamic_lib_loading: false, share_modules: false, ..Default::default() };
    let shared = metrics(&wamr)?;
    let private = metrics(&Stack { guest: Guest::Wamr(unshared), ..wamr })?;
    println!(
        "\nablation_dlopen: shared {:.2} MB/ctr vs static/private {:.2} MB/ctr (+{:.1}%)",
        mb(shared),
        mb(private),
        (private as f64 / shared as f64 - 1.0) * 100.0
    );
    Ok(())
}

/// `ablation_inplace`: in-place interpretation vs forced eager lowering at
/// the Wasm-core level (the memory/speed trade), then the workload's own
/// counts on both tiers and under the Python interpreter — the inputs the
/// cost-model constants are tuned against.
fn ablation_inplace(w: &Workload) {
    let bytes = workloads::microservice_module(&w.wasm);
    let module_size = bytes.len();
    let module = Arc::new(decode_module(bytes).expect("decode"));
    let run = |tier: ExecTier| {
        let imports = Imports::new()
            .func("wasi_snapshot_preview1", "fd_write", |_, _| Ok(vec![Value::I32(0)]));
        let mut inst = Instance::instantiate(
            Arc::clone(&module),
            imports,
            InstanceConfig { tier, fuel: Some(100_000_000), ..Default::default() },
        )
        .expect("instantiate");
        inst.run_start().expect("run");
        inst.stats()
    };
    let (a, b) = (run(ExecTier::InPlace), run(ExecTier::Lowered));
    println!(
        "\nablation_inplace: side-tables {} B vs lowered code {} B ({}x code expansion)",
        a.side_table_bytes,
        b.lowered_bytes,
        b.lowered_bytes / module.code_size().max(1)
    );
    println!("module size = {module_size} bytes");
    println!("code size = {}", module.code_size());
    println!("instrs (inplace) = {}", a.instrs_retired);
    println!("instrs (lowered) = {} lowered_bytes = {}", b.instrs_retired, b.lowered_bytes);
    let program = pyrt::parse(&workloads::python_microservice_script(&w.python)).expect("parse");
    let mut python = pyrt::Interp::new(vec![], vec![]);
    python.run(&program).expect("run");
    println!("python ops = {} allocs = {}", python.stats().ops, python.stats().allocs);
}

/// `ablation_module_cache`: Wasmtime's content-addressed code cache. Cold
/// is a fresh cluster, so the first container compiles; warm has had one
/// pod deployed and removed, so every container hits.
fn ablation_module_cache(w: &Workload) -> KernelResult<()> {
    let config = Config::CrunWasmtime;
    let startup = |warm: bool| -> KernelResult<Duration> {
        let mut cluster = new_cluster(&[config], w)?;
        if warm {
            let pod = cluster.deploy("w", config.image_ref(), config.class_name(), 1)?;
            cluster.teardown(pod)?;
        }
        let d = cluster.deploy("c", config.image_ref(), config.class_name(), ABLATION_DENSITY)?;
        Ok(cluster.measure_startup(&[&d]).total())
    };
    let (cold, warm) = (startup(false)?, startup(true)?);
    println!(
        "\nablation_module_cache: cold {} vs warm {} (cache saves {:.1}%)",
        cold,
        warm,
        (1.0 - warm.as_nanos() as f64 / cold.as_nanos() as f64) * 100.0
    );
    Ok(())
}

/// `ablation_pause`: OCI sandboxes (pause container + external shim) vs
/// runwasi sandboxes (the shim is the container).
fn ablation_pause(w: &Workload) -> KernelResult<()> {
    let oci = measure_memory(Config::WamrCrun, ABLATION_DENSITY, w)?;
    let runwasi = measure_memory(Config::ShimWasmtime, ABLATION_DENSITY, w)?;
    println!(
        "\nablation_pause: OCI sandbox (pause in pod, shim outside) metrics {:.2} / free {:.2} MB;\n\
         runwasi sandbox (shim is the pod) metrics {:.2} / free {:.2} MB;\n\
         free-vs-metrics gap: OCI {:.2} MB vs runwasi {:.2} MB — the external shim is\n\
         exactly the memory the metrics-server cannot see",
        mb(oci.metrics_avg),
        mb(oci.free_per_pod),
        mb(runwasi.metrics_avg),
        mb(runwasi.free_per_pod),
        mb(oci.free_per_pod - oci.metrics_avg),
        mb(runwasi.free_per_pod - runwasi.metrics_avg),
    );
    Ok(())
}

fn ablations() -> KernelResult<()> {
    let w = ablation_workload();
    ablation_dlopen(&w)?;
    ablation_inplace(&w);
    ablation_module_cache(&w)?;
    ablation_pause(&w)
}

/// One subcommand: its name and the function that runs it.
type Study = (&'static str, fn() -> KernelResult<()>);

const STUDIES: [Study; 4] = [
    ("design-questions", design_questions),
    ("app-impact", app_impact),
    ("wamr-aot", wamr_aot),
    ("ablations", ablations),
];

fn main() {
    let names: Vec<&str> = STUDIES.iter().map(|s| s.0).collect();
    let cli = cli::Cli::parse(USAGE, &names, &[], &[]);
    let Some(&(name, run)) = STUDIES.iter().find(|s| Some(s.0) == cli.command.as_deref()) else {
        cli::usage_exit(USAGE, "which study?")
    };
    if let Err(e) = run() {
        eprintln!("{name}: {e}");
        std::process::exit(1);
    }
}
