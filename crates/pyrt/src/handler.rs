//! The Python container handler and CPython footprint profile.
//!
//! Runs `.py` entrypoints inside the container process: the script is read
//! off the simulated filesystem, lexed, parsed, and executed by the real
//! mini-interpreter in this crate. Memory is charged with CPython-scale
//! constants (interpreter arenas, imported module dicts, code objects
//! proportional to the real AST size), and latency steps follow CPython's
//! cold-start shape (binary exec, interpreter init, per-import work,
//! parse, execute).
//!
//! The *host* parses and runs each distinct script once per process
//! ([`scripts`], the same record `engines::exec` keeps of Wasm guests);
//! every container is still charged for both, from the outcome.

use bytelite::Bytes;
use container_runtimes::handler::{ContainerHandler, HandlerOutcome};
use oci_spec_lite::{Bundle, ProcessSpec, RuntimeSpec};
use simkernel::image::{charge_anon, charge_cpu, watchdog_ticks, ProcessImage};
use simkernel::{Duration, Kernel, KernelError, KernelResult, Phase, Pid, Replay, Step, StepTrace};

use crate::interp::{Interp, PyEpochClock, PyError, PyStats};
use crate::parser::parse;

/// Interpreter ops per epoch tick — the granularity at which the watchdog
/// deadline is checked (mirrors `engines::EPOCH_TICK_INSTRS` for Wasm).
pub const PY_EPOCH_TICK_OPS: u64 = 1_000;

/// CPython 3.10-scale footprint constants.
#[derive(Debug, Clone)]
pub struct PythonProfile {
    pub(crate) binary_path: &'static str,
    /// python3 binary + libpython, modeled as one mappable object.
    pub(crate) binary_size: u64,
    pub(crate) binary_resident_fraction: f64,
    /// Private interpreter heap after `Py_Initialize` (object arenas,
    /// interned strings, builtins, site).
    pub(crate) init_heap: u64,
    /// Private bytes per imported stdlib module (module dict, code objects).
    pub(crate) per_import: u64,
    /// Page-cache bytes read per stdlib import (the .py/.pyc files).
    pub(crate) stdlib_read_per_import: u64,
    /// Bytes per AST node for compiled code objects.
    pub(crate) bytes_per_ast_node: u64,
    /// Bytes per tracked interpreter allocation.
    pub(crate) bytes_per_alloc: u64,
    /// Interpreter initialization latency.
    pub(crate) init: Duration,
    /// Latency per import (stat + read + compile of stdlib modules).
    pub(crate) import_each: Duration,
    /// Parse cost per AST node.
    pub(crate) parse_ns_per_node: u64,
    /// Execution cost per interpreter op.
    pub exec_ns_per_op: u64,
}

/// Default profile, calibrated to CPython 3.10 on the paper's testbed.
pub static PYTHON: PythonProfile = PythonProfile {
    binary_path: "/usr/bin/python3",
    binary_size: 23 << 20,
    binary_resident_fraction: 0.35,
    init_heap: 4_150 << 10,
    per_import: 220 << 10,
    stdlib_read_per_import: 160 << 10,
    bytes_per_ast_node: 160,
    bytes_per_alloc: 56,
    init: Duration::from_micros(30_000),
    import_each: Duration::from_micros(3_500),
    parse_ns_per_node: 900,
    exec_ns_per_op: 15_000,
};

/// Install the Python binary (and a stdlib marker tree) into the VFS.
pub fn install_python(kernel: &Kernel) -> KernelResult<()> {
    kernel.ensure_file(
        PYTHON.binary_path,
        simkernel::vfs::FileContent::Synthetic(PYTHON.binary_size),
    )?;
    // Stdlib modules the interpreter can import.
    for module in ["sys", "os", "time", "math", "json"] {
        let path = format!("/usr/lib/python3.10/{module}.py");
        kernel.ensure_file(
            &path,
            simkernel::vfs::FileContent::Synthetic(PYTHON.stdlib_read_per_import),
        )?;
    }
    Ok(())
}

/// Every input a script can see: the key its outcome is recorded under.
/// [`Interp`] holds no handle to the kernel or a clock, so unlike a Wasm
/// guest a script has no road to anything else.
#[derive(Debug, Clone, Copy)]
pub struct ScriptInputs<'a> {
    pub source: &'a Bytes,
    /// `sys.argv` and `os.getenv` are functions of its `args` and `env`,
    /// the two fields the key holds.
    pub process: &'a ProcessSpec,
    /// The watchdog deadline in ticks of [`PY_EPOCH_TICK_OPS`] ops, the
    /// pod's `cpu.max` folded in.
    pub deadline: Option<u64>,
}

/// [`ScriptInputs`], owned: what an entry of [`scripts`] is filed under.
#[derive(Debug)]
pub struct ScriptKey {
    source: Bytes,
    args: Vec<String>,
    env: Vec<String>,
    deadline: Option<u64>,
}

impl PartialEq<ScriptKey> for ScriptInputs<'_> {
    fn eq(&self, k: &ScriptKey) -> bool {
        self.deadline == k.deadline
            && *self.source == k.source
            && self.process.args == k.args
            && self.process.env == k.env
    }
}

impl From<&ScriptInputs<'_>> for ScriptKey {
    fn from(i: &ScriptInputs<'_>) -> ScriptKey {
        ScriptKey {
            source: i.source.clone(),
            args: i.process.args.clone(),
            env: i.process.env.clone(),
            deadline: i.deadline,
        }
    }
}

/// What a start does on first sight: everything [`PythonHandler`] charges
/// a container for.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptOutcome {
    /// AST nodes of the parsed script.
    pub(crate) nodes: u64,
    /// What the run came to: the exit code (`sys.exit` or falling off the
    /// end), [`PyError::Interrupted`] at the watchdog deadline, or an
    /// uncaught error.
    pub(crate) end: Result<i32, PyError>,
    pub(crate) stats: PyStats,
    pub(crate) stdout: Bytes,
    /// Modules imported, in order.
    pub(crate) imported: Vec<String>,
}

/// The process-wide record of what each distinct script does; `clear()`
/// for tests that reset process-wide state.
pub fn scripts() -> &'static Replay<ScriptKey, ScriptOutcome> {
    static SCRIPTS: Replay<ScriptKey, ScriptOutcome> = Replay::new();
    &SCRIPTS
}

/// Really parse and run the script, and report what that did. It charges
/// nothing and takes no part in choosing between executing and replaying.
///
/// `Err` only when the script is not a program (not UTF-8, does not
/// parse): nothing ran, and there is no outcome to record.
pub fn execute_script(inputs: &ScriptInputs<'_>) -> KernelResult<ScriptOutcome> {
    let source = std::str::from_utf8(inputs.source)
        .map_err(|_| KernelError::InvalidState("script is not UTF-8".into()))?;
    let program =
        parse(source).map_err(|e| KernelError::InvalidState(format!("python parse: {e}")))?;
    let process = inputs.process;
    let argv = process.args.iter().skip_while(|a| a.contains("python")).cloned().collect();
    let mut interp = Interp::new(argv, process.env_pairs());
    if let Some(ticks) = inputs.deadline {
        interp = interp.with_epoch(PyEpochClock::new(), ticks, PY_EPOCH_TICK_OPS);
    }
    let end = match interp.run(&program) {
        Err(PyError::Exit(code)) => Ok(code),
        end => end,
    };
    Ok(ScriptOutcome {
        nodes: program.node_count() as u64,
        end,
        stats: interp.stats(),
        imported: interp.imported_modules().to_vec(),
        stdout: Bytes::from(std::mem::take(&mut interp.stdout)),
    })
}

/// Handler executing `python3 <script.py>` containers, charged by the
/// [`PYTHON`] profile; a script runs under [`Interp`]'s op budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct PythonHandler;

impl PythonHandler {
    fn script_path(spec: &RuntimeSpec) -> Option<&str> {
        let args = &spec.process.args;
        match args.first().map(String::as_str) {
            Some(a) if a.contains("python") => args.get(1).map(String::as_str),
            Some(a) if a.ends_with(".py") => Some(a),
            _ => None,
        }
    }
}

impl ContainerHandler for PythonHandler {
    fn name(&self) -> &'static str {
        "python"
    }

    fn matches(&self, spec: &RuntimeSpec, _bundle: &Bundle) -> bool {
        Self::script_path(spec).is_some()
    }

    fn in_process(&self) -> bool {
        false // python3 is exec()ed; crun's image is replaced
    }

    fn execute(
        &self,
        kernel: &Kernel,
        pid: Pid,
        bundle: &Bundle,
        spec: &RuntimeSpec,
    ) -> KernelResult<HandlerOutcome> {
        let p = &PYTHON;
        let mut trace = StepTrace::new();

        // Exec python3: binary text shared (cold read once per node) plus
        // the interpreter init heap.
        let resident = (p.binary_size as f64 * p.binary_resident_fraction) as u64;
        let image = ProcessImage::attach(kernel, pid)
            .text(p.binary_path, p.binary_size, resident, "python3")
            .heap(p.init_heap, "py-heap")
            .build()?;
        if let Some(io) = image.cold_read_step() {
            trace.push(Phase::EngineInit, io);
        }
        trace.push(Phase::EngineInit, Step::Cpu(p.init));

        // Load the script from the bundle rootfs.
        let script_guest = Self::script_path(spec)
            .ok_or_else(|| KernelError::InvalidState("no python script in args".into()))?;
        let script_file = bundle
            .resolve(script_guest)
            .ok_or_else(|| KernelError::PathNotFound(script_guest.to_string()))?;
        let source = kernel
            .read_file(pid, script_file)?
            .ok_or_else(|| KernelError::InvalidState("script has no content".into()))?;

        // Watchdog: convert the annotated time budget to op ticks through
        // the same execution model the Exec step below charges with, under
        // the pod's cpu.max like any other guest.
        let deadline = match spec.watchdog_budget_ns() {
            Some(ns) => {
                let ns_per_tick = p.exec_ns_per_op.max(1) * PY_EPOCH_TICK_OPS;
                Some(watchdog_ticks(kernel, pid, Duration::from_nanos(ns), ns_per_tick)?)
            }
            None => None,
        };
        // Parse and execute (real) — once per distinct script per process;
        // everything below is charged from the outcome, per container.
        let inputs = ScriptInputs { source: &source, process: &spec.process, deadline };
        let outcome = scripts().outcome(&inputs, || execute_script(&inputs).map(|o| (o, true)))?;

        // Code objects.
        let nodes = outcome.nodes;
        trace.push(Phase::Compile, Step::Cpu(Duration::from_nanos(nodes * p.parse_ns_per_node)));
        let code_bytes = (nodes * p.bytes_per_ast_node).max(4096);
        charge_anon(kernel, pid, code_bytes, "py-code")?;

        // An epoch interruption is a wedged success, not an error: the
        // interpreter is hung, its memory stays charged, and the container
        // reaches Running — probes are how the kubelet finds out.
        let mut interrupted = false;
        let exit_code = match &outcome.end {
            Ok(code) => *code,
            Err(PyError::Interrupted) => {
                interrupted = true;
                0
            }
            Err(e) => return Err(KernelError::InvalidState(format!("python runtime: {e}"))),
        };
        let stats = outcome.stats;
        let exec_cpu = Duration::from_nanos(stats.ops * p.exec_ns_per_op);
        trace.push(Phase::Exec, Step::Cpu(exec_cpu));
        // The interpreter's ops are guest CPU like a Wasm guest's
        // instructions: charged to the pod's quota, throttle sleep appended.
        charge_cpu(kernel, pid, exec_cpu, &mut trace)?;

        // Imports: stdlib reads (shared page cache) + private module dicts.
        for module in &outcome.imported {
            let path = format!("/usr/lib/python3.10/{module}.py");
            if let Ok(f) = kernel.lookup(&path) {
                let cold = kernel.file_cached(f)? == 0;
                kernel.read_file(pid, f)?;
                if cold {
                    trace.push(Phase::ModuleLoad, Step::disk_read(p.stdlib_read_per_import));
                }
            }
            trace.push(Phase::ModuleLoad, Step::Cpu(p.import_each));
            charge_anon(kernel, pid, p.per_import, "py-module")?;
        }

        // Object heap growth from real allocation counts.
        let heap_growth = (stats.allocs * p.bytes_per_alloc).max(4096);
        charge_anon(kernel, pid, heap_growth, "py-objects")?;

        Ok(HandlerOutcome {
            trace,
            stdout: outcome.stdout.to_vec(),
            exit_code,
            interrupted,
            epoch_clock: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oci_spec_lite::{ImageBuilder, ImageStore};
    use simkernel::{Kernel, KernelConfig};

    /// Page-cache bytes, the `buff/cache` column of `free`.
    fn page_cache(kernel: &Kernel) -> u64 {
        let free = kernel.free();
        free.used_with_cache() - free.used
    }

    const SCRIPT: &str = "\
import sys
import time

total = 0
for i in range(1000):
    total = total + i
print(\"service ready\", total)
";

    fn setup() -> (Kernel, Bundle, RuntimeSpec) {
        setup_script(SCRIPT)
    }

    fn setup_script(script: &str) -> (Kernel, Bundle, RuntimeSpec) {
        let kernel = Kernel::boot(KernelConfig::default());
        install_python(&kernel).unwrap();
        let mut store = ImageStore::new();
        let image = store
            .register(
                &kernel,
                ImageBuilder::new("python:3.10-slim")
                    .entrypoint(["/usr/bin/python3".to_string(), "/app/svc.py".to_string()])
                    .file("/app/svc.py", script.as_bytes().to_vec()),
            )
            .unwrap()
            .clone();
        let spec = RuntimeSpec::for_command("py-1", image.command());
        let bundle = Bundle::create(&kernel, "py-1", &image, &spec).unwrap();
        (kernel, bundle, spec)
    }

    /// A loop over 2^40 values under a 50 ms watchdog budget: the
    /// interpreter walks the range one value at a time, so the watchdog,
    /// not the host allocator, ends it, and the container comes up wedged.
    #[test]
    fn a_huge_range_under_a_watchdog_is_a_wedged_container() {
        let (kernel, bundle, mut spec) =
            setup_script("print(\"spinning\")\nfor i in range(1099511627776):\n    x = i\n");
        spec.annotations.insert(
            oci_spec_lite::WATCHDOG_BUDGET_ANNOTATION.to_string(),
            Duration::from_millis(50).as_nanos().to_string(),
        );
        let cg = kernel.cgroup_create(Kernel::ROOT_CGROUP, "pod").unwrap();
        let pid = ProcessImage::spawn(&kernel, "py", cg).build().unwrap().detach();
        let out = PythonHandler.execute(&kernel, pid, &bundle, &spec).unwrap();
        assert!(out.interrupted, "the watchdog stopped it");
        assert_eq!((out.exit_code, out.stdout.as_slice()), (0, &b"spinning\n"[..]));
    }

    #[test]
    fn matches_python_entrypoints() {
        let (_k, bundle, spec) = setup();
        let h = PythonHandler;
        assert!(h.matches(&spec, &bundle));
        let wasm_spec = RuntimeSpec::for_command("c", vec!["/app/m.wasm".to_string()]);
        assert!(!h.matches(&wasm_spec, &bundle));
        let script_direct = RuntimeSpec::for_command("c", vec!["/app/svc.py".to_string()]);
        assert!(h.matches(&script_direct, &bundle));
    }

    #[test]
    fn executes_the_script_for_real() {
        let (kernel, bundle, spec) = setup();
        let cg = kernel.cgroup_create(Kernel::ROOT_CGROUP, "pod").unwrap();
        let pid = ProcessImage::spawn(&kernel, "py", cg).build().unwrap().detach();
        let h = PythonHandler;
        let out = h.execute(&kernel, pid, &bundle, &spec).unwrap();
        assert_eq!(out.exit_code, 0);
        assert_eq!(out.stdout, b"service ready 499500\n");
        // CPython-scale private footprint.
        let anon = kernel.cgroup_stat(cg).unwrap().anon_bytes;
        assert!(anon > 4 << 20, "private heap {anon}");
        // Binary pages shared, not private.
        assert!(page_cache(&kernel) > 4 << 20);
    }

    #[test]
    fn second_container_shares_binary_and_stdlib() {
        let (kernel, bundle, spec) = setup();
        let h = PythonHandler;
        let cg1 = kernel.cgroup_create(Kernel::ROOT_CGROUP, "a").unwrap();
        let p1 = ProcessImage::spawn(&kernel, "py1", cg1).build().unwrap().detach();
        h.execute(&kernel, p1, &bundle, &spec).unwrap();
        let cache_after_one = page_cache(&kernel);
        let cg2 = kernel.cgroup_create(Kernel::ROOT_CGROUP, "b").unwrap();
        let p2 = ProcessImage::spawn(&kernel, "py2", cg2).build().unwrap().detach();
        let out2 = h.execute(&kernel, p2, &bundle, &spec).unwrap();
        assert_eq!(page_cache(&kernel), cache_after_one, "no new cache");
        assert!(
            !out2.trace.steps().iter().any(|s| matches!(s, Step::Io(_))),
            "warm start has no I/O"
        );
    }

    #[test]
    fn missing_script_is_an_error() {
        let (kernel, bundle, mut spec) = setup();
        spec.process.args = vec!["/usr/bin/python3".to_string(), "/app/ghost.py".to_string()];
        let pid = ProcessImage::spawn(&kernel, "py", Kernel::ROOT_CGROUP).build().unwrap().detach();
        let h = PythonHandler;
        assert!(matches!(
            h.execute(&kernel, pid, &bundle, &spec),
            Err(KernelError::PathNotFound(_))
        ));
    }

    #[test]
    fn sys_exit_code_propagates() {
        let kernel = Kernel::boot(KernelConfig::default());
        install_python(&kernel).unwrap();
        let mut store = ImageStore::new();
        let image = store
            .register(
                &kernel,
                ImageBuilder::new("exit:v1")
                    .entrypoint(["/usr/bin/python3".to_string(), "/app/e.py".to_string()])
                    .file("/app/e.py", &b"import sys\nsys.exit(7)\n"[..]),
            )
            .unwrap()
            .clone();
        let spec = RuntimeSpec::for_command("e", image.command());
        let bundle = Bundle::create(&kernel, "e", &image, &spec).unwrap();
        let pid = ProcessImage::spawn(&kernel, "py", Kernel::ROOT_CGROUP).build().unwrap().detach();
        let out = PythonHandler.execute(&kernel, pid, &bundle, &spec).unwrap();
        assert_eq!(out.exit_code, 7);
    }
}
