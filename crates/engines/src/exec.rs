//! End-to-end Wasm execution inside a simulated container process.
//!
//! A guest starts in two stages. [`load_engine`], once per process, dlopens
//! the engine library and pays the embedding's baseline; [`run_module`],
//! once per guest, performs the *real* pipeline — read module bytes from
//! the VFS, decode, validate, (eagerly compile), instantiate with WASI, run
//! `_start` — while charging every resident byte to the process in the
//! simulated kernel and emitting the DES latency steps each stage costs.
//! [`execute_wasm_opts`] is "load, then run", what the container runtimes
//! (crun handlers) and the runwasi shims call; a sandbox process hosting
//! many guests loads once. The figures fall out of what the two charge.
//!
//! The *host* runs each distinct guest once per process: [`run_module`]
//! asks [`guests`] what the guest with these [`GuestInputs`] does, which
//! calls [`execute_guest`] on first sight and hands the recorded
//! [`GuestOutcome`] to every later start. The simulated cost is charged
//! from the outcome, per container, on every start.

use std::sync::Arc;

use bytelite::Bytes;
use simkernel::image::{
    charge_anon, charge_cpu, map_cow, map_shared, watchdog_ticks, ProcessImage, Rollback,
};
use simkernel::{Duration, FileId, Kernel, KernelResult, Phase, Pid, Replay, Step, StepTrace};
use wasi_sys::WasiCtx;
use wasm_core::{
    ArtifactCache, EpochClock, EpochConfig, ExecStats, ExecTier, Instance, InstanceConfig, Module,
    Trap,
};

use crate::profile::{EngineKind, EngineProfile};

/// Dynamic-linker cost per KiB of library mapped.
const LINK_NS_PER_KIB: u64 = 12;
/// Relocation cost per KiB when loading compiled code from cache.
const RELOC_NS_PER_KIB: u64 = 60;
/// Instructions retired per epoch tick — the granularity at which the
/// engine's (simulated) epoch-ticker thread checks the watchdog deadline.
pub const EPOCH_TICK_INSTRS: u64 = 10_000;

/// WASI configuration extracted from the OCI spec (paper §III-C item 2).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WasiSpec {
    pub args: Vec<String>,
    pub env: Vec<(String, String)>,
    /// (guest path, VFS path prefix) preopened directories.
    pub preopens: Vec<(String, String)>,
}

/// How the engine is embedded: through its stock C API (crun handlers link
/// the shared library with default configuration) or as a trimmed Rust
/// crate (the runwasi shims).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Embedding {
    /// Stock C-API embedding with default configuration.
    #[default]
    CApi,
    /// Trimmed crate embedding (leaner baseline, as runwasi configures).
    Crate,
}

/// Sharing options for [`execute_wasm_opts`] — the ablation knobs for the
/// paper's integration aspects (DESIGN.md `ablation_dlopen`).
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Map the engine library shared (dlopen semantics). When false, the
    /// engine text is charged privately per container, modeling a
    /// statically-linked build whose pages do not share.
    pub share_lib: bool,
    /// Map the module from the page cache. When false, the module bytes are
    /// copied into a private buffer, as engines that slurp the file do.
    pub share_module: bool,
    /// Embedding flavor (baseline/per-instance footprint selection).
    pub embedding: Embedding,
    /// Optional epoch-watchdog budget: the guest-time allowance before the
    /// engine interrupts the run. [`watchdog_ticks`] converts it to epoch
    /// ticks through the profile's execution-time model and the pod's
    /// `cpu.max`, so interruption is deterministic in retired instructions
    /// and a throttled spinner cannot dodge a wall-time deadline. `None`
    /// (the default) runs without a watchdog — the figure paths are
    /// byte-identical.
    pub epoch_budget: Option<Duration>,
    /// Adversarial knob: after `_start`, re-instantiate the module this many
    /// times (a fork-bomb through the real `EngineInstantiate` fault site
    /// and `ArtifactCache`), each instance's overhead staying charged — the
    /// ratchet `memory.max` is there to stop.
    pub instantiate_churn: u32,
    /// Adversarial knob: after `_start`, stream `(file, passes)` cold reads
    /// (self-evict, then re-fault) — the page-cache thrasher. Cold bytes and
    /// io-queue delay become DES steps.
    pub io_churn: Option<(FileId, u32)>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            share_lib: true,
            share_module: true,
            embedding: Embedding::CApi,
            epoch_budget: None,
            instantiate_churn: 0,
            io_churn: None,
        }
    }
}

/// Result of running a module inside a container process.
#[derive(Debug)]
pub struct EngineRun {
    /// Latency steps for the DES startup program, in order, tagged with the
    /// lifecycle phase each belongs to.
    pub trace: StepTrace,
    /// Captured stdout bytes.
    pub stdout: Vec<u8>,
    /// Captured stderr bytes.
    pub stderr: Vec<u8>,
    /// Guest exit code (0 when `_start` returns normally).
    pub exit_code: i32,
    /// Execution statistics from the Wasm core.
    pub stats: ExecStats,
    /// Whether Wasmtime's code cache was hit for this module.
    pub cache_hit: bool,
    /// The guest overstayed its epoch budget and was interrupted: the
    /// container is up (its memory stays charged, the process keeps
    /// running) but wedged — it never reached its ready state. Health
    /// probes are how the layers above discover this.
    pub interrupted: bool,
    /// Watchdog handle when an epoch budget was configured: `interrupt()`
    /// models the engine stopping the guest at its next epoch check.
    pub epoch_clock: Option<EpochClock>,
}

/// Every input a Wasm guest can see: the key its outcome is recorded
/// under. Anything else it can reach is the kernel, through a WASI host
/// function, and a guest that does is never replayed
/// ([`GuestOutcome::observed_world`]).
#[derive(Debug, Clone, Copy)]
pub struct GuestInputs<'a> {
    /// Compared by identity: the artifact cache hands every start of one
    /// module the same `Arc`, and an entry owns a clone, so the address
    /// cannot come to mean another module while the entry lives.
    pub module: &'a Arc<Module>,
    pub tier: ExecTier,
    pub fuel: u64,
    pub max_call_depth: usize,
    /// The watchdog deadline in epoch ticks, and the instructions retired
    /// per tick. [`watchdog_ticks`] has folded the pod's `cpu.max` into
    /// the ticks, so a throttled start and an unthrottled one differ here.
    pub deadline: Option<(u64, u64)>,
    pub wasi: &'a WasiSpec,
}

/// [`GuestInputs`], owned: what an entry of [`guests`] is filed under.
#[derive(Debug)]
pub struct GuestKey {
    module: Arc<Module>,
    tier: ExecTier,
    fuel: u64,
    max_call_depth: usize,
    deadline: Option<(u64, u64)>,
    wasi: WasiSpec,
}

impl PartialEq<GuestKey> for GuestInputs<'_> {
    fn eq(&self, k: &GuestKey) -> bool {
        Arc::ptr_eq(self.module, &k.module)
            && self.tier == k.tier
            && self.fuel == k.fuel
            && self.max_call_depth == k.max_call_depth
            && self.deadline == k.deadline
            && *self.wasi == k.wasi
    }
}

impl From<&GuestInputs<'_>> for GuestKey {
    fn from(i: &GuestInputs<'_>) -> GuestKey {
        GuestKey {
            module: Arc::clone(i.module),
            tier: i.tier,
            fuel: i.fuel,
            max_call_depth: i.max_call_depth,
            deadline: i.deadline,
            wasi: i.wasi.clone(),
        }
    }
}

/// What a start does on first sight: everything [`run_module`] charges a
/// container for, so that a later start of the same guest is charged from
/// this and the host does not run it again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuestOutcome {
    /// What `_start` came to: returned, `Err(Trap::Exit(code))`,
    /// `Err(Trap::Interrupted)` at the watchdog deadline, or a hard trap.
    pub end: Result<(), Trap>,
    pub stats: ExecStats,
    pub stdout: Bytes,
    pub stderr: Bytes,
    /// Size of the linear memory when the run ended (0 without one).
    pub memory_bytes: u64,
    /// The watchdog clock's reading when the run ended, `None` without a
    /// deadline.
    pub epoch: Option<u64>,
    /// The guest reached the kernel through WASI — read a file, opened a
    /// path, asked the time — so this is what it did *this* time, a
    /// function of more than its [`GuestInputs`]; it is never recorded.
    pub observed_world: bool,
}

/// The process-wide record of what each distinct guest does, shared by
/// every cluster and worker thread. One entry per distinct guest ever
/// started, pinning its module as the artifact cache pins the buffer;
/// after [`ArtifactCache::clear`] a module is decoded into a new `Arc`,
/// misses here and is executed again. `clear()` for tests that reset
/// process-wide state.
pub fn guests() -> &'static Replay<GuestKey, GuestOutcome> {
    static GUESTS: Replay<GuestKey, GuestOutcome> = Replay::new();
    &GUESTS
}

/// Really run the guest as `pid`: build its WASI context, instantiate,
/// run `_start`, and report what that did. It charges nothing and takes no
/// part in choosing between executing and replaying — [`run_module`] does
/// both around it, and a test that needs a real execution calls this.
///
/// `Err` only when the module cannot be instantiated (an import nobody
/// provides): the guest never started, and there is no outcome to record.
pub fn execute_guest(
    kernel: &Kernel,
    pid: Pid,
    inputs: &GuestInputs<'_>,
) -> KernelResult<GuestOutcome> {
    let wasi = inputs.wasi;
    let mut ctx = WasiCtx::new(kernel.clone(), pid)
        .args(wasi.args.iter().cloned())
        .envs(wasi.env.iter().cloned());
    for (guest, host) in &wasi.preopens {
        ctx = ctx.preopen(guest.clone(), host.clone());
    }
    let stdout = ctx.stdout_handle();
    let stderr = ctx.stderr_handle();
    let world = ctx.world_mark();

    let config = InstanceConfig {
        tier: inputs.tier,
        fuel: Some(inputs.fuel),
        epoch: inputs.deadline.map(|(deadline, tick_instrs)| EpochConfig {
            clock: EpochClock::new(),
            deadline,
            tick_instrs,
        }),
        max_call_depth: inputs.max_call_depth,
    };
    // The cache validated the module on insertion; skip re-validating per
    // container.
    let mut inst =
        Instance::instantiate_prevalidated(Arc::clone(inputs.module), ctx.into_imports(), config)
            .map_err(|e| simkernel::KernelError::InvalidState(format!("instantiate: {e}")))?;
    let end = inst.run_start();
    let stdout = Bytes::from(stdout.take());
    let stderr = Bytes::from(stderr.take());
    Ok(GuestOutcome {
        end,
        stats: inst.stats(),
        stdout,
        stderr,
        memory_bytes: inst.memory().map_or(0, |m| m.size_bytes() as u64),
        epoch: inst.epoch_clock().map(|c| c.now()),
        observed_world: world.observed(),
    })
}

/// Install the four engine shared libraries (and the Wasmtime cache
/// directory marker) into the VFS. Idempotent.
pub fn install_engines(kernel: &Kernel) -> KernelResult<()> {
    for kind in EngineKind::ALL {
        let p = kind.profile();
        kernel.ensure_file(p.lib_path, simkernel::vfs::FileContent::Synthetic(p.lib_size))?;
    }
    Ok(())
}

/// What [`load_engine`] hands [`run_module`]: the engine this process
/// loaded and what one instance costs under the embedding it was loaded
/// with, so the two stages cannot disagree about the embedding.
#[derive(Debug, Clone, Copy)]
pub struct LoadedEngine<'p> {
    profile: &'p EngineProfile,
    per_instance: u64,
}

/// Execute `module_file` with engine `profile` inside process `pid`:
/// [`load_engine`], then [`run_module`].
///
/// All resident memory is charged to `pid`'s cgroup via the kernel; the
/// mappings stay alive after this returns (the container keeps running).
/// The returned steps describe the startup latency contribution.
///
/// Note on concurrency: page-cache state is applied at deploy order, so of
/// N simultaneously starting containers the first pays the cold-read I/O
/// and the rest hit the cache — a close approximation of N readers blocking
/// on one fill.
pub fn execute_wasm_opts(
    kernel: &Kernel,
    pid: Pid,
    profile: &EngineProfile,
    module_file: FileId,
    wasi: &WasiSpec,
    fuel: u64,
    opts: ExecOptions,
) -> KernelResult<EngineRun> {
    let (engine, trace) = load_engine(kernel, pid, profile, opts)?;
    run_module(kernel, pid, engine, module_file, wasi, fuel, opts, trace)
}

/// Stage one, once per process (paper §III-C aspect 1): dlopen the engine
/// library and pay link cost, the embedding's baseline heap, init CPU and
/// load I/O. Returns the value [`run_module`] takes and the steps this cost.
///
/// On `Err` the process is left as it was found — whatever the stage
/// mapped is unmapped again — so one that outlives the failure (a sandbox)
/// can simply call again.
pub fn load_engine<'p>(
    kernel: &Kernel,
    pid: Pid,
    profile: &'p EngineProfile,
    opts: ExecOptions,
) -> KernelResult<(LoadedEngine<'p>, StepTrace)> {
    let rollback = Rollback::arm(kernel, pid)?;
    let mut trace = StepTrace::new();

    // --- dlopen the engine library -------------------------------------
    // Shared text with cold-read accounting; the no-sharing ablation maps a
    // private copy whose read is always cold.
    let lib_resident = profile.lib_resident();
    let image = ProcessImage::attach(kernel, pid);
    let image = if opts.share_lib {
        image.text(profile.lib_path, profile.lib_size, lib_resident, profile.name)
    } else {
        image.text_private(profile.lib_path, profile.lib_size, lib_resident, profile.name)
    };
    if let Some(io) = image.build()?.cold_read_step() {
        trace.push(Phase::EngineInit, io);
    }
    trace.push(
        Phase::EngineInit,
        Step::Cpu(Duration::from_nanos(profile.lib_size / 1024 * LINK_NS_PER_KIB)),
    );

    // Engine-private baseline heap (embedding-dependent).
    let (baseline_bytes, per_instance) = match opts.embedding {
        Embedding::CApi => (profile.runtime_baseline, profile.per_instance_overhead),
        Embedding::Crate => (profile.embedded_baseline, profile.embedded_per_instance),
    };
    charge_anon(kernel, pid, baseline_bytes, "engine-heap")?;
    trace.push(Phase::EngineInit, Step::Cpu(profile.init));
    trace.push(
        Phase::EngineInit,
        Step::Io(match opts.embedding {
            Embedding::CApi => profile.load_io,
            Embedding::Crate => profile.embedded_load_io,
        }),
    );
    rollback.commit();
    Ok((LoadedEngine { profile, per_instance }, trace))
}

/// Stage two, once per guest (paper §III-C aspect 3): map and decode the
/// module, learn what the guest does under the fuel budget and the
/// optional watchdog — [`execute_guest`] the first time this process sees
/// it, the recorded [`GuestOutcome`] after — then charge what the run
/// built and the guest CPU it burned. `trace` holds the steps this start has
/// already cost (the engine load's, when the same start paid for it); the
/// guest's follow them in [`EngineRun::trace`].
///
/// On `Err` the process is left as it was found, as for [`load_engine`]. A
/// watchdog interruption is not an `Err`: see [`EngineRun::interrupted`].
#[allow(clippy::too_many_arguments)]
pub fn run_module(
    kernel: &Kernel,
    pid: Pid,
    engine: LoadedEngine<'_>,
    module_file: FileId,
    wasi: &WasiSpec,
    fuel: u64,
    opts: ExecOptions,
    mut trace: StepTrace,
) -> KernelResult<EngineRun> {
    let rollback = Rollback::arm(kernel, pid)?;
    let LoadedEngine { profile, per_instance } = engine;

    // --- load the module -----------------------------------------------
    let module_size = kernel.file_size(module_file)?;
    if opts.share_module {
        if map_shared(kernel, pid, module_file, module_size, module_size, "module.wasm")?.is_some()
        {
            trace.push(Phase::ModuleLoad, Step::disk_read(module_size));
        }
    } else {
        // Ablation: the engine copies the module into a private buffer.
        charge_anon(kernel, pid, module_size, "module-copy")?;
        trace.push(Phase::ModuleLoad, Step::disk_read(module_size));
    }
    let bytes: Bytes = kernel
        .read_file(pid, module_file)?
        .ok_or_else(|| simkernel::KernelError::InvalidState("module has no content".into()))?;

    // Decode + validate through the process-wide artifact cache: the host
    // decodes and validates each distinct module once and shares the
    // result across containers, clusters, and worker threads. The
    // *simulated* validation cost is unchanged — still charged here, per
    // container, for every engine. The cache addresses the module by its
    // contents; `module_key` is that address, what Wasmtime names its
    // compiled artifact after.
    let (module_key, module) = ArtifactCache::global()
        .get_or_decode_keyed(&bytes)
        .map_err(|e| simkernel::KernelError::InvalidState(format!("bad module: {e}")))?;
    trace.push(
        Phase::ModuleLoad,
        Step::Cpu(Duration::from_nanos(module_size * profile.validate_ns_per_byte)),
    );

    // --- instantiate and run `_start` -------------------------------------
    // Fault choke point: a transient engine-instantiation failure (resource
    // exhaustion, linker race) surfaces here, before any instance state is
    // built, so a retry of the whole pipeline can succeed. Ahead of the
    // record below: a plan fires on a start that would have been replayed.
    kernel.inject_fault(simkernel::FaultSite::EngineInstantiate)?;
    // Epoch watchdog: the time budget becomes deadline ticks through the
    // same execution-time model the Exec step below charges with, scaled
    // by the pod's cpu.max.
    let ns_per_tick = profile.exec_ns_per_instr.max(1) * EPOCH_TICK_INSTRS;
    let deadline = match opts.epoch_budget {
        Some(budget) => {
            Some((watchdog_ticks(kernel, pid, budget, ns_per_tick)?, EPOCH_TICK_INSTRS))
        }
        None => None,
    };
    let inputs = GuestInputs {
        module: &module,
        tier: profile.tier,
        fuel,
        max_call_depth: 1024,
        deadline,
        wasi,
    };
    // The host executes each distinct guest once and keeps the outcome;
    // everything below is charged from it, per container, whether it was
    // computed just now or for an earlier start. A guest that looked at
    // the kernel is executed every time.
    let outcome = guests().outcome(&inputs, || {
        execute_guest(kernel, pid, &inputs).map(|o| {
            let replayable = !o.observed_world;
            (o, replayable)
        })
    })?;
    let stats = outcome.stats;
    trace.push(Phase::Instantiate, Step::Cpu(profile.instantiate));

    // An epoch interruption is NOT an error: the guest is wedged, not gone.
    // Its pages stay charged and the container stays up, exactly like a
    // real hung process — detection is the health probes' job. Fuel
    // exhaustion stays a hard error (the figure paths' backstop).
    let mut interrupted = false;
    let exit_code = match &outcome.end {
        Ok(()) => 0,
        Err(Trap::Exit(code)) => *code,
        Err(Trap::Interrupted) => {
            interrupted = true;
            0
        }
        Err(t) => return Err(simkernel::KernelError::InvalidState(format!("guest trapped: {t}"))),
    };
    let mut exec_cpu = Duration::from_nanos(stats.instrs_retired * profile.exec_ns_per_instr);
    trace.push(Phase::Exec, Step::Cpu(exec_cpu));

    // --- charge what the run actually built -----------------------------
    let mut cache_hit = false;
    if profile.eager_compile() {
        let code_bytes = (stats.lowered_bytes as f64 * profile.code_metadata_factor) as u64;
        if profile.code_cache {
            let cache_path = format!("{}/{module_key:016x}.cwasm", profile.cache_dir);
            match kernel.lookup(&cache_path) {
                Ok(artifact) => {
                    // Cache hit: skip compilation, pay artifact load +
                    // relocation. Relocation COW-writes the code pages, so
                    // they end up private anon — the artifact mapping IS the
                    // code memory (only the metadata share is charged
                    // separately below).
                    cache_hit = true;
                    if map_cow(kernel, pid, artifact, stats.lowered_bytes, "code-cache")?.is_some()
                    {
                        trace.push(Phase::Compile, Step::disk_read(stats.lowered_bytes));
                    }
                    trace.push(
                        Phase::Compile,
                        Step::Cpu(Duration::from_nanos(
                            stats.lowered_bytes / 1024 * RELOC_NS_PER_KIB,
                        )),
                    );
                }
                Err(_) => {
                    trace.push(
                        Phase::Compile,
                        Step::Cpu(Duration::from_nanos(module_size * profile.compile_ns_per_byte)),
                    );
                    kernel.create_file(
                        &cache_path,
                        simkernel::vfs::FileContent::Synthetic(stats.lowered_bytes),
                    )?;
                }
            }
        } else {
            trace.push(
                Phase::Compile,
                Step::Cpu(Duration::from_nanos(module_size * profile.compile_ns_per_byte)),
            );
        }
        // On a cache hit the raw code bytes already live in the COW'd
        // artifact mapping; only the codegen metadata share remains.
        let anon_code =
            if cache_hit { code_bytes.saturating_sub(stats.lowered_bytes) } else { code_bytes };
        charge_anon(kernel, pid, anon_code.max(4096), "jit-code")?;
    } else {
        // In-place interpretation: only the control side-tables.
        if stats.side_table_bytes > 0 {
            charge_anon(kernel, pid, stats.side_table_bytes, "side-tables")?;
        }
    }

    // Instance overhead + linear memory (as large as the guest left it).
    charge_anon(kernel, pid, per_instance, "instance-meta")?;
    if outcome.memory_bytes > 0 {
        charge_anon(kernel, pid, outcome.memory_bytes, "linear-memory")?;
    }

    // --- adversarial churn (isolation harness only) ----------------------
    // Instantiation fork-bomb: each spin goes through the real choke points
    // — the EngineInstantiate fault site, the shared ArtifactCache, a real
    // instantiation — and leaves the per-instance overhead charged, so the
    // only thing standing between the churn and the node is memory.max.
    for _ in 0..opts.instantiate_churn {
        kernel.inject_fault(simkernel::FaultSite::EngineInstantiate)?;
        let spare = ArtifactCache::global()
            .get_or_decode(&bytes)
            .map_err(|e| simkernel::KernelError::InvalidState(format!("bad module: {e}")))?;
        let churn_cfg =
            InstanceConfig { tier: profile.tier, fuel: Some(0), epoch: None, max_call_depth: 1024 };
        let imports = WasiCtx::new(kernel.clone(), pid).into_imports();
        Instance::instantiate_prevalidated(spare, imports, churn_cfg)
            .map_err(|e| simkernel::KernelError::InvalidState(format!("instantiate: {e}")))?;
        trace.push(Phase::Exec, Step::Cpu(profile.instantiate));
        exec_cpu = exec_cpu.saturating_add(profile.instantiate);
        charge_anon(kernel, pid, per_instance, "churn-instance")?;
    }
    // Page-cache thrasher: stream the file cold, over and over. Each pass
    // self-evicts, then re-faults through the kernel's full cold-read path —
    // io budget accounting, backlog queueing, and (with an armed IoModel)
    // displacement of the neighbors' warm cache.
    if let Some((stream, passes)) = opts.io_churn {
        for _ in 0..passes {
            kernel.evict_file(stream)?;
            let (cold, queued) = kernel.read_file_cold(pid, stream)?;
            if cold > 0 {
                trace.push(Phase::Exec, Step::disk_read(cold));
            }
            if queued > 0 {
                trace.push(Phase::Exec, Step::Io(Duration::from_nanos(queued)));
            }
        }
    }

    // --- cpu.max throttling ----------------------------------------------
    // Every guest is charged, whichever process hosts it.
    charge_cpu(kernel, pid, exec_cpu, &mut trace)?;

    rollback.commit();
    // A watchdog handle of this container's own, at the reading the run
    // ended on (as `EpochClock::fork` makes one).
    let epoch_clock = outcome.epoch.map(|reading| {
        let clock = EpochClock::new();
        clock.advance(reading);
        clock
    });
    Ok(EngineRun {
        trace,
        stdout: outcome.stdout.to_vec(),
        stderr: outcome.stderr.to_vec(),
        exit_code,
        stats,
        cache_hit,
        interrupted,
        epoch_clock,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::{Kernel, KernelConfig};
    use wasm_core::{FuncType, ModuleBuilder, ValType};

    /// Minimal WASI microservice: print a line, spin a bounded loop, exit 0.
    fn microservice_bytes() -> Vec<u8> {
        let mut b = ModuleBuilder::new();
        let fd_write = b.import_func(
            "wasi_snapshot_preview1",
            "fd_write",
            FuncType::new(vec![ValType::I32; 4], vec![ValType::I32]),
        );
        let mem = b.memory(1, Some(4));
        b.export_memory("memory", mem);
        b.data(0, &b"service ready\n"[..]);
        b.data(16, &[0u8, 0, 0, 0, 14, 0, 0, 0][..]);
        let start = b.func(FuncType::new(vec![], vec![]), |f| {
            f.i32_const(1).i32_const(16).i32_const(1).i32_const(24).call(fd_write).drop_();
            // Bounded warm-up loop.
            let i = f.local(ValType::I32);
            f.i32_const(5000).local_set(i);
            f.block(wasm_core::types::BlockType::Empty, |f| {
                f.loop_(wasm_core::types::BlockType::Empty, |f| {
                    f.local_get(i).op(wasm_core::Instruction::I32Eqz).br_if(1);
                    f.local_get(i).i32_const(1).op(wasm_core::Instruction::I32Sub).local_set(i);
                    f.br(0);
                });
            });
        });
        b.export_func("_start", start);
        b.build_bytes()
    }

    fn setup() -> (Kernel, FileId) {
        let kernel = Kernel::boot(KernelConfig::default());
        install_engines(&kernel).unwrap();
        let module = kernel
            .create_file(
                "/images/microservice/app.wasm",
                simkernel::vfs::FileContent::Bytes(Bytes::from(microservice_bytes())),
            )
            .unwrap();
        (kernel, module)
    }

    fn run_one(kernel: &Kernel, module: FileId, kind: EngineKind, name: &str) -> (Pid, EngineRun) {
        let cg = kernel.cgroup_create(Kernel::ROOT_CGROUP, name).unwrap();
        let pid = kernel.spawn(name, cg).unwrap();
        let run = execute_wasm_opts(
            kernel,
            pid,
            kind.profile(),
            module,
            &WasiSpec { args: vec!["app".into()], ..Default::default() },
            100_000_000,
            ExecOptions::default(),
        )
        .unwrap();
        (pid, run)
    }

    #[test]
    fn all_engines_run_the_microservice() {
        let (kernel, module) = setup();
        for kind in EngineKind::ALL {
            let (_, run) = run_one(&kernel, module, kind, kind.profile().name);
            assert_eq!(run.exit_code, 0, "{kind:?}");
            assert_eq!(run.stdout, b"service ready\n", "{kind:?}");
            assert!(run.stats.instrs_retired > 10_000, "{kind:?} ran the loop");
            assert!(!run.trace.is_empty());
        }
    }

    #[test]
    fn wamr_uses_least_memory() {
        let (kernel, module) = setup();
        let mut rss = std::collections::BTreeMap::new();
        for kind in EngineKind::ALL {
            let (pid, _) = run_one(&kernel, module, kind, kind.profile().name);
            // Private footprint: anon bytes only (shared lib discounted).
            let cg = kernel.proc_cgroup(pid).unwrap();
            rss.insert(kind, kernel.cgroup_stat(cg).unwrap().anon_bytes);
        }
        let wamr = rss[&EngineKind::Wamr];
        for kind in [EngineKind::Wasmtime, EngineKind::Wasmer, EngineKind::WasmEdge] {
            assert!(rss[&kind] > wamr * 3, "{kind:?}: {} vs wamr {}", rss[&kind], wamr);
        }
        assert!(rss[&EngineKind::Wasmer] > rss[&EngineKind::Wasmtime]);
    }

    #[test]
    fn library_pages_shared_across_containers() {
        let (kernel, module) = setup();
        let before = kernel.free().buff_cache;
        run_one(&kernel, module, EngineKind::Wamr, "c1");
        let after_one = kernel.free().buff_cache;
        run_one(&kernel, module, EngineKind::Wamr, "c2");
        let after_two = kernel.free().buff_cache;
        assert!(after_one > before, "first container faults the library in");
        assert_eq!(after_one, after_two, "second container adds no cache");
    }

    #[test]
    fn wasmtime_cache_hits_on_second_container() {
        let (kernel, module) = setup();
        let (_, first) = run_one(&kernel, module, EngineKind::Wasmtime, "c1");
        assert!(!first.cache_hit);
        let (_, second) = run_one(&kernel, module, EngineKind::Wasmtime, "c2");
        assert!(second.cache_hit);
        // A hit replaces the big compile CPU step with a small relocation:
        let cpu = |run: &EngineRun| -> u64 {
            run.trace
                .steps()
                .iter()
                .map(|s| match s {
                    Step::Cpu(d) => d.as_nanos(),
                    _ => 0,
                })
                .sum()
        };
        // The saving equals roughly the compile step (other fixed costs —
        // dlopen/link, engine init — are shared by both runs).
        let compile_ns =
            kernel.file_size(module).unwrap() * EngineKind::Wasmtime.profile().compile_ns_per_byte;
        let saved = cpu(&first) - cpu(&second);
        assert!(
            saved > compile_ns / 2,
            "expected ~compile-sized saving: saved {saved}, compile {compile_ns}"
        );
    }

    #[test]
    fn cold_start_pays_io_warm_does_not() {
        let (kernel, module) = setup();
        let (_, first) = run_one(&kernel, module, EngineKind::WasmEdge, "c1");
        let (_, second) = run_one(&kernel, module, EngineKind::WasmEdge, "c2");
        let io = |run: &EngineRun| -> u64 {
            run.trace
                .steps()
                .iter()
                .map(|s| match s {
                    Step::Io(d) => d.as_nanos(),
                    _ => 0,
                })
                .sum()
        };
        // The warm run keeps only the fixed per-container load I/O; the
        // cold run additionally reads the library and module from disk.
        let fixed = EngineKind::WasmEdge.profile().load_io.as_nanos();
        assert!(io(&first) > fixed);
        assert_eq!(io(&second), fixed);
    }

    #[test]
    fn crate_embedding_is_leaner_than_c_api() {
        let (kernel, module) = setup();
        let profile = EngineKind::Wasmtime.profile();
        let run_with = |name: &str, embedding: crate::exec::Embedding| {
            let cg = kernel.cgroup_create(Kernel::ROOT_CGROUP, name).unwrap();
            let pid = kernel.spawn(name, cg).unwrap();
            execute_wasm_opts(
                &kernel,
                pid,
                profile,
                module,
                &WasiSpec::default(),
                100_000_000,
                ExecOptions { embedding, ..Default::default() },
            )
            .unwrap();
            kernel.cgroup_stat(cg).unwrap().anon_bytes
        };
        let capi = run_with("capi", crate::exec::Embedding::CApi);
        let lean = run_with("crate", crate::exec::Embedding::Crate);
        assert!(
            lean + profile.runtime_baseline / 2 < capi,
            "crate embedding {lean} should be far below C API {capi}"
        );
    }

    #[test]
    fn wamr_aot_profile_trades_memory_for_speed() {
        let (kernel, module) = setup();
        let run_profile = |name: &str, profile: &crate::profile::EngineProfile| {
            let cg = kernel.cgroup_create(Kernel::ROOT_CGROUP, name).unwrap();
            let pid = kernel.spawn(name, cg).unwrap();
            let run = execute_wasm_opts(
                &kernel,
                pid,
                profile,
                module,
                &WasiSpec::default(),
                100_000_000,
                ExecOptions::default(),
            )
            .unwrap();
            (kernel.cgroup_stat(cg).unwrap().anon_bytes, run.stats)
        };
        let (interp_mem, interp_stats) = run_profile("wamr-i", &crate::profile::WAMR);
        let (aot_mem, aot_stats) = run_profile("wamr-a", &crate::profile::WAMR_AOT);
        assert!(aot_mem > interp_mem, "AOT carries compiled code: {aot_mem} vs {interp_mem}");
        assert!(aot_stats.lowered_bytes > 0 && interp_stats.lowered_bytes == 0);
        assert!(interp_stats.side_table_bytes > 0 && aot_stats.side_table_bytes == 0);
        // Same logical work either way.
        assert_eq!(aot_stats.host_calls, interp_stats.host_calls);
    }

    /// A guest that prints its ready line and then spins forever — the
    /// hung-microservice shape the watchdog exists for.
    fn hung_service_bytes() -> Vec<u8> {
        let mut b = ModuleBuilder::new();
        let fd_write = b.import_func(
            "wasi_snapshot_preview1",
            "fd_write",
            FuncType::new(vec![ValType::I32; 4], vec![ValType::I32]),
        );
        let mem = b.memory(1, Some(4));
        b.export_memory("memory", mem);
        b.data(0, &b"hung\n"[..]);
        b.data(16, &[0u8, 0, 0, 0, 5, 0, 0, 0][..]);
        let start = b.func(FuncType::new(vec![], vec![]), |f| {
            f.i32_const(1).i32_const(16).i32_const(1).i32_const(24).call(fd_write).drop_();
            f.loop_(wasm_core::types::BlockType::Empty, |f| {
                f.br(0);
            });
        });
        b.export_func("_start", start);
        b.build_bytes()
    }

    #[test]
    fn epoch_budget_interrupts_a_hung_guest_without_leaking() {
        let kernel = Kernel::boot(KernelConfig::default());
        install_engines(&kernel).unwrap();
        let module = kernel
            .create_file(
                "/images/hung/app.wasm",
                simkernel::vfs::FileContent::Bytes(Bytes::from(hung_service_bytes())),
            )
            .unwrap();
        let run_once = |name: &str| {
            let cg = kernel.cgroup_create(Kernel::ROOT_CGROUP, name).unwrap();
            let pid = kernel.spawn(name, cg).unwrap();
            let run = execute_wasm_opts(
                &kernel,
                pid,
                EngineKind::Wamr.profile(),
                module,
                &WasiSpec::default(),
                u64::MAX,
                ExecOptions {
                    epoch_budget: Some(Duration::from_millis(500)),
                    ..Default::default()
                },
            )
            .unwrap();
            (cg, pid, run)
        };
        let (cg, pid, run) = run_once("h1");
        assert!(run.interrupted, "the spin must hit the epoch deadline");
        assert_eq!(run.exit_code, 0, "a wedged guest has not exited");
        assert_eq!(run.stdout, b"hung\n", "output before the hang is kept");
        assert!(run.epoch_clock.is_some(), "watchdog handle retained");
        // The wedged container still owns its memory.
        assert!(kernel.cgroup_stat(cg).unwrap().anon_bytes > 0);

        // Killing the wedged process releases everything it charged
        // (ProcGuard semantics — no simulated-page leak from the trap
        // unwinding mid-loop). Page-cache fills (lib, module) remain, so
        // snapshot after the cold run and require the warm run to return
        // the kernel to exactly that state.
        kernel.exit(pid, 137).unwrap();
        kernel.reap(pid).unwrap();
        kernel.cgroup_remove(cg).unwrap();
        let snapshot = kernel.free().used_with_cache();

        // Determinism: a second identical run traps at the same point.
        let (cg2, pid2, run2) = run_once("h2");
        assert_eq!(run.stats.instrs_retired, run2.stats.instrs_retired);
        kernel.exit(pid2, 137).unwrap();
        kernel.reap(pid2).unwrap();
        kernel.cgroup_remove(cg2).unwrap();
        assert_eq!(kernel.free().used_with_cache(), snapshot, "warm wedged run leaked");
    }

    #[test]
    fn no_epoch_budget_means_no_watchdog() {
        let (kernel, module) = setup();
        let (_, run) = run_one(&kernel, module, EngineKind::Wamr, "plain");
        assert!(!run.interrupted);
        assert!(run.epoch_clock.is_none());
    }

    #[test]
    fn wasi_args_reach_the_guest() {
        // A guest that exits with argc.
        let mut b = ModuleBuilder::new();
        let sizes = b.import_func(
            "wasi_snapshot_preview1",
            "args_sizes_get",
            FuncType::new(vec![ValType::I32; 2], vec![ValType::I32]),
        );
        let exit = b.import_func(
            "wasi_snapshot_preview1",
            "proc_exit",
            FuncType::new(vec![ValType::I32], vec![]),
        );
        let mem = b.memory(1, None);
        b.export_memory("memory", mem);
        let start = b.func(FuncType::new(vec![], vec![]), |f| {
            f.i32_const(0).i32_const(4).call(sizes).drop_();
            f.i32_const(0).i32_load(0).call(exit);
        });
        b.export_func("_start", start);
        let kernel = Kernel::boot(KernelConfig::default());
        install_engines(&kernel).unwrap();
        let module = kernel
            .create_file(
                "/images/argc/app.wasm",
                simkernel::vfs::FileContent::Bytes(Bytes::from(b.build_bytes())),
            )
            .unwrap();
        let pid = kernel.spawn("argc", Kernel::ROOT_CGROUP).unwrap();
        let run = execute_wasm_opts(
            &kernel,
            pid,
            EngineKind::Wamr.profile(),
            module,
            &WasiSpec { args: vec!["app".into(), "-v".into(), "--x".into()], ..Default::default() },
            10_000_000,
            ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(run.exit_code, 3);
    }
}
