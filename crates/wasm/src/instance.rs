//! Module instantiation and invocation.
//!
//! An [`Instance`] owns the runtime state (linear memory and host imports)
//! and executes through one of two tiers:
//!
//! * [`ExecTier::InPlace`] — the WAMR-style classic interpreter
//!   ([`crate::interp`]): executes raw code bytes directly, building only a
//!   small per-function control side-table on first call;
//! * [`ExecTier::Lowered`] — the JIT/AOT-style tier ([`crate::lowered`]):
//!   every function is eagerly compiled at instantiation into a wide,
//!   jump-resolved internal representation that executes faster but costs
//!   compile time and memory.
//!
//! [`ExecStats`] exposes exactly the quantities the engine profiles charge
//! to the simulated kernel: side-table bytes, lowered-code bytes, and
//! retired instructions (the engines' execution-time model).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::interp;
use crate::lowered::{self, LoweredFunc};
use crate::memory::LinearMemory;
use crate::module::Module;
use crate::values::{Slot, Trap, Value};

/// Execution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecTier {
    /// Interpret raw bytecode in place (small, slower per instruction).
    InPlace,
    /// Eagerly lower all functions to internal code (large, faster).
    Lowered,
}

/// A shared epoch counter — the deterministic stand-in for the epoch-ticker
/// thread real engines (wasmtime-style epoch interruption) run beside the
/// guest. The executing instance advances it as instructions retire; any
/// holder of a clone can observe it or force it past every deadline with
/// [`EpochClock::interrupt`], which the guest notices at its next epoch
/// check — exactly the "signal lands at the next safepoint" semantics of
/// the real mechanism, with instruction counts standing in for time.
#[derive(Debug, Clone, Default)]
pub struct EpochClock {
    epoch: Arc<AtomicU64>,
}

impl EpochClock {
    pub fn new() -> EpochClock {
        EpochClock::default()
    }

    /// A clock of its own at this one's reading (a `clone` is another
    /// handle to the *same* clock): what a copy of an embedder's state
    /// retains, so that interrupting the copy's guest leaves this one alone.
    pub fn fork(&self) -> EpochClock {
        EpochClock { epoch: Arc::new(AtomicU64::new(self.now())) }
    }

    /// Current epoch.
    pub fn now(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Advance by `ticks` epochs and return the new value. Saturating, so
    /// an interrupted clock stays interrupted.
    pub fn advance(&self, ticks: u64) -> u64 {
        let now = self.epoch.load(Ordering::Relaxed).saturating_add(ticks);
        self.epoch.store(now, Ordering::Relaxed);
        now
    }

    /// Force the clock past every possible deadline: the guest traps with
    /// `Trap::Interrupted` at its next epoch check.
    pub fn interrupt(&self) {
        self.epoch.store(u64::MAX, Ordering::Relaxed);
    }
}

/// Epoch-interruption settings: a clock shared with the embedder, a
/// deadline, and how many retired instructions one epoch tick represents.
#[derive(Debug, Clone)]
pub struct EpochConfig {
    /// The clock this instance advances and checks. Keep a clone to
    /// interrupt the guest from outside.
    pub clock: EpochClock,
    /// Trap with `Trap::Interrupted` once the clock reaches this epoch.
    pub deadline: u64,
    /// Instructions retired per epoch tick (the check granularity).
    pub tick_instrs: u64,
}

/// Call depth at which both tiers trap with `Trap::StackOverflow`.
pub(crate) const MAX_CALL_DEPTH: usize = 1024;

/// Instantiation/execution options.
#[derive(Debug, Clone)]
pub struct InstanceConfig {
    pub tier: ExecTier,
    /// Optional instruction budget; `Trap::OutOfFuel` when exhausted.
    pub fuel: Option<u64>,
    /// Optional epoch watchdog; `Trap::Interrupted` past the deadline.
    pub epoch: Option<EpochConfig>,
}

impl Default for InstanceConfig {
    fn default() -> Self {
        InstanceConfig { tier: ExecTier::InPlace, fuel: None, epoch: None }
    }
}

/// Live epoch state: the countdown to the next tick of the shared clock.
#[derive(Debug, Clone)]
struct EpochState {
    clock: EpochClock,
    deadline: u64,
    tick_instrs: u64,
    until_tick: u64,
}

impl EpochState {
    fn new(cfg: EpochConfig) -> EpochState {
        let tick_instrs = cfg.tick_instrs.max(1);
        EpochState {
            clock: cfg.clock,
            deadline: cfg.deadline,
            tick_instrs,
            until_tick: tick_instrs,
        }
    }
}

/// A host (import) function: receives the instance memory and arguments.
pub(crate) type HostFunc =
    Box<dyn FnMut(&mut Option<LinearMemory>, &[Value]) -> Result<Vec<Value>, Trap>>;

/// Named host imports for instantiation, keyed module → name so that
/// resolution looks both up by borrowed `&str`.
#[derive(Default)]
pub struct Imports {
    funcs: BTreeMap<String, BTreeMap<String, HostFunc>>,
}

impl Imports {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a host function as `module.name`.
    pub fn func(
        mut self,
        module: &str,
        name: &str,
        f: impl FnMut(&mut Option<LinearMemory>, &[Value]) -> Result<Vec<Value>, Trap> + 'static,
    ) -> Self {
        self.register(module, name, Box::new(f));
        self
    }

    pub fn register(&mut self, module: &str, name: &str, f: HostFunc) {
        self.funcs.entry(module.to_string()).or_default().insert(name.to_string(), f);
    }
}

/// Execution statistics — the engines' memory/time accounting interface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Work units retired across all invocations. Deliberately
    /// tier-dependent, mirroring how real interpreters do more dispatch
    /// work than compiled code for the same program; the engine time
    /// models multiply this by per-tier costs, so the counting rule is part
    /// of every simulated startup time.
    ///
    /// * In-place tier: one unit per dispatched bytecode, control
    ///   bookkeeping included — `block`, `loop` and every `end` control
    ///   actually reaches (the function's last one too). An `end` that a
    ///   taken branch jumps past is never dispatched and is not counted; a
    ///   back-edge to a `loop` does not re-dispatch the `loop` opcode.
    /// * Lowered tier: one unit per executed [`crate::lowered::OpWord`].
    ///
    /// A unit is counted before it executes, so a trapping instruction is
    /// counted, and so is the unit that finds the fuel tank empty.
    pub instrs_retired: u64,
    /// Calls into host (WASI) functions.
    pub host_calls: u64,
    /// Bytes of control side-tables built by the in-place tier.
    pub side_table_bytes: u64,
    /// Bytes of lowered internal code built by the lowered tier.
    pub lowered_bytes: u64,
    /// Superinstruction-fusion events in the code compiled for this
    /// instance (lowered tier only; 0 on the in-place tier).
    pub fused_ops: u64,
}

/// Errors during instantiation (before any code runs).
#[derive(Debug)]
pub enum InstantiateError {
    /// No import provided for `module.name`.
    MissingImport(String, String),
    /// An active data segment falls outside the memory.
    DataOutOfBounds,
    /// The module failed validation.
    Invalid(crate::error::ValidationError),
}

impl std::fmt::Display for InstantiateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstantiateError::MissingImport(m, n) => write!(f, "missing import {m}.{n}"),
            InstantiateError::DataOutOfBounds => write!(f, "active data segment out of bounds"),
            InstantiateError::Invalid(e) => write!(f, "validation failed: {e}"),
        }
    }
}

impl std::error::Error for InstantiateError {}

/// A live module instance.
pub struct Instance {
    pub(crate) module: Arc<Module>,
    pub(crate) config: InstanceConfig,
    pub(crate) memory: Option<LinearMemory>,
    pub(crate) host_funcs: Vec<Option<HostFunc>>,
    /// Per local function: has this instance been charged for its control
    /// side-table yet (in-place tier; the table itself is shared per
    /// module, the accounting is per instance).
    pub(crate) side_table_charged: Vec<bool>,
    /// Eagerly compiled functions (lowered tier), per local function.
    pub(crate) lowered: Vec<Option<Arc<LoweredFunc>>>,
    pub(crate) stats: ExecStats,
    pub(crate) fuel: Option<u64>,
    epoch: Option<EpochState>,
    /// Reusable slot buffer — locals and operands of every live frame
    /// (in-place tier) or the register file (lowered tier) — handed to the
    /// executor on each invocation so repeated invokes don't reallocate.
    pub(crate) value_stack: Vec<Slot>,
}

impl std::fmt::Debug for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("funcs", &self.module.num_funcs())
            .field("tier", &self.config.tier)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Instance {
    /// Validate and instantiate a module with the given imports.
    pub fn instantiate(
        module: Arc<Module>,
        imports: Imports,
        config: InstanceConfig,
    ) -> Result<Instance, InstantiateError> {
        crate::validate::validate_module(&module).map_err(InstantiateError::Invalid)?;
        Instance::instantiate_prevalidated(module, imports, config)
    }

    /// Instantiate a module that is already known to be valid — e.g. one
    /// obtained from [`crate::ArtifactCache::get_or_decode`], which
    /// validates on insertion. Skips the per-instance validation pass; the
    /// caller vouches for validity (an invalid module may panic mid-run).
    pub fn instantiate_prevalidated(
        module: Arc<Module>,
        mut imports: Imports,
        config: InstanceConfig,
    ) -> Result<Instance, InstantiateError> {
        // Resolve imports (the guests import functions only).
        let mut host_funcs = Vec::new();
        for imp in &module.imports {
            let f = imports
                .funcs
                .get_mut(imp.module.as_str())
                .and_then(|names| names.remove(imp.name.as_str()))
                .ok_or_else(|| {
                    InstantiateError::MissingImport(imp.module.clone(), imp.name.clone())
                })?;
            host_funcs.push(Some(f));
        }

        // Memory.
        let memory = module.memories.first().map(|mt| LinearMemory::new(mt.limits));

        let n_local_funcs = module.funcs.len();
        let mut inst = Instance {
            fuel: config.fuel,
            epoch: config.epoch.clone().map(EpochState::new),
            config,
            memory,
            host_funcs,
            side_table_charged: vec![false; n_local_funcs],
            lowered: vec![None; n_local_funcs],
            stats: ExecStats::default(),
            module,
            value_stack: Vec::new(),
        };

        // Data segments.
        let module = Arc::clone(&inst.module);
        for seg in &module.data {
            let mem = inst.memory.as_mut().ok_or(InstantiateError::DataOutOfBounds)?;
            mem.write_bytes(seg.offset as u32, &seg.bytes)
                .map_err(|_| InstantiateError::DataOutOfBounds)?;
        }

        // Lowered tier compiles everything up front — that is the point.
        if inst.config.tier == ExecTier::Lowered {
            inst.compile_all();
        }

        Ok(inst)
    }

    /// Eagerly lower every local function (the compile phase of the
    /// JIT/AOT-profile engines). Idempotent.
    pub(crate) fn compile_all(&mut self) {
        let module = Arc::clone(&self.module);
        for i in 0..module.funcs.len() {
            if self.lowered[i].is_none() {
                let func_idx = module.num_imported_funcs() + i as u32;
                let lf =
                    lowered::shared_lowered(&module, func_idx).expect("validated function lowers");
                self.stats.lowered_bytes += lf.memory_bytes();
                self.stats.fused_ops += lf.fused as u64;
                self.lowered[i] = Some(lf);
            }
        }
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Remaining fuel, if a budget was configured.
    pub fn fuel_remaining(&self) -> Option<u64> {
        self.fuel
    }

    /// A handle to the epoch clock, if an epoch watchdog is configured.
    /// Cloneable; `interrupt()` on any clone stops the guest at its next
    /// epoch check.
    pub fn epoch_clock(&self) -> Option<EpochClock> {
        self.epoch.as_ref().map(|e| e.clock.clone())
    }

    /// Access the linear memory (e.g. for test assertions).
    pub fn memory(&self) -> Option<&LinearMemory> {
        self.memory.as_ref()
    }

    /// Invoke an exported function by name.
    pub fn invoke(&mut self, name: &str, args: &[Value]) -> Result<Vec<Value>, Trap> {
        let func_idx = self
            .module
            .exported_func(name)
            .ok_or_else(|| Trap::HostError(format!("no exported function {name:?}")))?;
        // Check the signature eagerly so both tiers agree on errors.
        let ft = self
            .module
            .func_type(func_idx)
            .ok_or_else(|| Trap::HostError(format!("no function {func_idx}")))?;
        if ft.params.len() != args.len() || ft.params.iter().zip(args).any(|(p, a)| *p != a.ty()) {
            return Err(Trap::HostError(format!(
                "argument mismatch: expected {}, got {} args",
                ft,
                args.len()
            )));
        }
        match self.config.tier {
            ExecTier::InPlace => interp::invoke(self, func_idx, args),
            ExecTier::Lowered => lowered::invoke(self, func_idx, args),
        }
    }

    /// Call `_start` (the WASI entry point). `Trap::Exit(0)` is success.
    pub fn run_start(&mut self) -> Result<(), Trap> {
        match self.invoke("_start", &[]) {
            Ok(_) => Ok(()),
            Err(Trap::Exit(0)) => Ok(()),
            Err(t) => Err(t),
        }
    }

    /// Call a host (imported) function by its function index. Used by both
    /// executors; takes the closure out to avoid aliasing the instance.
    pub(crate) fn call_host(&mut self, func_idx: u32, args: &[Value]) -> Result<Vec<Value>, Trap> {
        let slot = func_idx as usize;
        let mut f = self.host_funcs[slot]
            .take()
            .ok_or_else(|| Trap::HostError(format!("host function {func_idx} re-entered")))?;
        let result = f(&mut self.memory, args);
        self.host_funcs[slot] = Some(f);
        self.stats.host_calls += 1;
        result
    }

    /// Call host function `func_idx` with its arguments taken from
    /// `slots[at..]` and its results written back over them — the calling
    /// convention both executors use for Wasm functions too. Returns the
    /// number of results.
    pub(crate) fn call_host_in_place(
        &mut self,
        func_idx: u32,
        slots: &mut Vec<Slot>,
        at: usize,
    ) -> Result<usize, Trap> {
        let module = Arc::clone(&self.module);
        let ft = module.func_type(func_idx).expect("validated");
        let args: Vec<Value> =
            ft.params.iter().zip(&slots[at..]).map(|(t, s)| Value::from_slot(*s, *t)).collect();
        let results = self.call_host(func_idx, &args)?;
        if results.len() != ft.results.len() {
            return Err(Trap::HostError(format!(
                "host function returned {} values, expected {}",
                results.len(),
                ft.results.len()
            )));
        }
        if slots.len() < at + results.len() {
            slots.resize(at + results.len(), Slot(0));
        }
        for (slot, v) in slots[at..].iter_mut().zip(&results) {
            *slot = v.to_slot();
        }
        Ok(results.len())
    }

    // Work-unit accounting. The executors do not call into the instance
    // per unit: they take a *slice* — the number of units that can retire
    // before anything has to be looked at — count it down in a local, and
    // come back here when it is spent or when they stop. Because a slice
    // ends one unit short of the next event, the event itself is always
    // judged by `safepoint`, one unit at a time, and lands on the same
    // unit as if every unit had been.

    /// Units that can retire from here with no fuel exhaustion and no
    /// epoch tick: `min(fuel left, units to the next tick − 1)`.
    pub(crate) fn slice(&self) -> u64 {
        let fuel = self.fuel.unwrap_or(u64::MAX);
        let tick = self.epoch.as_ref().map_or(u64::MAX, |ep| ep.until_tick - 1);
        fuel.min(tick)
    }

    /// Account for `n` units retired inside a slice.
    pub(crate) fn settle(&mut self, n: u64) {
        self.stats.instrs_retired += n;
        if let Some(fuel) = &mut self.fuel {
            *fuel -= n;
        }
        if let Some(ep) = &mut self.epoch {
            ep.until_tick -= n;
        }
    }

    /// Retire one unit the slow way: burn its fuel (it is counted even if
    /// there is none left) and service the epoch watchdog.
    fn safepoint(&mut self) -> Result<(), Trap> {
        self.stats.instrs_retired += 1;
        if let Some(fuel) = &mut self.fuel {
            if *fuel == 0 {
                return Err(Trap::OutOfFuel);
            }
            *fuel -= 1;
        }
        if let Some(ep) = &mut self.epoch {
            ep.until_tick -= 1;
            if ep.until_tick == 0 {
                // A tick boundary: advance the shared clock and check the
                // deadline (the epoch "safepoint").
                ep.until_tick = ep.tick_instrs;
                if ep.clock.advance(1) >= ep.deadline {
                    return Err(Trap::Interrupted);
                }
            }
        }
        Ok(())
    }

    /// The executors' slow path, taken by the unit that finds its slice
    /// spent: settle the `spent` slice, retire this unit through
    /// [`Instance::safepoint`], and hand out the next slice.
    #[cold]
    pub(crate) fn next_slice(&mut self, spent: u64) -> Result<u64, Trap> {
        self.settle(spent);
        self.safepoint()?;
        Ok(self.slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::{FuncType, ValType};

    fn add_module() -> Arc<Module> {
        let mut b = ModuleBuilder::new();
        let add =
            b.func(FuncType::new(vec![ValType::I32, ValType::I32], vec![ValType::I32]), |f| {
                f.local_get(0).local_get(1).op(crate::instr::Instruction::I32Add);
            });
        b.export_func("add", add);
        Arc::new(b.build())
    }

    #[test]
    fn instantiate_and_invoke_both_tiers() {
        for tier in [ExecTier::InPlace, ExecTier::Lowered] {
            let cfg = InstanceConfig { tier, ..Default::default() };
            let mut inst = Instance::instantiate(add_module(), Imports::new(), cfg).unwrap();
            let out = inst.invoke("add", &[Value::I32(2), Value::I32(40)]).unwrap();
            assert_eq!(out, vec![Value::I32(42)]);
        }
    }

    #[test]
    fn missing_import_reported() {
        let mut b = ModuleBuilder::new();
        b.import_func("env", "f", FuncType::new(vec![], vec![]));
        let err =
            Instance::instantiate(Arc::new(b.build()), Imports::new(), InstanceConfig::default())
                .unwrap_err();
        assert!(matches!(err, InstantiateError::MissingImport(_, _)));
    }

    #[test]
    fn host_function_called() {
        let mut b = ModuleBuilder::new();
        let log = b.import_func("env", "log", FuncType::new(vec![ValType::I32], vec![]));
        let f = b.func(FuncType::new(vec![], vec![]), |fb| {
            fb.i32_const(7).call(log);
        });
        b.export_func("go", f);
        let calls = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let calls2 = calls.clone();
        let imports = Imports::new().func("env", "log", move |_, args| {
            calls2.borrow_mut().push(args[0]);
            Ok(vec![])
        });
        let mut inst =
            Instance::instantiate(Arc::new(b.build()), imports, InstanceConfig::default()).unwrap();
        inst.invoke("go", &[]).unwrap();
        assert_eq!(&*calls.borrow(), &[Value::I32(7)]);
        assert_eq!(inst.stats().host_calls, 1);
    }

    #[test]
    fn data_segments_applied() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        b.data(32, &b"xyz"[..]);
        let inst =
            Instance::instantiate(Arc::new(b.build()), Imports::new(), InstanceConfig::default())
                .unwrap();
        assert_eq!(inst.memory().unwrap().read_bytes(32, 3).unwrap(), b"xyz");
    }

    #[test]
    fn data_segment_oob_rejected() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        b.data(65534, &b"xyz"[..]);
        let err =
            Instance::instantiate(Arc::new(b.build()), Imports::new(), InstanceConfig::default())
                .unwrap_err();
        assert!(matches!(err, InstantiateError::DataOutOfBounds));
    }

    #[test]
    fn argument_mismatch_rejected() {
        let mut inst =
            Instance::instantiate(add_module(), Imports::new(), InstanceConfig::default()).unwrap();
        assert!(inst.invoke("add", &[Value::I32(1)]).is_err());
        assert!(inst.invoke("add", &[Value::I64(1), Value::I64(2)]).is_err());
        assert!(inst.invoke("nope", &[]).is_err());
    }

    #[test]
    fn lowered_tier_reports_compiled_bytes() {
        let cfg = InstanceConfig { tier: ExecTier::Lowered, ..Default::default() };
        let inst = Instance::instantiate(add_module(), Imports::new(), cfg).unwrap();
        assert!(inst.stats().lowered_bytes > 0);
    }

    #[test]
    fn fuel_exhaustion() {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![], vec![]), |fb| {
            fb.loop_(|fb| {
                fb.br(0);
            });
        });
        b.export_func("spin", f);
        let module = Arc::new(b.build());
        for tier in [ExecTier::InPlace, ExecTier::Lowered] {
            let cfg = InstanceConfig { tier, fuel: Some(10_000), ..Default::default() };
            let mut inst = Instance::instantiate(Arc::clone(&module), Imports::new(), cfg).unwrap();
            assert_eq!(inst.invoke("spin", &[]), Err(Trap::OutOfFuel));
            assert_eq!(inst.fuel_remaining(), Some(0));
        }
    }

    fn spin_module() -> Arc<Module> {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![], vec![]), |fb| {
            fb.loop_(|fb| {
                fb.br(0);
            });
        });
        b.export_func("spin", f);
        Arc::new(b.build())
    }

    #[test]
    fn epoch_deadline_interrupts_deterministically_on_both_tiers() {
        let module = spin_module();
        for tier in [ExecTier::InPlace, ExecTier::Lowered] {
            let run = |deadline: u64| {
                let cfg = InstanceConfig {
                    tier,
                    epoch: Some(EpochConfig {
                        clock: EpochClock::new(),
                        deadline,
                        tick_instrs: 100,
                    }),
                    ..Default::default()
                };
                let mut inst =
                    Instance::instantiate(Arc::clone(&module), Imports::new(), cfg).unwrap();
                let res = inst.invoke("spin", &[]);
                (res, inst.stats().instrs_retired, inst.epoch_clock().unwrap().now())
            };
            let (res, retired, epoch) = run(5);
            assert_eq!(res, Err(Trap::Interrupted));
            assert_eq!(epoch, 5, "trap lands exactly at the deadline tick");
            let (res2, retired2, _) = run(5);
            assert_eq!(res2, Err(Trap::Interrupted));
            assert_eq!(retired, retired2, "same budget, same trap point");
            // A later deadline retires strictly more instructions.
            let (_, retired_more, _) = run(10);
            assert!(retired_more > retired);
        }
    }

    #[test]
    fn external_interrupt_lands_at_the_next_epoch_check() {
        let clock = EpochClock::new();
        let cfg = InstanceConfig {
            epoch: Some(EpochConfig { clock: clock.clone(), deadline: u64::MAX, tick_instrs: 10 }),
            ..Default::default()
        };
        let mut inst = Instance::instantiate(spin_module(), Imports::new(), cfg).unwrap();
        // Interrupt before the guest even starts: the first epoch check
        // (after `tick_instrs` retired instructions) observes it.
        clock.interrupt();
        assert_eq!(inst.invoke("spin", &[]), Err(Trap::Interrupted));
        assert!(inst.stats().instrs_retired <= 20, "stopped at the first safepoint");
        assert_eq!(clock.now(), u64::MAX, "interrupted clock stays interrupted");
    }

    #[test]
    fn epoch_clock_is_shared_across_clones() {
        let clock = EpochClock::new();
        assert_eq!(clock.now(), 0);
        assert_eq!(clock.advance(3), 3);
        let other = clock.clone();
        assert_eq!(other.now(), 3);
        other.interrupt();
        assert_eq!(clock.advance(1), u64::MAX, "saturates once interrupted");
    }
}
