//! The lowered execution tier (the Wasmtime/Wasmer/WasmEdge-profile tier),
//! rebuilt as a fast interpreter in the WAMR mold.
//!
//! Functions are compiled — eagerly at instantiation, shared per module —
//! into a pre-decoded, register-style IR:
//!
//! * **Pre-decoded operands.** The lowering pass simulates the Wasm operand
//!   stack and resolves every stack slot to a fixed frame-slot index, so the
//!   executor reads and writes a flat `Slot` array instead of pushing and
//!   popping a value stack. Stack position `i` lives at frame slot
//!   `locals + i` (its *canonical* slot); params and locals occupy the
//!   first `locals` slots.
//! * **Direct-threaded dispatch.** Every instruction is one fixed-width
//!   16-byte [`OpWord`] (opcode + three slot operands + a 64-bit
//!   immediate). Branch targets are pre-patched to instruction indices, so
//!   a taken branch is a single assignment to `pc`.
//! * **Superinstruction fusion.** The lowering pass fuses the dominant
//!   sequences in the workload corpus: `local.get` operands fold directly
//!   into consumer operand fields, `const+binop` becomes an immediate-form
//!   binop, `const+load/store` folds the address into the opcode,
//!   `compare+br_if` becomes a fused compare-and-branch, and
//!   `op+local.set` retargets the producer's destination slot. Each
//!   fusion increments [`LoweredFunc::fused`] so the win is observable via
//!   `ExecStats::fused_ops`.
//!
//! The lowered code is still several times larger than the raw bytecode
//! (16 bytes per op versus 1–3 bytes), which is exactly the JIT/AOT
//! memory/startup trade-off the paper measures against WAMR's in-place
//! interpreter: [`LoweredFunc::memory_bytes`] is charged to
//! `stats.lowered_bytes` per instance.
//!
//! Frames overlap: a call's arguments are materialized at the callee's
//! frame base (`caller.base + argbase`), so calls copy nothing — the callee
//! reads its params where the caller wrote them, and returns its results to
//! the same place.

use std::sync::{Arc, OnceLock};

use crate::instance::{Instance, MAX_CALL_DEPTH};
use crate::instr::{read_instr, Instruction};
use crate::interp::SideTable;
use crate::module::Module;
use crate::values::{Slot, Trap, Value};

/// Opcode of one pre-decoded instruction word.
///
/// Operand conventions (slots are frame-relative `u16` indices):
/// * `a` — destination slot.
/// * `b` — first source slot (address slot for loads/stores).
/// * `c` — second source slot (value slot for stores).
/// * `imm` — 64-bit immediate: constant bits, memory offset, function
///   index or branch target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub(crate) enum Op {
    /// `a ← b`.
    Copy,
    /// `a ← imm` (raw slot bits).
    Const,
    MemoryGrow,

    /// `a ← mem[r[b] + imm]`.
    I64Load,
    /// Fused constant-address load: `a ← mem[imm]`.
    I64LoadAt,
    /// `mem[r[b] + imm] ← r[c]`.
    I32Store,
    /// Fused constant-address store: `mem[imm] ← r[c]`.
    I32StoreAt,

    I32Eqz,
    I32Eq,
    I64GeU,

    I32Add,
    I32Sub,
    I32Mul,
    I32Xor,
    I32ShrU,
    I32Rotl,
    // Fused const-operand forms: rhs in `imm` (raw slot bits).
    I32AddImm,
    I32SubImm,
    I32MulImm,
    I32XorImm,
    I32ShrUImm,

    /// Unconditional jump to `imm`.
    Br,
    /// Jump to `imm` when `r[b] == 0` (fused `eqz+br_if`, and the skip
    /// over a conditional return).
    BrIfz,
    /// Jump to `imm` when `r[b] != 0`.
    BrIf,
    /// Fused compare-and-branch: jump to `imm` when `r[b] == r[c]`.
    BrI32Eq,
    /// Copy `result_count` slots from `b` to the frame base and pop the
    /// frame.
    Ret,
    /// Call function `imm`; `a` is the frame-relative argument base (the
    /// callee's frame base).
    Call,
}

/// One pre-decoded instruction word: 16 bytes, fixed width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OpWord {
    pub(crate) code: Op,
    pub(crate) a: u16,
    pub(crate) b: u16,
    pub(crate) c: u16,
    pub(crate) imm: u64,
}

#[derive(Debug)]
pub struct LoweredFunc {
    pub(crate) ops: Vec<OpWord>,
    pub(crate) param_count: u16,
    /// Non-param locals (zeroed on entry).
    pub(crate) local_count: u16,
    pub(crate) result_count: u16,
    /// Total frame slots: params + locals + operand high-water mark.
    pub(crate) frame_size: u16,
    /// Superinstruction-fusion events during lowering (folded operands,
    /// immediate binops, fused compare-branches, retargeted `local.set`s…).
    pub(crate) fused: u32,
}

impl LoweredFunc {
    /// Resident bytes of the compiled representation — what the JIT/AOT
    /// engine profiles charge as "machine code" via `stats.lowered_bytes`.
    pub(crate) fn memory_bytes(&self) -> u64 {
        (self.ops.len() * std::mem::size_of::<OpWord>()) as u64
    }
}

/// One lazily filled cell per local function, allocated on first use.
type PerFunc<T> = OnceLock<Box<[OnceLock<T>]>>;

/// Per-module shared store of what the executors derive from function
/// bodies: lowered code for this tier, control side-tables for the in-place
/// tier. Instances of the same module share one copy of each (first
/// builder wins a race); per-instance `stats.lowered_bytes` and
/// `stats.side_table_bytes` still charge the full footprint to every
/// instance, matching how a real runtime maps the code into each sandbox.
///
/// The store is deliberately excluded from `Module`'s `Clone`/`PartialEq`:
/// it is a cache, not module identity.
#[derive(Default)]
pub(crate) struct CompiledCode {
    lowered: PerFunc<Arc<LoweredFunc>>,
    side_tables: PerFunc<SideTable>,
}

fn cells<T>(store: &PerFunc<T>, n: usize) -> &[OnceLock<T>] {
    store.get_or_init(|| (0..n).map(|_| OnceLock::new()).collect())
}

impl CompiledCode {
    /// The side-table cells of a module with `n` local functions.
    pub(crate) fn side_tables(&self, n: usize) -> &[OnceLock<SideTable>] {
        cells(&self.side_tables, n)
    }
}

impl Clone for CompiledCode {
    fn clone(&self) -> Self {
        CompiledCode::default()
    }
}

impl PartialEq for CompiledCode {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for CompiledCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn filled<T>(store: &PerFunc<T>) -> usize {
            store.get().map_or(0, |s| s.iter().filter(|c| c.get().is_some()).count())
        }
        let (lowered, side_tables) = (filled(&self.lowered), filled(&self.side_tables));
        write!(f, "CompiledCode({lowered} lowered, {side_tables} side tables)")
    }
}

/// Fetch (or compile and publish) the shared lowered code for `func_idx`.
pub(crate) fn shared_lowered(module: &Module, func_idx: u32) -> Result<Arc<LoweredFunc>, Trap> {
    let local_idx = (func_idx - module.num_imported_funcs()) as usize;
    let cell = &cells(&module.compiled.lowered, module.funcs.len())[local_idx];
    if let Some(f) = cell.get() {
        return Ok(Arc::clone(f));
    }
    let lf = lower_function(module, func_idx).map_err(Trap::HostError)?;
    Ok(Arc::clone(cell.get_or_init(|| Arc::new(lf))))
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// "No producer" sentinel for a virtual-stack entry.
const NONE: u32 = u32::MAX;

/// Where a virtual-stack value currently lives. `Local` and `Const` entries
/// are lazy: no op has been emitted yet, so a consumer can fold them into
/// its own operand fields (the core fusion mechanism).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// Materialized in its canonical frame slot.
    Reg,
    /// Alias of local `k` (a pending `local.get`).
    Local(u16),
    /// A pending constant (raw slot bits).
    Const(u64),
}

#[derive(Debug, Clone, Copy)]
struct VEntry {
    origin: Origin,
    /// Index of the op whose destination is this entry's canonical slot,
    /// or `NONE`. Used to retarget `op+local.set` pairs.
    producer: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtlKind {
    Func,
    Block,
    Loop,
}

struct Ctl {
    kind: CtlKind,
    /// Virtual-stack height at the construct's entry.
    height: usize,
    /// Values the construct leaves: none for a block or loop (the only
    /// block type kept is the empty one), the results for the function.
    results: u16,
    /// Loop head (op index) for backward branches.
    head: u32,
    /// Branch ops patched to this construct's end.
    fixups: Vec<usize>,
    /// Whether the code *entering* this construct was reachable.
    entry_live: bool,
}

/// Branch resolution: arity, and the target when it is already known
/// (loops).
struct BranchInfo {
    li: usize,
    arity: u16,
    target: Option<u32>,
}

struct Lowerer<'m> {
    module: &'m Module,
    ops: Vec<OpWord>,
    vstack: Vec<VEntry>,
    ctls: Vec<Ctl>,
    /// Params + declared locals; canonical slot of stack position `i` is
    /// `nlocals + i`.
    nlocals: u16,
    result_count: u16,
    max_height: usize,
    live: bool,
    fused: u32,
}

impl<'m> Lowerer<'m> {
    /// Canonical frame slot of virtual-stack position `pos`. Wrapping: the
    /// final frame-size check rejects any function that actually overflows.
    fn canon(&self, pos: usize) -> u16 {
        (self.nlocals as u32).wrapping_add(pos as u32) as u16
    }

    fn push(&mut self, origin: Origin) {
        self.vstack.push(VEntry { origin, producer: NONE });
        if self.vstack.len() > self.max_height {
            self.max_height = self.vstack.len();
        }
    }

    /// Push a value produced by the op just emitted.
    fn push_reg(&mut self) {
        let producer = (self.ops.len() - 1) as u32;
        self.vstack.push(VEntry { origin: Origin::Reg, producer });
        if self.vstack.len() > self.max_height {
            self.max_height = self.vstack.len();
        }
    }

    fn emit(&mut self, code: Op, a: u16, b: u16, c: u16, imm: u64) -> usize {
        self.ops.push(OpWord { code, a, b, c, imm });
        self.ops.len() - 1
    }

    /// Force the value at `pos` into its canonical slot.
    fn materialize(&mut self, pos: usize) {
        let dst = self.canon(pos);
        match self.vstack[pos].origin {
            Origin::Reg => return,
            Origin::Local(k) => {
                self.emit(Op::Copy, dst, k, 0, 0);
            }
            Origin::Const(bits) => {
                self.emit(Op::Const, dst, 0, 0, bits);
            }
        }
        self.vstack[pos] = VEntry { origin: Origin::Reg, producer: (self.ops.len() - 1) as u32 };
    }

    fn materialize_top(&mut self, n: usize) {
        let start = self.vstack.len().saturating_sub(n);
        for i in start..self.vstack.len() {
            self.materialize(i);
        }
    }

    /// Resolve the value at `pos` to a readable slot: locals fold in place
    /// (fusion), constants are materialized.
    fn operand_slot(&mut self, pos: usize) -> u16 {
        match self.vstack[pos].origin {
            Origin::Local(k) => {
                self.fused += 1;
                k
            }
            Origin::Reg => self.canon(pos),
            Origin::Const(_) => {
                self.materialize(pos);
                self.canon(pos)
            }
        }
    }

    /// Reset the virtual stack to `height` plus `n` opaque block results.
    /// Dead paths may have left it short; pad with opaque entries so
    /// lowering of any following (possibly dead-then-live) code never
    /// underflows.
    fn reset_stack(&mut self, height: usize, n: u16) {
        self.vstack.truncate(height);
        while self.vstack.len() < height {
            self.vstack.push(VEntry { origin: Origin::Reg, producer: NONE });
        }
        for _ in 0..n {
            self.push(Origin::Reg);
        }
    }

    fn binop(&mut self, code: Op, imm_code: Option<Op>) {
        let y = self.vstack.len() - 1;
        let x = y - 1;
        if let Some(ic) = imm_code {
            if let Origin::Const(bits) = self.vstack[y].origin {
                let b = self.operand_slot(x);
                let dst = self.canon(x);
                self.vstack.truncate(x);
                self.emit(ic, dst, b, 0, bits);
                self.fused += 1;
                self.push_reg();
                return;
            }
        }
        let c = self.operand_slot(y);
        let b = self.operand_slot(x);
        let dst = self.canon(x);
        self.vstack.truncate(x);
        self.emit(code, dst, b, c, 0);
        self.push_reg();
    }

    fn unop(&mut self, code: Op) {
        let x = self.vstack.len() - 1;
        let b = self.operand_slot(x);
        let dst = self.canon(x);
        self.vstack.truncate(x);
        self.emit(code, dst, b, 0, 0);
        self.push_reg();
    }

    fn load(&mut self, code: Op, at: Op, offset: u32) {
        let x = self.vstack.len() - 1;
        if let Origin::Const(bits) = self.vstack[x].origin {
            let ea = Slot(bits).u32() as u64 + offset as u64;
            if ea <= u32::MAX as u64 {
                let dst = self.canon(x);
                self.vstack.truncate(x);
                self.emit(at, dst, 0, 0, ea);
                self.fused += 1;
                self.push_reg();
                return;
            }
        }
        let b = self.operand_slot(x);
        let dst = self.canon(x);
        self.vstack.truncate(x);
        self.emit(code, dst, b, 0, offset as u64);
        self.push_reg();
    }

    fn store(&mut self, code: Op, at: Op, offset: u32) {
        let v = self.vstack.len() - 1;
        let a = v - 1;
        let c = self.operand_slot(v);
        if let Origin::Const(bits) = self.vstack[a].origin {
            let ea = Slot(bits).u32() as u64 + offset as u64;
            if ea <= u32::MAX as u64 {
                self.vstack.truncate(a);
                self.emit(at, 0, 0, c, ea);
                self.fused += 1;
                return;
            }
        }
        let b = self.operand_slot(a);
        self.vstack.truncate(a);
        self.emit(code, 0, b, c, offset as u64);
    }

    fn local_set(&mut self, k: u16) {
        let pos = self.vstack.len() - 1;
        // Pending aliases of local `k` below the top must be materialized
        // before `k` is overwritten (they read the *old* value). Doing so
        // emits ops, which also disables the retarget fast path below.
        for i in 0..pos {
            if self.vstack[i].origin == Origin::Local(k) {
                self.materialize(i);
            }
        }
        let e = self.vstack[pos];
        match e.origin {
            Origin::Reg => {
                if e.producer != NONE && e.producer as usize == self.ops.len() - 1 {
                    // `op + local.set` → write the local directly.
                    self.ops[e.producer as usize].a = k;
                    self.fused += 1;
                } else {
                    let src = self.canon(pos);
                    self.emit(Op::Copy, k, src, 0, 0);
                }
            }
            Origin::Local(j) => {
                if j != k {
                    self.emit(Op::Copy, k, j, 0, 0);
                }
                self.fused += 1;
            }
            Origin::Const(bits) => {
                self.emit(Op::Const, k, 0, 0, bits);
                self.fused += 1;
            }
        }
        self.vstack.truncate(pos);
    }

    fn branch_info(&self, depth: u32) -> BranchInfo {
        let li = self.ctls.len() - 1 - depth as usize;
        let ctl = &self.ctls[li];
        if ctl.kind == CtlKind::Loop {
            BranchInfo { li, arity: 0, target: Some(ctl.head) }
        } else {
            BranchInfo { li, arity: ctl.results, target: None }
        }
    }

    /// If the top of stack is the result of an i32 compare emitted as the
    /// immediately preceding op, return the fused branch opcode plus its
    /// operand slots.
    fn try_fuse_cmp(&self, pos: usize) -> Option<(Op, u16, u16)> {
        let e = self.vstack[pos];
        if e.origin != Origin::Reg || e.producer == NONE {
            return None;
        }
        let p = e.producer as usize;
        if p != self.ops.len() - 1 {
            return None;
        }
        let w = self.ops[p];
        let code = match w.code {
            Op::I32Eqz => Op::BrIfz,
            Op::I32Eq => Op::BrI32Eq,
            _ => return None,
        };
        Some((code, w.b, w.c))
    }

    fn patch(&mut self, op: usize, target: u32) {
        self.ops[op].imm = target as u64;
    }

    fn br(&mut self, depth: u32) {
        let info = self.branch_info(depth);
        if info.arity > 0 {
            // Only the function's own label carries values: a return.
            self.ret();
            return;
        }
        let idx = self.emit(Op::Br, 0, 0, 0, info.target.unwrap_or(u32::MAX) as u64);
        if info.target.is_none() {
            self.ctls[info.li].fixups.push(idx);
        }
        self.live = false;
    }

    fn br_if(&mut self, depth: u32) {
        let cpos = self.vstack.len() - 1;
        let info = self.branch_info(depth);
        if info.arity > 0 {
            // A conditional return: the kept values must sit in canonical
            // slots whether or not it is taken.
            let arity = info.arity as usize;
            for i in cpos.saturating_sub(arity)..cpos {
                self.materialize(i);
            }
            let cond = self.operand_slot(cpos);
            self.vstack.truncate(cpos);
            let skip = self.emit(Op::BrIfz, 0, cond, 0, 0);
            let src = self.canon(cpos.saturating_sub(arity));
            self.emit(Op::Ret, 0, src, 0, 0);
            self.patch(skip, self.ops.len() as u32);
            return;
        }
        let target = info.target.unwrap_or(u32::MAX) as u64;
        let idx = if let Some((code, b, c)) = self.try_fuse_cmp(cpos) {
            self.ops.pop();
            self.vstack.truncate(cpos);
            self.fused += 1;
            self.emit(code, 0, b, c, target)
        } else {
            let cond = self.operand_slot(cpos);
            self.vstack.truncate(cpos);
            self.emit(Op::BrIf, 0, cond, 0, target)
        };
        if info.target.is_none() {
            self.ctls[info.li].fixups.push(idx);
        }
    }

    fn ret(&mut self) {
        let r = self.result_count as usize;
        self.materialize_top(r);
        let src = if r > 0 { self.canon(self.vstack.len().saturating_sub(r)) } else { 0 };
        self.emit(Op::Ret, 0, src, 0, 0);
        self.live = false;
    }

    fn call(&mut self, f: u32) -> Result<(), String> {
        let module = self.module;
        let ft = module.func_type(f).ok_or("bad call target")?;
        let (n, r) = (ft.params.len(), ft.results.len());
        self.materialize_top(n);
        let base = self.vstack.len().saturating_sub(n);
        let argbase = self.canon(base);
        self.vstack.truncate(base);
        self.emit(Op::Call, argbase, 0, 0, f as u64);
        for _ in 0..r {
            self.push(Origin::Reg);
        }
        Ok(())
    }

    fn open(&mut self, kind: CtlKind) {
        self.ctls.push(Ctl {
            kind,
            height: self.vstack.len(),
            results: 0,
            head: self.ops.len() as u32,
            fixups: Vec::new(),
            entry_live: self.live,
        });
    }

    fn step(&mut self, instr: Instruction) -> Result<(), String> {
        use Instruction as I;
        match instr {
            I::Block => self.open(CtlKind::Block),
            I::Loop => self.open(CtlKind::Loop),
            I::End => {
                let ctl = self.ctls.pop().ok_or("unbalanced end")?;
                // Fall-through materialization runs *before* the end
                // target: branches arrive with values already in the same
                // canonical slots.
                if self.live {
                    self.materialize_top(ctl.results as usize);
                }
                let end_target = self.ops.len() as u32;
                for op in ctl.fixups {
                    self.patch(op, end_target);
                }
                self.live = ctl.entry_live;
                self.reset_stack(ctl.height, ctl.results);
                if ctl.kind == CtlKind::Func {
                    let src = if self.result_count > 0 { self.canon(ctl.height) } else { 0 };
                    self.emit(Op::Ret, 0, src, 0, 0);
                }
            }
            I::Br(d) => {
                if self.live {
                    self.br(d);
                }
            }
            I::BrIf(d) => {
                if self.live {
                    self.br_if(d);
                }
            }
            I::Call(f) => {
                if self.live {
                    self.call(f)?;
                }
            }
            other => {
                if self.live {
                    self.simple(&other);
                }
            }
        }
        Ok(())
    }

    fn simple(&mut self, i: &Instruction) {
        use Instruction as I;
        match i {
            I::Drop => {
                self.vstack.pop();
            }
            I::LocalGet(k) => self.push(Origin::Local(*k as u16)),
            I::LocalSet(k) => self.local_set(*k as u16),
            I::MemoryGrow => self.unop(Op::MemoryGrow),

            I::I32Const(v) => self.push(Origin::Const(Slot::from_i32(*v).0)),
            I::I64Const(v) => self.push(Origin::Const(Slot::from_i64(*v).0)),

            I::I64Load(m) => self.load(Op::I64Load, Op::I64LoadAt, m.offset),
            I::I32Store(m) => self.store(Op::I32Store, Op::I32StoreAt, m.offset),

            I::I32Eqz => self.unop(Op::I32Eqz),
            I::I32Eq => self.binop(Op::I32Eq, None),
            I::I64GeU => self.binop(Op::I64GeU, None),

            I::I32Add => self.binop(Op::I32Add, Some(Op::I32AddImm)),
            I::I32Sub => self.binop(Op::I32Sub, Some(Op::I32SubImm)),
            I::I32Mul => self.binop(Op::I32Mul, Some(Op::I32MulImm)),
            I::I32Xor => self.binop(Op::I32Xor, Some(Op::I32XorImm)),
            I::I32ShrU => self.binop(Op::I32ShrU, Some(Op::I32ShrUImm)),
            I::I32Rotl => self.binop(Op::I32Rotl, None),

            I::Block | I::Loop | I::End | I::Br(_) | I::BrIf(_) | I::Call(_) => {
                unreachable!("control op in simple(): {i:?}")
            }
        }
    }
}

pub fn lower_function(module: &Module, func_idx: u32) -> Result<LoweredFunc, String> {
    let body = module.func_body(func_idx).ok_or("no body (imported function)")?;
    let ft = module.func_type(func_idx).ok_or("no type")?;
    let param_count = ft.params.len();
    let local_total = param_count + body.local_count() as usize;
    if local_total > u16::MAX as usize {
        return Err("too many locals for the lowered tier".into());
    }
    let result_count = ft.results.len() as u16;

    let mut lo = Lowerer {
        module,
        ops: Vec::with_capacity(body.code.len() / 2),
        vstack: Vec::new(),
        ctls: vec![Ctl {
            kind: CtlKind::Func,
            height: 0,
            results: result_count,
            head: 0,
            fixups: Vec::new(),
            entry_live: true,
        }],
        nlocals: local_total as u16,
        result_count,
        max_height: 0,
        live: true,
        fused: 0,
    };

    let code = &body.code;
    let mut pos = 0usize;
    while pos < code.len() && !lo.ctls.is_empty() {
        let (instr, n) = read_instr(&code[pos..]).map_err(|e| e.to_string())?;
        pos += n;
        lo.step(instr)?;
    }
    let frame = local_total + lo.max_height;
    if frame > u16::MAX as usize {
        return Err("frame too large for the lowered tier".into());
    }
    Ok(LoweredFunc {
        ops: lo.ops,
        param_count: param_count as u16,
        local_count: (local_total - param_count) as u16,
        result_count,
        frame_size: frame as u16,
        fused: lo.fused,
    })
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// One suspended (or current) activation: compiled code, frame base into
/// the shared register file, and the resume pc.
struct LFrame {
    func: Arc<LoweredFunc>,
    base: usize,
    pc: usize,
}

/// Get or compile the lowered code for a function, charging the instance's
/// stats on first touch (each instance pays for the code mapped into it,
/// even though compilation is shared per module).
fn lowered_func(inst: &mut Instance, func_idx: u32) -> Result<Arc<LoweredFunc>, Trap> {
    let imported = inst.module.num_imported_funcs();
    let local_idx = (func_idx - imported) as usize;
    if let Some(f) = &inst.lowered[local_idx] {
        return Ok(Arc::clone(f));
    }
    let module = Arc::clone(&inst.module);
    let lf = shared_lowered(&module, func_idx)?;
    inst.stats.lowered_bytes += lf.memory_bytes();
    inst.stats.fused_ops += lf.fused as u64;
    inst.lowered[local_idx] = Some(Arc::clone(&lf));
    Ok(lf)
}

/// Invoke `func_idx` with typed arguments through the lowered executor.
pub(crate) fn invoke(
    inst: &mut Instance,
    func_idx: u32,
    args: &[Value],
) -> Result<Vec<Value>, Trap> {
    let imported = inst.module.num_imported_funcs();
    if func_idx < imported {
        return inst.call_host(func_idx, args);
    }
    let result_types = inst.module.func_type(func_idx).expect("validated").results.clone();

    // Reuse the instance's slot buffer as the register file across calls.
    let mut regs = std::mem::take(&mut inst.value_stack);
    regs.clear();
    let outcome = run(inst, &mut regs, func_idx, args);
    let results = outcome.map(|()| {
        result_types.iter().enumerate().map(|(i, t)| Value::from_slot(regs[i], *t)).collect()
    });
    regs.clear();
    inst.value_stack = regs;
    results
}

fn run(
    inst: &mut Instance,
    regs: &mut Vec<Slot>,
    func_idx: u32,
    args: &[Value],
) -> Result<(), Trap> {
    let func = lowered_func(inst, func_idx)?;
    let imported = inst.module.num_imported_funcs();
    regs.resize(func.frame_size as usize, Slot(0));
    for (i, v) in args.iter().enumerate() {
        regs[i] = v.to_slot();
    }
    let mut frames: Vec<LFrame> = Vec::new();
    let mut cur = LFrame { func, base: 0, pc: 0 };
    // Declared before the dispatch macros so their bodies can see it
    // (macro hygiene resolves identifiers at the definition site).
    let mut w: OpWord;

    // Units left in the current slice (see `Instance::slice`): counted
    // down in a local, settled into the instance on the way out. Every
    // exit from the dispatch loop is a `break 'run` for that reason (and
    // the macros live inside the block because labels are hygienic).
    let mut slice = inst.slice();
    let mut left = slice;
    let outcome = 'run: {
        macro_rules! trap {
            ($t:expr) => {
                break 'run Err($t)
            };
        }
        macro_rules! tri {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(t) => trap!(t),
                }
            };
        }
        macro_rules! r {
            ($i:expr) => {
                regs[cur.base + $i as usize]
            };
        }
        macro_rules! mem {
            () => {
                inst.memory.as_mut().expect("validated memory access")
            };
        }
        macro_rules! jump {
            () => {
                cur.pc = w.imm as usize
            };
        }
        macro_rules! bin {
            ($get:ident, $from:ident, $f:expr) => {{
                let x = r!(w.b).$get();
                let y = r!(w.c).$get();
                r!(w.a) = Slot::$from($f(x, y));
            }};
        }
        macro_rules! binimm {
            ($get:ident, $from:ident, $f:expr) => {{
                let x = r!(w.b).$get();
                let y = Slot(w.imm).$get();
                r!(w.a) = Slot::$from($f(x, y));
            }};
        }
        macro_rules! rel {
            ($get:ident, $f:expr) => {{
                let x = r!(w.b).$get();
                let y = r!(w.c).$get();
                r!(w.a) = Slot::from_bool($f(&x, &y));
            }};
        }
        macro_rules! un {
            ($get:ident, $from:ident, $f:expr) => {{
                let x = r!(w.b).$get();
                r!(w.a) = Slot::$from($f(x));
            }};
        }
        macro_rules! ld {
            ($n:literal, $conv:expr) => {{
                let addr = r!(w.b).u32();
                let bytes: [u8; $n] = tri!(mem!().read(addr, w.imm as u32));
                r!(w.a) = $conv(bytes);
            }};
        }
        macro_rules! ldat {
            ($n:literal, $conv:expr) => {{
                let bytes: [u8; $n] = tri!(mem!().read(w.imm as u32, 0));
                r!(w.a) = $conv(bytes);
            }};
        }
        macro_rules! st {
            ($get:ident, $to:expr) => {{
                let v = r!(w.c).$get();
                let addr = r!(w.b).u32();
                tri!(mem!().write(addr, w.imm as u32, $to(v)));
            }};
        }
        macro_rules! stat {
            ($get:ident, $to:expr) => {{
                let v = r!(w.c).$get();
                tri!(mem!().write(w.imm as u32, 0, $to(v)));
            }};
        }
        macro_rules! brrel {
            ($get:ident, $f:expr) => {{
                let x = r!(w.b).$get();
                let y = r!(w.c).$get();
                if $f(x, y) {
                    jump!();
                }
            }};
        }
        macro_rules! do_call {
            ($f:expr) => {{
                let f: u32 = $f;
                let ab = cur.base + w.a as usize;
                if f < imported {
                    // Foreign code runs next: leave the instance exact.
                    inst.settle(slice - left);
                    (slice, left) = (0, 0);
                    tri!(inst.call_host_in_place(f, regs, ab));
                    slice = inst.slice();
                    left = slice;
                } else {
                    if frames.len() + 1 >= MAX_CALL_DEPTH {
                        trap!(Trap::StackOverflow);
                    }
                    let callee = tri!(lowered_func(inst, f));
                    let need = ab + callee.frame_size as usize;
                    if regs.len() < need {
                        regs.resize(need, Slot(0));
                    }
                    // Args are already in place at the callee's base; zero the
                    // declared locals (the region may hold stale slots).
                    let lp = callee.param_count as usize;
                    let ln = lp + callee.local_count as usize;
                    for s in &mut regs[ab + lp..ab + ln] {
                        *s = Slot(0);
                    }
                    frames.push(std::mem::replace(
                        &mut cur,
                        LFrame { func: callee, base: ab, pc: 0 },
                    ));
                }
            }};
        }

        loop {
            if left == 0 {
                // On a trap nothing is left to settle: `next_slice` did it.
                let spent = std::mem::take(&mut slice);
                slice = tri!(inst.next_slice(spent));
                left = slice;
            } else {
                left -= 1;
            }
            w = cur.func.ops[cur.pc];
            cur.pc += 1;
            match w.code {
                Op::Copy => r!(w.a) = r!(w.b),
                Op::Const => r!(w.a) = Slot(w.imm),
                Op::MemoryGrow => {
                    let delta = r!(w.b).u32();
                    let grown = mem!().grow(delta);
                    r!(w.a) = Slot::from_i32(grown);
                }

                Op::I64Load => ld!(8, |b| Slot::from_u64(u64::from_le_bytes(b))),
                Op::I64LoadAt => ldat!(8, |b| Slot::from_u64(u64::from_le_bytes(b))),
                Op::I32Store => st!(u32, |v: u32| v.to_le_bytes()),
                Op::I32StoreAt => stat!(u32, |v: u32| v.to_le_bytes()),

                Op::I32Eqz => un!(i32, from_bool, |x| x == 0),
                Op::I32Eq => rel!(i32, i32::eq),
                Op::I64GeU => rel!(u64, u64::ge),

                Op::I32Add => bin!(i32, from_i32, i32::wrapping_add),
                Op::I32Sub => bin!(i32, from_i32, i32::wrapping_sub),
                Op::I32Mul => bin!(i32, from_i32, i32::wrapping_mul),
                Op::I32Xor => bin!(u32, from_u32, |x, y| x ^ y),
                Op::I32ShrU => bin!(u32, from_u32, |x: u32, y: u32| x.wrapping_shr(y)),
                Op::I32Rotl => bin!(u32, from_u32, |x: u32, y: u32| x.rotate_left(y & 31)),
                Op::I32AddImm => binimm!(i32, from_i32, i32::wrapping_add),
                Op::I32SubImm => binimm!(i32, from_i32, i32::wrapping_sub),
                Op::I32MulImm => binimm!(i32, from_i32, i32::wrapping_mul),
                Op::I32XorImm => binimm!(u32, from_u32, |x, y| x ^ y),
                Op::I32ShrUImm => binimm!(u32, from_u32, |x: u32, y: u32| x.wrapping_shr(y)),

                Op::Br => jump!(),
                Op::BrIfz => {
                    if r!(w.b).i32() == 0 {
                        jump!();
                    }
                }
                Op::BrIf => {
                    if r!(w.b).i32() != 0 {
                        jump!();
                    }
                }
                Op::BrI32Eq => brrel!(i32, |x, y| x == y),
                Op::Ret => {
                    let res = cur.func.result_count as usize;
                    if res > 0 && w.b != 0 {
                        let s = cur.base + w.b as usize;
                        regs.copy_within(s..s + res, cur.base);
                    }
                    match frames.pop() {
                        Some(f) => cur = f,
                        None => break 'run Ok(()),
                    }
                }
                Op::Call => do_call!(w.imm as u32),
            }
        }
    };
    inst.settle(slice - left);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instance::{ExecTier, Imports, Instance, InstanceConfig};
    use crate::types::{FuncType, ValType};

    fn lowered_instance(b: ModuleBuilder) -> Instance {
        Instance::instantiate(
            Arc::new(b.build()),
            Imports::new(),
            InstanceConfig { tier: ExecTier::Lowered, ..Default::default() },
        )
        .unwrap()
    }

    fn sum_to_builder() -> ModuleBuilder {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            let acc = f.local(ValType::I32);
            f.block(|f| {
                f.loop_(|f| {
                    f.local_get(0).op(Instruction::I32Eqz).br_if(1);
                    f.local_get(acc).local_get(0).op(Instruction::I32Add).local_set(acc);
                    f.local_get(0).i32_const(1).op(Instruction::I32Sub).local_set(0);
                    f.br(0);
                });
            });
            f.local_get(acc);
        });
        b.export_func("sum_to", f);
        b
    }

    #[test]
    fn lowered_code_is_bigger_than_bytecode() {
        let module = sum_to_builder().build();
        let bytecode = module.code_size();
        let lf = lower_function(&module, 0).unwrap();
        // Fusion shrinks the op count, but each op is still 16 bytes vs
        // 1–3 bytes of bytecode: the JIT/AOT memory premium survives.
        assert!(
            lf.memory_bytes() >= 2 * bytecode,
            "lowered {} vs bytecode {bytecode}",
            lf.memory_bytes()
        );
    }

    #[test]
    fn fusion_collapses_the_hot_loop() {
        let module = sum_to_builder().build();
        let lf = lower_function(&module, 0).unwrap();
        assert!(lf.fused > 0, "no fusion events recorded");
        let code = &module.func_body(0).unwrap().code;
        let (mut source_instrs, mut pos) = (0, 0);
        while pos < code.len() {
            pos += read_instr(&code[pos..]).unwrap().1;
            source_instrs += 1;
        }
        assert!(
            lf.ops.len() < source_instrs,
            "{} ops from {source_instrs} bytecode instrs — fusion should shrink the stream",
            lf.ops.len()
        );
    }

    #[test]
    fn loops_and_branches_execute() {
        let mut inst = lowered_instance(sum_to_builder());
        assert_eq!(inst.invoke("sum_to", &[Value::I32(100)]).unwrap(), vec![Value::I32(5050)]);
    }

    #[test]
    fn dead_code_is_eliminated() {
        let mut b = ModuleBuilder::new();
        b.func(FuncType::new(vec![], vec![ValType::I32]), |f| {
            f.i32_const(1).br(0);
            // Dead:
            f.i32_const(2).drop_();
        });
        let module = b.build();
        let lf = lower_function(&module, 0).unwrap();
        // The live const materializes exactly once; the dead const/drop
        // are not emitted at all.
        let consts = lf.ops.iter().filter(|w| w.code == Op::Const).count();
        assert_eq!(consts, 1, "ops: {:?}", lf.ops);
    }

    #[test]
    fn value_carrying_branches_to_the_function_label_return() {
        let mut b = ModuleBuilder::new();
        // f(x) = x != 0 ? 7 : 8, with `br_if` and `br` to the function.
        let f = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            f.i32_const(7).local_get(0).br_if(0).drop_();
            f.i32_const(8).br(0);
        });
        b.export_func("f", f);
        let mut inst = lowered_instance(b);
        assert_eq!(inst.invoke("f", &[Value::I32(1)]).unwrap(), vec![Value::I32(7)]);
        assert_eq!(inst.invoke("f", &[Value::I32(0)]).unwrap(), vec![Value::I32(8)]);
    }

    #[test]
    fn nested_calls() {
        let mut b = ModuleBuilder::new();
        let sig = FuncType::new(vec![ValType::I32], vec![ValType::I32]);
        let inc = b.func(sig.clone(), |f| {
            f.local_get(0).i32_const(1).op(Instruction::I32Add);
        });
        let twice = b.func(sig, |f| {
            f.local_get(0).call(inc).call(inc);
        });
        b.export_func("twice", twice);
        let mut inst = lowered_instance(b);
        assert_eq!(inst.invoke("twice", &[Value::I32(40)]).unwrap(), vec![Value::I32(42)]);
    }

    #[test]
    fn compiled_code_is_shared_across_instances() {
        let module = Arc::new(sum_to_builder().build());
        let a = shared_lowered(&module, 0).unwrap();
        let b = shared_lowered(&module, 0).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second fetch must reuse the first compilation");

        let config = InstanceConfig { tier: ExecTier::Lowered, ..Default::default() };
        let i1 =
            Instance::instantiate(Arc::clone(&module), Imports::new(), config.clone()).unwrap();
        let i2 = Instance::instantiate(Arc::clone(&module), Imports::new(), config).unwrap();
        // Shared compilation, but each instance is still charged the full
        // code footprint (the code is mapped into both sandboxes).
        assert!(i1.stats.lowered_bytes > 0);
        assert_eq!(i1.stats.lowered_bytes, i2.stats.lowered_bytes);
        assert_eq!(i1.stats.fused_ops, i2.stats.fused_ops);
    }
}
