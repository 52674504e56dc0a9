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
//!   `compare+br_if` (and `compare+if`) becomes a fused compare-and-branch,
//!   and `op+local.set` retargets the producer's destination slot. Each
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

use crate::instance::Instance;
use crate::instr::{read_instr, BrTableData, Instruction};
use crate::interp::SideTable;
use crate::module::Module;
use crate::numeric::{
    i32_div_s, i32_div_u, i32_rem_s, i32_rem_u, i64_div_s, i64_div_u, i64_rem_s, i64_rem_u,
    wasm_max_f32, wasm_max_f64, wasm_min_f32, wasm_min_f64,
};
use crate::types::BlockType;
use crate::values::{nearest_f32, nearest_f64, trunc, Slot, Trap, Value};

/// Opcode of one pre-decoded instruction word.
///
/// Operand conventions (slots are frame-relative `u16` indices):
/// * `a` — destination slot.
/// * `b` — first source slot (address slot for loads/stores).
/// * `c` — second source slot (value slot for stores).
/// * `imm` — 64-bit immediate: constant bits, memory offset, global index,
///   function/type index, branch target (low 32 bits), or br_table index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum Op {
    /// `a ← b`.
    Copy,
    /// `a ← imm` (raw slot bits).
    Const,
    /// `a ← r[imm] != 0 ? b : c`.
    Select,
    GlobalGet,
    GlobalSet,
    MemorySize,
    MemoryGrow,
    Unreachable,

    // Loads: `a ← mem[r[b] + imm]`.
    I32Load,
    I64Load,
    F32Load,
    F64Load,
    I32Load8S,
    I32Load8U,
    I32Load16S,
    I32Load16U,
    I64Load8S,
    I64Load8U,
    I64Load16S,
    I64Load16U,
    I64Load32S,
    I64Load32U,
    // Fused constant-address loads: `a ← mem[imm]`.
    I32LoadAt,
    I64LoadAt,
    F32LoadAt,
    F64LoadAt,

    // Stores: `mem[r[b] + imm] ← r[c]`.
    I32Store,
    I64Store,
    F32Store,
    F64Store,
    I32Store8,
    I32Store16,
    I64Store8,
    I64Store16,
    I64Store32,
    // Fused constant-address stores: `mem[imm] ← r[c]`.
    I32StoreAt,
    I64StoreAt,
    F32StoreAt,
    F64StoreAt,

    I32Eqz,
    I32Eq,
    I32Ne,
    I32LtS,
    I32LtU,
    I32GtS,
    I32GtU,
    I32LeS,
    I32LeU,
    I32GeS,
    I32GeU,
    I64Eqz,
    I64Eq,
    I64Ne,
    I64LtS,
    I64LtU,
    I64GtS,
    I64GtU,
    I64LeS,
    I64LeU,
    I64GeS,
    I64GeU,
    F32Eq,
    F32Ne,
    F32Lt,
    F32Gt,
    F32Le,
    F32Ge,
    F64Eq,
    F64Ne,
    F64Lt,
    F64Gt,
    F64Le,
    F64Ge,

    I32Clz,
    I32Ctz,
    I32Popcnt,
    I32Add,
    I32Sub,
    I32Mul,
    I32DivS,
    I32DivU,
    I32RemS,
    I32RemU,
    I32And,
    I32Or,
    I32Xor,
    I32Shl,
    I32ShrS,
    I32ShrU,
    I32Rotl,
    I32Rotr,
    // Fused const-operand forms: rhs in `imm` (raw slot bits).
    I32AddImm,
    I32SubImm,
    I32MulImm,
    I32AndImm,
    I32OrImm,
    I32XorImm,
    I32ShlImm,
    I32ShrSImm,
    I32ShrUImm,

    I64Clz,
    I64Ctz,
    I64Popcnt,
    I64Add,
    I64Sub,
    I64Mul,
    I64DivS,
    I64DivU,
    I64RemS,
    I64RemU,
    I64And,
    I64Or,
    I64Xor,
    I64Shl,
    I64ShrS,
    I64ShrU,
    I64Rotl,
    I64Rotr,

    F32Abs,
    F32Neg,
    F32Ceil,
    F32Floor,
    F32Trunc,
    F32Nearest,
    F32Sqrt,
    F32Add,
    F32Sub,
    F32Mul,
    F32Div,
    F32Min,
    F32Max,
    F32Copysign,
    F64Abs,
    F64Neg,
    F64Ceil,
    F64Floor,
    F64Trunc,
    F64Nearest,
    F64Sqrt,
    F64Add,
    F64Sub,
    F64Mul,
    F64Div,
    F64Min,
    F64Max,
    F64Copysign,

    I32WrapI64,
    I32TruncF32S,
    I32TruncF32U,
    I32TruncF64S,
    I32TruncF64U,
    I64ExtendI32S,
    I64ExtendI32U,
    I64TruncF32S,
    I64TruncF32U,
    I64TruncF64S,
    I64TruncF64U,
    F32ConvertI32S,
    F32ConvertI32U,
    F32ConvertI64S,
    F32ConvertI64U,
    F32DemoteF64,
    F64ConvertI32S,
    F64ConvertI32U,
    F64ConvertI64S,
    F64ConvertI64U,
    F64PromoteF32,

    /// Unconditional jump to `imm`.
    Br,
    /// Copy `c` slots from `b` to `a`, then jump to `imm` (branch with
    /// kept values that are not already in place).
    BrShuffle,
    /// Jump to `imm` when `r[b] == 0` (`if` entry, fused `eqz+br_if`).
    BrIfz,
    /// Jump to `imm` when `r[b] != 0`.
    BrIf,
    /// When `r[b] != 0`: copy `c` slots from `imm>>32` to `a`, jump to
    /// `imm & 0xffff_ffff`.
    BrIfShuffle,
    // Fused compare-and-branch: jump to `imm` when `r[b] <op> r[c]`.
    BrI32Eq,
    BrI32Ne,
    BrI32LtS,
    BrI32LtU,
    BrI32GtS,
    BrI32GtU,
    BrI32LeS,
    BrI32LeU,
    BrI32GeS,
    BrI32GeU,
    /// Select arm `r[b]` of side table `imm`, shuffle, jump.
    BrTable,
    /// Copy `result_count` slots from `b` to the frame base and pop the
    /// frame.
    Ret,
    /// Call function `imm`; `a` is the frame-relative argument base (the
    /// callee's frame base).
    Call,
    /// Call through the table: selector in `r[b]`, expected type `imm`,
    /// argument base `a`.
    CallIndirect,
}

/// One pre-decoded instruction word: 16 bytes, fixed width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpWord {
    pub code: Op,
    pub a: u16,
    pub b: u16,
    pub c: u16,
    pub imm: u64,
}

/// Branch targets live in the low 32 bits of `imm`; `BrIfShuffle` keeps its
/// source slot in the high bits.
const TARGET_MASK: u64 = 0xffff_ffff;

/// One resolved `br_table` arm: jump target plus the slot shuffle that
/// moves the kept values into the target block's canonical slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LBranch {
    pub target: u32,
    pub dst: u16,
    pub src: u16,
    pub arity: u16,
}

/// Side table of a lowered `br_table` (arms are too wide for an `OpWord`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LBrTable {
    pub arms: Vec<LBranch>,
    pub default: LBranch,
}

/// A function compiled to the pre-decoded register representation.
#[derive(Debug)]
pub struct LoweredFunc {
    pub ops: Vec<OpWord>,
    pub tables: Vec<LBrTable>,
    pub param_count: u16,
    /// Non-param locals (zeroed on entry).
    pub local_count: u16,
    pub result_count: u16,
    /// Total frame slots: params + locals + operand high-water mark.
    pub frame_size: u16,
    /// Superinstruction-fusion events during lowering (folded operands,
    /// immediate binops, fused compare-branches, retargeted `local.set`s…).
    pub fused: u32,
    /// Bytecode instructions decoded — compare against `ops.len()` for the
    /// fusion ratio.
    pub source_instrs: u32,
}

impl LoweredFunc {
    /// Resident bytes of the compiled representation — what the JIT/AOT
    /// engine profiles charge as "machine code" via `stats.lowered_bytes`.
    pub fn memory_bytes(&self) -> u64 {
        let base = self.ops.len() * std::mem::size_of::<OpWord>();
        let tables: usize = self
            .tables
            .iter()
            .map(|t| {
                std::mem::size_of::<LBrTable>() + t.arms.len() * std::mem::size_of::<LBranch>()
            })
            .sum();
        (base + tables) as u64
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
    If,
}

/// A forward-branch patch site: an op's target immediate, or one slot of a
/// `br_table` side table.
#[derive(Debug, Clone, Copy)]
enum Fixup {
    Op(usize),
    TableArm(usize, usize),
    TableDefault(usize),
}

struct Ctl {
    kind: CtlKind,
    /// Virtual-stack height under this construct's params.
    height: usize,
    params: u16,
    results: u16,
    /// Loop head (op index) for backward branches.
    head: u32,
    /// Sites patched to this construct's end.
    fixups: Vec<Fixup>,
    /// The conditional branch at an `if` opening (patched to the else arm
    /// or the end).
    else_fixup: Option<usize>,
    /// Whether the code *entering* this construct was reachable.
    entry_live: bool,
}

/// Branch resolution: arity, destination shuffle slot, and the target when
/// it is already known (loops).
struct BranchInfo {
    li: usize,
    arity: u16,
    dst: u16,
    target: Option<u32>,
}

struct Lowerer<'m> {
    module: &'m Module,
    ops: Vec<OpWord>,
    tables: Vec<LBrTable>,
    vstack: Vec<VEntry>,
    ctls: Vec<Ctl>,
    /// Params + declared locals; canonical slot of stack position `i` is
    /// `nlocals + i`.
    nlocals: u16,
    result_count: u16,
    max_height: usize,
    live: bool,
    fused: u32,
    source_instrs: u32,
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

    fn block_arity(&self, bt: BlockType) -> (u16, u16) {
        match bt {
            BlockType::Empty => (0, 0),
            BlockType::Value(_) => (0, 1),
            BlockType::Func(idx) => {
                let ft = &self.module.types[idx as usize];
                (ft.params.len() as u16, ft.results.len() as u16)
            }
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

    /// Zero-operand producer (`global.get`, `memory.size`).
    fn produce(&mut self, code: Op, imm: u64) {
        let dst = self.canon(self.vstack.len());
        self.emit(code, dst, 0, 0, imm);
        self.push_reg();
    }

    /// One-operand consumer (`global.set`).
    fn consume(&mut self, code: Op, imm: u64) {
        let x = self.vstack.len() - 1;
        let b = self.operand_slot(x);
        self.vstack.truncate(x);
        self.emit(code, 0, b, 0, imm);
    }

    fn load(&mut self, code: Op, at: Option<Op>, offset: u32) {
        let x = self.vstack.len() - 1;
        if let Some(atc) = at {
            if let Origin::Const(bits) = self.vstack[x].origin {
                let ea = Slot(bits).u32() as u64 + offset as u64;
                if ea <= u32::MAX as u64 {
                    let dst = self.canon(x);
                    self.vstack.truncate(x);
                    self.emit(atc, dst, 0, 0, ea);
                    self.fused += 1;
                    self.push_reg();
                    return;
                }
            }
        }
        let b = self.operand_slot(x);
        let dst = self.canon(x);
        self.vstack.truncate(x);
        self.emit(code, dst, b, 0, offset as u64);
        self.push_reg();
    }

    fn store(&mut self, code: Op, at: Option<Op>, offset: u32) {
        let v = self.vstack.len() - 1;
        let a = v - 1;
        let c = self.operand_slot(v);
        if let Some(atc) = at {
            if let Origin::Const(bits) = self.vstack[a].origin {
                let ea = Slot(bits).u32() as u64 + offset as u64;
                if ea <= u32::MAX as u64 {
                    self.vstack.truncate(a);
                    self.emit(atc, 0, 0, c, ea);
                    self.fused += 1;
                    return;
                }
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

    fn select(&mut self) {
        let cpos = self.vstack.len() - 1;
        let v2 = cpos - 1;
        let v1 = v2 - 1;
        if let Origin::Const(bits) = self.vstack[cpos].origin {
            // Statically decided select: keep one side, no op at all
            // unless the kept value needs to move.
            self.fused += 1;
            self.vstack.truncate(cpos);
            if Slot(bits).i32() != 0 {
                self.vstack.truncate(v2);
            } else {
                let e2 = self.vstack[v2];
                match e2.origin {
                    Origin::Reg => {
                        let src = self.canon(v2);
                        let dst = self.canon(v1);
                        self.vstack.truncate(v1);
                        self.emit(Op::Copy, dst, src, 0, 0);
                        self.push_reg();
                    }
                    origin => {
                        self.vstack.truncate(v1);
                        self.vstack.push(VEntry { origin, producer: NONE });
                    }
                }
            }
            return;
        }
        let cond = self.operand_slot(cpos);
        let c = self.operand_slot(v2);
        let b = self.operand_slot(v1);
        let dst = self.canon(v1);
        self.vstack.truncate(v1);
        self.emit(Op::Select, dst, b, c, cond as u64);
        self.push_reg();
    }

    fn branch_info(&self, depth: u32) -> BranchInfo {
        let li = self.ctls.len() - 1 - depth as usize;
        let ctl = &self.ctls[li];
        let dst = self.canon(ctl.height);
        if ctl.kind == CtlKind::Loop {
            BranchInfo { li, arity: ctl.params, dst, target: Some(ctl.head) }
        } else {
            BranchInfo { li, arity: ctl.results, dst, target: None }
        }
    }

    /// If the top of stack is the result of an i32 compare emitted as the
    /// immediately preceding op, return the fused branch opcode (inverted
    /// for `if`-entry "jump when false") plus its operand slots.
    fn try_fuse_cmp(&self, pos: usize, invert: bool) -> Option<(Op, u16, u16)> {
        let e = self.vstack[pos];
        if e.origin != Origin::Reg || e.producer == NONE {
            return None;
        }
        let p = e.producer as usize;
        if p != self.ops.len() - 1 {
            return None;
        }
        let w = self.ops[p];
        let code = match (w.code, invert) {
            (Op::I32Eqz, false) => Op::BrIfz,
            (Op::I32Eqz, true) => Op::BrIf,
            (Op::I32Eq, false) | (Op::I32Ne, true) => Op::BrI32Eq,
            (Op::I32Ne, false) | (Op::I32Eq, true) => Op::BrI32Ne,
            (Op::I32LtS, false) | (Op::I32GeS, true) => Op::BrI32LtS,
            (Op::I32LtU, false) | (Op::I32GeU, true) => Op::BrI32LtU,
            (Op::I32GtS, false) | (Op::I32LeS, true) => Op::BrI32GtS,
            (Op::I32GtU, false) | (Op::I32LeU, true) => Op::BrI32GtU,
            (Op::I32LeS, false) | (Op::I32GtS, true) => Op::BrI32LeS,
            (Op::I32LeU, false) | (Op::I32GtU, true) => Op::BrI32LeU,
            (Op::I32GeS, false) | (Op::I32LtS, true) => Op::BrI32GeS,
            (Op::I32GeU, false) | (Op::I32LtU, true) => Op::BrI32GeU,
            _ => return None,
        };
        Some((code, w.b, w.c))
    }

    fn patch(&mut self, fx: Fixup, target: u32) {
        match fx {
            Fixup::Op(i) => {
                let w = &mut self.ops[i];
                w.imm = (w.imm & !TARGET_MASK) | target as u64;
            }
            Fixup::TableArm(t, i) => self.tables[t].arms[i].target = target,
            Fixup::TableDefault(t) => self.tables[t].default.target = target,
        }
    }

    fn br(&mut self, depth: u32) {
        let info = self.branch_info(depth);
        let arity = info.arity as usize;
        self.materialize_top(arity);
        let src = self.canon(self.vstack.len().saturating_sub(arity));
        let target = info.target.unwrap_or(u32::MAX) as u64;
        let idx = if arity == 0 || src == info.dst {
            self.emit(Op::Br, 0, 0, 0, target)
        } else {
            self.emit(Op::BrShuffle, info.dst, src, info.arity, target)
        };
        if info.target.is_none() {
            self.ctls[info.li].fixups.push(Fixup::Op(idx));
        }
        self.live = false;
    }

    fn br_if(&mut self, depth: u32) {
        let cpos = self.vstack.len() - 1;
        let info = self.branch_info(depth);
        let arity = info.arity as usize;
        // Kept values must sit in canonical slots whether or not the
        // branch is taken, so materialize them before it.
        for i in cpos.saturating_sub(arity)..cpos {
            self.materialize(i);
        }
        let target = info.target.unwrap_or(u32::MAX) as u64;
        let idx;
        if arity == 0 {
            if let Some((code, b, c)) = self.try_fuse_cmp(cpos, false) {
                self.ops.pop();
                self.vstack.truncate(cpos);
                idx = self.emit(code, 0, b, c, target);
                self.fused += 1;
            } else {
                let cond = self.operand_slot(cpos);
                self.vstack.truncate(cpos);
                idx = self.emit(Op::BrIf, 0, cond, 0, target);
            }
        } else {
            let cond = self.operand_slot(cpos);
            let src = self.canon(cpos.saturating_sub(arity));
            if src == info.dst {
                idx = self.emit(Op::BrIf, 0, cond, 0, target);
            } else {
                let imm = target | ((src as u64) << 32);
                idx = self.emit(Op::BrIfShuffle, info.dst, cond, info.arity, imm);
            }
            self.vstack.truncate(cpos);
        }
        if info.target.is_none() {
            self.ctls[info.li].fixups.push(Fixup::Op(idx));
        }
    }

    fn br_table(&mut self, data: &BrTableData) {
        let spos = self.vstack.len() - 1;
        let sel = self.operand_slot(spos);
        let dinfo = self.branch_info(data.default);
        let arity = dinfo.arity as usize;
        for i in spos.saturating_sub(arity)..spos {
            self.materialize(i);
        }
        let src = self.canon(spos.saturating_sub(arity));
        let table_idx = self.tables.len();
        let mut arms = Vec::with_capacity(data.targets.len());
        for (i, &d) in data.targets.iter().enumerate() {
            let info = self.branch_info(d);
            let target = match info.target {
                Some(t) => t,
                None => {
                    self.ctls[info.li].fixups.push(Fixup::TableArm(table_idx, i));
                    u32::MAX
                }
            };
            arms.push(LBranch { target, dst: info.dst, src, arity: info.arity });
        }
        let dtarget = match dinfo.target {
            Some(t) => t,
            None => {
                self.ctls[dinfo.li].fixups.push(Fixup::TableDefault(table_idx));
                u32::MAX
            }
        };
        self.tables.push(LBrTable {
            arms,
            default: LBranch { target: dtarget, dst: dinfo.dst, src, arity: dinfo.arity },
        });
        self.vstack.truncate(spos.saturating_sub(arity));
        self.emit(Op::BrTable, 0, sel, 0, table_idx as u64);
        self.live = false;
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

    fn call_indirect(&mut self, type_idx: u32) -> Result<(), String> {
        let spos = self.vstack.len() - 1;
        let sel = self.operand_slot(spos);
        let module = self.module;
        let ft = module.types.get(type_idx as usize).ok_or("bad type index")?;
        let (n, r) = (ft.params.len(), ft.results.len());
        for i in spos.saturating_sub(n)..spos {
            self.materialize(i);
        }
        let base = spos.saturating_sub(n);
        let argbase = self.canon(base);
        self.vstack.truncate(base);
        self.emit(Op::CallIndirect, argbase, sel, 0, type_idx as u64);
        for _ in 0..r {
            self.push(Origin::Reg);
        }
        Ok(())
    }

    fn step(&mut self, instr: Instruction) -> Result<(), String> {
        use Instruction as I;
        match instr {
            I::Block(bt) => {
                let (params, results) = self.block_arity(bt);
                let height = self.vstack.len().saturating_sub(params as usize);
                self.ctls.push(Ctl {
                    kind: CtlKind::Block,
                    height,
                    params,
                    results,
                    head: 0,
                    fixups: Vec::new(),
                    else_fixup: None,
                    entry_live: self.live,
                });
            }
            I::Loop(bt) => {
                let (params, results) = self.block_arity(bt);
                // Back-branches expect loop params in canonical slots, so
                // pin them down before recording the head.
                if self.live {
                    self.materialize_top(params as usize);
                }
                let height = self.vstack.len().saturating_sub(params as usize);
                self.ctls.push(Ctl {
                    kind: CtlKind::Loop,
                    height,
                    params,
                    results,
                    head: self.ops.len() as u32,
                    fixups: Vec::new(),
                    else_fixup: None,
                    entry_live: self.live,
                });
            }
            I::If(bt) => {
                let (params, results) = self.block_arity(bt);
                let mut else_fixup = None;
                if self.live {
                    let cpos = self.vstack.len() - 1;
                    // Params must be canonical on both arms; materializing
                    // them first also disables compare fusion when it
                    // would be unsound (ops emitted after the compare).
                    for i in cpos.saturating_sub(params as usize)..cpos {
                        self.materialize(i);
                    }
                    if let Some((code, b, c)) = self.try_fuse_cmp(cpos, true) {
                        self.ops.pop();
                        self.vstack.truncate(cpos);
                        else_fixup = Some(self.emit(code, 0, b, c, u32::MAX as u64));
                        self.fused += 1;
                    } else {
                        let cond = self.operand_slot(cpos);
                        self.vstack.truncate(cpos);
                        else_fixup = Some(self.emit(Op::BrIfz, 0, cond, 0, u32::MAX as u64));
                    }
                }
                let height = self.vstack.len().saturating_sub(params as usize);
                self.ctls.push(Ctl {
                    kind: CtlKind::If,
                    height,
                    params,
                    results,
                    head: 0,
                    fixups: Vec::new(),
                    else_fixup,
                    entry_live: self.live,
                });
            }
            I::Else => {
                let li = self.ctls.len().checked_sub(1).ok_or("else outside if")?;
                if self.live {
                    let results = self.ctls[li].results;
                    self.materialize_top(results as usize);
                    let idx = self.emit(Op::Br, 0, 0, 0, u32::MAX as u64);
                    self.ctls[li].fixups.push(Fixup::Op(idx));
                }
                if let Some(fx) = self.ctls[li].else_fixup.take() {
                    let target = self.ops.len() as u32;
                    self.patch(Fixup::Op(fx), target);
                }
                let (height, params, entry_live) = {
                    let c = &self.ctls[li];
                    (c.height, c.params, c.entry_live)
                };
                self.live = entry_live;
                self.reset_stack(height, params);
            }
            I::End => {
                let ctl = self.ctls.pop().ok_or("unbalanced end")?;
                // Fall-through materialization runs *before* the end
                // target: branches arrive with values already shuffled
                // into the same canonical slots.
                if self.live {
                    self.materialize_top(ctl.results as usize);
                }
                let end_target = self.ops.len() as u32;
                if let Some(fx) = ctl.else_fixup {
                    self.patch(Fixup::Op(fx), end_target);
                }
                for fx in ctl.fixups {
                    self.patch(fx, end_target);
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
            I::BrTable(ref data) => {
                if self.live {
                    self.br_table(data);
                }
            }
            I::Return => {
                if self.live {
                    self.ret();
                }
            }
            I::Unreachable => {
                if self.live {
                    self.emit(Op::Unreachable, 0, 0, 0, 0);
                    self.live = false;
                }
            }
            I::Call(f) => {
                if self.live {
                    self.call(f)?;
                }
            }
            I::CallIndirect { type_idx, .. } => {
                if self.live {
                    self.call_indirect(type_idx)?;
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
            I::Nop => {}
            I::Drop => {
                self.vstack.pop();
            }
            I::Select => self.select(),
            I::LocalGet(k) => self.push(Origin::Local(*k as u16)),
            I::LocalSet(k) => self.local_set(*k as u16),
            I::LocalTee(k) => {
                self.local_set(*k as u16);
                self.push(Origin::Local(*k as u16));
            }
            I::GlobalGet(g) => self.produce(Op::GlobalGet, *g as u64),
            I::GlobalSet(g) => self.consume(Op::GlobalSet, *g as u64),
            I::MemorySize => self.produce(Op::MemorySize, 0),
            I::MemoryGrow => self.unop(Op::MemoryGrow),

            I::I32Const(v) => self.push(Origin::Const(Slot::from_i32(*v).0)),
            I::I64Const(v) => self.push(Origin::Const(Slot::from_i64(*v).0)),
            I::F32Const(v) => self.push(Origin::Const(Slot::from_f32(*v).0)),
            I::F64Const(v) => self.push(Origin::Const(Slot::from_f64(*v).0)),

            I::I32Load(m) => self.load(Op::I32Load, Some(Op::I32LoadAt), m.offset),
            I::I64Load(m) => self.load(Op::I64Load, Some(Op::I64LoadAt), m.offset),
            I::F32Load(m) => self.load(Op::F32Load, Some(Op::F32LoadAt), m.offset),
            I::F64Load(m) => self.load(Op::F64Load, Some(Op::F64LoadAt), m.offset),
            I::I32Load8S(m) => self.load(Op::I32Load8S, None, m.offset),
            I::I32Load8U(m) => self.load(Op::I32Load8U, None, m.offset),
            I::I32Load16S(m) => self.load(Op::I32Load16S, None, m.offset),
            I::I32Load16U(m) => self.load(Op::I32Load16U, None, m.offset),
            I::I64Load8S(m) => self.load(Op::I64Load8S, None, m.offset),
            I::I64Load8U(m) => self.load(Op::I64Load8U, None, m.offset),
            I::I64Load16S(m) => self.load(Op::I64Load16S, None, m.offset),
            I::I64Load16U(m) => self.load(Op::I64Load16U, None, m.offset),
            I::I64Load32S(m) => self.load(Op::I64Load32S, None, m.offset),
            I::I64Load32U(m) => self.load(Op::I64Load32U, None, m.offset),
            I::I32Store(m) => self.store(Op::I32Store, Some(Op::I32StoreAt), m.offset),
            I::I64Store(m) => self.store(Op::I64Store, Some(Op::I64StoreAt), m.offset),
            I::F32Store(m) => self.store(Op::F32Store, Some(Op::F32StoreAt), m.offset),
            I::F64Store(m) => self.store(Op::F64Store, Some(Op::F64StoreAt), m.offset),
            I::I32Store8(m) => self.store(Op::I32Store8, None, m.offset),
            I::I32Store16(m) => self.store(Op::I32Store16, None, m.offset),
            I::I64Store8(m) => self.store(Op::I64Store8, None, m.offset),
            I::I64Store16(m) => self.store(Op::I64Store16, None, m.offset),
            I::I64Store32(m) => self.store(Op::I64Store32, None, m.offset),

            I::I32Eqz => self.unop(Op::I32Eqz),
            I::I32Eq => self.binop(Op::I32Eq, None),
            I::I32Ne => self.binop(Op::I32Ne, None),
            I::I32LtS => self.binop(Op::I32LtS, None),
            I::I32LtU => self.binop(Op::I32LtU, None),
            I::I32GtS => self.binop(Op::I32GtS, None),
            I::I32GtU => self.binop(Op::I32GtU, None),
            I::I32LeS => self.binop(Op::I32LeS, None),
            I::I32LeU => self.binop(Op::I32LeU, None),
            I::I32GeS => self.binop(Op::I32GeS, None),
            I::I32GeU => self.binop(Op::I32GeU, None),
            I::I64Eqz => self.unop(Op::I64Eqz),
            I::I64Eq => self.binop(Op::I64Eq, None),
            I::I64Ne => self.binop(Op::I64Ne, None),
            I::I64LtS => self.binop(Op::I64LtS, None),
            I::I64LtU => self.binop(Op::I64LtU, None),
            I::I64GtS => self.binop(Op::I64GtS, None),
            I::I64GtU => self.binop(Op::I64GtU, None),
            I::I64LeS => self.binop(Op::I64LeS, None),
            I::I64LeU => self.binop(Op::I64LeU, None),
            I::I64GeS => self.binop(Op::I64GeS, None),
            I::I64GeU => self.binop(Op::I64GeU, None),
            I::F32Eq => self.binop(Op::F32Eq, None),
            I::F32Ne => self.binop(Op::F32Ne, None),
            I::F32Lt => self.binop(Op::F32Lt, None),
            I::F32Gt => self.binop(Op::F32Gt, None),
            I::F32Le => self.binop(Op::F32Le, None),
            I::F32Ge => self.binop(Op::F32Ge, None),
            I::F64Eq => self.binop(Op::F64Eq, None),
            I::F64Ne => self.binop(Op::F64Ne, None),
            I::F64Lt => self.binop(Op::F64Lt, None),
            I::F64Gt => self.binop(Op::F64Gt, None),
            I::F64Le => self.binop(Op::F64Le, None),
            I::F64Ge => self.binop(Op::F64Ge, None),

            I::I32Clz => self.unop(Op::I32Clz),
            I::I32Ctz => self.unop(Op::I32Ctz),
            I::I32Popcnt => self.unop(Op::I32Popcnt),
            I::I32Add => self.binop(Op::I32Add, Some(Op::I32AddImm)),
            I::I32Sub => self.binop(Op::I32Sub, Some(Op::I32SubImm)),
            I::I32Mul => self.binop(Op::I32Mul, Some(Op::I32MulImm)),
            I::I32DivS => self.binop(Op::I32DivS, None),
            I::I32DivU => self.binop(Op::I32DivU, None),
            I::I32RemS => self.binop(Op::I32RemS, None),
            I::I32RemU => self.binop(Op::I32RemU, None),
            I::I32And => self.binop(Op::I32And, Some(Op::I32AndImm)),
            I::I32Or => self.binop(Op::I32Or, Some(Op::I32OrImm)),
            I::I32Xor => self.binop(Op::I32Xor, Some(Op::I32XorImm)),
            I::I32Shl => self.binop(Op::I32Shl, Some(Op::I32ShlImm)),
            I::I32ShrS => self.binop(Op::I32ShrS, Some(Op::I32ShrSImm)),
            I::I32ShrU => self.binop(Op::I32ShrU, Some(Op::I32ShrUImm)),
            I::I32Rotl => self.binop(Op::I32Rotl, None),
            I::I32Rotr => self.binop(Op::I32Rotr, None),
            I::I64Clz => self.unop(Op::I64Clz),
            I::I64Ctz => self.unop(Op::I64Ctz),
            I::I64Popcnt => self.unop(Op::I64Popcnt),
            I::I64Add => self.binop(Op::I64Add, None),
            I::I64Sub => self.binop(Op::I64Sub, None),
            I::I64Mul => self.binop(Op::I64Mul, None),
            I::I64DivS => self.binop(Op::I64DivS, None),
            I::I64DivU => self.binop(Op::I64DivU, None),
            I::I64RemS => self.binop(Op::I64RemS, None),
            I::I64RemU => self.binop(Op::I64RemU, None),
            I::I64And => self.binop(Op::I64And, None),
            I::I64Or => self.binop(Op::I64Or, None),
            I::I64Xor => self.binop(Op::I64Xor, None),
            I::I64Shl => self.binop(Op::I64Shl, None),
            I::I64ShrS => self.binop(Op::I64ShrS, None),
            I::I64ShrU => self.binop(Op::I64ShrU, None),
            I::I64Rotl => self.binop(Op::I64Rotl, None),
            I::I64Rotr => self.binop(Op::I64Rotr, None),

            I::F32Abs => self.unop(Op::F32Abs),
            I::F32Neg => self.unop(Op::F32Neg),
            I::F32Ceil => self.unop(Op::F32Ceil),
            I::F32Floor => self.unop(Op::F32Floor),
            I::F32Trunc => self.unop(Op::F32Trunc),
            I::F32Nearest => self.unop(Op::F32Nearest),
            I::F32Sqrt => self.unop(Op::F32Sqrt),
            I::F32Add => self.binop(Op::F32Add, None),
            I::F32Sub => self.binop(Op::F32Sub, None),
            I::F32Mul => self.binop(Op::F32Mul, None),
            I::F32Div => self.binop(Op::F32Div, None),
            I::F32Min => self.binop(Op::F32Min, None),
            I::F32Max => self.binop(Op::F32Max, None),
            I::F32Copysign => self.binop(Op::F32Copysign, None),
            I::F64Abs => self.unop(Op::F64Abs),
            I::F64Neg => self.unop(Op::F64Neg),
            I::F64Ceil => self.unop(Op::F64Ceil),
            I::F64Floor => self.unop(Op::F64Floor),
            I::F64Trunc => self.unop(Op::F64Trunc),
            I::F64Nearest => self.unop(Op::F64Nearest),
            I::F64Sqrt => self.unop(Op::F64Sqrt),
            I::F64Add => self.binop(Op::F64Add, None),
            I::F64Sub => self.binop(Op::F64Sub, None),
            I::F64Mul => self.binop(Op::F64Mul, None),
            I::F64Div => self.binop(Op::F64Div, None),
            I::F64Min => self.binop(Op::F64Min, None),
            I::F64Max => self.binop(Op::F64Max, None),
            I::F64Copysign => self.binop(Op::F64Copysign, None),

            I::I32WrapI64 => self.unop(Op::I32WrapI64),
            I::I32TruncF32S => self.unop(Op::I32TruncF32S),
            I::I32TruncF32U => self.unop(Op::I32TruncF32U),
            I::I32TruncF64S => self.unop(Op::I32TruncF64S),
            I::I32TruncF64U => self.unop(Op::I32TruncF64U),
            I::I64ExtendI32S => self.unop(Op::I64ExtendI32S),
            I::I64ExtendI32U => self.unop(Op::I64ExtendI32U),
            I::I64TruncF32S => self.unop(Op::I64TruncF32S),
            I::I64TruncF32U => self.unop(Op::I64TruncF32U),
            I::I64TruncF64S => self.unop(Op::I64TruncF64S),
            I::I64TruncF64U => self.unop(Op::I64TruncF64U),
            I::F32ConvertI32S => self.unop(Op::F32ConvertI32S),
            I::F32ConvertI32U => self.unop(Op::F32ConvertI32U),
            I::F32ConvertI64S => self.unop(Op::F32ConvertI64S),
            I::F32ConvertI64U => self.unop(Op::F32ConvertI64U),
            I::F32DemoteF64 => self.unop(Op::F32DemoteF64),
            I::F64ConvertI32S => self.unop(Op::F64ConvertI32S),
            I::F64ConvertI32U => self.unop(Op::F64ConvertI32U),
            I::F64ConvertI64S => self.unop(Op::F64ConvertI64S),
            I::F64ConvertI64U => self.unop(Op::F64ConvertI64U),
            I::F64PromoteF32 => self.unop(Op::F64PromoteF32),
            // Reinterprets keep the slot bits as-is: the op disappears.
            I::I32ReinterpretF32
            | I::I64ReinterpretF64
            | I::F32ReinterpretI32
            | I::F64ReinterpretI64 => self.fused += 1,

            I::Unreachable
            | I::Block(_)
            | I::Loop(_)
            | I::If(_)
            | I::Else
            | I::End
            | I::Br(_)
            | I::BrIf(_)
            | I::BrTable(_)
            | I::Return
            | I::Call(_)
            | I::CallIndirect { .. } => unreachable!("control op in simple(): {i:?}"),
        }
    }
}

/// Compile one (validated) function into the pre-decoded representation.
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
        tables: Vec::new(),
        vstack: Vec::new(),
        ctls: vec![Ctl {
            kind: CtlKind::Func,
            height: 0,
            params: 0,
            results: result_count,
            head: 0,
            fixups: Vec::new(),
            else_fixup: None,
            entry_live: true,
        }],
        nlocals: local_total as u16,
        result_count,
        max_height: 0,
        live: true,
        fused: 0,
        source_instrs: 0,
    };

    let code = &body.code;
    let mut pos = 0usize;
    while pos < code.len() && !lo.ctls.is_empty() {
        let (instr, n) = read_instr(&code[pos..]).map_err(|e| e.to_string())?;
        pos += n;
        lo.source_instrs += 1;
        lo.step(instr)?;
    }
    let frame = local_total + lo.max_height;
    if frame > u16::MAX as usize {
        return Err("frame too large for the lowered tier".into());
    }
    Ok(LoweredFunc {
        ops: lo.ops,
        tables: lo.tables,
        param_count: param_count as u16,
        local_count: (local_total - param_count) as u16,
        result_count,
        frame_size: frame as u16,
        fused: lo.fused,
        source_instrs: lo.source_instrs,
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
                cur.pc = (w.imm & TARGET_MASK) as usize
            };
        }
        macro_rules! bin {
            ($get:ident, $from:ident, $f:expr) => {{
                let x = r!(w.b).$get();
                let y = r!(w.c).$get();
                r!(w.a) = Slot::$from($f(x, y));
            }};
        }
        macro_rules! bin_try {
            ($get:ident, $from:ident, $f:expr) => {{
                let x = r!(w.b).$get();
                let y = r!(w.c).$get();
                r!(w.a) = Slot::$from(tri!($f(x, y)));
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
        macro_rules! shuffle {
            ($dst:expr, $src:expr, $n:expr) => {{
                let d = cur.base + $dst as usize;
                let s = cur.base + $src as usize;
                if d != s {
                    regs.copy_within(s..s + $n as usize, d);
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
                    if frames.len() + 1 >= inst.config.max_call_depth {
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
                Op::Select => {
                    let v = if r!(w.imm as u16).i32() != 0 { r!(w.b) } else { r!(w.c) };
                    r!(w.a) = v;
                }
                Op::GlobalGet => r!(w.a) = inst.globals[w.imm as usize],
                Op::GlobalSet => inst.globals[w.imm as usize] = r!(w.b),
                Op::MemorySize => {
                    let pages = mem!().size_pages();
                    r!(w.a) = Slot::from_u32(pages);
                }
                Op::MemoryGrow => {
                    let delta = r!(w.b).u32();
                    let grown = mem!().grow(delta);
                    r!(w.a) = Slot::from_i32(grown);
                }
                Op::Unreachable => trap!(Trap::Unreachable),

                Op::I32Load => ld!(4, |b| Slot::from_u32(u32::from_le_bytes(b))),
                Op::I64Load => ld!(8, |b| Slot::from_u64(u64::from_le_bytes(b))),
                Op::F32Load => ld!(4, |b| Slot::from_u32(u32::from_le_bytes(b))),
                Op::F64Load => ld!(8, |b| Slot::from_u64(u64::from_le_bytes(b))),
                Op::I32Load8S => ld!(1, |b: [u8; 1]| Slot::from_i32(b[0] as i8 as i32)),
                Op::I32Load8U => ld!(1, |b: [u8; 1]| Slot::from_u32(b[0] as u32)),
                Op::I32Load16S => ld!(2, |b| Slot::from_i32(i16::from_le_bytes(b) as i32)),
                Op::I32Load16U => ld!(2, |b| Slot::from_u32(u16::from_le_bytes(b) as u32)),
                Op::I64Load8S => ld!(1, |b: [u8; 1]| Slot::from_i64(b[0] as i8 as i64)),
                Op::I64Load8U => ld!(1, |b: [u8; 1]| Slot::from_u64(b[0] as u64)),
                Op::I64Load16S => ld!(2, |b| Slot::from_i64(i16::from_le_bytes(b) as i64)),
                Op::I64Load16U => ld!(2, |b| Slot::from_u64(u16::from_le_bytes(b) as u64)),
                Op::I64Load32S => ld!(4, |b| Slot::from_i64(i32::from_le_bytes(b) as i64)),
                Op::I64Load32U => ld!(4, |b| Slot::from_u64(u32::from_le_bytes(b) as u64)),
                Op::I32LoadAt => ldat!(4, |b| Slot::from_u32(u32::from_le_bytes(b))),
                Op::I64LoadAt => ldat!(8, |b| Slot::from_u64(u64::from_le_bytes(b))),
                Op::F32LoadAt => ldat!(4, |b| Slot::from_u32(u32::from_le_bytes(b))),
                Op::F64LoadAt => ldat!(8, |b| Slot::from_u64(u64::from_le_bytes(b))),

                Op::I32Store => st!(u32, |v: u32| v.to_le_bytes()),
                Op::I64Store => st!(u64, |v: u64| v.to_le_bytes()),
                Op::F32Store => st!(u32, |v: u32| v.to_le_bytes()),
                Op::F64Store => st!(u64, |v: u64| v.to_le_bytes()),
                Op::I32Store8 => st!(u32, |v: u32| [v as u8]),
                Op::I32Store16 => st!(u32, |v: u32| (v as u16).to_le_bytes()),
                Op::I64Store8 => st!(u64, |v: u64| [v as u8]),
                Op::I64Store16 => st!(u64, |v: u64| (v as u16).to_le_bytes()),
                Op::I64Store32 => st!(u64, |v: u64| (v as u32).to_le_bytes()),
                Op::I32StoreAt => stat!(u32, |v: u32| v.to_le_bytes()),
                Op::I64StoreAt => stat!(u64, |v: u64| v.to_le_bytes()),
                Op::F32StoreAt => stat!(u32, |v: u32| v.to_le_bytes()),
                Op::F64StoreAt => stat!(u64, |v: u64| v.to_le_bytes()),

                Op::I32Eqz => un!(i32, from_bool, |x| x == 0),
                Op::I32Eq => rel!(i32, i32::eq),
                Op::I32Ne => rel!(i32, i32::ne),
                Op::I32LtS => rel!(i32, i32::lt),
                Op::I32LtU => rel!(u32, u32::lt),
                Op::I32GtS => rel!(i32, i32::gt),
                Op::I32GtU => rel!(u32, u32::gt),
                Op::I32LeS => rel!(i32, i32::le),
                Op::I32LeU => rel!(u32, u32::le),
                Op::I32GeS => rel!(i32, i32::ge),
                Op::I32GeU => rel!(u32, u32::ge),
                Op::I64Eqz => un!(i64, from_bool, |x| x == 0),
                Op::I64Eq => rel!(i64, i64::eq),
                Op::I64Ne => rel!(i64, i64::ne),
                Op::I64LtS => rel!(i64, i64::lt),
                Op::I64LtU => rel!(u64, u64::lt),
                Op::I64GtS => rel!(i64, i64::gt),
                Op::I64GtU => rel!(u64, u64::gt),
                Op::I64LeS => rel!(i64, i64::le),
                Op::I64LeU => rel!(u64, u64::le),
                Op::I64GeS => rel!(i64, i64::ge),
                Op::I64GeU => rel!(u64, u64::ge),
                Op::F32Eq => rel!(f32, |a: &f32, b: &f32| a == b),
                Op::F32Ne => rel!(f32, |a: &f32, b: &f32| a != b),
                Op::F32Lt => rel!(f32, |a: &f32, b: &f32| a < b),
                Op::F32Gt => rel!(f32, |a: &f32, b: &f32| a > b),
                Op::F32Le => rel!(f32, |a: &f32, b: &f32| a <= b),
                Op::F32Ge => rel!(f32, |a: &f32, b: &f32| a >= b),
                Op::F64Eq => rel!(f64, |a: &f64, b: &f64| a == b),
                Op::F64Ne => rel!(f64, |a: &f64, b: &f64| a != b),
                Op::F64Lt => rel!(f64, |a: &f64, b: &f64| a < b),
                Op::F64Gt => rel!(f64, |a: &f64, b: &f64| a > b),
                Op::F64Le => rel!(f64, |a: &f64, b: &f64| a <= b),
                Op::F64Ge => rel!(f64, |a: &f64, b: &f64| a >= b),

                Op::I32Clz => un!(u32, from_u32, |x: u32| x.leading_zeros()),
                Op::I32Ctz => un!(u32, from_u32, |x: u32| x.trailing_zeros()),
                Op::I32Popcnt => un!(u32, from_u32, |x: u32| x.count_ones()),
                Op::I32Add => bin!(i32, from_i32, i32::wrapping_add),
                Op::I32Sub => bin!(i32, from_i32, i32::wrapping_sub),
                Op::I32Mul => bin!(i32, from_i32, i32::wrapping_mul),
                Op::I32DivS => bin_try!(i32, from_i32, i32_div_s),
                Op::I32DivU => bin_try!(u32, from_u32, i32_div_u),
                Op::I32RemS => bin_try!(i32, from_i32, i32_rem_s),
                Op::I32RemU => bin_try!(u32, from_u32, i32_rem_u),
                Op::I32And => bin!(u32, from_u32, |x, y| x & y),
                Op::I32Or => bin!(u32, from_u32, |x, y| x | y),
                Op::I32Xor => bin!(u32, from_u32, |x, y| x ^ y),
                Op::I32Shl => bin!(u32, from_u32, |x: u32, y: u32| x.wrapping_shl(y)),
                Op::I32ShrS => {
                    let x = r!(w.b).i32();
                    let y = r!(w.c).u32();
                    r!(w.a) = Slot::from_i32(x.wrapping_shr(y));
                }
                Op::I32ShrU => bin!(u32, from_u32, |x: u32, y: u32| x.wrapping_shr(y)),
                Op::I32Rotl => bin!(u32, from_u32, |x: u32, y: u32| x.rotate_left(y & 31)),
                Op::I32Rotr => bin!(u32, from_u32, |x: u32, y: u32| x.rotate_right(y & 31)),
                Op::I32AddImm => binimm!(i32, from_i32, i32::wrapping_add),
                Op::I32SubImm => binimm!(i32, from_i32, i32::wrapping_sub),
                Op::I32MulImm => binimm!(i32, from_i32, i32::wrapping_mul),
                Op::I32AndImm => binimm!(u32, from_u32, |x, y| x & y),
                Op::I32OrImm => binimm!(u32, from_u32, |x, y| x | y),
                Op::I32XorImm => binimm!(u32, from_u32, |x, y| x ^ y),
                Op::I32ShlImm => binimm!(u32, from_u32, |x: u32, y: u32| x.wrapping_shl(y)),
                Op::I32ShrSImm => {
                    let x = r!(w.b).i32();
                    let y = Slot(w.imm).u32();
                    r!(w.a) = Slot::from_i32(x.wrapping_shr(y));
                }
                Op::I32ShrUImm => binimm!(u32, from_u32, |x: u32, y: u32| x.wrapping_shr(y)),

                Op::I64Clz => un!(u64, from_u64, |x: u64| x.leading_zeros() as u64),
                Op::I64Ctz => un!(u64, from_u64, |x: u64| x.trailing_zeros() as u64),
                Op::I64Popcnt => un!(u64, from_u64, |x: u64| x.count_ones() as u64),
                Op::I64Add => bin!(i64, from_i64, i64::wrapping_add),
                Op::I64Sub => bin!(i64, from_i64, i64::wrapping_sub),
                Op::I64Mul => bin!(i64, from_i64, i64::wrapping_mul),
                Op::I64DivS => bin_try!(i64, from_i64, i64_div_s),
                Op::I64DivU => bin_try!(u64, from_u64, i64_div_u),
                Op::I64RemS => bin_try!(i64, from_i64, i64_rem_s),
                Op::I64RemU => bin_try!(u64, from_u64, i64_rem_u),
                Op::I64And => bin!(u64, from_u64, |x, y| x & y),
                Op::I64Or => bin!(u64, from_u64, |x, y| x | y),
                Op::I64Xor => bin!(u64, from_u64, |x, y| x ^ y),
                Op::I64Shl => bin!(u64, from_u64, |x: u64, y: u64| x.wrapping_shl(y as u32)),
                Op::I64ShrS => {
                    let x = r!(w.b).i64();
                    let y = r!(w.c).u64();
                    r!(w.a) = Slot::from_i64(x.wrapping_shr(y as u32));
                }
                Op::I64ShrU => bin!(u64, from_u64, |x: u64, y: u64| x.wrapping_shr(y as u32)),
                Op::I64Rotl => bin!(u64, from_u64, |x: u64, y: u64| x.rotate_left((y & 63) as u32)),
                Op::I64Rotr => {
                    bin!(u64, from_u64, |x: u64, y: u64| x.rotate_right((y & 63) as u32))
                }

                Op::F32Abs => un!(f32, from_f32, f32::abs),
                Op::F32Neg => un!(f32, from_f32, |x: f32| -x),
                Op::F32Ceil => un!(f32, from_f32, f32::ceil),
                Op::F32Floor => un!(f32, from_f32, f32::floor),
                Op::F32Trunc => un!(f32, from_f32, f32::trunc),
                Op::F32Nearest => un!(f32, from_f32, nearest_f32),
                Op::F32Sqrt => un!(f32, from_f32, f32::sqrt),
                Op::F32Add => bin!(f32, from_f32, |x, y| x + y),
                Op::F32Sub => bin!(f32, from_f32, |x, y| x - y),
                Op::F32Mul => bin!(f32, from_f32, |x, y| x * y),
                Op::F32Div => bin!(f32, from_f32, |x, y| x / y),
                Op::F32Min => bin!(f32, from_f32, wasm_min_f32),
                Op::F32Max => bin!(f32, from_f32, wasm_max_f32),
                Op::F32Copysign => bin!(f32, from_f32, f32::copysign),
                Op::F64Abs => un!(f64, from_f64, f64::abs),
                Op::F64Neg => un!(f64, from_f64, |x: f64| -x),
                Op::F64Ceil => un!(f64, from_f64, f64::ceil),
                Op::F64Floor => un!(f64, from_f64, f64::floor),
                Op::F64Trunc => un!(f64, from_f64, f64::trunc),
                Op::F64Nearest => un!(f64, from_f64, nearest_f64),
                Op::F64Sqrt => un!(f64, from_f64, f64::sqrt),
                Op::F64Add => bin!(f64, from_f64, |x, y| x + y),
                Op::F64Sub => bin!(f64, from_f64, |x, y| x - y),
                Op::F64Mul => bin!(f64, from_f64, |x, y| x * y),
                Op::F64Div => bin!(f64, from_f64, |x, y| x / y),
                Op::F64Min => bin!(f64, from_f64, wasm_min_f64),
                Op::F64Max => bin!(f64, from_f64, wasm_max_f64),
                Op::F64Copysign => bin!(f64, from_f64, f64::copysign),

                Op::I32WrapI64 => un!(i64, from_i32, |x: i64| x as i32),
                Op::I32TruncF32S => {
                    let x = r!(w.b).f32();
                    r!(w.a) = Slot::from_i32(tri!(trunc::i32_from_f32(x)));
                }
                Op::I32TruncF32U => {
                    let x = r!(w.b).f32();
                    r!(w.a) = Slot::from_u32(tri!(trunc::u32_from_f32(x)));
                }
                Op::I32TruncF64S => {
                    let x = r!(w.b).f64();
                    r!(w.a) = Slot::from_i32(tri!(trunc::i32_from_f64(x)));
                }
                Op::I32TruncF64U => {
                    let x = r!(w.b).f64();
                    r!(w.a) = Slot::from_u32(tri!(trunc::u32_from_f64(x)));
                }
                Op::I64ExtendI32S => un!(i32, from_i64, |x: i32| x as i64),
                Op::I64ExtendI32U => un!(u32, from_u64, |x: u32| x as u64),
                Op::I64TruncF32S => {
                    let x = r!(w.b).f32();
                    r!(w.a) = Slot::from_i64(tri!(trunc::i64_from_f32(x)));
                }
                Op::I64TruncF32U => {
                    let x = r!(w.b).f32();
                    r!(w.a) = Slot::from_u64(tri!(trunc::u64_from_f32(x)));
                }
                Op::I64TruncF64S => {
                    let x = r!(w.b).f64();
                    r!(w.a) = Slot::from_i64(tri!(trunc::i64_from_f64(x)));
                }
                Op::I64TruncF64U => {
                    let x = r!(w.b).f64();
                    r!(w.a) = Slot::from_u64(tri!(trunc::u64_from_f64(x)));
                }
                Op::F32ConvertI32S => un!(i32, from_f32, |x: i32| x as f32),
                Op::F32ConvertI32U => un!(u32, from_f32, |x: u32| x as f32),
                Op::F32ConvertI64S => un!(i64, from_f32, |x: i64| x as f32),
                Op::F32ConvertI64U => un!(u64, from_f32, |x: u64| x as f32),
                Op::F32DemoteF64 => un!(f64, from_f32, |x: f64| x as f32),
                Op::F64ConvertI32S => un!(i32, from_f64, |x: i32| x as f64),
                Op::F64ConvertI32U => un!(u32, from_f64, |x: u32| x as f64),
                Op::F64ConvertI64S => un!(i64, from_f64, |x: i64| x as f64),
                Op::F64ConvertI64U => un!(u64, from_f64, |x: u64| x as f64),
                Op::F64PromoteF32 => un!(f32, from_f64, |x: f32| x as f64),

                Op::Br => jump!(),
                Op::BrShuffle => {
                    shuffle!(w.a, w.b, w.c);
                    jump!();
                }
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
                Op::BrIfShuffle => {
                    if r!(w.b).i32() != 0 {
                        let src = (w.imm >> 32) as u16;
                        shuffle!(w.a, src, w.c);
                        jump!();
                    }
                }
                Op::BrI32Eq => brrel!(i32, |x, y| x == y),
                Op::BrI32Ne => brrel!(i32, |x, y| x != y),
                Op::BrI32LtS => brrel!(i32, |x, y| x < y),
                Op::BrI32LtU => brrel!(u32, |x, y| x < y),
                Op::BrI32GtS => brrel!(i32, |x, y| x > y),
                Op::BrI32GtU => brrel!(u32, |x, y| x > y),
                Op::BrI32LeS => brrel!(i32, |x, y| x <= y),
                Op::BrI32LeU => brrel!(u32, |x, y| x <= y),
                Op::BrI32GeS => brrel!(i32, |x, y| x >= y),
                Op::BrI32GeU => brrel!(u32, |x, y| x >= y),
                Op::BrTable => {
                    let sel = r!(w.b).u32() as usize;
                    let br = {
                        let t = &cur.func.tables[w.imm as usize];
                        *t.arms.get(sel).unwrap_or(&t.default)
                    };
                    if br.arity > 0 {
                        shuffle!(br.dst, br.src, br.arity);
                    }
                    cur.pc = br.target as usize;
                }
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
                Op::CallIndirect => {
                    // Read the selector *before* the callee's locals are
                    // zeroed: it lives just past the argument window, inside
                    // the callee's frame.
                    let elem = r!(w.b).u32();
                    let f = tri!(inst.resolve_indirect(w.imm as u32, elem));
                    do_call!(f)
                }
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
            f.block(BlockType::Empty, |f| {
                f.loop_(BlockType::Empty, |f| {
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
        assert!(
            lf.ops.len() < lf.source_instrs as usize,
            "{} ops from {} bytecode instrs — fusion should shrink the stream",
            lf.ops.len(),
            lf.source_instrs
        );
    }

    #[test]
    fn loops_and_branches_execute() {
        let mut inst = lowered_instance(sum_to_builder());
        assert_eq!(inst.invoke("sum_to", &[Value::I32(100)]).unwrap(), vec![Value::I32(5050)]);
    }

    #[test]
    fn if_else_both_arms() {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            f.local_get(0);
            f.if_else(
                BlockType::Value(ValType::I32),
                |f| {
                    f.i32_const(10);
                },
                |f| {
                    f.i32_const(20);
                },
            );
        });
        b.export_func("pick", f);
        let mut inst = lowered_instance(b);
        assert_eq!(inst.invoke("pick", &[Value::I32(1)]).unwrap(), vec![Value::I32(10)]);
        assert_eq!(inst.invoke("pick", &[Value::I32(0)]).unwrap(), vec![Value::I32(20)]);
    }

    #[test]
    fn dead_code_is_eliminated() {
        let mut b = ModuleBuilder::new();
        b.func(FuncType::new(vec![], vec![ValType::I32]), |f| {
            f.i32_const(1).return_();
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
    fn br_table_lowered() {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            f.block(BlockType::Value(ValType::I32), |f| {
                f.block(BlockType::Empty, |f| {
                    f.block(BlockType::Empty, |f| {
                        f.local_get(0).br_table(vec![0, 1], 1);
                    });
                    f.i32_const(7).br(1);
                });
                f.i32_const(8);
            });
        });
        b.export_func("t", f);
        let mut inst = lowered_instance(b);
        assert_eq!(inst.invoke("t", &[Value::I32(0)]).unwrap(), vec![Value::I32(7)]);
        assert_eq!(inst.invoke("t", &[Value::I32(1)]).unwrap(), vec![Value::I32(8)]);
        assert_eq!(inst.invoke("t", &[Value::I32(99)]).unwrap(), vec![Value::I32(8)]);
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
