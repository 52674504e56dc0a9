//! Property-based tests for the Wasm core (on the offline `simkernel::prop`
//! harness):
//!
//! * LEB128 round-trips for the full value ranges;
//! * instruction encode/decode round-trips over arbitrary instructions;
//! * module encode→decode round-trips over arbitrary structured modules;
//! * **tier equivalence**: random straight-line programs match a reference
//!   evaluator on both tiers, and random *structured* programs (nested
//!   `block`/`loop`/`if` with results and params, value-carrying `br` /
//!   `br_if` / `br_table`, `return`, direct and indirect calls, loads and
//!   stores, host calls) leave the in-place interpreter and the lowered
//!   executor with the same result or trap, globals, memory and host-call
//!   log — the property that makes the engine comparison meaningful. A
//!   disagreement is shrunk to a minimal program before it is reported.

use std::sync::Arc;

use simkernel::prop::check;
use simkernel::rng::SplitMix64;
use wasm_core::instr::{read_instr, write_instr, BrTableData, MemArg};
use wasm_core::interp::SideTable;
use wasm_core::module::{ConstExpr, DataSegment, Export, ExportDesc, FuncBody, Global};
use wasm_core::types::{BlockType, GlobalType, Limits, MemoryType};
use wasm_core::{
    decode_module, encode_module, leb128, validate_module, ExecTier, FuncBuilder, FuncType,
    Imports, Instance, InstanceConfig, Instruction as I, Module, ModuleBuilder, Trap, ValType,
    Value,
};

#[test]
fn leb128_u32_roundtrip() {
    check("leb128_u32_roundtrip", 256, |g| {
        let v = g.next_u32();
        let mut buf = Vec::new();
        leb128::write_u32(&mut buf, v);
        let (got, n) = leb128::read_u32(&buf).unwrap();
        assert_eq!(got, v);
        assert_eq!(n, buf.len());
    });
    // Edge values the uniform stream is unlikely to hit.
    for v in [0u32, 1, 127, 128, u32::MAX] {
        let mut buf = Vec::new();
        leb128::write_u32(&mut buf, v);
        assert_eq!(leb128::read_u32(&buf).unwrap(), (v, buf.len()));
    }
}

#[test]
fn leb128_i64_roundtrip() {
    check("leb128_i64_roundtrip", 256, |g| {
        let v = g.next_i64();
        let mut buf = Vec::new();
        leb128::write_i64(&mut buf, v);
        let (got, n) = leb128::read_i64(&buf).unwrap();
        assert_eq!(got, v);
        assert_eq!(n, buf.len());
    });
    for v in [0i64, -1, 63, 64, -64, -65, i64::MIN, i64::MAX] {
        let mut buf = Vec::new();
        leb128::write_i64(&mut buf, v);
        assert_eq!(leb128::read_i64(&buf).unwrap(), (v, buf.len()));
    }
}

#[test]
fn leb128_rejects_truncation() {
    check("leb128_rejects_truncation", 256, |g| {
        let v = g.range_u64(128, u32::MAX as u64 + 1) as u32;
        let mut buf = Vec::new();
        leb128::write_u32(&mut buf, v);
        buf.pop();
        assert!(leb128::read_u32(&buf).is_err());
    });
}

fn gen_instruction(g: &mut SplitMix64) -> I {
    match g.index(26) {
        0 => I::Unreachable,
        1 => I::Nop,
        2 => I::Drop,
        3 => I::Select,
        4 => I::Return,
        5 => I::End,
        6 => I::MemorySize,
        7 => I::MemoryGrow,
        8 => I::Br(g.next_u32()),
        9 => I::BrIf(g.next_u32()),
        10 => I::Call(g.next_u32()),
        11 => I::LocalGet(g.next_u32()),
        12 => I::GlobalSet(g.next_u32()),
        13 => I::I32Const(g.next_i32()),
        14 => I::I64Const(g.next_i64()),
        15 => I::F32Const(g.next_f32()),
        16 => I::F64Const(g.next_f64()),
        17 => I::I32Load(MemArg { align: g.next_u32(), offset: g.next_u32() }),
        18 => I::I64Store(MemArg { align: g.next_u32(), offset: g.next_u32() }),
        19 => {
            let targets = (0..g.index(8)).map(|_| g.next_u32()).collect();
            I::BrTable(Box::new(BrTableData { targets, default: g.next_u32() }))
        }
        20 => I::Block(*g.choose(&[
            BlockType::Empty,
            BlockType::Value(ValType::I32),
            BlockType::Value(ValType::F64),
        ])),
        21 => I::I32Add,
        22 => I::I64Rotr,
        23 => I::F32Sqrt,
        24 => I::F64Copysign,
        25 => I::I32TruncF64U,
        _ => I::F64ReinterpretI64,
    }
}

#[test]
fn instruction_roundtrip() {
    check("instruction_roundtrip", 512, |g| {
        let i = gen_instruction(g);
        let mut buf = Vec::new();
        write_instr(&mut buf, &i);
        let (got, n) = read_instr(&buf).unwrap();
        assert_eq!(n, buf.len());
        // NaN payloads survive bitwise; compare via re-encoding.
        let mut buf2 = Vec::new();
        write_instr(&mut buf2, &got);
        assert_eq!(buf, buf2);
    });
}

fn gen_valtype(g: &mut SplitMix64) -> ValType {
    *g.choose(&[ValType::I32, ValType::I64, ValType::F32, ValType::F64])
}

fn gen_functype(g: &mut SplitMix64) -> FuncType {
    let params = (0..g.index(5)).map(|_| gen_valtype(g)).collect();
    let results = (0..g.index(2)).map(|_| gen_valtype(g)).collect();
    FuncType::new(params, results)
}

/// An arbitrary structurally-plausible module (not necessarily valid — the
/// round-trip property only needs well-formed encoding).
fn gen_module(g: &mut SplitMix64) -> Module {
    let mut m = Module::default();
    let ntypes = 1 + g.index(3) as u32;
    m.types = (0..ntypes).map(|_| gen_functype(g)).collect();
    // One function per type, with a trivial body.
    for t in 0..ntypes {
        m.funcs.push(t);
        m.bodies.push(FuncBody {
            locals: vec![(2, ValType::I32)],
            code: bytelite::Bytes::from_static(&[0x00, 0x0b]), // unreachable; end
        });
    }
    if g.next_bool() {
        let data: Vec<u8> = (0..g.index(64)).map(|_| g.next_u32() as u8).collect();
        m.memories.push(MemoryType { limits: Limits::new(1, Some(4)) });
        m.data.push(DataSegment {
            memory: 0,
            offset: ConstExpr::I32(0),
            bytes: bytelite::Bytes::from(data),
        });
    }
    for i in 0..g.index(3) {
        m.globals.push(Global {
            ty: GlobalType { value: ValType::I64, mutable: g.next_bool() },
            init: ConstExpr::I64(g.next_u32() as u16 as i64),
        });
        m.exports.push(Export { name: format!("g{i}"), desc: ExportDesc::Global(i as u32) });
    }
    m
}

#[test]
fn module_roundtrip() {
    check("module_roundtrip", 64, |g| {
        let m = gen_module(g);
        let bytes = encode_module(&m);
        let back = decode_module(bytes).unwrap();
        assert_eq!(back, m);
    });
}

/// A random straight-line arithmetic program over two i32 params: a list of
/// (operation, constant) steps folded onto an accumulator.
#[derive(Debug, Clone)]
enum Op {
    Add(i32),
    Sub(i32),
    Mul(i32),
    Xor(i32),
    RotlParam1,
    AddParam0,
    ShrU(u32),
    IfPositiveNegate,
}

fn gen_arith(g: &mut SplitMix64) -> Vec<Op> {
    let len = 1 + g.index(39);
    (0..len)
        .map(|_| match g.index(8) {
            0 => Op::Add(g.next_i32()),
            1 => Op::Sub(g.next_i32()),
            2 => Op::Mul(g.next_i32()),
            3 => Op::Xor(g.next_i32()),
            4 => Op::RotlParam1,
            5 => Op::AddParam0,
            6 => Op::ShrU(g.range_u64(0, 31) as u32),
            _ => Op::IfPositiveNegate,
        })
        .collect()
}

fn build_arith_module(prog: &[Op]) -> Module {
    let mut b = ModuleBuilder::new();
    let f = b.func(FuncType::new(vec![ValType::I32, ValType::I32], vec![ValType::I32]), |f| {
        let acc = f.local(ValType::I32);
        f.local_get(0).local_set(acc);
        for op in prog {
            match op {
                Op::Add(c) => {
                    f.local_get(acc).i32_const(*c).op(I::I32Add).local_set(acc);
                }
                Op::Sub(c) => {
                    f.local_get(acc).i32_const(*c).op(I::I32Sub).local_set(acc);
                }
                Op::Mul(c) => {
                    f.local_get(acc).i32_const(*c).op(I::I32Mul).local_set(acc);
                }
                Op::Xor(c) => {
                    f.local_get(acc).i32_const(*c).op(I::I32Xor).local_set(acc);
                }
                Op::RotlParam1 => {
                    f.local_get(acc).local_get(1).op(I::I32Rotl).local_set(acc);
                }
                Op::AddParam0 => {
                    f.local_get(acc).local_get(0).op(I::I32Add).local_set(acc);
                }
                Op::ShrU(c) => {
                    f.local_get(acc).i32_const(*c as i32).op(I::I32ShrU).local_set(acc);
                }
                Op::IfPositiveNegate => {
                    f.local_get(acc).i32_const(0).op(I::I32GtS);
                    f.if_else(
                        BlockType::Empty,
                        |f| {
                            f.i32_const(0).local_get(acc).op(I::I32Sub).local_set(acc);
                        },
                        |_| {},
                    );
                }
            }
        }
        f.local_get(acc);
    });
    b.export_func("run", f);
    b.build()
}

/// Reference semantics in plain Rust.
fn reference_eval(prog: &[Op], p0: i32, p1: i32) -> i32 {
    let mut acc = p0;
    for op in prog {
        acc = match op {
            Op::Add(c) => acc.wrapping_add(*c),
            Op::Sub(c) => acc.wrapping_sub(*c),
            Op::Mul(c) => acc.wrapping_mul(*c),
            Op::Xor(c) => acc ^ c,
            Op::RotlParam1 => acc.rotate_left(p1 as u32 & 31),
            Op::AddParam0 => acc.wrapping_add(p0),
            Op::ShrU(c) => ((acc as u32) >> c) as i32,
            Op::IfPositiveNegate => {
                if acc > 0 {
                    0i32.wrapping_sub(acc)
                } else {
                    acc
                }
            }
        };
    }
    acc
}

#[test]
fn tiers_match_each_other_and_the_reference() {
    check("tiers_match_each_other_and_the_reference", 96, |g| {
        let prog = gen_arith(g);
        let p0 = g.next_i32();
        let p1 = g.next_i32();
        let module = Arc::new(build_arith_module(&prog));
        validate_module(&module).unwrap();
        let expected = reference_eval(&prog, p0, p1);
        for tier in [ExecTier::InPlace, ExecTier::Lowered] {
            let mut inst = Instance::instantiate(
                Arc::clone(&module),
                Imports::new(),
                InstanceConfig { tier, fuel: Some(1_000_000), ..Default::default() },
            )
            .unwrap();
            let out = inst.invoke("run", &[Value::I32(p0), Value::I32(p1)]).unwrap();
            assert_eq!(&out[..], &[Value::I32(expected)][..], "{tier:?}");
        }
    });
}

#[test]
fn encode_decode_of_generated_programs() {
    check("encode_decode_of_generated_programs", 96, |g| {
        let prog = gen_arith(g);
        let module = build_arith_module(&prog);
        let bytes = encode_module(&module);
        let back = decode_module(bytes).unwrap();
        assert_eq!(back, module);
    });
}

// ---------------------------------------------------------------------------
// Differential execution of structured programs
// ---------------------------------------------------------------------------

/// What a [`Node`] emits. The comment gives the children it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Const,
    Local,
    Global,
    /// `local.tee` of (value).
    Tee,
    /// `global.set` of (value), then `global.get`.
    SetGlobal,
    /// (lhs, rhs): one of [`BINOPS`], the division family included.
    Bin,
    /// (operand): an i32 → i32 round trip through i64, f32 or f64 ops.
    Un,
    /// (address): a load of some width; the address is usually masked.
    Load,
    /// (address, value): a store of some width.
    Store,
    /// (a, b, condition).
    Select,
    /// (delta): `memory.grow` by 0 or 1 pages.
    MemGrow,
    /// (…): children in order, earlier values dropped or xor-ed in.
    Seq,
    /// (…): a [`Kind::Seq`] inside `block (result i32)`.
    Block,
    /// (a, b, c): `block (param i32 i32) (result i32)`.
    BlockParams,
    /// (condition, then, else): `if (result i32)`.
    If,
    /// (condition, then): `if` with no `else` arm.
    IfNoElse,
    /// (body): a counted loop summing its body, with void exit and
    /// continue labels.
    Loop,
    /// (init, step): `loop (param i32) (result i32)` whose `br_if 0`
    /// carries the accumulator back to the loop head.
    LoopParam,
    /// (value): `br` to an enclosing value label, the function's included.
    Br,
    /// (value, condition): `br_if` to a value label.
    BrIf,
    /// (value, selector): `br_table` over value labels.
    BrTable,
    /// (condition): `br_if` to a loop's exit or continue label.
    BrIfVoid,
    /// (value).
    Return,
    /// (args…): direct call of an earlier function.
    Call,
    /// (selector, args…): `call_indirect`; the selector may name a null or
    /// out-of-range element, or a function of another type.
    CallIndirect,
    /// (arg): the imported host function.
    Host,
    Unreachable,
}

/// One node of a generated program. Every node leaves exactly one i32 on
/// the operand stack when it completes normally, so any node can stand
/// where any other stood — which is what lets the shrinker hoist children
/// and cut subtrees blindly. `imm` is reduced modulo whatever is in scope
/// when the node is emitted (locals, labels, callees), and a missing child
/// is emitted as a constant, so every tree, generated or shrunk, is a valid
/// program.
#[derive(Debug, Clone, PartialEq)]
struct Node {
    kind: Kind,
    imm: i32,
    kids: Vec<Node>,
}

/// A module of four helper functions and `run(i32, i32) -> i32`, each a
/// tree. Functions call only earlier functions, and only `run` calls
/// through the table, so every program terminates without a fuel limit
/// (the tiers count fuel in different units).
#[derive(Debug, Clone, PartialEq)]
struct Program {
    funcs: Vec<Node>,
    args: [i32; 2],
}

/// Parameter counts of the helpers (all i32); `run`, the last function,
/// takes two.
const HELPER_PARAMS: [usize; 4] = [0, 1, 2, 1];
/// Declared i32 locals per function, after its parameters.
const SCRATCH_LOCALS: u32 = 3;

const BINOPS: [I; 22] = [
    I::I32Add,
    I::I32Sub,
    I::I32Mul,
    I::I32And,
    I::I32Or,
    I::I32Xor,
    I::I32Shl,
    I::I32ShrS,
    I::I32ShrU,
    I::I32Rotl,
    I::I32Rotr,
    I::I32Eq,
    I::I32Ne,
    I::I32LtS,
    I::I32LtU,
    I::I32GtS,
    I::I32GeU,
    I::I32LeS,
    I::I32DivS,
    I::I32DivU,
    I::I32RemS,
    I::I32RemU,
];
/// Index of the first of the four trapping operators in [`BINOPS`].
const DIVISIONS: usize = 18;

fn gen_node(g: &mut SplitMix64, budget: &mut u32, depth: u32) -> Node {
    use Kind::*;
    // Repeats are weights: control flow and calls are the point.
    const INNER: [Kind; 80] = [
        Const,
        Const,
        Local,
        Local,
        Global,
        Global,
        Tee,
        Tee,
        SetGlobal,
        SetGlobal,
        Bin,
        Bin,
        Bin,
        Bin,
        Bin,
        Bin,
        Un,
        Un,
        Un,
        Un,
        Load,
        Load,
        Load,
        Load,
        Store,
        Store,
        Store,
        Store,
        Select,
        Select,
        MemGrow,
        MemGrow,
        Seq,
        Seq,
        Seq,
        Block,
        Block,
        Block,
        Block,
        Block,
        Block,
        BlockParams,
        BlockParams,
        If,
        If,
        If,
        If,
        IfNoElse,
        IfNoElse,
        Loop,
        Loop,
        Loop,
        Loop,
        LoopParam,
        LoopParam,
        Br,
        Br,
        BrIf,
        BrIf,
        BrIf,
        BrIf,
        BrTable,
        BrTable,
        BrIfVoid,
        BrIfVoid,
        BrIfVoid,
        BrIfVoid,
        Return,
        Return,
        Call,
        Call,
        Call,
        Call,
        CallIndirect,
        CallIndirect,
        CallIndirect,
        CallIndirect,
        Host,
        Host,
        Unreachable,
    ];
    let kind = if *budget == 0 || depth >= 7 {
        *g.choose(&[Const, Local, Global])
    } else {
        *g.choose(&INNER)
    };
    *budget = budget.saturating_sub(1);
    let nkids = match kind {
        Const | Local | Global | Unreachable => 0,
        Tee | SetGlobal | Un | Load | MemGrow | Loop | Br | BrIfVoid | Return | Host => 1,
        Bin | Store | IfNoElse | LoopParam | BrIf | BrTable => 2,
        Select | BlockParams | If => 3,
        Seq | Block => 1 + g.index(3),
        Call => g.index(3),
        CallIndirect => 1 + g.index(3),
    };
    // Small immediates make zero divisors, low addresses and in-range
    // selectors common; wide ones exercise the multi-byte LEB paths.
    let imm = if g.next_bool() { g.index(16) as i32 } else { g.next_i32() };
    Node { kind, imm, kids: (0..nkids).map(|_| gen_node(g, budget, depth + 1)).collect() }
}

fn gen_program(g: &mut SplitMix64) -> Program {
    let funcs = (0..=HELPER_PARAMS.len())
        .map(|k| gen_node(g, &mut if k < HELPER_PARAMS.len() { 12 } else { 60 }, 0))
        .collect();
    Program { funcs, args: [g.next_i32(), g.index(8) as i32] }
}

/// What a branch to a label carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Label {
    /// One i32: `block`/`if` with a result, and the function itself.
    Val,
    /// Nothing: a counted loop's exit and continue labels.
    Void,
    /// Never targeted (the parameterised loop: a stray back-edge would
    /// skip its countdown).
    Opaque,
}

struct Emit<'a> {
    f: &'a mut FuncBuilder,
    labels: Vec<Label>,
    /// Params plus scratch locals: what `Local`/`Tee` may name.
    nlocals: u32,
    /// Function indices (and parameter counts) this function may call.
    callees: &'a [(u32, usize)],
    /// Only `run` calls through the table, which holds the helpers: no
    /// cycle, so no unbounded recursion.
    indirect: bool,
    host: u32,
    /// Type indices of `(i32) -> i32` and `(i32, i32) -> i32`.
    t_i_i: u32,
    t_ii_i: u32,
}

impl Emit<'_> {
    /// Depth of the `choice`-th enclosing label of kind `want`.
    fn depth(&self, want: Label, choice: i32) -> Option<u32> {
        let at: Vec<usize> = (0..self.labels.len()).filter(|&i| self.labels[i] == want).collect();
        let pos = *at.get(choice as u32 as usize % at.len().max(1))?;
        Some((self.labels.len() - 1 - pos) as u32)
    }

    fn kid(&mut self, n: &Node, i: usize) {
        match n.kids.get(i) {
            Some(k) => self.node(k),
            None => {
                self.f.i32_const(n.imm);
            }
        }
    }

    /// Children from `from` on, in order; bit `i` of `imm` says whether
    /// child `i`'s predecessors are dropped or xor-ed into it.
    fn seq(&mut self, n: &Node, from: usize) {
        self.kid(n, from);
        for i in from + 1..n.kids.len() {
            if n.imm >> (i % 31) & 1 == 1 {
                self.f.drop_();
                self.node(&n.kids[i]);
            } else {
                self.node(&n.kids[i]);
                self.f.op(I::I32Xor);
            }
        }
    }

    /// Keep an address inside the first page, except one time in ten.
    fn mask_address(&mut self, imm: i32) {
        if !(imm as u32).is_multiple_of(11) {
            self.f.i32_const(0xfff8).op(I::I32And);
        }
    }

    fn labelled(&mut self, label: Label, body: impl FnOnce(&mut Self)) {
        self.labels.push(label);
        body(self);
        self.labels.pop();
        self.f.op(I::End);
    }

    fn node(&mut self, n: &Node) {
        let imm = n.imm;
        let u = imm as u32;
        let i32_block = BlockType::Value(ValType::I32);
        match n.kind {
            Kind::Const => {
                self.f.i32_const(imm);
            }
            Kind::Local => {
                self.f.local_get(u % self.nlocals);
            }
            Kind::Global => {
                self.f.global_get(0);
            }
            Kind::Tee => {
                self.kid(n, 0);
                self.f.local_tee(u % self.nlocals);
            }
            Kind::SetGlobal => {
                self.kid(n, 0);
                self.f.global_set(0).global_get(0);
            }
            Kind::Bin => {
                let op = u as usize % BINOPS.len();
                self.kid(n, 0);
                self.kid(n, 1);
                // A quarter of the divisions get a divisor of 0 or 1.
                if op >= DIVISIONS && imm & 0x300 == 0 {
                    self.f.i32_const(1).op(I::I32And);
                }
                self.f.op(BINOPS[op].clone());
            }
            Kind::Un => {
                self.kid(n, 0);
                let f = &mut *self.f;
                match u % 9 {
                    0 => f.op(I::I32Eqz),
                    1 => f.op(I::I32Clz),
                    2 => f.op(I::I32Popcnt),
                    3 => f
                        .op(I::I64ExtendI32S)
                        .i64_const(0x9e37_79b9_7f4a_7c15_u64 as i64)
                        .op(I::I64Mul)
                        .i64_const(29)
                        .op(I::I64ShrU)
                        .op(I::I32WrapI64),
                    4 => f.op(I::F64ConvertI32U).op(I::F64Sqrt).op(I::F64Floor).op(I::I32TruncF64U),
                    5 => f.op(I::F32ConvertI32S).op(I::F32Neg).op(I::I32ReinterpretF32),
                    6 => f
                        .op(I::F64ConvertI32S)
                        .f64_const(0.5)
                        .op(I::F64Mul)
                        .op(I::F64Nearest)
                        .op(I::I32TruncF64S),
                    7 => f.op(I::I64ExtendI32U).op(I::I64Ctz).op(I::I32WrapI64),
                    // NaN for a negative operand: the truncation traps.
                    _ => f.op(I::F64ConvertI32S).op(I::F64Sqrt).op(I::I32TruncF64S),
                };
            }
            Kind::Load => {
                self.kid(n, 0);
                self.mask_address(imm);
                let m = MemArg { align: 0, offset: u >> 4 & 0x3f };
                match u & 3 {
                    0 => self.f.op(I::I32Load(m)),
                    1 => self.f.op(I::I32Load8U(m)),
                    2 => self.f.op(I::I32Load16S(m)),
                    _ => self.f.op(I::I64Load(m)).op(I::I32WrapI64),
                };
            }
            Kind::Store => {
                self.kid(n, 0);
                self.mask_address(imm);
                self.kid(n, 1);
                let m = MemArg { align: 0, offset: u >> 4 & 0x3f };
                match u & 3 {
                    0 => self.f.op(I::I32Store(m)),
                    1 => self.f.op(I::I32Store8(m)),
                    2 => self.f.op(I::I32Store16(m)),
                    _ => self.f.op(I::I64ExtendI32S).op(I::I64Store(m)),
                };
                self.f.i32_const(imm);
            }
            Kind::Select => {
                self.kid(n, 0);
                self.kid(n, 1);
                self.kid(n, 2);
                self.f.op(I::Select);
            }
            Kind::MemGrow => {
                self.kid(n, 0);
                self.f.i32_const(1).op(I::I32And).op(I::MemoryGrow);
            }
            Kind::Seq => self.seq(n, 0),
            Kind::Block => {
                self.f.op(I::Block(i32_block));
                self.labelled(Label::Val, |e| e.seq(n, 0));
            }
            Kind::BlockParams => {
                self.kid(n, 0);
                self.kid(n, 1);
                self.f.op(I::Block(BlockType::Func(self.t_ii_i)));
                self.labelled(Label::Val, |e| {
                    e.f.op(I::I32Sub);
                    e.kid(n, 2);
                    e.f.op(I::I32Add);
                });
            }
            Kind::If => {
                self.kid(n, 0);
                self.f.op(I::If(i32_block));
                self.labelled(Label::Val, |e| {
                    e.kid(n, 1);
                    e.f.op(I::Else);
                    e.kid(n, 2);
                });
            }
            Kind::IfNoElse => {
                self.kid(n, 0);
                self.f.op(I::If(BlockType::Empty));
                self.labelled(Label::Opaque, |e| {
                    e.kid(n, 1);
                    e.f.drop_();
                });
                self.f.i32_const(imm);
            }
            Kind::Loop => {
                // Fresh locals per loop: an inner loop restarts its own
                // count on every outer iteration, and no subtree can
                // clobber a counter, so every loop terminates.
                let (ctr, acc) = (self.f.local(ValType::I32), self.f.local(ValType::I32));
                self.f.i32_const(1 + (imm & 3)).local_set(ctr);
                self.f.op(I::Block(BlockType::Empty));
                self.labelled(Label::Void, |e| {
                    e.f.op(I::Loop(BlockType::Empty));
                    e.labelled(Label::Void, |e| {
                        e.f.local_get(ctr).op(I::I32Eqz).br_if(1);
                        e.f.local_get(ctr).i32_const(1).op(I::I32Sub).local_set(ctr);
                        e.kid(n, 0);
                        e.f.local_get(acc).op(I::I32Add).local_set(acc);
                        e.f.br(0);
                    });
                });
                self.f.local_get(acc);
            }
            Kind::LoopParam => {
                let ctr = self.f.local(ValType::I32);
                self.kid(n, 0);
                self.f.i32_const(1 + (imm & 3)).local_set(ctr);
                self.f.op(I::Loop(BlockType::Func(self.t_i_i)));
                self.labelled(Label::Opaque, |e| {
                    e.kid(n, 1);
                    e.f.op(I::I32Add);
                    e.f.local_get(ctr).i32_const(1).op(I::I32Sub).local_tee(ctr).br_if(0);
                });
            }
            Kind::Br => {
                self.kid(n, 0);
                let d = self.depth(Label::Val, imm).expect("the function label");
                self.f.br(d);
            }
            Kind::BrIf => {
                self.kid(n, 0);
                self.kid(n, 1);
                let d = self.depth(Label::Val, imm).expect("the function label");
                self.f.br_if(d);
            }
            Kind::BrTable => {
                self.kid(n, 0);
                self.kid(n, 1);
                if imm & 1 == 0 {
                    self.f.i32_const(3).op(I::I32And);
                }
                let arm = |k: i32| self.depth(Label::Val, imm >> k).expect("the function label");
                let targets = (0..(u >> 1 & 3) as i32).map(|k| arm(3 + 2 * k)).collect();
                let default = arm(9);
                self.f.br_table(targets, default);
            }
            Kind::BrIfVoid => {
                self.kid(n, 0);
                match self.depth(Label::Void, imm) {
                    Some(d) => self.f.br_if(d),
                    None => self.f.drop_(),
                };
                self.f.i32_const(imm);
            }
            Kind::Return => {
                self.kid(n, 0);
                self.f.return_();
            }
            Kind::Call => match self.callees.get(u as usize % self.callees.len().max(1)) {
                Some(&(func, params)) => {
                    (0..params).for_each(|i| self.kid(n, i));
                    self.f.call(func);
                }
                None => {
                    self.f.i32_const(imm);
                }
            },
            Kind::CallIndirect if self.indirect => {
                // Elements 0–3 are the helpers, 4–5 are null, 6–7 are past
                // the end of the table. A quarter of the calls may land
                // anywhere with either type; the rest pick one of the two
                // `(i32) -> i32` helpers, elements 1 and 3.
                let wild = imm & 6 == 0;
                let (ty, params) =
                    if wild && imm & 1 == 1 { (self.t_ii_i, 2) } else { (self.t_i_i, 1) };
                (1..=params).for_each(|i| self.kid(n, i));
                self.kid(n, 0);
                if wild {
                    self.f.i32_const(7).op(I::I32And);
                } else {
                    self.f.i32_const(2).op(I::I32And).i32_const(1).op(I::I32Or);
                }
                self.f.call_indirect(ty);
            }
            Kind::CallIndirect => self.seq(n, 0),
            Kind::Host => {
                self.kid(n, 0);
                self.f.call(self.host);
            }
            Kind::Unreachable => {
                // One in four traps; the constant after it is then dead,
                // typed as if the trap had produced a value.
                self.f.op(if imm & 3 == 0 { I::Unreachable } else { I::Nop });
                self.f.i32_const(imm);
            }
        }
    }
}

fn build_program_module(prog: &Program) -> Module {
    let i32s = |n: usize| FuncType::new(vec![ValType::I32; n], vec![ValType::I32]);
    let mut b = ModuleBuilder::new();
    let host = b.import_func("env", "tick", i32s(1));
    b.memory(1, Some(3));
    b.global(ValType::I32, true, ConstExpr::I32(7));
    b.table(6, Some(6));
    let (t_i_i, t_ii_i) = (b.type_idx(i32s(1)), b.type_idx(i32s(2)));
    let mut defined: Vec<(u32, usize)> = Vec::new();
    for (k, body) in prog.funcs.iter().enumerate() {
        let params = HELPER_PARAMS.get(k).copied().unwrap_or(2);
        let callees = defined.clone();
        let func = b.func(i32s(params), |f| {
            (0..SCRATCH_LOCALS).for_each(|_| {
                f.local(ValType::I32);
            });
            let mut e = Emit {
                f,
                labels: vec![Label::Val],
                nlocals: params as u32 + SCRATCH_LOCALS,
                callees: &callees,
                indirect: k == HELPER_PARAMS.len(),
                host,
                t_i_i,
                t_ii_i,
            };
            e.node(body);
        });
        defined.push((func, params));
    }
    let (run, _) = defined.pop().expect("run is the last function");
    b.elem(0, defined.iter().map(|(func, _)| *func).collect());
    b.export_func("run", run);
    b.build()
}

/// Everything a run leaves behind that the other tier must reproduce.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<Vec<Value>, Trap>,
    global: Option<Value>,
    host_log: Vec<i32>,
    memory: Vec<u8>,
}

fn run_on(module: &Arc<Module>, args: [i32; 2], tier: ExecTier) -> Outcome {
    let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let sink = std::rc::Rc::clone(&log);
    let imports = Imports::new().func("env", "tick", move |_, args| {
        let v = args[0].as_i32().expect("i32 argument");
        sink.borrow_mut().push(v);
        Ok(vec![Value::I32(v.wrapping_mul(31).wrapping_add(1))])
    });
    let mut inst = Instance::instantiate_prevalidated(
        Arc::clone(module),
        imports,
        InstanceConfig { tier, ..Default::default() },
    )
    .expect("instantiate");
    let result = inst.invoke("run", &args.map(Value::I32));
    let mem = inst.memory().expect("memory");
    let memory = mem.read_bytes(0, mem.size_bytes() as u32).expect("whole memory").to_vec();
    let host_log = log.borrow().clone();
    Outcome { result, global: inst.global(0), host_log, memory }
}

/// `Ok(result)` when both tiers agree, else what differed.
fn differential(prog: &Program) -> Result<Result<Vec<Value>, Trap>, String> {
    let module = Arc::new(build_program_module(prog));
    validate_module(&module).map_err(|e| format!("generated module is invalid: {e}"))?;
    let run = |tier| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_on(&module, prog.args, tier)))
            .map_err(|_| format!("{tier:?} panicked"))
    };
    let (a, b) = (run(ExecTier::InPlace)?, run(ExecTier::Lowered)?);
    if a == b {
        return Ok(a.result);
    }
    let what = if a.result != b.result {
        format!("results {:?} vs {:?}", a.result, b.result)
    } else if a.global != b.global {
        format!("global {:?} vs {:?}", a.global, b.global)
    } else if a.host_log != b.host_log {
        format!("host calls {:?} vs {:?}", a.host_log, b.host_log)
    } else {
        let at = a.memory.iter().zip(&b.memory).position(|(x, y)| x != y);
        format!(
            "memory ({} vs {} bytes, first difference at {at:?})",
            a.memory.len(),
            b.memory.len()
        )
    };
    Err(format!("in-place vs lowered: {what}"))
}

/// Every tree one step smaller than `n`: a child in its place, a zero in
/// its place, or the same step taken inside one child.
fn shrink_node(n: &Node) -> Vec<Node> {
    let mut out: Vec<Node> = n.kids.to_vec();
    if n.kind != Kind::Const || n.imm != 0 {
        out.push(Node { kind: Kind::Const, imm: 0, kids: Vec::new() });
    }
    for (i, kid) in n.kids.iter().enumerate() {
        for smaller in shrink_node(kid) {
            let mut m = n.clone();
            m.kids[i] = smaller;
            out.push(m);
        }
    }
    out
}

/// Greedy descent: take the first one-step-smaller program that still
/// fails, until none does.
fn shrink(mut prog: Program, fails: impl Fn(&Program) -> bool) -> Program {
    'descend: loop {
        for k in 0..prog.funcs.len() {
            for smaller in shrink_node(&prog.funcs[k]) {
                let mut p = prog.clone();
                p.funcs[k] = smaller;
                if fails(&p) {
                    prog = p;
                    continue 'descend;
                }
            }
        }
        for i in 0..prog.args.len() {
            let mut p = prog.clone();
            p.args[i] = 0;
            if p != prog && fails(&p) {
                prog = p;
                continue 'descend;
            }
        }
        return prog;
    }
}

fn node_count(n: &Node) -> usize {
    1 + n.kids.iter().map(node_count).sum::<usize>()
}

#[test]
fn tiers_agree_on_structured_programs() {
    let mut completed = 0;
    let mut traps = std::collections::BTreeSet::new();
    let cases = 1000;
    check("tiers_agree_on_structured_programs", cases, |g| {
        let prog = gen_program(g);
        match differential(&prog) {
            Ok(Ok(_)) => completed += 1,
            Ok(Err(trap)) => {
                traps.insert(format!("{trap:?}"));
            }
            Err(why) => {
                let min = shrink(prog, |p| differential(p).is_err());
                let why_min = differential(&min).expect_err("shrinking keeps the failure");
                panic!("{why}\nshrunk to: {why_min}\n{min:?}");
            }
        }
    });
    // The corpus must reach past the first trap often enough to be worth
    // running, and must trap in more than one way.
    if std::env::var(simkernel::prop::SEED_ENV).is_err() {
        assert!(completed * 2 >= cases, "only {completed} of {cases} programs ran to completion");
        assert!(traps.len() >= 6, "trap kinds seen: {traps:?}");
    }
}

#[test]
fn shrinker_reaches_a_minimal_counterexample() {
    // Stand-in failure: `run` still contains a signed division.
    fn divides(n: &Node) -> bool {
        (n.kind == Kind::Bin && n.imm as u32 as usize % BINOPS.len() == DIVISIONS)
            || n.kids.iter().any(divides)
    }
    let fails = |p: &Program| divides(&p.funcs[HELPER_PARAMS.len()]);
    let mut g = SplitMix64::new(7);
    let big = std::iter::repeat_with(|| gen_program(&mut g))
        .find(|p| fails(p) && node_count(&p.funcs[HELPER_PARAMS.len()]) > 20)
        .expect("a large program with a division");
    let min = shrink(big, fails);
    assert!(fails(&min));
    // The division over two zeros, and a bare zero per helper.
    assert_eq!(min.funcs.iter().map(node_count).sum::<usize>(), 3 + HELPER_PARAMS.len());
    assert_eq!(min.args, [0, 0]);
    validate_module(&build_program_module(&min)).expect("shrunk programs stay valid");
}

// ---------------------------------------------------------------------------
// Hostile bytes
// ---------------------------------------------------------------------------

/// Bytes drawn mostly from the opcodes that open, close and leave control
/// constructs, so random bodies nest, unbalance and truncate immediates.
fn gen_body_bytes(g: &mut SplitMix64) -> Vec<u8> {
    const CONTROL: [u8; 12] =
        [0x02, 0x03, 0x04, 0x05, 0x0b, 0x0b, 0x0c, 0x0d, 0x0e, 0x40, 0x7f, 0x80];
    (0..g.index(40))
        .map(|_| if g.next_bool() { *g.choose(&CONTROL) } else { g.next_u32() as u8 })
        .collect()
}

#[test]
fn decoders_never_panic_on_hostile_bytes() {
    // A real module to damage: every section kind the generator emits.
    let valid = encode_module(&build_program_module(&gen_program(&mut SplitMix64::new(1))));
    decode_module(valid.clone()).expect("the undamaged module decodes");

    check("decoders_never_panic_on_hostile_bytes", 3000, |g| {
        // A function body of arbitrary bytes: an error or a table, no panic.
        let _ = SideTable::build(&gen_body_bytes(g));

        // Arbitrary bytes are not a module, with or without the header.
        let mut noise: Vec<u8> = (0..g.index(64)).map(|_| g.next_u32() as u8).collect();
        assert!(decode_module(noise.clone()).is_err(), "noise decoded: {noise:?}");
        noise.splice(0..0, *b"\0asm\x01\0\0\0");
        if let Ok(m) = decode_module(noise) {
            let _ = validate_module(&m);
        }

        // A damaged module may still decode, and may even validate; what
        // validates must have side tables.
        let mut bytes = valid.clone();
        for _ in 0..1 + g.index(3) {
            let at = g.index(bytes.len());
            match g.index(4) {
                0 => bytes[at] = g.next_u32() as u8,
                1 => bytes[at] ^= 1 << g.index(8),
                2 => bytes.truncate(at.max(8)),
                _ => bytes.insert(at, *g.choose(&[0x05, 0x0b, 0x80, 0xff, 0x00])),
            }
        }
        if let Ok(m) = decode_module(bytes) {
            if validate_module(&m).is_ok() {
                for body in &m.bodies {
                    SideTable::build(&body.code).expect("a valid body has a side table");
                }
            }
        }
    });

    // The shapes validation rules out, handed to the scanner directly.
    for unbalanced in [
        &[0x05][..],                           // `else` with no opener
        &[0x05, 0x0b],                         // `else` at function level
        &[0x02, 0x40, 0x05, 0x0b, 0x0b],       // `else` inside a `block`
        &[0x04, 0x40, 0x05, 0x05, 0x0b, 0x0b], // two `else`s in one `if`
        &[0x02, 0x40, 0x0b],                   // the function is never closed
        &[0x0b, 0x0b],                         // bytes after the function's `end`
        &[0x0c],                               // a truncated immediate
        &[],
    ] {
        assert!(SideTable::build(unbalanced).is_err(), "{unbalanced:02x?} has no side table");
    }
}
