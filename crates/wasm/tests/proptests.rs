//! Property-based tests for the Wasm core (on the offline `simkernel::prop`
//! harness):
//!
//! * LEB128 round-trips for the full value ranges;
//! * instruction encode/decode round-trips over arbitrary instructions;
//! * module encode→decode round-trips over arbitrary structured modules;
//! * **tier equivalence**: random straight-line programs match a reference
//!   evaluator on both tiers, and random *structured* programs (nested
//!   `block`/`loop`, `br` / `br_if` to block, loop and function labels,
//!   direct calls, `i64` loads and `i32` stores, `memory.grow`, host calls)
//!   leave the in-place interpreter and the lowered executor with the same
//!   result or trap, memory and host-call log — the property that makes
//!   the engine comparison meaningful. A disagreement is shrunk to a
//!   minimal program before it is reported. The generators emit only the
//!   constructs the engine keeps;
//! * **hostile bytes**: damaged modules, the real guests among them, never
//!   make the decoder, the validator or either tier panic.

use std::sync::Arc;

use simkernel::prop::check;
use simkernel::rng::SplitMix64;
use wasm_core::instr::{read_instr, write_instr, MemArg};
use wasm_core::interp::SideTable;
use wasm_core::module::{DataSegment, Export, ExportDesc, FuncBody};
use wasm_core::types::{Limits, MemoryType};
use wasm_core::{
    decode_module, encode_module, leb128, validate_module, ExecTier, FuncBuilder, FuncType,
    Imports, Instance, InstanceConfig, Instruction as I, Module, ModuleBuilder, Trap, ValType,
    Value,
};
use workloads::{balloon_module, hung_service_module, microservice_module, MicroserviceConfig};

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
    let memarg = |g: &mut SplitMix64| MemArg { align: g.next_u32(), offset: g.next_u32() };
    match g.index(23) {
        0 => I::Block,
        1 => I::Loop,
        2 => I::End,
        3 => I::Br(g.next_u32()),
        4 => I::BrIf(g.next_u32()),
        5 => I::Call(g.next_u32()),
        6 => I::Drop,
        7 => I::LocalGet(g.next_u32()),
        8 => I::LocalSet(g.next_u32()),
        9 => I::I64Load(memarg(g)),
        10 => I::I32Store(memarg(g)),
        11 => I::MemoryGrow,
        12 => I::I32Const(g.next_i32()),
        13 => I::I64Const(g.next_i64()),
        14 => I::I32Eqz,
        15 => I::I32Eq,
        16 => I::I64GeU,
        17 => I::I32Add,
        18 => I::I32Sub,
        19 => I::I32Mul,
        20 => I::I32Xor,
        21 => I::I32ShrU,
        _ => I::I32Rotl,
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
        assert_eq!(got, i);
    });
}

fn gen_valtype(g: &mut SplitMix64) -> ValType {
    *g.choose(&[ValType::I32, ValType::I64])
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
            locals: vec![(2, gen_valtype(g))],
            code: bytelite::Bytes::from_static(&[0x1a, 0x0b]), // drop; end
        });
        m.exports.push(Export { name: format!("f{t}"), desc: ExportDesc::Func(t) });
    }
    if g.next_bool() {
        let data: Vec<u8> = (0..g.index(64)).map(|_| g.next_u32() as u8).collect();
        m.memories.push(MemoryType { limits: Limits::new(1, Some(4)) });
        m.exports.push(Export { name: "memory".into(), desc: ExportDesc::Memory(0) });
        m.data.push(DataSegment {
            memory: 0,
            offset: g.next_i32(),
            bytes: bytelite::Bytes::from(data),
        });
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
    IfNonZeroNegate,
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
            _ => Op::IfNonZeroNegate,
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
                Op::IfNonZeroNegate => {
                    f.block(|f| {
                        f.local_get(acc).op(I::I32Eqz).br_if(0);
                        f.i32_const(0).local_get(acc).op(I::I32Sub).local_set(acc);
                    });
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
            Op::IfNonZeroNegate => 0i32.wrapping_sub(acc),
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
    /// `local.set` of (value), then `local.get` of the same local.
    SetLocal,
    /// (lhs, rhs): one of [`BINOPS`].
    Bin,
    /// (operand): `i32.eqz`.
    Eqz,
    /// (address): `i64.load`, compared against a wide constant with
    /// `i64.ge_u`; the address is usually masked.
    Load,
    /// (address): `i64.load` into the function's i64 local.
    LoadWide,
    /// The function's i64 local compared against a wide constant.
    Wide,
    /// (address, value): an `i32.store`.
    Store,
    /// (delta): `memory.grow` by 0 or 1 pages.
    MemGrow,
    /// (…): children in order, earlier values dropped or xor-ed in.
    Seq,
    /// (…): a [`Kind::Seq`] inside a `block`, its value carried out in a
    /// local of its own.
    Block,
    /// (body): a counted loop summing its body, with exit and continue
    /// labels.
    Loop,
    /// (value): `br` to the function label — a return.
    Return,
    /// (value, condition): `br_if` to the function label.
    ReturnIf,
    /// (): `br` to an enclosing block or loop label; what follows is dead.
    BrVoid,
    /// (condition): `br_if` to an enclosing block or loop label.
    BrIfVoid,
    /// (args…): direct call of an earlier function.
    Call,
    /// (arg): the imported host function.
    Host,
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
/// tree. Functions call only earlier functions, so every program
/// terminates without a fuel limit (the tiers count fuel in different
/// units).
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

const BINOPS: [I; 7] =
    [I::I32Add, I::I32Sub, I::I32Mul, I::I32Xor, I::I32ShrU, I::I32Rotl, I::I32Eq];
/// Index of `i32.mul` in [`BINOPS`].
const MUL: usize = 2;

fn gen_node(g: &mut SplitMix64, budget: &mut u32, depth: u32) -> Node {
    use Kind::*;
    // Repeats are weights: control flow and calls are the point.
    const INNER: [Kind; 48] = [
        Const, Const, Local, Local, SetLocal, SetLocal, Bin, Bin, Bin, Bin, Bin, Bin, Eqz, Eqz,
        Load, Load, Load, LoadWide, LoadWide, Wide, Store, Store, Store, MemGrow, MemGrow, Seq,
        Seq, Seq, Block, Block, Block, Block, Loop, Loop, Loop, Loop, Return, ReturnIf, ReturnIf,
        BrVoid, BrIfVoid, BrIfVoid, BrIfVoid, Call, Call, Call, Host, Host,
    ];
    let kind = if *budget == 0 || depth >= 7 {
        *g.choose(&[Const, Local, Wide])
    } else {
        *g.choose(&INNER)
    };
    *budget = budget.saturating_sub(1);
    let nkids = match kind {
        Const | Local | Wide | BrVoid => 0,
        SetLocal | Eqz | Load | LoadWide | MemGrow | Loop | Return | BrIfVoid | Host => 1,
        Bin | Store | ReturnIf => 2,
        Seq | Block => 1 + g.index(3),
        Call => g.index(3),
    };
    // Small immediates make low addresses and in-range choices common;
    // wide ones exercise the multi-byte LEB paths.
    let imm = if g.next_bool() { g.index(16) as i32 } else { g.next_i32() };
    Node { kind, imm, kids: (0..nkids).map(|_| gen_node(g, budget, depth + 1)).collect() }
}

fn gen_program(g: &mut SplitMix64) -> Program {
    let funcs = (0..=HELPER_PARAMS.len())
        .map(|k| gen_node(g, &mut if k < HELPER_PARAMS.len() { 12 } else { 60 }, 0))
        .collect();
    Program { funcs, args: [g.next_i32(), g.index(8) as i32] }
}

struct Emit<'a> {
    f: &'a mut FuncBuilder,
    /// Enclosing block and loop labels, innermost last; the function's
    /// own label lies past them all.
    labels: u32,
    /// Params plus scratch locals: what `Local`/`SetLocal` may name.
    nlocals: u32,
    /// The function's i64 local.
    wide: u32,
    /// Function indices (and parameter counts) this function may call.
    callees: &'a [(u32, usize)],
    host: u32,
}

impl Emit<'_> {
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

    /// Keep an address (and the 64 bytes past it) inside the first page,
    /// except one time in eleven.
    fn mask_address(&mut self, imm: i32) {
        if !(imm as u32).is_multiple_of(11) {
            self.f.i32_const(17).op(I::I32ShrU);
        }
    }

    fn memarg(imm: i32, align: u32) -> MemArg {
        MemArg { align, offset: imm as u32 >> 4 & 0x3f }
    }

    /// A wide constant from `imm`: small values stay small.
    fn wide_const(imm: i32) -> i64 {
        (imm as i64).wrapping_mul(0x1_0000_0001)
    }

    fn labelled(&mut self, body: impl FnOnce(&mut Self)) {
        self.labels += 1;
        body(self);
        self.labels -= 1;
        self.f.op(I::End);
    }

    fn node(&mut self, n: &Node) {
        let imm = n.imm;
        let u = imm as u32;
        match n.kind {
            Kind::Const => {
                self.f.i32_const(imm);
            }
            Kind::Local => {
                self.f.local_get(u % self.nlocals);
            }
            Kind::SetLocal => {
                self.kid(n, 0);
                self.f.local_set(u % self.nlocals).local_get(u % self.nlocals);
            }
            Kind::Bin => {
                self.kid(n, 0);
                self.kid(n, 1);
                self.f.op(BINOPS[u as usize % BINOPS.len()].clone());
            }
            Kind::Eqz => {
                self.kid(n, 0);
                self.f.op(I::I32Eqz);
            }
            Kind::Load => {
                self.kid(n, 0);
                self.mask_address(imm);
                self.f.op(I::I64Load(Self::memarg(imm, 3)));
                let c = Self::wide_const(imm);
                if imm & 1 == 1 {
                    self.f.i64_const(c).op(I::I64GeU);
                } else {
                    // The other operand order, through the i64 local.
                    self.f.local_set(self.wide).i64_const(c).local_get(self.wide).op(I::I64GeU);
                }
            }
            Kind::LoadWide => {
                self.kid(n, 0);
                self.mask_address(imm);
                self.f.op(I::I64Load(Self::memarg(imm, 0)));
                self.f.local_set(self.wide).i32_const(imm);
            }
            Kind::Wide => {
                self.f.local_get(self.wide).i64_const(Self::wide_const(imm)).op(I::I64GeU);
            }
            Kind::Store => {
                self.kid(n, 0);
                self.mask_address(imm);
                self.kid(n, 1);
                self.f.op(I::I32Store(Self::memarg(imm, u & 2)));
                self.f.i32_const(imm);
            }
            Kind::MemGrow => {
                self.kid(n, 0);
                self.f.i32_const(31).op(I::I32ShrU).op(I::MemoryGrow);
            }
            Kind::Seq => self.seq(n, 0),
            Kind::Block => {
                // A fresh local per block carries its value out: an empty
                // block type leaves nothing on the stack.
                let out = self.f.local(ValType::I32);
                self.f.i32_const(imm).local_set(out);
                self.f.op(I::Block);
                self.labelled(|e| {
                    e.seq(n, 0);
                    e.f.local_set(out);
                });
                self.f.local_get(out);
            }
            Kind::Loop => {
                // Fresh locals per loop: an inner loop restarts its own
                // count on every outer iteration, and no subtree can
                // clobber a counter, so every loop terminates.
                let (ctr, acc) = (self.f.local(ValType::I32), self.f.local(ValType::I32));
                self.f.i32_const(1 + (imm & 3)).local_set(ctr);
                self.f.op(I::Block);
                self.labelled(|e| {
                    e.f.op(I::Loop);
                    e.labelled(|e| {
                        e.f.local_get(ctr).op(I::I32Eqz).br_if(1);
                        e.f.local_get(ctr).i32_const(1).op(I::I32Sub).local_set(ctr);
                        e.kid(n, 0);
                        e.f.local_get(acc).op(I::I32Add).local_set(acc);
                        e.f.br(0);
                    });
                });
                self.f.local_get(acc);
            }
            Kind::Return => {
                self.kid(n, 0);
                self.f.br(self.labels);
            }
            Kind::ReturnIf => {
                self.kid(n, 0);
                self.kid(n, 1);
                self.f.br_if(self.labels);
            }
            Kind::BrVoid => {
                if self.labels > 0 {
                    self.f.br(u % self.labels);
                }
                self.f.i32_const(imm);
            }
            Kind::BrIfVoid => {
                self.kid(n, 0);
                if self.labels > 0 {
                    self.f.br_if(u % self.labels);
                } else {
                    self.f.drop_();
                }
                self.f.i32_const(imm);
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
            Kind::Host => {
                self.kid(n, 0);
                self.f.call(self.host);
            }
        }
    }
}

fn build_program_module(prog: &Program) -> Module {
    let i32s = |n: usize| FuncType::new(vec![ValType::I32; n], vec![ValType::I32]);
    let mut b = ModuleBuilder::new();
    let host = b.import_func("env", "tick", i32s(1));
    b.memory(1, Some(3));
    let mut defined: Vec<(u32, usize)> = Vec::new();
    for (k, body) in prog.funcs.iter().enumerate() {
        let params = HELPER_PARAMS.get(k).copied().unwrap_or(2);
        let callees = defined.clone();
        let func = b.func(i32s(params), |f| {
            (0..SCRATCH_LOCALS).for_each(|_| {
                f.local(ValType::I32);
            });
            let wide = f.local(ValType::I64);
            let mut e = Emit {
                f,
                labels: 0,
                nlocals: params as u32 + SCRATCH_LOCALS,
                wide,
                callees: &callees,
                host,
            };
            e.node(body);
        });
        defined.push((func, params));
    }
    let (run, _) = defined.pop().expect("run is the last function");
    b.export_func("run", run);
    b.build()
}

/// Everything a run leaves behind that the other tier must reproduce.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<Vec<Value>, Trap>,
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
    Outcome { result, host_log, memory }
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
    // running, and must reach the one trap a kept instruction raises.
    if std::env::var(simkernel::prop::SEED_ENV).is_err() {
        assert!(completed * 2 >= cases, "only {completed} of {cases} programs ran to completion");
        assert!(traps.contains("MemoryOutOfBounds"), "trap kinds seen: {traps:?}");
    }
}

#[test]
fn shrinker_reaches_a_minimal_counterexample() {
    // Stand-in failure: `run` still contains a multiplication.
    fn multiplies(n: &Node) -> bool {
        (n.kind == Kind::Bin && n.imm as u32 as usize % BINOPS.len() == MUL)
            || n.kids.iter().any(multiplies)
    }
    let fails = |p: &Program| multiplies(&p.funcs[HELPER_PARAMS.len()]);
    let mut g = SplitMix64::new(7);
    let big = std::iter::repeat_with(|| gen_program(&mut g))
        .find(|p| fails(p) && node_count(&p.funcs[HELPER_PARAMS.len()]) > 20)
        .expect("a large program with a multiplication");
    let min = shrink(big, fails);
    assert!(fails(&min));
    // The multiplication of two zeros, and a bare zero per helper.
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

/// `bytes` with one to three seeded edits: a random byte, a flipped bit,
/// a truncation or an inserted control byte.
fn damage(g: &mut SplitMix64, mut bytes: Vec<u8>) -> Vec<u8> {
    for _ in 0..1 + g.index(3) {
        let at = g.index(bytes.len());
        match g.index(4) {
            0 => bytes[at] = g.next_u32() as u8,
            1 => bytes[at] ^= 1 << g.index(8),
            2 => bytes.truncate(at.max(8)),
            _ => bytes.insert(at, *g.choose(&[0x05, 0x0b, 0x80, 0xff, 0x00])),
        }
    }
    bytes
}

/// The WASI functions the guests import, as inert stubs.
fn guest_imports() -> Imports {
    let ok = |_: &mut Option<wasm_core::LinearMemory>, _: &[Value]| Ok(vec![Value::I32(0)]);
    Imports::new().func("wasi_snapshot_preview1", "fd_write", ok).func(
        "wasi_snapshot_preview1",
        "clock_time_get",
        ok,
    )
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
        if let Ok(m) = decode_module(damage(g, valid.clone())) {
            if validate_module(&m).is_ok() {
                for body in &m.bodies {
                    SideTable::build(&body.code).expect("a valid body has a side table");
                }
            }
        }
    });

    // The shapes validation rules out, handed to the scanner directly.
    for malformed in [
        &[0x02, 0x40, 0x0b][..],   // the function is never closed
        &[0x0b, 0x0b],             // bytes after the function's `end`
        &[0x02, 0x7f, 0x0b, 0x0b], // a block type outside the kept set
        &[0x04, 0x40, 0x0b, 0x0b], // an opcode outside the kept set
        &[0x0c],                   // a truncated immediate
        &[],
    ] {
        assert!(SideTable::build(malformed).is_err(), "{malformed:02x?} has no side table");
    }
}

/// The guests the simulator runs, damaged: whatever still validates is
/// instantiated the way the artifact cache hands it out (without a second
/// validation) and run on both tiers under a small fuel budget. The
/// in-place tier trusts validated bodies, so the validator is what stands
/// between a damaged guest and a panic: every run ends in `Ok` or a trap.
#[test]
fn damaged_guests_never_panic_either_tier() {
    let guests = [
        microservice_module(&MicroserviceConfig::default()),
        hung_service_module(1_000),
        balloon_module(16, 8),
    ];
    let (mut validated, mut ran) = (0, 0);
    check("damaged_guests_never_panic_either_tier", 600, |g| {
        let guest = g.choose(&guests).clone();
        let Ok(module) = decode_module(damage(g, guest)) else { return };
        if validate_module(&module).is_err() {
            return;
        }
        validated += 1;
        let module = Arc::new(module);
        for tier in [ExecTier::InPlace, ExecTier::Lowered] {
            let config = InstanceConfig { tier, fuel: Some(20_000), ..Default::default() };
            let Ok(mut inst) =
                Instance::instantiate_prevalidated(Arc::clone(&module), guest_imports(), config)
            else {
                continue;
            };
            ran += 1;
            // Ok, or a typed trap: either way, no panic.
            let _ = inst.run_start();
        }
    });
    if std::env::var(simkernel::prop::SEED_ENV).is_err() {
        assert!(validated >= 30 && ran >= 30, "{validated} damaged guests validated, {ran} ran");
    }
}
