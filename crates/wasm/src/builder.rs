//! Programmatic module construction — the workspace's "compiler".
//!
//! There is no C toolchain in this offline reproduction, so the workloads
//! crate assembles its modules (the paper's minimal-C-microservice
//! equivalent and the larger §IV-D/F variants) with this builder, encodes
//! them to real binaries, and ships those binaries through the container
//! stack where the engines decode, validate and execute them.

use std::collections::HashMap;

use bytelite::Bytes;

use crate::encode::encode_module;
use crate::instr::{write_instr, BrTableData, Instruction, MemArg};
use crate::module::{
    ConstExpr, DataSegment, ElementSegment, Export, ExportDesc, FuncBody, Global, Import,
    ImportDesc, Module,
};
use crate::types::{BlockType, FuncType, GlobalType, Limits, MemoryType, TableType, ValType};

/// Builds a [`Module`] incrementally.
#[derive(Debug, Default)]
pub struct ModuleBuilder {
    module: Module,
    type_dedup: HashMap<FuncType, u32>,
}

impl ModuleBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a function type, returning its index.
    pub fn type_idx(&mut self, ft: FuncType) -> u32 {
        if let Some(&i) = self.type_dedup.get(&ft) {
            return i;
        }
        let i = self.module.types.len() as u32;
        self.module.types.push(ft.clone());
        self.type_dedup.insert(ft, i);
        i
    }

    /// Import a function. Must precede all local function definitions
    /// (imports come first in the index space). Returns the function index.
    pub fn import_func(&mut self, module: &str, name: &str, ft: FuncType) -> u32 {
        assert!(self.module.funcs.is_empty(), "imports must be declared before local functions");
        let t = self.type_idx(ft);
        self.module.imports.push(Import {
            module: module.to_string(),
            name: name.to_string(),
            desc: ImportDesc::Func(t),
        });
        self.module.num_imported_funcs() - 1
    }

    /// Declare a memory; returns its index (MVP: must be 0).
    pub fn memory(&mut self, min_pages: u32, max_pages: Option<u32>) -> u32 {
        let idx = self.module.memories.len() as u32;
        self.module.memories.push(MemoryType { limits: Limits::new(min_pages, max_pages) });
        idx
    }

    /// Declare a funcref table; returns its index.
    pub fn table(&mut self, min: u32, max: Option<u32>) -> u32 {
        let idx = self.module.tables.len() as u32;
        self.module.tables.push(TableType { limits: Limits::new(min, max) });
        idx
    }

    /// Define a global; returns its index.
    pub fn global(&mut self, value: ValType, mutable: bool, init: ConstExpr) -> u32 {
        let idx = self.module.num_imported_globals() + self.module.globals.len() as u32;
        self.module.globals.push(Global { ty: GlobalType { value, mutable }, init });
        idx
    }

    /// Define a function with the given type; the closure fills its body.
    /// Returns the function's index in the combined space.
    pub fn func(&mut self, ft: FuncType, body: impl FnOnce(&mut FuncBuilder)) -> u32 {
        let param_count = ft.params.len() as u32;
        let t = self.type_idx(ft);
        let mut fb = FuncBuilder::new(param_count);
        body(&mut fb);
        let idx = self.module.num_imported_funcs() + self.module.funcs.len() as u32;
        self.module.funcs.push(t);
        self.module.bodies.push(fb.finish());
        idx
    }

    pub fn export_func(&mut self, name: &str, idx: u32) -> &mut Self {
        self.module.exports.push(Export { name: name.to_string(), desc: ExportDesc::Func(idx) });
        self
    }

    pub fn export_memory(&mut self, name: &str, idx: u32) -> &mut Self {
        self.module.exports.push(Export { name: name.to_string(), desc: ExportDesc::Memory(idx) });
        self
    }

    pub fn start(&mut self, func_idx: u32) -> &mut Self {
        self.module.start = Some(func_idx);
        self
    }

    /// Add an active data segment at a constant i32 offset.
    pub fn data(&mut self, offset: i32, bytes: impl Into<Bytes>) -> &mut Self {
        self.module.data.push(DataSegment {
            memory: 0,
            offset: ConstExpr::I32(offset),
            bytes: bytes.into(),
        });
        self
    }

    /// Add an active element segment at a constant i32 offset.
    pub fn elem(&mut self, offset: i32, funcs: Vec<u32>) -> &mut Self {
        self.module.elements.push(ElementSegment {
            table: 0,
            offset: ConstExpr::I32(offset),
            funcs,
        });
        self
    }

    /// Attach a custom section (e.g. padding to model debug info bloat).
    pub fn custom(&mut self, name: &str, payload: impl Into<Bytes>) -> &mut Self {
        self.module.customs.push((name.to_string(), payload.into()));
        self
    }

    /// Finish, returning the module AST.
    pub fn build(self) -> Module {
        self.module
    }

    /// Finish, returning the encoded binary.
    pub fn build_bytes(self) -> Vec<u8> {
        encode_module(&self.module)
    }
}

/// Builds one function body.
#[derive(Debug)]
pub struct FuncBuilder {
    param_count: u32,
    locals: Vec<(u32, ValType)>,
    instrs: Vec<Instruction>,
}

impl FuncBuilder {
    fn new(param_count: u32) -> Self {
        FuncBuilder { param_count, locals: Vec::new(), instrs: Vec::new() }
    }

    /// Declare a local; returns its index (after the parameters).
    pub fn local(&mut self, ty: ValType) -> u32 {
        let idx = self.param_count + self.locals.iter().map(|(n, _)| n).sum::<u32>();
        // Compress consecutive same-type declarations, as compilers do.
        if let Some(last) = self.locals.last_mut() {
            if last.1 == ty {
                last.0 += 1;
                return idx;
            }
        }
        self.locals.push((1, ty));
        idx
    }

    /// Append a raw instruction.
    pub fn op(&mut self, i: Instruction) -> &mut Self {
        self.instrs.push(i);
        self
    }

    // Sugar for the most common instructions.

    pub fn i32_const(&mut self, v: i32) -> &mut Self {
        self.op(Instruction::I32Const(v))
    }

    pub fn i64_const(&mut self, v: i64) -> &mut Self {
        self.op(Instruction::I64Const(v))
    }

    pub fn f64_const(&mut self, v: f64) -> &mut Self {
        self.op(Instruction::F64Const(v))
    }

    pub fn local_get(&mut self, i: u32) -> &mut Self {
        self.op(Instruction::LocalGet(i))
    }

    pub fn local_set(&mut self, i: u32) -> &mut Self {
        self.op(Instruction::LocalSet(i))
    }

    pub fn local_tee(&mut self, i: u32) -> &mut Self {
        self.op(Instruction::LocalTee(i))
    }

    pub fn global_get(&mut self, i: u32) -> &mut Self {
        self.op(Instruction::GlobalGet(i))
    }

    pub fn global_set(&mut self, i: u32) -> &mut Self {
        self.op(Instruction::GlobalSet(i))
    }

    pub fn call(&mut self, f: u32) -> &mut Self {
        self.op(Instruction::Call(f))
    }

    pub fn call_indirect(&mut self, type_idx: u32) -> &mut Self {
        self.op(Instruction::CallIndirect { type_idx, table_idx: 0 })
    }

    pub fn drop_(&mut self) -> &mut Self {
        self.op(Instruction::Drop)
    }

    pub fn br(&mut self, depth: u32) -> &mut Self {
        self.op(Instruction::Br(depth))
    }

    pub fn br_if(&mut self, depth: u32) -> &mut Self {
        self.op(Instruction::BrIf(depth))
    }

    pub fn br_table(&mut self, targets: Vec<u32>, default: u32) -> &mut Self {
        self.op(Instruction::BrTable(Box::new(BrTableData { targets, default })))
    }

    pub fn return_(&mut self) -> &mut Self {
        self.op(Instruction::Return)
    }

    pub fn i32_load(&mut self, offset: u32) -> &mut Self {
        self.op(Instruction::I32Load(MemArg { align: 2, offset }))
    }

    pub fn i32_store(&mut self, offset: u32) -> &mut Self {
        self.op(Instruction::I32Store(MemArg { align: 2, offset }))
    }

    pub fn i64_load(&mut self, offset: u32) -> &mut Self {
        self.op(Instruction::I64Load(MemArg { align: 3, offset }))
    }

    pub fn i64_store(&mut self, offset: u32) -> &mut Self {
        self.op(Instruction::I64Store(MemArg { align: 3, offset }))
    }

    /// Structured block: the closure fills the body; `end` is implicit.
    pub fn block(&mut self, bt: BlockType, body: impl FnOnce(&mut FuncBuilder)) -> &mut Self {
        self.op(Instruction::Block(bt));
        body(self);
        self.op(Instruction::End)
    }

    /// Structured loop: the closure fills the body; `end` is implicit.
    pub fn loop_(&mut self, bt: BlockType, body: impl FnOnce(&mut FuncBuilder)) -> &mut Self {
        self.op(Instruction::Loop(bt));
        body(self);
        self.op(Instruction::End)
    }

    /// Structured if/else; either arm closure may be empty.
    pub fn if_else(
        &mut self,
        bt: BlockType,
        then: impl FnOnce(&mut FuncBuilder),
        els: impl FnOnce(&mut FuncBuilder),
    ) -> &mut Self {
        self.op(Instruction::If(bt));
        then(self);
        self.op(Instruction::Else);
        els(self);
        self.op(Instruction::End)
    }

    fn finish(mut self) -> FuncBody {
        self.instrs.push(Instruction::End);
        let mut code = Vec::new();
        for i in &self.instrs {
            write_instr(&mut code, i);
        }
        FuncBody { locals: self.locals, code: Bytes::from(code) }
    }
}

/// A tiny WASI "microservice" module used across the workspace's tests: it
/// writes `message` to stdout via `fd_write` and returns. Kept here (next to
/// the builder it showcases) so integration tests in higher crates don't
/// each carry a hand-rolled copy.
pub fn demo_wasi_module(message: &str) -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    let fd_write = b.import_func(
        "wasi_snapshot_preview1",
        "fd_write",
        FuncType::new(vec![ValType::I32; 4], vec![ValType::I32]),
    );
    let mem = b.memory(1, None);
    b.export_memory("memory", mem);
    let msg = message.as_bytes().to_vec();
    let len = msg.len() as i32;
    b.data(64, msg);
    let mut iov = Vec::new();
    iov.extend_from_slice(&64i32.to_le_bytes());
    iov.extend_from_slice(&len.to_le_bytes());
    b.data(16, iov);
    let start = b.func(FuncType::new(vec![], vec![]), |f| {
        f.i32_const(1).i32_const(16).i32_const(1).i32_const(32).call(fd_write).drop_();
    });
    b.export_func("_start", start);
    b.build_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_module;

    #[test]
    fn build_and_decode_add() {
        let mut b = ModuleBuilder::new();
        let ft = FuncType::new(vec![ValType::I32, ValType::I32], vec![ValType::I32]);
        let add = b.func(ft, |f| {
            f.local_get(0).local_get(1).op(Instruction::I32Add);
        });
        b.export_func("add", add);
        let bytes = b.build_bytes();
        let m = decode_module(bytes).unwrap();
        assert_eq!(m.exported_func("add"), Some(0));
        assert_eq!(m.bodies[0].code.as_ref(), &[0x20, 0, 0x20, 1, 0x6a, 0x0b]);
    }

    #[test]
    fn imports_precede_locals() {
        let mut b = ModuleBuilder::new();
        let imp = b.import_func("env", "log", FuncType::new(vec![ValType::I32], vec![]));
        let f = b.func(FuncType::new(vec![], vec![]), |fb| {
            fb.i32_const(1).call(imp);
        });
        assert_eq!(imp, 0);
        assert_eq!(f, 1);
        let m = b.build();
        assert_eq!(m.num_imported_funcs(), 1);
    }

    #[test]
    #[should_panic(expected = "imports must be declared")]
    fn late_import_panics() {
        let mut b = ModuleBuilder::new();
        b.func(FuncType::new(vec![], vec![]), |_| {});
        b.import_func("env", "f", FuncType::new(vec![], vec![]));
    }

    #[test]
    fn type_dedup() {
        let mut b = ModuleBuilder::new();
        let ft = FuncType::new(vec![ValType::I32], vec![ValType::I32]);
        b.func(ft.clone(), |f| {
            f.local_get(0);
        });
        b.func(ft, |f| {
            f.local_get(0);
        });
        let m = b.build();
        assert_eq!(m.types.len(), 1);
        assert_eq!(m.funcs, vec![0, 0]);
    }

    #[test]
    fn locals_compressed() {
        let mut b = ModuleBuilder::new();
        b.func(FuncType::new(vec![ValType::I32], vec![]), |f| {
            let a = f.local(ValType::I32);
            let c = f.local(ValType::I32);
            let d = f.local(ValType::F64);
            assert_eq!((a, c, d), (1, 2, 3));
        });
        let m = b.build();
        assert_eq!(m.bodies[0].locals, vec![(2, ValType::I32), (1, ValType::F64)]);
    }

    #[test]
    fn structured_control_helpers() {
        let mut b = ModuleBuilder::new();
        b.func(FuncType::new(vec![], vec![ValType::I32]), |f| {
            f.block(BlockType::Value(ValType::I32), |f| {
                f.i32_const(5);
            });
        });
        let m = b.build();
        // block i32 / i32.const 5 / end / end
        assert_eq!(m.bodies[0].code.as_ref(), &[0x02, 0x7f, 0x41, 5, 0x0b, 0x0b]);
    }

    #[test]
    fn data_and_memory() {
        let mut b = ModuleBuilder::new();
        let mem = b.memory(1, Some(2));
        b.export_memory("memory", mem);
        b.data(16, &b"hi"[..]);
        let m = decode_module(b.build_bytes()).unwrap();
        assert_eq!(m.memories.len(), 1);
        assert_eq!(m.data[0].bytes.as_ref(), b"hi");
        assert_eq!(m.data[0].offset, ConstExpr::I32(16));
    }
}
