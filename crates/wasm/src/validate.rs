//! Module validation (spec §3), using the standard operand-stack /
//! control-stack algorithm from the spec appendix.
//!
//! Every engine profile validates before executing — validation cost is part
//! of the startup model (WAMR validates per container start, which is one of
//! the mechanisms behind the Fig. 9 crossover against crun-Wasmtime's cached
//! compilations).

use crate::error::ValidationError;
use crate::instr::{read_instr, Instruction};
use crate::module::{ExportDesc, Module};
use crate::types::{FuncType, MemoryType, ValType};

/// Natural alignment exponent for a `2^align` check.
fn natural_align(bytes: u32) -> u32 {
    bytes.trailing_zeros()
}

struct Frame {
    /// A branch to a loop goes back to its start and carries nothing.
    is_loop: bool,
    /// What the frame leaves on the stack: nothing for a block or loop
    /// (the only block type kept is the empty one), the results for the
    /// function.
    end_types: Vec<ValType>,
    /// Operand stack height on entry.
    height: usize,
    /// Set once this frame's tail is unreachable.
    unreachable: bool,
}

impl Frame {
    /// The types a branch to this frame's label expects.
    fn label_types(&self) -> &[ValType] {
        if self.is_loop {
            &[]
        } else {
            &self.end_types
        }
    }
}

struct FuncValidator<'m> {
    module: &'m Module,
    has_memory: bool,
    locals: Vec<ValType>,
    /// Operand stack; `None` is the unknown (polymorphic) type.
    opds: Vec<Option<ValType>>,
    frames: Vec<Frame>,
}

impl<'m> FuncValidator<'m> {
    fn push(&mut self, t: ValType) {
        self.opds.push(Some(t));
    }

    fn pop(&mut self) -> Result<Option<ValType>, ValidationError> {
        let frame = self.frames.last().expect("frame underflow");
        if self.opds.len() == frame.height {
            if frame.unreachable {
                return Ok(None);
            }
            return Err(ValidationError::TypeMismatch {
                context: "operand stack underflow".into(),
            });
        }
        Ok(self.opds.pop().expect("checked non-empty"))
    }

    fn pop_expect(&mut self, expect: ValType) -> Result<(), ValidationError> {
        match self.pop()? {
            None => Ok(()),
            Some(t) if t == expect => Ok(()),
            Some(t) => Err(ValidationError::TypeMismatch {
                context: format!("expected {expect}, found {t}"),
            }),
        }
    }

    fn pop_expects(&mut self, types: &[ValType]) -> Result<(), ValidationError> {
        for t in types.iter().rev() {
            self.pop_expect(*t)?;
        }
        Ok(())
    }

    fn push_frame(&mut self, is_loop: bool, end_types: Vec<ValType>) {
        let height = self.opds.len();
        self.frames.push(Frame { is_loop, end_types, height, unreachable: false });
    }

    fn pop_frame(&mut self) -> Result<Frame, ValidationError> {
        let end_types = self.frames.last().expect("frame underflow").end_types.clone();
        self.pop_expects(&end_types)?;
        let frame = self.frames.pop().expect("frame underflow");
        if self.opds.len() != frame.height {
            return Err(ValidationError::UnbalancedStack {
                expected: frame.height,
                actual: self.opds.len(),
            });
        }
        Ok(frame)
    }

    fn set_unreachable(&mut self) {
        let frame = self.frames.last_mut().expect("frame underflow");
        self.opds.truncate(frame.height);
        frame.unreachable = true;
    }

    fn label(&self, depth: u32) -> Result<&Frame, ValidationError> {
        let n = self.frames.len();
        if depth as usize >= n {
            return Err(ValidationError::UnknownLabel(depth));
        }
        Ok(&self.frames[n - 1 - depth as usize])
    }

    fn local(&self, idx: u32) -> Result<ValType, ValidationError> {
        self.locals.get(idx as usize).copied().ok_or(ValidationError::UnknownLocal(idx))
    }

    fn check_mem(&self) -> Result<(), ValidationError> {
        if !self.has_memory {
            return Err(ValidationError::UnknownMemory(0));
        }
        Ok(())
    }

    fn check_align(&self, align: u32, access_bytes: u32) -> Result<(), ValidationError> {
        let natural = natural_align(access_bytes);
        if align > natural {
            return Err(ValidationError::BadAlignment { align, natural });
        }
        Ok(())
    }

    fn binop(&mut self, t: ValType, result: ValType) -> Result<(), ValidationError> {
        self.pop_expect(t)?;
        self.pop_expect(t)?;
        self.push(result);
        Ok(())
    }

    fn instr(&mut self, i: &Instruction) -> Result<(), ValidationError> {
        use Instruction as I;
        use ValType::*;
        match i {
            I::Block => self.push_frame(false, vec![]),
            I::Loop => self.push_frame(true, vec![]),
            I::End => {
                let frame = self.pop_frame()?;
                for t in &frame.end_types {
                    self.push(*t);
                }
            }
            I::Br(depth) => {
                let types = self.label(*depth)?.label_types().to_vec();
                self.pop_expects(&types)?;
                self.set_unreachable();
            }
            I::BrIf(depth) => {
                self.pop_expect(I32)?;
                let types = self.label(*depth)?.label_types().to_vec();
                self.pop_expects(&types)?;
                for t in &types {
                    self.push(*t);
                }
            }
            I::Call(f) => {
                let ft = self.module.func_type(*f).ok_or(ValidationError::UnknownFunc(*f))?.clone();
                self.pop_expects(&ft.params)?;
                for r in &ft.results {
                    self.push(*r);
                }
            }
            I::Drop => {
                self.pop()?;
            }
            I::LocalGet(idx) => {
                let t = self.local(*idx)?;
                self.push(t);
            }
            I::LocalSet(idx) => {
                let t = self.local(*idx)?;
                self.pop_expect(t)?;
            }
            I::I64Load(a) => {
                self.check_mem()?;
                self.check_align(a.align, 8)?;
                self.pop_expect(I32)?;
                self.push(I64);
            }
            I::I32Store(a) => {
                self.check_mem()?;
                self.check_align(a.align, 4)?;
                self.pop_expect(I32)?;
                self.pop_expect(I32)?;
            }
            I::MemoryGrow => {
                self.check_mem()?;
                self.pop_expect(I32)?;
                self.push(I32);
            }
            I::I32Const(_) => self.push(I32),
            I::I64Const(_) => self.push(I64),
            I::I32Eqz => {
                self.pop_expect(I32)?;
                self.push(I32);
            }
            I::I64GeU => self.binop(I64, I32)?,
            I::I32Eq | I::I32Add | I::I32Sub | I::I32Mul | I::I32Xor | I::I32ShrU | I::I32Rotl => {
                self.binop(I32, I32)?
            }
        }
        Ok(())
    }
}

fn valid_memory_limits(m: &MemoryType) -> bool {
    m.limits.is_valid() && m.limits.min <= 65536 && m.limits.max.unwrap_or(0) <= 65536
}

/// Validate a whole module.
pub fn validate_module(module: &Module) -> Result<(), ValidationError> {
    let type_at = |idx: u32| -> Result<&FuncType, ValidationError> {
        module.types.get(idx as usize).ok_or(ValidationError::UnknownType(idx))
    };
    let func_type = |idx: u32| module.func_type(idx).ok_or(ValidationError::UnknownFunc(idx));

    // Types referenced by functions and imports exist.
    for t in module.funcs.iter().chain(module.imports.iter().map(|i| &i.type_idx)) {
        type_at(*t)?;
    }

    // MVP: at most one memory.
    if module.memories.len() > 1 {
        return Err(ValidationError::MultipleMemories);
    }
    if !module.memories.iter().all(valid_memory_limits) {
        return Err(ValidationError::BadLimits);
    }
    let has_memory = !module.memories.is_empty();

    // Exports: valid indices, unique names.
    let mut seen = std::collections::BTreeSet::new();
    for e in &module.exports {
        if !seen.insert(e.name.as_str()) {
            return Err(ValidationError::DuplicateExport(e.name.clone()));
        }
        match e.desc {
            ExportDesc::Func(i) => {
                func_type(i)?;
            }
            ExportDesc::Memory(i) => {
                if i != 0 || !has_memory {
                    return Err(ValidationError::UnknownMemory(i));
                }
            }
        }
    }

    // Data segments.
    for d in &module.data {
        if d.memory != 0 || !has_memory {
            return Err(ValidationError::UnknownMemory(d.memory));
        }
    }

    // Function bodies.
    let imported = module.num_imported_funcs();
    for (i, body) in module.bodies.iter().enumerate() {
        let ft = func_type(imported + i as u32)?;
        let mut locals = ft.params.clone();
        locals.extend(body.expand_locals());
        let mut v =
            FuncValidator { module, has_memory, locals, opds: Vec::new(), frames: Vec::new() };
        v.push_frame(false, ft.results.clone());

        let code = &body.code;
        let mut pos = 0usize;
        while pos < code.len() {
            let (instr, n) = read_instr(&code[pos..]).map_err(ValidationError::Decode)?;
            pos += n;
            v.instr(&instr)?;
            if v.frames.is_empty() {
                // The function's closing `end` was consumed.
                if pos != code.len() {
                    return Err(ValidationError::TypeMismatch {
                        context: "trailing bytes after function end".into(),
                    });
                }
                break;
            }
        }
        if !v.frames.is_empty() {
            return Err(ValidationError::TypeMismatch {
                context: "function body missing final end".into(),
            });
        }
        // Results remain on the stack.
        if v.opds.len() != ft.results.len() {
            return Err(ValidationError::UnbalancedStack {
                expected: ft.results.len(),
                actual: v.opds.len(),
            });
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::error::DecodeError;
    use crate::instr::MemArg;

    fn ft(params: Vec<ValType>, results: Vec<ValType>) -> FuncType {
        FuncType::new(params, results)
    }

    #[test]
    fn valid_add_function() {
        let mut b = ModuleBuilder::new();
        let add = b.func(ft(vec![ValType::I32, ValType::I32], vec![ValType::I32]), |f| {
            f.local_get(0).local_get(1).op(Instruction::I32Add);
        });
        b.export_func("add", add);
        validate_module(&b.build()).unwrap();
    }

    #[test]
    fn stack_underflow_rejected() {
        let mut b = ModuleBuilder::new();
        b.func(ft(vec![], vec![ValType::I32]), |f| {
            f.op(Instruction::I32Add); // nothing on the stack
        });
        assert!(matches!(validate_module(&b.build()), Err(ValidationError::TypeMismatch { .. })));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut b = ModuleBuilder::new();
        b.func(ft(vec![], vec![ValType::I32]), |f| {
            f.i64_const(1).i64_const(2).op(Instruction::I32Add);
        });
        assert!(validate_module(&b.build()).is_err());
    }

    #[test]
    fn unbalanced_result_rejected() {
        let mut b = ModuleBuilder::new();
        b.func(ft(vec![], vec![]), |f| {
            f.i32_const(1); // leaves a value behind
        });
        assert!(validate_module(&b.build()).is_err());
    }

    #[test]
    fn branch_depths_checked() {
        let mut b = ModuleBuilder::new();
        b.func(ft(vec![], vec![]), |f| {
            f.br(5);
        });
        assert_eq!(validate_module(&b.build()), Err(ValidationError::UnknownLabel(5)));
    }

    #[test]
    fn code_after_a_branch_is_polymorphic() {
        let mut b = ModuleBuilder::new();
        b.func(ft(vec![], vec![]), |f| {
            // After `br`, anything type-checks until the block ends.
            f.block(|f| {
                f.br(0).op(Instruction::I32Add).drop_();
            });
        });
        validate_module(&b.build()).unwrap();
    }

    #[test]
    fn valid_loop_with_branch() {
        let mut b = ModuleBuilder::new();
        b.func(ft(vec![ValType::I32], vec![ValType::I32]), |f| {
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
        validate_module(&b.build()).unwrap();
    }

    #[test]
    fn bad_alignment_rejected() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        b.func(ft(vec![], vec![ValType::I64]), |f| {
            // 2^4 = 16 > natural 8.
            f.i32_const(0).op(Instruction::I64Load(MemArg { align: 4, offset: 0 }));
        });
        assert!(matches!(validate_module(&b.build()), Err(ValidationError::BadAlignment { .. })));
    }

    #[test]
    fn memory_ops_require_memory() {
        let mut b = ModuleBuilder::new();
        b.func(ft(vec![], vec![ValType::I32]), |f| {
            f.i32_const(1).op(Instruction::MemoryGrow);
        });
        assert_eq!(validate_module(&b.build()), Err(ValidationError::UnknownMemory(0)));
    }

    #[test]
    fn duplicate_export_rejected() {
        let mut b = ModuleBuilder::new();
        let f0 = b.func(ft(vec![], vec![]), |_| {});
        b.export_func("x", f0);
        b.export_func("x", f0);
        assert!(matches!(validate_module(&b.build()), Err(ValidationError::DuplicateExport(_))));
    }

    #[test]
    fn call_signature_enforced() {
        let mut b = ModuleBuilder::new();
        let callee = b.func(ft(vec![ValType::I64], vec![]), |f| {
            f.local_get(0).drop_();
        });
        b.func(ft(vec![], vec![]), |f| {
            f.i32_const(0).call(callee); // wrong argument type
        });
        assert!(validate_module(&b.build()).is_err());
    }

    #[test]
    fn bytes_the_reader_rejects_are_a_typed_error() {
        let mut m = ModuleBuilder::new().build();
        m.types.push(ft(vec![], vec![]));
        m.funcs.push(0);
        // `nop`, then the function's `end`.
        m.bodies.push(crate::module::FuncBody {
            locals: vec![],
            code: bytelite::Bytes::from_static(&[0x01, 0x0b]),
        });
        assert_eq!(validate_module(&m), Err(ValidationError::Decode(DecodeError::BadOpcode(0x01))));
    }
}
