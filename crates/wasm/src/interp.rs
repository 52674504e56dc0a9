//! The in-place bytecode interpreter (the WAMR-profile execution tier).
//!
//! Executes **directly from the raw code bytes** of the decoded module — no
//! per-function code expansion at all. The dispatch loop switches on the
//! opcode byte at `pc` and reads immediates inline (one-byte LEB128 fast
//! path); nothing is decoded into an intermediate form.
//!
//! The only derived structure is a small control [`SideTable`] per
//! function — where each `block`/`loop` ends — which each instance builds
//! on the function's first call, keeps, and is charged for. This is how
//! WAMR's classic interpreter keeps per-instance memory near zero,
//! which — multiplied by 400 containers — is the paper's headline result.
//!
//! Operands *and* locals of every live frame share the instance's one slot
//! vector. Frames overlap as in [`crate::lowered`]: a call's arguments
//! become the callee's first locals where they lie, and its results are
//! left where the arguments were.
//!
//! ```text
//!         caller's operands ┐            ┌ callee's operands
//!   … | locals | o o o a0 a1 | l2 l3 … | o o …
//!                      └ fp (callee)    └ fp + params + declared locals
//! ```
//!
//! Work units are counted per dispatched bytecode (the rule is stated on
//! [`crate::ExecStats::instrs_retired`]) by counting down a local *slice*
//! handed out by the instance; see the accounting notes in
//! [`crate::instance`].

use std::cell::OnceCell;
use std::sync::Arc;

use crate::instance::{Instance, MAX_CALL_DEPTH};
use crate::instr::{op, read_instr, Instruction};
use crate::leb128;
use crate::module::Module;
use crate::values::{Slot, Trap, Value};

/// One control-structure record: where its `end` lives, and where the
/// side table continues once control leaves through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SideEntry {
    /// Byte offset of the `block`/`loop` opcode.
    pub(crate) at: u32,
    /// Byte offset of the matching `end` opcode.
    pub(crate) end: u32,
    /// Index of the first entry past this construct's `end`.
    pub(crate) next: u32,
}

/// Per-function control side-table: one entry per `block`/`loop`, in code
/// order.
///
/// Entries are consumed by *position*, never searched: the interpreter
/// keeps a cursor that names the next opener at or after `pc`. Falling
/// into an opener takes the entry under the cursor and steps past it;
/// every jump lands on a cursor value recorded here (`next`, or the
/// entry's own index plus one for a loop's back-edge).
#[derive(Debug, Clone, Default)]
pub struct SideTable {
    entries: Vec<SideEntry>,
}

impl SideTable {
    /// Scan a function body and record every opener's matching offsets.
    ///
    /// Total on arbitrary bytes: a body that is not a balanced sequence of
    /// well-formed instructions closed by exactly one final `end` is an
    /// error, never a panic — so a table, once built, can be trusted by
    /// the interpreter without further checks.
    pub fn build(code: &[u8]) -> Result<SideTable, Trap> {
        let malformed =
            |what: &str, at: usize| Trap::HostError(format!("side-table scan: {what} at {at}"));
        if u32::try_from(code.len()).is_err() {
            return Err(malformed("function body over 4 GiB", 0));
        }
        let mut entries: Vec<SideEntry> = Vec::new();
        let mut open: Vec<usize> = Vec::new();
        let mut closed = false;
        let mut pos = 0usize;
        while pos < code.len() {
            if closed {
                return Err(malformed("code after the function's end", pos));
            }
            let (instr, n) = read_instr(&code[pos..])
                .map_err(|e| Trap::HostError(format!("side-table scan: {e}")))?;
            let here = entries.len() as u32;
            match instr {
                Instruction::Block | Instruction::Loop => {
                    open.push(entries.len());
                    entries.push(SideEntry { at: pos as u32, end: 0, next: 0 });
                }
                Instruction::End => match open.pop() {
                    Some(idx) => {
                        entries[idx].end = pos as u32;
                        entries[idx].next = here;
                    }
                    // The `end` with nothing open closes the function.
                    None => closed = true,
                },
                _ => {}
            }
            pos += n;
        }
        if !closed {
            return Err(malformed("function body is not closed", code.len()));
        }
        Ok(SideTable { entries })
    }

    /// Modelled resident size — what the WAMR profile charges per function
    /// for control metadata: three 32-bit offsets (opener, `else`, `end`)
    /// per construct, as an engine that looks entries up by offset keeps
    /// (the `else` slot stays in the model although no kept construct has
    /// one). The cursor field is this implementation's way of not
    /// searching and is deliberately not charged; every simulated
    /// "side-tables" mapping is sized from this figure.
    pub(crate) fn memory_bytes(&self) -> u64 {
        self.entries.len() as u64 * 12
    }
}

/// The side table of local function `local`, built and charged to `inst`
/// on the function's first call.
fn side_table<'t>(
    inst: &mut Instance,
    module: &Module,
    tables: &'t [OnceCell<SideTable>],
    local: usize,
) -> Result<&'t SideTable, Trap> {
    if let Some(table) = tables[local].get() {
        return Ok(table);
    }
    let table = SideTable::build(&module.bodies[local].code)?;
    inst.stats.side_table_bytes += table.memory_bytes();
    Ok(tables[local].get_or_init(|| table))
}

/// A branch target inside the running function. (The function's own label
/// is not stored: a branch past the innermost frame's labels is a return.)
/// A branch to a block or loop carries no values: the only block type kept
/// is the empty one.
#[derive(Debug, Clone, Copy)]
struct Target {
    /// Where a branch to this label continues: just past the `end` for a
    /// block, just past the `loop` header for a loop.
    pc: u32,
    /// Side-table cursor at `pc`.
    stp: u32,
    /// Absolute stack height at the construct's entry.
    height: u32,
    /// A branch to a loop keeps the label: it is entered again.
    is_loop: bool,
}

/// A suspended caller: what a return restores.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Local function index of the caller.
    func: u32,
    pc: u32,
    stp: u32,
    results: u32,
    fp: usize,
    /// Where the caller's labels begin in the shared label stack.
    labels: usize,
}

/// Make `stack[..=at]` addressable. Doubling keeps pushes amortised O(1);
/// the vector is handed back to the instance, so a later invoke starts
/// with whatever this one grew.
#[cold]
#[inline(never)]
fn grow(stack: &mut Vec<Slot>, at: usize) {
    let len = (stack.len() * 2).max(at + 64);
    stack.resize(len, Slot(0));
}

#[cold]
fn leb_u32(code: &[u8], at: usize) -> Result<(u32, usize), Trap> {
    leb128::read_u32(&code[at..]).map_err(|e| Trap::HostError(format!("immediate at {at}: {e}")))
}

#[cold]
fn leb_i64(code: &[u8], at: usize) -> Result<(i64, usize), Trap> {
    leb128::read_i64(&code[at..]).map_err(|e| Trap::HostError(format!("immediate at {at}: {e}")))
}

/// Invoke `func_idx` with typed arguments through the in-place interpreter.
pub(crate) fn invoke(
    inst: &mut Instance,
    func_idx: u32,
    args: &[Value],
) -> Result<Vec<Value>, Trap> {
    // Code is borrowed from this handle for the whole run, independently
    // of `inst`.
    let module = Arc::clone(&inst.module);
    let Some(local) = func_idx.checked_sub(module.num_imported_funcs()) else {
        return inst.call_host(func_idx, args);
    };

    // Borrow the instance's side tables and reusable slot vector for this
    // invocation so repeated invokes share them (host functions cannot
    // re-enter the interpreter, so they are never borrowed twice).
    let tables = std::mem::take(&mut inst.side_tables);
    let mut stack = std::mem::take(&mut inst.value_stack);
    let outcome = run(inst, &module, &tables, &mut stack, local as usize, args);
    let result = outcome.map(|()| {
        let types = &module.types[module.funcs[local as usize] as usize].results;
        types.iter().zip(&stack).map(|(t, s)| Value::from_slot(*s, *t)).collect()
    });
    inst.value_stack = stack;
    inst.side_tables = tables;
    result
}

/// The interpreter main loop. On `Ok`, the results are in `stack[0..]`.
// The immediate readers always advance `pc`, also where a branch is about
// to overwrite it.
#[allow(unused_assignments)]
fn run(
    inst: &mut Instance,
    module: &Module,
    tables: &[OnceCell<SideTable>],
    stack: &mut Vec<Slot>,
    entry: usize,
    args: &[Value],
) -> Result<(), Trap> {
    let imported = module.num_imported_funcs();
    let mut frames: Vec<Frame> = Vec::new();
    let mut labels: Vec<Target> = Vec::new();

    // The running function. `fp` is where its locals start, `sp` the first
    // free slot, `stp` the side-table cursor, `label_base` where its
    // labels start.
    let mut func = entry;
    let mut code: &[u8] = &module.bodies[func].code;
    let mut side = &side_table(inst, module, tables, func)?.entries[..];
    let mut results = module.types[module.funcs[func] as usize].results.len();
    let (mut pc, mut stp, mut fp, mut label_base) = (0usize, 0usize, 0usize, 0usize);
    let mut sp = args.len() + module.bodies[func].local_count() as usize;
    if stack.len() < sp {
        grow(stack, sp);
    }
    for (slot, arg) in stack.iter_mut().zip(args) {
        *slot = arg.to_slot();
    }
    stack[args.len()..sp].fill(Slot(0));

    // Units left in the current slice (see `Instance::slice`): counted
    // down in a local, settled into the instance on the way out.
    let mut slice = inst.slice();
    let mut left = slice;

    let outcome = 'run: loop {
        // Every exit from the loop is a `break 'run`, so the countdown is
        // settled exactly once whichever way the run ends.
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
        macro_rules! push {
            ($v:expr) => {{
                let v: Slot = $v;
                match stack.get_mut(sp) {
                    Some(slot) => *slot = v,
                    None => {
                        grow(stack, sp);
                        stack[sp] = v;
                    }
                }
                sp += 1;
            }};
        }
        macro_rules! pop {
            () => {{
                sp -= 1;
                stack[sp]
            }};
        }
        // Immediates. Almost every index, offset and small constant is one
        // LEB128 byte; the general decoder is the cold path.
        macro_rules! imm_u32 {
            () => {{
                let b = code[pc];
                if b < 0x80 {
                    pc += 1;
                    b as u32
                } else {
                    let (v, n) = tri!(leb_u32(code, pc));
                    pc += n;
                    v
                }
            }};
        }
        macro_rules! imm_i64 {
            () => {{
                let b = code[pc];
                if b < 0x80 {
                    pc += 1;
                    // Sign-extend from bit 6.
                    ((b << 1) as i8 >> 1) as i64
                } else {
                    let (v, n) = tri!(leb_i64(code, pc));
                    pc += n;
                    v
                }
            }};
        }
        // A memory immediate: the alignment hint is skipped, the offset
        // returned.
        macro_rules! memarg {
            () => {{
                let _align = imm_u32!();
                imm_u32!()
            }};
        }
        macro_rules! mem {
            () => {
                inst.memory.as_mut().expect("validated memory access")
            };
        }
        macro_rules! bin {
            ($get:ident, $from:ident, $f:expr) => {{
                let b = stack[sp - 1].$get();
                let a = stack[sp - 2].$get();
                sp -= 1;
                stack[sp - 1] = Slot::$from($f(a, b));
            }};
        }
        macro_rules! rel {
            ($get:ident, $f:expr) => {{
                let b = stack[sp - 1].$get();
                let a = stack[sp - 2].$get();
                sp -= 1;
                stack[sp - 1] = Slot::from_bool($f(&a, &b));
            }};
        }
        macro_rules! load {
            ($n:literal, $conv:expr) => {{
                let offset = memarg!();
                let addr = stack[sp - 1].u32();
                let bytes: [u8; $n] = tri!(mem!().read(addr, offset));
                stack[sp - 1] = $conv(bytes);
            }};
        }
        macro_rules! store {
            ($get:ident, $to:expr) => {{
                let offset = memarg!();
                let v = stack[sp - 1].$get();
                let addr = stack[sp - 2].u32();
                sp -= 2;
                tri!(mem!().write(addr, offset, $to(v)));
            }};
        }
        // Leave the running function: move its results down to where its
        // arguments were and resume the caller, or finish the run.
        macro_rules! ret {
            () => {{
                stack.copy_within(sp - results..sp, fp);
                sp = fp + results;
                labels.truncate(label_base);
                let Some(caller) = frames.pop() else { break 'run Ok(()) };
                func = caller.func as usize;
                code = &module.bodies[func].code;
                side = &tables[func].get().expect("a caller's side table is built").entries;
                pc = caller.pc as usize;
                stp = caller.stp as usize;
                results = caller.results as usize;
                fp = caller.fp;
                label_base = caller.labels;
            }};
        }
        // Branch to the label `depth` levels out.
        macro_rules! branch {
            ($depth:expr) => {{
                let depth = $depth as usize;
                if depth >= labels.len() - label_base {
                    ret!();
                } else {
                    let at = labels.len() - 1 - depth;
                    let l = labels[at];
                    sp = l.height as usize;
                    pc = l.pc as usize;
                    stp = l.stp as usize;
                    labels.truncate(at + l.is_loop as usize);
                }
            }};
        }
        // Call function `f` of the combined index space, its arguments on
        // top of the stack.
        macro_rules! call {
            ($f:expr) => {{
                let f: u32 = $f;
                if f < imported {
                    // Foreign code runs next: leave the instance exact.
                    inst.settle(slice - left);
                    (slice, left) = (0, 0);
                    let params = module.func_type(f).expect("validated").params.len();
                    let at = sp - params;
                    sp = at + tri!(inst.call_host_in_place(f, stack, at));
                    slice = inst.slice();
                    left = slice;
                } else {
                    if frames.len() + 1 >= MAX_CALL_DEPTH {
                        trap!(Trap::StackOverflow);
                    }
                    let callee = (f - imported) as usize;
                    let ft = &module.types[module.funcs[callee] as usize];
                    let table = tri!(side_table(inst, module, tables, callee));
                    frames.push(Frame {
                        func: func as u32,
                        pc: pc as u32,
                        stp: stp as u32,
                        results: results as u32,
                        fp,
                        labels: label_base,
                    });
                    // The arguments become the callee's first locals where
                    // they lie; its declared locals follow, zeroed.
                    fp = sp - ft.params.len();
                    let locals_end = sp + module.bodies[callee].local_count() as usize;
                    if stack.len() < locals_end {
                        grow(stack, locals_end);
                    }
                    stack[sp..locals_end].fill(Slot(0));
                    sp = locals_end;
                    func = callee;
                    code = &module.bodies[callee].code;
                    side = &table.entries;
                    results = ft.results.len();
                    (pc, stp, label_base) = (0, 0, labels.len());
                }
            }};
        }

        // One work unit per dispatched bytecode, counted before it runs.
        if left == 0 {
            // On a trap nothing is left to settle: `next_slice` did it.
            let spent = std::mem::take(&mut slice);
            slice = tri!(inst.next_slice(spent));
            left = slice;
        } else {
            left -= 1;
        }

        let at = pc;
        let opcode = code[at];
        pc += 1;
        match opcode {
            op::BLOCK => {
                // The block type: the side-table scan admitted only the
                // empty one.
                pc += 1;
                let entry = side[stp];
                debug_assert_eq!(entry.at as usize, at, "side-table cursor out of step");
                stp += 1;
                labels.push(Target {
                    pc: entry.end + 1,
                    stp: entry.next,
                    height: sp as u32,
                    is_loop: false,
                });
            }
            op::LOOP => {
                pc += 1;
                debug_assert_eq!(side[stp].at as usize, at, "side-table cursor out of step");
                stp += 1;
                labels.push(Target {
                    pc: pc as u32,
                    stp: stp as u32,
                    height: sp as u32,
                    is_loop: true,
                });
            }
            op::END => {
                if labels.len() == label_base {
                    ret!();
                } else {
                    labels.pop();
                }
            }
            op::BR => branch!(imm_u32!()),
            op::BR_IF => {
                let depth = imm_u32!();
                if pop!().i32() != 0 {
                    branch!(depth);
                }
            }
            op::CALL => call!(imm_u32!()),

            op::DROP => sp -= 1,
            op::LOCAL_GET => {
                let v = stack[fp + imm_u32!() as usize];
                push!(v);
            }
            op::LOCAL_SET => {
                let idx = fp + imm_u32!() as usize;
                stack[idx] = pop!();
            }

            op::I64_LOAD => load!(8, |b| Slot::from_u64(u64::from_le_bytes(b))),
            op::I32_STORE => store!(u32, |v: u32| v.to_le_bytes()),
            op::MEMORY_GROW => {
                let _reserved = imm_u32!();
                let delta = stack[sp - 1].u32();
                stack[sp - 1] = Slot::from_i32(mem!().grow(delta));
            }

            op::I32_CONST => push!(Slot::from_i32(imm_i64!() as i32)),
            op::I64_CONST => push!(Slot::from_i64(imm_i64!())),

            op::I32_EQZ => stack[sp - 1] = Slot::from_bool(stack[sp - 1].i32() == 0),
            op::I32_EQ => rel!(i32, i32::eq),
            op::I64_GE_U => rel!(u64, u64::ge),

            op::I32_ADD => bin!(i32, from_i32, i32::wrapping_add),
            op::I32_SUB => bin!(i32, from_i32, i32::wrapping_sub),
            op::I32_MUL => bin!(i32, from_i32, i32::wrapping_mul),
            op::I32_XOR => bin!(u32, from_u32, |a, b| a ^ b),
            op::I32_SHR_U => bin!(u32, from_u32, |a: u32, b: u32| a.wrapping_shr(b)),
            op::I32_ROTL => bin!(u32, from_u32, |a: u32, b: u32| a.rotate_left(b & 31)),

            other => trap!(Trap::HostError(format!("opcode {other:#04x} at {at}"))),
        }
    };
    inst.settle(slice - left);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instance::{Imports, Instance, InstanceConfig};
    use crate::types::{FuncType, ValType};

    fn instantiate(b: ModuleBuilder) -> Instance {
        Instance::instantiate(Arc::new(b.build()), Imports::new(), InstanceConfig::default())
            .unwrap()
    }

    /// Run one instruction through the dispatch loop: `inputs` are pushed
    /// (as the function's parameters), `i` executes, and the value it
    /// leaves is returned as a `result`.
    fn run1(i: Instruction, inputs: &[Value], result: ValType) -> Result<Value, Trap> {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let params = inputs.iter().map(Value::ty).collect();
        let f = b.func(FuncType::new(params, vec![result]), |f| {
            for idx in 0..inputs.len() as u32 {
                f.local_get(idx);
            }
            f.op(i);
        });
        b.export_func("f", f);
        instantiate(b).invoke("f", inputs).map(|out| out[0])
    }

    fn i32s(i: Instruction, a: i32, b: i32) -> Result<Value, Trap> {
        run1(i, &[Value::I32(a), Value::I32(b)], ValType::I32)
    }

    #[test]
    fn arithmetic_basics() {
        assert_eq!(i32s(Instruction::I32Add, 2, 3), Ok(Value::I32(5)));
        assert_eq!(i32s(Instruction::I32Sub, 2, 3), Ok(Value::I32(-1)));
        assert_eq!(i32s(Instruction::I32Mul, i32::MAX, 2), Ok(Value::I32(-2)), "wrapping multiply");
        assert_eq!(i32s(Instruction::I32Eq, 4, 4), Ok(Value::I32(1)));
        let ge = |a, b| run1(Instruction::I64GeU, &[Value::I64(a), Value::I64(b)], ValType::I32);
        assert_eq!(ge(-1, 0), Ok(Value::I32(1)), "unsigned: -1 is the largest");
        assert_eq!(ge(0, 1), Ok(Value::I32(0)));
    }

    #[test]
    fn shifts_mask_count() {
        assert_eq!(i32s(Instruction::I32ShrU, 8, 33), Ok(Value::I32(4)), "count is modulo 32");
        assert_eq!(i32s(Instruction::I32ShrU, -8, 1), Ok(Value::I32(0x7fff_fffc)));
        assert_eq!(i32s(Instruction::I32Rotl, i32::MIN, 33), Ok(Value::I32(1)));
    }

    #[test]
    fn i32_stores_read_back_as_one_i64() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let f = b.func(FuncType::new(vec![], vec![ValType::I64]), |f| {
            f.i32_const(16).i32_const(-1).i32_store(0);
            f.i32_const(16).i32_const(7).i32_store(4);
            f.i32_const(16).i64_load(0);
        });
        b.export_func("f", f);
        assert_eq!(instantiate(b).invoke("f", &[]).unwrap(), vec![Value::I64(0x7_ffff_ffff)]);
    }

    #[test]
    fn immediates_wider_than_one_byte() {
        // Constants, local indices and memory offsets past the one-byte
        // LEB128 fast path, and the values on either side of it.
        for v in [0, 1, -1, 63, 64, -64, -65, 127, 128, i32::MAX, i32::MIN] {
            assert_eq!(run1(Instruction::I32Const(v), &[], ValType::I32), Ok(Value::I32(v)));
        }
        for v in [0i64, 63, 64, -64, -65, i64::MAX, i64::MIN] {
            assert_eq!(run1(Instruction::I64Const(v), &[], ValType::I64), Ok(Value::I64(v)));
        }
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let f = b.func(FuncType::new(vec![], vec![ValType::I32]), |f| {
            let mut last = 0;
            for _ in 0..200 {
                last = f.local(ValType::I32);
            }
            f.i32_const(300).local_set(last);
            f.i32_const(0).local_get(last).i32_store(300);
            f.local_get(last);
        });
        b.export_func("f", f);
        let mut inst = instantiate(b);
        assert_eq!(inst.invoke("f", &[]).unwrap(), vec![Value::I32(300)]);
        assert_eq!(inst.memory().unwrap().load_u32(300, 0), Ok(300));
    }

    #[test]
    fn side_table_structure() {
        // block / loop / end / block / end / end / end(function)
        let mut b = ModuleBuilder::new();
        b.func(FuncType::new(vec![], vec![]), |f| {
            f.block(|f| {
                f.loop_(|_| {});
                f.block(|_| {});
            });
        });
        let m = b.build();
        let code = &m.bodies[0].code;
        let table = SideTable::build(code).unwrap();
        let [outer, inner_loop, inner_block] = &table.entries[..] else { panic!("{table:?}") };
        assert_eq!((outer.at, code[outer.end as usize], outer.next), (0, op::END, 3));
        assert_eq!((code[inner_loop.at as usize], inner_loop.next), (op::LOOP, 2));
        assert_eq!((code[inner_block.at as usize], inner_block.next), (op::BLOCK, 3));
        assert!(outer.end > inner_block.end && inner_block.end > inner_loop.end);
        assert_eq!(table.memory_bytes(), 3 * 12, "modelled at three offsets per construct");
    }

    #[test]
    fn side_table_rejects_unbalanced_code() {
        assert!(SideTable::build(&[op::BLOCK, 0x40, op::END]).is_err(), "never closed");
        assert!(SideTable::build(&[op::END, op::END]).is_err(), "code after the end");
        assert!(SideTable::build(&[op::BLOCK, 0x7f, op::END, op::END]).is_err(), "block type");
        assert!(SideTable::build(&[0x04, 0x40, op::END, op::END]).is_err(), "an `if`");
        assert!(SideTable::build(&[op::END]).unwrap().entries.is_empty());
    }

    #[test]
    fn factorial_loop() {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            let acc = f.local(ValType::I32);
            f.i32_const(1).local_set(acc);
            f.block(|f| {
                f.loop_(|f| {
                    f.local_get(0).op(Instruction::I32Eqz).br_if(1);
                    f.local_get(acc).local_get(0).op(Instruction::I32Mul).local_set(acc);
                    f.local_get(0).i32_const(1).op(Instruction::I32Sub).local_set(0);
                    f.br(0);
                });
            });
            f.local_get(acc);
        });
        b.export_func("fact", f);
        let mut inst = instantiate(b);
        let out = inst.invoke("fact", &[Value::I32(6)]).unwrap();
        assert_eq!(out, vec![Value::I32(720)]);
        // Prologue 2, block + loop 2, six full iterations of 12, the exit
        // check 3 (its `br_if` jumps past both `end`s), epilogue 2.
        assert_eq!(inst.stats().instrs_retired, 2 + 2 + 6 * 12 + 3 + 2);
        assert!(inst.stats().lowered_bytes == 0, "in-place tier compiles nothing");
        assert_eq!(inst.stats().side_table_bytes, 2 * 12);
    }

    #[test]
    fn control_bookkeeping_is_counted_as_dispatched() {
        // A taken `br_if` jumps past the block's `end`, which is then never
        // dispatched; a branch not taken falls through to it.
        let retired = |arg| {
            let mut b = ModuleBuilder::new();
            let f = b.func(FuncType::new(vec![ValType::I32], vec![]), |f| {
                f.block(|f| {
                    f.local_get(0).br_if(0);
                });
            });
            b.export_func("f", f);
            let mut inst = instantiate(b);
            inst.invoke("f", &[Value::I32(arg)]).unwrap();
            inst.stats().instrs_retired
        };
        // taken:     block get br_if     | end = 4
        // not taken: block get br_if end | end = 5
        assert_eq!((retired(1), retired(0)), (4, 5));
    }

    #[test]
    fn recursive_sum() {
        let mut b = ModuleBuilder::new();
        // sum(n) = n == 0 ? 0 : n + sum(n - 1); the only local function is
        // index 0.
        let sum = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            let r = f.local(ValType::I32);
            f.block(|f| {
                f.local_get(0).op(Instruction::I32Eqz).br_if(0);
                f.local_get(0).local_get(0).i32_const(1).op(Instruction::I32Sub).call(0);
                f.op(Instruction::I32Add).local_set(r);
            });
            f.local_get(r);
        });
        b.export_func("sum", sum);
        let mut inst = instantiate(b);
        assert_eq!(inst.invoke("sum", &[Value::I32(10)]).unwrap(), vec![Value::I32(55)]);
    }

    #[test]
    fn br_to_function_label_returns() {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![], vec![ValType::I32]), |f| {
            f.i32_const(9).br(0);
        });
        b.export_func("f", f);
        let mut inst = instantiate(b);
        assert_eq!(inst.invoke("f", &[]).unwrap(), vec![Value::I32(9)]);
    }

    #[test]
    fn deep_recursion_overflows() {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![], vec![]), |f| {
            f.call(0);
        });
        b.export_func("recur", f);
        let mut inst = instantiate(b);
        assert_eq!(inst.invoke("recur", &[]), Err(Trap::StackOverflow));
        // One `call` per live frame, the one that overflowed included.
        assert_eq!(inst.stats().instrs_retired, MAX_CALL_DEPTH as u64);
    }

    #[test]
    fn each_instance_builds_and_is_charged_its_own_side_tables_once() {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![], vec![ValType::I32]), |f| {
            f.block(|_| {});
            f.i32_const(3);
        });
        b.export_func("f", f);
        let module = Arc::new(b.build());
        let mut instances = [(); 2].map(|()| {
            Instance::instantiate(Arc::clone(&module), Imports::new(), InstanceConfig::default())
                .unwrap()
        });
        for inst in &mut instances {
            assert_eq!(inst.stats().side_table_bytes, 0, "nothing is built before a call");
            assert!(inst.side_tables[0].get().is_none());
            inst.invoke("f", &[]).unwrap();
            let bytes_once = inst.stats().side_table_bytes;
            assert_eq!(bytes_once, 12);
            let built: *const SideTable = inst.side_tables[0].get().unwrap();
            inst.invoke("f", &[]).unwrap();
            assert_eq!(inst.stats().side_table_bytes, bytes_once, "charged once, reused");
            assert!(std::ptr::eq(built, inst.side_tables[0].get().unwrap()), "built once");
        }
        let [a, b] = &instances;
        let (a, b) = (a.side_tables[0].get().unwrap(), b.side_tables[0].get().unwrap());
        assert!(!std::ptr::eq(a, b), "each instance owns its table");
    }
}
