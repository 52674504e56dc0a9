//! The in-place bytecode interpreter (the WAMR-profile execution tier).
//!
//! Executes **directly from the raw code bytes** of the decoded module — no
//! per-function code expansion at all. The dispatch loop switches on the
//! opcode byte at `pc` and reads immediates inline (one-byte LEB128 fast
//! path); nothing is decoded into an intermediate form, not even
//! `br_table`, whose arms are walked where they lie.
//!
//! The only derived structure is a small control [`SideTable`] per
//! function — where each `block`/`loop`/`if` ends, where its `else` is —
//! built on a function's first call, shared by every instance of the
//! module, and charged to each instance that calls the function. This is
//! how WAMR's classic interpreter keeps per-instance memory near zero,
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

use std::sync::{Arc, OnceLock};

use crate::instance::Instance;
use crate::instr::{op, read_instr, Instruction};
use crate::leb128;
use crate::module::Module;
use crate::numeric::{
    i32_div_s, i32_div_u, i32_rem_s, i32_rem_u, i64_div_s, i64_div_u, i64_rem_s, i64_rem_u,
    wasm_max_f32, wasm_max_f64, wasm_min_f32, wasm_min_f64,
};
use crate::values::{nearest_f32, nearest_f64, trunc, Slot, Trap, Value};

/// `SideEntry::else_` of a construct with no `else` arm.
const NO_ELSE: u32 = u32::MAX;

/// One control-structure record: where its `else`/`end` live, and where
/// the side table continues once control leaves through either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SideEntry {
    /// Byte offset of the `block`/`loop`/`if` opcode.
    pub at: u32,
    /// Byte offset of the matching `end` opcode.
    pub end: u32,
    /// Byte offset just past the matching `else` opcode (`u32::MAX` = none).
    pub else_: u32,
    /// Index of the first entry past this construct's `end`.
    pub next: u32,
    /// Index of the first entry of the `else` arm (when there is one).
    pub else_next: u32,
}

/// Per-function control side-table: one entry per `block`/`loop`/`if`, in
/// code order.
///
/// Entries are consumed by *position*, never searched: the interpreter
/// keeps a cursor that names the next opener at or after `pc`. Falling
/// into an opener takes the entry under the cursor and steps past it;
/// every jump lands on a cursor value recorded here (`next`, `else_next`,
/// or the entry's own index plus one for a loop's back-edge).
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
                Instruction::Block(_) | Instruction::Loop(_) | Instruction::If(_) => {
                    open.push(entries.len());
                    entries.push(SideEntry {
                        at: pos as u32,
                        end: 0,
                        else_: NO_ELSE,
                        next: 0,
                        else_next: 0,
                    });
                }
                Instruction::Else => {
                    let entry = open.last().map(|&idx| &mut entries[idx]);
                    match entry {
                        Some(e) if code[e.at as usize] == op::IF && e.else_ == NO_ELSE => {
                            e.else_ = (pos + 1) as u32;
                            e.else_next = here;
                        }
                        _ => return Err(malformed("else outside the first arm of an if", pos)),
                    }
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
    /// per construct, as an engine that looks entries up by offset keeps.
    /// The two cursor fields are this implementation's way of not
    /// searching and are deliberately not charged; every simulated
    /// "side-tables" mapping is sized from this figure.
    pub fn memory_bytes(&self) -> u64 {
        self.entries.len() as u64 * 12
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The side table of local function `local`: built and published on the
/// module on first use by anyone, charged to `inst` on its own first use.
fn side_table<'m>(
    inst: &mut Instance,
    module: &'m Module,
    tables: &'m [OnceLock<SideTable>],
    local: usize,
) -> Result<&'m SideTable, Trap> {
    let table = match tables[local].get() {
        Some(t) => t,
        None => {
            let built = SideTable::build(&module.bodies[local].code)?;
            tables[local].get_or_init(|| built)
        }
    };
    if !inst.side_table_charged[local] {
        inst.side_table_charged[local] = true;
        inst.stats.side_table_bytes += table.memory_bytes();
    }
    Ok(table)
}

/// A branch target inside the running function. (The function's own label
/// is not stored: a branch past the innermost frame's labels is a return.)
#[derive(Debug, Clone, Copy)]
struct Target {
    /// Where a branch to this label continues: just past the `end` for a
    /// block or `if`, just past the `loop` header for a loop.
    pc: u32,
    /// Side-table cursor at `pc`.
    stp: u32,
    /// Absolute stack height under this label's params.
    height: u32,
    /// Values a branch to this label carries.
    arity: u32,
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
    // Code and side tables are borrowed from this handle for the whole
    // run, independently of `inst`.
    let module = Arc::clone(&inst.module);
    let Some(local) = func_idx.checked_sub(module.num_imported_funcs()) else {
        return inst.call_host(func_idx, args);
    };

    // Borrow the instance's reusable slot vector for this invocation so
    // repeated invokes share one allocation (host functions cannot re-enter
    // the interpreter, so it is never borrowed twice).
    let mut stack = std::mem::take(&mut inst.value_stack);
    let outcome = run(inst, &module, &mut stack, local as usize, args);
    let result = outcome.map(|()| {
        let types = &module.types[module.funcs[local as usize] as usize].results;
        types.iter().zip(&stack).map(|(t, s)| Value::from_slot(*s, *t)).collect()
    });
    inst.value_stack = stack;
    result
}

/// The interpreter main loop. On `Ok`, the results are in `stack[0..]`.
// The immediate readers always advance `pc`, also where a branch is about
// to overwrite it.
#[allow(unused_assignments)]
fn run(
    inst: &mut Instance,
    module: &Module,
    stack: &mut Vec<Slot>,
    entry: usize,
    args: &[Value],
) -> Result<(), Trap> {
    let imported = module.num_imported_funcs();
    let tables = module.compiled.side_tables(module.funcs.len());
    let max_frames = inst.config.max_call_depth;
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
        // (params, results) of the block type at `pc`.
        macro_rules! block_type {
            () => {{
                match code[pc] {
                    0x40 => {
                        pc += 1;
                        (0usize, 0usize)
                    }
                    0x7c..=0x7f => {
                        pc += 1;
                        (0, 1)
                    }
                    _ => {
                        let ft = &module.types[imm_i64!() as usize];
                        (ft.params.len(), ft.results.len())
                    }
                }
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
        macro_rules! bin_try {
            ($get:ident, $from:ident, $f:expr) => {{
                let b = stack[sp - 1].$get();
                let a = stack[sp - 2].$get();
                sp -= 1;
                stack[sp - 1] = Slot::$from(tri!($f(a, b)));
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
        macro_rules! un {
            ($get:ident, $from:ident, $f:expr) => {{
                let a = stack[sp - 1].$get();
                stack[sp - 1] = Slot::$from($f(a));
            }};
        }
        macro_rules! un_try {
            ($get:ident, $from:ident, $f:expr) => {{
                let a = stack[sp - 1].$get();
                stack[sp - 1] = Slot::$from(tri!($f(a)));
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
                    let (height, arity) = (l.height as usize, l.arity as usize);
                    stack.copy_within(sp - arity..sp, height);
                    sp = height + arity;
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
                    if frames.len() + 1 >= max_frames {
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
            op::UNREACHABLE => trap!(Trap::Unreachable),
            op::NOP => {}
            op::BLOCK => {
                let (params, block_results) = block_type!();
                let entry = side[stp];
                debug_assert_eq!(entry.at as usize, at, "side-table cursor out of step");
                stp += 1;
                labels.push(Target {
                    pc: entry.end + 1,
                    stp: entry.next,
                    height: (sp - params) as u32,
                    arity: block_results as u32,
                    is_loop: false,
                });
            }
            op::LOOP => {
                let (params, _) = block_type!();
                debug_assert_eq!(side[stp].at as usize, at, "side-table cursor out of step");
                stp += 1;
                labels.push(Target {
                    pc: pc as u32,
                    stp: stp as u32,
                    height: (sp - params) as u32,
                    arity: params as u32,
                    is_loop: true,
                });
            }
            op::IF => {
                let (params, block_results) = block_type!();
                let entry = side[stp];
                debug_assert_eq!(entry.at as usize, at, "side-table cursor out of step");
                stp += 1;
                if pop!().i32() == 0 {
                    if entry.else_ == NO_ELSE {
                        // Nothing to run: skip the construct, `end` included.
                        pc = entry.end as usize + 1;
                        stp = entry.next as usize;
                        continue;
                    }
                    pc = entry.else_ as usize;
                    stp = entry.else_next as usize;
                }
                labels.push(Target {
                    pc: entry.end + 1,
                    stp: entry.next,
                    height: (sp - params) as u32,
                    arity: block_results as u32,
                    is_loop: false,
                });
            }
            op::ELSE => {
                // End of the then-arm: continue at the matching `end`,
                // which is dispatched (and counted) like any other.
                let l = labels.last().expect("validated: else has a label");
                pc = l.pc as usize - 1;
                stp = l.stp as usize;
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
            op::BR_TABLE => {
                // Walk the arms in place up to the selected one; the
                // default follows the last arm, so it is arm `count`.
                let count = imm_u32!();
                let selected = pop!().u32().min(count);
                let mut depth = imm_u32!();
                for _ in 0..selected {
                    depth = imm_u32!();
                }
                branch!(depth);
            }
            op::RETURN => ret!(),
            op::CALL => call!(imm_u32!()),
            op::CALL_INDIRECT => {
                let type_idx = imm_u32!();
                let _table = imm_u32!();
                let elem = pop!().u32();
                call!(tri!(inst.resolve_indirect(type_idx, elem)));
            }

            op::DROP => sp -= 1,
            op::SELECT => {
                sp -= 2;
                if stack[sp + 1].i32() == 0 {
                    stack[sp - 1] = stack[sp];
                }
            }
            op::LOCAL_GET => {
                let v = stack[fp + imm_u32!() as usize];
                push!(v);
            }
            op::LOCAL_SET => {
                let idx = fp + imm_u32!() as usize;
                stack[idx] = pop!();
            }
            op::LOCAL_TEE => {
                let idx = fp + imm_u32!() as usize;
                stack[idx] = stack[sp - 1];
            }
            op::GLOBAL_GET => {
                let v = inst.globals[imm_u32!() as usize];
                push!(v);
            }
            op::GLOBAL_SET => {
                let idx = imm_u32!() as usize;
                inst.globals[idx] = pop!();
            }

            op::I32_LOAD => load!(4, |b| Slot::from_u32(u32::from_le_bytes(b))),
            op::I64_LOAD => load!(8, |b| Slot::from_u64(u64::from_le_bytes(b))),
            op::F32_LOAD => load!(4, |b| Slot::from_u32(u32::from_le_bytes(b))),
            op::F64_LOAD => load!(8, |b| Slot::from_u64(u64::from_le_bytes(b))),
            op::I32_LOAD8_S => load!(1, |b: [u8; 1]| Slot::from_i32(b[0] as i8 as i32)),
            op::I32_LOAD8_U => load!(1, |b: [u8; 1]| Slot::from_u32(b[0] as u32)),
            op::I32_LOAD16_S => load!(2, |b| Slot::from_i32(i16::from_le_bytes(b) as i32)),
            op::I32_LOAD16_U => load!(2, |b| Slot::from_u32(u16::from_le_bytes(b) as u32)),
            op::I64_LOAD8_S => load!(1, |b: [u8; 1]| Slot::from_i64(b[0] as i8 as i64)),
            op::I64_LOAD8_U => load!(1, |b: [u8; 1]| Slot::from_u64(b[0] as u64)),
            op::I64_LOAD16_S => load!(2, |b| Slot::from_i64(i16::from_le_bytes(b) as i64)),
            op::I64_LOAD16_U => load!(2, |b| Slot::from_u64(u16::from_le_bytes(b) as u64)),
            op::I64_LOAD32_S => load!(4, |b| Slot::from_i64(i32::from_le_bytes(b) as i64)),
            op::I64_LOAD32_U => load!(4, |b| Slot::from_u64(u32::from_le_bytes(b) as u64)),
            op::I32_STORE => store!(u32, |v: u32| v.to_le_bytes()),
            op::I64_STORE => store!(u64, |v: u64| v.to_le_bytes()),
            op::F32_STORE => store!(u32, |v: u32| v.to_le_bytes()),
            op::F64_STORE => store!(u64, |v: u64| v.to_le_bytes()),
            op::I32_STORE8 => store!(u32, |v: u32| [v as u8]),
            op::I32_STORE16 => store!(u32, |v: u32| (v as u16).to_le_bytes()),
            op::I64_STORE8 => store!(u64, |v: u64| [v as u8]),
            op::I64_STORE16 => store!(u64, |v: u64| (v as u16).to_le_bytes()),
            op::I64_STORE32 => store!(u64, |v: u64| (v as u32).to_le_bytes()),
            op::MEMORY_SIZE => {
                let _reserved = imm_u32!();
                let pages = mem!().size_pages();
                push!(Slot::from_u32(pages));
            }
            op::MEMORY_GROW => {
                let _reserved = imm_u32!();
                let delta = stack[sp - 1].u32();
                stack[sp - 1] = Slot::from_i32(mem!().grow(delta));
            }

            op::I32_CONST => push!(Slot::from_i32(imm_i64!() as i32)),
            op::I64_CONST => push!(Slot::from_i64(imm_i64!())),
            op::F32_CONST => {
                let bits: [u8; 4] = code[pc..pc + 4].try_into().expect("four bytes");
                pc += 4;
                push!(Slot::from_u32(u32::from_le_bytes(bits)));
            }
            op::F64_CONST => {
                let bits: [u8; 8] = code[pc..pc + 8].try_into().expect("eight bytes");
                pc += 8;
                push!(Slot::from_u64(u64::from_le_bytes(bits)));
            }

            op::I32_EQZ => un!(i32, from_bool, |a| a == 0),
            op::I32_EQ => rel!(i32, i32::eq),
            op::I32_NE => rel!(i32, i32::ne),
            op::I32_LT_S => rel!(i32, i32::lt),
            op::I32_LT_U => rel!(u32, u32::lt),
            op::I32_GT_S => rel!(i32, i32::gt),
            op::I32_GT_U => rel!(u32, u32::gt),
            op::I32_LE_S => rel!(i32, i32::le),
            op::I32_LE_U => rel!(u32, u32::le),
            op::I32_GE_S => rel!(i32, i32::ge),
            op::I32_GE_U => rel!(u32, u32::ge),
            op::I64_EQZ => un!(i64, from_bool, |a| a == 0),
            op::I64_EQ => rel!(i64, i64::eq),
            op::I64_NE => rel!(i64, i64::ne),
            op::I64_LT_S => rel!(i64, i64::lt),
            op::I64_LT_U => rel!(u64, u64::lt),
            op::I64_GT_S => rel!(i64, i64::gt),
            op::I64_GT_U => rel!(u64, u64::gt),
            op::I64_LE_S => rel!(i64, i64::le),
            op::I64_LE_U => rel!(u64, u64::le),
            op::I64_GE_S => rel!(i64, i64::ge),
            op::I64_GE_U => rel!(u64, u64::ge),
            op::F32_EQ => rel!(f32, |a: &f32, b: &f32| a == b),
            op::F32_NE => rel!(f32, |a: &f32, b: &f32| a != b),
            op::F32_LT => rel!(f32, |a: &f32, b: &f32| a < b),
            op::F32_GT => rel!(f32, |a: &f32, b: &f32| a > b),
            op::F32_LE => rel!(f32, |a: &f32, b: &f32| a <= b),
            op::F32_GE => rel!(f32, |a: &f32, b: &f32| a >= b),
            op::F64_EQ => rel!(f64, |a: &f64, b: &f64| a == b),
            op::F64_NE => rel!(f64, |a: &f64, b: &f64| a != b),
            op::F64_LT => rel!(f64, |a: &f64, b: &f64| a < b),
            op::F64_GT => rel!(f64, |a: &f64, b: &f64| a > b),
            op::F64_LE => rel!(f64, |a: &f64, b: &f64| a <= b),
            op::F64_GE => rel!(f64, |a: &f64, b: &f64| a >= b),

            op::I32_CLZ => un!(u32, from_u32, |a: u32| a.leading_zeros()),
            op::I32_CTZ => un!(u32, from_u32, |a: u32| a.trailing_zeros()),
            op::I32_POPCNT => un!(u32, from_u32, |a: u32| a.count_ones()),
            op::I32_ADD => bin!(i32, from_i32, i32::wrapping_add),
            op::I32_SUB => bin!(i32, from_i32, i32::wrapping_sub),
            op::I32_MUL => bin!(i32, from_i32, i32::wrapping_mul),
            op::I32_DIV_S => bin_try!(i32, from_i32, i32_div_s),
            op::I32_DIV_U => bin_try!(u32, from_u32, i32_div_u),
            op::I32_REM_S => bin_try!(i32, from_i32, i32_rem_s),
            op::I32_REM_U => bin_try!(u32, from_u32, i32_rem_u),
            op::I32_AND => bin!(u32, from_u32, |a, b| a & b),
            op::I32_OR => bin!(u32, from_u32, |a, b| a | b),
            op::I32_XOR => bin!(u32, from_u32, |a, b| a ^ b),
            op::I32_SHL => bin!(u32, from_u32, |a: u32, b: u32| a.wrapping_shl(b)),
            op::I32_SHR_S => bin!(i32, from_i32, |a: i32, b: i32| a.wrapping_shr(b as u32)),
            op::I32_SHR_U => bin!(u32, from_u32, |a: u32, b: u32| a.wrapping_shr(b)),
            op::I32_ROTL => bin!(u32, from_u32, |a: u32, b: u32| a.rotate_left(b & 31)),
            op::I32_ROTR => bin!(u32, from_u32, |a: u32, b: u32| a.rotate_right(b & 31)),
            op::I64_CLZ => un!(u64, from_u64, |a: u64| a.leading_zeros() as u64),
            op::I64_CTZ => un!(u64, from_u64, |a: u64| a.trailing_zeros() as u64),
            op::I64_POPCNT => un!(u64, from_u64, |a: u64| a.count_ones() as u64),
            op::I64_ADD => bin!(i64, from_i64, i64::wrapping_add),
            op::I64_SUB => bin!(i64, from_i64, i64::wrapping_sub),
            op::I64_MUL => bin!(i64, from_i64, i64::wrapping_mul),
            op::I64_DIV_S => bin_try!(i64, from_i64, i64_div_s),
            op::I64_DIV_U => bin_try!(u64, from_u64, i64_div_u),
            op::I64_REM_S => bin_try!(i64, from_i64, i64_rem_s),
            op::I64_REM_U => bin_try!(u64, from_u64, i64_rem_u),
            op::I64_AND => bin!(u64, from_u64, |a, b| a & b),
            op::I64_OR => bin!(u64, from_u64, |a, b| a | b),
            op::I64_XOR => bin!(u64, from_u64, |a, b| a ^ b),
            op::I64_SHL => bin!(u64, from_u64, |a: u64, b: u64| a.wrapping_shl(b as u32)),
            op::I64_SHR_S => bin!(i64, from_i64, |a: i64, b: i64| a.wrapping_shr(b as u32)),
            op::I64_SHR_U => bin!(u64, from_u64, |a: u64, b: u64| a.wrapping_shr(b as u32)),
            op::I64_ROTL => bin!(u64, from_u64, |a: u64, b: u64| a.rotate_left((b & 63) as u32)),
            op::I64_ROTR => bin!(u64, from_u64, |a: u64, b: u64| a.rotate_right((b & 63) as u32)),

            op::F32_ABS => un!(f32, from_f32, f32::abs),
            op::F32_NEG => un!(f32, from_f32, |a: f32| -a),
            op::F32_CEIL => un!(f32, from_f32, f32::ceil),
            op::F32_FLOOR => un!(f32, from_f32, f32::floor),
            op::F32_TRUNC => un!(f32, from_f32, f32::trunc),
            op::F32_NEAREST => un!(f32, from_f32, nearest_f32),
            op::F32_SQRT => un!(f32, from_f32, f32::sqrt),
            op::F32_ADD => bin!(f32, from_f32, |a, b| a + b),
            op::F32_SUB => bin!(f32, from_f32, |a, b| a - b),
            op::F32_MUL => bin!(f32, from_f32, |a, b| a * b),
            op::F32_DIV => bin!(f32, from_f32, |a, b| a / b),
            op::F32_MIN => bin!(f32, from_f32, wasm_min_f32),
            op::F32_MAX => bin!(f32, from_f32, wasm_max_f32),
            op::F32_COPYSIGN => bin!(f32, from_f32, f32::copysign),
            op::F64_ABS => un!(f64, from_f64, f64::abs),
            op::F64_NEG => un!(f64, from_f64, |a: f64| -a),
            op::F64_CEIL => un!(f64, from_f64, f64::ceil),
            op::F64_FLOOR => un!(f64, from_f64, f64::floor),
            op::F64_TRUNC => un!(f64, from_f64, f64::trunc),
            op::F64_NEAREST => un!(f64, from_f64, nearest_f64),
            op::F64_SQRT => un!(f64, from_f64, f64::sqrt),
            op::F64_ADD => bin!(f64, from_f64, |a, b| a + b),
            op::F64_SUB => bin!(f64, from_f64, |a, b| a - b),
            op::F64_MUL => bin!(f64, from_f64, |a, b| a * b),
            op::F64_DIV => bin!(f64, from_f64, |a, b| a / b),
            op::F64_MIN => bin!(f64, from_f64, wasm_min_f64),
            op::F64_MAX => bin!(f64, from_f64, wasm_max_f64),
            op::F64_COPYSIGN => bin!(f64, from_f64, f64::copysign),

            op::I32_WRAP_I64 => un!(i64, from_i32, |a: i64| a as i32),
            op::I32_TRUNC_F32_S => un_try!(f32, from_i32, trunc::i32_from_f32),
            op::I32_TRUNC_F32_U => un_try!(f32, from_u32, trunc::u32_from_f32),
            op::I32_TRUNC_F64_S => un_try!(f64, from_i32, trunc::i32_from_f64),
            op::I32_TRUNC_F64_U => un_try!(f64, from_u32, trunc::u32_from_f64),
            op::I64_EXTEND_I32_S => un!(i32, from_i64, |a: i32| a as i64),
            op::I64_EXTEND_I32_U => un!(u32, from_u64, |a: u32| a as u64),
            op::I64_TRUNC_F32_S => un_try!(f32, from_i64, trunc::i64_from_f32),
            op::I64_TRUNC_F32_U => un_try!(f32, from_u64, trunc::u64_from_f32),
            op::I64_TRUNC_F64_S => un_try!(f64, from_i64, trunc::i64_from_f64),
            op::I64_TRUNC_F64_U => un_try!(f64, from_u64, trunc::u64_from_f64),
            op::F32_CONVERT_I32_S => un!(i32, from_f32, |a: i32| a as f32),
            op::F32_CONVERT_I32_U => un!(u32, from_f32, |a: u32| a as f32),
            op::F32_CONVERT_I64_S => un!(i64, from_f32, |a: i64| a as f32),
            op::F32_CONVERT_I64_U => un!(u64, from_f32, |a: u64| a as f32),
            op::F32_DEMOTE_F64 => un!(f64, from_f32, |a: f64| a as f32),
            op::F64_CONVERT_I32_S => un!(i32, from_f64, |a: i32| a as f64),
            op::F64_CONVERT_I32_U => un!(u32, from_f64, |a: u32| a as f64),
            op::F64_CONVERT_I64_S => un!(i64, from_f64, |a: i64| a as f64),
            op::F64_CONVERT_I64_U => un!(u64, from_f64, |a: u64| a as f64),
            op::F64_PROMOTE_F32 => un!(f32, from_f64, |a: f32| a as f64),
            // The bit pattern is already in the slot.
            op::I32_REINTERPRET_F32
            | op::I64_REINTERPRET_F64
            | op::F32_REINTERPRET_I32
            | op::F64_REINTERPRET_I64 => {}

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
    use crate::instr::MemArg;
    use crate::types::{BlockType, FuncType, ValType};

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
    }

    #[test]
    fn division_traps() {
        assert_eq!(i32s(Instruction::I32DivS, 1, 0), Err(Trap::IntegerDivideByZero));
        assert_eq!(i32s(Instruction::I32DivS, i32::MIN, -1), Err(Trap::IntegerOverflow));
        assert_eq!(
            i32s(Instruction::I32RemS, i32::MIN, -1),
            Ok(Value::I32(0)),
            "rem of MIN/-1 is 0, not a trap"
        );
        assert_eq!(
            run1(Instruction::I64DivU, &[Value::I64(7), Value::I64(2)], ValType::I64),
            Ok(Value::I64(3))
        );
    }

    #[test]
    fn shifts_mask_count() {
        assert_eq!(i32s(Instruction::I32Shl, 1, 33), Ok(Value::I32(2)), "shift count is modulo 32");
        assert_eq!(i32s(Instruction::I32ShrS, -8, 1), Ok(Value::I32(-4)));
    }

    #[test]
    fn float_min_max_semantics() {
        let f32s = [Value::F32(f32::NAN), Value::F32(1.0)];
        let Ok(Value::F32(r)) = run1(Instruction::F32Min, &f32s, ValType::F32) else { panic!() };
        assert!(r.is_nan());
        let zeros = [Value::F64(-0.0), Value::F64(0.0)];
        let Ok(Value::F64(r)) = run1(Instruction::F64Min, &zeros, ValType::F64) else { panic!() };
        assert!(r.is_sign_negative());
        let Ok(Value::F64(r)) = run1(Instruction::F64Max, &zeros, ValType::F64) else { panic!() };
        assert!(r.is_sign_positive());
    }

    #[test]
    fn select_picks_by_condition() {
        let pick = |c| {
            run1(
                Instruction::Select,
                &[Value::I32(10), Value::I32(20), Value::I32(c)],
                ValType::I32,
            )
        };
        assert_eq!(pick(1), Ok(Value::I32(10)));
        assert_eq!(pick(0), Ok(Value::I32(20)));
    }

    #[test]
    fn locals_and_globals() {
        let mut b = ModuleBuilder::new();
        let g = b.global(ValType::I64, true, crate::module::ConstExpr::I64(9));
        let f = b.func(FuncType::new(vec![ValType::I64], vec![ValType::I64]), |f| {
            let tmp = f.local(ValType::I64);
            // tmp = param (tee leaves it on the stack); global = tmp.
            f.local_get(0).local_tee(tmp).global_set(g);
            f.local_get(tmp).global_get(g).op(Instruction::I64Add);
        });
        b.export_func("f", f);
        let mut inst = instantiate(b);
        assert_eq!(inst.invoke("f", &[Value::I64(5)]).unwrap(), vec![Value::I64(10)]);
        assert_eq!(inst.global(g), Some(Value::I64(5)));
    }

    #[test]
    fn memory_load_store_subwidth() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let f = b.func(FuncType::new(vec![], vec![ValType::I32, ValType::I32]), |f| {
            f.i32_const(16).i32_const(-1).op(Instruction::I32Store8(MemArg::default()));
            f.i32_const(16).op(Instruction::I32Load8S(MemArg::default()));
            f.i32_const(16).op(Instruction::I32Load8U(MemArg::default()));
        });
        b.export_func("f", f);
        let mut inst = instantiate(b);
        assert_eq!(inst.invoke("f", &[]).unwrap(), vec![Value::I32(-1), Value::I32(255)]);
    }

    #[test]
    fn conversions() {
        let one = |i, v, t| run1(i, &[v], t);
        assert_eq!(
            one(Instruction::I32WrapI64, Value::I64(0x1_0000_0005), ValType::I32),
            Ok(Value::I32(5))
        );
        assert_eq!(
            one(Instruction::I64ExtendI32S, Value::I32(-1), ValType::I64),
            Ok(Value::I64(-1))
        );
        assert_eq!(
            one(Instruction::I64ExtendI32U, Value::I32(-1), ValType::I64),
            Ok(Value::I64(0xffff_ffff))
        );
        assert_eq!(
            one(Instruction::I32TruncF64S, Value::F64(-3.9), ValType::I32),
            Ok(Value::I32(-3))
        );
        assert_eq!(
            one(Instruction::I32TruncF64S, Value::F64(f64::NAN), ValType::I32),
            Err(Trap::InvalidConversionToInteger)
        );
        assert_eq!(
            one(Instruction::F64ConvertI64U, Value::I64(-1), ValType::F64),
            Ok(Value::F64(u64::MAX as f64))
        );
    }

    #[test]
    fn reinterpret_is_identity_on_slots() {
        let r = run1(Instruction::I32ReinterpretF32, &[Value::F32(1.5)], ValType::I32);
        assert_eq!(r, Ok(Value::I32(1.5f32.to_bits() as i32)));
    }

    #[test]
    fn clz_ctz_popcnt() {
        let one = |i, v| run1(i, &[Value::I32(v)], ValType::I32);
        assert_eq!(one(Instruction::I32Clz, 1), Ok(Value::I32(31)));
        assert_eq!(one(Instruction::I32Ctz, 8), Ok(Value::I32(3)));
        assert_eq!(one(Instruction::I32Popcnt, 0xff), Ok(Value::I32(8)));
        assert_eq!(run1(Instruction::I64Clz, &[Value::I64(1)], ValType::I64), Ok(Value::I64(63)));
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
            f.i32_const(0).i32_const(77).i32_store(300);
            f.i32_const(0).i32_load(300).local_set(last);
            f.local_get(last);
        });
        b.export_func("f", f);
        assert_eq!(instantiate(b).invoke("f", &[]).unwrap(), vec![Value::I32(77)]);
    }

    #[test]
    fn side_table_structure() {
        // block / if / else / end / end / end(function)
        let mut b = ModuleBuilder::new();
        b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            f.block(BlockType::Value(ValType::I32), |f| {
                f.local_get(0);
                f.if_else(
                    BlockType::Value(ValType::I32),
                    |f| {
                        f.i32_const(1);
                    },
                    |f| {
                        f.loop_(BlockType::Value(ValType::I32), |f| {
                            f.i32_const(2);
                        });
                    },
                );
            });
        });
        let m = b.build();
        let code = &m.bodies[0].code;
        let table = SideTable::build(code).unwrap();
        let [outer, cond, inner] = &table.entries[..] else { panic!("{table:?}") };
        assert_eq!((outer.at, code[outer.end as usize]), (0, op::END));
        assert_eq!((outer.else_, outer.next), (NO_ELSE, 3));
        assert_eq!(code[cond.at as usize], op::IF);
        assert_eq!(code[cond.else_ as usize - 1], op::ELSE);
        assert_eq!((cond.else_next, cond.next), (2, 3), "the else arm starts at the loop's entry");
        assert_eq!((code[inner.at as usize], inner.next), (op::LOOP, 3));
        assert!(cond.end > inner.end && outer.end > cond.end);
        assert_eq!(table.memory_bytes(), 3 * 12, "modelled at three offsets per construct");
    }

    #[test]
    fn side_table_rejects_unbalanced_code() {
        assert!(SideTable::build(&[op::ELSE]).is_err(), "else with no opener");
        assert!(SideTable::build(&[op::BLOCK, 0x40, op::ELSE, op::END, op::END]).is_err());
        assert!(SideTable::build(&[op::BLOCK, 0x40, op::END]).is_err(), "never closed");
        assert!(SideTable::build(&[op::END, op::NOP]).is_err(), "code after the end");
        assert!(SideTable::build(&[op::END]).unwrap().is_empty());
    }

    #[test]
    fn factorial_loop() {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            let acc = f.local(ValType::I32);
            f.i32_const(1).local_set(acc);
            f.block(BlockType::Empty, |f| {
                f.loop_(BlockType::Empty, |f| {
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
        // The taken arm's `else` and the `end` it jumps to are dispatched;
        // a false `if` with no else arm skips its `end`.
        let retired = |arg| {
            let mut b = ModuleBuilder::new();
            let f = b.func(FuncType::new(vec![ValType::I32], vec![]), |f| {
                f.local_get(0);
                f.if_else(
                    BlockType::Empty,
                    |f| {
                        f.op(Instruction::Nop);
                    },
                    |_| {},
                );
                f.local_get(0).op(Instruction::If(BlockType::Empty)).op(Instruction::End);
            });
            b.export_func("f", f);
            let mut inst = instantiate(b);
            inst.invoke("f", &[Value::I32(arg)]).unwrap();
            inst.stats().instrs_retired
        };
        // true:  get if nop else end | get if end | end  = 9
        // false: get if end          | get if     | end  = 6
        assert_eq!((retired(1), retired(0)), (9, 6));
    }

    #[test]
    fn recursive_fibonacci() {
        let mut b = ModuleBuilder::new();
        let fib_sig = FuncType::new(vec![ValType::I32], vec![ValType::I32]);
        // Declared index of the (only) local function is 0.
        let fib = b.func(fib_sig, |f| {
            f.local_get(0).i32_const(2).op(Instruction::I32LtS);
            f.if_else(
                BlockType::Value(ValType::I32),
                |f| {
                    f.local_get(0);
                },
                |f| {
                    f.local_get(0).i32_const(1).op(Instruction::I32Sub).call(0);
                    f.local_get(0).i32_const(2).op(Instruction::I32Sub).call(0);
                    f.op(Instruction::I32Add);
                },
            );
        });
        b.export_func("fib", fib);
        let mut inst = instantiate(b);
        assert_eq!(inst.invoke("fib", &[Value::I32(10)]).unwrap(), vec![Value::I32(55)]);
    }

    #[test]
    fn br_table_dispatch() {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            f.block(BlockType::Value(ValType::I32), |f| {
                f.block(BlockType::Empty, |f| {
                    f.block(BlockType::Empty, |f| {
                        // Arms 0 and 1 target the two empty blocks; the
                        // default reuses arm 1.
                        f.local_get(0).br_table(vec![0, 1], 1);
                    });
                    // case 0
                    f.i32_const(100).br(1);
                });
                // case 1 and default
                f.i32_const(200);
            });
        });
        b.export_func("dispatch", f);
        let mut inst = instantiate(b);
        assert_eq!(inst.invoke("dispatch", &[Value::I32(0)]).unwrap(), vec![Value::I32(100)]);
        assert_eq!(inst.invoke("dispatch", &[Value::I32(1)]).unwrap(), vec![Value::I32(200)]);
        assert_eq!(inst.invoke("dispatch", &[Value::I32(9)]).unwrap(), vec![Value::I32(200)]);
        assert_eq!(inst.invoke("dispatch", &[Value::I32(-1)]).unwrap(), vec![Value::I32(200)]);
    }

    #[test]
    fn early_return() {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            f.local_get(0);
            f.if_else(
                BlockType::Empty,
                |f| {
                    f.i32_const(1).return_();
                },
                |_| {},
            );
            f.i32_const(0);
        });
        b.export_func("sign", f);
        let mut inst = instantiate(b);
        assert_eq!(inst.invoke("sign", &[Value::I32(5)]).unwrap(), vec![Value::I32(1)]);
        assert_eq!(inst.invoke("sign", &[Value::I32(0)]).unwrap(), vec![Value::I32(0)]);
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
    fn call_indirect_through_table() {
        let mut b = ModuleBuilder::new();
        let sig = FuncType::new(vec![ValType::I32], vec![ValType::I32]);
        let double = b.func(sig.clone(), |f| {
            f.local_get(0).i32_const(2).op(Instruction::I32Mul);
        });
        let triple = b.func(sig, |f| {
            f.local_get(0).i32_const(3).op(Instruction::I32Mul);
        });
        b.table(2, Some(2));
        b.elem(0, vec![double, triple]);
        let caller =
            b.func(FuncType::new(vec![ValType::I32, ValType::I32], vec![ValType::I32]), |f| {
                f.local_get(0); // argument
                f.local_get(1); // table index
                f.call_indirect(0);
            });
        b.export_func("apply", caller);
        let mut inst = instantiate(b);
        assert_eq!(
            inst.invoke("apply", &[Value::I32(21), Value::I32(0)]).unwrap(),
            vec![Value::I32(42)]
        );
        assert_eq!(
            inst.invoke("apply", &[Value::I32(14), Value::I32(1)]).unwrap(),
            vec![Value::I32(42)]
        );
        // Out-of-bounds table index traps.
        assert_eq!(
            inst.invoke("apply", &[Value::I32(1), Value::I32(7)]),
            Err(Trap::TableOutOfBounds)
        );
    }

    #[test]
    fn unreachable_traps() {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![], vec![]), |f| {
            f.op(Instruction::Unreachable);
        });
        b.export_func("boom", f);
        let mut inst = instantiate(b);
        assert_eq!(inst.invoke("boom", &[]), Err(Trap::Unreachable));
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
        assert_eq!(inst.stats().instrs_retired, InstanceConfig::default().max_call_depth as u64);
    }

    #[test]
    fn side_tables_are_shared_per_module_and_charged_per_instance() {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![], vec![ValType::I32]), |f| {
            f.block(BlockType::Value(ValType::I32), |f| {
                f.i32_const(3);
            });
        });
        b.export_func("f", f);
        let module = Arc::new(b.build());
        let mut instances = [(); 2].map(|()| {
            Instance::instantiate(Arc::clone(&module), Imports::new(), InstanceConfig::default())
                .unwrap()
        });
        assert_eq!(instances[0].stats().side_table_bytes, 0, "nothing is built before a call");
        for inst in &mut instances {
            inst.invoke("f", &[]).unwrap();
            let bytes_once = inst.stats().side_table_bytes;
            assert_eq!(bytes_once, 12);
            inst.invoke("f", &[]).unwrap();
            assert_eq!(inst.stats().side_table_bytes, bytes_once, "charged once, reused");
        }
        let tables = module.compiled.side_tables(module.funcs.len());
        assert_eq!(tables.iter().filter(|t| t.get().is_some()).count(), 1);
    }
}
