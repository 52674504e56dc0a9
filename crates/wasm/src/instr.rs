//! Instructions: the MVP opcode space, a streaming reader, and a writer.
//!
//! The same [`read_instr`] routine is used by the module decoder, the
//! validator, the control side-table builder and the lowering pass, so
//! everything that *scans* code shares one definition of the binary
//! instruction grammar. The in-place interpreter ([`crate::interp`]) is the
//! one exception by design: it dispatches on the opcode byte and reads
//! immediates where they lie — only from bodies the side-table builder has
//! already scanned with `read_instr`.

use crate::error::DecodeError;
use crate::leb128;
use crate::types::{BlockType, ValType};

/// Memory-access immediate: alignment exponent and byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MemArg {
    pub align: u32,
    pub offset: u32,
}

/// Payload of `br_table`, boxed to keep [`Instruction`] small.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BrTableData {
    pub targets: Vec<u32>,
    pub default: u32,
}

/// A single WebAssembly MVP instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instruction {
    // Control.
    Unreachable,
    Nop,
    Block(BlockType),
    Loop(BlockType),
    If(BlockType),
    Else,
    End,
    Br(u32),
    BrIf(u32),
    BrTable(Box<BrTableData>),
    Return,
    Call(u32),
    CallIndirect { type_idx: u32, table_idx: u32 },

    // Parametric.
    Drop,
    Select,

    // Variables.
    LocalGet(u32),
    LocalSet(u32),
    LocalTee(u32),
    GlobalGet(u32),
    GlobalSet(u32),

    // Memory.
    I32Load(MemArg),
    I64Load(MemArg),
    F32Load(MemArg),
    F64Load(MemArg),
    I32Load8S(MemArg),
    I32Load8U(MemArg),
    I32Load16S(MemArg),
    I32Load16U(MemArg),
    I64Load8S(MemArg),
    I64Load8U(MemArg),
    I64Load16S(MemArg),
    I64Load16U(MemArg),
    I64Load32S(MemArg),
    I64Load32U(MemArg),
    I32Store(MemArg),
    I64Store(MemArg),
    F32Store(MemArg),
    F64Store(MemArg),
    I32Store8(MemArg),
    I32Store16(MemArg),
    I64Store8(MemArg),
    I64Store16(MemArg),
    I64Store32(MemArg),
    MemorySize,
    MemoryGrow,

    // Constants.
    I32Const(i32),
    I64Const(i64),
    F32Const(f32),
    F64Const(f64),

    // i32 comparisons.
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
    // i64 comparisons.
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
    // f32 comparisons.
    F32Eq,
    F32Ne,
    F32Lt,
    F32Gt,
    F32Le,
    F32Ge,
    // f64 comparisons.
    F64Eq,
    F64Ne,
    F64Lt,
    F64Gt,
    F64Le,
    F64Ge,

    // i32 arithmetic.
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
    // i64 arithmetic.
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
    // f32 arithmetic.
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
    // f64 arithmetic.
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

    // Conversions.
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
    I32ReinterpretF32,
    I64ReinterpretF64,
    F32ReinterpretI32,
    F64ReinterpretI64,
}

/// Opcode byte constants (spec §5.4).
pub mod op {
    pub const UNREACHABLE: u8 = 0x00;
    pub const NOP: u8 = 0x01;
    pub const BLOCK: u8 = 0x02;
    pub const LOOP: u8 = 0x03;
    pub const IF: u8 = 0x04;
    pub const ELSE: u8 = 0x05;
    pub const END: u8 = 0x0b;
    pub const BR: u8 = 0x0c;
    pub const BR_IF: u8 = 0x0d;
    pub const BR_TABLE: u8 = 0x0e;
    pub const RETURN: u8 = 0x0f;
    pub const CALL: u8 = 0x10;
    pub const CALL_INDIRECT: u8 = 0x11;
    pub const DROP: u8 = 0x1a;
    pub const SELECT: u8 = 0x1b;
    pub const LOCAL_GET: u8 = 0x20;
    pub const LOCAL_SET: u8 = 0x21;
    pub const LOCAL_TEE: u8 = 0x22;
    pub const GLOBAL_GET: u8 = 0x23;
    pub const GLOBAL_SET: u8 = 0x24;
    pub const I32_LOAD: u8 = 0x28;
    pub const I64_LOAD: u8 = 0x29;
    pub const F32_LOAD: u8 = 0x2a;
    pub const F64_LOAD: u8 = 0x2b;
    pub const I32_LOAD8_S: u8 = 0x2c;
    pub const I32_LOAD8_U: u8 = 0x2d;
    pub const I32_LOAD16_S: u8 = 0x2e;
    pub const I32_LOAD16_U: u8 = 0x2f;
    pub const I64_LOAD8_S: u8 = 0x30;
    pub const I64_LOAD8_U: u8 = 0x31;
    pub const I64_LOAD16_S: u8 = 0x32;
    pub const I64_LOAD16_U: u8 = 0x33;
    pub const I64_LOAD32_S: u8 = 0x34;
    pub const I64_LOAD32_U: u8 = 0x35;
    pub const I32_STORE: u8 = 0x36;
    pub const I64_STORE: u8 = 0x37;
    pub const F32_STORE: u8 = 0x38;
    pub const F64_STORE: u8 = 0x39;
    pub const I32_STORE8: u8 = 0x3a;
    pub const I32_STORE16: u8 = 0x3b;
    pub const I64_STORE8: u8 = 0x3c;
    pub const I64_STORE16: u8 = 0x3d;
    pub const I64_STORE32: u8 = 0x3e;
    pub const MEMORY_SIZE: u8 = 0x3f;
    pub const MEMORY_GROW: u8 = 0x40;
    pub const I32_CONST: u8 = 0x41;
    pub const I64_CONST: u8 = 0x42;
    pub const F32_CONST: u8 = 0x43;
    pub const F64_CONST: u8 = 0x44;
    pub const I32_EQZ: u8 = 0x45;
    pub const I32_EQ: u8 = 0x46;
    pub const I32_NE: u8 = 0x47;
    pub const I32_LT_S: u8 = 0x48;
    pub const I32_LT_U: u8 = 0x49;
    pub const I32_GT_S: u8 = 0x4a;
    pub const I32_GT_U: u8 = 0x4b;
    pub const I32_LE_S: u8 = 0x4c;
    pub const I32_LE_U: u8 = 0x4d;
    pub const I32_GE_S: u8 = 0x4e;
    pub const I32_GE_U: u8 = 0x4f;
    pub const I64_EQZ: u8 = 0x50;
    pub const I64_EQ: u8 = 0x51;
    pub const I64_NE: u8 = 0x52;
    pub const I64_LT_S: u8 = 0x53;
    pub const I64_LT_U: u8 = 0x54;
    pub const I64_GT_S: u8 = 0x55;
    pub const I64_GT_U: u8 = 0x56;
    pub const I64_LE_S: u8 = 0x57;
    pub const I64_LE_U: u8 = 0x58;
    pub const I64_GE_S: u8 = 0x59;
    pub const I64_GE_U: u8 = 0x5a;
    pub const F32_EQ: u8 = 0x5b;
    pub const F32_NE: u8 = 0x5c;
    pub const F32_LT: u8 = 0x5d;
    pub const F32_GT: u8 = 0x5e;
    pub const F32_LE: u8 = 0x5f;
    pub const F32_GE: u8 = 0x60;
    pub const F64_EQ: u8 = 0x61;
    pub const F64_NE: u8 = 0x62;
    pub const F64_LT: u8 = 0x63;
    pub const F64_GT: u8 = 0x64;
    pub const F64_LE: u8 = 0x65;
    pub const F64_GE: u8 = 0x66;
    pub const I32_CLZ: u8 = 0x67;
    pub const I32_CTZ: u8 = 0x68;
    pub const I32_POPCNT: u8 = 0x69;
    pub const I32_ADD: u8 = 0x6a;
    pub const I32_SUB: u8 = 0x6b;
    pub const I32_MUL: u8 = 0x6c;
    pub const I32_DIV_S: u8 = 0x6d;
    pub const I32_DIV_U: u8 = 0x6e;
    pub const I32_REM_S: u8 = 0x6f;
    pub const I32_REM_U: u8 = 0x70;
    pub const I32_AND: u8 = 0x71;
    pub const I32_OR: u8 = 0x72;
    pub const I32_XOR: u8 = 0x73;
    pub const I32_SHL: u8 = 0x74;
    pub const I32_SHR_S: u8 = 0x75;
    pub const I32_SHR_U: u8 = 0x76;
    pub const I32_ROTL: u8 = 0x77;
    pub const I32_ROTR: u8 = 0x78;
    pub const I64_CLZ: u8 = 0x79;
    pub const I64_CTZ: u8 = 0x7a;
    pub const I64_POPCNT: u8 = 0x7b;
    pub const I64_ADD: u8 = 0x7c;
    pub const I64_SUB: u8 = 0x7d;
    pub const I64_MUL: u8 = 0x7e;
    pub const I64_DIV_S: u8 = 0x7f;
    pub const I64_DIV_U: u8 = 0x80;
    pub const I64_REM_S: u8 = 0x81;
    pub const I64_REM_U: u8 = 0x82;
    pub const I64_AND: u8 = 0x83;
    pub const I64_OR: u8 = 0x84;
    pub const I64_XOR: u8 = 0x85;
    pub const I64_SHL: u8 = 0x86;
    pub const I64_SHR_S: u8 = 0x87;
    pub const I64_SHR_U: u8 = 0x88;
    pub const I64_ROTL: u8 = 0x89;
    pub const I64_ROTR: u8 = 0x8a;
    pub const F32_ABS: u8 = 0x8b;
    pub const F32_NEG: u8 = 0x8c;
    pub const F32_CEIL: u8 = 0x8d;
    pub const F32_FLOOR: u8 = 0x8e;
    pub const F32_TRUNC: u8 = 0x8f;
    pub const F32_NEAREST: u8 = 0x90;
    pub const F32_SQRT: u8 = 0x91;
    pub const F32_ADD: u8 = 0x92;
    pub const F32_SUB: u8 = 0x93;
    pub const F32_MUL: u8 = 0x94;
    pub const F32_DIV: u8 = 0x95;
    pub const F32_MIN: u8 = 0x96;
    pub const F32_MAX: u8 = 0x97;
    pub const F32_COPYSIGN: u8 = 0x98;
    pub const F64_ABS: u8 = 0x99;
    pub const F64_NEG: u8 = 0x9a;
    pub const F64_CEIL: u8 = 0x9b;
    pub const F64_FLOOR: u8 = 0x9c;
    pub const F64_TRUNC: u8 = 0x9d;
    pub const F64_NEAREST: u8 = 0x9e;
    pub const F64_SQRT: u8 = 0x9f;
    pub const F64_ADD: u8 = 0xa0;
    pub const F64_SUB: u8 = 0xa1;
    pub const F64_MUL: u8 = 0xa2;
    pub const F64_DIV: u8 = 0xa3;
    pub const F64_MIN: u8 = 0xa4;
    pub const F64_MAX: u8 = 0xa5;
    pub const F64_COPYSIGN: u8 = 0xa6;
    pub const I32_WRAP_I64: u8 = 0xa7;
    pub const I32_TRUNC_F32_S: u8 = 0xa8;
    pub const I32_TRUNC_F32_U: u8 = 0xa9;
    pub const I32_TRUNC_F64_S: u8 = 0xaa;
    pub const I32_TRUNC_F64_U: u8 = 0xab;
    pub const I64_EXTEND_I32_S: u8 = 0xac;
    pub const I64_EXTEND_I32_U: u8 = 0xad;
    pub const I64_TRUNC_F32_S: u8 = 0xae;
    pub const I64_TRUNC_F32_U: u8 = 0xaf;
    pub const I64_TRUNC_F64_S: u8 = 0xb0;
    pub const I64_TRUNC_F64_U: u8 = 0xb1;
    pub const F32_CONVERT_I32_S: u8 = 0xb2;
    pub const F32_CONVERT_I32_U: u8 = 0xb3;
    pub const F32_CONVERT_I64_S: u8 = 0xb4;
    pub const F32_CONVERT_I64_U: u8 = 0xb5;
    pub const F32_DEMOTE_F64: u8 = 0xb6;
    pub const F64_CONVERT_I32_S: u8 = 0xb7;
    pub const F64_CONVERT_I32_U: u8 = 0xb8;
    pub const F64_CONVERT_I64_S: u8 = 0xb9;
    pub const F64_CONVERT_I64_U: u8 = 0xba;
    pub const F64_PROMOTE_F32: u8 = 0xbb;
    pub const I32_REINTERPRET_F32: u8 = 0xbc;
    pub const I64_REINTERPRET_F64: u8 = 0xbd;
    pub const F32_REINTERPRET_I32: u8 = 0xbe;
    pub const F64_REINTERPRET_I64: u8 = 0xbf;
}

fn read_block_type(buf: &[u8]) -> Result<(BlockType, usize), DecodeError> {
    let b = *buf.first().ok_or(DecodeError::UnexpectedEof)?;
    match b {
        0x40 => Ok((BlockType::Empty, 1)),
        0x7c..=0x7f => Ok((BlockType::Value(ValType::from_byte(b)?), 1)),
        _ => {
            // Extended form: a signed LEB type index (must be non-negative).
            let (v, n) = leb128::read_i64(buf)?;
            if v < 0 || v > u32::MAX as i64 {
                return Err(DecodeError::BadValType(b));
            }
            Ok((BlockType::Func(v as u32), n))
        }
    }
}

fn write_block_type(out: &mut Vec<u8>, bt: BlockType) {
    match bt {
        BlockType::Empty => out.push(0x40),
        BlockType::Value(t) => out.push(t.byte()),
        BlockType::Func(idx) => leb128::write_i64(out, idx as i64),
    }
}

fn read_memarg(buf: &[u8]) -> Result<(MemArg, usize), DecodeError> {
    let (align, n1) = leb128::read_u32(buf)?;
    let (offset, n2) = leb128::read_u32(&buf[n1..])?;
    Ok((MemArg { align, offset }, n1 + n2))
}

fn write_memarg(out: &mut Vec<u8>, m: MemArg) {
    leb128::write_u32(out, m.align);
    leb128::write_u32(out, m.offset);
}

/// Decode one instruction at the start of `buf`.
/// Returns the instruction and the number of bytes consumed.
pub fn read_instr(buf: &[u8]) -> Result<(Instruction, usize), DecodeError> {
    use Instruction as I;
    let opcode = *buf.first().ok_or(DecodeError::UnexpectedEof)?;
    let rest = &buf[1..];
    macro_rules! simple {
        ($v:expr) => {
            Ok(($v, 1))
        };
    }
    macro_rules! u32_imm {
        ($ctor:expr) => {{
            let (v, n) = leb128::read_u32(rest)?;
            Ok(($ctor(v), 1 + n))
        }};
    }
    macro_rules! memarg {
        ($ctor:expr) => {{
            let (m, n) = read_memarg(rest)?;
            Ok(($ctor(m), 1 + n))
        }};
    }
    match opcode {
        op::UNREACHABLE => simple!(I::Unreachable),
        op::NOP => simple!(I::Nop),
        op::BLOCK => {
            let (bt, n) = read_block_type(rest)?;
            Ok((I::Block(bt), 1 + n))
        }
        op::LOOP => {
            let (bt, n) = read_block_type(rest)?;
            Ok((I::Loop(bt), 1 + n))
        }
        op::IF => {
            let (bt, n) = read_block_type(rest)?;
            Ok((I::If(bt), 1 + n))
        }
        op::ELSE => simple!(I::Else),
        op::END => simple!(I::End),
        op::BR => u32_imm!(I::Br),
        op::BR_IF => u32_imm!(I::BrIf),
        op::BR_TABLE => {
            let (count, mut used) = leb128::read_u32(rest)?;
            // Cap the pre-allocation by the bytes actually available: an
            // adversarial count must hit UnexpectedEof, not abort on a
            // multi-gigabyte reservation.
            let mut targets = Vec::with_capacity((count as usize).min(rest.len()));
            for _ in 0..count {
                let (t, n) = leb128::read_u32(&rest[used..])?;
                targets.push(t);
                used += n;
            }
            let (default, n) = leb128::read_u32(&rest[used..])?;
            used += n;
            Ok((I::BrTable(Box::new(BrTableData { targets, default })), 1 + used))
        }
        op::RETURN => simple!(I::Return),
        op::CALL => u32_imm!(I::Call),
        op::CALL_INDIRECT => {
            let (type_idx, n1) = leb128::read_u32(rest)?;
            let (table_idx, n2) = leb128::read_u32(&rest[n1..])?;
            Ok((I::CallIndirect { type_idx, table_idx }, 1 + n1 + n2))
        }
        op::DROP => simple!(I::Drop),
        op::SELECT => simple!(I::Select),
        op::LOCAL_GET => u32_imm!(I::LocalGet),
        op::LOCAL_SET => u32_imm!(I::LocalSet),
        op::LOCAL_TEE => u32_imm!(I::LocalTee),
        op::GLOBAL_GET => u32_imm!(I::GlobalGet),
        op::GLOBAL_SET => u32_imm!(I::GlobalSet),
        op::I32_LOAD => memarg!(I::I32Load),
        op::I64_LOAD => memarg!(I::I64Load),
        op::F32_LOAD => memarg!(I::F32Load),
        op::F64_LOAD => memarg!(I::F64Load),
        op::I32_LOAD8_S => memarg!(I::I32Load8S),
        op::I32_LOAD8_U => memarg!(I::I32Load8U),
        op::I32_LOAD16_S => memarg!(I::I32Load16S),
        op::I32_LOAD16_U => memarg!(I::I32Load16U),
        op::I64_LOAD8_S => memarg!(I::I64Load8S),
        op::I64_LOAD8_U => memarg!(I::I64Load8U),
        op::I64_LOAD16_S => memarg!(I::I64Load16S),
        op::I64_LOAD16_U => memarg!(I::I64Load16U),
        op::I64_LOAD32_S => memarg!(I::I64Load32S),
        op::I64_LOAD32_U => memarg!(I::I64Load32U),
        op::I32_STORE => memarg!(I::I32Store),
        op::I64_STORE => memarg!(I::I64Store),
        op::F32_STORE => memarg!(I::F32Store),
        op::F64_STORE => memarg!(I::F64Store),
        op::I32_STORE8 => memarg!(I::I32Store8),
        op::I32_STORE16 => memarg!(I::I32Store16),
        op::I64_STORE8 => memarg!(I::I64Store8),
        op::I64_STORE16 => memarg!(I::I64Store16),
        op::I64_STORE32 => memarg!(I::I64Store32),
        op::MEMORY_SIZE => {
            let (idx, n) = leb128::read_u32(rest)?;
            if idx != 0 {
                return Err(DecodeError::Malformed("memory.size reserved byte".into()));
            }
            Ok((I::MemorySize, 1 + n))
        }
        op::MEMORY_GROW => {
            let (idx, n) = leb128::read_u32(rest)?;
            if idx != 0 {
                return Err(DecodeError::Malformed("memory.grow reserved byte".into()));
            }
            Ok((I::MemoryGrow, 1 + n))
        }
        op::I32_CONST => {
            let (v, n) = leb128::read_i32(rest)?;
            Ok((I::I32Const(v), 1 + n))
        }
        op::I64_CONST => {
            let (v, n) = leb128::read_i64(rest)?;
            Ok((I::I64Const(v), 1 + n))
        }
        op::F32_CONST => {
            if rest.len() < 4 {
                return Err(DecodeError::UnexpectedEof);
            }
            let v = f32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
            Ok((I::F32Const(v), 5))
        }
        op::F64_CONST => {
            if rest.len() < 8 {
                return Err(DecodeError::UnexpectedEof);
            }
            let mut b = [0u8; 8];
            b.copy_from_slice(&rest[..8]);
            Ok((I::F64Const(f64::from_le_bytes(b)), 9))
        }
        op::I32_EQZ => simple!(I::I32Eqz),
        op::I32_EQ => simple!(I::I32Eq),
        op::I32_NE => simple!(I::I32Ne),
        op::I32_LT_S => simple!(I::I32LtS),
        op::I32_LT_U => simple!(I::I32LtU),
        op::I32_GT_S => simple!(I::I32GtS),
        op::I32_GT_U => simple!(I::I32GtU),
        op::I32_LE_S => simple!(I::I32LeS),
        op::I32_LE_U => simple!(I::I32LeU),
        op::I32_GE_S => simple!(I::I32GeS),
        op::I32_GE_U => simple!(I::I32GeU),
        op::I64_EQZ => simple!(I::I64Eqz),
        op::I64_EQ => simple!(I::I64Eq),
        op::I64_NE => simple!(I::I64Ne),
        op::I64_LT_S => simple!(I::I64LtS),
        op::I64_LT_U => simple!(I::I64LtU),
        op::I64_GT_S => simple!(I::I64GtS),
        op::I64_GT_U => simple!(I::I64GtU),
        op::I64_LE_S => simple!(I::I64LeS),
        op::I64_LE_U => simple!(I::I64LeU),
        op::I64_GE_S => simple!(I::I64GeS),
        op::I64_GE_U => simple!(I::I64GeU),
        op::F32_EQ => simple!(I::F32Eq),
        op::F32_NE => simple!(I::F32Ne),
        op::F32_LT => simple!(I::F32Lt),
        op::F32_GT => simple!(I::F32Gt),
        op::F32_LE => simple!(I::F32Le),
        op::F32_GE => simple!(I::F32Ge),
        op::F64_EQ => simple!(I::F64Eq),
        op::F64_NE => simple!(I::F64Ne),
        op::F64_LT => simple!(I::F64Lt),
        op::F64_GT => simple!(I::F64Gt),
        op::F64_LE => simple!(I::F64Le),
        op::F64_GE => simple!(I::F64Ge),
        op::I32_CLZ => simple!(I::I32Clz),
        op::I32_CTZ => simple!(I::I32Ctz),
        op::I32_POPCNT => simple!(I::I32Popcnt),
        op::I32_ADD => simple!(I::I32Add),
        op::I32_SUB => simple!(I::I32Sub),
        op::I32_MUL => simple!(I::I32Mul),
        op::I32_DIV_S => simple!(I::I32DivS),
        op::I32_DIV_U => simple!(I::I32DivU),
        op::I32_REM_S => simple!(I::I32RemS),
        op::I32_REM_U => simple!(I::I32RemU),
        op::I32_AND => simple!(I::I32And),
        op::I32_OR => simple!(I::I32Or),
        op::I32_XOR => simple!(I::I32Xor),
        op::I32_SHL => simple!(I::I32Shl),
        op::I32_SHR_S => simple!(I::I32ShrS),
        op::I32_SHR_U => simple!(I::I32ShrU),
        op::I32_ROTL => simple!(I::I32Rotl),
        op::I32_ROTR => simple!(I::I32Rotr),
        op::I64_CLZ => simple!(I::I64Clz),
        op::I64_CTZ => simple!(I::I64Ctz),
        op::I64_POPCNT => simple!(I::I64Popcnt),
        op::I64_ADD => simple!(I::I64Add),
        op::I64_SUB => simple!(I::I64Sub),
        op::I64_MUL => simple!(I::I64Mul),
        op::I64_DIV_S => simple!(I::I64DivS),
        op::I64_DIV_U => simple!(I::I64DivU),
        op::I64_REM_S => simple!(I::I64RemS),
        op::I64_REM_U => simple!(I::I64RemU),
        op::I64_AND => simple!(I::I64And),
        op::I64_OR => simple!(I::I64Or),
        op::I64_XOR => simple!(I::I64Xor),
        op::I64_SHL => simple!(I::I64Shl),
        op::I64_SHR_S => simple!(I::I64ShrS),
        op::I64_SHR_U => simple!(I::I64ShrU),
        op::I64_ROTL => simple!(I::I64Rotl),
        op::I64_ROTR => simple!(I::I64Rotr),
        op::F32_ABS => simple!(I::F32Abs),
        op::F32_NEG => simple!(I::F32Neg),
        op::F32_CEIL => simple!(I::F32Ceil),
        op::F32_FLOOR => simple!(I::F32Floor),
        op::F32_TRUNC => simple!(I::F32Trunc),
        op::F32_NEAREST => simple!(I::F32Nearest),
        op::F32_SQRT => simple!(I::F32Sqrt),
        op::F32_ADD => simple!(I::F32Add),
        op::F32_SUB => simple!(I::F32Sub),
        op::F32_MUL => simple!(I::F32Mul),
        op::F32_DIV => simple!(I::F32Div),
        op::F32_MIN => simple!(I::F32Min),
        op::F32_MAX => simple!(I::F32Max),
        op::F32_COPYSIGN => simple!(I::F32Copysign),
        op::F64_ABS => simple!(I::F64Abs),
        op::F64_NEG => simple!(I::F64Neg),
        op::F64_CEIL => simple!(I::F64Ceil),
        op::F64_FLOOR => simple!(I::F64Floor),
        op::F64_TRUNC => simple!(I::F64Trunc),
        op::F64_NEAREST => simple!(I::F64Nearest),
        op::F64_SQRT => simple!(I::F64Sqrt),
        op::F64_ADD => simple!(I::F64Add),
        op::F64_SUB => simple!(I::F64Sub),
        op::F64_MUL => simple!(I::F64Mul),
        op::F64_DIV => simple!(I::F64Div),
        op::F64_MIN => simple!(I::F64Min),
        op::F64_MAX => simple!(I::F64Max),
        op::F64_COPYSIGN => simple!(I::F64Copysign),
        op::I32_WRAP_I64 => simple!(I::I32WrapI64),
        op::I32_TRUNC_F32_S => simple!(I::I32TruncF32S),
        op::I32_TRUNC_F32_U => simple!(I::I32TruncF32U),
        op::I32_TRUNC_F64_S => simple!(I::I32TruncF64S),
        op::I32_TRUNC_F64_U => simple!(I::I32TruncF64U),
        op::I64_EXTEND_I32_S => simple!(I::I64ExtendI32S),
        op::I64_EXTEND_I32_U => simple!(I::I64ExtendI32U),
        op::I64_TRUNC_F32_S => simple!(I::I64TruncF32S),
        op::I64_TRUNC_F32_U => simple!(I::I64TruncF32U),
        op::I64_TRUNC_F64_S => simple!(I::I64TruncF64S),
        op::I64_TRUNC_F64_U => simple!(I::I64TruncF64U),
        op::F32_CONVERT_I32_S => simple!(I::F32ConvertI32S),
        op::F32_CONVERT_I32_U => simple!(I::F32ConvertI32U),
        op::F32_CONVERT_I64_S => simple!(I::F32ConvertI64S),
        op::F32_CONVERT_I64_U => simple!(I::F32ConvertI64U),
        op::F32_DEMOTE_F64 => simple!(I::F32DemoteF64),
        op::F64_CONVERT_I32_S => simple!(I::F64ConvertI32S),
        op::F64_CONVERT_I32_U => simple!(I::F64ConvertI32U),
        op::F64_CONVERT_I64_S => simple!(I::F64ConvertI64S),
        op::F64_CONVERT_I64_U => simple!(I::F64ConvertI64U),
        op::F64_PROMOTE_F32 => simple!(I::F64PromoteF32),
        op::I32_REINTERPRET_F32 => simple!(I::I32ReinterpretF32),
        op::I64_REINTERPRET_F64 => simple!(I::I64ReinterpretF64),
        op::F32_REINTERPRET_I32 => simple!(I::F32ReinterpretI32),
        op::F64_REINTERPRET_I64 => simple!(I::F64ReinterpretI64),
        other => Err(DecodeError::BadOpcode(other)),
    }
}

/// Encode one instruction.
pub fn write_instr(out: &mut Vec<u8>, instr: &Instruction) {
    use Instruction as I;
    macro_rules! m {
        ($op:expr) => {
            out.push($op)
        };
        ($op:expr, u32 $v:expr) => {{
            out.push($op);
            leb128::write_u32(out, $v);
        }};
        ($op:expr, memarg $v:expr) => {{
            out.push($op);
            write_memarg(out, $v);
        }};
    }
    match instr {
        I::Unreachable => m!(op::UNREACHABLE),
        I::Nop => m!(op::NOP),
        I::Block(bt) => {
            out.push(op::BLOCK);
            write_block_type(out, *bt);
        }
        I::Loop(bt) => {
            out.push(op::LOOP);
            write_block_type(out, *bt);
        }
        I::If(bt) => {
            out.push(op::IF);
            write_block_type(out, *bt);
        }
        I::Else => m!(op::ELSE),
        I::End => m!(op::END),
        I::Br(d) => m!(op::BR, u32 * d),
        I::BrIf(d) => m!(op::BR_IF, u32 * d),
        I::BrTable(bt) => {
            out.push(op::BR_TABLE);
            leb128::write_u32(out, bt.targets.len() as u32);
            for t in &bt.targets {
                leb128::write_u32(out, *t);
            }
            leb128::write_u32(out, bt.default);
        }
        I::Return => m!(op::RETURN),
        I::Call(f) => m!(op::CALL, u32 * f),
        I::CallIndirect { type_idx, table_idx } => {
            out.push(op::CALL_INDIRECT);
            leb128::write_u32(out, *type_idx);
            leb128::write_u32(out, *table_idx);
        }
        I::Drop => m!(op::DROP),
        I::Select => m!(op::SELECT),
        I::LocalGet(i) => m!(op::LOCAL_GET, u32 * i),
        I::LocalSet(i) => m!(op::LOCAL_SET, u32 * i),
        I::LocalTee(i) => m!(op::LOCAL_TEE, u32 * i),
        I::GlobalGet(i) => m!(op::GLOBAL_GET, u32 * i),
        I::GlobalSet(i) => m!(op::GLOBAL_SET, u32 * i),
        I::I32Load(a) => m!(op::I32_LOAD, memarg * a),
        I::I64Load(a) => m!(op::I64_LOAD, memarg * a),
        I::F32Load(a) => m!(op::F32_LOAD, memarg * a),
        I::F64Load(a) => m!(op::F64_LOAD, memarg * a),
        I::I32Load8S(a) => m!(op::I32_LOAD8_S, memarg * a),
        I::I32Load8U(a) => m!(op::I32_LOAD8_U, memarg * a),
        I::I32Load16S(a) => m!(op::I32_LOAD16_S, memarg * a),
        I::I32Load16U(a) => m!(op::I32_LOAD16_U, memarg * a),
        I::I64Load8S(a) => m!(op::I64_LOAD8_S, memarg * a),
        I::I64Load8U(a) => m!(op::I64_LOAD8_U, memarg * a),
        I::I64Load16S(a) => m!(op::I64_LOAD16_S, memarg * a),
        I::I64Load16U(a) => m!(op::I64_LOAD16_U, memarg * a),
        I::I64Load32S(a) => m!(op::I64_LOAD32_S, memarg * a),
        I::I64Load32U(a) => m!(op::I64_LOAD32_U, memarg * a),
        I::I32Store(a) => m!(op::I32_STORE, memarg * a),
        I::I64Store(a) => m!(op::I64_STORE, memarg * a),
        I::F32Store(a) => m!(op::F32_STORE, memarg * a),
        I::F64Store(a) => m!(op::F64_STORE, memarg * a),
        I::I32Store8(a) => m!(op::I32_STORE8, memarg * a),
        I::I32Store16(a) => m!(op::I32_STORE16, memarg * a),
        I::I64Store8(a) => m!(op::I64_STORE8, memarg * a),
        I::I64Store16(a) => m!(op::I64_STORE16, memarg * a),
        I::I64Store32(a) => m!(op::I64_STORE32, memarg * a),
        I::MemorySize => {
            out.push(op::MEMORY_SIZE);
            out.push(0x00);
        }
        I::MemoryGrow => {
            out.push(op::MEMORY_GROW);
            out.push(0x00);
        }
        I::I32Const(v) => {
            out.push(op::I32_CONST);
            leb128::write_i32(out, *v);
        }
        I::I64Const(v) => {
            out.push(op::I64_CONST);
            leb128::write_i64(out, *v);
        }
        I::F32Const(v) => {
            out.push(op::F32_CONST);
            out.extend_from_slice(&v.to_le_bytes());
        }
        I::F64Const(v) => {
            out.push(op::F64_CONST);
            out.extend_from_slice(&v.to_le_bytes());
        }
        I::I32Eqz => m!(op::I32_EQZ),
        I::I32Eq => m!(op::I32_EQ),
        I::I32Ne => m!(op::I32_NE),
        I::I32LtS => m!(op::I32_LT_S),
        I::I32LtU => m!(op::I32_LT_U),
        I::I32GtS => m!(op::I32_GT_S),
        I::I32GtU => m!(op::I32_GT_U),
        I::I32LeS => m!(op::I32_LE_S),
        I::I32LeU => m!(op::I32_LE_U),
        I::I32GeS => m!(op::I32_GE_S),
        I::I32GeU => m!(op::I32_GE_U),
        I::I64Eqz => m!(op::I64_EQZ),
        I::I64Eq => m!(op::I64_EQ),
        I::I64Ne => m!(op::I64_NE),
        I::I64LtS => m!(op::I64_LT_S),
        I::I64LtU => m!(op::I64_LT_U),
        I::I64GtS => m!(op::I64_GT_S),
        I::I64GtU => m!(op::I64_GT_U),
        I::I64LeS => m!(op::I64_LE_S),
        I::I64LeU => m!(op::I64_LE_U),
        I::I64GeS => m!(op::I64_GE_S),
        I::I64GeU => m!(op::I64_GE_U),
        I::F32Eq => m!(op::F32_EQ),
        I::F32Ne => m!(op::F32_NE),
        I::F32Lt => m!(op::F32_LT),
        I::F32Gt => m!(op::F32_GT),
        I::F32Le => m!(op::F32_LE),
        I::F32Ge => m!(op::F32_GE),
        I::F64Eq => m!(op::F64_EQ),
        I::F64Ne => m!(op::F64_NE),
        I::F64Lt => m!(op::F64_LT),
        I::F64Gt => m!(op::F64_GT),
        I::F64Le => m!(op::F64_LE),
        I::F64Ge => m!(op::F64_GE),
        I::I32Clz => m!(op::I32_CLZ),
        I::I32Ctz => m!(op::I32_CTZ),
        I::I32Popcnt => m!(op::I32_POPCNT),
        I::I32Add => m!(op::I32_ADD),
        I::I32Sub => m!(op::I32_SUB),
        I::I32Mul => m!(op::I32_MUL),
        I::I32DivS => m!(op::I32_DIV_S),
        I::I32DivU => m!(op::I32_DIV_U),
        I::I32RemS => m!(op::I32_REM_S),
        I::I32RemU => m!(op::I32_REM_U),
        I::I32And => m!(op::I32_AND),
        I::I32Or => m!(op::I32_OR),
        I::I32Xor => m!(op::I32_XOR),
        I::I32Shl => m!(op::I32_SHL),
        I::I32ShrS => m!(op::I32_SHR_S),
        I::I32ShrU => m!(op::I32_SHR_U),
        I::I32Rotl => m!(op::I32_ROTL),
        I::I32Rotr => m!(op::I32_ROTR),
        I::I64Clz => m!(op::I64_CLZ),
        I::I64Ctz => m!(op::I64_CTZ),
        I::I64Popcnt => m!(op::I64_POPCNT),
        I::I64Add => m!(op::I64_ADD),
        I::I64Sub => m!(op::I64_SUB),
        I::I64Mul => m!(op::I64_MUL),
        I::I64DivS => m!(op::I64_DIV_S),
        I::I64DivU => m!(op::I64_DIV_U),
        I::I64RemS => m!(op::I64_REM_S),
        I::I64RemU => m!(op::I64_REM_U),
        I::I64And => m!(op::I64_AND),
        I::I64Or => m!(op::I64_OR),
        I::I64Xor => m!(op::I64_XOR),
        I::I64Shl => m!(op::I64_SHL),
        I::I64ShrS => m!(op::I64_SHR_S),
        I::I64ShrU => m!(op::I64_SHR_U),
        I::I64Rotl => m!(op::I64_ROTL),
        I::I64Rotr => m!(op::I64_ROTR),
        I::F32Abs => m!(op::F32_ABS),
        I::F32Neg => m!(op::F32_NEG),
        I::F32Ceil => m!(op::F32_CEIL),
        I::F32Floor => m!(op::F32_FLOOR),
        I::F32Trunc => m!(op::F32_TRUNC),
        I::F32Nearest => m!(op::F32_NEAREST),
        I::F32Sqrt => m!(op::F32_SQRT),
        I::F32Add => m!(op::F32_ADD),
        I::F32Sub => m!(op::F32_SUB),
        I::F32Mul => m!(op::F32_MUL),
        I::F32Div => m!(op::F32_DIV),
        I::F32Min => m!(op::F32_MIN),
        I::F32Max => m!(op::F32_MAX),
        I::F32Copysign => m!(op::F32_COPYSIGN),
        I::F64Abs => m!(op::F64_ABS),
        I::F64Neg => m!(op::F64_NEG),
        I::F64Ceil => m!(op::F64_CEIL),
        I::F64Floor => m!(op::F64_FLOOR),
        I::F64Trunc => m!(op::F64_TRUNC),
        I::F64Nearest => m!(op::F64_NEAREST),
        I::F64Sqrt => m!(op::F64_SQRT),
        I::F64Add => m!(op::F64_ADD),
        I::F64Sub => m!(op::F64_SUB),
        I::F64Mul => m!(op::F64_MUL),
        I::F64Div => m!(op::F64_DIV),
        I::F64Min => m!(op::F64_MIN),
        I::F64Max => m!(op::F64_MAX),
        I::F64Copysign => m!(op::F64_COPYSIGN),
        I::I32WrapI64 => m!(op::I32_WRAP_I64),
        I::I32TruncF32S => m!(op::I32_TRUNC_F32_S),
        I::I32TruncF32U => m!(op::I32_TRUNC_F32_U),
        I::I32TruncF64S => m!(op::I32_TRUNC_F64_S),
        I::I32TruncF64U => m!(op::I32_TRUNC_F64_U),
        I::I64ExtendI32S => m!(op::I64_EXTEND_I32_S),
        I::I64ExtendI32U => m!(op::I64_EXTEND_I32_U),
        I::I64TruncF32S => m!(op::I64_TRUNC_F32_S),
        I::I64TruncF32U => m!(op::I64_TRUNC_F32_U),
        I::I64TruncF64S => m!(op::I64_TRUNC_F64_S),
        I::I64TruncF64U => m!(op::I64_TRUNC_F64_U),
        I::F32ConvertI32S => m!(op::F32_CONVERT_I32_S),
        I::F32ConvertI32U => m!(op::F32_CONVERT_I32_U),
        I::F32ConvertI64S => m!(op::F32_CONVERT_I64_S),
        I::F32ConvertI64U => m!(op::F32_CONVERT_I64_U),
        I::F32DemoteF64 => m!(op::F32_DEMOTE_F64),
        I::F64ConvertI32S => m!(op::F64_CONVERT_I32_S),
        I::F64ConvertI32U => m!(op::F64_CONVERT_I32_U),
        I::F64ConvertI64S => m!(op::F64_CONVERT_I64_S),
        I::F64ConvertI64U => m!(op::F64_CONVERT_I64_U),
        I::F64PromoteF32 => m!(op::F64_PROMOTE_F32),
        I::I32ReinterpretF32 => m!(op::I32_REINTERPRET_F32),
        I::I64ReinterpretF64 => m!(op::I64_REINTERPRET_F64),
        I::F32ReinterpretI32 => m!(op::F32_REINTERPRET_I32),
        I::F64ReinterpretI64 => m!(op::F64_REINTERPRET_I64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(i: Instruction) {
        let mut buf = Vec::new();
        write_instr(&mut buf, &i);
        let (got, n) = read_instr(&buf).unwrap();
        assert_eq!(got, i);
        assert_eq!(n, buf.len());
    }

    #[test]
    fn simple_ops_roundtrip() {
        for i in [
            Instruction::Unreachable,
            Instruction::Nop,
            Instruction::Return,
            Instruction::Drop,
            Instruction::Select,
            Instruction::I32Add,
            Instruction::I64Rotr,
            Instruction::F32Sqrt,
            Instruction::F64Copysign,
            Instruction::I32WrapI64,
            Instruction::F64ReinterpretI64,
            Instruction::MemorySize,
            Instruction::MemoryGrow,
        ] {
            roundtrip(i);
        }
    }

    #[test]
    fn immediates_roundtrip() {
        roundtrip(Instruction::Br(3));
        roundtrip(Instruction::BrIf(0));
        roundtrip(Instruction::Call(1234567));
        roundtrip(Instruction::CallIndirect { type_idx: 7, table_idx: 0 });
        roundtrip(Instruction::LocalGet(99));
        roundtrip(Instruction::GlobalSet(2));
        roundtrip(Instruction::I32Const(-42));
        roundtrip(Instruction::I64Const(i64::MIN));
        roundtrip(Instruction::F32Const(3.5));
        roundtrip(Instruction::F64Const(-0.25));
        roundtrip(Instruction::I32Load(MemArg { align: 2, offset: 1024 }));
        roundtrip(Instruction::I64Store32(MemArg { align: 0, offset: 0 }));
    }

    #[test]
    fn block_types_roundtrip() {
        roundtrip(Instruction::Block(BlockType::Empty));
        roundtrip(Instruction::Loop(BlockType::Value(ValType::I64)));
        roundtrip(Instruction::If(BlockType::Func(5)));
    }

    #[test]
    fn br_table_roundtrip() {
        roundtrip(Instruction::BrTable(Box::new(BrTableData {
            targets: vec![0, 1, 2, 1, 0],
            default: 3,
        })));
        roundtrip(Instruction::BrTable(Box::new(BrTableData { targets: vec![], default: 0 })));
    }

    #[test]
    fn nan_const_roundtrips_bitwise() {
        let nan = f32::from_bits(0x7fc0_1234);
        let mut buf = Vec::new();
        write_instr(&mut buf, &Instruction::F32Const(nan));
        let (got, _) = read_instr(&buf).unwrap();
        match got {
            Instruction::F32Const(v) => assert_eq!(v.to_bits(), nan.to_bits()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_opcode_rejected() {
        assert_eq!(read_instr(&[0xff]), Err(DecodeError::BadOpcode(0xff)));
        assert_eq!(read_instr(&[]), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn memory_size_reserved_byte_enforced() {
        assert!(read_instr(&[op::MEMORY_SIZE, 0x01]).is_err());
        assert!(read_instr(&[op::MEMORY_GROW, 0x01]).is_err());
    }

    #[test]
    fn enum_is_compact() {
        // BrTable payload is boxed precisely to keep this small.
        assert!(std::mem::size_of::<Instruction>() <= 16);
    }
}
