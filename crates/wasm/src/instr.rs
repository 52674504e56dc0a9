//! Instructions: the opcodes the guests use, a streaming reader, and a
//! writer.
//!
//! The kept set is what a run-time census of every binary, example, doc
//! test and benchmark workload found the guests' code to contain; every
//! other opcode byte is [`DecodeError::BadOpcode`], and every block type
//! but the empty one is [`DecodeError::BadBlockType`]. The same
//! [`read_instr`] routine is used by the module decoder, the validator,
//! the control side-table builder and the lowering pass, so everything
//! that *scans* code shares one definition of the binary instruction
//! grammar. The in-place interpreter ([`crate::interp`]) is the one
//! exception by design: it dispatches on the opcode byte and reads
//! immediates where they lie — only from bodies the side-table builder has
//! already scanned with `read_instr`.

use crate::error::DecodeError;
use crate::leb128;

/// Memory-access immediate: alignment exponent and byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MemArg {
    pub align: u32,
    pub offset: u32,
}

/// A single instruction of the kept set. `block` and `loop` carry no
/// type: the only block type kept is the empty one.
#[derive(Debug, Clone, PartialEq)]
pub enum Instruction {
    // Control.
    Block,
    Loop,
    End,
    Br(u32),
    BrIf(u32),
    Call(u32),

    // Parametric.
    Drop,

    // Variables.
    LocalGet(u32),
    LocalSet(u32),

    // Memory.
    I64Load(MemArg),
    I32Store(MemArg),
    MemoryGrow,

    // Constants.
    I32Const(i32),
    I64Const(i64),

    // Comparisons.
    I32Eqz,
    I32Eq,
    I64GeU,

    // i32 arithmetic.
    I32Add,
    I32Sub,
    I32Mul,
    I32Xor,
    I32ShrU,
    I32Rotl,
}

/// Opcode byte constants (spec §5.4).
pub(crate) mod op {
    pub(crate) const BLOCK: u8 = 0x02;
    pub(crate) const LOOP: u8 = 0x03;
    pub(crate) const END: u8 = 0x0b;
    pub(crate) const BR: u8 = 0x0c;
    pub(crate) const BR_IF: u8 = 0x0d;
    pub(crate) const CALL: u8 = 0x10;
    pub(crate) const DROP: u8 = 0x1a;
    pub(crate) const LOCAL_GET: u8 = 0x20;
    pub(crate) const LOCAL_SET: u8 = 0x21;
    pub(crate) const I64_LOAD: u8 = 0x29;
    pub(crate) const I32_STORE: u8 = 0x36;
    pub(crate) const MEMORY_GROW: u8 = 0x40;
    pub(crate) const I32_CONST: u8 = 0x41;
    pub(crate) const I64_CONST: u8 = 0x42;
    pub(crate) const I32_EQZ: u8 = 0x45;
    pub(crate) const I32_EQ: u8 = 0x46;
    pub(crate) const I64_GE_U: u8 = 0x5a;
    pub(crate) const I32_ADD: u8 = 0x6a;
    pub(crate) const I32_SUB: u8 = 0x6b;
    pub(crate) const I32_MUL: u8 = 0x6c;
    pub(crate) const I32_XOR: u8 = 0x73;
    pub(crate) const I32_SHR_U: u8 = 0x76;
    pub(crate) const I32_ROTL: u8 = 0x77;
}

/// The empty block type, the only one kept.
pub(crate) const EMPTY_BLOCK: u8 = 0x40;

fn read_block_type(buf: &[u8]) -> Result<usize, DecodeError> {
    match *buf.first().ok_or(DecodeError::UnexpectedEof)? {
        EMPTY_BLOCK => Ok(1),
        other => Err(DecodeError::BadBlockType(other)),
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
        op::BLOCK => Ok((I::Block, 1 + read_block_type(rest)?)),
        op::LOOP => Ok((I::Loop, 1 + read_block_type(rest)?)),
        op::END => simple!(I::End),
        op::BR => u32_imm!(I::Br),
        op::BR_IF => u32_imm!(I::BrIf),
        op::CALL => u32_imm!(I::Call),
        op::DROP => simple!(I::Drop),
        op::LOCAL_GET => u32_imm!(I::LocalGet),
        op::LOCAL_SET => u32_imm!(I::LocalSet),
        op::I64_LOAD => memarg!(I::I64Load),
        op::I32_STORE => memarg!(I::I32Store),
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
        op::I32_EQZ => simple!(I::I32Eqz),
        op::I32_EQ => simple!(I::I32Eq),
        op::I64_GE_U => simple!(I::I64GeU),
        op::I32_ADD => simple!(I::I32Add),
        op::I32_SUB => simple!(I::I32Sub),
        op::I32_MUL => simple!(I::I32Mul),
        op::I32_XOR => simple!(I::I32Xor),
        op::I32_SHR_U => simple!(I::I32ShrU),
        op::I32_ROTL => simple!(I::I32Rotl),
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
        I::Block => out.extend_from_slice(&[op::BLOCK, EMPTY_BLOCK]),
        I::Loop => out.extend_from_slice(&[op::LOOP, EMPTY_BLOCK]),
        I::End => m!(op::END),
        I::Br(d) => m!(op::BR, u32 * d),
        I::BrIf(d) => m!(op::BR_IF, u32 * d),
        I::Call(f) => m!(op::CALL, u32 * f),
        I::Drop => m!(op::DROP),
        I::LocalGet(i) => m!(op::LOCAL_GET, u32 * i),
        I::LocalSet(i) => m!(op::LOCAL_SET, u32 * i),
        I::I64Load(a) => m!(op::I64_LOAD, memarg * a),
        I::I32Store(a) => m!(op::I32_STORE, memarg * a),
        I::MemoryGrow => out.extend_from_slice(&[op::MEMORY_GROW, 0x00]),
        I::I32Const(v) => {
            out.push(op::I32_CONST);
            leb128::write_i32(out, *v);
        }
        I::I64Const(v) => {
            out.push(op::I64_CONST);
            leb128::write_i64(out, *v);
        }
        I::I32Eqz => m!(op::I32_EQZ),
        I::I32Eq => m!(op::I32_EQ),
        I::I64GeU => m!(op::I64_GE_U),
        I::I32Add => m!(op::I32_ADD),
        I::I32Sub => m!(op::I32_SUB),
        I::I32Mul => m!(op::I32_MUL),
        I::I32Xor => m!(op::I32_XOR),
        I::I32ShrU => m!(op::I32_SHR_U),
        I::I32Rotl => m!(op::I32_ROTL),
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
    fn immediates_roundtrip() {
        roundtrip(Instruction::Br(3));
        roundtrip(Instruction::BrIf(0));
        roundtrip(Instruction::Call(1234567));
        roundtrip(Instruction::LocalGet(99));
        roundtrip(Instruction::I32Const(-42));
        roundtrip(Instruction::I64Const(i64::MIN));
        roundtrip(Instruction::I64Load(MemArg { align: 3, offset: 1024 }));
        roundtrip(Instruction::I32Store(MemArg { align: 0, offset: 0 }));
        roundtrip(Instruction::MemoryGrow);
        roundtrip(Instruction::Block);
    }

    #[test]
    fn bad_opcode_and_block_type_rejected() {
        assert_eq!(read_instr(&[0xff]), Err(DecodeError::BadOpcode(0xff)));
        assert_eq!(read_instr(&[]), Err(DecodeError::UnexpectedEof));
        assert_eq!(read_instr(&[op::BLOCK, 0x7f]), Err(DecodeError::BadBlockType(0x7f)));
        assert_eq!(read_instr(&[op::LOOP]), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn memory_grow_reserved_byte_enforced() {
        assert!(read_instr(&[op::MEMORY_GROW, 0x01]).is_err());
    }

    #[test]
    fn enum_is_compact() {
        assert!(std::mem::size_of::<Instruction>() <= 16);
    }
}
