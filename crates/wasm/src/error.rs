//! Decoding and validation errors.

use std::fmt;

/// Errors from the binary decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended inside a structure.
    UnexpectedEof,
    /// Bad magic number (not `\0asm`).
    BadMagic,
    /// Unsupported version (must be 1).
    BadVersion(u32),
    /// LEB128 value exceeds its target width.
    IntegerTooLarge,
    /// LEB128 used more bytes than its width allows.
    IntegerTooLong,
    /// A section id outside the kept set (custom, table, global, start and
    /// element sections included).
    UnknownSection(u8),
    /// Sections out of order or duplicated.
    SectionOrder(u8),
    /// Declared size doesn't match actual content.
    SectionSizeMismatch { declared: u32, actual: u32 },
    /// A value type other than `i32` and `i64`.
    BadValType(u8),
    /// A block type other than the empty one (`0x40`).
    BadBlockType(u8),
    /// An opcode outside the kept set.
    BadOpcode(u8),
    /// An import kind other than a function, or an export kind other than
    /// a function or a memory.
    BadKind(u8),
    /// Malformed UTF-8 in a name.
    BadUtf8,
    /// Function and code section lengths disagree.
    FuncCodeMismatch { funcs: u32, bodies: u32 },
    /// Limits flag invalid.
    BadLimitsFlag(u8),
    /// A structural constraint was violated (context in the string).
    Malformed(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of input"),
            DecodeError::BadMagic => write!(f, "bad magic number"),
            DecodeError::BadVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::IntegerTooLarge => write!(f, "integer exceeds target width"),
            DecodeError::IntegerTooLong => write!(f, "integer encoding too long"),
            DecodeError::UnknownSection(id) => write!(f, "unknown section id {id}"),
            DecodeError::SectionOrder(id) => write!(f, "section {id} out of order"),
            DecodeError::SectionSizeMismatch { declared, actual } => {
                write!(f, "section size mismatch: declared {declared}, actual {actual}")
            }
            DecodeError::BadValType(b) => write!(f, "bad value type 0x{b:02x}"),
            DecodeError::BadBlockType(b) => write!(f, "bad block type 0x{b:02x}"),
            DecodeError::BadOpcode(b) => write!(f, "bad opcode 0x{b:02x}"),
            DecodeError::BadKind(b) => write!(f, "bad import/export kind 0x{b:02x}"),
            DecodeError::BadUtf8 => write!(f, "malformed UTF-8 name"),
            DecodeError::FuncCodeMismatch { funcs, bodies } => {
                write!(f, "function section has {funcs} entries but code section has {bodies}")
            }
            DecodeError::BadLimitsFlag(b) => write!(f, "bad limits flag 0x{b:02x}"),
            DecodeError::Malformed(s) => write!(f, "malformed module: {s}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Errors from the validator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A type index is out of range.
    UnknownType(u32),
    /// A function index is out of range.
    UnknownFunc(u32),
    /// A local index is out of range.
    UnknownLocal(u32),
    /// A label depth is out of range.
    UnknownLabel(u32),
    /// A memory index is out of range.
    UnknownMemory(u32),
    /// Operand stack type mismatch.
    TypeMismatch { context: String },
    /// Alignment exceeds natural alignment of the access.
    BadAlignment { align: u32, natural: u32 },
    /// More than one memory declared (MVP allows at most one).
    MultipleMemories,
    /// Limits minimum exceeds maximum.
    BadLimits,
    /// Duplicate export name.
    DuplicateExport(String),
    /// Values remain on the stack at the end of a function/block.
    UnbalancedStack { expected: usize, actual: usize },
    /// A function body holds bytes the instruction reader rejects (an
    /// opcode or block type outside the kept set, a truncated immediate).
    Decode(DecodeError),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::UnknownType(i) => write!(f, "unknown type index {i}"),
            ValidationError::UnknownFunc(i) => write!(f, "unknown function index {i}"),
            ValidationError::UnknownLocal(i) => write!(f, "unknown local index {i}"),
            ValidationError::UnknownLabel(i) => write!(f, "unknown label depth {i}"),
            ValidationError::UnknownMemory(i) => write!(f, "unknown memory index {i}"),
            ValidationError::TypeMismatch { context } => write!(f, "type mismatch: {context}"),
            ValidationError::BadAlignment { align, natural } => {
                write!(f, "alignment 2^{align} exceeds natural 2^{natural}")
            }
            ValidationError::MultipleMemories => write!(f, "at most one memory is allowed"),
            ValidationError::BadLimits => write!(f, "limits minimum exceeds maximum"),
            ValidationError::DuplicateExport(n) => write!(f, "duplicate export name {n:?}"),
            ValidationError::UnbalancedStack { expected, actual } => {
                write!(f, "unbalanced stack: expected {expected} values, found {actual}")
            }
            ValidationError::Decode(e) => write!(f, "function body: {e}"),
        }
    }
}

impl std::error::Error for ValidationError {}
