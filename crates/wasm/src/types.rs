//! WebAssembly type grammar (spec §2.3): value, function, limit, global,
//! table and memory types, plus block types.

use std::fmt;

use crate::error::DecodeError;

/// A value type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValType {
    I32,
    I64,
    F32,
    F64,
}

impl ValType {
    /// Binary encoding of the type.
    pub(crate) fn byte(self) -> u8 {
        match self {
            ValType::I32 => 0x7f,
            ValType::I64 => 0x7e,
            ValType::F32 => 0x7d,
            ValType::F64 => 0x7c,
        }
    }

    /// Decode from the binary encoding.
    pub(crate) fn from_byte(b: u8) -> Result<ValType, DecodeError> {
        match b {
            0x7f => Ok(ValType::I32),
            0x7e => Ok(ValType::I64),
            0x7d => Ok(ValType::F32),
            0x7c => Ok(ValType::F64),
            other => Err(DecodeError::BadValType(other)),
        }
    }
}

impl fmt::Display for ValType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValType::I32 => "i32",
            ValType::I64 => "i64",
            ValType::F32 => "f32",
            ValType::F64 => "f64",
        };
        write!(f, "{s}")
    }
}

/// A function type: parameters and results.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FuncType {
    pub(crate) params: Vec<ValType>,
    pub(crate) results: Vec<ValType>,
}

impl FuncType {
    pub fn new(params: Vec<ValType>, results: Vec<ValType>) -> Self {
        FuncType { params, results }
    }
}

impl fmt::Display for FuncType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ") -> (")?;
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, ")")
    }
}

/// Size limits for memories and tables (in pages / elements).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Limits {
    pub min: u32,
    pub(crate) max: Option<u32>,
}

impl Limits {
    pub fn new(min: u32, max: Option<u32>) -> Self {
        Limits { min, max }
    }

    /// Structural validity: `min <= max` when a max exists.
    pub(crate) fn is_valid(&self) -> bool {
        self.max.map(|m| self.min <= m).unwrap_or(true)
    }
}

/// A global's type: value type and mutability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalType {
    pub value: ValType,
    pub mutable: bool,
}

/// A table type (MVP: funcref only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TableType {
    pub limits: Limits,
}

/// A memory type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryType {
    pub limits: Limits,
}

/// A block's type: empty, a single result, or (via the extended encoding)
/// a reference to a function type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockType {
    Empty,
    Value(ValType),
    Func(u32),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valtype_roundtrip() {
        for t in [ValType::I32, ValType::I64, ValType::F32, ValType::F64] {
            assert_eq!(ValType::from_byte(t.byte()).unwrap(), t);
        }
        assert!(ValType::from_byte(0x00).is_err());
    }

    #[test]
    fn functype_display() {
        let ft = FuncType::new(vec![ValType::I32, ValType::I64], vec![ValType::F32]);
        assert_eq!(ft.to_string(), "(i32 i64) -> (f32)");
    }

    #[test]
    fn limits_validity() {
        assert!(Limits::new(1, None).is_valid());
        assert!(Limits::new(1, Some(1)).is_valid());
        assert!(!Limits::new(2, Some(1)).is_valid());
    }
}
