//! WebAssembly type grammar (spec §2.3), as far as the guests use it:
//! value, function, limit and memory types.

use std::fmt;

use crate::error::DecodeError;

/// A value type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValType {
    I32,
    I64,
}

impl ValType {
    /// Binary encoding of the type.
    pub(crate) fn byte(self) -> u8 {
        match self {
            ValType::I32 => 0x7f,
            ValType::I64 => 0x7e,
        }
    }

    /// Decode from the binary encoding.
    pub(crate) fn from_byte(b: u8) -> Result<ValType, DecodeError> {
        match b {
            0x7f => Ok(ValType::I32),
            0x7e => Ok(ValType::I64),
            other => Err(DecodeError::BadValType(other)),
        }
    }
}

impl fmt::Display for ValType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValType::I32 => "i32",
            ValType::I64 => "i64",
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

/// Size limits of a memory, in pages.
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

/// A memory type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryType {
    pub limits: Limits,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valtype_roundtrip() {
        for t in [ValType::I32, ValType::I64] {
            assert_eq!(ValType::from_byte(t.byte()).unwrap(), t);
        }
        for b in [0x00, 0x7d, 0x7c] {
            assert_eq!(ValType::from_byte(b), Err(DecodeError::BadValType(b)));
        }
    }

    #[test]
    fn functype_display() {
        let ft = FuncType::new(vec![ValType::I32, ValType::I64], vec![ValType::I32]);
        assert_eq!(ft.to_string(), "(i32 i64) -> (i32)");
    }

    #[test]
    fn limits_validity() {
        assert!(Limits::new(1, None).is_valid());
        assert!(Limits::new(1, Some(1)).is_valid());
        assert!(!Limits::new(2, Some(1)).is_valid());
    }
}
