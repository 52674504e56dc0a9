//! Runtime values, untyped stack slots, and traps.

use std::fmt;

use crate::types::ValType;

/// A typed WebAssembly value (API boundary representation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    I32(i32),
    I64(i64),
}

impl Value {
    pub fn ty(&self) -> ValType {
        match self {
            Value::I32(_) => ValType::I32,
            Value::I64(_) => ValType::I64,
        }
    }

    pub fn as_i32(&self) -> Option<i32> {
        match self {
            Value::I32(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// Raw 64-bit representation (used by the untyped operand stack).
    pub(crate) fn to_slot(self) -> Slot {
        match self {
            Value::I32(v) => Slot(v as u32 as u64),
            Value::I64(v) => Slot(v as u64),
        }
    }

    /// Reconstruct a typed value from a raw slot.
    pub(crate) fn from_slot(slot: Slot, ty: ValType) -> Value {
        match ty {
            ValType::I32 => Value::I32(slot.0 as u32 as i32),
            ValType::I64 => Value::I64(slot.0 as i64),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I32(v) => write!(f, "{v}:i32"),
            Value::I64(v) => write!(f, "{v}:i64"),
        }
    }
}

/// An untyped 64-bit stack slot; validation guarantees well-typed use.
/// This is how WAMR's interpreter represents its operand stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Slot(pub u64);

impl Slot {
    #[inline]
    pub(crate) fn i32(self) -> i32 {
        self.0 as u32 as i32
    }

    #[inline]
    pub(crate) fn u32(self) -> u32 {
        self.0 as u32
    }

    #[inline]
    pub(crate) fn u64(self) -> u64 {
        self.0
    }

    #[inline]
    pub(crate) fn from_i32(v: i32) -> Slot {
        Slot(v as u32 as u64)
    }

    #[inline]
    pub(crate) fn from_u32(v: u32) -> Slot {
        Slot(v as u64)
    }

    #[inline]
    pub(crate) fn from_i64(v: i64) -> Slot {
        Slot(v as u64)
    }

    #[inline]
    pub(crate) fn from_u64(v: u64) -> Slot {
        Slot(v)
    }

    #[inline]
    pub(crate) fn from_bool(b: bool) -> Slot {
        Slot(b as u64)
    }
}

/// Runtime traps (spec §4.4 "trap"): the guards every guest runs under,
/// and what a host function reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    MemoryOutOfBounds,
    StackOverflow,
    /// Instruction budget exhausted (engine-imposed fuel limit).
    OutOfFuel,
    /// The engine's epoch deadline passed (watchdog interruption). Unlike
    /// [`Trap::OutOfFuel`] this is an external, asynchronous-style stop:
    /// the guest was healthy but overstayed its wall-clock (epoch) budget.
    Interrupted,
    /// A host function failed (e.g. WASI error).
    HostError(String),
    /// `proc_exit` was called with this code (not an error, but unwinds).
    Exit(i32),
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::MemoryOutOfBounds => write!(f, "out of bounds memory access"),
            Trap::StackOverflow => write!(f, "call stack exhausted"),
            Trap::OutOfFuel => write!(f, "instruction budget exhausted"),
            Trap::Interrupted => write!(f, "epoch deadline reached; guest interrupted"),
            Trap::HostError(s) => write!(f, "host error: {s}"),
            Trap::Exit(code) => write!(f, "program exited with code {code}"),
        }
    }
}

impl std::error::Error for Trap {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_roundtrip() {
        for v in [Value::I32(-1), Value::I32(i32::MAX), Value::I64(i64::MIN), Value::I64(-1)] {
            assert_eq!(Value::from_slot(v.to_slot(), v.ty()), v);
        }
    }
}
