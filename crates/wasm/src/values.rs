//! Runtime values, untyped stack slots, and traps.

use std::fmt;

use crate::types::ValType;

/// A typed WebAssembly value (API boundary representation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    I32(i32),
    I64(i64),
    F32(f32),
    F64(f64),
}

impl Value {
    pub fn ty(&self) -> ValType {
        match self {
            Value::I32(_) => ValType::I32,
            Value::I64(_) => ValType::I64,
            Value::F32(_) => ValType::F32,
            Value::F64(_) => ValType::F64,
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
            Value::F32(v) => Slot(v.to_bits() as u64),
            Value::F64(v) => Slot(v.to_bits()),
        }
    }

    /// Reconstruct a typed value from a raw slot.
    pub(crate) fn from_slot(slot: Slot, ty: ValType) -> Value {
        match ty {
            ValType::I32 => Value::I32(slot.0 as u32 as i32),
            ValType::I64 => Value::I64(slot.0 as i64),
            ValType::F32 => Value::F32(f32::from_bits(slot.0 as u32)),
            ValType::F64 => Value::F64(f64::from_bits(slot.0)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I32(v) => write!(f, "{v}:i32"),
            Value::I64(v) => write!(f, "{v}:i64"),
            Value::F32(v) => write!(f, "{v}:f32"),
            Value::F64(v) => write!(f, "{v}:f64"),
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
    pub(crate) fn i64(self) -> i64 {
        self.0 as i64
    }

    #[inline]
    pub(crate) fn u64(self) -> u64 {
        self.0
    }

    #[inline]
    pub(crate) fn f32(self) -> f32 {
        f32::from_bits(self.0 as u32)
    }

    #[inline]
    pub(crate) fn f64(self) -> f64 {
        f64::from_bits(self.0)
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
    pub(crate) fn from_f32(v: f32) -> Slot {
        Slot(v.to_bits() as u64)
    }

    #[inline]
    pub(crate) fn from_f64(v: f64) -> Slot {
        Slot(v.to_bits())
    }

    #[inline]
    pub(crate) fn from_bool(b: bool) -> Slot {
        Slot(b as u64)
    }
}

/// Runtime traps (spec §4.4 "trap").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    Unreachable,
    MemoryOutOfBounds,
    TableOutOfBounds,
    IndirectCallTypeMismatch,
    UninitializedElement,
    IntegerDivideByZero,
    IntegerOverflow,
    InvalidConversionToInteger,
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
            Trap::Unreachable => write!(f, "unreachable executed"),
            Trap::MemoryOutOfBounds => write!(f, "out of bounds memory access"),
            Trap::TableOutOfBounds => write!(f, "out of bounds table access"),
            Trap::IndirectCallTypeMismatch => write!(f, "indirect call type mismatch"),
            Trap::UninitializedElement => write!(f, "uninitialized table element"),
            Trap::IntegerDivideByZero => write!(f, "integer divide by zero"),
            Trap::IntegerOverflow => write!(f, "integer overflow"),
            Trap::InvalidConversionToInteger => write!(f, "invalid conversion to integer"),
            Trap::StackOverflow => write!(f, "call stack exhausted"),
            Trap::OutOfFuel => write!(f, "instruction budget exhausted"),
            Trap::Interrupted => write!(f, "epoch deadline reached; guest interrupted"),
            Trap::HostError(s) => write!(f, "host error: {s}"),
            Trap::Exit(code) => write!(f, "program exited with code {code}"),
        }
    }
}

impl std::error::Error for Trap {}

/// Checked float→int truncations (spec: trap on NaN or out-of-range).
pub(crate) mod trunc {
    use super::Trap;

    pub(crate) fn i32_from_f32(v: f32) -> Result<i32, Trap> {
        if v.is_nan() {
            return Err(Trap::InvalidConversionToInteger);
        }
        // Exclusive upper bound: 2^31 is exactly representable in f32 while
        // 2^31 - 1 is not (it rounds up to 2^31, which must trap).
        if !(-2147483648.0_f32..2147483648.0_f32).contains(&v) {
            return Err(Trap::IntegerOverflow);
        }
        Ok(v.trunc() as i32)
    }

    pub(crate) fn u32_from_f32(v: f32) -> Result<u32, Trap> {
        if v.is_nan() {
            return Err(Trap::InvalidConversionToInteger);
        }
        // 2^32 is exactly representable in f32; 2^32 - 1 is not.
        if v >= 4294967296.0_f32 || v <= -1.0_f32 {
            return Err(Trap::IntegerOverflow);
        }
        Ok(v.trunc() as u32)
    }

    pub(crate) fn i32_from_f64(v: f64) -> Result<i32, Trap> {
        if v.is_nan() {
            return Err(Trap::InvalidConversionToInteger);
        }
        let t = v.trunc();
        if !(-2147483649.0 + 1.0..=2147483647.0).contains(&t) {
            return Err(Trap::IntegerOverflow);
        }
        Ok(t as i32)
    }

    pub(crate) fn u32_from_f64(v: f64) -> Result<u32, Trap> {
        if v.is_nan() {
            return Err(Trap::InvalidConversionToInteger);
        }
        let t = v.trunc();
        if !(0.0..=4294967295.0).contains(&t) {
            return Err(Trap::IntegerOverflow);
        }
        Ok(t as u32)
    }

    pub(crate) fn i64_from_f32(v: f32) -> Result<i64, Trap> {
        if v.is_nan() {
            return Err(Trap::InvalidConversionToInteger);
        }
        // f32 with |v| < 2^63 fits; the boundary value 2^63 itself does not.
        if !(-9223372036854775808.0..9223372036854775808.0).contains(&v) {
            return Err(Trap::IntegerOverflow);
        }
        Ok(v.trunc() as i64)
    }

    pub(crate) fn u64_from_f32(v: f32) -> Result<u64, Trap> {
        if v.is_nan() {
            return Err(Trap::InvalidConversionToInteger);
        }
        if v >= 18446744073709551616.0 || v <= -1.0 {
            return Err(Trap::IntegerOverflow);
        }
        Ok(v.trunc() as u64)
    }

    pub(crate) fn i64_from_f64(v: f64) -> Result<i64, Trap> {
        if v.is_nan() {
            return Err(Trap::InvalidConversionToInteger);
        }
        if !(-9223372036854775808.0..9223372036854775808.0).contains(&v) {
            return Err(Trap::IntegerOverflow);
        }
        Ok(v.trunc() as i64)
    }

    pub(crate) fn u64_from_f64(v: f64) -> Result<u64, Trap> {
        if v.is_nan() {
            return Err(Trap::InvalidConversionToInteger);
        }
        if v >= 18446744073709551616.0 || v <= -1.0 {
            return Err(Trap::IntegerOverflow);
        }
        Ok(v.trunc() as u64)
    }
}

/// IEEE-754 `nearest` (round half to even), the Wasm rounding mode.
/// The sign of zero is preserved (`nearest(-0.5)` is `-0.0`).
pub(crate) fn nearest_f32(v: f32) -> f32 {
    let r = v.round();
    let r = if (r - v).abs() == 0.5 && r % 2.0 != 0.0 { r - v.signum() } else { r };
    if r == 0.0 {
        0.0_f32.copysign(v)
    } else {
        r
    }
}

/// IEEE-754 `nearest` for f64. The sign of zero is preserved.
pub(crate) fn nearest_f64(v: f64) -> f64 {
    let r = v.round();
    let r = if (r - v).abs() == 0.5 && r % 2.0 != 0.0 { r - v.signum() } else { r };
    if r == 0.0 {
        0.0_f64.copysign(v)
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_roundtrip() {
        for v in [Value::I32(-1), Value::I64(i64::MIN), Value::F32(1.5), Value::F64(-0.0)] {
            let back = Value::from_slot(v.to_slot(), v.ty());
            match (v, back) {
                (Value::F64(a), Value::F64(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn trunc_f32_boundaries_trap_exactly() {
        // 2^31 and 2^32 are representable in f32 and must trap; the largest
        // representable values below them must convert.
        assert_eq!(trunc::i32_from_f32(2147483648.0), Err(Trap::IntegerOverflow));
        assert_eq!(trunc::i32_from_f32(2147483520.0), Ok(2147483520));
        assert_eq!(trunc::i32_from_f32(-2147483648.0), Ok(i32::MIN));
        assert_eq!(trunc::u32_from_f32(4294967296.0), Err(Trap::IntegerOverflow));
        assert_eq!(trunc::u32_from_f32(4294967040.0), Ok(4294967040));
    }

    #[test]
    fn trunc_traps() {
        assert_eq!(trunc::i32_from_f32(f32::NAN), Err(Trap::InvalidConversionToInteger));
        assert_eq!(trunc::i32_from_f32(3e9), Err(Trap::IntegerOverflow));
        assert_eq!(trunc::i32_from_f32(-3.7), Ok(-3));
        assert_eq!(trunc::u32_from_f64(-0.5), Ok(0));
        assert_eq!(trunc::u32_from_f64(-1.0), Err(Trap::IntegerOverflow));
        assert_eq!(trunc::i64_from_f64(9.3e18), Err(Trap::IntegerOverflow));
        assert_eq!(trunc::u64_from_f64(1.8e19), Ok(18000000000000000000));
    }

    #[test]
    fn nearest_ties_to_even() {
        assert_eq!(nearest_f64(0.5), 0.0);
        assert_eq!(nearest_f64(1.5), 2.0);
        assert_eq!(nearest_f64(2.5), 2.0);
        assert_eq!(nearest_f64(-0.5), -0.0);
        assert_eq!(nearest_f64(-1.5), -2.0);
        assert_eq!(nearest_f32(3.5), 4.0);
        assert_eq!(nearest_f32(4.5), 4.0);
    }

    #[test]
    fn nan_preserved_through_slots() {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let s = Slot::from_f64(nan);
        assert_eq!(s.f64().to_bits(), nan.to_bits());
    }
}
