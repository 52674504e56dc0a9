//! Scalar semantics the two execution tiers share: the operators whose
//! WebAssembly meaning is not a single Rust operator — integer division
//! and remainder (which trap) and float `min`/`max` (which propagate NaN
//! and order the zeros). Each tier has its own dispatch loop and operand
//! addressing; keeping these here means a trap condition is written once,
//! and the tier-equivalence tests exercise control flow rather than two
//! copies of the same arithmetic.

use crate::values::Trap;

macro_rules! div_rem {
    ($s:ty, $u:ty, $div_s:ident, $div_u:ident, $rem_s:ident, $rem_u:ident) => {
        #[inline]
        pub(crate) fn $div_s(a: $s, b: $s) -> Result<$s, Trap> {
            if b == 0 {
                return Err(Trap::IntegerDivideByZero);
            }
            // MIN / -1 is the one quotient that does not fit.
            a.checked_div(b).ok_or(Trap::IntegerOverflow)
        }

        #[inline]
        pub(crate) fn $div_u(a: $u, b: $u) -> Result<$u, Trap> {
            a.checked_div(b).ok_or(Trap::IntegerDivideByZero)
        }

        /// MIN % -1 is 0, not a trap.
        #[inline]
        pub(crate) fn $rem_s(a: $s, b: $s) -> Result<$s, Trap> {
            if b == 0 {
                return Err(Trap::IntegerDivideByZero);
            }
            Ok(a.wrapping_rem(b))
        }

        #[inline]
        pub(crate) fn $rem_u(a: $u, b: $u) -> Result<$u, Trap> {
            a.checked_rem(b).ok_or(Trap::IntegerDivideByZero)
        }
    };
}

div_rem!(i32, u32, i32_div_s, i32_div_u, i32_rem_s, i32_rem_u);
div_rem!(i64, u64, i64_div_s, i64_div_u, i64_rem_s, i64_rem_u);

/// Wasm `min`: NaN-propagating, -0 < +0.
pub(crate) fn wasm_min_f32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        if a.is_sign_negative() {
            a
        } else {
            b
        }
    } else if a < b {
        a
    } else {
        b
    }
}

pub(crate) fn wasm_max_f32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        if a.is_sign_positive() {
            a
        } else {
            b
        }
    } else if a > b {
        a
    } else {
        b
    }
}

pub(crate) fn wasm_min_f64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        if a.is_sign_negative() {
            a
        } else {
            b
        }
    } else if a < b {
        a
    } else {
        b
    }
}

pub(crate) fn wasm_max_f64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        if a.is_sign_positive() {
            a
        } else {
            b
        }
    } else if a > b {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn division_traps() {
        assert_eq!(i32_div_s(1, 0), Err(Trap::IntegerDivideByZero));
        assert_eq!(i32_div_s(i32::MIN, -1), Err(Trap::IntegerOverflow));
        assert_eq!(i32_div_s(-7, 2), Ok(-3));
        assert_eq!(i32_rem_s(i32::MIN, -1), Ok(0), "rem of MIN/-1 is 0, not a trap");
        assert_eq!(i32_rem_s(1, 0), Err(Trap::IntegerDivideByZero));
        assert_eq!(i32_div_u(7, 0), Err(Trap::IntegerDivideByZero));
        assert_eq!(i32_rem_u(7, 0), Err(Trap::IntegerDivideByZero));
        assert_eq!(i64_div_s(i64::MIN, -1), Err(Trap::IntegerOverflow));
        assert_eq!(i64_div_u(7, 2), Ok(3));
        assert_eq!(i64_rem_s(-7, 2), Ok(-1));
        assert_eq!(i64_rem_u(7, 0), Err(Trap::IntegerDivideByZero));
    }

    #[test]
    fn float_min_max_semantics() {
        assert!(wasm_min_f32(f32::NAN, 1.0).is_nan());
        assert!(wasm_max_f64(1.0, f64::NAN).is_nan());
        assert!(wasm_min_f64(-0.0, 0.0).is_sign_negative());
        assert!(wasm_max_f64(-0.0, 0.0).is_sign_positive());
        assert_eq!(wasm_min_f32(1.0, 2.0), 1.0);
        assert_eq!(wasm_max_f32(1.0, 2.0), 2.0);
    }
}
