//! WASI errno values (preview 1).

/// WASI error numbers, as returned to guest code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub(crate) enum Errno {
    Success = 0,
    BadF = 8,
}

impl Errno {
    /// Raw value for returning to the guest.
    pub(crate) fn raw(self) -> i32 {
        self as u16 as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_values_match_spec() {
        assert_eq!(Errno::Success.raw(), 0);
        assert_eq!(Errno::BadF.raw(), 8);
    }
}
