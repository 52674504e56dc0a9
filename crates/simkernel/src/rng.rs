//! Deterministic pseudo-random number generation, std-only.
//!
//! The external `rand` crate is not resolvable in this offline workspace;
//! this module provides the small generator the repo needs instead,
//! [`SplitMix64`]. It is deterministic and portable — the same seed
//! produces the same sequence everywhere, which the repo's reproducibility
//! guarantees rely on.

/// Sebastiano Vigna's SplitMix64: tiny state, excellent distribution, the
/// canonical seeder for other generators.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    pub fn next_i64(&mut self) -> i64 {
        self.next_u64() as i64
    }

    #[inline]
    pub fn next_i32(&mut self) -> i32 {
        self.next_u32() as i32
    }

    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        f32::from_bits(self.next_u32())
    }

    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        f64::from_bits(self.next_u64())
    }

    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform value in `[lo, hi)`. Panics when the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform value in `[lo, hi)` over i64.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo.wrapping_add((self.next_u64() % (hi.wrapping_sub(lo)) as u64) as i64)
    }

    /// Uniform value in `[0, n)` as usize.
    pub fn index(&mut self, n: usize) -> usize {
        self.range_u64(0, n as u64) as usize
    }

    /// Pick one element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// An ASCII string of `len` characters drawn from `alphabet`.
    pub(crate) fn string_from(&mut self, alphabet: &[char], len: usize) -> String {
        (0..len).map(|_| *self.choose(alphabet)).collect()
    }

    /// A string of length in `[min_len, max_len)` drawn from `alphabet`.
    pub fn string_upto(&mut self, alphabet: &[char], min_len: usize, max_len: usize) -> String {
        let len = min_len + self.index((max_len - min_len).max(1));
        self.string_from(alphabet, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut g = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = g.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let i = g.range_i64(-5, 5);
            assert!((-5..5).contains(&i));
            assert!(g.index(3) < 3);
        }
    }
}
