//! A tiny property-testing harness (the offline `proptest` fallback).
//!
//! [`check`] runs a closure over `cases` deterministic PRNG streams. On a
//! panic it reports the failing case's seed so the run can be replayed with
//! [`replay`] under a debugger. There is no shrinking — generators in this
//! repo are kept small enough that the raw failing case is readable.
//!
//! ```
//! simkernel::prop::check("addition commutes", 64, |g| {
//!     let (a, b) = (g.next_u32() as u64, g.next_u32() as u64);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use crate::rng::SplitMix64;

/// Base seed folded into every case; fixed so CI failures reproduce.
const BASE_SEED: u64 = 0x6d77_6173_6d63_7472; // "mwasmctr"

/// Environment variable to replay one failing case: `MWC_PROP_SEED=<seed>`.
pub const SEED_ENV: &str = "MWC_PROP_SEED";

/// Run `body` over `cases` independent deterministic PRNG streams.
///
/// Each case gets its own [`SplitMix64`] seeded from the case index. When a
/// case panics, the harness prints the property name and the seed to replay
/// before propagating the panic.
pub fn check<F>(name: &str, cases: u64, mut body: F)
where
    F: FnMut(&mut SplitMix64),
{
    if let Ok(seed) = std::env::var(SEED_ENV) {
        let seed: u64 = seed.parse().expect("MWC_PROP_SEED must be a u64");
        replay(seed, &mut body);
        return;
    }
    for case in 0..cases {
        let seed = BASE_SEED.wrapping_add(case.wrapping_mul(0x9e3779b97f4a7c15));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g = SplitMix64::new(seed);
            body(&mut g);
        }));
        if let Err(payload) = result {
            eprintln!(
                "property {name:?} failed at case {case}/{cases}; \
                 replay with {SEED_ENV}={seed}"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// Run one case with an explicit seed (the replay path).
pub(crate) fn replay<F>(seed: u64, body: &mut F)
where
    F: FnMut(&mut SplitMix64),
{
    let mut g = SplitMix64::new(seed);
    body(&mut g);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut n = 0u64;
        check("counts", 10, |_| n += 1);
        assert_eq!(n, 10);
    }

    #[test]
    fn failing_property_panics_with_context() {
        let result = std::panic::catch_unwind(|| {
            check("fails", 8, |g| assert!(g.next_u64() % 2 == 0, "odd"));
        });
        assert!(result.is_err());
    }

    #[test]
    fn cases_are_deterministic() {
        let mut first = Vec::new();
        check("record", 5, |g| first.push(g.next_u64()));
        let mut second = Vec::new();
        check("record", 5, |g| second.push(g.next_u64()));
        assert_eq!(first, second);
    }
}
