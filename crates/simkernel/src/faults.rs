//! Deterministic fault injection for the simulated stack.
//!
//! A [`FaultPlan`] is a seeded schedule of failures for the named choke
//! points ([`FaultSite`]) every layer of the stack funnels through: process
//! spawn, cold file reads, anonymous mmap/charge, engine instantiation,
//! kubelet health probes, and node-lease heartbeat renewals.
//! The plan is installed on the kernel ([`crate::Kernel::set_fault_plan`])
//! and consulted synchronously at each site, so injection is driven purely
//! by the deterministic order of kernel operations — no wall clock, no OS
//! randomness, and the same seed reproduces the same failures everywhere.
//!
//! **Zero-fault invariant.** A plan with no rates and no scheduled calls
//! (including the default [`FaultPlan::none`]) never draws from its RNG and
//! never alters any kernel operation: installing it is observationally
//! identical to having no plan at all. The experiment figures rely on this
//! — see the "Fault model" section of `DESIGN.md`.

use crate::rng::SplitMix64;

/// A named choke point where faults can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// Process creation (`Kernel::spawn` / `ProcessImage::build`).
    Spawn,
    /// A cold page-cache read that would hit the (simulated) disk.
    ColdRead,
    /// Committing anonymous memory (mmap + touch / heap charge).
    MmapCharge,
    /// Wasm engine instantiation (transient — a retry may succeed).
    EngineInstantiate,
    /// A kubelet health-probe RPC against a running container (transient —
    /// a flaky probe reports failure against a healthy guest).
    Probe,
    /// A node-lease heartbeat renewal against the cluster control plane
    /// (transient — one flaked renewal only matters if enough consecutive
    /// renewals flake for the lease to outlive its grace period).
    Heartbeat,
}

impl FaultSite {
    /// Every site, in injection-index order.
    pub const ALL: [FaultSite; 6] = [
        FaultSite::Spawn,
        FaultSite::ColdRead,
        FaultSite::MmapCharge,
        FaultSite::EngineInstantiate,
        FaultSite::Probe,
        FaultSite::Heartbeat,
    ];

    /// Stable kebab-case label (used in error messages and chaos CSVs).
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::Spawn => "spawn",
            FaultSite::ColdRead => "cold-read",
            FaultSite::MmapCharge => "mmap-charge",
            FaultSite::EngineInstantiate => "engine-instantiate",
            FaultSite::Probe => "probe",
            FaultSite::Heartbeat => "heartbeat",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::Spawn => 0,
            FaultSite::ColdRead => 1,
            FaultSite::MmapCharge => 2,
            FaultSite::EngineInstantiate => 3,
            FaultSite::Probe => 4,
            FaultSite::Heartbeat => 5,
        }
    }
}

/// Per-site schedule state.
#[derive(Debug, Clone)]
struct SiteState {
    /// Probabilistic failure rate in parts-per-million of calls.
    rate_ppm: u32,
    /// Remaining injection budget (`u64::MAX` = unlimited).
    remaining: u64,
    /// Explicit 0-based call indices that must fail.
    nth: std::collections::BTreeSet<u64>,
    /// Calls observed at this site so far.
    calls: u64,
    /// Faults injected at this site so far.
    injected: u64,
    /// Independent per-site stream so one site's draw count never shifts
    /// another site's decisions.
    rng: SplitMix64,
}

impl SiteState {
    fn new(seed: u64, index: usize) -> SiteState {
        SiteState {
            rate_ppm: 0,
            remaining: u64::MAX,
            nth: Default::default(),
            calls: 0,
            injected: 0,
            rng: SplitMix64::new(seed ^ (index as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15)),
        }
    }
}

/// A seeded, deterministic schedule of injected failures.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    sites: [SiteState; FaultSite::ALL.len()],
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: injects nothing, draws nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::new(0)
    }

    /// A plan with the given RNG seed and no failures scheduled yet.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            sites: [
                SiteState::new(seed, 0),
                SiteState::new(seed, 1),
                SiteState::new(seed, 2),
                SiteState::new(seed, 3),
                SiteState::new(seed, 4),
                SiteState::new(seed, 5),
            ],
        }
    }

    /// Fail roughly `ppm` out of every million calls at `site`.
    pub fn with_rate(mut self, site: FaultSite, ppm: u32) -> FaultPlan {
        self.sites[site.index()].rate_ppm = ppm.min(1_000_000);
        self
    }

    /// Force the `n`-th (0-based) call at `site` to fail.
    pub fn fail_call(mut self, site: FaultSite, n: u64) -> FaultPlan {
        self.sites[site.index()].nth.insert(n);
        self
    }

    /// Cap the number of faults `site` may inject in total.
    pub fn with_limit(mut self, site: FaultSite, max: u64) -> FaultPlan {
        self.sites[site.index()].remaining = max;
        self
    }

    /// Record one call at `site` and decide whether it fails.
    ///
    /// Deterministic in the sequence of calls: the decision depends only on
    /// the plan's seed, the site, and how many calls the site has seen.
    pub(crate) fn should_fail(&mut self, site: FaultSite) -> bool {
        let s = &mut self.sites[site.index()];
        let call = s.calls;
        s.calls += 1;
        // Fast path: a quiet site never touches its RNG, so installing a
        // zero plan cannot perturb anything downstream.
        if s.rate_ppm == 0 && s.nth.is_empty() {
            return false;
        }
        if s.remaining == 0 {
            // Budget exhausted: still consume the draw a rated site would
            // have made so the decision stream stays aligned with `calls`.
            if s.rate_ppm > 0 {
                let _ = s.rng.next_u64();
            }
            return false;
        }
        let mut hit = s.nth.contains(&call);
        if s.rate_ppm > 0 && s.rng.next_u64() % 1_000_000 < s.rate_ppm as u64 {
            hit = true;
        }
        if hit {
            s.remaining -= 1;
            s.injected += 1;
        }
        hit
    }

    /// Faults injected at `site`.
    pub(crate) fn injected(&self, site: FaultSite) -> u64 {
        self.sites[site.index()].injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaultPlan {
        /// True when nothing can ever be injected (no rates, no scheduled
        /// calls). Such a plan never draws from its RNG.
        fn is_zero(&self) -> bool {
            self.sites.iter().all(|s| s.rate_ppm == 0 && s.nth.is_empty())
        }

        /// Calls observed at `site`.
        pub(crate) fn calls(&self, site: FaultSite) -> u64 {
            self.sites[site.index()].calls
        }

        /// Faults injected across every site.
        pub(crate) fn total_injected(&self) -> u64 {
            self.sites.iter().map(|s| s.injected).sum()
        }
    }

    #[test]
    fn zero_plan_never_fails_and_never_draws() {
        let mut plan = FaultPlan::none();
        assert!(plan.is_zero());
        for _ in 0..10_000 {
            for site in FaultSite::ALL {
                assert!(!plan.should_fail(site));
            }
        }
        assert_eq!(plan.total_injected(), 0);
        // The RNG state is untouched: a fresh site stream produces the same
        // first draw as the plan's (never-consumed) one would.
        let fresh = SplitMix64::new(1u64.wrapping_mul(0x9e3779b97f4a7c15)).next_u64();
        let mut probe = FaultPlan::new(0).with_rate(FaultSite::Spawn, 1);
        let _ = probe.should_fail(FaultSite::Spawn);
        let consumed = SplitMix64::new(1u64.wrapping_mul(0x9e3779b97f4a7c15)).next_u64() == fresh;
        assert!(consumed, "sanity: seeded streams are reproducible");
    }

    #[test]
    fn nth_call_fails_exactly_once() {
        let mut plan = FaultPlan::new(7).fail_call(FaultSite::Spawn, 3);
        let hits: Vec<bool> = (0..6).map(|_| plan.should_fail(FaultSite::Spawn)).collect();
        assert_eq!(hits, [false, false, false, true, false, false]);
        assert_eq!(plan.injected(FaultSite::Spawn), 1);
        assert_eq!(plan.calls(FaultSite::Spawn), 6);
    }

    #[test]
    fn rate_is_deterministic_per_seed_and_roughly_proportional() {
        let run = |seed: u64| -> Vec<u64> {
            let mut plan = FaultPlan::new(seed).with_rate(FaultSite::ColdRead, 100_000); // 10%
            (0..2_000).filter(|_| plan.should_fail(FaultSite::ColdRead)).collect()
        };
        assert_eq!(run(42), run(42), "same seed, same schedule");
        assert_ne!(run(42), run(43), "different seed, different schedule");
        let n = run(42).len();
        assert!((100..400).contains(&n), "10% of 2000 ≈ 200, got {n}");
    }

    #[test]
    fn limit_caps_injections() {
        let mut plan = FaultPlan::new(1)
            .with_rate(FaultSite::MmapCharge, 1_000_000)
            .with_limit(FaultSite::MmapCharge, 2);
        let hits = (0..10).filter(|_| plan.should_fail(FaultSite::MmapCharge)).count();
        assert_eq!(hits, 2);
        assert_eq!(plan.injected(FaultSite::MmapCharge), 2);
    }

    #[test]
    fn sites_are_independent_streams() {
        // Interleaving calls at another site must not change this site's
        // decision sequence.
        let solo = {
            let mut plan = FaultPlan::new(9).with_rate(FaultSite::Spawn, 250_000);
            (0..200).map(|_| plan.should_fail(FaultSite::Spawn)).collect::<Vec<_>>()
        };
        let interleaved = {
            let mut plan = FaultPlan::new(9)
                .with_rate(FaultSite::Spawn, 250_000)
                .with_rate(FaultSite::ColdRead, 250_000);
            (0..200)
                .map(|_| {
                    let _ = plan.should_fail(FaultSite::ColdRead);
                    plan.should_fail(FaultSite::Spawn)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn labels_are_stable_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for site in FaultSite::ALL {
            assert!(seen.insert(site.label()));
        }
        assert_eq!(seen.len(), FaultSite::ALL.len());
    }
}
