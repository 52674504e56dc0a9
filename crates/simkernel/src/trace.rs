//! Typed step recording: the lifecycle-phase ledger behind every startup.
//!
//! Raw [`Step`] lists are what the discrete-event simulator consumes, but a
//! pod's startup program is assembled across five layers (kubelet →
//! containerd → shim/runtime → engine → workload), and an untyped
//! `Vec<Step>` loses *which layer* each step came from the moment it is
//! appended. [`StepTrace`] keeps that provenance: every step is recorded
//! under a [`Phase`], flattening back to the exact same `Vec<Step>` in
//! insertion order (so DES results and figure CSVs are unchanged), while a
//! per-phase breakdown of the startup latency — the `fig8_phases` report —
//! falls out of the same data.

use crate::des::Step;
use crate::time::Duration;

/// Which stage of the container lifecycle a step belongs to.
///
/// The taxonomy follows the pod startup pipeline top to bottom: the kubelet's
/// API work, sandbox assembly, networking and storage, the low-level runtime
/// operation, then the engine's own load → compile → instantiate → execute
/// staging (the common Wasm runtime lifecycle), and finally teardown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// API-server dispatch, watch queue, kubelet sync bookkeeping.
    ApiDispatch,
    /// Pod sandbox assembly: shim spawn, pause container, sandbox metadata.
    Sandbox,
    /// CNI network setup.
    Cni,
    /// Volume mounts.
    Volumes,
    /// Low-level runtime operations (crun/runc create/start, CRI RPCs).
    RuntimeOp,
    /// Engine/library initialization (linking, runtime baseline heaps).
    EngineInit,
    /// Guest program load: module read, parse, validation.
    ModuleLoad,
    /// Ahead-of-time or JIT compilation, code-cache relocation.
    Compile,
    /// Instance construction and linking.
    Instantiate,
    /// Guest execution to first-ready.
    Exec,
    /// Container/pod teardown.
    Teardown,
    /// Teardown forced by a fault (OOM kill, eviction, failed sync
    /// rollback) rather than an orderly remove — kept distinct so recovery
    /// work never blends into the startup-phase breakdown.
    TeardownAfterFault,
    /// Graceful termination: SIGTERM delivery, grace-period wait, and the
    /// escalation to SIGKILL when the guest ignores it. Like
    /// [`Phase::TeardownAfterFault`], frozen out of the STARTUP prefix.
    Terminating,
}

impl Phase {
    pub const ALL: [Phase; 13] = [
        Phase::ApiDispatch,
        Phase::Sandbox,
        Phase::Cni,
        Phase::Volumes,
        Phase::RuntimeOp,
        Phase::EngineInit,
        Phase::ModuleLoad,
        Phase::Compile,
        Phase::Instantiate,
        Phase::Exec,
        Phase::Teardown,
        Phase::TeardownAfterFault,
        Phase::Terminating,
    ];

    /// The phases a fault-free pod startup can produce — the column set of
    /// the fig8 per-phase report, frozen so the figure stays byte-identical
    /// as fault-only phases are appended to [`Phase::ALL`].
    pub const STARTUP: [Phase; 11] = [
        Phase::ApiDispatch,
        Phase::Sandbox,
        Phase::Cni,
        Phase::Volumes,
        Phase::RuntimeOp,
        Phase::EngineInit,
        Phase::ModuleLoad,
        Phase::Compile,
        Phase::Instantiate,
        Phase::Exec,
        Phase::Teardown,
    ];

    /// Stable column label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::ApiDispatch => "api-dispatch",
            Phase::Sandbox => "sandbox",
            Phase::Cni => "cni",
            Phase::Volumes => "volumes",
            Phase::RuntimeOp => "runtime-op",
            Phase::EngineInit => "engine-init",
            Phase::ModuleLoad => "module-load",
            Phase::Compile => "compile",
            Phase::Instantiate => "instantiate",
            Phase::Exec => "exec",
            Phase::Teardown => "teardown",
            Phase::TeardownAfterFault => "teardown-after-fault",
            Phase::Terminating => "terminating",
        }
    }

    /// Position in [`Phase::ALL`] (row index into [`StepTrace::phase_busy`]).
    pub fn index(self) -> usize {
        match self {
            Phase::ApiDispatch => 0,
            Phase::Sandbox => 1,
            Phase::Cni => 2,
            Phase::Volumes => 3,
            Phase::RuntimeOp => 4,
            Phase::EngineInit => 5,
            Phase::ModuleLoad => 6,
            Phase::Compile => 7,
            Phase::Instantiate => 8,
            Phase::Exec => 9,
            Phase::Teardown => 10,
            Phase::TeardownAfterFault => 11,
            Phase::Terminating => 12,
        }
    }
}

/// An ordered list of `(Phase, Step)` records.
///
/// Insertion order is the simulation order: [`StepTrace::steps`] flattens to
/// the identical `Vec<Step>` the untyped plumbing used to build, which is
/// what keeps every figure byte-identical across the refactor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepTrace {
    entries: Vec<(Phase, Step)>,
}

impl StepTrace {
    pub fn new() -> StepTrace {
        StepTrace { entries: Vec::new() }
    }

    pub fn push(&mut self, phase: Phase, step: Step) {
        self.entries.push((phase, step));
    }

    pub fn extend(&mut self, phase: Phase, steps: impl IntoIterator<Item = Step>) {
        self.entries.extend(steps.into_iter().map(|s| (phase, s)));
    }

    /// Move every record from `other` onto the end of `self`, keeping
    /// `other`'s phase attribution. `other` is left empty and holding no
    /// buffer: a drained trace often lives as long as its pod.
    pub fn append(&mut self, other: &mut StepTrace) {
        self.entries.append(&mut std::mem::take(&mut other.entries));
    }

    /// Give back the capacity growth left over, for a trace that is kept.
    pub fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
    }

    pub fn entries(&self) -> &[(Phase, Step)] {
        &self.entries
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Flatten to the raw step program in insertion order (what the DES
    /// consumes; byte-identical to the pre-trace plumbing).
    pub fn steps(&self) -> Vec<Step> {
        self.entries.iter().map(|(_, s)| s.clone()).collect()
    }

    pub fn into_steps(self) -> Vec<Step> {
        self.entries.into_iter().map(|(_, s)| s).collect()
    }

    /// Busy time (CPU + I/O; lock steps carry no duration) charged to each
    /// phase, indexed as [`Phase::ALL`].
    pub fn phase_busy(&self) -> [Duration; Phase::ALL.len()] {
        let mut totals = [Duration::ZERO; Phase::ALL.len()];
        for (phase, step) in &self.entries {
            if let Step::Cpu(d) | Step::Io(d) = step {
                totals[phase.index()] += *d;
            }
        }
        totals
    }

    /// Total busy time across all phases.
    pub fn busy_total(&self) -> Duration {
        let mut total = Duration::ZERO;
        for d in self.phase_busy() {
            total += d;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::LockId;

    #[test]
    fn flatten_preserves_insertion_order_across_phases() {
        let mut t = StepTrace::new();
        t.push(Phase::Sandbox, Step::Cpu(Duration::from_micros(1)));
        t.push(Phase::Exec, Step::Io(Duration::from_micros(2)));
        t.push(Phase::Sandbox, Step::Cpu(Duration::from_micros(3)));
        assert_eq!(
            t.steps(),
            vec![
                Step::Cpu(Duration::from_micros(1)),
                Step::Io(Duration::from_micros(2)),
                Step::Cpu(Duration::from_micros(3)),
            ]
        );
    }

    #[test]
    fn append_keeps_donor_phases() {
        let mut a = StepTrace::new();
        a.push(Phase::ApiDispatch, Step::Io(Duration::from_micros(5)));
        let mut b = StepTrace::new();
        b.push(Phase::Compile, Step::Cpu(Duration::from_micros(7)));
        a.append(&mut b);
        assert!(b.is_empty());
        assert_eq!(a.entries()[1].0, Phase::Compile);
    }

    #[test]
    fn phase_busy_sums_cpu_and_io_only() {
        let mut t = StepTrace::new();
        t.push(Phase::Compile, Step::Cpu(Duration::from_micros(10)));
        t.push(Phase::Compile, Step::Io(Duration::from_micros(5)));
        t.push(Phase::Compile, Step::Acquire(LockId(1)));
        t.push(Phase::Compile, Step::Release(LockId(1)));
        t.push(Phase::Exec, Step::Cpu(Duration::from_micros(2)));
        let busy = t.phase_busy();
        assert_eq!(busy[Phase::Compile.index()], Duration::from_micros(15));
        assert_eq!(busy[Phase::Exec.index()], Duration::from_micros(2));
        assert_eq!(t.busy_total(), Duration::from_micros(17));
    }

    #[test]
    fn labels_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for p in Phase::ALL {
            assert!(seen.insert(p.label()), "duplicate label {}", p.label());
            assert_eq!(Phase::ALL[p.index()], p);
        }
    }

    #[test]
    fn startup_is_a_prefix_of_all() {
        // fig8 indexes phase_busy() with STARTUP phases; that only stays
        // valid while STARTUP is an exact prefix of ALL.
        assert_eq!(&Phase::ALL[..Phase::STARTUP.len()], &Phase::STARTUP[..]);
        assert!(!Phase::STARTUP.contains(&Phase::TeardownAfterFault));
        assert!(!Phase::STARTUP.contains(&Phase::Terminating));
    }
}
