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
//!
//! A trace is a pod start's program and nothing else: teardown, SIGTERM and
//! SIGKILL, health probes and breaker probes record no steps.

use std::fmt;

use crate::des::{LockId, Step};
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
    /// Container/pod teardown. No step records it: only a pod start
    /// records steps, and this is kept as the fig8 per-phase report's last
    /// (zero) column.
    Teardown,
}

impl Phase {
    /// Every phase, in pipeline order: the column set of the fig8
    /// per-phase report.
    pub const ALL: [Phase; 11] = [
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
        }
    }
}

/// One `(Phase, Step)` record in 16 bytes, not a tuple's 24: the phase
/// rides in the padding between the step's tag and its payload.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Entry {
    Cpu(Phase, Duration),
    Io(Phase, Duration),
    Acquire(Phase, LockId),
    Release(Phase, LockId),
}

impl Entry {
    fn new(phase: Phase, step: Step) -> Entry {
        match step {
            Step::Cpu(d) => Entry::Cpu(phase, d),
            Step::Io(d) => Entry::Io(phase, d),
            Step::Acquire(l) => Entry::Acquire(phase, l),
            Step::Release(l) => Entry::Release(phase, l),
        }
    }

    fn phase(self) -> Phase {
        match self {
            Entry::Cpu(p, _) | Entry::Io(p, _) | Entry::Acquire(p, _) | Entry::Release(p, _) => p,
        }
    }

    fn step(self) -> Step {
        match self {
            Entry::Cpu(_, d) => Step::Cpu(d),
            Entry::Io(_, d) => Step::Io(d),
            Entry::Acquire(_, l) => Step::Acquire(l),
            Entry::Release(_, l) => Step::Release(l),
        }
    }
}

/// Printed as the `(Phase, Step)` pair it stands for.
impl fmt::Debug for Entry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (self.phase(), self.step()).fmt(f)
    }
}

/// An ordered list of `(Phase, Step)` records.
///
/// Insertion order is the simulation order: [`StepTrace::steps`] flattens to
/// the identical `Vec<Step>` the untyped plumbing used to build, which is
/// what keeps every figure byte-identical across the refactor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepTrace {
    entries: Vec<Entry>,
}

impl StepTrace {
    pub fn new() -> StepTrace {
        StepTrace { entries: Vec::new() }
    }

    /// An empty trace with room for `steps` records, allocated once: a
    /// start whose layers all push into one trace need not grow it.
    pub fn with_capacity(steps: usize) -> StepTrace {
        StepTrace { entries: Vec::with_capacity(steps) }
    }

    pub fn push(&mut self, phase: Phase, step: Step) {
        self.entries.push(Entry::new(phase, step));
    }

    pub fn extend(&mut self, phase: Phase, steps: impl IntoIterator<Item = Step>) {
        self.entries.extend(steps.into_iter().map(|s| Entry::new(phase, s)));
    }

    /// Move every record from `other` onto the end of `self`, keeping
    /// `other`'s phase attribution. `other` is left empty and holding no
    /// buffer: a drained trace often lives as long as its pod. An empty
    /// `self` takes `other`'s buffer whole.
    pub fn append(&mut self, other: &mut StepTrace) {
        if self.entries.is_empty() {
            std::mem::swap(&mut self.entries, &mut other.entries);
        }
        self.entries.append(&mut std::mem::take(&mut other.entries));
    }

    /// Give back the capacity growth left over, for a trace that is kept.
    pub fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
    }

    /// Every record, in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = (Phase, Step)> + '_ {
        self.entries.iter().map(|e| (e.phase(), e.step()))
    }

    /// Flatten to the raw step program in insertion order (what the DES
    /// consumes; byte-identical to the pre-trace plumbing).
    pub fn steps(&self) -> Vec<Step> {
        self.entries.iter().map(|e| e.step()).collect()
    }

    /// Busy time (CPU + I/O; lock steps carry no duration) charged to each
    /// phase, indexed as [`Phase::ALL`].
    pub fn phase_busy(&self) -> [Duration; Phase::ALL.len()] {
        let mut totals = [Duration::ZERO; Phase::ALL.len()];
        for e in &self.entries {
            if let Step::Cpu(d) | Step::Io(d) = e.step() {
                totals[e.phase().index()] += d;
            }
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl StepTrace {
        pub(crate) fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }
    }

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
        assert_eq!(a.entries().nth(1).map(|(p, _)| p), Some(Phase::Compile));
    }

    #[test]
    fn append_into_an_empty_trace_takes_the_donor_buffer() {
        let mut donor = StepTrace::new();
        donor.push(Phase::Exec, Step::Cpu(Duration::from_micros(1)));
        let buffer = donor.entries.as_ptr();
        let mut t = StepTrace::new();
        t.append(&mut donor);
        assert_eq!(t.entries.as_ptr(), buffer);
        assert_eq!(donor.entries.capacity(), 0);
    }

    /// A record costs 16 bytes, and reads and prints as the pair it packs.
    #[test]
    fn a_record_is_a_step_with_its_phase_in_the_padding() {
        assert_eq!(std::mem::size_of::<Step>(), 16);
        assert_eq!(std::mem::size_of::<Entry>(), 16);
        let steps = [
            Step::Cpu(Duration::from_nanos(u64::MAX)),
            Step::Io(Duration::from_micros(3)),
            Step::Acquire(LockId(u32::MAX)),
            Step::Release(LockId(7)),
        ];
        let mut t = StepTrace::new();
        for (phase, step) in Phase::ALL.into_iter().zip(steps.iter().cycle()) {
            t.push(phase, step.clone());
        }
        let pairs: Vec<(Phase, Step)> =
            Phase::ALL.into_iter().zip(steps.iter().cloned().cycle()).collect();
        assert_eq!(t.entries().collect::<Vec<_>>(), pairs);
        assert_eq!(format!("{t:?}"), format!("StepTrace {{ entries: {pairs:?} }}"));
        assert_eq!(t.entries().map(|(_, s)| s).collect::<Vec<_>>(), t.steps());
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
    }

    #[test]
    fn labels_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for p in Phase::ALL {
            assert!(seen.insert(p.label()), "duplicate label {}", p.label());
            assert_eq!(Phase::ALL[p.index()], p);
        }
    }
}
