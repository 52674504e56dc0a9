//! The OCI container lifecycle as a single shared state machine.
//!
//! Both execution paths in the stack — the crun-embedded runtime
//! (`runtimes::LowLevelRuntime`) and the runwasi shim path inside
//! `containerd` — previously tracked container state with their own ad-hoc
//! enums and `if state != Created` checks, which is how asymmetric teardown
//! creeps in: one path forgets to reject a double-start, the other forgets
//! that delete-after-a-fault is legal. This module is the one place
//! transition legality lives:
//!
//! ```text
//!            ┌──────────┐
//!            │ Created  │──────────────┬──────────────┐
//!            └────┬─────┘              │              │ setup error
//!                 │ start              │              │
//!            ┌────▼─────┐             │         ┌────▼─────┐
//!            │ Running  │──────────────┤ crash ──▶│  Failed  │
//!            └──┬───────┘   kill/exit  │          └────┬─────┘
//!        SIGTERM│                      │               ▲ SIGKILL
//!   ┌───────────▼┐               ┌────▼─────┐    ┌────┴────────┐
//!   │ Terminating ├──────────────▶│ Stopped  │◀───┤ Terminating │
//!   └─────────────┘  exits in     └────┬─────┘    │ grace over  │
//!                    grace             │ delete   └─────────────┘
//!                                 ┌───▼──────┐
//!                                 │ Deleted  │   (terminal; also from Failed)
//!                                 └──────────┘
//! ```
//!
//! `Stopped` is the orderly exit, `Failed` is an error exit (setup failure,
//! crash, or a SIGKILL). Both are "down" states that only `delete` can
//! leave; a process the kernel OOM-kills is the kernel's record
//! (`ProcState::OomKilled`), which the kubelet reads. `Terminating` is the
//! grace-period window between SIGTERM and the outcome: the guest either
//! exits in time (`Stopped`) or ignores the signal and is hard-killed when
//! the grace period lapses (`Failed`). A terminating container is still up
//! — it cannot be deleted or restarted in place. Every legal transition
//! strictly advances the state's rank, so no sequence of legal operations
//! can revisit an earlier state — the invariant the property test in this
//! module checks with random operation sequences.

use crate::error::{KernelError, KernelResult};

/// The OCI lifecycle states plus the two fault exits. `Deleted` is terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LifecycleState {
    Created,
    Running,
    /// SIGTERM delivered, grace period running. Still "up": the container
    /// may exit orderly (`Stopped`) or be hard-killed (`Failed`), but it
    /// cannot be deleted or resurrected to `Running`.
    Terminating,
    Stopped,
    /// Error exit: setup failure before the first instruction, or a crash
    /// while running. Only `delete` leaves this state.
    Failed,
    Deleted,
}

/// Is `from -> to` a legal OCI transition?
pub const fn legal(from: LifecycleState, to: LifecycleState) -> bool {
    use LifecycleState::*;
    matches!(
        (from, to),
        (Created, Running)
            | (Created, Stopped)
            | (Created, Failed)
            | (Running, Terminating)
            | (Running, Stopped)
            | (Running, Failed)
            | (Terminating, Stopped)
            | (Terminating, Failed)
            | (Stopped, Deleted)
            | (Failed, Deleted)
    )
}

/// A container's position in the lifecycle. Starts at `Created`; every state
/// change goes through [`Lifecycle::transition`] (strict) or the idempotent
/// helpers [`Lifecycle::begin_termination`], [`Lifecycle::stop`] and
/// [`Lifecycle::fail`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lifecycle {
    state: LifecycleState,
}

impl Default for Lifecycle {
    fn default() -> Self {
        Lifecycle::new()
    }
}

impl Lifecycle {
    pub fn new() -> Lifecycle {
        Lifecycle { state: LifecycleState::Created }
    }

    pub fn state(&self) -> LifecycleState {
        self.state
    }

    pub fn is(&self, s: LifecycleState) -> bool {
        self.state == s
    }

    /// Strict transition: errors (leaving the state unchanged) unless
    /// `from -> to` is in the legal set.
    pub fn transition(&mut self, to: LifecycleState, what: &str) -> KernelResult<()> {
        if legal(self.state, to) {
            self.state = to;
            Ok(())
        } else {
            Err(KernelError::InvalidState(format!(
                "{what}: illegal lifecycle transition {:?} -> {to:?}",
                self.state
            )))
        }
    }

    /// Begin graceful termination: a `Running` container moves to
    /// `Terminating` (SIGTERM delivered, grace period started). Any other
    /// state — including an already-terminating container — is left
    /// untouched, so re-delivering SIGTERM mid-grace is a no-op rather than
    /// an error.
    pub fn begin_termination(&mut self) {
        if self.state == LifecycleState::Running {
            self.state = LifecycleState::Terminating;
        }
    }

    /// Idempotent stop for teardown paths: advances `Created`/`Running`/
    /// `Terminating` to `Stopped` and reports whether the caller must
    /// actually kill the process. Containers that are already down
    /// (`Stopped`, `Failed`) or `Deleted` need no work.
    pub fn stop(&mut self) -> bool {
        match self.state {
            LifecycleState::Created | LifecycleState::Running | LifecycleState::Terminating => {
                self.state = LifecycleState::Stopped;
                true
            }
            LifecycleState::Stopped | LifecycleState::Failed | LifecycleState::Deleted => false,
        }
    }

    /// Record a fault exit: `Created`/`Running`/`Terminating` containers
    /// move to `Failed`; already-down containers keep their state. Reports
    /// whether the caller must reap the process.
    pub fn fail(&mut self) -> bool {
        match self.state {
            LifecycleState::Created | LifecycleState::Running | LifecycleState::Terminating => {
                self.state = LifecycleState::Failed;
                true
            }
            _ => false,
        }
    }
}

impl PartialEq<LifecycleState> for Lifecycle {
    fn eq(&self, other: &LifecycleState) -> bool {
        self.state == *other
    }
}

impl PartialEq<Lifecycle> for LifecycleState {
    fn eq(&self, other: &Lifecycle) -> bool {
        *self == other.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop;

    impl LifecycleState {
        const ALL: [LifecycleState; 6] = [
            LifecycleState::Created,
            LifecycleState::Running,
            LifecycleState::Terminating,
            LifecycleState::Stopped,
            LifecycleState::Failed,
            LifecycleState::Deleted,
        ];

        /// Rank in lifecycle order; legal transitions strictly increase it.
        /// The two "down" states share a rank — there is no legal edge
        /// between them, so strictness holds.
        fn rank(self) -> u8 {
            match self {
                LifecycleState::Created => 0,
                LifecycleState::Running => 1,
                LifecycleState::Terminating => 2,
                LifecycleState::Stopped | LifecycleState::Failed => 3,
                LifecycleState::Deleted => 4,
            }
        }

        /// A state the container cannot leave except via `delete`.
        fn is_down(self) -> bool {
            matches!(self, LifecycleState::Stopped | LifecycleState::Failed)
        }
    }

    impl Lifecycle {
        /// Idempotent delete: advances any down state (`Stopped`, `Failed`)
        /// to `Deleted` and reports whether resources still need
        /// releasing. A second delete is a no-op; deleting a container that is
        /// still up — `Running` or mid-grace-period `Terminating` — is rejected.
        fn delete(&mut self, what: &str) -> KernelResult<bool> {
            match self.state {
                s if s.is_down() => {
                    self.state = LifecycleState::Deleted;
                    Ok(true)
                }
                LifecycleState::Deleted => Ok(false),
                s => Err(KernelError::InvalidState(format!(
                    "{what}: cannot delete container in state {s:?} (stop it first)"
                ))),
            }
        }
    }

    #[test]
    fn happy_path() {
        let mut lc = Lifecycle::new();
        lc.transition(LifecycleState::Running, "c").unwrap();
        lc.transition(LifecycleState::Stopped, "c").unwrap();
        lc.transition(LifecycleState::Deleted, "c").unwrap();
        assert_eq!(lc.state(), LifecycleState::Deleted);
    }

    #[test]
    fn created_can_stop_without_running() {
        let mut lc = Lifecycle::new();
        lc.transition(LifecycleState::Stopped, "c").unwrap();
        assert_eq!(lc, LifecycleState::Stopped);
    }

    #[test]
    fn illegal_transitions_rejected_and_state_unchanged() {
        let mut lc = Lifecycle::new();
        assert!(lc.transition(LifecycleState::Deleted, "c").is_err());
        assert_eq!(lc, LifecycleState::Created);
        lc.transition(LifecycleState::Running, "c").unwrap();
        assert!(lc.transition(LifecycleState::Created, "c").is_err());
        assert!(lc.transition(LifecycleState::Running, "c").is_err());
        assert!(lc.transition(LifecycleState::Deleted, "c").is_err());
        assert_eq!(lc, LifecycleState::Running);
    }

    #[test]
    fn stop_and_delete_are_idempotent() {
        let mut lc = Lifecycle::new();
        assert!(lc.stop());
        assert!(!lc.stop(), "second stop is a no-op");
        assert!(lc.delete("c").unwrap());
        assert!(!lc.delete("c").unwrap(), "second delete is a no-op");
        assert_eq!(lc, LifecycleState::Deleted);
    }

    #[test]
    fn delete_before_stop_is_rejected() {
        let mut lc = Lifecycle::new();
        lc.transition(LifecycleState::Running, "c").unwrap();
        assert!(lc.delete("c").is_err());
        assert_eq!(lc, LifecycleState::Running);
    }

    #[test]
    fn failed_is_down_but_deletable() {
        // Setup failure before start.
        let mut lc = Lifecycle::new();
        lc.transition(LifecycleState::Failed, "c").unwrap();
        assert!(!lc.stop(), "a failed container needs no kill");
        assert!(lc.delete("c").unwrap(), "but its resources still release");
        assert_eq!(lc, LifecycleState::Deleted);

        // A crash while running.
        let mut lc = Lifecycle::new();
        lc.transition(LifecycleState::Running, "c").unwrap();
        lc.transition(LifecycleState::Failed, "c").unwrap();
        assert!(!lc.stop());
        assert!(lc.delete("c").unwrap());

        assert!(!legal(LifecycleState::Stopped, LifecycleState::Failed));
        assert!(!legal(LifecycleState::Failed, LifecycleState::Running), "no restart in place");
    }

    #[test]
    fn fail_helper_routes_to_the_right_down_state() {
        let mut lc = Lifecycle::new();
        lc.transition(LifecycleState::Running, "c").unwrap();
        assert!(lc.fail(), "first fault exits the process");
        assert_eq!(lc, LifecycleState::Failed);
        assert!(!lc.fail(), "already down: nothing left to reap");

        let mut lc = Lifecycle::new();
        lc.transition(LifecycleState::Stopped, "c").unwrap();
        assert!(!lc.fail(), "an orderly exit keeps its cause");
        assert_eq!(lc, LifecycleState::Stopped);
    }

    #[test]
    fn terminating_is_up_until_the_grace_period_resolves() {
        // SIGTERM path: Running -> Terminating, then either an orderly exit
        // within the grace period (Stopped) or a hard kill (Failed).
        let mut lc = Lifecycle::new();
        lc.transition(LifecycleState::Running, "c").unwrap();
        lc.begin_termination();
        assert_eq!(lc, LifecycleState::Terminating);
        lc.begin_termination();
        assert_eq!(lc, LifecycleState::Terminating, "SIGTERM re-delivery is a no-op");

        // Illegal resurrection and premature delete both rejected mid-grace.
        assert!(lc.transition(LifecycleState::Running, "c").is_err());
        assert!(lc.delete("c").is_err(), "Terminating is still up");
        assert_eq!(lc, LifecycleState::Terminating);

        // Orderly exit inside the grace period.
        assert!(lc.stop(), "the guest's exit still needs reaping");
        assert_eq!(lc, LifecycleState::Stopped);
        assert!(!lc.stop());
        assert!(lc.delete("c").unwrap());

        // Grace period lapses: escalation to SIGKILL is a fault exit.
        let mut lc = Lifecycle::new();
        lc.transition(LifecycleState::Running, "c").unwrap();
        lc.begin_termination();
        assert_eq!(lc, LifecycleState::Terminating);
        assert!(lc.fail());
        assert_eq!(lc, LifecycleState::Failed);

        // Terminating is only reachable from Running.
        assert!(!legal(LifecycleState::Created, LifecycleState::Terminating));
        assert!(!legal(LifecycleState::Stopped, LifecycleState::Terminating));
        assert!(!LifecycleState::Terminating.is_down());
    }

    #[test]
    fn prop_random_op_sequences_never_reach_an_illegal_state() {
        // Drive the machine with random operations (strict transitions to
        // arbitrary targets plus the idempotent teardown helpers) and check
        // the invariants: state only changes along legal edges, rank never
        // decreases, and rejected operations leave the state untouched.
        prop::check("lifecycle_legality", 400, |g| {
            let mut lc = Lifecycle::new();
            let mut prev = lc.state();
            let n = LifecycleState::ALL.len() as u64;
            let ops = 1 + (g.next_u64() % 24) as usize;
            for _ in 0..ops {
                let before = lc.state();
                match g.next_u64() % 8 {
                    0..=3 => {
                        let target = LifecycleState::ALL[(g.next_u64() % n) as usize];
                        let res = lc.transition(target, "prop");
                        assert_eq!(res.is_ok(), legal(before, target), "{before:?}->{target:?}");
                        if res.is_err() {
                            assert_eq!(lc.state(), before, "failed transition mutated state");
                        }
                    }
                    4 => {
                        let acted = lc.stop();
                        assert_eq!(lc.state() != before, acted);
                        assert!(lc.state() != LifecycleState::Created);
                        if acted {
                            assert_eq!(lc.state(), LifecycleState::Stopped);
                        }
                    }
                    5 => {
                        let acted = lc.fail();
                        assert_eq!(lc.state() != before, acted);
                        if acted {
                            assert_eq!(lc.state(), LifecycleState::Failed);
                        }
                    }
                    6 => {
                        lc.begin_termination();
                        if before == LifecycleState::Running {
                            assert_eq!(lc.state(), LifecycleState::Terminating);
                        } else {
                            assert_eq!(lc.state(), before, "SIGTERM re-delivery mutated state");
                        }
                    }
                    _ => {
                        if let Ok(acted) = lc.delete("prop") {
                            assert_eq!(lc.state() != before, acted);
                            assert_eq!(lc.state(), LifecycleState::Deleted);
                        } else {
                            assert_eq!(lc.state(), before);
                            assert!(!before.is_down(), "delete from a down state cannot fail");
                        }
                    }
                }
                assert!(
                    lc.state().rank() >= prev.rank(),
                    "rank regressed: {prev:?} -> {:?}",
                    lc.state()
                );
                prev = lc.state();
            }
        });
    }
}
