//! Discrete-event simulation of concurrent startup work.
//!
//! Container startup in the paper is a fleet of near-identical workflows
//! (kubelet sync → sandbox → shim spawn → runtime exec → engine init →
//! module compile → first instruction) racing over 20 cores and a handful of
//! serialization points (the containerd task service, the image store). The
//! density crossovers in Figs. 8–9 are contention effects, so we simulate
//! them with:
//!
//! * a **processor-sharing CPU model**: `n` runnable tasks on `c` cores each
//!   progress at rate `min(1, c/n)` — generalized processor sharing, the
//!   fluid limit of a fair scheduler, computed exactly in integer virtual
//!   time with every event on a whole nanosecond (see [`Sim::run`]);
//! * **FIFO locks**: a task that reaches [`Step::Acquire`] either takes the
//!   lock and continues or parks until the holder reaches
//!   [`Step::Release`];
//! * **I/O delays** that occupy no core (disk latency, RPC round-trips).
//!
//! Tasks are plain step lists, so every layer of the container stack can
//! append its contribution to a startup program without knowing about the
//! simulator.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use crate::time::{Duration, SimTime};

/// Identifier of a task inside one simulation run (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// Identifier of a simulated lock (e.g. the containerd task-service mutex).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockId(pub u32);

/// Simulated disk bandwidth for cold reads (NVMe-class). Single source of
/// truth for every layer that models a cold file read.
pub(crate) const DISK_BYTES_PER_SEC: u64 = 500 << 20;

/// One unit of work in a task's startup program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// CPU-bound work: contends for cores under processor sharing.
    Cpu(Duration),
    /// Off-CPU delay (disk, network, sleep): elapses in parallel freely.
    Io(Duration),
    /// Block until the lock is available, then hold it.
    Acquire(LockId),
    /// Release a held lock, waking the first waiter.
    Release(LockId),
}

impl Step {
    /// An I/O step for a cold read of `bytes` from disk.
    pub fn disk_read(bytes: u64) -> Step {
        Step::Io(Duration::from_nanos(bytes.saturating_mul(1_000_000_000) / DISK_BYTES_PER_SEC))
    }
}

/// A task: a named program starting at a given instant.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    pub name: String,
    pub start_at: SimTime,
    pub steps: Vec<Step>,
}

impl TaskSpec {
    pub fn new(name: impl Into<String>) -> Self {
        TaskSpec { name: name.into(), start_at: SimTime::ZERO, steps: Vec::new() }
    }

    pub fn starting_at(mut self, t: SimTime) -> Self {
        self.start_at = t;
        self
    }

    pub fn cpu(mut self, d: Duration) -> Self {
        self.steps.push(Step::Cpu(d));
        self
    }

    pub fn io(mut self, d: Duration) -> Self {
        self.steps.push(Step::Io(d));
        self
    }

    pub fn acquire(mut self, l: LockId) -> Self {
        self.steps.push(Step::Acquire(l));
        self
    }

    pub fn release(mut self, l: LockId) -> Self {
        self.steps.push(Step::Release(l));
        self
    }
}

/// Completion record for one task.
#[derive(Debug, Clone)]
pub struct TaskResult {
    pub id: TaskId,
    pub name: String,
    pub started: SimTime,
    pub finished: SimTime,
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    pub results: Vec<TaskResult>,
    /// Instant the last task finished.
    pub makespan: SimTime,
    /// State-transition events processed (admissions, CPU completions,
    /// sleep wakeups) — the DES cost metric the perf trajectory records.
    pub events: u64,
}

impl SimOutcome {
    /// Finish time of the last task — the paper's "time to start N
    /// containers" metric (deploy begins at t=0).
    pub fn total(&self) -> Duration {
        self.makespan - SimTime::ZERO
    }
}

/// The event queue of both simulation loops: `(time, payload)` pairs in a
/// binary heap, popped in `(time, payload)` order.
///
/// A heap because the queues are small. The DES holds at most one entry
/// per task, an admission or a sleep end (a CPU step's end is a virtual
/// time, kept in a heap of its own), and the traffic loop holds only
/// work in flight: a high-water mark of 3 events on `traffic_steady` and
/// 77 on `traffic_overload`. At those sizes an O(log n) sift costs less
/// than a calendar queue's bucket scans, divisions and resizes; the name
/// `CalendarQueue` is kept because `benchmark/` names it.
///
/// The payload is any `Copy + Ord` value and rides in the queue entry;
/// its order breaks ties between equal times. The DES queues task ids
/// (`usize`, the default, and what [`CalendarQueue::new`] builds); the
/// traffic loop queues `(sequence number, event)` so that equal-time
/// events pop in push order. Other payloads start from `default()`.
///
/// Invariant: every queued time is `>=` the last popped time (the DES
/// never schedules into the past).
#[derive(Debug, Clone)]
pub struct CalendarQueue<P = usize> {
    heap: BinaryHeap<Reverse<(u64, P)>>,
    /// Lower bound on every queued time (advanced on pop).
    cursor: u64,
}

impl<P: Copy + Ord> Default for CalendarQueue<P> {
    fn default() -> Self {
        CalendarQueue { heap: BinaryHeap::new(), cursor: 0 }
    }
}

impl CalendarQueue {
    /// A queue of task ids. Fixing the payload here (as `HashMap::new`
    /// fixes its hasher) keeps `CalendarQueue::new()` inferable at every
    /// call site that pushes an integer literal.
    pub fn new() -> CalendarQueue {
        CalendarQueue::default()
    }
}

impl<P: Copy + Ord> CalendarQueue<P> {
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn push(&mut self, t: SimTime, payload: P) {
        let t = t.as_nanos();
        debug_assert!(t >= self.cursor, "event scheduled in the past");
        self.heap.push(Reverse((t, payload)));
    }

    /// Earliest `(time, payload)` without removing it; ties broken by payload.
    pub(crate) fn peek(&self) -> Option<(SimTime, P)> {
        self.heap.peek().map(|&Reverse((t, payload))| (SimTime(t), payload))
    }

    /// Remove and return the earliest `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, P)> {
        let Reverse((t, payload)) = self.heap.pop()?;
        self.cursor = t;
        Some((SimTime(t), payload))
    }

    /// Remove and return the earliest entry if its time is strictly before
    /// `limit`, for a caller that merges the queue with another
    /// time-ordered source whose next item is due at `limit`.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, P)> {
        let Reverse((t, _)) = self.heap.peek()?;
        if *t >= limit.as_nanos() {
            return None;
        }
        self.pop()
    }
}

/// Fractional bits of the DES's virtual time: `v` counts 2⁻⁶⁴ ns.
const FRAC: u32 = 64;

const OVERFLOW: &str = "DES virtual time overflowed u128";

/// The simulator. Construct with the core count, then [`Sim::run`].
#[derive(Debug, Clone)]
pub struct Sim {
    cores: u32,
}

impl Sim {
    pub fn new(cores: u32) -> Sim {
        assert!(cores > 0, "need at least one core");
        Sim { cores }
    }

    /// Run every task to completion and report per-task finish times.
    ///
    /// Generalized processor sharing in integer virtual time. While `n`
    /// tasks run on `c` cores, virtual time `v` advances at
    /// `min(c, n) / n` of real time, so every running task has done the
    /// same CPU work since `v` was last read. A CPU step of `d` ns that
    /// starts at `v` gets the tag `v + d` and ends when `v` reaches it;
    /// running tasks wait in a heap ordered by tag, admissions and sleep
    /// ends in a [`CalendarQueue`], so an event costs O(log tasks).
    ///
    /// Events land on whole nanoseconds. `v` is a fixed-point count of
    /// 2⁻⁶⁴ ns, and every advance rounds *up*, so `v` never lags the exact
    /// value and a step ends on the first ns at which `v ≥ tag`: the ns
    /// exact arithmetic gives. (Rounding down would leave `v` just short
    /// of a tag that exact arithmetic reaches on a whole ns, and end that
    /// step a ns late.)
    /// Tasks due in the same ns are handled in task-id order; this is the
    /// model's tie rule for who queues first on a lock.
    ///
    /// Panics if a task releases a lock it does not hold (a programming
    /// error in a startup program), if the task set deadlocks, or if
    /// virtual time overflows.
    pub fn run(&self, tasks: Vec<TaskSpec>) -> SimOutcome {
        let n = tasks.len();
        let mut run = Run {
            timed: CalendarQueue::new(),
            running: BinaryHeap::new(),
            v: 0,
            holders: BTreeMap::new(),
            waiters: BTreeMap::new(),
            finished: 0,
            rts: Vec::with_capacity(n),
            worklist: VecDeque::new(),
        };
        for (i, spec) in tasks.into_iter().enumerate() {
            run.timed.push(spec.start_at, i);
            run.rts.push(TaskRt { spec, pc: 0, finished_at: SimTime::ZERO });
        }
        let cores = u128::from(self.cores);
        let mut now = SimTime::ZERO;
        let mut events = 0u64;
        let mut due: Vec<usize> = Vec::new();
        while run.finished < n {
            // While no more tasks run than there are cores, each runs at
            // rate 1 and both formulas below are shifts.
            let busy = run.running.len() as u128;
            let next_cpu = run.running.peek().map(|&Reverse((tag, _))| {
                let work = tag - run.v;
                let dt = if busy <= cores {
                    work.div_ceil(1 << FRAC)
                } else {
                    work.checked_mul(busy).expect(OVERFLOW).div_ceil(cores << FRAC)
                };
                now + Duration(u64::try_from(dt).expect(OVERFLOW))
            });
            let next_timed = run.timed.peek().map(|(t, _)| t);
            let next = next_cpu.into_iter().chain(next_timed).min().unwrap_or_else(|| {
                panic!("deadlock: {} of {} tasks blocked on locks", n - run.finished, n)
            });
            let dt = u128::from((next - now).as_nanos());
            let gain = if busy <= cores {
                dt << FRAC
            } else {
                (dt * cores).checked_mul(1 << FRAC).expect(OVERFLOW).div_ceil(busy)
            };
            run.v = run.v.checked_add(gain).expect(OVERFLOW);
            now = next;

            while let Some(&Reverse((tag, i))) = run.running.peek() {
                if tag > run.v {
                    break;
                }
                run.running.pop();
                due.push(i);
            }
            while run.timed.peek().is_some_and(|(t, _)| t <= now) {
                due.push(run.timed.pop().expect("peeked entry").1);
            }
            due.sort_unstable();
            events += due.len() as u64;
            for i in due.drain(..) {
                run.resume(i, now);
            }
        }

        let makespan = run.rts.iter().map(|r| r.finished_at).max().unwrap_or(SimTime::ZERO);
        let results = run
            .rts
            .into_iter()
            .enumerate()
            .map(|(i, rt)| TaskResult {
                id: TaskId(i),
                name: rt.spec.name,
                started: rt.spec.start_at,
                finished: rt.finished_at,
            })
            .collect();
        SimOutcome { results, makespan, events }
    }
}

/// The state of one [`Sim::run`].
struct Run {
    rts: Vec<TaskRt>,
    /// Admissions and sleep ends, by instant.
    timed: CalendarQueue,
    /// Tasks in a CPU step, by the virtual time at which it ends.
    running: BinaryHeap<Reverse<(u128, usize)>>,
    /// Virtual time, in 2⁻[`FRAC`] ns.
    v: u128,
    holders: BTreeMap<LockId, usize>,
    waiters: BTreeMap<LockId, VecDeque<usize>>,
    finished: usize,
    worklist: VecDeque<usize>,
}

struct TaskRt {
    spec: TaskSpec,
    /// Index of the step the task goes on with when its current wait ends.
    pc: usize,
    finished_at: SimTime,
}

impl Run {
    /// Drive task `start` through consecutive zero-width steps until it
    /// lands in a waiting state (CPU work, sleep, block) or finishes. Lock
    /// releases hand the lock to the first waiter; woken tasks are resumed
    /// iteratively via a worklist, after the task that woke them (a
    /// recursive hand-off would overflow the stack when hundreds of
    /// waiters hold zero-width critical sections).
    fn resume(&mut self, start: usize, now: SimTime) {
        self.worklist.push_back(start);
        while let Some(i) = self.worklist.pop_front() {
            let rt = &mut self.rts[i];
            loop {
                let Some(step) = rt.spec.steps.get(rt.pc) else {
                    rt.finished_at = now;
                    self.finished += 1;
                    break;
                };
                rt.pc += 1;
                match *step {
                    Step::Cpu(d) | Step::Io(d) if d == Duration::ZERO => {}
                    Step::Cpu(d) => {
                        let tag = self.v.checked_add(u128::from(d.as_nanos()) << FRAC);
                        self.running.push(Reverse((tag.expect(OVERFLOW), i)));
                        break;
                    }
                    Step::Io(d) => {
                        self.timed.push(now + d, i);
                        break;
                    }
                    Step::Acquire(l) => {
                        if let Some(&holder) = self.holders.get(&l) {
                            debug_assert_ne!(holder, i, "recursive lock acquisition");
                            self.waiters.entry(l).or_default().push_back(i);
                            break;
                        }
                        self.holders.insert(l, i);
                    }
                    Step::Release(l) => {
                        let holder = self.holders.remove(&l);
                        assert_eq!(holder, Some(i), "task released a lock it does not hold");
                        if let Some(next) = self.waiters.get_mut(&l).and_then(VecDeque::pop_front) {
                            self.holders.insert(l, next);
                            self.worklist.push_back(next);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TaskResult {
        fn elapsed(&self) -> Duration {
            self.finished - self.started
        }
    }

    impl TaskSpec {
        /// Total CPU demand of the program.
        pub(crate) fn cpu_demand(&self) -> Duration {
            let mut total = Duration::ZERO;
            for s in &self.steps {
                if let Step::Cpu(d) = s {
                    total += *d;
                }
            }
            total
        }
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn single_task_cpu() {
        let out = Sim::new(4).run(vec![TaskSpec::new("t").cpu(ms(100))]);
        assert_eq!(out.total(), ms(100));
        assert_eq!(out.results[0].elapsed(), ms(100));
    }

    #[test]
    fn parallel_tasks_within_core_count_do_not_contend() {
        let tasks = (0..4).map(|i| TaskSpec::new(format!("t{i}")).cpu(ms(100))).collect();
        let out = Sim::new(4).run(tasks);
        assert_eq!(out.total(), ms(100));
    }

    #[test]
    fn oversubscription_stretches_cpu_time() {
        // 8 tasks × 100ms on 4 cores: each runs at rate 0.5 → 200ms.
        let tasks = (0..8).map(|i| TaskSpec::new(format!("t{i}")).cpu(ms(100))).collect();
        let out = Sim::new(4).run(tasks);
        assert_eq!(out.total(), ms(200));
    }

    #[test]
    fn io_does_not_contend() {
        let tasks = (0..100).map(|i| TaskSpec::new(format!("t{i}")).io(ms(50))).collect();
        let out = Sim::new(1).run(tasks);
        assert_eq!(out.total(), ms(50));
    }

    #[test]
    fn lock_serializes_critical_sections() {
        let l = LockId(1);
        let tasks: Vec<_> = (0..4)
            .map(|i| TaskSpec::new(format!("t{i}")).acquire(l).cpu(ms(10)).release(l))
            .collect();
        let out = Sim::new(8).run(tasks);
        // Fully serialized: 4 × 10ms.
        assert_eq!(out.total(), ms(40));
    }

    #[test]
    fn lock_fifo_order() {
        let l = LockId(1);
        let tasks: Vec<_> = (0..3)
            .map(|i| TaskSpec::new(format!("t{i}")).acquire(l).cpu(ms(10)).release(l))
            .collect();
        let out = Sim::new(8).run(tasks);
        let finishes: Vec<u64> = out.results.iter().map(|r| r.finished.as_nanos()).collect();
        assert!(finishes[0] < finishes[1] && finishes[1] < finishes[2]);
    }

    #[test]
    fn mixed_cpu_io_pipeline() {
        let out = Sim::new(2).run(vec![TaskSpec::new("t").cpu(ms(10)).io(ms(20)).cpu(ms(10))]);
        assert_eq!(out.total(), ms(40));
    }

    #[test]
    fn staggered_starts() {
        let t0 = TaskSpec::new("a").cpu(ms(100));
        let t1 = TaskSpec::new("b").starting_at(SimTime::ZERO + ms(50)).cpu(ms(100));
        let out = Sim::new(1).run(vec![t0, t1]);
        // a runs alone 50ms (50 left), then they share: each at 0.5 rate.
        // a finishes at 50 + 100 = 150ms; b has 50ms left, finishes at 200ms.
        assert_eq!(out.results[0].finished, SimTime::ZERO + ms(150));
        assert_eq!(out.results[1].finished, SimTime::ZERO + ms(200));
        assert_eq!(out.results[1].elapsed(), ms(150));
    }

    #[test]
    fn work_conservation_under_contention() {
        // Total CPU demand 40 × 100ms = 4s on 20 cores → ≥ 200ms; PS gives
        // exactly 200ms since all tasks are identical.
        let tasks = (0..40).map(|i| TaskSpec::new(format!("t{i}")).cpu(ms(100))).collect();
        let out = Sim::new(20).run(tasks);
        assert_eq!(out.total(), ms(200));
    }

    #[test]
    fn zero_width_steps_are_free() {
        let l = LockId(9);
        let out = Sim::new(1).run(vec![TaskSpec::new("t")
            .cpu(Duration::ZERO)
            .io(Duration::ZERO)
            .acquire(l)
            .release(l)]);
        assert_eq!(out.total(), Duration::ZERO);
    }

    #[test]
    fn empty_run() {
        let out = Sim::new(1).run(vec![]);
        assert_eq!(out.total(), Duration::ZERO);
        assert!(out.results.is_empty());
    }

    #[test]
    fn determinism() {
        let build = || {
            let l = LockId(1);
            (0..50)
                .map(|i| {
                    TaskSpec::new(format!("t{i}"))
                        .cpu(ms(3 + (i % 7)))
                        .acquire(l)
                        .cpu(ms(1))
                        .release(l)
                        .io(ms(10))
                        .cpu(ms(5))
                })
                .collect::<Vec<_>>()
        };
        let a = Sim::new(4).run(build());
        let b = Sim::new(4).run(build());
        for (x, y) in a.results.iter().zip(b.results.iter()) {
            assert_eq!(x.finished, y.finished);
        }
    }

    #[test]
    #[should_panic(expected = "released a lock")]
    fn release_without_hold_panics() {
        Sim::new(1).run(vec![TaskSpec::new("t").release(LockId(1))]);
    }

    #[test]
    fn long_zero_width_handoff_chain_does_not_overflow() {
        // 5000 tasks with zero-width critical sections: a recursive wake
        // chain would blow the stack; the worklist must not.
        let l = LockId(1);
        let tasks: Vec<_> =
            (0..5000).map(|i| TaskSpec::new(format!("t{i}")).acquire(l).release(l)).collect();
        let out = Sim::new(4).run(tasks);
        assert_eq!(out.total(), Duration::ZERO);
        assert_eq!(out.results.len(), 5000);
    }

    #[test]
    fn calendar_queue_orders_events() {
        let mut q = CalendarQueue::new();
        q.push(SimTime(300), 2);
        q.push(SimTime(100), 7);
        q.push(SimTime(100), 3);
        q.push(SimTime(200), 1);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((SimTime(100), 3)));
        assert_eq!(q.pop(), Some((SimTime(100), 7)));
        assert_eq!(q.peek(), Some((SimTime(200), 1)));
        assert_eq!(q.pop(), Some((SimTime(200), 1)));
        assert_eq!(q.pop(), Some((SimTime(300), 2)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn calendar_queue_carries_an_ordered_payload_and_pops_before_a_limit() {
        // The traffic loop's shape: (sequence number, event) payloads, so
        // equal-time entries pop in push order whatever the event is.
        let mut q: CalendarQueue<(u64, char)> = CalendarQueue::default();
        q.push(SimTime(100), (0, 'z'));
        q.push(SimTime(200), (1, 'a'));
        q.push(SimTime(100), (2, 'b'));
        // Strict: an entry due exactly at the limit stays queued.
        assert_eq!(q.pop_before(SimTime(100)), None);
        assert_eq!(q.pop_before(SimTime(101)), Some((SimTime(100), (0, 'z'))));
        assert_eq!(q.pop_before(SimTime(101)), Some((SimTime(100), (2, 'b'))));
        assert_eq!(q.pop_before(SimTime(101)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime(200), (1, 'a'))));
        assert_eq!(q.pop_before(SimTime(u64::MAX)), None);
    }

    fn fnv1a_finishes(out: &SimOutcome) -> u64 {
        let bytes = out.results.iter().flat_map(|r| r.finished.as_nanos().to_le_bytes());
        bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }

    #[test]
    fn calendar_run_matches_golden() {
        // A gnarly mix: staggered starts, lock convoys, zero-width steps,
        // long sleeps, oversubscription — every code path of the loop.
        // Pinned per core count: makespan, events and the FNV-1a of every
        // task's finish ns, each checked once against exact rational
        // arithmetic.
        let l1 = LockId(1);
        let l2 = LockId(2);
        let mut tasks: Vec<TaskSpec> = (0..120)
            .map(|i| {
                TaskSpec::new(format!("t{i}"))
                    .starting_at(SimTime::ZERO + ms(7 * (i % 13)))
                    .cpu(ms(3 + (i % 7)))
                    .acquire(l1)
                    .cpu(ms(1))
                    .release(l1)
                    .io(ms(10 + (i % 5) * 100))
                    .acquire(l2)
                    .release(l2)
                    .cpu(ms(5))
            })
            .collect();
        tasks.push(TaskSpec::new("zero").cpu(Duration::ZERO).io(Duration::ZERO));
        tasks.push(TaskSpec::new("late").starting_at(SimTime::ZERO + ms(5000)).cpu(ms(1)));
        const GOLDEN: [(u32, u64, u64, u64); 3] = [
            (1, 5_001_000_000, 603, 0xd2db5bf0fb5830f0),
            (4, 5_001_000_000, 603, 0xd6c2d967a10304e0),
            (20, 5_001_000_000, 603, 0x7f31ec334162bcec),
        ];
        for (cores, makespan, events, finishes) in GOLDEN {
            let out = Sim::new(cores).run(tasks.clone());
            let got = (out.makespan.as_nanos(), out.events, fnv1a_finishes(&out));
            assert_eq!(got, (makespan, events, finishes), "{cores} cores");
        }
    }

    #[test]
    fn events_counted() {
        // One admission, CPU completion, sleep wakeup, final completion.
        let out = Sim::new(1).run(vec![TaskSpec::new("t").cpu(ms(1)).io(ms(1)).cpu(ms(1))]);
        assert_eq!(out.events, 4);
    }
}
