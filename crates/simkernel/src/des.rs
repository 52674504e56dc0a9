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
//!   progress at rate `min(1, c/n)` — the standard fluid approximation of a
//!   fair scheduler, which is both deterministic and accurate at this scale;
//! * **FIFO locks**: a task that reaches [`Step::Acquire`] either takes the
//!   lock and continues or parks until the holder reaches
//!   [`Step::Release`];
//! * **I/O delays** that occupy no core (disk latency, RPC round-trips).
//!
//! Tasks are plain step lists, so every layer of the container stack can
//! append its contribution to a startup program without knowing about the
//! simulator.

use std::collections::{BTreeMap, VecDeque};

use crate::time::{Duration, SimTime};

/// Identifier of a task inside one simulation run (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// Identifier of a simulated lock (e.g. the containerd task-service mutex).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockId(pub u32);

/// Simulated disk bandwidth for cold reads (NVMe-class). Single source of
/// truth for every layer that models a cold file read.
pub const DISK_BYTES_PER_SEC: u64 = 500 << 20;

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

    /// Total CPU demand of the program (for reports).
    pub fn cpu_demand(&self) -> Duration {
        let mut total = Duration::ZERO;
        for s in &self.steps {
            if let Step::Cpu(d) = s {
                total += *d;
            }
        }
        total
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

impl TaskResult {
    pub fn elapsed(&self) -> Duration {
        self.finished - self.started
    }
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

    pub fn mean_elapsed(&self) -> Duration {
        if self.results.is_empty() {
            return Duration::ZERO;
        }
        let sum: u64 = self.results.iter().map(|r| r.elapsed().as_nanos()).sum();
        Duration(sum / self.results.len() as u64)
    }

    pub fn max_elapsed(&self) -> Duration {
        self.results.iter().map(|r| r.elapsed()).max().unwrap_or(Duration::ZERO)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// Waiting for `start_at`.
    Pending,
    /// Executing a CPU step (`remaining` tracks progress).
    Running,
    /// In an I/O step ending at the stored instant.
    Sleeping(SimTime),
    /// Parked on a lock's wait queue.
    Blocked(LockId),
    Finished,
}

struct TaskRt {
    spec: TaskSpec,
    state: TaskState,
    /// Index of the current step.
    pc: usize,
    /// Remaining nanoseconds of the current CPU step (fluid model).
    remaining: f64,
    finished_at: SimTime,
}

/// A calendar (bucketed) event queue over `(time, payload)` pairs.
///
/// Timed events — pending admissions and sleep ends — land in a bucket
/// keyed by `time / width mod buckets`; within a bucket entries stay
/// sorted ascending by `(time, payload)`. Locating the minimum walks one
/// calendar revolution starting at the bucket of the last popped time and
/// returns the first bucket whose head falls inside its own "year" window;
/// a sparse far-future tail falls back to a direct scan of bucket heads.
/// The bucket count doubles (and the width is re-derived from the live
/// time range) when the load factor grows, so push/pop stay O(1) amortized
/// where the old `BTreeMap` event map paid O(log n) — the difference that
/// keeps 10k-pod cluster sweeps tractable.
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
    buckets: Vec<Vec<(u64, P)>>,
    /// Bucket width in nanoseconds.
    width: u64,
    len: usize,
    /// Lower bound on every queued time (advanced on pop).
    cursor: u64,
}

const INITIAL_BUCKETS: usize = 16;
/// 50ms initial width — the dispatch-gap scale of the startup programs.
const INITIAL_WIDTH: u64 = 50_000_000;

impl<P: Copy + Ord> Default for CalendarQueue<P> {
    fn default() -> Self {
        CalendarQueue {
            buckets: vec![Vec::new(); INITIAL_BUCKETS],
            width: INITIAL_WIDTH,
            len: 0,
            cursor: 0,
        }
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
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn push(&mut self, t: SimTime, payload: P) {
        let t = t.as_nanos();
        debug_assert!(t >= self.cursor, "event scheduled in the past");
        let b = ((t / self.width) as usize) % self.buckets.len();
        let bucket = &mut self.buckets[b];
        let at = bucket.partition_point(|&e| e < (t, payload));
        bucket.insert(at, (t, payload));
        self.len += 1;
        if self.len > self.buckets.len() * 4 {
            self.resize(self.buckets.len() * 2);
        }
    }

    /// Earliest `(time, payload)` without removing it; ties broken by payload.
    pub fn peek(&self) -> Option<(SimTime, P)> {
        let b = self.locate()?;
        let (t, payload) = self.buckets[b][0];
        Some((SimTime(t), payload))
    }

    /// Remove and return the earliest `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, P)> {
        let b = self.locate()?;
        Some(self.take_head(b))
    }

    /// Remove and return the earliest entry if its time is strictly before
    /// `limit` — one minimum search for a caller that merges the queue with
    /// another time-ordered source whose next item is due at `limit`.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, P)> {
        let b = self.locate()?;
        if self.buckets[b][0].0 >= limit.as_nanos() {
            return None;
        }
        Some(self.take_head(b))
    }

    fn take_head(&mut self, b: usize) -> (SimTime, P) {
        let (t, payload) = self.buckets[b].remove(0);
        self.cursor = t;
        self.len -= 1;
        (SimTime(t), payload)
    }

    /// Bucket whose head is the global minimum.
    fn locate(&self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let nb = self.buckets.len() as u64;
        let start_epoch = self.cursor / self.width;
        // One revolution: the first bucket whose head lies in the epoch
        // window being visited holds the global minimum (windows are
        // disjoint and visited in increasing time order).
        for k in 0..nb {
            let epoch = start_epoch + k;
            let b = (epoch % nb) as usize;
            if let Some(&(t, _)) = self.buckets[b].first() {
                if t / self.width == epoch {
                    return Some(b);
                }
            }
        }
        // Every event is more than one revolution ahead: direct scan.
        let mut best: Option<((u64, P), usize)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            if let Some(&head) = bucket.first() {
                if best.is_none_or(|(min, _)| head < min) {
                    best = Some((head, b));
                }
            }
        }
        best.map(|(_, b)| b)
    }

    fn resize(&mut self, nbuckets: usize) {
        let mut entries: Vec<(u64, P)> = self.buckets.iter().flatten().copied().collect();
        let min = entries.iter().map(|e| e.0).min().unwrap_or(0);
        let max = entries.iter().map(|e| e.0).max().unwrap_or(0);
        // Spread the live range across one rotation.
        self.width = ((max - min) / nbuckets as u64 + 1).max(1);
        self.buckets = vec![Vec::new(); nbuckets];
        entries.sort_unstable();
        for &(t, payload) in &entries {
            let b = ((t / self.width) as usize) % nbuckets;
            self.buckets[b].push((t, payload)); // ascending input keeps buckets sorted
        }
    }
}

/// Extra bookkeeping the calendar-queue run threads through `advance`:
/// sleep ends become queue entries and tasks that land on a CPU step are
/// recorded so the runnable set can be maintained incrementally.
struct EventHooks<'a> {
    sleepers: &'a mut CalendarQueue,
    made_runnable: &'a mut Vec<usize>,
}

const EPS: f64 = 1e-6;

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
    /// Event-driven over a [`CalendarQueue`]: the runnable set is
    /// maintained incrementally and timed events (admissions, sleep ends)
    /// come off the calendar, so cost scales with events rather than with
    /// `events × tasks` as the scan loop did. Every float operation, its
    /// order, and the task-id processing order match
    /// [`Sim::run_reference`] exactly — outcomes are byte-identical (the
    /// equivalence tests pin this).
    ///
    /// Panics if a task releases a lock it does not hold (a programming
    /// error in a startup program) or if the task set deadlocks.
    pub fn run(&self, tasks: Vec<TaskSpec>) -> SimOutcome {
        let mut rts: Vec<TaskRt> = tasks
            .into_iter()
            .map(|spec| TaskRt {
                state: TaskState::Pending,
                pc: 0,
                remaining: 0.0,
                finished_at: SimTime::ZERO,
                spec,
            })
            .collect();
        let n = rts.len();
        let mut lock_holder: BTreeMap<LockId, usize> = BTreeMap::new();
        let mut lock_waiters: BTreeMap<LockId, VecDeque<usize>> = BTreeMap::new();
        let mut now = SimTime::ZERO;
        let mut finished = 0usize;
        let mut events = 0u64;

        let mut queue = CalendarQueue::new();
        let mut made_runnable: Vec<usize> = Vec::new();
        // Runnable task ids, ascending — mirrors the reference loop's
        // `(0..n).filter(state == Running)` scan.
        let mut runnable: Vec<usize> = Vec::new();

        // Every task enters the calendar at its start time; draining the
        // due entries admits the t=0 tasks in id order, exactly like the
        // reference pre-loop.
        for (i, rt) in rts.iter().enumerate() {
            queue.push(rt.spec.start_at, i);
        }
        while queue.peek().is_some_and(|(t, _)| t <= now) {
            let (_, i) = queue.pop().expect("peeked entry");
            events += 1;
            let mut hooks = EventHooks { sleepers: &mut queue, made_runnable: &mut made_runnable };
            admit(
                &mut rts,
                i,
                now,
                &mut lock_holder,
                &mut lock_waiters,
                &mut finished,
                Some(&mut hooks),
            );
        }
        merge_runnable(&mut runnable, &mut made_runnable, &rts);

        let mut candidates: Vec<usize> = Vec::new();
        while finished < n {
            debug_assert!(
                runnable.iter().copied().eq((0..n).filter(|&i| rts[i].state == TaskState::Running)),
                "runnable set diverged from task states"
            );
            // Current processor-sharing rate.
            let rate = if runnable.is_empty() {
                0.0
            } else {
                (self.cores as f64 / runnable.len() as f64).min(1.0)
            };

            // Candidate next events: CPU completions and the calendar head.
            let mut next: Option<SimTime> = None;
            let mut consider = |t: SimTime| {
                next = Some(match next {
                    Some(cur) if cur <= t => cur,
                    _ => t,
                });
            };
            for &i in &runnable {
                let dt = (rts[i].remaining / rate).ceil().max(0.0);
                consider(now + Duration(dt as u64));
            }
            if let Some((t, _)) = queue.peek() {
                consider(t.max(now));
            }
            let next = next.unwrap_or_else(|| {
                panic!("deadlock: {} of {} tasks blocked on locks", n - finished, n)
            });
            let dt = (next - now).as_nanos() as f64;

            // Progress CPU work.
            for &i in &runnable {
                rts[i].remaining -= dt * rate;
            }
            now = next;

            // Due events: finished CPU steps and due calendar entries
            // (sleep ends, pending admissions), in task-id order.
            candidates.clear();
            candidates.extend(
                runnable
                    .iter()
                    .copied()
                    .filter(|&i| rts[i].state == TaskState::Running && rts[i].remaining <= EPS),
            );
            while queue.peek().is_some_and(|(t, _)| t <= now) {
                let (_, i) = queue.pop().expect("peeked entry");
                candidates.push(i);
            }
            candidates.sort_unstable();
            candidates.dedup();
            for idx in 0..candidates.len() {
                let i = candidates[idx];
                let mut hooks =
                    EventHooks { sleepers: &mut queue, made_runnable: &mut made_runnable };
                match rts[i].state {
                    TaskState::Running if rts[i].remaining <= EPS => {
                        events += 1;
                        rts[i].pc += 1;
                        advance(
                            &mut rts,
                            i,
                            now,
                            &mut lock_holder,
                            &mut lock_waiters,
                            &mut finished,
                            Some(&mut hooks),
                        );
                    }
                    TaskState::Sleeping(end) if end <= now => {
                        events += 1;
                        rts[i].pc += 1;
                        advance(
                            &mut rts,
                            i,
                            now,
                            &mut lock_holder,
                            &mut lock_waiters,
                            &mut finished,
                            Some(&mut hooks),
                        );
                    }
                    TaskState::Pending if rts[i].spec.start_at <= now => {
                        events += 1;
                        admit(
                            &mut rts,
                            i,
                            now,
                            &mut lock_holder,
                            &mut lock_waiters,
                            &mut finished,
                            Some(&mut hooks),
                        );
                    }
                    _ => {}
                }
            }

            runnable.retain(|&i| rts[i].state == TaskState::Running);
            merge_runnable(&mut runnable, &mut made_runnable, &rts);
        }

        finish(rts, events)
    }

    /// The pre-calendar-queue run loop: a full O(tasks) scan per event.
    ///
    /// Kept verbatim as the equivalence oracle for [`Sim::run`] — the
    /// old-vs-new tests pin byte-identical outcomes on every figure path —
    /// and as the baseline side of the DES events/sec trajectory numbers.
    pub fn run_reference(&self, tasks: Vec<TaskSpec>) -> SimOutcome {
        let mut rts: Vec<TaskRt> = tasks
            .into_iter()
            .map(|spec| TaskRt {
                state: TaskState::Pending,
                pc: 0,
                remaining: 0.0,
                finished_at: SimTime::ZERO,
                spec,
            })
            .collect();
        let n = rts.len();
        let mut lock_holder: BTreeMap<LockId, usize> = BTreeMap::new();
        let mut lock_waiters: BTreeMap<LockId, VecDeque<usize>> = BTreeMap::new();
        let mut now = SimTime::ZERO;
        let mut finished = 0usize;
        let mut events = 0u64;

        // Admit tasks that start at t=0 and process their zero-width steps.
        for i in 0..n {
            if rts[i].spec.start_at <= now {
                events += 1;
                admit(&mut rts, i, now, &mut lock_holder, &mut lock_waiters, &mut finished, None);
            }
        }

        while finished < n {
            // Current processor-sharing rate.
            let runnable: Vec<usize> =
                (0..n).filter(|&i| rts[i].state == TaskState::Running).collect();
            let rate = if runnable.is_empty() {
                0.0
            } else {
                (self.cores as f64 / runnable.len() as f64).min(1.0)
            };

            // Candidate next events.
            let mut next: Option<SimTime> = None;
            let mut consider = |t: SimTime| {
                next = Some(match next {
                    Some(cur) if cur <= t => cur,
                    _ => t,
                });
            };
            for &i in &runnable {
                let dt = (rts[i].remaining / rate).ceil().max(0.0);
                consider(now + Duration(dt as u64));
            }
            for rt in rts.iter() {
                match rt.state {
                    TaskState::Sleeping(end) => consider(end),
                    TaskState::Pending => consider(rt.spec.start_at.max(now)),
                    _ => {}
                }
            }
            let next = next.unwrap_or_else(|| {
                panic!("deadlock: {} of {} tasks blocked on locks", n - finished, n)
            });
            let dt = (next - now).as_nanos() as f64;

            // Progress CPU work.
            for &i in &runnable {
                rts[i].remaining -= dt * rate;
            }
            now = next;

            // Completions and wakeups, in task-id order for determinism.
            for i in 0..n {
                match rts[i].state {
                    TaskState::Running if rts[i].remaining <= EPS => {
                        events += 1;
                        rts[i].pc += 1;
                        advance(
                            &mut rts,
                            i,
                            now,
                            &mut lock_holder,
                            &mut lock_waiters,
                            &mut finished,
                            None,
                        );
                    }
                    TaskState::Sleeping(end) if end <= now => {
                        events += 1;
                        rts[i].pc += 1;
                        advance(
                            &mut rts,
                            i,
                            now,
                            &mut lock_holder,
                            &mut lock_waiters,
                            &mut finished,
                            None,
                        );
                    }
                    TaskState::Pending if rts[i].spec.start_at <= now => {
                        events += 1;
                        admit(
                            &mut rts,
                            i,
                            now,
                            &mut lock_holder,
                            &mut lock_waiters,
                            &mut finished,
                            None,
                        );
                    }
                    _ => {}
                }
            }
        }

        finish(rts, events)
    }
}

fn finish(rts: Vec<TaskRt>, events: u64) -> SimOutcome {
    let makespan = rts.iter().map(|r| r.finished_at).max().unwrap_or(SimTime::ZERO);
    let results = rts
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

/// Fold tasks that just landed on a CPU step into the sorted runnable set.
fn merge_runnable(runnable: &mut Vec<usize>, made_runnable: &mut Vec<usize>, rts: &[TaskRt]) {
    if made_runnable.is_empty() {
        return;
    }
    runnable.extend(made_runnable.drain(..).filter(|&i| rts[i].state == TaskState::Running));
    runnable.sort_unstable();
    runnable.dedup();
}

#[allow(clippy::too_many_arguments)]
fn admit(
    rts: &mut [TaskRt],
    i: usize,
    now: SimTime,
    holders: &mut BTreeMap<LockId, usize>,
    waiters: &mut BTreeMap<LockId, VecDeque<usize>>,
    finished: &mut usize,
    hooks: Option<&mut EventHooks<'_>>,
) {
    rts[i].state = TaskState::Running; // placeholder; advance() fixes it up
    advance(rts, i, now, holders, waiters, finished, hooks);
}

/// Drive task `i` through consecutive zero-width steps until it lands in a
/// waiting state (CPU work, sleep, block) or finishes. Lock releases hand
/// the lock to the first waiter; woken tasks are advanced iteratively via a
/// worklist (a recursive hand-off would overflow the stack when hundreds of
/// waiters hold zero-width critical sections).
#[allow(clippy::too_many_arguments)]
fn advance(
    rts: &mut [TaskRt],
    start: usize,
    now: SimTime,
    holders: &mut BTreeMap<LockId, usize>,
    waiters: &mut BTreeMap<LockId, VecDeque<usize>>,
    finished: &mut usize,
    mut hooks: Option<&mut EventHooks<'_>>,
) {
    let mut worklist: VecDeque<usize> = VecDeque::from([start]);
    while let Some(i) = worklist.pop_front() {
        loop {
            let pc = rts[i].pc;
            let step = rts[i].spec.steps.get(pc).cloned();
            match step {
                None => {
                    rts[i].state = TaskState::Finished;
                    rts[i].finished_at = now;
                    *finished += 1;
                    break;
                }
                Some(Step::Cpu(d)) => {
                    if d == Duration::ZERO {
                        rts[i].pc += 1;
                        continue;
                    }
                    rts[i].state = TaskState::Running;
                    rts[i].remaining = d.as_nanos() as f64;
                    if let Some(h) = hooks.as_deref_mut() {
                        h.made_runnable.push(i);
                    }
                    break;
                }
                Some(Step::Io(d)) => {
                    if d == Duration::ZERO {
                        rts[i].pc += 1;
                        continue;
                    }
                    rts[i].state = TaskState::Sleeping(now + d);
                    if let Some(h) = hooks.as_deref_mut() {
                        h.sleepers.push(now + d, i);
                    }
                    break;
                }
                Some(Step::Acquire(l)) => {
                    if let Some(&holder) = holders.get(&l) {
                        debug_assert_ne!(holder, i, "recursive lock acquisition");
                        waiters.entry(l).or_default().push_back(i);
                        rts[i].state = TaskState::Blocked(l);
                        break;
                    }
                    holders.insert(l, i);
                    rts[i].pc += 1;
                }
                Some(Step::Release(l)) => {
                    let holder = holders.remove(&l);
                    assert_eq!(holder, Some(i), "task released a lock it does not hold");
                    rts[i].pc += 1;
                    if let Some(q) = waiters.get_mut(&l) {
                        if let Some(next) = q.pop_front() {
                            holders.insert(l, next);
                            rts[next].pc += 1;
                            // Wake the waiter; it continues past its Acquire.
                            worklist.push_back(next);
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
    fn mean_and_max_elapsed() {
        let tasks = vec![TaskSpec::new("a").cpu(ms(10)), TaskSpec::new("b").cpu(ms(30))];
        let out = Sim::new(2).run(tasks);
        assert_eq!(out.max_elapsed(), ms(30));
        assert_eq!(out.mean_elapsed(), ms(20));
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

    #[test]
    fn calendar_queue_survives_resize_and_sparse_tails() {
        // Enough entries to force multiple resizes, spread over a wide,
        // ragged time range including far-future outliers; interleave pops
        // so the cursor advances through rotations.
        let mut q = CalendarQueue::new();
        let mut expect: Vec<(u64, usize)> = Vec::new();
        let mut t = 1u64;
        for i in 0..500usize {
            t = t.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let time = (t >> 20) % 10_000_000_000; // 0..10s, pseudo-random
            expect.push((time, i));
            q.push(SimTime(time), i);
        }
        // A handful of events a full simulated year ahead (sparse tail).
        for i in 500..505usize {
            let time = 3_000_000_000_000 + (i as u64) * 7;
            expect.push((time, i));
            q.push(SimTime(time), i);
        }
        expect.sort_unstable();
        let mut got = Vec::new();
        while let Some((t, id)) = q.pop() {
            got.push((t.as_nanos(), id));
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn calendar_run_matches_reference() {
        // A gnarly mix: staggered starts, lock convoys, zero-width steps,
        // long sleeps, oversubscription — every code path of the loop.
        let build = || {
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
            tasks
        };
        for cores in [1, 4, 20] {
            let new = Sim::new(cores).run(build());
            let old = Sim::new(cores).run_reference(build());
            assert_eq!(new.makespan, old.makespan, "cores {cores}");
            assert_eq!(new.events, old.events, "cores {cores}");
            assert_eq!(new.results.len(), old.results.len());
            for (a, b) in new.results.iter().zip(old.results.iter()) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.name, b.name);
                assert_eq!(a.started, b.started);
                assert_eq!(a.finished, b.finished, "task {} cores {cores}", a.name);
            }
        }
    }

    #[test]
    fn events_counted() {
        // One admission, CPU completion, sleep wakeup, final completion.
        let out = Sim::new(1).run(vec![TaskSpec::new("t").cpu(ms(1)).io(ms(1)).cpu(ms(1))]);
        assert_eq!(out.events, 4);
        assert_eq!(
            out.events,
            Sim::new(1)
                .run_reference(vec![TaskSpec::new("t").cpu(ms(1)).io(ms(1)).cpu(ms(1)),])
                .events
        );
    }
}
