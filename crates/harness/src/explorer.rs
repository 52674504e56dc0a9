//! Deterministic fault-schedule explorer: seeded sequences of node
//! crashes, restarts, partitions and heals against a controller-managed
//! deployment, with convergence invariants checked after every schedule.
//!
//! A schedule is a pure function of its seed ([`generate_schedule`]): the
//! generator tracks per-node state so every event is semantically valid
//! (only live nodes crash or partition, only crashed nodes restart, only
//! partitioned nodes heal) and at least one node stays reachable — the
//! cluster is wounded, never beheaded. The settled cluster a schedule
//! starts from depends on the plan, never on the seed, so [`explore`] boots
//! it once and each schedule runs on its own [`Cluster::fork`] of it — a
//! deep copy on a clock of its own, sharing nothing mutable with the
//! template or a sibling. Schedules are therefore as independent as on
//! fresh clusters, and [`explore`] can fan them across `HARNESS_THREADS`
//! workers with results merged in seed order: the rendered report is
//! byte-identical for any worker count, and to running each schedule
//! through a standalone [`run_schedule`].
//!
//! After the last event the harness drives lease ticks, controller and
//! kubelet reconciliation until the deployment reconverges, then checks
//! the invariants ([`check_invariants`]): exactly `replicas` replicas
//! Running and ready, none bound to a crashed or NotReady node, every pod
//! on a Ready node known to the controller (no stale duplicates surviving
//! a fence), and — once convergence is reached — the ready count never
//! regressing — and every node's kernel, crashed ones included, still
//! passing `Kernel::check_accounting`. A violated schedule is shrunk to its
//! minimal failing prefix ([`shrink`]), reproducible from the printed seed.

use k8s_sim::{
    Cluster, DeploymentController, DeploymentSpec, NodeCondition, Policy, LEASE_GRACE,
    LEASE_RENEW_INTERVAL, POD_EVICTION_GRACE,
};
use simkernel::rng::SplitMix64;
use simkernel::{Duration, KernelError, KernelResult};

use crate::cluster_scale::{new_scaled_cluster, warmup_nodes};
use crate::config::{Config, Workload};
use crate::parallel::run_grid;

/// One step of a fault schedule, naming its target node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Instant power loss (ungraceful: no SIGTERM, no teardown).
    Crash(usize),
    /// Reboot a crashed node as a fresh machine (re-provisioned before
    /// the scheduler may use it again).
    Restart(usize),
    /// Cut the node off from the control plane; pods keep running.
    Partition(usize),
    /// Reconnect a partitioned node (fenced at its next renewal).
    Heal(usize),
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultEvent::Crash(n) => write!(f, "crash({n})"),
            FaultEvent::Restart(n) => write!(f, "restart({n})"),
            FaultEvent::Partition(n) => write!(f, "partition({n})"),
            FaultEvent::Heal(n) => write!(f, "heal({n})"),
        }
    }
}

/// Render a schedule as a single space-separated line.
pub fn schedule_line(events: &[FaultEvent]) -> String {
    events.iter().map(|e| e.to_string()).collect::<Vec<_>>().join(" ")
}

/// Parameters of one exploration run.
#[derive(Debug, Clone, Copy)]
pub struct ExplorePlan {
    /// Base seed; schedule `i` derives its own stream from it.
    pub seed: u64,
    /// Number of seeded schedules to enumerate.
    pub schedules: usize,
    /// Cluster size each schedule runs against.
    pub nodes: usize,
    /// Replicas of the controller-managed deployment under test.
    pub replicas: usize,
    /// Maximum events per schedule (each schedule draws 1..=max).
    pub max_events: usize,
    /// Runtime configuration deployed.
    pub config: Config,
}

impl ExplorePlan {
    /// The CI smoke plan: a handful of schedules, small cluster.
    pub fn smoke(seed: u64) -> ExplorePlan {
        ExplorePlan {
            seed,
            schedules: 12,
            nodes: 3,
            replicas: 6,
            max_events: 4,
            config: Config::WamrCrun,
        }
    }

    /// The acceptance-sized run: 200+ seeded schedules.
    pub fn standard(seed: u64) -> ExplorePlan {
        ExplorePlan { seed, schedules: 200, ..ExplorePlan::smoke(seed) }
    }

    /// The seed of schedule `i` — reproducible in isolation.
    pub fn schedule_seed(&self, i: usize) -> u64 {
        self.seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// Invariant knobs. The production set is the default; the test-only
/// sabotage knob exists so the explorer's detection and shrinking
/// machinery is itself testable against a guaranteed violation.
#[derive(Debug, Clone, Copy, Default)]
pub struct InvariantKnobs {
    /// Deliberately broken invariant for tests: declare *any* NotReady
    /// node observed during the run a violation. Lease-based detection
    /// makes NotReady unavoidable after a crash or partition, so any
    /// schedule containing one fails — and shrinks to a one-event prefix.
    pub forbid_not_ready: bool,
}

/// What running one schedule produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleOutcome {
    pub seed: u64,
    pub events: Vec<FaultEvent>,
    /// Invariant violations, empty when the schedule passed.
    pub violations: Vec<String>,
    /// Reconcile rounds driven after the last event.
    pub rounds: usize,
}

/// Node state the schedule generator tracks (mirrors the cluster's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimState {
    Up,
    Crashed,
    Partitioned,
}

/// Generate the seeded schedule: a pure function of `(seed, nodes,
/// max_events)`. Every event is valid when applied in order, and at
/// least one node stays Up throughout.
pub fn generate_schedule(seed: u64, nodes: usize, max_events: usize) -> Vec<FaultEvent> {
    let mut rng = SplitMix64::new(seed);
    let mut state = vec![SimState::Up; nodes];
    let count = 1 + rng.index(max_events.max(1));
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        let ups = state.iter().filter(|&&s| s == SimState::Up).count();
        // Legal moves in deterministic (node, kind) order.
        let mut moves: Vec<FaultEvent> = Vec::new();
        for (n, &s) in state.iter().enumerate() {
            match s {
                SimState::Up => {
                    if ups > 1 {
                        moves.push(FaultEvent::Crash(n));
                        moves.push(FaultEvent::Partition(n));
                    }
                }
                SimState::Crashed => moves.push(FaultEvent::Restart(n)),
                SimState::Partitioned => {
                    // A partitioned machine can reconnect — or lose power.
                    moves.push(FaultEvent::Heal(n));
                    moves.push(FaultEvent::Crash(n));
                }
            }
        }
        if moves.is_empty() {
            break;
        }
        let ev = *rng.choose(&moves);
        state[match ev {
            FaultEvent::Crash(n)
            | FaultEvent::Restart(n)
            | FaultEvent::Partition(n)
            | FaultEvent::Heal(n) => n,
        }] = match ev {
            FaultEvent::Crash(_) => SimState::Crashed,
            FaultEvent::Restart(_) | FaultEvent::Heal(_) => SimState::Up,
            FaultEvent::Partition(_) => SimState::Partitioned,
        };
        events.push(ev);
    }
    events
}

/// Drive reconcile rounds — controller pass, kubelet/lease pass, clock
/// step — until `done` holds or `max_rounds` have run; returns the rounds
/// run. `done` is asked before each round, so it sees what the previous
/// round's step brought and a time it records includes that step.
fn drive(
    cluster: &mut Cluster,
    ctrl: &mut DeploymentController,
    max_rounds: usize,
    mut done: impl FnMut(&Cluster, &DeploymentController) -> bool,
) -> KernelResult<usize> {
    let steps = cluster.run_rounds(max_rounds, |c| {
        if done(c, ctrl) {
            return Ok(true);
        }
        c.reconcile_controller(ctrl)?;
        c.reconcile();
        Ok(false)
    })?;
    Ok(steps.unwrap_or(max_rounds))
}

/// Has the deployment reconverged: full replica count, all ready, all on
/// Ready nodes?
fn reconverged(cluster: &Cluster, ctrl: &DeploymentController) -> bool {
    ctrl.replicas.len() == ctrl.spec.replicas
        && cluster.ready_replicas(ctrl) == ctrl.spec.replicas
        && ctrl.replicas.iter().all(|r| cluster.node(r.node).ready())
}

/// Check the post-convergence invariants, appending violations.
pub fn check_invariants(
    cluster: &Cluster,
    ctrl: &DeploymentController,
    violations: &mut Vec<String>,
) {
    let replicas = ctrl.spec.replicas;
    if ctrl.replicas.len() != replicas {
        violations.push(format!("{} of {replicas} replicas exist", ctrl.replicas.len()));
    }
    let ready = cluster.ready_replicas(ctrl);
    if ready != replicas {
        violations.push(format!("{ready} of {replicas} replicas ready"));
    }
    for r in &ctrl.replicas {
        let node = cluster.node(r.node);
        if !node.ready() {
            violations.push(format!("replica {} bound to unreachable node {}", r.pod, r.node));
        }
    }
    // No stale duplicates: every pod a Ready node runs must be a current
    // controller replica (fencing removed the re-homed ones), and the
    // node's sandbox count must match its supervised pods (no leaked
    // sandboxes on survivors).
    for node in &cluster.nodes {
        if !node.ready() {
            continue;
        }
        let mut managed = node.kubelet.managed_names();
        managed.sort_unstable();
        let mut expected: Vec<String> =
            ctrl.replicas.iter().filter(|r| r.node == node.index).map(|r| r.pod.clone()).collect();
        expected.sort_unstable();
        if managed != expected {
            violations.push(format!(
                "node {} runs {:?}, controller expects {:?}",
                node.index, managed, expected
            ));
        }
        for name in &managed {
            if node.containerd.sandbox(name).is_none() {
                violations.push(format!("pod {name} on node {} has no live sandbox", node.index));
            }
        }
    }
}

/// Rounds an initial deployment gets to become ready.
const SETTLE_ROUNDS: usize = 100;

/// A warmed cluster under a controller-managed deployment `svc`, driven
/// until every replica is ready: where every fault scenario starts.
pub(crate) struct Settled {
    pub cluster: Cluster,
    pub ctrl: DeploymentController,
    /// Did the deployment become ready within [`SETTLE_ROUNDS`]?
    pub settled: bool,
}

impl Settled {
    /// Boot → warm → settle: a function of its arguments alone, so one
    /// boot serves every schedule of a plan.
    pub(crate) fn boot(
        config: Config,
        nodes: usize,
        replicas: usize,
        workload: &Workload,
    ) -> KernelResult<Settled> {
        let mut cluster = new_scaled_cluster(config, nodes, Policy::Spread, workload)?;
        warmup_nodes(&mut cluster, config)?;
        let spec = DeploymentSpec::new("svc", config.image_ref(), config.class_name(), replicas);
        let mut ctrl = DeploymentController::new(spec);
        let settled = cluster.settle_controller(&mut ctrl, SETTLE_ROUNDS)?;
        Ok(Settled { cluster, ctrl, settled })
    }

    fn for_plan(plan: &ExplorePlan, workload: &Workload) -> KernelResult<Settled> {
        Settled::boot(plan.config, plan.nodes, plan.replicas, workload)
    }

    fn fork(&self) -> Settled {
        Settled { cluster: self.cluster.fork(), ctrl: self.ctrl.clone(), settled: self.settled }
    }

    /// `Err` for a caller that measures what a ready deployment does next.
    fn ready(self) -> KernelResult<Settled> {
        if self.settled {
            Ok(self)
        } else {
            Err(did_not_settle(&self.cluster, &self.ctrl, SETTLE_ROUNDS))
        }
    }
}

/// The error of a scenario whose deployment never became ready.
pub(crate) fn did_not_settle(
    cluster: &Cluster,
    ctrl: &DeploymentController,
    rounds: usize,
) -> KernelError {
    KernelError::InvalidState(format!(
        "deployment {} did not settle in {rounds} rounds: {}/{} ready",
        ctrl.spec.name,
        cluster.ready_replicas(ctrl),
        ctrl.spec.replicas
    ))
}

/// Run one schedule on a fresh cluster and check every invariant.
pub fn run_schedule(
    plan: &ExplorePlan,
    seed: u64,
    events: &[FaultEvent],
    workload: &Workload,
    knobs: InvariantKnobs,
) -> KernelResult<ScheduleOutcome> {
    run_settled(Settled::for_plan(plan, workload)?, plan, seed, events, workload, knobs)
}

/// Run one schedule on a settled cluster of its own — freshly booted, or a
/// fork of one — and check every invariant.
fn run_settled(
    start: Settled,
    plan: &ExplorePlan,
    seed: u64,
    events: &[FaultEvent],
    workload: &Workload,
    knobs: InvariantKnobs,
) -> KernelResult<ScheduleOutcome> {
    let mut violations = Vec::new();
    let Settled { mut cluster, mut ctrl, settled } = start;
    if !settled {
        violations.push("initial deployment did not settle".to_string());
        return Ok(ScheduleOutcome { seed, events: events.to_vec(), violations, rounds: 0 });
    }

    // Node conditions change only in a reconcile pass, so looking at them
    // before each round (and once after the last) misses none.
    let mut not_ready_seen = false;
    let mut observe = |cluster: &Cluster| {
        not_ready_seen |= cluster.nodes.iter().any(|n| n.condition == NodeCondition::NotReady);
    };

    for ev in events {
        match *ev {
            FaultEvent::Crash(n) => cluster.crash_node(n)?,
            FaultEvent::Restart(n) => {
                cluster.restart_node(n)?;
                // A replacement machine is provisioned from scratch.
                plan.config.install_on(&mut cluster, n, workload)?;
            }
            FaultEvent::Partition(n) => cluster.partition_node(n)?,
            FaultEvent::Heal(n) => cluster.heal_node(n)?,
        }
        // A bounded settle between events, so later events land at
        // varying detection stages (before expiry, mid-grace, after
        // eviction) — that interleaving is the point of the explorer.
        drive(&mut cluster, &mut ctrl, 10, |c, _| {
            observe(c);
            false
        })?;
    }

    // Post-schedule convergence. First wait out the detection horizon —
    // an un-healed partition looks Ready (hence "converged") until its
    // lease expires, so judging the invariants any earlier would pass
    // schedules whose damage simply hasn't been detected yet. Then drive
    // until the deployment reconverges.
    let horizon = cluster.now()
        + LEASE_GRACE
        + POD_EVICTION_GRACE
        + LEASE_RENEW_INTERVAL
        + LEASE_RENEW_INTERVAL;
    let max_rounds = 500;
    let mut rounds = drive(&mut cluster, &mut ctrl, max_rounds, |c, _| {
        observe(c);
        c.now() >= horizon
    })?;
    rounds += drive(&mut cluster, &mut ctrl, max_rounds - rounds, |c, ctrl| {
        observe(c);
        reconverged(c, ctrl)
    })?;
    if !reconverged(&cluster, &ctrl) {
        violations.push(format!("did not reconverge within {max_rounds} rounds"));
    }
    check_invariants(&cluster, &ctrl, &mut violations);

    // Monotonicity after convergence: with no further faults the ready
    // count must never regress.
    if violations.is_empty() {
        drive(&mut cluster, &mut ctrl, 10, |c, ctrl| {
            observe(c);
            c.ready_replicas(ctrl) < ctrl.spec.replicas
        })?;
        let ready = cluster.ready_replicas(&ctrl);
        if ready < ctrl.spec.replicas {
            violations.push(format!("ready count regressed to {ready} after convergence"));
        }
    }
    observe(&cluster);

    if knobs.forbid_not_ready && not_ready_seen {
        violations.push("a node was observed NotReady (forbidden by knob)".to_string());
    }
    violations.extend(accounting_drift(&cluster));
    Ok(ScheduleOutcome { seed, events: events.to_vec(), violations, rounds })
}

/// Conservation where the faults are: every node's kernel, a crashed one
/// included (the check only reads), must still agree with its running
/// totals. One violation per node that does not.
fn accounting_drift(cluster: &Cluster) -> impl Iterator<Item = String> + '_ {
    cluster.nodes.iter().filter_map(|node| {
        let drift = node.kernel.check_accounting().err()?;
        Some(format!("accounting, node {}: {drift}", node.index))
    })
}

/// Shrink a failing schedule to its minimal failing *prefix*: the
/// shortest `events[..k]` that still violates an invariant, found by
/// replaying prefixes of growing length, each on its own fork of one
/// settled cluster. Returns the prefix outcome (`None` if no prefix fails —
/// the violation needed the full schedule).
pub fn shrink(
    plan: &ExplorePlan,
    seed: u64,
    events: &[FaultEvent],
    workload: &Workload,
    knobs: InvariantKnobs,
) -> KernelResult<Option<ScheduleOutcome>> {
    shrink_on(&Settled::for_plan(plan, workload)?, plan, seed, events, workload, knobs)
}

/// [`shrink`] on forks of `template`, the plan's settled cluster.
fn shrink_on(
    template: &Settled,
    plan: &ExplorePlan,
    seed: u64,
    events: &[FaultEvent],
    workload: &Workload,
    knobs: InvariantKnobs,
) -> KernelResult<Option<ScheduleOutcome>> {
    for k in 1..=events.len() {
        let outcome = run_settled(template.fork(), plan, seed, &events[..k], workload, knobs)?;
        if !outcome.violations.is_empty() {
            return Ok(Some(outcome));
        }
    }
    Ok(None)
}

/// A violated schedule with its shrunk counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    pub index: usize,
    pub full: ScheduleOutcome,
    /// Minimal failing prefix (falls back to the full schedule when no
    /// strict prefix fails).
    pub shrunk: ScheduleOutcome,
}

/// Everything one exploration produced.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    pub plan: ExplorePlan,
    pub outcomes: Vec<ScheduleOutcome>,
    pub counterexamples: Vec<Counterexample>,
}

impl ExploreReport {
    /// Render the full run as text — one line per schedule plus one block
    /// per counterexample. Byte-identical across worker counts and
    /// repeated runs (the determinism tests compare exactly this).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, o) in self.outcomes.iter().enumerate() {
            let verdict = if o.violations.is_empty() { "ok" } else { "VIOLATED" };
            out.push_str(&format!(
                "schedule {i:3} seed {:#018x} [{}] rounds {:3} {verdict}\n",
                o.seed,
                schedule_line(&o.events),
                o.rounds,
            ));
        }
        for c in &self.counterexamples {
            out.push_str(&format!(
                "counterexample: schedule {} seed {:#018x}\n  full   [{}]\n  shrunk [{}]\n",
                c.index,
                c.full.seed,
                schedule_line(&c.full.events),
                schedule_line(&c.shrunk.events),
            ));
            for v in &c.shrunk.violations {
                out.push_str(&format!("  violation: {v}\n"));
            }
        }
        out.push_str(&format!(
            "{} schedules, {} violated\n",
            self.outcomes.len(),
            self.counterexamples.len()
        ));
        out
    }
}

/// Boot the plan's settled cluster once, then enumerate and run every
/// schedule, fanned across `HARNESS_THREADS` work-stealing workers (each
/// schedule runs on its own fork of the borrowed template), results merged
/// in seed order; then shrink every violated schedule serially, in order.
/// Byte-identical output for any worker count.
pub fn explore(
    plan: &ExplorePlan,
    workload: &Workload,
    knobs: InvariantKnobs,
) -> KernelResult<ExploreReport> {
    let template = Settled::for_plan(plan, workload)?;
    let indices: Vec<usize> = (0..plan.schedules).collect();
    let outcomes = run_grid(&indices, |&i| {
        let seed = plan.schedule_seed(i);
        let events = generate_schedule(seed, plan.nodes, plan.max_events);
        run_settled(template.fork(), plan, seed, &events, workload, knobs)
    })?;
    // Every fork has run and gone; the template they copied must be as
    // consistent as when it settled.
    if let Some(drift) = accounting_drift(&template.cluster).next() {
        return Err(KernelError::InvalidState(format!("explorer template: {drift}")));
    }

    let mut counterexamples = Vec::new();
    for (index, full) in outcomes.iter().enumerate() {
        if full.violations.is_empty() {
            continue;
        }
        let shrunk = shrink_on(&template, plan, full.seed, &full.events, workload, knobs)?
            .unwrap_or_else(|| full.clone());
        counterexamples.push(Counterexample { index, full: full.clone(), shrunk });
    }
    Ok(ExploreReport { plan: *plan, outcomes, counterexamples })
}

// ---- recovery-time scenarios -------------------------------------------

/// Recovery timings of the crash and partition scenarios for one config.
#[derive(Debug, Clone, Copy)]
pub struct RecoverySample {
    pub config: Config,
    /// Crash → node marked NotReady (lease-expiry detection latency).
    pub detect: Duration,
    /// Crash → deployment fully re-converged on the survivors.
    pub crash_reconverge: Duration,
    /// Partition heal → stale node fenced and deployment re-converged.
    pub heal_reconverge: Duration,
}

/// Measure detection latency and time-to-reconverge for one runtime
/// configuration: a 3-node cluster under a 6-replica deployment, one
/// crash scenario and one partition/heal scenario, each on its own copy of
/// the settled cluster. A deployment that never became ready is an error,
/// not a timing.
pub fn recovery_times(config: Config, workload: &Workload) -> KernelResult<RecoverySample> {
    let (nodes, replicas, victim) = (3, 6, 1);
    let max_rounds = 600;
    let template = Settled::boot(config, nodes, replicas, workload)?.ready()?;

    // Crash: time from power loss to NotReady, and to reconvergence.
    let Settled { mut cluster, mut ctrl, .. } = template.fork();
    let t0 = cluster.now();
    cluster.crash_node(victim)?;
    let mut detect = None;
    drive(&mut cluster, &mut ctrl, max_rounds, |c, ctrl| {
        if detect.is_none() && c.node(victim).condition == NodeCondition::NotReady {
            detect = Some(c.now().since(t0));
        }
        detect.is_some() && reconverged(c, ctrl)
    })?;
    let detect = detect.unwrap_or(Duration(u64::MAX));
    let crash_reconverge = cluster.now().since(t0);

    // Partition + heal: time from heal to fenced reconvergence.
    let Settled { mut cluster, mut ctrl, .. } = template;
    cluster.partition_node(victim)?;
    // Drive until the partition has been detected and the victim's
    // replicas re-homed (an undetected partition still looks converged).
    drive(&mut cluster, &mut ctrl, max_rounds, |c, ctrl| {
        ctrl.replicas.iter().all(|r| r.node != victim) && reconverged(c, ctrl)
    })?;
    cluster.heal_node(victim)?;
    let t1 = cluster.now();
    drive(&mut cluster, &mut ctrl, max_rounds, |c, ctrl| {
        c.node(victim).ready() && c.node(victim).kubelet.pod_count() == 0 && reconverged(c, ctrl)
    })?;
    let heal_reconverge = cluster.now().since(t1);

    Ok(RecoverySample { config, detect, crash_reconverge, heal_reconverge })
}

/// The crash/partition recovery-time table over the seven Wasm configs
/// (EXPERIMENTS.md): detection latency and time-to-reconverge.
pub fn recovery_table(workload: &Workload) -> KernelResult<crate::report::Table> {
    let mut table = crate::report::Table::new(
        "Node-failure recovery: lease detection and reconvergence times".to_string(),
        vec![
            "detect [s]".to_string(),
            "crash reconverge [s]".to_string(),
            "heal reconverge [s]".to_string(),
        ],
        "",
    );
    for config in crate::chaos::WASM_CONFIGS {
        let s = recovery_times(config, workload)?;
        table.row(
            config.label(),
            vec![
                s.detect.as_secs_f64(),
                s.crash_reconverge.as_secs_f64(),
                s.heal_reconverge.as_secs_f64(),
            ],
            config.is_ours(),
        );
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_pure_functions_of_the_seed() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let a = generate_schedule(seed, 3, 6);
            let b = generate_schedule(seed, 3, 6);
            assert_eq!(a, b);
            assert!(!a.is_empty() && a.len() <= 6);
        }
        assert_ne!(generate_schedule(1, 3, 6), generate_schedule(2, 3, 6));
    }

    #[test]
    fn generated_schedules_are_semantically_valid() {
        for seed in 0..200u64 {
            let events = generate_schedule(seed, 3, 6);
            let mut state = vec![SimState::Up; 3];
            for ev in events {
                let ups = state.iter().filter(|&&s| s == SimState::Up).count();
                match ev {
                    FaultEvent::Crash(n) => {
                        assert_ne!(state[n], SimState::Crashed, "seed {seed}");
                        if state[n] == SimState::Up {
                            assert!(ups > 1, "seed {seed}: beheaded the cluster");
                        }
                        state[n] = SimState::Crashed;
                    }
                    FaultEvent::Restart(n) => {
                        assert_eq!(state[n], SimState::Crashed, "seed {seed}");
                        state[n] = SimState::Up;
                    }
                    FaultEvent::Partition(n) => {
                        assert_eq!(state[n], SimState::Up, "seed {seed}");
                        assert!(ups > 1, "seed {seed}: partitioned the last node");
                        state[n] = SimState::Partitioned;
                    }
                    FaultEvent::Heal(n) => {
                        assert_eq!(state[n], SimState::Partitioned, "seed {seed}");
                        state[n] = SimState::Up;
                    }
                }
                assert!(state.iter().any(|&s| s == SimState::Up), "seed {seed}: no node left Up");
            }
        }
    }

    #[test]
    fn single_crash_schedule_reconverges() {
        let plan = ExplorePlan::smoke(7);
        let w = Workload::light();
        let o =
            run_schedule(&plan, 7, &[FaultEvent::Crash(1)], &w, InvariantKnobs::default()).unwrap();
        assert!(o.violations.is_empty(), "{:?}", o.violations);
    }

    #[test]
    fn broken_invariant_is_caught_and_shrinks_to_first_fault() {
        let plan = ExplorePlan::smoke(7);
        let w = Workload::light();
        let knobs = InvariantKnobs { forbid_not_ready: true };
        let events = [FaultEvent::Crash(1), FaultEvent::Restart(1), FaultEvent::Partition(2)];
        let o = run_schedule(&plan, 7, &events, &w, knobs).unwrap();
        assert!(!o.violations.is_empty());
        let shrunk = shrink(&plan, 7, &events, &w, knobs).unwrap().expect("a failing prefix");
        assert_eq!(shrunk.events, vec![FaultEvent::Crash(1)], "minimal prefix is the first fault");
    }

    #[test]
    fn a_schedule_on_a_fork_is_the_schedule_on_a_booted_cluster_for_every_config() {
        let w = Workload::light();
        let knobs = InvariantKnobs::default();
        let script = [
            FaultEvent::Crash(1),
            FaultEvent::Partition(2),
            FaultEvent::Restart(1),
            FaultEvent::Heal(2),
        ];
        for config in Config::ALL {
            let plan = ExplorePlan { config, ..ExplorePlan::smoke(7) };
            let booted = run_schedule(&plan, 7, &script, &w, knobs).unwrap();
            assert!(booted.violations.is_empty(), "{config:?}: {:?}", booted.violations);
            let template = Settled::for_plan(&plan, &w).unwrap();
            let on = |start: Settled| run_settled(start, &plan, 7, &script, &w, knobs).unwrap();
            // Two forks of one template, and a fork of a fork.
            assert_eq!(on(template.fork()), booted, "{config:?}");
            assert_eq!(on(template.fork()), booted, "{config:?}: a sibling ran first");
            assert_eq!(on(template.fork().fork()), booted, "{config:?}");
            assert_eq!(accounting_drift(&template.cluster).next(), None);
        }
    }

    #[test]
    fn a_deployment_that_never_settles_is_a_violation_per_schedule_and_an_error_to_time() {
        // One node admits 500 pods: replica 501 is never placed.
        let plan = ExplorePlan { nodes: 1, replicas: 501, schedules: 2, ..ExplorePlan::smoke(1) };
        let w = Workload::light();
        let knobs = InvariantKnobs::default();
        let report = explore(&plan, &w, knobs).unwrap();
        assert_eq!(report.outcomes.len(), 2);
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.violations, ["initial deployment did not settle"]);
            assert_eq!(o.rounds, 0);
            let alone = run_schedule(&plan, o.seed, &o.events, &w, knobs).unwrap();
            assert_eq!(*o, alone, "schedule {i}");
            assert_eq!(report.counterexamples[i].shrunk, alone);
        }
        // What the recovery table measures starts from a ready deployment.
        let err = Settled::for_plan(&plan, &w).and_then(Settled::ready).err().expect("not ready");
        let expected = "deployment svc did not settle in 100 rounds: 500/501 ready";
        assert!(matches!(&err, KernelError::InvalidState(m) if m == expected), "{err:?}");
    }
}
