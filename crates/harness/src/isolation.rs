//! Isolation harness: adversarial multi-tenant chaos scenarios.
//!
//! Each scenario co-schedules one hostile tenant (an [`Attacker`]) with N
//! well-behaved victim microservices on a deliberately small node (2
//! simulated cores, so CPU competition is visible in the DES replay) and
//! compares the victims against an attacker-free baseline run of the same
//! configuration on an identically shaped cluster. The delta — victim
//! startup makespan, mean working set, restarts — folds into a single
//! **isolation score** per (configuration, attacker) cell: 100 means the
//! victims were byte-for-byte unperturbed, lower means the attacker leaked
//! through.
//!
//! The attacker runs under the full containment stack this repo models:
//! `memory.max` (balloon/fork-bomb → OOM kill → CrashLoopBackOff),
//! `cpu.max` quota (spinner → throttle events, and a shrunken epoch
//! watchdog deadline that wedges the spin), a per-window cold-read budget
//! plus the kernel's io-pressure model (thrasher → io throttle events →
//! sustained-pressure eviction). The containment contract
//! ([`AttackerFate::contained`]) is that at least one of those mechanisms
//! visibly fired; the victim contract is that every victim ends Running
//! *and* ready in both runs.
//!
//! Determinism: a run with `attacker == None` arms neither the io model
//! nor any cgroup limit, so it exercises exactly the pre-existing deploy
//! path — the zero-attacker run is byte-identical to a plain supervised
//! deploy, and the whole sweep is byte-identical across worker counts
//! (merged in grid order, like the figure driver).

use k8s_sim::{Cluster, DeployOpts, NodeConfig, PodPhase, ProbeSpec, RestartPolicy};
use oci_spec_lite::ImageBuilder;
use simkernel::{Duration, IoModel, KernelConfig, KernelResult, Sim, TaskSpec};

use crate::config::{Config, Workload};
use crate::parallel::run_grid;
use crate::report::Table;
use crate::runner::warmup;

/// Simulated cores of the isolation node. Deliberately narrow (vs the
/// paper's 20) so a CPU-hungry attacker contends with victims in the DES.
pub const ISOLATION_CORES: u32 = 2;

/// Running pods whose cgroup shows at least this many cpu+io throttle
/// events are evicted for sustained pressure (the kubelet's distinct
/// `pressure_evicted` reason). Sized so the thrasher (whose churn pass
/// count guarantees more) trips it while victims (zero throttles — they
/// carry no limits) never can.
pub const PRESSURE_EVICTION_THRESHOLD: u64 = 4;

/// `resources.limits.memory` on the attacker pod: the balloon and the
/// fork-bomb are sized to ratchet well past it.
pub const ATTACKER_MEMORY_LIMIT: u64 = 64 << 20;

/// `cpu.max` on the attacker pod: 25% of each 100 ms period. Also shrinks
/// the attacker's epoch-watchdog deadline to a quarter, which is what
/// wedges the spinner on the interpreter-tier configs.
pub const ATTACKER_CPU_MAX: (u64, u64) = (25_000_000, 100_000_000);

/// Per-window cold-read byte budget on the attacker pod; the thrasher
/// streams a multiple of this per pass.
pub const ATTACKER_IO_BUDGET: u64 = 2 << 20;

/// Spinner burn: sized to overrun the quota-scaled watchdog deadline on
/// the 370 ns/instr interpreter profile (wedge → liveness kill) while
/// staying under the unscaled deadline — without `cpu.max` the same spin
/// would pass quietly.
pub const SPINNER_ITERATIONS: i32 = 8_000;

/// Balloon growth: 64 steps of 64 pages (4 MiB) each — a 256 MiB ratchet
/// against the 64 MiB `memory.max`.
pub const BALLOON_STEP_PAGES: i32 = 64;
pub const BALLOON_STEPS: i32 = 64;

/// Thrasher stream: an 8-pass cold scan over a 4 MiB payload — 16× the
/// per-window io budget, and (with the io model armed) a displacement
/// source against the victims' warm shared artifacts.
pub const THRASH_STREAM_BYTES: usize = 4 << 20;
pub const THRASH_PASSES: u32 = 8;

/// Fork-bomb churn: instantiations per start. Each leaks one per-instance
/// overhead charge (≥ 80 KiB on the leanest profile), so the churn total
/// exceeds `memory.max` on every engine profile.
pub const FORK_BOMB_CHURN: u32 = 1024;

/// The io-pressure model armed for attack runs (never for baselines):
/// cold reads queue behind a global backlog and displace other tenants'
/// unmapped warm cache.
pub fn isolation_io_model() -> IoModel {
    IoModel { queue_ns_per_mib: 2_000_000, drain_bytes_per_sec: 64 << 20, displace: true }
}

/// Attacker liveness probe: 2 s period × 2 failures derives a 4 s watchdog
/// budget (quota-scaled to 1 s of guest CPU under [`ATTACKER_CPU_MAX`]).
pub fn attacker_liveness_probe() -> ProbeSpec {
    ProbeSpec { period: Duration::from_secs(2), failure_threshold: 2, ..ProbeSpec::default() }
}

/// Victim readiness probe: the "victims stay ready" contract is stated in
/// terms of this probe passing.
pub fn victim_readiness_probe() -> ProbeSpec {
    ProbeSpec { period: Duration::from_secs(1), ..ProbeSpec::default() }
}

/// The four hostile tenants of the adversarial taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Attacker {
    /// Burns guest CPU just under the unthrottled epoch deadline.
    Spinner,
    /// Ratchets linear memory toward (and past) `memory.max`.
    Balloon,
    /// Streams cold reads over its payload, thrashing the page cache.
    Thrasher,
    /// Instantiation churn: spawns instances and leaks their overhead.
    ForkBomb,
}

impl Attacker {
    pub const ALL: [Attacker; 4] =
        [Attacker::Spinner, Attacker::Balloon, Attacker::Thrasher, Attacker::ForkBomb];

    pub fn label(self) -> &'static str {
        match self {
            Attacker::Spinner => "cpu-spinner",
            Attacker::Balloon => "memory-balloon",
            Attacker::Thrasher => "cache-thrasher",
            Attacker::ForkBomb => "fork-bomb",
        }
    }

    pub fn image_ref(self) -> &'static str {
        match self {
            Attacker::Spinner => "registry.local/attack-spinner:v1",
            Attacker::Balloon => "registry.local/attack-balloon:v1",
            Attacker::Thrasher => "registry.local/attack-thrasher:v1",
            Attacker::ForkBomb => "registry.local/attack-forkbomb:v1",
        }
    }

    pub fn image(self) -> ImageBuilder {
        match self {
            Attacker::Spinner => workloads::spinner_image(self.image_ref(), SPINNER_ITERATIONS),
            Attacker::Balloon => {
                workloads::balloon_image(self.image_ref(), BALLOON_STEP_PAGES, BALLOON_STEPS)
            }
            Attacker::Thrasher => {
                workloads::thrasher_image(self.image_ref(), THRASH_STREAM_BYTES, THRASH_PASSES)
            }
            Attacker::ForkBomb => workloads::fork_bomb_image(self.image_ref(), FORK_BOMB_CHURN),
        }
    }
}

/// Parameters of one isolation scenario.
#[derive(Debug, Clone, Copy)]
pub struct IsolationPlan {
    /// Victim pods co-scheduled with the (at most one) attacker.
    pub victims: usize,
    /// Reconcile-round bound. Unlike the fault sweep, convergence is *not*
    /// guaranteed here — an OOM-looping attacker crash-loops forever by
    /// design — so the loop is round-bounded and containment is judged
    /// from accumulated observations, not a settled end state.
    pub max_rounds: usize,
}

impl IsolationPlan {
    /// The CI smoke plan.
    pub fn smoke() -> IsolationPlan {
        IsolationPlan { victims: 4, max_rounds: 16 }
    }
}

/// What the victims experienced, measured identically in baseline and
/// attack runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimObservation {
    /// DES makespan to the last victim's ready state, with every managed
    /// pod's program (attacker included, when present) competing for the
    /// node's cores.
    pub makespan: Duration,
    /// Mean metrics-server working set over the victim pods.
    pub mean_working_set: u64,
    /// Successful restarts summed over victims (zero when isolated).
    pub restarts: u64,
    pub running: usize,
    pub ready: usize,
    pub victims: usize,
}

/// Everything the containment stack recorded about the attacker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AttackerFate {
    /// Final supervised phase (`Running` only if nothing ever fired).
    pub phase: Option<PodPhase>,
    pub restarts: u64,
    pub failures: u32,
    /// Running maxima of the attacker cgroup's throttle counters, sampled
    /// every reconcile round (the cgroup is recreated across restarts, so
    /// end-state reads alone would miss earlier lifetimes).
    pub cpu_throttle_events: u64,
    pub cpu_throttled_ns: u64,
    pub io_throttle_events: u64,
    pub io_queued_ns: u64,
    /// OOM kills and liveness-threshold kills attributed to the attacker,
    /// accumulated from reconcile reports.
    pub oom_kills: u64,
    pub probe_kills: u64,
    /// Evicted under the sustained cpu/io pressure rule.
    pub pressure_evicted: bool,
}

impl AttackerFate {
    /// The containment contract: at least one enforcement mechanism
    /// visibly fired — the attacker was throttled, OOM-killed, probe-killed
    /// (wedged watchdog), backed off, or evicted for sustained pressure.
    pub fn contained(&self) -> bool {
        self.cpu_throttle_events > 0
            || self.io_throttle_events > 0
            || self.oom_kills > 0
            || self.probe_kills > 0
            || self.restarts > 0
            || self.failures > 0
            || self.pressure_evicted
            || matches!(
                self.phase,
                Some(
                    PodPhase::CrashLoopBackOff
                        | PodPhase::OomKilled
                        | PodPhase::Evicted
                        | PodPhase::Failed
                )
            )
    }
}

/// One scenario run: a configuration, an optional attacker, and what the
/// victims (and the attacker) experienced.
#[derive(Debug, Clone, PartialEq)]
pub struct IsolationRun {
    pub config: Config,
    pub attacker: Option<Attacker>,
    pub victims: VictimObservation,
    /// Present iff an attacker was deployed.
    pub fate: Option<AttackerFate>,
    /// Reconcile rounds driven.
    pub rounds: usize,
}

/// One (configuration, attacker) cell of the score table.
#[derive(Debug, Clone)]
pub struct IsolationScore {
    pub config: Config,
    pub attacker: Attacker,
    pub baseline: VictimObservation,
    pub attacked: IsolationRun,
    /// baseline/attacked victim makespan, clamped to ≤ 1.
    pub latency_ratio: f64,
    /// baseline/attacked victim working set, clamped to ≤ 1.
    pub memory_ratio: f64,
    /// `100 × min(latency_ratio, memory_ratio) / (1 + victim_restarts)`.
    pub score: f64,
}

/// Boot the isolation node: narrow core count, the paper-extension pod
/// limit, and the sustained-pressure eviction rule armed.
pub fn isolation_cluster(config: Config, workload: &Workload) -> KernelResult<Cluster> {
    let kcfg = KernelConfig { cores: ISOLATION_CORES, ..KernelConfig::default() };
    let ncfg = NodeConfig {
        pressure_eviction_threshold: Some(PRESSURE_EVICTION_THRESHOLD),
        ..NodeConfig::paper_extension()
    };
    let mut cluster = Cluster::bootstrap_with(kcfg, ncfg)?;
    config.install(&mut cluster, workload)?;
    warmup(&mut cluster, config)?;
    Ok(cluster)
}

fn sample_attacker(cluster: &Cluster, fate: &mut AttackerFate) {
    if let Some(sandbox) = cluster.containerd().sandbox("attacker-0") {
        if let Ok(st) = cluster.kernel().cgroup_stats(sandbox.pod_cgroup) {
            fate.cpu_throttle_events = fate.cpu_throttle_events.max(st.nr_cpu_throttled);
            fate.cpu_throttled_ns = fate.cpu_throttled_ns.max(st.cpu_throttled_ns);
            fate.io_throttle_events = fate.io_throttle_events.max(st.io_throttle_events);
            fate.io_queued_ns = fate.io_queued_ns.max(st.io_queued_ns);
        }
    }
}

/// Measure the victims on a driven cluster: DES makespan over every
/// managed pod's program (so an overlapping attacker competes for cores),
/// mean working set, restart and readiness counts.
pub fn observe_victims(cluster: &Cluster, prefix: &str) -> KernelResult<VictimObservation> {
    let tasks: Vec<TaskSpec> = cluster
        .kubelet()
        .managed()
        .map(|e| TaskSpec {
            name: e.spec.name.clone(),
            start_at: e.dispatched_at,
            steps: e.trace.steps(),
        })
        .collect();
    let outcome = Sim::new(cluster.kernel().cores()).run(tasks);
    let makespan = outcome
        .results
        .iter()
        .filter(|r| r.name.starts_with(prefix))
        .map(|r| r.finished)
        .max()
        .map_or(Duration::ZERO, |t| Duration::from_nanos(t.as_nanos()));

    let mut ws_total = 0u64;
    let mut ws_pods = 0u64;
    let mut obs = VictimObservation {
        makespan,
        mean_working_set: 0,
        restarts: 0,
        running: 0,
        ready: 0,
        victims: 0,
    };
    for e in cluster.kubelet().managed().filter(|e| e.spec.name.starts_with(prefix)) {
        obs.victims += 1;
        obs.restarts += e.restarts as u64;
        if e.phase == PodPhase::Running {
            obs.running += 1;
            if e.ready {
                obs.ready += 1;
            }
        }
        if let Some(sandbox) = cluster.containerd().sandbox(&e.spec.name) {
            ws_total += cluster.kernel().cgroup_working_set(sandbox.pod_cgroup)?;
            ws_pods += 1;
        }
    }
    obs.mean_working_set = ws_total / ws_pods.max(1);
    Ok(obs)
}

/// Run one scenario: co-schedule `attacker` (if any) with the plan's
/// victims under `config` and drive the kubelet for up to
/// `plan.max_rounds` reconcile rounds.
///
/// With `attacker == None` this is the baseline: no io model, no cgroup
/// limits, no pressure in sight — exactly the pre-existing supervised
/// deploy path, which the determinism tests pin byte-identical.
pub fn run_tenants(
    config: Config,
    workload: &Workload,
    plan: &IsolationPlan,
    attacker: Option<Attacker>,
) -> KernelResult<IsolationRun> {
    let mut cluster = isolation_cluster(config, workload)?;

    let mut fate = None;
    if let Some(a) = attacker {
        // Arm the io-pressure model first: the attacker's own deploy (and
        // every later restart) must already feel — and exert — pressure.
        cluster.kernel().set_io_model(Some(isolation_io_model()));
        cluster.pull_image(a.image())?;
        cluster.deploy_with(
            "attacker",
            a.image_ref(),
            config.class_name(),
            1,
            DeployOpts {
                restart: RestartPolicy::Always,
                memory_limit: Some(ATTACKER_MEMORY_LIMIT),
                cpu_max: Some(ATTACKER_CPU_MAX),
                io_read_budget: Some(ATTACKER_IO_BUDGET),
                liveness_probe: Some(attacker_liveness_probe()),
                termination_grace: Some(Duration::from_secs(2)),
                ..Default::default()
            },
        )?;
        fate = Some(AttackerFate::default());
    }

    cluster.deploy_with(
        "victim",
        config.image_ref(),
        config.class_name(),
        plan.victims,
        DeployOpts {
            restart: RestartPolicy::Always,
            readiness_probe: Some(victim_readiness_probe()),
            ..Default::default()
        },
    )?;

    let mut rounds = 0;
    loop {
        // Sample before reconciling: eviction tears the sandbox (and its
        // cgroup counters) down in the same pass that decides it.
        if let Some(f) = fate.as_mut() {
            sample_attacker(&cluster, f);
        }
        if cluster.kubelet().settled() || rounds >= plan.max_rounds {
            break;
        }
        cluster.step();
        let report = cluster.reconcile();
        if let Some(f) = fate.as_mut() {
            let hits = |names: &[String]| {
                names.iter().filter(|n| n.starts_with("attacker")).count() as u64
            };
            f.oom_kills += hits(&report.oom_killed);
            f.probe_kills += hits(&report.probe_killed);
        }
        rounds += 1;
    }

    if let Some(f) = fate.as_mut() {
        if let Some(e) = cluster.kubelet().managed_pod("attacker-0") {
            f.phase = Some(e.phase);
            f.restarts = e.restarts as u64;
            f.failures = e.failures;
            f.pressure_evicted = e.pressure_evicted;
        }
    }

    let victims = observe_victims(&cluster, "victim")?;
    Ok(IsolationRun { config, attacker, victims, fate, rounds })
}

/// Fold a baseline and an attack run of the same configuration into one
/// score cell.
pub fn score_runs(baseline: &IsolationRun, attacked: IsolationRun) -> IsolationScore {
    let b = &baseline.victims;
    let a = &attacked.victims;
    let latency_ratio =
        (b.makespan.as_nanos().max(1) as f64 / a.makespan.as_nanos().max(1) as f64).min(1.0);
    let memory_ratio =
        (b.mean_working_set.max(1) as f64 / a.mean_working_set.max(1) as f64).min(1.0);
    let score = 100.0 * latency_ratio.min(memory_ratio) / (1.0 + a.restarts as f64);
    IsolationScore {
        config: attacked.config,
        attacker: attacked.attacker.expect("score cells carry an attacker"),
        baseline: baseline.victims,
        attacked,
        latency_ratio,
        memory_ratio,
        score,
    }
}

/// Check one score cell against the isolation contracts: victims Running
/// and ready in both runs, the attacker visibly contained, and a sane
/// score.
pub fn check_isolation(s: &IsolationScore, plan: &IsolationPlan) -> Result<(), String> {
    let label = format!("{} vs {}", s.config.label(), s.attacker.label());
    let b = &s.baseline;
    if b.running != plan.victims || b.ready != plan.victims {
        return Err(format!(
            "{label}: baseline victims {}/{} running, {}/{} ready",
            b.running, plan.victims, b.ready, plan.victims
        ));
    }
    let a = &s.attacked.victims;
    if a.running != plan.victims || a.ready != plan.victims {
        return Err(format!(
            "{label}: attacked victims {}/{} running, {}/{} ready",
            a.running, plan.victims, a.ready, plan.victims
        ));
    }
    let fate = s.attacked.fate.as_ref().ok_or_else(|| format!("{label}: no attacker fate"))?;
    if !fate.contained() {
        return Err(format!("{label}: attacker escaped containment: {fate:?}"));
    }
    if !(s.score.is_finite() && s.score > 0.0 && s.score <= 100.0) {
        return Err(format!("{label}: score {} out of (0, 100]", s.score));
    }
    Ok(())
}

/// Run the full (configs × attackers) isolation grid — per configuration,
/// one attacker-free baseline plus one run per attacker — and assemble the
/// score table (rows: configurations; columns: attackers).
///
/// Cells fan out over [`run_grid`]'s workers exactly like the figure
/// driver: every cell boots its own cluster, and results merge in grid
/// order, so the table is byte-identical for every `HARNESS_THREADS`.
pub fn isolation_sweep(
    configs: &[Config],
    attackers: &[Attacker],
    workload: &Workload,
    plan: &IsolationPlan,
) -> KernelResult<(Table, Vec<IsolationScore>)> {
    let cells: Vec<(Config, Option<Attacker>)> = configs
        .iter()
        .flat_map(|&c| {
            std::iter::once((c, None)).chain(attackers.iter().map(move |&a| (c, Some(a))))
        })
        .collect();

    let runs = run_grid(&cells, |&(c, a)| run_tenants(c, workload, plan, a))?;

    let mut table = Table::new(
        format!(
            "Isolation scores (100 = victims unperturbed): {} victims vs 1 attacker",
            plan.victims
        ),
        attackers.iter().map(|a| a.label().to_string()).collect(),
        "score",
    );
    let stride = 1 + attackers.len();
    let mut scores = Vec::new();
    for (ci, &config) in configs.iter().enumerate() {
        let baseline = &runs[ci * stride];
        let mut row = Vec::new();
        for ai in 0..attackers.len() {
            let s = score_runs(baseline, runs[ci * stride + 1 + ai].clone());
            row.push(s.score);
            scores.push(s);
        }
        table.row(config.label(), row, config.is_ours());
    }
    Ok((table, scores))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_run_is_deterministic_and_clean() {
        let w = Workload::light();
        let plan = IsolationPlan::smoke();
        let a = run_tenants(Config::WamrCrun, &w, &plan, None).unwrap();
        let b = run_tenants(Config::WamrCrun, &w, &plan, None).unwrap();
        assert_eq!(a, b, "zero-attacker runs must be byte-identical");
        assert!(a.fate.is_none());
        assert_eq!(a.victims.running, plan.victims);
        assert_eq!(a.victims.ready, plan.victims);
        assert_eq!(a.victims.restarts, 0);
    }

    #[test]
    fn thrasher_is_pressure_evicted_and_victims_stay_ready() {
        let w = Workload::light();
        let plan = IsolationPlan::smoke();
        let base = run_tenants(Config::WamrCrun, &w, &plan, None).unwrap();
        let hit = run_tenants(Config::WamrCrun, &w, &plan, Some(Attacker::Thrasher)).unwrap();
        let fate = hit.fate.unwrap();
        assert!(fate.io_throttle_events > 0, "thrasher must blow its io budget: {fate:?}");
        assert!(fate.pressure_evicted, "thrasher must be pressure-evicted: {fate:?}");
        let s = score_runs(&base, hit);
        check_isolation(&s, &plan).unwrap();
    }

    #[test]
    fn spinner_is_contained_by_quota_and_watchdog() {
        let w = Workload::light();
        let plan = IsolationPlan::smoke();
        let base = run_tenants(Config::WamrCrun, &w, &plan, None).unwrap();
        let hit = run_tenants(Config::WamrCrun, &w, &plan, Some(Attacker::Spinner)).unwrap();
        let fate = hit.fate.unwrap();
        assert!(fate.contained(), "spinner escaped: {fate:?}");
        check_isolation(&score_runs(&base, hit), &plan).unwrap();
    }
}
