//! Chaos harness: seeded fault-injection sweeps across the Wasm configs.
//!
//! Each run boots a fresh warmed cluster, arms a deterministic
//! [`FaultPlan`], deploys pods under kubelet supervision
//! ([`RestartPolicy::Always`]), and drives the reconcile loop on the
//! simulated clock until the node settles: every pod Running again or
//! parked in a terminal phase. Because the plan's per-site budgets are
//! finite, retries eventually stop being sabotaged and convergence is
//! guaranteed — the sweep asserts it, plus leak-to-baseline after
//! teardown, for all seven Wasm configurations.
//!
//! The sweep also carries a **hung-guest** scenario ([`run_hung_guest`]):
//! a service that busy-waits on the WASI clock past a readiness threshold,
//! so every pod started before that instant wedges on its watchdog epoch
//! budget. The recovery contract there is the watchdog pipeline end to
//! end: liveness probes detect the wedge, the kubelet interrupts the guest
//! through the epoch clock, CrashLoopBackOff restarts it after the backoff
//! (by which point the simulated clock has passed the threshold), and the
//! node converges with every pod Running *and* ready.

use k8s_sim::{DeployOpts, PodPhase, ProbeSpec, RestartPolicy};
use simkernel::{Duration, FaultPlan, FaultSite, KernelResult};

use crate::config::{Config, Workload};
use crate::report::Table;
use crate::runner::{new_cluster, warmup};

/// The seven Wasm configurations the chaos sweep exercises (the paper's
/// Figs. 3–5 rows; the Python baselines share no engine fault sites).
pub const WASM_CONFIGS: [Config; 7] = [
    Config::WamrCrun,
    Config::CrunWasmtime,
    Config::CrunWasmer,
    Config::CrunWasmEdge,
    Config::ShimWasmtime,
    Config::ShimWasmer,
    Config::ShimWasmEdge,
];

/// Configurations the hung-guest scenario runs against. The contribution
/// config exercises the OCI handler watchdog path; its 370 ns/instr
/// interpreter profile also keeps the epoch deadline (budget ÷ cost) small
/// enough that the wedged spin stays cheap to simulate.
pub const HUNG_CONFIGS: [Config; 1] = [Config::WamrCrun];

/// Image reference of the hung-guest service.
pub const HUNG_IMAGE_REF: &str = "registry.local/hung-service:v1";

/// How far past deploy time the hung guest's ready threshold sits. Must
/// exceed the watchdog budget (so first starts wedge rather than ready)
/// and stay under the first CrashLoopBackOff delay (so restarts succeed).
pub const HUNG_READY_AFTER: Duration = Duration::from_secs(5);

/// Liveness probe for the hung-guest scenario: 2 s period × 2 failures
/// derives a 4 s watchdog epoch budget for the guest.
pub fn hung_liveness_probe() -> ProbeSpec {
    ProbeSpec { period: Duration::from_secs(2), failure_threshold: 2, ..ProbeSpec::default() }
}

/// Readiness probe for the hung-guest scenario.
pub fn hung_readiness_probe() -> ProbeSpec {
    ProbeSpec { period: Duration::from_secs(1), ..ProbeSpec::default() }
}

/// Parameters of one chaos run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosPlan {
    /// Base seed; each configuration derives its own stream from it.
    pub seed: u64,
    /// Injection rate in parts-per-million, armed at every fault site.
    pub rate_ppm: u32,
    /// Injection budget per site. A finite budget is what makes
    /// convergence provable: once spent, retries run fault-free.
    pub limit_per_site: u64,
    /// Pods deployed per configuration.
    pub pods: usize,
    /// Reconcile rounds before declaring non-convergence.
    pub max_rounds: usize,
}

impl ChaosPlan {
    /// The CI smoke plan: small, hot, and bounded — a few pods under an
    /// aggressive fault rate whose budget guarantees quick convergence.
    pub fn smoke(seed: u64) -> ChaosPlan {
        ChaosPlan { seed, rate_ppm: 200_000, limit_per_site: 6, pods: 4, max_rounds: 80 }
    }
}

/// Outcome of one configuration's chaos run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosOutcome {
    pub config: Config,
    /// Faults actually injected, per site, indexed like [`FaultSite::ALL`].
    pub injected: [u64; FaultSite::ALL.len()],
    /// Successful restarts summed over pods.
    pub restarts: u64,
    /// Final phase counts.
    pub running: usize,
    pub evicted: usize,
    pub failed: usize,
    /// Reconcile rounds driven.
    pub rounds: usize,
    /// Every pod reached a steady phase within the round budget.
    pub converged: bool,
    /// Anon-memory growth over the pre-deploy baseline after teardown
    /// (kubelet/daemon bookkeeping only when nothing leaks).
    pub leaked_bytes: u64,
    /// Process-count delta over the pre-deploy baseline after teardown.
    pub leaked_procs: i64,
}

impl ChaosOutcome {
    /// Faults injected across every site.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Faults injected at one site.
    pub fn injected_at(&self, site: FaultSite) -> u64 {
        let i = FaultSite::ALL.iter().position(|&s| s == site).expect("site in ALL");
        self.injected[i]
    }
}

/// Outcome of one configuration's hung-guest run: the fault-recovery
/// accounting of [`ChaosOutcome`] plus the watchdog-specific counters the
/// recovery contract is stated in.
#[derive(Debug, Clone, Copy)]
pub struct HungGuestOutcome {
    /// Convergence/leak accounting shared with the fault sweep.
    pub chaos: ChaosOutcome,
    /// Pods whose first start wedged on the watchdog epoch budget.
    pub wedged: usize,
    /// Liveness-threshold kills performed by the kubelet (epoch interrupt
    /// → teardown → CrashLoopBackOff).
    pub probe_kills: u64,
    /// Pods both Running and ready (readiness probe passing) at the end.
    pub ready: usize,
}

/// Arm every fault site of a fresh plan at the same rate and budget.
fn armed_plan(seed: u64, rate_ppm: u32, limit: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    for site in FaultSite::ALL {
        plan = plan.with_rate(site, rate_ppm).with_limit(site, limit);
    }
    plan
}

/// Per-site injection counts as an array indexed like [`FaultSite::ALL`].
fn injected_by_site(kernel: &simkernel::Kernel) -> [u64; FaultSite::ALL.len()] {
    FaultSite::ALL.map(|s| kernel.faults_injected(s))
}

/// Run one configuration through deploy-under-faults → reconcile-to-steady
/// → fault-free teardown, and report what happened.
pub fn run_config(
    config: Config,
    workload: &Workload,
    plan: &ChaosPlan,
) -> KernelResult<ChaosOutcome> {
    let mut cluster = new_cluster(&[config], workload)?;
    warmup(&mut cluster, config)?;
    let procs_before = cluster.kernel().live_procs();
    let used_before = cluster.free().used;

    // Per-config seed stream, so configs fail independently.
    let seed = plan.seed ^ (config as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    cluster.kernel().set_fault_plan(armed_plan(seed, plan.rate_ppm, plan.limit_per_site));

    cluster.deploy_with(
        "chaos",
        config.image_ref(),
        config.class_name(),
        plan.pods,
        DeployOpts { restart: RestartPolicy::Always, ..Default::default() },
    )?;

    let mut rounds = 0;
    while !cluster.kubelet().settled() && rounds < plan.max_rounds {
        cluster.step();
        cluster.reconcile();
        rounds += 1;
    }
    let converged = cluster.kubelet().settled();

    let injected = injected_by_site(cluster.kernel());
    let restarts = cluster.kubelet().managed().map(|e| e.restarts as u64).sum();
    let mut running = 0;
    let mut evicted = 0;
    let mut failed = 0;
    for e in cluster.kubelet().managed() {
        match e.phase {
            PodPhase::Running => running += 1,
            PodPhase::Evicted => evicted += 1,
            PodPhase::Failed => failed += 1,
            _ => {}
        }
    }

    // Disarm and tear down fault-free: recovery must leave nothing behind.
    cluster.kernel().set_fault_plan(FaultPlan::none());
    cluster.teardown_managed()?;
    let leaked_bytes = cluster.free().used.saturating_sub(used_before);
    let leaked_procs = cluster.kernel().live_procs() as i64 - procs_before as i64;

    Ok(ChaosOutcome {
        config,
        injected,
        restarts,
        running,
        evicted,
        failed,
        rounds,
        converged,
        leaked_bytes,
        leaked_procs,
    })
}

/// Run one configuration through the hung-guest watchdog scenario.
///
/// The guest busy-waits on the WASI clock until `HUNG_READY_AFTER` past
/// deploy time; because the DES clock is frozen while a guest executes,
/// every pod of the initial deployment wedges deterministically on its
/// watchdog epoch budget, and restarts dispatched after the
/// CrashLoopBackOff delay find the threshold already behind them and come
/// up ready. Only [`FaultSite::Probe`] is armed — flaky probe RPCs on top
/// of genuinely wedged guests — so the detect → interrupt → restart →
/// converge contract must hold through spurious probe verdicts too.
pub fn run_hung_guest(
    config: Config,
    workload: &Workload,
    plan: &ChaosPlan,
) -> KernelResult<HungGuestOutcome> {
    let mut cluster = new_cluster(&[config], workload)?;
    warmup(&mut cluster, config)?;
    let procs_before = cluster.kernel().live_procs();
    let used_before = cluster.free().used;

    let ready_after = cluster.kernel().now() + HUNG_READY_AFTER;
    cluster.pull_image(workloads::hung_service_image(HUNG_IMAGE_REF, ready_after.as_nanos()))?;

    let seed = plan.seed ^ (config as u64 + 1).wrapping_mul(0xA11C_E55E_D5EE_D001);
    cluster.kernel().set_fault_plan(
        FaultPlan::new(seed)
            .with_rate(FaultSite::Probe, plan.rate_ppm)
            .with_limit(FaultSite::Probe, plan.limit_per_site),
    );

    cluster.deploy_with(
        "hung",
        HUNG_IMAGE_REF,
        config.class_name(),
        plan.pods,
        DeployOpts {
            restart: RestartPolicy::Always,
            liveness_probe: Some(hung_liveness_probe()),
            readiness_probe: Some(hung_readiness_probe()),
            termination_grace: Some(Duration::from_secs(2)),
            ..Default::default()
        },
    )?;
    let wedged =
        (0..plan.pods).filter(|i| cluster.containerd().pod_wedged(&format!("hung-{i}"))).count();

    let mut probe_kills = 0u64;
    let mut rounds = 0;
    while !cluster.kubelet().settled() && rounds < plan.max_rounds {
        cluster.step();
        let report = cluster.reconcile();
        probe_kills += report.probe_killed.len() as u64;
        rounds += 1;
    }
    let converged = cluster.kubelet().settled();

    let injected = injected_by_site(cluster.kernel());
    let restarts = cluster.kubelet().managed().map(|e| e.restarts as u64).sum();
    let mut running = 0;
    let mut ready = 0;
    let mut evicted = 0;
    let mut failed = 0;
    for e in cluster.kubelet().managed() {
        match e.phase {
            PodPhase::Running => {
                running += 1;
                if e.ready {
                    ready += 1;
                }
            }
            PodPhase::Evicted => evicted += 1,
            PodPhase::Failed => failed += 1,
            _ => {}
        }
    }

    cluster.kernel().set_fault_plan(FaultPlan::none());
    cluster.teardown_managed()?;
    let leaked_bytes = cluster.free().used.saturating_sub(used_before);
    let leaked_procs = cluster.kernel().live_procs() as i64 - procs_before as i64;

    Ok(HungGuestOutcome {
        chaos: ChaosOutcome {
            config,
            injected,
            restarts,
            running,
            evicted,
            failed,
            rounds,
            converged,
            leaked_bytes,
            leaked_procs,
        },
        wedged,
        probe_kills,
        ready,
    })
}

/// Everything one sweep produced: the fault runs and the hung-guest runs.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    pub faults: Vec<ChaosOutcome>,
    pub hung: Vec<HungGuestOutcome>,
}

/// Sweep every Wasm configuration under the plan — the all-sites fault run
/// per configuration plus the hung-guest watchdog scenario — and assemble
/// the report table (one row per run, per-site injection columns).
pub fn sweep(workload: &Workload, plan: &ChaosPlan) -> KernelResult<(Table, SweepOutcome)> {
    let mut columns: Vec<String> = FaultSite::ALL.iter().map(|s| s.label().to_string()).collect();
    columns.extend(
        ["restarts", "running", "evicted", "failed", "rounds", "leaked KiB"]
            .iter()
            .map(|s| s.to_string()),
    );
    let mut table = Table::new(
        format!(
            "Chaos sweep: {} pods/config, {} ppm fault rate, budget {}/site, seed {:#x}",
            plan.pods, plan.rate_ppm, plan.limit_per_site, plan.seed
        ),
        columns,
        "count",
    );
    let row_values = |o: &ChaosOutcome| {
        let mut v: Vec<f64> = o.injected.iter().map(|&n| n as f64).collect();
        v.extend([
            o.restarts as f64,
            o.running as f64,
            o.evicted as f64,
            o.failed as f64,
            o.rounds as f64,
            (o.leaked_bytes >> 10) as f64,
        ]);
        v
    };
    let mut faults = Vec::new();
    for config in WASM_CONFIGS {
        let o = run_config(config, workload, plan)?;
        table.row(config.label(), row_values(&o), config.is_ours());
        faults.push(o);
    }
    let mut hung = Vec::new();
    for config in HUNG_CONFIGS {
        let o = run_hung_guest(config, workload, plan)?;
        table.row(&format!("hung-guest: {}", config.label()), row_values(&o.chaos), false);
        hung.push(o);
    }
    Ok((table, SweepOutcome { faults, hung }))
}

/// Check an outcome against the recovery contract: convergence, every pod
/// accounted for in a steady phase, no leaked processes, and residual
/// growth bounded by the kubelet/daemon per-sync bookkeeping.
pub fn check_outcome(o: &ChaosOutcome, plan: &ChaosPlan) -> Result<(), String> {
    if !o.converged {
        return Err(format!(
            "{}: did not settle within {} rounds",
            o.config.label(),
            plan.max_rounds
        ));
    }
    if o.running + o.evicted + o.failed != plan.pods {
        return Err(format!(
            "{}: {} running + {} evicted + {} failed != {} pods",
            o.config.label(),
            o.running,
            o.evicted,
            o.failed,
            plan.pods
        ));
    }
    if o.leaked_procs != 0 {
        return Err(format!("{}: leaked {} processes", o.config.label(), o.leaked_procs));
    }
    // Every successful sync (initial + restarts) grows kubelet/daemon
    // bookkeeping by a few hundred KiB that orderly teardown keeps; a real
    // leak (a stranded heap or mapping) is megabytes per pod.
    let syncs = plan.pods as u64 + o.restarts;
    let allowance = (1 << 20) * (syncs + 4);
    if o.leaked_bytes > allowance {
        return Err(format!(
            "{}: leaked {} bytes (> {} allowance for {} syncs)",
            o.config.label(),
            o.leaked_bytes,
            allowance,
            syncs
        ));
    }
    Ok(())
}

/// Check a hung-guest outcome against the watchdog recovery contract:
/// every pod of the initial deployment wedged, every wedged pod was killed
/// through the liveness-probe path and restarted, and the node converged
/// with every pod Running *and* ready — on top of the base chaos contract
/// (steady phases, no leaks).
pub fn check_hung_outcome(o: &HungGuestOutcome, plan: &ChaosPlan) -> Result<(), String> {
    check_outcome(&o.chaos, plan)?;
    let label = o.chaos.config.label();
    if o.wedged != plan.pods {
        return Err(format!("{label}: {} of {} pods wedged at deploy", o.wedged, plan.pods));
    }
    if (o.probe_kills as usize) < o.wedged {
        return Err(format!(
            "{label}: {} liveness kills for {} wedged pods",
            o.probe_kills, o.wedged
        ));
    }
    if (o.chaos.restarts as usize) < o.wedged {
        return Err(format!("{label}: {} restarts for {} wedged pods", o.chaos.restarts, o.wedged));
    }
    if o.ready != plan.pods || o.chaos.running != plan.pods {
        return Err(format!(
            "{label}: {} running / {} ready != {} pods",
            o.chaos.running, o.ready, plan.pods
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_converges_and_returns_to_baseline() {
        let w = Workload::light();
        let plan = ChaosPlan::smoke(7);
        let o = run_config(Config::WamrCrun, &w, &plan).unwrap();
        assert!(o.injected_total() > 0, "an aggressive smoke plan must inject something");
        check_outcome(&o, &plan).unwrap();
    }

    #[test]
    fn zero_rate_plan_injects_nothing_and_runs_clean() {
        let w = Workload::light();
        let plan = ChaosPlan { seed: 7, rate_ppm: 0, limit_per_site: 0, pods: 3, max_rounds: 5 };
        let o = run_config(Config::WamrCrun, &w, &plan).unwrap();
        assert_eq!(o.injected_total(), 0);
        assert_eq!(o.restarts, 0);
        assert_eq!(o.rounds, 0, "a clean deploy is already settled");
        check_outcome(&o, &plan).unwrap();
    }

    #[test]
    fn hung_guest_smoke_recovers_every_wedged_pod() {
        let w = Workload::light();
        let plan = ChaosPlan::smoke(13);
        let o = run_hung_guest(Config::WamrCrun, &w, &plan).unwrap();
        assert_eq!(o.wedged, plan.pods, "every first start must wedge");
        check_hung_outcome(&o, &plan).unwrap();
    }
}
