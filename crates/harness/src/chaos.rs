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
//! The sweep also carries a **hung-guest** scenario
//! ([`Scenario::hung_guest`]): a service that busy-waits on the WASI clock
//! past a readiness threshold, so every pod started before that instant
//! wedges on its watchdog epoch budget. The recovery contract there is the
//! watchdog pipeline end to end: liveness probes detect the wedge, the
//! kubelet interrupts the guest through the epoch clock, CrashLoopBackOff
//! restarts it after the backoff (by which point the simulated clock has
//! passed the threshold), and the node converges with every pod Running
//! *and* ready.

use k8s_sim::{DeployOpts, ProbeSpec, RestartPolicy};
use oci_spec_lite::ImageBuilder;
use simkernel::{Duration, FaultPlan, FaultSite, KernelResult, SimTime};

use crate::config::{Config, Workload};
use crate::report::Table;
use crate::runner::{new_cluster, supervise, warmup};

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
pub(crate) const HUNG_CONFIGS: [Config; 1] = [Config::WamrCrun];

/// Image reference of the hung-guest service.
pub const HUNG_IMAGE_REF: &str = "registry.local/hung-service:v1";

/// How far past deploy time the hung guest's ready threshold sits. Must
/// exceed the watchdog budget (so first starts wedge rather than ready)
/// and stay under the first CrashLoopBackOff delay (so restarts succeed).
pub(crate) const HUNG_READY_AFTER: Duration = Duration::from_secs(5);

/// Liveness probe for the hung-guest scenario: 2 s period × 2 failures
/// derives a 4 s watchdog epoch budget for the guest.
pub fn hung_liveness_probe() -> ProbeSpec {
    ProbeSpec { period: Duration::from_secs(2), failure_threshold: 2, ..ProbeSpec::default() }
}

/// Readiness probe for the hung-guest scenario.
pub(crate) fn hung_readiness_probe() -> ProbeSpec {
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

/// What one chaos run deploys and which fault sites it arms: the
/// all-sites fault sweep and the hung-guest watchdog scenario are its two
/// values, run by the one [`run_config`].
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Pod name prefix.
    prefix: &'static str,
    /// The image the pods run, built from the simulated time of the
    /// deploy and pulled after the baseline reading; `None` runs the
    /// configuration's own microservice.
    image: Option<fn(SimTime) -> ImageBuilder>,
    /// Sites armed at the plan's rate and per-site budget.
    sites: &'static [FaultSite],
    /// Mixed into the plan's seed per configuration, so configurations
    /// (and scenarios) fail independently.
    salt: u64,
    /// Options of every pod; the restart policy is always `Always`.
    opts: DeployOpts,
}

impl Scenario {
    /// Every fault site armed against the configuration's microservice.
    pub fn faults() -> Scenario {
        Scenario {
            prefix: "chaos",
            image: None,
            sites: &FaultSite::ALL,
            salt: 0x9e37_79b9_7f4a_7c15,
            opts: DeployOpts { restart: RestartPolicy::Always, ..Default::default() },
        }
    }

    /// The hung-guest watchdog scenario. The guest busy-waits on the WASI
    /// clock until [`HUNG_READY_AFTER`] past deploy time; because the DES
    /// clock is frozen while a guest executes, every pod of the initial
    /// deployment wedges deterministically on its watchdog epoch budget,
    /// and restarts dispatched after the CrashLoopBackOff delay find the
    /// threshold already behind them and come up ready. Only
    /// [`FaultSite::Probe`] is armed — flaky probe RPCs on top of
    /// genuinely wedged guests — so the detect → interrupt → restart →
    /// converge contract must hold through spurious probe verdicts too.
    pub fn hung_guest() -> Scenario {
        Scenario {
            prefix: "hung",
            image: Some(|now| {
                workloads::hung_service_image(HUNG_IMAGE_REF, (now + HUNG_READY_AFTER).as_nanos())
            }),
            sites: &[FaultSite::Probe],
            salt: 0xA11C_E55E_D5EE_D001,
            opts: DeployOpts {
                restart: RestartPolicy::Always,
                liveness_probe: Some(hung_liveness_probe()),
                readiness_probe: Some(hung_readiness_probe()),
                termination_grace: Some(Duration::from_secs(2)),
                ..Default::default()
            },
        }
    }
}

/// Outcome of one configuration's chaos run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosOutcome {
    pub(crate) config: Config,
    /// Faults actually injected, per site, indexed like [`FaultSite::ALL`].
    pub injected: [u64; FaultSite::ALL.len()],
    /// Successful restarts summed over pods.
    pub restarts: u64,
    /// Final phase counts; `evicted` counts both eviction reasons.
    pub(crate) running: usize,
    pub(crate) evicted: usize,
    pub(crate) failed: usize,
    /// Pods both Running and ready (readiness probe passing) at the end.
    pub ready: usize,
    /// Pods whose first start wedged on the watchdog epoch budget.
    pub wedged: usize,
    /// Liveness-threshold kills performed by the kubelet (epoch interrupt
    /// → teardown → CrashLoopBackOff).
    pub probe_kills: u64,
    /// Reconcile rounds driven.
    pub rounds: usize,
    /// Every pod reached a steady phase within the round budget.
    pub(crate) converged: bool,
    /// Anon-memory growth over the pre-deploy baseline after teardown
    /// (kubelet/daemon bookkeeping only when nothing leaks).
    pub leaked_bytes: u64,
    /// Process-count delta over the pre-deploy baseline after teardown.
    pub(crate) leaked_procs: i64,
}

impl ChaosOutcome {
    /// Faults injected at one site.
    pub fn injected_at(&self, site: FaultSite) -> u64 {
        let i = FaultSite::ALL.iter().position(|&s| s == site).expect("site in ALL");
        self.injected[i]
    }
}

/// Run one configuration through a scenario: deploy under faults →
/// reconcile to steady → fault-free teardown, and report what happened.
pub fn run_config(
    config: Config,
    scenario: &Scenario,
    workload: &Workload,
    plan: &ChaosPlan,
) -> KernelResult<ChaosOutcome> {
    let mut cluster = new_cluster(&[config], workload)?;
    warmup(&mut cluster, config)?;
    let procs_before = cluster.kernel().live_procs();
    let used_before = cluster.free().used;

    let image = match scenario.image {
        Some(build) => cluster.pull_image(build(cluster.now()))?,
        None => config.image_ref().to_string(),
    };
    let mut faults = FaultPlan::new(plan.seed ^ (config as u64 + 1).wrapping_mul(scenario.salt));
    for &site in scenario.sites {
        faults = faults.with_rate(site, plan.rate_ppm).with_limit(site, plan.limit_per_site);
    }
    cluster.kernel().set_fault_plan(faults);

    cluster.deploy_with(scenario.prefix, &image, config.class_name(), plan.pods, scenario.opts)?;
    let wedged = (0..plan.pods)
        .filter(|i| cluster.containerd().pod_wedged(&format!("{}-{i}", scenario.prefix)))
        .count();

    let mut probe_kills = 0u64;
    let rounds = supervise(&mut cluster, plan.max_rounds, |_, report| {
        probe_kills += report.probe_killed.len() as u64;
    })?;
    let converged = cluster.kubelet().settled();
    let injected = FaultSite::ALL.map(|s| cluster.kernel().faults_injected(s));
    let census = cluster.stats();

    // Disarm and tear down fault-free: recovery must leave nothing behind.
    cluster.kernel().set_fault_plan(FaultPlan::none());
    cluster.teardown_managed()?;
    let leaked_bytes = cluster.free().used.saturating_sub(used_before);
    let leaked_procs = cluster.kernel().live_procs() as i64 - procs_before as i64;

    Ok(ChaosOutcome {
        config,
        injected,
        restarts: census.restarts,
        running: census.running,
        evicted: census.evicted + census.pressure_evicted,
        failed: census.failed,
        ready: census.ready,
        wedged,
        probe_kills,
        rounds,
        converged,
        leaked_bytes,
        leaked_procs,
    })
}

/// Everything one sweep produced: the fault runs and the hung-guest runs.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    pub faults: Vec<ChaosOutcome>,
    pub hung: Vec<ChaosOutcome>,
}

/// Sweep every Wasm configuration under the plan — the all-sites fault run
/// per configuration plus the hung-guest watchdog scenario — and assemble
/// the report table (one row per run, per-site injection columns), in
/// this order.
pub fn sweep(workload: &Workload, plan: &ChaosPlan) -> KernelResult<(Table, SweepOutcome)> {
    let runs: Vec<(Config, Scenario)> = WASM_CONFIGS
        .iter()
        .map(|&c| (c, Scenario::faults()))
        .chain(HUNG_CONFIGS.iter().map(|&c| (c, Scenario::hung_guest())))
        .collect();
    let mut faults = runs
        .iter()
        .map(|(c, s)| run_config(*c, s, workload, plan))
        .collect::<KernelResult<Vec<_>>>()?;
    let hung = faults.split_off(WASM_CONFIGS.len());

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
    for o in &faults {
        table.row(o.config.label(), row_values(o), o.config.is_ours());
    }
    for o in &hung {
        table.row(format!("hung-guest: {}", o.config.label()), row_values(o), false);
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
pub fn check_hung_outcome(o: &ChaosOutcome, plan: &ChaosPlan) -> Result<(), String> {
    check_outcome(o, plan)?;
    let label = o.config.label();
    if o.wedged != plan.pods {
        return Err(format!("{label}: {} of {} pods wedged at deploy", o.wedged, plan.pods));
    }
    if (o.probe_kills as usize) < o.wedged {
        return Err(format!(
            "{label}: {} liveness kills for {} wedged pods",
            o.probe_kills, o.wedged
        ));
    }
    if (o.restarts as usize) < o.wedged {
        return Err(format!("{label}: {} restarts for {} wedged pods", o.restarts, o.wedged));
    }
    if o.ready != plan.pods || o.running != plan.pods {
        return Err(format!(
            "{label}: {} running / {} ready != {} pods",
            o.running, o.ready, plan.pods
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ChaosOutcome {
        /// Faults injected across every site.
        fn injected_total(&self) -> u64 {
            self.injected.iter().sum()
        }
    }

    #[test]
    fn smoke_run_converges_and_returns_to_baseline() {
        let w = Workload::light();
        let plan = ChaosPlan::smoke(7);
        let o = run_config(Config::WamrCrun, &Scenario::faults(), &w, &plan).unwrap();
        assert!(o.injected_total() > 0, "an aggressive smoke plan must inject something");
        check_outcome(&o, &plan).unwrap();
    }

    #[test]
    fn zero_rate_plan_injects_nothing_and_runs_clean() {
        let w = Workload::light();
        let plan = ChaosPlan { seed: 7, rate_ppm: 0, limit_per_site: 0, pods: 3, max_rounds: 5 };
        let o = run_config(Config::WamrCrun, &Scenario::faults(), &w, &plan).unwrap();
        assert_eq!(o.injected_total(), 0);
        assert_eq!(o.restarts, 0);
        assert_eq!(o.rounds, 0, "a clean deploy is already settled");
        check_outcome(&o, &plan).unwrap();
    }

    #[test]
    fn hung_guest_smoke_recovers_every_wedged_pod() {
        let w = Workload::light();
        let plan = ChaosPlan::smoke(13);
        let o = run_config(Config::WamrCrun, &Scenario::hung_guest(), &w, &plan).unwrap();
        assert_eq!(o.wedged, plan.pods, "every first start must wedge");
        check_hung_outcome(&o, &plan).unwrap();
    }
}
