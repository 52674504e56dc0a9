//! The five workloads. Each is a *pass*: a fixed batch of work built from
//! the seed, run through the simulator's public functions, with every
//! simulated output folded into a digest. The timed section repeats the
//! pass; the warm-up runs it once at smoke size.
//!
//! A pass runs in one of two ways, chosen by the tracer it is handed:
//!
//! * **tracing off** — it calls the entry points a user of the simulator
//!   runs: [`run_cells_on`] over the whole grid, [`measure_scale`],
//!   [`run_steady_cell`], [`run_overload_contract`], [`explore`]. This is
//!   what `wall_s` times, so a change made *inside* those functions (cluster
//!   reuse across cells, a cheaper driver or merge) moves it.
//! * **tracing on** — `fig_sweep`, `dense_cluster` and `fault_explore` run
//!   a copy of the entry point's body with one span per call into the layer
//!   below. Both ways fold the same samples into the digest, and every pass
//!   of a run must reproduce the first pass's digest, so a copy that drifts
//!   from the function it mirrors fails the traced run (and
//!   `tests/contract.rs`).
//!
//! Why these five, and which layer each one loads, is in `README.md`.

use std::time::Instant;

use harness::cluster_scale::{new_scaled_cluster, warmup_nodes};
use harness::{
    check_contract, explore, generate_schedule, measure_scale, new_cluster, recovery_times,
    run_cells_on, run_overload_contract, run_schedule, run_steady_cell, warmup, Cell, CellSample,
    Config, ContractPlan, ExplorePlan, InvariantKnobs, MemorySample, ScaleSample, ScheduleOutcome,
    StartupSample, SweepPlan, Workload,
};
use k8s_sim::{Policy, Scheduler};
use simkernel::{Duration, KernelError, KernelResult, Phase};
use wasm_core::ArtifactCache;
use workloads::MicroserviceConfig;

use crate::stats::Digest;
use crate::trace::Tracer;

const MIB: f64 = (1u64 << 20) as f64;

/// Which executor ran a guest: the two Wasm tiers or the Python
/// interpreter. The traced run prices each with a standalone probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guest {
    Interp,
    Lowered,
    Python,
}

impl Guest {
    pub fn of(config: Config) -> Guest {
        match config {
            Config::WamrCrun => Guest::Interp,
            Config::CrunPython | Config::RuncPython => Guest::Python,
            _ => Guest::Lowered,
        }
    }
}

/// How much work a pass is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The warm-up, a tenth of a bench pass or so: enough work after the
    /// caches fill that `setup_s` is not all cold-start page faults, which
    /// swing with the host far more than steady work does.
    Smoke,
    /// The timed pass the driver runs: 1–7 s, repeated.
    Bench,
    /// The paper's grid and the repository's full sweeps, as ISSUE 11 sized
    /// them (13–19 s a pass). `--paper-size` runs one such pass, to check
    /// that the bench pass represents it (README, "Bench size against paper
    /// size") and to time a full sweep on two commits.
    Paper,
}

/// What one pass did and produced.
#[derive(Debug, Default)]
pub struct PassOutcome {
    /// Operations attempted: pods, requests or schedules.
    pub ops: u64,
    /// Operations that failed. The workloads are chosen so that none does:
    /// any failure makes the run incorrect.
    pub failed: u64,
    /// Hash of every simulated output of the pass.
    pub digest: Digest,
    /// Output checks that fail the whole run when violated.
    pub violations: Vec<String>,
    /// Per-layer metrics measured inside the pass: the workload's simulated
    /// results (`sim.*`) and, on a traced pass, host costs that need the
    /// workload's own cluster.
    pub layer: Vec<(&'static str, f64)>,
    /// Guest programs executed, by executor.
    pub guest_runs: Vec<(Guest, u64)>,
    /// Host seconds of each unit of work — one call of an entry point when
    /// tracing is off — in the order they ran: the same units every pass.
    pub unit_seconds: Vec<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    FigSweep,
    DenseCluster,
    TrafficSteady,
    TrafficOverload,
    FaultExplore,
}

/// The guest of `dense_cluster` and `fault_explore`: boots, prints its
/// ready line and returns, so the container stack and the control plane
/// do the work instead of the interpreter.
fn boot_only() -> Workload {
    Workload {
        wasm: MicroserviceConfig { loop_iterations: 1, ..MicroserviceConfig::default() },
        ..Workload::default()
    }
}

/// Wasm container starts so far in this process: every start resolves its
/// module through the artifact cache exactly once.
fn wasm_starts() -> u64 {
    let s = ArtifactCache::global().stats();
    s.hits + s.misses
}

fn reduction_pct(ours: f64, theirs: f64) -> f64 {
    (1.0 - ours / theirs) * 100.0
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 5] = [
        WorkloadId::FigSweep,
        WorkloadId::DenseCluster,
        WorkloadId::TrafficSteady,
        WorkloadId::TrafficOverload,
        WorkloadId::FaultExplore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::FigSweep => "fig_sweep",
            WorkloadId::DenseCluster => "dense_cluster",
            WorkloadId::TrafficSteady => "traffic_steady",
            WorkloadId::TrafficOverload => "traffic_overload",
            WorkloadId::FaultExplore => "fault_explore",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one operation is.
    pub fn op_unit(self) -> &'static str {
        match self {
            WorkloadId::FigSweep | WorkloadId::DenseCluster => "pods",
            WorkloadId::TrafficSteady | WorkloadId::TrafficOverload => "requests",
            WorkloadId::FaultExplore => "schedules",
        }
    }

    /// The guest programs the workload's containers run.
    pub fn guest(self) -> Workload {
        match self {
            WorkloadId::FigSweep => Workload::default(),
            WorkloadId::DenseCluster | WorkloadId::FaultExplore => boot_only(),
            WorkloadId::TrafficSteady | WorkloadId::TrafficOverload => Workload::serving(),
        }
    }

    /// Timed bench passes each of `processes` processes runs in a run of
    /// `seconds`: `seconds` over what one pass took, with a tenth to spare,
    /// on the 2-core host the workloads were sized on (README, "Measured
    /// spread"). The count depends on nothing measured, so two commits take
    /// the fastest of the same number of passes however fast either is; a
    /// run lasts a little under `seconds` on a host like that one.
    pub fn passes_per_process(self, seconds: f64, processes: usize) -> usize {
        let pass_seconds = match self {
            WorkloadId::FigSweep => 2.2,
            WorkloadId::DenseCluster => 6.7,
            WorkloadId::TrafficSteady | WorkloadId::TrafficOverload | WorkloadId::FaultExplore => {
                1.25
            }
        };
        ((seconds / pass_seconds / processes as f64).round() as usize).max(1)
    }

    /// Run one pass. `seed` feeds the arrival and routing RNGs of the
    /// traffic workloads and the schedule seeds of the explorer; the two
    /// deployment workloads have no random inputs.
    pub fn run(self, seed: u64, size: Size, tracer: &mut Tracer) -> KernelResult<PassOutcome> {
        let mut out = tracer.span("pass", |t| match self {
            WorkloadId::FigSweep => fig_sweep(size, t),
            WorkloadId::DenseCluster => dense_cluster(size, t),
            WorkloadId::TrafficSteady => traffic_steady(seed, size, t),
            WorkloadId::TrafficOverload => traffic_overload(seed, size, t),
            WorkloadId::FaultExplore => fault_explore(seed, size, t),
        })?;
        out.unit_seconds = tracer.take_unit_seconds();
        if out.failed > 0 {
            let (failed, ops, unit) = (out.failed, out.ops, self.op_unit());
            out.violations.push(format!("{failed} of {ops} {unit} failed"));
        }
        Ok(out)
    }
}

// ---- fig_sweep ------------------------------------------------------------

/// [`harness::measure_cell`] for a `Cell::both`, one span per call. Also
/// hands back the deployment's mean per-phase busy time, which the real
/// function does not expose.
fn spanned_cell(
    cell: &Cell,
    workload: &Workload,
    t: &mut Tracer,
) -> KernelResult<(CellSample, [Duration; Phase::ALL.len()])> {
    let (config, density) = (cell.config, cell.density);
    t.span("cell", |t| {
        let mut cluster = t.span("new_cluster", |_| new_cluster(&[config], workload))?;
        t.span("warmup", |_| warmup(&mut cluster, config))?;
        let free_before = cluster.free().used_with_cache();
        let d = t.span("deploy", |_| {
            cluster.deploy("bench", config.image_ref(), config.class_name(), density)
        })?;
        let memory = t.span("observe_mem", |_| -> KernelResult<_> {
            let metrics_avg = cluster.average_working_set(&d)?;
            let grown = cluster.free().used_with_cache().saturating_sub(free_before);
            Ok(MemorySample { config, density, metrics_avg, free_per_pod: grown / density as u64 })
        })?;
        let total = t.span("observe_startup", |_| cluster.measure_startup(&[&d])).total();
        let busy = d.mean_phase_busy();
        t.span("drop", |_| drop((d, cluster)));
        let startup = StartupSample { config, density, total };
        Ok((CellSample { config, density, memory: Some(memory), startup: Some(startup) }, busy))
    })
}

/// One cell's simulated outputs.
struct Row {
    config: Config,
    density: usize,
    metrics_avg: u64,
    free_per_pod: u64,
    startup_ns: u64,
}

/// The paper's grid — nine configurations, three densities, both memory
/// observers and the startup makespan from one deployment per cell — with
/// the densities scaled from 10/100/400 to 2/10/40 so a pass takes two
/// seconds instead of eighteen. Per-pod host time at density 40 is within
/// 6 % of that at 400 for every configuration (README, "Bench size against
/// paper size"), because guest execution, which is the same for every pod,
/// is over 90 % of it; 40 pods still oversubscribe the modelled 20 cores.
fn fig_sweep(size: Size, t: &mut Tracer) -> KernelResult<PassOutcome> {
    let workload = Workload::default();
    let densities: &[usize] = match size {
        Size::Smoke => &[1, 2],
        Size::Bench => &[2, 10, 40],
        Size::Paper => &[10, 100, 400],
    };
    let cells: Vec<Cell> =
        densities.iter().flat_map(|&d| Config::ALL.map(|c| Cell::both(c, d))).collect();
    let mut out = PassOutcome::default();
    let mut phases = None;
    let samples = if t.enabled() {
        let mut samples = Vec::new();
        for cell in &cells {
            t.next_unit();
            let (sample, busy) = spanned_cell(cell, &workload, t)?;
            if cell.config == Config::WamrCrun && cell.density == 10 {
                phases = Some(busy);
            }
            samples.push(sample);
        }
        samples
    } else {
        t.next_unit();
        run_cells_on(&cells, &workload, 1)?
    };

    let rows: Vec<Row> = samples
        .iter()
        .map(|s| {
            let memory = s.memory.expect("Cell::both observes memory");
            Row {
                config: s.config,
                density: s.density,
                metrics_avg: memory.metrics_avg,
                free_per_pod: memory.free_per_pod,
                startup_ns: s.startup.expect("Cell::both observes startup").total.as_nanos(),
            }
        })
        .collect();
    for r in &rows {
        out.ops += r.density as u64;
        // One warm-up pod per cell runs the guest too.
        out.guest_runs.push((Guest::of(r.config), r.density as u64 + 1));
        out.digest.word(r.metrics_avg);
        out.digest.word(r.free_per_pod);
        out.digest.word(r.startup_ns);
    }

    // Headline checks, each computed from the samples of this pass.
    let at = |config: Config, density: usize| {
        rows.iter().find(|r| r.config == config && r.density == density).expect("every cell ran")
    };
    let ours = |density: usize| at(Config::WamrCrun, density);
    let mut check = |holds: bool, what: String| {
        if !holds {
            out.violations.push(format!("headline check: {what}"));
        }
    };
    for r in rows.iter().filter(|r| r.config != Config::WamrCrun) {
        let o = ours(r.density);
        check(
            r.metrics_avg > o.metrics_avg && r.free_per_pod > o.free_per_pod,
            format!("crun-wamr below {} on both observers at {} pods", r.config.label(), r.density),
        );
    }
    for r in &rows {
        check(
            r.free_per_pod > r.metrics_avg,
            format!("free above metrics-server for {} at {} pods", r.config.label(), r.density),
        );
    }
    let (smallest, largest) = (densities[0], *densities.last().expect("densities"));
    if size != Size::Smoke {
        // The startup crossover of Figs. 8 and 9: the two fast shims beat
        // crun-wamr while the node has idle cores and lose once it has not.
        for shim in [Config::ShimWasmtime, Config::ShimWasmEdge] {
            check(
                at(shim, smallest).startup_ns < ours(smallest).startup_ns,
                format!("{} starts {smallest} pods faster than crun-wamr", shim.label()),
            );
            check(
                at(shim, largest).startup_ns > ours(largest).startup_ns,
                format!("{} starts {largest} pods slower than crun-wamr", shim.label()),
            );
        }
    }
    if largest >= 400 {
        check(
            at(Config::CrunWasmtime, largest).startup_ns < ours(largest).startup_ns,
            format!("crun-wasmtime starts {largest} pods faster than crun-wamr"),
        );
    }

    let n = densities.len() as f64;
    let mean_reduction = |other: Config| {
        densities
            .iter()
            .map(|&d| reduction_pct(ours(d).metrics_avg as f64, at(other, d).metrics_avg as f64))
            .sum::<f64>()
            / n
    };
    // The paper's point claims: the two that do not depend on density
    // (Figs. 5 and 6) and, when the grid reaches 400 pods, the three
    // startup claims of Fig. 9.
    let mut gaps = vec![
        (mean_reduction(Config::ShimWasmer) - 77.53).abs(),
        (mean_reduction(Config::ShimWasmtime) - 21.07).abs(),
    ];
    if largest >= 400 {
        let startup = |c: Config| at(c, largest).startup_ns as f64;
        let ours_s = startup(Config::WamrCrun);
        gaps.push((reduction_pct(ours_s, startup(Config::ShimWasmEdge)) - 18.82).abs());
        gaps.push((reduction_pct(ours_s, startup(Config::ShimWasmtime)) - 28.38).abs());
        gaps.push(((ours_s / startup(Config::CrunWasmtime) - 1.0) * 100.0 - 6.93).abs());
    }
    let free_mean = densities.iter().map(|&d| ours(d).free_per_pod as f64).sum::<f64>() / n;
    let metrics_mean = densities.iter().map(|&d| ours(d).metrics_avg as f64).sum::<f64>() / n;
    out.layer = vec![
        ("sim.mem_mib_per_ctr", free_mean / MIB),
        ("sim.startup_s", ours(largest).startup_ns as f64 / 1e9),
        ("sim.paper_gap_pp", gaps.iter().sum::<f64>() / gaps.len() as f64),
        ("sim.mem.metrics_vs_free_gap_pct", (free_mean / metrics_mean - 1.0) * 100.0),
    ];
    if let Some(busy) = phases {
        for (phase, name) in PHASE_METRICS {
            out.layer.push((name, busy[phase.index()].as_nanos() as f64 / 1e6));
        }
    }
    Ok(out)
}

/// Startup phases reported as `sim.phase.*_ms` (crun-wamr, 10 pods; from
/// the traced pass, which holds the deployment).
pub const PHASE_METRICS: [(Phase, &str); 8] = [
    (Phase::ApiDispatch, "sim.phase.api-dispatch_ms"),
    (Phase::Sandbox, "sim.phase.sandbox_ms"),
    (Phase::RuntimeOp, "sim.phase.runtime-op_ms"),
    (Phase::EngineInit, "sim.phase.engine-init_ms"),
    (Phase::ModuleLoad, "sim.phase.module-load_ms"),
    (Phase::Compile, "sim.phase.compile_ms"),
    (Phase::Instantiate, "sim.phase.instantiate_ms"),
    (Phase::Exec, "sim.phase.exec_ms"),
];

// ---- dense_cluster --------------------------------------------------------

/// [`harness::measure_scale`], one span per call. For crun-wamr it also
/// measures, on the cluster it has just filled, what the benchmark's
/// small-cluster probes cannot see: the per-pod cost of that deployment and
/// one scheduler decision with every pod resident.
fn spanned_scale(
    config: Config,
    nodes: usize,
    pods: usize,
    workload: &Workload,
    layer: &mut Vec<(&'static str, f64)>,
    t: &mut Tracer,
) -> KernelResult<ScaleSample> {
    t.span("scale_point", |t| {
        let mut cluster =
            t.span("new_cluster", |_| new_scaled_cluster(config, nodes, Policy::Spread, workload))?;
        t.span("warmup", |_| warmup_nodes(&mut cluster, config))?;
        let started = Instant::now();
        let d = t.span("deploy", |_| {
            cluster.deploy("bench", config.image_ref(), config.class_name(), pods)
        })?;
        let deploy_s = started.elapsed().as_secs_f64();
        let metrics_avg = t.span("observe_mem", |_| cluster.average_working_set(&d))?;
        let per_node: Vec<usize> =
            (0..nodes).map(|i| d.pods.iter().filter(|p| p.node == i).count()).collect();
        let outcome = t.span("observe_startup", |_| cluster.measure_startup(&[&d]));
        if config == Config::WamrCrun {
            let scheduler = Scheduler::new(Policy::Spread);
            let decisions = 20;
            let started = Instant::now();
            for _ in 0..decisions {
                std::hint::black_box(scheduler.place(&cluster.nodes));
            }
            let place_s = started.elapsed().as_secs_f64() / decisions as f64;
            layer.push(("k8s.deploy_us_per_pod.loaded", deploy_s / pods as f64 * 1e6));
            layer.push(("k8s.scheduler.place_us.loaded", place_s * 1e6));
        }
        t.span("drop", |_| drop((d, cluster)));
        Ok(ScaleSample {
            pods,
            nodes,
            metrics_avg,
            min_pods_node: per_node.iter().copied().min().unwrap_or(0),
            max_pods_node: per_node.iter().copied().max().unwrap_or(0),
            startup: outcome.total(),
            des_events: outcome.events,
        })
    })
}

/// The 25-node cluster sweep's pod-start path with guest execution removed:
/// boot-only pods placed by the spread scheduler. crun-wamr (the OCI
/// handler) starts the sweep's full 10 000 pods, 400 a node, because host
/// time per pod is *not* constant here — it grows with the pods already
/// resident, from 0.30 ms for the first thousand to 0.91 ms for the tenth
/// (README, "Bench size against paper size") — and that growth is what an
/// optimisation of the 10 000-pod sweep would go after. A runwasi shim and
/// the generic crun engine handler start 1 500 pods each, so each path
/// appears once without tripling the pass.
fn dense_cluster(size: Size, t: &mut Tracer) -> KernelResult<PassOutcome> {
    let workload = boot_only();
    let (nodes, pods): (usize, [usize; 3]) = match size {
        Size::Smoke => (3, [120, 120, 120]),
        Size::Bench => (25, [10_000, 1_500, 1_500]),
        Size::Paper => (25, [10_000, 10_000, 10_000]),
    };
    let mut out = PassOutcome::default();
    for (config, pods) in
        [Config::WamrCrun, Config::ShimWasmtime, Config::CrunWasmtime].into_iter().zip(pods)
    {
        t.next_unit();
        let before = wasm_starts();
        // A pod that fails to start is an error of the strict deploy both
        // ways use, and ends the run.
        let s = if t.enabled() {
            spanned_scale(config, nodes, pods, &workload, &mut out.layer, t)?
        } else {
            measure_scale(config, nodes, pods, Policy::Spread, &workload)?
        };
        out.ops += pods as u64;
        out.guest_runs.push((Guest::of(config), wasm_starts() - before));
        for word in [s.metrics_avg, s.startup.as_nanos(), s.des_events] {
            out.digest.word(word);
        }
        out.digest.word(s.min_pods_node as u64);
        out.digest.word(s.max_pods_node as u64);
        if s.max_pods_node - s.min_pods_node > 1 || s.max_pods_node != pods.div_ceil(nodes) {
            out.violations.push(format!(
                "spread placement of {pods} {} pods on {nodes} nodes left {}..{} a node",
                config.label(),
                s.min_pods_node,
                s.max_pods_node
            ));
        }
        if config == Config::WamrCrun {
            out.layer.extend([
                ("sim.mem_mib_per_ctr", s.metrics_avg as f64 / MIB),
                ("sim.startup_s", s.startup.as_secs_f64()),
                ("sim.des.events", s.des_events as f64),
            ]);
        }
    }
    Ok(out)
}

// ---- traffic --------------------------------------------------------------

const TRAFFIC_CONFIGS: [Config; 2] = [Config::WamrCrun, Config::CrunWasmtime];

/// Traffic runs per configuration in one bench pass, each with its own
/// seed derived from `--seed`. Four runs of a quarter of the requests keep
/// the loop's event and request vectors at tens of MiB instead of hundreds
/// — a pass that maps and faults 300 MiB afresh measures the host's
/// page-fault path more than the request path (README, "Bench size against
/// paper size") — and average out the seed's luck.
const TRAFFIC_RUNS: u64 = 4;

fn traffic_seed(seed: u64, run: u64) -> u64 {
    seed ^ (run + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Open-loop Poisson arrivals at 0.7 of capacity against two replicas: at
/// the sweep's usual 0.8 a burst now and then outlasts the retry budget
/// (about one request in 10^5 on one seed in six), and a benchmark
/// workload should have no failing operation. The crun-wamr arm is slow in
/// simulated time, so it spans tens of thousands of cluster ticks; the
/// crun-wasmtime arm is bound by the per-request events.
fn traffic_steady(seed: u64, size: Size, t: &mut Tracer) -> KernelResult<PassOutcome> {
    let workload = Workload::serving();
    let (runs, requests) = match size {
        Size::Smoke => (1, 60_000),
        Size::Bench => (TRAFFIC_RUNS, 200_000),
        Size::Paper => (1, 4_000_000),
    };
    let mut out = PassOutcome::default();
    for config in TRAFFIC_CONFIGS {
        let before = wasm_starts();
        for run in 0..runs {
            t.next_unit();
            let plan =
                SweepPlan { requests, load_factor: 0.7, ..SweepPlan::new(traffic_seed(seed, run)) };
            let s = t.span("run_traffic", |_| run_steady_cell(config, &workload, &plan))?;
            let steady = s.run.measured();
            out.ops += steady.arrivals;
            out.failed += steady.arrivals - steady.completed;
            for q in [s.p50, s.p99, s.p999] {
                out.digest.word(q.as_nanos());
            }
            out.digest.word(steady.completed);
            out.digest.word(s.run.attempts);
            out.digest.float(s.goodput_rps);
            if config == Config::WamrCrun && run == 0 {
                out.layer = service_sim(
                    s.p99.as_secs_f64() * 1e3,
                    s.goodput_rps,
                    &steady,
                    s.run.attempts,
                    s.run.phases.iter().map(|p| p.arrivals).sum(),
                    s.run.breaker_opens,
                );
            }
        }
        out.guest_runs.push((Guest::of(config), wasm_starts() - before));
    }
    Ok(out)
}

fn service_sim(
    p99_ms: f64,
    goodput_rps: f64,
    measured: &harness::PhaseStats,
    attempts: u64,
    arrivals: u64,
    breaker_opens: u64,
) -> Vec<(&'static str, f64)> {
    vec![
        ("sim.p99_ms", p99_ms),
        ("sim.goodput_rps", goodput_rps),
        ("sim.service.shed_pct", measured.shed_rate() * 100.0),
        ("sim.service.retries_per_req", measured.retries as f64 / measured.arrivals.max(1) as f64),
        ("sim.service.amplification", attempts as f64 / arrivals.max(1) as f64),
        ("sim.service.breaker_opens", breaker_opens as f64),
    ]
}

/// The overload-and-recover contract: baseline at 0.5× capacity, 3×
/// overload, settle, recovery, plus the control arm with the retry budget
/// disabled. Same layer as `traffic_steady`, other paths: shed, retry and
/// backoff, breaker, brownout.
///
/// Shedding under 3× load is the designed outcome, not a failure, so
/// `failed` counts only requests of the baseline and recovery legs (half
/// of capacity) that did not complete; the overload leg's shed rate is the
/// per-layer `sim.service.shed_pct`.
fn traffic_overload(seed: u64, size: Size, t: &mut Tracer) -> KernelResult<PassOutcome> {
    let workload = Workload::serving();
    let (runs, baseline) = match size {
        Size::Smoke => (1, 8_000),
        Size::Bench => (TRAFFIC_RUNS, 25_000),
        Size::Paper => (1, 1_000_000),
    };
    let mut out = PassOutcome::default();
    for config in TRAFFIC_CONFIGS {
        let before = wasm_starts();
        for run in 0..runs {
            t.next_unit();
            let plan = ContractPlan {
                baseline_requests: baseline,
                overload_requests: 3 * baseline,
                settle_requests: baseline / 4,
                ..ContractPlan::new(traffic_seed(seed, run))
            };
            let o = t.span("run_traffic", |_| run_overload_contract(config, &workload, &plan))?;
            if let Err(violation) = check_contract(&o, &plan) {
                out.violations.push(violation);
            }
            for arm in [&o.treatment, &o.control] {
                for p in &arm.phases {
                    out.ops += p.arrivals;
                    if p.label == "baseline" || p.label == "recovery" {
                        out.failed += p.arrivals - p.completed;
                    }
                    out.digest.word(p.completed);
                    out.digest.word(p.shed);
                    out.digest.word(p.hist.quantile(0.99).as_nanos());
                }
                out.digest.word(arm.attempts);
            }
            if config == Config::WamrCrun && run == 0 {
                out.layer = service_sim(
                    o.overload_p99.as_secs_f64() * 1e3,
                    o.overload_goodput_rps,
                    &o.treatment.phases[2],
                    o.treatment.attempts,
                    o.treatment.phases.iter().map(|p| p.arrivals).sum(),
                    o.treatment.breaker_opens,
                );
            }
        }
        out.guest_runs.push((Guest::of(config), wasm_starts() - before));
    }
    Ok(out)
}

// ---- fault_explore --------------------------------------------------------

/// Seeded crash/restart/partition/heal schedules against a 3-node,
/// 6-replica deployment: fresh-cluster bootstrap per schedule, lease
/// ticks, kubelet and controller reconcile. Schedules share nothing, so
/// host time is linear in their number. Tracing off: [`explore`]; tracing
/// on: its serial path, one span per schedule.
fn fault_explore(seed: u64, size: Size, t: &mut Tracer) -> KernelResult<PassOutcome> {
    let workload = boot_only();
    let schedules = match size {
        Size::Smoke => 30,
        Size::Bench => 300,
        Size::Paper => 4_000,
    };
    let plan = ExplorePlan { schedules, ..ExplorePlan::smoke(seed) };
    let knobs = InvariantKnobs::default();
    let mut out = PassOutcome::default();
    let before = wasm_starts();
    let outcomes: Vec<ScheduleOutcome> = if t.enabled() {
        (0..plan.schedules)
            .map(|i| {
                t.next_unit();
                let seed = plan.schedule_seed(i);
                let events = generate_schedule(seed, plan.nodes, plan.max_events);
                t.span("run_schedule", |_| run_schedule(&plan, seed, &events, &workload, knobs))
            })
            .collect::<KernelResult<_>>()?
    } else {
        t.next_unit();
        explore(&plan, &workload, knobs)?.outcomes
    };
    for o in &outcomes {
        out.ops += 1;
        if !o.violations.is_empty() {
            out.failed += 1;
            out.violations.push(format!(
                "schedule seed {:#x} [{}]: {}",
                o.seed,
                harness::explorer::schedule_line(&o.events),
                o.violations.join("; ")
            ));
        }
        out.digest.word(o.seed);
        out.digest.word(o.events.len() as u64);
        out.digest.word(o.rounds as u64);
    }
    t.next_unit();
    let recovery = t.span("recovery_times", |_| recovery_times(plan.config, &workload))?;
    if recovery.detect.as_nanos() == u64::MAX {
        return Err(KernelError::InvalidState("node crash was never detected".into()));
    }
    out.digest.word(recovery.crash_reconverge.as_nanos());
    out.guest_runs.push((Guest::of(plan.config), wasm_starts() - before));
    out.layer = vec![
        ("sim.reconverge_s", recovery.crash_reconverge.as_secs_f64()),
        ("sim.lease.detect_s", recovery.detect.as_secs_f64()),
    ];
    Ok(out)
}
