//! Open-loop FaaS traffic: seeded arrival processes, the request event
//! loop, and the overload-and-recover contract.
//!
//! Requests arrive open-loop (arrivals never wait for completions — the
//! property that makes overload *possible*) from seeded Poisson or bursty
//! profiles and flow through the full `k8s::service` overload
//! plane: pick-of-2 routing → bounded-queue admission → per-endpoint
//! single-server execution with deadline/watchdog caps → client-side
//! retry budget and backoff → circuit breakers → brownout. The loop merges
//! a streamed arrival generator with the event queue ([`CalendarQueue`],
//! the binary heap behind the DES scheduler) of `Copy` events and moves the
//! cluster's clock to each event's instant, so `cluster.now()` is the
//! event time for everything an event touches: the queue and the request
//! records hold only work in flight (a resolved request's slot goes to the
//! next arrival), millions of simulated requests cost no wall-clock sleeps
//! and every run is byte-identical for a given seed.
//!
//! Per-request service time is the queueing model's per-config constant:
//! a fixed per-request instruction count priced by each engine's
//! `exec_ns_per_instr` (the same profile constants behind the startup
//! figures), plus a runtime-independent request overhead. crun and shim
//! variants of one engine therefore share latency and differ in
//! memory-per-RPS — exactly the axis the paper cares about.
//!
//! The **overload-and-recover contract** ([`run_overload_contract`]) is
//! the anti-metastability proof: drive 3× capacity and assert goodput
//! holds a floor while shedding; drop to 0.5× (replaying the *identical*
//! baseline arrival sequence) and assert p99 re-converges to the
//! pre-overload baseline; re-run overload with the retry budget disabled
//! and assert the system demonstrably degrades (the control arm).

use k8s_sim::service::{MAX_ATTEMPTS, QUEUE_CAPACITY};
use k8s_sim::{
    Cluster, DeploymentController, DeploymentSpec, HpaSpec, LatencyHistogram, ProbeSpec,
    ResilientClient, RetryBudget, RetryPolicy, Service, ServiceConfig,
};
use simkernel::rng::SplitMix64;
use simkernel::{CalendarQueue, Duration, KernelResult, SimTime};

use crate::config::{Config, Workload};
use crate::report::Table;
use crate::runner::warmup;

/// Instructions one request retires (on top of [`REQUEST_OVERHEAD`]) —
/// priced per config by the engine's `exec_ns_per_instr`.
pub(crate) const REQUEST_INSTRS: u64 = 13_500;

/// Runtime-independent per-request overhead (network, host call shuffle).
pub(crate) const REQUEST_OVERHEAD: Duration = Duration::from_micros(50);

/// Full-service execution time for one request under `config`'s engine.
pub fn request_exec(config: Config) -> Duration {
    use engines::EngineKind;
    let kind = match config {
        Config::WamrCrun => EngineKind::Wamr,
        Config::CrunWasmtime | Config::ShimWasmtime => EngineKind::Wasmtime,
        Config::CrunWasmer | Config::ShimWasmer => EngineKind::Wasmer,
        Config::CrunWasmEdge | Config::ShimWasmEdge => EngineKind::WasmEdge,
        // The Python baselines serve through the same path priced at the
        // interpreter-tier rate (they are not part of the Wasm sweep).
        Config::CrunPython | Config::RuncPython => EngineKind::Wamr,
    };
    let ns = REQUEST_OVERHEAD.as_nanos() + kind.profile().exec_ns_per_instr * REQUEST_INSTRS;
    Duration::from_nanos(ns)
}

/// Requests per second one pod sustains at full service.
pub fn pod_capacity_rps(config: Config) -> f64 {
    1e9 / request_exec(config).as_nanos() as f64
}

/// A seeded open-loop arrival process. Rates are in requests/second; every
/// profile draws inter-arrival gaps from a phase-local [`SplitMix64`], so
/// one (profile, seed) pair IS the arrival sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProfile {
    /// Memoryless arrivals at a constant mean rate.
    Poisson { rate_rps: f64 },
    /// Square-wave load: `base_rps` for half of each period, `burst_rps`
    /// for the other half (Poisson within each half).
    Bursty { base_rps: f64, burst_rps: f64, period: Duration },
}

impl ArrivalProfile {
    /// Instantaneous mean rate at phase-local time `t`.
    fn rate_at(&self, t: Duration) -> f64 {
        match *self {
            ArrivalProfile::Poisson { rate_rps } => rate_rps,
            ArrivalProfile::Bursty { base_rps, burst_rps, period } => {
                let phase = t.as_nanos() % period.as_nanos().max(1);
                if phase * 2 < period.as_nanos() {
                    base_rps
                } else {
                    burst_rps
                }
            }
        }
    }

    /// Draw the next inter-arrival gap at phase-local time `t`
    /// (exponential at the instantaneous rate; floor 1 ns keeps arrivals
    /// strictly ordered).
    fn next_gap(&self, t: Duration, rng: &mut SplitMix64) -> Duration {
        let rate = self.rate_at(t).max(1e-9);
        // Uniform (0, 1] from the top 53 bits (`next_f64` is a raw bit
        // reinterpretation, not a uniform draw).
        let u = (((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64).min(1.0);
        let gap_ns = (-u.ln() / rate * 1e9).min(1e15);
        Duration::from_nanos((gap_ns as u64).max(1))
    }
}

/// One phase of a traffic run: `requests` arrivals from `profile`,
/// measured (or not) into its own [`PhaseStats`].
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpec {
    pub label: &'static str,
    pub profile: ArrivalProfile,
    /// Arrivals this phase injects; the next phase starts where these end.
    pub requests: usize,
    /// Seed of the phase's arrival RNG — replaying a phase's seed replays
    /// its exact arrival sequence (the recovery leg of the contract).
    pub seed: u64,
    pub measured: bool,
}

/// Per-request deadline, in multiples of the full-service time.
const DEADLINE_EXECS: u64 = 64;

/// The service tick: kubelet reconcile, endpoint sync and breaker/brownout
/// evaluation interval.
const TICK: Duration = Duration::from_millis(250);

/// Knobs of one traffic run (per-config values derive from
/// [`request_exec`] inside [`run_traffic`]; queue capacity and attempt
/// count are [`ServiceConfig::for_exec`]'s and [`RetryPolicy::new`]'s).
#[derive(Debug, Clone, Copy)]
pub struct TrafficPlan {
    /// Deployment replicas behind the service.
    pub replicas: usize,
    /// `false` runs the contract's control arm: unlimited retries.
    pub(crate) retry_budget_enabled: bool,
    /// Seed for the service's routing RNG.
    pub(crate) seed: u64,
}

impl TrafficPlan {
    pub fn new(seed: u64) -> TrafficPlan {
        TrafficPlan { replicas: 2, retry_budget_enabled: true, seed }
    }
}

/// What one phase of a run observed. Latency is end-to-end: arrival of the
/// *request* to its successful completion, across retries and backoff.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    pub label: &'static str,
    /// [`PhaseSpec::measured`] of the phase this is the record of.
    pub(crate) measured: bool,
    pub arrivals: u64,
    /// Requests that completed successfully (goodput numerator).
    pub completed: u64,
    /// Successful completions served in brownout mode.
    pub(crate) degraded: u64,
    /// Admission sheds charged to this phase's requests (all attempts).
    pub shed: u64,
    /// Requests abandoned: deadline passed before any attempt succeeded.
    pub timeouts: u64,
    /// Requests that exhausted attempts/budget without success.
    pub failed: u64,
    /// Retry attempts issued for this phase's requests.
    pub retries: u64,
    pub hist: LatencyHistogram,
    /// Wall-clock span of the phase's arrivals.
    pub(crate) span: Duration,
}

impl PhaseStats {
    fn new(label: &'static str, measured: bool) -> PhaseStats {
        PhaseStats {
            label,
            measured,
            arrivals: 0,
            completed: 0,
            degraded: 0,
            shed: 0,
            timeouts: 0,
            failed: 0,
            retries: 0,
            hist: LatencyHistogram::new(),
            span: Duration::ZERO,
        }
    }

    /// Successful completions per second of arrival span.
    pub(crate) fn goodput_rps(&self) -> f64 {
        if self.span == Duration::ZERO {
            return 0.0;
        }
        self.completed as f64 / self.span.as_secs_f64()
    }

    /// Shed attempts per arrival.
    pub fn shed_rate(&self) -> f64 {
        self.shed as f64 / (self.arrivals.max(1)) as f64
    }
}

/// Outcome of one full traffic run.
#[derive(Debug, Clone)]
pub struct TrafficRun {
    pub config: Config,
    pub phases: Vec<PhaseStats>,
    /// Sheds by [`ShedReason::index`], whole run.
    pub sheds_by_reason: [u64; 3],
    /// Total attempts admitted by the service, whole run.
    pub admitted: u64,
    /// Total attempts issued (first + retries), whole run.
    pub attempts: u64,
    pub breaker_opens: u64,
    pub brownout_engagements: u64,
    /// Endpoint tokens aborted by `sync` (pod left the ready set) and
    /// re-driven through the retry path.
    pub aborted_retried: u64,
    /// High-water mark of the loop's event queue — ticks, finishes and
    /// retries in flight; arrivals are streamed and never queued. A
    /// deterministic count: it follows work in flight, not requests offered.
    pub peak_live_events: usize,
    /// Summed metrics-server working set over ready endpoints at the end
    /// of the run.
    pub endpoint_working_set: u64,
    /// Scenario-mode observations (None outside `run_scenario`).
    pub scenario: Option<ScenarioObservation>,
}

impl TrafficRun {
    /// Fold the measured phases into one summary row.
    pub fn measured(&self) -> PhaseStats {
        let mut total = PhaseStats::new("measured", true);
        for p in self.phases.iter().filter(|p| p.measured) {
            total.arrivals += p.arrivals;
            total.completed += p.completed;
            total.degraded += p.degraded;
            total.shed += p.shed;
            total.timeouts += p.timeouts;
            total.failed += p.failed;
            total.retries += p.retries;
            total.span = total.span.saturating_add(p.span);
            total.hist.merge(&p.hist);
        }
        total
    }

    /// Bytes of endpoint working set per unit of goodput (the
    /// memory-per-RPS axis): how much resident memory each served RPS
    /// costs under this config.
    pub(crate) fn mem_per_rps(&self, goodput_rps: f64) -> f64 {
        if goodput_rps <= 0.0 {
            return 0.0;
        }
        self.endpoint_working_set as f64 / goodput_rps
    }
}

/// What the long-running scenario (rolling update + HPA under live
/// traffic) observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioObservation {
    /// The rolling update converged (every replica on the new revision).
    pub rollout_done: bool,
    /// Minimum ready replicas observed during the rollout.
    pub min_ready_during_rollout: usize,
    /// maxUnavailable floor the rollout must hold (replicas − maxUnavailable).
    pub ready_floor: usize,
    /// Requests were in flight (queued or serving) during rollout steps.
    pub inflight_during_rollout: bool,
    /// The HPA scaled up at least once on the queue-depth signal.
    pub scaled_up: bool,
    /// Replicas when the run ended.
    pub final_replicas: usize,
}

/// The scenario's deployment size.
const SCENARIO_REPLICAS: usize = 3;

/// What the scenario's tick loop drives besides traffic: the rolling
/// update begins after this many ticks, and once it is done the HPA is
/// evaluated every tick.
const ROLLOUT_AFTER_TICKS: u64 = 2;

/// The scenario's HPA: up to two replicas more while the mean endpoint
/// queue depth is above two requests.
const SCENARIO_HPA: HpaSpec =
    HpaSpec { max_replicas: SCENARIO_REPLICAS + 2, target_queue_depth_x1000: 2_000 };

// ---------------------------------------------------------------------------
// The event loop.

/// An attempt's token is `slot × TOKENS_PER_REQ + attempt` (see [`Loop::slots`]).
const TOKENS_PER_REQ: u64 = 32;
// A token holds the attempt number below `TOKENS_PER_REQ`.
const _: () = assert!((MAX_ATTEMPTS as u64) < TOKENS_PER_REQ);

/// What the event queue carries. `Copy`, and it rides in the queue entry
/// itself, so nothing is stored per event once it has popped. Arrivals are
/// not events: they come from the [`Arrivals`] stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Re-issue the request in slot `slot` after its retry backoff.
    Retry(usize),
    /// The endpoint with stable id `endpoint` surfaces the outcome of
    /// `token` (scheduled by `try_start`; the index is re-resolved from the
    /// id because indices shift on sync).
    Finish { endpoint: u32, token: u64 },
    /// Coarse cluster tick.
    Tick,
}

/// The one fixed-size record the loop keeps per request in flight, in a
/// slot of [`Loop::slots`]. A request has at most one attempt queued or
/// serving — a retry is issued only once the previous one has failed — and
/// its token is derived from the slot and `attempt`, so it is not stored.
#[derive(Debug, Clone, Copy)]
struct ReqState {
    arrival: SimTime,
    phase: u8,
    /// Attempts issued so far (1 after the first).
    attempt: u8,
    /// The slot holds an unresolved request.
    live: bool,
}

/// The open-loop arrival stream: walks the chained phases — each starts
/// where the previous one's arrivals end — drawing one gap at a time from
/// the phase's own [`SplitMix64`], so the loop holds the next arrival and
/// nothing else of the requests still to come.
struct Arrivals<'a> {
    phases: &'a [PhaseSpec],
    /// Phase being emitted (`phases.len()` once every phase has run out).
    phase: usize,
    /// Arrivals the current phase has yet to emit.
    left: usize,
    rng: SplitMix64,
    phase_start: SimTime,
    /// Time of the arrival drawn last (the run's start before the first).
    last: SimTime,
}

impl<'a> Arrivals<'a> {
    fn new(phases: &'a [PhaseSpec], start: SimTime) -> Arrivals<'a> {
        let mut stream = Arrivals {
            phases,
            phase: 0,
            left: 0,
            rng: SplitMix64::new(0),
            phase_start: start,
            last: start,
        };
        stream.enter(0);
        stream
    }

    fn enter(&mut self, phase: usize) {
        self.phase = phase;
        self.phase_start = self.last;
        if let Some(spec) = self.phases.get(phase) {
            self.left = spec.requests;
            self.rng = SplitMix64::new(spec.seed);
        }
    }

    /// Draw the next arrival as `(time, phase)`; `None` once every phase
    /// has run out. A phase's span is recorded into `stats` when its last
    /// arrival has been drawn and the stream moves on.
    fn advance(&mut self, stats: &mut [PhaseStats]) -> Option<(SimTime, usize)> {
        loop {
            let spec = self.phases.get(self.phase)?;
            if self.left > 0 {
                self.left -= 1;
                let gap = spec.profile.next_gap(self.last.since(self.phase_start), &mut self.rng);
                self.last += gap;
                return Some((self.last, self.phase));
            }
            stats[self.phase].span = self.last.since(self.phase_start);
            self.enter(self.phase + 1);
        }
    }
}

struct Loop {
    /// Ticks, finishes and retries in flight. The payload's leading
    /// sequence number makes equal-time events pop in push order.
    queue: CalendarQueue<(u64, Ev)>,
    next_seq: u64,
    peak_live_events: usize,
    /// The unresolved requests; a resolved one's slot goes on `free` for the
    /// next arrival.
    slots: Vec<ReqState>,
    free: Vec<usize>,
    phases: Vec<PhaseStats>,
    client: ResilientClient,
    attempts: u64,
    aborted_retried: u64,
    /// Per-request deadline, counted from the request's arrival.
    deadline: Duration,
}

impl Loop {
    fn push(&mut self, at: SimTime, ev: Ev) {
        self.queue.push(at, (self.next_seq, ev));
        self.next_seq += 1;
        self.peak_live_events = self.peak_live_events.max(self.queue.len());
    }

    /// A request of `phase` arrives at `now`: give it a slot and issue it.
    fn arrive(&mut self, phase: usize, now: SimTime, service: &mut Service) {
        let r = ReqState { arrival: now, phase: phase as u8, attempt: 0, live: true };
        let slot = self.free.pop().unwrap_or(self.slots.len());
        if slot == self.slots.len() {
            self.slots.push(r);
        }
        self.slots[slot] = r;
        self.issue(slot, now, service);
    }

    /// The request in `slot` has resolved: free the slot.
    fn release(&mut self, slot: usize) {
        self.slots[slot].live = false;
        self.free.push(slot);
    }

    /// The slot `token` names. A freed request has no attempt queued or
    /// serving, and a finish still queued for it names an endpoint `sync`
    /// dropped (ids are never reused), so a reused token is never an old
    /// one's; debug builds check it.
    fn slot_of(&self, token: u64) -> usize {
        let slot = (token / TOKENS_PER_REQ) as usize;
        let r = self.slots[slot];
        debug_assert!(r.live && u64::from(r.attempt) == token % TOKENS_PER_REQ, "stale {token}");
        slot
    }

    /// Issue one attempt for the request in `slot` at `now`.
    fn issue(&mut self, slot: usize, now: SimTime, service: &mut Service) {
        let r = self.slots[slot];
        debug_assert!(r.live, "slot {slot} reissued after it was freed");
        let (deadline, phase) = (r.arrival + self.deadline, usize::from(r.phase));
        if now >= deadline {
            self.release(slot);
            self.phases[phase].timeouts += 1;
            return;
        }
        let attempt = r.attempt + 1;
        self.slots[slot].attempt = attempt;
        self.attempts += 1;
        if attempt > 1 {
            self.phases[phase].retries += 1;
        }
        let token = slot as u64 * TOKENS_PER_REQ + u64::from(attempt);
        let admitted = service
            .route(None)
            .and_then(|ep| service.admit(ep, now, token, deadline).map(|a| (ep, a)));
        match admitted {
            Ok((ep, a)) => {
                if a.server_idle {
                    self.start(ep, now, service);
                }
            }
            Err(_reason) => {
                // Typed 503 (already tallied by the service); client-side
                // the shed feeds the retry path.
                self.phases[phase].shed += 1;
                self.retry_or_fail(slot, now);
            }
        }
    }

    /// Start the endpoint's next queued request, scheduling its finish.
    fn start(&mut self, ep: usize, now: SimTime, service: &mut Service) {
        if let Some(st) = service.try_start(ep, now) {
            let endpoint = service.endpoints[ep].id;
            self.push(st.finish, Ev::Finish { endpoint, token: st.token });
        }
    }

    /// Route a failed/shed/aborted attempt of the request in `slot` through
    /// the retry budget: schedule a backed-off re-issue or give up.
    fn retry_or_fail(&mut self, slot: usize, now: SimTime) {
        let r = self.slots[slot];
        match self.client.approve_retry(u32::from(r.attempt) + 1) {
            Some(backoff) if now + backoff < r.arrival + self.deadline => {
                self.push(now + backoff, Ev::Retry(slot));
            }
            _ => {
                self.release(slot);
                self.phases[usize::from(r.phase)].failed += 1;
            }
        }
    }

    /// Handle a finish event: surface the completion, settle the request,
    /// and start the endpoint's next queued request.
    fn finish(&mut self, endpoint: u32, token: u64, now: SimTime, service: &mut Service) {
        let Some(ep) = service.endpoint_index(endpoint) else { return };
        if service.endpoints[ep].serving.map(|s| s.token) != Some(token) {
            return; // stale: the attempt was aborted or superseded
        }
        let Some(c) = service.complete(ep, now) else { return };
        let slot = self.slot_of(token);
        if c.ok {
            self.client.note_success();
            let r = self.slots[slot];
            self.release(slot);
            let phase = &mut self.phases[usize::from(r.phase)];
            phase.completed += 1;
            if c.degraded {
                phase.degraded += 1;
            }
            phase.hist.record(now.since(r.arrival));
        } else {
            self.retry_or_fail(slot, now);
        }
        self.start(ep, now, service);
    }

    /// Handle endpoint-abort tokens returned by `sync`: the pod left the
    /// ready set with these attempts queued/in-flight — re-drive them
    /// through the retry path.
    fn handle_aborts(&mut self, aborted: Vec<u64>, now: SimTime) {
        for token in aborted {
            self.aborted_retried += 1;
            self.retry_or_fail(self.slot_of(token), now);
        }
    }
}

/// Boot a serving cluster for `config`: one node, a controller-managed
/// deployment of `plan.replicas` pods with readiness + liveness probes,
/// settled to ready.
fn serving_cluster(
    config: Config,
    workload: &Workload,
    plan: &TrafficPlan,
) -> KernelResult<(Cluster, DeploymentController)> {
    let mut cluster = Cluster::bootstrap()?;
    config.stack().install(&mut cluster, workload)?;
    warmup(&mut cluster, config)?;
    let mut spec =
        DeploymentSpec::new("svc", config.image_ref(), config.class_name(), plan.replicas);
    spec.max_unavailable = 1;
    spec.opts.readiness_probe =
        Some(ProbeSpec { period: Duration::from_secs(1), ..ProbeSpec::default() });
    spec.opts.liveness_probe = Some(ProbeSpec::default());
    let mut ctrl = DeploymentController::new(spec);
    let rounds = 50;
    if !cluster.settle_controller(&mut ctrl, rounds)? {
        return Err(crate::explorer::did_not_settle(&cluster, &ctrl, rounds));
    }
    Ok((cluster, ctrl))
}

/// Build the per-run [`Service`]: exec times from the engine profile, the
/// degraded-mode exec from the image's brownout annotation, the watchdog
/// budget from the liveness probe (deadline → epoch-watchdog propagation).
fn build_service(
    config: Config,
    cluster: &Cluster,
    ctrl: &DeploymentController,
    plan: &TrafficPlan,
) -> Service {
    let exec = request_exec(config);
    // The degraded mode is a *workload capability*, declared on the image:
    // the service reads the optional-work share back from the deployed
    // artifact's OCI annotation, not from harness config.
    let ppm = cluster
        .node(0)
        .containerd
        .image(&ctrl.spec.image)
        .and_then(|img| img.config.annotations.get(oci_spec_lite::BROWNOUT_ANNOTATION))
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0)
        .min(1_000_000);
    let exec_degraded = Duration::from_nanos(exec.as_nanos() * (1_000_000 - ppm) / 1_000_000);
    let mut cfg = ServiceConfig::for_exec(exec, exec_degraded);
    if let Some(p) = &ctrl.spec.opts.liveness_probe {
        cfg.watchdog_budget = p.watchdog_budget();
    }
    Service::new(cfg, plan.seed)
}

/// Run `phases` of open-loop traffic against a serving cluster of
/// `config`. The core of every sweep, smoke, and contract leg.
pub fn run_traffic(
    config: Config,
    workload: &Workload,
    plan: &TrafficPlan,
    phases: &[PhaseSpec],
) -> KernelResult<TrafficRun> {
    let (cluster, ctrl) = serving_cluster(config, workload, plan)?;
    run_traffic_on(config, cluster, ctrl, plan, phases, false)
}

fn run_traffic_on(
    config: Config,
    mut cluster: Cluster,
    mut ctrl: DeploymentController,
    plan: &TrafficPlan,
    phases: &[PhaseSpec],
    scenario: bool,
) -> KernelResult<TrafficRun> {
    let exec = request_exec(config);
    let mut service = build_service(config, &cluster, &ctrl, plan);
    service.sync(&cluster, &ctrl);

    let budget =
        if plan.retry_budget_enabled { RetryBudget::new() } else { RetryBudget::disabled() };
    let policy = RetryPolicy::new(exec);

    // A request's phase and attempt count are stored as bytes.
    assert!(phases.len() <= 256, "a traffic run has at most 256 phases");
    let execs = |n: u64| Duration::from_nanos(exec.as_nanos().saturating_mul(n));
    let mut lp = Loop {
        queue: CalendarQueue::default(),
        next_seq: 0,
        peak_live_events: 0,
        slots: Vec::new(),
        free: Vec::new(),
        phases: phases
            .iter()
            .map(|p| PhaseStats {
                arrivals: p.requests as u64,
                ..PhaseStats::new(p.label, p.measured)
            })
            .collect(),
        client: ResilientClient::new(policy, budget),
        attempts: 0,
        aborted_retried: 0,
        deadline: execs(DEADLINE_EXECS),
    };

    // Arrivals are streamed, one drawn ahead, and merged with the queue.
    let start = cluster.now();
    let mut arrivals = Arrivals::new(phases, start);
    let mut next_arrival = arrivals.advance(&mut lp.phases);
    // Ticks go on this long after the last arrival even with nothing queued.
    let drain = execs(256);

    let mut next_tick = start + TICK;
    lp.push(next_tick, Ev::Tick);

    let mut scenario_obs = scenario.then(|| {
        (
            0u64,
            false,
            ScenarioObservation {
                rollout_done: false,
                min_ready_during_rollout: usize::MAX,
                ready_floor: ctrl.spec.replicas.saturating_sub(ctrl.spec.max_unavailable),
                inflight_during_rollout: false,
                scaled_up: false,
                final_replicas: 0,
            },
        )
    });

    loop {
        // Arrival first on a tie: a request arriving in the same nanosecond
        // as a tick, finish or retry is served before it, so the
        // queue yields only what is due strictly before the next arrival.
        // (Among queued events push order decides; see `Loop::queue`.)
        let queued = match next_arrival {
            Some((at, _)) => lp.queue.pop_before(at),
            None => lp.queue.pop(),
        };
        // Either way the cluster's clock moves to the event's instant
        // first. (`since` saturates: a tick that rode out a termination
        // grace period leaves the clock ahead of the events it overtook,
        // and time never runs backwards.)
        let Some((now, (_, ev))) = queued else {
            let Some((now, phase)) = next_arrival else { break };
            cluster.advance(now.since(cluster.now()));
            lp.arrive(phase, now, &mut service);
            next_arrival = arrivals.advance(&mut lp.phases);
            continue;
        };
        cluster.advance(now.since(cluster.now()));
        match ev {
            Ev::Retry(slot) => lp.issue(slot, now, &mut service),
            Ev::Finish { endpoint, token } => lp.finish(endpoint, token, now, &mut service),
            Ev::Tick => {
                cluster.reconcile();

                // Scenario hooks: rolling update, then HPA on the live
                // service's queue depth.
                if let Some((ticks, rollout_begun, obs)) = scenario_obs.as_mut() {
                    *ticks += 1;
                    if *ticks == ROLLOUT_AFTER_TICKS && !*rollout_begun {
                        *rollout_begun = true;
                        let v2 = ctrl.spec.image.replace(":v1", ":v2");
                        cluster.begin_rolling_update(&mut ctrl, &v2);
                    }
                    if *rollout_begun && !obs.rollout_done {
                        let inflight: usize = service.endpoints.iter().map(|e| e.depth()).sum();
                        if inflight > 0 {
                            obs.inflight_during_rollout = true;
                        }
                        let step = cluster.rollout_step(&mut ctrl)?;
                        let ready = cluster.ready_replicas(&ctrl);
                        obs.min_ready_during_rollout = obs.min_ready_during_rollout.min(ready);
                        if step.done {
                            obs.rollout_done = true;
                        }
                    } else if obs.rollout_done
                        && cluster.autoscale(&mut ctrl, &SCENARIO_HPA, &service)?
                    {
                        obs.scaled_up = true;
                    }
                    obs.final_replicas = ctrl.spec.replicas;
                }

                let aborted = service.sync(&cluster, &ctrl);
                lp.handle_aborts(aborted, now);
                service.tick(&mut cluster)?;
                // Sync may have rebuilt endpoints with idle servers and
                // queued work — restart them.
                for ep in 0..service.endpoints.len() {
                    lp.start(ep, now, &mut service);
                }

                next_tick += TICK;
                if next_arrival.is_some()
                    || next_tick <= arrivals.last + drain
                    || !lp.queue.is_empty()
                {
                    lp.push(next_tick, Ev::Tick);
                }
            }
        }
    }

    // Account still-unresolved requests as failures (queue drained — only
    // requests stuck behind open breakers with exhausted budgets remain).
    for r in lp.slots.iter().filter(|r| r.live) {
        lp.phases[usize::from(r.phase)].failed += 1;
    }

    let mut endpoint_working_set = 0u64;
    for ep in &service.endpoints {
        let node = cluster.node(ep.node);
        if let Some(sb) = node.containerd.sandbox(&ep.pod) {
            endpoint_working_set += node.kernel.cgroup_working_set(sb.pod_cgroup)?;
        }
    }

    Ok(TrafficRun {
        config,
        phases: lp.phases,
        sheds_by_reason: service.sheds,
        admitted: service.admitted,
        attempts: lp.attempts,
        breaker_opens: service.endpoints.iter().map(|e| e.breaker.opened_total).sum::<u64>(),
        brownout_engagements: service.brownout_engagements,
        aborted_retried: lp.aborted_retried,
        peak_live_events: lp.peak_live_events,
        endpoint_working_set,
        scenario: scenario_obs.map(|(_, _, obs)| obs),
    })
}

// ---------------------------------------------------------------------------
// The steady-state sweep.

/// Shape of one steady-state sweep cell.
#[derive(Debug, Clone, Copy)]
pub struct SweepPlan {
    pub traffic: TrafficPlan,
    /// Measured requests per cell (after a short warmup).
    pub requests: usize,
    /// Offered load as a fraction of deployment capacity
    /// (`replicas × pod_capacity`).
    pub load_factor: f64,
}

impl SweepPlan {
    pub fn new(seed: u64) -> SweepPlan {
        SweepPlan { traffic: TrafficPlan::new(seed), requests: 280_000, load_factor: 0.8 }
    }

    /// The CI smoke shape: one config, a few thousand requests.
    pub fn smoke(seed: u64) -> SweepPlan {
        SweepPlan { traffic: TrafficPlan::new(seed), requests: 6_000, load_factor: 0.8 }
    }
}

/// Summary row of one sweep cell.
#[derive(Debug, Clone)]
pub struct TrafficSummary {
    pub config: Config,
    pub p50: Duration,
    pub p99: Duration,
    pub p999: Duration,
    pub goodput_rps: f64,
    pub shed_rate: f64,
    /// Bytes of endpoint working set per RPS of goodput.
    pub(crate) mem_per_rps: f64,
    pub run: TrafficRun,
}

/// One steady-state cell: warmup arrivals, then `plan.requests` measured
/// Poisson arrivals at `load_factor × capacity`.
pub fn run_steady_cell(
    config: Config,
    workload: &Workload,
    plan: &SweepPlan,
) -> KernelResult<TrafficSummary> {
    let rate = plan.load_factor * plan.traffic.replicas as f64 * pod_capacity_rps(config);
    let phases = [
        PhaseSpec {
            label: "warmup",
            profile: ArrivalProfile::Poisson { rate_rps: rate },
            requests: (plan.requests / 20).max(50),
            seed: plan.traffic.seed ^ 0x57AB,
            measured: false,
        },
        PhaseSpec {
            label: "steady",
            profile: ArrivalProfile::Poisson { rate_rps: rate },
            requests: plan.requests,
            seed: plan.traffic.seed,
            measured: true,
        },
    ];
    let run = run_traffic(config, workload, &plan.traffic, &phases)?;
    let steady = &run.phases[1];
    Ok(TrafficSummary {
        config,
        p50: steady.hist.quantile(0.50),
        p99: steady.hist.quantile(0.99),
        p999: steady.hist.quantile(0.999),
        goodput_rps: steady.goodput_rps(),
        shed_rate: steady.shed_rate(),
        mem_per_rps: run.mem_per_rps(steady.goodput_rps()),
        run,
    })
}

/// The traffic sweep: one steady-state cell per config, in config order.
pub fn traffic_sweep(
    configs: &[Config],
    workload: &Workload,
    plan: &SweepPlan,
) -> KernelResult<(Table, Vec<TrafficSummary>)> {
    let summaries = configs
        .iter()
        .map(|&c| run_steady_cell(c, workload, plan))
        .collect::<KernelResult<Vec<_>>>()?;

    let mut table = Table::new(
        format!(
            "Request serving at {:.0}% of capacity ({} replicas, {} requests/config)",
            plan.load_factor * 100.0,
            plan.traffic.replicas,
            plan.requests
        ),
        vec![
            "p50 ms".into(),
            "p99 ms".into(),
            "p999 ms".into(),
            "goodput rps".into(),
            "shed %".into(),
            "MiB per rps".into(),
        ],
        "",
    );
    for s in &summaries {
        table.row(
            s.config.label(),
            vec![
                s.p50.as_secs_f64() * 1e3,
                s.p99.as_secs_f64() * 1e3,
                s.p999.as_secs_f64() * 1e3,
                s.goodput_rps,
                s.shed_rate * 100.0,
                s.mem_per_rps / (1 << 20) as f64,
            ],
            s.config.is_ours(),
        );
    }
    Ok((table, summaries))
}

// ---------------------------------------------------------------------------
// The overload-and-recover contract.

/// Shape of one contract run.
#[derive(Debug, Clone, Copy)]
pub struct ContractPlan {
    pub traffic: TrafficPlan,
    /// Baseline/recovery arrivals (at 0.5× capacity).
    pub baseline_requests: usize,
    /// Overload arrivals (at 3× capacity).
    pub overload_requests: usize,
    /// Settle arrivals between overload and the measured recovery leg
    /// (the detection horizon, at 0.5× capacity).
    pub settle_requests: usize,
}

impl ContractPlan {
    pub fn new(seed: u64) -> ContractPlan {
        ContractPlan {
            traffic: TrafficPlan::new(seed),
            baseline_requests: 4_000,
            overload_requests: 12_000,
            settle_requests: 1_000,
        }
    }

    pub fn smoke(seed: u64) -> ContractPlan {
        ContractPlan {
            traffic: TrafficPlan::new(seed),
            baseline_requests: 1_500,
            overload_requests: 4_500,
            settle_requests: 500,
        }
    }
}

/// What the contract's treatment and control runs observed.
#[derive(Debug, Clone)]
pub struct ContractOutcome {
    pub config: Config,
    pub(crate) single_pod_capacity_rps: f64,
    /// p99 of the pre-overload baseline leg.
    pub baseline_p99: Duration,
    /// Goodput and p99 under 3× overload (treatment arm).
    pub overload_goodput_rps: f64,
    pub overload_p99: Duration,
    pub overload_shed_rate: f64,
    /// p99 of the measured recovery leg (same arrival seed as baseline).
    pub recovered_p99: Duration,
    /// Total attempts issued by the treatment run.
    pub treatment_attempts: u64,
    /// The control arm (retry budget disabled) under the same overload.
    pub control_goodput_rps: f64,
    pub control_attempts: u64,
    pub treatment: TrafficRun,
    pub control: TrafficRun,
}

/// Run the overload-and-recover scenario for one config: baseline at 0.5×,
/// overload at 3×, settle, then recovery replaying the baseline's exact
/// arrival seed — plus the control arm (budget disabled) over the same
/// warm+overload prefix.
pub fn run_overload_contract(
    config: Config,
    workload: &Workload,
    plan: &ContractPlan,
) -> KernelResult<ContractOutcome> {
    let capacity = plan.traffic.replicas as f64 * pod_capacity_rps(config);
    let low = ArrivalProfile::Poisson { rate_rps: 0.5 * capacity };
    let high = ArrivalProfile::Poisson { rate_rps: 3.0 * capacity };
    let seed = plan.traffic.seed;
    let s_baseline = seed ^ 0xBA5E;
    let phases = [
        PhaseSpec {
            label: "warmup",
            profile: low,
            requests: (plan.baseline_requests / 10).max(50),
            seed: seed ^ 0x57AB,
            measured: false,
        },
        PhaseSpec {
            label: "baseline",
            profile: low,
            requests: plan.baseline_requests,
            seed: s_baseline,
            measured: true,
        },
        PhaseSpec {
            label: "overload",
            profile: high,
            requests: plan.overload_requests,
            seed: seed ^ 0x0CE4,
            measured: true,
        },
        PhaseSpec {
            label: "settle",
            profile: low,
            requests: plan.settle_requests,
            seed: seed ^ 0x5E77,
            measured: false,
        },
        // The recovery leg replays the baseline's seed: identical arrival
        // gaps, so p99 re-convergence is judged against a like-for-like
        // sequence.
        PhaseSpec {
            label: "recovery",
            profile: low,
            requests: plan.baseline_requests,
            seed: s_baseline,
            measured: true,
        },
    ];
    let treatment = run_traffic(config, workload, &plan.traffic, &phases)?;

    let mut control_plan = plan.traffic;
    control_plan.retry_budget_enabled = false;
    let control = run_traffic(config, workload, &control_plan, &phases[..3])?;

    let baseline = &treatment.phases[1];
    let overload = &treatment.phases[2];
    let recovery = &treatment.phases[4];
    let control_overload = &control.phases[2];
    Ok(ContractOutcome {
        config,
        single_pod_capacity_rps: pod_capacity_rps(config),
        baseline_p99: baseline.hist.quantile(0.99),
        overload_goodput_rps: overload.goodput_rps(),
        overload_p99: overload.hist.quantile(0.99),
        overload_shed_rate: overload.shed_rate(),
        recovered_p99: recovery.hist.quantile(0.99),
        treatment_attempts: treatment.attempts,
        control_goodput_rps: control_overload.goodput_rps(),
        control_attempts: control.attempts,
        treatment,
        control,
    })
}

/// Check one contract outcome: goodput floor under overload, bounded p99
/// for admitted requests, p99 re-convergence after recovery, shedding
/// actually happened, and the control arm demonstrably degrading. (No bound
/// depends on the plan any more; the parameter stays because `benchmark/`
/// calls this by signature.)
pub fn check_contract(o: &ContractOutcome, _plan: &ContractPlan) -> Result<(), String> {
    let label = o.config.label();
    let exec = request_exec(o.config);

    // 1. Goodput floor: ≥ 70% of single-pod capacity while 3× overloaded.
    let floor = 0.70 * o.single_pod_capacity_rps;
    if o.overload_goodput_rps < floor {
        return Err(format!(
            "{label}: overload goodput {:.1} rps below floor {:.1} rps",
            o.overload_goodput_rps, floor
        ));
    }

    // 2. The system actually shed (otherwise the scenario is vacuous).
    if o.overload_shed_rate < 0.2 {
        return Err(format!(
            "{label}: only {:.1}% of overload arrivals shed — not overloaded",
            o.overload_shed_rate * 100.0
        ));
    }

    // 3. Bounded p99 for admitted requests under overload, in units of
    //    exec: queue wait inflated by reject work (each shed charges
    //    exec/8 of server time; at 3× offered load roughly two sheds
    //    interleave per service, ×1.25), plus the full retry backoff
    //    chain (1+2+4 execs at `MAX_ATTEMPTS` = 4), plus scheduling slack.
    //    Stays well under the 64-exec deadline — the point is that the
    //    bounded queue keeps admitted-request latency *bounded*, where an
    //    unbounded queue under 3× load grows without limit.
    let bound_execs = 2 * QUEUE_CAPACITY as u64 + 16;
    let bound_ns = exec.as_nanos().saturating_mul(bound_execs);
    if o.overload_p99.as_nanos() > bound_ns {
        return Err(format!(
            "{label}: overload p99 {:.2} ms exceeds bound {:.2} ms",
            o.overload_p99.as_secs_f64() * 1e3,
            bound_ns as f64 / 1e6
        ));
    }

    // 4. Recovery: p99 back within 10% of the pre-overload baseline. The
    //    bound is one-sided — recovery replays the baseline's exact
    //    arrival seed, so a *lower* p99 (e.g. a tail of brownout-fast
    //    responses while hysteresis disengages) is a pass, not a drift.
    let (b, r) = (o.baseline_p99.as_nanos() as f64, o.recovered_p99.as_nanos() as f64);
    if r > 1.10 * b {
        return Err(format!(
            "{label}: recovered p99 {:.3} ms not within 10% of baseline {:.3} ms",
            r / 1e6,
            b / 1e6
        ));
    }

    // 5. The control arm demonstrably degrades: without the retry budget,
    //    retry amplification melts goodput and multiplies attempts.
    if o.control_goodput_rps >= 0.85 * o.overload_goodput_rps {
        return Err(format!(
            "{label}: control goodput {:.1} rps not degraded vs treatment {:.1} rps",
            o.control_goodput_rps, o.overload_goodput_rps
        ));
    }
    if o.control_attempts <= 2 * o.treatment_attempts {
        return Err(format!(
            "{label}: control attempts {} not amplified vs treatment {}",
            o.control_attempts, o.treatment_attempts
        ));
    }
    Ok(())
}

/// Run the contract for every config, in config order.
pub fn contract_sweep(
    configs: &[Config],
    workload: &Workload,
    plan: &ContractPlan,
) -> KernelResult<Vec<ContractOutcome>> {
    configs.iter().map(|&c| run_overload_contract(c, workload, plan)).collect()
}

/// The overload-recovery table (one row per config).
pub fn contract_table(outcomes: &[ContractOutcome]) -> Table {
    let mut table = Table::new(
        "Overload and recover: 3\u{d7} capacity, then back to 0.5\u{d7}".to_string(),
        vec![
            "baseline p99 ms".into(),
            "overload goodput rps".into(),
            "overload shed %".into(),
            "recovered p99 ms".into(),
            "control goodput rps".into(),
        ],
        "",
    );
    for o in outcomes {
        table.row(
            o.config.label(),
            vec![
                o.baseline_p99.as_secs_f64() * 1e3,
                o.overload_goodput_rps,
                o.overload_shed_rate * 100.0,
                o.recovered_p99.as_secs_f64() * 1e3,
                o.control_goodput_rps,
            ],
            o.config.is_ours(),
        );
    }
    table
}

// ---------------------------------------------------------------------------
// The long-running scenario: rolling update + HPA under live traffic.

/// Run the scenario driver: a 3-replica service under sustained traffic,
/// a rolling update to a v2 image begun mid-run (stepped from the live
/// tick loop, maxUnavailable asserted while requests are in flight), then
/// the HPA driven each tick on the queue-depth signal.
pub fn run_scenario(config: Config, workload: &Workload, seed: u64) -> KernelResult<TrafficRun> {
    let mut plan = TrafficPlan::new(seed);
    plan.replicas = SCENARIO_REPLICAS;
    let (mut cluster, ctrl) = serving_cluster(config, workload, &plan)?;
    // The update target: same workload, new tag — pulled up front so the
    // rollout can pull-and-start v2 pods mid-traffic.
    let v2 = ctrl.spec.image.replace(":v1", ":v2");
    cluster.pull_image(workloads::wasm_microservice_image(&v2, &workload.wasm))?;

    let capacity = plan.replicas as f64 * pod_capacity_rps(config);
    let phases = [
        PhaseSpec {
            label: "steady",
            profile: ArrivalProfile::Poisson { rate_rps: 0.6 * capacity },
            requests: 6_000,
            seed: seed ^ 0x5CE0,
            measured: true,
        },
        // The load step that should trip the queue-depth trigger once the
        // rollout has converged.
        PhaseSpec {
            label: "surge",
            profile: ArrivalProfile::Bursty {
                base_rps: 0.6 * capacity,
                burst_rps: 1.6 * capacity,
                period: Duration::from_secs(2),
            },
            requests: 6_000,
            seed: seed ^ 0x50CE,
            measured: true,
        },
    ];
    run_traffic_on(config, cluster, ctrl, &plan, &phases, true)
}

/// Check the scenario's contract: the rollout converged under live
/// traffic without breaching maxUnavailable, requests were in flight
/// while it stepped, and the HPA scaled up on the request-path signal.
pub fn check_scenario(run: &TrafficRun) -> Result<(), String> {
    let label = run.config.label();
    let obs = run
        .scenario
        .ok_or_else(|| format!("{label}: no scenario observation on a scenario run"))?;
    if !obs.rollout_done {
        return Err(format!("{label}: rolling update did not converge under traffic"));
    }
    if obs.min_ready_during_rollout < obs.ready_floor {
        return Err(format!(
            "{label}: ready replicas dropped to {} (< floor {}) during the rollout",
            obs.min_ready_during_rollout, obs.ready_floor
        ));
    }
    if !obs.inflight_during_rollout {
        return Err(format!("{label}: no requests in flight during the rollout — vacuous"));
    }
    if !obs.scaled_up {
        return Err(format!("{label}: HPA never scaled up on the queue-depth signal"));
    }
    let total: u64 = run.phases.iter().map(|p| p.completed).sum();
    let arrivals: u64 = run.phases.iter().map(|p| p.arrivals).sum();
    if (total as f64) < 0.5 * arrivals as f64 {
        return Err(format!("{label}: only {total}/{arrivals} requests served in the scenario"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_folds_the_histograms_of_the_measured_phases() {
        let samples = [[3_000, 9_000_000, 40_000], [120_000, 7, 2_500_000]];
        let mut phases = Vec::new();
        let mut both = LatencyHistogram::new();
        for (label, ns) in ["a", "b"].into_iter().zip(samples) {
            let mut p = PhaseStats::new(label, true);
            for d in ns.map(Duration::from_nanos) {
                p.hist.record(d);
                both.record(d);
            }
            phases.push(p);
        }
        let mut unmeasured = PhaseStats::new("warmup", false);
        unmeasured.hist.record(Duration::from_secs(1));
        phases.push(unmeasured);
        let run = TrafficRun {
            config: Config::WamrCrun,
            phases,
            sheds_by_reason: [0; 3],
            admitted: 0,
            attempts: 0,
            breaker_opens: 0,
            brownout_engagements: 0,
            aborted_retried: 0,
            peak_live_events: 0,
            endpoint_working_set: 0,
            scenario: None,
        };
        let hist = run.measured().hist;
        assert_eq!(hist.count(), 6);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(hist.quantile(q), both.quantile(q), "q={q}");
        }
    }

    #[test]
    fn request_exec_orders_engines() {
        // Interpreter-tier WAMR is the slow request path; JIT engines are
        // far faster; crun and shim variants of one engine share latency.
        assert!(request_exec(Config::WamrCrun) > request_exec(Config::CrunWasmEdge));
        assert!(request_exec(Config::CrunWasmEdge) > request_exec(Config::CrunWasmtime));
        assert_eq!(request_exec(Config::CrunWasmtime), request_exec(Config::ShimWasmtime));
        assert_eq!(request_exec(Config::CrunWasmer), request_exec(Config::ShimWasmer));
    }

    #[test]
    fn arrival_profiles_are_seed_deterministic() {
        let p = ArrivalProfile::Poisson { rate_rps: 100.0 };
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut ta = Duration::ZERO;
        let mut tb = Duration::ZERO;
        for _ in 0..1000 {
            ta = ta.saturating_add(p.next_gap(ta, &mut a));
            tb = tb.saturating_add(p.next_gap(tb, &mut b));
        }
        assert_eq!(ta, tb);
        // Mean gap ~ 10 ms at 100 rps: the 1000-arrival span lands near 10 s.
        let secs = ta.as_secs_f64();
        assert!((5.0..20.0).contains(&secs), "{secs}");
    }

    #[test]
    fn a_request_record_is_sixteen_bytes() {
        // The loop keeps one per request in flight, so a field added to it
        // must change this pin.
        assert_eq!(std::mem::size_of::<ReqState>(), 16);
    }

    #[test]
    fn bursty_rate_varies() {
        let b = ArrivalProfile::Bursty {
            base_rps: 10.0,
            burst_rps: 100.0,
            period: Duration::from_secs(2),
        };
        assert_eq!(b.rate_at(Duration::from_millis(500)), 10.0);
        assert_eq!(b.rate_at(Duration::from_millis(1_500)), 100.0);
    }
}
