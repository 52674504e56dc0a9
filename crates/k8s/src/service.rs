//! The Service/ingress layer: request routing with a full overload-control
//! plane.
//!
//! A [`Service`] fronts the ready pods of a [`DeploymentController`] the way
//! a Kubernetes Service + ingress does: readiness-gated endpoints,
//! deterministic pick-of-2 load balancing on live queue depth, per-pod
//! **bounded request queues**, and **admission control** that sheds with a
//! typed 503 ([`ShedReason`]) when the queue is full or the deadline has
//! passed. Rejecting is not free: each shed charges [`ServiceConfig::
//! reject_cost`] of server time to the picked endpoint, which is exactly the
//! mechanism that makes unbudgeted retry storms metastable — the reject work
//! alone can exceed capacity.
//!
//! On the client side sits the resilience stack ([`ResilientClient`]):
//! retries with exponential backoff capped by a **retry budget** (token
//! bucket refilled by ~10% of successes, so retries amplify nothing during
//! collapse) and **per-endpoint circuit breakers**
//! (closed → open → half-open on the DES clock). Half-open probes ride the
//! CRI probe RPC ([`containerd_sim::Containerd::probe`], drawing
//! [`simkernel::FaultSite::Probe`]) so a breaker never re-admits traffic to
//! a pod the kubelet has evicted, and fault plans stay deterministic.
//!
//! **Brownout**: when mean queue depth crosses [`BROWNOUT_HIGH_X1000`], the
//! service flips every function into degraded mode (skip optional work,
//! smaller response) until depth falls back below [`BROWNOUT_LOW_X1000`] —
//! shedding work before shedding requests.
//!
//! Deadlines propagate into the guest: a request's execution slice is capped
//! by `min(deadline remaining, watchdog budget)` — the same epoch-watchdog
//! budget the kubelet arms from the liveness probe — so a request that
//! cannot finish in time is interrupted at the cap, not allowed to run on.
//!
//! The service itself never advances any clock: callers (the traffic
//! harness's event loop) own time and drive [`Service::admit`] /
//! [`Service::try_start`] / [`Service::complete`] / [`Service::sync`]
//! explicitly, which is what makes whole traffic sweeps byte-identical
//! across worker counts.

use std::collections::VecDeque;

use simkernel::rng::SplitMix64;
use simkernel::{Duration, KernelResult, SimTime};

use crate::api::{DeploymentController, PodPhase};
use crate::cluster::Cluster;

/// Typed 503: why admission refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// No ready endpoint (or every endpoint's breaker is open).
    NoEndpoint,
    /// The picked endpoint's bounded queue is full.
    QueueFull,
    /// The request's deadline already passed (or cannot be met at all).
    Deadline,
}

impl ShedReason {
    pub(crate) const ALL: [ShedReason; 3] =
        [ShedReason::NoEndpoint, ShedReason::QueueFull, ShedReason::Deadline];

    pub(crate) fn index(self) -> usize {
        match self {
            ShedReason::NoEndpoint => 0,
            ShedReason::QueueFull => 1,
            ShedReason::Deadline => 2,
        }
    }
}

/// Circuit-breaker state (per endpoint, on the DES clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerState {
    /// Normal traffic; counting consecutive failures.
    Closed,
    /// No traffic; waiting out the cool-off before a half-open probe.
    Open,
    /// One trial request allowed; its outcome closes or re-opens.
    HalfOpen,
}

/// A per-endpoint circuit breaker: closed → open on consecutive failures,
/// open → half-open after the cool-off *and* a successful CRI probe of the
/// pod, half-open → closed on one trial success (or back to open on
/// failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitBreaker {
    pub(crate) state: BreakerState,
    pub(crate) consecutive_failures: u32,
    /// When the breaker last opened (cool-off counts from here).
    pub(crate) opened_at: SimTime,
    /// Times the breaker has opened over its lifetime.
    pub opened_total: u64,
    /// A half-open trial request is currently in flight.
    pub(crate) trial_inflight: bool,
}

impl CircuitBreaker {
    pub(crate) fn new() -> CircuitBreaker {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: SimTime::ZERO,
            opened_total: 0,
            trial_inflight: false,
        }
    }

    /// Does this breaker admit traffic right now? Half-open admits exactly
    /// one trial at a time.
    pub(crate) fn admits(&self) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => !self.trial_inflight,
        }
    }

    /// Record a service success. Closes a half-open breaker.
    pub(crate) fn on_success(&mut self) {
        self.consecutive_failures = 0;
        self.trial_inflight = false;
        self.state = BreakerState::Closed;
    }

    /// Record a service failure (timeout/interrupt — not an admission
    /// shed); the [`BREAKER_THRESHOLD`]th in a row opens a closed breaker.
    /// Returns `true` if this failure opened the breaker.
    pub(crate) fn on_failure(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::HalfOpen => {
                // The trial failed: straight back to open, cool-off re-armed.
                self.trial_inflight = false;
                self.state = BreakerState::Open;
                self.opened_at = now;
                self.opened_total += 1;
                true
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= BREAKER_THRESHOLD {
                    self.state = BreakerState::Open;
                    self.opened_at = now;
                    self.opened_total += 1;
                    true
                } else {
                    false
                }
            }
            BreakerState::Open => false,
        }
    }
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker::new()
    }
}

/// Client-side retry budget: a token bucket refilled by successes.
///
/// Costs and deposits are in millitokens so the ~10%-of-successes ratio is
/// exact integer arithmetic: each success deposits
/// [`RETRY_DEPOSIT_MILLITOKENS`], each retry costs
/// [`RETRY_COST_MILLITOKENS`] — so sustained retries are capped at 10% of
/// the success rate, which is what turns a retry storm back into a trickle
/// during collapse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBudget {
    /// Current balance, millitokens.
    pub(crate) millitokens: u64,
    /// `false` disables budget enforcement entirely — the contract's
    /// control arm, which demonstrably melts down under overload.
    pub(crate) enabled: bool,
}

/// Cost of one retry, millitokens.
pub(crate) const RETRY_COST_MILLITOKENS: u64 = 1_000;
/// Deposit per recorded success, millitokens.
const RETRY_DEPOSIT_MILLITOKENS: u64 = 100;
/// Bucket capacity, millitokens: ten retries.
const RETRY_BUDGET_CAP_MILLITOKENS: u64 = 10_000;

impl RetryBudget {
    /// Default budget: starts full at 10 tokens, refills at 10% of
    /// successes.
    pub fn new() -> RetryBudget {
        RetryBudget { millitokens: RETRY_BUDGET_CAP_MILLITOKENS, enabled: true }
    }

    /// The control arm: every retry is approved, nothing is ever counted.
    pub fn disabled() -> RetryBudget {
        RetryBudget { enabled: false, ..RetryBudget::new() }
    }

    /// Record a success (deposits into the bucket, saturating at the cap).
    pub(crate) fn deposit(&mut self) {
        if self.enabled {
            self.millitokens =
                (self.millitokens + RETRY_DEPOSIT_MILLITOKENS).min(RETRY_BUDGET_CAP_MILLITOKENS);
        }
    }

    /// Try to pay for one retry. A disabled budget always approves.
    pub(crate) fn try_withdraw(&mut self) -> bool {
        if !self.enabled {
            return true;
        }
        if self.millitokens >= RETRY_COST_MILLITOKENS {
            self.millitokens -= RETRY_COST_MILLITOKENS;
            true
        } else {
            false
        }
    }
}

impl Default for RetryBudget {
    fn default() -> Self {
        RetryBudget::new()
    }
}

/// Total attempts a request gets, the first included (so
/// `MAX_ATTEMPTS - 1` retries).
pub const MAX_ATTEMPTS: u32 = 4;

/// Exponential-backoff retry policy (client side), at most
/// [`MAX_ATTEMPTS`] attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    pub(crate) base_backoff: Duration,
    pub(crate) max_backoff: Duration,
}

impl RetryPolicy {
    pub fn new(base_backoff: Duration) -> RetryPolicy {
        RetryPolicy {
            base_backoff,
            max_backoff: Duration::from_nanos(base_backoff.as_nanos().saturating_mul(16)),
        }
    }

    /// Backoff before attempt `attempt` (2, 3, …): `base × 2^(attempt-2)`,
    /// capped.
    pub(crate) fn backoff_for(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(2).min(20);
        let ns = self.base_backoff.as_nanos().saturating_mul(1u64 << shift);
        Duration::from_nanos(ns.min(self.max_backoff.as_nanos()))
    }
}

/// The client-side resilience stack: retry budget + backoff policy. Owned
/// by the traffic generator; every retry decision goes through
/// [`ResilientClient::approve_retry`] so retries can never amplify load
/// past the budget.
#[derive(Debug, Clone, Copy)]
pub struct ResilientClient {
    pub(crate) budget: RetryBudget,
    pub(crate) policy: RetryPolicy,
}

impl ResilientClient {
    pub fn new(policy: RetryPolicy, budget: RetryBudget) -> ResilientClient {
        ResilientClient { budget, policy }
    }

    /// Record a request success (refills the retry budget).
    pub fn note_success(&mut self) {
        self.budget.deposit();
    }

    /// May attempt `next_attempt` (2, 3, …) proceed? Returns the backoff to
    /// wait, or `None` when the attempt cap or the retry budget says stop.
    pub fn approve_retry(&mut self, next_attempt: u32) -> Option<Duration> {
        if next_attempt > MAX_ATTEMPTS || !self.budget.try_withdraw() {
            return None;
        }
        Some(self.policy.backoff_for(next_attempt))
    }
}

/// One queued request on an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QueuedReq {
    /// Caller-assigned token (unique per attempt).
    pub(crate) token: u64,
    /// Absolute deadline; the execution slice is capped to it.
    pub(crate) deadline: SimTime,
}

/// A request the endpoint's single server is executing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight {
    pub token: u64,
    /// When the server will surface the outcome.
    pub(crate) finish: SimTime,
    /// `true`: served to completion. `false`: the epoch watchdog interrupted
    /// it at the execution cap (deadline or watchdog budget) — a failure.
    pub(crate) served: bool,
    /// Served in brownout (degraded) mode.
    pub(crate) degraded: bool,
}

/// One ready pod behind the service: a single-server FIFO queue plus its
/// circuit breaker.
#[derive(Debug, Clone)]
pub struct Endpoint {
    /// Stable handle assigned by [`Service::sync`] when the pod first joins
    /// the ready set: never reused, and carried across syncs with the rest
    /// of the endpoint's state, so a caller can name an endpoint in a
    /// `Copy` event while indices shift underneath it.
    pub id: u32,
    /// Pod name on its node's kubelet.
    pub pod: String,
    /// Node index hosting the pod.
    pub node: usize,
    pub(crate) queue: VecDeque<QueuedReq>,
    pub serving: Option<InFlight>,
    pub breaker: CircuitBreaker,
    /// Server busy until this instant (service work + reject costs).
    pub(crate) busy_until: SimTime,
}

impl Endpoint {
    fn new(id: u32, pod: String, node: usize) -> Endpoint {
        Endpoint {
            id,
            pod,
            node,
            queue: VecDeque::new(),
            serving: None,
            breaker: CircuitBreaker::new(),
            busy_until: SimTime::ZERO,
        }
    }

    /// Live depth the balancer and admission control see: queued requests
    /// plus the one being served.
    pub fn depth(&self) -> usize {
        self.queue.len() + usize::from(self.serving.is_some())
    }
}

/// Bounded per-endpoint queue capacity (excluding the in-service slot).
pub const QUEUE_CAPACITY: usize = 16;
/// Consecutive failures that open an endpoint's breaker.
const BREAKER_THRESHOLD: u32 = 5;
/// Mean endpoint depth (×1000, over ready endpoints) at or above which
/// brownout engages.
const BROWNOUT_HIGH_X1000: u64 = 6_000;
/// Mean depth (×1000) at or below which brownout disengages.
const BROWNOUT_LOW_X1000: u64 = 2_000;

/// Service policy knobs, scaled from one deployment's execution time.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Server time one rejection costs the picked endpoint (parsing +
    /// writing the 503). This is why unbudgeted retry storms are
    /// metastable: reject work alone can exceed capacity.
    pub(crate) reject_cost: Duration,
    /// Full-service execution time per request on this deployment's
    /// runtime (derived from the engine profile by the harness).
    pub(crate) exec: Duration,
    /// Degraded-mode execution time (optional work skipped).
    pub(crate) exec_degraded: Duration,
    /// Open → half-open probe delay.
    pub(crate) breaker_cooloff: Duration,
    /// Execution cap from the guest's epoch watchdog (the kubelet arms the
    /// same budget from the liveness probe). Deadline propagation takes
    /// `min(deadline remaining, watchdog_budget)`.
    pub watchdog_budget: Duration,
}

impl ServiceConfig {
    /// Defaults scaled from one full-service execution time.
    pub fn for_exec(exec: Duration, exec_degraded: Duration) -> ServiceConfig {
        let ns = exec.as_nanos();
        ServiceConfig {
            reject_cost: Duration::from_nanos(ns / 8),
            exec,
            exec_degraded,
            breaker_cooloff: Duration::from_nanos(ns.saturating_mul(64).max(1_000_000)),
            watchdog_budget: Duration::from_secs(30),
        }
    }
}

/// What [`Service::admit`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admitted {
    /// Endpoint index the request was queued on.
    pub(crate) endpoint: usize,
    /// The endpoint's server is idle — the caller should
    /// [`Service::try_start`] it now.
    pub server_idle: bool,
}

/// What [`Service::try_start`] started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Started {
    pub token: u64,
    pub finish: SimTime,
    /// `false`: the epoch watchdog will interrupt at `finish` (cap hit).
    pub(crate) served: bool,
    pub(crate) degraded: bool,
}

/// What [`Service::complete`] reported for a finished request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    pub(crate) token: u64,
    /// Served to completion (vs interrupted at the execution cap).
    pub ok: bool,
    pub degraded: bool,
    /// The failure opened the endpoint's breaker.
    pub(crate) opened_breaker: bool,
}

/// The Service/ingress: readiness-gated endpoints, pick-of-2 routing,
/// bounded queues, admission control, breakers, brownout.
#[derive(Debug, Clone)]
pub struct Service {
    pub(crate) config: ServiceConfig,
    pub endpoints: Vec<Endpoint>,
    /// Brownout engaged: new starts run in degraded mode.
    pub(crate) degraded: bool,
    /// Times brownout engaged.
    pub brownout_engagements: u64,
    /// Sheds by [`ShedReason::index`].
    pub sheds: [u64; ShedReason::ALL.len()],
    /// Total requests admitted.
    pub admitted: u64,
    /// Routing RNG (pick-of-2); seeded, service-owned, deterministic.
    rng: SplitMix64,
    /// The next [`Endpoint::id`] `sync` hands out.
    next_endpoint_id: u32,
}

impl Service {
    pub fn new(config: ServiceConfig, seed: u64) -> Service {
        Service {
            config,
            endpoints: Vec::new(),
            degraded: false,
            brownout_engagements: 0,
            sheds: [0; ShedReason::ALL.len()],
            admitted: 0,
            rng: SplitMix64::new(seed),
            next_endpoint_id: 0,
        }
    }

    /// Current index of the endpoint `sync` gave `id` to (`None` once its
    /// pod has left the ready set).
    pub fn endpoint_index(&self, id: u32) -> Option<usize> {
        self.endpoints.iter().position(|e| e.id == id)
    }

    /// Rebuild the endpoint list from the controller's currently-ready
    /// replicas (readiness gating: a pod joins only while Running *and*
    /// ready on its node). Existing endpoint state (id, queue, breaker)
    /// carries over by pod name, a pod joining gets the next
    /// unused id; endpoints whose pod left the ready set are dropped and
    /// their queued/in-flight tokens returned so the client can
    /// abort-and-retry them.
    pub fn sync(&mut self, cluster: &Cluster, ctrl: &DeploymentController) -> Vec<u64> {
        let mut fresh: Vec<Endpoint> = Vec::with_capacity(ctrl.replicas.len());
        for r in &ctrl.replicas {
            let node = &cluster.nodes[r.node];
            let ready = node.alive
                && node
                    .kubelet
                    .managed_pod(&r.pod)
                    .is_some_and(|e| e.phase == PodPhase::Running && e.ready);
            if !ready {
                continue;
            }
            match self.endpoints.iter().position(|e| e.pod == r.pod) {
                Some(i) => {
                    let mut ep = self.endpoints.swap_remove(i);
                    ep.node = r.node;
                    fresh.push(ep);
                }
                None => {
                    fresh.push(Endpoint::new(self.next_endpoint_id, r.pod.clone(), r.node));
                    self.next_endpoint_id += 1;
                }
            }
        }
        // Whatever is left lost its pod: abort its queued and in-flight
        // requests (their tokens go back to the client for retry).
        let mut aborted = Vec::new();
        for ep in self.endpoints.drain(..) {
            aborted.extend(ep.queue.iter().map(|q| q.token));
            if let Some(s) = ep.serving {
                aborted.push(s.token);
            }
        }
        self.endpoints = fresh;
        aborted
    }

    /// Deterministic pick-of-2 on live queue depth over breaker-admitting
    /// endpoints (ties break to the lower index). `exclude` skips an
    /// endpoint. (The traffic loop passes `None`; the parameter stays
    /// because `benchmark/` calls this by signature.)
    pub fn route(&mut self, exclude: Option<usize>) -> Result<usize, ShedReason> {
        // The candidates are never collected, so routing allocates nothing:
        // the k-th one is found by walking the endpoints (a handful) again,
        // and when every endpoint is a candidate — the usual case — it is
        // simply endpoint k.
        let endpoints = &self.endpoints;
        let candidates = || {
            (0..endpoints.len()).filter(|&i| Some(i) != exclude && endpoints[i].breaker.admits())
        };
        let n = candidates().count();
        let kth = |k: usize| {
            if n == endpoints.len() {
                k
            } else {
                candidates().nth(k).expect("k < candidate count")
            }
        };
        match n {
            0 => Err(ShedReason::NoEndpoint),
            1 => Ok(kth(0)),
            _ => {
                let a = kth(self.rng.index(n));
                let b = kth(self.rng.index(n));
                let (da, db) = (self.endpoints[a].depth(), self.endpoints[b].depth());
                if db < da || (db == da && b < a) {
                    Ok(b)
                } else {
                    Ok(a)
                }
            }
        }
    }

    /// Admission control at endpoint `ep`: shed (typed 503) when the
    /// deadline already passed or the bounded queue is full. A shed charges
    /// [`ServiceConfig::reject_cost`] of server time to the endpoint.
    /// On success the request is queued FIFO.
    pub fn admit(
        &mut self,
        ep: usize,
        now: SimTime,
        token: u64,
        deadline: SimTime,
    ) -> Result<Admitted, ShedReason> {
        let e = &mut self.endpoints[ep];
        let verdict = if deadline <= now {
            Err(ShedReason::Deadline)
        } else if e.queue.len() >= QUEUE_CAPACITY {
            Err(ShedReason::QueueFull)
        } else {
            Ok(())
        };
        match verdict {
            Ok(()) => {
                let server_idle = e.serving.is_none();
                e.queue.push_back(QueuedReq { token, deadline });
                if e.breaker.state == BreakerState::HalfOpen {
                    e.breaker.trial_inflight = true;
                }
                self.admitted += 1;
                Ok(Admitted { endpoint: ep, server_idle })
            }
            Err(reason) => {
                // Rejecting costs server time too — the metastability lever.
                let from = if e.busy_until > now { e.busy_until } else { now };
                e.busy_until = from + self.config.reject_cost;
                self.sheds[reason.index()] += 1;
                Err(reason)
            }
        }
    }

    /// Start the next queued request on `ep` if its server is free. The
    /// execution slice is `min(full service, deadline remaining, watchdog
    /// budget)`; a capped slice means the epoch watchdog interrupts the
    /// guest at the cap and the request fails at that instant. Returns what
    /// started (the caller schedules [`Service::complete`] at `finish`).
    pub fn try_start(&mut self, ep: usize, now: SimTime) -> Option<Started> {
        let degraded = self.degraded;
        let exec = if degraded { self.config.exec_degraded } else { self.config.exec };
        let watchdog = self.config.watchdog_budget;
        let e = &mut self.endpoints[ep];
        if e.serving.is_some() {
            return None;
        }
        let q = e.queue.pop_front()?;
        // The server may still be draining reject work: starts queue behind
        // `busy_until`.
        let start = if e.busy_until > now { e.busy_until } else { now };
        let remaining = q.deadline.since(start);
        let cap = remaining.min(watchdog);
        let served = exec <= cap;
        let slice = if served { exec } else { cap };
        let finish = start + slice;
        e.busy_until = finish;
        e.serving = Some(InFlight { token: q.token, finish, served, degraded });
        Some(Started { token: q.token, finish, served, degraded })
    }

    /// Surface the outcome of the request `ep` finished at `now`: success
    /// feeds the breaker's closed path, an interrupt (execution cap) counts
    /// as a failure and may open the breaker. The caller should
    /// [`Service::try_start`] the endpoint again for the next queued
    /// request.
    pub fn complete(&mut self, ep: usize, now: SimTime) -> Option<Completion> {
        let e = &mut self.endpoints[ep];
        let s = e.serving.take()?;
        let opened = if s.served {
            e.breaker.on_success();
            false
        } else {
            e.breaker.on_failure(now)
        };
        Some(Completion {
            token: s.token,
            ok: s.served,
            degraded: s.degraded,
            opened_breaker: opened,
        })
    }

    /// The periodic half of the overload plane, at the cluster's current
    /// time: drive open breakers toward half-open, then evaluate brownout.
    pub fn tick(&mut self, cluster: &mut Cluster) -> KernelResult<()> {
        self.tick_breakers(cluster)?;
        self.tick_brownout();
        Ok(())
    }

    /// Drive open breakers toward half-open: once the cool-off elapses, the
    /// endpoint is probed through the CRI probe RPC (the same
    /// [`simkernel::FaultSite::Probe`]-drawing path the kubelet's health
    /// probes use) — so a breaker only re-admits traffic to a pod that
    /// still exists and answers, and fault plans stay deterministic. A
    /// failed probe re-arms the cool-off.
    fn tick_breakers(&mut self, cluster: &mut Cluster) -> KernelResult<()> {
        let now = cluster.now();
        let cooloff = self.config.breaker_cooloff;
        for e in &mut self.endpoints {
            if e.breaker.state != BreakerState::Open || now.since(e.breaker.opened_at) < cooloff {
                continue;
            }
            let node = &mut cluster.nodes[e.node];
            let ok = node.alive && node.containerd.probe(&e.pod)?;
            if ok {
                e.breaker.state = BreakerState::HalfOpen;
                e.breaker.trial_inflight = false;
            } else {
                e.breaker.opened_at = now;
            }
        }
        Ok(())
    }

    /// Mean endpoint depth over ready endpoints, thousandths.
    pub(crate) fn mean_depth_x1000(&self) -> u64 {
        if self.endpoints.is_empty() {
            return 0;
        }
        let total: u64 = self.endpoints.iter().map(|e| e.depth() as u64).sum();
        total * 1000 / self.endpoints.len() as u64
    }

    /// Evaluate the brownout policy against current mean depth (hysteresis:
    /// engage at `brownout_high`, disengage at `brownout_low`). Returns the
    /// mode after evaluation.
    fn tick_brownout(&mut self) -> bool {
        let depth = self.mean_depth_x1000();
        if !self.degraded && depth >= BROWNOUT_HIGH_X1000 {
            self.degraded = true;
            self.brownout_engagements += 1;
        } else if self.degraded && depth <= BROWNOUT_LOW_X1000 {
            self.degraded = false;
        }
        self.degraded
    }
}

/// A deterministic log-bucketed latency histogram (16 sub-buckets per
/// power of two, ~4-6% relative resolution): integer-only, so percentile
/// tables are byte-identical across worker counts and platforms.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max_ns: u64,
}

impl LatencyHistogram {
    pub fn new() -> LatencyHistogram {
        LatencyHistogram { counts: vec![0; 64 * 16], total: 0, max_ns: 0 }
    }

    fn bucket(ns: u64) -> usize {
        if ns < 16 {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros() as usize;
        let frac = ((ns >> (e - 4)) & 0b1111) as usize;
        e * 16 + frac
    }

    /// Representative (upper-bound) latency of a bucket.
    fn bucket_high(b: usize) -> u64 {
        if b < 16 {
            return b as u64;
        }
        let (e, frac) = (b / 16, (b % 16) as u64);
        (1u64 << e) + ((frac + 1) << (e - 4)) - 1
    }

    /// Add `other`'s samples: the counts bucket by bucket, the larger
    /// maximum.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (count, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *count += theirs;
        }
        self.total += other.total;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    pub fn record(&mut self, latency: Duration) {
        let ns = latency.as_nanos();
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Latency at quantile `q` (0 < q ≤ 1): the upper bound of the bucket
    /// holding the `ceil(q × total)`-th observation (exact max for q = 1
    /// when it falls in the top bucket).
    pub fn quantile(&self, q: f64) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Duration::from_nanos(Self::bucket_high(b).min(self.max_ns));
            }
        }
        Duration::from_nanos(self.max_ns)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> ServiceConfig {
        ServiceConfig::for_exec(Duration::from_millis(5), Duration::from_millis(3))
    }

    /// A service with `n` synthetic endpoints (no cluster behind them —
    /// the pure state machines under test).
    fn test_service(n: usize) -> Service {
        let mut s = Service::new(test_config(), 7);
        for i in 0..n {
            s.endpoints.push(Endpoint::new(i as u32, format!("pod-{i}"), 0));
        }
        s
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(ms)
    }

    #[test]
    fn bounded_queue_sheds_in_fifo_order() {
        let mut s = test_service(1);
        let deadline = t(10_000);
        for token in 0..16u64 {
            s.admit(0, t(0), token, deadline).unwrap();
        }
        // Bounded queue at capacity 16: the 17th admission sheds.
        let err = s.admit(0, t(0), 16, deadline).unwrap_err();
        assert_eq!(err, ShedReason::QueueFull);
        assert_eq!(s.sheds[ShedReason::QueueFull.index()], 1);
        // FIFO: starts pop in admission order.
        for expect in 0..16u64 {
            let started = s.try_start(0, t(0)).expect("queued request");
            assert_eq!(started.token, expect, "FIFO order");
            let fin = started.finish;
            s.complete(0, fin).unwrap();
        }
        assert!(s.try_start(0, t(0)).is_none());
    }

    /// Under the policy every caller builds, `for_exec(exec, d)` with
    /// `d ≤ exec`, admission is decided by the deadline and the queue
    /// length alone, in either mode and whoever is being served.
    #[test]
    fn admission_is_decided_by_deadline_and_queue_length_alone() {
        simkernel::prop::check("admission_is_decided_by_deadline_and_queue_length", 512, |g| {
            let exec = Duration::from_nanos(g.range_u64(1, 1 << 40));
            let degraded_exec = Duration::from_nanos(g.range_u64(0, exec.as_nanos() + 1));
            let mut s = Service::new(ServiceConfig::for_exec(exec, degraded_exec), g.next_u64());
            s.degraded = g.next_bool();
            s.endpoints.push(Endpoint::new(0, "pod-0".into(), 0));
            let now = t(g.range_u64(0, 10_000));
            let queued = g.index(QUEUE_CAPACITY + 4);
            let e = &mut s.endpoints[0];
            for token in 0..queued as u64 {
                e.queue.push_back(QueuedReq { token, deadline: t(20_000) });
            }
            if g.next_bool() {
                let finish = now + exec;
                e.serving = Some(InFlight { token: 99, finish, served: true, degraded: false });
            }
            let deadline = t(g.range_u64(0, 20_000));
            let verdict = s.admit(0, now, 100, deadline);
            let admits = deadline > now && queued < QUEUE_CAPACITY;
            assert_eq!(verdict.is_ok(), admits, "queued {queued}, deadline {deadline} at {now}");
            if let Err(reason) = verdict {
                let expected =
                    if deadline <= now { ShedReason::Deadline } else { ShedReason::QueueFull };
                assert_eq!(reason, expected);
            }
        });
    }

    #[test]
    fn admission_sheds_on_deadline() {
        let mut s = test_service(1);
        // A request whose deadline already passed is shed typed Deadline.
        let err = s.admit(0, t(50), 5, t(40)).unwrap_err();
        assert_eq!(err, ShedReason::Deadline);
        // Sheds charged reject work to the server.
        assert!(s.endpoints[0].busy_until > t(50));
    }

    #[test]
    fn deadline_caps_execution_and_interrupt_counts_as_failure() {
        let mut s = test_service(1);
        // Deadline 2 ms from now but exec is 5 ms: the watchdog interrupts
        // at the cap and the completion reports a failure.
        s.admit(0, t(0), 1, t(2)).unwrap();
        let started = s.try_start(0, t(0)).unwrap();
        assert!(!started.served);
        assert_eq!(started.finish, t(2));
        let c = s.complete(0, t(2)).unwrap();
        assert!(!c.ok);
        assert_eq!(s.endpoints[0].breaker.consecutive_failures, 1);
    }

    #[test]
    fn watchdog_budget_caps_execution_independently_of_deadline() {
        let mut s = test_service(1);
        s.config.watchdog_budget = Duration::from_millis(1);
        s.admit(0, t(0), 1, t(10_000)).unwrap();
        let started = s.try_start(0, t(0)).unwrap();
        assert!(!started.served, "exec 5ms > watchdog 1ms");
        assert_eq!(started.finish, t(1));
    }

    #[test]
    fn breaker_state_machine_on_des_clock() {
        let mut b = CircuitBreaker::new();
        assert!(b.admits());
        for i in 1..5u32 {
            assert!(!b.on_failure(t(i as u64)));
        }
        assert!(b.on_failure(t(5)), "5th consecutive failure opens");
        assert_eq!(b.state, BreakerState::Open);
        assert_eq!(b.opened_at, t(5));
        assert!(!b.admits());
        // Success on the way down does not resurrect an open breaker;
        // half-open is entered only through the probe path.
        b.state = BreakerState::HalfOpen;
        assert!(b.admits());
        b.trial_inflight = true;
        assert!(!b.admits(), "one trial at a time");
        // Trial failure: straight back to open with a re-armed cool-off.
        assert!(b.on_failure(t(9)));
        assert_eq!(b.state, BreakerState::Open);
        assert_eq!(b.opened_at, t(9));
        assert_eq!(b.opened_total, 2);
        // Trial success closes.
        b.state = BreakerState::HalfOpen;
        b.trial_inflight = true;
        b.on_success();
        assert_eq!(b.state, BreakerState::Closed);
        assert_eq!(b.consecutive_failures, 0);
        assert!(b.admits());
    }

    #[test]
    fn retry_budget_bounds_total_attempts_under_total_failure() {
        // 100% failure: no deposits ever. Total attempts must be bounded by
        // first-attempts + the initial bucket, no matter how many requests.
        let mut client =
            ResilientClient::new(RetryPolicy::new(Duration::from_millis(1)), RetryBudget::new());
        let requests = 10_000u64;
        let mut attempts = 0u64;
        for _ in 0..requests {
            attempts += 1; // first attempt (not budgeted)
            let mut attempt = 1;
            while let Some(_backoff) = client.approve_retry(attempt + 1) {
                attempts += 1;
                attempt += 1;
            }
        }
        let initial_retries = RETRY_BUDGET_CAP_MILLITOKENS / RETRY_COST_MILLITOKENS;
        assert_eq!(attempts, requests + initial_retries, "bounded: no amplification");
        // The control arm, by contrast, retries to the attempt cap forever.
        let mut control = ResilientClient::new(
            RetryPolicy::new(Duration::from_millis(1)),
            RetryBudget::disabled(),
        );
        let mut control_attempts = 0u64;
        for _ in 0..requests {
            control_attempts += 1;
            let mut attempt = 1;
            while attempt < MAX_ATTEMPTS {
                assert!(control.approve_retry(attempt + 1).is_some());
                control_attempts += 1;
                attempt += 1;
            }
        }
        assert_eq!(control_attempts, requests * u64::from(MAX_ATTEMPTS));
    }

    #[test]
    fn retry_budget_refills_at_ten_percent_of_successes() {
        let mut b = RetryBudget::new();
        b.millitokens = 0;
        for _ in 0..9 {
            b.deposit();
        }
        assert!(!b.try_withdraw(), "900 m-tokens < 1 retry");
        b.deposit();
        assert!(b.try_withdraw(), "10 successes fund exactly 1 retry");
        assert!(!b.try_withdraw());
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy::new(Duration::from_millis(2));
        assert_eq!(p.backoff_for(2), Duration::from_millis(2));
        assert_eq!(p.backoff_for(3), Duration::from_millis(4));
        assert_eq!(p.backoff_for(4), Duration::from_millis(8));
        assert_eq!(p.backoff_for(40), p.max_backoff);
    }

    #[test]
    fn pick_of_two_prefers_shallower_queues() {
        let mut s = test_service(4);
        let deadline = t(10_000);
        // Load endpoint 0 heavily; routing must drift to the others.
        for token in 0..8 {
            s.admit(0, t(0), token, deadline).unwrap();
        }
        let mut picked_zero = 0;
        for _ in 0..64 {
            if s.route(None).unwrap() == 0 {
                picked_zero += 1;
            }
        }
        assert!(picked_zero < 8, "deep endpoint picked {picked_zero}/64 times");
        // Open breakers exclude an endpoint entirely.
        for e in &mut s.endpoints {
            e.breaker.state = BreakerState::Open;
        }
        assert_eq!(s.route(None).unwrap_err(), ShedReason::NoEndpoint);
    }

    #[test]
    fn route_never_picks_the_excluded_endpoint() {
        let mut s = test_service(2);
        for _ in 0..32 {
            assert_eq!(s.route(Some(0)).unwrap(), 1);
        }
    }

    #[test]
    fn route_picks_the_kth_admitting_endpoint_with_two_draws_in_order() {
        // Endpoint 1's breaker is open and 3 is excluded: the candidates
        // are 0, 2 and 4 in index order. The reference spells that list out
        // and makes the same two draws from a copy of the routing RNG.
        let mut s = test_service(5);
        s.endpoints[1].breaker.state = BreakerState::Open;
        let deadline = t(10_000);
        for token in 0..3 {
            s.admit(2, t(0), token, deadline).unwrap();
        }
        s.admit(4, t(0), 3, deadline).unwrap();
        let mut reference = s.rng.clone();
        let candidates = [0usize, 2, 4];
        let mut seen = [false; 5];
        for _ in 0..200 {
            let a = candidates[reference.index(3)];
            let b = candidates[reference.index(3)];
            let (da, db) = (s.endpoints[a].depth(), s.endpoints[b].depth());
            let expect = if db < da || (db == da && b < a) { b } else { a };
            let got = s.route(Some(3)).unwrap();
            assert_eq!(got, expect);
            seen[got] = true;
        }
        assert_eq!(seen, [true, false, true, false, true]);
    }

    #[test]
    fn brownout_hysteresis() {
        let mut s = test_service(2);
        let deadline = t(10_000);
        assert!(!s.tick_brownout());
        // Depth 6 per endpoint ≥ high watermark (6.0) → engage.
        for ep in 0..2 {
            for token in 0..6u64 {
                s.admit(ep, t(0), ep as u64 * 100 + token, deadline).unwrap();
            }
        }
        assert!(s.tick_brownout());
        assert_eq!(s.brownout_engagements, 1);
        // Started requests now run degraded (shorter exec).
        let started = s.try_start(0, t(0)).unwrap();
        assert!(started.degraded);
        assert_eq!(started.finish, t(3));
        // Serve one request at a time: brownout holds while mean depth is
        // below the high watermark but above the low one (2.0) …
        let serve = |s: &mut Service, ep: usize| {
            let started = s.try_start(ep, t(3)).expect("a queued request");
            s.complete(ep, started.finish).unwrap();
        };
        s.complete(0, t(3)).unwrap();
        assert!(s.tick_brownout(), "depths 5 and 6");
        for _ in 0..3 {
            serve(&mut s, 0);
            serve(&mut s, 1);
        }
        assert!(s.tick_brownout(), "depths 2 and 3");
        // … and disengages once it reaches it.
        serve(&mut s, 1);
        assert!(!s.tick_brownout(), "depths 2 and 2");
        assert_eq!(s.brownout_engagements, 1);
    }

    #[test]
    fn sync_aborts_requests_of_departed_endpoints() {
        // The synthetic endpoint's pod is not among the controller's
        // replicas (it has none), so `sync` drops it and hands back both
        // the in-flight and the queued token.
        let mut s = test_service(1);
        let deadline = t(10_000);
        s.admit(0, t(0), 1, deadline).unwrap();
        s.try_start(0, t(0)).unwrap();
        s.admit(0, t(0), 2, deadline).unwrap();
        let cluster = Cluster::bootstrap().unwrap();
        let ctrl = DeploymentController::new(crate::api::DeploymentSpec::new(
            "svc",
            "svc:v1",
            "crun-wamr",
            1,
        ));
        assert_eq!(s.sync(&cluster, &ctrl), [2, 1]);
        assert!(s.endpoints.is_empty());
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_tight() {
        let mut h = LatencyHistogram::new();
        for ms in 1..=1000u64 {
            h.record(Duration::from_millis(ms));
        }
        let (p50, p99, p999) = (h.quantile(0.50), h.quantile(0.99), h.quantile(0.999));
        assert!(p50 <= p99 && p99 <= p999);
        // Log buckets are ~6% wide: p50 ≈ 500ms within a bucket.
        let p50_ms = p50.as_nanos() as f64 / 1e6;
        assert!((450.0..580.0).contains(&p50_ms), "{p50_ms}");
        assert_eq!(h.quantile(1.0), Duration::from_millis(1000), "max is exact");
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn reject_cost_delays_subsequent_starts() {
        let mut s = test_service(1);
        s.admit(0, t(0), 1, t(10_000)).unwrap();
        for token in 2..10u64 {
            // Already past its deadline: shed.
            assert_eq!(s.admit(0, t(0), token, t(0)).unwrap_err(), ShedReason::Deadline);
        }
        // 8 sheds × reject_cost (5ms/8) = 5ms of reject work before the
        // queued request can start.
        let started = s.try_start(0, t(0)).unwrap();
        assert_eq!(started.finish, t(0) + Duration::from_millis(5) + Duration::from_millis(5));
    }
}
