//! The traffic plane's contracts: the overload-and-recover scenario holds
//! on the contribution config (with its retry-budget control arm), the
//! sweep is byte-identical across repeated runs, and the scenario driver steps a rolling update and the
//! HPA from the live request loop without breaching maxUnavailable.
//!
//! The `golden_*` tests pin exact outputs of the request loop for one
//! config and seed. The constants were captured on the commit *before* the
//! loop was rewritten to stream arrivals and carry `Copy` events, so they
//! (with the benchmark's `sim_digest`s) are the oracle that the rewrite
//! serves every request exactly as the pre-scheduling loop did.

use memwasm::harness::traffic::{
    check_contract, check_scenario, pod_capacity_rps, request_exec, run_overload_contract,
    run_scenario, run_steady_cell, run_traffic, traffic_sweep, ArrivalProfile, ContractPlan,
    PhaseSpec, ScenarioObservation, SweepPlan, TrafficPlan, TrafficRun,
};
use memwasm::harness::{new_cluster, Config, Workload};
use memwasm::k8s_sim::service::{Service, ServiceConfig};
use memwasm::k8s_sim::{DeploymentController, DeploymentSpec};
use memwasm::simkernel::Duration;

const SEED: u64 = 0xC4A0_5EED;

#[test]
fn overload_contract_holds_on_the_contribution_config() {
    let w = Workload::serving();
    let plan = ContractPlan::smoke(SEED);
    let outcome = run_overload_contract(Config::WamrCrun, &w, &plan).unwrap();
    check_contract(&outcome, &plan).unwrap();

    // The arms differ in the intended direction, not just by the check's
    // thresholds: budget off means amplified attempts and melted goodput.
    assert!(outcome.control_attempts > outcome.treatment_attempts);
    assert!(outcome.control_goodput_rps < outcome.overload_goodput_rps);
    // Overload actually shed (the scenario is not vacuous).
    assert!(outcome.overload_shed_rate > 0.2);
}

#[test]
fn traffic_sweep_is_byte_identical_across_runs() {
    // The second run starts from the host memos (artifact cache, guest
    // replay) the first one filled: neither may leak into an output.
    let w = Workload::serving();
    let plan = SweepPlan::smoke(SEED);
    let configs = [Config::WamrCrun, Config::CrunWasmtime, Config::CrunWasmEdge];
    let run = || {
        let (table, summaries) = traffic_sweep(&configs, &w, &plan).unwrap();
        let stats: Vec<_> = summaries
            .iter()
            .map(|s| (s.config, s.p50, s.p99, s.p999, s.run.measured().completed, s.run.admitted))
            .collect();
        (table.to_csv().into_bytes(), stats)
    };
    let (first, second) = (run(), run());
    assert_eq!(second.0, first.0, "sweep CSV bytes differ between runs");
    assert_eq!(second.1, first.1, "summaries differ between runs");
}

#[test]
fn repeated_steady_cells_are_identical() {
    let w = Workload::serving();
    let plan = SweepPlan::smoke(SEED);
    let a = run_steady_cell(Config::WamrCrun, &w, &plan).unwrap();
    let b = run_steady_cell(Config::WamrCrun, &w, &plan).unwrap();
    assert_eq!((a.p50, a.p99, a.p999), (b.p50, b.p99, b.p999));
    assert_eq!(a.run.measured().completed, b.run.measured().completed);
    assert_eq!(a.run.sheds_by_reason, b.run.sheds_by_reason);
    assert_eq!(a.run.attempts, b.run.attempts);
    assert_eq!(a.run.endpoint_working_set, b.run.endpoint_working_set);
}

#[test]
fn scenario_driver_rolls_and_scales_under_live_traffic() {
    let w = Workload::serving();
    let run = run_scenario(Config::WamrCrun, &w, SEED).unwrap();
    check_scenario(&run).unwrap();
    let obs = run.scenario.unwrap();
    // The rollout held the maxUnavailable floor with requests in flight,
    // and the queue-depth HPA trigger added replicas during the surge.
    assert!(obs.min_ready_during_rollout >= obs.ready_floor);
    assert!(obs.inflight_during_rollout);
    assert!(obs.final_replicas > 3);
}

#[test]
fn per_config_service_times_follow_the_engine_profiles() {
    // crun and shim variants of one engine share request latency; the
    // memory axis (working set per RPS) is where they differ.
    assert_eq!(request_exec(Config::CrunWasmtime), request_exec(Config::ShimWasmtime));
    assert!(pod_capacity_rps(Config::CrunWasmtime) > pod_capacity_rps(Config::WamrCrun));
    // Capacity is the reciprocal of service time.
    let exec = request_exec(Config::WamrCrun).as_secs_f64();
    let rps = pod_capacity_rps(Config::WamrCrun);
    assert!((rps * exec - 1.0).abs() < 1e-9);
}

#[test]
fn golden_steady_smoke_cell() {
    let s =
        run_steady_cell(Config::WamrCrun, &Workload::serving(), &SweepPlan::smoke(SEED)).unwrap();
    assert_eq!(
        (s.p50.as_nanos(), s.p99.as_nanos(), s.p999.as_nanos()),
        (9_437_183, 32_505_855, 58_720_255)
    );
    assert_eq!((s.run.measured().completed, s.run.attempts, s.run.admitted), (6_000, 6_300, 6_300));
}

/// `(label, completed, shed, retries, timeouts, failed, p99 ns)` per phase.
type PhaseRow = (&'static str, u64, u64, u64, u64, u64, u64);

fn phase_rows(run: &TrafficRun) -> Vec<PhaseRow> {
    run.phases
        .iter()
        .map(|p| {
            let p99 = p.hist.quantile(0.99).as_nanos();
            (p.label, p.completed, p.shed, p.retries, p.timeouts, p.failed, p99)
        })
        .collect()
}

#[test]
fn golden_smoke_contract_both_arms() {
    let o =
        run_overload_contract(Config::WamrCrun, &Workload::serving(), &ContractPlan::smoke(SEED))
            .unwrap();
    let t = &o.treatment;
    assert_eq!(
        phase_rows(t),
        [
            ("warmup", 150, 0, 0, 0, 0, 12_582_911),
            ("baseline", 1_500, 0, 0, 0, 0, 15_204_351),
            ("overload", 1_738, 2_941, 179, 0, 2_762, 113_246_207),
            ("settle", 500, 0, 0, 0, 0, 24_117_247),
            ("recovery", 1_500, 0, 0, 0, 0, 14_680_063),
        ]
    );
    assert_eq!(t.sheds_by_reason, [0, 2_941, 0]);
    assert_eq!((t.breaker_opens, t.brownout_engagements), (0, 1));
    assert_eq!((t.attempts, t.admitted), (8_329, 5_388));

    let c = &o.control;
    assert_eq!(
        phase_rows(c),
        [
            ("warmup", 150, 0, 0, 0, 0, 12_582_911),
            ("baseline", 1_500, 0, 0, 0, 0, 15_204_351),
            ("overload", 359, 16_958, 12_841, 0, 4_141, 317_023_898),
        ]
    );
    assert_eq!(c.sheds_by_reason, [0, 16_958, 0]);
    assert_eq!((c.breaker_opens, c.brownout_engagements), (1, 1));
    assert_eq!((c.attempts, c.admitted), (18_991, 2_033));
}

#[test]
fn golden_scenario_aborts_and_redrives_after_the_rollout() {
    // The one path the benchmark workloads never reach: `sync` drops an
    // endpoint mid-traffic, its token comes back aborted and is re-driven
    // through the retry path.
    let r = run_scenario(Config::WamrCrun, &Workload::serving(), SEED).unwrap();
    assert_eq!(r.aborted_retried, 1);
    // The scenario is the HPA's one workload: every observation is pinned.
    assert_eq!(
        r.scenario,
        Some(ScenarioObservation {
            rollout_done: true,
            min_ready_during_rollout: 3,
            ready_floor: 2,
            inflight_during_rollout: true,
            scaled_up: true,
            final_replicas: 5,
        })
    );
    assert_eq!(r.endpoint_working_set, 29_519_872);
    assert_eq!((r.attempts, r.admitted), (12_004, 12_001));
    assert_eq!(
        phase_rows(&r),
        [("steady", 6_000, 0, 1, 0, 0, 13_631_487), ("surge", 6_000, 3, 3, 0, 0, 60_817_407)]
    );
}

/// One measured Poisson phase at `load` of a two-replica deployment's
/// capacity.
fn loaded_phase(requests: usize, load: f64, seed: u64) -> [PhaseSpec; 1] {
    let rate_rps = load * 2.0 * pod_capacity_rps(Config::WamrCrun);
    [PhaseSpec {
        label: "loaded",
        profile: ArrivalProfile::Poisson { rate_rps },
        requests,
        seed,
        measured: true,
    }]
}

#[test]
fn requests_settle_exactly_once_and_attempts_are_conserved() {
    // At 0.9 of capacity queues run deep; at 3× first attempts are shed,
    // retried under the budget or given up on, so every path that settles
    // a request runs.
    let plan = TrafficPlan::new(SEED);
    for load in [0.9, 3.0] {
        let phases = loaded_phase(4_000, load, SEED);
        let run = run_traffic(Config::WamrCrun, &Workload::serving(), &plan, &phases).unwrap();
        let p = &run.phases[0];
        let settled = p.completed + p.failed + p.timeouts;
        assert_eq!(settled, p.arrivals, "at {load}: a request settled twice or never");
        assert_eq!(p.hist.count(), p.completed, "at {load}: one latency sample per completion");
        assert_eq!(run.attempts, p.arrivals + p.retries, "at {load}");
        assert!(run.admitted >= p.completed, "at {load}");
        if load > 1.0 {
            assert!(p.retries > 0 && p.failed > 0, "at {load}: the retry path never ran");
        }
    }
}

#[test]
fn live_events_are_bounded_by_work_in_flight_not_by_requests_offered() {
    // Arrivals are streamed, so the event queue holds the tick plus what
    // the two servers have in flight (a finish each) however long the run.
    let plan = TrafficPlan::new(SEED);
    let peak = |requests| {
        run_traffic(
            Config::WamrCrun,
            &Workload::serving(),
            &plan,
            &loaded_phase(requests, 0.7, SEED),
        )
        .unwrap()
        .peak_live_events
    };
    let (short, long) = (peak(2_000), peak(20_000));
    assert_eq!(short, long, "the event queue grew with the requests offered");
    assert_eq!(short, plan.replicas + 1);
}

#[test]
fn endpoint_ids_survive_syncs_and_are_never_reused() {
    let (config, w) = (Config::WamrCrun, Workload::serving());
    let mut cluster = new_cluster(&[config], &w).unwrap();
    let spec = DeploymentSpec::new("svc", config.image_ref(), config.class_name(), 2);
    let mut ctrl = DeploymentController::new(spec);
    assert!(cluster.settle_controller(&mut ctrl, 50).unwrap());

    let exec = request_exec(config);
    let mut service = Service::new(ServiceConfig::for_exec(exec, exec), SEED);
    assert!(service.sync(&cluster, &ctrl).is_empty());
    let ids = |s: &Service| -> Vec<(u32, String)> {
        s.endpoints.iter().map(|e| (e.id, e.pod.clone())).collect()
    };
    let before = ids(&service);
    assert_eq!([before[0].0, before[1].0], [0, 1]);

    // Queue a request on the first pod, then lose that pod: the controller
    // replaces it, `sync` hands the token back and numbers the newcomer 2.
    let now = cluster.now();
    service.admit(0, now, 77, now + Duration::from_secs(1)).unwrap();
    cluster.remove_pod(&before[0].1).unwrap();
    assert!(cluster.settle_controller(&mut ctrl, 50).unwrap());
    assert_eq!(service.sync(&cluster, &ctrl), [77]);

    let after = ids(&service);
    assert_eq!(after.len(), 2);
    assert!(after.contains(&before[1]), "the surviving endpoint kept its id");
    assert!(after.iter().any(|(id, pod)| *id == 2 && *pod != before[0].1));
    assert_eq!(service.endpoint_index(0), None, "a departed id resolves to nothing");
    let survivor = service.endpoint_index(1).expect("id 1 still routes");
    assert_eq!(service.endpoints[survivor].pod, before[1].1);
}
