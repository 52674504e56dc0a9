//! Chaos sweep: deterministic fault injection across the Wasm configs.
//!
//! Usage: `cargo run -p harness --bin chaos
//! [-- --smoke | --isolation-smoke | --multinode-smoke
//!  | --node-crash-smoke | --explore [--schedules N] | --recovery]
//! [--seed N]`
//!
//! `--node-crash-smoke` crashes 1 of 3 nodes under a 6-replica deployment
//! and asserts lease-driven detection, eviction and reconvergence on the
//! survivors. `--explore` enumerates seeded fault schedules (crash,
//! restart, partition, heal) through the deterministic explorer, checking
//! the convergence invariants after every schedule and shrinking any
//! violation to a minimal failing prefix. `--recovery` prints the
//! crash/partition recovery-time table across the Wasm configs.
//!
//! Deploys pods under kubelet supervision with every fault site armed,
//! drives the reconcile loop until each node settles, and fails (exit 1)
//! if any configuration does not converge or leaks past its baseline.
//! The sweep includes the hung-guest watchdog scenario (liveness probes
//! detect a wedged guest, the epoch clock interrupts it, CrashLoopBackOff
//! restarts it) and — in the full run — the adversarial isolation grid
//! (every Wasm config × every attacker, scored against an attacker-free
//! baseline). `--smoke` runs the light CI fault plan `scripts/verify.sh`
//! uses; `--isolation-smoke` runs only the isolation scenario on the
//! contribution config, checking the containment contracts and that the
//! zero-attacker path is byte-identical across repeated runs.

#[path = "../cli.rs"]
mod cli;

use harness::chaos::{check_hung_outcome, check_outcome, sweep, ChaosPlan, WASM_CONFIGS};
use harness::cluster_scale::run_drain;
use harness::explorer::{explore, recovery_table, run_schedule, ExplorePlan, InvariantKnobs};
use harness::isolation::{check_isolation, isolation_sweep, run_tenants, Attacker, IsolationPlan};
use harness::{Config, FaultEvent, Workload};
use simkernel::FaultSite;

/// Run the isolation grid, print/save its table, and count contract
/// violations. Returns the number of violations.
fn run_isolation(configs: &[Config], workload: &Workload, plan: &IsolationPlan) -> usize {
    let (table, scores) =
        isolation_sweep(configs, &Attacker::ALL, workload, plan).expect("isolation sweep");
    table.emit("isolation");
    let mut violations = 0;
    for s in &scores {
        if let Err(msg) = check_isolation(s, plan) {
            eprintln!("FAIL: isolation {msg}");
            violations += 1;
        }
    }
    violations
}

/// The multi-node drain scenario: 3 nodes, a spread controller-managed
/// deployment, drain one node, assert the controller reconverges with
/// every replica Running and ready on the survivors.
fn run_multinode_smoke() {
    let workload = Workload::light();
    let (nodes, replicas) = (3, 6);
    let o = run_drain(Config::WamrCrun, nodes, replicas, &workload).expect("drain scenario");
    let mut violations = 0;
    if !o.converged {
        eprintln!("FAIL: controller did not reconverge after the drain");
        violations += 1;
    }
    if o.drained.is_empty() {
        eprintln!("FAIL: drained node carried no pods — scenario vacuous");
        violations += 1;
    }
    if o.ready != replicas {
        eprintln!("FAIL: {} of {replicas} replicas ready after drain", o.ready);
        violations += 1;
    }
    if o.pods_on_drained != 0 {
        eprintln!("FAIL: {} pod(s) left on the drained node", o.pods_on_drained);
        violations += 1;
    }
    if violations > 0 {
        std::process::exit(1);
    }
    println!(
        "multinode smoke: drained {} pod(s) from 1 of {nodes} nodes; \
         {replicas} replicas rescheduled Running+ready on survivors",
        o.drained.len()
    );
}

/// The node-crash scenario: 3 nodes, a 6-replica deployment, one node
/// power-failed mid-run. Detection must be lease-driven (NotReady after
/// the grace), eviction must re-home the lost replicas, and the
/// deployment must reconverge on the survivors with nothing leaked.
fn run_node_crash_smoke(seed: u64) {
    let workload = Workload::light();
    let plan = ExplorePlan::smoke(seed);
    let o =
        run_schedule(&plan, seed, &[FaultEvent::Crash(1)], &workload, InvariantKnobs::default())
            .expect("node-crash scenario");
    if !o.violations.is_empty() {
        for v in &o.violations {
            eprintln!("FAIL: node-crash {v}");
        }
        std::process::exit(1);
    }
    println!(
        "node-crash smoke: crashed 1 of {} nodes under {} replicas; lease expired, \
         replicas evicted and rescheduled, reconverged in {} rounds",
        plan.nodes, plan.replicas, o.rounds
    );
}

/// The fault-schedule explorer: enumerate seeded schedules, check the
/// convergence invariants after each, shrink any violation.
fn run_explore(seed: u64, schedules: Option<usize>) {
    let workload = Workload::light();
    let mut plan = ExplorePlan::standard(seed);
    if let Some(n) = schedules {
        plan.schedules = n;
    }
    let report = explore(&plan, &workload, InvariantKnobs::default()).expect("explorer");
    print!("{}", report.render());
    if !report.counterexamples.is_empty() {
        eprintln!(
            "{} schedule(s) violated the convergence invariants",
            report.counterexamples.len()
        );
        std::process::exit(1);
    }
}

/// Print the crash/partition recovery-time table across the Wasm configs.
fn run_recovery() {
    let workload = Workload::light();
    recovery_table(&workload).expect("recovery table").emit("recovery");
}

/// `--isolation-smoke`: the isolation grid on the contribution config
/// plus the zero-attacker determinism check.
fn run_isolation_smoke() {
    let workload = Workload::light();
    let plan = IsolationPlan::smoke();
    let mut violations = run_isolation(&[Config::WamrCrun], &workload, &plan);
    // Zero-attacker determinism: the baseline leg must be a pure
    // observer — repeated runs byte-identical.
    let a = run_tenants(Config::WamrCrun, &workload, &plan, None).expect("baseline");
    let b = run_tenants(Config::WamrCrun, &workload, &plan, None).expect("baseline");
    if a != b {
        eprintln!("FAIL: zero-attacker baseline not byte-identical:\n{a:?}\n{b:?}");
        violations += 1;
    }
    if violations > 0 {
        eprintln!("{violations} isolation scenario(s) violated the containment contract");
        std::process::exit(1);
    }
    println!("isolation smoke: all attackers contained, victims ready, baseline deterministic");
}

/// The chaos sweep itself: the light CI plan under `--smoke`, else the
/// default plan followed by the full isolation grid.
fn run_sweep(seed: u64, smoke: bool) {
    let (workload, plan) = if smoke {
        (Workload::light(), ChaosPlan::smoke(seed))
    } else {
        (
            Workload::default(),
            ChaosPlan { seed, rate_ppm: 120_000, limit_per_site: 12, pods: 10, max_rounds: 200 },
        )
    };

    let (table, outcome) = sweep(&workload, &plan).expect("chaos sweep");
    table.emit("chaos");

    let mut violations = 0;
    for o in &outcome.faults {
        if let Err(msg) = check_outcome(o, &plan) {
            eprintln!("FAIL: {msg}");
            violations += 1;
        }
    }
    for o in &outcome.hung {
        if let Err(msg) = check_hung_outcome(o, &plan) {
            eprintln!("FAIL: hung-guest {msg}");
            violations += 1;
        }
    }

    // Full runs also sweep the adversarial isolation grid across every
    // Wasm config (the smoke path has its own dedicated flag).
    if !smoke {
        let iso_plan = IsolationPlan { victims: 8, max_rounds: 24 };
        violations += run_isolation(&WASM_CONFIGS, &workload, &iso_plan);
    }

    if violations > 0 {
        eprintln!("{violations} scenario(s) violated the recovery contract");
        std::process::exit(1);
    }

    // Per-site injection totals across every run of the sweep (the probe
    // site only draws in scenarios that deploy probed pods).
    let all: Vec<_> = outcome.faults.iter().chain(&outcome.hung).collect();
    let per_site: Vec<String> = FaultSite::ALL
        .iter()
        .map(|&s| format!("{}={}", s.label(), all.iter().map(|o| o.injected_at(s)).sum::<u64>()))
        .collect();
    println!(
        "all {} scenarios converged; faults injected per site: {}",
        all.len(),
        per_site.join(" ")
    );
    let wedged: usize = outcome.hung.iter().map(|h| h.wedged).sum();
    let kills: u64 = outcome.hung.iter().map(|h| h.probe_kills).sum();
    println!("hung-guest: {wedged} wedged pods, {kills} liveness kills, all recovered");
}

const USAGE: &str = "chaos [--smoke | --isolation-smoke | --multinode-smoke | --node-crash-smoke \
                     | --explore [--schedules N] | --recovery] [--seed N]";

fn main() {
    let modes = [
        "--smoke",
        "--isolation-smoke",
        "--multinode-smoke",
        "--node-crash-smoke",
        "--explore",
        "--recovery",
    ];
    let cli = cli::Cli::parse(USAGE, &[], &modes, &["--seed", "--schedules"]);
    let mut given = modes.into_iter().filter(|m| cli.has(m));
    let mode = given.next();
    if given.next().is_some() {
        cli::usage_exit(USAGE, "at most one mode");
    }
    let schedules = cli.value("--schedules").map(|n| usize::try_from(n).unwrap_or(usize::MAX));
    if schedules.is_some() && mode != Some("--explore") {
        cli::usage_exit(USAGE, "--schedules goes with --explore");
    }
    let seed = cli.value("--seed").unwrap_or(0xC4A0_5EED);
    match mode {
        Some("--multinode-smoke") => run_multinode_smoke(),
        Some("--node-crash-smoke") => run_node_crash_smoke(seed),
        Some("--explore") => run_explore(seed, schedules),
        Some("--recovery") => run_recovery(),
        Some("--isolation-smoke") => run_isolation_smoke(),
        smoke => run_sweep(seed, smoke.is_some()),
    }
}

// `cli.rs` is compiled into all four binaries; its tests live here, in the
// binary with the richest command line, so they run once.
#[cfg(test)]
mod tests {
    use super::cli::Cli;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let args = args.iter().map(|a| a.to_string());
        Cli::parse_from(args, &["run"], &["--smoke"], &["--seed"])
    }

    #[test]
    fn known_arguments_parse() {
        let cli = parse(&["run", "--smoke", "--seed", "7", "--seed", "9"]).unwrap();
        assert_eq!(cli.command.as_deref(), Some("run"));
        assert!(cli.has("--smoke") && !cli.has("--seed"));
        assert_eq!(cli.value("--seed"), Some(9));
        assert_eq!(parse(&[]).unwrap(), Cli::default());
    }

    #[test]
    fn typos_are_errors_not_defaults() {
        for bad in [
            &["--smok"][..],
            &["walk"],
            &["run", "run"],
            &["--seed"],
            &["--seed", "x"],
            &["--seed", "-1"],
            &["--seed=7"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
