//! Traffic sweep: the FaaS request path under open-loop load.
//!
//! Usage: `cargo run -p harness --bin traffic
//! [-- --smoke | --scenario] [--seed N]`
//!
//! The full run serves 280 000 measured Poisson requests per Wasm config,
//! after a 14 000-request warmup, at 80% of capacity and prints p50/p99/
//! p999, goodput, shed rate and memory-per-RPS; then runs the
//! overload-and-recover contract per config (3× capacity with a goodput
//! floor and bounded p99, recovery back to within 10% of the
//! pre-overload p99, and a retry-budget-disabled control arm that must
//! demonstrably degrade); then the long-running
//! scenario (rolling update stepped and the HPA driven from the live
//! traffic loop). `--smoke` is the light CI gate `scripts/verify.sh`
//! runs: one config, a few thousand requests, the same contracts.
//! Exit 1 on any violation.

#[path = "../cli.rs"]
mod cli;

use harness::chaos::WASM_CONFIGS;
use harness::traffic::{
    check_contract, check_scenario, contract_sweep, contract_table, run_overload_contract,
    run_scenario, run_steady_cell, traffic_sweep, ContractPlan, SweepPlan,
};
use harness::{Config, Workload};

const USAGE: &str = "traffic [--smoke | --scenario] [--seed N]";

fn main() {
    let cli = cli::Cli::parse(USAGE, &[], &["--smoke", "--scenario"], &["--seed"]);
    let (smoke, scenario_only) = (cli.has("--smoke"), cli.has("--scenario"));
    if smoke && scenario_only {
        cli::usage_exit(USAGE, "at most one mode");
    }
    let seed = cli.value("--seed").unwrap_or(0xC4A0_5EED);

    let workload = Workload::serving();
    let mut violations = 0usize;

    if scenario_only {
        violations += run_scenario_check(Config::WamrCrun, &workload, seed);
        finish(violations);
    }

    if smoke {
        // The CI gate: one config through the steady cell, the overload
        // contract (with its control arm), and the scenario driver.
        let plan = SweepPlan::smoke(seed);
        let s = run_steady_cell(Config::WamrCrun, &workload, &plan).expect("steady cell");
        println!(
            "{}: p50 {:.2} ms  p99 {:.2} ms  goodput {:.1} rps  shed {:.2}%",
            s.config.label(),
            s.p50.as_secs_f64() * 1e3,
            s.p99.as_secs_f64() * 1e3,
            s.goodput_rps,
            s.shed_rate * 100.0
        );
        if s.goodput_rps <= 0.0 || s.run.measured().completed == 0 {
            eprintln!("FAIL: smoke steady cell served nothing");
            violations += 1;
        }

        let cplan = ContractPlan::smoke(seed);
        let outcome =
            run_overload_contract(Config::WamrCrun, &workload, &cplan).expect("overload contract");
        print_contract_line(&outcome);
        if let Err(msg) = check_contract(&outcome, &cplan) {
            eprintln!("FAIL: contract {msg}");
            violations += 1;
        }
        violations += run_scenario_check(Config::WamrCrun, &workload, seed);
        finish(violations);
    }

    // Full run: steady sweep over every Wasm config.
    let plan = SweepPlan::new(seed);
    let (table, summaries) = traffic_sweep(&WASM_CONFIGS, &workload, &plan).expect("traffic sweep");
    table.emit("traffic");
    for s in &summaries {
        if s.run.measured().completed == 0 {
            eprintln!("FAIL: {} served nothing in the steady sweep", s.config.label());
            violations += 1;
        }
    }

    // The overload-and-recover contract per config.
    let cplan = ContractPlan::new(seed);
    let outcomes = contract_sweep(&WASM_CONFIGS, &workload, &cplan).expect("contract sweep");
    println!("{}", contract_table(&outcomes).render());
    for o in &outcomes {
        if let Err(msg) = check_contract(o, &cplan) {
            eprintln!("FAIL: contract {msg}");
            violations += 1;
        }
    }

    // The long-running scenario on the contribution config.
    violations += run_scenario_check(Config::WamrCrun, &workload, seed);
    finish(violations);
}

fn print_contract_line(o: &harness::traffic::ContractOutcome) {
    println!(
        "{}: baseline p99 {:.2} ms | overload goodput {:.1} rps (shed {:.1}%, p99 {:.2} ms) | \
         recovered p99 {:.2} ms | control goodput {:.1} rps ({} vs {} attempts)",
        o.config.label(),
        o.baseline_p99.as_secs_f64() * 1e3,
        o.overload_goodput_rps,
        o.overload_shed_rate * 100.0,
        o.overload_p99.as_secs_f64() * 1e3,
        o.recovered_p99.as_secs_f64() * 1e3,
        o.control_goodput_rps,
        o.control_attempts,
        o.treatment_attempts,
    );
}

fn run_scenario_check(config: Config, workload: &Workload, seed: u64) -> usize {
    let run = run_scenario(config, workload, seed).expect("scenario run");
    let obs = run.scenario.expect("scenario observation");
    println!(
        "scenario {}: rollout done={} min-ready={} (floor {}) scaled-up={} final-replicas={} \
         aborted-retried={}",
        run.config.label(),
        obs.rollout_done,
        obs.min_ready_during_rollout,
        obs.ready_floor,
        obs.scaled_up,
        obs.final_replicas,
        run.aborted_retried,
    );
    match check_scenario(&run) {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("FAIL: scenario {msg}");
            1
        }
    }
}

fn finish(violations: usize) -> ! {
    if violations > 0 {
        eprintln!("{violations} traffic violation(s)");
        std::process::exit(1);
    }
    println!("traffic: all contracts hold");
    std::process::exit(0);
}
