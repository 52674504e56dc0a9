//! `benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//! [--repeat N] [--paper-size]`
//!
//! With `--workload`, runs that workload in this process and prints every
//! metric by name with its unit, then one JSON object as the last line of
//! standard output. Without it, runs each of the five workloads in its own
//! process. Exits non-zero when an output check fails.

use std::process::ExitCode;
use std::time::Instant;

use mwc_benchmark::passes::WorkloadId;
use mwc_benchmark::run::{self, Args};

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match dispatch(&args, started) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &Args, started: Instant) -> Result<bool, String> {
    let Some(workload) = args.workload else {
        let mut ok = true;
        for workload in WorkloadId::ALL {
            ok &= run::run_children(args, workload)?;
        }
        return Ok(ok);
    };
    if args.setup_only {
        return run::setup_only(workload, args.seed, started).map(|()| true);
    }
    if args.section_only {
        return run::section_only(args, workload).map(|()| true);
    }
    if args.repeat > 1 {
        return run::run_children(args, workload);
    }
    let report = if args.trace {
        run::run_traced(args, workload)
    } else {
        run::run_untraced(args, workload)
    }?;
    print!("{}", report.table());
    println!("{}", report.json_line());
    Ok(report.correct)
}
