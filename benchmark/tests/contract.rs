//! The benchmark against its own contract: `BENCHMARK.json` declares
//! exactly the metrics and workloads the command prints, within the
//! driver's limits; the simulated outputs are a function of the seed; and
//! the spanned copies the traced run times produce the samples of the entry
//! points the untraced run times.

use mwc_benchmark::passes::{Size, WorkloadId};
use mwc_benchmark::run::Args;
use mwc_benchmark::spec::{Metrics, END_TO_END, PER_LAYER};
use mwc_benchmark::trace::Tracer;
use oci_spec_lite::Value;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is {} bytes", text.len());
    oci_spec_lite::parse_json(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("missing {key}"))
}

fn name_ok(name: &str) -> bool {
    let first = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
    first
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The declared (name, unit) pairs of one metric list, checked for shape.
fn declared(manifest: &Value, list: &str, bounded: bool) -> Vec<(String, String)> {
    let entries = manifest.get(list).and_then(Value::as_array).expect(list);
    entries
        .iter()
        .map(|e| {
            let (name, unit) = (field(e, "name"), field(e, "unit"));
            assert!(name_ok(name), "{list}: bad name {name:?}");
            assert!(unit_ok(unit), "{list}: bad unit {unit:?} on {name}");
            assert!(matches!(field(e, "better"), "lower" | "higher"), "{name}: better");
            let keys = e.as_object().expect("object").len();
            if bounded {
                let bound = e.get("bound").and_then(Value::as_f64).expect("bound");
                assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
                assert_eq!(keys, 4, "{name}: exactly name, unit, better, bound");
            } else {
                assert_eq!(keys, 3, "{name}: exactly name, unit, better");
            }
            (name.to_string(), unit.to_string())
        })
        .collect()
}

fn printed(spec: &[(&'static str, &'static str)]) -> Vec<(String, String)> {
    // `Metrics` is what a run prints from: exactly the names it was built with.
    let mut out: Vec<_> =
        Metrics::new(spec).iter().map(|(n, _, u)| (n.to_string(), u.to_string())).collect();
    out.sort();
    out
}

#[test]
fn every_printed_metric_is_declared_and_vice_versa() {
    let m = manifest();
    let mut end_to_end = declared(&m, "end_to_end", true);
    let mut per_layer = declared(&m, "per_layer", false);
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    end_to_end.sort();
    per_layer.sort();
    assert_eq!(end_to_end, printed(&END_TO_END));
    assert_eq!(per_layer, printed(PER_LAYER));

    let mut all: Vec<&String> = end_to_end.iter().chain(&per_layer).map(|(n, _)| n).collect();
    let total = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), total, "a metric name is used twice");
    let setup = m.get("end_to_end").and_then(Value::as_array).expect("list");
    let setup = setup.iter().find(|e| field(e, "name") == "setup_s").expect("setup_s declared");
    assert_eq!((field(setup, "unit"), field(setup, "better")), ("s", "lower"));
}

#[test]
fn workloads_command_and_paths_are_within_limits() {
    let m = manifest();
    assert_eq!(m.as_object().expect("object").len(), 6, "exactly the six contract keys");
    let workloads = m.get("workloads").and_then(Value::as_array).expect("workloads");
    assert!((2..=8).contains(&workloads.len()));
    let names: Vec<&str> = workloads.iter().map(|w| field(w, "name")).collect();
    let ours: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    for w in workloads {
        let why = field(w, "why");
        assert!(name_ok(field(w, "name")));
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {}", field(w, "name"));
        assert_eq!(w.as_object().expect("object").len(), 2);
    }
    let command = m.str_list("command");
    assert!(!command.is_empty() && command.len() <= 32);
    assert!(command.iter().all(|a| a.len() <= 200 && !a.starts_with('/') && !a.contains("..")));
    assert_eq!(m.str_list("paths"), ["benchmark"]);
    let seconds = m.get("run_seconds").and_then(Value::as_u64).expect("run_seconds");
    assert!((1..=60).contains(&seconds));
}

/// One smoke pass: its digest, checked to have run something and failed
/// nothing.
fn smoke_digest(w: WorkloadId, seed: u64, traced: bool) -> mwc_benchmark::stats::Digest {
    let pass = w.run(seed, Size::Smoke, &mut Tracer::new(traced)).expect("smoke pass");
    assert!(pass.ops > 0 && pass.failed == 0, "{}: {} failed", w.name(), pass.failed);
    assert!(pass.violations.is_empty(), "{}: {:?}", w.name(), pass.violations);
    pass.digest
}

#[test]
fn sim_digest_is_a_function_of_the_seed_and_not_of_tracing() {
    for w in WorkloadId::ALL {
        // Untraced calls the simulator's entry points, traced their spanned
        // copies: equal digests say the copies still mirror them.
        assert_eq!(
            smoke_digest(w, 11, false),
            smoke_digest(w, 11, true),
            "{}: the traced pass simulates something else",
            w.name()
        );
    }
    for w in [WorkloadId::TrafficSteady, WorkloadId::TrafficOverload, WorkloadId::FaultExplore] {
        assert_ne!(
            smoke_digest(w, 11, false),
            smoke_digest(w, 12, false),
            "{} ignores its seed",
            w.name()
        );
    }
}

#[test]
fn a_traced_pass_records_nested_spans_per_unit() {
    let mut tracer = Tracer::new(true);
    let pass = WorkloadId::DenseCluster.run(1, Size::Smoke, &mut tracer).expect("smoke pass");
    // Every name a pass reports is declared, and the host costs measured on
    // the workload's own cluster are among them.
    let mut m = Metrics::new(PER_LAYER);
    for (name, value) in &pass.layer {
        m.set(name, *value);
    }
    assert!(m.get("k8s.scheduler.place_us.loaded") > 0.0);
    assert!(m.get("k8s.deploy_us_per_pod.loaded") > 0.0);
    assert_eq!(pass.unit_seconds.len(), 3, "one unit per configuration");
    let spans = tracer.spans();
    assert_eq!(spans[0].name, "pass");
    let points: Vec<_> = spans.iter().filter(|s| s.name == "scale_point").collect();
    assert_eq!(points.len(), 3, "one unit per configuration");
    assert!(points.windows(2).all(|p| p[0].unit < p[1].unit));
    let deploys = spans.iter().filter(|s| s.name == "deploy");
    assert!(deploys.clone().count() == 3);
    assert!(deploys
        .into_iter()
        .all(|s| spans[s.parent.expect("parent") as usize].name == "scale_point"));
    assert!(tracer.self_seconds()["deploy"] > 0.0);
}

#[test]
fn the_number_of_timed_passes_depends_on_the_seconds_alone() {
    // The counts the README gives for the driver's `--seconds 20`.
    assert_eq!(WorkloadId::ALL.map(|w| w.passes_per_process(20.0, 3)), [3, 1, 5, 5, 5]);
    for w in WorkloadId::ALL {
        assert!(w.passes_per_process(40.0, 3) > w.passes_per_process(20.0, 3));
        assert_eq!(w.passes_per_process(0.1, 3), 1);
    }
}

#[test]
fn driver_arguments_parse() {
    let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    let a = parse("--workload fig_sweep --seed 9 --seconds 3 --trace 0").expect("driver form");
    assert_eq!(
        (a.workload, a.seed, a.seconds, a.trace),
        (Some(WorkloadId::FigSweep), 9, 3.0, false)
    );
    assert!(parse("--workload fault_explore --trace 1").expect("traced").trace);
    assert!(parse("--trace --seed 2").expect("bare flag").trace);
    assert_eq!(parse("--repeat 5").expect("repeat").repeat, 5);
    assert!(parse("--paper-size").expect("paper size").paper_size);
    assert!(!a.paper_size);
    assert!(parse("--workload nope").is_err());
    assert!(parse("--seconds 0").is_err());
    assert!(parse("--frobnicate").is_err());
}
