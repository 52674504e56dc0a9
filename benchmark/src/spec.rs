//! The metrics the benchmark prints, by name and unit. `BENCHMARK.json`
//! declares the same lists; `tests/contract.rs` checks the two agree.
//!
//! Every metric is one of two kinds. **host** metrics say what the
//! simulator costs to run on this machine and are noisy. **sim** metrics
//! (`sim.*`) say what the modelled stack would cost; they repeat exactly
//! for a fixed seed.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by an untraced run. All three are host
/// metrics: a simulated result is the same on every run of one seed, so it
/// cannot be bounded by a spread; the simulated headline numbers are
/// `sim.*` per-layer metrics and are guarded by the output checks.
pub const END_TO_END: [(&str, &str); 3] = [
    // Host seconds of one undisturbed pass: the sum, over the pass's units
    // of work (calls of the simulator's entry points), of each unit's
    // fastest time among the run's fixed number of passes.
    ("wall_s", "s"),
    // Host seconds of a fresh process from entering `main` to the end of
    // its warm-up pass (module build, decode, validate, lowering, first
    // run): the fastest of nine processes.
    ("setup_s", "s"),
    // Peak resident set of a pass (`VmHWM`, reset before each): the median
    // over the run's passes.
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by a traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // -- guest execution: moves wall_s on fig_sweep ---------------------
    ("wasm.interp.minstr_per_s", "Minstr/s"),
    ("wasm.lowered.minstr_per_s", "Minstr/s"),
    ("wasm.lowered.fused_ratio", "ratio"),
    ("wasm.exec.instrs_per_pod", "count"),
    ("wasm.instantiate_us", "us"),
    ("pyrt.parse_us", "us"),
    ("pyrt.run_us", "us"),
    // -- once per process behind the caches: moves setup_s only ---------
    ("wasm.decode.mib_per_s", "MiB/s"),
    ("wasm.validate.mib_per_s", "MiB/s"),
    ("wasm.side_table.mib_per_s", "MiB/s"),
    ("wasm.lower.mib_per_s", "MiB/s"),
    ("workloads.module_build_us", "us"),
    ("workloads.image_build_us", "us"),
    // -- artifact cache during the traced passes ------------------------
    ("wasm.cache.hit_ratio", "ratio"),
    ("wasm.cache.misses", "count"),
    ("wasm.cache.lock_contentions", "count"),
    // -- the pod-start stack, self time per pod by subtraction ----------
    ("engines.exec_self_us.wamr", "us"),
    ("engines.exec_self_us.wasmtime", "us"),
    ("engines.exec_self_us.wasmer", "us"),
    ("engines.exec_self_us.wasmedge", "us"),
    ("core.wamr_handler_self_us", "us"),
    ("runtimes.create_start_self_us", "us"),
    ("oci.json.parse_mib_per_s", "MiB/s"),
    ("oci.bundle.create_us", "us"),
    ("containerd.cri_self_us", "us"),
    ("containerd.shim_self_us", "us"),
    ("containerd.remove_us", "us"),
    ("k8s.deploy_self_us.n1", "us"),
    ("k8s.deploy_self_us.n25", "us"),
    ("k8s.scheduler.place_us", "us"),
    // On the 25-node, 10 000-pod cluster of `dense_cluster` (0 elsewhere).
    ("k8s.scheduler.place_us.loaded", "us"),
    ("k8s.deploy_us_per_pod.loaded", "us"),
    ("k8s.deploy_us_per_pod.empty", "us"),
    ("k8s.metrics.scrape_us", "us"),
    ("k8s.teardown_us", "us"),
    ("simkernel.image.spawn_us", "us"),
    ("simkernel.mem.touch_ns_per_page", "ns"),
    ("simkernel.vfs.cold_read_ns", "ns"),
    ("simkernel.free_us", "us"),
    // -- event queues ----------------------------------------------------
    ("simkernel.des.mevents_per_s", "Mevents/s"),
    ("simkernel.calendar.ns_per_event", "ns"),
    // -- request path ----------------------------------------------------
    ("k8s.service.ns_per_req", "ns"),
    ("k8s.service.ns_per_shed", "ns"),
    ("harness.traffic.ns_per_req.wamr", "ns"),
    ("harness.traffic.ns_per_req.wasmtime", "ns"),
    ("harness.traffic.self_share", "ratio"),
    // -- control plane ---------------------------------------------------
    ("k8s.bootstrap_ms", "ms"),
    ("k8s.reconcile_us", "us"),
    ("k8s.lease_tick_us", "us"),
    ("k8s.controller.reconcile_us", "us"),
    ("harness.explorer.ms_per_schedule", "ms"),
    ("harness.explorer.setup_share", "ratio"),
    // -- spans of the traced passes: self seconds per pass --------------
    ("harness.cell.bootstrap_s", "s"),
    ("harness.cell.warmup_s", "s"),
    ("harness.cell.deploy_s", "s"),
    ("harness.cell.observe_mem_s", "s"),
    ("harness.cell.observe_startup_s", "s"),
    ("harness.cell.drop_s", "s"),
    ("harness.run_traffic_s", "s"),
    ("harness.run_schedule_s", "s"),
    ("harness.driver.self_s", "s"),
    ("harness.parallel.speedup_2w", "ratio"),
    // -- simulated results of the workload (0 where it has none) --------
    ("sim.mem_mib_per_ctr", "MiB"),
    ("sim.startup_s", "s"),
    ("sim.paper_gap_pp", "pp"),
    ("sim.p99_ms", "ms"),
    ("sim.goodput_rps", "1/s"),
    ("sim.reconverge_s", "s"),
    ("sim.lease.detect_s", "s"),
    ("sim.mem.metrics_vs_free_gap_pct", "%"),
    ("sim.des.events", "count"),
    ("sim.phase.api-dispatch_ms", "ms"),
    ("sim.phase.sandbox_ms", "ms"),
    ("sim.phase.runtime-op_ms", "ms"),
    ("sim.phase.engine-init_ms", "ms"),
    ("sim.phase.module-load_ms", "ms"),
    ("sim.phase.compile_ms", "ms"),
    ("sim.phase.instantiate_ms", "ms"),
    ("sim.phase.exec_ms", "ms"),
    ("sim.service.shed_pct", "%"),
    ("sim.service.retries_per_req", "ratio"),
    ("sim.service.amplification", "ratio"),
    ("sim.service.breaker_opens", "count"),
    // -- the benchmark itself -------------------------------------------
    ("bench.guest_exec_share_pct", "%"),
    ("bench.guest_instantiate_share_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.spans", "count"),
    ("bench.passes", "count"),
];

/// Metric values keyed by declared name. Starts with every declared name
/// at zero, so a run prints exactly the declared set; setting a name that
/// is not declared is a bug in the benchmark and panics.
#[derive(Debug)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Metrics {
    pub fn new(declared: &[(&'static str, &'static str)]) -> Metrics {
        Metrics { values: declared.iter().map(|&(name, unit)| (name, (0.0, unit))).collect() }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self.values.get_mut(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        slot.0 = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name].0
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.values.iter().map(|(&name, &(value, unit))| (name, value, unit))
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
