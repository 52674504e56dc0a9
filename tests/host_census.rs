//! What the five benchmark workloads cost the host, in counts: a census.
//!
//! Each workload's shape runs at the benchmark's smoke size through the
//! harness entry points its pass calls, on the test's own thread. Per
//! shape the test prints the allocations made, the bytes requested, the
//! peak live heap over the live heap at the shape's start, and the
//! simulator's own counters: DES events, guests executed and replayed,
//! artifact-cache misses, pods the kubelets synced, and the traffic
//! loop's peak live events. A `-` is a counter the shape's
//! entry point does not expose.
//!
//! Everything here is single-threaded and deterministic, so two runs print
//! the same block — on any host. EXPERIMENTS.md keeps it ("Host cost
//! census") and `scripts/verify.sh` diffs it against a fresh run: a change
//! that moves a count regenerates the block, and a perf claim states its
//! gain as a delta of it. Counts are those of the build the test runs in
//! (`cargo test` builds debug, where a few checks allocate).
//!
//! Its own integration-test binary with one test function: the counting
//! allocator is process-global, and a second test running beside this one
//! would be counted into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering::Relaxed};

use memwasm::engines::guests;
use memwasm::harness::cluster_scale::{new_scaled_cluster, warmup_nodes};
use memwasm::harness::traffic::{
    check_contract, run_overload_contract, run_steady_cell, ContractPlan, SweepPlan,
};
use memwasm::harness::{
    explore, new_cluster, recovery_times, warmup, Config, ExplorePlan, InvariantKnobs, Workload,
};
use memwasm::k8s_sim::{Cluster, Policy};
use memwasm::pyrt::scripts;
use memwasm::simkernel::KernelResult;
use memwasm::wasm_core::ArtifactCache;
use memwasm::workloads::MicroserviceConfig;

/// Forwards every call to [`System`] unchanged and keeps four counts of
/// what the census thread does. The test harness's own thread allocates
/// while the census runs, at moments of its own: counting it would make
/// the first shape's numbers differ from run to run.
struct Counting;

thread_local! {
    /// Set on the one thread the census runs on (every shape runs its
    /// grid serially, on the calling thread).
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Live bytes the census thread has allocated and not freed (signed: it
/// may free a block it did not count).
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
/// High-water mark of `LIVE_BYTES` since a shape last reset it.
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);
static REQUESTED_BYTES: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

fn counted_thread() -> bool {
    COUNTED.try_with(Cell::get).unwrap_or(false)
}

/// Count a block of `size` bytes that `System` has just handed out, in
/// place of one of `freed` bytes (a `realloc`), or failed to.
fn counted(block: *mut u8, size: usize, freed: usize) -> *mut u8 {
    if !block.is_null() && counted_thread() {
        let grown = size as isize - freed as isize;
        PEAK_BYTES.fetch_max(LIVE_BYTES.fetch_add(grown, Relaxed) + grown, Relaxed);
        REQUESTED_BYTES.fetch_add(size, Relaxed);
        ALLOCATIONS.fetch_add(1, Relaxed);
    }
    block
}

// SAFETY: every method hands its arguments to `System`'s method of the same
// name and returns what that returned, so `System`'s guarantees are this
// allocator's; the counters are statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc`, passed on as is.
        counted(unsafe { System.alloc(layout) }, layout.size(), 0)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc_zeroed`, passed on as is.
        counted(unsafe { System.alloc_zeroed(layout) }, layout.size(), 0)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed on as is.
        unsafe { System.dealloc(ptr, layout) };
        if counted_thread() {
            LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract for `realloc`, passed on as is.
        counted(unsafe { System.realloc(ptr, layout, new_size) }, new_size, layout.size())
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The simulator's counters a shape read; `None` where its entry point
/// does not expose one.
#[derive(Default)]
struct Sim {
    des_events: Option<u64>,
    pods_synced: Option<usize>,
    peak_live_events: Option<usize>,
}

/// One workload's shape, run once.
type Shape = fn() -> KernelResult<Sim>;

/// `dense_cluster`'s and `fault_explore`'s guest: boots, prints its ready
/// line, returns.
fn boot_only() -> Workload {
    Workload {
        wasm: MicroserviceConfig { loop_iterations: 1, ..MicroserviceConfig::default() },
        ..Workload::default()
    }
}

/// Guests executed and replayed so far, Wasm and Python together.
fn guest_runs() -> (u64, u64) {
    let (wasm, python) = (guests().stats(), scripts().stats());
    (wasm.executed + python.executed, wasm.replayed + python.replayed)
}

/// Deploy `pods` on a warmed cluster, read both memory observers and the
/// startup DES, and add the run's DES events and synced pods to `sim`.
fn deploy_and_observe(
    mut cluster: Cluster,
    config: Config,
    pods: usize,
    sim: &mut Sim,
) -> KernelResult<()> {
    let free_before = cluster.free().used_with_cache();
    let d = cluster.deploy("bench", config.image_ref(), config.class_name(), pods)?;
    cluster.average_working_set(&d)?;
    std::hint::black_box(cluster.free().used_with_cache().saturating_sub(free_before));
    *sim.des_events.get_or_insert(0) += cluster.measure_startup(&[&d]).events;
    *sim.pods_synced.get_or_insert(0) += cluster.stats().pods_synced;
    Ok(())
}

/// `fig_sweep`: the nine configurations at densities 1 and 2, one fresh
/// warmed single-node cluster per cell, as the traced pass drives a cell.
fn fig_sweep() -> KernelResult<Sim> {
    let (workload, mut sim) = (Workload::default(), Sim::default());
    for density in [1, 2] {
        for config in Config::ALL {
            let mut cluster = new_cluster(&[config], &workload)?;
            warmup(&mut cluster, config)?;
            deploy_and_observe(cluster, config, density, &mut sim)?;
        }
    }
    Ok(sim)
}

/// `dense_cluster`: 120 boot-only pods on three nodes under spread
/// placement for each of its three configurations, as `measure_scale`.
fn dense_cluster() -> KernelResult<Sim> {
    let (workload, mut sim) = (boot_only(), Sim::default());
    for config in [Config::WamrCrun, Config::ShimWasmtime, Config::CrunWasmtime] {
        let mut cluster = new_scaled_cluster(config, 3, Policy::Spread, &workload)?;
        warmup_nodes(&mut cluster, config)?;
        deploy_and_observe(cluster, config, 120, &mut sim)?;
    }
    Ok(sim)
}

/// `traffic_steady`: one 60 000-request run at 0.7 of capacity per config.
fn traffic_steady() -> KernelResult<Sim> {
    let mut peak = 0;
    for config in [Config::WamrCrun, Config::CrunWasmtime] {
        let plan = SweepPlan { requests: 60_000, load_factor: 0.7, ..SweepPlan::new(1) };
        let s = run_steady_cell(config, &Workload::serving(), &plan)?;
        let steady = s.run.measured();
        assert_eq!(steady.arrivals, steady.completed, "{}: a request failed", config.label());
        peak = peak.max(s.run.peak_live_events);
    }
    Ok(Sim { peak_live_events: Some(peak), ..Sim::default() })
}

/// `traffic_overload`: one overload-and-recover contract per config, from
/// an 8 000-request baseline.
fn traffic_overload() -> KernelResult<Sim> {
    let mut peak = 0;
    for config in [Config::WamrCrun, Config::CrunWasmtime] {
        let plan = ContractPlan {
            baseline_requests: 8_000,
            overload_requests: 24_000,
            settle_requests: 2_000,
            ..ContractPlan::new(1)
        };
        let o = run_overload_contract(config, &Workload::serving(), &plan)?;
        check_contract(&o, &plan).unwrap();
        for arm in [&o.treatment, &o.control] {
            peak = peak.max(arm.peak_live_events);
        }
    }
    Ok(Sim { peak_live_events: Some(peak), ..Sim::default() })
}

/// `fault_explore`: 30 seeded schedules and the recovery-time scenarios.
fn fault_explore() -> KernelResult<Sim> {
    let workload = boot_only();
    let plan = ExplorePlan { schedules: 30, ..ExplorePlan::smoke(1) };
    let report = explore(&plan, &workload, InvariantKnobs::default())?;
    assert!(report.counterexamples.is_empty(), "{}", report.render());
    recovery_times(plan.config, &workload)?;
    Ok(Sim::default())
}

/// `Some(n)` as `n`, `None` as `-`, right-aligned in `width`.
fn cell<T: std::fmt::Display>(value: Option<T>, width: usize) -> String {
    value.map_or_else(|| format!("{:>width$}", "-"), |v| format!("{v:>width$}"))
}

#[test]
fn each_benchmark_workload_costs_the_host_a_count() {
    COUNTED.with(|c| c.set(true));
    let shapes: [(&str, Shape); 5] = [
        ("fig_sweep", fig_sweep),
        ("dense_cluster", dense_cluster),
        ("traffic_steady", traffic_steady),
        ("traffic_overload", traffic_overload),
        ("fault_explore", fault_explore),
    ];
    println!(
        "{:<16} {:>11} {:>15} {:>14} {:>10} {:>8} {:>8} {:>12} {:>11} {:>16}",
        "shape",
        "allocations",
        "bytes requested",
        "peak live heap",
        "DES events",
        "executed",
        "replayed",
        "cache misses",
        "pods synced",
        "peak live events"
    );
    for (name, shape) in shapes {
        let live = LIVE_BYTES.load(Relaxed);
        PEAK_BYTES.store(live, Relaxed);
        let (allocations, requested) = (ALLOCATIONS.load(Relaxed), REQUESTED_BYTES.load(Relaxed));
        let (executed, replayed) = guest_runs();
        let misses = ArtifactCache::global().stats().misses;
        let sim = shape().unwrap();
        let (now_executed, now_replayed) = guest_runs();
        println!(
            "{name:<16} {:>11} {:>15} {:>14} {} {:>8} {:>8} {:>12} {} {}",
            ALLOCATIONS.load(Relaxed) - allocations,
            REQUESTED_BYTES.load(Relaxed) - requested,
            PEAK_BYTES.load(Relaxed) - live,
            cell(sim.des_events, 10),
            now_executed - executed,
            now_replayed - replayed,
            ArtifactCache::global().stats().misses - misses,
            cell(sim.pods_synced, 11),
            cell(sim.peak_live_events, 16),
        );
    }
}
