//! What a resident simulated pod costs the *host*: live heap bytes and live
//! heap blocks per pod after `Cluster::deploy`, how many allocations
//! starting it made, how many simulating its start made, and nothing left
//! after teardown.
//!
//! The program is single-threaded and deterministic, so the bytes it has
//! requested from the allocator and not yet returned repeat exactly from
//! run to run — a count, not a timing. The budgets below are that count
//! with a little headroom: a per-pod structure that allocates for entries
//! it will never hold (a B-tree leaf for one key, a vector left at its
//! growth capacity, a per-container copy of a per-image table) fails here
//! before it shows in `dense_cluster`'s `peak_rss_mib`.
//!
//! A served request costs the host nothing that stays: the request loop's
//! peak live heap must not grow with the requests a run offers, only with
//! the requests it has in flight — what `traffic_steady`'s and
//! `traffic_overload`'s `peak_rss_mib` follow.
//!
//! Its own integration-test binary with one test function: the counting
//! allocator is process-global, and a second test running beside this one
//! would be counted into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use memwasm::harness::cluster_scale::{new_scaled_cluster, warmup_nodes};
use memwasm::harness::traffic::{
    pod_capacity_rps, run_traffic, ArrivalProfile, PhaseSpec, TrafficPlan,
};
use memwasm::harness::{Config, Workload};
use memwasm::k8s_sim::Policy;
use memwasm::simkernel::KernelResult;
use memwasm::workloads::MicroserviceConfig;

/// Forwards every call to [`System`] unchanged and keeps four counts.
struct Counting;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of `LIVE_BYTES` since a reader last reset it.
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE_BLOCKS: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// Count a block `System` has just handed out (or failed to).
fn counted(block: *mut u8, size: usize) -> *mut u8 {
    if !block.is_null() {
        PEAK_BYTES.fetch_max(LIVE_BYTES.fetch_add(size, Relaxed) + size, Relaxed);
        LIVE_BLOCKS.fetch_add(1, Relaxed);
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
        counted(unsafe { System.alloc(layout) }, layout.size())
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc_zeroed`, passed on as is.
        counted(unsafe { System.alloc_zeroed(layout) }, layout.size())
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed on as is.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract for `realloc`, passed on as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let live = LIVE_BYTES.fetch_add(new_size, Relaxed) + new_size;
            PEAK_BYTES.fetch_max(live, Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
            ALLOCATIONS.fetch_add(1, Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[derive(Clone, Copy)]
struct Reading {
    bytes: usize,
    blocks: usize,
    allocations: usize,
}

fn reading() -> Reading {
    Reading {
        bytes: LIVE_BYTES.load(Relaxed),
        blocks: LIVE_BLOCKS.load(Relaxed),
        allocations: ALLOCATIONS.load(Relaxed),
    }
}

const NODES: usize = 5;
const PODS: usize = 1_000;

/// What one boot → warm-up → deploy → simulate → teardown → drop cycle read.
struct Cycle {
    /// What `deploy` added, with the `Deployment` it returned still held —
    /// as `measure_scale` holds it.
    deployed: Reading,
    /// Allocations `measure_startup` made over the deployment, and the DES
    /// events it ran.
    simulated: (usize, u64),
    /// Live bytes after teardown and drop, over the pre-bootstrap reading.
    left_over: isize,
}

/// `dense_cluster`'s guest: boots, prints its ready line, returns.
fn boot_only() -> Workload {
    Workload {
        wasm: MicroserviceConfig { loop_iterations: 1, ..MicroserviceConfig::default() },
        ..Workload::default()
    }
}

fn cycle(config: Config, workload: &Workload, pods: usize) -> KernelResult<Cycle> {
    let start = reading();
    let mut cluster = new_scaled_cluster(config, NODES, Policy::Spread, workload)?;
    warmup_nodes(&mut cluster, config)?;
    let before = reading();
    let deployment = cluster.deploy("bench", config.image_ref(), config.class_name(), pods)?;
    let after = reading();
    let events = cluster.measure_startup(&[&deployment]).events;
    let simulated = (reading().allocations - after.allocations, events);
    cluster.teardown(deployment)?;
    drop(cluster);
    let end = reading();
    Ok(Cycle {
        deployed: Reading {
            bytes: after.bytes - before.bytes,
            blocks: after.blocks - before.blocks,
            allocations: after.allocations - before.allocations,
        },
        simulated,
        left_over: end.bytes as isize - start.bytes as isize,
    })
}

/// Per config: live bytes and live blocks a resident pod may cost, and
/// allocations starting it may make — what this commit reads (5 nodes,
/// 1 000 boot-only pods, second cycle) plus a few percent, so that one
/// more one-entry B-tree leaf per pod (≥ 368 B), or a dozen more boxes per
/// start, does not fit.
///
/// | config | bytes / blocks per pod | before `config.json` was a size | before id-indexed tables | when the test was written | allocations per start | before a start built only what it keeps | before bundles kept their spec | before guests were replayed |
/// |---|---|---|---|---|---|---|---|---|
/// | crun-wamr | 4 723.9 / 31.3 | 5 739.8 / 33.3 | 7 989.2 / 38.1 | 19 908.2 / 87.6 | 82 | 159 | 267 | 334 |
/// | shim-wasmtime | 3 488.4 / 16.3 | 4 064.3 / 17.3 | 5 348.4 / 21.1 | 14 780.3 / 66.6 | 44 | 73 | 80 | 147 |
/// | crun-wasmtime | 5 250.7 / 31.3 | 6 266.6 / 33.3 | 8 537.3 / 38.1 | 20 123.2 / 88.6 | 86 | 163 | 271 | 338 |
///
/// The third column is a tree whose bundles wrote each `config.json` as
/// its text and kept the buffer until the container started: about 1 KB
/// per crun pod, and one more allocation per bundle (161 / 74 / 165 per
/// start). The fourth keeps processes, cgroups, files and sandboxes inline
/// in `BTreeMap` leaves, every file path twice, a `String` per pod for its
/// image and runtime class, and a 24-byte trace record. The fifth is the
/// tree with a `BTreeMap` per process and per sandbox, two rootfs maps per
/// bundle, a `String` per mapping label and traces left at their growth
/// capacity. The seventh is a start that grows a step trace per layer and
/// copies each into its caller's, builds every constant of two OCI specs
/// and of eight process images anew, and formats each process name and
/// then copies it. The eighth is a crun pod start that parses the two
/// `config.json` documents it has just written twice each. The last is a
/// start that builds a WASI context, fifteen boxed host functions with
/// their names, an instance and a linear memory for a guest the process
/// has already run.
const BUDGETS: [(Config, usize, usize, usize); 3] = [
    (Config::WamrCrun, 4_900, 32, 85),
    (Config::ShimWasmtime, 3_600, 17, 46),
    (Config::CrunWasmtime, 5_450, 32, 89),
];

/// Allocations `measure_startup` may make per pod it simulates: the task's
/// name and steps, and a share of the growth of per-node buffers — not one
/// per DES event (about 36 a crun pod).
const SIMULATION_ALLOCATIONS_PER_POD: usize = 3;

/// What may stay live after a cycle: process-wide caches that a second
/// cycle can still grow by a rounding step, never anything per pod.
const LEFT_OVER_BYTES: isize = 4_096;

/// Requests a short and a long run offer, at each load.
const TRAFFIC_REQUESTS: [usize; 2] = [20_000, 200_000];
/// Offered load as a share of the two replicas' capacity: queues run deep
/// at the first; at the second most first attempts are shed and retried.
const TRAFFIC_LOADS: [f64; 2] = [0.7, 3.0];
/// How far the long run's peak may sit from the short run's: a rounding
/// step of the few in-flight buffers, never a record per request offered
/// (180 000 more 16-byte records are 2.9 MB).
const TRAFFIC_GROWTH_BYTES: isize = 1_024;

/// The peak live heap of one crun-wamr traffic run (serving cluster boot
/// included) over the reading before it.
fn traffic_peak(requests: usize, load: f64) -> KernelResult<usize> {
    let rate_rps = load * 2.0 * pod_capacity_rps(Config::WamrCrun);
    let phases = [PhaseSpec {
        label: "loaded",
        profile: ArrivalProfile::Poisson { rate_rps },
        requests,
        seed: 7,
        measured: true,
    }];
    let before = LIVE_BYTES.load(Relaxed);
    PEAK_BYTES.store(before, Relaxed);
    run_traffic(Config::WamrCrun, &Workload::serving(), &TrafficPlan::new(7), &phases)?;
    Ok(PEAK_BYTES.load(Relaxed) - before)
}

#[test]
fn a_resident_pod_costs_the_host_what_it_holds_and_teardown_returns_it() {
    let workload = boot_only();
    for (config, bytes, blocks, allocations) in BUDGETS {
        // A first, small cycle fills the process-wide caches (module
        // memo, artifact cache, recycled buffers); the second is read.
        cycle(config, &workload, 2 * NODES).unwrap();
        let c = cycle(config, &workload, PODS).unwrap();
        let per_pod = |n: usize| n as f64 / PODS as f64;
        println!(
            "{:<24} {:>8.1} B/pod {:>5.1} blocks/pod {:>4.0} allocations/start, {} B left over",
            config.label(),
            per_pod(c.deployed.bytes),
            per_pod(c.deployed.blocks),
            per_pod(c.deployed.allocations),
            c.left_over
        );
        assert!(
            c.deployed.bytes <= bytes * PODS,
            "{}: {:.1} live bytes per resident pod, budget {bytes}",
            config.label(),
            per_pod(c.deployed.bytes)
        );
        assert!(
            c.deployed.blocks <= blocks * PODS,
            "{}: {:.1} live blocks per resident pod, budget {blocks}",
            config.label(),
            per_pod(c.deployed.blocks)
        );
        assert!(
            c.deployed.allocations <= allocations * PODS,
            "{}: {:.1} allocations per pod start, budget {allocations}",
            config.label(),
            per_pod(c.deployed.allocations)
        );
        let (simulated, events) = c.simulated;
        println!(
            "{:<24} {:>8.1} allocations/pod to simulate the start, {:.1} DES events/pod",
            config.label(),
            per_pod(simulated),
            events as f64 / PODS as f64
        );
        assert!(
            simulated <= SIMULATION_ALLOCATIONS_PER_POD * PODS,
            "{}: measure_startup made {:.1} allocations per pod, budget {}",
            config.label(),
            per_pod(simulated),
            SIMULATION_ALLOCATIONS_PER_POD
        );
        assert!(
            c.left_over <= LEFT_OVER_BYTES,
            "{}: {} bytes still live after teardown and drop",
            config.label(),
            c.left_over
        );
    }

    // A first, short run fills the process-wide caches, as above.
    traffic_peak(TRAFFIC_REQUESTS[0], TRAFFIC_LOADS[0]).unwrap();
    for load in TRAFFIC_LOADS {
        let [short, long] = TRAFFIC_REQUESTS.map(|n| traffic_peak(n, load).unwrap());
        let growth = long as isize - short as isize;
        println!(
            "traffic at {load}x capacity: peak live heap {short} B over {} requests, {long} B over {}",
            TRAFFIC_REQUESTS[0], TRAFFIC_REQUESTS[1]
        );
        assert!(
            growth.abs() <= TRAFFIC_GROWTH_BYTES,
            "traffic at {load}x capacity: the peak moved {growth} B from {} to {} requests",
            TRAFFIC_REQUESTS[0],
            TRAFFIC_REQUESTS[1]
        );
    }
}
