//! What a resident simulated pod costs the *host*: live heap bytes and live
//! heap blocks per pod after `Cluster::deploy`, how many allocations
//! starting it made, and nothing left after teardown.
//!
//! The program is single-threaded and deterministic, so the bytes it has
//! requested from the allocator and not yet returned repeat exactly from
//! run to run — a count, not a timing. The budgets below are that count
//! with a little headroom: a per-pod structure that allocates for entries
//! it will never hold (a B-tree leaf for one key, a vector left at its
//! growth capacity, a per-container copy of a per-image table) fails here
//! before it shows in `dense_cluster`'s `peak_rss_mib`.
//!
//! Its own integration-test binary with one test function: the counting
//! allocator is process-global, and a second test running beside this one
//! would be counted into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use memwasm::harness::cluster_scale::{new_scaled_cluster, warmup_nodes};
use memwasm::harness::{Config, Workload};
use memwasm::k8s_sim::Policy;
use memwasm::simkernel::KernelResult;
use memwasm::workloads::MicroserviceConfig;

/// Forwards every call to [`System`] unchanged and keeps three counts.
struct Counting;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE_BLOCKS: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// Count a block `System` has just handed out (or failed to).
fn counted(block: *mut u8, size: usize) -> *mut u8 {
    if !block.is_null() {
        LIVE_BYTES.fetch_add(size, Relaxed);
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
            LIVE_BYTES.fetch_add(new_size, Relaxed);
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

/// What one boot → warm-up → deploy → teardown → drop cycle read.
struct Cycle {
    /// What `deploy` added, with the `Deployment` it returned still held —
    /// as `measure_scale` holds it.
    deployed: Reading,
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
    cluster.teardown(deployment)?;
    drop(cluster);
    let end = reading();
    Ok(Cycle {
        deployed: Reading {
            bytes: after.bytes - before.bytes,
            blocks: after.blocks - before.blocks,
            allocations: after.allocations - before.allocations,
        },
        left_over: end.bytes as isize - start.bytes as isize,
    })
}

/// Per config: live bytes and live blocks a resident pod may cost, and
/// allocations starting it may make — what this commit reads (5 nodes,
/// 1 000 boot-only pods, second cycle) plus a few percent, so that one
/// more one-entry B-tree leaf per pod (≥ 368 B), or a dozen more boxes per
/// start, does not fit.
///
/// | config | bytes / blocks per pod | before `config.json` was a size | before id-indexed tables | when the test was written | allocations per start | before bundles kept their spec | before guests were replayed |
/// |---|---|---|---|---|---|---|---|
/// | crun-wamr | 4 723.9 / 31.3 | 5 739.8 / 33.3 | 7 989.2 / 38.1 | 19 908.2 / 87.6 | 159 | 267 | 334 |
/// | shim-wasmtime | 3 488.4 / 16.3 | 4 064.3 / 17.3 | 5 348.4 / 21.1 | 14 780.3 / 66.6 | 73 | 80 | 147 |
/// | crun-wasmtime | 5 250.7 / 31.3 | 6 266.6 / 33.3 | 8 537.3 / 38.1 | 20 123.2 / 88.6 | 163 | 271 | 338 |
///
/// The third column is a tree whose bundles wrote each `config.json` as
/// its text and kept the buffer until the container started: about 1 KB
/// per crun pod, and one more allocation per bundle (161 / 74 / 165 per
/// start). The fourth keeps processes, cgroups, files and sandboxes inline
/// in `BTreeMap` leaves, every file path twice, a `String` per pod for its
/// image and runtime class, and a 24-byte trace record. The fifth is the
/// tree with a `BTreeMap` per process and per sandbox, two rootfs maps per
/// bundle, a `String` per mapping label and traces left at their growth
/// capacity. The seventh is a crun pod start that parses the two
/// `config.json` documents it has just written twice each. The last is a
/// start that builds a WASI context, fifteen boxed host functions with
/// their names, an instance and a linear memory for a guest the process
/// has already run.
const BUDGETS: [(Config, usize, usize, usize); 3] = [
    (Config::WamrCrun, 4_900, 33, 164),
    (Config::ShimWasmtime, 3_600, 18, 76),
    (Config::CrunWasmtime, 5_450, 33, 168),
];

/// What may stay live after a cycle: process-wide caches that a second
/// cycle can still grow by a rounding step, never anything per pod.
const LEFT_OVER_BYTES: isize = 4_096;

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
        assert!(
            c.left_over <= LEFT_OVER_BYTES,
            "{}: {} bytes still live after teardown and drop",
            config.label(),
            c.left_over
        );
    }
}
