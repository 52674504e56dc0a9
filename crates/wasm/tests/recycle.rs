//! A recycled linear memory must be indistinguishable from a fresh one.
//!
//! `LinearMemory` parks its buffer in a per-thread slot on drop and takes
//! it back in `new`, re-zeroing only the pages it recorded as written. If
//! a store ever escaped that record, the next guest would start on the
//! previous guest's bytes — so these tests dirty memories every way the
//! API allows and then read every byte of their successors.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use simkernel::prop::check;
use simkernel::rng::SplitMix64;
use wasm_core::types::Limits;
use wasm_core::{
    decode_module, ExecStats, ExecTier, Imports, Instance, InstanceConfig, LinearMemory, Value,
    WASM_PAGE_SIZE as PAGE,
};
use workloads::{microservice_module, MicroserviceConfig};

/// Run `f` on a thread of its own: its spare slot starts empty, and other
/// tests (which share the harness's threads) cannot put anything in it.
fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f).join().expect("test thread panicked")
}

fn assert_all_zero(m: &LinearMemory, what: &str) {
    let bytes = m.read_bytes(0, m.size_bytes() as u32).unwrap();
    let zero_page = [0u8; PAGE as usize];
    for (page, chunk) in bytes.chunks(PAGE as usize).enumerate() {
        assert!(chunk == zero_page, "{what}: page {page} is not all zero");
    }
}

/// Write through every mutator, sparsely — most pages stay clean, so a
/// write whose page went unrecorded is not covered up by a neighbour's:
/// a few seeded stores of every width, 8-byte stores straddling a few page
/// boundaries, one `write_bytes` spanning three pages, then `grow` and a
/// store into the last grown byte.
fn scribble(m: &mut LinearMemory, g: &mut SplitMix64) {
    let size = m.size_bytes() as u64;
    for _ in 0..6 {
        let v = g.next_u64() | 1;
        match g.index(3) {
            0 => m.write(g.range_u64(0, size) as u32, 0, [v as u8]).unwrap(),
            1 => m.store_u32(g.range_u64(0, size - 3) as u32, 0, v as u32).unwrap(),
            _ => m.store_u64(g.range_u64(0, size - 7) as u32, 0, v).unwrap(),
        }
    }
    for _ in 0..3 {
        let boundary = g.range_u64(1, m.size_pages() as u64) as u32;
        // Split between address and offset, as guest stores are.
        let back = 1 + g.index(7) as u32;
        m.store_u64(boundary * PAGE - 8, 8 - back, u64::MAX).unwrap();
    }
    let first = g.index(m.size_pages() as usize - 2) as u32;
    m.write_bytes((first + 1) * PAGE - 1, &vec![0xa5u8; PAGE as usize + 2]).unwrap();
    let old = m.grow(3);
    assert_eq!(old, (size / PAGE as u64) as i32);
    m.write(m.size_bytes() as u32 - 1, 0, [0xff]).unwrap();
}

#[test]
fn recycled_memory_reads_zero_at_smaller_equal_and_larger_sizes() {
    check("recycled_memory_reads_zero", 24, |g| {
        let seed = g.next_u64();
        on_fresh_thread(move || {
            let mut g = SplitMix64::new(seed);
            let mut prev = LinearMemory::new(Limits::new(40, None));
            assert_all_zero(&prev, "fresh");
            for pages in [16u32, 16, 160] {
                scribble(&mut prev, &mut g);
                let prev_pages = prev.size_pages();
                drop(prev);
                let mut next = LinearMemory::new(Limits::new(pages, None));
                assert_eq!(next.size_pages(), pages);
                assert_all_zero(&next, &format!("{prev_pages} -> {pages} pages"));
                // Growing back over the pages a shrink cut off must not
                // bring their old contents back.
                assert_eq!(next.grow(8), pages as i32);
                assert_all_zero(&next, &format!("{prev_pages} -> {pages} pages, grown by 8"));
                prev = next;
            }
        });
    });
}

#[test]
fn a_memory_dropped_on_another_thread_never_reaches_this_one() {
    on_fresh_thread(|| {
        // Nothing is parked here yet, and nothing must be after the other
        // thread has dropped a full-of-ones memory of the same shape.
        on_fresh_thread(|| {
            let mut m = LinearMemory::new(Limits::new(4, None));
            m.write_bytes(0, &vec![0xffu8; 4 * PAGE as usize]).unwrap();
        });
        assert_all_zero(&LinearMemory::new(Limits::new(4, None)), "after another thread's drop");
    });
}

/// Everything observable about one start of the microservice guest.
#[derive(Debug, PartialEq)]
struct Start {
    memory: Vec<u8>,
    stats: ExecStats,
    stdout: Vec<u8>,
}

fn start_microservice(tier: ExecTier) -> Start {
    let module =
        Arc::new(decode_module(microservice_module(&MicroserviceConfig::default())).unwrap());
    let stdout = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&stdout);
    let imports = Imports::new().func("wasi_snapshot_preview1", "fd_write", move |mem, args| {
        let m = mem.as_mut().expect("memory");
        let iovs = args[1].as_i32().unwrap() as u32;
        let (base, len) = (m.load_u32(iovs, 0)?, m.load_u32(iovs, 4)?);
        sink.borrow_mut().extend_from_slice(m.read_bytes(base, len)?);
        Ok(vec![Value::I32(0)])
    });
    let config = InstanceConfig { tier, fuel: Some(100_000_000), ..Default::default() };
    let mut inst = Instance::instantiate(module, imports, config).unwrap();
    inst.run_start().unwrap();
    let mem = inst.memory().expect("the guest has a memory");
    let memory = mem.read_bytes(0, mem.size_bytes() as u32).unwrap().to_vec();
    let stdout = stdout.borrow().clone();
    Start { memory, stats: inst.stats(), stdout }
}

#[test]
fn back_to_back_guest_starts_are_identical_on_both_tiers() {
    for tier in [ExecTier::InPlace, ExecTier::Lowered] {
        on_fresh_thread(move || {
            let fresh = start_microservice(tier);
            assert_eq!(fresh.stdout, b"microservice ready\n");
            assert!(fresh.memory.iter().any(|b| *b != 0), "the guest wrote its memory");
            // The first start's memory is parked by now; the next two run
            // on it.
            for n in 2..=3 {
                assert!(start_microservice(tier) == fresh, "{tier:?}: start {n} differs");
            }
        });
    }
}
