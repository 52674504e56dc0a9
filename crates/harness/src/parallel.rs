//! Work-stealing parallel experiment driver.
//!
//! An experiment grid is a list of independent [`Cell`]s — (configuration,
//! density, observers) points, each measured on its own freshly booted
//! cluster with its own discrete-event simulation. Cells share **no**
//! mutable simulation state, so they can run on worker threads; the only
//! process-wide state they touch is behind locks and affects host CPU
//! only (the `wasm-core` module-artifact cache and the `workloads` image
//! memo), never the simulated measurements.
//!
//! Determinism: results are merged back **in grid order**, so the sample
//! sequence — and therefore every rendered table and CSV byte — is
//! identical to a serial run regardless of worker count or scheduling.
//! `HARNESS_THREADS=1` forces the serial path (also used by the
//! determinism tests as the reference).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use simkernel::KernelResult;

use crate::config::{Config, Workload};
use crate::runner::{measure_cell, CellSample, Observe};

/// One independent measurement point of an experiment grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    pub config: Config,
    pub density: usize,
    pub observe: Observe,
}

impl Cell {
    pub fn memory(config: Config, density: usize) -> Cell {
        Cell { config, density, observe: Observe::Memory }
    }

    pub fn startup(config: Config, density: usize) -> Cell {
        Cell { config, density, observe: Observe::Startup }
    }

    pub fn both(config: Config, density: usize) -> Cell {
        Cell { config, density, observe: Observe::Both }
    }

    /// The full (configs × densities) memory grid, in grid order.
    pub fn memory_grid(configs: &[Config], densities: &[usize]) -> Vec<Cell> {
        configs.iter().flat_map(|&c| densities.iter().map(move |&d| Cell::memory(c, d))).collect()
    }
}

/// How many workers to use for a grid of `cells` cells: the
/// `HARNESS_THREADS` environment variable if set to a positive integer,
/// otherwise the machine's available parallelism — never more workers
/// than cells.
pub fn worker_count(cells: usize) -> usize {
    let cap = cells.max(1);
    if let Ok(v) = std::env::var("HARNESS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n.min(cap);
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(cap)
}

/// Run `run` on every item, fanning out over [`worker_count`] workers,
/// and return the results in item order. The one place the harness spawns
/// threads: every sweep (figure cells, chaos and isolation grids, fault
/// schedules, traffic cells, cluster densities) is a caller.
pub fn run_grid<T: Sync, R: Send>(
    items: &[T],
    run: impl Fn(&T) -> KernelResult<R> + Sync,
) -> KernelResult<Vec<R>> {
    run_grid_on(items, worker_count(items.len()), run)
}

/// [`run_grid`] with an explicit worker count. One requested thread or a
/// grid of at most one item runs serially on the calling thread; a
/// parallel run never spawns more workers than there are items. Output
/// is identical for every `threads` value.
pub fn run_grid_on<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    run: impl Fn(&T) -> KernelResult<R> + Sync,
) -> KernelResult<Vec<R>> {
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(run).collect();
    }

    // Work stealing via a shared claim counter: each worker repeatedly
    // claims the next unclaimed item index, so long items (density 400)
    // don't leave workers idle the way static chunking would.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<KernelResult<R>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = run(item);
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });

    // Merge in grid order. Propagating the first error *in grid order*
    // (not completion order) keeps failures deterministic too.
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every claimed slot is filled before scope exit")
        })
        .collect()
}

/// Measure every cell through [`run_grid`]; samples in grid order.
pub fn run_cells(cells: &[Cell], workload: &Workload) -> KernelResult<Vec<CellSample>> {
    run_cells_on(cells, workload, worker_count(cells.len()))
}

/// [`run_cells`] with an explicit worker count (1 = serial in the calling
/// thread). Output is identical for every `threads` value.
pub fn run_cells_on(
    cells: &[Cell],
    workload: &Workload,
    threads: usize,
) -> KernelResult<Vec<CellSample>> {
    run_grid_on(cells, threads, |c| measure_cell(c.config, c.density, workload, c.observe))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::KernelError;

    #[test]
    fn worker_count_respects_env_and_cells() {
        // Never more workers than cells, regardless of the machine.
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1_000_000) >= 1);
    }

    #[test]
    fn run_grid_returns_results_in_item_order() {
        let items: Vec<u64> = (0..5).collect();
        // One worker, two, and more workers than items.
        for threads in [1, 2, 16] {
            let out = run_grid_on(&items, threads, |&i| Ok(i * i)).unwrap();
            assert_eq!(out, [0, 1, 4, 9, 16], "{threads} worker(s)");
        }
    }

    #[test]
    fn first_error_in_grid_order_wins_even_when_a_later_item_fails_first() {
        let fail =
            |i: &usize| -> KernelResult<()> { Err(KernelError::PathNotFound(i.to_string())) };
        // Item 0 blocks until item 1 has already failed on the other worker.
        let (tx, rx) = std::sync::mpsc::channel();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        let err = run_grid_on(&[0usize, 1], 2, |i| {
            if *i == 0 {
                rx.lock().unwrap().recv().expect("item 1 signals before it fails");
            } else {
                tx.lock().unwrap().send(()).expect("item 0 is waiting");
            }
            fail(i)
        })
        .unwrap_err();
        assert_eq!(err, KernelError::PathNotFound("0".into()));
        // The serial path stops at the same error.
        assert_eq!(run_grid_on(&[2usize, 0, 1], 1, fail).unwrap_err(), fail(&2).unwrap_err());
    }

    #[test]
    fn zero_and_one_item_grids_run_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let on_caller = |_: &u8| Ok(std::thread::current().id() == caller);
        assert_eq!(run_grid_on(&[], 8, on_caller).unwrap(), [] as [bool; 0]);
        assert_eq!(run_grid_on(&[7], 8, on_caller).unwrap(), [true]);
        // ... and so does any grid when one worker is requested.
        assert_eq!(run_grid_on(&[7, 8, 9], 1, on_caller).unwrap(), [true; 3]);
        // Two items on two workers leave the calling thread.
        assert_eq!(run_grid_on(&[7, 8], 2, on_caller).unwrap(), [false; 2]);
    }

    #[test]
    fn serial_and_parallel_agree_on_a_small_grid() {
        let w = Workload::light();
        let cells = Cell::memory_grid(&[Config::WamrCrun, Config::CrunWasmtime], &[2, 4]);
        let serial = run_cells_on(&cells, &w, 1).unwrap();
        let parallel = run_cells_on(&cells, &w, 4).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.config, p.config);
            assert_eq!(s.density, p.density);
            let (sm, pm) = (s.memory.unwrap(), p.memory.unwrap());
            assert_eq!(sm.metrics_avg, pm.metrics_avg);
            assert_eq!(sm.free_per_pod, pm.free_per_pod);
        }
    }

    #[test]
    fn errors_surface_deterministically() {
        let w = Workload::light();
        let cells = vec![Cell::memory(Config::WamrCrun, 2), Cell::memory(Config::WamrCrun, 0)];
        assert!(run_cells_on(&cells, &w, 1).is_err());
        assert!(run_cells_on(&cells, &w, 2).is_err());
    }
}
