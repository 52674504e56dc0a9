//! The parallel driver's central guarantee: fanning an experiment grid
//! across worker threads changes wall-clock only — the sample sequence and
//! every rendered CSV byte are identical to the serial path.

use std::sync::Mutex;

use memwasm::harness::{
    run_cells_on, Cell, CellSample, Column, Config, Figure, Grid, Observe, Workload, FIGURES,
};

/// Serializes every test that mutates the process-wide `HARNESS_THREADS`
/// environment variable — tests in one binary share the environment.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn grid() -> Vec<Cell> {
    let configs = [Config::WamrCrun, Config::CrunWasmtime, Config::CrunPython];
    let densities = [2usize, 5];
    configs
        .iter()
        .flat_map(|&c| {
            densities.iter().map(move |&d| Cell { config: c, density: d, observe: Observe::Both })
        })
        .collect()
}

fn assert_samples_identical(serial: &[CellSample], parallel: &[CellSample]) {
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel) {
        assert_eq!(s.config, p.config);
        assert_eq!(s.density, p.density);
        let (sm, pm) = (s.memory.unwrap(), p.memory.unwrap());
        assert_eq!(sm.metrics_avg, pm.metrics_avg, "{:?}@{}", s.config, s.density);
        assert_eq!(sm.free_per_pod, pm.free_per_pod, "{:?}@{}", s.config, s.density);
        let (ss, ps) = (s.startup.unwrap(), p.startup.unwrap());
        assert_eq!(ss.total, ps.total, "{:?}@{}", s.config, s.density);
    }
}

#[test]
fn parallel_samples_match_serial_in_grid_order() {
    let w = Workload::light();
    let cells = grid();
    let serial = run_cells_on(&cells, &w, 1).unwrap();
    for threads in [2, 4, 8] {
        let parallel = run_cells_on(&cells, &w, threads).unwrap();
        assert_samples_identical(&serial, &parallel);
    }
}

/// The paper's grid at test size — every configuration at densities
/// {2, 4} — with `HARNESS_THREADS` pinned. Callers hold `ENV_LOCK`.
fn light_grid(threads: &str) -> Grid {
    std::env::set_var("HARNESS_THREADS", threads);
    let grid = Grid::measure(&Config::ALL, &[2, 4], &Workload::light());
    std::env::remove_var("HARNESS_THREADS");
    grid.unwrap()
}

#[test]
fn figure_csv_bytes_are_identical_across_drivers() {
    // HARNESS_THREADS steers the driver `Grid::measure` uses; the env var
    // is only mutated under ENV_LOCK.
    let _env = ENV_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let (serial, parallel) = (light_grid("1"), light_grid("4"));
    // The memory figures; Figs. 8 and 9 read 10 and 400 pods.
    for fig in FIGURES.iter().filter(|f| !matches!(f.column, Column::StartupAt(_))) {
        let (s, p) = (fig.table(&serial).unwrap(), fig.table(&parallel).unwrap());
        assert_eq!(s.to_csv().into_bytes(), p.to_csv().into_bytes(), "{}", fig.name);
        assert_eq!(s.render(), p.render(), "{}", fig.name);
    }
}

#[test]
fn pinned_thread_counts_are_byte_identical_and_parallel_is_not_slower() {
    // Pin HARNESS_THREADS to 1, 2, and 8 and assert the merged grid is
    // byte-identical every time (CSV bytes are the paper's ground truth).
    let _env = ENV_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let w = Workload::light();

    let mut runs = Vec::new();
    for threads in ["1", "2", "8"] {
        let fig5 = FIGURES[2].table(&light_grid(threads)).unwrap();
        runs.push((threads, fig5.to_csv().into_bytes(), fig5.render()));
    }
    let (_, csv1, render1) = &runs[0];
    for (threads, csv, render) in &runs[1..] {
        assert_eq!(csv, csv1, "fig5 CSV bytes differ at HARNESS_THREADS={threads}");
        assert_eq!(render, render1, "fig5 render differs at HARNESS_THREADS={threads}");
    }

    // Speedup sanity: with real cores available, the parallel driver must
    // not be slower than serial (modulo 5% noise). On narrower hosts the
    // comparison measures time-sharing, not the driver — skip it.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("skipping speedup sanity: {cores} core(s) < 4");
        return;
    }
    let cells = Cell::memory_grid(&[Config::WamrCrun, Config::CrunWasmtime], &[4, 8, 12, 16]);
    let t = std::time::Instant::now();
    run_cells_on(&cells, &w, 1).unwrap();
    let serial_s = t.elapsed().as_secs_f64();
    let t = std::time::Instant::now();
    run_cells_on(&cells, &w, 4).unwrap();
    let parallel_s = t.elapsed().as_secs_f64();
    assert!(
        parallel_s <= serial_s * 1.05,
        "parallel driver slower than serial: {parallel_s:.2}s vs {serial_s:.2}s"
    );
}

/// FNV-1a of each paper figure's CSV bytes at `Workload::light()`,
/// densities {2, 4} (Figs. 8 and 9: startup at 2 and at 4 pods — a CSV
/// does not carry the title). Recorded from the per-figure sweeps before
/// one grid replaced them: whatever produces the figures has to reproduce
/// these bytes.
const FIGURE_CSV_DIGESTS: [(&str, u64); 8] = [
    ("fig3", 0x6550_98b7_3c65_a3cc),
    ("fig4", 0x1985_b765_17ab_198b),
    ("fig5", 0xe01f_01ad_3fe1_77e0),
    ("fig6", 0x7b92_1bc8_caee_ad0b),
    ("fig7", 0x21af_3753_dcdb_748e),
    ("fig8", 0x928c_17b4_0a73_ee4e),
    ("fig9", 0x9ac4_72be_8cdd_4bc2),
    ("fig10", 0x117d_6aa0_2d8f_04bd),
];

#[test]
fn golden_figure_csv_digests() {
    let _env = ENV_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    for threads in ["1", "4"] {
        let grid = light_grid(threads);
        for (fig, (name, digest)) in FIGURES.iter().zip(FIGURE_CSV_DIGESTS) {
            assert_eq!(fig.name, name);
            // The paper's 10 and 400 pods are not test-sized.
            let column = match fig.name {
                "fig8" => Column::StartupAt(2),
                "fig9" => Column::StartupAt(4),
                _ => fig.column,
            };
            let csv = Figure { column, ..*fig }.table(&grid).unwrap().to_csv();
            let got = memwasm::wasm_core::cache::content_hash(csv.as_bytes());
            assert_eq!(got, digest, "{name} at HARNESS_THREADS={threads}: {got:#018x}\n{csv}");
        }
    }
}
