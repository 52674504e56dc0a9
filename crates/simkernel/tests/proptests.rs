//! Property tests for the kernel substrate: accounting conservation under
//! arbitrary operation sequences, and determinism/work-conservation of the
//! discrete-event scheduler. Runs on the offline `simkernel::prop` harness.

use simkernel::prop::check;
use simkernel::rng::SplitMix64;
use simkernel::{Duration, Kernel, KernelConfig, MapKind, ProcessImage, Sim, Step, TaskSpec};

/// Random memory-lifecycle actions executed against one kernel.
#[derive(Debug, Clone)]
enum Action {
    Spawn,
    ExitNewest,
    MmapAnon { bytes: u32 },
    TouchAll,
    CreateFile { kb: u16 },
    ReadNewestFile,
    MapNewestFileShared,
    RemoveNewestFile,
    MoveNewestProc,
}

fn gen_action(g: &mut SplitMix64) -> Action {
    match g.index(9) {
        0 => Action::Spawn,
        1 => Action::ExitNewest,
        2 => Action::MmapAnon { bytes: g.range_u64(1, 4 << 20) as u32 },
        3 => Action::TouchAll,
        4 => Action::CreateFile { kb: g.range_u64(1, 512) as u16 },
        5 => Action::ReadNewestFile,
        6 => Action::MapNewestFileShared,
        7 => Action::RemoveNewestFile,
        _ => Action::MoveNewestProc,
    }
}

#[test]
fn accounting_conserves_under_random_ops() {
    check("accounting_conserves_under_random_ops", 64, |g| {
        let actions: Vec<Action> = (0..1 + g.index(59)).map(|_| gen_action(g)).collect();
        let kernel = Kernel::boot(KernelConfig {
            ram_bytes: 2 << 30,
            cores: 4,
            proc_kernel_base: 16 << 10,
            boot_used_bytes: 8 << 20,
        });
        let cg_a = kernel.cgroup_create(Kernel::ROOT_CGROUP, "a").unwrap();
        let cg_b = kernel.cgroup_create(Kernel::ROOT_CGROUP, "b").unwrap();
        let mut procs = Vec::new();
        let mut maps: Vec<(simkernel::Pid, simkernel::MappingId, u64)> = Vec::new();
        let mut files = Vec::new();
        let mut file_no = 0u32;

        for a in &actions {
            match a {
                Action::Spawn => {
                    procs.push(ProcessImage::spawn(&kernel, "p", cg_a).build().unwrap().detach());
                }
                Action::ExitNewest => {
                    if let Some(pid) = procs.pop() {
                        kernel.exit(pid, 0).unwrap();
                        kernel.reap(pid).unwrap();
                        maps.retain(|(p, _, _)| *p != pid);
                    }
                }
                Action::MmapAnon { bytes } => {
                    if let Some(&pid) = procs.last() {
                        let m = kernel.mmap(pid, *bytes as u64, MapKind::AnonPrivate).unwrap();
                        maps.push((pid, m, *bytes as u64));
                    }
                }
                Action::TouchAll => {
                    for (pid, m, len) in &maps {
                        // Ignore OOM kills (the process may be gone after).
                        let _ = kernel.touch(*pid, *m, *len);
                    }
                    maps.retain(|(p, _, _)| {
                        matches!(kernel.proc_state(*p), Ok(simkernel::ProcState::Running))
                    });
                    procs.retain(|p| {
                        matches!(kernel.proc_state(*p), Ok(simkernel::ProcState::Running))
                    });
                }
                Action::CreateFile { kb } => {
                    file_no += 1;
                    let id = kernel
                        .create_file(
                            &format!("/f{file_no}"),
                            simkernel::vfs::FileContent::Synthetic(*kb as u64 * 1024),
                        )
                        .unwrap();
                    files.push(id);
                }
                Action::ReadNewestFile => {
                    if let (Some(&pid), Some(&f)) = (procs.last(), files.last()) {
                        let _ = kernel.read_file(pid, f);
                    }
                }
                Action::MapNewestFileShared => {
                    if let (Some(&pid), Some(&f)) = (procs.last(), files.last()) {
                        let size = kernel.file_size(f).unwrap();
                        let m = kernel.mmap(pid, size, MapKind::FileShared(f)).unwrap();
                        let _ = kernel.touch(pid, m, size);
                    }
                }
                Action::RemoveNewestFile => {
                    if let Some(f) = files.pop() {
                        // May be mapped; removal drops cache and uncharges.
                        let _ = kernel.remove_file(f);
                    }
                }
                Action::MoveNewestProc => {
                    if let Some(&pid) = procs.last() {
                        kernel.move_process(pid, cg_b).unwrap();
                    }
                }
            }

            // INVARIANTS after every action:
            let free = kernel.free();
            // 1. Physical conservation.
            assert_eq!(free.total, free.used + free.buff_cache + free.free);
            // 2. Hierarchy: root cgroup sees at least each child's charge.
            let root = kernel.cgroup_stat(Kernel::ROOT_CGROUP).unwrap();
            let a_stat = kernel.cgroup_stat(cg_a).unwrap();
            let b_stat = kernel.cgroup_stat(cg_b).unwrap();
            assert!(root.current >= a_stat.current);
            assert!(root.current >= b_stat.current);
            assert!(root.current >= a_stat.current + b_stat.current);
            // 3. Working sets never exceed memory.current.
            assert!(kernel.cgroup_working_set(cg_a).unwrap() <= a_stat.current);
        }

        // Teardown: exiting everything releases all anon+kernel charges.
        for pid in procs {
            kernel.exit(pid, 0).unwrap();
        }
        let a_stat = kernel.cgroup_stat(cg_a).unwrap();
        let b_stat = kernel.cgroup_stat(cg_b).unwrap();
        assert_eq!(a_stat.anon_bytes, 0);
        assert_eq!(b_stat.anon_bytes, 0);
        assert_eq!(a_stat.kernel_bytes, 0);
        assert_eq!(b_stat.kernel_bytes, 0);
    });
}

// Random DES task sets.
fn gen_task(g: &mut SplitMix64, max_lock: u32) -> TaskSpec {
    let start_ms = g.range_u64(0, 500);
    let mut t = TaskSpec::new("t").starting_at(simkernel::SimTime(start_ms * 1_000_000));
    for _ in 0..1 + g.index(7) {
        t = match g.index(3) {
            0 => t.cpu(Duration::from_nanos(g.range_u64(1, 200_000_000))),
            1 => t.io(Duration::from_nanos(g.range_u64(1, 200_000_000))),
            _ => {
                let l = simkernel::LockId(g.range_u64(0, max_lock as u64) as u32);
                t.acquire(l).cpu(Duration::from_millis(1)).release(l)
            }
        };
    }
    t
}

#[test]
fn des_is_deterministic_and_work_conserving() {
    check("des_is_deterministic_and_work_conserving", 48, |g| {
        let tasks: Vec<TaskSpec> = (0..1 + g.index(23)).map(|_| gen_task(g, 3)).collect();
        let cores = g.range_u64(1, 8) as u32;
        let sim = Sim::new(cores);
        let a = sim.run(tasks.clone());
        let b = sim.run(tasks.clone());
        for (x, y) in a.results.iter().zip(b.results.iter()) {
            assert_eq!(x.finished, y.finished, "deterministic");
        }
        // Work conservation bounds: makespan ≥ max single-task critical
        // path, and ≥ total CPU / cores (steps after last start).
        let total_cpu: u64 = tasks.iter().map(|t| t.cpu_demand().as_nanos()).sum();
        let longest: u64 = tasks
            .iter()
            .map(|t| {
                t.start_at.as_nanos()
                    + t.steps
                        .iter()
                        .map(|s| match s {
                            Step::Cpu(d) | Step::Io(d) => d.as_nanos(),
                            _ => 0,
                        })
                        .sum::<u64>()
            })
            .max()
            .unwrap_or(0);
        assert!(a.makespan.as_nanos() >= total_cpu / cores as u64);
        assert!(a.makespan.as_nanos() + 2 >= longest, "{} vs {}", a.makespan.as_nanos(), longest);
        // All finish times are at/after their start times.
        for (r, t) in a.results.iter().zip(&tasks) {
            assert!(r.finished >= t.start_at);
        }
    });
}

/// An [`IdTable`] is a `BTreeMap` keyed by ids issued in increasing order:
/// after any sequence of inserts (with gaps: ids drawn and never used),
/// removes, reads and writes, its lookups, length and walk equal the
/// model's, and an id once removed is never found again.
#[test]
fn id_table_matches_a_btreemap_model() {
    use simkernel::proc::Pid;
    use simkernel::table::IdTable;
    use std::collections::{BTreeMap, BTreeSet};

    check("id_table_matches_a_btreemap_model", 64, |g| {
        let mut table: IdTable<Pid, u64> = IdTable::new();
        let mut model: BTreeMap<Pid, u64> = BTreeMap::new();
        let mut removed: BTreeSet<Pid> = BTreeSet::new();
        let mut next = 0u64;
        for _ in 0..g.range_u64(1, 200) {
            // Any id up to a few past the newest: live, removed or unissued.
            let probe = Pid(g.range_u64(0, next + 3));
            match g.index(5) {
                0 | 1 => {
                    next += g.range_u64(0, 3);
                    let value = g.next_u64();
                    table.insert(Pid(next), value);
                    model.insert(Pid(next), value);
                    next += 1;
                }
                2 => {
                    assert_eq!(table.remove(probe), model.remove(&probe), "remove {probe:?}");
                    if probe.0 < next {
                        removed.insert(probe);
                    }
                }
                3 => {
                    let value = g.next_u64();
                    match (table.get_mut(probe), model.get_mut(&probe)) {
                        (Some(t), Some(m)) => (*t, *m) = (value, value),
                        (t, m) => assert_eq!(t, m, "get_mut {probe:?}"),
                    }
                }
                _ => assert_eq!(table.get(probe), model.get(&probe), "get {probe:?}"),
            }
            assert_eq!(table.len(), model.len());
            assert!(table.iter().eq(model.iter().map(|(k, v)| (*k, v))), "walk in id order");
            assert!(removed.iter().all(|id| !table.contains(*id)), "a removed id came back");
        }
    });
}
