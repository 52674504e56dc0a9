//! # simkernel — a deterministic, simulated Linux kernel substrate
//!
//! The paper *Memory Efficient WebAssembly Containers* measures container
//! memory through two observers — the Kubernetes metrics-server (per-pod
//! cgroup working set) and the system-wide `free(1)` command — and measures
//! startup latency of up to 400 concurrently starting containers on a 20-core
//! machine. Reproducing those measurements offline requires a kernel model
//! that provides:
//!
//! * **Processes** with address spaces built from mappings (private
//!   anonymous, shared file-backed, copy-on-write file-backed), including the
//!   kernel-side overhead that only `free` sees (task structs, kernel stacks,
//!   page tables).
//! * **A physical page store** where file-backed pages (binaries, shared
//!   libraries, Wasm modules in the page cache) exist once regardless of how
//!   many processes map them — the mechanism behind the WAMR-in-crun memory
//!   savings.
//! * **cgroup v2 accounting** with Linux's first-toucher charging for page
//!   cache, so the metrics-server observer and the `free` observer disagree
//!   for structural reasons, exactly as the paper reports (up to 42%).
//! * **A discrete-event simulated clock** with a fair-share core scheduler
//!   and contended locks, so that startup-latency crossovers between
//!   densities of 10 and 400 pods emerge from contention rather than tables.
//!
//! Everything is deterministic: no wall-clock reads, no OS randomness.
//!
//! ## Quick tour
//!
//! ```
//! use simkernel::{Kernel, KernelConfig, MapKind, ProcessImage};
//!
//! let kernel = Kernel::boot(KernelConfig::default());
//! let cg = kernel.cgroup_create(Kernel::ROOT_CGROUP, "pod-a").unwrap();
//! let pid = ProcessImage::spawn(&kernel, "svc", cg).build().unwrap().detach();
//! let map = kernel.mmap(pid, 2 << 20, MapKind::AnonPrivate).unwrap();
//! kernel.touch(pid, map, 2 << 20).unwrap();
//! assert_eq!(kernel.cgroup_stat(cg).unwrap().anon_bytes, 2 << 20);
//! let free = kernel.free();
//! assert!(free.used > 0);
//! ```

#![allow(
    clippy::disallowed_methods,
    reason = "the kernel verbs clippy.toml restricts are this crate's own"
)]

pub(crate) mod cgroup;
pub(crate) mod des;
pub(crate) mod error;
pub(crate) mod faults;
pub mod image;
pub(crate) mod kernel;
pub mod lifecycle;
pub(crate) mod mem;
pub mod proc;
pub mod prop;
pub(crate) mod replay;
pub mod rng;
pub(crate) mod table;
pub(crate) mod time;
pub(crate) mod trace;
pub mod vfs;

pub use cgroup::{CgroupId, CgroupStats};
pub use des::{CalendarQueue, LockId, Sim, SimOutcome, Step, TaskId, TaskResult, TaskSpec};
pub use error::{KernelError, KernelResult};
pub use faults::{FaultPlan, FaultSite};
pub use image::{ProcGuard, ProcessImage};
pub use kernel::{FreeReport, IoModel, Kernel, KernelConfig, PAGE_SIZE};
pub use lifecycle::{Lifecycle, LifecycleState};
pub use mem::{MapKind, MappingId};
pub use proc::{Pid, ProcState};
pub use replay::{Replay, ReplayStats};
pub use time::{Clock, Duration, SimTime};
pub use trace::{Phase, StepTrace};
pub use vfs::FileId;

#[cfg(test)]
mod tests {
    mod accounting {
        //! The kernel's running totals — page-cache bytes, per-process RSS, live
        //! process count, each cgroup's process count — must equal what walking
        //! the files, mappings and processes gives, and its tables must agree with
        //! each other, after any sequence of operations. The kernel is sized so
        //! that the sequences reach the paths that move the totals indirectly:
        //! physical-pressure eviction, cross-tenant cache displacement, OOM kills
        //! from a tight `memory.max`, and charges refused because RAM is exhausted.
        //! A powered-off kernel refuses every verb that would change it.

        use crate::prop::check;
        use crate::rng::SplitMix64;
        use crate::vfs::FileContent;
        use crate::{
            CgroupId, Duration, FileId, IoModel, Kernel, KernelConfig, KernelError, KernelResult,
            MapKind, MappingId, Pid, ProcGuard, ProcState, ProcessImage, StepTrace,
        };

        /// A bare process, owned by the caller from here on.
        fn spawn(k: &Kernel, name: &str, cgroup: CgroupId) -> KernelResult<Pid> {
            ProcessImage::spawn(k, name, cgroup).build().map(ProcGuard::detach)
        }

        /// The [`World::step`] operation that drops page cache directly.
        const DROP_CACHE: usize = 13;

        struct World {
            kernel: Kernel,
            /// `roomy`, `tight`, then the groups the sequence created and has not
            /// removed.
            cgroups: Vec<CgroupId>,
            procs: Vec<Pid>,
            maps: Vec<(Pid, MappingId, u64)>,
            files: Vec<FileId>,
            created: u32,
            /// `touch` calls that found RAM exhausted even after eviction.
            exhausted: u64,
            /// Created groups removed again.
            removed: u64,
        }

        impl World {
            fn new(g: &mut SplitMix64) -> World {
                let kernel = Kernel::boot(KernelConfig {
                    ram_bytes: 20 << 20,
                    cores: 2,
                    proc_kernel_base: 16 << 10,
                    boot_used_bytes: 8 << 20,
                });
                if g.next_bool() {
                    kernel.set_io_model(Some(IoModel {
                        queue_ns_per_mib: 1_000,
                        drain_bytes_per_sec: 1 << 20,
                        displace: true,
                    }));
                }
                let roomy = kernel.cgroup_create(Kernel::ROOT_CGROUP, "roomy").unwrap();
                let tight = kernel.cgroup_create(Kernel::ROOT_CGROUP, "tight").unwrap();
                kernel.cgroup_set_limit(tight, Some(6 << 20)).unwrap();
                World {
                    kernel,
                    cgroups: vec![roomy, tight],
                    procs: Vec::new(),
                    maps: Vec::new(),
                    files: Vec::new(),
                    created: 0,
                    exhausted: 0,
                    removed: 0,
                }
            }

            /// One random operation. Errors are expected (OOM, exhaustion, a dead
            /// process, a powered-off kernel) and ignored: the property is about
            /// what the totals say afterwards, whatever happened. Returns whether
            /// the operation drops page cache by itself (evict/overwrite/remove).
            fn step(&mut self, g: &mut SplitMix64) -> bool {
                let k = &self.kernel;
                let pid = (!self.procs.is_empty()).then(|| *g.choose(&self.procs));
                let file = (!self.files.is_empty()).then(|| *g.choose(&self.files));
                let map = (!self.maps.is_empty()).then(|| *g.choose(&self.maps));
                let cgroup = *g.choose(&self.cgroups);
                let op = g.index(16);
                match op {
                    0 | 1 => self.procs.extend(spawn(k, "p", cgroup)),
                    2 => {
                        self.created += 1;
                        let size = g.range_u64(1, 4 << 20);
                        let path = format!("/f{}", self.created);
                        self.files.extend(k.create_file(&path, FileContent::Synthetic(size)));
                    }
                    3 => {
                        if let Some(pid) = pid {
                            let len = g.range_u64(1, 8 << 20);
                            if let Ok(m) = k.mmap(pid, len, MapKind::AnonPrivate) {
                                self.maps.push((pid, m, len));
                            }
                        }
                    }
                    4 => {
                        if let (Some(pid), Some(f)) = (pid, file) {
                            let len = k.file_size(f).unwrap();
                            let kind = if g.next_bool() {
                                MapKind::FileShared(f)
                            } else {
                                MapKind::FileCow(f)
                            };
                            if let Ok(m) = k.mmap(pid, len, kind) {
                                self.maps.push((pid, m, len));
                            }
                        }
                    }
                    5..=7 => {
                        if let Some((pid, m, len)) = map {
                            let r = k.touch(pid, m, g.range_u64(0, len + 1));
                            self.exhausted +=
                                u64::from(matches!(r, Err(KernelError::PhysicalExhausted { .. })));
                        }
                    }
                    8 => {
                        if let Some((pid, m, len)) = map {
                            let _ = k.cow_write(pid, m, g.range_u64(0, len + 1));
                        }
                    }
                    9 | 10 => {
                        if let (Some(pid), Some(f)) = (pid, file) {
                            let _ = k.read_file(pid, f);
                        }
                    }
                    11 => {
                        if let Some((pid, m, _)) = map {
                            if k.munmap(pid, m).is_ok() {
                                self.maps.retain(|x| (x.0, x.1) != (pid, m));
                            }
                        }
                    }
                    12 => {
                        if let Some(pid) = pid {
                            let _ = if g.next_bool() { k.exit(pid, 0) } else { k.oom_kill(pid) };
                            if g.next_bool() {
                                let _ = k.reap(pid);
                            }
                        }
                    }
                    DROP_CACHE => {
                        if let Some(f) = file {
                            // Only a powered-off kernel refuses these two.
                            let allowed = |r: &KernelResult<()>| {
                                r.is_ok() || *r == Err(KernelError::PoweredOff)
                            };
                            match g.index(3) {
                                0 => {
                                    let r = k.evict_file(f).map(drop);
                                    assert!(allowed(&r), "{r:?}");
                                }
                                1 => {
                                    let size = g.range_u64(1, 2 << 20);
                                    let _ = k.overwrite_file(f, FileContent::Synthetic(size));
                                }
                                _ => {
                                    let r = k.remove_file(f);
                                    assert!(allowed(&r), "{r:?}");
                                    if r.is_ok() {
                                        self.files.retain(|x| *x != f);
                                    }
                                }
                            }
                        }
                    }
                    14 if g.next_bool() => self.cgroups.extend(k.cgroup_create(cgroup, "g")),
                    14 => {
                        // Refused while the group holds processes, children or
                        // charges; `roomy` and `tight` stay.
                        if !self.cgroups[..2].contains(&cgroup) && k.cgroup_remove(cgroup).is_ok() {
                            self.cgroups.retain(|c| *c != cgroup);
                            self.removed += 1;
                        }
                    }
                    // Rare: the rest of the sequence runs against a dead machine.
                    _ => {
                        if g.index(20) == 0 {
                            k.power_off();
                        }
                    }
                }
                // Any step can kill any process (OOM victim selection is by size).
                let running = |p: &Pid| k.proc_state(*p) == Ok(ProcState::Running);
                self.procs.retain(running);
                self.maps.retain(|(p, _, _)| running(p));
                op == DROP_CACHE
            }

            fn assert_totals_match_walks(&self) {
                let k = &self.kernel;
                assert_eq!(k.check_accounting(), Ok(()));
                // Page cache and live processes again, walked through the public
                // observers and against this test's own books.
                let cached: u64 = self.files.iter().map(|f| k.file_cached(*f).unwrap()).sum();
                assert_eq!(k.free().buff_cache, cached);
                assert_eq!(k.live_procs(), k.ps().len());
                assert_eq!(k.live_procs(), self.procs.len());
            }
        }

        #[test]
        fn running_totals_equal_recomputed_walks_under_random_ops() {
            let mut oom_kills = 0u64;
            let mut pressure_evictions = 0u64;
            let mut exhausted = 0u64;
            let mut removed = 0u64;
            check("running_totals_equal_recomputed_walks_under_random_ops", 96, |g| {
                let mut w = World::new(g);
                for _ in 0..g.range_u64(50, 300) {
                    let cached_before = w.kernel.free().buff_cache;
                    let drops_cache = w.step(g);
                    w.assert_totals_match_walks();
                    let shrank = w.kernel.free().buff_cache < cached_before;
                    pressure_evictions += u64::from(shrank && !drops_cache);
                }
                exhausted += w.exhausted;
                removed += w.removed;
                oom_kills += w.kernel.cgroup_oom_events(w.cgroups[1]).unwrap();
            });
            // The sequences must actually reach the indirect paths.
            assert!(oom_kills > 0, "no sequence hit memory.max");
            assert!(exhausted > 0, "no sequence ran out of RAM");
            assert!(pressure_evictions > 0, "no sequence evicted or displaced page cache");
            assert!(removed > 0, "no sequence removed a cgroup it created");
        }

        /// Every verb that changes a kernel answers `PoweredOff` once the power is
        /// gone, and changes nothing; the observers keep answering.
        #[test]
        fn a_powered_off_kernel_refuses_every_mutating_verb() {
            let k = Kernel::boot(KernelConfig::default());
            let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "g").unwrap();
            let empty = k.cgroup_create(Kernel::ROOT_CGROUP, "empty").unwrap();
            let pid = spawn(&k, "p", cg).unwrap();
            let zombie = spawn(&k, "z", cg).unwrap();
            k.exit(zombie, 0).unwrap();
            let anon = k.mmap(pid, 1 << 20, MapKind::AnonPrivate).unwrap();
            k.touch(pid, anon, 4 << 10).unwrap();
            let file = k.create_file("/f", FileContent::Synthetic(1 << 20)).unwrap();
            k.read_file(pid, file).unwrap();
            let cow = k.mmap(pid, 1 << 20, MapKind::FileCow(file)).unwrap();
            let snapshot =
                || (k.free(), k.cgroup_stat(cg).unwrap(), k.cgroup_stats(cg).unwrap(), k.ps());
            let before = snapshot();

            k.power_off();
            let refused: [(&str, KernelResult<()>); 22] = [
                ("cgroup_create", k.cgroup_create(cg, "h").map(drop)),
                ("cgroup_remove", k.cgroup_remove(empty)),
                ("cgroup_set_limit", k.cgroup_set_limit(cg, Some(1 << 30))),
                ("cgroup_set_cpu_max", k.cgroup_set_cpu_max(cg, Some((1, 2)))),
                ("cgroup_set_io_read_budget", k.cgroup_set_io_read_budget(cg, Some(1 << 20))),
                (
                    "cgroup_charge_cpu",
                    crate::image::charge_cpu(
                        &k,
                        pid,
                        Duration::from_millis(1),
                        &mut StepTrace::new(),
                    )
                    .map(drop),
                ),
                ("spawn", spawn(&k, "q", cg).map(drop)),
                ("unshare", k.unshare(pid, 1)),
                ("exit", k.exit(pid, 0)),
                ("oom_kill", k.oom_kill(pid)),
                ("reap", k.reap(zombie)),
                ("mmap", k.mmap(pid, 1 << 20, MapKind::AnonPrivate).map(drop)),
                ("touch", k.touch(pid, anon, 8 << 10)),
                ("cow_write", k.cow_write(pid, cow, 4 << 10)),
                ("munmap", k.munmap(pid, anon)),
                ("create_file", k.create_file("/g", FileContent::Synthetic(1)).map(drop)),
                ("ensure_file", k.ensure_file("/g", FileContent::Synthetic(1)).map(drop)),
                ("overwrite_file", k.overwrite_file(file, FileContent::Synthetic(1))),
                ("read_file", k.read_file(pid, file).map(drop)),
                ("read_file_cold", k.read_file_cold(pid, file).map(drop)),
                ("evict_file", k.evict_file(file).map(drop)),
                ("remove_file", k.remove_file(file)),
            ];
            for (verb, r) in refused {
                assert_eq!(r, Err(KernelError::PoweredOff), "{verb} on a powered-off kernel");
            }

            assert_eq!(snapshot(), before, "nothing moved");
            assert_eq!(k.proc_state(pid), Ok(ProcState::Running));
            assert_eq!(k.proc_state(zombie), Ok(ProcState::Exited(0)));
            assert_eq!(k.file_size(file), Ok(1 << 20));
            assert_eq!(k.check_accounting(), Ok(()));
        }
    }

    mod proptests {
        //! Property tests for the kernel substrate: accounting conservation under
        //! arbitrary operation sequences, and determinism/work-conservation of the
        //! discrete-event scheduler. Runs on the offline `crate::prop` harness.

        use std::collections::{BTreeMap, VecDeque};

        use crate::prop::check;
        use crate::rng::SplitMix64;
        use crate::{
            Duration, Kernel, KernelConfig, LockId, MapKind, ProcessImage, Sim, SimTime, Step,
            TaskId, TaskSpec,
        };

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
            SpawnInB,
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
                _ => Action::SpawnInB,
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
                let mut maps: Vec<(crate::Pid, crate::MappingId, u64)> = Vec::new();
                let mut files = Vec::new();
                let mut file_no = 0u32;

                for a in &actions {
                    match a {
                        Action::Spawn => {
                            procs.push(
                                ProcessImage::spawn(&kernel, "p", cg_a).build().unwrap().detach(),
                            );
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
                                let m =
                                    kernel.mmap(pid, *bytes as u64, MapKind::AnonPrivate).unwrap();
                                maps.push((pid, m, *bytes as u64));
                            }
                        }
                        Action::TouchAll => {
                            for (pid, m, len) in &maps {
                                // Ignore OOM kills (the process may be gone after).
                                let _ = kernel.touch(*pid, *m, *len);
                            }
                            maps.retain(|(p, _, _)| {
                                matches!(kernel.proc_state(*p), Ok(crate::ProcState::Running))
                            });
                            procs.retain(|p| {
                                matches!(kernel.proc_state(*p), Ok(crate::ProcState::Running))
                            });
                        }
                        Action::CreateFile { kb } => {
                            file_no += 1;
                            let id = kernel
                                .create_file(
                                    &format!("/f{file_no}"),
                                    crate::vfs::FileContent::Synthetic(*kb as u64 * 1024),
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
                        Action::SpawnInB => {
                            procs.push(
                                ProcessImage::spawn(&kernel, "p", cg_b).build().unwrap().detach(),
                            );
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

        // Random DES task sets. Durations are whole multiples of `grain` ns.
        fn gen_task(g: &mut SplitMix64, max_lock: u32, grain: u64) -> TaskSpec {
            let start_ms = g.range_u64(0, 500);
            let mut t = TaskSpec::new("t").starting_at(SimTime(start_ms * 1_000_000));
            for _ in 0..1 + g.index(7) {
                t = match g.index(3) {
                    0 => t.cpu(Duration::from_nanos(g.range_u64(1, 200_000_000 / grain) * grain)),
                    1 => t.io(Duration::from_nanos(g.range_u64(1, 200_000_000 / grain) * grain)),
                    _ => {
                        let l = LockId(g.range_u64(0, max_lock as u64) as u32);
                        t.acquire(l).cpu(Duration::from_millis(1)).release(l)
                    }
                };
            }
            t
        }

        #[test]
        fn des_is_deterministic_and_work_conserving() {
            check("des_is_deterministic_and_work_conserving", 48, |g| {
                let tasks: Vec<TaskSpec> =
                    (0..1 + g.index(23)).map(|_| gen_task(g, 3, 1)).collect();
                let cores = g.range_u64(1, 8) as u32;
                let sim = Sim::new(cores);
                let a = sim.run(tasks.clone());
                let b = sim.run(tasks.clone());
                for (x, y) in a.results.iter().zip(b.results.iter()) {
                    assert_eq!(x.finished, y.finished, "deterministic");
                }
                // Work conservation bounds: makespan ≥ total CPU / cores, ≥ each
                // task's start plus its CPU and I/O (a step never runs faster than
                // one core), and ≥ the CPU and I/O each lock's critical sections
                // hold (holds of one lock never overlap).
                let makespan = a.makespan.as_nanos();
                let total_cpu: u64 = tasks.iter().map(|t| t.cpu_demand().as_nanos()).sum();
                assert!(makespan >= total_cpu / cores as u64);
                let mut held: BTreeMap<LockId, u64> = BTreeMap::new();
                for t in &tasks {
                    let mut own = 0;
                    let mut holding: Vec<LockId> = Vec::new();
                    for s in &t.steps {
                        match *s {
                            Step::Cpu(d) | Step::Io(d) => {
                                own += d.as_nanos();
                                for l in &holding {
                                    *held.entry(*l).or_default() += d.as_nanos();
                                }
                            }
                            Step::Acquire(l) => holding.push(l),
                            Step::Release(l) => holding.retain(|h| *h != l),
                        }
                    }
                    assert!(
                        makespan >= t.start_at.as_nanos() + own,
                        "{makespan} vs one task's path"
                    );
                }
                for (l, hold) in held {
                    assert!(makespan >= hold, "{makespan} vs {l:?} held for {hold}");
                }
                // All finish times are at/after their start times.
                for (r, t) in a.results.iter().zip(&tasks) {
                    assert!(r.finished >= t.start_at);
                }
            });
        }

        /// Units of remaining CPU work per ns in [`exact_des`]: 840 = lcm(1..=8),
        /// so with at most eight tasks every processor-sharing rate `min(c, n)/n`
        /// moves a whole number of units per ns and the arithmetic is exact.
        const UNITS_PER_NS: u64 = 840;

        /// The startup DES's model, written independently of `crate::des` as
        /// the O(tasks) scan it once was: per-task remaining CPU work, advanced by
        /// `dt × min(c, n)/n` each event; an event lands on the first ns at which
        /// some CPU step has no work left, some sleep ends or some task starts;
        /// due tasks are handled in id order; a released lock goes to its first
        /// waiter, and a woken task runs after the one that woke it. Exact for at
        /// most eight tasks. Returns each task's finish time and the event count.
        fn exact_des(cores: u64, tasks: &[TaskSpec]) -> (Vec<u64>, u64) {
            #[derive(Clone, Copy, PartialEq)]
            enum State {
                Pending,
                Running(u64),
                Sleeping(u64),
                Blocked,
                Done,
            }
            assert!(tasks.len() <= 8, "the oracle is exact for at most eight tasks");
            let n = tasks.len();
            let mut state = vec![State::Pending; n];
            let mut pc = vec![0usize; n];
            let mut finish = vec![0u64; n];
            let mut holder: BTreeMap<LockId, usize> = BTreeMap::new();
            let mut waiting: BTreeMap<LockId, VecDeque<usize>> = BTreeMap::new();
            let (mut now, mut events) = (0u64, 0u64);
            loop {
                for i in 0..n {
                    let due = match state[i] {
                        State::Pending => tasks[i].start_at.as_nanos() <= now,
                        State::Running(left) => left == 0,
                        State::Sleeping(end) => end <= now,
                        State::Blocked | State::Done => false,
                    };
                    if !due {
                        continue;
                    }
                    events += 1;
                    if state[i] != State::Pending {
                        pc[i] += 1;
                    }
                    // Run `i`, then every task a release of its wakes, until each
                    // waits or ends.
                    let mut woken = VecDeque::from([i]);
                    while let Some(j) = woken.pop_front() {
                        state[j] = loop {
                            match tasks[j].steps.get(pc[j]) {
                                None => {
                                    finish[j] = now;
                                    break State::Done;
                                }
                                Some(Step::Cpu(d)) if d.as_nanos() > 0 => {
                                    break State::Running(d.as_nanos() * UNITS_PER_NS)
                                }
                                Some(Step::Io(d)) if d.as_nanos() > 0 => {
                                    break State::Sleeping(now + d.as_nanos())
                                }
                                Some(Step::Cpu(_) | Step::Io(_)) => pc[j] += 1,
                                Some(Step::Acquire(l)) => {
                                    if holder.contains_key(l) {
                                        waiting.entry(*l).or_default().push_back(j);
                                        break State::Blocked;
                                    }
                                    holder.insert(*l, j);
                                    pc[j] += 1;
                                }
                                Some(Step::Release(l)) => {
                                    assert_eq!(holder.remove(l), Some(j));
                                    pc[j] += 1;
                                    if let Some(w) =
                                        waiting.get_mut(l).and_then(VecDeque::pop_front)
                                    {
                                        holder.insert(*l, w);
                                        pc[w] += 1;
                                        woken.push_back(w);
                                    }
                                }
                            }
                        };
                    }
                }
                if state.iter().all(|s| *s == State::Done) {
                    return (finish, events);
                }
                let busy = state.iter().filter(|s| matches!(s, State::Running(_))).count() as u64;
                let per_ns = (UNITS_PER_NS * cores.min(busy)).checked_div(busy).unwrap_or(0);
                let next = (0..n)
                    .filter_map(|i| match state[i] {
                        State::Pending => Some(tasks[i].start_at.as_nanos()),
                        State::Running(left) => Some(now + left.div_ceil(per_ns)),
                        State::Sleeping(end) => Some(end),
                        State::Blocked | State::Done => None,
                    })
                    .min()
                    .expect("a task set the generator builds never deadlocks");
                for s in &mut state {
                    if let State::Running(left) = s {
                        *left = left.saturating_sub((next - now) * per_ns);
                    }
                }
                now = next;
            }
        }

        /// `Sim::run` is exact: on random sets of at most eight tasks (lock
        /// convoys, tasks that share a start instant, one to eight cores), with
        /// whole-ms and with random-ns durations, its finish times, makespan and
        /// event count equal [`exact_des`]'s.
        #[test]
        fn des_run_is_exact_on_small_task_sets() {
            for grain in [1_000_000, 1] {
                check(&format!("des_run_is_exact_on_small_task_sets/grain {grain}"), 512, |g| {
                    let mut tasks: Vec<TaskSpec> =
                        (0..1 + g.index(8)).map(|_| gen_task(g, 3, grain)).collect();
                    // About a third of the tasks start together with an earlier one.
                    for i in 1..tasks.len() {
                        if g.index(3) == 0 {
                            tasks[i].start_at = tasks[g.index(i)].start_at;
                        }
                    }
                    let cores = g.range_u64(1, 9);
                    let out = Sim::new(cores as u32).run(tasks.clone());
                    let (finish, events) = exact_des(cores, &tasks);
                    assert_eq!(out.events, events, "events on {cores} cores");
                    assert_eq!(out.makespan, SimTime(finish.iter().copied().max().unwrap_or(0)));
                    for (i, r) in out.results.iter().enumerate() {
                        let want = (TaskId(i), tasks[i].start_at, SimTime(finish[i]));
                        assert_eq!((r.id, r.started, r.finished), want, "{cores} cores");
                    }
                });
            }
        }

        /// `Sim::run` is translation-invariant, the law `Cluster::measure_startup`
        /// replays repeated node schedules by: shifting every task's start by δ
        /// (any δ up to 2⁴⁰ ns) shifts every start, finish and the makespan by δ
        /// and leaves the event count alone. Task sets run both over and under
        /// the core count, with CPU and I/O steps of whole ms (many steps end on
        /// the same instant) and of random ns, critical sections nested on one
        /// to three locks, and tasks that share a start instant — so a loop that
        /// rounds an absolute instant, not a difference, fails.
        #[test]
        fn des_run_shifts_with_its_start_instants() {
            let (mut over, mut under) = (0, 0);
            for grain in [1_000_000, 1] {
                let name = format!("des_run_shifts_with_its_start_instants/grain {grain}");
                check(&name, 4096, |g| {
                    let cores = g.range_u64(1, 9);
                    // As often more tasks than cores as not.
                    let mut tasks: Vec<TaskSpec> = (0..1 + g.index(2 * cores as usize))
                        .map(|_| gen_nested_task(g, grain))
                        .collect();
                    for i in 1..tasks.len() {
                        if g.index(3) == 0 {
                            tasks[i].start_at = tasks[g.index(i)].start_at;
                        }
                    }
                    if tasks.len() as u64 > cores {
                        over += 1;
                    } else {
                        under += 1;
                    }
                    let delta = Duration::from_nanos(g.range_u64(0, 1 << 40));
                    let sim = Sim::new(cores as u32);
                    let base = sim.run(tasks.clone());
                    for t in &mut tasks {
                        t.start_at += delta;
                    }
                    let shifted = sim.run(tasks);
                    let on = format!("{cores} cores, δ {delta:?}");
                    assert_eq!(shifted.events, base.events, "events on {on}");
                    assert_eq!(shifted.makespan, base.makespan + delta, "{on}");
                    for (s, b) in shifted.results.iter().zip(&base.results) {
                        let want = (b.id, b.started + delta, b.finished + delta);
                        assert_eq!((s.id, s.started, s.finished), want, "{on}");
                    }
                });
            }
            assert!(over > 2000 && under > 2000, "{over} over, {under} under the core count");
        }

        /// A task of one to six steps, each a CPU or I/O step or a critical
        /// section on one to three locks, taken in ascending order and released
        /// innermost first (nested, never deadlocked); every instant and
        /// duration a whole multiple of `grain` ns.
        fn gen_nested_task(g: &mut SplitMix64, grain: u64) -> TaskSpec {
            let start = g.range_u64(0, 300_000_000 / grain) * grain;
            let mut t = TaskSpec::new("t").starting_at(SimTime(start));
            for _ in 0..1 + g.index(6) {
                let d = Duration::from_nanos(g.range_u64(1, 50_000_000 / grain) * grain);
                t = match g.index(3) {
                    0 => t.cpu(d),
                    1 => t.io(d),
                    _ => {
                        let locks: Vec<LockId> =
                            (0..3).filter(|_| g.next_bool()).map(LockId).collect();
                        let locks = if locks.is_empty() { vec![LockId(0)] } else { locks };
                        t = locks.iter().fold(t, |t, &l| t.acquire(l).cpu(d));
                        locks.iter().rev().fold(t, |t, &l| t.release(l))
                    }
                };
            }
            t
        }

        /// The event queue pops what a `BTreeSet<(time, payload)>` would: under
        /// random interleavings of `push`, `pop` and `pop_before` (limits below, at
        /// and above the head), with many entries sharing a time and a few at the
        /// far end of the clock, every popped value, `len` and `is_empty` equal the
        /// model's after every operation.
        #[test]
        fn event_queue_matches_a_btreeset_model() {
            use crate::CalendarQueue;
            use std::collections::BTreeSet;

            check("event_queue_matches_a_btreeset_model", 64, |g| {
                let mut queue = CalendarQueue::new();
                let mut model: BTreeSet<(u64, usize)> = BTreeSet::new();
                // Pushes are never earlier than the last pop (the queue's invariant).
                let mut floor = 0u64;
                for op in 0..g.range_u64(1, 300) as usize {
                    let popped = match g.index(4) {
                        0 | 1 => {
                            let t = match g.index(8) {
                                0..=3 => floor.saturating_add(g.range_u64(0, 3)), // many equal times
                                4..=6 => floor.saturating_add(g.range_u64(0, 1_000_000)),
                                _ => g.range_u64(floor, u64::MAX), // up to u64::MAX - 1
                            }
                            .min(u64::MAX - 1);
                            // Distinct payloads whose order is not push order.
                            let payload = g.index(64) << 32 | op;
                            queue.push(SimTime(t), payload);
                            model.insert((t, payload));
                            None
                        }
                        2 => {
                            let got = queue.pop().map(|(t, p)| (t.as_nanos(), p));
                            assert_eq!(got, model.pop_first(), "pop");
                            got
                        }
                        _ => {
                            let head = model.first().map_or(floor, |e| e.0);
                            let limit = match g.index(4) {
                                0 => head.saturating_sub(1),
                                1 => head,
                                2 => head + 1,
                                _ => u64::MAX,
                            };
                            let got =
                                queue.pop_before(SimTime(limit)).map(|(t, p)| (t.as_nanos(), p));
                            let want = if head < limit { model.pop_first() } else { None };
                            assert_eq!(got, want, "pop_before {limit} with head {head}");
                            got
                        }
                    };
                    if let Some((t, _)) = popped {
                        floor = t;
                    }
                    assert_eq!(queue.len(), model.len());
                    assert_eq!(queue.is_empty(), model.is_empty());
                }
            });
        }

        /// A bundle-like path: long shared prefixes, few distinct names, so
        /// that creates collide with files that exist.
        fn bundle_path(g: &mut SplitMix64) -> String {
            const PODS: [&str; 4] = ["bench-1", "bench-12", "bench-123", "probe-7"];
            const LEAVES: [&str; 4] =
                ["config.json", "rootfs/app/main.wasm", "rootfs/app/main.py", "rootfs/app"];
            let (pod, kind, leaf) = (g.index(4), g.index(2), g.index(4));
            format!("/run/containers/{}-{}/{}", PODS[pod], ["c0", "pause"][kind], LEAVES[leaf])
        }

        /// The VFS path index is a `BTreeMap` from path to id: after any
        /// sequence of creates (refused for a path that exists), lookups and
        /// removes, every lookup equals the model's and `Vfs::check` holds.
        #[test]
        fn vfs_index_matches_a_btreemap_model() {
            use crate::vfs::{FileContent, Vfs};

            check("vfs_index_matches_a_btreemap_model", 64, |g| {
                let mut vfs = Vfs::new();
                let mut model: BTreeMap<String, crate::FileId> = BTreeMap::new();
                for _ in 0..g.range_u64(1, 120) {
                    let path = bundle_path(g);
                    match g.index(3) {
                        0 => {
                            let made = vfs.create(&path, FileContent::Synthetic(1));
                            assert_eq!(made.is_none(), model.contains_key(&path), "create {path}");
                            if let Some(id) = made {
                                model.insert(path, id);
                            }
                        }
                        1 => assert_eq!(vfs.lookup(&path), model.get(&path).copied(), "{path}"),
                        _ => {
                            let removed = model.remove(&path).map(|id| vfs.remove(id));
                            if let Some(removed) = removed {
                                assert_eq!(removed.expect("modelled file exists").0.path, path);
                            }
                        }
                    }
                    vfs.check().unwrap();
                    for (path, &id) in &model {
                        assert_eq!(vfs.lookup(path), Some(id), "{path}");
                    }
                }
            });
        }

        /// Removing a cgroup hands every file charged to it to its parent,
        /// and no other file's charge moves.
        #[test]
        fn cgroup_remove_recharges_every_file_of_the_removed_cgroup() {
            check("cgroup_remove_recharges_every_file_of_the_removed_cgroup", 32, |g| {
                let k = Kernel::boot(KernelConfig::default());
                let parent = k.cgroup_create(Kernel::ROOT_CGROUP, "pods").unwrap();
                let pods: Vec<_> =
                    (0..3).map(|i| k.cgroup_create(parent, &format!("pod-{i}")).unwrap()).collect();
                let mut files = Vec::new();
                for _ in 0..g.range_u64(1, 24) {
                    let path = bundle_path(g);
                    let f = k.ensure_file(&path, crate::vfs::FileContent::Synthetic(4096)).unwrap();
                    let reader = pods[g.index(3)];
                    let pid = ProcessImage::spawn(&k, "reader", reader).build().unwrap().detach();
                    k.read_file(pid, f).unwrap();
                    k.exit(pid, 0).unwrap();
                    k.reap(pid).unwrap();
                    files.push(f);
                }
                let gone = pods[g.index(3)];
                let before: Vec<_> = files.iter().map(|&f| k.file_charge(f)).collect();
                k.cgroup_remove(gone).unwrap();
                for (&f, was) in files.iter().zip(before) {
                    let now = if was == Some(gone) { Some(parent) } else { was };
                    assert_eq!(k.file_charge(f), now, "{f:?}");
                }
                k.check_accounting().unwrap();
            });
        }

        /// An [`IdTable`] is a `BTreeMap` keyed by ids issued in increasing order:
        /// after any sequence of inserts (with gaps: ids drawn and never used),
        /// removes, reads and writes, its lookups, length and walk equal the
        /// model's, and an id once removed is never found again.
        #[test]
        fn id_table_matches_a_btreemap_model() {
            use crate::proc::Pid;
            use crate::table::IdTable;
            use std::collections::BTreeSet;

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
                            assert_eq!(
                                table.remove(probe),
                                model.remove(&probe),
                                "remove {probe:?}"
                            );
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
                    assert!(
                        table.iter().eq(model.iter().map(|(k, v)| (*k, v))),
                        "walk in id order"
                    );
                    assert!(
                        removed.iter().all(|id| !table.contains(*id)),
                        "a removed id came back"
                    );
                }
            });
        }
    }
}
