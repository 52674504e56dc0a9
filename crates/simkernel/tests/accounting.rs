//! The kernel's running totals — page-cache bytes, per-process RSS, live
//! process count, each cgroup's process count — must equal what walking
//! the files, mappings and processes gives, and its tables must agree with
//! each other, after any sequence of operations. The kernel is sized so
//! that the sequences reach the paths that move the totals indirectly:
//! physical-pressure eviction, cross-tenant cache displacement, OOM kills
//! from a tight `memory.max`, and charges refused because RAM is exhausted.
//! A powered-off kernel refuses every verb that would change it.

use simkernel::proc::NamespaceKind;
use simkernel::prop::check;
use simkernel::rng::SplitMix64;
use simkernel::vfs::FileContent;
use simkernel::{
    CgroupId, Duration, FileId, IoModel, Kernel, KernelConfig, KernelError, KernelResult, MapKind,
    MappingId, Pid, ProcGuard, ProcState, ProcessImage, StepTrace,
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
                    let kind =
                        if g.next_bool() { MapKind::FileShared(f) } else { MapKind::FileCow(f) };
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
                    let allowed =
                        |r: &KernelResult<()>| r.is_ok() || *r == Err(KernelError::PoweredOff);
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
    let snapshot = || (k.free(), k.cgroup_stat(cg).unwrap(), k.cgroup_stats(cg).unwrap(), k.ps());
    let before = snapshot();

    k.power_off();
    let refused: [(&str, KernelResult<()>); 24] = [
        ("cgroup_create", k.cgroup_create(cg, "h").map(drop)),
        ("cgroup_remove", k.cgroup_remove(empty)),
        ("cgroup_set_limit", k.cgroup_set_limit(cg, Some(1 << 30))),
        ("cgroup_set_cpu_max", k.cgroup_set_cpu_max(cg, Some((1, 2)))),
        ("cgroup_set_io_read_budget", k.cgroup_set_io_read_budget(cg, Some(1 << 20))),
        (
            "cgroup_charge_cpu",
            simkernel::image::charge_cpu(&k, pid, Duration::from_millis(1), &mut StepTrace::new())
                .map(drop),
        ),
        ("spawn", spawn(&k, "q", cg).map(drop)),
        ("unshare", k.unshare(pid, &[NamespaceKind::Pid])),
        ("move_process", k.move_process(pid, empty)),
        ("exit", k.exit(pid, 0)),
        ("oom_kill", k.oom_kill(pid)),
        ("reap", k.reap(zombie)),
        ("mmap", k.mmap(pid, 1 << 20, MapKind::AnonPrivate).map(drop)),
        ("touch", k.touch(pid, anon, 8 << 10)),
        ("cow_write", k.cow_write(pid, cow, 4 << 10)),
        ("mremap", k.mremap(pid, anon, 2 << 20)),
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
