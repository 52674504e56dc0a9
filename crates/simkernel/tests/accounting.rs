//! The kernel's running totals — page-cache bytes, per-process RSS, live
//! process count — must equal what walking the files, mappings and
//! processes gives, after any sequence of operations. The kernel is sized
//! so that the sequences reach the paths that move the totals indirectly:
//! physical-pressure eviction, cross-tenant cache displacement, OOM kills
//! from a tight `memory.max`, and charges refused because RAM is exhausted.

use simkernel::prop::check;
use simkernel::rng::SplitMix64;
use simkernel::vfs::FileContent;
use simkernel::{
    FileId, IoModel, Kernel, KernelConfig, KernelError, MapKind, MappingId, Pid, ProcState,
};

/// The [`World::step`] operation that drops page cache directly.
const DROP_CACHE: usize = 13;

struct World {
    kernel: Kernel,
    cgroups: [simkernel::CgroupId; 2],
    procs: Vec<Pid>,
    maps: Vec<(Pid, MappingId, u64)>,
    files: Vec<FileId>,
    created: u32,
    /// `touch` calls that found RAM exhausted even after eviction.
    exhausted: u64,
}

impl World {
    fn new(g: &mut SplitMix64) -> World {
        let kernel = Kernel::boot(KernelConfig {
            ram_bytes: 20 << 20,
            cores: 2,
            proc_kernel_base: 16 << 10,
            page_table_divisor: 512,
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
            cgroups: [roomy, tight],
            procs: Vec::new(),
            maps: Vec::new(),
            files: Vec::new(),
            created: 0,
            exhausted: 0,
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
        let op = g.index(16);
        match op {
            0 | 1 => self.procs.extend(k.spawn("p", *g.choose(&self.cgroups))),
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
                    match g.index(3) {
                        0 => drop(k.evict_file(f).unwrap()),
                        1 => {
                            let size = g.range_u64(1, 2 << 20);
                            let _ = k.overwrite_file(f, FileContent::Synthetic(size));
                        }
                        _ => {
                            k.remove_file(f).unwrap();
                            self.files.retain(|x| *x != f);
                        }
                    }
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
        oom_kills += w.kernel.cgroup_oom_events(w.cgroups[1]).unwrap();
    });
    // The sequences must actually reach the indirect paths.
    assert!(oom_kills > 0, "no sequence hit memory.max");
    assert!(exhausted > 0, "no sequence ran out of RAM");
    assert!(pressure_evictions > 0, "no sequence evicted or displaced page cache");
}
