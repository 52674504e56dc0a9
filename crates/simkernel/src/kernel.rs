//! The kernel facade: processes + memory + cgroups + VFS + simulated clock.
//!
//! [`Kernel`] is a cheaply clonable handle (all layers of the container stack
//! share one kernel). All state lives behind a single `std::sync` mutex —
//! the workloads are deployment-scale, not lock-contention-scale, and one
//! lock keeps cross-subsystem invariants (physical conservation, hierarchical
//! charging) trivially atomic.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytelite::Bytes;
use std::sync::{Mutex, MutexGuard};

use crate::cgroup::{CgroupId, CgroupStats, CgroupTree, ChargeKind, MemStat, IO_WINDOW_NS};
use crate::error::{KernelError, KernelResult};
use crate::faults::{FaultPlan, FaultSite};
use crate::mem::{pages, round_up_pages, MapKind, Mapping, MappingId};
use crate::proc::{Pid, ProcState, Process};
use crate::table::IdTable;
use crate::time::{Clock, Duration, SimTime};
use crate::vfs::{FileContent, FileId, Vfs};

/// Page size used for rounding (matches the paper's x86-64 testbed).
pub const PAGE_SIZE: u64 = 4096;

/// Page-table overhead: one 8-byte PTE per resident 4 KiB page, plus upper
/// levels — a process is charged `rss / PAGE_TABLE_DIVISOR` rounded to pages.
const PAGE_TABLE_DIVISOR: u64 = 512;

/// Slab memory per namespace a process owns; ~4 KiB apiece is the right order.
const NAMESPACE_BYTES: u64 = 4096;

/// Static kernel parameters.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Physical RAM. The paper's node has 256 GiB.
    pub ram_bytes: u64,
    /// CPU cores. The paper's node has 20.
    pub cores: u32,
    /// Fixed kernel overhead per process: task struct, kernel stack, fd
    /// table, signal handling. ~24 KiB is a reasonable Linux figure.
    pub proc_kernel_base: u64,
    /// Memory the booted system uses before any workload (kernel image,
    /// systemd, sshd, ...). Visible to `free`, not to pod cgroups.
    pub boot_used_bytes: u64,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            ram_bytes: 256 << 30,
            cores: 20,
            proc_kernel_base: 24 << 10,
            boot_used_bytes: 600 << 20,
        }
    }
}

/// Output of the `free(1)` observer.
///
/// `used` follows modern `free`: anonymous + kernel memory, excluding the
/// page cache. The paper's system-level numbers are deltas of
/// [`FreeReport::used_with_cache`], which is why `free` reports up to 42%
/// more than the metrics-server — it sees shim processes, kernel overhead,
/// and cache growth that per-pod cgroups do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreeReport {
    pub(crate) total: u64,
    pub used: u64,
    pub(crate) buff_cache: u64,
    pub(crate) free: u64,
    pub available: u64,
}

impl FreeReport {
    /// `used + buff/cache`: the system-footprint measure the paper's
    /// `free`-based figures are built from.
    pub fn used_with_cache(&self) -> u64 {
        self.used + self.buff_cache
    }
}

/// Global io-pressure model for cold reads. Like [`FaultPlan`], it must be
/// armed explicitly ([`Kernel::set_io_model`]); an unarmed kernel charges io
/// counters but never delays, displaces, or queues anything, so the default
/// figure path is byte-identical to a kernel that predates the model.
///
/// When armed, every cold read queues behind a machine-wide byte backlog
/// (`queue_ns_per_mib` per MiB already queued), the backlog drains at
/// `drain_bytes_per_sec` of simulated time, and — with
/// `displace` — a cold read evicts other tenants' unmapped page cache, which
/// is how a streaming thrasher makes its neighbors pay cold re-reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoModel {
    /// Queue delay per MiB of outstanding backlog at read time.
    pub queue_ns_per_mib: u64,
    /// Backlog drain rate per second of simulated time.
    pub drain_bytes_per_sec: u64,
    /// Cold reads displace other tenants' unmapped page cache.
    pub displace: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct KernelState {
    cfg: KernelConfig,
    clock: Clock,
    vfs: Vfs,
    cgroups: CgroupTree,
    procs: IdTable<Pid, Process>,
    /// Running count of `procs` entries that are alive. Written only by
    /// `spawn` and `teardown`.
    live: usize,
    next_pid: u64,
    /// Machine-wide anonymous bytes (all processes).
    total_anon: u64,
    /// Machine-wide kernel-overhead bytes.
    total_kernel: u64,
    /// Processes OOM-killed since boot, reaped ones included. Written only
    /// by `teardown`, which every kill goes through.
    oom_kills: u64,
    /// Installed fault schedule. The default (zero) plan is inert: it never
    /// draws from its RNG and never alters an operation.
    faults: FaultPlan,
    /// Armed io-pressure model; `None` (the default) is inert.
    io_model: Option<IoModel>,
    /// Machine-wide bytes of cold-read traffic not yet drained by the disk,
    /// as of `io_drained_at`.
    io_backlog: u64,
    io_drained_at: SimTime,
    /// Instant power loss (node crash): every state-mutating operation
    /// fails with [`KernelError::PoweredOff`]; read-only observers keep
    /// working so the surviving cluster can reason about the dead node.
    /// There is no power-on — a restarted node boots a fresh kernel.
    powered_off: bool,
}

/// Handle to the simulated kernel. Clone freely: a clone is another handle
/// to the *same* kernel. [`Kernel::fork`] is the deep copy.
#[derive(Debug, Clone)]
pub struct Kernel {
    state: Arc<Mutex<KernelState>>,
}

impl Kernel {
    /// The root cgroup always exists.
    pub const ROOT_CGROUP: CgroupId = CgroupId(0);

    /// Lock the kernel state. Poisoning is ignored: the state is a plain
    /// value.
    /// A cluster moves the clock without visiting its nodes, so a queued
    /// cold-read backlog is drained up to now before anything reads it.
    /// A doorway that makes several calls in a row takes this guard once.
    pub(crate) fn st(&self) -> MutexGuard<'_, KernelState> {
        let mut st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if st.io_backlog > 0 {
            st.drain_io();
        }
        st
    }

    /// Boot a standalone kernel on a clock of its own.
    pub fn boot(cfg: KernelConfig) -> Kernel {
        Kernel::boot_on(cfg, Clock::default())
    }

    /// Boot a kernel on an existing clock (a cluster's nodes share one).
    pub fn boot_on(cfg: KernelConfig, clock: Clock) -> Kernel {
        assert!(cfg.ram_bytes > cfg.boot_used_bytes, "RAM must exceed boot footprint");
        assert!(cfg.ram_bytes < PAGE_SIZE << 32, "RAM must be under 2^32 pages (16 TiB)");
        assert!(cfg.cores > 0);
        let state = KernelState {
            clock,
            vfs: Vfs::new(),
            cgroups: CgroupTree::new(),
            procs: IdTable::new(),
            live: 0,
            next_pid: 1,
            total_anon: 0,
            total_kernel: cfg.boot_used_bytes,
            oom_kills: 0,
            faults: FaultPlan::none(),
            io_model: None,
            io_backlog: 0,
            io_drained_at: SimTime::ZERO,
            powered_off: false,
            cfg,
        };
        Kernel { state: Arc::new(Mutex::new(state)) }
    }

    /// A deep copy of this kernel, standing on `clock`: VFS and page cache,
    /// cgroup tree, processes and their mappings, running totals, the fault
    /// plan with its per-site RNG state, io model and backlog, power state.
    /// The copy shares nothing mutable with its origin (file contents are
    /// immutable `Bytes`); `clock` should read what this kernel's clock
    /// reads, or the copy's deadlines and io backlog shift with it.
    pub fn fork(&self, clock: &Clock) -> Kernel {
        let state = KernelState { clock: clock.clone(), ..self.st().clone() };
        Kernel { state: Arc::new(Mutex::new(state)) }
    }

    /// Number of simulated cores (drives the DES scheduler).
    pub fn cores(&self) -> u32 {
        self.st().cfg.cores
    }

    /// The configuration this kernel was booted with (a crashed node's
    /// replacement boots the same shape).
    pub fn config(&self) -> KernelConfig {
        self.st().cfg.clone()
    }

    /// Ungraceful power loss: no process teardown, no cgroup cleanup —
    /// everything resident simply stops mattering. From here on every
    /// state-mutating call returns [`KernelError::PoweredOff`]; `now`,
    /// `free` and the other read-only observers keep working.
    pub fn power_off(&self) {
        self.st().powered_off = true;
    }

    // --------------------------------------------------------------- faults

    /// Install a fault schedule. Replaces any existing plan, counters
    /// included. Installing [`FaultPlan::none`] (or an unconfigured
    /// `FaultPlan::new(seed)`) is observationally identical to never
    /// installing a plan at all.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.st().faults = plan;
    }

    /// Consult the installed plan at an upper-layer choke point (the kernel
    /// consults its own sites internally). Returns
    /// [`KernelError::FaultInjected`] when the plan schedules a failure.
    pub fn inject_fault(&self, site: FaultSite) -> KernelResult<()> {
        self.st().inject(site)
    }

    /// Faults injected so far at `site`.
    pub fn faults_injected(&self, site: FaultSite) -> u64 {
        self.st().faults.injected(site)
    }

    // ---------------------------------------------------------------- clock

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.st().clock.now()
    }

    /// Advance the simulated clock, for every kernel booted on it. With an
    /// armed [`IoModel`], elapsed time drains the cold-read backlog.
    pub fn advance(&self, d: Duration) {
        let mut st = self.st();
        st.clock.advance(d);
        st.drain_io();
    }

    // ----------------------------------------------------------- io pressure

    /// Arm (or disarm, with `None`) the io-pressure model. Arming resets the
    /// backlog so runs are independent.
    pub fn set_io_model(&self, model: Option<IoModel>) {
        let mut st = self.st();
        st.io_model = model;
        st.io_backlog = 0;
    }

    // -------------------------------------------------------------- cgroups

    /// Create a cgroup under `parent`. The name is the cgroupfs directory
    /// name callers would see on Linux; no observer in the model reads it.
    pub fn cgroup_create(&self, parent: CgroupId, _name: &str) -> KernelResult<CgroupId> {
        let mut st = self.st();
        st.check_power()?;
        st.cgroups.create(parent).ok_or(KernelError::NoSuchCgroup(parent))
    }

    /// Remove a cgroup. Processes and anon/kernel charges must be gone;
    /// lingering page-cache charges are reparented, as Linux does.
    pub fn cgroup_remove(&self, cg: CgroupId) -> KernelResult<()> {
        let mut st = self.st();
        st.check_power()?;
        if !st.cgroups.exists(cg) {
            return Err(KernelError::NoSuchCgroup(cg));
        }
        let (parent, file) = st.cgroups.remove(cg).ok_or(KernelError::CgroupBusy(cg))?;
        // The file objects charged to the removed group now name its parent.
        if file > 0 {
            st.vfs.recharge(cg, parent);
        }
        Ok(())
    }

    pub fn cgroup_set_limit(&self, cg: CgroupId, limit: Option<u64>) -> KernelResult<()> {
        let mut st = self.st();
        st.check_power()?;
        st.cgroups.set_limit(cg, limit).then_some(()).ok_or(KernelError::NoSuchCgroup(cg))
    }

    pub fn cgroup_stat(&self, cg: CgroupId) -> KernelResult<MemStat> {
        self.st().cgroups.stat(cg).ok_or(KernelError::NoSuchCgroup(cg))
    }

    /// The metrics-server reading for a cgroup: its working set in bytes.
    pub fn cgroup_working_set(&self, cg: CgroupId) -> KernelResult<u64> {
        self.st().cgroups.working_set(cg).ok_or(KernelError::NoSuchCgroup(cg))
    }

    pub fn cgroup_oom_events(&self, cg: CgroupId) -> KernelResult<u64> {
        self.st().cgroups.oom_events(cg).ok_or(KernelError::NoSuchCgroup(cg))
    }

    /// Set (or clear) `cpu.max` as `(quota_ns, period_ns)`. Rejects zero
    /// quota or period.
    pub fn cgroup_set_cpu_max(&self, cg: CgroupId, max: Option<(u64, u64)>) -> KernelResult<()> {
        let mut st = self.st();
        st.check_power()?;
        if !st.cgroups.exists(cg) {
            return Err(KernelError::NoSuchCgroup(cg));
        }
        if st.cgroups.set_cpu_max(cg, max) {
            Ok(())
        } else {
            Err(KernelError::InvalidState(format!("invalid cpu.max {max:?} for {cg:?}")))
        }
    }

    /// The tightest `(quota_ns, period_ns)` on the path from `cg` to the
    /// root, or `None` when the whole path is unlimited.
    pub(crate) fn cgroup_effective_cpu_max(
        &self,
        cg: CgroupId,
    ) -> KernelResult<Option<(u64, u64)>> {
        let st = self.st();
        if !st.cgroups.exists(cg) {
            return Err(KernelError::NoSuchCgroup(cg));
        }
        Ok(st.cgroups.effective_cpu_max(cg).map(|(_, q, p)| (q, p)))
    }

    /// Charge guest CPU time against the tightest `cpu.max` on the path to
    /// the root. Returns the extra off-CPU time the caller must serve before
    /// running again — [`Duration::ZERO`] when no quota applies, so the
    /// unlimited path is byte-identical to a kernel without the controller.
    pub(crate) fn cgroup_charge_cpu(&self, cg: CgroupId, cpu: Duration) -> KernelResult<Duration> {
        let mut st = self.st();
        st.check_power()?;
        if !st.cgroups.exists(cg) {
            return Err(KernelError::NoSuchCgroup(cg));
        }
        Ok(Duration::from_nanos(st.cgroups.charge_cpu(cg, cpu.as_nanos())))
    }

    /// Set (or clear) the per-window cold-read byte budget
    /// ([`IO_WINDOW_NS`]-sized windows); a zero budget defers every read.
    pub fn cgroup_set_io_read_budget(&self, cg: CgroupId, budget: Option<u64>) -> KernelResult<()> {
        let mut st = self.st();
        st.check_power()?;
        st.cgroups.set_io_read_budget(cg, budget).then_some(()).ok_or(KernelError::NoSuchCgroup(cg))
    }

    /// Full controller snapshot: memory, cpu throttling, io pressure.
    pub fn cgroup_stats(&self, cg: CgroupId) -> KernelResult<CgroupStats> {
        self.st().cgroups.stats(cg).ok_or(KernelError::NoSuchCgroup(cg))
    }

    // ------------------------------------------------------------ processes

    /// Create `namespaces` fresh namespaces owned by a process (runtime
    /// `create` step).
    pub fn unshare(&self, pid: Pid, namespaces: u32) -> KernelResult<()> {
        let mut st = self.st();
        st.check_power()?;
        let extra = NAMESPACE_BYTES * u64::from(namespaces);
        let cg = st.alive(pid)?.cgroup;
        st.charge_kernel(cg, extra)?;
        let p = st.alive_mut(pid)?;
        p.namespaces += namespaces;
        p.kernel_charged += extra;
        Ok(())
    }

    /// Exit a process: tear down its address space and uncharge everything
    /// except page-cache residency (which persists machine-wide).
    pub fn exit(&self, pid: Pid, code: i32) -> KernelResult<()> {
        self.st().exit(pid, code)
    }

    /// Kernel OOM-kill: like exit, but recorded as such.
    pub fn oom_kill(&self, pid: Pid) -> KernelResult<()> {
        let mut st = self.st();
        st.check_power()?;
        st.teardown(pid, ProcState::OomKilled)
    }

    /// Forget an exited process entirely.
    pub fn reap(&self, pid: Pid) -> KernelResult<()> {
        self.st().reap(pid)
    }

    pub fn proc_state(&self, pid: Pid) -> KernelResult<ProcState> {
        self.st().proc_state(pid)
    }

    pub fn proc_rss(&self, pid: Pid) -> KernelResult<u64> {
        self.st().procs.get(pid).map(|p| p.rss()).ok_or(KernelError::NoSuchProcess(pid))
    }

    pub(crate) fn proc_cgroup(&self, pid: Pid) -> KernelResult<CgroupId> {
        self.st().procs.get(pid).map(|p| p.cgroup).ok_or(KernelError::NoSuchProcess(pid))
    }

    /// Processes OOM-killed since boot (a running total; reaping a victim
    /// does not lower it). While it has not moved, no process has been
    /// OOM-killed — what lets a supervisor skip asking per process.
    pub fn oom_kills(&self) -> u64 {
        self.st().oom_kills
    }

    /// Number of live processes.
    pub fn live_procs(&self) -> usize {
        let st = self.st();
        debug_assert_eq!(st.live, st.recount_live());
        st.live
    }

    // --------------------------------------------------------------- memory

    /// Reserve a region. Nothing is committed until [`Kernel::touch`].
    pub fn mmap(&self, pid: Pid, len: u64, kind: MapKind) -> KernelResult<MappingId> {
        self.st().mmap_labeled(pid, len, kind, "")
    }

    /// Fault in `bytes` of a mapping (from its start, idempotent): commits
    /// anon pages or faults file pages into the shared page cache.
    ///
    /// On a cgroup limit breach the faulting process is OOM-killed and
    /// `OutOfMemory` is returned.
    pub fn touch(&self, pid: Pid, mapping: MappingId, bytes: u64) -> KernelResult<()> {
        self.st().touch(pid, mapping, bytes)
    }

    /// Unmap a region, uncharging this process's share.
    pub fn munmap(&self, pid: Pid, mapping: MappingId) -> KernelResult<()> {
        self.st().munmap(pid, mapping)
    }

    /// A point in `pid`'s mapping history ([`crate::image::Rollback`]).
    pub(crate) fn mapping_mark(&self, pid: Pid) -> KernelResult<MappingId> {
        Ok(self.st().alive(pid)?.mapping_mark())
    }

    // ------------------------------------------------------------------ vfs

    /// Create a file with real or synthetic content.
    pub fn create_file(&self, path: &str, content: FileContent) -> KernelResult<FileId> {
        let mut st = self.st();
        st.check_power()?;
        st.vfs.create(path, content).ok_or_else(|| KernelError::PathExists(path.to_string()))
    }

    /// Idempotent install: create the file if the path is free, otherwise
    /// return the existing file untouched (binaries, libraries, stdlib
    /// trees installed once per node).
    pub fn ensure_file(&self, path: &str, content: FileContent) -> KernelResult<FileId> {
        let mut st = self.st();
        st.check_power()?;
        if let Some(existing) = st.vfs.lookup(path) {
            return Ok(existing);
        }
        st.vfs.create(path, content).ok_or_else(|| KernelError::PathExists(path.to_string()))
    }

    /// Replace a file's content (drops its cache).
    pub fn overwrite_file(&self, id: FileId, content: FileContent) -> KernelResult<()> {
        let mut st = self.st();
        st.check_power()?;
        let evicted = st.vfs.overwrite(id, content).ok_or(KernelError::NoSuchFile(id))?;
        st.uncharge_evicted(evicted);
        Ok(())
    }

    pub fn lookup(&self, path: &str) -> KernelResult<FileId> {
        self.st().lookup(path)
    }

    pub fn file_size(&self, id: FileId) -> KernelResult<u64> {
        self.st().vfs.get(id).map(|f| f.size()).ok_or(KernelError::NoSuchFile(id))
    }

    /// A file's content as stored: an inspection, not a read — nothing is
    /// faulted into the page cache and nobody is charged.
    pub fn file_content(&self, id: FileId) -> KernelResult<FileContent> {
        self.st().vfs.get(id).map(|f| f.content.clone()).ok_or(KernelError::NoSuchFile(id))
    }

    /// Read a whole file on behalf of `pid`: faults it into the page cache
    /// (charging the first toucher's cgroup) and returns real bytes if the
    /// file has them.
    pub fn read_file(&self, pid: Pid, id: FileId) -> KernelResult<Option<Bytes>> {
        let mut st = self.st();
        st.check_power()?;
        st.fault_for(pid, id, u64::MAX, 0)?;
        let f = st.vfs.get(id).ok_or(KernelError::NoSuchFile(id))?;
        Ok(f.content.bytes().cloned())
    }

    /// Like [`Kernel::read_file`], but returns `(cold bytes faulted, io
    /// queue delay ns)` instead of content — the adversarial thrash loop
    /// uses this to turn each pass into DES disk + queue steps.
    pub fn read_file_cold(&self, pid: Pid, id: FileId) -> KernelResult<(u64, u64)> {
        let mut st = self.st();
        st.check_power()?;
        st.fault_for(pid, id, u64::MAX, 0)
    }

    /// Bytes of a file currently in the page cache.
    pub fn file_cached(&self, id: FileId) -> KernelResult<u64> {
        self.st().file_cached(id)
    }

    /// Drop a file's page cache (used by teardown paths between repetitions).
    pub fn evict_file(&self, id: FileId) -> KernelResult<u64> {
        let mut st = self.st();
        st.check_power()?;
        let evicted = st.vfs.evict(id).ok_or(KernelError::NoSuchFile(id))?;
        st.uncharge_evicted(evicted);
        Ok(evicted.0)
    }

    /// Delete a file, dropping any cache.
    pub fn remove_file(&self, id: FileId) -> KernelResult<()> {
        let mut st = self.st();
        st.check_power()?;
        let charged = st.vfs.get(id).and_then(|f| f.charged_to);
        let (_f, cached) = st.vfs.remove(id).ok_or(KernelError::NoSuchFile(id))?;
        if cached > 0 {
            if let Some(cg) = charged {
                st.cgroups.uncharge(cg, ChargeKind::File, cached);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------ observers

    /// The `free(1)` observer.
    pub fn free(&self) -> FreeReport {
        let st = self.st();
        let total = st.cfg.ram_bytes;
        let used = st.total_anon + st.total_kernel;
        let buff_cache = st.vfs.total_cached();
        let free = total.saturating_sub(used + buff_cache);
        FreeReport { total, used, buff_cache, free, available: free + buff_cache }
    }

    /// Verify the running totals (`Vfs::total_cached`, every process's
    /// `rss`, `live_procs`, each cgroup's process count) against the values
    /// recomputed by walking the files, mappings and processes they
    /// summarise, and `oom_kills` against the victims not yet reaped (a
    /// lower bound: reaping forgets the victim, not the kill), and every
    /// live process's kernel charge against its base, namespaces and page
    /// tables for its rss (the one law the namespace count rests on). The tables
    /// must agree with each other too: the path index and the files are a
    /// bijection, every cgroup's children name it as their parent, and
    /// every live process sits in a cgroup that exists. `Err` names the
    /// first law that failed.
    pub fn check_accounting(&self) -> Result<(), String> {
        let st = self.st();
        st.vfs.check()?;
        st.procs.check("processes")?;
        if let Some((pid, p)) = st.procs.iter().find(|(pid, p)| p.pid != *pid) {
            return Err(format!("{pid:?} holds the record of {:?}", p.pid));
        }
        st.procs.values().try_for_each(Process::check)?;
        let live = st.recount_live();
        if st.live != live {
            return Err(format!("live processes: counter {} != {live} counted", st.live));
        }
        let mut in_group: BTreeMap<CgroupId, u64> = BTreeMap::new();
        for p in st.procs.values().filter(|p| p.is_alive()) {
            *in_group.entry(p.cgroup).or_default() += 1;
            let owed = st.kernel_bytes(p.namespaces, p.rss());
            if p.kernel_charged != owed {
                return Err(format!(
                    "{:?}: kernel charge {} != {owed} for its base, namespaces and page tables",
                    p.pid, p.kernel_charged
                ));
            }
        }
        st.cgroups.check(|cg| in_group.get(&cg).copied().unwrap_or(0))?;
        if let Some(cg) = in_group.keys().find(|&&cg| !st.cgroups.exists(cg)) {
            return Err(format!("live processes in {cg:?}, which does not exist"));
        }
        let victims = st.procs.values().filter(|p| p.state == ProcState::OomKilled).count() as u64;
        if st.oom_kills < victims {
            return Err(format!("oom kills: counter {} < {victims} unreaped", st.oom_kills));
        }
        Ok(())
    }

    /// Snapshot of every live process: (pid, cgroup, rss).
    pub fn ps(&self) -> Vec<(Pid, CgroupId, u64)> {
        let st = self.st();
        st.procs.values().filter(|p| p.is_alive()).map(|p| (p.pid, p.cgroup, p.rss())).collect()
    }
}

impl KernelState {
    // Verbs a doorway calls in a row on one guard; `Kernel`'s namesakes lock.

    /// Would charging `bytes` to `cg` breach `memory.max` anywhere up the
    /// hierarchy? Admission control: checks without charging, killing, or
    /// recording an OOM event (`ProcessImage` uses this before building).
    pub(crate) fn cgroup_check_charge(&self, cg: CgroupId, bytes: u64) -> KernelResult<()> {
        if !self.cgroups.exists(cg) {
            return Err(KernelError::NoSuchCgroup(cg));
        }
        if let Some((offender, limit)) = self.cgroups.check_limit(&[(cg, bytes)]) {
            return Err(KernelError::OutOfMemory { cgroup: offender, requested: bytes, limit });
        }
        Ok(())
    }

    /// Spawn a process into `cgroup`, with room for the `mappings` its
    /// image makes. Spawning is [`crate::ProcessImage`]'s, which charges the
    /// image and owns the pid.
    pub(crate) fn spawn(&mut self, cgroup: CgroupId, mappings: usize) -> KernelResult<Pid> {
        self.check_power()?;
        if !self.cgroups.exists(cgroup) {
            return Err(KernelError::NoSuchCgroup(cgroup));
        }
        self.inject(FaultSite::Spawn)?;
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let base = self.cfg.proc_kernel_base;
        self.charge_kernel(cgroup, base)?;
        let mut proc = Process::new(pid, cgroup, mappings);
        proc.kernel_charged = base;
        self.procs.insert(pid, proc);
        self.live += 1;
        self.cgroups.proc_attached(cgroup);
        Ok(pid)
    }

    pub(crate) fn exit(&mut self, pid: Pid, code: i32) -> KernelResult<()> {
        self.check_power()?;
        self.teardown(pid, ProcState::Exited(code))
    }

    pub(crate) fn reap(&mut self, pid: Pid) -> KernelResult<()> {
        self.check_power()?;
        match self.procs.get(pid) {
            Some(p) if !p.is_alive() => {
                self.procs.remove(pid);
                Ok(())
            }
            Some(_) => Err(KernelError::InvalidState(format!("{pid:?} still running"))),
            None => Err(KernelError::NoSuchProcess(pid)),
        }
    }

    pub(crate) fn proc_state(&self, pid: Pid) -> KernelResult<ProcState> {
        self.procs.get(pid).map(|p| p.state).ok_or(KernelError::NoSuchProcess(pid))
    }

    /// Reserve a region with a debug label.
    pub(crate) fn mmap_labeled(
        &mut self,
        pid: Pid,
        len: u64,
        kind: MapKind,
        label: &'static str,
    ) -> KernelResult<MappingId> {
        self.check_power()?;
        if let Some(fid) = kind.file() {
            let f = self.vfs.get_mut(fid).ok_or(KernelError::NoSuchFile(fid))?;
            f.map_refs += 1;
        }
        let p = self.alive_mut(pid)?;
        let id = p.alloc_mapping_id();
        p.insert_mapping(Mapping::new(id, kind, len, label));
        Ok(id)
    }

    pub(crate) fn touch(&mut self, pid: Pid, mapping: MappingId, bytes: u64) -> KernelResult<()> {
        self.check_power()?;
        self.touch_inner(pid, mapping, bytes, false)
    }

    /// Extend a private anonymous mapping by `bytes` and touch all of it:
    /// one mapping that grows in place. A refused growth leaves the length
    /// as it was, and the touch, admitted whole, leaves the rest.
    pub(crate) fn grow(&mut self, pid: Pid, mapping: MappingId, bytes: u64) -> KernelResult<()> {
        self.check_power()?;
        let p = self.alive_mut(pid)?;
        let len = p.mapping(mapping).ok_or(KernelError::NoSuchMapping(pid, mapping))?.len;
        p.set_len(mapping, len + bytes);
        self.touch_inner(pid, mapping, len + bytes, false).inspect_err(|_| {
            if let Ok(p) = self.alive_mut(pid) {
                p.set_len(mapping, len);
            }
        })
    }

    /// Write to a copy-on-write file mapping: the written range becomes
    /// private anonymous memory.
    pub(crate) fn cow_write(
        &mut self,
        pid: Pid,
        mapping: MappingId,
        bytes: u64,
    ) -> KernelResult<()> {
        self.check_power()?;
        self.touch_inner(pid, mapping, bytes, true)
    }

    pub(crate) fn munmap(&mut self, pid: Pid, mapping: MappingId) -> KernelResult<()> {
        self.check_power()?;
        let (cg, m) = {
            let p = self.alive_mut(pid)?;
            let m = p.remove_mapping(mapping).ok_or(KernelError::NoSuchMapping(pid, mapping))?;
            (p.cgroup, m)
        };
        self.release_mapping(pid, cg, &m);
        self.recharge_page_tables(pid);
        Ok(())
    }

    pub(crate) fn lookup(&self, path: &str) -> KernelResult<FileId> {
        self.vfs.lookup(path).ok_or_else(|| KernelError::PathNotFound(path.to_string()))
    }

    pub(crate) fn file_cached(&self, id: FileId) -> KernelResult<u64> {
        self.vfs.get(id).map(|f| f.cached_bytes()).ok_or(KernelError::NoSuchFile(id))
    }

    /// Drain the cold-read backlog, in whole bytes, by the time elapsed
    /// since it was last drained. Every path that arms the model enters the
    /// kernel between two clock movements: one floor per movement.
    fn drain_io(&mut self) {
        let now = self.clock.now();
        let elapsed = now.since(self.io_drained_at);
        self.io_drained_at = now;
        if let Some(m) = self.io_model {
            let drained =
                (elapsed.as_nanos() as u128 * m.drain_bytes_per_sec as u128 / 1_000_000_000) as u64;
            self.io_backlog = self.io_backlog.saturating_sub(drained);
        }
    }

    /// Reject state mutation on a powered-off kernel.
    fn check_power(&self) -> KernelResult<()> {
        if self.powered_off {
            Err(KernelError::PoweredOff)
        } else {
            Ok(())
        }
    }

    fn alive(&self, pid: Pid) -> KernelResult<&Process> {
        match self.procs.get(pid) {
            Some(p) if p.is_alive() => Ok(p),
            Some(_) => Err(KernelError::InvalidState(format!("{pid:?} not running"))),
            None => Err(KernelError::NoSuchProcess(pid)),
        }
    }

    fn alive_mut(&mut self, pid: Pid) -> KernelResult<&mut Process> {
        match self.procs.get_mut(pid) {
            Some(p) if p.is_alive() => Ok(p),
            Some(_) => Err(KernelError::InvalidState(format!("{pid:?} not running"))),
            None => Err(KernelError::NoSuchProcess(pid)),
        }
    }

    /// Consult the fault plan at `site`. Injected faults are transient: the
    /// operation fails with [`KernelError::FaultInjected`] but no process is
    /// killed and no state is altered, so a retry can succeed.
    fn inject(&mut self, site: FaultSite) -> KernelResult<()> {
        if self.faults.should_fail(site) {
            Err(KernelError::FaultInjected(site))
        } else {
            Ok(())
        }
    }

    /// OOM victim selection, Linux-style: the largest-anon live process in
    /// the offending cgroup's subtree (ties broken toward the lowest pid).
    fn oom_victim(&self, offender: CgroupId) -> Option<Pid> {
        let mut best: Option<(u64, Pid)> = None;
        for p in self.procs.values().filter(|p| p.is_alive()) {
            if !self.cgroups.in_subtree(p.cgroup, offender) {
                continue;
            }
            let score = p.anon_bytes();
            if best.map(|(b, _)| score > b).unwrap_or(true) {
                best = Some((score, p.pid));
            }
        }
        best.map(|(_, pid)| pid)
    }

    /// Charge kernel bytes with physical-pressure handling. Kernel memory
    /// counts toward `memory.max`, as in cgroup v2.
    fn charge_kernel(&mut self, cg: CgroupId, bytes: u64) -> KernelResult<()> {
        self.admit_kernel(cg, bytes)?;
        self.cgroups.charge(cg, ChargeKind::Kernel, bytes);
        self.total_kernel += bytes;
        Ok(())
    }

    /// Make room for `bytes` of kernel memory in `cg`, committing nothing:
    /// within every `memory.max` on its path (an OOM event on the offender
    /// otherwise), then in RAM.
    fn admit_kernel(&mut self, cg: CgroupId, bytes: u64) -> KernelResult<()> {
        if let Some((victim, limit)) = self.cgroups.check_limit(&[(cg, bytes)]) {
            self.cgroups.record_oom(victim);
            return Err(KernelError::OutOfMemory { cgroup: victim, requested: bytes, limit });
        }
        self.ensure_physical(bytes)
    }

    /// Uncharge what [`Vfs::evict`] reports it dropped.
    fn uncharge_evicted(&mut self, (evicted, charged): (u64, Option<CgroupId>)) {
        if let Some(cg) = charged {
            self.cgroups.uncharge(cg, ChargeKind::File, evicted);
        }
    }

    /// Make room for `bytes` of new residency, evicting unmapped page cache
    /// if needed.
    fn ensure_physical(&mut self, bytes: u64) -> KernelResult<()> {
        let resident = self
            .total_anon
            .saturating_add(self.total_kernel)
            .saturating_add(self.vfs.total_cached());
        let total = self.cfg.ram_bytes;
        if resident.saturating_add(bytes) <= total {
            return Ok(());
        }
        let mut need = resident.saturating_add(bytes) - total;
        let victims: Vec<FileId> = self.vfs.evictable().collect();
        for fid in victims {
            if need == 0 {
                break;
            }
            let evicted = self.vfs.evict(fid).expect("evictable file exists");
            self.uncharge_evicted(evicted);
            need = need.saturating_sub(evicted.0);
        }
        if need > 0 {
            return Err(KernelError::PhysicalExhausted {
                requested: bytes,
                available: total.saturating_sub(self.total_anon + self.total_kernel),
            });
        }
        Ok(())
    }

    /// Fault up to `limit` bytes of a file into the page cache, charging the
    /// first-toucher cgroup, after admitting it whole with the `tables`
    /// bytes of page tables the reader in `cg` will charge on success.
    /// Returns `(newly cached bytes, io queue delay in ns)`; the delay is
    /// always 0 unless an [`IoModel`] is armed.
    fn fault_file(
        &mut self,
        cg: CgroupId,
        id: FileId,
        limit: u64,
        tables: u64,
    ) -> KernelResult<(u64, u64)> {
        let (size, cached) = {
            let f = self.vfs.get(id).ok_or(KernelError::NoSuchFile(id))?;
            (f.size(), f.cached_bytes())
        };
        let target =
            round_up_pages(size.min(limit), PAGE_SIZE).min(round_up_pages(size, PAGE_SIZE));
        if cached >= target {
            if tables > 0 {
                self.admit_kernel(cg, tables)?;
            }
            return Ok((0, 0));
        }
        // A cold read is about to hit the (simulated) disk — fault site.
        self.inject(FaultSite::ColdRead)?;
        // ensure_physical may evict page cache — including THIS file if it
        // is unmapped — so the resident snapshot must be re-read until it is
        // stable, or the charge delta would be computed against stale state
        // (undercharging the cgroup and corrupting later uncharges).
        let mut fresh = cached;
        loop {
            self.ensure_physical(target - fresh + tables)?;
            let now_cached = self.vfs.get(id).ok_or(KernelError::NoSuchFile(id))?.cached_bytes();
            if now_cached == fresh {
                break;
            }
            fresh = now_cached;
        }
        let delta = target - fresh;
        let charge_to = {
            let f = self.vfs.get_mut(id).expect("checked above");
            *f.charged_to.get_or_insert(cg)
        };
        // Page-cache charges count toward memory.max too (cgroup v2).
        if let Some((victim, limit)) = self.cgroups.check_limit(&[(charge_to, delta), (cg, tables)])
        {
            self.cgroups.record_oom(victim);
            return Err(KernelError::OutOfMemory { cgroup: victim, requested: delta, limit });
        }
        self.vfs.set_cached(id, target).expect("checked above");
        self.cgroups.charge(charge_to, ChargeKind::File, delta);
        let queued = self.io_pressure(cg, id, delta);
        Ok((delta, queued))
    }

    /// [`KernelState::fault_file`] for live `pid`. As in Linux, breaching
    /// `memory.max` on a page-cache fault OOM-kills the faulting process.
    fn fault_for(
        &mut self,
        pid: Pid,
        id: FileId,
        limit: u64,
        tables: u64,
    ) -> KernelResult<(u64, u64)> {
        let cg = self.alive(pid)?.cgroup;
        let faulted = self.fault_file(cg, id, limit, tables);
        if let Err(KernelError::OutOfMemory { .. }) = faulted {
            self.teardown(pid, ProcState::OomKilled)?;
        }
        faulted
    }

    /// Account a cold read of `bytes` against the reader's io controllers
    /// and, when the [`IoModel`] is armed, against the machine-wide backlog.
    /// Returns the queue delay in ns the read must serve.
    ///
    /// The budget/counter half (`charge_io_cold`) always runs — counters are
    /// observers and change no figure output. The backlog, window-stall, and
    /// displacement halves only run when armed, which is what keeps the
    /// default path byte-identical.
    fn io_pressure(&mut self, cg: CgroupId, id: FileId, bytes: u64) -> u64 {
        let now = self.clock.now();
        let throttled = self.cgroups.charge_io_cold(cg, bytes, now.as_nanos());
        let Some(model) = self.io_model else {
            return 0;
        };
        // The read waits behind everything already queued for the disk.
        let mut queued =
            (self.io_backlog as u128 * model.queue_ns_per_mib as u128 / (1 << 20)) as u64;
        if throttled > 0 {
            // The over-budget tail of the read waits for the next window.
            queued = queued.saturating_add(IO_WINDOW_NS);
        }
        self.io_backlog = self.io_backlog.saturating_add(bytes);
        self.io_drained_at = now;
        if model.displace {
            self.displace_cache(cg, id, bytes);
        }
        if queued > 0 {
            self.cgroups.record_io_queue(cg, queued);
        }
        queued
    }

    /// A streaming cold read displaces other tenants' unmapped page cache,
    /// one victim file at a time in `FileId` order, up to `budget` bytes.
    /// Files charged to the reader's own cgroup are skipped — a thrasher
    /// evicts its neighbors, not itself.
    fn displace_cache(&mut self, reader: CgroupId, keep: FileId, mut budget: u64) {
        let victims: Vec<FileId> = self.vfs.evictable().filter(|&fid| fid != keep).collect();
        for fid in victims {
            if budget == 0 {
                break;
            }
            if self.vfs.get(fid).expect("evictable file exists").charged_to == Some(reader) {
                continue;
            }
            let evicted = self.vfs.evict(fid).expect("evictable file exists");
            self.uncharge_evicted(evicted);
            budget = budget.saturating_sub(evicted.0);
        }
    }

    /// Fault in `bytes` of a mapping. The whole charge — anon or file pages
    /// plus the page tables the new rss needs — is admitted before any of
    /// it commits, so a refused touch leaves everything as it was.
    fn touch_inner(
        &mut self,
        pid: Pid,
        mapping: MappingId,
        bytes: u64,
        cow: bool,
    ) -> KernelResult<()> {
        let (cg, m, rss, namespaces, charged) = {
            let p = self.alive(pid)?;
            let m = p.mapping(mapping).ok_or(KernelError::NoSuchMapping(pid, mapping))?;
            (p.cgroup, m.clone(), p.rss(), p.namespaces, p.kernel_charged)
        };
        let (len, (committed_anon, touched_file)) = (m.len, m.resident());
        if bytes > len {
            return Err(KernelError::MappingOverflow { mapping, len, offset: bytes });
        }
        let target = round_up_pages(bytes, PAGE_SIZE).min(round_up_pages(len, PAGE_SIZE));
        match (m.kind, cow) {
            (MapKind::AnonPrivate, _) | (MapKind::FileCow(_), true) => {
                if target <= committed_anon {
                    return Ok(());
                }
                let delta = target - committed_anon;
                // COW: the written range is no longer backed by the file
                // for this process — the file share must not be counted
                // twice in RSS / mapped_file / working set.
                let overlap = if cow { touched_file.min(target) } else { 0 };
                let tables =
                    self.kernel_bytes(namespaces, rss + delta - overlap).saturating_sub(charged);
                self.inject(FaultSite::MmapCharge)?;
                // OOM enforcement: while the charge would breach memory.max,
                // kill the largest-anon process in the offending cgroup's
                // subtree. Killing another process frees its pages, so the
                // faulting process retries and may survive; if the faulter
                // itself is the victim (or nothing is left to kill), the
                // charge fails. Each round kills one live process, so the
                // loop terminates.
                while let Some((offender, limit)) =
                    self.cgroups.check_limit(&[(cg, delta + tables)])
                {
                    self.cgroups.record_oom(offender);
                    let victim = self.oom_victim(offender);
                    let oom =
                        KernelError::OutOfMemory { cgroup: offender, requested: delta, limit };
                    match victim {
                        Some(v) => {
                            self.teardown(v, ProcState::OomKilled)?;
                            if v == pid {
                                return Err(oom);
                            }
                        }
                        None => return Err(oom),
                    }
                }
                self.ensure_physical(delta + tables)?;
                self.cgroups.charge(cg, ChargeKind::Anon, delta);
                self.total_anon += delta;
                if overlap > 0 {
                    self.cgroups.adjust_mapped_file(cg, -(overlap as i64));
                }
                self.alive_mut(pid)?.set_resident(mapping, target, touched_file - overlap);
            }
            (MapKind::FileShared(fid), _) | (MapKind::FileCow(fid), false) => {
                // Only a file mapping past its file's end can ask for 2^32 pages.
                let free = self.cfg.ram_bytes.saturating_sub(self.total_anon + self.total_kernel);
                pages(target)
                    .ok_or(KernelError::PhysicalExhausted { requested: target, available: free })?;
                let delta = target.saturating_sub(touched_file);
                let tables = self.kernel_bytes(namespaces, rss + delta).saturating_sub(charged);
                self.fault_for(pid, fid, target, tables)?;
                if delta == 0 {
                    return Ok(());
                }
                self.cgroups.adjust_mapped_file(cg, delta as i64);
                self.alive_mut(pid)?.set_resident(mapping, committed_anon, target);
            }
        }
        self.recharge_page_tables(pid);
        Ok(())
    }

    /// Release one mapping's charges for a process.
    fn release_mapping(&mut self, _pid: Pid, cg: CgroupId, m: &Mapping) {
        let (committed_anon, touched_file) = m.resident();
        if committed_anon > 0 {
            self.cgroups.uncharge(cg, ChargeKind::Anon, committed_anon);
            self.total_anon = self.total_anon.saturating_sub(committed_anon);
        }
        if touched_file > 0 {
            self.cgroups.adjust_mapped_file(cg, -(touched_file as i64));
        }
        if let Some(fid) = m.kind.file() {
            if let Some(f) = self.vfs.get_mut(fid) {
                f.map_refs = f.map_refs.saturating_sub(1);
            }
        }
    }

    /// The kernel bytes a live process with `namespaces` is charged at
    /// `rss`: its base, its namespaces' slab and page tables for that RSS.
    fn kernel_bytes(&self, namespaces: u32, rss: u64) -> u64 {
        let page_tables = round_up_pages(rss / PAGE_TABLE_DIVISOR, PAGE_SIZE);
        self.cfg.proc_kernel_base + NAMESPACE_BYTES * u64::from(namespaces) + page_tables
    }

    /// Recharge page-table overhead to match a live process's RSS. Growth
    /// was admitted by the touch that made it; a shrink cannot fail.
    fn recharge_page_tables(&mut self, pid: Pid) {
        let Ok(p) = self.alive(pid) else { return };
        let (cg, old_total) = (p.cgroup, p.kernel_charged);
        let new_total = self.kernel_bytes(p.namespaces, p.rss());
        if new_total > old_total {
            self.cgroups.charge(cg, ChargeKind::Kernel, new_total - old_total);
            self.total_kernel += new_total - old_total;
        } else if new_total < old_total {
            self.cgroups.uncharge(cg, ChargeKind::Kernel, old_total - new_total);
            self.total_kernel = self.total_kernel.saturating_sub(old_total - new_total);
        }
        self.alive_mut(pid).expect("alive above").kernel_charged = new_total;
    }

    /// Tear down a live process into `final_state`: unmap everything and
    /// uncharge kernel bytes. The only way a process stops being alive.
    fn teardown(&mut self, pid: Pid, final_state: ProcState) -> KernelResult<()> {
        debug_assert_ne!(final_state, ProcState::Running);
        let (cg, kernel, mappings) = {
            let p = self.alive_mut(pid)?;
            (p.cgroup, p.kernel_charged, p.take_mappings())
        };
        for m in &mappings {
            self.release_mapping(pid, cg, m);
        }
        self.cgroups.uncharge(cg, ChargeKind::Kernel, kernel);
        self.total_kernel = self.total_kernel.saturating_sub(kernel);
        self.cgroups.proc_detached(cg);
        let p = self.procs.get_mut(pid).expect("exists");
        p.kernel_charged = 0;
        p.state = final_state;
        self.live -= 1;
        self.oom_kills += u64::from(final_state == ProcState::OomKilled);
        Ok(())
    }

    fn recount_live(&self) -> usize {
        self.procs.values().filter(|p| p.is_alive()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Kernel {
        /// Snapshot of the installed plan, with its call/injection counters.
        fn fault_plan(&self) -> FaultPlan {
            self.st().faults.clone()
        }

        /// The cgroup a file's page cache is charged to.
        pub(crate) fn file_charge(&self, id: FileId) -> Option<CgroupId> {
            self.st().vfs.get(id)?.charged_to
        }

        /// Has this kernel suffered a power loss?
        pub(crate) fn powered_off(&self) -> bool {
            self.st().powered_off
        }

        /// Mappings a live process has room for without reallocating.
        pub(crate) fn mapping_capacity(&self, pid: Pid) -> usize {
            self.st().alive(pid).map_or(0, Process::mapping_capacity)
        }

        /// A bare process, owned by the caller.
        pub(crate) fn spawn(&self, cgroup: CgroupId) -> KernelResult<Pid> {
            self.st().spawn(cgroup, 0)
        }

        pub(crate) fn cow_write(&self, pid: Pid, m: MappingId, bytes: u64) -> KernelResult<()> {
            self.st().cow_write(pid, m, bytes)
        }

        /// A mapping's reserved length.
        fn mapping_len(&self, pid: Pid, m: MappingId) -> Option<u64> {
            Some(self.st().alive(pid).ok()?.mapping(m)?.len)
        }

        /// What a refused charge must leave as it was: `free`, the
        /// process's rss and the cgroup's counters.
        fn charges(&self, pid: Pid, cg: CgroupId) -> (FreeReport, u64, MemStat) {
            (self.free(), self.proc_rss(pid).unwrap(), self.cgroup_stat(cg).unwrap())
        }
    }

    /// A 64 MiB node with a process holding a 4 MiB resident heap of `len`
    /// reserved: its pid, cgroup and heap.
    fn small_node(len: u64) -> (Kernel, Pid, CgroupId, MappingId) {
        let k = Kernel::boot(KernelConfig {
            ram_bytes: 64 << 20,
            cores: 1,
            proc_kernel_base: 4096,
            boot_used_bytes: 1 << 20,
        });
        let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
        let pid = k.spawn(cg).unwrap();
        let heap = k.mmap(pid, len, MapKind::AnonPrivate).unwrap();
        k.touch(pid, heap, 4 << 20).unwrap();
        (k, pid, cg, heap)
    }

    /// A touch whose pages fit in RAM but whose page tables do not is
    /// refused whole: the 4 MiB already resident stay resident and charged.
    #[test]
    fn a_touch_refused_at_the_ram_boundary_leaves_the_mapping_as_it_was() {
        let (k, pid, cg, heap) = small_node(64 << 20);
        let before = k.charges(pid, cg);
        assert_eq!(before.1, 4 << 20);
        let err = k.touch(pid, heap, (4 << 20) + before.0.free).unwrap_err();
        assert!(matches!(err, KernelError::PhysicalExhausted { .. }), "{err:?}");
        assert_eq!(k.charges(pid, cg), before);
        assert_eq!(k.check_accounting(), Ok(()));
        // What fits with its page tables still goes in.
        k.touch(pid, heap, (4 << 20) + before.0.free - (256 << 10)).unwrap();
        assert_eq!(k.check_accounting(), Ok(()));
    }

    /// Page tables count toward `memory.max`: a touch whose pages fit under
    /// the limit but whose page tables do not is an OOM, anon or file, and
    /// no touch leaves `memory.current` above the limit.
    #[test]
    fn page_tables_are_charged_within_memory_max() {
        let k = kernel();
        let lib = k.create_file("/lib.so", FileContent::Synthetic(8 << 20)).unwrap();
        for kind in [MapKind::AnonPrivate, MapKind::FileShared(lib)] {
            let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
            k.cgroup_set_limit(cg, Some(8 << 20)).unwrap();
            let pid = k.spawn(cg).unwrap();
            let m = k.mmap(pid, 8 << 20, kind).unwrap();
            // Pages up to exactly the limit, beside the process's base.
            let room = (8 << 20) - k.cgroup_stat(cg).unwrap().current;
            let err = k.touch(pid, m, room).unwrap_err();
            assert!(matches!(err, KernelError::OutOfMemory { .. }), "{kind:?}: {err:?}");
            assert_eq!(k.proc_state(pid).unwrap(), ProcState::OomKilled, "{kind:?}");
            assert!(k.cgroup_stat(cg).unwrap().current <= 8 << 20, "{kind:?}");
            assert_eq!(k.check_accounting(), Ok(()));
            // With room for its page tables the same touch fits.
            let pid = k.spawn(cg).unwrap();
            let m = k.mmap(pid, 8 << 20, kind).unwrap();
            k.touch(pid, m, room - (64 << 10)).unwrap();
            assert!(k.cgroup_stat(cg).unwrap().current <= 8 << 20, "{kind:?}");
            k.exit(pid, 0).unwrap();
            k.evict_file(lib).unwrap();
        }
    }

    /// A heap grows in place, one mapping whatever the growths; a refused
    /// growth, injected or at the RAM boundary, leaves its length,
    /// residency and charges as they were.
    #[test]
    fn a_refused_growth_leaves_the_heap_as_it_was() {
        let (k, pid, cg, heap) = small_node(4 << 20);
        k.st().grow(pid, heap, 64 << 10).unwrap();
        assert_eq!(k.mapping_len(pid, heap), Some((4 << 20) + (64 << 10)));
        assert_eq!(k.proc_rss(pid).unwrap(), (4 << 20) + (64 << 10), "the whole growth touched");
        k.set_fault_plan(crate::FaultPlan::new(2).fail_call(crate::FaultSite::MmapCharge, 0));
        let before = k.charges(pid, cg);
        let err = k.st().grow(pid, heap, 64 << 10).unwrap_err();
        assert_eq!(err, KernelError::FaultInjected(crate::FaultSite::MmapCharge));
        let err = k.st().grow(pid, heap, before.0.free).unwrap_err();
        assert!(matches!(err, KernelError::PhysicalExhausted { .. }), "{err:?}");
        assert_eq!(k.mapping_len(pid, heap), Some((4 << 20) + (64 << 10)));
        assert_eq!(k.charges(pid, cg), before);
        assert_eq!(k.check_accounting(), Ok(()));
        assert_eq!(k.st().alive(pid).unwrap().mapping_mark(), MappingId(1), "one mapping");
    }

    fn kernel() -> Kernel {
        Kernel::boot(KernelConfig {
            ram_bytes: 1 << 30,
            cores: 4,
            proc_kernel_base: 24 << 10,
            boot_used_bytes: 64 << 20,
        })
    }

    #[test]
    fn boot_state() {
        let k = kernel();
        let f = k.free();
        assert_eq!(f.total, 1 << 30);
        assert_eq!(f.used, 64 << 20);
        assert_eq!(f.buff_cache, 0);
        assert_eq!(k.now(), SimTime::ZERO);
        k.advance(Duration::from_secs(1));
        assert_eq!(k.now().as_secs_f64(), 1.0);
    }

    /// A mapping counts resident pages in a `u32`: RAM of 2^32 pages is
    /// refused at boot, and a page fewer boots.
    #[test]
    fn boot_refuses_ram_of_two_to_the_32_pages() {
        let ram = |ram_bytes| KernelConfig { ram_bytes, ..KernelConfig::default() };
        assert_eq!(Kernel::boot(ram((PAGE_SIZE << 32) - PAGE_SIZE)).free().total, (1 << 44) - 4096);
        let refused = std::panic::catch_unwind(|| Kernel::boot(ram(PAGE_SIZE << 32)));
        let message = refused.err().and_then(|e| e.downcast_ref::<&str>().copied());
        assert_eq!(message, Some("RAM must be under 2^32 pages (16 TiB)"));
    }

    /// A file mapping longer than its file can ask for 2^32 resident pages,
    /// on a node with RAM for their page tables; the touch is refused and
    /// leaves the mapping as it was.
    #[test]
    fn a_touch_past_two_to_the_32_pages_is_refused() {
        let k = Kernel::boot(KernelConfig { ram_bytes: 64 << 30, ..KernelConfig::default() });
        let lib = k.create_file("/lib.so", FileContent::Synthetic(1 << 20)).unwrap();
        let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
        let pid = k.spawn(cg).unwrap();
        let m = k.mmap(pid, 1 << 50, MapKind::FileShared(lib)).unwrap();
        k.touch(pid, m, 1 << 20).unwrap();
        let err = k.touch(pid, m, PAGE_SIZE << 32).unwrap_err();
        assert!(matches!(err, KernelError::PhysicalExhausted { .. }), "{err:?}");
        assert_eq!(k.proc_rss(pid).unwrap(), 1 << 20);
        k.check_accounting().unwrap();
    }

    #[test]
    fn anon_touch_charges_cgroup_and_free() {
        let k = kernel();
        let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
        let pid = k.spawn(cg).unwrap();
        let before = k.free().used;
        let m = k.mmap(pid, 10 << 20, MapKind::AnonPrivate).unwrap();
        // Reservation alone commits nothing.
        assert_eq!(k.cgroup_stat(cg).unwrap().anon_bytes, 0);
        k.touch(pid, m, 1 << 20).unwrap();
        let stat = k.cgroup_stat(cg).unwrap();
        assert_eq!(stat.anon_bytes, 1 << 20);
        assert!(k.free().used >= before + (1 << 20));
        // Touch is idempotent.
        k.touch(pid, m, 1 << 20).unwrap();
        assert_eq!(k.cgroup_stat(cg).unwrap().anon_bytes, 1 << 20);
        assert_eq!(k.proc_rss(pid).unwrap(), 1 << 20);
    }

    #[test]
    fn shared_file_pages_counted_once() {
        let k = kernel();
        let lib = k.create_file("/usr/lib/libwamr.so", FileContent::Synthetic(1 << 20)).unwrap();
        let cg_a = k.cgroup_create(Kernel::ROOT_CGROUP, "a").unwrap();
        let cg_b = k.cgroup_create(Kernel::ROOT_CGROUP, "b").unwrap();
        let pa = k.spawn(cg_a).unwrap();
        let pb = k.spawn(cg_b).unwrap();
        let ma = k.mmap(pa, 1 << 20, MapKind::FileShared(lib)).unwrap();
        let mb = k.mmap(pb, 1 << 20, MapKind::FileShared(lib)).unwrap();
        k.touch(pa, ma, 1 << 20).unwrap();
        k.touch(pb, mb, 1 << 20).unwrap();
        // Physically resident once.
        assert_eq!(k.free().buff_cache, 1 << 20);
        // First toucher charged, second free (Linux first-touch rule).
        assert_eq!(k.cgroup_stat(cg_a).unwrap().file_bytes, 1 << 20);
        assert_eq!(k.cgroup_stat(cg_b).unwrap().file_bytes, 0);
        // But both count it in their RSS.
        assert!(k.proc_rss(pa).unwrap() >= 1 << 20);
        assert!(k.proc_rss(pb).unwrap() >= 1 << 20);
    }

    #[test]
    fn exit_releases_anon_but_not_page_cache() {
        let k = kernel();
        let lib = k.create_file("/lib.so", FileContent::Synthetic(512 << 10)).unwrap();
        let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
        let pid = k.spawn(cg).unwrap();
        let m1 = k.mmap(pid, 1 << 20, MapKind::AnonPrivate).unwrap();
        let m2 = k.mmap(pid, 512 << 10, MapKind::FileShared(lib)).unwrap();
        k.touch(pid, m1, 1 << 20).unwrap();
        k.touch(pid, m2, 512 << 10).unwrap();
        k.exit(pid, 0).unwrap();
        assert_eq!(k.proc_state(pid).unwrap(), ProcState::Exited(0));
        let stat = k.cgroup_stat(cg).unwrap();
        assert_eq!(stat.anon_bytes, 0);
        assert_eq!(stat.kernel_bytes, 0);
        // Page cache persists after exit (warm cache for the next container).
        assert_eq!(k.free().buff_cache, 512 << 10);
        assert_eq!(stat.file_bytes, 512 << 10);
    }

    #[test]
    fn oom_kill_on_limit() {
        let k = kernel();
        let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
        k.cgroup_set_limit(cg, Some(1 << 20)).unwrap();
        let pid = k.spawn(cg).unwrap();
        let m = k.mmap(pid, 8 << 20, MapKind::AnonPrivate).unwrap();
        let err = k.touch(pid, m, 4 << 20).unwrap_err();
        assert!(matches!(err, KernelError::OutOfMemory { .. }));
        assert_eq!(k.proc_state(pid).unwrap(), ProcState::OomKilled);
        assert_eq!(k.cgroup_oom_events(cg).unwrap(), 1);
        assert_eq!(k.oom_kills(), 1);
        // Charges rolled back.
        assert_eq!(k.cgroup_stat(cg).unwrap().anon_bytes, 0);
        // The total counts kills, not corpses: reaping does not lower it.
        k.reap(pid).unwrap();
        assert_eq!(k.oom_kills(), 1);
        assert_eq!(k.check_accounting(), Ok(()));
    }

    #[test]
    fn hierarchical_oom_kills_largest_anon_victim() {
        let k = kernel();
        let parent = k.cgroup_create(Kernel::ROOT_CGROUP, "pods").unwrap();
        k.cgroup_set_limit(parent, Some(10 << 20)).unwrap();
        let cg_small = k.cgroup_create(parent, "small").unwrap();
        let cg_big = k.cgroup_create(parent, "big").unwrap();
        let small = k.spawn(cg_small).unwrap();
        let big = k.spawn(cg_big).unwrap();
        let mb = k.mmap(big, 8 << 20, MapKind::AnonPrivate).unwrap();
        k.touch(big, mb, 8 << 20).unwrap();
        let ms = k.mmap(small, 4 << 20, MapKind::AnonPrivate).unwrap();
        // Charging 4 MiB breaches the PARENT limit (8 + 4 > 10). The victim
        // is the largest-anon process in the offending subtree — the sibling
        // `big`, not the faulting `small` — and once its pages are reaped
        // the faulting charge retries and succeeds.
        k.touch(small, ms, 4 << 20).unwrap();
        assert_eq!(k.proc_state(big).unwrap(), ProcState::OomKilled);
        assert_eq!(k.proc_state(small).unwrap(), ProcState::Running);
        assert_eq!(k.oom_kills(), 1, "the sibling, once; the survivor not at all");
        assert_eq!(k.proc_rss(small).unwrap(), 4 << 20);
        assert!(k.cgroup_oom_events(parent).unwrap() >= 1, "event lands on the offender");
        assert_eq!(k.cgroup_oom_events(cg_small).unwrap(), 0);
        assert_eq!(k.cgroup_stat(cg_big).unwrap().anon_bytes, 0, "victim pages reaped");
    }

    #[test]
    fn oom_gives_up_when_killing_cannot_help() {
        let k = kernel();
        let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
        k.cgroup_set_limit(cg, Some(1 << 20)).unwrap();
        let pid = k.spawn(cg).unwrap();
        let m = k.mmap(pid, 8 << 20, MapKind::AnonPrivate).unwrap();
        // The faulter is the only (and largest) candidate: it is killed and
        // the charge fails — the pre-existing single-process semantics.
        let err = k.touch(pid, m, 4 << 20).unwrap_err();
        assert!(matches!(err, KernelError::OutOfMemory { .. }));
        assert_eq!(k.proc_state(pid).unwrap(), ProcState::OomKilled);
    }

    #[test]
    fn injected_spawn_fault_is_transient() {
        let k = kernel();
        k.set_fault_plan(crate::FaultPlan::new(1).fail_call(crate::FaultSite::Spawn, 0));
        let procs_before = k.live_procs();
        let used_before = k.free().used;
        let err = k.spawn(Kernel::ROOT_CGROUP).unwrap_err();
        assert!(matches!(err, KernelError::FaultInjected(crate::FaultSite::Spawn)));
        assert_eq!(k.live_procs(), procs_before, "nothing spawned");
        assert_eq!(k.free().used, used_before, "nothing charged");
        // The fault is transient: the retry succeeds.
        let pid = k.spawn(Kernel::ROOT_CGROUP).unwrap();
        assert!(matches!(k.proc_state(pid), Ok(ProcState::Running)));
        assert_eq!(k.faults_injected(crate::FaultSite::Spawn), 1);
    }

    #[test]
    fn injected_charge_fault_does_not_kill() {
        let k = kernel();
        let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
        let pid = k.spawn(cg).unwrap();
        let m = k.mmap(pid, 1 << 20, MapKind::AnonPrivate).unwrap();
        k.set_fault_plan(crate::FaultPlan::new(2).fail_call(crate::FaultSite::MmapCharge, 0));
        let err = k.touch(pid, m, 1 << 20).unwrap_err();
        assert!(matches!(err, KernelError::FaultInjected(_)));
        // Unlike OOM, an injected fault leaves the process alive and the
        // cgroup uncharged; retrying the same touch succeeds.
        assert_eq!(k.proc_state(pid).unwrap(), ProcState::Running);
        assert_eq!(k.cgroup_stat(cg).unwrap().anon_bytes, 0);
        k.touch(pid, m, 1 << 20).unwrap();
        assert_eq!(k.cgroup_stat(cg).unwrap().anon_bytes, 1 << 20);
    }

    #[test]
    fn injected_cold_read_fault_spares_the_cache_state() {
        let k = kernel();
        let pid = k.spawn(Kernel::ROOT_CGROUP).unwrap();
        let f = k.create_file("/f", FileContent::Synthetic(256 << 10)).unwrap();
        k.set_fault_plan(crate::FaultPlan::new(3).fail_call(crate::FaultSite::ColdRead, 0));
        let err = k.read_file(pid, f).unwrap_err();
        assert!(matches!(err, KernelError::FaultInjected(crate::FaultSite::ColdRead)));
        assert_eq!(k.proc_state(pid).unwrap(), ProcState::Running, "reader survives");
        assert_eq!(k.file_cached(f).unwrap(), 0);
        // Retry succeeds and caches the file; warm reads never hit the site.
        k.read_file(pid, f).unwrap();
        assert_eq!(k.file_cached(f).unwrap(), 256 << 10);
        k.read_file(pid, f).unwrap();
        assert_eq!(k.fault_plan().calls(crate::FaultSite::ColdRead), 2, "warm read skips site");
    }

    #[test]
    fn zero_fault_plan_is_inert() {
        let with_plan = kernel();
        with_plan.set_fault_plan(crate::FaultPlan::new(12345)); // seeded but zero-rate
        let without = kernel();
        for k in [&with_plan, &without] {
            let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
            let pid = k.spawn(cg).unwrap();
            let m = k.mmap(pid, 1 << 20, MapKind::AnonPrivate).unwrap();
            k.touch(pid, m, 1 << 20).unwrap();
        }
        assert_eq!(with_plan.free(), without.free());
        assert_eq!(with_plan.ps(), without.ps());
        assert_eq!(with_plan.fault_plan().total_injected(), 0);
    }

    #[test]
    fn cgroup_check_charge_is_side_effect_free() {
        let k = kernel();
        let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
        k.cgroup_set_limit(cg, Some(1 << 20)).unwrap();
        k.st().cgroup_check_charge(cg, 512 << 10).unwrap();
        let err = k.st().cgroup_check_charge(cg, 2 << 20).unwrap_err();
        assert!(matches!(err, KernelError::OutOfMemory { .. }));
        // No event recorded, nothing charged.
        assert_eq!(k.cgroup_oom_events(cg).unwrap(), 0);
        assert_eq!(k.cgroup_stat(cg).unwrap().anon_bytes, 0);
    }

    #[test]
    fn page_cache_evicted_under_pressure() {
        let k = Kernel::boot(KernelConfig {
            ram_bytes: 64 << 20,
            cores: 1,
            proc_kernel_base: 4096,
            boot_used_bytes: 1 << 20,
        });
        let f = k.create_file("/big", FileContent::Synthetic(20 << 20)).unwrap();
        let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
        let pid = k.spawn(cg).unwrap();
        k.read_file(pid, f).unwrap();
        assert_eq!(k.free().buff_cache, 20 << 20);
        // Allocate enough anon to force eviction of the (unmapped) cache.
        let m = k.mmap(pid, 50 << 20, MapKind::AnonPrivate).unwrap();
        k.touch(pid, m, 50 << 20).unwrap();
        assert_eq!(k.free().buff_cache, 0);
        assert_eq!(k.cgroup_stat(cg).unwrap().file_bytes, 0);
    }

    #[test]
    fn fault_file_charge_survives_self_eviction() {
        // Pressure forces ensure_physical to evict the very file being
        // faulted; the cgroup charge must match the final cached bytes.
        let k = Kernel::boot(KernelConfig {
            ram_bytes: 76 << 20,
            cores: 1,
            proc_kernel_base: 4096,
            boot_used_bytes: 1 << 20,
        });
        let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
        let pid = k.spawn(cg).unwrap();
        let f = k.create_file("/big", FileContent::Synthetic(40 << 20)).unwrap();
        // Partially cache the file (8 MiB), unmapped → evictable.
        let m = k.mmap(pid, 40 << 20, MapKind::FileShared(f)).unwrap();
        k.touch(pid, m, 8 << 20).unwrap();
        k.munmap(pid, m).unwrap();
        // Fill RAM so the full read must evict the stale 8 MiB first.
        let hog = k.mmap(pid, 30 << 20, MapKind::AnonPrivate).unwrap();
        k.touch(pid, hog, 30 << 20).unwrap();
        k.read_file(pid, f).unwrap();
        // Charge equals residency exactly — no undercharge.
        assert_eq!(k.file_cached(f).unwrap(), 40 << 20);
        assert_eq!(k.cgroup_stat(cg).unwrap().file_bytes, 40 << 20);
        // And the uncharge path stays balanced.
        k.evict_file(f).unwrap();
        assert_eq!(k.cgroup_stat(cg).unwrap().file_bytes, 0);
    }

    #[test]
    fn physical_exhaustion_errors() {
        let k = Kernel::boot(KernelConfig {
            ram_bytes: 16 << 20,
            cores: 1,
            proc_kernel_base: 4096,
            boot_used_bytes: 1 << 20,
        });
        let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
        let pid = k.spawn(cg).unwrap();
        let m = k.mmap(pid, 64 << 20, MapKind::AnonPrivate).unwrap();
        let err = k.touch(pid, m, 64 << 20).unwrap_err();
        assert!(matches!(err, KernelError::PhysicalExhausted { .. }));
    }

    #[test]
    fn working_set_tracks_mapped_file() {
        let k = kernel();
        let lib = k.create_file("/lib.so", FileContent::Synthetic(1 << 20)).unwrap();
        let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
        let pid = k.spawn(cg).unwrap();
        // Read-only: cache charged but reclaimable, so working set ~ kernel.
        k.read_file(pid, lib).unwrap();
        let ws_unmapped = k.cgroup_working_set(cg).unwrap();
        // Map it: now it counts in the working set.
        let m = k.mmap(pid, 1 << 20, MapKind::FileShared(lib)).unwrap();
        k.touch(pid, m, 1 << 20).unwrap();
        let ws_mapped = k.cgroup_working_set(cg).unwrap();
        assert!(ws_mapped >= ws_unmapped + (1 << 20) - PAGE_SIZE);
    }

    #[test]
    fn cgroup_remove_reparents_cache_charge() {
        let k = kernel();
        let parent = k.cgroup_create(Kernel::ROOT_CGROUP, "pods").unwrap();
        let pod = k.cgroup_create(parent, "pod").unwrap();
        let f = k.create_file("/img", FileContent::Synthetic(1 << 20)).unwrap();
        let pid = k.spawn(pod).unwrap();
        k.read_file(pid, f).unwrap();
        k.exit(pid, 0).unwrap();
        k.reap(pid).unwrap();
        assert_eq!(k.cgroup_stat(pod).unwrap().file_bytes, 1 << 20);
        k.cgroup_remove(pod).unwrap();
        // Charge survives at the parent.
        assert_eq!(k.cgroup_stat(parent).unwrap().file_bytes, 1 << 20);
        assert_eq!(k.free().buff_cache, 1 << 20);
    }

    #[test]
    fn unshare_charges_namespace_slab() {
        let k = kernel();
        let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
        let pid = k.spawn(cg).unwrap();
        let before = k.cgroup_stat(cg).unwrap().kernel_bytes;
        k.unshare(pid, 7).unwrap();
        let after = k.cgroup_stat(cg).unwrap().kernel_bytes;
        assert_eq!(after - before, 7 * 4096);
        // The process keeps paying for them as its page tables move.
        k.check_accounting().unwrap();
        let m = k.mmap(pid, 1 << 20, MapKind::AnonPrivate).unwrap();
        k.touch(pid, m, 1 << 20).unwrap();
        let touched = k.cgroup_stat(cg).unwrap().kernel_bytes;
        assert_eq!(touched - before, 7 * 4096 + 4096, "namespaces and one page of tables");
        k.check_accounting().unwrap();
    }

    #[test]
    fn reap_requires_exit() {
        let k = kernel();
        let pid = k.spawn(Kernel::ROOT_CGROUP).unwrap();
        assert!(k.reap(pid).is_err());
        k.exit(pid, 3).unwrap();
        k.reap(pid).unwrap();
        assert!(matches!(k.proc_state(pid), Err(KernelError::NoSuchProcess(_))));
    }

    #[test]
    fn mapping_overflow_rejected() {
        let k = kernel();
        let pid = k.spawn(Kernel::ROOT_CGROUP).unwrap();
        let m = k.mmap(pid, 4096, MapKind::AnonPrivate).unwrap();
        assert!(matches!(k.touch(pid, m, 8192), Err(KernelError::MappingOverflow { .. })));
    }

    #[test]
    fn overwrite_file_drops_cache_and_uncharges() {
        let k = kernel();
        let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
        let pid = k.spawn(cg).unwrap();
        let f = k.create_file("/f", FileContent::Synthetic(1 << 20)).unwrap();
        k.read_file(pid, f).unwrap();
        assert_eq!(k.cgroup_stat(cg).unwrap().file_bytes, 1 << 20);
        k.overwrite_file(f, FileContent::Synthetic(4096)).unwrap();
        assert_eq!(k.cgroup_stat(cg).unwrap().file_bytes, 0);
        assert_eq!(k.free().buff_cache, 0);
        assert_eq!(k.file_size(f).unwrap(), 4096);
    }

    #[test]
    fn evict_file_returns_bytes() {
        let k = kernel();
        let pid = k.spawn(Kernel::ROOT_CGROUP).unwrap();
        let f = k.create_file("/f", FileContent::Synthetic(256 << 10)).unwrap();
        k.read_file(pid, f).unwrap();
        assert_eq!(k.evict_file(f).unwrap(), 256 << 10);
        assert_eq!(k.evict_file(f).unwrap(), 0, "second evict is a no-op");
        assert_eq!(k.file_cached(f).unwrap(), 0);
    }

    /// A size-only file stands in for real bytes of the same length: read
    /// from two cgroups, it is cached, charged and reported alike, and
    /// evicted alike.
    #[test]
    fn a_synthetic_file_reads_as_bytes_of_its_length_do() {
        let observe = |content: FileContent| {
            let k = kernel();
            let cgs = ["first", "second"].map(|n| k.cgroup_create(Kernel::ROOT_CGROUP, n).unwrap());
            let readers = cgs.map(|cg| k.spawn(cg).unwrap());
            let f = k.create_file("/config.json", content).unwrap();
            let reading =
                || (k.file_cached(f).unwrap(), cgs.map(|cg| k.cgroup_stat(cg).unwrap()), k.free());
            for pid in readers {
                k.read_file(pid, f).unwrap();
            }
            let read = reading();
            k.evict_file(f).unwrap();
            (read, reading())
        };
        for n in [405, 4097] {
            let bytes = FileContent::Bytes(Bytes::from(vec![b'x'; n]));
            let (read, evicted) = observe(FileContent::Synthetic(n as u64));
            assert_eq!((read, evicted), observe(bytes), "{n} bytes");
            assert!(read.0 > 0 && read.1[0].file_bytes > 0 && read.1[1].file_bytes == 0);
            assert_eq!(evicted.0, 0);
        }
    }

    #[test]
    fn ps_lists_live_processes_with_rss() {
        let k = kernel();
        let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
        let a = k.spawn(cg).unwrap();
        let b = k.spawn(cg).unwrap();
        let m = k.mmap(a, 1 << 20, MapKind::AnonPrivate).unwrap();
        k.touch(a, m, 1 << 20).unwrap();
        k.exit(b, 0).unwrap();
        let ps = k.ps();
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].0, a);
        assert_eq!(ps[0].1, cg);
        assert_eq!(ps[0].2, 1 << 20);
    }

    #[test]
    fn cow_write_turns_file_pages_private() {
        let k = kernel();
        let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
        let pid = k.spawn(cg).unwrap();
        let f = k.create_file("/data", FileContent::Synthetic(128 << 10)).unwrap();
        let m = k.mmap(pid, 128 << 10, MapKind::FileCow(f)).unwrap();
        // Reading shares the page cache...
        k.touch(pid, m, 128 << 10).unwrap();
        assert_eq!(k.cgroup_stat(cg).unwrap().anon_bytes, 0);
        assert_eq!(k.cgroup_stat(cg).unwrap().file_bytes, 128 << 10);
        // ...writing makes private anonymous copies.
        k.cow_write(pid, m, 64 << 10).unwrap();
        assert_eq!(k.cgroup_stat(cg).unwrap().anon_bytes, 64 << 10);
    }

    #[test]
    fn cow_write_does_not_double_count() {
        let k = kernel();
        let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
        let pid = k.spawn(cg).unwrap();
        let f = k.create_file("/data", FileContent::Synthetic(128 << 10)).unwrap();
        let m = k.mmap(pid, 128 << 10, MapKind::FileCow(f)).unwrap();
        k.touch(pid, m, 128 << 10).unwrap(); // read: file-backed share
        let rss_read = k.proc_rss(pid).unwrap();
        k.cow_write(pid, m, 128 << 10).unwrap(); // write all: private copies
                                                 // RSS stays flat (pages replaced, not added), anon replaces the
                                                 // mapped-file share in the working set.
        assert_eq!(k.proc_rss(pid).unwrap(), rss_read);
        let stat = k.cgroup_stat(cg).unwrap();
        assert_eq!(stat.anon_bytes, 128 << 10);
        assert_eq!(k.cgroup_working_set(cg).unwrap() - stat.kernel_bytes, 128 << 10);
    }

    #[test]
    fn kernel_and_file_charges_respect_memory_max() {
        let k = kernel();
        let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
        k.cgroup_set_limit(cg, Some(64 << 10)).unwrap();
        // Kernel charge at spawn counts toward the limit.
        let p1 = k.spawn(cg).unwrap(); // 24 KiB base
        let p2 = k.spawn(cg).unwrap();
        let err = k.spawn(cg).unwrap_err(); // 72 KiB > 64 KiB
        assert!(matches!(err, KernelError::OutOfMemory { .. }));
        let _ = (p1, p2);
        // Page-cache faults count too.
        let cg2 = k.cgroup_create(Kernel::ROOT_CGROUP, "c2").unwrap();
        k.cgroup_set_limit(cg2, Some(64 << 10)).unwrap();
        let pid = k.spawn(cg2).unwrap();
        let f = k.create_file("/big", FileContent::Synthetic(1 << 20)).unwrap();
        assert_eq!(k.oom_kills(), 0, "a refused spawn kills nobody");
        assert!(matches!(k.read_file(pid, f), Err(KernelError::OutOfMemory { .. })));
        assert_eq!(k.oom_kills(), 1);
    }

    #[test]
    fn oom_kills_counts_every_kill_path_once() {
        let k = kernel();
        let f = k.create_file("/big", FileContent::Synthetic(1 << 20)).unwrap();
        let reader = |name: &str| {
            let cg = k.cgroup_create(Kernel::ROOT_CGROUP, name).unwrap();
            k.cgroup_set_limit(cg, Some(64 << 10)).unwrap();
            k.spawn(cg).unwrap()
        };
        // A cold read, a mapped-file fault and the explicit verb; the two
        // anon-fault paths (faulter, sibling) and `read_file` are counted
        // in the tests above.
        let cold = reader("cold");
        assert!(k.read_file_cold(cold, f).is_err());
        assert_eq!(k.oom_kills(), 1);
        let mapper = reader("mapper");
        let m = k.mmap(mapper, 1 << 20, MapKind::FileShared(f)).unwrap();
        assert!(k.touch(mapper, m, 1 << 20).is_err());
        assert_eq!(k.oom_kills(), 2);
        let plain = k.spawn(Kernel::ROOT_CGROUP).unwrap();
        k.oom_kill(plain).unwrap();
        assert_eq!(k.oom_kills(), 3);
        for pid in [cold, mapper, plain] {
            assert_eq!(k.proc_state(pid).unwrap(), ProcState::OomKilled);
        }
        // An exit is not a kill, and a dead process cannot be killed twice.
        let quiet = k.spawn(Kernel::ROOT_CGROUP).unwrap();
        k.exit(quiet, 0).unwrap();
        assert!(k.oom_kill(plain).is_err());
        assert_eq!(k.oom_kills(), 3);
        assert_eq!(k.check_accounting(), Ok(()));
    }

    #[test]
    fn a_fork_is_a_deep_copy_on_its_own_clock() {
        let k = kernel();
        k.set_fault_plan(crate::FaultPlan::new(7).with_rate(crate::FaultSite::Probe, 500_000));
        let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
        let pid = k.spawn(cg).unwrap();
        let heap = k.mmap(pid, 1 << 20, MapKind::AnonPrivate).unwrap();
        k.touch(pid, heap, 64 << 10).unwrap();
        let file = k.create_file("/f", FileContent::Synthetic(256 << 10)).unwrap();
        k.advance(Duration::from_secs(3));

        let clock = k.st().clock.fork();
        let fork = k.fork(&clock);
        assert_eq!((fork.now(), fork.free(), fork.ps()), (k.now(), k.free(), k.ps()));
        let observe = |k: &Kernel| (k.now(), k.free(), k.ps(), k.file_cached(file).unwrap());
        let before = observe(&k);

        // Everything a fork can do to itself leaves the origin as it was.
        let child = fork.spawn(cg).unwrap();
        fork.touch(pid, heap, 1 << 20).unwrap();
        fork.read_file_cold(child, file).unwrap();
        fork.exit(pid, 0).unwrap();
        fork.advance(Duration::from_secs(5));
        fork.power_off();
        assert_eq!(observe(&k), before);
        assert!(!k.powered_off() && fork.powered_off());
        assert_ne!(fork.free(), k.free());
        assert_eq!((k.check_accounting(), fork.check_accounting()), (Ok(()), Ok(())));

        // The fault plan went along with its RNG state: a second fork, taken
        // now, draws what the origin draws, and drawing from one does not
        // advance the other.
        let twin = k.fork(&clock);
        let draw = |k: &Kernel| -> Vec<bool> {
            (0..32).map(|_| k.inject_fault(crate::FaultSite::Probe).is_err()).collect()
        };
        let from_twin = draw(&twin);
        assert_eq!(draw(&k), from_twin);
        assert!(from_twin.contains(&true) && from_twin.contains(&false));
    }

    #[test]
    fn munmap_releases() {
        let k = kernel();
        let cg = k.cgroup_create(Kernel::ROOT_CGROUP, "c").unwrap();
        let pid = k.spawn(cg).unwrap();
        let m = k.mmap(pid, 1 << 20, MapKind::AnonPrivate).unwrap();
        k.touch(pid, m, 1 << 20).unwrap();
        k.munmap(pid, m).unwrap();
        assert_eq!(k.cgroup_stat(cg).unwrap().anon_bytes, 0);
        assert_eq!(k.proc_rss(pid).unwrap(), 0);
    }
}
