//! Process images: the one way the stack charges memory to processes.
//!
//! Every layer of the container stack used to hand-roll the same block —
//! spawn a process, look up its binary, map the file shared, touch the
//! resident fraction, note whether the read was cold, map a private heap,
//! touch it — and every layer invented its own partial rollback when a step
//! in the middle failed. [`ProcessImage`] is that block, written once:
//!
//! ```
//! use simkernel::{Kernel, KernelConfig, ProcessImage};
//! use simkernel::vfs::FileContent;
//!
//! let kernel = Kernel::boot(KernelConfig::default());
//! kernel.ensure_file("/usr/bin/crun", FileContent::Synthetic(2 << 20)).unwrap();
//! let guard = ProcessImage::spawn(&kernel, "crun:create", Kernel::ROOT_CGROUP)
//!     .text("/usr/bin/crun", 2 << 20, 1 << 20, "crun")
//!     .heap(256 << 10, "rt-heap")
//!     .build()
//!     .unwrap();
//! assert!(guard.cold_read().is_some()); // first launch faults the binary in
//! guard.exit(0).unwrap();               // or drop: the guard never leaks a pid
//! ```
//!
//! The returned [`ProcGuard`] owns the simulated process: dropping it —
//! including on an error path unwinding through `?` — exits and reaps the
//! process, so failure paths cannot leak sim pids or pages. Long-lived
//! daemons (kubelet, containerd, shims, container inits) call
//! [`ProcGuard::detach`] once they are successfully registered with whoever
//! tears them down later.
//!
//! Cold-read accounting is deliberately split from charging: mapping the
//! text decides *whether* the launch paid a disk read ([`ProcGuard::cold_read`]),
//! but the caller decides *where* in its step program the corresponding
//! [`Step::disk_read`] lands (shims emit it after the serialized spawn
//! section; transient runtime ops emit it immediately; warm restarts emit
//! nothing), which is what keeps existing figures byte-identical.
//!
//! The free functions ([`charge_anon`], [`map_shared`], [`map_cow`]) are the
//! same discipline for charging growth onto an *existing* process (daemon
//! metadata, per-pod kubelet growth, engine heaps), with [`Rollback`] as
//! their undo when several of them make up one stage. `Kernel::mmap_labeled`
//! and `Kernel::cgroup_charge_cpu` (whose one caller is [`charge_cpu`]) are
//! `pub(crate)`, so the compiler keeps other crates on these doorways;
//! `Kernel::spawn` has to stay `pub`, and `scripts/verify.sh` lints that
//! nothing outside this crate calls it.

use crate::cgroup::CgroupId;
use crate::des::Step;
use crate::error::KernelResult;
use crate::kernel::Kernel;
use crate::proc::{Pid, ProcState};
use crate::time::Duration;
use crate::trace::{Phase, StepTrace};
use crate::vfs::FileId;
use crate::{MapKind, MappingId};

/// Declarative description of a process image: optional shared text plus any
/// number of labeled private heaps. Built with [`ProcessImage::spawn`] (new
/// process) or [`ProcessImage::attach`] (charge onto an existing one).
pub struct ProcessImage<'k> {
    kernel: &'k Kernel,
    target: Target,
    text: Option<TextSpec>,
    heaps: Vec<HeapSpec>,
}

enum Target {
    Spawn { name: String, cgroup: CgroupId },
    Attach { pid: Pid },
}

struct TextSpec {
    path: String,
    map_len: u64,
    resident: u64,
    label: &'static str,
    shared: bool,
}

struct HeapSpec {
    bytes: u64,
    label: &'static str,
}

impl<'k> ProcessImage<'k> {
    /// Image for a process to be spawned in `cgroup`. The returned guard
    /// owns the process: dropping it exits and reaps.
    pub fn spawn(kernel: &'k Kernel, name: impl Into<String>, cgroup: CgroupId) -> Self {
        ProcessImage {
            kernel,
            target: Target::Spawn { name: name.into(), cgroup },
            text: None,
            heaps: Vec::new(),
        }
    }

    /// Image charged onto an already-running process (`exec` into a container
    /// init, an engine loaded inside a shim). The guard does not own the
    /// process and its drop is a no-op.
    pub fn attach(kernel: &'k Kernel, pid: Pid) -> Self {
        ProcessImage { kernel, target: Target::Attach { pid }, text: None, heaps: Vec::new() }
    }

    /// Map the binary at `path` shared (`map_len` reserved, `resident` bytes
    /// touched) with page-cache cold-read accounting.
    pub fn text(
        mut self,
        path: impl Into<String>,
        map_len: u64,
        resident: u64,
        label: &'static str,
    ) -> Self {
        self.text = Some(TextSpec { path: path.into(), map_len, resident, label, shared: true });
        self
    }

    /// Map the binary privately (the no-sharing ablation): every launch pays
    /// its own anonymous copy and the cold read is unconditional.
    pub fn text_private(
        mut self,
        path: impl Into<String>,
        map_len: u64,
        resident: u64,
        label: &'static str,
    ) -> Self {
        self.text = Some(TextSpec { path: path.into(), map_len, resident, label, shared: false });
        self
    }

    /// Add a fully-touched private anonymous heap.
    pub fn heap(mut self, bytes: u64, label: &'static str) -> Self {
        self.heaps.push(HeapSpec { bytes, label });
        self
    }

    /// The private anonymous bytes this image will commit, page-rounded the
    /// way each individual touch will round them.
    fn anon_footprint(text: &Option<TextSpec>, heaps: &[HeapSpec]) -> u64 {
        let page = |b: u64| crate::mem::round_up_pages(b, crate::kernel::PAGE_SIZE);
        let private_text =
            text.as_ref().filter(|t| !t.shared).map(|t| page(t.resident)).unwrap_or(0);
        heaps.iter().map(|h| page(h.bytes)).sum::<u64>() + private_text
    }

    /// Spawn (if needed) and charge the image. On any failure the spawned
    /// process is exited and reaped before the error is returned — a
    /// half-built image never leaks.
    pub fn build(self) -> KernelResult<ProcGuard<'k>> {
        let ProcessImage { kernel, target, text, heaps } = self;
        let mut guard = match target {
            Target::Spawn { name, cgroup } => {
                // memory.max admission: check the image's anonymous
                // footprint against the cgroup hierarchy *before* spawning
                // or charging anything. An image that cannot fit is refused
                // outright — no spawn, no partial charges, no OOM kill.
                let anon = Self::anon_footprint(&text, &heaps);
                if anon > 0 {
                    kernel.cgroup_check_charge(cgroup, anon)?;
                }
                let pid = kernel.spawn(&name, cgroup)?;
                ProcGuard { kernel, pid, owned: true, cold_read: None }
            }
            Target::Attach { pid } => ProcGuard { kernel, pid, owned: false, cold_read: None },
        };
        if let Some(t) = &text {
            let file = kernel.lookup(&t.path)?;
            guard.cold_read = if t.shared {
                map_shared(kernel, guard.pid, file, t.map_len, t.resident, t.label)?
            } else {
                // Private copy: reserve the full map, fault in the resident
                // fraction as anonymous memory; the read is always cold.
                let m = kernel.mmap_labeled(guard.pid, t.map_len, MapKind::AnonPrivate, t.label)?;
                kernel.touch(guard.pid, m, t.resident)?;
                Some(t.resident)
            };
        }
        for h in &heaps {
            let m = kernel.mmap_labeled(guard.pid, h.bytes, MapKind::AnonPrivate, h.label)?;
            kernel.touch(guard.pid, m, h.bytes)?;
        }
        Ok(guard)
    }
}

/// RAII handle to a charged process. See the module docs: drop = exit+reap
/// (owned spawns only), [`ProcGuard::detach`] hands ownership to the caller.
#[must_use = "dropping the guard immediately would exit the process it owns"]
pub struct ProcGuard<'k> {
    kernel: &'k Kernel,
    pid: Pid,
    owned: bool,
    cold_read: Option<u64>,
}

impl<'k> ProcGuard<'k> {
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Bytes the text mapping faulted in from disk, if the binary was not
    /// already in the page cache.
    pub fn cold_read(&self) -> Option<u64> {
        self.cold_read
    }

    /// The I/O step for the cold read, if any — pushed by the caller at the
    /// point in its program where the read actually happens.
    pub fn cold_read_step(&self) -> Option<Step> {
        self.cold_read.map(Step::disk_read)
    }

    /// Charge an additional fully-touched anonymous region.
    pub fn charge_heap(&self, bytes: u64, label: &'static str) -> KernelResult<()> {
        charge_anon(self.kernel, self.pid, bytes, label)
    }

    /// Keep the process alive past this guard: ownership moves to the caller
    /// (a sandbox table, an infra-pid map), which is then responsible for
    /// eventual exit+reap.
    pub fn detach(mut self) -> Pid {
        self.owned = false;
        self.pid
    }

    /// Deliberate exit+reap with an explicit code (transient helper
    /// processes). Robust to the process having already been OOM-killed.
    pub fn exit(mut self, code: i32) -> KernelResult<()> {
        self.owned = false;
        reap_quietly(self.kernel, self.pid, code)
    }
}

impl Drop for ProcGuard<'_> {
    fn drop(&mut self) {
        if self.owned {
            // Best-effort: an unwinding error path must not leak the pid,
            // and must tolerate the kernel having OOM-killed it already.
            let kernel = self.kernel;
            let _ = reap_quietly(kernel, self.pid, 1);
        }
    }
}

/// Exit (if still running) and reap `pid`, tolerating already-dead processes.
fn reap_quietly(kernel: &Kernel, pid: Pid, code: i32) -> KernelResult<()> {
    if matches!(kernel.proc_state(pid), Ok(ProcState::Running)) {
        kernel.exit(pid, code)?;
    }
    if kernel.proc_state(pid).is_ok() {
        kernel.reap(pid)?;
    }
    Ok(())
}

// ---------------------------------------------------------------- charging
//
// Growth onto existing processes. These are the only blessed doorways to
// `mmap_labeled` outside simkernel.

/// Charge `bytes` of fully-touched private anonymous memory to `pid`.
pub fn charge_anon(kernel: &Kernel, pid: Pid, bytes: u64, label: &'static str) -> KernelResult<()> {
    let m = kernel.mmap_labeled(pid, bytes, MapKind::AnonPrivate, label)?;
    if let Err(e) = kernel.touch(pid, m, bytes) {
        // A transient failure (injected fault) leaves the process alive with
        // an empty reservation; drop it so a retry does not accumulate
        // mappings. Best-effort: the process may be dead (OOM-killed).
        let _ = kernel.munmap(pid, m);
        return Err(e);
    }
    Ok(())
}

/// Map `file` shared into `pid`, touching `resident` of `map_len` bytes.
/// Returns `Some(resident)` when the touch faulted the file in from disk
/// (page cache was colder than the resident set), `None` on a warm map.
pub fn map_shared(
    kernel: &Kernel,
    pid: Pid,
    file: FileId,
    map_len: u64,
    resident: u64,
    label: &'static str,
) -> KernelResult<Option<u64>> {
    let cold = kernel.file_cached(file)? < resident;
    let m = kernel.mmap_labeled(pid, map_len, MapKind::FileShared(file), label)?;
    if let Err(e) = kernel.touch(pid, m, resident) {
        let _ = kernel.munmap(pid, m);
        return Err(e);
    }
    Ok(if cold { Some(resident) } else { None })
}

/// Map `file` copy-on-write into `pid` and dirty all `bytes` (code-cache
/// relocation: every page is patched). Same cold-read contract as
/// [`map_shared`].
pub fn map_cow(
    kernel: &Kernel,
    pid: Pid,
    file: FileId,
    bytes: u64,
    label: &'static str,
) -> KernelResult<Option<u64>> {
    let cold = kernel.file_cached(file)? < bytes;
    let m = kernel.mmap_labeled(pid, bytes, MapKind::FileCow(file), label)?;
    if let Err(e) = kernel.touch(pid, m, bytes).and_then(|()| kernel.cow_write(pid, m, bytes)) {
        let _ = kernel.munmap(pid, m);
        return Err(e);
    }
    Ok(if cold { Some(bytes) } else { None })
}

/// Stage-level undo for a process that outlives the stage's failure (a
/// sandbox survives a failed guest): dropped without [`Rollback::commit`]
/// — an `Err` unwinding through `?` — it unmaps everything `pid` mapped
/// since [`Rollback::arm`]. Page-cache fills stay, as after an exit.
/// Best-effort: the failed charge may itself have OOM-killed the process.
#[must_use = "commit on success; dropping it rolls the process back"]
pub struct Rollback<'k> {
    kernel: &'k Kernel,
    pid: Pid,
    mark: MappingId,
}

impl<'k> Rollback<'k> {
    pub fn arm(kernel: &'k Kernel, pid: Pid) -> KernelResult<Self> {
        Ok(Rollback { kernel, pid, mark: kernel.mapping_mark(pid)? })
    }

    pub fn commit(self) {
        std::mem::forget(self);
    }
}

impl Drop for Rollback<'_> {
    fn drop(&mut self) {
        // Mapping ids are monotonic per process: what the stage mapped is
        // every id from the mark to the next one. Ids a failed charge
        // already dropped itself just miss.
        let Ok(end) = self.kernel.mapping_mark(self.pid) else { return };
        for id in self.mark.0..end.0 {
            let _ = self.kernel.munmap(self.pid, MappingId(id));
        }
    }
}

// --------------------------------------------------------------- guest CPU
//
// Where a guest's priced execution meets the pod's `cpu.max`, for every
// guest runtime (the Wasm engines, the Python handler).

/// Watchdog epoch ticks in a guest-time `budget`, a tick costing
/// `ns_per_tick` in the model the Exec step is priced with — so the trap
/// point is a pure function of profile, budget and quota. Under a
/// `cpu.max` the guest only gets quota/period of each wall-time window, so
/// the allowance shrinks by that ratio: throttling stretches the guest's
/// wall time rather than granting it more retired operations.
pub fn watchdog_ticks(
    kernel: &Kernel,
    pid: Pid,
    budget: Duration,
    ns_per_tick: u64,
) -> KernelResult<u64> {
    let mut budget_ns = budget.as_nanos();
    if let Some((quota, period)) = kernel.cgroup_effective_cpu_max(kernel.proc_cgroup(pid)?)? {
        if quota < period {
            budget_ns = (budget_ns as u128 * quota as u128 / period as u128) as u64;
        }
    }
    Ok((budget_ns / ns_per_tick.max(1)).max(1))
}

/// Charge the guest CPU a run consumed against `pid`'s effective
/// `cpu.max`. The returned sleep is off-CPU wall time, appended to `trace`
/// as an Exec-phase I/O step — a throttled tenant finishes late, it does
/// not finish less. [`Duration::ZERO`] (no quota on the path to the root)
/// pushes nothing, keeping the unlimited path byte-identical.
pub fn charge_cpu(
    kernel: &Kernel,
    pid: Pid,
    cpu: Duration,
    trace: &mut StepTrace,
) -> KernelResult<Duration> {
    let throttle = kernel.cgroup_charge_cpu(kernel.proc_cgroup(pid)?, cpu)?;
    if throttle > Duration::ZERO {
        trace.push(Phase::Exec, Step::Io(throttle));
    }
    Ok(throttle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelConfig;
    use crate::vfs::FileContent;

    fn boot() -> Kernel {
        Kernel::boot(KernelConfig::default())
    }

    #[test]
    fn spawn_charges_text_and_heap_with_cold_accounting() {
        let kernel = boot();
        kernel.ensure_file("/bin/x", FileContent::Synthetic(4 << 20)).unwrap();
        let g = ProcessImage::spawn(&kernel, "x", Kernel::ROOT_CGROUP)
            .text("/bin/x", 4 << 20, 2 << 20, "x")
            .heap(512 << 10, "x-heap")
            .build()
            .unwrap();
        assert_eq!(g.cold_read(), Some(2 << 20), "first launch is cold");
        assert!(matches!(g.cold_read_step(), Some(Step::Io(_))));
        assert_eq!(kernel.proc_rss(g.pid()).unwrap(), (2 << 20) + (512 << 10));
        g.exit(0).unwrap();

        // Second launch: the page cache is warm now.
        let g2 = ProcessImage::spawn(&kernel, "x", Kernel::ROOT_CGROUP)
            .text("/bin/x", 4 << 20, 2 << 20, "x")
            .build()
            .unwrap();
        assert_eq!(g2.cold_read(), None, "warm relaunch reads nothing");
        g2.exit(0).unwrap();
    }

    #[test]
    fn drop_exits_and_reaps_owned_process() {
        let kernel = boot();
        let procs = kernel.live_procs();
        {
            let _g = ProcessImage::spawn(&kernel, "ephemeral", Kernel::ROOT_CGROUP)
                .heap(64 << 10, "h")
                .build()
                .unwrap();
            assert_eq!(kernel.live_procs(), procs + 1);
        }
        assert_eq!(kernel.live_procs(), procs, "guard drop reaps");
    }

    #[test]
    fn build_failure_does_not_leak_the_spawned_process() {
        let kernel = boot();
        let procs = kernel.live_procs();
        let err = ProcessImage::spawn(&kernel, "doomed", Kernel::ROOT_CGROUP)
            .text("/no/such/binary", 1 << 20, 1 << 20, "x")
            .build();
        assert!(err.is_err());
        assert_eq!(kernel.live_procs(), procs, "failed build reaps its spawn");
    }

    #[test]
    fn drop_tolerates_oom_killed_process() {
        let kernel = boot();
        let cg = kernel.cgroup_create(Kernel::ROOT_CGROUP, "tiny").unwrap();
        kernel.cgroup_set_limit(cg, Some(256 << 10)).unwrap();
        let procs = kernel.live_procs();
        let err = ProcessImage::spawn(&kernel, "oomer", cg).heap(4 << 20, "big").build();
        assert!(err.is_err(), "touch over the limit must fail");
        assert_eq!(kernel.live_procs(), procs, "OOM-killed spawn still reaped");
    }

    #[test]
    fn spawn_admission_checks_memory_max_before_charging() {
        let kernel = boot();
        let cg = kernel.cgroup_create(Kernel::ROOT_CGROUP, "tiny").unwrap();
        kernel.cgroup_set_limit(cg, Some(256 << 10)).unwrap();
        let err = ProcessImage::spawn(&kernel, "too-big", cg).heap(4 << 20, "big").build();
        assert!(matches!(err, Err(crate::KernelError::OutOfMemory { .. })));
        // Refused at admission: nothing was spawned or charged and no OOM
        // event was recorded — the limit gated the charge up front.
        assert_eq!(kernel.cgroup_oom_events(cg).unwrap(), 0);
        assert_eq!(kernel.cgroup_stat(cg).unwrap().anon_bytes, 0);
        // A fitting image in the same cgroup still builds.
        let g = ProcessImage::spawn(&kernel, "fits", cg).heap(64 << 10, "small").build().unwrap();
        g.exit(0).unwrap();
    }

    #[test]
    fn injected_faults_surface_through_build_without_leaks() {
        use crate::{FaultPlan, FaultSite, KernelError};
        for site in [FaultSite::Spawn, FaultSite::ColdRead, FaultSite::MmapCharge] {
            let kernel = boot();
            kernel.ensure_file("/bin/f", FileContent::Synthetic(1 << 20)).unwrap();
            let procs = kernel.live_procs();
            let used = kernel.free().used;
            kernel.set_fault_plan(FaultPlan::new(5).fail_call(site, 0));
            let err = ProcessImage::spawn(&kernel, "f", Kernel::ROOT_CGROUP)
                .text("/bin/f", 1 << 20, 512 << 10, "f")
                .heap(256 << 10, "h")
                .build();
            assert!(
                matches!(err, Err(KernelError::FaultInjected(s)) if s == site),
                "{site:?} must surface"
            );
            assert_eq!(kernel.live_procs(), procs, "{site:?}: no leaked process");
            assert_eq!(kernel.free().used, used, "{site:?}: no leaked charges");
            // Transient: an identical retry succeeds.
            let g = ProcessImage::spawn(&kernel, "f", Kernel::ROOT_CGROUP)
                .text("/bin/f", 1 << 20, 512 << 10, "f")
                .heap(256 << 10, "h")
                .build()
                .unwrap();
            g.exit(0).unwrap();
        }
    }

    #[test]
    fn attach_guard_does_not_own_the_process() {
        let kernel = boot();
        let pid = kernel.spawn("daemon", Kernel::ROOT_CGROUP).unwrap();
        {
            let g = ProcessImage::attach(&kernel, pid).heap(128 << 10, "meta").build().unwrap();
            assert_eq!(g.pid(), pid);
        }
        assert_eq!(kernel.proc_state(pid).unwrap(), ProcState::Running);
        kernel.exit(pid, 0).unwrap();
        kernel.reap(pid).unwrap();
    }

    #[test]
    fn detach_hands_over_ownership() {
        let kernel = boot();
        let pid = {
            let g = ProcessImage::spawn(&kernel, "daemon", Kernel::ROOT_CGROUP)
                .heap(64 << 10, "h")
                .build()
                .unwrap();
            g.detach()
        };
        assert_eq!(kernel.proc_state(pid).unwrap(), ProcState::Running);
        kernel.exit(pid, 0).unwrap();
        kernel.reap(pid).unwrap();
    }

    #[test]
    fn private_text_is_always_cold() {
        let kernel = boot();
        kernel.ensure_file("/bin/p", FileContent::Synthetic(1 << 20)).unwrap();
        for _ in 0..2 {
            let g = ProcessImage::spawn(&kernel, "p", Kernel::ROOT_CGROUP)
                .text_private("/bin/p", 1 << 20, 512 << 10, "p")
                .build()
                .unwrap();
            assert_eq!(g.cold_read(), Some(512 << 10));
            g.exit(0).unwrap();
        }
    }

    #[test]
    fn rollback_unmaps_what_a_failed_stage_mapped_and_nothing_older() {
        let kernel = boot();
        let f = kernel.ensure_file("/lib/e.so", FileContent::Synthetic(1 << 20)).unwrap();
        let pid = kernel.spawn("host", Kernel::ROOT_CGROUP).unwrap();
        charge_anon(&kernel, pid, 64 << 10, "older").unwrap();
        let (rss, used) = (kernel.proc_rss(pid).unwrap(), kernel.free().used);
        let stage = |fail: bool| -> KernelResult<()> {
            let rollback = Rollback::arm(&kernel, pid)?;
            map_shared(&kernel, pid, f, 1 << 20, 512 << 10, "lib")?;
            charge_anon(&kernel, pid, 128 << 10, "heap")?;
            if fail {
                return Err(crate::KernelError::InvalidState("stage failed".into()));
            }
            rollback.commit();
            Ok(())
        };
        assert!(stage(true).is_err());
        assert_eq!(kernel.proc_rss(pid).unwrap(), rss, "only the stage's mappings went");
        assert_eq!(kernel.free().used, used, "anon and page-table charges returned");
        stage(false).unwrap();
        assert_eq!(kernel.proc_rss(pid).unwrap(), rss + (512 << 10) + (128 << 10));
        // A process the failed charge itself killed is not an error.
        kernel.exit(pid, 137).unwrap();
        drop(Rollback { kernel: &kernel, pid, mark: MappingId(0) });
    }

    #[test]
    fn guest_cpu_helpers_are_inert_without_a_quota_and_scale_with_one() {
        let kernel = boot();
        let cg = kernel.cgroup_create(Kernel::ROOT_CGROUP, "pod").unwrap();
        let pid = kernel.spawn("guest", cg).unwrap();
        let budget = Duration::from_millis(40);
        let mut trace = StepTrace::new();
        assert_eq!(watchdog_ticks(&kernel, pid, budget, 4_000_000).unwrap(), 10);
        assert_eq!(watchdog_ticks(&kernel, pid, Duration::ZERO, 4_000_000).unwrap(), 1);
        assert_eq!(charge_cpu(&kernel, pid, budget, &mut trace).unwrap(), Duration::ZERO);
        assert!(trace.is_empty(), "no quota, no step");

        kernel.cgroup_set_cpu_max(cg, Some((25_000_000, 100_000_000))).unwrap();
        assert_eq!(watchdog_ticks(&kernel, pid, budget, 4_000_000).unwrap(), 2, "a quarter");
        let sleep = charge_cpu(&kernel, pid, budget, &mut trace).unwrap();
        assert_eq!(sleep, Duration::from_millis(120));
        assert_eq!(trace.entries(), &[(Phase::Exec, Step::Io(sleep))]);
        assert_eq!(kernel.cgroup_stats(cg).unwrap().nr_cpu_throttled, 1);
    }

    #[test]
    fn map_cow_dirties_pages_privately() {
        let kernel = boot();
        let f = kernel.ensure_file("/cache/a.cwasm", FileContent::Synthetic(256 << 10)).unwrap();
        let pid = kernel.spawn("eng", Kernel::ROOT_CGROUP).unwrap();
        let cold = map_cow(&kernel, pid, f, 256 << 10, "code-cache").unwrap();
        assert_eq!(cold, Some(256 << 10));
        assert_eq!(kernel.proc_rss(pid).unwrap(), 256 << 10);
        kernel.exit(pid, 0).unwrap();
        kernel.reap(pid).unwrap();
    }
}
