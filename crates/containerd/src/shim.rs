//! containerd shims: the per-pod intermediary processes.
//!
//! Two families exist in the paper's Figure 1:
//!
//! * **containerd-shim-runc-v2** — drives a low-level OCI runtime (crun,
//!   runC, youki). The shim is a resident Go process per pod living in the
//!   *system* cgroup: its memory is invisible to the pod's metrics-server
//!   reading but fully visible to `free` — one of the structural reasons
//!   the two observers disagree.
//! * **runwasi shims** (containerd-shim-wasmtime/-wasmer/-wasmedge) — embed
//!   the Wasm engine directly: the shim process *is* the container process,
//!   lives in the pod cgroup, and needs no low-level runtime at all.
//!
//! Shim spawn happens inside the containerd task-service critical section
//! (fork/exec plus the ttrpc handshake); with fat Wasm shim binaries this
//! section is what makes runwasi scale poorly to 400 pods (Fig. 9).

use engines::EngineKind;
use simkernel::{
    CgroupId, Duration, Kernel, KernelResult, Phase, Pid, ProcGuard, ProcessImage, Step, StepTrace,
};

/// Characteristics of a shim binary.
#[derive(Debug, Clone)]
pub struct ShimProfile {
    pub name: &'static str,
    pub binary_path: &'static str,
    pub binary_size: u64,
    pub binary_resident_fraction: f64,
    /// Private heap of the resident shim process (Go/Rust runtime, ttrpc).
    pub private_base: u64,
    /// CPU inside the daemon's task-service critical section: fork/exec of
    /// the shim plus the ttrpc handshake. Scales with binary size.
    pub spawn_serialized: Duration,
    /// CPU outside the lock (shim's own init).
    pub init: Duration,
}

/// containerd-shim-runc-v2 (drives crun/runC/youki).
pub static SHIM_RUNC_V2: ShimProfile = ShimProfile {
    name: "containerd-shim-runc-v2",
    binary_path: "/usr/bin/containerd-shim-runc-v2",
    binary_size: 8 << 20,
    binary_resident_fraction: 0.45,
    // Most of the Go shim's RSS is binary text shared with the other shims
    // on the node; its truly private pages are small.
    private_base: 460 << 10,
    spawn_serialized: Duration::from_micros(8_000),
    init: Duration::from_micros(2_500),
};

/// runwasi: containerd-shim-wasmtime-v1.
pub static SHIM_WASMTIME: ShimProfile = ShimProfile {
    name: "containerd-shim-wasmtime",
    binary_path: "/usr/bin/containerd-shim-wasmtime-v1",
    binary_size: 34 << 20,
    binary_resident_fraction: 0.35,
    private_base: 1_500 << 10,
    spawn_serialized: Duration::from_micros(32_000),
    init: Duration::from_micros(3_000),
};

/// runwasi: containerd-shim-wasmer-v1.
pub static SHIM_WASMER: ShimProfile = ShimProfile {
    name: "containerd-shim-wasmer",
    binary_path: "/usr/bin/containerd-shim-wasmer-v1",
    binary_size: 52 << 20,
    binary_resident_fraction: 0.35,
    private_base: 2_600 << 10,
    spawn_serialized: Duration::from_micros(36_000),
    init: Duration::from_micros(3_600),
};

/// runwasi: containerd-shim-wasmedge-v1.
pub static SHIM_WASMEDGE: ShimProfile = ShimProfile {
    name: "containerd-shim-wasmedge",
    binary_path: "/usr/bin/containerd-shim-wasmedge-v1",
    binary_size: 26 << 20,
    binary_resident_fraction: 0.35,
    private_base: 1_900 << 10,
    spawn_serialized: Duration::from_micros(29_000),
    init: Duration::from_micros(2_400),
};

/// The shim profile for a runwasi engine. `None` for WAMR: no upstream
/// runwasi WAMR shim exists — the paper's point is precisely that WAMR goes
/// into crun instead.
pub fn runwasi_shim(engine: EngineKind) -> Option<&'static ShimProfile> {
    match engine {
        EngineKind::Wasmtime => Some(&SHIM_WASMTIME),
        EngineKind::Wasmer => Some(&SHIM_WASMER),
        EngineKind::WasmEdge => Some(&SHIM_WASMEDGE),
        EngineKind::Wamr => None,
    }
}

/// All shim profiles (for installation).
pub fn all_shims() -> [&'static ShimProfile; 4] {
    [&SHIM_RUNC_V2, &SHIM_WASMTIME, &SHIM_WASMER, &SHIM_WASMEDGE]
}

/// Install the shim binaries into the VFS. Idempotent.
pub fn install_shims(kernel: &Kernel) -> KernelResult<()> {
    for shim in all_shims() {
        kernel.ensure_file(
            shim.binary_path,
            simkernel::vfs::FileContent::Synthetic(shim.binary_size),
        )?;
    }
    Ok(())
}

/// A live shim process, registered in a sandbox that tears it down.
#[derive(Debug, Clone)]
pub struct Shim {
    pub pid: Pid,
    pub profile: &'static ShimProfile,
}

/// Spawn a shim process into `cgroup`, charging its binary (shared) and
/// private base, and recording its spawn steps under [`Phase::Sandbox`].
/// `task_lock` is the daemon's task-service lock; the serialized section
/// runs inside it.
///
/// Returns the owning [`ProcGuard`]: until the caller commits the sandbox
/// (detaching the guard into a [`Shim`]), any failure path drops the guard
/// and the shim is exited and reaped — a half-built sandbox never leaks its
/// shim process.
pub fn spawn_shim<'k>(
    kernel: &'k Kernel,
    profile: &'static ShimProfile,
    cgroup: CgroupId,
    task_lock: simkernel::LockId,
    trace: &mut StepTrace,
) -> KernelResult<ProcGuard<'k>> {
    let resident = (profile.binary_size as f64 * profile.binary_resident_fraction) as u64;
    let shim = ProcessImage::spawn(kernel, profile.name, cgroup)
        .text(profile.binary_path, profile.binary_size, resident, profile.name)
        .heap(profile.private_base, "shim-heap")
        .build()?;

    trace.push(Phase::Sandbox, Step::Acquire(task_lock));
    trace.push(Phase::Sandbox, Step::Cpu(profile.spawn_serialized));
    trace.push(Phase::Sandbox, Step::Release(task_lock));
    if let Some(io) = shim.cold_read_step() {
        trace.push(Phase::Sandbox, io);
    }
    trace.push(Phase::Sandbox, Step::Cpu(profile.init));
    Ok(shim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::{KernelConfig, LockId};

    #[test]
    fn wasm_shims_are_fatter_than_runc_shim() {
        for shim in [&SHIM_WASMTIME, &SHIM_WASMER, &SHIM_WASMEDGE] {
            assert!(shim.binary_size > SHIM_RUNC_V2.binary_size * 3);
            assert!(shim.spawn_serialized > SHIM_RUNC_V2.spawn_serialized);
        }
        assert!(SHIM_WASMER.binary_size > SHIM_WASMTIME.binary_size);
        assert!(SHIM_WASMTIME.binary_size > SHIM_WASMEDGE.binary_size);
    }

    #[test]
    fn spawn_charges_and_steps() {
        let kernel = Kernel::boot(KernelConfig::default());
        install_shims(&kernel).unwrap();
        let cg = kernel.cgroup_create(Kernel::ROOT_CGROUP, "pod").unwrap();
        let mut trace = StepTrace::new();
        let shim = spawn_shim(&kernel, &SHIM_WASMTIME, cg, LockId(1), &mut trace).unwrap();
        assert!(kernel.proc_rss(shim.pid()).unwrap() > SHIM_WASMTIME.private_base);
        assert!(trace.steps().iter().any(|s| matches!(s, Step::Acquire(_))));
        assert!(trace.steps().iter().any(|s| matches!(s, Step::Io(_))), "first spawn is cold");
        assert!(
            trace.entries().iter().all(|(p, _)| *p == Phase::Sandbox),
            "shim spawn is sandbox-phase work"
        );
        let _shim = Shim { pid: shim.detach(), profile: &SHIM_WASMTIME };
        let mut trace2 = StepTrace::new();
        let warm = spawn_shim(&kernel, &SHIM_WASMTIME, cg, LockId(1), &mut trace2).unwrap();
        assert!(!trace2.steps().iter().any(|s| matches!(s, Step::Io(_))), "second spawn is warm");
        warm.exit(0).unwrap();
    }

    #[test]
    fn dropped_guard_reaps_the_shim() {
        let kernel = Kernel::boot(KernelConfig::default());
        install_shims(&kernel).unwrap();
        let cg = kernel.cgroup_create(Kernel::ROOT_CGROUP, "pod").unwrap();
        let procs = kernel.live_procs();
        {
            let mut trace = StepTrace::new();
            let _guard = spawn_shim(&kernel, &SHIM_RUNC_V2, cg, LockId(1), &mut trace).unwrap();
            assert_eq!(kernel.live_procs(), procs + 1);
        }
        assert_eq!(kernel.live_procs(), procs, "abandoned sandbox reaps its shim");
    }

    #[test]
    fn runwasi_mapping() {
        assert_eq!(runwasi_shim(EngineKind::Wasmtime).unwrap().name, "containerd-shim-wasmtime");
        assert_eq!(runwasi_shim(EngineKind::Wasmer).unwrap().name, "containerd-shim-wasmer");
        assert_eq!(runwasi_shim(EngineKind::WasmEdge).unwrap().name, "containerd-shim-wasmedge");
        assert!(runwasi_shim(EngineKind::Wamr).is_none(), "no upstream WAMR shim");
    }
}
