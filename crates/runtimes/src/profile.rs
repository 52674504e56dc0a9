//! Low-level runtime profiles: binary sizes and lifecycle costs.
//!
//! Sizes reflect the released binaries (crun is a ~0.5 MB C binary, runc a
//! ~14 MB static Go binary, youki a ~6 MB Rust binary); lifecycle costs are
//! calibrated to land the end-to-end startup figures in the paper's bands.

use simkernel::Duration;

/// Characteristics of one low-level runtime: numbers and static names,
/// so a copy allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeProfile {
    pub(crate) name: &'static str,
    /// Version as in the paper's Table I (crun/youki are not listed there;
    /// contemporary releases are used).
    pub version: &'static str,
    pub(crate) binary_path: &'static str,
    pub(crate) binary_size: u64,
    /// Fraction of the binary resident while running.
    pub(crate) binary_resident_fraction: f64,
    /// Private heap of the runtime process during create/start (the Go
    /// runtime arena for runc; a small arena for crun).
    pub(crate) startup_heap: u64,
    /// Residual private bytes the container init process keeps from the
    /// runtime after start (crun's in-process handlers keep crun resident).
    pub(crate) container_residual: u64,
    /// Time to exec the runtime binary (after the first, page-cached, load).
    pub(crate) exec: Duration,
    /// Time to set up the namespaces and rootfs pivot.
    pub(crate) create_sandbox: Duration,
    /// Time to create and configure the container cgroup.
    pub(crate) cgroup_setup: Duration,
    /// Config parse cost per KiB of `config.json`.
    pub(crate) parse_ns_per_kib: u64,
    /// Non-contending latency per lifecycle operation: console FIFO setup,
    /// pidfile waits, state-file writes (`crun create` takes tens of ms on
    /// real systems).
    pub(crate) op_io: Duration,
}

/// crun: the lightweight C runtime the paper builds on.
pub static CRUN: RuntimeProfile = RuntimeProfile {
    name: "crun",
    version: "1.15",
    binary_path: "/usr/bin/crun",
    binary_size: 480 << 10,
    binary_resident_fraction: 0.85,
    startup_heap: 260 << 10,
    container_residual: 96 << 10,
    exec: Duration::from_micros(900),
    create_sandbox: Duration::from_micros(1_600),
    cgroup_setup: Duration::from_micros(700),
    parse_ns_per_kib: 9_000,
    op_io: Duration::from_micros(34_000),
};

/// runC: the Kubernetes default (Go).
pub static RUNC: RuntimeProfile = RuntimeProfile {
    name: "runc",
    version: "1.6.31",
    binary_path: "/usr/bin/runc",
    binary_size: 14 << 20,
    binary_resident_fraction: 0.4,
    startup_heap: 9 << 20,
    container_residual: 0,
    exec: Duration::from_micros(5_500),
    create_sandbox: Duration::from_micros(2_100),
    cgroup_setup: Duration::from_micros(900),
    parse_ns_per_kib: 14_000,
    op_io: Duration::from_micros(52_000),
};

/// youki: the Rust runtime.
pub static YOUKI: RuntimeProfile = RuntimeProfile {
    name: "youki",
    version: "0.3.3",
    binary_path: "/usr/bin/youki",
    binary_size: 6 << 20,
    binary_resident_fraction: 0.55,
    startup_heap: 1_600 << 10,
    container_residual: 210 << 10,
    exec: Duration::from_micros(1_900),
    create_sandbox: Duration::from_micros(1_800),
    cgroup_setup: Duration::from_micros(750),
    parse_ns_per_kib: 10_000,
    op_io: Duration::from_micros(40_000),
};

impl RuntimeProfile {
    pub(crate) fn binary_resident(&self) -> u64 {
        (self.binary_size as f64 * self.binary_resident_fraction) as u64
    }
}

/// Install the runtime binaries into the VFS. Idempotent.
pub fn install_runtimes(kernel: &simkernel::Kernel) -> simkernel::KernelResult<()> {
    for p in [&CRUN, &RUNC, &YOUKI] {
        kernel.ensure_file(p.binary_path, simkernel::vfs::FileContent::Synthetic(p.binary_size))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crun_is_the_smallest() {
        assert!(CRUN.binary_size < YOUKI.binary_size);
        assert!(YOUKI.binary_size < RUNC.binary_size);
        assert!(CRUN.startup_heap < YOUKI.startup_heap);
        assert!(YOUKI.startup_heap < RUNC.startup_heap);
        assert!(CRUN.exec < YOUKI.exec && YOUKI.exec < RUNC.exec);
    }

    #[test]
    fn install_is_idempotent() {
        let k = simkernel::Kernel::boot(simkernel::KernelConfig::default());
        install_runtimes(&k).unwrap();
        install_runtimes(&k).unwrap();
        assert_eq!(k.file_size(k.lookup("/usr/bin/crun").unwrap()).unwrap(), 480 << 10);
    }
}
