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
//! use simkernel::{Kernel, KernelConfig, MapKind};
//!
//! let kernel = Kernel::boot(KernelConfig::default());
//! let cg = kernel.cgroup_create(Kernel::ROOT_CGROUP, "pod-a").unwrap();
//! let pid = kernel.spawn("svc", cg).unwrap();
//! let map = kernel.mmap(pid, 2 << 20, MapKind::AnonPrivate).unwrap();
//! kernel.touch(pid, map, 2 << 20).unwrap();
//! assert_eq!(kernel.cgroup_stat(cg).unwrap().anon_bytes, 2 << 20);
//! let free = kernel.free();
//! assert!(free.used > 0);
//! ```

pub mod cgroup;
pub mod des;
pub mod error;
pub mod faults;
pub mod image;
pub mod kernel;
pub mod lifecycle;
pub mod mem;
pub mod proc;
pub mod prop;
pub mod replay;
pub mod rng;
pub mod time;
pub mod trace;
pub mod vfs;

pub use cgroup::{CgroupId, CgroupStats, MemStat, IO_WINDOW_NS};
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
