//! # wasi-sys — a WASI preview-1 subset over the simulated kernel
//!
//! Implements the system-interface surface the paper's integration work
//! needed (§III-C "WASI Argument Handling"): command-line arguments,
//! environment variables, pre-opened directories, stdio, clock, randomness
//! and `proc_exit` — enough to run containerized WASI microservices.
//!
//! File access resolves against the [`simkernel`] VFS **on behalf of the
//! container process**, so page-cache faults from `path_open`/`fd_read` are
//! charged to the container's cgroup exactly as they would be on Linux.
//!
//! ```
//! use std::sync::Arc;
//! use simkernel::{Kernel, KernelConfig};
//! use wasi_sys::WasiCtx;
//! use wasm_core::{Instance, InstanceConfig, ModuleBuilder, FuncType, ValType};
//!
//! // A module that writes "hi\n" to stdout via fd_write.
//! let mut b = ModuleBuilder::new();
//! let fd_write = b.import_func(
//!     "wasi_snapshot_preview1",
//!     "fd_write",
//!     FuncType::new(vec![ValType::I32; 4], vec![ValType::I32]),
//! );
//! let mem = b.memory(1, None);
//! b.export_memory("memory", mem);
//! b.data(0, &b"hi\n"[..]);
//! b.data(8, &[0u8, 0, 0, 0, 3, 0, 0, 0][..]); // iovec { ptr: 0, len: 3 }
//! let start = b.func(FuncType::new(vec![], vec![]), |f| {
//!     f.i32_const(1).i32_const(8).i32_const(1).i32_const(16).call(fd_write).drop_();
//! });
//! b.export_func("_start", start);
//!
//! let kernel = Kernel::boot(KernelConfig::default());
//! let pid = kernel.spawn("svc", Kernel::ROOT_CGROUP).unwrap();
//! let ctx = WasiCtx::new(kernel, pid).arg("svc");
//! let stdout = ctx.stdout_handle();
//! let mut inst = Instance::instantiate(
//!     Arc::new(b.build()),
//!     ctx.into_imports(),
//!     InstanceConfig::default(),
//! ).unwrap();
//! inst.run_start().unwrap();
//! assert_eq!(&*stdout.borrow(), b"hi\n");
//! ```

pub mod ctx;
pub mod errno;
mod host;

pub use ctx::{StdioHandle, WasiCtx, WorldMark};
pub use errno::Errno;
