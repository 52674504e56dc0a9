//! # wasi-sys — the WASI preview-1 functions the guests call
//!
//! Serves the system-interface surface the paper's integration work
//! needed (§III-C "WASI Argument Handling") and no more: seven functions.
//! `args_sizes_get`, `args_get`, `environ_sizes_get`, `environ_get` and
//! `proc_exit` are the process interface; `fd_write` appends to the
//! stdout or stderr capture for fd 1 or 2 and is `EBADF` for every other
//! fd; `clock_time_get` reads the [`simkernel`] clock, the one function
//! that reaches the kernel, and so sets the context's *observed the
//! world* mark.
//!
//! A module importing any other preview-1 function fails instantiation
//! with `InstantiateError::MissingImport` naming it. There are no files,
//! preopens or fds beyond stdio: a guest that needs files adds `path_open`
//! back, with its fds charged to the process as kernel objects.
//!
//! ```
//! use std::sync::Arc;
//! use simkernel::{Kernel, KernelConfig, ProcessImage};
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
//! let pid = ProcessImage::spawn(&kernel, "svc", Kernel::ROOT_CGROUP).build().unwrap().detach();
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

pub(crate) mod ctx;
pub(crate) mod errno;
mod host;

pub use ctx::WasiCtx;
