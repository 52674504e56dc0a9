//! # memwasm — Memory Efficient WebAssembly Containers
//!
//! A complete, from-scratch Rust reproduction of *Memory Efficient
//! WebAssembly Containers* (IPPS 2025): the WAMR-in-crun integration, every
//! substrate it runs on, and the full evaluation harness.
//!
//! ## The stack (bottom-up)
//!
//! | layer | crate | provides |
//! |---|---|---|
//! | kernel | [`simkernel`] | processes, page-level memory accounting, cgroups v2, page cache, `free(1)`, discrete-event clock |
//! | Wasm core | [`wasm_core`] | binary format, validator, in-place interpreter, lowered (JIT-style) executor |
//! | WASI | [`wasi_sys`] | args/env/preopens/stdio over the simulated VFS |
//! | engines | [`engines`] | WAMR / Wasmtime / Wasmer / WasmEdge profiles over the shared core |
//! | OCI | [`oci_spec_lite`] | runtime/image specs, bundles, a from-scratch JSON |
//! | runtimes | [`container_runtimes`] | crun / runC / youki lifecycles + the handler mechanism |
//! | **contribution** | [`wamr_crun`] | WAMR embedded in crun: dlopen sharing, WASI plumbing, sandboxed in-process execution |
//! | containerd | [`containerd_sim`] | daemon, CRI, runc-v2 shim, runwasi shims |
//! | Kubernetes | [`k8s_sim`] | kubelet (500-pod extension), pod lifecycle, metrics-server |
//! | baseline | [`pyrt`] | a mini-Python interpreter with CPython-scale footprint |
//! | workloads | [`workloads`] | the microservice module/script generators |
//! | experiments | [`harness`] | per-figure drivers and the paper's claims as executable checks |
//!
//! ## Quickstart
//!
//! ```
//! use memwasm::harness::{measure_memory, Config, Workload};
//!
//! let sample = measure_memory(Config::WamrCrun, 4, &Workload::default()).unwrap();
//! assert!(sample.metrics_avg > 0);
//! ```
//!
//! See `examples/` for runnable scenarios, `cargo run -p harness --bin
//! figures -- <name>` to regenerate each table and figure, and
//! `benchmark/` for what doing so costs on the host.

pub use container_runtimes;
pub use containerd_sim;
pub use engines;
pub use harness;
pub use k8s_sim;
pub use oci_spec_lite;
pub use pyrt;
pub use simkernel;
pub use wamr_crun;
pub use wasi_sys;
pub use wasm_core;
pub use workloads;
