//! # engines — the four WebAssembly runtime profiles
//!
//! The paper benchmarks four engines — WAMR 2.1.0, Wasmtime 23.0.1,
//! Wasmer 4.3.5 and WasmEdge 0.14.0 — embedded in container runtimes. Here
//! each engine is a [`profile::EngineProfile`] over the **same** real Wasm
//! core (`wasm-core`), differing in the design choices that drive the
//! paper's results:
//!
//! * **execution tier** — WAMR interprets bytecode in place (tiny
//!   per-instance footprint); the others eagerly lower every function to
//!   wide internal code (measured, real bytes) plus codegen metadata;
//! * **library size** — the engine `.so` mapped shared into each container
//!   process, resident **once** machine-wide in the page cache (1.2 MB for
//!   WAMR versus 22–38 MB for the JIT engines);
//! * **runtime baseline** — private heap the engine allocates at init;
//! * **code cache** — Wasmtime's content-addressed on-disk cache, which
//!   skips compile *time* (but not private code memory) for repeated
//!   modules — the mechanism behind the paper's Fig. 9 crossover;
//! * **cost model** — init/compile/validate/execute latencies that become
//!   DES steps in the startup programs.
//!
//! A guest starts through two stages in [`exec`]: [`load_engine`] once per
//! process and [`run_module`] once per guest (the real work: decode →
//! validate → (compile) → instantiate → run under WASI), charging every
//! byte to the simulated kernel and emitting the latency step list.
//! [`execute_wasm_opts`] — load, then run — is what the container runtimes
//! and runwasi shims call.

pub mod exec;
pub mod profile;

pub use exec::{
    execute_guest, execute_wasm_opts, guests, install_engines, load_engine, run_module, Embedding,
    EngineRun, ExecOptions, GuestInputs, GuestKey, GuestOutcome, LoadedEngine, WasiSpec,
    EPOCH_TICK_INSTRS,
};
pub use profile::{EngineKind, EngineProfile};
