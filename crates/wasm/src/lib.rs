//! # wasm-core — a from-scratch WebAssembly (MVP) implementation
//!
//! This crate is the execution substrate shared by every simulated Wasm
//! engine in the reproduction (WAMR, Wasmtime, Wasmer, WasmEdge profiles).
//! It implements the WebAssembly core specification's MVP feature set:
//!
//! * the **binary format**: LEB128, all MVP sections, decoding
//!   ([`decode`]) and encoding ([`encode`]) with full round-trip fidelity;
//! * a **module builder** ([`builder`]) used as our "compiler" — the
//!   workloads crate assembles the paper's minimal-C-microservice-equivalent
//!   modules programmatically, since no offline C toolchain exists here;
//! * a **validator** ([`validate`]) implementing the spec's type-checking
//!   algorithm with value/control stacks;
//! * two execution tiers whose *memory/startup trade-off is the paper's
//!   subject*:
//!   [`interp`] executes **in place**, dispatching on the raw code bytes
//!   with only a small lazily-built control side-table (how WAMR's classic
//!   interpreter stays tiny), while [`lowered`] first compiles every
//!   function into a
//!   wide, jump-resolved internal representation (how JIT/AOT engines like
//!   Wasmtime trade memory for speed);
//! * [`instance`]: linking, imports/exports, start function, host functions
//!   (used by the `wasi-sys` crate), linear [`memory`], tables, globals.
//!
//! Both tiers are exercised against each other by property tests; the
//! engines crate charges their measured allocations to the simulated kernel.

// Both dispatch loops index guest-controlled offsets into slot vectors,
// code and linear memory; their speed is not to be bought with unchecked
// indexing.
#![forbid(unsafe_code)]

pub mod builder;
pub mod cache;
pub mod decode;
pub mod encode;
pub mod error;
pub mod instance;
pub mod instr;
pub mod interp;
pub mod leb128;
pub mod lowered;
pub mod memory;
pub mod module;
pub(crate) mod numeric;
pub mod types;
pub mod validate;
pub mod values;

pub use builder::{FuncBuilder, ModuleBuilder};
pub use cache::{ArtifactCache, CacheStats};
pub use decode::decode_module;
pub use encode::encode_module;
pub use error::{DecodeError, ValidationError};
pub use instance::{
    EpochClock, EpochConfig, ExecStats, ExecTier, HostFunc, Imports, Instance, InstanceConfig,
};
pub use instr::Instruction;
pub use memory::{LinearMemory, WASM_PAGE_SIZE};
pub use module::{FuncBody, Module};
pub use types::{FuncType, GlobalType, Limits, ValType};
pub use validate::validate_module;
pub use values::{Trap, Value};
