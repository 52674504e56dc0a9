//! # wasm-core — a from-scratch WebAssembly engine for the Wasm the guests run
//!
//! This crate is the execution substrate shared by every simulated Wasm
//! engine in the reproduction (WAMR, Wasmtime, Wasmer, WasmEdge profiles).
//! It implements the part of the WebAssembly core specification that the
//! guests reach at run time, and nothing else:
//!
//! * 23 opcodes — `block`, `loop`, `end`, `br`, `br_if`, `call`, `drop`,
//!   `local.get`, `local.set`, `i64.load`, `i32.store`, `memory.grow`,
//!   `i32.const`, `i64.const`, `i32.eqz`, `i32.eq`, `i64.ge_u`, `i32.add`,
//!   `i32.sub`, `i32.mul`, `i32.xor`, `i32.shr_u` and `i32.rotl`;
//! * the type, import, function, memory, export, code and data sections;
//! * the empty block type, the `i32` and `i64` value types, function
//!   imports, and function and memory exports.
//!
//! A module using anything else fails [`decode_module`] or, for a function
//! body, [`validate_module`] with a typed error naming the byte
//! ([`DecodeError::BadOpcode`], `UnknownSection`, `BadValType`,
//! `BadBlockType`, `BadKind`); there is no switch that brings the rest of
//! the MVP back. The set is a run-time census of every binary, example,
//! doc test and benchmark workload (the recipe is in the repository's
//! verify notes). A new guest that needs a construct adds it back with its
//! decode, validate and both-tier arms and its tests. The bounds checks,
//! fuel, the epoch watchdog and the call-depth limit are safety code and
//! do not depend on the census.
//!
//! * the **binary format**: LEB128, decoding ([`decode`]) and encoding
//!   ([`encode`]) with round-trip fidelity;
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
//! * [`instance`]: linking, imports/exports, host functions (used by the
//!   `wasi-sys` crate) and linear [`memory`].
//!
//! Both tiers are exercised against each other by property tests; the
//! engines crate charges their measured allocations to the simulated kernel.

// Both dispatch loops index guest-controlled offsets into slot vectors,
// code and linear memory; their speed is not to be bought with unchecked
// indexing.
#![forbid(unsafe_code)]

pub(crate) mod builder;
pub mod cache;
pub(crate) mod decode;
pub(crate) mod encode;
pub(crate) mod error;
pub mod instance;
pub mod instr;
pub mod interp;
pub mod leb128;
pub mod lowered;
pub(crate) mod memory;
pub mod module;
pub mod types;
pub(crate) mod validate;
pub(crate) mod values;

pub use builder::{demo_wasi_module, FuncBuilder, ModuleBuilder};
pub use cache::ArtifactCache;
pub use decode::decode_module;
pub use encode::encode_module;
pub use error::{DecodeError, ValidationError};
pub use instance::{
    EpochClock, EpochConfig, ExecStats, ExecTier, Imports, Instance, InstanceConfig,
};
pub use instr::Instruction;
pub use memory::{LinearMemory, WASM_PAGE_SIZE};
pub use module::Module;
pub use types::{FuncType, ValType};
pub use validate::validate_module;
pub use values::{Trap, Value};
