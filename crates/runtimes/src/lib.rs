//! # container-runtimes — low-level OCI runtimes over the simulated kernel
//!
//! Implements the three low-level runtimes the paper discusses:
//!
//! * **crun** — a small C binary; the runtime the paper extends with WAMR.
//!   Its *handler* mechanism (mirrored here as [`handler::ContainerHandler`])
//!   dispatches containers whose spec requests the Wasm variant annotation
//!   or whose entrypoint is a `.wasm` file to an embedded language runtime
//!   executing *inside the container process* — no extra process, which is
//!   the core of the paper's memory savings.
//! * **runC** — the Kubernetes default: a much larger Go binary with a
//!   correspondingly larger transient footprint and slower exec.
//! * **youki** — the Rust runtime, between the two.
//!
//! A [`runtime::LowLevelRuntime`] executes the OCI lifecycle — `create`
//! (read `config.json` from the VFS and charge its parse by size, build
//! the container cgroup, spawn the init process, unshare namespaces, apply
//! limits) and `start` (dispatch to the first matching handler) — charging
//! all memory to the right cgroups and emitting DES latency steps.

pub mod handler;
pub mod profile;
pub(crate) mod runtime;

pub use profile::RuntimeProfile;
pub use runtime::{Container, ContainerState, LowLevelRuntime, Resident, RuntimeCtx};
