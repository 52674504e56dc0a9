//! # containerd-sim — high-level runtime: daemon, shims, CRI
//!
//! The containerd layer from the paper's Figure 1: a resident daemon
//! process exposing the Container Runtime Interface to kubelet, spawning a
//! shim per pod (serialized on the task-service lock), and routing
//! containers either through `containerd-shim-runc-v2` to a low-level OCI
//! runtime (crun / runC — including the paper's WAMR-crun) or directly to a
//! runwasi shim embedding a Wasm engine.

pub(crate) mod cri;
pub(crate) mod sandbox_api;
pub(crate) mod shim;

pub use cri::{Containerd, RuntimeClass};
pub use sandbox_api::WasmSandboxer;
