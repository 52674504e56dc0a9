//! # oci-spec-lite — OCI runtime/image types, bundles, and JSON
//!
//! The Open Container Initiative layer of the reproduction:
//!
//! * [`json`] — a from-scratch JSON parser/serializer (`serde_json` is not
//!   in the offline dependency set), with deterministic output: the generic
//!   `Value` tree and the string writers;
//! * [`spec`] — the runtime-spec subset (`config.json`): process, root,
//!   mounts, namespaces, cgroups path, memory limits, annotations —
//!   including the `module.wasm.image/variant` annotation that routes a
//!   container to crun's Wasm handler — with its writer straight on the
//!   string writers;
//! * [`image`] — image store with overlay-style layer sharing;
//! * [`bundle`] — bundle creation: a `config.json` of the serialized
//!   spec's size written to and read back through the simulated
//!   filesystem; a read returns the spec the bundle kept.

pub(crate) mod bundle;
pub(crate) mod image;
pub(crate) mod json;
pub(crate) mod spec;

pub use bundle::Bundle;
pub use image::{Image, ImageBuilder, ImageStore};
pub use json::{parse as parse_json, Value};
pub use spec::{
    ProcessSpec, RuntimeSpec, BROWNOUT_ANNOTATION, INSTANTIATE_CHURN_ANNOTATION,
    IO_CHURN_ANNOTATION, WASM_VARIANT_ANNOTATION, WATCHDOG_BUDGET_ANNOTATION,
};
