//! # oci-spec-lite — OCI runtime/image types, bundles, and JSON
//!
//! The Open Container Initiative layer of the reproduction:
//!
//! * [`json`] — a from-scratch JSON parser/serializer (`serde_json` is not
//!   in the offline dependency set), with deterministic output: one pull
//!   tokenizer, and the generic `Value` tree built on it;
//! * [`spec`] — the runtime-spec subset (`config.json`): process, root,
//!   mounts, namespaces, cgroups path, memory limits, annotations —
//!   including the `module.wasm.image/variant` annotation that routes a
//!   container to crun's Wasm handler — with its codec straight on the
//!   tokenizer;
//! * [`image`] — image store with overlay-style layer sharing;
//! * [`bundle`] — bundle creation: real `config.json` bytes written to and
//!   read back from the simulated filesystem; a read of the bytes a bundle
//!   wrote returns the spec it kept instead of a parse.

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
