//! # workloads — the benchmark applications
//!
//! The paper's evaluation runs "a minimal C application corresponding to a
//! very small microservice" (§IV-A) in every container, plus Python
//! equivalents for the baseline comparison. No C toolchain exists in this
//! offline reproduction, so the Wasm modules are assembled programmatically
//! with `wasm-core`'s builder into **real binaries** that the engines
//! decode, validate and execute. Knobs:
//!
//! * `memory_pages` — minimum linear memory (wasi-libc reserves data +
//!   stack + malloc arena; ~2.5 MB for a small C program);
//! * `code_padding_funcs` — additional real (validated, compiled) functions
//!   modeling the code a C program links in (libc pieces); this is what
//!   eager compilers chew on;
//! * `loop_iterations` — the bounded startup-work slice the service
//!   performs before reaching its ready state. Engine `exec_ns_per_instr`
//!   values fold in a work-representation scale so this slice stands for
//!   the paper's full workload.

pub(crate) mod module;
pub(crate) mod python;

pub use module::{
    balloon_module, hung_service_module, microservice_module, microservice_module_bytes,
    MicroserviceConfig,
};
pub use python::{python_microservice_script, PythonScriptConfig};

use oci_spec_lite::ImageBuilder;

/// The Wasm microservice image (annotated for Wasm handler dispatch).
/// Configs with a nonzero `optional_work_ppm` additionally carry the
/// brownout annotation declaring how much request work the service layer
/// may tell the guest to skip in degraded mode.
pub fn wasm_microservice_image(reference: &str, cfg: &MicroserviceConfig) -> ImageBuilder {
    let mut b = ImageBuilder::new(reference)
        .entrypoint(["/app/main.wasm".to_string()])
        .annotation(oci_spec_lite::WASM_VARIANT_ANNOTATION, "compat")
        .env("SERVICE_NAME", "microservice")
        // Memoized: every image built from the same config shares one
        // zero-copy byte string (which also keeps the engine-side module
        // artifact cache hot — identical bytes, identical content hash).
        .file("/app/main.wasm", microservice_module_bytes(cfg));
    if cfg.optional_work_ppm > 0 {
        b = b.annotation(oci_spec_lite::BROWNOUT_ANNOTATION, &cfg.optional_work_ppm.to_string());
    }
    b
}

/// The hung-guest service image for the chaos sweep's watchdog scenario:
/// the guest busy-waits until the simulated clock passes `ready_after_ns`
/// (see [`hung_service_module`]), so starts dispatched earlier wedge on
/// their watchdog budget and restarts dispatched later come up ready.
pub fn hung_service_image(reference: &str, ready_after_ns: u64) -> ImageBuilder {
    ImageBuilder::new(reference)
        .entrypoint(["/app/hung.wasm".to_string()])
        .annotation(oci_spec_lite::WASM_VARIANT_ANNOTATION, "compat")
        .env("SERVICE_NAME", "hung-service")
        .file("/app/hung.wasm", hung_service_module(ready_after_ns))
}

/// The memory-growth balloon attacker image (see [`balloon_module`]).
pub fn balloon_image(reference: &str, step_pages: i32, steps: i32) -> ImageBuilder {
    ImageBuilder::new(reference)
        .entrypoint(["/app/balloon.wasm".to_string()])
        .annotation(oci_spec_lite::WASM_VARIANT_ANNOTATION, "compat")
        .env("SERVICE_NAME", "balloon")
        .file("/app/balloon.wasm", balloon_module(step_pages, steps))
}

/// The CPU spinner attacker image: a microservice whose burn is sized to
/// sit just under the epoch deadline (see [`MicroserviceConfig::spinner`]).
pub fn spinner_image(reference: &str, loop_iterations: i32) -> ImageBuilder {
    wasm_microservice_image(reference, &MicroserviceConfig::spinner(loop_iterations))
}

/// The page-cache thrasher attacker image: a tiny service that carries a
/// `/data/stream.bin` payload and the io-churn annotation, so every guest
/// execution path streams `passes` cold reads over it.
pub fn thrasher_image(reference: &str, stream_bytes: usize, passes: u32) -> ImageBuilder {
    let quiet = MicroserviceConfig {
        loop_iterations: 100,
        ready_message: "thrasher ready\n",
        ..Default::default()
    };
    wasm_microservice_image(reference, &quiet)
        .annotation(oci_spec_lite::IO_CHURN_ANNOTATION, &passes.to_string())
        .file("/data/stream.bin", vec![0u8; stream_bytes])
}

/// The instantiation fork-bomb attacker image: the churn annotation makes
/// the engine re-instantiate the module `churn` extra times, each instance's
/// overhead staying charged.
pub fn fork_bomb_image(reference: &str, churn: u32) -> ImageBuilder {
    let quiet = MicroserviceConfig {
        loop_iterations: 100,
        ready_message: "fork-bomb ready\n",
        ..Default::default()
    };
    wasm_microservice_image(reference, &quiet)
        .annotation(oci_spec_lite::INSTANTIATE_CHURN_ANNOTATION, &churn.to_string())
}

/// The Python microservice image.
pub fn python_microservice_image(reference: &str, cfg: &PythonScriptConfig) -> ImageBuilder {
    ImageBuilder::new(reference)
        .entrypoint(["/usr/bin/python3".to_string(), "/app/service.py".to_string()])
        .env("SERVICE_NAME", "microservice")
        .file("/app/service.py", python_microservice_script(cfg).into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_builders_produce_expected_entrypoints() {
        let b = wasm_microservice_image("svc:v1", &MicroserviceConfig::default());
        // Builders are opaque; materialize through a kernel to check.
        let kernel = simkernel::Kernel::boot(simkernel::KernelConfig::default());
        let mut store = oci_spec_lite::ImageStore::new();
        let img = store.register(&kernel, b).unwrap();
        assert_eq!(img.command(), vec!["/app/main.wasm"]);
        assert!(img.config.annotations.contains_key(oci_spec_lite::WASM_VARIANT_ANNOTATION));

        let b = python_microservice_image("py:v1", &PythonScriptConfig::default());
        let img = store.register(&kernel, b).unwrap();
        assert_eq!(img.command()[0], "/usr/bin/python3");
    }
}
