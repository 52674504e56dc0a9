//! Determinism: every experiment is bit-for-bit repeatable — no wall clock,
//! no OS randomness anywhere in the stack.

use memwasm::harness::{measure_cell, measure_memory, Config, Observe, Workload};

#[test]
fn memory_measurements_are_deterministic() {
    let w = Workload::light();
    for config in [Config::WamrCrun, Config::ShimWasmtime, Config::CrunPython] {
        let a = measure_memory(config, 6, &w).unwrap();
        let b = measure_memory(config, 6, &w).unwrap();
        assert_eq!(a.metrics_avg, b.metrics_avg, "{config:?}");
        assert_eq!(a.free_per_pod, b.free_per_pod, "{config:?}");
    }
}

#[test]
fn startup_measurements_are_deterministic() {
    let w = Workload::light();
    for config in [Config::WamrCrun, Config::ShimWasmEdge, Config::RuncPython] {
        let startup = || measure_cell(config, 12, &w, Observe::Startup).unwrap().startup.unwrap();
        let (a, b) = (startup(), startup());
        assert_eq!(a.total, b.total, "{config:?}");
    }
}

#[test]
fn workload_binaries_are_reproducible() {
    use memwasm::workloads::{microservice_module, MicroserviceConfig};
    let a = microservice_module(&MicroserviceConfig::default());
    let b = microservice_module(&MicroserviceConfig::default());
    assert_eq!(a, b);
}
