//! Hybrid deployments: Wasm and native containers side by side on the same
//! modified crun — the compatibility property §III-C claims ("Kubernetes
//! pods can seamlessly run traditional and Wasm-based containers, enabling
//! hybrid deployments without additional infrastructure changes").
//!
//! One runtime class carries three handlers (WAMR, Python, pause); the
//! dispatch happens per container from its OCI spec.
//!
//! Run with: `cargo run --example hybrid_pods`

use memwasm::container_runtimes::handler::PauseHandler;
use memwasm::container_runtimes::profile::CRUN;
use memwasm::container_runtimes::LowLevelRuntime;
use memwasm::containerd_sim::RuntimeClass;
use memwasm::harness::mb;
use memwasm::k8s_sim::Cluster;
use memwasm::pyrt::PythonHandler;
use memwasm::wamr_crun::{WamrCrunConfig, WamrHandler};
use memwasm::workloads::{
    python_microservice_image, wasm_microservice_image, MicroserviceConfig, PythonScriptConfig,
};

fn main() {
    let mut cluster = Cluster::bootstrap().expect("cluster");
    memwasm::pyrt::install_python(cluster.kernel()).expect("python install");

    // The modified crun: WAMR for .wasm entrypoints, Python for .py,
    // pause for the sandbox — all in one binary, as the paper's
    // integration allows.
    let mut crun = LowLevelRuntime::new(cluster.kernel().clone(), &CRUN);
    crun.register_handler(Box::new(WamrHandler::new(WamrCrunConfig::default())));
    crun.register_handler(Box::new(PythonHandler));
    crun.register_handler(Box::new(PauseHandler));
    println!("crun handlers: {:?}", crun.handler_names());
    cluster.register_class("crun-hybrid", RuntimeClass::Oci { runtime: crun });

    cluster
        .pull_image(wasm_microservice_image("hybrid-wasm:v1", &MicroserviceConfig::default()))
        .expect("wasm image");
    cluster
        .pull_image(python_microservice_image("hybrid-py:v1", &PythonScriptConfig::default()))
        .expect("python image");

    // Same runtime class, different workloads.
    let wasm_pods = cluster.deploy("wasm", "hybrid-wasm:v1", "crun-hybrid", 5).expect("wasm");
    let py_pods = cluster.deploy("py", "hybrid-py:v1", "crun-hybrid", 5).expect("python");

    println!("wasm pod stdout:   {:?}", String::from_utf8_lossy(&wasm_pods.pods[0].stdout));
    println!("python pod stdout: {:?}", String::from_utf8_lossy(&py_pods.pods[0].stdout));

    let wasm_avg = cluster.average_working_set(&wasm_pods).expect("metrics");
    let py_avg = cluster.average_working_set(&py_pods).expect("metrics");
    println!("wasm containers:   {:.2} MB each (metrics-server)", mb(wasm_avg));
    println!("python containers: {:.2} MB each (metrics-server)", mb(py_avg));
    println!(
        "the Wasm side is {:.1}% lighter on the same runtime binary",
        (1.0 - wasm_avg as f64 / py_avg as f64) * 100.0
    );

    cluster.teardown(wasm_pods).expect("teardown wasm");
    cluster.teardown(py_pods).expect("teardown python");
}
