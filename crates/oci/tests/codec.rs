//! The `config.json` codec: exact bytes out, exact tolerance in.
//!
//! A bundle's `config.json` is simulated by its size (`config_kib ×
//! parse_ns_per_kib`, page-cache pages), so `RuntimeSpec::to_json` may not
//! move by a byte: the goldens below were recorded before the direct codec
//! replaced the DOM-based one.

use oci_spec_lite::{RuntimeSpec, WASM_VARIANT_ANNOTATION, WATCHDOG_BUDGET_ANNOTATION};

/// The pod's pause container, as `Containerd::run_pod_sandbox` builds it.
fn pause_spec() -> RuntimeSpec {
    RuntimeSpec::for_command("pod-7-pause", vec!["/pause".to_string()])
}

/// A workload container, as `Containerd::create_container_with` builds it
/// from the microservice image: image env and annotations, `cgroupsPath`
/// under the pod.
fn workload_spec() -> RuntimeSpec {
    let mut spec = RuntimeSpec::for_command("pod-7-app", vec!["/app/main.wasm".to_string()]);
    spec.process.env = vec!["SERVICE_NAME=microservice".to_string()];
    spec.linux.cgroups_path = "/kubepods/pod-7/pod-7-app".to_string();
    spec.annotations.insert(WASM_VARIANT_ANNOTATION.to_string(), "compat".to_string());
    spec
}

/// A memory limit, the kubelet's watchdog annotation, and strings needing
/// every escape class: `"`, `\`, `\n`, a control byte, a non-ASCII char.
fn escapy_spec() -> RuntimeSpec {
    let mut spec = workload_spec();
    spec.linux.memory.limit = Some(64 << 20);
    spec.annotations.insert(WATCHDOG_BUDGET_ANNOTATION.to_string(), "30000000000".to_string());
    spec.annotations.insert("note/\"quoted\"".to_string(), "tab\there\r\n".to_string());
    spec.process.args.push("--greeting=\"héllo\\世界\"\n".to_string());
    spec.process.env.push("BELL=\u{7}\u{1f}".to_string());
    spec.hostname = "nœud-😀".to_string();
    spec
}

#[test]
fn to_json_bytes_are_pinned() {
    assert_eq!(
        pause_spec().to_json(),
        r#"{"annotations":{},"hostname":"pod-7-pause","linux":{"cgroupsPath":"/kubepods/pod-7-pause","namespaces":[{"type":"pid"},{"type":"mount"},{"type":"network"},{"type":"uts"},{"type":"ipc"},{"type":"cgroup"}]},"mounts":[{"destination":"/proc","options":[],"source":"proc","type":"proc"}],"ociVersion":"1.0.2","process":{"args":["/pause"],"cwd":"/","env":[],"terminal":false},"root":{"path":"rootfs","readonly":true}}"#
    );
    assert_eq!(
        workload_spec().to_json(),
        r#"{"annotations":{"module.wasm.image/variant":"compat"},"hostname":"pod-7-app","linux":{"cgroupsPath":"/kubepods/pod-7/pod-7-app","namespaces":[{"type":"pid"},{"type":"mount"},{"type":"network"},{"type":"uts"},{"type":"ipc"},{"type":"cgroup"}]},"mounts":[{"destination":"/proc","options":[],"source":"proc","type":"proc"}],"ociVersion":"1.0.2","process":{"args":["/app/main.wasm"],"cwd":"/","env":["SERVICE_NAME=microservice"],"terminal":false},"root":{"path":"rootfs","readonly":true}}"#
    );
    assert_eq!(
        escapy_spec().to_json(),
        r#"{"annotations":{"container.sim/watchdog-epoch-budget-ns":"30000000000","module.wasm.image/variant":"compat","note/\"quoted\"":"tab\there\r\n"},"hostname":"nœud-😀","linux":{"cgroupsPath":"/kubepods/pod-7/pod-7-app","namespaces":[{"type":"pid"},{"type":"mount"},{"type":"network"},{"type":"uts"},{"type":"ipc"},{"type":"cgroup"}],"resources":{"memory":{"limit":67108864}}},"mounts":[{"destination":"/proc","options":[],"source":"proc","type":"proc"}],"ociVersion":"1.0.2","process":{"args":["/app/main.wasm","--greeting=\"héllo\\世界\"\n"],"cwd":"/","env":["SERVICE_NAME=microservice","BELL=\u0007\u001f"],"terminal":false},"root":{"path":"rootfs","readonly":true}}"#
    );
    // Every golden reads back as the spec that wrote it.
    for spec in [pause_spec(), workload_spec(), escapy_spec()] {
        assert_eq!(RuntimeSpec::from_json(&spec.to_json()).unwrap(), spec);
    }
}
