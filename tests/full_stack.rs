//! Cross-crate integration tests: full pod lifecycles through every layer.

use memwasm::container_runtimes::handler::PauseHandler;
use memwasm::container_runtimes::profile::CRUN;
use memwasm::container_runtimes::LowLevelRuntime;
use memwasm::containerd_sim::{RuntimeClass, WasmSandboxer};
use memwasm::engines::EngineKind;
use memwasm::harness::chaos::{run_config, ChaosPlan, Scenario};
use memwasm::harness::isolation::{
    run_tenants, Attacker, AttackerFate, IsolationPlan, VictimObservation,
};
use memwasm::harness::{measure_memory, new_cluster, warmup, Config, Workload};
use memwasm::k8s_sim::{Cluster, DeployOpts, PodPhase};
use memwasm::pyrt::PythonHandler;
use memwasm::simkernel::{Duration, Phase, ProcState, Step};
use memwasm::wamr_crun::{WamrCrunConfig, WamrHandler};
use memwasm::workloads::{hung_service_image, wasm_microservice_image, MicroserviceConfig};

#[test]
fn deploy_runs_the_real_microservice() {
    let w = Workload::light();
    let mut cluster = new_cluster(&[Config::WamrCrun], &w).unwrap();
    let d = cluster
        .deploy("svc", Config::WamrCrun.image_ref(), Config::WamrCrun.class_name(), 3)
        .unwrap();
    for pod in &d.pods {
        assert_eq!(pod.stdout, b"microservice ready\n", "{}", pod.spec.name);
    }
    cluster.teardown(d).unwrap();
}

#[test]
fn teardown_restores_memory_baseline() {
    let w = Workload::light();
    let mut cluster = new_cluster(&[Config::WamrCrun], &w).unwrap();
    warmup(&mut cluster, Config::WamrCrun).unwrap();
    let before = cluster.free().used;
    let procs_before = cluster.kernel().live_procs();
    let d = cluster
        .deploy("svc", Config::WamrCrun.image_ref(), Config::WamrCrun.class_name(), 10)
        .unwrap();
    assert!(cluster.free().used > before);
    cluster.teardown(d).unwrap();
    // Anonymous memory fully released; page cache may stay warm.
    let after = cluster.free().used;
    assert!(
        after.saturating_sub(before) < 6 << 20,
        "resident leak: before {before}, after {after} (kubelet/daemon growth only)"
    );
    assert_eq!(cluster.kernel().live_procs(), procs_before);
}

#[test]
fn cluster_stats_expose_the_sync_counter() {
    let w = Workload::light();
    let mut cluster = new_cluster(&[Config::WamrCrun], &w).unwrap();
    let boot = cluster.stats();
    assert_eq!(boot.pods_synced, 0);
    assert_eq!(boot.pods_managed, 0);
    let d = cluster
        .deploy("svc", Config::WamrCrun.image_ref(), Config::WamrCrun.class_name(), 3)
        .unwrap();
    let stats = cluster.stats();
    assert_eq!(stats.pods_synced, 3);
    assert_eq!(stats.pods_managed, 3);
    assert!(stats.live_procs > boot.live_procs);
    cluster.teardown(d).unwrap();
    let after = cluster.stats();
    assert_eq!(after.pods_synced, 3, "sync counter is monotonic across teardown");
    assert_eq!(after.pods_managed, 0);
    assert_eq!(after.live_procs, boot.live_procs);
}

#[test]
fn every_wasm_config_returns_the_kernel_to_baseline() {
    // All seven Wasm configurations route through the shared ProcessImage
    // and lifecycle machinery; deploy → teardown of each must return the
    // kernel to its baseline process and (anonymous) page population.
    const WASM_CONFIGS: [Config; 7] = [
        Config::WamrCrun,
        Config::CrunWasmtime,
        Config::CrunWasmer,
        Config::CrunWasmEdge,
        Config::ShimWasmtime,
        Config::ShimWasmer,
        Config::ShimWasmEdge,
    ];
    let w = Workload::light();
    let mut cluster = new_cluster(&WASM_CONFIGS, &w).unwrap();
    for &c in &WASM_CONFIGS {
        warmup(&mut cluster, c).unwrap();
    }
    let procs_before = cluster.kernel().live_procs();
    let used_before = cluster.free().used;
    for &c in &WASM_CONFIGS {
        let d = cluster.deploy(c.class_name(), c.image_ref(), c.class_name(), 2).unwrap();
        assert_eq!(d.running(), 2, "{}", c.label());
        cluster.teardown(d).unwrap();
        assert_eq!(cluster.kernel().live_procs(), procs_before, "{}: leaked processes", c.label());
    }
    // Anonymous memory returns to baseline modulo the kubelet/daemon
    // per-pod bookkeeping growth; the page cache may stay warm.
    let leaked = cluster.free().used.saturating_sub(used_before);
    assert!(leaked < 8 << 20, "anon leak across all configs: {leaked} bytes");
    assert_eq!(cluster.stats().pods_managed, 0);
}

#[test]
fn multiple_runtime_classes_coexist_on_one_cluster() {
    let w = Workload::light();
    let mut cluster =
        new_cluster(&[Config::WamrCrun, Config::ShimWasmtime, Config::CrunPython], &w).unwrap();
    let wamr = cluster
        .deploy("a", Config::WamrCrun.image_ref(), Config::WamrCrun.class_name(), 3)
        .unwrap();
    let shim = cluster
        .deploy("b", Config::ShimWasmtime.image_ref(), Config::ShimWasmtime.class_name(), 3)
        .unwrap();
    let py = cluster
        .deploy("c", Config::CrunPython.image_ref(), Config::CrunPython.class_name(), 3)
        .unwrap();
    let a = cluster.average_working_set(&wamr).unwrap();
    let b = cluster.average_working_set(&shim).unwrap();
    let c = cluster.average_working_set(&py).unwrap();
    assert!(a < b && a < c, "ours lightest: {a} vs shim {b} vs python {c}");
    for d in [wamr, shim, py] {
        cluster.teardown(d).unwrap();
    }
}

#[test]
fn oom_killed_container_via_memory_limit() {
    // Deploy through the low-level runtime with a tiny memory limit; the
    // kernel must OOM-kill the container when the workload commits memory.
    let cluster = Cluster::bootstrap().unwrap();
    let kernel = cluster.kernel().clone();
    memwasm::engines::install_engines(&kernel).unwrap();
    let mut store = memwasm::oci_spec_lite::ImageStore::new();
    let image = store
        .register(&kernel, wasm_microservice_image("tiny:v1", &MicroserviceConfig::default()))
        .unwrap()
        .clone();
    let mut spec = memwasm::oci_spec_lite::RuntimeSpec::for_command("oom", image.command());
    for (k, v) in &image.config.annotations {
        spec.annotations.insert(k.clone(), v.clone());
    }
    spec.linux.memory.limit = Some(1 << 20); // 1 MiB: far below the module's 2.5 MiB memory
    let bundle = memwasm::oci_spec_lite::Bundle::create(&kernel, "oom", &image, &spec).unwrap();

    let mut rt = LowLevelRuntime::new(kernel.clone(), &CRUN);
    rt.register_handler(Box::new(WamrHandler::new(WamrCrunConfig::default())));
    rt.register_handler(Box::new(PauseHandler));
    let ctx = memwasm::container_runtimes::RuntimeCtx {
        runtime_cgroup: kernel
            .cgroup_create(memwasm::simkernel::Kernel::ROOT_CGROUP, "sys")
            .unwrap(),
    };
    let pod = kernel.cgroup_create(memwasm::simkernel::Kernel::ROOT_CGROUP, "pod-oom").unwrap();
    let mut c = rt.create(&ctx, "oom", &bundle, pod).unwrap();
    let container_pid = c.run.pid;
    let err = rt.start(&ctx, &mut c, &bundle).unwrap_err();
    assert!(
        matches!(err, memwasm::simkernel::KernelError::OutOfMemory { .. }),
        "expected OOM, got {err}"
    );
    assert_eq!(kernel.proc_state(container_pid).unwrap(), ProcState::OomKilled);
    assert!(kernel.cgroup_oom_events(c.run.cgroup).unwrap() >= 1);
}

#[test]
fn invalid_module_fails_cleanly() {
    let cluster = Cluster::bootstrap().unwrap();
    let kernel = cluster.kernel().clone();
    memwasm::engines::install_engines(&kernel).unwrap();
    let mut store = memwasm::oci_spec_lite::ImageStore::new();
    let image = store
        .register(
            &kernel,
            memwasm::oci_spec_lite::ImageBuilder::new("bad:v1")
                .entrypoint(["/app/bad.wasm".to_string()])
                .annotation(memwasm::oci_spec_lite::WASM_VARIANT_ANNOTATION, "compat")
                .file("/app/bad.wasm", &b"this is not wasm"[..]),
        )
        .unwrap()
        .clone();
    let spec = memwasm::oci_spec_lite::RuntimeSpec::for_command("bad", image.command());
    let bundle = memwasm::oci_spec_lite::Bundle::create(&kernel, "bad", &image, &spec).unwrap();
    let mut rt = LowLevelRuntime::new(kernel.clone(), &CRUN);
    rt.register_handler(Box::new(WamrHandler::new(WamrCrunConfig::default())));
    let ctx = memwasm::container_runtimes::RuntimeCtx {
        runtime_cgroup: kernel
            .cgroup_create(memwasm::simkernel::Kernel::ROOT_CGROUP, "sys")
            .unwrap(),
    };
    let pod = kernel.cgroup_create(memwasm::simkernel::Kernel::ROOT_CGROUP, "pod-bad").unwrap();
    let mut c = rt.create(&ctx, "bad", &bundle, pod).unwrap();
    assert!(rt.start(&ctx, &mut c, &bundle).is_err());
}

/// A script outside pyrt's grammar fails its container's start with a
/// typed error, and deleting the container leaves nothing charged.
#[test]
fn python_script_outside_the_grammar_fails_cleanly() {
    use memwasm::oci_spec_lite::{Bundle, ImageBuilder, ImageStore, RuntimeSpec};
    use memwasm::simkernel::{Kernel, KernelError};
    let cluster = Cluster::bootstrap().unwrap();
    let kernel = cluster.kernel().clone();
    memwasm::pyrt::install_python(&kernel).unwrap();
    let mut rt = LowLevelRuntime::new(kernel.clone(), &CRUN);
    rt.register_handler(Box::new(PythonHandler));
    let ctx = memwasm::container_runtimes::RuntimeCtx {
        runtime_cgroup: kernel.cgroup_create(Kernel::ROOT_CGROUP, "sys").unwrap(),
    };
    let mut store = ImageStore::new();
    let scripts = [
        ("while", "while x:\n    y = 1\n", "python parse: "),
        ("if", "if x:\n    y = 1\nelse:\n    y = 2\n", "python parse: "),
        ("aug", "x = 0\nx += 1\n", "python parse: "),
        ("float", "x = 1.5\n", "python parse: "),
        ("compare", "x = 1 == 2\n", "python parse: "),
        ("index", "xs = []\ny = xs[0]\n", "python parse: "),
        ("builtin", "print(len([]))\n", "python runtime: "),
    ];
    for (name, script, error) in scripts {
        let image = ImageBuilder::new(&format!("{name}:v1"))
            .entrypoint(["/usr/bin/python3".to_string(), "/app/svc.py".to_string()])
            .file("/app/svc.py", script.as_bytes().to_vec());
        let image = store.register(&kernel, image).unwrap().clone();
        let spec = RuntimeSpec::for_command(name, image.command());
        let bundle = Bundle::create(&kernel, name, &image, &spec).unwrap();
        let used = kernel.free().used;
        let pod = kernel.cgroup_create(Kernel::ROOT_CGROUP, &format!("pod-{name}")).unwrap();
        let mut c = rt.create(&ctx, name, &bundle, pod).unwrap();
        match rt.start(&ctx, &mut c, &bundle) {
            Err(KernelError::InvalidState(m)) => assert!(m.starts_with(error), "{name}: {m}"),
            other => panic!("{name}: {other:?}"),
        }
        rt.delete(&mut c.run).unwrap();
        kernel.cgroup_remove(pod).unwrap();
        assert_eq!(kernel.check_accounting(), Ok(()), "{name}");
        assert_eq!(kernel.free().used, used, "{name}: nothing left charged");
    }
}

#[test]
fn python_handler_in_hybrid_runtime_prefers_first_match() {
    // A runtime with both WAMR and Python handlers routes by spec.
    let w = Workload::light();
    let mut cluster = new_cluster(&[Config::CrunPython], &w).unwrap();
    let mut crun = LowLevelRuntime::new(cluster.kernel().clone(), &CRUN);
    crun.register_handler(Box::new(WamrHandler::new(WamrCrunConfig::default())));
    crun.register_handler(Box::new(PythonHandler));
    crun.register_handler(Box::new(PauseHandler));
    cluster.register_class("hybrid", RuntimeClass::Oci { runtime: crun });
    let d = cluster.deploy("py", Config::CrunPython.image_ref(), "hybrid", 2).unwrap();
    assert_eq!(d.pods[0].stdout, b"microservice ready\n");
    cluster.teardown(d).unwrap();
}

#[test]
fn density_does_not_change_per_container_memory() {
    // §IV-B: "memory overhead per container does not vary significantly
    // between different deployment sizes".
    let w = Workload::light();
    let small = measure_memory(Config::WamrCrun, 5, &w).unwrap();
    let large = measure_memory(Config::WamrCrun, 40, &w).unwrap();
    let ratio = small.metrics_avg as f64 / large.metrics_avg as f64;
    assert!((0.85..1.2).contains(&ratio), "metrics ratio {ratio}");
}

#[test]
fn failed_pod_sync_rolls_back_cleanly() {
    // A broken image (invalid Wasm) must not leak sandboxes, processes, or
    // cgroups when the kubelet's sync fails mid-pipeline.
    let w = Workload::light();
    let mut cluster = new_cluster(&[Config::WamrCrun], &w).unwrap();
    cluster
        .pull_image(
            memwasm::oci_spec_lite::ImageBuilder::new("broken:v1")
                .entrypoint(["/app/bad.wasm".to_string()])
                .annotation(memwasm::oci_spec_lite::WASM_VARIANT_ANNOTATION, "compat")
                .file("/app/bad.wasm", &b"garbage"[..]),
        )
        .unwrap();
    let procs_before = cluster.kernel().live_procs();
    let used_before = cluster.free().used;

    let err = cluster.deploy("bad", "broken:v1", Config::WamrCrun.class_name(), 1);
    assert!(err.is_err(), "broken module must fail the deployment");

    assert_eq!(cluster.kernel().live_procs(), procs_before, "no leaked processes");
    assert_eq!(cluster.kubelet().pod_count(), 0, "no leaked pod records");
    let leaked = cluster.free().used.saturating_sub(used_before);
    assert!(leaked < 1 << 20, "no leaked anon memory: {leaked} bytes");
    // The node still works afterwards.
    let d = cluster
        .deploy("ok", Config::WamrCrun.image_ref(), Config::WamrCrun.class_name(), 2)
        .unwrap();
    assert_eq!(d.running(), 2);
    cluster.teardown(d).unwrap();
}

/// FNV-1a of a pod's startup program, phase tags included.
fn trace_fnv(trace: &memwasm::simkernel::StepTrace) -> u64 {
    memwasm::wasm_core::cache::content_hash(
        format!("{:?}", trace.entries().collect::<Vec<_>>()).as_bytes(),
    )
}

#[test]
fn golden_pod_start_per_config() {
    // What one pod start *is*: two pods on a fresh cluster (the first pays
    // the cold reads, the second is warm). Per config: the FNV of each
    // pod's `(phase, step)` program, the deployment's average working set,
    // and what `free` says the two pods cost. Every pod prints the ready
    // line. A refactor of the start path leaves this table alone.
    const GOLDEN: [(Config, [u64; 2], u64, u64); 9] = [
        (Config::WamrCrun, [0x5a7061dddc567550, 0x8852523e697e417d], 6373376, 18837504),
        (Config::CrunWasmtime, [0xf844cc506e8b00b2, 0xdb9c0fe2f92db43c], 17506304, 41103360),
        (Config::CrunWasmer, [0x97e6b178b9f803ef, 0x46b1718a1d945598], 28948480, 63987712),
        (Config::CrunWasmEdge, [0xa6fff9c8d40a10ab, 0xa52d02754c36671f], 15026176, 36143104),
        (Config::ShimWasmtime, [0x8e5fe1030c80f8a6, 0x99a49d21c9701e09], 19101696, 39067648),
        (Config::ShimWasmer, [0xf918416e4aa3a4a3, 0x1f35ce61377d4abf], 50124800, 101113856),
        (Config::ShimWasmEdge, [0x622ffaf854836c4b, 0xb255f9423c4f8d77], 19437568, 39739392),
        (Config::CrunPython, [0xc289060e5fc85e7d, 0x3648a4cf54807843], 11945984, 30478336),
        (Config::RuncPython, [0xa3a287e2282c68d2, 0x305a8d747e336751], 11945984, 35934208),
    ];
    let w = Workload::light();
    for (config, traces, working_set, free_delta) in GOLDEN {
        let mut cluster = new_cluster(&[config], &w).unwrap();
        let before = cluster.free().used_with_cache();
        let d = cluster.deploy("pin", config.image_ref(), config.class_name(), 2).unwrap();
        for pod in &d.pods {
            assert_eq!(pod.stdout, b"microservice ready\n", "{}", config.label());
        }
        let got = (
            [trace_fnv(&d.pods[0].trace), trace_fnv(&d.pods[1].trace)],
            cluster.average_working_set(&d).unwrap(),
            cluster.free().used_with_cache() - before,
        );
        assert_eq!(got, (traces, working_set, free_delta), "{}", config.label());
    }
}

#[test]
fn golden_chaos_smoke_outcomes() {
    // The paths only a fault plan reaches (a failed guest start, its
    // rollback, the restart): per-site injections in `FaultSite::ALL`
    // order, restarts, reconcile rounds and bytes left after teardown, on
    // the handler path and on the shim path.
    const GOLDEN: [(Config, [u64; 6], u64, usize, u64); 2] = [
        (Config::WamrCrun, [6, 1, 6, 0, 0, 1], 2, 4, 2273280),
        (Config::ShimWasmtime, [3, 0, 6, 0, 0, 0], 4, 3, 3108864),
    ];
    for (config, injected, restarts, rounds, leaked_bytes) in GOLDEN {
        let o = run_config(config, &Scenario::faults(), &Workload::light(), &ChaosPlan::smoke(7))
            .unwrap();
        assert_eq!(
            (o.injected, o.restarts, o.rounds, o.leaked_bytes),
            (injected, restarts, rounds, leaked_bytes),
            "{}",
            config.label()
        );
    }
}

#[test]
fn golden_hung_guest_smoke_outcome() {
    // The watchdog path end to end: per-site injections (only the probe
    // site is armed), restarts, reconcile rounds, pods wedged at deploy,
    // liveness kills, pods ready at the end and bytes left after teardown.
    let (w, plan) = (Workload::light(), ChaosPlan::smoke(13));
    let o = run_config(Config::WamrCrun, &Scenario::hung_guest(), &w, &plan).unwrap();
    assert_eq!(
        (o.injected, o.restarts, o.rounds, o.wedged, o.probe_kills, o.ready, o.leaked_bytes),
        ([0, 0, 0, 0, 5, 0], 4, 4, 4, 4, 4, 3444736)
    );
}

#[test]
fn golden_isolation_smoke_runs() {
    // Every observable of the five isolation-smoke runs on the
    // contribution config: the reconcile rounds driven, what the
    // containment stack did to the attacker and what the victims saw.
    let victims = |makespan_ns, mean_working_set| VictimObservation {
        makespan: Duration::from_nanos(makespan_ns),
        mean_working_set,
        restarts: 0,
        running: 4,
        ready: 4,
        victims: 4,
    };
    let golden: [(Option<Attacker>, usize, Option<AttackerFate>, VictimObservation); 5] = [
        (None, 1, None, victims(2_405_950_326, 5_898_240)),
        (
            Some(Attacker::Spinner),
            16,
            Some(AttackerFate {
                phase: Some(PodPhase::Running),
                restarts: 5,
                failures: 0,
                cpu_throttle_events: 1,
                cpu_throttled_ns: 2_997_000_000,
                io_throttle_events: 0,
                io_queued_ns: 1_789_062,
                oom_kills: 0,
                probe_kills: 5,
                pressure_evicted: false,
            }),
            victims(2_405_950_326, 5_905_408),
        ),
        (
            Some(Attacker::Balloon),
            16,
            Some(AttackerFate {
                phase: Some(PodPhase::CrashLoopBackOff),
                failures: 16,
                ..AttackerFate::default()
            }),
            victims(2_405_950_326, 6_135_808),
        ),
        (
            Some(Attacker::Thrasher),
            1,
            Some(AttackerFate {
                phase: Some(PodPhase::Evicted),
                restarts: 0,
                failures: 0,
                cpu_throttle_events: 1,
                cpu_throttled_ns: 66_396_870,
                io_throttle_events: 8,
                io_queued_ns: 8_240_414_062,
                oom_kills: 0,
                probe_kills: 0,
                pressure_evicted: true,
            }),
            victims(2_406_400_326, 5_905_408),
        ),
        (
            Some(Attacker::ForkBomb),
            16,
            Some(AttackerFate {
                phase: Some(PodPhase::CrashLoopBackOff),
                failures: 16,
                ..AttackerFate::default()
            }),
            victims(2_405_950_326, 6_135_808),
        ),
    ];
    for (attacker, rounds, fate, observed) in golden {
        let run =
            run_tenants(Config::WamrCrun, &Workload::light(), &IsolationPlan::smoke(), attacker)
                .unwrap();
        assert_eq!((run.rounds, run.fate, run.victims), (rounds, fate, observed), "{attacker:?}");
    }
}

#[test]
fn golden_sandbox_api_example_working_sets() {
    // The two numbers `examples/sandbox_api` prints (23.05 MB WAMR-crun,
    // 16.43 MB sandboxer), in bytes: six containers of the default
    // microservice in one pod, an engine per container against one
    // sandbox process hosting all six.
    let cluster = Cluster::bootstrap().unwrap();
    let kernel = cluster.kernel().clone();
    let mut store = memwasm::oci_spec_lite::ImageStore::new();
    let image = store
        .register(&kernel, wasm_microservice_image("svc:v1", &MicroserviceConfig::default()))
        .unwrap()
        .clone();

    let pod_a = kernel.cgroup_create(cluster.kubepods(), "pod-crun").unwrap();
    let rt = memwasm::wamr_crun::wamr_crun_runtime(kernel.clone(), WamrCrunConfig::default());
    let ctx = memwasm::container_runtimes::RuntimeCtx { runtime_cgroup: cluster.system_cgroup() };
    for i in 0..6 {
        let id = format!("a{i}");
        let mut spec = memwasm::oci_spec_lite::RuntimeSpec::for_command(&id, image.command());
        spec.annotations.extend(image.config.annotations.clone());
        let bundle = memwasm::oci_spec_lite::Bundle::create(&kernel, &id, &image, &spec).unwrap();
        let mut c = rt.create(&ctx, &id, &bundle, pod_a).unwrap();
        rt.start(&ctx, &mut c, &bundle).unwrap();
    }

    let pod_b = kernel.cgroup_create(cluster.kubepods(), "pod-sandbox").unwrap();
    let sandboxer = WasmSandboxer::new(kernel.clone(), EngineKind::Wamr);
    let mut sandbox = sandboxer.create_sandbox("pod-sandbox", pod_b).unwrap();
    for i in 0..6 {
        sandboxer.add_container(&mut sandbox, &format!("b{i}"), &image).unwrap();
    }
    let working_set = |pod| kernel.cgroup_working_set(pod).unwrap();
    assert_eq!((working_set(pod_a), working_set(pod_b)), (24_174_592, 17_223_680));
}

#[test]
fn every_config_is_charged_for_its_guest_cpu() {
    // One pod under cpu.max 1 ms / 100 ms. Whatever runs the guest — an
    // engine in crun, an engine in a shim, CPython — its priced execution
    // is charged to the pod's quota and the throttle sleep is part of the
    // pod's start program. Work charged to nobody is how a tenant escapes.
    let w = Workload::light();
    for config in Config::ALL {
        let mut cluster = new_cluster(&[config], &w).unwrap();
        let opts = DeployOpts { cpu_max: Some((1_000_000, 100_000_000)), ..Default::default() };
        let d =
            cluster.deploy_with("quota", config.image_ref(), config.class_name(), 1, opts).unwrap();
        let pod = &d.pods[0];
        let stats = cluster.kernel().cgroup_stats(pod.pod_cgroup).unwrap();
        assert!(
            stats.nr_cpu_throttled >= 1 && stats.cpu_throttled_ns > 0,
            "{}: guest CPU never met the quota ({} events, {} ns)",
            config.label(),
            stats.nr_cpu_throttled,
            stats.cpu_throttled_ns
        );
        assert!(
            pod.trace.entries().any(|(p, s)| p == Phase::Exec && matches!(s, Step::Io(_))),
            "{}: no throttle sleep among the Exec steps",
            config.label()
        );
    }
}

#[test]
fn wedged_sandbox_container_keeps_its_memory_and_its_neighbours() {
    // The hung service never sees its ready threshold, so only the
    // watchdog budget annotated on the image parks it.
    let cluster = Cluster::bootstrap().unwrap();
    let kernel = cluster.kernel().clone();
    let mut store = memwasm::oci_spec_lite::ImageStore::new();
    let hung = hung_service_image("hung:v1", u64::MAX / 2)
        .annotation(memwasm::oci_spec_lite::WATCHDOG_BUDGET_ANNOTATION, "500000000");
    let hung = store.register(&kernel, hung).unwrap().clone();
    let healthy = store
        .register(&kernel, wasm_microservice_image("svc:v1", &MicroserviceConfig::default()))
        .unwrap()
        .clone();

    let pod = kernel.cgroup_create(cluster.kubepods(), "pod").unwrap();
    let sandboxer = WasmSandboxer::new(kernel.clone(), EngineKind::Wamr);
    let mut sandbox = sandboxer.create_sandbox("pod", pod).unwrap();
    let empty = kernel.proc_rss(sandbox.pid).unwrap();
    sandboxer.add_container(&mut sandbox, "hung", &hung).unwrap();
    let c = &sandbox.containers()[0];
    assert!(c.wedged && c.exit_code == 0, "interrupted, not exited: {c:?}");
    assert_eq!(c.stdout, b"hung service: waiting\n");
    let with_hung = kernel.proc_rss(sandbox.pid).unwrap();
    assert!(with_hung > empty, "a wedged guest keeps what it charged");

    sandboxer.add_container(&mut sandbox, "healthy", &healthy).unwrap();
    let c = &sandbox.containers()[1];
    assert!(!c.wedged, "the neighbour's watchdog is not this guest's");
    assert_eq!(c.stdout, b"microservice ready\n");
    assert!(kernel.proc_rss(sandbox.pid).unwrap() > with_hung);
}
