//! Multi-node determinism: scheduler placement and the cluster-scale
//! tables are pure functions of the plan — byte-identical across repeated
//! runs — and the startup DES's outcomes on figure paths are pinned.

use memwasm::harness::cluster_scale::{self, density_sweep, policy_ablation, run_drain, ScalePlan};
use memwasm::harness::{Config, Workload};
use memwasm::simkernel::{Sim, TaskSpec};
use memwasm::wasm_core::cache::content_hash;

#[test]
fn density_sweep_is_byte_identical_across_runs() {
    // The second sweep starts from the host memos the first one filled.
    let w = Workload::light();
    let plan = ScalePlan::smoke();
    let run = || {
        let (table, samples) = density_sweep(&plan, &w).unwrap();
        (table.to_csv().into_bytes(), samples)
    };
    let (first, second) = (run(), run());
    assert_eq!(second.0, first.0, "sweep CSV bytes differ between runs");
    assert_eq!(second.1, first.1, "samples differ between runs");
}

#[test]
fn repeated_runs_place_identically() {
    let w = Workload::light();

    // Same plan, fresh clusters: placement and the rendered ablation table
    // must not depend on host state.
    let a = policy_ablation(Config::WamrCrun, 3, 9, &w).unwrap();
    let b = policy_ablation(Config::WamrCrun, 3, 9, &w).unwrap();
    assert_eq!(a.to_csv().into_bytes(), b.to_csv().into_bytes());

    let d1 = run_drain(Config::WamrCrun, 3, 6, &w).unwrap();
    let d2 = run_drain(Config::WamrCrun, 3, 6, &w).unwrap();
    assert_eq!(d1.placements, d2.placements);
    assert_eq!(d1.drained, d2.drained);
    assert_eq!((d1.converged, d1.ready), (d2.converged, d2.ready));
}

#[test]
fn single_node_sweep_matches_the_single_node_figure_path() {
    // A 1-node "cluster sweep" is the old single-node experiment: every
    // pod on node 0, metrics identical to the per-density figure cells.
    let w = Workload::light();
    let plan = ScalePlan { nodes: 1, densities: vec![5] };
    let (_, samples) = density_sweep(&plan, &w).unwrap();
    assert_eq!(samples[0].min_pods_node, 5);
    assert_eq!(samples[0].max_pods_node, 5);
    let cell = memwasm::harness::measure_memory(Config::WamrCrun, 5, &w).unwrap();
    assert_eq!(samples[0].metrics_avg, cell.metrics_avg);
}

#[test]
fn des_outcomes_are_pinned_on_every_figure_path() {
    // For real startup traces (the figure workloads, not synthetic tasks)
    // of three runtime configurations: the DES's makespan, event count and
    // FNV-1a of every pod's finish ns, each checked once against exact
    // rational arithmetic. crun-python at 40 pods oversubscribes the 20
    // cores.
    const GOLDEN: [(Config, usize, u64, u64, u64); 6] = [
        (Config::WamrCrun, 8, 2_485_950_326, 288, 0x9cb316fcec0e505d),
        (Config::WamrCrun, 40, 3_125_950_326, 1440, 0xb606e7901388a4e1),
        (Config::ShimWasmtime, 8, 2_719_509_724, 185, 0xcecfa933e6971a26),
        (Config::ShimWasmtime, 40, 3_743_509_724, 921, 0x16ce3850927387ba),
        (Config::CrunPython, 8, 2_992_837_700, 288, 0x12efb33aa79af4fa),
        (Config::CrunPython, 40, 3_702_310_461, 1440, 0x4a4324beb9293e74),
    ];
    let w = Workload::light();
    for (config, density, makespan, events, finishes) in GOLDEN {
        let (cluster, d) = memwasm::harness::deploy_density(config, density, &w).unwrap();
        let tasks: Vec<TaskSpec> = d
            .pods
            .iter()
            .map(|p| TaskSpec {
                name: p.spec.name.clone(),
                start_at: p.dispatched_at,
                steps: p.trace.steps(),
            })
            .collect();
        let out = Sim::new(cluster.kernel().cores()).run(tasks);
        let bytes: Vec<u8> =
            out.results.iter().flat_map(|r| r.finished.as_nanos().to_le_bytes()).collect();
        let got = (out.makespan.as_nanos(), out.events, content_hash(&bytes));
        assert_eq!(got, (makespan, events, finishes), "{config:?} at {density}");
    }
}

#[test]
fn multinode_smoke_contract() {
    // The verify.sh scenario: 3 nodes, drain one, convergence on the rest.
    let w = Workload::light();
    let o = run_drain(Config::WamrCrun, 3, 6, &w).unwrap();
    assert!(o.converged, "{o:?}");
    assert_eq!(o.ready, 6);
    assert_eq!(o.pods_on_drained, 0);
    // A spread deployment put pods on the victim, so the drain was real.
    assert!(!o.drained.is_empty());
    let _ = cluster_scale::ScalePlan::smoke();
}
