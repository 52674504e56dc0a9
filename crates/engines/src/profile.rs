//! Engine profiles: the calibrated design-point constants for the four
//! runtimes in the paper's Table I.
//!
//! Calibration sources: library sizes and baseline heaps are set to the
//! right order of magnitude for the released binaries of each engine
//! version (WAMR's `libiwasm.so` is ~1 MB; Wasmtime's `libwasmtime.so` is
//! >20 MB; Wasmer's shared library is the largest; WasmEdge sits between),
//! > and then tuned so the end-to-end per-container figures land in the
//! > bands the paper reports. The *relationships* between profiles (which is
//! > what the experiments measure) follow from the real design differences,
//! > not from these absolute numbers.

use simkernel::Duration;
use wasm_core::ExecTier;

/// Default instruction budget for a container workload's startup slice —
/// the single knob every execution path (crun handlers, wamr-crun, runwasi
/// shims, the sandbox API, the harness) shares.
pub const DEFAULT_STARTUP_FUEL: u64 = 500_000_000;

/// The engines evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EngineKind {
    Wamr,
    Wasmtime,
    Wasmer,
    WasmEdge,
}

impl EngineKind {
    pub const ALL: [EngineKind; 4] =
        [EngineKind::Wamr, EngineKind::Wasmtime, EngineKind::Wasmer, EngineKind::WasmEdge];

    pub fn profile(self) -> &'static EngineProfile {
        match self {
            EngineKind::Wamr => &WAMR,
            EngineKind::Wasmtime => &WASMTIME,
            EngineKind::Wasmer => &WASMER,
            EngineKind::WasmEdge => &WASMEDGE,
        }
    }
}

/// A runtime design point.
#[derive(Debug, Clone)]
pub struct EngineProfile {
    pub kind: EngineKind,
    pub name: &'static str,
    /// Version from the paper's Table I.
    pub version: &'static str,
    /// Path of the shared library in the simulated VFS.
    pub lib_path: &'static str,
    /// Size of the shared library file.
    pub lib_size: u64,
    /// Fraction of the library resident after dlopen (text + rodata used).
    pub lib_resident_fraction: f64,
    /// Private anonymous bytes the engine allocates at init (GOT/relocs,
    /// allocator arenas, signal/trap machinery, type registries) when
    /// embedded through its default C API with stock configuration — what
    /// the crun integrations link against.
    pub runtime_baseline: u64,
    /// Private bytes per instantiated module (metadata, trampolines).
    pub per_instance_overhead: u64,
    /// Baseline when embedded as a trimmed library build (the runwasi shims
    /// embed the engines as Rust crates with lean configurations; the
    /// difference is why containerd-shim-wasmtime places second in the
    /// paper's Figs. 5–7 while crun-Wasmtime does not).
    pub embedded_baseline: u64,
    /// Per-instance overhead for the trimmed embedding.
    pub embedded_per_instance: u64,
    /// Execution strategy of the shared Wasm core.
    pub tier: ExecTier,
    /// Multiplier on measured lowered-code bytes for codegen metadata
    /// (relocation tables, unwind info, trap maps). Only used when eager.
    pub code_metadata_factor: f64,
    /// Compile cost per bytecode byte (eager tiers only).
    pub compile_ns_per_byte: u64,
    /// Validation cost per bytecode byte (all engines validate at load).
    pub validate_ns_per_byte: u64,
    /// One-time engine initialization latency per process.
    pub init: Duration,
    /// Non-contending per-container load latency: mapping and verifying
    /// artifacts, guard-page setup, madvise (stock C-API embedding).
    pub load_io: Duration,
    /// Load latency for the trimmed crate embedding (runwasi, sandbox API).
    pub embedded_load_io: Duration,
    /// Cost of creating an instance (memories, tables, trampolines).
    pub instantiate: Duration,
    /// Simulated cost per retired Wasm instruction.
    pub exec_ns_per_instr: u64,
    /// Content-addressed on-disk code cache (Wasmtime's default-on cache).
    pub code_cache: bool,
    /// Directory for cache artifacts.
    pub cache_dir: &'static str,
}

/// WAMR 2.1.0: classic in-place interpreter, minimal footprint — the
/// engine the paper integrates into crun.
pub static WAMR: EngineProfile = EngineProfile {
    kind: EngineKind::Wamr,
    name: "wamr",
    version: "2.1.0",
    lib_path: "/usr/lib/libiwasm.so",
    lib_size: 1_200 << 10,
    lib_resident_fraction: 0.75,
    runtime_baseline: 900 << 10,
    per_instance_overhead: 160 << 10,
    embedded_baseline: 256 << 10,
    embedded_per_instance: 80 << 10,
    tier: ExecTier::InPlace,
    code_metadata_factor: 0.0,
    compile_ns_per_byte: 0,
    validate_ns_per_byte: 3,
    init: Duration::from_micros(250),
    load_io: Duration::from_micros(2_500),
    embedded_load_io: Duration::from_micros(1_500),
    instantiate: Duration::from_micros(120),
    exec_ns_per_instr: 370,
    code_cache: false,
    cache_dir: "",
};

/// WAMR with its AOT compiler enabled — the §VI "advanced runtime
/// optimizations" direction: same tiny library and baseline as the
/// interpreter build, but functions are eagerly lowered like the JIT
/// engines, trading per-container code memory for execution speed.
/// Explored by `cargo run -p harness --bin studies -- wamr-aot`.
pub static WAMR_AOT: EngineProfile = EngineProfile {
    kind: EngineKind::Wamr,
    name: "wamr-aot",
    version: "2.1.0",
    lib_path: "/usr/lib/libiwasm.so",
    lib_size: 1_200 << 10,
    lib_resident_fraction: 0.80,
    runtime_baseline: 1_000 << 10,
    per_instance_overhead: 200 << 10,
    embedded_baseline: 360 << 10,
    embedded_per_instance: 110 << 10,
    tier: ExecTier::Lowered,
    code_metadata_factor: 1.3,
    compile_ns_per_byte: 1_900,
    validate_ns_per_byte: 3,
    init: Duration::from_micros(300),
    load_io: Duration::from_micros(12_000),
    embedded_load_io: Duration::from_micros(7_000),
    instantiate: Duration::from_micros(150),
    exec_ns_per_instr: 30,
    code_cache: false,
    cache_dir: "",
};

/// Wasmtime 23.0.1: Cranelift JIT, eager compile, on-disk code cache.
pub static WASMTIME: EngineProfile = EngineProfile {
    kind: EngineKind::Wasmtime,
    name: "wasmtime",
    version: "23.0.1",
    lib_path: "/usr/lib/libwasmtime.so",
    lib_size: 22 << 20,
    lib_resident_fraction: 0.45,
    runtime_baseline: 6_300 << 10,
    per_instance_overhead: 640 << 10,
    embedded_baseline: 900 << 10,
    embedded_per_instance: 300 << 10,
    tier: ExecTier::Lowered,
    code_metadata_factor: 2.2,
    compile_ns_per_byte: 3_800,
    validate_ns_per_byte: 2,
    init: Duration::from_micros(2_300),
    load_io: Duration::from_micros(560_000),
    embedded_load_io: Duration::from_micros(280_000),
    instantiate: Duration::from_micros(300),
    exec_ns_per_instr: 16,
    code_cache: true,
    cache_dir: "/var/cache/wasmtime",
};

/// Wasmer 4.3.5: largest artifacts and baseline of the four.
pub static WASMER: EngineProfile = EngineProfile {
    kind: EngineKind::Wasmer,
    name: "wasmer",
    version: "4.3.5",
    lib_path: "/usr/lib/libwasmer.so",
    lib_size: 38 << 20,
    lib_resident_fraction: 0.5,
    runtime_baseline: 12 << 20,
    per_instance_overhead: 1_100 << 10,
    embedded_baseline: 21_500 << 10,
    embedded_per_instance: 900 << 10,
    tier: ExecTier::Lowered,
    code_metadata_factor: 3.0,
    compile_ns_per_byte: 5_200,
    validate_ns_per_byte: 2,
    init: Duration::from_micros(3_500),
    load_io: Duration::from_micros(650_000),
    embedded_load_io: Duration::from_micros(325_000),
    instantiate: Duration::from_micros(450),
    exec_ns_per_instr: 18,
    code_cache: false,
    cache_dir: "",
};

/// WasmEdge 0.14.0: between WAMR and the heavyweight JIT engines.
pub static WASMEDGE: EngineProfile = EngineProfile {
    kind: EngineKind::WasmEdge,
    name: "wasmedge",
    version: "0.14.0",
    lib_path: "/usr/lib/libwasmedge.so",
    lib_size: 11 << 20,
    lib_resident_fraction: 0.5,
    runtime_baseline: 6_500 << 10,
    per_instance_overhead: 420 << 10,
    embedded_baseline: 4_600 << 10,
    embedded_per_instance: 360 << 10,
    tier: ExecTier::Lowered,
    code_metadata_factor: 1.6,
    compile_ns_per_byte: 2_400,
    validate_ns_per_byte: 2,
    init: Duration::from_micros(1_200),
    load_io: Duration::from_micros(470_000),
    embedded_load_io: Duration::from_micros(235_000),
    instantiate: Duration::from_micros(250),
    exec_ns_per_instr: 50,
    code_cache: false,
    cache_dir: "",
};

impl EngineProfile {
    /// Resident library bytes after dlopen (its shared, page-cache part).
    pub fn lib_resident(&self) -> u64 {
        (self.lib_size as f64 * self.lib_resident_fraction) as u64
    }

    /// Is compilation eager (JIT/AOT) for this profile?
    pub fn eager_compile(&self) -> bool {
        self.tier == ExecTier::Lowered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wamr_is_the_lightest() {
        for kind in [EngineKind::Wasmtime, EngineKind::Wasmer, EngineKind::WasmEdge] {
            let p = kind.profile();
            assert!(p.lib_size > WAMR.lib_size * 5, "{:?} lib should dwarf WAMR", kind);
            assert!(p.runtime_baseline > WAMR.runtime_baseline * 4);
            assert!(p.per_instance_overhead > WAMR.per_instance_overhead);
        }
    }

    #[test]
    fn wasmer_is_the_heaviest() {
        for kind in [EngineKind::Wamr, EngineKind::Wasmtime, EngineKind::WasmEdge] {
            let p = kind.profile();
            assert!(WASMER.runtime_baseline >= p.runtime_baseline);
            assert!(WASMER.lib_size >= p.lib_size);
        }
    }

    #[test]
    fn only_wamr_interprets_in_place() {
        assert_eq!(WAMR.tier, ExecTier::InPlace);
        assert!(!WAMR.eager_compile());
        for kind in [EngineKind::Wasmtime, EngineKind::Wasmer, EngineKind::WasmEdge] {
            assert!(kind.profile().eager_compile());
        }
    }

    #[test]
    fn only_wasmtime_has_code_cache() {
        assert!(WASMTIME.code_cache);
        assert!(!WAMR.code_cache && !WASMER.code_cache && !WASMEDGE.code_cache);
    }

    #[test]
    fn versions_match_paper_table_one() {
        assert_eq!(EngineKind::Wamr.profile().version, "2.1.0");
        assert_eq!(EngineKind::Wasmtime.profile().version, "23.0.1");
        assert_eq!(EngineKind::Wasmer.profile().version, "4.3.5");
        assert_eq!(EngineKind::WasmEdge.profile().version, "0.14.0");
    }
}
