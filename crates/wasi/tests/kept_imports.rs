//! The WASI surface is the one the guests call: output, the clock and the
//! process interface. A module importing any other preview-1 function does
//! not instantiate, and the error names the function.

use std::sync::Arc;

use simkernel::{Kernel, KernelConfig, ProcessImage};
use wasi_sys::WasiCtx;
use wasm_core::instance::InstantiateError;
use wasm_core::{FuncType, Instance, InstanceConfig, ModuleBuilder, ValType};

const WASI: &str = "wasi_snapshot_preview1";

/// The functions `WasiCtx::into_imports` registers.
const KEPT: [&str; 7] = [
    "fd_write",
    "clock_time_get",
    "args_sizes_get",
    "args_get",
    "environ_sizes_get",
    "environ_get",
    "proc_exit",
];

/// Preview-1 functions no guest calls, and which are not served.
const NOT_SERVED: [&str; 8] = [
    "fd_read",
    "fd_close",
    "fd_prestat_get",
    "fd_prestat_dir_name",
    "path_open",
    "fd_seek",
    "random_get",
    "sched_yield",
];

/// Instantiate a module whose only import is `name`.
fn instantiate_importing(name: &str) -> Result<Instance, InstantiateError> {
    let mut b = ModuleBuilder::new();
    b.import_func(WASI, name, FuncType::new(vec![ValType::I32], vec![ValType::I32]));
    let mem = b.memory(1, None);
    b.export_memory("memory", mem);
    let kernel = Kernel::boot(KernelConfig::default());
    let pid = ProcessImage::spawn(&kernel, "t", Kernel::ROOT_CGROUP).build().unwrap().detach();
    let imports = WasiCtx::new(kernel, pid).into_imports();
    Instance::instantiate(Arc::new(b.build()), imports, InstanceConfig::default())
}

#[test]
fn every_kept_function_resolves() {
    for name in KEPT {
        if let Err(e) = instantiate_importing(name) {
            panic!("{name}: {e}");
        }
    }
}

#[test]
fn a_function_outside_the_kept_set_is_a_missing_import() {
    for name in NOT_SERVED {
        match instantiate_importing(name) {
            Err(InstantiateError::MissingImport(module, missing)) => {
                assert_eq!((module.as_str(), missing.as_str()), (WASI, name));
            }
            Err(e) => panic!("{name}: {e}"),
            Ok(_) => panic!("{name} resolved"),
        }
    }
}
