//! Property tests for the WASI layer: argument/environment marshalling
//! round-trips through guest memory for arbitrary inputs, and fd-table
//! operations never corrupt state. Runs on the offline `simkernel::prop`
//! harness.

use std::sync::Arc;

use simkernel::prop::check;
use simkernel::rng::SplitMix64;
use simkernel::{Kernel, KernelConfig, ProcessImage};
use wasi_sys::WasiCtx;
use wasm_core::{FuncType, Instance, InstanceConfig, ModuleBuilder, ValType};

/// A guest that calls args_sizes_get + args_get and leaves the raw argv
/// buffer in memory for the host to inspect.
fn args_probe_module() -> Arc<wasm_core::Module> {
    let mut b = ModuleBuilder::new();
    let sizes = b.import_func(
        "wasi_snapshot_preview1",
        "args_sizes_get",
        FuncType::new(vec![ValType::I32; 2], vec![ValType::I32]),
    );
    let get = b.import_func(
        "wasi_snapshot_preview1",
        "args_get",
        FuncType::new(vec![ValType::I32; 2], vec![ValType::I32]),
    );
    let mem = b.memory(4, None);
    b.export_memory("memory", mem);
    let f = b.func(FuncType::new(vec![], vec![]), |f| {
        f.i32_const(0).i32_const(4).call(sizes).drop_();
        f.i32_const(16).i32_const(4096).call(get).drop_();
    });
    b.export_func("probe", f);
    Arc::new(b.build())
}

/// Arguments without NUL (the C ABI boundary) up to 40 chars, including
/// multibyte characters.
fn gen_arg(g: &mut SplitMix64) -> String {
    const CHARS: &[char] = &['a', 'f', 'k', 'p', 'z', '0', '4', '9', '-', '/', 'é', '世'];
    g.string_upto(CHARS, 0, 40)
}

#[test]
fn argv_roundtrips_for_arbitrary_arguments() {
    check("argv_roundtrips_for_arbitrary_arguments", 64, |g| {
        let args: Vec<String> = (0..1 + g.index(7)).map(|_| gen_arg(g)).collect();
        let kernel = Kernel::boot(KernelConfig::default());
        let pid = ProcessImage::spawn(&kernel, "t", Kernel::ROOT_CGROUP).build().unwrap().detach();
        let ctx = WasiCtx::new(kernel, pid).args(args.clone());
        let mut inst = Instance::instantiate(
            args_probe_module(),
            ctx.into_imports(),
            InstanceConfig::default(),
        )
        .unwrap();
        inst.invoke("probe", &[]).unwrap();
        let mem = inst.memory().unwrap();
        assert_eq!(mem.load_u32(0, 0).unwrap(), args.len() as u32, "argc");
        // Walk the argv pointers and compare each NUL-terminated string.
        for (i, expected) in args.iter().enumerate() {
            let ptr = mem.load_u32(16 + 4 * i as u32, 0).unwrap();
            let bytes = mem.read_bytes(ptr, expected.len() as u32 + 1).unwrap();
            assert_eq!(&bytes[..expected.len()], expected.as_bytes());
            assert_eq!(bytes[expected.len()], 0, "NUL terminator");
        }
    });
}

#[test]
fn environ_sizes_are_consistent() {
    check("environ_sizes_are_consistent", 64, |g| {
        const KEY: &[char] = &['A', 'G', 'M', 'T', 'Z', '_'];
        let env: Vec<(String, String)> =
            (0..g.index(6)).map(|_| (g.string_upto(KEY, 1, 13), gen_arg(g))).collect();
        let kernel = Kernel::boot(KernelConfig::default());
        let pid = ProcessImage::spawn(&kernel, "t", Kernel::ROOT_CGROUP).build().unwrap().detach();
        let expected_buf: u32 = env.iter().map(|(k, v)| (k.len() + v.len() + 2) as u32).sum();
        let count = env.len() as u32;

        let mut b = ModuleBuilder::new();
        let sizes = b.import_func(
            "wasi_snapshot_preview1",
            "environ_sizes_get",
            FuncType::new(vec![ValType::I32; 2], vec![ValType::I32]),
        );
        let mem = b.memory(1, None);
        b.export_memory("memory", mem);
        // The count lands at 0 and the buffer size at 4: one i64, which
        // the guest returns.
        let f = b.func(FuncType::new(vec![], vec![ValType::I64]), |f| {
            f.i32_const(0).i32_const(4).call(sizes).drop_();
            f.i32_const(0).i64_load(0);
        });
        b.export_func("probe", f);
        let ctx = WasiCtx::new(kernel, pid).envs(env);
        let mut inst = Instance::instantiate(
            Arc::new(b.build()),
            ctx.into_imports(),
            InstanceConfig::default(),
        )
        .unwrap();
        let out = inst.invoke("probe", &[]).unwrap();
        let packed = out[0].as_i64().unwrap() as u64;
        assert_eq!(packed as u32, count);
        assert_eq!((packed >> 32) as u32, expected_buf);
    });
}

#[test]
fn random_get_fills_exactly_len_bytes() {
    check("random_get_fills_exactly_len_bytes", 64, |g| {
        let len = g.range_u64(0, 512) as u32;
        let seed = g.next_u64();
        let kernel = Kernel::boot(KernelConfig::default());
        let pid = ProcessImage::spawn(&kernel, "t", Kernel::ROOT_CGROUP).build().unwrap().detach();
        let mut b = ModuleBuilder::new();
        let random = b.import_func(
            "wasi_snapshot_preview1",
            "random_get",
            FuncType::new(vec![ValType::I32; 2], vec![ValType::I32]),
        );
        let mem = b.memory(1, None);
        b.export_memory("memory", mem);
        let f = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            f.i32_const(64).local_get(0).call(random);
        });
        b.export_func("probe", f);
        let ctx = WasiCtx::new(kernel, pid).random_seed(seed);
        let mut inst = Instance::instantiate(
            Arc::new(b.build()),
            ctx.into_imports(),
            InstanceConfig::default(),
        )
        .unwrap();
        let out = inst.invoke("probe", &[wasm_core::Value::I32(len as i32)]).unwrap();
        assert_eq!(out[0], wasm_core::Value::I32(0), "errno success");
        // Bytes beyond the requested length stay zero.
        let mem = inst.memory().unwrap();
        let after = mem.read_bytes(64 + len, 16).unwrap();
        assert!(after.iter().all(|b| *b == 0));
    });
}
