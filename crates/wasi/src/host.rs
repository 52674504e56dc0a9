//! Host-function implementations for the WASI preview-1 subset.

use wasm_core::instance::Imports;
use wasm_core::{LinearMemory, Trap, Value};

use crate::ctx::WasiCtx;
use crate::errno::Errno;

const MODULE: &str = "wasi_snapshot_preview1";

fn i32_arg(args: &[Value], i: usize) -> Result<u32, Trap> {
    args.get(i)
        .and_then(|v| v.as_i32())
        .map(|v| v as u32)
        .ok_or_else(|| Trap::HostError(format!("bad wasi argument {i}")))
}

fn mem(memory: &mut Option<LinearMemory>) -> Result<&mut LinearMemory, Trap> {
    memory.as_mut().ok_or_else(|| Trap::HostError("wasi call without memory export".into()))
}

fn ok(e: Errno) -> Result<Vec<Value>, Trap> {
    Ok(vec![Value::I32(e.raw())])
}

/// Wire every supported WASI function into an import set.
pub(crate) fn build_imports(ctx: WasiCtx) -> Imports {
    let WasiCtx { state, stdout, stderr } = ctx;
    let mut imports = Imports::new();

    // args_sizes_get(argc: *u32, argv_buf_size: *u32) -> errno
    {
        let st = state.clone();
        imports.register(
            MODULE,
            "args_sizes_get",
            Box::new(move |memory, args| {
                let m = mem(memory)?;
                let s = st.borrow();
                let argc = s.args.len() as u32;
                let buf: u32 = s.args.iter().map(|a| a.len() as u32 + 1).sum();
                m.store_u32(i32_arg(args, 0)?, 0, argc)?;
                m.store_u32(i32_arg(args, 1)?, 0, buf)?;
                ok(Errno::Success)
            }),
        );
    }

    // args_get(argv: *u32, argv_buf: *u8) -> errno
    {
        let st = state.clone();
        imports.register(
            MODULE,
            "args_get",
            Box::new(move |memory, args| {
                let m = mem(memory)?;
                let s = st.borrow();
                let mut argv = i32_arg(args, 0)?;
                let mut buf = i32_arg(args, 1)?;
                for a in &s.args {
                    m.store_u32(argv, 0, buf)?;
                    m.write_bytes(buf, a.as_bytes())?;
                    m.write_bytes(buf + a.len() as u32, &[0])?;
                    buf += a.len() as u32 + 1;
                    argv += 4;
                }
                ok(Errno::Success)
            }),
        );
    }

    // environ_sizes_get / environ_get — same shape as args.
    {
        let st = state.clone();
        imports.register(
            MODULE,
            "environ_sizes_get",
            Box::new(move |memory, args| {
                let m = mem(memory)?;
                let s = st.borrow();
                let count = s.env.len() as u32;
                let buf: u32 = s.env.iter().map(|(k, v)| (k.len() + v.len() + 2) as u32).sum();
                m.store_u32(i32_arg(args, 0)?, 0, count)?;
                m.store_u32(i32_arg(args, 1)?, 0, buf)?;
                ok(Errno::Success)
            }),
        );
    }
    {
        let st = state.clone();
        imports.register(
            MODULE,
            "environ_get",
            Box::new(move |memory, args| {
                let m = mem(memory)?;
                let s = st.borrow();
                let mut envp = i32_arg(args, 0)?;
                let mut buf = i32_arg(args, 1)?;
                for (k, v) in &s.env {
                    let entry = format!("{k}={v}");
                    m.store_u32(envp, 0, buf)?;
                    m.write_bytes(buf, entry.as_bytes())?;
                    m.write_bytes(buf + entry.len() as u32, &[0])?;
                    buf += entry.len() as u32 + 1;
                    envp += 4;
                }
                ok(Errno::Success)
            }),
        );
    }

    // fd_write(fd, iovs, iovs_len, nwritten) -> errno
    imports.register(
        MODULE,
        "fd_write",
        Box::new(move |memory, args| {
            let m = mem(memory)?;
            let fd = i32_arg(args, 0)?;
            let iovs = i32_arg(args, 1)?;
            let iovs_len = i32_arg(args, 2)?;
            let nwritten_ptr = i32_arg(args, 3)?;
            let sink = match fd {
                1 => &stdout,
                2 => &stderr,
                _ => return ok(Errno::BadF),
            };
            let mut written = 0u32;
            for i in 0..iovs_len {
                let base = m.load_u32(iovs + i * 8, 0)?;
                let len = m.load_u32(iovs + i * 8, 4)?;
                sink.borrow_mut().extend_from_slice(m.read_bytes(base, len)?);
                written += len;
            }
            m.store_u32(nwritten_ptr, 0, written)?;
            ok(Errno::Success)
        }),
    );

    // clock_time_get(id, precision: i64, time: *u64) -> errno
    imports.register(
        MODULE,
        "clock_time_get",
        Box::new(move |memory, args| {
            let m = mem(memory)?;
            let time_ptr = i32_arg(args, 2)?;
            let now = state.borrow().world().0.now().as_nanos();
            m.store_u64(time_ptr, 0, now)?;
            ok(Errno::Success)
        }),
    );

    // proc_exit(code) — unwinds execution with Trap::Exit.
    imports.register(
        MODULE,
        "proc_exit",
        Box::new(move |_, args| Err(Trap::Exit(i32_arg(args, 0)? as i32))),
    );

    imports
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use simkernel::{Kernel, KernelConfig, ProcessImage};
    use wasm_core::{FuncType, Instance, InstanceConfig, ModuleBuilder, Trap, ValType, Value};

    use crate::WasiCtx;

    fn kernel_and_pid() -> (Kernel, simkernel::Pid) {
        let kernel = Kernel::boot(KernelConfig::default());
        let pid = ProcessImage::spawn(&kernel, "t", Kernel::ROOT_CGROUP).build().unwrap().detach();
        (kernel, pid)
    }

    fn wasi_sig(n: usize) -> FuncType {
        FuncType::new(vec![ValType::I32; n], vec![ValType::I32])
    }

    #[test]
    fn args_roundtrip_through_guest() {
        // Guest: call args_sizes_get(0, 4), then args_get(8, 64); the host
        // reads the arg count and the argv[0] pointer back.
        let mut b = ModuleBuilder::new();
        let sizes = b.import_func("wasi_snapshot_preview1", "args_sizes_get", wasi_sig(2));
        let get = b.import_func("wasi_snapshot_preview1", "args_get", wasi_sig(2));
        let mem = b.memory(1, None);
        b.export_memory("memory", mem);
        let f = b.func(FuncType::new(vec![], vec![]), |f| {
            f.i32_const(0).i32_const(4).call(sizes).drop_();
            f.i32_const(8).i32_const(64).call(get).drop_();
        });
        b.export_func("main", f);

        let (kernel, pid) = kernel_and_pid();
        let ctx = WasiCtx::new(kernel, pid).arg("svc").arg("--port").arg("80");
        let mut inst = Instance::instantiate(
            Arc::new(b.build()),
            ctx.into_imports(),
            InstanceConfig::default(),
        )
        .unwrap();
        inst.invoke("main", &[]).unwrap();
        let m = inst.memory().unwrap();
        assert_eq!(m.load_u32(0, 0).unwrap(), 3, "argc");
        // argv buffer holds NUL-terminated strings.
        let argv0_ptr = m.load_u32(8, 0).unwrap();
        assert_eq!(m.read_bytes(argv0_ptr, 4).unwrap(), b"svc\0");
    }

    #[test]
    fn environ_written() {
        let mut b = ModuleBuilder::new();
        let sizes = b.import_func("wasi_snapshot_preview1", "environ_sizes_get", wasi_sig(2));
        let get = b.import_func("wasi_snapshot_preview1", "environ_get", wasi_sig(2));
        let mem = b.memory(1, None);
        b.export_memory("memory", mem);
        let f = b.func(FuncType::new(vec![], vec![]), |f| {
            f.i32_const(0).i32_const(4).call(sizes).drop_();
            f.i32_const(8).i32_const(64).call(get).drop_();
        });
        b.export_func("go", f);
        let (kernel, pid) = kernel_and_pid();
        let ctx = WasiCtx::new(kernel, pid).env("PATH", "/bin");
        let mut inst = Instance::instantiate(
            Arc::new(b.build()),
            ctx.into_imports(),
            InstanceConfig::default(),
        )
        .unwrap();
        inst.invoke("go", &[]).unwrap();
        let m = inst.memory().unwrap();
        let ptr = m.load_u32(8, 0).unwrap();
        assert_eq!(m.read_bytes(ptr, 10).unwrap(), b"PATH=/bin\0");
    }

    #[test]
    fn proc_exit_unwinds_with_the_code() {
        let mut b = ModuleBuilder::new();
        let exit = b.import_func(
            "wasi_snapshot_preview1",
            "proc_exit",
            FuncType::new(vec![ValType::I32], vec![]),
        );
        let f = b.func(FuncType::new(vec![], vec![]), |f| {
            f.i32_const(3).call(exit);
        });
        b.export_func("_start", f);
        let (kernel, pid) = kernel_and_pid();
        let ctx = WasiCtx::new(kernel, pid);
        let mut inst = Instance::instantiate(
            Arc::new(b.build()),
            ctx.into_imports(),
            InstanceConfig::default(),
        )
        .unwrap();
        assert_eq!(inst.invoke("_start", &[]), Err(Trap::Exit(3)));
    }

    #[test]
    fn clock_reads_the_kernel_time() {
        let mut b = ModuleBuilder::new();
        let clock = b.import_func("wasi_snapshot_preview1", "clock_time_get", {
            FuncType::new(vec![ValType::I32, ValType::I64, ValType::I32], vec![ValType::I32])
        });
        let mem = b.memory(1, None);
        b.export_memory("memory", mem);
        let f = b.func(FuncType::new(vec![], vec![ValType::I64]), |f| {
            f.i32_const(0).i64_const(0).i32_const(16).call(clock).drop_();
            f.i32_const(0).i64_load(16);
        });
        b.export_func("main", f);
        let (kernel, pid) = kernel_and_pid();
        kernel.advance(simkernel::Duration::from_secs(5));
        let ctx = WasiCtx::new(kernel, pid);
        let mut inst = Instance::instantiate(
            Arc::new(b.build()),
            ctx.into_imports(),
            InstanceConfig::default(),
        )
        .unwrap();
        let out = inst.invoke("main", &[]).unwrap();
        assert_eq!(out, vec![Value::I64(5_000_000_000)]);
    }

    /// One guest per host function, each calling just that function: the
    /// clock reaches the kernel and leaves the context marked, the rest do
    /// not — stdio, arguments, environment and `proc_exit` are all inside
    /// the context.
    #[test]
    fn only_the_kernel_reading_host_functions_mark_the_context() {
        use Value::{I32, I64};
        let cases: [(&str, &[Value], bool); 8] = [
            ("args_sizes_get", &[I32(0), I32(4)], false),
            ("args_get", &[I32(8), I32(64)], false),
            ("environ_sizes_get", &[I32(0), I32(4)], false),
            ("environ_get", &[I32(8), I32(64)], false),
            ("fd_write", &[I32(1), I32(8), I32(0), I32(16)], false),
            ("fd_write", &[I32(0), I32(8), I32(0), I32(16)], false), // EBADF
            ("clock_time_get", &[I32(0), I64(0), I32(16)], true),
            ("proc_exit", &[I32(0)], false),
        ];
        for (name, args, observes) in cases {
            let mut b = ModuleBuilder::new();
            let params = args.iter().map(|v| v.ty()).collect();
            let results = if name == "proc_exit" { vec![] } else { vec![ValType::I32] };
            let host =
                b.import_func("wasi_snapshot_preview1", name, FuncType::new(params, results));
            let mem = b.memory(1, None);
            b.export_memory("memory", mem);
            let go = b.func(FuncType::new(vec![], vec![]), |f| {
                for arg in args {
                    match *arg {
                        I32(v) => f.i32_const(v),
                        I64(v) => f.i64_const(v),
                    };
                }
                f.call(host);
                if name != "proc_exit" {
                    f.drop_();
                }
            });
            b.export_func("go", go);

            let (kernel, pid) = kernel_and_pid();
            let ctx = WasiCtx::new(kernel, pid).arg("svc").env("K", "v");
            let mark = ctx.world_mark();
            let mut inst = Instance::instantiate(
                Arc::new(b.build()),
                ctx.into_imports(),
                InstanceConfig::default(),
            )
            .unwrap();
            assert!(!mark.observed(), "{name}: building the context observes nothing");
            match inst.invoke("go", &[]) {
                Ok(_) | Err(Trap::Exit(0)) => {}
                Err(t) => panic!("{name}: {t}"),
            }
            assert_eq!(mark.observed(), observes, "{name}{args:?}");
        }
    }

    #[test]
    fn fd_write_to_stderr() {
        let mut b = ModuleBuilder::new();
        let fd_write = b.import_func("wasi_snapshot_preview1", "fd_write", wasi_sig(4));
        let mem = b.memory(1, None);
        b.export_memory("memory", mem);
        b.data(0, &b"err!"[..]);
        b.data(8, &[0u8, 0, 0, 0, 4, 0, 0, 0][..]);
        let f = b.func(FuncType::new(vec![], vec![]), |f| {
            f.i32_const(2).i32_const(8).i32_const(1).i32_const(16).call(fd_write).drop_();
        });
        b.export_func("go", f);
        let (kernel, pid) = kernel_and_pid();
        let ctx = WasiCtx::new(kernel, pid);
        let stderr = ctx.stderr_handle();
        let mut inst = Instance::instantiate(
            Arc::new(b.build()),
            ctx.into_imports(),
            InstanceConfig::default(),
        )
        .unwrap();
        inst.invoke("go", &[]).unwrap();
        assert_eq!(&*stderr.borrow(), b"err!");
    }

    #[test]
    fn bad_fd_errors() {
        let mut b = ModuleBuilder::new();
        let fd_write = b.import_func("wasi_snapshot_preview1", "fd_write", wasi_sig(4));
        let mem = b.memory(1, None);
        b.export_memory("memory", mem);
        // fd 99 was never open; fd 0, stdin, is not writable.
        let f = b.func(FuncType::new(vec![], vec![ValType::I32]), |f| {
            f.i32_const(99).i32_const(0).i32_const(0).i32_const(0).call(fd_write);
            f.i32_const(0).i32_const(0).i32_const(0).i32_const(0).call(fd_write);
            f.op(wasm_core::Instruction::I32Add);
        });
        b.export_func("go", f);
        let (kernel, pid) = kernel_and_pid();
        let ctx = WasiCtx::new(kernel, pid);
        let mut inst = Instance::instantiate(
            Arc::new(b.build()),
            ctx.into_imports(),
            InstanceConfig::default(),
        )
        .unwrap();
        // badf(8) + badf(8) = 16
        assert_eq!(inst.invoke("go", &[]).unwrap(), vec![Value::I32(16)]);
    }
}
