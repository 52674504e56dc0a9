//! Host-function implementations for the WASI preview-1 subset.

use std::cell::RefCell;
use std::rc::Rc;

use wasm_core::instance::Imports;
use wasm_core::{LinearMemory, Trap, Value};

use crate::ctx::{FdEntry, WasiState};
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
pub(crate) fn build_imports(state: Rc<RefCell<WasiState>>) -> Imports {
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
    {
        let st = state.clone();
        imports.register(
            MODULE,
            "fd_write",
            Box::new(move |memory, args| {
                let m = mem(memory)?;
                let s = st.borrow();
                let fd = i32_arg(args, 0)? as usize;
                let iovs = i32_arg(args, 1)?;
                let iovs_len = i32_arg(args, 2)?;
                let nwritten_ptr = i32_arg(args, 3)?;
                let Some(Some(entry)) = s.fds.get(fd) else {
                    return ok(Errno::BadF);
                };
                let sink = match entry {
                    FdEntry::Stdio(h) => h.clone(),
                    FdEntry::Stdin | FdEntry::PreopenDir { .. } | FdEntry::File { .. } => {
                        return ok(Errno::BadF)
                    }
                };
                drop(s);
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
    }

    // fd_read(fd, iovs, iovs_len, nread) -> errno
    {
        let st = state.clone();
        imports.register(
            MODULE,
            "fd_read",
            Box::new(move |memory, args| {
                let m = mem(memory)?;
                let fd = i32_arg(args, 0)? as usize;
                let iovs = i32_arg(args, 1)?;
                let iovs_len = i32_arg(args, 2)?;
                let nread_ptr = i32_arg(args, 3)?;
                let mut s = st.borrow_mut();
                let (file, offset) = match s.fds.get(fd) {
                    Some(Some(FdEntry::Stdin)) => {
                        // EOF.
                        m.store_u32(nread_ptr, 0, 0)?;
                        return ok(Errno::Success);
                    }
                    Some(Some(FdEntry::File { file, offset })) => (*file, *offset),
                    _ => return ok(Errno::BadF),
                };
                // Fault the file via the kernel (charges the container's
                // cgroup) and copy from its content.
                let (kernel, pid) = s.world();
                let content = match kernel.read_file(pid, file) {
                    Ok(Some(bytes)) => bytes,
                    Ok(None) => return ok(Errno::Io), // synthetic file
                    Err(_) => return ok(Errno::NoEnt),
                };
                let mut read_total = 0u32;
                let mut pos = offset as usize;
                for i in 0..iovs_len {
                    let base = m.load_u32(iovs + i * 8, 0)?;
                    let len = m.load_u32(iovs + i * 8, 4)? as usize;
                    let available = content.len().saturating_sub(pos);
                    let n = len.min(available);
                    if n == 0 {
                        break;
                    }
                    m.write_bytes(base, &content[pos..pos + n])?;
                    pos += n;
                    read_total += n as u32;
                }
                if let Some(Some(FdEntry::File { offset, .. })) = s.fds.get_mut(fd) {
                    *offset = pos as u64;
                }
                m.store_u32(nread_ptr, 0, read_total)?;
                ok(Errno::Success)
            }),
        );
    }

    // fd_close(fd) -> errno
    {
        let st = state.clone();
        imports.register(
            MODULE,
            "fd_close",
            Box::new(move |_, args| {
                let fd = i32_arg(args, 0)? as usize;
                let mut s = st.borrow_mut();
                if fd < 3 || fd >= s.fds.len() || s.fds[fd].is_none() {
                    return ok(Errno::BadF);
                }
                s.fds[fd] = None;
                ok(Errno::Success)
            }),
        );
    }

    // fd_prestat_get(fd, buf: *prestat) -> errno
    {
        let st = state.clone();
        imports.register(
            MODULE,
            "fd_prestat_get",
            Box::new(move |memory, args| {
                let m = mem(memory)?;
                let fd = i32_arg(args, 0)? as usize;
                let buf = i32_arg(args, 1)?;
                let s = st.borrow();
                match s.fds.get(fd) {
                    Some(Some(FdEntry::PreopenDir { guest_path })) => {
                        m.store_u32(buf, 0, 0)?; // tag: dir
                        m.store_u32(buf, 4, guest_path.len() as u32)?;
                        ok(Errno::Success)
                    }
                    _ => ok(Errno::BadF),
                }
            }),
        );
    }

    // fd_prestat_dir_name(fd, path: *u8, path_len) -> errno
    {
        let st = state.clone();
        imports.register(
            MODULE,
            "fd_prestat_dir_name",
            Box::new(move |memory, args| {
                let m = mem(memory)?;
                let fd = i32_arg(args, 0)? as usize;
                let path = i32_arg(args, 1)?;
                let path_len = i32_arg(args, 2)? as usize;
                let s = st.borrow();
                match s.fds.get(fd) {
                    Some(Some(FdEntry::PreopenDir { guest_path })) => {
                        if guest_path.len() > path_len {
                            return ok(Errno::Inval);
                        }
                        m.write_bytes(path, guest_path.as_bytes())?;
                        ok(Errno::Success)
                    }
                    _ => ok(Errno::BadF),
                }
            }),
        );
    }

    // path_open(dir_fd, dirflags, path, path_len, oflags, rights_base,
    //           rights_inheriting, fdflags, opened_fd: *u32) -> errno
    {
        let st = state.clone();
        imports.register(
            MODULE,
            "path_open",
            Box::new(move |memory, args| {
                let m = mem(memory)?;
                let dir_fd = i32_arg(args, 0)? as usize;
                let path_ptr = i32_arg(args, 2)?;
                let path_len = i32_arg(args, 3)?;
                let opened_ptr = i32_arg(args, 8)?;
                let rel = String::from_utf8(m.read_bytes(path_ptr, path_len)?.to_vec())
                    .map_err(|_| Trap::HostError("non-utf8 path".into()))?;
                let mut s = st.borrow_mut();
                let Some(host_path) = s.resolve(dir_fd, &rel) else {
                    return ok(Errno::NotCapable);
                };
                let Ok(file) = s.world().0.lookup(&host_path) else {
                    return ok(Errno::NoEnt);
                };
                let fd = s.alloc_fd(FdEntry::File { file, offset: 0 });
                m.store_u32(opened_ptr, 0, fd as u32)?;
                ok(Errno::Success)
            }),
        );
    }

    // fd_seek(fd, offset: i64, whence, newoffset: *u64) -> errno
    {
        let st = state.clone();
        imports.register(
            MODULE,
            "fd_seek",
            Box::new(move |memory, args| {
                let m = mem(memory)?;
                let fd = i32_arg(args, 0)? as usize;
                let delta = args
                    .get(1)
                    .and_then(|v| v.as_i64())
                    .ok_or_else(|| Trap::HostError("fd_seek offset".into()))?;
                let whence = i32_arg(args, 2)?;
                let new_ptr = i32_arg(args, 3)?;
                let mut s = st.borrow_mut();
                let kernel = s.world().0.clone();
                let Some(Some(FdEntry::File { file, offset })) = s.fds.get_mut(fd) else {
                    return ok(Errno::BadF);
                };
                let size = kernel.file_size(*file).unwrap_or(0) as i64;
                let base = match whence {
                    0 => 0,
                    1 => *offset as i64,
                    2 => size,
                    _ => return ok(Errno::Inval),
                };
                // Both operands are the guest's: a sum past either end of
                // the i64 range is as invalid as a negative one.
                let Some(new) = base.checked_add(delta).filter(|&n| n >= 0) else {
                    return ok(Errno::Inval);
                };
                *offset = new as u64;
                m.store_u64(new_ptr, 0, new as u64)?;
                ok(Errno::Success)
            }),
        );
    }

    // clock_time_get(id, precision: i64, time: *u64) -> errno
    {
        let st = state.clone();
        imports.register(
            MODULE,
            "clock_time_get",
            Box::new(move |memory, args| {
                let m = mem(memory)?;
                let time_ptr = i32_arg(args, 2)?;
                let now = st.borrow().world().0.now().as_nanos();
                m.store_u64(time_ptr, 0, now)?;
                ok(Errno::Success)
            }),
        );
    }

    // random_get(buf, buf_len) -> errno — deterministic xorshift.
    {
        let st = state.clone();
        imports.register(
            MODULE,
            "random_get",
            Box::new(move |memory, args| {
                let m = mem(memory)?;
                let buf = i32_arg(args, 0)?;
                let len = i32_arg(args, 1)?;
                // The guest names the length: check the destination before
                // generating, and generate straight into it, so that no
                // host work or allocation is sized by `len` alone.
                m.read_bytes(buf, len)?;
                let mut s = st.borrow_mut();
                for at in (0..len).step_by(8) {
                    s.rng ^= s.rng << 13;
                    s.rng ^= s.rng >> 7;
                    s.rng ^= s.rng << 17;
                    let word = s.rng.to_le_bytes();
                    m.write_bytes(buf + at, &word[..word.len().min((len - at) as usize)])?;
                }
                ok(Errno::Success)
            }),
        );
    }

    // sched_yield() -> errno
    imports.register(MODULE, "sched_yield", Box::new(move |_, _| ok(Errno::Success)));

    // proc_exit(code) — unwinds execution with Trap::Exit.
    {
        let st = state.clone();
        imports.register(
            MODULE,
            "proc_exit",
            Box::new(move |_, args| {
                let code = i32_arg(args, 0)? as i32;
                st.borrow_mut().exit_code = Some(code);
                Err(Trap::Exit(code))
            }),
        );
    }

    imports
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use simkernel::vfs::FileContent;
    use simkernel::{Kernel, KernelConfig, ProcessImage};
    use wasm_core::{
        ExecTier, FuncType, Instance, InstanceConfig, ModuleBuilder, Trap, ValType, Value,
    };

    use crate::errno::Errno;
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
    fn proc_exit_unwinds_and_records() {
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
        let exit_probe = ctx.state.clone();
        let mut inst = Instance::instantiate(
            Arc::new(b.build()),
            ctx.into_imports(),
            InstanceConfig::default(),
        )
        .unwrap();
        assert_eq!(inst.invoke("_start", &[]), Err(Trap::Exit(3)));
        assert_eq!(exit_probe.borrow().exit_code, Some(3));
    }

    #[test]
    fn path_open_and_read_from_preopen() {
        let (kernel, pid) = kernel_and_pid();
        kernel
            .create_file(
                "/containers/c1/rootfs/data/config.txt",
                FileContent::Bytes(bytelite::Bytes::from_static(b"threads=4")),
            )
            .unwrap();

        // Guest: `open` opens "config.txt" under preopen fd 3 (the fd lands
        // at 64); `read(fd)` reads up to 64 bytes to address 128 (nread
        // lands at 80). The host carries the fd from one to the other.
        let mut b = ModuleBuilder::new();
        let path_open = b.import_func("wasi_snapshot_preview1", "path_open", {
            let mut params = vec![ValType::I32; 9];
            params[1] = ValType::I32;
            FuncType::new(params, vec![ValType::I32])
        });
        let fd_read = b.import_func("wasi_snapshot_preview1", "fd_read", wasi_sig(4));
        let mem = b.memory(1, None);
        b.export_memory("memory", mem);
        b.data(0, &b"config.txt"[..]);
        let open = b.func(FuncType::new(vec![], vec![]), |f| {
            // path_open(3, 0, 0, 10, 0, 0, 0, 0, 64)
            f.i32_const(3)
                .i32_const(0)
                .i32_const(0)
                .i32_const(10)
                .i32_const(0)
                .i32_const(0)
                .i32_const(0)
                .i32_const(0)
                .i32_const(64)
                .call(path_open)
                .drop_();
            // iovec at 72: { ptr: 128, len: 64 }
            f.i32_const(72).i32_const(128).i32_store(0);
            f.i32_const(76).i32_const(64).i32_store(0);
        });
        b.export_func("open", open);
        let read = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            // fd_read(fd, 72, 1, 80)
            f.local_get(0).i32_const(72).i32_const(1).i32_const(80).call(fd_read);
        });
        b.export_func("read", read);

        let ctx = WasiCtx::new(kernel.clone(), pid).preopen("/data", "/containers/c1/rootfs/data");
        let mut inst = Instance::instantiate(
            Arc::new(b.build()),
            ctx.into_imports(),
            InstanceConfig::default(),
        )
        .unwrap();
        inst.invoke("open", &[]).unwrap();
        let fd = inst.memory().unwrap().load_u32(64, 0).unwrap();
        assert_eq!(inst.invoke("read", &[Value::I32(fd as i32)]).unwrap(), vec![Value::I32(0)]);
        let m = inst.memory().unwrap();
        assert_eq!(m.load_u32(80, 0).unwrap(), 9, "nread");
        assert_eq!(m.read_bytes(128, 9).unwrap(), b"threads=4");
        // The read charged the file into the page cache.
        let file = kernel.lookup("/containers/c1/rootfs/data/config.txt").unwrap();
        assert!(kernel.file_cached(file).unwrap() > 0);
    }

    #[test]
    fn clock_and_random_are_deterministic() {
        let mut b = ModuleBuilder::new();
        let clock = b.import_func("wasi_snapshot_preview1", "clock_time_get", {
            FuncType::new(vec![ValType::I32, ValType::I64, ValType::I32], vec![ValType::I32])
        });
        let random = b.import_func("wasi_snapshot_preview1", "random_get", wasi_sig(2));
        let mem = b.memory(1, None);
        b.export_memory("memory", mem);
        let f = b.func(FuncType::new(vec![], vec![ValType::I64]), |f| {
            f.i32_const(0).i64_const(0).i32_const(16).call(clock).drop_();
            f.i32_const(32).i32_const(8).call(random).drop_();
            f.i32_const(0).i64_load(16);
        });
        b.export_func("main", f);
        let (kernel, pid) = kernel_and_pid();
        kernel.advance(simkernel::Duration::from_secs(5));
        let ctx = WasiCtx::new(kernel, pid).random_seed(42);
        let mut inst = Instance::instantiate(
            Arc::new(b.build()),
            ctx.into_imports(),
            InstanceConfig::default(),
        )
        .unwrap();
        let out = inst.invoke("main", &[]).unwrap();
        assert_eq!(out, vec![Value::I64(5_000_000_000)]);
        let r1 = inst.memory().unwrap().load_u64(32, 0).unwrap();
        assert_ne!(r1, 0, "random bytes written");
    }

    #[test]
    fn fd_seek_past_the_i64_range_is_inval_and_leaves_the_offset() {
        // Guest: `open` opens "f" under preopen fd 3 (fd stored at 64);
        // `seek(fd)` seeks to i64::MAX from the start, seeks i64::MAX
        // further from there (errno kept at 120, new offset would land at
        // 104), then asks where the offset is (at 112). The host carries
        // the fd from one to the other.
        let mut b = ModuleBuilder::new();
        let path_open = b.import_func("wasi_snapshot_preview1", "path_open", wasi_sig(9));
        let fd_seek = b.import_func(
            "wasi_snapshot_preview1",
            "fd_seek",
            FuncType::new(
                vec![ValType::I32, ValType::I64, ValType::I32, ValType::I32],
                vec![ValType::I32],
            ),
        );
        let mem = b.memory(1, None);
        b.export_memory("memory", mem);
        b.data(0, &b"f"[..]);
        let open = b.func(FuncType::new(vec![], vec![]), |f| {
            f.i32_const(3).i32_const(0).i32_const(0).i32_const(1);
            f.i32_const(0).i32_const(0).i32_const(0).i32_const(0).i32_const(64);
            f.call(path_open).drop_();
        });
        b.export_func("open", open);
        let seek = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            f.local_get(0).i64_const(i64::MAX).i32_const(0).i32_const(96);
            f.call(fd_seek).drop_();
            f.i32_const(120);
            f.local_get(0).i64_const(i64::MAX).i32_const(1).i32_const(104);
            f.call(fd_seek).i32_store(0);
            f.local_get(0).i64_const(0).i32_const(1).i32_const(112);
            f.call(fd_seek);
        });
        b.export_func("seek", seek);
        let module = Arc::new(b.build());

        for tier in [ExecTier::InPlace, ExecTier::Lowered] {
            let (kernel, pid) = kernel_and_pid();
            let content = FileContent::Bytes(bytelite::Bytes::from_static(b"x"));
            kernel.create_file("/rootfs/data/f", content).unwrap();
            let ctx = WasiCtx::new(kernel, pid).preopen("/data", "/rootfs/data");
            let config = InstanceConfig { tier, ..Default::default() };
            let mut inst =
                Instance::instantiate(module.clone(), ctx.into_imports(), config).unwrap();
            inst.invoke("open", &[]).unwrap();
            let fd = Value::I32(inst.memory().unwrap().load_u32(64, 0).unwrap() as i32);
            assert_eq!(inst.invoke("seek", &[fd]).unwrap(), vec![Value::I32(0)], "{tier:?}");
            let m = inst.memory().unwrap();
            assert_eq!(m.load_u32(120, 0).unwrap(), Errno::Inval.raw() as u32, "{tier:?}");
            assert_eq!(m.load_u64(104, 0).unwrap(), 0, "{tier:?}: no offset reported");
            assert_eq!(m.load_u64(112, 0).unwrap(), i64::MAX as u64, "{tier:?}");
        }
    }

    #[test]
    fn random_get_checks_the_destination_before_it_generates() {
        // `huge` asks for 4 GiB − 1 of random bytes into a one-page memory;
        // `next` asks for 16 at address 0.
        let mut b = ModuleBuilder::new();
        let random = b.import_func("wasi_snapshot_preview1", "random_get", wasi_sig(2));
        let mem = b.memory(1, None);
        b.export_memory("memory", mem);
        let huge = b.func(FuncType::new(vec![], vec![ValType::I32]), |f| {
            f.i32_const(0).i32_const(u32::MAX as i32).call(random);
        });
        b.export_func("huge", huge);
        let next = b.func(FuncType::new(vec![], vec![ValType::I32]), |f| {
            f.i32_const(0).i32_const(16).call(random);
        });
        b.export_func("next", next);
        let module = Arc::new(b.build());

        for tier in [ExecTier::InPlace, ExecTier::Lowered] {
            let next_bytes = |after_huge: bool| {
                let (kernel, pid) = kernel_and_pid();
                let ctx = WasiCtx::new(kernel, pid).random_seed(7);
                let config = InstanceConfig { tier, ..Default::default() };
                let mut inst =
                    Instance::instantiate(module.clone(), ctx.into_imports(), config).unwrap();
                if after_huge {
                    assert_eq!(inst.invoke("huge", &[]), Err(Trap::MemoryOutOfBounds), "{tier:?}");
                }
                assert_eq!(inst.invoke("next", &[]).unwrap(), vec![Value::I32(0)], "{tier:?}");
                inst.memory().unwrap().read_bytes(0, 16).unwrap().to_vec()
            };
            // The refused call drew nothing from the generator.
            assert_eq!(next_bytes(true), next_bytes(false), "{tier:?}");
            assert_ne!(next_bytes(false), [0; 16]);
        }
    }

    /// One guest per host function, each calling just that function: the
    /// four that reach the kernel leave the context marked, the rest do
    /// not — stdin, stdio, arguments, environment, preopen names, the
    /// generator and `proc_exit` are all inside the context.
    #[test]
    fn only_the_kernel_reading_host_functions_mark_the_context() {
        use crate::ctx::FdEntry;
        use Value::{I32, I64};
        let cases: [(&str, &[Value], bool); 16] = [
            ("args_sizes_get", &[I32(0), I32(4)], false),
            ("args_get", &[I32(8), I32(64)], false),
            ("environ_sizes_get", &[I32(0), I32(4)], false),
            ("environ_get", &[I32(8), I32(64)], false),
            ("fd_write", &[I32(1), I32(8), I32(0), I32(16)], false),
            ("fd_read", &[I32(0), I32(8), I32(0), I32(16)], false), // stdin: EOF
            ("fd_read", &[I32(4), I32(8), I32(0), I32(16)], true),
            ("fd_close", &[I32(4)], false),
            ("fd_prestat_get", &[I32(3), I32(8)], false),
            ("fd_prestat_dir_name", &[I32(3), I32(8), I32(64)], false),
            (
                "path_open",
                &[I32(3), I32(0), I32(0), I32(1), I32(0), I32(0), I32(0), I32(0), I32(64)],
                true,
            ),
            ("fd_seek", &[I32(4), I64(0), I32(0), I32(16)], true),
            ("clock_time_get", &[I32(0), I64(0), I32(16)], true),
            ("random_get", &[I32(32), I32(8)], false),
            ("sched_yield", &[], false),
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
            b.data(0, &b"f"[..]);
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
            let content = FileContent::Bytes(bytelite::Bytes::from_static(b"x"));
            let file = kernel.create_file("/rootfs/data/f", content).unwrap();
            let ctx =
                WasiCtx::new(kernel, pid).arg("svc").env("K", "v").preopen("/data", "/rootfs/data");
            // An open file at fd 4, as a `path_open` would have left it.
            assert_eq!(ctx.state.borrow_mut().alloc_fd(FdEntry::File { file, offset: 0 }), 4);
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
        let fd_close = b.import_func("wasi_snapshot_preview1", "fd_close", wasi_sig(1));
        let mem = b.memory(1, None);
        b.export_memory("memory", mem);
        let f = b.func(FuncType::new(vec![], vec![ValType::I32]), |f| {
            f.i32_const(99).i32_const(0).i32_const(0).i32_const(0).call(fd_write);
            f.i32_const(99).call(fd_close);
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
