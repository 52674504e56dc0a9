//! The WASI context: per-instance arguments, environment, preopens, stdio.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use simkernel::{FileId, Kernel, Pid};

/// Shared handle to a stdio capture buffer.
pub type StdioHandle = Rc<RefCell<Vec<u8>>>;

/// An open guest file descriptor.
#[derive(Debug, Clone)]
pub(crate) enum FdEntry {
    /// stdin (reads return EOF).
    Stdin,
    /// stdout/stderr capture buffer.
    Stdio(StdioHandle),
    /// A pre-opened directory with its guest path.
    PreopenDir { guest_path: String },
    /// An open file in the simulated VFS with a read cursor.
    File { file: FileId, offset: u64 },
}

/// Read-only handle to a context's *observed the world* mark (valid after
/// execution, like the stdio handles): set once a host function has reached
/// the kernel — read a file, opened a path, asked the time. What such a
/// guest did is a function of more than its arguments, environment and
/// preopens, so an embedder must not take one run of it for the next.
#[derive(Debug, Clone)]
pub struct WorldMark(Rc<Cell<bool>>);

impl WorldMark {
    pub fn observed(&self) -> bool {
        self.0.get()
    }
}

/// Mutable WASI state shared by all host functions of one instance.
pub(crate) struct WasiState {
    /// The guest's only road to anything outside this struct. Private to
    /// this module: host functions go through [`WasiState::world`], which
    /// sets `observed`, so a new one cannot reach the kernel unmarked.
    kernel: Kernel,
    pid: Pid,
    observed: Rc<Cell<bool>>,
    pub args: Vec<String>,
    pub env: Vec<(String, String)>,
    /// fd table; indices 0..=2 are stdio, preopens start at 3.
    pub fds: Vec<Option<FdEntry>>,
    /// Guest path prefix → VFS path prefix, parallel to preopen fds.
    pub preopens: Vec<(String, String)>,
    /// Deterministic PRNG state for `random_get`.
    pub rng: u64,
    pub exit_code: Option<i32>,
}

impl WasiState {
    /// The kernel and the process this context executes as, marking the
    /// context as having observed the world.
    pub fn world(&self) -> (&Kernel, Pid) {
        self.observed.set(true);
        (&self.kernel, self.pid)
    }

    pub fn resolve(&self, dir_fd: usize, rel_path: &str) -> Option<String> {
        let entry = self.fds.get(dir_fd)?.as_ref()?;
        let FdEntry::PreopenDir { guest_path } = entry else { return None };
        let (_, host_prefix) = self.preopens.iter().find(|(g, _)| g == guest_path)?;
        let mut p = host_prefix.trim_end_matches('/').to_string();
        p.push('/');
        p.push_str(rel_path.trim_start_matches('/'));
        Some(p)
    }

    pub fn alloc_fd(&mut self, entry: FdEntry) -> usize {
        for (i, slot) in self.fds.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(entry);
                return i;
            }
        }
        self.fds.push(Some(entry));
        self.fds.len() - 1
    }
}

/// Builder for a WASI instance context — the "WASI argument handling"
/// integration surface from the paper (§III-C item 2).
pub struct WasiCtx {
    pub(crate) state: Rc<RefCell<WasiState>>,
    stdout: StdioHandle,
    stderr: StdioHandle,
}

impl WasiCtx {
    /// A context executing as `pid` on `kernel`.
    pub fn new(kernel: Kernel, pid: Pid) -> WasiCtx {
        let stdout: StdioHandle = Rc::new(RefCell::new(Vec::new()));
        let stderr: StdioHandle = Rc::new(RefCell::new(Vec::new()));
        let state = WasiState {
            kernel,
            pid,
            observed: Rc::new(Cell::new(false)),
            args: Vec::new(),
            env: Vec::new(),
            fds: vec![
                Some(FdEntry::Stdin),
                Some(FdEntry::Stdio(stdout.clone())),
                Some(FdEntry::Stdio(stderr.clone())),
            ],
            preopens: Vec::new(),
            rng: 0x9e3779b97f4a7c15,
            exit_code: None,
        };
        WasiCtx { state: Rc::new(RefCell::new(state)), stdout, stderr }
    }

    /// Append a command-line argument (the first is conventionally `argv[0]`).
    pub fn arg(self, a: impl Into<String>) -> Self {
        self.state.borrow_mut().args.push(a.into());
        self
    }

    /// Append several arguments.
    pub fn args(self, args: impl IntoIterator<Item = String>) -> Self {
        self.state.borrow_mut().args.extend(args);
        self
    }

    /// Set an environment variable.
    pub fn env(self, k: impl Into<String>, v: impl Into<String>) -> Self {
        self.state.borrow_mut().env.push((k.into(), v.into()));
        self
    }

    /// Set several environment variables.
    pub fn envs(self, envs: impl IntoIterator<Item = (String, String)>) -> Self {
        self.state.borrow_mut().env.extend(envs);
        self
    }

    /// Pre-open `host_prefix` (a VFS path prefix) as `guest_path`.
    pub fn preopen(self, guest_path: impl Into<String>, host_prefix: impl Into<String>) -> Self {
        {
            let mut st = self.state.borrow_mut();
            let guest = guest_path.into();
            st.preopens.push((guest.clone(), host_prefix.into()));
            st.fds.push(Some(FdEntry::PreopenDir { guest_path: guest }));
        }
        self
    }

    /// Seed `random_get` (deterministic by default). Nothing feeds it
    /// today, so `random_get` is a pure function of a per-context constant;
    /// the day an embedder passes a seed here, the seed is a guest-visible
    /// input and joins the key of `engines::exec`'s outcome record.
    pub fn random_seed(self, seed: u64) -> Self {
        self.state.borrow_mut().rng = seed | 1;
        self
    }

    /// Handle to the captured stdout bytes (valid after execution).
    pub fn stdout_handle(&self) -> StdioHandle {
        self.stdout.clone()
    }

    /// Handle to the captured stderr bytes.
    pub fn stderr_handle(&self) -> StdioHandle {
        self.stderr.clone()
    }

    /// Handle to the *observed the world* mark.
    pub fn world_mark(&self) -> WorldMark {
        WorldMark(self.state.borrow().observed.clone())
    }

    /// Exit code recorded by `proc_exit`, if the guest called it.
    pub fn exit_code(&self) -> Option<i32> {
        self.state.borrow().exit_code
    }

    /// Build the import set for [`wasm_core::Instance::instantiate`].
    pub fn into_imports(self) -> wasm_core::instance::Imports {
        crate::host::build_imports(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::KernelConfig;

    fn ctx() -> WasiCtx {
        let kernel = Kernel::boot(KernelConfig::default());
        let pid = kernel.spawn("t", Kernel::ROOT_CGROUP).unwrap();
        WasiCtx::new(kernel, pid)
    }

    #[test]
    fn builder_accumulates() {
        let c = ctx()
            .arg("app")
            .arg("--serve")
            .env("PORT", "8080")
            .preopen("/data", "/containers/c1/rootfs/data");
        let st = c.state.borrow();
        assert_eq!(st.args, vec!["app", "--serve"]);
        assert_eq!(st.env, vec![("PORT".to_string(), "8080".to_string())]);
        assert_eq!(st.preopens.len(), 1);
        assert_eq!(st.fds.len(), 4, "stdio + one preopen");
    }

    #[test]
    fn resolve_preopen_paths() {
        let c = ctx().preopen("/data", "/root/fs/data");
        let st = c.state.borrow();
        assert_eq!(st.resolve(3, "file.txt").unwrap(), "/root/fs/data/file.txt");
        assert_eq!(st.resolve(3, "/abs.txt").unwrap(), "/root/fs/data/abs.txt");
        assert!(st.resolve(0, "x").is_none(), "stdin is not a directory");
        assert!(st.resolve(9, "x").is_none(), "unknown fd");
    }

    #[test]
    fn fd_allocation_reuses_slots() {
        let c = ctx();
        let mut st = c.state.borrow_mut();
        let fd = st.alloc_fd(FdEntry::File { file: FileId(1), offset: 0 });
        assert_eq!(fd, 3);
        st.fds[3] = None;
        let fd2 = st.alloc_fd(FdEntry::File { file: FileId(2), offset: 0 });
        assert_eq!(fd2, 3, "freed slot reused");
    }
}
