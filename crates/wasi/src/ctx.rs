//! The WASI context: per-instance arguments, environment and stdio.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use simkernel::{Kernel, Pid};

/// Shared handle to a stdio capture buffer.
pub(crate) type StdioHandle = Rc<RefCell<Vec<u8>>>;

/// Read-only handle to a context's *observed the world* mark (valid after
/// execution, like the stdio handles): set once a host function has reached
/// the kernel, as asking the time does. What such a guest did is a
/// function of more than its arguments and environment, so an embedder
/// must not take one run of it for the next.
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
    pub(crate) args: Vec<String>,
    pub(crate) env: Vec<(String, String)>,
}

impl WasiState {
    /// The kernel and the process this context executes as, marking the
    /// context as having observed the world.
    pub(crate) fn world(&self) -> (&Kernel, Pid) {
        self.observed.set(true);
        (&self.kernel, self.pid)
    }
}

/// Builder for a WASI instance context — the "WASI argument handling"
/// integration surface from the paper (§III-C item 2).
pub struct WasiCtx {
    pub(crate) state: Rc<RefCell<WasiState>>,
    /// What `fd_write` appends to for fd 1 and fd 2; every other fd is
    /// `EBADF`.
    pub(crate) stdout: StdioHandle,
    pub(crate) stderr: StdioHandle,
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

    /// Set several environment variables.
    pub fn envs(self, envs: impl IntoIterator<Item = (String, String)>) -> Self {
        self.state.borrow_mut().env.extend(envs);
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

    /// Build the import set for [`wasm_core::Instance::instantiate`].
    pub fn into_imports(self) -> wasm_core::instance::Imports {
        crate::host::build_imports(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::{KernelConfig, ProcessImage};

    impl WasiCtx {
        /// Set an environment variable.
        pub(crate) fn env(self, k: impl Into<String>, v: impl Into<String>) -> Self {
            self.state.borrow_mut().env.push((k.into(), v.into()));
            self
        }
    }

    fn ctx() -> WasiCtx {
        let kernel = Kernel::boot(KernelConfig::default());
        let pid = ProcessImage::spawn(&kernel, "t", Kernel::ROOT_CGROUP).build().unwrap().detach();
        WasiCtx::new(kernel, pid)
    }

    #[test]
    fn builder_accumulates() {
        let c = ctx().arg("app").arg("--serve").env("PORT", "8080");
        let st = c.state.borrow();
        assert_eq!(st.args, vec!["app", "--serve"]);
        assert_eq!(st.env, vec![("PORT".to_string(), "8080".to_string())]);
    }
}
