//! Tree-walking evaluator for the Python subset.
//!
//! Known deviation from CPython: `for` over a list iterates a snapshot of
//! the list taken at loop entry (mutating the list inside the body does not
//! change the iteration). None of the benchmark workloads mutate a list
//! they are iterating.
//!
//! Real enough to execute the paper's Python microservice baseline: proper
//! scoping, functions, loops, lists, a handful of builtins, and the stdlib
//! module surface the workloads use (`sys.argv`, `sys.exit`, `time.time`,
//! `os.environ`). Execution is metered (op count) so the container stack
//! can convert work into simulated time, and allocation counts feed the
//! interpreter-heap memory estimate.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use crate::ast::{BinOp, Expr, Program, Stmt};

/// Runtime values.
#[derive(Debug, Clone)]
pub enum PyValue {
    Int(i64),
    Float(f64),
    Str(Rc<String>),
    Bool(bool),
    None,
    List(Rc<RefCell<Vec<PyValue>>>),
    Func(Rc<FuncDef>),
    Builtin(&'static str),
    Module(&'static str),
    Range { start: i64, stop: i64, step: i64 },
    BoundMethod(&'static str, &'static str),
}

/// A user-defined function.
#[derive(Debug)]
pub struct FuncDef {
    pub name: String,
    pub params: Vec<String>,
    pub body: Vec<Stmt>,
}

/// Runtime errors (including `sys.exit`).
#[derive(Debug, Clone, PartialEq)]
pub enum PyError {
    /// `sys.exit(code)`.
    Exit(i32),
    /// Uncaught runtime error with message.
    Runtime(String),
    /// Op budget exhausted.
    FuelExhausted,
    /// The epoch deadline passed (watchdog interruption). Unlike
    /// `FuelExhausted` this is an external, asynchronous-style stop: the
    /// interpreter was healthy but overstayed its epoch budget.
    Interrupted,
}

impl fmt::Display for PyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PyError::Exit(c) => write!(f, "SystemExit: {c}"),
            PyError::Runtime(m) => write!(f, "RuntimeError: {m}"),
            PyError::FuelExhausted => write!(f, "op budget exhausted"),
            PyError::Interrupted => write!(f, "epoch deadline reached; interpreter interrupted"),
        }
    }
}

/// A shared epoch counter mirroring `wasm_core::EpochClock` (the crates are
/// deliberately independent): the interpreter advances it as ops retire and
/// checks it against a deadline at each tick; any holder of a clone can
/// force it past every deadline with [`PyEpochClock::interrupt`], observed
/// at the interpreter's next epoch check.
#[derive(Debug, Clone, Default)]
pub struct PyEpochClock {
    epoch: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl PyEpochClock {
    pub fn new() -> PyEpochClock {
        PyEpochClock::default()
    }

    /// Current epoch.
    pub fn now(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Advance by `ticks` epochs and return the new value (saturating, so
    /// an interrupted clock stays interrupted).
    pub fn advance(&self, ticks: u64) -> u64 {
        let now = self.now().saturating_add(ticks);
        self.epoch.store(now, std::sync::atomic::Ordering::Relaxed);
        now
    }

    /// Force the clock past every deadline: the interpreter raises
    /// [`PyError::Interrupted`] at its next epoch check.
    pub fn interrupt(&self) {
        self.epoch.store(u64::MAX, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Live epoch-watchdog state for an interpreter.
#[derive(Debug, Clone)]
struct EpochState {
    clock: PyEpochClock,
    deadline: u64,
    tick_ops: u64,
    until_tick: u64,
}

impl std::error::Error for PyError {}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(PyValue),
}

/// Interpreter statistics for the container cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PyStats {
    /// Bytecode-ish operations executed.
    pub ops: u64,
    /// Heap allocations performed (objects, list growths, strings).
    pub allocs: u64,
    /// Modules imported.
    pub imports: u64,
}

/// The interpreter.
pub struct Interp {
    globals: HashMap<String, PyValue>,
    argv: Vec<String>,
    env: HashMap<String, String>,
    pub stdout: Vec<u8>,
    stats: PyStats,
    fuel: u64,
    epoch: Option<EpochState>,
    imported: Vec<String>,
}

impl Interp {
    pub fn new(argv: Vec<String>, env: Vec<(String, String)>) -> Interp {
        Interp {
            globals: HashMap::new(),
            argv,
            env: env.into_iter().collect(),
            stdout: Vec::new(),
            stats: PyStats::default(),
            fuel: 200_000_000,
            epoch: None,
            imported: Vec::new(),
        }
    }

    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Arm the epoch watchdog: raise [`PyError::Interrupted`] once `clock`
    /// reaches `deadline`, checking every `tick_ops` interpreter ops.
    pub fn with_epoch(mut self, clock: PyEpochClock, deadline: u64, tick_ops: u64) -> Self {
        let tick_ops = tick_ops.max(1);
        self.epoch = Some(EpochState { clock, deadline, tick_ops, until_tick: tick_ops });
        self
    }

    pub fn stats(&self) -> PyStats {
        self.stats
    }

    /// Modules imported during execution (drives stdlib load modeling).
    pub fn imported_modules(&self) -> &[String] {
        &self.imported
    }

    /// Execute a program. Returns the exit code (0 unless `sys.exit`).
    pub fn run(&mut self, program: &Program) -> Result<i32, PyError> {
        match self.exec_block(&program.body, None)? {
            Flow::Return(_) | Flow::Normal => Ok(0),
            Flow::Break | Flow::Continue => {
                Err(PyError::Runtime("break/continue outside loop".into()))
            }
        }
    }

    fn burn(&mut self, n: u64) -> Result<(), PyError> {
        self.stats.ops += n;
        if self.stats.ops > self.fuel {
            return Err(PyError::FuelExhausted);
        }
        if let Some(ep) = &mut self.epoch {
            if n >= ep.until_tick {
                // Crossed one or more tick boundaries: advance the shared
                // clock and check the deadline (the epoch "safepoint").
                let past = n - ep.until_tick;
                let ticks = 1 + past / ep.tick_ops;
                ep.until_tick = ep.tick_ops - past % ep.tick_ops;
                if ep.clock.advance(ticks) >= ep.deadline {
                    return Err(PyError::Interrupted);
                }
            } else {
                ep.until_tick -= n;
            }
        }
        Ok(())
    }

    fn alloc(&mut self, n: u64) {
        self.stats.allocs += n;
    }

    fn exec_block(
        &mut self,
        body: &[Stmt],
        locals: Option<&mut HashMap<String, PyValue>>,
    ) -> Result<Flow, PyError> {
        // Rust borrow rules make threading an optional locals map awkward;
        // use a small enum instead.
        match locals {
            None => self.exec_stmts_global(body),
            Some(l) => self.exec_stmts_local(body, l),
        }
    }

    fn exec_stmts_global(&mut self, body: &[Stmt]) -> Result<Flow, PyError> {
        for s in body {
            match self.exec_stmt(s, None)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmts_local(
        &mut self,
        body: &[Stmt],
        locals: &mut HashMap<String, PyValue>,
    ) -> Result<Flow, PyError> {
        for s in body {
            match self.exec_stmt(s, Some(locals))? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &mut self,
        s: &Stmt,
        mut locals: Option<&mut HashMap<String, PyValue>>,
    ) -> Result<Flow, PyError> {
        self.burn(1)?;
        match s {
            Stmt::Pass => Ok(Flow::Normal),
            Stmt::Import(name) => {
                if !self.imported.contains(name) {
                    self.imported.push(name.clone());
                    self.stats.imports += 1;
                    self.alloc(50); // module object, dict, code objects
                }
                let module: &'static str = match name.as_str() {
                    "sys" => "sys",
                    "os" => "os",
                    "time" => "time",
                    "math" => "math",
                    "json" => "json",
                    other => return Err(PyError::Runtime(format!("no module named {other}"))),
                };
                self.assign(name.clone(), PyValue::Module(module), &mut locals);
                Ok(Flow::Normal)
            }
            Stmt::Assign(name, expr) => {
                let v = self.eval(expr, &mut locals)?;
                self.assign(name.clone(), v, &mut locals);
                Ok(Flow::Normal)
            }
            Stmt::AugAssign(name, op, expr) => {
                // Python scoping: an augmented assignment makes the name
                // local to the function; reading a global through it raises
                // UnboundLocalError rather than silently shadowing.
                if let Some(l) = locals.as_deref() {
                    if !l.contains_key(name) && self.globals.contains_key(name) {
                        return Err(PyError::Runtime(format!(
                            "local variable {name:?} referenced before assignment"
                        )));
                    }
                }
                let rhs = self.eval(expr, &mut locals)?;
                let lhs = self.lookup(name, &mut locals)?;
                let v = self.binop(*op, lhs, rhs)?;
                self.assign(name.clone(), v, &mut locals);
                Ok(Flow::Normal)
            }
            Stmt::IndexAssign(obj, idx, value) => {
                let target = self.eval(obj, &mut locals)?;
                let index = self.eval(idx, &mut locals)?;
                let v = self.eval(value, &mut locals)?;
                match (target, index) {
                    (PyValue::List(list), PyValue::Int(i)) => {
                        let mut list = list.borrow_mut();
                        let len = list.len() as i64;
                        let i = if i < 0 { i + len } else { i };
                        if i < 0 || i >= len {
                            return Err(PyError::Runtime("list index out of range".into()));
                        }
                        list[i as usize] = v;
                        Ok(Flow::Normal)
                    }
                    _ => Err(PyError::Runtime("unsupported index assignment".into())),
                }
            }
            Stmt::Expr(e) => {
                self.eval(e, &mut locals)?;
                Ok(Flow::Normal)
            }
            Stmt::If { branches, else_body } => {
                for (cond, body) in branches {
                    let c = self.eval(cond, &mut locals)?;
                    if truthy(&c) {
                        return match locals {
                            Some(l) => self.exec_stmts_local(body, l),
                            None => self.exec_stmts_global(body),
                        };
                    }
                }
                match locals {
                    Some(l) => self.exec_stmts_local(else_body, l),
                    None => self.exec_stmts_global(else_body),
                }
            }
            Stmt::While(cond, body) => {
                loop {
                    let c = self.eval(cond, &mut locals)?;
                    if !truthy(&c) {
                        break;
                    }
                    let flow = match locals {
                        Some(ref mut l) => self.exec_stmts_local(body, l),
                        None => self.exec_stmts_global(body),
                    }?;
                    match flow {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For { var, iter, body } => {
                let iterable = self.eval(iter, &mut locals)?;
                let items: Vec<PyValue> = match iterable {
                    PyValue::Range { start, stop, step } => {
                        let mut v = Vec::new();
                        let mut i = start;
                        if step > 0 {
                            while i < stop {
                                v.push(PyValue::Int(i));
                                i += step;
                            }
                        } else if step < 0 {
                            while i > stop {
                                v.push(PyValue::Int(i));
                                i += step;
                            }
                        }
                        v
                    }
                    PyValue::List(l) => l.borrow().clone(),
                    PyValue::Str(s) => {
                        s.chars().map(|c| PyValue::Str(Rc::new(c.to_string()))).collect()
                    }
                    other => {
                        return Err(PyError::Runtime(format!(
                            "{} is not iterable",
                            type_name(&other)
                        )))
                    }
                };
                for item in items {
                    self.burn(1)?;
                    self.assign(var.clone(), item, &mut locals);
                    let flow = match locals {
                        Some(ref mut l) => self.exec_stmts_local(body, l),
                        None => self.exec_stmts_global(body),
                    }?;
                    match flow {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Def { name, params, body } => {
                self.alloc(10);
                let f = PyValue::Func(Rc::new(FuncDef {
                    name: name.clone(),
                    params: params.clone(),
                    body: body.clone(),
                }));
                self.assign(name.clone(), f, &mut locals);
                Ok(Flow::Normal)
            }
            Stmt::Return(value) => {
                let v = match value {
                    Some(e) => self.eval(e, &mut locals)?,
                    None => PyValue::None,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
        }
    }

    fn assign(
        &mut self,
        name: String,
        v: PyValue,
        locals: &mut Option<&mut HashMap<String, PyValue>>,
    ) {
        self.alloc(1);
        match locals {
            Some(l) => {
                l.insert(name, v);
            }
            None => {
                self.globals.insert(name, v);
            }
        }
    }

    fn lookup(
        &mut self,
        name: &str,
        locals: &mut Option<&mut HashMap<String, PyValue>>,
    ) -> Result<PyValue, PyError> {
        if let Some(l) = locals {
            if let Some(v) = l.get(name) {
                return Ok(v.clone());
            }
        }
        if let Some(v) = self.globals.get(name) {
            return Ok(v.clone());
        }
        match name {
            "print" | "range" | "len" | "str" | "int" | "float" | "abs" | "sum" | "min" | "max" => {
                Ok(PyValue::Builtin(match name {
                    "print" => "print",
                    "range" => "range",
                    "len" => "len",
                    "str" => "str",
                    "int" => "int",
                    "float" => "float",
                    "abs" => "abs",
                    "sum" => "sum",
                    "min" => "min",
                    _ => "max",
                }))
            }
            _ => Err(PyError::Runtime(format!("name {name:?} is not defined"))),
        }
    }

    fn eval(
        &mut self,
        e: &Expr,
        locals: &mut Option<&mut HashMap<String, PyValue>>,
    ) -> Result<PyValue, PyError> {
        self.burn(1)?;
        match e {
            Expr::Int(v) => Ok(PyValue::Int(*v)),
            Expr::Float(v) => Ok(PyValue::Float(*v)),
            Expr::Str(s) => {
                self.alloc(1);
                Ok(PyValue::Str(Rc::new(s.clone())))
            }
            Expr::Bool(b) => Ok(PyValue::Bool(*b)),
            Expr::None => Ok(PyValue::None),
            Expr::Name(n) => self.lookup(n, locals),
            Expr::Neg(inner) => match self.eval(inner, locals)? {
                PyValue::Int(v) => Ok(PyValue::Int(-v)),
                PyValue::Float(v) => Ok(PyValue::Float(-v)),
                other => Err(PyError::Runtime(format!("bad operand for -: {}", type_name(&other)))),
            },
            Expr::Not(inner) => {
                let v = self.eval(inner, locals)?;
                Ok(PyValue::Bool(!truthy(&v)))
            }
            Expr::Bin(BinOp::And, a, b) => {
                let left = self.eval(a, locals)?;
                if !truthy(&left) {
                    return Ok(left);
                }
                self.eval(b, locals)
            }
            Expr::Bin(BinOp::Or, a, b) => {
                let left = self.eval(a, locals)?;
                if truthy(&left) {
                    return Ok(left);
                }
                self.eval(b, locals)
            }
            Expr::Bin(op, a, b) => {
                let left = self.eval(a, locals)?;
                let right = self.eval(b, locals)?;
                self.binop(*op, left, right)
            }
            Expr::List(items) => {
                let mut v = Vec::with_capacity(items.len());
                for item in items {
                    v.push(self.eval(item, locals)?);
                }
                self.alloc(1 + items.len() as u64);
                Ok(PyValue::List(Rc::new(RefCell::new(v))))
            }
            Expr::Index(obj, idx) => {
                let target = self.eval(obj, locals)?;
                let index = self.eval(idx, locals)?;
                match (target, index) {
                    (PyValue::List(l), PyValue::Int(i)) => {
                        let l = l.borrow();
                        let len = l.len() as i64;
                        let i = if i < 0 { i + len } else { i };
                        l.get(i as usize)
                            .cloned()
                            .ok_or_else(|| PyError::Runtime("list index out of range".into()))
                    }
                    (PyValue::Str(s), PyValue::Int(i)) => {
                        let chars: Vec<char> = s.chars().collect();
                        let len = chars.len() as i64;
                        let i = if i < 0 { i + len } else { i };
                        chars
                            .get(i as usize)
                            .map(|c| PyValue::Str(Rc::new(c.to_string())))
                            .ok_or_else(|| PyError::Runtime("string index out of range".into()))
                    }
                    _ => Err(PyError::Runtime("unsupported indexing".into())),
                }
            }
            Expr::Attr(obj, name) => {
                let target = self.eval(obj, locals)?;
                match target {
                    PyValue::Module(m) => Ok(self.module_attr(m, name)?),
                    PyValue::List(_) if name == "append" => {
                        // Bound method on a list needs the receiver; model
                        // only via direct call (Expr::Call handles it).
                        Err(PyError::Runtime("list.append must be called".into()))
                    }
                    other => Err(PyError::Runtime(format!(
                        "{} has no attribute {name:?}",
                        type_name(&other)
                    ))),
                }
            }
            Expr::Call(f, args) => {
                // list.append(x) special form.
                if let Expr::Attr(obj, method) = &**f {
                    let target = self.eval(obj, locals)?;
                    if let PyValue::List(list) = &target {
                        if method == "append" {
                            let mut vals = Vec::new();
                            for a in args {
                                vals.push(self.eval(a, locals)?);
                            }
                            if vals.len() != 1 {
                                return Err(PyError::Runtime("append takes one argument".into()));
                            }
                            self.alloc(1);
                            list.borrow_mut().push(vals.pop().expect("one"));
                            return Ok(PyValue::None);
                        }
                    }
                    if let PyValue::Module(m) = target {
                        let mut vals = Vec::new();
                        for a in args {
                            vals.push(self.eval(a, locals)?);
                        }
                        return self.call_module(m, method, vals);
                    }
                }
                let callee = self.eval(f, locals)?;
                let mut vals = Vec::new();
                for a in args {
                    vals.push(self.eval(a, locals)?);
                }
                self.call(callee, vals)
            }
        }
    }

    fn call(&mut self, callee: PyValue, args: Vec<PyValue>) -> Result<PyValue, PyError> {
        self.burn(2)?;
        match callee {
            PyValue::Func(def) => {
                if args.len() != def.params.len() {
                    return Err(PyError::Runtime(format!(
                        "{}() takes {} arguments, got {}",
                        def.name,
                        def.params.len(),
                        args.len()
                    )));
                }
                self.alloc(2 + args.len() as u64); // frame + cells
                let mut frame: HashMap<String, PyValue> =
                    def.params.iter().cloned().zip(args).collect();
                match self.exec_stmts_local(&def.body, &mut frame)? {
                    Flow::Return(v) => Ok(v),
                    _ => Ok(PyValue::None),
                }
            }
            PyValue::Builtin(name) => self.call_builtin(name, args),
            other => Err(PyError::Runtime(format!("{} is not callable", type_name(&other)))),
        }
    }

    fn call_builtin(&mut self, name: &str, args: Vec<PyValue>) -> Result<PyValue, PyError> {
        match name {
            "print" => {
                let parts: Vec<String> = args.iter().map(to_display).collect();
                self.stdout.extend_from_slice(parts.join(" ").as_bytes());
                self.stdout.push(b'\n');
                self.alloc(args.len() as u64);
                Ok(PyValue::None)
            }
            "range" => {
                let (start, stop, step) = match args.len() {
                    1 => (0, int_arg(&args[0])?, 1),
                    2 => (int_arg(&args[0])?, int_arg(&args[1])?, 1),
                    3 => (int_arg(&args[0])?, int_arg(&args[1])?, int_arg(&args[2])?),
                    n => return Err(PyError::Runtime(format!("range() got {n} args"))),
                };
                if step == 0 {
                    return Err(PyError::Runtime("range() step must not be zero".into()));
                }
                Ok(PyValue::Range { start, stop, step })
            }
            "len" => match args.first() {
                Some(PyValue::List(l)) => Ok(PyValue::Int(l.borrow().len() as i64)),
                Some(PyValue::Str(s)) => Ok(PyValue::Int(s.chars().count() as i64)),
                _ => Err(PyError::Runtime("len() needs a list or string".into())),
            },
            "str" => {
                self.alloc(1);
                Ok(PyValue::Str(Rc::new(args.first().map(to_display).unwrap_or_default())))
            }
            "int" => match args.first() {
                Some(PyValue::Int(v)) => Ok(PyValue::Int(*v)),
                Some(PyValue::Float(v)) => Ok(PyValue::Int(*v as i64)),
                Some(PyValue::Str(s)) => s
                    .trim()
                    .parse::<i64>()
                    .map(PyValue::Int)
                    .map_err(|_| PyError::Runtime(format!("invalid int literal {s:?}"))),
                Some(PyValue::Bool(b)) => Ok(PyValue::Int(*b as i64)),
                _ => Err(PyError::Runtime("int() needs an argument".into())),
            },
            "float" => match args.first() {
                Some(PyValue::Int(v)) => Ok(PyValue::Float(*v as f64)),
                Some(PyValue::Float(v)) => Ok(PyValue::Float(*v)),
                Some(PyValue::Str(s)) => s
                    .trim()
                    .parse::<f64>()
                    .map(PyValue::Float)
                    .map_err(|_| PyError::Runtime(format!("invalid float literal {s:?}"))),
                _ => Err(PyError::Runtime("float() needs an argument".into())),
            },
            "abs" => match args.first() {
                Some(PyValue::Int(v)) => Ok(PyValue::Int(v.abs())),
                Some(PyValue::Float(v)) => Ok(PyValue::Float(v.abs())),
                _ => Err(PyError::Runtime("abs() needs a number".into())),
            },
            "sum" => match args.first() {
                Some(PyValue::List(l)) => {
                    let mut total = 0i64;
                    let mut ftotal = 0f64;
                    let mut is_float = false;
                    for v in l.borrow().iter() {
                        self.burn(1)?;
                        match v {
                            PyValue::Int(i) => {
                                total += i;
                                ftotal += *i as f64;
                            }
                            PyValue::Float(f) => {
                                is_float = true;
                                ftotal += f;
                            }
                            other => {
                                return Err(PyError::Runtime(format!(
                                    "sum() of {}",
                                    type_name(other)
                                )))
                            }
                        }
                    }
                    Ok(if is_float { PyValue::Float(ftotal) } else { PyValue::Int(total) })
                }
                _ => Err(PyError::Runtime("sum() needs a list".into())),
            },
            "min" | "max" => {
                let ints: Result<Vec<i64>, _> = args.iter().map(int_arg).collect();
                let ints = ints?;
                if ints.is_empty() {
                    return Err(PyError::Runtime("min()/max() need arguments".into()));
                }
                let v = if name == "min" {
                    *ints.iter().min().expect("non-empty")
                } else {
                    *ints.iter().max().expect("non-empty")
                };
                Ok(PyValue::Int(v))
            }
            other => Err(PyError::Runtime(format!("unknown builtin {other}"))),
        }
    }

    fn module_attr(&mut self, module: &str, name: &str) -> Result<PyValue, PyError> {
        match (module, name) {
            ("sys", "argv") => {
                self.alloc(1 + self.argv.len() as u64);
                Ok(PyValue::List(Rc::new(RefCell::new(
                    self.argv.iter().map(|a| PyValue::Str(Rc::new(a.clone()))).collect(),
                ))))
            }
            ("math", "pi") => Ok(PyValue::Float(std::f64::consts::PI)),
            (m, a) => Ok(PyValue::BoundMethod(
                match m {
                    "sys" => "sys",
                    "os" => "os",
                    "time" => "time",
                    "math" => "math",
                    "json" => "json",
                    _ => return Err(PyError::Runtime(format!("no module {m}"))),
                },
                match (m, a) {
                    ("sys", "exit") => "exit",
                    ("time", "time") => "time",
                    ("time", "sleep") => "sleep",
                    ("math", "sqrt") => "sqrt",
                    ("math", "floor") => "floor",
                    ("os", "getenv") => "getenv",
                    _ => return Err(PyError::Runtime(format!("module {m} has no {a}"))),
                },
            )),
        }
    }

    fn call_module(
        &mut self,
        module: &str,
        name: &str,
        args: Vec<PyValue>,
    ) -> Result<PyValue, PyError> {
        self.burn(2)?;
        match (module, name) {
            ("sys", "exit") => {
                let code = args.first().map(int_arg).transpose()?.unwrap_or(0);
                Err(PyError::Exit(code as i32))
            }
            ("time", "time") => Ok(PyValue::Float(self.stats.ops as f64 * 1e-8)),
            ("time", "sleep") => Ok(PyValue::None),
            ("math", "sqrt") => match args.first() {
                Some(PyValue::Int(v)) => Ok(PyValue::Float((*v as f64).sqrt())),
                Some(PyValue::Float(v)) => Ok(PyValue::Float(v.sqrt())),
                _ => Err(PyError::Runtime("sqrt() needs a number".into())),
            },
            ("math", "floor") => match args.first() {
                Some(PyValue::Float(v)) => Ok(PyValue::Int(v.floor() as i64)),
                Some(PyValue::Int(v)) => Ok(PyValue::Int(*v)),
                _ => Err(PyError::Runtime("floor() needs a number".into())),
            },
            ("os", "getenv") => match args.first() {
                Some(PyValue::Str(k)) => Ok(self
                    .env
                    .get(k.as_str())
                    .map(|v| PyValue::Str(Rc::new(v.clone())))
                    .unwrap_or(PyValue::None)),
                _ => Err(PyError::Runtime("getenv() needs a name".into())),
            },
            (m, a) => Err(PyError::Runtime(format!("module {m} has no callable {a}"))),
        }
    }

    fn binop(&mut self, op: BinOp, a: PyValue, b: PyValue) -> Result<PyValue, PyError> {
        use BinOp::*;
        use PyValue::*;
        let err = |op: BinOp, a: &PyValue, b: &PyValue| {
            Err(PyError::Runtime(format!(
                "unsupported operands for {op:?}: {} and {}",
                type_name(a),
                type_name(b)
            )))
        };
        Ok(match (op, &a, &b) {
            (Add, Int(x), Int(y)) => Int(x.wrapping_add(*y)),
            (Sub, Int(x), Int(y)) => Int(x.wrapping_sub(*y)),
            (Mul, Int(x), Int(y)) => Int(x.wrapping_mul(*y)),
            (Mod, Int(x), Int(y)) => {
                if *y == 0 {
                    return Err(PyError::Runtime("modulo by zero".into()));
                }
                Int(py_mod(*x, *y))
            }
            (FloorDiv, Int(x), Int(y)) => {
                if *y == 0 {
                    return Err(PyError::Runtime("division by zero".into()));
                }
                Int(py_floordiv(*x, *y))
            }
            (Div, Int(x), Int(y)) => {
                if *y == 0 {
                    return Err(PyError::Runtime("division by zero".into()));
                }
                Float(*x as f64 / *y as f64)
            }
            (Pow, Int(x), Int(y)) if *y >= 0 => Int(x.wrapping_pow(*y as u32)),
            (Add, Str(x), Str(y)) => {
                self.alloc(1);
                Str(Rc::new(format!("{x}{y}")))
            }
            (Mul, Str(x), Int(n)) | (Mul, Int(n), Str(x)) => {
                self.alloc(1);
                Str(Rc::new(x.repeat((*n).max(0) as usize)))
            }
            (Add, List(x), List(y)) => {
                self.alloc(1 + (x.borrow().len() + y.borrow().len()) as u64);
                let mut v = x.borrow().clone();
                v.extend(y.borrow().iter().cloned());
                List(Rc::new(RefCell::new(v)))
            }
            (Eq, x, y) => Bool(py_eq(x, y)),
            (Ne, x, y) => Bool(!py_eq(x, y)),
            (Lt, x, y) => Bool(py_cmp(x, y)? == std::cmp::Ordering::Less),
            (Le, x, y) => Bool(py_cmp(x, y)? != std::cmp::Ordering::Greater),
            (Gt, x, y) => Bool(py_cmp(x, y)? == std::cmp::Ordering::Greater),
            (Ge, x, y) => Bool(py_cmp(x, y)? != std::cmp::Ordering::Less),
            // Mixed numeric → float.
            (op2, x, y) if is_num(x) && is_num(y) => {
                let xf = as_f64(x);
                let yf = as_f64(y);
                match op2 {
                    Add => Float(xf + yf),
                    Sub => Float(xf - yf),
                    Mul => Float(xf * yf),
                    Div => {
                        if yf == 0.0 {
                            return Err(PyError::Runtime("division by zero".into()));
                        }
                        Float(xf / yf)
                    }
                    FloorDiv => {
                        if yf == 0.0 {
                            return Err(PyError::Runtime("float floor division by zero".into()));
                        }
                        Float((xf / yf).floor())
                    }
                    Mod => {
                        if yf == 0.0 {
                            return Err(PyError::Runtime("float modulo".into()));
                        }
                        // Python float %: result takes the divisor's sign.
                        Float(xf - (xf / yf).floor() * yf)
                    }
                    Pow => Float(xf.powf(yf)),
                    _ => return err(op, &a, &b),
                }
            }
            _ => return err(op, &a, &b),
        })
    }
}

/// Python floor division: quotient rounded toward negative infinity.
fn py_floordiv(a: i64, b: i64) -> i64 {
    let q = a.wrapping_div(b);
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Python modulo: result takes the sign of the divisor.
fn py_mod(a: i64, b: i64) -> i64 {
    a.wrapping_sub(py_floordiv(a, b).wrapping_mul(b))
}

fn is_num(v: &PyValue) -> bool {
    matches!(v, PyValue::Int(_) | PyValue::Float(_) | PyValue::Bool(_))
}

fn as_f64(v: &PyValue) -> f64 {
    match v {
        PyValue::Int(i) => *i as f64,
        PyValue::Float(f) => *f,
        PyValue::Bool(b) => *b as i64 as f64,
        _ => f64::NAN,
    }
}

fn int_arg(v: &PyValue) -> Result<i64, PyError> {
    match v {
        PyValue::Int(i) => Ok(*i),
        PyValue::Bool(b) => Ok(*b as i64),
        other => Err(PyError::Runtime(format!("expected int, got {}", type_name(other)))),
    }
}

fn truthy(v: &PyValue) -> bool {
    match v {
        PyValue::Bool(b) => *b,
        PyValue::Int(i) => *i != 0,
        PyValue::Float(f) => *f != 0.0,
        PyValue::Str(s) => !s.is_empty(),
        PyValue::List(l) => !l.borrow().is_empty(),
        PyValue::None => false,
        _ => true,
    }
}

fn py_eq(a: &PyValue, b: &PyValue) -> bool {
    match (a, b) {
        (PyValue::Int(x), PyValue::Int(y)) => x == y,
        (PyValue::Str(x), PyValue::Str(y)) => x == y,
        (PyValue::Bool(x), PyValue::Bool(y)) => x == y,
        (PyValue::None, PyValue::None) => true,
        (x, y) if is_num(x) && is_num(y) => as_f64(x) == as_f64(y),
        (PyValue::List(x), PyValue::List(y)) => {
            let x = x.borrow();
            let y = y.borrow();
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(a, b)| py_eq(a, b))
        }
        _ => false,
    }
}

fn py_cmp(a: &PyValue, b: &PyValue) -> Result<std::cmp::Ordering, PyError> {
    match (a, b) {
        (PyValue::Str(x), PyValue::Str(y)) => Ok(x.cmp(y)),
        (x, y) if is_num(x) && is_num(y) => as_f64(x)
            .partial_cmp(&as_f64(y))
            .ok_or_else(|| PyError::Runtime("NaN comparison".into())),
        (x, y) => {
            Err(PyError::Runtime(format!("cannot compare {} and {}", type_name(x), type_name(y))))
        }
    }
}

fn type_name(v: &PyValue) -> &'static str {
    match v {
        PyValue::Int(_) => "int",
        PyValue::Float(_) => "float",
        PyValue::Str(_) => "str",
        PyValue::Bool(_) => "bool",
        PyValue::None => "NoneType",
        PyValue::List(_) => "list",
        PyValue::Func(_) => "function",
        PyValue::Builtin(_) => "builtin",
        PyValue::Module(_) => "module",
        PyValue::Range { .. } => "range",
        PyValue::BoundMethod(_, _) => "builtin_function_or_method",
    }
}

fn to_display(v: &PyValue) -> String {
    match v {
        PyValue::Int(i) => i.to_string(),
        PyValue::Float(f) => {
            if f.fract() == 0.0 && f.is_finite() {
                format!("{f:.1}")
            } else {
                f.to_string()
            }
        }
        PyValue::Str(s) => s.to_string(),
        PyValue::Bool(true) => "True".to_string(),
        PyValue::Bool(false) => "False".to_string(),
        PyValue::None => "None".to_string(),
        PyValue::List(l) => {
            let inner: Vec<String> = l
                .borrow()
                .iter()
                .map(|v| match v {
                    PyValue::Str(s) => format!("'{s}'"),
                    other => to_display(other),
                })
                .collect();
            format!("[{}]", inner.join(", "))
        }
        other => format!("<{}>", type_name(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run(src: &str) -> (String, i32, PyStats) {
        let program = parse(src).unwrap();
        let mut interp = Interp::new(vec!["app.py".into()], vec![]);
        let code = match interp.run(&program) {
            Ok(c) => c,
            Err(PyError::Exit(c)) => c,
            Err(e) => panic!("{e}"),
        };
        (String::from_utf8(interp.stdout.clone()).unwrap(), code, interp.stats())
    }

    #[test]
    fn hello_world() {
        let (out, code, _) = run("print(\"hello\", \"world\")");
        assert_eq!(out, "hello world\n");
        assert_eq!(code, 0);
    }

    #[test]
    fn arithmetic_and_precedence() {
        let (out, _, _) = run("print(2 + 3 * 4, (2 + 3) * 4, 7 // 2, 7 % 3, 2 ** 10)");
        assert_eq!(out, "14 20 3 1 1024\n");
    }

    #[test]
    fn float_division() {
        let (out, _, _) = run("print(7 / 2)");
        assert_eq!(out, "3.5\n");
    }

    #[test]
    fn loops_and_functions() {
        let src = "\
def fact(n):
    if n <= 1:
        return 1
    return n * fact(n - 1)

total = 0
for i in range(5):
    total += fact(i)
print(total)
";
        let (out, _, _) = run(src);
        // 0!+1!+2!+3!+4! = 1+1+2+6+24 = 34
        assert_eq!(out, "34\n");
    }

    #[test]
    fn while_break_continue() {
        let src = "\
i = 0
acc = 0
while True:
    i += 1
    if i % 2 == 0:
        continue
    if i > 9:
        break
    acc += i
print(acc)
";
        let (out, _, _) = run(src);
        assert_eq!(out, "25\n"); // 1+3+5+7+9
    }

    #[test]
    fn lists() {
        let src = "\
xs = [1, 2, 3]
xs.append(4)
xs[0] = 10
print(len(xs), sum(xs), xs[-1], xs)
";
        let (out, _, _) = run(src);
        assert_eq!(out, "4 19 4 [10, 2, 3, 4]\n");
    }

    #[test]
    fn strings() {
        let src = "\
s = \"ab\" + \"cd\"
print(s, len(s), s[1], s * 2)
";
        let (out, _, _) = run(src);
        assert_eq!(out, "abcd 4 b abcdabcd\n");
    }

    #[test]
    fn sys_exit_and_argv() {
        let program = parse("import sys\nprint(sys.argv[0])\nsys.exit(3)").unwrap();
        let mut interp = Interp::new(vec!["svc.py".into()], vec![]);
        assert_eq!(interp.run(&program), Err(PyError::Exit(3)));
        assert_eq!(interp.stdout, b"svc.py\n");
        assert_eq!(interp.imported_modules(), ["sys"]);
    }

    #[test]
    fn os_getenv() {
        let program =
            parse("import os\nprint(os.getenv(\"MODE\"))\nprint(os.getenv(\"NOPE\"))").unwrap();
        let mut interp = Interp::new(vec![], vec![("MODE".into(), "prod".into())]);
        interp.run(&program).unwrap();
        assert_eq!(interp.stdout, b"prod\nNone\n");
    }

    #[test]
    fn comparisons_and_logic() {
        let (out, _, _) = run("print(1 < 2 and 3 >= 3, not True or False, 1 == 1.0)");
        assert_eq!(out, "True False True\n");
    }

    #[test]
    fn runtime_errors() {
        let program = parse("x = 1 / 0").unwrap();
        let mut i = Interp::new(vec![], vec![]);
        assert!(matches!(i.run(&program), Err(PyError::Runtime(_))));

        let program = parse("print(undefined_name)").unwrap();
        let mut i = Interp::new(vec![], vec![]);
        assert!(matches!(i.run(&program), Err(PyError::Runtime(_))));
    }

    #[test]
    fn fuel_exhaustion() {
        let program = parse("while True:\n    pass").unwrap();
        let mut i = Interp::new(vec![], vec![]).with_fuel(10_000);
        assert_eq!(i.run(&program), Err(PyError::FuelExhausted));
    }

    #[test]
    fn epoch_deadline_interrupts_deterministically() {
        let program = parse("while True:\n    pass").unwrap();
        let spin = |deadline: u64| {
            let mut i = Interp::new(vec![], vec![]).with_epoch(PyEpochClock::new(), deadline, 100);
            let res = i.run(&program);
            (res, i.stats().ops)
        };
        let (res, ops) = spin(5);
        assert_eq!(res, Err(PyError::Interrupted));
        let (res2, ops2) = spin(5);
        assert_eq!(res2, Err(PyError::Interrupted));
        assert_eq!(ops, ops2, "same budget, same trap point");
        let (_, ops_more) = spin(10);
        assert!(ops_more > ops, "a later deadline retires more ops");
    }

    #[test]
    fn external_interrupt_lands_at_the_next_epoch_check() {
        let program = parse("while True:\n    pass").unwrap();
        let clock = PyEpochClock::new();
        let mut i = Interp::new(vec![], vec![]).with_epoch(clock.clone(), u64::MAX, 10);
        clock.interrupt();
        assert_eq!(i.run(&program), Err(PyError::Interrupted));
        assert!(i.stats().ops <= 20, "stopped at the first safepoint, ran {}", i.stats().ops);
    }

    #[test]
    fn stats_accumulate() {
        let (_, _, stats) = run("total = 0\nfor i in range(100):\n    total += i\nprint(total)");
        assert!(stats.ops > 300, "{stats:?}");
        assert!(stats.allocs > 100, "{stats:?}");
    }

    #[test]
    fn math_module() {
        let (out, _, _) = run("import math\nprint(math.floor(math.sqrt(16) + 0.5))");
        assert_eq!(out, "4\n");
    }
}
