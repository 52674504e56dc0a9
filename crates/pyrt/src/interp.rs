//! Tree-walking evaluator for the grammar in [`crate::parser`].
//!
//! Functions get their own scope (locals, then globals, then the
//! builtins), and `for` walks its `range` lazily, so a script never makes
//! the host hold more than its own values. Execution is metered (op
//! count) so the container stack can convert work into simulated time,
//! and allocation counts feed the interpreter-heap memory estimate.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use crate::ast::{BinOp, Expr, Program, Stmt};

/// Runtime values.
#[derive(Debug, Clone)]
pub(crate) enum PyValue {
    Int(i64),
    Str(Rc<String>),
    None,
    List(Rc<RefCell<Vec<PyValue>>>),
    Func(Rc<FuncDef>),
    Builtin(&'static str),
    Module(&'static str),
    /// `range(stop)`: 0, 1, …, stop - 1.
    Range(i64),
}

/// A user-defined function.
#[derive(Debug)]
pub(crate) struct FuncDef {
    pub(crate) name: String,
    pub(crate) params: Vec<String>,
    pub(crate) body: Vec<Stmt>,
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

impl std::error::Error for PyError {}

/// A shared epoch counter mirroring `wasm_core::EpochClock` (the crates are
/// deliberately independent): the interpreter advances it as ops retire and
/// checks it against a deadline at each tick.
#[derive(Debug, Clone, Default)]
pub(crate) struct PyEpochClock {
    epoch: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl PyEpochClock {
    pub(crate) fn new() -> PyEpochClock {
        PyEpochClock::default()
    }

    /// Current epoch.
    pub(crate) fn now(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Advance by `ticks` epochs and return the new value (saturating, so
    /// an interrupted clock stays interrupted).
    pub(crate) fn advance(&self, ticks: u64) -> u64 {
        let now = self.now().saturating_add(ticks);
        self.epoch.store(now, std::sync::atomic::Ordering::Relaxed);
        now
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

/// A function's locals, or `None` at module level.
type Locals<'a> = Option<&'a mut HashMap<String, PyValue>>;

/// Interpreter statistics for the container cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PyStats {
    /// Bytecode-ish operations executed.
    pub ops: u64,
    /// Heap allocations performed (objects, list growths, strings).
    pub allocs: u64,
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
    /// An interpreter with a budget of 200 M ops ([`Interp::with_fuel`]
    /// changes it).
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
    pub(crate) fn with_epoch(mut self, clock: PyEpochClock, deadline: u64, tick_ops: u64) -> Self {
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
        match self.exec_body(&program.body, &mut None)? {
            None => Ok(0),
            Some(_) => Err(PyError::Runtime("'return' outside function".into())),
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

    /// Run `body`; `Some(value)` when a `return` ended it.
    fn exec_body(
        &mut self,
        body: &[Stmt],
        locals: &mut Locals<'_>,
    ) -> Result<Option<PyValue>, PyError> {
        for s in body {
            if let Some(ret) = self.exec_stmt(s, locals)? {
                return Ok(Some(ret));
            }
        }
        Ok(None)
    }

    fn exec_stmt(&mut self, s: &Stmt, locals: &mut Locals<'_>) -> Result<Option<PyValue>, PyError> {
        self.burn(1)?;
        match s {
            Stmt::Import(name) => {
                if !self.imported.contains(name) {
                    self.imported.push(name.clone());
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
                self.assign(name.clone(), PyValue::Module(module), locals);
            }
            Stmt::Assign(name, expr) => {
                let v = self.eval(expr, locals)?;
                self.assign(name.clone(), v, locals);
            }
            Stmt::Expr(e) => {
                self.eval(e, locals)?;
            }
            Stmt::For { var, iter, body } => {
                let stop = match self.eval(iter, locals)? {
                    PyValue::Range(stop) => stop,
                    other => {
                        return Err(PyError::Runtime(format!(
                            "{} is not iterable",
                            type_name(&other)
                        )))
                    }
                };
                // One value at a time: a huge range costs fuel, not host
                // memory.
                for i in 0..stop {
                    self.burn(1)?;
                    self.assign(var.clone(), PyValue::Int(i), locals);
                    if let Some(ret) = self.exec_body(body, locals)? {
                        return Ok(Some(ret));
                    }
                }
            }
            Stmt::Def { name, params, body } => {
                self.alloc(10);
                let f = PyValue::Func(Rc::new(FuncDef {
                    name: name.clone(),
                    params: params.clone(),
                    body: body.clone(),
                }));
                self.assign(name.clone(), f, locals);
            }
            Stmt::Return(e) => return Ok(Some(self.eval(e, locals)?)),
        }
        Ok(None)
    }

    fn assign(&mut self, name: String, v: PyValue, locals: &mut Locals<'_>) {
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

    fn lookup(&self, name: &str, locals: &Locals<'_>) -> Result<PyValue, PyError> {
        if let Some(l) = locals {
            if let Some(v) = l.get(name) {
                return Ok(v.clone());
            }
        }
        if let Some(v) = self.globals.get(name) {
            return Ok(v.clone());
        }
        match name {
            "print" => Ok(PyValue::Builtin("print")),
            "range" => Ok(PyValue::Builtin("range")),
            _ => Err(PyError::Runtime(format!("name {name:?} is not defined"))),
        }
    }

    fn eval_args(
        &mut self,
        args: &[Expr],
        locals: &mut Locals<'_>,
    ) -> Result<Vec<PyValue>, PyError> {
        args.iter().map(|a| self.eval(a, locals)).collect()
    }

    fn eval(&mut self, e: &Expr, locals: &mut Locals<'_>) -> Result<PyValue, PyError> {
        self.burn(1)?;
        match e {
            Expr::Int(v) => Ok(PyValue::Int(*v)),
            Expr::Str(s) => {
                self.alloc(1);
                Ok(PyValue::Str(Rc::new(s.clone())))
            }
            Expr::Name(n) => self.lookup(n, locals),
            Expr::Bin(op, a, b) => {
                let left = self.eval(a, locals)?;
                let right = self.eval(b, locals)?;
                binop(*op, left, right)
            }
            Expr::EmptyList => {
                self.alloc(1);
                Ok(PyValue::List(Rc::new(RefCell::new(Vec::new()))))
            }
            Expr::Attr(obj, name) => match self.eval(obj, locals)? {
                PyValue::Module("sys") if name == "argv" => {
                    self.alloc(1 + self.argv.len() as u64);
                    Ok(PyValue::List(Rc::new(RefCell::new(
                        self.argv.iter().map(|a| PyValue::Str(Rc::new(a.clone()))).collect(),
                    ))))
                }
                other => Err(no_attribute(&other, name)),
            },
            Expr::Call(f, args) => match &**f {
                // A method call: `list.append(x)` or a module function.
                Expr::Attr(obj, method) => match self.eval(obj, locals)? {
                    PyValue::List(list) if method == "append" => {
                        let mut vals = self.eval_args(args, locals)?;
                        if vals.len() != 1 {
                            return Err(PyError::Runtime("append takes one argument".into()));
                        }
                        self.alloc(1);
                        list.borrow_mut().push(vals.pop().expect("one"));
                        Ok(PyValue::None)
                    }
                    PyValue::Module(m) => {
                        let vals = self.eval_args(args, locals)?;
                        self.call_module(m, method, vals)
                    }
                    other => Err(no_attribute(&other, method)),
                },
                _ => {
                    let callee = self.eval(f, locals)?;
                    let vals = self.eval_args(args, locals)?;
                    self.call(callee, vals)
                }
            },
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
                Ok(self.exec_body(&def.body, &mut Some(&mut frame))?.unwrap_or(PyValue::None))
            }
            PyValue::Builtin("print") => {
                let parts: Vec<String> = args.iter().map(to_display).collect();
                self.stdout.extend_from_slice(parts.join(" ").as_bytes());
                self.stdout.push(b'\n');
                self.alloc(args.len() as u64);
                Ok(PyValue::None)
            }
            PyValue::Builtin("range") => match args.as_slice() {
                [stop] => Ok(PyValue::Range(int_arg(stop)?)),
                _ => Err(PyError::Runtime(format!("range() takes 1 argument, got {}", args.len()))),
            },
            other => Err(PyError::Runtime(format!("{} is not callable", type_name(&other)))),
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
}

fn binop(op: BinOp, a: PyValue, b: PyValue) -> Result<PyValue, PyError> {
    let (PyValue::Int(x), PyValue::Int(y)) = (&a, &b) else {
        return Err(PyError::Runtime(format!(
            "unsupported operands for {op:?}: {} and {}",
            type_name(&a),
            type_name(&b)
        )));
    };
    Ok(PyValue::Int(match op {
        BinOp::Add => x.wrapping_add(*y),
        BinOp::Mul => x.wrapping_mul(*y),
        BinOp::Mod => {
            if *y == 0 {
                return Err(PyError::Runtime("modulo by zero".into()));
            }
            // Python's %: the result takes the divisor's sign.
            let r = x.wrapping_rem(*y);
            if r != 0 && (r < 0) != (*y < 0) {
                r + y
            } else {
                r
            }
        }
    }))
}

fn no_attribute(v: &PyValue, name: &str) -> PyError {
    PyError::Runtime(format!("{} has no attribute {name:?}", type_name(v)))
}

fn int_arg(v: &PyValue) -> Result<i64, PyError> {
    match v {
        PyValue::Int(i) => Ok(*i),
        other => Err(PyError::Runtime(format!("expected int, got {}", type_name(other)))),
    }
}

fn type_name(v: &PyValue) -> &'static str {
    match v {
        PyValue::Int(_) => "int",
        PyValue::Str(_) => "str",
        PyValue::None => "NoneType",
        PyValue::List(_) => "list",
        PyValue::Func(_) => "function",
        PyValue::Builtin(_) => "builtin",
        PyValue::Module(_) => "module",
        PyValue::Range(_) => "range",
    }
}

fn to_display(v: &PyValue) -> String {
    match v {
        PyValue::Int(i) => i.to_string(),
        PyValue::Str(s) => s.to_string(),
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

    impl PyEpochClock {
        /// Force the clock past every deadline: the interpreter raises
        /// [`PyError::Interrupted`] at its next epoch check.
        fn interrupt(&self) {
            self.epoch.store(u64::MAX, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Counts far past what the host could hold as a list of values
    /// (2^40 of them would be 32 TiB).
    const SPIN: &str = "for i in range(1099511627776):\n    x = i\n";

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
        let (out, _, _) = run("print(2 + 3 * 4, (2 + 3) * 4, 7 % 3, 9223372036854775807 + 1)");
        assert_eq!(out, "14 20 1 -9223372036854775808\n");
    }

    #[test]
    fn loops_and_functions() {
        let src = "\
def square(n):
    return n * n

total = 0
for i in range(5):
    total = total + square(i)
print(total)
";
        let (out, _, _) = run(src);
        assert_eq!(out, "30\n"); // 0+1+4+9+16
    }

    #[test]
    fn lists() {
        let (out, _, _) = run("xs = []\nxs.append(1)\nxs.append(\"a\")\nprint(xs, [])");
        assert_eq!(out, "[1, 'a'] []\n");
    }

    #[test]
    fn sys_exit_and_argv() {
        let program = parse("import sys\nprint(sys.argv)\nsys.exit(3)").unwrap();
        let mut interp = Interp::new(vec!["svc.py".into()], vec![]);
        assert_eq!(interp.run(&program), Err(PyError::Exit(3)));
        assert_eq!(interp.stdout, b"['svc.py']\n");
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
    fn runtime_errors() {
        for src in [
            "x = 1 % 0",
            "print(undefined_name)",
            "import numpy",
            "def f(a):\n    return a\nf(1, 2)",
            "return 1",
        ] {
            let mut i = Interp::new(vec![], vec![]);
            assert!(matches!(i.run(&parse(src).unwrap()), Err(PyError::Runtime(_))), "{src}");
        }
    }

    /// Every construct the grammar dropped fails with a typed error: a
    /// parse error where the text says what it is, a runtime error where
    /// only a name, attribute or operand type does. None of them panics.
    #[test]
    fn deleted_constructs_are_rejected() {
        let parse_errors = [
            "if x:\n    y = 1\n",
            "if x:\n    y = 1\nelif z:\n    y = 2\nelse:\n    y = 3\n",
            "while x:\n    y = 1\n",
            "for i in range(3):\n    break\n",
            "for i in range(3):\n    continue\n",
            "def f():\n    pass\n",
            "def f():\n    return\n",
            "x += 1",
            "x -= 1",
            "xs[0] = 1",
            "y = xs[0]",
            "x = 1.5",
            "x = True",
            "x = False",
            "x = None",
            "x = -1",
            "x = +1",
            "x = not y",
            "x = a and b",
            "x = a or b",
            "x = [1, 2]",
        ];
        for src in parse_errors {
            assert!(parse(src).is_err(), "{src:?} parsed");
        }
        for op in ["==", "!=", "<", "<=", ">", ">=", "-", "/", "//", "**"] {
            let src = format!("x = a {op} b");
            assert!(parse(&src).is_err(), "{src:?} parsed");
        }
        let runtime_errors = [
            "print(len(\"ab\"))",
            "print(str(1))",
            "print(int(\"1\"))",
            "print(float(1))",
            "print(abs(1))",
            "print(sum(xs))",
            "print(min(1, 2))",
            "print(max(1, 2))",
            "r = range(1, 3)",
            "r = range(0, 9, 2)",
            "import math\nx = math.pi",
            "import math\nx = math.sqrt(4)",
            "import math\nx = math.floor(4)",
            "import time\nx = time.time()",
            "import time\ntime.sleep(1)",
            "for c in \"ab\":\n    x = c\n",
            "for v in []:\n    x = v\n",
            "x = \"a\" + \"b\"",
            "x = \"a\" * 2",
            "x = [] + []",
        ];
        for src in runtime_errors {
            let program = parse(src).unwrap_or_else(|e| panic!("{src:?}: {e}"));
            let mut i = Interp::new(vec![], vec![]);
            assert!(matches!(i.run(&program), Err(PyError::Runtime(_))), "{src:?}");
        }
    }

    #[test]
    fn a_huge_range_runs_out_of_fuel_without_materialising() {
        let program = parse(SPIN).unwrap();
        let mut i = Interp::new(vec![], vec![]).with_fuel(1_000);
        assert_eq!(i.run(&program), Err(PyError::FuelExhausted));
        assert_eq!(i.stats().ops, 1_001, "stopped at the first op over budget");
    }

    #[test]
    fn epoch_deadline_interrupts_deterministically() {
        let program = parse(SPIN).unwrap();
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
        let program = parse(SPIN).unwrap();
        let clock = PyEpochClock::new();
        let mut i = Interp::new(vec![], vec![]).with_epoch(clock.clone(), u64::MAX, 10);
        clock.interrupt();
        assert_eq!(i.run(&program), Err(PyError::Interrupted));
        assert!(i.stats().ops <= 20, "stopped at the first safepoint, ran {}", i.stats().ops);
    }

    #[test]
    fn stats_accumulate() {
        let (_, _, stats) =
            run("total = 0\nfor i in range(100):\n    total = total + i\nprint(total)");
        assert!(stats.ops > 300, "{stats:?}");
        assert!(stats.allocs > 100, "{stats:?}");
    }

    mod proptests {
        //! Property tests for the mini-Python: generated arithmetic programs are
        //! evaluated by the interpreter and checked against a Rust reference, and
        //! the lexer/parser never panic on arbitrary input. Runs on the offline
        //! `simkernel::prop` harness.

        use super::SPIN;
        use crate::{parse, Interp, PyError};
        use simkernel::prop::check;
        use simkernel::rng::SplitMix64;

        /// A random integer expression with a reference value, built bottom-up so
        /// every generated program is semantically valid (no modulo by zero).
        #[derive(Debug, Clone)]
        struct ExprCase {
            src: String,
            value: i64,
        }

        fn gen_expr(g: &mut SplitMix64, depth: u32) -> ExprCase {
            if depth == 0 || g.index(3) == 0 {
                let v = g.range_i64(0, 1000);
                return ExprCase { src: format!("{v}"), value: v };
            }
            let a = gen_expr(g, depth - 1);
            match g.index(3) {
                0 => {
                    let b = gen_expr(g, depth - 1);
                    ExprCase {
                        src: format!("({} + {})", a.src, b.src),
                        value: a.value.wrapping_add(b.value),
                    }
                }
                1 => {
                    let b = gen_expr(g, depth - 1);
                    ExprCase {
                        src: format!("({} * {})", a.src, b.src),
                        value: a.value.wrapping_mul(b.value),
                    }
                }
                // Mod by a nonzero constant (Python semantics: rem_euclid
                // for a positive divisor, also of a wrapped negative value).
                _ => ExprCase { src: format!("({} % 13)", a.src), value: a.value.rem_euclid(13) },
            }
        }

        #[test]
        fn expressions_match_reference() {
            check("expressions_match_reference", 256, |g| {
                let case = gen_expr(g, 4);
                let src = format!("print({})", case.src);
                let program = parse(&src).unwrap();
                let mut interp = Interp::new(vec![], vec![]);
                interp.run(&program).unwrap();
                let out = String::from_utf8(interp.stdout.clone()).unwrap();
                assert_eq!(out.trim(), case.value.to_string());
            });
        }

        /// Everything a token of the grammar this parser once had is spelt
        /// with, the dropped keywords and operators included, plus stray
        /// characters, layout and quoting.
        const VOCAB: &[&str] = &[
            "def", "return", "if", "elif", "else", "while", "for", "in", "break", "continue",
            "pass", "import", "and", "or", "not", "True", "False", "None", "print", "range", "sys",
            "x", "_y", "0", "7", "3.5", "\"s\"", "'t'", "\"\\n\"", "(", ")", "[", "]", ",", ":",
            ".", "=", "+=", "-=", "+", "-", "*", "**", "/", "//", "%", "==", "!=", "<", "<=", ">",
            ">=", " ", "    ", "\n", "\t", "#", "\"", "'", "\\", "é", "!", "$",
        ];

        #[test]
        fn lexer_and_parser_never_panic() {
            check("lexer_and_parser_never_panic", 512, |g| {
                let len = g.index(40);
                let src: String = (0..len).map(|_| *g.choose(VOCAB)).collect();
                let _ = parse(&src);
            });
        }

        #[test]
        fn loops_sum_matches_closed_form() {
            check("loops_sum_matches_closed_form", 128, |g| {
                let n = g.range_i64(0, 300);
                let src =
                    format!("total = 0\nfor i in range({n}):\n    total = total + i\nprint(total)");
                let program = parse(&src).unwrap();
                let mut interp = Interp::new(vec![], vec![]);
                interp.run(&program).unwrap();
                let expected: i64 = (0..n).sum();
                let out = String::from_utf8(interp.stdout.clone()).unwrap();
                assert_eq!(out.trim(), expected.to_string());
            });
        }

        #[test]
        fn fuel_always_terminates() {
            check("fuel_always_terminates", 64, |g| {
                let fuel = g.range_u64(10, 5000);
                let program = parse(SPIN).unwrap();
                let mut interp = Interp::new(vec![], vec![]).with_fuel(fuel);
                assert_eq!(interp.run(&program), Err(PyError::FuelExhausted));
                assert!(interp.stats().ops <= fuel + 2);
            });
        }

        #[test]
        fn functions_compose() {
            check("functions_compose", 128, |g| {
                let a = g.range_i64(0, 100);
                let b = g.range_i64(0, 100);
                let src = format!(
                    "def f(x):\n    return x * 2 + 1\n\ndef g(x):\n    return f(x) * 3\n\nprint(g({a}) + f({b}))"
                );
                let program = parse(&src).unwrap();
                let mut interp = Interp::new(vec![], vec![]);
                interp.run(&program).unwrap();
                let expected = (a * 2 + 1) * 3 + (b * 2 + 1);
                let out = String::from_utf8(interp.stdout.clone()).unwrap();
                assert_eq!(out.trim(), expected.to_string());
            });
        }
    }
}
