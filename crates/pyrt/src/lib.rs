//! # pyrt — the Python container baseline
//!
//! The paper compares its WAMR-crun integration against "standard Python
//! containers" on crun and runC (§IV-D/E). This crate provides that
//! baseline as a *real* interpreter for a Python subset — lexer with
//! indentation handling, recursive-descent parser, tree-walking evaluator
//! with functions, loops, lists and a small stdlib surface — plus a
//! [`handler::PythonHandler`] that executes `.py` container entrypoints
//! inside the container process with CPython-scale memory charging and
//! cold-start latency.

pub mod ast;
pub mod handler;
pub mod interp;
pub mod lexer;
pub mod parser;

pub use ast::{BinOp, Expr, Program, Stmt};
pub use handler::{
    execute_script, install_python, scripts, PythonHandler, PythonProfile, ScriptInputs, ScriptKey,
    ScriptOutcome, PYTHON,
};
pub use interp::{Interp, PyEpochClock, PyError, PyStats, PyValue};
pub use parser::{parse, ParseError};
