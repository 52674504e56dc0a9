//! # pyrt — the Python container baseline
//!
//! The paper compares its WAMR-crun integration against "standard Python
//! containers" on crun and runC (§IV-D/E). This crate provides that
//! baseline: a lexer, parser and tree-walking evaluator that really execute
//! the Python the workload scripts use (the grammar is in [`parse`]'s
//! module, `parser.rs`; anything else fails with a typed error), plus a
//! [`handler::PythonHandler`] that executes `.py` container entrypoints
//! inside the container process with CPython-scale memory charging and
//! cold-start latency.

pub(crate) mod ast;
pub mod handler;
pub(crate) mod interp;
pub(crate) mod lexer;
pub(crate) mod parser;

pub use handler::{execute_script, install_python, scripts, PythonHandler, ScriptInputs, PYTHON};
pub use interp::{Interp, PyError};
pub use parser::parse;
