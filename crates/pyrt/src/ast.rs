//! Abstract syntax tree for the Python subset.

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    FloorDiv,
    Mod,
    Pow,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Expr {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    None,
    Name(String),
    /// `a.b` (module attribute access).
    Attr(Box<Expr>, String),
    Bin(BinOp, Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    Not(Box<Expr>),
    Call(Box<Expr>, Vec<Expr>),
    List(Vec<Expr>),
    Index(Box<Expr>, Box<Expr>),
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Stmt {
    Assign(String, Expr),
    AugAssign(String, BinOp, Expr),
    IndexAssign(Expr, Expr, Expr),
    Expr(Expr),
    If { branches: Vec<(Expr, Vec<Stmt>)>, else_body: Vec<Stmt> },
    While(Expr, Vec<Stmt>),
    For { var: String, iter: Expr, body: Vec<Stmt> },
    Def { name: String, params: Vec<String>, body: Vec<Stmt> },
    Return(Option<Expr>),
    Break,
    Continue,
    Pass,
    Import(String),
}

/// A parsed program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    pub(crate) body: Vec<Stmt>,
}

impl Program {
    /// Number of AST nodes — drives the modeled parse cost and the
    /// interpreter's code-object memory estimate.
    pub(crate) fn node_count(&self) -> usize {
        fn expr_nodes(e: &Expr) -> usize {
            1 + match e {
                Expr::Attr(o, _) | Expr::Neg(o) | Expr::Not(o) => expr_nodes(o),
                Expr::Bin(_, a, b) | Expr::Index(a, b) => expr_nodes(a) + expr_nodes(b),
                Expr::Call(f, args) => expr_nodes(f) + args.iter().map(expr_nodes).sum::<usize>(),
                Expr::List(items) => items.iter().map(expr_nodes).sum(),
                _ => 0,
            }
        }
        fn stmt_nodes(s: &Stmt) -> usize {
            1 + match s {
                Stmt::Assign(_, e) | Stmt::AugAssign(_, _, e) | Stmt::Expr(e) => expr_nodes(e),
                Stmt::IndexAssign(a, b, c) => expr_nodes(a) + expr_nodes(b) + expr_nodes(c),
                Stmt::If { branches, else_body } => {
                    branches
                        .iter()
                        .map(|(c, b)| expr_nodes(c) + b.iter().map(stmt_nodes).sum::<usize>())
                        .sum::<usize>()
                        + else_body.iter().map(stmt_nodes).sum::<usize>()
                }
                Stmt::While(c, b) => expr_nodes(c) + b.iter().map(stmt_nodes).sum::<usize>(),
                Stmt::For { iter, body, .. } => {
                    expr_nodes(iter) + body.iter().map(stmt_nodes).sum::<usize>()
                }
                Stmt::Def { body, .. } => body.iter().map(stmt_nodes).sum(),
                Stmt::Return(Some(e)) => expr_nodes(e),
                _ => 0,
            }
        }
        self.body.iter().map(stmt_nodes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_counting() {
        let p = Program {
            body: vec![
                Stmt::Assign(
                    "x".into(),
                    Expr::Bin(BinOp::Add, Box::new(Expr::Int(1)), Box::new(Expr::Int(2))),
                ),
                Stmt::Return(Some(Expr::Name("x".into()))),
            ],
        };
        // assign(1) + bin(1) + 2 ints(2) + return(1) + name(1) = 6
        assert_eq!(p.node_count(), 6);
    }
}
