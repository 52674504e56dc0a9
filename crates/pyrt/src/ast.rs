//! Abstract syntax tree of the grammar in [`crate::parser`].

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinOp {
    Add,
    Mul,
    Mod,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Expr {
    Int(i64),
    Str(String),
    Name(String),
    /// `a.b` (module attribute access).
    Attr(Box<Expr>, String),
    Bin(BinOp, Box<Expr>, Box<Expr>),
    Call(Box<Expr>, Vec<Expr>),
    /// `[]`.
    EmptyList,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Stmt {
    Assign(String, Expr),
    Expr(Expr),
    For { var: String, iter: Expr, body: Vec<Stmt> },
    Def { name: String, params: Vec<String>, body: Vec<Stmt> },
    Return(Expr),
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
                Expr::Attr(o, _) => expr_nodes(o),
                Expr::Bin(_, a, b) => expr_nodes(a) + expr_nodes(b),
                Expr::Call(f, args) => expr_nodes(f) + args.iter().map(expr_nodes).sum::<usize>(),
                Expr::Int(_) | Expr::Str(_) | Expr::Name(_) | Expr::EmptyList => 0,
            }
        }
        fn stmt_nodes(s: &Stmt) -> usize {
            1 + match s {
                Stmt::Assign(_, e) | Stmt::Expr(e) | Stmt::Return(e) => expr_nodes(e),
                Stmt::For { iter, body, .. } => {
                    expr_nodes(iter) + body.iter().map(stmt_nodes).sum::<usize>()
                }
                Stmt::Def { body, .. } => body.iter().map(stmt_nodes).sum(),
                Stmt::Import(_) => 0,
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
                Stmt::Return(Expr::Name("x".into())),
            ],
        };
        // assign(1) + bin(1) + 2 ints(2) + return(1) + name(1) = 6
        assert_eq!(p.node_count(), 6);
    }
}
