//! Recursive-descent parser for the Python that the workloads run.
//!
//! pyrt is the executor behind the Python cost model, not a Python
//! implementation: its grammar is what `workloads::python_microservice_script`
//! generates, in all three sizes, plus the script's process interface.
//! A construct comes back with the workload that needs it.
//!
//! ```text
//! program := stmt*
//! stmt    := 'import' NAME NEWLINE
//!          | 'def' NAME '(' [NAME (',' NAME)*] ')' suite
//!          | 'for' NAME 'in' expr suite
//!          | 'return' expr NEWLINE
//!          | NAME '=' expr NEWLINE
//!          | expr NEWLINE
//! suite   := ':' NEWLINE INDENT stmt+ DEDENT
//! expr    := term ('+' term)*
//! term    := postfix (('*' | '%') postfix)*
//! postfix := atom ('(' [expr (',' expr)*] ')' | '.' NAME)*
//! atom    := INT | STRING | NAME | '(' expr ')' | '[' ']'
//! ```
//!
//! Values are 64-bit wrapping ints, strings, lists, `None`, functions and
//! ranges; `%` takes the sign of its divisor, as in Python. The builtins
//! are `print(...)` and `range(n)`, and `for` iterates a `range` only. The
//! importable modules are `sys`, `os`, `time`, `math` and `json`, and the
//! module surface is the script's process interface: `sys.argv`,
//! `sys.exit([code])` and `os.getenv(name)`; a list has `append(x)`.
//! Strings take the escapes `\n`, `\t`, `\\` and the quote; `#` starts a
//! comment. A script that uses anything else fails with a [`ParseError`]
//! (a Python keyword outside the grammar is a lex error) or, for a name,
//! attribute or operand type that only exists at run time, with
//! [`crate::PyError::Runtime`].

use std::fmt;

use crate::ast::{BinOp, Expr, Program, Stmt};
use crate::lexer::{lex, LexError, Tok};

/// Parse errors.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub(crate) message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { message: e.to_string() }
    }
}

/// Parse source text into a program.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let body = p.block_until_eof()?;
    Ok(Program { body })
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        self.toks.get(self.pos).unwrap_or(&Tok::Eof)
    }

    fn bump(&mut self) -> Tok {
        let t = self.peek().clone();
        self.pos += 1;
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> Result<(), ParseError> {
        if self.eat(&t) {
            Ok(())
        } else {
            Err(ParseError { message: format!("expected {t:?}, found {:?}", self.peek()) })
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { message: msg.into() })
    }

    fn block_until_eof(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut body = Vec::new();
        while self.peek() != &Tok::Eof {
            body.push(self.statement()?);
        }
        Ok(body)
    }

    /// An indented suite after a ':' NEWLINE.
    fn suite(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect(Tok::Colon)?;
        self.expect(Tok::Newline)?;
        self.expect(Tok::Indent)?;
        let mut body = Vec::new();
        while self.peek() != &Tok::Dedent && self.peek() != &Tok::Eof {
            body.push(self.statement()?);
        }
        self.expect(Tok::Dedent)?;
        Ok(body)
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        match self.peek().clone() {
            Tok::Import => {
                self.bump();
                let name = match self.bump() {
                    Tok::Name(n) => n,
                    other => return self.err(format!("expected module name, got {other:?}")),
                };
                self.expect(Tok::Newline)?;
                Ok(Stmt::Import(name))
            }
            Tok::Def => {
                self.bump();
                let name = match self.bump() {
                    Tok::Name(n) => n,
                    other => return self.err(format!("expected function name, got {other:?}")),
                };
                self.expect(Tok::LParen)?;
                let mut params = Vec::new();
                if self.peek() != &Tok::RParen {
                    loop {
                        match self.bump() {
                            Tok::Name(n) => params.push(n),
                            other => return self.err(format!("expected parameter, got {other:?}")),
                        }
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(Tok::RParen)?;
                let body = self.suite()?;
                Ok(Stmt::Def { name, params, body })
            }
            Tok::For => {
                self.bump();
                let var = match self.bump() {
                    Tok::Name(n) => n,
                    other => return self.err(format!("expected loop variable, got {other:?}")),
                };
                self.expect(Tok::In)?;
                let iter = self.expr()?;
                let body = self.suite()?;
                Ok(Stmt::For { var, iter, body })
            }
            Tok::Return => {
                self.bump();
                let value = self.expr()?;
                self.expect(Tok::Newline)?;
                Ok(Stmt::Return(value))
            }
            _ => {
                // assignment | expression statement
                let target = self.expr()?;
                let stmt = if self.eat(&Tok::Assign) {
                    let value = self.expr()?;
                    match target {
                        Expr::Name(n) => Stmt::Assign(n, value),
                        other => return self.err(format!("cannot assign to {other:?}")),
                    }
                } else {
                    Stmt::Expr(target)
                };
                self.expect(Tok::Newline)?;
                Ok(stmt)
            }
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.term()?;
        while self.eat(&Tok::Plus) {
            let right = self.term()?;
            left = Expr::Bin(BinOp::Add, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.postfix()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let right = self.postfix()?;
            left = Expr::Bin(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.atom()?;
        loop {
            match self.peek() {
                Tok::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != &Tok::RParen {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    e = Expr::Call(Box::new(e), args);
                }
                Tok::Dot => {
                    self.bump();
                    let name = match self.bump() {
                        Tok::Name(n) => n,
                        other => return self.err(format!("expected attribute, got {other:?}")),
                    };
                    e = Expr::Attr(Box::new(e), name);
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Tok::Int(v) => Ok(Expr::Int(v)),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::Name(n) => Ok(Expr::Name(n)),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::LBracket => {
                self.expect(Tok::RBracket)?;
                Ok(Expr::EmptyList)
            }
            other => self.err(format!("unexpected token {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_assignment() {
        let p = parse("x = 1 + 2 * 3").unwrap();
        assert_eq!(
            p.body,
            vec![Stmt::Assign(
                "x".into(),
                Expr::Bin(
                    BinOp::Add,
                    Box::new(Expr::Int(1)),
                    Box::new(Expr::Bin(BinOp::Mul, Box::new(Expr::Int(2)), Box::new(Expr::Int(3)))),
                )
            )]
        );
    }

    #[test]
    fn precedence_and_parens() {
        let p = parse("x = (1 + 2) * 3").unwrap();
        match &p.body[0] {
            Stmt::Assign(_, Expr::Bin(BinOp::Mul, _, _)) => {}
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn function_def_and_call() {
        let src = "def add(a, b):\n    return a + b\nresult = add(2, 3)";
        let p = parse(src).unwrap();
        assert!(matches!(&p.body[0], Stmt::Def { name, params, .. }
            if name == "add" && params == &["a".to_string(), "b".to_string()]));
        assert!(matches!(&p.body[1], Stmt::Assign(n, Expr::Call(_, args))
            if n == "result" && args.len() == 2));
    }

    #[test]
    fn for_loops() {
        let p = parse("for i in range(10):\n    x = i").unwrap();
        assert!(matches!(&p.body[0], Stmt::For { var, .. } if var == "i"));
    }

    #[test]
    fn attributes_and_lists() {
        let p = parse("a = sys.argv\nxs = []\nxs.append(a)").unwrap();
        assert!(matches!(&p.body[0], Stmt::Assign(_, Expr::Attr(_, a)) if a == "argv"));
        assert!(matches!(&p.body[1], Stmt::Assign(_, Expr::EmptyList)));
        assert!(matches!(&p.body[2], Stmt::Expr(Expr::Call(f, _))
            if matches!(&**f, Expr::Attr(_, a) if a == "append")));
    }

    #[test]
    fn parse_errors() {
        assert!(parse("def :").is_err());
        assert!(parse("1 = x").is_err());
        assert!(parse("for i in r\n    y = 1").is_err());
        assert!(parse("x = ").is_err());
    }
}
