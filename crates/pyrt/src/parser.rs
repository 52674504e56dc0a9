//! Recursive-descent parser for the Python subset.

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
            Tok::If => {
                self.bump();
                let mut branches = Vec::new();
                let cond = self.expr()?;
                branches.push((cond, self.suite()?));
                let mut else_body = Vec::new();
                loop {
                    if self.eat(&Tok::Elif) {
                        let cond = self.expr()?;
                        branches.push((cond, self.suite()?));
                    } else if self.eat(&Tok::Else) {
                        else_body = self.suite()?;
                        break;
                    } else {
                        break;
                    }
                }
                Ok(Stmt::If { branches, else_body })
            }
            Tok::While => {
                self.bump();
                let cond = self.expr()?;
                let body = self.suite()?;
                Ok(Stmt::While(cond, body))
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
                let value = if self.peek() == &Tok::Newline { None } else { Some(self.expr()?) };
                self.expect(Tok::Newline)?;
                Ok(Stmt::Return(value))
            }
            Tok::Break => {
                self.bump();
                self.expect(Tok::Newline)?;
                Ok(Stmt::Break)
            }
            Tok::Continue => {
                self.bump();
                self.expect(Tok::Newline)?;
                Ok(Stmt::Continue)
            }
            Tok::Pass => {
                self.bump();
                self.expect(Tok::Newline)?;
                Ok(Stmt::Pass)
            }
            _ => {
                // assignment | aug-assignment | expression statement
                let target = self.expr()?;
                let stmt = if self.eat(&Tok::Assign) {
                    let value = self.expr()?;
                    match target {
                        Expr::Name(n) => Stmt::Assign(n, value),
                        Expr::Index(obj, idx) => Stmt::IndexAssign(*obj, *idx, value),
                        other => return self.err(format!("cannot assign to {other:?}")),
                    }
                } else if self.eat(&Tok::PlusAssign) {
                    let value = self.expr()?;
                    match target {
                        Expr::Name(n) => Stmt::AugAssign(n, BinOp::Add, value),
                        other => return self.err(format!("cannot assign to {other:?}")),
                    }
                } else if self.eat(&Tok::MinusAssign) {
                    let value = self.expr()?;
                    match target {
                        Expr::Name(n) => Stmt::AugAssign(n, BinOp::Sub, value),
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
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.and_expr()?;
        while self.eat(&Tok::Or) {
            let right = self.and_expr()?;
            left = Expr::Bin(BinOp::Or, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.not_expr()?;
        while self.eat(&Tok::And) {
            let right = self.not_expr()?;
            left = Expr::Bin(BinOp::And, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Tok::Not) {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr, ParseError> {
        let left = self.arith()?;
        let op = match self.peek() {
            Tok::Eq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            _ => return Ok(left),
        };
        self.bump();
        let right = self.arith()?;
        Ok(Expr::Bin(op, Box::new(left), Box::new(right)))
    }

    fn arith(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.term()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.term()?;
            left = Expr::Bin(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.factor()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::DoubleSlash => BinOp::FloorDiv,
                Tok::Percent => BinOp::Mod,
                Tok::DoubleStar => BinOp::Pow,
                _ => break,
            };
            self.bump();
            let right = self.factor()?;
            left = Expr::Bin(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Tok::Minus) {
            return Ok(Expr::Neg(Box::new(self.factor()?)));
        }
        if self.eat(&Tok::Plus) {
            return self.factor();
        }
        self.postfix()
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
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    e = Expr::Index(Box::new(e), Box::new(idx));
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
            Tok::Float(v) => Ok(Expr::Float(v)),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::True => Ok(Expr::Bool(true)),
            Tok::False => Ok(Expr::Bool(false)),
            Tok::None => Ok(Expr::None),
            Tok::Name(n) => Ok(Expr::Name(n)),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::LBracket => {
                let mut items = Vec::new();
                if self.peek() != &Tok::RBracket {
                    loop {
                        items.push(self.expr()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(Tok::RBracket)?;
                Ok(Expr::List(items))
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
    fn if_elif_else() {
        let src = "if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3";
        let p = parse(src).unwrap();
        match &p.body[0] {
            Stmt::If { branches, else_body } => {
                assert_eq!(branches.len(), 2);
                assert_eq!(else_body.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn while_for_break_continue() {
        let src = "while True:\n    break\nfor i in range(10):\n    continue";
        let p = parse(src).unwrap();
        assert!(matches!(&p.body[0], Stmt::While(Expr::Bool(true), b) if b == &[Stmt::Break]));
        assert!(matches!(&p.body[1], Stmt::For { var, .. } if var == "i"));
    }

    #[test]
    fn attributes_and_indexing() {
        let p = parse("t = time.time()\nv = xs[0]").unwrap();
        assert!(matches!(&p.body[0], Stmt::Assign(_, Expr::Call(f, _))
            if matches!(&**f, Expr::Attr(_, a) if a == "time")));
        assert!(matches!(&p.body[1], Stmt::Assign(_, Expr::Index(_, _))));
    }

    #[test]
    fn aug_assign() {
        let p = parse("x += 2\ny -= 1").unwrap();
        assert!(matches!(&p.body[0], Stmt::AugAssign(n, BinOp::Add, _) if n == "x"));
        assert!(matches!(&p.body[1], Stmt::AugAssign(n, BinOp::Sub, _) if n == "y"));
    }

    #[test]
    fn list_literals_and_index_assign() {
        let p = parse("xs = [1, 2, 3]\nxs[0] = 9").unwrap();
        assert!(matches!(&p.body[0], Stmt::Assign(_, Expr::List(items)) if items.len() == 3));
        assert!(matches!(&p.body[1], Stmt::IndexAssign(_, _, _)));
    }

    #[test]
    fn parse_errors() {
        assert!(parse("def :").is_err());
        assert!(parse("1 = x").is_err());
        assert!(parse("if x\n    y = 1").is_err());
        assert!(parse("x = ").is_err());
    }
}
