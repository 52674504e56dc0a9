//! Tokenizer for the Python subset, with indentation-based block structure.

use std::fmt;

/// Tokens produced by the lexer.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    // Literals and names.
    Int(i64),
    Float(f64),
    Str(String),
    Name(String),
    // Keywords.
    Def,
    Return,
    If,
    Elif,
    Else,
    While,
    For,
    In,
    Break,
    Continue,
    Pass,
    Import,
    And,
    Or,
    Not,
    True,
    False,
    None,
    // Punctuation and operators.
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Colon,
    Dot,
    Assign,
    PlusAssign,
    MinusAssign,
    Plus,
    Minus,
    Star,
    DoubleStar,
    Slash,
    DoubleSlash,
    Percent,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    // Layout.
    Newline,
    Indent,
    Dedent,
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Lexer errors with line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LexError {
    pub(crate) line: usize,
    pub(crate) message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize a source file.
pub(crate) fn lex(src: &str) -> Result<Vec<Tok>, LexError> {
    let mut out = Vec::new();
    let mut indents = vec![0usize];
    for (lineno, raw_line) in src.lines().enumerate() {
        let line_num = lineno + 1;
        // Strip comments (not inside strings — the subset forbids '#' in
        // strings for simplicity of tooling; none of our workloads use it).
        let line = match raw_line.find('#') {
            Some(i) if !raw_line[..i].contains('"') && !raw_line[..i].contains('\'') => {
                &raw_line[..i]
            }
            _ => raw_line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let indent = line.len() - line.trim_start_matches(' ').len();
        if line.as_bytes().first() == Some(&b'\t') {
            return Err(LexError { line: line_num, message: "tabs not supported".into() });
        }
        let current = *indents.last().expect("indent stack never empty");
        if indent > current {
            indents.push(indent);
            out.push(Tok::Indent);
        } else {
            while indent < *indents.last().expect("non-empty") {
                indents.pop();
                out.push(Tok::Dedent);
            }
            if indent != *indents.last().expect("non-empty") {
                return Err(LexError { line: line_num, message: "inconsistent dedent".into() });
            }
        }
        lex_line(line.trim_start_matches(' '), line_num, &mut out)?;
        out.push(Tok::Newline);
    }
    while indents.len() > 1 {
        indents.pop();
        out.push(Tok::Dedent);
    }
    out.push(Tok::Eof);
    Ok(out)
}

fn lex_line(mut s: &str, line: usize, out: &mut Vec<Tok>) -> Result<(), LexError> {
    while !s.is_empty() {
        let c = s.chars().next().expect("non-empty");
        if c == ' ' {
            s = &s[1..];
            continue;
        }
        if c.is_ascii_digit() {
            let end = s.find(|c: char| !(c.is_ascii_digit() || c == '.')).unwrap_or(s.len());
            let text = &s[..end];
            s = &s[end..];
            if text.contains('.') {
                let v: f64 = text
                    .parse()
                    .map_err(|_| LexError { line, message: format!("bad float {text}") })?;
                out.push(Tok::Float(v));
            } else {
                let v: i64 = text
                    .parse()
                    .map_err(|_| LexError { line, message: format!("bad int {text}") })?;
                out.push(Tok::Int(v));
            }
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let end = s.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(s.len());
            let word = &s[..end];
            s = &s[end..];
            out.push(match word {
                "def" => Tok::Def,
                "return" => Tok::Return,
                "if" => Tok::If,
                "elif" => Tok::Elif,
                "else" => Tok::Else,
                "while" => Tok::While,
                "for" => Tok::For,
                "in" => Tok::In,
                "break" => Tok::Break,
                "continue" => Tok::Continue,
                "pass" => Tok::Pass,
                "import" => Tok::Import,
                "and" => Tok::And,
                "or" => Tok::Or,
                "not" => Tok::Not,
                "True" => Tok::True,
                "False" => Tok::False,
                "None" => Tok::None,
                name => Tok::Name(name.to_string()),
            });
            continue;
        }
        if c == '"' || c == '\'' {
            let quote = c;
            let rest = &s[1..];
            let mut value = String::new();
            let mut chars = rest.char_indices();
            let mut end = None;
            while let Some((i, ch)) = chars.next() {
                if ch == '\\' {
                    match chars.next() {
                        Some((_, 'n')) => value.push('\n'),
                        Some((_, 't')) => value.push('\t'),
                        Some((_, '\\')) => value.push('\\'),
                        Some((_, q)) if q == quote => value.push(quote),
                        _ => {
                            return Err(LexError { line, message: "bad escape".into() });
                        }
                    }
                } else if ch == quote {
                    end = Some(i);
                    break;
                } else {
                    value.push(ch);
                }
            }
            let end =
                end.ok_or_else(|| LexError { line, message: "unterminated string".into() })?;
            s = &rest[end + 1..];
            out.push(Tok::Str(value));
            continue;
        }
        // Operators (longest first). `get` avoids slicing inside a
        // multibyte character (two-byte operators are all ASCII anyway).
        let two = s.get(..2).unwrap_or("");
        let tok2 = match two {
            "**" => Some(Tok::DoubleStar),
            "//" => Some(Tok::DoubleSlash),
            "==" => Some(Tok::Eq),
            "!=" => Some(Tok::Ne),
            "<=" => Some(Tok::Le),
            ">=" => Some(Tok::Ge),
            "+=" => Some(Tok::PlusAssign),
            "-=" => Some(Tok::MinusAssign),
            _ => None,
        };
        if let Some(t) = tok2 {
            out.push(t);
            s = &s[2..];
            continue;
        }
        let tok1 = match c {
            '(' => Tok::LParen,
            ')' => Tok::RParen,
            '[' => Tok::LBracket,
            ']' => Tok::RBracket,
            ',' => Tok::Comma,
            ':' => Tok::Colon,
            '.' => Tok::Dot,
            '=' => Tok::Assign,
            '+' => Tok::Plus,
            '-' => Tok::Minus,
            '*' => Tok::Star,
            '/' => Tok::Slash,
            '%' => Tok::Percent,
            '<' => Tok::Lt,
            '>' => Tok::Gt,
            other => {
                return Err(LexError { line, message: format!("unexpected character {other:?}") })
            }
        };
        out.push(tok1);
        s = &s[c.len_utf8()..];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_strings_names() {
        let toks = lex("x = 42\ny = 3.5\nz = \"hi\\n\"").unwrap();
        assert!(toks.contains(&Tok::Int(42)));
        assert!(toks.contains(&Tok::Float(3.5)));
        assert!(toks.contains(&Tok::Str("hi\n".into())));
        assert!(toks.contains(&Tok::Name("x".into())));
    }

    #[test]
    fn indentation_blocks() {
        let src = "if x:\n    y = 1\n    z = 2\nw = 3";
        let toks = lex(src).unwrap();
        let indents = toks.iter().filter(|t| **t == Tok::Indent).count();
        let dedents = toks.iter().filter(|t| **t == Tok::Dedent).count();
        assert_eq!(indents, 1);
        assert_eq!(dedents, 1);
    }

    #[test]
    fn nested_dedents_at_eof() {
        let src = "def f():\n    if x:\n        return 1";
        let toks = lex(src).unwrap();
        let dedents = toks.iter().filter(|t| **t == Tok::Dedent).count();
        assert_eq!(dedents, 2, "all blocks closed at EOF");
        assert_eq!(*toks.last().unwrap(), Tok::Eof);
    }

    #[test]
    fn operators() {
        let toks = lex("a == b != c <= d >= e // f ** g").unwrap();
        for t in [Tok::Eq, Tok::Ne, Tok::Le, Tok::Ge, Tok::DoubleSlash, Tok::DoubleStar] {
            assert!(toks.contains(&t), "{t:?}");
        }
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let toks = lex("x = 1  # set x\n\n# whole line\ny = 2").unwrap();
        assert!(toks.contains(&Tok::Int(1)));
        assert!(toks.contains(&Tok::Int(2)));
        assert!(!toks.iter().any(|t| matches!(t, Tok::Name(n) if n == "set")));
    }

    #[test]
    fn errors() {
        assert!(lex("x = $").is_err());
        assert!(lex("s = \"unterminated").is_err());
        assert!(lex("if x:\n    y = 1\n  z = 2").is_err(), "inconsistent dedent");
    }

    #[test]
    fn keywords_vs_names() {
        let toks = lex("formula = 1").unwrap();
        assert!(toks.contains(&Tok::Name("formula".into())), "not the `for` keyword");
    }
}
