//! Tokenizer for the grammar in [`crate::parser`], with indentation-based
//! block structure.

use std::fmt;

/// Tokens produced by the lexer.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    // Literals and names.
    Int(i64),
    Str(String),
    Name(String),
    // Keywords.
    Def,
    Return,
    For,
    In,
    Import,
    // Punctuation and operators.
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Colon,
    Dot,
    Assign,
    Plus,
    Star,
    Percent,
    // Layout.
    Newline,
    Indent,
    Dedent,
    Eof,
}

/// Python keywords outside the grammar. Lexed as names they would be
/// undefined variables, or nothing at all in a body that never runs, so a
/// script that uses one is rejected here.
const UNSUPPORTED_KEYWORDS: &[&str] = &[
    "False", "None", "True", "and", "as", "assert", "async", "await", "break", "class", "continue",
    "del", "elif", "else", "except", "finally", "from", "global", "if", "is", "lambda", "nonlocal",
    "not", "or", "pass", "raise", "try", "while", "with", "yield",
];

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
            let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
            let text = &s[..end];
            s = &s[end..];
            let v: i64 =
                text.parse().map_err(|_| LexError { line, message: format!("bad int {text}") })?;
            out.push(Tok::Int(v));
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let end = s.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(s.len());
            let word = &s[..end];
            s = &s[end..];
            out.push(match word {
                "def" => Tok::Def,
                "return" => Tok::Return,
                "for" => Tok::For,
                "in" => Tok::In,
                "import" => Tok::Import,
                kw if UNSUPPORTED_KEYWORDS.contains(&kw) => {
                    return Err(LexError { line, message: format!("unsupported keyword {kw}") })
                }
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
        let tok = match c {
            '(' => Tok::LParen,
            ')' => Tok::RParen,
            '[' => Tok::LBracket,
            ']' => Tok::RBracket,
            ',' => Tok::Comma,
            ':' => Tok::Colon,
            '.' => Tok::Dot,
            '=' => Tok::Assign,
            '+' => Tok::Plus,
            '*' => Tok::Star,
            '%' => Tok::Percent,
            other => {
                return Err(LexError { line, message: format!("unexpected character {other:?}") })
            }
        };
        out.push(tok);
        s = &s[c.len_utf8()..];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_strings_names() {
        let toks = lex("x = 42\nz = \"hi\\n\"").unwrap();
        assert!(toks.contains(&Tok::Int(42)));
        assert!(toks.contains(&Tok::Str("hi\n".into())));
        assert!(toks.contains(&Tok::Name("x".into())));
    }

    #[test]
    fn indentation_blocks() {
        let src = "for i in r:\n    y = 1\n    z = 2\nw = 3";
        let toks = lex(src).unwrap();
        let indents = toks.iter().filter(|t| **t == Tok::Indent).count();
        let dedents = toks.iter().filter(|t| **t == Tok::Dedent).count();
        assert_eq!(indents, 1);
        assert_eq!(dedents, 1);
    }

    #[test]
    fn nested_dedents_at_eof() {
        let src = "def f():\n    for i in r:\n        return 1";
        let toks = lex(src).unwrap();
        let dedents = toks.iter().filter(|t| **t == Tok::Dedent).count();
        assert_eq!(dedents, 2, "all blocks closed at EOF");
        assert_eq!(*toks.last().unwrap(), Tok::Eof);
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
        assert!(lex("for i in r:\n    y = 1\n  z = 2").is_err(), "inconsistent dedent");
        assert!(lex("x = 99999999999999999999").is_err(), "overflows i64");
    }

    #[test]
    fn keywords_vs_names() {
        let toks = lex("formula = 1\niffy = 2").unwrap();
        assert!(toks.contains(&Tok::Name("formula".into())), "not the `for` keyword");
        assert!(toks.contains(&Tok::Name("iffy".into())), "not the unsupported `if`");
    }
}
