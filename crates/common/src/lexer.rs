//! The lexical grammar of every text language in the workspace: Vadalog,
//! MetaLog, GSL, the Cypher fragment of `@input` annotations and the
//! serving queries.
//!
//! MTV pastes MetaLog scalar text (conditions, assignments, aggregates)
//! verbatim into the Vadalog it generates and parses the result, and it
//! writes Cypher patterns and string constants into that Vadalog, so the
//! languages must agree on every token and every escape; one lexer and one
//! string encoder ([`quote`]) make that hold by construction. The lexer
//! decodes characters: identifiers may start with any Unicode letter,
//! string literals keep their characters, and any other character outside
//! the token set is a line-numbered error.
//!
//! The token set is the union of what the grammars use, with no mode; each
//! parser rejects the punctuation it has no rule for:
//!
//! - punctuation `( ) [ ] { } , . ; : = < > + - * / | ! @ ~` and
//!   `-> == != <= >= && || ..`;
//! - `%` and `#` comments, to end of line;
//! - double-quoted strings with the escapes `\n`, `\t`, `\"` and `\\`;
//! - integers and finite floats (`digits[.digits][e[+-]digits]`, so that a
//!   float reads back as Rust's `{:?}` writes it, exponent included; a sign
//!   is the parser's `-`);
//! - identifiers: a Unicode letter or `_`, then letters, digits or `_`.
//!
//! One language reads `#` otherwise: a serving point query spells a ground
//! OID `#payload`, which the serving layer reads itself where the lexer
//! would skip a comment.

use crate::{KgmError, Result};

/// A token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Punct(&'static str),
}

/// A token with its byte span in the source and the line it starts on.
#[derive(Debug, Clone)]
pub struct Spanned {
    pub tok: Tok,
    pub start: usize,
    pub end: usize,
    pub line: u32,
}

/// Every punctuation token, two-character ones first so `->` wins over `-`.
const PUNCT: [&str; 29] = [
    "->", "==", "!=", "<=", ">=", "&&", "||", "..", "(", ")", "[", "]", "{", "}", ",", ".", ";",
    ":", "=", "<", ">", "+", "-", "*", "/", "|", "!", "@", "~",
];

/// Split `src` into tokens. Errors are [`KgmError::Parse`] in language
/// `lang`, prefixed with the line.
pub fn lex(lang: &'static str, src: &str) -> Result<Vec<Spanned>> {
    let err = |line: u32, msg: String| KgmError::parse(lang, format!("line {line}: {msg}"));
    let mut out = Vec::new();
    let (mut pos, mut line) = (0, 1);
    while let Some(c) = src[pos..].chars().next() {
        let (start, rest) = (pos, &src[pos..]);
        let tok = match c {
            '\n' => {
                line += 1;
                pos += 1;
                continue;
            }
            c if c.is_whitespace() => {
                pos += c.len_utf8();
                continue;
            }
            '%' | '#' => {
                pos += rest.find('\n').unwrap_or(rest.len());
                continue;
            }
            '"' => {
                let (s, len) = string(rest).map_err(|m| err(line, m))?;
                pos += len;
                Tok::Str(s)
            }
            c if c.is_ascii_digit() => {
                let int = digits(rest);
                let frac = rest[int..].strip_prefix('.').map_or(0, digits);
                let mantissa = if frac > 0 { int + 1 + frac } else { int };
                let text = &rest[..mantissa + exponent(&rest[mantissa..])];
                pos += text.len();
                let tok = if text.len() > int {
                    // An exponent past f64's range is an error, not infinity.
                    text.parse()
                        .ok()
                        .filter(|f: &f64| f.is_finite())
                        .map(Tok::Float)
                } else {
                    text.parse().map(Tok::Int).ok()
                };
                tok.ok_or_else(|| err(line, format!("bad number `{text}`")))?
            }
            c if c.is_alphabetic() || c == '_' => {
                let len = rest
                    .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .unwrap_or(rest.len());
                pos += len;
                Tok::Ident(rest[..len].to_string())
            }
            c => {
                let p = PUNCT
                    .iter()
                    .find(|p| rest.starts_with(**p))
                    .ok_or_else(|| err(line, format!("unexpected `{c}`")))?;
                pos += p.len();
                Tok::Punct(p)
            }
        };
        out.push(Spanned {
            tok,
            start,
            end: pos,
            line,
        });
    }
    Ok(out)
}

/// Byte length of the ASCII digit run that starts `s`.
fn digits(s: &str) -> usize {
    s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len())
}

/// Byte length of the exponent (`e`, an optional sign, digits) that starts
/// `s`, or 0 when none does.
fn exponent(s: &str) -> usize {
    let Some(e) = s.strip_prefix('e') else {
        return 0;
    };
    let sign = usize::from(e.starts_with(['+', '-']));
    match digits(&e[sign..]) {
        0 => 0,
        n => 1 + sign + n,
    }
}

/// Decode the string literal that starts `rest` (at its opening quote),
/// returning its value and its length in bytes.
fn string(rest: &str) -> std::result::Result<(String, usize), String> {
    let mut s = String::new();
    let mut chars = rest.char_indices().skip(1);
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((s, i + 1)),
            '\\' => s.push(match chars.next() {
                Some((_, 'n')) => '\n',
                Some((_, 't')) => '\t',
                Some((_, '"')) => '"',
                Some((_, '\\')) => '\\',
                Some((_, e)) => return Err(format!("bad escape `\\{e}`")),
                None => return Err("unterminated escape".into()),
            }),
            '\n' => break,
            c => s.push(c),
        }
    }
    Err("unterminated string".into())
}

/// The string literal that [`lex`] decodes to `s`: `s` in double quotes,
/// with `\\`, `"`, newline and tab escaped.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parser's position in a token stream, with the helpers every grammar
/// over these tokens uses.
pub struct Cursor {
    lang: &'static str,
    pub toks: Vec<Spanned>,
    /// Index of the next token.
    pub pos: usize,
}

impl Cursor {
    /// Lex `src` and stand before its first token.
    pub fn new(lang: &'static str, src: &str) -> Result<Cursor> {
        Ok(Cursor {
            lang,
            toks: lex(lang, src)?,
            pos: 0,
        })
    }

    /// A parse error on the line of the next token (of the last one at the
    /// end of input).
    pub fn error(&self, msg: impl Into<String>) -> KgmError {
        let line = self
            .toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |t| t.line);
        KgmError::parse(self.lang, format!("line {line}: {}", msg.into()))
    }

    /// The next token.
    pub fn peek(&self) -> Option<&Tok> {
        self.peek_at(0)
    }

    /// The token `off` places after the next one.
    pub fn peek_at(&self, off: usize) -> Option<&Tok> {
        self.toks.get(self.pos + off).map(|t| &t.tok)
    }

    /// Consume the punctuation `p` if it comes next.
    pub fn eat(&mut self, p: &str) -> bool {
        let hit = matches!(self.peek(), Some(Tok::Punct(q)) if *q == p);
        self.pos += usize::from(hit);
        hit
    }

    /// Consume the punctuation `p`, or fail.
    pub fn expect(&mut self, p: &str) -> Result<()> {
        if self.eat(p) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{p}`, found {:?}", self.peek())))
        }
    }

    /// Consume the keyword `w` (an identifier token) if it comes next.
    pub fn eat_word(&mut self, w: &str) -> bool {
        let hit = matches!(self.peek(), Some(Tok::Ident(s)) if s == w);
        self.pos += usize::from(hit);
        hit
    }

    /// Consume the keyword `w`, or fail.
    pub fn expect_word(&mut self, w: &str) -> Result<()> {
        if self.eat_word(w) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{w}`, found {:?}", self.peek())))
        }
    }

    /// Fail unless every token has been consumed.
    pub fn end(&self) -> Result<()> {
        match self.peek() {
            None => Ok(()),
            Some(t) => Err(self.error(format!("expected end of input, found {t:?}"))),
        }
    }

    /// Consume an identifier, or fail.
    pub fn ident(&mut self) -> Result<String> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    /// Consume a string literal, or fail.
    pub fn string(&mut self) -> Result<String> {
        match self.peek() {
            Some(Tok::Str(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            other => Err(self.error(format!("expected string, found {other:?}"))),
        }
    }
}

/// Consuming the cursor's tokens one at a time.
impl Iterator for Cursor {
    type Item = Tok;

    fn next(&mut self) -> Option<Tok> {
        let t = self.peek().cloned();
        self.pos += usize::from(t.is_some());
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex("Test", src)
            .unwrap()
            .into_iter()
            .map(|t| t.tok)
            .collect()
    }

    #[test]
    fn unicode_identifiers_and_strings_keep_their_characters() {
        assert_eq!(
            toks(r#"Società("café", città_2)"#),
            vec![
                Tok::Ident("Società".into()),
                Tok::Punct("("),
                Tok::Str("café".into()),
                Tok::Punct(","),
                Tok::Ident("città_2".into()),
                Tok::Punct(")"),
            ]
        );
    }

    #[test]
    fn spans_are_byte_ranges_of_the_source() {
        let src = "è == \"à\" % ù\n-> 1.5";
        let spans: Vec<&str> = lex("Test", src)
            .unwrap()
            .iter()
            .map(|t| &src[t.start..t.end])
            .collect();
        assert_eq!(spans, vec!["è", "==", "\"à\"", "->", "1.5"]);
    }

    #[test]
    fn punctuation_is_the_union_of_every_grammar() {
        let all: Vec<Tok> = PUNCT.iter().map(|p| Tok::Punct(p)).collect();
        assert_eq!(toks(&PUNCT.join(" ")), all);
        assert_eq!(
            toks("->-<="),
            vec![Tok::Punct("->"), Tok::Punct("-"), Tok::Punct("<=")]
        );
        assert_eq!(
            toks("1.x 2.50"),
            vec![
                Tok::Int(1),
                Tok::Punct("."),
                Tok::Ident("x".into()),
                Tok::Float(2.5),
            ]
        );
        // A GSL cardinality: `..` after an integer is not its fraction.
        assert_eq!(
            toks("[0..N]"),
            vec![
                Tok::Punct("["),
                Tok::Int(0),
                Tok::Punct(".."),
                Tok::Ident("N".into()),
                Tok::Punct("]"),
            ]
        );
    }

    #[test]
    fn floats_read_back_as_rust_writes_them() {
        for f in [7.407370117889618e-5, 1e20, 1.5e300, 2.5, 0.1 + 0.2] {
            assert_eq!(toks(&format!("{f:?}")), vec![Tok::Float(f)], "{f:?}");
        }
        assert_eq!(toks("2e+3"), vec![Tok::Float(2000.0)]);
        assert_eq!(
            toks("1else 2e-x"),
            vec![
                Tok::Int(1),
                Tok::Ident("else".into()),
                Tok::Int(2),
                Tok::Ident("e".into()),
                Tok::Punct("-"),
                Tok::Ident("x".into()),
            ]
        );
    }

    #[test]
    fn quote_is_the_inverse_of_string_decoding() {
        for s in [
            "",
            "plain",
            "a\nb",
            "say \"hi\"",
            "back\\slash",
            "tab\tend",
            "città «€» 🦀",
        ] {
            assert_eq!(toks(&quote(s)), vec![Tok::Str(s.into())], "{s:?}");
        }
        assert_eq!(quote("a\"b\\\n\t"), r#""a\"b\\\n\t""#);
    }

    #[test]
    fn keywords_are_identifier_tokens() {
        let mut c = Cursor::new("Test", "schema S").unwrap();
        assert!(!c.eat_word("node") && c.eat_word("schema"));
        let err = c.expect_word("node").unwrap_err().to_string();
        assert!(err.contains("expected `node`"), "{err}");
        assert!(c.end().is_err());
        assert_eq!(c.ident().unwrap(), "S");
        assert!(c.end().is_ok());
    }

    #[test]
    fn other_characters_are_line_numbered_errors() {
        for (src, line) in [
            ("a\n€", 2),
            ("\n\n\"x", 3),
            ("\"\\é\"", 1),
            ("a\n99999999999999999999", 2),
            ("\n\n\n1e400", 4),
        ] {
            let err = lex("Test", src).unwrap_err().to_string();
            assert!(err.contains(&format!("line {line}:")), "{src:?}: {err}");
        }
    }

    #[test]
    fn errors_carry_the_line_of_the_offending_token() {
        let mut c = Cursor::new("Test", "a\n(").unwrap();
        assert_eq!(c.ident().unwrap(), "a");
        let err = c.ident().unwrap_err().to_string();
        assert!(err.contains("line 2: expected identifier"), "{err}");
        assert!(c.eat("(") && c.next().is_none());
    }
}
