//! Spanned lexer for the Scala-like workload subset.
//!
//! This is the one lexer of the workspace: `lite-workloads::tokenize`
//! delegates its flat token stream to [`flat_tokens`], and the parser in
//! [`crate::parse`] consumes the spanned [`Tok`] stream produced by
//! [`lex`]. Compared to the ad-hoc scanner it supersedes, three gaps are
//! fixed:
//!
//! * `//` line comments are skipped instead of leaking `/` tokens,
//! * `\"` escapes inside string literals no longer terminate the literal,
//! * an unterminated string at EOF still yields its (collapsed) token
//!   instead of being dropped silently.

/// A byte range in the analyzed source, with the 1-based line/column of its
/// first byte. Spans are carried through the AST into lint diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column (in characters) of `start`.
    pub col: u32,
}

impl Span {
    /// Span covering both operands.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
            line: self.line.min(other.line),
            col: if other.line < self.line || (other.line == self.line && other.col < self.col) {
                other.col
            } else {
                self.col
            },
        }
    }
}

/// Lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`val`, `map`, `_2`, …).
    Ident,
    /// Number-like token (leading ASCII digit, e.g. `10`, `1L`).
    Num,
    /// String literal; `text` holds the raw contents between the quotes
    /// (escape sequences preserved verbatim).
    Str,
    /// The `.` separator.
    Dot,
    /// Any other single character (`(`, `=`, `>`, `'`, …).
    Punct,
}

/// One spanned token.
#[derive(Debug, Clone, PartialEq)]
pub struct Tok {
    /// Lexical class.
    pub kind: TokKind,
    /// Token text (see [`TokKind`] for the `Str` convention).
    pub text: String,
    /// Source location.
    pub span: Span,
}

/// Lex `source` into spanned tokens. Never panics, on any input.
pub fn lex(source: &str) -> Vec<Tok> {
    let mut toks = Vec::new();
    let mut chars = source.char_indices().peekable();
    let mut line: u32 = 1;
    let mut col: u32 = 1;
    while let Some((start, ch)) = chars.next() {
        let (tline, tcol) = (line, col);
        // Track position for *this* char now; multi-char tokens advance
        // line/col as they consume below.
        if ch == '\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
        match ch {
            '/' if matches!(chars.peek(), Some((_, '/'))) => {
                // Line comment: skip to (but not past) the newline.
                while let Some(&(_, c)) = chars.peek() {
                    if c == '\n' {
                        break;
                    }
                    chars.next();
                    col += 1;
                }
            }
            '"' => {
                let mut text = String::new();
                let mut end = source.len();
                let mut escaped = false;
                loop {
                    match chars.next() {
                        None => break, // unterminated: still emit the token
                        Some((i, c)) => {
                            if c == '\n' {
                                line += 1;
                                col = 1;
                            } else {
                                col += 1;
                            }
                            if escaped {
                                escaped = false;
                                text.push(c);
                            } else if c == '\\' {
                                escaped = true;
                                text.push(c);
                            } else if c == '"' {
                                end = i + 1;
                                break;
                            } else {
                                text.push(c);
                            }
                        }
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Str,
                    text,
                    span: Span { start, end, line: tline, col: tcol },
                });
            }
            c if c.is_alphanumeric() || c == '_' => {
                let mut text = String::from(c);
                let mut end = start + c.len_utf8();
                while let Some(&(i, n)) = chars.peek() {
                    if n.is_alphanumeric() || n == '_' {
                        text.push(n);
                        end = i + n.len_utf8();
                        chars.next();
                        col += 1;
                    } else {
                        break;
                    }
                }
                let kind = if c.is_ascii_digit() { TokKind::Num } else { TokKind::Ident };
                toks.push(Tok { kind, text, span: Span { start, end, line: tline, col: tcol } });
            }
            c if c.is_whitespace() => {}
            '.' => toks.push(Tok {
                kind: TokKind::Dot,
                text: ".".to_string(),
                span: Span { start, end: start + 1, line: tline, col: tcol },
            }),
            c => toks.push(Tok {
                kind: TokKind::Punct,
                text: c.to_string(),
                span: Span { start, end: start + c.len_utf8(), line: tline, col: tcol },
            }),
        }
    }
    toks
}

/// Flat token stream, byte-compatible with the historical
/// `workloads::tokenize` output: identifiers and numbers verbatim, `.` as
/// its own token, every string literal collapsed to the single token
/// `"str"` (quotes included), all other characters as single-char tokens.
pub fn flat_tokens(source: &str) -> Vec<String> {
    lex(source)
        .into_iter()
        .map(|t| match t.kind {
            TokKind::Str => "\"str\"".to_string(),
            _ => t.text,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        flat_tokens(src)
    }

    #[test]
    fn splits_identifiers_dots_and_puncts() {
        assert_eq!(
            texts("val x = rdd.map(f)"),
            ["val", "x", "=", "rdd", ".", "map", "(", "f", ")"].map(String::from)
        );
    }

    #[test]
    fn collapses_string_literals() {
        assert_eq!(texts(r#"setAppName("TeraSort")"#), ["setAppName", "(", "\"str\"", ")"]);
    }

    #[test]
    fn skips_line_comments() {
        assert_eq!(texts("a // trailing comment\nb"), ["a", "b"]);
        // A single slash is still an operator token.
        assert_eq!(texts("a / b"), ["a", "/", "b"]);
    }

    #[test]
    fn escaped_quotes_stay_inside_the_literal() {
        // One literal containing an escaped quote — not two literals.
        assert_eq!(texts(r#"f("a\"b") + g"#), ["f", "(", "\"str\"", ")", "+", "g"]);
        let toks = lex(r#""a\"b""#);
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].text, "a\\\"b");
    }

    #[test]
    fn unterminated_string_at_eof_still_emits_a_token() {
        assert_eq!(texts(r#"x = "never closed"#), ["x", "=", "\"str\""]);
    }

    #[test]
    fn spans_track_lines_and_columns() {
        let toks = lex("ab\n  cd.e");
        assert_eq!(toks[0].span, Span { start: 0, end: 2, line: 1, col: 1 });
        assert_eq!(toks[1].span, Span { start: 5, end: 7, line: 2, col: 3 });
        assert_eq!(toks[2].kind, TokKind::Dot);
        assert_eq!(toks[3].span.col, 6);
    }

    #[test]
    fn numbers_keep_suffixes_and_split_on_dot() {
        assert_eq!(texts("0.15 1L"), ["0", ".", "15", "1L"]);
        assert_eq!(lex("7L")[0].kind, TokKind::Num);
    }
}
