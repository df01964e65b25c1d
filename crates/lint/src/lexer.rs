//! A minimal Rust lexer: just enough to tell code from comments, strings,
//! and char literals, with line/column positions.
//!
//! The rule engine works on token streams, never raw text, so `unwrap` in
//! a doc comment or `"panic!"` in a string literal can never false-
//! positive. Comments are *kept* (as trivia alongside the token stream)
//! because three of the annotations this linter understands live in them:
//! `lint:allow`, `lock-rank:`, and `SAFETY:`.

/// Kind of a lexed token. Coarser than rustc's: the rules only ever match
/// identifier text and single-character punctuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `unsafe`, `Mutex`, ...).
    Ident,
    /// String / char / numeric literal (content irrelevant to the rules).
    Literal,
    /// A lifetime (`'a`); distinguished from char literals during lexing.
    Lifetime,
    /// One character of punctuation (`<`, `!`, `:`, `#`, ...).
    Punct,
}

/// One token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    pub col: u32,
}

impl Tok {
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == ch.len_utf8() && self.text.starts_with(ch)
    }
}

/// One comment (line or block) with the line span it covers and the
/// column it starts at. `text` includes the comment markers.
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    pub start_line: u32,
    pub start_col: u32,
    pub end_line: u32,
}

/// Lexer output: the token stream plus comment trivia.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Tok>,
    pub comments: Vec<Comment>,
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

/// Lex `source` into tokens and comments. Unterminated constructs (string,
/// block comment) simply run to end of file — the linter is a checker, not
/// a compiler, and the compiler will reject such a file anyway.
pub fn lex(source: &str) -> Lexed {
    let mut cur = Cursor {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();

    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
        } else if c == '/' && cur.peek(1) == Some('/') {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if ch == '\n' {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            out.comments.push(Comment {
                text,
                start_line: line,
                start_col: col,
                end_line: line,
            });
        } else if c == '/' && cur.peek(1) == Some('*') {
            let mut text = String::new();
            let mut depth = 0usize;
            while let Some(ch) = cur.peek(0) {
                if ch == '/' && cur.peek(1) == Some('*') {
                    depth += 1;
                    text.push_str("/*");
                    cur.bump();
                    cur.bump();
                } else if ch == '*' && cur.peek(1) == Some('/') {
                    depth -= 1;
                    text.push_str("*/");
                    cur.bump();
                    cur.bump();
                    if depth == 0 {
                        break;
                    }
                } else {
                    text.push(ch);
                    cur.bump();
                }
            }
            out.comments.push(Comment {
                text,
                start_line: line,
                start_col: col,
                end_line: cur.line,
            });
        } else if c == '"' {
            lex_string(&mut cur);
            push_tok(&mut out, TokKind::Literal, "\"...\"", line, col);
        } else if c == '\'' {
            lex_quote(&mut cur, &mut out, line, col);
        } else if c.is_ascii_digit() {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if ch.is_ascii_alphanumeric() || ch == '_' {
                    text.push(ch);
                    cur.bump();
                } else {
                    break;
                }
            }
            push_tok(&mut out, TokKind::Literal, &text, line, col);
        } else if c.is_alphabetic() || c == '_' {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if ch.is_alphanumeric() || ch == '_' {
                    text.push(ch);
                    cur.bump();
                } else {
                    break;
                }
            }
            // Raw / byte string prefixes: r"..", r#".."#, b"..", br#".."#.
            let is_raw_start =
                matches!(text.as_str(), "r" | "br") && matches!(cur.peek(0), Some('"') | Some('#'));
            let is_byte_start = text == "b" && cur.peek(0) == Some('"');
            if is_raw_start && text != "b" {
                if lex_raw_string(&mut cur) {
                    push_tok(&mut out, TokKind::Literal, "r\"...\"", line, col);
                    continue;
                }
            } else if is_byte_start {
                cur.bump(); // opening quote
                lex_string_body(&mut cur);
                push_tok(&mut out, TokKind::Literal, "b\"...\"", line, col);
                continue;
            }
            push_tok(&mut out, TokKind::Ident, &text, line, col);
        } else {
            cur.bump();
            push_tok(&mut out, TokKind::Punct, &c.to_string(), line, col);
        }
    }
    out
}

fn push_tok(out: &mut Lexed, kind: TokKind, text: &str, line: u32, col: u32) {
    out.tokens.push(Tok {
        kind,
        text: text.to_string(),
        line,
        col,
    });
}

/// Consume a `"`-delimited string starting at the opening quote.
fn lex_string(cur: &mut Cursor) {
    cur.bump(); // opening quote
    lex_string_body(cur);
}

/// Consume string content up to and including the closing quote,
/// honouring backslash escapes.
fn lex_string_body(cur: &mut Cursor) {
    while let Some(ch) = cur.bump() {
        match ch {
            '\\' => {
                cur.bump();
            }
            '"' => break,
            _ => {}
        }
    }
}

/// Consume a raw string (`cur` is positioned at `#`* `"` after the `r` /
/// `br` prefix was already consumed). Returns false if this is not
/// actually a raw string (e.g. the ident `r` followed by `#[...]`).
fn lex_raw_string(cur: &mut Cursor) -> bool {
    let mut hashes = 0usize;
    while cur.peek(hashes) == Some('#') {
        hashes += 1;
    }
    if cur.peek(hashes) != Some('"') {
        return false;
    }
    for _ in 0..=hashes {
        cur.bump(); // the hashes and the opening quote
    }
    'scan: while let Some(ch) = cur.bump() {
        if ch == '"' {
            for i in 0..hashes {
                if cur.peek(i) != Some('#') {
                    continue 'scan;
                }
            }
            for _ in 0..hashes {
                cur.bump();
            }
            break;
        }
    }
    true
}

/// Disambiguate `'a'` (char literal) from `'a` (lifetime) at a `'`.
fn lex_quote(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    cur.bump(); // the quote
    match cur.peek(0) {
        Some('\\') => {
            // Escaped char literal: consume escape then up to the close.
            cur.bump();
            cur.bump();
            while let Some(ch) = cur.bump() {
                if ch == '\'' {
                    break;
                }
            }
            push_tok(out, TokKind::Literal, "'...'", line, col);
        }
        Some(c) if cur.peek(1) == Some('\'') => {
            // 'x' — a one-char literal.
            cur.bump();
            cur.bump();
            let _ = c;
            push_tok(out, TokKind::Literal, "'.'", line, col);
        }
        Some(c) if c.is_alphabetic() || c == '_' => {
            let mut text = String::from("'");
            while let Some(ch) = cur.peek(0) {
                if ch.is_alphanumeric() || ch == '_' {
                    text.push(ch);
                    cur.bump();
                } else {
                    break;
                }
            }
            push_tok(out, TokKind::Lifetime, &text, line, col);
        }
        _ => {
            push_tok(out, TokKind::Punct, "'", line, col);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_are_not_code() {
        let src = r##"
            // unwrap in a comment
            /* panic! in /* a nested */ block */
            let s = "calls .unwrap() inside";
            let r = r#"raw unwrap"#;
            let b = b"byte unwrap";
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"panic".to_string()));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let lexed = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "'a"));
    }

    #[test]
    fn positions_are_one_based() {
        let lexed = lex("a\n  b");
        assert_eq!((lexed.tokens[0].line, lexed.tokens[0].col), (1, 1));
        assert_eq!((lexed.tokens[1].line, lexed.tokens[1].col), (2, 3));
    }

    #[test]
    fn comments_record_spans() {
        let lexed = lex("x /* one\ntwo */ y // tail");
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(
            (lexed.comments[0].start_line, lexed.comments[0].end_line),
            (1, 2)
        );
        assert!(lexed.comments[1].text.contains("tail"));
    }
}
