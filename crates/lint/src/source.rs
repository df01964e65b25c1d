//! Per-file analysis context: test-region detection and comment-borne
//! annotations (`lint:allow`, `lock-rank:`, `SAFETY:`).

use std::collections::{HashMap, HashSet};

use crate::lexer::{lex, Lexed, Tok};

/// The rules a `lint:allow` may name.
pub(crate) const RULES: [&str; 5] = ["L001", "L002", "L003", "L004", "L005"];

const ALLOW: &str = "lint:allow(";

/// Where a file sits in the workspace; decides which rules apply.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path, e.g. `crates/wal/src/writer.rs`.
    pub rel_path: String,
    /// The owning workspace member, e.g. `crates/wal` (`.` for the root
    /// package).
    pub member: String,
}

impl FileContext {
    pub fn is_shim(&self) -> bool {
        self.member.starts_with("shims/") || self.member.starts_with("shims\\")
    }

    /// Binary targets: `src/bin/**` and the crate-root `src/main.rs`.
    /// Operator-facing entry points may print and may exit by panicking
    /// with a message; library code may not.
    pub fn is_bin(&self) -> bool {
        self.rel_path.contains("/src/bin/")
            || self.rel_path.starts_with("src/bin/")
            || self.rel_path.ends_with("src/main.rs")
    }

    /// L001's blast radius: the four crates on the durability/degradation
    /// hot path, where a stray panic kills a daemon thread silently.
    pub fn panic_hygiene_applies(&self) -> bool {
        matches!(
            self.member.as_str(),
            "crates/wal" | "crates/server" | "crates/core" | "crates/storage"
        )
    }
}

/// A lexed file plus everything the rules need to query about it.
pub struct SourceFile {
    pub ctx: FileContext,
    lexed: Lexed,
    /// Line ranges (inclusive) covered by `#[test]` / `#[cfg(test)]`
    /// items.
    test_ranges: Vec<(u32, u32)>,
    /// Concatenated comment text per line (a block comment contributes to
    /// every line it spans).
    comments_by_line: HashMap<u32, String>,
    /// Lines containing at least one code token.
    code_lines: HashSet<u32>,
    /// For each comment-only run containing a `lint:allow(`, the line
    /// span of the statement it covers (first code line through the
    /// statement's last line) plus the run's combined text.
    allow_spans: Vec<(u32, u32, String)>,
}

impl SourceFile {
    pub fn parse(ctx: FileContext, source: &str) -> SourceFile {
        let lexed = lex(source);
        let test_ranges = test_line_ranges(&lexed.tokens);
        let mut comments_by_line: HashMap<u32, String> = HashMap::new();
        for c in &lexed.comments {
            for line in c.start_line..=c.end_line {
                let slot = comments_by_line.entry(line).or_default();
                if !slot.is_empty() {
                    slot.push(' ');
                }
                slot.push_str(&c.text);
            }
        }
        let code_lines: HashSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        let allow_spans = allow_statement_spans(&lexed.tokens, &comments_by_line, &code_lines);
        SourceFile {
            ctx,
            lexed,
            test_ranges,
            comments_by_line,
            code_lines,
            allow_spans,
        }
    }

    pub fn tokens(&self) -> &[Tok] {
        &self.lexed.tokens
    }

    /// Is `line` inside a `#[test]` fn or `#[cfg(test)]` item?
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(start, end)| (start..=end).contains(&line))
    }

    /// Comment texts that annotate `line`: the trailing comment on the
    /// line itself, plus the contiguous run of comment-only lines directly
    /// above it (a blank line or an intervening code line breaks the
    /// association).
    fn annotation_comments(&self, line: u32) -> Vec<&str> {
        let mut texts: Vec<&str> = Vec::new();
        if let Some(t) = self.comments_by_line.get(&line) {
            texts.push(t);
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            match self.comments_by_line.get(&l) {
                Some(t) if !self.code_lines.contains(&l) => texts.push(t),
                _ => break,
            }
            l -= 1;
        }
        texts
    }

    /// Does a `lint:allow` naming `rule`, with a non-empty reason, cover
    /// `line`? A trailing allow covers its own line; a standalone allow
    /// comment covers the entire following *statement* through its end
    /// (so one allow suffices for a multi-line call), but only the first
    /// line of a following *item* (an allow above a `fn` must not
    /// silence the whole body).
    pub fn allows(&self, rule: &str, line: u32) -> bool {
        self.annotation_comments(line)
            .iter()
            .any(|t| comment_allows(t, rule))
            || self.allow_spans.iter().any(|(start, end, text)| {
                (*start..=*end).contains(&line) && comment_allows(text, rule)
            })
    }

    /// Every `lint:allow` whose rule id is not in [`RULES`], as
    /// `(line, col, ID)`. Such an allow silences nothing, so a typo or a
    /// rule that no longer exists would otherwise sit there unnoticed.
    pub(crate) fn unknown_allows(&self) -> Vec<(u32, u32, String)> {
        let mut out = Vec::new();
        for c in &self.lexed.comments {
            for (n, text) in c.text.lines().enumerate() {
                for (at, id, _) in allow_args(text) {
                    if RULES.contains(&id) {
                        continue;
                    }
                    let line_start = if n == 0 { c.start_col } else { 1 };
                    let col = line_start + text[..at].chars().count() as u32;
                    out.push((c.start_line + n as u32, col, id.to_string()));
                }
            }
        }
        out
    }

    /// The `lock-rank:` annotation covering `line`, if any.
    pub fn lock_rank(&self, line: u32) -> Option<RankAnnotation> {
        self.annotation_comments(line)
            .iter()
            .find_map(|t| parse_lock_rank(t))
    }

    /// Does a `SAFETY:` comment cover `line`?
    pub fn has_safety_comment(&self, line: u32) -> bool {
        self.annotation_comments(line)
            .iter()
            .any(|t| t.contains("SAFETY:"))
    }
}

/// Parsed `lock-rank:` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankAnnotation {
    /// `// lock-rank: <N>` — participates in the global order.
    Ranked(u32),
    /// `// lock-rank: unranked(reason)` — exempt, with a stated reason.
    Unranked { reason_ok: bool },
    /// `lock-rank:` present but unparsable.
    Malformed,
}

fn comment_allows(comment: &str, rule: &str) -> bool {
    allow_args(comment)
        .into_iter()
        .any(|(_, id, reason)| id == rule && !reason.is_empty())
}

/// Each closed `lint:allow` in `comment`: the byte offset of its
/// `lint:allow(`, the trimmed ID and the trimmed reason.
fn allow_args(comment: &str) -> Vec<(usize, &str, &str)> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = comment[from..].find(ALLOW) {
        let at = from + at;
        from = at + ALLOW.len();
        if let Some(close) = comment[from..].find(')') {
            let args = &comment[from..from + close];
            let (id, reason) = args.split_once(',').unwrap_or((args, ""));
            out.push((at, id.trim(), reason.trim()));
        }
    }
    out
}

fn parse_lock_rank(comment: &str) -> Option<RankAnnotation> {
    let at = comment.find("lock-rank:")?;
    let rest = comment[at + "lock-rank:".len()..].trim_start();
    if let Some(unranked) = rest.strip_prefix("unranked(") {
        let reason = unranked.split(')').next().unwrap_or("").trim();
        return Some(RankAnnotation::Unranked {
            reason_ok: !reason.is_empty(),
        });
    }
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    if digits.is_empty() {
        return Some(RankAnnotation::Malformed);
    }
    digits
        .parse::<u32>()
        .ok()
        .map(RankAnnotation::Ranked)
        .or(Some(RankAnnotation::Malformed))
}

/// Item-starting tokens: a standalone allow above one of these covers
/// only the item's first line, never its whole body.
fn starts_item(toks: &[Tok], i: usize) -> bool {
    let t = &toks[i];
    if t.is_punct('#') {
        return true;
    }
    matches!(
        t.text.as_str(),
        "fn" | "pub"
            | "impl"
            | "struct"
            | "enum"
            | "union"
            | "mod"
            | "trait"
            | "use"
            | "static"
            | "const"
            | "type"
            | "macro_rules"
    ) || (t.is_ident("unsafe")
        && toks
            .get(i + 1)
            .is_some_and(|n| n.is_ident("fn") || n.is_ident("impl") || n.is_ident("trait")))
}

/// For each run of contiguous comment-only lines containing a
/// `lint:allow(`, compute the line span of the statement starting on the
/// next line: through the `;` at bracket depth 0, the close of a
/// depth-0 brace group that ends the expression (`if`/`match`
/// statements), or the end of the enclosing block/argument list.
fn allow_statement_spans(
    toks: &[Tok],
    comments_by_line: &HashMap<u32, String>,
    code_lines: &HashSet<u32>,
) -> Vec<(u32, u32, String)> {
    let mut spans = Vec::new();
    let mut comment_lines: Vec<u32> = comments_by_line
        .keys()
        .copied()
        .filter(|l| !code_lines.contains(l))
        .collect();
    comment_lines.sort_unstable();
    let mut run_start = 0usize;
    for i in 0..comment_lines.len() {
        let is_run_end =
            i + 1 == comment_lines.len() || comment_lines[i + 1] != comment_lines[i] + 1;
        if !is_run_end {
            continue;
        }
        let run: &[u32] = &comment_lines[run_start..=i];
        run_start = i + 1;
        let text = run
            .iter()
            .filter_map(|l| comments_by_line.get(l).map(String::as_str))
            .collect::<Vec<_>>()
            .join(" ");
        if !text.contains(ALLOW) {
            continue;
        }
        let first_code = run[run.len() - 1] + 1;
        if !code_lines.contains(&first_code) {
            continue; // blank line breaks the association
        }
        let Some(start_tok) = toks.iter().position(|t| t.line >= first_code) else {
            continue;
        };
        let end_line = if starts_item(toks, start_tok) {
            first_code
        } else {
            statement_end_line(toks, start_tok)
        };
        spans.push((first_code, end_line, text));
    }
    spans
}

/// Last line of the statement beginning at token `start`.
fn statement_end_line(toks: &[Tok], start: usize) -> u32 {
    let mut paren = 0i32; // () and []
    let mut brace = 0i32;
    let mut i = start;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
            if paren < 0 {
                // The enclosing argument list closed: the statement was
                // its final element.
                return toks[i.saturating_sub(1)].line;
            }
        } else if t.is_punct('{') {
            brace += 1;
        } else if t.is_punct('}') {
            brace -= 1;
            if brace < 0 {
                // Enclosing block ended without a `;` (tail expression).
                return toks[i.saturating_sub(1)].line;
            }
            if brace == 0 && paren == 0 {
                // A depth-0 brace group closed (`if`/`match`/block).
                // Continue only if the expression visibly continues.
                match toks.get(i + 1) {
                    Some(n)
                        if n.is_ident("else")
                            || n.is_punct('.')
                            || n.is_punct('?')
                            || n.is_punct(';') => {}
                    _ => return t.line,
                }
            }
        } else if t.is_punct(';') && paren == 0 && brace == 0 {
            return t.line;
        }
        i += 1;
    }
    toks.last().map(|t| t.line).unwrap_or(0)
}

/// Find line ranges covered by test-marked items: `#[test]`,
/// `#[cfg(test)]`, `#[cfg(all(test, ...))]` and friends. An attribute
/// containing the `test` ident marks a test item *unless* it also
/// contains `not` (so `#[cfg(not(test))]` is production code).
fn test_line_ranges(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let attr_line = toks[i].line;
            let (attr_end, is_test) = scan_attr(toks, i + 1);
            if is_test {
                if let Some(body_end) = item_end(toks, attr_end + 1) {
                    ranges.push((attr_line, toks[body_end].line));
                }
            }
            i = attr_end + 1;
        } else {
            i += 1;
        }
    }
    ranges
}

/// Scan a `[...]` attribute starting at its `[`. Returns (index of the
/// closing `]`, whether this attribute marks test code).
fn scan_attr(toks: &[Tok], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut has_test = false;
    let mut has_not = false;
    let mut i = open;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.is_ident("test") {
            has_test = true;
        } else if t.is_ident("not") {
            has_not = true;
        }
        i += 1;
    }
    (i.min(toks.len().saturating_sub(1)), has_test && !has_not)
}

/// Given the token index just past a test attribute, find the index of
/// the token ending the annotated item: the matching `}` of its body, or
/// the `;` of a body-less item. Skips any further attributes in between.
fn item_end(toks: &[Tok], mut i: usize) -> Option<usize> {
    // Skip stacked attributes (#[test] #[ignore] fn ...).
    while i < toks.len()
        && toks[i].is_punct('#')
        && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
    {
        let (end, _) = scan_attr(toks, i + 1);
        i = end + 1;
    }
    // Walk to the body `{` (at paren depth 0) or a terminating `;`.
    let mut paren = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren = paren.saturating_sub(1);
        } else if t.is_punct(';') && paren == 0 {
            return Some(i);
        } else if t.is_punct('{') && paren == 0 {
            // Brace-match the body.
            let mut depth = 0usize;
            while i < toks.len() {
                if toks[i].is_punct('{') {
                    depth += 1;
                } else if toks[i].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return Some(i);
                    }
                }
                i += 1;
            }
            return None;
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse(
            FileContext {
                rel_path: "crates/demo/src/lib.rs".into(),
                member: "crates/demo".into(),
            },
            src,
        )
    }

    #[test]
    fn cfg_test_mod_is_test_code() {
        let f = file(
            "fn prod() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn helper() {}\n\
             }\n\
             fn also_prod() {}\n",
        );
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(2));
        assert!(f.in_test_code(4));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn cfg_not_test_is_production() {
        let f = file("#[cfg(not(test))]\nfn prod() { body(); }\n");
        assert!(!f.in_test_code(2));
    }

    #[test]
    fn test_attr_with_stacked_attrs() {
        let f = file("#[test]\n#[ignore]\nfn t() {\n    body();\n}\n");
        assert!(f.in_test_code(4));
    }

    #[test]
    fn allow_requires_reason() {
        let f = file(
            "fn a() {} // lint:allow(L001, infallible: len checked above)\n\
             fn b() {} // lint:allow(L001,)\n\
             fn c() {} // lint:allow(L001)\n",
        );
        assert!(f.allows("L001", 1));
        assert!(!f.allows("L001", 2));
        assert!(!f.allows("L001", 3));
        assert!(!f.allows("L002", 1));
    }

    #[test]
    fn allow_on_preceding_comment_line() {
        let f = file(
            "// lint:allow(L005, demo output)\n\
             fn a() {}\n\
             \n\
             // lint:allow(L005, too far away)\n\
             \n\
             fn b() {}\n",
        );
        assert!(f.allows("L005", 2));
        assert!(!f.allows("L005", 6), "blank line breaks the association");
    }

    #[test]
    fn standalone_allow_covers_the_whole_statement() {
        let f = file(
            "fn a() {\n\
                 // lint:allow(L001, demo covers the full call)\n\
                 panic!(\n\
                     \"multi\\\n\
                      line\"\n\
                 );\n\
                 other();\n\
             }\n",
        );
        for line in 3..=6 {
            assert!(
                f.allows("L001", line),
                "line {line} is inside the statement"
            );
        }
        assert!(!f.allows("L001", 7), "next statement is not covered");
    }

    #[test]
    fn standalone_allow_above_an_item_covers_only_its_first_line() {
        let f = file(
            "// lint:allow(L001, signature only)\n\
             fn a() {\n\
                 body();\n\
             }\n",
        );
        assert!(f.allows("L001", 2));
        assert!(
            !f.allows("L001", 3),
            "an allow above a fn must not silence its body"
        );
    }

    #[test]
    fn standalone_allow_covers_if_statement_without_semicolon() {
        let f = file(
            "fn a() {\n\
                 // lint:allow(L001, both arms)\n\
                 if x {\n\
                     panic!(\"a\")\n\
                 } else {\n\
                     panic!(\"b\")\n\
                 }\n\
                 other();\n\
             }\n",
        );
        for line in 3..=7 {
            assert!(f.allows("L001", line), "line {line}");
        }
        assert!(!f.allows("L001", 8));
    }

    #[test]
    fn allow_naming_an_unknown_rule_is_a_violation() {
        let f = file(
            "fn a() {} // lint:allow(L999, no such rule)\n\
             fn b() {} // lint:allow(L001, a real rule)\n\
             /* lint:allow(L005, also real)\n\
                lint:allow(L102, a deleted rule) */\n",
        );
        let found: Vec<_> = crate::rules::check_file(&f)
            .violations
            .iter()
            .map(|v| (v.line, v.col, v.rule))
            .collect();
        assert_eq!(found, vec![(1, 14, "L000"), (4, 1, "L000")]);
    }

    #[test]
    fn lock_rank_forms() {
        let f = file(
            "struct S {\n\
                 a: u32, // lock-rank: 120\n\
                 b: u32, // lock-rank: unranked(page-ordered latch)\n\
                 c: u32, // lock-rank: unranked()\n\
                 d: u32, // lock-rank: soon\n\
             }\n",
        );
        assert_eq!(f.lock_rank(2), Some(RankAnnotation::Ranked(120)));
        assert_eq!(
            f.lock_rank(3),
            Some(RankAnnotation::Unranked { reason_ok: true })
        );
        assert_eq!(
            f.lock_rank(4),
            Some(RankAnnotation::Unranked { reason_ok: false })
        );
        assert_eq!(f.lock_rank(5), Some(RankAnnotation::Malformed));
        assert_eq!(f.lock_rank(1), None);
    }
}
