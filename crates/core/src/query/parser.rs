//! Recursive-descent parser for the supported SQL subset.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! stmt        := create | insert | select | delete | declare | checkpoint | show
//! show        := SHOW STATS
//! create      := CREATE TABLE name '(' coldef (',' coldef)* ')'
//! coldef      := name type [DEGRADE USING ident LCP string] [INDEXED]
//! insert      := INSERT INTO name VALUES tuple (',' tuple)*
//! tuple       := '(' literal (',' literal)* ')'
//! select      := SELECT ('*' | cols) FROM name [WHERE conj]
//! delete      := DELETE FROM name [WHERE conj]
//! conj        := term (AND term)*
//! term        := col op literal | col LIKE string | col BETWEEN lit AND lit
//! declare     := DECLARE PURPOSE name SET ACCURACY LEVEL item (',' item)*
//! item        := leveltoken FOR [ident '.'] col
//! checkpoint  := CHECKPOINT
//! ```

use instant_common::{Error, Result, Value};

use super::ast::*;
use super::lexer::{lex, Token};

pub struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

/// Parse one statement (a trailing `;` is tolerated).
pub fn parse(sql: &str) -> Result<Statement> {
    let mut p = Parser {
        toks: lex(sql)?,
        pos: 0,
    };
    let stmt = p.statement()?;
    p.eat_symbol(';');
    if !p.at_end() {
        return Err(Error::Parse(format!(
            "trailing tokens after statement: {:?}",
            p.peek()
        )));
    }
    Ok(stmt)
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Token> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| Error::Parse("unexpected end of statement".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        let t = self.next()?;
        if t.is_kw(kw) {
            Ok(())
        } else {
            Err(Error::Parse(format!("expected {kw}, got {t:?}")))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_symbol(&mut self, c: char) -> bool {
        if self.peek() == Some(&Token::Symbol(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, c: char) -> Result<()> {
        let t = self.next()?;
        if t == Token::Symbol(c) {
            Ok(())
        } else {
            Err(Error::Parse(format!("expected '{c}', got {t:?}")))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(Error::Parse(format!("expected identifier, got {other:?}"))),
        }
    }

    fn literal(&mut self) -> Result<Value> {
        match self.next()? {
            Token::Int(i) => Ok(Value::Int(i)),
            Token::Float(f) => Ok(Value::Float(f)),
            Token::Str(s) => Ok(Value::Str(s)),
            Token::Ident(s) if s.eq_ignore_ascii_case("null") => Ok(Value::Null),
            Token::Ident(s) if s.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
            Token::Ident(s) if s.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
            other => Err(Error::Parse(format!("expected literal, got {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        let t = self
            .peek()
            .ok_or_else(|| Error::Parse("empty statement".into()))?
            .clone();
        if t.is_kw("create") {
            self.create_table()
        } else if t.is_kw("insert") {
            self.insert()
        } else if t.is_kw("select") {
            self.select()
        } else if t.is_kw("delete") {
            self.delete()
        } else if t.is_kw("declare") {
            self.declare_purpose()
        } else if t.is_kw("checkpoint") {
            self.pos += 1;
            Ok(Statement::Checkpoint)
        } else if t.is_kw("show") {
            self.pos += 1;
            self.expect_kw("stats")?;
            Ok(Statement::ShowStats)
        } else {
            Err(Error::Parse(format!("unsupported statement start: {t:?}")))
        }
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_kw("create")?;
        self.expect_kw("table")?;
        let name = self.ident()?;
        self.expect_symbol('(')?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.ident()?;
            let type_name = self.ident()?;
            let mut degrade = None;
            let mut indexed = false;
            loop {
                if self.eat_kw("degrade") {
                    self.expect_kw("using")?;
                    let hierarchy = self.ident()?;
                    self.expect_kw("lcp")?;
                    let spec = match self.next()? {
                        Token::Str(s) => s,
                        other => {
                            return Err(Error::Parse(format!(
                                "LCP spec must be a quoted string, got {other:?}"
                            )))
                        }
                    };
                    degrade = Some(DegradeClause {
                        hierarchy,
                        lcp_spec: spec,
                    });
                } else if self.eat_kw("indexed") {
                    indexed = true;
                } else {
                    break;
                }
            }
            columns.push(ColumnDef {
                name: col_name,
                type_name,
                degrade,
                indexed,
            });
            if self.eat_symbol(',') {
                continue;
            }
            self.expect_symbol(')')?;
            break;
        }
        Ok(Statement::CreateTable { name, columns })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("insert")?;
        self.expect_kw("into")?;
        let table = self.ident()?;
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol('(')?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                if self.eat_symbol(',') {
                    continue;
                }
                self.expect_symbol(')')?;
                break;
            }
            rows.push(row);
            if !self.eat_symbol(',') {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn select(&mut self) -> Result<Statement> {
        self.expect_kw("select")?;
        let mut projection = Vec::new();
        if !self.eat_symbol('*') {
            loop {
                projection.push(self.column_ref()?);
                if !self.eat_symbol(',') {
                    break;
                }
            }
        }
        self.expect_kw("from")?;
        let table = self.ident()?;
        let predicate = if self.eat_kw("where") {
            Some(self.conjunction()?)
        } else {
            None
        };
        Ok(Statement::Select {
            table,
            projection,
            predicate,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("delete")?;
        self.expect_kw("from")?;
        let table = self.ident()?;
        let predicate = if self.eat_kw("where") {
            Some(self.conjunction()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, predicate })
    }

    /// Column reference, stripping a table qualifier (`P.LOCATION` → `LOCATION`).
    fn column_ref(&mut self) -> Result<String> {
        let first = self.ident()?;
        if self.eat_symbol('.') {
            self.ident()
        } else {
            Ok(first)
        }
    }

    #[expect(clippy::expect_used, reason = "len() == 1 is checked before the pop")]
    fn conjunction(&mut self) -> Result<Predicate> {
        let mut terms = vec![self.term()?];
        while self.eat_kw("and") {
            terms.push(self.term()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("one")
        } else {
            Predicate::And(terms)
        })
    }

    fn term(&mut self) -> Result<Predicate> {
        let column = self.column_ref()?;
        if self.eat_kw("like") {
            let pattern = match self.next()? {
                Token::Str(s) => s,
                other => {
                    return Err(Error::Parse(format!(
                        "LIKE pattern must be a string, got {other:?}"
                    )))
                }
            };
            return Ok(Predicate::Like { column, pattern });
        }
        if self.eat_kw("between") {
            let lo = self.literal()?;
            self.expect_kw("and")?;
            let hi = self.literal()?;
            return Ok(Predicate::Between { column, lo, hi });
        }
        let op = match self.next()? {
            Token::Eq => ComparisonOp::Eq,
            Token::Ne => ComparisonOp::Ne,
            Token::Lt => ComparisonOp::Lt,
            Token::Le => ComparisonOp::Le,
            Token::Gt => ComparisonOp::Gt,
            Token::Ge => ComparisonOp::Ge,
            other => return Err(Error::Parse(format!("expected operator, got {other:?}"))),
        };
        let literal = self.literal()?;
        Ok(Predicate::Cmp {
            column,
            op,
            literal,
        })
    }

    fn declare_purpose(&mut self) -> Result<Statement> {
        self.expect_kw("declare")?;
        self.expect_kw("purpose")?;
        let name = self.ident()?;
        self.expect_kw("set")?;
        self.expect_kw("accuracy")?;
        self.expect_kw("level")?;
        let mut items = Vec::new();
        loop {
            let level = self.ident()?;
            self.expect_kw("for")?;
            let column = self.column_ref()?;
            items.push(AccuracyItem { level, column });
            if !self.eat_symbol(',') {
                break;
            }
        }
        Ok(Statement::DeclarePurpose { name, items })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_select() {
        let s =
            parse("SELECT * FROM PERSON WHERE LOCATION LIKE '%FRANCE%' AND SALARY = '2000-3000'")
                .unwrap();
        match s {
            Statement::Select {
                table,
                projection,
                predicate,
            } => {
                assert_eq!(table, "PERSON");
                assert!(projection.is_empty());
                let p = predicate.unwrap();
                assert_eq!(p.conjuncts().len(), 2);
                assert!(matches!(
                    p.conjuncts()[0],
                    Predicate::Like { pattern, .. } if pattern == "%FRANCE%"
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_paper_declare_purpose() {
        let s = parse(
            "DECLARE PURPOSE STAT SET ACCURACY LEVEL COUNTRY FOR P.LOCATION, RANGE1000 FOR P.SALARY",
        )
        .unwrap();
        match s {
            Statement::DeclarePurpose { name, items } => {
                assert_eq!(name, "STAT");
                assert_eq!(items.len(), 2);
                assert_eq!(items[0].level, "COUNTRY");
                assert_eq!(items[0].column, "LOCATION"); // qualifier stripped
                assert_eq!(items[1].level, "RANGE1000");
                assert_eq!(items[1].column, "SALARY");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_create_table_with_degrade() {
        let s = parse(
            "CREATE TABLE person (id INT INDEXED, name TEXT, \
             location TEXT DEGRADE USING location_gt LCP 'd0:1h -> d1:1d' INDEXED, \
             salary INT DEGRADE USING salary LCP 'd0:10min -> d2:30d')",
        )
        .unwrap();
        match s {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "person");
                assert_eq!(columns.len(), 4);
                assert!(columns[0].indexed && columns[0].degrade.is_none());
                let loc = &columns[2];
                assert!(loc.indexed);
                let d = loc.degrade.as_ref().unwrap();
                assert_eq!(d.hierarchy, "location_gt");
                assert_eq!(d.lcp_spec, "d0:1h -> d1:1d");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_insert_multi_row() {
        let s = parse("INSERT INTO t VALUES (1, 'a'), (2, 'b')").unwrap();
        match s {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "t");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1], vec![Value::Int(2), Value::Str("b".into())]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_delete_and_between() {
        let s = parse("DELETE FROM t WHERE salary BETWEEN 100 AND 200 AND id > 5;").unwrap();
        match s {
            Statement::Delete { predicate, .. } => {
                let p = predicate.unwrap();
                assert_eq!(p.conjuncts().len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn projection_with_qualifiers() {
        let s = parse("SELECT p.id, p.location FROM person").unwrap();
        match s {
            Statement::Select { projection, .. } => {
                assert_eq!(projection, vec!["id".to_string(), "location".to_string()]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(parse("").is_err());
        assert!(parse("DROP TABLE t").is_err());
        assert!(parse("SELECT FROM t").is_err()); // missing projection
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t WHERE a LIKE 5").is_err());
        assert!(parse("INSERT INTO t VALUES 1,2").is_err());
        assert!(parse("SELECT * FROM t extra").is_err());
        assert!(parse("CREATE TABLE t (x BLOBBY DEGRADE)").is_err());
    }

    #[test]
    fn parses_show_stats() {
        assert_eq!(parse("SHOW STATS").unwrap(), Statement::ShowStats);
        assert_eq!(parse("show stats;").unwrap(), Statement::ShowStats);
        assert!(parse("SHOW").is_err());
        assert!(parse("SHOW TABLES").is_err());
    }

    #[test]
    fn null_bool_literals() {
        let s = parse("INSERT INTO t VALUES (NULL, TRUE, false)").unwrap();
        match s {
            Statement::Insert { rows, .. } => {
                assert_eq!(
                    rows[0],
                    vec![Value::Null, Value::Bool(true), Value::Bool(false)]
                );
            }
            other => panic!("{other:?}"),
        }
    }
}
