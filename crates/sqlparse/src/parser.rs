//! Recursive-descent parser with precedence climbing for expressions.

use fedwf_types::{DataType, FedError, FedResult, Ident, QualifiedName, Value, MAX_EXPR_DEPTH};

use crate::ast::*;
use crate::lexer::{tokenize, Keyword, Token, TokenKind};

/// The parser over a token stream. Expressions nest at most
/// [`MAX_EXPR_DEPTH`] levels, so the parser and whatever walks the tree
/// afterwards recurse a bounded number of levels.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels open around the current position.
    nesting: usize,
    /// Levels of the expression just parsed.
    depth: usize,
}

impl Parser {
    pub fn new(sql: &str) -> FedResult<Parser> {
        Ok(Parser {
            tokens: tokenize(sql)?,
            pos: 0,
            nesting: 0,
            depth: 0,
        })
    }

    // ---- token helpers -------------------------------------------------

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn peek_at(&self, n: usize) -> Option<&TokenKind> {
        self.tokens.get(self.pos + n).map(|t| &t.kind)
    }

    fn bump(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos)?.kind.clone();
        self.pos += 1;
        Some(t)
    }

    fn error_here(&self, expected: &str) -> FedError {
        match self.tokens.get(self.pos) {
            Some(t) => FedError::parse(format!(
                "expected {expected}, found {} at offset {}",
                t.kind, t.offset
            )),
            None => FedError::parse(format!("expected {expected}, found end of input")),
        }
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if self.peek() == Some(&TokenKind::Keyword(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> FedResult<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error_here(&format!("{kw:?}")))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> FedResult<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.error_here(&kind.to_string()))
        }
    }

    fn expect_ident(&mut self) -> FedResult<Ident> {
        match self.peek() {
            Some(TokenKind::Ident(_)) => {
                if let Some(TokenKind::Ident(s)) = self.bump() {
                    Ok(Ident::new(s))
                } else {
                    unreachable!("peeked an identifier")
                }
            }
            _ => Err(self.error_here("identifier")),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    // ---- statements ----------------------------------------------------

    /// Parse exactly one statement; trailing semicolon allowed.
    pub fn parse_single_statement(&mut self) -> FedResult<Statement> {
        let stmt = self.parse_statement_inner()?;
        self.eat(&TokenKind::Semicolon);
        if !self.at_end() {
            return Err(self.error_here("end of statement"));
        }
        Ok(stmt)
    }

    /// Parse a semicolon-separated script.
    pub fn parse_script(&mut self) -> FedResult<Vec<Statement>> {
        let mut out = Vec::new();
        while !self.at_end() {
            if self.eat(&TokenKind::Semicolon) {
                continue;
            }
            out.push(self.parse_statement_inner()?);
            if !self.at_end() {
                self.expect(&TokenKind::Semicolon)?;
            }
        }
        Ok(out)
    }

    fn parse_statement_inner(&mut self) -> FedResult<Statement> {
        match self.peek() {
            Some(TokenKind::Keyword(Keyword::Select)) => {
                Ok(Statement::Select(self.parse_select()?))
            }
            Some(TokenKind::Keyword(Keyword::Create)) => self.parse_create(),
            Some(TokenKind::Keyword(Keyword::Insert)) => self.parse_insert(),
            Some(TokenKind::Keyword(Keyword::Update)) => self.parse_update(),
            Some(TokenKind::Keyword(Keyword::Delete)) => self.parse_delete(),
            Some(TokenKind::Keyword(Keyword::Drop)) => self.parse_drop(),
            Some(TokenKind::Keyword(Keyword::Explain)) => {
                self.bump();
                let analyze = self.eat_keyword(Keyword::Analyze);
                if self.peek() == Some(&TokenKind::Keyword(Keyword::Explain)) {
                    return Err(self.error_here("a statement to explain, not another EXPLAIN"));
                }
                let inner = self.parse_statement_inner()?;
                Ok(if analyze {
                    Statement::ExplainAnalyze(Box::new(inner))
                } else {
                    Statement::Explain(Box::new(inner))
                })
            }
            _ => Err(self.error_here("a statement")),
        }
    }

    fn parse_create(&mut self) -> FedResult<Statement> {
        self.expect_keyword(Keyword::Create)?;
        if self.eat_keyword(Keyword::Table) {
            let name = self.expect_ident()?;
            self.expect(&TokenKind::LParen)?;
            let columns = self.parse_column_defs()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(Statement::CreateTable { name, columns });
        }
        if self.eat_keyword(Keyword::Function) {
            return self.parse_create_function();
        }
        let unique = self.eat_keyword(Keyword::Unique);
        if self.eat_keyword(Keyword::Index) {
            let name = self.expect_ident()?;
            self.expect_keyword(Keyword::On)?;
            let table = self.expect_ident()?;
            self.expect(&TokenKind::LParen)?;
            let column = self.expect_ident()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(Statement::CreateIndex {
                name,
                table,
                column,
                unique,
            });
        }
        Err(self.error_here("TABLE, FUNCTION or [UNIQUE] INDEX after CREATE"))
    }

    fn parse_create_function(&mut self) -> FedResult<Statement> {
        let name = self.expect_ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.peek() != Some(&TokenKind::RParen) {
            loop {
                let pname = self.expect_ident()?;
                let data_type = self.parse_data_type()?;
                params.push(ParamDef {
                    name: pname,
                    data_type,
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        self.expect_keyword(Keyword::Returns)?;
        self.expect_keyword(Keyword::Table)?;
        self.expect(&TokenKind::LParen)?;
        let returns = self.parse_column_defs()?;
        self.expect(&TokenKind::RParen)?;
        self.expect_keyword(Keyword::Language)?;
        self.expect_keyword(Keyword::Sql)?;
        self.expect_keyword(Keyword::Return)?;
        let body = self.parse_select()?;
        Ok(Statement::CreateFunction(CreateFunctionStmt {
            name,
            params,
            returns,
            body,
        }))
    }

    fn parse_column_defs(&mut self) -> FedResult<Vec<ColumnDef>> {
        let mut out = Vec::new();
        loop {
            let name = self.expect_ident()?;
            let data_type = self.parse_data_type()?;
            let mut not_null = false;
            if self.eat_keyword(Keyword::Not) {
                self.expect_keyword(Keyword::Null)?;
                not_null = true;
            }
            out.push(ColumnDef {
                name,
                data_type,
                not_null,
            });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(out)
    }

    fn parse_data_type(&mut self) -> FedResult<DataType> {
        let ident = self.expect_ident()?;
        let dt = DataType::parse(ident.as_str())
            .ok_or_else(|| FedError::parse(format!("unknown data type {ident}")))?;
        // Optional length such as VARCHAR(30): parsed and ignored.
        if self.eat(&TokenKind::LParen) {
            match self.bump() {
                Some(TokenKind::Integer(_)) => {}
                _ => return Err(self.error_here("type length")),
            }
            self.expect(&TokenKind::RParen)?;
        }
        Ok(dt)
    }

    fn parse_insert(&mut self) -> FedResult<Statement> {
        self.expect_keyword(Keyword::Insert)?;
        self.expect_keyword(Keyword::Into)?;
        let table = self.expect_ident()?;
        let columns = if self.eat(&TokenKind::LParen) {
            let mut cols = vec![self.expect_ident()?];
            while self.eat(&TokenKind::Comma) {
                cols.push(self.expect_ident()?);
            }
            self.expect(&TokenKind::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_keyword(Keyword::Values)?;
        let mut rows = Vec::new();
        loop {
            self.expect(&TokenKind::LParen)?;
            let mut row = vec![self.parse_expr()?];
            while self.eat(&TokenKind::Comma) {
                row.push(self.parse_expr()?);
            }
            self.expect(&TokenKind::RParen)?;
            rows.push(row);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn parse_update(&mut self) -> FedResult<Statement> {
        self.expect_keyword(Keyword::Update)?;
        let table = self.expect_ident()?;
        self.expect_keyword(Keyword::Set)?;
        let mut assignments = Vec::new();
        loop {
            let col = self.expect_ident()?;
            self.expect(&TokenKind::Eq)?;
            let expr = self.parse_expr()?;
            assignments.push((col, expr));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let selection = if self.eat_keyword(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            selection,
        })
    }

    fn parse_delete(&mut self) -> FedResult<Statement> {
        self.expect_keyword(Keyword::Delete)?;
        self.expect_keyword(Keyword::From)?;
        let table = self.expect_ident()?;
        let selection = if self.eat_keyword(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, selection })
    }

    fn parse_drop(&mut self) -> FedResult<Statement> {
        self.expect_keyword(Keyword::Drop)?;
        if self.eat_keyword(Keyword::Table) {
            Ok(Statement::DropTable {
                name: self.expect_ident()?,
            })
        } else if self.eat_keyword(Keyword::Function) {
            Ok(Statement::DropFunction {
                name: self.expect_ident()?,
            })
        } else {
            Err(self.error_here("TABLE or FUNCTION after DROP"))
        }
    }

    // ---- SELECT ---------------------------------------------------------

    pub fn parse_select(&mut self) -> FedResult<SelectStmt> {
        self.expect_keyword(Keyword::Select)?;
        let distinct = self.eat_keyword(Keyword::Distinct);
        let mut projection = vec![self.parse_select_item()?];
        while self.eat(&TokenKind::Comma) {
            projection.push(self.parse_select_item()?);
        }
        let mut from = Vec::new();
        if self.eat_keyword(Keyword::From) {
            from.push(self.parse_from_item()?);
            while self.eat(&TokenKind::Comma) {
                from.push(self.parse_from_item()?);
            }
        }
        let selection = if self.eat_keyword(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            group_by.push(self.parse_expr()?);
            while self.eat(&TokenKind::Comma) {
                group_by.push(self.parse_expr()?);
            }
        }
        let mut order_by = Vec::new();
        if self.eat_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            loop {
                let expr = self.parse_expr()?;
                let ascending = if self.eat_keyword(Keyword::Desc) {
                    false
                } else {
                    self.eat_keyword(Keyword::Asc);
                    true
                };
                order_by.push(OrderByItem { expr, ascending });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword(Keyword::Limit) {
            match self.bump() {
                Some(TokenKind::Integer(n)) if n >= 0 => Some(n as u64),
                _ => return Err(self.error_here("non-negative LIMIT count")),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            distinct,
            projection,
            from,
            selection,
            group_by,
            order_by,
            limit,
        })
    }

    fn parse_select_item(&mut self) -> FedResult<SelectItem> {
        if self.eat(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if let (Some(TokenKind::Ident(_)), Some(TokenKind::Dot), Some(TokenKind::Star)) =
            (self.peek(), self.peek_at(1), self.peek_at(2))
        {
            let alias = self.expect_ident()?;
            self.expect(&TokenKind::Dot)?;
            self.expect(&TokenKind::Star)?;
            return Ok(SelectItem::QualifiedWildcard(alias));
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_keyword(Keyword::As) {
            Some(self.expect_ident()?)
        } else if let Some(TokenKind::Ident(_)) = self.peek() {
            // Bare alias (no AS).
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_from_item(&mut self) -> FedResult<FromItem> {
        if self.eat_keyword(Keyword::Table) {
            // TABLE ( func(args) ) AS alias — the alias is mandatory, as in
            // the DB2 dialect the paper used.
            self.expect(&TokenKind::LParen)?;
            let name = self.expect_ident()?;
            self.expect(&TokenKind::LParen)?;
            let mut args = Vec::new();
            if self.peek() != Some(&TokenKind::RParen) {
                args.push(self.parse_expr()?);
                while self.eat(&TokenKind::Comma) {
                    args.push(self.parse_expr()?);
                }
            }
            self.expect(&TokenKind::RParen)?;
            self.expect(&TokenKind::RParen)?;
            self.expect_keyword(Keyword::As)?;
            let alias = self.expect_ident()?;
            return Ok(FromItem::TableFunction { name, args, alias });
        }
        let name = self.expect_ident()?;
        let alias = if self.eat_keyword(Keyword::As) {
            Some(self.expect_ident()?)
        } else if let Some(TokenKind::Ident(_)) = self.peek() {
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(FromItem::Table { name, alias })
    }

    // ---- expressions ----------------------------------------------------

    /// Parse an expression (public entry point used by tests/tools).
    pub fn parse_expr(&mut self) -> FedResult<Expr> {
        self.parse_expr_prec(0)
    }

    /// Parse `inner` one level deeper: inside a parenthesis, `NOT`, sign,
    /// `CAST` or function argument list.
    fn nested<T>(&mut self, inner: impl FnOnce(&mut Parser) -> FedResult<T>) -> FedResult<T> {
        self.deeper(0)?;
        self.nesting += 1;
        let result = inner(self);
        self.nesting -= 1;
        self.depth += 1;
        result
    }

    /// One level on top of `depth`, if that fits under the open levels:
    /// a nested construct, or a node above its operands (each operator of
    /// a left-deep chain such as `a + b + c`, each `IS NULL`).
    fn deeper(&self, depth: usize) -> FedResult<usize> {
        if self.nesting + depth < MAX_EXPR_DEPTH {
            return Ok(depth + 1);
        }
        Err(self.error_here(&format!(
            "an expression at most {MAX_EXPR_DEPTH} levels deep"
        )))
    }

    fn parse_expr_prec(&mut self, min_prec: u8) -> FedResult<Expr> {
        let mut lhs = self.parse_unary()?;
        let mut depth = self.depth;
        loop {
            // Postfix IS [NOT] NULL binds tighter than comparisons.
            if self.peek() == Some(&TokenKind::Keyword(Keyword::Is)) {
                self.bump();
                let negated = self.eat_keyword(Keyword::Not);
                self.expect_keyword(Keyword::Null)?;
                depth = self.deeper(depth)?;
                lhs = Expr::IsNull {
                    expr: Box::new(lhs),
                    negated,
                };
                continue;
            }
            let op = match self.peek() {
                Some(TokenKind::Keyword(Keyword::Or)) => BinaryOp::Or,
                Some(TokenKind::Keyword(Keyword::And)) => BinaryOp::And,
                Some(TokenKind::Eq) => BinaryOp::Eq,
                Some(TokenKind::NotEq) => BinaryOp::NotEq,
                Some(TokenKind::Lt) => BinaryOp::Lt,
                Some(TokenKind::LtEq) => BinaryOp::LtEq,
                Some(TokenKind::Gt) => BinaryOp::Gt,
                Some(TokenKind::GtEq) => BinaryOp::GtEq,
                Some(TokenKind::Plus) => BinaryOp::Add,
                Some(TokenKind::Minus) => BinaryOp::Sub,
                Some(TokenKind::Star) => BinaryOp::Mul,
                Some(TokenKind::Slash) => BinaryOp::Div,
                Some(TokenKind::Concat) => BinaryOp::Concat,
                _ => break,
            };
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.bump();
            // Left-associative: the right side must bind strictly tighter.
            let rhs = self.parse_expr_prec(prec + 1)?;
            depth = self.deeper(depth.max(self.depth))?;
            lhs = Expr::Binary {
                left: Box::new(lhs),
                op,
                right: Box::new(rhs),
            };
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> FedResult<Expr> {
        if self.eat_keyword(Keyword::Not) {
            // NOT binds looser than comparisons but tighter than AND.
            let expr = self.nested(|p| p.parse_expr_prec(3))?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(expr),
            });
        }
        if self.eat(&TokenKind::Minus) {
            let expr = self.nested(Parser::parse_unary)?;
            // Fold negative literals immediately.
            return Ok(match expr {
                Expr::Literal(Value::Int(v)) => Expr::Literal(Value::Int(-v)),
                Expr::Literal(Value::BigInt(v)) => Expr::Literal(Value::BigInt(-v)),
                Expr::Literal(Value::Double(v)) => Expr::Literal(Value::Double(-v)),
                other => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        if self.eat(&TokenKind::Plus) {
            return self.nested(Parser::parse_unary);
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> FedResult<Expr> {
        self.depth = 0;
        match self.peek().cloned() {
            Some(TokenKind::Integer(v)) => {
                self.bump();
                // SQL INTEGER literals that fit i32 are INT, else BIGINT.
                Ok(Expr::Literal(match i32::try_from(v) {
                    Ok(small) => Value::Int(small),
                    Err(_) => Value::BigInt(v),
                }))
            }
            Some(TokenKind::Float(v)) => {
                self.bump();
                Ok(Expr::Literal(Value::Double(v)))
            }
            Some(TokenKind::String(s)) => {
                self.bump();
                Ok(Expr::Literal(Value::Varchar(s.into())))
            }
            Some(TokenKind::Keyword(Keyword::Null)) => {
                self.bump();
                Ok(Expr::Literal(Value::Null))
            }
            Some(TokenKind::Keyword(Keyword::True)) => {
                self.bump();
                Ok(Expr::Literal(Value::Boolean(true)))
            }
            Some(TokenKind::Keyword(Keyword::False)) => {
                self.bump();
                Ok(Expr::Literal(Value::Boolean(false)))
            }
            Some(TokenKind::Keyword(Keyword::Cast)) => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let expr = self.nested(Parser::parse_expr)?;
                self.expect_keyword(Keyword::As)?;
                let data_type = self.parse_data_type()?;
                self.expect(&TokenKind::RParen)?;
                Ok(Expr::Cast {
                    expr: Box::new(expr),
                    data_type,
                })
            }
            Some(TokenKind::LParen) => {
                self.bump();
                let e = self.nested(Parser::parse_expr)?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            Some(TokenKind::Ident(_)) => {
                let first = self.expect_ident()?;
                // Function call?
                if self.peek() == Some(&TokenKind::LParen) {
                    self.bump();
                    // COUNT(*) — the star form carries no argument.
                    if first == Ident::new("COUNT") && self.peek() == Some(&TokenKind::Star) {
                        self.bump();
                        self.expect(&TokenKind::RParen)?;
                        return Ok(Expr::Function {
                            name: first,
                            args: vec![],
                        });
                    }
                    let mut args = Vec::new();
                    let mut depth = 0;
                    if self.peek() != Some(&TokenKind::RParen) {
                        args.push(self.nested(Parser::parse_expr)?);
                        depth = self.depth;
                        while self.eat(&TokenKind::Comma) {
                            args.push(self.nested(Parser::parse_expr)?);
                            depth = depth.max(self.depth);
                        }
                    }
                    self.depth = depth;
                    self.expect(&TokenKind::RParen)?;
                    return Ok(Expr::Function { name: first, args });
                }
                // Qualified column?
                if self.eat(&TokenKind::Dot) {
                    let second = self.expect_ident()?;
                    return Ok(Expr::Column(QualifiedName {
                        qualifier: Some(first),
                        name: second,
                    }));
                }
                Ok(Expr::Column(QualifiedName {
                    qualifier: None,
                    name: first,
                }))
            }
            _ => Err(self.error_here("an expression")),
        }
    }
}

/// Parse exactly one statement.
pub fn parse_statement(sql: &str) -> FedResult<Statement> {
    Parser::new(sql)?.parse_single_statement()
}

/// Parse a semicolon-separated script.
pub fn parse_statements(sql: &str) -> FedResult<Vec<Statement>> {
    Parser::new(sql)?.parse_script()
}

/// Parse a standalone scalar expression.
pub fn parse_expression(sql: &str) -> FedResult<Expr> {
    let mut p = Parser::new(sql)?;
    let e = p.parse_expr()?;
    if !p.at_end() {
        return Err(FedError::parse("trailing input after expression"));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedwf_types::rng::Rng;
    use fedwf_types::ErrorLayer;

    #[test]
    fn parses_the_buysuppcomp_select() {
        // Verbatim from the paper (simple UDTF architecture).
        let sql = "SELECT DP.Answer
            FROM TABLE (GetQuality(SupplierNo)) AS GQ,
                 TABLE (GetReliability(SupplierNo)) AS GR,
                 TABLE (GetGrade(GQ.Qual, GR.Relia)) AS GG,
                 TABLE (GetCompNo(CompName)) AS GCN,
                 TABLE (DecidePurchase(GG.Grade, GCN.No)) AS DP";
        let stmt = parse_statement(sql).unwrap();
        let Statement::Select(sel) = stmt else {
            panic!("expected select")
        };
        assert_eq!(sel.from.len(), 5);
        assert_eq!(sel.projection.len(), 1);
        let FromItem::TableFunction { name, args, alias } = &sel.from[2] else {
            panic!("expected table function")
        };
        assert_eq!(name, &Ident::new("GetGrade"));
        assert_eq!(alias, &Ident::new("GG"));
        assert_eq!(args.len(), 2);
        assert_eq!(args[0], Expr::col("GQ", "Qual"));
    }

    #[test]
    fn parses_the_create_function_statement() {
        // Verbatim from the paper (enhanced SQL UDTF architecture).
        let sql = "CREATE FUNCTION BuySuppComp (SupplierNo INT, CompName VARCHAR)
            RETURNS TABLE (Decision VARCHAR) LANGUAGE SQL RETURN
            SELECT DP.Answer
            FROM TABLE (GetQuality(BuySuppComp.SupplierNo)) AS GQ,
                 TABLE (GetReliability(BuySuppComp.SupplierNo)) AS GR,
                 TABLE (GetGrade(GQ.Qual, GR.Relia)) AS GG,
                 TABLE (GetCompNo(BuySuppComp.CompName)) AS GCN,
                 TABLE (DecidePurchase(GG.Grade, GCN.No)) AS DP";
        let stmt = parse_statement(sql).unwrap();
        let Statement::CreateFunction(cf) = stmt else {
            panic!("expected create function")
        };
        assert_eq!(cf.name, Ident::new("BuySuppComp"));
        assert_eq!(cf.params.len(), 2);
        assert_eq!(cf.params[0].data_type, DataType::Int);
        assert_eq!(cf.returns.len(), 1);
        assert_eq!(cf.body.from.len(), 5);
        // Parameter references are qualified with the function name.
        let FromItem::TableFunction { args, .. } = &cf.body.from[0] else {
            panic!()
        };
        assert_eq!(args[0], Expr::col("BuySuppComp", "SupplierNo"));
    }

    #[test]
    fn parses_getnumbersupp1234_with_cast_function() {
        let sql = "CREATE FUNCTION GetNumberSupp1234 (CompNo INT)
            RETURNS TABLE (Number INT) LANGUAGE SQL RETURN
            SELECT BIGINT(GN.Number)
            FROM TABLE (GetNumber(1234, GetNumberSupp1234.CompNo)) AS GN";
        let Statement::CreateFunction(cf) = parse_statement(sql).unwrap() else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &cf.body.projection[0] else {
            panic!()
        };
        assert_eq!(
            expr,
            &Expr::Function {
                name: Ident::new("BIGINT"),
                args: vec![Expr::col("GN", "Number")]
            }
        );
    }

    #[test]
    fn parses_where_join_with_selection() {
        // The independent-case mapping: join with selection.
        let sql = "SELECT GSCD.SubCompNo, GCS4D.SupplierNo
            FROM TABLE (GetSubCompNo(1)) AS GSCD,
                 TABLE (GetCompSupp4Discount(10)) AS GCS4D
            WHERE GSCD.SubCompNo = GCS4D.CompNo";
        let Statement::Select(sel) = parse_statement(sql).unwrap() else {
            panic!()
        };
        let where_clause = sel.selection.unwrap();
        assert_eq!(
            where_clause,
            Expr::eq(Expr::col("GSCD", "SubCompNo"), Expr::col("GCS4D", "CompNo"))
        );
    }

    #[test]
    fn precedence_and_parentheses() {
        let e = parse_expression("a = 1 OR b = 2 AND c = 3").unwrap();
        // AND binds tighter.
        let Expr::Binary { op, .. } = &e else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::Or);
        let e2 = parse_expression("(a = 1 OR b = 2) AND c = 3").unwrap();
        let Expr::Binary { op, .. } = &e2 else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::And);
    }

    #[test]
    fn arithmetic_precedence() {
        let e = parse_expression("1 + 2 * 3").unwrap();
        assert_eq!(
            e,
            Expr::binary(
                Expr::lit(1),
                BinaryOp::Add,
                Expr::binary(Expr::lit(2), BinaryOp::Mul, Expr::lit(3))
            )
        );
    }

    #[test]
    fn is_null_and_not() {
        let e = parse_expression("x IS NULL").unwrap();
        assert!(matches!(e, Expr::IsNull { negated: false, .. }));
        let e = parse_expression("x IS NOT NULL").unwrap();
        assert!(matches!(e, Expr::IsNull { negated: true, .. }));
        let e = parse_expression("NOT x = 1 AND y = 2").unwrap();
        // NOT applies to the comparison, not the conjunction.
        let Expr::Binary { op, left, .. } = &e else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::And);
        assert!(matches!(
            **left,
            Expr::Unary {
                op: UnaryOp::Not,
                ..
            }
        ));
    }

    #[test]
    fn negative_literals_fold() {
        assert_eq!(parse_expression("-5").unwrap(), Expr::lit(-5));
        assert_eq!(parse_expression("-2.5").unwrap(), Expr::lit(-2.5));
        assert!(matches!(
            parse_expression("-x").unwrap(),
            Expr::Unary {
                op: UnaryOp::Neg,
                ..
            }
        ));
    }

    #[test]
    fn big_integer_literal_becomes_bigint() {
        let e = parse_expression("3000000000").unwrap();
        assert_eq!(e, Expr::Literal(Value::BigInt(3_000_000_000)));
    }

    #[test]
    fn cast_expression() {
        let e = parse_expression("CAST(x AS BIGINT)").unwrap();
        assert_eq!(
            e,
            Expr::Cast {
                expr: Box::new(Expr::bare("x")),
                data_type: DataType::BigInt
            }
        );
    }

    #[test]
    fn ddl_and_dml_statements() {
        let s =
            parse_statement("CREATE TABLE Suppliers (SupplierNo INT NOT NULL, Name VARCHAR(30))")
                .unwrap();
        let Statement::CreateTable { columns, .. } = s else {
            panic!()
        };
        assert!(columns[0].not_null);
        assert!(!columns[1].not_null);

        let s = parse_statement(
            "INSERT INTO Suppliers (SupplierNo, Name) VALUES (1, 'Acme'), (2, 'Bolt')",
        )
        .unwrap();
        let Statement::Insert { rows, columns, .. } = s else {
            panic!()
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(columns.unwrap().len(), 2);

        let s = parse_statement("UPDATE Suppliers SET Name = 'X' WHERE SupplierNo = 1").unwrap();
        assert!(matches!(s, Statement::Update { .. }));

        let s = parse_statement("DELETE FROM Suppliers WHERE SupplierNo = 2").unwrap();
        assert!(matches!(s, Statement::Delete { .. }));

        let s = parse_statement("DROP FUNCTION BuySuppComp").unwrap();
        assert!(matches!(s, Statement::DropFunction { .. }));

        let s = parse_statement("CREATE UNIQUE INDEX pk ON Suppliers (SupplierNo)").unwrap();
        let Statement::CreateIndex { unique, .. } = s else {
            panic!()
        };
        assert!(unique);
    }

    #[test]
    fn order_by_and_limit() {
        let Statement::Select(sel) =
            parse_statement("SELECT a FROM t ORDER BY a DESC, b LIMIT 10").unwrap()
        else {
            panic!()
        };
        assert_eq!(sel.order_by.len(), 2);
        assert!(!sel.order_by[0].ascending);
        assert!(sel.order_by[1].ascending);
        assert_eq!(sel.limit, Some(10));
    }

    #[test]
    fn group_by_and_aggregates_parse() {
        let Statement::Select(sel) =
            parse_statement("SELECT Relia, COUNT(*), SUM(Price) FROM t GROUP BY Relia, Name")
                .unwrap()
        else {
            panic!()
        };
        assert_eq!(sel.group_by.len(), 2);
        let SelectItem::Expr { expr, .. } = &sel.projection[1] else {
            panic!()
        };
        assert_eq!(
            expr,
            &Expr::Function {
                name: Ident::new("COUNT"),
                args: vec![]
            }
        );
        // Round trip preserves COUNT(*) spelling and the GROUP BY clause.
        let printed = Statement::Select(sel.clone()).to_string();
        assert!(printed.contains("COUNT(*)"), "{printed}");
        assert!(printed.contains("GROUP BY Relia, Name"), "{printed}");
        let reparsed = parse_statement(&printed).unwrap();
        assert_eq!(reparsed, Statement::Select(sel));
    }

    #[test]
    fn explain_parses_and_round_trips() {
        let stmt = parse_statement("EXPLAIN SELECT a FROM t WHERE a = 1").unwrap();
        let Statement::Explain(inner) = &stmt else {
            panic!()
        };
        assert!(matches!(**inner, Statement::Select(_)));
        assert_eq!(parse_statement(&stmt.to_string()).unwrap(), stmt);
    }

    #[test]
    fn explain_analyze_parses_and_round_trips() {
        let stmt = parse_statement("EXPLAIN ANALYZE SELECT a FROM t WHERE a = 1").unwrap();
        let Statement::ExplainAnalyze(inner) = &stmt else {
            panic!()
        };
        assert!(matches!(**inner, Statement::Select(_)));
        assert_eq!(parse_statement(&stmt.to_string()).unwrap(), stmt);
        // `ANALYZE` alone is not a statement.
        assert!(parse_statement("ANALYZE SELECT a FROM t").is_err());
    }

    #[test]
    fn star_only_valid_in_count() {
        assert!(parse_statement("SELECT SUM(*) FROM t").is_err());
    }

    #[test]
    fn script_parsing() {
        let stmts =
            parse_statements("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;")
                .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn errors_are_located() {
        let err = parse_statement("SELECT FROM t").unwrap_err();
        assert!(err.to_string().contains("expected"));
        let err = parse_statement("SELECT a FROM TABLE (f(1))").unwrap_err();
        // Missing the mandatory correlation name.
        assert!(err.to_string().contains("As") || err.to_string().contains("expected"));
    }

    #[test]
    fn bare_aliases_without_as() {
        let Statement::Select(sel) = parse_statement("SELECT a x FROM t u").unwrap() else {
            panic!()
        };
        let SelectItem::Expr { alias, .. } = &sel.projection[0] else {
            panic!()
        };
        assert_eq!(alias.as_ref().unwrap(), &Ident::new("x"));
        let FromItem::Table { alias, .. } = &sel.from[0] else {
            panic!()
        };
        assert_eq!(alias.as_ref().unwrap(), &Ident::new("u"));
    }

    #[test]
    fn qualified_wildcard() {
        let Statement::Select(sel) = parse_statement("SELECT GQ.* FROM t AS GQ").unwrap() else {
            panic!()
        };
        assert_eq!(
            sel.projection[0],
            SelectItem::QualifiedWildcard(Ident::new("GQ"))
        );
    }

    #[test]
    fn varchar_length_is_accepted_and_ignored() {
        let Statement::CreateTable { columns, .. } =
            parse_statement("CREATE TABLE t (s VARCHAR(255))").unwrap()
        else {
            panic!()
        };
        assert_eq!(columns[0].data_type, DataType::Varchar);
    }

    // ---- hostile nesting -------------------------------------------------

    /// Every way of nesting an expression: `depth` levels of one shape
    /// around a literal.
    const SHAPES: [&str; 9] = [
        "parentheses",
        "not",
        "minus",
        "plus",
        "abs",
        "cast",
        "add_chain",
        "and_chain",
        "is_null_chain",
    ];

    fn nested(shape: &str, depth: usize) -> String {
        match shape {
            "parentheses" => format!("{}1{}", "(".repeat(depth), ")".repeat(depth)),
            "not" => format!("{}TRUE", "NOT ".repeat(depth)),
            "minus" => format!("{}1", "- ".repeat(depth)),
            "plus" => format!("{}1", "+ ".repeat(depth)),
            "abs" => format!("{}1{}", "ABS(".repeat(depth), ")".repeat(depth)),
            "cast" => format!("{}1{}", "CAST(".repeat(depth), " AS INT)".repeat(depth)),
            "add_chain" => format!("1{}", " + 1".repeat(depth)),
            "and_chain" => format!("TRUE{}", " AND TRUE".repeat(depth)),
            "is_null_chain" => format!("1{}", " IS NOT NULL".repeat(depth)),
            other => unreachable!("unknown shape {other}"),
        }
    }

    fn tree_depth(e: &Expr) -> usize {
        match e {
            Expr::Column(_) | Expr::Literal(_) => 0,
            Expr::Binary { left, right, .. } => 1 + tree_depth(left).max(tree_depth(right)),
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => {
                1 + tree_depth(expr)
            }
            Expr::Function { args, .. } => 1 + args.iter().map(tree_depth).max().unwrap_or(0),
        }
    }

    #[test]
    fn every_shape_nests_up_to_the_bound() {
        for shape in SHAPES {
            let expr = nested(shape, MAX_EXPR_DEPTH);
            let parsed = parse_expression(&expr).unwrap_or_else(|e| panic!("{shape}: {e}"));
            assert!(tree_depth(&parsed) <= MAX_EXPR_DEPTH, "{shape}");
            parse_statement(&format!("SELECT {expr} AS V FROM t WHERE {expr}"))
                .unwrap_or_else(|e| panic!("{shape} in a statement: {e}"));
        }
    }

    #[test]
    fn nesting_past_the_bound_is_a_parse_error() {
        for shape in SHAPES {
            let expr = nested(shape, MAX_EXPR_DEPTH + 1);
            let huge = format!("SELECT {} AS V FROM t", nested(shape, 100_000));
            for sql in [
                format!("SELECT {expr} AS V FROM t"),
                format!("SELECT * FROM t WHERE {expr}"),
                format!("SELECT * FROM TABLE (F({expr})) AS T"),
                huge,
            ] {
                let err = parse_statement(&sql).unwrap_err();
                assert_eq!(err.layer, ErrorLayer::Parse, "{shape}: {err}");
                assert!(
                    err.message.contains("at most 64 levels deep"),
                    "{shape}: {err}"
                );
            }
            assert_eq!(
                parse_expression(&expr).unwrap_err().layer,
                ErrorLayer::Parse,
                "{shape}"
            );
        }
    }

    /// Levels add up across shapes: 32 parentheses around a 32-operator
    /// chain is at the bound, one more operator is past it.
    #[test]
    fn mixed_nesting_counts_every_level() {
        let around = |ops: usize| {
            format!(
                "{}1{}{}",
                "(".repeat(32),
                " + 1".repeat(ops),
                ")".repeat(32)
            )
        };
        assert!(parse_expression(&around(32)).is_ok());
        assert_eq!(
            parse_expression(&around(33)).unwrap_err().layer,
            ErrorLayer::Parse
        );
    }

    /// Whatever nests the shapes at random, an accepted expression is never
    /// deeper than the bound (so binders and evaluators recurse at most that
    /// far), and a rejected one is a parse error. A chain whose first operand
    /// is itself deep is the case a plain nesting counter would miss.
    #[test]
    fn accepted_expressions_are_never_deeper_than_the_bound() {
        fn gen(rng: &mut Rng, budget: &mut usize) -> String {
            if *budget == 0 {
                return "1".to_string();
            }
            *budget -= 1;
            match rng.next_below(8) {
                0 => format!("({})", gen(rng, budget)),
                1 => format!("NOT {}", gen(rng, budget)),
                2 => format!("- {}", gen(rng, budget)),
                3 => format!("ABS({})", gen(rng, budget)),
                4 => format!("CAST({} AS INT)", gen(rng, budget)),
                5 => format!("{} IS NULL", gen(rng, budget)),
                _ => {
                    let mut chain = gen(rng, budget);
                    for _ in 0..rng.next_below(40) {
                        chain.push_str(" + ");
                        chain.push_str(&gen(rng, budget));
                    }
                    chain
                }
            }
        }
        let (mut accepted, mut rejected) = (0, 0);
        for seed in 0..400 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut budget = 20 + rng.next_below(400) as usize;
            let expr = gen(&mut rng, &mut budget);
            match parse_expression(&expr) {
                Ok(parsed) => {
                    accepted += 1;
                    assert!(tree_depth(&parsed) <= MAX_EXPR_DEPTH, "seed {seed}");
                }
                Err(e) => {
                    rejected += 1;
                    assert_eq!(e.layer, ErrorLayer::Parse, "seed {seed}: {e}");
                }
            }
        }
        assert!(
            accepted > 0 && rejected > 0,
            "{accepted} accepted, {rejected} rejected"
        );
    }

    #[test]
    fn explain_of_an_explain_is_a_parse_error() {
        assert!(parse_statement("EXPLAIN SELECT 1").is_ok());
        for sql in [
            "EXPLAIN EXPLAIN SELECT 1".to_string(),
            "EXPLAIN ANALYZE EXPLAIN SELECT 1".to_string(),
            format!("{}SELECT 1", "EXPLAIN ".repeat(100_000)),
        ] {
            let err = parse_statement(&sql).unwrap_err();
            assert_eq!(err.layer, ErrorLayer::Parse, "{err}");
            assert!(err.message.contains("not another EXPLAIN"), "{err}");
        }
    }
}
