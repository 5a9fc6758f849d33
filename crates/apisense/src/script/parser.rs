//! Recursive-descent parser for the task-scripting DSL.

use super::lexer::{Token, TokenKind};
use crate::error::ApisenseError;

/// A parsed program: a sequence of statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Top-level statements, in source order.
    pub statements: Vec<Stmt>,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let name = expr;`
    Let(String, Expr),
    /// `fn name(params) { body }`
    Fn {
        /// Function name.
        name: String,
        /// Parameter names.
        params: Vec<String>,
        /// Body statements.
        body: Vec<Stmt>,
    },
    /// `if (cond) { .. } else { .. }`
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch statements.
        then_branch: Vec<Stmt>,
        /// Else-branch statements (empty when absent).
        else_branch: Vec<Stmt>,
    },
    /// `while (cond) { .. }`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `return expr;` (expression optional).
    Return(Option<Expr>),
    /// A bare expression statement (`expr;` or trailing `expr`).
    Expr(Expr),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+` (numeric addition or string concatenation).
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    And,
    /// `||` (short-circuit)
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// `-`
    Neg,
    /// `!`
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Num(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `null`.
    Null,
    /// Variable reference.
    Ident(String),
    /// List literal.
    List(Vec<Expr>),
    /// Map literal (string keys).
    Map(Vec<(String, Expr)>),
    /// Binary operation.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Member access `expr.name`.
    Member(Box<Expr>, String),
    /// Index access `expr[expr]`.
    Index(Box<Expr>, Box<Expr>),
    /// Call `callee(args)`. The callee is an identifier or member chain.
    Call(Box<Expr>, Vec<Expr>),
    /// Assignment `target = value`; target is an identifier, member or
    /// index expression.
    Assign(Box<Expr>, Box<Expr>),
}

/// How deep expressions, blocks and `else if` chains may nest: every
/// parenthesis, list, map, call argument, index, prefix operator, binary
/// or postfix link, assignment, block and `else if` is one level. The
/// bytecode compiler, the tree-walker and the tree's own drop all recurse
/// over the parsed tree, so a script past this bound — a hostile
/// deployment, say — is a typed [`ApisenseError::Parse`] instead of a
/// stack overflow. Real task scripts stay far below it.
pub const MAX_NESTING: usize = 128;

/// Binary operators with their precedence, loosest `0`; every level is
/// left-associative.
const BINARY_OPS: [(&str, usize, BinaryOp); 13] = [
    ("||", 0, BinaryOp::Or),
    ("&&", 1, BinaryOp::And),
    ("==", 2, BinaryOp::Eq),
    ("!=", 2, BinaryOp::Ne),
    ("<", 3, BinaryOp::Lt),
    ("<=", 3, BinaryOp::Le),
    (">", 3, BinaryOp::Gt),
    (">=", 3, BinaryOp::Ge),
    ("+", 4, BinaryOp::Add),
    ("-", 4, BinaryOp::Sub),
    ("*", 5, BinaryOp::Mul),
    ("/", 5, BinaryOp::Div),
    ("%", 5, BinaryOp::Rem),
];

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current nesting level, bounded by [`MAX_NESTING`].
    depth: usize,
}

/// Parses a token stream into a program.
///
/// # Errors
///
/// Returns [`ApisenseError::Parse`] with a 1-based line number, also for
/// a program nested deeper than [`MAX_NESTING`].
pub fn parse(tokens: Vec<Token>) -> Result<Program, ApisenseError> {
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut statements = Vec::new();
    while !parser.check_eof() {
        statements.push(parser.statement()?);
    }
    Ok(Program { statements })
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn check_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn advance(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        kind
    }

    fn error(&self, message: impl Into<String>) -> ApisenseError {
        ApisenseError::Parse {
            message: message.into(),
            line: self.line(),
        }
    }

    /// Enters one nesting level; the caller restores `depth` when it
    /// leaves (an error abandons the whole parse, so no restore is owed).
    fn nest(&mut self) -> Result<(), ApisenseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        Ok(())
    }

    fn eat_punct(&mut self, p: &str) -> Result<(), ApisenseError> {
        match self.peek() {
            TokenKind::Punct(op) if *op == p => {
                self.advance();
                Ok(())
            }
            other => Err(self.error(format!("expected '{p}', found {other:?}"))),
        }
    }

    fn try_punct(&mut self, p: &str) -> bool {
        match self.peek() {
            TokenKind::Punct(op) if *op == p => {
                self.advance();
                true
            }
            _ => false,
        }
    }

    fn try_keyword(&mut self, kw: &str) -> bool {
        match self.peek() {
            TokenKind::Keyword(k) if *k == kw => {
                self.advance();
                true
            }
            _ => false,
        }
    }

    fn ident(&mut self) -> Result<String, ApisenseError> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.advance();
                Ok(name)
            }
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Stmt, ApisenseError> {
        if self.try_keyword("let") {
            let name = self.ident()?;
            self.eat_punct("=")?;
            let value = self.expression()?;
            self.eat_punct(";")?;
            return Ok(Stmt::Let(name, value));
        }
        if self.try_keyword("fn") {
            let name = self.ident()?;
            self.eat_punct("(")?;
            let mut params = Vec::new();
            if !self.try_punct(")") {
                loop {
                    params.push(self.ident()?);
                    if self.try_punct(")") {
                        break;
                    }
                    self.eat_punct(",")?;
                }
            }
            let body = self.block()?;
            return Ok(Stmt::Fn { name, params, body });
        }
        if self.try_keyword("if") {
            return self.if_statement();
        }
        if self.try_keyword("while") {
            self.eat_punct("(")?;
            let cond = self.expression()?;
            self.eat_punct(")")?;
            let body = self.block()?;
            return Ok(Stmt::While { cond, body });
        }
        if self.try_keyword("return") {
            if self.try_punct(";") {
                return Ok(Stmt::Return(None));
            }
            let value = self.expression()?;
            self.eat_punct(";")?;
            return Ok(Stmt::Return(Some(value)));
        }
        let expr = self.expression()?;
        // Trailing expression without semicolon is allowed at EOF (script
        // result value); otherwise a semicolon is required.
        if !self.try_punct(";")
            && !self.check_eof()
            && !matches!(self.peek(), TokenKind::Punct("}"))
        {
            return Err(self.error("expected ';' after expression"));
        }
        Ok(Stmt::Expr(expr))
    }

    fn if_statement(&mut self) -> Result<Stmt, ApisenseError> {
        self.eat_punct("(")?;
        let cond = self.expression()?;
        self.eat_punct(")")?;
        let then_branch = self.block()?;
        let else_branch = if self.try_keyword("else") {
            if self.try_keyword("if") {
                self.nest()?;
                let chained = self.if_statement()?;
                self.depth -= 1;
                vec![chained]
            } else {
                self.block()?
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ApisenseError> {
        self.eat_punct("{")?;
        self.nest()?;
        let mut statements = Vec::new();
        while !self.try_punct("}") {
            if self.check_eof() {
                return Err(self.error("unterminated block"));
            }
            statements.push(self.statement()?);
        }
        self.depth -= 1;
        Ok(statements)
    }

    fn expression(&mut self) -> Result<Expr, ApisenseError> {
        self.nest()?;
        let expr = self.assignment()?;
        self.depth -= 1;
        Ok(expr)
    }

    fn assignment(&mut self) -> Result<Expr, ApisenseError> {
        let target = self.binary(0)?;
        if self.try_punct("=") {
            match target {
                Expr::Ident(_) | Expr::Member(_, _) | Expr::Index(_, _) => {
                    let value = self.expression()?;
                    Ok(Expr::Assign(Box::new(target), Box::new(value)))
                }
                _ => Err(self.error("invalid assignment target")),
            }
        } else {
            Ok(target)
        }
    }

    /// Binary operators of precedence `min_level` and tighter, by
    /// precedence climbing (one frame per operand, not per level). Each
    /// link nests the tree one level deeper.
    fn binary(&mut self, min_level: usize) -> Result<Expr, ApisenseError> {
        let depth = self.depth;
        let mut left = self.unary()?;
        while let Some(&(_, level, op)) = BINARY_OPS.iter().find(|(p, level, _)| {
            *level >= min_level && matches!(self.peek(), TokenKind::Punct(q) if q == p)
        }) {
            self.advance();
            self.nest()?;
            let right = self.binary(level + 1)?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        self.depth = depth;
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr, ApisenseError> {
        let op = if self.try_punct("-") {
            UnaryOp::Neg
        } else if self.try_punct("!") {
            UnaryOp::Not
        } else {
            return self.postfix();
        };
        self.nest()?;
        let operand = self.unary()?;
        self.depth -= 1;
        Ok(Expr::Unary(op, Box::new(operand)))
    }

    /// Calls, member and index accesses; each link nests the tree one
    /// level deeper.
    fn postfix(&mut self) -> Result<Expr, ApisenseError> {
        let depth = self.depth;
        let mut expr = self.primary()?;
        loop {
            if matches!(self.peek(), TokenKind::Punct("(" | "." | "[")) {
                self.nest()?;
            }
            if self.try_punct("(") {
                let mut args = Vec::new();
                if !self.try_punct(")") {
                    loop {
                        args.push(self.expression()?);
                        if self.try_punct(")") {
                            break;
                        }
                        self.eat_punct(",")?;
                    }
                }
                expr = Expr::Call(Box::new(expr), args);
            } else if self.try_punct(".") {
                let name = self.ident()?;
                expr = Expr::Member(Box::new(expr), name);
            } else if self.try_punct("[") {
                let index = self.expression()?;
                self.eat_punct("]")?;
                expr = Expr::Index(Box::new(expr), Box::new(index));
            } else {
                self.depth = depth;
                return Ok(expr);
            }
        }
    }

    fn primary(&mut self) -> Result<Expr, ApisenseError> {
        match self.peek().clone() {
            TokenKind::Num(n) => {
                self.advance();
                Ok(Expr::Num(n))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::Str(s))
            }
            TokenKind::Keyword("true") => {
                self.advance();
                Ok(Expr::Bool(true))
            }
            TokenKind::Keyword("false") => {
                self.advance();
                Ok(Expr::Bool(false))
            }
            TokenKind::Keyword("null") => {
                self.advance();
                Ok(Expr::Null)
            }
            TokenKind::Ident(name) => {
                self.advance();
                Ok(Expr::Ident(name))
            }
            TokenKind::Punct("(") => {
                self.advance();
                let inner = self.expression()?;
                self.eat_punct(")")?;
                Ok(inner)
            }
            TokenKind::Punct("[") => {
                self.advance();
                let mut items = Vec::new();
                if !self.try_punct("]") {
                    loop {
                        items.push(self.expression()?);
                        if self.try_punct("]") {
                            break;
                        }
                        self.eat_punct(",")?;
                    }
                }
                Ok(Expr::List(items))
            }
            TokenKind::Punct("{") => {
                self.advance();
                let mut entries = Vec::new();
                if !self.try_punct("}") {
                    loop {
                        let key = match self.peek().clone() {
                            TokenKind::Str(s) => {
                                self.advance();
                                s
                            }
                            TokenKind::Ident(s) => {
                                self.advance();
                                s
                            }
                            other => {
                                return Err(
                                    self.error(format!("expected map key, found {other:?}"))
                                )
                            }
                        };
                        self.eat_punct(":")?;
                        let value = self.expression()?;
                        entries.push((key, value));
                        if self.try_punct("}") {
                            break;
                        }
                        self.eat_punct(",")?;
                    }
                }
                Ok(Expr::Map(entries))
            }
            other => Err(self.error(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::lexer::tokenize;
    use super::*;

    fn parse_src(src: &str) -> Program {
        parse(tokenize(src).unwrap()).unwrap()
    }

    fn parse_err(src: &str) -> ApisenseError {
        parse(tokenize(src).unwrap()).unwrap_err()
    }

    #[test]
    fn let_and_expression_statements() {
        let p = parse_src("let x = 1; x + 2;");
        assert_eq!(p.statements.len(), 2);
        assert!(matches!(&p.statements[0], Stmt::Let(name, _) if name == "x"));
        assert!(matches!(
            &p.statements[1],
            Stmt::Expr(Expr::Binary(BinaryOp::Add, _, _))
        ));
    }

    #[test]
    fn operator_precedence() {
        let p = parse_src("1 + 2 * 3;");
        match &p.statements[0] {
            Stmt::Expr(Expr::Binary(BinaryOp::Add, left, right)) => {
                assert_eq!(**left, Expr::Num(1.0));
                assert!(matches!(**right, Expr::Binary(BinaryOp::Mul, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comparison_and_logic() {
        let p = parse_src("a < b && c == d || !e;");
        assert!(matches!(
            &p.statements[0],
            Stmt::Expr(Expr::Binary(BinaryOp::Or, _, _))
        ));
    }

    #[test]
    fn if_else_chain() {
        let p = parse_src("if (a) { 1; } else if (b) { 2; } else { 3; }");
        match &p.statements[0] {
            Stmt::If { else_branch, .. } => {
                assert_eq!(else_branch.len(), 1);
                assert!(matches!(&else_branch[0], Stmt::If { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn while_and_function() {
        let p = parse_src("fn add(a, b) { return a + b; } while (x < 3) { x = x + 1; }");
        assert!(matches!(&p.statements[0], Stmt::Fn { name, params, .. }
            if name == "add" && params.len() == 2));
        assert!(matches!(&p.statements[1], Stmt::While { .. }));
    }

    #[test]
    fn member_call_chain() {
        let p = parse_src("sensor.gps().lat;");
        match &p.statements[0] {
            Stmt::Expr(Expr::Member(call, field)) => {
                assert_eq!(field, "lat");
                assert!(matches!(**call, Expr::Call(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn list_and_map_literals() {
        let p = parse_src(r#"[1, "two", true]; { "a": 1, b: 2 };"#);
        assert!(matches!(&p.statements[0], Stmt::Expr(Expr::List(items)) if items.len() == 3));
        assert!(
            matches!(&p.statements[1], Stmt::Expr(Expr::Map(entries)) if entries.len() == 2)
        );
    }

    #[test]
    fn index_and_assignment() {
        let p = parse_src("xs[0] = 5; m.field = 2;");
        assert!(
            matches!(&p.statements[0], Stmt::Expr(Expr::Assign(target, _))
            if matches!(**target, Expr::Index(_, _)))
        );
        assert!(
            matches!(&p.statements[1], Stmt::Expr(Expr::Assign(target, _))
            if matches!(**target, Expr::Member(_, _)))
        );
    }

    #[test]
    fn trailing_expression_without_semicolon() {
        let p = parse_src("let x = 1; x");
        assert_eq!(p.statements.len(), 2);
    }

    #[test]
    fn invalid_assignment_target() {
        let e = parse_err("1 = 2;");
        assert!(matches!(e, ApisenseError::Parse { .. }));
    }

    #[test]
    fn unterminated_block() {
        let e = parse_err("if (a) { 1;");
        assert!(e.to_string().contains("unterminated block"));
    }

    #[test]
    fn missing_semicolon_between_expressions() {
        let e = parse_err("1 2;");
        assert!(e.to_string().contains("expected ';'"));
    }

    #[test]
    fn error_lines_are_accurate() {
        let e = parse_err("let x = 1;\nlet y = ;\n");
        match e {
            ApisenseError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }
}
