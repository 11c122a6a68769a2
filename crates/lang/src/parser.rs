//! Recursive-descent parser for the KF1 subset.
//!
//! The parser threads the lexer's byte spans into every AST node and
//! reports errors as [`Diagnostic`]s with line *and* column, a stable
//! `P0xx` code, and a span that renders a caret-underlined excerpt.

use kali_grid::{DimDist, DimMap, DistSpec};

use crate::ast::*;
use crate::diag::{Diagnostic, Span};
use crate::resolve::resolve;
use crate::token::{lex, SpannedTok, Tok};

/// Parse errors are ordinary diagnostics (code `P0xx`).
pub type ParseError = Diagnostic;

type PResult<T> = Result<T, Diagnostic>;

/// Parse a KF1 source file: lex, parse, and resolve its names. The
/// program carries the resolved tree that every later stage —
/// [`crate::analyze`], [`crate::comm_plans`], the interpreter — reads.
pub fn parse(src: &str) -> PResult<Program> {
    let toks = lex(src)?;
    let mut p = Parser {
        src,
        toks,
        pos: 0,
        next_site: 0,
    };
    p.program()
}

struct Parser<'a> {
    src: &'a str,
    toks: Vec<SpannedTok>,
    pos: usize,
    /// Site-id counter: every `doall` in a parse gets a distinct, stable
    /// id (source order) so the interpreter can cache per-site schedules.
    next_site: usize,
}

/// What ended a statement block.
#[derive(Debug, PartialEq)]
enum BlockEnd {
    End,
    Else,
    Endif,
    LabelContinue(u32),
    EndDo,
}

impl Parser<'_> {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    /// Span of the token at the cursor.
    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    /// Span of the most recently consumed token.
    fn prev_span(&self) -> Span {
        self.toks[self.pos.saturating_sub(1)].span
    }

    /// Consume the token at the cursor. The cursor never moves back, so
    /// the token moves out instead of being copied; the closing `Eof`
    /// stays for every later look.
    fn bump(&mut self) -> Tok {
        if self.pos + 1 == self.toks.len() {
            return Tok::Eof;
        }
        self.pos += 1;
        std::mem::replace(&mut self.toks[self.pos - 1].tok, Tok::Eol)
    }

    /// A syntax error at the current token.
    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(self.diag_at("P001", self.span(), msg))
    }

    /// A syntax error at an explicit span with an explicit code.
    fn diag_at(&self, code: &'static str, span: Span, msg: impl Into<String>) -> Diagnostic {
        Diagnostic::new(code, span, msg, self.src)
    }

    fn expect_punct(&mut self, p: &str) -> PResult<()> {
        match self.bump() {
            Tok::Punct(q) if q == p => Ok(()),
            other => Err(self.diag_at(
                "P001",
                self.prev_span(),
                format!("expected {p:?}, found {other:?}"),
            )),
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> PResult<String> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.diag_at(
                "P001",
                self.prev_span(),
                format!("expected identifier, found {other:?}"),
            )),
        }
    }

    fn eat_ident(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_eol(&mut self) -> PResult<()> {
        match self.bump() {
            Tok::Eol | Tok::Eof => Ok(()),
            other => Err(self.diag_at(
                "P001",
                self.prev_span(),
                format!("expected end of line, found {other:?}"),
            )),
        }
    }

    fn skip_eols(&mut self) {
        while matches!(self.peek(), Tok::Eol) {
            self.bump();
        }
    }

    /// `item, item, ...` — at least one.
    fn comma_list<T>(&mut self, mut item: impl FnMut(&mut Self) -> PResult<T>) -> PResult<Vec<T>> {
        let mut items = vec![item(self)?];
        while self.eat_punct(",") {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// The rest of a `(item, ...; tail)` list after its `(`: a parameter
    /// list with its processor parameter, or call arguments with their
    /// processor expression. Either part may be absent.
    fn list_and_tail<T, U>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> PResult<T>,
        mut tail: impl FnMut(&mut Self) -> PResult<U>,
    ) -> PResult<(Vec<T>, Option<U>)> {
        let mut items = Vec::new();
        if self.eat_punct(")") {
            return Ok((items, None));
        }
        loop {
            if !self.eat_punct(";") {
                items.push(item(self)?);
                if self.eat_punct(",") {
                    continue;
                }
                if !self.eat_punct(";") {
                    self.expect_punct(")")?;
                    return Ok((items, None));
                }
            }
            let tail = tail(self)?;
            self.expect_punct(")")?;
            return Ok((items, Some(tail)));
        }
    }

    // ---------- top level ----------

    fn program(&mut self) -> PResult<Program> {
        let mut subs = Vec::new();
        self.skip_eols();
        while !matches!(self.peek(), Tok::Eof) {
            subs.push(self.subroutine()?);
            self.skip_eols();
        }
        Ok(Program {
            code: resolve(&subs),
            subs,
            src: self.src.to_string(),
        })
    }

    fn subroutine(&mut self) -> PResult<Subroutine> {
        let parallel = if self.eat_ident("parsub") {
            true
        } else if self.eat_ident("subroutine") || self.eat_ident("sub") {
            false
        } else {
            return self.err("expected `parsub` or `subroutine`");
        };
        let name_span = self.span();
        let name = self.expect_ident()?;
        self.expect_punct("(")?;
        let (params, proc_param) = self.list_and_tail(Self::expect_ident, Self::expect_ident)?;
        self.expect_eol()?;
        self.skip_eols();

        // Declarations.
        let mut decls = Vec::new();
        loop {
            self.skip_eols();
            match self.peek() {
                Tok::Ident(s) if s == "processors" => {
                    self.bump();
                    let pname_span = self.span();
                    let pname = self.expect_ident()?;
                    self.expect_punct("(")?;
                    let extents = self.comma_list(Self::expr)?;
                    self.expect_punct(")")?;
                    self.expect_eol()?;
                    decls.push(Decl::Processors {
                        name: pname,
                        name_span: pname_span,
                        extents,
                    });
                }
                Tok::Ident(s) if s == "real" || s == "integer" || s == "dynamic" => {
                    let (dynamic, real) = (s == "dynamic", s == "real");
                    self.bump();
                    let is_real = if dynamic {
                        if self.eat_ident("real") {
                            true
                        } else if self.eat_ident("integer") {
                            false
                        } else {
                            return self.err("expected `real` or `integer` after `dynamic`");
                        }
                    } else {
                        real
                    };
                    let items = self.comma_list(|p| {
                        let name_span = p.span();
                        let name = p.expect_ident()?;
                        let mut dims = Vec::new();
                        if p.eat_punct("(") {
                            dims = p.comma_list(|p| {
                                let e1 = p.expr()?;
                                Ok(if p.eat_punct(":") {
                                    (e1, p.expr()?)
                                } else {
                                    (Expr::int(1, e1.span), e1)
                                })
                            })?;
                            p.expect_punct(")")?;
                        }
                        Ok(DeclItem {
                            name,
                            name_span,
                            dims,
                        })
                    })?;
                    let dist = if self.eat_ident("dist") {
                        self.expect_punct("(")?;
                        let dd = self.comma_list(|p| p.dist_dim("dist clause"))?;
                        self.expect_punct(")")?;
                        Some(DistSpec::new(dd))
                    } else {
                        None
                    };
                    self.expect_eol()?;
                    decls.push(Decl::Arrays {
                        is_real,
                        dynamic,
                        items,
                        dist,
                    });
                }
                _ => break,
            }
        }

        // Body.
        let (body, end) = self.block(&[])?;
        if end != BlockEnd::End {
            return Err(self.diag_at(
                "P003",
                self.prev_span(),
                format!("subroutine {name} not terminated by `end`"),
            ));
        }
        Ok(Subroutine {
            name,
            name_span,
            parallel,
            params,
            proc_param,
            decls,
            body,
        })
    }

    // ---------- statements ----------

    /// Parse statements until a terminator. `labels` are loop labels whose
    /// `label continue` ends the block.
    fn block(&mut self, labels: &[u32]) -> PResult<(Vec<Stmt>, BlockEnd)> {
        let mut stmts = Vec::new();
        loop {
            self.skip_eols();
            let end = match self.peek() {
                Tok::Ident(s) if s == "end" => Some(BlockEnd::End),
                Tok::Ident(s) if s == "else" => Some(BlockEnd::Else),
                Tok::Ident(s) if s == "endif" => Some(BlockEnd::Endif),
                Tok::Ident(s) if s == "enddo" => Some(BlockEnd::EndDo),
                _ => None,
            };
            if let Some(end) = end {
                self.bump();
                self.expect_eol()?;
                return Ok((stmts, end));
            }
            match *self.peek() {
                Tok::Eof => return self.err("unexpected end of file inside a block"),
                Tok::Label(n) => {
                    // `label continue` may terminate one of our loops.
                    if labels.contains(&n)
                        && matches!(self.peek2(), Tok::Ident(s) if s == "continue")
                    {
                        self.bump();
                        self.bump();
                        self.expect_eol()?;
                        return Ok((stmts, BlockEnd::LabelContinue(n)));
                    }
                    // Otherwise: a labelled statement (we only allow continue).
                    self.bump();
                    if self.eat_ident("continue") {
                        self.expect_eol()?;
                        continue;
                    }
                    return self.err("only `continue` may carry a label here");
                }
                _ => stmts.push(self.statement(labels)?),
            }
        }
    }

    fn statement(&mut self, labels: &[u32]) -> PResult<Stmt> {
        match self.peek() {
            Tok::Ident(s) if s == "do" => self.do_stmt(labels),
            Tok::Ident(s) if s == "doall" => self.doall_stmt(labels),
            Tok::Ident(s) if s == "if" => self.if_stmt(labels),
            Tok::Ident(s) if s == "call" => self.call_stmt(),
            Tok::Ident(s) if s == "distribute" => self.distribute_stmt(),
            Tok::Ident(s) if s == "return" || s == "continue" => {
                let ret = s == "return";
                let span = self.span();
                self.bump();
                self.expect_eol()?;
                let kind = match ret {
                    true => StmtKind::Return,
                    // bare continue: no-op statement
                    false => StmtKind::If {
                        cond: Expr::int(0, span),
                        then_body: vec![],
                        else_body: vec![],
                    },
                };
                Ok(Stmt { kind, span })
            }
            Tok::Ident(_) => self.assign_stmt(),
            other => self.err(format!("unexpected token {other:?} at statement start")),
        }
    }

    fn assign_stmt(&mut self) -> PResult<Stmt> {
        let name_span = self.span();
        let name = self.expect_ident()?;
        let lhs = if self.eat_punct("(") {
            let subs = self.comma_list(Self::expr)?;
            self.expect_punct(")")?;
            LValue {
                kind: LValueKind::Element { name, subs },
                span: name_span.join(self.prev_span()),
            }
        } else {
            LValue {
                kind: LValueKind::Scalar(name),
                span: name_span,
            }
        };
        self.expect_punct("=")?;
        let rhs = self.expr()?;
        self.expect_eol()?;
        let span = lhs.span.join(rhs.span);
        Ok(Stmt {
            kind: StmtKind::Assign { lhs, rhs },
            span,
        })
    }

    fn do_stmt(&mut self, outer: &[u32]) -> PResult<Stmt> {
        let kw_span = self.span();
        self.bump(); // do
        let label = self.loop_label();
        let var = self.expect_ident()?;
        self.expect_punct("=")?;
        let (lo, hi, step) = self.range()?;
        let header_span = kw_span.join(self.prev_span());
        self.expect_eol()?;
        let body = self.loop_body(outer, label, header_span, "do loop")?;
        Ok(Stmt {
            kind: StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body,
            },
            span: header_span,
        })
    }

    /// One entry of a `dist (...)` / `distribute a (...)` clause:
    /// `block`, `cyclic`, `cyclic(k)` or `*`.
    fn dist_dim(&mut self, context: &str) -> PResult<DimMap> {
        if self.eat_punct("*") {
            Ok(DimMap::Local)
        } else if self.eat_ident("block") {
            Ok(DimMap::Dist(DimDist::Block))
        } else if self.eat_ident("cyclic") {
            if self.eat_punct("(") {
                let ksp = self.span();
                let Tok::Int(k) = self.bump() else {
                    return Err(self.diag_at(
                        "P002",
                        ksp,
                        format!("cyclic(k) needs an integer block size in {context}"),
                    ));
                };
                if k < 1 {
                    return Err(self.diag_at(
                        "P002",
                        ksp,
                        format!("cyclic({k}): block size must be positive"),
                    ));
                }
                self.expect_punct(")")?;
                Ok(DimMap::Dist(DimDist::BlockCyclic(k as usize)))
            } else {
                Ok(DimMap::Dist(DimDist::Cyclic))
            }
        } else {
            Err(self.diag_at(
                "P002",
                self.span(),
                format!("expected block, cyclic, cyclic(k) or * in {context}"),
            ))
        }
    }

    fn distribute_stmt(&mut self) -> PResult<Stmt> {
        let kw_span = self.span();
        self.bump(); // distribute
        let name_span = self.span();
        let name = self.expect_ident()?;
        self.expect_punct("(")?;
        let dist = DistSpec::new(self.comma_list(|p| p.dist_dim("distribute"))?);
        self.expect_punct(")")?;
        let span = kw_span.join(self.prev_span());
        self.expect_eol()?;
        Ok(Stmt {
            kind: StmtKind::Distribute {
                name,
                name_span,
                dist,
            },
            span,
        })
    }

    fn doall_stmt(&mut self, outer: &[u32]) -> PResult<Stmt> {
        let kw_span = self.span();
        self.bump(); // doall
        let site = self.next_site;
        self.next_site += 1;
        let label = self.loop_label();
        let mut vars = Vec::new();
        let mut ranges = Vec::new();
        if self.eat_punct("(") {
            // (i, j) = [l1, h1] * [l2, h2]
            vars.push(self.expect_ident()?);
            self.expect_punct(",")?;
            vars.push(self.expect_ident()?);
            self.expect_punct(")")?;
            self.expect_punct("=")?;
            for d in 0..2 {
                self.expect_punct("[")?;
                ranges.push(self.range()?);
                self.expect_punct("]")?;
                if d == 0 {
                    self.expect_punct("*")?;
                }
            }
        } else {
            vars.push(self.expect_ident()?);
            self.expect_punct("=")?;
            ranges.push(self.range()?);
        }
        if !self.eat_ident("on") {
            return Err(self.diag_at(
                "P004",
                kw_span.join(self.span()),
                "doall requires an `on` clause",
            ));
        }
        // `on owner(a(...))`, `on procs(...)`: a processor expression.
        let on = match self.proc_expr()? {
            ProcExpr::Owner { array, subs } => OnClause::Owner { array, subs },
            pe => OnClause::Procs(pe),
        };
        let header_span = kw_span.join(self.prev_span());
        self.expect_eol()?;
        let body = self.loop_body(outer, label, header_span, "doall")?;
        Ok(Stmt {
            kind: StmtKind::Doall {
                site,
                vars,
                ranges,
                on,
                body,
            },
            span: header_span,
        })
    }

    /// The label of a `do`/`doall`, if it has one.
    fn loop_label(&mut self) -> Option<u32> {
        let &Tok::Int(n) = self.peek() else {
            return None;
        };
        self.bump();
        Some(n as u32)
    }

    /// `lo, hi[, step]`.
    fn range(&mut self) -> PResult<(Expr, Expr, Option<Expr>)> {
        let lo = self.expr()?;
        self.expect_punct(",")?;
        let hi = self.expr()?;
        let step = if self.eat_punct(",") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok((lo, hi, step))
    }

    /// A loop body, closed by `label continue` or, unlabelled, by
    /// `enddo`. `what` names the loop in the error.
    fn loop_body(
        &mut self,
        outer: &[u32],
        label: Option<u32>,
        header_span: Span,
        what: &str,
    ) -> PResult<Vec<Stmt>> {
        let labels: Vec<u32> = outer.iter().copied().chain(label).collect();
        match (label, self.block(&labels)?) {
            (Some(l), (body, BlockEnd::LabelContinue(m))) if l == m => Ok(body),
            (None, (body, BlockEnd::EndDo)) => Ok(body),
            (_, (_, e)) => {
                Err(self.diag_at("P003", header_span, format!("{what} terminated by {e:?}")))
            }
        }
    }

    /// Subscript list allowing `*`: returns None for starred positions.
    fn star_subs(&mut self) -> PResult<Vec<Option<Expr>>> {
        self.comma_list(|p| {
            Ok(if p.eat_punct("*") {
                None
            } else {
                Some(p.expr()?)
            })
        })
    }

    fn if_stmt(&mut self, labels: &[u32]) -> PResult<Stmt> {
        let kw_span = self.span();
        self.bump(); // if
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        let header_span = kw_span.join(self.prev_span());
        let (then_body, else_body, span) = if self.eat_ident("then") {
            self.expect_eol()?;
            let (then_body, end) = self.block(labels)?;
            let else_body = match end {
                BlockEnd::Endif => vec![],
                BlockEnd::Else => {
                    let (else_body, end2) = self.block(labels)?;
                    if end2 != BlockEnd::Endif {
                        return self.err("else block must end with endif");
                    }
                    else_body
                }
                e => {
                    let msg = format!("if block terminated by {e:?}");
                    return Err(self.diag_at("P003", header_span, msg));
                }
            };
            (then_body, else_body, header_span)
        } else {
            // One-armed logical if: `if (c) stmt`.
            let st = self.statement(labels)?;
            let span = header_span.join(st.span);
            (vec![st], vec![], span)
        };
        Ok(Stmt {
            kind: StmtKind::If {
                cond,
                then_body,
                else_body,
            },
            span,
        })
    }

    fn call_stmt(&mut self) -> PResult<Stmt> {
        let kw_span = self.span();
        self.bump(); // call
        let name_span = self.span();
        let name = self.expect_ident()?;
        self.expect_punct("(")?;
        let (args, on) = self.list_and_tail(Self::call_arg, Self::proc_expr)?;
        let span = kw_span.join(self.prev_span());
        self.expect_eol()?;
        Ok(Stmt {
            kind: StmtKind::Call {
                name,
                name_span,
                args,
                on,
            },
            span,
        })
    }

    fn proc_expr(&mut self) -> PResult<ProcExpr> {
        let name = self.expect_ident()?;
        if name == "owner" {
            self.expect_punct("(")?;
            let arr = self.expect_ident()?;
            self.expect_punct("(")?;
            let subs = self.star_subs()?;
            self.expect_punct(")")?;
            self.expect_punct(")")?;
            Ok(ProcExpr::Owner { array: arr, subs })
        } else if self.eat_punct("(") {
            let subs = self.star_subs()?;
            self.expect_punct(")")?;
            Ok(ProcExpr::Select { name, subs })
        } else {
            Ok(ProcExpr::Whole(name))
        }
    }

    /// One call argument: a section if any subscript is `*` or a range.
    fn call_arg(&mut self) -> PResult<Arg> {
        // Lookahead: IDENT "(" ... with a top-level ":" or "*" inside.
        let ident_paren =
            matches!(self.peek(), Tok::Ident(_)) && matches!(self.peek2(), Tok::Punct("("));
        if !(ident_paren && self.probe_section()) {
            return Ok(Arg::Expr(self.expr()?));
        }
        let name_span = self.span();
        let name = self.expect_ident()?;
        self.bump(); // (
        let subs = self.comma_list(|p| {
            if p.eat_punct("*") {
                return Ok(Section::All);
            }
            let e1 = p.expr()?;
            Ok(if p.eat_punct(":") {
                Section::Range(e1, p.expr()?)
            } else {
                Section::Index(e1)
            })
        })?;
        self.expect_punct(")")?;
        Ok(Arg::Section {
            name,
            name_span,
            subs,
        })
    }

    /// Does the parenthesized group starting at peek2 contain a top-level
    /// `:` or a bare `*` (i.e., `*` adjacent to `(`/`,`/`)`)?
    fn probe_section(&self) -> bool {
        let mut i = self.pos + 1; // at "("
        let mut depth = 0usize;
        let mut prev_open = true;
        loop {
            match &self.toks.get(i).map(|t| &t.tok) {
                Some(Tok::Punct("(")) => {
                    depth += 1;
                    prev_open = true;
                }
                Some(Tok::Punct(")")) => {
                    if depth == 0 {
                        return false;
                    }
                    depth -= 1;
                    if depth == 0 {
                        return false;
                    }
                    prev_open = false;
                }
                Some(Tok::Punct(":")) if depth == 1 => return true,
                Some(Tok::Punct("*")) if depth == 1 && prev_open => return true,
                Some(Tok::Punct(",")) => prev_open = depth == 1,
                Some(Tok::Eol) | Some(Tok::Eof) | None => return false,
                _ => prev_open = false,
            }
            i += 1;
        }
    }

    // ---------- expressions ----------

    fn expr(&mut self) -> PResult<Expr> {
        self.or_expr()
    }

    fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        let span = l.span.join(r.span);
        Expr::new(
            ExprKind::Bin {
                op,
                l: Box::new(l),
                r: Box::new(r),
            },
            span,
        )
    }

    fn or_expr(&mut self) -> PResult<Expr> {
        let mut l = self.and_expr()?;
        while self.eat_punct("||") {
            let r = self.and_expr()?;
            l = Self::bin(BinOp::Or, l, r);
        }
        Ok(l)
    }

    fn and_expr(&mut self) -> PResult<Expr> {
        let mut l = self.not_expr()?;
        while self.eat_punct("&&") {
            let r = self.not_expr()?;
            l = Self::bin(BinOp::And, l, r);
        }
        Ok(l)
    }

    fn not_expr(&mut self) -> PResult<Expr> {
        if matches!(self.peek(), Tok::Punct("!")) {
            let op_span = self.span();
            self.bump();
            let e = self.not_expr()?;
            let span = op_span.join(e.span);
            return Ok(Expr::new(
                ExprKind::Un {
                    op: UnOp::Not,
                    e: Box::new(e),
                },
                span,
            ));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> PResult<Expr> {
        let l = self.add_expr()?;
        let op = match self.peek() {
            Tok::Punct("==") => Some(BinOp::Eq),
            Tok::Punct("/=") => Some(BinOp::Ne),
            Tok::Punct("<") => Some(BinOp::Lt),
            Tok::Punct("<=") => Some(BinOp::Le),
            Tok::Punct(">") => Some(BinOp::Gt),
            Tok::Punct(">=") => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let r = self.add_expr()?;
            return Ok(Self::bin(op, l, r));
        }
        Ok(l)
    }

    fn add_expr(&mut self) -> PResult<Expr> {
        let mut l = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Punct("+") => Some(BinOp::Add),
                Tok::Punct("-") => Some(BinOp::Sub),
                _ => None,
            };
            let Some(op) = op else { break };
            self.bump();
            let r = self.mul_expr()?;
            l = Self::bin(op, l, r);
        }
        Ok(l)
    }

    fn mul_expr(&mut self) -> PResult<Expr> {
        let mut l = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Punct("*") => Some(BinOp::Mul),
                Tok::Punct("/") => Some(BinOp::Div),
                Tok::Punct("%") => Some(BinOp::Rem),
                _ => None,
            };
            let Some(op) = op else { break };
            self.bump();
            let r = self.unary_expr()?;
            l = Self::bin(op, l, r);
        }
        Ok(l)
    }

    fn unary_expr(&mut self) -> PResult<Expr> {
        if matches!(self.peek(), Tok::Punct("-")) {
            let op_span = self.span();
            self.bump();
            let e = self.unary_expr()?;
            let span = op_span.join(e.span);
            return Ok(Expr::new(
                ExprKind::Un {
                    op: UnOp::Neg,
                    e: Box::new(e),
                },
                span,
            ));
        }
        if self.eat_punct("+") {
            return self.unary_expr();
        }
        self.primary()
    }

    fn primary(&mut self) -> PResult<Expr> {
        let start_span = self.span();
        match self.bump() {
            Tok::Int(v) => Ok(Expr::new(ExprKind::Int(v), start_span)),
            Tok::Real(v) => Ok(Expr::new(ExprKind::Real(v), start_span)),
            Tok::Punct("(") => {
                let mut e = self.expr()?;
                self.expect_punct(")")?;
                e.span = start_span.join(self.prev_span());
                Ok(e)
            }
            Tok::Ident(name) => {
                if self.eat_punct("(") {
                    let mut args = Vec::new();
                    if !self.eat_punct(")") {
                        let subs = self.star_subs()?.into_iter();
                        args = subs.map(|s| s.map_or(RefArg::Star, RefArg::Expr)).collect();
                        self.expect_punct(")")?;
                    }
                    Ok(Expr::new(
                        ExprKind::Ref { name, args },
                        start_span.join(self.prev_span()),
                    ))
                } else {
                    Ok(Expr::new(ExprKind::Var(name), start_span))
                }
            }
            other => Err(self.diag_at(
                "P001",
                start_span,
                format!("unexpected token {other:?} in expression"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_listing3_skeleton() {
        let src = r#"
parsub jacobi(x, f, np; procs)
  processors procs(p, p)
  real x(0:np, 0:np), f(0:np, 0:np) dist (block, block)
  n = np - 1
  do 1000 it = 1, 50
    doall 100 (i, j) = [1, n] * [1, n] on owner(x(i, j))
      x(i, j) = 0.25*(x(i+1, j) + x(i-1, j) + x(i, j+1) + x(i, j-1)) - f(i, j)
100 continue
1000 continue
  return
end
"#;
        let p = parse(src).unwrap();
        assert_eq!(p.subs.len(), 1);
        let s = &p.subs[0];
        assert!(s.parallel);
        assert_eq!(s.params, vec!["x", "f", "np"]);
        assert_eq!(s.proc_param.as_deref(), Some("procs"));
        assert_eq!(s.decls.len(), 2);
        // body: n = ..., do loop, return
        assert_eq!(s.body.len(), 3);
        match &s.body[1].kind {
            StmtKind::Do { var, body, .. } => {
                assert_eq!(var, "it");
                match &body[0].kind {
                    StmtKind::Doall { vars, on, .. } => {
                        assert_eq!(vars, &["i", "j"]);
                        assert!(matches!(on, OnClause::Owner { .. }));
                    }
                    other => panic!("expected doall, got {other:?}"),
                }
            }
            other => panic!("expected do, got {other:?}"),
        }
    }

    #[test]
    fn parses_call_with_sections_and_procslice() {
        let src = r#"
parsub adi(u, r; procs)
  processors procs(px, py)
  real u(0:8, 0:8), r(0:8, 0:8) dist (block, block)
  doall 100 i = 1, 7 on owner(r(i, *))
    call tric(u(i, *), r(i, 1:7), 2.0, 8; owner(r(i, *)))
100 continue
end
"#;
        let p = parse(src).unwrap();
        match &p.subs[0].body[0].kind {
            StmtKind::Doall { body, .. } => match &body[0].kind {
                StmtKind::Call { name, args, on, .. } => {
                    assert_eq!(name, "tric");
                    assert_eq!(args.len(), 4);
                    assert!(matches!(&args[0], Arg::Section { .. }));
                    assert!(matches!(&args[1], Arg::Section { .. }));
                    assert!(matches!(&args[2], Arg::Expr(_)));
                    assert!(matches!(on, Some(ProcExpr::Owner { .. })));
                }
                other => panic!("expected call, got {other:?}"),
            },
            other => panic!("expected doall, got {other:?}"),
        }
    }

    #[test]
    fn parses_if_else_and_intrinsics() {
        let src = r#"
parsub tri(b; procs)
  processors procs(p)
  real b(64) dist (block)
  integer lo, hi, step
  k = log2(p)
  do 1000 step = 1, k
    if (step .eq. 1) then
      doall 100 ip = 1, p on procs(ip)
        lo = lower(b, procs(ip))
        hi = upper(b, procs(ip))
100   continue
    else
      x = 2
    endif
1000 continue
end
"#;
        let p = parse(src).unwrap();
        assert_eq!(p.subs[0].name, "tri");
    }

    #[test]
    fn function_ref_vs_array_ref_is_deferred() {
        let src = "parsub f(a; p)\n  processors p(q)\n  x = mod(3, 2) + a(1)\nend\n";
        let prog = parse(src).unwrap();
        match &prog.subs[0].body[0].kind {
            StmtKind::Assign { rhs, .. } => {
                assert_eq!(rhs.flop_count(), 1.0); // only the +
            }
            _ => panic!(),
        }
    }

    #[test]
    fn doall_sites_are_distinct_and_stable() {
        let src = r#"
parsub two(a; p)
  processors p(q)
  real a(8) dist (block)
  doall 100 i = 1, 8 on owner(a(i))
    a(i) = 1.0
100 continue
  doall 200 i = 1, 8 on owner(a(i))
    a(i) = 2.0
200 continue
end
"#;
        let mut sites = Vec::new();
        fn collect(body: &[Stmt], out: &mut Vec<usize>) {
            for s in body {
                if let StmtKind::Doall { site, body, .. } = &s.kind {
                    out.push(*site);
                    collect(body, out);
                }
            }
        }
        collect(&parse(src).unwrap().subs[0].body, &mut sites);
        assert_eq!(sites.len(), 2);
        assert_ne!(sites[0], sites[1]);
        // Stable: re-parsing yields the same ids.
        let mut again = Vec::new();
        collect(&parse(src).unwrap().subs[0].body, &mut again);
        assert_eq!(sites, again);
    }

    #[test]
    fn parses_distribute_statement() {
        let src = "parsub f(a; p)\n  processors p(q)\n  real a(8, 8) dist (block, *)\n  \
                   distribute a (*, cyclic)\nend\n";
        let prog = parse(src).unwrap();
        match &prog.subs[0].body[0].kind {
            StmtKind::Distribute { name, dist, .. } => {
                assert_eq!(name, "a");
                assert_eq!(dist, &DistSpec::parse("(*, cyclic)").unwrap());
            }
            other => panic!("expected distribute, got {other:?}"),
        }
    }

    #[test]
    fn parses_block_cyclic_dist_clause() {
        let src = "parsub f(a, b; p)\n  processors p(q)\n  real a(12) dist (cyclic(3))\n  \
                   real b(8, 8) dist (cyclic(2), *)\n  distribute a (cyclic(4))\nend\n";
        let prog = parse(src).unwrap();
        let dists: Vec<_> = prog.subs[0]
            .decls
            .iter()
            .filter_map(|d| match d {
                Decl::Arrays { dist, .. } => dist.clone(),
                _ => None,
            })
            .collect();
        assert_eq!(dists[0], DistSpec::parse("(cyclic(3))").unwrap());
        assert_eq!(dists[1], DistSpec::parse("(cyclic(2), *)").unwrap());
        match &prog.subs[0].body[0].kind {
            StmtKind::Distribute { name, dist, .. } => {
                assert_eq!(name, "a");
                assert_eq!(dist, &DistSpec::parse("(cyclic(4))").unwrap());
            }
            other => panic!("expected distribute, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_block_cyclic_sizes() {
        for clause in ["cyclic(0)", "cyclic(x)", "cyclic(-2)"] {
            let src =
                format!("parsub f(a; p)\n  processors p(q)\n  real a(8) dist ({clause})\nend\n");
            let err = parse(&src).expect_err(&format!("{clause} must be rejected"));
            assert_eq!(err.code, "P002", "{clause}");
        }
    }

    #[test]
    fn reports_error_with_line() {
        let src = "parsub f(a; p)\n  processors p(q)\n  x = = 3\nend\n";
        let err = parse(src).unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn reports_error_with_column_and_span() {
        let src = "parsub f(a; p)\n  processors p(q)\n  x = = 3\nend\n";
        let err = parse(src).unwrap_err();
        assert_eq!((err.line, err.col), (3, 7));
        assert_eq!(err.span.slice(src), "=");
        let rendered = err.render(src);
        assert!(rendered.contains("3 |   x = = 3"), "{rendered}");
        assert!(rendered.contains("  |       ^"), "{rendered}");
    }

    #[test]
    fn one_armed_if() {
        let src = "parsub f(a; p)\n  processors p(q)\n  if (a > 1) x = 2\nend\n";
        let prog = parse(src).unwrap();
        match &prog.subs[0].body[0].kind {
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                assert_eq!(then_body.len(), 1);
                assert!(else_body.is_empty());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn ast_nodes_carry_source_spans() {
        let src = "parsub f(a; p)\n  processors p(q)\n  real a(8) dist (block)\n  \
                   doall 100 i = 1, 8 on owner(a(i))\n    a(i) = a(i) + 1.0\n100 continue\nend\n";
        let prog = parse(src).unwrap();
        assert_eq!(prog.src, src);
        let sub = &prog.subs[0];
        assert_eq!(sub.name_span.slice(src), "f");
        let StmtKind::Doall { body, ranges, .. } = &sub.body[0].kind else {
            panic!("expected doall");
        };
        // Doall statement span covers the header line.
        assert_eq!(
            sub.body[0].span.slice(src),
            "doall 100 i = 1, 8 on owner(a(i))"
        );
        assert_eq!(ranges[0].0.span.slice(src), "1");
        let StmtKind::Assign { lhs, rhs } = &body[0].kind else {
            panic!("expected assign");
        };
        assert_eq!(lhs.span.slice(src), "a(i)");
        assert_eq!(rhs.span.slice(src), "a(i) + 1.0");
        let ExprKind::Bin { l, r, .. } = &rhs.kind else {
            panic!("expected bin");
        };
        assert_eq!(l.span.slice(src), "a(i)");
        assert_eq!(r.span.slice(src), "1.0");
    }
}
