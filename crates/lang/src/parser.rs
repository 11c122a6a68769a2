//! Recursive-descent parser for the KF1 subset.
//!
//! The parser reads each subroutine straight into the resolved tree
//! (the nodes of `resolve.rs`): every name is interned into its
//! subroutine's symbol table as it is read, declarations record what they
//! make of each slot, a `call` resolves against the subroutine headers
//! (read ahead, so a callee may be defined further down), and each closed
//! `doall` and `do` gets the facts its text fixes. The lexer's byte spans
//! go onto every node a diagnostic points at. Errors are [`Diagnostic`]s
//! with line *and* column, a stable `P0xx` code, and a span that renders
//! a caret-underlined excerpt.

use kali_grid::{DimDist, DimMap, DistSpec};

use crate::ast::{BinOp, Program, UnOp};
use crate::diag::{Diagnostic, Span};
use crate::lower::{compile_loop, compile_runs};
use crate::resolve::*;
use crate::token::{lex, SpannedTok, Tok};
use crate::value::Value;

/// Parse errors are ordinary diagnostics (code `P0xx`).
pub type ParseError = Diagnostic;

type PResult<T> = Result<T, Diagnostic>;

/// Parse a KF1 source file into the resolved tree that every later stage
/// — [`crate::analyze`], [`crate::comm_plans`], the interpreter — reads.
/// Resolution is total: a name that denotes nothing still gets a slot.
pub fn parse(src: &str) -> PResult<Program> {
    let toks = lex(src)?;
    let mut p = Parser {
        src,
        heads: headers(&toks),
        toks,
        pos: 0,
        next_site: 0,
        names: Vec::new(),
        decls: Vec::new(),
        declared: Vec::new(),
        depth: 0,
        team_callees: Vec::new(),
    };
    p.program()
}

/// Every subroutine's name and whether it is a `parsub`, in text order:
/// a header is the only line that starts with one of the keywords and a
/// name (a statement that did would not parse).
fn headers(toks: &[SpannedTok]) -> Vec<(String, bool)> {
    let mut line_start = true;
    let mut heads = Vec::new();
    for w in toks.windows(2) {
        if let (true, Tok::Ident(kw), Tok::Ident(name)) = (line_start, &w[0].tok, &w[1].tok) {
            if ["parsub", "subroutine", "sub"].contains(&kw.as_str()) {
                heads.push((name.clone(), kw == "parsub"));
            }
        }
        line_start = w[0].tok == Tok::Eol;
    }
    heads
}

struct Parser<'a> {
    src: &'a str,
    toks: Vec<SpannedTok>,
    pos: usize,
    /// Site-id counter: every `doall` in a parse gets a distinct, stable
    /// id (source order) so the interpreter can cache per-site schedules.
    next_site: usize,
    /// [`headers`]: what a `call` resolves against.
    heads: Vec<(String, bool)>,
    /// The subroutine being read: its symbol table (slot → name), its
    /// declarations, and what they make of each slot.
    names: Vec<String>,
    decls: Vec<RDecl>,
    declared: Vec<Declared>,
    /// How many `doall` bodies enclose the cursor.
    depth: usize,
    /// The subroutines a parallel call inside a doall names.
    team_callees: Vec<usize>,
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

    // ---------- names ----------

    /// The slot of `name` in the subroutine being read, interned on first
    /// sight.
    fn slot(&mut self, name: String) -> Slot {
        let known = self.names.iter().position(|n| *n == name);
        known.unwrap_or_else(|| {
            self.names.push(name);
            self.declared.push(Declared::default());
            self.names.len() - 1
        })
    }

    /// An identifier, interned.
    fn name_slot(&mut self) -> PResult<Slot> {
        let name = self.expect_ident()?;
        Ok(self.slot(name))
    }

    // ---------- top level ----------

    fn program(&mut self) -> PResult<Program> {
        let mut code = Vec::new();
        self.skip_eols();
        while !matches!(self.peek(), Tok::Eof) {
            code.push(self.subroutine()?);
            self.skip_eols();
        }
        // A batch of lines runs a team call's callee.
        let mut lifted = std::mem::take(&mut self.team_callees);
        lifted.sort_unstable();
        lifted.dedup();
        lifted.retain(|&k| code[k].lockstep);
        for k in lifted {
            compile_runs(&mut code[k].body);
        }
        Ok(Program {
            src: self.src.to_string(),
            code,
        })
    }

    fn subroutine(&mut self) -> PResult<RSub> {
        let parallel = if self.eat_ident("parsub") {
            true
        } else if self.eat_ident("subroutine") || self.eat_ident("sub") {
            false
        } else {
            return self.err("expected `parsub` or `subroutine`");
        };
        let name = self.expect_ident()?;
        self.expect_punct("(")?;
        let (params, proc_param) = self.list_and_tail(Self::name_slot, Self::name_slot)?;
        if let Some(pp) = proc_param {
            self.declared[pp].procs = Some(0);
        }
        self.expect_eol()?;
        self.skip_eols();

        // Declarations.
        loop {
            self.skip_eols();
            match self.peek() {
                Tok::Ident(s) if s == "processors" => {
                    self.bump();
                    let pname = self.expect_ident()?;
                    self.expect_punct("(")?;
                    let extents = self.comma_list(Self::expr)?;
                    self.expect_punct(")")?;
                    self.expect_eol()?;
                    let slot = self.slot(pname);
                    self.declared[slot].procs = Some(extents.len());
                    self.decls.push(RDecl::Processors(slot, extents));
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
                        let slot = p.name_slot()?;
                        let mut bounds = Vec::new();
                        if p.eat_punct("(") {
                            bounds = p.comma_list(|p| {
                                let e1 = p.expr()?;
                                Ok(if p.eat_punct(":") {
                                    (e1, p.expr()?)
                                } else {
                                    (RExpr::Const(Value::Int(1), At(e1.span())), e1)
                                })
                            })?;
                            p.expect_punct(")")?;
                        }
                        Ok((slot, bounds))
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
                    for (slot, bounds) in items {
                        if !bounds.is_empty() {
                            self.declared[slot].array = Some(self.decls.len());
                        }
                        let dist = dist.clone();
                        self.decls.push(RDecl::Item {
                            slot,
                            is_real,
                            bounds,
                            dist,
                        });
                    }
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
        let mut sub = RSub {
            name,
            parallel,
            params,
            proc_param,
            names: std::mem::take(&mut self.names),
            decls: std::mem::take(&mut self.decls),
            declared: std::mem::take(&mut self.declared),
            body,
            lockstep: false,
        };
        sub.lockstep = lockstep(&sub);
        Ok(sub)
    }

    // ---------- statements ----------

    /// Parse statements until a terminator. `labels` are loop labels whose
    /// `label continue` ends the block.
    fn block(&mut self, labels: &[u32]) -> PResult<(Vec<RStmt>, BlockEnd)> {
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

    fn statement(&mut self, labels: &[u32]) -> PResult<RStmt> {
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
                Ok(match ret {
                    true => RStmt::Return,
                    // bare continue: no-op statement
                    false => RStmt::If(RExpr::Const(Value::Int(0), At(span)), vec![], vec![]),
                })
            }
            Tok::Ident(_) => self.assign_stmt(),
            other => self.err(format!("unexpected token {other:?} at statement start")),
        }
    }

    fn assign_stmt(&mut self) -> PResult<RStmt> {
        let name_span = self.span();
        let slot = self.name_slot()?;
        let mut subs = None;
        if self.eat_punct("(") {
            subs = Some(self.comma_list(Self::expr)?);
            self.expect_punct(")")?;
        }
        let at = At(name_span.join(self.prev_span()));
        self.expect_punct("=")?;
        let rhs = self.expr()?;
        self.expect_eol()?;
        let flops = rhs.flop_count();
        Ok(match subs {
            None => RStmt::AssignScalar {
                slot,
                rhs,
                flops,
                at,
            },
            Some(subs) => RStmt::AssignElement {
                slot,
                subs,
                rhs,
                flops,
                at,
                run: None,
            },
        })
    }

    fn do_stmt(&mut self, outer: &[u32]) -> PResult<RStmt> {
        let kw_span = self.span();
        self.bump(); // do
        let label = self.loop_label();
        let var = self.name_slot()?;
        self.expect_punct("=")?;
        let (lo, hi, step) = self.range()?;
        let header_span = kw_span.join(self.prev_span());
        self.expect_eol()?;
        let body = self.loop_body(outer, label, header_span, "do loop")?;
        Ok(RStmt::Do {
            kernel: compile_loop(var, step.as_ref(), &body),
            var,
            lo,
            hi,
            step,
            body,
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

    fn distribute_stmt(&mut self) -> PResult<RStmt> {
        let kw_span = self.span();
        self.bump(); // distribute
        let name_span = self.span();
        let slot = self.name_slot()?;
        self.expect_punct("(")?;
        let dist = DistSpec::new(self.comma_list(|p| p.dist_dim("distribute"))?);
        self.expect_punct(")")?;
        let span = kw_span.join(self.prev_span());
        self.expect_eol()?;
        Ok(RStmt::Distribute {
            slot,
            dist,
            at: At(span),
            name_at: At(name_span),
        })
    }

    fn doall_stmt(&mut self, outer: &[u32]) -> PResult<RStmt> {
        let kw_span = self.span();
        self.bump(); // doall
        let site = self.next_site;
        self.next_site += 1;
        let label = self.loop_label();
        let mut vars = Vec::new();
        let mut ranges = Vec::new();
        if self.eat_punct("(") {
            // (i, j) = [l1, h1] * [l2, h2]
            vars.push(self.name_slot()?);
            self.expect_punct(",")?;
            vars.push(self.name_slot()?);
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
            vars.push(self.name_slot()?);
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
        let on = self.proc_expr()?;
        let header_span = kw_span.join(self.prev_span());
        self.expect_eol()?;
        self.depth += 1;
        let body = self.loop_body(outer, label, header_span, "doall")?;
        self.depth -= 1;
        let symbols = (&self.names[..], &self.declared[..]);
        let (at, nested) = (At(header_span), self.depth > 0);
        let d = RDoall::new(site, at, vars, ranges, on, body, nested, symbols);
        Ok(RStmt::Doall(d))
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
    fn range(&mut self) -> PResult<(RExpr, RExpr, Option<RExpr>)> {
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
    ) -> PResult<Vec<RStmt>> {
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
    fn star_subs(&mut self) -> PResult<Vec<Option<RExpr>>> {
        self.comma_list(|p| {
            Ok(if p.eat_punct("*") {
                None
            } else {
                Some(p.expr()?)
            })
        })
    }

    fn if_stmt(&mut self, labels: &[u32]) -> PResult<RStmt> {
        let kw_span = self.span();
        self.bump(); // if
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        let header_span = kw_span.join(self.prev_span());
        let (then_body, else_body) = if self.eat_ident("then") {
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
            (then_body, else_body)
        } else {
            // One-armed logical if: `if (c) stmt`.
            (vec![self.statement(labels)?], vec![])
        };
        Ok(RStmt::If(cond, then_body, else_body))
    }

    fn call_stmt(&mut self) -> PResult<RStmt> {
        self.bump(); // call
        let name_span = self.span();
        let name = self.expect_ident()?;
        self.expect_punct("(")?;
        let (args, on) = self.list_and_tail(Self::call_arg, Self::proc_expr)?;
        self.expect_eol()?;
        let sub = self.heads.iter().position(|(s, _)| *s == name);
        if self.depth > 0 && sub.is_some_and(|k| self.heads[k].1) {
            self.team_callees.extend(sub);
        }
        let callee = match (Builtin::of(&name), sub) {
            (Some(b), _) => Callee::Builtin(b),
            (None, Some(k)) => Callee::Sub(k),
            (None, None) => Callee::Unknown(name),
        };
        Ok(RStmt::Call {
            callee,
            args,
            on,
            at: At(name_span),
            parallel: sub.is_some_and(|k| self.heads[k].1),
        })
    }

    fn proc_expr(&mut self) -> PResult<RProcExpr> {
        let name = self.expect_ident()?;
        if name == "owner" {
            self.expect_punct("(")?;
            let arr = self.name_slot()?;
            self.expect_punct("(")?;
            let subs = self.star_subs()?;
            self.expect_punct(")")?;
            self.expect_punct(")")?;
            return Ok(RProcExpr::Owner(arr, subs));
        }
        let slot = self.slot(name);
        if self.eat_punct("(") {
            let subs = self.star_subs()?;
            self.expect_punct(")")?;
            Ok(RProcExpr::Select(slot, subs))
        } else {
            Ok(RProcExpr::Whole(slot))
        }
    }

    /// One call argument: a section if any subscript is `*` or a range.
    fn call_arg(&mut self) -> PResult<RArg> {
        // Lookahead: IDENT "(" ... with a top-level ":" or "*" inside.
        let ident_paren =
            matches!(self.peek(), Tok::Ident(_)) && matches!(self.peek2(), Tok::Punct("("));
        if !(ident_paren && self.probe_section()) {
            return Ok(RArg::Expr(self.expr()?));
        }
        let name_span = self.span();
        let slot = self.name_slot()?;
        self.bump(); // (
        let subs = self.comma_list(|p| {
            if p.eat_punct("*") {
                return Ok(RSection::All);
            }
            let e1 = p.expr()?;
            Ok(if p.eat_punct(":") {
                RSection::Range(e1, p.expr()?)
            } else {
                RSection::Index(e1)
            })
        })?;
        self.expect_punct(")")?;
        Ok(RArg::Section(slot, subs, At(name_span)))
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

    fn expr(&mut self) -> PResult<RExpr> {
        self.or_expr()
    }

    fn bin(op: BinOp, l: RExpr, r: RExpr) -> RExpr {
        let at = At(l.span().join(r.span()));
        RExpr::Bin(op, Box::new(l), Box::new(r), at)
    }

    fn or_expr(&mut self) -> PResult<RExpr> {
        let mut l = self.and_expr()?;
        while self.eat_punct("||") {
            let r = self.and_expr()?;
            l = Self::bin(BinOp::Or, l, r);
        }
        Ok(l)
    }

    fn and_expr(&mut self) -> PResult<RExpr> {
        let mut l = self.not_expr()?;
        while self.eat_punct("&&") {
            let r = self.not_expr()?;
            l = Self::bin(BinOp::And, l, r);
        }
        Ok(l)
    }

    fn not_expr(&mut self) -> PResult<RExpr> {
        if matches!(self.peek(), Tok::Punct("!")) {
            let op_span = self.span();
            self.bump();
            let e = self.not_expr()?;
            let at = At(op_span.join(e.span()));
            return Ok(RExpr::Un(UnOp::Not, Box::new(e), at));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> PResult<RExpr> {
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

    fn add_expr(&mut self) -> PResult<RExpr> {
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

    fn mul_expr(&mut self) -> PResult<RExpr> {
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

    fn unary_expr(&mut self) -> PResult<RExpr> {
        if matches!(self.peek(), Tok::Punct("-")) {
            let op_span = self.span();
            self.bump();
            let e = self.unary_expr()?;
            let at = At(op_span.join(e.span()));
            return Ok(RExpr::Un(UnOp::Neg, Box::new(e), at));
        }
        if self.eat_punct("+") {
            return self.unary_expr();
        }
        self.primary()
    }

    fn primary(&mut self) -> PResult<RExpr> {
        let start_span = self.span();
        match self.bump() {
            Tok::Int(v) => Ok(RExpr::Const(Value::Int(v), At(start_span))),
            Tok::Real(v) => Ok(RExpr::Const(Value::Real(v), At(start_span))),
            Tok::Punct("(") => {
                let mut e = self.expr()?;
                self.expect_punct(")")?;
                let (RExpr::Const(_, at)
                | RExpr::Var(_, at)
                | RExpr::Un(.., at)
                | RExpr::Bin(.., at)
                | RExpr::Ref(.., at)) = &mut e;
                *at = At(start_span.join(self.prev_span()));
                Ok(e)
            }
            Tok::Ident(name) => {
                let slot = self.slot(name);
                if !self.eat_punct("(") {
                    return Ok(RExpr::Var(slot, At(start_span)));
                }
                // An array element or an intrinsic's value: which one is
                // up to the name's binding when it is evaluated.
                let mut args = Vec::new();
                if !self.eat_punct(")") {
                    args = self.star_subs()?;
                    self.expect_punct(")")?;
                }
                let at = At(start_span.join(self.prev_span()));
                let intrinsic = Intrinsic::of(&self.names[slot]);
                Ok(RExpr::Ref(slot, intrinsic, args, at))
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

    /// The first statement of the first subroutine of `src`, with that
    /// subroutine's symbol table.
    fn first_stmt(src: &str) -> (RStmt, Vec<String>) {
        let mut prog = parse(src).unwrap();
        let sub = prog.code.swap_remove(0);
        (sub.body.into_iter().next().expect("a statement"), sub.names)
    }

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
        assert_eq!(p.code.len(), 1);
        let s = &p.code[0];
        let names = |slots: &[Slot]| {
            slots
                .iter()
                .map(|&k| s.names[k].clone())
                .collect::<Vec<_>>()
        };
        assert!(s.parallel);
        assert_eq!(names(&s.params), ["x", "f", "np"]);
        assert_eq!(names(s.proc_param.as_slice()), ["procs"]);
        // The processors declaration and one item per declared array.
        assert_eq!(s.decls.len(), 3);
        // body: n = ..., do loop, return
        assert_eq!(s.body.len(), 3);
        match &s.body[1] {
            RStmt::Do { var, body, .. } => {
                assert_eq!(s.names[*var], "it");
                match &body[0] {
                    RStmt::Doall(d) => {
                        assert_eq!(names(&d.vars), ["i", "j"]);
                        assert!(matches!(d.on, RProcExpr::Owner(..)));
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
        match first_stmt(src).0 {
            RStmt::Doall(d) => match &d.body[0] {
                RStmt::Call {
                    callee, args, on, ..
                } => {
                    assert!(matches!(callee, Callee::Unknown(n) if n == "tric"));
                    assert_eq!(args.len(), 4);
                    assert!(matches!(&args[0], RArg::Section(..)));
                    assert!(matches!(&args[1], RArg::Section(..)));
                    assert!(matches!(&args[2], RArg::Expr(_)));
                    assert!(matches!(on, Some(RProcExpr::Owner(..))));
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
        assert_eq!(p.code[0].name, "tri");
    }

    #[test]
    fn function_ref_vs_array_ref_is_deferred() {
        let src = "parsub f(a; p)\n  processors p(q)\n  x = mod(3, 2) + a(1)\nend\n";
        let RStmt::AssignScalar { rhs, flops, .. } = first_stmt(src).0 else {
            panic!("expected a scalar assignment");
        };
        assert_eq!(flops, 1.0); // only the +

        // Both are references; only the binding at run time tells an
        // element from an intrinsic's value.
        let RExpr::Bin(_, l, r, _) = rhs else {
            panic!("expected +");
        };
        assert!(matches!(*l, RExpr::Ref(_, Some(Intrinsic::Mod), ..)));
        assert!(matches!(*r, RExpr::Ref(_, None, ..)));
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
        let sites = || {
            let mut out = Vec::new();
            any_stmt(&parse(src).unwrap().code[0].body, &mut |n| {
                if let Node::Stmt(RStmt::Doall(d)) = n {
                    out.push(d.site);
                }
                false
            });
            out
        };
        let first = sites();
        assert_eq!(first.len(), 2);
        assert_ne!(first[0], first[1]);
        // Stable: re-parsing yields the same ids.
        assert_eq!(first, sites());
    }

    #[test]
    fn parses_distribute_statement() {
        let src = "parsub f(a; p)\n  processors p(q)\n  real a(8, 8) dist (block, *)\n  \
                   distribute a (*, cyclic)\nend\n";
        match first_stmt(src) {
            (RStmt::Distribute { slot, dist, .. }, names) => {
                assert_eq!(names[slot], "a");
                assert_eq!(dist, DistSpec::parse("(*, cyclic)").unwrap());
            }
            other => panic!("expected distribute, got {other:?}"),
        }
    }

    #[test]
    fn parses_block_cyclic_dist_clause() {
        let src = "parsub f(a, b; p)\n  processors p(q)\n  real a(12) dist (cyclic(3))\n  \
                   real b(8, 8) dist (cyclic(2), *)\n  distribute a (cyclic(4))\nend\n";
        let prog = parse(src).unwrap();
        let dists: Vec<_> = prog.code[0]
            .decls
            .iter()
            .filter_map(|d| match d {
                RDecl::Item { dist, .. } => dist.clone(),
                _ => None,
            })
            .collect();
        assert_eq!(dists[0], DistSpec::parse("(cyclic(3))").unwrap());
        assert_eq!(dists[1], DistSpec::parse("(cyclic(2), *)").unwrap());
        match &prog.code[0].body[0] {
            RStmt::Distribute { slot, dist, .. } => {
                assert_eq!(prog.code[0].names[*slot], "a");
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
        match first_stmt(src).0 {
            RStmt::If(_, then_body, else_body) => {
                assert_eq!(then_body.len(), 1);
                assert!(else_body.is_empty());
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn ast_nodes_carry_source_spans() {
        let src = "parsub f(a; p)\n  processors p(q)\n  real a(8) dist (block)\n  \
                   doall 100 i = 1, 8 on owner(a(i))\n    a(i) = a(i) + 1.0\n100 continue\nend\n";
        let prog = parse(src).unwrap();
        assert_eq!(prog.src, src);
        let RStmt::Doall(d) = &prog.code[0].body[0] else {
            panic!("expected doall");
        };
        // Doall statement span covers the header line.
        assert_eq!(d.at.0.slice(src), "doall 100 i = 1, 8 on owner(a(i))");
        assert_eq!(d.ranges[0].0.span().slice(src), "1");
        let RStmt::AssignElement { at, rhs, .. } = &d.body[0] else {
            panic!("expected assign");
        };
        assert_eq!(at.0.slice(src), "a(i)");
        assert_eq!(rhs.span().slice(src), "a(i) + 1.0");
        let RExpr::Bin(_, l, r, _) = rhs else {
            panic!("expected bin");
        };
        assert_eq!(l.span().slice(src), "a(i)");
        assert_eq!(r.span().slice(src), "1.0");
    }

    /// A `call` resolves against every subroutine of the file, including
    /// those defined further down, and a header keyword inside a body is
    /// no header.
    #[test]
    fn calls_resolve_forward() {
        let src =
            "parsub t(a; p)\n  processors p(q)\n  call s(a; p)\n  call h(a)\n  call u(a)\nend\n\
                   sub h(a)\nend\nparsub s(a; p)\n  processors p(q)\nend\n";
        let prog = parse(src).unwrap();
        let calls = prog.code[0].body.iter().map(|s| match s {
            RStmt::Call {
                callee, parallel, ..
            } => match callee {
                Callee::Sub(k) => (prog.code[*k].name.as_str(), *parallel),
                _ => ("?", *parallel),
            },
            other => panic!("expected call, got {other:?}"),
        });
        assert_eq!(
            calls.collect::<Vec<_>>(),
            [("s", true), ("h", false), ("?", false)]
        );
    }
}
