//! Compile-time semantic analysis of KF1 programs.
//!
//! The paper's central claim is that the KF1 *source* carries enough
//! information — distributions in declarations, owner-computes `on`
//! clauses, explicitly parallel `doall` bodies — for a compiler to
//! reason about a program's parallel behaviour before it runs. This
//! module is that compiler pass, in two halves, both reading the
//! resolved tree [`crate::parse`] builds: names are slots, what the
//! declarations make of a name is indexed by its slot, and which
//! intrinsic, builtin or subroutine a reference denotes was decided once,
//! by the parser.
//!
//! **Diagnostics** ([`analyze`]): semantic checks over the resolved
//! statements, each returning a span-carrying [`Diagnostic`] with a
//! stable `A0xx` code:
//!
//! | code | pass | paper claim it guards |
//! |------|------|-----------------------|
//! | `A001` | undeclared arrays / unknown callees | all data layout is declared; a subscripted name with no declaration has no ownership, so no communication can be derived for it |
//! | `A002` | arity of intrinsics, builtins and `parsub` calls | calls carry data and processor arguments positionally |
//! | `A003` | rank misuse (subscript/section/owner rank mismatches, arrays used as scalars) | the declared rank fixes the index space the distribution maps to processors |
//! | `A004` | constant subscripts outside constant declared bounds | bounds are part of the declaration, so constant references are checkable statically |
//! | `A005` | provably non-owned writes under the declared distribution | owner-computes: every write in a `doall` must land on the executing processor |
//! | `A006` | rank-dependent control flow guarding a collective | `doall`s, `distribute`s and parallel calls are collective; guarding one with a distributed-element read diverges the SPMD replica |
//! | `A007` | dead / shadowed `distribute` statements | a redistribution no one reads before the next one only invalidates schedules and moves data for nothing |
//! | `A008` | a `doall`'s subscript, section bound, `if` condition or `do` bound reading an element offset from the one the iteration owns | runtime resolution inspects before it exchanges: a value that steers communication must be local, or the inspector decides from a stale copy |
//!
//! `A005`, `A006` and `A008` are deliberately conservative: they fire
//! only on *provable* cases (constant processor selections,
//! same-distribution constant-offset writes and reads), under the
//! standing assumption that the processor array has at least two
//! processors — the degenerate single-processor machine owns everything
//! and can violate nothing.
//!
//! **Static communication plans** ([`comm_plans`]): for `doall`s whose
//! bodies are pure element assignments with subscript expressions free
//! of array references (the affine-stencil class: Jacobi sweeps,
//! shifts, residuals), the parser records a plan on the `doall` node —
//! the compile-time equivalent of the inspector's `CommSchedule` — and
//! [`comm_plans`] reports it as a [`StaticCommPlan`]: the array of every
//! element *read* the body performs, in evaluation order. Inspecting such
//! a body reads no array value, so every processor can run every team
//! member's inspector without communicating and pre-seed the schedule
//! cache (`kali_sched::ScheduleCache::seed`): an analyzable `doall`'s
//! cold trip replays instead of inspecting — the paper's observation that
//! for loops whose communication pattern is statically analyzable the
//! inspector adds no information, made executable.

use std::collections::HashMap;
use std::slice;

use kali_grid::DimMap;

use crate::ast::{BinOp, Program, UnOp};
use crate::diag::{Diagnostic, Span};
use crate::resolve::*;
use crate::value::Value;

/// One array-element read of an analyzable `doall` body, in body
/// evaluation order.
#[derive(Debug, Clone)]
pub struct StaticRead {
    /// The array read.
    pub name: String,
}

/// A compile-time communication plan for one `doall` site: the complete
/// list of element reads its body performs per iteration. Its inspection
/// is a function of SPMD-uniform data, so the interpreter can seed the
/// schedule cache before the loop's first trip.
#[derive(Debug, Clone)]
pub struct StaticCommPlan {
    /// The `doall`'s parser-assigned site id (the schedule-cache index).
    pub site: usize,
    /// Name of the subroutine the `doall` lives in.
    pub subroutine: String,
    /// Every element read of one iteration, in evaluation order.
    pub reads: Vec<StaticRead>,
}

/// Run every semantic pass over `prog`; diagnostics come back in source
/// order (lexicographic by span start).
pub fn analyze(prog: &Program) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for sub in &prog.code {
        let mut c = Checker {
            prog,
            sub,
            diags,
            doall: None,
            steers: false,
        };
        c.stmts(&sub.body);
        c.shadowed_distributes(&sub.body);
        diags = c.diags;
    }
    diags.sort_by_key(|d| (d.span.lo, d.span.hi));
    diags
}

/// The [`StaticCommPlan`] of every analyzable `doall` in `prog`, keyed by
/// site id. A site with no entry is not analyzable (calls, nested loops,
/// scalar assignments, or array-valued subscripts in its body) and falls
/// back to the runtime inspector.
pub fn comm_plans(prog: &Program) -> HashMap<usize, StaticCommPlan> {
    let mut plans = HashMap::new();
    for sub in &prog.code {
        any_stmt(&sub.body, &mut |n| {
            if let Node::Stmt(RStmt::Doall(RDoall {
                site,
                plan: Some(reads),
                ..
            })) = n
            {
                let reads = reads.iter().map(|&slot| StaticRead {
                    name: sub.names[slot].clone(),
                });
                let plan = StaticCommPlan {
                    site: *site,
                    subroutine: sub.name.clone(),
                    reads: reads.collect(),
                };
                plans.insert(*site, plan);
            }
            false
        });
    }
    plans
}

/// One subroutine's checks: its resolved tree, and the diagnostics found
/// so far.
struct Checker<'p> {
    prog: &'p Program,
    sub: &'p RSub,
    diags: Vec<Diagnostic>,
    /// The innermost `doall` around what is checked now.
    doall: Option<&'p RDoall>,
    /// What is checked now steers the `doall`'s communication: a
    /// subscript, a section bound, an `if` condition or a `do` bound.
    steers: bool,
}

impl<'p> Checker<'p> {
    fn diag(&mut self, code: &'static str, span: Span, msg: String) -> &mut Diagnostic {
        self.diags
            .push(Diagnostic::new(code, span, msg, &self.prog.src));
        self.diags.last_mut().expect("pushed above")
    }

    fn name(&self, slot: Slot) -> &'p str {
        &self.sub.names[slot]
    }

    fn rank(&self, slot: Slot) -> Option<usize> {
        self.sub.array(slot).map(|(bounds, _)| bounds.len())
    }

    /// The declared rank of a processor-array slot (0 = rank unknown).
    fn procs(&self, slot: Slot) -> Option<usize> {
        self.sub.declared[slot].procs
    }

    /// A data parameter: its binding is unknown statically, so checks
    /// soften.
    fn is_param(&self, slot: Slot) -> bool {
        self.sub.params.contains(&slot)
    }

    // ---------- statement walk ----------

    fn stmts(&mut self, body: &'p [RStmt]) {
        for s in body {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &'p RStmt) {
        match s {
            RStmt::AssignScalar { slot, rhs, at, .. } => {
                self.expr(rhs);
                let name = self.name(*slot);
                if self.sub.array(*slot).is_some() {
                    self.diag(
                        "A003",
                        at.0,
                        format!("cannot assign a scalar to array `{name}` (subscripts required)"),
                    );
                } else if self.procs(*slot).is_some() {
                    self.diag(
                        "A003",
                        at.0,
                        format!("cannot assign to processor array `{name}`"),
                    );
                }
            }
            RStmt::AssignElement {
                slot,
                subs,
                rhs,
                at,
                ..
            } => {
                self.expr(rhs);
                self.element_write(*slot, subs, at.0);
            }
            RStmt::Do {
                lo, hi, step, body, ..
            } => {
                self.steering([lo, hi].into_iter().chain(step));
                self.stmts(body);
            }
            RStmt::Doall(d) => {
                for (lo, hi, step) in &d.ranges {
                    self.exprs([lo, hi].into_iter().chain(step));
                }
                self.proc_expr(&d.on, d.at.0);
                let outer = self.doall.replace(d);
                self.stmts(&d.body);
                self.doall = outer;
            }
            RStmt::Distribute {
                slot,
                dist,
                name_at,
                ..
            } => {
                let name = self.name(*slot);
                match self.rank(*slot) {
                    None => {
                        self.diag(
                            "A001",
                            name_at.0,
                            format!("distribute: `{name}` is not a declared array"),
                        );
                    }
                    Some(rank) if dist.ndims() != rank => {
                        let got = dist.ndims();
                        self.diag(
                            "A003",
                            name_at.0,
                            format!(
                                "distribute `{name}`: {got} dist entries for a rank-{rank} array"
                            ),
                        );
                    }
                    Some(_) => {}
                }
            }
            RStmt::If(cond, then_body, else_body) => {
                self.steering([cond]);
                // Inside a doall, iterations are already per-owner.
                if self.doall.is_none()
                    && self.reads_distributed_element(cond)
                    && (contains_collective(then_body) || contains_collective(else_body))
                {
                    self.diag(
                        "A006",
                        cond.span(),
                        "collective guarded by a distributed-array element read: processors \
                         disagreeing on this value diverge on the collective"
                            .to_string(),
                    )
                    .note = Some(
                        "reduce the value to a replicated scalar first; replicated control \
                         flow is what keeps doall/distribute collectives in lockstep"
                            .into(),
                    );
                }
                self.stmts(then_body);
                self.stmts(else_body);
            }
            RStmt::Call {
                callee,
                args,
                on,
                at,
                ..
            } => self.call(callee, args, on.as_ref(), at.0),
            RStmt::Return => {}
        }
    }

    fn element_write(&mut self, slot: Slot, subs: &'p [RExpr], span: Span) {
        self.steering(subs);
        let name = self.name(slot);
        if self.procs(slot).is_some() {
            self.diag(
                "A003",
                span,
                format!("cannot assign to processor array `{name}`"),
            );
            return;
        }
        let Some(rank) = self.rank(slot) else {
            if !self.is_param(slot) {
                self.diag(
                    "A001",
                    span,
                    format!("`{name}` is written as an array but never declared"),
                )
                .note = Some(format!("declare it, e.g. `real {name}(n) dist (block)`"));
            }
            return;
        };
        if subs.len() != rank {
            let got = subs.len();
            self.diag(
                "A003",
                span,
                format!("`{name}` has rank {rank} but is written with {got} subscripts"),
            );
            return;
        }
        self.const_bounds(slot, subs);
        if let Some(d) = self.doall {
            self.owner_write(slot, subs, span, d);
        }
    }

    // ---------- expression checks (A001/A002/A003/A004) ----------

    fn exprs(&mut self, es: impl IntoIterator<Item = &'p RExpr>) {
        for e in es {
            self.expr(e);
        }
    }

    /// [`Checker::exprs`] on expressions that steer the communication of
    /// the `doall` around them, if there is one.
    fn steering(&mut self, es: impl IntoIterator<Item = &'p RExpr>) {
        let outer = std::mem::replace(&mut self.steers, self.doall.is_some());
        self.exprs(es);
        self.steers = outer;
    }

    fn expr(&mut self, e: &'p RExpr) {
        match e {
            RExpr::Const(..) => {}
            RExpr::Var(slot, at) => {
                if self.sub.array(*slot).is_some() {
                    let name = self.name(*slot);
                    self.diag(
                        "A003",
                        at.0,
                        format!("array `{name}` used as a scalar (missing subscripts)"),
                    );
                }
            }
            RExpr::Un(_, e, _) => self.expr(e),
            RExpr::Bin(_, l, r, _) => self.exprs([&**l, &**r]),
            RExpr::Ref(slot, intrinsic, args, at) => self.reference(*slot, *intrinsic, args, at.0),
        }
    }

    fn reference(
        &mut self,
        slot: Slot,
        intrinsic: Option<Intrinsic>,
        args: &'p [Option<RExpr>],
        span: Span,
    ) {
        let name = self.name(slot);
        let got = args.len();
        if let Some(rank) = self.rank(slot) {
            if got != rank {
                self.diag(
                    "A003",
                    span,
                    format!("`{name}` has rank {rank} but is referenced with {got} subscripts"),
                );
                return;
            }
            self.remote_steering(slot, args, span);
            for a in args {
                let Some(e) = a else {
                    self.diag(
                        "A003",
                        span,
                        format!("`*` subscript on `{name}` is only valid in owner() and sections"),
                    );
                    return;
                };
                self.steering([e]);
            }
            self.const_bounds(slot, args.iter().flatten());
        } else if self.procs(slot).is_some() {
            // A processor-array selection is only meaningful as an
            // intrinsic or on-clause argument; those positions never
            // reach here.
            self.diag(
                "A003",
                span,
                format!("processor array `{name}` used as a value"),
            );
        } else if let Some(f) = intrinsic {
            let (min, max) = f.arity();
            if got < min || got > max {
                let want = if min == max {
                    format!("{min}")
                } else {
                    format!("{min}..{max}")
                };
                self.diag(
                    "A002",
                    span,
                    format!("intrinsic `{name}` takes {want} arguments, got {got}"),
                );
            } else if matches!(f, Intrinsic::Lower | Intrinsic::Upper) {
                // `lower`/`upper` take an array name and a processor
                // selection — positions with their own rules; only the
                // optional dim argument is an ordinary expression.
                self.bound_intrinsic_args(name, args, span);
            } else {
                self.exprs(args.iter().flatten());
            }
        } else if self.is_param(slot) {
            // An undeclared parameter may be bound to an array by the
            // caller; nothing provable here.
            self.exprs(args.iter().flatten());
        } else {
            self.diag(
                "A001",
                span,
                format!("`{name}` is not a declared array or intrinsic"),
            )
            .note = Some("arrays must be declared with bounds before use".into());
        }
    }

    fn bound_intrinsic_args(&mut self, name: &str, args: &'p [Option<RExpr>], span: Span) {
        // First argument: an array (or array-valued parameter) by name.
        match &args[0] {
            Some(RExpr::Var(an, at)) => {
                if self.sub.array(*an).is_none() && !self.is_param(*an) {
                    let an = self.name(*an);
                    self.diag(
                        "A001",
                        at.0,
                        format!("`{name}`: `{an}` is not a declared array"),
                    );
                }
            }
            _ => {
                self.diag(
                    "A003",
                    span,
                    format!("`{name}`: first argument must be an array name"),
                );
            }
        }
        // Second argument: a processor selection; its subscripts are values.
        if let Some(RExpr::Ref(pn, _, pa, at)) = &args[1] {
            let got = pa.len();
            if let Some(rank) = self.procs(*pn).filter(|&rank| rank != 0 && got != rank) {
                let pn = self.name(*pn);
                self.diag(
                    "A003",
                    at.0,
                    format!("processor array `{pn}` has rank {rank}, selected with {got}"),
                );
            }
            self.exprs(pa.iter().flatten());
        }
        if let Some(Some(e)) = args.get(2) {
            self.expr(e);
        }
    }

    /// A004: a constant subscript against constant declared bounds.
    fn const_bounds(&mut self, slot: Slot, subs: impl IntoIterator<Item = &'p RExpr>) {
        let Some((bounds, _)) = self.sub.array(slot) else {
            return;
        };
        let name = self.name(slot);
        for ((d, sub), (lo, hi)) in subs.into_iter().enumerate().zip(bounds) {
            let (Some(v), Some(lo), Some(hi)) = (const_of(sub), const_of(lo), const_of(hi)) else {
                continue;
            };
            if v < lo || v > hi {
                let dim = d + 1;
                self.diag(
                    "A004",
                    sub.span(),
                    format!(
                        "subscript {v} of `{name}` is outside dimension {dim}'s bounds {lo}:{hi}"
                    ),
                );
            }
        }
    }

    // ---------- calls (A001/A002/A003) ----------

    fn call(
        &mut self,
        callee: &'p Callee,
        args: &'p [RArg],
        on: Option<&'p RProcExpr>,
        span: Span,
    ) {
        for a in args {
            match a {
                // A bare array name in argument position passes the whole
                // array — legal, unlike an array used as a scalar value.
                RArg::Expr(RExpr::Var(n, _)) if self.sub.array(*n).is_some() => {}
                RArg::Expr(e) => self.expr(e),
                RArg::Section(slot, secs, at) => {
                    for sec in secs {
                        match sec {
                            RSection::Index(e) => self.steering([e]),
                            RSection::Range(e1, e2) => self.steering([e1, e2]),
                            RSection::All => {}
                        }
                    }
                    let an = self.name(*slot);
                    match self.rank(*slot) {
                        Some(rank) if secs.len() != rank => {
                            let got = secs.len();
                            self.diag(
                                "A003",
                                at.0,
                                format!(
                                    "section of `{an}` has {got} subscripts, array has rank {rank}"
                                ),
                            );
                        }
                        None if !self.is_param(*slot) => {
                            self.diag(
                                "A001",
                                at.0,
                                format!("section names `{an}`, which is not a declared array"),
                            );
                        }
                        _ => {}
                    }
                }
            }
        }
        if let Some(pe) = on {
            self.proc_expr(pe, span);
        }
        let got = args.len();
        match callee {
            Callee::Builtin(b) if got != b.arity() => {
                let (name, want) = (b.name(), b.arity());
                self.diag(
                    "A002",
                    span,
                    format!("builtin `{name}` takes {want} arguments, got {got}"),
                );
            }
            Callee::Sub(k) if self.prog.code[*k].params.len() != got => {
                let sub = &self.prog.code[*k];
                let (name, want) = (&sub.name, sub.params.len());
                self.diag(
                    "A002",
                    span,
                    format!("`{name}` takes {want} arguments, got {got}"),
                );
            }
            Callee::Unknown(name) => {
                self.diag(
                    "A001",
                    span,
                    format!("no subroutine or builtin named `{name}`"),
                );
            }
            _ => {}
        }
    }

    /// A processor expression — or a `doall`'s on-clause — spanning
    /// `span`.
    fn proc_expr(&mut self, pe: &'p RProcExpr, span: Span) {
        let (slot, subs) = match pe {
            RProcExpr::Owner(array, subs) => return self.owner_subs(*array, subs, span),
            RProcExpr::Whole(slot) => (*slot, None),
            RProcExpr::Select(slot, subs) => (*slot, Some(subs)),
        };
        if let Some(subs) = subs {
            self.exprs(subs.iter().flatten());
        }
        let name = self.name(slot);
        match (self.procs(slot), subs) {
            (Some(rank), Some(subs)) if rank != 0 && subs.len() != rank => {
                let got = subs.len();
                self.diag(
                    "A003",
                    span,
                    format!("processor array `{name}` has rank {rank}, selected with {got}"),
                );
            }
            (None, _) if !self.is_param(slot) => {
                self.diag(
                    "A001",
                    span,
                    format!("`{name}` is not a declared processor array"),
                );
            }
            _ => {}
        }
    }

    fn owner_subs(&mut self, slot: Slot, subs: &'p [Option<RExpr>], span: Span) {
        self.exprs(subs.iter().flatten());
        let array = self.name(slot);
        match self.rank(slot) {
            Some(rank) if subs.len() != rank => {
                let got = subs.len();
                self.diag(
                    "A003",
                    span,
                    format!("owner(): `{array}` has rank {rank}, selected with {got} subscripts"),
                );
            }
            None if !self.is_param(slot) => {
                self.diag(
                    "A001",
                    span,
                    format!("owner(): `{array}` is not a declared array"),
                );
            }
            _ => {}
        }
    }

    // ---------- A005: provably non-owned writes ----------

    /// Owner-computes check for a write inside a `doall` — only the two
    /// provable shapes fire (assuming ≥ 2 processors):
    ///
    /// 1. `on procs(<constants>)` pins every iteration to one processor,
    ///    but the written subscript walks a distributed dimension with the
    ///    loop variable — some element lands off that processor.
    /// 2. `on owner(A(..))` with the write to an array of identical
    ///    declared distribution *and bounds*, same loop variable, but a
    ///    different constant offset in a distributed dimension — the
    ///    aligned element is owned, the shifted one crosses a boundary.
    fn owner_write(&mut self, slot: Slot, subs: &[RExpr], span: Span, d: &RDoall) {
        let Some((_, Some(dist))) = self.sub.array(slot) else {
            return; // replicated: every processor owns every element
        };
        let name = self.name(slot);
        let distributed = |k: usize| dist.maps().get(k) != Some(&DimMap::Local);
        match &d.on {
            RProcExpr::Select(_, psubs) => {
                // Provable only when every selector is a literal constant.
                let all_const = !psubs.is_empty()
                    && psubs
                        .iter()
                        .all(|s| s.as_ref().and_then(const_of).is_some());
                if !all_const {
                    return;
                }
                let walks = subs.iter().enumerate().find(|&(k, sub)| {
                    let affine = affine_of(sub, &d.vars);
                    distributed(k) && affine.is_some_and(|a| a.var.is_some() && a.coeff != 0)
                });
                if let Some((k, _)) = walks {
                    self.diag(
                        "A005",
                        span,
                        format!(
                            "write to `{name}` ranges over its distributed dimension {} \
                             but `on procs(...)` pins every iteration to one processor",
                            k + 1
                        ),
                    )
                    .note = Some(
                        "on >= 2 processors some iteration writes an element it does not \
                         own; use `on owner(...)` to align iterations with storage"
                            .into(),
                    );
                }
            }
            RProcExpr::Owner(..) => {
                let Some((k, delta)) = self.off_owner(slot, subs.iter().map(Some), d) else {
                    return;
                };
                self.diag(
                    "A005",
                    span,
                    format!(
                        "write to `{name}` is offset by {delta} from the owner() \
                         subscript in distributed dimension {}",
                        k + 1
                    ),
                )
                .note = Some(format!(
                    "iterations own the element at the owner() subscript; on >= 2 \
                     processors the element {delta} away crosses a block boundary \
                     for some iteration"
                ));
            }
            RProcExpr::Whole(_) => {}
        }
    }

    /// The first distributed dimension in which element `subs` of `slot`
    /// is offset from the element `d`'s `on owner(…)` names, and by how
    /// much: both arrays have one declared layout — identical layout is
    /// what makes misalignment provable; different shapes or distributions
    /// need the runtime ownership map — and the two subscripts are the
    /// same multiple of one loop variable plus different constants.
    fn off_owner<'e>(
        &self,
        slot: Slot,
        subs: impl ExactSizeIterator<Item = Option<&'e RExpr>>,
        d: &RDoall,
    ) -> Option<(usize, i64)> {
        let (RProcExpr::Owner(on_array, on_subs), Some((bounds, Some(dist)))) =
            (&d.on, self.sub.array(slot))
        else {
            return None;
        };
        let (on_bounds, on_dist) = self.sub.array(*on_array)?;
        if on_dist != Some(dist) || on_bounds != bounds || on_subs.len() != subs.len() {
            return None;
        }
        let distributed = |k: usize| dist.maps().get(k) != Some(&DimMap::Local);
        subs.zip(on_subs).enumerate().find_map(|(k, (s, os))| {
            let os = os.as_ref().filter(|_| distributed(k))?;
            let (a, oa) = (affine_of(s?, &d.vars)?, affine_of(os, &d.vars)?);
            let off = a.var.is_some() && a.var == oa.var && a.coeff == oa.coeff;
            (off && a.offset != oa.offset).then(|| (k, a.offset.wrapping_sub(oa.offset)))
        })
    }

    // ---------- A008: a remote value steering communication ----------

    /// Flag element `args` of `slot` where it [steers](Checker::steers)
    /// and is [offset](Checker::off_owner) from the element the iteration
    /// owns: remote for some iteration on ≥ 2 processors, it is a stale
    /// copy when the inspector, which runs before the exchange, reads it.
    fn remote_steering(&mut self, slot: Slot, args: &[Option<RExpr>], span: Span) {
        let d = self.doall.filter(|_| self.steers);
        let Some((k, delta)) =
            d.and_then(|d| self.off_owner(slot, args.iter().map(Option::as_ref), d))
        else {
            return;
        };
        let name = self.name(slot);
        self.diag(
            "A008",
            span,
            format!(
                "`{name}` read {delta} away from the owner() element in distributed \
                 dimension {} steers communication",
                k + 1
            ),
        )
        .note = Some(
            "on >= 2 processors the element is remote for some iteration, and the inspector \
             chooses what to fetch from a stale copy of it; read the value in a subscript, \
             bound or condition only where the iteration owns it"
                .into(),
        );
    }

    // ---------- A006: SPMD divergence ----------

    /// Does this expression read an *element* of a distributed array?
    fn reads_distributed_element(&self, e: &RExpr) -> bool {
        any_expr(e, &mut |n| {
            let Node::Expr(RExpr::Ref(slot, ..)) = n else {
                return false;
            };
            let dist = self.sub.array(*slot).and_then(|(_, dist)| dist);
            dist.is_some_and(|d| d.ndistributed() > 0)
        })
    }

    // ---------- A007: dead / shadowed distributes ----------

    /// A `distribute X (...)` followed — in straight-line code at the same
    /// nesting level — by another `distribute X` with no use of `X` between
    /// them moved every element of `X` for nothing and invalidated every
    /// cached schedule reading it. Flag the earlier one.
    fn shadowed_distributes(&mut self, body: &'p [RStmt]) {
        for (i, s) in body.iter().enumerate() {
            match s {
                RStmt::Distribute { slot, at, .. } => {
                    // The next statement that uses `X` — a redistribution
                    // of `X` is a use too.
                    let next_use = body[i + 1..].iter().find(|later| {
                        any_stmt(
                            slice::from_ref(*later),
                            &mut |n| matches!(n, Node::Name(x) if x == *slot),
                        )
                    });
                    if matches!(next_use, Some(RStmt::Distribute { slot: again, .. }) if again == slot)
                    {
                        let name = self.name(*slot);
                        self.diag(
                            "A007",
                            at.0,
                            format!(
                                "dead distribute: `{name}` is redistributed again before any use"
                            ),
                        )
                        .note = Some(
                            "this redistribution moves data and invalidates cached \
                             schedules, then nothing reads the layout it built"
                                .into(),
                        );
                    }
                }
                RStmt::Do { body, .. } => self.shadowed_distributes(body),
                RStmt::If(_, then_body, else_body) => {
                    self.shadowed_distributes(then_body);
                    self.shadowed_distributes(else_body);
                }
                _ => {}
            }
        }
    }
}

/// Does this statement list contain a collective (doall, distribute, or
/// a call to a parallel subroutine)?
fn contains_collective(body: &[RStmt]) -> bool {
    any_stmt(body, &mut |n| {
        matches!(
            n,
            Node::Stmt(
                RStmt::Doall(_) | RStmt::Distribute { .. } | RStmt::Call { parallel: true, .. }
            )
        )
    })
}

/// Constant value of an integer literal, possibly negated.
pub(crate) fn const_of(e: &RExpr) -> Option<i64> {
    match e {
        RExpr::Const(Value::Int(v), _) => Some(*v),
        RExpr::Un(UnOp::Neg, e, _) => const_of(e)?.checked_neg(),
        _ => None,
    }
}

/// A subscript as an affine function of one `doall` variable:
/// `coeff * var + offset`, or a loop-invariant constant (`var == None`).
struct Affine {
    var: Option<usize>,
    coeff: i64,
    offset: i64,
}

/// Recognize `c`, `v`, `v ± c`, `c*v ± d` over the doall variables.
/// Anything else — including other scalars, and arithmetic that
/// overflows — is opaque.
fn affine_of(e: &RExpr, vars: &[Slot]) -> Option<Affine> {
    match e {
        RExpr::Const(Value::Int(v), _) => Some(Affine {
            var: None,
            coeff: 0,
            offset: *v,
        }),
        RExpr::Var(slot, _) => vars.iter().position(|v| v == slot).map(|i| Affine {
            var: Some(i),
            coeff: 1,
            offset: 0,
        }),
        RExpr::Un(UnOp::Neg, e, _) => {
            let a = affine_of(e, vars)?;
            Some(Affine {
                var: a.var,
                coeff: a.coeff.checked_neg()?,
                offset: a.offset.checked_neg()?,
            })
        }
        RExpr::Bin(op, l, r, _) => {
            let (la, ra) = (affine_of(l, vars)?, affine_of(r, vars)?);
            match op {
                BinOp::Add | BinOp::Sub => {
                    let sign = if *op == BinOp::Sub { -1 } else { 1 };
                    let var = match (la.var, ra.var) {
                        (Some(a), Some(b)) if a != b => return None,
                        (a, b) => a.or(b),
                    };
                    Some(Affine {
                        var,
                        coeff: la.coeff.checked_add(ra.coeff.checked_mul(sign)?)?,
                        offset: la.offset.checked_add(ra.offset.checked_mul(sign)?)?,
                    })
                }
                BinOp::Mul => {
                    // One factor is a constant `c`: c·(k·v + d).
                    let (c, a) = match (la.var, ra.var) {
                        (None, _) => (la.offset, ra),
                        (_, None) => (ra.offset, la),
                        _ => return None,
                    };
                    Some(Affine {
                        var: a.var,
                        coeff: c.checked_mul(a.coeff)?,
                        offset: c.checked_mul(a.offset)?,
                    })
                }
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn diags(src: &str) -> Vec<Diagnostic> {
        analyze(&parse(src).expect("test source must parse"))
    }

    fn codes(src: &str) -> Vec<&'static str> {
        diags(src).iter().map(|d| d.code).collect()
    }

    const HEADER: &str =
        "parsub t(a, b, n; procs)\n  processors procs(p)\n  real a(8), b(8) dist (block)\n";

    #[test]
    fn clean_program_has_no_diagnostics() {
        let src = format!(
            "{HEADER}  doall 100 i = 1, 7 on owner(a(i))\n    a(i) = b(i + 1)\n100 continue\nend\n"
        );
        assert!(codes(&src).is_empty(), "{:?}", diags(&src));
    }

    #[test]
    fn a001_undeclared_array_read() {
        let src = format!(
            "{HEADER}  doall 100 i = 1, 7 on owner(a(i))\n    a(i) = ghost(i)\n100 continue\nend\n"
        );
        let ds = diags(&src);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, "A001");
        assert_eq!(ds[0].span.slice(&parse(&src).unwrap().src), "ghost(i)");
    }

    #[test]
    fn a002_wrong_arity() {
        let src = format!("{HEADER}  x = mod(3)\nend\n");
        assert_eq!(codes(&src), vec!["A002"]);
        let src2 = "parsub f(a; p)\n  processors p(q)\n  real a(4) dist (block)\n  \
                    call g(a(1:2), 1; p)\nend\n\
                    parsub g(x; p)\n  processors p(q)\n  real x(2) dist (block)\nend\n";
        assert_eq!(codes(src2), vec!["A002"]);
    }

    #[test]
    fn a003_rank_mismatch_and_scalar_misuse() {
        let src = format!("{HEADER}  x = a(1, 2)\n  y = a\nend\n");
        assert_eq!(codes(&src), vec!["A003", "A003"]);
    }

    #[test]
    fn a004_constant_subscript_out_of_bounds() {
        let src = format!("{HEADER}  x = a(9)\nend\n");
        let ds = diags(&src);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, "A004");
        assert!(ds[0].message.contains("1:8"), "{}", ds[0].message);
    }

    #[test]
    fn a005_pinned_processor_write_and_offset_write() {
        let pinned = format!(
            "{HEADER}  doall 100 i = 1, 8 on procs(1)\n    a(i) = 1.0\n100 continue\nend\n"
        );
        assert_eq!(codes(&pinned), vec!["A005"]);
        let offset = format!(
            "{HEADER}  doall 100 i = 1, 7 on owner(a(i))\n    a(i + 1) = b(i)\n100 continue\nend\n"
        );
        assert_eq!(codes(&offset), vec!["A005"]);
        // Aligned writes and var-selected processors stay clean.
        let aligned = format!(
            "{HEADER}  doall 100 ip = 1, p on procs(ip)\n    b(2*ip - 1) = 1.0\n100 continue\nend\n"
        );
        assert!(codes(&aligned).is_empty(), "{:?}", diags(&aligned));
    }

    #[test]
    fn a006_distributed_read_guarding_a_collective() {
        let src =
            format!("{HEADER}  if (a(1) .gt. 0.0) then\n    distribute b (cyclic)\n  endif\nend\n");
        assert_eq!(codes(&src), vec!["A006"]);
        // Same guard around scalar-only code: no divergence hazard.
        let benign = format!("{HEADER}  if (a(1) .gt. 0.0) then\n    x = 1\n  endif\nend\n");
        assert!(codes(&benign).is_empty());
    }

    #[test]
    fn a007_shadowed_distribute() {
        let src =
            format!("{HEADER}  distribute a (cyclic)\n  distribute a (block)\n  x = a(1)\nend\n");
        assert_eq!(codes(&src), vec!["A007"]);
        // An intervening use keeps both live.
        let live =
            format!("{HEADER}  distribute a (cyclic)\n  x = a(1)\n  distribute a (block)\nend\n");
        assert!(codes(&live).is_empty());
    }

    /// A008 flags a read offset from the owned element where it steers
    /// communication — a subscript, an `if` condition, a `do` bound, a
    /// section bound — and nowhere else.
    #[test]
    fn a008_offset_read_steering_communication() {
        let doall = |body: &str| {
            format!("{HEADER}  doall 100 i = 2, 7 on owner(a(i))\n{body}\n100 continue\nend\n")
        };
        for body in [
            "    a(i) = b(a(i + 1))",
            "    if (b(i - 1) .gt. 0.0) then\n      a(i) = 1.0\n    endif",
            "    do 50 k = 1, a(i - 1)\n      x = k\n50  continue",
            "    call reduce(a(i:i + 1), b(1:b(i + 1)), a(i:i + 1), a(i:i + 1), 2)",
        ] {
            assert_eq!(codes(&doall(body)), vec!["A008"], "{body}");
        }
        // Aligned, a value only, or a scalar: clean.
        for body in [
            "    a(i) = b(a(i))",
            "    a(i) = b(i - 1) + b(i + 1)",
            "    t = b(i - 1)\n    a(i) = t",
        ] {
            assert!(codes(&doall(body)).is_empty(), "{body}");
        }
        // Another layout proves nothing.
        let other = "parsub t(a, b, n; procs)\n  processors procs(p)\n  real a(8) dist (block)\n  \
                     real b(8) dist (cyclic)\n  doall 100 i = 2, 7 on owner(a(i))\n    \
                     a(i) = a(b(i + 1))\n100 continue\nend\n";
        assert!(codes(other).is_empty());
    }

    #[test]
    fn every_shipped_listing_is_clean() {
        for name in ["jacobi", "shift", "tri", "adi", "spmv"] {
            let src = crate::listing(name).unwrap();
            let ds = diags(src);
            assert!(ds.is_empty(), "{name}: {ds:?}");
        }
    }

    #[test]
    fn plans_cover_the_affine_stencil_listings() {
        // jacobi: one doall, five reads (4-point stencil + f).
        let prog = parse(crate::listing("jacobi").unwrap()).unwrap();
        let plans = comm_plans(&prog);
        assert_eq!(plans.len(), 1);
        let plan = plans.values().next().unwrap();
        assert_eq!(plan.subroutine, "jacobi");
        assert_eq!(plan.reads.len(), 5);
        assert!(plan.reads[..4].iter().all(|r| r.name == "x"));
        assert_eq!(plan.reads[4].name, "f");

        // shift: one read, a(i + 1).
        let prog = parse(crate::listing("shift").unwrap()).unwrap();
        let plans = comm_plans(&prog);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans.values().next().unwrap().reads[0].name, "a");

        // spmv: the gather site calls the spmv builtin (no plan); the
        // feedback doall x(i) = y(i)/10 is analyzable.
        let prog = parse(crate::listing("spmv").unwrap()).unwrap();
        let plans = comm_plans(&prog);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans.values().next().unwrap().reads[0].name, "y");

        // adi: resid's stencil sweep is the only analyzable site (the
        // others call parallel or sequential subroutines).
        let prog = parse(crate::listing("adi").unwrap()).unwrap();
        let plans = comm_plans(&prog);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans.values().next().unwrap().subroutine, "resid");

        // tri: every doall assigns through lower()/upper() scalars and
        // calls builtins — nothing analyzable.
        let prog = parse(crate::listing("tri").unwrap()).unwrap();
        assert!(comm_plans(&prog).is_empty());
    }

    #[test]
    fn rendered_diagnostic_points_at_the_source() {
        let src = format!(
            "{HEADER}  doall 100 i = 1, 7 on owner(a(i))\n    a(i) = ghost(i)\n100 continue\nend\n"
        );
        let prog = parse(&src).unwrap();
        let ds = analyze(&prog);
        let r = ds[0].render(&prog.src);
        assert!(r.contains("error[A001]"), "{r}");
        assert!(r.contains("ghost(i)"), "{r}");
        assert!(r.contains("^^^^^^^^"), "{r}");
    }
}
