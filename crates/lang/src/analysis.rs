//! Compile-time semantic analysis of KF1 programs.
//!
//! The paper's central claim is that the KF1 *source* carries enough
//! information — distributions in declarations, owner-computes `on`
//! clauses, explicitly parallel `doall` bodies — for a compiler to
//! reason about a program's parallel behaviour before it runs. This
//! module is that compiler pass, in two halves:
//!
//! **Diagnostics** ([`analyze`]): semantic checks over the parsed
//! [`Program`], each returning a span-carrying [`Diagnostic`] with a
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
//!
//! `A005` and `A006` are deliberately conservative: they fire only on
//! *provable* cases (constant processor selections, same-distribution
//! constant-offset writes), under the standing assumption that the
//! processor array has at least two processors — the degenerate
//! single-processor machine owns everything and can violate nothing.
//!
//! **Static communication plans** ([`comm_plans`]): for `doall`s whose
//! bodies are pure element assignments with subscript expressions free
//! of array references (the affine-stencil class: Jacobi sweeps,
//! shifts, residuals), the analyzer emits a [`StaticCommPlan`] — the
//! compile-time equivalent of the inspector's `CommSchedule`. The plan
//! lists every array element *read* the body performs, in evaluation
//! order; the interpreter concretizes it against the live distributions
//! and pre-seeds the schedule cache (`kali_sched::ScheduleCache::seed`),
//! so an analyzable `doall`'s cold trip replays a compile-time schedule
//! instead of running the inspector — the paper's observation that for
//! loops whose communication pattern is statically analyzable the
//! inspector adds no information, made executable.

use std::collections::HashMap;

use crate::ast::*;
use crate::diag::{Diagnostic, Span};

/// Intrinsic functions legal in expression position: (name, min, max)
/// argument counts.
const EXPR_INTRINSICS: &[(&str, usize, usize)] = &[
    ("log2", 1, 1),
    ("mod", 2, 2),
    ("abs", 1, 1),
    ("sqrt", 1, 1),
    ("min", 2, 2),
    ("max", 2, 2),
    ("lower", 2, 3),
    ("upper", 2, 3),
];

/// Built-in sequential kernels callable as statements, with their arities.
const BUILTIN_CALLS: &[(&str, usize)] = &[("reduce", 5), ("seqtri", 6), ("spmv", 4)];

/// One array-element read of an analyzable `doall` body: the array name
/// and its subscript expressions (scalar-pure — no array references),
/// in body evaluation order.
#[derive(Debug, Clone)]
pub struct StaticRead {
    pub name: String,
    pub subs: Vec<Expr>,
}

/// A compile-time communication plan for one `doall` site: the complete
/// list of element reads its body performs per iteration. Concretized
/// against live bounds and distributions it reproduces exactly the
/// needs the runtime inspector would discover, so the interpreter can
/// seed the schedule cache before the loop's first trip.
#[derive(Debug, Clone)]
pub struct StaticCommPlan {
    /// The `doall`'s parser-assigned site id (the schedule-cache index).
    pub site: usize,
    /// Name of the subroutine the `doall` lives in.
    pub subroutine: String,
    /// Every element read of one iteration, in evaluation order.
    pub reads: Vec<StaticRead>,
}

/// What an array name is declared as, within one subroutine.
struct ArrayInfo {
    rank: usize,
    dist: Option<Vec<DistDim>>,
    bounds: Vec<(Expr, Expr)>,
}

struct Env<'p> {
    prog: &'p Program,
    arrays: HashMap<String, ArrayInfo>,
    /// Processor arrays with their declared rank (0 = rank unknown).
    procs: HashMap<String, usize>,
    /// Parameter names (bindings unknown statically — checks soften).
    params: Vec<String>,
    diags: Vec<Diagnostic>,
}

/// Context a statement executes in: the innermost enclosing `doall`.
struct Ctx<'a> {
    doall: Option<&'a DoallCtx>,
}

struct DoallCtx {
    vars: Vec<String>,
    on: OnClause,
}

/// Run every semantic pass over `prog`; diagnostics come back in source
/// order (lexicographic by span start).
pub fn analyze(prog: &Program) -> Vec<Diagnostic> {
    let mut all = Vec::new();
    for sub in &prog.subs {
        let mut env = build_env(prog, sub);
        check_stmts(&mut env, &sub.body, &Ctx { doall: None });
        check_shadowed_distributes(&mut env, &sub.body);
        all.extend(env.diags);
    }
    all.sort_by_key(|d| (d.span.lo, d.span.hi));
    all
}

/// Extract a [`StaticCommPlan`] for every analyzable `doall` in `prog`,
/// keyed by site id. A site with no entry is not analyzable (calls,
/// nested loops, scalar assignments, or array-valued subscripts in its
/// body) and falls back to the runtime inspector.
pub fn comm_plans(prog: &Program) -> HashMap<usize, StaticCommPlan> {
    let mut plans = HashMap::new();
    for sub in &prog.subs {
        let env = build_env(prog, sub);
        collect_plans(&env, sub, &sub.body, &mut plans);
    }
    plans
}

fn build_env<'p>(prog: &'p Program, sub: &Subroutine) -> Env<'p> {
    let mut env = Env {
        prog,
        arrays: HashMap::new(),
        procs: HashMap::new(),
        params: sub.params.clone(),
        diags: Vec::new(),
    };
    if let Some(pp) = &sub.proc_param {
        // Rank unknown until a `processors` declaration names it.
        env.procs.insert(pp.clone(), 0);
    }
    for d in &sub.decls {
        match d {
            Decl::Processors { name, extents, .. } => {
                env.procs.insert(name.clone(), extents.len());
            }
            Decl::Arrays { items, dist, .. } => {
                for item in items {
                    if item.dims.is_empty() {
                        continue; // scalar type declaration
                    }
                    env.arrays.insert(
                        item.name.clone(),
                        ArrayInfo {
                            rank: item.dims.len(),
                            dist: dist.clone(),
                            bounds: item.dims.clone(),
                        },
                    );
                }
            }
        }
    }
    env
}

impl Env<'_> {
    fn diag(&mut self, code: &'static str, span: Span, msg: String) -> &mut Diagnostic {
        self.diags
            .push(Diagnostic::new(code, span, msg, &self.prog.src));
        self.diags.last_mut().unwrap()
    }

    fn is_param(&self, name: &str) -> bool {
        self.params.iter().any(|p| p == name)
    }

    /// Constant value of an expression, if literal.
    fn const_of(e: &Expr) -> Option<i64> {
        match &e.kind {
            ExprKind::Int(v) => Some(*v),
            ExprKind::Un { op: UnOp::Neg, e } => Self::const_of(e).map(|v| -v),
            _ => None,
        }
    }
}

// ---------- statement walk ----------

fn check_stmts(env: &mut Env, body: &[Stmt], ctx: &Ctx) {
    for s in body {
        check_stmt(env, s, ctx);
    }
}

fn check_stmt(env: &mut Env, s: &Stmt, ctx: &Ctx) {
    match &s.kind {
        StmtKind::Assign { lhs, rhs } => {
            check_expr(env, rhs);
            check_lvalue(env, lhs, ctx);
        }
        StmtKind::Do {
            lo, hi, step, body, ..
        } => {
            check_expr(env, lo);
            check_expr(env, hi);
            if let Some(e) = step {
                check_expr(env, e);
            }
            check_stmts(env, body, ctx);
        }
        StmtKind::Doall {
            vars,
            ranges,
            on,
            body,
            ..
        } => {
            for (lo, hi, step) in ranges {
                check_expr(env, lo);
                check_expr(env, hi);
                if let Some(e) = step {
                    check_expr(env, e);
                }
            }
            check_on_clause(env, on, s.span);
            let dctx = DoallCtx {
                vars: vars.clone(),
                on: on.clone(),
            };
            check_stmts(env, body, &Ctx { doall: Some(&dctx) });
        }
        StmtKind::Distribute {
            name,
            name_span,
            dist,
        } => match env.arrays.get(name) {
            None => {
                env.diag(
                    "A001",
                    *name_span,
                    format!("distribute: `{name}` is not a declared array"),
                );
            }
            Some(info) => {
                if dist.len() != info.rank {
                    let rank = info.rank;
                    let got = dist.len();
                    env.diag(
                        "A003",
                        *name_span,
                        format!("distribute `{name}`: {got} dist entries for a rank-{rank} array"),
                    );
                }
            }
        },
        StmtKind::If {
            cond,
            then_body,
            else_body,
        } => {
            check_expr(env, cond);
            check_spmd_divergence(env, cond, then_body, else_body, ctx);
            check_stmts(env, then_body, ctx);
            check_stmts(env, else_body, ctx);
        }
        StmtKind::Call {
            name,
            name_span,
            args,
            on,
        } => {
            check_call(env, name, *name_span, args, on.as_ref());
        }
        StmtKind::Return => {}
    }
}

fn check_lvalue(env: &mut Env, lhs: &LValue, ctx: &Ctx) {
    match &lhs.kind {
        LValueKind::Scalar(name) => {
            if env.arrays.contains_key(name) {
                env.diag(
                    "A003",
                    lhs.span,
                    format!("cannot assign a scalar to array `{name}` (subscripts required)"),
                );
            } else if env.procs.contains_key(name) {
                env.diag(
                    "A003",
                    lhs.span,
                    format!("cannot assign to processor array `{name}`"),
                );
            }
        }
        LValueKind::Element { name, subs } => {
            for e in subs {
                check_expr(env, e);
            }
            if env.procs.contains_key(name) {
                env.diag(
                    "A003",
                    lhs.span,
                    format!("cannot assign to processor array `{name}`"),
                );
                return;
            }
            let Some(info) = env.arrays.get(name) else {
                if !env.is_param(name) {
                    env.diag(
                        "A001",
                        lhs.span,
                        format!("`{name}` is written as an array but never declared"),
                    )
                    .note = Some(format!("declare it, e.g. `real {name}(n) dist (block)`"));
                }
                return;
            };
            if subs.len() != info.rank {
                let rank = info.rank;
                let got = subs.len();
                env.diag(
                    "A003",
                    lhs.span,
                    format!("`{name}` has rank {rank} but is written with {got} subscripts"),
                );
                return;
            }
            check_const_bounds(env, name, subs);
            if let Some(dctx) = ctx.doall {
                check_owner_write(env, name, subs, lhs.span, dctx);
            }
        }
    }
}

// ---------- expression checks (A001/A002/A003/A004) ----------

fn check_expr(env: &mut Env, e: &Expr) {
    match &e.kind {
        ExprKind::Int(_) | ExprKind::Real(_) => {}
        ExprKind::Var(name) => {
            if env.arrays.contains_key(name) {
                env.diag(
                    "A003",
                    e.span,
                    format!("array `{name}` used as a scalar (missing subscripts)"),
                );
            }
        }
        ExprKind::Un { e, .. } => check_expr(env, e),
        ExprKind::Bin { l, r, .. } => {
            check_expr(env, l);
            check_expr(env, r);
        }
        ExprKind::Ref { name, args } => check_ref(env, e, name, args),
    }
}

fn check_ref(env: &mut Env, e: &Expr, name: &str, args: &[RefArg]) {
    if let Some(info) = env.arrays.get(name) {
        if args.len() != info.rank {
            let rank = info.rank;
            let got = args.len();
            env.diag(
                "A003",
                e.span,
                format!("`{name}` has rank {rank} but is referenced with {got} subscripts"),
            );
            return;
        }
        let mut subs = Vec::with_capacity(args.len());
        for a in args {
            match a {
                RefArg::Expr(se) => {
                    check_expr(env, se);
                    subs.push(se.clone());
                }
                RefArg::Star => {
                    env.diag(
                        "A003",
                        e.span,
                        format!("`*` subscript on `{name}` is only valid in owner() and sections"),
                    );
                    return;
                }
            }
        }
        check_const_bounds(env, name, &subs);
        return;
    }
    if env.procs.contains_key(name) {
        // A processor-array selection is only meaningful as an intrinsic
        // or on-clause argument; those positions never reach here.
        env.diag(
            "A003",
            e.span,
            format!("processor array `{name}` used as a value"),
        );
        return;
    }
    if let Some(&(_, min, max)) = EXPR_INTRINSICS.iter().find(|(n, ..)| *n == name) {
        if args.len() < min || args.len() > max {
            let got = args.len();
            let want = if min == max {
                format!("{min}")
            } else {
                format!("{min}..{max}")
            };
            env.diag(
                "A002",
                e.span,
                format!("intrinsic `{name}` takes {want} arguments, got {got}"),
            );
            return;
        }
        // `lower`/`upper` take an array name and a processor selection —
        // positions with their own rules; only the optional dim argument
        // is an ordinary expression.
        if name == "lower" || name == "upper" {
            check_bound_intrinsic_args(env, e, name, args);
        } else {
            for a in args {
                if let RefArg::Expr(se) = a {
                    check_expr(env, se);
                }
            }
        }
        return;
    }
    if env.is_param(name) {
        // An undeclared parameter may be bound to an array by the caller;
        // nothing provable here.
        for a in args {
            if let RefArg::Expr(se) = a {
                check_expr(env, se);
            }
        }
        return;
    }
    env.diag(
        "A001",
        e.span,
        format!("`{name}` is not a declared array or intrinsic"),
    )
    .note = Some("arrays must be declared with bounds before use".into());
}

fn check_bound_intrinsic_args(env: &mut Env, e: &Expr, name: &str, args: &[RefArg]) {
    // First argument: an array (or array-valued parameter) by name.
    match &args[0] {
        RefArg::Expr(Expr {
            kind: ExprKind::Var(an),
            span,
            ..
        }) => {
            if !env.arrays.contains_key(an) && !env.is_param(an) {
                env.diag(
                    "A001",
                    *span,
                    format!("`{name}`: `{an}` is not a declared array"),
                );
            }
        }
        _ => {
            env.diag(
                "A003",
                e.span,
                format!("`{name}`: first argument must be an array name"),
            );
        }
    }
    // Second argument: a processor selection; its subscripts are values.
    if let RefArg::Expr(Expr {
        kind: ExprKind::Ref { name: pn, args: pa },
        span,
        ..
    }) = &args[1]
    {
        if let Some(&rank) = env.procs.get(pn.as_str()) {
            if rank != 0 && pa.len() != rank {
                let got = pa.len();
                env.diag(
                    "A003",
                    *span,
                    format!("processor array `{pn}` has rank {rank}, selected with {got}"),
                );
            }
        }
        for a in pa {
            if let RefArg::Expr(se) = a {
                check_expr(env, se);
            }
        }
    }
    if let Some(RefArg::Expr(se)) = args.get(2) {
        check_expr(env, se);
    }
}

/// A004: a constant subscript against constant declared bounds.
fn check_const_bounds(env: &mut Env, name: &str, subs: &[Expr]) {
    let Some(info) = env.arrays.get(name) else {
        return;
    };
    let mut hits = Vec::new();
    for (d, sub) in subs.iter().enumerate() {
        let (Some(v), Some(lo), Some(hi)) = (
            Env::const_of(sub),
            Env::const_of(&info.bounds[d].0),
            Env::const_of(&info.bounds[d].1),
        ) else {
            continue;
        };
        if v < lo || v > hi {
            hits.push((sub.span, d + 1, v, lo, hi));
        }
    }
    for (sp, dim, v, lo, hi) in hits {
        env.diag(
            "A004",
            sp,
            format!("subscript {v} of `{name}` is outside dimension {dim}'s bounds {lo}:{hi}"),
        );
    }
}

// ---------- calls (A001/A002/A003) ----------

fn check_call(env: &mut Env, name: &str, name_span: Span, args: &[Arg], on: Option<&ProcExpr>) {
    for a in args {
        match a {
            // A bare array name in argument position passes the whole
            // array — legal, unlike an array used as a scalar value.
            Arg::Expr(Expr {
                kind: ExprKind::Var(n),
                ..
            }) if env.arrays.contains_key(n) => {}
            Arg::Expr(e) => check_expr(env, e),
            Arg::Section {
                name: an,
                name_span,
                subs,
            } => {
                for sec in subs {
                    match sec {
                        Section::Index(e) => check_expr(env, e),
                        Section::Range(e1, e2) => {
                            check_expr(env, e1);
                            check_expr(env, e2);
                        }
                        Section::All => {}
                    }
                }
                if let Some(info) = env.arrays.get(an) {
                    if subs.len() != info.rank {
                        let rank = info.rank;
                        let got = subs.len();
                        env.diag(
                            "A003",
                            *name_span,
                            format!(
                                "section of `{an}` has {got} subscripts, array has rank {rank}"
                            ),
                        );
                    }
                } else if !env.is_param(an) {
                    env.diag(
                        "A001",
                        *name_span,
                        format!("section names `{an}`, which is not a declared array"),
                    );
                }
            }
        }
    }
    if let Some(pe) = on {
        check_proc_expr(env, pe, name_span);
    }
    if let Some(&(_, want)) = BUILTIN_CALLS.iter().find(|(n, _)| *n == name) {
        if args.len() != want {
            let got = args.len();
            env.diag(
                "A002",
                name_span,
                format!("builtin `{name}` takes {want} arguments, got {got}"),
            );
        }
        return;
    }
    match env.prog.find(name) {
        Some(sub) => {
            if sub.params.len() != args.len() {
                let want = sub.params.len();
                let got = args.len();
                env.diag(
                    "A002",
                    name_span,
                    format!("`{name}` takes {want} arguments, got {got}"),
                );
            }
        }
        None => {
            env.diag(
                "A001",
                name_span,
                format!("no subroutine or builtin named `{name}`"),
            );
        }
    }
}

fn check_on_clause(env: &mut Env, on: &OnClause, span: Span) {
    match on {
        OnClause::Owner { array, subs } => {
            check_owner_subs(env, array, subs, span);
        }
        OnClause::Procs(pe) => check_proc_expr(env, pe, span),
    }
}

fn check_owner_subs(env: &mut Env, array: &str, subs: &[Option<Expr>], span: Span) {
    for s in subs.iter().flatten() {
        check_expr(env, s);
    }
    if let Some(info) = env.arrays.get(array) {
        if subs.len() != info.rank {
            let rank = info.rank;
            let got = subs.len();
            env.diag(
                "A003",
                span,
                format!("owner(): `{array}` has rank {rank}, selected with {got} subscripts"),
            );
        }
    } else if !env.is_param(array) {
        env.diag(
            "A001",
            span,
            format!("owner(): `{array}` is not a declared array"),
        );
    }
}

fn check_proc_expr(env: &mut Env, pe: &ProcExpr, span: Span) {
    match pe {
        ProcExpr::Whole(name) => {
            if !env.procs.contains_key(name) && !env.is_param(name) {
                env.diag(
                    "A001",
                    span,
                    format!("`{name}` is not a declared processor array"),
                );
            }
        }
        ProcExpr::Select { name, subs } => {
            for s in subs.iter().flatten() {
                check_expr(env, s);
            }
            match env.procs.get(name.as_str()) {
                Some(&rank) if rank != 0 && subs.len() != rank => {
                    let got = subs.len();
                    env.diag(
                        "A003",
                        span,
                        format!("processor array `{name}` has rank {rank}, selected with {got}"),
                    );
                }
                Some(_) => {}
                None => {
                    if !env.is_param(name) {
                        env.diag(
                            "A001",
                            span,
                            format!("`{name}` is not a declared processor array"),
                        );
                    }
                }
            }
        }
        ProcExpr::Owner { array, subs } => check_owner_subs(env, array, subs, span),
    }
}

// ---------- A005: provably non-owned writes ----------

/// A subscript as an affine function of one `doall` variable:
/// `coeff * var + offset`, or a loop-invariant constant (`var == None`).
struct Affine {
    var: Option<usize>,
    coeff: i64,
    offset: i64,
}

/// Recognize `c`, `v`, `v ± c`, `c*v ± d` over the doall variables.
/// Anything else — including other scalars — is opaque.
fn affine_of(e: &Expr, vars: &[String]) -> Option<Affine> {
    match &e.kind {
        ExprKind::Int(v) => Some(Affine {
            var: None,
            coeff: 0,
            offset: *v,
        }),
        ExprKind::Var(n) => vars.iter().position(|v| v == n).map(|i| Affine {
            var: Some(i),
            coeff: 1,
            offset: 0,
        }),
        ExprKind::Un { op: UnOp::Neg, e } => affine_of(e, vars).map(|a| Affine {
            var: a.var,
            coeff: -a.coeff,
            offset: -a.offset,
        }),
        ExprKind::Bin { op, l, r } => {
            let la = affine_of(l, vars)?;
            let ra = affine_of(r, vars)?;
            match op {
                BinOp::Add | BinOp::Sub => {
                    let sign = if *op == BinOp::Sub { -1 } else { 1 };
                    let var = match (la.var, ra.var) {
                        (Some(a), Some(b)) if a != b => return None,
                        (a, b) => a.or(b),
                    };
                    Some(Affine {
                        var,
                        coeff: la.coeff + sign * ra.coeff,
                        offset: la.offset + sign * ra.offset,
                    })
                }
                BinOp::Mul => match (la.var, ra.var) {
                    (None, _) => Some(Affine {
                        var: ra.var,
                        coeff: la.offset * ra.coeff,
                        offset: la.offset * ra.offset,
                    }),
                    (_, None) => Some(Affine {
                        var: la.var,
                        coeff: la.coeff * ra.offset,
                        offset: la.offset * ra.offset,
                    }),
                    _ => None,
                },
                _ => None,
            }
        }
        _ => None,
    }
}

/// Structural equality of expressions (bounds comparison for A005).
fn expr_eq(a: &Expr, b: &Expr) -> bool {
    match (&a.kind, &b.kind) {
        (ExprKind::Int(x), ExprKind::Int(y)) => x == y,
        (ExprKind::Real(x), ExprKind::Real(y)) => x == y,
        (ExprKind::Var(x), ExprKind::Var(y)) => x == y,
        (ExprKind::Un { op: oa, e: ea }, ExprKind::Un { op: ob, e: eb }) => {
            oa == ob && expr_eq(ea, eb)
        }
        (
            ExprKind::Bin {
                op: oa,
                l: la,
                r: ra,
            },
            ExprKind::Bin {
                op: ob,
                l: lb,
                r: rb,
            },
        ) => oa == ob && expr_eq(la, lb) && expr_eq(ra, rb),
        _ => false,
    }
}

fn bounds_eq(a: &[(Expr, Expr)], b: &[(Expr, Expr)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((al, ah), (bl, bh))| expr_eq(al, bl) && expr_eq(ah, bh))
}

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
fn check_owner_write(env: &mut Env, name: &str, subs: &[Expr], span: Span, dctx: &DoallCtx) {
    let Some(info) = env.arrays.get(name) else {
        return;
    };
    let Some(dist) = info.dist.clone() else {
        return; // replicated: every processor owns every element
    };
    match &dctx.on {
        OnClause::Procs(ProcExpr::Select { subs: psubs, .. }) => {
            // Provable only when every selector is a literal constant.
            let all_const = !psubs.is_empty()
                && psubs
                    .iter()
                    .all(|s| s.as_ref().is_some_and(|e| Env::const_of(e).is_some()));
            if !all_const {
                return;
            }
            for (d, sub) in subs.iter().enumerate() {
                if dist.get(d) == Some(&DistDim::Star) {
                    continue;
                }
                let Some(a) = affine_of(sub, &dctx.vars) else {
                    continue;
                };
                if a.var.is_some() && a.coeff != 0 {
                    env.diag(
                        "A005",
                        span,
                        format!(
                            "write to `{name}` ranges over its distributed dimension {} \
                             but `on procs(...)` pins every iteration to one processor",
                            d + 1
                        ),
                    )
                    .note = Some(
                        "on >= 2 processors some iteration writes an element it does not \
                         own; use `on owner(...)` to align iterations with storage"
                            .into(),
                    );
                    return;
                }
            }
        }
        OnClause::Owner {
            array: on_array,
            subs: on_subs,
        } => {
            let Some(on_info) = env.arrays.get(on_array) else {
                return;
            };
            // Identical declared layout is what makes misalignment
            // provable; different shapes or distributions need the
            // runtime ownership map.
            if on_info.dist.as_ref() != Some(&dist)
                || !bounds_eq(&on_info.bounds, &info.bounds)
                || on_subs.len() != subs.len()
            {
                return;
            }
            for (d, (ws, os)) in subs.iter().zip(on_subs).enumerate() {
                if dist.get(d) == Some(&DistDim::Star) {
                    continue;
                }
                let Some(os) = os else { continue };
                let (Some(wa), Some(oa)) = (affine_of(ws, &dctx.vars), affine_of(os, &dctx.vars))
                else {
                    continue;
                };
                if wa.var == oa.var
                    && wa.var.is_some()
                    && wa.coeff == oa.coeff
                    && wa.offset != oa.offset
                {
                    let delta = wa.offset - oa.offset;
                    env.diag(
                        "A005",
                        span,
                        format!(
                            "write to `{name}` is offset by {delta} from the owner() \
                             subscript in distributed dimension {}",
                            d + 1
                        ),
                    )
                    .note = Some(format!(
                        "iterations own the element at the owner() subscript; on >= 2 \
                         processors the element {delta} away crosses a block boundary \
                         for some iteration"
                    ));
                    return;
                }
            }
        }
        _ => {}
    }
}

// ---------- A006: SPMD divergence ----------

/// Does this expression read an *element* of a distributed array?
fn reads_distributed_element(env: &Env, e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Int(_) | ExprKind::Real(_) | ExprKind::Var(_) => false,
        ExprKind::Un { e, .. } => reads_distributed_element(env, e),
        ExprKind::Bin { l, r, .. } => {
            reads_distributed_element(env, l) || reads_distributed_element(env, r)
        }
        ExprKind::Ref { name, args } => {
            let here = env
                .arrays
                .get(name)
                .and_then(|i| i.dist.as_ref())
                .is_some_and(|d| d.iter().any(|x| *x != DistDim::Star));
            here || args.iter().any(|a| match a {
                RefArg::Expr(se) => reads_distributed_element(env, se),
                RefArg::Star => false,
            })
        }
    }
}

/// Does this statement list contain a collective (doall, distribute, or
/// a call to a parallel subroutine)?
fn contains_collective(env: &Env, body: &[Stmt]) -> Option<Span> {
    for s in body {
        match &s.kind {
            StmtKind::Doall { .. } | StmtKind::Distribute { .. } => return Some(s.span),
            StmtKind::Call { name, .. } if env.prog.find(name).is_some_and(|sub| sub.parallel) => {
                return Some(s.span);
            }
            StmtKind::Do { body, .. } => {
                if let Some(sp) = contains_collective(env, body) {
                    return Some(sp);
                }
            }
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                if let Some(sp) =
                    contains_collective(env, then_body).or(contains_collective(env, else_body))
                {
                    return Some(sp);
                }
            }
            _ => {}
        }
    }
    None
}

fn check_spmd_divergence(
    env: &mut Env,
    cond: &Expr,
    then_body: &[Stmt],
    else_body: &[Stmt],
    ctx: &Ctx,
) {
    if ctx.doall.is_some() {
        return; // inside a doall, iterations are already per-owner
    }
    if !reads_distributed_element(env, cond) {
        return;
    }
    if contains_collective(env, then_body)
        .or(contains_collective(env, else_body))
        .is_some()
    {
        env.diag(
            "A006",
            cond.span,
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
}

// ---------- A007: dead / shadowed distributes ----------

fn stmt_mentions(s: &Stmt, name: &str) -> bool {
    fn expr_mentions(e: &Expr, name: &str) -> bool {
        match &e.kind {
            ExprKind::Int(_) | ExprKind::Real(_) => false,
            ExprKind::Var(n) => n == name,
            ExprKind::Un { e, .. } => expr_mentions(e, name),
            ExprKind::Bin { l, r, .. } => expr_mentions(l, name) || expr_mentions(r, name),
            ExprKind::Ref { name: n, args } => {
                n == name
                    || args.iter().any(|a| match a {
                        RefArg::Expr(se) => expr_mentions(se, name),
                        RefArg::Star => false,
                    })
            }
        }
    }
    fn on_mentions(on: &OnClause, name: &str) -> bool {
        match on {
            OnClause::Owner { array, subs } => {
                array == name || subs.iter().flatten().any(|e| expr_mentions(e, name))
            }
            OnClause::Procs(pe) => proc_mentions(pe, name),
        }
    }
    fn proc_mentions(pe: &ProcExpr, name: &str) -> bool {
        match pe {
            ProcExpr::Whole(n) => n == name,
            ProcExpr::Select { name: n, subs } | ProcExpr::Owner { array: n, subs } => {
                n == name || subs.iter().flatten().any(|e| expr_mentions(e, name))
            }
        }
    }
    match &s.kind {
        StmtKind::Assign { lhs, rhs } => {
            lhs.name() == name
                || expr_mentions(rhs, name)
                || match &lhs.kind {
                    LValueKind::Element { subs, .. } => subs.iter().any(|e| expr_mentions(e, name)),
                    LValueKind::Scalar(_) => false,
                }
        }
        StmtKind::Do {
            lo, hi, step, body, ..
        } => {
            expr_mentions(lo, name)
                || expr_mentions(hi, name)
                || step.as_ref().is_some_and(|e| expr_mentions(e, name))
                || body.iter().any(|s| stmt_mentions(s, name))
        }
        StmtKind::Doall {
            ranges, on, body, ..
        } => {
            ranges.iter().any(|(lo, hi, st)| {
                expr_mentions(lo, name)
                    || expr_mentions(hi, name)
                    || st.as_ref().is_some_and(|e| expr_mentions(e, name))
            }) || on_mentions(on, name)
                || body.iter().any(|s| stmt_mentions(s, name))
        }
        StmtKind::Distribute { name: n, .. } => n == name,
        StmtKind::If {
            cond,
            then_body,
            else_body,
        } => {
            expr_mentions(cond, name)
                || then_body.iter().any(|s| stmt_mentions(s, name))
                || else_body.iter().any(|s| stmt_mentions(s, name))
        }
        StmtKind::Call { args, on, .. } => {
            args.iter().any(|a| match a {
                Arg::Expr(e) => expr_mentions(e, name),
                Arg::Section { name: an, subs, .. } => {
                    an == name
                        || subs.iter().any(|sec| match sec {
                            Section::Index(e) => expr_mentions(e, name),
                            Section::Range(e1, e2) => {
                                expr_mentions(e1, name) || expr_mentions(e2, name)
                            }
                            Section::All => false,
                        })
                }
            }) || on.as_ref().is_some_and(|pe| proc_mentions(pe, name))
        }
        StmtKind::Return => false,
    }
}

/// A `distribute X (...)` followed — in straight-line code at the same
/// nesting level — by another `distribute X` with no use of `X` between
/// them moved every element of `X` for nothing and invalidated every
/// cached schedule reading it. Flag the earlier one.
fn check_shadowed_distributes(env: &mut Env, body: &[Stmt]) {
    for (i, s) in body.iter().enumerate() {
        match &s.kind {
            StmtKind::Distribute { name, .. } => {
                for later in &body[i + 1..] {
                    if let StmtKind::Distribute { name: n2, .. } = &later.kind {
                        if n2 == name {
                            env.diag(
                                "A007",
                                s.span,
                                format!(
                                    "dead distribute: `{name}` is redistributed again \
                                     before any use"
                                ),
                            )
                            .note = Some(
                                "this redistribution moves data and invalidates cached \
                                 schedules, then nothing reads the layout it built"
                                    .into(),
                            );
                            break;
                        }
                    }
                    if stmt_mentions(later, name) {
                        break;
                    }
                }
            }
            StmtKind::Do { body, .. } => check_shadowed_distributes(env, body),
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                check_shadowed_distributes(env, then_body);
                check_shadowed_distributes(env, else_body);
            }
            _ => {}
        }
    }
}

// ---------- static communication plans ----------

fn collect_plans(
    env: &Env,
    sub: &Subroutine,
    body: &[Stmt],
    plans: &mut HashMap<usize, StaticCommPlan>,
) {
    for s in body {
        match &s.kind {
            StmtKind::Doall { site, body, .. } => {
                if let Some(reads) = plan_reads(env, body) {
                    plans.insert(
                        *site,
                        StaticCommPlan {
                            site: *site,
                            subroutine: sub.name.clone(),
                            reads,
                        },
                    );
                }
            }
            StmtKind::Do { body, .. } => collect_plans(env, sub, body, plans),
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                collect_plans(env, sub, then_body, plans);
                collect_plans(env, sub, else_body, plans);
            }
            _ => {}
        }
    }
}

/// The analyzable class: every statement is an element assignment, every
/// `Ref` names a declared array, and no subscript expression contains an
/// array reference. Returns the complete element-read list of one
/// iteration in evaluation order, or `None` if the body falls outside
/// the class.
fn plan_reads(env: &Env, body: &[Stmt]) -> Option<Vec<StaticRead>> {
    let mut reads = Vec::new();
    for s in body {
        let StmtKind::Assign { lhs, rhs } = &s.kind else {
            return None;
        };
        let LValueKind::Element { name, subs } = &lhs.kind else {
            return None;
        };
        if !env.arrays.contains_key(name) {
            return None;
        }
        // The interpreter evaluates the rhs first (reads in expression
        // order), then the lhs subscripts; subscripts are required
        // ref-free, so the rhs reads are the whole story.
        collect_reads(env, rhs, &mut reads)?;
        for se in subs {
            if !scalar_pure(se) {
                return None;
            }
        }
    }
    Some(reads)
}

/// No `Ref` anywhere: safe to evaluate without touching array storage.
fn scalar_pure(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Int(_) | ExprKind::Real(_) | ExprKind::Var(_) => true,
        ExprKind::Un { e, .. } => scalar_pure(e),
        ExprKind::Bin { l, r, .. } => scalar_pure(l) && scalar_pure(r),
        ExprKind::Ref { .. } => false,
    }
}

/// Walk `e` in evaluation order, appending one [`StaticRead`] per array
/// element reference. `None` if any `Ref` is not a declared array or has
/// non-scalar subscripts.
fn collect_reads(env: &Env, e: &Expr, out: &mut Vec<StaticRead>) -> Option<()> {
    match &e.kind {
        ExprKind::Int(_) | ExprKind::Real(_) | ExprKind::Var(_) => Some(()),
        ExprKind::Un { e, .. } => collect_reads(env, e, out),
        ExprKind::Bin { l, r, .. } => {
            collect_reads(env, l, out)?;
            collect_reads(env, r, out)
        }
        ExprKind::Ref { name, args } => {
            if !env.arrays.contains_key(name) {
                return None; // intrinsic or unknown: values may hide reads
            }
            let mut subs = Vec::with_capacity(args.len());
            for a in args {
                let RefArg::Expr(se) = a else { return None };
                if !scalar_pure(se) {
                    return None;
                }
                subs.push(se.clone());
            }
            out.push(StaticRead {
                name: name.clone(),
                subs,
            });
            Some(())
        }
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
