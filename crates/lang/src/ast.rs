//! Abstract syntax for the KF1 subset.
//!
//! Every expression, statement and l-value is a `{ kind, span }` pair:
//! the parser threads byte [`Span`]s from the lexer into every node, and
//! the resolver carries them onto the resolved nodes, so the interpreter
//! and the static analyzer can render caret-underlined diagnostics
//! pointing at the offending source text. A `dist` clause is `kali-grid`'s
//! [`DistSpec`] — one [`kali_grid::DimMap`] per dimension — the clause the
//! interpreter lays onto its processor array.

use kali_grid::DistSpec;

use crate::diag::Span;
use crate::resolve::RSub;

/// A whole source file: a set of (parallel) subroutines, the source text
/// they were parsed from (kept so spans can be rendered later), and their
/// resolved form — what the analyzer, the static plans and the
/// interpreter read.
#[derive(Debug, Clone)]
pub struct Program {
    pub subs: Vec<Subroutine>,
    pub src: String,
    /// `subs`, resolved, index for index.
    pub(crate) code: Vec<RSub>,
}

impl Program {
    pub fn find(&self, name: &str) -> Option<&Subroutine> {
        self.subs.iter().find(|s| s.name == name)
    }
}

/// `parsub name(a, b, c; procs)` — data parameters before the `;`,
/// an optional processor-array parameter after it.
#[derive(Debug, Clone)]
pub struct Subroutine {
    pub name: String,
    pub name_span: Span,
    pub parallel: bool,
    pub params: Vec<String>,
    pub proc_param: Option<String>,
    pub decls: Vec<Decl>,
    pub body: Vec<Stmt>,
}

/// Declarations.
#[derive(Debug, Clone)]
pub enum Decl {
    /// `processors procs(p, q)` — extents are identifiers (open sizes,
    /// bound from the actual processor array) or integer literals.
    Processors {
        name: String,
        name_span: Span,
        extents: Vec<Expr>,
    },
    /// `real X(0:np, 0:np) dist (block, block)` / `integer lo, hi` /
    /// `dynamic real tmp(4*p) dist (block)`.
    Arrays {
        is_real: bool,
        dynamic: bool,
        items: Vec<DeclItem>,
        dist: Option<DistSpec>,
    },
}

/// One declared name with optional dimension bounds.
#[derive(Debug, Clone)]
pub struct DeclItem {
    pub name: String,
    pub name_span: Span,
    /// Per dimension `(lo, hi)` bound expressions; `lo` defaults to 1.
    pub dims: Vec<(Expr, Expr)>,
}

/// A statement with its source span. For compound statements (`do`,
/// `doall`, `if`) the span covers the header line, not the whole body —
/// that is where diagnostics about the construct should point.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub kind: StmtKind,
    pub span: Span,
}

#[derive(Debug, Clone)]
pub enum StmtKind {
    /// `lhs(subs) = expr` or `scalar = expr`.
    Assign {
        lhs: LValue,
        rhs: Expr,
    },
    /// `do 100 i = lo, hi[, step] ... 100 continue`
    Do {
        var: String,
        lo: Expr,
        hi: Expr,
        step: Option<Expr>,
        body: Vec<Stmt>,
    },
    /// `doall 100 i = lo, hi[, step] on <onclause> ...` — `vars` has one
    /// or two loop variables (product ranges).
    Doall {
        /// Stable site id, unique per `doall` in a parse: the cache key
        /// under which the interpreter memoizes this loop's communication
        /// schedule across invocations (executor reuse).
        site: usize,
        vars: Vec<String>,
        ranges: Vec<(Expr, Expr, Option<Expr>)>,
        on: OnClause,
        body: Vec<Stmt>,
    },
    /// `distribute a (block, cyclic, *)` — change a distributed array's
    /// `dist` clause at run time. Data moves to the new owners and the
    /// array's distribution generation is bumped, invalidating any cached
    /// communication schedule that read or wrote it.
    Distribute {
        name: String,
        name_span: Span,
        dist: DistSpec,
    },
    /// `if (cond) then ... [else ...] endif` or one-armed logical if.
    If {
        cond: Expr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
    },
    /// `call name(args...; procexpr)`.
    Call {
        name: String,
        name_span: Span,
        args: Vec<Arg>,
        on: Option<ProcExpr>,
    },
    Return,
}

/// Left-hand side of an assignment.
#[derive(Debug, Clone)]
pub struct LValue {
    pub kind: LValueKind,
    pub span: Span,
}

#[derive(Debug, Clone)]
pub enum LValueKind {
    Scalar(String),
    Element { name: String, subs: Vec<Expr> },
}

impl LValue {
    pub fn name(&self) -> &str {
        match &self.kind {
            LValueKind::Scalar(n) => n,
            LValueKind::Element { name, .. } => name,
        }
    }
}

/// Call arguments: expressions or array sections.
#[derive(Debug, Clone)]
pub enum Arg {
    Expr(Expr),
    /// `a(lo:hi, *, e)` — an array section.
    Section {
        name: String,
        name_span: Span,
        subs: Vec<Section>,
    },
}

/// One subscript of an array section.
#[derive(Debug, Clone)]
pub enum Section {
    Index(Expr),
    Range(Expr, Expr),
    All,
}

/// The `on` clause of a doall.
#[derive(Debug, Clone)]
pub enum OnClause {
    /// `on owner(A(i, *, k))` — `None` entries are `*`.
    Owner {
        array: String,
        subs: Vec<Option<Expr>>,
    },
    /// `on procs(ip)` / `on procs(ip, *)`.
    Procs(ProcExpr),
}

/// A processor-array expression: the bare array, an element, or a slice.
#[derive(Debug, Clone)]
pub enum ProcExpr {
    /// Whole processor array by name.
    Whole(String),
    /// `procs(e, *, e)`-style selection; `None` = `*`.
    Select {
        name: String,
        subs: Vec<Option<Expr>>,
    },
    /// `owner(A(i, *))` used as a processor expression (Listing 7).
    Owner {
        array: String,
        subs: Vec<Option<Expr>>,
    },
}

/// An expression with its source span.
#[derive(Debug, Clone)]
pub struct Expr {
    pub kind: ExprKind,
    pub span: Span,
}

#[derive(Debug, Clone)]
pub enum ExprKind {
    Int(i64),
    Real(f64),
    Var(String),
    /// Array element reference or intrinsic/function call — resolved at
    /// evaluation time based on what the name is bound to.
    Ref {
        name: String,
        args: Vec<RefArg>,
    },
    Un {
        op: UnOp,
        e: Box<Expr>,
    },
    Bin {
        op: BinOp,
        l: Box<Expr>,
        r: Box<Expr>,
    },
}

/// Argument inside a `Ref` (array subscript or intrinsic argument —
/// intrinsics like `lower(x, procs(ip))` take processor selections).
#[derive(Debug, Clone)]
pub enum RefArg {
    Expr(Expr),
    Star,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl Expr {
    pub fn new(kind: ExprKind, span: Span) -> Expr {
        Expr { kind, span }
    }

    /// An integer literal with a given span (used for defaulted bounds).
    pub fn int(v: i64, span: Span) -> Expr {
        Expr::new(ExprKind::Int(v), span)
    }

    /// Static count of arithmetic operations, used by the interpreter to
    /// charge virtual flops for an assignment.
    pub fn flop_count(&self) -> f64 {
        match &self.kind {
            ExprKind::Int(_) | ExprKind::Real(_) | ExprKind::Var(_) => 0.0,
            ExprKind::Ref { args, .. } => args
                .iter()
                .map(|a| match a {
                    RefArg::Expr(e) => e.flop_count(),
                    RefArg::Star => 0.0,
                })
                .sum(),
            ExprKind::Un { e, .. } => 1.0 + e.flop_count(),
            ExprKind::Bin { l, r, .. } => 1.0 + l.flop_count() + r.flop_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(kind: ExprKind) -> Expr {
        Expr::new(kind, Span::default())
    }

    #[test]
    fn flop_count_counts_operators() {
        let ex = e(ExprKind::Bin {
            op: BinOp::Add,
            l: Box::new(e(ExprKind::Bin {
                op: BinOp::Mul,
                l: Box::new(e(ExprKind::Real(0.25))),
                r: Box::new(e(ExprKind::Var("x".into()))),
            })),
            r: Box::new(e(ExprKind::Int(1))),
        });
        assert_eq!(ex.flop_count(), 2.0);
    }

    #[test]
    fn program_lookup_by_name() {
        let p = Program {
            subs: vec![Subroutine {
                name: "jacobi".into(),
                name_span: Span::default(),
                parallel: true,
                params: vec![],
                proc_param: None,
                decls: vec![],
                body: vec![],
            }],
            src: String::new(),
            code: Vec::new(),
        };
        assert!(p.find("jacobi").is_some());
        assert!(p.find("nope").is_none());
    }
}
