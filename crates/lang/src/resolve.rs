//! The resolved tree: the one tree [`crate::parse`] builds from KF1 text.
//!
//! Every subroutine has a symbol table — one frame *slot* per distinct
//! name — and its declarations and body are nodes that carry slots
//! instead of strings. This tree is what every later stage reads: the
//! analyzer ([`crate::analyze`]) indexes what the declarations
//! make of each slot ([`Declared`]) instead of looking names up, the
//! static communication plans ([`crate::comm_plans`]) are fields of the
//! `doall` nodes ([`RDoall::plan`]), and the interpreter indexes a flat
//! frame and never hashes or compares a name while a program runs.
//! Everything else that is a pure function of the program text is
//! computed once per parse, rather than per trip or per element: the flop
//! charge of each assignment, which intrinsic or builtin a name denotes,
//! the callee of each `call`, and per `doall` site the facts the engine
//! asks of a body ([`RDoall`]: its exchange-list names, the names its
//! schedule key is built from, whether it calls a parallel subroutine,
//! whether its schedule can be cached at all). The one question left to
//! run time is which names are *bound to arrays* in the frame at hand;
//! [`sched_names`] answers the schedule-relevance scan under such a
//! classification. The nodes diagnostics point at carry their source
//! spans.
//!
//! The `doall` facts are gathered here, in one walk over each closed
//! body ([`RDoall::new`]), and so is whether a subroutine can run in
//! one activation per batch of a team call's lines ([`lockstep`]).
//!
//! Resolution is total: every program that parses resolves. A name that
//! denotes nothing still gets a slot; the analyzer reports it, and the
//! interpreter rejects it if it executes.

use kali_grid::DistSpec;

use crate::ast::{BinOp, UnOp};
use crate::diag::Span;
use crate::lower::{compile, Kernel};
use crate::value::Value;

/// Index of a name in its subroutine's symbol table, and of its binding
/// in every frame of that subroutine.
pub(crate) type Slot = usize;

/// The source span of a resolved node. Spans never make two nodes differ:
/// resolved trees compare by structure, so two declarations with the same
/// bounds are equal wherever they are written.
#[derive(Debug, Clone, Copy)]
pub(crate) struct At(pub Span);

impl PartialEq for At {
    fn eq(&self, _: &At) -> bool {
        true
    }
}

/// Functions legal in expression position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Intrinsic {
    Log2,
    Mod,
    Abs,
    Sqrt,
    Min,
    Max,
    Lower,
    Upper,
}

impl Intrinsic {
    pub(crate) fn of(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "log2" => Intrinsic::Log2,
            "mod" => Intrinsic::Mod,
            "abs" => Intrinsic::Abs,
            "sqrt" => Intrinsic::Sqrt,
            "min" => Intrinsic::Min,
            "max" => Intrinsic::Max,
            "lower" => Intrinsic::Lower,
            "upper" => Intrinsic::Upper,
            _ => return None,
        })
    }

    /// The fewest and the most arguments a reference takes.
    pub(crate) fn arity(self) -> (usize, usize) {
        match self {
            Intrinsic::Log2 | Intrinsic::Abs | Intrinsic::Sqrt => (1, 1),
            Intrinsic::Mod | Intrinsic::Min | Intrinsic::Max => (2, 2),
            Intrinsic::Lower | Intrinsic::Upper => (2, 3),
        }
    }
}

/// Built-in sequential kernels callable as statements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Builtin {
    Reduce,
    Seqtri,
    Spmv,
}

impl Builtin {
    pub(crate) fn of(name: &str) -> Option<Builtin> {
        let all = [Builtin::Reduce, Builtin::Seqtri, Builtin::Spmv];
        all.into_iter().find(|b| b.name() == name)
    }

    pub(crate) fn name(self) -> &'static str {
        match self {
            Builtin::Reduce => "reduce",
            Builtin::Seqtri => "seqtri",
            Builtin::Spmv => "spmv",
        }
    }

    /// The number of arguments a call takes.
    pub(crate) fn arity(self) -> usize {
        match self {
            Builtin::Reduce => 5,
            Builtin::Seqtri => 6,
            Builtin::Spmv => 4,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RExpr {
    Const(Value, At),
    Var(Slot, At),
    Un(UnOp, Box<RExpr>, At),
    Bin(BinOp, Box<RExpr>, Box<RExpr>, At),
    /// `name(args)`: an array element when the slot is bound to an array,
    /// otherwise the intrinsic the name denotes (if any). `None` args are
    /// `*`.
    Ref(Slot, Option<Intrinsic>, Vec<Option<RExpr>>, At),
}

impl RExpr {
    pub(crate) fn span(&self) -> Span {
        match self {
            RExpr::Const(_, at)
            | RExpr::Var(_, at)
            | RExpr::Un(.., at)
            | RExpr::Bin(.., at)
            | RExpr::Ref(.., at) => at.0,
        }
    }

    /// Static count of arithmetic operations, charged as virtual flops per
    /// execution of an assignment.
    pub(crate) fn flop_count(&self) -> f64 {
        match self {
            RExpr::Const(..) | RExpr::Var(..) => 0.0,
            RExpr::Ref(_, _, args, _) => {
                let args = args
                    .iter()
                    .map(|a| a.as_ref().map_or(0.0, RExpr::flop_count));
                args.sum()
            }
            RExpr::Un(_, e, _) => 1.0 + e.flop_count(),
            RExpr::Bin(_, l, r, _) => 1.0 + l.flop_count() + r.flop_count(),
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum RSection {
    Index(RExpr),
    Range(RExpr, RExpr),
    All,
}

#[derive(Debug, Clone)]
pub(crate) enum RArg {
    Expr(RExpr),
    /// A section of the array in the slot, spanning the array's name.
    Section(Slot, Vec<RSection>, At),
}

/// Processor expressions — and the `on` clause of a `doall`, where
/// `Owner` is `on owner(a(...))`. `None` subscripts are `*`.
#[derive(Debug, Clone)]
pub(crate) enum RProcExpr {
    Whole(Slot),
    Select(Slot, Vec<Option<RExpr>>),
    Owner(Slot, Vec<Option<RExpr>>),
}

#[derive(Debug, Clone)]
pub(crate) enum Callee {
    Builtin(Builtin),
    /// Index into the program's resolved subroutines.
    Sub(usize),
    /// No such subroutine (an error when the call executes).
    Unknown(String),
}

impl Callee {
    /// A builtin a batch of lines calls once, on sections placed once.
    pub(crate) fn lifts(&self) -> bool {
        matches!(self, Callee::Builtin(Builtin::Reduce | Builtin::Seqtri))
    }
}

#[derive(Debug, Clone)]
pub(crate) enum RStmt {
    /// `flops` is the right-hand side's static operation count, charged
    /// per execution; `at` spans the assignment target.
    AssignScalar {
        slot: Slot,
        rhs: RExpr,
        flops: f64,
        at: At,
    },
    /// `run` is the kernel over the line axis of the run of element
    /// assignments this one begins, if it is in the class
    /// ([`crate::lower::compile_runs`]).
    AssignElement {
        slot: Slot,
        subs: Vec<RExpr>,
        rhs: RExpr,
        flops: f64,
        at: At,
        run: Option<Box<Kernel>>,
    },
    /// `kernel` is the loop compiled as a strided kernel when its text is
    /// in the class ([`crate::lower::compile_loop`]); the interpreter runs
    /// it instead of walking the body where the bindings fit.
    Do {
        var: Slot,
        lo: RExpr,
        hi: RExpr,
        step: Option<RExpr>,
        body: Vec<RStmt>,
        kernel: Option<Kernel>,
    },
    Doall(RDoall),
    /// `at` spans the statement, `name_at` the array's name.
    Distribute {
        slot: Slot,
        dist: DistSpec,
        at: At,
        name_at: At,
    },
    If(RExpr, Vec<RStmt>, Vec<RStmt>),
    /// `at` spans the callee's name; `parallel` says the name is a
    /// parallel subroutine's, which makes the call a collective.
    Call {
        callee: Callee,
        args: Vec<RArg>,
        on: Option<RProcExpr>,
        at: At,
        parallel: bool,
    },
    Return,
}

impl RStmt {
    /// Does a batch of lines run this statement line after line
    /// ([`crate::interp`])? An element assignment does, and so does a call
    /// of anything but a builtin the batch calls once.
    pub(crate) fn by_line(&self) -> bool {
        match self {
            RStmt::Call { callee, .. } => !callee.lifts(),
            s => matches!(s, RStmt::AssignElement { .. }),
        }
    }
}

/// One occurrence of a name in a doall body, placed: whether it sits in
/// a schedule-relevant position is a fold over the references enclosing
/// it, innermost last. Subscripts of an *array* steer the inspector
/// whatever surrounds them; arguments of an intrinsic stay in their
/// caller's context; and `lower`/`upper` read only the *structure* of
/// their first argument (bounds, distribution, view — all of which the
/// cache key captures), so that argument is exempt unless the name turns
/// out to be bound to an array.
#[derive(Debug, Clone)]
pub(crate) struct Occurrence {
    slot: Slot,
    base: Base,
    /// Enclosing `head(args)` references: (head, this is the exempt
    /// first argument of `lower`/`upper`).
    path: Vec<(Slot, bool)>,
}

/// Where an [`Occurrence`]'s statement places it before any enclosing
/// reference is looked at.
#[derive(Debug, Clone, Copy, Default)]
enum Base {
    /// A subscript, branch condition, `do` bound or builtin argument.
    #[default]
    Always,
    /// The value assigned to an array element.
    Never,
    /// The value assigned to this scalar: relevant once the scalar is.
    IfSched(Slot),
}

/// A name the doall body reads (see [`RDoall::reads`]).
#[derive(Debug, Clone)]
pub(crate) struct ReadName {
    pub slot: Slot,
    /// First appearance, for the unbound-name diagnostic.
    pub span: Span,
    /// The name may legitimately lack a binding: an intrinsic, a loop
    /// variable, or a scalar the body itself defines (undefined on a
    /// processor whose iteration set is empty).
    pub may_be_unbound: bool,
}

/// One `doall` site with what its text alone determines.
#[derive(Debug, Clone)]
pub(crate) struct RDoall {
    pub site: usize,
    /// The header line.
    pub at: At,
    pub vars: Vec<Slot>,
    pub ranges: Vec<(RExpr, RExpr, Option<RExpr>)>,
    pub on: RProcExpr,
    pub body: Vec<RStmt>,
    /// How the interpreter runs the doall.
    pub kind: Kind,
    /// Names in read position anywhere in the body, in first-appearance
    /// order: the static list the exchange phase draws its arrays from.
    pub reads: Vec<ReadName>,
    /// Every name the schedule key may describe, sorted by name.
    pub names: Vec<Slot>,
    /// The body's name occurrences in keyed positions, as
    /// [`sched_names`] reads them.
    pub keyed: Vec<Occurrence>,
    /// No user-subroutine call, nested `doall` or `distribute` in the
    /// body: a local key can prove the schedule reusable.
    pub cacheable: bool,
    /// The static communication plan: the array of every element read
    /// of one iteration, in evaluation order. Present for a `doall`
    /// outside any other whose body is only element assignments to
    /// declared arrays with no array read inside a subscript — the
    /// affine-stencil class, whose communication the text alone fixes.
    pub plan: Option<Vec<Slot>>,
}

/// How a doall runs, as far as its text decides: a stencil or a CSR
/// product is placed ([`crate::lower::Placed`]) where a trip's bindings fit.
#[derive(Debug, Clone)]
pub(crate) enum Kind {
    Walk,
    /// The compiled row kernel of a planned site in the lowerable class
    /// ([`crate::lower`]).
    Stencil(Kernel),
    /// One CSR row product per iteration ([`csr`]).
    Csr(Box<Csr>),
    /// The body calls a parallel subroutine: team-call mode (Listing 7).
    /// With `batch` its lines may run a batch at a time as one activation
    /// of its callee ([`batchable`]) when the callee can
    /// ([`RSub::lockstep`]), each of the callee's doalls one trip.
    Lines {
        batch: bool,
    },
}

/// A doall in the CSR class ([`csr`]): the slots of `y`, `rp`, `ci`,
/// `av` and `x`, and the section of `x` the column indices count in.
#[derive(Debug, Clone)]
pub(crate) struct Csr {
    pub slots: [Slot; 5],
    pub x_secs: Vec<RSection>,
}

#[derive(Debug, Clone)]
pub(crate) enum RDecl {
    Processors(Slot, Vec<RExpr>),
    /// One item of a type declaration: an array when it has bounds (under
    /// its declaration's `dist` clause), a scalar when it has none.
    Item {
        slot: Slot,
        is_real: bool,
        bounds: Vec<(RExpr, RExpr)>,
        dist: Option<DistSpec>,
    },
}

/// What a subroutine's declarations make of one slot.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Declared {
    /// An array: the index in [`RSub::decls`] of the last item that gave
    /// it bounds.
    pub array: Option<usize>,
    /// A processor array, with its declared rank (`0` for the processor
    /// parameter while no `processors` declaration names it).
    pub procs: Option<usize>,
}

#[derive(Debug, Clone)]
pub(crate) struct RSub {
    pub name: String,
    pub parallel: bool,
    pub params: Vec<Slot>,
    pub proc_param: Option<Slot>,
    /// The symbol table: slot → name.
    pub names: Vec<String>,
    pub decls: Vec<RDecl>,
    /// Slot → what the declarations make of it.
    pub declared: Vec<Declared>,
    pub body: Vec<RStmt>,
    /// The lines of a team call can run this subroutine as one activation
    /// per batch ([`lockstep`]).
    pub lockstep: bool,
}

impl RSub {
    /// The bounds and `dist` clause of the declaration that makes `slot`
    /// an array.
    pub(crate) fn array(&self, slot: Slot) -> Option<(&[(RExpr, RExpr)], Option<&DistSpec>)> {
        match &self.decls[self.declared[slot].array?] {
            RDecl::Item { bounds, dist, .. } => Some((bounds, dist.as_ref())),
            RDecl::Processors(..) => None,
        }
    }
}

/// Can the lines of a team call run `sub` as one activation, a batch of
/// lines at a time ([`crate::interp`])? It is a parallel subroutine
/// without parallel calls or `distribute`, and no scalar assignment, `if`
/// condition, `do` or doall bound, `on` clause or argument of
/// `reduce`/`seqtri` reads an array element: what runs once for all the
/// lines is then the same on every line.
pub(crate) fn lockstep(sub: &RSub) -> bool {
    let element = |n: Node| match n {
        Node::Expr(RExpr::Ref(s, f, ..)) => {
            let d = sub.declared[*s];
            d.procs.is_none() && (f.is_none() || d.array.is_some())
        }
        _ => false,
    };
    let reads = |e: &RExpr| any_expr(e, &mut { element });
    let mut breaks = |n: Node| match n {
        Node::Stmt(RStmt::Call { parallel: true, .. } | RStmt::Distribute { .. }) => true,
        Node::Stmt(RStmt::AssignScalar { rhs: e, .. } | RStmt::If(e, ..)) => reads(e),
        Node::Stmt(RStmt::Do { lo, hi, step, .. }) => [lo, hi].into_iter().chain(step).any(reads),
        Node::Stmt(RStmt::Doall(d)) => {
            let once = |(l, h, s): &(_, _, Option<_>)| reads(l) || reads(h) || s.iter().any(reads);
            d.ranges.iter().any(once) || any_proc(&d.on, &mut { element })
        }
        Node::Stmt(s @ RStmt::Call { callee, .. }) if callee.lifts() => {
            any_stmt(std::slice::from_ref(s), &mut { element })
        }
        _ => false,
    };
    sub.parallel && !any_stmt(&sub.body, &mut breaks)
}

/// Is `d` a team call whose lines can be lifted ([`Kind::Lines`])? Its
/// body is one `call sub(…; owner(a(…)))` to a parallel `sub`, every array
/// argument is a section in which each loop variable, bare, fixes a
/// dimension, and the loop variables appear nowhere else among the
/// arguments: the lines bind equal scalars, and views that differ only
/// in the coordinates the loop variables pin. Nor does the call read an
/// array element, so binding every line before the first runs binds what
/// binding each in turn would.
fn batchable(d: &RDoall) -> bool {
    let [RStmt::Call {
        callee: Callee::Sub(_),
        args,
        on: Some(RProcExpr::Owner(_, on)),
        parallel: true,
        ..
    }] = &d.body[..]
    else {
        return false;
    };
    let var = |e: &RExpr| matches!(e, RExpr::Var(s, _) if d.vars.contains(s));
    let free = |e: &RExpr| !names_var(e, &d.vars) && !reads_element(e);
    let pins = |secs: &[RSection], v: &Slot| {
        secs.iter()
            .any(|s| matches!(s, RSection::Index(RExpr::Var(x, _)) if x == v))
    };
    let section = |secs: &[RSection]| {
        d.vars.iter().all(|v| pins(secs, v))
            && secs.iter().all(|s| match s {
                RSection::Index(e) => var(e) || free(e),
                RSection::Range(a, b) => free(a) && free(b),
                RSection::All => true,
            })
    };
    !on.iter().flatten().any(reads_element)
        && args.iter().all(|a| match a {
            RArg::Expr(e) => free(e),
            RArg::Section(_, secs, _) => section(secs),
        })
}

/// What a doall body's text says about it (the fields of [`RDoall`]),
/// gathered in one walk over the body in the order the interpreter
/// evaluates it: a right-hand side before its target's subscripts.
#[derive(Default)]
struct Facts {
    reads: Vec<(Slot, Span)>,
    names: Vec<Slot>,
    keyed: Vec<Occurrence>,
    /// Scalars the body defines: assignment targets and loop variables.
    defines: Vec<Slot>,
    team_call: bool,
    uncacheable: bool,
    /// Placement of the expression being walked ([`Occurrence`]).
    base: Base,
    path: Vec<(Slot, bool)>,
}

/// What an expression's names mean to the doall: nothing; a read (an
/// argument of a user-subroutine call — the callee's own reads are
/// invisible, so nothing of the call is keyed); or a read that also
/// enters the schedule key.
#[derive(Clone, Copy, PartialEq)]
enum Note {
    Off,
    Read,
    Keyed,
}
use Note::*;

fn push_new(list: &mut Vec<Slot>, s: Slot) {
    if !list.contains(&s) {
        list.push(s);
    }
}

impl Facts {
    fn of(body: &[RStmt]) -> Facts {
        let mut f = Facts::default();
        body.iter().for_each(|s| f.stmt(s));
        f
    }

    /// A name occurring at `span`, noted as `note` says.
    fn note(&mut self, slot: Slot, span: Span, note: Note) {
        if note != Off && !self.reads.iter().any(|(s, _)| *s == slot) {
            self.reads.push((slot, span));
        }
        if note == Keyed {
            push_new(&mut self.names, slot);
        }
    }

    /// A keyed name occurring in an expression (or as the section whose
    /// *values* `spmv` derives its gather from): placed for
    /// [`sched_names`].
    fn place(&mut self, slot: Slot, note: Note) {
        if note == Keyed {
            let (base, path) = (self.base, self.path.clone());
            self.keyed.push(Occurrence { slot, base, path });
        }
    }

    fn expr(&mut self, e: &RExpr, note: Note) {
        match e {
            RExpr::Const(..) => {}
            RExpr::Var(slot, at) => {
                self.note(*slot, at.0, note);
                self.place(*slot, note);
            }
            RExpr::Un(_, e, _) => self.expr(e, note),
            RExpr::Bin(_, l, r, _) => {
                self.expr(l, note);
                self.expr(r, note);
            }
            RExpr::Ref(slot, intrinsic, args, at) => {
                self.note(*slot, at.0, note);
                self.place(*slot, note);
                let bound = matches!(intrinsic, Some(Intrinsic::Lower | Intrinsic::Upper));
                for (k, arg) in args.iter().enumerate() {
                    if let Some(arg) = arg {
                        self.path.push((*slot, bound && k == 0));
                        self.expr(arg, note);
                        self.path.pop();
                    }
                }
            }
        }
    }

    fn stmt(&mut self, s: &RStmt) {
        match s {
            // An assignment target is keyed, never a read; a scalar one is
            // defined by the body.
            RStmt::AssignScalar { slot, rhs, .. } => {
                push_new(&mut self.names, *slot);
                self.defines.push(*slot);
                self.base = Base::IfSched(*slot);
                self.expr(rhs, Keyed);
                self.base = Base::Always;
            }
            RStmt::AssignElement {
                slot, subs, rhs, ..
            } => {
                push_new(&mut self.names, *slot);
                self.base = Base::Never;
                self.expr(rhs, Keyed);
                self.base = Base::Always;
                subs.iter().for_each(|e| self.expr(e, Keyed));
            }
            RStmt::If(cond, then_body, else_body) => {
                self.expr(cond, Keyed);
                then_body.iter().chain(else_body).for_each(|s| self.stmt(s));
            }
            // The loop variable is defined by the body, but keyed only
            // where something mentions it.
            RStmt::Do {
                var,
                lo,
                hi,
                step,
                body,
                ..
            } => {
                self.defines.push(*var);
                [lo, hi]
                    .into_iter()
                    .chain(step)
                    .for_each(|e| self.expr(e, Keyed));
                body.iter().for_each(|s| self.stmt(s));
            }
            RStmt::Return => {}
            // `distribute` rewrites ownership — never cache around it.
            RStmt::Distribute { .. } => self.uncacheable = true,
            RStmt::Call {
                callee,
                args,
                parallel,
                ..
            } => {
                let builtin = match callee {
                    Callee::Builtin(b) => Some(*b),
                    _ => None,
                };
                self.uncacheable |= builtin.is_none();
                self.team_call |= parallel;
                // Builtin section arguments are reads of the named array;
                // the gathered operand of `spmv` in particular must enter
                // the exchange, or its inspector-recorded remote columns
                // would trip the stale-read hazard check.
                let (expr_note, section_note) = match builtin {
                    Some(_) => (Keyed, Keyed),
                    None => (Read, Off),
                };
                for (k, arg) in args.iter().enumerate() {
                    let (slot, secs, at) = match arg {
                        RArg::Expr(e) => {
                            self.expr(e, expr_note);
                            continue;
                        }
                        RArg::Section(slot, secs, at) => (*slot, secs, at),
                    };
                    self.note(slot, at.0, section_note);
                    // spmv derives its x-gather from the *values* of the
                    // column-index section (argument 2): those values are
                    // schedule-relevant the same way a subscript array
                    // would be.
                    if builtin == Some(Builtin::Spmv) && k == 1 {
                        self.place(slot, Keyed);
                    }
                    for sec in secs {
                        match sec {
                            RSection::Index(e) => self.expr(e, section_note),
                            RSection::Range(a, b) => {
                                self.expr(a, section_note);
                                self.expr(b, section_note);
                            }
                            RSection::All => {}
                        }
                    }
                }
            }
            // Nested doalls error in the inspector path — never cache
            // around one. Its variables and scalar assignments still count
            // as defined by the enclosing body.
            RStmt::Doall(d) => {
                self.uncacheable = true;
                self.defines.extend(&d.vars);
                self.defines.extend(Facts::of(&d.body).defines);
            }
        }
    }
}

impl RDoall {
    /// A `doall` node with what its text determines, in a subroutine
    /// whose symbol table is `names` and whose declarations make `declared`
    /// of it; `nested` inside another `doall`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        site: usize,
        at: At,
        vars: Vec<Slot>,
        ranges: Vec<(RExpr, RExpr, Option<RExpr>)>,
        on: RProcExpr,
        body: Vec<RStmt>,
        nested: bool,
        (names, declared): (&[String], &[Declared]),
    ) -> RDoall {
        let mut f = Facts::of(&body);
        f.names.sort_by(|a, b| names[*a].cmp(&names[*b]));
        let reads = f.reads.iter().map(|&(slot, span)| ReadName {
            slot,
            span,
            may_be_unbound: Intrinsic::of(&names[slot]).is_some()
                || Builtin::of(&names[slot]).is_some()
                || vars.contains(&slot)
                || f.defines.contains(&slot),
        });
        let is_array = |slot: Slot| declared[slot].array.is_some();
        let mut d = RDoall {
            site,
            at,
            reads: reads.collect(),
            plan: if nested { None } else { plan(&body, is_array) },
            vars,
            ranges,
            on,
            body,
            kind: Kind::Walk,
            names: f.names,
            keyed: f.keyed,
            cacheable: !f.uncacheable,
        };
        let (batch, csr) = (batchable(&d), csr(&d).map(Kind::Csr));
        d.kind = match (f.team_call, compile(&d)) {
            (true, _) => Kind::Lines { batch },
            (false, k) => k.map(Kind::Stencil).or(csr).unwrap_or(Kind::Walk),
        };
        d
    }
}

/// Is `d` one CSR row product per iteration ([`Kind::Csr`])? It runs
/// `doall i = … on owner(y(i))` over exactly `call spmv(y(i:i),
/// ci(r(i):r(i + 1) - 1), av(r(i):r(i + 1) - 1), x(…))` (`i` and `i + 1`
/// as [`shift_of`] reads them), whose one section of `x` mentions neither
/// `i` nor an array element. The bindings are checked per trip
/// ([`crate::lower::Placed::csr`]).
fn csr(d: &RDoall) -> Option<Box<Csr>> {
    let ([i], RProcExpr::Owner(y, on), [RStmt::Call { callee, args, .. }]) =
        (&d.vars[..], &d.on, &d.body[..])
    else {
        return None;
    };
    let var = |e: &RExpr| shift_of(e, *i) == Some(0);
    let one = |e: &RExpr| matches!(e, RExpr::Const(Value::Int(1), _));
    let [RArg::Section(ys, ysec, _), RArg::Section(ci, csec, _), RArg::Section(av, asec, _), RArg::Section(x, xsec, _)] =
        &args[..]
    else {
        return None;
    };
    let ([Some(at)], [RSection::Range(y0, y1)], [RSection::Range(lo, hi)]) =
        (&on[..], &ysec[..], &csec[..])
    else {
        return None;
    };
    let (RExpr::Ref(rp, _, first, _), RExpr::Bin(BinOp::Sub, end, c, _)) = (lo, hi) else {
        return None;
    };
    let RExpr::Ref(r, _, next, _) = &**end else {
        return None;
    };
    let by_i = matches!(&first[..], [Some(e)] if var(e))
        && matches!(&next[..], [Some(e)] if shift_of(e, *i) == Some(1));
    let same = matches!(&asec[..], [RSection::Range(l, h)] if l == lo && h == hi);
    let varies = |e: &RExpr| reads_element(e) || names_var(e, &d.vars);
    let x_free = match &xsec[..] {
        [RSection::Range(a, b)] => !varies(a) && !varies(b),
        secs => matches!(secs, [RSection::All]),
    };
    let fits = matches!(callee, Callee::Builtin(Builtin::Spmv))
        && ys == y
        && r == rp
        && one(c)
        && [at, y0, y1].into_iter().all(var)
        && by_i
        && same
        && x_free;
    let (slots, x_secs) = ([*y, *rp, *ci, *av, *x], xsec.clone());
    fits.then(|| Box::new(Csr { slots, x_secs }))
}

/// A doall body's [`RDoall::plan`], if it has one. The interpreter
/// evaluates a right-hand side before the target's subscripts, and those
/// are required free of array reads: the right-hand sides' element
/// references, in order, are every read.
fn plan(body: &[RStmt], is_array: impl Fn(Slot) -> bool) -> Option<Vec<Slot>> {
    let scalar_pure = |e: &RExpr| !reads_element(e);
    let mut reads = Vec::new();
    for s in body {
        let RStmt::AssignElement {
            slot, subs, rhs, ..
        } = s
        else {
            return None;
        };
        if !is_array(*slot) || !subs.iter().all(scalar_pure) {
            return None;
        }
        let outside = any_expr(rhs, &mut |n| {
            let Node::Expr(RExpr::Ref(slot, _, args, _)) = n else {
                return false;
            };
            // An intrinsic or unknown name may hide reads in its value.
            let pure = args.iter().all(|a| a.as_ref().is_some_and(scalar_pure));
            if !is_array(*slot) || !pure {
                return true;
            }
            reads.push(*slot);
            false
        });
        if outside {
            return None;
        }
    }
    Some(reads)
}

/// A node of a resolved body, as [`any_stmt`] and [`any_expr`] visit it.
pub(crate) enum Node<'a> {
    Stmt(&'a RStmt),
    Expr(&'a RExpr),
    /// A use of a name: a variable, the head of a reference, an
    /// assignment target, a `distribute`d or sectioned array, the head of
    /// a processor expression or `on` clause. Loop variables and callees
    /// are not uses.
    Name(Slot),
}

/// Does `f` hold for some node of `body`? Statements are visited before
/// their parts, expressions before their operands, left to right — for
/// a right-hand side that is evaluation order.
pub(crate) fn any_stmt<F: FnMut(Node) -> bool>(body: &[RStmt], f: &mut F) -> bool {
    let opt = |e: &Option<RExpr>, f: &mut F| e.as_ref().is_some_and(|e| any_expr(e, f));
    body.iter().any(|s| {
        f(Node::Stmt(s))
            || match s {
                RStmt::AssignScalar { slot, rhs, .. } => f(Node::Name(*slot)) || any_expr(rhs, f),
                RStmt::AssignElement {
                    slot, subs, rhs, ..
                } => {
                    f(Node::Name(*slot)) || any_expr(rhs, f) || subs.iter().any(|e| any_expr(e, f))
                }
                RStmt::Do {
                    lo, hi, step, body, ..
                } => any_expr(lo, f) || any_expr(hi, f) || opt(step, f) || any_stmt(body, f),
                RStmt::Doall(d) => {
                    let mut ranges = d.ranges.iter();
                    ranges.any(|(lo, hi, st)| any_expr(lo, f) || any_expr(hi, f) || opt(st, f))
                        || any_proc(&d.on, f)
                        || any_stmt(&d.body, f)
                }
                RStmt::Distribute { slot, .. } => f(Node::Name(*slot)),
                RStmt::If(cond, then_body, else_body) => {
                    any_expr(cond, f) || any_stmt(then_body, f) || any_stmt(else_body, f)
                }
                RStmt::Call { args, on, .. } => {
                    args.iter().any(|a| match a {
                        RArg::Expr(e) => any_expr(e, f),
                        RArg::Section(slot, secs, _) => {
                            f(Node::Name(*slot))
                                || secs.iter().any(|sec| match sec {
                                    RSection::Index(e) => any_expr(e, f),
                                    RSection::Range(a, b) => any_expr(a, f) || any_expr(b, f),
                                    RSection::All => false,
                                })
                        }
                    }) || on.as_ref().is_some_and(|pe| any_proc(pe, f))
                }
                RStmt::Return => false,
            }
    })
}

fn any_proc<F: FnMut(Node) -> bool>(pe: &RProcExpr, f: &mut F) -> bool {
    match pe {
        RProcExpr::Whole(slot) => f(Node::Name(*slot)),
        RProcExpr::Select(slot, subs) | RProcExpr::Owner(slot, subs) => {
            f(Node::Name(*slot)) || subs.iter().flatten().any(|e| any_expr(e, f))
        }
    }
}

/// [`any_stmt`] over one expression.
pub(crate) fn any_expr<F: FnMut(Node) -> bool>(e: &RExpr, f: &mut F) -> bool {
    f(Node::Expr(e))
        || match e {
            RExpr::Const(..) => false,
            RExpr::Var(slot, _) => f(Node::Name(*slot)),
            RExpr::Un(_, e, _) => any_expr(e, f),
            RExpr::Bin(_, l, r, _) => any_expr(l, f) || any_expr(r, f),
            RExpr::Ref(slot, _, args, _) => {
                f(Node::Name(*slot)) || args.iter().flatten().any(|a| any_expr(a, f))
            }
        }
}

/// Constant value of an integer literal, possibly negated.
pub(crate) fn const_of(e: &RExpr) -> Option<i64> {
    match e {
        RExpr::Const(Value::Int(v), _) => Some(*v),
        RExpr::Un(UnOp::Neg, e, _) => const_of(e)?.checked_neg(),
        _ => None,
    }
}

/// A subscript as an affine function of one loop variable, `vars[var]`:
/// `coeff * var + offset`, or a loop-invariant constant (`var == None`).
pub(crate) struct Affine {
    pub var: Option<usize>,
    pub coeff: i64,
    pub offset: i64,
}

/// Recognize `c`, `v`, `v ± c`, `c*v ± d` over the loop variables `vars`.
/// Anything else — including other scalars, and arithmetic that
/// overflows — is opaque.
pub(crate) fn affine_of(e: &RExpr, vars: &[Slot]) -> Option<Affine> {
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

/// `c`, where [`affine_of`] reads subscript `e` as `var + c`.
pub(crate) fn shift_of(e: &RExpr, var: Slot) -> Option<i64> {
    let a = affine_of(e, &[var])?;
    (a.coeff == 1).then_some(a.offset)
}

/// Does `e` read an array element (or call an intrinsic, spelled alike)?
pub(crate) fn reads_element(e: &RExpr) -> bool {
    any_expr(e, &mut |n| matches!(n, Node::Expr(RExpr::Ref(..))))
}

/// Does `e` name one of `vars`?
pub(crate) fn names_var(e: &RExpr, vars: &[Slot]) -> bool {
    any_expr(e, &mut |n| matches!(n, Node::Name(s) if vars.contains(&s)))
}

/// The names of a doall body in schedule-relevant positions —
/// subscripts, branch conditions, `do` bounds, builtin arguments — closed
/// transitively through the body's own scalar assignments: a scalar
/// whose value can reach such a position drags its own inputs in.
/// `is_array` classifies reference heads in the frame at hand.
pub(crate) fn sched_names(d: &RDoall, is_array: impl Fn(Slot) -> bool) -> Vec<Slot> {
    let mut out = Vec::new();
    loop {
        let before = out.len();
        for o in &d.keyed {
            let base = match o.base {
                Base::Always => true,
                Base::Never => false,
                Base::IfSched(target) => out.contains(&target),
            };
            let relevant = o.path.iter().fold(base, |inherited, &(head, exempt)| {
                is_array(head) || inherited && !exempt
            });
            if relevant {
                push_new(&mut out, o.slot);
            }
        }
        if out.len() == before {
            return out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Program;

    #[test]
    fn flop_count_counts_operators() {
        let at = At(Span::default());
        let leaf = |e: RExpr| Box::new(e);
        let product = RExpr::Bin(
            BinOp::Mul,
            leaf(RExpr::Const(Value::Real(0.25), at)),
            leaf(RExpr::Var(0, at)),
            at,
        );
        let sum = RExpr::Bin(
            BinOp::Add,
            leaf(product),
            leaf(RExpr::Const(Value::Int(1), at)),
            at,
        );
        assert_eq!(sum.flop_count(), 2.0);
        // Subscripts count, the reference itself does not.
        let neg = RExpr::Un(UnOp::Neg, leaf(RExpr::Var(1, at)), at);
        assert_eq!(
            RExpr::Ref(2, None, vec![Some(sum), None, Some(neg)], at).flop_count(),
            3.0
        );
    }

    /// The first doall of a program's first subroutine, with its symbol
    /// table.
    fn first_doall(prog: &Program) -> (&RDoall, &[String]) {
        let sub = &prog.code[0];
        let doall = sub.body.iter().find_map(|s| match s {
            RStmt::Doall(d) => Some(d),
            _ => None,
        });
        (doall.expect("a doall"), &sub.names)
    }
    fn sorted_names(slots: &[Slot], names: &[String]) -> Vec<String> {
        let mut out: Vec<String> = slots.iter().map(|&s| names[s].clone()).collect();
        out.sort();
        out
    }

    #[test]
    fn doall_facts_and_schedule_relevance_follow_the_body_text() {
        let src = r#"
parsub t(x, wy, f, n; procs)
  processors procs(p)
  real x(n), f(n) dist (block)
  real wy(2*p, p) dist (*, block)
  doall 400 ip = 1, p on procs(ip)
    lo = lower(x, procs(ip))
    s = 2.0*c
    x(lo) = wy(2*ip - 1, ip)*s
    do 350 i = lo + 1, n
      x(i) = f(i) / q
350 continue
400 continue
end
"#;
        let prog = crate::parse(src).unwrap();
        let (d, names) = first_doall(&prog);
        assert!(d.cacheable && matches!(d.kind, Kind::Walk));
        let reads: Vec<_> = d.reads.iter().map(|r| names[r.slot].as_str()).collect();
        assert_eq!(
            reads,
            ["lower", "x", "procs", "ip", "c", "wy", "s", "lo", "n", "f", "i", "q"],
            "first-appearance order fixes the exchange list"
        );
        let unbound_ok: Vec<_> = d.reads.iter().filter(|r| r.may_be_unbound).collect();
        let unbound_ok: Vec<_> = unbound_ok.iter().map(|r| names[r.slot].as_str()).collect();
        assert_eq!(unbound_ok, ["lower", "ip", "s", "lo", "i"]);
        let all = sorted_names(&d.names, names);
        assert!(
            all.windows(2).all(|w| w[0] < w[1]),
            "sorted by name: {all:?}"
        );

        // With x, wy and f arrays: subscripts and the `do` bounds are
        // relevant, and through `lo` so is what `lower` selects by — but
        // not x itself (structure only), nor the pure values c, s, q.
        let arrays = |set: &'static [&str]| move |s: Slot| set.contains(&names[s].as_str());
        let rel = sched_names(d, arrays(&["x", "wy", "f"]));
        // (`lower` is listed as the head of a relevant reference; it has
        // no binding, so the key never sees it.)
        assert_eq!(
            sorted_names(&rel, names),
            ["i", "ip", "lo", "lower", "n", "procs"]
        );
        // Were `lower` itself bound to an array, its first subscript would
        // steer the inspector like any other.
        let rel = sched_names(d, arrays(&["x", "wy", "f", "lower"]));
        assert_eq!(
            sorted_names(&rel, names),
            ["i", "ip", "lo", "lower", "n", "procs", "x"]
        );
    }

    #[test]
    fn calls_nested_loops_and_distribute_make_a_body_uncacheable() {
        for (stmt, team_call) in [
            ("call other(a, n; procs)", true),
            ("call helper(n)", false),
            ("distribute a (cyclic)", false),
            (
                "doall 50 j = 1, n on owner(a(j))\n  k = j\n50 continue",
                false,
            ),
        ] {
            let src = format!(
                "parsub t(a, n; procs)\n  processors procs(p)\n  real a(n) dist (block)\n  \
                 doall 100 i = 1, n on owner(a(i))\n    {stmt}\n    a(i) = k\n100 continue\nend\n\
                 parsub other(a, n; procs)\nend\nsubroutine helper(n)\nend\n"
            );
            let prog = crate::parse(&src).unwrap();
            let (d, names) = first_doall(&prog);
            assert!(!d.cacheable, "{stmt}");
            let lines = matches!(d.kind, Kind::Lines { batch: false });
            assert_eq!(lines, team_call, "{stmt}");
            // A scalar only a nested loop defines still counts as defined.
            let k = d
                .reads
                .iter()
                .find(|r| names[r.slot] == "k")
                .expect("k is read");
            assert_eq!(k.may_be_unbound, stmt.starts_with("doall"), "{stmt}");
        }
    }

    /// What the front end derives from each shipped listing's text, one
    /// line per fact: per `doall` its site, reads in order (`?` marks
    /// `may_be_unbound`), key names, the keyed names when every declared
    /// array is bound to an array, `cacheable`, the plan's arrays and the
    /// kind — `walk`, `stencil`, `csr`, `lines`, or `batch` for lines that
    /// may be lifted; per `call` its callee and `parallel`;
    /// per `do` whether it compiled; per subroutine `lockstep`.
    fn facts(listing: &str) -> Vec<String> {
        let prog = crate::parse(crate::listing(listing).unwrap()).unwrap();
        let mut out = Vec::new();
        for sub in &prog.code {
            let name = |s: &Slot| sub.names[*s].clone();
            let list =
                |slots: &mut dyn Iterator<Item = String>| slots.collect::<Vec<_>>().join(" ");
            out.push(format!("{} lockstep {}", sub.name, sub.lockstep));
            any_stmt(&sub.body, &mut |n| {
                let line = match n {
                    Node::Stmt(RStmt::Doall(d)) => {
                        let reads = d.reads.iter().map(|r| {
                            format!(
                                "{}{}",
                                name(&r.slot),
                                if r.may_be_unbound { "?" } else { "" }
                            )
                        });
                        let keyed = sched_names(d, |s| sub.declared[s].array.is_some());
                        let plan = match &d.plan {
                            Some(reads) => list(&mut reads.iter().map(name)),
                            None => "none".into(),
                        };
                        format!(
                            "  doall {}\n    reads {}\n    names {}\n    keyed {}\n    \
                             plan {plan}\n    cacheable {} kind {}",
                            d.site,
                            list(&mut reads.into_iter()),
                            list(&mut d.names.iter().map(name)),
                            list(&mut keyed.iter().map(name)),
                            d.cacheable,
                            match d.kind {
                                Kind::Walk => "walk",
                                Kind::Stencil(_) => "stencil",
                                Kind::Csr(_) => "csr",
                                Kind::Lines { batch: false } => "lines",
                                Kind::Lines { batch: true } => "batch",
                            },
                        )
                    }
                    Node::Stmt(RStmt::Call {
                        callee, parallel, ..
                    }) => {
                        let callee = match callee {
                            Callee::Builtin(b) => b.name().to_string(),
                            Callee::Sub(k) => prog.code[*k].name.clone(),
                            Callee::Unknown(n) => format!("unknown {n}"),
                        };
                        format!("  call {callee} parallel {parallel}")
                    }
                    Node::Stmt(RStmt::Do { var, kernel, .. }) => {
                        format!("  do {} kernel {}", name(var), kernel.is_some())
                    }
                    _ => return false,
                };
                out.push(line);
                false
            });
        }
        out
    }

    /// [`facts`] of the five listings, pinned.
    const FACTS: &str = "\
jacobi
jacobi lockstep true
  do it kernel false
  doall 0
    reads x i? j? f
    names f i j x
    keyed i j
    plan x x x x f
    cacheable true kind stencil
shift
shift lockstep true
  doall 0
    reads a i?
    names a i
    keyed i
    plan a
    cacheable true kind stencil
tri
tri lockstep true
  doall 0
    reads lower? x procs ip? upper? b lo? hi? a c f
    names a b c f hi ip lo lower procs ra rb rc rf upper x
    keyed lo hi ip lower procs upper
    plan none
    cacheable true kind walk
  call reduce parallel false
  doall 1
    reads m rb k? ip? ra rc rf
    names ip k m ra rb rc rf wa wb wc wf
    keyed m k ip
    plan none
    cacheable true kind walk
  do k kernel true
  doall 2
    reads wy ip? wb wa wc wf m
    names ip m wa wb wc wf wy
    keyed ip m
    plan none
    cacheable true kind walk
  call seqtri parallel false
  doall 3
    reads lower? x procs ip? upper? wy lo? hi? f i? b c a
    names a b c f hi i ip lo lower procs upper wy x
    keyed ip lo hi i lower procs upper
    plan none
    cacheable true kind walk
  do i kernel true
adi
adi lockstep false
  do it kernel false
  call resid parallel true
  doall 0
    reads rho cy np
    names 
    keyed 
    plan none
    cacheable false kind batch
  call tric parallel true
  call resid parallel true
  doall 1
    reads rho cx np
    names 
    keyed 
    plan none
    cacheable false kind batch
  call tric parallel true
resid lockstep true
  doall 2
    reads f i? j? cx u cy cd
    names cd cx cy f i j r u
    keyed i j
    plan f u u u u u
    cacheable true kind stencil
tric lockstep true
  doall 3
    reads max? lower? x procs ip? min? upper? n lo? hi? cc i? rho g
    names a b c cc f g hi i ip lo lower max min n procs rho upper x
    keyed lo hi i n max lower procs ip min upper
    plan none
    cacheable true kind walk
  do i kernel true
  doall 4
    reads max? lower? x procs ip? min? upper? n b lo? hi? a c f
    names a b c f hi ip lo lower max min n procs ra rb rc rf upper x
    keyed lo hi ip max lower procs min upper n
    plan none
    cacheable true kind walk
  call reduce parallel false
  doall 5
    reads m rb k? ip? ra rc rf
    names ip k m ra rb rc rf wa wb wc wf
    keyed m k ip
    plan none
    cacheable true kind walk
  do k kernel true
  doall 6
    reads wy ip? wb wa wc wf m
    names ip m wa wb wc wf wy
    keyed ip m
    plan none
    cacheable true kind walk
  call seqtri parallel false
  doall 7
    reads max? lower? x procs ip? min? upper? n lo? wy hi? i? f b c a
    names a b c f hi i ip lo lower max min n procs upper wy x
    keyed lo ip hi i max lower procs min upper n
    plan none
    cacheable true kind walk
  do i kernel true
spmv
spmvit lockstep true
  do t kernel false
  doall 0
    reads y i? ci rp av x n
    names av ci i n rp x y
    keyed i ci rp n
    plan none
    cacheable true kind csr
  call spmv parallel false
  doall 1
    reads y i?
    names i x y
    keyed i
    plan y
    cacheable true kind stencil
";

    #[test]
    fn the_front_end_facts_of_the_listings() {
        let mut got = String::new();
        for listing in ["jacobi", "shift", "tri", "adi", "spmv"] {
            got += &format!("{listing}\n{}\n", facts(listing).join("\n"));
        }
        assert_eq!(got, FACTS);
    }

    /// The lines of a team call bind disjoint storage only when every loop
    /// variable fixes a dimension of every section: under `(i, j)`,
    /// `w(i, *, *)` binds the same storage for every `j`.
    #[test]
    fn a_team_call_batches_only_when_every_loop_variable_pins_its_sections() {
        for (section, batch) in [
            ("w(i, j, *)", true),
            ("w(j, *, i)", true),
            ("w(i, *, *)", false),
            ("w(*, j, *)", false),
            ("w(i, j + 1, *)", false),
        ] {
            let src = format!(
                "parsub t(w, n; procs)\n  processors procs(p)\n  real w(n, n, n) dist (block, *, *)\n  \
                 doall 100 (i, j) = [1, n] * [1, n] on owner(w(i, j, 1))\n    \
                 call s({section}, n; owner(w(i, j, *)))\n100 continue\nend\n\
                 parsub s(x, n; procs)\n  processors procs(q)\nend\n"
            );
            let prog = crate::parse(&src).unwrap();
            let (d, _) = first_doall(&prog);
            assert!(
                matches!(d.kind, Kind::Lines { batch: b } if b == batch),
                "{section}"
            );
        }
    }
}
