//! Compiled element assignments, and the one placement that runs them: a
//! box of iterations whose rows run a chunk at a time.
//!
//! A `doall` whose body is one element assignment `x(i, j) = rhs` on
//! `owner(x(i, j))`, every element read in `rhs` a whole array subscripted `a(i
//! ± c, j ± c)`, needs no tree walk. Here and below, `v ± c` is every subscript
//! that [`affine_of`](crate::resolve::affine_of) reads with coefficient 1 in
//! `v` (`i - 1`, `1 + i`, `i + 2 - 1`). [`compile`] turns `rhs`, once per site,
//! into a flat register program whose every instruction processes a chunk
//! ([`CHUNK`] iterations) of a row at a time: an operand is an element read's
//! values along the chunk or a register — an earlier instruction's result, or a
//! loop-invariant subtree (no element read, no loop variable) that the
//! interpreter's own `eval` computes, broadcast along the chunk, so Int/Real
//! typing is exactly the walker's. The same compiler takes a sequential `do v =
//! lo, hi` loop ([`compile_loop`]) whose step is 1 and whose body is element
//! assignments only, every reference that mentions `v` of any rank with one
//! subscript `v ± c` and scalars — no element read, call or `v` — in the others
//! (`wb(k, ip) = rb(k)`); there a maximal subtree without `v` is an invariant
//! even when it reads an element (`wy(2*ip - 1, ip)`). In a batch of lines run
//! as one activation, a run of element assignments whose every subscript is a
//! scalar ([`compile_runs`]) is a kernel whose iterations are the lines.
//!
//! A [`Placed`] body is a kernel or a CSR product. A kernel's references
//! are [`Strided`] sequences in its site's [`Scratch`] — element `t` of row
//! `r` at a start, a step and a row stride — and it runs its positions row
//! by row, each row's run a chunk at a time and each chunk statement by
//! statement, so each assignment's reads follow the previous one's writes.
//! A stencil doall ([`Placed::stencil`]) is a box of rows of its arrays:
//! my iterations are the on-array's owned block, read off its `Layout`,
//! met with the loop bounds, and the *interior* — the iterations whose
//! every read is owned — is the meet of each read array's owned block
//! shifted back by the read's offset, the inspector's own classification,
//! from which [`Placed::inspect`] derives what the walk would record. Its
//! reads are sliced from storage and its results committed at once
//! ([`Placed::commit`]). A loop or a run ([`Placed::kernel`]) is a box of
//! a batch's lines × the loop's iterations (a run's iterations are the
//! lines), every reference stepping a line's step from row to row; its
//! reads are loaded and its writes go through storage, so it runs only
//! where no iteration reads what another writes — nothing written is
//! referenced at another address, not even by an invariant — and where a
//! write is a plain store (a write-through doall iteration), all its rows
//! in one call, each with its line's invariants, evaluated beforehand into
//! a column of the scratch. Lines touch disjoint storage, so only each
//! line's own order matters. Where every element read is owned too,
//! a placed loop stands in for the inspector's walk, which would record
//! only what the invariants read. Whenever a condition fails, the walker
//! runs.
//!
//! The CSR body is `spmv.kf1`'s rows ([`Placed::csr`]), each a multiply-add
//! over its slices of the replicated structure arrays. My rows are one
//! slice of `rp` entries and one of columns, and the placing pass reads
//! each once: the entries to check that they are exact integers that never
//! decrease, the columns to check them and note on the way those the
//! inspector would find remote. Executing reads each row's two entries and
//! slices its columns and values, so a cold trip reads the structure twice
//! (place, execute), not three times, and no row is rebuilt to be checked.

use std::cell::Ref;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

use kali_grid::{DimDist, DimMap};
use kali_machine::Proc;

use crate::ast::{BinOp, UnOp};
use crate::resolve::{any_expr, const_of, names_var, reads_element, shift_of};
use crate::resolve::{Node, RDoall, RExpr, RProcExpr, RStmt, Slot};
use crate::value::{ArrObj, ArrRef, View, ViewDim, MAX_RANK};

/// Inclusive bounds per loop variable, the last one along a row; a
/// one-variable loop is a single row, `[(0, 0), range]`.
pub(crate) type Bx = [(i64, i64); 2];

/// The empty box, canonical: every empty iteration set keys alike.
const EMPTY: Bx = [(0, -1); 2];

fn is_empty(b: &Bx) -> bool {
    b.iter().any(|&(lo, hi)| lo > hi)
}

/// Where `(i, j)` falls in a box, row by row: an iteration's position, an
/// element's storage index.
fn flat(b: &Bx, i: i64, j: i64) -> usize {
    let [(lo0, _), (lo1, hi1)] = *b;
    ((i - lo0) * (hi1 - lo1 + 1) + j - lo1) as usize
}

fn meet(a: &Bx, b: &Bx) -> Bx {
    let m = [0, 1].map(|d| (a[d].0.max(b[d].0), a[d].1.min(b[d].1)));
    if is_empty(&m) {
        EMPTY
    } else {
        m
    }
}

/// An operand: a register, or the row of element read `k`.
#[derive(Debug, Clone, Copy)]
enum Src {
    Reg(usize),
    Read(usize),
}

/// An element access of a kernel: its array, over a doall's box its
/// offset from the loop variables, placed as in [`Bx`], and otherwise its
/// subscripts, which placing it evaluates, and the dimension a loop
/// variable subscripts (`along`), if one does.
#[derive(Debug, Clone, Default)]
pub(crate) struct Access {
    slot: Slot,
    off: [i64; 2],
    subs: Vec<RExpr>,
    along: Option<usize>,
}

/// One compiled element assignment.
#[derive(Debug, Clone)]
pub(crate) struct Assign {
    pub target: Access,
    /// Where this assignment's reads and instructions end in the
    /// kernel's lists (they start where the previous one's end).
    reads_end: usize,
    code_end: usize,
    out: Src,
}

/// Element assignments compiled once into one register program.
#[derive(Debug, Clone, Default)]
pub(crate) struct Kernel {
    pub stmts: Vec<Assign>,
    /// Each assignment's flops, charged per iteration as the walker does.
    pub flops: Vec<f64>,
    /// Every element read, in evaluation order.
    pub reads: Vec<Access>,
    /// The loop-invariant subtrees, each with the register it fills.
    pub invariants: Vec<(usize, RExpr)>,
    /// `(op, destination register, operands)` in evaluation order; no op
    /// negates the first operand.
    code: Vec<(Option<BinOp>, usize, Src, Src)>,
    regs: usize,
}

/// The kernel of a site in the lowerable class as far as its text alone
/// decides: one element assignment subscripted by the loop variables in
/// order (`v ± 0`), on `owner` of an array subscripted the same way, reads
/// `a(v ± c, …)` combined by `+ − * /` and unary `−`, and a static plan.
/// The bindings are checked per trip ([`Placed::stencil`]).
pub(crate) fn compile(d: &RDoall) -> Option<Kernel> {
    let [stmt @ RStmt::AssignElement { subs, .. }] = d.body.as_slice() else {
        return None;
    };
    let RProcExpr::Owner(_, on_subs) = &d.on else {
        return None;
    };
    let (vars, n) = (&d.vars, d.vars.len());
    if d.plan.is_none()
        || !(n == 1 || n == 2 && vars[0] != vars[1])
        || offsets(subs.iter().map(Some), vars) != Some([0; 2])
        || offsets(on_subs.iter().map(Option::as_ref), vars) != Some([0; 2])
    {
        return None;
    }
    let mut k = Kernel::default();
    k.assign(stmt, vars, false)?;
    Some(k)
}

/// The kernel of a `do var = …` loop in the compiled class as far as its
/// text decides (see the module docs; `var` appears in subscripts only).
/// The bindings are checked per execution ([`Placed::kernel`]).
pub(crate) fn compile_loop(var: Slot, step: Option<&RExpr>, body: &[RStmt]) -> Option<Kernel> {
    let unit = step.is_none_or(|s| const_of(s) == Some(1));
    (unit && !body.is_empty()).then_some(())?;
    let mut k = Kernel::default();
    for s in body {
        k.assign(s, &[var], true)?;
    }
    Some(k)
}

/// Compile, in every statement list of `body`, each run of statements a
/// batch of lines runs line after line ([`RStmt::by_line`]) that is only
/// element assignments into one kernel over the line axis, kept by the
/// run's first statement.
pub(crate) fn compile_runs(body: &mut [RStmt]) {
    let mut at = 0;
    while at < body.len() {
        let n = body[at..].iter().take_while(|s| s.by_line()).count().max(1);
        let mut k = Kernel::default();
        let compiled = body[at..at + n]
            .iter()
            .all(|s| k.assign(s, &[], false).is_some());
        match &mut body[at] {
            RStmt::AssignElement { run, .. } if compiled => *run = Some(Box::new(k)),
            RStmt::Do { body, .. } => compile_runs(body),
            RStmt::Doall(d) => compile_runs(&mut d.body),
            RStmt::If(_, then_body, else_body) => {
                compile_runs(then_body);
                compile_runs(else_body);
            }
            _ => {}
        }
        at += n;
    }
}

impl Kernel {
    /// Compile `target(…) = rhs` onto the program ([`access`]). With
    /// `hoist`, a subtree without a loop variable is an invariant even if
    /// it reads an element; without, every element read is a kernel read.
    fn assign(&mut self, s: &RStmt, vars: &[Slot], hoist: bool) -> Option<()> {
        let RStmt::AssignElement {
            slot,
            subs,
            rhs,
            flops,
            ..
        } = s
        else {
            return None;
        };
        let target = access(*slot, subs.iter().map(Some), vars, hoist)?;
        let out = self.operand(rhs, vars, hoist)?;
        self.flops.push(*flops);
        self.stmts.push(Assign {
            target,
            reads_end: self.reads.len(),
            code_end: self.code.len(),
            out,
        });
        Some(())
    }

    fn operand(&mut self, e: &RExpr, vars: &[Slot], hoist: bool) -> Option<Src> {
        let varies = !hoist && reads_element(e) || names_var(e, vars);
        let (op, a, b) = match e {
            _ if !varies => {
                self.invariants.push((self.regs, e.clone()));
                self.regs += 1;
                return Some(Src::Reg(self.regs - 1));
            }
            RExpr::Ref(slot, _, args, _) => {
                let args = args.iter().map(Option::as_ref);
                self.reads.push(access(*slot, args, vars, hoist)?);
                return Some(Src::Read(self.reads.len() - 1));
            }
            RExpr::Un(UnOp::Neg, x, _) => {
                let a = self.operand(x, vars, hoist)?;
                (None, a, a)
            }
            RExpr::Bin(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div), l, r, _) => (
                Some(*op),
                self.operand(l, vars, hoist)?,
                self.operand(r, vars, hoist)?,
            ),
            _ => return None,
        };
        self.code.push((op, self.regs, a, b));
        self.regs += 1;
        Some(Src::Reg(self.regs - 1))
    }

    /// The accesses, the reads then one target per assignment.
    fn refs(&self) -> impl Iterator<Item = &Access> {
        let targets = self.stmts.iter().map(|a| &a.target);
        self.reads.iter().chain(targets)
    }

    /// Run instructions `code` over a run of `len` iterations, `read(k)`
    /// the run of element read `k`.
    fn run<'d>(
        &self,
        code: Range<usize>,
        regs: &mut [Vec<f64>],
        len: usize,
        read: &impl Fn(usize) -> &'d [f64],
    ) {
        for &(op, dst, x, y) in &self.code[code] {
            let mut d = std::mem::take(&mut regs[dst]);
            let (x, y) = (operand(x, regs, read, len), operand(y, regs, read, len));
            let d_x_y = d[..len].iter_mut().zip(x).zip(y);
            match op {
                Some(BinOp::Add) => d_x_y.for_each(|((d, x), y)| *d = x + y),
                Some(BinOp::Sub) => d_x_y.for_each(|((d, x), y)| *d = x - y),
                Some(BinOp::Mul) => d_x_y.for_each(|((d, x), y)| *d = x * y),
                Some(_) => d_x_y.for_each(|((d, x), y)| *d = x / y),
                None => d_x_y.for_each(|((d, x), _)| *d = -x),
            }
            regs[dst] = d;
        }
    }
}

/// Access `slot(subs)`. Over a doall's box (`vars`, not `hoist`) each
/// loop variable subscripts its dimension, in order, as `var ± c`.
/// Otherwise one subscript names the loop variable — in a loop (`hoist`),
/// as `var ± c` — or, over lines, none does, and the others are scalars:
/// they read no element, call nothing and name no loop variable.
fn access<'e>(
    slot: Slot,
    subs: impl ExactSizeIterator<Item = Option<&'e RExpr>>,
    vars: &[Slot],
    hoist: bool,
) -> Option<Access> {
    let mut a = Access::default();
    if !hoist && !vars.is_empty() {
        (a.slot, a.off) = (slot, offsets(subs, vars)?);
        return Some(a);
    }
    (a.slot, a.subs) = (slot, subs.map(|e| e.cloned()).collect::<Option<_>>()?);
    a.along = a.subs.iter().position(|e| names_var(e, vars));
    let scalar =
        |(d, e): (usize, &RExpr)| Some(d) == a.along || !names_var(e, vars) && !reads_element(e);
    let var = a
        .along
        .map_or(!hoist, |d| shift_of(&a.subs[d], vars[0]).is_some());
    (var && a.subs.iter().enumerate().all(scalar)).then_some(a)
}

/// The offsets `c` of subscripts `var ± c` ([`shift_of`]), one per loop
/// variable, placed as in [`Bx`].
fn offsets<'e>(
    subs: impl ExactSizeIterator<Item = Option<&'e RExpr>>,
    vars: &[Slot],
) -> Option<[i64; 2]> {
    (subs.len() == vars.len()).then_some(())?;
    let mut off = [0; 2];
    for ((o, e), &v) in off[2 - vars.len()..].iter_mut().zip(subs).zip(vars) {
        *o = shift_of(e?, v)?;
    }
    Some(off)
}

/// The `len` values of `src` along the current run.
fn operand<'a, 'd: 'a>(
    src: Src,
    regs: &'a [Vec<f64>],
    read: &impl Fn(usize) -> &'d [f64],
    len: usize,
) -> &'a [f64] {
    match src {
        Src::Reg(r) => &regs[r][..len],
        Src::Read(k) => &read(k)[..len],
    }
}

/// A whole array as a doall addresses it: its bounds, placed as in
/// [`Bx`].
struct Addr {
    base: ArrRef,
    bounds: Bx,
}

impl Addr {
    /// `None` unless the array is real and has one dimension per loop
    /// variable.
    fn of(base: &ArrRef, arity: usize) -> Option<Addr> {
        let a = base.borrow();
        let mut bounds = [(0, 0); 2];
        (a.is_real && a.ndims() == arity).then_some(())?;
        bounds[2 - arity..].copy_from_slice(&a.bounds);
        let base = base.clone();
        Some(Addr { base, bounds })
    }

    /// What rank `me` owns of the array (`None`: a dimension's blocks are
    /// not contiguous). A replicated array's reader owns all of it, but an
    /// on-clause on it names the grid's members only: `replicas` says which.
    fn owned(&self, me: usize, replicas: bool) -> Option<Bx> {
        let a = self.base.borrow();
        if replicas && a.replicated() {
            return Some([(i64::MIN, i64::MAX); 2]);
        }
        let (mut owned, mut mine) = (self.bounds, true);
        for (d, dist) in a.layout.dists().iter().enumerate() {
            let c = a.layout.coord(me, d);
            let (lo, d) = (owned[d + 2 - a.ndims()].0, d + 2 - a.ndims());
            match c.and_then(|c| Some((dist.lower(c)?, dist.upper(c)?))) {
                _ if !dist.is_contiguous() => return None,
                Some((l, h)) => owned[d] = (lo + l as i64, lo + h as i64),
                None => mine = false,
            }
        }
        Some(if mine { owned } else { EMPTY })
    }

    /// The reference at offset `off` from iterations `bx`, inside the
    /// array unless `bx` is empty: its rows are the array's.
    fn at(&self, bx: &Bx, off: [i64; 2]) -> Strided {
        let (b, row) = (&self.bounds, self.bounds[1].1 - self.bounds[1].0 + 1);
        let at = (!is_empty(bx)).then(|| flat(b, bx[0].0 + off[0], bx[1].0 + off[1]));
        Strided::new(self.base.clone(), at.unwrap_or(0), 1, row as isize)
    }
}

/// A site's buffers, reused by its doall's trips and by the loops and runs
/// its walked iterations place: the placed references (a kernel's reads,
/// then one target per assignment; a CSR product's target), a stencil's
/// owned block of each array it reads, evaluated subscripts, the values of
/// a kernel's invariants on each row — a line-axis column — chunk-long
/// registers — a loop's or run's loaded reads after them — a doall's
/// result, and the remote flats of `x` a CSR product's placing pass found,
/// with their rows' positions.
#[derive(Default)]
pub(crate) struct Scratch {
    refs: Vec<Strided>,
    owned: Vec<Bx>,
    subs: Vec<i64>,
    invariants: Vec<f64>,
    regs: Vec<Vec<f64>>,
    out: Vec<f64>,
    remote: Vec<usize>,
    boundary: Vec<usize>,
}

impl Scratch {
    /// Evaluate by `f` the subscripts of `k`'s accesses, a loop
    /// variable's at its first value: `false` if one fails.
    pub(crate) fn eval(&mut self, k: &Kernel, mut f: impl FnMut(&RExpr) -> Option<i64>) -> bool {
        self.subs.clear();
        let mut subs = k.refs().flat_map(|r| &r.subs);
        subs.all(|e| f(e).map(|v| self.subs.push(v)).is_some())
    }

    /// Keep the values `f(r, e)` gives `k`'s invariants `e` on each of
    /// `rows` rows `r`, row after row and in order, for [`Placed::exec`]
    /// to broadcast along the registers they fill: the rows filled, up to
    /// the first with an invariant `f` has no value for.
    pub(crate) fn fill(
        &mut self,
        k: &Kernel,
        rows: usize,
        mut f: impl FnMut(usize, &RExpr) -> Option<f64>,
    ) -> usize {
        self.invariants.clear();
        let mut row = |r| {
            let mut invariants = k.invariants.iter();
            invariants.all(|(_, e)| f(r, e).map(|v| self.invariants.push(v)).is_some())
        };
        (0..rows).take_while(|&r| row(r)).count()
    }
}

/// A compiled body placed on one execution's bindings: my iterations, a
/// box whose positions count row by row, its references in the site's
/// [`Scratch`].
pub(crate) struct Placed<'k> {
    pub bx: Bx,
    /// Writes go through storage (a loop, a run), not into the scratch
    /// for [`Placed::commit`] (a doall's copy-out).
    through: bool,
    body: Body<'k>,
}

enum Body<'k> {
    /// Compiled element assignments, and a stencil's interior: the
    /// iterations whose every read is owned.
    Kernel(&'k Kernel, Bx),
    /// Row `i` of a CSR product: `y(i) = Σ av(k) · x(ci(k))` over `k` from
    /// `rp(i)` to `rp(i + 1) − 1`, the column `ci(k)` counted in `x`'s
    /// section; it is stored at `ci(k) + x_at`.
    Csr {
        /// `rp`, `ci` and `av`.
        structure: [ArrRef; 3],
        x: ArrRef,
        x_at: i64,
    },
}

impl<'k> Placed<'k> {
    /// Place `k` in `s` for rank `me` over the loop `ranges` (unit steps),
    /// with `on` the on-clause's array and `whole` the whole array a slot
    /// is bound to, if it is. `None` — the walker runs, and reports what
    /// it reports — when an array is not whole, real, of the loop's rank
    /// and contiguously distributed, when the on-array's layout or bounds
    /// are not the target's, or when the loop leaves those bounds or a read
    /// of the box leaves its array's.
    pub(crate) fn stencil(
        me: usize,
        ranges: &[(i64, i64)],
        k: &'k Kernel,
        on: Slot,
        whole: impl Fn(Slot) -> Option<ArrRef>,
        s: &mut Scratch,
    ) -> Option<Placed<'k>> {
        let arity = ranges.len();
        let target = Addr::of(&whole(k.stmts[0].target.slot)?, arity)?;
        let on = whole(on)?;
        let (t, o) = (target.base.borrow(), on.borrow());
        (t.layout == o.layout && t.bounds == o.bounds).then_some(())?;
        drop((t, o));
        let inside = |f: &Addr, b: &Bx, off: [i64; 2]| {
            is_empty(b)
                || (0..2).all(|d| {
                    let (lo, hi) = (b[d].0.checked_add(off[d]), b[d].1.checked_add(off[d]));
                    lo.zip(hi)
                        .is_some_and(|(lo, hi)| lo >= f.bounds[d].0 && hi <= f.bounds[d].1)
                })
        };
        let mut loops = [(0, 0); 2];
        loops[2 - arity..].copy_from_slice(ranges);
        inside(&target, &loops, [0; 2]).then_some(())?;
        let bx = meet(&loops, &target.owned(me, false)?);
        let mut interior = bx;
        s.refs.clear();
        s.owned.clear();
        for &Access { slot, off, .. } in &k.reads {
            let f = Addr::of(&whole(slot)?, arity)?;
            let owned = f.owned(me, true)?;
            inside(&f, &bx, off).then_some(())?;
            let back = [0, 1].map(|d| {
                (
                    owned[d].0.saturating_sub(off[d]),
                    owned[d].1.saturating_sub(off[d]),
                )
            });
            interior = meet(&interior, &back);
            s.refs.push(f.at(&bx, off));
            s.owned.push(owned);
        }
        s.refs.push(target.at(&bx, [0; 2]));
        Some(Self::sized(s, bx, false, Body::Kernel(k, interior)))
    }

    /// Place `k` in `s` for rank `me` on one execution, on the subscripts
    /// [`Scratch::eval`] evaluated: a loop over iterations `Some((lo, hi))`
    /// (not empty) on each of `lines` lines, or a run of element
    /// assignments whose iterations are the lines. `bound` gives the view
    /// a slot is bound to, if it is a real array, and how far it moves from
    /// line to line: a loop's row stride, a run's step. `None` — the walker
    /// runs, and reports what it reports — unless every reference is placed
    /// ([`Strided::of`]), `me` owns every element written (and, with
    /// `owned_reads`, every element read), and, in a loop, nothing written
    /// is also read at another address: by a reference with another
    /// sequence, or by an invariant. A run's lines step forwards, and what
    /// one line references no other does ([`crate::interp`]'s lift): only
    /// each line's own order matters.
    pub(crate) fn kernel<'v>(
        k: &'k Kernel,
        iters: Option<(i64, i64)>,
        lines: usize,
        me: usize,
        owned_reads: bool,
        bound: impl Fn(Slot) -> Option<(&'v View, isize)>,
        s: &mut Scratch,
    ) -> Option<Placed<'k>> {
        s.refs.clear();
        let span = iters.map_or(Some(0), |(lo, hi)| hi.checked_sub(lo))?;
        let mut subs = &s.subs[..];
        for (i, r) in k.refs().enumerate() {
            let owner = (owned_reads || i >= k.reads.len()).then_some(me);
            let (view, step) = bound(r.slot)?;
            let at;
            (at, subs) = subs.split_at(r.subs.len());
            let along = r.along.unwrap_or(0);
            let first = *at.get(along)?;
            let ends = (first, first.checked_add(span)?);
            let mut p = Strided::of(view, at, along, ends, owner)?;
            match iters {
                Some(_) => p.row = step,
                None => p.step = usize::try_from(step).ok().filter(|&s| s > 0)?,
            }
            s.refs.push(p);
        }
        let (reads, targets) = s.refs.split_at(k.reads.len());
        let clash = iters.is_some()
            && targets.iter().any(|w| {
                let seq = |r: &Strided| (r.at, r.step, r.row);
                let elsewhere = |r: &Strided| Rc::ptr_eq(&r.base, &w.base) && seq(r) != seq(w);
                let mut names_w = |n: Node| match n {
                    Node::Name(s) => bound(s).is_some_and(|(v, _)| Rc::ptr_eq(&v.base, &w.base)),
                    _ => false,
                };
                reads.iter().chain(targets).any(elsewhere)
                    || k.invariants.iter().any(|(_, e)| any_expr(e, &mut names_w))
            });
        (!clash).then_some(())?;
        let last = lines as i64 - 1;
        let bx = iters.map_or([(0, 0), (0, last)], |_| [(0, last), (0, span)]);
        Some(Self::sized(s, bx, true, Body::Kernel(k, EMPTY)))
    }

    /// Place the CSR product in `s` for rank `me` over rows `lo..=hi` (unit
    /// step) on whole arrays and the view `x` of a section. `None` — the
    /// walker runs, and reports what it reports — unless all are 1-D, `y`
    /// real, block-distributed and holding the loop range, `rp`, `ci`, `av`
    /// replicated, `x` real, not `y`, with contiguous blocks, and every row
    /// of mine names sections of `ci` and `av` by exact integers in `rp`,
    /// their columns inside `x`'s section. My rows are read as the slices
    /// they are: one pass over their `rp` entries, which must never
    /// decrease, so that the first and the last decide every row's
    /// sections; one over their columns, which notes in `s` what the
    /// inspector would find remote ([`Placed::inspect`]), each remote
    /// column's row found by bisecting the entries.
    pub(crate) fn csr(
        me: usize,
        (lo, hi): (i64, i64),
        [y, rp, ci, av]: [ArrRef; 4],
        x: &View,
        s: &mut Scratch,
    ) -> Option<Placed<'k>> {
        let (target, xa) = (Addr::of(&y, 1)?, Addr::of(&x.base, 1)?);
        let [_, (y_lo, y_hi)] = target.bounds;
        let fits = y.borrow().layout.spec().maps() == [DimMap::Dist(DimDist::Block)]
            && (lo > hi || lo >= y_lo && hi <= y_hi)
            && !Rc::ptr_eq(&x.base, &y)
            && [&rp, &ci, &av]
                .iter()
                .all(|a| a.borrow().ndims() == 1 && a.borrow().replicated());
        let (true, &[ViewDim::Range(a, b)]) = (fits, &x.map[..]) else {
            return None;
        };
        let ([_, (x0, x1)], x_lo) = (xa.owned(me, true)?, xa.bounds[1].0);
        let bx = meet(&[(0, 0), (lo, hi)], &target.owned(me, false)?);
        let x_at = a.checked_sub(x.callee_lo[0])?.checked_sub(x_lo)?;
        let x_owned = x0.saturating_sub(x_lo)..=x1.saturating_sub(x_lo);
        s.remote.clear();
        s.boundary.clear();
        if !is_empty(&bx) {
            let [rp, ci, av] = [&rp, &ci, &av].map(|a| a.borrow());
            let ends = (index(&rp, bx[1].0)?, index(&rp, bx[1].1.checked_add(1)?)?);
            let entries = rp.data.get(ends.0..=ends.1)?;
            #[cfg(test)]
            RP_READ.with(|n| n[0].set(n[0].get() + entries.len()));
            let mut last = i64::MIN;
            let mut rising = |e: &f64| exact_int(*e).filter(|&k| k >= last).map(|k| last = k);
            entries.iter().all(|e| rising(e).is_some()).then_some(())?;
            let k0 = entries[0] as i64;
            av.data.get(index(&av, k0)?..index(&av, last)?)?;
            let cols = ci.data.get(index(&ci, k0)?..index(&ci, last)?)?;
            // The walker translates column `c` to `c − callee_lo + a`. A
            // column inside `section`'s reals is inside the section, one
            // inside `owned`'s is mine; only the others are truncated here.
            let c0 = x.callee_lo[0];
            let section = reals(Some(c0), c0.checked_add(b - a));
            let owned = reals(
                x_owned.start().checked_sub(x_at),
                x_owned.end().checked_sub(x_at),
            );
            let mut row_end = f64::NEG_INFINITY;
            for (k, c) in (k0..).zip(cols) {
                let t = || (*c as i64).checked_sub(c0);
                (section.contains(c) || t().is_some_and(|t| (0..=b - a).contains(&t)))
                    .then_some(())?;
                let flat = (!owned.contains(c)).then(|| (*c as i64).wrapping_add(x_at));
                let Some(f) = flat.filter(|f| !x_owned.contains(f)) else {
                    continue;
                };
                s.remote.push(f as usize);
                if k as f64 >= row_end {
                    let row = entries.partition_point(|&e| e <= k as f64) - 1;
                    s.boundary.push(row);
                    row_end = entries[row + 1];
                }
            }
        }
        s.refs.clear();
        s.refs.push(target.at(&bx, [0; 2]));
        let (structure, x) = ([rp, ci, av], x.base.clone());
        Some(Self::sized(s, bx, false, Body::Csr { structure, x, x_at }))
    }

    /// Placed over `bx`, with `s` sized for it: a doall's result, and
    /// registers — a loop's or run's loaded reads after them — a row's first
    /// chunk long at most.
    fn sized(s: &mut Scratch, bx: Bx, through: bool, body: Body<'k>) -> Self {
        let placed = Placed { bx, through, body };
        if !through {
            s.out.resize(placed.len(), 0.0);
        }
        if let Body::Kernel(k, _) = placed.body {
            let n = k.regs + if through { k.reads.len() } else { 0 };
            // Kept however few the next kernel needs: kernels take turns.
            s.regs.resize_with(s.regs.len().max(n), Vec::new);
            let width = placed.width().min(CHUNK);
            s.regs[..n].iter_mut().for_each(|r| r.resize(width, 0.0));
        }
        placed
    }

    /// How many iterations are mine.
    pub(crate) fn len(&self) -> usize {
        let [(a0, b0), (a1, b1)] = self.bx;
        ((b0 - a0 + 1) * (b1 - a1 + 1)).max(0) as usize
    }

    /// How many iterations a row has.
    pub(crate) fn width(&self) -> usize {
        (self.bx[1].1 - self.bx[1].0 + 1).max(0) as usize
    }

    /// The row runs `(row, first, last)` of the positions in `at`, ranges
    /// in ascending order: ranges that touch are joined, and a run ends
    /// where its row does.
    fn runs(&self, at: impl IntoIterator<Item = Range<usize>>, mut f: impl FnMut(i64, i64, i64)) {
        let [(a0, _), (a1, _)] = self.bx;
        let width = self.width().max(1);
        let mut split = |r: Range<usize>| {
            let mut p = r.start;
            while p < r.end {
                let end = r.end.min((p / width + 1) * width);
                let (row, first) = ((p / width) as i64, (p % width) as i64);
                f(a0 + row, a1 + first, a1 + first + (end - p) as i64 - 1);
                p = end;
            }
        };
        let mut run = 0..0;
        for r in at {
            if r.start != run.end {
                split(std::mem::replace(&mut run, r.start..r.start));
            }
            run.end = r.end;
        }
        split(run);
    }

    /// What the inspector finds walking a doall's iterations: the positions
    /// of those with a remote read, ascending, while `note` is handed each
    /// remote read as `(array, flat)` in iteration and evaluation order. A
    /// stencil's follow from its boxes — the iterations outside its
    /// interior, and their reads outside the owned blocks; a CSR product's
    /// are the lists its placing pass left in `s`, read off its rows'
    /// columns in this order, so no row is read again.
    pub(crate) fn inspect(&self, s: &Scratch, mut note: impl FnMut(&ArrRef, usize)) -> Vec<usize> {
        let mut boundary = Vec::new();
        let [(a0, _), (a1, _)] = self.bx;
        match &self.body {
            Body::Kernel(k, interior) => self.runs(std::iter::once(0..self.len()), |i, a, b| {
                let [(c0, e0), (c1, e1)] = *interior;
                let inner = |j| (c0..=e0).contains(&i) && (c1..=e1).contains(&j);
                for j in (a..=b).filter(|&j| !inner(j)) {
                    boundary.push(flat(&self.bx, i, j));
                    let reads = s.refs.iter().zip(&s.owned).zip(&k.reads);
                    for ((f, &[(l0, h0), (l1, h1)]), Access { off: [di, dj], .. }) in reads {
                        if !(l0..=h0).contains(&(i + di)) || !(l1..=h1).contains(&(j + dj)) {
                            note(&f.base, f.flat((i - a0) as usize, (j - a1) as usize));
                        }
                    }
                }
            }),
            Body::Csr { x, .. } => {
                s.remote.iter().for_each(|&f| note(x, f));
                boundary.extend_from_slice(&s.boundary);
            }
        }
        boundary
    }

    /// Run the iterations at the positions in `at`, ranges in ascending
    /// order, charging `proc` as the walker does: a kernel its assignments'
    /// flops per iteration, its row runs a chunk at a time, a CSR row
    /// `2·nnz` flops and then its written word, row by row in execution
    /// order. A doall's results go to the scratch, a loop's or run's
    /// through storage.
    pub(crate) fn exec(
        &self,
        at: impl IntoIterator<Item = Range<usize>>,
        s: &mut Scratch,
        proc: &mut Proc,
    ) {
        let (refs, regs, out) = (&s.refs, &mut s.regs, &mut s.out);
        let ([(a0, _), (a1, _)], width) = (self.bx, self.width());
        match &self.body {
            Body::Kernel(k, _) => {
                let ((reads, targets), (regs, rows)) =
                    (refs.split_at(k.reads.len()), regs.split_at_mut(k.regs));
                // Row `r`'s invariants along their registers: a doall's
                // are its only row's, a loop's each line's.
                let n = k.invariants.len();
                let invariants = |regs: &mut [Vec<f64>], r: usize| {
                    let values = s.invariants.get(r * n..(r + 1) * n).unwrap_or_default();
                    (k.invariants.iter().zip(values)).for_each(|((g, _), &v)| regs[*g].fill(v));
                };
                if !self.through {
                    invariants(regs, 0);
                }
                // A doall reads its rows in storage; a loop or run, which
                // stores as it goes, loads them.
                let copy_out = reads.iter().filter(|_| !self.through);
                let data: Vec<Ref<ArrObj>> = copy_out.map(|r| r.base.borrow()).collect();
                let mut count = 0;
                self.runs(at, |i, first, last| {
                    let (r, first, end) = ((i - a0) as usize, first - a1, last - a1 + 1);
                    if self.through {
                        invariants(regs, r);
                    }
                    for t in (first as usize..end as usize).step_by(CHUNK) {
                        let len = CHUNK.min(end as usize - t);
                        count += len;
                        let (mut r0, mut c0) = (0, 0);
                        for (a, w) in k.stmts.iter().zip(targets) {
                            if self.through {
                                let loads = rows[r0..a.reads_end].iter_mut().zip(&reads[r0..]);
                                loads.for_each(|(row, s)| s.load(r, t, &mut row[..len]));
                            }
                            let read = |n: usize| match self.through {
                                true => &rows[n][..],
                                false => &data[n].data[reads[n].flat(r, t)..],
                            };
                            k.run(c0..a.code_end, regs, len, &read);
                            let (result, p) = (operand(a.out, regs, &read, len), r * width + t);
                            match self.through {
                                true => w.store(r, t, result),
                                false => out[p..p + len].copy_from_slice(result),
                            }
                            (r0, c0) = (a.reads_end, a.code_end);
                        }
                    }
                });
                proc.compute_each(&k.flops, count);
            }
            Body::Csr { structure, x, x_at } => {
                let ([rp, ci, av], x) = (structure.each_ref().map(|a| a.borrow()), x.borrow());
                let product =
                    |(&c, &a): (&f64, &f64)| a * x.data[(c as i64).wrapping_add(*x_at) as usize];
                // Placing checked my rows' entries: exact integers, each
                // pair naming a section of `ci` and one of `av`.
                let first = (a1 - rp.bounds[0].0) as usize;
                let span = |a: &ArrObj, k: f64, end: f64| {
                    (k as i64 - a.bounds[0].0) as usize..(end as i64 - a.bounds[0].0) as usize
                };
                for pos in at.into_iter().flatten() {
                    #[cfg(test)]
                    RP_READ.with(|n| n[1].set(n[1].get() + 2));
                    let (k, end) = (rp.data[first + pos], rp.data[first + pos + 1]);
                    let (cols, vals) = (&ci.data[span(&ci, k, end)], &av.data[span(&av, k, end)]);
                    // The walker's sum, and +0.0 for an empty row, as it stores.
                    out[pos] = match cols.len() {
                        0 => 0.0,
                        _ => cols.iter().zip(vals).map(product).sum(),
                    };
                    proc.compute(2.0 * cols.len() as f64);
                    proc.memop(1.0);
                }
            }
        }
    }

    /// Copy-out: a doall's result into its target's storage, charged as
    /// the walker's commit of one write per iteration.
    pub(crate) fn commit(&self, s: &Scratch, proc: &mut Proc) {
        proc.memop(self.len() as f64);
        let ([(a0, _), (a1, _)], width) = (self.bx, self.width());
        let target = s.refs.last().expect("a placed doall's target");
        let mut t = target.base.borrow_mut();
        self.runs(std::iter::once(0..self.len()), |i, a, b| {
            let (r, c, n) = ((i - a0) as usize, (a - a1) as usize, (b - a + 1) as usize);
            let (from, to) = (r * width + c, target.flat(r, c));
            t.data[to..to + n].copy_from_slice(&s.out[from..from + n]);
        });
    }
}

/// Where element `i` of the 1-D array `a` is stored, if not below it.
fn index(a: &ArrObj, i: i64) -> Option<usize> {
    usize::try_from(i.checked_sub(a.bounds[0].0)?).ok()
}

/// The reals whose truncation is certainly in `lo..=hi`: those between
/// the two, if both are exact doubles; none otherwise.
fn reals(lo: Option<i64>, hi: Option<i64>) -> RangeInclusive<f64> {
    let exact = |v: Option<i64>| v.filter(|v| v.unsigned_abs() <= 1 << 53).map(|v| v as f64);
    exact(lo)
        .zip(exact(hi))
        .map_or(1.0..=0.0, |(lo, hi)| lo..=hi)
}

/// `v` as an integer, if it is one of magnitude at most 2⁵³.
fn exact_int(v: f64) -> Option<i64> {
    let i = v as i64;
    (i as f64 == v && i.unsigned_abs() <= 1 << 53).then_some(i)
}

/// The most iterations a placed kernel's row runs at once: its registers
/// never grow with the loop.
const CHUNK: usize = 64;

/// A placed reference — a kernel's, a builtin's section: element `t` of
/// row `r` is `base.data[at + r · row + t · step]`, a row one of a batch's
/// lines or of a stencil's box.
pub(crate) struct Strided {
    pub(crate) base: ArrRef,
    at: usize,
    step: usize,
    pub(crate) row: isize,
}

impl Strided {
    /// Reference `view(subs)` for subscript `along` from `lo` to `hi`,
    /// `subs` one subscript per dimension of the view: both ends translate
    /// through the view into the array's bounds, as the walker's accesses
    /// do (then so does everything between). With `owner`, every element
    /// must also be that rank's: along a contiguous dimension what a rank
    /// owns is an interval, so the ends decide; elsewhere every element
    /// is tested. An empty range references nothing. One row.
    pub(crate) fn of(
        view: &View,
        subs: &[i64],
        along: usize,
        (lo, hi): (i64, i64),
        owner: Option<usize>,
    ) -> Option<Strided> {
        let b = view.base.borrow();
        (view.ndims() == subs.len()).then_some(())?;
        let ranged = view.map.iter().enumerate();
        let mut ranged = ranged.filter(|(_, m)| matches!(m, ViewDim::Range(..)));
        let dim = ranged.nth(along)?.0;
        let (base, row) = (view.base.clone(), 0);
        if hi < lo {
            return Some(Strided::new(base, 0, 1, row));
        }
        let (mut idxs, mut base_idxs) = ([0; MAX_RANK], [0; MAX_RANK]);
        idxs[..subs.len()].copy_from_slice(subs);
        let mut flat = |i: i64| {
            idxs[along] = i;
            let idxs = view.to_base_into(&idxs, subs.len(), &mut base_idxs).ok()?;
            let mine = owner.is_none_or(|me| b.owned_by(me, idxs));
            mine.then(|| b.flat(idxs).ok())?
        };
        let (at, last) = (flat(lo)?, flat(hi)?);
        let interval = owner.is_none() || b.layout.dists()[dim].is_contiguous();
        (interval || (lo..hi).skip(1).all(|i| flat(i).is_some())).then_some(())?;
        let step = ((last - at) / (hi - lo).max(1) as usize).max(1);
        Some(Strided::new(base, at, step, row))
    }

    fn new(base: ArrRef, at: usize, step: usize, row: isize) -> Strided {
        Strided {
            base,
            at,
            step,
            row,
        }
    }

    /// The storage index of element `t` of row `r`.
    pub(crate) fn flat(&self, r: usize, t: usize) -> usize {
        self.at.wrapping_add_signed(r as isize * self.row) + t * self.step
    }

    /// Where row `r`'s first `n` elements are stored, if contiguously.
    pub(crate) fn span(&self, r: usize, n: usize) -> Option<Range<usize>> {
        (self.step == 1).then(|| self.flat(r, 0)..self.flat(r, n))
    }

    /// Load row `r`'s elements `start..` into `out`.
    pub(crate) fn load(&self, r: usize, start: usize, out: &mut [f64]) {
        let b = self.base.borrow();
        let lane = b.data[self.flat(r, start)..].iter().step_by(self.step);
        out.iter_mut().zip(lane).for_each(|(o, v)| *o = *v);
    }

    /// Store `vals` into row `r`'s elements `start..`.
    pub(crate) fn store(&self, r: usize, start: usize, vals: &[f64]) {
        let mut b = self.base.borrow_mut();
        let lane = b.data[self.flat(r, start)..].iter_mut();
        lane.step_by(self.step).zip(vals).for_each(|(t, v)| *t = *v);
    }
}

#[cfg(test)]
impl Scratch {
    /// Has no trip placed a doall here (with a non-empty box)?
    pub(crate) fn is_unused(&self) -> bool {
        self.out.is_empty()
    }

    /// Has a loop or run been placed here, and no doall?
    pub(crate) fn ran_through(&self) -> bool {
        self.out.is_empty() && !self.regs.is_empty()
    }
}

#[cfg(test)]
thread_local! {
    /// The `rp` entries [`Placed::csr`] read on this thread (a
    /// processor's), placing and executing.
    pub(crate) static RP_READ: [std::cell::Cell<usize>; 2] =
        const { [std::cell::Cell::new(0), std::cell::Cell::new(0)] };
    /// The element assignments the interpreter walked on this thread.
    pub(crate) static WALKED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::Kind;
    use kali_grid::{DistSpec, Layout, ProcGrid};
    use kali_machine::{CostModel, Machine, MachineConfig};
    use kali_sched::interior_runs;
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::cell::RefCell;

    /// A real array of `bounds` on `grid`, distributed by `dist` or
    /// replicated, its elements small varied reals.
    fn array(bounds: Vec<(i64, i64)>, dist: Option<&DistSpec>, grid: &ProcGrid) -> ArrRef {
        let extents: Vec<usize> = bounds.iter().map(|&(l, h)| (h - l + 1) as usize).collect();
        let layout = match dist {
            Some(d) => Layout::new(d, &extents, grid).unwrap(),
            None => Layout::replicated(&extents, grid),
        };
        let len = extents.iter().product();
        Rc::new(RefCell::new(ArrObj {
            name: "a".into(),
            bounds,
            layout,
            data: (0..len).map(|k| 0.25 * (k % 13) as f64 - 1.0).collect(),
            is_real: true,
            dist_gen: 0,
        }))
    }

    /// Run `f` on one processor whose costs are powers of two, so that a
    /// CSR body's per-row charges sum exactly in any order.
    fn on_one(f: impl Fn(&mut Proc) + Send + Sync) {
        let cost = CostModel {
            alpha: 1.0,
            beta: 0.5,
            hop: 0.0,
            flop: 2f64.powi(-10),
            memop: 2f64.powi(-12),
            overhead: 0.0,
        };
        Machine::run(MachineConfig::new(1).with_cost(cost), f);
    }

    /// Run `placed`'s positions all at once, as interior then boundary,
    /// as a random ascending split over several calls, and one position a
    /// call (no run crosses a chunk), and check that each gives the same
    /// result bits, flops, memops and clock — and that ranges touching
    /// within a row run as one. `s` is the scratch it was placed with.
    fn same_under_every_split(placed: &Placed, s: &mut Scratch, g: &mut TestRng, proc: &mut Proc) {
        let n = placed.len();
        let boundary = placed.inspect(s, |_, _| {});
        let singles: Vec<_> = boundary.iter().map(|&p| p..p + 1).collect();
        let mut cuts: Vec<usize> = (0..g.next_u64() % 5)
            .map(|_| (g.next_u64() as usize) % (n + 1))
            .collect();
        cuts.extend([0, n]);
        cuts.sort_unstable();
        let mut random = vec![Vec::new()];
        for w in cuts.windows(2) {
            random.last_mut().unwrap().push(w[0]..w[1]);
            if g.next_u64().is_multiple_of(3) {
                random.push(Vec::new());
            }
        }
        let plans = [
            vec![vec![0..n]],
            vec![interior_runs(&boundary, n).collect(), singles.clone()],
            random,
            (0..n)
                .map(|p| std::iter::once(p..p + 1).collect())
                .collect(),
        ];
        let runs = |at: &[Range<usize>]| {
            let mut runs = Vec::new();
            placed.runs(at.iter().cloned(), |i, a, b| runs.push((i, a, b)));
            runs
        };
        let rows = runs(&singles);
        let joined = rows
            .windows(2)
            .all(|w| w[0].0 != w[1].0 || w[0].2 + 1 < w[1].1);
        assert!(joined, "{rows:?}");
        let [(a0, b0), (a1, b1)] = placed.bx;
        let whole: Vec<_> = (a0..=b0).map(|i| (i, a1, b1)).collect();
        let all = runs(std::slice::from_ref(&(0..n)));
        assert_eq!(all, if n == 0 { vec![] } else { whole });
        let mut seen = Vec::new();
        for plan in &plans {
            let clock = proc.clock();
            let (flops, words) = (proc.stats().flops, proc.stats().mem_words);
            s.out.fill(f64::NAN);
            for at in plan {
                placed.exec(at.iter().cloned(), s, proc);
            }
            let bits: Vec<u64> = s.out.iter().map(|v| v.to_bits()).collect();
            let stats = proc.stats();
            let charges = [
                proc.clock() - clock,
                stats.flops - flops,
                stats.mem_words - words,
            ];
            seen.push((bits, charges.map(f64::to_bits)));
        }
        assert!(seen.iter().all(|s| *s == seen[0]), "{plans:?}");
    }

    /// `exact_int` answers as the test by `fract` and `powi` it replaces.
    #[test]
    fn an_exact_integer_is_one_without_a_fraction() {
        let two53 = 2f64.powi(53);
        let cases = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            two53,
            -two53,
        ];
        let more = [
            two53 + 2.0,
            -two53 - 2.0,
            2f64.powi(63),
            -2f64.powi(63),
            0.5,
            -3.0,
        ];
        for v in cases.into_iter().chain(more) {
            let by_fraction = (v.fract() == 0.0 && v.abs() <= two53).then_some(v as i64);
            assert_eq!(exact_int(v), by_fraction, "{v}");
        }
    }

    /// The class is every `v ± c` that `affine_of` reads, however it is
    /// spelled: `b(1 + i)` is placed as `b(i + 1)` is, and so is a CSR row
    /// bounded by `rp(1 + i)`; a coefficient other than 1 is walked.
    #[test]
    fn an_offset_spelled_c_plus_v_compiles() {
        let kind = |src: &str| {
            let prog = crate::parse(src).unwrap();
            let mut kind = "no doall";
            crate::resolve::any_stmt(&prog.code[0].body, &mut |n| match n {
                Node::Stmt(RStmt::Doall(d)) => {
                    kind = match d.kind {
                        Kind::Stencil(_) => "stencil",
                        Kind::Csr(_) => "csr",
                        _ => "walk",
                    };
                    true
                }
                _ => false,
            });
            kind
        };
        let stencil = |read: &str| {
            kind(&format!(
                "parsub t(x, b; procs)\n  processors procs(p)\n  real x(8), b(8) dist (block)\n  \
                 k = 1\n  doall 100 i = 2, 7 on owner(x(i))\n    x(i) = {read}\n100 continue\nend\n"
            ))
        };
        for read in [
            "b(i + 1)",
            "b(1 + i)",
            "b(i + 2 - 1)",
            "-b(-1 + i) * b(i)",
            "b(2*i - i)",
        ] {
            assert_eq!(stencil(read), "stencil", "{read}");
        }
        for read in ["b(2*i - 7)", "b(i + k)", "b(8 - i)"] {
            assert_eq!(stencil(read), "walk", "{read}");
        }
        let spmv = crate::listing("spmv")
            .unwrap()
            .replace("rp(i + 1)", "rp(1 + i)");
        assert!(spmv.contains("rp(1 + i)"));
        assert_eq!(kind(&spmv), "csr");
    }

    /// The remote flats of `x`, the positions of the rows that read them,
    /// and each row's product's bits: what a placed CSR product inspects
    /// and computes.
    type Rows = (Vec<usize>, Vec<usize>, Vec<u64>);

    /// The CSR placement's oracle, the check it replaced: with the same
    /// bindings, each row of mine rebuilt from its own two `rp` entries,
    /// each converted by `exact_int` and both checked against `ci` and
    /// `av`, each column truncated and checked against the section, then
    /// the row's remote columns noted and its product summed.
    fn row_by_row(me: usize, (lo, hi): (i64, i64), arrays: &[ArrRef; 4], x: &View) -> Option<Rows> {
        let [y, rp, ci, av] = arrays.each_ref().map(|a| a.borrow());
        let (target, xa) = (Addr::of(&arrays[0], 1)?, Addr::of(&x.base, 1)?);
        let [_, (y_lo, y_hi)] = target.bounds;
        let fits = y.layout.spec().maps() == [DimMap::Dist(DimDist::Block)]
            && (lo > hi || lo >= y_lo && hi <= y_hi)
            && [&rp, &ci, &av]
                .iter()
                .all(|a| a.ndims() == 1 && a.replicated());
        let (true, &[ViewDim::Range(a, b)]) = (fits, &x.map[..]) else {
            return None;
        };
        let ([_, (x0, x1)], x_lo) = (xa.owned(me, true)?, xa.bounds[1].0);
        let bx = meet(&[(0, 0), (lo, hi)], &target.owned(me, false)?);
        let x_at = a.checked_sub(x.callee_lo[0])?.checked_sub(x_lo)?;
        let x_owned = x0.saturating_sub(x_lo)..=x1.saturating_sub(x_lo);
        let inside = |c: &f64| {
            let t = (*c as i64).checked_sub(x.callee_lo[0]);
            t.is_some_and(|t| (0..=b - a).contains(&t))
        };
        let at = |a: &ArrObj, i: i64| usize::try_from(i.checked_sub(a.bounds[0].0)?).ok();
        let row = |i: i64| {
            let k = exact_int(*rp.data.get(at(&rp, i)?)?)?;
            let end = exact_int(*rp.data.get(at(&rp, i.checked_add(1)?)?)?)?;
            let span = |a: &ArrObj| Some(at(a, k)?..at(a, end)?);
            Some([ci.data.get(span(&ci)?)?, av.data.get(span(&av)?)?])
        };
        let xb = x.base.borrow();
        let (mut remote, mut boundary, mut sums) = (Vec::new(), Vec::new(), Vec::new());
        let rows = if is_empty(&bx) {
            0
        } else {
            bx[1].1 - bx[1].0 + 1
        };
        for pos in 0..rows as usize {
            let [cols, vals] = row(bx[1].0 + pos as i64).filter(|[c, _]| c.iter().all(inside))?;
            let flats: Vec<i64> = cols
                .iter()
                .map(|&c| (c as i64).wrapping_add(x_at))
                .collect();
            let before = remote.len();
            remote.extend(
                flats
                    .iter()
                    .filter(|f| !x_owned.contains(f))
                    .map(|&f| f as usize),
            );
            if remote.len() > before {
                boundary.push(pos);
            }
            let terms = flats
                .iter()
                .zip(vals)
                .map(|(&f, &a)| a * xb.data[f as usize]);
            sums.push(
                if cols.is_empty() {
                    0.0
                } else {
                    terms.sum::<f64>()
                }
                .to_bits(),
            );
        }
        Some((remote, boundary, sums))
    }

    /// Random CSR structures over `x(a:b)` with rows `lo..=hi` of `y`,
    /// placed on each of `p` ranks (1..4, uneven blocks), accept exactly
    /// where [`row_by_row`] does, note the same remote columns and rows
    /// in the same order, and compute the same bits. Now and then an `rp`
    /// entry is fractional, falls below the last, runs past `nz` or below
    /// `ci`'s first element, `rp` or `av` is one element short, and a
    /// column is NaN, infinite, negative, fractional, or just inside or
    /// outside the section (`c0 ± 0.5`, `hi + 0.9`, `hi + 1`); many rows
    /// are empty, at the edges of the blocks too.
    #[test]
    fn csr_slices_decide_as_rows_do() {
        on_one(|proc| {
            let mut seen = [0; 2];
            for seed in 0..3000u64 {
                let mut g = TestRng::deterministic(&format!("csr oracle {seed}"));
                let mut below = |n: i64| (g.next_u64() % n as u64) as i64;
                let (p, n, nx) = (1 + below(4) as usize, 1 + below(14), 2 + below(12));
                let (a, c0) = (1 + below(3).min(nx - 1), below(3));
                let b = a + below(nx - a + 1);
                let hi_col = c0 + b - a;
                let odd = |below: &mut dyn FnMut(i64) -> i64| {
                    let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -0.5, 0.5];
                    let near = [c0 as f64 - 0.5, c0 as f64 + 0.5, hi_col as f64 + 0.9];
                    let near = near
                        .into_iter()
                        .chain([hi_col as f64 + 1.0, c0 as f64 - 1.0]);
                    let all: Vec<f64> = odd.into_iter().chain(near).collect();
                    all[below(all.len() as i64) as usize]
                };
                let (mut rp, mut ci) = (vec![1.0], Vec::new());
                for _ in 0..n {
                    if below(3) > 0 {
                        for _ in 0..1 + below(4) {
                            let c = match below(16) {
                                0 => odd(&mut below),
                                _ => (c0 + below(hi_col - c0 + 1)) as f64,
                            };
                            ci.push(c);
                        }
                    }
                    rp.push(ci.len() as f64 + 1.0);
                }
                let nz = ci.len() as i64;
                let k = 1 + below(n) as usize;
                match below(16) {
                    0 => rp[k] += 0.5,
                    1 => rp[k] = rp[k - 1] - 1.0,
                    2 => rp[k] = (nz + 2) as f64,
                    3 => rp[0] = 0.0,
                    4 => drop(rp.pop()),
                    _ => (),
                }
                let grid = ProcGrid::with_ranks(vec![p], (0..p).collect());
                let replicated = |data: Vec<f64>, short: bool| {
                    let len = data.len() as i64 - short as i64;
                    let arr = array(vec![(1, len.max(1))], None, &grid);
                    let n = (len.max(0) as usize).min(data.len());
                    arr.borrow_mut().data[..n].copy_from_slice(&data[..n]);
                    arr
                };
                let y = array(vec![(1, n)], Some(&DistSpec::block1()), &grid);
                let xb = array(vec![(1, nx)], Some(&DistSpec::block1()), &grid);
                let vals = (0..nz).map(|k| 0.75 - (k % 5) as f64 * 0.5).collect();
                let av = replicated(vals, below(24) == 0);
                let arrays = [y, replicated(rp, false), replicated(ci, false), av];
                let x = View {
                    base: xb,
                    map: vec![ViewDim::Range(a, b)],
                    callee_lo: vec![c0],
                };
                let (lo, hi) = (1 + below(2).min(n - 1), n - below(2));
                for me in 0..p {
                    let oracle = row_by_row(me, (lo, hi), &arrays, &x);
                    let mut s = Scratch::default();
                    let placed = Placed::csr(me, (lo, hi), arrays.clone(), &x, &mut s);
                    let ours = placed.map(|placed| {
                        placed.exec(std::iter::once(0..placed.len()), &mut s, proc);
                        let bits = s.out.iter().map(|v| v.to_bits()).collect();
                        (s.remote.clone(), s.boundary.clone(), bits)
                    });
                    assert_eq!(ours, oracle, "seed {seed}, rank {me} of {p}");
                }
                seen[row_by_row(0, (lo, hi), &arrays, &x).is_some() as usize] += 1;
            }
            // Both answers are drawn often.
            assert!(seen.iter().all(|&k| k > 600), "{seen:?}");
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A stencil of random reads of `x` and `b` on a random grid, placed
        /// on every rank, runs alike however its positions are split.
        #[test]
        fn stencil_positions_run_alike_however_split(seed in 0u64..1 << 40, dims in 1usize..3) {
            on_one(|proc| {
                let mut g = TestRng::deterministic(&seed.to_string());
                let mut below = |n: i64| (g.next_u64() % n as u64) as i64;
                let p = 1 + below(4) as usize;
                let shape = match dims {
                    1 => vec![p],
                    _ if p == 4 && below(2) == 0 => vec![2, 2],
                    _ => if below(2) == 0 { vec![p, 1] } else { vec![1, p] },
                };
                let lb = below(4) - 1;
                let mut bounds: Vec<_> = (0..dims).map(|_| (lb, lb + 2 + below(9))).collect();
                // Now and then a rank's rows are up to 3·CHUNK + 7 long.
                if below(3) == 0 {
                    let q = *shape.last().unwrap() as i64;
                    bounds[dims - 1].1 = lb + q * (1 + below(3 * CHUNK as i64 + 7)) + below(q) - 1;
                }
                let vars = &["i", "j"][..dims];
                let (mut rhs, mut lo, mut hi) = (String::new(), vec![0; dims], vec![0; dims]);
                for k in 0..1 + below(4) {
                    let off: Vec<i64> = (0..dims).map(|_| below(5) - 2).collect();
                    for d in 0..dims {
                        (lo[d], hi[d]) = (lo[d].min(off[d]), hi[d].max(off[d]));
                    }
                    let subs: Vec<_> =
                        vars.iter().zip(&off).map(|(v, o)| format!("{v} + {o}")).collect();
                    let read = format!("{}({})", ["x", "b"][below(2) as usize], subs.join(", "));
                    rhs = match k {
                        0 => read,
                        _ => format!("({rhs} {} {read})", ["+", "-", "*", "/"][below(4) as usize]),
                    };
                }
                let ranges: Vec<_> = (0..dims)
                    .map(|d| (bounds[d].0 - lo[d] + below(2), bounds[d].1 - hi[d]))
                    .collect();
                let (decl, dist) = (
                    bounds.iter().map(|(l, h)| format!("{l}:{h}")).collect::<Vec<_>>().join(", "),
                    vec!["block"; dims].join(", "),
                );
                let header = match dims {
                    1 => format!("doall 100 i = {}, {} on owner(x(i))", ranges[0].0, ranges[0].1),
                    _ => format!(
                        "doall 100 (i, j) = [{}, {}] * [{}, {}] on owner(x(i, j))",
                        ranges[0].0, ranges[0].1, ranges[1].0, ranges[1].1
                    ),
                };
                let src = format!(
                    "parsub t(x, b; procs)\n  processors procs({})\n  real x({decl}), b({decl}) \
                     dist ({dist})\n  {header}\n    x({}) = {rhs}\n100 continue\nend\n",
                    ["p", "q"][..dims].join(", "),
                    vars.join(", "),
                );
                let prog = crate::parse(&src).unwrap();
                let sub = &prog.code[0];
                let crate::resolve::RStmt::Doall(d) = &sub.body[0] else { panic!("{src}") };
                let Kind::Stencil(k) = &d.kind else { panic!("{src}") };
                let grid = ProcGrid::with_ranks(shape, (0..p).collect());
                let slot = |name: &str| sub.names.iter().position(|n| n == name).unwrap();
                let spec = sub.array(slot("x")).and_then(|(_, spec)| spec);
                let x = array(bounds.clone(), spec, &grid);
                let b = array(bounds, spec, &grid);
                let whole = |s: Slot| Some(if s == slot("x") { x.clone() } else { b.clone() });
                for me in 0..p {
                    let mut s = Scratch::default();
                    let placed = Placed::stencil(me, &ranges, k, slot("x"), whole, &mut s).expect(&src);
                    same_under_every_split(&placed, &mut s, &mut g, proc);
                }
            });
        }

        /// `Strided::of` with an owner answers as the element-by-element
        /// test does — every element of the section in bounds and that
        /// rank's — on 1-D arrays and the rows and columns of 2-D ones,
        /// block, cyclic, block-cyclic(k) and replicated, at p = 1..4 and
        /// every rank, on ranges within one block and across blocks: the
        /// ends decide only along a contiguous dimension.
        #[test]
        fn a_section_is_owned_where_its_elements_are(seed in 0u64..1 << 40) {
            let mut g = TestRng::deterministic(&seed.to_string());
            let mut below = |n: i64| (g.next_u64() % n as u64) as i64;
            let (p, dims) = (1 + below(4) as usize, 1 + below(2) as usize);
            let bounds: Vec<_> = (0..dims)
                .map(|_| (below(3) - 1, 1 + below(12)))
                .map(|(lb, n)| (lb, lb + n - 1))
                .collect();
            let extent = |d: usize| bounds[d].1 - bounds[d].0 + 1;
            let patterns: Vec<DimMap> = (0..dims)
                .map(|d| match below(3) {
                    0 => DimDist::Block,
                    1 => DimDist::Cyclic,
                    _ => DimDist::BlockCyclic(1 + below(2 * extent(d)) as usize),
                })
                .map(DimMap::Dist)
                .collect();
            // Replicated, or one dimension distributed on a line of `p`, or
            // both on a `p × 1`, `1 × p` or `2 × 2` grid.
            let (shape, dist) = match (dims, below(4)) {
                (_, 0) => (vec![p], None),
                (1, _) => (vec![p], Some(DistSpec::new(vec![patterns[0]]))),
                (_, 1) => (vec![p], Some(DistSpec::new(vec![patterns[0], DimMap::Local]))),
                (_, 2) => (vec![p], Some(DistSpec::new(vec![DimMap::Local, patterns[1]]))),
                _ => {
                    let shape = match (p, below(2)) {
                        (4, 0) => vec![2, 2],
                        (_, 0) => vec![p, 1],
                        _ => vec![1, p],
                    };
                    (shape, Some(DistSpec::new(patterns)))
                }
            };
            let grid = ProcGrid::with_ranks(shape, (0..p).collect());
            let base = array(bounds.clone(), dist.as_ref(), &grid);
            for _ in 0..16 {
                // A row or column through a random fixed index, over a random
                // stretch of its dimension, its callee bounds counted from c.
                let along = below(dims as i64) as usize;
                let (l, h) = bounds[along];
                let a = l + below(h - l + 1);
                let b = a + below(h - a + 1);
                let mut map: Vec<_> = bounds.iter().map(|&(l, h)| ViewDim::Fixed(l + below(h - l + 1))).collect();
                map[along] = ViewDim::Range(a, b);
                let c = below(3);
                let view = View { base: base.clone(), map, callee_lo: vec![c] };
                // Sometimes one past either end of the view.
                let lo = c + below(b - a + 2) - below(2);
                let hi = lo + below(b - a + 2) - 1;
                for me in 0..p {
                    for owner in [None, Some(me)] {
                        let ours = Strided::of(&view, &[lo], 0, (lo, hi), owner)
                            .map(|s| (0..=hi - lo).map(|t| s.flat(0, t as usize)).collect::<Vec<_>>());
                        let arr = base.borrow();
                        let each = (lo..=hi).map(|i| {
                            let mut idxs = [0; MAX_RANK];
                            let idxs = view.to_base_into(&[i; MAX_RANK], 1, &mut idxs).ok()?;
                            let mine = owner.is_none_or(|me| arr.owned_by(me, idxs));
                            mine.then(|| arr.flat(idxs).ok())?
                        });
                        let theirs: Option<Vec<usize>> = each.collect();
                        prop_assert_eq!(&ours, &theirs, "{:?} {:?} {:?}", dist, view.map, (lo, hi, owner));
                    }
                }
            }
        }

        /// A CSR product of random rows, some empty, over a section of a
        /// block-distributed `x`, runs alike however its rows are split.
        #[test]
        fn csr_positions_run_alike_however_split(seed in 0u64..1 << 40) {
            on_one(|proc| {
                let mut g = TestRng::deterministic(&seed.to_string());
                let mut below = |n: i64| (g.next_u64() % n as u64) as i64;
                let (p, n, nx) = (1 + below(4) as usize, 1 + below(12), 2 + below(12));
                let (a, b) = (1 + below(nx), nx);
                let (mut rp, mut ci) = (vec![1.0], Vec::new());
                for _ in 0..n {
                    for _ in 0..below(4) {
                        ci.push((1 + below(b - a + 1)) as f64);
                    }
                    rp.push(ci.len() as f64 + 1.0);
                }
                let grid = ProcGrid::with_ranks(vec![p], (0..p).collect());
                let nz = ci.len() as i64;
                let replicated = |data: Vec<f64>| {
                    let arr = array(vec![(1, data.len().max(1) as i64)], None, &grid);
                    arr.borrow_mut().data[..data.len()].copy_from_slice(&data);
                    arr
                };
                let y = array(vec![(1, n)], Some(&DistSpec::block1()), &grid);
                let xb = array(vec![(1, nx)], Some(&DistSpec::block1()), &grid);
                let av = array(vec![(1, nz.max(1))], None, &grid);
                let structure = [replicated(rp), replicated(ci), av];
                let x = View { base: xb, map: vec![ViewDim::Range(a, b)], callee_lo: vec![1] };
                let (lo, hi) = (1 + below(n), n - below(2));
                for me in 0..p {
                    let [rp, ci, av] = structure.clone();
                    let mut s = Scratch::default();
                    let arrays = [y.clone(), rp, ci, av];
                    let placed = Placed::csr(me, (lo, hi), arrays, &x, &mut s).unwrap();
                    same_under_every_split(&placed, &mut s, &mut g, proc);
                }
            });
        }
    }
}
