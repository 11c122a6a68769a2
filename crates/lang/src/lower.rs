//! Compiled element assignments: the affine stencil class run as row
//! kernels, and `do` loops run as strided kernels.
//!
//! A `doall` whose body is one element assignment `x(i, j) = rhs` on
//! `owner(x(i, j))`, every element read in `rhs` a whole array subscripted
//! `a(i ± c, j ± c)`, needs no tree walk. [`compile`] turns `rhs`, once
//! per site, into a flat register program whose every instruction
//! processes a whole row run: an operand is the row of an element read or
//! a register — an earlier instruction's result, or a loop-invariant
//! subtree (no element read, no loop variable) that the interpreter's own
//! `eval` computes once per trip, broadcast along the row, so Int/Real
//! typing is exactly the walker's.
//!
//! Per trip, [`Rows`] places the program on the bindings at hand. My
//! iterations are a box — the on-array's owned block, read off its
//! `Layout`, met with the loop bounds — and the *interior*, the
//! iterations whose every read is owned, is the meet of each read
//! array's owned block shifted back by the read's offset: the inspector's
//! own classification, read by read. What the inspector would record by
//! walking the body follows from the same boxes ([`Rows::inspect`]).
//!
//! The same compiler takes a sequential `do v = lo, hi` loop
//! ([`compile_loop`]) whose step is 1 and whose body is element
//! assignments only, every target and every read that mentions `v` a
//! rank-1 reference `a(v ± c)`: each assignment's right-hand side becomes
//! instructions of one program, and here a maximal subtree without `v` is
//! an invariant even when it reads an element (`wy(2*ip - 1, ip)`), since
//! nothing the loop writes may be read at another offset. A written slot
//! is referenced at one offset only, so no iteration reads what another
//! writes, and the loop may run statement by statement over chunks of
//! iterations instead of iteration by iteration. Per execution,
//! [`LoopScratch::place`] binds every reference to its rank-1 view — a
//! whole 1-D array, or a section like `u(i, *)` — as a strided address
//! sequence, and [`LoopScratch::run`] executes the chunks. The interpreter
//! runs it only where a write is a plain store (a write-through doall
//! iteration), and walks the loop whenever a condition fails.
//!
//! One doall of a builtin call is placed as well: `spmv.kf1`'s CSR rows
//! ([`CsrRows`]), each a multiply-add over its slices of the replicated
//! structure arrays.

use std::cell::Ref;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

use kali_grid::{DimDist, DimMap};
use kali_machine::Proc;

use crate::analysis::const_of;
use crate::ast::{BinOp, UnOp};
use crate::resolve::{any_expr, Node, RDoall, RExpr, RProcExpr, RStmt, Slot};
use crate::value::{ArrObj, ArrRef, View, ViewDim, MAX_RANK};

/// Inclusive bounds per loop variable, the last one along a row; a
/// one-variable loop is a single row, `[(0, 0), range]`.
pub(crate) type Bx = [(i64, i64); 2];

/// The empty box, canonical: every empty iteration set keys alike.
const EMPTY: Bx = [(0, -1); 2];

fn is_empty(b: &Bx) -> bool {
    b.iter().any(|&(lo, hi)| lo > hi)
}

/// How many iterations a box holds.
fn count(b: &Bx) -> usize {
    let [(a0, b0), (a1, b1)] = *b;
    ((b0 - a0 + 1) * (b1 - a1 + 1)).max(0) as usize
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

/// One compiled element assignment.
#[derive(Debug, Clone)]
pub(crate) struct Assign {
    pub target: Slot,
    /// The target's offset from the loop variables, placed as in [`Bx`].
    pub off: [i64; 2],
    /// The assignment's flops, charged per iteration as the walker does.
    pub flops: f64,
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
    /// Every element read, in evaluation order: the array and its offset
    /// from the loop variables, placed as in [`Bx`].
    pub reads: Vec<(Slot, [i64; 2])>,
    /// The loop-invariant subtrees, each with the register it fills.
    pub invariants: Vec<(usize, RExpr)>,
    /// `(op, destination register, operands)` in evaluation order; no op
    /// negates the first operand.
    code: Vec<(Option<BinOp>, usize, Src, Src)>,
    regs: usize,
}

/// The kernel of a site in the lowerable class as far as its text alone
/// decides: one element assignment subscripted by the loop variables in
/// order, on `owner` of an array subscripted the same way, reads
/// `a(v ± c, …)` combined by `+ − * /` and unary `−`, and a static plan.
/// The bindings are checked per trip ([`Rows::new`]).
pub(crate) fn compile(d: &RDoall) -> Option<Kernel> {
    let [stmt @ RStmt::AssignElement { subs, .. }] = d.body.as_slice() else {
        return None;
    };
    let RProcExpr::Owner(_, on_subs) = &d.on else {
        return None;
    };
    let (vars, n) = (&d.vars, d.vars.len());
    let var = |k: usize, e: Option<&RExpr>| matches!(e, Some(RExpr::Var(v, _)) if *v == vars[k]);
    let by_vars = subs.len() == n
        && on_subs.len() == n
        && (0..n).all(|k| var(k, Some(&subs[k])) && var(k, on_subs[k].as_ref()));
    if d.plan.is_none() || !by_vars || !(n == 1 || n == 2 && vars[0] != vars[1]) {
        return None;
    }
    let mut k = Kernel::default();
    k.assign(stmt, vars, false)?;
    Some(k)
}

/// The kernel of a `do var = …` loop in the compiled class as far as its
/// text decides (see the module docs; `var` appears in subscripts only,
/// and no invariant names a slot the loop writes). The bindings are
/// checked per execution ([`LoopScratch::place`]).
pub(crate) fn compile_loop(var: Slot, step: Option<&RExpr>, body: &[RStmt]) -> Option<Kernel> {
    let unit = step.is_none_or(|s| const_of(s) == Some(1));
    (unit && !body.is_empty()).then_some(())?;
    let mut k = Kernel::default();
    for s in body {
        k.assign(s, &[var], true)?;
    }
    for a in &k.stmts {
        let at_a = |&(slot, off): &(Slot, [i64; 2])| slot != a.target || off == a.off;
        let names_a = |e: &RExpr| any_expr(e, &mut |n| matches!(n, Node::Name(s) if s == a.target));
        let one_offset = k.reads.iter().all(at_a)
            && k.stmts.iter().all(|b| at_a(&(b.target, b.off)))
            && !k.invariants.iter().any(|(_, e)| names_a(e));
        one_offset.then_some(())?;
    }
    Some(k)
}

impl Kernel {
    /// Compile `target(v ± c, …) = rhs` onto the program. With `hoist`, a
    /// subtree without a loop variable is an invariant even if it reads
    /// an element; without, every element read is a kernel read.
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
        let off = offsets(subs.iter().map(Some), vars)?;
        let out = self.operand(rhs, vars, hoist)?;
        self.stmts.push(Assign {
            target: *slot,
            off,
            flops: *flops,
            reads_end: self.reads.len(),
            code_end: self.code.len(),
            out,
        });
        Some(())
    }

    fn operand(&mut self, e: &RExpr, vars: &[Slot], hoist: bool) -> Option<Src> {
        let varies = any_expr(e, &mut |n| match n {
            Node::Expr(e) => !hoist && matches!(e, RExpr::Ref(..)),
            Node::Name(s) => vars.contains(&s),
            Node::Stmt(_) => false,
        });
        let (op, a, b) = match e {
            _ if !varies => {
                self.invariants.push((self.regs, e.clone()));
                self.regs += 1;
                return Some(Src::Reg(self.regs - 1));
            }
            RExpr::Ref(slot, _, args, _) => {
                let off = offsets(args.iter().map(Option::as_ref), vars)?;
                self.reads.push((*slot, off));
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

/// The offsets `c` of subscripts `var ± c`, one per loop variable, placed
/// as in [`Bx`].
fn offsets<'e>(
    subs: impl ExactSizeIterator<Item = Option<&'e RExpr>>,
    vars: &[Slot],
) -> Option<[i64; 2]> {
    (subs.len() == vars.len()).then_some(())?;
    let mut off = [0; 2];
    for ((o, e), &v) in off[2 - vars.len()..].iter_mut().zip(subs).zip(vars) {
        *o = offset(e?, v)?;
    }
    Some(off)
}

/// `c` of a subscript `var ± c`.
fn offset(e: &RExpr, var: Slot) -> Option<i64> {
    let is_var = |e: &RExpr| matches!(e, RExpr::Var(v, _) if *v == var);
    match e {
        _ if is_var(e) => Some(0),
        RExpr::Bin(BinOp::Add, v, c, _) if is_var(v) => const_of(c),
        RExpr::Bin(BinOp::Sub, v, c, _) if is_var(v) => const_of(c)?.checked_neg(),
        _ => None,
    }
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

/// A whole array as a kernel addresses it: its bounds, placed as in
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

    fn flat(&self, i: i64, j: i64) -> usize {
        let [(lo0, _), (lo1, hi1)] = self.bounds;
        ((i - lo0) * (hi1 - lo1 + 1) + j - lo1) as usize
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
}

/// Which iterations of the box a call covers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Part {
    Interior,
    Boundary,
    All,
}

/// A site's buffers, reused trip after trip: the box-sized result, the
/// registers, and each read's row start.
#[derive(Default)]
pub(crate) struct Scratch {
    out: Vec<f64>,
    regs: Vec<Vec<f64>>,
    starts: Vec<usize>,
}

/// A kernel placed on one trip's bindings.
pub(crate) struct Rows {
    /// My iterations.
    pub bx: Bx,
    /// Those whose every read is owned.
    interior: Bx,
    target: Addr,
    /// Per kernel read: the array, the offset, and what I own of it.
    reads: Vec<(Addr, [i64; 2], Bx)>,
}

impl Rows {
    /// Place `k` for rank `me` over the loop `ranges` (unit steps), with
    /// `on` the on-clause's array and `whole` the whole array a slot is
    /// bound to, if it is. `None` — the walker runs, and reports what it
    /// reports — when an array is not whole, real, of the loop's rank and
    /// contiguously distributed, when the on-array's layout or bounds are
    /// not the target's, or when the loop leaves those bounds or a read of
    /// the box leaves its array's.
    pub(crate) fn new(
        me: usize,
        ranges: &[(i64, i64)],
        k: &Kernel,
        on: Slot,
        whole: impl Fn(Slot) -> Option<ArrRef>,
    ) -> Option<Rows> {
        let arity = ranges.len();
        let (target, on) = (Addr::of(&whole(k.stmts[0].target)?, arity)?, whole(on)?);
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
        let (mut interior, mut reads) = (bx, Vec::with_capacity(k.reads.len()));
        for &(slot, off) in &k.reads {
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
            reads.push((f, off, owned));
        }
        Some(Rows {
            bx,
            interior,
            target,
            reads,
        })
    }

    /// How many iterations are mine.
    pub(crate) fn len(&self) -> usize {
        count(&self.bx)
    }

    /// Position of iteration `(i, j)` in iteration order.
    fn pos(&self, i: i64, j: i64) -> usize {
        let [(a0, _), (a1, b1)] = self.bx;
        ((i - a0) * (b1 - a1 + 1) + j - a1) as usize
    }

    /// The runs `(row, first, last)` of `part`, in iteration order.
    fn runs(&self, part: Part, mut f: impl FnMut(i64, i64, i64)) {
        let [(a0, b0), (a1, b1)] = self.bx;
        let [(c0, e0), (c1, e1)] = self.interior;
        for i in a0..=b0 {
            match part {
                Part::All => f(i, a1, b1),
                _ if !(c0..=e0).contains(&i) => {
                    if part == Part::Boundary {
                        f(i, a1, b1);
                    }
                }
                Part::Interior => f(i, c1, e1),
                Part::Boundary => {
                    if a1 < c1 {
                        f(i, a1, c1 - 1);
                    }
                    if e1 < b1 {
                        f(i, e1 + 1, b1);
                    }
                }
            }
        }
    }

    /// What the inspector finds walking my iterations: the positions of
    /// those with a remote read, ascending, while `record` is handed each
    /// remote read as `(array, flat)` in iteration and evaluation order.
    pub(crate) fn inspect(&self, mut record: impl FnMut(&ArrRef, usize)) -> Vec<usize> {
        let mut boundary = Vec::new();
        self.runs(Part::Boundary, |i, a, b| {
            for j in a..=b {
                boundary.push(self.pos(i, j));
                for (f, [di, dj], [(l0, h0), (l1, h1)]) in &self.reads {
                    let (i, j) = (i + di, j + dj);
                    if !(*l0..=*h0).contains(&i) || !(*l1..=*h1).contains(&j) {
                        record(&f.base, f.flat(i, j));
                    }
                }
            }
        });
        boundary
    }

    /// Size `s` for this trip and broadcast the invariants' `values`, one
    /// per [`Kernel::invariants`] entry, along the registers they fill.
    pub(crate) fn prepare(&self, k: &Kernel, values: &[f64], s: &mut Scratch) {
        let width = (self.bx[1].1 - self.bx[1].0 + 1).max(0) as usize;
        s.out.resize(self.len(), 0.0);
        s.regs.resize_with(k.regs, Vec::new);
        s.regs.iter_mut().for_each(|r| r.resize(width, 0.0));
        for ((r, _), &v) in k.invariants.iter().zip(values) {
            s.regs[*r].fill(v);
        }
        s.starts.resize(self.reads.len(), 0);
    }

    /// Run `k` over the runs of `part` into the result, charging `proc`
    /// the assignment's flops per iteration, as the walker does.
    pub(crate) fn exec(&self, k: &Kernel, part: Part, s: &mut Scratch, proc: &mut Proc) {
        let data: Vec<Ref<ArrObj>> = self.reads.iter().map(|r| r.0.base.borrow()).collect();
        let Scratch { out, regs, starts } = s;
        let mut count = 0;
        self.runs(part, |i, a, b| {
            let len = (b - a + 1) as usize;
            count += len;
            for (start, (f, off, _)) in starts.iter_mut().zip(&self.reads) {
                *start = f.flat(i + off[0], a + off[1]);
            }
            let read = |r: usize| &data[r].data[starts[r]..];
            k.run(0..k.code.len(), regs, len, &read);
            let at = self.pos(i, a);
            out[at..at + len].copy_from_slice(operand(k.stmts[0].out, regs, &read, len));
        });
        proc.compute_each(k.stmts[0].flops, count);
    }

    /// Copy-out: the result into the target's storage, charged as the
    /// walker's commit of one write per iteration.
    pub(crate) fn commit(&self, s: &Scratch, proc: &mut Proc) {
        proc.memop(self.len() as f64);
        let mut t = self.target.base.borrow_mut();
        self.runs(Part::All, |i, a, b| {
            let (from, to, len) = (self.pos(i, a), self.target.flat(i, a), (b - a + 1) as usize);
            t.data[to..to + len].copy_from_slice(&s.out[from..from + len]);
        });
    }
}

/// A doall in the CSR class ([`crate::resolve::Csr`]) placed on one
/// trip's bindings: row `i` is `y(i) = Σ av(k) · x(ci(k))` over `k` from
/// `rp(i)` to `rp(i + 1) − 1`, the column `ci(k)` counted in `x`'s section.
pub(crate) struct CsrRows {
    /// My rows, `[(0, 0), (first, last)]`: the owned block of `y` met with
    /// the loop bounds.
    pub bx: Bx,
    y: Addr,
    /// `rp`, `ci` and `av`.
    structure: [ArrRef; 3],
    x: ArrRef,
    /// Column `c` is stored at `c + x_at`; mine are stored in `x_owned`.
    x_at: i64,
    x_owned: RangeInclusive<i64>,
}

impl CsrRows {
    /// Place the product for rank `me` over rows `lo..=hi` (unit step) on
    /// whole arrays and the view `x` of a section, sizing `s`. `None` — the
    /// walker runs, and reports what it reports — unless all are 1-D, `y`
    /// real, block-distributed and holding the loop range, `rp`, `ci`, `av`
    /// replicated, `x` real, not `y`, with contiguous blocks, and every row
    /// of mine names sections of `ci` and `av` by exact integers in `rp`,
    /// their columns inside `x`'s section.
    pub(crate) fn new(
        me: usize,
        (lo, hi): (i64, i64),
        [y, rp, ci, av]: [ArrRef; 4],
        x: &View,
        s: &mut Scratch,
    ) -> Option<CsrRows> {
        let (y, xa) = (Addr::of(&y, 1)?, Addr::of(&x.base, 1)?);
        let [_, (y_lo, y_hi)] = y.bounds;
        let fits = y.base.borrow().layout.spec().maps() == [DimMap::Dist(DimDist::Block)]
            && (lo > hi || lo >= y_lo && hi <= y_hi)
            && !Rc::ptr_eq(&x.base, &y.base)
            && [&rp, &ci, &av]
                .iter()
                .all(|a| a.borrow().ndims() == 1 && a.borrow().replicated());
        let (true, &[ViewDim::Range(a, b)]) = (fits, &x.map[..]) else {
            return None;
        };
        let ([_, (x0, x1)], x_lo) = (xa.owned(me, true)?, xa.bounds[1].0);
        let csr = CsrRows {
            bx: meet(&[(0, 0), (lo, hi)], &y.owned(me, false)?),
            y,
            structure: [rp, ci, av],
            x: x.base.clone(),
            x_at: a.checked_sub(x.callee_lo[0])?.checked_sub(x_lo)?,
            x_owned: x0.saturating_sub(x_lo)..=x1.saturating_sub(x_lo),
        };
        // The walker translates column `c` to `c − callee_lo + a`.
        let inside = |c: &f64| {
            let t = (*c as i64).checked_sub(x.callee_lo[0]);
            t.is_some_and(|t| (0..=b - a).contains(&t))
        };
        let data = csr.structure.each_ref().map(|a| a.borrow());
        let mut rows = csr.bx[1].0..=csr.bx[1].1;
        let fits = rows.all(|i| csr.row(&data, i).is_some_and(|[c, _]| c.iter().all(inside)));
        drop(data);
        s.out.resize(csr.len(), 0.0);
        fits.then_some(csr)
    }

    /// How many rows are mine.
    pub(crate) fn len(&self) -> usize {
        count(&self.bx)
    }

    /// The column indices and values of row `i`, if its `rp` entries are
    /// exact integers naming a section of `ci` and of `av`.
    fn row<'d>(&self, [rp, ci, av]: &'d [Ref<ArrObj>; 3], i: i64) -> Option<[&'d [f64]; 2]> {
        let at = |a: &ArrObj, i: i64| usize::try_from(i.checked_sub(a.bounds[0].0)?).ok();
        let int = |v: f64| (v.fract() == 0.0 && v.abs() <= 2f64.powi(53)).then_some(v as i64);
        let k = int(*rp.data.get(at(rp, i)?)?)?;
        let end = int(*rp.data.get(at(rp, i.checked_add(1)?)?)?)?;
        let section = |a: &'d ArrObj| a.data.get(at(a, k)?..at(a, end)?);
        Some([section(ci)?, section(av)?])
    }

    /// Run `f(position, columns, values)` over my rows at `positions`.
    fn rows(&self, at: impl IntoIterator<Item = usize>, mut f: impl FnMut(usize, &[f64], &[f64])) {
        let data = self.structure.each_ref().map(|a| a.borrow());
        for pos in at {
            let row = self.row(&data, self.bx[1].0 + pos as i64);
            let [cols, vals] = row.expect("placed rows name sections of ci and av");
            f(pos, cols, vals);
        }
    }

    /// What the inspector finds walking my rows: the positions of those
    /// with a column that is not mine, ascending, while `record` is handed
    /// each such column as `(x, flat)` in row and column order.
    pub(crate) fn inspect(&self, mut record: impl FnMut(&ArrRef, usize)) -> Vec<usize> {
        let mut boundary = Vec::new();
        self.rows(0..self.len(), |pos, cols, _| {
            let flats = cols.iter().map(|&c| (c as i64).wrapping_add(self.x_at));
            let remote = flats.filter(|f| !self.x_owned.contains(f));
            if remote.inspect(|&f| record(&self.x, f as usize)).count() > 0 {
                boundary.push(pos);
            }
        });
        boundary
    }

    /// Run the rows at `positions` into the result, charging `proc` as the
    /// walker's `spmv` does — `2·nnz` flops, then the row's written word —
    /// row by row in execution order.
    pub(crate) fn exec(
        &self,
        at: impl IntoIterator<Item = usize>,
        s: &mut Scratch,
        proc: &mut Proc,
    ) {
        let x = self.x.borrow();
        let product =
            |(&c, &a): (&f64, &f64)| a * x.data[(c as i64).wrapping_add(self.x_at) as usize];
        self.rows(at, |pos, cols, vals| {
            // The walker's sum, and +0.0 for an empty row, as it stores.
            s.out[pos] = match cols.len() {
                0 => 0.0,
                _ => cols.iter().zip(vals).map(product).sum(),
            };
            proc.compute(2.0 * cols.len() as f64);
            proc.memop(1.0);
        });
    }

    /// Copy-out: the result into `y`, charged as the walker's commit of
    /// one write per row.
    pub(crate) fn commit(&self, s: &Scratch, proc: &mut Proc) {
        let n = self.len();
        proc.memop(n as f64);
        if n > 0 {
            let at = self.y.flat(0, self.bx[1].0);
            self.y.base.borrow_mut().data[at..at + n].copy_from_slice(&s.out[..n]);
        }
    }
}

/// The most iterations a compiled loop runs at once: its buffers never
/// grow with the loop.
const CHUNK: usize = 64;

/// A rank-1 section, placed — a compiled loop's reference, a builtin's
/// argument: element `t` (from the first) is `base.data[at + t * step]`.
pub(crate) struct Strided {
    pub(crate) base: ArrRef,
    at: usize,
    step: usize,
}

impl Strided {
    /// Reference `view(lo..=hi)` of a rank-1 view: both ends translate
    /// through the view into the array's bounds, as the walker's accesses
    /// do (then so does everything between). With `writer`, every element
    /// must also be that rank's. An empty range references nothing.
    pub(crate) fn of(view: &View, (lo, hi): (i64, i64), writer: Option<usize>) -> Option<Strided> {
        let b = view.base.borrow();
        (view.ndims() == 1).then_some(())?;
        if hi < lo {
            let (base, at, step) = (view.base.clone(), 0, 1);
            return Some(Strided { base, at, step });
        }
        let mut base_idxs = [0; MAX_RANK];
        let mut flat = |i: i64| {
            let idxs = view.to_base_into(&[i; MAX_RANK], 1, &mut base_idxs).ok()?;
            let mine = writer.is_none_or(|me| b.owned_by(me, idxs));
            mine.then(|| b.flat(idxs).ok())?
        };
        let (at, last) = (flat(lo)?, flat(hi)?);
        (writer.is_none() || (lo..hi).skip(1).all(|i| flat(i).is_some())).then_some(())?;
        let step = ((last - at) / (hi - lo).max(1) as usize).max(1);
        let base = view.base.clone();
        Some(Strided { base, at, step })
    }

    /// The storage index of element `t`.
    pub(crate) fn flat(&self, t: usize) -> usize {
        self.at + t * self.step
    }

    /// Load iterations `start..` into `out`.
    pub(crate) fn load(&self, start: usize, out: &mut [f64]) {
        let b = self.base.borrow();
        let lane = b.data[self.flat(start)..].iter().step_by(self.step);
        out.iter_mut().zip(lane).for_each(|(o, v)| *o = *v);
    }

    /// Store `vals` into iterations `start..`.
    pub(crate) fn store(&self, start: usize, vals: &[f64]) {
        let mut b = self.base.borrow_mut();
        let lane = b.data[self.flat(start)..].iter_mut();
        lane.step_by(self.step).zip(vals).for_each(|(t, v)| *t = *v);
    }
}

/// A compiled loop's buffers, reused execution after execution: chunk-long
/// registers and per-read rows, and the placed references — the reads,
/// then one target per assignment.
#[derive(Default)]
pub(crate) struct LoopScratch {
    regs: Vec<Vec<f64>>,
    rows: Vec<Vec<f64>>,
    refs: Vec<Strided>,
}

impl LoopScratch {
    /// Place `k` on one execution over `lo..=hi` (not empty) for rank
    /// `me`, `view` the view a slot is bound to, if it is a real array.
    /// `None` — the walker runs, and reports what it reports — unless
    /// every reference is placed ([`Strided::of`]), `me` owns every
    /// element written, and nothing written is also read at another
    /// address: by a reference with another sequence, or by an invariant.
    pub(crate) fn place<'v>(
        &mut self,
        k: &Kernel,
        (lo, hi): (i64, i64),
        me: usize,
        view: impl Fn(Slot) -> Option<&'v View>,
    ) -> Option<()> {
        self.refs.clear();
        let reads = k.reads.iter().map(|&(slot, off)| (slot, off, None));
        let targets = k.stmts.iter().map(|a| (a.target, a.off, Some(me)));
        for (slot, [_, c], writer) in reads.chain(targets) {
            let range = (lo.checked_add(c)?, hi.checked_add(c)?);
            self.refs.push(Strided::of(view(slot)?, range, writer)?);
        }
        let (reads, targets) = self.refs.split_at(k.reads.len());
        let clash = targets.iter().any(|w| {
            let elsewhere =
                |r: &Strided| Rc::ptr_eq(&r.base, &w.base) && (r.at, r.step) != (w.at, w.step);
            let mut names_w = |n: Node| match n {
                Node::Name(s) => view(s).is_some_and(|v| Rc::ptr_eq(&v.base, &w.base)),
                _ => false,
            };
            reads.iter().chain(targets).any(elsewhere)
                || k.invariants.iter().any(|(_, e)| any_expr(e, &mut names_w))
        });
        (!clash).then_some(())?;
        self.regs.resize_with(k.regs, Vec::new);
        self.rows.resize_with(k.reads.len(), Vec::new);
        for r in self.regs.iter_mut().chain(&mut self.rows) {
            r.resize(CHUNK, 0.0);
        }
        Some(())
    }

    /// Broadcast an invariant's value along the register it fills.
    pub(crate) fn fill(&mut self, reg: usize, v: f64) {
        self.regs[reg].fill(v);
    }

    /// Execute the placed loop's `n` iterations, chunk by chunk, and each
    /// chunk statement by statement: each assignment's reads are loaded
    /// after the previous one's writes are stored.
    pub(crate) fn run(&mut self, k: &Kernel, n: usize) {
        let LoopScratch { regs, rows, refs } = self;
        let (reads, targets) = refs.split_at(k.reads.len());
        for start in (0..n).step_by(CHUNK) {
            let len = CHUNK.min(n - start);
            let (mut r0, mut c0) = (0, 0);
            for (a, w) in k.stmts.iter().zip(targets) {
                let loads = rows[r0..a.reads_end].iter_mut().zip(&reads[r0..]);
                loads.for_each(|(row, s)| s.load(start, &mut row[..len]));
                let read = |r: usize| &rows[r][..];
                k.run(c0..a.code_end, regs, len, &read);
                w.store(start, operand(a.out, regs, &read, len));
                (r0, c0) = (a.reads_end, a.code_end);
            }
        }
    }
}

#[cfg(test)]
impl Scratch {
    /// Has no trip placed a kernel here (with a non-empty box)?
    pub(crate) fn is_unused(&self) -> bool {
        self.out.is_empty()
    }
}

#[cfg(test)]
impl LoopScratch {
    /// Has no execution placed a compiled loop?
    pub(crate) fn is_unused(&self) -> bool {
        self.rows.is_empty() && self.regs.is_empty()
    }
}
