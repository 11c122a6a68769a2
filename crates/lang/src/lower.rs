//! Compiled element assignments: the affine stencil class run as row
//! kernels, and `do` loops run as strided kernels.
//!
//! A `doall` whose body is one element assignment `x(i, j) = rhs` on
//! `owner(x(i, j))`, every element read in `rhs` a whole array subscripted
//! `a(i ± c, j ± c)`, needs no tree walk. [`compile`] turns `rhs`, once
//! per site, into a flat register program whose every instruction
//! processes a row run a chunk ([`CHUNK`] iterations) at a time: an
//! operand is the row of an element read or a register — an earlier
//! instruction's result, or a loop-invariant subtree (no element read, no
//! loop variable) that the interpreter's own `eval` computes once per
//! trip, broadcast along the chunk, so Int/Real typing is exactly the
//! walker's. The registers are a chunk long however long the rows are.
//!
//! Per trip, [`Placed::stencil`] places the program on the bindings at
//! hand. My iterations are a box — the on-array's owned block, read off
//! its `Layout`, met with the loop bounds — and the *interior*, the
//! iterations whose every read is owned, is the meet of each read
//! array's owned block shifted back by the read's offset: the inspector's
//! own classification, read by read. What the inspector would record by
//! walking the body follows from the same boxes ([`Placed::inspect`]).
//!
//! The same compiler takes a sequential `do v = lo, hi` loop
//! ([`compile_loop`]) whose step is 1 and whose body is element
//! assignments only, every target and every read that mentions `v` a
//! reference of any rank with one subscript `v ± c` and scalars — no
//! element read, no call, no `v` — in the others (`wb(k, ip) = rb(k)`):
//! each assignment's right-hand side becomes instructions of one program,
//! and here a maximal subtree without `v` is an invariant even when it
//! reads an element (`wy(2*ip - 1, ip)`). Per execution,
//! [`LoopScratch::place`] evaluates the scalar subscripts and binds every
//! reference to a strided address sequence along its `v` dimension — of a
//! whole array, or of a section like `u(i, *)` — and the loop may run
//! statement by statement over chunks of iterations
//! ([`LoopScratch::run`]) where no iteration reads what another writes:
//! nothing written is referenced at another address, not even by an
//! invariant. The interpreter runs it only where a write is a plain store
//! (a write-through doall iteration). A placed loop also stands in for the
//! inspector's walk: where every element read is owned too, the walk would
//! record only what the invariants read, so the inspector evaluates them
//! once and counts the writes. Whenever a condition fails, the loop is
//! walked.
//!
//! In a batch of lines run as one activation, a run of element
//! assignments whose every subscript is a scalar ([`compile_runs`]) is a
//! kernel too, over the line axis: line `l`'s element is line 0's moved
//! `l` line steps along its array, so each reference is placed once as a
//! sequence whose step is the line's, and the run executes statement by
//! statement over all the lines at once, under the loop's conditions.
//! Lines touch disjoint storage, so only each line's own order matters.
//!
//! One doall of a builtin call is placed as well: `spmv.kf1`'s CSR rows
//! ([`Placed::csr`]), each a multiply-add over its slices of the
//! replicated structure arrays. The placing pass reads every row of mine
//! to check it, and notes on the way the columns the inspector would find
//! remote, so a cold trip reads the rows twice (place, execute), not
//! three times. Either body runs the positions a trip's schedule hands it
//! ([`Placed::exec`]) and commits its box at once.

use std::cell::Ref;
use std::ops::Range;
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
/// order, on `owner` of an array subscripted the same way, reads
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
/// text decides (see the module docs; `var` appears in subscripts only).
/// The bindings are checked per execution ([`LoopScratch::place`]).
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
    let names = |e: &RExpr| any_expr(e, &mut |n| matches!(n, Node::Name(s) if vars.contains(&s)));
    let element = |e: &RExpr| any_expr(e, &mut |n| matches!(n, Node::Expr(RExpr::Ref(..))));
    a.along = a.subs.iter().position(names);
    let scalar = |(d, e): (usize, &RExpr)| Some(d) == a.along || !names(e) && !element(e);
    let var = a
        .along
        .map_or(!hoist, |d| offset(&a.subs[d], vars[0]).is_some());
    (var && a.subs.iter().enumerate().all(scalar)).then_some(a)
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

/// A placed site's buffers, reused trip after trip: the result, a
/// stencil's chunk-long registers and each read's row start, and what a
/// CSR product's placing pass found remote — the flats of `x` its rows
/// read outside `x_owned`, and the positions of those rows.
#[derive(Default)]
pub(crate) struct Scratch {
    out: Vec<f64>,
    regs: Vec<Vec<f64>>,
    starts: Vec<usize>,
    remote: Vec<usize>,
    boundary: Vec<usize>,
}

/// A doall placed on one trip's bindings: my iterations, a box whose
/// positions count in iteration order, each writing one element of
/// `target`.
pub(crate) struct Placed<'k> {
    pub bx: Bx,
    target: Addr,
    body: Body<'k>,
}

enum Body<'k> {
    /// The kernel's assignment; `interior` holds the iterations whose every
    /// read is owned, and a read is its array, offset and what I own of it.
    Stencil {
        kernel: &'k Kernel,
        interior: Bx,
        reads: Vec<(Addr, [i64; 2], Bx)>,
    },
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
    /// Place `k` for rank `me` over the loop `ranges` (unit steps), with
    /// `on` the on-clause's array and `whole` the whole array a slot is
    /// bound to, if it is. `None` — the walker runs, and reports what it
    /// reports — when an array is not whole, real, of the loop's rank and
    /// contiguously distributed, when the on-array's layout or bounds are
    /// not the target's, or when the loop leaves those bounds or a read of
    /// the box leaves its array's.
    pub(crate) fn stencil(
        me: usize,
        ranges: &[(i64, i64)],
        k: &'k Kernel,
        on: Slot,
        whole: impl Fn(Slot) -> Option<ArrRef>,
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
        let (mut interior, mut reads) = (bx, Vec::with_capacity(k.reads.len()));
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
            reads.push((f, off, owned));
        }
        let body = Body::Stencil {
            kernel: k,
            interior,
            reads,
        };
        Some(Placed { bx, target, body })
    }

    /// Place the CSR product for rank `me` over rows `lo..=hi` (unit step)
    /// on whole arrays and the view `x` of a section. `None` — the walker
    /// runs, and reports what it reports — unless all are 1-D, `y` real,
    /// block-distributed and holding the loop range, `rp`, `ci`, `av`
    /// replicated, `x` real, not `y`, with contiguous blocks, and every row
    /// of mine names sections of `ci` and `av` by exact integers in `rp`,
    /// their columns inside `x`'s section. The same pass notes in `s` what
    /// the inspector would find remote ([`Placed::inspect`]).
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
        let structure = [rp, ci, av];
        let x_at = a.checked_sub(x.callee_lo[0])?.checked_sub(x_lo)?;
        let x_owned = x0.saturating_sub(x_lo)..=x1.saturating_sub(x_lo);
        // The walker translates column `c` to `c − callee_lo + a`.
        let inside = |c: &f64| {
            let t = (*c as i64).checked_sub(x.callee_lo[0]);
            t.is_some_and(|t| (0..=b - a).contains(&t))
        };
        let mut fits = true;
        s.remote.clear();
        s.boundary.clear();
        let rows = 0..(bx[1].1 - bx[1].0 + 1) as usize;
        csr_rows(&structure, bx[1].0, rows, |pos, row| {
            match row.filter(|[c, _]| c.iter().all(inside)) {
                None => fits = false,
                Some([cols, _]) => {
                    let before = s.remote.len();
                    let flats = cols.iter().map(|&c| (c as i64).wrapping_add(x_at));
                    let remote = flats.filter(|f| !x_owned.contains(f));
                    s.remote.extend(remote.map(|f| f as usize));
                    if s.remote.len() > before {
                        s.boundary.push(pos);
                    }
                }
            }
        });
        let x = x.base.clone();
        let body = Body::Csr { structure, x, x_at };
        fits.then_some(Placed { bx, target, body })
    }

    /// How many iterations are mine.
    pub(crate) fn len(&self) -> usize {
        let [(a0, b0), (a1, b1)] = self.bx;
        ((b0 - a0 + 1) * (b1 - a1 + 1)).max(0) as usize
    }

    /// The row runs `(row, first, last)` of the positions in `at`, ranges
    /// in ascending order: ranges that touch are joined, and a run ends
    /// where its row does.
    fn runs(&self, at: impl IntoIterator<Item = Range<usize>>, mut f: impl FnMut(i64, i64, i64)) {
        let [(a0, _), (a1, b1)] = self.bx;
        let width = (b1 - a1 + 1).max(1) as usize;
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

    /// The positions of a stencil's iterations with a read that is not
    /// owned, from its interior box: per row, what lies left and right of
    /// the interior's columns, or the whole row.
    fn boundary<'b>(&'b self, interior: &Bx) -> impl Iterator<Item = Range<usize>> + 'b {
        let [(a0, b0), (a1, b1)] = self.bx;
        let [(c0, e0), (c1, e1)] = *interior;
        (a0..=b0).flat_map(move |i| {
            let (inner, at) = ((c0..=e0).contains(&i), |j| flat(&self.bx, i, j));
            let (c, e) = if inner { (c1, e1) } else { (b1 + 1, b1) };
            [at(a1)..at(c), at(e + 1)..at(b1 + 1)]
        })
    }

    /// What the inspector finds walking my iterations: the positions of
    /// those with a remote read, ascending, while `note` is handed each
    /// remote read as `(array, flat)` in iteration and evaluation order. A
    /// stencil's follow from its boxes; a CSR product's are the lists its
    /// placing pass left in `s`, read off its rows' columns in this order,
    /// so no row is read again.
    pub(crate) fn inspect(&self, s: &Scratch, mut note: impl FnMut(&ArrRef, usize)) -> Vec<usize> {
        let mut boundary = Vec::new();
        match &self.body {
            Body::Stencil {
                interior, reads, ..
            } => self.runs(self.boundary(interior), |i, a, b| {
                for j in a..=b {
                    boundary.push(flat(&self.bx, i, j));
                    for (f, [di, dj], [(l0, h0), (l1, h1)]) in reads {
                        let (i, j) = (i + di, j + dj);
                        if !(*l0..=*h0).contains(&i) || !(*l1..=*h1).contains(&j) {
                            note(&f.base, flat(&f.bounds, i, j));
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

    /// Size `s` for this trip and broadcast a stencil's invariant
    /// `values`, one per [`Kernel::invariants`] entry, along the
    /// registers they fill: a row's first chunk at most.
    pub(crate) fn prepare(&self, values: &[f64], s: &mut Scratch) {
        s.out.resize(self.len(), 0.0);
        if let Body::Stencil { kernel, reads, .. } = &self.body {
            let width = (self.bx[1].1 - self.bx[1].0 + 1).clamp(0, CHUNK as i64) as usize;
            s.regs.resize_with(kernel.regs, Vec::new);
            s.regs.iter_mut().for_each(|r| r.resize(width, 0.0));
            for ((r, _), &v) in kernel.invariants.iter().zip(values) {
                s.regs[*r].fill(v);
            }
            s.starts.resize(reads.len(), 0);
        }
    }

    /// Run the iterations at the positions in `at`, ranges in ascending
    /// order, into the result, charging `proc` as the walker does: a
    /// stencil the assignment's flops per iteration, its row runs a chunk
    /// at a time, a CSR row `2·nnz` flops and then its written word, row
    /// by row in execution order.
    pub(crate) fn exec(
        &self,
        at: impl IntoIterator<Item = Range<usize>>,
        s: &mut Scratch,
        proc: &mut Proc,
    ) {
        let (out, regs, starts) = (&mut s.out, &mut s.regs, &mut s.starts);
        match &self.body {
            Body::Stencil {
                kernel: k, reads, ..
            } => {
                let data: Vec<Ref<ArrObj>> = reads.iter().map(|r| r.0.base.borrow()).collect();
                let mut count = 0;
                self.runs(at, |i, first, last| {
                    for a in (first..=last).step_by(CHUNK) {
                        let len = CHUNK.min((last - a + 1) as usize);
                        count += len;
                        for (start, (f, off, _)) in starts.iter_mut().zip(reads) {
                            *start = flat(&f.bounds, i + off[0], a + off[1]);
                        }
                        let read = |r: usize| &data[r].data[starts[r]..];
                        k.run(0..k.code.len(), regs, len, &read);
                        let at = flat(&self.bx, i, a);
                        let result = operand(k.stmts[0].out, regs, &read, len);
                        out[at..at + len].copy_from_slice(result);
                    }
                });
                proc.compute_each(&k.flops, count);
            }
            Body::Csr {
                structure, x, x_at, ..
            } => {
                let x = x.borrow();
                let product =
                    |(&c, &a): (&f64, &f64)| a * x.data[(c as i64).wrapping_add(*x_at) as usize];
                let rows = at.into_iter().flatten();
                csr_rows(structure, self.bx[1].0, rows, |pos, row| {
                    let [cols, vals] = row.expect("placed rows name sections of ci and av");
                    // The walker's sum, and +0.0 for an empty row, as it stores.
                    out[pos] = match cols.len() {
                        0 => 0.0,
                        _ => cols.iter().zip(vals).map(product).sum(),
                    };
                    proc.compute(2.0 * cols.len() as f64);
                    proc.memop(1.0);
                });
            }
        }
    }

    /// Copy-out: the result into the target's storage, charged as the
    /// walker's commit of one write per iteration.
    pub(crate) fn commit(&self, s: &Scratch, proc: &mut Proc) {
        proc.memop(self.len() as f64);
        let mut t = self.target.base.borrow_mut();
        self.runs(std::iter::once(0..self.len()), |i, a, b| {
            let (from, len) = (flat(&self.bx, i, a), (b - a + 1) as usize);
            let to = flat(&self.target.bounds, i, a);
            t.data[to..to + len].copy_from_slice(&s.out[from..from + len]);
        });
    }
}

/// Run `f(position, row)` over the CSR rows at `positions`, counted from
/// row `first`: each row its column indices and values, if its `rp`
/// entries are exact integers naming a section of `ci` and of `av`.
fn csr_rows(
    [rp, ci, av]: &[ArrRef; 3],
    first: i64,
    positions: impl IntoIterator<Item = usize>,
    mut f: impl FnMut(usize, Option<[&[f64]; 2]>),
) {
    let [rp, ci, av] = [rp, ci, av].map(|a| a.borrow());
    let at = |a: &ArrObj, i: i64| usize::try_from(i.checked_sub(a.bounds[0].0)?).ok();
    let row = |i: i64| {
        let k = exact_int(*rp.data.get(at(&rp, i)?)?)?;
        let end = exact_int(*rp.data.get(at(&rp, i.checked_add(1)?)?)?)?;
        let span = |a: &ArrObj| Some(at(a, k)?..at(a, end)?);
        Some([ci.data.get(span(&ci)?)?, av.data.get(span(&av)?)?])
    };
    for pos in positions {
        #[cfg(test)]
        CSR_ROWS_VISITED.with(|n| n.set(n.get() + 1));
        f(pos, row(first + pos as i64));
    }
}

/// `v` as an integer, if it is one of magnitude at most 2⁵³.
fn exact_int(v: f64) -> Option<i64> {
    let i = v as i64;
    (i as f64 == v && i.unsigned_abs() <= 1 << 53).then_some(i)
}

/// The most iterations a compiled loop or a placed stencil's row runs at
/// once: their registers never grow with the loop.
const CHUNK: usize = 64;

/// A rank-1 section, placed — a compiled loop's reference, a builtin's
/// argument: element `t` (from the first) is `base.data[at + t * step]`.
pub(crate) struct Strided {
    pub(crate) base: ArrRef,
    at: usize,
    step: usize,
}

impl Strided {
    /// Reference `view(subs)` for subscript `along` from `lo` to `hi`,
    /// `subs` one subscript per dimension of the view: both ends translate
    /// through the view into the array's bounds, as the walker's accesses
    /// do (then so does everything between). With `owner`, every element
    /// must also be that rank's: along a contiguous dimension what a rank
    /// owns is an interval, so the ends decide; elsewhere every element
    /// is tested. An empty range references nothing.
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
        if hi < lo {
            let (base, at, step) = (view.base.clone(), 0, 1);
            return Some(Strided { base, at, step });
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
        let base = view.base.clone();
        Some(Strided { base, at, step })
    }

    /// The storage index of element `t`.
    pub(crate) fn flat(&self, t: usize) -> usize {
        self.at + t * self.step
    }

    /// Where the section's first `n` elements are stored, if contiguously.
    pub(crate) fn span(&self, n: usize) -> Option<Range<usize>> {
        (self.step == 1).then_some(self.at..self.at + n)
    }

    /// Move the section `by` elements along its array.
    pub(crate) fn advance(&mut self, by: isize) {
        self.at = self.at.wrapping_add_signed(by);
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

/// A compiled loop's or element run's buffers, reused execution after
/// execution: chunk-long registers and per-read rows, the placed
/// references — the reads, then one target per assignment — and their
/// evaluated subscripts.
#[derive(Default)]
pub(crate) struct LoopScratch {
    regs: Vec<Vec<f64>>,
    rows: Vec<Vec<f64>>,
    refs: Vec<Strided>,
    subs: Vec<i64>,
}

impl LoopScratch {
    /// Evaluate by `f` the subscripts of `k`'s accesses, a loop
    /// variable's at its first value: `false` if one fails.
    pub(crate) fn eval(&mut self, k: &Kernel, mut f: impl FnMut(&RExpr) -> Option<i64>) -> bool {
        self.subs.clear();
        let mut subs = k.refs().flat_map(|r| &r.subs);
        subs.all(|e| f(e).map(|v| self.subs.push(v)).is_some())
    }

    /// Place `k` on one execution for rank `me`, on the subscripts
    /// [`LoopScratch::eval`] evaluated, `view` the view a slot is
    /// bound to, if it is a real array: a loop over `Some((lo, hi))` (not
    /// empty), or a run of element assignments over a batch's lines, one
    /// iteration a line, each reference moving `step(slot)` elements from
    /// line to line. `None` — the walker runs, and reports what it reports
    /// — unless every reference is placed ([`Strided::of`]), `me` owns every
    /// element written (and, with `owned_reads`, every element read), and,
    /// in a loop, nothing written is also read at another address: by a
    /// reference with another sequence, or by an invariant. Over lines a
    /// line steps forwards, and what one line references no other does
    /// ([`crate::interp`]'s lift): only each line's own order matters.
    pub(crate) fn place<'v>(
        &mut self,
        k: &Kernel,
        range: Option<(i64, i64)>,
        me: usize,
        owned_reads: bool,
        view: impl Fn(Slot) -> Option<&'v View>,
        step: impl Fn(Slot) -> isize,
    ) -> Option<()> {
        self.refs.clear();
        let span = range.map_or(Some(0), |(lo, hi)| hi.checked_sub(lo))?;
        let mut subs = &self.subs[..];
        for (i, r) in k.refs().enumerate() {
            let owner = (owned_reads || i >= k.reads.len()).then_some(me);
            let at;
            (at, subs) = subs.split_at(r.subs.len());
            let along = r.along.unwrap_or(0);
            let first = *at.get(along)?;
            let ends = (first, first.checked_add(span)?);
            let mut s = Strided::of(view(r.slot)?, at, along, ends, owner)?;
            if range.is_none() {
                s.step = usize::try_from(step(r.slot)).ok().filter(|&s| s > 0)?;
            }
            self.refs.push(s);
        }
        let (reads, targets) = self.refs.split_at(k.reads.len());
        let clash = range.is_some()
            && targets.iter().any(|w| {
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
        // Kept however few the next kernel needs: kernels take turns.
        for (bufs, n) in [(&mut self.regs, k.regs), (&mut self.rows, k.reads.len())] {
            if bufs.len() < n {
                bufs.resize_with(n, || vec![0.0; CHUNK]);
            }
        }
        Some(())
    }

    /// Move every placed reference `step(slot)` elements along its array:
    /// to the next line of a batch.
    pub(crate) fn next_line(&mut self, k: &Kernel, step: impl Fn(Slot) -> isize) {
        for (s, r) in self.refs.iter_mut().zip(k.refs()) {
            s.advance(step(r.slot));
        }
    }

    /// Broadcast an invariant's value along the register it fills.
    pub(crate) fn fill(&mut self, reg: usize, v: f64) {
        self.regs[reg].fill(v);
    }

    /// Execute the placed loop's `n` iterations, chunk by chunk, and each
    /// chunk statement by statement: each assignment's reads are loaded
    /// after the previous one's writes are stored.
    pub(crate) fn run(&mut self, k: &Kernel, n: usize) {
        let (regs, rows, refs) = (&mut self.regs, &mut self.rows, &self.refs);
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

#[cfg(test)]
thread_local! {
    /// The CSR rows [`csr_rows`] visited on this thread (a processor's).
    pub(crate) static CSR_ROWS_VISITED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
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
    fn array(bounds: Vec<(i64, i64)>, dist: Option<&str>, grid: &ProcGrid) -> ArrRef {
        let extents: Vec<usize> = bounds.iter().map(|&(l, h)| (h - l + 1) as usize).collect();
        let layout = match dist {
            Some(d) => Layout::new(&DistSpec::parse(d).unwrap(), &extents, grid).unwrap(),
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
    fn same_under_every_split(placed: &Placed, s: &Scratch, g: &mut TestRng, proc: &mut Proc) {
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
            let (mut s, clock) = (Scratch::default(), proc.clock());
            let (flops, words) = (proc.stats().flops, proc.stats().mem_words);
            placed.prepare(&[], &mut s);
            for at in plan {
                placed.exec(at.iter().cloned(), &mut s, proc);
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
                let x = array(bounds.clone(), Some(&dist), &grid);
                let b = array(bounds, Some(&dist), &grid);
                let slot = |name: &str| sub.names.iter().position(|n| n == name).unwrap();
                let whole = |s: Slot| Some(if s == slot("x") { x.clone() } else { b.clone() });
                for me in 0..p {
                    let placed = Placed::stencil(me, &ranges, k, slot("x"), whole).expect(&src);
                    same_under_every_split(&placed, &Scratch::default(), &mut g, proc);
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
            let patterns: Vec<String> = (0..dims)
                .map(|d| match below(3) {
                    0 => "block".into(),
                    1 => "cyclic".into(),
                    _ => format!("cyclic({})", 1 + below(2 * extent(d))),
                })
                .collect();
            // Replicated, or one dimension distributed on a line of `p`, or
            // both on a `p × 1`, `1 × p` or `2 × 2` grid.
            let (shape, dist) = match (dims, below(4)) {
                (_, 0) => (vec![p], None),
                (1, _) => (vec![p], Some(patterns[0].clone())),
                (_, 1) => (vec![p], Some(format!("{}, *", patterns[0]))),
                (_, 2) => (vec![p], Some(format!("*, {}", patterns[1]))),
                _ => {
                    let shape = match (p, below(2)) {
                        (4, 0) => vec![2, 2],
                        (_, 0) => vec![p, 1],
                        _ => vec![1, p],
                    };
                    (shape, Some(patterns.join(", ")))
                }
            };
            let grid = ProcGrid::with_ranks(shape, (0..p).collect());
            let base = array(bounds.clone(), dist.as_deref(), &grid);
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
                            .map(|s| (0..=hi - lo).map(|t| s.flat(t as usize)).collect::<Vec<_>>());
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
                let y = array(vec![(1, n)], Some("block"), &grid);
                let xb = array(vec![(1, nx)], Some("block"), &grid);
                let av = array(vec![(1, nz.max(1))], None, &grid);
                let structure = [replicated(rp), replicated(ci), av];
                let x = View { base: xb, map: vec![ViewDim::Range(a, b)], callee_lo: vec![1] };
                let (lo, hi) = (1 + below(n), n - below(2));
                for me in 0..p {
                    let [rp, ci, av] = structure.clone();
                    let mut s = Scratch::default();
                    let arrays = [y.clone(), rp, ci, av];
                    let placed = Placed::csr(me, (lo, hi), arrays, &x, &mut s).unwrap();
                    same_under_every_split(&placed, &s, &mut g, proc);
                }
            });
        }
    }
}
