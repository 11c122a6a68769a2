//! `cg_sparse`: `solvers::cg::cg::<f64>`, a fixed number of iterations
//! (tolerance 0) on the 5-point Laplacian of a square grid plus
//! seed-chosen symmetric long-range couplings, block rows.
//!
//! Why it is here: the *same* `sched` executor the stencils use, used
//! differently — a value-driven gather schedule (the inspector reads
//! the column indices) replayed from `GatherCache` into a trip-private
//! haul, plus two allreduces per iteration. A change to the executor or
//! the cache that helps the analytic halo but hurts the gather shows
//! here.

use std::collections::{BTreeMap, BTreeSet};

use kali::array::GatherCache;
use kali::prelude::{Ctx, DistArray1, DistSpec, ProcGrid, SparseCsr};
use kali::sched::interior_positions;
use kali::solvers::cg::cg;

use crate::gen;
use crate::harness::{
    run_compiled, setup_compiled, time_reference, BlockRun, Compiled, Mode, RefRun, Target,
    Workload, SIM_DIV,
};
use crate::trace::Recorder;

pub struct CgSparse {
    pub seed: u64,
    /// Grid side: the matrix has `m²` rows.
    pub m: usize,
    /// CG iterations per solve.
    pub iters: usize,
    /// Solves (each from `x = 0`) in one timed block.
    pub solves: usize,
    /// Repetitions of the (much faster) reference block.
    pub ref_reps: usize,
    pub rounds: usize,
    pub setups: usize,
    /// Long-range couplings per row: `(column, weight)`, symmetric.
    long: BTreeMap<usize, Vec<(usize, f64)>>,
}

const STREAM_PAIR: u64 = 0x4347_5031;
const STREAM_RHS: u64 = 0x4347_5232;

impl CgSparse {
    pub fn full(seed: u64) -> Self {
        CgSparse::new(seed, 320, 25, 1, 5, 24, 64)
    }

    pub fn toy(seed: u64) -> Self {
        CgSparse::new(seed, 24, 10, 2, 1, 2, 2)
    }

    fn new(
        seed: u64,
        m: usize,
        iters: usize,
        solves: usize,
        ref_reps: usize,
        rounds: usize,
        setups: usize,
    ) -> Self {
        let n = m * m;
        // One coupling per 64 rows: row `i` in the k-th group of 64,
        // partner `j` anywhere, neither a grid neighbour nor a repeat.
        let mut long: BTreeMap<usize, Vec<(usize, f64)>> = BTreeMap::new();
        let mut used = BTreeSet::new();
        for k in 0..n / 64 {
            for attempt in 0..16u64 {
                let h = gen::hash3(seed, STREAM_PAIR, k as u64 * 16 + attempt);
                let i = 64 * k + (h % 64) as usize;
                let j = ((h >> 8) % n as u64) as usize;
                let d = i.abs_diff(j);
                if d == 0 || d == 1 || d == m || !used.insert((i.min(j), i.max(j))) {
                    continue;
                }
                let w = 0.1 + 0.5 * ((h >> 40) as f64 / (1u64 << 24) as f64);
                long.entry(i).or_default().push((j, w));
                long.entry(j).or_default().push((i, w));
                break;
            }
        }
        CgSparse {
            seed,
            m,
            iters,
            solves,
            ref_reps,
            rounds,
            setups,
            long,
        }
    }

    fn n(&self) -> usize {
        self.m * self.m
    }

    /// Row `i`: the 5-point Laplacian plus its long-range couplings, the
    /// diagonal raised by their weights so it stays dominant.
    fn row(&self, i: usize) -> Vec<(usize, f64)> {
        let (m, n) = (self.m, self.n());
        let mut row = Vec::with_capacity(8);
        let mut diag = 4.0;
        if i >= m {
            row.push((i - m, -1.0));
        }
        if !i.is_multiple_of(m) {
            row.push((i - 1, -1.0));
        }
        if i % m != m - 1 {
            row.push((i + 1, -1.0));
        }
        if i + m < n {
            row.push((i + m, -1.0));
        }
        for &(j, w) in self.long.get(&i).map_or(&[][..], Vec::as_slice) {
            row.push((j, -w));
            diag += w;
        }
        row.push((i, diag));
        row.sort_by_key(|&(c, _)| c);
        row
    }

    fn rhs(&self, i: usize) -> f64 {
        gen::unit(self.seed, STREAM_RHS, i as u64)
    }

    fn nnz(&self) -> usize {
        (0..self.n()).map(|i| self.row(i).len()).sum()
    }

    /// CG iterations a block runs at `1/div` of its size.
    fn block_iters(&self, div: usize) -> (usize, usize) {
        if div == 1 {
            (self.solves, self.iters)
        } else {
            (1, (self.solves * self.iters / div).max(1))
        }
    }
}

pub struct State {
    a: SparseCsr<f64>,
    b: DistArray1<f64>,
    x: DistArray1<f64>,
    /// The traced twin's gather cache (the opaque call uses the `Ctx`'s).
    gather: GatherCache,
}

/// `ctx.sparse().spmv` under the default policy, from its public
/// pieces: post the cached gather, interior rows, complete, boundary
/// rows.
fn twin_spmv(
    ctx: &mut Ctx,
    a: &SparseCsr<f64>,
    gather: &mut GatherCache,
    x: &DistArray1<f64>,
    y: &mut DistArray1<f64>,
    rec: &mut Recorder,
) {
    let id = rec.begin("spmv_gather", "array");
    let pending = a.begin_gather_x_cached(ctx.proc(), gather, x);
    let pre = pending.local_schedule();
    rec.end(id);
    if let Some(sched) = &pre {
        let id = rec.begin("spmv_rows", "runtime");
        let interior = interior_positions(&sched.boundary, a.local_rows());
        let nnz = a.apply_positions(x, None, y, &interior);
        ctx.proc().compute(2.0 * nnz as f64);
        rec.end(id);
    }
    let id = rec.begin("spmv_gather", "array");
    let got = a.finish_gather_x_cached(ctx.proc(), gather, x, pending);
    rec.end(id);
    let id = rec.begin("spmv_rows", "runtime");
    let nnz = if pre.is_some() {
        a.apply_positions(x, Some(got.haul()), y, got.boundary())
    } else {
        a.apply_all(x, Some(got.haul()), y)
    };
    ctx.proc().compute(2.0 * nnz as f64);
    rec.end(id);
}

fn twin_dot(ctx: &mut Ctx, u: &DistArray1<f64>, v: &DistArray1<f64>, rec: &mut Recorder) -> f64 {
    let id = rec.begin("vector_ops", "benchmark");
    let r = u.owned_range(0);
    let mut local = 0.0;
    for i in r.clone() {
        local += u.at(i) * v.at(i);
    }
    ctx.proc().compute(2.0 * r.len() as f64);
    rec.end(id);
    rec.span("allreduce", "machine", || ctx.allreduce_sum(local))
}

/// `u ← u + s·v` over the owned range.
fn twin_axpy(ctx: &mut Ctx, s: f64, v: &DistArray1<f64>, u: &mut DistArray1<f64>) {
    let r = u.owned_range(0);
    for i in r.clone() {
        u.put(i, u.at(i) + s * v.at(i));
    }
    ctx.proc().compute(2.0 * r.len() as f64);
}

/// `solvers::cg::cg` with tolerance 0, statement for statement, over
/// [`twin_spmv`], `ctx.allreduce_sum` and local vector loops.
fn twin_cg(ctx: &mut Ctx, st: &mut State, iters: usize, rec: &mut Recorder) {
    let State { a, b, x, gather } = st;
    let mut r = x.like();
    twin_spmv(ctx, a, gather, x, &mut r, rec);
    let id = rec.begin("vector_ops", "benchmark");
    let range = r.owned_range(0);
    for i in range.clone() {
        r.put(i, b.at(i) - r.at(i));
    }
    ctx.proc().compute(range.len() as f64);
    rec.end(id);
    let mut rho = twin_dot(ctx, &r, &r, rec);
    let id = rec.begin("vector_ops", "benchmark");
    let mut p = x.like();
    for i in range.clone() {
        p.put(i, r.at(i));
    }
    let mut q = x.like();
    rec.end(id);
    for _ in 0..iters {
        twin_spmv(ctx, a, gather, &p, &mut q, rec);
        let pq = twin_dot(ctx, &p, &q, rec);
        let alpha = rho / pq;
        let id = rec.begin("vector_ops", "benchmark");
        twin_axpy(ctx, alpha, &p, x);
        twin_axpy(ctx, -alpha, &q, &mut r);
        rec.end(id);
        let rho_new = twin_dot(ctx, &r, &r, rec);
        let beta = rho_new / rho;
        let id = rec.begin("vector_ops", "benchmark");
        for i in range.clone() {
            p.put(i, r.at(i) + beta * p.at(i));
        }
        ctx.proc().compute(2.0 * range.len() as f64);
        rec.end(id);
        rho = rho_new;
    }
}

/// `solves` solves of `iters` iterations, each from `x = 0`.
fn solve(
    ctx: &mut Ctx,
    st: &mut State,
    solves: usize,
    iters: usize,
    mut rec: Option<&mut Recorder>,
) {
    for _ in 0..solves {
        st.x.fill_with(|_| 0.0);
        match rec.as_deref_mut() {
            Some(rec) => twin_cg(ctx, st, iters, rec),
            None => {
                let res = cg(ctx, &st.a, &st.b, &mut st.x, iters, 0.0);
                assert_eq!(res.iterations, iters, "tolerance 0 never converges early");
            }
        }
    }
}

impl Compiled for CgSparse {
    type State = State;

    fn grid(&self, p: usize) -> ProcGrid {
        ProcGrid::new_1d(p)
    }

    fn build(&self, ctx: &mut Ctx) -> State {
        let n = self.n();
        let grid = ctx.grid().clone();
        let spec = DistSpec::block1();
        State {
            a: SparseCsr::from_rows(ctx.rank(), &grid, n, n, |i| self.row(i)),
            b: DistArray1::from_fn(ctx.rank(), &grid, &spec, [n], [0], |[i]| self.rhs(i)),
            x: DistArray1::new(ctx.rank(), &grid, &spec, [n], [0]),
            gather: GatherCache::new(),
        }
    }

    /// One short solve: its first SpMV is the cold trip (inspector,
    /// request round, store), the rest replay warm.
    fn warm(&self, ctx: &mut Ctx, st: &mut State, rec: Option<&mut Recorder>) {
        solve(ctx, st, 1, 2, rec);
    }

    fn block(&self, ctx: &mut Ctx, st: &mut State, div: usize, rec: Option<&mut Recorder>) {
        let (solves, iters) = self.block_iters(div);
        solve(ctx, st, solves, iters, rec);
    }

    fn result(&self, ctx: &mut Ctx, st: &State) -> Option<Vec<f64>> {
        st.x.gather_to_root(ctx.proc())
    }

    fn span_capacity(&self) -> usize {
        (14 * (self.iters + 1)) * (self.solves + 1) + 1
    }
}

/// Flat CSR of the whole matrix, for the reference.
struct Csr {
    row_ptr: Vec<usize>,
    col: Vec<usize>,
    val: Vec<f64>,
}

impl Csr {
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        for (i, yi) in y.iter_mut().enumerate() {
            let mut sum = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                sum += self.val[k] * x[self.col[k]];
            }
            *yi = sum;
        }
    }
}

fn dot(u: &[f64], v: &[f64]) -> f64 {
    u.iter().zip(v).map(|(a, b)| a * b).sum()
}

/// Plain CG on the flat CSR, `iters` iterations from `x = 0`: the same
/// update order as `solvers::cg::cg`, one sequential dot product where
/// the distributed solver has an allreduce of partial sums.
fn cg_flat(a: &Csr, b: &[f64], x: &mut [f64], iters: usize) {
    let n = b.len();
    x.fill(0.0);
    let mut r = vec![0.0; n];
    a.spmv(x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let mut rho = dot(&r, &r);
    let mut p = r.clone();
    let mut q = vec![0.0; n];
    for _ in 0..iters {
        a.spmv(&p, &mut q);
        let alpha = rho / dot(&p, &q);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] += -alpha * q[i];
        }
        let rho_new = dot(&r, &r);
        let beta = rho_new / rho;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rho = rho_new;
    }
}

impl Workload for CgSparse {
    fn name(&self) -> &'static str {
        "cg_sparse"
    }

    fn unit(&self) -> &'static str {
        "nonzero*iteration"
    }

    fn units(&self) -> f64 {
        (self.nnz() * self.iters * self.solves) as f64
    }

    fn sim_units(&self) -> f64 {
        let (solves, iters) = self.block_iters(SIM_DIV);
        (self.nnz() * iters * solves) as f64
    }

    fn input_checksum(&self) -> u64 {
        let mut h = gen::FNV_OFFSET;
        for i in 0..self.n() {
            for (c, v) in self.row(i) {
                h = gen::fnv_u64(h, c as u64);
                h = gen::fnv_u64(h, v.to_bits());
            }
            h = gen::fnv_u64(h, self.rhs(i).to_bits());
        }
        h
    }

    fn tolerance(&self) -> f64 {
        // The allreduce sums two partial dot products; the reference
        // sums in one pass.
        1e-10
    }

    fn max_rounds(&self) -> usize {
        self.rounds
    }

    fn setup_samples(&self) -> usize {
        self.setups
    }

    fn shares(&self) -> &'static [&'static str] {
        &["spmv_gather", "spmv_rows", "allreduce", "vector_ops"]
    }

    fn run(&self, p: usize, mode: Mode) -> BlockRun {
        run_compiled(self, Target::Threads(p), mode)
    }

    fn reference(&self) -> RefRun {
        // Each solve starts from x = 0, so the block repeats as is.
        time_reference(
            self.ref_reps,
            || {
                let n = self.n();
                let mut a = Csr {
                    row_ptr: vec![0],
                    col: Vec::new(),
                    val: Vec::new(),
                };
                for i in 0..n {
                    for (c, v) in self.row(i) {
                        a.col.push(c);
                        a.val.push(v);
                    }
                    a.row_ptr.push(a.col.len());
                }
                let b: Vec<f64> = (0..n).map(|i| self.rhs(i)).collect();
                (a, b, vec![0.0; n])
            },
            |(a, b, x)| cg_flat(a, b, x, 2),
            |(a, b, x)| (0..self.solves).for_each(|_| cg_flat(a, b, x, self.iters)),
            |(_, _, x)| x,
        )
    }

    fn setup(&self) -> f64 {
        setup_compiled(self)
    }

    fn sim(&self) -> BlockRun {
        run_compiled(self, Target::SIM, Mode::Plain)
    }
}
