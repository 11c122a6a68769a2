//! `jacobi_dense`: `solvers::jacobi::jacobi_step::<f64>` on a dense
//! square grid, `block2()` on a `p×1` processor grid, default policy.
//!
//! Why it is here: bandwidth- and snapshot-bound. Two messages per
//! worker per sweep, so `machine` and `sched` do little; the
//! copy-in/copy-out clone in `runtime` (`update2_rows`) and the `array`
//! row accessors do most. The workload on which a faster transport
//! should move nothing.

use kali::array::HaloCache;
use kali::prelude::{Ctx, DistArray2, DistSpec, ProcGrid};
use kali::sched::SplitBox2;
use kali::solvers::jacobi::jacobi_step;
use kali::solvers::seq::{jacobi_seq_step, Grid2};

use crate::gen;
use crate::harness::{
    run_compiled, setup_compiled, time_reference, BlockRun, Compiled, Mode, RefRun, Target,
    Workload, SIM_DIV,
};
use crate::trace::Recorder;

pub struct JacobiDense {
    pub seed: u64,
    /// Intervals per side: the grid has `(n+1)²` points.
    pub n: usize,
    /// Sweeps in one timed block.
    pub sweeps: usize,
    pub rounds: usize,
    pub setups: usize,
}

impl JacobiDense {
    pub fn full(seed: u64) -> Self {
        JacobiDense {
            seed,
            n: 1024,
            sweeps: 200,
            rounds: 24,
            setups: 64,
        }
    }

    pub fn toy(seed: u64) -> Self {
        JacobiDense {
            seed,
            n: 48,
            sweeps: 10,
            rounds: 2,
            setups: 2,
        }
    }

    /// The right-hand side, a pure function of the seed and the point.
    fn rhs(&self, i: usize, j: usize) -> f64 {
        1e-3 * gen::unit(self.seed, 0x4a41_434f, (i * (self.n + 1) + j) as u64)
    }
}

pub struct State {
    u: DistArray2<f64>,
    f: DistArray2<f64>,
    /// The traced twin's halo cache (the opaque call uses the `Ctx`'s).
    halo: HaloCache,
}

/// One sweep from the layers' public pieces, in the order
/// `PlanRead::update2_rows` runs them under the default policy: post the
/// cached ghost exchange, snapshot, interior rows, complete into the
/// snapshot, boundary rows. Bitwise-equal to `jacobi_step`.
fn twin_step(ctx: &mut Ctx, st: &mut State, rec: &mut Recorder) {
    let State { u, f, halo } = st;
    let [nxp, nyp] = u.extents();
    let id = rec.begin("halo_post", "array");
    let pending = u.begin_exchange_ghosts_cached(ctx.proc(), halo, false);
    rec.end(id);
    let id = rec.begin("snapshot", "array");
    let mut old = u.clone();
    ctx.proc().memop((u.local_len(0) * u.local_len(1)) as f64);
    rec.end(id);
    let g = u.ghosts();
    let split = SplitBox2::new(
        [u.owned_range(0), u.owned_range(1)],
        1..nxp - 1,
        1..nyp - 1,
        [g[0].min(1), g[1].min(1)],
    );
    let row =
        |old: &DistArray2<f64>, u: &mut DistArray2<f64>, i: usize, js: std::ops::Range<usize>| {
            let up = old.row(i + 1, js.clone());
            let dn = old.row(i - 1, js.clone());
            let lf = old.row(i, js.start - 1..js.end - 1);
            let rt = old.row(i, js.start + 1..js.end + 1);
            let fr = f.row(i, js.clone());
            let dst = u.row_mut(i, js);
            for k in 0..dst.len() {
                dst[k] = 0.25 * (up[k] + dn[k] + rt[k] + lf[k]) - fr[k];
            }
        };
    let id = rec.begin("body", "runtime");
    split.for_interior_rows(|i, js| row(&old, u, i, js));
    ctx.proc().compute(5.0 * split.interior_count() as f64);
    rec.end(id);
    let id = rec.begin("halo_complete", "array");
    old.finish_exchange_ghosts_cached(ctx.proc(), halo, pending);
    rec.end(id);
    let id = rec.begin("body", "runtime");
    split.for_boundary_rows(|i, js| row(&old, u, i, js));
    ctx.proc().compute(5.0 * split.boundary_count() as f64);
    rec.end(id);
}

fn sweeps(ctx: &mut Ctx, st: &mut State, n: usize, mut rec: Option<&mut Recorder>) {
    for _ in 0..n {
        match rec.as_deref_mut() {
            Some(rec) => twin_step(ctx, st, rec),
            None => jacobi_step(ctx, &mut st.u, &st.f),
        }
    }
}

impl Compiled for JacobiDense {
    type State = State;

    fn grid(&self, p: usize) -> ProcGrid {
        ProcGrid::new_2d(p, 1)
    }

    fn build(&self, ctx: &mut Ctx) -> State {
        let ext = [self.n + 1, self.n + 1];
        let spec = DistSpec::block2();
        let grid = ctx.grid().clone();
        State {
            u: DistArray2::new(ctx.rank(), &grid, &spec, ext, [1, 1]),
            f: DistArray2::from_fn(ctx.rank(), &grid, &spec, ext, [0, 0], |[i, j]| {
                self.rhs(i, j)
            }),
            halo: HaloCache::new(),
        }
    }

    fn warm(&self, ctx: &mut Ctx, st: &mut State, rec: Option<&mut Recorder>) {
        sweeps(ctx, st, 3, rec);
    }

    fn block(&self, ctx: &mut Ctx, st: &mut State, div: usize, rec: Option<&mut Recorder>) {
        sweeps(ctx, st, self.sweeps / div, rec);
    }

    fn result(&self, ctx: &mut Ctx, st: &State) -> Option<Vec<f64>> {
        st.u.gather_to_root(ctx.proc())
    }

    fn span_capacity(&self) -> usize {
        5 * (self.sweeps + 3) + 1
    }
}

impl Workload for JacobiDense {
    fn name(&self) -> &'static str {
        "jacobi_dense"
    }

    fn unit(&self) -> &'static str {
        "interior point*sweep"
    }

    fn units(&self) -> f64 {
        ((self.n - 1) * (self.n - 1) * self.sweeps) as f64
    }

    fn sim_units(&self) -> f64 {
        ((self.n - 1) * (self.n - 1) * (self.sweeps / SIM_DIV)) as f64
    }

    fn input_checksum(&self) -> u64 {
        let w = self.n + 1;
        gen::fnv_f64(gen::FNV_OFFSET, (0..w * w).map(|k| self.rhs(k / w, k % w)))
    }

    fn tolerance(&self) -> f64 {
        // Same expression, same association order as `jacobi_seq_step`.
        0.0
    }

    fn max_rounds(&self) -> usize {
        self.rounds
    }

    fn setup_samples(&self) -> usize {
        self.setups
    }

    fn shares(&self) -> &'static [&'static str] {
        &["snapshot", "halo_post", "body", "halo_complete"]
    }

    fn run(&self, p: usize, mode: Mode) -> BlockRun {
        run_compiled(self, Target::Threads(p), mode)
    }

    fn reference(&self) -> RefRun {
        time_reference(
            1,
            || {
                let f = Grid2::from_fn(self.n, self.n, |i, j| self.rhs(i, j));
                (Grid2::zeros(self.n, self.n), f)
            },
            |(x, f)| (0..3).for_each(|_| jacobi_seq_step(x, f)),
            |(x, f)| (0..self.sweeps).for_each(|_| jacobi_seq_step(x, f)),
            |(x, _)| x.v,
        )
    }

    fn setup(&self) -> f64 {
        setup_compiled(self)
    }

    fn sim(&self) -> BlockRun {
        run_compiled(self, Target::SIM, Mode::Plain)
    }
}
