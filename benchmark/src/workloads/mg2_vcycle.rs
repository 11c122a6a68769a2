//! `mg2_vcycle`: `solvers::mg2::mg2_vcycle` (y-semicoarsening, zebra
//! line relaxation) on a square grid, `dist (*, block)`, Poisson.
//!
//! Why it is here: eight shrinking levels mean dozens of small
//! corner-completing halo trips, restrict/interpolate routes and Thomas
//! line solves per cycle, so `machine`, `sched`, `array`'s halo and
//! `kernels` do most of the work and arithmetic little. The workload on
//! which a cheaper message or trip should show first — and on which two
//! workers are slower than the sequential reference today.

use kali::prelude::{Ctx, DistArray2, DistSpec, Pde, ProcGrid};
use kali::solvers::mg2::{mg2_vcycle, zebra2};
use kali::solvers::seq::{mg2_seq, Grid2};
use kali::solvers::transfer::{intrp2, resid2, rest2};

use crate::gen;
use crate::harness::{
    run_compiled, setup_compiled, time_reference, BlockRun, Compiled, Mode, RefRun, Target,
    Workload, SIM_DIV,
};
use crate::trace::Recorder;

pub struct Mg2Vcycle {
    pub seed: u64,
    /// Intervals per side (a power of two): `(n+1)²` points.
    pub n: usize,
    /// V-cycles in one timed block.
    pub cycles: usize,
    pub rounds: usize,
    pub setups: usize,
}

impl Mg2Vcycle {
    pub fn full(seed: u64) -> Self {
        Mg2Vcycle {
            seed,
            n: 256,
            cycles: 40,
            rounds: 24,
            setups: 64,
        }
    }

    pub fn toy(seed: u64) -> Self {
        Mg2Vcycle {
            seed,
            n: 32,
            cycles: 10,
            rounds: 2,
            setups: 2,
        }
    }

    fn rhs(&self, i: usize, j: usize) -> f64 {
        if i == 0 || j == 0 || i == self.n || j == self.n {
            0.0
        } else {
            gen::unit(self.seed, 0x4d47_3256, (i * (self.n + 1) + j) as u64)
        }
    }
}

pub struct State {
    u: DistArray2<f64>,
    f: DistArray2<f64>,
}

/// `mg2_vcycle` re-spelt over the public `zebra2`/`resid2`/`rest2`/
/// `intrp2`, one span per call per level. Same calls, same order, same
/// `Ctx` caches: bitwise-equal to the opaque call by construction.
fn twin_vcycle(
    ctx: &mut Ctx,
    pde: &Pde,
    u: &mut DistArray2<f64>,
    f: &DistArray2<f64>,
    rec: &mut Recorder,
) {
    let ny = u.extents()[1] - 1;
    if ny <= 2 {
        rec.span("zebra2", "solvers", || zebra2(ctx, pde, u, f, 1));
        return;
    }
    rec.span("zebra2", "solvers", || zebra2(ctx, pde, u, f, 0));
    rec.span("zebra2", "solvers", || zebra2(ctx, pde, u, f, 1));
    let mut r = rec.span("resid2", "solvers", || resid2(ctx, pde, u, f));
    let g = rec.span("rest2", "solvers", || rest2(ctx, &mut r));
    let mut v = g.like();
    twin_vcycle(ctx, pde, &mut v, &g, rec);
    rec.span("intrp2", "solvers", || intrp2(ctx, u, &v));
    rec.span("zebra2", "solvers", || zebra2(ctx, pde, u, f, 0));
    rec.span("zebra2", "solvers", || zebra2(ctx, pde, u, f, 1));
}

fn cycles(ctx: &mut Ctx, st: &mut State, n: usize, mut rec: Option<&mut Recorder>) {
    let pde = Pde::poisson();
    for _ in 0..n {
        match rec.as_deref_mut() {
            Some(rec) => twin_vcycle(ctx, &pde, &mut st.u, &st.f, rec),
            None => mg2_vcycle(ctx, &pde, &mut st.u, &st.f),
        }
    }
}

impl Compiled for Mg2Vcycle {
    type State = State;

    fn grid(&self, p: usize) -> ProcGrid {
        ProcGrid::new_1d(p)
    }

    fn build(&self, ctx: &mut Ctx) -> State {
        let ext = [self.n + 1, self.n + 1];
        let spec = DistSpec::local_block();
        let grid = ctx.grid().clone();
        State {
            u: DistArray2::new(ctx.rank(), &grid, &spec, ext, [0, 1]),
            f: DistArray2::from_fn(ctx.rank(), &grid, &spec, ext, [0, 1], |[i, j]| {
                self.rhs(i, j)
            }),
        }
    }

    fn warm(&self, ctx: &mut Ctx, st: &mut State, rec: Option<&mut Recorder>) {
        cycles(ctx, st, 3, rec);
    }

    fn block(&self, ctx: &mut Ctx, st: &mut State, div: usize, rec: Option<&mut Recorder>) {
        cycles(ctx, st, self.cycles / div, rec);
    }

    fn result(&self, ctx: &mut Ctx, st: &State) -> Option<Vec<f64>> {
        st.u.gather_to_root(ctx.proc())
    }

    fn span_capacity(&self) -> usize {
        // 7 calls per level above the coarsest, 1 there.
        let levels = self.n.trailing_zeros() as usize;
        (7 * levels + 1) * (self.cycles + 3) + 1
    }
}

impl Workload for Mg2Vcycle {
    fn name(&self) -> &'static str {
        "mg2_vcycle"
    }

    fn unit(&self) -> &'static str {
        "fine interior point*cycle"
    }

    fn units(&self) -> f64 {
        ((self.n - 1) * (self.n - 1) * self.cycles) as f64
    }

    fn sim_units(&self) -> f64 {
        ((self.n - 1) * (self.n - 1) * (self.cycles / SIM_DIV)) as f64
    }

    fn input_checksum(&self) -> u64 {
        let w = self.n + 1;
        gen::fnv_f64(gen::FNV_OFFSET, (0..w * w).map(|k| self.rhs(k / w, k % w)))
    }

    fn tolerance(&self) -> f64 {
        1e-10
    }

    fn max_rounds(&self) -> usize {
        self.rounds
    }

    fn setup_samples(&self) -> usize {
        self.setups
    }

    fn shares(&self) -> &'static [&'static str] {
        &["zebra2", "resid2", "rest2", "intrp2"]
    }

    fn run(&self, p: usize, mode: Mode) -> BlockRun {
        run_compiled(self, Target::Threads(p), mode)
    }

    fn reference(&self) -> RefRun {
        let pde = Pde::poisson();
        time_reference(
            1,
            || {
                let f = Grid2::from_fn(self.n, self.n, |i, j| self.rhs(i, j));
                (Grid2::zeros(self.n, self.n), f)
            },
            |(u, f)| (0..3).for_each(|_| mg2_seq(&pde, u, f)),
            |(u, f)| (0..self.cycles).for_each(|_| mg2_seq(&pde, u, f)),
            |(u, _)| u.v,
        )
    }

    fn setup(&self) -> f64 {
        setup_compiled(self)
    }

    fn sim(&self) -> BlockRun {
        run_compiled(self, Target::SIM, Mode::Plain)
    }
}
