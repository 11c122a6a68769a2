//! Listing 11: 2-D multigrid with y-semicoarsening and zebra line
//! relaxation, on a 1-D processor array with `dist (*, block)` arrays.
//!
//! The zebra relaxation is a `doall` over lines of one colour, each line
//! solved exactly by the *sequential* Thomas kernel (`call seqtri(u(*, j),
//! r(*, j))`) — the x dimension is undistributed, so every line lives on
//! one processor and no tridiagonal communication occurs; only the
//! neighbouring lines (ghost layers) travel. Coarsening halves `ny` only
//! ("semi-coarsening"), so the processor array never runs out of work
//! until the lines themselves run out.

use kali_array::DistArray2;
use kali_kernels::tridiag::{thomas, thomas_flops};
use kali_runtime::{Ctx, Ghosts};

use crate::transfer::{intrp2, resid2, rest2};
use crate::Pde;

/// Zebra relaxation of one colour (0 = even lines): solve every owned
/// interior line of that colour exactly, with the other colour frozen.
/// The line `doall` declares its corner-reading, width-1 access to `u`
/// to the stencil plan; under the default (split-phase) policy, lines
/// whose ±1 neighbours are owned solve while the ghost lines travel and
/// block-edge lines solve after completion. Lines of one colour never
/// read each other (their ±1 neighbours are the frozen colour), so the
/// interior-first solve order is invisible and results are bitwise
/// identical across policies.
///
/// Each x-line's column-strided reads — `u(*, j∓1)` and `f(*, j)` run
/// *across* the storage rows under `dist (*, block)` — are gathered once
/// into contiguous scratch ([`DistArray2::col_into`]), the right-hand
/// side is formed by a tight loop over the scratch (vectorizable, no
/// per-point index decode), and the solved line scatters back in one
/// strided pass ([`DistArray2::col_set`]).
pub fn zebra2(
    ctx: &mut Ctx,
    pde: &Pde,
    u: &mut DistArray2<f64>,
    f: &DistArray2<f64>,
    colour: usize,
) {
    let [nxp, nyp] = u.extents();
    let (nx, ny) = (nxp - 1, nyp - 1);
    let (ax, ay, ad) = pde.stencil2(nx, ny);
    let ni = nx - 1;
    let mut b = vec![ax; ni];
    let mut c = vec![ax; ni];
    b[0] = 0.0;
    c[ni - 1] = 0.0;
    let a = vec![ad; ni];
    let mut below = vec![0.0; ni];
    let mut above = vec![0.0; ni];
    let mut fcol = vec![0.0; ni];
    let mut rhs = vec![0.0; ni];
    ctx.plan()
        .reads(u, Ghosts::full(1))
        .run_lines(1, 1..ny, |ctx, u, j| {
            if j % 2 != colour % 2 {
                return;
            }
            u.col_into(j - 1, 1..nx, &mut below);
            u.col_into(j + 1, 1..nx, &mut above);
            f.col_into(j, 1..nx, &mut fcol);
            for ((r, &fv), (&lo, &hi)) in rhs.iter_mut().zip(&fcol).zip(below.iter().zip(&above)) {
                *r = fv - ay * (lo + hi);
            }
            ctx.proc().compute(3.0 * ni as f64);
            let x = thomas(&b, &a, &c, &rhs);
            ctx.proc().compute(thomas_flops(ni));
            u.col_set(j, 1..nx, &x);
        });
}

/// One V-cycle of Listing 11 on the current (1-D) processor array.
/// `u` and `f` are `dist (*, block)` with a ghost layer along y;
/// `ny` must be a power of two ≥ 2. How the zebra and full-weighting
/// halos execute — blocking, split-phase, cached — is the context's
/// [`kali_runtime::ExecPolicy`]; the answer is policy-invariant.
pub fn mg2_vcycle(ctx: &mut Ctx, pde: &Pde, u: &mut DistArray2<f64>, f: &DistArray2<f64>) {
    let [_, nyp] = u.extents();
    let ny = nyp - 1;
    if ny <= 2 {
        // Single interior line: one odd-colour zebra solve is exact.
        zebra2(ctx, pde, u, f, 1);
        return;
    }
    zebra2(ctx, pde, u, f, 0);
    zebra2(ctx, pde, u, f, 1);
    let mut r = resid2(ctx, pde, u, f);
    let g = rest2(ctx, &mut r);
    let mut v = g.like();
    mg2_vcycle(ctx, pde, &mut v, &g);
    intrp2(ctx, u, &v);
    zebra2(ctx, pde, u, f, 0);
    zebra2(ctx, pde, u, f, 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_bitwise, seq};
    use kali_grid::{DistSpec, ProcGrid};
    use kali_machine::{CostModel, Machine, MachineConfig};
    use std::time::Duration;

    fn cfg(p: usize) -> MachineConfig {
        MachineConfig::new(p)
            .with_cost(CostModel::unit())
            .with_watchdog(Duration::from_secs(30))
    }

    fn run_mg2(
        nx: usize,
        ny: usize,
        p: usize,
        cycles: usize,
        pde: Pde,
        seed: u64,
    ) -> (Vec<f64>, Vec<f64>) {
        let us = seq::Grid2::random_interior(nx, ny, seed);
        let f = seq::apply2(&pde, &us);
        // Sequential reference.
        let mut u_seq = seq::Grid2::zeros(nx, ny);
        for _ in 0..cycles {
            seq::mg2_seq(&pde, &mut u_seq, &f);
        }
        let f2 = f.clone();
        let run = Machine::run(cfg(p), move |proc| {
            let grid = ProcGrid::new_1d(proc.nprocs());
            let spec = DistSpec::local_block();
            let mut u = DistArray2::<f64>::new(proc.rank(), &grid, &spec, [nx + 1, ny + 1], [0, 1]);
            let farr = DistArray2::from_fn(
                proc.rank(),
                &grid,
                &spec,
                [nx + 1, ny + 1],
                [0, 1],
                |[i, j]| f2.at(i, j),
            );
            let mut ctx = Ctx::new(proc, grid);
            for _ in 0..cycles {
                mg2_vcycle(&mut ctx, &pde, &mut u, &farr);
            }
            u.gather_to_root(ctx.proc())
        });
        (run.results[0].clone().unwrap(), u_seq.v)
    }

    #[test]
    fn distributed_vcycles_match_sequential_exactly() {
        for p in [1usize, 2, 4] {
            let (got, want) = run_mg2(16, 16, p, 3, Pde::poisson(), 5);
            assert_bitwise(&got, &want, &format!("p={p}"));
        }
    }

    #[test]
    fn odd_team_sizes_work() {
        let (got, want) = run_mg2(8, 16, 3, 2, Pde::poisson(), 7);
        assert_bitwise(&got, &want, "p=3");
    }

    #[test]
    fn converges_on_distributed_machine() {
        let pde = Pde::poisson();
        let (nx, ny) = (16, 32);
        let us = seq::Grid2::random_interior(nx, ny, 11);
        let f = seq::apply2(&pde, &us);
        let f2 = f.clone();
        let run = Machine::run(cfg(4), move |proc| {
            let grid = ProcGrid::new_1d(proc.nprocs());
            let spec = DistSpec::local_block();
            let mut u = DistArray2::<f64>::new(proc.rank(), &grid, &spec, [nx + 1, ny + 1], [0, 1]);
            let farr = DistArray2::from_fn(
                proc.rank(),
                &grid,
                &spec,
                [nx + 1, ny + 1],
                [0, 1],
                |[i, j]| f2.at(i, j),
            );
            let mut ctx = Ctx::new(proc, grid);
            let mut norms = Vec::new();
            for _ in 0..8 {
                mg2_vcycle(&mut ctx, &pde, &mut u, &farr);
                let mut r = resid2(&mut ctx, &pde, &mut u, &farr);
                ctx.plan().reads(&mut r, Ghosts::full(1)).refresh();
                norms.push(kali_runtime::global_max_abs(&mut ctx, &r));
            }
            norms
        });
        let norms = &run.results[0];
        assert!(
            norms[7] < 1e-8 * norms[0].max(1.0),
            "no convergence: {norms:?}"
        );
    }

    #[test]
    fn anisotropic_robustness_carries_over() {
        let (got, want) = run_mg2(16, 16, 4, 4, Pde::anisotropic(50.0, 1.0, 0.0), 13);
        assert_bitwise(&got, &want, "anisotropic");
    }
}
