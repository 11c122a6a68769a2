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
use kali_kernels::tridiag::{thomas_flops, Factored};
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
/// An x-line runs *across* the storage rows under `dist (*, block)`, so
/// the colour's lines of a run are solved together from row slices: the
/// lines share one matrix, factored once per call ([`Factored`]), and
/// their right-hand sides sit row-major in one scratch buffer, the lines
/// innermost. Every line keeps `thomas`'s bits and flop charges.
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
    let tri = Factored::new(&b, &vec![ad; ni], &c);
    let mut x = Vec::new();
    ctx.plan()
        .reads(u, Ghosts::full(1))
        .run_line_runs(1, 1..ny, |ctx, u, js| {
            // The run's lines of the colour: j0, j0 + 2, …, jl.
            let j0 = js.start + ((js.start ^ colour) & 1);
            if j0 >= js.end {
                return;
            }
            let k = (js.end - j0).div_ceil(2);
            let jl = j0 + 2 * (k - 1);
            x.clear();
            x.reserve(ni * k);
            for (us, fs) in u.rows(1..nx, j0 - 1..jl + 2).zip(f.rows(1..nx, j0..jl + 1)) {
                x.extend((0..k).map(|l| fs[2 * l] - ay * (us[2 * l] + us[2 * l + 2])));
            }
            for _ in 0..k {
                ctx.proc().compute(3.0 * ni as f64);
                ctx.proc().compute(thomas_flops(ni));
            }
            tri.solve_lines(&mut x, k);
            for (row, line) in u.rows_mut(1..nx, j0..jl + 1).zip(x.chunks_exact(k)) {
                for (v, &s) in row.iter_mut().step_by(2).zip(line) {
                    *v = s;
                }
            }
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
