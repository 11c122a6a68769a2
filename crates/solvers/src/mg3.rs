//! Listing 9: 3-D multigrid with z-semicoarsening and zebra *plane*
//! relaxation — the paper's culminating example, where the operation
//! applied to each slice is itself a tensor product multigrid algorithm.
//!
//! Arrays are `dist (*, block, block)` on a 2-D processor array
//! `procs(py, pz)`. A zebra sweep visits the even z-planes then the odd
//! ones; relaxing plane `k` means approximately solving the 2-D Helmholtz
//! problem induced on that plane (x/y terms plus the z-coupling folded
//! into the shift and right-hand side) by calling [`crate::mg2`] **on the
//! processor-array slice `owner(u(*, *, k))`** — a 1-D sub-grid of `py`
//! processors, exactly the `call mg2(u(*,*,k), r(*,*,k); owner(...))` of
//! Listing 9.

use kali_array::{DistArray2, DistArray3};
use kali_grid::DistSpec;
use kali_runtime::{Ctx, Ghosts};

use crate::mg2::mg2_vcycle;
use crate::transfer::{intrp3, resid3, rest3};
use crate::Pde;

/// The 2-D operator induced on one z-plane: x/y terms unchanged, the
/// z-coupling contributes a Helmholtz shift of `−2az`.
fn plane_pde(pde: &Pde, nz: usize) -> Pde {
    let az = pde.e * (nz * nz) as f64;
    Pde {
        a: pde.a,
        b: pde.b,
        e: 0.0,
        c: pde.c - 2.0 * az,
    }
}

/// Relax every owned z-plane of one colour (0 = even) by `cycles` mg2
/// V-cycles on the plane's processor-array slice. Planes of one colour
/// are independent. Each plane moves as boxes through contiguous
/// scratch: out of `u` into the plane problem and back, and the two
/// planes around it with the source term into the right-hand side.
pub fn zebra_planes(
    ctx: &mut Ctx,
    pde: &Pde,
    u: &mut DistArray3<f64>,
    f: &DistArray3<f64>,
    colour: usize,
    cycles: usize,
) {
    let [nxp, nyp, nzp] = u.extents();
    let (nx, ny, nz) = (nxp - 1, nyp - 1, nzp - 1);
    let az = pde.e * (nz * nz) as f64;
    let ppde = plane_pde(pde, nz);
    ctx.plan().reads(u, Ghosts::full(1)).refresh();
    let spec2 = DistSpec::local_block();
    // One plane of my block; the interior boxes fill a head of it.
    let cells = nxp * u.local_len(1);
    let [mut cur, mut below, mut above, mut fk, mut rhs] = [(); 5].map(|_| vec![0.0; cells]);
    // paper: `call mg2(u(*, *, k), …; owner(u(*, *, k)))`. `f` is aligned
    // with `u`, which the body writes.
    ctx.lift(f, 2, 1..nz, |sub, ks| {
        for k in ks.filter(|k| k % 2 == colour % 2) {
            // My part of plane k, whole and interior; the plane problem
            // lives on the same boxes less the z index.
            let (wlo, whi) = u.owned_box([0, 0, k], [nxp, nyp, k + 1]);
            let (ilo, ihi) = u.owned_box([1, 1, k], [nx, ny, k + 1]);
            let (ilo2, ihi2) = ([ilo[0], ilo[1]], [ihi[0], ihi[1]]);
            let mut up = DistArray2::<f64>::new(sub.rank(), sub.grid(), &spec2, [nxp, nyp], [0, 1]);
            let mut rp = up.like();
            u.box_into(wlo, whi, &mut cur);
            up.box_set([wlo[0], wlo[1]], [whi[0], whi[1]], &cur);
            // The z-coupling folds into the right-hand side; the plane's
            // boundary carries no equation and stays zero.
            f.box_into(ilo, ihi, &mut fk);
            u.box_into([ilo[0], ilo[1], k - 1], [ihi[0], ihi[1], k], &mut below);
            u.box_into([ilo[0], ilo[1], k + 1], [ihi[0], ihi[1], k + 2], &mut above);
            let interior = (ihi[0] - ilo[0]) * (ihi[1] - ilo[1]);
            for ((r, &fv), (&lo, &hi)) in rhs[..interior]
                .iter_mut()
                .zip(&fk)
                .zip(below.iter().zip(&above))
            {
                *r = fv - az * (lo + hi);
            }
            rp.box_set(ilo2, ihi2, &rhs);
            sub.proc().memop(2.0 * cells as f64);
            for _ in 0..cycles {
                mg2_vcycle(sub, &ppde, &mut up, &rp);
            }
            up.box_into(ilo2, ihi2, &mut cur);
            u.box_set(ilo, ihi, &cur);
            sub.proc().memop(cells as f64);
        }
    });
}

/// One V-cycle of Listing 9. `nz` must be a power of two ≥ 2;
/// `plane_cycles` mg2 V-cycles approximate each plane solve.
pub fn mg3_vcycle(
    ctx: &mut Ctx,
    pde: &Pde,
    u: &mut DistArray3<f64>,
    f: &DistArray3<f64>,
    plane_cycles: usize,
) {
    let [_, _, nzp] = u.extents();
    let nz = nzp - 1;
    if nz <= 2 {
        zebra_planes(ctx, pde, u, f, 1, plane_cycles + 1);
        return;
    }
    // perform zebra relaxation on even planes, then odd planes
    zebra_planes(ctx, pde, u, f, 0, plane_cycles);
    zebra_planes(ctx, pde, u, f, 1, plane_cycles);
    // recursively solve coarse grid problem
    let mut r = resid3(ctx, pde, u, f);
    let g = rest3(ctx, &mut r);
    let mut v = g.like();
    mg3_vcycle(ctx, pde, &mut v, &g, plane_cycles);
    intrp3(ctx, u, &v);
    zebra_planes(ctx, pde, u, f, 0, plane_cycles);
    zebra_planes(ctx, pde, u, f, 1, plane_cycles);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_bitwise, seq};
    use kali_grid::ProcGrid;
    use kali_machine::{CostModel, Machine, MachineConfig};
    use std::time::Duration;

    fn cfg(p: usize) -> MachineConfig {
        MachineConfig::new(p)
            .with_cost(CostModel::unit())
            .with_watchdog(Duration::from_secs(60))
    }

    fn run_mg3(
        [nx, ny, nz]: [usize; 3],
        p0: usize,
        p1: usize,
        cycles: usize,
        seed: u64,
    ) -> (Vec<f64>, seq::Grid3) {
        let pde = Pde::poisson();
        let us = seq::Grid3::random_interior(nx, ny, nz, seed);
        let f = seq::apply3(&pde, &us);
        let mut u_seq = seq::Grid3::zeros(nx, ny, nz);
        for _ in 0..cycles {
            seq::mg3_seq(&pde, &mut u_seq, &f, 1);
        }
        let f2 = f.clone();
        let run = Machine::run(cfg(p0 * p1), move |proc| {
            let grid = ProcGrid::new_2d(p0, p1);
            let spec = DistSpec::local_block_block();
            let extents = [nx + 1, ny + 1, nz + 1];
            let mut u = DistArray3::<f64>::new(proc.rank(), &grid, &spec, extents, [0, 1, 1]);
            let farr =
                DistArray3::from_fn(proc.rank(), &grid, &spec, extents, [0, 1, 1], |[i, j, k]| {
                    f2.at(i, j, k)
                });
            let mut ctx = Ctx::new(proc, grid);
            for _ in 0..cycles {
                mg3_vcycle(&mut ctx, &pde, &mut u, &farr, 1);
            }
            u.gather_to_root(ctx.proc())
        });
        (run.results[0].clone().unwrap(), u_seq)
    }

    #[test]
    fn distributed_matches_sequential_exactly() {
        // A cube, and a box no two of whose sides agree: a swapped axis
        // shows only there.
        for (dims, grids) in [
            ([8, 8, 8], &[(1usize, 1usize), (2, 2)][..]),
            ([4, 8, 16], &[(2, 2), (1, 2), (2, 1)]),
        ] {
            for &(p0, p1) in grids {
                let (got, want) = run_mg3(dims, p0, p1, 2, 3);
                assert_bitwise(&got, &want.v, &format!("{dims:?} on ({p0},{p1})"));
            }
        }
    }

    #[test]
    fn asymmetric_grids_match_too() {
        let (got, want) = run_mg3([8; 3], 1, 2, 1, 5);
        assert_bitwise(&got, &want.v, "(1,2)");
        let (got, want) = run_mg3([8; 3], 2, 1, 1, 6);
        assert_bitwise(&got, &want.v, "(2,1)");
    }

    #[test]
    fn converges_on_distributed_machine() {
        let pde = Pde::poisson();
        let n = 8;
        let us = seq::Grid3::random_interior(n, n, n, 9);
        let f = seq::apply3(&pde, &us);
        let f2 = f.clone();
        let run = Machine::run(cfg(4), move |proc| {
            let grid = ProcGrid::new_2d(2, 2);
            let spec = DistSpec::local_block_block();
            let mut u =
                DistArray3::<f64>::new(proc.rank(), &grid, &spec, [n + 1, n + 1, n + 1], [0, 1, 1]);
            let farr = DistArray3::from_fn(
                proc.rank(),
                &grid,
                &spec,
                [n + 1, n + 1, n + 1],
                [0, 1, 1],
                |[i, j, k]| f2.at(i, j, k),
            );
            let mut ctx = Ctx::new(proc, grid);
            let mut norms = Vec::new();
            for _ in 0..5 {
                mg3_vcycle(&mut ctx, &pde, &mut u, &farr, 1);
                let mut r = resid3(&mut ctx, &pde, &mut u, &farr);
                ctx.plan().reads(&mut r, Ghosts::full(1)).refresh();
                norms.push(kali_runtime::global_max_abs(&mut ctx, &r));
            }
            norms
        });
        let norms = &run.results[0];
        assert!(
            norms[4] < 1e-5 * norms[0].max(1.0),
            "no convergence: {norms:?}"
        );
    }
}
