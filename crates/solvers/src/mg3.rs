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
/// V-cycles on the plane's processor-array slice. `u`'s ghosts must be
/// fresh before the call (planes of one colour are independent).
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
    let grid = ctx.grid().clone();
    let Some(coords) = ctx.coords().map(|c| c.to_vec()) else {
        return;
    };
    if !u.is_participant() {
        return;
    }
    // The slice owning my planes: fix my z coordinate (grid dim 1).
    let plane_grid = grid.slice(1, coords[1]);
    let spec2 = DistSpec::local_block();
    let k0 = u.owned_range(2).start.max(1);
    let k1 = u.owned_range(2).end.min(nz);
    let j_owned = u.owned_range(1);
    for k in k0..k1 {
        if k % 2 != colour % 2 {
            continue;
        }
        // Build the plane problem on the slice.
        let mut up = DistArray2::<f64>::new(ctx.rank(), &plane_grid, &spec2, [nxp, nyp], [0, 1]);
        let mut rp = DistArray2::<f64>::new(ctx.rank(), &plane_grid, &spec2, [nxp, nyp], [0, 1]);
        for i in 0..=nx {
            for j in j_owned.clone() {
                up.put(i, j, u.at(i, j, k));
                let rhs = if i == 0 || i == nx || j == 0 || j == ny {
                    0.0
                } else {
                    f.at(i, j, k) - az * (u.at(i, j, k - 1) + u.at(i, j, k + 1))
                };
                rp.put(i, j, rhs);
            }
        }
        ctx.proc().memop(2.0 * ((nx + 1) * j_owned.len()) as f64);
        ctx.call_on(plane_grid.clone(), |sub| {
            for _ in 0..cycles {
                mg2_vcycle(sub, &ppde, &mut up, &rp);
            }
        });
        for i in 1..nx {
            for j in j_owned.clone() {
                if j >= 1 && j < ny {
                    u.put(i, j, k, up.at(i, j));
                }
            }
        }
        ctx.proc().memop(((nx + 1) * j_owned.len()) as f64);
    }
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

    fn run_mg3(n: usize, p0: usize, p1: usize, cycles: usize, seed: u64) -> (Vec<f64>, seq::Grid3) {
        let pde = Pde::poisson();
        let us = seq::Grid3::random_interior(n, n, n, seed);
        let f = seq::apply3(&pde, &us);
        let mut u_seq = seq::Grid3::zeros(n, n, n);
        for _ in 0..cycles {
            seq::mg3_seq(&pde, &mut u_seq, &f, 1);
        }
        let f2 = f.clone();
        let run = Machine::run(cfg(p0 * p1), move |proc| {
            let grid = ProcGrid::new_2d(p0, p1);
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
            for _ in 0..cycles {
                mg3_vcycle(&mut ctx, &pde, &mut u, &farr, 1);
            }
            u.gather_to_root(ctx.proc())
        });
        (run.results[0].clone().unwrap(), u_seq)
    }

    #[test]
    fn distributed_matches_sequential_exactly() {
        for (p0, p1) in [(1usize, 1usize), (2, 2)] {
            let (got, want) = run_mg3(8, p0, p1, 2, 3);
            assert_bitwise(&got, &want.v, &format!("({p0},{p1})"));
        }
    }

    #[test]
    fn asymmetric_grids_match_too() {
        let (got, want) = run_mg3(8, 1, 2, 1, 5);
        assert_bitwise(&got, &want.v, "(1,2)");
        let (got, want) = run_mg3(8, 2, 1, 1, 6);
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
