//! Listings 7 and 8: ADI (Alternating Direction Implicit) iteration.
//!
//! The Peaceman–Rachford scheme in residual-correction form, which is the
//! shape of the paper's Listing 7: each half-step computes the residual
//! (`call resid(...)` — "similar to one step of a Jacobi iteration, and
//! induces the same communication") and then solves a tridiagonal system
//! along every grid line of one direction:
//!
//! ```text
//! r = f − L u
//! u ← u − (ρI − L_y)⁻¹ r        (tridiagonal solves in the y direction)
//! r = f − L u
//! u ← u − (ρI − L_x)⁻¹ r        (tridiagonal solves in the x direction)
//! ```
//!
//! with `L_x = a∂xx + c/2`, `L_y = b∂yy + c/2` (the `c/2` split of
//! Listing 8). The **non-pipelined** variant calls the distributed solver
//! `tric` once per line (Listing 7); the **pipelined** variant hands each
//! processor row's whole batch of lines to `mtrixc` (Listing 8), which
//! keeps all tree levels of the solver busy.

use kali_array::DistArray2;
use kali_kernels::mtrix::{mtrix, TriLocal};
use kali_runtime::{global_norm2, Ctx};

use crate::seq::Grid2;
use crate::transfer::resid2;
use crate::Pde;

/// A reasonable single Peaceman–Rachford parameter:
/// the geometric mean of the extreme eigenvalues of the 1-D operators.
pub fn suggested_rho(pde: &Pde, nx: usize, ny: usize) -> f64 {
    let lmax = 4.0 * (pde.a * (nx * nx) as f64).max(pde.b * (ny * ny) as f64);
    let lmin = std::f64::consts::PI.powi(2) * pde.a.min(pde.b);
    (lmin * lmax).sqrt()
}

/// One half-sweep: solve `(ρI − L) w = r` along every line that pins
/// `axis` — `r(i, *)` for `axis = 0` (so `L = L_y`), `r(*, j)` for
/// `axis = 1` — each on the processor-array slice owning it, and subtract.
///
/// Every solve is an [`mtrix`] call: `pipelined = false` hands it one line
/// at a time (Listing 7's `tric` per line, which is `mtrix` of one
/// system); `pipelined = true` hands it this processor row's whole batch
/// of lines (Listing 8).
fn half_sweep(
    ctx: &mut Ctx,
    pde: &Pde,
    rho: f64,
    u: &mut DistArray2<f64>,
    r: &DistArray2<f64>,
    axis: usize,
    pipelined: bool,
) {
    // The lines run along the other axis.
    let along = 1 - axis;
    let n = u.extents().map(|e| e - 1);
    let coef = [pde.a, pde.b][along] * (n[along] * n[along]) as f64;
    let off = -coef;
    let diag = rho + 2.0 * coef - pde.c / 2.0;
    let n_int = n[along] - 1;
    // My interior points; line `k`'s run of them is this box one cell
    // thick across `axis`.
    let (lo, hi) = r.owned_box([1, 1], n);
    let m_local = hi[along] - lo[along];
    let line = |k: usize| {
        let (mut lo, mut hi) = (lo, hi);
        (lo[axis], hi[axis]) = (k, k + 1);
        (lo, hi)
    };
    // paper: `doall i … call tric(u(i, *), r(i, *), …; owner(r(i, *)))`
    ctx.lift(r, axis, 1..n[axis], |sub, ks| {
        assert!(
            m_local >= 2,
            "ADI needs ≥ 2 interior points per processor along each solve \
             direction (got {m_local})"
        );
        let system = |k: usize| {
            let (lo, hi) = line(k);
            let mut rhs = vec![0.0; m_local];
            r.box_into(lo, hi, &mut rhs);
            TriLocal::constant(n_int, lo[along] - 1, m_local, off, diag, off, rhs)
        };
        let batch = if pipelined { ks.len().max(1) } else { 1 };
        let mut ws = Vec::with_capacity(ks.len());
        for first in ks.clone().step_by(batch) {
            let lines = first..ks.end.min(first + batch);
            ws.extend(mtrix(sub, n_int, lines.map(system).collect()));
        }
        let mut cur = vec![0.0; m_local];
        for (k, w) in ks.zip(ws) {
            let (lo, hi) = line(k);
            u.box_into(lo, hi, &mut cur);
            for (c, w) in cur.iter_mut().zip(&w) {
                *c -= w;
            }
            u.box_set(lo, hi, &cur);
            sub.proc().compute(m_local as f64);
        }
    });
}

/// Run `iters` full ADI iterations; returns the 2-norm of the residual
/// after each iteration (replicated on every grid member).
pub fn adi_run(
    ctx: &mut Ctx,
    pde: &Pde,
    rho: f64,
    u: &mut DistArray2<f64>,
    f: &DistArray2<f64>,
    iters: usize,
    pipelined: bool,
) -> Vec<f64> {
    let mut history = Vec::with_capacity(iters);
    for _ in 0..iters {
        let r = resid2(ctx, pde, u, f);
        half_sweep(ctx, pde, rho, u, &r, 0, pipelined);
        let r = resid2(ctx, pde, u, f);
        half_sweep(ctx, pde, rho, u, &r, 1, pipelined);
        let r = resid2(ctx, pde, u, f);
        history.push(global_norm2(ctx, &r).sqrt());
    }
    history
}

/// Sequential reference: one full ADI iteration on dense grids.
pub fn adi_seq_iteration(pde: &Pde, rho: f64, u: &mut Grid2, f: &Grid2) {
    use crate::seq::resid2_seq;
    use kali_kernels::tridiag::thomas;
    let (nx, ny) = (u.nx, u.ny);
    // y direction.
    let r = resid2_seq(pde, u, f);
    let ay = pde.b * (ny * ny) as f64;
    let (off, diag) = (-ay, rho + 2.0 * ay - pde.c / 2.0);
    let ni = ny - 1;
    let mut b = vec![off; ni];
    let mut c = vec![off; ni];
    b[0] = 0.0;
    c[ni - 1] = 0.0;
    let a = vec![diag; ni];
    for i in 1..nx {
        let rhs: Vec<f64> = (1..ny).map(|j| r.at(i, j)).collect();
        let w = thomas(&b, &a, &c, &rhs);
        for j in 1..ny {
            u.set(i, j, u.at(i, j) - w[j - 1]);
        }
    }
    // x direction.
    let r = resid2_seq(pde, u, f);
    let ax = pde.a * (nx * nx) as f64;
    let (off, diag) = (-ax, rho + 2.0 * ax - pde.c / 2.0);
    let ni = nx - 1;
    let mut b = vec![off; ni];
    let mut c = vec![off; ni];
    b[0] = 0.0;
    c[ni - 1] = 0.0;
    let a = vec![diag; ni];
    for j in 1..ny {
        let rhs: Vec<f64> = (1..nx).map(|i| r.at(i, j)).collect();
        let w = thomas(&b, &a, &c, &rhs);
        for i in 1..nx {
            u.set(i, j, u.at(i, j) - w[i - 1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{self, apply2, resid2_seq};
    use kali_grid::{DistSpec, ProcGrid};
    use kali_machine::{CostModel, Machine, MachineConfig};
    use std::time::Duration;

    fn cfg(p: usize) -> MachineConfig {
        MachineConfig::new(p)
            .with_cost(CostModel::unit())
            .with_watchdog(Duration::from_secs(30))
    }

    #[test]
    fn sequential_adi_converges() {
        let pde = Pde::poisson();
        let (nx, ny) = (16, 16);
        let us = seq::Grid2::random_interior(nx, ny, 3);
        let f = apply2(&pde, &us);
        let rho = suggested_rho(&pde, nx, ny);
        let mut u = seq::Grid2::zeros(nx, ny);
        let r0 = resid2_seq(&pde, &u, &f).max_abs();
        for _ in 0..40 {
            adi_seq_iteration(&pde, rho, &mut u, &f);
        }
        let r = resid2_seq(&pde, &u, &f).max_abs();
        assert!(r < 1e-4 * r0, "ADI failed to converge: {r} vs {r0}");
    }

    fn run_dist(
        nx: usize,
        ny: usize,
        px: usize,
        py: usize,
        iters: usize,
        pipelined: bool,
        seed: u64,
    ) -> (Vec<f64>, Vec<f64>, kali_machine::RunReport) {
        let pde = Pde::poisson();
        let us = seq::Grid2::random_interior(nx, ny, seed);
        let f = apply2(&pde, &us);
        let rho = suggested_rho(&pde, nx, ny);
        // Sequential reference.
        let mut u_seq = seq::Grid2::zeros(nx, ny);
        for _ in 0..iters {
            adi_seq_iteration(&pde, rho, &mut u_seq, &f);
        }
        let f2 = f.clone();
        let run = Machine::run(cfg(px * py), move |proc| {
            let grid = ProcGrid::new_2d(px, py);
            let spec = DistSpec::block2();
            let mut u = DistArray2::<f64>::new(proc.rank(), &grid, &spec, [nx + 1, ny + 1], [1, 1]);
            let farr = DistArray2::from_fn(
                proc.rank(),
                &grid,
                &spec,
                [nx + 1, ny + 1],
                [0, 0],
                |[i, j]| f2.at(i, j),
            );
            let mut ctx = Ctx::new(proc, grid);
            let hist = adi_run(&mut ctx, &pde, rho, &mut u, &farr, iters, pipelined);
            (hist, u.gather_to_root(ctx.proc()))
        });
        let (hist, gathered) = &run.results[0];
        (hist.clone(), gathered.clone().unwrap(), run.report)
    }

    #[test]
    fn distributed_matches_sequential() {
        // Square, and both ways round not: a swapped axis shows only there.
        for (nx, ny) in [(16, 16), (16, 32), (32, 16)] {
            let pde = Pde::poisson();
            let us = seq::Grid2::random_interior(nx, ny, 7);
            let f = apply2(&pde, &us);
            let rho = suggested_rho(&pde, nx, ny);
            let mut u_seq = seq::Grid2::zeros(nx, ny);
            for _ in 0..5 {
                adi_seq_iteration(&pde, rho, &mut u_seq, &f);
            }
            for (px, py) in [(2, 2), (1, 4), (4, 1)] {
                for pipelined in [false, true] {
                    let (_, got, _) = run_dist(nx, ny, px, py, 5, pipelined, 7);
                    for i in 0..=nx {
                        for j in 0..=ny {
                            let have = got[i * (ny + 1) + j];
                            assert!(
                                (u_seq.at(i, j) - have).abs() < 1e-10,
                                "{nx}x{ny} ({px},{py},{pipelined}) at ({i},{j}): {have} vs {}",
                                u_seq.at(i, j)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn residual_history_decreases() {
        let (hist, _, _) = run_dist(16, 16, 2, 2, 12, true, 9);
        assert_eq!(hist.len(), 12);
        assert!(hist[11] < 1e-2 * hist[0], "history: {hist:?}");
    }

    #[test]
    fn pipelined_and_plain_agree_numerically() {
        let (_, a, _) = run_dist(16, 16, 2, 2, 4, false, 11);
        let (_, b, _) = run_dist(16, 16, 2, 2, 4, true, 11);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn pipelined_is_faster_with_many_lines() {
        // 2x2 grid: each processor row owns several lines, so pipelining
        // the tridiagonal solves should shorten the critical path.
        let (_, _, plain) = run_dist(32, 32, 2, 2, 3, false, 13);
        let (_, _, piped) = run_dist(32, 32, 2, 2, 3, true, 13);
        assert!(
            piped.elapsed < plain.elapsed,
            "pipelined {} vs plain {}",
            piped.elapsed,
            plain.elapsed
        );
    }

    #[test]
    fn anisotropic_problem_still_converges() {
        let pde = Pde::anisotropic(10.0, 1.0, 0.0);
        let (nx, ny) = (16, 16);
        let us = seq::Grid2::random_interior(nx, ny, 17);
        let f = apply2(&pde, &us);
        let rho = suggested_rho(&pde, nx, ny);
        let mut u = seq::Grid2::zeros(nx, ny);
        let r0 = resid2_seq(&pde, &u, &f).max_abs();
        for _ in 0..60 {
            adi_seq_iteration(&pde, rho, &mut u, &f);
        }
        let r = resid2_seq(&pde, &u, &f).max_abs();
        assert!(r < 1e-3 * r0, "anisotropic ADI: {r} vs {r0}");
    }
}
