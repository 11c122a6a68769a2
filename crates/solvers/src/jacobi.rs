//! Listing 3: the KF1 Jacobi iteration, written against the runtime API.
//!
//! The body is the paper's one-statement doall —
//! `X(i,j) = 0.25·(X(i±1,j) + X(i,j±1)) − f(i,j)` on `owner(X(i,j))` —
//! with copy-in/copy-out semantics supplied by the runtime, so no explicit
//! temporary array appears, exactly as the paper advertises over Listing 2.

use kali_array::{DistArray2, Real};
use kali_runtime::{Ctx, Ghosts};

/// One Jacobi sweep over the interior of `u` (extents `(n+1) × (n+1)`
/// style; any rectangle works), generic over the element type — `f32`
/// grids move half the halo words of `f64` ones. The sweep declares its
/// 5-point (face-only, width-1) read of `u` to the stencil plan; the
/// context's [`ExecPolicy`] decides how the ghost refresh executes —
/// under the default policy the interior points update while the edge
/// strips are still in transit and warm sweeps replay the cached halo
/// schedule. The body consumes whole contiguous rows of the copy-in
/// snapshot as slices, which the compiler autovectorizes.
///
/// [`ExecPolicy`]: kali_runtime::ExecPolicy
pub fn jacobi_step<T: Real>(ctx: &mut Ctx, u: &mut DistArray2<T>, f: &DistArray2<T>) {
    let [nxp, nyp] = u.extents();
    let quarter = T::from_f64(0.25);
    ctx.plan().reads(u, Ghosts::faces(1)).update2_rows(
        1..nxp - 1,
        1..nyp - 1,
        5.0,
        |old, i, js, dst| {
            let up = old.row(i + 1, js.clone());
            let dn = old.row(i - 1, js.clone());
            let lf = old.row(i, js.start - 1..js.end - 1);
            let rt = old.row(i, js.start + 1..js.end + 1);
            let fr = f.row(i, js);
            for k in 0..dst.len() {
                dst[k] = quarter * (up[k] + dn[k] + rt[k] + lf[k]) - fr[k];
            }
        },
    );
}

/// Run `iters` Jacobi sweeps, returning the global max-abs update per
/// sweep (a cheap convergence monitor, replicated on every processor;
/// always reduced in `f64`, whatever the element type).
pub fn jacobi_run<T: Real>(
    ctx: &mut Ctx,
    u: &mut DistArray2<T>,
    f: &DistArray2<T>,
    iters: usize,
) -> Vec<f64> {
    let mut history = Vec::with_capacity(iters);
    for _ in 0..iters {
        let before = u.clone();
        jacobi_step(ctx, u, f);
        let mut delta = 0.0f64;
        u.for_each_owned(|idx, v| {
            delta = delta.max((v - before.get(idx)).to_f64().abs());
        });
        history.push(ctx.allreduce_max(delta));
    }
    history
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
            .with_watchdog(Duration::from_secs(20))
    }

    /// Build `f` so that `xs` is the exact fixed point of Listing 1's sweep.
    fn fixed_point_rhs(xs: &seq::Grid2) -> seq::Grid2 {
        let (nx, ny) = (xs.nx, xs.ny);
        let mut f = seq::Grid2::zeros(nx, ny);
        for i in 1..nx {
            for j in 1..ny {
                let v = 0.25
                    * (xs.at(i + 1, j) + xs.at(i - 1, j) + xs.at(i, j + 1) + xs.at(i, j - 1))
                    - xs.at(i, j);
                f.set(i, j, v);
            }
        }
        f
    }

    #[test]
    fn distributed_sweeps_equal_sequential_sweeps() {
        let n = 16;
        let xs = seq::Grid2::random_interior(n, n, 3);
        let f = fixed_point_rhs(&xs);
        // Sequential: 20 sweeps from zero.
        let mut x_seq = seq::Grid2::zeros(n, n);
        for _ in 0..20 {
            seq::jacobi_seq_step(&mut x_seq, &f);
        }
        // Distributed on a 2x2 grid.
        let f2 = f.clone();
        let run = Machine::run(cfg(4), move |proc| {
            let grid = ProcGrid::new_2d(2, 2);
            let spec = DistSpec::block2();
            let mut u = DistArray2::<f64>::new(proc.rank(), &grid, &spec, [n + 1, n + 1], [1, 1]);
            let farr = DistArray2::from_fn(
                proc.rank(),
                &grid,
                &spec,
                [n + 1, n + 1],
                [0, 0],
                |[i, j]| f2.at(i, j),
            );
            let mut ctx = Ctx::new(proc, grid);
            for _ in 0..20 {
                jacobi_step(&mut ctx, &mut u, &farr);
            }
            u.gather_to_root(ctx.proc())
        });
        assert_bitwise(run.results[0].as_ref().unwrap(), &x_seq.v, "2x2 grid");
    }

    #[test]
    fn convergence_history_is_monotone_for_contraction() {
        let n = 12;
        let xs = seq::Grid2::random_interior(n, n, 7);
        let f = fixed_point_rhs(&xs);
        let run = Machine::run(cfg(4), move |proc| {
            let grid = ProcGrid::new_2d(2, 2);
            let spec = DistSpec::block2();
            let mut u = DistArray2::<f64>::new(proc.rank(), &grid, &spec, [n + 1, n + 1], [1, 1]);
            let farr = DistArray2::from_fn(
                proc.rank(),
                &grid,
                &spec,
                [n + 1, n + 1],
                [0, 0],
                |[i, j]| f.at(i, j),
            );
            let mut ctx = Ctx::new(proc, grid);
            jacobi_run(&mut ctx, &mut u, &farr, 30)
        });
        for hist in &run.results {
            assert_eq!(hist.len(), 30);
            // Jacobi for this operator is a contraction: updates shrink.
            assert!(hist[29] < hist[0]);
            // All processors agree on the replicated history.
            assert_eq!(hist, &run.results[0]);
        }
    }

    #[test]
    fn works_on_1d_grids_too() {
        // dist (block, *) over 4 procs — the one-line change the paper
        // advertises (only the spec differs from the 2-D test).
        let n = 16;
        let xs = seq::Grid2::random_interior(n, n, 9);
        let f = fixed_point_rhs(&xs);
        let mut x_seq = seq::Grid2::zeros(n, n);
        for _ in 0..10 {
            seq::jacobi_seq_step(&mut x_seq, &f);
        }
        let run = Machine::run(cfg(4), move |proc| {
            let grid = ProcGrid::new_1d(4);
            let spec = DistSpec::block_local();
            let mut u = DistArray2::<f64>::new(proc.rank(), &grid, &spec, [n + 1, n + 1], [1, 0]);
            let farr = DistArray2::from_fn(
                proc.rank(),
                &grid,
                &spec,
                [n + 1, n + 1],
                [0, 0],
                |[i, j]| f.at(i, j),
            );
            let mut ctx = Ctx::new(proc, grid);
            for _ in 0..10 {
                jacobi_step(&mut ctx, &mut u, &farr);
            }
            u.gather_to_root(ctx.proc())
        });
        assert_bitwise(run.results[0].as_ref().unwrap(), &x_seq.v, "4x1 grid");
    }
}
