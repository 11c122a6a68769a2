//! Conjugate gradients on the distributed sparse matrix — the
//! inspector-executor payoff case: one SpMV per iteration against a
//! *fixed* sparsity pattern, so the irregular x-gather is inspected
//! exactly once and every later iteration replays the cached schedule
//! warm (0 inspector runs, 0 rollbacks after the first SpMV — pinned by
//! this module's tests).
//!
//! Vector arithmetic runs in the element type `T`; the dot products and
//! the convergence test accumulate in `f64` regardless of `T` (the
//! mixed-precision discipline of [`kali_runtime::global_norm2`]), so
//! `f32` solves keep a full-precision residual norm while every gather
//! moves half the wire words.

use kali_array::{DistArray1, Real, SparseCsr};
use kali_runtime::Ctx;

/// What a [`cg`] solve did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgResult {
    /// SpMV trips taken (equals CG iterations, plus the initial residual).
    pub iterations: usize,
    /// Final residual 2-norm `‖b − A·x‖₂`.
    pub residual: f64,
    /// Did the residual reach `tol` within the iteration budget?
    pub converged: bool,
}

/// The one check the slice kernels below rest on, made once per call
/// where `at`/`put` used to make it once per element: `u` and `v` own
/// the same global indices in the same local order.
fn assert_conformal<T: Real>(u: &DistArray1<T>, v: &DistArray1<T>) {
    assert!(
        u.dist(0) == v.dist(0) && u.lower(0) == v.lower(0) && u.owned().len() == v.owned().len(),
        "cg operands must own the same index range"
    );
}

/// Grid-replicated dot product `⟨u, v⟩` over the (conformal) owned
/// slices, accumulated sequentially in `f64`.
fn dot<T: Real>(ctx: &mut Ctx, u: &DistArray1<T>, v: &DistArray1<T>) -> f64 {
    assert_conformal(u, v);
    let mut local = 0.0;
    for (&ui, &vi) in u.owned().iter().zip(v.owned()) {
        local += ui.to_f64() * vi.to_f64();
    }
    ctx.proc().compute(2.0 * u.owned().len() as f64);
    ctx.allreduce_sum(local)
}

/// `u ← u + s·v` over the (conformal) owned slices, in the element type.
fn axpy<T: Real>(ctx: &mut Ctx, s: T, v: &DistArray1<T>, u: &mut DistArray1<T>) {
    assert_conformal(u, v);
    for (ui, &vi) in u.owned_mut().iter_mut().zip(v.owned()) {
        *ui = *ui + s * vi;
    }
    ctx.proc().compute(2.0 * u.owned().len() as f64);
}

/// `p ← r + β·p` (the search-direction update) over the (conformal)
/// owned slices.
fn xpby<T: Real>(ctx: &mut Ctx, r: &DistArray1<T>, beta: T, p: &mut DistArray1<T>) {
    assert_conformal(p, r);
    for (pi, &ri) in p.owned_mut().iter_mut().zip(r.owned()) {
        *pi = ri + beta * *pi;
    }
    ctx.proc().compute(2.0 * p.owned().len() as f64);
}

/// Solve `A·x = b` by unpreconditioned CG, starting from the incoming
/// `x`, until `‖r‖₂ ≤ tol` or `max_iters` iterations. `A` must be
/// symmetric positive definite for the theory to hold; the routine
/// itself only requires conformal block distributions.
///
/// Every SpMV runs through [`Ctx::sparse`] under the context's policy,
/// so a warm solve overlaps each iteration's gather transit with its
/// interior rows and pays the inspector only on the first trip — a
/// mid-solve [`SparseCsr::distribute`] costs exactly one rollback and
/// one re-inspection, after which the stream is warm again.
pub fn cg<T: Real>(
    ctx: &mut Ctx,
    a: &SparseCsr<T>,
    b: &DistArray1<T>,
    x: &mut DistArray1<T>,
    max_iters: usize,
    tol: f64,
) -> CgResult {
    if !ctx.in_grid() {
        return CgResult {
            iterations: 0,
            residual: f64::NAN,
            converged: false,
        };
    }
    // r = b − A·x
    let mut r = x.like();
    ctx.sparse().spmv(a, x, &mut r);
    assert_conformal(b, &r);
    for (ri, &bi) in r.owned_mut().iter_mut().zip(b.owned()) {
        *ri = bi - *ri;
    }
    ctx.proc().compute(r.owned().len() as f64);
    let mut rho = dot(ctx, &r, &r);
    if rho.sqrt() <= tol {
        return CgResult {
            iterations: 0,
            residual: rho.sqrt(),
            converged: true,
        };
    }
    let mut p = x.like();
    p.owned_mut().copy_from_slice(r.owned());
    let mut q = x.like();
    for it in 1..=max_iters {
        ctx.sparse().spmv(a, &p, &mut q);
        let pq = dot(ctx, &p, &q);
        let alpha = rho / pq;
        axpy(ctx, T::from_f64(alpha), &p, x);
        axpy(ctx, T::from_f64(-alpha), &q, &mut r);
        let rho_new = dot(ctx, &r, &r);
        if rho_new.sqrt() <= tol {
            return CgResult {
                iterations: it,
                residual: rho_new.sqrt(),
                converged: true,
            };
        }
        let beta = rho_new / rho;
        xpby(ctx, &r, T::from_f64(beta), &mut p);
        rho = rho_new;
    }
    CgResult {
        iterations: max_iters,
        residual: rho.sqrt(),
        converged: false,
    }
}

/// Sequential dense CG reference over row-wise `A`, mirroring [`cg`]'s
/// arithmetic (same `f64` reductions, same update order) for
/// differential tests.
pub fn cg_seq<T: Real>(
    n: usize,
    mut row: impl FnMut(usize) -> Vec<(usize, T)>,
    b: &[T],
    x: &mut [T],
    max_iters: usize,
    tol: f64,
) -> CgResult {
    let mut spmv = |x: &[T]| crate::spmv::spmv_seq(n, &mut row, x);
    let dot = |u: &[T], v: &[T]| -> f64 {
        u.iter()
            .zip(v)
            .map(|(a, b)| a.to_f64() * b.to_f64())
            .sum::<f64>()
    };
    let ax = spmv(x);
    let mut r: Vec<T> = b.iter().zip(&ax).map(|(&bi, &axi)| bi - axi).collect();
    let mut rho = dot(&r, &r);
    if rho.sqrt() <= tol {
        return CgResult {
            iterations: 0,
            residual: rho.sqrt(),
            converged: true,
        };
    }
    let mut p = r.clone();
    for it in 1..=max_iters {
        let q = spmv(&p);
        let alpha = rho / dot(&p, &q);
        for i in 0..n {
            x[i] = x[i] + T::from_f64(alpha) * p[i];
            r[i] = r[i] + T::from_f64(-alpha) * q[i];
        }
        let rho_new = dot(&r, &r);
        if rho_new.sqrt() <= tol {
            return CgResult {
                iterations: it,
                residual: rho_new.sqrt(),
                converged: true,
            };
        }
        let beta = rho_new / rho;
        for i in 0..n {
            p[i] = r[i] + T::from_f64(beta) * p[i];
        }
        rho = rho_new;
    }
    CgResult {
        iterations: max_iters,
        residual: rho.sqrt(),
        converged: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kali_grid::{DistSpec, ProcGrid};
    use kali_machine::{CostModel, Machine, MachineConfig};
    use std::time::Duration;

    fn cfg(p: usize) -> MachineConfig {
        MachineConfig::new(p)
            .with_cost(CostModel::unit())
            .with_watchdog(Duration::from_secs(10))
    }

    /// A symmetric positive definite band: the 1-D Laplacian plus a
    /// diagonal shift, bandwidth 2 so blocks exchange across boundaries.
    fn spd_row<T: Real>(n: usize) -> impl FnMut(usize) -> Vec<(usize, T)> {
        move |i| {
            let mut entries = vec![(i, T::from_f64(5.0))];
            if i >= 2 {
                entries.push((i - 2, T::from_f64(-1.0)));
            }
            if i + 2 < n {
                entries.push((i + 2, T::from_f64(-1.0)));
            }
            entries
        }
    }

    #[test]
    fn cg_converges_and_warm_iterations_never_reinspect() {
        let n = 24;
        let run = Machine::run(cfg(4), |proc| {
            let g = ProcGrid::new_1d(4);
            let a = SparseCsr::from_rows(proc.rank(), &g, n, n, spd_row::<f64>(n));
            let spec = DistSpec::block1();
            let b =
                DistArray1::from_fn(proc.rank(), &g, &spec, [n], [0], |[i]| (i % 5) as f64 - 1.5);
            let mut x = DistArray1::from_fn(proc.rank(), &g, &spec, [n], [0], |_| 0.0);
            let mut ctx = Ctx::new(proc, g);
            let res = cg(&mut ctx, &a, &b, &mut x, 60, 1e-10);
            (res, x.gather_to_root(ctx.proc()))
        });
        let (res, xs) = &run.results[0];
        assert!(res.converged, "residual {}", res.residual);
        // ‖b − A·x‖ small against the sequential reference solution.
        let bs: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 1.5).collect();
        let mut xref = vec![0.0; n];
        let rref = cg_seq(n, spd_row::<f64>(n), &bs, &mut xref, 60, 1e-10);
        assert!(rref.converged);
        for (u, v) in xs.as_ref().unwrap().iter().zip(&xref) {
            assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
        // The payoff: exactly one inspection per processor for the whole
        // solve; every later SpMV replayed warm.
        assert_eq!(run.report.total_inspector_runs, 4);
        assert_eq!(run.report.total_rollbacks, 0);
        let trips = (res.iterations + 1) as u64; // initial residual + one per iteration
        assert_eq!(run.report.total_optimistic_hits, 4 * (trips - 1));
    }

    /// One worker means one partial sum in the same order as the
    /// reference's: the slice kernels must reproduce `cg_seq` to the bit.
    #[test]
    fn one_worker_cg_is_bitwise_the_sequential_reference() {
        let n = 24;
        let run = Machine::run(cfg(1), |proc| {
            let g = ProcGrid::new_1d(1);
            let a = SparseCsr::from_rows(proc.rank(), &g, n, n, spd_row::<f64>(n));
            let spec = DistSpec::block1();
            let b =
                DistArray1::from_fn(proc.rank(), &g, &spec, [n], [0], |[i]| (i % 5) as f64 - 1.5);
            let mut x = DistArray1::from_fn(proc.rank(), &g, &spec, [n], [0], |_| 0.0);
            let mut ctx = Ctx::new(proc, g);
            let res = cg(&mut ctx, &a, &b, &mut x, 60, 1e-10);
            (res, x.gather_to_root(ctx.proc()))
        });
        let (res, xs) = &run.results[0];
        let bs: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 1.5).collect();
        let mut xref = vec![0.0; n];
        let rref = cg_seq(n, spd_row::<f64>(n), &bs, &mut xref, 60, 1e-10);
        assert!(rref.converged);
        assert_eq!(res.iterations, rref.iterations);
        assert_eq!(res.residual.to_bits(), rref.residual.to_bits());
        for (u, v) in xs.as_ref().unwrap().iter().zip(&xref) {
            assert_eq!(u.to_bits(), v.to_bits(), "{u} vs {v}");
        }
    }

    /// The per-element `at`/`put` panics are now one check per kernel; a
    /// right-hand side that does not conform must still stop the solve,
    /// in release builds too.
    #[test]
    #[should_panic(expected = "cg operands must own the same index range")]
    fn nonconformal_right_hand_side_panics() {
        let n = 24;
        let _ = Machine::run(cfg(2), |proc| {
            let g = ProcGrid::new_1d(2);
            let a = SparseCsr::from_rows(proc.rank(), &g, n, n, spd_row::<f64>(n));
            let spec = DistSpec::block1();
            let b = DistArray1::from_fn(proc.rank(), &g, &spec, [n + 2], [0], |_| 1.0);
            let mut x = DistArray1::from_fn(proc.rank(), &g, &spec, [n], [0], |_| 0.0);
            let mut ctx = Ctx::new(proc, g);
            cg(&mut ctx, &a, &b, &mut x, 60, 1e-10);
        });
    }
}
