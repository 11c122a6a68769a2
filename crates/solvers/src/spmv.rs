//! Sparse matrix-vector product — the irregular workload. The
//! distributed product is `ctx.sparse().spmv(&a, &x, &mut y)`
//! ([`kali_runtime::Ctx::sparse`]), driven through its inspector-executor
//! plan exactly as the stencil solvers drive `Ctx::plan`: all protocol —
//! cold inspection, warm optimistic replay, split-phase overlap of the
//! x-gather with the owner-local rows — lives in `kali-array`'s
//! [`SparseCsr`](kali_array::SparseCsr) and `kali-sched`, selected by the
//! context's [`ExecPolicy`](kali_runtime::ExecPolicy). This module holds
//! its sequential reference. Generic over [`Real`]: an `f32`
//! matrix/vector pair halves every gather's wire words.

use kali_array::Real;

/// Sequential dense reference: `y = A·x` with `A` given row-wise, for
/// differential tests. Mirrors the distributed row arithmetic (ascending
/// columns, zero-initialized accumulator) so results match bitwise.
pub fn spmv_seq<T: Real>(
    nrows: usize,
    mut row: impl FnMut(usize) -> Vec<(usize, T)>,
    x: &[T],
) -> Vec<T> {
    (0..nrows)
        .map(|i| {
            let mut entries = row(i);
            entries.sort_by_key(|&(c, _)| c);
            let mut sum = T::zero();
            for (c, v) in entries {
                sum = sum + v * x[c];
            }
            sum
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kali_array::{DistArray1, SparseCsr};
    use kali_grid::{DistSpec, ProcGrid};
    use kali_machine::{CostModel, Machine, MachineConfig};
    use kali_runtime::Ctx;
    use std::time::Duration;

    fn cfg(p: usize) -> MachineConfig {
        MachineConfig::new(p)
            .with_cost(CostModel::unit())
            .with_watchdog(Duration::from_secs(10))
    }

    fn band_row<T: Real>(n: usize) -> impl FnMut(usize) -> Vec<(usize, T)> {
        move |i| {
            [i.checked_sub(2), Some(i), (i + 2 < n).then_some(i + 2)]
                .into_iter()
                .flatten()
                .map(|c| (c, T::from_f64(((i * 5 + c * 3) % 7) as f64 + 1.0)))
                .collect()
        }
    }

    #[test]
    fn distributed_spmv_matches_the_sequential_reference_bitwise() {
        let n = 21;
        let run = Machine::run(cfg(4), |proc| {
            let g = ProcGrid::new_1d(4);
            let a = SparseCsr::from_rows(proc.rank(), &g, n, n, band_row::<f64>(n));
            let spec = DistSpec::block1();
            let x = DistArray1::from_fn(proc.rank(), &g, &spec, [n], [0], |[i]| {
                (i % 9) as f64 * 0.75 - 2.0
            });
            let mut y = DistArray1::from_fn(proc.rank(), &g, &spec, [n], [0], |_| 0.0);
            let mut ctx = Ctx::new(proc, g);
            ctx.sparse().spmv(&a, &x, &mut y);
            y.gather_to_root(ctx.proc())
        });
        let xs: Vec<f64> = (0..n).map(|i| (i % 9) as f64 * 0.75 - 2.0).collect();
        let want = spmv_seq(n, band_row::<f64>(n), &xs);
        let got = run.results[0].as_ref().unwrap();
        for (u, v) in got.iter().zip(&want) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }
}
