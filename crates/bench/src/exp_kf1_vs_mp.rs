//! Claim C2 (§6): "there would be no difference between the execution time
//! of algorithms expressed in KF1 and those expressed in a message passing
//! language, assuming equally good back-end machine code generators."
//!
//! We compare the runtime-library versions (what a KF1 compiler would emit)
//! against the hand-written message-passing baselines of `kali-mp`, on the
//! same virtual machine.

use kali_array::DistArray2;
use kali_grid::{Dist1, DistSpec, ProcGrid};
use kali_kernels::tri_dist::tri_dist;
use kali_kernels::TriDiag;
use kali_machine::Machine;
use kali_mp::{jacobi_mp, tri_mp};
use kali_runtime::Ctx;
use kali_solvers::jacobi::jacobi_step;

use crate::{cfg, fmt_s, Table};

/// One program run both ways on the same virtual machine.
struct Comparison {
    program: String,
    kf1: f64,
    mp: f64,
    msgs_kf1: u64,
    msgs_mp: u64,
}

impl Comparison {
    fn ratio(&self) -> f64 {
        self.kf1 / self.mp
    }
}

fn measure() -> Vec<Comparison> {
    let mut rows = Vec::new();

    // --- Jacobi, 2x2 processors, n = 128, 20 sweeps.
    let n = 128usize;
    let iters = 20usize;
    let fsrc = |i: usize, j: usize| {
        if i == 0 || i == n || j == 0 || j == n {
            0.0
        } else {
            ((i * 31 + j * 17) % 13) as f64 / 100.0
        }
    };
    let kf1 = Machine::run(cfg(4), move |proc| {
        let grid = ProcGrid::new_2d(2, 2);
        let spec = DistSpec::block2();
        let mut u = DistArray2::<f64>::new(proc.rank(), &grid, &spec, [n + 1, n + 1], [1, 1]);
        let farr = DistArray2::from_fn(
            proc.rank(),
            &grid,
            &spec,
            [n + 1, n + 1],
            [0, 0],
            |[i, j]| fsrc(i, j),
        );
        let mut ctx = Ctx::new(proc, grid);
        for _ in 0..iters {
            jacobi_step(&mut ctx, &mut u, &farr);
        }
    });
    let mp = Machine::run(cfg(4), move |proc| {
        jacobi_mp(proc, 2, 2, n, &fsrc, iters);
    });
    rows.push(Comparison {
        program: format!("jacobi n={n} p=2x2"),
        kf1: kf1.report.elapsed,
        mp: mp.report.elapsed,
        msgs_kf1: kf1.report.total_msgs,
        msgs_mp: mp.report.total_msgs,
    });

    // --- Substructured tridiagonal, p = 8, n = 4096.
    let n = 4096usize;
    let p = 8usize;
    let sys = TriDiag::random_dd(n, 3);
    let f = sys.apply(&vec![1.0; n]);
    let kf1 = {
        let (sys, f) = (sys.clone(), f.clone());
        Machine::run(cfg(p), move |proc| {
            let grid = ProcGrid::new_1d(proc.nprocs());
            let dist = Dist1::block(n, proc.nprocs());
            let me = proc.rank();
            let (lo, hi) = (dist.lower(me).unwrap(), dist.upper(me).unwrap() + 1);
            let mut ctx = Ctx::new(proc, grid);
            tri_dist(
                &mut ctx,
                n,
                &sys.b[lo..hi],
                &sys.a[lo..hi],
                &sys.c[lo..hi],
                &f[lo..hi],
            );
        })
    };
    let mp = {
        let (sys, f) = (sys.clone(), f.clone());
        Machine::run(cfg(p), move |proc| {
            let me = proc.rank();
            let pp = proc.nprocs();
            let (lo, hi) = (me * n / pp, (me + 1) * n / pp);
            tri_mp(
                proc,
                n,
                &sys.b[lo..hi],
                &sys.a[lo..hi],
                &sys.c[lo..hi],
                &f[lo..hi],
            );
        })
    };
    rows.push(Comparison {
        program: format!("tridiag n={n} p={p}"),
        kf1: kf1.report.elapsed,
        mp: mp.report.elapsed,
        msgs_kf1: kf1.report.total_msgs,
        msgs_mp: mp.report.total_msgs,
    });
    rows
}

fn render(rows: &[Comparison]) -> String {
    let mut t = Table::new(&[
        "program",
        "KF1 runtime",
        "hand MP",
        "time ratio",
        "msgs KF1",
        "msgs MP",
    ]);
    for r in rows {
        t.row(vec![
            r.program.clone(),
            fmt_s(r.kf1),
            fmt_s(r.mp),
            format!("{:.3}", r.ratio()),
            r.msgs_kf1.to_string(),
            r.msgs_mp.to_string(),
        ]);
    }
    format!(
        "=== Claim C2: KF1 runtime vs hand-written message passing ===\n\n{}\n\
         Time ratios: jacobi {:.3}, tridiagonal {:.3}\n\
         (1.000 = identical; small deviations come from ghost strips carrying\n\
         corner words the hand-coded version omits).\n",
        t.render(),
        rows[0].ratio(),
        rows[1].ratio()
    )
}

pub fn run() -> String {
    render(&measure())
}

#[cfg(test)]
mod tests {
    #[test]
    fn ratios_are_close_to_one() {
        let rows = super::measure();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                (0.9..1.25).contains(&r.ratio()),
                "{}: KF1/MP ratio {} too far from 1 — claim C2 violated",
                r.program,
                r.ratio()
            );
        }
    }
}
