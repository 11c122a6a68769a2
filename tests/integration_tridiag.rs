//! Cross-crate integration for the §3 kernels: all four tridiagonal
//! solution paths (Thomas, substructured distributed, hand
//! message-passing, KF1-interpreted) agree on the same systems.

use std::time::Duration;

use kali::kernels::tri_dist::tri_dist;
use kali::kernels::tridiag::thomas;
use kali::kernels::TriDiag;
use kali::lang::{listing, run_source, HostValue};
use kali::mp::tri_mp;
use kali::prelude::*;

fn cfg(p: usize) -> MachineConfig {
    Machine::build(
        BackendKind::from_env(),
        Topology::FullyConnected,
        CostModel::unit(),
    )
    .procs(p)
    .watchdog(Duration::from_secs(60))
    .config()
}

#[test]
fn five_ways_same_answer() {
    let n = 64usize;
    let p = 4usize;
    let sys = TriDiag::random_dd(n, 2024);
    let x_true: Vec<f64> = (0..n).map(|i| ((i * 5 % 13) as f64) - 6.0).collect();
    let f = sys.apply(&x_true);

    // 1. Thomas.
    let x1 = thomas(&sys.b, &sys.a, &sys.c, &f);
    // 2. Substructured distributed (runtime API).
    let x2 = {
        let (sys, f) = (sys.clone(), f.clone());
        let run = Machine::run(cfg(p), move |proc| {
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
            )
        });
        run.results.concat()
    };
    // 3. Hand message passing.
    let x3 = {
        let (sys, f) = (sys.clone(), f.clone());
        let run = Machine::run(cfg(p), move |proc| {
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
            )
        });
        run.results.concat()
    };
    // 4. The KF1 listing, interpreted.
    let x4 = {
        let run = run_source(
            cfg(p),
            listing("tri").unwrap(),
            "tri",
            &[p],
            &[
                HostValue::Array {
                    data: vec![0.0; n],
                    bounds: vec![(1, n as i64)],
                },
                HostValue::Array {
                    data: f.clone(),
                    bounds: vec![(1, n as i64)],
                },
                HostValue::Array {
                    data: sys.b.clone(),
                    bounds: vec![(1, n as i64)],
                },
                HostValue::Array {
                    data: sys.a.clone(),
                    bounds: vec![(1, n as i64)],
                },
                HostValue::Array {
                    data: sys.c.clone(),
                    bounds: vec![(1, n as i64)],
                },
                HostValue::Int(n as i64),
            ],
        )
        .unwrap();
        run.arrays[0].1.clone()
    };

    for i in 0..n {
        for (k, x) in [&x1, &x2, &x3, &x4].iter().enumerate() {
            assert!(
                (x[i] - x_true[i]).abs() < 1e-8,
                "method {} row {i}: {} vs {}",
                k + 1,
                x[i],
                x_true[i]
            );
        }
    }
}
