//! Cross-crate integration: machine + grid + array + runtime working
//! together on nontrivial communication patterns.

use std::time::Duration;

use kali::prelude::*;

fn cfg(p: usize) -> MachineConfig {
    Machine::build(
        BackendKind::from_env(),
        Topology::FullyConnected,
        CostModel::unit(),
    )
    .procs(p)
    .watchdog(Duration::from_secs(30))
    .config()
}

#[test]
fn teams_from_grid_slices_run_independent_collectives() {
    // Each row of a 2x3 grid sums its own coordinates concurrently.
    let run = Machine::run(cfg(6), |proc| {
        let grid = ProcGrid::new_2d(2, 3);
        let coords = grid.coords_of(proc.rank()).unwrap();
        let row = grid.slice(0, coords[0]);
        let team = row.team();
        collective::allreduce_sum(proc, &team, coords[1] as f64)
    });
    assert!(run.results.iter().all(|&v| v == 3.0));
}

#[test]
fn redistribute_then_stencil_is_consistent() {
    // Fill under (block, *), transpose to (*, block), run one stencil sweep,
    // gather — must equal the same sweep done sequentially.
    let n = 16usize;
    let run = Machine::run(cfg(4), move |proc| {
        let grid = ProcGrid::new_1d(4);
        let a = DistArray2::from_fn(
            proc.rank(),
            &grid,
            &DistSpec::block_local(),
            [n, n],
            [0, 0],
            |[i, j]| (i * n + j) as f64,
        );
        let mut b = a.redistribute(proc, &DistSpec::local_block(), [0, 1]);
        b.refresh_ghosts(proc, None, ExecPolicy::blocking(), true);
        let mut c = b.like();
        if b.is_participant() {
            for i in 0..n {
                for j in b.owned_range(1).clone() {
                    if j >= 1 && j + 1 < n {
                        c.put(i, j, b.at(i, j - 1) + b.at(i, j + 1));
                    }
                }
            }
        }
        c.gather_to_root(proc)
    });
    let got = run.results[0].as_ref().unwrap();
    for i in 0..n {
        for j in 1..n - 1 {
            let want = ((i * n + j - 1) + (i * n + j + 1)) as f64;
            assert_eq!(got[i * n + j], want, "({i},{j})");
        }
    }
}

#[test]
fn deterministic_reports_across_runs() {
    let go = || {
        Machine::run(cfg(8), |proc| {
            let grid = ProcGrid::new_1d(8);
            let mut a =
                DistArray1::from_fn(proc.rank(), &grid, &DistSpec::block1(), [64], [1], |[i]| {
                    i as f64
                });
            a.refresh_ghosts(proc, None, ExecPolicy::blocking(), true);
            let team = grid.team();
            collective::allreduce_sum(proc, &team, 1.0)
        })
    };
    let (a, b) = (go(), go());
    assert_eq!(a.report.elapsed, b.report.elapsed);
    assert_eq!(a.report.total_msgs, b.report.total_msgs);
    assert_eq!(a.report.total_words, b.report.total_words);
    for (x, y) in a.report.procs.iter().zip(&b.report.procs) {
        assert_eq!(x.clock, y.clock);
        assert_eq!(x.stats, y.stats);
    }
}

#[test]
fn utilization_reflects_imbalance() {
    let run = Machine::run(cfg(4), |proc| {
        // Rank 0 does 10x the work.
        proc.compute(if proc.rank() == 0 {
            100_000.0
        } else {
            10_000.0
        });
        let team = Team::all(proc.nprocs());
        collective::barrier(proc, &team);
    });
    if run.report.backend.virtual_time() {
        let u = run.report.utilization();
        assert!(u < 0.5, "utilization should reveal imbalance: {u}");
        assert!(run.report.proc_utilization(0) > 0.9);
    }
}
