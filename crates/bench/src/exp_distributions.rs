//! Claim C3 (§2, §5): in KF1, changing the data distribution is a
//! declaration-level change, and the best choice depends on the problem.
//! We run the *same* Jacobi code under three distribution clauses and
//! measure communication and time.

use kali_array::DistArray2;
use kali_grid::{DistSpec, ProcGrid};
use kali_machine::Machine;
use kali_runtime::Ctx;
use kali_solvers::jacobi::jacobi_step;

use crate::{cfg, fmt_s, Table};

const N: usize = 128;
const P: usize = 4;

/// The same Jacobi sweeps under one distribution clause.
struct Layout {
    clause: &'static str,
    grid: Vec<usize>,
    words_per_iter: u64,
    msgs_per_iter: u64,
    elapsed: f64,
}

fn measure() -> Vec<Layout> {
    let n = N;
    let iters = 10usize;
    let p = P;
    let cases: Vec<(&str, DistSpec, ProcGrid)> = vec![
        ("(block, block)", DistSpec::block2(), ProcGrid::new_2d(2, 2)),
        ("(block, *)", DistSpec::block_local(), ProcGrid::new_1d(p)),
        ("(*, block)", DistSpec::local_block(), ProcGrid::new_1d(p)),
    ];
    let mut rows = Vec::new();
    for (clause, spec, grid) in cases {
        let spec2 = spec.clone();
        let grid2 = grid.clone();
        let run = Machine::run(cfg(p), move |proc| {
            let ghost = match (spec2.map(0), spec2.map(1)) {
                (kali_grid::DimMap::Dist(_), kali_grid::DimMap::Dist(_)) => [1, 1],
                (kali_grid::DimMap::Dist(_), _) => [1, 0],
                _ => [0, 1],
            };
            let mut u = DistArray2::<f64>::new(proc.rank(), &grid2, &spec2, [n + 1, n + 1], ghost);
            let farr = DistArray2::from_fn(
                proc.rank(),
                &grid2,
                &spec2,
                [n + 1, n + 1],
                [0, 0],
                |[i, j]| ((i + j) % 7) as f64 / 100.0,
            );
            let mut ctx = Ctx::new(proc, grid2.clone());
            for _ in 0..iters {
                jacobi_step(&mut ctx, &mut u, &farr);
            }
        });
        rows.push(Layout {
            clause,
            grid: grid.extents().to_vec(),
            words_per_iter: run.report.total_words / iters as u64,
            msgs_per_iter: run.report.total_msgs / iters as u64,
            elapsed: run.report.elapsed,
        });
    }
    rows
}

fn render(rows: &[Layout]) -> String {
    let mut t = Table::new(&[
        "dist clause",
        "grid",
        "words/iter",
        "msgs/iter",
        "virtual time",
    ]);
    for r in rows {
        t.row(vec![
            r.clause.to_string(),
            format!("{:?}", r.grid),
            r.words_per_iter.to_string(),
            r.msgs_per_iter.to_string(),
            fmt_s(r.elapsed),
        ]);
    }
    format!(
        "=== Claim C3: one-line distribution changes (Jacobi, n = {N}, p = {P}) ===\n\n{}\n\
         The algorithm body is identical in all three runs; only the\n\
         declaration differs — the tuning workflow §2 advertises.\n",
        t.render()
    )
}

pub fn run() -> String {
    render(&measure())
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_three_layouts_run() {
        let rows = super::measure();
        let clauses: Vec<&str> = rows.iter().map(|r| r.clause).collect();
        assert_eq!(clauses, ["(block, block)", "(block, *)", "(*, block)"]);
        for r in &rows {
            assert!(r.words_per_iter > 0 && r.elapsed > 0.0, "{}", r.clause);
        }
    }
}
