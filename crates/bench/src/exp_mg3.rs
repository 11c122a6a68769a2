//! Experiment T4 (§5): the processor-array dimensionality trade-off for
//! `mg3`. The paper: "We could have done things differently by changing
//! the dimensionality of the original processor array ... The best
//! alternative here depends on the problem size, the number of processors
//! in the architecture, the cost of communication, and so on."
//!
//! We run the same mg3 V-cycle under several grid shapes on the same
//! number of processors and report virtual time and traffic.

use kali_array::DistArray3;
use kali_grid::{DistSpec, ProcGrid};
use kali_machine::Machine;
use kali_runtime::{Ctx, Ghosts};
use kali_solvers::mg3::mg3_vcycle;
use kali_solvers::seq::{apply3, Grid3};
use kali_solvers::transfer::resid3;
use kali_solvers::Pde;

use crate::{cfg, fmt_s, Table};

const N: usize = 16;
const CYCLES: usize = 2;

/// The same mg3 V-cycles on a `p0 × p1` processor array.
struct Shape {
    p0: usize,
    p1: usize,
    elapsed: f64,
    words: u64,
    /// Residual max-norm after the last cycle over the first cycle's.
    resid_ratio: f64,
}

fn one_case(n: usize, p0: usize, p1: usize, cycles: usize) -> Shape {
    let pde = Pde::poisson();
    let us = Grid3::random_interior(n, n, n, 3);
    let f = apply3(&pde, &us);
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
            |[i, j, k]| f.at(i, j, k),
        );
        let mut ctx = Ctx::new(proc, grid);
        let mut r0 = 0.0;
        let mut rn = 0.0;
        for c in 0..cycles {
            mg3_vcycle(&mut ctx, &pde, &mut u, &farr, 1);
            let mut r = resid3(&mut ctx, &pde, &mut u, &farr);
            ctx.plan().reads(&mut r, Ghosts::full(1)).refresh();
            let norm = kali_runtime::global_max_abs(&mut ctx, &r);
            if c == 0 {
                r0 = norm;
            }
            rn = norm;
        }
        (r0, rn)
    });
    let (r0, rn) = run.results[0];
    Shape {
        p0,
        p1,
        elapsed: run.report.elapsed,
        words: run.report.total_words,
        resid_ratio: rn / r0.max(1e-300),
    }
}

fn measure() -> Vec<Shape> {
    [(2usize, 2usize), (1, 4), (4, 1)]
        .into_iter()
        .map(|(p0, p1)| one_case(N, p0, p1, CYCLES))
        .collect()
}

fn render(rows: &[Shape]) -> String {
    let mut out = format!(
        "=== T4: mg3 processor-array shape ablation (n = {N}, {CYCLES} V-cycles, 4 procs) ===\n\n"
    );
    let mut t = Table::new(&[
        "grid (y,z)",
        "virtual time",
        "total words",
        "resid ratio c2/c1",
    ]);
    for r in rows {
        t.row(vec![
            format!("{}x{}", r.p0, r.p1),
            fmt_s(r.elapsed),
            r.words.to_string(),
            format!("{:.2e}", r.resid_ratio),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nAll shapes run the same source; only the processor declaration\n\
         changes. With z-semicoarsening, shapes with more processors along z\n\
         idle them on coarse grids — the trade-off §5 discusses.\n",
    );
    out
}

pub fn run() -> String {
    render(&measure())
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_shapes_converge_identically() {
        let rows = super::measure();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            // Each shape must show residual reduction, and the same one:
            // the processor array changes who computes, not what.
            assert!(r.resid_ratio < 1.0, "{}x{}: {}", r.p0, r.p1, r.resid_ratio);
            assert_eq!(
                r.resid_ratio.to_bits(),
                rows[0].resid_ratio.to_bits(),
                "{}x{} vs {}x{}",
                r.p0,
                r.p1,
                rows[0].p0,
                rows[0].p1
            );
        }
    }
}
