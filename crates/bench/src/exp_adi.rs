//! Experiment T3 (§4): ADI per-iteration cost, plain (Listing 7) vs
//! pipelined (Listing 8), against the sequential baseline.

use kali_array::DistArray2;
use kali_grid::{DistSpec, ProcGrid};
use kali_machine::Machine;
use kali_runtime::Ctx;
use kali_solvers::adi::{adi_run, adi_seq_iteration, suggested_rho};
use kali_solvers::seq::{apply2, Grid2};
use kali_solvers::Pde;

use crate::{cfg, fmt_s, Table};

fn dist_time(n: usize, px: usize, py: usize, iters: usize, pipelined: bool) -> (f64, f64) {
    let pde = Pde::poisson();
    let us = Grid2::random_interior(n, n, 9);
    let f = apply2(&pde, &us);
    let rho = suggested_rho(&pde, n, n);
    let run = Machine::run(cfg(px * py), move |proc| {
        let grid = ProcGrid::new_2d(px, py);
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
        adi_run(&mut ctx, &pde, rho, &mut u, &farr, iters, pipelined)
    });
    let hist = &run.results[0];
    (run.report.elapsed, hist[iters - 1] / hist[0])
}

const ITERS: usize = 3;

/// Plain vs pipelined ADI on one problem size and processor grid.
struct Case {
    n: usize,
    px: usize,
    py: usize,
    plain: f64,
    pipelined: f64,
    /// Residual contraction of the pipelined run over its iterations.
    contraction: f64,
}

impl Case {
    fn speedup(&self) -> f64 {
        self.plain / self.pipelined
    }
}

struct Adi {
    /// The last case (n = 128 on 4x4) is the one `seq_128` is compared to.
    cases: Vec<Case>,
    /// Sequential baseline for n = 128 over the same iterations.
    seq_128: f64,
}

fn measure() -> Adi {
    let iters = ITERS;
    let cases = [(64usize, 2usize, 2usize), (128, 2, 2), (128, 4, 4)]
        .into_iter()
        .map(|(n, px, py)| {
            let (pipelined, contraction) = dist_time(n, px, py, iters, true);
            Case {
                n,
                px,
                py,
                plain: dist_time(n, px, py, iters, false).0,
                pipelined,
                contraction,
            }
        })
        .collect();

    // Sequential baseline for 128² over the same iterations (virtual time
    // is dominated by 2·8n² flops per iteration plus solves).
    let pde = Pde::poisson();
    let n = 128;
    let us = Grid2::random_interior(n, n, 9);
    let f = apply2(&pde, &us);
    let rho = suggested_rho(&pde, n, n);
    let seq = Machine::run(cfg(1), move |proc| {
        let mut u = Grid2::zeros(n, n);
        for _ in 0..iters {
            // Charge the same nominal flop counts the distributed code pays.
            proc.compute(3.0 * 8.0 * (n * n) as f64); // residuals
            proc.compute(2.0 * 8.0 * (n * n) as f64); // line solves
            adi_seq_iteration(&pde, rho, &mut u, &f);
        }
    });
    Adi {
        cases,
        seq_128: seq.report.elapsed,
    }
}

fn render(m: &Adi) -> String {
    let mut out = String::from("=== T3: ADI — plain (Listing 7) vs pipelined (Listing 8) ===\n\n");
    let mut t = Table::new(&["n", "grid", "plain", "pipelined", "pipe speedup"]);
    for c in &m.cases {
        t.row(vec![
            c.n.to_string(),
            format!("{}x{}", c.px, c.py),
            fmt_s(c.plain),
            fmt_s(c.pipelined),
            format!("{:.2}x", c.speedup()),
        ]);
    }
    out.push_str(&t.render());
    let big = m.cases.last().expect("three cases");
    out.push_str(&format!(
        "\nsequential n=128: {}  |  4x4 pipelined: {}  (speedup {:.2}x)\n\
         residual contraction over {ITERS} iterations: {:.2e}\n",
        fmt_s(m.seq_128),
        fmt_s(big.pipelined),
        m.seq_128 / big.pipelined,
        big.contraction,
    ));
    out
}

pub fn run() -> String {
    render(&measure())
}

#[cfg(test)]
mod tests {
    #[test]
    fn pipelined_wins_and_adi_converges() {
        let m = super::measure();
        let c = m
            .cases
            .iter()
            .find(|c| (c.n, c.px, c.py) == (128, 2, 2))
            .unwrap();
        assert!(
            c.speedup() > 1.0,
            "pipelined ADI should win: {}",
            c.speedup()
        );
        for c in &m.cases {
            assert!(
                c.contraction < 1.0,
                "ADI must contract at n = {} on {}x{}: {}",
                c.n,
                c.px,
                c.py,
                c.contraction
            );
        }
    }
}
