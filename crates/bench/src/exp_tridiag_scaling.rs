//! Experiment T1 (§3): scaling of the substructured tridiagonal solver and
//! the communication-cost crossover the paper's discussion implies (the
//! solver only pays off when the system is large relative to the message
//! start-up cost).

use kali_grid::{Dist1, ProcGrid};
use kali_kernels::tri_dist::tri_dist;
use kali_kernels::tridiag::{thomas, thomas_flops};
use kali_kernels::TriDiag;
use kali_machine::{CostModel, Machine};
use kali_runtime::Ctx;

use crate::{cfg_cost, fmt_s, Table};

fn solve_time(n: usize, p: usize, cost: CostModel) -> f64 {
    let sys = TriDiag::random_dd(n, 5);
    let f = sys.apply(&vec![1.0; n]);
    let mcfg = cfg_cost(p, cost);
    if p == 1 {
        let run = Machine::run(mcfg, move |proc| {
            proc.compute(thomas_flops(n));
            thomas(&sys.b, &sys.a, &sys.c, &f);
        });
        return run.report.elapsed;
    }
    let run = Machine::run(mcfg, move |proc| {
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
    });
    run.report.elapsed
}

/// Solve times for one system size at p = 1, 4, 16, 64.
struct Scaling {
    n: usize,
    t: [f64; 4],
}

impl Scaling {
    fn speedup_at_64(&self) -> f64 {
        self.t[0] / self.t[3]
    }
}

/// Sequential vs p = 16 at one communication-cost scale.
struct Crossover {
    scale: f64,
    t1: f64,
    t16: f64,
}

impl Crossover {
    fn parallel_wins(&self) -> bool {
        self.t16 < self.t1
    }
}

fn measure() -> (Vec<Scaling>, Vec<Crossover>) {
    let scaling = [1usize << 10, 1 << 14, 1 << 18]
        .into_iter()
        .map(|n| Scaling {
            n,
            t: [1, 4, 16, 64].map(|p| solve_time(n, p, CostModel::ipsc2())),
        })
        .collect();
    let crossover = [0.1, 1.0, 10.0, 100.0]
        .into_iter()
        .map(|scale| {
            let c = CostModel::ipsc2().scale_comm(scale);
            Crossover {
                scale,
                t1: solve_time(4096, 1, c),
                t16: solve_time(4096, 16, c),
            }
        })
        .collect();
    (scaling, crossover)
}

fn render(scaling: &[Scaling], crossover: &[Crossover]) -> String {
    let mut out = String::from("=== T1: substructured tridiagonal solver scaling ===\n\n");
    let mut t = Table::new(&["n", "p=1 (Thomas)", "p=4", "p=16", "p=64", "speedup@64"]);
    for r in scaling {
        t.row(vec![
            r.n.to_string(),
            fmt_s(r.t[0]),
            fmt_s(r.t[1]),
            fmt_s(r.t[2]),
            fmt_s(r.t[3]),
            format!("{:.2}x", r.speedup_at_64()),
        ]);
    }
    out.push_str(&t.render());

    out.push_str(
        "\nCommunication-cost sweep (n = 4096, p = 16): the parallel solver\n\
         wins only while message start-up stays cheap relative to flops.\n\n",
    );
    let mut t = Table::new(&["comm cost scale", "p=1", "p=16", "parallel wins"]);
    for r in crossover {
        t.row(vec![
            format!("{}x", r.scale),
            fmt_s(r.t1),
            fmt_s(r.t16),
            if r.parallel_wins() { "yes" } else { "no" }.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

pub fn run() -> String {
    let (scaling, crossover) = measure();
    render(&scaling, &crossover)
}

#[cfg(test)]
mod tests {
    #[test]
    fn large_systems_scale_and_crossover_exists() {
        let (scaling, crossover) = super::measure();
        // Largest n must show real speedup at p = 64.
        let big = scaling.iter().find(|r| r.n == 1 << 18).unwrap();
        assert!(
            big.speedup_at_64() > 4.0,
            "expected scaling at n = 2^18: {}",
            big.speedup_at_64()
        );
        // The comm sweep must contain both a win and a loss.
        assert!(crossover.iter().any(|r| r.parallel_wins()));
        assert!(crossover.iter().any(|r| !r.parallel_wins()));
    }
}
