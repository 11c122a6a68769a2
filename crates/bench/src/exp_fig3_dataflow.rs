//! Figure 3: the data-flow graph of the substructured solver — the number
//! of active processors halves at each reduction step and doubles again
//! during substitution, measured from the solver's execution marks.

use kali_grid::{Dist1, ProcGrid};
use kali_kernels::tri_dist::tri_dist;
use kali_kernels::TriDiag;
use kali_machine::Machine;
use kali_runtime::Ctx;

use crate::{cfg, Table};

const N: usize = 1024;
const P: usize = 16;

/// One step of the data-flow graph: how many processors carried its mark.
struct Activity {
    phase: &'static str,
    /// Reduction level; 0 is the local (all-processor) step.
    step: usize,
    active: usize,
    expected: usize,
}

struct Dataflow {
    /// Reduce steps 0..=k, then substitution steps k..=0.
    steps: Vec<Activity>,
    /// Solution max error vs the direct solve.
    max_err: f64,
    elapsed: f64,
    msgs: u64,
    words: u64,
}

fn measure() -> Dataflow {
    let (n, p) = (N, P);
    let k = p.trailing_zeros() as usize;
    let sys = TriDiag::random_dd(n, 7);
    let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
    let f = sys.apply(&x_true);
    let run = Machine::run(cfg(p), move |proc| {
        let grid = ProcGrid::new_1d(proc.nprocs());
        let dist = Dist1::block(n, proc.nprocs());
        let me = proc.rank();
        let lo = dist.lower(me).unwrap();
        let hi = dist.upper(me).unwrap() + 1;
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
    // Verify while we are here.
    let mut x = Vec::new();
    for piece in &run.results {
        x.extend_from_slice(piece);
    }
    let max_err = x
        .iter()
        .zip(&x_true)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);

    let step = |phase: &'static str, s: usize| {
        let label = format!("tri:{phase}:s={s}");
        Activity {
            phase,
            step: s,
            active: run
                .report
                .procs
                .iter()
                .filter(|pr| pr.marks.iter().any(|m| m.label == label))
                .count(),
            expected: p >> s,
        }
    };
    let mut steps: Vec<Activity> = (0..=k).map(|s| step("reduce", s)).collect();
    steps.extend((0..=k).rev().map(|s| step("subst", s)));
    Dataflow {
        steps,
        max_err,
        elapsed: run.report.elapsed,
        msgs: run.report.total_msgs,
        words: run.report.total_words,
    }
}

fn render(m: &Dataflow) -> String {
    let mut t = Table::new(&["phase", "step", "active procs", "expected"]);
    for a in &m.steps {
        t.row(vec![
            a.phase.into(),
            if a.step == 0 {
                "0 (local)".into()
            } else {
                a.step.to_string()
            },
            a.active.to_string(),
            a.expected.to_string(),
        ]);
    }
    format!(
        "=== Figure 3: data-flow activity (n = {N}, p = {P}) ===\n\n{}\n\
         solution max error vs direct solve: {:.2e}\n\
         virtual time {:.3e} s, {} messages, {} words\n",
        t.render(),
        m.max_err,
        m.elapsed,
        m.msgs,
        m.words
    )
}

pub fn run() -> String {
    render(&measure())
}

#[cfg(test)]
mod tests {
    #[test]
    fn activity_matches_figure3() {
        let m = super::measure();
        // Reduce steps halve the active set: 8, 4, 2, 1 after the local step.
        let reduce: Vec<usize> = m
            .steps
            .iter()
            .filter(|a| a.phase == "reduce")
            .map(|a| a.active)
            .collect();
        assert_eq!(reduce, [16, 8, 4, 2, 1]);
        for a in &m.steps {
            assert_eq!(a.active, a.expected, "{} step {}", a.phase, a.step);
        }
        assert!(m.max_err < 1e-12, "{}", m.max_err);
    }
}
