//! Listing 6: the pipelined multi-system tridiagonal solver, and the one
//! reduction/substitution tree of the crate.
//!
//! Because the unshuffle mapping (Figure 5) places each reduction level on a
//! *disjoint* set of processors, solving `m` systems can be software
//! pipelined: at global phase `t`, level `l` of the tree works on system
//! `t − l` while level `l+1` works on system `t − l − 1`, and the
//! substitution wave follows the reduction wave back down. The whole batch
//! completes in `m + 2k` phases instead of the `m · (2k + 1)` phases of `m`
//! back-to-back calls to [`crate::tri_dist::tri_dist`] — each of which is
//! this solver with one system in the pipe, `1 + 2k` phases — and every
//! level set stays busy once the pipe is full — the paper's motivation for
//! `mtrix`.

use std::collections::VecDeque;

use kali_runtime::Ctx;

use crate::substructure::{
    boundary_pair, interior_flops, interior_solve, reduce_block, reduce_flops,
};
use crate::tri_dist::{four_rows, ktag, level_set, pair_msg, source_set, PairMsg};
use crate::tridiag::{thomas, thomas_flops};

const UP: u64 = 0;
const DOWN: u64 = 1;

/// One processor's block of one tridiagonal system: diagonals and
/// right-hand side over the block's rows.
#[derive(Debug, Clone)]
pub struct TriLocal {
    pub b: Vec<f64>,
    pub a: Vec<f64>,
    pub c: Vec<f64>,
    pub f: Vec<f64>,
}

impl TriLocal {
    /// Constant-coefficient block for global rows `lo..lo+m` of an `n`-row
    /// system.
    pub fn constant(n: usize, lo: usize, m: usize, b0: f64, a0: f64, c0: f64, f: Vec<f64>) -> Self {
        assert_eq!(f.len(), m);
        let mut b = vec![b0; m];
        let mut c = vec![c0; m];
        if lo == 0 && m > 0 {
            b[0] = 0.0;
        }
        if lo + m == n && m > 0 {
            c[m - 1] = 0.0;
        }
        TriLocal {
            b,
            a: vec![a0; m],
            c,
            f,
        }
    }

    fn len(&self) -> usize {
        self.b.len()
    }
}

/// Team index of the level-`s` destination that source `q` of level `s`
/// mails its pair to.
fn parent(p: usize, s: usize, q: usize) -> usize {
    level_set(p, s).start + (q - source_set(p, s).start) / 2
}

/// Send the two halves of `x`, the solution of the four-row block of index
/// `j` of level `s`, back down to the two sources that fed it.
fn send_down(ctx: &mut Ctx, team: &[usize], s: usize, j: usize, sys: usize, x: &[f64]) {
    let first = source_set(team.len(), s).start + 2 * j;
    ctx.proc()
        .send(team[first], ktag(DOWN, s, sys), vec![x[0], x[1]]);
    ctx.proc()
        .send(team[first + 1], ktag(DOWN, s, sys), vec![x[2], x[3]]);
}

/// Solve `m` block-distributed tridiagonal systems of size `n` over the
/// current (1-D, power-of-two) processor array, pipelining the reduction
/// and substitution trees across systems.
///
/// `systems[j]` is this processor's block of system `j`; the result is the
/// matching blocks of the solutions. Non-members return an empty vector.
/// Every block needs at least two rows (`n ≥ 2p` for block layouts).
///
/// The phase `t` schedule: system `j` is reduced at level `s` in phase
/// `j + s` and substituted from level `s` (the root's solve is its `s = k`
/// step) in phase `j + 2k − s`. Phase marks name the step, not the
/// system: `tri:reduce:s=L` and `tri:subst:s=L`.
pub fn mtrix(ctx: &mut Ctx, n: usize, systems: Vec<TriLocal>) -> Vec<Vec<f64>> {
    let grid = ctx.grid().clone();
    let Some(me) = grid.index_of(ctx.rank()) else {
        return Vec::new();
    };
    let p = grid.size();
    let m = systems.len();
    if m == 0 {
        return Vec::new();
    }
    if p == 1 {
        return systems
            .into_iter()
            .map(|s| {
                ctx.proc().compute(thomas_flops(s.len()));
                thomas(&s.b, &s.a, &s.c, &s.f)
            })
            .collect();
    }
    assert!(p.is_power_of_two(), "mtrix needs a power-of-two team");
    assert!(
        n >= 2 * p && systems.iter().all(|s| s.len() >= 2),
        "mtrix needs at least 2 rows per processor"
    );
    let k = p.trailing_zeros() as usize;
    let team = grid.ranks();

    // The one level this processor is a destination of, if any, and its
    // index there (it is always a level-1 source).
    let my_dest_level: Option<(usize, usize)> =
        (1..=k).find_map(|s| level_set(p, s).position(|i| i == me).map(|j| (s, j)));

    // Each system's level-0 block stays here, reduced, until its final
    // substitution; the four-row blocks of my destination level wait in
    // system order for theirs.
    let mut systems: Vec<Option<TriLocal>> = systems.into_iter().map(Some).collect();
    let mut saved4: VecDeque<([f64; 4], [f64; 4], [f64; 4], [f64; 4])> = VecDeque::new();
    let mut x_out: Vec<Vec<f64>> = Vec::with_capacity(m);

    for t in 0..(m + 2 * k) {
        // --- Level-0 reduction duty: start system t into the pipe.
        if t < m {
            let s0 = systems[t].as_mut().expect("system not yet solved");
            ctx.proc().mark("tri:reduce:s=0");
            reduce_block(&mut s0.b, &mut s0.a, &mut s0.c, &mut s0.f);
            ctx.proc().compute(reduce_flops(s0.len()));
            let pair = pair_msg(boundary_pair(&s0.b, &s0.a, &s0.c, &s0.f));
            ctx.proc()
                .send(team[parent(p, 1, me)], ktag(UP, 1, t), pair);
        }

        if let Some((l, j)) = my_dest_level {
            // --- Tree reduction duty at my destination level.
            if t >= l && t - l < m {
                let sys = t - l;
                let first = source_set(p, l).start + 2 * j;
                let lo: PairMsg = ctx.proc().recv(team[first], ktag(UP, l, sys));
                let hi: PairMsg = ctx.proc().recv(team[first + 1], ktag(UP, l, sys));
                let (mut rb, mut ra, mut rc, mut rf) = four_rows(&lo, &hi);
                ctx.proc().mark(format!("tri:reduce:s={l}"));
                if l < k {
                    reduce_block(&mut rb, &mut ra, &mut rc, &mut rf);
                    ctx.proc().compute(reduce_flops(4));
                    saved4.push_back((rb, ra, rc, rf));
                    let pair =
                        pair_msg([[rb[0], ra[0], rc[0], rf[0]], [rb[3], ra[3], rc[3], rf[3]]]);
                    ctx.proc()
                        .send(team[parent(p, l + 1, me)], ktag(UP, l + 1, sys), pair);
                } else {
                    // Root: the four-row system is closed (outer couplings
                    // are the original b[0] = c[n-1] = 0); solve it and
                    // start the downward wave at once.
                    let x = thomas(&rb, &ra, &rc, &rf);
                    ctx.proc().compute(thomas_flops(4));
                    ctx.proc().mark(format!("tri:subst:s={k}"));
                    send_down(ctx, team, k, j, sys, &x);
                }
            }
            // --- Substitution duty below the root: my block's end values
            //     come down from level l + 1.
            if l < k && t + l >= 2 * k && t + l - 2 * k < m {
                let sys = t + l - 2 * k;
                let ends: Vec<f64> = ctx
                    .proc()
                    .recv(team[parent(p, l + 1, me)], ktag(DOWN, l + 1, sys));
                let (sb, sa, sc, sf) = saved4.pop_front().expect("saved block");
                let x = interior_solve(&sb, &sa, &sc, &sf, ends[0], ends[1]);
                ctx.proc().compute(interior_flops(4));
                ctx.proc().mark(format!("tri:subst:s={l}"));
                send_down(ctx, team, l, j, sys, &x);
            }
        }

        // --- Final substitution duty (everyone is a level-1 source).
        if t >= 2 * k && t - 2 * k < m {
            let sys = t - 2 * k;
            let ends: Vec<f64> = ctx.proc().recv(team[parent(p, 1, me)], ktag(DOWN, 1, sys));
            let s0 = systems[sys].take().expect("level-0 block saved");
            ctx.proc().mark("tri:subst:s=0");
            x_out.push(interior_solve(&s0.b, &s0.a, &s0.c, &s0.f, ends[0], ends[1]));
            ctx.proc().compute(interior_flops(s0.len()));
        }
    }
    x_out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tridiag::TriDiag;
    use kali_grid::{Dist1, ProcGrid};
    use kali_machine::{CostModel, Machine, MachineConfig};
    use std::time::Duration;

    fn cfg(p: usize) -> MachineConfig {
        MachineConfig::new(p)
            .with_cost(CostModel::unit())
            .with_watchdog(Duration::from_secs(30))
    }

    fn solve_batch(
        n: usize,
        p: usize,
        m: usize,
        seed: u64,
    ) -> (Vec<Vec<Vec<f64>>>, kali_machine::RunReport) {
        let sys: Vec<TriDiag> = (0..m)
            .map(|j| TriDiag::random_dd(n, seed + j as u64))
            .collect();
        let xs: Vec<Vec<f64>> = (0..m)
            .map(|j| (0..n).map(|i| ((i + j) as f64 * 0.13).sin()).collect())
            .collect();
        let fs: Vec<Vec<f64>> = sys.iter().zip(&xs).map(|(s, x)| s.apply(x)).collect();
        let run = {
            let sys = sys.clone();
            let fs = fs.clone();
            Machine::run(cfg(p), move |proc| {
                let grid = ProcGrid::new_1d(proc.nprocs());
                let dist = Dist1::block(n, proc.nprocs());
                let me = proc.rank();
                let lo = dist.lower(me).unwrap();
                let hi = dist.upper(me).unwrap() + 1;
                let locals: Vec<TriLocal> = (0..m)
                    .map(|j| TriLocal {
                        b: sys[j].b[lo..hi].to_vec(),
                        a: sys[j].a[lo..hi].to_vec(),
                        c: sys[j].c[lo..hi].to_vec(),
                        f: fs[j][lo..hi].to_vec(),
                    })
                    .collect();
                let mut ctx = Ctx::new(proc, grid);
                mtrix(&mut ctx, n, locals)
            })
        };
        // Reassemble and verify.
        for j in 0..m {
            let mut x = Vec::new();
            for piece in &run.results {
                x.extend_from_slice(&piece[j]);
            }
            let err = x
                .iter()
                .zip(&xs[j])
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-8, "system {j}: max err {err}");
        }
        (run.results.clone(), run.report)
    }

    #[test]
    fn single_system_matches_tri() {
        solve_batch(64, 4, 1, 5);
    }

    #[test]
    fn many_systems_all_correct() {
        solve_batch(64, 4, 7, 11);
        solve_batch(32, 8, 5, 13);
        solve_batch(48, 2, 9, 17);
    }

    #[test]
    fn single_processor_fallback() {
        solve_batch(32, 1, 4, 23);
    }

    #[test]
    fn pipelining_beats_sequential_calls() {
        // m systems through the pipeline vs m back-to-back tri_dist calls.
        let n = 512;
        let p = 8;
        let m = 16;
        let sys: Vec<TriDiag> = (0..m)
            .map(|j| TriDiag::random_dd(n, 100 + j as u64))
            .collect();
        let fs: Vec<Vec<f64>> = sys.iter().map(|s| s.apply(&vec![1.0; n])).collect();

        let piped = {
            let (sys, fs) = (sys.clone(), fs.clone());
            Machine::run(cfg(p), move |proc| {
                let grid = ProcGrid::new_1d(proc.nprocs());
                let dist = Dist1::block(n, proc.nprocs());
                let me = proc.rank();
                let (lo, hi) = (dist.lower(me).unwrap(), dist.upper(me).unwrap() + 1);
                let locals: Vec<TriLocal> = (0..m)
                    .map(|j| TriLocal {
                        b: sys[j].b[lo..hi].to_vec(),
                        a: sys[j].a[lo..hi].to_vec(),
                        c: sys[j].c[lo..hi].to_vec(),
                        f: fs[j][lo..hi].to_vec(),
                    })
                    .collect();
                let mut ctx = Ctx::new(proc, grid);
                mtrix(&mut ctx, n, locals);
            })
        };
        let serial = {
            let (sys, fs) = (sys.clone(), fs.clone());
            Machine::run(cfg(p), move |proc| {
                let grid = ProcGrid::new_1d(proc.nprocs());
                let dist = Dist1::block(n, proc.nprocs());
                let me = proc.rank();
                let (lo, hi) = (dist.lower(me).unwrap(), dist.upper(me).unwrap() + 1);
                let mut ctx = Ctx::new(proc, grid);
                for j in 0..m {
                    crate::tri_dist::tri_dist(
                        &mut ctx,
                        n,
                        &sys[j].b[lo..hi],
                        &sys[j].a[lo..hi],
                        &sys[j].c[lo..hi],
                        &fs[j][lo..hi],
                    );
                }
            })
        };
        assert!(
            piped.report.elapsed < serial.report.elapsed,
            "pipelined {} vs serial {}",
            piped.report.elapsed,
            serial.report.elapsed
        );
        // Utilization should improve too (paper's point about keeping
        // processors busy).
        assert!(piped.report.utilization() > serial.report.utilization());
    }

    #[test]
    fn phase_schedule_is_deterministic() {
        let (_, r1) = solve_batch(64, 4, 5, 41);
        let (_, r2) = solve_batch(64, 4, 5, 41);
        assert_eq!(r1.elapsed, r2.elapsed);
        assert_eq!(r1.total_words, r2.total_words);
    }

    #[test]
    fn constant_block_builder_sets_global_ends() {
        let t = TriLocal::constant(16, 0, 4, -1.0, 4.0, -1.0, vec![1.0; 4]);
        assert_eq!(t.b[0], 0.0);
        assert_eq!(t.c[3], -1.0);
        let t = TriLocal::constant(16, 12, 4, -1.0, 4.0, -1.0, vec![1.0; 4]);
        assert_eq!(t.b[0], -1.0);
        assert_eq!(t.c[3], 0.0);
    }
}
