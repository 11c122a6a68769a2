//! Listing 4: the substructured parallel tridiagonal solver, with the
//! shuffle/unshuffle level mapping of Listing 5 / Figure 5.
//!
//! The algorithm is the tree-structured divide and conquer of §3: every
//! processor reduces its block to a boundary pair (Figure 1), pairs are
//! mailed up a binary tree whose level `s` lives on team indices
//! `[2^(k−s)−1, 2^(k−s+1)−1)` (the unshuffle mapping — level sets are
//! *disjoint*, which is what lets the pipelined variant in [`crate::mtrix()`](crate::mtrix::mtrix)
//! keep every level busy at once), each active processor reduces four rows
//! to two (Figure 2), and after `k = log₂ p` steps a final four-row system
//! is solved by the sequential Thomas algorithm. Substitution then walks
//! the tree back down (Figure 4), doubling the active set at each step.
//!
//! The tree is written once, in [`crate::mtrix()`](crate::mtrix::mtrix):
//! Listing 4 is Listing 6 with one system in the pipe. This module holds
//! the level mapping and the wire format the tree shares, and
//! [`tri_dist`], the one-system call.

use kali_machine::{tag, Tag, NS_KERNEL};
use kali_runtime::Ctx;

use crate::mtrix::{mtrix, TriLocal};

/// Tag for solver traffic: direction, tree level, system id.
pub(crate) fn ktag(dir: u64, level: usize, sys: usize) -> Tag {
    tag(NS_KERNEL, (sys as u64) << 20 | (level as u64) << 4 | dir)
}

/// Team indices active at reduction level `s` (1-based level, `p = 2^k`):
/// the unshuffle mapping `[2^(k−s)−1, 2^(k−s+1)−1)` of Listing 5 / Figure 5.
pub fn level_set(p: usize, s: usize) -> std::ops::Range<usize> {
    let k = p.trailing_zeros() as usize;
    debug_assert!(s >= 1 && s <= k);
    (1 << (k - s)) - 1..(1 << (k - s + 1)) - 1
}

/// Team indices that *feed* level `s`: all processors for `s = 1`, the
/// level-(s−1) set otherwise.
pub fn source_set(p: usize, s: usize) -> std::ops::Range<usize> {
    if s == 1 {
        0..p
    } else {
        level_set(p, s - 1)
    }
}

/// A boundary pair on the wire: rows 0 and m−1 as `[b,a,c,f]` each.
pub(crate) type PairMsg = Vec<f64>; // length 8

pub(crate) fn pair_msg(pair: [[f64; 4]; 2]) -> PairMsg {
    let mut v = Vec::with_capacity(8);
    v.extend_from_slice(&pair[0]);
    v.extend_from_slice(&pair[1]);
    v
}

/// Assemble the four-row block `[A0, A1, B0, B1]` from two received pairs.
pub(crate) fn four_rows(lo: &[f64], hi: &[f64]) -> ([f64; 4], [f64; 4], [f64; 4], [f64; 4]) {
    debug_assert!(lo.len() == 8 && hi.len() == 8);
    let rows = [
        [lo[0], lo[1], lo[2], lo[3]],
        [lo[4], lo[5], lo[6], lo[7]],
        [hi[0], hi[1], hi[2], hi[3]],
        [hi[4], hi[5], hi[6], hi[7]],
    ];
    let b = [rows[0][0], rows[1][0], rows[2][0], rows[3][0]];
    let a = [rows[0][1], rows[1][1], rows[2][1], rows[3][1]];
    let c = [rows[0][2], rows[1][2], rows[2][2], rows[3][2]];
    let f = [rows[0][3], rows[1][3], rows[2][3], rows[3][3]];
    (b, a, c, f)
}

/// Solve one tridiagonal system distributed by blocks over the current
/// (1-D, power-of-two) processor array: [`mtrix`] with one system in the
/// pipe.
///
/// Inputs are this processor's block of the diagonals and right-hand side
/// (global rows `lower..=upper` of the block distribution of `n` rows);
/// the return value is the block of the solution, in the same layout.
/// Non-members of the grid return an empty vector.
///
/// Requires `n ≥ 2p` so every block has at least two rows (the paper's
/// implicit assumption).
pub fn tri_dist(ctx: &mut Ctx, n: usize, b: &[f64], a: &[f64], c: &[f64], f: &[f64]) -> Vec<f64> {
    let m = b.len();
    assert!(a.len() == m && c.len() == m && f.len() == m);
    let sys = TriLocal {
        b: b.to_vec(),
        a: a.to_vec(),
        c: c.to_vec(),
        f: f.to_vec(),
    };
    mtrix(ctx, n, vec![sys]).pop().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tridiag::{thomas, thomas_flops, TriDiag};
    use kali_grid::{Dist1, ProcGrid};
    use kali_machine::{CostModel, Machine, MachineConfig};
    use std::time::Duration;

    fn cfg(p: usize) -> MachineConfig {
        MachineConfig::new(p)
            .with_cost(CostModel::unit())
            .with_watchdog(Duration::from_secs(20))
    }

    #[test]
    fn level_sets_are_disjoint_and_cover_figure5() {
        // p = 8, k = 3: level 1 -> {3..6}, level 2 -> {1, 2}, level 3 -> {0}.
        assert_eq!(level_set(8, 1), 3..7);
        assert_eq!(level_set(8, 2), 1..3);
        assert_eq!(level_set(8, 3), 0..1);
        // Disjoint across levels (the property that enables pipelining).
        for p in [2usize, 4, 8, 16, 32] {
            let k = p.trailing_zeros() as usize;
            let mut seen = vec![false; p];
            for s in 1..=k {
                for i in level_set(p, s) {
                    assert!(!seen[i], "p={p}: index {i} in two level sets");
                    seen[i] = true;
                }
                assert_eq!(level_set(p, s).len(), p >> s, "halving active sets");
            }
        }
    }

    #[test]
    fn source_sets_feed_the_next_level() {
        assert_eq!(source_set(8, 1), 0..8);
        assert_eq!(source_set(8, 2), 3..7);
        assert_eq!(source_set(8, 3), 1..3);
    }

    fn run_tri(n: usize, p: usize, seed: u64) -> (Vec<f64>, kali_machine::RunReport) {
        let sys = TriDiag::random_dd(n, seed);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin() + 0.5).collect();
        let f = sys.apply(&x_true);
        let sys2 = sys.clone();
        let f2 = f.clone();
        let run = Machine::run(cfg(p), move |proc| {
            let grid = ProcGrid::new_1d(proc.nprocs());
            let me = proc.rank();
            let dist = Dist1::block(n, proc.nprocs());
            let lo = dist.lower(me).unwrap();
            let hi = dist.upper(me).unwrap() + 1;
            let mut ctx = Ctx::new(proc, grid);
            tri_dist(
                &mut ctx,
                n,
                &sys2.b[lo..hi],
                &sys2.a[lo..hi],
                &sys2.c[lo..hi],
                &f2[lo..hi],
            )
        });
        let mut x = Vec::new();
        for piece in &run.results {
            x.extend_from_slice(piece);
        }
        let err = x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-8, "n={n} p={p}: max err {err}");
        (x, run.report)
    }

    #[test]
    fn matches_thomas_across_team_sizes() {
        for p in [1usize, 2, 4, 8] {
            run_tri(64, p, 3 + p as u64);
        }
    }

    #[test]
    fn uneven_blocks() {
        run_tri(37, 4, 5); // blocks of 9/9/10/9
        run_tri(19, 8, 6); // minimum-ish blocks
    }

    #[test]
    fn large_system() {
        run_tri(1 << 12, 8, 11);
    }

    /// The report of one `mtrix` batch of `m` random systems.
    fn run_batch(n: usize, p: usize, m: usize, seed: u64) -> kali_machine::RunReport {
        let systems: Vec<(TriDiag, Vec<f64>)> = (0..m)
            .map(|j| {
                let sys = TriDiag::random_dd(n, seed + j as u64);
                let f = sys.apply(&vec![1.0; n]);
                (sys, f)
            })
            .collect();
        let run = Machine::run(cfg(p), move |proc| {
            let grid = ProcGrid::new_1d(proc.nprocs());
            let dist = Dist1::block(n, proc.nprocs());
            let lo = dist.lower(proc.rank()).unwrap();
            let hi = dist.upper(proc.rank()).unwrap() + 1;
            let locals = systems
                .iter()
                .map(|(sys, f)| TriLocal {
                    b: sys.b[lo..hi].to_vec(),
                    a: sys.a[lo..hi].to_vec(),
                    c: sys.c[lo..hi].to_vec(),
                    f: f[lo..hi].to_vec(),
                })
                .collect();
            let mut ctx = Ctx::new(proc, grid);
            mtrix(&mut ctx, n, locals)
        });
        run.report
    }

    #[test]
    fn active_processors_halve_each_step_figure3() {
        let n = 256;
        let p = 8;
        // One system through `tri_dist`, then three through `mtrix`: the
        // one tree marks each step once per system, on the same processors.
        let (_, one) = run_tri(n, p, 21);
        for (m, report) in [(1, one), (3, run_batch(n, p, 3, 21))] {
            // Per processor, how many marks carry `label`.
            let marks = |label: &str| -> Vec<usize> {
                let count = |pr: &kali_machine::ProcReport| {
                    pr.marks.iter().filter(|mk| mk.label == label).count()
                };
                report.procs.iter().map(count).collect()
            };
            // Every level's reduction and substitution sit on p >> s
            // processors, level 0 (the local phases) on all of them.
            for s in 0..=3usize {
                for phase in ["reduce", "subst"] {
                    let per_proc = marks(&format!("tri:{phase}:s={s}"));
                    let active = per_proc.iter().filter(|&&c| c > 0).count();
                    assert_eq!(active, p >> s, "{phase} level {s}, m = {m}");
                    assert!(per_proc.iter().all(|&c| c == 0 || c == m), "{per_proc:?}");
                }
            }
        }
    }

    #[test]
    fn virtual_time_deterministic() {
        let (_, r1) = run_tri(128, 4, 9);
        let (_, r2) = run_tri(128, 4, 9);
        assert_eq!(r1.elapsed, r2.elapsed);
        assert_eq!(r1.total_msgs, r2.total_msgs);
    }

    #[test]
    fn message_count_matches_tree() {
        // Reduction: p sends at level 1, p/2 at level 2, ..., 2 at level k
        //   = 2p - 2 pair messages.
        // Substitution: same count of half messages. Total 2*(2p-2).
        let p = 8;
        let (_, report) = run_tri(256, p, 13);
        assert_eq!(report.total_msgs as usize, 2 * (2 * p - 2));
    }

    #[test]
    fn speedup_appears_at_scale() {
        // With compute-dominated costs the distributed solver must beat the
        // sequential one for large n.
        let n = 1 << 14;
        let sys = TriDiag::random_dd(n, 31);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let f = sys.apply(&x_true);

        let seq = {
            let (sys, f) = (sys.clone(), f.clone());
            Machine::run(cfg(1), move |proc| {
                proc.compute(thomas_flops(n));
                thomas(&sys.b, &sys.a, &sys.c, &f)
            })
        };
        let par = {
            let (sys, f) = (sys.clone(), f.clone());
            Machine::run(cfg(8), move |proc| {
                let grid = ProcGrid::new_1d(proc.nprocs());
                let dist = Dist1::block(n, proc.nprocs());
                let lo = dist.lower(proc.rank()).unwrap();
                let hi = dist.upper(proc.rank()).unwrap() + 1;
                let mut ctx = Ctx::new(proc, grid);
                tri_dist(
                    &mut ctx,
                    n,
                    &sys.b[lo..hi],
                    &sys.a[lo..hi],
                    &sys.c[lo..hi],
                    &f[lo..hi],
                )
            })
        };
        let speedup = seq.report.elapsed / par.report.elapsed;
        assert!(
            speedup > 2.0,
            "expected a real speedup at n={n}, p=8: got {speedup:.2}"
        );
    }
}
