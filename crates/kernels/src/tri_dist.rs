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

use kali_machine::{tag, Tag, NS_KERNEL};
use kali_runtime::Ctx;

use crate::substructure::{
    boundary_pair, interior_flops, interior_solve, reduce_block, reduce_flops,
};
use crate::tridiag::{thomas, thomas_flops};

const UP: u64 = 0;
const DOWN: u64 = 1;

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
/// (1-D, power-of-two) processor array.
///
/// Inputs are this processor's block of the diagonals and right-hand side
/// (global rows `lower..=upper` of the block distribution of `n` rows);
/// the return value is the block of the solution, in the same layout.
/// Non-members of the grid return an empty vector.
///
/// Requires `n ≥ 2p` so every block has at least two rows (the paper's
/// implicit assumption).
pub fn tri_dist(ctx: &mut Ctx, n: usize, b: &[f64], a: &[f64], c: &[f64], f: &[f64]) -> Vec<f64> {
    let grid = ctx.grid().clone();
    let Some(me) = grid.index_of(ctx.rank()) else {
        return Vec::new();
    };
    let p = grid.size();
    if p == 1 {
        ctx.proc().compute(thomas_flops(n));
        return thomas(b, a, c, f);
    }
    assert!(p.is_power_of_two(), "tri_dist needs a power-of-two team");
    assert!(n >= 2 * p, "tri_dist needs at least 2 rows per processor");
    let m = b.len();
    assert!(m >= 2 && a.len() == m && c.len() == m && f.len() == m);
    let k = p.trailing_zeros() as usize;
    let team: Vec<usize> = grid.ranks().to_vec();

    // Phase 0: local substructuring (Figure 1).
    let mut lb = b.to_vec();
    let mut la = a.to_vec();
    let mut lc = c.to_vec();
    let mut lf = f.to_vec();
    ctx.proc().mark("tri:reduce:s=0");
    reduce_block(&mut lb, &mut la, &mut lc, &mut lf);
    ctx.proc().compute(reduce_flops(m));
    let mut pair = pair_msg(boundary_pair(&lb, &la, &lc, &lf));

    // Saved four-row blocks per level (levels 1..k-1 where this proc is a dest).
    let mut saved: Vec<Option<([f64; 4], [f64; 4], [f64; 4], [f64; 4])>> = vec![None; k + 1];
    let mut x4_root: Option<Vec<f64>> = None;

    // Reduction sweep up the tree.
    for s in 1..=k {
        let sources: Vec<usize> = source_set(p, s).collect();
        let dests: Vec<usize> = level_set(p, s).collect();
        if let Some(qidx) = sources.iter().position(|&x| x == me) {
            let dest = dests[qidx / 2];
            ctx.proc().send(team[dest], ktag(UP, s, 0), pair.clone());
        }
        if let Some(j) = dests.iter().position(|&x| x == me) {
            let lo: PairMsg = ctx.proc().recv(team[sources[2 * j]], ktag(UP, s, 0));
            let hi: PairMsg = ctx.proc().recv(team[sources[2 * j + 1]], ktag(UP, s, 0));
            let (mut rb, mut ra, mut rc, mut rf) = four_rows(&lo, &hi);
            ctx.proc().mark(format!("tri:reduce:s={s}"));
            if s < k {
                reduce_block(&mut rb, &mut ra, &mut rc, &mut rf);
                ctx.proc().compute(reduce_flops(4));
                saved[s] = Some((rb, ra, rc, rf));
                pair = pair_msg([[rb[0], ra[0], rc[0], rf[0]], [rb[3], ra[3], rc[3], rf[3]]]);
            } else {
                // Root: the four-row system is closed (outer couplings are
                // the original b[0] = c[n-1] = 0).
                let x = thomas(&rb, &ra, &rc, &rf);
                ctx.proc().compute(thomas_flops(4));
                x4_root = Some(x);
            }
        }
    }

    // Substitution sweep back down (Figure 4).
    let mut x4: Option<Vec<f64>> = x4_root;
    let mut x_local = Vec::new();
    for s in (1..=k).rev() {
        let sources: Vec<usize> = source_set(p, s).collect();
        let dests: Vec<usize> = level_set(p, s).collect();
        if let Some(j) = dests.iter().position(|&x| x == me) {
            let x4v = x4.take().expect("dest has its block solution");
            ctx.proc().mark(format!("tri:subst:s={s}"));
            ctx.proc()
                .send(team[sources[2 * j]], ktag(DOWN, s, 0), vec![x4v[0], x4v[1]]);
            ctx.proc().send(
                team[sources[2 * j + 1]],
                ktag(DOWN, s, 0),
                vec![x4v[2], x4v[3]],
            );
        }
        if let Some(qidx) = sources.iter().position(|&x| x == me) {
            let dest = dests[qidx / 2];
            let ends: Vec<f64> = ctx.proc().recv(team[dest], ktag(DOWN, s, 0));
            if s > 1 {
                let (sb, sa, sc, sf) = saved[s - 1].expect("source was a dest one level down");
                x4 = Some(interior_solve(&sb, &sa, &sc, &sf, ends[0], ends[1]));
                ctx.proc().compute(interior_flops(4));
            } else {
                ctx.proc().mark("tri:subst:s=0");
                x_local = interior_solve(&lb, &la, &lc, &lf, ends[0], ends[1]);
                ctx.proc().compute(interior_flops(m));
            }
        }
    }
    x_local
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

    #[test]
    fn active_processors_halve_each_step_figure3() {
        let n = 256;
        let p = 8;
        let (_, report) = run_tri(n, p, 21);
        // Count how many procs recorded a reduce mark at each level.
        for s in 1..=3usize {
            let label = format!("tri:reduce:s={s}");
            let active = report
                .procs
                .iter()
                .filter(|pr| pr.marks.iter().any(|m| m.label == label))
                .count();
            assert_eq!(active, p >> s, "level {s}");
        }
        // Everyone participates at level 0 and in the final substitution.
        let base = report
            .procs
            .iter()
            .filter(|pr| pr.marks.iter().any(|m| m.label == "tri:reduce:s=0"))
            .count();
        assert_eq!(base, p);
        let fin = report
            .procs
            .iter()
            .filter(|pr| pr.marks.iter().any(|m| m.label == "tri:subst:s=0"))
            .count();
        assert_eq!(fin, p);
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
