//! Grid transfer operators: residuals, semicoarsening restriction and
//! interpolation (`resid2/3`, `rest2/3`, `intrp2/3` of Listings 9–11).
//!
//! Restriction and interpolation move whole lines (2-D) or planes (3-D)
//! between the fine and coarse block distributions. Because fine index
//! `2j` and coarse index `j` may be owned by *different* processors for
//! general block splits, the transfers are **ownership-routed**: each
//! processor computes the stencil on the data it owns (reading only ±1
//! ghost layers) and routes finished lines/planes to their owners under the
//! destination distribution with one personalized all-to-all. This is the
//! communication a KF1 compiler would synthesize for the assignments in
//! Listing 10, generalized to any block alignment.
//!
//! The two transfers are one-dimensional operators applied across the
//! slices of an N-D array, so each is written once ([`rest`], [`intrp`]):
//! it acts along the **last** axis, on whole slices copied through
//! [`DistArrayN::box_into`]/[`DistArrayN::box_set`]; the listings' names
//! are its 2-D and 3-D instantiations.

use std::collections::HashMap;

use kali_array::{DistArray2, DistArray3, DistArrayN, Real};
use kali_machine::{collective, Proc, Team};
use kali_runtime::{Ctx, Ghosts};

use crate::Pde;

/// Route `(destination team index, key, payload)` items and return what
/// arrived here. Every team member must call (it is a collective).
pub fn route(
    proc: &mut Proc,
    team: &Team,
    items: Vec<(usize, u64, Vec<f64>)>,
) -> Vec<(u64, Vec<f64>)> {
    let q = team.len();
    let mut sends: Vec<Vec<(u64, Vec<f64>)>> = vec![Vec::new(); q];
    for (d, k, v) in items {
        sends[d].push((k, v));
    }
    let recvd = collective::alltoallv(proc, team, sends);
    recvd.into_iter().flatten().collect()
}

/// Distributed residual `r = f − L u` for 2-D arrays (any block layout
/// with ghosts ≥ 1 on distributed dimensions), generic over the element
/// type. The 5-point read of `u` is declared to the stencil plan
/// ([`Ghosts::faces`]); under a split policy the operator is evaluated on
/// the block interior while the edge strips travel, then on the boundary
/// frame once they land. The body steps each box's rows as slices
/// ([`DistArray2::rows`]) — the autovectorizable form ADI and mg2
/// inherit.
pub fn resid2<T: Real>(
    ctx: &mut Ctx,
    pde: &Pde,
    u: &mut DistArray2<T>,
    f: &DistArray2<T>,
) -> DistArray2<T> {
    let [nxp, nyp] = u.extents();
    let (nx, ny) = (nxp - 1, nyp - 1);
    let (ax, ay, ad) = pde.stencil2(nx, ny);
    let (ax, ay, ad) = (T::from_f64(ax), T::from_f64(ay), T::from_f64(ad));
    let mut r = u.like();
    ctx.plan()
        .reads(u, Ghosts::faces(1))
        .run2_rows(1..nx, 1..ny, 8.0, |_, u, is, js| {
            let n = js.len();
            let dn = u.rows(is.start - 1..is.end - 1, js.clone());
            let up = u.rows(is.start + 1..is.end + 1, js.clone());
            let wide = u.rows(is.clone(), js.start - 1..js.end + 1);
            let rows = dn.zip(up).zip(wide).zip(f.rows(is.clone(), js.clone()));
            for (dst, (((dn, up), wide), fr)) in r.rows_mut(is, js).zip(rows) {
                let (dn, up, fr, dst) = (&dn[..n], &up[..n], &fr[..n], &mut dst[..n]);
                let (lf, mid, rt) = (&wide[..n], &wide[1..=n], &wide[2..n + 2]);
                for k in 0..n {
                    let lu = ax * (dn[k] + up[k]) + ay * (lf[k] + rt[k]) + ad * mid[k];
                    dst[k] = fr[k] - lu;
                }
            }
        });
    r
}

/// Distributed restriction with semicoarsening (full weighting) along
/// the last axis, for arrays whose axis 0 is undistributed. Returns the
/// coarse right-hand side, the last extent halved. The width-1,
/// face-only read of `r` is declared to the stencil plan
/// ([`Ghosts::faces`] — the weighting reads no diagonal ghost); under a
/// split policy the owned fine slices whose ±1 neighbours are also owned
/// are full-weighted while the ghost slices travel, and only the
/// block-edge slices wait for completion. Each weighted slice travels
/// whole (axis 0's boundary layers as zeros) to the owner of its coarse
/// index.
pub fn rest<const N: usize>(ctx: &mut Ctx, r: &mut DistArrayN<f64, N>) -> DistArrayN<f64, N> {
    let ax = N - 1;
    let mut extents = r.extents();
    let nc = (extents[ax] - 1) / 2;
    extents[ax] = nc + 1;
    let mut g = r.with_extents(extents);
    // Slices travel among the members that differ from me only along `ax`.
    let Some(team) = r.owner_slice(0..ax).map(|s| s.team()) else {
        return g;
    };
    let cdist = g.dist(ax);
    // One slice is `edge` cells per layer of axis 0, `cells` of them interior.
    let edge: usize = (1..ax).map(|d| r.local_len(d)).product();
    let cells = (extents[0] - 2) * edge;
    let mut fine = [vec![0.0; cells], vec![0.0; cells], vec![0.0; cells]];
    // My part of a fine slice — less axis 0's two boundary layers, which
    // carry no equation — and of a whole coarse one; `[ax]` is set per slice.
    let (mut lo, mut hi) = ([0; N], r.extents());
    (lo[0], hi[0]) = (1, hi[0] - 1);
    let (mut lo, mut hi) = r.owned_box(lo, hi);
    let (mut clo, mut chi) = g.owned_box([0; N], extents);

    // Only the fine-even slices k = 2·kc, kc in 1..nc, restrict.
    let mut items = Vec::new();
    ctx.plan().reads(r, Ghosts::faces(1)).run_lines(
        ax,
        2..(2 * nc).saturating_sub(1),
        |ctx, r, k| {
            if !k.is_multiple_of(2) {
                return;
            }
            for (kk, buf) in (k - 1..).zip(&mut fine) {
                (lo[ax], hi[ax]) = (kk, kk + 1);
                r.box_into(lo, hi, buf);
            }
            let [below, mid, above] = &fine;
            let mut weighted = vec![0.0; extents[0] * edge];
            for (w, ((a, b), c)) in weighted[edge..edge + cells]
                .iter_mut()
                .zip(below.iter().zip(mid).zip(above))
            {
                *w = 0.25 * a + 0.5 * b + 0.25 * c;
            }
            ctx.proc().compute(5.0 * cells as f64);
            items.push((cdist.owner(k / 2), (k / 2) as u64, weighted));
        },
    );
    for (kc, weighted) in route(ctx.proc(), &team, items) {
        (clo[ax], chi[ax]) = (kc as usize, kc as usize + 1);
        g.box_set(clo, chi, &weighted);
        ctx.proc().memop(weighted.len() as f64);
    }
    g
}

/// Distributed interpolate-and-correct for semicoarsening along the last
/// axis (Listing 10): every owned coarse slice of `v` travels to the
/// owners of the fine slices that read it (2kc−1, 2kc, 2kc+1); even fine
/// slices of `u` add the coarse slice, odd ones the average of the two
/// neighbouring coarse slices.
pub fn intrp<const N: usize>(ctx: &mut Ctx, u: &mut DistArrayN<f64, N>, v: &DistArrayN<f64, N>) {
    let ax = N - 1;
    let n = u.extents()[ax] - 1;
    assert_eq!(
        (v.extents()[ax] - 1) * 2,
        n,
        "dimensions do not match in intrp"
    );
    let Some(team) = u.owner_slice(0..ax).map(|s| s.team()) else {
        return;
    };
    let fine_dist = u.dist(ax);
    let n0 = u.extents()[0];
    let edge: usize = (1..ax).map(|d| u.local_len(d)).product();
    let cells = (n0 - 2) * edge;
    // My part of a whole coarse slice and of a fine one less axis 0's two
    // boundary layers; `[ax]` is set per slice.
    let (mut clo, mut chi) = v.owned_box([0; N], v.extents());
    let (mut lo, mut hi) = ([0; N], u.extents());
    (lo[0], hi[0]) = (1, n0 - 1);
    let (mut lo, mut hi) = u.owned_box(lo, hi);

    let mut items = Vec::new();
    if v.is_participant() {
        for kc in v.owned_range(ax) {
            (clo[ax], chi[ax]) = (kc, kc + 1);
            let mut slice = vec![0.0; n0 * edge];
            v.box_into(clo, chi, &mut slice);
            let readers = (2 * kc).saturating_sub(1)..=(2 * kc + 1).min(n);
            let mut dests: Vec<usize> = readers.map(|k| fine_dist.owner(k)).collect();
            dests.dedup();
            for dest in dests {
                items.push((dest, kc as u64, slice.clone()));
            }
        }
    }
    let coarse: HashMap<usize, Vec<f64>> = route(ctx.proc(), &team, items)
        .into_iter()
        .map(|(kc, slice)| (kc as usize, slice))
        .collect();
    if !u.is_participant() {
        return;
    }
    let mut cur = vec![0.0; cells];
    for k in u.owned_range(ax).start.max(1)..u.owned_range(ax).end.min(n) {
        let (la, lb) = (k / 2, k.div_ceil(2));
        let (va, vb) = (&coarse[&la], &coarse[&lb]);
        (lo[ax], hi[ax]) = (k, k + 1);
        u.box_into(lo, hi, &mut cur);
        for (c, (a, b)) in cur
            .iter_mut()
            .zip(va[edge..edge + cells].iter().zip(&vb[edge..edge + cells]))
        {
            *c += if la == lb { *a } else { 0.5 * (a + b) };
        }
        u.box_set(lo, hi, &cur);
        ctx.proc().compute(2.0 * cells as f64);
    }
}

/// Listing 11's restriction: [`rest`] over the lines of a `dist (*, block)`
/// array on a 1-D team (y-semicoarsening, extents `(nx+1, ny/2+1)`).
pub fn rest2(ctx: &mut Ctx, r: &mut DistArray2<f64>) -> DistArray2<f64> {
    rest(ctx, r)
}

/// Listing 11's interpolation: [`intrp`] over the lines of a
/// `dist (*, block)` array.
pub fn intrp2(ctx: &mut Ctx, u: &mut DistArray2<f64>, v: &DistArray2<f64>) {
    intrp(ctx, u, v)
}

/// Listing 9's restriction: [`rest`] over the planes of a
/// `dist (*, block, block)` array on a 2-D grid (z-semicoarsening).
pub fn rest3(ctx: &mut Ctx, r: &mut DistArray3<f64>) -> DistArray3<f64> {
    rest(ctx, r)
}

/// Listing 10, distributed: [`intrp`] over the planes of a
/// `dist (*, block, block)` array.
pub fn intrp3(ctx: &mut Ctx, u: &mut DistArray3<f64>, v: &DistArray3<f64>) {
    intrp(ctx, u, v)
}

/// Distributed 3-D residual `r = f − L u` for `dist (*, block, block)`
/// arrays with ghosts ≥ 1 on the distributed dimensions. The 7-point
/// read of `u` is declared to the stencil plan, which refreshes the
/// skirt under the context's policy.
pub fn resid3(
    ctx: &mut Ctx,
    pde: &Pde,
    u: &mut DistArray3<f64>,
    f: &DistArray3<f64>,
) -> DistArray3<f64> {
    let [nxp, nyp, nzp] = u.extents();
    let (nx, ny, nz) = (nxp - 1, nyp - 1, nzp - 1);
    let (ax, ay, az, ad) = pde.stencil3(nx, ny, nz);
    ctx.plan().reads(u, Ghosts::faces(1)).refresh();
    let proc = ctx.proc();
    let mut r = u.like();
    if !u.is_participant() {
        return r;
    }
    let j0 = u.owned_range(1).start.max(1);
    let j1 = u.owned_range(1).end.min(ny);
    let k0 = u.owned_range(2).start.max(1);
    let k1 = u.owned_range(2).end.min(nz);
    for i in 1..nx {
        for j in j0..j1 {
            for k in k0..k1 {
                let lu = ax * (u.at(i - 1, j, k) + u.at(i + 1, j, k))
                    + ay * (u.at(i, j - 1, k) + u.at(i, j + 1, k))
                    + az * (u.at(i, j, k - 1) + u.at(i, j, k + 1))
                    + ad * u.at(i, j, k);
                r.put(i, j, k, f.at(i, j, k) - lu);
            }
        }
    }
    proc.compute(11.0 * ((nx - 1) * j1.saturating_sub(j0) * k1.saturating_sub(k0)) as f64);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_bitwise, seq};
    use kali_grid::{DistSpec, ProcGrid};
    use kali_machine::{CostModel, Machine, MachineConfig};
    use std::time::Duration;

    fn cfg(p: usize) -> MachineConfig {
        MachineConfig::new(p)
            .with_cost(CostModel::unit())
            .with_watchdog(Duration::from_secs(20))
    }

    #[test]
    fn route_delivers_keyed_payloads() {
        let run = Machine::run(cfg(3), |proc| {
            let team = Team::all(3);
            let me = proc.rank();
            // Everyone sends one row to proc (me+1)%3.
            let items = vec![((me + 1) % 3, me as u64 * 10, vec![me as f64; 4])];
            route(proc, &team, items)
        });
        for r in 0..3 {
            let got = &run.results[r];
            assert_eq!(got.len(), 1);
            let src = (r + 2) % 3;
            assert_eq!(got[0].0, src as u64 * 10);
            assert_eq!(got[0].1, vec![src as f64; 4]);
        }
    }

    #[test]
    fn resid2_matches_sequential() {
        let pde = Pde::poisson();
        let (nx, ny) = (12, 16);
        let us = seq::Grid2::random_interior(nx, ny, 5);
        let fs = seq::Grid2::random_interior(nx, ny, 6);
        let r_seq = seq::resid2_seq(&pde, &us, &fs);
        let (us2, fs2) = (us.clone(), fs.clone());
        let run = Machine::run(cfg(4), move |proc| {
            let grid = ProcGrid::new_2d(2, 2);
            let spec = DistSpec::block2();
            let mut u = DistArray2::from_fn(
                proc.rank(),
                &grid,
                &spec,
                [nx + 1, ny + 1],
                [1, 1],
                |[i, j]| us2.at(i, j),
            );
            let f = DistArray2::from_fn(
                proc.rank(),
                &grid,
                &spec,
                [nx + 1, ny + 1],
                [1, 1],
                |[i, j]| fs2.at(i, j),
            );
            let mut ctx = Ctx::new(proc, grid);
            let r = resid2(&mut ctx, &pde, &mut u, &f);
            r.gather_to_root(ctx.proc())
        });
        assert_bitwise(run.results[0].as_ref().unwrap(), &r_seq.v, "resid2");
    }

    #[test]
    fn rest2_matches_sequential_various_teams() {
        let (nx, ny) = (8, 16);
        let rs = seq::Grid2::random_interior(nx, ny, 7);
        let want = seq::rest2_seq(&rs);
        for p in [1usize, 2, 3, 4, 5] {
            let rs2 = rs.clone();
            let run = Machine::run(cfg(p), move |proc| {
                let grid = ProcGrid::new_1d(proc.nprocs());
                let spec = DistSpec::local_block();
                let mut r = DistArray2::from_fn(
                    proc.rank(),
                    &grid,
                    &spec,
                    [nx + 1, ny + 1],
                    [0, 1],
                    |[i, j]| rs2.at(i, j),
                );
                let mut ctx = Ctx::new(proc, grid);
                let g = rest2(&mut ctx, &mut r);
                g.gather_to_root(ctx.proc())
            });
            let got = run.results[0].as_ref().unwrap();
            assert_bitwise(got, &want.v, &format!("rest2 p={p}"));
        }
    }

    #[test]
    fn intrp2_matches_sequential_various_teams() {
        let (nx, ny) = (8, 16);
        let vs = seq::Grid2::random_interior(nx, ny / 2, 9);
        let base = seq::Grid2::random_interior(nx, ny, 10);
        let mut want = base.clone();
        seq::intrp2_seq(&mut want, &vs);
        for p in [1usize, 2, 4, 6] {
            let (vs2, base2) = (vs.clone(), base.clone());
            let run = Machine::run(cfg(p), move |proc| {
                let grid = ProcGrid::new_1d(proc.nprocs());
                let spec = DistSpec::local_block();
                let mut u = DistArray2::from_fn(
                    proc.rank(),
                    &grid,
                    &spec,
                    [nx + 1, ny + 1],
                    [0, 1],
                    |[i, j]| base2.at(i, j),
                );
                let v = DistArray2::from_fn(
                    proc.rank(),
                    &grid,
                    &spec,
                    [nx + 1, ny / 2 + 1],
                    [0, 1],
                    |[i, j]| vs2.at(i, j),
                );
                let mut ctx = Ctx::new(proc, grid);
                intrp2(&mut ctx, &mut u, &v);
                u.gather_to_root(ctx.proc())
            });
            let got = run.results[0].as_ref().unwrap();
            assert_bitwise(got, &want.v, &format!("intrp2 p={p}"));
        }
    }

    #[test]
    fn resid3_rest3_intrp3_match_sequential() {
        let pde = Pde::poisson();
        let (nx, ny, nz) = (6, 8, 8);
        let us = seq::Grid3::random_interior(nx, ny, nz, 11);
        let fs = seq::Grid3::random_interior(nx, ny, nz, 12);
        let r_seq = seq::resid3_seq(&pde, &us, &fs);
        let g_seq = seq::rest3_seq(&r_seq);
        let vs = seq::Grid3::random_interior(nx, ny, nz / 2, 13);
        let mut u_want = us.clone();
        seq::intrp3_seq(&mut u_want, &vs);

        for (p0, p1) in [(1usize, 1usize), (2, 2), (1, 4), (4, 1)] {
            let (us2, fs2, vs2) = (us.clone(), fs.clone(), vs.clone());
            let run = Machine::run(cfg(p0 * p1), move |proc| {
                let grid = ProcGrid::new_2d(p0, p1);
                let spec = DistSpec::local_block_block();
                let mut u = DistArray3::from_fn(
                    proc.rank(),
                    &grid,
                    &spec,
                    [nx + 1, ny + 1, nz + 1],
                    [0, 1, 1],
                    |[i, j, k]| us2.at(i, j, k),
                );
                let f = DistArray3::from_fn(
                    proc.rank(),
                    &grid,
                    &spec,
                    [nx + 1, ny + 1, nz + 1],
                    [0, 1, 1],
                    |[i, j, k]| fs2.at(i, j, k),
                );
                let mut ctx = Ctx::new(proc, grid);
                let r0 = resid3(&mut ctx, &pde, &mut u, &f);
                let mut r = r0;
                let g = rest3(&mut ctx, &mut r);
                let v = DistArray3::from_fn(
                    ctx.rank(),
                    ctx.grid(),
                    &spec,
                    [nx + 1, ny + 1, nz / 2 + 1],
                    [0, 1, 1],
                    |[i, j, k]| vs2.at(i, j, k),
                );
                intrp3(&mut ctx, &mut u, &v);
                let gg = g.gather_to_root(ctx.proc());
                let ug = u.gather_to_root(ctx.proc());
                (gg, ug)
            });
            let (gg, ug) = &run.results[0];
            let shape = format!("p=({p0},{p1})");
            assert_bitwise(gg.as_ref().unwrap(), &g_seq.v, &format!("rest3 {shape}"));
            assert_bitwise(ug.as_ref().unwrap(), &u_want.v, &format!("intrp3 {shape}"));
        }
    }
}
