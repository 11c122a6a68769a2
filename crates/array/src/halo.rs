//! Ghost-layer exchange — the compiled form of Listing 2's guarded edge
//! sends/receives, generalized to any block-distributed dimension of an
//! N-dimensional array, and routed *entirely* through the shared
//! inspector–executor engine (`kali-sched`): this module holds the
//! halo's **key** ([`HaloKey`]), **builder** (a product of 1-D factors)
//! and **world** (the array's storage), and [`DistArrayN::begin_ghosts`] /
//! [`DistArrayN::finish_ghosts`] hand them to the one trip driver
//! ([`kali_sched::Trip`]) that also runs the sparse gather and the
//! interpreter's `doall`. The protocol itself — gate, vote, post,
//! complete, scatter, rollback, store — is not written here.
//!
//! The ghost geometry is turned into a [`CommSchedule`] *analytically*,
//! with no communication. Ownership is the tensor product of the 1-D
//! block/cyclic maps, so the cells a member fetches from one peer form a
//! box: per dimension, its storage interval (owned block plus ghost
//! width, clipped to the extent) met with the peer's owned interval. The
//! cells it serves that peer are the mirror box, and both sides list a
//! box in row-major order. The schedule names each cell by its offset in
//! this processor's storage, checked visible once at build time, so a
//! replay indexes the array and decodes nothing. Because each ghost cell
//! is fetched directly from its true *owner* (not pipelined through a
//! face neighbour), the corner-completing variant (`corners = true`)
//! refreshes edge and corner ghosts in the same posted exchange, so
//! 9-point stencils can run split-phase; the face-only variant skips the
//! diagonal peers whose traffic 5/7-point stencils never read.
//!
//! Deriving the schedule is host work a real runtime pays per trip, and
//! the build is charged to the virtual clock (as inspection time) like
//! the interpreter's inspector pass. The charge prices a walk of every
//! storage box that meets this member's owned block, its own included —
//! the sum of those boxes' sizes — not the handful of intervals the
//! builder actually meets. The [`HaloCache`] removes it from warm trips:
//! built schedules are stored in `kali-sched`'s [`ScheduleCache`] keyed on
//! `(extents, dists, ghosts, corner policy, distribution generation)`,
//! and a warm exchange replays the cached schedule with the replay
//! consensus vote riding as a one-word header on the fused value
//! messages (the driver's optimistic mode). A disagreement — e.g. a
//! redistribution that bumped the generation — discards the payloads,
//! rolls the trip back to a fresh analytic build, and re-runs the
//! exchange, so stale routes never reach storage.
//!
//! ## Active-team vote gating
//!
//! Every message of an exchange — fused values and the piggybacked vote
//! headers alike — travels over the array's *active team*: the sub-team
//! of grid ranks whose owned block is non-empty in every dimension
//! ([`DistArrayN::active_team`]). Membership is a pure function of the
//! array's geometry, so every member derives the same team with zero
//! communication, and a member owning nothing (a coarse multigrid level
//! leaves most of the machine empty) sends *no* messages at all — in
//! particular no bare `(vote, [])` headers, which on a small coarse team
//! would otherwise cost more traffic than the values themselves.
//! Non-active grid members keep the *collective* cache discipline —
//! analytic builds and stores still happen on every grid member — so the
//! per-site vote gate and the schedule ordinal stream stay SPMD-uniform;
//! on warm trips they note the replay locally instead of voting. To the
//! driver this is one bit of data, [`kali_sched::Trip::sits_out`].
//!
//! One divergence is accepted and documented rather than defended: the
//! actives decide hit-or-rollback by vote, while a non-active member
//! consults only its local cache. A *non-collective* divergence in cache
//! state (which the collective store discipline rules out for every
//! SPMD-uniform program — lookups, stores and evictions all happen on
//! every member in the same order) could therefore desynchronize the
//! replay counters. No communication-free scheme can do better: a
//! processor that exchanges no messages observes no votes.

use std::convert::Infallible;
use std::ops::Range;

use kali_grid::Dist1;
use kali_machine::{tag, Proc, Team, NS_ARRAY};
use kali_sched::{
    ArraySchedule, CommSchedule, ExecPolicy, InFlight, ScheduleCache, ScheduleExecutor,
    ScheduleWorld, SiteKey, Trip,
};

use crate::arrays::{cartesian, DistArrayN, Elem};

/// Tag of the fused ghost value messages (one per communicating peer
/// pair per exchange; posting-order matching keeps successive exchanges
/// paired).
const HALO_VALUE_TAG: u64 = tag(NS_ARRAY, 0x0048_6057);

/// The halo's instance of the shared schedule executor.
const EXEC: ScheduleExecutor = ScheduleExecutor::new(HALO_VALUE_TAG);

/// The executor's view of a distributed array: a halo schedule names one
/// array (index 0), and its flat indices are storage offsets on this
/// processor, fixed by the geometry the [`HaloKey`] records.
impl<T: Elem, const N: usize> ScheduleWorld<T> for DistArrayN<T, N> {
    fn load(&self, _array: usize, flat: u64) -> T {
        self.data[flat as usize]
    }

    fn store(&mut self, _array: usize, flat: u64, value: T) {
        self.data[flat as usize] = value;
    }
}

/// Cache key of an analytic halo schedule. The *site* is a stable hash
/// of the exchange's static shape (rank, extents, ghost widths, corner
/// policy) — the compiled-path analogue of the interpreter's
/// parser-assigned `doall` site id — while the full key adds the index
/// maps and the distribution generation, so a redistribution makes the
/// lookup miss (and the piggybacked vote roll back) instead of
/// replaying a stale route.
#[derive(Clone, PartialEq)]
pub struct HaloKey {
    site: usize,
    team_ranks: Vec<usize>,
    extents: Vec<usize>,
    dists: Vec<Dist1>,
    ghost: Vec<usize>,
    corners: bool,
    generation: u64,
}

impl SiteKey for HaloKey {
    fn site(&self) -> usize {
        self.site
    }
    fn team_ranks(&self) -> &[usize] {
        &self.team_ranks
    }
}

pub(crate) fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Cached analytic halo schedules, shared by every exchange a context
/// issues. One instance lives in `kali-runtime`'s `Ctx`; arrays with the
/// same geometry (e.g. an array and its copy-in snapshot, or the coarse
/// levels successive V-cycles reallocate) share entries: the key's
/// extents, dists, ghost widths and team fix each processor's storage
/// layout, so the storage offsets a schedule names mean the same cells
/// in every array that shares its key.
pub struct HaloCache {
    cache: ScheduleCache<HaloKey>,
}

impl HaloCache {
    pub fn new() -> Self {
        // Sites cycle through at most a couple of keys (generation bumps);
        // the cap is a backstop against unbounded redistribution churn.
        HaloCache {
            cache: ScheduleCache::new(4),
        }
    }

    /// A cache additionally bounded to `max_entries` schedules in total,
    /// with per-`(site, team)` LRU victim selection — the multi-tenant
    /// configuration, where a shape-diverse request stream must not grow
    /// the cache without limit.
    pub fn with_budget(max_entries: usize) -> Self {
        HaloCache {
            cache: ScheduleCache::with_budget(4, max_entries),
        }
    }

    /// Re-cap the global entry budget, evicting LRU entries down to it.
    pub fn set_budget(&mut self, max_entries: usize) {
        self.cache.set_budget(max_entries);
    }

    /// Schedules currently held.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// The global entry budget, if one is set.
    pub fn budget(&self) -> Option<usize> {
        self.cache.budget()
    }
}

impl Default for HaloCache {
    fn default() -> Self {
        Self::new()
    }
}

/// A begun ghost exchange, created by [`DistArrayN::begin_ghosts`].
/// Complete it with [`DistArrayN::finish_ghosts`] on an array of the same
/// shape — usually the array itself, or a same-layout snapshot taken for
/// copy-in/copy-out updates.
#[must_use = "a begun ghost exchange must be completed with finish_ghosts"]
pub struct PendingHalo<T: Elem> {
    /// `None` off the owning grid: such a rank takes no part at all.
    flight: Option<InFlight<T, HaloKey>>,
    corners: bool,
}

/// The cached protocol without overlap: what the policy-free `_cached`
/// entry points run under.
pub(crate) const CACHED_BLOCKING: ExecPolicy = ExecPolicy {
    split: false,
    optimistic: true,
};

impl<T: Elem, const N: usize> DistArrayN<T, N> {
    /// The *active team* of this array: the grid ranks whose owned block
    /// is non-empty in every dimension, in grid-team order. A pure
    /// function of the array's geometry — every member derives the same
    /// team with no communication — so it is safe to route all exchange
    /// traffic (values *and* optimistic vote headers) over it: a rank
    /// owning nothing can neither serve nor request a single ghost cell,
    /// and its vote is implied by the collective cache discipline.
    pub fn active_team(&self) -> Team {
        let ranks = self.grid().ranks().iter().copied();
        Team::new(ranks.filter(|&r| self.layout.owns_block(r)).collect())
    }

    /// The halo's schedule builder (infallible, in the shape the trip
    /// driver calls): derive the ghost [`CommSchedule`] analytically and
    /// charge it (every meeting rank's storage box) to the virtual clock,
    /// which the driver counts as inspection.
    fn build_halo_schedule(
        &self,
        proc: &mut Proc,
        corners: bool,
    ) -> Result<CommSchedule, Infallible> {
        let (sched, charge) = self.halo_schedule(corners);
        proc.memop(charge as f64);
        Ok(sched)
    }

    /// The cache key of this array's ghost schedule under `corners`.
    fn halo_key(&self, corners: bool) -> HaloKey {
        let site = fnv1a(
            std::iter::once(N as u64)
                .chain(self.extents.iter().map(|&e| e as u64))
                .chain(self.ghost.iter().map(|&g| g as u64))
                .chain(std::iter::once(corners as u64)),
        ) as usize;
        HaloKey {
            site,
            team_ranks: self.grid().team().ranks().to_vec(),
            extents: self.extents.to_vec(),
            dists: self.dists.to_vec(),
            ghost: self.ghost.to_vec(),
            corners,
            generation: self.generation,
        }
    }

    /// Derive the ghost [`CommSchedule`] as a product of 1-D factors.
    /// Ownership is the tensor product of the per-dimension maps, so what
    /// I fetch from a peer is a box — per dimension, my storage interval
    /// met with the peer's owned interval — and what I serve it is the
    /// mirror box, its storage interval met with mine. Both sides meet
    /// the same intervals and enumerate each box in row-major order, so
    /// they agree on the per-pair cell sequences without a request round.
    /// Each side names a cell by its offset in its *own* storage — a
    /// ghost cell in `my_reqs`, an owned cell in `incoming` — so a replay
    /// indexes storage and decodes nothing. A peer whose coordinates
    /// differ from mine in `k` dimensions sees only cells outside its
    /// block in exactly those `k`, so the face-only policy skips every
    /// peer with `k > 1`. Returns the schedule plus its charge: the
    /// storage-box sizes of every peer whose box meets my owned block
    /// (mine included), the cells a walk of those boxes would visit.
    ///
    /// The per-peer vectors are indexed by *active-team* position (see
    /// [`DistArrayN::active_team`]): ranks owning nothing can appear on
    /// neither side of a ghost transfer, and dropping their slots lets
    /// every exchange path — including the optimistic vote — run over the
    /// active team alone.
    fn halo_schedule(&self, corners: bool) -> (CommSchedule, usize) {
        let team = self.active_team();
        let q = team.len();
        let mut my_reqs: Vec<Vec<u64>> = vec![Vec::new(); q];
        let mut incoming: Vec<Vec<u64>> = vec![Vec::new(); q];
        let mut charge = 0usize;
        if self.ghost.iter().any(|&g| g > 0) && self.is_participant() {
            let meet = |a: &Range<usize>, b: &Range<usize>| a.start.max(b.start)..a.end.min(b.end);
            let mine: [_; N] = std::array::from_fn(|d| self.intervals(d, self.qs[d]));
            for ti in 0..q {
                let qs = (self.layout.coords::<N>(team.rank(ti)))
                    .expect("active members are grid members");
                let theirs: [_; N] = std::array::from_fn(|d| self.intervals(d, qs[d]));
                let fetch: [_; N] = std::array::from_fn(|d| meet(&mine[d].1, &theirs[d].0));
                let serve: [_; N] = std::array::from_fn(|d| meet(&theirs[d].1, &mine[d].0));
                if serve.iter().any(Range::is_empty) {
                    continue;
                }
                charge += theirs.iter().map(|(_, s)| s.len()).product::<usize>();
                let differ = (0..N).filter(|&d| qs[d] != self.qs[d]).count();
                if differ == 0 || (differ > 1 && !corners) {
                    continue;
                }
                // A box's global indices; along a non-contiguous
                // (ghost-free) dimension, my owned list if we share it.
                let cells = |b: [Range<usize>; N]| -> [Vec<usize>; N] {
                    std::array::from_fn(|d| match self.dists[d].is_contiguous() {
                        true => b[d].clone().collect(),
                        false if qs[d] == self.qs[d] => self.dists[d].owned(qs[d]).collect(),
                        false => Vec::new(),
                    })
                };
                cartesian(&cells(fetch), |g| {
                    let s = self
                        .storage_index(g)
                        .expect("a ghost cell I fetch is in my skirt");
                    my_reqs[ti].push(s as u64);
                });
                cartesian(&cells(serve), |g| {
                    incoming[ti].push(self.storage_index_owned(g) as u64);
                });
            }
        }
        let sched = CommSchedule {
            arrays: vec![ArraySchedule {
                name: "ghosts".into(),
                my_reqs,
                incoming,
                origin: 0,
            }],
            write_hint: 0,
            boundary: Vec::new(),
        };
        (sched, charge)
    }

    /// Along dimension `d`, the owned interval of the processor at
    /// coordinate `c` and its storage interval: the owned one widened by
    /// the ghost width and clipped to the extent. A non-contiguous
    /// dimension is ghost-free and owns no interval; both stand as its
    /// local range `0..len`, so every active peer's box meets mine there
    /// and the charge counts it, as the cell walk it replaces did.
    fn intervals(&self, d: usize, c: usize) -> (Range<usize>, Range<usize>) {
        let (dist, g) = (self.dists[d], self.ghost[d]);
        if !dist.is_contiguous() {
            return (0..dist.local_len(c), 0..dist.local_len(c));
        }
        let lo = dist.lower(c).unwrap_or(0);
        let hi = lo + dist.local_len(c);
        (lo..hi, lo.saturating_sub(g)..(hi + g).min(self.extents[d]))
    }
}

impl<T: Elem, const N: usize> DistArrayN<T, N> {
    /// Begin a ghost exchange — the halo's (key, builder, world) triple
    /// handed to `kali-sched`'s trip driver. With a `cache` and an
    /// optimistic `policy`, warm trips replay the cached analytic
    /// schedule; otherwise every trip derives the schedule afresh.
    /// Under a split `policy` the fused value messages are in flight
    /// when this returns, so the caller can compute on interior points
    /// meanwhile; under a blocking one they move at
    /// [`DistArrayN::finish_ghosts`]. Must be called by every member of
    /// the owning grid (SPMD); other ranks get an inert handle.
    ///
    /// `corners` selects the corner policy: `false` fetches only the
    /// ghost cells that differ from the owned box in exactly one
    /// dimension (faces — all that 5-point/7-point stencils read);
    /// `true` fetches every global-valid cell of the skirt — faces,
    /// edges *and* corners — directly from its true owner, so 9-point
    /// (2-D) and 27-point (3-D) stencils can overlap the transit too.
    /// Neighbours are determined by *ownership*, not grid adjacency, so
    /// the exchange remains correct on coarse multigrid levels where some
    /// processors own nothing, and for ghost skirts wider than a
    /// neighbour's block.
    pub fn begin_ghosts(
        &self,
        proc: &mut Proc,
        cache: Option<&mut HaloCache>,
        policy: ExecPolicy,
        corners: bool,
    ) -> PendingHalo<T> {
        let flight = self.in_grid().then(|| {
            let trip = Trip {
                exec: EXEC,
                policy,
                // Values and vote headers alike travel over the active
                // team; a grid member owning nothing sits out.
                team: self.active_team(),
                sits_out: !self.is_participant(),
                key: cache.is_some().then(|| self.halo_key(corners)),
            };
            let cache = cache.map(|c| &mut c.cache);
            let build = |proc: &mut Proc, a: &Self| a.build_halo_schedule(proc, corners);
            let Ok(flight) = trip.begin(proc, cache, self, build);
            flight
        });
        PendingHalo { flight, corners }
    }

    /// Complete a begun exchange into `self`, which must have the shape
    /// the exchange was begun with (the array itself or a same-layout
    /// clone); `cache` must be the one it was begun with. On a lost vote
    /// (e.g. a redistribution bumped the generation under a still-gated
    /// site) the stale payloads are discarded and the exchange re-runs
    /// from a fresh analytic build — reading `self`'s *current* owned
    /// values, so copy-in/copy-out snapshots stay exact.
    pub fn finish_ghosts(
        &mut self,
        proc: &mut Proc,
        cache: Option<&mut HaloCache>,
        pending: PendingHalo<T>,
    ) {
        let PendingHalo { flight, corners } = pending;
        let Some(flight) = flight else { return };
        let cache = cache.map(|c| &mut c.cache);
        let build = |proc: &mut Proc, a: &Self| a.build_halo_schedule(proc, corners);
        let Ok(_) = flight.complete(proc, cache, self, build);
    }

    /// Begin and finish back to back: the bare refresh, nothing
    /// overlapped.
    pub fn refresh_ghosts(
        &mut self,
        proc: &mut Proc,
        mut cache: Option<&mut HaloCache>,
        policy: ExecPolicy,
        corners: bool,
    ) {
        let pending = self.begin_ghosts(proc, cache.as_deref_mut(), policy, corners);
        self.finish_ghosts(proc, cache, pending);
    }

    /// [`DistArrayN::refresh_ghosts`] through `cache`, blocking, the
    /// replay vote carried on the fused value round.
    pub fn exchange_ghosts_cached(
        &mut self,
        proc: &mut Proc,
        cache: &mut HaloCache,
        corners: bool,
    ) {
        self.refresh_ghosts(proc, Some(cache), CACHED_BLOCKING, corners);
    }

    /// [`DistArrayN::begin_ghosts`] through `cache` under the default
    /// (split-phase, optimistic) policy.
    pub fn begin_exchange_ghosts_cached(
        &self,
        proc: &mut Proc,
        cache: &mut HaloCache,
        corners: bool,
    ) -> PendingHalo<T> {
        self.begin_ghosts(proc, Some(cache), ExecPolicy::default(), corners)
    }

    /// [`DistArrayN::finish_ghosts`] through `cache`.
    pub fn finish_exchange_ghosts_cached(
        &mut self,
        proc: &mut Proc,
        cache: &mut HaloCache,
        pending: PendingHalo<T>,
    ) {
        self.finish_ghosts(proc, Some(cache), pending);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kali_grid::{DimDist, DimMap, DistSpec, ProcGrid};
    use kali_machine::{CostModel, Machine, MachineConfig};
    use std::time::Duration;

    fn cfg(p: usize) -> MachineConfig {
        MachineConfig::new(p)
            .with_cost(CostModel::unit())
            .with_watchdog(Duration::from_secs(10))
    }

    /// The cell walk the factor product replaced: walk my storage box and
    /// every active peer's whose box meets my owned block, and ask each
    /// skirt cell its owner. Returns `(my_reqs, incoming, cells walked)`.
    fn walked_schedule<const N: usize>(
        a: &DistArrayN<f64, N>,
        corners: bool,
    ) -> (Vec<Vec<u64>>, Vec<Vec<u64>>, usize) {
        let team = a.active_team();
        let mut my_reqs = vec![Vec::new(); team.len()];
        let mut incoming = vec![Vec::new(); team.len()];
        let mut walked = 0;
        if !a.ghost.iter().any(|&g| g > 0) || !a.is_participant() {
            return (my_reqs, incoming, walked);
        }
        walked += walk_skirt(a, &a.qs, corners, &mut |g| {
            let oi = team.index_of(a.owner_rank(g)).unwrap();
            my_reqs[oi].push(a.storage_index(g).unwrap() as u64);
        });
        for (ti, &r) in team.ranks().iter().enumerate() {
            let qs = a.layout.coords(r).unwrap();
            let overlaps = |d: usize| {
                let dist = a.dists[d];
                let lo = dist.lower(qs[d]).unwrap();
                let skirt_hi = lo + dist.local_len(qs[d]) + a.ghost[d];
                !dist.is_contiguous()
                    || lo.saturating_sub(a.ghost[d]) < a.lo[d] + a.len[d] && a.lo[d] < skirt_hi
            };
            if r == a.rank || !(0..N).all(overlaps) {
                continue;
            }
            walked += walk_skirt(a, &qs, corners, &mut |g| {
                if a.owner_rank(g) == a.rank {
                    incoming[ti].push(a.storage_index(g).unwrap() as u64);
                }
            });
        }
        (my_reqs, incoming, walked)
    }

    /// Visit the skirt cells of the processor at coordinates `qs` in
    /// row-major order — all of them when `corners`, else those outside
    /// its block in exactly one dimension — and return its box's size.
    fn walk_skirt<const N: usize>(
        a: &DistArrayN<f64, N>,
        qs: &[usize; N],
        corners: bool,
        f: &mut impl FnMut([usize; N]),
    ) -> usize {
        let mut owned = [(0, usize::MAX); N];
        let dims: [Vec<usize>; N] = std::array::from_fn(|d| {
            let dist = a.dists[d];
            if !dist.is_contiguous() {
                return dist.owned(qs[d]).collect();
            }
            let lo = dist.lower(qs[d]).unwrap_or(0);
            let hi = lo + dist.local_len(qs[d]);
            owned[d] = (lo, hi);
            (lo.saturating_sub(a.ghost[d])..(hi + a.ghost[d]).min(a.extents[d])).collect()
        });
        cartesian(&dims, |g| {
            let outside = (0..N)
                .filter(|&d| g[d] < owned[d].0 || owned[d].1 <= g[d])
                .count();
            if outside > 0 && (corners || outside == 1) {
                f(g);
            }
        });
        dims.iter().map(Vec::len).product()
    }

    /// Every ordered way to write `p` as a product of `n` positive factors.
    fn factorizations(p: usize, n: usize) -> Vec<Vec<usize>> {
        if n == 1 {
            return vec![vec![p]];
        }
        (1..=p)
            .filter(|&f| p.is_multiple_of(f))
            .flat_map(|f| {
                factorizations(p / f, n - 1)
                    .into_iter()
                    .map(move |r| [vec![f], r].concat())
            })
            .collect()
    }

    /// Compare the factor product with the walk on every rank of `grid`
    /// under both corner policies; returns the number of cases compared.
    fn check_grid<const N: usize>(
        grid: &ProcGrid,
        spec: &DistSpec,
        extents: [usize; N],
        ghost: [usize; N],
    ) -> usize {
        for &rank in grid.ranks() {
            let a = DistArrayN::<f64, N>::new(rank, grid, spec, extents, ghost);
            for corners in [false, true] {
                let (sched, charge) = a.halo_schedule(corners);
                let (my_reqs, incoming, walked) = walked_schedule(&a, corners);
                let at = (spec, extents, ghost, grid.extents(), rank, corners);
                assert_eq!(sched.arrays[0].my_reqs, my_reqs, "my_reqs at {at:?}");
                assert_eq!(sched.arrays[0].incoming, incoming, "incoming at {at:?}");
                assert_eq!(charge, walked, "charge at {at:?}");
            }
        }
        2 * grid.size()
    }

    /// [`check_grid`] over every `dist` clause of block/cyclic/`*`
    /// dimensions, every ghost width 0–2 on the dimensions that allow
    /// one, and every grid shape of `p = 1..6` processors (ranks listed
    /// backwards, so a team position is not a rank).
    fn oracle_cases<const N: usize>(extents: [usize; N]) -> usize {
        use kali_grid::{DimDist, DimMap};
        let (block, cyclic) = (DimMap::Dist(DimDist::Block), DimMap::Dist(DimDist::Cyclic));
        let digits = |code: usize| -> [usize; N] {
            std::array::from_fn(|d| code / 3usize.pow(d as u32) % 3)
        };
        let mut cases = 0;
        for code in 0..3usize.pow(N as u32) {
            let maps = digits(code).map(|k| [block, cyclic, DimMap::Local][k]);
            let nd = maps.iter().filter(|&&m| m != DimMap::Local).count();
            let spec = DistSpec::new(maps.to_vec());
            for ghost in (0..3usize.pow(N as u32)).map(digits) {
                if nd == 0 || (0..N).any(|d| ghost[d] > 0 && maps[d] == cyclic) {
                    continue;
                }
                for p in 1..=6 {
                    for dims in factorizations(p, nd) {
                        let grid = ProcGrid::with_ranks(dims, (0..p).rev().collect());
                        cases += check_grid(&grid, &spec, extents, ghost);
                    }
                }
            }
        }
        cases
    }

    #[test]
    fn factor_product_schedule_matches_the_cell_walk() {
        let cases = oracle_cases([7]) + oracle_cases([3]);
        let cases = cases + oracle_cases([7, 5]) + oracle_cases([5, 4, 3]);
        assert_eq!(cases, 38_072, "every case of the grid above is compared");
    }

    #[test]
    fn one_d_halo_brings_in_neighbours() {
        let run = Machine::run(cfg(4), |proc| {
            let g = ProcGrid::new_1d(4);
            let spec = DistSpec::block1();
            let mut a =
                crate::DistArray1::from_fn(proc.rank(), &g, &spec, [16], [1], |[i]| i as f64);
            a.refresh_ghosts(proc, None, ExecPolicy::blocking(), true);
            // After the exchange each proc can read one element past its block.
            let lo = a.owned_range(0).start;
            let hi = a.owned_range(0).end;
            let left = if lo > 0 { a.at(lo - 1) } else { -1.0 };
            let right = if hi < 16 { a.at(hi) } else { -1.0 };
            (left, right)
        });
        assert_eq!(run.results[0], (-1.0, 4.0));
        assert_eq!(run.results[1], (3.0, 8.0));
        assert_eq!(run.results[2], (7.0, 12.0));
        assert_eq!(run.results[3], (11.0, -1.0));
        // 3 interior boundaries, 2 messages each: the executor's blocking
        // round moves no message between pairs without scheduled traffic.
        assert_eq!(run.report.total_msgs, 6);
    }

    #[test]
    fn two_d_halo_fills_edges_and_corners() {
        let run = Machine::run(cfg(4), |proc| {
            let g = ProcGrid::new_2d(2, 2);
            let spec = DistSpec::block2();
            let mut a =
                crate::DistArray2::from_fn(proc.rank(), &g, &spec, [8, 8], [1, 1], |[i, j]| {
                    (10 * i + j) as f64
                });
            a.refresh_ghosts(proc, None, ExecPolicy::blocking(), true);
            a
        });
        // Rank 0 owns [0..4)x[0..4). Its ghosts now hold row 4, column 4 and
        // the corner (4,4).
        let a0 = &run.results[0];
        assert_eq!(a0.at(4, 2), 42.0);
        assert_eq!(a0.at(2, 4), 24.0);
        assert_eq!(a0.at(4, 4), 44.0);
        // Rank 3 owns [4..8)x[4..8); sees (3,3) after the exchange.
        let a3 = &run.results[3];
        assert_eq!(a3.at(3, 3), 33.0);
        assert_eq!(a3.at(3, 4), 34.0);
    }

    #[test]
    fn wider_ghosts() {
        let run = Machine::run(cfg(2), |proc| {
            let g = ProcGrid::new_1d(2);
            let spec = DistSpec::block1();
            let mut a =
                crate::DistArray1::from_fn(proc.rank(), &g, &spec, [12], [2], |[i]| i as f64);
            a.refresh_ghosts(proc, None, ExecPolicy::blocking(), true);
            a
        });
        let a0 = &run.results[0];
        assert_eq!(a0.at(6), 6.0);
        assert_eq!(a0.at(7), 7.0);
        let a1 = &run.results[1];
        assert_eq!(a1.at(4), 4.0);
        assert_eq!(a1.at(5), 5.0);
    }

    #[test]
    fn empty_owners_are_skipped() {
        // 3 elements over 4 procs: one proc owns nothing; ownership-based
        // neighbouring must hop over it.
        let run = Machine::run(cfg(4), |proc| {
            let g = ProcGrid::new_1d(4);
            let spec = DistSpec::block1();
            let mut a =
                crate::DistArray1::from_fn(proc.rank(), &g, &spec, [3], [1], |[i]| i as f64 + 1.0);
            a.refresh_ghosts(proc, None, ExecPolicy::blocking(), true);
            a
        });
        // Owners are whichever 3 procs hold one element each; each nonempty
        // proc must see its ownership neighbour's value.
        let mut seen = 0;
        for a in &run.results {
            if a.is_participant() {
                let lo = a.owned_range(0).start;
                if lo > 0 {
                    assert_eq!(a.at(lo - 1), lo as f64);
                }
                seen += 1;
            }
        }
        assert_eq!(seen, 3);
    }

    #[test]
    fn mg3_layout_halo_is_planes_only() {
        // dist (*, block, block): halos along y and z; the x dimension is
        // local so a full pencil travels per message.
        let run = Machine::run(cfg(4), |proc| {
            let g = ProcGrid::new_2d(2, 2);
            let spec = DistSpec::local_block_block();
            let mut a = crate::DistArray3::from_fn(
                proc.rank(),
                &g,
                &spec,
                [4, 4, 4],
                [0, 1, 1],
                |[i, j, k]| (100 * i + 10 * j + k) as f64,
            );
            a.refresh_ghosts(proc, None, ExecPolicy::blocking(), true);
            a
        });
        let a0 = &run.results[0]; // owns y in [0..2), z in [0..2), all of x
        assert_eq!(a0.at(3, 2, 1), 321.0); // y-ghost
        assert_eq!(a0.at(3, 1, 2), 312.0); // z-ghost
        assert_eq!(a0.at(2, 2, 2), 222.0); // corner pencil
    }

    #[test]
    fn split_phase_halo_matches_blocking_off_corners() {
        // 1-D distribution: no corner ghosts exist, so the split-phase
        // exchange must be bit-identical to the blocking one.
        let run = Machine::run(cfg(4), |proc| {
            let g = ProcGrid::new_1d(4);
            let spec = DistSpec::block1();
            let mut a =
                crate::DistArray1::from_fn(proc.rank(), &g, &spec, [16], [1], |[i]| i as f64);
            let mut b = a.clone();
            a.refresh_ghosts(proc, None, ExecPolicy::blocking(), true);
            let pending = b.begin_ghosts(proc, None, ExecPolicy::pessimistic(), false);
            proc.compute(100.0); // interior work while strips travel
            b.finish_ghosts(proc, None, pending);
            (a, b)
        });
        for (a, b) in &run.results {
            assert_eq!(a.data, b.data);
        }
        // The compute between begin and finish hid transit.
        assert!(run.report.overlap_hidden_seconds > 0.0);
    }

    #[test]
    fn split_phase_halo_fills_edges_on_2d_grids() {
        // block2: the face ghosts must match the blocking exchange; only
        // the corner cells (which 5-point stencils never read) may differ.
        let run = Machine::run(cfg(4), |proc| {
            let g = ProcGrid::new_2d(2, 2);
            let spec = DistSpec::block2();
            let mut a =
                crate::DistArray2::from_fn(proc.rank(), &g, &spec, [8, 8], [1, 1], |[i, j]| {
                    (10 * i + j) as f64
                });
            let pending = a.begin_ghosts(proc, None, ExecPolicy::pessimistic(), false);
            a.finish_ghosts(proc, None, pending);
            a
        });
        let a0 = &run.results[0]; // owns [0..4)x[0..4)
        assert_eq!(a0.at(4, 2), 42.0); // face ghost below
        assert_eq!(a0.at(2, 4), 24.0); // face ghost right
        let a3 = &run.results[3]; // owns [4..8)x[4..8)
        assert_eq!(a3.at(3, 4), 34.0);
        assert_eq!(a3.at(4, 3), 43.0);
    }

    #[test]
    fn full_halo_matches_blocking_including_corners() {
        // The corner-completing split-phase exchange must reproduce the
        // blocking exchange bitwise on the whole storage box — faces,
        // edges and corners — so 9-point stencils can go split-phase.
        let run = Machine::run(cfg(4), |proc| {
            let g = ProcGrid::new_2d(2, 2);
            let spec = DistSpec::block2();
            let mut a =
                crate::DistArray2::from_fn(proc.rank(), &g, &spec, [8, 8], [1, 1], |[i, j]| {
                    (10 * i + j) as f64
                });
            let mut b = a.clone();
            a.refresh_ghosts(proc, None, ExecPolicy::blocking(), true);
            let pending = b.begin_ghosts(proc, None, ExecPolicy::pessimistic(), true);
            proc.compute(50.0);
            b.finish_ghosts(proc, None, pending);
            (a, b)
        });
        // Every global-valid cell of each storage box agrees.
        for (rank, (a, b)) in run.results.iter().enumerate() {
            for i in 0..8 {
                for j in 0..8 {
                    match (a.try_get([i, j]), b.try_get([i, j])) {
                        (Some(x), Some(y)) => {
                            assert_eq!(x.to_bits(), y.to_bits(), "rank {rank} ({i},{j})")
                        }
                        (None, None) => {}
                        other => panic!("rank {rank} ({i},{j}): visibility differs {other:?}"),
                    }
                }
            }
        }
        // The diagonal corner travelled: rank 0 sees (4,4) from rank 3.
        assert_eq!(run.results[0].1.at(4, 4), 44.0);
        assert_eq!(run.results[3].1.at(3, 3), 33.0);
        assert!(run.report.overlap_hidden_seconds > 0.0);
    }

    #[test]
    fn full_halo_on_3d_fills_edge_pencils() {
        // dist (*, block, block): the (y, z) edge ghosts are diagonal
        // traffic; the full halo must fetch them from the diagonal owner.
        let run = Machine::run(cfg(4), |proc| {
            let g = ProcGrid::new_2d(2, 2);
            let spec = DistSpec::local_block_block();
            let mut a = crate::DistArray3::from_fn(
                proc.rank(),
                &g,
                &spec,
                [4, 4, 4],
                [0, 1, 1],
                |[i, j, k]| (100 * i + 10 * j + k) as f64,
            );
            let pending = a.begin_ghosts(proc, None, ExecPolicy::pessimistic(), true);
            a.finish_ghosts(proc, None, pending);
            a
        });
        let a0 = &run.results[0]; // owns y in [0..2), z in [0..2), all of x
        assert_eq!(a0.at(3, 2, 1), 321.0); // y-face
        assert_eq!(a0.at(3, 1, 2), 312.0); // z-face
        assert_eq!(a0.at(2, 2, 2), 222.0); // diagonal edge pencil
    }

    #[test]
    fn halo_on_an_array_with_a_cyclic_unghosted_dim() {
        // dist (cyclic, block) with ghosts only along the block dim: the
        // cyclic dimension's storage is its owned index list, not an
        // interval, so the analytic schedule must enumerate owned
        // indices there — and both sides must agree on the order.
        let run = Machine::run(cfg(4), |proc| {
            let g = ProcGrid::new_2d(2, 2);
            let spec = DistSpec::new(vec![
                DimMap::Dist(DimDist::Cyclic),
                DimMap::Dist(DimDist::Block),
            ]);
            let mut a =
                crate::DistArray2::from_fn(proc.rank(), &g, &spec, [6, 8], [0, 1], |[i, j]| {
                    (10 * i + j) as f64
                });
            let mut b = a.clone();
            a.refresh_ghosts(proc, None, ExecPolicy::blocking(), true);
            let pending = b.begin_ghosts(proc, None, ExecPolicy::pessimistic(), false);
            b.finish_ghosts(proc, None, pending);
            (a, b)
        });
        for (rank, (a, b)) in run.results.iter().enumerate() {
            for i in 0..6 {
                for j in 0..8 {
                    assert_eq!(
                        a.try_get([i, j]),
                        b.try_get([i, j]),
                        "rank {rank} ({i},{j})"
                    );
                }
            }
        }
        // Rank 0 owns rows {0, 2, 4} and cols [0..4): its j-ghost at
        // (2, 4) must hold the value from the col-neighbour (rank 1).
        assert_eq!(run.results[0].1.try_get([2, 4]), Some(24.0));
    }

    #[test]
    fn ghosts_wider_than_a_block_fetch_from_the_true_owner() {
        // 8 elements over 4 procs with ghost width 2: each skirt spans
        // two neighbouring blocks, so the outer ghost layer's owner is
        // two hops away. The ownership-routed schedule fetches it
        // directly; a strip pipeline could not.
        let run = Machine::run(cfg(4), |proc| {
            let g = ProcGrid::new_1d(4);
            let spec = DistSpec::block1();
            let mut a =
                crate::DistArray1::from_fn(proc.rank(), &g, &spec, [8], [2], |[i]| i as f64);
            let pending = a.begin_ghosts(proc, None, ExecPolicy::pessimistic(), false);
            a.finish_ghosts(proc, None, pending);
            a
        });
        let a1 = &run.results[1]; // owns [2..4)
        assert_eq!(a1.at(0), 0.0, "outer low ghost from rank 0");
        assert_eq!(a1.at(1), 1.0);
        assert_eq!(a1.at(4), 4.0);
        assert_eq!(a1.at(5), 5.0, "outer high ghost from rank 3");
    }

    #[test]
    fn finish_on_a_snapshot_lands_ghosts_in_the_snapshot() {
        // The copy-in/copy-out pattern: begin on the live array, snapshot,
        // finish into the snapshot so the update reads fresh ghosts while
        // writing the live array.
        let run = Machine::run(cfg(2), |proc| {
            let g = ProcGrid::new_1d(2);
            let spec = DistSpec::block1();
            let mut a =
                crate::DistArray1::from_fn(proc.rank(), &g, &spec, [8], [1], |[i]| i as f64);
            let pending = a.begin_ghosts(proc, None, ExecPolicy::pessimistic(), false);
            let mut old = a.clone();
            // Mutate the live array before completing: the snapshot must
            // still receive the pre-mutation neighbour values.
            a.map_owned(|_, v| v + 100.0);
            old.finish_ghosts(proc, None, pending);
            old
        });
        assert_eq!(run.results[0].at(4), 4.0, "ghost from the right block");
        assert_eq!(run.results[1].at(3), 3.0, "ghost from the left block");
    }

    #[test]
    fn halo_traffic_is_deterministic() {
        let go = || {
            Machine::run(cfg(4), |proc| {
                let g = ProcGrid::new_2d(2, 2);
                let spec = DistSpec::block2();
                let mut a = crate::DistArray2::from_fn(
                    proc.rank(),
                    &g,
                    &spec,
                    [16, 16],
                    [1, 1],
                    |[i, j]| (i * j) as f64,
                );
                a.refresh_ghosts(proc, None, ExecPolicy::blocking(), true);
            })
        };
        let a = go();
        let b = go();
        assert_eq!(a.report.elapsed, b.report.elapsed);
        assert_eq!(a.report.total_words, b.report.total_words);
    }

    #[test]
    fn cached_halo_replays_warm_trips_from_the_cache() {
        // Same geometry, many trips: one analytic build per processor,
        // every later trip a piggybacked-vote replay with zero rollbacks
        // and bitwise-identical skirts.
        let trips = 5usize;
        let run = Machine::run(cfg(4), move |proc| {
            let g = ProcGrid::new_2d(2, 2);
            let spec = DistSpec::block2();
            let mut cache = HaloCache::new();
            let mut a =
                crate::DistArray2::from_fn(proc.rank(), &g, &spec, [8, 8], [1, 1], |[i, j]| {
                    (10 * i + j) as f64
                });
            let mut b = a.clone();
            for _ in 0..trips {
                a.refresh_ghosts(proc, None, ExecPolicy::blocking(), true);
                let pending = b.begin_exchange_ghosts_cached(proc, &mut cache, true);
                b.finish_exchange_ghosts_cached(proc, &mut cache, pending);
            }
            assert_eq!(a.data, b.data);
            (
                proc.stats().inspector_runs,
                proc.stats().optimistic_hits,
                proc.stats().rollbacks,
            )
        });
        for (builds, hits, rollbacks) in &run.results {
            // `a` rebuilds per trip; the cached `b` builds exactly once.
            assert_eq!(*builds, trips as u64 + 1);
            assert_eq!(*hits, trips as u64 - 1);
            assert_eq!(*rollbacks, 0);
        }
    }

    #[test]
    fn colliding_site_hashes_neither_cross_hit_nor_split_the_gate() {
        // Force two *distinct* halo shapes onto one site id — what an
        // fnv1a shape-hash collision would produce. The full key still
        // carries the real geometry, so the colliding shapes must never
        // serve each other's schedules; and since the gate and ordinal
        // stream are per (site, team) — not per key — a collision shares
        // them rather than splitting them, exactly like any other pair of
        // keys at one site.
        let team = vec![0usize, 1];
        let mk = |extents: Vec<usize>| HaloKey {
            site: 0xC011_1DED,
            team_ranks: team.clone(),
            extents,
            dists: vec![],
            ghost: vec![1, 1],
            corners: true,
            generation: 0,
        };
        let sched = |words: usize| CommSchedule {
            arrays: vec![ArraySchedule {
                name: "ghosts".into(),
                my_reqs: vec![vec![7; words], vec![]],
                incoming: vec![vec![], vec![]],
                origin: 0,
            }],
            write_hint: 0,
            boundary: vec![],
        };
        let mut cache = HaloCache::new();
        let small = mk(vec![16, 16]);
        let large = mk(vec![32, 32]);
        cache.cache.store(small.clone(), sched(1));
        // The gate is up for *both* shapes (same site, same team)...
        assert!(cache.cache.has_site_team(small.site(), small.team_ranks()));
        assert!(cache.cache.has_site_team(large.site(), large.team_ranks()));
        // ...but the colliding shape must not hit the other's schedule.
        assert!(cache.cache.lookup(&large).is_none());
        // Storing it joins the shared ordinal stream (seq 2, not a fresh
        // gate counting from 1), and each key keeps its own schedule.
        let (seq, _) = cache.cache.store(large.clone(), sched(2));
        assert_eq!(seq, 2);
        let (sa, a) = cache.cache.lookup(&small).unwrap();
        let (sb, b) = cache.cache.lookup(&large).unwrap();
        assert_eq!((sa, a.words_expected()), (1, 1));
        assert_eq!((sb, b.words_expected()), (2, 2));
    }

    #[test]
    fn halo_budget_bounds_entries_and_counts_evictions() {
        // Shape-diverse trips through a budgeted cache: the entry count
        // stays at the budget and the overflow shows up in the eviction
        // counter (drained into ProcStats at the store sites).
        let shapes = 6usize;
        let budget = 3usize;
        let run = Machine::run(cfg(2), move |proc| {
            let g = ProcGrid::new_1d(2);
            let spec = DistSpec::block1();
            let mut cache = HaloCache::with_budget(budget);
            for s in 0..shapes {
                let mut a =
                    crate::DistArray1::from_fn(proc.rank(), &g, &spec, [8 + 2 * s], [1], |[i]| {
                        i as f64
                    });
                a.exchange_ghosts_cached(proc, &mut cache, true);
            }
            assert_eq!(cache.len(), budget);
            assert_eq!(cache.budget(), Some(budget));
            proc.stats().schedule_evictions
        });
        for evictions in &run.results {
            assert_eq!(*evictions, (shapes - budget) as u64);
        }
        assert_eq!(
            run.report.total_schedule_evictions,
            2 * (shapes - budget) as u64
        );
    }

    #[test]
    fn cached_halo_rolls_back_after_a_redistribution() {
        // A redistribution bumps the generation under an unchanged static
        // shape: the gated vote must miss, roll back exactly once,
        // rebuild, and then replay warm again — with the
        // post-redistribution skirt equal to an uncached exchange.
        let run = Machine::run(cfg(4), |proc| {
            let g = ProcGrid::new_1d(4);
            let spec = DistSpec::block_local();
            let mut cache = HaloCache::new();
            let mut a =
                crate::DistArray2::from_fn(proc.rank(), &g, &spec, [8, 8], [1, 0], |[i, j]| {
                    (10 * i + j) as f64
                });
            for _ in 0..2 {
                a.exchange_ghosts_cached(proc, &mut cache, true);
            }
            // Structurally identical layout, but the generation bump must
            // invalidate the cached route all the same.
            let mut a = a.redistribute(proc, &spec, [1, 0]);
            for _ in 0..2 {
                a.exchange_ghosts_cached(proc, &mut cache, true);
            }
            let mut b = a.clone();
            b.refresh_ghosts(proc, None, ExecPolicy::blocking(), true);
            assert_eq!(a.data, b.data);
            (
                proc.stats().inspector_runs,
                proc.stats().optimistic_hits,
                proc.stats().rollbacks,
            )
        });
        for (builds, hits, rollbacks) in &run.results {
            // Two cold builds (one per generation) plus b's uncached
            // exchange; the redistribution costs exactly one rollback
            // (same site, so the vote gate stays up and disagrees once).
            assert_eq!(*builds, 3);
            assert_eq!(*hits, 2);
            assert_eq!(*rollbacks, 1);
        }
    }
}
