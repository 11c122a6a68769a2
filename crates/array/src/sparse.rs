//! Distributed sparse matrices — the irregular-gather workload the
//! inspector–executor engine was built for, routed *entirely* through
//! `kali-sched` like the ghost halo: this module holds the gather's
//! **key** ([`GatherKey`]), **builder** (the inspector below) and
//! **world** (`x`'s storage in, a trip-private haul out), and
//! [`SparseCsr::begin_gather`] / [`SparseCsr::finish_gather`] hand them
//! to the one trip driver ([`kali_sched::Trip`]), which owns the
//! protocol the next paragraphs describe.
//!
//! A [`SparseCsr`] stores the owned rows of a block-row-distributed CSR
//! matrix. An SpMV `y = A·x` against a conformally block-distributed `x`
//! needs, on each processor, the x-values of every *non-owned* column its
//! rows reference — an index set that cannot be derived analytically the
//! way the halo's ghost skirt can, because it depends on the runtime
//! sparsity pattern. So the classic inspector runs instead:
//!
//! * **Cold trip**: walk the local column index set, bucket the non-owned
//!   columns per owning peer into sorted, deduplicated request vectors,
//!   and run the executor's split-phase *request round*
//!   ([`ScheduleExecutor::request_round`]) so every peer learns which of
//!   its x-values to serve. The resulting [`CommSchedule`] also records
//!   the *boundary rows* — those reading at least one remote column — so
//!   a split-phase executor can compute every other row while the values
//!   are in flight. The walk and the request round are charged to the
//!   virtual clock as inspection time, and the schedule is stored in
//!   `kali-sched`'s [`ScheduleCache`] keyed on (shape, teams, dists,
//!   `x`'s ghost width, a sparsity fingerprint, and both distribution
//!   generations). What a peer requests is named by its offset in `x`'s
//!   storage, decoded once here, so a replay serves by indexing.
//! * **Warm trip**: replay the cached schedule optimistically, the replay
//!   consensus vote riding as a one-word header on the fused value
//!   messages — zero inspector runs, zero request rounds. A CG solve does
//!   one SpMV per iteration against a fixed pattern, so every iteration
//!   after the first is a warm replay.
//! * **Repartition**: a [`SparseCsr::distribute`] (or a redistribution of
//!   `x`) bumps a monotone generation, the next lookup misses, the vote
//!   disagrees, and the trip rolls back to one fresh inspection — stale
//!   routes never reach storage.
//!
//! Unlike the halo — whose value traffic is gated to the *active team* —
//! the gather votes over the **full grid team**: with a runtime sparsity
//! pattern, a rank owning no matrix rows may still own x-elements other
//! ranks need (and vice versa), so no communication-free participation
//! test exists. Every grid member therefore serves, votes, and keeps the
//! collective cache discipline; empty members move only bare one-word
//! headers.
//!
//! Gathered values land in a [`GatherHaul`] — a contiguous, binary-
//! searchable (column → value) bundle private to the trip — never in
//! `x`'s storage, so concurrent gathers against the same `x` cannot
//! trample each other and `x` needs no ghost allocation.
//!
//! The row arithmetic ([`SparseCsr::apply_rows`], the one row body)
//! runs over the owned slices of `x` and `y`: an owner-local column is
//! resolved by one subtraction and a bounds compare into `x`'s slice,
//! and only the remote columns — which occur in boundary rows alone —
//! search the haul.

use std::convert::Infallible;
use std::ops::Range;
use std::rc::Rc;

use kali_grid::{Dist1, ProcGrid};
use kali_machine::{tag, Proc, Real, NS_ARRAY};
use kali_sched::{
    ArraySchedule, CommSchedule, ExecPolicy, InFlight, ScheduleCache, ScheduleExecutor,
    ScheduleWorld, SiteKey, Trip,
};

use crate::arrays::DistArray1;
use crate::halo::{fnv1a, CACHED_BLOCKING};

/// Tag of the fused gather value messages ("GAT").
const GATHER_VALUE_TAG: u64 = tag(NS_ARRAY, 0x0047_4154);

/// Tag of the cold inspection's request round ("GRQ").
const GATHER_REQUEST_TAG: u64 = tag(NS_ARRAY, 0x0047_5251);

/// The gather's instance of the shared schedule executor.
const EXEC: ScheduleExecutor = ScheduleExecutor::new(GATHER_VALUE_TAG);

/// Site-hash salt ("SPMV") keeping gather sites disjoint from halo sites.
const GATHER_SITE_SALT: u64 = 0x5350_4d56;

/// The owned rows of a sparse matrix in CSR form, rows block-distributed
/// over a 1-D processor grid (the matrix analogue of a block
/// [`DistArray1`]), generic over the element type like the dense arrays.
///
/// Only the owned rows are materialized: `row_ptr` has one entry per
/// owned row plus one, and `col_idx`/`vals` hold their nonzeros with
/// *global* column indices. The distribution carries a monotone
/// `generation` like [`crate::DistArrayN`], so cached gather schedules
/// keyed on it roll back — exactly once — after a [`SparseCsr::distribute`].
pub struct SparseCsr<T: Real> {
    nrows: usize,
    ncols: usize,
    grid: ProcGrid,
    rank: usize,
    /// My grid coordinate along the (single) distributed dimension;
    /// `None` when this rank is not a grid member.
    q: Option<usize>,
    row_dist: Dist1,
    /// Global index of my first owned row (0 when owning nothing).
    row_lo: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<T>,
    /// FNV-1a over the `row_ptr`/`col_idx` stream, taken once where the
    /// pattern is set ([`SparseCsr::from_rows`]) — nothing afterwards can
    /// change it — so a gather key costs no pass over the indices.
    fingerprint: u64,
    /// The grid team's ranks, listed once here and shared into every
    /// gather key, so a warm key is plain field copies.
    team_ranks: Rc<[usize]>,
    generation: u64,
}

impl<T: Real> SparseCsr<T> {
    /// Build the owned block of an `nrows × ncols` matrix on a 1-D grid:
    /// `row` is called once per *owned* global row and returns its
    /// `(column, value)` entries in any order (they are sorted; duplicate
    /// columns are rejected). Every rank evaluates only its own rows, so
    /// construction is owner-computes like [`DistArrayN::from_fn`].
    ///
    /// [`DistArrayN::from_fn`]: crate::DistArrayN::from_fn
    pub fn from_rows(
        rank: usize,
        grid: &ProcGrid,
        nrows: usize,
        ncols: usize,
        mut row: impl FnMut(usize) -> Vec<(usize, T)>,
    ) -> Self {
        assert_eq!(grid.ndims(), 1, "sparse rows distribute over a 1-D grid");
        let row_dist = Dist1::block(nrows, grid.size());
        let q = grid.coords_of(rank).map(|c| c[0]);
        let (row_lo, nlocal) = match q {
            Some(qd) => (row_dist.lower(qd).unwrap_or(0), row_dist.local_len(qd)),
            None => (0, 0),
        };
        let mut row_ptr = Vec::with_capacity(nlocal + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for li in 0..nlocal {
            let mut entries = row(row_lo + li);
            entries.sort_by_key(|&(c, _)| c);
            for w in entries.windows(2) {
                assert_ne!(w[0].0, w[1].0, "duplicate column in sparse row");
            }
            for (c, v) in entries {
                assert!(c < ncols, "column {c} outside 0..{ncols}");
                col_idx.push(c);
                vals.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        let fingerprint = fnv1a(
            row_ptr
                .iter()
                .map(|&v| v as u64)
                .chain(col_idx.iter().map(|&c| c as u64)),
        );
        SparseCsr {
            nrows,
            ncols,
            grid: grid.clone(),
            rank,
            q,
            row_dist,
            row_lo,
            row_ptr,
            col_idx,
            vals,
            fingerprint,
            team_ranks: grid.ranks().into(),
            generation: 0,
        }
    }

    /// Global row count.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Global column count (the length `x` must have).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of rows this processor owns.
    pub fn local_rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Nonzeros stored on this processor.
    pub fn local_nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The block distribution of the rows.
    pub fn row_dist(&self) -> Dist1 {
        self.row_dist
    }

    /// The owning grid.
    pub fn grid(&self) -> &ProcGrid {
        &self.grid
    }

    /// The machine rank this local block belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Is this rank a member of the owning grid?
    pub fn in_grid(&self) -> bool {
        self.q.is_some()
    }

    /// Monotone distribution generation (see [`SparseCsr::distribute`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Re-elaborate the distribution at run time — the paper's one-line
    /// tuning change. Block rows over the full grid is the one layout
    /// today, so no data moves; the generation bump alone invalidates
    /// every cached gather schedule keyed on it, and the next SpMV pays
    /// exactly one rollback and one fresh inspection before going warm
    /// again (pinned by tests). The re-blessing walk is charged like a
    /// dense redistribution's bookkeeping.
    pub fn distribute(&mut self, proc: &mut Proc) {
        self.row_dist = Dist1::block(self.nrows, self.grid.size());
        self.generation += 1;
        proc.memop(self.local_rows() as f64);
    }
}

impl SiteKey for GatherKey {
    fn site(&self) -> usize {
        self.site
    }
    fn team_ranks(&self) -> &[usize] {
        &self.team_ranks
    }
}

/// Cache key of an inspected gather schedule. The *site* hashes only the
/// SPMD-uniform shape `(nrows, ncols)` — never the local sparsity, which
/// differs per rank — so the per-site vote gate opens and closes
/// identically on every member. The full key adds the index maps, a
/// fingerprint of the local sparsity pattern, and both distribution
/// generations, so a repartition (of the matrix *or* of `x`) or a
/// different pattern at the same shape makes the lookup miss and the
/// piggybacked vote roll back instead of replaying a stale route.
#[derive(Clone, PartialEq)]
pub struct GatherKey {
    site: usize,
    team_ranks: Rc<[usize]>,
    shape: [usize; 2],
    row_dist: Dist1,
    x_dist: Dist1,
    /// `x`'s ghost width: with `x_dist` it fixes the storage offset at
    /// which each served x-value sits.
    x_ghost: usize,
    /// FNV-1a over the local `row_ptr`/`col_idx` stream.
    fingerprint: u64,
    mat_generation: u64,
    x_generation: u64,
}

/// Cached gather schedules, shared by every sparse matrix a context
/// drives. One instance lives in `kali-runtime`'s `Ctx` beside the halo
/// cache; distinct patterns at the same shape share a site (the
/// colliding-site regime the optimistic protocol tolerates by voting).
pub struct GatherCache {
    pub(crate) cache: ScheduleCache<GatherKey>,
}

impl GatherCache {
    /// Default per-site budget, matching the halo cache.
    pub fn new() -> Self {
        GatherCache {
            cache: ScheduleCache::new(4),
        }
    }
}

impl Default for GatherCache {
    fn default() -> Self {
        GatherCache::new()
    }
}

/// The remote x-values one gather trip brought in: parallel sorted
/// columns and values, resolved by binary search — which only the
/// remote columns of boundary rows pay; owner-local columns index `x`'s
/// owned slice directly ([`SparseCsr::apply_rows`]). Private to the trip:
/// the executor scatters into this bundle, never into `x`'s storage.
pub struct GatherHaul<T> {
    cols: Vec<u64>,
    vals: Vec<T>,
}

impl<T: Real> GatherHaul<T> {
    fn with_capacity(n: usize) -> Self {
        GatherHaul {
            cols: Vec::with_capacity(n),
            vals: Vec::with_capacity(n),
        }
    }

    /// The gathered value of global column `c`, if `c` was fetched.
    pub fn get(&self, c: usize) -> Option<T> {
        self.cols
            .binary_search(&(c as u64))
            .ok()
            .map(|p| self.vals[p])
    }

    /// Number of gathered values.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Did this trip fetch nothing?
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

/// The executor's view of one gather trip: serves owned x-values by
/// storage offset, scatters received values into the trip's haul. The
/// haul's columns are the schedule's request vectors, which the scatter
/// delivers in team order; block x-distribution makes those vectors
/// disjoint and ascending in that order — so *appending* them (see
/// [`SparseCsr::finish_gather`]) leaves the haul sorted.
struct GatherWorld<'a, T: Real> {
    x: &'a DistArray1<T>,
    haul: GatherHaul<T>,
}

impl<T: Real> ScheduleWorld<T> for GatherWorld<'_, T> {
    fn load(&self, _array: usize, flat: u64) -> T {
        self.x.data[flat as usize]
    }

    fn store(&mut self, _array: usize, _flat: u64, value: T) {
        self.haul.vals.push(value);
    }
}

/// A completed gather: the schedule that produced it (for the
/// interior/boundary row split) plus the haul of remote values.
pub struct Gathered<T> {
    sched: Rc<CommSchedule>,
    haul: GatherHaul<T>,
}

impl<T: Real> Gathered<T> {
    fn idle() -> Self {
        Gathered {
            sched: Rc::new(CommSchedule {
                arrays: Vec::new(),
                write_hint: 0,
                boundary: Vec::new(),
            }),
            haul: GatherHaul::with_capacity(0),
        }
    }

    /// Ascending local positions of the rows that read at least one
    /// remote column.
    pub fn boundary(&self) -> &[usize] {
        &self.sched.boundary
    }

    /// The gathered remote values.
    pub fn haul(&self) -> &GatherHaul<T> {
        &self.haul
    }
}

/// A begun gather, created by [`SparseCsr::begin_gather`]; complete it
/// with [`SparseCsr::finish_gather`].
#[must_use = "a begun gather must be finished"]
pub struct PendingGather<T: Real> {
    /// `None` off the owning grid: such a rank takes no part at all.
    flight: Option<InFlight<T, GatherKey>>,
}

impl<T: Real> PendingGather<T> {
    /// The schedule whose interior rows the caller may compute while the
    /// gather is in flight (see [`InFlight::interior_schedule`]): present
    /// on a split-phase trip whose schedule is locally known — a fresh
    /// build, or a cache hit. Interior rows read only owner-local
    /// x-values. `None` means: compute every row after the finish.
    pub fn local_schedule(&self) -> Option<Rc<CommSchedule>> {
        self.flight.as_ref()?.interior_schedule()
    }
}

/// Packed words a replay of `sched` delivers to this processor — what the
/// executor charges to `exchange_words`, re-attributed to `gather_words`
/// by the consumer so sparse gather volume stays separable from halo
/// volume.
fn gather_words_of<T: Real>(sched: &CommSchedule) -> u64 {
    sched.arrays[0]
        .my_reqs
        .iter()
        .map(|v| T::slice_words(v.len()) as u64)
        .sum()
}

impl<T: Real> SparseCsr<T> {
    fn check_conformal(&self, x: &DistArray1<T>) {
        assert_eq!(x.extents()[0], self.ncols, "x length must equal ncols");
        assert_eq!(
            x.grid().ranks(),
            self.grid.ranks(),
            "x must distribute over the matrix's grid"
        );
    }

    /// The cache key of this matrix's gather against `x`.
    fn gather_key(&self, x: &DistArray1<T>) -> GatherKey {
        let site = fnv1a([GATHER_SITE_SALT, self.nrows as u64, self.ncols as u64]) as usize;
        GatherKey {
            site,
            team_ranks: self.team_ranks.clone(),
            shape: [self.nrows, self.ncols],
            row_dist: self.row_dist,
            x_dist: x.dist(0),
            x_ghost: x.ghosts()[0],
            fingerprint: self.fingerprint,
            mat_generation: self.generation,
            x_generation: x.generation(),
        }
    }

    /// The inspector: walk the local column index set, bucket non-owned
    /// columns per owning peer (sorted, deduplicated), record the
    /// boundary rows, and run the request round so every peer learns
    /// which x-values to serve. The walk and the request round are
    /// charged to the virtual clock, which the driver counts as
    /// inspection.
    fn build_gather_schedule(
        &self,
        proc: &mut Proc,
        x: &DistArray1<T>,
    ) -> Result<CommSchedule, Infallible> {
        let team = self.grid.team();
        let q = team.len();
        let xd = x.dist(0);
        // Team position of each grid coordinate (identical on 1-D grids,
        // but derived, not assumed).
        let pos: Vec<usize> = (0..q)
            .map(|c| {
                team.index_of(self.grid.rank_at(&[c]))
                    .expect("every grid member belongs to the grid team")
            })
            .collect();
        let myq = self.q.expect("inspection runs on grid members only");
        let mut my_reqs: Vec<Vec<u64>> = vec![Vec::new(); q];
        let mut boundary = Vec::new();
        for li in 0..self.local_rows() {
            let mut remote = false;
            for k in self.row_ptr[li]..self.row_ptr[li + 1] {
                let c = self.col_idx[k];
                let oq = xd.owner(c);
                if oq != myq {
                    my_reqs[pos[oq]].push(c as u64);
                    remote = true;
                }
            }
            if remote {
                boundary.push(li);
            }
        }
        for reqs in &mut my_reqs {
            reqs.sort_unstable();
            reqs.dedup();
        }
        proc.memop(self.local_nnz() as f64);
        let mut incoming =
            ScheduleExecutor::request_round(GATHER_REQUEST_TAG, proc, &team, &my_reqs);
        // Serve by storage offset: each requested column is decoded once,
        // here, and never on a replay.
        for c in incoming.iter_mut().flatten() {
            let s = x.storage_index([*c as usize]);
            *c = s.expect("gather schedule serves owned x-values only") as u64;
        }
        Ok(CommSchedule {
            arrays: vec![ArraySchedule {
                name: "x".into(),
                my_reqs,
                incoming,
                origin: 0,
            }],
            write_hint: 0,
            boundary,
        })
    }

    /// Begin an x-gather — the sparse (key, builder, world) triple
    /// handed to `kali-sched`'s trip driver. With a `cache` and an
    /// optimistic `policy`, warm trips replay the cached schedule — no
    /// inspection, no request round; otherwise every trip inspects.
    /// Under a split `policy` the fused value messages are in flight
    /// when this returns, so interior rows can run meanwhile
    /// ([`PendingGather::local_schedule`]). Every grid member votes and
    /// serves (see the module docs); other ranks get an inert handle.
    pub fn begin_gather(
        &self,
        proc: &mut Proc,
        cache: Option<&mut GatherCache>,
        policy: ExecPolicy,
        x: &DistArray1<T>,
    ) -> PendingGather<T> {
        let flight = self.in_grid().then(|| {
            self.check_conformal(x);
            let trip = Trip {
                exec: EXEC,
                policy,
                team: self.grid.team(),
                sits_out: false,
                key: cache.is_some().then(|| self.gather_key(x)),
            };
            let world = GatherWorld {
                x,
                haul: GatherHaul::with_capacity(0),
            };
            let cache = cache.map(|c| &mut c.cache);
            let build = |proc: &mut Proc, _: &_| self.build_gather_schedule(proc, x);
            let Ok(flight) = trip.begin(proc, cache, &world, build);
            flight
        });
        PendingGather { flight }
    }

    /// Complete a begun gather; `cache` must be the one it was begun
    /// with. On a lost vote (e.g. a `distribute` bumped a generation
    /// under a still-gated site) the stale payloads are discarded and
    /// the whole gather re-runs from a fresh inspection — so the returned
    /// haul always reflects `x`'s current values under the current
    /// distributions.
    pub fn finish_gather(
        &self,
        proc: &mut Proc,
        cache: Option<&mut GatherCache>,
        x: &DistArray1<T>,
        pending: PendingGather<T>,
    ) -> Gathered<T> {
        let Some(flight) = pending.flight else {
            return Gathered::idle();
        };
        // One allocation per trip: the haul holds what the schedule fetches.
        let words = flight.schedule().map_or(0, CommSchedule::words_expected);
        let mut world = GatherWorld {
            x,
            haul: GatherHaul::with_capacity(words),
        };
        let cache = cache.map(|c| &mut c.cache);
        let build = |proc: &mut Proc, _: &_| self.build_gather_schedule(proc, x);
        let Ok(sched) = flight.complete(proc, cache, &mut world, build);
        // The haul's columns are the request vectors, in the order the
        // executor scattered their values.
        let mut haul = world.haul;
        for reqs in &sched.arrays[0].my_reqs {
            haul.cols.extend_from_slice(reqs);
        }
        debug_assert_eq!(haul.cols.len(), haul.vals.len());
        debug_assert!(haul.cols.windows(2).all(|w| w[0] < w[1]));
        proc.note_gather_words(gather_words_of::<T>(&sched));
        Gathered { sched, haul }
    }

    /// Begin and finish back to back through `cache`, blocking, the
    /// replay vote carried on the fused value round.
    pub fn gather_x_cached(
        &self,
        proc: &mut Proc,
        cache: &mut GatherCache,
        x: &DistArray1<T>,
    ) -> Gathered<T> {
        let pending = self.begin_gather(proc, Some(cache), CACHED_BLOCKING, x);
        self.finish_gather(proc, Some(cache), x, pending)
    }

    /// [`SparseCsr::begin_gather`] through `cache` under the default
    /// (split-phase, optimistic) policy.
    pub fn begin_gather_x_cached(
        &self,
        proc: &mut Proc,
        cache: &mut GatherCache,
        x: &DistArray1<T>,
    ) -> PendingGather<T> {
        self.begin_gather(proc, Some(cache), ExecPolicy::default(), x)
    }

    /// [`SparseCsr::finish_gather`] through `cache`.
    pub fn finish_gather_x_cached(
        &self,
        proc: &mut Proc,
        cache: &mut GatherCache,
        x: &DistArray1<T>,
        pending: PendingGather<T>,
    ) -> Gathered<T> {
        self.finish_gather(proc, Some(cache), x, pending)
    }

    /// The one SpMV row body: `y(i) = Σ_j A(i,j)·x(j)` for the owned rows
    /// at local positions `rows`, ascending columns, zero-initialised
    /// accumulator. Conformity is checked once per call — `y` shares the
    /// row distribution, `x` owns one contiguous range — and the row loop
    /// then runs over the owned slices of both: an owner-local column is
    /// one subtraction and a bounds compare into `x`'s slice, and only a
    /// remote column (boundary rows alone have any) searches the `haul`.
    /// Interior rows therefore run with `haul = None` while a gather is
    /// still in flight; a boundary row run that way panics. Returns the
    /// number of nonzeros visited (2 flops each; the caller charges the
    /// clock, mirroring the stencil plan's drive).
    pub fn apply_rows(
        &self,
        x: &DistArray1<T>,
        haul: Option<&GatherHaul<T>>,
        y: &mut DistArray1<T>,
        rows: Range<usize>,
    ) -> usize {
        assert!(
            y.dist(0) == self.row_dist
                && y.owned_range(0) == (self.row_lo..self.row_lo + self.local_rows()),
            "y must share the row distribution"
        );
        assert!(x.dist(0).is_contiguous(), "x must be block-distributed");
        let (xs, x_lo) = (x.owned(), x.lower(0));
        let ys = &mut y.owned_mut()[rows.clone()];
        let ptr = &self.row_ptr[rows.start..rows.end + 1];
        for (yi, w) in ys.iter_mut().zip(ptr.windows(2)) {
            let mut sum = T::zero();
            for (&c, &v) in self.col_idx[w[0]..w[1]].iter().zip(&self.vals[w[0]..w[1]]) {
                // Columns below `x_lo` wrap to huge offsets: one compare
                // decides ownership on both sides.
                let o = c.wrapping_sub(x_lo);
                let xv = if o < xs.len() {
                    xs[o]
                } else {
                    haul.and_then(|h| h.get(c))
                        .expect("remote column must have been gathered")
                };
                sum = sum + v * xv;
            }
            *yi = sum;
        }
        ptr[ptr.len() - 1] - ptr[0]
    }

    /// [`SparseCsr::apply_rows`] over the given ascending local
    /// `positions` — a trip's boundary list, say — one call per maximal
    /// run of consecutive positions.
    pub fn apply_positions(
        &self,
        x: &DistArray1<T>,
        haul: Option<&GatherHaul<T>>,
        y: &mut DistArray1<T>,
        positions: &[usize],
    ) -> usize {
        positions
            .chunk_by(|&a, &b| a + 1 == b)
            .map(|run| self.apply_rows(x, haul, y, run[0]..run[run.len() - 1] + 1))
            .sum()
    }

    /// [`SparseCsr::apply_rows`] over every owned row.
    pub fn apply_all(
        &self,
        x: &DistArray1<T>,
        haul: Option<&GatherHaul<T>>,
        y: &mut DistArray1<T>,
    ) -> usize {
        self.apply_rows(x, haul, y, 0..self.local_rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kali_grid::{DistSpec, ProcGrid};
    use kali_machine::{CostModel, Machine, MachineConfig};
    use kali_sched::interior_positions;
    use std::time::Duration;

    fn cfg(p: usize) -> MachineConfig {
        MachineConfig::new(p)
            .with_cost(CostModel::unit())
            .with_watchdog(Duration::from_secs(10))
    }

    /// A banded test matrix: row i holds columns {i-2, i, i+2} (clipped),
    /// with deterministic values. The ±2 band crosses every block
    /// boundary on 4 procs, fetching an *even* number of columns (two)
    /// from each neighbour — so the f32 wire-halving assertion below is
    /// exact even under `slice_words`' odd-length rounding.
    fn band_row<T: Real>(n: usize) -> impl FnMut(usize) -> Vec<(usize, T)> {
        move |i| {
            [i.checked_sub(2), Some(i), (i + 2 < n).then_some(i + 2)]
                .into_iter()
                .flatten()
                .map(|c| (c, T::from_f64(((i * 7 + c * 3) % 11) as f64 + 1.0)))
                .collect()
        }
    }

    fn dense_spmv(n: usize, x: &[f64]) -> Vec<f64> {
        let mut row = band_row::<f64>(n);
        (0..n)
            .map(|i| row(i).into_iter().map(|(c, v)| v * x[c]).sum())
            .collect()
    }

    fn mk_x<T: Real>(proc_rank: usize, g: &ProcGrid, n: usize) -> DistArray1<T> {
        DistArray1::from_fn(proc_rank, g, &DistSpec::block1(), [n], [0], |[i]| {
            T::from_f64((i % 13) as f64 * 0.5 + 1.0)
        })
    }

    #[test]
    fn uncached_gather_spmv_matches_dense_reference() {
        let n = 19;
        let run = Machine::run(cfg(4), |proc| {
            let g = ProcGrid::new_1d(4);
            let a = SparseCsr::from_rows(proc.rank(), &g, n, n, band_row::<f64>(n));
            let x = mk_x::<f64>(proc.rank(), &g, n);
            let mut y =
                DistArray1::from_fn(proc.rank(), &g, &DistSpec::block1(), [n], [0], |_| 0.0);
            let pending = a.begin_gather(proc, None, ExecPolicy::blocking(), &x);
            let got = a.finish_gather(proc, None, &x, pending);
            a.apply_all(&x, Some(got.haul()), &mut y);
            y.gather_to_root(proc)
        });
        let xs: Vec<f64> = (0..n).map(|i| (i % 13) as f64 * 0.5 + 1.0).collect();
        let want = dense_spmv(n, &xs);
        assert_eq!(run.results[0].as_ref().unwrap(), &want);
        assert_eq!(run.report.total_inspector_runs, 4);
        assert!(run.report.total_gather_words > 0);
        assert!(run.report.total_gather_words <= run.report.total_exchange_words);
    }

    #[test]
    fn cached_gather_replays_warm_trips() {
        let n = 19;
        let trips = 4u64;
        let run = Machine::run(cfg(4), |proc| {
            let g = ProcGrid::new_1d(4);
            let a = SparseCsr::from_rows(proc.rank(), &g, n, n, band_row::<f64>(n));
            let x = mk_x::<f64>(proc.rank(), &g, n);
            let mut cache = GatherCache::new();
            let mut hauls = Vec::new();
            for _ in 0..trips {
                let got = a.gather_x_cached(proc, &mut cache, &x);
                hauls.push(got.haul().len());
            }
            hauls
        });
        // All trips fetch the same columns; one inspection per proc.
        for h in &run.results {
            assert!(h.windows(2).all(|w| w[0] == w[1]));
        }
        assert_eq!(run.report.total_inspector_runs, 4);
        assert_eq!(run.report.total_optimistic_hits, 4 * (trips - 1));
        assert_eq!(run.report.total_rollbacks, 0);
    }

    #[test]
    fn x_layouts_differing_only_in_ghost_width_keep_their_own_schedules() {
        // A schedule serves x by storage offset, and a ghost layer shifts
        // every offset: one cache must not replay one layout's route for
        // the other.
        let n = 19;
        let run = Machine::run(cfg(4), |proc| {
            let g = ProcGrid::new_1d(4);
            let a = SparseCsr::from_rows(proc.rank(), &g, n, n, band_row::<f64>(n));
            let mut cache = GatherCache::new();
            let mut ys = Vec::new();
            for ghost in [0, 1, 0, 1] {
                let x = DistArray1::from_fn(
                    proc.rank(),
                    &g,
                    &DistSpec::block1(),
                    [n],
                    [ghost],
                    |[i]| (i % 13) as f64 * 0.5 + 1.0,
                );
                let mut y = x.with_extents([n]);
                let got = a.gather_x_cached(proc, &mut cache, &x);
                a.apply_all(&x, Some(got.haul()), &mut y);
                ys.push(y.gather_to_root(proc));
            }
            ys
        });
        let xs: Vec<f64> = (0..n).map(|i| (i % 13) as f64 * 0.5 + 1.0).collect();
        let want = dense_spmv(n, &xs);
        for y in &run.results[0] {
            assert_eq!(y.as_ref().unwrap(), &want);
        }
        // One inspection per layout, then a replay of each.
        assert_eq!(run.report.total_inspector_runs, 2 * 4);
        assert_eq!(run.report.total_optimistic_hits, 2 * 4);
    }

    #[test]
    fn distribute_mid_stream_costs_exactly_one_rollback() {
        let n = 19;
        let run = Machine::run(cfg(4), |proc| {
            let g = ProcGrid::new_1d(4);
            let mut a = SparseCsr::from_rows(proc.rank(), &g, n, n, band_row::<f64>(n));
            let x = mk_x::<f64>(proc.rank(), &g, n);
            let mut cache = GatherCache::new();
            let _ = a.gather_x_cached(proc, &mut cache, &x);
            let _ = a.gather_x_cached(proc, &mut cache, &x);
            a.distribute(proc);
            let _ = a.gather_x_cached(proc, &mut cache, &x);
            let _ = a.gather_x_cached(proc, &mut cache, &x);
        });
        assert_eq!(run.report.total_inspector_runs, 2 * 4);
        assert_eq!(run.report.total_rollbacks, 4);
        assert_eq!(run.report.total_optimistic_hits, 2 * 4);
    }

    #[test]
    fn split_phase_interior_then_boundary_matches_blocking() {
        let n = 23;
        let run = Machine::run(cfg(4), |proc| {
            let g = ProcGrid::new_1d(4);
            let a = SparseCsr::from_rows(proc.rank(), &g, n, n, band_row::<f64>(n));
            let x = mk_x::<f64>(proc.rank(), &g, n);
            let mk_y = |proc: &mut kali_machine::Proc| {
                DistArray1::from_fn(proc.rank(), &g, &DistSpec::block1(), [n], [0], |_| 0.0)
            };
            let mut cache = GatherCache::new();

            // Blocking baseline.
            let mut y_blk = mk_y(proc);
            let got = a.gather_x_cached(proc, &mut cache, &x);
            a.apply_all(&x, Some(got.haul()), &mut y_blk);

            // Warm split-phase trip: interior while in flight, boundary
            // after completion.
            let pending = a.begin_gather_x_cached(proc, &mut cache, &x);
            let sched = pending.local_schedule().expect("warm trip hits locally");
            let interior = interior_positions(&sched.boundary, a.local_rows());
            let mut y_spl = mk_y(proc);
            a.apply_positions(&x, None, &mut y_spl, &interior);
            let got = a.finish_gather_x_cached(proc, &mut cache, &x, pending);
            a.apply_positions(&x, Some(got.haul()), &mut y_spl, got.boundary());

            let blk = y_blk.gather_to_root(proc);
            let spl = y_spl.gather_to_root(proc);
            (blk, spl)
        });
        let (blk, spl) = &run.results[0];
        assert_eq!(blk.as_ref().unwrap(), spl.as_ref().unwrap());
        // One inspection (first trip); the split trip replayed.
        assert_eq!(run.report.total_inspector_runs, 4);
        assert_eq!(run.report.total_rollbacks, 0);
        assert_eq!(run.report.total_optimistic_hits, 4);
    }

    #[test]
    fn f32_gather_moves_half_the_words_of_f64() {
        fn words<T: Real>() -> (u64, u64) {
            let n = 20;
            let run = Machine::run(cfg(4), |proc| {
                let g = ProcGrid::new_1d(4);
                let a = SparseCsr::from_rows(proc.rank(), &g, n, n, band_row::<T>(n));
                let x = mk_x::<T>(proc.rank(), &g, n);
                let pending = a.begin_gather(proc, None, ExecPolicy::blocking(), &x);
                let _ = a.finish_gather(proc, None, &x, pending);
            });
            (
                run.report.total_gather_words,
                run.report.total_exchange_words,
            )
        }
        let (g64, e64) = words::<f64>();
        let (g32, e32) = words::<f32>();
        assert!(g64 > 0);
        assert_eq!(e64, g64);
        assert_eq!(e32, g32);
        assert_eq!(g64, 2 * g32);
    }

    /// Rank 1 of 4 under the ±2 band: its first and last two rows read
    /// columns a neighbour owns.
    fn rank1_of_4(n: usize) -> (SparseCsr<f64>, DistArray1<f64>) {
        let g = ProcGrid::new_1d(4);
        let a = SparseCsr::from_rows(1, &g, n, n, band_row::<f64>(n));
        (a, mk_x::<f64>(1, &g, n))
    }

    /// Interior rows may run before the haul exists; a boundary row may
    /// not — in release builds too.
    #[test]
    #[should_panic(expected = "remote column must have been gathered")]
    fn boundary_row_without_its_haul_panics() {
        let (a, x) = rank1_of_4(19);
        let mut y = x.like();
        assert_eq!(a.apply_rows(&x, None, &mut y, 2..a.local_rows() - 2), 3);
        a.apply_rows(&x, None, &mut y, 0..1);
    }

    /// One conformity check per call stands where `put` checked every
    /// row: a `y` over other rows must not be written.
    #[test]
    #[should_panic(expected = "y must share the row distribution")]
    fn y_off_the_row_distribution_panics() {
        let (a, x) = rank1_of_4(19);
        let mut y = x.with_extents([23]);
        a.apply_rows(&x, None, &mut y, 2..3);
    }
}
