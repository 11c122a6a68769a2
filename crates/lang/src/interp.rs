//! SPMD interpreter for the KF1 subset.
//!
//! Every simulated processor runs the same program over the same tree. The
//! interpreter realizes the paper's execution model:
//!
//! * code outside `doall` is replicated (every processor executes it);
//! * a `doall` is executed owner-computes: each processor runs exactly the
//!   iterations its `on` clause assigns to it, with **copy-in/copy-out**
//!   semantics (writes are buffered and committed after the loop). The
//!   buffer exists so that no iteration sees another's writes and peers
//!   are served pre-trip values; a trip in which this processor runs at
//!   most one iteration skips it once nothing will be served from storage
//!   again — the verdict is final (a fresh build or a singleton team's
//!   hit) or the iteration runs after completion — and
//!   *writes through* to storage: same values, same owner-computes checks,
//!   same charges;
//! * communication is *implicit*: a `doall` runs as a four-phase engine —
//!   **inspect-or-replay**, **post**, **interior**, **complete-boundary**.
//!   A cold invocation runs the inspector pass, which discovers which
//!   remote elements the local iterations read, turns them into a
//!   `CommSchedule` (request vectors in both directions, plus the
//!   interior/boundary partition of the iteration set), and then
//!   exchanges and executes synchronously — the runtime-resolution scheme
//!   of the Kali project that the paper cites as \[11\]/\[17\]. The
//!   inspector only *records* what an element assignment's value reads:
//!   before the exchange a remote element is a stale copy, so values are
//!   the executor's, computed on fresh data, and so are their errors. A
//!   scalar, a subscript, a condition or a bound steers communication and
//!   is computed in the inspector too;
//! * **executor reuse**: under an optimistic [`ExecPolicy`] (the
//!   default) schedules are cached across invocations. When a
//!   `doall` sits inside a sequential `do` loop and nothing that could
//!   steer the inspector has changed — same site, processor array,
//!   iteration set, free scalars, and the identity + distribution
//!   generation of every array the body touches — the inspector pass *and*
//!   the request round are skipped and the cached schedule is replayed.
//!   Every trip's schedule is one array on the wire, each element
//!   relative to its exchange array's origin, so a schedule built for
//!   one line of a team replays untranslated on every other line.
//!   The replay decision is collective (a one-word vote), so the
//!   request/reply protocol stays SPMD-consistent, and a
//!   `distribute` statement bumps the arrays' distribution generation,
//!   which makes any stale schedule miss rather than replay;
//! * **split-phase replay**: a replayed exchange is issued nonblocking.
//!   The engine *posts* the fused per-peer value messages
//!   ([`Proc::isend`]/[`Proc::irecv`]), executes the *interior* iterations
//!   (those the inspector proved read no remote element) while the
//!   messages are in transit, then *completes* the receives — idle is
//!   charged only for the transit the interior work did not cover — and
//!   finally executes the *boundary* iterations against freshened storage.
//!   Buffered writes are committed in original iteration order, so the
//!   reordering is invisible. On a latency-bound machine this hides most
//!   of the message start-up cost behind owned-interior computation; the
//!   hidden seconds are reported as
//!   [`kali_machine::RunReport::overlap_hidden_seconds`]. The cold
//!   inspector invocation is split-phase too: the request round — one
//!   message per peer, whatever the arrays — is posted nonblocking, and
//!   the cold value exchange runs through the same
//!   post/interior/complete/boundary engine, so even the first trip hides
//!   part of its start-up latency;
//! * **optimistic replay**: the replay-consensus vote is not a dedicated
//!   round at all. Each member assumes agreement, posts its
//!   fused value messages immediately, and carries its `(site, team)`
//!   ordinal as a one-word header on those messages (peers with no
//!   scheduled traffic get the bare header word). Agreement is checked at
//!   completion — zero extra latency on the hit path, counted as
//!   [`kali_machine::RunReport::total_optimistic_hits`] — and a
//!   disagreement (e.g. a `distribute` between trips on some member)
//!   discards the received payloads and *rolls back* to a full
//!   inspection, counted as
//!   [`kali_machine::RunReport::total_rollbacks`]. Stale routes never
//!   reach storage; interior iterations already executed stay valid —
//!   they read only owner-local elements under a locally matching key —
//!   and the boundary runs against the rebuilt exchange.
//!
//! The same four phases run a *placed* doall without walking it
//! (`RDoall::kind`): one element assignment of an affine stencil —
//! `jacobi.kf1`'s doall, the residual of `adi.kf1`, `shift.kf1`, and
//! `spmv.kf1`'s `x(i) = y(i) / 10.0` — whose reads are whole real arrays
//! on block distributions, or `spmv.kf1`'s row doall, one `spmv` call per
//! CSR row. Its builder derives the inspector's schedule, word for word,
//! from the owned boxes or one read of the rows' column indices instead
//! of inspecting, and it runs the positions the schedule carries, interior
//! then boundary, like the walker (see "What an element costs"). Every
//! other site — `tri`, `tric`, anything a trip's bindings take outside
//! those classes — is walked as below.
//!
//! The schedule subsystem itself — [`CommSchedule`], the keyed
//! [`ScheduleCache`], and the whole trip protocol just described (vote
//! gate, lookup, vote, post, complete, scatter, rollback, store: the
//! [`Trip`] driver, shared with the compiled halo and the sparse gather)
//! — lives in the shared `kali-sched` crate; this module contributes
//! only the language-side data the driver is handed: the inspector as
//! schedule builder (abstract interpretation of the body), the cache key
//! (free scalars, structural array descriptions, distribution
//! generations), the exchange list as storage world and wire encoding,
//! and the iteration executor that runs around the driver's two calls.
//!
//! The phase marks (`doall:inspect`, `doall:post`, `doall:interior`,
//! `doall:complete`, `doall:boundary`) let
//! [`kali_machine::RunReport::merged_marks`] reconstruct the engine's
//! activity. One warm Jacobi trip on a 2×2 machine (16², iPSC/2 costs)
//! reconstructs as:
//!
//! ```text
//! virtual time ──────────────────────────────────────────────────▶
//! proc 0  |vote|post|■■■■ interior ■■■■|∙wait∙|■ boundary ■|commit|
//! proc 1  |vote|post|■■■■ interior ■■■■|∙wait∙|■ boundary ■|commit|
//! proc 2  |vote|post|■■■■ interior ■■■■|∙wait∙|■ boundary ■|commit|
//! proc 3  |vote|post|■■■■ interior ■■■■|∙wait∙|■ boundary ■|commit|
//!               └── value messages in flight ──┘
//! ```
//!
//! whereas the blocking replay would sit idle for the full transit
//! between `post` and the first executed iteration;
//! * **lifted team calls**: a distributed procedure call (`call sub(args;
//!   procslice)`) narrows the current processor array to the slice and
//!   runs the callee SPMD on it. A team-call doall in the lifted class
//!   (`Kind::Lines` — Listing 7's `call tric(u(i, *), …; owner(r(i,
//!   *)))`) runs a batch of up to `LINES_PER_BATCH` lines of a team as
//!   *one activation* of the callee, I_L ⊗ A: one frame, each dynamic
//!   array with a leading line axis, each array parameter bound to the
//!   first line's view plus a line stride. Scalars, control flow and
//!   each doall's trip — one key, one exchange entry per array, one vote
//!   and one fused message per peer — run once for the batch; a run of
//!   element assignments runs compiled over the line axis, all the lines
//!   at once, where its subscripts are scalars; a compiled loop is placed
//!   once as one box of lines × iterations and run in one call, each
//!   line's invariants evaluated first into a column of the box's rows;
//!   calls and other runs run line after line; `reduce`/`seqtri` are
//!   placed once, a row of each section per line, on slices of storage
//!   borrowed once per call.
//!   Lines that are no progression, or whose pinned coordinates change
//!   owner, run line by line: the fallback, and the oracle the batches
//!   are tested against bit for bit.
//!
//! # What an element costs
//!
//! The interpreter runs the *resolved* tree [`crate::parse`] builds, in
//! which every name is a slot, so a subroutine activation is a flat
//! frame (`Vec<Option<Binding>>`) indexed by the nodes themselves, and no
//! name is hashed, compared or cloned while a program runs. A `doall`
//! writes its loop variables in place, iteration after iteration (what
//! they shadow is set aside once per loop); a scalar a body defines
//! implicitly is *iteration-private* — a short per-frame list of the
//! slots the current iteration defined resets them when it ends, so such
//! a scalar is undefined at the start of every iteration and after the
//! loop. An array reference `a(i, j)` evaluates its subscripts into a
//! `[i64; MAX_RANK]` on the stack, translates them through the view where
//! it is bound (borrowed, never cloned), and tests ownership by O(rank)
//! arithmetic ([`ArrObj::owned_by`]) — and only in the modes that use the
//! answer: the inspector (to record a remote read), replicated code (to
//! reject one) and every write. Executed writes go to a per-trip log that
//! names arrays by position; a read finds what its own iteration wrote in
//! O(1) — an index sized by one iteration's writes, cleared when the
//! iteration ends — which is what keeps a block-per-iteration body like
//! `tri`'s linear. Iteration sets are one
//! flat `Vec<i64>` presized from the loop bounds, and the on-clause asks
//! "is this iteration mine" without listing the owners. What is left per
//! element is the tree walk itself and, per *global* iteration on every
//! rank, one on-clause evaluation; everything that allocates does so per
//! trip (`tests/alloc_lang.rs` pins that).
//!
//! A placed site pays neither. Per trip it is placed on the bindings —
//! my iterations are the target's owned block met with the loop bounds,
//! read off its `Layout` — into its site's box-sized buffer, committed
//! once; no on-clause, iteration list or write log is built. A stencil's
//! right-hand side is compiled once, at parse time, into a register
//! program over rows, its loop-invariant subtrees evaluated per trip by
//! the walker's own `eval`: an element costs one pass of each instruction
//! over a contiguous row of every operand. A CSR nonzero costs one
//! multiply-add over its row's `ci`/`av` slices, read in place. The
//! tree-walker stays as the fallback, and as the oracle the placed path
//! is tested against bit for bit (results, messages, counters, clocks).
//!
//! A trip whose one iteration writes through logs nothing: a write is the
//! ownership test and a store, counted for the commit's `memop`. Inside
//! such an iteration a `do` loop of element assignments over references
//! with one subscript `v ± c` and scalars elsewhere — `tric`'s and `tri`'s
//! row builders, gathers (`wb(k, ip) = rb(k)`) and back-substitutions —
//! runs compiled as well, placed in the running site's buffers as the
//! doalls are and run over chunks of 64 iterations (`crate::lower`);
//! every other loop is walked.
//! Inspecting such a loop costs only its invariants where every element
//! it reads is owned too: they are evaluated once, and the writes are
//! counted. Ownership of a loop's references and of a builtin's sections
//! is tested at their two ends along a contiguous dimension, where what
//! one rank owns is an interval, and element by element only along a
//! cyclic or block-cyclic one.
//!
//! A batch of lines pays a frame, a trip's own costs, the placement and
//! the call of its loops and runs of element assignments and the
//! placement of its builtins once; per line it pays the element work, a
//! loop's invariants and a builtin's kernel, and allocates nothing. A
//! batch whose lines run one iteration each holds an undecided trip's
//! iteration until the verdict, so it writes through: its loops and runs
//! run compiled and its builtins on slices of storage.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::rc::Rc;

use kali_grid::{DimDist, DimMap, DistSpec, Layout, ProcGrid};
use kali_kernels::substructure::{reduce_block, reduce_flops};
use kali_kernels::tridiag::{thomas_flops, thomas_into};
use kali_machine::{collective, tag, Proc, Tag, Team, NS_LANG};
use kali_sched::{
    interior_runs, ArraySchedule, CommSchedule, ExecPolicy, Finished, ScheduleCache,
    ScheduleExecutor, ScheduleWorld, SiteKey, Trip, TripHost,
};

use crate::ast::{BinOp, Program, UnOp};
use crate::diag::Diagnostic;
use crate::lower::{Kernel, Placed, Scratch, Strided};
use crate::resolve::*;
use crate::value::*;
use crate::RunOptions;

pub type RtResult<T> = Result<T, String>;

#[derive(Debug, PartialEq)]
enum Flow {
    Normal,
    Return,
}

#[derive(Default)]
struct InspectState {
    /// Per distinct base array: remote flat indices needed by my
    /// iterations, in first-touch order (it fixes the order of the request
    /// vectors on the wire).
    needs: Vec<(ArrRef, Vec<usize>)>,
    /// Membership in `needs`, as (position in `needs`, flat): the dedupe
    /// is a set probe, not a scan of the list.
    seen: HashSet<(usize, usize)>,
    /// The positions of the iterations that read a remote element, in
    /// order — the boundary of the split-phase executor's partition — and
    /// the position of the iteration being inspected.
    boundary: Vec<usize>,
    pos: usize,
    /// Writes the executor will buffer for my iterations (the schedule's
    /// `write_hint`): a cacheable body's control flow cannot depend on
    /// array values, so the inspector sees every write the executor will
    /// make.
    writes: usize,
    /// A cacheable body's schedule-relevant names ([`sched_names`]): the
    /// only scalars whose values the walk computes. `None` elsewhere.
    sched: Option<Vec<Slot>>,
}

impl InspectState {
    fn record(&mut self, arr: &ArrRef, flat: usize) {
        if self.boundary.last() != Some(&self.pos) {
            self.boundary.push(self.pos);
        }
        let known = self.needs.iter().position(|(a, _)| Rc::ptr_eq(a, arr));
        let k = known.unwrap_or_else(|| {
            self.needs.push((arr.clone(), Vec::new()));
            self.needs.len() - 1
        });
        if self.seen.insert((k, flat)) {
            self.needs[k].1.push(flat);
        }
    }

    fn needs_of(&self, base: &ArrRef) -> &[usize] {
        let hit = self.needs.iter().find(|(b, _)| Rc::ptr_eq(b, base));
        hit.map_or(&[], |(_, v)| v.as_slice())
    }
}

/// The executor's copy-in/copy-out buffer for one trip: every write of
/// every executed iteration, committed to storage after the loop — or,
/// written through, none of them.
struct WriteLog {
    /// Write-through: every write is a store, only counted here (`Some`
    /// of the writes so far); nothing is buffered, indexed or committed.
    /// Exact where no other iteration of the trip could see the writes
    /// and no peer is served from storage any more
    /// ([`Interp::run_inspector_executor`]).
    through: Option<usize>,
    /// The distinct arrays written; an entry names its array by position
    /// here instead of carrying a reference count.
    targets: Vec<ArrRef>,
    entries: Vec<(u32, usize, f64)>,
    /// End offset into `entries` of each executed iteration, in execution
    /// order.
    seg_ends: Vec<usize>,
    /// (target, flat) → the last value the iteration *now executing*
    /// wrote: within one iteration reads see that iteration's own writes
    /// (Listing 4 reads `b(lo)` after `call reduce`), in O(1) however
    /// long the iteration. Cleared — not freed — when the iteration ends,
    /// so it is sized by one iteration's writes, never by an array.
    current: HashMap<(u32, usize), f64>,
}

impl WriteLog {
    /// A log for a trip expected to make `writes` writes over
    /// `iterations` iterations; a write-through one (`through`) allocates
    /// nothing.
    fn new(writes: usize, iterations: usize, through: bool) -> Self {
        if through {
            return WriteLog {
                through: Some(0),
                ..WriteLog::new(0, 0, false)
            };
        }
        WriteLog {
            through: None,
            targets: Vec::new(),
            entries: Vec::with_capacity(writes),
            seg_ends: Vec::with_capacity(iterations),
            current: HashMap::with_capacity(writes.div_ceil(iterations.max(1))),
        }
    }

    /// Write `(flat, value)` pairs of `arr`: store and count them, or log
    /// them.
    fn write(&mut self, arr: &ArrRef, writes: impl IntoIterator<Item = (usize, f64)>) {
        if let Some(count) = &mut self.through {
            let mut a = arr.borrow_mut();
            for (flat, v) in writes {
                a.data[flat] = v;
                *count += 1;
            }
            return;
        }
        let known = self.targets.iter().position(|a| Rc::ptr_eq(a, arr));
        let t = known.unwrap_or_else(|| {
            self.targets.push(arr.clone());
            self.targets.len() - 1
        }) as u32;
        for (flat, v) in writes {
            self.entries.push((t, flat, v));
            self.current.insert((t, flat), v);
        }
    }

    /// The writes a copy-out of this trip moves, logged or not.
    fn writes(&self) -> usize {
        self.through.unwrap_or(self.entries.len())
    }

    /// What the current iteration last wrote to `arr[flat]`, if anything;
    /// earlier iterations' writes stay invisible (copy-in).
    fn written(&self, arr: &ArrRef, flat: usize) -> Option<f64> {
        if self.current.is_empty() {
            return None;
        }
        let t = self.targets.iter().position(|a| Rc::ptr_eq(a, arr))?;
        self.current.get(&(t as u32, flat)).copied()
    }

    fn end_iteration(&mut self) {
        if self.through.is_none() {
            self.seg_ends.push(self.entries.len());
            self.current.clear();
        }
    }

    /// Copy-out, in *original* iteration order: if two iterations write
    /// the same element, the last iteration must win whatever order they
    /// executed in. The first `interior_segs` segments belong to the
    /// positions outside `boundary` (ascending), the rest to `boundary`.
    fn commit(self, boundary: &[usize], interior_segs: usize, iterations: usize) {
        if self.through.is_some() {
            return;
        }
        let (mut i_seg, mut b_seg, mut bi) = (0usize, interior_segs, 0usize);
        for pos in 0..iterations {
            let seg = if boundary.get(bi) == Some(&pos) {
                bi += 1;
                &mut b_seg
            } else {
                &mut i_seg
            };
            let start = seg.checked_sub(1).map_or(0, |k| self.seg_ends[k]);
            for &(t, flat, v) in &self.entries[start..self.seg_ends[*seg]] {
                self.targets[t as usize].borrow_mut().data[flat] = v;
            }
            *seg += 1;
        }
    }
}

enum Mode {
    Normal,
    Inspect(InspectState),
    Execute(WriteLog),
}

impl Mode {
    /// What the iteration now executing last wrote to `arr[flat]`, if it
    /// is buffered: element reads and builtin sections alike read their
    /// own iteration's writes.
    fn written(&self, arr: &ArrRef, flat: usize) -> Option<f64> {
        match self {
            Mode::Execute(log) => log.written(arr, flat),
            _ => None,
        }
    }
}

/// The most lines a batch of a team call runs as one activation
/// ([`Interp::run_lines`]). A batch holds its lines' share of every dynamic
/// array — `tric`'s thirteen — for the batch's whole run, on every rank:
/// at the cap, `tric`'s is 64 × (4 ⌈(np + 1)/q⌉ + 10q + 8) words, 107 KiB
/// at np = 48 on a team of one, however many lines the team has. A team's
/// sweep of up to 64 lines is one activation.
const LINES_PER_BATCH: usize = 64;

/// A batch of lines run as one activation of the callee ([`lift`]): its
/// frame binds the first line's views, and element work moves them from
/// line to line.
struct Lift {
    lines: usize,
    /// The lines element work now runs over: all of them, or the one a
    /// run of element statements is at ([`Interp::exec_stmts`]).
    active: Range<usize>,
    /// Per array slot and base dimension a line pins: line 0's
    /// coordinate, the step from one line to the next, and that step in
    /// storage. A dynamic array steps along its leading line axis.
    moves: Vec<(Slot, usize, i64, i64, isize)>,
}

/// How deep subroutine calls may nest, the entry counted: deeper KF1
/// recursion would overflow a processor thread's stack, aborting the run.
pub const MAX_CALL_DEPTH: usize = 64;

/// Cached schedules per doall site; the oldest epoch is evicted beyond
/// this (a backstop — sites normally cycle through a handful of keys).
const MAX_SCHEDULES_PER_SITE: usize = 128;

/// Tag of the split-phase fused value message (one per communicating peer
/// pair per replayed doall). A single tag suffices: matching is by
/// `(source, tag)` in FIFO order and the engine is SPMD-synchronous, so
/// successive invocations can never mis-pair messages.
const SPLIT_VALUE_TAG: Tag = tag(NS_LANG, 0x0051_1137);

/// Tag of the split-phase cold-inspection request round (one message per
/// ordered peer pair).
const SPLIT_REQUEST_TAG: Tag = tag(NS_LANG, 0x0052_4551);

/// The interpreter's instance of the shared schedule executor: all fused
/// value traffic travels under [`SPLIT_VALUE_TAG`].
const EXEC: ScheduleExecutor = ScheduleExecutor::new(SPLIT_VALUE_TAG);

/// One array of a doall's exchange list ([`Interp::exchange_arrays`]).
struct ExchangeArray {
    base: ArrRef,
    /// Flat base index of the bound view's origin *in the current frame*,
    /// at its first line ([`view_origin_flat`]).
    origin: u64,
}

/// A trip's schedule is one array ([`Interp::compute_requests`]): element
/// `f` of entry `e` of the exchange list travels as `e·span + span/2 + f −
/// origin`, relative to its entry's origin, so the schedule replays
/// untranslated on every trip whose key is equal — another line of the
/// same team, or another batch of lines the same distance apart.
fn span(arrays: &[ExchangeArray]) -> u64 {
    let len = |a: &ExchangeArray| a.base.borrow().total_len() as u64;
    2 * arrays.iter().map(len).max().unwrap_or(1)
}

/// A trip's schedule: its one array ([`span`]), both directions' requests.
fn schedule(
    my_reqs: Vec<Vec<u64>>,
    incoming: Vec<Vec<u64>>,
    write_hint: usize,
    boundary: Vec<usize>,
) -> CommSchedule {
    let arrays = vec![ArraySchedule {
        name: "exchange".into(),
        my_reqs,
        incoming,
        origin: 0,
    }];
    CommSchedule {
        arrays,
        write_hint,
        boundary,
    }
}

/// The executor's view of the interpreter's storage: the trip's one
/// schedule array, decoded entry by entry ([`span`]) into [`ArrObj`]
/// row-major storage indices.
struct LangWorld {
    span: u64,
    entries: Vec<(ArrRef, u64)>,
}

impl LangWorld {
    fn new(arrays: &[ExchangeArray]) -> Self {
        LangWorld {
            span: span(arrays),
            entries: arrays.iter().map(|a| (a.base.clone(), a.origin)).collect(),
        }
    }

    /// Where element `flat` of the schedule array is stored.
    fn at(&self, flat: u64) -> (&ArrRef, usize) {
        let (base, origin) = &self.entries[(flat / self.span) as usize];
        (base, (flat % self.span + origin - self.span / 2) as usize)
    }
}

impl ScheduleWorld<f64> for LangWorld {
    fn load(&self, _array: usize, flat: u64) -> f64 {
        let (arr, flat) = self.at(flat);
        arr.borrow().data[flat]
    }

    fn store(&mut self, _array: usize, flat: u64, value: f64) {
        let (arr, flat) = self.at(flat);
        arr.borrow_mut().data[flat] = value;
    }
}

/// An array the inspector recorded remote reads of, with the reads, that
/// is not on the exchange list: executed, they would read stale values.
fn unfetched<'s>(
    st: &'s InspectState,
    arrays: &[ExchangeArray],
) -> Option<&'s (ArrRef, Vec<usize>)> {
    let listed = |arr: &ArrRef| arrays.iter().any(|a| Rc::ptr_eq(&a.base, arr));
    st.needs
        .iter()
        .find(|(arr, flats)| !flats.is_empty() && !listed(arr))
}

/// A doall iteration set, flat: `arity` loop-variable values per
/// iteration, in iteration order. One allocation however many iterations,
/// and comparing two sets is comparing two slices.
#[derive(Clone, Default)]
struct IterSet {
    arity: usize,
    flat: Vec<i64>,
}

impl IterSet {
    fn len(&self) -> usize {
        self.flat.len() / self.arity
    }

    fn get(&self, pos: usize) -> &[i64] {
        &self.flat[pos * self.arity..(pos + 1) * self.arity]
    }

    fn iter(&self) -> impl Iterator<Item = &[i64]> {
        self.flat.chunks_exact(self.arity)
    }
}

/// What one doall trip executes: the walker over the iterations the
/// on-clause listed, or a placed site over its box.
#[derive(Clone, Copy)]
enum Work<'w> {
    Walk(&'w IterSet),
    Placed(&'w Placed<'w>),
}

impl<'w> Work<'w> {
    /// How many iterations the trip runs here: the positions its schedule
    /// counts.
    fn len(self) -> usize {
        match self {
            Work::Walk(s) => s.len(),
            Work::Placed(p) => p.len(),
        }
    }
}

/// Everything the inspector's output is a deterministic function of. Two
/// invocations with equal keys provably need the same communication, so
/// the cached schedule can be replayed. The key is one word vector, built
/// with one allocation and compared as a slice ([`Interp::key_words`]
/// writes it); in order:
///
/// * the team's ranks (which [`SiteKey::team_ranks`] borrows back);
/// * a lifted trip's number of lines (0 outside a batch; the site number
///   carries it too) and how each array moves from line to line — the
///   words below describe the first line, whose owners are every line's;
/// * this processor's iteration set (owner-computes assignment) — listed
///   by the on-clause scan, or at a placed site the owned box, which
///   names the same set (every empty box alike), so a placed site's keys
///   hit and miss exactly where the listed ones would;
/// * the schedule-relevant free scalars of the body at entry, by name;
/// * content fingerprints of *replicated* arrays in schedule-relevant
///   positions (subscripts, section bounds, builtin arguments), by slot:
///   a CSR structure array (`spmv`'s column indices) makes the schedule a
///   function of array *values* — change the sparsity and the key misses.
///   A fingerprint hashes one word per element ([`data_fingerprint`]), so
///   a key costs a pass over the structure, and stays a function of
///   content: SPMD-uniform, and never reused by a fresh array bound where
///   an old one was;
/// * every array read or written, by name, keyed *structurally* (bounds,
///   distribution, grid, generation, view, alias pattern) — ownership
///   maps, and hence schedules, depend on structure, not object identity.
///
/// A list is preceded by its length unless earlier words fix it, and a
/// variant by a tag, so equal vectors are equal fields. Names
/// appear as slots: a site belongs to one subroutine, so its keys all
/// speak that subroutine's symbol table.
#[derive(Clone, PartialEq)]
struct ScheduleKey {
    site: usize,
    words: Vec<usize>,
}

// A word holds an `i64` or a `u64` bit for bit.
const _: () = assert!(usize::BITS == u64::BITS);

/// The key's fingerprint of an array's storage. Word `k` steps lane
/// `k mod 4`: xored in and multiplied by the FNV prime, then rotated so
/// the high bits, where the multiply mixes, feed the low bits of the next
/// step. (A multiply only carries upwards: without the rotation, negating
/// two words would flip the top bit twice and cancel.) The four lanes are
/// then folded into one by the same step. A step is a bijection of the
/// state and, for a given state, injective in its word, so arrays that
/// differ in one word differ in one lane, and so in fingerprint. Four
/// lanes run four independent multiply chains, so a replicated CSR
/// structure keys at the multiplier's throughput, not its latency.
fn data_fingerprint(data: &[f64]) -> u64 {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    let step = |h: u64, bits: u64| ((h ^ bits).wrapping_mul(0x0000_0100_0000_01b3)).rotate_left(29);
    let mut lanes = [SEED; 4];
    let mut words = data.chunks_exact(4);
    for w in &mut words {
        for (lane, v) in lanes.iter_mut().zip(w) {
            *lane = step(*lane, v.to_bits());
        }
    }
    for (lane, v) in lanes.iter_mut().zip(words.remainder()) {
        *lane = step(*lane, v.to_bits());
    }
    lanes.into_iter().fold(SEED, step)
}

impl SiteKey for ScheduleKey {
    fn site(&self) -> usize {
        self.site
    }

    fn team_ranks(&self) -> &[usize] {
        &self.words[1..1 + self.words[0]]
    }
}

impl TripHost for Interp<'_, '_> {
    fn proc(&mut self) -> &mut Proc {
        self.proc
    }
}

/// One subroutine activation: a flat frame, one slot per name of the
/// subroutine's symbol table.
struct Frame<'p> {
    grid: ProcGrid,
    sub: &'p RSub,
    slots: Vec<Option<Binding>>,
    /// Scalars implicitly defined by the doall iteration(s) now running
    /// in this frame, innermost last. They are private to their
    /// iteration: its end makes each undefined again.
    iter_defined: Vec<Slot>,
    /// Doall iterations of this frame now running (nested via team calls).
    iter_depth: usize,
    /// The batch of lines the activation runs, if it is lifted.
    lift: Option<Lift>,
}

/// The interpreter for one simulated processor.
pub struct Interp<'a, 'p> {
    pub proc: &'a mut Proc,
    prog: &'p Program,
    /// The activations now running; the last is the active one.
    frames: Vec<Frame<'p>>,
    mode: Mode,
    doall_depth: usize,
    /// Subroutine calls now running, a batch of lines as one.
    calls: usize,
    /// Execution strategy for communicating doalls — the same
    /// [`ExecPolicy`] the compiled stencil-plan path runs under, handed
    /// to the trip driver, which alone decides whether a trip replays.
    /// `policy.split` runs the trips split-phase (post / interior /
    /// complete-boundary) instead of with a blocking fused exchange.
    policy: ExecPolicy,
    /// Cached communication schedules, lent to every trip; `None` only
    /// while a trip has it. Shared across frames: the key carries every
    /// frame-dependent input (bindings, views, generations), so a hit is
    /// valid regardless of which call produced the entry.
    schedules: Option<ScheduleCache<ScheduleKey>>,
    /// Per doall site (by site number): the buffers its placements use,
    /// reused trip after trip.
    scratch: Vec<Scratch>,
    /// The site whose trip runs now: its walked iterations place their
    /// compiled loops and runs in its scratch.
    site: usize,
    /// The buffer schedule keys are written into, copied out exactly
    /// sized.
    key_buf: Vec<usize>,
    /// Keys made unequal to every other key so far: a NaN scalar, which
    /// equals nothing.
    nan_keys: usize,
    /// The rank the on-clause, ownership tests and the inspector speak
    /// for: this processor's, but while the static seed walks a team
    /// member's iterations, that member's ([`Interp::seed_schedule`]).
    me: usize,
    /// Seed the cache before a site with a plan ([`RDoall::plan`]) first
    /// runs: the inspector walks every team member's iterations here, so
    /// even the first trip replays; sites without a plan are untouched.
    static_seed: bool,
    /// Iterations of compiled `do` loops the inspector walked.
    #[cfg(test)]
    inspected_loop_iterations: usize,
    /// Activations entered, a batch of lines as one.
    #[cfg(test)]
    frames_entered: usize,
}

impl<'a, 'p> Interp<'a, 'p> {
    /// An interpreter for `prog` under the knobs of `opts`.
    pub fn new(proc: &'a mut Proc, prog: &'p Program, opts: RunOptions) -> Self {
        Interp {
            me: proc.rank(),
            proc,
            prog,
            frames: Vec::new(),
            mode: Mode::Normal,
            doall_depth: 0,
            calls: 0,
            policy: opts.policy,
            schedules: Some(ScheduleCache::new(MAX_SCHEDULES_PER_SITE)),
            scratch: Vec::new(),
            site: 0,
            key_buf: Vec::new(),
            nan_keys: 0,
            static_seed: opts.static_seed,
            #[cfg(test)]
            inspected_loop_iterations: 0,
            #[cfg(test)]
            frames_entered: 0,
        }
    }

    fn me(&self) -> usize {
        self.me
    }

    fn frame(&self) -> &Frame<'p> {
        self.frames.last().expect("an active frame")
    }

    fn frame_mut(&mut self) -> &mut Frame<'p> {
        self.frames.last_mut().expect("an active frame")
    }

    /// The lines element work in the active frame now runs over: `0..1`
    /// outside a batch.
    fn lines(&self) -> Range<usize> {
        self.frame()
            .lift
            .as_ref()
            .map_or(0..1, |l| l.active.clone())
    }

    /// Run element work over `lines` from now on, the frame's views at the
    /// first of them.
    fn set_lines(&mut self, lines: Range<usize>) {
        let f = self.frames.last_mut().expect("an active frame");
        let Some(lift) = &mut f.lift else {
            return;
        };
        for &(slot, dim, first, step, _) in &lift.moves {
            if let Some(Binding::Array(v)) = &mut f.slots[slot] {
                v.map[dim] = ViewDim::Fixed(first + lines.start as i64 * step);
            }
        }
        lift.active = lines;
    }

    /// What `slot` is bound to in the active frame.
    fn slot(&self, slot: Slot) -> Option<&Binding> {
        self.frame().slots[slot].as_ref()
    }

    /// The name behind `slot` (error messages only).
    fn name(&self, slot: Slot) -> &'p str {
        &self.frame().sub.names[slot]
    }

    fn bind(&mut self, slot: Slot, b: Binding) {
        self.frame_mut().slots[slot] = Some(b);
    }

    /// The array view bound to `slot`, or `what()` as the error.
    fn array(&self, slot: Slot, what: impl FnOnce(&str) -> String) -> RtResult<&View> {
        match self.slot(slot) {
            Some(Binding::Array(view)) => Ok(view),
            _ => Err(what(self.name(slot))),
        }
    }

    /// Assign a scalar with Fortran typing: an existing scalar keeps its
    /// type, a new one is implicitly typed by its name — and, inside a
    /// doall iteration, lives only until that iteration ends.
    fn set_scalar(&mut self, slot: Slot, v: Value) -> RtResult<()> {
        let name = self.name(slot);
        let f = self.frame_mut();
        let like = match &f.slots[slot] {
            Some(Binding::Scalar(old)) => *old,
            Some(Binding::Array(_)) => return Err(format!("cannot assign scalar to array {name}")),
            Some(Binding::Grid(_)) => {
                return Err(format!("cannot assign scalar to processor array {name}"))
            }
            None => {
                if f.iter_depth > 0 {
                    f.iter_defined.push(slot);
                }
                Value::implicit_zero(name)
            }
        };
        f.slots[slot] = Some(Binding::Scalar(match like {
            Value::Int(_) => Value::Int(v.as_int()),
            Value::Real(_) => Value::Real(v.as_f64()),
        }));
        Ok(())
    }

    /// Run subroutine `sub` (an index into the resolved program) with
    /// pre-bound arguments on `grid`.
    pub fn call_sub(
        &mut self,
        sub: usize,
        bindings: Vec<(usize, Binding)>,
        grid: ProcGrid,
    ) -> RtResult<()> {
        self.activate(sub, bindings, grid, None)
    }

    /// Run subroutine `sub` in a new activation, over a batch of lines
    /// with `lift`.
    fn activate(
        &mut self,
        sub: usize,
        bindings: Vec<(usize, Binding)>,
        grid: ProcGrid,
        lift: Option<Lift>,
    ) -> RtResult<()> {
        let sub = self.enter(sub, bindings, grid, lift)?;
        self.calls += 1;
        let result = self.exec_stmts(&sub.body);
        self.calls -= 1;
        self.frames.pop();
        result.map(|_| ())
    }

    /// Push an activation of subroutine `sub` as the active frame and
    /// elaborate its declarations.
    fn enter(
        &mut self,
        sub: usize,
        bindings: Vec<(usize, Binding)>,
        grid: ProcGrid,
        lift: Option<Lift>,
    ) -> RtResult<&'p RSub> {
        let sub = &self.prog.code[sub];
        if self.calls == MAX_CALL_DEPTH {
            let name = &sub.name;
            return Err(format!("{name}: calls nest deeper than {MAX_CALL_DEPTH}"));
        }
        let mut slots = vec![None; sub.names.len()];
        for (slot, b) in bindings {
            slots[slot] = Some(b);
        }
        #[cfg(test)]
        {
            self.frames_entered += 1;
        }
        self.frames.push(Frame {
            grid,
            sub,
            slots,
            iter_defined: Vec::new(),
            iter_depth: 0,
            lift,
        });
        if let Err(e) = self.elaborate_decls(sub) {
            self.frames.pop();
            return Err(e);
        }
        Ok(sub)
    }

    // ---------- declarations ----------

    fn elaborate_decls(&mut self, sub: &'p RSub) -> RtResult<()> {
        for d in &sub.decls {
            match d {
                RDecl::Processors(slot, extents) => {
                    let grid = self.frame().grid.clone();
                    if grid.ndims() != extents.len() {
                        return Err(format!(
                            "{}: processors {} declared with rank {} but the actual \
                             processor array has rank {}",
                            sub.name,
                            self.name(*slot),
                            extents.len(),
                            grid.ndims()
                        ));
                    }
                    for (gd, e) in extents.iter().enumerate() {
                        let actual = grid.extent(gd) as i64;
                        match e {
                            RExpr::Var(id, _) => match self.slot(*id) {
                                Some(Binding::Scalar(v)) => {
                                    if v.as_int() != actual {
                                        return Err(format!(
                                            "processor extent {} = {} does not match \
                                             actual extent {actual}",
                                            self.name(*id),
                                            v.as_int()
                                        ));
                                    }
                                }
                                _ => self.bind(*id, Binding::Scalar(Value::Int(actual))),
                            },
                            RExpr::Const(Value::Int(v), _) => {
                                if *v != actual {
                                    return Err(format!(
                                        "processor extent {v} does not match actual {actual}"
                                    ));
                                }
                            }
                            _ => return Err("processor extents must be names or integers".into()),
                        }
                    }
                    // Bind the processor-array name itself.
                    if sub.proc_param != Some(*slot) {
                        self.bind(*slot, Binding::Grid(grid));
                    }
                }
                RDecl::Item {
                    slot,
                    is_real,
                    bounds,
                    dist,
                } => self.declare(*slot, bounds, *is_real, dist.as_ref())?,
            }
        }
        Ok(())
    }

    /// One item of a type declaration: a new array or scalar, or the
    /// redeclaration of a parameter.
    fn declare(
        &mut self,
        slot: Slot,
        dims: &[(RExpr, RExpr)],
        is_real: bool,
        dist: Option<&DistSpec>,
    ) -> RtResult<()> {
        let name = self.name(slot);
        let mut bounds = Vec::with_capacity(dims.len());
        for (lo, hi) in dims {
            let l = self.eval(lo)?.as_int();
            let h = self.eval(hi)?.as_int();
            // The extent, `h.abs_diff(l) + 1`, is then a `usize`.
            if h < l || h.abs_diff(l) == u64::MAX {
                return Err(format!("array {name}: bad bounds {l}:{h}"));
            }
            bounds.push((l, h));
        }
        match self.slot(slot).cloned() {
            Some(Binding::Array(mut view)) => {
                // Parameter redeclaration: adopt bounds and, for fresh
                // (host) arrays, the distribution.
                if bounds.len() != view.ndims() {
                    return Err(format!(
                        "parameter {name} has rank {}, declared with rank {}",
                        view.ndims(),
                        bounds.len()
                    ));
                }
                for (d, &(l, h)) in bounds.iter().enumerate() {
                    let (want, have) = (h.abs_diff(l) as usize + 1, view.extent(d));
                    if want != have {
                        return Err(format!(
                            "parameter {name} extent mismatch in dim {}: \
                             declared {want}, actual {have}",
                            d + 1
                        ));
                    }
                    view.callee_lo[d] = l;
                }
                if let Some(spec) = dist {
                    let mut base = view.base.borrow_mut();
                    if base.replicated() && base.layout.grid().size() == 1 {
                        // Host-supplied array: adopt.
                        let extents: Vec<usize> =
                            (0..base.ndims()).map(|d| base.extent(d)).collect();
                        base.layout = Layout::new(spec, &extents, &self.frame().grid)
                            .map_err(|e| format!("{name}: {e}"))?;
                        base.bump_dist_gen();
                    }
                }
                self.bind(slot, Binding::Array(view));
            }
            Some(Binding::Scalar(v)) => {
                // Type declaration of a scalar parameter.
                if !dims.is_empty() {
                    return Err(format!(
                        "parameter {name} is scalar but declared with dimensions"
                    ));
                }
                let coerced = if is_real {
                    Value::Real(v.as_f64())
                } else {
                    Value::Int(v.as_int())
                };
                self.bind(slot, Binding::Scalar(coerced));
            }
            Some(Binding::Grid(_)) => return Err(format!("{name} is a processor array, not data")),
            None if dims.is_empty() => {
                let z = if is_real {
                    Value::Real(0.0)
                } else {
                    Value::Int(0)
                };
                self.bind(slot, Binding::Scalar(z));
            }
            None => {
                if bounds.len() > MAX_RANK {
                    return Err(format!(
                        "array {name}: rank {} exceeds the supported maximum of {MAX_RANK}",
                        bounds.len()
                    ));
                }
                let (grid, lines) = (&self.frame().grid, self.frame().lift.as_ref());
                let lines = lines.map(|l| l.lines);
                // A batch's array has a leading line axis, held whole by
                // every owner: one line's elements stay contiguous.
                let extents: Vec<usize> = (lines.iter().copied())
                    .chain(bounds.iter().map(|&(l, h)| h.abs_diff(l) as usize + 1))
                    .collect();
                let mut data = Vec::new();
                let len = extents.iter().try_fold(1, |n: usize, &e| n.checked_mul(e));
                let Some(len) = len.filter(|&len| data.try_reserve_exact(len).is_ok()) else {
                    return Err(format!("array {name}: {bounds:?} does not fit in memory"));
                };
                data.resize(len, 0.0);
                let layout = match dist {
                    Some(spec) => {
                        let local = lines.map(|_| DimMap::Local).into_iter();
                        let maps = local.chain(spec.maps().iter().copied()).collect();
                        // An error is the declaration's, without the axis.
                        let declared = &extents[lines.iter().len()..];
                        let declared = |e| Layout::new(spec, declared, grid).and(Err(e));
                        let layout = Layout::new(&DistSpec::new(maps), &extents, grid);
                        layout
                            .or_else(declared)
                            .map_err(|e| format!("{name}: {e}"))?
                    }
                    None => Layout::replicated(&extents, grid),
                };
                if let Some(lines) = lines {
                    bounds.insert(0, (0, lines as i64 - 1));
                    let lift = self.frame_mut().lift.as_mut().expect("a batch");
                    lift.moves
                        .push((slot, 0, 0, 1, len as isize / lines as isize));
                }
                let mut view = View::whole(Rc::new(std::cell::RefCell::new(ArrObj {
                    name: name.to_string(),
                    bounds,
                    layout,
                    data,
                    is_real,
                    dist_gen: 0,
                })));
                if lines.is_some() {
                    (view.map[0], _) = (ViewDim::Fixed(0), view.callee_lo.remove(0));
                }
                self.bind(slot, Binding::Array(view));
            }
        }
        Ok(())
    }

    // ---------- statements ----------

    /// Run `stmts` in order. In a batch of lines ([`Lift`]) a run of
    /// element assignments and calls ([`RStmt::by_line`]) runs line after
    /// line, each line the run in order, as it would in its own activation
    /// — or, a run of element assignments compiled over the line axis
    /// ([`Interp::run_kernel`]), statement by statement over all the lines
    /// at once; a compiled loop is one box over the lines, a line at a
    /// time, and everything else runs once for all the lines, which the
    /// class ([`RSub::lockstep`]) makes the same on every line.
    fn exec_stmts(&mut self, stmts: &'p [RStmt]) -> RtResult<Flow> {
        let mut rest = stmts;
        while let Some(s) = rest.first() {
            let lines = self.lines();
            let n = match lines.len() {
                1 => 0,
                _ => rest.iter().take_while(|s| s.by_line()).count(),
            };
            if n > 0 {
                let compiled = match s {
                    RStmt::AssignElement { run: Some(k), .. } => self.run_kernel(k, None) > 0,
                    _ => false,
                };
                for line in lines.clone().filter(|_| !compiled) {
                    self.set_lines(line..line + 1);
                    for s in &rest[..n] {
                        self.exec_stmt(s)?;
                    }
                }
                self.set_lines(lines);
                rest = &rest[n..];
                continue;
            }
            if self.exec_stmt(s)? == Flow::Return {
                return Ok(Flow::Return);
            }
            rest = &rest[1..];
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &'p RStmt) -> RtResult<Flow> {
        match s {
            RStmt::AssignScalar {
                slot, rhs, flops, ..
            } => {
                // A scalar no schedule-relevant position reads is a value,
                // like an element's: the inspector records its reads only.
                let value = match &self.mode {
                    Mode::Inspect(st) => st.sched.as_ref().is_some_and(|n| !n.contains(slot)),
                    _ => false,
                };
                if value {
                    return self.record_reads(rhs).map(|()| Flow::Normal);
                }
                let v = self.eval(rhs)?;
                self.set_scalar(*slot, v)?;
                // Charged as each line's activation would be.
                for _ in self.lines() {
                    self.charge_assignment(*flops);
                }
            }
            RStmt::AssignElement {
                slot,
                subs,
                rhs,
                flops,
                ..
            } => {
                #[cfg(test)]
                crate::lower::WALKED.with(|n| n.set(n.get() + 1));
                // The inspector records what the value reads; the value is
                // the executor's, on fresh data.
                let v = match self.mode {
                    Mode::Inspect(_) => self.record_reads(rhs).map(|()| 0.0)?,
                    _ => self.eval(rhs)?.as_f64(),
                };
                self.write_element(*slot, subs, v)?;
                self.charge_assignment(*flops);
            }
            RStmt::If(cond, then_body, else_body) => {
                return if self.eval(cond)?.truthy() {
                    self.exec_stmts(then_body)
                } else {
                    self.exec_stmts(else_body)
                };
            }
            RStmt::Do {
                var,
                lo,
                hi,
                step,
                body,
                kernel,
            } => {
                let lo = self.eval(lo)?.as_int();
                let hi = self.eval(hi)?.as_int();
                let st = match step {
                    Some(e) => self.eval(e)?.as_int(),
                    None => 1,
                };
                if st == 0 {
                    return Err("do loop with zero step".into());
                }
                let lines = self.lines();
                let ran = match kernel.as_ref().filter(|_| lo <= hi) {
                    Some(k) => {
                        // The walk's first step; a compiled run ends where the walk would.
                        self.set_scalar(*var, Value::Int(lo))?;
                        let int = matches!(self.slot(*var), Some(Binding::Scalar(Value::Int(_))));
                        let ran = int.then(|| self.run_kernel(k, Some((lo, hi))));
                        let ran = ran.unwrap_or(0);
                        if ran > 0 {
                            self.set_scalar(*var, Value::Int(hi))?;
                        }
                        ran
                    }
                    None => 0,
                };
                if ran == lines.len() {
                    return Ok(Flow::Normal);
                }
                // The walker runs the lines the kernel did not.
                self.set_lines(lines.start + ran..lines.end);
                for i in counted(lo, hi, st) {
                    #[cfg(test)]
                    if kernel.is_some() && matches!(self.mode, Mode::Inspect(_)) {
                        self.inspected_loop_iterations += 1;
                    }
                    self.set_scalar(*var, Value::Int(i))?;
                    if self.exec_stmts(body)? == Flow::Return {
                        return Ok(Flow::Return);
                    }
                }
                self.set_lines(lines);
            }
            RStmt::Return => return Ok(Flow::Return),
            RStmt::Call {
                callee, args, on, ..
            } => self.exec_call(callee, args, on.as_ref())?,
            RStmt::Doall(d) => self.exec_doall(d)?,
            RStmt::Distribute { slot, dist, .. } => self.exec_distribute(*slot, dist)?,
        }
        Ok(Flow::Normal)
    }

    /// Run compiled kernel `k` where the walk's outcome is known — a write
    /// is a store (write-through) or only counted (inspector) — placed once
    /// in the running site's scratch ([`Placed::kernel`]): a `do` loop's
    /// iterations `Some((lo, hi))` (`lo ≤ hi`, the loop variable at `lo`)
    /// as a box of the active lines × iterations, or a run of element
    /// assignments as one row whose iterations are the active lines. Each
    /// row's invariants are evaluated first, at its line, and then the rows
    /// run in one call. Written through, a write is what the walker would
    /// store, charged as it charges — `compute` per iteration per
    /// assignment in its order, and one write each for the commit's
    /// `memop`. In the inspector, when every element read is owned
    /// as well, the walk would record only what the invariants read: their
    /// reads are recorded ([`Interp::record_reads`]), in the walk's
    /// first-touch order, and the writes are counted. Returns the rows it
    /// ran: none where the outcome is not known, the bindings are outside
    /// the class or a subscript fails to evaluate, and none from the first
    /// where an invariant fails. Nothing is done for the rest but what an
    /// invariant recorded, which the walk records again: the walker runs
    /// them, and reports what it reports. (No row writes what an invariant
    /// reads, so evaluating them all first changes no value.)
    fn run_kernel(&mut self, k: &Kernel, iters: Option<(i64, i64)>) -> usize {
        let (lines, me) = (self.lines(), self.me());
        let inspect = matches!(self.mode, Mode::Inspect(_));
        if !inspect && !matches!(&self.mode, Mode::Execute(log) if log.through.is_some()) {
            return 0;
        }
        let mut s = std::mem::take(self.site_scratch(self.site));
        let fixed = s.eval(k, |e| self.eval(e).ok().map(Value::as_int));
        let frame = self.frame();
        let bound = |slot| match &frame.slots[slot] {
            Some(Binding::Array(v)) if v.base.borrow().is_real => Some((v, self.line_step(slot))),
            _ => None,
        };
        let placed =
            fixed.then(|| Placed::kernel(k, iters, lines.len(), me, inspect, bound, &mut s));
        let mut ran = 0;
        if let Some(p) = placed.flatten() {
            let n = p.width();
            ran = s.fill(k, p.len() / n, |r, e| {
                self.set_lines(lines.start + r..lines.start + r + 1);
                match inspect {
                    true => self.record_reads(e).ok().map(|()| 0.0),
                    false => self.eval(e).ok().map(Value::as_f64),
                }
            });
            let writes = ran * n * k.stmts.len();
            match &mut self.mode {
                Mode::Inspect(st) => st.writes += writes,
                Mode::Execute(log) => log.through = log.through.map(|w| w + writes),
                Mode::Normal => {}
            }
            if !inspect && ran > 0 {
                p.exec(std::iter::once(0..ran * n), &mut s, self.proc);
            }
        }
        self.set_lines(lines);
        self.scratch[self.site] = s;
        ran
    }

    /// The virtual flops of one executed assignment (the inspector's
    /// abstract pass computes nothing).
    fn charge_assignment(&mut self, flops: f64) {
        if !matches!(self.mode, Mode::Inspect(_)) {
            self.proc.compute(flops);
        }
    }

    // ---------- doall ----------

    /// Run doall `d` ([`Interp::run_doall`]).
    fn exec_doall(&mut self, d: &'p RDoall) -> RtResult<()> {
        if !matches!(self.mode, Mode::Normal) {
            return Err("nested doall loops are not supported".into());
        }
        let arity = d.ranges.len();
        let mut bounds = [(0i64, 0i64, 1i64); 2];
        for (k, (lo, hi, step)) in d.ranges.iter().enumerate() {
            let l = self.eval(lo)?.as_int();
            let h = self.eval(hi)?.as_int();
            let s = match step {
                Some(e) => self.eval(e)?.as_int(),
                None => 1,
            };
            if s <= 0 {
                return Err("doall requires a positive step".into());
            }
            if k < 2 {
                bounds[k] = (l, h, s);
            }
        }
        if arity != 1 && arity != 2 {
            return Err("doall supports one or two loop variables".into());
        }
        // The loop variables are written in place, iteration after
        // iteration; whatever they shadow is set aside once and comes back
        // after the loop.
        let frame = self.frame_mut();
        let shadowed: Vec<_> = d.vars.iter().map(|&v| frame.slots[v].take()).collect();
        let result = self.run_doall(d, &bounds[..arity]);
        let frame = self.frame_mut();
        for (&v, b) in d.vars.iter().zip(shadowed).rev() {
            frame.slots[v] = b;
        }
        result
    }

    /// Execute the iterations this processor owns, as [`RDoall::kind`]
    /// says: a placed site over its box when the trip's bindings fit it
    /// ([`Interp::place`]), a team call's lines ([`Interp::run_lines`]),
    /// otherwise the walker over the iterations whose on-clause names this
    /// processor. A batch of lines' trip neither places nor seeds from a
    /// static plan.
    fn run_doall(&mut self, d: &'p RDoall, bounds: &[(i64, i64, i64)]) -> RtResult<()> {
        let lifted = self.frame().lift.is_some();
        self.site = d.site;
        let placed = (!lifted).then(|| self.place(d, bounds)).flatten();
        let my_iters = match placed {
            None => self.scan(d, bounds)?,
            // The key reads the loop variables as the scan leaves them: at
            // the last iteration (unit steps).
            Some(_) => {
                if bounds.iter().all(|&(l, h, _)| l <= h) {
                    let last = [bounds[0].1, bounds.get(1).map_or(0, |b| b.1)];
                    self.set_loop_vars(d, &last[..bounds.len()]);
                }
                IterSet::default()
            }
        };
        self.doall_depth += 1;
        let result = match (&d.kind, &placed) {
            (_, Some(p)) => self.run_inspector_executor(d, Work::Placed(p), bounds),
            // Team-call mode (Listing 7): members of each iteration's
            // owner set execute the body cooperatively — a batch of lines
            // at a time where the class allows.
            (Kind::Lines { batch }, None) => self.run_lines(d, &my_iters, *batch),
            _ => self.run_inspector_executor(d, Work::Walk(&my_iters), bounds),
        };
        self.doall_depth -= 1;
        result
    }

    /// The on-clause scan: enumerate the iterations (outer variable
    /// first) and list those whose on-clause names `me`.
    fn scan(&mut self, d: &'p RDoall, bounds: &[(i64, i64, i64)]) -> RtResult<IterSet> {
        let arity = bounds.len();
        let total = bounds
            .iter()
            .map(|&(l, h, s)| ((h as i128 - l as i128) / s as i128 + 1).max(0))
            .map(|count| usize::try_from(count).unwrap_or(usize::MAX))
            .fold(arity, usize::saturating_mul);
        // Presized from the loop bounds: the set is built without a
        // reallocation however it is distributed.
        let mut flat = Vec::new();
        flat.try_reserve(total)
            .map_err(|_| "doall iteration set does not fit in memory".to_string())?;
        let (first, second) = (bounds[0], bounds.get(1).copied().unwrap_or((0, 0, 1)));
        for i in counted(first.0, first.1, first.2) {
            for j in counted(second.0, second.1, second.2) {
                let it = [i, j];
                let it = &it[..arity];
                self.set_loop_vars(d, it);
                if self.on_clause_names_me(&d.on)? {
                    flat.extend_from_slice(it);
                }
            }
        }
        Ok(IterSet { arity, flat })
    }

    /// Place `d` on this trip's bindings ([`Placed`]) in its site's
    /// scratch: unit steps, every array it names bound to a whole array but
    /// a CSR product's `x`, whose section is evaluated once, and a
    /// stencil's loop invariants evaluated. `None` runs the walker instead,
    /// which then reports any error the way it always has.
    fn place(&mut self, d: &'p RDoall, bounds: &[(i64, i64, i64)]) -> Option<Placed<'p>> {
        let mut ranges = [(0, 0); 2];
        for (r, &(lo, hi, step)) in ranges.iter_mut().zip(bounds) {
            *r = (step == 1).then_some((lo, hi))?;
        }
        let (ranges, me) = (&ranges[..bounds.len()], self.me());
        let mut s = std::mem::take(self.site_scratch(d.site));
        let placed = (|| match &d.kind {
            Kind::Stencil(k) => {
                let RProcExpr::Owner(on, _) = d.on else {
                    return None;
                };
                let p = Placed::stencil(me, ranges, k, on, |slot| self.whole(slot), &mut s)?;
                let value = |_, e: &RExpr| self.eval(e).ok().map(Value::as_f64);
                (p.len() == 0 || s.fill(k, 1, value) == 1).then_some(p)
            }
            // The class has one loop variable.
            Kind::Csr(c) => {
                let [y, rp, ci, av, x] = c.slots;
                let x = self.make_section_view(x, &c.x_secs).ok()?;
                let w = |slot| self.whole(slot);
                let arrays = [w(y)?, w(rp)?, w(ci)?, w(av)?];
                Placed::csr(me, ranges[0], arrays, &x, &mut s)
            }
            _ => None,
        })();
        self.scratch[d.site] = s;
        placed
    }

    /// The whole array `slot` is bound to, if it is.
    fn whole(&self, slot: Slot) -> Option<ArrRef> {
        match self.slot(slot) {
            Some(Binding::Array(view)) if view.is_whole() => Some(view.base.clone()),
            _ => None,
        }
    }

    /// The buffers of doall site `site`, reused trip after trip.
    fn site_scratch(&mut self, site: usize) -> &mut Scratch {
        if self.scratch.len() <= site {
            self.scratch.resize_with(site + 1, Scratch::default);
        }
        &mut self.scratch[site]
    }

    fn set_loop_vars(&mut self, d: &RDoall, it: &[i64]) {
        let f = self.frame_mut();
        for (&v, &val) in d.vars.iter().zip(it) {
            f.slots[v] = Some(Binding::Scalar(Value::Int(val)));
        }
    }

    /// Execute the body for one iteration. Scalars the iteration
    /// implicitly defines are undefined again when it ends — at the start
    /// of the next iteration and after the loop.
    fn run_iteration(&mut self, d: &'p RDoall, it: &[i64]) -> RtResult<()> {
        self.set_loop_vars(d, it);
        let f = self.frame_mut();
        let mark = f.iter_defined.len();
        f.iter_depth += 1;
        let result = self.exec_stmts(&d.body);
        let f = self.frame_mut();
        f.iter_depth -= 1;
        for slot in f.iter_defined.drain(mark..) {
            f.slots[slot] = None;
        }
        result.map(|_| ())
    }

    /// The static seed ([`Trip::seed`]) of a site with a plan: the
    /// inspector, run here for every team member — the on-clause scan and
    /// the walk, with that member's rank as `me` — and the needs routed as
    /// the request round would deliver them, so this member holds the
    /// schedule its own inspection would build, without communicating. A
    /// plan's walk records reads and computes no value, and its subscripts
    /// read no array: it is a function of SPMD-uniform data, and every
    /// member derives the same schedules. `None` when a member's walk
    /// fails: the inspector then runs, and reports it.
    fn seed_schedule(
        &mut self,
        d: &'p RDoall,
        bounds: &[(i64, i64, i64)],
        team: &Team,
        arrays: &[ExchangeArray],
    ) -> Option<CommSchedule> {
        let (me, mut mine, mut reqs) = (self.me, None, Vec::with_capacity(team.len()));
        for &rank in team.ranks() {
            self.me = rank;
            let walk = self.scan(d, bounds).and_then(|iters| self.walk(d, &iters));
            self.me = me;
            let st = walk.ok()?;
            reqs.push(self.compute_requests(team, arrays, &st).ok()?);
            mine = mine.or((rank == me).then_some(st));
        }
        let (st, ti) = (mine?, team.index_of(me)?);
        let incoming = reqs.iter().map(|r| r[ti].clone()).collect();
        if unfetched(&st, arrays).is_some() {
            return None;
        }
        let my_reqs = reqs.swap_remove(ti);
        Some(schedule(my_reqs, incoming, st.writes, st.boundary))
    }

    /// Does the on-clause assign the current iteration to `me`?
    fn on_clause_names_me(&mut self, on: &RProcExpr) -> RtResult<bool> {
        let me = self.me();
        match on {
            RProcExpr::Owner(slot, subs) => {
                let (view, base_subs) = self.owner_base_subs(*slot, subs)?;
                let base = view.base.borrow();
                base.owner_set_contains(me, &base_subs[..view.map.len()])
            }
            pe => Ok(self.eval_proc_expr(pe)?.contains(me)),
        }
    }

    /// The distributed arrays the body reads, one entry per distinct
    /// base, in static (first-appearance) order: the doall's *exchange
    /// list*. It is a function of the body text and the frame's bindings
    /// alone — never of what an inspection finds — so a schedule cached
    /// under an equal key lists exactly these arrays, and one scan serves
    /// as the executor's world, the schedule's encoding, and the
    /// inspector's routing table. A batch of lines lists each array once,
    /// at its first line.
    fn exchange_arrays(&self, d: &RDoall) -> RtResult<Vec<ExchangeArray>> {
        let mut arrays: Vec<ExchangeArray> = Vec::new();
        for r in &d.reads {
            let view = match self.slot(r.slot) {
                Some(Binding::Array(view)) => view,
                // Scalars and processor arrays move no data.
                Some(_) => continue,
                None if r.may_be_unbound => continue,
                None => {
                    let name = self.name(r.slot);
                    let d = Diagnostic::new(
                        "A001",
                        r.span,
                        format!(
                            "doall exchange: `{name}` is referenced in the loop body but \
                             has no binding; refusing to skip it (a remote read of \
                             `{name}` would silently see stale values)"
                        ),
                        &self.prog.src,
                    )
                    .with_note("declare the array or bind it as a parameter");
                    return Err(d.render(&self.prog.src));
                }
            };
            if view.base.borrow().replicated()
                || arrays.iter().any(|a| Rc::ptr_eq(&a.base, &view.base))
            {
                continue;
            }
            arrays.push(ExchangeArray {
                origin: view_origin_flat(view)?,
                base: view.base.clone(),
            });
        }
        Ok(arrays)
    }

    /// The four-phase doall engine — one trip of `kali-sched`'s driver.
    /// The driver owns the protocol (vote gate, lookup, vote, post,
    /// complete, scatter, rollback, store) and its bookkeeping; this
    /// function hands it the interpreter's data — the cache key, the
    /// inspector as schedule builder, the exchange list as world and wire
    /// encoding, and, with [`RunOptions::static_seed`], the inspector of
    /// every member as the seed of a site with a plan — and executes the
    /// iterations around it: interior while the messages fly, the rest
    /// after completion.
    fn run_inspector_executor(
        &mut self,
        d: &'p RDoall,
        work: Work,
        bounds: &[(i64, i64, i64)],
    ) -> RtResult<()> {
        let (team, lifted) = (self.frame().grid.team(), self.frame().lift.is_some());
        let arrays = self.exchange_arrays(d)?;
        let mut world = LangWorld::new(&arrays);
        let trip = Trip {
            exec: EXEC,
            policy: self.policy,
            team: team.clone(),
            sits_out: false,
            // A trip nested in another's iterations runs uncached: the
            // outer trip has the cache.
            key: match self.schedules {
                Some(_) => self.schedule_cache_key(d, &team, work),
                None => None,
            },
        };
        // The cache is lent to the driver for the trip, because the
        // builder it calls back needs the whole interpreter.
        let mut cache = self.schedules.take();
        let mut cache_ref = cache.as_mut();

        if self.static_seed && d.plan.is_some() && !lifted {
            trip.seed(self, cache_ref.as_deref_mut(), |me: &mut Self| {
                me.seed_schedule(d, bounds, &team, &arrays)
            });
        }
        let build = |me: &mut Self, _: &LangWorld| match work {
            Work::Walk(iters) => me.inspect(d, &team, &arrays, iters),
            Work::Placed(p) => me.inspect_placed(d, p, &team, &arrays),
        };
        let split = self.policy.split;
        let result = (|| {
            let mut flight = trip.begin(self, cache_ref.as_deref_mut(), &world, build)?;
            let mut interior_run = None;
            let sched = loop {
                let phase = if split {
                    "doall:post"
                } else {
                    "doall:exchange"
                };
                self.proc.mark(phase);
                // Interior iterations read no remote element and my key
                // matched my own arrays, so they are safe to run before
                // the team's verdict is known — and stay valid if it is
                // a rollback, whose cold re-run then has nothing left to
                // overlap. A batch of lone lines waits for an open verdict
                // instead: after it, they write through and run compiled.
                let wait = matches!(work, Work::Walk(s) if lifted && s.len() <= 1);
                let early = flight
                    .interior_schedule()
                    .filter(|_| !wait || flight.decided());
                if let (None, Some(pre)) = (&interior_run, early) {
                    self.proc.mark("doall:interior");
                    let (n, boundary) = (work.len(), &pre.boundary);
                    // The walker's writes come back as a log; a placed
                    // site's stay in its scratch.
                    let log = match work {
                        Work::Walk(my_iters) => {
                            let interior = interior_runs(boundary, n).flatten();
                            // A lone iteration has no other to hide its
                            // writes from (lines bind disjoint storage), so
                            // once nothing will be served from storage
                            // again — a final verdict, or nothing to run
                            // before it — it writes through.
                            let decided = flight.decided() || boundary.len() == n;
                            let through = my_iters.len() <= 1 && decided;
                            let log = WriteLog::new(pre.write_hint, n, through);
                            Some(self.exec_iterations(d, my_iters, interior, log)?)
                        }
                        Work::Placed(p) => {
                            let scratch = &mut self.scratch[d.site];
                            debug_assert_eq!(*boundary, p.inspect(scratch, |_, _| {}));
                            let interior = interior_runs(boundary, n);
                            p.exec(interior, scratch, self.proc);
                            None
                        }
                    };
                    interior_run = Some((pre, log));
                }
                if split {
                    self.proc.mark("doall:complete");
                }
                let cache = cache_ref.as_deref_mut();
                match flight.finish(self, cache, &mut world, build)? {
                    Finished::Done(sched) => break sched,
                    Finished::RolledBack(cold) => flight = cold,
                }
            };
            match interior_run {
                // The rest is the complement of what actually ran; a
                // rebuilt schedule classifies identically (equal key).
                Some((pre, log)) => {
                    debug_assert_eq!(pre.boundary, sched.boundary);
                    self.proc.mark("doall:boundary");
                    self.finish_execution(d, work, Some((&pre.boundary, log)), 0)
                }
                None => {
                    self.proc.mark("doall:execute");
                    self.finish_execution(d, work, None, sched.write_hint)
                }
            }
        })();
        self.schedules = cache;
        result
    }

    /// The inspector — this consumer's schedule builder. Runs the body
    /// in inspect mode to discover my iterations' remote reads and
    /// classify each iteration as interior (all reads local) or boundary
    /// (≥ 1 remote read), routes each exchange array's remote needs to
    /// their owners, and runs the request round, after which every team
    /// member also knows what its peers will ask of it.
    fn inspect(
        &mut self,
        d: &'p RDoall,
        team: &Team,
        arrays: &[ExchangeArray],
        my_iters: &IterSet,
    ) -> RtResult<CommSchedule> {
        self.proc.mark("doall:inspect");
        let st = self.walk(d, my_iters)?;
        self.route(team, arrays, st)
    }

    /// The inspector's walk of `my_iters`: what they read remotely, in
    /// first-touch order, what they write, and which read a remote
    /// element. It charges no time and sends nothing.
    fn walk(&mut self, d: &'p RDoall, my_iters: &IterSet) -> RtResult<InspectState> {
        let sched = d
            .cacheable
            .then(|| sched_names(d, |s| matches!(self.slot(s), Some(Binding::Array(_)))));
        self.mode = Mode::Inspect(InspectState {
            sched,
            ..InspectState::default()
        });
        let walked = my_iters.iter().enumerate().try_for_each(|(pos, it)| {
            if let Mode::Inspect(st) = &mut self.mode {
                st.pos = pos;
            }
            self.run_iteration(d, it)
        });
        match std::mem::replace(&mut self.mode, Mode::Normal) {
            Mode::Inspect(st) => walked.map(|()| st),
            _ => unreachable!(),
        }
    }

    /// The inspector without the walk: a placed site's boundary and
    /// remote reads ([`Placed::inspect`]) — the lists the walk would
    /// record, in its order — are routed as the walker's are, so the
    /// schedule is the inspector's, word for word.
    fn inspect_placed(
        &mut self,
        d: &RDoall,
        placed: &Placed,
        team: &Team,
        arrays: &[ExchangeArray],
    ) -> RtResult<CommSchedule> {
        self.proc.mark("doall:inspect");
        let mut st = InspectState::default();
        st.boundary = placed.inspect(&self.scratch[d.site], |base, flat| st.record(base, flat));
        st.writes = placed.len();
        self.route(team, arrays, st)
    }

    /// Both inspectors' second half: route each exchange array's remote
    /// needs to their owners and run the request round, after which every
    /// team member also knows what its peers will ask of it.
    fn route(
        &mut self,
        team: &Team,
        arrays: &[ExchangeArray],
        st: InspectState,
    ) -> RtResult<CommSchedule> {
        let my_reqs = self.compute_requests(team, arrays, &st)?;
        // Every array the inspector recorded remote reads for must take
        // part in the exchange; anything missed would execute on stale
        // values.
        if let Some((arr, flats)) = unfetched(&st, arrays) {
            return Err(format!(
                "inspector recorded {} remote read(s) of {} but the exchange phase \
                 did not fetch them (stale-read hazard)",
                flats.len(),
                arr.borrow().name
            ));
        }

        // ---- The request round: one message per peer, posted
        // nonblocking in split-phase mode, a blocking all-to-all otherwise.
        let incoming = if self.policy.split {
            ScheduleExecutor::request_round(SPLIT_REQUEST_TAG, self.proc, team, &my_reqs)
        } else {
            collective::alltoallv(self.proc, team, my_reqs.clone())
        };
        Ok(schedule(my_reqs, incoming, st.writes, st.boundary))
    }

    /// Run the iterations at `positions` (indices into `my_iters`) under
    /// Execute mode, appending their writes to `log` — one segment per
    /// iteration, so a caller that executes iterations out of order can
    /// still commit writes in original iteration order.
    fn exec_iterations(
        &mut self,
        d: &'p RDoall,
        my_iters: &IterSet,
        positions: impl IntoIterator<Item = usize>,
        log: WriteLog,
    ) -> RtResult<WriteLog> {
        self.mode = Mode::Execute(log);
        for pos in positions {
            self.run_iteration(d, my_iters.get(pos))?;
            if let Mode::Execute(log) = &mut self.mode {
                log.end_iteration();
            }
        }
        match std::mem::replace(&mut self.mode, Mode::Normal) {
            Mode::Execute(log) => Ok(log),
            _ => unreachable!(),
        }
    }

    /// The tail of every trip: run the iterations still to do — the
    /// **boundary** after an interior that ran in flight (`ran`: its
    /// boundary and the walker's log of it), or all of them when none
    /// could — against freshened storage, then commit all buffered writes
    /// (copy-in/copy-out). Run after the verdict, a lone iteration writes
    /// through.
    fn finish_execution(
        &mut self,
        d: &'p RDoall,
        work: Work,
        ran: Option<(&[usize], Option<WriteLog>)>,
        write_hint: usize,
    ) -> RtResult<()> {
        let n = work.len();
        let (boundary, log) = ran.map_or((None, None), |(b, log)| (Some(b), log));
        // With nothing run before, every position runs here, in order.
        let rest = boundary.unwrap_or_default().iter().map(|&p| p..p + 1);
        let rest = rest.chain(boundary.is_none().then_some(0..n));
        match work {
            Work::Walk(my_iters) => {
                // Committed as segments: the interior's first, then the
                // rest's, of an empty boundary's complement if nothing ran.
                let segs = log.as_ref().map_or(0, |log| log.seg_ends.len());
                let log = log.unwrap_or_else(|| WriteLog::new(write_hint, n, my_iters.len() <= 1));
                let log = self.exec_iterations(d, my_iters, rest.flatten(), log)?;
                self.proc.memop(log.writes() as f64);
                log.commit(boundary.unwrap_or_default(), segs, n);
            }
            Work::Placed(p) => {
                let scratch = &mut self.scratch[d.site];
                p.exec(rest, scratch, self.proc);
                p.commit(scratch, self.proc);
            }
        }
        Ok(())
    }

    /// Route each exchange entry's remote needs in `st` to their owners:
    /// one request vector per team member, the entries' requests in entry
    /// order, each flat as the trip's one schedule array carries it
    /// ([`span`]). Purely local — the request *round* itself runs through
    /// the shared executor (or a blocking all-to-all in blocking mode).
    fn compute_requests(
        &self,
        team: &Team,
        arrays: &[ExchangeArray],
        st: &InspectState,
    ) -> RtResult<Vec<Vec<u64>>> {
        let (span, mut reqs) = (span(arrays), vec![Vec::new(); team.len()]);
        let mut idxs = [0i64; MAX_RANK];
        for (e, a) in arrays.iter().enumerate() {
            let b = a.base.borrow();
            for &flat in st.needs_of(&a.base) {
                let owner = b
                    .owner_of(b.unflat_into(flat, &mut idxs))
                    .ok_or_else(|| format!("element of {} has no owner", b.name))?;
                let Some(ti) = team.index_of(owner) else {
                    return Err(format!(
                        "owner rank {owner} of {} is outside the current processor array",
                        b.name
                    ));
                };
                reqs[ti].push(e as u64 * span + span / 2 + flat as u64 - a.origin);
            }
        }
        Ok(reqs)
    }

    /// Request/reply exchange bringing `my_needs` (flat indices of remote
    /// elements of `base`) into local storage — an uncached one-shot
    /// schedule executed blocking through the shared engine, used by
    /// `distribute`.
    fn fetch_remote(&mut self, team: &Team, base: &ArrRef, my_needs: Vec<usize>) -> RtResult<()> {
        let arrays = [ExchangeArray {
            base: base.clone(),
            origin: 0,
        }];
        let st = InspectState {
            needs: vec![(base.clone(), my_needs)],
            ..InspectState::default()
        };
        let my_reqs = self.compute_requests(team, &arrays, &st)?;
        let incoming = collective::alltoallv(self.proc, team, my_reqs.clone());
        let sched = schedule(my_reqs, incoming, 0, Vec::new());
        EXEC.exchange_blocking(self.proc, team, &sched, &mut LangWorld::new(&arrays));
        Ok(())
    }

    // ---------- schedule cache ----------

    /// Build the cache key for this invocation, or `None` when the site is
    /// not cacheable: a name in a schedule-relevant position (subscript,
    /// branch condition, `do` bound, builtin argument) resolves to an
    /// array — its *values* could steer the inspector — or the body calls
    /// a user subroutine / nests constructs whose communication this scan
    /// cannot prove invariant.
    fn schedule_cache_key(&mut self, d: &RDoall, team: &Team, work: Work) -> Option<ScheduleKey> {
        if !d.cacheable {
            return None;
        }
        let mut words = std::mem::take(&mut self.key_buf);
        words.clear();
        // Batches of different sizes are different collectives: the first
        // of a size builds without a vote, as a site's first trip does.
        let lines = match work {
            Work::Walk(_) => self.frame().lift.as_ref().map_or(0, |l| l.lines),
            _ => 0,
        };
        let key = self
            .key_words(d, team, work, &mut words)
            .map(|()| ScheduleKey {
                site: d.site * (LINES_PER_BATCH + 1) + lines,
                words: words.to_vec(),
            });
        self.key_buf = words;
        key
    }

    /// Write the words of [`ScheduleKey`] after its site, in its order,
    /// into `w`; `None` as for [`Interp::schedule_cache_key`].
    fn key_words(&mut self, d: &RDoall, team: &Team, work: Work, w: &mut Vec<usize>) -> Option<()> {
        let mut sched = sched_names(d, |s| matches!(self.slot(s), Some(Binding::Array(_))));
        sched.sort_unstable();
        let int = |i: i64| i as usize;
        w.push(team.len());
        w.extend_from_slice(team.ranks());
        match work {
            Work::Walk(iters) => {
                match &self.frame().lift {
                    Some(lift) => {
                        w.extend([lift.lines, lift.moves.len()]);
                        let moves = lift.moves.iter();
                        w.extend(moves.flat_map(|&(slot, dim, _, step, _)| [slot, dim, int(step)]));
                    }
                    None => w.push(0),
                }
                w.extend([iters.arity, iters.flat.len()]);
                w.extend(iters.flat.iter().map(|&i| int(i)));
            }
            Work::Placed(p) => {
                w.push(1);
                w.extend(p.bx.iter().flat_map(|&(lo, hi)| [int(lo), int(hi)]));
            }
        }
        // Only schedule-relevant scalars belong in the key: a scalar that
        // feeds values but never subscripts or control flow (e.g. the
        // enclosing do's counter) cannot change what the inspector would
        // discover. Values compare as `Value`s do: -0.0 as 0.0, and a NaN
        // as nothing at all.
        let count = w.len();
        w.push(0);
        for &n in &d.names {
            if let Some(&Binding::Scalar(v)) = self.slot(n) {
                if sched.binary_search(&n).is_ok() {
                    let (tag, bits) = match v {
                        Value::Int(i) => (0, int(i)),
                        Value::Real(x) if x.is_nan() => {
                            self.nan_keys += 1;
                            (2, self.nan_keys)
                        }
                        Value::Real(x) => (1, (x + 0.0).to_bits() as usize),
                    };
                    w[count] += 1;
                    w.extend([n, tag, bits]);
                }
            }
        }
        let count = w.len();
        w.push(0);
        for &n in &sched {
            if let Some(Binding::Array(view)) = self.slot(n) {
                let b = view.base.borrow();
                // A distributed array's remote values cannot key a local
                // decision; replicated ones are locally visible, and keying
                // on their content keeps the cached schedule exactly as
                // fresh as the data it was derived from.
                if !b.replicated() {
                    return None;
                }
                w[count] += 1;
                w.extend([n, data_fingerprint(&b.data) as usize]);
            }
        }
        let views = || {
            let bound = d.names.iter().map(|&n| (n, self.slot(n)));
            bound.filter_map(|(n, b)| match b {
                Some(Binding::Array(view)) => Some((n, view)),
                _ => None,
            })
        };
        w.push(views().count());
        for (i, (n, view)) in views().enumerate() {
            let same = |(_, v): &(Slot, &View)| Rc::ptr_eq(&v.base, &view.base);
            // The first entry sharing this array object, this entry's own
            // position when unique: aliased bindings differ from merely
            // look-alike ones.
            let alias_of = views().position(|e| same(&e)).unwrap_or(i);
            let aliased = views().filter(same).count() > 1;
            let b = view.base.borrow();
            let grid = b.layout.grid();
            // The rank fixes how many bounds, maps and view dimensions
            // follow, the grid's rank how many extents, their product how
            // many ranks, and the view's ranged dimensions how many lower
            // bounds. A `distribute` bumps `dist_gen` even when it
            // restores a structurally identical layout.
            w.extend([n, b.ndims()]);
            w.extend(b.bounds.iter().flat_map(|&(lo, hi)| [int(lo), int(hi)]));
            for m in b.layout.spec().maps() {
                match *m {
                    DimMap::Local => w.push(0),
                    DimMap::Dist(DimDist::Block) => w.push(1),
                    DimMap::Dist(DimDist::Cyclic) => w.push(2),
                    DimMap::Dist(DimDist::BlockCyclic(k)) => w.extend([3, k]),
                }
            }
            w.push(grid.ndims());
            w.extend(grid.extents().iter().chain(grid.ranks()));
            w.push(b.dist_gen as usize);
            // Fixed coordinates of *unaliased* bases are normalized to the
            // owner's grid coordinate along that dimension (0 for an
            // undistributed one): ownership is a tensor product of
            // per-dimension maps, so two invocations whose fixed
            // coordinates land on the same owners (with everything else
            // equal) provably need translation-equivalent communication.
            // That collapses ADI's per-line views `x = u(i, *)` to one key
            // per row/column team instead of one per value of `i`; the line
            // difference needs no recovery, since the schedule carries
            // every flat relative to its exchange array's origin
            // ([`span`]). Aliased bases keep absolute coordinates: one
            // exchange entry, one origin, cannot serve two views.
            for (dim, m) in view.map.iter().enumerate() {
                let (lo, hi) = b.bounds[dim];
                match *m {
                    ViewDim::Range(lo, hi) => w.extend([2, int(lo), int(hi)]),
                    ViewDim::Fixed(v) if aliased || v < lo || v > hi => w.extend([1, int(v)]),
                    ViewDim::Fixed(v) => {
                        w.extend([0, b.layout.dists()[dim].owner((v - lo) as usize)]);
                    }
                }
            }
            w.extend(view.callee_lo.iter().map(|&lo| int(lo)));
            w.push(alias_of);
        }
        Some(())
    }

    /// `distribute a (block, cyclic, *)`: move the array's data to the
    /// owners under the new `dist` clause and bump its distribution
    /// generation so no stale schedule can ever be replayed against it.
    fn exec_distribute(&mut self, slot: Slot, dist: &DistSpec) -> RtResult<()> {
        let name = self.name(slot);
        if !matches!(self.mode, Mode::Normal) || self.doall_depth > 0 {
            return Err(format!(
                "distribute {name} is only legal in replicated code outside any doall"
            ));
        }
        let base = self
            .array(slot, |n| format!("distribute: {n} is not an array"))?
            .base
            .clone();
        let me = self.me();
        let (needs, team, layout) = {
            let b = base.borrow();
            if b.replicated() {
                return Err(format!(
                    "distribute {name}: the array is replicated; only distributed \
                     arrays can change owners"
                ));
            }
            let extents: Vec<usize> = (0..b.ndims()).map(|d| b.extent(d)).collect();
            let layout = Layout::new(dist, &extents, b.layout.grid())
                .map_err(|e| format!("distribute {name}: {e}"))?;
            let mut needs = Vec::new();
            let mut idxs = [0i64; MAX_RANK];
            for flat in 0..b.total_len() {
                let idxs = b.unflat_into(flat, &mut idxs);
                if b.owner_in(&layout, idxs) == Some(me) && !b.owned_by(me, idxs) {
                    needs.push(flat);
                }
            }
            (needs, b.layout.grid().team(), layout)
        };
        if team != self.frame().grid.team() {
            return Err(format!(
                "distribute {name}: the array's processor grid does not match the \
                 current processor array"
            ));
        }
        // Fetch the newly owned elements while the *old* ownership map
        // still routes the requests, then flip the map.
        self.fetch_remote(&team, &base, needs)?;
        let mut b = base.borrow_mut();
        b.layout = layout;
        b.bump_dist_gen();
        Ok(())
    }

    /// The starred subscripts of `owner(a(...))`, evaluated and
    /// translated through `a`'s view into base-array starred subscripts
    /// (`None` = `*`, one per dimension of the view's map).
    fn owner_base_subs(
        &mut self,
        slot: Slot,
        subs: &[Option<RExpr>],
    ) -> RtResult<(&View, [Option<i64>; MAX_RANK])> {
        let not_array = |n: &str| format!("owner(): {n} is not an array");
        let rank = self.array(slot, not_array)?.ndims();
        if subs.len() != rank {
            return Err(format!(
                "owner(): rank mismatch ({} subscripts on rank-{rank} section)",
                subs.len()
            ));
        }
        let mut callee = [None; MAX_RANK];
        for (c, s) in callee.iter_mut().zip(subs) {
            if let Some(e) = s {
                *c = Some(self.eval(e)?.as_int());
            }
        }
        let view = self.array(slot, not_array)?;
        let mut out = [None; MAX_RANK];
        let mut d = 0usize;
        for (bd, (o, m)) in out.iter_mut().zip(&view.map).enumerate() {
            *o = match *m {
                ViewDim::Fixed(v) => Some(v),
                ViewDim::Range(lo, _) => {
                    d += 1;
                    let at = |i: i64| i.checked_sub(view.callee_lo[d - 1])?.checked_add(lo);
                    let out_of_bounds = |i| {
                        let base = view.base.borrow();
                        let (l, h) = base.bounds[bd];
                        format!("owner subscript {i} of {} out of bounds {l}:{h}", base.name)
                    };
                    let i = callee[d - 1].map(|i| at(i).ok_or_else(|| out_of_bounds(i)));
                    i.transpose()?
                }
            };
        }
        Ok((view, out))
    }

    fn grid_of(&self, slot: Slot) -> RtResult<&ProcGrid> {
        match self.slot(slot) {
            Some(Binding::Grid(g)) => Ok(g),
            _ => Err(format!("{} is not a processor array", self.name(slot))),
        }
    }

    /// `procs(e, *, e)`: the slice of processor array `slot` the pinned
    /// coordinates select. The pins live on the stack, the grid stays
    /// where it is bound.
    fn select_procs(&mut self, slot: Slot, subs: &[Option<RExpr>]) -> RtResult<ProcGrid> {
        let name = self.name(slot);
        if subs.len() != self.grid_of(slot)?.ndims() {
            return Err(format!("processor selection rank mismatch on {name}"));
        }
        let (mut pins, mut n) = ([(0, 0); MAX_RANK], 0);
        for (d, s) in subs.iter().enumerate() {
            if let Some(e) = s {
                let v = self.eval(e)?.as_int();
                let extent = self.grid_of(slot)?.extent(d);
                // KF1 processor arrays are 1-based.
                if v < 1 || v as usize > extent {
                    return Err(format!(
                        "processor index {v} out of range 1..{extent} on {name}"
                    ));
                }
                let Some(pin) = pins.get_mut(n) else {
                    return Err(format!(
                        "processor selection on {name} pins more than {MAX_RANK} dimensions"
                    ));
                };
                (*pin, n) = ((d, v as usize - 1), n + 1);
            }
        }
        Ok(self.grid_of(slot)?.pin(&pins[..n]))
    }

    fn eval_proc_expr(&mut self, pe: &RProcExpr) -> RtResult<ProcGrid> {
        match pe {
            RProcExpr::Whole(slot) => self.grid_of(*slot).cloned(),
            RProcExpr::Select(slot, subs) => self.select_procs(*slot, subs),
            RProcExpr::Owner(slot, subs) => {
                let (view, base_subs) = self.owner_base_subs(*slot, subs)?;
                let grid = view.base.borrow().owner_grid(&base_subs[..view.map.len()]);
                grid
            }
        }
    }

    // ---------- calls ----------

    fn exec_call(
        &mut self,
        callee: &'p Callee,
        args: &'p [RArg],
        on: Option<&RProcExpr>,
    ) -> RtResult<()> {
        let (k, sub) = match callee {
            Callee::Builtin(b) => return self.exec_builtin(*b, args),
            Callee::Unknown(name) => return Err(format!("no subroutine named {name}")),
            Callee::Sub(k) => (*k, &self.prog.code[*k]),
        };
        if matches!(self.mode, Mode::Inspect(_) | Mode::Execute(_)) && sub.parallel {
            return Err(format!(
                "parallel call to {} inside a data-parallel doall body",
                sub.name
            ));
        }
        match self.call_frame(sub, args, on)? {
            Some((bindings, grid)) => self.call_sub(k, bindings, grid),
            None => Ok(()), // not a member: skip the distributed call
        }
    }

    /// The bindings and processor array of a call to `sub`, `None` on a
    /// processor the distributed call skips. The arity is checked first,
    /// so that every processor reports a mismatch, members or not.
    #[allow(clippy::type_complexity)]
    fn call_frame(
        &mut self,
        sub: &'p RSub,
        args: &'p [RArg],
        on: Option<&RProcExpr>,
    ) -> RtResult<Option<(Vec<(usize, Binding)>, ProcGrid)>> {
        if sub.params.len() != args.len() {
            return Err(format!(
                "{} takes {} arguments, got {}",
                sub.name,
                sub.params.len(),
                args.len()
            ));
        }
        let team = match on {
            Some(pe) => self.eval_proc_expr(pe)?,
            None => self.frame().grid.clone(),
        };
        if sub.parallel && !team.contains(self.me()) {
            return Ok(None);
        }
        let mut bindings = Vec::with_capacity(args.len() + 1);
        for (&p, a) in sub.params.iter().zip(args) {
            let b = match a {
                RArg::Expr(RExpr::Var(v, _)) => match self.slot(*v) {
                    Some(b) => b.clone(),
                    None => return Err(format!("undefined argument {}", self.name(*v))),
                },
                RArg::Expr(e) => Binding::Scalar(self.eval(e)?),
                RArg::Section(slot, subs, _) => {
                    Binding::Array(self.make_section_view(*slot, subs)?)
                }
            };
            bindings.push((p, b));
        }
        if let Some(pp) = sub.proc_param {
            bindings.push((pp, Binding::Grid(team.clone())));
        }
        // Distributed procedures run on the narrowed processor array;
        // sequential ones run replicated on the current one.
        let callee_grid = if sub.parallel {
            team
        } else {
            self.frame().grid.clone()
        };
        Ok(Some((bindings, callee_grid)))
    }

    /// A team-call doall ([`Kind::Lines`]): in the lifted class (`batch`)
    /// and of a callee in it ([`RSub::lockstep`]), my lines
    /// grouped by the team that solves them, in iteration order, and
    /// cut into batches of at most [`LINES_PER_BATCH`] — every member of a
    /// team enumerates the same lines, so every member cuts the same
    /// batches — each batch one activation where it can be ([`lift`]);
    /// line by line otherwise.
    fn run_lines(&mut self, d: &'p RDoall, my_iters: &IterSet, batch: bool) -> RtResult<()> {
        let (k, args, on) = match &d.body[..] {
            [RStmt::Call {
                callee: Callee::Sub(k),
                args,
                on,
                ..
            }] if batch && self.prog.code[*k].lockstep => (*k, args, on),
            _ => return my_iters.iter().try_for_each(|it| self.run_iteration(d, it)),
        };
        let sub = &self.prog.code[k];
        let mut teams: Vec<(ProcGrid, Vec<Vec<(Slot, Binding)>>)> = Vec::new();
        for it in my_iters.iter() {
            self.set_loop_vars(d, it);
            let Some((bindings, grid)) = self.call_frame(sub, args, on.as_ref())? else {
                continue;
            };
            match teams.iter_mut().find(|(g, _)| *g == grid) {
                Some((_, lines)) => lines.push(bindings),
                None => teams.push((grid, vec![bindings])),
            }
        }
        for (grid, lines) in teams {
            let mut lines = lines.into_iter().peekable();
            while lines.peek().is_some() {
                let mut batch: Vec<_> = lines.by_ref().take(LINES_PER_BATCH).collect();
                match lift(&batch) {
                    Some(lift) => {
                        self.activate(k, batch.swap_remove(0), grid.clone(), Some(lift))?
                    }
                    None => {
                        (batch.into_iter()).try_for_each(|b| self.call_sub(k, b, grid.clone()))?
                    }
                }
            }
        }
        Ok(())
    }

    fn make_section_view(&mut self, slot: Slot, subs: &[RSection]) -> RtResult<View> {
        let name = self.name(slot);
        let not_array = |n: &str| format!("{n} is not an array");
        let view = self.array(slot, not_array)?;
        if subs.len() != view.ndims() {
            return Err(format!("section rank mismatch on {name}"));
        }
        let base = view.base.clone();
        let base_rank = view.map.len();
        let mut map = Vec::with_capacity(base_rank);
        let mut callee_lo = Vec::new();
        let mut d = 0usize;
        for bd in 0..base_rank {
            // One dimension at a time, the view re-borrowed around the
            // evaluation of that dimension's bounds.
            let view = self.array(slot, not_array)?;
            let (lo, hi) = match view.map[bd] {
                ViewDim::Fixed(v) => {
                    map.push(ViewDim::Fixed(v));
                    continue;
                }
                ViewDim::Range(lo, hi) => (lo, hi),
            };
            let outer_lo = view.callee_lo[d];
            let at = |i: i64| i.checked_sub(outer_lo).and_then(|o| lo.checked_add(o));
            match &subs[d] {
                RSection::Index(e) => {
                    let i = self.eval(e)?.as_int();
                    let i = at(i).ok_or_else(|| format!("section {i} of {name} out of range"))?;
                    map.push(ViewDim::Fixed(i));
                }
                // `a(k:k - 1)`, for `k` up to one past the end, is empty.
                RSection::Range(e1, e2) => {
                    let a = self.eval(e1)?.as_int();
                    let b = self.eval(e2)?.as_int();
                    let Some((base_a, base_b)) = at(a)
                        .zip(at(b))
                        .filter(|&(x, y)| x >= lo && y <= hi && y >= x.saturating_sub(1))
                    else {
                        return Err(format!("section {a}:{b} of {name} out of range"));
                    };
                    map.push(ViewDim::Range(base_a, base_b));
                    callee_lo.push(1);
                }
                RSection::All => {
                    map.push(ViewDim::Range(lo, hi));
                    callee_lo.push(outer_lo);
                }
            }
            d += 1;
        }
        Ok(View {
            base,
            map,
            callee_lo,
        })
    }

    /// A 1-D section argument of builtin `name` and its length, every
    /// element of it this processor's.
    fn local_section(&self, name: &str, v: &View) -> RtResult<(Strided, usize)> {
        let (lo, n, me) = (v.callee_lo[0], v.extent(0), self.me());
        if let Some(s) = Strided::of(v, &[lo], 0, (lo, lo + n as i64 - 1), Some(me)) {
            return Ok((s, n));
        }
        // An element outside the array, or one another processor owns.
        let (b, mut idxs) = (v.base.borrow(), [0; MAX_RANK]);
        b.flat(v.to_base_into(&[lo; MAX_RANK], 1, &mut idxs)?)?;
        let arr = &b.name;
        Err(format!(
            "builtin {name}: section of {arr} is not local to processor {me}"
        ))
    }

    /// Read row `r` of section `s` into `vals` as the iteration now
    /// executing sees it: its own writes included, like element reads.
    fn read_section(&self, s: &Strided, r: usize, vals: &mut [f64]) {
        s.load(r, 0, vals);
        for (t, v) in vals.iter_mut().enumerate() {
            if let Some(w) = self.mode.written(&s.base, s.flat(r, t)) {
                *v = w;
            }
        }
    }

    /// Built-in sequential kernels (`reduce`, `seqtri`, `spmv`) operating
    /// on 1-D sections — fully local, except `spmv`'s gathered operand.
    fn exec_builtin(&mut self, builtin: Builtin, args: &[RArg]) -> RtResult<()> {
        if builtin == Builtin::Spmv {
            return self.exec_spmv(args);
        }
        let name = builtin.name();
        let mut sections = Vec::with_capacity(args.len());
        for a in args {
            match a {
                RArg::Section(slot, subs, _) => {
                    let v = self.make_section_view(*slot, subs)?;
                    if v.ndims() != 1 {
                        return Err(format!("builtin {name}: sections must be 1-D"));
                    }
                    if v.extent(0) == 0 {
                        let arr = &v.base.borrow().name;
                        return Err(format!("builtin {name}: the section of {arr} is empty"));
                    }
                    let (mut s, n) = self.local_section(name, &v)?;
                    s.row = self.line_step(*slot);
                    sections.push((s, n));
                }
                // Scalar arguments (the length) are evaluated for their
                // errors only, by the executor: the sections carry their
                // own extents.
                RArg::Expr(e) if matches!(self.mode, Mode::Inspect(_)) => self.record_reads(e)?,
                RArg::Expr(e) => {
                    self.eval(e)?;
                }
            }
        }
        // The kernels take sections of one length, `reduce` two rows at least.
        let least = if builtin == Builtin::Reduce { 2 } else { 1 };
        let m = sections.first().map_or(least, |sec| sec.1);
        if m < least || sections.iter().any(|sec| sec.1 != m) {
            let lens: Vec<usize> = sections.iter().map(|sec| sec.1).collect();
            return Err(format!("builtin {name}: bad section lengths {lens:?}"));
        }
        // reduce(b, a, c, f, n) reduces its sections in place; seqtri(x,
        // b, a, c, f, n) solves and stores into x.
        let (arity, outputs, flops) = match builtin {
            Builtin::Reduce => (4, 0..4, reduce_flops(m)),
            _ => (5, 0..1, thomas_flops(m)),
        };
        // A batch's sections are placed once, a row per line.
        let lines = self.lines();
        if let Mode::Inspect(st) = &mut self.mode {
            // Locality validated; no mutation during inspection — only
            // the count of what the executor will write back.
            st.writes += lines.len() * outputs.len().min(sections.len()) * m;
            return Ok(());
        }
        if sections.len() != arity {
            let sig = [
                "reduce(b, a, c, f, n) needs four",
                "seqtri(x, b, a, c, f, n) needs five",
            ];
            return Err(format!("{} sections", sig[arity - 4]));
        }
        // Written through, contiguous sections of distinct arrays are the
        // kernels' slices of storage, borrowed once for the call; elsewhere
        // they are copied in and out of one buffer. Nothing is allocated
        // per line.
        let through = match &self.mode {
            Mode::Execute(log) => log.through.is_some(),
            mode => matches!(mode, Mode::Normal),
        };
        let apart = |(i, (s, _)): (usize, &(Strided, usize))| {
            let other = |(t, _): &(Strided, usize)| !Rc::ptr_eq(&s.base, &t.base);
            s.span(0, m).is_some() && sections[..i].iter().all(other)
        };
        let in_place = through && sections.iter().enumerate().all(apart);
        let mut bases: Vec<_> = (sections.iter().filter(|_| in_place))
            .map(|s| s.0.base.borrow_mut())
            .collect();
        let mut copies = vec![0.0; if in_place { 0 } else { arity * m }];
        let mut pivots = Vec::new();
        for r in 0..lines.len() {
            if in_place {
                let at = bases.iter_mut().zip(&sections);
                let slices = at.map(|(a, s)| &mut a.data[s.0.span(r, m).expect("contiguous")]);
                run_builtin(builtin, slices, &mut pivots);
            } else {
                for (vals, s) in copies.chunks_mut(m).zip(&sections) {
                    self.read_section(&s.0, r, vals);
                }
                run_builtin(builtin, copies.chunks_mut(m), &mut pivots);
            }
            self.proc.compute(flops);
            for k in outputs.clone() {
                match copies.get(k * m..(k + 1) * m) {
                    Some(vals) => self.write_section(&sections[k].0, r, vals),
                    None => {
                        if let Mode::Execute(log) = &mut self.mode {
                            log.through = log.through.map(|w| w + m);
                        }
                        self.proc.memop(m as f64);
                    }
                }
            }
        }
        Ok(())
    }

    /// How far `slot`'s view moves in storage from one line of the active
    /// batch to the next ([`Lift`]): 0 outside a batch.
    fn line_step(&self, slot: Slot) -> isize {
        let moves = self.frame().lift.as_ref().map_or(&[][..], |l| &l.moves);
        moves.iter().filter(|m| m.0 == slot).map(|m| m.4).sum()
    }

    /// `call spmv(y(i:i), ci(lo:hi), av(lo:hi), x(1:n))`: one CSR row of
    /// a sparse matrix-vector product. `y(i)` is the owned row, `ci`/`av`
    /// its (local) column indices and values, and `x` the gathered
    /// operand — the one builtin section that may reach off-processor.
    /// The inspector reads the local `ci` values and records exactly the
    /// remote `x` elements this row touches, so the doall engine's fused
    /// exchange carries the x-gather and warm trips replay it like any
    /// other schedule (the body is cacheable: replicated structure arrays
    /// key the schedule by content fingerprint). Column indices count
    /// from 1 in the x *section*'s index space; `x` reads are copy-in
    /// (writes from earlier iterations of the same doall stay invisible).
    fn exec_spmv(&mut self, args: &[RArg]) -> RtResult<()> {
        let mut views = Vec::with_capacity(4);
        for a in args {
            let RArg::Section(slot, subs, _) = a else {
                return Err("spmv(y, ci, av, x) takes four sections".into());
            };
            let v = self.make_section_view(*slot, subs)?;
            if v.ndims() != 1 {
                return Err("builtin spmv: sections must be 1-D".into());
            }
            views.push(v);
        }
        let [yv, civ, avv, xv] = views.as_slice() else {
            return Err("spmv(y, ci, av, x) takes four sections".into());
        };
        let (y, ny) = self.local_section("spmv", yv)?;
        let (ci, nnz) = self.local_section("spmv", civ)?;
        let (av, na) = self.local_section("spmv", avv)?;
        if ny != 1 {
            return Err("builtin spmv: the y section is one element (one row)".into());
        }
        if nnz != na {
            return Err("builtin spmv: ci and av sections must conform".into());
        }
        // The row's column set, from the local index array — fresh even
        // during inspection, which is what lets the inspector derive the
        // x-gather from data rather than from subscript structure.
        let me = self.me();
        let mut xflats = Vec::with_capacity(nnz);
        let mut remote = Vec::new();
        {
            let cb = ci.base.borrow();
            let b = xv.base.borrow();
            let mut idx = [0i64; MAX_RANK];
            for t in 0..nnz {
                let f = ci.flat(0, t);
                idx[0] = self.mode.written(&ci.base, f).unwrap_or(cb.data[f]) as i64;
                let mut base_idxs = [0i64; MAX_RANK];
                let base_idxs = xv.to_base_into(&idx, 1, &mut base_idxs)?;
                let flat = b.flat(base_idxs)?;
                if !b.owned_by(me, base_idxs) {
                    remote.push(flat);
                }
                xflats.push(flat);
            }
        }
        if let Mode::Inspect(st) = &mut self.mode {
            for f in remote {
                st.record(&xv.base, f);
            }
            st.writes += 1;
            return Ok(()); // gather recorded; no mutation during inspection
        }
        if matches!(self.mode, Mode::Normal) && self.doall_depth == 0 && !remote.is_empty() {
            return Err(format!(
                "non-local read of {} in replicated code; remote values only \
                 flow through doall communication",
                xv.base.borrow().name
            ));
        }
        // An empty row stores +0.0, whatever an empty `sum` gives.
        let sum = match nnz {
            0 => 0.0,
            _ => {
                let (ab, xb) = (av.base.borrow(), xv.base.borrow());
                let a = |f: usize| self.mode.written(&av.base, f).unwrap_or(ab.data[f]);
                let x = |f: usize| self.mode.written(&xv.base, f).unwrap_or(xb.data[f]);
                let terms = xflats.iter().enumerate();
                terms.map(|(t, &fx)| a(av.flat(0, t)) * x(fx)).sum()
            }
        };
        self.proc.compute(2.0 * xflats.len() as f64);
        self.write_section(&y, 0, &[sum]);
        Ok(())
    }

    /// Store `vals` into row `r` of section `s` — or log them, as element
    /// writes are.
    fn write_section(&mut self, s: &Strided, r: usize, vals: &[f64]) {
        match &mut self.mode {
            Mode::Execute(log) => log.write(
                &s.base,
                (0..).map(|t| s.flat(r, t)).zip(vals.iter().copied()),
            ),
            _ => s.store(r, 0, vals),
        }
        self.proc.memop(vals.len() as f64);
    }

    // ---------- element access ----------

    /// Evaluate the subscripts of an element of `slot` onto the stack: the
    /// values (the first [`MAX_RANK`] of them — more is a rank mismatch
    /// the view reports) and their count. `None` is a `*`.
    fn eval_subscripts<'e>(
        &mut self,
        slot: Slot,
        subs: impl ExactSizeIterator<Item = Option<&'e RExpr>>,
    ) -> RtResult<([i64; MAX_RANK], usize)> {
        let (mut idxs, n) = ([0i64; MAX_RANK], subs.len());
        for (k, e) in subs.enumerate() {
            let Some(e) = e else {
                return Err(format!(
                    "'*' subscript on {} is only valid in owner()/sections",
                    self.name(slot)
                ));
            };
            let v = self.eval(e)?.as_int();
            if let Some(i) = idxs.get_mut(k) {
                *i = v;
            }
        }
        Ok((idxs, n))
    }

    fn write_element(&mut self, slot: Slot, subs: &[RExpr], v: f64) -> RtResult<()> {
        let (idxs, n) = self.eval_subscripts(slot, subs.iter().map(Some))?;
        let (me, depth) = (self.me, self.doall_depth);
        // The frame is borrowed next to the mode, not instead of it: the
        // view stays where it is bound.
        let frame = self.frames.last().expect("an active frame");
        let name = &frame.sub.names[slot];
        let Some(Binding::Array(view)) = &frame.slots[slot] else {
            return Err(format!("{name} is not an array"));
        };
        let mut base_idxs = [0i64; MAX_RANK];
        let base_idxs = view.to_base_into(&idxs, n, &mut base_idxs)?;
        let b = view.base.borrow();
        let flat = b.flat(base_idxs)?;
        let (ok, replicated) = (b.owned_by(me, base_idxs), b.replicated());
        drop(b);
        let shown = &base_idxs[lined(frame, slot)..];
        let violation =
            || format!("owner-computes violation: processor {me} writes {name}{shown:?}");
        match &mut self.mode {
            Mode::Inspect(st) => {
                if !ok {
                    return Err(violation() + " owned elsewhere (check the doall's on-clause)");
                }
                st.writes += 1;
            }
            Mode::Execute(log) => {
                if !ok {
                    return Err(violation());
                }
                log.write(&view.base, [(flat, v)]);
            }
            Mode::Normal => {
                if replicated || (depth > 0 && ok) {
                    view.base.borrow_mut().data[flat] = v;
                } else if depth > 0 {
                    return Err(violation());
                } else {
                    return Err(format!(
                        "write to distributed array {name} outside a doall \
                         (replicated code cannot own it)"
                    ));
                }
            }
        }
        Ok(())
    }

    /// `a(subs)` where `slot` is bound to an array.
    fn read_element(&mut self, slot: Slot, args: &[Option<RExpr>]) -> RtResult<Value> {
        let (idxs, n) = self.eval_subscripts(slot, args.iter().map(Option::as_ref))?;
        let me = self.me;
        let frame = self.frames.last().expect("an active frame");
        let Some(Binding::Array(view)) = &frame.slots[slot] else {
            unreachable!("the caller saw an array binding");
        };
        let mut base_idxs = [0i64; MAX_RANK];
        let base_idxs = view.to_base_into(&idxs, n, &mut base_idxs)?;
        let b = view.base.borrow();
        let flat = b.flat(base_idxs)?;
        let mut val = b.data[flat];
        match &mut self.mode {
            // May be stale: only a subscript, a condition or a bound reads
            // it ([`Interp::record_reads`]).
            Mode::Inspect(st) => {
                if !b.owned_by(me, base_idxs) {
                    st.record(&view.base, flat);
                }
            }
            // Freshened by the exchange phase, unless this iteration
            // wrote it first.
            Mode::Execute(log) => val = log.written(&view.base, flat).unwrap_or(val),
            Mode::Normal => {
                if self.doall_depth == 0 && !b.owned_by(me, base_idxs) {
                    let shown = &base_idxs[lined(frame, slot)..];
                    return Err(format!(
                        "non-local read of {}{shown:?} in replicated code; \
                         remote values only flow through doall communication",
                        b.name
                    ));
                }
            }
        }
        Ok(if b.is_real {
            Value::Real(val)
        } else {
            Value::Int(val as i64)
        })
    }

    // ---------- expressions ----------

    fn eval(&mut self, e: &RExpr) -> RtResult<Value> {
        match e {
            RExpr::Const(v, _) => Ok(*v),
            RExpr::Var(slot, _) => match self.slot(*slot) {
                Some(Binding::Scalar(v)) => Ok(*v),
                Some(Binding::Array(_)) => {
                    Err(format!("array {} used as a scalar", self.name(*slot)))
                }
                Some(Binding::Grid(_)) => Err(format!(
                    "processor array {} used as a scalar",
                    self.name(*slot)
                )),
                None => Err(format!("undefined variable {}", self.name(*slot))),
            },
            RExpr::Un(op, e, _) => {
                let v = self.eval(e)?;
                Ok(match op {
                    UnOp::Neg => match v {
                        Value::Int(x) => Value::Int(x.checked_neg().ok_or(OVERFLOW)?),
                        Value::Real(x) => Value::Real(-x),
                    },
                    UnOp::Not => Value::Int(if v.truthy() { 0 } else { 1 }),
                })
            }
            RExpr::Bin(op, l, r, _) => {
                let a = self.eval(l)?;
                let b = self.eval(r)?;
                eval_bin(*op, a, b)
            }
            RExpr::Ref(slot, intrinsic, args, _) => {
                // Array element or intrinsic, depending on the binding.
                if matches!(self.slot(*slot), Some(Binding::Array(_))) {
                    self.read_element(*slot, args)
                } else {
                    self.eval_intrinsic(*slot, *intrinsic, args)
                }
            }
        }
    }

    /// The inspector's walk of a value nobody reads: every element `e`
    /// reads is recorded as [`Interp::eval`] records it, in its order —
    /// a reference's subscripts evaluated, then the element — and nothing
    /// else is computed, so a stale copy of a remote element never becomes
    /// a value or an error. The executor raises what the value raises.
    fn record_reads(&mut self, e: &RExpr) -> RtResult<()> {
        match e {
            RExpr::Const(..) | RExpr::Var(..) => Ok(()),
            RExpr::Un(_, e, _) => self.record_reads(e),
            RExpr::Bin(_, l, r, _) => self.record_reads(l).and_then(|()| self.record_reads(r)),
            RExpr::Ref(slot, _, args, _) => match self.slot(*slot) {
                Some(Binding::Array(_)) => self.read_element(*slot, args).map(drop),
                _ => args.iter().flatten().try_for_each(|a| self.record_reads(a)),
            },
        }
    }

    /// Argument `k` of intrinsic `name`, evaluated.
    fn intrinsic_arg(&mut self, name: &str, args: &[Option<RExpr>], k: usize) -> RtResult<Value> {
        match args.get(k) {
            Some(Some(e)) => self.eval(e),
            Some(None) => Err(format!("'*' not valid in {name}()")),
            None => Err(format!("{name}() needs at least {} argument(s)", k + 1)),
        }
    }

    fn eval_intrinsic(
        &mut self,
        slot: Slot,
        intrinsic: Option<Intrinsic>,
        args: &[Option<RExpr>],
    ) -> RtResult<Value> {
        let name = self.name(slot);
        let Some(f) = intrinsic else {
            return Err(format!("unknown function or array {name}"));
        };
        if matches!(f, Intrinsic::Lower | Intrinsic::Upper) {
            return self.eval_bound_intrinsic(name, f == Intrinsic::Lower, args);
        }
        let a = self.intrinsic_arg(name, args, 0)?;
        Ok(match f {
            Intrinsic::Log2 => {
                let v = a.as_int();
                if v <= 0 {
                    return Err("log2 of a non-positive value".into());
                }
                Value::Int(63 - (v as u64).leading_zeros() as i64)
            }
            Intrinsic::Abs => match a {
                Value::Int(x) => Value::Int(x.checked_abs().ok_or(OVERFLOW)?),
                Value::Real(x) => Value::Real(x.abs()),
            },
            Intrinsic::Sqrt => Value::Real(a.as_f64().sqrt()),
            _ => {
                let b = self.intrinsic_arg(name, args, 1)?;
                match f {
                    Intrinsic::Mod => {
                        return eval_bin(BinOp::Rem, Value::Int(a.as_int()), Value::Int(b.as_int()))
                    }
                    Intrinsic::Min if a.as_f64() <= b.as_f64() => a,
                    Intrinsic::Max if a.as_f64() >= b.as_f64() => a,
                    _ => b,
                }
            }
        })
    }

    /// `lower(x, procs(ip)[, dim])` / `upper(...)`: the first/last index of
    /// the block of `x` owned by the selected processor, in declared
    /// (1-based or as-declared) index space.
    fn eval_bound_intrinsic(
        &mut self,
        name: &str,
        lower: bool,
        args: &[Option<RExpr>],
    ) -> RtResult<Value> {
        if args.len() < 2 {
            return Err(format!("{name}(array, procsel[, dim]) needs two arguments"));
        }
        let Some(RExpr::Var(array, _)) = &args[0] else {
            return Err(format!("{name}: first argument must be an array name"));
        };
        let array = *array;
        let aname = self.name(array);
        let not_array = |a: &str| format!("{name}: {a} is not an array");
        self.array(array, not_array)?;
        // Second argument: a processor selection expression.
        let sel = match &args[1] {
            Some(RExpr::Var(n, _)) => self.grid_of(*n)?.clone(),
            Some(RExpr::Ref(slot, _, args, _)) => self.select_procs(*slot, args)?,
            _ => return Err(format!("{name}: second argument must select processors")),
        };
        if sel.size() != 1 {
            return Err(format!(
                "{name}: processor selection must be a single processor"
            ));
        }
        let rank = sel.ranks()[0];
        let dim_arg = match args.get(2) {
            Some(Some(e)) => Some(self.eval(e)?.as_int() as usize),
            Some(None) => return Err("'*' not valid here".into()),
            None => None,
        };
        // Which callee dimension? Default: the only distributed dimension
        // *visible through the view* (fixed dims of a section don't count).
        let view = self.array(array, not_array)?;
        let base = view.base.borrow();
        let ranged = |bd: usize| matches!(view.map[bd], ViewDim::Range(..));
        let distributed = |d: usize| matches!(base.layout.spec().map(d), DimMap::Dist(_));
        let dim_base = if let Some(d) = dim_arg {
            // The dim argument is in callee dimension numbering (1-based).
            let mut visible = (0..base.ndims()).filter(|&bd| ranged(bd));
            d.checked_sub(1)
                .and_then(|k| visible.nth(k))
                .ok_or_else(|| format!("{name}: bad dim argument"))?
        } else {
            let distributed = |d: &usize| distributed(*d) && ranged(*d);
            let count = (0..base.ndims()).filter(distributed).count();
            if count != 1 {
                return Err(format!(
                    "{name}: array has {count} distributed dims; pass the dim argument"
                ));
            }
            (0..base.ndims()).find(distributed).expect("counted")
        };
        if !distributed(dim_base) {
            return Err(format!("{name}: dimension is not distributed"));
        }
        let dist = base.layout.dists()[dim_base];
        let qc = (base.layout.coord(rank, dim_base))
            .ok_or_else(|| format!("{name}: processor not in the array's grid"))?;
        let (Some(olo), Some(ohi)) = (dist.lower(qc), dist.upper(qc)) else {
            return Err(format!(
                "{name}: processor owns no part of {aname} along that dimension"
            ));
        };
        let base_lo = base.bounds[dim_base].0;
        // Map the owned base range back through the view, clamped to the
        // section's range (so `lower(x, ...)` on a section reports the part
        // of the *section* the processor owns).
        let ViewDim::Range(lo, hi) = view.map[dim_base] else {
            return Err(format!("{name}: dimension is fixed in this section"));
        };
        let blo = (base_lo + olo as i64).max(lo);
        let bhi = (base_lo + ohi as i64).min(hi);
        if blo > bhi {
            return Err(format!(
                "{name}: processor owns no part of this section of {aname}"
            ));
        }
        let callee_dim = (0..dim_base).filter(|&bd| ranged(bd)).count();
        let base_idx = if lower { blo } else { bhi };
        Ok(Value::Int(view.callee_lo[callee_dim] + (base_idx - lo)))
    }
}

/// The runtime error of an integer operation whose result does not fit.
const OVERFLOW: &str = "integer overflow";

/// The values `lo, lo + step, …` up to `hi` (down to it for a negative
/// step), their number counted up front in `i128`: no counter steps past
/// the end of `i64`.
fn counted(lo: i64, hi: i64, step: i64) -> impl Iterator<Item = i64> {
    let (lo, step) = (lo as i128, step as i128);
    let trips = ((hi as i128 - lo + step) / step).max(0);
    (0..trips).map(move |k| (lo + k * step) as i64)
}

/// Binary operators with Fortran typing: two integers stay integral
/// (division truncates, overflow is an error), anything else is real.
fn eval_bin(op: BinOp, a: Value, b: Value) -> RtResult<Value> {
    use BinOp::*;
    Ok(match op {
        Add | Sub | Mul | Div | Rem => match (a, b) {
            (Value::Int(x), Value::Int(y)) => Value::Int(match op {
                Div if y == 0 => return Err("integer division by zero".into()),
                Rem if y == 0 => return Err("mod by zero".into()),
                Rem => x.wrapping_rem(y),
                Add => x.checked_add(y).ok_or(OVERFLOW)?,
                Sub => x.checked_sub(y).ok_or(OVERFLOW)?,
                Mul => x.checked_mul(y).ok_or(OVERFLOW)?,
                _ => x.checked_div(y).ok_or(OVERFLOW)?,
            }),
            _ => {
                let (x, y) = (a.as_f64(), b.as_f64());
                Value::Real(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    _ => x % y,
                })
            }
        },
        Eq | Ne | Lt | Le | Gt | Ge => {
            let (x, y) = (a.as_f64(), b.as_f64());
            Value::Int(match op {
                Eq => x == y,
                Ne => x != y,
                Lt => x < y,
                Le => x <= y,
                Gt => x > y,
                _ => x >= y,
            } as i64)
        }
        And => Value::Int((a.truthy() && b.truthy()) as i64),
        Or => Value::Int((a.truthy() || b.truthy()) as i64),
    })
}

/// Run `reduce` on its four sections, or `seqtri` on its five (`x`
/// first) with `pivots` as its scratch, each section the next of `s`.
fn run_builtin<'s>(
    builtin: Builtin,
    mut s: impl Iterator<Item = &'s mut [f64]>,
    pivots: &mut Vec<f64>,
) {
    let mut next = || s.next().expect("arity checked");
    match builtin {
        Builtin::Reduce => reduce_block(next(), next(), next(), next()),
        _ => {
            let x = next();
            thomas_into(next(), next(), next(), next(), x, pivots);
        }
    }
}

/// Can a batch of `lines` (each a call's bindings, in the same order) run
/// as one activation, and how do its arrays move from line to line? The
/// lines bind disjoint storage — every array argument is a distinct array
/// that some pinned coordinate moves — and each pinned coordinate steps
/// by a constant, an arithmetic progression, and lands on the same owner
/// on every line, so that scalars, control flow and ownership are the
/// same on every line. `None`: line by line.
fn lift(lines: &[Vec<(Slot, Binding)>]) -> Option<Lift> {
    let (n, mut moves, mut bases) = (lines.len(), Vec::new(), Vec::<&ArrRef>::new());
    for (k, (slot, first)) in lines.first()?.iter().enumerate() {
        let Binding::Array(first) = first else {
            continue;
        };
        (!bases.iter().any(|b| Rc::ptr_eq(b, &first.base))).then_some(())?;
        bases.push(&first.base);
        let (b, moved) = (first.base.borrow(), moves.len());
        for (dim, m) in first.map.iter().enumerate() {
            let ViewDim::Fixed(c0) = *m else {
                continue;
            };
            let at = |l: usize| match &lines[l][k].1 {
                Binding::Array(v) => Some(v.map[dim]),
                _ => None,
            };
            let Some(ViewDim::Fixed(c1)) = at(n.min(2) - 1) else {
                return None;
            };
            let (step, owner) = (c1 - c0, |c| {
                b.layout.dists()[dim].owner((c - b.bounds[dim].0) as usize)
            });
            let on = |l| {
                let c = c0 + l as i64 * step;
                at(l) == Some(ViewDim::Fixed(c)) && owner(c) == owner(c0)
            };
            (1..n).all(on).then_some(())?;
            if step != 0 {
                let stride: usize = (dim + 1..b.ndims()).map(|d| b.extent(d)).product();
                moves.push((*slot, dim, c0, step, step as isize * stride as isize));
            }
        }
        (n == 1 || moves.len() > moved).then_some(())?;
    }
    Some(Lift {
        lines: n,
        active: 0..n,
        moves,
    })
}

/// How many leading base indices of an element of `slot` a message leaves
/// out: a batch's own array's line axis, which its text does not name.
fn lined(frame: &Frame, slot: Slot) -> usize {
    usize::from(frame.lift.is_some() && !frame.sub.params.contains(&slot))
}

/// Flat base index of a view's origin: fixed dimensions at their
/// coordinates, ranged dimensions at their lower bounds. Schedules carry
/// flats relative to it ([`span`]), so they replay under an
/// owner-normalized key on any line.
fn view_origin_flat(view: &View) -> RtResult<u64> {
    let mut idxs = [0i64; MAX_RANK];
    for (i, d) in idxs.iter_mut().zip(&view.map) {
        *i = match *d {
            ViewDim::Fixed(v) => v,
            ViewDim::Range(lo, _) => lo,
        };
    }
    Ok(view.base.borrow().flat(&idxs[..view.map.len()])? as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HostValue;
    use kali_machine::{Machine, MachineConfig};
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::cell::RefCell;

    /// Run `f` on every rank of a `grid`-shaped simulated machine, inside
    /// a fresh frame of `entry` (declarations elaborated, host arguments
    /// bound), and collect its results.
    fn on_entry<R: Send + 'static>(
        src: &str,
        entry: &str,
        grid: &[usize],
        args: &[HostValue],
        f: impl for<'a, 'p> Fn(&mut Interp<'a, 'p>, &'p RSub) -> R + Sync,
    ) -> Vec<R> {
        let prog = crate::parse(src).unwrap();
        let k = prog.code.iter().position(|s| s.name == entry).unwrap();
        let p = grid.iter().product();
        let run = Machine::run(MachineConfig::new(p), |proc| {
            let sub = &prog.code[k];
            let mut slots = vec![None; sub.names.len()];
            for (&slot, a) in sub.params.iter().zip(args) {
                slots[slot] = Some(match a {
                    HostValue::Int(v) => Binding::Scalar(Value::Int(*v)),
                    HostValue::Real(v) => Binding::Scalar(Value::Real(*v)),
                    HostValue::Array { data, bounds } => {
                        let extents: Vec<usize> =
                            bounds.iter().map(|&(l, h)| (h - l + 1) as usize).collect();
                        Binding::Array(View::whole(Rc::new(RefCell::new(ArrObj {
                            name: sub.names[slot].clone(),
                            bounds: bounds.clone(),
                            layout: Layout::replicated(&extents, &ProcGrid::new_1d(1)),
                            data: data.clone(),
                            is_real: true,
                            dist_gen: 0,
                        }))))
                    }
                });
            }
            let grid = ProcGrid::with_ranks(grid.to_vec(), (0..p).collect());
            slots[sub.proc_param.unwrap()] = Some(Binding::Grid(grid.clone()));
            let mut me = Interp::new(proc, &prog, RunOptions::default());
            me.frames.push(Frame {
                grid,
                sub,
                slots,
                iter_defined: Vec::new(),
                iter_depth: 0,
                lift: None,
            });
            me.elaborate_decls(sub).unwrap();
            f(&mut me, sub)
        });
        run.results
    }

    impl<'p> Interp<'_, 'p> {
        /// Execute `body` up to its first doall (entering `do` loops at
        /// their first trip) and return it.
        fn run_to_doall(&mut self, body: &'p [RStmt]) -> &'p RDoall {
            for s in body {
                match s {
                    RStmt::Doall(d) => return d,
                    RStmt::Do { var, lo, body, .. } => {
                        let lo = self.eval(lo).unwrap();
                        self.set_scalar(*var, lo).unwrap();
                        return self.run_to_doall(body);
                    }
                    s => assert_eq!(self.exec_stmt(s).unwrap(), Flow::Normal),
                }
            }
            panic!("no doall")
        }
    }

    fn grid2(np: i64, scale: f64) -> HostValue {
        let w = (np + 1) as usize;
        HostValue::Array {
            data: (0..w * w).map(|k| scale * (k % 11) as f64).collect(),
            bounds: vec![(0, np); 2],
        }
    }

    /// The analytic builder and the inspector derive the same schedule,
    /// field for field, on every rank: Jacobi on 2×2 and ADI's residual
    /// with uneven blocks, and the one-sided `shift` at p = 3 with a
    /// length 3 does not divide.
    #[test]
    fn the_analytic_builder_derives_the_inspectors_schedule() {
        let shift = HostValue::Array {
            data: (1..=11).map(f64::from).collect(),
            bounds: vec![(1, 11)],
        };
        let cases = [
            (
                "jacobi",
                "jacobi",
                vec![2, 2],
                vec![
                    grid2(10, 1.0),
                    grid2(10, 0.1),
                    HostValue::Int(10),
                    HostValue::Int(1),
                ],
            ),
            (
                "adi",
                "resid",
                vec![2, 2],
                vec![
                    grid2(10, 1.0),
                    grid2(10, 0.5),
                    grid2(10, 0.0),
                    HostValue::Int(10),
                    HostValue::Real(1.5),
                    HostValue::Real(0.5),
                ],
            ),
            ("shift", "shift", vec![3], vec![shift, HostValue::Int(11)]),
        ];
        for (listing, entry, grid, args) in cases {
            let src = crate::listing(listing).unwrap();
            let words = on_entry(src, entry, &grid, &args, |me, sub| {
                let d = me.run_to_doall(&sub.body);
                let bounds: Vec<_> = (d.ranges.iter())
                    .map(|(lo, hi, _)| {
                        (
                            me.eval(lo).unwrap().as_int(),
                            me.eval(hi).unwrap().as_int(),
                            1,
                        )
                    })
                    .collect();
                let iters = me.scan(d, &bounds).unwrap();
                assert!(matches!(d.kind, Kind::Stencil(_)), "a lowerable site");
                let placed = me.place(d, &bounds).expect("bindings in the class");
                let team = me.frame().grid.team();
                let arrays = me.exchange_arrays(d).unwrap();
                let walked = me.inspect(d, &team, &arrays, &iters).unwrap();
                let derived = me.inspect_placed(d, &placed, &team, &arrays).unwrap();
                assert_eq!(walked, derived, "{entry}, rank {}", me.me());
                // The trip driver counts builds; outside a trip nothing does.
                assert_eq!(me.proc.stats().inspector_runs, 0);
                walked.words_expected()
            });
            assert!(words.iter().sum::<usize>() > 0, "{entry}: {words:?}");
        }
    }

    /// `spmvit`'s arguments for `iters` sweeps over 11 rows: an empty
    /// row, and the others' columns spread over the whole of `x`.
    fn spmv_args(iters: i64) -> [HostValue; 8] {
        let n = 11;
        let cols = |i: usize| match i {
            4 => vec![],
            _ => vec![(i * 7) % n + 1, i + 1, (i + 5) % n + 1, (i * 7) % n + 1],
        };
        let (mut rp, mut ci) = (vec![1.0], Vec::new());
        for i in 0..n {
            ci.extend(cols(i).into_iter().map(|c| c as f64));
            rp.push(ci.len() as f64 + 1.0);
        }
        let nz = ci.len();
        let array = |data: Vec<f64>| HostValue::Array {
            bounds: vec![(1, data.len() as i64)],
            data,
        };
        [
            array(vec![0.0; n]),
            array((0..n).map(|k| 0.5 + k as f64).collect()),
            array(rp),
            array(ci),
            array(vec![1.5; nz]),
            HostValue::Int(n as i64),
            HostValue::Int(nz as i64),
            HostValue::Int(iters),
        ]
    }

    /// ... and so does the CSR builder, on `spmv.kf1` at p = 3 with
    /// uneven blocks, an empty row, and columns on every rank.
    #[test]
    fn the_csr_builder_derives_the_inspectors_schedule() {
        let n = 11;
        let src = crate::listing("spmv").unwrap();
        let words = on_entry(src, "spmvit", &[3], &spmv_args(1), |me, sub| {
            let d = me.run_to_doall(&sub.body);
            let bounds = [(1, n as i64, 1)];
            let iters = me.scan(d, &bounds).unwrap();
            assert!(matches!(d.kind, Kind::Csr(_)), "the CSR class");
            let placed = me.place(d, &bounds).expect("bindings in the class");
            let team = me.frame().grid.team();
            let arrays = me.exchange_arrays(d).unwrap();
            let walked = me.inspect(d, &team, &arrays, &iters).unwrap();
            let derived = me.inspect_placed(d, &placed, &team, &arrays).unwrap();
            assert_eq!(walked, derived, "rank {}", me.me());
            assert!(!walked.boundary.is_empty() && walked.write_hint == placed.len());
            walked.words_expected()
        });
        assert!(words.iter().all(|&w| w > 0), "{words:?}");
    }

    /// A trip of `spmv.kf1`'s CSR rows reads each row of mine twice, cold
    /// or warm: to place it, which also inspects it, and to run it.
    #[test]
    fn a_csr_trip_reads_each_row_twice() {
        let src = crate::listing("spmv").unwrap();
        for p in 1..=4 {
            for iters in [1, 2] {
                let visits = on_entry(src, "spmvit", &[p], &spmv_args(iters), |me, sub| {
                    let visited = || crate::lower::CSR_ROWS_VISITED.with(|n| n.get());
                    let before = visited();
                    me.exec_stmts(&sub.body).unwrap();
                    let y = sub.names.iter().position(|s| s == "y").unwrap();
                    let y = me.whole(y).unwrap();
                    let layout = &y.borrow().layout;
                    let mine = (0..11).filter(|&i| layout.owner(&[i]) == Some(me.me()));
                    let stats = me.proc.stats();
                    let trips = (stats.inspector_runs, stats.schedule_replays);
                    (visited() - before, 2 * iters as usize * mine.count(), trips)
                });
                for (rank, (visited, twice, trips)) in visits.into_iter().enumerate() {
                    assert_eq!(visited, twice, "p = {p}, rank {rank}, {iters} trips");
                    // Each sweep is a trip of both sites: cold, then warm.
                    assert_eq!(trips, (2, 2 * (iters as u64 - 1)), "p = {p}, rank {rank}");
                }
            }
        }
    }

    /// Each listing's entry and a small input for it, on one processor.
    fn listing_runs() -> [(&'static str, &'static str, &'static [usize], Vec<HostValue>); 5] {
        let vec1 = |n: usize| HostValue::Array {
            data: (0..n).map(|k| 1.0 + k as f64).collect(),
            bounds: vec![(1, n as i64)],
        };
        let (n, nz) = (6, 6);
        let csr = HostValue::Array {
            data: (1..=n + 1).map(|k| k as f64).collect(),
            bounds: vec![(1, n as i64 + 1)],
        };
        [
            (
                "jacobi",
                "jacobi",
                &[1, 1],
                vec![
                    grid2(6, 0.0),
                    grid2(6, 0.1),
                    HostValue::Int(6),
                    HostValue::Int(2),
                ],
            ),
            (
                "shift",
                "shift",
                &[1],
                vec![vec1(n), HostValue::Int(n as i64)],
            ),
            (
                "tri",
                "tri",
                &[1],
                vec![
                    vec1(n),
                    vec1(n),
                    vec1(n),
                    vec1(n),
                    vec1(n),
                    HostValue::Int(n as i64),
                ],
            ),
            (
                "adi",
                "adi",
                &[1, 1],
                vec![
                    grid2(6, 0.0),
                    grid2(6, 0.5),
                    grid2(6, 0.0),
                    HostValue::Int(6),
                    HostValue::Real(40.0),
                    HostValue::Int(1),
                    HostValue::Real(1.0),
                    HostValue::Real(1.0),
                ],
            ),
            (
                "spmv",
                "spmvit",
                &[1],
                vec![
                    vec1(n),
                    vec1(n),
                    csr,
                    vec1(nz),
                    vec1(nz),
                    HostValue::Int(n as i64),
                    HostValue::Int(nz as i64),
                    HostValue::Int(2),
                ],
            ),
        ]
    }

    /// Every statement of every subroutine of `listing`, in text order,
    /// for which `f` has something to say.
    fn in_text<T>(listing: &str, mut f: impl FnMut(&RSub, &RStmt) -> Option<T>) -> Vec<T> {
        let prog = crate::parse(crate::listing(listing).unwrap()).unwrap();
        let mut out = Vec::new();
        for sub in &prog.code {
            any_stmt(&sub.body, &mut |n| {
                if let Node::Stmt(s) = n {
                    out.extend(f(sub, s));
                }
                false
            });
        }
        out
    }

    /// Which sites run compiled: a single assignment of an affine stencil
    /// is lowered (Jacobi's doall, `shift`'s, ADI's residual, `spmv`'s
    /// feedback `x(i) = y(i) / 10.0`), and `spmv`'s row doall runs as CSR
    /// rows; scalar temporaries, other builtin and team calls and
    /// non-affine subscripts keep every site of `tri` and the rest of
    /// `adi` on the walker.
    #[test]
    fn the_lowered_sites_of_the_listings() {
        let wants: [&[usize]; 5] = [&[0], &[0], &[], &[2], &[0, 1]];
        for ((listing, entry, grid, args), want) in listing_runs().into_iter().zip(wants) {
            let src = crate::listing(listing).unwrap();
            let ran = on_entry(src, entry, grid, &args, |me, sub| {
                me.exec_stmts(&sub.body).unwrap();
                let used = me
                    .scratch
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !s.is_unused());
                used.map(|(site, _)| site).collect::<Vec<_>>()
            });
            assert_eq!(ran, [want.to_vec()], "{listing}");
            // The text alone already decides it at one processor.
            let compiled = in_text(listing, |_, s| match s {
                RStmt::Doall(d) if matches!(d.kind, Kind::Stencil(_) | Kind::Csr(_)) => {
                    Some(d.site)
                }
                _ => None,
            });
            assert_eq!(compiled, want, "{listing}");
        }
    }

    /// Which `do` loops compile as strided kernels: `tric`'s row builder
    /// (`do 50`), gather (`do 250`, rank-2 targets `wb(k, ip)`) and
    /// back-substitution (`do 450`), and `tri`'s gather (`do 150`) and
    /// back-substitution (`do 350`); every loop around a doall is walked.
    /// At one processor every doall trip runs one iteration, which writes
    /// through, so the compiled loops of `tri` and `adi` run. Every element
    /// `tri`'s `do 350` reads is owned, so on one to four processors the
    /// inspector walks none of its iterations; `do 150` reads the other
    /// processors' `rb`, so from p = 2 on the inspector walks its `2p`.
    #[test]
    fn the_compiled_loops_of_the_listings() {
        let wants: [&[(&str, &str, bool)]; 5] = [
            &[("jacobi", "it", false)],
            &[],
            &[("tri", "k", true), ("tri", "i", true)],
            &[
                ("adi", "it", false),
                ("tric", "i", true),
                ("tric", "k", true),
                ("tric", "i", true),
            ],
            &[("spmvit", "t", false)],
        ];
        for ((listing, entry, grid, args), want) in listing_runs().into_iter().zip(wants) {
            let loops = in_text(listing, |sub, s| match s {
                RStmt::Do { var, kernel, .. } => {
                    Some((sub.name.clone(), sub.names[*var].clone(), kernel.is_some()))
                }
                _ => None,
            });
            let want: Vec<_> = (want.iter())
                .map(|&(sub, var, k)| (sub.to_string(), var.to_string(), k))
                .collect();
            assert_eq!(loops, want, "{listing}");
            let src = crate::listing(listing).unwrap();
            let ran = on_entry(src, entry, grid, &args, |me, sub| {
                me.exec_stmts(&sub.body).unwrap();
                me.scratch.iter().any(Scratch::ran_through)
            });
            assert_eq!(ran, [want.iter().any(|w| w.2)], "{listing}");
        }
        let n = 24;
        let vec1 = HostValue::Array {
            data: (0..n).map(|k| 4.0 + (k % 5) as f64).collect(),
            bounds: vec![(1, n as i64)],
        };
        let mut args = vec![vec1; 5];
        args.push(HostValue::Int(n as i64));
        for p in 1..=4 {
            let walked = on_entry(
                crate::listing("tri").unwrap(),
                "tri",
                &[p],
                &args,
                |me, sub| {
                    me.exec_stmts(&sub.body).unwrap();
                    let inspected = me.proc.stats().inspector_runs > 0;
                    (inspected, me.inspected_loop_iterations)
                },
            );
            let gather = if p == 1 { 0 } else { 2 * p };
            assert_eq!(walked, vec![(true, gather); p], "p = {p}");
        }
    }

    /// A distributed call with the wrong number of arguments fails on
    /// every processor, not only on the members of the slice it names:
    /// processor 1 owns no part of `u(0)`'s slice, and reports it too.
    #[test]
    fn a_call_of_the_wrong_arity_fails_on_every_processor() {
        let src = "parsub t(n; procs)\n  processors procs(p)\n  real u(0:n) dist (block)\n  \
                   call s(n, n; owner(u(0)))\nend\nparsub s(k; procs)\n  processors procs(q)\nend\n";
        let errs = on_entry(src, "t", &[2], &[HostValue::Int(8)], |me, sub| {
            me.exec_stmts(&sub.body).err()
        });
        let err = || Some("s takes 1 arguments, got 2".to_string());
        assert_eq!(errs, [err(), err()]);
    }

    /// Which team calls lift their lines: ADI's two, whose
    /// `tric` gets line sections and line-free scalars; not `tri`'s call
    /// of a builtin, nor a twin that passes the line index as a scalar or
    /// one that reads an array element for one.
    #[test]
    fn the_lockstep_team_calls_of_the_listings() {
        let batch = |src: &str| {
            let prog = crate::parse(src).unwrap();
            let mut out = Vec::new();
            for sub in &prog.code {
                any_stmt(&sub.body, &mut |n| {
                    if let Node::Stmt(RStmt::Doall(d)) = n {
                        let callee = match &d.body[..] {
                            [RStmt::Call {
                                callee: Callee::Sub(k),
                                ..
                            }] => prog.code[*k].lockstep,
                            _ => false,
                        };
                        if let Kind::Lines { batch } = d.kind {
                            out.push(batch && callee);
                        }
                    }
                    false
                });
            }
            out
        };
        assert_eq!(batch(crate::listing("adi").unwrap()), [true, true]);
        for listing in ["jacobi", "tri", "shift", "spmv"] {
            assert!(!batch(crate::listing(listing).unwrap()).contains(&true));
        }
        for scalar in ["i", "u(1, 1)"] {
            let twin = crate::listing("adi")
                .unwrap()
                .replace("rho, cy, np;", &format!("rho, {scalar}, np;"));
            assert_eq!(batch(&twin), [false, true], "{scalar}");
        }
        // `tric` lifts; a twin that reads an element where a batch
        // evaluates once for all its lines does not.
        let lifts = |src: &str| {
            let prog = crate::parse(src).unwrap();
            prog.code
                .iter()
                .find(|s| s.name == "tric")
                .unwrap()
                .lockstep
        };
        assert!(lifts(crate::listing("adi").unwrap()));
        for (_, twin) in tric_twins() {
            assert!(!lifts(&twin), "{twin}");
        }
    }

    /// Twins of `adi.kf1` whose `tric` reads an element where a batch of
    /// lines evaluates once — a scalar, a `do` bound, an `if` condition —
    /// and so runs line by line, computing the same bits.
    fn tric_twins() -> [(&'static str, String); 3] {
        let adi = crate::listing("adi").unwrap();
        let twin = |from: &str, to: &str| {
            assert!(adi.contains(from), "{from}");
            adi.replace(from, to)
        };
        [
            (
                "scalar",
                twin(
                    "    x(lo) = x(lo) - wy(2*ip - 1, ip)\n",
                    "    t = wy(2*ip - 1, ip)\n    x(lo) = x(lo) - t\n",
                ),
            ),
            (
                "do bound",
                twin(
                    "do 450 i = lo + 1, hi - 1",
                    "do 450 i = lo + 1, hi - 1 + 0*x(lo)",
                ),
            ),
            (
                "if condition",
                twin(
                    "if (lo .eq. 1) b(1)",
                    "if (lo .eq. 1 .and. g(lo) .eq. g(lo)) b(1)",
                ),
            ),
        ]
    }

    /// A batch of lines is one activation: `adi.kf1` (np 48, 4 iterations)
    /// enters one frame of `adi`, and per iteration two of `resid` and one
    /// per batch of `tric` lines in each of its two sweeps. A sweep's 47
    /// lines are one batch at p = 1 (17 frames, where a frame per line made
    /// 385). On `procs(2, 1)` the row sweep gives rank 0 24 lines and rank
    /// 1 23, and the column sweep all 47 to a team of both: 17 on each
    /// rank, where a frame per line made 289 on rank 0.
    #[test]
    fn a_batch_of_lines_is_one_activation() {
        let np = 48;
        let args = [
            grid2(np, 0.0),
            grid2(np, 0.5),
            grid2(np, 0.0),
            HostValue::Int(np),
            HostValue::Real(40.0),
            HostValue::Int(4),
            HostValue::Real(1.0),
            HostValue::Real(1.0),
        ];
        let frames = |sweeps: [usize; 2]| {
            let batches = sweeps.map(|lines| lines.div_ceil(LINES_PER_BATCH));
            1 + 4 * (2 + batches[0] + batches[1])
        };
        let procs21 = vec![frames([24, 47]), frames([23, 47])];
        for (grid, want) in [([1, 1], vec![frames([47, 47])]), ([2, 1], procs21)] {
            let src = crate::listing("adi").unwrap();
            let entered = on_entry(src, "adi", &grid, &args, |me, sub| {
                me.exec_stmts(&sub.body).unwrap();
                1 + me.frames_entered
            });
            assert_eq!(entered, want, "procs{grid:?}");
        }
    }

    /// Warm `tric` trips walk no element assignment: every run of them is
    /// compiled over the line axis, and every loop is compiled. `adi.kf1`
    /// (np 48) walks as many at four iterations as at one — the trips of
    /// iterations 2–4 all replay — at p = 1 and on each rank of
    /// `procs(2, 1)`.
    #[test]
    fn warm_tric_trips_walk_no_element_assignment() {
        let args = |iters| {
            [
                grid2(48, 0.0),
                grid2(48, 0.5),
                grid2(48, 0.0),
                HostValue::Int(48),
                HostValue::Real(40.0),
                HostValue::Int(iters),
                HostValue::Real(1.0),
                HostValue::Real(1.0),
            ]
        };
        for grid in [[1, 1], [2, 1]] {
            let walked = |iters| {
                let src = crate::listing("adi").unwrap();
                on_entry(src, "adi", &grid, &args(iters), |me, sub| {
                    me.exec_stmts(&sub.body).unwrap();
                    let stats = me.proc.stats();
                    let walked = crate::lower::WALKED.with(|n| n.get());
                    (walked, stats.inspector_runs, stats.schedule_replays)
                })
            };
            let (one, four) = (walked(1), walked(4));
            if grid == [1, 1] {
                assert_eq!(one[0].0, 0, "p = 1: the cold trips' reads are owned too");
            }
            for (one, four) in one.iter().zip(&four) {
                assert_eq!(four.0, one.0, "procs{grid:?}");
                assert_eq!(four.1, one.1, "procs{grid:?}: iterations 2-4 replay");
                assert!(four.2 > one.2, "procs{grid:?}");
            }
        }
    }

    /// The edges of the lifted class, on `tric` over the rows of a grid:
    /// a twin that reads an element where a batch evaluates once
    /// ([`tric_twins`]), and one whose lines are not a progression (the
    /// rows on `cyclic(2)` at px = 2), run a frame per line, and compute
    /// the bits of their lifted sibling on both backends under every
    /// policy square.
    #[test]
    fn twins_outside_the_lifted_class_run_line_by_line_alike() {
        let rows = |src: &str, rows: &str| {
            let tric = &src[src.find("parsub tric").unwrap()..];
            format!(
                "parsub rows(u, r, np, rho, cc; procs)\n  processors procs(px, py)\n  \
                 real u(0:np, 0:np), r(0:np, 0:np) dist ({rows}, block)\n  \
                 doall 100 i = 1, np - 1 on owner(r(i, *))\n    \
                 call tric(u(i, *), r(i, *), rho, cc, np; owner(r(i, *)))\n100 continue\nend\n{tric}"
            )
        };
        let np = 20;
        let args = [
            grid2(np, 1.0),
            grid2(np, 0.25),
            HostValue::Int(np),
            HostValue::Real(40.0),
            HostValue::Real(1.0),
        ];
        let adi = crate::listing("adi").unwrap();
        let sibling = rows(adi, "block");
        let mut twins: Vec<_> = (tric_twins().into_iter())
            .map(|(what, twin)| (what, rows(&twin, "block"), [1, 1]))
            .collect();
        twins.push(("not a progression", rows(adi, "cyclic(2)"), [2, 1]));
        let lines = |grid: [usize; 2]| match grid {
            // Rank 0 owns rows 1..9 of 0:20 on blocks (rows 1, 4, 5, 8, 9,
            // … on cyclic(2)), rank 1 the ten others.
            [2, _] => vec![9, 10],
            _ => vec![19],
        };
        for (what, twin, grid) in &twins {
            let frames = |src: &str| {
                on_entry(src, "rows", grid, &args, |me, sub| {
                    me.exec_stmts(&sub.body).unwrap();
                    me.frames_entered
                })
            };
            let batches = lines(*grid)
                .iter()
                .map(|l: &usize| l.div_ceil(LINES_PER_BATCH))
                .collect::<Vec<_>>();
            assert_eq!(frames(&sibling), batches, "{what}: the sibling lifts");
            assert_eq!(frames(twin), lines(*grid), "{what}: a frame per line");
        }
        for (what, twin, grid) in &twins {
            let grids: &[[usize; 2]] = match grid {
                [2, 1] => &[[2, 1], [2, 2]],
                _ => &[[1, 1], [2, 1], [1, 2], [2, 2]],
            };
            for grid in grids {
                for backend in [
                    kali_machine::BackendKind::Sim,
                    kali_machine::BackendKind::Threads,
                ] {
                    for policy in 0..4 {
                        let opts = RunOptions {
                            policy: ExecPolicy {
                                split: policy & 1 == 1,
                                optimistic: policy & 2 == 2,
                            },
                            ..RunOptions::default()
                        };
                        let cfg = Machine::build(
                            backend,
                            kali_machine::Topology::FullyConnected,
                            kali_machine::CostModel::ipsc2(),
                        )
                        .procs(grid[0] * grid[1])
                        .config();
                        let run = |src: &str| {
                            let run =
                                crate::run_source_with(cfg.clone(), src, "rows", grid, &args, opts);
                            run.unwrap().arrays
                        };
                        let bits = |arrays: Vec<(String, Vec<f64>)>| {
                            (arrays.into_iter())
                                .map(|(_, v)| v.into_iter().map(f64::to_bits).collect::<Vec<_>>())
                                .collect::<Vec<_>>()
                        };
                        assert_eq!(
                            bits(run(twin)),
                            bits(run(&sibling)),
                            "{what}: procs{grid:?}, {backend:?}, policy {policy}"
                        );
                    }
                }
            }
        }
    }

    /// An error inside a lifted activation names its element as line by
    /// line execution does: a `tric` that also writes `rb(3)` on its first
    /// processor — the second's element, when a team of two solves a line —
    /// fails with the same message lifted and line by line (a line-index
    /// argument), where the batch's `rb` has a line axis the text does not
    /// name, on both backends.
    #[test]
    fn a_lifted_error_names_its_element_as_line_by_line_does() {
        let adi = crate::listing("adi").unwrap();
        let (from, to) = (
            "    rb(2*ip) = b(hi)\n",
            "    if (ip .eq. 1) rb(3) = b(lo)\n",
        );
        let tric = adi[adi.find("parsub tric").unwrap()..].replace(from, &format!("{from}{to}"));
        let rows = |arg: &str, param: &str| {
            format!(
                "parsub rows(u, r, np, rho, cc; procs)\n  processors procs(px, py)\n  \
                 real u(0:np, 0:np), r(0:np, 0:np) dist (block, block)\n  \
                 doall 100 i = 1, np - 1 on owner(r(i, *))\n    \
                 call tric(u(i, *), r(i, *), rho, cc, np{arg}; owner(r(i, *)))\n100 continue\nend\n{}",
                tric.replace("tric(x, g, rho, cc, np;", &format!("tric(x, g, rho, cc, np{param};"))
            )
        };
        let args = [
            grid2(12, 1.0),
            grid2(12, 0.25),
            HostValue::Int(12),
            HostValue::Real(40.0),
            HostValue::Real(1.0),
        ];
        for backend in [
            kali_machine::BackendKind::Sim,
            kali_machine::BackendKind::Threads,
        ] {
            let cfg = Machine::build(
                backend,
                kali_machine::Topology::FullyConnected,
                kali_machine::CostModel::ipsc2(),
            )
            .procs(2)
            .config();
            let error = |src: &str| {
                let opts = RunOptions::default();
                let run = || crate::run_source_with(cfg.clone(), src, "rows", &[1, 2], &args, opts);
                let msg = std::panic::catch_unwind(run)
                    .map(|_| ())
                    .expect_err("a runtime error");
                msg.downcast_ref::<String>().expect("a message").clone()
            };
            let lifted = error(&rows("", ""));
            assert!(
                lifted.ends_with(
                    "processor 0 writes rb[3] owned elsewhere (check the doall's on-clause)"
                ),
                "{lifted}"
            );
            assert_eq!(lifted, error(&rows(", i", ", il")), "{backend:?}");
        }
    }

    fn array(name: &str, n: usize) -> ArrRef {
        Rc::new(RefCell::new(ArrObj {
            name: name.into(),
            bounds: vec![(0, n as i64 - 1)],
            layout: Layout::replicated(&[n], &ProcGrid::new_1d(1)),
            data: vec![0.0; n],
            is_real: true,
            dist_gen: 0,
        }))
    }

    /// Read-your-writes is an index probe however many entries the
    /// iteration has written — the index holds one entry per distinct
    /// element of *this* iteration, no more — sees the last write, and
    /// never an earlier iteration's.
    #[test]
    fn write_log_lookups_are_constant_work_and_iteration_private() {
        let (a, b) = (array("a", 4096), array("b", 4096));
        let mut log = WriteLog::new(0, 0, false);
        for k in 0..4096usize {
            log.write(&a, [(k, k as f64)]);
            log.write(&b, [(k, -(k as f64))]);
            log.write(&a, [(k, k as f64 + 0.5)]);
            assert_eq!(log.current.len(), 2 * (k + 1));
            assert_eq!(log.written(&a, k), Some(k as f64 + 0.5));
            assert_eq!(log.written(&b, k / 2), Some(-((k / 2) as f64)));
            assert_eq!(log.written(&a, k + 1), None);
        }
        assert_eq!(log.targets.len(), 2, "arrays are named by position");
        log.end_iteration();
        assert!(log.current.is_empty() && log.current.capacity() >= 2 * 4096);
        assert_eq!(
            log.written(&a, 7),
            None,
            "copy-in: earlier iterations stay invisible"
        );
        log.write(&b, [(7, 1.0)]);
        assert_eq!((log.written(&b, 7), log.written(&a, 7)), (Some(1.0), None));
        log.end_iteration();
        // Copy-out in original order: iteration 0 ran as the boundary
        // (second segment), iteration 1 as the interior (first).
        let mut log = WriteLog::new(2, 2, false);
        log.write(&a, [(0, 1.0)]);
        log.end_iteration();
        log.write(&a, [(0, 2.0)]);
        log.end_iteration();
        log.commit(&[0], 1, 2);
        assert_eq!(a.borrow().data[0], 1.0, "the later iteration wins");
        // Written through, a write is a store, counted and never logged.
        let mut log = WriteLog::new(2, 1, true);
        log.write(&a, [(0, 3.0), (1, 4.0)]);
        log.end_iteration();
        assert_eq!((log.writes(), log.written(&a, 0)), (2, None));
        assert!(log.entries.capacity() == 0 && log.seg_ends.is_empty());
        log.commit(&[], 0, 1);
        assert_eq!(a.borrow().data[..2], [3.0, 4.0]);
    }

    /// The inspector's needs of each array keep first-touch order, without
    /// duplicates.
    #[test]
    fn inspector_needs_keep_first_touch_order_without_duplicates() {
        let (a, b) = (array("a", 8), array("b", 8));
        let mut st = InspectState::default();
        for (arr, flat) in [(&a, 5), (&b, 1), (&a, 2), (&a, 5), (&b, 1), (&a, 7)] {
            st.record(arr, flat);
        }
        assert_eq!(st.needs_of(&a), [5, 2, 7]);
        assert_eq!(st.needs_of(&b), [1]);
        assert!(st.needs_of(&array("c", 1)).is_empty() && st.boundary == [0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arrays that differ in one word — one bit of it, or any — differ
        /// in fingerprint.
        #[test]
        fn one_changed_word_changes_the_fingerprint(seed in 0u64..1 << 40, len in 1usize..64) {
            let mut g = TestRng::deterministic(&seed.to_string());
            let data: Vec<f64> = (0..len).map(|_| f64::from_bits(g.next_u64())).collect();
            let mask = match g.next_u64() % 2 {
                0 => 1 << (g.next_u64() % 64),
                _ => g.next_u64().max(1),
            };
            let mut edited = data.clone();
            let at = g.next_u64() as usize % len;
            edited[at] = f64::from_bits(data[at].to_bits() ^ mask);
            prop_assert!(data_fingerprint(&data) != data_fingerprint(&edited));
        }

        /// Two-word edits a multiply alone carries only upwards — negating
        /// two words, scaling two by powers of two (exponent bits only),
        /// swapping two — of small integers stored as reals, like column
        /// indices, whose low bits are zero, differ in the fingerprint's
        /// low half.
        #[test]
        fn two_changed_words_change_the_fingerprints_low_half(seed in 0u64..1 << 40, len in 2usize..64) {
            let mut g = TestRng::deterministic(&seed.to_string());
            let data: Vec<f64> = (0..len)
                .map(|k| ((g.next_u64() % 1000) * 64 + k as u64 + 1) as f64)
                .collect();
            let i = g.next_u64() as usize % len;
            let j = (i + 1 + g.next_u64() as usize % (len - 1)) % len;
            let mut edited = data.clone();
            match g.next_u64() % 3 {
                0 => (edited[i], edited[j]) = (-data[i], -data[j]),
                1 => (edited[i], edited[j]) = (2.0 * data[i], 0.25 * data[j]),
                _ => edited.swap(i, j),
            }
            let low = |d: &[f64]| data_fingerprint(d) as u32;
            prop_assert!(low(&data) != low(&edited));
        }
    }

    /// Two sign flips change the fingerprint, and so do two words that
    /// trade or shift exponents.
    #[test]
    fn sign_flips_and_exponent_swaps_change_the_fingerprint() {
        for (a, b) in [
            ([2.0, 3.0], [-2.0, -3.0]),
            ([2.0, 4.0], [4.0, 2.0]),
            ([1.0, 1.0], [0.5, 2.0]),
        ] {
            assert_ne!(data_fingerprint(&a), data_fingerprint(&b), "{a:?} vs {b:?}");
        }
    }
}
