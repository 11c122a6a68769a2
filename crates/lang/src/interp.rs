//! SPMD interpreter for the KF1 subset.
//!
//! Every simulated processor runs the same program over the same AST. The
//! interpreter realizes the paper's execution model:
//!
//! * code outside `doall` is replicated (every processor executes it);
//! * a `doall` is executed owner-computes: each processor runs exactly the
//!   iterations its `on` clause assigns to it, with **copy-in/copy-out**
//!   semantics (writes are buffered and committed after the loop);
//! * communication is *implicit*: a `doall` runs as a four-phase engine —
//!   **inspect-or-replay**, **post**, **interior**, **complete-boundary**.
//!   A cold invocation runs the inspector pass, which discovers which
//!   remote elements the local iterations read, turns them into a
//!   `CommSchedule` (per-array request vectors in both directions, plus
//!   the interior/boundary partition of the iteration set), and then
//!   exchanges and executes synchronously — the runtime-resolution scheme
//!   of the Kali project that the paper cites as \[11\]/\[17\];
//! * **executor reuse**: schedules are cached across invocations. When a
//!   `doall` sits inside a sequential `do` loop and nothing that could
//!   steer the inspector has changed — same site, processor array,
//!   iteration set, free scalars, and the identity + distribution
//!   generation of every array the body touches — the inspector pass *and*
//!   the request round are skipped and the cached schedule is replayed.
//!   The replay decision is collective (a one-word agreement reduction),
//!   so the request/reply protocol stays SPMD-consistent, and a
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
//!   inspector invocation is split-phase too: the request rounds of all
//!   participating arrays are posted nonblocking at once, and the cold
//!   value exchange runs through the same post/interior/complete/boundary
//!   engine, so even the first trip hides part of its start-up latency;
//! * **optimistic replay**: by default the replay-consensus vote is not a
//!   dedicated round at all. Each member assumes agreement, posts its
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
//! The schedule subsystem itself — [`CommSchedule`], the keyed
//! [`ScheduleCache`], and the whole trip protocol just described (vote
//! gate, lookup, vote, post, complete, scatter, rollback, store: the
//! [`Trip`] driver, shared with the compiled halo and the sparse gather)
//! — lives in the shared `kali-sched` crate; this module contributes
//! only the language-side data the driver is handed: the inspector as
//! schedule builder (abstract interpretation of the body), the cache key
//! (free scalars, structural array descriptions, distribution
//! generations), the exchange list as storage world and region origins,
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
//! * distributed procedure calls (`call sub(args; procslice)`) narrow the
//!   current processor array to the slice and run the callee SPMD on it.

use std::collections::HashMap;
use std::rc::Rc;

use kali_grid::ProcGrid;
use kali_kernels::substructure::{reduce_block, reduce_flops};
use kali_kernels::tridiag::{thomas, thomas_flops};
use kali_machine::{collective, tag, Proc, Tag, Team, NS_LANG};
use kali_sched::{
    interior_positions, ArraySchedule, CommSchedule, ExecPolicy, Finished, ScheduleCache,
    ScheduleExecutor, ScheduleWorld, SiteKey, Trip, TripHost,
};

use crate::analysis::StaticCommPlan;
use crate::ast::*;
use crate::diag::{Diagnostic, Span};
use crate::value::*;

pub type RtResult<T> = Result<T, String>;

#[derive(Debug, PartialEq)]
enum Flow {
    Normal,
    Return,
}

#[derive(Default)]
struct InspectState {
    /// Per distinct base array: remote flat indices needed by my iterations.
    needs: Vec<(ArrRef, Vec<usize>)>,
    /// Did the iteration currently being inspected read any remote
    /// element? Reset per iteration; drives the interior/boundary
    /// partition of the split-phase executor.
    iter_touched_remote: bool,
    /// Writes the executor will buffer for my iterations (the schedule's
    /// `write_hint`): a cacheable body's control flow cannot depend on
    /// array values, so the inspector sees every write the executor will
    /// make.
    writes: usize,
}

impl InspectState {
    fn record(&mut self, arr: &ArrRef, flat: usize) {
        self.iter_touched_remote = true;
        for (a, v) in &mut self.needs {
            if Rc::ptr_eq(a, arr) {
                if !v.contains(&flat) {
                    v.push(flat);
                }
                return;
            }
        }
        self.needs.push((arr.clone(), vec![flat]));
    }
}

enum Mode {
    Normal,
    Inspect(InspectState),
    Execute(Vec<(ArrRef, usize, f64)>),
}

/// Intrinsic function names: legal in a doall body without a binding.
const INTRINSICS: &[&str] = &[
    "log2", "mod", "abs", "sqrt", "min", "max", "lower", "upper", "reduce", "seqtri", "spmv",
];

/// Built-in sequential kernels callable inside a doall body.
const BUILTINS: &[&str] = &["reduce", "seqtri", "spmv"];

/// Cached schedules per doall site; the oldest epoch is evicted beyond
/// this (a backstop — sites normally cycle through a handful of keys).
const MAX_SCHEDULES_PER_SITE: usize = 128;

/// Tag of the split-phase fused value message (one per communicating peer
/// pair per replayed doall). A single tag suffices: matching is by
/// `(source, tag)` in FIFO order and the engine is SPMD-synchronous, so
/// successive invocations can never mis-pair messages.
const SPLIT_VALUE_TAG: Tag = tag(NS_LANG, 0x0051_1137);

/// Tag of the split-phase cold-inspection request round (one message per
/// ordered peer pair per participating array; posting-order matching
/// pairs the per-array messages).
const SPLIT_REQUEST_TAG: Tag = tag(NS_LANG, 0x0052_4551);

/// The interpreter's instance of the shared schedule executor: all fused
/// value traffic travels under [`SPLIT_VALUE_TAG`].
const EXEC: ScheduleExecutor = ScheduleExecutor::new(SPLIT_VALUE_TAG);

/// One array of a doall's exchange list ([`Interp::exchange_arrays`]).
struct ExchangeArray {
    name: String,
    base: ArrRef,
    /// Flat base index of the bound view's origin *in the current frame*
    /// ([`view_origin_flat`]).
    origin: u64,
}

/// The executor's view of the interpreter's storage: schedule array `k`
/// is the `k`-th array of the exchange list, and flat indices are
/// [`ArrObj`] row-major storage indices.
struct LangWorld {
    bases: Vec<ArrRef>,
}

impl ScheduleWorld<f64> for LangWorld {
    fn load(&self, array: usize, flat: u64) -> f64 {
        self.bases[array].borrow().data[flat as usize]
    }

    fn store(&mut self, array: usize, flat: u64, value: f64) {
        self.bases[array].borrow_mut().data[flat as usize] = value;
    }

    // Batched forms: one `RefCell` borrow per request vector instead of
    // one per element — the executor's serve/scatter hot loops call these.
    fn load_into(&self, array: usize, flats: &[u64], out: &mut Vec<f64>) {
        let arr = self.bases[array].borrow();
        out.extend(flats.iter().map(|&f| arr.data[f as usize]));
    }

    fn store_from(&mut self, array: usize, flats: &[u64], values: &[f64]) {
        let mut arr = self.bases[array].borrow_mut();
        for (&f, &v) in flats.iter().zip(values) {
            arr.data[f as usize] = v;
        }
    }
}

/// Everything the inspector's output is a deterministic function of. Two
/// invocations with equal keys provably need the same communication, so
/// the cached schedule can be replayed. Arrays are keyed *structurally*
/// (name, bounds, distribution, grid, generation, view, alias pattern) —
/// ownership maps, and hence schedules, depend on structure, not object
/// identity.
#[derive(Clone, PartialEq)]
struct ScheduleKey {
    site: usize,
    team_ranks: Vec<usize>,
    /// This processor's iteration set (owner-computes assignment).
    my_iters: Vec<Vec<i64>>,
    /// Free scalars of the body at entry, sorted by name.
    scalars: Vec<(String, Value)>,
    /// Content fingerprints of *replicated* arrays in schedule-relevant
    /// positions (subscripts, section bounds, builtin arguments), sorted
    /// by name. A CSR structure array (`spmv`'s column indices) makes the
    /// schedule a function of array *values*; replicated values are
    /// locally visible, so hashing them keys the schedule exactly —
    /// change the sparsity and the key misses, vote disagrees, and the
    /// trip re-inspects.
    fingerprints: Vec<(String, u64)>,
    /// Every array read or written, sorted by name.
    arrays: Vec<ArrayKey>,
}

/// FNV-1a over the bit patterns of an array's storage, for
/// [`ScheduleKey::fingerprints`].
fn data_fingerprint(data: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[derive(Clone, PartialEq)]
struct ArrayKey {
    name: String,
    bounds: Vec<(i64, i64)>,
    dist: Vec<DistDim>,
    grid_ranks: Vec<usize>,
    grid_extents: Vec<usize>,
    /// Belt and braces next to the structural fields: a `distribute`
    /// bumps this even when it restores a structurally identical layout.
    dist_gen: u64,
    map: Vec<KeyDim>,
    callee_lo: Vec<i64>,
    /// Position (in this sorted list) of the first entry sharing the same
    /// underlying array object; equal to the entry's own position when
    /// unique. Distinguishes aliased from merely look-alike bindings.
    alias_of: usize,
}

/// A view dimension as it appears in an [`ArrayKey`]. Fixed coordinates
/// of *unaliased* bases are normalized to the owner's grid coordinate
/// along that dimension: ownership is a tensor product of per-dimension
/// maps, so two invocations whose fixed coordinates land on the same
/// owners (with everything else in the key equal) provably need
/// translation-equivalent communication. That collapses ADI's per-line
/// views `x = u(i, *)` to one key per row/column team instead of one per
/// trip value of `i` — which used to cost a guaranteed lost vote on
/// every line after the first — and the line difference is recovered at
/// replay by shifting the schedule's flat indices by the origin delta
/// ([`ArraySchedule::origin`]). Aliased bases keep absolute coordinates:
/// one shared base cannot carry two different deltas.
#[derive(Clone, PartialEq)]
enum KeyDim {
    /// Fixed coordinate of an unaliased base, as the owner's grid
    /// coordinate along this dimension (`None` for undistributed dims).
    FixedOwner(Option<usize>),
    /// Fixed coordinate kept absolute.
    FixedAbs(i64),
    /// Ranged dimension: inclusive base-index range.
    Range(i64, i64),
}

impl SiteKey for ScheduleKey {
    fn site(&self) -> usize {
        self.site
    }

    fn team_ranks(&self) -> &[usize] {
        &self.team_ranks
    }
}

impl TripHost for Interp<'_, '_> {
    fn proc(&mut self) -> &mut Proc {
        self.proc
    }
}

/// What a body scan found: every name the body references, the subset in
/// schedule-relevant positions (subscripts, branch conditions, `do`
/// bounds, builtin arguments — closed transitively through the body's own
/// scalar assignments), and whether the site is cacheable at all.
struct BodyScan<'b> {
    names: Vec<String>,
    sched_names: Vec<String>,
    /// Scalar assignments of the body, for the transitive closure: if the
    /// target is schedule-relevant, the names its right-hand side reads
    /// are too.
    assigns: Vec<(&'b str, &'b Expr)>,
    cacheable: bool,
}

struct Frame {
    grid: ProcGrid,
    scopes: Vec<HashMap<String, Binding>>,
}

impl Frame {
    fn lookup(&self, name: &str) -> Option<&Binding> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn set_scalar(&mut self, name: &str, v: Value) {
        for s in self.scopes.iter_mut().rev() {
            if let Some(b) = s.get_mut(name) {
                match b {
                    Binding::Scalar(old) => {
                        *old = match old {
                            Value::Int(_) => Value::Int(v.as_int()),
                            Value::Real(_) => Value::Real(v.as_f64()),
                        };
                        return;
                    }
                    _ => panic!("assignment to non-scalar {name}"),
                }
            }
        }
        // Implicit declaration with Fortran typing.
        let init = match Value::implicit_zero(name) {
            Value::Int(_) => Value::Int(v.as_int()),
            Value::Real(_) => Value::Real(v.as_f64()),
        };
        self.scopes
            .last_mut()
            .expect("frame has a scope")
            .insert(name.to_string(), Binding::Scalar(init));
    }

    fn bind(&mut self, name: &str, b: Binding) {
        self.scopes
            .last_mut()
            .expect("frame has a scope")
            .insert(name.to_string(), b);
    }
}

/// The interpreter for one simulated processor.
pub struct Interp<'a, 'p> {
    pub proc: &'a mut Proc,
    prog: &'p Program,
    frames: Vec<Frame>,
    mode: Mode,
    doall_depth: usize,
    /// Start of the current iteration's segment of the executor write
    /// buffer: within one doall invocation, reads see that invocation's own
    /// writes (Listing 4 reads `b(lo)` after `call reduce`); across
    /// invocations, copy-in/copy-out hides them.
    iter_start: usize,
    /// Execution strategy for communicating doalls — the same
    /// [`ExecPolicy`] the compiled stencil-plan path runs under.
    /// `policy.split` replays cached schedules split-phase (post /
    /// interior / complete-boundary) instead of with a blocking fused
    /// exchange; `policy.optimistic` piggybacks the replay-consensus
    /// vote on the fused value messages (with rollback) instead of
    /// running a dedicated one-word vote round before each replay.
    policy: ExecPolicy,
    /// Cached communication schedules; `None` disables executor reuse.
    /// Shared across frames: the key carries every frame-dependent input
    /// (bindings, views, generations), so a hit is valid regardless of
    /// which call produced the entry.
    schedules: Option<ScheduleCache<ScheduleKey>>,
    /// Compile-time communication plans per doall site (from
    /// `analysis::comm_plans`). Before an analyzable site's cold trip the
    /// interpreter concretizes its plan into a full `CommSchedule` and
    /// seeds the cache, so even the first invocation replays instead of
    /// inspecting. Empty unless `RunOptions::static_seed` is on.
    static_plans: HashMap<usize, StaticCommPlan>,
}

impl<'a, 'p> Interp<'a, 'p> {
    pub fn new(proc: &'a mut Proc, prog: &'p Program) -> Self {
        Interp {
            proc,
            prog,
            frames: Vec::new(),
            mode: Mode::Normal,
            doall_depth: 0,
            iter_start: 0,
            policy: ExecPolicy::default(),
            schedules: Some(ScheduleCache::new(MAX_SCHEDULES_PER_SITE)),
            static_plans: HashMap::new(),
        }
    }

    /// Install compile-time communication plans (keyed by doall site).
    /// Sites with a plan seed the schedule cache before their cold trip;
    /// sites without one are untouched.
    pub fn set_static_plans(&mut self, plans: HashMap<usize, StaticCommPlan>) {
        self.static_plans = plans;
    }

    /// Enable or disable executor reuse. Disabled, every doall invocation
    /// re-runs the full inspector — the differential-testing baseline.
    pub fn set_schedule_cache(&mut self, on: bool) {
        self.schedules = on.then(|| ScheduleCache::new(MAX_SCHEDULES_PER_SITE));
    }

    /// Set the execution strategy for communicating doalls. The answer
    /// never depends on it — only the timeline and the
    /// schedule-construction work do; the defaults are the
    /// latency-hiding fast path, [`ExecPolicy::blocking`] the fully
    /// synchronous differential baseline.
    pub fn set_policy(&mut self, policy: ExecPolicy) {
        self.policy = policy;
    }

    fn me(&self) -> usize {
        self.proc.rank()
    }

    fn frame(&self) -> &Frame {
        self.frames.last().expect("active frame")
    }

    fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("active frame")
    }

    /// Run subroutine `sub` with pre-bound arguments on `grid`.
    pub fn call_sub(
        &mut self,
        sub: &Subroutine,
        bindings: Vec<(String, Binding)>,
        grid: ProcGrid,
    ) -> RtResult<()> {
        let mut scope = HashMap::new();
        for (k, v) in bindings {
            scope.insert(k, v);
        }
        self.frames.push(Frame {
            grid,
            scopes: vec![scope],
        });
        self.elaborate_decls(sub)?;
        let flow = self.exec_stmts(&sub.body)?;
        let _ = flow;
        self.frames.pop();
        Ok(())
    }

    // ---------- declarations ----------

    fn elaborate_decls(&mut self, sub: &Subroutine) -> RtResult<()> {
        for d in &sub.decls {
            match d {
                Decl::Processors { name, extents, .. } => {
                    let grid = self.frame().grid.clone();
                    if grid.ndims() != extents.len() {
                        return Err(format!(
                            "{}: processors {name} declared with rank {} but the actual \
                             processor array has rank {}",
                            sub.name,
                            extents.len(),
                            grid.ndims()
                        ));
                    }
                    for (gd, e) in extents.iter().enumerate() {
                        let actual = grid.extent(gd) as i64;
                        match &e.kind {
                            ExprKind::Var(id) => match self.frame().lookup(id) {
                                Some(Binding::Scalar(v)) => {
                                    if v.as_int() != actual {
                                        return Err(format!(
                                            "processor extent {id} = {} does not match \
                                             actual extent {actual}",
                                            v.as_int()
                                        ));
                                    }
                                }
                                _ => self
                                    .frame_mut()
                                    .bind(id, Binding::Scalar(Value::Int(actual))),
                            },
                            ExprKind::Int(v) => {
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
                    if sub.proc_param.as_deref() != Some(name) {
                        self.frame_mut().bind(name, Binding::Grid(grid));
                    }
                }
                Decl::Arrays {
                    is_real,
                    dynamic: _,
                    items,
                    dist,
                } => {
                    for item in items {
                        let mut bounds = Vec::with_capacity(item.dims.len());
                        for (lo, hi) in &item.dims {
                            let l = self.eval(lo)?.as_int();
                            let h = self.eval(hi)?.as_int();
                            if h < l {
                                return Err(format!("array {}: bad bounds {l}:{h}", item.name));
                            }
                            bounds.push((l, h));
                        }
                        let existing = self.frame().lookup(&item.name).cloned();
                        match existing {
                            Some(Binding::Array(mut view)) => {
                                // Parameter redeclaration: adopt bounds and,
                                // for fresh (host) arrays, the distribution.
                                if bounds.len() != view.ndims() {
                                    return Err(format!(
                                        "parameter {} has rank {}, declared with rank {}",
                                        item.name,
                                        view.ndims(),
                                        bounds.len()
                                    ));
                                }
                                for (d, (l, h)) in bounds.iter().enumerate() {
                                    let want = (h - l + 1) as usize;
                                    let have = view.extent(d);
                                    if want != have {
                                        return Err(format!(
                                            "parameter {} extent mismatch in dim {}: \
                                             declared {want}, actual {have}",
                                            item.name,
                                            d + 1
                                        ));
                                    }
                                    view.callee_lo[d] = *l;
                                }
                                if let Some(dd) = dist {
                                    let mut base = view.base.borrow_mut();
                                    if base.replicated() && base.grid.size() == 1 {
                                        // Host-supplied array: adopt.
                                        if dd.len() != base.ndims() {
                                            return Err(format!(
                                                "dist clause rank mismatch on {}",
                                                item.name
                                            ));
                                        }
                                        base.dist = dd.clone();
                                        base.grid = self.frame().grid.clone();
                                        base.bump_dist_gen();
                                    }
                                }
                                self.frame_mut().bind(&item.name, Binding::Array(view));
                            }
                            Some(Binding::Scalar(v)) => {
                                // Type declaration of a scalar parameter.
                                if !item.dims.is_empty() {
                                    return Err(format!(
                                        "parameter {} is scalar but declared with dimensions",
                                        item.name
                                    ));
                                }
                                let coerced = if *is_real {
                                    Value::Real(v.as_f64())
                                } else {
                                    Value::Int(v.as_int())
                                };
                                self.frame_mut().bind(&item.name, Binding::Scalar(coerced));
                            }
                            Some(Binding::Grid(_)) => {
                                return Err(format!("{} is a processor array, not data", item.name))
                            }
                            None => {
                                if item.dims.is_empty() {
                                    let z = if *is_real {
                                        Value::Real(0.0)
                                    } else {
                                        Value::Int(0)
                                    };
                                    self.frame_mut().bind(&item.name, Binding::Scalar(z));
                                } else {
                                    let grid = self.frame().grid.clone();
                                    let distv = match dist {
                                        Some(dd) => {
                                            if dd.len() != bounds.len() {
                                                return Err(format!(
                                                    "dist clause rank mismatch on {}",
                                                    item.name
                                                ));
                                            }
                                            let nd =
                                                dd.iter().filter(|x| **x != DistDim::Star).count();
                                            if nd != grid.ndims() {
                                                return Err(format!(
                                                    "{}: {} distributed dims vs processor \
                                                     rank {}",
                                                    item.name,
                                                    nd,
                                                    grid.ndims()
                                                ));
                                            }
                                            dd.clone()
                                        }
                                        None => vec![DistDim::Star; bounds.len()],
                                    };
                                    let total: usize =
                                        bounds.iter().map(|&(l, h)| (h - l + 1) as usize).product();
                                    let arr = Rc::new(std::cell::RefCell::new(ArrObj {
                                        name: item.name.clone(),
                                        bounds,
                                        dist: distv,
                                        grid,
                                        data: vec![0.0; total],
                                        is_real: *is_real,
                                        dist_gen: 0,
                                    }));
                                    self.frame_mut()
                                        .bind(&item.name, Binding::Array(View::whole(arr)));
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    // ---------- statements ----------

    fn exec_stmts(&mut self, stmts: &[Stmt]) -> RtResult<Flow> {
        for s in stmts {
            if self.exec_stmt(s)? == Flow::Return {
                return Ok(Flow::Return);
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &Stmt) -> RtResult<Flow> {
        match &s.kind {
            StmtKind::Assign { lhs, rhs } => {
                let v = self.eval(rhs)?;
                match &lhs.kind {
                    LValueKind::Scalar(name) => {
                        if matches!(self.frame().lookup(name), Some(Binding::Array(_))) {
                            return Err(format!("cannot assign scalar to array {name}"));
                        }
                        self.frame_mut().set_scalar(name, v);
                    }
                    LValueKind::Element { name, subs } => {
                        let idxs: Vec<i64> = subs
                            .iter()
                            .map(|e| self.eval(e).map(|v| v.as_int()))
                            .collect::<RtResult<_>>()?;
                        self.write_element(name, &idxs, v.as_f64())?;
                    }
                }
                if !matches!(self.mode, Mode::Inspect(_)) {
                    self.proc.compute(rhs.flop_count());
                }
                Ok(Flow::Normal)
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                if self.eval(cond)?.truthy() {
                    self.exec_stmts(then_body)
                } else {
                    self.exec_stmts(else_body)
                }
            }
            StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body,
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
                let mut i = lo;
                while (st > 0 && i <= hi) || (st < 0 && i >= hi) {
                    self.frame_mut().set_scalar(var, Value::Int(i));
                    if self.exec_stmts(body)? == Flow::Return {
                        return Ok(Flow::Return);
                    }
                    i += st;
                }
                Ok(Flow::Normal)
            }
            StmtKind::Return => Ok(Flow::Return),
            StmtKind::Call { name, args, on, .. } => {
                self.exec_call(name, args, on.as_ref())?;
                Ok(Flow::Normal)
            }
            StmtKind::Doall {
                site,
                vars,
                ranges,
                on,
                body,
            } => {
                self.exec_doall(*site, vars, ranges, on, body)?;
                Ok(Flow::Normal)
            }
            StmtKind::Distribute { name, dist, .. } => {
                self.exec_distribute(name, dist)?;
                Ok(Flow::Normal)
            }
        }
    }

    // ---------- doall ----------

    fn exec_doall(
        &mut self,
        site: usize,
        vars: &[String],
        ranges: &[(Expr, Expr, Option<Expr>)],
        on: &OnClause,
        body: &[Stmt],
    ) -> RtResult<()> {
        if !matches!(self.mode, Mode::Normal) {
            return Err("nested doall loops are not supported".into());
        }
        // Enumerate iterations (outer variable first).
        let mut bounds = Vec::new();
        for (lo, hi, step) in ranges {
            let l = self.eval(lo)?.as_int();
            let h = self.eval(hi)?.as_int();
            let s = match step {
                Some(e) => self.eval(e)?.as_int(),
                None => 1,
            };
            if s <= 0 {
                return Err("doall requires a positive step".into());
            }
            bounds.push((l, h, s));
        }
        let mut iters: Vec<Vec<i64>> = vec![];
        match bounds.len() {
            1 => {
                let (l, h, s) = bounds[0];
                let mut i = l;
                while i <= h {
                    iters.push(vec![i]);
                    i += s;
                }
            }
            2 => {
                let (l1, h1, s1) = bounds[0];
                let (l2, h2, s2) = bounds[1];
                let mut i = l1;
                while i <= h1 {
                    let mut j = l2;
                    while j <= h2 {
                        iters.push(vec![i, j]);
                        j += s2;
                    }
                    i += s1;
                }
            }
            _ => return Err("doall supports one or two loop variables".into()),
        }

        // Owner set per iteration. When a static plan may seed this site,
        // keep the full per-iteration owner sets: seeding simulates every
        // team member's inspector pass, and the owner sets are its input.
        let keep_owners = self.schedules.is_some() && self.static_plans.contains_key(&site);
        let mut all_ranks: Vec<Vec<usize>> = Vec::new();
        let mut my_iters: Vec<Vec<i64>> = Vec::new();
        for it in &iters {
            self.push_iter_scope(vars, it);
            let ranks = self.on_clause_ranks(on)?;
            self.pop_iter_scope();
            if ranks.contains(&self.me()) {
                my_iters.push(it.clone());
            }
            if keep_owners {
                all_ranks.push(ranks);
            }
        }

        self.doall_depth += 1;
        let result = if body_has_parallel_call(self.prog, body) {
            // Team-call mode (Listing 7): members of each iteration's
            // owner set execute the body cooperatively.
            let mut r = Ok(());
            for it in &my_iters {
                self.push_iter_scope(vars, it);
                let res = self.exec_stmts(body);
                self.pop_iter_scope();
                if let Err(e) = res {
                    r = Err(e);
                    break;
                }
            }
            r
        } else {
            let owners = keep_owners.then_some((&iters[..], &all_ranks[..]));
            self.run_inspector_executor(site, vars, &my_iters, owners, body)
        };
        self.doall_depth -= 1;
        result
    }

    /// Concretize a compile-time plan into the exact `CommSchedule` the
    /// inspector would build for this invocation — the trip driver seeds
    /// the cache with it ahead of an analyzable site's first trip, so
    /// every member stores the same schedule at ordinal 1, the first
    /// replay vote agrees, and the inspector never runs. Every step
    /// mirrors [`Interp::inspect`]: the per-iteration read simulation
    /// reproduces the inspector's per-rank needs lists (first-touch
    /// order, deduplicated) and boundary classification; the array list
    /// is the same exchange list; `my_reqs` routing and the peers'
    /// `incoming` lists reproduce what the request rounds would deliver.
    /// The simulation is a pure function of the distributions, bounds and
    /// program text — all SPMD-uniform — so every team member computes
    /// identical schedules without communicating. Returns `None` when
    /// anything falls outside the plan's provable class (unexpected
    /// binding, out of bounds): the runtime inspector is the
    /// always-correct fallback.
    fn build_static_schedule(
        &mut self,
        plan: &StaticCommPlan,
        team: &Team,
        arrays: &[ExchangeArray],
        vars: &[String],
        iters: &[Vec<i64>],
        all_ranks: &[Vec<usize>],
    ) -> Option<CommSchedule> {
        let q = team.len();
        let me = self.me();
        let my_ti = team.index_of(me)?;

        // ---- Simulated inspector, once per team member: which remote
        // flats does each rank's iteration set read (per base, first-touch
        // order), and which of *my* iterations touch a remote element.
        let mut needs: Vec<Vec<(ArrRef, Vec<usize>)>> = vec![Vec::new(); q];
        let mut boundary: Vec<usize> = Vec::new();
        for (ti, &rank) in team.ranks().iter().enumerate() {
            let mut pos = 0usize;
            for (it, owners) in iters.iter().zip(all_ranks) {
                if !owners.contains(&rank) {
                    continue;
                }
                self.push_iter_scope(vars, it);
                let touched = self.simulate_iter_reads(plan, rank, &mut needs[ti]);
                self.pop_iter_scope();
                let touched = touched?;
                if touched && ti == my_ti {
                    boundary.push(pos);
                }
                pos += 1;
            }
        }

        // ---- Request routing over the exchange list.
        let mut scheds: Vec<ArraySchedule> = Vec::with_capacity(arrays.len());
        for a in arrays {
            let needs_of = |ti: usize| -> &[usize] {
                needs[ti]
                    .iter()
                    .find(|(b, _)| Rc::ptr_eq(b, &a.base))
                    .map(|(_, v)| v.as_slice())
                    .unwrap_or(&[])
            };
            let my_reqs = self.compute_requests(team, &a.base, needs_of(my_ti)).ok()?;
            // What the request round would deliver: `incoming[ti]` is peer
            // `ti`'s request vector addressed to me — the subset of its
            // needs that I own, in the peer's discovery order.
            let mut incoming: Vec<Vec<u64>> = Vec::with_capacity(q);
            for ti in 0..q {
                let peer_reqs = self.compute_requests(team, &a.base, needs_of(ti)).ok()?;
                incoming.push(peer_reqs.into_iter().nth(my_ti)?);
            }
            scheds.push(ArraySchedule {
                name: a.name.clone(),
                my_reqs,
                incoming,
                origin: a.origin,
            });
        }

        // The stale-read hazard guard, statically: every simulated remote
        // read must belong to an array in the exchange list.
        for (arr, flats) in &needs[my_ti] {
            if !flats.is_empty() && !arrays.iter().any(|a| Rc::ptr_eq(&a.base, arr)) {
                return None;
            }
        }

        Some(CommSchedule {
            arrays: scheds,
            // A capacity hint only — never observable in results.
            write_hint: 0,
            boundary,
        })
    }

    /// One iteration of the simulated inspector for `rank`: walk the
    /// plan's reads in body evaluation order, recording remote flats into
    /// `needs` exactly as `InspectState::record` would (dedup per base,
    /// first-touch order). Returns whether any read was remote, or `None`
    /// when a read falls outside the provable class (not an array binding,
    /// subscript out of bounds).
    fn simulate_iter_reads(
        &mut self,
        plan: &StaticCommPlan,
        rank: usize,
        needs: &mut Vec<(ArrRef, Vec<usize>)>,
    ) -> Option<bool> {
        let mut touched = false;
        for read in &plan.reads {
            let Some(Binding::Array(view)) = self.frame().lookup(&read.name).cloned() else {
                return None;
            };
            let mut idxs = Vec::with_capacity(read.subs.len());
            for sub in &read.subs {
                // Plan subscripts are scalar-pure, so evaluation touches
                // no array storage and cannot communicate.
                idxs.push(self.eval(sub).ok()?.as_int());
            }
            let base_idxs = view.to_base(&idxs).ok()?;
            let b = view.base.borrow();
            let flat = b.flat(&base_idxs).ok()?;
            if b.replicated() || b.owned_by(rank, &base_idxs) {
                continue;
            }
            drop(b);
            touched = true;
            match needs.iter_mut().find(|(a, _)| Rc::ptr_eq(a, &view.base)) {
                Some((_, v)) => {
                    if !v.contains(&flat) {
                        v.push(flat);
                    }
                }
                None => needs.push((view.base.clone(), vec![flat])),
            }
        }
        Some(touched)
    }

    fn push_iter_scope(&mut self, vars: &[String], it: &[i64]) {
        let mut scope = HashMap::new();
        for (v, &val) in vars.iter().zip(it) {
            scope.insert(v.clone(), Binding::Scalar(Value::Int(val)));
        }
        self.frame_mut().scopes.push(scope);
    }

    fn pop_iter_scope(&mut self) {
        self.frame_mut().scopes.pop();
    }

    /// The distributed arrays the body reads, one entry per distinct
    /// base, in static (first-appearance) order: the doall's *exchange
    /// list*. It is a function of the body text and the frame's bindings
    /// alone — never of what an inspection finds — so a schedule cached
    /// under an equal key lists exactly these arrays, and one scan serves
    /// as the executor's world, the current region origins, and the
    /// inspector's routing table.
    fn exchange_arrays(&self, vars: &[String], body: &[Stmt]) -> RtResult<Vec<ExchangeArray>> {
        let mut arrays: Vec<ExchangeArray> = Vec::new();
        for (name, span) in collect_read_names(body) {
            let view = match self.frame().lookup(&name) {
                Some(Binding::Array(view)) => view,
                // Scalars and processor arrays move no data.
                Some(_) => continue,
                None => {
                    if INTRINSICS.contains(&name.as_str())
                        || vars.contains(&name)
                        || body_defines_scalar(body, &name)
                    {
                        continue;
                    }
                    let d = Diagnostic::new(
                        "A001",
                        span,
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
                name,
            });
        }
        Ok(arrays)
    }

    /// The four-phase doall engine — one trip of `kali-sched`'s driver.
    /// The driver owns the protocol (vote gate, lookup, vote, post,
    /// complete, scatter, rollback, store); this function hands it the
    /// interpreter's data — the cache key, the inspector as schedule
    /// builder, the exchange list as world, the current region origins,
    /// an optional static plan to seed from — and executes the
    /// iterations around it: interior while the messages fly, the rest
    /// after completion.
    fn run_inspector_executor(
        &mut self,
        site: usize,
        vars: &[String],
        my_iters: &[Vec<i64>],
        owners: Option<(&[Vec<i64>], &[Vec<usize>])>,
        body: &[Stmt],
    ) -> RtResult<()> {
        let team = self.frame().grid.team();
        let arrays = self.exchange_arrays(vars, body)?;
        let mut world = LangWorld {
            bases: arrays.iter().map(|a| a.base.clone()).collect(),
        };
        let trip = Trip {
            exec: EXEC,
            policy: self.policy,
            team: team.clone(),
            sits_out: false,
            key: match self.schedules {
                Some(_) => self.schedule_cache_key(site, &team, my_iters, body),
                None => None,
            },
            // Keys identify regions up to translation (owner-normalized
            // fixed view coordinates), so a hit may have been built for a
            // different line of the same team: the driver shifts it to
            // these origins before replaying.
            origins: Some(arrays.iter().map(|a| a.origin).collect()),
        };
        // The cache is lent to the driver for the trip, because the
        // builder it calls back needs the whole interpreter.
        let mut cache = self.schedules.take();
        let mut cache_ref = cache.as_mut();

        if let Some((iters, all_ranks)) = owners {
            if let Some(plan) = self.static_plans.get(&site).cloned() {
                trip.seed(self, cache_ref.as_deref_mut(), |me: &mut Self| {
                    me.build_static_schedule(&plan, &team, &arrays, vars, iters, all_ranks)
                });
            }
        }
        let build = |me: &mut Self, _: &LangWorld| me.inspect(&team, &arrays, vars, my_iters, body);
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
                // overlap.
                if let (None, Some(pre)) = (&interior_run, flight.interior_schedule()) {
                    self.proc.mark("doall:interior");
                    let interior = interior_positions(&pre.boundary, my_iters.len());
                    let hint = pre.write_hint;
                    let run = self.exec_iterations(vars, my_iters, &interior, body, hint)?;
                    interior_run = Some((pre, run));
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
            debug_assert!(
                sched
                    .arrays
                    .iter()
                    .map(|a| &a.name)
                    .eq(arrays.iter().map(|a| &a.name)),
                "a schedule under an equal key lists exactly the exchange list"
            );
            match interior_run {
                // The rest is the complement of what actually ran; a
                // rebuilt schedule classifies identically (equal key).
                Some((pre, interior)) => {
                    debug_assert_eq!(pre.boundary, sched.boundary);
                    self.proc.mark("doall:boundary");
                    self.finish_execution(&pre.boundary, 0, vars, my_iters, body, interior)
                }
                None => {
                    self.proc.mark("doall:execute");
                    let all: Vec<usize> = (0..my_iters.len()).collect();
                    let none = Default::default();
                    self.finish_execution(&all, sched.write_hint, vars, my_iters, body, none)
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
    /// their owners, and runs the request rounds, after which every team
    /// member also knows what its peers will ask of it.
    fn inspect(
        &mut self,
        team: &Team,
        arrays: &[ExchangeArray],
        vars: &[String],
        my_iters: &[Vec<i64>],
        body: &[Stmt],
    ) -> RtResult<CommSchedule> {
        self.proc.note_inspector_run();
        self.proc.mark("doall:inspect");
        self.mode = Mode::Inspect(InspectState::default());
        let mut boundary = Vec::new();
        for (pos, it) in my_iters.iter().enumerate() {
            if let Mode::Inspect(st) = &mut self.mode {
                st.iter_touched_remote = false;
            }
            self.push_iter_scope(vars, it);
            let r = self.exec_stmts(body);
            self.pop_iter_scope();
            r?;
            if let Mode::Inspect(st) = &self.mode {
                if st.iter_touched_remote {
                    boundary.push(pos);
                }
            }
        }
        let st = match std::mem::replace(&mut self.mode, Mode::Normal) {
            Mode::Inspect(st) => st,
            _ => unreachable!(),
        };

        let mut reqs_all: Vec<Vec<Vec<u64>>> = Vec::with_capacity(arrays.len());
        for a in arrays {
            let my_needs = st
                .needs
                .iter()
                .find(|(b, _)| Rc::ptr_eq(b, &a.base))
                .map_or(&[][..], |(_, v)| v.as_slice());
            reqs_all.push(self.compute_requests(team, &a.base, my_needs)?);
        }
        // Every array the inspector recorded remote reads for must take
        // part in the exchange; anything missed would execute on stale
        // values.
        for (arr, flats) in &st.needs {
            if !flats.is_empty() && !arrays.iter().any(|a| Rc::ptr_eq(&a.base, arr)) {
                return Err(format!(
                    "inspector recorded {} remote read(s) of {} but the exchange phase \
                     did not fetch them (stale-read hazard)",
                    flats.len(),
                    arr.borrow().name
                ));
            }
        }

        // ---- Request rounds. In split-phase mode the rounds of *all*
        // arrays are posted nonblocking at once, so the request latency
        // of later arrays hides behind the traffic of earlier ones
        // instead of serializing one synchronous exchange per array.
        let t0 = self.proc.clock();
        let incoming_all: Vec<Vec<Vec<u64>>> = if self.policy.split {
            ScheduleExecutor::request_rounds(SPLIT_REQUEST_TAG, self.proc, team, &reqs_all)
        } else {
            reqs_all
                .iter()
                .map(|reqs| collective::alltoallv(self.proc, team, reqs.clone()))
                .collect()
        };
        let dt = self.proc.clock() - t0;
        self.proc.attribute_inspector_time(dt);

        let arrays = arrays
            .iter()
            .zip(reqs_all)
            .zip(incoming_all)
            .map(|((a, my_reqs), incoming)| ArraySchedule {
                name: a.name.clone(),
                my_reqs,
                incoming,
                origin: a.origin,
            })
            .collect();
        Ok(CommSchedule {
            arrays,
            write_hint: st.writes,
            boundary,
        })
    }

    /// Run the iterations at `positions` (indices into `my_iters`) under
    /// Execute mode with a fresh write buffer. Returns the buffered writes
    /// and per-iteration end offsets into them (aligned with `positions`),
    /// so a caller that executes iterations out of order can still commit
    /// writes in original iteration order.
    #[allow(clippy::type_complexity)]
    fn exec_iterations(
        &mut self,
        vars: &[String],
        my_iters: &[Vec<i64>],
        positions: &[usize],
        body: &[Stmt],
        capacity: usize,
    ) -> RtResult<(Vec<(ArrRef, usize, f64)>, Vec<usize>)> {
        self.mode = Mode::Execute(Vec::with_capacity(capacity));
        let mut seg_ends = Vec::with_capacity(positions.len());
        for &pos in positions {
            if let Mode::Execute(buf) = &self.mode {
                self.iter_start = buf.len();
            }
            self.push_iter_scope(vars, &my_iters[pos]);
            let r = self.exec_stmts(body);
            self.pop_iter_scope();
            r?;
            if let Mode::Execute(buf) = &self.mode {
                seg_ends.push(buf.len());
            }
        }
        let writes = match std::mem::replace(&mut self.mode, Mode::Normal) {
            Mode::Execute(w) => w,
            _ => unreachable!(),
        };
        Ok((writes, seg_ends))
    }

    /// The tail of every trip: run the iterations still to do — the
    /// **boundary** after an interior that ran in flight, or all of them
    /// when none could — against freshened storage, then commit all
    /// buffered writes (copy-in/copy-out) in *original* iteration order:
    /// if two iterations write the same element, the last iteration must
    /// win whatever order they executed in.
    fn finish_execution(
        &mut self,
        boundary: &[usize],
        capacity: usize,
        vars: &[String],
        my_iters: &[Vec<i64>],
        body: &[Stmt],
        (int_writes, int_segs): (Vec<(ArrRef, usize, f64)>, Vec<usize>),
    ) -> RtResult<()> {
        let (bnd_writes, bnd_segs) =
            self.exec_iterations(vars, my_iters, boundary, body, capacity)?;

        self.proc
            .memop((int_writes.len() + bnd_writes.len()) as f64);
        let mut int_iter = int_writes.into_iter();
        let mut bnd_iter = bnd_writes.into_iter();
        let (mut i_seg, mut i_off) = (0usize, 0usize);
        let (mut b_seg, mut b_off) = (0usize, 0usize);
        let mut bi = 0usize;
        for pos in 0..my_iters.len() {
            let take = if bi < boundary.len() && boundary[bi] == pos {
                bi += 1;
                let n = bnd_segs[b_seg] - b_off;
                b_off = bnd_segs[b_seg];
                b_seg += 1;
                bnd_iter.by_ref().take(n)
            } else {
                let n = int_segs[i_seg] - i_off;
                i_off = int_segs[i_seg];
                i_seg += 1;
                int_iter.by_ref().take(n)
            };
            for (arr, flat, v) in take {
                arr.borrow_mut().data[flat] = v;
            }
        }
        Ok(())
    }

    /// Route `my_needs` (flat indices of remote elements of `base`) to
    /// their owners: one request vector per team member. Purely local —
    /// the request *round* itself runs through the shared executor (or a
    /// blocking all-to-all in blocking mode).
    fn compute_requests(
        &mut self,
        team: &Team,
        base: &ArrRef,
        my_needs: &[usize],
    ) -> RtResult<Vec<Vec<u64>>> {
        let q = team.len();
        let mut reqs: Vec<Vec<u64>> = vec![Vec::new(); q];
        let b = base.borrow();
        for &flat in my_needs {
            let idxs = b.unflat(flat);
            let owner = b
                .owner_of(&idxs)
                .ok_or_else(|| format!("element of {} has no owner", b.name))?;
            let Some(ti) = team.index_of(owner) else {
                return Err(format!(
                    "owner rank {owner} of {} is outside the current processor array",
                    b.name
                ));
            };
            reqs[ti].push(flat as u64);
        }
        Ok(reqs)
    }

    /// Request/reply exchange bringing `my_needs` (flat indices of remote
    /// elements of `base`) into local storage — an uncached one-shot
    /// schedule executed blocking through the shared engine, used by
    /// `distribute`.
    fn fetch_remote(&mut self, team: &Team, base: &ArrRef, my_needs: &[usize]) -> RtResult<()> {
        let my_reqs = self.compute_requests(team, base, my_needs)?;
        let incoming = collective::alltoallv(self.proc, team, my_reqs.clone());
        let sched = CommSchedule {
            arrays: vec![ArraySchedule {
                name: base.borrow().name.clone(),
                my_reqs,
                incoming,
                origin: 0,
            }],
            write_hint: 0,
            boundary: Vec::new(),
        };
        let mut world = LangWorld {
            bases: vec![base.clone()],
        };
        EXEC.exchange_blocking(self.proc, team, &sched, &mut world);
        Ok(())
    }

    // ---------- schedule cache ----------

    /// Build the cache key for this invocation, or `None` when the site is
    /// not cacheable: a name in a schedule-relevant position (subscript,
    /// branch condition, `do` bound, builtin argument) resolves to an
    /// array — its *values* could steer the inspector — or the body calls
    /// a user subroutine / nests constructs whose communication this scan
    /// cannot prove invariant.
    fn schedule_cache_key(
        &self,
        site: usize,
        team: &Team,
        my_iters: &[Vec<i64>],
        body: &[Stmt],
    ) -> Option<ScheduleKey> {
        let scan = scan_body(self.frame(), body);
        if !scan.cacheable {
            return None;
        }
        let mut fingerprints = Vec::new();
        for n in &scan.sched_names {
            if let Some(Binding::Array(view)) = self.frame().lookup(n) {
                let b = view.base.borrow();
                if b.replicated() {
                    // Replicated values are locally visible: key on their
                    // content so the cached schedule is exactly as fresh
                    // as the data it was derived from.
                    fingerprints.push((n.clone(), data_fingerprint(&b.data)));
                } else {
                    // A distributed array's remote values cannot key a
                    // local decision; the schedule is data-dependent in a
                    // way no local key captures.
                    return None;
                }
            }
        }
        fingerprints.sort();
        let mut names = scan.names;
        names.sort();
        names.dedup();
        let mut scalars = Vec::new();
        let mut views: Vec<(String, View)> = Vec::new();
        for n in names {
            match self.frame().lookup(&n) {
                // Only schedule-relevant scalars belong in the key: a
                // scalar that feeds values but never subscripts or
                // control flow (e.g. the enclosing do's counter) cannot
                // change what the inspector would discover.
                Some(Binding::Scalar(v)) if scan.sched_names.contains(&n) => {
                    scalars.push((n, *v));
                }
                Some(Binding::Array(view)) => views.push((n, view.clone())),
                _ => {}
            }
        }
        let arrays = views
            .iter()
            .enumerate()
            .map(|(i, (n, view))| {
                let alias_of = views
                    .iter()
                    .position(|(_, w)| Rc::ptr_eq(&w.base, &view.base))
                    .unwrap_or(i);
                let aliased = views
                    .iter()
                    .filter(|(_, w)| Rc::ptr_eq(&w.base, &view.base))
                    .count()
                    > 1;
                let b = view.base.borrow();
                let map = view
                    .map
                    .iter()
                    .enumerate()
                    .map(|(d, vd)| match *vd {
                        ViewDim::Range(lo, hi) => KeyDim::Range(lo, hi),
                        ViewDim::Fixed(v) => {
                            if aliased || v < b.bounds[d].0 || v > b.bounds[d].1 {
                                KeyDim::FixedAbs(v)
                            } else {
                                KeyDim::FixedOwner(
                                    b.dist1(d)
                                        .map(|dist| dist.owner((v - b.bounds[d].0) as usize)),
                                )
                            }
                        }
                    })
                    .collect();
                ArrayKey {
                    name: n.clone(),
                    bounds: b.bounds.clone(),
                    dist: b.dist.clone(),
                    grid_ranks: b.grid.ranks().to_vec(),
                    grid_extents: (0..b.grid.ndims()).map(|d| b.grid.extent(d)).collect(),
                    dist_gen: b.dist_gen,
                    map,
                    callee_lo: view.callee_lo.clone(),
                    alias_of,
                }
            })
            .collect();
        Some(ScheduleKey {
            site,
            team_ranks: team.ranks().to_vec(),
            my_iters: my_iters.to_vec(),
            scalars,
            fingerprints,
            arrays,
        })
    }

    /// `distribute a (block, cyclic, *)`: move the array's data to the
    /// owners under the new `dist` clause and bump its distribution
    /// generation so no stale schedule can ever be replayed against it.
    fn exec_distribute(&mut self, name: &str, dist: &[DistDim]) -> RtResult<()> {
        if !matches!(self.mode, Mode::Normal) || self.doall_depth > 0 {
            return Err(format!(
                "distribute {name} is only legal in replicated code outside any doall"
            ));
        }
        let Some(Binding::Array(view)) = self.frame().lookup(name).cloned() else {
            return Err(format!("distribute: {name} is not an array"));
        };
        let base = view.base.clone();
        let me = self.me();
        let (needs, team) = {
            let b = base.borrow();
            if dist.len() != b.ndims() {
                return Err(format!(
                    "distribute {name}: {} dist entries for a rank-{} array",
                    dist.len(),
                    b.ndims()
                ));
            }
            if b.replicated() {
                return Err(format!(
                    "distribute {name}: the array is replicated; only distributed \
                     arrays can change owners"
                ));
            }
            let nd = dist.iter().filter(|d| **d != DistDim::Star).count();
            if nd != b.grid.ndims() {
                return Err(format!(
                    "distribute {name}: {nd} distributed dims vs processor rank {}",
                    b.grid.ndims()
                ));
            }
            // Ownership probe under the new distribution (no storage).
            let probe = ArrObj {
                name: b.name.clone(),
                bounds: b.bounds.clone(),
                dist: dist.to_vec(),
                grid: b.grid.clone(),
                data: Vec::new(),
                is_real: b.is_real,
                dist_gen: b.dist_gen,
            };
            let mut needs = Vec::new();
            for flat in 0..b.total_len() {
                let idxs = b.unflat(flat);
                if probe.owner_of(&idxs) == Some(me) && !b.owned_by(me, &idxs) {
                    needs.push(flat);
                }
            }
            (needs, b.grid.team())
        };
        if team != self.frame().grid.team() {
            return Err(format!(
                "distribute {name}: the array's processor grid does not match the \
                 current processor array"
            ));
        }
        // Fetch the newly owned elements while the *old* ownership map
        // still routes the requests, then flip the map.
        self.fetch_remote(&team, &base, &needs)?;
        let mut b = base.borrow_mut();
        b.dist = dist.to_vec();
        b.bump_dist_gen();
        Ok(())
    }

    fn on_clause_ranks(&mut self, on: &OnClause) -> RtResult<Vec<usize>> {
        match on {
            OnClause::Owner { array, subs } => {
                let Some(Binding::Array(view)) = self.frame().lookup(array).cloned() else {
                    return Err(format!("owner(): {array} is not an array"));
                };
                let base_subs = self.view_subs_to_base(&view, subs)?;
                let ranks = view.base.borrow().owner_ranks(&base_subs);
                ranks
            }
            OnClause::Procs(pe) => {
                let g = self.eval_proc_expr(pe)?;
                Ok(g.ranks().to_vec())
            }
        }
    }

    /// Translate callee-side starred subscripts into base-array starred
    /// subscripts through a view.
    fn view_subs_to_base(
        &mut self,
        view: &View,
        subs: &[Option<Expr>],
    ) -> RtResult<Vec<Option<i64>>> {
        if subs.len() != view.ndims() {
            return Err(format!(
                "owner(): rank mismatch ({} subscripts on rank-{} section)",
                subs.len(),
                view.ndims()
            ));
        }
        let mut out = Vec::with_capacity(view.map.len());
        let mut d = 0usize;
        for m in &view.map {
            match m {
                ViewDim::Fixed(v) => out.push(Some(*v)),
                ViewDim::Range(lo, _) => {
                    match &subs[d] {
                        Some(e) => {
                            let i = self.eval(e)?.as_int();
                            out.push(Some(lo + (i - view.callee_lo[d])));
                        }
                        None => out.push(None),
                    }
                    d += 1;
                }
            }
        }
        Ok(out)
    }

    fn eval_proc_expr(&mut self, pe: &ProcExpr) -> RtResult<ProcGrid> {
        match pe {
            ProcExpr::Whole(name) => match self.frame().lookup(name) {
                Some(Binding::Grid(g)) => Ok(g.clone()),
                _ => Err(format!("{name} is not a processor array")),
            },
            ProcExpr::Select { name, subs } => {
                let g = match self.frame().lookup(name) {
                    Some(Binding::Grid(g)) => g.clone(),
                    _ => return Err(format!("{name} is not a processor array")),
                };
                if subs.len() != g.ndims() {
                    return Err(format!("processor selection rank mismatch on {name}"));
                }
                let mut pins: Vec<(usize, usize)> = Vec::new();
                for (d, s) in subs.iter().enumerate() {
                    if let Some(e) = s {
                        let v = self.eval(e)?.as_int();
                        // KF1 processor arrays are 1-based.
                        if v < 1 || v as usize > g.extent(d) {
                            return Err(format!(
                                "processor index {v} out of range 1..{} on {name}",
                                g.extent(d)
                            ));
                        }
                        pins.push((d, v as usize - 1));
                    }
                }
                pins.sort_by_key(|p| std::cmp::Reverse(p.0));
                let mut out = g;
                for (d, c) in pins {
                    out = out.slice(d, c);
                }
                Ok(out)
            }
            ProcExpr::Owner { array, subs } => {
                let Some(Binding::Array(view)) = self.frame().lookup(array).cloned() else {
                    return Err(format!("owner(): {array} is not an array"));
                };
                let base_subs = self.view_subs_to_base(&view, subs)?;
                let grid = view.base.borrow().owner_grid(&base_subs);
                grid
            }
        }
    }

    // ---------- calls ----------

    fn exec_call(&mut self, name: &str, args: &[Arg], on: Option<&ProcExpr>) -> RtResult<()> {
        if BUILTINS.contains(&name) {
            return self.exec_builtin(name, args);
        }
        let Some(sub) = self.prog.find(name) else {
            return Err(format!("no subroutine named {name}"));
        };
        if matches!(self.mode, Mode::Inspect(_) | Mode::Execute(_)) && sub.parallel {
            return Err(format!(
                "parallel call to {name} inside a data-parallel doall body"
            ));
        }
        let team = match on {
            Some(pe) => self.eval_proc_expr(pe)?,
            None => self.frame().grid.clone(),
        };
        if sub.parallel && !team.contains(self.me()) {
            return Ok(()); // not a member: skip the distributed call
        }
        if sub.params.len() != args.len() {
            return Err(format!(
                "{name} takes {} arguments, got {}",
                sub.params.len(),
                args.len()
            ));
        }
        let mut bindings = Vec::new();
        for (p, a) in sub.params.iter().zip(args) {
            let b = match a {
                Arg::Expr(Expr {
                    kind: ExprKind::Var(v),
                    ..
                }) => match self.frame().lookup(v) {
                    Some(Binding::Array(view)) => Binding::Array(view.clone()),
                    Some(Binding::Grid(g)) => Binding::Grid(g.clone()),
                    Some(Binding::Scalar(s)) => Binding::Scalar(*s),
                    None => return Err(format!("undefined argument {v}")),
                },
                Arg::Expr(e) => Binding::Scalar(self.eval(e)?),
                Arg::Section { name: an, subs, .. } => {
                    Binding::Array(self.make_section_view(an, subs)?)
                }
            };
            bindings.push((p.clone(), b));
        }
        if let Some(pp) = &sub.proc_param {
            bindings.push((pp.clone(), Binding::Grid(team.clone())));
        }
        // Distributed procedures run on the narrowed processor array;
        // sequential ones run replicated on the current one.
        let callee_grid = if sub.parallel {
            team
        } else {
            self.frame().grid.clone()
        };
        self.call_sub(sub, bindings, callee_grid)
    }

    fn make_section_view(&mut self, name: &str, subs: &[Section]) -> RtResult<View> {
        let Some(Binding::Array(view)) = self.frame().lookup(name).cloned() else {
            return Err(format!("{name} is not an array"));
        };
        if subs.len() != view.ndims() {
            return Err(format!("section rank mismatch on {name}"));
        }
        let mut map = Vec::with_capacity(view.map.len());
        let mut callee_lo = Vec::new();
        let mut d = 0usize;
        for m in &view.map {
            match m {
                ViewDim::Fixed(v) => map.push(ViewDim::Fixed(*v)),
                ViewDim::Range(lo, hi) => {
                    match &subs[d] {
                        Section::Index(e) => {
                            let i = self.eval(e)?.as_int();
                            map.push(ViewDim::Fixed(lo + (i - view.callee_lo[d])));
                        }
                        Section::Range(e1, e2) => {
                            let a = self.eval(e1)?.as_int();
                            let b = self.eval(e2)?.as_int();
                            let base_a = lo + (a - view.callee_lo[d]);
                            let base_b = lo + (b - view.callee_lo[d]);
                            if base_a < *lo || base_b > *hi || base_b < base_a {
                                return Err(format!("section {a}:{b} of {name} out of range"));
                            }
                            map.push(ViewDim::Range(base_a, base_b));
                            callee_lo.push(1);
                        }
                        Section::All => {
                            map.push(ViewDim::Range(*lo, *hi));
                            callee_lo.push(view.callee_lo[d]);
                        }
                    }
                    d += 1;
                }
            }
        }
        Ok(View {
            base: view.base,
            map,
            callee_lo,
        })
    }

    /// Resolve a 1-D section to its base array and storage indices,
    /// requiring every element to live on this processor.
    fn local_section_flats(&self, name: &str, v: &View) -> RtResult<(ArrRef, Vec<usize>)> {
        let n = v.extent(0);
        let lo = v.callee_lo[0];
        let mut flats = Vec::with_capacity(n);
        let b = v.base.borrow();
        for i in 0..n {
            let idxs = v.to_base(&[lo + i as i64])?;
            if !b.owned_by(self.me(), &idxs) {
                return Err(format!(
                    "builtin {name}: section of {} is not local to processor {}",
                    b.name,
                    self.me()
                ));
            }
            flats.push(b.flat(&idxs)?);
        }
        drop(b);
        Ok((v.base.clone(), flats))
    }

    /// Built-in sequential kernels (`reduce`, `seqtri`, `spmv`) operating
    /// on 1-D sections — fully local, except `spmv`'s gathered operand.
    fn exec_builtin(&mut self, name: &str, args: &[Arg]) -> RtResult<()> {
        if name == "spmv" {
            return self.exec_spmv(args);
        }
        // Materialize section arguments.
        let mut sections: Vec<(ArrRef, Vec<usize>)> = Vec::new();
        let mut scalars: Vec<Value> = Vec::new();
        for a in args {
            match a {
                Arg::Section { name: an, subs, .. } => {
                    let v = self.make_section_view(an, subs)?;
                    if v.ndims() != 1 {
                        return Err(format!("builtin {name}: sections must be 1-D"));
                    }
                    sections.push(self.local_section_flats(name, &v)?);
                }
                Arg::Expr(e) => scalars.push(self.eval(e)?),
            }
        }
        if let Mode::Inspect(st) = &mut self.mode {
            // Locality validated; no mutation during inspection — only
            // the count of what the executor will write back.
            st.writes += match name {
                "reduce" => sections.iter().map(|sec| sec.1.len()).sum(),
                _ => sections.first().map_or(0, |sec| sec.1.len()),
            };
            return Ok(());
        }
        let read = |sec: &(ArrRef, Vec<usize>)| -> Vec<f64> {
            let b = sec.0.borrow();
            sec.1.iter().map(|&f| b.data[f]).collect()
        };
        match name {
            "reduce" => {
                // reduce(b, a, c, f, n)
                if sections.len() != 4 {
                    return Err("reduce(b, a, c, f, n) needs four sections".into());
                }
                let mut vb = read(&sections[0]);
                let mut va = read(&sections[1]);
                let mut vc = read(&sections[2]);
                let mut vf = read(&sections[3]);
                reduce_block(&mut vb, &mut va, &mut vc, &mut vf);
                self.proc.compute(reduce_flops(vb.len()));
                for (sec, vals) in sections.iter().zip([&vb, &va, &vc, &vf]) {
                    self.write_section(sec, vals)?;
                }
            }
            "seqtri" => {
                // seqtri(x, b, a, c, f, n): solve and store into x.
                if sections.len() != 5 {
                    return Err("seqtri(x, b, a, c, f, n) needs five sections".into());
                }
                let vb = read(&sections[1]);
                let va = read(&sections[2]);
                let vc = read(&sections[3]);
                let vf = read(&sections[4]);
                let x = thomas(&vb, &va, &vc, &vf);
                self.proc.compute(thomas_flops(x.len()));
                self.write_section(&sections[0], &x)?;
            }
            _ => unreachable!(),
        }
        Ok(())
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
    fn exec_spmv(&mut self, args: &[Arg]) -> RtResult<()> {
        let mut views = Vec::with_capacity(4);
        for a in args {
            let Arg::Section { name: an, subs, .. } = a else {
                return Err("spmv(y, ci, av, x) takes four sections".into());
            };
            let v = self.make_section_view(an, subs)?;
            if v.ndims() != 1 {
                return Err("builtin spmv: sections must be 1-D".into());
            }
            views.push(v);
        }
        let [yv, civ, avv, xv] = views.as_slice() else {
            return Err("spmv(y, ci, av, x) takes four sections".into());
        };
        let y = self.local_section_flats("spmv", yv)?;
        let ci = self.local_section_flats("spmv", civ)?;
        let av = self.local_section_flats("spmv", avv)?;
        if y.1.len() != 1 {
            return Err("builtin spmv: the y section is one element (one row)".into());
        }
        if ci.1.len() != av.1.len() {
            return Err("builtin spmv: ci and av sections must conform".into());
        }
        // The row's column set, from the local index array — fresh even
        // during inspection, which is what lets the inspector derive the
        // x-gather from data rather than from subscript structure.
        let cols: Vec<i64> = {
            let b = ci.0.borrow();
            ci.1.iter().map(|&f| b.data[f] as i64).collect()
        };
        let me = self.me();
        let mut xflats = Vec::with_capacity(cols.len());
        let mut remote = Vec::new();
        {
            let b = xv.base.borrow();
            let repl = b.replicated();
            for &c in &cols {
                let idxs = xv.to_base(&[c])?;
                let flat = b.flat(&idxs)?;
                if !repl && !b.owned_by(me, &idxs) {
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
        let sum = {
            let ab = av.0.borrow();
            let xb = xv.base.borrow();
            av.1.iter()
                .zip(&xflats)
                .map(|(&fa, &fx)| ab.data[fa] * xb.data[fx])
                .sum()
        };
        self.proc.compute(2.0 * cols.len() as f64);
        self.write_section(&y, &[sum])?;
        Ok(())
    }

    fn write_section(&mut self, sec: &(ArrRef, Vec<usize>), vals: &[f64]) -> RtResult<()> {
        match &mut self.mode {
            Mode::Execute(buf) => {
                for (&f, &v) in sec.1.iter().zip(vals) {
                    buf.push((sec.0.clone(), f, v));
                }
            }
            _ => {
                let mut b = sec.0.borrow_mut();
                for (&f, &v) in sec.1.iter().zip(vals) {
                    b.data[f] = v;
                }
            }
        }
        self.proc.memop(vals.len() as f64);
        Ok(())
    }

    // ---------- element access ----------

    fn write_element(&mut self, name: &str, idxs: &[i64], v: f64) -> RtResult<()> {
        let Some(Binding::Array(view)) = self.frame().lookup(name).cloned() else {
            return Err(format!("{name} is not an array"));
        };
        let base_idxs = view.to_base(idxs)?;
        let me = self.me();
        let (flat, ok, repl) = {
            let b = view.base.borrow();
            (
                b.flat(&base_idxs)?,
                b.owned_by(me, &base_idxs),
                b.replicated(),
            )
        };
        match &mut self.mode {
            Mode::Inspect(st) => {
                if !ok {
                    return Err(format!(
                        "owner-computes violation: processor {me} writes {name}{base_idxs:?} \
                         owned elsewhere (check the doall's on-clause)"
                    ));
                }
                st.writes += 1;
                Ok(())
            }
            Mode::Execute(buf) => {
                if !ok {
                    return Err(format!(
                        "owner-computes violation: processor {me} writes {name}{base_idxs:?}"
                    ));
                }
                buf.push((view.base.clone(), flat, v));
                Ok(())
            }
            Mode::Normal => {
                if repl || (self.doall_depth > 0 && ok) {
                    view.base.borrow_mut().data[flat] = v;
                    Ok(())
                } else if self.doall_depth > 0 {
                    Err(format!(
                        "owner-computes violation: processor {me} writes {name}{base_idxs:?}"
                    ))
                } else {
                    Err(format!(
                        "write to distributed array {name} outside a doall \
                         (replicated code cannot own it)"
                    ))
                }
            }
        }
    }

    fn read_element(&mut self, view: &View, idxs: &[i64]) -> RtResult<f64> {
        let base_idxs = view.to_base(idxs)?;
        let me = self.me();
        let b = view.base.borrow();
        let flat = b.flat(&base_idxs)?;
        let local = b.owned_by(me, &base_idxs);
        let val = b.data[flat];
        let name = b.name.clone();
        drop(b);
        match &mut self.mode {
            Mode::Inspect(st) => {
                if !local {
                    st.record(&view.base, flat);
                }
                Ok(val) // may be stale; only used for subscript-free reads
            }
            Mode::Execute(buf) => {
                // Within-iteration read-your-writes (Listing 4 pattern);
                // earlier iterations' writes stay invisible (copy-in).
                let it_start = self.iter_start;
                for (a, f, v) in buf[it_start..].iter().rev() {
                    if *f == flat && Rc::ptr_eq(a, &view.base) {
                        return Ok(*v);
                    }
                }
                Ok(val) // freshened by the exchange phase
            }
            Mode::Normal => {
                if local || self.doall_depth > 0 {
                    Ok(val)
                } else {
                    Err(format!(
                        "non-local read of {name}{base_idxs:?} in replicated code; \
                         remote values only flow through doall communication"
                    ))
                }
            }
        }
    }

    // ---------- expressions ----------

    fn eval(&mut self, e: &Expr) -> RtResult<Value> {
        match &e.kind {
            ExprKind::Int(v) => Ok(Value::Int(*v)),
            ExprKind::Real(v) => Ok(Value::Real(*v)),
            ExprKind::Var(name) => match self.frame().lookup(name) {
                Some(Binding::Scalar(v)) => Ok(*v),
                Some(Binding::Array(_)) => Err(format!("array {name} used as a scalar")),
                Some(Binding::Grid(_)) => Err(format!("processor array {name} used as a scalar")),
                None => Err(format!("undefined variable {name}")),
            },
            ExprKind::Un { op, e } => {
                let v = self.eval(e)?;
                Ok(match op {
                    UnOp::Neg => match v {
                        Value::Int(x) => Value::Int(-x),
                        Value::Real(x) => Value::Real(-x),
                    },
                    UnOp::Not => Value::Int(if v.truthy() { 0 } else { 1 }),
                })
            }
            ExprKind::Bin { op, l, r } => {
                let a = self.eval(l)?;
                let b = self.eval(r)?;
                Ok(eval_bin(*op, a, b))
            }
            ExprKind::Ref { name, args } => {
                // Array element or intrinsic, depending on the binding.
                if let Some(Binding::Array(view)) = self.frame().lookup(name).cloned() {
                    let idxs: Vec<i64> = args
                        .iter()
                        .map(|a| match a {
                            RefArg::Expr(e) => self.eval(e).map(|v| v.as_int()),
                            RefArg::Star => Err(format!(
                                "'*' subscript on {name} is only valid in owner()/sections"
                            )),
                        })
                        .collect::<RtResult<_>>()?;
                    let v = self.read_element(&view, &idxs)?;
                    let is_real = view.base.borrow().is_real;
                    return Ok(if is_real {
                        Value::Real(v)
                    } else {
                        Value::Int(v as i64)
                    });
                }
                self.eval_intrinsic(name, args)
            }
        }
    }

    fn eval_intrinsic(&mut self, name: &str, args: &[RefArg]) -> RtResult<Value> {
        let expr_arg = |a: &RefArg| -> RtResult<Expr> {
            match a {
                RefArg::Expr(e) => Ok(e.clone()),
                RefArg::Star => Err(format!("'*' not valid in {name}()")),
            }
        };
        match name {
            "log2" => {
                let v = self.eval(&expr_arg(&args[0])?)?.as_int();
                if v <= 0 {
                    return Err("log2 of a non-positive value".into());
                }
                Ok(Value::Int(63 - (v as u64).leading_zeros() as i64))
            }
            "mod" => {
                let a = self.eval(&expr_arg(&args[0])?)?.as_int();
                let b = self.eval(&expr_arg(&args[1])?)?.as_int();
                Ok(Value::Int(a % b))
            }
            "abs" => {
                let v = self.eval(&expr_arg(&args[0])?)?;
                Ok(match v {
                    Value::Int(x) => Value::Int(x.abs()),
                    Value::Real(x) => Value::Real(x.abs()),
                })
            }
            "sqrt" => {
                let v = self.eval(&expr_arg(&args[0])?)?.as_f64();
                Ok(Value::Real(v.sqrt()))
            }
            "min" | "max" => {
                let a = self.eval(&expr_arg(&args[0])?)?;
                let b = self.eval(&expr_arg(&args[1])?)?;
                let take_a = if name == "min" {
                    a.as_f64() <= b.as_f64()
                } else {
                    a.as_f64() >= b.as_f64()
                };
                Ok(if take_a { a } else { b })
            }
            "lower" | "upper" => self.eval_bound_intrinsic(name, args),
            _ => Err(format!("unknown function or array {name}")),
        }
    }

    /// `lower(x, procs(ip)[, dim])` / `upper(...)`: the first/last index of
    /// the block of `x` owned by the selected processor, in declared
    /// (1-based or as-declared) index space.
    fn eval_bound_intrinsic(&mut self, name: &str, args: &[RefArg]) -> RtResult<Value> {
        if args.len() < 2 {
            return Err(format!("{name}(array, procsel[, dim]) needs two arguments"));
        }
        let RefArg::Expr(Expr {
            kind: ExprKind::Var(aname),
            ..
        }) = &args[0]
        else {
            return Err(format!("{name}: first argument must be an array name"));
        };
        let Some(Binding::Array(view)) = self.frame().lookup(aname).cloned() else {
            return Err(format!("{name}: {aname} is not an array"));
        };
        // Second argument: a processor selection expression.
        let pe = match &args[1] {
            RefArg::Expr(Expr {
                kind: ExprKind::Var(n),
                ..
            }) => ProcExpr::Whole(n.clone()),
            RefArg::Expr(Expr {
                kind: ExprKind::Ref { name: n, args },
                ..
            }) => {
                let subs = args
                    .iter()
                    .map(|a| match a {
                        RefArg::Expr(e) => Some(e.clone()),
                        RefArg::Star => None,
                    })
                    .collect();
                ProcExpr::Select {
                    name: n.clone(),
                    subs,
                }
            }
            _ => return Err(format!("{name}: second argument must select processors")),
        };
        let sel = self.eval_proc_expr(&pe)?;
        if sel.size() != 1 {
            return Err(format!(
                "{name}: processor selection must be a single processor"
            ));
        }
        let rank = sel.ranks()[0];
        // Which callee dimension? Default: the only distributed dimension
        // *visible through the view* (fixed dims of a section don't count).
        let base = view.base.borrow();
        let dims: Vec<usize> = (0..base.ndims())
            .filter(|&d| base.dist[d] != DistDim::Star && matches!(view.map[d], ViewDim::Range(..)))
            .collect();
        let dim_base = if args.len() >= 3 {
            let d = self.eval(&expr_arg_expr(&args[2])?)?.as_int() as usize;
            // The dim argument is in callee dimension numbering (1-based).
            let mut seen = 0usize;
            let mut found = None;
            for (bd, m) in view.map.iter().enumerate() {
                if matches!(m, ViewDim::Range(..)) {
                    seen += 1;
                    if seen == d {
                        found = Some(bd);
                        break;
                    }
                }
            }
            found.ok_or_else(|| format!("{name}: bad dim argument"))?
        } else if dims.len() == 1 {
            dims[0]
        } else {
            return Err(format!(
                "{name}: array has {} distributed dims; pass the dim argument",
                dims.len()
            ));
        };
        let dist = base
            .dist1(dim_base)
            .ok_or_else(|| format!("{name}: dimension is not distributed"))?;
        let gd = base.grid_dim_of(dim_base).expect("distributed");
        let coords = base
            .grid
            .coords_of(rank)
            .ok_or_else(|| format!("{name}: processor not in the array's grid"))?;
        let qc = coords[gd];
        let (olo, ohi) = match (dist.lower(qc), dist.upper(qc)) {
            (Some(l), Some(h)) => (l, h),
            _ => {
                return Err(format!(
                    "{name}: processor owns no part of {aname} along that dimension"
                ))
            }
        };
        let base_lo = base.bounds[dim_base].0;
        drop(base);
        // Map the owned base range back through the view, clamped to the
        // section's range (so `lower(x, ...)` on a section reports the part
        // of the *section* the processor owns).
        let mut seen = 0usize;
        for (bd, m) in view.map.iter().enumerate() {
            if let ViewDim::Range(lo, hi) = m {
                if bd == dim_base {
                    let blo = (base_lo + olo as i64).max(*lo);
                    let bhi = (base_lo + ohi as i64).min(*hi);
                    if blo > bhi {
                        return Err(format!(
                            "{name}: processor owns no part of this section of {aname}"
                        ));
                    }
                    let base_idx = if name == "lower" { blo } else { bhi };
                    return Ok(Value::Int(view.callee_lo[seen] + (base_idx - lo)));
                }
                seen += 1;
            }
        }
        Err(format!("{name}: dimension is fixed in this section"))
    }
}

fn expr_arg_expr(a: &RefArg) -> RtResult<Expr> {
    match a {
        RefArg::Expr(e) => Ok(e.clone()),
        RefArg::Star => Err("'*' not valid here".into()),
    }
}

fn eval_bin(op: BinOp, a: Value, b: Value) -> Value {
    use BinOp::*;
    let both_int = matches!((a, b), (Value::Int(_), Value::Int(_)));
    match op {
        Add | Sub | Mul | Div | Rem => {
            if both_int {
                let (x, y) = (a.as_int(), b.as_int());
                Value::Int(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y, // Fortran integer division truncates
                    Rem => x % y,
                    _ => unreachable!(),
                })
            } else {
                let (x, y) = (a.as_f64(), b.as_f64());
                Value::Real(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    Rem => x % y,
                    _ => unreachable!(),
                })
            }
        }
        Eq | Ne | Lt | Le | Gt | Ge => {
            let (x, y) = (a.as_f64(), b.as_f64());
            let t = match op {
                Eq => x == y,
                Ne => x != y,
                Lt => x < y,
                Le => x <= y,
                Gt => x > y,
                Ge => x >= y,
                _ => unreachable!(),
            };
            Value::Int(t as i64)
        }
        And => Value::Int((a.truthy() && b.truthy()) as i64),
        Or => Value::Int((a.truthy() || b.truthy()) as i64),
    }
}

/// Scan a doall body for cacheability (see
/// [`Interp::schedule_cache_key`]): collect every referenced name, the
/// subset appearing in schedule-relevant positions, and whether any
/// construct forces a fresh inspection.
fn scan_body<'b>(frame: &Frame, body: &'b [Stmt]) -> BodyScan<'b> {
    let mut s = BodyScan {
        names: Vec::new(),
        sched_names: Vec::new(),
        assigns: Vec::new(),
        cacheable: true,
    };
    scan_stmts(frame, body, &mut s);
    // Transitive closure: a scalar assigned in the body whose value can
    // reach a schedule-relevant position drags its own inputs in.
    loop {
        let before = s.sched_names.len();
        let assigns = std::mem::take(&mut s.assigns);
        for (n, rhs) in &assigns {
            if s.sched_names.iter().any(|x| x == n) {
                scan_expr(frame, rhs, true, &mut s);
            }
        }
        s.assigns = assigns;
        if s.sched_names.len() == before {
            break;
        }
    }
    s
}

fn scan_push(list: &mut Vec<String>, n: &str) {
    if !list.iter().any(|x| x == n) {
        list.push(n.to_string());
    }
}

fn scan_stmts<'b>(frame: &Frame, body: &'b [Stmt], s: &mut BodyScan<'b>) {
    for st in body {
        match &st.kind {
            StmtKind::Assign { lhs, rhs } => {
                scan_expr(frame, rhs, false, s);
                match &lhs.kind {
                    LValueKind::Scalar(n) => {
                        scan_push(&mut s.names, n);
                        s.assigns.push((n, rhs));
                    }
                    LValueKind::Element { name, subs } => {
                        scan_push(&mut s.names, name);
                        for e in subs {
                            scan_expr(frame, e, true, s);
                        }
                    }
                }
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                scan_expr(frame, cond, true, s);
                scan_stmts(frame, then_body, s);
                scan_stmts(frame, else_body, s);
            }
            StmtKind::Do {
                lo, hi, step, body, ..
            } => {
                scan_expr(frame, lo, true, s);
                scan_expr(frame, hi, true, s);
                if let Some(e) = step {
                    scan_expr(frame, e, true, s);
                }
                scan_stmts(frame, body, s);
            }
            StmtKind::Call { name, args, .. } => {
                if BUILTINS.contains(&name.as_str()) {
                    for (k, a) in args.iter().enumerate() {
                        match a {
                            Arg::Expr(e) => scan_expr(frame, e, true, s),
                            Arg::Section { name: an, subs, .. } => {
                                scan_push(&mut s.names, an);
                                // spmv derives its x-gather from the
                                // *values* of the column-index section
                                // (argument 2): those values are
                                // schedule-relevant the same way a
                                // subscript array would be.
                                if name == "spmv" && k == 1 {
                                    scan_push(&mut s.sched_names, an);
                                }
                                for sec in subs {
                                    match sec {
                                        Section::Index(e) => scan_expr(frame, e, true, s),
                                        Section::Range(e1, e2) => {
                                            scan_expr(frame, e1, true, s);
                                            scan_expr(frame, e2, true, s);
                                        }
                                        Section::All => {}
                                    }
                                }
                            }
                        }
                    }
                } else {
                    // A user-subroutine call reads names this scan cannot
                    // see (the callee's body under its own bindings).
                    s.cacheable = false;
                }
            }
            // Nested doalls error in the inspector path, and `distribute`
            // rewrites ownership — never cache around either.
            StmtKind::Doall { .. } | StmtKind::Distribute { .. } => s.cacheable = false,
            StmtKind::Return => {}
        }
    }
}

fn scan_expr(frame: &Frame, e: &Expr, in_sched: bool, s: &mut BodyScan<'_>) {
    match &e.kind {
        ExprKind::Int(_) | ExprKind::Real(_) => {}
        ExprKind::Var(n) => {
            scan_push(&mut s.names, n);
            if in_sched {
                scan_push(&mut s.sched_names, n);
            }
        }
        ExprKind::Ref { name, args } => {
            scan_push(&mut s.names, name);
            if in_sched {
                scan_push(&mut s.sched_names, name);
            }
            // Subscripts of an *array* reference steer the inspector;
            // arguments of an intrinsic stay in the caller's context.
            let is_array = matches!(frame.lookup(name), Some(Binding::Array(_)));
            // `lower`/`upper` read only the *structure* of their array
            // argument (bounds, distribution, view) — all of which the
            // cache key captures — so that argument's name is exempt from
            // schedule-relevance; its values never steer the inspector.
            let exempt_first = !is_array && (name == "lower" || name == "upper");
            for (k, a) in args.iter().enumerate() {
                if let RefArg::Expr(e) = a {
                    if exempt_first && k == 0 {
                        scan_expr(frame, e, false, s);
                    } else {
                        scan_expr(frame, e, in_sched || is_array, s);
                    }
                }
            }
        }
        ExprKind::Un { e, .. } => scan_expr(frame, e, in_sched, s),
        ExprKind::Bin { l, r, .. } => {
            scan_expr(frame, l, in_sched, s);
            scan_expr(frame, r, in_sched, s);
        }
    }
}

/// Flat base index of a view's origin: fixed dimensions at their
/// coordinates, ranged dimensions at their lower bounds. Schedules record
/// it at build time ([`ArraySchedule::origin`]); replays under an
/// owner-normalized key shift their flat indices by the origin delta.
fn view_origin_flat(view: &View) -> RtResult<u64> {
    let idxs: Vec<i64> = view
        .map
        .iter()
        .map(|d| match *d {
            ViewDim::Fixed(v) => v,
            ViewDim::Range(lo, _) => lo,
        })
        .collect();
    Ok(view.base.borrow().flat(&idxs)? as u64)
}

/// Is `name` a scalar the body itself defines (a `do` loop variable or
/// the target of a scalar assignment)? Such names legitimately lack a
/// frame binding on a processor whose iteration set is empty.
fn body_defines_scalar(body: &[Stmt], name: &str) -> bool {
    body.iter().any(|s| match &s.kind {
        StmtKind::Assign {
            lhs:
                LValue {
                    kind: LValueKind::Scalar(n),
                    ..
                },
            ..
        } => n == name,
        StmtKind::Do { var, body, .. } => var == name || body_defines_scalar(body, name),
        StmtKind::If {
            then_body,
            else_body,
            ..
        } => body_defines_scalar(then_body, name) || body_defines_scalar(else_body, name),
        StmtKind::Doall { vars, body, .. } => {
            vars.iter().any(|v| v == name) || body_defines_scalar(body, name)
        }
        _ => false,
    })
}

/// Does the body contain a call to a *parallel* subroutine?
fn body_has_parallel_call(prog: &Program, body: &[Stmt]) -> bool {
    body.iter().any(|s| match &s.kind {
        StmtKind::Call { name, .. } => prog.find(name).is_some_and(|s| s.parallel),
        StmtKind::If {
            then_body,
            else_body,
            ..
        } => body_has_parallel_call(prog, then_body) || body_has_parallel_call(prog, else_body),
        StmtKind::Do { body, .. } => body_has_parallel_call(prog, body),
        _ => false,
    })
}

/// Names referenced in read position anywhere in a doall body, in
/// first-appearance order (the static array list for the exchange phase).
/// Each name carries the span of its first appearance so exchange-phase
/// errors can point at the offending expression.
fn collect_read_names(body: &[Stmt]) -> Vec<(String, Span)> {
    let mut out = Vec::new();
    fn expr(e: &Expr, out: &mut Vec<(String, Span)>) {
        match &e.kind {
            ExprKind::Int(_) | ExprKind::Real(_) => {}
            ExprKind::Var(n) => push(n, e.span, out),
            ExprKind::Ref { name, args } => {
                push(name, e.span, out);
                for a in args {
                    if let RefArg::Expr(e) = a {
                        expr(e, out);
                    }
                }
            }
            ExprKind::Un { e, .. } => expr(e, out),
            ExprKind::Bin { l, r, .. } => {
                expr(l, out);
                expr(r, out);
            }
        }
    }
    fn push(n: &str, span: Span, out: &mut Vec<(String, Span)>) {
        if !out.iter().any(|(x, _)| x == n) {
            out.push((n.to_string(), span));
        }
    }
    fn stmts(body: &[Stmt], out: &mut Vec<(String, Span)>) {
        for s in body {
            match &s.kind {
                StmtKind::Assign { lhs, rhs } => {
                    expr(rhs, out);
                    if let LValueKind::Element { subs, .. } = &lhs.kind {
                        for e in subs {
                            expr(e, out);
                        }
                    }
                }
                StmtKind::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    expr(cond, out);
                    stmts(then_body, out);
                    stmts(else_body, out);
                }
                StmtKind::Do {
                    lo, hi, step, body, ..
                } => {
                    expr(lo, out);
                    expr(hi, out);
                    if let Some(e) = step {
                        expr(e, out);
                    }
                    stmts(body, out);
                }
                StmtKind::Call { name, args, .. } => {
                    for a in args {
                        match a {
                            Arg::Expr(e) => expr(e, out),
                            // Builtin section arguments are reads of the
                            // named array; the gathered operand of `spmv`
                            // in particular must enter the exchange, or
                            // its inspector-recorded remote columns would
                            // trip the stale-read hazard check.
                            Arg::Section {
                                name: an,
                                name_span,
                                subs,
                            } if BUILTINS.contains(&name.as_str()) => {
                                push(an, *name_span, out);
                                for sec in subs {
                                    match sec {
                                        Section::Index(e) => expr(e, out),
                                        Section::Range(e1, e2) => {
                                            expr(e1, out);
                                            expr(e2, out);
                                        }
                                        Section::All => {}
                                    }
                                }
                            }
                            Arg::Section { .. } => {}
                        }
                    }
                }
                StmtKind::Doall { .. } | StmtKind::Distribute { .. } | StmtKind::Return => {}
            }
        }
    }
    stmts(body, &mut out);
    out
}
