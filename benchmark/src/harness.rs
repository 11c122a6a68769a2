//! The measurement protocol every workload goes through.
//!
//! A *run* is one fresh `Machine::run` at `p` workers: pin, build the
//! inputs from the seed, one cold trip and two warm trips, barrier, the
//! **timed block** of fixed work, barrier. Times are taken with
//! `Instant` inside the body, so spawn and allocation of the inputs are
//! outside the block. A *round* is a 1-worker run, the sequential
//! reference and a 2-worker run back to back; ratios are formed per round,
//! because the host has slow phases that move absolute times of
//! consecutive runs by up to a fifth while the ratio to a reference run
//! in the same round moves a few percent.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use kali::machine::{BackendKind, CostModel, Machine, MachineConfig, ProcStats, Topology};
use kali::prelude::{Ctx, ProcGrid};

use crate::alloc::{self, Tally};
use crate::pin;
use crate::trace::{Recorder, Span};

/// Exact, deterministic counters of one timed block, summed over the
/// workers. They must be identical in every round of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub msgs: u64,
    pub words: u64,
    pub exchange_words: u64,
    pub gather_words: u64,
    pub inspector_runs: u64,
    pub replays: u64,
    pub optimistic_hits: u64,
    pub rollbacks: u64,
    pub evictions: u64,
}

impl Counters {
    pub fn between(a: &ProcStats, b: &ProcStats) -> Counters {
        Counters {
            msgs: b.msgs_sent - a.msgs_sent,
            words: b.words_sent - a.words_sent,
            exchange_words: b.exchange_words - a.exchange_words,
            gather_words: b.gather_words - a.gather_words,
            inspector_runs: b.inspector_runs - a.inspector_runs,
            replays: b.schedule_replays - a.schedule_replays,
            optimistic_hits: b.optimistic_hits - a.optimistic_hits,
            rollbacks: b.rollbacks - a.rollbacks,
            evictions: b.schedule_evictions - a.schedule_evictions,
        }
    }

    pub fn of_report(r: &kali::machine::RunReport) -> Counters {
        Counters {
            msgs: r.total_msgs,
            words: r.total_words,
            exchange_words: r.total_exchange_words,
            gather_words: r.total_gather_words,
            inspector_runs: r.total_inspector_runs,
            replays: r.total_schedule_replays,
            optimistic_hits: r.total_optimistic_hits,
            rollbacks: r.total_rollbacks,
            evictions: r.total_schedule_evictions,
        }
    }

    pub fn add(&mut self, o: &Counters) {
        self.msgs += o.msgs;
        self.words += o.words;
        self.exchange_words += o.exchange_words;
        self.gather_words += o.gather_words;
        self.inspector_runs += o.inspector_runs;
        self.replays += o.replays;
        self.optimistic_hits += o.optimistic_hits;
        self.rollbacks += o.rollbacks;
        self.evictions += o.evictions;
    }

    /// Warm trips that replayed ÷ trips that consulted the cache.
    pub fn hit_ratio(&self) -> f64 {
        let trips = self.optimistic_hits + self.rollbacks + self.inspector_runs;
        if trips == 0 {
            0.0
        } else {
            self.optimistic_hits as f64 / trips as f64
        }
    }
}

/// How one run is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing on: the only mode end-to-end times come from.
    Plain,
    /// The traced twin with spans recorded (`round` stamps them).
    Traced { round: usize },
    /// Counting allocator on across the timed block only.
    CountBlock,
    /// Counting allocator on from spawn to the end of the block.
    PeakRound,
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct BlockRun {
    /// Wall seconds of the timed block, barrier to barrier, slowest
    /// worker.
    pub seconds: f64,
    /// Virtual seconds across the block, slowest processor (sim only).
    pub virtual_seconds: f64,
    /// The computed field, gathered (checked against the reference).
    pub result: Vec<f64>,
    pub counters: Counters,
    /// Every worker's spans (traced mode).
    pub spans: Vec<Span>,
    /// Allocator tally (counting modes).
    pub tally: Tally,
    /// Shares of the block wall, for workloads whose phases cannot be
    /// bracketed by spans (the interpreted ones derive them from extra
    /// calls). Empty: derive the shares from `spans`.
    pub shares: Vec<(&'static str, f64)>,
}

/// The sequential reference of one round.
#[derive(Debug, Clone, Default)]
pub struct RefRun {
    pub seconds: f64,
    pub result: Vec<f64>,
}

/// Which backend and machine size a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Real threads, `p` ≤ 2 workers, each pinned to its own CPU.
    Threads(usize),
    /// The virtual-time simulator with iPSC/2 costs: reads only the
    /// virtual clock, which scheduling cannot change. `div` divides the
    /// block.
    Sim { procs: usize, div: usize },
}

impl Target {
    /// The sim pass's machine.
    pub const SIM: Target = Target::Sim {
        procs: SIM_PROCS,
        div: SIM_DIV,
    };

    pub fn procs(&self) -> usize {
        match *self {
            Target::Threads(p) => p,
            Target::Sim { procs, .. } => procs,
        }
    }

    pub fn div(&self) -> usize {
        match *self {
            Target::Threads(_) => 1,
            Target::Sim { div, .. } => div,
        }
    }

    pub fn config(&self) -> MachineConfig {
        let backend = match self {
            Target::Threads(p) => {
                assert!(*p <= 2, "wall-clock passes never use more than 2 workers");
                BackendKind::Threads
            }
            Target::Sim { .. } => BackendKind::Sim,
        };
        Machine::build(backend, Topology::FullyConnected, CostModel::ipsc2())
            .procs(self.procs())
            .watchdog(Duration::from_secs(60))
            .config()
    }

    pub fn is_threads(&self) -> bool {
        matches!(self, Target::Threads(_))
    }
}

/// The sim pass runs the block's inputs on this many simulated
/// processors, at one `SIM_DIV`-th of the block.
pub const SIM_PROCS: usize = 8;
pub const SIM_DIV: usize = 10;

/// One timeline for every worker's spans.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// A workload whose timed block is an SPMD body the benchmark supplies
/// (the compiled path). `trips` of the opaque solver call make a block;
/// the traced twin does the same work from the layers' public pieces.
pub trait Compiled: Sync {
    type State;
    fn grid(&self, p: usize) -> ProcGrid;
    /// Build this rank's inputs from the seed.
    fn build(&self, ctx: &mut Ctx) -> Self::State;
    /// One cold trip and two warm trips. With `rec`, through the traced
    /// twin (whose caches are its own, so it must warm them itself).
    fn warm(&self, ctx: &mut Ctx, st: &mut Self::State, rec: Option<&mut Recorder>);
    /// The timed block, `1/div` of it on the simulator. With `rec`, the
    /// traced twin.
    fn block(&self, ctx: &mut Ctx, st: &mut Self::State, div: usize, rec: Option<&mut Recorder>);
    /// The computed field on the grid's first rank.
    fn result(&self, ctx: &mut Ctx, st: &Self::State) -> Option<Vec<f64>>;
    /// Spans one traced run records per worker, at most.
    fn span_capacity(&self) -> usize;
}

struct RankOut {
    seconds: f64,
    virtual_seconds: f64,
    counters: Counters,
    spans: Vec<Span>,
    result: Option<Vec<f64>>,
    tally: Tally,
}

/// One run of a compiled workload.
pub fn run_compiled<W: Compiled>(w: &W, target: Target, mode: Mode) -> BlockRun {
    let epoch = epoch();
    let p = target.procs();
    if mode == Mode::PeakRound {
        alloc::start();
    }
    let run = Machine::run(target.config(), |proc| {
        if target.is_threads() {
            pin::pin_rank(proc.rank());
        }
        let rank = proc.rank();
        let mut rec = match mode {
            Mode::Traced { round } => Some(Recorder::new(epoch, rank, round, w.span_capacity())),
            _ => None,
        };
        let mut ctx = Ctx::new(proc, w.grid(p));
        let mut st = w.build(&mut ctx);
        w.warm(&mut ctx, &mut st, rec.as_mut());
        if let Some(rec) = rec.as_mut() {
            // Only the block's spans are kept.
            rec.clear();
        }
        ctx.barrier();
        if mode == Mode::CountBlock {
            if rank == 0 {
                alloc::start();
            }
            ctx.barrier();
        }
        let stats0 = ctx.proc().stats().clone();
        let clock0 = ctx.proc().clock();
        let t0 = Instant::now();
        match rec.as_mut() {
            Some(rec) => {
                let id = rec.begin("block", "benchmark");
                w.block(&mut ctx, &mut st, target.div(), Some(rec));
                rec.end(id);
            }
            None => w.block(&mut ctx, &mut st, target.div(), None),
        }
        let counters = Counters::between(&stats0, ctx.proc().stats());
        let virtual_seconds = ctx.proc().clock() - clock0;
        ctx.barrier();
        let seconds = t0.elapsed().as_secs_f64();
        let tally = match (mode, rank) {
            (Mode::CountBlock, 0) => alloc::stop(),
            (Mode::PeakRound, 0) => alloc::read(),
            _ => Tally::default(),
        };
        RankOut {
            seconds,
            virtual_seconds,
            counters,
            spans: rec.map(Recorder::into_spans).unwrap_or_default(),
            result: w.result(&mut ctx, &st),
            tally,
        }
    });
    if mode == Mode::PeakRound {
        alloc::stop();
    }
    let mut out = BlockRun::default();
    for r in run.results {
        out.seconds = out.seconds.max(r.seconds);
        out.virtual_seconds = out.virtual_seconds.max(r.virtual_seconds);
        out.counters.add(&r.counters);
        out.spans.extend(r.spans);
        if let Some(res) = r.result {
            out.result = res;
        }
        if r.tally != Tally::default() {
            out.tally = r.tally;
        }
    }
    out
}

/// One fresh 2-worker set-up of a compiled workload: spawn → pin →
/// build inputs → cold trip → 2 warm trips → barrier → join. Seconds.
pub fn setup_compiled<W: Compiled>(w: &W) -> f64 {
    let t0 = Instant::now();
    Machine::run(Target::Threads(2).config(), |proc| {
        pin::pin_rank(proc.rank());
        let mut ctx = Ctx::new(proc, w.grid(2));
        let mut st = w.build(&mut ctx);
        w.warm(&mut ctx, &mut st, None);
        ctx.barrier();
    });
    t0.elapsed().as_secs_f64()
}

/// The sequential reference on the main thread, pinned to rank 0's CPU:
/// `warm` untimed, then `block` timed. A reference much faster than
/// kali's own block repeats it `reps` times (from a state the block
/// leaves reusable) so that no timed region is shorter than 0.1 s; the
/// time reported is per repetition.
pub fn time_reference<S>(
    reps: usize,
    build: impl FnOnce() -> S,
    warm: impl FnOnce(&mut S),
    mut block: impl FnMut(&mut S),
    result: impl FnOnce(S) -> Vec<f64>,
) -> RefRun {
    pin::on_cpu0(|| {
        let mut st = build();
        warm(&mut st);
        let t0 = Instant::now();
        for _ in 0..reps {
            block(&mut st);
        }
        let seconds = t0.elapsed().as_secs_f64() / reps as f64;
        RefRun {
            seconds,
            result: result(st),
        }
    })
}

/// A benchmark workload, as the passes in `run.rs` see it.
pub trait Workload: Sync {
    fn name(&self) -> &'static str;
    /// What `*_per_unit` metrics divide by, in words.
    fn unit(&self) -> &'static str;
    /// Units of work in one timed block.
    fn units(&self) -> f64;
    /// Units of work in one sim-pass block.
    fn sim_units(&self) -> f64;
    /// FNV-1a over the generated inputs: guards the generator.
    fn input_checksum(&self) -> u64;
    /// Largest |got − want| a result may show; 0 demands equal bits.
    fn tolerance(&self) -> f64;
    /// Rounds never exceed this (the issue's R); fewer when `--seconds`
    /// runs out first.
    fn max_rounds(&self) -> usize;
    fn setup_samples(&self) -> usize;
    /// `share.*` names this workload's traced twin attributes time to.
    fn shares(&self) -> &'static [&'static str];
    /// One run at `p` ∈ {1, 2} pinned workers on the threads backend.
    fn run(&self, p: usize, mode: Mode) -> BlockRun;
    fn reference(&self) -> RefRun;
    /// One set-up sample, seconds.
    fn setup(&self) -> f64;
    /// The sim pass: the block (or a stated fraction) on 8 simulated
    /// processors.
    fn sim(&self) -> BlockRun;
}

/// Do `got` and `want` agree within `tol` (0 = bit for bit)?
pub fn agrees(got: &[f64], want: &[f64], tol: f64) -> bool {
    got.len() == want.len()
        && !got.is_empty()
        && got.iter().zip(want).all(|(g, w)| {
            if tol == 0.0 {
                g.to_bits() == w.to_bits()
            } else {
                (g - w).abs() <= tol
            }
        })
}
