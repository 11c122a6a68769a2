//! The passes over one workload, and the metrics they produce.
//!
//! * [`timed_pass`] (`--trace 0`): the set-up pass, the timed rounds and
//!   one memory round → the end-to-end metrics.
//! * [`traced_pass`] (`--trace 1`): the layer probes, rounds with the
//!   traced twin next to the opaque call, an allocation-counting run and
//!   the sim pass → the per-layer metrics. End-to-end metrics never come
//!   from this pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::alloc;
use crate::harness::{agrees, BlockRun, Counters, Mode, Workload};
use crate::probes::{self, Scale};
use crate::stats::{summarize, Summary};
use crate::trace::{self_times, Span};

/// One reported number — the median of its samples unless stated
/// otherwise — with the samples' median, quartiles and count beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Summary,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        let summary = if samples.is_empty() {
            Summary::single(f64::NAN)
        } else {
            summarize(samples)
        };
        Metric {
            name: name.into(),
            unit,
            value: summary.median,
            summary,
        }
    }

    /// A metric whose value is the third quartile of its samples.
    pub fn upper_quartile(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        let mut m = Metric::new(name, unit, samples);
        m.value = m.summary.q3;
        m
    }

    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric::new(name, unit, &[value])
    }
}

/// Operations attempted and failed: result checks against the
/// reference, panics and `Err`s, exact counters that differ between
/// rounds, sim runs that disagree, inputs that do not hash to the
/// committed checksum.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the human table.
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Run an operation that may panic (a kali `Err`, a failed assertion
    /// inside a worker, the deadlock watchdog); a panic is a failed
    /// operation.
    pub fn attempt<R>(&mut self, what: &str, f: impl FnOnce() -> R) -> Option<R> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => Some(r),
            Err(e) => {
                // The run may have died with the counting allocator on.
                alloc::stop();
                let msg = e
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| e.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic".into());
                self.failed += 1;
                self.notes.push(format!("{what}: {msg}"));
                None
            }
        }
    }
}

/// The result of one pass over one workload.
#[derive(Debug, Clone, Default)]
pub struct PassOutput {
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    /// Spans of the traced rounds (traced pass only).
    pub spans: Vec<Span>,
}

/// Expected `input_checksum` per workload at `--seed 1`, full size:
/// guards the generator against silent change.
pub const SEED1_CHECKSUMS: [(&str, u64); 5] = [
    ("jacobi_dense", 0xf983_11da_84c9_e570),
    ("mg2_vcycle", 0x9fad_b33a_ccee_33dd),
    ("cg_sparse", 0x3713_8ae1_4244_890b),
    ("kf1_iterative", 0xf0d9_0aeb_104d_594b),
    ("kf1_direct", 0x8341_fa28_2a5b_4919),
];

/// How big a pass is: the committed sizes, or toy sizes for the smoke
/// test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassConfig {
    pub seed: u64,
    /// Wall seconds the rounds measure for.
    pub seconds: f64,
    pub scale: Scale,
}

fn check_inputs(w: &dyn Workload, cfg: &PassConfig, checks: &mut Checks) {
    let sum = w.input_checksum();
    // Same seed, same inputs.
    checks.check(sum == w.input_checksum(), || {
        "input generator is not a function of the seed".into()
    });
    if cfg.seed == 1 && cfg.scale == Scale::Full {
        let want = SEED1_CHECKSUMS
            .iter()
            .find(|(n, _)| *n == w.name())
            .map(|(_, c)| *c);
        checks.check(want == Some(sum), || {
            format!(
                "{}: seed-1 input checksum {sum:#018x} differs from the committed one",
                w.name()
            )
        });
    }
}

/// Rounds run until `seconds` have passed, but never fewer than this
/// (nor more than the workload's own R).
const MIN_ROUNDS: usize = 12;

/// One round's timed blocks and the checks on them.
struct Round {
    two: BlockRun,
    /// The traced twin, run right after the untraced 2-worker run it is
    /// compared with (traced pass only).
    traced: Option<BlockRun>,
    one: BlockRun,
    ref_seconds: f64,
}

/// The reference runs in the middle, so that it is adjacent in time to
/// both runs it is the denominator (or numerator) of: the host's speed
/// drifts within seconds.
fn round(w: &dyn Workload, traced_round: Option<usize>, checks: &mut Checks) -> Option<Round> {
    let one = checks.attempt("1-worker run", || w.run(1, Mode::Plain))?;
    let reference = checks.attempt("reference", || w.reference())?;
    let two = checks.attempt("2-worker run", || w.run(2, Mode::Plain))?;
    let traced = match traced_round {
        Some(round) => {
            Some(checks.attempt("traced 2-worker run", || w.run(2, Mode::Traced { round }))?)
        }
        None => None,
    };
    let tol = w.tolerance();
    checks.check(agrees(&two.result, &reference.result, tol), || {
        format!("{}: 2-worker result differs from the reference", w.name())
    });
    checks.check(agrees(&one.result, &reference.result, tol), || {
        format!("{}: 1-worker result differs from the reference", w.name())
    });
    if let Some(traced) = &traced {
        checks.check(agrees(&traced.result, &two.result, 0.0), || {
            format!(
                "{}: traced twin is not bitwise-equal to the opaque call",
                w.name()
            )
        });
    }
    Some(Round {
        two,
        traced,
        one,
        ref_seconds: reference.seconds,
    })
}

/// Compare a round's exact counters with the first round's.
fn same_counters(first: &mut Option<Counters>, now: &Counters, what: &str, checks: &mut Checks) {
    match first {
        None => *first = Some(*now),
        Some(f) => checks.check(f == now, || {
            format!("{what}: exact counters changed between rounds: {f:?} vs {now:?}")
        }),
    }
}

/// `--trace 0`: set-up pass, timed rounds, memory round.
pub fn timed_pass(w: &dyn Workload, cfg: &PassConfig) -> PassOutput {
    let mut checks = Checks::default();
    check_inputs(w, cfg, &mut checks);

    // Set-up samples are spread over the rounds, not taken in one burst
    // at the start: the host has slow phases of seconds to minutes.
    let mut setups = Vec::new();
    let mut sample_setups = |upto: usize, checks: &mut Checks| {
        while setups.len() < upto.min(w.setup_samples()) {
            match checks.attempt("set-up", || w.setup()) {
                Some(s) => setups.push(s),
                None => break,
            }
        }
    };

    let (mut speedup, mut overhead) = (Vec::new(), Vec::new());
    let (mut t2, mut t1, mut tref) = (Vec::new(), Vec::new(), Vec::new());
    let (mut c2, mut c1) = (None, None);
    let min_rounds = MIN_ROUNDS.min(w.max_rounds());
    let per_round = w.setup_samples().div_ceil(min_rounds);
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < w.max_rounds()
        && (rounds < min_rounds || started.elapsed().as_secs_f64() < cfg.seconds)
    {
        rounds += 1;
        sample_setups(rounds * per_round, &mut checks);
        // A run that failed once fails every time: stop, do not sit out
        // a watchdog per round.
        let Some(r) = round(w, None, &mut checks) else {
            break;
        };
        same_counters(&mut c2, &r.two.counters, "2 workers", &mut checks);
        same_counters(&mut c1, &r.one.counters, "1 worker", &mut checks);
        speedup.push(r.ref_seconds / r.two.seconds);
        overhead.push(r.one.seconds / r.ref_seconds);
        t2.push(r.two.seconds);
        t1.push(r.one.seconds);
        tref.push(r.ref_seconds);
        eprintln!(
            "  round {rounds:>2}: t_2w {:.4} t_1w {:.4} t_ref {:.4}",
            r.two.seconds, r.one.seconds, r.ref_seconds
        );
    }

    let peak = checks
        .attempt("memory round", || w.run(2, Mode::PeakRound))
        .map_or(f64::NAN, |r| {
            r.tally.peak_live_bytes as f64 / (1 << 20) as f64
        });

    let metrics = vec![
        Metric::new("setup_s", "s", &setups),
        // The upper quartile, not the median: on a shared host a round is
        // only ever slowed by a neighbour (a busy SMT sibling, a
        // descheduled vCPU), and a 2-worker round is slowed when either
        // CPU is hit. Between identical runs the median over rounds moved
        // 10 %, the upper quartile 3-5 %.
        Metric::upper_quartile("speedup_2w", "ratio", &speedup),
        Metric::new("overhead_vs_ref", "ratio", &overhead),
        Metric::single("peak_heap_mb", "MiB", peak),
        // Not end-to-end metrics; printed in the human table only.
        Metric::new("t_2w", "s", &t2),
        Metric::new("t_1w", "s", &t1),
        Metric::new("t_ref", "s", &tref),
    ];
    PassOutput {
        metrics,
        checks,
        spans: Vec::new(),
    }
}

/// An end-to-end metric as `BENCHMARK.json` fixes it: unit, direction,
/// and the share of the baseline's median by which it may get worse
/// before a change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The end-to-end metrics, the same on every workload. (The rest of
/// [`timed_pass`]'s output is context for the human table.)
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "speedup_2w",
        unit: "ratio",
        lower_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "overhead_vs_ref",
        unit: "ratio",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        lower_is_better: true,
        bound: 0.05,
    },
];

/// Every `share.*` name any workload attributes time to; a traced run
/// prints all of them, 0 where the workload has no such phase.
pub const SHARES: [&str; 16] = [
    "snapshot",
    "halo_post",
    "body",
    "halo_complete",
    "zebra2",
    "resid2",
    "rest2",
    "intrp2",
    "spmv_gather",
    "spmv_rows",
    "allreduce",
    "vector_ops",
    "front_end",
    "host_roundtrip",
    "cold_trips",
    "warm_trips",
];

/// Traced rounds run until `seconds` (less the probes) have passed, but
/// never fewer than this.
const MIN_TRACED_ROUNDS: usize = 3;

/// Shares of the block wall on the slowest worker of one traced run:
/// `(share per span name, unattributed)`.
fn shares_of(spans: &[Span]) -> (Vec<(&'static str, f64)>, f64) {
    let workers = spans.iter().map(|s| s.worker).max().map_or(0, |m| m + 1);
    let slowest = (0..workers)
        .map(|wk| {
            let mine: Vec<Span> = spans.iter().filter(|s| s.worker == wk).cloned().collect();
            let wall = mine
                .iter()
                .filter(|s| s.name == "block")
                .map(Span::dur_ns)
                .sum::<u64>();
            (wall, mine)
        })
        .max_by_key(|(wall, _)| *wall);
    let Some((wall, mine)) = slowest else {
        return (Vec::new(), f64::NAN);
    };
    let selfs = self_times(&mine);
    let wall = wall.max(1) as f64;
    let shares = selfs
        .iter()
        .filter(|(name, _)| **name != "block")
        .map(|(name, ns)| (*name, *ns as f64 / wall))
        .collect();
    let unattributed = selfs.get("block").map_or(0.0, |ns| *ns as f64 / wall);
    (shares, unattributed)
}

/// `--trace 1`: probes, traced rounds, allocation count, sim pass.
pub fn traced_pass(w: &dyn Workload, cfg: &PassConfig) -> PassOutput {
    let mut checks = Checks::default();
    check_inputs(w, cfg, &mut checks);
    let started = Instant::now();

    let mut metrics = probes::all(cfg.scale, &mut checks);

    let units = w.units();
    let (mut ns2, mut ns1, mut nsref, mut scaling, mut overhead) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut share_samples: Vec<(&'static str, Vec<f64>)> =
        SHARES.iter().map(|s| (*s, Vec::new())).collect();
    let mut unattributed = Vec::new();
    let (mut c2, mut c1) = (None, None);
    let mut spans = Vec::new();
    let min_rounds = MIN_TRACED_ROUNDS.min(w.max_rounds());
    let mut rounds = 0;
    while rounds < w.max_rounds()
        && (rounds < min_rounds || started.elapsed().as_secs_f64() < cfg.seconds)
    {
        rounds += 1;
        let Some(r) = round(w, Some(rounds), &mut checks) else {
            break;
        };
        let traced = r.traced.expect("a traced round has a traced run");
        same_counters(&mut c2, &r.two.counters, "2 workers", &mut checks);
        same_counters(&mut c2, &traced.counters, "traced twin", &mut checks);
        same_counters(&mut c1, &r.one.counters, "1 worker", &mut checks);
        ns2.push(r.two.seconds * 1e9 / units);
        ns1.push(r.one.seconds * 1e9 / units);
        nsref.push(r.ref_seconds * 1e9 / units);
        scaling.push(r.one.seconds / r.two.seconds);
        overhead.push(traced.seconds / r.two.seconds - 1.0);
        let (shares, un) = if traced.shares.is_empty() {
            shares_of(&traced.spans)
        } else {
            let sum: f64 = traced.shares.iter().map(|(_, v)| v).sum();
            (traced.shares.clone(), (1.0 - sum).max(0.0))
        };
        for (name, samples) in share_samples.iter_mut() {
            let v = shares
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            samples.push(v);
        }
        unattributed.push(un);
        spans.extend(traced.spans);
    }

    let counted = checks.attempt("allocation-counting run", || w.run(2, Mode::CountBlock));
    let (acount, abytes) = counted.map_or((f64::NAN, f64::NAN), |r| {
        (r.tally.count as f64 / units, r.tally.bytes as f64 / units)
    });

    // The sim pass: twice, and the two must agree bit for bit.
    let sim_a = checks.attempt("sim pass", || w.sim());
    let sim_b = checks.attempt("sim pass (repeat)", || w.sim());
    let virt = match (&sim_a, &sim_b) {
        (Some(a), Some(b)) => {
            checks.check(
                a.virtual_seconds.to_bits() == b.virtual_seconds.to_bits()
                    && a.counters == b.counters
                    && agrees(&a.result, &b.result, 0.0),
                || format!("{}: two sim runs of the same inputs disagree", w.name()),
            );
            a.virtual_seconds * 1e6 / w.sim_units()
        }
        _ => f64::NAN,
    };

    let c = c2.unwrap_or_default();
    metrics.extend([
        Metric::new("ns_per_unit_2w", "ns", &ns2),
        Metric::new("ns_per_unit_1w", "ns", &ns1),
        Metric::new("ref_ns_per_unit", "ns", &nsref),
        Metric::new("scaling_2w", "ratio", &scaling),
        Metric::single("virtual_us_per_unit", "virt_us", virt),
        Metric::single("machine.msgs_per_unit", "1/unit", c.msgs as f64 / units),
        Metric::single("machine.words_per_unit", "1/unit", c.words as f64 / units),
        Metric::single("sched.inspector_runs", "count", c.inspector_runs as f64),
        Metric::single("sched.replays", "count", c.replays as f64),
        Metric::single("sched.optimistic_hits", "count", c.optimistic_hits as f64),
        Metric::single("sched.rollbacks", "count", c.rollbacks as f64),
        Metric::single("sched.evictions", "count", c.evictions as f64),
        Metric::single("sched.hit_ratio", "ratio", c.hit_ratio()),
        Metric::single(
            "array.exchange_words_per_unit",
            "1/unit",
            c.exchange_words as f64 / units,
        ),
        Metric::single(
            "array.gather_words_per_unit",
            "1/unit",
            c.gather_words as f64 / units,
        ),
        Metric::single("alloc.count_per_unit", "1/unit", acount),
        Metric::single("alloc.bytes_per_unit", "B/unit", abytes),
        Metric::new("trace.overhead_frac", "fraction", &overhead),
        Metric::new("share.unattributed", "fraction", &unattributed),
    ]);
    for (name, samples) in &share_samples {
        metrics.push(Metric::new(format!("share.{name}"), "fraction", samples));
    }
    PassOutput {
        metrics,
        checks,
        spans,
    }
}
