//! The two interpreted workloads: KF1 listings run through
//! `lang::run_source_with` with default `RunOptions`.
//!
//! `kf1_iterative` (`jacobi.kf1`, `adi.kf1`, several sweeps each): warm
//! replays plus tree-walking evaluation, so `lang` does nearly all the
//! work and the schedule cache is *read*. `kf1_direct` (`tri.kf1`,
//! `shift.kf1`, `spmv.kf1`, one call each): every doall trip is **cold**
//! — inspector, request rounds, cache store, no replay — the *write*
//! side of `sched`'s cache and the interpreter's inspector. A change
//! that speeds replay by making inspection or store dearer shows in the
//! second and not in the first.
//!
//! `run_source_with` owns its `Machine::run`, so the timed block is the
//! whole call (parse, spawn, bind, run, export) and the workers are
//! pinned from outside by `pin::Watcher`. The sequential references are
//! ~10³ times faster than the interpreter, so they are repeated `reps`
//! times to fill a block of their own and the time is divided.

use std::time::Instant;

use kali::kernels::tridiag::{thomas, TriDiag};
use kali::lang::{analyze, comm_plans, listing, parse, run_source_with, HostValue, RunOptions};
use kali::prelude::Pde;
use kali::solvers::adi::{adi_seq_iteration, suggested_rho};
use kali::solvers::seq::{jacobi_seq_step, Grid2};

use crate::alloc;
use crate::gen;
use crate::harness::{epoch, BlockRun, Counters, Mode, RefRun, Target, Workload, SIM_PROCS};
use crate::pin;
use crate::trace::Recorder;

/// One call of one listing.
struct Call {
    listing: &'static str,
    entry: &'static str,
    /// Processor-array shape at `p` processors.
    grid: fn(usize) -> Vec<usize>,
    args: Vec<HostValue>,
    /// Which argument holds the sweep count (`kf1_iterative` only).
    iters_arg: Option<usize>,
    /// Positions, among the array arguments, of the results to check.
    outputs: &'static [usize],
    /// Doall element updates (or array elements) one call performs.
    units: f64,
}

impl Call {
    fn src(&self) -> &'static str {
        listing(self.listing).expect("shipped listing")
    }

    fn with_iters(&self, iters: i64) -> Vec<HostValue> {
        let mut args = self.args.clone();
        if let Some(k) = self.iters_arg {
            args[k] = HostValue::Int(iters);
        }
        args
    }

    /// Run the call; `(wall seconds, virtual seconds, counters, outputs)`.
    fn run(&self, target: Target, args: &[HostValue]) -> (f64, f64, Counters, Vec<f64>) {
        let p = target.procs();
        let go = || {
            let t0 = Instant::now();
            let run = run_source_with(
                target.config(),
                self.src(),
                self.entry,
                &(self.grid)(p),
                args,
                RunOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{}.kf1: {e}", self.listing));
            (t0.elapsed().as_secs_f64(), run)
        };
        let (seconds, run) = if target.is_threads() {
            pin::with_watcher(p, go)
        } else {
            go()
        };
        let mut out = Vec::new();
        for &k in self.outputs {
            out.extend_from_slice(&run.arrays[k].1);
        }
        (
            seconds,
            run.report.elapsed,
            Counters::of_report(&run.report),
            out,
        )
    }
}

fn array(data: Vec<f64>, bounds: Vec<(i64, i64)>) -> HostValue {
    HostValue::Array { data, bounds }
}

fn field(seed: u64, stream: u64, len: usize, scale: f64) -> Vec<f64> {
    (0..len)
        .map(|k| scale * gen::unit(seed, stream, k as u64))
        .collect()
}

/// Which of the two interpreted workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Iterative,
    Direct,
}

pub struct Kf1 {
    kind: Kind,
    calls: Vec<Call>,
    /// The same calls at the smallest size they accept: the fixed cost
    /// of a call (`kf1_direct`'s `share.host_roundtrip`).
    minimal: Vec<Call>,
    /// Sequential-reference repetitions per timed block.
    ref_reps: usize,
    rounds: usize,
    setups: usize,
    /// Repetitions per set-up sample (`kf1_direct` batches front-end
    /// work, which takes microseconds).
    setup_batch: usize,
    /// Sweeps the sim pass runs (`kf1_iterative`).
    sim_iters: i64,
}

fn jacobi_call(seed: u64, np: usize, niter: i64) -> Call {
    let w = np + 1;
    Call {
        listing: "jacobi",
        entry: "jacobi",
        grid: |p| vec![p.min(4), p.div_ceil(4)],
        args: vec![
            array(vec![0.0; w * w], vec![(0, np as i64); 2]),
            array(
                field(seed, 0x6a61_636f, w * w, 1e-3),
                vec![(0, np as i64); 2],
            ),
            HostValue::Int(np as i64),
            HostValue::Int(niter),
        ],
        iters_arg: Some(3),
        outputs: &[0],
        units: ((np - 1) * (np - 1)) as f64 * niter as f64,
    }
}

fn adi_call(seed: u64, np: usize, niter: i64) -> Call {
    let w = np + 1;
    let rho = suggested_rho(&Pde::poisson(), np, np);
    Call {
        listing: "adi",
        entry: "adi",
        grid: |p| vec![p.min(4), p.div_ceil(4)],
        args: vec![
            array(vec![0.0; w * w], vec![(0, np as i64); 2]),
            array(
                field(seed, 0x6164_6966, w * w, 1.0),
                vec![(0, np as i64); 2],
            ),
            array(vec![0.0; w * w], vec![(0, np as i64); 2]),
            HostValue::Int(np as i64),
            HostValue::Real(rho),
            HostValue::Int(niter),
            HostValue::Real(1.0),
            HostValue::Real(1.0),
        ],
        iters_arg: Some(5),
        outputs: &[0],
        // Two residual sweeps and two line-solve sweeps per iteration.
        units: 4.0 * ((np - 1) * (np - 1)) as f64 * niter as f64,
    }
}

fn tri_call(seed: u64, n: usize) -> Call {
    let sys = TriDiag::random_dd(n, seed);
    let f = sys.apply(&field(seed, 0x7472_6978, n, 1.0));
    let b = vec![(1, n as i64)];
    Call {
        listing: "tri",
        entry: "tri",
        grid: |p| vec![p],
        args: vec![
            array(vec![0.0; n], b.clone()),
            array(f, b.clone()),
            array(sys.b, b.clone()),
            array(sys.a, b.clone()),
            array(sys.c, b),
            HostValue::Int(n as i64),
        ],
        iters_arg: None,
        outputs: &[0],
        units: n as f64,
    }
}

fn shift_call(seed: u64, n: usize) -> Call {
    Call {
        listing: "shift",
        entry: "shift",
        grid: |p| vec![p],
        args: vec![
            array(field(seed, 0x7368_6966, n, 1.0), vec![(1, n as i64)]),
            HostValue::Int(n as i64),
        ],
        iters_arg: None,
        outputs: &[0],
        units: n as f64,
    }
}

/// CSR of the band `{i−2, i, i+2}` (1-based, as the program sees it)
/// with seeded values: `(rp, ci, av)`.
fn band(seed: u64, n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (mut rp, mut ci, mut av) = (vec![1.0], Vec::new(), Vec::new());
    for i in 1..=n as i64 {
        for c in [i - 2, i, i + 2] {
            if c >= 1 && c <= n as i64 {
                ci.push(c as f64);
                av.push(1.0 + gen::unit(seed, 0x7370_6d76, (i * 3 + c - i + 2) as u64));
            }
        }
        rp.push((ci.len() + 1) as f64);
    }
    (rp, ci, av)
}

fn spmv_call(seed: u64, n: usize) -> Call {
    let (rp, ci, av) = band(seed, n);
    let nz = ci.len();
    Call {
        listing: "spmv",
        entry: "spmvit",
        grid: |p| vec![p],
        args: vec![
            array(vec![0.0; n], vec![(1, n as i64)]),
            array(field(seed, 0x7370_7878, n, 1.0), vec![(1, n as i64)]),
            array(rp, vec![(1, n as i64 + 1)]),
            array(ci, vec![(1, nz as i64)]),
            array(av, vec![(1, nz as i64)]),
            HostValue::Int(n as i64),
            HostValue::Int(nz as i64),
            HostValue::Int(1),
        ],
        iters_arg: None,
        outputs: &[0, 1],
        units: nz as f64,
    }
}

impl Kf1 {
    pub fn iterative_full(seed: u64) -> Self {
        Kf1::iterative(seed, 128, 12, 48, 4, 300, 16, 24)
    }

    pub fn iterative_toy(seed: u64) -> Self {
        Kf1::iterative(seed, 16, 3, 16, 2, 2, 2, 2)
    }

    #[allow(clippy::too_many_arguments)]
    fn iterative(
        seed: u64,
        jacobi_np: usize,
        jacobi_iters: i64,
        adi_np: usize,
        adi_iters: i64,
        ref_reps: usize,
        rounds: usize,
        setups: usize,
    ) -> Self {
        Kf1 {
            kind: Kind::Iterative,
            calls: vec![
                jacobi_call(seed, jacobi_np, jacobi_iters),
                adi_call(seed, adi_np, adi_iters),
            ],
            minimal: Vec::new(),
            ref_reps,
            rounds,
            setups,
            setup_batch: 1,
            sim_iters: 2,
        }
    }

    pub fn direct_full(seed: u64) -> Self {
        Kf1::direct(seed, 10_240, 81_920, 20_480, 400, 16, 50, 100)
    }

    pub fn direct_toy(seed: u64) -> Self {
        Kf1::direct(seed, 64, 64, 64, 2, 2, 2, 2)
    }

    #[allow(clippy::too_many_arguments)]
    fn direct(
        seed: u64,
        tri_n: usize,
        shift_n: usize,
        spmv_n: usize,
        ref_reps: usize,
        rounds: usize,
        setups: usize,
        setup_batch: usize,
    ) -> Self {
        Kf1 {
            kind: Kind::Direct,
            calls: vec![
                tri_call(seed, tri_n),
                shift_call(seed, shift_n),
                spmv_call(seed, spmv_n),
            ],
            // Two rows per processor is the least `tri` accepts.
            minimal: vec![tri_call(seed, 4), shift_call(seed, 4), spmv_call(seed, 4)],
            ref_reps,
            rounds,
            setups,
            setup_batch,
            sim_iters: 0,
        }
    }

    /// Run every call at `target`; sums and concatenations.
    fn run_calls(&self, target: Target, iters: Option<i64>) -> BlockRun {
        let mut out = BlockRun::default();
        for call in &self.calls {
            let args = match iters {
                Some(n) => call.with_iters(n),
                None => call.args.clone(),
            };
            let (s, v, c, res) = call.run(target, &args);
            out.seconds += s;
            out.virtual_seconds += v;
            out.counters.add(&c);
            out.result.extend(res);
        }
        out
    }

    /// Parse and analyze the workload's sources, one span each.
    fn front_end(&self, rec: &mut Recorder) {
        for call in &self.calls {
            let prog = rec.span("parse", "lang", || {
                parse(call.src()).expect("listing parses")
            });
            rec.span("analyze", "lang", || std::hint::black_box(analyze(&prog)));
        }
    }

    /// The traced run: the plain calls inside spans, plus the extra
    /// calls (0 and 1 sweeps, or minimal sizes) that split the block's
    /// wall into front end, host round trip, cold trips and warm trips.
    fn run_traced(&self, round: usize) -> BlockRun {
        let two = Target::Threads(2);
        let mut rec = Recorder::new(epoch(), 0, round, 64);
        self.front_end(&mut rec);
        let id = rec.begin("block", "benchmark");
        let mut out = rec.span("calls", "lang", || self.run_calls(two, None));
        rec.end(id);
        let total = out.seconds;
        let (host, cold, warm) = match self.kind {
            Kind::Iterative => {
                let t0 = rec.span("calls_0_sweeps", "lang", || self.run_calls(two, Some(0)));
                let t1 = rec.span("calls_1_sweep", "lang", || self.run_calls(two, Some(1)));
                (t0.seconds, t1.seconds - t0.seconds, total - t1.seconds)
            }
            Kind::Direct => {
                let fixed: f64 = rec.span("calls_minimal", "lang", || {
                    self.minimal.iter().map(|c| c.run(two, &c.args).0).sum()
                });
                (fixed, total - fixed, 0.0)
            }
        };
        // The parse is part of every call; analysis is not run by
        // default options and stays out of the shares.
        let parse_s: f64 = rec_time(&rec, "parse");
        out.shares = vec![
            ("front_end", parse_s / total),
            ("host_roundtrip", ((host - parse_s) / total).max(0.0)),
            ("cold_trips", (cold / total).max(0.0)),
            ("warm_trips", (warm / total).max(0.0)),
        ];
        out.spans = rec.into_spans();
        out
    }
}

/// Total seconds of the spans called `name` recorded so far.
fn rec_time(rec: &Recorder, name: &str) -> f64 {
    rec.spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .sum()
}

impl Workload for Kf1 {
    fn name(&self) -> &'static str {
        match self.kind {
            Kind::Iterative => "kf1_iterative",
            Kind::Direct => "kf1_direct",
        }
    }

    fn unit(&self) -> &'static str {
        match self.kind {
            Kind::Iterative => "doall element update",
            Kind::Direct => "array element",
        }
    }

    fn units(&self) -> f64 {
        self.calls.iter().map(|c| c.units).sum()
    }

    fn sim_units(&self) -> f64 {
        match self.kind {
            Kind::Iterative => self
                .calls
                .iter()
                .map(|c| {
                    let HostValue::Int(n) = c.args[c.iters_arg.expect("iterative")] else {
                        unreachable!("sweep counts are integers")
                    };
                    c.units * self.sim_iters as f64 / n as f64
                })
                .sum(),
            Kind::Direct => self.units(),
        }
    }

    fn input_checksum(&self) -> u64 {
        let mut h = gen::FNV_OFFSET;
        for call in &self.calls {
            for a in &call.args {
                h = match a {
                    HostValue::Int(v) => gen::fnv_u64(h, *v as u64),
                    HostValue::Real(v) => gen::fnv_u64(h, v.to_bits()),
                    HostValue::Array { data, .. } => gen::fnv_f64(h, data.iter().copied()),
                };
            }
        }
        h
    }

    fn tolerance(&self) -> f64 {
        // The listings' substructured solvers associate differently
        // from the Thomas references.
        1e-10
    }

    fn max_rounds(&self) -> usize {
        self.rounds
    }

    fn setup_samples(&self) -> usize {
        self.setups
    }

    fn shares(&self) -> &'static [&'static str] {
        &["front_end", "host_roundtrip", "cold_trips", "warm_trips"]
    }

    fn run(&self, p: usize, mode: Mode) -> BlockRun {
        let target = Target::Threads(p);
        match mode {
            Mode::Plain => self.run_calls(target, None),
            Mode::Traced { round } => self.run_traced(round),
            Mode::CountBlock | Mode::PeakRound => {
                alloc::start();
                let mut out = self.run_calls(target, None);
                out.tally = alloc::stop();
                out
            }
        }
    }

    fn reference(&self) -> RefRun {
        let reps = self.ref_reps;
        pin::on_cpu0(|| {
            let mut seconds = 0.0;
            let mut result = Vec::new();
            for call in &self.calls {
                let (s, r) = reference_of(call, reps);
                seconds += s;
                result.extend(r);
            }
            RefRun { seconds, result }
        })
    }

    fn setup(&self) -> f64 {
        match self.kind {
            // Time to the end of the first sweep.
            Kind::Iterative => {
                let t0 = Instant::now();
                for call in &self.calls {
                    let prog = parse(call.src()).expect("listing parses");
                    std::hint::black_box(analyze(&prog));
                }
                self.run_calls(Target::Threads(2), Some(1));
                t0.elapsed().as_secs_f64()
            }
            // Its calls are all set-up by nature; what is left to call
            // set-up is the front end.
            Kind::Direct => {
                let t0 = Instant::now();
                for _ in 0..self.setup_batch {
                    for call in &self.calls {
                        let prog = parse(std::hint::black_box(call.src())).expect("listing parses");
                        std::hint::black_box(analyze(&prog));
                        std::hint::black_box(comm_plans(&prog));
                    }
                }
                t0.elapsed().as_secs_f64() / self.setup_batch as f64
            }
        }
    }

    fn sim(&self) -> BlockRun {
        let target = Target::Sim {
            procs: SIM_PROCS,
            div: 1,
        };
        match self.kind {
            Kind::Iterative => self.run_calls(target, Some(self.sim_iters)),
            Kind::Direct => self.run_calls(target, None),
        }
    }
}

fn data(v: &HostValue) -> &[f64] {
    match v {
        HostValue::Array { data, .. } => data,
        _ => panic!("array argument expected"),
    }
}

fn int(v: &HostValue) -> usize {
    match v {
        HostValue::Int(n) => *n as usize,
        _ => panic!("integer argument expected"),
    }
}

/// The sequential reference of one call, repeated `reps` times from the
/// same inputs: `(seconds per repetition, result)`.
fn reference_of(call: &Call, reps: usize) -> (f64, Vec<f64>) {
    let a = &call.args;
    let mut result = Vec::new();
    let t0 = Instant::now();
    for _ in 0..reps {
        result = match call.listing {
            "jacobi" => {
                let (np, niter) = (int(&a[2]), int(&a[3]));
                let w = np + 1;
                let f = Grid2::from_fn(np, np, |i, j| data(&a[1])[i * w + j]);
                let mut x = Grid2::zeros(np, np);
                for _ in 0..niter {
                    jacobi_seq_step(&mut x, &f);
                }
                x.v
            }
            "adi" => {
                let (np, niter) = (int(&a[3]), int(&a[5]));
                let HostValue::Real(rho) = a[4] else {
                    panic!("rho is real")
                };
                let w = np + 1;
                let f = Grid2::from_fn(np, np, |i, j| data(&a[1])[i * w + j]);
                let mut u = Grid2::zeros(np, np);
                for _ in 0..niter {
                    adi_seq_iteration(&Pde::poisson(), rho, &mut u, &f);
                }
                u.v
            }
            "tri" => thomas(data(&a[2]), data(&a[3]), data(&a[4]), data(&a[1])),
            "shift" => {
                let mut v = data(&a[0]).to_vec();
                let n = v.len();
                v.copy_within(1..n, 0);
                v
            }
            "spmv" => {
                let (x, rp, ci, av) = (data(&a[1]), data(&a[2]), data(&a[3]), data(&a[4]));
                let y: Vec<f64> = (0..x.len())
                    .map(|i| {
                        let mut sum = 0.0;
                        for k in rp[i] as usize - 1..rp[i + 1] as usize - 1 {
                            sum += av[k] * x[ci[k] as usize - 1];
                        }
                        sum
                    })
                    .collect();
                let x_new: Vec<f64> = y.iter().map(|v| v / 10.0).collect();
                [y, x_new].concat()
            }
            other => panic!("no reference for {other}"),
        };
        std::hint::black_box(&result);
    }
    (t0.elapsed().as_secs_f64() / reps as f64, result)
}
