//! Machine construction and the SPMD run loop.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;

use crate::backend::BackendKind;
use crate::cost::CostModel;
use crate::proc::{poll_window, Envelope, Proc};
use crate::report::{ProcReport, RunReport};
use crate::topology::Topology;

/// Static description of the machine: size, interconnect, cost model,
/// and which execution [`BackendKind`] runs it.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of processors.
    pub nprocs: usize,
    /// Interconnect topology (per-hop latency source).
    pub topology: Topology,
    /// Communication/computation cost model.
    pub cost: CostModel,
    /// Real-time budget a processor may spend blocked in one `recv` before
    /// the run is declared deadlocked.
    pub watchdog: Duration,
    /// Execution backend: the virtual-time simulator (default) or real
    /// wall-clock threads. Selection is data — same config type, same
    /// run loop, either backend.
    pub backend: BackendKind,
}

impl MachineConfig {
    /// `nprocs` processors, fully connected, iPSC/2-era costs, on the
    /// virtual-time simulator.
    pub fn new(nprocs: usize) -> Self {
        MachineConfig {
            nprocs,
            topology: Topology::FullyConnected,
            cost: CostModel::ipsc2(),
            watchdog: Duration::from_secs(60),
            backend: BackendKind::Sim,
        }
    }

    /// Replace the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Replace the topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Replace the deadlock watchdog budget.
    pub fn with_watchdog(mut self, watchdog: Duration) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Replace the execution backend.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }
}

/// Result of a run: the timing/traffic report plus the value each
/// processor's closure returned (indexed by rank).
pub struct MachineRun<R> {
    pub report: RunReport,
    pub results: Vec<R>,
}

/// Builder for a machine whose backend is chosen by data — the one
/// construction entry point, so no call site ever names a concrete
/// backend type.
///
/// ```
/// use kali_machine::{BackendKind, CostModel, Machine, Topology};
///
/// let run = Machine::build(BackendKind::from_env(), Topology::FullyConnected, CostModel::unit())
///     .procs(2)
///     .run(|proc| proc.rank());
/// assert_eq!(run.results, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
#[must_use = "a machine builder does nothing until .run()"]
pub struct MachineBuilder {
    cfg: MachineConfig,
}

impl MachineBuilder {
    /// Set the processor count (default 1).
    pub fn procs(mut self, nprocs: usize) -> Self {
        self.cfg.nprocs = nprocs;
        self
    }

    /// Replace the deadlock watchdog budget.
    pub fn watchdog(mut self, watchdog: Duration) -> Self {
        self.cfg.watchdog = watchdog;
        self
    }

    /// The assembled [`MachineConfig`] — for APIs that carry a config
    /// (e.g. `kali_lang::run_source`) rather than a closure.
    pub fn config(self) -> MachineConfig {
        self.cfg
    }

    /// Run `body` SPMD on every processor; see [`Machine::run`].
    pub fn run<R, F>(self, body: F) -> MachineRun<R>
    where
        R: Send + 'static,
        F: Fn(&mut Proc) -> R + Send + Sync,
    {
        Machine::run(self.cfg, body)
    }
}

/// The machine. Stateless — all state lives in a single [`Machine::run`].
pub struct Machine;

impl Machine {
    /// The one construction entry point: backend, interconnect and cost
    /// model in, [`MachineBuilder`] out. The backend is plain data
    /// ([`BackendKind`]), so call sites stay backend-neutral; pass
    /// [`BackendKind::from_env`] where `KALI_BACKEND` should decide.
    pub fn build(backend: BackendKind, topology: Topology, cost: CostModel) -> MachineBuilder {
        MachineBuilder {
            cfg: MachineConfig::new(1)
                .with_topology(topology)
                .with_cost(cost)
                .with_backend(backend),
        }
    }

    /// Run `body` SPMD on every processor and collect results.
    ///
    /// Each processor executes `body(&mut proc)` on its own OS thread;
    /// processors may only interact through [`Proc::send`]/[`Proc::recv`]
    /// (and the collectives built on them). The returned [`RunReport`] is
    /// deterministic in its results and traffic counters: running the
    /// same program twice yields identical payload matchings on either
    /// backend, and on [`BackendKind::Sim`] identical virtual times too.
    /// Wall-clock time for the whole run is measured on both backends
    /// ([`RunReport::wall_seconds`]).
    ///
    /// Panics in any processor propagate out of `run` after all threads
    /// have stopped: the first failure is flagged to every peer, so a
    /// processor blocked mid-collective on a message that will never come
    /// aborts within one receive poll slice instead of sitting out the
    /// whole watchdog budget, and `run` re-raises the *original* panic
    /// payload rather than a peer's secondary abort.
    pub fn run<R, F>(cfg: MachineConfig, body: F) -> MachineRun<R>
    where
        R: Send + 'static,
        F: Fn(&mut Proc) -> R + Send + Sync,
    {
        assert!(cfg.nprocs >= 1, "machine needs at least one processor");
        let p = cfg.nprocs;
        let backend = cfg.backend;
        let started = Instant::now();
        let cfg = Arc::new(cfg);

        let mut senders = Vec::with_capacity(p);
        let mut receivers = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = unbounded::<Envelope>();
            senders.push(tx);
            receivers.push(rx);
        }
        let senders = Arc::new(senders);
        // Rank of the first processor whose body panicked (usize::MAX =
        // none). Peers poll it while blocked in a receive, so a panic
        // mid-collective aborts the whole run promptly.
        let failed = Arc::new(AtomicUsize::new(usize::MAX));
        let poll = poll_window(p);

        let mut slots: Vec<Option<(ProcReport, R)>> = Vec::with_capacity(p);
        slots.resize_with(p, || None);

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for (rank, inbox) in receivers.into_iter().enumerate() {
                let cfg = Arc::clone(&cfg);
                let senders = Arc::clone(&senders);
                let failed = Arc::clone(&failed);
                let body = &body;
                handles.push(scope.spawn(move || {
                    let mut proc =
                        Proc::new(rank, p, cfg, senders, inbox, Arc::clone(&failed), poll);
                    let result =
                        match std::panic::catch_unwind(AssertUnwindSafe(|| body(&mut proc))) {
                            Ok(r) => r,
                            Err(e) => {
                                let _ = failed.compare_exchange(
                                    usize::MAX,
                                    rank,
                                    Ordering::SeqCst,
                                    Ordering::SeqCst,
                                );
                                std::panic::resume_unwind(e);
                            }
                        };
                    let (stats, clock, marks) = proc.take_stats();
                    (
                        ProcReport {
                            rank,
                            clock,
                            stats,
                            marks,
                        },
                        result,
                    )
                }));
            }
            let mut panics: Vec<(usize, Box<dyn std::any::Any + Send>)> = Vec::new();
            for (rank, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok((rep, res)) => slots[rank] = Some((rep, res)),
                    Err(e) => panics.push((rank, e)),
                }
            }
            if !panics.is_empty() {
                // Re-raise the root cause — the first body to panic — not
                // a peer's secondary "run aborted" panic.
                let first = failed.load(Ordering::SeqCst);
                let pos = panics
                    .iter()
                    .position(|(rank, _)| *rank == first)
                    .unwrap_or(0);
                std::panic::resume_unwind(panics.swap_remove(pos).1);
            }
        });

        let mut procs = Vec::with_capacity(p);
        let mut results = Vec::with_capacity(p);
        for slot in slots {
            let (rep, res) = slot.expect("every processor reported");
            procs.push(rep);
            results.push(res);
        }
        MachineRun {
            report: RunReport::new(backend, started.elapsed().as_secs_f64(), procs),
            results,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tag, NS_USER};

    fn unit_cfg(p: usize) -> MachineConfig {
        MachineConfig::new(p)
            .with_cost(CostModel::unit())
            .with_watchdog(Duration::from_secs(5))
    }

    #[test]
    fn single_proc_compute_advances_clock() {
        let run = Machine::run(unit_cfg(1), |proc| {
            proc.compute(1000.0);
            proc.clock()
        });
        assert_eq!(run.results[0], 1.0); // 1000 flops at 1e-3 s each
        assert_eq!(run.report.elapsed, 1.0);
        assert_eq!(run.report.procs[0].stats.flops, 1000.0);
    }

    #[test]
    fn ping_pong_latency_is_deterministic() {
        let f = |proc: &mut Proc| {
            let t = tag(NS_USER, 1);
            if proc.rank() == 0 {
                proc.send(1, t, 5.0f64);
                let x: f64 = proc.recv(1, t);
                assert_eq!(x, 6.0);
            } else {
                let x: f64 = proc.recv(0, t);
                proc.send(0, t, x + 1.0);
            }
            proc.clock()
        };
        let a = Machine::run(unit_cfg(2), f);
        let b = Machine::run(unit_cfg(2), f);
        // One word each way: alpha + beta = 1.1 per leg.
        assert_eq!(a.results[0], 2.2);
        assert_eq!(a.results, b.results);
        assert_eq!(a.report.total_msgs, 2);
        assert_eq!(a.report.total_words, 2);
    }

    #[test]
    fn recv_before_send_counts_idle() {
        let run = Machine::run(unit_cfg(2), |proc| {
            let t = tag(NS_USER, 2);
            if proc.rank() == 0 {
                proc.compute(5000.0); // 5 virtual seconds of work first
                proc.send(1, t, 1.0f64);
            } else {
                let _: f64 = proc.recv(0, t);
            }
        });
        let idle1 = run.report.procs[1].stats.idle;
        // proc 1 waited from t=0 to t=5+1.1
        assert!((idle1 - 6.1).abs() < 1e-12, "idle = {idle1}");
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let run = Machine::run(unit_cfg(2), |proc| {
            let ta = tag(NS_USER, 10);
            let tb = tag(NS_USER, 11);
            if proc.rank() == 0 {
                proc.send(1, ta, 1.0f64);
                proc.send(1, tb, 2.0f64);
            } else {
                // receive in the opposite order from the sends
                let b: f64 = proc.recv(0, tb);
                let a: f64 = proc.recv(0, ta);
                assert_eq!((a, b), (1.0, 2.0));
            }
        });
        assert_eq!(run.report.total_msgs, 2);
    }

    #[test]
    fn fifo_order_per_pair_and_tag() {
        let run = Machine::run(unit_cfg(2), |proc| {
            let t = tag(NS_USER, 3);
            if proc.rank() == 0 {
                for i in 0..10 {
                    proc.send(1, t, i as f64);
                }
                0.0
            } else {
                let mut last = -1.0;
                for _ in 0..10 {
                    let v: f64 = proc.recv(0, t);
                    assert!(v > last, "messages reordered");
                    last = v;
                }
                last
            }
        });
        assert_eq!(run.results[1], 9.0);
    }

    #[test]
    fn self_send_works() {
        let run = Machine::run(unit_cfg(1), |proc| {
            let t = tag(NS_USER, 4);
            proc.send(0, t, 42.0f64);
            let v: f64 = proc.recv(0, t);
            v
        });
        assert_eq!(run.results[0], 42.0);
    }

    #[test]
    #[should_panic(expected = "suspected deadlock")]
    fn watchdog_fires_on_missing_message() {
        let cfg = unit_cfg(1).with_watchdog(Duration::from_millis(200));
        let _ = Machine::run(cfg, |proc| {
            let _: f64 = proc.recv(0, tag(NS_USER, 99));
        });
    }

    #[test]
    fn worker_panic_mid_collective_aborts_peers_promptly() {
        // Rank 1 panics before sending; rank 0 is blocked on the recv.
        // With a watchdog far longer than the test budget the run must
        // still end almost immediately — peers poll the failure flag each
        // receive slice — and re-raise rank 1's *original* panic, not a
        // peer's secondary abort. In the second case rank 1 sends once and
        // panics at once, so rank 0 is inside its poll window (two workers
        // fit the CPUs here) when the failure lands.
        for sends_first in [false, true] {
            let cfg = unit_cfg(2)
                .with_backend(BackendKind::Threads)
                .with_watchdog(Duration::from_secs(60));
            let started = Instant::now();
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let _ = Machine::run(cfg, |proc| {
                    if proc.rank() == 1 {
                        if sends_first {
                            proc.send(0, tag(NS_USER, 40), 1.0f64);
                        }
                        panic!("injected worker failure");
                    }
                    for _ in 0..2 {
                        let _: f64 = proc.recv(1, tag(NS_USER, 40));
                    }
                });
            }))
            .unwrap_err();
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_owned)
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("injected worker failure"), "got: {msg}");
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "peers sat out the watchdog instead of aborting promptly ({:?})",
                started.elapsed()
            );
        }
    }

    /// A ping-pong on threads: rank 1 announces it is about to receive,
    /// and rank 0 answers after `delay`. Returns the value rank 1 got and
    /// rank 1's poll window.
    fn answer_after(p: usize, delay: Duration) -> (f64, Duration) {
        let cfg = unit_cfg(p)
            .with_backend(BackendKind::Threads)
            .with_watchdog(Duration::from_secs(20));
        let run = Machine::run(cfg, |proc| match proc.rank() {
            0 => {
                let _: f64 = proc.recv(1, tag(NS_USER, 41));
                std::thread::sleep(delay);
                proc.send(1, tag(NS_USER, 42), 7.0f64);
                (0.0, proc.poll)
            }
            1 => {
                proc.send(0, tag(NS_USER, 41), 0.0f64);
                (proc.recv(0, tag(NS_USER, 42)), proc.poll)
            }
            _ => (0.0, proc.poll),
        });
        run.results[1]
    }

    #[test]
    fn a_receive_completes_inside_and_after_its_poll_window() {
        let (got, poll) = answer_after(2, Duration::ZERO);
        assert_eq!(got, 7.0);
        assert_eq!(poll, poll_window(2));
        assert!(poll <= Duration::from_micros(50));
        // Lands long after any poll window: the receive parks and wakes.
        let (got, _) = answer_after(2, Duration::from_millis(20));
        assert_eq!(got, 7.0);
    }

    #[test]
    fn an_oversubscribed_run_parks_without_polling() {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Never more than 8 threads: with 8 or more CPUs this is the
        // polling case instead.
        let p = (cpus + 1).min(8);
        let (got, poll) = answer_after(p, Duration::ZERO);
        assert_eq!(got, 7.0);
        assert_eq!(poll.is_zero(), p > cpus);
    }

    #[test]
    #[should_panic(expected = "payload is not a")]
    fn type_mismatch_panics_with_context() {
        let _ = Machine::run(unit_cfg(2), |proc| {
            let t = tag(NS_USER, 5);
            if proc.rank() == 0 {
                proc.send(1, t, 1.0f64);
            } else {
                let _: u64 = proc.recv(0, t);
            }
        });
    }

    #[test]
    fn hop_latency_respects_topology() {
        // Fully connected: 0 -> 2 is one hop.
        let cost = CostModel {
            hop: 10.0,
            ..CostModel::unit()
        };
        let cfg = MachineConfig::new(4)
            .with_cost(cost)
            .with_topology(Topology::FullyConnected)
            .with_watchdog(Duration::from_secs(5));
        let run = Machine::run(cfg, |proc| {
            let t = tag(NS_USER, 6);
            if proc.rank() == 0 {
                proc.send(2, t, 1.0f64);
                0.0
            } else if proc.rank() == 2 {
                let _: f64 = proc.recv(0, t);
                proc.clock()
            } else {
                0.0
            }
        });
        // alpha(1) + beta(0.1) + 1 hop * 10
        assert!((run.results[2] - 11.1).abs() < 1e-12);
    }

    #[test]
    fn irecv_overlap_hides_transit_behind_compute() {
        // unit cost: alpha = 1, beta = 0.1, overhead = 0.
        let run = Machine::run(unit_cfg(2), |proc| {
            let t = tag(NS_USER, 20);
            if proc.rank() == 0 {
                proc.send(1, t, 5.0f64);
            } else {
                let h = proc.irecv::<f64>(0, t);
                proc.compute(2000.0); // 2 s of work while 1.1 s transit runs
                let v = proc.wait(h);
                assert_eq!(v, 5.0);
            }
            (proc.stats().idle, proc.stats().overlap_hidden, proc.clock())
        });
        let (idle, hidden, clock) = run.results[1];
        // Transit finished at 1.1 while we computed until 2.0: no idle, the
        // whole 1.1 s window is hidden.
        assert_eq!(idle, 0.0);
        assert!((hidden - 1.1).abs() < 1e-12, "hidden = {hidden}");
        assert_eq!(clock, 2.0);
        assert!((run.report.overlap_hidden_seconds - 1.1).abs() < 1e-12);
    }

    #[test]
    fn irecv_partial_overlap_charges_the_shortfall_as_idle() {
        let run = Machine::run(unit_cfg(2), |proc| {
            let t = tag(NS_USER, 21);
            if proc.rank() == 0 {
                proc.send(1, t, 5.0f64);
            } else {
                let h = proc.irecv::<f64>(0, t);
                proc.compute(400.0); // 0.4 s of the 1.1 s transit covered
                let _ = proc.wait(h);
            }
            (proc.stats().idle, proc.stats().overlap_hidden, proc.clock())
        });
        let (idle, hidden, clock) = run.results[1];
        assert!((idle - 0.7).abs() < 1e-12, "idle = {idle}");
        assert!((hidden - 0.4).abs() < 1e-12, "hidden = {hidden}");
        assert!((clock - 1.1).abs() < 1e-12);
    }

    #[test]
    fn immediately_waited_irecv_matches_blocking_recv_payloads() {
        let go = |split: bool| {
            Machine::run(unit_cfg(2), move |proc| {
                let t = tag(NS_USER, 22);
                if proc.rank() == 0 {
                    proc.compute(300.0);
                    if split {
                        proc.isend(1, t, vec![1.0f64, 2.0, 3.0]);
                    } else {
                        proc.send(1, t, vec![1.0f64, 2.0, 3.0]);
                    }
                    0.0
                } else if split {
                    let h = proc.irecv::<Vec<f64>>(0, t);
                    proc.wait(h).iter().sum()
                } else {
                    proc.recv::<Vec<f64>>(0, t).iter().sum()
                }
            })
        };
        let a = go(false);
        let b = go(true);
        assert_eq!(a.results, b.results);
        assert_eq!(a.report.total_words, b.report.total_words);
        assert_eq!(a.report.total_msgs, b.report.total_msgs);
    }

    #[test]
    fn waits_complete_out_of_order_arrivals() {
        let run = Machine::run(unit_cfg(3), |proc| {
            let t = tag(NS_USER, 23);
            match proc.rank() {
                0 => {
                    // Post both receives first, then compute, then drain.
                    let h1 = proc.irecv::<f64>(1, t);
                    let h2 = proc.irecv::<f64>(2, t);
                    proc.compute(10_000.0);
                    vec![proc.wait(h2), proc.wait(h1)] // reversed completion order
                }
                r => {
                    proc.compute(500.0 * r as f64);
                    proc.send(0, t, r as f64 * 10.0);
                    vec![]
                }
            }
        });
        assert_eq!(run.results[0], vec![20.0, 10.0]);
        assert_eq!(run.report.procs[0].stats.idle, 0.0);
        assert!(run.report.procs[0].stats.overlap_hidden > 0.0);
    }

    #[test]
    fn idle_on_one_wait_is_not_credited_as_hiding_another() {
        // Proc 1 posts two receives back to back with no compute: h1's
        // message arrives late (big payload), h2's early. Waiting h1
        // first idles through h2's entire transit — none of which was
        // computation, so overlap_hidden must stay zero even though the
        // clock moved past h2's arrival.
        let run = Machine::run(unit_cfg(3), |proc| {
            let t = tag(NS_USER, 25);
            match proc.rank() {
                1 => {
                    let h1 = proc.irecv::<Vec<f64>>(0, t);
                    let h2 = proc.irecv::<Vec<f64>>(2, t);
                    let a = proc.wait(h1);
                    let b = proc.wait(h2);
                    (a.len(), b.len())
                }
                r => {
                    // Rank 0 sends 50 words (arrival 1 + 5 = 6), rank 2
                    // sends 1 word (arrival 1.1).
                    let words = if r == 0 { 50 } else { 1 };
                    proc.send(1, t, vec![0.0f64; words]);
                    (0, 0)
                }
            }
        });
        assert_eq!(run.results[1], (50, 1));
        assert_eq!(
            run.report.procs[1].stats.overlap_hidden, 0.0,
            "idle waiting on h1 must not count as hiding h2's transit"
        );
    }

    #[test]
    fn busy_before_arrival_counts_even_after_an_idle_wait() {
        // Proc 1 computes 2 s, then waits a late message (idle), then an
        // early one: the 1.1 s transit of the early message was fully
        // covered by the up-front compute, so ~1.1 s is hidden for it.
        let run = Machine::run(unit_cfg(3), |proc| {
            let t = tag(NS_USER, 26);
            match proc.rank() {
                1 => {
                    let h1 = proc.irecv::<Vec<f64>>(0, t); // 50 words: arrives at 6
                    let h2 = proc.irecv::<Vec<f64>>(2, t); // 1 word: arrives at 1.1
                    proc.compute(2000.0); // busy [0, 2]
                    let _ = proc.wait(h1); // idle [2, 6]
                    let _ = proc.wait(h2);
                    proc.stats().overlap_hidden
                }
                r => {
                    let words = if r == 0 { 50 } else { 1 };
                    proc.send(1, t, vec![0.0f64; words]);
                    0.0
                }
            }
        });
        // h1: busy 2 of its 6 s window; h2: its whole 1.1 s window was
        // busy (the idle on h1 came after h2 had already arrived).
        assert!(
            (run.results[1] - 3.1).abs() < 1e-12,
            "hidden = {}",
            run.results[1]
        );
    }

    #[test]
    fn build_constructs_backend_neutral_machines() {
        let run = Machine::build(
            BackendKind::Sim,
            Topology::FullyConnected,
            CostModel::unit(),
        )
        .procs(2)
        .watchdog(Duration::from_secs(5))
        .run(|proc| proc.rank());
        assert_eq!(run.results, vec![0, 1]);
        assert_eq!(run.report.backend, BackendKind::Sim);
        assert!(run.report.wall_seconds > 0.0);

        let cfg = Machine::build(
            BackendKind::Threads,
            Topology::FullyConnected,
            CostModel::ipsc2(),
        )
        .procs(3)
        .config();
        assert_eq!(cfg.nprocs, 3);
        assert_eq!(cfg.backend, BackendKind::Threads);
        assert_eq!(cfg.topology, Topology::FullyConnected);
    }

    #[test]
    fn threads_backend_runs_the_same_protocol_with_zero_virtual_time() {
        let f = |proc: &mut Proc| {
            let t = tag(NS_USER, 30);
            if proc.rank() == 0 {
                proc.compute(1000.0);
                proc.send(1, t, 5.0f64);
                let x: f64 = proc.recv(1, t);
                x
            } else {
                let h = proc.irecv::<f64>(0, t);
                let x = proc.wait(h);
                proc.send(0, t, x + 1.0);
                x
            }
        };
        let sim = Machine::run(unit_cfg(2), f);
        let thr = Machine::run(unit_cfg(2).with_backend(BackendKind::Threads), f);
        // Same payload matching, same results and traffic...
        assert_eq!(thr.results, sim.results);
        assert_eq!(thr.report.total_msgs, sim.report.total_msgs);
        assert_eq!(thr.report.total_words, sim.report.total_words);
        // ...but no virtual time anywhere on the threads backend.
        assert_eq!(thr.report.backend, BackendKind::Threads);
        assert_eq!(thr.report.elapsed, 0.0);
        for p in &thr.report.procs {
            assert_eq!(p.clock, 0.0);
            assert_eq!(p.stats.busy, 0.0);
            assert_eq!(p.stats.idle, 0.0);
            assert_eq!(p.stats.overlap_hidden, 0.0);
        }
        assert!(thr.report.wall_seconds > 0.0);
        // The simulator still charges its timeline.
        assert!(sim.report.elapsed > 0.0);
    }

    #[test]
    fn report_aggregates_traffic() {
        let run = Machine::run(unit_cfg(4), |proc| {
            let t = tag(NS_USER, 7);
            let nxt = (proc.rank() + 1) % 4;
            let prv = (proc.rank() + 3) % 4;
            proc.send(nxt, t, vec![0.0f64; 8]);
            let _: Vec<f64> = proc.recv(prv, t);
        });
        assert_eq!(run.report.total_msgs, 4);
        assert_eq!(run.report.total_words, 32);
        assert_eq!(run.report.nprocs(), 4);
    }
}
