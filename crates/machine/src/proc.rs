//! Per-processor handle: virtual clock, send/recv, metrics.

use std::any::Any;
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use crate::cost::CostModel;
use crate::machine::MachineConfig;
use crate::wire::Wire;
use crate::Tag;

/// A message in flight between two simulated processors.
pub(crate) struct Envelope {
    pub src: usize,
    pub tag: Tag,
    /// Virtual time at which the message becomes available at the receiver.
    pub arrival: f64,
    pub words: usize,
    pub payload: Box<dyn Any + Send>,
}

/// Counters accumulated by one simulated processor during a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcStats {
    pub msgs_sent: u64,
    pub words_sent: u64,
    pub msgs_recv: u64,
    pub words_recv: u64,
    /// Floating point operations charged via [`Proc::compute`].
    pub flops: f64,
    /// Words moved via [`Proc::memop`].
    pub mem_words: f64,
    /// Virtual seconds spent computing or in send/recv overhead.
    pub busy: f64,
    /// Virtual seconds spent waiting for messages.
    pub idle: f64,
    /// Inspector passes executed by a runtime-resolution layer
    /// (see [`Proc::note_inspector_run`]).
    pub inspector_runs: u64,
    /// Doall invocations served by replaying a cached communication
    /// schedule instead of re-running the inspector.
    pub schedule_replays: u64,
    /// Virtual seconds attributable to inspection (schedule discovery,
    /// including the request exchange of runtime resolution).
    pub inspector_seconds: f64,
    /// Data words delivered by executor exchange phases (the value
    /// traffic of runtime resolution, excluding request vectors).
    pub exchange_words: u64,
    /// Virtual seconds of message transit that a split-phase receive hid
    /// behind computation: per [`Proc::wait`], the *busy* time that fell
    /// inside the message's transit window (from the [`Proc::irecv`]
    /// post to the arrival) — transit covered by useful work; idle spent
    /// waiting on other messages counts for nothing.
    pub overlap_hidden: f64,
    /// Replays whose consensus vote rode as a header on the fused value
    /// messages (optimistic replay) and was confirmed — warm trips that
    /// paid no dedicated vote round.
    pub optimistic_hits: u64,
    /// Optimistic replay attempts whose piggybacked votes disagreed: the
    /// received payloads were discarded and the trip rolled back to a
    /// full inspection.
    pub rollbacks: u64,
    /// Schedule-cache entries this processor evicted (per-site-cap and
    /// global-budget victims both count) — the admission-policy pressure
    /// gauge for bounded multi-tenant caches.
    pub schedule_evictions: u64,
    /// Subset of [`ProcStats::exchange_words`] delivered by *irregular
    /// gather* schedules (sparse x-vector fetches), so sparse gather
    /// volume is separable from halo exchange volume in benches.
    pub gather_words: u64,
}

/// A named instant recorded by [`Proc::mark`]; used by the experiment
/// binaries to reconstruct activity diagrams (paper Figures 3 and 5).
#[derive(Debug, Clone, PartialEq)]
pub struct MarkEvent {
    pub at: f64,
    /// A static label is borrowed, not copied: stamping one allocates
    /// nothing beyond the log's own growth.
    pub label: Cow<'static, str>,
}

/// An ordered set of processors cooperating in a collective or a distributed
/// procedure — the machine-level shadow of a processor-array slice
/// (`procs(ip, *)` in KF1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Team {
    ranks: Vec<usize>,
}

impl Team {
    /// Build a team from machine ranks. Ranks must be distinct.
    pub fn new(ranks: Vec<usize>) -> Self {
        debug_assert!(
            {
                let mut sorted = ranks.clone();
                sorted.sort_unstable();
                sorted.windows(2).all(|w| w[0] != w[1])
            },
            "team ranks must be distinct: {ranks:?}"
        );
        assert!(!ranks.is_empty(), "a team must have at least one member");
        Team { ranks }
    }

    /// The whole machine, ranks `0..p`.
    pub fn all(p: usize) -> Self {
        Team::new((0..p).collect())
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        false // enforced non-empty at construction
    }

    /// Machine rank of member `idx`.
    #[inline]
    pub fn rank(&self, idx: usize) -> usize {
        self.ranks[idx]
    }

    /// All machine ranks, in team order.
    #[inline]
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// Team index of machine rank `rank`, if it is a member.
    pub fn index_of(&self, rank: usize) -> Option<usize> {
        self.ranks.iter().position(|&r| r == rank)
    }

    /// Does the team contain this machine rank?
    pub fn contains(&self, rank: usize) -> bool {
        self.index_of(rank).is_some()
    }
}

/// A posted split-phase receive: created by [`Proc::irecv`], completed by
/// [`Proc::wait`]. The type parameter pins the
/// expected payload type at post time.
///
/// Dropping a pending receive without waiting strands its message (its
/// posting-order slot is never consumed), so the handle is
/// `#[must_use]`.
#[must_use = "a posted irecv must be completed with Proc::wait"]
#[derive(Debug)]
pub struct PendingRecv<T: Wire> {
    src: usize,
    tag: Tag,
    /// Posting-order ticket within `(src, tag)`: receives match messages
    /// in the order they were *posted* (MPI semantics), not the order
    /// they are waited, so out-of-order `wait`s cannot mis-pair payloads.
    ticket: u64,
    /// Virtual time at which the receive was posted (after the receive
    /// overhead was charged) — the start of the overlap window.
    posted_at: f64,
    _payload: PhantomData<fn() -> T>,
}

impl<T: Wire> PendingRecv<T> {
    /// Source rank this receive is matched against.
    #[inline]
    pub fn src(&self) -> usize {
        self.src
    }
}

/// Handle through which SPMD code drives one processor.
pub struct Proc {
    rank: usize,
    nprocs: usize,
    clock: f64,
    cfg: Arc<MachineConfig>,
    /// The price list every virtual charge and arrival stamp reads:
    /// `cfg.cost` on the simulator, all zeros on threads (see
    /// [`crate::backend`]), so the arithmetic below is one path.
    cost: CostModel,
    outboxes: Arc<Vec<Sender<Envelope>>>,
    inbox: Receiver<Envelope>,
    /// Rank of the first processor whose body panicked this run
    /// (`usize::MAX` = none). Checked while blocked in a receive so peers
    /// stuck mid-collective abort promptly instead of sitting out the
    /// full watchdog budget.
    failed: Arc<AtomicUsize>,
    /// Messages physically received but not yet matched by a `recv`.
    pending: VecDeque<Envelope>,
    /// Messages matched to a posted receive's ticket but not yet waited
    /// (an out-of-order `wait` pulled past them).
    claimed: Vec<((usize, Tag, u64), Envelope)>,
    /// Idle intervals `[start, end)` charged while split-phase receives
    /// were outstanding; lets [`Proc::wait`] compute the *busy* time
    /// inside a transit window exactly (clock = busy + idle). Cleared
    /// whenever no receive is outstanding, so it stays bounded by one
    /// exchange's wait count.
    idle_log: Vec<(f64, f64)>,
    /// Number of posted-but-unwaited receives.
    outstanding_recvs: usize,
    /// Next posting-order ticket per `(src, tag)`.
    tickets_issued: HashMap<(usize, Tag), u64>,
    /// Next ticket to be matched against an arrival per `(src, tag)`.
    tickets_served: HashMap<(usize, Tag), u64>,
    /// How long a receive polls before it parks ([`poll_window`]).
    pub(crate) poll: Duration,
    stats: ProcStats,
    marks: Vec<MarkEvent>,
}

/// The poll window of a run of `nprocs` processors. A hand-off to a
/// parked thread costs a wake-up, so a receive first polls for 50 µs, but
/// only when each processor can hold a CPU of its own (`nprocs` ≤
/// `available_parallelism`, read once per process): an oversubscribed
/// receiver that polls only holds back the peer it waits for.
pub(crate) fn poll_window(nprocs: usize) -> Duration {
    const POLL_US: u64 = 50;
    static CPUS: OnceLock<usize> = OnceLock::new();
    let cpus = *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    Duration::from_micros(if nprocs <= cpus { POLL_US } else { 0 })
}

impl Proc {
    pub(crate) fn new(
        rank: usize,
        nprocs: usize,
        cfg: Arc<MachineConfig>,
        outboxes: Arc<Vec<Sender<Envelope>>>,
        inbox: Receiver<Envelope>,
        failed: Arc<AtomicUsize>,
        poll: Duration,
    ) -> Self {
        Proc {
            rank,
            nprocs,
            clock: 0.0,
            cost: cfg.backend.prices(cfg.cost),
            cfg,
            outboxes,
            inbox,
            failed,
            pending: VecDeque::new(),
            claimed: Vec::new(),
            idle_log: Vec::new(),
            outstanding_recvs: 0,
            tickets_issued: HashMap::new(),
            tickets_served: HashMap::new(),
            poll,
            stats: ProcStats::default(),
            marks: Vec::new(),
        }
    }

    /// This processor's machine rank, `0..nprocs`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of processors in the machine.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Current virtual time on this processor (seconds).
    #[inline]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// The machine configuration (cost model, topology).
    #[inline]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    #[inline]
    pub fn stats(&self) -> &ProcStats {
        &self.stats
    }

    pub(crate) fn take_stats(&mut self) -> (ProcStats, f64, Vec<MarkEvent>) {
        (
            std::mem::take(&mut self.stats),
            self.clock,
            std::mem::take(&mut self.marks),
        )
    }

    /// Record a labelled instant for post-run activity analysis.
    pub fn mark(&mut self, label: impl Into<Cow<'static, str>>) {
        self.marks.push(MarkEvent {
            at: self.clock,
            label: label.into(),
        });
    }

    /// Charge `flops` floating point operations to the virtual clock.
    #[inline]
    pub fn compute(&mut self, flops: f64) {
        debug_assert!(flops >= 0.0);
        let dt = flops * self.cost.flop;
        self.clock += dt;
        self.stats.busy += dt;
        self.stats.flops += flops;
    }

    /// [`Proc::compute`] of each entry of `pattern` in turn, `times` times
    /// over: the same clock and counters, bit for bit, as those calls. Each
    /// entry is priced once (of a pattern up to 16 long).
    pub fn compute_each(&mut self, pattern: &[f64], times: usize) {
        let mut dts = [0.0; 16];
        let Some(dts) = dts.get_mut(..pattern.len()) else {
            return (0..times).for_each(|_| pattern.iter().for_each(|&f| self.compute(f)));
        };
        for (dt, &flops) in dts.iter_mut().zip(pattern) {
            debug_assert!(flops >= 0.0);
            *dt = flops * self.cost.flop;
        }
        // The sums run in locals, and a single entry in a loop of its own.
        let (mut clock, mut busy, mut flops) = (self.clock, self.stats.busy, self.stats.flops);
        let mut add = |dt: f64, f: f64| (clock, busy, flops) = (clock + dt, busy + dt, flops + f);
        match (&*dts, pattern) {
            (&[dt], &[f]) => (0..times).for_each(|_| add(dt, f)),
            _ => (0..times).for_each(|_| dts.iter().zip(pattern).for_each(|(&d, &f)| add(d, f))),
        }
        (self.clock, self.stats.busy, self.stats.flops) = (clock, busy, flops);
    }

    /// Charge a local memory movement of `words` 8-byte words.
    #[inline]
    pub fn memop(&mut self, words: f64) {
        debug_assert!(words >= 0.0);
        let dt = words * self.cost.memop;
        self.clock += dt;
        self.stats.busy += dt;
        self.stats.mem_words += words;
    }

    /// Record one inspector pass (schedule discovery) of a
    /// runtime-resolution layer. Pure bookkeeping: no virtual time.
    #[inline]
    pub fn note_inspector_run(&mut self) {
        self.stats.inspector_runs += 1;
    }

    /// Record one doall invocation served by replaying a cached
    /// communication schedule. Every replay is optimistic — its consensus
    /// vote rode as a header on the value messages and was confirmed —
    /// so this counts one schedule replay and one optimistic hit. Pure
    /// bookkeeping: no virtual time.
    #[inline]
    pub fn note_replay(&mut self) {
        self.stats.schedule_replays += 1;
        self.stats.optimistic_hits += 1;
    }

    /// Record one optimistic replay attempt that rolled back to a full
    /// inspection. Pure bookkeeping: no virtual time.
    #[inline]
    pub fn note_rollback(&mut self) {
        self.stats.rollbacks += 1;
    }

    /// Record `n` schedule-cache evictions (callers drain the cache's
    /// counter after a store). Pure bookkeeping: no virtual time.
    #[inline]
    pub fn note_schedule_evictions(&mut self, n: u64) {
        self.stats.schedule_evictions += n;
    }

    /// Attribute `seconds` of already-charged virtual time to inspection.
    /// Does not advance the clock; callers charge the underlying
    /// communication/compute normally and classify it here.
    #[inline]
    pub fn attribute_inspector_time(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.stats.inspector_seconds += seconds;
    }

    /// Record `words` data words delivered by an executor exchange phase.
    /// Pure bookkeeping: the traffic itself is charged by send/recv.
    #[inline]
    pub fn note_exchange_words(&mut self, words: u64) {
        self.stats.exchange_words += words;
    }

    /// Attribute `words` already-recorded exchange words to an irregular
    /// gather (sparse x-vector fetch). Pure bookkeeping: the consumer
    /// calls this *in addition to* the executor's exchange-word note, so
    /// `gather_words <= exchange_words` always holds.
    #[inline]
    pub fn note_gather_words(&mut self, words: u64) {
        self.stats.gather_words += words;
    }

    /// Asynchronous send: never blocks (channels are unbounded, matching the
    /// paper's assumption of asynchronous communication).
    ///
    /// The sender is charged the send overhead; the message is stamped with
    /// arrival time `clock + α + β·words + hop·distance`.
    pub fn send<T: Wire>(&mut self, dst: usize, tag: Tag, value: T) {
        assert!(
            dst < self.nprocs,
            "send to rank {dst} on {}-proc machine",
            self.nprocs
        );
        let words = value.wire_words();
        let overhead = self.cost.overhead;
        self.clock += overhead;
        self.stats.busy += overhead;
        let hops = self.cfg.topology.hops(self.rank, dst, self.nprocs);
        let arrival = self.clock + self.cost.wire_time(words, hops);
        self.stats.msgs_sent += 1;
        self.stats.words_sent += words as u64;
        let env = Envelope {
            src: self.rank,
            tag,
            arrival,
            words,
            payload: Box::new(value),
        };
        self.outboxes[dst]
            .send(env)
            .expect("machine channel closed: a peer processor has shut down early");
    }

    /// Blocking receive of a message from `src` carrying `tag`.
    ///
    /// Matching is by `(src, tag)` in per-pair FIFO order. The receiver's
    /// clock is raised to the message's arrival time (waiting counts as idle)
    /// and charged the receive overhead.
    ///
    /// Panics with a diagnostic if the expected message does not arrive
    /// within the real-time watchdog budget (suspected deadlock) or if the
    /// payload type does not match `T`.
    pub fn recv<T: Wire>(&mut self, src: usize, tag: Tag) -> T {
        let ticket = self.issue_ticket(src, tag);
        let env = self.consume_ticket(src, tag, ticket);
        if env.arrival > self.clock {
            self.charge_idle(env.arrival);
        }
        let overhead = self.cost.overhead;
        self.clock += overhead;
        self.stats.busy += overhead;
        self.stats.msgs_recv += 1;
        self.stats.words_recv += env.words as u64;
        match env.payload.downcast::<T>() {
            Ok(v) => *v,
            Err(_) => panic!(
                "type mismatch: proc {} received message (src={src}, tag={tag:#x}) whose \
                 payload is not a {}",
                self.rank,
                std::any::type_name::<T>()
            ),
        }
    }

    /// Raise the clock to `until`, accounting the gap as idle; the
    /// interval is logged while split-phase receives are outstanding so
    /// their overlap windows can separate idle from busy time.
    fn charge_idle(&mut self, until: f64) {
        debug_assert!(until >= self.clock);
        if self.outstanding_recvs > 0 {
            self.idle_log.push((self.clock, until));
        }
        self.stats.idle += until - self.clock;
        self.clock = until;
    }

    /// Reserve the next posting-order ticket for `(src, tag)`.
    fn issue_ticket(&mut self, src: usize, tag: Tag) -> u64 {
        let t = self.tickets_issued.entry((src, tag)).or_insert(0);
        let ticket = *t;
        *t += 1;
        ticket
    }

    /// Deliver the envelope matching `ticket`: arrivals for `(src, tag)`
    /// are matched to tickets in FIFO order; envelopes pulled past the
    /// requested ticket are parked in `claimed` for their own waits.
    fn consume_ticket(&mut self, src: usize, tag: Tag, ticket: u64) -> Envelope {
        loop {
            if let Some(pos) = self
                .claimed
                .iter()
                .position(|(k, _)| *k == (src, tag, ticket))
            {
                return self.claimed.remove(pos).1;
            }
            let env = self.recv_envelope(src, tag);
            let served = self.tickets_served.entry((src, tag)).or_insert(0);
            let s = *served;
            *served += 1;
            if s == ticket {
                return env;
            }
            self.claimed.push(((src, tag, s), env));
        }
    }

    /// The next arrival from `(src, tag)`, others kept in `pending`: poll
    /// the inbox for the run's [`poll_window`] (≤ 50 µs, zero when the run
    /// has more processors than `available_parallelism`), then park in
    /// slices of ≤ 200 ms, checking for a panicked peer and the watchdog.
    fn recv_envelope(&mut self, src: usize, tag: Tag) -> Envelope {
        if let Some(pos) = self
            .pending
            .iter()
            .position(|e| e.src == src && e.tag == tag)
        {
            return self.pending.remove(pos).unwrap();
        }
        let until = Instant::now() + self.poll;
        while !self.poll.is_zero() && Instant::now() < until {
            match self.inbox.try_recv() {
                Ok(e) if e.src == src && e.tag == tag => return e,
                Ok(e) => self.pending.push_back(e),
                Err(_) => std::hint::spin_loop(),
            }
        }
        let mut waited = Duration::ZERO;
        let slice = Duration::from_millis(200).min(self.cfg.watchdog);
        loop {
            match self.inbox.recv_timeout(slice) {
                Ok(e) => {
                    if e.src == src && e.tag == tag {
                        return e;
                    }
                    self.pending.push_back(e);
                }
                Err(RecvTimeoutError::Timeout) => {
                    let f = self.failed.load(Ordering::SeqCst);
                    if f != usize::MAX {
                        panic!(
                            "run aborted: processor {f} panicked while proc {} waited for \
                             (src={src}, tag={tag:#x})",
                            self.rank
                        );
                    }
                    waited += slice;
                    if waited >= self.cfg.watchdog {
                        panic!(
                            "suspected deadlock: proc {} waited {:?} for (src={src}, \
                             tag={tag:#x}); {} unmatched message(s) pending: {:?}",
                            self.rank,
                            waited,
                            self.pending.len(),
                            self.pending
                                .iter()
                                .take(8)
                                .map(|e| (e.src, e.tag))
                                .collect::<Vec<_>>()
                        );
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!(
                        "machine torn down while proc {} waited for (src={src}, tag={tag:#x})",
                        self.rank
                    );
                }
            }
        }
    }

    // ---------- split-phase (nonblocking) primitives ----------

    /// Nonblocking send. In this machine model every send is asynchronous,
    /// so `isend` charges exactly what [`Proc::send`] charges (the send
    /// overhead) and completes immediately.
    pub fn isend<T: Wire>(&mut self, dst: usize, tag: Tag, value: T) {
        self.send(dst, tag, value);
    }

    /// Post a split-phase receive for a message from `src` carrying `tag`.
    ///
    /// The receive *overhead* is charged up front (the CPU-side cost of
    /// posting); message transit then overlaps whatever the processor does
    /// next. Idle time is only incurred if the matching [`Proc::wait`]
    /// runs before the message's virtual arrival.
    pub fn irecv<T: Wire>(&mut self, src: usize, tag: Tag) -> PendingRecv<T> {
        assert!(
            src < self.nprocs,
            "irecv from rank {src} on {}-proc machine",
            self.nprocs
        );
        let overhead = self.cost.overhead;
        self.clock += overhead;
        self.stats.busy += overhead;
        let ticket = self.issue_ticket(src, tag);
        self.outstanding_recvs += 1;
        PendingRecv {
            src,
            tag,
            ticket,
            posted_at: self.clock,
            _payload: PhantomData,
        }
    }

    /// Complete a posted receive, returning the payload.
    ///
    /// If the message has already arrived in virtual time, no idle is
    /// charged and the whole transit counted toward
    /// [`ProcStats::overlap_hidden`]; otherwise the clock is raised to the
    /// arrival (the shortfall is idle) and only the covered part of the
    /// window is counted as hidden.
    pub fn wait<T: Wire>(&mut self, pending: PendingRecv<T>) -> T {
        let env = self.consume_ticket(pending.src, pending.tag, pending.ticket);
        // Transit covered by *work*: the elapsed part of the window
        // [posted_at, arrival] minus the idle intervals that fell inside
        // it (clock = busy + idle, so the remainder is exactly the busy
        // time that overlapped this message's transit). Idle spent
        // waiting on other receives hides nothing.
        let win_end = self.clock.min(env.arrival);
        let idle_in_window: f64 = self
            .idle_log
            .iter()
            .map(|&(s, e)| (e.min(win_end) - s.max(pending.posted_at)).max(0.0))
            .sum();
        self.stats.overlap_hidden += (win_end - pending.posted_at - idle_in_window).max(0.0);
        self.outstanding_recvs -= 1;
        if self.outstanding_recvs == 0 {
            self.idle_log.clear();
        }
        if env.arrival > self.clock {
            self.charge_idle(env.arrival);
        }
        self.stats.msgs_recv += 1;
        self.stats.words_recv += env.words as u64;
        match env.payload.downcast::<T>() {
            Ok(v) => *v,
            Err(_) => panic!(
                "type mismatch: proc {} waited on message (src={}, tag={:#x}) whose \
                 payload is not a {}",
                self.rank,
                pending.src,
                pending.tag,
                std::any::type_name::<T>()
            ),
        }
    }
}

impl std::fmt::Debug for Proc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proc")
            .field("rank", &self.rank)
            .field("nprocs", &self.nprocs)
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn team_basics() {
        let t = Team::new(vec![4, 2, 7]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.rank(1), 2);
        assert_eq!(t.index_of(7), Some(2));
        assert_eq!(t.index_of(3), None);
        assert!(t.contains(4));
        assert!(!t.is_empty());
    }

    #[test]
    fn team_all_enumerates_machine() {
        let t = Team::all(4);
        assert_eq!(t.ranks(), &[0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_team_rejected() {
        let _ = Team::new(vec![]);
    }

    /// An interleaved pattern of unequal flops — one that fits the stack
    /// buffer, one that does not, and none — charges what the calls it
    /// stands for charge, in their order: charged entry by entry instead,
    /// the clock reads other bits.
    #[test]
    fn compute_each_charges_exactly_like_repeated_computes() {
        let short = [0.7, 3.0, 0.1, 0.001, 5.0];
        let long: Vec<f64> = (0..20).map(|k| 0.3 + k as f64 * 0.7).collect();
        for pattern in [&short[..], &long, &[]] {
            let run = crate::Machine::run(crate::MachineConfig::new(3), |proc| {
                match proc.rank() {
                    0 => (0..1000).for_each(|_| pattern.iter().for_each(|&f| proc.compute(f))),
                    1 => proc.compute_each(pattern, 1000),
                    _ => pattern.iter().for_each(|&f| proc.compute_each(&[f], 1000)),
                }
                let s = proc.stats();
                [proc.clock(), s.busy, s.flops].map(f64::to_bits)
            });
            assert_eq!(run.results[0], run.results[1], "{pattern:?}");
            if !pattern.is_empty() {
                assert_ne!(run.results[0][0], run.results[2][0], "{pattern:?}");
            }
        }
    }
}
