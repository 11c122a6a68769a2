//! The split-phase schedule executor.
//!
//! Replaying a [`CommSchedule`] is a storage-neutral protocol: serve every
//! peer's cached requests from local storage, move the fused per-peer
//! value messages, scatter the received values into place. The executor
//! implements that protocol once — blocking and split-phase, pessimistic
//! and optimistic — against the [`ScheduleWorld`] storage abstraction, so
//! the interpreter's `ArrObj` arrays and `kali-array`'s `DistArrayN`
//! arrays replay through identical code.

use kali_machine::{collective, Elem, PendingRecv, Proc, Tag, Team, Wire};

use crate::schedule::CommSchedule;

/// How the executor touches a consumer's storage. `array` indexes into
/// [`CommSchedule::arrays`]; `flat` is an element name the consumer
/// chose when it built the schedule, and only the consumer decodes it:
/// the halo names storage offsets, the sparse gather global columns, the
/// interpreter an entry-major encoding over its exchange list.
pub trait ScheduleWorld<T> {
    /// Read the current local value of element `flat` of schedule array
    /// `array` (serving a peer's cached request).
    fn load(&self, array: usize, flat: u64) -> T;
    /// Store a freshly received value into element `flat` of schedule
    /// array `array`.
    fn store(&mut self, array: usize, flat: u64, value: T);
}

/// An in-flight pessimistic value exchange created by
/// [`ScheduleExecutor::post`]; complete it with
/// [`ScheduleExecutor::complete`].
#[must_use = "a posted exchange must be completed"]
pub struct PendingValues<T: Wire> {
    recvs: Vec<(usize, PendingRecv<Vec<T>>)>,
}

/// The header word a member with no replayable schedule sends: a vote
/// that can never win.
pub const NO_VOTE: i64 = -1;

/// An in-flight optimistic exchange: fused value messages carrying the
/// replay vote as a *typed* one-word header (`(i64, Vec<T>)`), one
/// message per ordered peer pair. The header rides in its own channel of
/// the tuple rather than inside an element slot, so the consensus word
/// is element-independent: it costs one wire word whatever `T` is, and
/// the payload half packs by element width ([`Elem::slice_words`]).
#[must_use = "a posted optimistic exchange must be completed"]
pub struct PendingVote<T: Elem> {
    recvs: Vec<(usize, PendingRecv<(i64, Vec<T>)>)>,
    vote: i64,
    nmembers: usize,
}

/// What an optimistic exchange decided.
pub struct VoteOutcome<T> {
    /// `Some(seq)` when every member voted the same non-negative ordinal:
    /// replay it. `None`: roll back to a full inspection; the payloads
    /// must be discarded.
    pub agreed: Option<u64>,
    /// Per team member, the received value payload (own slot and
    /// header-only messages are empty).
    pub payloads: Vec<Vec<T>>,
}

/// The executor. Holds only the tags its nonblocking messages travel
/// under; consumers pick tags in their own namespaces so unrelated
/// protocols can never match each other's messages.
#[derive(Clone, Copy)]
pub struct ScheduleExecutor {
    value_tag: Tag,
}

impl ScheduleExecutor {
    pub const fn new(value_tag: Tag) -> Self {
        ScheduleExecutor { value_tag }
    }

    /// Serve every peer's cached requests from local storage: one reply
    /// vector per team member, concatenated over the schedule's arrays
    /// (the scatter side walks the same order).
    fn serve<T: Copy, W: ScheduleWorld<T>>(
        proc: &mut Proc,
        q: usize,
        sched: &CommSchedule,
        world: &W,
    ) -> Vec<Vec<T>> {
        let mut replies: Vec<Vec<T>> = vec![Vec::new(); q];
        let mut served = 0usize;
        for (k, a) in sched.arrays.iter().enumerate() {
            for (d, idxs) in a.incoming.iter().enumerate() {
                replies[d].extend(idxs.iter().map(|&f| world.load(k, f)));
                served += idxs.len();
            }
        }
        proc.memop(served as f64);
        replies
    }

    /// Scatter received value payloads into storage, walking arrays-major
    /// with one cursor per peer — the exact order [`Self::serve`] packed.
    /// Records the delivered *packed* words as executor exchange traffic:
    /// each peer's payload is one contiguous message, so it is charged at
    /// [`Elem::slice_words`] — word-per-element for `f64` (bit-identical
    /// to the historical element-count accounting), two-per-word for
    /// `f32`.
    fn scatter<T: Elem, W: ScheduleWorld<T>>(
        proc: &mut Proc,
        sched: &CommSchedule,
        world: &mut W,
        values: &[Vec<T>],
    ) {
        let mut cursor = vec![0usize; values.len()];
        for (k, a) in sched.arrays.iter().enumerate() {
            for (d, idxs) in a.my_reqs.iter().enumerate() {
                let got = &values[d][cursor[d]..cursor[d] + idxs.len()];
                for (&f, &v) in idxs.iter().zip(got) {
                    world.store(k, f, v);
                }
                cursor[d] += idxs.len();
            }
        }
        let recvd: usize = values.iter().map(|v| T::slice_words(v.len())).sum();
        proc.note_exchange_words(recvd as u64);
    }

    /// Blocking fused replay: serve, move the fused per-peer value
    /// messages with blocking sends/receives, scatter. Like the
    /// split-phase path, peer pairs with no scheduled traffic in a
    /// direction exchange no message at all — both sides hold the
    /// schedule, so they agree. The baseline the split-phase paths are
    /// differentially tested against: same messages, no overlap.
    pub fn exchange_blocking<T: Elem, W: ScheduleWorld<T>>(
        &self,
        proc: &mut Proc,
        team: &Team,
        sched: &CommSchedule,
        world: &mut W,
    ) {
        let q = team.len();
        let me = team
            .index_of(proc.rank())
            .expect("exchanging processor is a team member");
        let replies = Self::serve(proc, q, sched, world);
        for (d, payload) in replies.into_iter().enumerate() {
            if d != me && !payload.is_empty() {
                proc.send(team.rank(d), self.value_tag, payload);
            }
        }
        let mut values: Vec<Vec<T>> = Vec::with_capacity(q);
        values.resize_with(q, Vec::new);
        for d in 0..q {
            if d != me && sched.expects_from(d) {
                values[d] = proc.recv(team.rank(d), self.value_tag);
            }
        }
        Self::scatter(proc, sched, world, &values);
    }

    /// Split-phase post: serve and issue the fused per-peer value
    /// messages nonblocking and post the matching receives, then return
    /// so the caller can run interior work while the messages are in
    /// transit. Peer pairs with no traffic in a direction exchange no
    /// message at all (both sides hold the schedule, so they agree).
    pub fn post<T: Elem, W: ScheduleWorld<T>>(
        &self,
        proc: &mut Proc,
        team: &Team,
        sched: &CommSchedule,
        world: &W,
    ) -> PendingValues<T> {
        let q = team.len();
        let me = team
            .index_of(proc.rank())
            .expect("posting processor is a team member");
        let replies = Self::serve(proc, q, sched, world);
        for (d, payload) in replies.into_iter().enumerate() {
            if d != me && !payload.is_empty() {
                proc.isend(team.rank(d), self.value_tag, payload);
            }
        }
        let recvs = (0..q)
            .filter(|&d| d != me && sched.expects_from(d))
            .map(|d| (d, proc.irecv(team.rank(d), self.value_tag)))
            .collect();
        PendingValues { recvs }
    }

    /// Split-phase completion: wait for the posted receives and scatter
    /// the remote values into place — only now is idle charged, and only
    /// for the transit the caller's interleaved work did not cover.
    pub fn complete<T: Elem, W: ScheduleWorld<T>>(
        &self,
        proc: &mut Proc,
        team: &Team,
        sched: &CommSchedule,
        world: &mut W,
        pending: PendingValues<T>,
    ) {
        let mut values: Vec<Vec<T>> = Vec::with_capacity(team.len());
        values.resize_with(team.len(), Vec::new);
        for (d, h) in pending.recvs {
            values[d] = proc.wait(h);
        }
        Self::scatter(proc, sched, world, &values);
    }

    /// Optimistic post: piggyback the replay vote on the value messages.
    ///
    /// Every member sends one message to every other member —
    /// `(vote, [])` when it holds no replayable schedule (or the pair has
    /// no scheduled traffic), `(vote, values)` otherwise — and posts one
    /// receive per peer. All members therefore observe the full vote
    /// multiset when they complete, deciding hit-or-rollback identically
    /// with zero dedicated vote rounds: the one-word round-trip the
    /// pessimistic protocol serializes before every warm trip disappears
    /// into the exchange itself. (Consumers with analytically derivable
    /// team participation can shrink the vote set further — see
    /// `kali-array`'s active-team gating — but the executor itself sends
    /// to the team it is given.)
    pub fn post_optimistic<T: Elem, W: ScheduleWorld<T>>(
        &self,
        proc: &mut Proc,
        team: &Team,
        vote: i64,
        hit: Option<(&CommSchedule, &W)>,
    ) -> PendingVote<T> {
        let q = team.len();
        let me = team
            .index_of(proc.rank())
            .expect("posting processor is a team member");
        let mut replies: Vec<Vec<T>> = match hit {
            Some((sched, world)) => Self::serve(proc, q, sched, world),
            None => vec![Vec::new(); q],
        };
        for (d, values) in replies.iter_mut().enumerate() {
            if d == me {
                continue;
            }
            proc.isend(team.rank(d), self.value_tag, (vote, std::mem::take(values)));
        }
        let recvs = (0..q)
            .filter(|&d| d != me)
            .map(|d| (d, proc.irecv(team.rank(d), self.value_tag)))
            .collect();
        PendingVote {
            recvs,
            vote,
            nmembers: q,
        }
    }

    /// Optimistic completion: wait for every peer's message and compare
    /// the typed headers. Returns the team's verdict plus the value
    /// payloads — which the caller scatters on agreement and discards on
    /// rollback (stale routes must never reach storage).
    pub fn complete_optimistic<T: Elem>(
        &self,
        proc: &mut Proc,
        pending: PendingVote<T>,
    ) -> VoteOutcome<T> {
        let mut payloads: Vec<Vec<T>> = Vec::with_capacity(pending.nmembers);
        payloads.resize_with(pending.nmembers, Vec::new);
        let mut agreed = pending.vote >= 0;
        for (d, h) in pending.recvs {
            let (theirs, payload): (i64, Vec<T>) = proc.wait(h);
            if theirs != pending.vote {
                agreed = false;
            }
            payloads[d] = payload;
        }
        VoteOutcome {
            agreed: agreed.then_some(pending.vote as u64),
            payloads,
        }
    }

    /// Blocking form of the optimistic exchange (for consumers replaying
    /// without interior work to overlap): the same header-carrying fused
    /// messages, moved with blocking sends/receives so no split-phase
    /// accounting is incurred.
    pub fn exchange_optimistic_blocking<T: Elem, W: ScheduleWorld<T>>(
        &self,
        proc: &mut Proc,
        team: &Team,
        vote: i64,
        hit: Option<(&CommSchedule, &W)>,
    ) -> VoteOutcome<T> {
        let q = team.len();
        let replies: Vec<Vec<T>> = match hit {
            Some((sched, world)) => Self::serve(proc, q, sched, world),
            None => vec![Vec::new(); q],
        };
        let replies: Vec<(i64, Vec<T>)> = replies.into_iter().map(|v| (vote, v)).collect();
        let values = collective::alltoallv(proc, team, replies);
        let me = team
            .index_of(proc.rank())
            .expect("exchanging processor is a team member");
        let mut agreed = vote >= 0;
        let mut payloads = Vec::with_capacity(q);
        for (d, (theirs, payload)) in values.into_iter().enumerate() {
            if d != me && theirs != vote {
                agreed = false;
            }
            payloads.push(payload);
        }
        VoteOutcome {
            agreed: agreed.then_some(vote as u64),
            payloads,
        }
    }

    /// Scatter the payloads of an agreed optimistic exchange.
    pub fn scatter_agreed<T: Elem, W: ScheduleWorld<T>>(
        &self,
        proc: &mut Proc,
        sched: &CommSchedule,
        world: &mut W,
        outcome: &VoteOutcome<T>,
    ) {
        debug_assert!(outcome.agreed.is_some(), "scatter of a rolled-back vote");
        Self::scatter(proc, sched, world, &outcome.payloads);
    }

    /// Split-phase request round of a *cold* inspection: `reqs[d]` is the
    /// request vector for team member `d`. Every send is posted before any
    /// receive is waited, and every peer gets one, empty or not. Returns
    /// `incoming[d]`, what member `d` asks of this processor (the own slot
    /// passes through, mirroring an all-to-all).
    pub fn request_round(
        request_tag: Tag,
        proc: &mut Proc,
        team: &Team,
        reqs: &[Vec<u64>],
    ) -> Vec<Vec<u64>> {
        let q = team.len();
        let me = team
            .index_of(proc.rank())
            .expect("requesting processor is a team member");
        debug_assert_eq!(reqs.len(), q);
        for (d, r) in reqs.iter().enumerate() {
            if d != me {
                proc.isend(team.rank(d), request_tag, r.clone());
            }
        }
        let peers = (0..q).filter(|&d| d != me);
        let handles: Vec<_> = peers
            .map(|d| (d, proc.irecv(team.rank(d), request_tag)))
            .collect();
        let mut incoming = vec![Vec::new(); q];
        incoming[me] = reqs[me].clone();
        for (d, h) in handles {
            incoming[d] = proc.wait(h);
        }
        incoming
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::schedule::ArraySchedule;
    use kali_machine::{tag, CostModel, Machine, MachineConfig, NS_USER};
    use std::time::Duration;

    pub(crate) fn cfg(p: usize) -> MachineConfig {
        MachineConfig::new(p)
            .with_cost(CostModel::unit())
            .with_watchdog(Duration::from_secs(10))
    }

    /// Flat storage world: one array of `n` words per schedule slot.
    pub(crate) struct VecWorld(pub Vec<Vec<f64>>);

    impl ScheduleWorld<f64> for VecWorld {
        fn load(&self, k: usize, flat: u64) -> f64 {
            self.0[k][flat as usize]
        }
        fn store(&mut self, k: usize, flat: u64, v: f64) {
            self.0[k][flat as usize] = v;
        }
    }

    /// Ring schedule over 3 procs: everyone requests element `me` from
    /// the next rank (who owns it).
    pub(crate) fn ring_schedule(me: usize, q: usize) -> CommSchedule {
        let nxt = (me + 1) % q;
        let prv = (me + q - 1) % q;
        let mut my_reqs = vec![Vec::new(); q];
        my_reqs[nxt] = vec![me as u64];
        let mut incoming = vec![Vec::new(); q];
        incoming[prv] = vec![prv as u64];
        CommSchedule {
            arrays: vec![ArraySchedule {
                name: "x".into(),
                my_reqs,
                incoming,
                origin: 0,
            }],
            write_hint: 0,
            boundary: vec![],
        }
    }

    pub(crate) const VT: Tag = tag(NS_USER, 0x77);

    #[test]
    fn split_phase_replay_matches_blocking() {
        let go = |split: bool| {
            Machine::run(cfg(3), move |proc| {
                let team = Team::all(3);
                let me = proc.rank();
                let sched = ring_schedule(me, 3);
                let mut world = VecWorld(vec![(0..3).map(|i| (10 * me + i) as f64).collect()]);
                let exec = ScheduleExecutor::new(VT);
                if split {
                    let pending = exec.post(proc, &team, &sched, &world);
                    proc.compute(50.0);
                    exec.complete(proc, &team, &sched, &mut world, pending);
                } else {
                    exec.exchange_blocking(proc, &team, &sched, &mut world);
                }
                (world.0, proc.stats().exchange_words)
            })
        };
        let blocking = go(false);
        let split = go(true);
        for (b, s) in blocking.results.iter().zip(&split.results) {
            assert_eq!(b.0, s.0);
            assert_eq!(b.1, s.1);
            assert_eq!(b.1, 1, "one word requested per proc");
        }
        // Each proc's requested element came from its successor's storage.
        for me in 0..3 {
            let nxt = (me + 1) % 3;
            assert_eq!(split.results[me].0[0][me], (10 * nxt + me) as f64);
        }
        assert!(split.report.elapsed <= blocking.report.elapsed);
    }

    #[test]
    fn optimistic_agreement_replays_and_scatters() {
        let run = Machine::run(cfg(3), |proc| {
            let team = Team::all(3);
            let me = proc.rank();
            let sched = ring_schedule(me, 3);
            let mut world = VecWorld(vec![(0..3).map(|i| (10 * me + i) as f64).collect()]);
            let exec = ScheduleExecutor::new(VT);
            let pending = exec.post_optimistic(proc, &team, 4, Some((&sched, &world)));
            proc.compute(10.0);
            let outcome = exec.complete_optimistic(proc, pending);
            assert_eq!(outcome.agreed, Some(4));
            exec.scatter_agreed(proc, &sched, &mut world, &outcome);
            world.0
        });
        for me in 0..3 {
            let nxt = (me + 1) % 3;
            assert_eq!(run.results[me][0][me], (10 * nxt + me) as f64);
        }
    }

    #[test]
    fn any_dissenting_header_rolls_everyone_back() {
        let run = Machine::run(cfg(3), |proc| {
            let team = Team::all(3);
            let me = proc.rank();
            let sched = ring_schedule(me, 3);
            let world = VecWorld(vec![vec![0.0; 3]]);
            let exec = ScheduleExecutor::new(VT);
            // Proc 1 has no local hit: bare headers, vote NO_VOTE.
            let (vote, hit) = if me == 1 {
                (NO_VOTE, None)
            } else {
                (4, Some((&sched, &world)))
            };
            let pending = exec.post_optimistic(proc, &team, vote, hit);
            let outcome = exec.complete_optimistic(proc, pending);
            outcome.agreed
        });
        assert!(run.results.iter().all(|r| r.is_none()));
    }

    #[test]
    fn blocking_optimistic_exchange_agrees_with_split() {
        let run = Machine::run(cfg(4), |proc| {
            let team = Team::all(4);
            let me = proc.rank();
            let sched = ring_schedule(me, 4);
            let mut world = VecWorld(vec![(0..4).map(|i| (10 * me + i) as f64).collect()]);
            let exec = ScheduleExecutor::new(VT);
            let outcome = exec.exchange_optimistic_blocking(proc, &team, 2, Some((&sched, &world)));
            assert_eq!(outcome.agreed, Some(2));
            exec.scatter_agreed(proc, &sched, &mut world, &outcome);
            world.0
        });
        for me in 0..4 {
            let nxt = (me + 1) % 4;
            assert_eq!(run.results[me][0][me], (10 * nxt + me) as f64);
        }
    }

    #[test]
    fn request_rounds_transpose_per_array() {
        let run = Machine::run(cfg(3), |proc| {
            let team = Team::all(3);
            let me = proc.rank() as u64;
            // Round 0: everyone asks peer d for element 100*me + d;
            // round 1: empty requests except to peer 0.
            let first: Vec<_> = (0..3).map(|d| vec![100 * me + d]).collect();
            let second: Vec<_> = (0..3)
                .map(|d| if d == 0 { vec![me] } else { vec![] })
                .collect();
            [first, second].map(|reqs| ScheduleExecutor::request_round(VT, proc, &team, &reqs))
        });
        for d in 0..3usize {
            for s in 0..3usize {
                assert_eq!(run.results[d][0][s], vec![100 * s as u64 + d as u64]);
            }
            let want: Vec<Vec<u64>> = (0..3)
                .map(|s| if d == 0 { vec![s as u64] } else { vec![] })
                .collect();
            assert_eq!(run.results[d][1], want);
        }
        // One message per ordered pair of peers per round, empty ones too.
        assert_eq!(run.report.total_msgs, 2 * 3 * 2);
    }

    #[test]
    fn singleton_team_optimistic_needs_no_messages() {
        let run = Machine::run(cfg(1), |proc| {
            let team = Team::all(1);
            let world = VecWorld(vec![vec![1.0]]);
            let sched = CommSchedule {
                arrays: vec![],
                write_hint: 0,
                boundary: vec![],
            };
            let exec = ScheduleExecutor::new(VT);
            let pending = exec.post_optimistic(proc, &team, 7, Some((&sched, &world)));
            let hit = exec.complete_optimistic(proc, pending).agreed;
            let pending = exec.post_optimistic::<f64, VecWorld>(proc, &team, NO_VOTE, None);
            let miss = exec.complete_optimistic(proc, pending).agreed;
            (hit, miss)
        });
        assert_eq!(run.results[0], (Some(7), None));
        assert_eq!(run.report.total_msgs, 0);
    }
}
