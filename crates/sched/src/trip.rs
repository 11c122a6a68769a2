//! The replay trip: the one driver behind every cached exchange.
//!
//! A communicating loop's trip through the engine is always the same
//! protocol, whoever the consumer is:
//!
//! ```text
//! begin:   gate → lookup → vote ─┬─ hit:  post the cached schedule
//!                                └─ cold: build → store → post
//!          … caller's interior work, overlapping the transit …
//! finish:  complete → scatter on agreement
//!                   └ rollback: discard → build → store → post ⟲ finish
//! ```
//!
//! [`Trip::begin`] and [`InFlight::finish`] own all of it, counters
//! included: the driver counts every build as an inspector run and the
//! virtual time it charges as inspection. A consumer contributes only
//! *data* (the fields of [`Trip`]), a `build` closure that derives a
//! fresh [`CommSchedule`] (analytically or by inspection — the driver
//! does not care), and the [`ScheduleWorld`] the values are served from
//! and scattered into.
//!
//! Whether a trip replays is decided here and nowhere else: it replays
//! only with a cache, a key and [`ExecPolicy::optimistic`], and then its
//! vote always rides as a one-word header on the fused value messages,
//! checked at completion. Any other trip builds, and neither looks up
//! nor stores. [`ExecPolicy::split`] independently selects whether the
//! value messages are posted nonblocking at `begin` or moved by one
//! blocking round at `finish`.
//!
//! A rollback is a cold trip under the same policy: `finish` drops the
//! stale payloads unscattered, rebuilds, stores, launches the fresh
//! schedule and hands the new flight back ([`Finished::RolledBack`]), so
//! a caller that has not run its interior yet can still overlap it.
//! Interior work already done — it read only owner-local data under a
//! locally matching key — stays valid.

use std::rc::Rc;

use kali_machine::{Elem, Proc, Team};

use crate::cache::{ScheduleCache, SiteKey};
use crate::exec::{PendingValues, PendingVote, ScheduleExecutor, ScheduleWorld, NO_VOTE};
use crate::policy::ExecPolicy;
use crate::schedule::CommSchedule;

/// Who runs a trip: anything that can lend the processor handle. The
/// compiled path passes the [`Proc`] itself; the interpreter passes
/// itself, because its builder — the inspector — evaluates the loop body
/// through the whole interpreter state, processor handle included.
pub trait TripHost {
    fn proc(&mut self) -> &mut Proc;
}

impl TripHost for Proc {
    fn proc(&mut self) -> &mut Proc {
        self
    }
}

/// Everything the driver needs to know about one trip, as data.
pub struct Trip<K> {
    /// The consumer's executor (its value-message tag namespace).
    pub exec: ScheduleExecutor,
    pub policy: ExecPolicy,
    /// The members that exchange messages — values and votes alike.
    pub team: Team,
    /// This member sits the exchange out: it owns nothing the schedule
    /// could serve or request (the halo's active-team gating), so it
    /// sends and receives no message — no bare vote header either — and
    /// need not belong to `team`. It still builds and stores whenever the
    /// team does (the gate and the ordinals must stay SPMD-uniform), and
    /// on a gated trip goes by its local lookup alone: a processor that
    /// exchanges no message observes no vote.
    pub sits_out: bool,
    /// The cache key; `None` for a site whose schedule no local key can
    /// prove reusable (it builds on every trip). A hit is replayed as
    /// stored: a consumer whose key identifies regions only up to
    /// translation encodes its schedules relative to the regions.
    pub key: Option<K>,
}

/// A begun trip. The caller may run interior work against
/// [`InFlight::interior_schedule`] before calling [`InFlight::finish`].
#[must_use = "a begun trip must be finished"]
pub struct InFlight<T: Elem, K> {
    trip: Trip<K>,
    state: State<T>,
}

/// What [`InFlight::finish`] found.
pub enum Finished<T: Elem, K> {
    /// The values are delivered; this is the schedule they belong to.
    Done(Rc<CommSchedule>),
    /// The piggybacked vote was lost: a fresh build is in flight instead.
    /// Run interior work against it if none has run yet, then finish it.
    RolledBack(InFlight<T, K>),
}

/// A locally cached schedule and its `(site, team)` ordinal — the ballot.
type Hit = (u64, Rc<CommSchedule>);

enum State<T: Elem> {
    /// A fresh build; the value messages are posted and complete at
    /// finish.
    Posted(Rc<CommSchedule>, PendingValues<T>),
    /// A fresh build, nothing in flight: one blocking round at finish
    /// (none at all for a member that sits out).
    Ready(Rc<CommSchedule>),
    /// The piggybacked vote is posted — headers to every peer, values
    /// too on a local hit; the verdict arrives with the completion.
    Voting(Option<Hit>, PendingVote<T>),
    /// The piggybacked vote is not cast yet: a blocking policy casts it
    /// on the fused round at finish; a member that sits out never casts
    /// it and goes by its local lookup.
    Undecided(Option<Hit>),
}

fn ballot(hit: &Option<Hit>) -> i64 {
    hit.as_ref().map_or(NO_VOTE, |(seq, _)| *seq as i64)
}

impl<K: SiteKey> Trip<K> {
    /// Does this member put messages in flight at `begin`?
    fn posts(&self) -> bool {
        self.policy.split && !self.sits_out
    }

    /// The vote gate and the lookup. Outer `None`: no vote can be held —
    /// no cache, no key, or a `(site, team)` that has never stored (an
    /// SPMD-uniform fact, so every member skips the vote together).
    /// Inner: this member's hit.
    fn lookup(&self, cache: Option<&ScheduleCache<K>>) -> Option<Option<Hit>> {
        let (cache, key) = cache.zip(self.key.as_ref())?;
        if !cache.has_site_team(key.site(), key.team_ranks()) {
            return None;
        }
        Some(cache.lookup(key))
    }

    /// Seed the cache, ahead of a site's first trip, with a schedule
    /// derived *without* communicating — the interpreter runs its
    /// inspector once per team member, locally — so that even the first
    /// trip replays. `plan` must be a pure function of SPMD-uniform
    /// inputs: every member then stores the same schedule at ordinal 1
    /// and the first vote agrees. It is not counted as an inspector run,
    /// and it is not even called once the `(site, team)` has history —
    /// [`ScheduleCache::seed`] would refuse the result — nor under a
    /// policy that does not replay.
    pub fn seed<H: TripHost>(
        &self,
        host: &mut H,
        cache: Option<&mut ScheduleCache<K>>,
        plan: impl FnOnce(&mut H) -> Option<CommSchedule>,
    ) where
        K: Clone,
    {
        let cache = cache.filter(|_| self.policy.optimistic);
        let Some((cache, key)) = cache.zip(self.key.as_ref()) else {
            return;
        };
        if cache.has_site_team(key.site(), key.team_ranks()) {
            return;
        }
        if let Some(sched) = plan(host) {
            cache.seed(key.clone(), sched);
            host.proc().note_schedule_evictions(cache.take_evictions());
        }
    }

    /// Build a fresh schedule and store it (when the site is cached),
    /// counting the build as an inspector run and the virtual time it
    /// charges as inspection. Runs on *every* member, sitting out or not:
    /// stores are collective per `(site, team)`, which is what keeps the
    /// gate and the ordinals SPMD-uniform.
    fn rebuild<W, H: TripHost, E>(
        &mut self,
        host: &mut H,
        cache: Option<&mut ScheduleCache<K>>,
        world: &W,
        build: impl FnOnce(&mut H, &W) -> Result<CommSchedule, E>,
    ) -> Result<Rc<CommSchedule>, E> {
        let t0 = host.proc().clock();
        host.proc().note_inspector_run();
        let sched = build(host, world)?;
        let proc = host.proc();
        proc.attribute_inspector_time(proc.clock() - t0);
        Ok(match cache.zip(self.key.take()) {
            Some((cache, key)) => {
                let (_, sched) = cache.store(key, sched);
                host.proc().note_schedule_evictions(cache.take_evictions());
                sched
            }
            None => Rc::new(sched),
        })
    }

    /// Begin the trip: post the piggybacked vote when the trip can
    /// replay, otherwise build, and post what can be posted, serving from
    /// `world`. Collective over every member that runs the site, those
    /// sitting out included; `cache` is handed to `finish` again.
    pub fn begin<T, W, H, E>(
        mut self,
        host: &mut H,
        cache: Option<&mut ScheduleCache<K>>,
        world: &W,
        build: impl FnOnce(&mut H, &W) -> Result<CommSchedule, E>,
    ) -> Result<InFlight<T, K>, E>
    where
        T: Elem,
        W: ScheduleWorld<T>,
        H: TripHost,
    {
        // Only an optimistic trip replays; any other neither looks up
        // nor stores.
        let cache = cache.filter(|_| self.policy.optimistic);
        let Some(hit) = self.lookup(cache.as_deref()) else {
            let sched = self.rebuild(host, cache, world, build)?;
            return Ok(self.launch(host.proc(), sched, world));
        };
        let state = if self.posts() {
            let serve = hit.as_ref().map(|(_, sched)| (&**sched, world));
            let vote = ballot(&hit);
            let pending = self
                .exec
                .post_optimistic(host.proc(), &self.team, vote, serve);
            State::Voting(hit, pending)
        } else {
            State::Undecided(hit)
        };
        Ok(InFlight { trip: self, state })
    }

    /// Start moving a decided schedule's values: posted now under a split
    /// policy, left for finish's blocking round otherwise.
    fn launch<T: Elem, W: ScheduleWorld<T>>(
        self,
        proc: &mut Proc,
        sched: Rc<CommSchedule>,
        world: &W,
    ) -> InFlight<T, K> {
        let state = if self.posts() {
            let pending = self.exec.post(proc, &self.team, &sched, world);
            State::Posted(sched, pending)
        } else {
            State::Ready(sched)
        };
        InFlight { trip: self, state }
    }
}

impl<T: Elem, K: SiteKey> InFlight<T, K> {
    /// The schedule whose *interior* the caller may execute right now,
    /// while the trip's messages are in transit: present when messages
    /// were posted and the schedule is locally known — a fresh build or
    /// a local hit still awaiting the piggybacked verdict.
    /// (A hit is locally *valid* whatever the team decides: the full key
    /// matched, so its interior/boundary split is this member's current
    /// one.) `None` under a blocking policy, on a local miss, and for a
    /// member sitting out: run everything after [`InFlight::finish`].
    pub fn interior_schedule(&self) -> Option<Rc<CommSchedule>> {
        match &self.state {
            State::Posted(sched, _) | State::Voting(Some((_, sched)), _) => Some(Rc::clone(sched)),
            _ => None,
        }
    }

    /// The schedule this flight scatters unless its vote is lost: a
    /// fresh build, or the local hit. `None` on a local miss. A consumer
    /// sizes its receive buffers by it.
    pub fn schedule(&self) -> Option<&CommSchedule> {
        match &self.state {
            State::Posted(sched, _) | State::Ready(sched) => Some(sched),
            State::Voting(hit, _) | State::Undecided(hit) => hit.as_ref().map(|(_, s)| &**s),
        }
    }

    /// Is the verdict final — will [`InFlight::finish`] deliver this
    /// flight's schedule without a rollback? True for a fresh build, and
    /// for a local hit whose own ballot is the verdict (a singleton team, or a member sitting out); false while a
    /// piggybacked vote among several members is undecided, or on a local
    /// miss. Only a decided flight lets the caller write storage before
    /// finishing: a rollback re-serves its peers from storage.
    pub fn decided(&self) -> bool {
        match &self.state {
            State::Posted(..) | State::Ready(_) => true,
            State::Voting(hit, _) | State::Undecided(hit) => {
                hit.is_some() && (self.trip.sits_out || self.trip.team.len() == 1)
            }
        }
    }

    /// Finish the trip: complete what `begin` posted (or run the blocking
    /// round it deferred) and scatter into `world` on agreement. On a
    /// lost piggybacked vote the payloads are discarded and a fresh
    /// `build` is launched *from `world`'s current values* — which is what
    /// keeps a copy-in snapshot exact — for the caller to finish in turn.
    pub fn finish<W, H, E>(
        self,
        host: &mut H,
        cache: Option<&mut ScheduleCache<K>>,
        world: &mut W,
        build: impl FnOnce(&mut H, &W) -> Result<CommSchedule, E>,
    ) -> Result<Finished<T, K>, E>
    where
        W: ScheduleWorld<T>,
        H: TripHost,
    {
        let InFlight { mut trip, state } = self;
        let (exec, proc) = (trip.exec, host.proc());
        let (hit, outcome) = match state {
            State::Posted(sched, pending) => {
                exec.complete(proc, &trip.team, &sched, world, pending);
                return Ok(Finished::Done(sched));
            }
            State::Ready(sched) => {
                if !trip.sits_out {
                    exec.exchange_blocking(proc, &trip.team, &sched, world);
                }
                return Ok(Finished::Done(sched));
            }
            State::Voting(hit, pending) => (hit, Some(exec.complete_optimistic(proc, pending))),
            State::Undecided(hit) if trip.sits_out => (hit, None),
            State::Undecided(hit) => {
                let serve = hit.as_ref().map(|(_, sched)| (&**sched, &*world));
                let vote = ballot(&hit);
                let outcome = exec.exchange_optimistic_blocking(proc, &trip.team, vote, serve);
                (hit, Some(outcome))
            }
        };
        let agreed = match &outcome {
            Some(outcome) => outcome.agreed.is_some(),
            None => hit.is_some(),
        };
        match hit {
            Some((seq, sched)) if agreed => {
                debug_assert!(outcome.as_ref().is_none_or(|o| o.agreed == Some(seq)));
                proc.note_replay();
                if let Some(outcome) = &outcome {
                    exec.scatter_agreed(proc, &sched, world, outcome);
                }
                Ok(Finished::Done(sched))
            }
            _ => {
                // Whatever arrived was packed along stale routes: it is
                // dropped here, unscattered.
                proc.note_rollback();
                let sched = trip.rebuild(host, cache, world, build)?;
                Ok(Finished::RolledBack(trip.launch(host.proc(), sched, world)))
            }
        }
    }

    /// [`InFlight::finish`] for a caller with no interior work left to
    /// overlap: a rolled-back trip's cold re-run is finished on the spot.
    pub fn complete<W, H, E>(
        mut self,
        host: &mut H,
        mut cache: Option<&mut ScheduleCache<K>>,
        world: &mut W,
        build: impl Fn(&mut H, &W) -> Result<CommSchedule, E>,
    ) -> Result<Rc<CommSchedule>, E>
    where
        W: ScheduleWorld<T>,
        H: TripHost,
    {
        loop {
            match self.finish(host, cache.as_deref_mut(), world, &build)? {
                Finished::Done(sched) => return Ok(sched),
                Finished::RolledBack(cold) => self = cold,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::{cfg, ring_schedule, VecWorld, VT};
    use kali_machine::Machine;
    use std::convert::Infallible;

    #[derive(Clone, PartialEq)]
    struct Key {
        team: Vec<usize>,
        generation: u64,
    }

    impl SiteKey for Key {
        fn site(&self) -> usize {
            7
        }
        fn team_ranks(&self) -> &[usize] {
            &self.team
        }
    }

    /// Whether the trips replay. A consumer lends its cache whatever the
    /// policy, so the no-cache column is a non-optimistic policy with a
    /// cache lent: the driver neither reads nor writes it.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Mode {
        NoCache,
        Replay,
    }
    use Mode::*;

    /// `[inspector_runs, schedule_replays, optimistic_hits, rollbacks,
    /// schedule_evictions, msgs_sent, msgs_recv]`
    type Counts = [u64; 7];

    /// One member's side of the test site: a ring over the exchanging
    /// members, each fetching word `ti` (its own ring position) of its
    /// successor's storage. The builder is analytic — it sends nothing —
    /// so every message counted is the driver's. `site_team` is the team
    /// the cache keys on; it may be wider than the ring (members that sit
    /// out).
    struct Member {
        policy: ExecPolicy,
        site_team: Vec<usize>,
        ring: Team,
        cache: Option<ScheduleCache<Key>>,
        generation: u64,
        trips: usize,
        /// [`InFlight::decided`] at each trip's begin.
        decided: Vec<bool>,
    }

    impl Member {
        /// What `rank` holds in word `i` going into trip `trip`.
        fn word(trip: usize, rank: usize, i: usize) -> f64 {
            (1000 * trip + 10 * rank + i) as f64
        }

        /// One trip with "interior work" between its halves; checks the
        /// delivered word against the successor's *current* storage and
        /// returns whether the flight offered an interior schedule.
        fn trip(&mut self, proc: &mut Proc) -> bool {
            self.trips += 1;
            let (me, q) = (proc.rank(), self.ring.len());
            let ti = self.ring.index_of(me).filter(|_| q > 1);
            let mut world = VecWorld(vec![(0..q)
                .map(|i| Self::word(self.trips, me, i))
                .collect()]);
            let build = |_: &mut Proc, _: &VecWorld| {
                let mut sched = ring_schedule(ti.unwrap_or(0), q);
                if ti.is_none() {
                    let a = &mut sched.arrays[0];
                    a.my_reqs
                        .iter_mut()
                        .chain(&mut a.incoming)
                        .for_each(Vec::clear);
                }
                Ok::<_, Infallible>(sched)
            };
            let trip = Trip {
                exec: ScheduleExecutor::new(VT),
                policy: self.policy,
                team: self.ring.clone(),
                sits_out: !self.ring.contains(me),
                key: Some(Key {
                    team: self.site_team.clone(),
                    generation: self.generation,
                }),
            };
            let Ok(flight) = trip.begin(proc, self.cache.as_mut(), &world, build);
            let offered = flight.interior_schedule().is_some();
            self.decided.push(flight.decided());
            proc.compute(10.0);
            let Ok(done) = flight.finish(proc, self.cache.as_mut(), &mut world, build);
            if let Finished::RolledBack(cold) = done {
                // The cold re-run offers its interior like any cold trip.
                let posts = self.policy.split && self.ring.contains(me);
                assert_eq!(cold.interior_schedule().is_some(), posts);
                let Ok(_) = cold.complete(proc, self.cache.as_mut(), &mut world, build);
            }
            if let Some(ti) = ti {
                let succ = self.ring.rank((ti + 1) % q);
                let want = Self::word(self.trips, succ, ti);
                assert_eq!(world.0[0][ti], want, "rank {me} trip {}", self.trips);
            }
            offered
        }
    }

    /// Run `script` on every rank of a `p`-machine at every point of the
    /// lattice {blocking, split} × {no cache, replay} and compare each
    /// rank's exact counters with `want(mode, rank)`.
    fn across_the_lattice(
        p: usize,
        ring: &'static [usize],
        script: fn(&mut Member, &mut Proc, bool, Mode),
        want: fn(Mode, usize) -> Option<Counts>,
    ) {
        for split in [false, true] {
            for mode in [NoCache, Replay] {
                let run = Machine::run(cfg(p), move |proc| {
                    let mut m = Member {
                        policy: ExecPolicy {
                            split,
                            optimistic: mode == Replay,
                        },
                        site_team: (0..p).collect(),
                        ring: Team::new(ring.to_vec()),
                        cache: Some(ScheduleCache::new(8)),
                        generation: 0,
                        trips: 0,
                        decided: Vec::new(),
                    };
                    script(&mut m, proc, split, mode);
                    if mode == NoCache {
                        assert!(m.cache.as_ref().is_some_and(ScheduleCache::is_empty));
                    }
                    let s = proc.stats();
                    [
                        s.inspector_runs,
                        s.schedule_replays,
                        s.optimistic_hits,
                        s.rollbacks,
                        s.schedule_evictions,
                        s.msgs_sent,
                        s.msgs_recv,
                    ]
                });
                for (rank, got) in run.results.iter().enumerate() {
                    if let Some(want) = want(mode, rank) {
                        assert_eq!(*got, want, "split={split} {mode:?} rank {rank}");
                    }
                }
            }
        }
    }

    #[test]
    fn cold_then_warm_trips() {
        across_the_lattice(
            3,
            &[0, 1, 2],
            |m, proc, split, _| {
                for _ in 0..3 {
                    // Interior work is offered exactly when messages fly:
                    // every member knows its schedule on every trip here.
                    assert_eq!(m.trip(proc), split);
                }
            },
            // A ring trip moves one value message per member. A replay
            // sends its vote header to *both* peers, values fused in.
            |mode, _| {
                Some(match mode {
                    NoCache => [3, 0, 0, 0, 0, 3, 3],
                    Replay => [1, 2, 2, 0, 0, 5, 5],
                })
            },
        );
    }

    #[test]
    fn one_members_eviction_rolls_everyone_back_exactly_once() {
        across_the_lattice(
            3,
            &[0, 1, 2],
            |m, proc, split, mode| {
                let me = proc.rank();
                if me == 1 && mode == Replay {
                    m.cache = Some(ScheduleCache::with_budget(8, 1));
                }
                m.trip(proc);
                if let (1, Replay, Some(cache)) = (me, mode, &mut m.cache) {
                    // A *non-collective* store — LRU order diverging
                    // under memory pressure — evicts rank 1's entry; its
                    // tombstone keeps the gate up, so rank 1 still votes.
                    let intruder = Key {
                        team: vec![1],
                        generation: 0,
                    };
                    cache.store(intruder, ring_schedule(0, 1));
                }
                // Rank 1 misses; ranks 0 and 2 hit locally but lose the
                // vote, and are offered their interior while the doomed
                // messages fly.
                assert_eq!(m.trip(proc), split && (mode == NoCache || me != 1));
                // Rebuilt and stored collectively: warm again.
                assert_eq!(m.trip(proc), split);
            },
            |mode, rank| {
                // Rank 1 evicted twice: the site's entry, then — storing
                // the rebuild under a budget of one — the intruder.
                let ev = if rank == 1 { 2 } else { 0 };
                match mode {
                    NoCache => Some([3, 0, 0, 0, 0, 3, 3]),
                    // Lost vote: header round wasted, one rollback each,
                    // one blocking round for the rebuild.
                    Replay => Some([2, 1, 1, 1, ev, 6, 6]),
                }
            },
        );
    }

    #[test]
    fn a_member_sitting_out_keeps_the_cache_discipline_and_sends_nothing() {
        // Ranks 0 and 1 exchange; rank 2 belongs to the site's team (it
        // builds and stores with them) but sits out.
        across_the_lattice(
            3,
            &[0, 1],
            |m, proc, split, _| {
                for _ in 0..3 {
                    assert_eq!(m.trip(proc), split && proc.rank() != 2);
                }
                // A uniform key change (a redistribution): every member
                // misses, the member sitting out included.
                m.generation = 1;
                m.trip(proc);
                m.trip(proc);
            },
            // Two exchanging members: every round is one message each.
            |mode, rank| {
                let msgs = |n| if rank == 2 { 0 } else { n };
                Some(match mode {
                    NoCache => [5, 0, 0, 0, 0, msgs(5), msgs(5)],
                    Replay => [2, 3, 3, 1, 0, msgs(6), msgs(6)],
                })
            },
        );
    }

    /// The verdict is final at `begin` for a fresh build and a singleton
    /// team's hit; a hit among three members waits for its peers'
    /// ballots.
    #[test]
    fn the_verdict_is_final_at_begin_unless_peers_still_vote() {
        let rings: [(usize, &'static [usize]); 2] = [(3, &[0, 1, 2]), (1, &[0])];
        for (p, ring) in rings {
            let script = |m: &mut Member, proc: &mut Proc, _: bool, mode: Mode| {
                m.trip(proc);
                m.trip(proc);
                let shared_hit = mode == Replay && m.ring.len() > 1;
                assert_eq!(m.decided, [true, !shared_hit], "{mode:?}");
            };
            across_the_lattice(p, ring, script, |_, _| None);
        }
    }

    #[test]
    fn a_singleton_team_decides_alone_without_messages() {
        across_the_lattice(
            1,
            &[0],
            |m, proc, _, _| {
                m.trip(proc);
                m.trip(proc);
                m.generation = 1;
                m.trip(proc);
            },
            |mode, _| {
                Some(match mode {
                    NoCache => [3, 0, 0, 0, 0, 0, 0],
                    Replay => [2, 1, 1, 1, 0, 0, 0],
                })
            },
        );
    }
}
