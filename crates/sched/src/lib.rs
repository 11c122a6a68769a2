//! # kali-sched — the shared inspector–executor scheduling engine
//!
//! The paper's central runtime idea is the *inspector/executor* split:
//! analyze a tensor-product loop's communication once, then replay a fused
//! schedule on every later trip. This crate owns that subsystem as
//! first-class, consumer-neutral data and protocols, so the KF1
//! interpreter (`kali-lang`) and the compiled path (`kali-array` /
//! `kali-runtime`) drive one engine instead of two divergent copies:
//!
//! * [`CommSchedule`] / [`ArraySchedule`] — the distilled output of an
//!   inspection: per communicating array, the flat element indices this
//!   processor requests of each peer and the indices each peer will
//!   request of it, plus the interior/boundary partition of the local
//!   iteration set. A schedule is plain data: the interpreter builds one
//!   from an inspector pass over a `doall` body; the distributed-array
//!   halo builds one *analytically* from ghost geometry. Both replay it
//!   through the same executor.
//! * [`ScheduleCache`] — schedules cached under consumer-defined keys
//!   ([`SiteKey`]), with the per-`(site, team)` fresh-construction
//!   ordinals the replay consensus compares.
//! * [`Trip`] / [`InFlight`] — **the replay trip, written once**: gate →
//!   lookup → vote → post → *caller's interior work* → complete →
//!   scatter, or rollback → rebuild → store, with every replay / hit /
//!   rollback / eviction counter. A consumer hands the driver data — a
//!   [`SiteKey`], the team, whether it sits the exchange out, a `build`
//!   closure, a [`ScheduleWorld`] — and calls [`Trip::begin`] and
//!   [`InFlight::finish`] (or [`InFlight::complete`], with nothing left
//!   to overlap) around its interior work. The driver alone decides
//!   replay: only with a cache, a key and [`ExecPolicy::optimistic`],
//!   its vote a header on the value messages; [`ExecPolicy::split`]
//!   selects blocking vs split-phase posting. The halo, the sparse
//!   gather and the interpreter's `doall` are three (key, builder,
//!   world) triples over this one driver.
//! * [`ScheduleExecutor`] — the primitives the driver is built from: the
//!   fused per-peer value messages, blocking or posted nonblocking, plain
//!   or carrying the vote as a one-word header (**optimistic replay**);
//!   the scatter; and the cold inspection's request round. Storage access
//!   is abstracted behind [`ScheduleWorld`], which the interpreter's
//!   `ArrObj` world, `kali-array`'s `DistArrayN` world and the sparse
//!   gather's haul world implement. Consumers call the driver, not these.
//! * [`SplitBox2`] / [`SplitRange1`] — the interior/boundary partitions
//!   of owned iteration boxes shared by the compiled `doall` forms.
//! * [`ExecPolicy`] — the execution-strategy datum (split-phase?
//!   optimistic replay?) shared by every consumer of this engine: the
//!   interpreter's run options and the compiled path's plan policy are
//!   the same type, so the strategy lattice cannot fork.
//!
//! Treating communication schedules as shared algebraic objects follows
//! the reusable-communication view of sparse/tensor runtime systems; in
//! this repository it means optimistic replay, split-phase cold
//! inspection, rollback, and corner-completing halos are each built once.

mod cache;
mod exec;
mod policy;
mod schedule;
mod split;
mod trip;
pub mod vote;

pub use cache::{ScheduleCache, SiteKey};
pub use exec::{PendingValues, PendingVote, ScheduleExecutor, ScheduleWorld, VoteOutcome, NO_VOTE};
pub use policy::ExecPolicy;
pub use schedule::{interior_positions, interior_runs, ArraySchedule, CommSchedule};
pub use split::{Box2, SplitBox2, SplitRange1};
pub use trip::{Finished, InFlight, Trip, TripHost};
