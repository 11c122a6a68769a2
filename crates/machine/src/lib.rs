//! # kali-machine — a distributed-memory machine with two price lists
//!
//! This crate models the "loosely coupled architecture" assumed by
//! Mehrotra & Van Rosendale (ICASE 89-41, 1989): a collection of processors,
//! each with private memory, interacting only through message passing.
//!
//! Every processor runs as an OS thread executing the same SPMD closure
//! (see [`Machine::run`]) and charges every step through one arithmetic.
//! What *time* means during that run is the price list that arithmetic
//! reads — the [`backend`] module — selected by data when the machine is
//! built ([`Machine::build`], [`BackendKind`]):
//!
//! * [`BackendKind::Sim`] (the default): the deterministic virtual-time
//!   simulator, charging the machine's [`CostModel`] as described below;
//! * [`BackendKind::Threads`]: the same threads, channels, matching
//!   protocol and charges at every price zero, so the clocks stay at 0.0
//!   and the run is timed by the wall clock only
//!   ([`RunReport::wall_seconds`]).
//!
//! On the simulator, a processor owns a scalar *virtual clock*:
//!
//! * local computation advances it explicitly via [`Proc::compute`] /
//!   [`Proc::memop`] using the per-flop / per-word costs in [`CostModel`];
//! * [`Proc::send`] stamps the message with its arrival time
//!   `clock + α + β·words + hop·distance`;
//! * [`Proc::recv`] raises the receiver's clock to `max(clock, arrival)`,
//!   accounting the difference as *idle* (wait) time;
//! * the split-phase pair [`Proc::irecv`] / [`Proc::wait`] (with
//!   [`Proc::isend`]) charges only the receive
//!   overhead up front, letting message transit overlap subsequent
//!   [`Proc::compute`] charges: idle is incurred only if the wait
//!   actually blocks in virtual time, and the covered transit is
//!   reported as [`ProcStats::overlap_hidden`]. Receives match messages
//!   in posting order per `(source, tag)` (MPI semantics), so
//!   out-of-order waits cannot mis-pair payloads.
//!
//! Message matching is by `(source, tag)` with per-pair FIFO order **on both
//! backends**, so payload pairing — and with it every numerical result and
//! traffic counter — is bit-for-bit deterministic regardless of OS
//! scheduling; on the simulator the virtual timeline is exact too, and
//! reports can be asserted exactly in tests.
//!
//! Collective operations ([`collective`]) are built *on top of* point-to-point
//! send/recv (binomial trees, dissemination barrier), so they cost virtual
//! time exactly as a 1989 message-passing library would.
//!
//! The defaults in [`CostModel::ipsc2`] approximate an Intel iPSC/2-class
//! hypercube node, the hardware contemporary with the paper.

pub mod backend;
mod cost;
mod elem;
mod machine;
mod proc;
mod report;
mod topology;
mod wire;

pub mod collective;

pub use backend::BackendKind;
pub use cost::CostModel;
pub use elem::{Elem, Real};
pub use machine::{Machine, MachineBuilder, MachineConfig, MachineRun};
pub use proc::{PendingRecv, Proc, ProcStats, Team};
pub use report::{ProcReport, RunReport};
pub use topology::Topology;
pub use wire::Wire;

/// Tags are plain `u64`s. Library code composes them with [`tag`].
pub type Tag = u64;

/// Compose a tag from a 16-bit namespace and a 48-bit payload.
///
/// Namespaces keep unrelated protocols (user code, collectives, array
/// exchange, interpreter traffic) from ever matching each other's messages.
#[inline]
pub const fn tag(namespace: u16, value: u64) -> Tag {
    ((namespace as u64) << 48) | (value & 0x0000_ffff_ffff_ffff)
}

/// Namespace used by the collective implementations in this crate.
pub const NS_COLLECTIVE: u16 = 0xC011;
/// Namespace reserved for `kali-array` halo/redistribution traffic.
pub const NS_ARRAY: u16 = 0xA55A;
/// Namespace reserved for `kali-kernels` solvers.
pub const NS_KERNEL: u16 = 0x5E1F;
/// Namespace reserved for the `kali-lang` interpreter.
pub const NS_LANG: u16 = 0x1A26;
/// Namespace for application-level messages.
pub const NS_USER: u16 = 0x0001;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_namespaces_do_not_collide() {
        assert_ne!(tag(NS_COLLECTIVE, 7), tag(NS_ARRAY, 7));
        assert_ne!(tag(NS_USER, 0), tag(NS_KERNEL, 0));
        assert_eq!(tag(NS_USER, 3) & 0xffff_ffff_ffff, 3);
    }

    #[test]
    fn tag_truncates_payload_to_48_bits() {
        assert_eq!(tag(0, u64::MAX) >> 48, 0);
        assert_eq!(tag(0xffff, 0) >> 48, 0xffff);
    }
}
