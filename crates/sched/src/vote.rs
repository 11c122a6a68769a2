//! The dedicated replay vote, kept as a price.
//!
//! A replay decision must be *collective*: the request/reply protocol of a
//! schedule is team-wide, so every member must agree on the (single)
//! logical invocation being replayed. The trip driver ([`crate::Trip`])
//! reaches that agreement with **zero** extra rounds: each member posts
//! its fused value messages at once and carries its vote as a one-word
//! header on them ([`crate::ScheduleExecutor::post_optimistic`]); on
//! disagreement the payloads are discarded and the trip rolls back.
//!
//! [`consensus`] is the same agreement as a dedicated flat one-word
//! round *before* any value traffic. No trip runs it: it is the baseline
//! that prices what the piggybacked vote saves, one full message round of
//! start-up latency per warm trip.

use kali_machine::{collective, Proc, Team};

/// Dedicated team-wide agreement on the cached `(site, team)` ordinal to
/// replay: returns `Some(seq)` only when *every* member holds a matching
/// schedule from the same fresh construction. A flat one-word vote
/// exchange — no tree depth, so it costs one latency, not log q of them;
/// members with no local hit vote -1, which can never win.
pub fn consensus(proc: &mut Proc, team: &Team, local_seq: Option<u64>) -> Option<u64> {
    let mine = local_seq.map_or(-1.0, |e| e as f64);
    if team.len() > 1 {
        let votes = collective::alltoallv(proc, team, vec![mine; team.len()]);
        if votes.iter().any(|&v| v != mine) {
            return None;
        }
    }
    (mine >= 0.0).then_some(mine as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kali_machine::{CostModel, Machine, MachineConfig};
    use std::time::Duration;

    fn cfg(p: usize) -> MachineConfig {
        MachineConfig::new(p)
            .with_cost(CostModel::unit())
            .with_watchdog(Duration::from_secs(10))
    }

    #[test]
    fn unanimous_votes_win() {
        let run = Machine::run(cfg(4), |proc| {
            let team = Team::all(proc.nprocs());
            consensus(proc, &team, Some(3))
        });
        assert!(run.results.iter().all(|r| *r == Some(3)));
    }

    #[test]
    fn any_dissent_loses_everywhere() {
        let run = Machine::run(cfg(4), |proc| {
            let team = Team::all(proc.nprocs());
            let local = (proc.rank() != 2).then_some(3u64);
            consensus(proc, &team, local)
        });
        assert!(run.results.iter().all(|r| r.is_none()));
    }

    #[test]
    fn singleton_team_decides_locally() {
        let run = Machine::run(cfg(1), |proc| {
            let team = Team::all(1);
            (
                consensus(proc, &team, Some(5)),
                consensus(proc, &team, None),
            )
        });
        assert_eq!(run.results[0], (Some(5), None));
    }
}
