//! Collective operations built on point-to-point messages.
//!
//! These are the operations a KF1 compiler's runtime library would provide:
//! they execute over a [`Team`] (the machine-level image of a processor-array
//! slice) and cost virtual time exactly like the equivalent hand-written
//! message-passing code — binomial trees for broadcast/reduce, a
//! dissemination barrier, and direct exchanges for gather and all-to-all.
//!
//! All members of the team must call the same collective in the same order
//! (SPMD discipline); roots are identified by *team index*, not machine rank.

use crate::proc::{Proc, Team};
use crate::wire::Wire;
use crate::{tag, Tag, NS_COLLECTIVE};

const KIND_BARRIER: u64 = 1 << 40;
const KIND_BCAST: u64 = 2 << 40;
const KIND_REDUCE: u64 = 3 << 40;
const KIND_GATHER: u64 = 4 << 40;
const KIND_ALLTOALL: u64 = 6 << 40;

#[inline]
fn ctag(kind: u64, round: u64) -> Tag {
    tag(NS_COLLECTIVE, kind | round)
}

fn my_index(proc: &Proc, team: &Team) -> usize {
    team.index_of(proc.rank()).unwrap_or_else(|| {
        panic!(
            "proc {} called a collective on a team it does not belong to: {:?}",
            proc.rank(),
            team.ranks()
        )
    })
}

/// Dissemination barrier: ⌈log₂ q⌉ rounds, works for any team size.
pub fn barrier(proc: &mut Proc, team: &Team) {
    let q = team.len();
    if q == 1 {
        return;
    }
    let me = my_index(proc, team);
    let mut dist = 1usize;
    let mut round = 0u64;
    while dist < q {
        let to = team.rank((me + dist) % q);
        let from = team.rank((me + q - dist) % q); // dist < q in this loop
        proc.send(to, ctag(KIND_BARRIER, round), ());
        let () = proc.recv(from, ctag(KIND_BARRIER, round));
        dist *= 2;
        round += 1;
    }
}

/// Binomial-tree broadcast from team index `root`. The root passes
/// `Some(value)`; everyone receives the value.
pub fn broadcast<T: Wire + Clone>(
    proc: &mut Proc,
    team: &Team,
    root: usize,
    value: Option<T>,
) -> T {
    let q = team.len();
    let me = my_index(proc, team);
    let mut val = if me == root {
        Some(value.expect("broadcast root must supply Some(value)"))
    } else {
        value
    };
    if q == 1 {
        return val.expect("broadcast on singleton team");
    }
    let rel = (me + q - root) % q;
    // Receive phase: find the bit at which our subtree was reached.
    let mut mask = 1usize;
    while mask < q {
        if rel & mask != 0 {
            let src_rel = rel - mask;
            let src = team.rank((src_rel + root) % q);
            val = Some(proc.recv(src, ctag(KIND_BCAST, mask as u64)));
            break;
        }
        mask <<= 1;
    }
    // Forward phase: pass down to children.
    mask >>= 1;
    while mask > 0 {
        if rel + mask < q {
            let dst = team.rank((rel + mask + root) % q);
            proc.send(
                dst,
                ctag(KIND_BCAST, mask as u64),
                val.clone().expect("broadcast value present"),
            );
        }
        mask >>= 1;
    }
    val.expect("broadcast delivered to every member")
}

/// Binomial-tree reduction to team index `root` with a commutative combiner.
/// `flops_per_combine` is charged for each application of `combine`.
/// Returns `Some(result)` at the root, `None` elsewhere.
pub fn reduce<T, F>(
    proc: &mut Proc,
    team: &Team,
    root: usize,
    value: T,
    combine: F,
    flops_per_combine: f64,
) -> Option<T>
where
    T: Wire,
    F: Fn(T, T) -> T,
{
    let q = team.len();
    let me = my_index(proc, team);
    let rel = (me + q - root) % q;
    let mut acc = value;
    let mut mask = 1usize;
    while mask < q {
        if rel & mask != 0 {
            let dst_rel = rel - mask;
            let dst = team.rank((dst_rel + root) % q);
            proc.send(dst, ctag(KIND_REDUCE, mask as u64), acc);
            return None;
        }
        let partner_rel = rel | mask;
        if partner_rel < q {
            let src = team.rank((partner_rel + root) % q);
            let other: T = proc.recv(src, ctag(KIND_REDUCE, mask as u64));
            proc.compute(flops_per_combine);
            acc = combine(acc, other);
        }
        mask <<= 1;
    }
    Some(acc)
}

/// Reduce-to-all: reduction to team index 0 followed by a broadcast.
pub fn allreduce<T, F>(proc: &mut Proc, team: &Team, value: T, combine: F, flops: f64) -> T
where
    T: Wire + Clone,
    F: Fn(T, T) -> T,
{
    let partial = reduce(proc, team, 0, value, combine, flops);
    broadcast(proc, team, 0, partial)
}

/// Global sum of one `f64` per member.
pub fn allreduce_sum(proc: &mut Proc, team: &Team, value: f64) -> f64 {
    allreduce(proc, team, value, |a, b| a + b, 1.0)
}

/// Global max of one `f64` per member.
pub fn allreduce_max(proc: &mut Proc, team: &Team, value: f64) -> f64 {
    allreduce(proc, team, value, f64::max, 1.0)
}

/// Gather one value per member to team index `root` (team order).
/// Returns `Some(values)` at the root, `None` elsewhere.
pub fn gather<T: Wire>(proc: &mut Proc, team: &Team, root: usize, value: T) -> Option<Vec<T>> {
    let q = team.len();
    let me = my_index(proc, team);
    if me == root {
        let mut out: Vec<Option<T>> = Vec::with_capacity(q);
        out.resize_with(q, || None);
        out[root] = Some(value);
        for idx in 0..q {
            if idx != root {
                out[idx] = Some(proc.recv(team.rank(idx), ctag(KIND_GATHER, idx as u64)));
            }
        }
        Some(
            out.into_iter()
                .map(|v| v.expect("gather slot filled"))
                .collect(),
        )
    } else {
        proc.send(team.rank(root), ctag(KIND_GATHER, me as u64), value);
        None
    }
}

/// Personalized all-to-all: member `i` sends `sends[j]` to member `j` and
/// receives a vector indexed by source. Sends happen before any receive, so
/// the exchange cannot deadlock on unbounded channels.
pub fn alltoallv<T: Wire>(proc: &mut Proc, team: &Team, mut sends: Vec<T>) -> Vec<T> {
    let q = team.len();
    assert_eq!(sends.len(), q, "alltoallv needs one payload per member");
    let me = my_index(proc, team);
    // Keep our own slot; send the rest.
    let mut recvd: Vec<Option<T>> = Vec::with_capacity(q);
    recvd.resize_with(q, || None);
    for idx in (0..q).rev() {
        let v = sends.pop().expect("payload for every member");
        if idx == me {
            recvd[me] = Some(v);
        } else {
            proc.send(team.rank(idx), ctag(KIND_ALLTOALL, me as u64), v);
        }
    }
    for idx in 0..q {
        if idx != me {
            recvd[idx] = Some(proc.recv(team.rank(idx), ctag(KIND_ALLTOALL, idx as u64)));
        }
    }
    recvd
        .into_iter()
        .map(|v| v.expect("alltoallv slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, Machine, MachineConfig};
    use std::time::Duration;

    fn cfg(p: usize) -> MachineConfig {
        MachineConfig::new(p)
            .with_cost(CostModel::unit())
            .with_watchdog(Duration::from_secs(10))
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        for p in [1, 2, 3, 4, 7, 8] {
            let run = Machine::run(cfg(p), move |proc| {
                // Stagger the processors, then meet at a barrier.
                proc.compute(1000.0 * proc.rank() as f64);
                let team = Team::all(proc.nprocs());
                barrier(proc, &team);
                proc.clock()
            });
            let slowest_work = (p as f64 - 1.0) * 1.0;
            for &c in &run.results {
                assert!(
                    c >= slowest_work,
                    "p={p}: clock {c} below the slowest member's work {slowest_work}"
                );
            }
        }
    }

    #[test]
    fn broadcast_reaches_everyone_from_any_root() {
        for p in [1, 2, 3, 5, 8] {
            for root in [0, p - 1, p / 2] {
                let run = Machine::run(cfg(p), move |proc| {
                    let team = Team::all(proc.nprocs());
                    let me = proc.rank();
                    broadcast(
                        proc,
                        &team,
                        root,
                        (me == team.rank(root)).then_some(99.5f64),
                    )
                });
                assert!(run.results.iter().all(|&v| v == 99.5), "p={p} root={root}");
            }
        }
    }

    #[test]
    fn reduce_sums_every_member_once() {
        for p in [1, 2, 3, 6, 8] {
            let run = Machine::run(cfg(p), move |proc| {
                let team = Team::all(proc.nprocs());
                reduce(proc, &team, 0, proc.rank() as f64, |a, b| a + b, 1.0)
            });
            let expect = (p * (p - 1) / 2) as f64;
            assert_eq!(run.results[0], Some(expect), "p={p}");
            for r in 1..p {
                assert_eq!(run.results[r], None);
            }
        }
    }

    #[test]
    fn allreduce_agrees_everywhere() {
        let run = Machine::run(cfg(5), |proc| {
            let team = Team::all(proc.nprocs());
            allreduce_sum(proc, &team, 2.0)
        });
        assert!(run.results.iter().all(|&v| v == 10.0));
        let run = Machine::run(cfg(5), |proc| {
            let team = Team::all(proc.nprocs());
            allreduce_max(proc, &team, proc.rank() as f64)
        });
        assert!(run.results.iter().all(|&v| v == 4.0));
    }

    #[test]
    fn gather_orders_by_team_index() {
        let run = Machine::run(cfg(4), |proc| {
            let team = Team::all(proc.nprocs());
            gather(proc, &team, 2, proc.rank() as f64 * 10.0)
        });
        assert_eq!(run.results[2], Some(vec![0.0, 10.0, 20.0, 30.0]));
        assert_eq!(run.results[0], None);
    }

    #[test]
    fn alltoallv_transposes_the_exchange_matrix() {
        let run = Machine::run(cfg(3), |proc| {
            let team = Team::all(proc.nprocs());
            let me = proc.rank();
            let sends: Vec<f64> = (0..3).map(|j| (10 * me + j) as f64).collect();
            alltoallv(proc, &team, sends)
        });
        // result[i][j] must be sends[j][i]
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(run.results[i][j], (10 * j + i) as f64);
            }
        }
    }

    #[test]
    fn collectives_work_on_sub_teams() {
        // Two disjoint teams of 2 within a 4-proc machine, running
        // different collectives "concurrently".
        let run = Machine::run(cfg(4), |proc| {
            let me = proc.rank();
            let team = if me < 2 {
                Team::new(vec![0, 1])
            } else {
                Team::new(vec![2, 3])
            };
            allreduce_sum(proc, &team, me as f64)
        });
        assert_eq!(run.results, vec![1.0, 1.0, 5.0, 5.0]);
    }

    #[test]
    fn sub_team_with_nonmember_root_rank_mapping() {
        // Team of machine ranks [3, 1]; broadcast from team index 0 (rank 3).
        let run = Machine::run(cfg(4), |proc| {
            let me = proc.rank();
            if me == 1 || me == 3 {
                let team = Team::new(vec![3, 1]);
                Some(broadcast(proc, &team, 0, (me == 3).then_some(7.0f64)))
            } else {
                None
            }
        });
        assert_eq!(run.results[1], Some(7.0));
        assert_eq!(run.results[3], Some(7.0));
    }

    #[test]
    fn barrier_cost_scales_logarithmically() {
        // Virtual cost of a barrier should grow like ceil(log2 p) * alpha.
        let t2 = Machine::run(cfg(2), |proc| {
            let team = Team::all(proc.nprocs());
            barrier(proc, &team);
            proc.clock()
        });
        let t8 = Machine::run(cfg(8), |proc| {
            let team = Team::all(proc.nprocs());
            barrier(proc, &team);
            proc.clock()
        });
        let c2 = t2.results.iter().cloned().fold(0.0, f64::max);
        let c8 = t8.results.iter().cloned().fold(0.0, f64::max);
        assert!(c8 > c2);
        assert!(c8 <= 4.0 * c2, "barrier cost should be logarithmic");
    }
}
