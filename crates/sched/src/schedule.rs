//! Communication schedules: the inspector's distilled output, as shared,
//! consumer-neutral data.

use std::ops::Range;
use std::rc::Rc;

/// The communication plan for one site invocation: for each participating
/// array, the flat indices this processor must request from each team
/// member and the flat indices each member will request of it. With both
/// directions recorded, a later invocation can run the value exchange
/// directly — no inspector pass, no request round — and both sides agree
/// on which peer pairs exchange no message at all.
#[derive(Debug, PartialEq)]
pub struct CommSchedule {
    pub arrays: Vec<ArraySchedule>,
    /// Buffered-write count observed when the schedule was built;
    /// pre-sizes a copy-out buffer on replay. Consumers without
    /// copy-in/copy-out semantics leave it 0.
    pub write_hint: usize,
    /// Positions (into the invocation's local iteration set, ascending) of
    /// the *boundary* iterations — those that read at least one remote
    /// element. Everything else is *interior* and can execute while the
    /// replayed exchange is still in flight. Consumers whose iteration
    /// split lives elsewhere (e.g. the ghost halo) leave it empty.
    pub boundary: Vec<usize>,
}

/// One array's slice of a [`CommSchedule`].
#[derive(Debug, PartialEq)]
pub struct ArraySchedule {
    /// Consumer-meaning name of the array. The interpreter resolves it
    /// against the current frame on replay (so a schedule built in one
    /// call frame replays in a structurally identical later frame); the
    /// halo uses a fixed label. The cache therefore holds no storage
    /// references and cannot leak dead arrays.
    pub name: String,
    /// Per team member: flat indices this processor requests.
    pub my_reqs: Vec<Vec<u64>>,
    /// Per team member: flat indices they request of us (the reply layout
    /// of the value round).
    pub incoming: Vec<Vec<u64>>,
    /// Flat index of the array region's origin (fixed view coordinates at
    /// their values, ranged dimensions at their lower bounds) when the
    /// schedule was built. A consumer whose cache key identifies regions
    /// only up to translation (e.g. the interpreter's owner-normalized
    /// line views) replays by shifting every flat index by the delta
    /// between the current region's origin and this one. Consumers whose
    /// keys pin absolute geometry leave it 0.
    pub origin: u64,
}

impl CommSchedule {
    /// Total words this processor will receive on a replay (the
    /// `exchange_words` accounting unit).
    pub fn words_expected(&self) -> usize {
        self.arrays
            .iter()
            .map(|a| a.my_reqs.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Does this processor expect at least one value word from team
    /// member `d` on a replay?
    pub fn expects_from(&self, d: usize) -> bool {
        self.arrays.iter().any(|a| !a.my_reqs[d].is_empty())
    }

    /// This schedule shifted onto array regions starting at `origins`
    /// (one flat index per array, in schedule order). A cache key that
    /// identifies regions only up to translation may hit a schedule built
    /// for a different region of the same shape — another line of the
    /// same row/column team, say: the key match proves the communication
    /// pattern identical *up to translation*, and the exact shift per
    /// array is the delta between the current origin and
    /// [`ArraySchedule::origin`]. Returns the schedule itself (shared)
    /// when no index would move: every delta is zero, or every array
    /// whose origin moved has no traffic — the warm trips of a singleton
    /// team and of lines that exchange nothing. (An array without traffic
    /// keeps its old `origin` then: there is nothing for it to place.)
    pub fn translated(self: &Rc<Self>, origins: &[u64]) -> Rc<CommSchedule> {
        debug_assert_eq!(origins.len(), self.arrays.len());
        let moves = |(a, &o): (&ArraySchedule, &u64)| {
            a.origin != o && a.my_reqs.iter().chain(&a.incoming).any(|v| !v.is_empty())
        };
        if !self.arrays.iter().zip(origins).any(moves) {
            return Rc::clone(self);
        }
        let shift =
            |v: &[u64], d: i64| -> Vec<u64> { v.iter().map(|&f| (f as i64 + d) as u64).collect() };
        let arrays = self
            .arrays
            .iter()
            .zip(origins)
            .map(|(a, &origin)| {
                let d = origin as i64 - a.origin as i64;
                ArraySchedule {
                    name: a.name.clone(),
                    my_reqs: a.my_reqs.iter().map(|v| shift(v, d)).collect(),
                    incoming: a.incoming.iter().map(|v| shift(v, d)).collect(),
                    origin,
                }
            })
            .collect();
        Rc::new(CommSchedule {
            arrays,
            write_hint: self.write_hint,
            boundary: self.boundary.clone(),
        })
    }
}

/// Complement of a sorted `boundary` position list within `0..n`: the
/// interior positions, ascending.
pub fn interior_positions(boundary: &[usize], n: usize) -> Vec<usize> {
    let mut bi = 0usize;
    let mut interior = Vec::with_capacity(n - boundary.len());
    for pos in 0..n {
        if bi < boundary.len() && boundary[bi] == pos {
            bi += 1;
        } else {
            interior.push(pos);
        }
    }
    interior
}

/// [`interior_positions`] as maximal runs, ascending, without the list:
/// the complement of a sorted `boundary` within `0..n`, one range per
/// gap. A row kernel that takes ranges walks the interior through this
/// and never materialises `n` positions.
pub fn interior_runs(boundary: &[usize], n: usize) -> impl Iterator<Item = Range<usize>> + '_ {
    let starts = std::iter::once(0).chain(boundary.iter().map(|&b| b + 1));
    let ends = boundary.iter().copied().chain(std::iter::once(n));
    starts
        .zip(ends)
        .map(|(s, e)| s..e)
        .filter(|r| !r.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Empty, full, leading, trailing and adjacent boundary entries.
    #[test]
    fn interior_runs_flatten_to_interior_positions() {
        let cases: [(&[usize], usize); 8] = [
            (&[], 0),
            (&[], 4),
            (&[0, 1, 2], 3),
            (&[0], 5),
            (&[4], 5),
            (&[1, 2, 3], 6),
            (&[0, 1, 4, 6, 7], 8),
            (&[1, 3], 5),
        ];
        for (boundary, n) in cases {
            let runs: Vec<Range<usize>> = interior_runs(boundary, n).collect();
            assert!(runs.iter().all(|r| !r.is_empty()), "{boundary:?} in 0..{n}");
            let flat: Vec<usize> = runs.into_iter().flatten().collect();
            assert_eq!(
                flat,
                interior_positions(boundary, n),
                "{boundary:?} in 0..{n}"
            );
        }
    }

    #[test]
    fn interior_is_the_complement_of_boundary() {
        assert_eq!(interior_positions(&[1, 3], 5), vec![0, 2, 4]);
        assert_eq!(interior_positions(&[], 3), vec![0, 1, 2]);
        assert_eq!(interior_positions(&[0, 1, 2], 3), Vec::<usize>::new());
    }

    #[test]
    fn words_and_peer_expectations() {
        let s = CommSchedule {
            arrays: vec![ArraySchedule {
                name: "x".into(),
                my_reqs: vec![vec![], vec![3, 4], vec![7]],
                incoming: vec![vec![], vec![1], vec![]],
                origin: 0,
            }],
            write_hint: 0,
            boundary: vec![],
        };
        assert_eq!(s.words_expected(), 3);
        assert!(!s.expects_from(0));
        assert!(s.expects_from(1));
        assert!(s.expects_from(2));
    }

    #[test]
    fn translation_shifts_every_index_by_the_origin_delta() {
        let s = Rc::new(CommSchedule {
            arrays: vec![ArraySchedule {
                name: "x".into(),
                my_reqs: vec![vec![], vec![13, 14]],
                incoming: vec![vec![11], vec![]],
                origin: 10,
            }],
            write_hint: 2,
            boundary: vec![1],
        });
        // Same origin: the very same schedule, shared.
        assert!(Rc::ptr_eq(&s.translated(&[10]), &s));
        let t = s.translated(&[4]);
        assert_eq!(t.arrays[0].my_reqs, vec![vec![], vec![7, 8]]);
        assert_eq!(t.arrays[0].incoming, vec![vec![5], vec![]]);
        assert_eq!(t.arrays[0].origin, 4);
        assert_eq!((t.write_hint, &t.boundary), (2, &vec![1]));
    }

    /// An origin that moves without traffic shifts nothing, so nothing is
    /// copied; one array with traffic still shifts (every array alike).
    #[test]
    fn translation_without_traffic_shares_the_schedule() {
        let array = |origin, my_reqs: Vec<Vec<u64>>| ArraySchedule {
            name: "x".into(),
            incoming: vec![vec![]; my_reqs.len()],
            my_reqs,
            origin,
        };
        let quiet = Rc::new(CommSchedule {
            arrays: vec![array(10, vec![vec![]]), array(20, vec![vec![]])],
            write_hint: 0,
            boundary: vec![],
        });
        assert!(Rc::ptr_eq(&quiet.translated(&[4, 30]), &quiet));
        let busy = Rc::new(CommSchedule {
            arrays: vec![
                array(10, vec![vec![], vec![11]]),
                array(20, vec![vec![]; 2]),
            ],
            write_hint: 0,
            boundary: vec![],
        });
        let t = busy.translated(&[4, 30]);
        assert!(!Rc::ptr_eq(&t, &busy));
        assert_eq!(t.arrays[0].my_reqs, vec![vec![], vec![5]]);
        assert_eq!((t.arrays[0].origin, t.arrays[1].origin), (4, 30));
        // Traffic on an array whose origin did not move shifts nothing.
        assert!(Rc::ptr_eq(&busy.translated(&[10, 30]), &busy));
    }
}
