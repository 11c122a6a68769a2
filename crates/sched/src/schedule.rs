//! Communication schedules: the inspector's distilled output, as shared,
//! consumer-neutral data.

use std::ops::Range;

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
    /// Consumer-meaning label of the array; flat indices are the
    /// consumer's to resolve against its current storage, so the cache
    /// holds no storage references and cannot leak dead arrays.
    pub name: String,
    /// Per team member: flat indices this processor requests.
    pub my_reqs: Vec<Vec<u64>>,
    /// Per team member: flat indices they request of us (the reply layout
    /// of the value round).
    pub incoming: Vec<Vec<u64>>,
    /// Unused: every consumer writes 0. A consumer whose key identifies
    /// regions only up to translation (the interpreter's line views)
    /// encodes flat indices relative to each region's origin instead, so
    /// nothing is shifted on replay. The field remains only because the
    /// benchmark's probes construct it; it goes with their next revision.
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
}
