//! Gather and redistribution.

use kali_grid::DistSpec;
use kali_machine::{collective, Proc, Wire};

use crate::arrays::{cartesian, DistArrayN, Elem};

/// Sorted-set intersection of two increasing index lists.
fn intersect(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

impl<T: Elem + Wire, const N: usize> DistArrayN<T, N> {
    /// Gather the whole array (row-major) to the grid's first processor.
    /// Every grid member must call; returns `Some(global)` on the root.
    pub fn gather_to_root(&self, proc: &mut Proc) -> Option<Vec<T>> {
        if !self.in_grid() {
            return None;
        }
        let team = self.grid().team();
        let mut mine = Vec::new();
        self.for_each_owned(|_, v| mine.push(v));
        proc.memop(mine.len() as f64);
        let pieces = collective::gather(proc, &team, 0, mine)?;
        // Root: place every member's piece.
        let total: usize = self.extents.iter().product();
        let mut global = vec![T::default(); total];
        for (m, piece) in pieces.into_iter().enumerate() {
            let lists = self.owned_lists(team.rank(m));
            let mut pos = 0;
            cartesian(&lists, |idx| {
                let mut flat = 0;
                for d in 0..N {
                    flat = flat * self.extents[d] + idx[d];
                }
                global[flat] = piece[pos];
                pos += 1;
            });
            assert_eq!(pos, piece.len(), "gather piece size mismatch");
        }
        proc.memop(total as f64);
        Some(global)
    }

    /// Change the distribution clause at run time, returning a new array
    /// holding the same global values under `new_spec`. All grid members
    /// must call. This is the operation behind the paper's claim that
    /// trying a different distribution is a declaration-level change.
    pub fn redistribute(
        &self,
        proc: &mut Proc,
        new_spec: &DistSpec,
        new_ghost: [usize; N],
    ) -> DistArrayN<T, N> {
        let mut out =
            DistArrayN::<T, N>::new(self.rank, self.grid(), new_spec, self.extents, new_ghost);
        // The result is a new layout of the same array lineage: its
        // distribution generation strictly supersedes the source's, so any
        // schedule cached against the old generation is invalidated.
        out.generation = self.generation + 1;
        if !self.in_grid() {
            return out;
        }
        let team = self.grid().team();
        let q = team.len();

        let my_old: [Vec<usize>; N] = std::array::from_fn(|d| self.owned_indices(d));
        let my_new: [Vec<usize>; N] = std::array::from_fn(|d| out.owned_indices(d));

        // Pack one payload per destination member.
        let mut sends: Vec<Vec<T>> = Vec::with_capacity(q);
        for m in 0..q {
            let dest_new = out.owned_lists(team.rank(m));
            let inter: [Vec<usize>; N] =
                std::array::from_fn(|d| intersect(&my_old[d], &dest_new[d]));
            let mut payload = Vec::new();
            cartesian(&inter, |idx| {
                payload.push(self.data[self.storage_index_owned(idx)]);
            });
            proc.memop(payload.len() as f64);
            sends.push(payload);
        }

        let recvd = collective::alltoallv(proc, &team, sends);

        // Unpack from every source member, in the same deterministic order.
        for (m, payload) in recvd.into_iter().enumerate() {
            let src_old = self.owned_lists(team.rank(m));
            let inter: [Vec<usize>; N] =
                std::array::from_fn(|d| intersect(&src_old[d], &my_new[d]));
            let mut pos = 0;
            cartesian(&inter, |idx| {
                let s = out.storage_index_owned(idx);
                out.data[s] = payload[pos];
                pos += 1;
            });
            assert_eq!(pos, payload.len(), "redistribute payload mismatch");
            proc.memop(pos as f64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistArray1, DistArray2};
    use kali_grid::ProcGrid;
    use kali_machine::{CostModel, Machine, MachineConfig};
    use std::time::Duration;

    fn cfg(p: usize) -> MachineConfig {
        MachineConfig::new(p)
            .with_cost(CostModel::unit())
            .with_watchdog(Duration::from_secs(10))
    }

    #[test]
    fn intersect_sorted_lists() {
        assert_eq!(intersect(&[1, 3, 5, 7], &[2, 3, 4, 7, 9]), vec![3, 7]);
        assert_eq!(intersect(&[], &[1]), Vec::<usize>::new());
        assert_eq!(intersect(&[1, 2], &[1, 2]), vec![1, 2]);
    }

    #[test]
    fn gather_reconstructs_global_array() {
        let run = Machine::run(cfg(4), |proc| {
            let g = ProcGrid::new_2d(2, 2);
            let spec = kali_grid::DistSpec::block2();
            let a = DistArray2::from_fn(proc.rank(), &g, &spec, [6, 6], [0, 0], |[i, j]| {
                (i * 6 + j) as f64
            });
            a.gather_to_root(proc)
        });
        let global = run.results[0].as_ref().expect("root gets the array");
        let expect: Vec<f64> = (0..36).map(|k| k as f64).collect();
        assert_eq!(global, &expect);
        assert!(run.results[1].is_none());
    }

    #[test]
    fn gather_handles_cyclic() {
        let run = Machine::run(cfg(3), |proc| {
            let g = ProcGrid::new_1d(3);
            let spec = kali_grid::DistSpec::parse("(cyclic)").unwrap();
            let a = DistArray1::from_fn(proc.rank(), &g, &spec, [10], [0], |[i]| i as f64);
            a.gather_to_root(proc)
        });
        let global = run.results[0].as_ref().unwrap();
        assert_eq!(global, &(0..10).map(|k| k as f64).collect::<Vec<_>>());
    }

    #[test]
    fn redistribute_transposes_block_layouts() {
        // (block, *) -> (*, block): the ADI direction switch.
        let run = Machine::run(cfg(4), |proc| {
            let g = ProcGrid::new_1d(4);
            let spec = kali_grid::DistSpec::block_local();
            let a = DistArray2::from_fn(proc.rank(), &g, &spec, [8, 8], [0, 0], |[i, j]| {
                (i * 8 + j) as f64
            });
            let b = a.redistribute(proc, &kali_grid::DistSpec::local_block(), [0, 0]);
            let ok = {
                let mut ok = true;
                b.for_each_owned(|[i, j], v| ok &= v == (i * 8 + j) as f64);
                ok
            };
            (ok, b.owned_range(1))
        });
        for (r, (ok, range)) in run.results.iter().enumerate() {
            assert!(ok, "rank {r} has wrong values after transpose");
            assert_eq!(*range, 2 * r..2 * r + 2);
        }
    }

    #[test]
    fn redistribute_block_to_cyclic_preserves_values() {
        let run = Machine::run(cfg(4), |proc| {
            let g = ProcGrid::new_1d(4);
            let a = DistArray1::from_fn(
                proc.rank(),
                &g,
                &kali_grid::DistSpec::block1(),
                [13],
                [0],
                |[i]| (i * i) as f64,
            );
            let b = a.redistribute(proc, &kali_grid::DistSpec::parse("(cyclic)").unwrap(), [0]);
            b.gather_to_root(proc)
        });
        let global = run.results[0].as_ref().unwrap();
        assert_eq!(global, &(0..13).map(|k| (k * k) as f64).collect::<Vec<_>>());
    }

    #[test]
    fn redistribute_bumps_the_distribution_generation() {
        let run = Machine::run(cfg(2), |proc| {
            let g = ProcGrid::new_1d(2);
            let a = DistArray1::from_fn(
                proc.rank(),
                &g,
                &kali_grid::DistSpec::block1(),
                [8],
                [0],
                |[i]| i as f64,
            );
            let b = a.redistribute(proc, &kali_grid::DistSpec::parse("(cyclic)").unwrap(), [0]);
            let c = b.redistribute(proc, &kali_grid::DistSpec::block1(), [0]);
            (a.generation(), b.generation(), c.generation())
        });
        assert!(run.results.iter().all(|&g| g == (0, 1, 2)));
    }

    #[test]
    fn redistribute_identity_is_cheap_locally() {
        let run = Machine::run(cfg(2), |proc| {
            let g = ProcGrid::new_1d(2);
            let a = DistArray1::from_fn(
                proc.rank(),
                &g,
                &kali_grid::DistSpec::block1(),
                [8],
                [0],
                |[i]| i as f64,
            );
            let b = a.redistribute(proc, &kali_grid::DistSpec::block1(), [0]);
            b.at(b.owned_range(0).start)
        });
        assert_eq!(run.results, vec![0.0, 4.0]);
    }
}
