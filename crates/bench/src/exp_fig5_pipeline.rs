//! Figure 5 + Listing 6: the shuffle/unshuffle mapping and the pipelined
//! multi-system solver. Prints the level→processor mapping (disjoint level
//! sets) and measures how pipelining `m` systems improves utilization and
//! completion time over `m` back-to-back solves — the paper's stated reason
//! for this mapping.

use kali_grid::{Dist1, ProcGrid};
use kali_kernels::mtrix::{mtrix, TriLocal};
use kali_kernels::tri_dist::{level_set, tri_dist};
use kali_kernels::TriDiag;
use kali_machine::Machine;
use kali_runtime::Ctx;

use crate::{cfg, fmt_s, Table};

const P: usize = 8;

/// The Figure 5 mapping for p processors: the processors that reduce at
/// each level 1..=log2(p).
fn level_sets(p: usize) -> Vec<Vec<usize>> {
    let k = p.trailing_zeros() as usize;
    (1..=k).map(|s| level_set(p, s).collect()).collect()
}

/// The Figure 5 mapping diagram.
fn mapping_diagram(p: usize, levels: &[Vec<usize>]) -> String {
    let mut out = String::new();
    out.push_str("step \\ processor  ");
    for ip in 0..p {
        out.push_str(&format!("{:>3}", ip + 1));
    }
    out.push('\n');
    for (s, set) in levels.iter().enumerate() {
        out.push_str(&format!("reduce level {:>2}   ", s + 1));
        for ip in 0..p {
            out.push_str(if set.contains(&ip) { "  R" } else { "  ." });
        }
        out.push('\n');
    }
    out
}

/// `m` systems solved back to back vs pipelined through `mtrix`.
struct Batch {
    m: usize,
    serial: f64,
    piped: f64,
    util_serial: f64,
    util_piped: f64,
}

impl Batch {
    fn speedup(&self) -> f64 {
        self.serial / self.piped
    }
}

fn measure() -> Vec<Batch> {
    let p = P;
    let n = 2048;
    let mut rows = Vec::new();
    for m in [1usize, 4, 16, 64] {
        let sys: Vec<TriDiag> = (0..m)
            .map(|j| TriDiag::random_dd(n, j as u64 + 1))
            .collect();
        let fs: Vec<Vec<f64>> = sys.iter().map(|s| s.apply(&vec![1.0; n])).collect();
        let serial = {
            let (sys, fs) = (sys.clone(), fs.clone());
            Machine::run(cfg(p), move |proc| {
                let grid = ProcGrid::new_1d(proc.nprocs());
                let dist = Dist1::block(n, proc.nprocs());
                let me = proc.rank();
                let (lo, hi) = (dist.lower(me).unwrap(), dist.upper(me).unwrap() + 1);
                let mut ctx = Ctx::new(proc, grid);
                for j in 0..m {
                    tri_dist(
                        &mut ctx,
                        n,
                        &sys[j].b[lo..hi],
                        &sys[j].a[lo..hi],
                        &sys[j].c[lo..hi],
                        &fs[j][lo..hi],
                    );
                }
            })
        };
        let piped = {
            let (sys, fs) = (sys.clone(), fs.clone());
            Machine::run(cfg(p), move |proc| {
                let grid = ProcGrid::new_1d(proc.nprocs());
                let dist = Dist1::block(n, proc.nprocs());
                let me = proc.rank();
                let (lo, hi) = (dist.lower(me).unwrap(), dist.upper(me).unwrap() + 1);
                let locals: Vec<TriLocal> = (0..m)
                    .map(|j| TriLocal {
                        b: sys[j].b[lo..hi].to_vec(),
                        a: sys[j].a[lo..hi].to_vec(),
                        c: sys[j].c[lo..hi].to_vec(),
                        f: fs[j][lo..hi].to_vec(),
                    })
                    .collect();
                let mut ctx = Ctx::new(proc, grid);
                mtrix(&mut ctx, n, locals);
            })
        };
        rows.push(Batch {
            m,
            serial: serial.report.elapsed,
            piped: piped.report.elapsed,
            util_serial: serial.report.utilization(),
            util_piped: piped.report.utilization(),
        });
    }
    rows
}

fn render(rows: &[Batch]) -> String {
    let mut out = format!(
        "=== Figure 5: shuffle/unshuffle mapping (p = {P}) ===\n\n{}\n\
         Level sets are disjoint, so with multiple systems in flight every\n\
         level works on a different system in the same step (Listing 6).\n\n",
        mapping_diagram(P, &level_sets(P))
    );
    let mut t = Table::new(&[
        "m systems",
        "serial (m × tri)",
        "pipelined (mtrix)",
        "speedup",
        "util serial",
        "util piped",
    ]);
    for r in rows {
        t.row(vec![
            r.m.to_string(),
            fmt_s(r.serial),
            fmt_s(r.piped),
            format!("{:.2}x", r.speedup()),
            format!("{:.1}%", 100.0 * r.util_serial),
            format!("{:.1}%", 100.0 * r.util_piped),
        ]);
    }
    out.push_str(&t.render());
    out
}

pub fn run() -> String {
    render(&measure())
}

#[cfg(test)]
mod tests {
    #[test]
    fn pipelining_wins_for_many_systems() {
        let rows = super::measure();
        let m64 = rows.iter().find(|r| r.m == 64).unwrap();
        assert!(m64.speedup() > 1.0, "{}", super::render(&rows));
    }

    #[test]
    fn diagram_shows_disjoint_levels() {
        let levels = super::level_sets(8);
        assert_eq!(levels.len(), 3);
        // Each processor column carries at most one R.
        for ip in 0..8 {
            let marks = levels.iter().filter(|set| set.contains(&ip)).count();
            assert!(marks <= 1, "processor {ip} reduces at {marks} levels");
        }
        let d = super::mapping_diagram(8, &levels);
        assert!(d.contains("reduce level  1"));
    }
}
