//! Claim C1 (§2/§6): "the message passing version of a program is often
//! five to ten times longer than the sequential version", while KF1 stays
//! close to sequential length. Counted on this repository's own
//! implementations of the same algorithms.

use crate::Table;

/// Count non-blank, non-comment lines between `// LOC:BEGIN name` and
/// `// LOC:END name` markers.
fn marked_loc(src: &str, name: &str) -> usize {
    let begin = format!("LOC:BEGIN {name}");
    let end = format!("LOC:END {name}");
    let mut counting = false;
    let mut n = 0;
    for line in src.lines() {
        if line.contains(&begin) {
            counting = true;
            continue;
        }
        if line.contains(&end) {
            break;
        }
        if counting {
            let t = line.trim();
            if !t.is_empty() && !t.starts_with("//") && !t.starts_with("///") {
                n += 1;
            }
        }
    }
    n
}

/// Count non-blank, non-comment lines of a KF1 source.
fn kf1_loc(src: &str) -> usize {
    src.lines()
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with('c') && !t.starts_with('C') && !t.starts_with('!')
        })
        .count()
}

/// Count the lines of a named function in a Rust source (from `fn name`
/// to the matching closing brace).
fn fn_loc(src: &str, name: &str) -> usize {
    let pat = format!("fn {name}");
    let start = src.find(&pat).unwrap_or_else(|| panic!("no fn {name}"));
    let mut depth = 0i32;
    let mut n = 0;
    let mut started = false;
    for line in src[start..].lines() {
        let t = line.trim();
        if !t.is_empty() && !t.starts_with("//") {
            n += 1;
        }
        for ch in line.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    started = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if started && depth == 0 {
            break;
        }
    }
    n
}

/// Line counts of one algorithm in its three forms.
struct Loc {
    algorithm: &'static str,
    seq: usize,
    mp: usize,
    kf1: usize,
}

impl Loc {
    fn mp_ratio(&self) -> f64 {
        self.mp as f64 / self.seq as f64
    }

    fn kf1_ratio(&self) -> f64 {
        self.kf1 as f64 / self.seq as f64
    }
}

fn measure() -> Vec<Loc> {
    let mp_jacobi = include_str!("../../mp/src/jacobi_mp.rs");
    let mp_tri = include_str!("../../mp/src/tri_mp.rs");
    let seq_rs = include_str!("../../solvers/src/seq.rs");
    let tridiag_rs = include_str!("../../kernels/src/tridiag.rs");
    let kf1_jacobi = kali_lang::listing("jacobi").unwrap();
    let kf1_tri = kali_lang::listing("tri").unwrap();
    vec![
        Loc {
            algorithm: "Jacobi",
            seq: fn_loc(seq_rs, "jacobi_seq_step"),
            mp: marked_loc(mp_jacobi, "jacobi_mp"),
            kf1: kf1_loc(kf1_jacobi),
        },
        Loc {
            algorithm: "tridiagonal",
            seq: fn_loc(tridiag_rs, "thomas"),
            mp: marked_loc(mp_tri, "tri_mp"),
            kf1: kf1_loc(kf1_tri),
        },
    ]
}

fn render(rows: &[Loc]) -> String {
    let mut t = Table::new(&[
        "algorithm",
        "sequential",
        "message passing",
        "KF1",
        "MP/seq",
        "KF1/seq",
    ]);
    for r in rows {
        t.row(vec![
            r.algorithm.into(),
            r.seq.to_string(),
            r.mp.to_string(),
            r.kf1.to_string(),
            format!("{:.1}x", r.mp_ratio()),
            format!("{:.1}x", r.kf1_ratio()),
        ]);
    }
    format!(
        "=== Claim C1: lines of code (non-blank, non-comment) ===\n\n{}\n\
         Paper: \"the message passing version is often five to ten times\n\
         longer than the sequential version\"; KF1 stays close to sequential\n\
         (the KF1 tridiagonal routine is long because it contains the whole\n\
         divide-and-conquer algorithm, which Thomas does not).\n",
        t.render()
    )
}

pub fn run() -> String {
    render(&measure())
}

#[cfg(test)]
mod tests {
    #[test]
    fn mp_is_many_times_longer_than_sequential() {
        let rows = super::measure();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.mp_ratio() >= 3.0,
                "MP {} should be several times longer than sequential: {}",
                r.algorithm,
                r.mp_ratio()
            );
            assert!(
                r.kf1 < r.mp,
                "KF1 {} should be shorter than MP: {} vs {}",
                r.algorithm,
                r.kf1,
                r.mp
            );
        }
    }
}
