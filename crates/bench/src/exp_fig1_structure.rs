//! Figures 1 and 2: structure of the substructuring elimination.
//!
//! Regenerates the sparsity diagrams: a block-distributed tridiagonal
//! matrix before and after the first reduction step (fill-in confined to
//! the block end columns; boundary rows forming a 2p tridiagonal system),
//! and the four-row reduction of the later steps.

use kali_kernels::substructure::{boundary_pair, reduce_block, reduced_pattern};
use kali_kernels::tridiag::{thomas, TriDiag};

const N: usize = 16;
const P: usize = 4;

/// (row, nonzero columns) sparsity pattern.
type Pattern = Vec<(usize, Vec<usize>)>;

/// What the two figures show, as data.
struct Structure {
    /// Figure 1, after local substructuring.
    after: Pattern,
    /// The block-boundary rows of `after` (two per processor).
    boundary_rows: Vec<usize>,
    /// Max error of the block-boundary values recovered by solving the
    /// 2p-equation boundary system of a random diagonally dominant matrix.
    boundary_err: f64,
    /// Figure 2, after the four-row reduction.
    four_after: Pattern,
}

fn pattern_to_ascii(n: usize, rows: &[(usize, Vec<usize>)], highlight: &[usize]) -> String {
    let mut out = String::new();
    for (r, cols) in rows {
        let mark = if highlight.contains(r) { '|' } else { ' ' };
        out.push(mark);
        for c in 0..n {
            out.push(if cols.contains(&c) { 'x' } else { '.' });
        }
        out.push(mark);
        out.push('\n');
    }
    out
}

fn measure() -> Structure {
    let (n, p) = (N, P);
    let mut after = Vec::new();
    let mut boundary_rows = Vec::new();
    for q in 0..p {
        let lo = q * n / p;
        let hi = (q + 1) * n / p - 1;
        boundary_rows.push(lo);
        boundary_rows.push(hi);
        for (i, cols) in reduced_pattern(lo, hi, n).into_iter().enumerate() {
            after.push((lo + i, cols));
        }
    }

    // Numeric verification on a random diagonally dominant system.
    let sys = TriDiag::random_dd(n, 42);
    let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
    let f = sys.apply(&x_true);
    let mut rb = Vec::new();
    let mut ra = Vec::new();
    let mut rc = Vec::new();
    let mut rf = Vec::new();
    for q in 0..p {
        let lo = q * n / p;
        let hi = (q + 1) * n / p - 1;
        let mut b = sys.b[lo..=hi].to_vec();
        let mut a = sys.a[lo..=hi].to_vec();
        let mut c = sys.c[lo..=hi].to_vec();
        let mut ff = f[lo..=hi].to_vec();
        reduce_block(&mut b, &mut a, &mut c, &mut ff);
        for pair in boundary_pair(&b, &a, &c, &ff) {
            rb.push(pair[0]);
            ra.push(pair[1]);
            rc.push(pair[2]);
            rf.push(pair[3]);
        }
    }
    rb[0] = 0.0;
    let last = rc.len() - 1;
    rc[last] = 0.0;
    let y = thomas(&rb, &ra, &rc, &rf);
    let mut boundary_err = 0.0f64;
    for q in 0..p {
        let lo = q * n / p;
        let hi = (q + 1) * n / p - 1;
        boundary_err = boundary_err.max((y[2 * q] - x_true[lo]).abs());
        boundary_err = boundary_err.max((y[2 * q + 1] - x_true[hi]).abs());
    }
    Structure {
        after,
        boundary_rows,
        boundary_err,
        four_after: reduced_pattern(0, 3, 4).into_iter().enumerate().collect(),
    }
}

fn render(m: &Structure) -> String {
    let (n, p) = (N, P);
    let mut out = String::new();
    out.push_str(&format!(
        "=== Figure 1: first reduction step (n = {n}, p = {p}) ===\n\n"
    ));
    out.push_str(&format!(
        "Before (tridiagonal; block boundaries every {} rows):\n",
        n / p
    ));
    let before: Pattern = (0..n)
        .map(|r| {
            let mut cols = Vec::new();
            if r > 0 {
                cols.push(r - 1);
            }
            cols.push(r);
            if r + 1 < n {
                cols.push(r + 1);
            }
            (r, cols)
        })
        .collect();
    out.push_str(&pattern_to_ascii(n, &before, &[]));

    out.push_str("\nAfter local substructuring (boundary rows highlighted):\n");
    out.push_str(&pattern_to_ascii(n, &m.after, &m.boundary_rows));
    out.push_str(&format!(
        "\nBoundary pairs form a tridiagonal system of 2p = {} equations;\n\
         solving it reproduces the true block-boundary values to {:.2e}.\n",
        2 * p,
        m.boundary_err
    ));

    out.push_str("\n=== Figure 2: reduction of four rows ===\n\n");
    out.push_str("Before (4 contiguous reduced-system rows, outside couplings at ends):\n");
    let four_before: Pattern = vec![
        (0, vec![0, 1]),
        (1, vec![0, 1, 2]),
        (2, vec![1, 2, 3]),
        (3, vec![2, 3]),
    ];
    out.push_str(&pattern_to_ascii(4, &four_before, &[]));
    out.push_str("\nAfter (rows 0 and 3 couple directly; interiors hang off them):\n");
    out.push_str(&pattern_to_ascii(4, &m.four_after, &[0, 3]));
    out
}

/// Run the experiment and return the report.
pub fn run() -> String {
    render(&measure())
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_contains_both_figures() {
        let m = super::measure();
        assert_eq!(m.boundary_rows.len(), 2 * super::P);
        assert!(m.boundary_err < 1e-12, "{}", m.boundary_err);
        let r = super::render(&m);
        assert!(r.contains("Figure 1"));
        assert!(r.contains("Figure 2"));
        assert!(r.contains("2p = 8 equations"));
    }
}
