//! Cyclic (odd-even) reduction — the classical alternative parallel
//! tridiagonal algorithm (reference \[8\] of the paper), implemented
//! sequentially as an algorithmic baseline for the experiments.

use crate::tridiag::thomas;

/// Solve a tridiagonal system by recursive odd-even reduction.
///
/// Each round eliminates the even-indexed unknowns, halving the system;
/// the total work is ~17n flops, about twice Thomas' 8n — the classical
/// trade of extra work for O(log n) parallel depth.
pub fn cyclic_reduction(b: &[f64], a: &[f64], c: &[f64], f: &[f64]) -> Vec<f64> {
    let n = a.len();
    if n <= 3 {
        return thomas(b, a, c, f);
    }
    // Reduced system over odd global positions 1, 3, 5, ...
    let nr = n / 2;
    let mut rb = vec![0.0; nr];
    let mut ra = vec![0.0; nr];
    let mut rc = vec![0.0; nr];
    let mut rf = vec![0.0; nr];
    for (r, i) in (1..n).step_by(2).enumerate() {
        let alpha = b[i] / a[i - 1];
        ra[r] = a[i] - alpha * c[i - 1];
        rb[r] = -alpha * b[i - 1];
        rf[r] = f[i] - alpha * f[i - 1];
        if i + 1 < n {
            let gamma = c[i] / a[i + 1];
            ra[r] -= gamma * b[i + 1];
            rc[r] = -gamma * c[i + 1];
            rf[r] -= gamma * f[i + 1];
        }
    }
    rb[0] = 0.0;
    rc[nr - 1] = 0.0;
    let xo = cyclic_reduction(&rb, &ra, &rc, &rf);
    // Back-substitute the even positions.
    let mut x = vec![0.0; n];
    for (r, i) in (1..n).step_by(2).enumerate() {
        x[i] = xo[r];
    }
    for i in (0..n).step_by(2) {
        let left = if i > 0 { b[i] * x[i - 1] } else { 0.0 };
        let right = if i + 1 < n { c[i] * x[i + 1] } else { 0.0 };
        x[i] = (f[i] - left - right) / a[i];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tridiag::TriDiag;

    #[test]
    fn matches_thomas_various_sizes() {
        for n in [1usize, 2, 3, 4, 5, 8, 17, 64, 255, 1000] {
            let m = TriDiag::random_dd(n, n as u64 + 1);
            let x_true: Vec<f64> = (0..n).map(|i| ((i * 3 % 7) as f64) - 2.0).collect();
            let f = m.apply(&x_true);
            let x = cyclic_reduction(&m.b, &m.a, &m.c, &f);
            let xt = thomas(&m.b, &m.a, &m.c, &f);
            for i in 0..n {
                assert!((x[i] - xt[i]).abs() < 1e-8, "n={n} i={i}");
                assert!((x[i] - x_true[i]).abs() < 1e-7, "n={n} i={i} vs truth");
            }
        }
    }

    #[test]
    fn poisson_system() {
        let n = 127;
        let m = TriDiag::constant(n, -1.0, 2.0, -1.0);
        let h = 1.0 / (n as f64 + 1.0);
        let f = vec![h * h; n];
        let x = cyclic_reduction(&m.b, &m.a, &m.c, &f);
        for i in 0..n {
            let xi = (i as f64 + 1.0) * h;
            assert!((x[i] - xi * (1.0 - xi) / 2.0).abs() < 1e-10);
        }
    }
}
