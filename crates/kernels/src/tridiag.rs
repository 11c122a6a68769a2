//! Tridiagonal systems and the sequential Thomas algorithm.

/// A tridiagonal matrix stored as three diagonals:
/// row `i` is `(b[i], a[i], c[i])` with `b[0] == 0` and `c[n-1] == 0`
/// (the layout of Figure 1 in the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct TriDiag {
    /// Sub-diagonal (`b[0]` unused, kept 0).
    pub b: Vec<f64>,
    /// Main diagonal.
    pub a: Vec<f64>,
    /// Super-diagonal (`c[n-1]` unused, kept 0).
    pub c: Vec<f64>,
}

impl TriDiag {
    /// System size.
    pub fn n(&self) -> usize {
        self.a.len()
    }

    /// Construct from diagonals, checking shape.
    pub fn new(b: Vec<f64>, a: Vec<f64>, c: Vec<f64>) -> Self {
        let n = a.len();
        assert!(n >= 1);
        assert_eq!(b.len(), n);
        assert_eq!(c.len(), n);
        assert_eq!(b[0], 0.0, "b[0] must be zero");
        assert_eq!(c[n - 1], 0.0, "c[n-1] must be zero");
        TriDiag { b, a, c }
    }

    /// Constant-coefficient system `(b0, a0, c0)` of size `n` — the form
    /// used by the ADI routines (`tric` in Listing 7).
    pub fn constant(n: usize, b0: f64, a0: f64, c0: f64) -> Self {
        let mut b = vec![b0; n];
        let mut c = vec![c0; n];
        b[0] = 0.0;
        c[n - 1] = 0.0;
        TriDiag {
            b,
            a: vec![a0; n],
            c,
        }
    }

    /// A random strictly diagonally dominant system (factorable without
    /// pivoting, as the paper assumes), reproducible from `seed`.
    pub fn random_dd(n: usize, seed: u64) -> Self {
        // Small deterministic LCG to avoid a dependency in library code.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 // in [0, 1)
        };
        let mut b = vec![0.0; n];
        let mut a = vec![0.0; n];
        let mut c = vec![0.0; n];
        for i in 0..n {
            if i > 0 {
                b[i] = -(0.25 + 0.5 * next());
            }
            if i + 1 < n {
                c[i] = -(0.25 + 0.5 * next());
            }
            a[i] = b[i].abs() + c[i].abs() + 1.0 + next();
        }
        TriDiag { b, a, c }
    }

    /// Matrix-vector product `A x`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let n = self.n();
        assert_eq!(x.len(), n);
        (0..n)
            .map(|i| {
                let mut v = self.a[i] * x[i];
                if i > 0 {
                    v += self.b[i] * x[i - 1];
                }
                if i + 1 < n {
                    v += self.c[i] * x[i + 1];
                }
                v
            })
            .collect()
    }

    /// Max-norm of the residual `A x − f`.
    pub fn residual_inf(&self, x: &[f64], f: &[f64]) -> f64 {
        self.apply(x)
            .iter()
            .zip(f)
            .map(|(ax, fi)| (ax - fi).abs())
            .fold(0.0, f64::max)
    }
}

/// Sequential Thomas algorithm: solve `A x = f` for a tridiagonal `A`
/// given as diagonal slices. No pivoting (the paper's assumption).
pub fn thomas(b: &[f64], a: &[f64], c: &[f64], f: &[f64]) -> Vec<f64> {
    let n = a.len();
    assert!(n >= 1);
    assert!(b.len() == n && c.len() == n && f.len() == n);
    let mut ap = a.to_vec();
    let mut fp = f.to_vec();
    for i in 1..n {
        let w = b[i] / ap[i - 1];
        ap[i] -= w * c[i - 1];
        fp[i] -= w * fp[i - 1];
    }
    let mut x = vec![0.0; n];
    x[n - 1] = fp[n - 1] / ap[n - 1];
    for i in (0..n - 1).rev() {
        x[i] = (fp[i] - c[i] * x[i + 1]) / ap[i];
    }
    x
}

/// [`thomas`] into `x`, with its pivots in `ap` (any length, overwritten)
/// and its eliminated right-hand side in `x` until the back-substitution
/// overwrites it: its operations in its order, so its bits, and nothing
/// allocated once `ap` has grown. ([`thomas`] stays the textbook form
/// the paper's line counts measure.)
pub fn thomas_into(b: &[f64], a: &[f64], c: &[f64], f: &[f64], x: &mut [f64], ap: &mut Vec<f64>) {
    let n = a.len();
    assert!(n >= 1);
    assert!(b.len() == n && c.len() == n && f.len() == n && x.len() == n);
    ap.clear();
    ap.extend_from_slice(a);
    x.copy_from_slice(f);
    for i in 1..n {
        let w = b[i] / ap[i - 1];
        ap[i] -= w * c[i - 1];
        x[i] -= w * x[i - 1];
    }
    x[n - 1] /= ap[n - 1];
    for i in (0..n - 1).rev() {
        x[i] = (x[i] - c[i] * x[i + 1]) / ap[i];
    }
}

/// A tridiagonal matrix factored as [`thomas`] eliminates it: the
/// multipliers `w[i] = b[i] / ap[i-1]` and pivots `ap[i] = a[i] − w[i]
/// c[i-1]`, shared by every right-hand side.
#[derive(Debug, Clone)]
pub struct Factored {
    w: Vec<f64>,
    ap: Vec<f64>,
    c: Vec<f64>,
}

impl Factored {
    /// Factor the matrix with diagonals `b`, `a`, `c` (as for [`thomas`]).
    pub fn new(b: &[f64], a: &[f64], c: &[f64]) -> Self {
        let n = a.len();
        assert!(n >= 1);
        assert!(b.len() == n && c.len() == n);
        let (mut w, mut ap, c) = (vec![0.0; n], a.to_vec(), c.to_vec());
        for i in 1..n {
            w[i] = b[i] / ap[i - 1];
            ap[i] -= w[i] * c[i - 1];
        }
        Factored { w, ap, c }
    }

    /// Solve `k` systems in place: `x[i * k + l]` is unknown `i` of line
    /// `l`, right-hand side in, solution out. Every line is bitwise what
    /// [`thomas`] returns for it: its expressions in its order.
    pub fn solve_lines(&self, x: &mut [f64], k: usize) {
        let n = self.ap.len();
        assert_eq!(x.len(), n * k);
        for i in 1..n {
            let (done, row) = x[(i - 1) * k..(i + 1) * k].split_at_mut(k);
            let w = self.w[i];
            for (f, &prev) in row.iter_mut().zip(&*done) {
                *f -= w * prev;
            }
        }
        let last = self.ap[n - 1];
        for f in &mut x[(n - 1) * k..] {
            *f /= last;
        }
        for i in (0..n - 1).rev() {
            let (row, next) = x[i * k..(i + 2) * k].split_at_mut(k);
            let (c, ap) = (self.c[i], self.ap[i]);
            for (f, &xn) in row.iter_mut().zip(&*next) {
                *f = (*f - c * xn) / ap;
            }
        }
    }
}

/// Flop count of [`thomas`] for cost accounting (≈ 8 per row).
pub fn thomas_flops(n: usize) -> f64 {
    8.0 * n as f64
}

/// Solve a [`TriDiag`] system.
pub fn solve(m: &TriDiag, f: &[f64]) -> Vec<f64> {
    thomas(&m.b, &m.a, &m.c, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let m = TriDiag::constant(5, 0.0, 1.0, 0.0);
        let f = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(solve(&m, &f), f);
    }

    #[test]
    fn solves_poisson_1d() {
        // -u'' = 1 on (0,1), u(0)=u(1)=0, 2nd order FD: exact x(1-x)/2 at nodes.
        let n = 63;
        let h = 1.0 / (n as f64 + 1.0);
        let m = TriDiag::constant(n, -1.0, 2.0, -1.0);
        let f = vec![h * h; n];
        let x = solve(&m, &f);
        for i in 0..n {
            let xi = (i as f64 + 1.0) * h;
            let exact = xi * (1.0 - xi) / 2.0;
            assert!((x[i] - exact).abs() < 1e-12, "i={i}: {} vs {exact}", x[i]);
        }
    }

    #[test]
    fn random_dd_is_diagonally_dominant() {
        for seed in [1, 2, 42] {
            let m = TriDiag::random_dd(100, seed);
            for i in 0..100 {
                assert!(m.a[i].abs() > m.b[i].abs() + m.c[i].abs());
            }
            assert_eq!(m.b[0], 0.0);
            assert_eq!(m.c[99], 0.0);
        }
    }

    #[test]
    fn random_dd_reproducible() {
        assert_eq!(TriDiag::random_dd(50, 7), TriDiag::random_dd(50, 7));
        assert_ne!(TriDiag::random_dd(50, 7), TriDiag::random_dd(50, 8));
    }

    #[test]
    fn thomas_inverts_apply() {
        for n in [1, 2, 3, 10, 257] {
            let m = TriDiag::random_dd(n, n as u64);
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let f = m.apply(&x_true);
            let x = solve(&m, &f);
            for i in 0..n {
                assert!((x[i] - x_true[i]).abs() < 1e-9, "n={n} i={i}");
            }
            assert!(m.residual_inf(&x, &f) < 1e-9);
        }
    }

    #[test]
    fn single_equation() {
        let x = thomas(&[0.0], &[4.0], &[0.0], &[8.0]);
        assert_eq!(x, vec![2.0]);
    }

    /// Solve `k` lines of `m` interleaved through one [`Factored`], and
    /// each into a slice by [`thomas_into`] with pivots left over from the
    /// line before, and check every line's bits against its own [`thomas`]
    /// call.
    fn assert_lines_are_thomas(m: &TriDiag, k: usize, rhs: &[f64]) {
        let n = m.n();
        let mut x = rhs[..n * k].to_vec();
        Factored::new(&m.b, &m.a, &m.c).solve_lines(&mut x, k);
        let (mut into, mut ap) = (vec![f64::NAN; n], vec![-1.0; 3]);
        for l in 0..k {
            let f: Vec<f64> = (0..n).map(|i| rhs[i * k + l]).collect();
            let want = thomas(&m.b, &m.a, &m.c, &f);
            thomas_into(&m.b, &m.a, &m.c, &f, &mut into, &mut ap);
            for (i, w) in want.iter().enumerate() {
                let at = format!("n={n} k={k} line {l} unknown {i}");
                assert_eq!(x[i * k + l].to_bits(), w.to_bits(), "{at}");
                assert_eq!(into[i].to_bits(), w.to_bits(), "{at}: thomas_into");
            }
        }
    }

    #[test]
    fn factored_lines_of_one_unknown_are_thomas() {
        for k in 1..9 {
            let rhs: Vec<f64> = (0..k).map(|l| 0.3 - l as f64 * 1.7).collect();
            assert_lines_are_thomas(&TriDiag::constant(1, 0.0, 3.1, 0.0), k, &rhs);
            assert_lines_are_thomas(&TriDiag::random_dd(1, k as u64), k, &rhs);
        }
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn factored_lines_are_bitwise_thomas(
            n in 1usize..64,
            k in 1usize..9,
            constant in 0usize..2,
            seed in 0u64..1 << 40,
            off in -1.0f64..-0.1,
            diag in 2.05f64..4.0,
            rhs in prop::collection::vec(-10.0f64..10.0, 512..513),
        ) {
            let m = if constant == 1 {
                TriDiag::constant(n, off, diag, off * 0.9)
            } else {
                TriDiag::random_dd(n, seed)
            };
            assert_lines_are_thomas(&m, k, &rhs);
        }
    }
}
