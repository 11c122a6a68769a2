//! # kali-solvers — tensor product applications (paper §§2, 4, 5)
//!
//! The applications the paper uses to demonstrate its language constructs,
//! implemented both sequentially (the Listing 1 style baselines) and on the
//! simulated distributed machine through the `kali-runtime` API:
//!
//! * [`jacobi`] — Listings 1–3: Jacobi iteration for Poisson's equation;
//! * [`adi`] — Listings 7–8: Alternating Direction Implicit iteration in
//!   residual-correction (Peaceman–Rachford) form, with the y- and
//!   x-direction tridiagonal solves performed by the distributed kernel
//!   `mtrix`, in both non-pipelined (`tric` per line: `mtrix` of one line)
//!   and pipelined (`mtrixc` per processor row: `mtrix` of all its lines)
//!   variants;
//! * [`mg2`] — Listing 11: 2-D multigrid with y-semicoarsening and zebra
//!   *line* relaxation (x-lines solved by the sequential Thomas kernel);
//! * [`mg3`] — Listings 9–10: 3-D multigrid with z-semicoarsening and zebra
//!   *plane* relaxation, each plane solved by `mg2` on a processor-array
//!   slice — the "tensor product algorithm whose slice operation is itself
//!   a tensor product algorithm" of §5;
//! * [`transfer`] — residuals, semicoarsening restriction and interpolation
//!   (`resid2/3`, `rest2/3`, `intrp2/3`), the last two written once for
//!   any rank (`rest`, `intrp`) as ownership-routed slice transfers that
//!   stay correct for any block alignment;
//! * [`spmv`] / [`cg`] — the irregular workload class: the sequential
//!   sparse matrix-vector reference and conjugate gradients on the
//!   block-row-distributed CSR matrix, whose x-gather is inspected once
//!   and replayed warm every iteration;
//! * [`seq`] — plain sequential references used for verification and for
//!   the paper's lines-of-code comparison (claim C1).

pub mod adi;
pub mod cg;
pub mod jacobi;
pub mod mg2;
pub mod mg3;
pub mod seq;
pub mod spmv;
pub mod transfer;

/// The constant-coefficient model operator `a·∂xx + b·∂yy (+ e·∂zz) + c`
/// from §4: `a(x,y)Uxx + b(x,y)Uyy + c(x,y)U = F` with constant
/// coefficients, discretized with second-order central differences on the
/// unit square/cube with homogeneous Dirichlet boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pde {
    pub a: f64,
    pub b: f64,
    /// z-direction coefficient (ignored in 2-D).
    pub e: f64,
    pub c: f64,
}

impl Pde {
    /// The Poisson operator `Uxx + Uyy (+ Uzz)`.
    pub fn poisson() -> Self {
        Pde {
            a: 1.0,
            b: 1.0,
            e: 1.0,
            c: 0.0,
        }
    }

    /// Anisotropic variant.
    pub fn anisotropic(a: f64, b: f64, e: f64) -> Self {
        Pde { a, b, e, c: 0.0 }
    }

    /// 2-D stencil weights on an `nx × ny`-interval grid:
    /// `(ax, ay, ad)` with `ax = a·nx²`, `ay = b·ny²`,
    /// `ad = c − 2ax − 2ay`.
    pub fn stencil2(&self, nx: usize, ny: usize) -> (f64, f64, f64) {
        let ax = self.a * (nx * nx) as f64;
        let ay = self.b * (ny * ny) as f64;
        (ax, ay, self.c - 2.0 * ax - 2.0 * ay)
    }

    /// 3-D stencil weights `(ax, ay, az, ad)`.
    pub fn stencil3(&self, nx: usize, ny: usize, nz: usize) -> (f64, f64, f64, f64) {
        let ax = self.a * (nx * nx) as f64;
        let ay = self.b * (ny * ny) as f64;
        let az = self.e * (nz * nz) as f64;
        (ax, ay, az, self.c - 2.0 * (ax + ay + az))
    }
}

/// The solver-vs-[`seq`] comparison every distributed solver test ends
/// in: a gathered (row-major) array against the sequential reference,
/// bit for bit.
#[cfg(test)]
pub(crate) fn assert_bitwise(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: lengths differ");
    for (at, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what} at flat {at}: {g} vs {w}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_weights_scale_with_grid() {
        let p = Pde::poisson();
        let (ax, ay, ad) = p.stencil2(4, 8);
        assert_eq!(ax, 16.0);
        assert_eq!(ay, 64.0);
        assert_eq!(ad, -160.0);
        let (ax, ay, az, ad) = p.stencil3(2, 2, 4);
        assert_eq!((ax, ay, az), (4.0, 4.0, 16.0));
        assert_eq!(ad, -48.0);
    }

    #[test]
    fn helmholtz_shift_enters_diagonal() {
        let p = Pde {
            a: 1.0,
            b: 1.0,
            e: 0.0,
            c: -5.0,
        };
        let (_, _, ad) = p.stencil2(2, 2);
        assert_eq!(ad, -5.0 - 16.0);
    }
}
