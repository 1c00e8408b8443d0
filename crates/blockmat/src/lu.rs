//! Dense LU kernels for the Section 7 extension.
//!
//! The paper's right-looking LU step factors a `µ × µ`-block pivot matrix,
//! updates the vertical panel (`x ← x · U⁻¹` per row), the horizontal panel
//! (`y ← L⁻¹ · y` per column), then performs a rank-µ update of the core
//! matrix. These are the corresponding element-level kernels, operating on a
//! small [`Dense`] row-major matrix type (conversions to/from
//! [`BlockMatrix`] are provided so the scheduling layer can stay
//! block-oriented).
//!
//! Pivoting: the paper never pivots across workers (its LU is a structural
//! blueprint, not a numerically robust solver), so these kernels factor
//! without pivoting and require the input to have nonsingular leading
//! minors — e.g. diagonally dominant matrices, which
//! [`crate::fill::random_diagonally_dominant`] generates.

use crate::kernel::{self, Kernel, PackedB};
use crate::matrix::BlockMatrix;

/// Minimal dense row-major matrix used by the LU kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Dense {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Dense { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Dense::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The coefficients as one row-major slice (for bulk serialization).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major coefficient slice (for bulk deserialization).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Convert a [`BlockMatrix`] to dense form.
    pub fn from_blocks(m: &BlockMatrix) -> Self {
        let (rows, cols) = m.dims();
        let mut d = Dense::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                d[(i, j)] = m.get(i, j);
            }
        }
        d
    }

    /// Convert back to a [`BlockMatrix`] with block side `q` (dimensions
    /// must divide evenly).
    pub fn to_blocks(&self, q: usize) -> BlockMatrix {
        assert_eq!(self.rows % q, 0, "rows must divide by q");
        assert_eq!(self.cols % q, 0, "cols must divide by q");
        let mut m = BlockMatrix::zeros(self.rows / q, self.cols / q, q);
        for i in 0..self.rows {
            for j in 0..self.cols {
                m.set(i, j, self[(i, j)]);
            }
        }
        m
    }

    /// `self ← self − a · b` (rank-k update with k = a.cols) through the
    /// dispatched block kernel — this is the LU runtime's core panel
    /// update, `alpha = −1` in the kernel contract.
    pub fn sub_mul(&mut self, a: &Dense, b: &Dense) {
        self.sub_mul_with(kernel::active(), a, b);
    }

    /// [`Dense::sub_mul`] through an explicitly chosen kernel — the form
    /// for loops that resolve the dispatch once (e.g. the LU worker).
    pub fn sub_mul_with(&mut self, kernel: &Kernel, a: &Dense, b: &Dense) {
        assert_eq!(a.cols, b.rows, "inner dimensions");
        assert_eq!(self.rows, a.rows, "row dimensions");
        assert_eq!(self.cols, b.cols, "col dimensions");
        kernel.gemm_acc(&mut self.data, &a.data, &b.data, a.rows, b.cols, a.cols, -1.0);
    }

    /// Pack this matrix as the B operand of [`Dense::sub_mul_prepacked`]
    /// (`alpha = −1`, the rank-µ-update case), reusing `dst`'s buffer.
    pub fn pack_sub_mul_for(&self, kernel: &Kernel, dst: &mut PackedB) {
        kernel.pack_into(dst, &self.data, self.rows, self.cols, -1.0);
    }

    /// `self ← self − a · b` with `b` prepacked by
    /// [`Dense::pack_sub_mul_for`] — bit-identical to
    /// [`Dense::sub_mul_with`] on the same data, minus the per-call
    /// repack. The LU worker packs the step's horizontal panel once and
    /// streams every core row group of the step against it.
    pub fn sub_mul_prepacked(&mut self, kernel: &Kernel, a: &Dense, b: &PackedB) {
        assert_eq!(a.cols, b.k(), "inner dimensions");
        assert_eq!(self.rows, a.rows, "row dimensions");
        assert_eq!(self.cols, b.n(), "col dimensions");
        assert_eq!(b.alpha(), -1.0, "sub_mul operands are packed with alpha = -1");
        kernel.gemm_acc_packed(&mut self.data, &a.data, b, a.rows);
    }

    /// Plain product `a · b` through the dispatched kernel.
    pub fn mul(a: &Dense, b: &Dense) -> Dense {
        let mut c = Dense::zeros(a.rows, b.cols);
        kernel::active().gemm_acc(&mut c.data, &a.data, &b.data, a.rows, b.cols, a.cols, 1.0);
        c
    }

    /// Maximum absolute difference against `other`. A NaN on one side
    /// only, or two NaNs with different bits, reads as infinite, so a NaN
    /// result never passes for a match.
    pub fn max_abs_diff(&self, other: &Dense) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        crate::norms::max_abs_diff(&self.data, &other.data)
    }

    /// Extract the sub-matrix `[r0..r1) × [c0..c1)`.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Dense {
        assert!(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols);
        let mut out = Dense::zeros(r1 - r0, c1 - c0);
        for i in r0..r1 {
            for j in c0..c1 {
                out[(i - r0, j - c0)] = self[(i, j)];
            }
        }
        out
    }

    /// Write `sub` into position `(r0, c0)`.
    pub fn set_submatrix(&mut self, r0: usize, c0: usize, sub: &Dense) {
        assert!(r0 + sub.rows <= self.rows && c0 + sub.cols <= self.cols);
        for i in 0..sub.rows {
            for j in 0..sub.cols {
                self[(r0 + i, c0 + j)] = sub[(i, j)];
            }
        }
    }

    /// The unit-lower-triangular factor from a packed LU result (lower part
    /// below the diagonal, implicit unit diagonal).
    pub fn unit_lower(&self) -> Dense {
        assert_eq!(self.rows, self.cols);
        let n = self.rows;
        let mut l = Dense::identity(n);
        for i in 0..n {
            for j in 0..i {
                l[(i, j)] = self[(i, j)];
            }
        }
        l
    }

    /// The upper-triangular factor from a packed LU result.
    pub fn upper(&self) -> Dense {
        assert_eq!(self.rows, self.cols);
        let n = self.rows;
        let mut u = Dense::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                u[(i, j)] = self[(i, j)];
            }
        }
        u
    }
}

impl std::ops::Index<(usize, usize)> for Dense {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Dense {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Smallest pivot magnitude we accept before declaring the matrix
/// numerically singular for unpivoted LU.
pub const PIVOT_TOL: f64 = 1e-12;

/// In-place unpivoted LU factorization (Doolittle): on return the strictly
/// lower part holds `L` (unit diagonal implicit) and the upper part holds
/// `U`. This is the "factor pivot matrix" kernel of Section 7, step 1.
///
/// # Panics
/// If a pivot smaller than [`PIVOT_TOL`] in magnitude is met.
pub fn lu_factor_in_place(a: &mut Dense) {
    assert_eq!(a.rows, a.cols, "LU needs a square matrix");
    let n = a.rows;
    for k in 0..n {
        let pivot = a[(k, k)];
        assert!(
            pivot.abs() > PIVOT_TOL,
            "zero pivot at step {k}: unpivoted LU requires nonsingular leading minors"
        );
        for i in (k + 1)..n {
            let lik = a[(i, k)] / pivot;
            a[(i, k)] = lik;
            for j in (k + 1)..n {
                let u_kj = a[(k, j)];
                a[(i, j)] -= lik * u_kj;
            }
        }
    }
}

/// Vertical-panel kernel (Section 7, step 2): replace each row `x` of the
/// panel by `x · U⁻¹`, where `U` is the upper factor of the packed pivot
/// `lu`. Solves `x' U = x` by forward substitution over columns.
pub fn trsm_right_upper(panel: &mut Dense, lu: &Dense) {
    assert_eq!(panel.cols, lu.rows, "panel width must equal pivot side");
    let n = lu.rows;
    for i in 0..panel.rows {
        for j in 0..n {
            let mut acc = panel[(i, j)];
            for k in 0..j {
                acc -= panel[(i, k)] * lu[(k, j)];
            }
            panel[(i, j)] = acc / lu[(j, j)];
        }
    }
}

/// Horizontal-panel kernel (Section 7, step 3): replace each column `y` of
/// the panel by `L⁻¹ · y`, where `L` is the unit-lower factor of the packed
/// pivot `lu`. Solves `L y' = y` by forward substitution over rows.
pub fn trsm_left_unit_lower(panel: &mut Dense, lu: &Dense) {
    assert_eq!(panel.rows, lu.rows, "panel height must equal pivot side");
    let n = lu.rows;
    for j in 0..panel.cols {
        for i in 0..n {
            let mut acc = panel[(i, j)];
            for k in 0..i {
                acc -= lu[(i, k)] * panel[(k, j)];
            }
            panel[(i, j)] = acc;
        }
    }
}

/// Full right-looking blocked LU with panel width `nb` elements — the
/// single-processor reference of Section 7.1. Returns the packed factors in
/// place of `a`.
pub fn lu_blocked_in_place(a: &mut Dense, nb: usize) {
    assert_eq!(a.rows, a.cols, "LU needs a square matrix");
    assert!(nb > 0, "panel width must be positive");
    let n = a.rows;
    let mut k0 = 0;
    while k0 < n {
        let k1 = (k0 + nb).min(n);
        // 1. Factor pivot.
        let mut pivot = a.submatrix(k0, k1, k0, k1);
        lu_factor_in_place(&mut pivot);
        a.set_submatrix(k0, k0, &pivot);
        // 2. Vertical panel: rows below the pivot, x <- x U^-1.
        if k1 < n {
            let mut vert = a.submatrix(k1, n, k0, k1);
            trsm_right_upper(&mut vert, &pivot);
            a.set_submatrix(k1, k0, &vert);
            // 3. Horizontal panel: columns right of the pivot, y <- L^-1 y.
            let mut horiz = a.submatrix(k0, k1, k1, n);
            trsm_left_unit_lower(&mut horiz, &pivot);
            a.set_submatrix(k0, k1, &horiz);
            // 4. Rank-nb core update: core -= vert * horiz.
            let mut core = a.submatrix(k1, n, k1, n);
            core.sub_mul(&vert, &horiz);
            a.set_submatrix(k1, k1, &core);
        }
        k0 = k1;
    }
}

/// Reconstruct `L · U` from a packed factorization — verification helper.
pub fn reconstruct(packed: &Dense) -> Dense {
    Dense::mul(&packed.unit_lower(), &packed.upper())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fill::random_diagonally_dominant;
    use proptest::prelude::*;

    fn dense_dd(n_blocks: usize, q: usize, seed: u64) -> Dense {
        Dense::from_blocks(&random_diagonally_dominant(n_blocks, q, seed))
    }

    #[test]
    fn unblocked_lu_reconstructs() {
        let a = dense_dd(2, 5, 3);
        let mut packed = a.clone();
        lu_factor_in_place(&mut packed);
        let lu = reconstruct(&packed);
        assert!(lu.max_abs_diff(&a) < 1e-9 * a.max_abs_diff(&Dense::zeros(10, 10)).max(1.0));
    }

    #[test]
    fn blocked_matches_unblocked() {
        let a = dense_dd(3, 4, 7);
        let mut p1 = a.clone();
        let mut p2 = a.clone();
        lu_factor_in_place(&mut p1);
        lu_blocked_in_place(&mut p2, 4);
        assert!(p1.max_abs_diff(&p2) < 1e-9);
    }

    #[test]
    fn blocked_handles_non_divisible_panel() {
        let a = dense_dd(2, 5, 9); // n = 10
        let mut p1 = a.clone();
        let mut p2 = a.clone();
        lu_factor_in_place(&mut p1);
        lu_blocked_in_place(&mut p2, 3); // 10 = 3+3+3+1
        assert!(p1.max_abs_diff(&p2) < 1e-9);
    }

    #[test]
    fn trsm_right_upper_solves() {
        // X · U = P  =>  trsm gives X = P · U^-1.
        let a = dense_dd(1, 6, 1);
        let mut packed = a.clone();
        lu_factor_in_place(&mut packed);
        let u = packed.upper();
        let x_true = dense_dd(1, 6, 2);
        let p = Dense::mul(&x_true, &u);
        let mut x = p;
        trsm_right_upper(&mut x, &packed);
        assert!(x.max_abs_diff(&x_true) < 1e-8);
    }

    #[test]
    fn trsm_left_unit_lower_solves() {
        // L · Y = P  =>  trsm gives Y = L^-1 · P.
        let a = dense_dd(1, 6, 4);
        let mut packed = a.clone();
        lu_factor_in_place(&mut packed);
        let l = packed.unit_lower();
        let y_true = dense_dd(1, 6, 5);
        let p = Dense::mul(&l, &y_true);
        let mut y = p;
        trsm_left_unit_lower(&mut y, &packed);
        assert!(y.max_abs_diff(&y_true) < 1e-8);
    }

    #[test]
    #[should_panic(expected = "zero pivot")]
    fn singular_matrix_panics() {
        let mut a = Dense::zeros(3, 3);
        a[(0, 0)] = 1.0; // second pivot will be exactly zero
        lu_factor_in_place(&mut a);
    }

    #[test]
    fn block_roundtrip() {
        let m = random_diagonally_dominant(2, 3, 8);
        let d = Dense::from_blocks(&m);
        let back = d.to_blocks(3);
        assert_eq!(back.max_abs_diff(&m), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_blocked_lu_reconstructs(nb in 1usize..8, n_blocks in 1usize..3, seed in 0u64..50) {
            let q = 4;
            let a = dense_dd(n_blocks, q, seed);
            let mut packed = a.clone();
            lu_blocked_in_place(&mut packed, nb);
            let lu = reconstruct(&packed);
            prop_assert!(lu.max_abs_diff(&a) < 1e-8);
        }
    }
}
