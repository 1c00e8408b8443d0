//! Matrix norms and error measures used by verification and EXPERIMENTS.md.

use crate::matrix::BlockMatrix;

/// Frobenius norm `sqrt(Σ x²)` over all coefficients.
pub fn frobenius(m: &BlockMatrix) -> f64 {
    let mut acc = 0.0;
    for (_, _, b) in m.iter_blocks() {
        for &x in b.as_slice() {
            acc += x * x;
        }
    }
    acc.sqrt()
}

/// Infinity norm: max absolute row sum.
pub fn inf_norm(m: &BlockMatrix) -> f64 {
    let (rows, cols) = m.dims();
    let mut best = 0.0_f64;
    for i in 0..rows {
        let mut row = 0.0;
        for j in 0..cols {
            row += m.get(i, j).abs();
        }
        best = best.max(row);
    }
    best
}

/// Largest elementwise `|x − y|` over two equal-length slices, blind to
/// nothing: a pair where exactly one side is NaN, or both are NaN with
/// different bits, counts as an infinite difference, so a NaN result can
/// never read as a match. Bit-equal pairs (equal infinities and
/// identical NaNs included) differ by 0.
pub(crate) fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "length mismatch");
    x.iter().zip(y).fold(0.0_f64, |m, (&a, &b)| m.max(abs_diff(a, b)))
}

/// `|a − b|`, never NaN: see [`max_abs_diff`].
fn abs_diff(a: f64, b: f64) -> f64 {
    if a.to_bits() == b.to_bits() {
        0.0
    } else if a.is_nan() || b.is_nan() {
        f64::INFINITY
    } else {
        // Neither is NaN and they differ, so at most one is infinite (or
        // both with opposite signs): the difference is a number or +∞.
        (a - b).abs()
    }
}

/// Relative Frobenius error `‖a − b‖_F / max(‖b‖_F, ε)`.
pub fn relative_error(a: &BlockMatrix, b: &BlockMatrix) -> f64 {
    assert_eq!(a.dims(), b.dims(), "dimension mismatch");
    let mut num = 0.0;
    for ((_, _, ba), (_, _, bb)) in a.iter_blocks().zip(b.iter_blocks()) {
        for (&x, &y) in ba.as_slice().iter().zip(bb.as_slice()) {
            let d = x - y;
            num += d * d;
        }
    }
    num.sqrt() / frobenius(b).max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fill::random_matrix;

    #[test]
    fn frobenius_of_identity() {
        let m = BlockMatrix::identity(3, 4);
        // 12 ones -> sqrt(12).
        assert!((frobenius(&m) - 12.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn inf_norm_of_identity_is_one() {
        let m = BlockMatrix::identity(2, 5);
        assert!((inf_norm(&m) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_abs_diff_sees_every_nan() {
        let nan = f64::NAN;
        let other_nan = f64::from_bits(nan.to_bits() ^ 1);
        assert!(other_nan.is_nan());
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.0, 2.5]), 0.5);
        assert_eq!(max_abs_diff(&[1.0, nan], &[1.0, 2.0]), f64::INFINITY);
        assert_eq!(max_abs_diff(&[nan, nan], &[1.0, 2.0]), f64::INFINITY);
        assert_eq!(max_abs_diff(&[nan], &[other_nan]), f64::INFINITY);
        assert_eq!(max_abs_diff(&[nan, f64::INFINITY], &[nan, f64::INFINITY]), 0.0);
        assert_eq!(max_abs_diff(&[f64::INFINITY], &[f64::NEG_INFINITY]), f64::INFINITY);
        assert_eq!(max_abs_diff(&[f64::INFINITY], &[1.0]), f64::INFINITY);
    }

    #[test]
    fn relative_error_zero_for_equal() {
        let m = random_matrix(2, 3, 4, 9);
        assert_eq!(relative_error(&m, &m), 0.0);
    }

    #[test]
    fn relative_error_scales() {
        let m = BlockMatrix::identity(1, 4);
        let mut n = m.clone();
        n.set(0, 0, 2.0); // one coefficient off by 1; ‖m‖_F = 2.
        assert!((relative_error(&n, &m) - 0.5).abs() < 1e-12);
    }
}
