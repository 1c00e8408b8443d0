//! Register-blocked AVX-512F microkernel: an 8×16 C tile held in sixteen
//! ZMM accumulators, FMA-updated from 16-wide packed B panels.
//!
//! The packed layout and the macro loop around this tile live in
//! [`super::pack`] and are shared with the AVX2 kernel; this module
//! supplies only the [`Tile`]: `MR = 8` rows × `NR = 16` columns.
//!
//! * The microkernel keeps the full `8 × 16` C tile in registers: 16
//!   accumulators + 2 B vectors + 1 broadcast = 19 of 32 ZMM registers.
//!   Each k iteration issues 16 FMAs over 16 independent accumulator
//!   chains against 2 panel loads and 8 broadcasts — four times the work
//!   of the 4×8 AVX2 tile per loaded panel row, and twice its lanes per
//!   instruction.
//! * Row tails (`m % 8`) run the same kernel monomorphized at 1–7 rows;
//!   column tails go through the macro loop's scratch tile.
//!
//! Each C element is the same chain of fused multiply-adds in increasing
//! k as in the AVX2 kernel (a 512-bit FMA rounds each lane exactly like a
//! 256-bit one), so the two kernels are bit-identical on every shape.
//!
//! # Safety
//! Everything here requires AVX-512F at runtime. The only safe route in
//! is [`super::dispatch`], which verifies `is_x86_feature_detected!` once
//! before exposing this kernel.

#[cfg(target_arch = "x86")]
use std::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

use super::pack::{gemm_blocked, Tile};

/// The 8×16 AVX-512F register tile.
pub(super) struct Avx512;

/// Panel width in columns: two 8-lane f64 vectors.
const NR: usize = 16;

impl Tile for Avx512 {
    const MR: usize = 8;
    const NR: usize = NR;

    #[inline(always)]
    unsafe fn microkernel(
        mr: usize,
        c: *mut f64,
        ldc: usize,
        a: *const f64,
        lda: usize,
        kc: usize,
        panel: *const f64,
    ) {
        // SAFETY: forwarded caller guarantees (AVX-512F, pointer extents).
        unsafe {
            match mr {
                8 => microkernel::<8>(c, ldc, a, lda, kc, panel),
                7 => microkernel::<7>(c, ldc, a, lda, kc, panel),
                6 => microkernel::<6>(c, ldc, a, lda, kc, panel),
                5 => microkernel::<5>(c, ldc, a, lda, kc, panel),
                4 => microkernel::<4>(c, ldc, a, lda, kc, panel),
                3 => microkernel::<3>(c, ldc, a, lda, kc, panel),
                2 => microkernel::<2>(c, ldc, a, lda, kc, panel),
                1 => microkernel::<1>(c, ldc, a, lda, kc, panel),
                _ => unreachable!("stripe height is 1..=MR"),
            }
        }
    }

    /// The shared macro loop compiled with this tile's target features.
    #[target_feature(enable = "avx512f")]
    unsafe fn gemm_packed(c: &mut [f64], a: &[f64], bp: &[f64], m: usize, n: usize, k: usize) {
        // SAFETY: forwarded caller guarantees; this function's target
        // features are the tile's.
        unsafe { gemm_blocked::<Self>(c, a, bp, m, n, k) }
    }
}

/// The register tile: `C[0..R][0..16] += A[0..R][0..kc] · panel`, with
/// the `R × 16` C tile resident in `2R` ZMM accumulators for the whole
/// strip. `a` points at the stripe's first element of this kc strip;
/// rows are `lda` apart and `kc` elements of each row are consumed.
#[target_feature(enable = "avx512f")]
unsafe fn microkernel<const R: usize>(
    c: *mut f64,
    ldc: usize,
    a: *const f64,
    lda: usize,
    kc: usize,
    panel: *const f64,
) {
    let mut lo = [_mm512_setzero_pd(); R];
    let mut hi = [_mm512_setzero_pd(); R];
    for r in 0..R {
        lo[r] = _mm512_loadu_pd(c.add(r * ldc));
        hi[r] = _mm512_loadu_pd(c.add(r * ldc + 8));
    }
    for kk in 0..kc {
        let b_lo = _mm512_loadu_pd(panel.add(kk * NR));
        let b_hi = _mm512_loadu_pd(panel.add(kk * NR + 8));
        for r in 0..R {
            let av = _mm512_set1_pd(*a.add(r * lda + kk));
            lo[r] = _mm512_fmadd_pd(av, b_lo, lo[r]);
            hi[r] = _mm512_fmadd_pd(av, b_hi, hi[r]);
        }
    }
    for r in 0..R {
        _mm512_storeu_pd(c.add(r * ldc), lo[r]);
        _mm512_storeu_pd(c.add(r * ldc + 8), hi[r]);
    }
}
