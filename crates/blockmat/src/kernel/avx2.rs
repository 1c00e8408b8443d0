//! Register-blocked AVX2/FMA microkernel: a 4×8 C tile held in eight YMM
//! accumulators, FMA-updated from 8-wide packed B panels.
//!
//! The packed layout and the macro loop around this tile live in
//! [`super::pack`] and are shared with the AVX-512 kernel; this module
//! supplies only the [`Tile`]: `MR = 4` rows × `NR = 8` columns.
//!
//! * The microkernel keeps the full `4 × 8` C tile in registers: 8
//!   accumulators + 2 B vectors + 1 broadcast = 11 of 16 YMM registers.
//!   Each k iteration issues 8 FMAs over 8 independent accumulator
//!   chains, enough ILP to saturate both FMA ports.
//! * Row tails (`m % 4`) run the same kernel monomorphized at 1–3 rows;
//!   column tails go through the macro loop's scratch tile.
//!
//! This is the kernel for CPUs with AVX2 + FMA but without AVX-512; it
//! stays bit-identical to the AVX-512 kernel (see [`super::pack`]).
//!
//! # Safety
//! Everything here requires AVX2 + FMA at runtime. The only safe route in
//! is [`super::dispatch`], which verifies `is_x86_feature_detected!` once
//! before exposing this kernel.

#[cfg(target_arch = "x86")]
use std::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

use super::pack::{gemm_blocked, Tile};

/// The 4×8 AVX2/FMA register tile.
pub(super) struct Avx2;

/// Panel width in columns: two 4-lane f64 vectors.
const NR: usize = 8;

impl Tile for Avx2 {
    const MR: usize = 4;
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
        // SAFETY: forwarded caller guarantees (AVX2+FMA, pointer extents).
        unsafe {
            match mr {
                4 => microkernel::<4>(c, ldc, a, lda, kc, panel),
                3 => microkernel::<3>(c, ldc, a, lda, kc, panel),
                2 => microkernel::<2>(c, ldc, a, lda, kc, panel),
                1 => microkernel::<1>(c, ldc, a, lda, kc, panel),
                _ => unreachable!("stripe height is 1..=MR"),
            }
        }
    }

    /// The shared macro loop compiled with this tile's target features.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_packed(c: &mut [f64], a: &[f64], bp: &[f64], m: usize, n: usize, k: usize) {
        // SAFETY: forwarded caller guarantees; this function's target
        // features are the tile's.
        unsafe { gemm_blocked::<Self>(c, a, bp, m, n, k) }
    }
}

/// The register tile: `C[0..R][0..8] += A[0..R][0..kc] · panel`, with the
/// `R × 8` C tile resident in `2R` YMM accumulators for the whole strip.
/// `a` points at the stripe's first element of this kc strip; rows are
/// `lda` apart and `kc` elements of each row are consumed.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel<const R: usize>(
    c: *mut f64,
    ldc: usize,
    a: *const f64,
    lda: usize,
    kc: usize,
    panel: *const f64,
) {
    let mut lo = [_mm256_setzero_pd(); R];
    let mut hi = [_mm256_setzero_pd(); R];
    for r in 0..R {
        lo[r] = _mm256_loadu_pd(c.add(r * ldc));
        hi[r] = _mm256_loadu_pd(c.add(r * ldc + 4));
    }
    for kk in 0..kc {
        let b_lo = _mm256_loadu_pd(panel.add(kk * NR));
        let b_hi = _mm256_loadu_pd(panel.add(kk * NR + 4));
        for r in 0..R {
            let av = _mm256_broadcast_sd(&*a.add(r * lda + kk));
            lo[r] = _mm256_fmadd_pd(av, b_lo, lo[r]);
            hi[r] = _mm256_fmadd_pd(av, b_hi, hi[r]);
        }
    }
    for r in 0..R {
        _mm256_storeu_pd(c.add(r * ldc), lo[r]);
        _mm256_storeu_pd(c.add(r * ldc + 4), hi[r]);
    }
}
