//! The single-block GEMM kernel subsystem — every compute path in the
//! workspace funnels through here.
//!
//! The paper's master-worker runtimes are built on one primitive, the
//! block update `C += A · B`; once the data path is zero-copy (PR 1),
//! per-block FLOP throughput is the dominant cost. This module provides
//! that primitive as a small family of interchangeable kernels behind a
//! runtime-dispatched table:
//!
//! * `scalar` — the cache-tiled, k-unrolled loop nest (bit-identical to
//!   the pre-dispatch `Block::gemm_acc`), always available, and the
//!   fallback on every target.
//! * `avx2` — a register-blocked 4×8 microkernel written with
//!   `std::arch` AVX2/FMA intrinsics over 8-wide packed B panels.
//! * `avx512` — an 8×16 AVX-512F microkernel over 16-wide packed B
//!   panels, bit-identical to `avx2`. Both SIMD kernels are a register
//!   tile plugged into one cache-blocked pack routine and one macro loop
//!   (`pack`), parametrized by the tile shape.
//! * [`dispatch`] — the `OnceLock`-cached selection: CPU features are
//!   detected exactly once per process, the fastest runnable kernel wins
//!   (avx512, then avx2, then scalar), and the choice can be forced with
//!   `MWP_KERNEL=scalar|avx2|avx512` for testing any path (an unknown
//!   name is rejected with the valid list).
//! * [`PackedB`] — a first-class, reusable packed B operand, so callers
//!   that stream many A operands against one B pay the `O(k·n)` pack cost
//!   once instead of once per `gemm_acc` call.
//!
//! The kernel contract is a rectangular row-major accumulation
//! `C (m×n) += alpha · A (m×k) · B (k×n)` with contiguous storage
//! (`ldc = n`, `lda = k`, `ldb = n`). The square `q × q` block update is
//! the `m = n = k = q, alpha = 1` case; the LU rank-µ panel update is the
//! `alpha = -1` case. `alpha` is applied as an exact scalar factor
//! (`±1.0` in every in-tree call site), so sign flips never perturb the
//! result.
//!
//! # The `PackedB` ownership / invalidation contract
//!
//! [`Kernel::pack_into`] fills a caller-owned [`PackedB`] with the
//! kernel's private packed image of `alpha · B` and stamps its identity
//! (kernel name, `k × n` shape, `alpha`). From then on:
//!
//! * the pack is a **snapshot** — it does not watch the source B. The
//!   caller repacks when the source data, the desired `alpha`, or the
//!   kernel changes (the runtimes repack exactly when a resident B block
//!   is overwritten by the next step's row);
//! * the buffer is **recycled, never re-zeroed wholesale** — each pack
//!   rewrites every slot including tail-panel zero padding, so a smaller
//!   pack after a larger one is safe (pinned by proptest);
//! * consuming a pack through a **different kernel panics** — layouts are
//!   kernel-private (`pack`'s blocked panels, 8 wide for AVX2 and 16
//!   wide for AVX-512, a verbatim row-major copy for scalar) and not
//!   interchangeable;
//! * [`Kernel::gemm_acc_packed`] is **bit-identical** to
//!   [`Kernel::gemm_acc`] on the same operands: same microkernel, same
//!   per-element k-accumulation order — `gemm_acc` *is* "pack into a
//!   thread-local, then run the packed path" on the SIMD side.
//!
//! `MWP_PACK=off` ([`prepack_enabled`]) forces every prepacking layer
//! back to per-call packing for A/B timing; results are unchanged.
//!
//! Numerical contract: every kernel computes each C element as a sum over
//! `k` in increasing order — the kc-strip macro loop preserves this, as
//! the C tile store/reload between strips is exact — so results agree
//! within `k · ‖A‖ · ‖B‖ · ε` elementwise; the scalar kernel reproduces
//! the historical `gemm_acc` bit for bit, while the AVX2 and AVX-512
//! kernels (bit-identical to each other: the same FMA chain per element)
//! differ from it only by FMA's unrounded multiplies. [`Block::gemm_acc_naive`] (the
//! plain triple loop) is the documented test oracle all kernels are
//! verified against — the optimized paths never verify themselves.
//!
//! [`Block::gemm_acc_naive`]: crate::Block::gemm_acc_naive

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
pub(crate) mod avx2;
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
pub(crate) mod avx512;
pub mod dispatch;
pub(crate) mod pack;
pub(crate) mod packed;
pub(crate) mod scalar;

pub use dispatch::{active, available, by_name, prepack_enabled, Kernel};
pub use pack::pack_count;
pub use packed::PackedB;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fill::random_block;
    use crate::Block;
    use proptest::prelude::*;

    /// Naive-oracle expectation for `c += alpha · a · b`, rectangular.
    fn naive(c: &mut [f64], a: &[f64], b: &[f64], m: usize, n: usize, k: usize, alpha: f64) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                c[i * n + j] += alpha * acc;
            }
        }
    }

    fn max_abs(s: &[f64]) -> f64 {
        s.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    use crate::norms::max_abs_diff;

    /// Elementwise error bound for one block update: each C element sums
    /// `k` products, so `k · ‖A‖ · ‖B‖ · ε` (with a small safety factor)
    /// bounds the divergence between any two summation orders.
    fn tol(k: usize, a: &[f64], b: &[f64]) -> f64 {
        4.0 * k as f64 * max_abs(a).max(1.0) * max_abs(b).max(1.0) * f64::EPSILON
    }

    fn seeded(len: usize, seed: u64) -> Vec<f64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn every_kernel_matches_oracle_on_tail_sizes() {
        // Sides that are not multiples of the 4×8 or 8×16 register tiles
        // (nor of the 32-wide cache tile) exercise every edge path.
        for kernel in available() {
            for q in [1usize, 3, 5, 7, 33, 80] {
                let a = seeded(q * q, 1);
                let b = seeded(q * q, 2);
                let mut c = seeded(q * q, 3);
                let mut want = c.clone();
                kernel.gemm_acc(&mut c, &a, &b, q, q, q, 1.0);
                naive(&mut want, &a, &b, q, q, q, 1.0);
                assert!(
                    max_abs_diff(&c, &want) <= tol(q, &a, &b),
                    "kernel {} diverges from the naive oracle at q = {q}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn every_kernel_matches_oracle_past_the_strip_and_block_thresholds() {
        // The cache-blocked macro loop changes shape at two thresholds:
        // kc stripping (a full-k strip of the widest column block over
        // the L2 budget: k ≳ 252 at n ≥ 520) and NC-block splitting
        // (n > 512). The tail-size tests above never cross either, so
        // pin the stripped / multi-block *compute* (not just the pack
        // layout) against the naive oracle — and against the prepacked
        // entry, which must stay bit-identical.
        for kernel in available() {
            for (m, n, k) in [
                (9usize, 520usize, 260usize), // multi-strip (kc = KC)
                (3, 525, 5),                  // multi-block (n > NC), tail panel
                (5, 530, 270),                // both, with row + column tails
            ] {
                let a = seeded(m * k, 31);
                let b = seeded(k * n, 32);
                let mut c = seeded(m * n, 33);
                let mut prepacked = c.clone();
                let mut want = c.clone();
                kernel.gemm_acc(&mut c, &a, &b, m, n, k, 1.0);
                naive(&mut want, &a, &b, m, n, k, 1.0);
                assert!(
                    max_abs_diff(&c, &want) <= tol(k, &a, &b),
                    "kernel {} diverges from the oracle at {m}x{n}x{k}",
                    kernel.name()
                );
                let mut bp = PackedB::new();
                kernel.pack_into(&mut bp, &b, k, n, 1.0);
                kernel.gemm_acc_packed(&mut prepacked, &a, &bp, m);
                assert_eq!(
                    c,
                    prepacked,
                    "kernel {}: prepacked diverges from per-call at {m}x{n}x{k}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn every_kernel_handles_rectangular_shapes_and_alpha() {
        // The LU rank-µ update path: rectangular m×n×k with alpha = -1.
        for kernel in available() {
            for (m, n, k) in [(1, 1, 1), (5, 13, 3), (12, 8, 40), (33, 7, 17), (4, 8, 80)] {
                let a = seeded(m * k, 10);
                let b = seeded(k * n, 11);
                let mut c = seeded(m * n, 12);
                let mut want = c.clone();
                kernel.gemm_acc(&mut c, &a, &b, m, n, k, -1.0);
                naive(&mut want, &a, &b, m, n, k, -1.0);
                assert!(
                    max_abs_diff(&c, &want) <= tol(k, &a, &b),
                    "kernel {} diverges at {m}x{n}x{k} alpha=-1",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn scalar_kernel_is_bit_identical_to_historical_gemm_acc() {
        // The scalar dispatch entry IS the pre-dispatch tiled loop: same
        // tiling, same 4-wide k unroll, same per-j accumulation order.
        // Freeze that with an exact comparison against a hand-rolled copy
        // of the historical loop at a size crossing tile boundaries.
        let scalar = by_name("scalar").expect("scalar is always available");
        let q = 47;
        let a = seeded(q * q, 21);
        let b = seeded(q * q, 22);
        let mut got = seeded(q * q, 23);
        let mut want = got.clone();
        scalar.gemm_acc(&mut got, &a, &b, q, q, q, 1.0);
        historical_gemm_acc(&mut want, &a, &b, q);
        assert_eq!(got, want, "scalar kernel must stay bit-identical");
    }

    /// Verbatim copy of the pre-dispatch `Block::gemm_acc` loop nest, kept
    /// only as the bit-exactness reference for the scalar kernel.
    fn historical_gemm_acc(cv: &mut [f64], av: &[f64], bv: &[f64], q: usize) {
        const TILE: usize = 32;
        let mut ii = 0;
        while ii < q {
            let i_end = (ii + TILE).min(q);
            let mut kk = 0;
            while kk < q {
                let k_end = (kk + TILE).min(q);
                for i in ii..i_end {
                    let arow = &av[i * q..][..q];
                    let crow = &mut cv[i * q..][..q];
                    let mut k = kk;
                    while k + 4 <= k_end {
                        let a0 = arow[k];
                        let a1 = arow[k + 1];
                        let a2 = arow[k + 2];
                        let a3 = arow[k + 3];
                        let b0 = &bv[k * q..][..q];
                        let b1 = &bv[(k + 1) * q..][..q];
                        let b2 = &bv[(k + 2) * q..][..q];
                        let b3 = &bv[(k + 3) * q..][..q];
                        for j in 0..q {
                            let mut s = crow[j];
                            s += a0 * b0[j];
                            s += a1 * b1[j];
                            s += a2 * b2[j];
                            s += a3 * b3[j];
                            crow[j] = s;
                        }
                        k += 4;
                    }
                    while k < k_end {
                        let aik = arow[k];
                        let brow = &bv[k * q..][..q];
                        for (cj, bj) in crow.iter_mut().zip(brow.iter()) {
                            *cj += aik * *bj;
                        }
                        k += 1;
                    }
                }
                kk = k_end;
            }
            ii = i_end;
        }
    }

    /// Every runnable SIMD kernel (all of [`available`] but scalar).
    fn simd_kernels() -> Vec<&'static Kernel> {
        available().into_iter().filter(|k| k.name() != "scalar").collect()
    }

    #[test]
    fn simd_matches_scalar_on_tail_sizes() {
        let scalar = by_name("scalar").expect("always available");
        for simd in simd_kernels() {
            for q in [1usize, 3, 5, 7, 33, 80] {
                let a = random_block(q, 4);
                let b = random_block(q, 5);
                let mut c1 = Block::zeros(q);
                let mut c2 = Block::zeros(q);
                c1.gemm_acc_with(simd, &a, &b);
                c2.gemm_acc_with(scalar, &a, &b);
                assert!(
                    c1.max_abs_diff(&c2) <= tol(q, a.as_slice(), b.as_slice()),
                    "{} and scalar kernels diverge at q = {q}",
                    simd.name()
                );
            }
        }
    }

    /// The AVX-512 and AVX2 kernels, or `None` (saying so) on a CPU that
    /// cannot run both.
    fn avx512_and_avx2() -> Option<(&'static Kernel, &'static Kernel)> {
        match (by_name("avx512"), by_name("avx2")) {
            (Ok(wide), Ok(narrow)) => Some((wide, narrow)),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("skipping the avx512 ≡ avx2 check: {e}");
                None
            }
        }
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// `C += alpha · A · B` through `kernel`'s per-call and prepacked
    /// entries; the two must agree bit for bit, and the result is returned.
    #[allow(clippy::too_many_arguments)]
    fn both_entries(
        kernel: &Kernel,
        c: &[f64],
        a: &[f64],
        b: &[f64],
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
    ) -> Vec<u64> {
        let mut per_call = c.to_vec();
        kernel.gemm_acc(&mut per_call, a, b, m, n, k, alpha);
        let mut prepacked = c.to_vec();
        let mut bp = PackedB::new();
        kernel.pack_into(&mut bp, b, k, n, alpha);
        kernel.gemm_acc_packed(&mut prepacked, a, &bp, m);
        assert_eq!(
            bits(&per_call),
            bits(&prepacked),
            "kernel {}: prepacked diverges from per-call at {m}x{n}x{k}",
            kernel.name()
        );
        bits(&per_call)
    }

    #[test]
    fn avx512_is_bit_identical_to_avx2_on_square_blocks() {
        // Sides on, below and past both tiles (8 rows, 16 columns) and
        // the paper-scale q = 80.
        let Some((wide, narrow)) = avx512_and_avx2() else { return };
        for q in [1usize, 3, 5, 7, 8, 9, 15, 16, 17, 20, 33, 80] {
            let a = seeded(q * q, 51);
            let b = seeded(q * q, 52);
            let c = seeded(q * q, 53);
            assert_eq!(
                both_entries(wide, &c, &a, &b, q, q, q, 1.0),
                both_entries(narrow, &c, &a, &b, q, q, q, 1.0),
                "avx512 and avx2 differ at q = {q}"
            );
        }
    }

    #[test]
    fn avx512_is_bit_identical_to_avx2_past_the_strip_and_block_thresholds() {
        // kc stripping and NC-block splitting cut the k and n ranges at
        // different points for 8- and 16-wide panels; the FMA chain per
        // element must not notice.
        let Some((wide, narrow)) = avx512_and_avx2() else { return };
        for (m, n, k) in [(9usize, 520usize, 260usize), (3, 525, 5), (17, 530, 270)] {
            let a = seeded(m * k, 54);
            let b = seeded(k * n, 55);
            let c = seeded(m * n, 56);
            assert_eq!(
                both_entries(wide, &c, &a, &b, m, n, k, -1.0),
                both_entries(narrow, &c, &a, &b, m, n, k, -1.0),
                "avx512 and avx2 differ at {m}x{n}x{k}"
            );
        }
    }

    #[test]
    fn a_pack_for_one_simd_kernel_panics_in_the_other() {
        let Some((wide, narrow)) = avx512_and_avx2() else { return };
        for (packer, consumer) in [(narrow, wide), (wide, narrow)] {
            let mut bp = PackedB::new();
            packer.pack_into(&mut bp, &[1.0; 4], 2, 2, 1.0);
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut c = vec![0.0; 4];
                consumer.gemm_acc_packed(&mut c, &[1.0; 4], &bp, 2);
            }));
            assert!(
                res.is_err(),
                "a {} pack must not be fed to the {} kernel",
                packer.name(),
                consumer.name()
            );
        }
    }

    proptest! {
        /// SIMD vs scalar within the `q · ‖A‖ · ‖B‖ · ε` bound, at sizes
        /// straddling the 4×8 and 8×16 register tiles and the 32-wide
        /// cache tile.
        #[test]
        fn prop_simd_matches_scalar(q in 1usize..48, seed in 0u64..500) {
            let scalar = by_name("scalar").expect("always available");
            for simd in simd_kernels() {
                let a = seeded(q * q, seed);
                let b = seeded(q * q, seed + 1);
                let mut c1 = seeded(q * q, seed + 2);
                let mut c2 = c1.clone();
                simd.gemm_acc(&mut c1, &a, &b, q, q, q, 1.0);
                scalar.gemm_acc(&mut c2, &a, &b, q, q, q, 1.0);
                prop_assert!(max_abs_diff(&c1, &c2) <= tol(q, &a, &b));
            }
        }

        /// Rectangular + alpha = -1 equivalence (the `Dense::sub_mul` shape).
        #[test]
        fn prop_simd_matches_scalar_rect(m in 1usize..20, n in 1usize..20,
                                         k in 1usize..20, seed in 0u64..200) {
            let scalar = by_name("scalar").expect("always available");
            for simd in simd_kernels() {
                let a = seeded(m * k, seed);
                let b = seeded(k * n, seed + 1);
                let mut c1 = seeded(m * n, seed + 2);
                let mut c2 = c1.clone();
                simd.gemm_acc(&mut c1, &a, &b, m, n, k, -1.0);
                scalar.gemm_acc(&mut c2, &a, &b, m, n, k, -1.0);
                prop_assert!(max_abs_diff(&c1, &c2) <= tol(k, &a, &b));
            }
        }

        /// avx512 ≡ avx2 bit for bit on rectangular shapes with
        /// alpha = -1 (the `Dense::sub_mul` shape), through both the
        /// per-call and the prepacked entries.
        #[test]
        fn prop_avx512_is_bit_identical_to_avx2_rect(m in 1usize..40, n in 1usize..40,
                                                     k in 1usize..40, seed in 0u64..200) {
            let Some((wide, narrow)) = avx512_and_avx2() else { return Ok(()) };
            let a = seeded(m * k, seed);
            let b = seeded(k * n, seed + 1);
            let c = seeded(m * n, seed + 2);
            prop_assert_eq!(
                both_entries(wide, &c, &a, &b, m, n, k, -1.0),
                both_entries(narrow, &c, &a, &b, m, n, k, -1.0)
            );
        }
    }
}
