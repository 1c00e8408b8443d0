//! Cache-blocked packed B-panel layout, the macro loop that walks it,
//! plus the process-wide pack counter. Shared by every SIMD kernel: a
//! kernel supplies only its register tile ([`Tile`]: `MR × NR` and the
//! microkernel), so the layout and the loop exist once.
//!
//! B (`k × n`, row-major) is repacked into a Goto-style blocked layout:
//! the column range is cut into [`NC`]-wide *blocks*, each block into
//! [`KC`]-deep *strips*, and each strip into `nr`-column *panels* stored
//! k-major — panel element `(kk, j)` of a strip lives at `kk·nr + j`
//! inside its panel. The panel width `nr` is the consuming kernel's
//! [`Tile::NR`] (8 for AVX2, 16 for AVX-512), so packs made for one
//! kernel are not laid out for another. The macro loop then walks one kc
//! strip at a time: an `MR`-row A stripe (`8·KC·8 B` ≈ 12 KiB at most)
//! and the current panel (`KC·16·8 B` ≈ 24 KiB at most) both sit in L1
//! while the full strip (`KC·NC·8 B` ≲ 0.8 MiB) stays resident in L2
//! across every A stripe — the "kc-blocked pack" the roadmap called for,
//! which keeps large-q updates (q ≫ 200, where a flat pack of B
//! overflows L2) on the same GFLOP/s plateau as q ≈ 80.
//!
//! The image starts at the buffer's first 64-byte boundary, so no panel
//! load splits a cache line. Every slot of the image is written on each
//! pack — live columns from B, tail-panel padding explicitly zeroed — so
//! a recycled buffer (which is *not* re-zeroed on resize) can be repacked
//! to any smaller or larger shape without stale values leaking into the
//! zero padding. The `prop_repack_after_larger_shape_is_clean` proptest
//! pins this.
//!
//! The last panel of a block is zero-padded to full `nr` width, so the
//! microkernel never needs a masked load; padded columns contribute exact
//! zeros that the caller discards. Folding `alpha` into the pack keeps
//! the multiply out of the FMA inner loop (and is exact for the `±1.0`
//! used in-tree).
//!
//! Accumulation order over `k` is increasing for every C element — kc
//! strips are visited in increasing k order and the store/reload of the C
//! tile between strips is exact — so every tile shape computes each C
//! element as the same chain of fused multiply-adds: the AVX2 and
//! AVX-512 kernels are bit-identical to each other, and differ from the
//! scalar kernel only by FMA's unrounded multiplies, within
//! `k · ‖A‖ · ‖B‖ · ε` elementwise.
//!
//! The per-call pack buffer is thread-local and grows to a high-water
//! mark, so `gemm_acc` stays allocation-free at steady state; prepacked
//! reuse goes through [`super::PackedB`], which owns its buffer outright.

use std::cell::RefCell;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Strip depth in k when stripping is needed: one `KC × 16` panel is
/// ~24 KiB and one 8-row A stripe is ~12 KiB, so panel + stripe fit L1
/// together; a full `KC × NC` strip is ~0.8 MiB, resident in L2 across
/// the whole i loop.
pub(super) const KC: usize = 192;

/// Block width in columns (a multiple of every kernel's `NR`): bounds the
/// L2 footprint of one packed strip at `KC · NC · 8` bytes.
pub(super) const NC: usize = 512;

/// L2 budget for one resident packed strip: half of a typical 2 MiB L2,
/// leaving the other half for the A and C streams passing through.
const STRIP_L2_BUDGET_BYTES: usize = 1 << 20;

/// Largest `MR · NR` of any tile: the column-tail scratch tile's size.
const MAX_TILE: usize = 8 * 16;

/// Alignment of the packed image inside its buffer: one cache line, so
/// no panel load (one ZMM or two YMM vectors per k row) straddles two
/// lines. Worth ~5% of kernel rate at q = 80 over the allocator's
/// 16-byte alignment.
const IMAGE_ALIGN: usize = 64;

/// Spare elements a pack buffer carries so its image can start at the
/// first [`IMAGE_ALIGN`] boundary wherever the allocator placed it.
const ALIGN_SLACK: usize = IMAGE_ALIGN / std::mem::size_of::<f64>() - 1;

/// A register-tile microkernel over the blocked layout: what a SIMD
/// kernel adds to the shared pack and macro loop.
pub(super) trait Tile {
    /// Rows of C per register tile.
    const MR: usize;
    /// Columns of C per register tile, and the packed panel width.
    const NR: usize;

    /// `C[0..mr][0..NR] += A[0..mr][0..kc] · panel` for `1 ≤ mr ≤ MR`:
    /// `c` holds `mr` rows `ldc` apart, `a` points at the stripe's first
    /// element of this kc strip (rows `lda` apart), and `panel` is one
    /// `kc × NR` k-major packed panel.
    ///
    /// # Safety
    /// The CPU must support the kernel's instruction set, and every
    /// pointer must cover the extents above.
    unsafe fn microkernel(
        mr: usize,
        c: *mut f64,
        ldc: usize,
        a: *const f64,
        lda: usize,
        kc: usize,
        panel: *const f64,
    );

    /// `C (m×n) += A (m×k) · bp`: [`gemm_blocked`] compiled with the
    /// kernel's target features, so the microkernel inlines into it.
    ///
    /// # Safety
    /// As for [`gemm_blocked`].
    unsafe fn gemm_packed(c: &mut [f64], a: &[f64], bp: &[f64], m: usize, n: usize, k: usize);
}

/// The strip depth used for a `k × n` B packed in `nr`-wide panels — the
/// single point of truth for both the pack layout and the macro loop
/// that consumes it.
///
/// Stripping the k range costs one extra C load+store pass per extra
/// strip, which only pays off once the panel no longer fits in L2. So:
/// one full-k strip while a whole-k strip of the widest column block
/// stays within the L2 budget (e.g. q ≤ ~400 square), [`KC`]-deep strips
/// beyond that (q ≫ 400, where the flat pack used to fall off the L2
/// cliff).
pub(super) fn kc_for(k: usize, n: usize, nr: usize) -> usize {
    let strip_width = n.min(NC).div_ceil(nr) * nr;
    if k * strip_width * 8 <= STRIP_L2_BUDGET_BYTES {
        k.max(1)
    } else {
        KC
    }
}

/// Process-wide count of B packs performed (any kernel, any thread).
/// Monotonic; benches snapshot it around a workload to report packs per
/// iteration, making repack elimination measurable rather than inferred.
static PACKS: AtomicU64 = AtomicU64::new(0);

/// Total B packs performed by this process so far (all threads).
pub fn pack_count() -> u64 {
    PACKS.load(Ordering::Relaxed)
}

/// Record one B pack. Called by every kernel's pack routine.
pub(super) fn count_pack() {
    PACKS.fetch_add(1, Ordering::Relaxed);
}

thread_local! {
    static PACK_BUF: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Total packed length for a `k × n` B in `nr`-wide panels: whole panels
/// of `k · nr`. (`NC` is a multiple of `nr`, so only the last panel of
/// the last block carries padding and the blocked length equals the
/// flat one.)
pub(super) fn packed_len(k: usize, n: usize, nr: usize) -> usize {
    n.div_ceil(nr) * k * nr
}

/// Where the `len`-element packed image starts in `buf`: its first
/// [`IMAGE_ALIGN`] boundary. Pack and macro loop both locate the image
/// through this, so it holds as long as the buffer is not reallocated in
/// between (a pack is consumed from the buffer it was written to).
fn image_offset(buf: &[f64], len: usize) -> std::ops::Range<usize> {
    let off = buf.as_ptr().align_offset(IMAGE_ALIGN);
    off..off + len
}

/// Pack `alpha · b` (`k × n`, row-major) into `out` in the blocked
/// layout: NC blocks → KC strips → `nr`-wide panels, k-major inside each
/// panel.
pub(super) fn pack_b(b: &[f64], k: usize, n: usize, alpha: f64, nr: usize, out: &mut Vec<f64>) {
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(NC % nr, 0, "blocks must hold whole panels");
    count_pack();
    // Grow-only at steady state: new capacity is zero-filled once, but
    // slots a previous pack wrote are NOT re-zeroed — the loops below
    // overwrite every slot (live columns from B, tail padding explicitly).
    // The slots outside the aligned image are never read.
    let len = packed_len(k, n, nr);
    out.resize(len + ALIGN_SLACK, 0.0);
    let image = image_offset(out, len);
    let out = &mut out[image];
    let kc = kc_for(k, n, nr);
    let mut block_base = 0;
    for j0c in (0..n).step_by(NC) {
        let ncb = NC.min(n - j0c);
        let panels = ncb.div_ceil(nr);
        for k0c in (0..k).step_by(kc) {
            let kcb = kc.min(k - k0c);
            // Strip `k0c` starts after the previous strips' panels, all
            // of which are `panels · nr` wide and together `k0c` deep.
            let strip = &mut out[block_base + panels * nr * k0c..][..panels * nr * kcb];
            for p in 0..panels {
                let j0 = j0c + p * nr;
                let live = nr.min(n - j0);
                let panel = &mut strip[p * kcb * nr..][..kcb * nr];
                for kk in 0..kcb {
                    let src = &b[(k0c + kk) * n + j0..][..live];
                    let dst = &mut panel[kk * nr..][..nr];
                    for (d, s) in dst[..live].iter_mut().zip(src) {
                        *d = alpha * *s;
                    }
                    for d in &mut dst[live..] {
                        *d = 0.0;
                    }
                }
            }
        }
        block_base += panels * nr * k;
    }
}

/// Dispatch-table pack entry for tile `T`: [`pack_b`] at `T`'s panel width.
pub(super) fn pack_b_for<T: Tile>(b: &[f64], k: usize, n: usize, alpha: f64, out: &mut Vec<f64>) {
    pack_b(b, k, n, alpha, T::NR, out);
}

/// Dispatch-table entry: `C += alpha · A · B`, packing B into the
/// thread-local buffer and running `T`'s packed macrokernel — the
/// pack-per-call path every [`gemm_acc_packed`] caller avoids repeating.
///
/// # Safety
/// The CPU must support `T`'s instruction set (guaranteed by `dispatch`
/// before this function pointer is ever handed out), and the slices must
/// have the advertised `m·n` / `m·k` / `k·n` lengths (checked by
/// [`super::Kernel::gemm_acc`]).
pub(super) unsafe fn gemm_acc<T: Tile>(
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
) {
    PACK_BUF.with(|buf| {
        let buf = &mut buf.borrow_mut();
        pack_b(b, k, n, alpha, T::NR, buf);
        // SAFETY: caller guarantees CPU support and slice shapes; the
        // buffer was just packed for `T` at `k × n`.
        unsafe { T::gemm_packed(c, a, buf, m, n, k) }
    })
}

/// Dispatch-table entry for the prepacked path: `C += A · bp` where `bp`
/// is a blocked pack produced for `T` (`alpha` already folded in at pack
/// time, so the trailing parameter is unused here).
///
/// # Safety
/// Same CPU requirement as [`gemm_acc`]; `bp` must be a buffer
/// [`pack_b_for::<T>`](pack_b_for) produced for a `k × n` B (checked by
/// [`super::Kernel::gemm_acc_packed`] via the pack identity), and `c`/`a`
/// must have the advertised `m·n` / `m·k` lengths.
pub(super) unsafe fn gemm_acc_packed<T: Tile>(
    c: &mut [f64],
    a: &[f64],
    bp: &[f64],
    m: usize,
    n: usize,
    k: usize,
    _alpha_folded_at_pack: f64,
) {
    // SAFETY: forwarded caller guarantees.
    unsafe { T::gemm_packed(c, a, bp, m, n, k) }
}

/// The blocked macro loop over a packed B buffer: column blocks → kc
/// strips → `MR`-row stripes → panels, `T`'s microkernel innermost.
/// Row tails (`m % MR`) run the microkernel at fewer rows; column tails
/// (`n % NR`) run it on a stack scratch tile whose live columns are
/// copied in and out around the call.
///
/// Always inlined, so each kernel's [`Tile::gemm_packed`] compiles it
/// under that kernel's target features.
///
/// # Safety
/// The CPU must support `T`'s instruction set; `c`, `a` must be `m·n`,
/// `m·k` long and `bp` must be the buffer [`pack_b`] filled with a
/// `k × n` image at `T::NR`.
#[inline(always)]
pub(super) unsafe fn gemm_blocked<T: Tile>(
    c: &mut [f64],
    a: &[f64],
    bp: &[f64],
    m: usize,
    n: usize,
    k: usize,
) {
    const { assert!(T::MR * T::NR <= MAX_TILE, "the scratch tile must hold a register tile") };
    // Bounds-checked: a buffer too short for the image panics here.
    let bp = &bp[image_offset(bp, packed_len(k, n, T::NR))];
    let kc = kc_for(k, n, T::NR);
    let mut block_base = 0;
    for j0c in (0..n).step_by(NC) {
        let ncb = NC.min(n - j0c);
        let panels = ncb.div_ceil(T::NR);
        for k0c in (0..k).step_by(kc) {
            let kcb = kc.min(k - k0c);
            // SAFETY (this block): every offset below stays inside the
            // slices whose lengths the caller guarantees — strips of this
            // block are laid out back to back, each `panels · NR` wide,
            // so strip `k0c` starts `panels·NR·k0c` in.
            unsafe {
                let strip = bp.as_ptr().add(block_base + panels * T::NR * k0c);
                let mut i0 = 0;
                while i0 < m {
                    let mr = T::MR.min(m - i0);
                    let a_stripe = a.as_ptr().add(i0 * k + k0c);
                    for p in 0..panels {
                        let j0 = j0c + p * T::NR;
                        let nr = T::NR.min(n - j0);
                        let panel = strip.add(p * kcb * T::NR);
                        if nr == T::NR {
                            // Full-width tile: accumulate straight into C.
                            let c_tile = c.as_mut_ptr().add(i0 * n + j0);
                            T::microkernel(mr, c_tile, n, a_stripe, k, kcb, panel);
                        } else {
                            // Column tail: stage the live columns through
                            // a scratch tile so the kernel always sees an
                            // NR-wide C. Exact loads/stores, so the staging
                            // never perturbs the accumulation. Only the
                            // `mr × NR` slots the kernel reads are written
                            // (live columns copied, padding zeroed).
                            let mut scratch = MaybeUninit::<[f64; MAX_TILE]>::uninit();
                            let tile = scratch.as_mut_ptr().cast::<f64>();
                            for r in 0..mr {
                                let row = tile.add(r * T::NR);
                                ptr::copy_nonoverlapping(c.as_ptr().add((i0 + r) * n + j0), row, nr);
                                ptr::write_bytes(row.add(nr), 0, T::NR - nr);
                            }
                            T::microkernel(mr, tile, T::NR, a_stripe, k, kcb, panel);
                            for r in 0..mr {
                                let row = tile.add(r * T::NR);
                                ptr::copy_nonoverlapping(row, c.as_mut_ptr().add((i0 + r) * n + j0), nr);
                            }
                        }
                    }
                    i0 += T::MR;
                }
            }
        }
        block_base += panels * T::NR * k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The panel widths of the in-tree kernels (AVX2, AVX-512).
    const WIDTHS: [usize; 2] = [8, 16];

    /// Pack into `out` and return the packed image.
    fn pack(b: &[f64], k: usize, n: usize, alpha: f64, nr: usize, out: &mut Vec<f64>) -> Vec<f64> {
        pack_b(b, k, n, alpha, nr, out);
        let image = &out[image_offset(out, packed_len(k, n, nr))];
        assert_eq!(image.as_ptr() as usize % IMAGE_ALIGN, 0, "image must be cache-line aligned");
        image.to_vec()
    }

    #[test]
    fn packs_panels_k_major_with_zero_padding() {
        // 2×10 B -> panels of 8: panel 0 full, panel 1 has 2 live columns.
        // (k ≤ KC and n ≤ NC: a single strip, so the blocked layout
        // coincides with a flat panel sequence.)
        let (k, n, nr) = (2, 10, 8);
        let b: Vec<f64> = (0..k * n).map(|x| x as f64).collect();
        let mut dirty = vec![f64::NAN; 64]; // padding must be cleared
        let out = pack(&b, k, n, 1.0, nr, &mut dirty);
        assert_eq!(out.len(), packed_len(k, n, nr));
        // Panel 0, row 0 = b[0..8]; row 1 = b[10..18].
        assert_eq!(&out[..8], &b[..8]);
        assert_eq!(&out[8..16], &b[10..18]);
        // Panel 1, row 0 = b[8], b[9], then six zeros.
        assert_eq!(&out[16..24], &[8.0, 9.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        // Panel 1, row 1 = b[18], b[19], then six zeros.
        assert_eq!(&out[24..32], &[18.0, 19.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn sixteen_wide_panels_pad_a_single_partial_panel() {
        // The same 2×10 B at nr = 16: one panel, ten live columns and six
        // zeros per k row.
        let (k, n, nr) = (2, 10, 16);
        let b: Vec<f64> = (0..k * n).map(|x| x as f64).collect();
        let out = pack(&b, k, n, 1.0, nr, &mut vec![f64::NAN; 64]);
        assert_eq!(out.len(), packed_len(k, n, nr));
        assert_eq!(&out[..10], &b[..10]);
        assert_eq!(&out[10..16], &[0.0; 6]);
        assert_eq!(&out[16..26], &b[10..20]);
        assert_eq!(&out[26..32], &[0.0; 6]);
    }

    #[test]
    fn alpha_is_folded_into_the_pack() {
        let b = vec![1.0, -2.0, 3.0];
        for nr in WIDTHS {
            let out = pack(&b, 1, 3, -1.0, nr, &mut Vec::new());
            assert_eq!(&out[..3], &[-1.0, 2.0, -3.0]);
        }
    }

    #[test]
    fn strip_depth_is_adaptive() {
        // Small B: one full-k strip (no extra C passes). Large B (a
        // whole-k strip would blow the L2 budget): KC-deep strips.
        for nr in WIDTHS {
            assert_eq!(kc_for(80, 80, nr), 80);
            assert_eq!(kc_for(320, 320, nr), 320);
            assert_eq!(kc_for(640, 640, nr), KC);
            assert_eq!(kc_for(4096, 4, nr), 4096); // deep but narrow: still one strip
        }
    }

    #[test]
    fn deep_packs_split_into_kc_strips() {
        // A shape past the L2 budget (300 × 512 ≈ 1.2 MiB): strip 1 must
        // start after strip 0's panels. Column 0 of row kk lives at
        // `kk·nr` within strip 0 and the first element of strip 1 is
        // B[KC][0] at offset `panels·nr·KC`.
        let (k, n) = (300usize, NC);
        let b: Vec<f64> = (0..k * n).map(|x| (x % 7919) as f64).collect();
        for nr in WIDTHS {
            assert_eq!(kc_for(k, n, nr), KC, "this shape must be stripped");
            let out = pack(&b, k, n, 1.0, nr, &mut Vec::new());
            assert_eq!(out.len(), packed_len(k, n, nr));
            let panels = n.div_ceil(nr);
            assert_eq!(out[0], b[0]);
            assert_eq!(out[nr], b[n]); // k-major within the strip
            assert_eq!(out[panels * nr * KC], b[KC * n]); // strip boundary
            // Last row of the last strip, panel 0.
            assert_eq!(out[panels * nr * KC + (k - 1 - KC) * nr], b[(k - 1) * n]);
        }
    }

    #[test]
    fn wide_packs_split_into_nc_blocks() {
        // n > NC: the second block's panels start after the first block's
        // full `NC × k` footprint.
        let n = NC + 5;
        let b: Vec<f64> = (0..n).map(|x| x as f64).collect();
        for nr in WIDTHS {
            let out = pack(&b, 1, n, 1.0, nr, &mut Vec::new());
            assert_eq!(out.len(), packed_len(1, n, nr));
            assert_eq!(out[0], 0.0);
            assert_eq!(out[NC], NC as f64); // first element of block 1
            assert_eq!(out[NC + 4], (NC + 4) as f64);
            assert_eq!(out[NC + 5], 0.0); // tail padding of the last panel
        }
    }

    #[test]
    fn recycled_buffer_is_clean_across_stripped_and_blocked_shapes() {
        // The proptest below covers small (single-strip, single-block)
        // shapes; this pins the same no-stale-slots guarantee across the
        // kc-strip and NC-block thresholds, in both directions: a
        // stripped pack into a buffer that held a multi-block pack, and
        // a small tail-panel pack into a buffer that held a stripped one.
        let wide = (NC + 13, 3usize); // (n, k): two column blocks
        let deep = (NC, 300usize); // kc-stripped (see strip_depth test)
        let small = (11usize, 5usize); // tail panel
        let shapes = [wide, deep, small, deep, wide];
        for nr in WIDTHS {
            let mut recycled = Vec::new();
            for (i, &(n, k)) in shapes.iter().enumerate() {
                let b: Vec<f64> = (0..k * n).map(|x| (x * 31 + i) as f64).collect();
                let from_recycled = pack(&b, k, n, 1.0, nr, &mut recycled);
                let fresh = pack(&b, k, n, 1.0, nr, &mut Vec::new());
                assert_eq!(from_recycled, fresh, "nr {nr}, shape {i} ({k}x{n}): recycled differs");
            }
        }
    }

    #[test]
    fn count_increments_per_pack() {
        let before = pack_count();
        let b = vec![1.0; 6];
        let mut out = Vec::new();
        pack_b(&b, 2, 3, 1.0, 8, &mut out);
        pack_b(&b, 3, 2, 1.0, 16, &mut out);
        assert!(pack_count() >= before + 2);
    }

    proptest! {
        /// Recycled-buffer regression: packing a smaller B into a buffer
        /// that previously held a larger pack must be indistinguishable
        /// from packing into a fresh buffer — `resize` does not re-zero
        /// surviving slots, so the tail-panel zero padding has to be
        /// written explicitly every time.
        #[test]
        fn prop_repack_after_larger_shape_is_clean(
            k1 in 1usize..40, n1 in 1usize..40,
            k2 in 1usize..40, n2 in 1usize..40,
            seed in 0..1000i64,
            width in 0usize..2,
        ) {
            let nr = WIDTHS[width];
            let big: Vec<f64> = (0..k1 * n1).map(|x| (seed + x as i64) as f64 + 0.5).collect();
            let small: Vec<f64> = (0..k2 * n2).map(|x| (seed - x as i64) as f64 - 0.25).collect();
            let mut recycled = Vec::new();
            pack(&big, k1, n1, 1.0, nr, &mut recycled);
            let from_recycled = pack(&small, k2, n2, 1.0, nr, &mut recycled);
            let fresh = pack(&small, k2, n2, 1.0, nr, &mut Vec::new());
            prop_assert_eq!(&from_recycled, &fresh);
        }
    }
}
