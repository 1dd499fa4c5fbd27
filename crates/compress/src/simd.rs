//! Runtime-dispatched SIMD decode kernels.
//!
//! The scalar kernels in [`crate::bits`] are the portable, always-correct
//! reference; this module adds `std::arch` implementations of the two hot
//! decode loops auto-dispatch runs — bit-unpack and the base-add of a page's
//! value map — on the tier detected once per process.
//!
//! Dispatch contract:
//!
//! * [`active_tier`] is detected once; `RODB_FORCE_SCALAR=1` pins scalar.
//! * Every kernel is a *pure drop-in* for its scalar counterpart: identical
//!   output bits for every input, including word-straddling widths and
//!   non-multiple-of-8 tails. Tails always run through the single shared
//!   scalar tail loop (`bits::unpack_generic`) so the two paths
//!   cannot diverge.
//! * The simulated-CPU cost model stays calibrated against the *scalar*
//!   kernels: modeled cycle charges are unchanged by the tier that actually
//!   ran, so oracle tests and modeled-CPU gates are byte-for-byte stable
//!   across hosts.
//!
//! Kernel geometry: 8 codes of width `w` occupy exactly `w` bytes, so every
//! 8-code group of a byte-aligned run starts on a byte boundary. The AVX2
//! unpack loads two 16-byte windows per group (lanes 0..3 from the group
//! base, lanes 4..7 from `base + 4w/8` bytes so shuffle indices stay < 16),
//! shuffles each code's 4 candidate bytes into a 32-bit lane, then shifts
//! and masks per lane — valid for `w ≤ 25` (bit offset within a lane is at
//! most `7 + 25 = 32`). Widths 26..=31 stay scalar (rare); width 32 is a
//! widening copy.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::bits::{unpack_generic, BLOCK};

/// One level of the runtime dispatch table, ordered weakest to strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelTier {
    /// Portable scalar kernels (the reference implementation).
    Scalar,
    /// x86_64 SSE2: widening unpacks for byte-aligned widths (8/16/32) only.
    Sse2,
    /// x86_64 AVX2: shuffle-based unpack for widths 1..=25, widening for 32,
    /// plus the base-add.
    Avx2,
    /// aarch64 NEON: `tbl`-based unpack mirroring the AVX2 scheme.
    Neon,
}

impl KernelTier {
    pub fn name(&self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Sse2 => "sse2",
            KernelTier::Avx2 => "avx2",
            KernelTier::Neon => "neon",
        }
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Blocks decoded by a non-scalar kernel since process start (telemetry for
/// benches and the metrics registry; not part of the cost model).
static SIMD_BLOCKS: AtomicU64 = AtomicU64::new(0);

/// The best tier for this host, honouring `RODB_FORCE_SCALAR=1` (any
/// non-empty value other than `0` pins scalar).
fn detect_tier() -> KernelTier {
    if let Ok(v) = std::env::var("RODB_FORCE_SCALAR") {
        if !v.is_empty() && v != "0" {
            return KernelTier::Scalar;
        }
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            return KernelTier::Avx2;
        }
        if is_x86_feature_detected!("sse2") {
            return KernelTier::Sse2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return KernelTier::Neon;
        }
    }
    KernelTier::Scalar
}

/// The tier every kernel call uses: detected once, stable for the life of
/// the process.
pub fn active_tier() -> KernelTier {
    static ACTIVE: OnceLock<KernelTier> = OnceLock::new();
    *ACTIVE.get_or_init(detect_tier)
}

/// Blocks decoded through a SIMD kernel so far (process-wide).
pub fn simd_blocks_decoded() -> u64 {
    SIMD_BLOCKS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Shuffle / shift tables (x86_64). Built at compile time per width.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// vpshufb control for width `w`: lane `j` of each 128-bit half selects
    /// the 4 bytes containing code `j` (low half: codes 0..4 from the group
    /// base; high half: codes 4..8 from `base + (4w)/8`).
    const fn ctrl_for(w: usize) -> [u8; 32] {
        let mut c = [0u8; 32];
        let hb = (4 * w) / 8;
        let mut j = 0;
        while j < 4 {
            let bl = (j * w) / 8;
            let bh = ((j + 4) * w) / 8 - hb;
            let mut k = 0;
            while k < 4 {
                c[j * 4 + k] = (bl + k) as u8;
                c[16 + j * 4 + k] = (bh + k) as u8;
                k += 1;
            }
            j += 1;
        }
        c
    }

    /// Per-lane right-shift counts: code `j` starts at bit `(j·w) mod 8` of
    /// its first selected byte.
    const fn shifts_for(w: usize) -> [u32; 8] {
        let mut s = [0u32; 8];
        let mut j = 0;
        while j < 8 {
            s[j] = ((j * w) % 8) as u32;
            j += 1;
        }
        s
    }

    const fn build_ctrl() -> [[u8; 32]; 26] {
        let mut t = [[0u8; 32]; 26];
        let mut w = 1;
        while w <= 25 {
            t[w] = ctrl_for(w);
            w += 1;
        }
        t
    }

    const fn build_shifts() -> [[u32; 8]; 26] {
        let mut t = [[0u32; 8]; 26];
        let mut w = 1;
        while w <= 25 {
            t[w] = shifts_for(w);
            w += 1;
        }
        t
    }

    static CTRL: [[u8; 32]; 26] = build_ctrl();
    static SHIFTS: [[u32; 8]; 26] = build_shifts();

    /// AVX2 shuffle unpack for widths 1..=25. Returns how many codes were
    /// decoded (a multiple of 8); the caller finishes the rest through the
    /// shared scalar tail. Groups whose 16-byte loads would read past
    /// `src.len()` are left to the tail — full blocks mid-page always have
    /// the slack, only a block flush against the end of a buffer doesn't.
    #[target_feature(enable = "avx2")]
    pub unsafe fn unpack_block_avx2(src: &[u8], w: usize, out: &mut [u64; BLOCK]) -> usize {
        debug_assert!((1..=25).contains(&w));
        let hb = (4 * w) / 8;
        let ctrl = _mm256_loadu_si256(CTRL[w].as_ptr() as *const __m256i);
        let shifts = _mm256_loadu_si256(SHIFTS[w].as_ptr() as *const __m256i);
        let mask = _mm256_set1_epi32(((1u64 << w) - 1) as u32 as i32);
        let mut g = 0usize;
        while g < 16 {
            let off = g * w;
            if off + hb + 16 > src.len() {
                break;
            }
            // SAFETY: both 16-byte windows verified in-bounds just above.
            let lo = _mm_loadu_si128(src.as_ptr().add(off) as *const __m128i);
            let hi = _mm_loadu_si128(src.as_ptr().add(off + hb) as *const __m128i);
            let v = _mm256_set_m128i(hi, lo);
            let shuf = _mm256_shuffle_epi8(v, ctrl);
            let codes = _mm256_and_si256(_mm256_srlv_epi32(shuf, shifts), mask);
            let lo4 = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(codes));
            let hi4 = _mm256_cvtepu32_epi64(_mm256_extracti128_si256(codes, 1));
            _mm256_storeu_si256(out.as_mut_ptr().add(g * 8) as *mut __m256i, lo4);
            _mm256_storeu_si256(out.as_mut_ptr().add(g * 8 + 4) as *mut __m256i, hi4);
            g += 1;
        }
        g * 8
    }

    /// AVX2 width-32 unpack: pure widening copy, reads exactly `16·32` bytes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn unpack_block32_avx2(src: &[u8], out: &mut [u64; BLOCK]) -> usize {
        debug_assert!(src.len() >= 16 * 32);
        for g in 0..16 {
            let a = _mm_loadu_si128(src.as_ptr().add(g * 32) as *const __m128i);
            let b = _mm_loadu_si128(src.as_ptr().add(g * 32 + 16) as *const __m128i);
            let qa = _mm256_cvtepu32_epi64(a);
            let qb = _mm256_cvtepu32_epi64(b);
            _mm256_storeu_si256(out.as_mut_ptr().add(g * 8) as *mut __m256i, qa);
            _mm256_storeu_si256(out.as_mut_ptr().add(g * 8 + 4) as *mut __m256i, qb);
        }
        BLOCK
    }

    /// Store 4 u32 lanes of `d` as 4 zero-extended u64s.
    #[target_feature(enable = "sse2")]
    unsafe fn widen_store4(d: __m128i, out: *mut u64) {
        let zero = _mm_setzero_si128();
        _mm_storeu_si128(out as *mut __m128i, _mm_unpacklo_epi32(d, zero));
        _mm_storeu_si128(out.add(2) as *mut __m128i, _mm_unpackhi_epi32(d, zero));
    }

    /// SSE2 widening unpack for the byte-aligned widths 8/16/32 (SSE2 has no
    /// per-lane variable shift, so sub-byte widths stay scalar on this tier).
    /// Reads exactly `16·w` bytes. Returns `BLOCK` or 0 (unsupported width).
    #[target_feature(enable = "sse2")]
    pub unsafe fn unpack_block_sse2(src: &[u8], w: usize, out: &mut [u64; BLOCK]) -> usize {
        debug_assert!(src.len() >= 16 * w);
        let zero = _mm_setzero_si128();
        match w {
            8 => {
                for i in 0..8 {
                    let v = _mm_loadu_si128(src.as_ptr().add(i * 16) as *const __m128i);
                    let w0 = _mm_unpacklo_epi8(v, zero);
                    let w1 = _mm_unpackhi_epi8(v, zero);
                    widen_store4(_mm_unpacklo_epi16(w0, zero), out.as_mut_ptr().add(i * 16));
                    widen_store4(
                        _mm_unpackhi_epi16(w0, zero),
                        out.as_mut_ptr().add(i * 16 + 4),
                    );
                    widen_store4(
                        _mm_unpacklo_epi16(w1, zero),
                        out.as_mut_ptr().add(i * 16 + 8),
                    );
                    widen_store4(
                        _mm_unpackhi_epi16(w1, zero),
                        out.as_mut_ptr().add(i * 16 + 12),
                    );
                }
                BLOCK
            }
            16 => {
                for i in 0..16 {
                    let v = _mm_loadu_si128(src.as_ptr().add(i * 16) as *const __m128i);
                    widen_store4(_mm_unpacklo_epi16(v, zero), out.as_mut_ptr().add(i * 8));
                    widen_store4(_mm_unpackhi_epi16(v, zero), out.as_mut_ptr().add(i * 8 + 4));
                }
                BLOCK
            }
            32 => {
                for i in 0..32 {
                    let v = _mm_loadu_si128(src.as_ptr().add(i * 16) as *const __m128i);
                    widen_store4(v, out.as_mut_ptr().add(i * 4));
                }
                BLOCK
            }
            _ => 0,
        }
    }

    /// Truncate 8 u64 codes (two 256-bit loads) to 8 u32 lanes of one ymm.
    #[target_feature(enable = "avx2")]
    unsafe fn pack_codes8(codes: *const u64) -> __m256i {
        let a = _mm256_loadu_si256(codes as *const __m256i);
        let b = _mm256_loadu_si256(codes.add(4) as *const __m256i);
        // Even dwords of each u64 (the low halves) gathered to one half.
        let even = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
        let pa = _mm256_permutevar8x32_epi32(a, even);
        let pb = _mm256_permutevar8x32_epi32(b, even);
        _mm256_blend_epi32(pa, pb, 0b1111_0000)
    }

    /// `out[i] = (base + codes[i]) as i32` for 8-code groups; the scalar
    /// remainder is handled by the caller-visible wrapper.
    #[target_feature(enable = "avx2")]
    pub unsafe fn base_add_avx2(codes: &[u64], base: i64, out: &mut [i32]) {
        debug_assert_eq!(codes.len(), out.len());
        // Truncation commutes with addition mod 2^32, so adding the low 32
        // bits of `base` lane-wise equals `(base + code) as i32`.
        let b = _mm256_set1_epi32(base as i32);
        let n8 = codes.len() / 8 * 8;
        let mut i = 0;
        while i < n8 {
            let v = _mm256_add_epi32(pack_codes8(codes.as_ptr().add(i)), b);
            _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, v);
            i += 8;
        }
        for k in n8..codes.len() {
            out[k] = (base.wrapping_add(codes[k] as i64)) as i32;
        }
    }
}

// ---------------------------------------------------------------------------
// NEON (aarch64): same geometry as AVX2 but in 4-code groups. A 4-code group
// starts at bit 4·g·w, which is byte-aligned only for even widths; for odd
// widths the in-byte remainder alternates between 0 and 4 with g, so the
// shuffle/shift tables carry both phases.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::*;
    use core::arch::aarch64::*;

    /// tbl control for (width, phase): lane `j` selects the 4 bytes holding
    /// the code starting at bit `phase + j·w` of the loaded window.
    const fn ctrl_for(w: usize, r: usize) -> [u8; 16] {
        let mut c = [0u8; 16];
        let mut j = 0;
        while j < 4 {
            let b = (r + j * w) / 8;
            let mut k = 0;
            while k < 4 {
                c[j * 4 + k] = (b + k) as u8;
                k += 1;
            }
            j += 1;
        }
        c
    }

    /// Negative per-lane shift counts for `vshlq_u32` (negative = right).
    const fn shifts_for(w: usize, r: usize) -> [i32; 4] {
        let mut s = [0i32; 4];
        let mut j = 0;
        while j < 4 {
            s[j] = -(((r + j * w) % 8) as i32);
            j += 1;
        }
        s
    }

    const fn build_ctrl() -> [[[u8; 16]; 2]; 26] {
        let mut t = [[[0u8; 16]; 2]; 26];
        let mut w = 1;
        while w <= 25 {
            t[w][0] = ctrl_for(w, 0);
            t[w][1] = ctrl_for(w, 4);
            w += 1;
        }
        t
    }

    const fn build_shifts() -> [[[i32; 4]; 2]; 26] {
        let mut t = [[[0i32; 4]; 2]; 26];
        let mut w = 1;
        while w <= 25 {
            t[w][0] = shifts_for(w, 0);
            t[w][1] = shifts_for(w, 4);
            w += 1;
        }
        t
    }

    static CTRL: [[[u8; 16]; 2]; 26] = build_ctrl();
    static SHIFTS: [[[i32; 4]; 2]; 26] = build_shifts();

    /// NEON shuffle unpack for widths 1..=25, 4 codes per group. Returns the
    /// number of codes decoded (multiple of 4); the shared scalar tail
    /// finishes groups whose 16-byte load would overrun `src`.
    pub unsafe fn unpack_block_neon(src: &[u8], w: usize, out: &mut [u64; BLOCK]) -> usize {
        debug_assert!((1..=25).contains(&w));
        let mask = vdupq_n_u32(((1u64 << w) - 1) as u32);
        let mut g = 0usize;
        while g < 32 {
            let bit = 4 * g * w;
            let base = bit / 8;
            if base + 16 > src.len() {
                break;
            }
            let phase = (bit % 8) / 4; // 0 or 4, see module comment
            let v = vld1q_u8(src.as_ptr().add(base));
            let shuf = vqtbl1q_u8(v, vld1q_u8(CTRL[w][phase].as_ptr()));
            let lanes = vreinterpretq_u32_u8(shuf);
            let shifted = vshlq_u32(lanes, vld1q_s32(SHIFTS[w][phase].as_ptr()));
            let codes = vandq_u32(shifted, mask);
            vst1q_u64(out.as_mut_ptr().add(g * 4), vmovl_u32(vget_low_u32(codes)));
            vst1q_u64(
                out.as_mut_ptr().add(g * 4 + 2),
                vmovl_u32(vget_high_u32(codes)),
            );
            g += 1;
        }
        g * 4
    }

    /// NEON width-32 unpack: widening copy, reads exactly `16·32` bytes.
    pub unsafe fn unpack_block32_neon(src: &[u8], out: &mut [u64; BLOCK]) -> usize {
        for g in 0..32 {
            let v = vld1q_u32(src.as_ptr().add(g * 16) as *const u32);
            vst1q_u64(out.as_mut_ptr().add(g * 4), vmovl_u32(vget_low_u32(v)));
            vst1q_u64(out.as_mut_ptr().add(g * 4 + 2), vmovl_u32(vget_high_u32(v)));
        }
        BLOCK
    }
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

/// Unpack one full byte-aligned [`BLOCK`] through `tier`'s kernel. Returns
/// false when the tier has no kernel for `bits` (caller runs scalar).
/// `src` starts at the block's first byte and holds at least `16 × bits`
/// bytes (the caller's hoisted bounds check).
fn unpack_block_with_tier(tier: KernelTier, src: &[u8], bits: u8, out: &mut [u64; BLOCK]) -> bool {
    let w = bits as usize;
    let done = match tier {
        KernelTier::Scalar => return false,
        #[cfg(target_arch = "x86_64")]
        // SAFETY: tier selection guarantees the feature is present.
        KernelTier::Avx2 => unsafe {
            match w {
                1..=25 => x86::unpack_block_avx2(src, w, out),
                32 => x86::unpack_block32_avx2(src, out),
                _ => return false,
            }
        },
        #[cfg(target_arch = "x86_64")]
        KernelTier::Sse2 => unsafe {
            match w {
                8 | 16 | 32 => x86::unpack_block_sse2(src, w, out),
                _ => return false,
            }
        },
        #[cfg(target_arch = "aarch64")]
        KernelTier::Neon => unsafe {
            match w {
                1..=25 => arm::unpack_block_neon(src, w, out),
                32 => arm::unpack_block32_neon(src, out),
                _ => return false,
            }
        },
        #[allow(unreachable_patterns)]
        _ => return false,
    };
    if done == 0 {
        return false;
    }
    if done < BLOCK {
        // Shared scalar tail: the same loop partial blocks take, so SIMD and
        // scalar cannot diverge on the stragglers.
        unpack_generic(src, done * w, bits, &mut out[done..]);
    }
    SIMD_BLOCKS.fetch_add(1, Ordering::Relaxed);
    true
}

/// Block unpack on the active tier (the [`crate::bits::BitReader::unpack`]
/// hook).
#[inline]
pub fn unpack_block(src: &[u8], bits: u8, out: &mut [u64; BLOCK]) -> bool {
    unpack_block_with_tier(active_tier(), src, bits, out)
}

/// `out[i] = (base + codes[i]) as i32` on the active tier — the base-add of
/// a page's value map. Returns false when the tier has no kernel (caller
/// runs scalar).
#[inline]
pub fn base_add(codes: &[u64], base: i64, out: &mut [i32]) -> bool {
    debug_assert_eq!(codes.len(), out.len());
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the active tier is AVX2 only on a host that has it.
        KernelTier::Avx2 => {
            unsafe { x86::base_add_avx2(codes, base, out) };
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::{BitReader, BitWriter};

    /// Deterministic pattern hitting low/high/alternating bits (mirrors the
    /// generator in `bits.rs` tests).
    fn pattern(i: usize, bits: u8) -> u64 {
        let mask = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(i as u32 % 64)
            & mask
    }

    /// Tiers with actual unpack kernels on this host (scalar is the baseline
    /// the others are compared against).
    fn simd_tiers() -> Vec<KernelTier> {
        let available = |t: &KernelTier| match t {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Sse2 => is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            KernelTier::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            _ => false,
        };
        [KernelTier::Sse2, KernelTier::Avx2, KernelTier::Neon]
            .into_iter()
            .filter(available)
            .collect()
    }

    fn pack(values: &[u64], bits: u8) -> Vec<u8> {
        let mut w = BitWriter::new();
        for &v in values {
            w.write(v, bits).unwrap();
        }
        w.into_bytes()
    }

    /// Core equivalence harness: SIMD output must be bit-identical to the
    /// scalar kernel for one full block packed at the head of `bytes`.
    fn check_block(tier: KernelTier, bytes: &[u8], bits: u8, expect: &[u64]) {
        let mut out = [0u64; BLOCK];
        if !unpack_block_with_tier(tier, bytes, bits, &mut out) {
            return; // tier has no kernel for this width — scalar path covers it
        }
        assert_eq!(&out[..], expect, "tier {tier} width {bits}");
    }

    #[test]
    fn simd_unpack_matches_scalar_all_widths() {
        for tier in simd_tiers() {
            for bits in 1..=32u8 {
                // Random-ish pattern, exactly one block (worst case for the
                // over-read guard: no slack after the block).
                let vals: Vec<u64> = (0..BLOCK).map(|i| pattern(i, bits)).collect();
                let bytes = pack(&vals, bits);
                assert_eq!(bytes.len(), 16 * bits as usize);
                check_block(tier, &bytes, bits, &vals);

                // Same block with trailing slack (the mid-page shape).
                let mut padded = bytes.clone();
                padded.extend_from_slice(&[0xAA; 32]);
                check_block(tier, &padded, bits, &vals);

                // Adversarial contents: all zeros, all max.
                let zeros = vec![0u64; BLOCK];
                check_block(tier, &pack(&zeros, bits), bits, &zeros);
                let max = if bits == 64 {
                    u64::MAX
                } else {
                    (1u64 << bits) - 1
                };
                let maxed = vec![max; BLOCK];
                check_block(tier, &pack(&maxed, bits), bits, &maxed);
            }
        }
    }

    #[test]
    fn simd_unpack_through_bitreader_multi_block() {
        // Drive through the public BitReader::unpack (the dispatch point, on
        // the active tier): several blocks plus a 1-element tail,
        // word-straddling widths included.
        for bits in [1u8, 3, 5, 7, 11, 13, 16, 17, 23, 25, 26, 31, 32] {
            let n = BLOCK * 3 + 1;
            let vals: Vec<u64> = (0..n).map(|i| pattern(i, bits)).collect();
            let bytes = pack(&vals, bits);
            let r = BitReader::new(&bytes);
            let mut out = vec![0u64; n];
            let mut first = 0;
            while first < n {
                let take = BLOCK.min(n - first);
                r.unpack(first, bits, &mut out[first..first + take])
                    .unwrap();
                first += take;
            }
            assert_eq!(out, vals, "tier {} width {bits}", active_tier());
        }
    }

    #[test]
    fn base_add_matches_scalar() {
        for n in [1usize, 7, 8, 9, 100, BLOCK] {
            let codes: Vec<u64> = (0..n).map(|i| pattern(i, 20)).collect();
            // Including a base that overflows i32.
            for base in [0i64, -5, 1 << 33, i64::MAX - 3] {
                let mut simd = vec![0i32; n];
                if base_add(&codes, base, &mut simd) {
                    let scalar: Vec<i32> = codes
                        .iter()
                        .map(|&c| base.wrapping_add(c as i64) as i32)
                        .collect();
                    assert_eq!(simd, scalar, "tier {} base {base} n {n}", active_tier());
                }
            }
        }
    }

    #[test]
    fn the_tier_is_detected_once_and_scalar_has_no_kernel() {
        assert_eq!(active_tier(), detect_tier());
        assert_eq!(active_tier(), active_tier());
        let mut out = [0u64; BLOCK];
        assert!(!unpack_block_with_tier(
            KernelTier::Scalar,
            &[0u8; 16 * 8],
            8,
            &mut out
        ));
    }
}
