//! The CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB8_8320`) that seals
//! every page trailer and WAL frame — the one home of the checksum.
//!
//! Two tiers behind the one [`crc32`]:
//!
//! * **Slicing-by-16** ([`slice16`]), portable, the reference and the
//!   fallback. Sixteen 256-entry tables, where table *j* is table *j − 1*
//!   advanced by one zero byte, so `TABLES[j][b]` is the CRC contribution of
//!   byte `b` followed by *j* zero bytes. Sixteen input bytes are then folded
//!   in one step — sixteen independent look-ups XORed together — instead of
//!   sixteen dependent ones. 16 KB of tables, which stay resident in L1
//!   beside the page being summed.
//! * **Carry-less folding** (`fold`, x86_64 `pclmulqdq`). Four 128-bit lanes
//!   fold 64 input bytes per step, a fold-by-one loop takes the remaining
//!   16-byte blocks, a Barrett reduction brings the result to 32 bits, and
//!   [`slice16`] finishes the last < 16 bytes.
//!
//! The tier is picked once per process: folding when the decode kernels'
//! tier ([`rodb_compress::active_tier`]) is not `Scalar` and the CPU has
//! `pclmulqdq`, so `RODB_FORCE_SCALAR=1` and aarch64 keep the portable loop.
//! Inputs shorter than 64 bytes take the portable loop on every host.

const POLY: u32 = 0xEDB8_8320;

static TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        j += 1;
    }
    t
};

/// One byte through table 0 — the tail step, and the whole of the reference.
#[inline]
fn step(c: u32, b: u8) -> u32 {
    TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
}

/// CRC-32 (IEEE, reflected) — the page and WAL-frame checksum function.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if folds() {
        // SAFETY: `folds()` holds only on a CPU with `pclmulqdq`.
        return !unsafe { fold::update(!0, bytes) };
    }
    !slice16(!0, bytes)
}

/// Whether [`crc32`] folds: decided once per process.
#[cfg(target_arch = "x86_64")]
fn folds() -> bool {
    static FOLDS: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FOLDS.get_or_init(|| {
        rodb_compress::active_tier() != rodb_compress::KernelTier::Scalar
            && is_x86_feature_detected!("pclmulqdq")
    })
}

/// Slicing-by-16: advances the running (pre-inverted) state `c` over `bytes`.
fn slice16(mut c: u32, bytes: &[u8]) -> u32 {
    let mut strides = bytes.chunks_exact(16);
    for s in &mut strides {
        let w0 = u32::from_le_bytes([s[0], s[1], s[2], s[3]]) ^ c;
        let w1 = u32::from_le_bytes([s[4], s[5], s[6], s[7]]);
        let w2 = u32::from_le_bytes([s[8], s[9], s[10], s[11]]);
        let w3 = u32::from_le_bytes([s[12], s[13], s[14], s[15]]);
        // Byte k of the stride is followed by 15 - k more bytes of it.
        c = TABLES[15][(w0 & 0xFF) as usize]
            ^ TABLES[14][((w0 >> 8) & 0xFF) as usize]
            ^ TABLES[13][((w0 >> 16) & 0xFF) as usize]
            ^ TABLES[12][(w0 >> 24) as usize]
            ^ TABLES[11][(w1 & 0xFF) as usize]
            ^ TABLES[10][((w1 >> 8) & 0xFF) as usize]
            ^ TABLES[9][((w1 >> 16) & 0xFF) as usize]
            ^ TABLES[8][(w1 >> 24) as usize]
            ^ TABLES[7][(w2 & 0xFF) as usize]
            ^ TABLES[6][((w2 >> 8) & 0xFF) as usize]
            ^ TABLES[5][((w2 >> 16) & 0xFF) as usize]
            ^ TABLES[4][(w2 >> 24) as usize]
            ^ TABLES[3][(w3 & 0xFF) as usize]
            ^ TABLES[2][((w3 >> 8) & 0xFF) as usize]
            ^ TABLES[1][((w3 >> 16) & 0xFF) as usize]
            ^ TABLES[0][(w3 >> 24) as usize];
    }
    for &b in strides.remainder() {
        c = step(c, b);
    }
    c
}

/// The `pclmulqdq` tier ("Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ", Intel 2009; the constants are zlib's). `K1`..`K5` are powers
/// of x modulo the polynomial, bit-reflected and shifted left by one.
#[cfg(target_arch = "x86_64")]
mod fold {
    use core::arch::x86_64::*;

    /// x^(4·128+32) and x^(4·128−32): one lane 64 bytes ahead.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// x^(128+32) and x^(128−32): one lane 16 bytes ahead.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// x^64: 64 bits to 32.
    const K5: i64 = 0x1_63CD_6124;
    /// The polynomial P (with its x^32 term) and the Barrett quotient
    /// μ = ⌊x^64 / P⌋.
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    fn load(b: &[u8; 16]) -> __m128i {
        // SAFETY: an unaligned load of exactly the 16 bytes `b` borrows.
        unsafe { _mm_loadu_si128(b.as_ptr().cast()) }
    }

    /// `x` carried `k`'s distance ahead, plus `next`: the lane's low half
    /// times the low constant XOR its high half times the high one.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advances the running (pre-inverted) state `c` over `bytes`;
    /// [`super::slice16`] takes the last `len % 16`.
    ///
    /// An input shorter than 64 bytes, which cannot fill the four lanes,
    /// goes to [`super::slice16`] whole. No crossover sits above that: timed
    /// on a 2-core AVX-512 Xeon (every length 64..=160, best of 5 × 1 M
    /// calls), the fold beats slicing on every length, by 2.0× at 79 B (a
    /// 15-byte tail both pay bytewise), 4.0× at 64 B, 5.8× at 128 B and 11.8×
    /// at 4 KB (174 ns against 2 050 ns).
    ///
    /// # Safety
    ///
    /// A caller without `pclmulqdq` enabled must know the CPU has it.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(c: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let [h0, h1, h2, h3, rest @ ..] = blocks else {
            return super::slice16(c, bytes);
        };
        let mut x = [load(h0), load(h1), load(h2), load(h3)];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(c as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        let (quads, singles) = rest.as_chunks::<4>();
        for q in quads {
            for (lane, b) in x.iter_mut().zip(q) {
                *lane = fold(*lane, k1k2, load(b));
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut a = fold(x[0], k3k4, x[1]);
        a = fold(a, k3k4, x[2]);
        a = fold(a, k3k4, x[3]);
        for b in singles {
            a = fold(a, k3k4, load(b));
        }

        // 128 bits to 64: the low half times K4 into the high half.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        a = _mm_xor_si128(_mm_srli_si128(a, 8), _mm_clmulepi64_si128(a, k3k4, 0x10));
        // 64 to 32: the low word times K5 into the rest.
        let k5 = _mm_set_epi64x(0, K5);
        let t = _mm_clmulepi64_si128(_mm_and_si128(a, low32), k5, 0x00);
        a = _mm_xor_si128(_mm_srli_si128(a, 4), t);
        // Barrett: q = ⌊a·μ⌋ (low word), a − q·P leaves the remainder in
        // word 1.
        let pmu = _mm_set_epi64x(MU, P);
        let q = _mm_clmulepi64_si128(_mm_and_si128(a, low32), pmu, 0x10);
        let qp = _mm_clmulepi64_si128(_mm_and_si128(q, low32), pmu, 0x00);
        a = _mm_xor_si128(a, qp);
        let c = _mm_cvtsi128_si32(_mm_srli_si128(a, 4)) as u32;
        super::slice16(c, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop `crc32` replaced: the reference.
    fn bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(0xFFFF_FFFF, |c, &b| step(c, b))
    }

    #[test]
    fn known_check_values() {
        assert_eq!(crc32(b""), 0);
        // The standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(&[0x00; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFF; 32]), 0xFF6C_AB0B);
        let ramp: Vec<u8> = (0..32).collect();
        assert_eq!(crc32(&ramp), 0x9126_7E8A);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn tables_are_the_ieee_tables() {
        assert_eq!(TABLES[0][1], 0x7707_3096);
        assert_eq!(TABLES[0][255], 0x2D02_EF8D);
        for (j, table) in TABLES.iter().enumerate() {
            // A zero byte followed by zero bytes contributes nothing.
            assert_eq!(table[0], 0, "TABLES[{j}][0]");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_fold_is_picked_by_the_decode_tier_and_the_cpu() {
        let tier = rodb_compress::active_tier();
        let cpu = is_x86_feature_detected!("pclmulqdq");
        assert_eq!(folds(), tier != rodb_compress::KernelTier::Scalar && cpu);
    }

    /// Both tiers against the bytewise loop: every length 0..=4300 (every
    /// stride count, every 64-byte fold count with every 16-byte residue and
    /// every tail) at every load alignment — the portable loop on every
    /// length, the fold too when the host has `pclmulqdq`, and the
    /// dispatched `crc32`.
    ///
    /// Liveness, recorded once: with `TABLES[15]` and `TABLES[14]` swapped in
    /// the stride, 17 140 of the 4 × 4301 cells fail — every length ≥ 16 at
    /// every offset, first `len 16 offset 0`; only the stride-free lengths
    /// 0..=15 pass (and `known_check_values` fails on its four longer inputs).
    /// With `K1` and `K2` swapped in the fold, the fold (and the dispatched
    /// `crc32`) fails 16 692 of the 4 × 4301 cells — every length ≥ 128 at
    /// every offset, first `len 128 offset 0`; shorter inputs never take the
    /// four-lane step. Tier-1's `tests/crc_kernel.rs` fails at `len 128`
    /// too.
    #[test]
    fn matches_the_bytewise_loop_on_every_length_and_alignment() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..4300 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        #[cfg(target_arch = "x86_64")]
        let clmul = is_x86_feature_detected!("pclmulqdq");
        for offset in [0usize, 1, 3, 7] {
            for len in 0..=4300 {
                let s = &buf[offset..offset + len];
                let want = bytewise(s);
                assert_eq!(!slice16(!0, s), want, "slice16 len {len} offset {offset}");
                #[cfg(target_arch = "x86_64")]
                if clmul {
                    // SAFETY: the CPU has `pclmulqdq`, detected above.
                    let got = !unsafe { fold::update(!0, s) };
                    assert_eq!(got, want, "fold len {len} offset {offset}");
                }
                assert_eq!(crc32(s), want, "crc32 len {len} offset {offset}");
            }
        }
    }
}
