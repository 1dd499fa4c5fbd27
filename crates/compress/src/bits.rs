//! Bit-level packing primitives.
//!
//! The paper packs compressed values inside a page with bit-shifting
//! instructions (§2.2.1). [`BitWriter`] appends fixed-width unsigned codes
//! LSB-first into a byte buffer; [`BitReader`] reads them back either
//! sequentially or by random index (every code has the same width, so code
//! *i* lives at bit offset `i * width`).

use rodb_types::{Error, Result};

/// Values per decode block: the unit the vectorized scan kernels operate on.
/// 128 codes of any whole bit width always end on a byte boundary
/// (`128 × w` bits ≡ `16 × w` bytes), so every full block is word-aligned.
pub const BLOCK: usize = 128;

/// Number of bits needed to represent `max_code` (at least 1).
///
/// ```
/// use rodb_compress::bits::bits_for;
/// assert_eq!(bits_for(0), 1);
/// assert_eq!(bits_for(1), 1);
/// assert_eq!(bits_for(2), 2);
/// assert_eq!(bits_for(1000), 10); // the paper's §2.2.1 example
/// assert_eq!(bits_for(u64::MAX), 64);
/// ```
pub fn bits_for(max_code: u64) -> u8 {
    if max_code == 0 {
        1
    } else {
        (64 - max_code.leading_zeros()) as u8
    }
}

/// Appends fixed- or mixed-width unsigned codes to a byte buffer, LSB-first.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Number of valid bits in the final byte (0 means byte-aligned).
    bit_pos: usize,
}

impl BitWriter {
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bit_pos
    }

    /// Bytes needed to hold everything written so far.
    pub fn byte_len(&self) -> usize {
        self.bit_pos.div_ceil(8)
    }

    /// Append the low `bits` bits of `code`. `bits` must be 1..=64 and `code`
    /// must fit.
    pub fn write(&mut self, code: u64, bits: u8) -> Result<()> {
        if bits == 0 || bits > 64 {
            return Err(Error::InvalidConfig(format!("bit width {bits}")));
        }
        if bits < 64 && (code >> bits) != 0 {
            return Err(Error::ValueOutOfDomain(format!(
                "code {code} does not fit in {bits} bits"
            )));
        }
        let mut remaining = bits as usize;
        let mut code = code;
        while remaining > 0 {
            let byte_idx = self.bit_pos / 8;
            let off = self.bit_pos % 8;
            if byte_idx == self.buf.len() {
                self.buf.push(0);
            }
            let take = remaining.min(8 - off);
            let mask = if take == 64 {
                u64::MAX
            } else {
                (1u64 << take) - 1
            };
            self.buf[byte_idx] |= ((code & mask) as u8) << off;
            code >>= take;
            self.bit_pos += take;
            remaining -= take;
        }
        Ok(())
    }

    /// Append raw bytes, byte-aligned (pads the current byte with zeros
    /// first). Used for blob headers and trailing sections.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.align();
        self.buf.extend_from_slice(bytes);
        self.bit_pos = self.buf.len() * 8;
    }

    /// Append each byte as an 8-bit code at the current bit position, with
    /// no alignment first: a raw or text-packed value, which sits at any bit
    /// offset inside a packed tuple.
    pub(crate) fn pack_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        if self.bit_pos.is_multiple_of(8) {
            self.write_bytes(bytes);
            return Ok(());
        }
        bytes.iter().try_for_each(|&b| self.write(b as u64, 8))
    }

    /// Pad to the next byte boundary with zero bits.
    pub fn align(&mut self) {
        self.bit_pos = self.bit_pos.div_ceil(8) * 8;
        while self.buf.len() * 8 < self.bit_pos {
            self.buf.push(0);
        }
    }

    /// Consume the writer, returning the packed bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the packed bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Reads fixed-width unsigned codes from a packed byte slice.
#[derive(Debug, Clone, Copy)]
pub struct BitReader<'a> {
    data: &'a [u8],
}

impl<'a> BitReader<'a> {
    pub fn new(data: &'a [u8]) -> BitReader<'a> {
        BitReader { data }
    }

    /// Read `bits` bits starting at absolute bit offset `bit_off`.
    pub fn read_at(&self, bit_off: usize, bits: u8) -> Result<u64> {
        if bits == 0 || bits > 64 {
            return Err(Error::InvalidConfig(format!("bit width {bits}")));
        }
        let end = bit_off + bits as usize;
        if end > self.data.len() * 8 {
            return Err(Error::corrupt(format!(
                "bit read [{bit_off}, {end}) past end ({} bits)",
                self.data.len() * 8
            )));
        }
        let mut out = [0u64];
        unpack_generic(self.data, bit_off, bits, &mut out);
        Ok(out[0])
    }

    /// Read the `idx`-th code of a fixed-width run that starts at bit 0.
    #[inline]
    pub fn get(&self, idx: usize, bits: u8) -> Result<u64> {
        self.read_at(idx * bits as usize, bits)
    }

    /// Append the `n` bytes that start at bit `bit_off` — one slice copy
    /// where the offset is byte-aligned (every column page), byte by byte
    /// where it is not (a field inside a packed tuple).
    pub(crate) fn read_bytes(&self, bit_off: usize, n: usize, out: &mut Vec<u8>) -> Result<()> {
        if !bit_off.is_multiple_of(8) {
            for k in 0..n {
                out.push(self.read_at(bit_off + 8 * k, 8)? as u8);
            }
            return Ok(());
        }
        let start = bit_off / 8;
        let bytes = self.data.get(start..start + n).ok_or_else(|| {
            Error::corrupt(format!(
                "byte read [{start}, {}) past end ({} bytes)",
                start + n,
                self.data.len()
            ))
        })?;
        out.extend_from_slice(bytes);
        Ok(())
    }

    /// Unpack `out.len()` fixed-width codes starting at code index `first`
    /// (codes start at bit 0, code *i* at bit `i × bits`).
    ///
    /// This is the block counterpart of [`BitReader::get`]: bounds are
    /// checked **once** for the whole run, and full [`BLOCK`]-sized,
    /// byte-aligned runs of width 1..=32 go through a per-width specialized
    /// word-at-a-time kernel. Everything else (tails shorter than a block,
    /// widths over 32) takes a single generic path that still pays no
    /// per-value `Result`.
    pub fn unpack(&self, first: usize, bits: u8, out: &mut [u64]) -> Result<()> {
        if out.is_empty() {
            return Ok(());
        }
        if bits == 0 || bits > 64 {
            return Err(Error::InvalidConfig(format!("bit width {bits}")));
        }
        let start = first * bits as usize;
        let end = start + out.len() * bits as usize;
        if end > self.data.len() * 8 {
            return Err(Error::corrupt(format!(
                "block unpack [{start}, {end}) past end ({} bits)",
                self.data.len() * 8
            )));
        }
        if out.len() == BLOCK && bits <= 32 && start.is_multiple_of(8) {
            let block: &mut [u64; BLOCK] = (&mut out[..]).try_into().expect("len checked");
            let src = &self.data[start / 8..];
            // Runtime-dispatched SIMD kernel first; the scalar word-at-a-time
            // kernel is the always-correct fallback.
            if !crate::simd::unpack_block(src, bits, block) {
                unpack_block_aligned(src, bits, block);
            }
        } else {
            unpack_generic(self.data, start, bits, out);
        }
        Ok(())
    }
}

/// Load word `i` (8 little-endian bytes) of `src`. The block-level bounds
/// check in [`BitReader::unpack`] guarantees the load is in range; the
/// `debug_assert!` keeps that contract checked in debug builds while release
/// builds skip the per-word branch.
#[inline(always)]
fn load_word(src: &[u8], i: usize) -> u64 {
    debug_assert!((i + 1) * 8 <= src.len(), "word {i} outside checked block");
    // SAFETY: `unpack` verified once that the whole block (2 × width words)
    // lies inside `src` before dispatching here.
    unsafe { u64::from_le_bytes(*(src.as_ptr().add(i * 8) as *const [u8; 8])) }
}

/// Decode one full 128-value block of `W`-bit codes from `src` (byte 0 =
/// first code's low bits). `W` is a compile-time constant so the shift
/// pattern is fully resolved per width and the loop unrolls.
#[inline(always)]
fn unpack128<const W: usize>(src: &[u8], out: &mut [u64; BLOCK]) {
    debug_assert!((1..=32).contains(&W));
    debug_assert!(src.len() >= 16 * W, "block spans 16×W bytes");
    let mask = (1u64 << W) - 1;
    let words = 2 * W; // 128 × W bits = 2 × W words exactly
    let mut word = 0usize;
    let mut cur = load_word(src, 0);
    let mut used = 0usize;
    for o in out.iter_mut() {
        let have = 64 - used;
        if W <= have {
            *o = (cur >> used) & mask;
            used += W;
            if used == 64 && word + 1 < words {
                word += 1;
                cur = load_word(src, word);
                used = 0;
            }
        } else {
            // Code straddles the word boundary: low `have` bits from the
            // current word, the rest from the next.
            let lo = cur >> used;
            word += 1;
            cur = load_word(src, word);
            *o = (lo | (cur << have)) & mask;
            used = W - have;
        }
    }
}

/// Dispatch the width-specialized kernel. `bits` is 1..=32 (checked by the
/// caller) and `src` starts at the block's first byte.
fn unpack_block_aligned(src: &[u8], bits: u8, out: &mut [u64; BLOCK]) {
    macro_rules! widths {
        ($($w:literal)*) => {
            match bits as usize {
                $( $w => unpack128::<$w>(src, out), )*
                _ => unreachable!("caller restricts bits to 1..=32"),
            }
        };
    }
    widths!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32)
}

/// The single tail path: decode any run (partial blocks, unaligned starts,
/// widths up to 64) byte-at-a-time. Bounds were hoisted by the caller, so
/// the inner loop carries no `Result`. Shared by the scalar *and* SIMD
/// dispatch paths (SIMD kernels route straggler groups here), so the two
/// can't diverge on non-multiple-of-block tails.
pub(crate) fn unpack_generic(data: &[u8], start_bit: usize, bits: u8, out: &mut [u64]) {
    let w = bits as usize;
    debug_assert!(start_bit + out.len() * w <= data.len() * 8);
    let mut pos = start_bit;
    for o in out.iter_mut() {
        let mut v = 0u64;
        let mut got = 0usize;
        while got < w {
            let byte = data[pos / 8] as u64;
            let off = pos % 8;
            let take = (w - got).min(8 - off);
            v |= ((byte >> off) & ((1u64 << take) - 1)) << got;
            got += take;
            pos += take;
        }
        *o = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_byte_codes() {
        let mut w = BitWriter::new();
        for v in [0u64, 1, 2, 3, 4, 5, 6, 7] {
            w.write(v, 3).unwrap();
        }
        assert_eq!(w.bit_len(), 24);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 3);
        let r = BitReader::new(&bytes);
        for v in 0..8u64 {
            assert_eq!(r.get(v as usize, 3).unwrap(), v);
        }
    }

    #[test]
    fn cross_byte_codes() {
        let mut w = BitWriter::new();
        let vals = [1000u64, 0, 1023, 512, 7];
        for &v in &vals {
            w.write(v, 10).unwrap();
        }
        let bytes = w.into_bytes();
        let r = BitReader::new(&bytes);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(r.get(i, 10).unwrap(), v, "idx {i}");
        }
    }

    #[test]
    fn wide_codes_up_to_64() {
        let mut w = BitWriter::new();
        let vals = [u64::MAX, 0, 0x0123_4567_89ab_cdef];
        for &v in &vals {
            w.write(v, 64).unwrap();
        }
        let bytes = w.into_bytes();
        let r = BitReader::new(&bytes);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(r.get(i, 64).unwrap(), v);
        }
    }

    #[test]
    fn overflow_code_rejected() {
        let mut w = BitWriter::new();
        assert!(w.write(8, 3).is_err());
        assert!(w.write(7, 3).is_ok());
        assert!(w.write(1, 0).is_err());
        assert!(w.write(1, 65).is_err());
    }

    #[test]
    fn read_past_end_rejected() {
        let mut w = BitWriter::new();
        w.write(5, 3).unwrap();
        let bytes = w.into_bytes();
        let r = BitReader::new(&bytes);
        assert_eq!(r.get(0, 3).unwrap(), 5);
        // Bits 3..6 are readable zero padding within the byte; bits 6..9 are not.
        assert_eq!(r.get(1, 3).unwrap(), 0);
        assert!(r.get(2, 3).is_err());
    }

    #[test]
    fn align_and_bytes() {
        let mut w = BitWriter::new();
        w.write(1, 1).unwrap();
        w.write_bytes(b"ab");
        assert_eq!(w.byte_len(), 3);
        let bytes = w.into_bytes();
        assert_eq!(&bytes[1..], b"ab");
        assert_eq!(bytes[0], 1);
    }

    #[test]
    fn bytes_at_any_bit_offset() {
        // A 3-bit code, then bytes packed unaligned, then aligned ones.
        let mut w = BitWriter::new();
        w.write(5, 3).unwrap();
        w.pack_bytes(b"ab").unwrap();
        w.align();
        w.pack_bytes(b"cd").unwrap();
        let bytes = w.into_bytes();
        let r = BitReader::new(&bytes);
        let mut out = Vec::new();
        r.read_bytes(3, 2, &mut out).unwrap();
        r.read_bytes(24, 2, &mut out).unwrap();
        assert_eq!(out, b"abcd");
        assert!(r.read_bytes(24, 3, &mut out).is_err());
        assert!(r.read_bytes(35, 1, &mut out).is_err());
    }

    #[test]
    fn bits_for_boundaries() {
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
        assert_eq!(bits_for((1 << 14) - 1), 14);
    }

    /// Deterministic value pattern exercising low/high/alternating bits.
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

    #[test]
    fn unpack_matches_get_for_all_block_widths() {
        // 300 values = two full 128-blocks + a 44-value tail; every width
        // 1..=32 exercises the specialized kernel, word straddles, and the
        // single tail path.
        const N: usize = 300;
        for bits in 1..=32u8 {
            let mut w = BitWriter::new();
            for i in 0..N {
                w.write(pattern(i, bits), bits).unwrap();
            }
            let bytes = w.into_bytes();
            let r = BitReader::new(&bytes);
            let mut out = vec![0u64; N];
            let mut first = 0;
            while first < N {
                let n = BLOCK.min(N - first);
                r.unpack(first, bits, &mut out[first..first + n]).unwrap();
                first += n;
            }
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, r.get(i, bits).unwrap(), "width {bits} idx {i}");
                assert_eq!(v, pattern(i, bits), "width {bits} idx {i}");
            }
        }
    }

    #[test]
    fn unpack_wide_and_unaligned_take_the_generic_path() {
        // Widths over 32 and runs that do not start on a byte boundary fall
        // back to the generic kernel; results must still match `get`.
        for bits in [33u8, 40, 63, 64] {
            let mut w = BitWriter::new();
            for i in 0..150 {
                w.write(pattern(i, bits), bits).unwrap();
            }
            let bytes = w.into_bytes();
            let r = BitReader::new(&bytes);
            let mut out = vec![0u64; 150];
            r.unpack(0, bits, &mut out).unwrap();
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, pattern(i, bits), "width {bits} idx {i}");
            }
        }
        // Odd width, first index not block-aligned: starts mid-byte.
        let mut w = BitWriter::new();
        for i in 0..200 {
            w.write(pattern(i, 5), 5).unwrap();
        }
        let bytes = w.into_bytes();
        let r = BitReader::new(&bytes);
        let mut out = vec![0u64; 7];
        r.unpack(3, 5, &mut out).unwrap();
        for (k, &v) in out.iter().enumerate() {
            assert_eq!(v, pattern(3 + k, 5));
        }
    }

    #[test]
    fn unpack_empty_and_bounds() {
        let mut w = BitWriter::new();
        for i in 0..BLOCK {
            w.write(pattern(i, 9), 9).unwrap();
        }
        let bytes = w.into_bytes();
        let r = BitReader::new(&bytes);
        let mut none: [u64; 0] = [];
        r.unpack(0, 9, &mut none).unwrap(); // empty run is a no-op
        let mut out = vec![0u64; BLOCK];
        r.unpack(0, 9, &mut out).unwrap();
        // One value past the end must fail the hoisted bounds check.
        let mut over = vec![0u64; BLOCK + 1];
        assert!(r.unpack(0, 9, &mut over).is_err());
        assert!(r.unpack(1, 9, &mut out).is_err());
        // Invalid widths rejected up front.
        assert!(r.unpack(0, 0, &mut out).is_err());
        assert!(r.unpack(0, 65, &mut out).is_err());
    }
}
