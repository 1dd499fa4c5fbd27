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

/// Appends fixed- or mixed-width unsigned codes to a byte buffer, LSB-first,
/// through a 64-bit accumulator: a code is or-ed in at the accumulator's
/// fill and every full word is stored whole — one or two word stores per
/// code, the mirror of [`BitReader::read_at`]'s one word load.
#[derive(Debug, Default)]
pub struct BitWriter {
    /// Whole words (and aligned byte runs) written so far.
    buf: Vec<u8>,
    /// The bits after `buf`, low bits first; every bit at or above `fill`
    /// is zero.
    acc: u64,
    /// Valid bits in `acc`, 0..64.
    fill: u32,
}

impl BitWriter {
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// A writer with room for `bytes` bytes before it reallocates.
    pub fn with_capacity(bytes: usize) -> BitWriter {
        BitWriter {
            buf: Vec::with_capacity(bytes + 8),
            ..BitWriter::default()
        }
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.fill as usize
    }

    /// Bytes needed to hold everything written so far.
    pub fn byte_len(&self) -> usize {
        self.bit_len().div_ceil(8)
    }

    /// Append the low `bits` bits of `code`. `bits` must be 1..=64 and `code`
    /// must fit.
    pub fn write(&mut self, code: u64, bits: u8) -> Result<()> {
        check_width(bits)?;
        if bits < 64 && (code >> bits) != 0 {
            return Err(Error::ValueOutOfDomain(format!(
                "code {code} does not fit in {bits} bits"
            )));
        }
        self.put(code, u32::from(bits));
        Ok(())
    }

    /// [`BitWriter::write`] of a code already known to fit its 1..=64
    /// `bits`.
    #[inline]
    pub(crate) fn put(&mut self, code: u64, bits: u32) {
        debug_assert!((1..=64).contains(&bits) && (bits == 64 || code >> bits == 0));
        self.acc |= code << self.fill;
        let fill = self.fill + bits;
        if fill < 64 {
            self.fill = fill;
            return;
        }
        self.buf.extend_from_slice(&self.acc.to_le_bytes());
        // The code's bits that did not fit the stored word.
        self.acc = code.checked_shr(64 - self.fill).unwrap_or(0);
        self.fill = fill - 64;
    }

    /// Append raw bytes, byte-aligned (pads the current byte with zeros
    /// first). Used for blob headers and trailing sections.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.align();
        self.buf.extend_from_slice(bytes);
    }

    /// Append each byte as an 8-bit code at the current bit position, with
    /// no alignment first: a raw or text-packed value, which sits at any bit
    /// offset inside a packed tuple. Whole words go in as 64-bit codes.
    pub(crate) fn pack_bytes(&mut self, bytes: &[u8]) {
        if self.fill == 0 {
            self.buf.extend_from_slice(bytes);
            return;
        }
        let (words, tail) = bytes.as_chunks::<8>();
        for word in words {
            self.put(u64::from_le_bytes(*word), 64);
        }
        for &b in tail {
            self.put(u64::from(b), 8);
        }
    }

    /// Pad to the next byte boundary with zero bits.
    pub fn align(&mut self) {
        let bytes = self.fill.div_ceil(8) as usize;
        self.buf.extend_from_slice(&self.acc.to_le_bytes()[..bytes]);
        self.acc = 0;
        self.fill = 0;
    }

    /// Consume the writer, returning the packed bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.align();
        self.buf
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

    /// Bits readable.
    pub fn bit_len(&self) -> usize {
        self.data.len() * 8
    }

    /// Read `bits` bits starting at absolute bit offset `bit_off`: one
    /// unaligned little-endian word load when the code fits in the word at
    /// its first byte and eight bytes remain there, the byte loop for the
    /// buffer's last bytes and for a code that straddles nine bytes.
    #[inline]
    pub fn read_at(&self, bit_off: usize, bits: u8) -> Result<u64> {
        check_width(bits)?;
        self.check_end(bit_off, bits)?;
        Ok(self.word_at(bit_off, bits))
    }

    /// The codes of `n` values stored `stride` bits apart from bit `first`,
    /// each `bits` wide: one word load each, as [`BitReader::read_at`], with
    /// the run's bounds checked once, before any is read.
    #[inline]
    pub fn strided(
        &self,
        first: usize,
        stride: usize,
        n: usize,
        bits: u8,
    ) -> Result<impl Iterator<Item = u64> + '_> {
        check_width(bits)?;
        if let Some(last) = n.checked_sub(1) {
            let last = last.checked_mul(stride).and_then(|l| l.checked_add(first));
            self.check_end(
                last.ok_or_else(|| Error::corrupt("strided read past usize"))?,
                bits,
            )?;
        }
        Ok((0..n).map(move |i| self.word_at(first + i * stride, bits)))
    }

    /// The codes at the ascending indices `idx` of a fixed-width run that
    /// starts at bit 0, each `bits` wide: one word load each, as
    /// [`BitReader::read_at`], with the bounds checked once, against the
    /// last index, before any is read.
    #[inline]
    pub(crate) fn gather<'i>(
        &'i self,
        idx: &'i [usize],
        bits: u8,
    ) -> Result<impl Iterator<Item = u64> + 'i> {
        check_width(bits)?;
        if let Some(&last) = idx.last() {
            let last = last.checked_mul(bits as usize);
            self.check_end(
                last.ok_or_else(|| Error::corrupt("gathered read past usize"))?,
                bits,
            )?;
        }
        debug_assert!(idx.is_sorted(), "gathered indices must ascend");
        Ok(idx
            .iter()
            .map(move |&i| self.word_at(i * bits as usize, bits)))
    }

    /// `Corrupt` unless the `bits` at `bit_off` lie inside the buffer.
    #[inline]
    fn check_end(&self, bit_off: usize, bits: u8) -> Result<()> {
        let end = bit_off + bits as usize;
        if end > self.data.len() * 8 {
            return Err(Error::corrupt(format!(
                "bit read [{bit_off}, {end}) past end ({} bits)",
                self.data.len() * 8
            )));
        }
        Ok(())
    }

    /// The `bits` (1..=64) at `bit_off`, inside the buffer: one unaligned
    /// little-endian word load when the code fits in the word at its first
    /// byte and eight bytes remain there, the byte loop otherwise.
    #[inline]
    fn word_at(&self, bit_off: usize, bits: u8) -> u64 {
        let shift = bit_off % 8;
        if shift + bits as usize <= 64 {
            if let Some(word) = self
                .data
                .get(bit_off / 8..)
                .and_then(<[u8]>::first_chunk::<8>)
            {
                let mask = u64::MAX >> (64 - bits as u32);
                return (u64::from_le_bytes(*word) >> shift) & mask;
            }
        }
        let mut out = [0u64];
        unpack_generic(self.data, bit_off, bits, &mut out);
        out[0]
    }

    /// Read the `idx`-th code of a fixed-width run that starts at bit 0.
    #[inline]
    pub fn get(&self, idx: usize, bits: u8) -> Result<u64> {
        self.read_at(idx * bits as usize, bits)
    }

    /// Append the `n` bytes that start at bit `bit_off` — one slice copy
    /// where the offset is byte-aligned (every column page), a shift-copy
    /// of the `n + 1` bytes it spans where it is not (a field inside a
    /// packed tuple); one bounds check either way.
    pub(crate) fn read_bytes(&self, bit_off: usize, n: usize, out: &mut Vec<u8>) -> Result<()> {
        let at = out.len();
        out.resize(at + n, 0);
        self.read_bytes_into(bit_off, &mut out[at..])
            .inspect_err(|_| out.truncate(at))
    }

    /// [`BitReader::read_bytes`] into `dst`, as many bytes as it holds.
    pub(crate) fn read_bytes_into(&self, bit_off: usize, dst: &mut [u8]) -> Result<()> {
        let (shift, n) = (bit_off % 8, dst.len());
        let src = self.bytes(bit_off / 8, n + usize::from(shift > 0 && n > 0))?;
        if shift == 0 {
            dst.copy_from_slice(src);
        } else {
            for (d, w) in dst.iter_mut().zip(src.windows(2)) {
                *d = (w[0] >> shift) | (w[1] << (8 - shift));
            }
        }
        Ok(())
    }

    /// The `n` bytes at byte offset `start`, bounds-checked once.
    pub(crate) fn bytes(&self, start: usize, n: usize) -> Result<&'a [u8]> {
        start
            .checked_add(n)
            .and_then(|end| self.data.get(start..end))
            .ok_or_else(|| {
                Error::corrupt(format!(
                    "byte read of {n} at {start} past end ({} bytes)",
                    self.data.len()
                ))
            })
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
        check_width(bits)?;
        let start = first * bits as usize;
        let end = start + out.len() * bits as usize;
        if end > self.data.len() * 8 {
            return Err(Error::corrupt(format!(
                "block unpack [{start}, {end}) past end ({} bits)",
                self.data.len() * 8
            )));
        }
        // A width has a specialized kernel exactly when it is 1..=32.
        let kernel = KERNELS.get(usize::from(bits) - 1);
        match (<&mut [u64; BLOCK]>::try_from(&mut *out), kernel) {
            (Ok(block), Some(kernel)) if start.is_multiple_of(8) => {
                let src = &self.data[start / 8..];
                // Runtime-dispatched SIMD kernel first; the scalar
                // word-at-a-time kernel is the always-correct fallback.
                if !crate::simd::unpack_block(src, bits, block) {
                    kernel(src, block);
                }
            }
            _ => unpack_generic(self.data, start, bits, out),
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

/// `InvalidConfig` unless `bits` is a code width, 1..=64.
#[inline]
fn check_width(bits: u8) -> Result<()> {
    if bits == 0 || bits > 64 {
        return Err(Error::InvalidConfig(format!("bit width {bits}")));
    }
    Ok(())
}

/// A block kernel: one full block of codes from a `src` that starts at the
/// block's first byte.
type Kernel = fn(&[u8], &mut [u64; BLOCK]);

/// The width-specialized block kernels: entry `w - 1` decodes `w`-bit
/// codes. Widths over 32 have none.
const KERNELS: [Kernel; 32] = {
    macro_rules! widths {
        ($($w:literal)*) => { [$(unpack128::<$w>),*] };
    }
    widths!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32)
};

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
        w.pack_bytes(b"ab");
        w.align();
        w.pack_bytes(b"cd");
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
    fn read_at_equals_the_byte_loop_at_every_width_and_offset() {
        // 24 bytes of pattern: offsets 0..=63 from the start take the word
        // load, the last 64 offsets of each width reach the byte loop.
        let data: Vec<u8> = (0..24).map(|i| pattern(i, 8) as u8).collect();
        let r = BitReader::new(&data);
        let len = data.len() * 8;
        for bits in 1..=64u8 {
            let w = bits as usize;
            let near_end = len - w - 63..=len - w;
            for off in (0..=63).chain(near_end) {
                let mut want = [0u64];
                unpack_generic(&data, off, bits, &mut want);
                assert_eq!(
                    r.read_at(off, bits).unwrap(),
                    want[0],
                    "width {bits} at {off}"
                );
            }
            for off in len - w + 1..=len - w + 8 {
                let err = Error::corrupt(format!(
                    "bit read [{off}, {}) past end ({len} bits)",
                    off + w
                ));
                assert_eq!(r.read_at(off, bits), Err(err), "width {bits} at {off}");
            }
        }
    }

    #[test]
    fn strided_equals_read_at_and_checks_the_run_first() {
        let data: Vec<u8> = (0..40).map(|i| pattern(i, 8) as u8).collect();
        let r = BitReader::new(&data);
        let len = data.len() * 8;
        for bits in 1..=64u8 {
            for (first, stride) in [(0, bits as usize), (3, 71), (13, 190), (len - 64, 1)] {
                let fits = |n: usize| n == 0 || first + (n - 1) * stride + bits as usize <= len;
                let n = (0..=len).take_while(|&n| fits(n)).last().unwrap();
                let got: Vec<u64> = r.strided(first, stride, n, bits).unwrap().collect();
                let want: Vec<u64> = (0..n)
                    .map(|i| r.read_at(first + i * stride, bits).unwrap())
                    .collect();
                assert_eq!(got, want, "width {bits} from {first} every {stride}");
                // One value more overruns the buffer: refused before any read.
                assert!(r.strided(first, stride, n + 1, bits).is_err());
            }
        }
        assert!(r.strided(0, 8, 2, 0).is_err());
        assert!(r.strided(0, 8, 2, 65).is_err());
        assert!(r.strided(1, usize::MAX, 3, 8).is_err());
        assert_eq!(r.strided(len, 8, 0, 8).unwrap().count(), 0);
    }

    #[test]
    fn read_bytes_equals_one_read_per_byte_at_every_offset() {
        let data: Vec<u8> = (0..20).map(|i| pattern(i, 8) as u8).collect();
        let r = BitReader::new(&data);
        for off in 0..data.len() * 8 {
            for n in 0..=(data.len() * 8 - off) / 8 {
                let mut got = Vec::new();
                r.read_bytes(off, n, &mut got).unwrap();
                let want: Vec<u8> = (0..n)
                    .map(|k| r.read_at(off + 8 * k, 8).unwrap() as u8)
                    .collect();
                assert_eq!(got, want, "{n} bytes at bit {off}");
            }
            let n = (data.len() * 8 - off) / 8 + 1;
            assert!(r.read_bytes(off, n, &mut Vec::new()).is_err(), "at {off}");
        }
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
