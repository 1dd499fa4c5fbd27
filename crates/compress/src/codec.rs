//! The paper's three lightweight compression schemes (§2.2.1), plus the
//! trivial `None` codec and the byte-level text variant of bit packing.
//!
//! All schemes share two properties the paper relies on:
//!
//! 1. they are **layout-neutral** — the same compression ratio for row and
//!    column data — and
//! 2. they produce **fixed-length** compressed values, so code *i* of a page
//!    lives at a computable bit offset.
//!
//! `FOR-delta` is the one scheme without random access: reconstructing value
//! *i* requires decoding all codes up to *i* in the page — which is exactly
//! the CPU effect Figure 9 studies.

use std::sync::Arc;

use rodb_types::{DataType, Error, Result, Value};

use crate::bits::{BitReader, BitWriter, BLOCK};
use crate::dict::Dictionary;

/// A compression scheme plus its fixed code width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Codec {
    /// Values stored raw at `dtype.width()` bytes.
    None,
    /// Bit packing / null suppression: non-negative ints stored in `bits`
    /// bits each.
    BitPack { bits: u8 },
    /// Dictionary codes (bit-packed on top, per the paper) of `bits` bits;
    /// the dictionary itself lives in the catalog.
    Dict { bits: u8 },
    /// Frame-of-reference: per-page base value (the page minimum), codes are
    /// `value - base` in `bits` bits.
    For { bits: u8 },
    /// FOR-delta: per-page base is the first value; code *i* is
    /// `value[i] - value[i-1]` (code 0 for the first value). Deltas must be
    /// non-negative, so the column must be non-decreasing (e.g. a sorted key).
    ForDelta { bits: u8 },
    /// Byte-level packing for fixed text whose meaningful content fits in
    /// `bytes` bytes (the rest of the declared width is zero padding) —
    /// the paper's "pack, 28 bytes" for L_COMMENT.
    TextPack { bytes: u16 },
    /// Run-length encoding: the page blob is `[n_runs u32][runs]` where each
    /// run packs `(value − base)` in `value_bits` and `(length − 1)` in
    /// `len_bits` (base = page minimum, like FOR). Runs longer than
    /// `2^len_bits` split, so any value sequence whose range fits
    /// `value_bits` encodes. Variable-rate, no random access.
    Rle { value_bits: u8, len_bits: u8 },
    /// Patched frame-of-reference (PFOR): codes are `value − base` like FOR,
    /// but codes that overflow `bits` are stored as 0 in the main vector and
    /// patched from an exception list appended after it:
    /// `[codes][pad][n_exc u32][(pos u32, code u64)…]`. The vectorized main
    /// loop decodes every slot, then the (rare) exceptions are patched in.
    Pfor { bits: u8 },
    /// Composite dictionary→FOR: dictionary codes re-based per page. Blob is
    /// `[code_base u32][codes]` with each stored code = dict code −
    /// `code_base` in `bits` bits, so clustered low-cardinality columns pack
    /// below the dictionary's global code width.
    DictFor { bits: u8 },
    /// Composite RLE over dictionary codes: like [`Codec::Rle`] but each
    /// run's value is a raw dictionary code in `value_bits` (no base).
    /// Variable-rate, no random access.
    RleDict { value_bits: u8, len_bits: u8 },
}

/// Codec family, used by the CPU cost model to charge decompression work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecKind {
    None,
    BitPack,
    Dict,
    For,
    ForDelta,
    TextPack,
    Rle,
    Pfor,
    DictFor,
    RleDict,
}

impl Codec {
    pub fn kind(&self) -> CodecKind {
        match self {
            Codec::None => CodecKind::None,
            Codec::BitPack { .. } => CodecKind::BitPack,
            Codec::Dict { .. } => CodecKind::Dict,
            Codec::For { .. } => CodecKind::For,
            Codec::ForDelta { .. } => CodecKind::ForDelta,
            Codec::TextPack { .. } => CodecKind::TextPack,
            Codec::Rle { .. } => CodecKind::Rle,
            Codec::Pfor { .. } => CodecKind::Pfor,
            Codec::DictFor { .. } => CodecKind::DictFor,
            Codec::RleDict { .. } => CodecKind::RleDict,
        }
    }

    /// Stored bits per value for a column of type `dtype`. For the
    /// variable-rate codecs this is the *worst-case* (run-per-value for RLE,
    /// exception-free for PFOR) — real pages fit more values, which the
    /// loader discovers by trial encoding ([`Codec::variable_rate`]).
    pub fn bits_per_value(&self, dtype: DataType) -> usize {
        match self {
            Codec::None => dtype.width() * 8,
            Codec::BitPack { bits }
            | Codec::Dict { bits }
            | Codec::For { bits }
            | Codec::ForDelta { bits }
            | Codec::Pfor { bits }
            | Codec::DictFor { bits } => *bits as usize,
            Codec::TextPack { bytes } => *bytes as usize * 8,
            Codec::Rle {
                value_bits,
                len_bits,
            }
            | Codec::RleDict {
                value_bits,
                len_bits,
            } => *value_bits as usize + *len_bits as usize,
        }
    }

    /// Does the encoded size of a page depend on the values (not just their
    /// count)? True for RLE (run structure) and PFOR (exception list); such
    /// columns need a trial-encode capacity search at load time because
    /// `values_per_page` is a per-file constant.
    pub fn variable_rate(&self) -> bool {
        matches!(
            self,
            Codec::Rle { .. } | Codec::Pfor { .. } | Codec::RleDict { .. }
        )
    }

    /// Bytes of fixed per-page header inside the blob, before the packed
    /// codes (`code_base` for Dict→FOR, `n_runs` for the RLE family).
    pub fn blob_header_bytes(&self) -> usize {
        match self {
            Codec::DictFor { .. } | Codec::Rle { .. } | Codec::RleDict { .. } => 4,
            _ => 0,
        }
    }

    /// Can value *i* be decoded without touching values `0..i`?
    /// FOR-delta and the RLE family say no.
    pub fn random_access(&self) -> bool {
        !matches!(
            self,
            Codec::ForDelta { .. } | Codec::Rle { .. } | Codec::RleDict { .. }
        )
    }

    /// Does a page carry a base value for this codec? FOR, PFOR and RLE
    /// take the page minimum, FOR-delta the page's first value.
    pub fn has_base(&self) -> bool {
        matches!(
            self,
            Codec::For { .. } | Codec::ForDelta { .. } | Codec::Pfor { .. } | Codec::Rle { .. }
        )
    }

    /// Can a packed row page hold this codec: fixed-width codes at a
    /// computable bit offset and no per-page blob header? (What
    /// [`ColumnCompression::packed_equivalent`] demotes to.)
    pub fn packable(&self) -> bool {
        !self.variable_rate() && self.blob_header_bytes() == 0
    }

    /// Bits of one stored code: the packed width of an int or dictionary
    /// code (an RLE run's value code), 32 for a raw int, and 0 where the
    /// code is the value's bytes (raw text and longs, TextPack).
    fn code_width(&self, dtype: DataType) -> u8 {
        match self {
            Codec::None if dtype.is_int() => 32,
            Codec::None | Codec::TextPack { .. } => 0,
            Codec::BitPack { bits }
            | Codec::Dict { bits }
            | Codec::For { bits }
            | Codec::ForDelta { bits }
            | Codec::Pfor { bits }
            | Codec::DictFor { bits } => *bits,
            Codec::Rle { value_bits, .. } | Codec::RleDict { value_bits, .. } => *value_bits,
        }
    }

    /// Check codec/type compatibility.
    pub fn validate_for(&self, dtype: DataType) -> Result<()> {
        let ok = match self {
            Codec::None | Codec::Dict { .. } | Codec::DictFor { .. } => true,
            Codec::BitPack { .. }
            | Codec::For { .. }
            | Codec::ForDelta { .. }
            | Codec::Rle { .. }
            | Codec::Pfor { .. }
            // RLE-over-dict-codes is int-only: the engine's eager decode of
            // non-random-access pages materializes `i32`s.
            | Codec::RleDict { .. } => dtype.is_int(),
            Codec::TextPack { bytes } => match dtype {
                DataType::Text(n) => *bytes as usize <= n,
                DataType::Int | DataType::Long => false,
            },
        };
        if ok {
            Ok(())
        } else {
            Err(Error::InvalidConfig(format!(
                "codec {:?} incompatible with {dtype}",
                self.kind()
            )))
        }
    }
}

/// A codec plus the dictionary it may need; what the catalog stores per
/// column ("compression schemes are typically chosen during physical
/// design").
///
/// ```
/// use rodb_compress::{Codec, ColumnCompression};
/// use rodb_types::{DataType, Value};
///
/// // §2.2.1's example: sorted IDs 100,101,102,103 store as deltas (0,1,1,1)
/// // with a per-page base of 100.
/// let comp = ColumnCompression::new(Codec::ForDelta { bits: 8 }, None)?;
/// let vals: Vec<Value> = (100..104).map(Value::Int).collect();
/// let page = comp.encode_page(DataType::Int, &vals)?;
/// assert_eq!(page.base, 100);
/// let mut cur = comp.open_page(DataType::Int, &page.data, page.count, page.base).cursor();
/// for v in 100..104 {
///     assert_eq!(cur.next_int()?, v);
/// }
/// # Ok::<(), rodb_types::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnCompression {
    pub codec: Codec,
    pub dict: Option<Arc<Dictionary>>,
}

impl ColumnCompression {
    /// Plain, uncompressed storage.
    pub fn none() -> ColumnCompression {
        ColumnCompression {
            codec: Codec::None,
            dict: None,
        }
    }

    pub fn new(codec: Codec, dict: Option<Arc<Dictionary>>) -> Result<ColumnCompression> {
        match (&codec, &dict) {
            (Codec::Dict { bits }, Some(d)) if d.code_bits() > *bits => {
                return Err(Error::InvalidConfig(format!(
                    "dictionary needs {} bits, codec configured with {bits}",
                    d.code_bits()
                )));
            }
            (Codec::Dict { .. }, None) | (Codec::DictFor { .. }, None) => {
                return Err(Error::InvalidConfig("Dict codec without dictionary".into()));
            }
            (Codec::RleDict { value_bits, .. }, Some(d)) if d.code_bits() > *value_bits => {
                return Err(Error::InvalidConfig(format!(
                    "dictionary needs {} bits, RLE-dict configured with {value_bits}",
                    d.code_bits()
                )));
            }
            (Codec::RleDict { .. }, None) => {
                return Err(Error::InvalidConfig(
                    "RleDict codec without dictionary".into(),
                ));
            }
            _ => {}
        }
        Ok(ColumnCompression { codec, dict })
    }

    /// The fixed-width, position-addressable codec used in place of this one
    /// inside *packed row* pages. Packed tuples need every field at a
    /// computable bit offset, which the variable-rate and composite codecs
    /// don't provide; the demotion map is data-independent so build and
    /// parse always agree: RLE/PFOR → raw, Dict composites → plain Dict at
    /// the dictionary's global code width.
    pub fn packed_equivalent(&self) -> ColumnCompression {
        match (&self.codec, &self.dict) {
            (Codec::Rle { .. } | Codec::Pfor { .. }, _) => ColumnCompression::none(),
            (Codec::DictFor { .. } | Codec::RleDict { .. }, Some(d)) => ColumnCompression {
                codec: Codec::Dict {
                    bits: d.code_bits(),
                },
                dict: self.dict.clone(),
            },
            (Codec::DictFor { .. } | Codec::RleDict { .. }, None) => ColumnCompression::none(),
            _ => self.clone(),
        }
    }

    pub fn bits_per_value(&self, dtype: DataType) -> usize {
        self.codec.bits_per_value(dtype)
    }

    fn dict(&self) -> Result<&Dictionary> {
        self.dict
            .as_deref()
            .ok_or_else(|| Error::InvalidConfig("Dict codec without dictionary".into()))
    }

    /// The read half of this codec on one page whose base is `base` and
    /// whose Dict→FOR code base is `code_base` (0 where the codec has none).
    pub fn field(&self, dtype: DataType, base: i64, code_base: u32) -> Field<'_> {
        let (ints, values) = match self.dict.as_deref() {
            Some(d) => (d.ints(), d.values()),
            None => (&[][..], &[][..]),
        };
        let dict = |offset| ValueMap::Dict {
            ints,
            values,
            offset,
        };
        let map = match &self.codec {
            Codec::None if dtype.is_int() => ValueMap::Base(0),
            Codec::None => ValueMap::Bytes(dtype.width()),
            Codec::TextPack { bytes } => ValueMap::Bytes(*bytes as usize),
            Codec::BitPack { .. } => ValueMap::Base(0),
            Codec::For { .. } | Codec::ForDelta { .. } | Codec::Pfor { .. } | Codec::Rle { .. } => {
                ValueMap::Base(base)
            }
            Codec::Dict { .. } | Codec::RleDict { .. } => dict(0),
            Codec::DictFor { .. } => dict(code_base),
        };
        Field {
            dtype,
            bits: self.codec.code_width(dtype),
            map,
            delta: matches!(self.codec, Codec::ForDelta { .. }),
        }
    }

    /// Encode one page worth of values. Returns the packed bytes and the
    /// page's base value (meaningful only for FOR/FOR-delta; 0 otherwise).
    pub fn encode_page(&self, dtype: DataType, values: &[Value]) -> Result<EncodedValues> {
        let mut enc = Encoder::new(self, dtype, values)?;
        let mut w = BitWriter::new();
        match self.codec {
            Codec::Rle {
                value_bits,
                len_bits,
            }
            | Codec::RleDict {
                value_bits,
                len_bits,
            } => {
                let max_len = 1u64 << len_bits.min(63);
                let mut runs: Vec<(u64, u64)> = Vec::new();
                for v in values {
                    let code = enc.code(v)?;
                    match runs.last_mut() {
                        Some((c, n)) if *c == code && *n + 1 < max_len => *n += 1,
                        _ => runs.push((code, 0)),
                    }
                }
                w.write_bytes(&(runs.len() as u32).to_le_bytes());
                for (code, len_minus_1) in runs {
                    w.write(code, value_bits)?;
                    w.write(len_minus_1, len_bits)?;
                }
            }
            Codec::Pfor { bits } => {
                let limit = 1u64.checked_shl(bits as u32).unwrap_or(u64::MAX);
                let mut exceptions: Vec<(u32, u64)> = Vec::new();
                for (i, v) in values.iter().enumerate() {
                    let code = enc.code(v)?;
                    if code < limit {
                        w.write(code, bits)?;
                    } else {
                        // Placeholder slot; the real code rides the patch list.
                        w.write(0, bits)?;
                        exceptions.push((i as u32, code));
                    }
                }
                w.align();
                w.write_bytes(&(exceptions.len() as u32).to_le_bytes());
                for (pos, code) in exceptions {
                    w.write_bytes(&pos.to_le_bytes());
                    w.write_bytes(&code.to_le_bytes());
                }
            }
            _ => {
                if let Codec::DictFor { .. } = self.codec {
                    w.write_bytes(&enc.code_base.to_le_bytes());
                }
                for v in values {
                    enc.write(v, &mut w)?;
                }
            }
        }
        Ok(EncodedValues {
            data: w.into_bytes(),
            base: enc.base,
            count: values.len(),
        })
    }

    /// Open a page's packed bytes for decoding.
    pub fn open_page<'a>(
        &'a self,
        dtype: DataType,
        data: &'a [u8],
        count: usize,
        base: i64,
    ) -> PageValues<'a> {
        // Codecs with a blob header parse it here; the code reader starts
        // after it. A truncated blob (corruption that slipped past the page
        // CRC) degrades to an empty code region, so every decode call fails
        // its bounds check rather than reading garbage.
        let (codes, aux) = if self.codec.blob_header_bytes() == 4 && data.len() >= 4 {
            (
                &data[4..],
                u32::from_le_bytes(data[..4].try_into().expect("4-byte header")),
            )
        } else if self.codec.blob_header_bytes() > 0 {
            (&data[..0], 0)
        } else {
            (data, 0)
        };
        let code_base = match self.codec {
            Codec::DictFor { .. } => aux,
            _ => 0,
        };
        PageValues {
            comp: self,
            field: self.field(dtype, base, code_base),
            data: BitReader::new(codes),
            raw: data,
            count,
            base,
            aux,
        }
    }
}

/// Result of encoding one page of values.
#[derive(Debug, Clone)]
pub struct EncodedValues {
    pub data: Vec<u8>,
    pub base: i64,
    pub count: usize,
}

/// How a stored code becomes a value — the three shapes every codec's read
/// side reduces to.
#[derive(Debug, Clone, Copy)]
enum ValueMap<'a> {
    /// `base + code`: identity (BitPack, raw ints) is base 0; FOR, PFOR and
    /// RLE add the page minimum, FOR-delta its first value (to the running
    /// sum of its deltas).
    Base(i64),
    /// Entry `offset + code` of the dictionary, its values decoded once
    /// (Dict and RLE-dict: offset 0; Dict→FOR: the page's code base).
    Dict {
        ints: &'a [i32],
        values: &'a [Value],
        offset: u32,
    },
    /// The code is the value's first `n` stored bytes, zero-padded to the
    /// declared width (raw text and longs, TextPack).
    Bytes(usize),
}

/// One column's stored codes on one page and the map that turns a code into
/// its value: the read half of a codec, built once per page view (or per
/// packed-row cursor) from the codec, the page base, the Dict→FOR code base
/// and the dictionary. A column page's block decode and random access, node
/// 0's code-space survivors and a packed tuple's fields all read through it.
#[derive(Debug, Clone, Copy)]
pub struct Field<'a> {
    dtype: DataType,
    /// Bits of one stored code (0: the code is the value's bytes).
    bits: u8,
    map: ValueMap<'a>,
    /// FOR-delta: a code is the delta from the previous value, and the map
    /// applies to their running sum.
    delta: bool,
}

/// Entry `offset + code` of a dictionary table.
fn entry<T>(table: &[T], code: u64, offset: u32) -> Result<&T> {
    usize::try_from(code)
        .ok()
        .and_then(|c| c.checked_add(offset as usize))
        .and_then(|i| table.get(i))
        .ok_or_else(|| Error::corrupt(format!("dictionary code {code} out of range")))
}

impl Field<'_> {
    /// Whether a code is a delta from the previous value's (FOR-delta): the
    /// map then applies to the running sum of the codes, not to one.
    pub fn is_delta(&self) -> bool {
        self.delta
    }

    fn want_int(&self) -> Result<()> {
        if self.dtype.is_int() {
            return Ok(());
        }
        Err(Error::TypeMismatch {
            expected: "Int",
            got: self.dtype.name(),
        })
    }

    /// The stored code at bit `off` of `r`, undecoded.
    pub fn code(&self, r: &BitReader, off: usize) -> Result<u64> {
        if self.bits == 0 {
            return Err(Error::InvalidConfig(format!(
                "{} stored as bytes has no code",
                self.dtype
            )));
        }
        r.read_at(off, self.bits)
    }

    /// The int a code stands for.
    pub fn int_of(&self, code: u64) -> Result<i32> {
        self.want_int()?;
        match self.map {
            ValueMap::Base(base) => Ok(base.wrapping_add(code as i64) as i32),
            ValueMap::Dict { ints, offset, .. } => entry(ints, code, offset).copied(),
            // Only text and longs are stored as bytes.
            ValueMap::Bytes(_) => Err(Error::corrupt("int column stored as bytes")),
        }
    }

    /// The value a code stands for, appended at full declared width.
    pub fn raw_of(&self, code: u64, out: &mut Vec<u8>) -> Result<()> {
        if let ValueMap::Dict { values, offset, .. } = self.map {
            return entry(values, code, offset)?.encode_into(self.dtype, out);
        }
        out.extend_from_slice(&self.int_of(code)?.to_le_bytes());
        Ok(())
    }

    /// The int stored at bit `off` of `r`.
    pub fn int(&self, r: &BitReader, off: usize) -> Result<i32> {
        self.want_int()?;
        self.int_of(self.code(r, off)?)
    }

    /// The value stored at bit `off` of `r`, appended at full declared width.
    pub fn raw(&self, r: &BitReader, off: usize, out: &mut Vec<u8>) -> Result<()> {
        if let ValueMap::Bytes(n) = self.map {
            r.read_bytes(off, n, out)?;
            out.resize(out.len() + self.dtype.width() - n, 0);
            return Ok(());
        }
        self.raw_of(self.code(r, off)?, out)
    }

    /// Append the ints a block of codes stands for: the block loop's map.
    fn extend_ints(&self, codes: &[u64], out: &mut Vec<i32>) -> Result<()> {
        let ValueMap::Base(base) = self.map else {
            for &c in codes {
                out.push(self.int_of(c)?);
            }
            return Ok(());
        };
        let start = out.len();
        out.resize(start + codes.len(), 0);
        let vals = &mut out[start..];
        if !crate::simd::base_add(codes, base, vals) {
            for (v, &c) in vals.iter_mut().zip(codes) {
                *v = base.wrapping_add(c as i64) as i32;
            }
        }
        Ok(())
    }
}

/// The write half of a codec on one page: the page base fixed once from the
/// page's values — FOR, PFOR and RLE take the page minimum, FOR-delta its
/// first value, Dict→FOR its least dictionary code — then one code per
/// value, each value checked against the column's declared type and width
/// first. Column pages and packed rows encode through it.
#[derive(Debug)]
pub struct Encoder<'a> {
    comp: &'a ColumnCompression,
    dtype: DataType,
    base: i64,
    code_base: u32,
    /// FOR-delta: the page's previous value.
    prev: Option<i64>,
    /// One raw or text-packed value's bytes.
    bytes: Vec<u8>,
}

/// The least `key` over a page's values (0 for an empty page), each value
/// checked first.
fn page_min<'v>(
    dtype: DataType,
    values: impl IntoIterator<Item = &'v Value>,
    key: impl Fn(&Value) -> Result<i64>,
) -> Result<i64> {
    let mut least: Option<i64> = None;
    for v in values {
        v.check_fits(dtype)?;
        let k = key(v)?;
        least = Some(least.map_or(k, |l| l.min(k)));
    }
    Ok(least.unwrap_or(0))
}

impl<'a> Encoder<'a> {
    /// An encoder for the page holding `values` (the column's values on it,
    /// in order — only the base rule reads them here).
    pub fn new<'v>(
        comp: &'a ColumnCompression,
        dtype: DataType,
        values: impl IntoIterator<Item = &'v Value>,
    ) -> Result<Encoder<'a>> {
        comp.codec.validate_for(dtype)?;
        let int = |v: &Value| v.as_int().map(i64::from);
        let (mut base, mut code_base) = (0, 0);
        match &comp.codec {
            Codec::For { .. } | Codec::Pfor { .. } | Codec::Rle { .. } => {
                base = page_min(dtype, values, int)?;
            }
            Codec::ForDelta { .. } => base = page_min(dtype, values.into_iter().take(1), int)?,
            Codec::DictFor { .. } => {
                let dict = comp.dict()?;
                let code = |v: &Value| dict.code_of(dtype, v).map(i64::from);
                code_base = page_min(dtype, values, code)? as u32;
            }
            _ => {}
        }
        Ok(Encoder {
            comp,
            dtype,
            base,
            code_base,
            prev: None,
            bytes: Vec::new(),
        })
    }

    /// The page base (FOR, PFOR, RLE, FOR-delta; 0 for every other codec).
    pub fn base(&self) -> i64 {
        self.base
    }

    /// The next value's code before it is packed: its offset from the page
    /// base, its delta from the previous value (FOR-delta), or its
    /// dictionary code less the page's code base.
    fn code(&mut self, v: &Value) -> Result<u64> {
        v.check_fits(self.dtype)?;
        let code = match &self.comp.codec {
            Codec::Dict { .. } | Codec::DictFor { .. } | Codec::RleDict { .. } => {
                (self.comp.dict()?.code_of(self.dtype, v)? - self.code_base) as i64
            }
            Codec::BitPack { .. } => {
                let iv = v.as_int()?;
                if iv < 0 {
                    return Err(Error::ValueOutOfDomain(format!(
                        "negative value {iv} under BitPack"
                    )));
                }
                iv as i64
            }
            Codec::ForDelta { .. } => {
                let iv = v.as_int()? as i64;
                let d = self.prev.replace(iv).map_or(0, |p| iv - p);
                if d < 0 {
                    return Err(Error::ValueOutOfDomain(format!(
                        "negative delta {d} under FOR-delta"
                    )));
                }
                d
            }
            Codec::For { .. } | Codec::Pfor { .. } | Codec::Rle { .. } => {
                v.as_int()? as i64 - self.base
            }
            // A raw int's code is its 32 bits.
            Codec::None => v.as_int()? as u32 as i64,
            Codec::TextPack { .. } => {
                return Err(Error::InvalidConfig(
                    "TextPack stores bytes, not codes".into(),
                ))
            }
        };
        Ok(code as u64)
    }

    /// Append the next value at its fixed width: its code, or — raw and
    /// text-packed columns — its bytes.
    pub fn write(&mut self, v: &Value, w: &mut BitWriter) -> Result<()> {
        let bits = self.comp.codec.code_width(self.dtype);
        if bits > 0 {
            let code = self.code(v)?;
            return w.write(code, bits);
        }
        self.bytes.clear();
        v.encode_into(self.dtype, &mut self.bytes)?;
        if let Codec::TextPack { bytes } = self.comp.codec {
            let nb = bytes as usize;
            if self.bytes[nb..].iter().any(|&b| b != 0) {
                return Err(Error::ValueOutOfDomain(format!(
                    "text content exceeds TextPack width {nb}"
                )));
            }
            self.bytes.truncate(nb);
        }
        w.pack_bytes(&self.bytes)
    }
}

/// Parsed view of a PFOR page's exception list.
struct PforExceptions<'a> {
    entries: &'a [u8],
    n: usize,
}

impl PforExceptions<'_> {
    /// Exception `i` as `(position, patched code)`.
    fn get(&self, i: usize) -> (u32, u64) {
        let e = &self.entries[i * 12..i * 12 + 12];
        (
            u32::from_le_bytes(e[..4].try_into().expect("4 bytes")),
            u64::from_le_bytes(e[4..].try_into().expect("8 bytes")),
        )
    }
}

/// Read-side view of one page's packed values.
#[derive(Debug, Clone, Copy)]
pub struct PageValues<'a> {
    comp: &'a ColumnCompression,
    /// The page's codes and value map.
    field: Field<'a>,
    /// Packed codes, positioned after any blob header.
    data: BitReader<'a>,
    /// The whole blob (header + codes + trailing sections like the PFOR
    /// exception list).
    raw: &'a [u8],
    count: usize,
    base: i64,
    /// Parsed blob header: `code_base` for Dict→FOR, `n_runs` for the RLE
    /// family, 0 otherwise.
    aux: u32,
}

impl<'a> PageValues<'a> {
    pub fn count(&self) -> usize {
        self.count
    }

    /// The page's base value (FOR/FOR-delta; 0 otherwise).
    pub fn base(&self) -> i64 {
        self.base
    }

    /// Fixed code width in bits when the page stores sub-byte packed codes
    /// (BitPack/Dict/FOR/FOR-delta/PFOR/Dict→FOR); `None` for raw,
    /// byte-packed and run-length pages.
    pub fn code_bits(&self) -> Option<u8> {
        match self.comp.codec {
            Codec::BitPack { bits }
            | Codec::Dict { bits }
            | Codec::For { bits }
            | Codec::ForDelta { bits }
            | Codec::Pfor { bits }
            | Codec::DictFor { bits } => Some(bits),
            Codec::None | Codec::TextPack { .. } | Codec::Rle { .. } | Codec::RleDict { .. } => {
                None
            }
        }
    }

    /// Per-page dictionary code offset of a Dict→FOR page (stored codes are
    /// `dict code − code_base`); 0 for every other codec.
    pub fn code_base(&self) -> u32 {
        match self.comp.codec {
            Codec::DictFor { .. } => self.aux,
            _ => 0,
        }
    }

    /// Parse the PFOR exception list appended after the packed codes.
    fn pfor_exceptions(&self, bits: u8) -> Result<PforExceptions<'a>> {
        let exc_off = (self.count * bits as usize).div_ceil(8);
        let tail = self.raw.get(exc_off..).ok_or_else(|| {
            Error::corrupt(format!("PFOR exception list at {exc_off} past blob end"))
        })?;
        if tail.len() < 4 {
            return Err(Error::corrupt("PFOR exception count truncated".to_string()));
        }
        let n = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes")) as usize;
        let entries = tail.get(4..4 + n * 12).ok_or_else(|| {
            Error::corrupt(format!("PFOR exception list ({n} entries) truncated"))
        })?;
        Ok(PforExceptions { entries, n })
    }

    /// Block-unpack the raw stored codes of values `first ..
    /// first + out.len()` — before any base addition or dictionary lookup.
    /// This is the entry point for code-space predicate evaluation; bounds
    /// are checked once per call, not per value. PFOR codes come back
    /// **patched** (exception slots carry their real, possibly over-width
    /// code), so comparisons on them stay order-preserving.
    pub fn codes_block(&self, first: usize, out: &mut [u64]) -> Result<()> {
        if first + out.len() > self.count {
            return Err(Error::corrupt(format!(
                "code block [{first}, {}) out of page (count {})",
                first + out.len(),
                self.count
            )));
        }
        match self.code_bits() {
            Some(bits) => {
                self.data.unpack(first, bits, out)?;
                if let Codec::Pfor { bits } = &self.comp.codec {
                    let exc = self.pfor_exceptions(*bits)?;
                    for i in 0..exc.n {
                        let (pos, code) = exc.get(i);
                        let pos = pos as usize;
                        if pos >= first && pos < first + out.len() {
                            out[pos - first] = code;
                        }
                    }
                }
                Ok(())
            }
            None => Err(Error::InvalidConfig(format!(
                "codec {:?} has no packed codes",
                self.comp.codec.kind()
            ))),
        }
    }

    /// Read run `r` of an RLE-family page: `(code, length)`.
    fn run_at(&self, r: usize, value_bits: u8, len_bits: u8) -> Result<(u64, u64)> {
        let stride = value_bits as usize + len_bits as usize;
        let code = self.data.read_at(r * stride, value_bits)?;
        let len = self
            .data
            .read_at(r * stride + value_bits as usize, len_bits)?
            + 1;
        Ok((code, len))
    }

    /// Block-decode **all** of the page's integers into `out` (cleared
    /// first) — the one whole-page decoder. Codes are unpacked by the
    /// word-aligned [`BitReader::unpack`] kernels in [`BLOCK`]-value runs
    /// (one bounds check per block) and each block goes through the page's
    /// value map; FOR-delta's running sum, PFOR's exception patch and the
    /// RLE family's run walk are written here and nowhere else.
    pub fn decode_ints_into(&self, out: &mut Vec<i32>) -> Result<()> {
        out.clear();
        if self.count == 0 {
            return Ok(());
        }
        self.field.want_int()?;
        out.reserve(self.count);
        if let Codec::Rle {
            value_bits,
            len_bits,
        }
        | Codec::RleDict {
            value_bits,
            len_bits,
        } = self.comp.codec
        {
            let mut emitted = 0usize;
            for r in 0..self.aux as usize {
                if emitted == self.count {
                    break;
                }
                let (code, len) = self.run_at(r, value_bits, len_bits)?;
                let take = (len as usize).min(self.count - emitted);
                out.extend(std::iter::repeat_n(self.field.int_of(code)?, take));
                emitted += take;
            }
            if emitted != self.count {
                return Err(Error::corrupt(format!(
                    "RLE runs cover {emitted} of {} values",
                    self.count
                )));
            }
            return Ok(());
        }
        let mut block = [0u64; BLOCK];
        let mut sum = 0u64;
        for first in (0..self.count).step_by(BLOCK) {
            let codes = &mut block[..BLOCK.min(self.count - first)];
            self.data.unpack(first, self.field.bits, codes)?;
            if self.field.delta {
                // Code 0 carries the base: it counts as a zero delta.
                if first == 0 {
                    codes[0] = 0;
                }
                for c in codes.iter_mut() {
                    sum = sum.wrapping_add(*c);
                    *c = sum;
                }
            }
            self.field.extend_ints(codes, out)?;
        }
        if let Codec::Pfor { bits } = self.comp.codec {
            // Exception slots decoded as 0 above; patch in their real codes.
            let exc = self.pfor_exceptions(bits)?;
            for i in 0..exc.n {
                let (pos, code) = exc.get(i);
                let slot = out.get_mut(pos as usize).ok_or_else(|| {
                    Error::corrupt(format!("PFOR exception position {pos} out of page"))
                })?;
                *slot = self.field.int_of(code)?;
            }
        }
        Ok(())
    }

    fn check(&self, idx: usize) -> Result<()> {
        if idx >= self.count {
            return Err(Error::corrupt(format!(
                "value index {idx} out of page (count {})",
                self.count
            )));
        }
        Ok(())
    }

    /// The stored code of value `idx`, PFOR exceptions patched.
    fn code_at(&self, idx: usize) -> Result<u64> {
        let code = self.data.get(idx, self.field.bits)?;
        let Codec::Pfor { bits } = self.comp.codec else {
            return Ok(code);
        };
        let exc = self.pfor_exceptions(bits)?;
        let patched = (0..exc.n)
            .map(|i| exc.get(i))
            .find(|&(p, _)| p as usize == idx);
        Ok(patched.map_or(code, |(_, c)| c))
    }

    /// The page's value map applied to one stored code — how node 0 turns a
    /// code-space survivor of [`PageValues::codes_block`] into its int.
    pub fn int_of(&self, code: u64) -> Result<i32> {
        self.field.int_of(code)
    }

    /// Random-access decode of an integer value. FOR-delta and the RLE
    /// family have no random access: this decodes the whole page.
    pub fn int_at(&self, idx: usize) -> Result<i32> {
        self.check(idx)?;
        self.field.want_int()?;
        if !self.comp.codec.random_access() {
            let mut all = Vec::new();
            self.decode_ints_into(&mut all)?;
            return Ok(all[idx]);
        }
        self.field.int_of(self.code_at(idx)?)
    }

    /// Random-access decode of any value.
    pub fn value_at(&self, idx: usize) -> Result<Value> {
        match self.field.dtype {
            DataType::Int => self.int_at(idx).map(Value::Int),
            dt @ (DataType::Long | DataType::Text(_)) => {
                let mut out = Vec::with_capacity(dt.width());
                self.write_raw(idx, &mut out)?;
                Value::decode(dt, &out)
            }
        }
    }

    /// Append the *uncompressed* (full declared width) bytes of value `idx`
    /// to `out` — how scanners materialize tuples into blocks.
    pub fn write_raw(&self, idx: usize, out: &mut Vec<u8>) -> Result<()> {
        self.check(idx)?;
        match self.field.map {
            ValueMap::Bytes(n) => self.field.raw(&self.data, idx * n * 8, out),
            _ if !self.comp.codec.random_access() => {
                out.extend_from_slice(&self.int_at(idx)?.to_le_bytes());
                Ok(())
            }
            _ => self.field.raw_of(self.code_at(idx)?, out),
        }
    }

    /// Sequential view over the page's values.
    pub fn cursor(&self) -> SeqValues<'a> {
        SeqValues {
            pv: *self,
            idx: 0,
            ints: Vec::new(),
        }
    }
}

/// Sequential view of one page's values — the page's two decoders in value
/// order: random access where the codec has it, one whole-page block decode
/// where it does not (FOR-delta, the RLE family).
#[derive(Debug, Clone)]
pub struct SeqValues<'a> {
    pv: PageValues<'a>,
    idx: usize,
    /// The whole page, decoded on first use, for a codec without random
    /// access.
    ints: Vec<i32>,
}

impl SeqValues<'_> {
    /// Decode the integer at the current position and advance.
    pub fn next_int(&mut self) -> Result<i32> {
        let idx = self.idx;
        let v = if self.pv.comp.codec.random_access() {
            self.pv.int_at(idx)?
        } else {
            self.pv.check(idx)?;
            if self.ints.is_empty() {
                self.pv.decode_ints_into(&mut self.ints)?;
            }
            self.ints[idx]
        };
        self.idx += 1;
        Ok(v)
    }

    /// Decode the value at the current position into raw full-width bytes and
    /// advance.
    pub fn next_raw(&mut self, out: &mut Vec<u8>) -> Result<()> {
        if self.pv.field.dtype.is_int() {
            let v = self.next_int()?;
            out.extend_from_slice(&v.to_le_bytes());
            return Ok(());
        }
        self.pv.write_raw(self.idx, out)?;
        self.idx += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vals: &[i32]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    fn roundtrip(comp: &ColumnCompression, dtype: DataType, vals: &[Value]) {
        let enc = comp.encode_page(dtype, vals).unwrap();
        let pv = comp.open_page(dtype, &enc.data, enc.count, enc.base);
        // Random access (when supported).
        if comp.codec.random_access() {
            for (i, v) in vals.iter().enumerate() {
                let got = pv.value_at(i).unwrap();
                assert_eq!(got.to_string(), v.to_string(), "random idx {i}");
            }
        }
        // Sequential.
        let mut c = pv.cursor();
        for (i, v) in vals.iter().enumerate() {
            let mut raw = Vec::new();
            c.next_raw(&mut raw).unwrap();
            let got = Value::decode(dtype, &raw).unwrap();
            assert_eq!(got.to_string(), v.to_string(), "seq idx {i}");
        }
    }

    #[test]
    fn none_roundtrip() {
        roundtrip(
            &ColumnCompression::none(),
            DataType::Int,
            &ints(&[0, -5, i32::MAX, i32::MIN, 42]),
        );
        roundtrip(
            &ColumnCompression::none(),
            DataType::Text(5),
            &[Value::text("ab"), Value::text("cdefg"), Value::text("")],
        );
    }

    #[test]
    fn bitpack_roundtrip_and_domain() {
        let comp = ColumnCompression::new(Codec::BitPack { bits: 10 }, None).unwrap();
        roundtrip(&comp, DataType::Int, &ints(&[0, 1000, 1023, 512]));
        assert!(comp.encode_page(DataType::Int, &ints(&[1024])).is_err());
        assert!(comp.encode_page(DataType::Int, &ints(&[-1])).is_err());
    }

    #[test]
    fn paper_for_vs_fordelta_example() {
        // §2.2.1: sorted IDs 100,101,102,103 → FOR codes (0,1,2,3),
        // FOR-delta codes (0,1,1,1), base 100 in both.
        let vals = ints(&[100, 101, 102, 103]);
        let f = ColumnCompression::new(Codec::For { bits: 8 }, None).unwrap();
        let enc = f.encode_page(DataType::Int, &vals).unwrap();
        assert_eq!(enc.base, 100);
        let r = BitReader::new(&enc.data);
        assert_eq!(
            (0..4).map(|i| r.get(i, 8).unwrap()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        roundtrip(&f, DataType::Int, &vals);

        let fd = ColumnCompression::new(Codec::ForDelta { bits: 8 }, None).unwrap();
        let enc = fd.encode_page(DataType::Int, &vals).unwrap();
        assert_eq!(enc.base, 100);
        let r = BitReader::new(&enc.data);
        assert_eq!(
            (0..4).map(|i| r.get(i, 8).unwrap()).collect::<Vec<_>>(),
            vec![0, 1, 1, 1]
        );
        roundtrip(&fd, DataType::Int, &vals);
    }

    #[test]
    fn for_handles_unsorted_via_min_base() {
        let comp = ColumnCompression::new(Codec::For { bits: 4 }, None).unwrap();
        roundtrip(&comp, DataType::Int, &ints(&[7, 3, 12, 3, 10]));
        // Range 0..=15 fits; range 16 does not.
        assert!(comp.encode_page(DataType::Int, &ints(&[0, 16])).is_err());
    }

    #[test]
    fn fordelta_rejects_decreasing() {
        let comp = ColumnCompression::new(Codec::ForDelta { bits: 8 }, None).unwrap();
        assert!(comp.encode_page(DataType::Int, &ints(&[5, 4])).is_err());
    }

    #[test]
    fn fordelta_reads_through_the_page_decode() {
        let vals = ints(&[10, 11, 13, 16, 20, 25]);
        let comp = ColumnCompression::new(Codec::ForDelta { bits: 4 }, None).unwrap();
        let enc = comp.encode_page(DataType::Int, &vals).unwrap();
        let pv = comp.open_page(DataType::Int, &enc.data, enc.count, enc.base);
        assert!(!comp.codec.random_access());
        // Random access decodes the whole page, and is exact at every index.
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(Value::Int(pv.int_at(i).unwrap()), *v);
        }
        let mut c = pv.cursor();
        for v in &vals {
            assert_eq!(Value::Int(c.next_int().unwrap()), *v);
        }
        assert!(c.next_int().is_err(), "past the page");
    }

    #[test]
    fn dict_roundtrip_text_and_int() {
        let vals = [Value::text("AIR"), Value::text("SHIP"), Value::text("AIR")];
        let dict = Arc::new(Dictionary::build(DataType::Text(10), vals.iter()).unwrap());
        let comp = ColumnCompression::new(Codec::Dict { bits: 2 }, Some(dict)).unwrap();
        roundtrip(&comp, DataType::Text(10), &vals);

        let vals = ints(&[500, 900, 500, 100]);
        let dict = Arc::new(Dictionary::build(DataType::Int, vals.iter()).unwrap());
        let comp = ColumnCompression::new(Codec::Dict { bits: 2 }, Some(dict)).unwrap();
        roundtrip(&comp, DataType::Int, &vals);
    }

    #[test]
    fn dict_requires_enough_bits_and_a_dictionary() {
        let vals: Vec<Value> = (0..5).map(Value::Int).collect();
        let dict = Arc::new(Dictionary::build(DataType::Int, vals.iter()).unwrap());
        assert!(ColumnCompression::new(Codec::Dict { bits: 2 }, Some(dict.clone())).is_err());
        assert!(ColumnCompression::new(Codec::Dict { bits: 3 }, Some(dict)).is_ok());
        assert!(ColumnCompression::new(Codec::Dict { bits: 3 }, None).is_err());
    }

    #[test]
    fn textpack_roundtrip_and_validation() {
        let vals = [Value::text("short"), Value::text("tiny"), Value::text("")];
        let comp = ColumnCompression::new(Codec::TextPack { bytes: 8 }, None).unwrap();
        roundtrip(&comp, DataType::Text(30), &vals);
        // Content beyond the packed width is rejected.
        let long = [Value::text("this is far longer than eight")];
        assert!(comp.encode_page(DataType::Text(30), &long).is_err());
        // TextPack wider than the column is invalid.
        assert!(Codec::TextPack { bytes: 40 }
            .validate_for(DataType::Text(30))
            .is_err());
        assert!(Codec::TextPack { bytes: 8 }
            .validate_for(DataType::Int)
            .is_err());
    }

    #[test]
    fn type_validation() {
        assert!(Codec::BitPack { bits: 4 }
            .validate_for(DataType::Text(4))
            .is_err());
        assert!(Codec::For { bits: 4 }
            .validate_for(DataType::Text(4))
            .is_err());
        assert!(Codec::ForDelta { bits: 4 }
            .validate_for(DataType::Text(4))
            .is_err());
        assert!(Codec::None.validate_for(DataType::Text(4)).is_ok());
        assert!(Codec::Dict { bits: 4 }
            .validate_for(DataType::Text(4))
            .is_ok());
    }

    #[test]
    fn bits_per_value_matches_figure5_arithmetic() {
        // ORDERS-Z: 14 + 8 + 32 + 2 + 3 + 32 + 1 = 92 bits = 11.5 → 12 bytes.
        let widths = [
            Codec::BitPack { bits: 14 }.bits_per_value(DataType::Int),
            Codec::ForDelta { bits: 8 }.bits_per_value(DataType::Int),
            Codec::None.bits_per_value(DataType::Int),
            Codec::Dict { bits: 2 }.bits_per_value(DataType::Text(1)),
            Codec::Dict { bits: 3 }.bits_per_value(DataType::Text(11)),
            Codec::None.bits_per_value(DataType::Int),
            Codec::BitPack { bits: 1 }.bits_per_value(DataType::Int),
        ];
        let total: usize = widths.iter().sum();
        assert_eq!(total, 92);
        assert_eq!(total.div_ceil(8), 12);
    }

    #[test]
    fn rle_roundtrip_runs_and_domain() {
        let comp = ColumnCompression::new(
            Codec::Rle {
                value_bits: 6,
                len_bits: 3,
            },
            None,
        )
        .unwrap();
        // Runny data with a run longer than 2^3 (must split) and the page
        // minimum as base.
        let mut vals = Vec::new();
        vals.extend(std::iter::repeat_n(Value::Int(40), 23));
        vals.extend(std::iter::repeat_n(Value::Int(-2), 5));
        vals.extend(std::iter::repeat_n(Value::Int(17), 1));
        roundtrip(&comp, DataType::Int, &vals);
        let enc = comp.encode_page(DataType::Int, &vals).unwrap();
        assert_eq!(enc.base, -2);
        assert!(!comp.codec.random_access());
        // int_at still works (O(runs)).
        let pv = comp.open_page(DataType::Int, &enc.data, enc.count, enc.base);
        assert_eq!(pv.int_at(0).unwrap(), 40);
        assert_eq!(pv.int_at(27).unwrap(), -2);
        assert_eq!(pv.int_at(28).unwrap(), 17);
        assert!(pv.int_at(29).is_err());
        // Range wider than value_bits is rejected.
        assert!(comp.encode_page(DataType::Int, &ints(&[0, 100])).is_err());
    }

    #[test]
    fn pfor_roundtrip_patches_exceptions() {
        let comp = ColumnCompression::new(Codec::Pfor { bits: 4 }, None).unwrap();
        // Mostly small range with two outliers that overflow 4 bits.
        let vals = ints(&[10, 12, 11, 900, 13, 10, 15, -50, 14]);
        roundtrip(&comp, DataType::Int, &vals);
        let enc = comp.encode_page(DataType::Int, &vals).unwrap();
        assert_eq!(enc.base, -50);
        let pv = comp.open_page(DataType::Int, &enc.data, enc.count, enc.base);
        // codes_block returns *patched* codes: exceptions carry their real
        // (over-width) code so comparisons stay order-preserving.
        let mut codes = vec![0u64; vals.len()];
        pv.codes_block(0, &mut codes).unwrap();
        assert_eq!(codes[3], 950); // 900 − (−50), far over 2^4
        assert_eq!(codes[7], 0); // −50 − (−50)
        assert_eq!(codes[0], 60);
        let mut fast = Vec::new();
        pv.decode_ints_into(&mut fast).unwrap();
        assert_eq!(fast[3], 900);
        assert_eq!(fast[7], -50);
        // No-exception page: exception list is present but empty.
        let small = ints(&[3, 1, 2]);
        let enc = comp.encode_page(DataType::Int, &small).unwrap();
        let pv = comp.open_page(DataType::Int, &enc.data, enc.count, enc.base);
        assert_eq!(pv.int_at(0).unwrap(), 3);
    }

    #[test]
    fn dictfor_rebases_codes_per_page() {
        // Dictionary over a wide value set; this page only touches the upper
        // codes, so stored codes re-base to the page's minimum code.
        let all: Vec<Value> = (0..64).map(|i| Value::Int(i * 100)).collect();
        let dict = Arc::new(Dictionary::build(DataType::Int, all.iter()).unwrap());
        assert_eq!(dict.code_bits(), 6);
        let comp = ColumnCompression::new(Codec::DictFor { bits: 2 }, Some(dict)).unwrap();
        let vals = ints(&[6000, 6100, 6300, 6000, 6200]);
        roundtrip(&comp, DataType::Int, &vals);
        let enc = comp.encode_page(DataType::Int, &vals).unwrap();
        let pv = comp.open_page(DataType::Int, &enc.data, enc.count, enc.base);
        assert_eq!(pv.code_base(), 60);
        let mut codes = vec![0u64; vals.len()];
        pv.codes_block(0, &mut codes).unwrap();
        assert_eq!(codes, vec![0, 1, 3, 0, 2]);
        // A page whose code span exceeds `bits` is rejected.
        assert!(comp.encode_page(DataType::Int, &ints(&[0, 6300])).is_err());
        // Text works through the same composite.
        let words = [Value::text("aa"), Value::text("bb"), Value::text("cc")];
        let dict = Arc::new(Dictionary::build(DataType::Text(4), words.iter()).unwrap());
        let comp = ColumnCompression::new(Codec::DictFor { bits: 2 }, Some(dict)).unwrap();
        roundtrip(&comp, DataType::Text(4), &words);
        // Dict→FOR without a dictionary is invalid.
        assert!(ColumnCompression::new(Codec::DictFor { bits: 2 }, None).is_err());
    }

    #[test]
    fn rledict_roundtrip() {
        let vals: Vec<Value> = [500, 500, 500, -9, -9, 500, 123]
            .iter()
            .map(|&v| Value::Int(v))
            .collect();
        let dict = Arc::new(Dictionary::build(DataType::Int, vals.iter()).unwrap());
        let comp = ColumnCompression::new(
            Codec::RleDict {
                value_bits: 2,
                len_bits: 4,
            },
            Some(dict.clone()),
        )
        .unwrap();
        roundtrip(&comp, DataType::Int, &vals);
        assert!(!comp.codec.random_access());
        // value_bits below the dictionary's code width is rejected, as is a
        // missing dictionary and a text column.
        assert!(ColumnCompression::new(
            Codec::RleDict {
                value_bits: 1,
                len_bits: 4
            },
            Some(dict.clone())
        )
        .is_err());
        assert!(ColumnCompression::new(
            Codec::RleDict {
                value_bits: 2,
                len_bits: 4
            },
            None
        )
        .is_err());
        assert!(Codec::RleDict {
            value_bits: 2,
            len_bits: 4
        }
        .validate_for(DataType::Text(4))
        .is_err());
    }

    #[test]
    fn packed_equivalents_are_fixed_width() {
        let dict =
            Arc::new(Dictionary::build(DataType::Int, ints(&[1, 2, 3, 4, 5]).iter()).unwrap());
        let cases = [
            (
                ColumnCompression::new(
                    Codec::Rle {
                        value_bits: 4,
                        len_bits: 4,
                    },
                    None,
                )
                .unwrap(),
                Codec::None,
            ),
            (
                ColumnCompression::new(Codec::Pfor { bits: 7 }, None).unwrap(),
                Codec::None,
            ),
            (
                ColumnCompression::new(Codec::DictFor { bits: 2 }, Some(dict.clone())).unwrap(),
                Codec::Dict { bits: 3 },
            ),
            (
                ColumnCompression::new(
                    Codec::RleDict {
                        value_bits: 3,
                        len_bits: 5,
                    },
                    Some(dict.clone()),
                )
                .unwrap(),
                Codec::Dict { bits: 3 },
            ),
            (
                ColumnCompression::new(Codec::For { bits: 9 }, None).unwrap(),
                Codec::For { bits: 9 },
            ),
        ];
        for (comp, want) in cases {
            let demoted = comp.packed_equivalent();
            assert_eq!(demoted.codec, want);
            assert!(demoted.codec.random_access());
            assert!(!demoted.codec.variable_rate());
        }
    }

    #[test]
    fn block_decode_matches_scalar_for_every_codec() {
        // 333 values: two full 128-blocks plus a tail; non-negative and
        // non-decreasing variants so every codec's domain holds.
        let n = 333usize;
        let uns: Vec<Value> = (0..n)
            .map(|i| Value::Int(((i * 37) % 1000) as i32))
            .collect();
        let sorted: Vec<Value> = (0..n).map(|i| Value::Int(100 + (i as i32) * 3)).collect();
        let lowcard: Vec<Value> = (0..n).map(|i| Value::Int([7, -3, 900][i % 3])).collect();
        let dict = Arc::new(Dictionary::build(DataType::Int, lowcard.iter()).unwrap());
        let dict2 = dict.clone();
        let cases: Vec<(ColumnCompression, &Vec<Value>)> = vec![
            (ColumnCompression::none(), &uns),
            (
                ColumnCompression::new(Codec::BitPack { bits: 10 }, None).unwrap(),
                &uns,
            ),
            (
                ColumnCompression::new(Codec::Dict { bits: 2 }, Some(dict)).unwrap(),
                &lowcard,
            ),
            (
                ColumnCompression::new(Codec::For { bits: 10 }, None).unwrap(),
                &uns,
            ),
            (
                ColumnCompression::new(Codec::ForDelta { bits: 4 }, None).unwrap(),
                &sorted,
            ),
            (
                ColumnCompression::new(Codec::Pfor { bits: 10 }, None).unwrap(),
                &uns,
            ),
            (
                ColumnCompression::new(
                    Codec::Rle {
                        value_bits: 11,
                        len_bits: 2,
                    },
                    None,
                )
                .unwrap(),
                &lowcard,
            ),
            (
                ColumnCompression::new(Codec::DictFor { bits: 2 }, Some(dict2.clone())).unwrap(),
                &lowcard,
            ),
            (
                ColumnCompression::new(
                    Codec::RleDict {
                        value_bits: 2,
                        len_bits: 3,
                    },
                    Some(dict2),
                )
                .unwrap(),
                &lowcard,
            ),
        ];
        for (comp, vals) in cases {
            let enc = comp.encode_page(DataType::Int, vals).unwrap();
            let pv = comp.open_page(DataType::Int, &enc.data, enc.count, enc.base);
            let mut fast = Vec::new();
            pv.decode_ints_into(&mut fast).unwrap();
            let slow: Vec<i32> = (0..n).map(|i| pv.int_at(i).unwrap()).collect();
            assert_eq!(fast, slow, "codec {:?}", comp.codec.kind());
            assert_eq!(
                fast,
                vals.iter().map(|v| v.as_int().unwrap()).collect::<Vec<_>>()
            );
            // Raw codes agree with scalar `get` where codes exist.
            if let Some(bits) = pv.code_bits() {
                let mut codes = vec![0u64; n];
                pv.codes_block(0, &mut codes).unwrap();
                for (i, &c) in codes.iter().enumerate() {
                    assert_eq!(c, pv.data.get(i, bits).unwrap(), "idx {i}");
                }
                assert!(pv.codes_block(n - 1, &mut [0u64; 2][..]).is_err());
            }
        }
    }

    #[test]
    fn block_decode_empty_page() {
        let comp = ColumnCompression::new(Codec::BitPack { bits: 7 }, None).unwrap();
        let enc = comp.encode_page(DataType::Int, &[]).unwrap();
        let pv = comp.open_page(DataType::Int, &enc.data, 0, enc.base);
        let mut out = vec![1i32; 4];
        pv.decode_ints_into(&mut out).unwrap();
        assert!(out.is_empty());
        assert!(pv.codes_block(0, &mut [0u64; 1][..]).is_err());
    }

    #[test]
    fn out_of_range_index_rejected() {
        let comp = ColumnCompression::none();
        let enc = comp.encode_page(DataType::Int, &ints(&[1, 2])).unwrap();
        let pv = comp.open_page(DataType::Int, &enc.data, 2, 0);
        assert!(pv.int_at(2).is_err());
        assert!(pv.value_at(5).is_err());
    }
}
