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
        let (ints, (entries, width)) = match self.dict.as_deref() {
            Some(d) => (d.ints(), d.entries()),
            None => (&[][..], (&[][..], 0)),
        };
        let dict = |offset| ValueMap::Dict {
            ints,
            entries,
            width,
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

    /// Encode one page worth of values: each value checked against the
    /// column's declared type and width and laid out as its stored bytes,
    /// then [`ColumnCompression::encode_raw`].
    pub fn encode_page(&self, dtype: DataType, values: &[Value]) -> Result<EncodedValues> {
        self.codec.validate_for(dtype)?;
        let mut raw = Vec::with_capacity(values.len() * dtype.width());
        for v in values {
            v.encode_into(dtype, &mut raw)?;
        }
        self.encode_raw(dtype, &raw, values.len())
    }

    /// Encode one page of `n` values given as their stored bytes at full
    /// declared width (`raw`, `n × dtype.width()` bytes): the page's codes
    /// ([`ColumnCompression::page_codes`]) in the codec's page format —
    /// fixed-width codes after any blob header, PFOR's patch list, RLE's
    /// runs. Returns the packed bytes and the page's base value (FOR, PFOR,
    /// RLE, FOR-delta; 0 otherwise).
    pub fn encode_raw(&self, dtype: DataType, raw: &[u8], n: usize) -> Result<EncodedValues> {
        let page = self.codes(dtype, raw, n)?;
        let mut w = BitWriter::with_capacity((n * self.codec.bits_per_value(dtype)).div_ceil(8));
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
                for &code in &page.codes {
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
                for (i, &code) in page.codes.iter().enumerate() {
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
                    w.write_bytes(&page.code_base.to_le_bytes());
                }
                page.write_all(&mut w);
            }
        }
        Ok(EncodedValues {
            data: w.into_bytes(),
            base: page.base,
            count: n,
        })
    }

    /// The codes of one page of `n` values given as their stored bytes (see
    /// [`ColumnCompression::encode_raw`]), for a codec a packed row page
    /// can hold ([`Codec::packable`]): what such a page interleaves tuple
    /// by tuple. The other codecs' pages are more than their codes.
    pub fn page_codes<'r>(
        &self,
        dtype: DataType,
        raw: &'r [u8],
        n: usize,
    ) -> Result<PageCodes<'r>> {
        if !self.codec.packable() {
            return Err(Error::InvalidConfig(format!(
                "codec {:?} has no fixed-width codes alone",
                self.codec.kind()
            )));
        }
        self.codes(dtype, raw, n)
    }

    /// The block encoder: the page base fixed once from the page's values
    /// — FOR, PFOR and RLE take the page minimum, FOR-delta its first
    /// value, Dict→FOR its least dictionary code — then every value's code
    /// in one pass, each checked in value order: negative under BitPack,
    /// a negative FOR-delta delta, not in the dictionary, content past a
    /// TextPack width, and (fixed-rate codecs) a code too wide. The RLE
    /// family's codes are checked against the run width when its runs are
    /// packed, and PFOR's over-wide codes are its exceptions.
    fn codes<'r>(&self, dtype: DataType, raw: &'r [u8], n: usize) -> Result<PageCodes<'r>> {
        self.codec.validate_for(dtype)?;
        let width = dtype.width();
        if n.checked_mul(width) != Some(raw.len()) {
            return Err(Error::InvalidConfig(format!(
                "{} stored bytes for {n} values of {dtype}",
                raw.len()
            )));
        }
        let bits = self.codec.code_width(dtype);
        let stores_bytes = matches!(self.codec, Codec::None | Codec::TextPack { .. });
        if n > 0 && (bits > 64 || (bits == 0 && !stores_bytes)) {
            return Err(Error::InvalidConfig(format!("bit width {bits}")));
        }
        let mut page = PageCodes {
            base: 0,
            code_base: 0,
            bits,
            codes: Vec::new(),
            bytes: raw,
            width,
            keep: width,
        };
        let limit = match (self.codec.variable_rate(), bits) {
            (false, 1..=64) => u64::MAX >> (64 - bits as u32),
            _ => u64::MAX,
        };
        let fits = |code: u64| {
            if code > limit {
                return Err(Error::ValueOutOfDomain(format!(
                    "code {code} does not fit in {bits} bits"
                )));
            }
            Ok(code)
        };
        let ints = || {
            raw.as_chunks::<4>()
                .0
                .iter()
                .map(|b| i64::from(i32::from_le_bytes(*b)))
        };
        let stored = || raw.chunks_exact(width);
        let dict_code = |dict: &Dictionary, v: &[u8]| {
            dict.code_of_stored(v).ok_or_else(|| {
                let v = Value::decode(dtype, v).map_or_else(|e| e.to_string(), |v| v.to_string());
                Error::ValueOutOfDomain(format!("value {v} not in dictionary"))
            })
        };
        page.codes = match &self.codec {
            Codec::TextPack { bytes } => {
                let keep = *bytes as usize;
                if stored().any(|v| v[keep..].iter().any(|&b| b != 0)) {
                    return Err(Error::ValueOutOfDomain(format!(
                        "text content exceeds TextPack width {keep}"
                    )));
                }
                page.keep = keep;
                return Ok(page);
            }
            // Raw text and longs are stored as their bytes; a raw int's
            // code is its 32 bits.
            Codec::None if bits == 0 => return Ok(page),
            Codec::None => ints().map(|v| v as u32 as u64).collect(),
            Codec::BitPack { .. } => ints()
                .map(|v| match v {
                    ..0 => Err(Error::ValueOutOfDomain(format!(
                        "negative value {v} under BitPack"
                    ))),
                    _ => fits(v as u64),
                })
                .collect::<Result<_>>()?,
            Codec::For { .. } | Codec::Pfor { .. } | Codec::Rle { .. } => {
                page.base = ints().min().unwrap_or(0);
                ints()
                    .map(|v| fits((v - page.base) as u64))
                    .collect::<Result<_>>()?
            }
            Codec::ForDelta { .. } => {
                page.base = ints().next().unwrap_or(0);
                let mut prev = page.base;
                ints()
                    .map(|v| {
                        let d = v - std::mem::replace(&mut prev, v);
                        if d < 0 {
                            return Err(Error::ValueOutOfDomain(format!(
                                "negative delta {d} under FOR-delta"
                            )));
                        }
                        fits(d as u64)
                    })
                    .collect::<Result<_>>()?
            }
            Codec::Dict { .. } | Codec::RleDict { .. } => {
                let dict = self.dict()?;
                stored()
                    .map(|v| fits(u64::from(dict_code(dict, v)?)))
                    .collect::<Result<_>>()?
            }
            Codec::DictFor { .. } => {
                let dict = self.dict()?;
                let codes = stored()
                    .map(|v| dict_code(dict, v))
                    .collect::<Result<Vec<u32>>>()?;
                page.code_base = codes.iter().copied().min().unwrap_or(0);
                codes
                    .iter()
                    .map(|&c| fits(u64::from(c - page.code_base)))
                    .collect::<Result<_>>()?
            }
        };
        Ok(page)
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
        let (codes, aux) = match (
            self.codec.blob_header_bytes(),
            data.split_first_chunk::<4>(),
        ) {
            (0, _) => (data, 0),
            (4, Some((header, codes))) => (codes, u32::from_le_bytes(*header)),
            _ => (&data[..0], 0),
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
    /// Entry `offset + code` of the dictionary, its values decoded once —
    /// as ints, and as `width`-byte stored values (Dict and RLE-dict:
    /// offset 0; Dict→FOR: the page's code base).
    Dict {
        ints: &'a [i32],
        entries: &'a [u8],
        width: usize,
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

/// Entry `offset + code` of a dictionary table whose entries are `width`
/// items each (1 for the ints).
fn entry<T>(table: &[T], width: usize, code: u64, offset: u32) -> Result<&[T]> {
    usize::try_from(code)
        .ok()
        .and_then(|c| c.checked_add(offset as usize))
        .and_then(|i| table.get(i.checked_mul(width)?..i.checked_add(1)?.checked_mul(width)?))
        .ok_or_else(|| Error::corrupt(format!("dictionary code {code} out of range")))
}

impl<'a> Field<'a> {
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
            ValueMap::Dict { ints, offset, .. } => Ok(entry(ints, 1, code, offset)?[0]),
            // Only text and longs are stored as bytes.
            ValueMap::Bytes(_) => Err(Error::corrupt("int column stored as bytes")),
        }
    }

    /// The dictionary's stored values and the page's code offset, where the
    /// value map is a dictionary lookup; its entries must be as wide as the
    /// column's declared type.
    fn entries(&self) -> Result<Option<(&'a [u8], u32)>> {
        let ValueMap::Dict {
            entries,
            width,
            offset,
            ..
        } = self.map
        else {
            return Ok(None);
        };
        if width != self.dtype.width() {
            return Err(Error::InvalidConfig(format!(
                "{} column over a dictionary of {width}-byte values",
                self.dtype
            )));
        }
        Ok(Some((entries, offset)))
    }

    /// The value a code stands for, appended at full declared width.
    #[inline]
    pub fn raw_of(&self, code: u64, out: &mut Vec<u8>) -> Result<()> {
        if let Some((entries, offset)) = self.entries()? {
            out.extend_from_slice(entry(entries, self.dtype.width(), code, offset)?);
            return Ok(());
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
    #[inline]
    pub fn raw(&self, r: &BitReader, off: usize, out: &mut Vec<u8>) -> Result<()> {
        if let ValueMap::Bytes(n) = self.map {
            r.read_bytes(off, n, out)?;
            out.resize(out.len() + self.dtype.width() - n, 0);
            return Ok(());
        }
        self.raw_of(self.code(r, off)?, out)
    }

    /// The codes of `n` values stored `stride` bits apart from bit `first`
    /// of `r` — one word load each, the run's bounds checked before any is
    /// read. A FOR-delta field's codes are its deltas.
    #[inline]
    pub fn codes_strided<'r>(
        &self,
        r: &'r BitReader,
        first: usize,
        stride: usize,
        n: usize,
    ) -> Result<impl Iterator<Item = u64> + 'r> {
        if self.bits == 0 {
            return Err(Error::InvalidConfig(format!(
                "{} stored as bytes has no code",
                self.dtype
            )));
        }
        r.strided(first, stride, n, self.bits)
    }

    /// Append the values of `n` values stored `stride` bits apart from bit
    /// `first` of `r`, each at full declared width; the run's bounds are
    /// checked before any value is read, and on an error `out` is as it
    /// was. A FOR-delta field is decoded as one running sum of its deltas,
    /// so `first` must be its page's first value (whose code is 0: the page
    /// base carries it).
    pub fn raw_strided(
        &self,
        r: &BitReader,
        first: usize,
        stride: usize,
        n: usize,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        // The run's bounds, before anything is allocated for it.
        match (self.map, n.checked_sub(1)) {
            (ValueMap::Bytes(nb), Some(last)) => {
                let last = last.checked_mul(stride).and_then(|l| l.checked_add(first));
                let last = last.ok_or_else(|| Error::corrupt("strided read past usize"))?;
                r.bytes(last / 8, (last % 8 + nb * 8).div_ceil(8))?;
            }
            (ValueMap::Bytes(_), None) => {}
            _ => drop(self.codes_strided(r, first, stride, n)?),
        }
        let (start, width) = (out.len(), self.dtype.width());
        out.resize(start + n * width, 0);
        let values = out[start..].chunks_exact_mut(width);
        let filled = self.fill_strided(r, first, stride, n, values);
        if filled.is_err() {
            out.truncate(start);
        }
        filled
    }

    /// [`Field::raw_strided`] into `values`, its run's bounds checked.
    fn fill_strided<'o>(
        &self,
        r: &BitReader,
        first: usize,
        stride: usize,
        n: usize,
        values: impl Iterator<Item = &'o mut [u8]>,
    ) -> Result<()> {
        if let ValueMap::Bytes(nb) = self.map {
            let offs = (0..n).map(|i| first + i * stride);
            return Field::fill_bytes(r, nb, offs, values).1;
        }
        let codes = self.codes_strided(r, first, stride, n)?;
        if !self.delta {
            return self.fill_codes(codes, values).1;
        }
        // The first value's code is 0: the page base carries it.
        let mut sum = 0u64;
        let sums = codes.skip(1).map(move |delta| {
            sum = sum.wrapping_add(delta);
            sum
        });
        self.fill_codes(std::iter::once(0).chain(sums), values).1
    }

    /// Copy the `nb` stored bytes at each bit offset of `offs` in `r` into
    /// `values`, whose bytes past them stay as they are (zero): the map of
    /// a field stored as bytes. Returns how many were copied, and the error
    /// of the first that lies outside `r`.
    #[inline]
    fn fill_bytes<'o>(
        r: &BitReader,
        nb: usize,
        offs: impl Iterator<Item = usize>,
        values: impl Iterator<Item = &'o mut [u8]>,
    ) -> (usize, Result<()>) {
        let mut n = 0;
        for (value, off) in values.zip(offs) {
            if let Err(e) = r.read_bytes_into(off, &mut value[..nb]) {
                return (n, Err(e));
            }
            n += 1;
        }
        (n, Ok(()))
    }

    /// Write the value each of `codes` stands for into `values`, at full
    /// declared width: a dictionary entry, or `base + code` as an int — the
    /// value map [`Field::raw_strided`] and [`PageValues::gather_raw`]
    /// share. Returns how many were written, and the error of the first
    /// code that maps to none.
    #[inline]
    fn fill_codes<'o>(
        &self,
        codes: impl Iterator<Item = u64>,
        values: impl Iterator<Item = &'o mut [u8]>,
    ) -> (usize, Result<()>) {
        let mut n = 0;
        let entries = match self.entries() {
            Ok(entries) => entries,
            Err(e) => return (0, Err(e)),
        };
        if let Some((entries, offset)) = entries {
            for (value, code) in values.zip(codes) {
                match entry(entries, value.len(), code, offset) {
                    Ok(entry) => value.copy_from_slice(entry),
                    Err(e) => return (n, Err(e)),
                }
                n += 1;
            }
            return (n, Ok(()));
        }
        let base = match (self.want_int(), self.map) {
            (Ok(()), ValueMap::Base(base)) => base,
            (Ok(()), _) => return (0, Err(Error::corrupt("int column stored as bytes"))),
            (Err(e), _) => return (0, Err(e)),
        };
        for (value, code) in values.zip(codes) {
            value.copy_from_slice(&(base.wrapping_add(code as i64) as i32).to_le_bytes());
            n += 1;
        }
        (n, Ok(()))
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
        base_ints(base, codes, &mut out[start..]);
        Ok(())
    }
}

/// `vals[i] = base + codes[i]` as ints, on the tiered kernel where the
/// active tier has one: a base-mapped block of codes to its values.
#[inline]
fn base_ints(base: i64, codes: &[u64], vals: &mut [i32]) {
    if !crate::simd::base_add(codes, base, vals) {
        for (v, &c) in vals.iter_mut().zip(codes) {
            *v = base.wrapping_add(c as i64) as i32;
        }
    }
}

/// One page of one column's values as its codec stores them: the page
/// base, then per value its code or — raw text and longs, TextPack — its
/// kept stored bytes, every domain check passed
/// ([`ColumnCompression::page_codes`]). A column page packs them in the
/// codec's page format; a packed row page interleaves the columns' values
/// tuple by tuple ([`PageCodes::write`]).
#[derive(Debug)]
pub struct PageCodes<'r> {
    /// The page base (FOR, PFOR, RLE, FOR-delta; 0 for every other codec).
    base: i64,
    /// Dict→FOR: the page's least dictionary code (stored codes are
    /// offsets from it).
    code_base: u32,
    /// Bits of one code; 0 where a value is stored as bytes.
    bits: u8,
    codes: Vec<u64>,
    /// Where `bits` is 0: the values' stored bytes, `width` each, of which
    /// the first `keep` are packed.
    bytes: &'r [u8],
    width: usize,
    keep: usize,
}

impl PageCodes<'_> {
    /// The page base (FOR, PFOR, RLE, FOR-delta; 0 for every other codec).
    pub fn base(&self) -> i64 {
        self.base
    }

    /// Append value `i` at its fixed width: its code, or its kept bytes.
    #[inline]
    pub fn write(&self, i: usize, w: &mut BitWriter) {
        if self.bits > 0 {
            w.put(self.codes[i], u32::from(self.bits));
        } else {
            w.pack_bytes(&self.bytes[i * self.width..][..self.keep]);
        }
    }

    /// Append every value at its fixed width, in order.
    fn write_all(&self, w: &mut BitWriter) {
        if self.bits > 0 {
            let bits = u32::from(self.bits);
            self.codes.iter().for_each(|&code| w.put(code, bits));
        } else if self.keep == self.width {
            w.pack_bytes(self.bytes);
        } else {
            self.bytes
                .chunks_exact(self.width)
                .for_each(|v| w.pack_bytes(&v[..self.keep]));
        }
    }
}

/// Parsed view of a PFOR page's exception list: 12-byte entries, each a
/// position and its patched code.
struct PforExceptions<'a> {
    entries: &'a [[u8; 12]],
}

impl<'a> PforExceptions<'a> {
    /// Every exception as `(position, patched code)`, in stored order.
    fn iter(&self) -> impl DoubleEndedIterator<Item = (u32, u64)> + 'a {
        self.entries.iter().map(|&[p0, p1, p2, p3, code @ ..]| {
            (
                u32::from_le_bytes([p0, p1, p2, p3]),
                u64::from_le_bytes(code),
            )
        })
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
        let (n, tail) = tail
            .split_first_chunk::<4>()
            .ok_or_else(|| Error::corrupt("PFOR exception count truncated".to_string()))?;
        let n = u32::from_le_bytes(*n) as usize;
        let entries = tail.as_chunks::<12>().0.get(..n).ok_or_else(|| {
            Error::corrupt(format!("PFOR exception list ({n} entries) truncated"))
        })?;
        Ok(PforExceptions { entries })
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
                    for (pos, code) in exc.iter() {
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
            for (pos, code) in exc.iter() {
                let slot = out.get_mut(pos as usize).ok_or_else(|| {
                    Error::corrupt(format!("PFOR exception position {pos} out of page"))
                })?;
                *slot = self.field.int_of(code)?;
            }
        }
        Ok(())
    }

    /// Append the full-declared-width bytes of values `first .. first + n`
    /// to `out` — a page's one range decoder: raw text, longs and ints and
    /// TextPack by slice; Dict and Dict→FOR as block-aligned
    /// [`BitReader::unpack`] runs of codes (so the word kernels decode them,
    /// the range's ends included) plus one fixed-width copy per value out
    /// of the dictionary's byte table; BitPack, FOR and PFOR as the same
    /// runs through the base-add kernel, then PFOR's exceptions inside the
    /// range patched in; RLE-dict by runs. FOR-delta and RLE int pages have
    /// no random access: they decode whole, through
    /// [`PageValues::decode_ints_into`]. On an error `out` may hold part of
    /// the range.
    pub fn decode_raw_into(&self, first: usize, n: usize, out: &mut Vec<u8>) -> Result<()> {
        let end = first
            .checked_add(n)
            .filter(|&end| end <= self.count)
            .ok_or_else(|| {
                Error::corrupt(format!(
                    "value range of {n} at {first} out of page (count {})",
                    self.count
                ))
            })?;
        let width = self.field.dtype.width();
        out.reserve(n * width);
        if let ValueMap::Bytes(nb) = self.field.map {
            let src = self.data.bytes(first * nb, n * nb)?;
            if nb == width {
                out.extend_from_slice(src);
            } else {
                for k in 0..n {
                    out.extend_from_slice(&src[k * nb..][..nb]);
                    out.resize(out.len() + width - nb, 0);
                }
            }
            return Ok(());
        }
        if let ValueMap::Base(base) = self.field.map {
            return self.decode_base_into(base, first, end, out);
        }
        let Some((entries, offset)) = self.field.entries()? else {
            return Err(Error::InvalidConfig(format!(
                "codec {:?} has no value map to stored bytes",
                self.comp.codec.kind()
            )));
        };
        if let Codec::RleDict {
            value_bits,
            len_bits,
        } = self.comp.codec
        {
            let mut start = 0usize;
            for r in 0..self.aux as usize {
                if start >= end {
                    break;
                }
                let (code, len) = self.run_at(r, value_bits, len_bits)?;
                let run_end = start.saturating_add(len as usize);
                let emit = start.max(first)..run_end.min(end);
                if !emit.is_empty() {
                    let value = entry(entries, width, code, offset)?;
                    emit.for_each(|_| out.extend_from_slice(value));
                }
                start = run_end;
            }
            if start < end {
                return Err(Error::corrupt(format!(
                    "RLE runs cover {start} of {} values",
                    self.count
                )));
            }
            return Ok(());
        }
        self.codes_in(first, end, |_, codes| {
            for &code in codes {
                out.extend_from_slice(entry(entries, width, code, offset)?);
            }
            Ok(())
        })
    }

    /// Unpack the codes of values `first .. end` a [`BLOCK`]-aligned run
    /// at a time and hand each run to `each` with its first slot. A run
    /// inside a block the page holds whole is cut out of that block's one
    /// [`BitReader::unpack`] — so a range's unaligned ends take the word
    /// kernels too — and any other run unpacks exactly its codes.
    fn codes_in(
        &self,
        first: usize,
        end: usize,
        mut each: impl FnMut(usize, &[u64]) -> Result<()>,
    ) -> Result<()> {
        let bits = self.field.bits;
        // The codes both the count claims and the bytes hold.
        let stored = self.data.bit_len().checked_div(usize::from(bits));
        let held = self.count.min(stored.unwrap_or(0));
        let mut block = [0u64; BLOCK];
        let mut slot = first;
        while slot < end {
            let at = slot - slot % BLOCK;
            let stop = (at + BLOCK).min(end);
            let codes = if at + BLOCK <= held {
                self.data.unpack(at, bits, &mut block)?;
                &block[slot - at..stop - at]
            } else {
                let codes = &mut block[..stop - slot];
                self.data.unpack(slot, bits, codes)?;
                codes
            };
            each(slot, codes)?;
            slot = stop;
        }
        Ok(())
    }

    /// [`PageValues::decode_raw_into`] of values `first .. end` of a
    /// base-mapped page. On an error `out` is as it was.
    fn decode_base_into(
        &self,
        base: i64,
        first: usize,
        end: usize,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        self.field.want_int()?;
        if !self.comp.codec.random_access() {
            return Err(Error::InvalidConfig(format!(
                "codec {:?} has no random access to decode a range of",
                self.comp.codec.kind()
            )));
        }
        let start = out.len();
        out.resize(start + (end - first) * 4, 0);
        let filled = self.fill_base(base, first, &mut out[start..]);
        if filled.is_err() {
            out.truncate(start);
        }
        filled
    }

    /// Write `base + code` of the values from `first` on into `values`, 4
    /// bytes each — the stored bytes of raw ints, any other codec's
    /// block-aligned [`BitReader::unpack`] runs through the base-add kernel
    /// — then patch in a PFOR page's exceptions among them.
    fn fill_base(&self, base: i64, first: usize, values: &mut [u8]) -> Result<()> {
        let end = first + values.len() / 4;
        if self.comp.codec == Codec::None {
            // Raw ints are stored as themselves: one copy.
            values.copy_from_slice(self.data.bytes(first * 4, values.len())?);
            return Ok(());
        }
        let mut ints = [0i32; BLOCK];
        self.codes_in(first, end, |slot, codes| {
            let ints = &mut ints[..codes.len()];
            base_ints(base, codes, ints);
            let dst = values[(slot - first) * 4..].chunks_exact_mut(4);
            dst.zip(&*ints)
                .for_each(|(d, v)| d.copy_from_slice(&v.to_le_bytes()));
            Ok(())
        })?;
        if let Codec::Pfor { bits } = self.comp.codec {
            // Backwards, so a position listed twice takes its first entry,
            // as the per-slot read does.
            for (pos, code) in self.pfor_exceptions(bits)?.iter().rev() {
                let pos = pos as usize;
                if (first..end).contains(&pos) {
                    let value = self.field.int_of(code)?.to_le_bytes();
                    values[(pos - first) * 4..][..4].copy_from_slice(&value);
                }
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
        let patched = exc.iter().find(|&(p, _)| p as usize == idx);
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

    /// Append the full-declared-width bytes of the values at the strictly
    /// ascending `slots` — [`PageValues::write_raw`] over a slot list, as
    /// one call, through the cheapest reader for the list's shape. A run of
    /// consecutive slots is a range: [`PageValues::decode_raw_into`]'s
    /// block kernels decode it. A scattered list is gathered: the bounds
    /// checked once, against the last slot, each code read with one word
    /// load and mapped without a per-value re-check, stored bytes copied as
    /// slices, and a PFOR page's exception list parsed once and walked
    /// beside the slots. Returns how many slots were appended; on an error
    /// — the one `write_raw` raises at the first slot it fails on — `out`
    /// holds exactly those values (a range that fails is gathered again,
    /// so its prefix is the gather's). FOR-delta and the RLE family have no
    /// random access, and a lone slot nothing to share: those are read one
    /// at a time.
    pub fn gather_raw(&self, slots: &[usize], out: &mut Vec<u8>) -> (usize, Result<()>) {
        // The range test below holds only for strictly ascending slots.
        debug_assert!(slots.windows(2).all(|w| w[0] < w[1]), "{slots:?}");
        let start = out.len();
        let mut done = match *slots {
            // A lone slot spreads no bounds pass or exception-order check.
            [] | [_] => 0,
            [first, .., last]
                if self.comp.codec.random_access()
                    && last.checked_sub(first) == Some(slots.len() - 1) =>
            {
                match self.decode_raw_into(first, slots.len(), out) {
                    Ok(()) => slots.len(),
                    Err(_) => {
                        out.truncate(start);
                        self.gather_valid(slots, out)
                    }
                }
            }
            _ => self.gather_valid(slots, out),
        };
        // The slot a fast loop stopped short of — and any after it — takes
        // `write_raw`, which raises that slot's own error.
        for &slot in &slots[done..] {
            if let Err(e) = self.write_raw(slot, out) {
                out.truncate(start + done * self.field.dtype.width());
                return (done, Err(e));
            }
            done += 1;
        }
        (done, Ok(()))
    }

    /// [`PageValues::gather_raw`]'s loops: append the values of the longest
    /// prefix of `slots` that lies inside the page and its stored bytes and
    /// maps cleanly, and return its length.
    fn gather_valid(&self, slots: &[usize], out: &mut Vec<u8>) -> usize {
        let (field, start, width) = (&self.field, out.len(), self.field.dtype.width());
        let fits = |cap: usize| &slots[..slots.partition_point(|&s| s < cap.min(self.count))];
        let n = if let ValueMap::Bytes(nb) = field.map {
            let stored = (self.data.bit_len() / 8).checked_div(nb);
            let slots = fits(stored.unwrap_or(usize::MAX));
            out.resize(start + slots.len() * width, 0);
            let offs = slots.iter().map(|&slot| slot * nb * 8);
            let values = out[start..].chunks_exact_mut(width);
            Field::fill_bytes(&self.data, nb, offs, values).0
        } else {
            let bits = field.bits;
            if !self.comp.codec.random_access() || bits == 0 {
                return 0;
            }
            let slots = fits(self.data.bit_len() / usize::from(bits));
            let Ok(codes) = self.data.gather(slots, bits) else {
                return 0;
            };
            // PFOR: the exception list, ascending like the slots, is walked
            // beside them (a list out of order is left to `write_raw`).
            let mut exc = match self.comp.codec {
                Codec::Pfor { .. } => match self.pfor_exceptions(bits) {
                    Ok(exc) if exc.iter().is_sorted_by_key(|(pos, _)| pos) => Some(exc.iter()),
                    _ => return 0,
                },
                _ => None,
            };
            let mut patch = exc.as_mut().and_then(Iterator::next);
            let codes = slots.iter().zip(codes).map(|(&slot, code)| {
                while let Some((pos, patched)) = patch.filter(|&(pos, _)| pos as usize <= slot) {
                    patch = exc.as_mut().and_then(Iterator::next);
                    if pos as usize == slot {
                        return patched;
                    }
                }
                code
            });
            out.resize(start + slots.len() * width, 0);
            let values = out[start..].chunks_exact_mut(width);
            field.fill_codes(codes, values).0
        };
        out.truncate(start + n * width);
        n
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

    const WORDS: [&str; 7] = ["AIR", "TRUCK", "MAIL", "SHIP", "", "RAIL", "FOB"];

    /// The codecs whose value map copies stored bytes, each with a column
    /// type it can hold (RLE-dict stores int dictionaries only).
    fn byte_codecs() -> Vec<(ColumnCompression, DataType)> {
        let text = DataType::Text(6);
        // Two entries no page holds, so every Dict→FOR page has code base 2.
        let words = ["ZZZ", "QQ"].iter().chain(&WORDS).map(|w| Value::text(w));
        let dict = Arc::new(Dictionary::build(text, words.collect::<Vec<_>>().iter()).unwrap());
        let int_dict =
            Arc::new(Dictionary::build(DataType::Int, ints(&[7, -3, 900, 41]).iter()).unwrap());
        let with = |codec, dict: &Arc<Dictionary>| {
            ColumnCompression::new(codec, Some(dict.clone())).unwrap()
        };
        let rle_dict = Codec::RleDict {
            value_bits: 2,
            len_bits: 3,
        };
        vec![
            (ColumnCompression::none(), text),
            (ColumnCompression::none(), DataType::Long),
            (
                ColumnCompression::new(Codec::TextPack { bytes: 5 }, None).unwrap(),
                text,
            ),
            (with(Codec::Dict { bits: 4 }, &dict), text),
            (with(Codec::DictFor { bits: 3 }, &dict), text),
            (with(rle_dict, &int_dict), DataType::Int),
        ]
    }

    /// `len` values of `dtype` from the domains [`byte_codecs`] encode,
    /// in runs of up to 11 (RLE splits them at 8).
    fn byte_values(dtype: DataType, len: usize) -> Vec<Value> {
        (0..len)
            .map(|i| match dtype {
                DataType::Int => Value::Int([7, -3, 900, 41][(i / 11) % 4]),
                DataType::Long => Value::Long(i as i64 * -7_919_000_000),
                DataType::Text(_) => Value::text(WORDS[(i * i + i / 3) % 7]),
            })
            .collect()
    }

    #[test]
    fn range_decode_equals_per_slot_reads_over_every_range() {
        for (comp, dtype) in byte_codecs() {
            let width = dtype.width();
            for len in [40, 333] {
                let vals = byte_values(dtype, len);
                let enc = comp.encode_page(dtype, &vals).unwrap();
                let pv = comp.open_page(dtype, &enc.data, enc.count, enc.base);
                if let Codec::DictFor { .. } = comp.codec {
                    assert_eq!(pv.code_base(), 2);
                }
                let mut slots = Vec::new();
                for slot in 0..len {
                    pv.write_raw(slot, &mut slots).unwrap();
                }
                let mut want = Vec::new();
                for v in &vals {
                    v.encode_into(dtype, &mut want).unwrap();
                }
                assert_eq!(slots, want, "{:?}", comp.codec);
                // Every range of the short page; on the long one every
                // start, with lengths across the block edges and to the end.
                for first in 0..=len {
                    let rest = len - first;
                    let ns: Vec<usize> = if len == 40 {
                        (0..=rest).collect()
                    } else {
                        [0, 1, 2, 127, 128, 129, 200, rest]
                            .map(|n| n.min(rest))
                            .to_vec()
                    };
                    for n in ns {
                        let mut got = vec![0xAB];
                        pv.decode_raw_into(first, n, &mut got).unwrap();
                        assert_eq!(
                            got[1..],
                            slots[first * width..(first + n) * width],
                            "{:?} [{first}, {})",
                            comp.codec,
                            first + n
                        );
                    }
                    assert!(pv
                        .decode_raw_into(first, rest + 1, &mut Vec::new())
                        .is_err());
                }
            }
        }
        // A FOR-delta page has no random access, so no range decoder.
        let comp = ColumnCompression::new(Codec::ForDelta { bits: 4 }, None).unwrap();
        let enc = comp.encode_page(DataType::Int, &ints(&[1, 2])).unwrap();
        let pv = comp.open_page(DataType::Int, &enc.data, 2, enc.base);
        assert!(pv.decode_raw_into(0, 2, &mut Vec::new()).is_err());
    }

    #[test]
    fn a_strided_decode_equals_its_slots_and_fails_whole() {
        // Codes of one field every 11 bits (a 3-bit field inside a packed
        // tuple), the last one out of range of the dictionary.
        let text = DataType::Text(6);
        let words = byte_values(text, 20);
        let dict = Arc::new(Dictionary::build(text, words.iter()).unwrap());
        let comp = ColumnCompression::new(Codec::Dict { bits: 3 }, Some(dict)).unwrap();
        let field = comp.field(text, 0, 0);
        let mut w = BitWriter::new();
        for code in [4, 0, 6, 1, 7] {
            w.write(code, 3).unwrap();
            w.write(0, 8).unwrap();
        }
        let bytes = w.into_bytes();
        let r = BitReader::new(&bytes);
        let mut slots = Vec::new();
        for i in 0..4 {
            field.raw(&r, i * 11, &mut slots).unwrap();
        }
        let mut got = vec![9];
        field.raw_strided(&r, 0, 11, 4, &mut got).unwrap();
        assert_eq!(got[1..], slots[..]);
        let bad = field.raw_strided(&r, 0, 11, 5, &mut got);
        assert_eq!(bad, field.raw(&r, 44, &mut Vec::new()));
        assert!(bad.is_err());
        assert_eq!(got[1..], slots[..], "a failed decode appends nothing");
    }

    #[test]
    fn an_out_of_range_dictionary_code_fails_a_range_like_its_slot() {
        let text = DataType::Text(6);
        let words = byte_values(text, 20);
        let dict = Arc::new(Dictionary::build(text, words.iter()).unwrap());
        assert_eq!(dict.len(), 7);
        let int_dict = Arc::new(Dictionary::build(DataType::Int, ints(&[5, 6]).iter()).unwrap());
        // Dict and Dict→FOR (code base 3) hold stored code 7 at slot 2; the
        // RLE-dict page's second run holds code 3 over a two-entry
        // dictionary, covering slots 2 and 3.
        let pack = |header: Option<u32>, codes: &[(u64, u8)]| {
            let mut w = BitWriter::new();
            if let Some(h) = header {
                w.write_bytes(&h.to_le_bytes());
            }
            for &(c, bits) in codes {
                w.write(c, bits).unwrap();
            }
            w.into_bytes()
        };
        let coded = [(0, 3), (1, 3), (7, 3), (2, 3)];
        let runs = [(1, 2), (1, 3), (3, 2), (1, 3), (0, 2), (0, 3)];
        let cases = [
            (
                ColumnCompression::new(Codec::Dict { bits: 3 }, Some(dict.clone())).unwrap(),
                text,
                pack(None, &coded),
                7,
            ),
            (
                ColumnCompression::new(Codec::DictFor { bits: 3 }, Some(dict)).unwrap(),
                text,
                pack(Some(3), &coded),
                7,
            ),
            (
                ColumnCompression::new(
                    Codec::RleDict {
                        value_bits: 2,
                        len_bits: 3,
                    },
                    Some(int_dict),
                )
                .unwrap(),
                DataType::Int,
                pack(Some(3), &runs),
                3,
            ),
        ];
        for (comp, dtype, data, code) in cases {
            let pv = comp.open_page(dtype, &data, 4, 0);
            let slot = pv.write_raw(2, &mut Vec::new()).unwrap_err();
            assert_eq!(
                slot,
                Error::corrupt(format!("dictionary code {code} out of range"))
            );
            for (first, n) in [(0, 4), (2, 1), (1, 2)] {
                let range = pv.decode_raw_into(first, n, &mut Vec::new()).unwrap_err();
                assert_eq!(range, slot, "{:?} [{first}, {})", comp.codec, first + n);
            }
            let mut out = Vec::new();
            pv.decode_raw_into(0, 2, &mut out).unwrap();
            assert_eq!(out.len(), 2 * dtype.width());
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

    /// `vals` as stored bytes at the declared width.
    fn stored(dtype: DataType, vals: &[Value]) -> Vec<u8> {
        let mut raw = Vec::new();
        vals.iter()
            .for_each(|v| v.encode_into(dtype, &mut raw).unwrap());
        raw
    }

    /// One codec's page decoded back to stored bytes: ints through the
    /// block decoder, everything else through the range decoder.
    fn decoded(comp: &ColumnCompression, dtype: DataType, enc: &EncodedValues) -> Vec<u8> {
        let pv = comp.open_page(dtype, &enc.data, enc.count, enc.base);
        let mut out = Vec::new();
        if dtype.is_int() {
            let mut ints = Vec::new();
            pv.decode_ints_into(&mut ints).unwrap();
            ints.iter()
                .for_each(|v| out.extend_from_slice(&v.to_le_bytes()));
        } else {
            pv.decode_raw_into(0, enc.count, &mut out).unwrap();
        }
        out
    }

    /// Every codec with a page of values in its domain at code width
    /// `bits`: `n` values from `seed`, with the domain's extremes in it.
    fn codec_pages(bits: u8, n: usize) -> Vec<(ColumnCompression, DataType, Vec<Value>)> {
        let top = (1i64 << bits) - 1;
        let pat = |i: usize| (i as i64).wrapping_mul(0x9E37_79B9) & top;
        let edge = |i: usize| match i % 7 {
            0 => top,
            3 => 0,
            _ => pat(i),
        };
        let ints = |f: &dyn Fn(usize) -> i64| (0..n).map(|i| Value::Int(f(i) as i32)).collect();
        let mut pages: Vec<(ColumnCompression, DataType, Vec<Value>)> = Vec::new();
        let plain = |c| ColumnCompression::new(c, None).unwrap();
        if bits < 32 {
            pages.push((plain(Codec::BitPack { bits }), DataType::Int, ints(&edge)));
            // One delta at the width's top, the rest small, from a base low
            // enough to stay inside i32.
            let mut sum = i64::from(i32::MIN);
            let rising = (0..n).map(|i| {
                sum += match i {
                    0 => 0,
                    1 => top,
                    _ => pat(i) % 3,
                };
                Value::Int(sum as i32)
            });
            let fordelta = plain(Codec::ForDelta { bits });
            pages.push((fordelta, DataType::Int, rising.collect()));
        }
        let shifted = ints(&|i| edge(i) - (1i64 << (bits - 1)));
        pages.push((plain(Codec::For { bits }), DataType::Int, shifted.clone()));
        pages.push((plain(Codec::Pfor { bits }), DataType::Int, shifted.clone()));
        let wide = |i: usize| {
            Value::Int(if i % 9 == 4 {
                i32::MAX - i as i32
            } else {
                edge(i) as i32
            })
        };
        pages.push((
            plain(Codec::Pfor { bits }),
            DataType::Int,
            (0..n).map(wide).collect(),
        ));
        let runs = ints(&|i| edge(i / 6) - (1i64 << (bits - 1)));
        let rle = Codec::Rle {
            value_bits: bits,
            len_bits: 2,
        };
        pages.push((plain(rle), DataType::Int, runs));
        if bits <= 10 {
            let domain: Vec<Value> = (0..=top).map(|v| Value::Int(v as i32 * 3 - 7)).collect();
            let dict = Arc::new(Dictionary::build(DataType::Int, domain.iter()).unwrap());
            let with = |c| ColumnCompression::new(c, Some(dict.clone())).unwrap();
            let vals: Vec<Value> = (0..n).map(|i| domain[edge(i) as usize].clone()).collect();
            let rle_dict = Codec::RleDict {
                value_bits: bits,
                len_bits: 3,
            };
            pages.push((with(Codec::Dict { bits }), DataType::Int, vals.clone()));
            pages.push((with(Codec::DictFor { bits }), DataType::Int, vals.clone()));
            pages.push((with(rle_dict), DataType::Int, vals));
            let text = DataType::Text(5);
            let words: Vec<Value> = (0..=top).map(|v| Value::text(&format!("w{v}"))).collect();
            let dict = Arc::new(Dictionary::build(text, words.iter()).unwrap());
            let with = |c| ColumnCompression::new(c, Some(dict.clone())).unwrap();
            let vals: Vec<Value> = (0..n).map(|i| words[edge(i) as usize].clone()).collect();
            pages.push((with(Codec::Dict { bits }), text, vals.clone()));
            pages.push((with(Codec::DictFor { bits }), text, vals));
        }
        pages
    }

    /// Raw text and longs and TextPack at a few widths.
    fn byte_pages(n: usize) -> Vec<(ColumnCompression, DataType, Vec<Value>)> {
        let mut pages = Vec::new();
        for width in [1usize, 5, 12] {
            let text = DataType::Text(width);
            let word = |i: usize| {
                let len = (i * 7 + 3) % (width + 1);
                Value::Text((0..len).map(|k| b'a' + ((i + k) % 26) as u8).collect())
            };
            let vals: Vec<Value> = (0..n).map(word).collect();
            pages.push((ColumnCompression::none(), text, vals.clone()));
            let bytes = width as u16;
            let pack = ColumnCompression::new(Codec::TextPack { bytes }, None).unwrap();
            pages.push((pack, DataType::Text(width + 9), vals));
        }
        let longs = (0..n)
            .map(|i| Value::Long((i as i64 - 3) * -7_919_000_000_123))
            .collect();
        pages.push((ColumnCompression::none(), DataType::Long, longs));
        let ints = (0..n).map(|i| Value::Int(i as i32 * -104_729)).collect();
        pages.push((ColumnCompression::none(), DataType::Int, ints));
        pages
    }

    #[test]
    fn the_block_encoder_round_trips_every_codec_width_and_page_length() {
        let body_bits = (4096 - 28 - 4) * 8;
        for bits in [1u8, 2, 3, 5, 7, 8, 9, 10, 13, 16, 17, 24, 31, 32] {
            // One value, block edges, and a full 4 KiB page at this width.
            for n in [1, 127, 128, 129, 1000, body_bits / bits as usize] {
                for (comp, dtype, vals) in codec_pages(bits, n) {
                    let what = format!("{:?} over {n} values", comp.codec);
                    let raw = stored(dtype, &vals);
                    let enc = comp.encode_raw(dtype, &raw, n).expect(&what);
                    assert_eq!(enc.count, n, "{what}");
                    assert_eq!(decoded(&comp, dtype, &enc), raw, "{what}");
                    let page = comp.encode_page(dtype, &vals).expect(&what);
                    assert_eq!((page.data, page.base), (enc.data, enc.base), "{what}");
                }
            }
        }
        for n in [0, 1, 9, 128, 1000] {
            for (comp, dtype, vals) in byte_pages(n) {
                let what = format!("{:?} {dtype} over {n} values", comp.codec);
                let raw = stored(dtype, &vals);
                let enc = comp.encode_raw(dtype, &raw, n).expect(&what);
                assert_eq!(decoded(&comp, dtype, &enc), raw, "{what}");
            }
        }
    }

    #[test]
    fn page_codes_written_at_odd_bit_offsets_read_back_strided() {
        // Each fixed-rate codec's values packed `stride` bits apart behind
        // a `lead`-bit field, as in a packed tuple, read back by the
        // strided decoder of the same page base.
        for bits in [1u8, 3, 8, 13, 31] {
            for (comp, dtype, vals) in codec_pages(bits, 300).into_iter().chain(byte_pages(300)) {
                if !comp.codec.packable() {
                    assert!(comp.page_codes(dtype, &[], 0).is_err(), "{:?}", comp.codec);
                    continue;
                }
                let raw = stored(dtype, &vals);
                let codes = comp.page_codes(dtype, &raw, vals.len()).unwrap();
                let width = comp.bits_per_value(dtype);
                for (lead, gap) in [(1usize, 0usize), (3, 5), (7, 11)] {
                    let stride = width + gap;
                    let mut w = BitWriter::new();
                    for i in 0..vals.len() {
                        w.write(if i == 0 { 1 } else { 0 }, lead as u8).unwrap();
                        codes.write(i, &mut w);
                        if gap > 0 {
                            w.write((i % 2) as u64, gap as u8).unwrap();
                        }
                    }
                    let bytes = w.into_bytes();
                    let r = BitReader::new(&bytes);
                    let field = comp.field(dtype, codes.base(), 0);
                    let mut got = Vec::new();
                    field
                        .raw_strided(&r, lead, stride + lead, vals.len(), &mut got)
                        .unwrap();
                    assert_eq!(got, raw, "{:?} lead {lead} gap {gap}", comp.codec);
                }
            }
        }
    }

    #[test]
    fn every_encoder_error_keeps_its_kind() {
        let plain = |c| ColumnCompression::new(c, None).unwrap();
        let words = [Value::text("AIR"), Value::text("SHIP")];
        let text = DataType::Text(4);
        let dict = Arc::new(Dictionary::build(text, words.iter()).unwrap());
        let int_dict =
            Arc::new(Dictionary::build(DataType::Int, ints(&[5, 6, 7, 8, 9]).iter()).unwrap());
        let with = |c, d: &Arc<Dictionary>| ColumnCompression::new(c, Some(d.clone())).unwrap();
        // A dictionary wider than its codec's width, as a catalog entry
        // written by hand could carry.
        let narrow = ColumnCompression {
            codec: Codec::Dict { bits: 2 },
            dict: Some(int_dict.clone()),
        };
        let domain = |e: &Error| matches!(e, Error::ValueOutOfDomain(_));
        let config = |e: &Error| matches!(e, Error::InvalidConfig(_));
        type Case = (ColumnCompression, DataType, Vec<Value>, fn(&Error) -> bool);
        let cases: Vec<Case> = vec![
            (
                plain(Codec::BitPack { bits: 8 }),
                DataType::Int,
                ints(&[3, -1]),
                domain,
            ),
            (
                plain(Codec::BitPack { bits: 8 }),
                DataType::Int,
                ints(&[3, 256]),
                domain,
            ),
            (
                plain(Codec::For { bits: 4 }),
                DataType::Int,
                ints(&[-8, 8]),
                domain,
            ),
            (
                plain(Codec::ForDelta { bits: 8 }),
                DataType::Int,
                ints(&[5, 9, 8]),
                domain,
            ),
            (
                plain(Codec::ForDelta { bits: 3 }),
                DataType::Int,
                ints(&[5, 13]),
                domain,
            ),
            (
                with(Codec::Dict { bits: 1 }, &dict),
                text,
                vec![Value::text("RAIL")],
                domain,
            ),
            (
                with(Codec::Dict { bits: 3 }, &int_dict),
                DataType::Int,
                ints(&[4]),
                domain,
            ),
            (narrow, DataType::Int, ints(&[5, 9]), domain),
            (
                with(Codec::DictFor { bits: 1 }, &int_dict),
                DataType::Int,
                ints(&[5, 7]),
                domain,
            ),
            (
                with(
                    Codec::RleDict {
                        value_bits: 3,
                        len_bits: 2,
                    },
                    &int_dict,
                ),
                DataType::Int,
                ints(&[5, 10]),
                domain,
            ),
            (
                plain(Codec::Rle {
                    value_bits: 3,
                    len_bits: 2,
                }),
                DataType::Int,
                ints(&[0, 0, 8]),
                domain,
            ),
            (
                plain(Codec::TextPack { bytes: 2 }),
                text,
                vec![Value::text("AIR")],
                domain,
            ),
            (
                plain(Codec::BitPack { bits: 8 }),
                text,
                vec![Value::text("A")],
                config,
            ),
            (
                plain(Codec::BitPack { bits: 0 }),
                DataType::Int,
                ints(&[0]),
                config,
            ),
        ];
        for (comp, dtype, vals, kind) in cases {
            let what = format!("{:?} {dtype} {vals:?}", comp.codec);
            let page = comp.encode_page(dtype, &vals).unwrap_err();
            assert!(kind(&page), "{what}: {page:?}");
            if comp.codec.validate_for(dtype).is_err() {
                continue;
            }
            let raw = stored(dtype, &vals);
            let block = comp.encode_raw(dtype, &raw, vals.len()).unwrap_err();
            assert_eq!(block, page, "{what}");
            if comp.codec.packable() {
                let codes = comp.page_codes(dtype, &raw, vals.len()).unwrap_err();
                assert_eq!(codes, page, "{what}");
            }
        }
        // A value of the wrong kind, and bytes that are not `n` values.
        let bitpack = plain(Codec::BitPack { bits: 8 });
        let err = bitpack.encode_page(DataType::Int, &[Value::text("x")]);
        assert!(matches!(err, Err(Error::TypeMismatch { .. })), "{err:?}");
        assert!(config(
            &bitpack.encode_raw(DataType::Int, &[0; 7], 2).unwrap_err()
        ));
    }

    /// `slots` of `pv` read one at a time: the values appended until the
    /// first slot that fails, and that slot's error.
    fn per_slot(pv: &PageValues, slots: &[usize], out: &mut Vec<u8>) -> (usize, Result<()>) {
        for (k, &slot) in slots.iter().enumerate() {
            if let Err(e) = pv.write_raw(slot, out) {
                return (k, Err(e));
            }
        }
        (slots.len(), Ok(()))
    }

    /// The consecutive run `slots` starts, if it is one of two or more:
    /// the lists [`PageValues::gather_raw`] hands to the range decoder.
    fn consecutive(slots: &[usize]) -> Option<usize> {
        match *slots {
            [first, .., last] if last - first == slots.len() - 1 => Some(first),
            _ => None,
        }
    }

    /// A slot-list gather appends what reading its slots one at a time
    /// appends — every codec (PFOR with exceptions before, inside, after
    /// and at either end of the list), dictionary text and ints, short text
    /// in TextPack, raw longs and ints — over empty, single, first-only,
    /// last-only, gapped, consecutive (mid-page, across a 128-code block
    /// boundary) and whole-page lists. A consecutive list of a codec with
    /// random access is a range, and the range decoder reads it alone as
    /// the per-slot read does. A slot past the page and a dictionary code
    /// past a (shortened) dictionary, mid-range too, fail as the per-slot
    /// read fails them: `Corrupt`, the same message, and exactly the values
    /// before it.
    #[test]
    fn a_slot_list_gather_equals_per_slot_reads_on_every_codec() {
        let lists = |n: usize| -> Vec<Vec<usize>> {
            let run = |a: usize, b: usize| (a.min(n)..b.min(n)).collect();
            vec![
                vec![],
                vec![n / 2],
                vec![0],
                vec![n - 1],
                (0..n).step_by(3).collect(),
                (n / 3..2 * n / 3).step_by(2).collect(),
                (0..n).filter(|i| i % 9 == 4 || i % 5 == 0).collect(),
                (0..n).collect(),
                run(n / 3, 2 * n / 3),
                run(120, 136),
                run(100, 200),
                // The wide PFOR pages' exceptions sit at `i % 9 == 4`: runs
                // that start, end, or start and end on one.
                run(4, 14),
                run(13, 59),
                run(5, 22),
                run(0, n - 1),
            ]
        };
        let mut ranges = 0;
        let mut check = |comp: &ColumnCompression, dtype: DataType, vals: &[Value]| {
            let n = vals.len();
            let enc = comp.encode_page(dtype, vals).unwrap();
            let pv = comp.open_page(dtype, &enc.data, enc.count, enc.base);
            let mut beyond = vec![0, n / 2, n, n + 7];
            beyond.dedup();
            for slots in lists(n).into_iter().chain([beyond, vec![n - 1, n]]) {
                let what = format!("{:?} {dtype} over {n} values, slots {slots:?}", comp.codec);
                let (mut want, mut got) = (vec![0xAB], vec![0xAB]);
                let (k, read) = pv.gather_raw(&slots, &mut got);
                let (want_k, want_read) = per_slot(&pv, &slots, &mut want);
                assert_eq!((k, &got), (want_k, &want), "{what}");
                if let (Some(first), true) = (consecutive(&slots), comp.codec.random_access()) {
                    let mut range = vec![0xAB];
                    let decoded = pv.decode_raw_into(first, slots.len(), &mut range);
                    assert_eq!(decoded.is_ok(), want_read.is_ok(), "{what}: {decoded:?}");
                    if decoded.is_ok() {
                        assert_eq!(range, want, "{what}");
                        ranges += 1;
                    }
                }
                // The word-load loops, not the per-slot fallback, read every
                // slot inside the page of a codec with random access.
                let fast = pv.gather_valid(&slots, &mut Vec::new());
                let reach = if comp.codec.random_access() { k } else { 0 };
                assert_eq!(fast, reach, "{what}");
                match (read, want_read) {
                    (Ok(()), Ok(())) => assert_eq!(k, slots.len(), "{what}"),
                    (Err(e), Err(want_e)) => {
                        assert!(matches!(e, Error::Corrupt(_)), "{what}: {e:?}");
                        assert_eq!(e.to_string(), want_e.to_string(), "{what}");
                        assert!(slots[k] >= n, "{what}");
                    }
                    (read, want_read) => panic!("{what}: {read:?} vs {want_read:?}"),
                }
            }
        };
        for bits in [3u8, 7, 10, 32] {
            for n in [1, 40, 333] {
                for (comp, dtype, vals) in codec_pages(bits, n) {
                    check(&comp, dtype, &vals);
                }
            }
        }
        for n in [1, 40, 333] {
            for (comp, dtype, vals) in byte_pages(n) {
                check(&comp, dtype, &vals);
            }
        }
        assert!(ranges >= 400, "{ranges} ranges decoded");
        // A page whose codes stop two thirds in: a range that fails after
        // whole blocks still leaves exactly the per-slot read's prefix.
        let pages = codec_pages(7, 333).into_iter().chain(byte_pages(333));
        for (comp, dtype, vals) in pages {
            let enc = comp.encode_page(dtype, &vals).unwrap();
            let cut = &enc.data[..enc.data.len() * 2 / 3];
            let pv = comp.open_page(dtype, cut, enc.count, enc.base);
            for slots in lists(vals.len()) {
                let what = format!("{:?} {dtype} cut, slots {slots:?}", comp.codec);
                let (mut want, mut got) = (vec![0xAB], vec![0xAB]);
                let (k, read) = pv.gather_raw(&slots, &mut got);
                let (want_k, want_read) = per_slot(&pv, &slots, &mut want);
                assert_eq!((k, got), (want_k, want), "{what}");
                let errors = [read, want_read].map(|r| r.map_err(|e| e.to_string()));
                assert_eq!(errors[0], errors[1], "{what}");
            }
        }
        // A PFOR position listed twice reads its first entry, whichever
        // reader reads it.
        let comp = ColumnCompression::new(Codec::Pfor { bits: 4 }, None).unwrap();
        let vals: Vec<Value> = (0..12)
            .map(|i| Value::Int([i, 300 + i][usize::from(i % 6 == 3)]))
            .collect();
        let mut enc = comp.encode_page(DataType::Int, &vals).unwrap();
        let list = enc.count.div_ceil(2);
        assert_eq!(enc.data[list..list + 4], 2u32.to_le_bytes());
        let first = enc.data[list + 4..list + 8].to_vec();
        enc.data[list + 16..list + 20].copy_from_slice(&first);
        let pv = comp.open_page(DataType::Int, &enc.data, enc.count, enc.base);
        for slots in [vec![3], vec![2, 3, 9], (0..12).collect(), (3..10).collect()] {
            let (mut want, mut got) = (Vec::new(), Vec::new());
            assert_eq!(
                pv.gather_raw(&slots, &mut got),
                per_slot(&pv, &slots, &mut want)
            );
            assert_eq!(got, want, "{slots:?}");
            if let Some(first) = consecutive(&slots) {
                let mut range = Vec::new();
                pv.decode_raw_into(first, slots.len(), &mut range).unwrap();
                assert_eq!(range, want, "{slots:?}");
            }
        }
        // Codes past a shortened dictionary: the gather stops at the first,
        // a range that holds one mid-way too.
        let mut mid_range = 0;
        let text = DataType::Text(5);
        let words: Vec<Value> = (0..8).map(|v| Value::text(&format!("w{v}"))).collect();
        let int_words: Vec<Value> = (0..8).map(|v| Value::Int(v * 11 - 30)).collect();
        for (dtype, domain) in [(text, &words), (DataType::Int, &int_words)] {
            let dict = |k: usize| Arc::new(Dictionary::build(dtype, domain[..k].iter()).unwrap());
            let vals: Vec<Value> = (0..200).map(|i| domain[(i * i / 7) % 8].clone()).collect();
            for codec in [Codec::Dict { bits: 3 }, Codec::DictFor { bits: 3 }] {
                let full = ColumnCompression::new(codec.clone(), Some(dict(8))).unwrap();
                let enc = full.encode_page(dtype, &vals).unwrap();
                let short = ColumnCompression::new(codec, Some(dict(5))).unwrap();
                let pv = short.open_page(dtype, &enc.data, enc.count, enc.base);
                for slots in lists(vals.len()) {
                    let what = format!("{:?} {dtype} slots {slots:?}", short.codec);
                    let (mut want, mut got) = (Vec::new(), Vec::new());
                    let (k, read) = pv.gather_raw(&slots, &mut got);
                    let (want_k, want_read) = per_slot(&pv, &slots, &mut want);
                    assert_eq!((k, &got), (want_k, &want), "{what}");
                    assert_eq!(got.len(), k * dtype.width(), "{what}");
                    let failed = slots.iter().position(|&s| vals[s] >= domain[5]);
                    assert_eq!(failed.unwrap_or(slots.len()), k, "{what}");
                    assert_eq!(pv.gather_valid(&slots, &mut Vec::new()), k, "{what}");
                    if consecutive(&slots).is_some() && (1..slots.len()).contains(&k) {
                        mid_range += 1;
                    }
                    match (read, want_read) {
                        (Ok(()), Ok(())) => assert!(failed.is_none(), "{what}"),
                        (Err(e), Err(want_e)) => {
                            assert!(matches!(e, Error::Corrupt(_)), "{what}: {e:?}");
                            assert!(e.to_string().contains("out of range"), "{what}: {e}");
                            assert_eq!(e.to_string(), want_e.to_string(), "{what}");
                        }
                        (read, want_read) => panic!("{what}: {read:?} vs {want_read:?}"),
                    }
                }
            }
        }
        assert!(mid_range >= 8, "{mid_range} ranges failed mid-way");
    }

    /// The range and gather differential tests, re-run on the scalar
    /// kernel tier: the tier is fixed once per process, so this test runs
    /// its own binary again with `RODB_FORCE_SCALAR=1`, filtered to them
    /// and to itself — which, in that run, checks the tier is scalar.
    #[test]
    fn the_range_and_gather_tests_pass_on_the_scalar_tier() {
        const ME: &str = "codec::tests::the_range_and_gather_tests_pass_on_the_scalar_tier";
        const TESTS: [&str; 5] = [
            "codec::tests::a_slot_list_gather_equals_per_slot_reads_on_every_codec",
            "codec::tests::range_decode_equals_per_slot_reads_over_every_range",
            "codec::tests::an_out_of_range_dictionary_code_fails_a_range_like_its_slot",
            "codec::tests::block_decode_matches_scalar_for_every_codec",
            ME,
        ];
        if std::env::var("RODB_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0") {
            assert_eq!(crate::active_tier(), crate::KernelTier::Scalar);
            return;
        }
        let exe = std::env::current_exe().unwrap();
        let run = std::process::Command::new(exe)
            .args(TESTS)
            .args(["--exact", "--test-threads", "1"])
            .env("RODB_FORCE_SCALAR", "1")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&run.stdout);
        let report = format!("{stdout}{}", String::from_utf8_lossy(&run.stderr));
        assert!(run.status.success(), "{report}");
        let summary = format!("test result: ok. {} passed", TESTS.len());
        assert!(stdout.contains(&summary), "{report}");
    }
}
