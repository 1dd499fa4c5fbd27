//! Property-style tests for the compression substrate: bit-level I/O and
//! every codec must round-trip arbitrary in-domain inputs, and the
//! fixed-width invariants the engine relies on must hold.
//!
//! The workspace builds offline, so instead of `proptest` these run each
//! property over many deterministically seeded random cases.

use std::sync::Arc;

use rodb_compress::{bits_for, BitReader, BitWriter, Codec, ColumnCompression, Dictionary};
use rodb_types::{DataType, SplitMix64, Value};

const CASES: u64 = 256;

/// Mixed-width bit writes read back exactly, sequentially and by offset.
#[test]
fn bit_io_roundtrips_mixed_widths() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x0B17 + case);
        let n = rng.range_usize(0, 200);
        let items: Vec<(u8, u64)> = (0..n)
            .map(|_| (rng.range_usize(1, 65) as u8, rng.next_u64()))
            .collect();
        let mut w = BitWriter::new();
        let mut expected = Vec::new();
        for (bits, raw) in &items {
            let mask = if *bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            let code = raw & mask;
            w.write(code, *bits).unwrap();
            expected.push((*bits, code));
        }
        let total_bits: usize = items.iter().map(|(b, _)| *b as usize).sum();
        assert_eq!(w.bit_len(), total_bits);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), total_bits.div_ceil(8));
        let r = BitReader::new(&bytes);
        let mut off = 0usize;
        for (bits, code) in expected {
            assert_eq!(r.read_at(off, bits).unwrap(), code);
            off += bits as usize;
        }
    }
}

/// bits_for is the minimal width: the value fits, one bit less does not.
#[test]
fn bits_for_is_minimal() {
    let mut rng = SplitMix64::new(0xB175);
    for case in 0..CASES {
        // Cover every magnitude: scatter cases across bit widths.
        let shift = (case % 64) as u32;
        let v = (rng.next_u64() >> shift).max(1);
        let b = bits_for(v);
        assert!(b >= 1);
        if b < 64 {
            assert!(v < (1u64 << b), "v={v} b={b}");
        }
        if b > 1 {
            assert!(v >= (1u64 << (b - 1)), "v={v} b={b}");
        }
    }
}

/// BitPack roundtrips any non-negative ints under their minimal width,
/// sequentially and via random access.
#[test]
fn bitpack_roundtrip() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xB1E5 + case);
        let n = rng.range_usize(1, 300);
        let shift = rng.range_usize(0, 31) as u32;
        let vals: Vec<i32> = (0..n)
            .map(|_| (rng.next_u64() as u32 >> 1 >> shift) as i32)
            .collect();
        let max = *vals.iter().max().unwrap() as u64;
        let comp = ColumnCompression::new(
            Codec::BitPack {
                bits: bits_for(max),
            },
            None,
        )
        .unwrap();
        let values: Vec<Value> = vals.iter().map(|&v| Value::Int(v)).collect();
        let enc = comp.encode_page(DataType::Int, &values).unwrap();
        let pv = comp.open_page(DataType::Int, &enc.data, enc.count, enc.base);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(pv.int_at(i).unwrap(), v);
        }
        let mut cur = pv.cursor();
        for &v in &vals {
            assert_eq!(cur.next_int().unwrap(), v);
        }
    }
}

/// FOR roundtrips any ints whose page range fits the width — including
/// negative bases.
#[test]
fn for_roundtrip() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xF0 + case);
        let base = rng.range_i32(-1_000_000, 1_000_000);
        let n = rng.range_usize(1, 300);
        let offs: Vec<i32> = (0..n).map(|_| rng.range_i32(0, 50_000)).collect();
        let max_off = *offs.iter().max().unwrap() as u64;
        let comp = ColumnCompression::new(
            Codec::For {
                bits: bits_for(max_off),
            },
            None,
        )
        .unwrap();
        let values: Vec<Value> = offs.iter().map(|&o| Value::Int(base + o)).collect();
        let enc = comp.encode_page(DataType::Int, &values).unwrap();
        let pv = comp.open_page(DataType::Int, &enc.data, enc.count, enc.base);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(&pv.value_at(i).unwrap(), v);
        }
    }
}

/// FOR-delta roundtrips any non-decreasing sequence; sequential cursors
/// and O(i) random access agree.
#[test]
fn fordelta_roundtrip() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xDE17A + case);
        let start = rng.range_i32(-100_000, 100_000);
        let n = rng.range_usize(1, 300);
        let comp = ColumnCompression::new(Codec::ForDelta { bits: 8 }, None).unwrap();
        let mut vals = vec![start];
        for _ in 0..n {
            vals.push(vals.last().unwrap() + rng.range_i32(0, 255));
        }
        let values: Vec<Value> = vals.iter().map(|&v| Value::Int(v)).collect();
        let enc = comp.encode_page(DataType::Int, &values).unwrap();
        let pv = comp.open_page(DataType::Int, &enc.data, enc.count, enc.base);
        let mut cur = pv.cursor();
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(cur.next_int().unwrap(), v);
            assert_eq!(pv.int_at(i).unwrap(), v);
        }
        // Cursor counted one decode per value.
        assert_eq!(cur.codes_decoded(), vals.len() as u64);
    }
}

/// Dictionary codec roundtrips arbitrary low-cardinality text.
#[test]
fn dict_roundtrip() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xD1C7 + case);
        let nwords = rng.range_usize(1, 12);
        let words: Vec<String> = (0..nwords)
            .map(|_| {
                let len = rng.range_usize(0, 9);
                (0..len)
                    .map(|_| (b'a' + rng.below(26) as u8) as char)
                    .collect()
            })
            .collect();
        let npicks = rng.range_usize(1, 300);
        let width = 8usize;
        let values: Vec<Value> = (0..npicks)
            .map(|_| Value::text(&words[rng.range_usize(0, words.len())]))
            .collect();
        let dict = Arc::new(Dictionary::build(DataType::Text(width), values.iter()).unwrap());
        let bits = dict.code_bits();
        let comp = ColumnCompression::new(Codec::Dict { bits }, Some(dict)).unwrap();
        let enc = comp.encode_page(DataType::Text(width), &values).unwrap();
        let pv = comp.open_page(DataType::Text(width), &enc.data, enc.count, enc.base);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(pv.value_at(i).unwrap().to_string(), v.to_string());
        }
    }
}

/// Every candidate the advisor lists re-encodes its own sample losslessly
/// and never widens the column.
#[test]
fn advisor_pick_is_sound() {
    use rodb_compress::{candidates, compression_for};
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xAD + case);
        let n = rng.range_usize(1, 200);
        let vals: Vec<i32> = (0..n).map(|_| rng.range_i32(0, 10_000)).collect();
        let values: Vec<Value> = vals.iter().map(|&v| Value::Int(v)).collect();
        for (codec, bits) in candidates(DataType::Int, &values).unwrap() {
            assert!(bits <= 32, "{codec:?} at {bits} bits");
            let comp = compression_for(DataType::Int, codec, &values).unwrap();
            let enc = comp.encode_page(DataType::Int, &values).unwrap();
            let pv = comp.open_page(DataType::Int, &enc.data, enc.count, enc.base);
            let mut cur = pv.cursor();
            for &v in &vals {
                assert_eq!(cur.next_int().unwrap(), v);
            }
        }
    }
}

/// 64-bit extremes survive the full path: `i64::MIN`/`i64::MAX` round-trip
/// through an uncompressed Long page, and full-width frames round-trip
/// through the bit-level I/O at every offset parity.
#[test]
fn i64_extremes_roundtrip() {
    let values = vec![
        Value::Long(i64::MIN),
        Value::Long(i64::MAX),
        Value::Long(0),
        Value::Long(-1),
        Value::Long(i64::MIN + 1),
        Value::Long(i64::MAX - 1),
    ];
    let comp = ColumnCompression::none();
    let enc = comp.encode_page(DataType::Long, &values).unwrap();
    let pv = comp.open_page(DataType::Long, &enc.data, enc.count, enc.base);
    for (i, v) in values.iter().enumerate() {
        assert_eq!(&pv.value_at(i).unwrap(), v);
    }
    // Bit I/O: 64-bit codes carrying the extreme two's-complement patterns,
    // preceded by a 1..=7-bit shim so the frame straddles byte boundaries.
    for shim in 1..8u8 {
        let mut w = BitWriter::new();
        w.write(0, shim).unwrap();
        w.write(i64::MIN as u64, 64).unwrap();
        w.write(i64::MAX as u64, 64).unwrap();
        let bytes = w.into_bytes();
        let r = BitReader::new(&bytes);
        assert_eq!(r.read_at(shim as usize, 64).unwrap() as i64, i64::MIN);
        assert_eq!(r.read_at(shim as usize + 64, 64).unwrap() as i64, i64::MAX);
    }
}

/// An all-equal column has zero entropy; every int codec must still store
/// and recover it at the 1-bit floor (`bits_for(0) == 1`).
#[test]
fn all_equal_column_at_minimal_width() {
    assert_eq!(bits_for(0), 1);
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xE9A1 + case);
        let v = rng.range_i32(-100_000, 100_000);
        let n = rng.range_usize(1, 300);
        let values: Vec<Value> = (0..n).map(|_| Value::Int(v)).collect();
        let mut comps = vec![
            ColumnCompression::new(Codec::For { bits: 1 }, None).unwrap(),
            ColumnCompression::new(Codec::ForDelta { bits: 1 }, None).unwrap(),
        ];
        if v >= 0 {
            comps.push(
                ColumnCompression::new(
                    Codec::BitPack {
                        bits: bits_for(v as u64),
                    },
                    None,
                )
                .unwrap(),
            );
        }
        let dict = Arc::new(Dictionary::build(DataType::Int, values.iter()).unwrap());
        assert_eq!(dict.code_bits(), 1);
        comps.push(ColumnCompression::new(Codec::Dict { bits: 1 }, Some(dict)).unwrap());
        for comp in comps {
            let enc = comp.encode_page(DataType::Int, &values).unwrap();
            let pv = comp.open_page(DataType::Int, &enc.data, enc.count, enc.base);
            let mut cur = pv.cursor();
            for i in 0..n {
                assert_eq!(cur.next_int().unwrap(), v, "{:?}", comp.codec);
                if comp.codec.random_access() {
                    assert_eq!(pv.int_at(i).unwrap(), v, "{:?}", comp.codec);
                }
            }
        }
    }
}

/// FOR-delta's domain is non-decreasing sequences: a descending run must be
/// rejected at encode time, not stored corrupted.
#[test]
fn fordelta_rejects_descending_run() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xDE5C + case);
        let n = rng.range_usize(2, 100);
        let start = rng.range_i32(-1000, 1000);
        // Strictly descending from a random start.
        let mut vals = vec![start];
        for _ in 1..n {
            vals.push(vals.last().unwrap() - rng.range_i32(1, 50));
        }
        // Wide budget: the rejection must come from the sign of the delta,
        // never from the code width.
        let comp = ColumnCompression::new(Codec::ForDelta { bits: 32 }, None).unwrap();
        let values: Vec<Value> = vals.iter().map(|&v| Value::Int(v)).collect();
        let err = comp.encode_page(DataType::Int, &values).unwrap_err();
        assert!(
            matches!(err, rodb_types::Error::ValueOutOfDomain(_)),
            "expected ValueOutOfDomain, got {err:?}"
        );
    }
}

/// A dictionary holding exactly 2^k distinct values needs exactly k bits:
/// codes 0..2^k-1 fit in k, and a (k-1)-bit codec must be refused.
#[test]
fn dict_power_of_two_boundary() {
    for k in 1..=6u8 {
        let n = 1usize << k;
        let values: Vec<Value> = (0..n as i32).map(Value::Int).collect();
        let dict = Arc::new(Dictionary::build(DataType::Int, values.iter()).unwrap());
        assert_eq!(dict.len(), n);
        assert_eq!(dict.code_bits(), k, "2^{k} distinct values");
        let comp = ColumnCompression::new(Codec::Dict { bits: k }, Some(dict.clone())).unwrap();
        let enc = comp.encode_page(DataType::Int, &values).unwrap();
        let pv = comp.open_page(DataType::Int, &enc.data, enc.count, enc.base);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(&pv.value_at(i).unwrap(), v);
        }
        // One bit fewer cannot address the last code.
        let err = ColumnCompression::new(Codec::Dict { bits: k - 1 }, Some(dict)).unwrap_err();
        assert!(
            matches!(err, rodb_types::Error::InvalidConfig(_)),
            "expected InvalidConfig, got {err:?}"
        );
    }
}

/// Encoded size equals count × fixed width, rounded to bytes — the
/// invariant that makes positional access possible.
#[test]
fn encoded_size_is_fixed_width() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x517E + case);
        let n = rng.range_usize(1, 500);
        let vals: Vec<i32> = (0..n).map(|_| rng.range_i32(0, 1024)).collect();
        let comp = ColumnCompression::new(Codec::BitPack { bits: 10 }, None).unwrap();
        let values: Vec<Value> = vals.iter().map(|&v| Value::Int(v)).collect();
        let enc = comp.encode_page(DataType::Int, &values).unwrap();
        assert_eq!(enc.data.len(), (vals.len() * 10).div_ceil(8));
    }
}
