//! Property-style tests over randomly generated schemas, data, codecs, and
//! queries: the row and column paths must stay observationally identical,
//! and compression must stay lossless, under arbitrary inputs.
//!
//! Inputs are generated with the workspace's deterministic [`SplitMix64`]
//! generator (the offline build has no `proptest`); each property runs over
//! many seeded cases.

use rodb::prelude::*;
use rodb_types::SplitMix64;
use std::sync::Arc;

const CASES: u64 = 64;

// ---------- generators -------------------------------------------------

#[derive(Debug, Clone)]
struct RandTable {
    schema: Arc<Schema>,
    comps: Vec<ColumnCompression>,
    rows: Vec<Vec<Value>>,
}

fn random_dtype(rng: &mut SplitMix64) -> DataType {
    // 3:1 ints to text, like the original strategy.
    if rng.below(4) < 3 {
        DataType::Int
    } else {
        DataType::Text(rng.range_usize(1, 20))
    }
}

/// Every codec that can hold the column's values, each at a data-valid
/// width. Generated ints (and the keys `wos_merge_preserves_contents`
/// appends) stay under `2 × domain`; the dictionary codecs get a dictionary
/// over all of that (over the four generated letters for text), PFOR half
/// its width so exceptions occur, FOR-delta only a sorted column.
fn codec_for(dtype: DataType, domain: i32, sorted: bool) -> Vec<ColumnCompression> {
    let comp = |codec, dict: Option<&Arc<Dictionary>>| {
        ColumnCompression::new(codec, dict.cloned()).unwrap()
    };
    let mut out = vec![ColumnCompression::none()];
    match dtype {
        DataType::Int => {
            let span = 2 * domain.max(1);
            let bits = rodb_compress::bits_for(span as u64);
            let values: Vec<Value> = (0..=span).map(Value::Int).collect();
            let dict = Arc::new(Dictionary::build(dtype, values.iter()).unwrap());
            let code_bits = dict.code_bits();
            let (value_bits, len_bits) = (bits, 3);
            out.extend([
                comp(Codec::BitPack { bits }, None),
                comp(Codec::For { bits }, None),
                comp(Codec::Pfor { bits: bits / 2 }, None),
                comp(
                    Codec::Rle {
                        value_bits,
                        len_bits,
                    },
                    None,
                ),
                comp(Codec::Dict { bits: code_bits }, Some(&dict)),
                comp(Codec::DictFor { bits: code_bits }, Some(&dict)),
                comp(
                    Codec::RleDict {
                        value_bits: code_bits,
                        len_bits,
                    },
                    Some(&dict),
                ),
            ]);
            if sorted {
                out.push(comp(Codec::ForDelta { bits }, None));
            }
        }
        DataType::Text(n) => {
            let letters: Vec<Value> = (b'a'..=b'd').map(|c| Value::Text([c].into())).collect();
            let dict = Arc::new(Dictionary::build(dtype, letters.iter()).unwrap());
            let bits = dict.code_bits();
            out.push(comp(Codec::Dict { bits }, Some(&dict)));
            out.push(comp(Codec::DictFor { bits }, Some(&dict)));
            if n >= 2 {
                let bytes = (n as u16).min(2);
                out.push(comp(Codec::TextPack { bytes }, None));
            }
        }
        DataType::Long => {}
    }
    out
}

fn random_table(rng: &mut SplitMix64) -> RandTable {
    let ncols = rng.range_usize(1, 5);
    let nrows = rng.range_usize(0, 400);
    let mut schema_cols = Vec::new();
    let mut comps = Vec::new();
    for i in 0..ncols {
        let dt = random_dtype(rng);
        schema_cols.push(Column::new(format!("c{i}"), dt));
        // Unsorted ints stay under 200, the sorted c0 under 2 × nrows.
        let options = codec_for(dt, 200 + nrows as i32, i == 0);
        comps.push(options[rng.range_usize(0, options.len())].clone());
    }
    let schema = Arc::new(Schema::new(schema_cols).unwrap());
    let mut rows = Vec::with_capacity(nrows);
    let mut sorted_val = 0i32;
    for _ in 0..nrows {
        let mut row = Vec::new();
        for (ci, c) in schema.columns().iter().enumerate() {
            match c.dtype {
                DataType::Int => {
                    if ci == 0 {
                        // Non-decreasing for FOR-delta compatibility.
                        sorted_val += rng.range_i32(0, 3);
                        row.push(Value::Int(sorted_val));
                    } else {
                        row.push(Value::Int(rng.range_i32(0, 200)));
                    }
                }
                DataType::Text(n) => {
                    let letter = b'a' + rng.below(4) as u8;
                    let len = 1.min(n);
                    row.push(Value::Text(vec![letter; len].into()));
                }
                DataType::Long => unreachable!(),
            }
        }
        rows.push(row);
    }
    RandTable {
        schema,
        comps,
        rows,
    }
}

fn build(t: &RandTable) -> Table {
    let mut b = TableBuilder::with_compression(
        "prop",
        t.schema.clone(),
        1024,
        BuildLayouts::both(),
        t.comps.clone(),
    )
    .unwrap();
    for r in &t.rows {
        b.push_row(r).unwrap();
    }
    b.finish().unwrap()
}

// ---------- properties --------------------------------------------------

/// Loading through any codec mix is lossless in both layouts.
#[test]
fn storage_roundtrip_lossless() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x5705 + case);
        let t = random_table(&mut rng);
        let table = build(&t);
        let via_row = table.read_all(Layout::Row).unwrap();
        let via_col = table.read_all(Layout::Column).unwrap();
        assert_eq!(via_row.len(), t.rows.len());
        assert_eq!(&via_row, &via_col);
        // Text values come back padded; compare through re-encoding.
        for (orig, got) in t.rows.iter().zip(&via_row) {
            for ((o, g), c) in orig.iter().zip(got).zip(t.schema.columns()) {
                let mut oe = Vec::new();
                o.encode_into(c.dtype, &mut oe).unwrap();
                let mut ge = Vec::new();
                g.encode_into(c.dtype, &mut ge).unwrap();
                assert_eq!(oe, ge);
            }
        }
    }
}

/// Every scanner, on the scalar and the fast path, produces the oracle's
/// rows for random predicates — over every codec, so block decode, random
/// access, packed-row fields and node 0's code space all meet the oracle.
#[test]
fn scanners_agree_on_random_queries() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x5CA9 + case);
        let t = random_table(&mut rng);
        let table = Arc::new(build(&t));
        let n = t.schema.len();
        let pred_col = rng.range_usize(0, 5) % n;
        let threshold = rng.range_i32(0, 250);
        let proj_mask = rng.range_usize(1, 31) as u8;
        let projection: Vec<usize> = (0..n).filter(|i| proj_mask & (1 << i) != 0).collect();
        let projection = if projection.is_empty() {
            vec![0]
        } else {
            projection
        };
        let preds = if t.schema.dtype(pred_col).is_int() {
            vec![Predicate::lt(pred_col, threshold)]
        } else {
            vec![Predicate::eq(pred_col, "a")]
        };
        let run = |layout, fast| {
            let sys = SystemConfig::default().with_scan_fast_path(fast);
            QueryBuilder::new(table.clone(), HardwareConfig::default(), sys)
                .layout(layout)
                .select_indices(&projection)
                .filter_pred(preds[0].clone())
                .unwrap()
                .run_collect()
                .unwrap()
                .rows
        };
        let baseline = run(ScanLayout::Row, false);
        for fast in [false, true] {
            for layout in [
                ScanLayout::Row,
                ScanLayout::Column,
                ScanLayout::ColumnSlow,
                ScanLayout::ColumnSingleIterator,
            ] {
                let comps = &t.comps;
                assert_eq!(
                    run(layout, fast),
                    baseline,
                    "{layout:?} fast={fast} {comps:?}"
                );
            }
        }

        // Oracle: filter + project the original rows.
        let mut expect = Vec::new();
        for row in &t.rows {
            if preds[0].eval_value(&normalize(&row[pred_col], t.schema.dtype(pred_col))) {
                expect.push(
                    projection
                        .iter()
                        .map(|&c| normalize(&row[c], t.schema.dtype(c)))
                        .collect::<Vec<_>>(),
                );
            }
        }
        assert_eq!(baseline, expect);
    }
}

/// Scalar aggregates match a recomputation from raw data.
#[test]
fn aggregates_match_oracle() {
    let mut done = 0u64;
    let mut seed = 0u64;
    while done < CASES {
        seed += 1;
        let mut rng = SplitMix64::new(0xA66 + seed);
        let t = random_table(&mut rng);
        if !t.schema.dtype(0).is_int() {
            continue; // the original property assumed an int first column
        }
        done += 1;
        let threshold = rng.range_i32(0, 250);
        let table = Arc::new(build(&t));
        let res = QueryBuilder::new(table, HardwareConfig::default(), SystemConfig::default())
            .layout(ScanLayout::Column)
            .select_indices(&[0])
            .filter_pred(Predicate::lt(0, threshold))
            .unwrap()
            .aggregate(AggSpec::count())
            .aggregate(AggSpec::sum(0))
            .run_collect()
            .unwrap()
            .rows;

        let qualifying: Vec<i64> = t
            .rows
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .filter(|&v| v < threshold)
            .map(|v| v as i64)
            .collect();
        if qualifying.is_empty() {
            assert!(res.is_empty());
        } else {
            let row = res.iter().next().unwrap();
            assert_eq!(row.long(0), qualifying.len() as i64);
            assert_eq!(row.long(1), qualifying.iter().sum::<i64>());
        }
    }
}

/// WOS inserts + merge behave like appending to the logical table.
#[test]
fn wos_merge_preserves_contents() {
    let mut done = 0u64;
    let mut seed = 0u64;
    while done < CASES {
        seed += 1;
        let mut rng = SplitMix64::new(0x305 + seed);
        let t = random_table(&mut rng);
        // Only schemas whose first column tolerates appended sorted values.
        if !t.schema.dtype(0).is_int() {
            continue;
        }
        done += 1;
        let extra = rng.range_usize(0, 20);
        let table = build(&t);
        let before = table.read_all(Layout::Row).unwrap();
        let mut wos = WriteOptimizedStore::new(t.schema.clone());
        let base = before
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .max()
            .unwrap_or(0);
        let mut inserted = Vec::new();
        for k in 0..extra {
            let mut row = Vec::new();
            for c in t.schema.columns() {
                row.push(match c.dtype {
                    DataType::Int => Value::Int(base + k as i32 + 1),
                    DataType::Text(_) => Value::text("a"),
                    DataType::Long => unreachable!(),
                });
            }
            wos.insert(row.clone()).unwrap();
            inserted.push(row);
        }
        let merged = wos
            .merge_prefix_into(wos.len(), &table, &t.comps, Some(0))
            .unwrap();
        assert_eq!(merged.row_count as usize, before.len() + extra);
        let after_row = merged.read_all(Layout::Row).unwrap();
        let after_col = merged.read_all(Layout::Column).unwrap();
        assert_eq!(&after_row, &after_col);
        // Sorted by column 0.
        for w in after_row.windows(2) {
            assert!(w[0][0] <= w[1][0]);
        }
    }
}

/// Pad a value to its column's stored width (what the engine hands back).
fn normalize(v: &Value, dt: DataType) -> Value {
    let mut buf = Vec::new();
    v.encode_into(dt, &mut buf).unwrap();
    Value::decode(dt, &buf).unwrap()
}
