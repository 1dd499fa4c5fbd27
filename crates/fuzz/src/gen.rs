//! Deterministic case generation: one seed expands to one complete, valid
//! case — schema, data, physical design, and a query plan.
//!
//! Everything is drawn from a single [`SplitMix64`] stream, so a case is
//! reproducible from its seed alone. The generator only has to stay inside
//! the engine's *documented* validity envelope (codec domains, projected
//! group columns, sorted aggregation over sorted keys); within that envelope
//! every combination is fair game.

use std::sync::Arc;

use rodb_compress::{bits_for, Codec, ColumnCompression, Dictionary};
use rodb_engine::{AggSpec, CmpOp, Predicate, ScanLayout};
use rodb_types::{CacheSpec, Column, DataType, Schema, SplitMix64, Value};

/// How the table's row representation is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// Plain slotted row pages + uncompressed column files.
    Plain,
    /// PAX row pages + uncompressed column files.
    Pax,
    /// Packed row pages + per-column codecs on both representations.
    Compressed,
}

/// A fully materialized fuzz case.
#[derive(Debug, Clone)]
pub struct CasePlan {
    pub seed: u64,
    pub schema: Arc<Schema>,
    /// Row-major data; text values are pre-padded to the declared width.
    pub rows: Vec<Vec<Value>>,
    pub page_size: usize,
    pub storage: StorageKind,
    pub comps: Vec<ColumnCompression>,
    pub layout: ScanLayout,
    /// Base-table column indices, no duplicates.
    pub projection: Vec<usize>,
    pub predicates: Vec<Predicate>,
    /// Base-table index of the group column (always projected).
    pub group_by: Option<usize>,
    /// Aggregates over *projection positions*.
    pub aggs: Vec<AggSpec>,
    pub sorted_agg: bool,
    pub threads: usize,
    /// Vectorized scan fast path (block decode + code-space predicates +
    /// zone maps). Modes that sweep the exec axis run both settings
    /// regardless; the others (faults, recovery, the services) use this one.
    pub scan_fast_path: bool,
    /// Page-cache geometry of every cache-on cell ([`crate::Axes::cache`]).
    pub cache: CacheSpec,
    /// Per-column distribution tag, for failure reports.
    pub dist_tags: Vec<&'static str>,
}

impl CasePlan {
    /// One-line human summary for failure reports.
    pub fn describe(&self) -> String {
        let codecs: Vec<String> = self
            .comps
            .iter()
            .map(|c| format!("{:?}", c.codec.kind()))
            .collect();
        format!(
            "{} cols {:?} x {} rows, page {}, {:?}, codecs [{}], layout {:?}, proj {:?}, \
             {} preds, group {:?}, {} aggs{}, {} threads{}, cache {}f/k{}",
            self.schema.len(),
            self.dist_tags,
            self.rows.len(),
            self.page_size,
            self.storage,
            codecs.join(","),
            self.layout,
            self.projection,
            self.predicates.len(),
            self.group_by,
            self.aggs.len(),
            if self.sorted_agg { " (sorted)" } else { "" },
            self.threads,
            if self.scan_fast_path {
                ", fast-path"
            } else {
                ""
            },
            self.cache.frames,
            self.cache.k,
        )
    }
}

/// Expand `seed` into a case.
pub fn generate(seed: u64) -> CasePlan {
    let mut rng = SplitMix64::new(seed);

    // Schema: 1..=4 columns, mostly ints with some narrow fixed text.
    let ncols = 1 + rng.below(4) as usize;
    let mut cols = Vec::with_capacity(ncols);
    for i in 0..ncols {
        let name = format!("c{i}");
        if rng.below(10) < 7 {
            cols.push(Column::int(name));
        } else {
            cols.push(Column::text(name, 1 + rng.below(8) as usize));
        }
    }
    let schema = Arc::new(Schema::new(cols).expect("generated schema is valid"));

    // Row count: biased toward small tables (edge cases) with a long tail
    // that spans several pages per file.
    let nrows = match rng.below(100) {
        0..=4 => 0,
        5..=9 => 1,
        10..=39 => 2 + rng.below(19) as usize,
        40..=79 => 21 + rng.below(280) as usize,
        _ => 301 + rng.below(1200) as usize,
    };
    let page_size = if rng.bool() { 1024 } else { 4096 };

    // Column-wise data with a distribution per column.
    let mut coldata: Vec<Vec<Value>> = Vec::with_capacity(ncols);
    let mut dist_tags: Vec<&'static str> = Vec::with_capacity(ncols);
    let mut text_content_len: Vec<usize> = Vec::with_capacity(ncols);
    for c in 0..ncols {
        match schema.dtype(c) {
            DataType::Int => {
                let (tag, vals): (&'static str, Vec<i32>) = match rng.below(4) {
                    0 => {
                        let lo = rng.range_i32(-1000, 1000);
                        let width = 1 + rng.below(2000);
                        (
                            "uniform",
                            (0..nrows).map(|_| lo + rng.below(width) as i32).collect(),
                        )
                    }
                    1 => {
                        // Skewed: the 4th power of a uniform draw piles mass
                        // near the low end, a cheap zipf-alike.
                        let lo = rng.range_i32(-1000, 1000);
                        let width = 1 + rng.below(2000);
                        (
                            "zipf",
                            (0..nrows)
                                .map(|_| {
                                    let f = rng.f64();
                                    lo + (f * f * f * f * width as f64) as i32
                                })
                                .collect(),
                        )
                    }
                    2 => {
                        // Non-decreasing: qualifies for FOR-delta and sorted
                        // aggregation.
                        let mut v = rng.range_i32(-100, 100);
                        (
                            "sorted",
                            (0..nrows)
                                .map(|_| {
                                    let cur = v;
                                    v += rng.below(10) as i32;
                                    cur
                                })
                                .collect(),
                        )
                    }
                    _ => {
                        let k = 1 + rng.below(8) as usize;
                        let pool: Vec<i32> = (0..k).map(|_| rng.range_i32(-50, 50)).collect();
                        (
                            "lowcard",
                            (0..nrows)
                                .map(|_| pool[rng.below(k as u64) as usize])
                                .collect(),
                        )
                    }
                };
                dist_tags.push(tag);
                text_content_len.push(0);
                coldata.push(vals.into_iter().map(Value::Int).collect());
            }
            DataType::Text(w) => {
                let (tag, pool_size) = if rng.bool() {
                    ("text-uniform", 8 + rng.below(12) as usize)
                } else {
                    ("text-lowcard", 1 + rng.below(4) as usize)
                };
                let pool: Vec<Vec<u8>> = (0..pool_size)
                    .map(|_| {
                        let len = rng.below(w as u64 + 1) as usize;
                        (0..len).map(|_| b'a' + rng.below(26) as u8).collect()
                    })
                    .collect();
                dist_tags.push(tag);
                let mut max_content = 0usize;
                let vals: Vec<Value> = (0..nrows)
                    .map(|_| {
                        let s = &pool[rng.below(pool.len() as u64) as usize];
                        max_content = max_content.max(s.len());
                        let mut padded = s.clone();
                        padded.resize(w, 0);
                        Value::Text(padded.into_boxed_slice())
                    })
                    .collect();
                text_content_len.push(max_content);
                coldata.push(vals);
            }
            DataType::Long => unreachable!("generator never emits Long columns"),
        }
    }

    // Physical design: codecs are chosen *after* the data so domain-limited
    // codecs (BitPack needs min >= 0, FOR-delta needs a sorted column) only
    // appear where valid.
    let storage = match rng.below(3) {
        0 => StorageKind::Plain,
        1 => StorageKind::Pax,
        _ => StorageKind::Compressed,
    };
    let comps: Vec<ColumnCompression> = if storage == StorageKind::Compressed {
        (0..ncols)
            .map(|c| pick_codec(&mut rng, schema.dtype(c), &coldata[c], text_content_len[c]))
            .collect()
    } else {
        vec![ColumnCompression::none(); ncols]
    };

    // Query: projection is a shuffled prefix of the columns (no duplicates).
    let mut idx: Vec<usize> = (0..ncols).collect();
    for i in (1..ncols).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        idx.swap(i, j);
    }
    let nproj = 1 + rng.below(ncols as u64) as usize;
    let projection = idx[..nproj].to_vec();

    // Predicates may reference unprojected columns — the engine supports
    // that, the fuzzer must too.
    const OPS: [CmpOp; 6] = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Ge,
        CmpOp::Gt,
    ];
    let npred = rng.below(4) as usize;
    let mut predicates = Vec::with_capacity(npred);
    for _ in 0..npred {
        let c = rng.below(ncols as u64) as usize;
        let op = OPS[rng.below(6) as usize];
        // Literals mostly sampled from the data (selective but non-empty
        // results) with a side of out-of-range values.
        let sample = nrows > 0 && rng.below(10) < 6;
        let lit = match schema.dtype(c) {
            DataType::Int => {
                if sample {
                    coldata[c][rng.below(nrows as u64) as usize].clone()
                } else {
                    Value::Int(rng.range_i32(-1100, 1100))
                }
            }
            DataType::Text(w) => {
                if sample {
                    coldata[c][rng.below(nrows as u64) as usize].clone()
                } else {
                    let len = rng.below(w as u64 + 1) as usize;
                    let bytes: Vec<u8> = (0..len).map(|_| b'a' + rng.below(26) as u8).collect();
                    Value::Text(bytes.into_boxed_slice())
                }
            }
            DataType::Long => unreachable!(),
        };
        predicates.push(Predicate::new(c, op, lit));
    }

    // Aggregation: grouped or scalar, 1..=3 functions over projected int
    // positions (COUNT works regardless of types).
    let mut group_by = None;
    let mut aggs: Vec<AggSpec> = Vec::new();
    let mut sorted_agg = false;
    if rng.below(100) < 45 {
        if rng.below(10) < 7 {
            group_by = Some(projection[rng.below(nproj as u64) as usize]);
        }
        let int_positions: Vec<usize> = projection
            .iter()
            .enumerate()
            .filter(|&(_, &c)| schema.dtype(c) == DataType::Int)
            .map(|(p, _)| p)
            .collect();
        let naggs = 1 + rng.below(3) as usize;
        for _ in 0..naggs {
            let choice = if int_positions.is_empty() {
                0
            } else {
                rng.below(5)
            };
            let spec = if choice == 0 {
                AggSpec::count()
            } else {
                let p = int_positions[rng.below(int_positions.len() as u64) as usize];
                match choice {
                    1 => AggSpec::sum(p),
                    2 => AggSpec::min(p),
                    3 => AggSpec::max(p),
                    _ => AggSpec::avg(p),
                }
            };
            aggs.push(spec);
        }
        // Sort-based aggregation requires input grouped on the key; only a
        // globally non-decreasing column guarantees that.
        if let Some(g) = group_by {
            if dist_tags[g] == "sorted" && rng.bool() {
                sorted_agg = true;
            }
        }
    }

    let layout = match rng.below(100) {
        0..=34 => ScanLayout::Row,
        35..=69 => ScanLayout::Column,
        70..=84 => ScanLayout::ColumnSlow,
        _ => ScanLayout::ColumnSingleIterator,
    };
    let threads = [1, 1, 2, 3, 4, 7][rng.below(6) as usize];
    let scan_fast_path = rng.bool();

    // Cache geometry is drawn after every plan-shaping decision, so seeds
    // generated before the cache tier existed keep their exact plans. The
    // size menu deliberately includes the degenerate geometries: 0 frames
    // (enabled but misses everything), a single frame, and far larger than
    // any generated table.
    let cache = CacheSpec {
        frames: [0usize, 1, 2, 4, 8, 64, 1 << 16][rng.below(7) as usize],
        k: 1 + rng.below(4) as usize,
    };

    // Transpose to row-major for the loader and the oracle.
    let rows: Vec<Vec<Value>> = (0..nrows)
        .map(|r| (0..ncols).map(|c| coldata[c][r].clone()).collect())
        .collect();

    CasePlan {
        seed,
        schema,
        rows,
        page_size,
        storage,
        comps,
        layout,
        projection,
        predicates,
        group_by,
        aggs,
        sorted_agg,
        threads,
        scan_fast_path,
        cache,
        dist_tags,
    }
}

/// Pick a codec valid for this column's data. `max_content` is the longest
/// trimmed text content actually generated (TextPack's byte budget).
fn pick_codec(
    rng: &mut SplitMix64,
    dtype: DataType,
    vals: &[Value],
    max_content: usize,
) -> ColumnCompression {
    match dtype {
        DataType::Int => {
            let ints: Vec<i64> = vals
                .iter()
                .map(|v| match v {
                    Value::Int(i) => *i as i64,
                    _ => unreachable!(),
                })
                .collect();
            let min = ints.iter().copied().min().unwrap_or(0);
            let max = ints.iter().copied().max().unwrap_or(0);
            let nondecreasing = ints.windows(2).all(|w| w[0] <= w[1]);
            // Candidate list, then one uniform draw: None, FOR, Dict, RLE,
            // PFOR, Dict→FOR and RLE-on-codes always apply to ints; BitPack
            // needs non-negative values; FOR-delta needs a non-decreasing
            // column.
            let mut cands = vec![0u8, 2, 4, 5, 6, 7, 8];
            if min >= 0 {
                cands.push(1);
            }
            if nondecreasing {
                cands.push(3);
            }
            match cands[rng.below(cands.len() as u64) as usize] {
                0 => ColumnCompression::none(),
                1 => ColumnCompression::new(
                    Codec::BitPack {
                        bits: bits_for(max as u64),
                    },
                    None,
                )
                .expect("bitpack codec"),
                2 => ColumnCompression::new(
                    Codec::For {
                        bits: bits_for((max - min) as u64),
                    },
                    None,
                )
                .expect("for codec"),
                3 => {
                    let maxd = ints
                        .windows(2)
                        .map(|w| (w[1] - w[0]) as u64)
                        .max()
                        .unwrap_or(0);
                    ColumnCompression::new(
                        Codec::ForDelta {
                            bits: bits_for(maxd),
                        },
                        None,
                    )
                    .expect("fordelta codec")
                }
                4 => dict_comp(dtype, vals),
                5 => ColumnCompression::new(
                    Codec::Rle {
                        value_bits: bits_for((max - min) as u64).max(1),
                        len_bits: 1 + rng.below(6) as u8,
                    },
                    None,
                )
                .expect("rle codec"),
                6 => {
                    // Any width is valid: codes at or above 2^bits become
                    // patched exceptions. Narrow draws exercise the patch
                    // path hard.
                    let full = bits_for((max - min) as u64).max(1);
                    ColumnCompression::new(
                        Codec::Pfor {
                            bits: 1 + rng.below(full as u64) as u8,
                        },
                        None,
                    )
                    .expect("pfor codec")
                }
                7 => {
                    let dict = Dictionary::build(dtype, vals.iter()).expect("dict over own data");
                    let bits = dict.code_bits();
                    ColumnCompression::new(Codec::DictFor { bits }, Some(Arc::new(dict)))
                        .expect("dictfor codec with full-span width")
                }
                _ => {
                    let dict = Dictionary::build(dtype, vals.iter()).expect("dict over own data");
                    let value_bits = dict.code_bits().max(1);
                    ColumnCompression::new(
                        Codec::RleDict {
                            value_bits,
                            len_bits: 1 + rng.below(6) as u8,
                        },
                        Some(Arc::new(dict)),
                    )
                    .expect("rledict codec with its own code width")
                }
            }
        }
        DataType::Text(_) => match rng.below(4) {
            0 => ColumnCompression::none(),
            1 => ColumnCompression::new(
                Codec::TextPack {
                    bytes: max_content.max(1) as u16,
                },
                None,
            )
            .expect("textpack codec"),
            2 => {
                // Dict→FOR applies to text too: codes are ints even when
                // values are not.
                let dict = Dictionary::build(dtype, vals.iter()).expect("dict over own data");
                let bits = dict.code_bits();
                ColumnCompression::new(Codec::DictFor { bits }, Some(Arc::new(dict)))
                    .expect("text dictfor codec")
            }
            _ => dict_comp(dtype, vals),
        },
        DataType::Long => unreachable!(),
    }
}

fn dict_comp(dtype: DataType, vals: &[Value]) -> ColumnCompression {
    let dict = Dictionary::build(dtype, vals.iter()).expect("dictionary over own data");
    let bits = dict.code_bits();
    ColumnCompression::new(Codec::Dict { bits }, Some(Arc::new(dict)))
        .expect("dict codec with its own code width")
}
