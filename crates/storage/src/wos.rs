//! Write-optimized store (WOS).
//!
//! Figure 1 of the paper shows a staging area where updates land, with a
//! periodic bulk **merge** into the read-optimized store — the component the
//! paper describes but does not implement (its dashed box). We implement the
//! straightforward version: an in-memory row buffer that merges with an
//! existing read-optimized [`Table`] by rebuilding its dense files, optionally
//! keeping the table sorted on a key (as C-Store's merge does), which also
//! keeps FOR-delta columns encodable. The rebuild moves columns, not rows:
//! the table's columns as stored bytes ([`Table::read_columns`]), the staged
//! prefix appended to them, one stable sort of a row permutation on the key,
//! a gather per column, and the result paged out by
//! [`TableBuilder::push_columns`]. Staged rows stay `Value`s until then.

use std::sync::Arc;

use rodb_compress::ColumnCompression;
use rodb_types::{DataType, Error, Result, Schema, Value};

use crate::loader::{BuildLayouts, TableBuilder};
use crate::table::{Layout, Table};

/// An in-memory staging area for newly arrived rows.
#[derive(Debug, Clone)]
pub struct WriteOptimizedStore {
    schema: Arc<Schema>,
    rows: Vec<Vec<Value>>,
}

impl WriteOptimizedStore {
    pub fn new(schema: Arc<Schema>) -> WriteOptimizedStore {
        WriteOptimizedStore {
            schema,
            rows: Vec::new(),
        }
    }

    /// Check a row against the schema (arity and value/type fit) without
    /// staging it — the durable ingest path validates *before* logging so a
    /// rejected batch leaves no WAL record.
    pub fn validate(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.schema.len() {
            return Err(Error::corrupt(format!(
                "insert with {} values for {}-column schema",
                values.len(),
                self.schema.len()
            )));
        }
        values
            .iter()
            .zip(self.schema.columns())
            .try_for_each(|(v, c)| v.check_fits(c.dtype))
    }

    /// Buffer one inserted row.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<()> {
        self.validate(&values)?;
        self.rows.push(values);
        Ok(())
    }

    /// Rows currently staged.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The staged rows, oldest first (the durable ingest store snapshots
    /// and freezes prefixes of exactly this order).
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Drop the first `n` staged rows (they were consumed by a committed
    /// prefix merge); later rows keep their arrival order.
    pub fn drain_prefix(&mut self, n: usize) {
        self.rows.drain(..n.min(self.rows.len()));
    }

    /// Merge the first `prefix` staged rows into `table`, without consuming
    /// them, producing a new read-optimized table with the same layouts and
    /// codecs. If `sort_by` names a column, the merged data is re-sorted on
    /// it (stable). This is the one rebuild step of the epoch-based ingest
    /// protocol: the caller freezes a prefix, rebuilds, and only drops the
    /// prefix ([`WriteOptimizedStore::drain_prefix`]) once the merge-commit
    /// record is durable — so a crash mid-merge re-derives exactly the same
    /// table from the log, and a failing rebuild (codec domain, bad sort
    /// key…) leaves every staged row in place.
    pub fn merge_prefix_into(
        &self,
        prefix: usize,
        table: &Table,
        comps: &[ColumnCompression],
        sort_by: Option<usize>,
    ) -> Result<Table> {
        if prefix > self.rows.len() {
            return Err(Error::InvalidConfig(format!(
                "merge prefix {prefix} exceeds {} staged rows",
                self.rows.len()
            )));
        }
        if !Arc::ptr_eq(&self.schema, &table.schema) && *self.schema != *table.schema {
            return Err(Error::InvalidConfig("WOS/table schema mismatch".into()));
        }
        if let Some(key) = sort_by.filter(|&key| key >= self.schema.len()) {
            return Err(Error::UnknownColumn(format!("sort key index {key}")));
        }
        // The existing read-optimized contents, column by column, through
        // whichever layout exists (row preferred: cheaper to reconstruct),
        // then the prefix's values as stored bytes after them.
        let all: Vec<usize> = (0..self.schema.len()).collect();
        let mut cols = table.read_columns(&all)?;
        let staged = &self.rows[..prefix];
        for row in staged {
            for ((col, v), c) in cols.iter_mut().zip(row).zip(self.schema.columns()) {
                v.encode_into(c.dtype, col)?;
            }
        }
        let n = table.row_count as usize + prefix;
        if let Some(key) = sort_by {
            let order = sort_order(&cols[key], self.schema.dtype(key), staged, key, n)?;
            for (col, c) in cols.iter_mut().zip(self.schema.columns()) {
                *col = gather(col, c.dtype.width(), &order);
            }
        }
        let layouts = BuildLayouts {
            row: table.has_layout(Layout::Row),
            column: table.has_layout(Layout::Column),
        };
        let page_size = table
            .row
            .as_ref()
            .map(|r| r.page_size)
            .or_else(|| {
                table
                    .col
                    .as_ref()
                    .and_then(|c| c.columns.first().map(|c| c.page_size))
            })
            .ok_or_else(|| Error::LayoutUnavailable("table with no layouts".into()))?;
        let pax = matches!(
            table.row.as_ref().map(|r| &r.format),
            Some(crate::table::RowFormat::Pax)
        );
        let mut b = if pax {
            TableBuilder::new_pax(table.name.clone(), table.schema.clone(), page_size, layouts)?
        } else {
            TableBuilder::with_compression(
                table.name.clone(),
                table.schema.clone(),
                page_size,
                layouts,
                comps.to_vec(),
            )?
        };
        let cols: Vec<&[u8]> = cols.iter().map(Vec::as_slice).collect();
        b.push_columns(&cols, n)?;
        b.finish()
    }
}

/// The stable order of `n` rows on a key column given as stored bytes
/// (`key_col`, the table's rows then the staged ones): the order a stable
/// sort of the rows' `Value`s on the key gives. Ints and longs compare by
/// value; text by its zero-padded bytes, then by the length the value
/// holds — a table row's is the full width, a staged row's the text it was
/// inserted with — which is how `Value` ranks `"AB"` before `"AB\0"`.
fn sort_order(
    key_col: &[u8],
    dtype: DataType,
    staged: &[Vec<Value>],
    key: usize,
    n: usize,
) -> Result<Vec<u32>> {
    let n32 = u32::try_from(n)
        .map_err(|_| Error::InvalidConfig(format!("merge of {n} rows exceeds u32 positions")))?;
    let mut order: Vec<u32> = (0..n32).collect();
    let width = dtype.width();
    let value = |i: u32| &key_col[i as usize * width..][..width];
    match dtype {
        DataType::Int => {
            let ints: Vec<i32> = key_col
                .as_chunks::<4>()
                .0
                .iter()
                .map(|b| i32::from_le_bytes(*b))
                .collect();
            order.sort_by_key(|&i| ints[i as usize]);
        }
        DataType::Long => {
            let long = |i: u32| value(i).first_chunk::<8>().map(|b| i64::from_le_bytes(*b));
            order.sort_by_key(|&i| long(i));
        }
        DataType::Text(_) => {
            let ros = n - staged.len();
            let held = staged
                .iter()
                .map(|row| row[key].as_text().map(<[u8]>::len))
                .collect::<Result<Vec<usize>>>()?;
            let len = |i: u32| (i as usize).checked_sub(ros).map_or(width, |s| held[s]);
            order.sort_by(|&a, &b| value(a).cmp(value(b)).then(len(a).cmp(&len(b))));
        }
    }
    Ok(order)
}

/// Column `col` (values `width` bytes each) in `order`.
fn gather(col: &[u8], width: usize, order: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(col.len());
    for &i in order {
        out.extend_from_slice(&col[i as usize * width..][..width]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodb_compress::{Codec, Dictionary};
    use rodb_types::Column;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![Column::int("k"), Column::int("v")]).unwrap())
    }

    fn base_table(schema: &Arc<Schema>, comps: &[ColumnCompression]) -> Table {
        let mut b = TableBuilder::with_compression(
            "t",
            schema.clone(),
            1024,
            BuildLayouts::both(),
            comps.to_vec(),
        )
        .unwrap();
        for i in 0..100 {
            b.push_row(&[Value::Int(i * 2), Value::Int(i)]).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn merge_appends_and_sorts() {
        let s = schema();
        let comps = vec![
            ColumnCompression::new(Codec::ForDelta { bits: 4 }, None).unwrap(),
            ColumnCompression::none(),
        ];
        let t = base_table(&s, &comps);
        let mut wos = WriteOptimizedStore::new(s.clone());
        wos.insert(vec![Value::Int(5), Value::Int(1000)]).unwrap();
        wos.insert(vec![Value::Int(151), Value::Int(1001)]).unwrap();
        assert_eq!(wos.len(), 2);

        // Sorting on the key keeps the FOR-delta column monotone.
        let merged = wos
            .merge_prefix_into(wos.len(), &t, &comps, Some(0))
            .unwrap();
        assert_eq!(wos.len(), 2, "the rebuild consumes nothing");
        assert_eq!(merged.row_count, 102);
        let rows = merged.read_all(Layout::Column).unwrap();
        assert!(rows.windows(2).all(|w| w[0][0] <= w[1][0]));
        assert!(rows.iter().any(|r| r[1] == Value::Int(1000)));
        // Row and column representations agree after the merge.
        assert_eq!(rows, merged.read_all(Layout::Row).unwrap());
    }

    #[test]
    fn unsorted_merge_without_delta_codec() {
        let s = schema();
        let comps = vec![ColumnCompression::none(), ColumnCompression::none()];
        let t = base_table(&s, &comps);
        let mut wos = WriteOptimizedStore::new(s.clone());
        wos.insert(vec![Value::Int(-7), Value::Int(9)]).unwrap();
        let merged = wos.merge_prefix_into(wos.len(), &t, &comps, None).unwrap();
        assert_eq!(merged.row_count, 101);
        // Appended at the end, order preserved.
        let rows = merged.read_all(Layout::Row).unwrap();
        assert_eq!(rows[100][0], Value::Int(-7));
    }

    #[test]
    fn insert_validation() {
        let s = schema();
        let mut wos = WriteOptimizedStore::new(s);
        assert!(wos.insert(vec![Value::Int(1)]).is_err());
        assert!(wos.insert(vec![Value::text("x"), Value::Int(1)]).is_err());
        assert!(wos.is_empty());
    }

    #[test]
    fn failing_merge_keeps_staged_rows() {
        // Base table packed with BitPack{2}: values 0..=3 only. A staged row
        // outside that domain makes the rebuild fail — the WOS
        // must keep every staged row so the caller can retry or re-plan.
        let s = schema();
        let comps = vec![
            ColumnCompression::new(Codec::BitPack { bits: 2 }, None).unwrap(),
            ColumnCompression::none(),
        ];
        let mut b = TableBuilder::with_compression(
            "t",
            s.clone(),
            1024,
            BuildLayouts::both(),
            comps.clone(),
        )
        .unwrap();
        for i in 0..10 {
            b.push_row(&[Value::Int(i % 4), Value::Int(i)]).unwrap();
        }
        let t = b.finish().unwrap();
        let mut wos = WriteOptimizedStore::new(s);
        wos.insert(vec![Value::Int(2), Value::Int(50)]).unwrap();
        wos.insert(vec![Value::Int(1000), Value::Int(51)]).unwrap();
        assert!(wos
            .merge_prefix_into(wos.len(), &t, &comps, Some(0))
            .is_err());
        assert_eq!(wos.len(), 2, "a failing merge must not drop staged rows");
        // A bad sort key fails even earlier; still nothing is lost.
        assert!(wos
            .merge_prefix_into(wos.len(), &t, &comps, Some(9))
            .is_err());
        assert_eq!(wos.len(), 2);
    }

    #[test]
    fn bad_sort_key_rejected() {
        let s = schema();
        let comps = vec![ColumnCompression::none(), ColumnCompression::none()];
        let t = base_table(&s, &comps);
        let mut wos = WriteOptimizedStore::new(s);
        wos.insert(vec![Value::Int(1), Value::Int(2)]).unwrap();
        assert!(wos
            .merge_prefix_into(wos.len(), &t, &comps, Some(9))
            .is_err());
    }

    /// The merge as it was written before it moved columns: every row read
    /// back as `Value`s, the prefix appended, a stable sort on the key's
    /// `Value`s, and one `push_row` per row.
    fn merged_through_rows(
        wos: &WriteOptimizedStore,
        prefix: usize,
        table: &Table,
        comps: &[ColumnCompression],
        key: Option<usize>,
    ) -> Result<Table> {
        let via = match table.has_layout(Layout::Row) {
            true => Layout::Row,
            false => Layout::Column,
        };
        let mut all = table.read_all(via)?;
        all.extend(wos.rows()[..prefix].iter().cloned());
        if let Some(key) = key {
            all.sort_by(|a, b| a[key].cmp(&b[key]));
        }
        let layouts = BuildLayouts {
            row: table.has_layout(Layout::Row),
            column: table.has_layout(Layout::Column),
        };
        let (name, schema) = (table.name.clone(), table.schema.clone());
        let mut b = match &table.row {
            Some(rs) if matches!(rs.format, crate::table::RowFormat::Pax) => {
                TableBuilder::new_pax(name, schema, 512, layouts)?
            }
            _ => TableBuilder::with_compression(name, schema, 512, layouts, comps.to_vec())?,
        };
        for r in &all {
            b.push_row(r)?;
        }
        b.finish()
    }

    /// Everything a rebuild writes: the row count and every file with its
    /// page geometry.
    type Files = (
        u64,
        Option<(Arc<Vec<u8>>, usize)>,
        Vec<(Arc<Vec<u8>>, usize)>,
    );

    fn files(t: &Table) -> Files {
        let row = t.row.as_ref().map(|r| (r.file.clone(), r.tuples_per_page));
        let cols = t.col.as_ref().map_or(Vec::new(), |c| {
            let files = c.columns.iter();
            files.map(|c| (c.file.clone(), c.values_per_page)).collect()
        });
        (t.row_count, row, cols)
    }

    #[test]
    fn a_merge_writes_the_pages_the_row_at_a_time_merge_wrote() {
        let s = Arc::new(
            Schema::new(vec![
                Column::int("k"),
                Column::text("t", 4),
                Column::int("v"),
                Column::text("x", 6),
            ])
            .unwrap(),
        );
        // Three spellings of one stored value: `Value` ranks "AB" before
        // "AB\0" before the full-width "AB\0\0" a table row reads back as.
        let words = ["AB", "AB\0", "A", "", "ABCD", "AB\0\0", "B"];
        let word = |i: usize| Value::Text(words[i % words.len()].as_bytes().into());
        let short = ["ab", "c", "", "def"];
        let row = |k: i32, i: usize| {
            let x = Value::text(short[i % short.len()]);
            vec![Value::Int(k), word(i), Value::Int((i / 9 % 30) as i32), x]
        };
        let mut base: Vec<Vec<Value>> = (0..600)
            .map(|i| row((i * 7919 % 400) as i32 - 100, i))
            .collect();
        base.sort_by(|a, b| a[0].cmp(&b[0]));
        let mut wos = WriteOptimizedStore::new(s.clone());
        for j in 0..150 {
            wos.insert(row((j * 31 % 450) as i32 - 120, j * 3)).unwrap();
        }
        let t_dict = Dictionary::build(
            DataType::Text(4),
            (0..7).map(word).collect::<Vec<_>>().iter(),
        );
        let t_dict = Arc::new(t_dict.unwrap());
        let x_words: Vec<Value> = short.iter().map(|w| Value::text(w)).collect();
        let x_dict = Arc::new(Dictionary::build(DataType::Text(6), x_words.iter()).unwrap());
        let plain = |c| ColumnCompression::new(c, None).unwrap();
        let with = |c, d: &Arc<Dictionary>| ColumnCompression::new(c, Some(d.clone())).unwrap();
        let none = ColumnCompression::none;
        let rle = |value_bits, len_bits| {
            plain(Codec::Rle {
                value_bits,
                len_bits,
            })
        };
        // (label, PAX rows, codecs): plain rows over fixed- and over
        // variable-rate columns, packed rows likewise, a FOR-delta key, PAX.
        let sets = [
            ("plain", false, vec![none(), none(), none(), none()]),
            (
                "plain rows, variable columns",
                false,
                vec![rle(10, 3), none(), plain(Codec::Pfor { bits: 3 }), none()],
            ),
            (
                "packed, fixed",
                false,
                vec![
                    plain(Codec::For { bits: 10 }),
                    with(Codec::Dict { bits: 3 }, &t_dict),
                    plain(Codec::BitPack { bits: 5 }),
                    plain(Codec::TextPack { bytes: 3 }),
                ],
            ),
            (
                "packed, variable",
                false,
                vec![
                    plain(Codec::Pfor { bits: 4 }),
                    with(Codec::DictFor { bits: 3 }, &t_dict),
                    rle(5, 2),
                    with(Codec::Dict { bits: 2 }, &x_dict),
                ],
            ),
            (
                "packed, FOR-delta key",
                false,
                vec![
                    plain(Codec::ForDelta { bits: 9 }),
                    with(Codec::Dict { bits: 3 }, &t_dict),
                    none(),
                    none(),
                ],
            ),
            ("pax", true, vec![none(), none(), none(), none()]),
        ];
        let mut merged = 0;
        for (label, pax, comps) in &sets {
            for layouts in [
                BuildLayouts::both(),
                BuildLayouts::row_only(),
                BuildLayouts::column_only(),
            ] {
                let mut b = match pax {
                    true => TableBuilder::new_pax("t", s.clone(), 512, layouts),
                    false => {
                        TableBuilder::with_compression("t", s.clone(), 512, layouts, comps.clone())
                    }
                }
                .unwrap();
                base.iter().for_each(|r| b.push_row(r).unwrap());
                let table = b.finish().unwrap();
                for key in [Some(0), Some(1), None] {
                    for prefix in [0, 1, 77, 150] {
                        let what = format!("{label} {layouts:?} key {key:?} prefix {prefix}");
                        let got = wos.merge_prefix_into(prefix, &table, comps, key);
                        let want = merged_through_rows(&wos, prefix, &table, comps, key);
                        match (got, want) {
                            (Ok(got), Ok(want)) => {
                                assert!(files(&got) == files(&want), "{what}");
                                merged += 1;
                            }
                            (Err(got), Err(want)) => assert_eq!(
                                std::mem::discriminant(&got),
                                std::mem::discriminant(&want),
                                "{what}: {got:?} / {want:?}"
                            ),
                            (got, want) => panic!("{what}: {:?} / {:?}", got.err(), want.err()),
                        }
                    }
                }
            }
        }
        // Only the FOR-delta key's merges that leave it unsorted fail: every
        // one sorted on text, and every unsorted one with staged rows.
        assert_eq!(merged, 6 * 3 * 3 * 4 - 3 * (4 + 3));
    }
}
