//! Write-optimized store (WOS).
//!
//! Figure 1 of the paper shows a staging area where updates land, with a
//! periodic bulk **merge** into the read-optimized store — the component the
//! paper describes but does not implement (its dashed box). We implement the
//! straightforward version: an in-memory row buffer that merges with an
//! existing read-optimized [`Table`] by rebuilding its dense files, optionally
//! keeping the table sorted on a key (as C-Store's merge does), which also
//! keeps FOR-delta columns encodable.

use std::sync::Arc;

use rodb_compress::ColumnCompression;
use rodb_types::{Error, Result, Schema, Value};

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
        // Read the existing read-optimized contents through whichever layout
        // exists (row preferred: cheaper to reconstruct).
        let mut all = if table.has_layout(Layout::Row) {
            table.read_all(Layout::Row)?
        } else {
            table.read_all(Layout::Column)?
        };
        all.extend(self.rows[..prefix].iter().cloned());
        if let Some(key) = sort_by {
            if key >= self.schema.len() {
                return Err(Error::UnknownColumn(format!("sort key index {key}")));
            }
            all.sort_by(|a, b| a[key].cmp(&b[key]));
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
        for r in &all {
            b.push_row(r)?;
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodb_compress::Codec;
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
        // outside that domain makes the rebuild's push_row fail — the WOS
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
}
