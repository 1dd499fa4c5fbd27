//! In-memory sort operator.
//!
//! Feeds the sort-based aggregation and the merge join when inputs are not
//! already in key order. The read-optimized store is bulk-loaded and usually
//! key-ordered already, so this operator mostly appears in ad-hoc plans.

use std::sync::Arc;

use rodb_types::{Error, Result, Schema};

use crate::block::TupleBlock;
use crate::op::{ExecContext, Operator};

/// Sorts its entire input by one or more columns (ascending, bytewise on the
/// stored representation for text, numeric for int columns).
pub struct Sort {
    child: Box<dyn Operator>,
    ctx: ExecContext,
    keys: Vec<usize>,
    schema: Arc<Schema>,
    /// Materialized + sorted rows, filled on first `next`.
    sorted: Option<Vec<(Vec<u8>, u64)>>,
    emit_idx: usize,
}

impl Sort {
    pub fn new(child: Box<dyn Operator>, keys: Vec<usize>, ctx: &ExecContext) -> Result<Sort> {
        let schema = child.schema().clone();
        for &k in &keys {
            if k >= schema.len() {
                return Err(Error::UnknownColumn(format!("sort key index {k}")));
            }
        }
        if keys.is_empty() {
            return Err(Error::InvalidPlan("sort with no keys".into()));
        }
        Ok(Sort {
            child,
            ctx: ctx.clone(),
            keys,
            schema,
            sorted: None,
            emit_idx: 0,
        })
    }

    fn materialize(&mut self) -> Result<()> {
        let mut rows: Vec<(Vec<u8>, u64)> = Vec::new();
        let mut in_bytes = 0f64;
        while let Some(b) = self.child.next()? {
            for i in 0..b.count() {
                rows.push((b.tuple(i).to_vec(), b.position(i).unwrap_or(0)));
            }
            in_bytes += b.byte_len() as f64;
        }
        let schema = self.schema.clone();
        let keys = self.keys.clone();
        let n = rows.len().max(1) as f64;
        rows.sort_by(|a, b| {
            for &k in &keys {
                let off = schema.offset(k);
                let dt = schema.dtype(k);
                let ord = match dt {
                    rodb_types::DataType::Int => {
                        let av = i32::from_le_bytes(a.0[off..off + 4].try_into().unwrap());
                        let bv = i32::from_le_bytes(b.0[off..off + 4].try_into().unwrap());
                        av.cmp(&bv)
                    }
                    rodb_types::DataType::Long => {
                        let av = i64::from_le_bytes(a.0[off..off + 8].try_into().unwrap());
                        let bv = i64::from_le_bytes(b.0[off..off + 8].try_into().unwrap());
                        av.cmp(&bv)
                    }
                    rodb_types::DataType::Text(w) => a.0[off..off + w].cmp(&b.0[off..off + w]),
                };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        {
            let mut meter = self.ctx.meter.borrow_mut();
            meter.key_compare(n * n.log2().max(1.0));
            // Sorting re-streams the materialized data.
            meter.stream_bytes(2.0 * in_bytes);
        }
        self.sorted = Some(rows);
        Ok(())
    }
}

impl Operator for Sort {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn label(&self) -> String {
        "sort".to_string()
    }

    fn next(&mut self) -> Result<Option<TupleBlock>> {
        if self.sorted.is_none() {
            self.materialize()?;
        }
        let rows = self.sorted.as_ref().expect("materialized above");
        if self.emit_idx >= rows.len() {
            return Ok(None);
        }
        let cap = self.ctx.sys.block_tuples;
        let mut block = TupleBlock::new(self.schema.clone(), cap);
        while self.emit_idx < rows.len() && block.count() < cap {
            let (raw, pos) = &self.sorted.as_ref().unwrap()[self.emit_idx];
            block.push_tuple(raw, *pos)?;
            self.emit_idx += 1;
        }
        self.ctx.meter.borrow_mut().block_calls(1.0);
        Ok(Some(block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::collect_rows;
    use crate::predicate::Predicate;
    use crate::scan_row::RowScanner;
    use rodb_storage::{BuildLayouts, TableBuilder};
    use rodb_types::{Column, Value};

    fn scan(n: usize, ctx: &ExecContext) -> Box<dyn Operator> {
        let s = Arc::new(Schema::new(vec![Column::int("k"), Column::text("t", 4)]).unwrap());
        let mut b = TableBuilder::new("t", s, 4096, BuildLayouts::row_only()).unwrap();
        for i in 0..n {
            // Reverse order so sorting has work to do.
            b.push_row(&[
                Value::Int((n - i) as i32),
                Value::text(["dd", "cc", "bb", "aa"][i % 4]),
            ])
            .unwrap();
        }
        let t = Arc::new(b.finish().unwrap());
        Box::new(RowScanner::new(t, vec![0, 1], vec![], ctx, None).unwrap())
    }

    #[test]
    fn sorts_ints_ascending() {
        let ctx = ExecContext::default_ctx();
        let mut s = Sort::new(scan(500, &ctx), vec![0], &ctx).unwrap();
        let rows = collect_rows(&mut s).unwrap();
        assert_eq!(rows.len(), 500);
        for w in rows.windows(2) {
            assert!(w[0][0] <= w[1][0]);
        }
        assert_eq!(rows[0][0], Value::Int(1));
    }

    #[test]
    fn sorts_text_then_int() {
        let ctx = ExecContext::default_ctx();
        let mut s = Sort::new(scan(100, &ctx), vec![1, 0], &ctx).unwrap();
        let rows = collect_rows(&mut s).unwrap();
        for w in rows.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let ta = a[1].to_string();
            let tb = b[1].to_string();
            assert!(ta <= tb);
            if ta == tb {
                assert!(a[0] <= b[0]);
            }
        }
    }

    #[test]
    fn empty_input() {
        let ctx = ExecContext::default_ctx();
        let s = Arc::new(Schema::new(vec![Column::int("k")]).unwrap());
        let mut b = TableBuilder::new("e", s, 4096, BuildLayouts::row_only()).unwrap();
        b.push_row(&[Value::Int(1)]).unwrap();
        let t = Arc::new(b.finish().unwrap());
        let scan = RowScanner::new(t, vec![0], vec![Predicate::lt(0, 0)], &ctx, None).unwrap();
        let mut sort = Sort::new(Box::new(scan), vec![0], &ctx).unwrap();
        assert!(sort.next().unwrap().is_none());
    }

    #[test]
    fn validates_keys() {
        let ctx = ExecContext::default_ctx();
        assert!(Sort::new(scan(10, &ctx), vec![], &ctx).is_err());
        assert!(Sort::new(scan(10, &ctx), vec![5], &ctx).is_err());
    }
}
