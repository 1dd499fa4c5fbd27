//! Merge join (§2.2.3).
//!
//! Inner equi-join over two inputs sorted ascending on their join keys —
//! the natural join for a bulk-loaded, key-ordered read store (e.g.
//! ORDERS ⋈ LINEITEM on the order key). Duplicate keys on the right are
//! buffered as a run and crossed with the matching left rows.

use std::cmp::Ordering;
use std::sync::Arc;

use rodb_types::{Column, DataType, Error, Result, Schema};

use crate::block::TupleBlock;
use crate::op::{ExecContext, Operator};

/// Compare two raw key fields of the same type.
fn cmp_key(dt: DataType, a: &[u8], b: &[u8]) -> Ordering {
    match dt {
        DataType::Int => {
            let av = i32::from_le_bytes(a[..4].try_into().unwrap());
            let bv = i32::from_le_bytes(b[..4].try_into().unwrap());
            av.cmp(&bv)
        }
        DataType::Long => {
            let av = i64::from_le_bytes(a[..8].try_into().unwrap());
            let bv = i64::from_le_bytes(b[..8].try_into().unwrap());
            av.cmp(&bv)
        }
        DataType::Text(_) => a.cmp(b),
    }
}

/// Pull-side cursor: one row at a time over an operator's blocks, verifying
/// ascending key order as it goes.
struct Cursor {
    op: Box<dyn Operator>,
    key: usize,
    block: Option<TupleBlock>,
    idx: usize,
    last_key: Option<Vec<u8>>,
}

impl Cursor {
    fn new(op: Box<dyn Operator>, key: usize) -> Cursor {
        Cursor {
            op,
            key,
            block: None,
            idx: 0,
            last_key: None,
        }
    }

    /// Ensure a current row; false at EOF.
    fn ensure(&mut self) -> Result<bool> {
        loop {
            if let Some(b) = &self.block {
                if self.idx < b.count() {
                    return Ok(true);
                }
            }
            match self.op.next()? {
                Some(b) => {
                    self.block = Some(b);
                    self.idx = 0;
                }
                None => {
                    self.block = None;
                    return Ok(false);
                }
            }
        }
    }

    fn current(&self) -> &[u8] {
        self.block
            .as_ref()
            .expect("ensure() checked")
            .tuple(self.idx)
    }

    fn current_key(&self) -> &[u8] {
        self.block
            .as_ref()
            .expect("ensure() checked")
            .field(self.idx, self.key)
    }

    fn advance(&mut self, dt: DataType) -> Result<()> {
        let k = self.current_key().to_vec();
        if let Some(prev) = &self.last_key {
            if cmp_key(dt, prev, &k) == Ordering::Greater {
                return Err(Error::InvalidPlan(
                    "merge join input not sorted on key".into(),
                ));
            }
        }
        self.last_key = Some(k);
        self.idx += 1;
        Ok(())
    }
}

/// Inner merge equi-join.
pub struct MergeJoin {
    ctx: ExecContext,
    left: Cursor,
    right: Cursor,
    key_dt: DataType,
    out_schema: Arc<Schema>,
    left_width: usize,
    /// Buffered right-side run sharing the current key.
    run: Vec<Vec<u8>>,
    run_key: Vec<u8>,
    run_pos: usize,
    done: bool,
}

impl MergeJoin {
    pub fn new(
        left: Box<dyn Operator>,
        left_key: usize,
        right: Box<dyn Operator>,
        right_key: usize,
        ctx: &ExecContext,
    ) -> Result<MergeJoin> {
        let ls = left.schema().clone();
        let rs = right.schema().clone();
        if left_key >= ls.len() {
            return Err(Error::UnknownColumn(format!("left key {left_key}")));
        }
        if right_key >= rs.len() {
            return Err(Error::UnknownColumn(format!("right key {right_key}")));
        }
        let key_dt = ls.dtype(left_key);
        if key_dt != rs.dtype(right_key) {
            return Err(Error::InvalidPlan(format!(
                "join key type mismatch: {} vs {}",
                key_dt,
                rs.dtype(right_key)
            )));
        }
        let mut cols: Vec<Column> = ls.columns().to_vec();
        for c in rs.columns() {
            let mut name = c.name.clone();
            while cols.iter().any(|e| e.name == name) {
                name.push_str("_r");
            }
            cols.push(Column::new(name, c.dtype));
        }
        Ok(MergeJoin {
            ctx: ctx.clone(),
            left: Cursor::new(left, left_key),
            right: Cursor::new(right, right_key),
            key_dt,
            out_schema: Arc::new(Schema::new(cols)?),
            left_width: ls.logical_width(),
            run: Vec::new(),
            run_key: Vec::new(),
            run_pos: 0,
            done: false,
        })
    }
}

impl Operator for MergeJoin {
    fn schema(&self) -> &Arc<Schema> {
        &self.out_schema
    }

    fn label(&self) -> String {
        "merge-join".to_string()
    }

    fn next(&mut self) -> Result<Option<TupleBlock>> {
        if self.done {
            return Ok(None);
        }
        let cap = self.ctx.sys.block_tuples;
        let mut block = TupleBlock::new(self.out_schema.clone(), cap);
        let mut compares = 0f64;
        let mut raw = vec![0u8; self.out_schema.logical_width()];

        'outer: while block.count() < cap {
            // Emit pending cross products of the current left row × run.
            if self.run_pos < self.run.len() {
                if !self.left.ensure()? {
                    break;
                }
                let lkey = self.left.current_key();
                compares += 1.0;
                if cmp_key(self.key_dt, lkey, &self.run_key) == Ordering::Equal {
                    let l = self.left.current();
                    raw[..self.left_width].copy_from_slice(l);
                    raw[self.left_width..].copy_from_slice(&self.run[self.run_pos]);
                    block.push_tuple(&raw, 0)?;
                    self.run_pos += 1;
                    if self.run_pos == self.run.len() {
                        // Next left row may share the key → replay the run.
                        self.left.advance(self.key_dt)?;
                        if self.left.ensure()?
                            && cmp_key(self.key_dt, self.left.current_key(), &self.run_key)
                                == Ordering::Equal
                        {
                            self.run_pos = 0;
                        } else {
                            self.run.clear();
                            self.run_pos = 0;
                        }
                    }
                    continue;
                }
                // Left moved past the run's key.
                self.run.clear();
                self.run_pos = 0;
            }

            // Find the next matching key pair.
            loop {
                if !self.left.ensure()? || !self.right.ensure()? {
                    break 'outer;
                }
                compares += 1.0;
                match cmp_key(
                    self.key_dt,
                    self.left.current_key(),
                    self.right.current_key(),
                ) {
                    Ordering::Less => self.left.advance(self.key_dt)?,
                    Ordering::Greater => self.right.advance(self.key_dt)?,
                    Ordering::Equal => {
                        // Buffer the right run for this key.
                        self.run_key = self.right.current_key().to_vec();
                        self.run.clear();
                        self.run_pos = 0;
                        while self.right.ensure()?
                            && cmp_key(self.key_dt, self.right.current_key(), &self.run_key)
                                == Ordering::Equal
                        {
                            self.run.push(self.right.current().to_vec());
                            self.right.advance(self.key_dt)?;
                        }
                        continue 'outer;
                    }
                }
            }
        }

        {
            let mut meter = self.ctx.meter.borrow_mut();
            meter.key_compare(compares);
            let out = block.count() as f64;
            meter.project(
                out,
                self.out_schema.len() as f64,
                out * self.out_schema.logical_width() as f64,
            );
            if block.count() > 0 {
                meter.block_calls(1.0);
                meter.stream_bytes(block.byte_len() as f64);
            }
        }

        if block.is_empty() {
            self.done = true;
            Ok(None)
        } else {
            Ok(Some(block))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::collect_rows;
    use crate::scan_row::RowScanner;
    use rodb_storage::{BuildLayouts, TableBuilder};
    use rodb_types::Value;

    fn table(name: &str, rows: &[(i32, i32)]) -> Arc<rodb_storage::Table> {
        let s = Arc::new(
            Schema::new(vec![
                Column::int(format!("{name}_k")),
                Column::int(format!("{name}_v")),
            ])
            .unwrap(),
        );
        let mut b = TableBuilder::new(name, s, 4096, BuildLayouts::row_only()).unwrap();
        for &(k, v) in rows {
            b.push_row(&[Value::Int(k), Value::Int(v)]).unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    fn scan(t: &Arc<rodb_storage::Table>, ctx: &ExecContext) -> Box<dyn Operator> {
        Box::new(RowScanner::new(t.clone(), vec![0, 1], vec![], ctx, None).unwrap())
    }

    fn join_rows(l: &[(i32, i32)], r: &[(i32, i32)]) -> Vec<Vec<Value>> {
        let lt = table("l", l);
        let rt = table("r", r);
        let ctx = ExecContext::default_ctx();
        let mut j = MergeJoin::new(scan(&lt, &ctx), 0, scan(&rt, &ctx), 0, &ctx).unwrap();
        collect_rows(&mut j).unwrap()
    }

    fn nested_loop_oracle(l: &[(i32, i32)], r: &[(i32, i32)]) -> Vec<(i32, i32, i32, i32)> {
        let mut out = Vec::new();
        for &(lk, lv) in l {
            for &(rk, rv) in r {
                if lk == rk {
                    out.push((lk, lv, rk, rv));
                }
            }
        }
        out
    }

    #[test]
    fn one_to_one() {
        let l = [(1, 10), (2, 20), (4, 40)];
        let r = [(1, 100), (3, 300), (4, 400)];
        let rows = join_rows(&l, &r);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![1.into(), 10.into(), 1.into(), 100.into()]);
        assert_eq!(rows[1], vec![4.into(), 40.into(), 4.into(), 400.into()]);
    }

    #[test]
    fn many_to_many_duplicates() {
        let l = [(1, 1), (2, 2), (2, 3), (5, 5)];
        let r = [(2, 20), (2, 21), (2, 22), (5, 50)];
        let rows = join_rows(&l, &r);
        let oracle = nested_loop_oracle(&l, &r);
        assert_eq!(rows.len(), oracle.len()); // 2×3 + 1 = 7
        for (row, o) in rows.iter().zip(&oracle) {
            let got: Vec<i32> = row.iter().map(|v| v.as_int().unwrap()).collect();
            assert_eq!((got[0], got[1], got[2], got[3]), *o);
        }
    }

    #[test]
    fn fk_join_like_orders_lineitem() {
        // 1 order : 4 lineitems, as in TPC-H.
        let orders: Vec<(i32, i32)> = (0..50).map(|i| (i, i * 1000)).collect();
        let lineitems: Vec<(i32, i32)> = (0..200).map(|i| (i / 4, i)).collect();
        let rows = join_rows(&orders, &lineitems);
        assert_eq!(rows.len(), 200);
        for r in &rows {
            assert_eq!(r[0], r[2]);
        }
    }

    #[test]
    fn empty_sides() {
        assert!(join_rows(&[], &[(1, 1)]).is_empty());
        assert!(join_rows(&[(1, 1)], &[]).is_empty());
        assert!(join_rows(&[(1, 1)], &[(2, 2)]).is_empty());
    }

    #[test]
    fn unsorted_input_detected() {
        let lt = table("l", &[(5, 1), (1, 2), (7, 3)]);
        let rt = table("r", &[(1, 1), (5, 2), (7, 3)]);
        let ctx = ExecContext::default_ctx();
        let mut j = MergeJoin::new(scan(&lt, &ctx), 0, scan(&rt, &ctx), 0, &ctx).unwrap();
        let res = (|| -> Result<_> {
            let mut all = Vec::new();
            while let Some(b) = j.next()? {
                all.extend(b.rows()?);
            }
            Ok(all)
        })();
        assert!(res.is_err());
    }

    #[test]
    fn schema_renames_clashes() {
        let lt = table("x", &[(1, 1)]);
        let rt = table("x", &[(1, 1)]);
        let ctx = ExecContext::default_ctx();
        let j = MergeJoin::new(scan(&lt, &ctx), 0, scan(&rt, &ctx), 0, &ctx).unwrap();
        let names: Vec<&str> = j
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, vec!["x_k", "x_v", "x_k_r", "x_v_r"]);
    }

    #[test]
    fn key_type_mismatch_rejected() {
        let s1 = Arc::new(Schema::new(vec![Column::int("k")]).unwrap());
        let s2 = Arc::new(Schema::new(vec![Column::text("k", 4)]).unwrap());
        let mut b1 = TableBuilder::new("a", s1, 4096, BuildLayouts::row_only()).unwrap();
        b1.push_row(&[Value::Int(1)]).unwrap();
        let mut b2 = TableBuilder::new("b", s2, 4096, BuildLayouts::row_only()).unwrap();
        b2.push_row(&[Value::text("x")]).unwrap();
        let t1 = Arc::new(b1.finish().unwrap());
        let t2 = Arc::new(b2.finish().unwrap());
        let ctx = ExecContext::default_ctx();
        let l = Box::new(RowScanner::new(t1, vec![0], vec![], &ctx, None).unwrap());
        let r = Box::new(RowScanner::new(t2, vec![0], vec![], &ctx, None).unwrap());
        assert!(MergeJoin::new(l, 0, r, 0, &ctx).is_err());
    }
}
