//! In-memory scan over the WOS tail, and the chain that splices it behind
//! a read-optimized scan.
//!
//! C-Store-style systems answer queries over the union of the
//! read-optimized store and the in-memory staging area. [`MemScan`] is the
//! staging half: a block iterator over owned `Vec<Value>` rows that applies
//! the same predicates and projection as the disk scanners but charges only
//! CPU — the WOS lives in memory, so there is no modeled I/O to pay.
//! [`Chain`] concatenates it after the ROS scan so filters, projections,
//! and aggregates see one uninterrupted stream.

use std::sync::Arc;

use rodb_types::{Result, Schema, Value};

use crate::block::TupleBlock;
use crate::op::{ExecContext, Operator};
use crate::predicate::Predicate;
use crate::scan_core::{conjunction, Pending, PredTally, Sink};

/// Block iterator over in-memory rows (the snapshot's WOS tail).
pub struct MemScan {
    ctx: ExecContext,
    rows: Arc<Vec<Vec<Value>>>,
    projection: Vec<usize>,
    predicates: Vec<Predicate>,
    /// Evaluations of one `next()` call, per predicate.
    tallies: Vec<PredTally>,
    /// The rows of one `next()` call's survivors.
    kept: Vec<usize>,
    /// Next source row to visit.
    next: usize,
    /// Position offset: tail rows continue the base table's row ordinals so
    /// lineage positions stay globally unique across the chain.
    base_pos: u64,
    sink: Sink,
}

impl MemScan {
    /// A scan of `rows` (full base-schema tuples) projecting `projection`
    /// under `predicates`. `base_pos` is the first position to assign
    /// (usually the ROS row count).
    pub fn new(
        base_schema: &Arc<Schema>,
        rows: Arc<Vec<Vec<Value>>>,
        projection: Vec<usize>,
        predicates: Vec<Predicate>,
        base_pos: u64,
        ctx: &ExecContext,
    ) -> Result<MemScan> {
        let out_schema = Arc::new(base_schema.project(&projection)?);
        for p in &predicates {
            p.validate(base_schema)?;
        }
        Ok(MemScan {
            sink: Sink::new(out_schema, Pending::Tuples),
            ctx: ctx.clone(),
            rows,
            projection,
            tallies: vec![PredTally::default(); predicates.len()],
            kept: Vec::new(),
            predicates,
            next: 0,
            base_pos,
        })
    }
}

impl Operator for MemScan {
    fn schema(&self) -> &Arc<Schema> {
        self.sink.schema()
    }

    fn next(&mut self) -> Result<Option<TupleBlock>> {
        let cap = self.ctx.sys.block_tuples.max(1);
        let out_schema = self.sink.schema().clone();
        let visited = self.next;
        self.tallies.fill(PredTally::default());
        self.kept.clear();
        while self.sink.remaining() + self.kept.len() < cap && self.next < self.rows.len() {
            let row = &self.rows[self.next];
            // An owned row: decided on the values themselves.
            let holds = |_, pred: &Predicate| Ok(pred.eval_value(&row[pred.col]));
            if conjunction(&self.predicates, &mut self.tallies, holds)? {
                self.kept.push(self.next);
            }
            self.next += 1;
        }
        // The call's survivors, encoded and pushed at once.
        let positions = self.kept.iter().map(|&i| self.base_pos + i as u64);
        self.sink.push_rows(positions, |out| {
            self.kept.iter().try_for_each(|&i| {
                let mut fields = self.projection.iter().zip(out_schema.columns());
                fields.try_for_each(|(&c, col)| self.rows[i][c].encode_into(col.dtype, out))
            })
        })?;
        // Charge the scalar tuple-at-a-time costs the row scanner would pay,
        // minus every I/O-side term: the WOS tail is memory-resident.
        {
            let mut meter = self.ctx.meter.borrow_mut();
            let passes = self.kept.len() as f64;
            meter.row_iter((self.next - visited) as f64);
            if !self.predicates.is_empty() {
                let evals: u64 = self.tallies.iter().map(|t| t.evals).sum();
                meter.predicate(evals as f64, passes);
            }
            meter.project(
                passes,
                self.projection.len() as f64,
                passes * out_schema.logical_width() as f64,
            );
        }
        // `None`: no row is left, or every remaining row failed its predicates.
        self.sink.emit(&self.ctx, cap)
    }

    fn label(&self) -> String {
        format!("memscan[{} rows]", self.rows.len())
    }
}

/// Concatenate two operators with identical output schemas: drain `first`,
/// then `second`.
pub struct Chain {
    first: Box<dyn Operator>,
    second: Box<dyn Operator>,
    on_second: bool,
}

impl Chain {
    pub fn new(first: Box<dyn Operator>, second: Box<dyn Operator>) -> Result<Chain> {
        if first.schema() != second.schema() {
            return Err(rodb_types::Error::InvalidPlan(format!(
                "chain of mismatched schemas ({} vs {} columns)",
                first.schema().len(),
                second.schema().len()
            )));
        }
        Ok(Chain {
            first,
            second,
            on_second: false,
        })
    }
}

impl Operator for Chain {
    fn schema(&self) -> &Arc<Schema> {
        self.first.schema()
    }

    fn next(&mut self) -> Result<Option<TupleBlock>> {
        if !self.on_second {
            if let Some(b) = self.first.next()? {
                return Ok(Some(b));
            }
            self.on_second = true;
        }
        self.second.next()
    }

    fn label(&self) -> String {
        format!("chain[{} + {}]", self.first.label(), self.second.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::collect_rows;
    use crate::predicate::CmpOp;
    use rodb_types::Column;

    fn base_schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![Column::int("k"), Column::int("v")]).unwrap())
    }

    fn rows(n: i32) -> Arc<Vec<Vec<Value>>> {
        Arc::new(
            (0..n)
                .map(|i| vec![Value::Int(i), Value::Int(i * 10)])
                .collect(),
        )
    }

    #[test]
    fn memscan_filters_and_projects() {
        let ctx = ExecContext::default_ctx();
        let s = base_schema();
        let mut scan = MemScan::new(
            &s,
            rows(250),
            vec![1, 0],
            vec![Predicate::lt(0, 5)],
            1000,
            &ctx,
        )
        .unwrap();
        let got = collect_rows(&mut scan).unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(got[3], vec![Value::Int(30), Value::Int(3)]);
        // CPU was charged, and no disk traffic exists to charge.
        assert!(ctx.meter.borrow().counters().uops > 0.0);
        assert_eq!(ctx.disk.borrow().stats().bytes_read, 0.0);
    }

    #[test]
    fn memscan_positions_continue_the_base_ordinals() {
        let ctx = ExecContext::default_ctx();
        let s = base_schema();
        let mut scan = MemScan::new(&s, rows(3), vec![0], vec![], 7, &ctx).unwrap();
        let b = scan.next().unwrap().unwrap();
        assert_eq!(b.positions(), &[7, 8, 9]);
        assert!(scan.next().unwrap().is_none());
    }

    #[test]
    fn memscan_blocks_respect_block_tuples() {
        let ctx = ExecContext::default_ctx();
        let s = base_schema();
        let mut scan = MemScan::new(&s, rows(250), vec![0], vec![], 0, &ctx).unwrap();
        let b = scan.next().unwrap().unwrap();
        assert_eq!(b.count(), ctx.sys.block_tuples);
    }

    #[test]
    fn chain_concatenates_and_rejects_mismatch() {
        let ctx = ExecContext::default_ctx();
        let s = base_schema();
        let a = MemScan::new(&s, rows(3), vec![0], vec![], 0, &ctx).unwrap();
        let b = MemScan::new(&s, rows(2), vec![0], vec![], 3, &ctx).unwrap();
        let mut chain = Chain::new(Box::new(a), Box::new(b)).unwrap();
        let got = collect_rows(&mut chain).unwrap();
        assert_eq!(
            got,
            vec![
                vec![Value::Int(0)],
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(0)],
                vec![Value::Int(1)],
            ]
        );
        let a = MemScan::new(&s, rows(1), vec![0], vec![], 0, &ctx).unwrap();
        let b = MemScan::new(&s, rows(1), vec![0, 1], vec![], 0, &ctx).unwrap();
        assert!(Chain::new(Box::new(a), Box::new(b)).is_err());
    }

    #[test]
    fn memscan_empty_and_all_filtered() {
        let ctx = ExecContext::default_ctx();
        let s = base_schema();
        let mut scan = MemScan::new(&s, rows(0), vec![0], vec![], 0, &ctx).unwrap();
        assert!(scan.next().unwrap().is_none());
        let mut scan = MemScan::new(
            &s,
            rows(50),
            vec![0],
            vec![Predicate::new(0, CmpOp::Lt, Value::Int(-1))],
            0,
            &ctx,
        )
        .unwrap();
        assert!(scan.next().unwrap().is_none());
    }
}
