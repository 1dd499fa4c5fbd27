//! Aggregation operators — hash-based and sort-based (§2.2.3).
//!
//! Output schema is `[group column?] ++ [one Long column per aggregate]`.
//! Aggregates compute in 64-bit to survive paper-scale inputs (a SUM over
//! 60 M four-byte ints overflows 32 bits immediately).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

#[cfg(test)]
use rodb_types::Value;
use rodb_types::{Column, DataType, Error, Result, Schema};

use crate::block::TupleBlock;
use crate::op::{ExecContext, Operator};

/// Aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// One aggregate: a function over a child column (ignored for COUNT).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggSpec {
    pub func: AggFunc,
    pub col: usize,
}

impl AggSpec {
    pub fn count() -> AggSpec {
        AggSpec {
            func: AggFunc::Count,
            col: 0,
        }
    }
    pub fn sum(col: usize) -> AggSpec {
        AggSpec {
            func: AggFunc::Sum,
            col,
        }
    }
    pub fn min(col: usize) -> AggSpec {
        AggSpec {
            func: AggFunc::Min,
            col,
        }
    }
    pub fn max(col: usize) -> AggSpec {
        AggSpec {
            func: AggFunc::Max,
            col,
        }
    }
    pub fn avg(col: usize) -> AggSpec {
        AggSpec {
            func: AggFunc::Avg,
            col,
        }
    }
}

/// Grouping algorithm. `Sorted` requires input already grouped on the key
/// (e.g. below a [`crate::sort::Sort`], or a scan of a key-ordered table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggStrategy {
    Hash,
    Sorted,
}

#[derive(Debug, Clone, Copy)]
struct Acc {
    count: i64,
    sum: i64,
    min: i64,
    max: i64,
}

impl Acc {
    fn new() -> Acc {
        Acc {
            count: 0,
            sum: 0,
            min: i64::MAX,
            max: i64::MIN,
        }
    }
    fn update(&mut self, v: i64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
    /// Fold another worker's accumulator for the same group into this one.
    /// Exact for every [`AggFunc`]: AVG is derived from merged sum/count.
    fn merge(&mut self, other: &Acc) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
    fn result(&self, f: AggFunc) -> i64 {
        match f {
            AggFunc::Count => self.count,
            AggFunc::Sum => self.sum,
            AggFunc::Min => self.min,
            AggFunc::Max => self.max,
            AggFunc::Avg => {
                if self.count == 0 {
                    0
                } else {
                    self.sum / self.count
                }
            }
        }
    }
}

/// One worker's partial aggregation state: the grouped accumulators it
/// built over its morsels, detached from the operator so it can cross
/// threads (plain data — `Send`). Produced by [`Aggregate::into_partial`],
/// combined by [`merge_partials`], re-attached by
/// [`Aggregate::install_partial`].
#[derive(Debug, Clone)]
pub struct AggPartial {
    groups: Vec<(Vec<u8>, Vec<Acc>)>,
    strategy: AggStrategy,
}

impl AggPartial {
    /// Number of distinct groups in this partial.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }
}

/// Combine per-worker partials into one final state equal to what a serial
/// aggregation over the concatenated input would hold.
///
/// * `Hash`: groups are unioned, same-key accumulators merged, and the
///   result sorted by key bytes — the serial hash path's output order.
/// * `Sorted`: partials must arrive in morsel order; runs that span a
///   morsel boundary (last group of one partial = first group of the next)
///   are merged, and any other key reappearance is rejected exactly like
///   the serial path rejects ungrouped input.
pub fn merge_partials(partials: Vec<AggPartial>) -> Result<AggPartial> {
    let strategy = match partials.first() {
        Some(p) => p.strategy,
        None => {
            return Ok(AggPartial {
                groups: Vec::new(),
                strategy: AggStrategy::Hash,
            })
        }
    };
    if partials.iter().any(|p| p.strategy != strategy) {
        return Err(Error::InvalidPlan(
            "cannot merge partials of mixed aggregation strategies".into(),
        ));
    }
    let mut out: Vec<(Vec<u8>, Vec<Acc>)> = Vec::new();
    match strategy {
        AggStrategy::Hash => {
            let mut table: HashMap<Vec<u8>, usize> = HashMap::new();
            for p in partials {
                for (key, accs) in p.groups {
                    match table.get(&key) {
                        Some(&idx) => {
                            for (a, b) in out[idx].1.iter_mut().zip(&accs) {
                                a.merge(b);
                            }
                        }
                        None => {
                            table.insert(key.clone(), out.len());
                            out.push((key, accs));
                        }
                    }
                }
            }
            out.sort_by(|a, b| a.0.cmp(&b.0));
        }
        AggStrategy::Sorted => {
            let mut seen: HashSet<Vec<u8>> = HashSet::new();
            for p in partials {
                for (key, accs) in p.groups {
                    match out.last_mut() {
                        Some((k, a)) if *k == key => {
                            for (x, y) in a.iter_mut().zip(&accs) {
                                x.merge(y);
                            }
                        }
                        _ => {
                            if !seen.insert(key.clone()) {
                                return Err(ungrouped_input());
                            }
                            out.push((key, accs));
                        }
                    }
                }
            }
        }
    }
    Ok(AggPartial {
        groups: out,
        strategy,
    })
}

/// Sorted aggregation requires grouped input: a key may never start a
/// second run after its first one ended.
fn ungrouped_input() -> Error {
    Error::InvalidPlan("sorted aggregation over ungrouped input".into())
}

/// Grouped (or scalar) aggregation over one child.
pub struct Aggregate {
    child: Box<dyn Operator>,
    ctx: ExecContext,
    group_by: Option<usize>,
    specs: Vec<AggSpec>,
    strategy: AggStrategy,
    out_schema: Arc<Schema>,
    /// (group key raw bytes, accumulators) in output order.
    results: Option<Vec<(Vec<u8>, Vec<Acc>)>>,
    emit_idx: usize,
}

impl Aggregate {
    pub fn new(
        child: Box<dyn Operator>,
        group_by: Option<usize>,
        specs: Vec<AggSpec>,
        strategy: AggStrategy,
        ctx: &ExecContext,
    ) -> Result<Aggregate> {
        if specs.is_empty() {
            return Err(Error::InvalidPlan("aggregate with no functions".into()));
        }
        let in_schema = child.schema();
        if let Some(g) = group_by {
            if g >= in_schema.len() {
                return Err(Error::UnknownColumn(format!("group key index {g}")));
            }
        }
        let mut cols = Vec::new();
        if let Some(g) = group_by {
            cols.push(in_schema.columns()[g].clone());
        }
        for s in &specs {
            if s.func != AggFunc::Count {
                if s.col >= in_schema.len() {
                    return Err(Error::UnknownColumn(format!("aggregate input {}", s.col)));
                }
                if !in_schema.dtype(s.col).is_numeric() {
                    return Err(Error::InvalidPlan(format!(
                        "{} over non-numeric column {}",
                        s.func.name(),
                        s.col
                    )));
                }
            }
            let base = if s.func == AggFunc::Count {
                "count".to_string()
            } else {
                format!("{}_{}", s.func.name(), in_schema.columns()[s.col].name)
            };
            // De-duplicate output names.
            let mut name = base.clone();
            let mut k = 1;
            while cols.iter().any(|c: &Column| c.name == name) {
                k += 1;
                name = format!("{base}{k}");
            }
            cols.push(Column::new(name, DataType::Long));
        }
        Ok(Aggregate {
            child,
            ctx: ctx.clone(),
            group_by,
            specs,
            strategy,
            out_schema: Arc::new(Schema::new(cols)?),
            results: None,
            emit_idx: 0,
        })
    }

    fn numeric(&self, block: &TupleBlock, i: usize, col: usize) -> Result<i64> {
        match block.schema().dtype(col) {
            DataType::Int => Ok(block.int(i, col) as i64),
            DataType::Long => block.value(i, col)?.as_num(),
            DataType::Text(_) => Err(Error::InvalidPlan("aggregate over text column".into())),
        }
    }

    fn materialize(&mut self) -> Result<()> {
        let key_width = self
            .group_by
            .map(|g| self.child.schema().dtype(g).width())
            .unwrap_or(0);
        let mut total_rows = 0f64;
        let mut results: Vec<(Vec<u8>, Vec<Acc>)> = Vec::new();
        match self.strategy {
            AggStrategy::Hash => {
                let mut table: HashMap<Vec<u8>, usize> = HashMap::new();
                while let Some(block) = self.child.next()? {
                    total_rows += block.count() as f64;
                    for i in 0..block.count() {
                        let key: &[u8] = match self.group_by {
                            Some(g) => block.field(i, g),
                            None => &[],
                        };
                        let idx = match table.get(key) {
                            Some(&idx) => idx,
                            None => {
                                results.push((key.to_vec(), vec![Acc::new(); self.specs.len()]));
                                table.insert(key.to_vec(), results.len() - 1);
                                results.len() - 1
                            }
                        };
                        for (si, s) in self.specs.iter().enumerate() {
                            let v = if s.func == AggFunc::Count {
                                0
                            } else {
                                self.numeric(&block, i, s.col)?
                            };
                            results[idx].1[si].update(v);
                        }
                    }
                    // Charge per block to keep borrow scopes tight.
                    let mut meter = self.ctx.meter.borrow_mut();
                    let n = block.count() as f64;
                    let entry_bytes = (key_width + 32 * self.specs.len()) as f64;
                    meter.hash_probe(n, results.len() as f64 * entry_bytes, 1.0e6);
                    meter.agg_update(n * self.specs.len() as f64);
                }
                // Deterministic output order.
                results.sort_by(|a, b| a.0.cmp(&b.0));
            }
            AggStrategy::Sorted => {
                let mut current: Option<(Vec<u8>, Vec<Acc>)> = None;
                // Every key that has started a run.
                let mut seen: HashSet<Vec<u8>> = HashSet::new();
                while let Some(block) = self.child.next()? {
                    total_rows += block.count() as f64;
                    for i in 0..block.count() {
                        let key: &[u8] = match self.group_by {
                            Some(g) => block.field(i, g),
                            None => &[],
                        };
                        let start_new = match &current {
                            Some((k, _)) => k.as_slice() != key,
                            None => true,
                        };
                        if start_new {
                            if !seen.insert(key.to_vec()) {
                                return Err(ungrouped_input());
                            }
                            results.extend(current.take());
                            current = Some((key.to_vec(), vec![Acc::new(); self.specs.len()]));
                        }
                        let accs = &mut current.as_mut().expect("set above").1;
                        for (si, s) in self.specs.iter().enumerate() {
                            let v = if s.func == AggFunc::Count {
                                0
                            } else {
                                self.numeric(&block, i, s.col)?
                            };
                            accs[si].update(v);
                        }
                    }
                    let mut meter = self.ctx.meter.borrow_mut();
                    let n = block.count() as f64;
                    meter.key_compare(n);
                    meter.agg_update(n * self.specs.len() as f64);
                }
                if let Some(done) = current.take() {
                    results.push(done);
                }
            }
        }
        self.ctx.meter.borrow_mut().add_uops(total_rows.max(1.0));
        self.results = Some(results);
        Ok(())
    }

    /// Run the child to completion and hand back this worker's grouped
    /// accumulators instead of emitting final rows — the worker half of a
    /// parallel partial aggregation. All scan/aggregation CPU and I/O has
    /// been charged to this operator's context when this returns.
    pub fn into_partial(mut self) -> Result<AggPartial> {
        if self.results.is_none() {
            self.materialize()?;
        }
        Ok(AggPartial {
            groups: self.results.take().expect("materialized"),
            strategy: self.strategy,
        })
    }

    /// Install a merged partial as this operator's final state; subsequent
    /// [`Operator::next`] calls emit it without pulling the child. Charges
    /// the final-merge CPU (one accumulator fold per group per function) to
    /// this operator's context.
    pub fn install_partial(&mut self, p: AggPartial) {
        let n = p.groups.len() as f64;
        {
            let mut meter = self.ctx.meter.borrow_mut();
            meter.key_compare(n);
            meter.agg_update(n * self.specs.len() as f64);
        }
        self.results = Some(p.groups);
        self.emit_idx = 0;
    }
}

impl Operator for Aggregate {
    fn schema(&self) -> &Arc<Schema> {
        &self.out_schema
    }

    fn label(&self) -> String {
        match self.strategy {
            AggStrategy::Hash => "aggregate[hash]".to_string(),
            AggStrategy::Sorted => "aggregate[sort]".to_string(),
        }
    }

    fn next(&mut self) -> Result<Option<TupleBlock>> {
        if self.results.is_none() {
            self.materialize()?;
        }
        let results = self.results.as_ref().expect("materialized");
        if self.emit_idx >= results.len() {
            return Ok(None);
        }
        let cap = self.ctx.sys.block_tuples;
        let mut block = TupleBlock::new(self.out_schema.clone(), cap);
        let mut raw = Vec::new();
        while self.emit_idx < results.len() && block.count() < cap {
            let (key, accs) = &results[self.emit_idx];
            raw.clear();
            raw.extend_from_slice(key);
            for (s, acc) in self.specs.iter().zip(accs) {
                raw.extend_from_slice(&acc.result(s.func).to_le_bytes());
            }
            block.push_tuple(&raw, self.emit_idx as u64)?;
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
    use crate::scan_row::RowScanner;
    use crate::sort::Sort;
    use rodb_storage::{BuildLayouts, TableBuilder};

    fn scan(n: usize, ctx: &ExecContext) -> Box<dyn Operator> {
        let s = Arc::new(
            Schema::new(vec![
                Column::int("grp"),
                Column::int("val"),
                Column::text("tag", 4),
            ])
            .unwrap(),
        );
        let mut b = TableBuilder::new("t", s, 4096, BuildLayouts::row_only()).unwrap();
        for i in 0..n {
            b.push_row(&[
                Value::Int((i % 5) as i32),
                Value::Int(i as i32),
                Value::text("x"),
            ])
            .unwrap();
        }
        let t = Arc::new(b.finish().unwrap());
        Box::new(RowScanner::new(t, vec![0, 1, 2], vec![], ctx).unwrap())
    }

    #[test]
    fn scalar_aggregates() {
        let ctx = ExecContext::default_ctx();
        let mut agg = Aggregate::new(
            scan(1000, &ctx),
            None,
            vec![
                AggSpec::count(),
                AggSpec::sum(1),
                AggSpec::min(1),
                AggSpec::max(1),
                AggSpec::avg(1),
            ],
            AggStrategy::Hash,
            &ctx,
        )
        .unwrap();
        let rows = collect_rows(&mut agg).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Long(1000));
        assert_eq!(rows[0][1], Value::Long((0..1000).sum::<i64>()));
        assert_eq!(rows[0][2], Value::Long(0));
        assert_eq!(rows[0][3], Value::Long(999));
        assert_eq!(rows[0][4], Value::Long((0..1000).sum::<i64>() / 1000));
    }

    #[test]
    fn hash_group_by_matches_sorted_group_by() {
        let ctx = ExecContext::default_ctx();
        let mut hash = Aggregate::new(
            scan(1000, &ctx),
            Some(0),
            vec![AggSpec::count(), AggSpec::sum(1)],
            AggStrategy::Hash,
            &ctx,
        )
        .unwrap();
        let hash_rows = collect_rows(&mut hash).unwrap();

        let ctx2 = ExecContext::default_ctx();
        let sorted_in = Sort::new(scan(1000, &ctx2), vec![0], &ctx2).unwrap();
        let mut sorted = Aggregate::new(
            Box::new(sorted_in),
            Some(0),
            vec![AggSpec::count(), AggSpec::sum(1)],
            AggStrategy::Sorted,
            &ctx2,
        )
        .unwrap();
        let sorted_rows = collect_rows(&mut sorted).unwrap();
        assert_eq!(hash_rows, sorted_rows);
        assert_eq!(hash_rows.len(), 5);
        for r in &hash_rows {
            assert_eq!(r[1], Value::Long(200)); // each group has 200 rows
        }
    }

    #[test]
    fn sorted_strategy_detects_ungrouped_input() {
        let ctx = ExecContext::default_ctx();
        // grp cycles 0..5 repeatedly — not grouped.
        let mut agg = Aggregate::new(
            scan(100, &ctx),
            Some(0),
            vec![AggSpec::count()],
            AggStrategy::Sorted,
            &ctx,
        )
        .unwrap();
        assert!(agg.next().is_err());
    }

    #[test]
    fn sorted_merge_joins_boundary_runs_and_rejects_reappearing_keys() {
        let partial = |keys: &[i32]| AggPartial {
            groups: keys
                .iter()
                .map(|k| {
                    let mut acc = Acc::new();
                    acc.update(*k as i64);
                    (k.to_le_bytes().to_vec(), vec![acc])
                })
                .collect(),
            strategy: AggStrategy::Sorted,
        };
        // A run spanning a morsel boundary (key 2) is merged, not rejected.
        let merged = merge_partials(vec![partial(&[1, 2]), partial(&[2, 3])]).unwrap();
        assert_eq!(merged.group_count(), 3);
        assert_eq!(merged.groups[1].1[0].count, 2);
        // Any other reappearance means the input was not grouped.
        let err = merge_partials(vec![partial(&[1, 2]), partial(&[3, 1])]).unwrap_err();
        assert!(matches!(err, Error::InvalidPlan(m) if m.contains("ungrouped input")));
    }

    #[test]
    fn output_schema_names_and_types() {
        let ctx = ExecContext::default_ctx();
        let agg = Aggregate::new(
            scan(10, &ctx),
            Some(0),
            vec![AggSpec::count(), AggSpec::sum(1), AggSpec::sum(1)],
            AggStrategy::Hash,
            &ctx,
        )
        .unwrap();
        let s = agg.schema();
        assert_eq!(s.columns()[0].name, "grp");
        assert_eq!(s.columns()[1].name, "count");
        assert_eq!(s.columns()[2].name, "sum_val");
        assert_eq!(s.columns()[3].name, "sum_val2");
        assert_eq!(s.dtype(1), DataType::Long);
    }

    #[test]
    fn validations() {
        let ctx = ExecContext::default_ctx();
        assert!(Aggregate::new(scan(10, &ctx), None, vec![], AggStrategy::Hash, &ctx).is_err());
        assert!(Aggregate::new(
            scan(10, &ctx),
            Some(9),
            vec![AggSpec::count()],
            AggStrategy::Hash,
            &ctx
        )
        .is_err());
        // SUM over text column rejected.
        assert!(Aggregate::new(
            scan(10, &ctx),
            None,
            vec![AggSpec::sum(2)],
            AggStrategy::Hash,
            &ctx
        )
        .is_err());
    }

    #[test]
    fn empty_input_scalar_yields_zero_count() {
        let ctx = ExecContext::default_ctx();
        let s = Arc::new(Schema::new(vec![Column::int("a")]).unwrap());
        let mut b = TableBuilder::new("e", s, 4096, BuildLayouts::row_only()).unwrap();
        b.push_row(&[Value::Int(1)]).unwrap();
        let t = Arc::new(b.finish().unwrap());
        let scan = RowScanner::new(
            t,
            vec![0],
            vec![crate::predicate::Predicate::lt(0, 0)],
            &ctx,
        )
        .unwrap();
        let mut agg = Aggregate::new(
            Box::new(scan),
            None,
            vec![AggSpec::count()],
            AggStrategy::Hash,
            &ctx,
        )
        .unwrap();
        // No input rows → no groups at all (SQL would return one row; the
        // paper's engine has no NULL story, so we emit none).
        assert!(agg.next().unwrap().is_none());
    }
}
