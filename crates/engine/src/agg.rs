//! Aggregation operators — hash-based and sort-based (§2.2.3).
//!
//! Output schema is `[group column?] ++ [one Long column per aggregate]`.
//! Aggregates compute in 64-bit to survive paper-scale inputs (a SUM over
//! 60 M four-byte ints overflows 32 bits immediately).
//!
//! One state and one grouping rule serve both strategies: an
//! [`Aggregate`] folds its input rows into an [`AggPartial`], and
//! [`merge_partials`] folds whole partials into another, each through the
//! rule in `AggPartial::group`.

use std::collections::HashMap;
use std::sync::Arc;

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
/// (e.g. a scan of a key-ordered table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggStrategy {
    Hash,
    Sorted,
}

#[derive(Debug, Clone, Copy, PartialEq)]
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

/// The aggregation state: grouped accumulators, in output order once the
/// fold is closed. An
/// [`Aggregate`] folds its input rows into one; [`Aggregate::into_partial`]
/// hands it out as plain data (`Send`) so it can cross threads, and
/// [`merge_partials`] folds partials into a fresh one by the same rule.
#[derive(Debug, Clone)]
pub struct AggPartial {
    groups: Vec<(Vec<u8>, Vec<Acc>)>,
    strategy: AggStrategy,
    /// Key → position in `groups` while the state is being folded: the hash
    /// table under `Hash`, every key that has started a run under `Sorted`.
    keys: HashMap<Vec<u8>, usize>,
}

impl AggPartial {
    fn new(strategy: AggStrategy) -> AggPartial {
        AggPartial {
            groups: Vec::new(),
            strategy,
            keys: HashMap::new(),
        }
    }

    /// Number of distinct groups in this partial.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The one grouping rule: the accumulators of the group `key` joins,
    /// opened with `width` fresh ones when the key starts a group. `Hash`
    /// looks the key up; `Sorted` continues the last group's run or opens a
    /// new one, and a key whose run already ended means the input was not
    /// grouped.
    fn group(&mut self, key: &[u8], width: usize) -> Result<&mut [Acc]> {
        let found = match self.strategy {
            AggStrategy::Hash => self.keys.get(key).copied(),
            AggStrategy::Sorted => match self.groups.last() {
                Some((last, _)) if last.as_slice() == key => Some(self.groups.len() - 1),
                _ => None,
            },
        };
        let idx = match found {
            Some(idx) => idx,
            None => {
                let idx = self.groups.len();
                // Only a sorted lookup misses a key the index holds: its run
                // ended before this one.
                if self.keys.insert(key.to_vec(), idx).is_some() {
                    return Err(Error::InvalidPlan(
                        "sorted aggregation over ungrouped input".into(),
                    ));
                }
                self.groups.push((key.to_vec(), vec![Acc::new(); width]));
                idx
            }
        };
        Ok(&mut self.groups[idx].1)
    }

    /// Close the fold: hash groups go into key-byte order (the
    /// deterministic output order); sorted groups keep their run order. The
    /// key index is dropped, since no key joins a closed state.
    fn close(&mut self) {
        if self.strategy == AggStrategy::Hash {
            self.groups.sort_by(|a, b| a.0.cmp(&b.0));
        }
        self.keys = HashMap::new();
    }
}

/// Combine per-worker partials, in morsel order, into one final state equal
/// to what a serial aggregation over the concatenated input would hold:
/// each partial group joins the merged state by the grouping rule that
/// placed each row, so a sorted run split by a morsel boundary is stitched
/// and any other reappearance is the serial path's error.
pub fn merge_partials(partials: Vec<AggPartial>) -> Result<AggPartial> {
    let strategy = partials.first().map_or(AggStrategy::Hash, |p| p.strategy);
    if partials.iter().any(|p| p.strategy != strategy) {
        return Err(Error::InvalidPlan(
            "cannot merge partials of mixed aggregation strategies".into(),
        ));
    }
    let mut out = AggPartial::new(strategy);
    for p in partials {
        for (key, accs) in p.groups {
            for (a, b) in out.group(&key, accs.len())?.iter_mut().zip(&accs) {
                a.merge(b);
            }
        }
    }
    out.close();
    Ok(out)
}

/// The output schema of an aggregation over `input`, validating the group
/// key and every aggregate input.
fn output_schema(input: &Schema, group_by: Option<usize>, specs: &[AggSpec]) -> Result<Schema> {
    if specs.is_empty() {
        return Err(Error::InvalidPlan("aggregate with no functions".into()));
    }
    let mut cols = Vec::new();
    if let Some(g) = group_by {
        if g >= input.len() {
            return Err(Error::UnknownColumn(format!("group key index {g}")));
        }
        cols.push(input.columns()[g].clone());
    }
    for s in specs {
        if s.func != AggFunc::Count {
            if s.col >= input.len() {
                return Err(Error::UnknownColumn(format!("aggregate input {}", s.col)));
            }
            if !input.dtype(s.col).is_numeric() {
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
            format!("{}_{}", s.func.name(), input.columns()[s.col].name)
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
    Schema::new(cols)
}

fn numeric(block: &TupleBlock, i: usize, col: usize) -> Result<i64> {
    match block.schema().dtype(col) {
        DataType::Int => Ok(block.int(i, col) as i64),
        DataType::Long => block.value(i, col)?.as_num(),
        DataType::Text(_) => Err(Error::InvalidPlan("aggregate over text column".into())),
    }
}

/// Grouped (or scalar) aggregation over one child.
pub struct Aggregate {
    /// The input, until it has been folded into `state`.
    child: Option<Box<dyn Operator>>,
    ctx: ExecContext,
    group_by: Option<usize>,
    specs: Vec<AggSpec>,
    out_schema: Arc<Schema>,
    state: AggPartial,
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
        let out_schema = Arc::new(output_schema(child.schema(), group_by, &specs)?);
        Ok(Aggregate {
            child: Some(child),
            ctx: ctx.clone(),
            group_by,
            specs,
            out_schema,
            state: AggPartial::new(strategy),
            emit_idx: 0,
        })
    }

    /// An aggregation over rows of `input` whose groups are already folded
    /// into `merged`: it emits them and reads no input. Charges the
    /// final-merge CPU (one key compare and one accumulator fold per group
    /// per function) to `ctx`.
    pub(crate) fn emitting(
        input: &Schema,
        group_by: Option<usize>,
        specs: Vec<AggSpec>,
        merged: AggPartial,
        ctx: &ExecContext,
    ) -> Result<Aggregate> {
        let out_schema = Arc::new(output_schema(input, group_by, &specs)?);
        let n = merged.groups.len() as f64;
        {
            let mut meter = ctx.meter.borrow_mut();
            meter.key_compare(n);
            meter.agg_update(n * specs.len() as f64);
        }
        Ok(Aggregate {
            child: None,
            ctx: ctx.clone(),
            group_by,
            specs,
            out_schema,
            state: merged,
            emit_idx: 0,
        })
    }

    /// Fold every row of `child` into the state, one [`AggPartial::group`]
    /// call per row, charging the strategy's per-block CPU.
    fn materialize(&mut self, mut child: Box<dyn Operator>) -> Result<()> {
        let key_width = self
            .group_by
            .map(|g| child.schema().dtype(g).width())
            .unwrap_or(0);
        let width = self.specs.len();
        let mut total_rows = 0f64;
        while let Some(block) = child.next()? {
            for i in 0..block.count() {
                let key: &[u8] = match self.group_by {
                    Some(g) => block.field(i, g),
                    None => &[],
                };
                let accs = self.state.group(key, width)?;
                for (acc, s) in accs.iter_mut().zip(&self.specs) {
                    let v = if s.func == AggFunc::Count {
                        0
                    } else {
                        numeric(&block, i, s.col)?
                    };
                    acc.update(v);
                }
            }
            // Charge per block to keep borrow scopes tight.
            let n = block.count() as f64;
            total_rows += n;
            let mut meter = self.ctx.meter.borrow_mut();
            match self.state.strategy {
                AggStrategy::Hash => {
                    let entry_bytes = (key_width + 32 * width) as f64;
                    let table_bytes = self.state.groups.len() as f64 * entry_bytes;
                    meter.hash_probe(n, table_bytes, 1.0e6);
                }
                AggStrategy::Sorted => meter.key_compare(n),
            }
            meter.agg_update(n * width as f64);
        }
        self.state.close();
        self.ctx.meter.borrow_mut().add_uops(total_rows.max(1.0));
        Ok(())
    }

    /// Run the child to completion and hand back this worker's grouped
    /// accumulators instead of emitting final rows — the worker half of a
    /// parallel partial aggregation. All scan/aggregation CPU and I/O has
    /// been charged to this operator's context when this returns.
    pub fn into_partial(mut self) -> Result<AggPartial> {
        if let Some(child) = self.child.take() {
            self.materialize(child)?;
        }
        Ok(self.state)
    }
}

impl Operator for Aggregate {
    fn schema(&self) -> &Arc<Schema> {
        &self.out_schema
    }

    fn label(&self) -> String {
        match self.state.strategy {
            AggStrategy::Hash => "aggregate[hash]".to_string(),
            AggStrategy::Sorted => "aggregate[sort]".to_string(),
        }
    }

    fn next(&mut self) -> Result<Option<TupleBlock>> {
        if let Some(child) = self.child.take() {
            self.materialize(child)?;
        }
        let groups = &self.state.groups;
        if self.emit_idx >= groups.len() {
            return Ok(None);
        }
        let cap = self.ctx.sys.block_tuples;
        let mut block = TupleBlock::new(self.out_schema.clone(), cap);
        let mut raw = Vec::new();
        while self.emit_idx < groups.len() && block.count() < cap {
            let (key, accs) = &groups[self.emit_idx];
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
    use crate::memscan::MemScan;
    use crate::op::collect_rows;
    use crate::scan_row::RowScanner;
    use rodb_storage::{BuildLayouts, TableBuilder};
    use rodb_types::{SplitMix64, Value};

    fn scan(n: usize, ctx: &ExecContext) -> Box<dyn Operator> {
        scan_in(0..n, ctx)
    }

    /// Row `i` is `(i % 5, i, "x")`; `order` says which rows, in which
    /// order, the table is loaded with.
    fn scan_in(order: impl Iterator<Item = usize>, ctx: &ExecContext) -> Box<dyn Operator> {
        let s = Arc::new(
            Schema::new(vec![
                Column::int("grp"),
                Column::int("val"),
                Column::text("tag", 4),
            ])
            .unwrap(),
        );
        let mut b = TableBuilder::new("t", s, 4096, BuildLayouts::row_only()).unwrap();
        for i in order {
            b.push_row(&[
                Value::Int((i % 5) as i32),
                Value::Int(i as i32),
                Value::text("x"),
            ])
            .unwrap();
        }
        let t = Arc::new(b.finish().unwrap());
        Box::new(RowScanner::new(t, vec![0, 1, 2], vec![], ctx, None).unwrap())
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
        // The same rows, loaded in key order.
        let key_ordered = scan_in((0..5).flat_map(|g| (g..1000).step_by(5)), &ctx2);
        let mut sorted = Aggregate::new(
            key_ordered,
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
            keys: HashMap::new(),
        };
        // A run spanning a morsel boundary (key 2) is merged, not rejected.
        let merged = merge_partials(vec![partial(&[1, 2]), partial(&[2, 3])]).unwrap();
        assert_eq!(merged.group_count(), 3);
        assert_eq!(merged.groups[1].1[0].count, 2);
        // Any other reappearance means the input was not grouped.
        let err = merge_partials(vec![partial(&[1, 2]), partial(&[3, 1])]).unwrap_err();
        assert!(matches!(err, Error::InvalidPlan(m) if m.contains("ungrouped input")));
    }

    /// Rows and partials join groups by one rule. Over pseudo-random key
    /// sequences (runs, keys that reappear, the empty scalar key), one fold
    /// of every row equals slices cut at random points, some inside runs,
    /// folded apart and merged: same groups and accumulators, or the same
    /// error.
    #[test]
    fn merged_slices_equal_one_fold_of_random_key_sequences() {
        let schema = Arc::new(Schema::new(vec![Column::int("k"), Column::int("v")]).unwrap());
        let specs = vec![
            AggSpec::count(),
            AggSpec::sum(1),
            AggSpec::min(1),
            AggSpec::max(1),
            AggSpec::avg(1),
        ];
        let mut rng = SplitMix64::new(0xa66);
        // Sorted cases that folded, that failed, and cuts inside a run.
        let (mut folded, mut failed, mut stitched) = (0, 0, 0);
        for case in 0..300 {
            let n = rng.below(80) as usize;
            let mut rows: Vec<Vec<Value>> = Vec::new();
            while rows.len() < n {
                let (k, run) = (rng.below(6) as i32, 1 + rng.below(6));
                for _ in 0..run {
                    rows.push(vec![Value::Int(k), Value::Int(rng.range_i32(-500, 500))]);
                }
            }
            rows.truncate(n);
            if rng.bool() {
                rows.sort_by_key(|r| r[0].clone());
            }
            let group_by = (case % 4 != 0).then_some(0);
            let mut cuts: Vec<usize> = (0..rng.below(5))
                .map(|_| rng.below(n as u64 + 1) as usize)
                .collect();
            cuts.extend([0, n]);
            cuts.sort_unstable();
            for strategy in [AggStrategy::Hash, AggStrategy::Sorted] {
                let fold = |rows: &[Vec<Value>]| -> Result<AggPartial> {
                    let ctx = ExecContext::default_ctx();
                    let rows = Arc::new(rows.to_vec());
                    let scan = MemScan::new(&schema, rows, vec![0, 1], vec![], 0, &ctx)?;
                    let agg =
                        Aggregate::new(Box::new(scan), group_by, specs.clone(), strategy, &ctx);
                    agg?.into_partial()
                };
                let serial = fold(&rows);
                let merged = cuts
                    .windows(2)
                    .map(|w| fold(&rows[w[0]..w[1]]))
                    .collect::<Result<Vec<_>>>()
                    .and_then(merge_partials);
                let what = format!("case {case} {strategy:?} group_by {group_by:?} cuts {cuts:?}");
                match (serial, merged) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.groups, b.groups, "{what}");
                        if strategy == AggStrategy::Sorted {
                            folded += 1;
                            let inside =
                                |&&c: &&usize| c > 0 && c < n && rows[c - 1][0] == rows[c][0];
                            stitched += cuts.iter().filter(inside).count();
                        }
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(a.to_string(), b.to_string(), "{what}");
                        assert!(a.to_string().contains("ungrouped input"), "{what}: {a}");
                        failed += 1;
                    }
                    (a, b) => panic!("{what}: serial {:?}, merged {:?}", a.err(), b.err()),
                }
            }
        }
        assert!(
            folded > 0 && failed > 0 && stitched > 0,
            "{folded} {failed} {stitched}"
        );
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
            None,
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
