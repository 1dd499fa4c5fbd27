//! Aggregation operators — hash-based and sort-based (§2.2.3).
//!
//! Output schema is `[group column?] ++ [one Long column per aggregate]`.
//! Aggregates compute in 64-bit to survive paper-scale inputs (a SUM over
//! 60 M four-byte ints overflows 32 bits immediately).
//!
//! One state and one grouping rule serve both strategies: an
//! [`Aggregate`] folds input blocks, [`merge_partials`] whole partials, into
//! an [`AggPartial`] through the rule in `AggPartial::group`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use rodb_types::{tuple, Column, DataType, Error, Result, Schema};

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

/// Where an aggregate reads its input in a child tuple: COUNT reads none.
#[derive(Debug, Clone, Copy)]
enum Input {
    Count,
    Int(usize),
    Long(usize),
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
    /// Fold `n` rows with inputs `values` (none for COUNT) under `f`.
    #[inline]
    fn fold(&mut self, f: AggFunc, n: usize, values: &[i64]) {
        match f {
            AggFunc::Count => self.count += n as i64,
            AggFunc::Sum | AggFunc::Avg => {
                self.count += n as i64;
                self.sum += values.iter().sum::<i64>();
            }
            AggFunc::Min => self.min = values.iter().fold(self.min, |m, &v| m.min(v)),
            AggFunc::Max => self.max = values.iter().fold(self.max, |m, &v| m.max(v)),
        }
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

/// The hash strategy's memo of recently placed keys has `1 << MEMO_BITS`
/// slots.
const MEMO_BITS: u32 = 8;

/// Up to eight key bytes as one word for the memo slot: two overlapping
/// loads cover four to eight bytes, and bytes 0, n/2 and n-1 cover one to
/// three.
fn word(c: &[u8]) -> u64 {
    if let Some(w) = c.first_chunk::<8>() {
        return u64::from_le_bytes(*w);
    }
    match (c.first_chunk::<4>(), c.last_chunk::<4>()) {
        (Some(lo), Some(hi)) => {
            u64::from(u32::from_le_bytes(*lo)) | u64::from(u32::from_le_bytes(*hi)) << 32
        }
        _ => match (c.first(), c.get(c.len() / 2), c.last()) {
            (Some(&a), Some(&b), Some(&z)) => u64::from(a) | u64::from(b) << 8 | u64::from(z) << 16,
            _ => 0,
        },
    }
}

/// Whether two keys are equal. Empty keys never reach `memcmp`: on their
/// dangling pointers the call measured over 30 times a short compare.
fn same_key(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && (a.is_empty() || a == b)
}

/// A key's memo slot: a multiplicative fold of its words. Only a hint — a
/// slot's group counts after its key compares equal.
fn memo_slot(key: &[u8]) -> usize {
    let h = key.chunks(8).fold(0u64, |h, c| {
        (h ^ word(c)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    });
    (h >> (64 - MEMO_BITS)) as usize
}

/// A key as the key map holds it. Every key of a partial has one width, so
/// zero padding keeps keys of up to 16 bytes distinct, and those sit inline:
/// looking one up or placing it allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
enum MapKey {
    Inline([u8; 16]),
    Heap(Box<[u8]>),
}

/// Only the key bytes go to the map's keyed hasher.
impl Hash for MapKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            MapKey::Inline(b) => state.write(b),
            MapKey::Heap(b) => state.write(b),
        }
    }
}

impl MapKey {
    fn new(key: &[u8]) -> MapKey {
        let mut inline = [0u8; 16];
        match inline.get_mut(..key.len()) {
            Some(head) => {
                head.copy_from_slice(key);
                MapKey::Inline(inline)
            }
            None => MapKey::Heap(key.into()),
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
    strategy: AggStrategy,
    /// Number of groups.
    groups: usize,
    /// Every group's key, `key_width` bytes each, in group order.
    key_bytes: Vec<u8>,
    key_width: usize,
    /// `width` accumulators per group (one per aggregate), in group order.
    accs: Vec<Acc>,
    width: usize,
    /// The group the last placed key joined.
    last: Option<u32>,
    /// Key → group while the state is being folded: the hash table under
    /// `Hash`, every key that has started a run under `Sorted`.
    keys: HashMap<MapKey, u32>,
    /// Under `Hash`, memo slot → group last placed there, in front of `keys`.
    memo: Vec<u32>,
}

impl AggPartial {
    fn new(strategy: AggStrategy, key_width: usize, width: usize) -> AggPartial {
        let memo = match strategy {
            AggStrategy::Hash => vec![u32::MAX; 1 << MEMO_BITS],
            AggStrategy::Sorted => Vec::new(),
        };
        AggPartial {
            strategy,
            groups: 0,
            key_bytes: Vec::new(),
            key_width,
            accs: Vec::new(),
            width,
            last: None,
            keys: HashMap::new(),
            memo,
        }
    }

    /// Number of distinct groups in this partial.
    pub fn group_count(&self) -> usize {
        self.groups
    }

    fn key(&self, g: usize) -> &[u8] {
        &self.key_bytes[g * self.key_width..(g + 1) * self.key_width]
    }

    fn accs(&self, g: usize) -> &[Acc] {
        &self.accs[g * self.width..(g + 1) * self.width]
    }

    /// Whether group `g` exists and holds `key`.
    #[inline]
    fn holds(&self, g: u32, key: &[u8]) -> bool {
        (g as usize) < self.groups && same_key(self.key(g as usize), key)
    }

    /// The one grouping rule: the group `key` joins, opened with fresh
    /// accumulators when the key starts a group. A key equal to the last
    /// placed one joins its group under either strategy. Otherwise `Hash`
    /// tries the memo, then the key map; `Sorted` opens a new run, and a key
    /// whose run already ended means the input was not grouped.
    #[inline]
    fn group(&mut self, key: &[u8]) -> Result<u32> {
        if let Some(g) = self.last.filter(|&g| self.holds(g, key)) {
            return Ok(g);
        }
        let slot = memo_slot(key);
        let g = match self.memo.get(slot) {
            Some(&g) if self.holds(g, key) => g,
            _ => {
                let next = u32::try_from(self.groups)
                    .map_err(|_| Error::InvalidPlan("more groups than u32 indices".into()))?;
                // Grow four-fold, not two-fold: a resize re-hashes every key.
                if self.keys.len() == self.keys.capacity() {
                    self.keys.reserve(3 * self.keys.len());
                }
                match self.keys.entry(MapKey::new(key)) {
                    Entry::Occupied(e) if self.strategy == AggStrategy::Hash => *e.get(),
                    // Only a sorted run finds its key placed: an earlier run
                    // of it ended.
                    Entry::Occupied(_) => {
                        return Err(Error::InvalidPlan(
                            "sorted aggregation over ungrouped input".into(),
                        ))
                    }
                    Entry::Vacant(e) => {
                        e.insert(next);
                        self.key_bytes.extend_from_slice(key);
                        self.accs.resize(self.accs.len() + self.width, Acc::new());
                        self.groups += 1;
                        next
                    }
                }
            }
        };
        if let Some(m) = self.memo.get_mut(slot) {
            *m = g;
        }
        self.last = Some(g);
        Ok(g)
    }

    /// Fold aggregate `j` of one block: row `i` joins group `groups[i]` with
    /// input `values[i]` (none for COUNT). A block in one group (a long
    /// sorted run, the scalar aggregate) folds as one slice, not as a chain
    /// of updates to one accumulator.
    fn fold(&mut self, j: usize, func: AggFunc, groups: &[u32], values: &[i64]) {
        let (w, accs) = (self.width, &mut self.accs);
        let at = |g: u32| g as usize * w + j;
        if let Some(&g) = groups.first().filter(|&&g| groups.iter().all(|&h| h == g)) {
            return accs[at(g)].fold(func, groups.len(), values);
        }
        for (i, &g) in groups.iter().enumerate() {
            accs[at(g)].fold(func, 1, values.get(i..=i).unwrap_or_default());
        }
    }

    /// Close the fold: hash groups go into key-byte order (the
    /// deterministic output order); sorted groups keep their run order. The
    /// key index and memo are dropped, since no key joins a closed state.
    fn close(&mut self) {
        if self.strategy == AggStrategy::Hash {
            let mut order: Vec<usize> = (0..self.groups).collect();
            order.sort_unstable_by(|&a, &b| self.key(a).cmp(self.key(b)));
            let mut key_bytes = Vec::with_capacity(self.key_bytes.len());
            let mut accs = Vec::with_capacity(self.accs.len());
            for &g in &order {
                key_bytes.extend_from_slice(self.key(g));
                accs.extend_from_slice(self.accs(g));
            }
            (self.key_bytes, self.accs) = (key_bytes, accs);
        }
        self.last = None;
        self.keys = HashMap::new();
        self.memo = Vec::new();
    }
}

/// Combine per-worker partials, in morsel order, into one final state equal
/// to what a serial aggregation over the concatenated input would hold:
/// each partial group joins the merged state by the grouping rule that
/// placed each row, so a sorted run split by a morsel boundary is stitched
/// and any other reappearance is the serial path's error.
pub fn merge_partials(partials: Vec<AggPartial>) -> Result<AggPartial> {
    let (strategy, key_width, width) = partials.first().map_or((AggStrategy::Hash, 0, 0), |p| {
        (p.strategy, p.key_width, p.width)
    });
    if partials
        .iter()
        .any(|p| (p.strategy, p.key_width, p.width) != (strategy, key_width, width))
    {
        return Err(Error::InvalidPlan(
            "cannot merge partials of different aggregations".into(),
        ));
    }
    let mut out = AggPartial::new(strategy, key_width, width);
    for p in &partials {
        for g in 0..p.groups {
            let o = out.group(p.key(g))? as usize;
            for (a, b) in out.accs[o * width..(o + 1) * width]
                .iter_mut()
                .zip(p.accs(g))
            {
                a.merge(b);
            }
        }
    }
    out.close();
    Ok(out)
}

/// The output schema of an aggregation over `input` and where each
/// aggregate reads its input, validating the group key and every aggregate
/// input.
fn output_schema(
    input: &Schema,
    group_by: Option<usize>,
    specs: &[AggSpec],
) -> Result<(Schema, Vec<Input>)> {
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
    let mut inputs = Vec::with_capacity(specs.len());
    for s in specs {
        inputs.push(if s.func == AggFunc::Count {
            Input::Count
        } else if s.col >= input.len() {
            return Err(Error::UnknownColumn(format!("aggregate input {}", s.col)));
        } else {
            match input.dtype(s.col) {
                DataType::Int => Input::Int(s.col),
                DataType::Long => Input::Long(s.col),
                DataType::Text(_) => {
                    return Err(Error::InvalidPlan(format!(
                        "{} over non-numeric column {}",
                        s.func.name(),
                        s.col
                    )))
                }
            }
        });
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
    Ok((Schema::new(cols)?, inputs))
}

/// Grouped (or scalar) aggregation over one child.
pub struct Aggregate {
    /// The input, until it has been folded into `state`.
    child: Option<Box<dyn Operator>>,
    ctx: ExecContext,
    group_by: Option<usize>,
    specs: Vec<AggSpec>,
    inputs: Vec<Input>,
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
        let (out_schema, inputs) = output_schema(child.schema(), group_by, &specs)?;
        let key_width = group_by.map_or(0, |g| child.schema().dtype(g).width());
        let state = AggPartial::new(strategy, key_width, specs.len());
        Ok(Aggregate {
            child: Some(child),
            ctx: ctx.clone(),
            group_by,
            specs,
            inputs,
            out_schema: Arc::new(out_schema),
            state,
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
        let (out_schema, inputs) = output_schema(input, group_by, &specs)?;
        let n = merged.groups as f64;
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
            inputs,
            out_schema: Arc::new(out_schema),
            state: merged,
            emit_idx: 0,
        })
    }

    /// Fold `child` a block at a time — place every row's key, then fold
    /// each aggregate's column — charging the strategy's per-block CPU.
    fn materialize(&mut self, mut child: Box<dyn Operator>) -> Result<()> {
        let key_at = match self.group_by {
            Some(g) => {
                let off = child.schema().offset(g);
                off..off + self.state.key_width
            }
            None => 0..0,
        };
        let width = self.specs.len();
        let entry_bytes = (self.state.key_width + 32 * width) as f64;
        let (mut groups, mut values): (Vec<u32>, Vec<i64>) = (Vec::new(), Vec::new());
        let mut total_rows = 0f64;
        while let Some(block) = child.next()? {
            groups.clear();
            for t in block.tuples() {
                groups.push(self.state.group(&t[key_at.clone()])?);
            }
            let schema = block.schema();
            for (j, (s, input)) in self.specs.iter().zip(&self.inputs).enumerate() {
                values.clear();
                match *input {
                    Input::Count => {}
                    Input::Int(col) => values.extend(
                        block
                            .tuples()
                            .map(|t| i64::from(tuple::read_int(schema, t, col))),
                    ),
                    Input::Long(col) => {
                        values.extend(block.tuples().map(|t| tuple::read_long(schema, t, col)))
                    }
                }
                self.state.fold(j, s.func, &groups, &values);
            }
            // Charge per block to keep borrow scopes tight.
            let n = block.count() as f64;
            total_rows += n;
            let mut meter = self.ctx.meter.borrow_mut();
            match self.state.strategy {
                AggStrategy::Hash => {
                    let table_bytes = self.state.groups as f64 * entry_bytes;
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
        let state = &self.state;
        if self.emit_idx >= state.groups {
            return Ok(None);
        }
        let cap = self.ctx.sys.block_tuples;
        let mut block = TupleBlock::new(self.out_schema.clone(), cap);
        let mut raw = Vec::new();
        while self.emit_idx < state.groups && block.count() < cap {
            raw.clear();
            raw.extend_from_slice(state.key(self.emit_idx));
            for (s, acc) in self.specs.iter().zip(state.accs(self.emit_idx)) {
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
    use std::collections::BTreeMap;

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
            groups: keys.len(),
            key_bytes: keys.iter().flat_map(|k| k.to_le_bytes()).collect(),
            key_width: 4,
            accs: keys
                .iter()
                .map(|k| {
                    let k = *k as i64;
                    Acc {
                        count: 1,
                        sum: k,
                        min: k,
                        max: k,
                    }
                })
                .collect(),
            width: 1,
            last: None,
            strategy: AggStrategy::Sorted,
            keys: HashMap::new(),
            memo: Vec::new(),
        };
        // A run spanning a morsel boundary (key 2) is merged, not rejected.
        let merged = merge_partials(vec![partial(&[1, 2]), partial(&[2, 3])]).unwrap();
        assert_eq!(merged.group_count(), 3);
        assert_eq!(merged.accs(1)[0].count, 2);
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
                        assert_eq!((a.key_bytes, a.accs), (b.key_bytes, b.accs), "{what}");
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

    /// COUNT, SUM, MIN, MAX and AVG over column 1.
    fn every_func() -> Vec<AggSpec> {
        vec![
            AggSpec::count(),
            AggSpec::sum(1),
            AggSpec::min(1),
            AggSpec::max(1),
            AggSpec::avg(1),
        ]
    }

    /// Fold `rows` of `schema` through an [`Aggregate`] over a `MemScan`
    /// (100-tuple blocks), then emit the folded state.
    fn fold_rows(
        schema: &Arc<Schema>,
        rows: &[Vec<Value>],
        group_by: Option<usize>,
        specs: &[AggSpec],
        strategy: AggStrategy,
    ) -> Result<(AggPartial, Vec<Vec<Value>>)> {
        let ctx = ExecContext::default_ctx();
        let cols = (0..schema.len()).collect();
        let scan = MemScan::new(schema, Arc::new(rows.to_vec()), cols, vec![], 0, &ctx)?;
        let agg = Aggregate::new(Box::new(scan), group_by, specs.to_vec(), strategy, &ctx)?;
        let partial = agg.into_partial()?;
        let emit = Aggregate::emitting(schema, group_by, specs.to_vec(), partial.clone(), &ctx);
        Ok((partial, collect_rows(&mut emit?)?))
    }

    /// A fold of `rows` equals a `BTreeMap` oracle over key bytes: the same
    /// groups, each aggregate's accumulator and emitted column holding the
    /// oracle's value, and hash groups emitted in key-byte order. Column 1
    /// is every aggregate's input.
    fn assert_oracle(
        schema: &Arc<Schema>,
        rows: &[Vec<Value>],
        group_by: Option<usize>,
        specs: &[AggSpec],
        strategy: AggStrategy,
    ) {
        // Key bytes → [count, sum, min, max].
        let mut want: BTreeMap<Vec<u8>, [i64; 4]> = BTreeMap::new();
        for r in rows {
            let mut key = Vec::new();
            if let Some(g) = group_by {
                r[g].encode_into(schema.dtype(g), &mut key).unwrap();
            }
            let v = r[1].as_num().unwrap();
            let e = want.entry(key).or_insert([0, 0, i64::MAX, i64::MIN]);
            *e = [e[0] + 1, e[1].wrapping_add(v), e[2].min(v), e[3].max(v)];
        }
        let value = |w: &[i64; 4], f: AggFunc| match f {
            AggFunc::Count => w[0],
            AggFunc::Sum => w[1],
            AggFunc::Min => w[2],
            AggFunc::Max => w[3],
            AggFunc::Avg => w[1] / w[0],
        };
        let what = format!(
            "{strategy:?} group_by {group_by:?} over {} rows",
            rows.len()
        );
        let (p, out) = fold_rows(schema, rows, group_by, specs, strategy).unwrap();
        assert_eq!(
            (p.group_count(), out.len()),
            (want.len(), want.len()),
            "{what}"
        );
        let lead = usize::from(group_by.is_some());
        for (g, row) in out.iter().enumerate() {
            let w = &want[p.key(g)];
            if let Some(k) = group_by {
                assert_eq!(row[0], Value::decode(schema.dtype(k), p.key(g)).unwrap());
            }
            for (j, s) in specs.iter().enumerate() {
                let expect = value(w, s.func);
                assert_eq!(
                    p.accs(g)[j].result(s.func),
                    expect,
                    "{what}: group {g} {s:?}"
                );
                assert_eq!(
                    row[lead + j],
                    Value::Long(expect),
                    "{what}: group {g} {s:?}"
                );
            }
        }
        if strategy == AggStrategy::Hash {
            assert!(
                (1..p.group_count()).all(|g| p.key(g - 1) < p.key(g)),
                "{what}"
            );
        }
    }

    /// `(key, value)` rows over an `Int` value column.
    fn keyed(
        key: Column,
        rows: impl IntoIterator<Item = (Value, i32)>,
    ) -> (Arc<Schema>, Vec<Vec<Value>>) {
        let schema = Arc::new(Schema::new(vec![key, Column::int("v")]).unwrap());
        let rows = rows
            .into_iter()
            .map(|(k, v)| vec![k, Value::Int(v)])
            .collect();
        (schema, rows)
    }

    #[test]
    fn hash_over_more_keys_than_memo_slots_matches_the_oracle() {
        let mut rng = SplitMix64::new(0x35);
        // 2 100 eleven-byte keys, neighbours differing only in their last
        // byte, each on three rows in shuffled order; held inline by the key
        // map in 11- and 16-byte columns and on the heap in a 20-byte one.
        let mut keys: Vec<String> = (0..2100).map(|i| format!("k{i:010}")).collect();
        // Text keys that differ only in where their zero bytes sit; "ab" and
        // "ab\0" encode alike and so are one group.
        keys.extend(["ab", "ab\0", "a\0b", "\0ab", "a", "a\0", "\0a", "\0"].map(String::from));
        let mut rows: Vec<(Value, i32)> = keys
            .iter()
            .flat_map(|k| (0..3).map(|_| (Value::text(k), 0)))
            .collect();
        for i in (1..rows.len()).rev() {
            rows.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for r in rows.iter_mut() {
            r.1 = rng.range_i32(-1000, 1000);
        }
        assert!(keys.len() > 1 << MEMO_BITS);
        for width in [11, 16, 20] {
            let (schema, rows) = keyed(Column::text("k", width), rows.clone());
            assert_oracle(&schema, &rows, Some(0), &every_func(), AggStrategy::Hash);
        }
    }

    #[test]
    fn keys_sharing_one_memo_slot_stay_exact_groups() {
        let slot = memo_slot(&0i32.to_le_bytes());
        let keys: Vec<i32> = (0..)
            .filter(|k: &i32| memo_slot(&k.to_le_bytes()) == slot)
            .take(40)
            .collect();
        // Round robin: every row's key differs from the previous row's, and
        // the memo slot holds another key each time.
        let rows = (0..30).flat_map(|r| keys.iter().map(move |&k| (Value::Int(k), k ^ r)));
        let (schema, rows) = keyed(Column::int("k"), rows);
        assert_oracle(&schema, &rows, Some(0), &every_func(), AggStrategy::Hash);
        // Three-byte keys that differ only in their middle byte, six-byte
        // ones only in their last.
        let letter = |i: i32| (b'a' + (i % 26) as u8) as char;
        for (width, key) in [(3, "a{}b"), (6, "abcde{}")] {
            let rows =
                (0..520).map(|i| (Value::text(&key.replace("{}", &letter(i).to_string())), i));
            let (schema, rows) = keyed(Column::text("k", width), rows);
            assert_oracle(&schema, &rows, Some(0), &every_func(), AggStrategy::Hash);
        }
        // Keys that differ only in their last (most significant) byte.
        let rows = (0..600).map(|i| (Value::Int(((i % 6) << 24) | 7), i));
        let (schema, rows) = keyed(Column::int("k"), rows);
        assert_oracle(&schema, &rows, Some(0), &every_func(), AggStrategy::Hash);
    }

    #[test]
    fn runs_across_block_boundaries_fold_exactly_under_both_strategies() {
        // Runs of 1, 99, 100, 101, 150 and 250 rows over 100-tuple blocks:
        // most start or end inside a block, some span several.
        let runs: [i32; 8] = [1, 99, 100, 101, 150, 250, 1, 1];
        let rows = runs
            .iter()
            .enumerate()
            .flat_map(|(k, &n)| (0..n).map(move |i| (Value::Int(k as i32), i * 3 - 200)));
        let (schema, rows) = keyed(Column::int("k"), rows);
        for strategy in [AggStrategy::Hash, AggStrategy::Sorted] {
            assert_oracle(&schema, &rows, Some(0), &every_func(), strategy);
        }
        let (p, _) =
            fold_rows(&schema, &rows, Some(0), &every_func(), AggStrategy::Sorted).unwrap();
        assert_eq!(p.group_count(), runs.len());
    }

    #[test]
    fn scalar_and_empty_inputs_match_the_oracle() {
        let (schema, rows) = keyed(
            Column::int("k"),
            (0..1234).map(|i| (Value::Int(i % 7), i - 600)),
        );
        for strategy in [AggStrategy::Hash, AggStrategy::Sorted] {
            assert_oracle(&schema, &rows, None, &every_func(), strategy);
            assert_oracle(&schema, &[], None, &every_func(), strategy);
            assert_oracle(&schema, &[], Some(0), &every_func(), strategy);
        }
    }

    #[test]
    fn long_inputs_at_the_extremes_through_min_and_max() {
        let schema = Arc::new(
            Schema::new(vec![Column::int("k"), Column::new("v", DataType::Long)]).unwrap(),
        );
        let extremes = [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX - 1, i64::MAX];
        let rows: Vec<Vec<Value>> = (0..300)
            .map(|i| {
                vec![
                    Value::Int(i / 50),
                    Value::Long(extremes[(i * 7 % 6) as usize]),
                ]
            })
            .collect();
        let specs = [AggSpec::count(), AggSpec::min(1), AggSpec::max(1)];
        for strategy in [AggStrategy::Hash, AggStrategy::Sorted] {
            assert_oracle(&schema, &rows, Some(0), &specs, strategy);
            assert_oracle(&schema, &rows, None, &specs, strategy);
        }
    }

    #[test]
    fn sorted_rejects_a_key_reappearing_at_or_inside_a_block() {
        // Key 0 ends its run in the first block and comes back as the first
        // row of the second block, or as row 60 of the first.
        let at_block_start = (0..150).map(|i| (Value::Int(i32::from(i >= 50 && i != 100)), i));
        let inside_block = (0..150).map(|i| (Value::Int(i32::from(i >= 30 && i != 60)), i));
        for rows in [at_block_start.collect::<Vec<_>>(), inside_block.collect()] {
            let (schema, rows) = keyed(Column::int("k"), rows);
            let err =
                fold_rows(&schema, &rows, Some(0), &every_func(), AggStrategy::Sorted).unwrap_err();
            assert!(
                matches!(&err, Error::InvalidPlan(m) if m == "sorted aggregation over ungrouped input"),
                "{err}"
            );
            assert_oracle(&schema, &rows, Some(0), &every_func(), AggStrategy::Hash);
        }
    }
}
