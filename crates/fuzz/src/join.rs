//! `J1`: merge join under the oracle. Two generated tables are sorted on an
//! int key and joined through the engine's [`MergeJoin`] over Row and
//! Column scans, scalar and fast path; the rows must equal the nested-loop
//! [`oracle::expected_join`]. An input that is not sorted on its key must
//! be refused with the typed error. No planner is involved: the operator
//! tree is assembled here, the way `tests/layout_equivalence.rs` does.

use std::sync::Arc;

use rodb_compress::{Codec, ColumnCompression};
use rodb_engine::{drain_rows, ExecContext, MergeJoin, ScanLayout, ScanSpec};
use rodb_storage::Table;
use rodb_types::{DataType, Error, HardwareConfig, SystemConfig, Value};

use crate::gen::{self, CasePlan};
use crate::{build_table, ensure, oracle, Axes, Case, Cell, Damage, Source, Verdict};

/// The right-hand table comes from its own seed stream.
const RIGHT_STREAM: u64 = 0x701e_d0e5_7ab1_e5ee;
/// Rows kept per side, bounding a low-cardinality cross product.
const MAX_ROWS: usize = 300;

/// A join input and its key column.
type Side = (CasePlan, usize);

/// `plan` narrowed to a scan of every column (its own predicates kept), its
/// rows cut to [`MAX_ROWS`] and stably sorted on the first int column;
/// `None` when it has no int column. FOR-delta needs its own column sorted,
/// which a re-sort on another key breaks, so those columns are stored
/// uncompressed.
fn side(mut plan: CasePlan, page_size: usize) -> Option<Side> {
    let key = (0..plan.schema.len()).find(|&c| plan.schema.dtype(c) == DataType::Int)?;
    for c in &mut plan.comps {
        if matches!(c.codec, Codec::ForDelta { .. }) {
            *c = ColumnCompression::none();
        }
    }
    plan.page_size = page_size;
    plan.rows.truncate(MAX_ROWS);
    plan.rows.sort_by(|a, b| a[key].cmp(&b[key]));
    plan.projection = (0..plan.schema.len()).collect();
    plan.group_by = None;
    plan.aggs.clear();
    Some((plan, key))
}

/// The case's own plan on the left, a second generated plan on the right.
fn sides(case: &Case) -> Option<(Side, Side)> {
    let page = case.plan.page_size;
    let right = gen::generate(case.seed ^ RIGHT_STREAM);
    Some((side(case.plan.clone(), page)?, side(right, page)?))
}

/// A copy of `plan` whose first row trades places with a later row holding
/// a larger key that is still below the maximum. Every row up to that one
/// is below the other (sorted) input's largest key, so the join has to
/// advance past the descent and see it. `None` without three distinct keys.
fn unsorted(plan: &CasePlan, key: usize) -> Option<CasePlan> {
    let (first, max) = (&plan.rows.first()?[key], &plan.rows.last()?[key]);
    let between = |r: &Vec<Value>| r[key] > *first && r[key] < *max;
    let mut out = plan.clone();
    out.rows.swap(0, plan.rows.iter().position(between)?);
    Some(out)
}

/// Join two `(table, plan, key)` inputs; `filtered` keeps their predicates.
fn join(
    inputs: [(&Arc<Table>, &Side); 2],
    filtered: bool,
    layout: ScanLayout,
    fast: bool,
) -> rodb_types::Result<Vec<Vec<Value>>> {
    let sys = SystemConfig {
        page_size: inputs[0].1 .0.page_size,
        scan_fast_path: fast,
        ..SystemConfig::default()
    };
    let ctx = ExecContext::new(HardwareConfig::default(), sys, 1.0)?;
    let scan = |(table, (plan, _)): (&Arc<Table>, &Side)| {
        let preds = plan.predicates.iter().filter(|_| filtered).cloned();
        ScanSpec::new(table.clone(), layout, plan.projection.clone())
            .with_predicates(preds.collect())
            .build(&ctx)
    };
    let [l, r] = inputs;
    let mut op = MergeJoin::new(scan(l)?, l.1 .1, scan(r)?, r.1 .1, &ctx)?;
    Ok(drain_rows(&mut op, true)?.0)
}

/// `J1` rides on healthy solo cases over the bulk-loaded table.
pub fn applies(a: &Axes, _: &Cell) -> bool {
    !a.is_service() && matches!(a.source, Source::Built) && a.damage == [Damage::None]
}

/// J1: see the module docs.
pub fn j1(case: &Case) -> Verdict {
    let Some((left, right)) = sides(case) else {
        return Ok(());
    };
    let build = |p: &CasePlan| case.engine("join input build", || build_table(p).map(Arc::new));
    let (lt, rt) = (build(&left.0)?, build(&right.0)?);
    let rows = |s: &Side| oracle::expected(&s.0);
    let want = oracle::expected_join(&rows(&left), left.1, &rows(&right), right.1);
    for layout in [ScanLayout::Row, ScanLayout::Column] {
        for fast in [false, true] {
            let what = format!("merge join, {layout:?}, fast={fast}");
            let inputs = [(&lt, &left), (&rt, &right)];
            let got = case.engine(&what, || join(inputs, true, layout, fast))?;
            ensure!(
                got == want,
                "{what}: engine {} rows, nested-loop oracle {} rows",
                got.len(),
                want.len()
            );
        }
    }
    if let Some(bad) = unsorted(&left.0, left.1) {
        let (bt, bad) = (build(&bad)?, (bad, left.1));
        let inputs = [(&bt, &bad), (&lt, &left)];
        let got = case.engine("merge join, unsorted left", || {
            Ok(join(inputs, false, ScanLayout::Row, false))
        })?;
        ensure!(
            matches!(&got, Err(Error::InvalidPlan(m)) if m.contains("not sorted")),
            "unsorted input returned {:?}, not InvalidPlan",
            got.map(|rows| rows.len())
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `J1` is hollow unless generated pairs actually share keys and the
    /// unsorted probe is constructible.
    #[test]
    fn generated_pairs_join_and_can_be_unsorted() {
        let (mut matched, mut unsortable) = (0, 0);
        for seed in 0..200 {
            let Some((l, r)) = sides(&Case::new(crate::Mode::Plain, seed)) else {
                continue;
            };
            let want = oracle::expected_join(&oracle::expected(&l.0), l.1, &r.0.rows, r.1);
            matched += !want.is_empty() as u32;
            unsortable += unsorted(&l.0, l.1).is_some() as u32;
        }
        assert!(matched >= 20, "only {matched} of 200 pairs share a key");
        assert!(
            unsortable >= 50,
            "only {unsortable} of 200 inputs can be unsorted"
        );
    }
}
