//! Materialized-view (vertical partitioning) advisor — the "MV advisor" box
//! of the paper's Figure 1.
//!
//! §4(ii): "The tuple width in a table is specific to a database schema, but
//! it can change (to be narrower) during the physical design phase, using
//! vertical partitioning or materialized view selection." This module makes
//! that phase concrete: given a weighted query workload, it enumerates
//! candidate projections, prices each query against the base table and each
//! candidate with the Section-5 analytical model, and greedily picks the
//! partitions with the largest predicted benefit. `materialize` then builds
//! a recommendation as a real, scannable table.

use std::collections::BTreeSet;
use std::sync::Arc;

use rodb_model::{self as model, Platform};
use rodb_storage::{BuildLayouts, Layout, Table, TableBuilder};
use rodb_types::{Error, Result, Value};

use crate::compare::{column_specs, scanner_costs};

/// One recurring query shape in the workload.
#[derive(Debug, Clone)]
pub struct QueryPattern {
    /// Base-table columns the query touches (predicate + projection).
    pub columns: Vec<usize>,
    /// Expected predicate selectivity.
    pub selectivity: f64,
    /// Relative frequency/importance weight.
    pub weight: f64,
}

impl QueryPattern {
    pub fn new(columns: Vec<usize>, selectivity: f64, weight: f64) -> QueryPattern {
        QueryPattern {
            columns,
            selectivity,
            weight,
        }
    }
}

/// A recommended vertical partition.
#[derive(Debug, Clone)]
pub struct MvRecommendation {
    /// Base-table columns of the partition, ascending.
    pub columns: Vec<usize>,
    /// Weighted per-tuple time saved across the workload (model units:
    /// disk-byte-times per tuple — comparable across recommendations).
    pub benefit: f64,
    /// Which workload patterns (by index) this partition serves.
    pub serves: Vec<usize>,
}

/// Model-predicted per-tuple scan *time* (1 / rate) for answering a query
/// needing `needed` columns from a **row-organized** vertical partition
/// holding `stored` columns.
///
/// Note the scope: in a *column* store every projection is already its own
/// file, so vertical partitioning buys nothing — the §5 model shows the
/// candidate and base rates coincide (that question is
/// [`crate::recommend_layout`]'s). The MV advisor answers the classic
/// row-store physical-design question of §4(ii) and the NSM-partitioning
/// literature the paper cites ([9], [2] in §6).
fn scan_time(
    table: &Table,
    stored: &[usize],
    needed: &[usize],
    selectivity: f64,
    p: &Platform,
) -> f64 {
    let stored_bytes: f64 = column_specs(table, stored)
        .iter()
        .map(|c| c.raw_bytes)
        .sum::<f64>()
        .max(1.0);
    let (row_cost, _) = scanner_costs(table, stored_bytes, needed, selectivity);
    let row_rate = model::store_rate(stored_bytes, &row_cost, 0.0, p);
    1.0 / row_rate.max(f64::MIN_POSITIVE)
}

/// Baseline: answering the query from a row scan of the full base table.
fn base_time(table: &Table, needed: &[usize], selectivity: f64, p: &Platform) -> f64 {
    let all: Vec<usize> = (0..table.schema.len()).collect();
    scan_time(table, &all, needed, selectivity, p)
}

/// Recommend up to `max_mvs` vertical partitions for the workload.
///
/// Candidates are the distinct column sets of the workload plus their
/// pairwise unions (a partition serving two queries beats two partitions
/// when the union stays narrow). Selection is greedy by remaining benefit.
pub fn recommend_vertical_partitions(
    table: &Table,
    workload: &[QueryPattern],
    cpdb: f64,
    max_mvs: usize,
) -> Result<Vec<MvRecommendation>> {
    if workload.is_empty() || max_mvs == 0 {
        return Ok(Vec::new());
    }
    for q in workload {
        if q.columns.is_empty() {
            return Err(Error::InvalidPlan("query pattern with no columns".into()));
        }
        for &c in &q.columns {
            if c >= table.schema.len() {
                return Err(Error::UnknownColumn(format!("index {c}")));
            }
        }
        if !(q.selectivity >= 0.0 && q.selectivity <= 1.0) {
            return Err(Error::InvalidConfig("selectivity outside [0,1]".into()));
        }
    }
    let p = Platform::new(cpdb);

    // Candidate column sets: each query's set and pairwise unions.
    let mut candidates: BTreeSet<Vec<usize>> = BTreeSet::new();
    let norm = |cols: &[usize]| {
        let set: BTreeSet<usize> = cols.iter().copied().collect();
        set.into_iter().collect::<Vec<usize>>()
    };
    for q in workload {
        candidates.insert(norm(&q.columns));
    }
    for a in workload {
        for b in workload {
            let mut u = a.columns.clone();
            u.extend_from_slice(&b.columns);
            candidates.insert(norm(&u));
        }
    }

    // Greedy selection on remaining (unserved) benefit.
    let mut chosen: Vec<MvRecommendation> = Vec::new();
    let mut best_time: Vec<f64> = workload
        .iter()
        .map(|q| base_time(table, &q.columns, q.selectivity, &p))
        .collect();
    for _ in 0..max_mvs {
        let mut best: Option<MvRecommendation> = None;
        for cand in &candidates {
            let mut benefit = 0.0;
            let mut serves = Vec::new();
            for (qi, q) in workload.iter().enumerate() {
                let needed = norm(&q.columns);
                if !needed.iter().all(|c| cand.contains(c)) {
                    continue;
                }
                let t = scan_time(table, cand, &needed, q.selectivity, &p);
                if t < best_time[qi] {
                    benefit += q.weight * (best_time[qi] - t);
                    serves.push(qi);
                }
            }
            if benefit > 1e-12 && best.as_ref().map(|b| benefit > b.benefit).unwrap_or(true) {
                best = Some(MvRecommendation {
                    columns: cand.clone(),
                    benefit,
                    serves,
                });
            }
        }
        match best {
            Some(rec) => {
                for (qi, q) in workload.iter().enumerate() {
                    let needed = norm(&q.columns);
                    if needed.iter().all(|c| rec.columns.contains(c)) {
                        let t = scan_time(table, &rec.columns, &needed, q.selectivity, &p);
                        best_time[qi] = best_time[qi].min(t);
                    }
                }
                candidates.remove(&rec.columns);
                chosen.push(rec);
            }
            None => break,
        }
    }
    Ok(chosen)
}

/// Materialize a recommendation as a real table named `name`, carrying the
/// projected columns (and their codecs) in both layouts.
pub fn materialize(table: &Table, rec: &MvRecommendation, name: &str) -> Result<Table> {
    let schema = Arc::new(table.schema.project(&rec.columns)?);
    let comps: Vec<_> = rec
        .columns
        .iter()
        .map(|&c| {
            table
                .col
                .as_ref()
                .map(|cs| cs.columns[c].comp.clone())
                .unwrap_or_else(rodb_compress::ColumnCompression::none)
        })
        .collect();
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
        .unwrap_or(4096);
    let mut b =
        TableBuilder::with_compression(name, schema, page_size, BuildLayouts::both(), comps)?;
    let source = if table.has_layout(Layout::Row) {
        table.read_all(Layout::Row)?
    } else {
        table.read_all(Layout::Column)?
    };
    let mut row_buf: Vec<Value> = Vec::with_capacity(rec.columns.len());
    for row in &source {
        row_buf.clear();
        for &c in &rec.columns {
            row_buf.push(row[c].clone());
        }
        b.push_row(&row_buf)?;
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodb_types::{Column, Schema};

    fn wide_table() -> Table {
        let mut cols: Vec<Column> = (0..10).map(|i| Column::int(format!("a{i}"))).collect();
        cols.push(Column::text("blob", 60));
        let s = Arc::new(Schema::new(cols).unwrap());
        let mut b = TableBuilder::new("base", s, 4096, BuildLayouts::both()).unwrap();
        for i in 0..2_000i32 {
            let mut row: Vec<Value> = (0..10).map(|c| Value::Int(i * (c + 1) % 1000)).collect();
            row.push(Value::text("padding payload"));
            b.push_row(&row).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn recommends_partitions_covering_the_workload() {
        let t = wide_table();
        let workload = vec![
            QueryPattern::new(vec![0, 1], 0.1, 10.0), // hot narrow query
            QueryPattern::new(vec![0, 1, 2], 0.1, 5.0),
            QueryPattern::new(vec![7, 8], 0.5, 1.0),
        ];
        let recs = recommend_vertical_partitions(&t, &workload, 18.0, 2).unwrap();
        assert!(!recs.is_empty());
        assert!(recs.len() <= 2);
        // The top partition serves the heavy queries.
        assert!(recs[0].serves.contains(&0));
        assert!(recs[0].benefit > 0.0);
        // Greedy order: benefits non-increasing.
        for w in recs.windows(2) {
            assert!(w[0].benefit >= w[1].benefit);
        }
        // Every recommended set actually covers the queries it claims.
        for r in &recs {
            for &qi in &r.serves {
                assert!(workload[qi].columns.iter().all(|c| r.columns.contains(c)));
            }
        }
    }

    #[test]
    fn union_candidate_can_beat_two_partitions() {
        let t = wide_table();
        // Two overlapping narrow queries — one union partition serves both.
        let workload = vec![
            QueryPattern::new(vec![0, 1], 0.1, 1.0),
            QueryPattern::new(vec![1, 2], 0.1, 1.0),
        ];
        let recs = recommend_vertical_partitions(&t, &workload, 18.0, 1).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].columns, vec![0, 1, 2]);
        assert_eq!(recs[0].serves, vec![0, 1]);
    }

    #[test]
    fn materialized_view_scans_correctly() {
        let t = wide_table();
        let rec = MvRecommendation {
            columns: vec![0, 2, 4],
            benefit: 1.0,
            serves: vec![],
        };
        let mv = materialize(&t, &rec, "mv1").unwrap();
        assert_eq!(mv.row_count, t.row_count);
        assert_eq!(mv.schema.len(), 3);
        assert_eq!(mv.schema.columns()[1].name, "a2");
        let base = t.read_all(Layout::Row).unwrap();
        let got = mv.read_all(Layout::Column).unwrap();
        for (b, g) in base.iter().zip(&got) {
            assert_eq!(g[0], b[0]);
            assert_eq!(g[1], b[2]);
            assert_eq!(g[2], b[4]);
        }
    }

    #[test]
    fn validation_errors() {
        let t = wide_table();
        assert!(
            recommend_vertical_partitions(&t, &[QueryPattern::new(vec![], 0.1, 1.0)], 18.0, 1)
                .is_err()
        );
        assert!(recommend_vertical_partitions(
            &t,
            &[QueryPattern::new(vec![99], 0.1, 1.0)],
            18.0,
            1
        )
        .is_err());
        assert!(recommend_vertical_partitions(
            &t,
            &[QueryPattern::new(vec![0], 2.0, 1.0)],
            18.0,
            1
        )
        .is_err());
        assert!(recommend_vertical_partitions(&t, &[], 18.0, 5)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn no_benefit_no_recommendation() {
        let t = wide_table();
        // A query touching every column gains nothing from partitioning.
        let all: Vec<usize> = (0..t.schema.len()).collect();
        let recs = recommend_vertical_partitions(&t, &[QueryPattern::new(all, 1.0, 1.0)], 18.0, 3)
            .unwrap();
        // The only candidate is the full table, which cannot beat itself by
        // more than float noise.
        assert!(recs.len() <= 1);
        if let Some(r) = recs.first() {
            assert!(r.benefit < 1e-3);
        }
    }
}
