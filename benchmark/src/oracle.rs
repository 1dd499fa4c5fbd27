//! The benchmark's own oracle: rows regenerated from the seeded generators,
//! filtered, projected and aggregated in plain Rust. It shares no code with
//! the engine, so an engine change cannot move both sides at once.

use std::collections::BTreeMap;

use rodb::tpch::{lineitem_schema, orders_schema, LineitemGen, OrdersGen};
use rodb::types::{DataType, Schema, Value};

use crate::tables::TableId;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    Count,
    Sum,
    Max,
}

/// `GROUP BY group_col` with aggregate functions over base-table columns.
#[derive(Debug, Clone)]
pub struct AggDef {
    pub group_col: usize,
    pub funcs: Vec<(Func, usize)>,
    /// Sort-based instead of hash-based grouping in the engine; the oracle
    /// computes the same groups either way.
    pub sorted: bool,
}

/// `SELECT projection WHERE col < literal [GROUP BY ...]` over base-table
/// column indices: the description both the engine plan and the oracle are
/// derived from.
#[derive(Debug, Clone)]
pub struct Query {
    pub projection: Vec<usize>,
    pub lt: Option<(usize, i32)>,
    pub agg: Option<AggDef>,
}

/// Regenerate a table's rows; text is zero-padded to the declared column
/// width, which is how the engine hands stored text back.
pub fn generate(id: TableId, rows: u64, seed: u64) -> Vec<Vec<Value>> {
    if id.is_lineitem() {
        let schema = lineitem_schema();
        LineitemGen::new(rows, seed)
            .map(|r| pad(&schema, r))
            .collect()
    } else {
        let schema = orders_schema();
        OrdersGen::new(rows, seed)
            .map(|r| pad(&schema, r))
            .collect()
    }
}

pub fn pad(schema: &Schema, row: Vec<Value>) -> Vec<Value> {
    row.into_iter()
        .enumerate()
        .map(|(i, v)| match (v, schema.dtype(i)) {
            (Value::Text(t), DataType::Text(width)) => {
                let mut bytes = t.into_vec();
                bytes.resize(width, 0);
                Value::Text(bytes.into())
            }
            (v, _) => v,
        })
        .collect()
}

/// The rows `q` must return over `rows`: scan results in input order,
/// aggregate results ordered by group key.
pub fn expected<'a>(rows: impl Iterator<Item = &'a Vec<Value>>, q: &Query) -> Vec<Vec<Value>> {
    let qualifying = rows.filter(|r| match q.lt {
        Some((col, lit)) => matches!(r[col], Value::Int(v) if v < lit),
        None => true,
    });
    let Some(agg) = &q.agg else {
        return qualifying
            .map(|r| q.projection.iter().map(|&c| r[c].clone()).collect())
            .collect();
    };
    // Per group: one (count, sum, max) accumulator per aggregate function.
    let mut groups: BTreeMap<Value, Vec<(i64, i64, i64)>> = BTreeMap::new();
    for r in qualifying {
        let accs = groups
            .entry(r[agg.group_col].clone())
            .or_insert_with(|| vec![(0, 0, i64::MIN); agg.funcs.len()]);
        for (acc, &(_, col)) in accs.iter_mut().zip(&agg.funcs) {
            let v = match r[col] {
                Value::Int(v) => v as i64,
                Value::Long(v) => v,
                Value::Text(_) => 0,
            };
            *acc = (acc.0 + 1, acc.1 + v, acc.2.max(v));
        }
    }
    groups
        .into_iter()
        .map(|(key, accs)| {
            let mut row = vec![key];
            row.extend(accs.iter().zip(&agg.funcs).map(|(acc, (f, _))| {
                Value::Long(match f {
                    Func::Count => acc.0,
                    Func::Sum => acc.1,
                    Func::Max => acc.2,
                })
            }));
            row
        })
        .collect()
}

/// Whether the engine's rows are the expected ones. Scans over a fixed table
/// must agree in order; aggregates, and scans over a store that a merge
/// re-sorts, are compared as multisets.
pub fn same_rows(actual: &[Vec<Value>], expected: &[Vec<Value>], ordered: bool) -> bool {
    if ordered {
        return actual == expected;
    }
    let (mut a, mut e) = (actual.to_vec(), expected.to_vec());
    a.sort();
    e.sort();
    a == e
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<Value>> {
        (0..10)
            .map(|i| vec![Value::Int(i), Value::Int(i % 3), Value::Int(10 * i)])
            .collect()
    }

    #[test]
    fn filters_and_projects_in_input_order() {
        let q = Query {
            projection: vec![2, 0],
            lt: Some((0, 3)),
            agg: None,
        };
        let out = expected(rows().iter(), &q);
        assert_eq!(
            out,
            vec![
                vec![Value::Int(0), Value::Int(0)],
                vec![Value::Int(10), Value::Int(1)],
                vec![Value::Int(20), Value::Int(2)],
            ]
        );
    }

    #[test]
    fn groups_and_aggregates() {
        let q = Query {
            projection: vec![1, 2],
            lt: None,
            agg: Some(AggDef {
                group_col: 1,
                funcs: vec![(Func::Count, 1), (Func::Sum, 2), (Func::Max, 2)],
                sorted: false,
            }),
        };
        let out = expected(rows().iter(), &q);
        // Group 0 holds rows 0, 3, 6, 9.
        assert_eq!(
            out[0],
            vec![
                Value::Int(0),
                Value::Long(4),
                Value::Long(180),
                Value::Long(90)
            ]
        );
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn multiset_comparison_ignores_order_only() {
        let a = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        let b = vec![vec![Value::Int(2)], vec![Value::Int(1)]];
        assert!(same_rows(&a, &b, false));
        assert!(!same_rows(&a, &b, true));
        assert!(!same_rows(&a, &a[..1], false));
    }

    #[test]
    fn generated_text_is_padded_to_the_column_width() {
        let rows = generate(TableId::Orders, 5, 1);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0][4].as_text().unwrap().len(), 11);
    }
}
