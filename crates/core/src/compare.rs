//! Measured layout comparison: run the same query through the row and
//! column paths and report the speedup — the quantity every figure of the
//! paper plots. The *predicted* counterpart is [`crate::design`].

use rodb_engine::{RunReport, ScanLayout};
use rodb_types::Result;

use crate::query::QueryBuilder;

/// Row-vs-column outcome for one query.
#[derive(Debug, Clone)]
pub struct LayoutComparison {
    pub row: RunReport,
    pub column: RunReport,
}

impl LayoutComparison {
    /// Elapsed-time speedup of columns over rows (>1 means columns win).
    pub fn speedup(&self) -> f64 {
        self.row.elapsed_s / self.column.elapsed_s
    }
}

/// Run one query through both layouts (the builder must not have a layout
/// forced; it is overridden here).
pub fn compare_layouts(qb: &QueryBuilder) -> Result<LayoutComparison> {
    let row = qb.clone().layout(ScanLayout::Row).run()?.report;
    let column = qb.clone().layout(ScanLayout::Column).run()?.report;
    Ok(LayoutComparison { row, column })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use rodb_engine::CmpOp;
    use rodb_storage::{BuildLayouts, TableBuilder};
    use rodb_types::{Column, Schema, Value};
    use std::sync::Arc;

    fn db_with_wide_table(rows: usize) -> Database {
        let mut db = Database::new();
        let mut cols = vec![Column::int("a0")];
        for i in 1..8 {
            cols.push(Column::int(format!("a{i}")));
        }
        cols.push(Column::text("txt", 40));
        let s = Arc::new(Schema::new(cols).unwrap());
        let mut b = TableBuilder::new("wide", s, 4096, BuildLayouts::both()).unwrap();
        for i in 0..rows {
            let mut r: Vec<Value> = (0..8)
                .map(|c| Value::Int((i * (c + 1)) as i32 % 1000))
                .collect();
            r.push(Value::text("some payload text"));
            b.push_row(&r).unwrap();
        }
        db.register(b.finish().unwrap());
        db
    }

    #[test]
    fn measured_comparison_favours_columns_for_narrow_projections() {
        let db = db_with_wide_table(20_000);
        let qb = db
            .query("wide")
            .unwrap()
            .select(&["a0", "a1"])
            .unwrap()
            .filter("a0", CmpOp::Lt, 100)
            .unwrap()
            .scale_to_rows(20_000_000);
        let cmp = compare_layouts(&qb).unwrap();
        assert!(
            cmp.speedup() > 1.5,
            "speedup {} (row {}s col {}s)",
            cmp.speedup(),
            cmp.row.elapsed_s,
            cmp.column.elapsed_s
        );
        // Both executed the same logical query.
        assert_eq!(cmp.row.rows, cmp.column.rows);
    }
}
