//! Layout comparison and the physical-design advisors.
//!
//! `compare_layouts` runs the same query through the row and column paths and
//! reports the measured speedup — the quantity every figure of the paper
//! plots. `recommend_layout` answers the same question *predictively* from
//! the Section-5 analytical model, and `recommend_compression` wraps the
//! Figure-1 compression advisor.

use rodb_compress::{AdvisorGoal, ColumnCompression};
use rodb_cpu::{CostParams, OpCosts};
use rodb_engine::{RunReport, ScanLayout};
use rodb_model::{self as model, ColumnSpec, Platform, ScannerCost, Workload};
use rodb_storage::{Layout, Table};
use rodb_types::{HardwareConfig, Result, SystemConfig, Value};

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

/// The model's view of `cols` of `table`: stored and raw bytes per value and
/// the codec, as every Section-5 pricer takes them.
pub(crate) fn column_specs(table: &Table, cols: &[usize]) -> Vec<ColumnSpec> {
    cols.iter()
        .map(|&c| {
            let dtype = table.schema.dtype(c);
            let comp = table
                .col
                .as_ref()
                .map(|cs| cs.columns[c].comp.clone())
                .unwrap_or_else(ColumnCompression::none);
            ColumnSpec {
                bytes: comp.bits_per_value(dtype) as f64 / 8.0,
                raw_bytes: dtype.width() as f64,
                codec: comp.codec.kind(),
            }
        })
        .collect()
}

/// The one pricer behind both layout advisors: the Section-5 `(row, column)`
/// scanner costs of a scan needing columns `needed` at `selectivity`, the
/// row side reading tuples of `stored_bytes`. Calibrated cost tables, on the
/// default platform's issue width and I/O unit.
pub(crate) fn scanner_costs(
    table: &Table,
    stored_bytes: f64,
    needed: &[usize],
    selectivity: f64,
) -> (ScannerCost, ScannerCost) {
    let (costs, params) = (OpCosts::default(), CostParams::default());
    let uops_per_cycle = HardwareConfig::default().uops_per_cycle;
    let io_unit = SystemConfig::default().io_unit as f64;
    let cols = column_specs(table, needed);
    (
        model::row_scanner_cost(
            &costs,
            &params,
            uops_per_cycle,
            io_unit,
            stored_bytes,
            selectivity,
            &cols,
        ),
        model::col_scanner_cost(&costs, &params, uops_per_cycle, io_unit, &cols, selectivity),
    )
}

/// Model-predicted column-over-row speedup for a projective scan with the
/// given selectivity on this table and platform.
pub fn predicted_speedup(
    table: &Table,
    projection: &[usize],
    selectivity: f64,
    cpdb: f64,
) -> Result<f64> {
    // Row store reads the full stored tuple (compressed width if its row
    // representation is compressed — here we use the schema's stored width,
    // matching the paper's uncompressed-vs-uncompressed comparisons).
    let row_bytes = table.schema.stored_width() as f64;
    let (row_cost, col_cost) = scanner_costs(table, row_bytes, projection, selectivity);
    let w = Workload {
        row_bytes,
        col_bytes: model::col_bytes(&column_specs(table, projection)),
        row_cost,
        col_cost,
        extra_ops: 0.0,
    };
    Ok(model::speedup(&w, &Platform::new(cpdb)))
}

/// Model-driven layout recommendation (the paper's bottom line, applied).
pub fn recommend_layout(
    table: &Table,
    projection: &[usize],
    selectivity: f64,
    cpdb: f64,
) -> Result<Layout> {
    Ok(
        if predicted_speedup(table, projection, selectivity, cpdb)? >= 1.0 {
            Layout::Column
        } else {
            Layout::Row
        },
    )
}

/// Pick a codec per column from a sample of rows (Figure 1's compression
/// advisor). `goal` follows the paper's §4.4 guidance: disk-constrained
/// systems take the narrowest encoding, CPU-constrained ones prefer cheaper
/// decoders.
pub fn recommend_compression(
    table: &Table,
    sample_rows: &[Vec<Value>],
    goal: AdvisorGoal,
) -> Result<Vec<ColumnCompression>> {
    let mut out = Vec::with_capacity(table.schema.len());
    for (ci, col) in table.schema.columns().iter().enumerate() {
        let sample: Vec<Value> = sample_rows.iter().map(|r| r[ci].clone()).collect();
        out.push(rodb_compress::choose_codec(col.dtype, &sample, goal)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use rodb_engine::CmpOp;
    use rodb_storage::{BuildLayouts, TableBuilder};
    use rodb_types::{Column, Schema};
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

    #[test]
    fn model_recommendation_flips_with_cpdb() {
        let db = db_with_wide_table(100);
        let t = db.table("wide").unwrap();
        // Narrow 2-int projection of a lean tuple on a CPU-starved box: the
        // model may favour rows; a disk-starved box favours columns.
        let proj = vec![0usize];
        let hi = predicted_speedup(&t, &proj, 0.1, 400.0).unwrap();
        let lo = predicted_speedup(&t, &proj, 0.1, 5.0).unwrap();
        assert!(hi > lo);
        assert_eq!(
            recommend_layout(&t, &proj, 0.1, 400.0).unwrap(),
            Layout::Column
        );
    }

    #[test]
    fn compression_advisor_over_table_sample() {
        let db = db_with_wide_table(500);
        let t = db.table("wide").unwrap();
        let sample = t.read_all(Layout::Row).unwrap();
        let comps = recommend_compression(&t, &sample, AdvisorGoal::DiskConstrained).unwrap();
        assert_eq!(comps.len(), t.schema.len());
        // Ints with max < 1000 pack into ≤10 bits.
        assert!(comps[0].bits_per_value(rodb_types::DataType::Int) <= 10);
    }
}
