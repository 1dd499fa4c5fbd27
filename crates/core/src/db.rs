//! The `Database` facade: a catalog plus a platform configuration.

use std::sync::Arc;

use rodb_compress::ColumnCompression;
use rodb_storage::{Catalog, Table};
use rodb_types::{HardwareConfig, IngestSpec, Result, Schema, SystemConfig};

use crate::ingest::{IngestSnapshot, IngestStore};
use crate::query::QueryBuilder;

/// A read-optimized database: loaded tables + the simulated platform they
/// are measured on.
pub struct Database {
    catalog: Catalog,
    hw: HardwareConfig,
    sys: SystemConfig,
}

impl Database {
    /// A database on the paper's reference platform (P4 3.2 GHz, 3-disk
    /// RAID, 128 KB I/O units, prefetch depth 48).
    pub fn new() -> Database {
        Database::with_config(HardwareConfig::default(), SystemConfig::default())
            .expect("default config is valid")
    }

    /// A database on a custom platform.
    pub fn with_config(hw: HardwareConfig, sys: SystemConfig) -> Result<Database> {
        hw.validate()?;
        sys.validate()?;
        Ok(Database {
            catalog: Catalog::new(),
            hw,
            sys,
        })
    }

    pub fn hardware(&self) -> &HardwareConfig {
        &self.hw
    }

    pub fn system(&self) -> &SystemConfig {
        &self.sys
    }

    /// Hardware cpdb rating (§5).
    pub fn cpdb(&self) -> f64 {
        self.hw.cpdb()
    }

    /// Register a bulk-loaded table (replaces an existing one of the same
    /// name, e.g. after a WOS merge).
    pub fn register(&mut self, table: Table) -> Arc<Table> {
        self.catalog.register(table)
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.catalog.get(name)
    }

    /// Registered table names.
    pub fn table_names(&self) -> Vec<&str> {
        self.catalog.table_names()
    }

    /// Start building a query against a table.
    pub fn query(&self, table: &str) -> Result<QueryBuilder> {
        Ok(QueryBuilder::new(self.table(table)?, self.hw, self.sys))
    }

    /// The schema of a table (convenience).
    pub fn schema(&self, table: &str) -> Result<Arc<Schema>> {
        Ok(self.table(table)?.schema.clone())
    }

    /// Open the durable write path for a table (Figure 1's WOS and its
    /// merge): a WAL-backed [`IngestStore`] whose inserts survive crashes
    /// and whose merges are epoch-atomic. `comps` / `sort_by` are the
    /// rebuild parameters of every merge. The write path exists once
    /// opened; a database that opens none has no WAL.
    pub fn ingest_for(
        &self,
        table: &str,
        comps: Vec<ColumnCompression>,
        sort_by: Option<usize>,
        spec: IngestSpec,
    ) -> Result<IngestStore> {
        IngestStore::new(self.table(table)?, comps, sort_by, spec)
    }

    /// Query a pinned ingest snapshot: the snapshot's ROS plus its staged
    /// tail, isolated from any merge that commits while the query runs.
    pub fn query_snapshot(&self, snap: &IngestSnapshot) -> QueryBuilder {
        QueryBuilder::new(snap.ros.clone(), self.hw, self.sys).wos_tail(snap.tail.clone())
    }

    /// Re-register the live table of an ingest store (after merges) so
    /// name-based queries see the newest epoch.
    pub fn adopt_ingest(&mut self, store: &IngestStore) -> Arc<Table> {
        self.register_arc(store.ros())
    }

    /// Register an already-shared table handle.
    pub fn register_arc(&mut self, table: Arc<Table>) -> Arc<Table> {
        self.catalog.register_arc(table)
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodb_engine::CmpOp;
    use rodb_storage::{BuildLayouts, Layout, TableBuilder};
    use rodb_types::{Column, Value};

    fn tiny_table() -> Table {
        let s = Arc::new(Schema::new(vec![Column::int("k"), Column::int("v")]).unwrap());
        let mut b = TableBuilder::new("t", s, 4096, BuildLayouts::both()).unwrap();
        for i in 0..100 {
            b.push_row(&[Value::Int(i), Value::Int(i * 2)]).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn register_and_query_paths() {
        let mut db = Database::new();
        db.register(tiny_table());
        assert_eq!(db.table_names(), vec!["t"]);
        assert!(db.table("t").is_ok());
        assert!(db.table("missing").is_err());
        assert!(db.query("t").is_ok());
        assert!(db.query("missing").is_err());
        assert!((db.cpdb() - 17.78).abs() < 0.1);
        assert_eq!(db.schema("t").unwrap().len(), 2);
    }

    /// README's write path, end to end: open it, insert, pin a snapshot,
    /// merge, and serve the merged table by name.
    #[test]
    fn ingest_for_serves_snapshots_then_the_merged_table_by_name() {
        let mut db = Database::new();
        db.register(tiny_table());
        let comps = vec![ColumnCompression::none(); 2];
        let mut st = db
            .ingest_for("t", comps, Some(0), IngestSpec::manual())
            .unwrap();
        let staged = [(-1, -2), (500, 7), (3, 99)];
        st.insert(
            staged
                .iter()
                .map(|&(k, v)| vec![Value::Int(k), Value::Int(v)])
                .collect(),
        )
        .unwrap();
        let snap = st.snapshot();
        let below_10 = |rows: Vec<Vec<Value>>| -> Vec<Vec<Value>> {
            rows.into_iter().filter(|r| r[0] < Value::Int(10)).collect()
        };
        let run = |q: QueryBuilder| {
            q.select(&["k", "v"])
                .unwrap()
                .filter("k", CmpOp::Lt, 10)
                .unwrap()
                .run_collect()
                .unwrap()
                .rows
        };

        // The snapshot reads the ROS, then the tail in arrival order.
        let mut oracle = snap.ros.read_all(Layout::Row).unwrap();
        oracle.extend(snap.tail.iter().cloned());
        let pinned = run(db.query_snapshot(&snap));
        assert_eq!(pinned, below_10(oracle));

        st.merge().unwrap();
        db.register_arc(st.ros());
        let merged = db.table("t").unwrap();
        assert_eq!(merged.row_count, 103);
        let rows = merged.read_all(Layout::Row).unwrap();
        assert_eq!(rows[0], vec![Value::Int(-1), Value::Int(-2)], "sorted on k");
        assert_eq!(run(db.query("t").unwrap()), below_10(rows));
        assert_eq!(run(db.query_snapshot(&snap)), pinned, "pinned pre-merge");
    }

    #[test]
    fn invalid_config_rejected() {
        let hw = HardwareConfig {
            disks: 0,
            ..HardwareConfig::default()
        };
        assert!(Database::with_config(hw, SystemConfig::default()).is_err());
    }
}
