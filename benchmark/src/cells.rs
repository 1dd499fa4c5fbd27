//! Cells: one query on one table through one scan path. The scan workloads
//! run the same 26 cells on three paths.

use std::sync::Arc;

use rodb::core::QueryBuilder;
use rodb::engine::{AggSpec, AggStrategy, Predicate, ScanLayout};
use rodb::storage::Table;
use rodb::tpch::{orderdate_threshold, partkey_threshold};
use rodb::types::{HardwareConfig, SystemConfig, Value};

use crate::oracle::{AggDef, Func, Query};
use crate::tables::{Loaded, TableId, PAGE};

/// Which scanner serves a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Row layout, scalar engine.
    Row,
    /// Column layout, the paper's pipelined scanner (`scan_fast_path` off).
    ColScalar,
    /// Column layout, block kernels + code-space predicates + zone skipping.
    ColFast,
}

impl Path {
    pub fn layout(self) -> ScanLayout {
        match self {
            Path::Row => ScanLayout::Row,
            Path::ColScalar | Path::ColFast => ScanLayout::Column,
        }
    }

    pub fn fast(self) -> bool {
        self == Path::ColFast
    }

    pub fn name(self) -> &'static str {
        match self {
            Path::Row => "row",
            Path::ColScalar => "col_scalar",
            Path::ColFast => "col_fast",
        }
    }
}

/// The engine configuration every solo query runs under: the default
/// platform, one thread, 4 KB pages, only the fast-path switch varies.
pub fn solo_sys(path: Path) -> SystemConfig {
    SystemConfig {
        page_size: PAGE,
        scan_fast_path: path.fast(),
        ..SystemConfig::default()
    }
}

#[derive(Clone)]
pub struct Cell {
    pub name: String,
    pub table: Arc<Table>,
    pub path: Path,
    pub query: Query,
    /// Materialize result rows (`run_collect`) in the timed loop; `false`
    /// is the paper's measure-only `run`.
    pub collect: bool,
    /// Staged rows spliced behind the scan (snapshot reads only).
    pub tail: Option<Arc<Vec<Vec<Value>>>>,
}

impl Cell {
    pub fn predicates(&self) -> Vec<Predicate> {
        self.query
            .lt
            .iter()
            .map(|&(col, lit)| Predicate::lt(col, lit))
            .collect()
    }

    /// The engine's aggregate plan: group key and inputs as positions in
    /// the projection.
    pub fn agg_plan(&self) -> Option<(usize, Vec<AggSpec>, AggStrategy)> {
        let agg = self.query.agg.as_ref()?;
        let pos = |col: usize| {
            self.query
                .projection
                .iter()
                .position(|&c| c == col)
                .expect("aggregate inputs are projected")
        };
        let specs = agg
            .funcs
            .iter()
            .map(|&(f, col)| match f {
                Func::Count => AggSpec::count(),
                Func::Sum => AggSpec::sum(pos(col)),
                Func::Max => AggSpec::max(pos(col)),
            })
            .collect();
        let strategy = if agg.sorted {
            AggStrategy::Sorted
        } else {
            AggStrategy::Hash
        };
        Some((pos(agg.group_col), specs, strategy))
    }

    /// The query as a user of the library would build it, on configuration
    /// `sys`.
    pub fn builder_on(&self, sys: SystemConfig) -> QueryBuilder {
        let mut qb = QueryBuilder::new(self.table.clone(), HardwareConfig::default(), sys)
            .layout(self.path.layout())
            .select_indices(&self.query.projection);
        for p in self.predicates() {
            qb = qb.filter_pred(p).expect("predicate fits the schema");
        }
        if let Some(agg) = &self.query.agg {
            let key = &self.table.schema.columns()[agg.group_col].name;
            qb = qb.group_by(key).expect("group key exists");
            let (_, specs, strategy) = self.agg_plan().expect("agg is set");
            for s in specs {
                qb = qb.aggregate(s);
            }
            if strategy == AggStrategy::Sorted {
                qb = qb.sorted_aggregation();
            }
        }
        if let Some(tail) = &self.tail {
            qb = qb.wos_tail(tail.clone());
        }
        qb
    }

    pub fn builder(&self) -> QueryBuilder {
        self.builder_on(solo_sys(self.path))
    }

    /// Rows the scan reads: the table plus any staged tail.
    pub fn input_rows(&self) -> u64 {
        self.table.row_count + self.tail.as_ref().map_or(0, |t| t.len() as u64)
    }

    /// Columns whose stored values the scan has to open.
    pub fn needed_columns(&self) -> Vec<usize> {
        let mut cols = self.query.projection.clone();
        if let Some((col, _)) = self.query.lt {
            if !cols.contains(&col) {
                cols.push(col);
            }
        }
        cols
    }
}

/// Literal that makes `first column < literal` keep `selectivity` of a table.
pub fn threshold(id: TableId, selectivity: f64) -> i32 {
    if id.is_lineitem() {
        partkey_threshold(selectivity)
    } else {
        orderdate_threshold(selectivity)
    }
}

pub const SELECTIVITIES: [(f64, &str); 2] = [(0.001, "s0.1"), (0.10, "s10")];

/// The 24 paper base queries `select A1..Ak where A1 < lit` (4 tables ×
/// 2 selectivities × k ∈ {1, 4, all}, measure-only as in the paper) plus a
/// hash and a sorted `GROUP BY` over the 10 % of LINEITEM with collected
/// rows.
///
/// The sorted aggregate groups on `l_orderkey`, not `l_suppkey`: sort-based
/// grouping needs its input grouped on the key, which only the load order
/// of `l_orderkey` provides.
pub fn scan_cells(loaded: &Loaded, path: Path) -> Vec<Cell> {
    let mut cells = Vec::new();
    for id in TableId::ALL {
        let table = loaded.get(id);
        for (sel, sel_name) in SELECTIVITIES {
            for k in [1, 4, table.schema.len()] {
                cells.push(Cell {
                    name: format!("{}.k{k}.{sel_name}", id.name()),
                    table: table.clone(),
                    path,
                    query: Query {
                        projection: (0..k).collect(),
                        lt: Some((0, threshold(id, sel))),
                        agg: None,
                    },
                    collect: false,
                    tail: None,
                });
            }
        }
    }
    // l_suppkey = 2, l_orderkey = 1, l_quantity = 4, l_extendedprice = 5.
    for (name, group_col, sorted) in [("hash_suppkey", 2, false), ("sorted_orderkey", 1, true)] {
        cells.push(Cell {
            name: format!("lineitem.agg_{name}"),
            table: loaded.get(TableId::Lineitem).clone(),
            path,
            query: Query {
                projection: vec![group_col, 4, 5],
                lt: Some((0, threshold(TableId::Lineitem, 0.10))),
                agg: Some(AggDef {
                    group_col,
                    funcs: vec![(Func::Count, group_col), (Func::Sum, 4), (Func::Max, 5)],
                    sorted,
                }),
            },
            collect: true,
            tail: None,
        });
    }
    cells
}
