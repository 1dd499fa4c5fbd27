//! Set-up: the paper's four tables, generated from the seed and bulk-loaded.

use std::sync::Arc;
use std::time::Instant;

use rodb::storage::{BuildLayouts, Table};
use rodb::tpch::{load_lineitem, load_orders, Variant};

/// Page size of every table (the paper's 4 KB).
pub const PAGE: usize = 4096;

/// A run sets up in two windows, before the first operation and after the
/// last, and `setup_s` is the quiet wall over both. Loading streams through
/// memory, which the host's neighbours slow by 50–75 % for seconds at a
/// time (ORDERS loads in 38, 57 or 67 ms in stretches); back-to-back
/// repetitions all fall into the same stretch, two windows twenty seconds
/// apart less often. A window repeats the set-up until it has spent
/// `SETUP_WINDOW_S` on it, at least `SETUP_MIN_REPS` and at most
/// `SETUP_MAX_REPS` times.
const SETUP_WINDOW_S: f64 = 1.0;
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableId {
    Lineitem,
    Orders,
    LineitemZ,
    OrdersZ,
}

impl TableId {
    pub const ALL: [TableId; 4] = [
        TableId::Lineitem,
        TableId::Orders,
        TableId::LineitemZ,
        TableId::OrdersZ,
    ];

    pub fn is_lineitem(self) -> bool {
        matches!(self, TableId::Lineitem | TableId::LineitemZ)
    }

    pub fn name(self) -> &'static str {
        match self {
            TableId::Lineitem => "lineitem",
            TableId::Orders => "orders",
            TableId::LineitemZ => "lineitem_z",
            TableId::OrdersZ => "orders_z",
        }
    }

    fn load(self, rows: u64, seed: u64, layouts: BuildLayouts) -> Table {
        let variant = match self {
            TableId::Lineitem | TableId::Orders => Variant::Plain,
            TableId::LineitemZ | TableId::OrdersZ => Variant::Compressed,
        };
        let loaded = if self.is_lineitem() {
            load_lineitem(rows, seed, PAGE, layouts, variant)
        } else {
            load_orders(rows, seed, PAGE, layouts, variant)
        };
        loaded.unwrap_or_else(|e| panic!("bulk load of {} failed: {e}", self.name()))
    }
}

/// The tables one workload runs on, with what loading them cost.
pub struct Loaded {
    wanted: Vec<(TableId, BuildLayouts)>,
    rows: u64,
    seed: u64,
    measure_setup: bool,
    pub tables: Vec<(TableId, Arc<Table>)>,
    /// Wall of every complete generate + bulk-load of `tables`.
    pub setup_walls: Vec<f64>,
    /// Stored file bytes ÷ (rows × logical tuple width), summed over the
    /// loaded tables and layouts.
    pub stored_bytes_per_user_byte: f64,
}

impl Loaded {
    pub fn get(&self, id: TableId) -> &Arc<Table> {
        &self
            .tables
            .iter()
            .find(|(t, _)| *t == id)
            .unwrap_or_else(|| panic!("{} is not loaded", id.name()))
            .1
    }

    /// The second set-up window: the same tables built again and dropped.
    pub fn setup_again(&mut self) {
        if self.measure_setup {
            let (_, walls) = setup_window(&self.wanted, self.rows, self.seed, true);
            self.setup_walls.extend(walls);
        }
    }
}

/// Generate and bulk-load `wanted` once, or for one window's worth of
/// repetitions; the last copy and every repetition's wall.
fn setup_window(
    wanted: &[(TableId, BuildLayouts)],
    rows: u64,
    seed: u64,
    repeat: bool,
) -> (Vec<(TableId, Arc<Table>)>, Vec<f64>) {
    let mut walls: Vec<f64> = Vec::new();
    let mut tables = Vec::new();
    loop {
        // Drop the previous copy first so peak memory is one set of tables.
        tables.clear();
        let t0 = Instant::now();
        for &(id, layouts) in wanted {
            tables.push((id, Arc::new(id.load(rows, seed, layouts))));
        }
        walls.push(t0.elapsed().as_secs_f64());
        let spent: f64 = walls.iter().sum();
        let enough = walls.len() >= SETUP_MIN_REPS && spent >= SETUP_WINDOW_S;
        if !repeat || enough || walls.len() >= SETUP_MAX_REPS {
            return (tables, walls);
        }
    }
}

/// Generate and bulk-load `wanted`: the first set-up window when
/// `measure_setup` is set, one load otherwise.
pub fn load(
    wanted: &[(TableId, BuildLayouts)],
    rows: u64,
    seed: u64,
    measure_setup: bool,
) -> Loaded {
    let (tables, walls) = setup_window(wanted, rows, seed, measure_setup);
    let (stored, user) = tables.iter().fold((0u64, 0u64), |(s, u), (_, t)| {
        let (bytes, layouts) = file_bytes(t);
        (
            s + bytes,
            u + t.row_count * t.schema.logical_width() as u64 * layouts,
        )
    });
    Loaded {
        wanted: wanted.to_vec(),
        rows,
        seed,
        measure_setup,
        tables,
        setup_walls: walls,
        stored_bytes_per_user_byte: stored as f64 / user.max(1) as f64,
    }
}

/// Stored bytes of a table and how many layouts they cover.
pub fn file_bytes(t: &Table) -> (u64, u64) {
    let row = t.row.as_ref().map(|r| r.byte_len());
    let col = t.col.as_ref().map(|c| c.byte_len());
    (
        row.unwrap_or(0) + col.unwrap_or(0),
        row.is_some() as u64 + col.is_some() as u64,
    )
}
