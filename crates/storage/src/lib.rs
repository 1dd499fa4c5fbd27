//! Read-optimized storage manager (§2.2.1 of the paper).
//!
//! Dense-packed 4 KB pages (no slotted structure — bulk loads only), stored
//! adjacently in per-table (row layout) or per-column (column layout) files,
//! exactly as the paper's Figure 3. The [`loader`] is the bulk-load path,
//! [`wos`] implements the write-optimized staging area + merge of Figure 1,
//! and [`catalog`] tracks loaded tables.

pub mod catalog;
mod crc;
pub mod loader;
pub mod page;
pub mod page_packed;
pub mod page_pax;
pub mod quarantine;
pub mod table;
pub mod wal;
pub mod wos;

pub use catalog::Catalog;
pub use loader::{BuildLayouts, TableBuilder};
pub use page::{
    page_zone, ColumnPage, ColumnPageBuilder, PageView, RowPage, RowPageBuilder, VerifiedPage,
};
pub use page_packed::{PackedRowPage, PackedRowPageBuilder};
pub use page_pax::{PaxPage, PaxPageBuilder};
pub use quarantine::{scrub, Quarantine, QuarantinedPage, ScrubReport};
pub use table::{ColStorage, ColumnStorage, Layout, Morsel, RowFormat, RowStorage, Table};
pub use wal::{Wal, WalRecord, WalReplay};
pub use wos::WriteOptimizedStore;
