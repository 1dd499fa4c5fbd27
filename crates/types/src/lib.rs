//! Foundational types for **rodb**, a reproduction of *"Performance Tradeoffs
//! in Read-Optimized Databases"* (Harizopoulos, Liang, Abadi, Madden — VLDB 2006).
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`DataType`] / [`Value`] — the paper's two attribute kinds: four-byte
//!   integers and fixed-length text (§3.1).
//! * [`Schema`] / [`Column`] — relational schemas with the row-store padding
//!   rule the paper uses (LINEITEM: 150 → 152 stored bytes).
//! * [`mod@tuple`] — raw row-major tuple encode/decode against a schema.
//! * [`RecordId`] and friends — record addressing as *(page, slot)*, matching
//!   the paper's "page ID + position in page gives the Record ID".
//! * [`config`] — the system constants of §2.2/§3.2 (4 KB pages, 128 KB I/O
//!   units, 100-tuple blocks, the Pentium-4/3-disk reference platform).
//! * [`Error`] — the workspace error type.

pub mod config;
pub mod datatype;
pub mod error;
pub mod ids;
pub mod rng;
pub mod schema;
pub mod tuple;
pub mod value;

pub use config::{
    CacheSpec, FaultSpec, HardwareConfig, IngestSpec, OnCorrupt, ServiceSpec, SystemConfig,
};
pub use datatype::DataType;
pub use error::{CorruptError, CorruptKind, Error, Result};
pub use ids::{ColumnId, PageId, RecordId, TableId};
pub use rng::SplitMix64;
pub use schema::{Column, Schema};
pub use value::Value;
