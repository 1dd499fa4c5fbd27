//! Simulated I/O subsystem (§2.2.3 of the paper).
//!
//! The paper reads through a custom Linux-AIO prefetching interface over a
//! 3-disk software RAID. Here the same code paths run against a discrete
//! simulator: [`disk::DiskArray`] charges transfer and seek time on a virtual
//! clock (with a scale factor so laptop-sized files report paper-sized
//! times), and [`stream::FileStream`] is the AIO-style prefetcher that turns
//! page requests into burst reads. Competing scans (§4.5 / Fig. 11) are
//! modelled as interleaved burst service on the shared array.

pub mod cache;
pub mod disk;
pub mod stats;
pub mod stream;

pub use cache::{PageCache, PageKey};
pub use disk::{
    merge_parallel, shared_page_cache, CacheLookup, DiskArray, FaultInjector, FileId,
    SharedPageCache,
};
pub use stats::{CacheStats, IoStats, RecoveryStats};
pub use stream::{FileStream, PageRef, SharedDisk};
