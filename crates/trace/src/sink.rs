//! Event sink the disk simulator writes into while tracing is on.
//!
//! The sink is a plain `Rc<RefCell<EventBuf>>` distinct from the tracer's
//! span table so the simulator can emit events while its own `RefCell`
//! borrow is live without ever touching span state. Events carry the
//! *simulated* clock timestamp — the paper's time base — and are capped:
//! past [`EventBuf::CAP`] the sink keeps counting but stops storing, so a
//! 100 GB scan cannot balloon the trace.

use std::cell::RefCell;
use std::rc::Rc;

/// Kinds of disk-simulator events worth seeing on a trace timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A burst of sequential page reads issued to the array.
    Burst,
    /// Pages skipped transfer-free by zone maps.
    ZoneSkip,
    /// A CRC-failing read retried on the next replica.
    Retry,
    /// A successful replica read written back over the bad page.
    Repair,
    /// A page bad on every replica, quarantined.
    Quarantine,
    /// Rows dropped by a degraded (`Skip`) scan.
    DropRows,
    /// A page request served from a resident cache frame (transfer skipped).
    CacheHit,
    /// A cache frame evicted to make room (LRU-K victim).
    CacheEvict,
}

impl EventKind {
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Burst => "burst",
            EventKind::ZoneSkip => "zone_skip",
            EventKind::Retry => "retry",
            EventKind::Repair => "repair",
            EventKind::Quarantine => "quarantine",
            EventKind::DropRows => "drop_rows",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheEvict => "cache_evict",
        }
    }
}

/// One disk-simulator event at a simulated-clock instant.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Simulated seconds since the start of the execution context.
    pub ts_s: f64,
    pub kind: EventKind,
    /// File id the event belongs to (0 when not applicable).
    pub file: u64,
    /// First page involved (byte offset for bursts).
    pub page: u64,
    /// Pages skipped or quarantined, rows dropped, the replica index a
    /// retry read; 1 for a burst, repair, cache hit or eviction.
    pub count: u64,
}

/// Bounded event buffer. Default-constructed empty; push past the cap
/// increments `dropped` instead of growing.
#[derive(Debug, Default)]
pub struct EventBuf {
    pub events: Vec<TraceEvent>,
    pub dropped: u64,
}

impl EventBuf {
    /// Storage cap — generous for the repo's query sizes, tiny for RAM.
    pub const CAP: usize = 65_536;

    pub fn push(&mut self, event: TraceEvent) {
        if self.events.len() < Self::CAP {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }
}

/// Shared handle the disk simulator holds. `None` on the hot path costs
/// one branch per burst.
pub type TraceSink = Rc<RefCell<EventBuf>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_caps_storage_but_keeps_counting() {
        let mut buf = EventBuf::default();
        for i in 0..(EventBuf::CAP + 10) {
            buf.push(TraceEvent {
                ts_s: i as f64,
                kind: EventKind::Burst,
                file: 0,
                page: i as u64,
                count: 1,
            });
        }
        assert_eq!(buf.events.len(), EventBuf::CAP);
        assert_eq!(buf.dropped, 10);
    }
}
