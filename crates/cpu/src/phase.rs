//! The meter's per-phase table of counters.
//!
//! Every semantic event the engine reports belongs to one fixed *phase* of
//! query work (iterate, predicate, decode, gather, project, aggregate,
//! sort, kernel I/O, memory traffic). The meter keeps one [`CpuCounters`]
//! per phase and nothing else; the query-wide totals are their sum. The
//! tracer snapshots this table around each operator `next()` call and
//! synthesizes phase child spans from the deltas.

use crate::counters::CpuCounters;

/// The fixed phase taxonomy. Every meter event maps to exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuPhase {
    /// Tuple/value loop overhead and block-iterator calls.
    Iter,
    /// Predicate evaluation (scalar and vectorized).
    Predicate,
    /// Decompression (scalar and block kernels).
    Decode,
    /// Selection-vector gathers (fast path).
    Gather,
    /// Projection copies and output-block streaming.
    Project,
    /// Aggregate updates and hash probes.
    Agg,
    /// Key comparisons (sorting, merging).
    Sort,
    /// Kernel-side I/O request work.
    IoKernel,
    /// Memory-hierarchy traffic (prefetched streams, random misses, L1).
    Memory,
    /// Raw events reported without a finer home.
    Other,
}

impl CpuPhase {
    pub const ALL: [CpuPhase; 10] = [
        CpuPhase::Iter,
        CpuPhase::Predicate,
        CpuPhase::Decode,
        CpuPhase::Gather,
        CpuPhase::Project,
        CpuPhase::Agg,
        CpuPhase::Sort,
        CpuPhase::IoKernel,
        CpuPhase::Memory,
        CpuPhase::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CpuPhase::Iter => "iter",
            CpuPhase::Predicate => "predicate",
            CpuPhase::Decode => "decode",
            CpuPhase::Gather => "gather",
            CpuPhase::Project => "project",
            CpuPhase::Agg => "agg",
            CpuPhase::Sort => "sort",
            CpuPhase::IoKernel => "io_kernel",
            CpuPhase::Memory => "memory",
            CpuPhase::Other => "other",
        }
    }
}

/// Per-phase counters. Indexing follows [`CpuPhase::ALL`] order.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfile {
    per: [CpuCounters; CpuPhase::ALL.len()],
}

impl PhaseProfile {
    pub fn get(&self, phase: CpuPhase) -> &CpuCounters {
        &self.per[phase as usize]
    }

    pub fn get_mut(&mut self, phase: CpuPhase) -> &mut CpuCounters {
        &mut self.per[phase as usize]
    }

    /// Element-wise accumulate (merging per-worker profiles).
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (mine, theirs) in self.per.iter_mut().zip(other.per.iter()) {
            mine.merge(theirs);
        }
    }

    /// Iterate `(phase, counters)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CpuPhase, &CpuCounters)> {
        CpuPhase::ALL.iter().map(move |&p| (p, self.get(p)))
    }

    /// The query-wide totals: the sum over all phases.
    pub fn total(&self) -> CpuCounters {
        let mut sum = CpuCounters::default();
        for c in &self.per {
            sum.merge(c);
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_total() {
        let mut a = PhaseProfile::default();
        a.get_mut(CpuPhase::Decode).uops = 10.0;
        a.get_mut(CpuPhase::Predicate).uops = 5.0;
        let mut b = PhaseProfile::default();
        b.get_mut(CpuPhase::Decode).uops = 1.0;
        b.get_mut(CpuPhase::Memory).seq_bytes = 100.0;
        a.merge(&b);
        assert_eq!(a.get(CpuPhase::Decode).uops, 11.0);
        let t = a.total();
        assert_eq!(t.uops, 16.0);
        assert_eq!(t.seq_bytes, 100.0);
        assert_eq!(CpuPhase::Decode.name(), "decode");
    }
}
