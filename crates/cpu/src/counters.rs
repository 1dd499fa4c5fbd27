//! Raw event counters — the simulator's stand-in for PAPI (§3.2).
//!
//! The paper measures micro-architectural events with hardware performance
//! counters and converts them to time with the §4.1 arithmetic. Our engine
//! *counts the same events deterministically* as it executes (uops issued,
//! bytes streamed, lines touched, random misses, kernel I/O work) and the
//! same arithmetic converts them into the stacked breakdown of Figure 6.
//!
//! The event list is declared once through [`rodb_trace::fields!`]; `merge`,
//! `delta`, `scaled`, `to_json` and the `cnt.*` span keys derive from it.

use rodb_trace::fields;

fields! {
    /// Accumulated micro-architectural and kernel event counts.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct CpuCounters {
        /// User-mode micro-operations executed.
        pub uops: f64,
        /// Bytes brought from main memory to L2 by *sequential* (hardware
        /// prefetched) access patterns.
        pub seq_bytes: f64,
        /// Non-prefetched (random) L2 misses, each stalling the full memory
        /// latency.
        pub rand_misses: f64,
        /// L2→L1 cache line transfers (L1 misses).
        pub l1_lines: f64,
        /// Mispredicted branches.
        pub branch_mispredicts: f64,
        /// Kernel-side I/O requests submitted (I/O-unit granularity).
        pub io_requests: f64,
        /// Kernel-side bytes moved through the I/O path.
        pub io_bytes: f64,
        /// File switches the kernel scheduler handled (one per disk seek the
        /// foreground query caused) — the paper's "more work needed by the Linux
        /// scheduler to handle read requests for multiple files".
        pub io_switches: f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodb_trace::Field;

    #[test]
    fn merge_and_scale() {
        let mut a = CpuCounters {
            uops: 10.0,
            seq_bytes: 100.0,
            ..Default::default()
        };
        let b = CpuCounters {
            uops: 5.0,
            rand_misses: 2.0,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.uops, 15.0);
        assert_eq!(a.rand_misses, 2.0);
        let s = a.scaled(2.0);
        assert_eq!(s.uops, 30.0);
        assert_eq!(s.seq_bytes, 200.0);
    }
}
