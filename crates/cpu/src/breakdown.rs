//! Converting event counts into the paper's stacked CPU-time breakdown
//! (§4.1, Figure 6 right).
//!
//! * **sys** — kernel time executing I/O requests.
//! * **usr-uop** — minimum compute time: uops ÷ 3 per cycle on the Pentium 4.
//! * **usr-L2** — minimum stall waiting on memory→L2: sequential traffic is
//!   delivered by the hardware prefetcher at one line (128 B) per 128 cycles
//!   and *overlaps* with usr-uop (only the excess stalls); each random access
//!   stalls the full measured 380-cycle latency.
//! * **usr-L1** — upper bound on L2→L1 transfer stalls.
//! * **usr-rest** — branch mispredictions and remaining stall factors.

use rodb_trace::{fields, Field};
use rodb_types::HardwareConfig;

use crate::costs::CostParams;
use crate::counters::CpuCounters;

fields! {
    /// CPU time split the way the paper's Figures 6–9 plot it (all seconds).
    /// Declared once; `merge`, `delta`, `to_json` and the `cpu.*_s` span keys
    /// derive from this list.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct CpuBreakdown {
        pub sys: f64,
        pub usr_uop: f64,
        pub usr_l2: f64,
        pub usr_l1: f64,
        pub usr_rest: f64,
    }
    total "total" = total;
}

impl CpuBreakdown {
    /// Total CPU seconds (the height of the stacked bar).
    pub fn total(&self) -> f64 {
        self.sys + self.usr_uop + self.usr_l2 + self.usr_l1 + self.usr_rest
    }

    /// User-mode seconds only.
    pub fn user(&self) -> f64 {
        self.usr_uop + self.usr_l2 + self.usr_l1 + self.usr_rest
    }

    /// Compute the breakdown from counters on a given platform.
    pub fn from_counters(c: &CpuCounters, hw: &HardwareConfig, costs: &CostParams) -> CpuBreakdown {
        let clock = hw.clock_hz;
        let usr_uop = c.uops / hw.uops_per_cycle / clock;

        // Sequential memory→L2 transfer time; overlapped with computation,
        // only the excess shows up as stall (§4.1).
        let seq_transfer = c.seq_bytes / hw.mem_bytes_per_cycle / clock;
        let rand_stall = c.rand_misses * hw.random_miss_cycles / clock;
        let usr_l2 = (seq_transfer - usr_uop).max(0.0) + rand_stall;

        let usr_l1 = c.l1_lines * costs.l1_line_cycles / clock;

        let usr_rest =
            c.branch_mispredicts * costs.mispredict_cycles / clock + costs.rest_frac * usr_uop;

        let sys = (c.io_requests * costs.sys_cycles_per_request
            + (c.io_bytes / 1024.0) * costs.sys_cycles_per_kib
            + c.io_switches * costs.sys_cycles_per_switch)
            / clock;

        CpuBreakdown {
            sys,
            usr_uop,
            usr_l2,
            usr_l1,
            usr_rest,
        }
    }

    /// Scale all components (virtual row-count adjustment).
    pub fn scaled(&self, k: f64) -> CpuBreakdown {
        Field::scaled(self, k)
    }

    /// Element-wise sum: [`CpuBreakdown::merge`] under the name the
    /// measured-wall benchmark calls.
    pub fn add(&mut self, other: &CpuBreakdown) {
        self.merge(other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw() -> HardwareConfig {
        HardwareConfig::default()
    }

    #[test]
    fn uop_math_matches_paper() {
        // 9.6e9 uops at 3 per cycle on 3.2 GHz = 1 second.
        let c = CpuCounters {
            uops: 9.6e9,
            ..Default::default()
        };
        let b = CpuBreakdown::from_counters(&c, &hw(), &CostParams::default());
        assert!((b.usr_uop - 1.0).abs() < 1e-9);
        // usr-rest includes the rest_frac share of uop time.
        assert!((b.usr_rest - 0.35).abs() < 1e-9);
        assert_eq!(b.usr_l2, 0.0);
    }

    #[test]
    fn sequential_memory_overlaps_with_compute() {
        // 3.2 GB streamed at 1 B/cycle = 1 s of bus time.
        let mut c = CpuCounters {
            seq_bytes: 3.2e9,
            ..Default::default()
        };
        // With no compute, the whole second is exposed as L2 stall.
        let b = CpuBreakdown::from_counters(&c, &hw(), &CostParams::default());
        assert!((b.usr_l2 - 1.0).abs() < 1e-9);
        // With 0.6 s of compute, only 0.4 s remains exposed.
        c.uops = 0.6 * 3.0 * 3.2e9;
        let b = CpuBreakdown::from_counters(&c, &hw(), &CostParams::default());
        assert!((b.usr_l2 - 0.4).abs() < 1e-9);
        // With compute exceeding the transfer, no L2 stall at all.
        c.uops = 2.0 * 3.0 * 3.2e9;
        let b = CpuBreakdown::from_counters(&c, &hw(), &CostParams::default());
        assert_eq!(b.usr_l2, 0.0);
    }

    #[test]
    fn random_misses_always_stall() {
        let c = CpuCounters {
            uops: 9.6e9, // 1 s compute
            rand_misses: 3.2e9 / 380.0,
            ..Default::default()
        };
        let b = CpuBreakdown::from_counters(&c, &hw(), &CostParams::default());
        // Random stalls are not overlapped (≈1 s despite ample compute).
        assert!((b.usr_l2 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sys_accounts_requests_bytes_switches() {
        let c = CpuCounters {
            io_bytes: 9.5e9,
            io_requests: 9.5e9 / 131072.0,
            io_switches: 1.0,
            ..Default::default()
        };
        let b = CpuBreakdown::from_counters(&c, &hw(), &CostParams::default());
        // ≈ paper's ~5 s of system time for the 9.5 GB LINEITEM scan (Fig. 6).
        assert!(b.sys > 4.0 && b.sys < 6.5, "sys = {}", b.sys);
    }

    #[test]
    fn totals_and_scaling() {
        let c = CpuCounters {
            uops: 9.6e9,
            seq_bytes: 6.4e9,
            l1_lines: 1.0e7,
            branch_mispredicts: 1.0e6,
            io_bytes: 1.0e9,
            io_requests: 100.0,
            io_switches: 2.0,
            ..Default::default()
        };
        let b = CpuBreakdown::from_counters(&c, &hw(), &CostParams::default());
        let total = b.sys + b.usr_uop + b.usr_l2 + b.usr_l1 + b.usr_rest;
        assert!((b.total() - total).abs() < 1e-12);
        assert!((b.user() - (total - b.sys)).abs() < 1e-12);
        let s = b.scaled(3.0);
        assert!((s.total() - 3.0 * b.total()).abs() < 1e-9);
        // from_counters(scaled) == scaled(from_counters) except for the
        // nonlinear overlap term; with transfer ≥ uop both scale linearly.
        let b2 = CpuBreakdown::from_counters(&c.scaled(3.0), &hw(), &CostParams::default());
        assert!((b2.total() - s.total()).abs() < 1e-9);
    }

    #[test]
    fn json_round_trips_with_the_total_last() {
        use rodb_trace::Json;
        let b = CpuBreakdown {
            sys: 1.0,
            usr_uop: 2.5,
            usr_l2: 0.5,
            usr_l1: 0.25,
            usr_rest: 0.125,
        };
        let j = b.to_json();
        assert_eq!(j.get("total").unwrap().as_f64(), Some(b.total()));
        let parsed = Json::parse(&j.pretty()).unwrap();
        assert_eq!(parsed.get("usr_l2").unwrap().as_f64(), Some(0.5));
        assert!(j
            .compact()
            .ends_with(&format!("\"total\": {}}}", b.total())));
        let c = CpuCounters {
            uops: 10.0,
            ..Default::default()
        };
        assert_eq!(c.to_json().get("uops").unwrap().as_f64(), Some(10.0));
    }
}
