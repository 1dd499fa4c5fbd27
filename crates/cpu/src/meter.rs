//! The engine-facing CPU meter.
//!
//! Operators report semantic events ("evaluated N predicates", "copied this
//! projection", "decoded N FOR-delta codes") and the meter turns them into
//! raw counters using [`OpCosts`]. The memory-hierarchy side implements the
//! §2.1.2/§4.1 prefetcher semantics: densely touched regions stream
//! sequentially (prefetched, overlappable), sparsely touched regions pay the
//! full random-access latency per line.

use rodb_compress::CodecKind;
use rodb_types::HardwareConfig;

use crate::breakdown::CpuBreakdown;
use crate::costs::{CostParams, OpCosts};
use crate::counters::CpuCounters;
use crate::phase::{CpuPhase, PhaseProfile};

/// Accumulates one execution's CPU work. Its one record is the per-phase
/// table: every event lands in the phase it names, and the query-wide
/// counters are the sum over phases.
#[derive(Debug, Clone)]
pub struct CpuMeter {
    phases: PhaseProfile,
    costs: OpCosts,
    params: CostParams,
}

impl Default for CpuMeter {
    fn default() -> Self {
        CpuMeter::new(OpCosts::default(), CostParams::default())
    }
}

impl CpuMeter {
    pub fn new(costs: OpCosts, params: CostParams) -> CpuMeter {
        CpuMeter {
            phases: PhaseProfile::default(),
            costs,
            params,
        }
    }

    /// The query-wide totals. Exact: a field charged by several phases is
    /// only ever charged integer counts, so the sum is order-free.
    pub fn counters(&self) -> CpuCounters {
        self.phases.total()
    }

    /// The per-phase table, which the tracer snapshots around operator
    /// calls.
    pub fn phases(&self) -> &PhaseProfile {
        &self.phases
    }

    #[inline]
    fn charge_uops(&mut self, phase: CpuPhase, uops: f64) {
        self.phases.get_mut(phase).uops += uops;
    }

    pub fn costs(&self) -> &OpCosts {
        &self.costs
    }

    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Final conversion to the paper's stacked breakdown.
    pub fn breakdown(&self, hw: &HardwareConfig) -> CpuBreakdown {
        CpuBreakdown::from_counters(&self.counters(), hw, &self.params)
    }

    /// Fold another meter's phase table into this one (merging the
    /// per-worker meters of a parallel execution into one query-wide
    /// meter). Cost tables are taken from `self`; workers of one query
    /// share them.
    pub fn merge(&mut self, other: &CpuMeter) {
        self.phases.merge(&other.phases);
    }

    // ----- raw events ------------------------------------------------------

    pub fn add_uops(&mut self, n: f64) {
        self.charge_uops(CpuPhase::Other, n);
    }

    /// Record `taken`/`not_taken` outcomes of one branch site; the minority
    /// outcome approximates mispredictions.
    pub fn branches(&mut self, taken: f64, not_taken: f64) {
        self.branches_in(CpuPhase::Other, taken, not_taken);
    }

    fn branches_in(&mut self, phase: CpuPhase, taken: f64, not_taken: f64) {
        self.phases.get_mut(phase).branch_mispredicts += taken.min(not_taken);
    }

    pub fn random_miss(&mut self, n: f64) {
        self.phases.get_mut(CpuPhase::Other).rand_misses += n;
    }

    // ----- I/O-side kernel work (driven from IoStats) -----------------------

    /// Charge kernel work for the disk traffic a query performed.
    /// `bytes` are bytes moved, `io_unit` the request granularity,
    /// `switches` the number of file switches (seeks). When counters will be
    /// scaled to virtual row counts afterwards, pass pre-divided values.
    pub fn io_kernel_work(&mut self, bytes: f64, io_unit: usize, switches: f64) {
        let c = self.phases.get_mut(CpuPhase::IoKernel);
        c.io_bytes += bytes;
        c.io_requests += bytes / io_unit as f64;
        c.io_switches += switches;
    }

    // ----- scan-side events -------------------------------------------------

    /// Row scanner visited `n` tuples (loop overhead only).
    pub fn row_iter(&mut self, n: f64) {
        self.charge_uops(CpuPhase::Iter, n * self.costs.row_iter);
    }

    /// A column scan node visited `n` values (loop overhead only).
    pub fn col_iter(&mut self, n: f64) {
        self.charge_uops(CpuPhase::Iter, n * self.costs.col_iter);
    }

    /// Evaluated a predicate on `n` values of which `passed` qualified.
    pub fn predicate(&mut self, n: f64, passed: f64) {
        self.charge_uops(CpuPhase::Predicate, n * self.costs.predicate);
        self.branches_in(CpuPhase::Predicate, passed, n - passed);
    }

    /// Copied `tuples` projections of `attrs` attributes / `bytes` total
    /// bytes into an output block.
    pub fn project(&mut self, tuples: f64, attrs: f64, bytes: f64) {
        self.charge_uops(
            CpuPhase::Project,
            tuples * attrs * self.costs.project_attr + bytes * self.costs.copy_byte,
        );
    }

    /// Pipelined column scanner consumed `n` {position, value} pairs.
    pub fn position_pairs(&mut self, n: f64) {
        self.charge_uops(CpuPhase::Iter, n * self.costs.position_pair);
    }

    /// `n` block-iterator `next()` calls crossed operator boundaries.
    pub fn block_calls(&mut self, n: f64) {
        self.charge_uops(CpuPhase::Iter, n * self.costs.block_call);
    }

    /// Decoded `n` stored codes of codec family `kind`.
    pub fn decode(&mut self, kind: CodecKind, n: f64) {
        self.charge_uops(CpuPhase::Decode, n * self.costs.decode(kind));
    }

    /// Decoded `n` stored codes through the block kernels (fast path).
    pub fn decode_block(&mut self, kind: CodecKind, n: f64) {
        self.charge_uops(CpuPhase::Decode, n * self.costs.block_decode(kind));
    }

    /// Evaluated a predicate on `n` values inside a vectorized loop (fast
    /// path). Branchless — compare results are appended to a selection
    /// vector, so no misprediction exposure is charged.
    pub fn vec_predicate(&mut self, n: f64) {
        self.charge_uops(CpuPhase::Predicate, n * self.costs.vec_predicate);
    }

    /// Gathered `n` surviving values out of decoded blocks via a selection
    /// vector (fast path).
    pub fn selvec_gather(&mut self, n: f64) {
        self.charge_uops(CpuPhase::Gather, n * self.costs.selvec_gather);
    }

    /// Updated `n` aggregate accumulators.
    pub fn agg_update(&mut self, n: f64) {
        self.charge_uops(CpuPhase::Agg, n * self.costs.agg_update);
    }

    /// `n` hash-table probes over a table of `table_bytes`; probes miss L2
    /// when the table exceeds it.
    pub fn hash_probe(&mut self, n: f64, table_bytes: f64, l2_bytes: f64) {
        self.charge_uops(CpuPhase::Agg, n * self.costs.hash_probe);
        if table_bytes > l2_bytes {
            self.phases.get_mut(CpuPhase::Agg).rand_misses += n;
        }
    }

    /// `n` key comparisons (sorting, merging).
    pub fn key_compare(&mut self, n: f64) {
        self.charge_uops(CpuPhase::Sort, n * self.costs.key_compare);
    }

    // ----- memory-hierarchy model -------------------------------------------

    /// Charge memory traffic for touching `touched_values` values of
    /// `value_width` bytes within a region of `region_bytes` total.
    ///
    /// Dense access (≥ half the region's cache lines touched) triggers the
    /// hardware prefetcher: the whole region streams sequentially to L2 and
    /// the touched lines move on to L1. Sparse access pays a random-latency
    /// miss per touched line instead (§2.1.2: the prefetcher only engages on
    /// predictable patterns).
    pub fn memory_access(
        &mut self,
        hw: &HardwareConfig,
        region_bytes: f64,
        touched_values: f64,
        value_width: f64,
    ) {
        if region_bytes <= 0.0 || touched_values <= 0.0 {
            return;
        }
        let line = hw.line_bytes;
        let l1_line = self.params.l1_line_bytes;
        let lines_per_value = (value_width / line).ceil().max(1.0);
        let region_lines = (region_bytes / line).ceil();
        let touched_lines = (touched_values * lines_per_value).min(region_lines);
        let (seq_bytes, rand_misses) = if touched_lines * 2.0 >= region_lines {
            // Sequential: prefetcher streams the region.
            (region_bytes, 0.0)
        } else {
            (0.0, touched_lines)
        };
        // L2→L1 movement covers only the touched data either way.
        let l1_lines_per_value = (value_width / l1_line).ceil().max(1.0);
        let region_l1_lines = (region_bytes / l1_line).ceil();
        let l1_lines = (touched_values * l1_lines_per_value).min(region_l1_lines);
        let c = self.phases.get_mut(CpuPhase::Memory);
        c.seq_bytes += seq_bytes;
        c.rand_misses += rand_misses;
        c.l1_lines += l1_lines;
    }

    /// Charge purely sequential streaming of `bytes` (e.g. writing output
    /// blocks).
    pub fn stream_bytes(&mut self, bytes: f64) {
        let l1_lines = bytes / self.params.l1_line_bytes;
        let c = self.phases.get_mut(CpuPhase::Memory);
        c.seq_bytes += bytes;
        c.l1_lines += l1_lines;
    }

    /// Charge the memory→L2 side only: a region streamed sequentially by the
    /// hardware prefetcher (a scanner passing over a whole file).
    pub fn seq_region(&mut self, bytes: f64) {
        self.phases.get_mut(CpuPhase::Memory).seq_bytes += bytes;
    }

    /// Charge the L2→L1 side only: `n` values of `width` bytes actually
    /// examined by the CPU, each on its own cache line (row-major access:
    /// every tuple's field sits on a different line).
    pub fn touch_l1(&mut self, n: f64, width: f64) {
        let lines_per_value = (width / self.params.l1_line_bytes).ceil().max(1.0);
        self.phases.get_mut(CpuPhase::Memory).l1_lines += n * lines_per_value;
    }

    /// Charge the L2→L1 side for *densely packed* access: `bytes` contiguous
    /// bytes share lines (column minipages — the PAX cache benefit).
    pub fn touch_l1_dense(&mut self, bytes: f64) {
        self.phases.get_mut(CpuPhase::Memory).l1_lines += bytes / self.params.l1_line_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw() -> HardwareConfig {
        HardwareConfig::default()
    }

    #[test]
    fn dense_access_streams_whole_region() {
        let mut m = CpuMeter::default();
        // 10% of 4-byte values in a region: touched lines = n/10 vs n*4/128
        // lines → touched ≥ half the lines → sequential.
        let n = 1_000_000.0;
        m.memory_access(&hw(), n * 4.0, n * 0.1, 4.0);
        assert_eq!(m.counters().seq_bytes, n * 4.0);
        assert_eq!(m.counters().rand_misses, 0.0);
        assert!(m.counters().l1_lines > 0.0);
    }

    #[test]
    fn sparse_access_pays_random_misses() {
        let mut m = CpuMeter::default();
        // 0.1% of values touched: far below half the lines.
        let n = 1_000_000.0;
        m.memory_access(&hw(), n * 4.0, n * 0.001, 4.0);
        assert_eq!(m.counters().seq_bytes, 0.0);
        assert_eq!(m.counters().rand_misses, n * 0.001);
    }

    #[test]
    fn wide_values_touch_multiple_lines() {
        let mut m = CpuMeter::default();
        // 69-byte strings sparse: 1000 values → 1000 misses (≤ 2 lines each,
        // capped by per-value line count of ceil(69/128)=1).
        m.memory_access(&hw(), 69.0e6, 1000.0, 69.0);
        assert_eq!(m.counters().rand_misses, 1000.0);
        let mut m2 = CpuMeter::default();
        // 200-byte values need 2 L2 lines each.
        m2.memory_access(&hw(), 200.0e6, 1000.0, 200.0);
        assert_eq!(m2.counters().rand_misses, 2000.0);
    }

    #[test]
    fn predicate_counts_uops_and_mispredicts() {
        let mut m = CpuMeter::default();
        m.predicate(1000.0, 100.0);
        assert_eq!(m.counters().uops, 1000.0 * OpCosts::default().predicate);
        assert_eq!(m.counters().branch_mispredicts, 100.0);
        // Non-selective predicates mispredict on the minority side.
        let mut m = CpuMeter::default();
        m.predicate(1000.0, 900.0);
        assert_eq!(m.counters().branch_mispredicts, 100.0);
    }

    #[test]
    fn decode_charges_by_codec() {
        let mut m = CpuMeter::default();
        m.decode(CodecKind::ForDelta, 100.0);
        let delta_uops = m.counters().uops;
        let mut m2 = CpuMeter::default();
        m2.decode(CodecKind::For, 100.0);
        assert!(m2.counters().uops < delta_uops);
    }

    #[test]
    fn io_kernel_work_populates_sys_counters() {
        let mut m = CpuMeter::default();
        m.io_kernel_work(1.0e9, 131072, 10.0);
        assert_eq!(m.counters().io_bytes, 1.0e9);
        assert!((m.counters().io_requests - 1.0e9 / 131072.0).abs() < 1e-9);
        assert_eq!(m.counters().io_switches, 10.0);
        let b = m.breakdown(&hw());
        assert!(b.sys > 0.0);
        assert_eq!(b.usr_uop, 0.0);
    }

    #[test]
    fn hash_probe_misses_only_when_table_exceeds_l2() {
        let mut m = CpuMeter::default();
        m.hash_probe(100.0, 0.5e6, 1.0e6);
        assert_eq!(m.counters().rand_misses, 0.0);
        m.hash_probe(100.0, 2.0e6, 1.0e6);
        assert_eq!(m.counters().rand_misses, 100.0);
    }

    #[test]
    fn zero_work_is_zero() {
        let mut m = CpuMeter::default();
        m.memory_access(&hw(), 0.0, 0.0, 4.0);
        m.memory_access(&hw(), 100.0, 0.0, 4.0);
        assert_eq!(m.counters(), CpuCounters::default());
    }

    /// One of every event, with integer-valued amounts as the engine
    /// charges them.
    fn every_event() -> Vec<fn(&mut CpuMeter)> {
        vec![
            |m| m.row_iter(1000.0),
            |m| m.predicate(1000.0, 100.0),
            |m| m.decode(CodecKind::For, 500.0),
            |m| m.decode_block(CodecKind::Dict, 500.0),
            |m| m.vec_predicate(500.0),
            |m| m.selvec_gather(50.0),
            |m| m.project(100.0, 2.0, 800.0),
            |m| m.agg_update(100.0),
            |m| m.hash_probe(100.0, 2.0e6, 1.0e6),
            |m| m.key_compare(64.0),
            |m| m.io_kernel_work(1.0e6, 131072, 3.0),
            |m| m.memory_access(&hw(), 4.0e6, 1.0e6, 4.0),
            |m| m.memory_access(&hw(), 4.0e6, 1000.0, 4.0),
            |m| m.stream_bytes(2048.0),
            |m| m.seq_region(4096.0),
            |m| m.touch_l1(10.0, 4.0),
            |m| m.touch_l1_dense(256.0),
            |m| m.add_uops(7.0),
            |m| m.branches(3.0, 9.0),
            |m| m.random_miss(2.0),
        ]
    }

    fn run(events: &[fn(&mut CpuMeter)]) -> CpuMeter {
        let mut m = CpuMeter::default();
        for event in events {
            event(&mut m);
        }
        m
    }

    #[test]
    fn phase_profile_partitions_the_totals() {
        use crate::phase::CpuPhase;
        let m = run(&every_event());
        let phases = m.phases();
        assert_eq!(phases.total(), m.counters());
        assert!(phases.get(CpuPhase::Iter).uops > 0.0);
        assert!(phases.get(CpuPhase::Decode).uops > 0.0);
        assert!(phases.get(CpuPhase::Gather).uops > 0.0);
        assert!(phases.get(CpuPhase::Project).uops > 0.0);
        assert!(phases.get(CpuPhase::Sort).uops > 0.0);
        assert!(phases.get(CpuPhase::Predicate).branch_mispredicts > 0.0);
        assert!(phases.get(CpuPhase::Agg).rand_misses > 0.0);
        assert!(phases.get(CpuPhase::Memory).seq_bytes > 0.0);
        assert!(phases.get(CpuPhase::IoKernel).io_bytes > 0.0);
        assert_eq!(phases.get(CpuPhase::Other).rand_misses, 2.0);
        // Kernel and memory events write no other phase.
        for (phase, c) in phases.iter() {
            if phase != CpuPhase::IoKernel {
                assert_eq!(c.io_bytes + c.io_requests + c.io_switches, 0.0);
            }
            if phase != CpuPhase::Memory {
                assert_eq!(c.seq_bytes + c.l1_lines, 0.0);
            }
        }
        // Merging meters merges their tables.
        let mut a = run(&every_event());
        a.merge(&m);
        assert_eq!(
            a.phases().get(CpuPhase::Decode).uops,
            2.0 * phases.get(CpuPhase::Decode).uops
        );
        assert_eq!(a.phases().total(), a.counters());
    }

    #[test]
    fn integer_charges_sum_to_the_same_bits_in_any_order() {
        use rodb_trace::Field;
        let bits = |m: &CpuMeter| {
            let mut out = Vec::new();
            m.counters().values(|v| out.push(v.to_bits()));
            out
        };
        let events = every_event();
        let forward = run(&events);
        let reversed: Vec<_> = events.iter().rev().copied().collect();
        // A third order: the back half interleaved with the front half.
        let (front, back) = events.split_at(events.len() / 2);
        let woven: Vec<_> = back.iter().zip(front).flat_map(|(b, f)| [*b, *f]).collect();
        assert_eq!(woven.len(), events.len());
        for other in [run(&reversed), run(&woven)] {
            assert_eq!(bits(&forward), bits(&other));
        }
    }
}
