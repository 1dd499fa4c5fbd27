//! Every metric the benchmark reports, by name, with its unit, direction
//! and — for end-to-end metrics — the share by which it may worsen before a
//! change counts as a regression. `BENCHMARK.json` repeats the driver-facing
//! part of these tables; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the baseline; `None` for per-layer
    /// metrics, which explain a result and gate nothing.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics every workload reports (the `end_to_end` list of
/// `BENCHMARK.json`). An operation is a query, except on `service_mix`
/// where it is one batch.
pub const END_TO_END: &[Def] = &[
    e2e("tuples_per_s", "1/s", Higher, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("op_p90_ms", "ms", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("stored_bytes_per_user_byte", "ratio", Lower, 0.01),
];

/// End-to-end metrics only `ingest_snapshot` has. The driver's contract
/// wants one metric list for all workloads, so these are reported and
/// checked by the benchmark's own `--all` / `--check-repeat`, and their cost
/// is also inside `ingest_snapshot`'s `tuples_per_s`.
pub const INGEST_ONLY: &[Def] = &[
    e2e("ingest_rows_per_s", "1/s", Higher, 0.25),
    e2e("recover_s", "s", Lower, 0.25),
];

pub const PER_LAYER: &[Def] = &[
    // Staircase self times, ms per cycle.
    layer("io.stream_self_ms", "ms", Lower),
    layer("storage.parse_self_ms", "ms", Lower),
    layer("compress.decode_self_ms", "ms", Lower),
    layer("engine.scan_self_ms", "ms", Lower),
    layer("engine.agg_self_ms", "ms", Lower),
    layer("core.query_self_ms", "ms", Lower),
    layer("engine.materialize_self_ms", "ms", Lower),
    layer("core.service_self_ms", "ms", Lower),
    // storage + tpch
    layer("storage.page_parse_ns", "ns", Lower),
    layer("storage.crc32_gbps", "GB/s", Higher),
    layer("storage.load_rows_per_s", "1/s", Higher),
    layer("storage.wal_append_mb_per_s", "MB/s", Higher),
    layer("storage.wal_replay_mb_per_s", "MB/s", Higher),
    layer("storage.wos_merge_rows_per_s", "1/s", Higher),
    layer("tpch.gen_rows_per_s", "1/s", Higher),
    // compress
    layer("compress.decode_block.plain_mvals_per_s", "Mvals/s", Higher),
    layer(
        "compress.decode_block.bitpack_mvals_per_s",
        "Mvals/s",
        Higher,
    ),
    layer("compress.decode_block.dict_mvals_per_s", "Mvals/s", Higher),
    layer(
        "compress.decode_block.fordelta_mvals_per_s",
        "Mvals/s",
        Higher,
    ),
    layer(
        "compress.decode_block.textpack_mvals_per_s",
        "Mvals/s",
        Higher,
    ),
    layer(
        "compress.decode_scalar.plain_mvals_per_s",
        "Mvals/s",
        Higher,
    ),
    layer(
        "compress.decode_scalar.bitpack_mvals_per_s",
        "Mvals/s",
        Higher,
    ),
    layer("compress.decode_scalar.dict_mvals_per_s", "Mvals/s", Higher),
    layer(
        "compress.decode_scalar.fordelta_mvals_per_s",
        "Mvals/s",
        Higher,
    ),
    layer(
        "compress.decode_scalar.textpack_mvals_per_s",
        "Mvals/s",
        Higher,
    ),
    layer("compress.get_ns", "ns", Lower),
    layer("compress.kernel_tier", "tier", Higher),
    // io (counts of one cycle)
    layer("io.pages_read", "count", Lower),
    layer("io.bytes_read", "count", Lower),
    layer("io.pages_skipped", "count", Higher),
    layer("io.modeled_io_s", "s", Lower),
    layer("io.cache_hit_rate", "ratio", Higher),
    layer("io.cache_evictions", "count", Lower),
    // cpu (the paper's bars, modeled seconds of one cycle)
    layer("cpu.modeled_cpu_s", "s", Lower),
    layer("cpu.modeled_sys_s", "s", Lower),
    layer("cpu.modeled_usr_uop_s", "s", Lower),
    layer("cpu.modeled_usr_l2_s", "s", Lower),
    layer("cpu.modeled_usr_l1_s", "s", Lower),
    layer("cpu.modeled_usr_rest_s", "s", Lower),
    layer("cpu.wall_over_modeled", "ratio", Lower),
    // engine
    layer("engine.rows_out", "count", Higher),
    layer("engine.blocks_out", "count", Lower),
    layer("engine.scan_row.ns_per_tuple", "ns", Lower),
    layer("engine.scan_col.ns_per_value", "ns", Lower),
    layer("engine.scan_col.driven_ns_per_value", "ns", Lower),
    layer("engine.agg.hash_ns_per_tuple", "ns", Lower),
    layer("engine.agg.sorted_ns_per_tuple", "ns", Lower),
    layer("engine.memscan.ns_per_tuple", "ns", Lower),
    layer("engine.block.rows_ns_per_row", "ns", Lower),
    layer("engine.sched.speedup_2t", "ratio", Higher),
    layer("engine.shared_cursor.share_ratio_row", "ratio", Lower),
    layer("engine.shared_cursor.share_ratio_col", "ratio", Lower),
    // core
    layer("core.query_fixed_us", "us", Lower),
    layer("core.service.modeled_makespan_s", "s", Lower),
    layer("core.service.modeled_p50_s", "s", Lower),
    layer("core.ingest.insert_us_per_row", "us", Lower),
    layer("core.ingest.merge_ms", "ms", Lower),
    layer("core.ingest.recover_ms", "ms", Lower),
    layer("core.ingest.write_amplification", "ratio", Lower),
    // trace + the benchmark's own probe effect
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.registry_ns_per_call", "ns", Lower),
    layer("bench.probe_overhead_frac", "ratio", Lower),
];

pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "row_scan",
        "Row layout, scalar engine: scan_row, io stream and one page parse per page do the work; scan_col, driven reads and the service do none",
    ),
    (
        "col_scan_scalar",
        "Column layout, paper's pipelined scanner: a page parse per driven position and random-access get dominate; block kernels idle",
    ),
    (
        "col_scan_fast",
        "Same cells and tables as col_scan_scalar with the fast path on: block decode, code-space predicates, zone skipping; text falls back",
    ),
    (
        "service_mix",
        "8-rider batches through QueryService: shared cursor, scheduler, aggregates and row materialization dominate; solo scans bypass them",
    ),
    (
        "ingest_snapshot",
        "Writes beside reads: WAL framing, page build, MemScan/Chain and merge rebuilds, so cost moved from read to write or set-up shows",
    ),
];

/// Named values in report order, with lookup.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(pub Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodb::trace::Json;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn check_list(doc: &Json, key: &str, defs: &[Def]) {
        let listed = doc.get(key).and_then(Json::as_arr).expect(key);
        assert_eq!(listed.len(), defs.len(), "{key} length");
        for (j, d) in listed.iter().zip(defs) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(d.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(d.better.name())
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc = manifest();
        check_list(&doc, "end_to_end", END_TO_END);
        check_list(&doc, "per_layer", PER_LAYER);
        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(j.get("why").and_then(Json::as_str), Some(why));
            assert!(why.len() <= 200);
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(INGEST_ONLY).chain(PER_LAYER) {
            assert!(ok_name(d.name), "{}", d.name);
            assert!(ok_unit(d.unit), "{} unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
    }
}
