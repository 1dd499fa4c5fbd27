//! The parallel layer folds per-morsel accounting into query-wide totals
//! by repeated `merge`. Morsel boundaries are a scheduling artifact, so
//! the fold must be order- and grouping-insensitive: folding serially,
//! pairwise as a tree, or in reverse must produce identical totals —
//! exact for integer counters, within float-summation reordering noise
//! for seconds/bytes — and the same holds for span-tree aggregates.

use rodb_cpu::{CostParams, CpuCounters, CpuMeter, OpCosts};
use rodb_io::{CacheStats, IoStats, RecoveryStats};
use rodb_trace::{Metrics, QueryTrace, SpanKind, SpanNode};

/// Deterministic value stream (an LCG) so each "morsel" is distinct.
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
    fn next_u64(&mut self) -> u64 {
        self.next_f64();
        self.0 >> 40
    }
}

fn sample_io(r: &mut Rng) -> IoStats {
    IoStats {
        bytes_read: r.next_f64() * 1e6,
        seeks: r.next_u64(),
        bursts: r.next_u64(),
        comp_bursts: r.next_u64(),
        transfer_s: r.next_f64(),
        seek_s: r.next_f64(),
        comp_s: r.next_f64(),
        pages_skipped: r.next_u64(),
        recovery: RecoveryStats {
            retries: r.next_u64(),
            repairs: r.next_u64(),
            quarantined_pages: r.next_u64(),
            dropped_rows: r.next_u64(),
            wal_replayed: r.next_u64(),
            wal_discarded: r.next_u64(),
        },
        cache: CacheStats {
            hits: r.next_u64(),
            misses: r.next_u64(),
            evictions: r.next_u64(),
        },
    }
}

/// Fold three ways: left-to-right, pairwise tree, right-to-left.
fn fold_three_ways<T: Clone + Default>(parts: &[T], merge: impl Fn(&mut T, &T)) -> [T; 3] {
    let serial = parts.iter().fold(T::default(), |mut acc, p| {
        merge(&mut acc, p);
        acc
    });
    let mut level: Vec<T> = parts.to_vec();
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| {
                let mut acc = pair[0].clone();
                if let Some(b) = pair.get(1) {
                    merge(&mut acc, b);
                }
                acc
            })
            .collect();
    }
    let tree = level.pop().unwrap_or_default();
    let reversed = parts.iter().rev().fold(T::default(), |mut acc, p| {
        merge(&mut acc, p);
        acc
    });
    [serial, tree, reversed]
}

fn close(a: f64, b: f64, what: &str) {
    let tol = 1e-12 * a.abs().max(b.abs()).max(1.0);
    assert!((a - b).abs() <= tol, "{what}: {a} vs {b}");
}

#[test]
fn io_stats_merge_is_order_insensitive() {
    let mut r = Rng(7);
    let parts: Vec<IoStats> = (0..9).map(|_| sample_io(&mut r)).collect();
    let [serial, tree, reversed] = fold_three_ways(&parts, |a, b| a.merge(b));
    for other in [&tree, &reversed] {
        // Integer counters must agree exactly.
        assert_eq!(serial.seeks, other.seeks);
        assert_eq!(serial.bursts, other.bursts);
        assert_eq!(serial.comp_bursts, other.comp_bursts);
        assert_eq!(serial.pages_skipped, other.pages_skipped);
        assert_eq!(serial.recovery, other.recovery);
        assert_eq!(serial.cache, other.cache);
        close(serial.bytes_read, other.bytes_read, "bytes_read");
        close(serial.transfer_s, other.transfer_s, "transfer_s");
        close(serial.seek_s, other.seek_s, "seek_s");
        close(serial.comp_s, other.comp_s, "comp_s");
        close(serial.total_s(), other.total_s(), "total_s");
    }
}

#[test]
fn recovery_stats_merge_is_exact_in_any_order() {
    let mut r = Rng(23);
    let parts: Vec<RecoveryStats> = (0..12)
        .map(|_| RecoveryStats {
            retries: r.next_u64(),
            repairs: r.next_u64(),
            quarantined_pages: r.next_u64(),
            dropped_rows: r.next_u64(),
            wal_replayed: r.next_u64(),
            wal_discarded: r.next_u64(),
        })
        .collect();
    let [serial, tree, reversed] = fold_three_ways(&parts, |a, b| a.merge(b));
    assert_eq!(serial, tree);
    assert_eq!(serial, reversed);
}

#[test]
fn cache_stats_merge_is_exact_in_any_order() {
    let mut r = Rng(61);
    let parts: Vec<CacheStats> = (0..12)
        .map(|_| CacheStats {
            hits: r.next_u64(),
            misses: r.next_u64(),
            evictions: r.next_u64(),
        })
        .collect();
    let [serial, tree, reversed] = fold_three_ways(&parts, |a, b| a.merge(b));
    assert_eq!(serial, tree);
    assert_eq!(serial, reversed);
}

/// A meter's totals and its per-phase table must both survive regrouping.
#[test]
fn cpu_meter_merge_is_order_insensitive() {
    let mut r = Rng(41);
    let make = |r: &mut Rng| {
        let mut m = CpuMeter::new(OpCosts::default(), CostParams::default());
        m.add_uops(r.next_f64() * 1e5);
        m.branches(r.next_f64() * 1e4, r.next_f64() * 1e4);
        m
    };
    let parts: Vec<CpuMeter> = (0..7).map(|_| make(&mut r)).collect();
    // CpuMeter is not Default/Clone; fold its counters through a fresh meter.
    let fold = |order: Vec<&CpuMeter>| {
        let mut acc = CpuMeter::new(OpCosts::default(), CostParams::default());
        for m in order {
            acc.merge(m);
        }
        acc
    };
    let serial = fold(parts.iter().collect());
    let reversed = fold(parts.iter().rev().collect());
    let totals = |c: &CpuCounters| [c.uops, c.rand_misses, c.l1_lines, c.branch_mispredicts];
    for (a, b) in totals(&serial.counters())
        .iter()
        .zip(totals(&reversed.counters()))
    {
        close(*a, b, "meter counters");
    }
    let (ps, pr) = (serial.phases(), reversed.phases());
    for (pa, pb) in ps.iter().zip(pr.iter()) {
        close(pa.1.uops, pb.1.uops, "phase uops");
        close(
            pa.1.branch_mispredicts,
            pb.1.branch_mispredicts,
            "phase mispredicts",
        );
    }
}

fn sample_trace(r: &mut Rng) -> QueryTrace {
    let scan = SpanNode {
        label: "scan[column] t".to_string(),
        kind: SpanKind::Scan,
        metrics: {
            let mut m = Metrics::default();
            m.add("rows", (r.next_u64() % 1000) as f64);
            m.add("io.bytes_read", r.next_f64() * 1e5);
            m.add("wall_s", r.next_f64());
            m
        },
        children: Vec::new(),
    };
    let mut root = SpanNode {
        label: "query".to_string(),
        kind: SpanKind::Query,
        metrics: Metrics::default(),
        children: vec![scan],
    };
    root.metrics
        .add("rows", root.children[0].metrics.get("rows"));
    QueryTrace {
        root,
        events: Vec::new(),
        dropped_events: 0,
    }
}

#[test]
fn span_tree_merge_aggregates_identically_in_any_order() {
    let mut r = Rng(99);
    let parts: Vec<QueryTrace> = (0..6).map(|_| sample_trace(&mut r)).collect();
    let forward = QueryTrace::merge_morsels(&parts).expect("non-empty");
    let backward: Vec<QueryTrace> = {
        let mut v = parts.clone();
        v.reverse();
        v
    };
    let backward = QueryTrace::merge_morsels(&backward).expect("non-empty");
    for key in ["rows", "morsels"] {
        close(forward.metric(key), backward.metric(key), key);
    }
    // Same span tree shape: one scan child aggregating all six morsels.
    assert_eq!(forward.root.children.len(), 1);
    assert_eq!(backward.root.children.len(), 1);
    let (fs, bs) = (&forward.root.children[0], &backward.root.children[0]);
    assert_eq!(fs.label, bs.label);
    for key in ["rows", "io.bytes_read", "wall_s"] {
        close(fs.metrics.get(key), bs.metrics.get(key), key);
    }
}
