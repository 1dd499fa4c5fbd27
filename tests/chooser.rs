//! The physical-design chooser (`rodb_core::design`) against the simulator
//! it is priced from, and the picks its four thin callers are pinned to.
//! EXPERIMENTS.md, "The chooser against the simulator", reports the same
//! grid at 200 k rows.

use rodb::prelude::*;
use rodb_core::scan_report;
use rodb_storage::RowFormat;
use std::sync::{Arc, LazyLock};

/// Small enough for the debug profile; three cells disagree here as at
/// 20 k and 200 k rows (near-ties trade places below 20 k).
const ROWS: u64 = 2_000;

struct Grid {
    name: &'static str,
    table: Arc<Table>,
    threshold: fn(f64) -> i32,
}

static TABLES: LazyLock<Vec<Grid>> = LazyLock::new(|| {
    let both = BuildLayouts::both;
    let li = |v| Arc::new(load_lineitem(ROWS, 1, 4096, both(), v).unwrap());
    let or = |v| Arc::new(load_orders(ROWS, 1, 4096, both(), v).unwrap());
    let grid = |name, table, threshold| Grid {
        name,
        table,
        threshold,
    };
    vec![
        grid("LINEITEM", li(Variant::Plain), partkey_threshold),
        grid("LINEITEM-Z", li(Variant::Compressed), partkey_threshold),
        grid("ORDERS", or(Variant::Plain), orderdate_threshold),
        grid("ORDERS-Z", or(Variant::Compressed), orderdate_threshold),
    ]
});

fn paper_machine() -> Machine {
    Machine::new(&HardwareConfig::default(), &SystemConfig::default())
}

/// The default platform with its clock scaled to rate at `cpdb`.
fn machine_at(cpdb: f64) -> Machine {
    let mut hw = HardwareConfig::default();
    hw.clock_hz = cpdb * hw.aggregate_disk_bw();
    Machine::new(&hw, &SystemConfig::default())
}

/// (i) Over {LINEITEM, LINEITEM-Z, ORDERS, ORDERS-Z} × six selectivities ×
/// every projection width (276 cells, default platform), the chooser's
/// layout is the one the simulator runs faster, but for three near-ties at
/// the crossover line (priced 1.01–1.03× for columns, simulated 0.98–0.99×
/// at 20 k and 200 k rows; at 2 k one ORDERS-Z cell is off by 15 %).
#[test]
fn the_layout_pick_is_the_simulators_winner_on_the_crossover_grid() {
    let (cfg, m) = (ExperimentConfig::default(), paper_machine());
    let (mut cells, mut wrong, mut outside) = (0, 0, 0);
    for g in TABLES.iter() {
        for sel in [0.001, 0.01, 0.1, 0.3, 0.6, 1.0] {
            let pred = Predicate::lt(0, (g.threshold)(sel));
            for k in 1..=g.table.schema.len() {
                let cols: Vec<usize> = (0..k).collect();
                let run = |layout| scan_report(&g.table, layout, &cols, pred.clone(), &cfg);
                let row_s = run(ScanLayout::Row).unwrap().elapsed_s;
                let col_s = run(ScanLayout::Column).unwrap().elapsed_s;
                let ratio = row_s / col_s;
                let faster = if ratio >= 1.0 {
                    Layout::Column
                } else {
                    Layout::Row
                };
                let pick = recommend_layout(&g.table, &cols, sel, &m).unwrap();
                cells += 1;
                if pick == faster {
                    continue;
                }
                let priced = predicted_speedup(&g.table, &cols, sel, &m).unwrap();
                println!(
                    "{} sel {sel} k {k}: priced {priced:.2}x → {pick}, simulated {ratio:.3}x",
                    g.name
                );
                wrong += 1;
                outside += usize::from(!(0.9..=1.1).contains(&ratio));
                assert!(
                    (0.75..=1.33).contains(&ratio),
                    "{} sel {sel} k {k}: picked the layout that is {ratio:.2}x off",
                    g.name
                );
                assert!(g.name.starts_with("ORDERS"), "{}: a wrong pick", g.name);
            }
        }
    }
    assert_eq!(cells, 276);
    assert!(wrong <= 3, "{wrong} wrong picks");
    assert!(outside <= 1, "{outside} wrong picks outside 0.9..1.1");
}

/// One-column table over `sample`, and the codec the chooser gives it.
fn codec_on(dtype: DataType, sample: &[Value], m: &Machine) -> ColumnCompression {
    let schema = Arc::new(Schema::new(vec![Column::new("c", dtype)]).unwrap());
    let mut b = TableBuilder::new("t", schema, 4096, BuildLayouts::both()).unwrap();
    let rows: Vec<Vec<Value>> = sample.iter().map(|v| vec![v.clone()]).collect();
    for r in &rows {
        b.push_row(r).unwrap();
    }
    let mut comps = recommend_compression(&b.finish().unwrap(), &rows, m).unwrap();
    comps.pop().unwrap()
}

fn roundtrips(comp: &ColumnCompression, sample: &[Value]) {
    let enc = comp.encode_page(DataType::Int, sample).unwrap();
    let pv = comp.open_page(DataType::Int, &enc.data, enc.count, enc.base);
    let mut c = pv.cursor();
    for v in sample {
        assert_eq!(Value::Int(c.next_int().unwrap()), *v);
    }
}

/// (ii) The codec picks the two-goal advisor was pinned to, now read off
/// the machine: a disk-bound one takes the narrowest code.
#[test]
fn a_disk_bound_machine_takes_the_narrowest_codec() {
    let m = machine_at(2000.0);
    let sorted_key: Vec<Value> = (0..1000).map(|i| Value::Int(100_000 + i)).collect();
    let comp = codec_on(DataType::Int, &sorted_key, &m);
    assert_eq!(comp.codec, Codec::ForDelta { bits: 1 });

    let modes = ["AIR", "SHIP", "TRUCK"];
    let low_card: Vec<Value> = (0..100).map(|i| Value::text(modes[i % 3])).collect();
    let comp = codec_on(DataType::Text(10), &low_card, &m);
    assert_eq!(comp.codec, Codec::Dict { bits: 2 });
    assert_eq!(comp.dict.as_ref().unwrap().len(), 3);

    // Content only ever uses 6 bytes of a 30-byte field, and cardinality is
    // too high for a dictionary.
    let padded: Vec<Value> = (0..5000)
        .map(|i| Value::text(&format!("c{i:05}")))
        .collect();
    let comp = codec_on(DataType::Text(30), &padded, &m);
    assert_eq!(comp.codec, Codec::TextPack { bytes: 6 });

    // 99% of values fit in 4 bits; 1% are huge outliers.
    let outlier = |i: i32| {
        if i % 100 == 0 {
            1_000_000_000 + i
        } else {
            i % 16
        }
    };
    let outliers: Vec<Value> = (0..2000).map(|i| Value::Int(outlier(i))).collect();
    let comp = codec_on(DataType::Int, &outliers, &m);
    assert!(matches!(comp.codec, Codec::Pfor { .. }), "{:?}", comp.codec);
    roundtrips(&comp, &outliers);

    // 20 unsorted runs of 100 identical values.
    let runs: Vec<Value> = (0..2000).map(|i| Value::Int(i / 100 * 7 % 20)).collect();
    let comp = codec_on(DataType::Int, &runs, &m);
    assert!(matches!(comp.codec, Codec::Rle { .. }), "{:?}", comp.codec);
    roundtrips(&comp, &runs);

    let scattered: Vec<Value> = (0..5000)
        .map(|i| Value::Int(i * 7919 % 1_000_003))
        .collect();
    let comp = codec_on(DataType::Int, &scattered, &m);
    assert_eq!(comp.codec, Codec::BitPack { bits: 20 });

    assert_eq!(codec_on(DataType::Int, &[], &m).codec, Codec::None);
}

/// (ii) §4.4's near-tie: sorted with max delta 200 (8 bits) over a 16-bit
/// range. FOR-delta is narrower but the priciest decoder; only a
/// disk-bound machine pays for it.
#[test]
fn a_cpu_bound_machine_does_not_pay_for_for_delta() {
    let mut cur = 0i32;
    let step = |i: i32| if i % 3 == 0 { 200 } else { 1 };
    let sample: Vec<Value> = (0..500)
        .map(|i| {
            cur += step(i);
            Value::Int(cur)
        })
        .collect();
    let disk = codec_on(DataType::Int, &sample, &machine_at(2000.0));
    assert!(matches!(disk.codec, Codec::ForDelta { .. }));
    for m in [paper_machine(), machine_at(9.0)] {
        let cpu = codec_on(DataType::Int, &sample, &m);
        assert!(!matches!(cpu.codec, Codec::ForDelta { .. }));
        roundtrips(&cpu, &sample);
    }
}

/// The row side is priced at the bytes the row scanner reads: the packed
/// tuple and its own codecs, not the schema's padded width and the column
/// files' codecs. (A page spends ≈4% on its trailer and FOR bases, which no
/// per-tuple width carries — hence tables of a dozen pages.)
#[test]
fn the_row_side_is_priced_from_the_row_file() {
    let both = BuildLayouts::both();
    let tables = [
        load_lineitem(1_000, 1, 4096, both, Variant::Compressed).unwrap(),
        load_orders(1_000, 1, 4096, both, Variant::Compressed).unwrap(),
    ];
    for t in &tables {
        let row = Candidate::of(t, Layout::Row).unwrap();
        let per_tuple = row.stored.iter().map(|(_, s)| s.bytes).sum::<f64>() + row.pad;
        let rs = t.row_storage().unwrap();
        assert_eq!(per_tuple, rs.bytes_per_tuple());
        assert!(per_tuple < t.schema.stored_width() as f64 / 2.0);
        let file = t.scan_bytes(Layout::Row, None).unwrap() as f64;
        let priced = per_tuple * t.row_count as f64;
        assert!((file - priced).abs() <= rs.page_size as f64, "{}", t.name);
        // The decode side is the row file's own codecs.
        let RowFormat::Packed { comps, .. } = &rs.format else {
            panic!("{}: -Z row files are packed", t.name);
        };
        for ((_, spec), comp) in row.stored.iter().zip(comps) {
            assert_eq!(spec.codec, comp.codec.kind());
        }
    }
    // A plain row file decodes nothing and reads its padded width.
    let t = &TABLES[0].table;
    let plain = Candidate::of(t, Layout::Row).unwrap();
    assert!(plain.stored.iter().all(|(_, s)| s.bytes == s.raw_bytes));
    assert_eq!(
        plain.pad,
        (t.schema.stored_width() - t.schema.logical_width()) as f64
    );
}

/// A scan that interleaves column files is priced the seek per burst and
/// the streaming loss `DiskArray::read` charges it; one file, or the row
/// file, is not.
#[test]
fn interleaved_column_files_pay_the_arrays_seeks() {
    // Forty pages a column, so the array's first, still single-file page
    // is noise.
    let schema = Arc::new(Schema::new(vec![Column::int("a"), Column::int("b")]).unwrap());
    let mut b = TableBuilder::new("t", schema, 4096, BuildLayouts::both()).unwrap();
    for i in 0..40_000 {
        b.push_row(&[Value::Int(i), Value::Int(i)]).unwrap();
    }
    let t = Arc::new(b.finish().unwrap());
    let m = machine_at(2000.0); // disk-bound: the price is the disk term
    let col = Candidate::of(&t, Layout::Column).unwrap();
    let scan = |cols: Vec<usize>| price(&t, &col, &Query::new(cols, 0.1, 1.0), &m).unwrap();
    let (hw, sys) = (HardwareConfig::default(), SystemConfig::default());
    let burst = (sys.prefetch_depth * sys.io_unit) as f64;
    let per_byte =
        1.0 / (1.0 - hw.multi_stream_penalty) + hw.seek_s * hw.aggregate_disk_bw() / burst;
    let priced = scan(vec![0, 1]) / scan(vec![0]);
    assert!((priced - 2.0 * per_byte).abs() < 1e-9, "{priced}");
    let row = Candidate::of(&t, Layout::Row).unwrap();
    let row_scan = price(&t, &row, &Query::new(vec![0, 1], 0.1, 1.0), &m).unwrap();
    assert!((row_scan / scan(vec![0]) - 2.0).abs() < 1e-9);
    // The simulator charges the same, to within its one start-up seek.
    let cfg = ExperimentConfig::default();
    let io_s = |cols: &[usize]| {
        let report = scan_report(&t, ScanLayout::Column, cols, Predicate::lt(0, 4_000), &cfg);
        report.unwrap().io_s()
    };
    let simulated = io_s(&[0, 1]) / io_s(&[0]);
    assert!((simulated / priced - 1.0).abs() < 0.02, "{simulated}");
}

/// One validation in front of `price`: the out-of-range call used to panic
/// in `Schema::dtype` from a `Result`-returning function.
#[test]
fn bad_queries_are_typed_errors_from_every_advisor() {
    let (t, m) = (&TABLES[2].table, paper_machine());
    let unknown = recommend_layout(t, &[99], 2.0, &m);
    assert!(
        matches!(unknown, Err(Error::UnknownColumn(_))),
        "{unknown:?}"
    );
    assert!(matches!(
        predicted_speedup(t, &[0], 2.0, &m),
        Err(Error::InvalidConfig(_))
    ));
    assert!(matches!(
        recommend_layout(t, &[], 0.1, &m),
        Err(Error::InvalidPlan(_))
    ));
    let workload = [Query::new(vec![0, 99], 0.1, 1.0)];
    let partitions = recommend_vertical_partitions(t, &workload, &m, 1);
    assert!(matches!(partitions, Err(Error::UnknownColumn(_))));
}

/// The machine is the caller's, all of it: equal cpdb and a different
/// memory bus is a different price once the scan is memory-bound.
#[test]
fn the_price_is_on_the_callers_machine() {
    let t = &TABLES[0].table;
    let fast_disks = HardwareConfig {
        disks: 300,
        controller_bw: 1.0e11,
        ..HardwareConfig::default()
    };
    let half_bus = HardwareConfig {
        mem_bytes_per_cycle: 0.5,
        ..fast_disks
    };
    assert_eq!(fast_disks.cpdb(), half_bus.cpdb());
    let sys = SystemConfig::default();
    let row = Candidate::of(t, Layout::Row).unwrap();
    let q = Query::new(vec![0], 0.1, 1.0);
    let on = |hw: &HardwareConfig| price(t, &row, &q, &Machine::new(hw, &sys)).unwrap();
    assert!(on(&half_bus) > 1.2 * on(&fast_disks));

    // `layout_auto` prices on the builder's `hw` / `sys`: twelve times the
    // seek, or a prefetch depth of 2, moves LINEITEM's crossover left.
    let first = |k: usize, hw: HardwareConfig, sys: SystemConfig| {
        let qb = QueryBuilder::new(t.clone(), hw, sys).select_first(k);
        qb.layout_auto().unwrap().selected_layout()
    };
    let hw = HardwareConfig::default();
    assert_eq!(first(9, hw, sys), ScanLayout::Column);
    assert_eq!(first(10, hw, sys), ScanLayout::Column);
    assert_eq!(first(9, hw, sys.with_prefetch_depth(2)), ScanLayout::Row);
    let slow_seek = HardwareConfig {
        seek_s: 12.0 * hw.seek_s,
        ..hw
    };
    assert_eq!(first(10, slow_seek, sys), ScanLayout::Row);
}

/// `layout_auto` prices the scan it will run: predicate columns are the
/// deepest nodes, as `scan_columns` orders them, at the one default
/// selectivity.
#[test]
fn layout_auto_prices_the_scanners_node_order() {
    let mut db = Database::new();
    let schema = Arc::new(Schema::new(vec![Column::int("k"), Column::int("v")]).unwrap());
    let mut b = TableBuilder::new("t", schema, 4096, BuildLayouts::both()).unwrap();
    for i in 0..500 {
        b.push_row(&[Value::Int(i % 10), Value::Int(i)]).unwrap();
    }
    db.register(b.finish().unwrap());
    let qb = db.query("t").unwrap().select(&["v"]).unwrap();
    let qb = qb.filter("k", CmpOp::Lt, 3).unwrap();
    let q = Query::of_scan(&qb.plan().unwrap().scan, DEFAULT_SELECTIVITY);
    assert_eq!(q.columns, vec![0, 1], "k is node 0");
    let m = Machine::new(db.hardware(), db.system());
    let t = db.table("t").unwrap();
    let priced = recommend_layout(&t, &q.columns, q.selectivity, &m).unwrap();
    let routed = qb.layout_auto().unwrap().selected_layout();
    assert_eq!(routed.to_string(), priced.to_string());
}
