//! Property-style tests for the storage substrate: page capacity
//! invariants, builder/reader roundtrips, and the loader's page-accounting
//! arithmetic — run over many deterministically seeded random cases (the
//! offline build has no `proptest`).

use std::sync::Arc;

use rodb_compress::{Codec, ColumnCompression};
use rodb_storage::{
    page::{body_capacity, col_values_per_page, row_tuples_per_page},
    page_packed::{packed_tuple_bits, packed_tuples_per_page},
    BuildLayouts, Layout, TableBuilder,
};
use rodb_types::{tuple, Column, PageId, Schema, SplitMix64, Value};

const CASES: u64 = 128;

/// Capacity formulas never overflow the page body.
#[test]
fn capacities_fit_the_body() {
    let mut rng = SplitMix64::new(0xCAFE);
    for _ in 0..CASES {
        let page_size = rng.range_usize(64, 16384);
        let width = rng.range_usize(1, 256);
        let bits = rng.range_usize(1, 256);
        let body = body_capacity(page_size);
        assert_eq!(body, page_size - 28);
        assert!(row_tuples_per_page(page_size, width) * width <= body);
        assert!(col_values_per_page(page_size, bits) * bits <= body * 8);
    }
}

/// Row pages roundtrip any tuple mix and preserve order and count.
#[test]
fn row_page_roundtrip() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x0707 + case);
        let n = rng.range_usize(1, 50);
        let rows: Vec<(i32, u8)> = (0..n)
            .map(|_| (rng.next_u64() as i32, rng.below(255) as u8))
            .collect();
        let schema = Schema::new(vec![Column::int("a"), Column::text("t", 3)]).unwrap();
        let mut b = rodb_storage::RowPageBuilder::new(4096, &schema);
        let cap = b.capacity();
        let take = rows.len().min(cap);
        let mut raws = Vec::new();
        for (v, c) in rows.iter().take(take) {
            let mut raw = Vec::new();
            tuple::encode_tuple(
                &schema,
                &[Value::Int(*v), Value::Text(vec![*c; 1].into())],
                &mut raw,
            )
            .unwrap();
            b.push(&raw).unwrap();
            raws.push(raw);
        }
        let page = b.build(PageId(1));
        let rp = rodb_storage::RowPage::new(&page, schema.stored_width()).unwrap();
        assert_eq!(rp.count(), take);
        for (i, raw) in raws.iter().enumerate() {
            assert_eq!(&rp.tuple(i)[..schema.logical_width()], raw.as_slice());
        }
    }
}

/// The loader's page math: pages × capacity covers exactly row_count,
/// with only the final page partial, in every representation.
#[test]
fn loader_page_accounting() {
    // Fewer cases — each one loads a full table twice.
    for case in 0..32 {
        let mut rng = SplitMix64::new(0x10AD + case);
        let n = rng.range_usize(0, 3000);
        let page_size = rng.range_usize(1, 4) * 1024;
        let schema = Arc::new(Schema::new(vec![Column::int("a"), Column::text("t", 7)]).unwrap());
        let comps = vec![
            ColumnCompression::new(Codec::BitPack { bits: 12 }, None).unwrap(),
            ColumnCompression::none(),
        ];
        let mut b = TableBuilder::with_compression(
            "t",
            schema.clone(),
            page_size,
            BuildLayouts::both(),
            comps,
        )
        .unwrap();
        for i in 0..n {
            b.push_row(&[Value::Int((i % 4096) as i32), Value::text("abc")])
                .unwrap();
        }
        let t = b.finish().unwrap();
        assert_eq!(t.row_count as usize, n);

        let rs = t.row_storage().unwrap();
        assert_eq!(rs.pages, n.div_ceil(rs.tuples_per_page.max(1)));
        assert_eq!(rs.file.len(), rs.pages * page_size);

        for col in &t.col_storage().unwrap().columns {
            assert_eq!(col.pages, n.div_ceil(col.values_per_page.max(1)));
            assert_eq!(col.file.len(), col.pages * page_size);
        }

        // And the data reads back equal through both layouts.
        assert_eq!(
            t.read_all(Layout::Row).unwrap(),
            t.read_all(Layout::Column).unwrap()
        );
    }
}

/// Packed tuple width is the exact sum of the codec widths, and page
/// capacity accounts for the per-column base slots.
#[test]
fn packed_row_capacity() {
    let mut rng = SplitMix64::new(0x9AC0);
    for _ in 0..CASES {
        let bits_a = rng.range_usize(1, 32) as u8;
        let text_w = rng.range_usize(1, 30);
        let schema = Schema::new(vec![
            Column::int("a"),
            Column::int("b"),
            Column::text("t", text_w),
        ])
        .unwrap();
        let comps = vec![
            ColumnCompression::new(Codec::BitPack { bits: bits_a }, None).unwrap(),
            ColumnCompression::new(Codec::ForDelta { bits: 8 }, None).unwrap(),
            ColumnCompression::none(),
        ];
        let bits = packed_tuple_bits(&schema, &comps);
        assert_eq!(bits, bits_a as usize + 8 + text_w * 8);
        let cap = packed_tuples_per_page(4096, &schema, &comps);
        // One FOR-delta base (8 bytes) reserved from the body.
        assert_eq!(cap, (4096 - 28 - 8) * 8 / bits);
        assert!(cap > 0);
    }
}

/// WOS merge at arbitrary sizes keeps row/column agreement.
#[test]
fn wos_merge_any_sizes() {
    for case in 0..64 {
        let mut rng = SplitMix64::new(0x3035 + case);
        let base_n = rng.range_usize(0, 500);
        let extra_n = rng.range_usize(0, 100);
        let schema = Arc::new(Schema::new(vec![Column::int("k")]).unwrap());
        let comps = vec![ColumnCompression::none()];
        let mut b = TableBuilder::with_compression(
            "t",
            schema.clone(),
            1024,
            BuildLayouts::both(),
            comps.clone(),
        )
        .unwrap();
        for i in 0..base_n {
            b.push_row(&[Value::Int(i as i32 * 2)]).unwrap();
        }
        let t = b.finish().unwrap();
        let mut wos = rodb_storage::WriteOptimizedStore::new(schema);
        for i in 0..extra_n {
            wos.insert(vec![Value::Int(i as i32 * 2 + 1)]).unwrap();
        }
        let merged = wos
            .merge_prefix_into(wos.len(), &t, &comps, Some(0))
            .unwrap();
        assert_eq!(merged.row_count as usize, base_n + extra_n);
        let rows = merged.read_all(Layout::Row).unwrap();
        assert_eq!(&rows, &merged.read_all(Layout::Column).unwrap());
        for w in rows.windows(2) {
            assert!(w[0][0] <= w[1][0]);
        }
    }
}
