//! The modeled numbers of a scan are pinned, cell by cell.
//!
//! Every scanner charges the modeled clock by hand-counted events, so a
//! refactor of the scan path is correct only if every count comes out
//! bit-equal. `results/*.txt` shows that at figure scale; this test shows it
//! in tier-1, for a fixed matrix on small TPC-H tables: one [`Digest`] per
//! cell over the values of the [`RunReport`] **and** of the raw
//! [`CpuCounters`](rodb::cpu::CpuCounters) (two counters swapped at equal
//! cost change the second but not the first), each non-zero leaf by name,
//! plus the rows and positions of the first and the last block.
//!
//! The numbers were first pinned before the scan-core refactor. `GOLDEN`
//! was recomputed once when the digest moved from `Debug` text to values,
//! at the commit before the idle cache-prefetch knob and its always-zero
//! counter were deleted. A digest may change only together with the
//! checked-in figures; the failure message names the cell, so a changed
//! number is a one-cell bisect, not a diff of thirteen result files.

use rodb::engine::settle_report;
use rodb::prelude::*;
use rodb::storage::Quarantine;
use rodb::types::OnCorrupt;
use rodb_fuzz::Digest;
use std::sync::{Arc, OnceLock};

const ROWS: u64 = 3_000;
const PAGE: usize = 1024;
/// The interior window: starts and ends mid-page in every file geometry.
const WINDOW: (u64, u64) = (700, 2_300);
/// The row whose page is damaged — inside the window.
const BAD_ROW: u64 = 1_200;

/// One table under one scanner.
struct Subject {
    name: &'static str,
    table: Table,
    layout: ScanLayout,
    projection: Vec<usize>,
    /// none · 10 % on a projected int · one on an unprojected column · two
    /// conjunctive including a text literal.
    predicates: [Vec<Predicate>; 4],
}

fn orders_queries() -> (Vec<usize>, [Vec<Predicate>; 4]) {
    (
        vec![0, 1, 4, 5],
        [
            vec![],
            vec![Predicate::lt(0, orderdate_threshold(0.1))],
            vec![Predicate::lt(2, 40_000)],
            vec![
                Predicate::lt(0, orderdate_threshold(0.5)),
                Predicate::eq(3, "F"),
            ],
        ],
    )
}

fn lineitem_queries() -> (Vec<usize>, [Vec<Predicate>; 4]) {
    (
        vec![0, 1, 6, 10, 11],
        [
            vec![],
            vec![Predicate::lt(0, partkey_threshold(0.1))],
            vec![Predicate::lt(4, 10)],
            vec![
                Predicate::lt(0, partkey_threshold(0.5)),
                Predicate::eq(9, "MAIL"),
            ],
        ],
    )
}

fn subjects() -> Vec<Subject> {
    let orders = |v| load_orders(ROWS, 7, PAGE, BuildLayouts::both(), v).unwrap();
    let lineitem = |v| load_lineitem(ROWS, 7, PAGE, BuildLayouts::both(), v).unwrap();
    let subject = |name, table, layout, (projection, predicates)| Subject {
        name,
        table,
        layout,
        projection,
        predicates,
    };
    use ScanLayout::*;
    use Variant::*;
    vec![
        subject("row/orders", orders(Plain), Row, orders_queries()),
        subject("row/orders-pax", orders(Pax), Row, orders_queries()),
        subject("row/orders-z", orders(Compressed), Row, orders_queries()),
        subject(
            "row/lineitem-z",
            lineitem(Compressed),
            Row,
            lineitem_queries(),
        ),
        subject(
            "column/orders-z",
            orders(Compressed),
            Column,
            orders_queries(),
        ),
        subject(
            "column/lineitem-z",
            lineitem(Compressed),
            Column,
            lineitem_queries(),
        ),
        subject(
            "column-slow/orders-z",
            orders(Compressed),
            ColumnSlow,
            orders_queries(),
        ),
        subject(
            "column-slow/lineitem-z",
            lineitem(Compressed),
            ColumnSlow,
            lineitem_queries(),
        ),
        subject(
            "column-single/orders-z",
            orders(Compressed),
            ColumnSingleIterator,
            orders_queries(),
        ),
        subject(
            "column-single/lineitem-z",
            lineitem(Compressed),
            ColumnSingleIterator,
            lineitem_queries(),
        ),
    ]
}

/// `table` with a fresh quarantine (clones share one) and, when `damaged`,
/// one bit flipped in the page holding [`BAD_ROW`]: of the row file under
/// the row scanner, else of column 0's file — scan node 0 under three of the
/// four predicate sets, a driven node under the unprojected-column one.
fn instance(s: &Subject, damaged: bool) -> Arc<Table> {
    let mut t = Table {
        quarantine: Quarantine::default(),
        ..s.table.clone()
    };
    if damaged {
        let (file, per_page) = if s.layout == ScanLayout::Row {
            let rs = t.row.as_mut().unwrap();
            (&mut rs.file, rs.tuples_per_page)
        } else {
            let cs = &mut t.col.as_mut().unwrap().columns[0];
            (&mut cs.file, cs.values_per_page)
        };
        let page = BAD_ROW as usize / per_page;
        Arc::make_mut(file)[page * PAGE + 100] ^= 0x10;
    }
    Arc::new(t)
}

/// Every cell of the matrix, in `GOLDEN` order: `(name, digest)`.
fn cells() -> &'static [(String, u64)] {
    static CELLS: OnceLock<Vec<(String, u64)>> = OnceLock::new();
    CELLS.get_or_init(run_matrix)
}

fn run_matrix() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for s in subjects() {
        let windows: &[Option<(u64, u64)>] =
            if matches!(s.layout, ScanLayout::Row | ScanLayout::Column) {
                &[None, Some(WINDOW)]
            } else {
                &[None]
            };
        for fast in [false, true] {
            for (pi, preds) in s.predicates.iter().enumerate() {
                for &window in windows {
                    for damaged in [false, true] {
                        for block_tuples in [1usize, 100] {
                            let name = format!(
                                "{} fast={fast} preds#{pi} window={window:?} \
                                 damaged={damaged} block_tuples={block_tuples}",
                                s.name
                            );
                            let sys = SystemConfig {
                                page_size: PAGE,
                                block_tuples,
                                on_corrupt: if damaged {
                                    OnCorrupt::Skip
                                } else {
                                    SystemConfig::default().on_corrupt
                                },
                                ..SystemConfig::default().with_scan_fast_path(fast)
                            };
                            let ctx =
                                ExecContext::new(HardwareConfig::default(), sys, 1.0).unwrap();
                            if s.layout == ScanLayout::ColumnSlow {
                                // Submission order only shows against a
                                // competing scan (Figure 11).
                                ctx.add_competing_scan();
                            }
                            let mut spec = ScanSpec::new(
                                instance(&s, damaged),
                                s.layout,
                                s.projection.clone(),
                            )
                            .with_predicates(preds.clone());
                            if let Some((start, end)) = window {
                                spec = spec.with_row_range(start, end);
                            }
                            let mut scan = spec.build(&ctx).unwrap();
                            let (mut rows, mut blocks) = (0u64, 0u64);
                            let mut first = None;
                            let mut last = None;
                            while let Some(b) = scan
                                .next()
                                .unwrap_or_else(|e| panic!("{name}: scan failed: {e}"))
                            {
                                rows += b.count() as u64;
                                blocks += 1;
                                let shown = (b.rows().unwrap(), b.positions().to_vec());
                                first.get_or_insert_with(|| shown.clone());
                                last = Some(shown);
                            }
                            let report = settle_report(&ctx, rows, blocks);
                            let counters = ctx.meter.borrow().counters();
                            let mut h = Digest::default();
                            h.report(&report).fields("counters", &counters);
                            for (rows, positions) in [first, last].iter().flatten() {
                                h.rows(rows).u64s(positions.iter().copied());
                            }
                            out.push((name, h.finish()));
                        }
                    }
                }
            }
        }
    }
    out
}

#[test]
fn every_cell_matches_the_parent() {
    let cells = cells();
    assert_eq!(cells.len(), GOLDEN.len(), "the matrix changed shape");
    let wrong: Vec<String> = cells
        .iter()
        .zip(GOLDEN)
        .filter(|((_, got), want)| got != want)
        .map(|((name, got), want)| format!("{name}: {got:#018x}, golden {want:#018x}"))
        .collect();
    assert!(
        wrong.is_empty(),
        "{} of {} cells moved; first: {}",
        wrong.len(),
        cells.len(),
        wrong[0]
    );
}

/// The digests see what they claim to: a dropped page, a window and a
/// different block size each change the cell.
#[test]
fn the_axes_are_live() {
    let cells = cells();
    let digest = |needle: &str| {
        cells
            .iter()
            .find(|(name, _)| name == needle)
            .unwrap_or_else(|| panic!("no cell {needle}"))
            .1
    };
    let base = "column/orders-z fast=false preds#1 window=None damaged=false block_tuples=100";
    for other in [
        "column/orders-z fast=true preds#1 window=None damaged=false block_tuples=100",
        "column/orders-z fast=false preds#2 window=None damaged=false block_tuples=100",
        "column/orders-z fast=false preds#1 window=Some((700, 2300)) damaged=false block_tuples=100",
        "column/orders-z fast=false preds#1 window=None damaged=true block_tuples=100",
        "column/orders-z fast=false preds#1 window=None damaged=false block_tuples=1",
    ] {
        assert_ne!(digest(base), digest(other), "{other}");
    }
}

#[rustfmt::skip]
const GOLDEN: [u64; 512] = [
    0x8899df02e59d5ee4, 0xc722bc4e2dff5c8d, 0xf680c0bed515fbf0, 0x46cda26ad96a62b2,
    0x8c77cd1e3fb34d99, 0x16395d462df202c7, 0x61a49a523df3b393, 0x251d5b0ac7b02106,
    0x4b8f1dea2357b469, 0x45125f3b081033c6, 0x9066c62386dd938e, 0xdcd530ad993f24bf,
    0x8afd05f95b74e3fd, 0x9dd9438e48778a09, 0xec7e4bf3be8a6285, 0x91e10e7d34006ce9,
    0x73b52ff48e81ed5f, 0x37a788da2cf31fc3, 0xa77f7fdee0a9b366, 0xeb3521628bbe68b4,
    0x89634f7f6361924c, 0xbacd43c438ef61a8, 0xd4de0942a13d4680, 0x58693a1adedd23cb,
    0x11a7994da3b7ad9d, 0xf82952fae266ee5c, 0xcd0889ad6d90436c, 0xf9b303b2994897eb,
    0x0e02088738362b55, 0x3aaa44b6d1057257, 0x83abc3099f698df3, 0x2266b7166356ad2e,
    0x8899df02e59d5ee4, 0xc722bc4e2dff5c8d, 0xf680c0bed515fbf0, 0x46cda26ad96a62b2,
    0x8c77cd1e3fb34d99, 0x16395d462df202c7, 0x61a49a523df3b393, 0x251d5b0ac7b02106,
    0x4b8f1dea2357b469, 0x45125f3b081033c6, 0x9066c62386dd938e, 0xdcd530ad993f24bf,
    0x8afd05f95b74e3fd, 0x9dd9438e48778a09, 0xec7e4bf3be8a6285, 0x91e10e7d34006ce9,
    0x73b52ff48e81ed5f, 0x37a788da2cf31fc3, 0xa77f7fdee0a9b366, 0xeb3521628bbe68b4,
    0x89634f7f6361924c, 0xbacd43c438ef61a8, 0xd4de0942a13d4680, 0x58693a1adedd23cb,
    0x11a7994da3b7ad9d, 0xf82952fae266ee5c, 0xcd0889ad6d90436c, 0xf9b303b2994897eb,
    0x0e02088738362b55, 0x3aaa44b6d1057257, 0x83abc3099f698df3, 0x2266b7166356ad2e,
    0x1224a4a54fb6c0f2, 0x5a77d4d47698a566, 0xcd9db7a6cfa26a2d, 0x984a04b1a0d44602,
    0xc33a7ec6cb5ed076, 0x04f7708c758fb8b6, 0x1a1128d9289ca5f6, 0xa872f3f2758be50e,
    0x12e4ab93ad652577, 0x075a73e83545e09a, 0x6ee74180b29f72fc, 0x349ec1241e94d573,
    0xfc4855f01ec21d5d, 0x0f69fad31b1ff721, 0x553dd9bc7f60a327, 0xb06ebc7b7134f7f1,
    0x58e23e54c78fb32e, 0x2252f99f9f050513, 0x363e25139e88de65, 0xb21ba9be217ab7de,
    0x675b4388315fde9d, 0x783c52848d11e8a3, 0x0a749d8568fd2bc6, 0x670ad21a57ad4de8,
    0xfb1fb729cc323d80, 0xfd2f81aff2f87cc3, 0xc852c1dff4e65a00, 0xa2e91f0a8afa2036,
    0x95bb5c6f3d8bb791, 0x0e4e24a205e7500d, 0x8d0059888efd8d4d, 0x9b93f1c7217c4852,
    0x1224a4a54fb6c0f2, 0x5a77d4d47698a566, 0xcd9db7a6cfa26a2d, 0x984a04b1a0d44602,
    0xc33a7ec6cb5ed076, 0x04f7708c758fb8b6, 0x1a1128d9289ca5f6, 0xa872f3f2758be50e,
    0x12e4ab93ad652577, 0x075a73e83545e09a, 0x6ee74180b29f72fc, 0x349ec1241e94d573,
    0xfc4855f01ec21d5d, 0x0f69fad31b1ff721, 0x553dd9bc7f60a327, 0xb06ebc7b7134f7f1,
    0x58e23e54c78fb32e, 0x2252f99f9f050513, 0x363e25139e88de65, 0xb21ba9be217ab7de,
    0x675b4388315fde9d, 0x783c52848d11e8a3, 0x0a749d8568fd2bc6, 0x670ad21a57ad4de8,
    0xfb1fb729cc323d80, 0xfd2f81aff2f87cc3, 0xc852c1dff4e65a00, 0xa2e91f0a8afa2036,
    0x95bb5c6f3d8bb791, 0x0e4e24a205e7500d, 0x8d0059888efd8d4d, 0x9b93f1c7217c4852,
    0xefa6db776992c28a, 0x9599d988aa5dadd0, 0xdfc035b1c111c0d8, 0x182b79eaf8788f40,
    0x8276069e4ecf8dc5, 0xab2b0109f4d16d78, 0xa659bddbf7480350, 0x61ef0d2018ece142,
    0xfd0da2426e53d33b, 0x15454ab54acfde9b, 0x2d55d9b545cecaaf, 0x8c56648ee2e51266,
    0xc550be18428d83c7, 0x607d4523ca327aa9, 0xabbb8c3f31f4fa67, 0xdccaf44bdb1ab1f6,
    0x8e45bffc55f10121, 0xbeec6a3e564f394b, 0xf101522c3ed8ebb3, 0xd3cdc3af1cd2be9d,
    0x714e2cd35e0f7d26, 0x3e43c7d280388d23, 0x2687cbcb95434092, 0xc208827179232e64,
    0xd2cfc3f85e7b89aa, 0x900f5bd1bd420b3a, 0x2fdc47e4f3e36684, 0x2c6e57875e78384c,
    0x10e4610d79caa217, 0x8f44c50fd0b1dbc5, 0xa62e81c952de9eba, 0x4c2862dee3a22675,
    0xefa6db776992c28a, 0x9599d988aa5dadd0, 0xdfc035b1c111c0d8, 0x182b79eaf8788f40,
    0x8276069e4ecf8dc5, 0xab2b0109f4d16d78, 0xa659bddbf7480350, 0x61ef0d2018ece142,
    0x1828efac57133fb2, 0x29ced54481c97730, 0xfac7cbcdaca8af68, 0x079ba95dc1cea7a9,
    0x0dbce9c604c1e721, 0xee9b6afa05f10a22, 0x74517665835040b9, 0xd31bf61b619e64e9,
    0x8e45bffc55f10121, 0xbeec6a3e564f394b, 0xf101522c3ed8ebb3, 0xd3cdc3af1cd2be9d,
    0x714e2cd35e0f7d26, 0x3e43c7d280388d23, 0x2687cbcb95434092, 0xc208827179232e64,
    0xf35d3d47014d2701, 0xec5dbecc74afc8d7, 0xe0d95dd814c699a5, 0x7adf1abcc40e08a3,
    0xc5b1506187dc5e4e, 0xaa84c098a6e36eed, 0xda6ffb2bd7c51559, 0xf7ffef7e9e1656fd,
    0x9fdb6b48ec12f72f, 0xd18ee963baeb6241, 0x6a8bdd26ea68e609, 0x3be93d3288dea2bd,
    0x71de27ad5f2d49e2, 0x888548abc4fbb922, 0xdf72fdba57180593, 0x14327cf7ab4aaa1b,
    0x4c47d9b3b69151c3, 0x6f246a709844fb1a, 0x02a83cb788307cfa, 0x788c99997e7d6256,
    0x3654d9c10dbbc731, 0xe98f2be6fd075b18, 0x1a663424fc56c2a0, 0x4da68f8732717bd5,
    0xcf7dfb571e04157f, 0x2155601962a8d996, 0x2b9c72e0dba2bde4, 0xb125465ca71df4ea,
    0x94141d1be977c34e, 0x7399bdf86b717806, 0x0cca6012182adef6, 0xde3ef77995fcae8b,
    0xd27f22ad479199b5, 0x2392fde6ab7d44fe, 0x40a87b58b4a02cc5, 0xa8e62b6db8539e19,
    0x95493a02a44ffdeb, 0xdf62776e3631ba02, 0xbb7705953ebee79d, 0x9c0bf176e7c96929,
    0x9fdb6b48ec12f72f, 0xd18ee963baeb6241, 0x6a8bdd26ea68e609, 0x3be93d3288dea2bd,
    0x71de27ad5f2d49e2, 0x888548abc4fbb922, 0xdf72fdba57180593, 0x14327cf7ab4aaa1b,
    0x4c47d9b3b69151c3, 0x6f246a709844fb1a, 0x02a83cb788307cfa, 0x788c99997e7d6256,
    0x3654d9c10dbbc731, 0xe98f2be6fd075b18, 0x1a663424fc56c2a0, 0x4da68f8732717bd5,
    0x03ea1ca1d99bb46d, 0x75347f866f53d0af, 0x5d5092b4b9fa28ea, 0xad4ed19dfcfcbbf6,
    0x8f7f61cd81f276fd, 0xf4e22adc83eee5bf, 0x15dfcef72af07a88, 0x36d919ab83fd44f9,
    0x944d31b3d9be8917, 0x54e80f0329451ed0, 0x9c72347df22a69ca, 0xb60266068750a74c,
    0x81926552f9815bd3, 0x6232a45a89e3e96e, 0x41130c6712e0ac17, 0x6ff5dfb36a844d2b,
    0x09ebf1921d73e30c, 0x653aa249ca1e2b62, 0x6886dcac8c6641c7, 0x7258c43ff6c991ee,
    0x95d20aba454de9aa, 0xd6c709defe559232, 0xe2f2bed61c77ae5a, 0xbd4a7eebfb20c8c3,
    0x1bdf14a963e0baad, 0x5a5bd0a55eac5538, 0x9f7ba8dd7421c682, 0x07dab6b551cd5569,
    0xe1472063afad51c6, 0x19830765891c8c4f, 0x6226426d405e77a3, 0x3eda56d2b16932f9,
    0xbbb9c12551288c28, 0x74d53306635eafc7, 0x6e81fc6d4a00657e, 0x847bee2f51b3a26b,
    0x0ddfb998a632636e, 0x5cf3cd58092242b2, 0x527cdc715d87265e, 0x3c10fe49a0e2b879,
    0xee836e4face128f6, 0x57403d88361a74b7, 0x8c39b89e924b27fa, 0xd446c943e42e6d0f,
    0x6ba40f7c315676ef, 0x478b262841a1aef6, 0xb440e4ca0380354f, 0xf4e723b9670db2c8,
    0x971ce01d6947d43a, 0x2848c1f2f20dc406, 0x2b6fd772be787562, 0x6f7021f46d6ede85,
    0xa7e79bee7b7d405a, 0x4fe2cc71b5a3f0d9, 0x427341911a49ed16, 0xa17c096b2d785356,
    0x3eb0e22aac92601e, 0xcd8837ed9d6d16b9, 0x5c971768f4a66f6e, 0x806d8fda04f6a480,
    0x0e5eeb26ebc8620d, 0xa813ffb489b9f9d2, 0x7d83c59387239adb, 0x097ebf294bacba1a,
    0x594de0593a9e4ea1, 0x598d6730ce80b491, 0x099a88dd5563261c, 0xb5aea8edb1b4e02a,
    0x22f96e5cb023bb5d, 0x07ceebba4bb1ab46, 0x43f4f1430f7d3fa3, 0xf8838cfaa57a8a20,
    0x47a364cf0de17f76, 0xa1ed7bec2df17ac3, 0x36eae633a8daa3ab, 0x2ca4f39df662f26f,
    0x43e6bb4619be7f12, 0xbf2bb98b073d5a59, 0x5c529d837b25a770, 0x3858af9c971d6ec0,
    0xe3f3f56e29a8a209, 0x3900db4723aada45, 0x08c2638887da6653, 0x3c01313420474339,
    0x150e260c1024d00e, 0x7ba80a149d1f5abc, 0xaa7ed98a7656c7f7, 0x51abd4b2c4a35943,
    0x4d63fff8f0e306b4, 0xdf2e0e187efca844, 0xe9b1e67b0ad18429, 0x8166206100e865cd,
    0x2c479cf528542db4, 0xf6987fbe863a9068, 0xeacd8472694adbbb, 0xf5847f47532f5569,
    0xaf7f3ce3542b8f27, 0xb1e01dcd15651549, 0x8560b5473d0954d7, 0xcc2a736927687fe2,
    0x3f010af61362f0fb, 0x7c86e7745b80faeb, 0x0076ebcec58b6203, 0x4752647d09d24e4f,
    0x011a85232b9bee0d, 0x23a21c328e3cac14, 0xd9ad1dfa74ac97c6, 0xde0e6c163beb5d6f,
    0xdfdb8af67d842023, 0x6bb6b1cd343d3c29, 0x9f8134fe24179538, 0x41f9c6cb3e2564a3,
    0xb69ed19bbc5b3eba, 0xd1086d638ec73f6c, 0x582812a3d2544722, 0x8e15ec572f79d6f5,
    0xeafaac03d4acc84c, 0x826f038b681e0a4b, 0xb47b4749f0cf5f7e, 0x7b2596302a2ef84a,
    0x9696e22d9e7309ec, 0x6a1f4222a1509a91, 0x6edf70eb3fd89a03, 0x9734206490f2e95c,
    0x897ebbbe5b60ac6d, 0xab3417b72af061e4, 0x3e64907ee0a56391, 0x34307871dfa16fba,
    0xa28ee96e24648fd1, 0x617b09e2d4c102cb, 0x279df2b7faa49966, 0x6300a83a080de267,
    0xd6ec94addf281b71, 0x6d8b10223ed20991, 0x7ff4c8114b5ac3b8, 0xb992605a44f6c76b,
    0x542b77da76bb9d3a, 0x1f42d318550ce007, 0x0fd7787c0284ab8f, 0x5185f0b0f3f4b3b0,
    0x2a02b4c6dc40106c, 0x64eb236cfa758110, 0x2132e758075fa2a9, 0xceb84f964ce04b2e,
    0xee72fe969146545b, 0x1a832fc333122a8c, 0x57af198669f01682, 0xe18ad3185585a501,
    0x010fe9ee96ed473c, 0xbee7e398790f8cf0, 0xb4f595056b0d8ae7, 0xeaae5918584667d1,
    0xa8f008465f7f7409, 0xd084193cce39082c, 0xebf4a41d2a76eb9e, 0x681bdc0a3b90fc2f,
    0xd99dd8c96c68bce2, 0x046db4b314d19258, 0x18bafecae15a58f9, 0x5c057a172e5f50e1,
    0x95217b5ec469a49c, 0x0a07ab03516f06c7, 0xc583b7a0dcaed1ab, 0x097e103ad6a0cc38,
    0xe4dcca9b47cc6d5c, 0x1723dfc69cb58e9f, 0x3ce6ebfa78736230, 0x7a98ff117f946737,
    0xa2e741b1ba6154ab, 0x953751768d56d0f5, 0x65d17a5eb17e0c00, 0x6071ca5f50998949,
    0xf009d57e4be8b151, 0x386185dac8a60e06, 0x3ad8f6e5810016a9, 0x4923d0d4301a22c8,
    0x68436e80ba2a7105, 0xa90a8c2dffac2be7, 0x9570469531cf2197, 0xbe1fccb1f40b9088,
    0xb4b3cabd04040c10, 0x5a1c8f26fe64670c, 0xead16db22d214994, 0xd8d1cdcf210fe3c1,
    0x2a77888ced070a52, 0xb1006da9e57ea2d2, 0x2c316bbaa1597276, 0x15ee0a99e3b70773,
    0x0e7c50097fcc1410, 0x76fcdc0998df0281, 0x518c7ecf16f3720c, 0xc9474bda40d793f8,
    0xd65eb0819fd54630, 0x834f46104cce147f, 0x560747a640a2c69c, 0xa8ecbb211b9b98a1,
    0x12f2fe19fcdb714b, 0x436b26567d9616ae, 0xf8001589ebaf324d, 0x1f1c190c4b2b64d2,
    0x4b41564c5399f433, 0xd20e1684174654ee, 0xa371e4b3d993db67, 0x53c0ea3c0867a308,
    0x9052b5d431004e1e, 0x9c4237d79b2f494e, 0x5c79962c5f87893f, 0x79ee702ebf496375,
    0x405f1865240993e5, 0xed7dab058f9dbcd3, 0x6c90fe5d56729804, 0xacef04735f92684b,
    0xb0ae10401e0ce86b, 0x9a60ae21f9b123a7, 0x473860d7444595f0, 0xfea9ccde8f0723b9,
    0x7009b94abb45a3ae, 0x50c7c01aaa0c8179, 0xe2fedf52d0c1904d, 0x4f152d6d5f9ff689,
    0x9351f3c46965994f, 0x16735b3fcda94a33, 0x82213c2f45a82d8a, 0xeeadfb44accef992,
    0xb636417bf6cd807d, 0x1c0f8c11e6d7a3c9, 0x71a0b954743201af, 0x1e01d5cb8c09225c,
    0xf92689ff53d50a5d, 0x7657403d0688457f, 0x8040e9ed1c0a74fa, 0xafc9a6bb29e9c30f,
    0xd9d414f17dbeaeb2, 0x9f08ee9f69ea1d03, 0x4d3ea4502309f558, 0x8d0ccf65f4960c50,
    0xa4dafc04e12418ab, 0xa439f9b30169a8ee, 0xff49697b697867a4, 0x9e4dc23ac414adcf,
    0x9fdfe79ce38eb8e4, 0xec143a8209a62917, 0xfa9394814e36904f, 0x870c44b54f06a1a5,
    0x3fa2dc647b3c9cc7, 0xbf40b37fe2c1cbe6, 0x7d1aa82e6303b5bc, 0xb6f10067a0639b57,
    0x044c9a8b8010a803, 0xad908e40a2afc185, 0xd0d3ebe9d32d5f18, 0x77d7d378ba2043a9,
    0xf2fd3afd2846f1cb, 0x828ab2f89e6ce509, 0x3a812a9ac9316261, 0x2f4dda4c5dfff61c,
    0xb9ca2a8e92c7b660, 0x0520bf9e1acb8799, 0x650ed38e013d28bc, 0xebba62295bcecc8c,
    0x06bf0099c99fd344, 0x68ae352220fb627e, 0x5539f0adfab35004, 0xa17021f4fa31bdfb,
    0xafd3155ad97fc0ef, 0x5938c04f4be1294a, 0x867d364269478ffc, 0x8f3be18a06558534,
    0xbc8a4a813bc7c5b4, 0x523dabfac3cf9160, 0x4e5f7d8715644064, 0xec4bcb15ee908e5e,
];
