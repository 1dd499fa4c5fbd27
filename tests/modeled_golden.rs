//! The modeled numbers of a scan are pinned, cell by cell.
//!
//! Every scanner charges the modeled clock by hand-counted events, so a
//! refactor of the scan path is correct only if every count comes out
//! bit-equal. `results/*.txt` shows that at figure scale; this test shows it
//! in tier-1, for a fixed matrix on small TPC-H tables: one FNV-1a digest
//! per cell over the `Debug` text of the [`RunReport`] **and** of the raw
//! [`CpuCounters`](rodb::cpu::CpuCounters) (two counters swapped at equal
//! cost change the second but not the first), plus the rows and positions of
//! the first and the last block.
//!
//! `GOLDEN` was computed at the parent of the scan-core refactor (PR 20).
//! A digest may change only together with the checked-in figures; the
//! failure message names the cell, so a changed number is a one-cell
//! bisect, not a diff of thirteen result files.

use rodb::engine::settle_report;
use rodb::prelude::*;
use rodb::storage::Quarantine;
use rodb::types::OnCorrupt;
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

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every cell of the matrix, in `GOLDEN` order: `(name, digest)`.
fn cells() -> &'static [(String, u64)] {
    static CELLS: OnceLock<Vec<(String, u64)>> = OnceLock::new();
    CELLS.get_or_init(run_matrix)
}

fn run_matrix() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for s in subjects() {
        let windows: &[Option<(u64, u64)>] = if s.layout.supports_ranges() {
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
                            let counters = *ctx.meter.borrow().counters();
                            let text = format!("{report:?}\n{counters:?}\n{first:?}\n{last:?}\n");
                            out.push((name, fnv1a(&text)));
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
    0xa93f10106c7523ff, 0x29a9352bc1469477, 0xa38e27c2a6f67af6, 0x4587884c0136b894,
    0x31d0b98fdc3c428a, 0xb59badcce0fd7418, 0x13e5a98a6654bcf7, 0x7e6ad98ac31635b7,
    0xcd8e494a851c1e94, 0x4c2b38622287692d, 0x08bf83a49b0848d3, 0x5b7bcdb1a9205962,
    0xf86c0a113b5988c1, 0xa9c1b45f032e19fb, 0xd20155e839338a13, 0xda447400b4c9a94f,
    0x1464f64611b9d843, 0xb6c14abb8f74205c, 0x1a47e6d67229879f, 0xd5cc175e152b0c70,
    0x622cf9b5557f7e31, 0x5704cf0f48e2f714, 0x7b9f569f8cb4df47, 0xa02c2c96610084f9,
    0x18cf846616868118, 0x793cb7d430937458, 0xd72d00223f4ae5fb, 0x449d738ae1361cc3,
    0xb3df8bc68b75f389, 0xa2becf480613f15f, 0x6838b3992b7b0502, 0xb55c3dce679d1309,
    0xa93f10106c7523ff, 0x29a9352bc1469477, 0xa38e27c2a6f67af6, 0x4587884c0136b894,
    0x31d0b98fdc3c428a, 0xb59badcce0fd7418, 0x13e5a98a6654bcf7, 0x7e6ad98ac31635b7,
    0xcd8e494a851c1e94, 0x4c2b38622287692d, 0x08bf83a49b0848d3, 0x5b7bcdb1a9205962,
    0xf86c0a113b5988c1, 0xa9c1b45f032e19fb, 0xd20155e839338a13, 0xda447400b4c9a94f,
    0x1464f64611b9d843, 0xb6c14abb8f74205c, 0x1a47e6d67229879f, 0xd5cc175e152b0c70,
    0x622cf9b5557f7e31, 0x5704cf0f48e2f714, 0x7b9f569f8cb4df47, 0xa02c2c96610084f9,
    0x18cf846616868118, 0x793cb7d430937458, 0xd72d00223f4ae5fb, 0x449d738ae1361cc3,
    0xb3df8bc68b75f389, 0xa2becf480613f15f, 0x6838b3992b7b0502, 0xb55c3dce679d1309,
    0x9aa24073b6951faa, 0x9e9247e6fc1ca2aa, 0x1b35bb7874140442, 0x02139cb9fdbda5ed,
    0x12d79f1bc29ff9db, 0x49fbd69f7ad9a137, 0x67d6f3a0c04a5c78, 0xa04264f5070dd94b,
    0x4ce183f7bf5152d7, 0xf8c0d119267860ed, 0x025b425b21cf2c19, 0xf20308847367cfbb,
    0x30883bda8856d38d, 0x8b0f63c89aa64e12, 0xf12c014379614a42, 0x5d7de6a00000bf52,
    0x5f85ba57d15fc89d, 0x86aa6411337d8ced, 0x3ee2dc6a737e34f9, 0x6d01c59535a48a12,
    0x3627395c492e3457, 0x6f86f168deafe6bd, 0x0e7d947d78c1a752, 0x11f5c60f825b60aa,
    0xcc8eefc28839807f, 0x606d3dcf58be6d3b, 0xe5a07c1325e18350, 0x6d3950e3dc9c6a49,
    0x5b3dc67f3324241d, 0x897f73d5f073394c, 0xc1449eb41d1b21ca, 0x3693c7d07f5a22a2,
    0x9aa24073b6951faa, 0x9e9247e6fc1ca2aa, 0x1b35bb7874140442, 0x02139cb9fdbda5ed,
    0x12d79f1bc29ff9db, 0x49fbd69f7ad9a137, 0x67d6f3a0c04a5c78, 0xa04264f5070dd94b,
    0x4ce183f7bf5152d7, 0xf8c0d119267860ed, 0x025b425b21cf2c19, 0xf20308847367cfbb,
    0x30883bda8856d38d, 0x8b0f63c89aa64e12, 0xf12c014379614a42, 0x5d7de6a00000bf52,
    0x5f85ba57d15fc89d, 0x86aa6411337d8ced, 0x3ee2dc6a737e34f9, 0x6d01c59535a48a12,
    0x3627395c492e3457, 0x6f86f168deafe6bd, 0x0e7d947d78c1a752, 0x11f5c60f825b60aa,
    0xcc8eefc28839807f, 0x606d3dcf58be6d3b, 0xe5a07c1325e18350, 0x6d3950e3dc9c6a49,
    0x5b3dc67f3324241d, 0x897f73d5f073394c, 0xc1449eb41d1b21ca, 0x3693c7d07f5a22a2,
    0x06ba36521e9c8758, 0xad43a70f56969b6a, 0xc8c20c6a3faf6ce1, 0xcfe509a276039d38,
    0x574f5e10fb88648a, 0x20ced8ccbe64cbca, 0x79dc26abde326591, 0x45acf61ad4f73088,
    0x64c9f51a6ee1af79, 0x2ec1887914bbbb89, 0xc836226effb744ef, 0x57e42afe40dcb508,
    0x5cfb61787574348d, 0xc30e43b5c2725d93, 0xcf7dddedbcf4bef9, 0x03be1743e178b571,
    0x71245355c15f54b6, 0x948e0370abd537d3, 0xb76d7471245401b2, 0xba2b594fbbe7d185,
    0x1fcb11ea2cd3b97d, 0x618b3f06b2316ab4, 0x08d7941727bf0000, 0xf40be16ad8514ac2,
    0x1b84d952dbada46a, 0xcc377933376d908a, 0xc3610182bc0af513, 0xf615c9e1adb89667,
    0x8dd99a703ead0f23, 0xa61f3bb7e0489641, 0x10d12fd045f8513c, 0x506b8cf2c8344f1f,
    0x06ba36521e9c8758, 0xad43a70f56969b6a, 0xc8c20c6a3faf6ce1, 0xcfe509a276039d38,
    0x574f5e10fb88648a, 0x20ced8ccbe64cbca, 0x79dc26abde326591, 0x45acf61ad4f73088,
    0x7a46c371a8399a98, 0xbffd3de5a366a7b7, 0x7718d989dbc70124, 0x09043dcbe37c1155,
    0xf87d9f1d5cf4dca6, 0x1f247a595cf55338, 0x0905b12de2a64221, 0x87caec736622ac71,
    0x71245355c15f54b6, 0x948e0370abd537d3, 0xb76d7471245401b2, 0xba2b594fbbe7d185,
    0x1fcb11ea2cd3b97d, 0x618b3f06b2316ab4, 0x08d7941727bf0000, 0xf40be16ad8514ac2,
    0x206d39d560ce6ed6, 0xdd8c3ef7660c79e9, 0x17a475bc1010a8a4, 0xf1b503276189c80d,
    0xdb61faa3b423caa4, 0x2d695e1ea12b2486, 0xe7dafde15c9ed9a0, 0xa71425fc09f00168,
    0xcfc93b0f52bba721, 0x8b3e867dbfcdf122, 0xb6fa908f6f010d50, 0x12c866dbd80a14f1,
    0xd9c2ada9128a714b, 0xf0784423aa2bd4fb, 0x94648933c9c2c746, 0xad96b7c09b86c384,
    0x28d6ecf7d11a07e2, 0x583cc08177f436a2, 0xc471d2c73b5615a3, 0x879756ca686ac51f,
    0xda8549a3709e7c7e, 0xef6290e864196320, 0x0c026c8ccd3b0895, 0x17d94907cd25bc35,
    0xb9db138ca47d6611, 0x0134f9fa8fb8e538, 0xa68af1e1a124831a, 0x9fd546d01832be3b,
    0x878b4c61c70e933c, 0xc6b6407aa40ecd17, 0x158182fe36bdcea0, 0x24f218de037fc009,
    0xbc7ad08757d59ae0, 0x4cd93a30aec95006, 0xbd0123a42f0f2810, 0x5c7e2bf968042ed8,
    0xf097e57c04b9502c, 0xc32b01bb799f494a, 0x86bf6cd3c7830e57, 0x6b714d36fa36c285,
    0xcfc93b0f52bba721, 0x8b3e867dbfcdf122, 0xb6fa908f6f010d50, 0x12c866dbd80a14f1,
    0xd9c2ada9128a714b, 0xf0784423aa2bd4fb, 0x94648933c9c2c746, 0xad96b7c09b86c384,
    0x28d6ecf7d11a07e2, 0x583cc08177f436a2, 0xc471d2c73b5615a3, 0x879756ca686ac51f,
    0xda8549a3709e7c7e, 0xef6290e864196320, 0x0c026c8ccd3b0895, 0x17d94907cd25bc35,
    0x50990a66cf24578b, 0x85e19e1f9c7221af, 0xb1341cc14830bc90, 0xac86b68ab8e2cc28,
    0xba4cbfa37a6ccf46, 0xc7ed41117d89c477, 0x1f43d934ce693d51, 0xdc0795390b3dd164,
    0xd406a9724f40d9f1, 0x05d601c3efbf79df, 0x4dfaa5befa11d613, 0x7a2599fe5c30aa20,
    0xedf63c6ca0baf638, 0xd29692e4d16d45b8, 0x6a30069ac03a6e00, 0x684d8e22957e2dce,
    0xd5099c13902b948d, 0xa68610d17758f409, 0x3d474c266e63b18d, 0xf17f376eb25175d8,
    0xdf7ec673159ab0e9, 0xd84169446baea4c3, 0x167edbed3beb611a, 0xe4813383154791d9,
    0x0b135d1f8ebe37ea, 0xcc60561114409fc9, 0xaa798f5f23acd34b, 0xe3a7ba6651d2715b,
    0xd2ce83e82c13cc0c, 0x4ece8d45df399d5a, 0xf4de237acc40e935, 0x464b144d64e021b6,
    0xc1de41ca29407fe5, 0x7f7080fd6d6bd7de, 0xa35bb6f5bfa34792, 0x590fb3edeee93726,
    0x42927590e9c27209, 0x83c3855348250835, 0xb669b51cf0390480, 0x63a84effb69eecdf,
    0x55249d87f23fd34d, 0x78390d9c6da0cf23, 0xc433d28cb8e5a45f, 0xf3b041e57ff55de4,
    0xea7b5876e3fd3394, 0xcc3676442f3e216f, 0x6311d953346f7d2b, 0x285f3f300c6560dc,
    0x1ba7aebf26e79ad6, 0x630f35c532027fa8, 0x74aaef33fe173eab, 0xf9868c5b3b4a6a64,
    0x625c6c1314ed3eaf, 0xf487134fc3c5e4b4, 0xa8c328fe7e7963c4, 0x687c55f686d2d191,
    0xb510c923080372f6, 0x9d3405807dfdfd4c, 0xd22daf6facea13dc, 0x642d6b1f566e9a8b,
    0xd325cb1ce75b1dbd, 0x08fd02d01edb5075, 0xcda71142f1c7353b, 0x92cbf19a0c4a34fe,
    0xdf7aae61567d6757, 0xbc1bd792d9769672, 0x34379a0036b0ab64, 0xa4d351821e50afe4,
    0x9c9dd05ec9a46702, 0x4e4cd5bb6122a037, 0xf2d593376efa9a0d, 0xcad14670def13674,
    0xcacee2c8a5840b33, 0x63e79f6ada0474ab, 0xa7c13be4030b259d, 0x93ab8a10465d2d0c,
    0xd00e7c657080f775, 0x699964ab87871fbf, 0x80dfba6681d9e6b5, 0xa045d1054a18b56c,
    0x3975da2cb052751c, 0xc14669dc78c59f0d, 0x8f101e80281d60a4, 0xb06e688b973af6c9,
    0xbb7a48ea52a6dee6, 0x10ea90d7fa8b65d1, 0xd8e23d1a00e6dd78, 0x232d03a107e1b8b3,
    0x4b6cf941b15a9300, 0x0814fd0bfe9db2b2, 0x410807997029ae6d, 0x871d1d634bb4c2a9,
    0xb9a72fef028577cf, 0x618a17c28b3dd225, 0x635b9c9b490c0b45, 0x44fac0bbe7a5c768,
    0x7f0b639650f36255, 0x191b5a6768fc0fb6, 0xaaee2c785e0ac09a, 0x02b91dec7d112cff,
    0xd5a5c9be6190d914, 0x2c759bea45d42ff7, 0x34671392500af4cc, 0xd350af7273ac6f4d,
    0x92a1135652e8a067, 0x04869f97f01c9498, 0x125a50e0259fab23, 0xaae37b71d22c0db3,
    0xc11f8d966b73c21a, 0x31c39b18d950127d, 0x66827912685b106d, 0x5dce7c991fde0c91,
    0x14a92b80cbaad782, 0x957a7831e68b7511, 0xd39b43542a943205, 0x16636c2b1ebbc928,
    0x912cb8df4e076e02, 0xe7682217aa1ee542, 0xc2cc80cafbe63d5a, 0x2fb3a32a3bcefdce,
    0x9abd38b5d4e61dd1, 0xcde00915e6d30619, 0xa69e799c15b70072, 0x2f79513e1d02f05b,
    0x9748199f51e6e9b3, 0x4fb4c083e2f67969, 0x2135336b90bf706c, 0x7127884f0e8d86e7,
    0xc5a0c53b35b18f84, 0xacd5a35791fb85dc, 0xea1bf3e64b8cf322, 0xfa4c9be64ec2c4d0,
    0xc01998201a5b3ce3, 0xa00d8cdfc1e4a3a2, 0x18e01874b681de97, 0xd9101592dfcfd03d,
    0x1db627a6a8065b6e, 0x662004978041aa11, 0x4d563e9e0f7f6fa6, 0x1c54639a9d8e9db6,
    0x6be926ae52b29a82, 0x927c88de6ceb0cb2, 0x1473de610d5e7e71, 0x706950b120bfc709,
    0xc3bced054a206ddf, 0x763b7e2a87dc7759, 0x0240b372b3f160f3, 0x1833b2e73c0abce4,
    0x4db0a19e455eab98, 0x8e118a2cd5a2247a, 0xf40dea9326d7b307, 0x10a980355e8811aa,
    0xcd9515a462705f43, 0x914af3f6ffb47597, 0x87f1cecc3ead5004, 0xe4eedd5894a6eea4,
    0xd0a7b0f6be235870, 0x1290f675691f17f1, 0x77d6886c0226f1bd, 0x5fff58a614c5f015,
    0xda0d3445a1b0c067, 0x1f25d1a38ac6ee9f, 0xa54faf89db2511a1, 0xa3d8ce54bd15b6df,
    0x58b4c200225acd7c, 0x395a7360cdff9401, 0x6afbe46d48b40a5c, 0x199c9dfc79c0f85e,
    0x0e07ef96b764f436, 0x047f7d7f027a296e, 0x1d4dd61a5291b971, 0x97eecd63ce640c3d,
    0xc4f397c16f5631ea, 0x2feb12455b4efd34, 0x75bce2a0283558db, 0x372cc33185adbeec,
    0x223f5e1673ce1715, 0x707519c53b44d8ab, 0x958302a3dee352e7, 0x7cbc4d4200a48c9a,
    0x701821a8f263b5da, 0x384e1d1e9225cb0a, 0x1701bc773724129a, 0xf8dd14036f66b035,
    0x4921f31adc306fc3, 0xb2e8547ac4fab017, 0xce54eaedb18d4b70, 0x1cf1fe3e99de3e31,
    0x27165b328ae938dd, 0x81598a61aa18472e, 0xe3edc7c7df794894, 0x0ae2d01971ce6aca,
    0xa3b18d48f87fc0d1, 0x7504cecdb787668d, 0x691b04b2618979f0, 0xde116f686890fb4b,
    0x315f753d5bef348a, 0x0ce7fa2af668be6f, 0x81db9764dc2103bc, 0xf5076688d06b48e1,
    0x2ba2008ec40aa14c, 0xc28ff6a982ce6476, 0x83460d3dccee4f9f, 0xa45c37e835b8a53d,
    0x7303f68b2390497e, 0xa255d8b59877f8e1, 0x76d3f5a6a5e5dcf8, 0x2683f776ad1afe2a,
    0x5fe7433ba0c0501d, 0x65c313362bb0939c, 0x1d1cae0b2ff04318, 0x6ae17b223822b97c,
    0x0f29afe37c2e7a13, 0xae3f9995407a9ecc, 0x29a48f71539ea2bc, 0x0212006d9fe84a3b,
    0x7631c77f45a522b3, 0x81075b578176bbba, 0x651aae1c5107b95f, 0x3b975d2811eb71f7,
    0xd93b7f49df8d72ff, 0x4b3f27aee46a10ae, 0x7869d12b727aff1b, 0x1ab5d3ee34b3d46d,
    0x24af1c3ff8ecdc5e, 0xbc7605ef4002a27e, 0x459a95f146f7598b, 0x2a9afde3c253be2f,
    0x3160586cabcf4b6f, 0xad42d133007bc1f0, 0x9f2458af835af804, 0x542850bc1eb67d7f,
    0x02b0f596d35f97b1, 0x8aa7f2c5b852a0c0, 0xf3fe586943b06a0d, 0x15f396bd6c87d424,
    0x00c06be071000736, 0x44373ad87f3718d8, 0x6680dede40c7abce, 0x80a3a70fde04adec,
    0x47440f36f0a4f4c8, 0x7acc82739c37db28, 0x404d550d898002a5, 0xbe8afa492ec6c96c,
    0xb59305aa7b5cdaff, 0xb68844df4167e6c0, 0xe463102d8005630f, 0x544b34b8e61fa78c,
    0x157a92855d0e1e16, 0x6e06d74d823efda9, 0x3d3cbe9a29a46f23, 0xe09bf1d6810311de,
    0xad386d9fa86c3c07, 0x47b95ca3db218305, 0xfadbb8f3edfb624a, 0xf6426e1a2ea7150f,
    0xa3cf95d7e81d7853, 0x08ab5b236a8fc517, 0x1b401e15b8bbe1fe, 0x512b7c81a1d513c9,
    0xc617b1fc9ea9b011, 0x7f4165760908d960, 0x71dca2f774d0755a, 0x2305a28a9de53a20,
    0xe9cb176dab54f3cc, 0x2ac251fe340d9241, 0x782c2aeafea63280, 0x3f3552113b3993e0,
    0x379cfaaeed84eab2, 0x26259691613d24f7, 0xc5f603ecbeb5739d, 0xfc1aff55177b7d56,
];
