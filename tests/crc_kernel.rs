//! The checksum kernel, held to account from outside its crate.
//!
//! `rodb::storage::page::crc32` seals and verifies every page and WAL frame,
//! and its own equivalence suite lives in `crates/storage/src/crc.rs`. Here
//! the kernel is compared with a reference that shares no code with the
//! crate — CRC-32 one *bit* at a time, no table — and then a faster kernel
//! is shown to still *fail* what it must: one flipped bit anywhere in a
//! sealed page of any of the four page formats, or in a WAL frame, is a
//! typed checksum error.

use rodb::prelude::*;
use rodb::storage::page::crc32;
use rodb::storage::wal::{replay, Wal, WalRecord, WAL_HEADER};
use rodb::storage::{ColumnPage, PackedRowPage, PaxPage, RowFormat, RowPage};
use rodb::types::CorruptKind;

const PAGE: usize = 4096;

/// CRC-32 (IEEE, reflected) by shift-and-XOR. The one `fn crc32*` and the
/// one spelling of the polynomial CI's "The checksum has one home" lint
/// allows outside `crates/storage/src/crc.rs`.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ 0xEDB8_8320
            } else {
                c >> 1
            };
        }
    }
    !c
}

#[test]
fn kernel_matches_a_bit_at_a_time_reference() {
    assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926, "the reference");
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let buf: Vec<u8> = (0..PAGE + 8)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect();
    // Every tail length several strides deep; every 16-byte residue and
    // every tail after one and two 64-byte folds (the folding tier starts
    // at 64 bytes); and the page-sized inputs: a 4 KB page less its CRC,
    // less its trailer, and whole.
    for len in (0..=80).chain(112..=272).chain([PAGE - 24, PAGE - 4, PAGE]) {
        for offset in [0, 1, 3, 7] {
            let s = &buf[offset..offset + len];
            assert_eq!(crc32(s), crc32_bitwise(s), "len {len} offset {offset}");
        }
    }
}

/// Every page of `file` opens; one flipped bit in the header, mid-body, each
/// trailer field or the stored CRC of any page is `Corrupt { Checksum }`.
fn every_page_verifies_and_any_flip_fails(what: &str, file: &[u8], open: impl Fn(&[u8]) -> bool) {
    assert!(!file.is_empty(), "{what}: no pages");
    let sites = [
        ("header", 1),
        ("body", PAGE / 2),
        ("page id", PAGE - 24),
        ("base", PAGE - 16),
        ("zone", PAGE - 8),
        ("crc", PAGE - 1),
    ];
    for (i, page) in file.chunks(PAGE).enumerate() {
        assert!(open(page), "{what} page {i} must verify");
        for (field, at) in sites {
            let mut damaged = page.to_vec();
            damaged[at] ^= 0x10;
            assert!(!open(&damaged), "{what} page {i}: flipped {field} bit");
        }
    }
}

/// `Ok` is a verified page, `Corrupt { Checksum }` a refused one; anything
/// else means the damage got past the checksum.
fn verified<T>(r: Result<T>) -> bool {
    match r {
        Ok(_) => true,
        Err(Error::Corrupt(c)) if c.kind == CorruptKind::Checksum => false,
        Err(e) => panic!("expected a checksum error, got {e}"),
    }
}

#[test]
fn sealed_pages_of_all_four_formats_verify_and_any_flipped_bit_fails() {
    let load = |layouts, variant| load_orders(700, 3, PAGE, layouts, variant).unwrap();
    let plain = load(BuildLayouts::both(), Variant::Plain);
    let packed = load(BuildLayouts::both(), Variant::Compressed);
    let pax = load(BuildLayouts::row_only(), Variant::Pax);

    let row = plain.row_storage().unwrap();
    let RowFormat::Plain { stored_width } = row.format else {
        panic!("plain table has {:?} row pages", row.format)
    };
    every_page_verifies_and_any_flip_fails("row", &row.file, |b| {
        verified(RowPage::new(b, stored_width))
    });

    let row = packed.row_storage().unwrap();
    let RowFormat::Packed { comps, .. } = &row.format else {
        panic!("compressed table has {:?} row pages", row.format)
    };
    every_page_verifies_and_any_flip_fails("packed", &row.file, |b| {
        verified(PackedRowPage::new(b, comps))
    });

    let row = pax.row_storage().unwrap();
    assert!(matches!(row.format, RowFormat::Pax));
    every_page_verifies_and_any_flip_fails("pax", &row.file, |b| {
        verified(PaxPage::new(b, &pax.schema))
    });

    for t in [&plain, &packed] {
        for (c, col) in t.col_storage().unwrap().columns.iter().enumerate() {
            let what = format!("{} column {c}", t.name);
            every_page_verifies_and_any_flip_fails(&what, &col.file, |b| {
                verified(ColumnPage::new(b, t.schema.dtype(c)))
            });
        }
    }
}

#[test]
fn a_flipped_wal_payload_bit_replays_to_the_frame_before_it() {
    let schema = std::sync::Arc::new(Schema::new(vec![Column::int("k")]).unwrap());
    let mut wal = Wal::new(schema.clone());
    let mut ends = Vec::new();
    for k in 0..4 {
        let rows = (0..=k).map(|v| vec![Value::Int(v)]).collect();
        wal.append(&WalRecord::Insert { rows }).unwrap();
        ends.push(wal.len());
    }
    let clean = replay(&schema, wal.image());
    assert_eq!((clean.replayed, clean.damage), (4, None));
    // One bit in the third frame's payload: frames 1 and 2 survive.
    let mut image = wal.image().to_vec();
    image[ends[1] + WAL_HEADER + 5] ^= 0x01;
    let rep = replay(&schema, &image);
    assert_eq!(rep.damage, Some(CorruptKind::WalChecksum));
    assert_eq!(
        (rep.replayed, rep.valid_len, rep.discarded),
        (2, ends[1], 2)
    );
}

/// The tests above again with the decode tier pinned to `Scalar`: the
/// checksum folds only off that tier, so there every input takes the
/// portable slicing-by-16 loop. Run from tier-1's auto dispatch, this test
/// re-runs its own binary with `RODB_FORCE_SCALAR=1`, filtered to them and
/// to itself, which in the child asserts the tier and so the loop.
#[test]
fn the_reference_and_flipped_bit_tests_pass_on_the_scalar_tier() {
    const ME: &str = "the_reference_and_flipped_bit_tests_pass_on_the_scalar_tier";
    const TESTS: [&str; 4] = [
        "kernel_matches_a_bit_at_a_time_reference",
        "sealed_pages_of_all_four_formats_verify_and_any_flipped_bit_fails",
        "a_flipped_wal_payload_bit_replays_to_the_frame_before_it",
        ME,
    ];
    if std::env::var("RODB_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0") {
        assert_eq!(
            rodb::compress::active_tier(),
            rodb::compress::KernelTier::Scalar
        );
        return;
    }
    let exe = std::env::current_exe().unwrap();
    let run = std::process::Command::new(exe)
        .args(TESTS)
        .args(["--exact", "--test-threads", "1"])
        .env("RODB_FORCE_SCALAR", "1")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&run.stdout);
    let report = format!("{stdout}{}", String::from_utf8_lossy(&run.stderr));
    assert!(run.status.success(), "{report}");
    let summary = format!("test result: ok. {} passed", TESTS.len());
    assert!(stdout.contains(&summary), "{report}");
}
