//! A value its column cannot hold gets one typed error, whatever layout and
//! codec would store it: every write path checks the declared type and width
//! first (`Value::check_fits`) and then encodes through the codec's one
//! value → code mapping (`rodb_compress::Encoder`).

use rodb::prelude::*;
use std::sync::Arc;

/// Eight bytes for a `text(4)` column — content that a 3-byte TextPack would
/// hold if only the bytes past the pack width were checked.
fn over_wide() -> Value {
    Value::Text(b"abc\0\0\0\0\0"[..].into())
}

fn load(layouts: BuildLayouts, comps: &[ColumnCompression], row: &[Value]) -> Result<Table> {
    let schema = Arc::new(Schema::new(vec![Column::int("k"), Column::text("t", 4)])?);
    let mut b = TableBuilder::with_compression("t", schema, 4096, layouts, comps.to_vec())?;
    b.push_row(&[Value::Int(1), Value::text("abc")])?;
    b.push_row(row)?;
    b.finish()
}

/// {plain row, packed row, column} × {None, TextPack, Dict}: over-wide text
/// is `ValueOutOfDomain` naming the width, a value of the wrong kind is
/// `TypeMismatch`, and the row beside them loads. A plain row stores every
/// column raw, so it has the None cell only (any codec makes the row packed).
#[test]
fn over_wide_text_is_one_typed_error_on_every_layout_and_codec() {
    let words = [Value::text("abc"), Value::text("xyz")];
    let dict = Arc::new(Dictionary::build(DataType::Text(4), words.iter()).unwrap());
    let raw = ColumnCompression::none();
    let text_codecs = [
        raw.clone(),
        ColumnCompression::new(Codec::TextPack { bytes: 3 }, None).unwrap(),
        ColumnCompression::new(Codec::Dict { bits: 1 }, Some(dict)).unwrap(),
    ];
    // A compressed key is what makes a row file packed.
    let packed_key = ColumnCompression::new(Codec::BitPack { bits: 4 }, None).unwrap();
    let mut cells = 0;
    for text in &text_codecs {
        let mut layouts = vec![
            ("packed row", BuildLayouts::row_only(), &packed_key),
            ("column", BuildLayouts::column_only(), &raw),
        ];
        if text.codec == Codec::None {
            layouts.push(("plain row", BuildLayouts::row_only(), &raw));
        }
        for (name, layouts, key) in layouts {
            let comps = [key.clone(), text.clone()];
            let cell = format!("{name} × {:?}", text.codec);
            let err = load(layouts, &comps, &[Value::Int(2), over_wide()]).unwrap_err();
            assert!(
                matches!(&err, Error::ValueOutOfDomain(m) if m.contains("text(4)")),
                "{cell}: {err:?}"
            );
            let err = load(layouts, &comps, &[Value::Int(2), Value::Int(7)]).unwrap_err();
            assert!(matches!(err, Error::TypeMismatch { .. }), "{cell}: {err:?}");
            let t = load(layouts, &comps, &[Value::Int(2), Value::text("xyz")]).unwrap();
            assert_eq!(t.row_count, 2, "{cell}");
            cells += 1;
        }
    }
    assert_eq!(cells, 7);

    // The write-optimized store's insert check is the same check.
    let wos = WriteOptimizedStore::new(Arc::new(
        Schema::new(vec![Column::int("k"), Column::text("t", 4)]).unwrap(),
    ));
    let err = wos.validate(&[Value::Int(2), over_wide()]).unwrap_err();
    assert!(matches!(err, Error::ValueOutOfDomain(_)), "{err:?}");
}
