//! Compression candidates — the format half of the Figure-1 component that
//! "chooses compression schemes ... depending on the workload
//! characteristics".
//!
//! Which lightweight schemes can hold a column's values, and at what code
//! width, is knowledge of the formats and lives here ([`candidates`], plus
//! building the dictionary a scheme needs, [`compression_for`]). Which of
//! them to *use* is a price on a machine — §4.4: FOR can beat FOR-delta on
//! CPU even when it needs more bits, while "if our system was
//! disk-constrained ... the I/O benefits would offset the CPU cost" — and is
//! decided by `rodb_core::design`, from the one decode-cost table the CPU
//! meter charges.

use std::sync::Arc;

use rodb_types::{DataType, Result, Value};

use crate::bits::bits_for;
use crate::codec::{Codec, ColumnCompression};
use crate::dict::Dictionary;

/// Every scheme that can hold the sampled values, each with the bits per
/// value it needs (amortized, for the variable-rate schemes). Raw storage
/// always fits and comes first.
pub fn candidates(dtype: DataType, sample: &[Value]) -> Result<Vec<(Codec, usize)>> {
    let mut out = vec![(Codec::None, dtype.width() * 8)];
    if sample.is_empty() {
        return Ok(out);
    }
    let distinct = sample
        .iter()
        .collect::<std::collections::HashSet<_>>()
        .len();
    let dict_bits = bits_for(distinct.saturating_sub(1) as u64);
    match dtype {
        DataType::Long => {} // aggregate-output type; raw storage only
        DataType::Int => {
            let ints: Vec<i64> = sample
                .iter()
                .map(|v| v.as_int().map(|i| i as i64))
                .collect::<Result<_>>()?;
            let (Some(&min), Some(&max)) = (ints.iter().min(), ints.iter().max()) else {
                return Ok(out);
            };
            if min >= 0 {
                let bits = bits_for(max as u64);
                out.push((Codec::BitPack { bits }, bits as usize));
            }
            let full_bits = bits_for((max - min) as u64);
            out.push((Codec::For { bits: full_bits }, full_bits as usize));
            if ints.windows(2).all(|w| w[1] >= w[0]) {
                let deltas = ints.windows(2).map(|w| (w[1] - w[0]) as u64);
                let bits = bits_for(deltas.max().unwrap_or(0));
                out.push((Codec::ForDelta { bits }, bits as usize));
            }
            // A dictionary only pays off for genuinely low-cardinality data.
            if distinct <= 4096 && distinct < sample.len() {
                out.push((Codec::Dict { bits: dict_bits }, dict_bits as usize));
            }
            // PFOR: when a few outliers inflate the FOR width, pack at the
            // ~95th-percentile width and patch the rest as exceptions. Each
            // exception costs 96 bits (u32 position + u64 code), so the
            // effective width is p95-bits + amortized exception overhead.
            let mut codes: Vec<u64> = ints.iter().map(|&v| (v - min) as u64).collect();
            codes.sort_unstable();
            let p95 = codes[(codes.len() * 95 / 100).min(codes.len() - 1)];
            let bits = bits_for(p95).max(1);
            if bits < full_bits {
                let nexc = codes.iter().filter(|&&c| c >= 1u64 << bits).count();
                let eff = bits as usize + (nexc * 96).div_ceil(codes.len());
                if eff < full_bits as usize {
                    out.push((Codec::Pfor { bits }, eff));
                }
            }
            // RLE: pays off once values repeat in runs — each run costs
            // value_bits + len_bits, amortized over its length.
            let runs = ints.chunk_by(|a, b| a == b).map(|run| run.len() as u64);
            let (nruns, max_run) = (runs.clone().count(), runs.max().unwrap_or(1));
            if nruns * 2 <= ints.len() {
                let value_bits = full_bits.max(1);
                let len_bits = bits_for(max_run - 1).max(1);
                let run_bits = nruns * (value_bits + len_bits) as usize;
                let codec = Codec::Rle {
                    value_bits,
                    len_bits,
                };
                out.push((codec, run_bits.div_ceil(ints.len()).max(1)));
            }
        }
        DataType::Text(n) => {
            if distinct <= 4096 {
                out.push((Codec::Dict { bits: dict_bits }, dict_bits as usize));
            }
            // Effective content width: longest non-zero-padded prefix seen.
            let mut content = 0;
            for v in sample {
                let used = v.as_text()?.iter().rposition(|&c| c != 0);
                content = content.max(used.map_or(0, |p| p + 1));
            }
            if content > 0 && content < n {
                let bytes = content as u16;
                out.push((Codec::TextPack { bytes }, content * 8));
            }
        }
    }
    Ok(out)
}

/// `codec` as a usable [`ColumnCompression`]: builds the dictionary over
/// `sample` when the scheme needs one.
pub fn compression_for(
    dtype: DataType,
    codec: Codec,
    sample: &[Value],
) -> Result<ColumnCompression> {
    let dict = match &codec {
        Codec::Dict { .. } | Codec::DictFor { .. } | Codec::RleDict { .. } => {
            Some(Arc::new(Dictionary::build(dtype, sample.iter())?))
        }
        _ => None,
    };
    ColumnCompression::new(codec, dict)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The narrowest scheme that fits (what a disk-bound machine picks; the
    /// priced pick is tested with the chooser, root `tests/chooser.rs`).
    fn narrowest(dtype: DataType, sample: &[Value]) -> (Codec, usize) {
        let fits = candidates(dtype, sample).unwrap();
        fits.into_iter().min_by_key(|(_, bits)| *bits).unwrap()
    }

    fn roundtrips(codec: Codec, sample: &[Value]) {
        let comp = compression_for(DataType::Int, codec, sample).unwrap();
        let enc = comp.encode_page(DataType::Int, sample).unwrap();
        let pv = comp.open_page(DataType::Int, &enc.data, enc.count, enc.base);
        let mut c = pv.cursor();
        for v in sample {
            assert_eq!(Value::Int(c.next_int().unwrap()), *v);
        }
    }

    #[test]
    fn sorted_key_fits_one_bit_delta() {
        let sample: Vec<Value> = (0..1000).map(|i| Value::Int(100_000 + i)).collect();
        assert_eq!(
            narrowest(DataType::Int, &sample),
            (Codec::ForDelta { bits: 1 }, 1)
        );
    }

    #[test]
    fn low_cardinality_text_fits_a_dictionary() {
        let sample: Vec<Value> = (0..100)
            .map(|i| Value::text(["AIR", "SHIP", "TRUCK"][i % 3]))
            .collect();
        let (codec, bits) = narrowest(DataType::Text(10), &sample);
        assert_eq!((&codec, bits), (&Codec::Dict { bits: 2 }, 2));
        let comp = compression_for(DataType::Text(10), codec, &sample).unwrap();
        assert_eq!(comp.dict.as_ref().unwrap().len(), 3);
    }

    #[test]
    fn high_cardinality_random_ints_fit_neither_dictionary_nor_delta() {
        let sample: Vec<Value> = (0..5000)
            .map(|i| Value::Int(i * 7919 % 1_000_003))
            .collect();
        for (codec, _) in candidates(DataType::Int, &sample).unwrap() {
            // Too many distinct values for a dictionary, not sorted for delta.
            assert!(
                matches!(
                    codec,
                    Codec::None | Codec::BitPack { .. } | Codec::For { .. }
                ),
                "got {codec:?}"
            );
        }
    }

    #[test]
    fn padded_text_fits_textpack() {
        // Content only ever uses 6 bytes of a 30-byte field, and cardinality
        // is too high for a dictionary.
        let sample: Vec<Value> = (0..5000)
            .map(|i| Value::text(&format!("c{:05}", i)))
            .collect();
        assert_eq!(
            narrowest(DataType::Text(30), &sample),
            (Codec::TextPack { bytes: 6 }, 48)
        );
    }

    #[test]
    fn outlier_heavy_column_fits_pfor() {
        // 99% of values fit in 4 bits; 1% are huge outliers that would force
        // plain FOR to 30 bits. PFOR packs narrow and patches the outliers.
        let sample: Vec<Value> = (0..2000)
            .map(|i| {
                if i % 100 == 0 {
                    Value::Int(1_000_000_000 + i)
                } else {
                    Value::Int(i % 16)
                }
            })
            .collect();
        let (codec, _) = narrowest(DataType::Int, &sample);
        assert!(matches!(codec, Codec::Pfor { .. }), "got {codec:?}");
        // Round-trip through the codec to prove it is usable as-is.
        roundtrips(codec, &sample);
    }

    #[test]
    fn long_runs_fit_rle() {
        // 20 unsorted runs of 100 identical values: RLE amortizes to
        // ~1 bit/value while FOR/bitpack need 5 bits and Dict 5-bit codes.
        let sample: Vec<Value> = (0..2000).map(|i| Value::Int(i / 100 * 7 % 20)).collect();
        let (codec, _) = narrowest(DataType::Int, &sample);
        assert!(matches!(codec, Codec::Rle { .. }), "got {codec:?}");
        roundtrips(codec, &sample);
    }

    #[test]
    fn empty_sample_fits_raw_only() {
        let fits = candidates(DataType::Int, &[]).unwrap();
        assert_eq!(fits, vec![(Codec::None, 32)]);
    }

    #[test]
    fn every_candidate_roundtrips_sample() {
        let sample: Vec<Value> = (0..300).map(|i| Value::Int(i % 50)).collect();
        for (codec, _) in candidates(DataType::Int, &sample).unwrap() {
            roundtrips(codec, &sample);
        }
    }
}
