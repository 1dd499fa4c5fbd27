//! Deriving the model's per-tuple instruction parameters from the engine's
//! cost constants.
//!
//! §5 fills its `I` parameters "from our experimental section"; we do the
//! equivalent programmatically: the same [`OpCosts`]/[`CostParams`] constants
//! that drive the execution-time CPU meter also produce the analytical
//! model's cycles-per-tuple numbers, so model and simulator stay consistent
//! by construction.

use rodb_compress::CodecKind;
use rodb_cpu::{CostParams, OpCosts};

use crate::rates::ScannerCost;

/// One selected column, as the model sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnSpec {
    /// Stored width in bytes (compressed width for -Z tables).
    pub bytes: f64,
    /// Uncompressed width in bytes (what materializing costs).
    pub raw_bytes: f64,
    /// Codec family (decode cost + the FOR-delta decode-everything rule).
    pub codec: CodecKind,
}

impl ColumnSpec {
    pub fn raw(bytes: f64) -> ColumnSpec {
        ColumnSpec {
            bytes,
            raw_bytes: bytes,
            codec: CodecKind::None,
        }
    }
}

/// Convert user uops per tuple into the model's cycles per tuple:
/// uops ÷ 3 per cycle, inflated by the usr-rest factor.
fn uops_to_cycles(uops: f64, params: &CostParams, uops_per_cycle: f64) -> f64 {
    uops / uops_per_cycle * (1.0 + params.rest_frac)
}

/// Kernel cycles per tuple for reading `bytes` per tuple off disk.
fn sys_cycles(bytes: f64, params: &CostParams, io_unit: f64) -> f64 {
    bytes * (params.sys_cycles_per_kib / 1024.0) + bytes / io_unit * params.sys_cycles_per_request
}

/// Row-scanner model parameters for a scan with selectivity `sel` that
/// projects `proj` columns out of a `stored_width`-byte tuple.
pub fn row_scanner_cost(
    costs: &OpCosts,
    params: &CostParams,
    uops_per_cycle: f64,
    io_unit: f64,
    stored_width: f64,
    sel: f64,
    proj: &[ColumnSpec],
) -> ScannerCost {
    let proj_bytes: f64 = proj.iter().map(|c| c.raw_bytes).sum();
    let decode: f64 = proj.iter().map(|c| costs.decode(c.codec)).sum();
    let uops = costs.row_iter
        + costs.predicate
        + sel
            * (proj.len() as f64 * costs.project_attr
                + proj_bytes * costs.copy_byte
                + decode
                + costs.block_call / 100.0);
    ScannerCost {
        i_sys: sys_cycles(stored_width, params, io_unit),
        i_user: uops_to_cycles(uops, params, uops_per_cycle),
        mem_bytes: stored_width,
    }
}

/// Column-scanner model parameters. `cols[0]` is the deepest node (the
/// predicate column); every column in `cols` is read off disk.
pub fn col_scanner_cost(
    costs: &OpCosts,
    params: &CostParams,
    uops_per_cycle: f64,
    io_unit: f64,
    cols: &[ColumnSpec],
    sel: f64,
) -> ScannerCost {
    let mut uops = 0.0;
    let mut disk_bytes = 0.0;
    let mut mem_bytes = 0.0;
    for (i, c) in cols.iter().enumerate() {
        disk_bytes += c.bytes;
        if i == 0 {
            // Node 0 decodes and tests every value, and creates a
            // {position, value} pair per qualifying tuple.
            uops += costs.col_iter
                + costs.predicate
                + costs.decode(c.codec)
                + sel * costs.position_pair;
            mem_bytes += c.bytes;
        } else {
            // Driven nodes handle only qualifying positions — except
            // FOR-delta, which decodes every code on the page (§4.4).
            let decode_frac = if c.codec == CodecKind::ForDelta {
                1.0
            } else {
                sel
            };
            uops += decode_frac * costs.decode(c.codec)
                + sel
                    * (costs.col_iter
                        + costs.position_pair
                        + costs.project_attr
                        + c.raw_bytes * costs.copy_byte);
            if c.codec == CodecKind::ForDelta {
                // ...and runs its value loop over every decoded code, not
                // just the qualifying positions (the engine charges
                // `col_iter` for `values_decoded.max(positions_seen)`).
                uops += (1.0 - sel) * costs.col_iter;
            }
            // Memory traffic: dense enough access streams the column
            // (the engine's prefetcher rule); sparse access is charged as
            // part of user cycles by the measured engine, so the model keeps
            // the optimistic streaming term weighted by touch density.
            mem_bytes += c.bytes * (8.0 * sel).min(1.0);
        }
    }
    uops += sel * costs.block_call * (cols.len() as f64) / 100.0;
    ScannerCost {
        i_sys: sys_cycles(disk_bytes, params, io_unit),
        i_user: uops_to_cycles(uops, params, uops_per_cycle),
        mem_bytes,
    }
}

/// Disk bytes per tuple for a column scan (what eq (4)'s `f` divides).
pub fn col_bytes(cols: &[ColumnSpec]) -> f64 {
    cols.iter().map(|c| c.bytes).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> (OpCosts, CostParams) {
        (OpCosts::default(), CostParams::default())
    }

    fn int_cols(n: usize) -> Vec<ColumnSpec> {
        vec![ColumnSpec::raw(4.0); n]
    }

    #[test]
    fn row_cost_insensitive_to_projection_bytes_on_disk() {
        let (c, p) = defaults();
        let a = row_scanner_cost(&c, &p, 3.0, 131072.0, 152.0, 0.1, &int_cols(1));
        let b = row_scanner_cost(&c, &p, 3.0, 131072.0, 152.0, 0.1, &int_cols(16));
        // Disk/mem identical; only user CPU grows with the projection.
        assert_eq!(a.i_sys, b.i_sys);
        assert_eq!(a.mem_bytes, b.mem_bytes);
        assert!(b.i_user > a.i_user);
    }

    #[test]
    fn col_cost_grows_with_columns_everywhere() {
        let (c, p) = defaults();
        let a = col_scanner_cost(&c, &p, 3.0, 131072.0, &int_cols(1), 0.1);
        let b = col_scanner_cost(&c, &p, 3.0, 131072.0, &int_cols(8), 0.1);
        assert!(b.i_sys > a.i_sys);
        assert!(b.i_user > a.i_user);
        assert!(b.mem_bytes > a.mem_bytes);
    }

    #[test]
    fn low_selectivity_makes_extra_columns_cheap() {
        // §4.2: at 0.1% the column store's extra columns add negligible CPU.
        let (c, p) = defaults();
        let one = col_scanner_cost(&c, &p, 3.0, 131072.0, &int_cols(1), 0.001);
        let many = col_scanner_cost(&c, &p, 3.0, 131072.0, &int_cols(16), 0.001);
        assert!((many.i_user - one.i_user) / one.i_user < 0.5);
        // ...but at 100% they are expensive.
        let one_hi = col_scanner_cost(&c, &p, 3.0, 131072.0, &int_cols(1), 1.0);
        let many_hi = col_scanner_cost(&c, &p, 3.0, 131072.0, &int_cols(16), 1.0);
        assert!(many_hi.i_user > 3.0 * one_hi.i_user);
    }

    #[test]
    fn fordelta_driven_column_decodes_everything() {
        let (c, p) = defaults();
        let delta = ColumnSpec {
            bytes: 1.0,
            raw_bytes: 4.0,
            codec: CodecKind::ForDelta,
        };
        let packed = ColumnSpec {
            bytes: 1.0,
            raw_bytes: 4.0,
            codec: CodecKind::BitPack,
        };
        let with_delta =
            col_scanner_cost(&c, &p, 3.0, 131072.0, &[ColumnSpec::raw(4.0), delta], 0.01);
        let with_pack =
            col_scanner_cost(&c, &p, 3.0, 131072.0, &[ColumnSpec::raw(4.0), packed], 0.01);
        assert!(with_delta.i_user > with_pack.i_user);
    }

    #[test]
    fn fordelta_driven_column_runs_its_loop_over_every_code() {
        // With nothing qualifying, a FOR-delta driven node still decodes
        // and loops over every code, as the engine charges it.
        let (c, p) = defaults();
        let delta = ColumnSpec {
            bytes: 1.0,
            raw_bytes: 4.0,
            codec: CodecKind::ForDelta,
        };
        let alone = col_scanner_cost(&c, &p, 3.0, 131072.0, &[ColumnSpec::raw(4.0)], 0.0);
        let driven = col_scanner_cost(&c, &p, 3.0, 131072.0, &[ColumnSpec::raw(4.0), delta], 0.0);
        let per_code = uops_to_cycles(c.decode(CodecKind::ForDelta) + c.col_iter, &p, 3.0);
        assert!((driven.i_user - alone.i_user - per_code).abs() < 1e-9);
    }

    #[test]
    fn compression_trades_bytes_for_cycles() {
        let (c, p) = defaults();
        let raw = vec![ColumnSpec::raw(4.0); 4];
        let packed = vec![
            ColumnSpec {
                bytes: 1.0,
                raw_bytes: 4.0,
                codec: CodecKind::BitPack,
            };
            4
        ];
        let r = col_scanner_cost(&c, &p, 3.0, 131072.0, &raw, 1.0);
        let z = col_scanner_cost(&c, &p, 3.0, 131072.0, &packed, 1.0);
        assert!(col_bytes(&packed) < col_bytes(&raw));
        assert!(z.i_sys < r.i_sys); // fewer kernel bytes
        assert!(z.i_user > r.i_user); // extra decompression
    }
}
