//! The physical-design chooser: one description of a design ([`Candidate`]),
//! one pricer ([`price`]) and one selection rule ([`choose`]).
//!
//! Every Figure-1 advisor question — which layout, which codec, which
//! vertical partition — is "what would this design cost this query on this
//! machine", so every advisor here is a thin caller of that pair. The price
//! is the Section-5 model (eq (1)–(8)) filled in from facts, not defaults:
//!
//! * what is stored comes from the [`Table`] — the row file's own format,
//!   bytes per tuple and codecs, and each column file's codec;
//! * the machine comes from the caller's `HardwareConfig` + `SystemConfig`
//!   through [`Machine::new`];
//! * the column node order comes from the engine's `scan_columns`
//!   ([`Query::of_scan`]);
//! * every per-codec cost comes from [`OpCosts`].
//!
//! One term goes beyond the paper's formula, which "does not model disk
//! seeks": a scan that interleaves two or more column files pays the seek
//! per prefetch burst and the streaming loss the simulated array charges it
//! ([`Machine::new`]). It lives in this module's disk term only; `model::`
//! and the figure harnesses keep the paper's formula.

use std::collections::BTreeSet;
use std::sync::Arc;

use rodb_compress::{CodecKind, ColumnCompression};
use rodb_cpu::{CostParams, OpCosts};
use rodb_engine::predicate::scan_columns;
use rodb_engine::ScanSpec;
use rodb_model::{self as model, ColumnSpec, Platform};
use rodb_storage::{BuildLayouts, Layout, RowFormat, Table, TableBuilder};
use rodb_types::{DataType, Error, HardwareConfig, Result, SystemConfig, Value};

/// Selectivity a query is priced at when nothing better is known
/// (cardinality estimation is out of scope — the paper has no optimizer,
/// §2.2.3 — and 10% is Figure 2's operating point).
pub const DEFAULT_SELECTIVITY: f64 = 0.10;

/// The machine a design is priced on, in the model's terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    platform: Platform,
    uops_per_cycle: f64,
    io_unit: f64,
    /// Disk-byte-times one byte costs once two or more files interleave.
    interleave: f64,
    /// Aggregate sequential bandwidth, bytes/second (byte-times → seconds).
    disk_bw: f64,
}

impl Machine {
    /// The machine a `Database` built with `hw` / `sys` simulates. Once a
    /// scan interleaves files, `DiskArray::read` serves every byte at
    /// `1 - multi_stream_penalty` of the bandwidth and charges one `seek_s`
    /// per `prefetch_depth × io_unit` burst; both fold into the cost of an
    /// interleaved byte.
    pub fn new(hw: &HardwareConfig, sys: &SystemConfig) -> Machine {
        let burst = (sys.prefetch_depth * sys.io_unit) as f64;
        Machine {
            platform: Platform {
                cpdb: hw.cpdb(),
                mem_bytes_cycle: hw.mem_bytes_per_cycle,
            },
            uops_per_cycle: hw.uops_per_cycle,
            io_unit: sys.io_unit as f64,
            interleave: 1.0 / (1.0 - hw.multi_stream_penalty)
                + hw.seek_s * hw.aggregate_disk_bw() / burst,
            disk_bw: hw.aggregate_disk_bw(),
        }
    }
}

/// One scan shape: the columns it touches in scan-node order (predicate
/// columns first), its selectivity, and its weight in a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub columns: Vec<usize>,
    pub selectivity: f64,
    pub weight: f64,
}

impl Query {
    pub fn new(columns: Vec<usize>, selectivity: f64, weight: f64) -> Query {
        Query {
            columns,
            selectivity,
            weight,
        }
    }

    /// The query a scan is: its columns in the order the column scanner
    /// opens its nodes.
    pub fn of_scan(scan: &ScanSpec, selectivity: f64) -> Query {
        let columns = scan_columns(&scan.projection, &scan.predicates);
        Query::new(columns, selectivity, 1.0)
    }

    fn validate(&self, table: &Table) -> Result<()> {
        if self.columns.is_empty() {
            return Err(Error::InvalidPlan("query with no columns".into()));
        }
        if let Some(c) = self.columns.iter().find(|&&c| c >= table.schema.len()) {
            return Err(Error::UnknownColumn(format!("index {c}")));
        }
        if !(0.0..=1.0).contains(&self.selectivity) {
            return Err(Error::InvalidConfig("selectivity outside [0,1]".into()));
        }
        Ok(())
    }
}

fn stored_as(dtype: DataType, codec: CodecKind, bits: usize) -> ColumnSpec {
    let mut spec = ColumnSpec::raw(dtype.width() as f64);
    (spec.codec, spec.bytes) = (codec, bits as f64 / 8.0);
    spec
}

/// One physical design of (a subset of) a table's columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    pub layout: Layout,
    /// The base-table columns the design stores, ascending, each with its
    /// stored form: bytes per value, codec family.
    pub stored: Vec<(usize, ColumnSpec)>,
    /// Row layouts: stored bytes per tuple beyond its fields (padding, or a
    /// PAX page's per-tuple share of its headers).
    pub pad: f64,
}

impl Candidate {
    /// What `table` stores in `layout`: a column file's codec, or the row
    /// file's own format — `Plain` and `Pax` decode nothing, `Packed`
    /// carries its own codecs — at the row file's own bytes per tuple.
    pub fn of(table: &Table, layout: Layout) -> Result<Candidate> {
        let none = ColumnCompression::none();
        let (comps, row_bytes): (Vec<&ColumnCompression>, Option<f64>) = match layout {
            Layout::Column => {
                let files = &table.col_storage()?.columns;
                (files.iter().map(|f| &f.comp).collect(), None)
            }
            Layout::Row => {
                let rs = table.row_storage()?;
                let comps = match &rs.format {
                    RowFormat::Packed { comps, .. } => comps.iter().collect(),
                    _ => vec![&none; table.schema.len()],
                };
                (comps, Some(rs.bytes_per_tuple()))
            }
        };
        let spec = |(c, comp): (usize, &&ColumnCompression)| {
            let (dtype, codec) = (table.schema.dtype(c), comp.codec.kind());
            (c, stored_as(dtype, codec, comp.bits_per_value(dtype)))
        };
        let stored: Vec<(usize, ColumnSpec)> = comps.iter().enumerate().map(spec).collect();
        let fields: f64 = stored.iter().map(|(_, s)| s.bytes).sum();
        let pad = row_bytes.map_or(0.0, |bytes| bytes - fields);
        Ok(Candidate {
            layout,
            stored,
            pad,
        })
    }

    /// `table` as uncompressed column files, whatever it stores today.
    pub fn raw_columns(table: &Table) -> Candidate {
        let dtypes = table.schema.columns().iter().map(|c| c.dtype);
        let raw = dtypes.map(|d| stored_as(d, CodecKind::None, d.width() * 8));
        Candidate {
            layout: Layout::Column,
            stored: raw.enumerate().collect(),
            pad: 0.0,
        }
    }

    /// The base-table columns this design stores, ascending.
    pub fn columns(&self) -> Vec<usize> {
        self.stored.iter().map(|(c, _)| *c).collect()
    }

    /// This design restricted to `cols` (a vertical partition, unpadded).
    pub fn partition(&self, cols: &BTreeSet<usize>) -> Candidate {
        let kept = self.stored.iter().filter(|(c, _)| cols.contains(c));
        Candidate {
            layout: self.layout,
            stored: kept.copied().collect(),
            pad: 0.0,
        }
    }
}

/// Modeled seconds per tuple of answering `q` from `cand` on `m` — the
/// reciprocal of the Section-5 rate, eq (1). Infinite when the design does
/// not store a column the query needs.
pub fn price(table: &Table, cand: &Candidate, q: &Query, m: &Machine) -> Result<f64> {
    q.validate(table)?;
    let spec_of = |col: &usize| cand.stored.iter().find(|(c, _)| c == col).map(|(_, s)| *s);
    let Some(needed) = q.columns.iter().map(spec_of).collect::<Option<Vec<_>>>() else {
        return Ok(f64::INFINITY);
    };
    let (costs, params) = (OpCosts::default(), CostParams::default());
    let (upc, unit, sel) = (m.uops_per_cycle, m.io_unit, q.selectivity);
    let (disk_bytes, cost) = match cand.layout {
        Layout::Row => {
            let bytes = cand.stored.iter().map(|(_, s)| s.bytes).sum::<f64>() + cand.pad;
            let cost = model::row_scanner_cost(&costs, &params, upc, unit, bytes, sel, &needed);
            (bytes, cost)
        }
        Layout::Column => {
            let byte = if needed.len() >= 2 { m.interleave } else { 1.0 };
            let cost = model::col_scanner_cost(&costs, &params, upc, unit, &needed, sel);
            (model::col_bytes(&needed) * byte, cost)
        }
    };
    let rate = model::store_rate(disk_bytes, &cost, 0.0, &m.platform);
    Ok(1.0 / (rate * m.disk_bw))
}

/// The outcome of [`choose`].
#[derive(Debug, Clone, PartialEq)]
pub struct Choice {
    /// Position of the pick in the candidate slice, and the pick itself.
    pub index: usize,
    pub candidate: Candidate,
    /// Weighted modeled seconds per tuple of the workload once the pick is
    /// available, each query served by whichever is cheaper: the pick or
    /// what it already had.
    pub seconds: f64,
    /// Weighted seconds per tuple the pick saves over what the workload
    /// already had (infinite when a query had nothing).
    pub benefit: f64,
    /// The workload queries (by index) the pick serves cheaper.
    pub serves: Vec<usize>,
}

/// Pick the candidate that makes `workload` cheapest on `m`. `have[i]` is
/// the seconds per tuple query `i` already costs on designs that stay
/// (missing entries: nothing serves it yet). `None` when no candidate
/// serves any query cheaper; a tie goes to the earlier candidate.
pub fn choose(
    table: &Table,
    cands: &[Candidate],
    workload: &[Query],
    have: &[f64],
    m: &Machine,
) -> Result<Option<Choice>> {
    let mut best: Option<Choice> = None;
    for (index, cand) in cands.iter().enumerate() {
        let (mut seconds, mut benefit, mut serves) = (0.0, 0.0, Vec::new());
        for (qi, q) in workload.iter().enumerate() {
            let had = have.get(qi).copied().unwrap_or(f64::INFINITY);
            let t = price(table, cand, q, m)?;
            seconds += q.weight * t.min(had);
            if t < had {
                benefit += q.weight * (had - t);
                serves.push(qi);
            }
        }
        if !serves.is_empty() && best.as_ref().is_none_or(|b| seconds < b.seconds) {
            let candidate = cand.clone();
            best = Some(Choice {
                index,
                candidate,
                seconds,
                benefit,
                serves,
            });
        }
    }
    Ok(best)
}

fn one(columns: &[usize], selectivity: f64) -> [Query; 1] {
    [Query::new(columns.to_vec(), selectivity, 1.0)]
}

/// Model-predicted column-over-row speedup of a scan touching `columns`
/// (scan-node order) at `selectivity`.
pub fn predicted_speedup(
    table: &Table,
    columns: &[usize],
    selectivity: f64,
    m: &Machine,
) -> Result<f64> {
    let [q] = one(columns, selectivity);
    let of = |layout| price(table, &Candidate::of(table, layout)?, &q, m);
    Ok(of(Layout::Row)? / of(Layout::Column)?)
}

/// Which stored layout answers the scan cheaper (the paper's bottom line,
/// applied). A price tie routes to columns, as the paper's "speedup ≥ 1"
/// does.
pub fn recommend_layout(
    table: &Table,
    columns: &[usize],
    selectivity: f64,
    m: &Machine,
) -> Result<Layout> {
    // A layout the table does not store is `Err(LayoutUnavailable)`: skipped.
    let stored = [Layout::Column, Layout::Row].map(|l| Candidate::of(table, l));
    let stored: Vec<Candidate> = stored.into_iter().flatten().collect();
    let pick = choose(table, &stored, &one(columns, selectivity), &[], m)?;
    let layout = pick.map(|p| p.candidate.layout);
    layout.ok_or_else(|| Error::LayoutUnavailable(table.name.clone()))
}

/// Pick a codec per column from a sample of rows (Figure 1's compression
/// advisor): of the codecs that fit the sample, the one under which a scan
/// of the table's column files (first column filtered, at
/// [`DEFAULT_SELECTIVITY`], the other columns raw) is cheapest on `m`.
/// Disk-constrained versus CPU-constrained (§4.4) is what the machine's
/// cpdb and the tuple's width already say — Figure 2's two axes.
pub fn recommend_compression(
    table: &Table,
    sample_rows: &[Vec<Value>],
    m: &Machine,
) -> Result<Vec<ColumnCompression>> {
    if sample_rows.iter().any(|r| r.len() != table.schema.len()) {
        return Err(Error::InvalidPlan("sample row of the wrong width".into()));
    }
    let raw = Candidate::raw_columns(table);
    let pick = |ci| codec_for(table, &raw, ci, sample_rows, m);
    (0..table.schema.len()).map(pick).collect()
}

fn codec_for(
    table: &Table,
    raw: &Candidate,
    ci: usize,
    rows: &[Vec<Value>],
    m: &Machine,
) -> Result<ColumnCompression> {
    let dtype = table.schema.dtype(ci);
    let sample: Vec<Value> = rows.iter().map(|r| r[ci].clone()).collect();
    let fits = rodb_compress::candidates(dtype, &sample)?;
    let mut files = vec![raw.clone(); fits.len()];
    for (file, (codec, bits)) in files.iter_mut().zip(&fits) {
        file.stored[ci].1 = stored_as(dtype, codec.kind(), *bits);
    }
    let scan = one(&raw.columns(), DEFAULT_SELECTIVITY);
    let best = choose(table, &files, &scan, &[], m)?;
    let (codec, _) = &fits[best.map_or(0, |b| b.index)];
    rodb_compress::compression_for(dtype, codec.clone(), &sample)
}

/// Recommend up to `max` row-organized vertical partitions for `workload`
/// (§4(ii): tuple width "can change (to be narrower) during the physical
/// design phase"). Candidates are the workload's column sets and their
/// pairwise unions; selection is greedy on what each saves over the base
/// row file and the partitions already picked. A column store needs none
/// of this — every projection is already its own files.
pub fn recommend_vertical_partitions(
    table: &Table,
    workload: &[Query],
    m: &Machine,
    max: usize,
) -> Result<Vec<Choice>> {
    let base = Candidate::of(table, Layout::Row)?;
    let on_base = workload.iter().map(|q| price(table, &base, q, m));
    let mut have = on_base.collect::<Result<Vec<f64>>>()?;
    let union = |a: &Query, b: &Query| a.columns.iter().chain(&b.columns).copied().collect();
    let unions = workload
        .iter()
        .flat_map(|a| workload.iter().map(move |b| union(a, b)));
    let sets: BTreeSet<BTreeSet<usize>> = unions.collect();
    let mut cands: Vec<Candidate> = sets.iter().map(|s| base.partition(s)).collect();
    let mut picks = Vec::new();
    while picks.len() < max {
        let Some(pick) = choose(table, &cands, workload, &have, m)? else {
            break;
        };
        for &qi in &pick.serves {
            have[qi] = price(table, &pick.candidate, &workload[qi], m)?;
        }
        cands.remove(pick.index);
        picks.push(pick);
    }
    Ok(picks)
}

/// Materialize a partition as a real table named `name`, carrying its
/// columns (and their column-file codecs) in both layouts.
pub fn materialize(table: &Table, partition: &Candidate, name: &str) -> Result<Table> {
    let cols = partition.columns();
    let schema = Arc::new(table.schema.project(&cols)?);
    let comp_of = |&c: &usize| match &table.col {
        Some(cs) => cs.columns[c].comp.clone(),
        None => ColumnCompression::none(),
    };
    let comps = cols.iter().map(comp_of).collect();
    let page_size = match &table.row {
        Some(rs) => rs.page_size,
        None => table.col_storage()?.columns[0].page_size,
    };
    let mut b =
        TableBuilder::with_compression(name, schema, page_size, BuildLayouts::both(), comps)?;
    let data = table.read_columns(&cols)?;
    let data: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    b.push_columns(&data, table.row_count as usize)?;
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodb_types::{Column, Schema};

    fn wide_table() -> Table {
        let mut cols: Vec<Column> = (0..10).map(|i| Column::int(format!("a{i}"))).collect();
        cols.push(Column::text("blob", 60));
        let s = Arc::new(Schema::new(cols).unwrap());
        let mut b = TableBuilder::new("base", s, 4096, BuildLayouts::both()).unwrap();
        for i in 0..2_000i32 {
            let mut row: Vec<Value> = (0..10).map(|c| Value::Int(i * (c + 1) % 1000)).collect();
            row.push(Value::text("padding payload"));
            b.push_row(&row).unwrap();
        }
        b.finish().unwrap()
    }

    fn paper_machine() -> Machine {
        Machine::new(&HardwareConfig::default(), &SystemConfig::default())
    }

    /// The default platform with its clock scaled to rate at `cpdb`.
    fn machine_at(cpdb: f64) -> Machine {
        let mut hw = HardwareConfig::default();
        hw.clock_hz = cpdb * hw.aggregate_disk_bw();
        Machine::new(&hw, &SystemConfig::default())
    }

    #[test]
    fn recommends_partitions_covering_the_workload() {
        let t = wide_table();
        let workload = vec![
            Query::new(vec![0, 1], 0.1, 10.0), // hot narrow query
            Query::new(vec![0, 1, 2], 0.1, 5.0),
            Query::new(vec![7, 8], 0.5, 1.0),
        ];
        let recs = recommend_vertical_partitions(&t, &workload, &paper_machine(), 2).unwrap();
        assert!(!recs.is_empty());
        assert!(recs.len() <= 2);
        // The top partition serves the heavy queries.
        assert!(recs[0].serves.contains(&0));
        assert!(recs[0].benefit > 0.0);
        // Greedy order: benefits non-increasing.
        for w in recs.windows(2) {
            assert!(w[0].benefit >= w[1].benefit);
        }
        // Every recommended set actually covers the queries it claims.
        for r in &recs {
            let stored = r.candidate.columns();
            for &qi in &r.serves {
                assert!(workload[qi].columns.iter().all(|c| stored.contains(c)));
            }
        }
    }

    #[test]
    fn union_candidate_can_beat_two_partitions() {
        let t = wide_table();
        // Two overlapping narrow queries — one union partition serves both.
        let workload = vec![
            Query::new(vec![0, 1], 0.1, 1.0),
            Query::new(vec![1, 2], 0.1, 1.0),
        ];
        let recs = recommend_vertical_partitions(&t, &workload, &paper_machine(), 1).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].candidate.columns(), vec![0, 1, 2]);
        assert_eq!(recs[0].serves, vec![0, 1]);
    }

    #[test]
    fn materialized_view_scans_correctly() {
        let t = wide_table();
        let base = Candidate::of(&t, Layout::Row).unwrap();
        let mv = materialize(&t, &base.partition(&BTreeSet::from([0, 2, 4])), "mv1").unwrap();
        assert_eq!(mv.row_count, t.row_count);
        assert_eq!(mv.schema.len(), 3);
        assert_eq!(mv.schema.columns()[1].name, "a2");
        let base = t.read_all(Layout::Row).unwrap();
        let got = mv.read_all(Layout::Column).unwrap();
        for (b, g) in base.iter().zip(&got) {
            assert_eq!(g[0], b[0]);
            assert_eq!(g[1], b[2]);
            assert_eq!(g[2], b[4]);
        }
    }

    #[test]
    fn validation_errors() {
        let (t, m) = (wide_table(), paper_machine());
        let one = |q: Query| recommend_vertical_partitions(&t, &[q], &m, 1);
        assert!(matches!(
            one(Query::new(vec![], 0.1, 1.0)),
            Err(Error::InvalidPlan(_))
        ));
        assert!(matches!(
            one(Query::new(vec![99], 0.1, 1.0)),
            Err(Error::UnknownColumn(_))
        ));
        assert!(matches!(
            one(Query::new(vec![0], 2.0, 1.0)),
            Err(Error::InvalidConfig(_))
        ));
        assert!(recommend_vertical_partitions(&t, &[], &m, 5)
            .unwrap()
            .is_empty());
        // The same validation fronts every advisor: this call used to panic
        // in `Schema::dtype`.
        assert!(matches!(
            recommend_layout(&t, &[99], 2.0, &m),
            Err(Error::UnknownColumn(_))
        ));
        assert!(predicted_speedup(&t, &[0], f64::NAN, &m).is_err());
    }

    #[test]
    fn no_benefit_no_recommendation() {
        let t = wide_table();
        // A query touching every column gains nothing from partitioning.
        let all: Vec<usize> = (0..t.schema.len()).collect();
        let workload = [Query::new(all, 1.0, 1.0)];
        let recs = recommend_vertical_partitions(&t, &workload, &paper_machine(), 3).unwrap();
        // The only candidate is the full table, which cannot beat itself.
        assert!(recs.is_empty(), "{recs:?}");
    }

    #[test]
    fn model_recommendation_flips_with_cpdb() {
        let t = wide_table();
        // One int of a 100-byte tuple: more cycles per disk byte can only
        // help the byte-thrifty column store.
        let hi = predicted_speedup(&t, &[0], 0.1, &machine_at(400.0)).unwrap();
        let lo = predicted_speedup(&t, &[0], 0.1, &machine_at(5.0)).unwrap();
        assert!(hi > lo);
        let pick = recommend_layout(&t, &[0], 0.1, &machine_at(400.0)).unwrap();
        assert_eq!(pick, Layout::Column);
    }

    #[test]
    fn compression_advisor_over_table_sample() {
        let t = wide_table();
        let sample = t.read_all(Layout::Row).unwrap();
        let comps = recommend_compression(&t, &sample, &machine_at(1000.0)).unwrap();
        assert_eq!(comps.len(), t.schema.len());
        // Ints with max < 1000 pack into ≤10 bits on a disk-bound machine.
        assert!(comps[0].bits_per_value(DataType::Int) <= 10);
        assert!(recommend_compression(&t, &[vec![Value::Int(1)]], &paper_machine()).is_err());
    }
}
