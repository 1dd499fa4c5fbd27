#!/usr/bin/env bash
# The design lints: one function per gate, each a grep/awk check over the
# sources that fails when a rule of DESIGN.md is written a second time or a
# deleted name comes back. `bash ci/gates.sh` runs every gate from the
# repository root, prints each hit, names each gate that fires, and exits 1
# if any did. Tier-1 runs it (`tests/gates.rs`), and that test also plants
# one offending line per gate in a copy of the sources to show each fires.
#
# Each gate runs in a subshell of its own under `set -e`, so its `cd`, its
# `code` helper and its `exit` stay its own.
#
# Gates fail closed: each first `need`s every file and directory it names,
# and a missing one fires the gate with its path. Without that, a renamed
# file would pass — `! grep` reads grep's "no such file" as no hit, and
# `awk` prints nothing for a file it cannot open.

cd "$(dirname "$0")/.." || exit 2

need() {
  for p in "$@"; do
    if [ ! -e "$p" ]; then echo "missing path: $p"; exit 1; fi
  done
}

# `need` for a line a gate's `awk` range or exemption starts at.
need_line() {
  need "$1"
  grep -qE "$2" "$1" || { echo "missing in $1: $2"; exit 1; }
}

# Bytes reach a decoder only through `VerifiedPage` (DESIGN.md,
# "Checksummed pages"): nothing above the storage crate opens a page
# type from raw bytes, so nothing above it can re-checksum one.
no_page_type_constructor_above_storage() {
  need crates/engine/src crates/core/src
  ! grep -rnE '(ColumnPage|RowPage|PackedRowPage|PaxPage|PageView)::new\(' \
  crates/engine/src crates/core/src
}

# One home per scan primitive (DESIGN.md, "Scan core"): predicate
# evaluations are tallied, a dropped row is reported, a column decode
# is metered only in scan_core.rs, and no scanner charges a block hop
# by hand (agg / join keep theirs — they are operators above the
# scan). Stored bytes meet a literal only in scan_core.rs (the strided
# select kernel) and in predicate.rs: an `eval_raw(` in a scanner is a
# select written by hand. Every scanner hands the sink a page's (or a
# run's, or a call's) survivors at once and narrows a selection vector
# over a run of values, so a `push_with(`, a `.passes(` or a `judge(`
# in any engine file is a per-row loop back. Test modules, which start
# at `#[cfg(test)]`, are exempt.
scan_primitives_have_one_home() {
  need crates/engine/src
  cd crates/engine/src
  need scan_core.rs predicate.rs scan_row.rs scan_col.rs scan_col_single.rs memscan.rs
  code() { awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$1"; }
  hits=$(
    for f in *.rs; do
      code $f | grep -E '\bjudge\(|push_with\(|\.passes\('
      case $f in
        scan_core.rs|predicate.rs) continue;;
      esac
      code $f | grep -E '(note_dropped_rows|col_iter|decode_block|memory_access|eval_raw)\(|\.(evals|passes) \+='
    done
    for f in scan_row.rs scan_col.rs scan_col_single.rs memscan.rs; do
      code $f | grep -E '(block_calls|stream_bytes)\('
    done
  ) || true
  if [ -n "$hits" ]; then echo "$hits"; exit 1; fi
}

# The checksum has one home (DESIGN.md, "Checksummed pages"): the
# CRC-32 polynomial, every `fn crc32*` and the carry-less multiply of
# its folding tier live in crates/storage/src/crc.rs, so nobody grows
# a second CRC. Exempt: tests/crc_kernel.rs, whose bit-at-a-time
# reference must share no code with the crate.
the_checksum_has_one_home() {
  need crates src tests examples crates/storage/src/crc.rs tests/crc_kernel.rs
  ! grep -rniE --include='*.rs' 'EDB8_?8320|fn crc32|_mm_clmulepi64_si128' crates src tests examples \
  | grep -vE '^(crates/storage/src/crc\.rs|tests/crc_kernel\.rs):'
}

# `unsafe` lives in named files: the SIMD decode kernels and the
# bit reader's word load (crates/compress/src/{simd,bits}.rs) and the
# checksum's folding tier (crates/storage/src/crc.rs). Comment lines
# and test modules, which start at `#[cfg(test)]`, are exempt.
unsafe_lives_in_named_files() {
  need src crates/compress/src/simd.rs crates/compress/src/bits.rs crates/storage/src/crc.rs
  code() { awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$1" | grep -vE '^[^:]+:[0-9]+: *//'; }
  hits=$(
    for f in $(find crates/*/src src -name '*.rs'); do
      case $f in
        crates/compress/src/simd.rs|crates/compress/src/bits.rs|crates/storage/src/crc.rs) continue;;
      esac
      code $f | grep -wF 'unsafe'
    done
  ) || true
  if [ -n "$hits" ]; then echo "$hits"; exit 1; fi
}

# An accounted field has one home (DESIGN.md, "Accounting and
# observability"): the five stats structs declare their fields once
# (`rodb_trace::fields!`) and the tracer and the query registry loop
# over that table, so neither may spell a leaf field; and each service
# fact has one writer (the `Ledger` in service.rs), so each registry /
# timeline name is written down exactly once there. A hit means a
# field list or an emission point was re-stated by hand.
an_accounted_field_has_one_home() {
  code() { awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$1" | grep -vE '^[^:]+:[0-9]+: *//'; }
  fields='bytes_read|seeks|bursts|comp_bursts|transfer_s|seek_s|comp_s|pages_skipped'
  fields="$fields|retries|repairs|quarantined_pages|dropped_rows|wal_replayed|wal_discarded"
  fields="$fields|hits|misses|evictions|uops|seq_bytes|rand_misses|l1_lines"
  fields="$fields|branch_mispredicts|io_requests|io_bytes|io_switches|usr_[a-z0-9]+"
  need crates/engine/src/traced.rs crates/core/src/service.rs
  need_line crates/core/src/query.rs 'fn register_run\('
  hits=$(
    code crates/engine/src/traced.rs | grep -wE "$fields"
    code crates/core/src/query.rs | awk '/fn register_run\(/,/:     }$/' | grep -wE "$fields"
    grep -oE '"(query\.sched|service)\.[^"]*"' crates/core/src/service.rs | sort | uniq -d
  ) || true
  if [ -n "$hits" ]; then echo "$hits"; exit 1; fi
}

# A design is priced in one place (DESIGN.md, "Physical-design
# chooser"): `rodb_core::design::price` is the only caller in
# rodb_core of the Section-5 scanner-cost and rate functions, so the
# layout, codec and partition advisors cannot price differently; the
# two-valued goal and the rank table of the old codec advisor stay
# gone; and `OpCosts::{decode, block_decode}` is the only place a
# codec is matched to a number, so what is priced is what the CPU
# meter charges (codec.rs is exempt: header bytes and code widths are
# the format, not a cost).
a_design_is_priced_in_one_place() {
  need crates src crates/core/src crates/cpu/src/costs.rs crates/compress/src/codec.rs
  pricers=$(grep -rlE '(row_scanner_cost|col_scanner_cost|store_rate|model::speedup)\(' crates/core/src)
  hits=$(
    [ "$(echo "$pricers" | grep -c .)" -le 1 ] || echo "priced in: $pricers"
    grep -rnE 'cpu_rank|AdvisorGoal' crates src
    grep -rnE --include='*.rs' 'Codec(Kind)?::[A-Za-z]+( *\{[^}]*\})?( *\| *Codec(Kind)?::[A-Za-z]+( *\{[^}]*\})?)* *=> *[0-9]' crates src \
      | grep -vE '^crates/(cpu/src/costs|compress/src/codec)\.rs:'
  ) || true
  if [ -n "$hits" ]; then echo "$hits"; exit 1; fi
}

# A codec is written once (DESIGN.md, "Compression: one mapping per
# codec"): each codec's value → code and code → value mapping lives in
# crates/compress/src (the block encoder, `Field`), so neither the
# packed-row page nor the column scanner names a fixed-width codec; and the
# per-page dictionary table and the fused kernels auto-dispatch never
# picked stay gone. A page is decoded by its block decoders
# (`decode_ints_into`, `decode_raw_into`, `codes_block`) and a run of
# positions by its slot-list gather (`gather_raw`, whose per-slot
# fallback is the codec's `write_raw`), so no `write_raw(` appears in
# the engine; and a packed row page is read through its column decoders
# (`PackedColumns`), so no `.advance()` or `field_raw(` of the
# sequential cursor appears in the engine. Value → code is one block
# encoder over stored bytes (`ColumnCompression::encode_raw` /
# `page_codes`), so the value-at-a-time `Encoder` stays gone; a write
# path rebuilds a table column by column (`Table::read_columns` →
# `TableBuilder::push_columns`), so no non-test `read_all(` — the
# row oracle — appears in crates/*/src outside table.rs and the
# fuzzer; and the page builders and the loader stage stored bytes, so
# no `Vec<Value>` appears in them. Test modules are exempt from every
# arm but the deleted names, and comment lines from the last four.
a_codec_is_written_once() {
  code() { awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$1"; }
  need crates src crates/engine/src crates/fuzz/src crates/storage/src/table.rs \
    crates/storage/src/page_packed.rs crates/engine/src/scan_col.rs crates/storage/src/loader.rs \
    crates/storage/src/page.rs crates/storage/src/page_pax.rs
  hits=$(
    for f in crates/storage/src/page_packed.rs crates/engine/src/scan_col.rs; do
      code $f | grep -E 'Codec::(BitPack|For|Dict|DictFor|Pfor|TextPack)\b'
    done
    grep -rnE 'dict_int_table|prefix_sum_avx2|dict_gather_avx2|fused_auto_tier|BitCursor|\bEncoder\b' crates src
    for f in crates/engine/src/*.rs; do
      code $f | grep -vE '^[^:]+:[0-9]+: *//' | grep -E 'write_raw\(|\.advance\(\)|field_raw\('
    done
    for f in $(find crates/*/src -name '*.rs'); do
      case $f in
        crates/storage/src/table.rs|crates/fuzz/src/*) continue;;
      esac
      code $f | grep -vE '^[^:]+:[0-9]+: *//' | grep -F 'read_all('
    done
    for f in crates/storage/src/loader.rs crates/storage/src/page.rs \
             crates/storage/src/page_packed.rs crates/storage/src/page_pax.rs; do
      code $f | grep -vE '^[^:]+:[0-9]+: *//' | grep -F 'Vec<Value>'
    done
  ) || true
  if [ -n "$hits" ]; then echo "$hits"; exit 1; fi
}

# One executor core (DESIGN.md, "One plan, one run call"): the serial
# engine, the morsel pool and the shared cursor's riders all run a
# plan through `QueryPlan::run_on` and fold ranged pieces with
# `QueryPlan::finish`, so the job-batch layer and the second page pass
# stay gone, and no executor settles a report by hand — a non-test
# `settle_report(` lives in exec.rs and plan.rs only.
one_executor_core() {
  code() { awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$1"; }
  need crates src tests examples crates/engine/src/exec.rs crates/engine/src/plan.rs
  hits=$(
    grep -rnE 'QueryJob|JobOutcome|TaskOutcome|run_jobs|row_page_pass' crates src tests examples
    for f in $(find crates/*/src -name '*.rs'); do
      case $f in
        crates/engine/src/exec.rs|crates/engine/src/plan.rs) continue;;
      esac
      code $f | grep -F 'settle_report('
    done
  ) || true
  if [ -n "$hits" ]; then echo "$hits"; exit 1; fi
}

# One scan entry point (DESIGN.md, "One scan entry point"):
# `ScanSpec::build` opens every scanner — the layout picks it, and each
# scanner has one crate-private constructor taking a row range — so the
# range special cases and the second scan-mode type stay gone, and no
# non-test code outside plan.rs names a scanner's associated function.
# Comment lines and test modules are exempt.
one_scan_entry_point() {
  code() { awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$1" | grep -vE '^[^:]+:[0-9]+: *//'; }
  need crates src tests examples crates/engine/src/plan.rs
  hits=$(
    grep -rnE 'supports_ranges|ColumnScanMode|new_range' crates src tests examples
    for f in $(find crates/*/src src -name '*.rs'); do
      case $f in
        crates/engine/src/plan.rs) continue;;
      esac
      code $f | grep -E '\b(RowScanner|ColumnScanner|SingleIteratorColumnScanner)::'
    done
  ) || true
  if [ -n "$hits" ]; then echo "$hits"; exit 1; fi
}

# One grouping rule (DESIGN.md, "One plan, one run call"): input rows
# and merged partials join groups through `AggPartial::group` alone, so
# the ungrouped-input error has one non-test site, the key map is
# reached nowhere else in agg.rs, and no custom hasher stands in for
# the keyed std map; `finish` emits the merged answer without building
# a stand-in scan. The service reads
# its books off the outcome slots (DESIGN.md, "One ledger in the
# service"), so the per-cursor I/O totals, the in-flight list and the
# ingest store's unread tracer stay gone. Comment lines and test
# modules are exempt from the site count.
one_grouping_rule() {
  code() { awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$1" | grep -vE '^[^:]+:[0-9]+: *//'; }
  need crates src tests examples crates/engine/src
  need_line crates/engine/src/agg.rs '^    fn group\('
  hits=$(
    grep -rnE 'install_partial|with_row_range\(0, 0\)' crates src tests examples
    sites=$(for f in crates/engine/src/*.rs; do code $f | grep -F 'ungrouped input'; done)
    [ "$(echo "$sites" | grep -c .)" -le 1 ] || echo "$sites"
    grep -rnE 'last_io|struct Inflight|set_tracer' crates/*/src
    grep -rnE 'BuildHasher|impl(<[^>]*>)? +([A-Za-z_]+::)*Hasher\b' crates/*/src | grep -vE '^[^:]+:[0-9]+: *//'
    code crates/engine/src/agg.rs |
      awk '/^[^:]+:[0-9]+:     fn group\(/{g=1} g&&/^[^:]+:[0-9]+:     }$/{g=0} !g&&/keys\.(get|insert|entry)\(/'
  ) || true
  if [ -n "$hits" ]; then echo "$hits"; exit 1; fi
}

# No idle plane (DESIGN.md §15, "The write path exists once opened"):
# `Database::ingest_for` takes the `IngestSpec`, so no config carries
# an ingest plane, and `merge_prefix_into` + `drain_prefix` are the one
# WOS rebuild step, so the non-durable merge stays gone. The service's
# outcomes are its record (DESIGN.md §11), so service.rs keeps no span
# tree beside them. Knobs no caller set stay gone with the code they
# guarded: cache prefetch insertion and its unverified frames,
# priority admission, the flight recorder's sizes and reservoir, the
# ingest spec's WAL page, the service's on/off books switch and the
# per-tenant registry keys it guarded (the SLO table is their home),
# the builder's serial-only shared page cache, the meter's profiling
# switch (its phase table is its one record) and the sort operator no
# plan reached. Nor does the monitoring plane keep a copy of what it
# holds: `/metrics` renders the registry's typed set (no JSON flatten or
# bucket-label decoder), `explain()` reads the root's `io.*` counts (no
# event recount), no process-wide SIMD block counter, and the shared
# cursor's pool is `sys.threads` wide (no config struct). Comment lines
# are exempt; test modules only from the `Tracer` arm.
no_idle_plane() {
  comments='^[^:]+:[0-9]+: *//'
  code() { awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$1" | grep -vE "$comments"; }
  idle='with_ingest|fn wos_for|fn merge_wos|fn merge_into|SpanKind::Sched|pub ingest:'
  idle="$idle|with_prefetch\b|\bAdmission\b|with_admission|flight_reservoir|with_flight_k"
  idle="$idle|with_reservoir|Unverified|cache_fill_prefetched|cache_resolve_unverified"
  idle="$idle|CachePrefetch|ObserveSpec|with_observe|query\.tenant\.|tenant_key"
  idle="$idle|\.shared_page_cache\(|enable_profiling|profile_snapshot|\bSort::new\("
  idle="$idle|\bmod sort\b|fn flatten\b|IDENT_FIELDS|bucket_pairs|event_counts|SIMD_BLOCKS"
  idle="$idle|simd_blocks_decoded|SharedCursorConfig"
  need crates src tests examples crates/types crates/core/src/service.rs
  hits=$(
    grep -rnE --include='*.rs' "$idle" crates src tests examples | grep -vE "$comments"
    grep -rn --include='*.rs' 'wal_page' crates/types | grep -vE "$comments"
    code crates/core/src/service.rs | grep -wF 'Tracer'
  ) || true
  if [ -n "$hits" ]; then echo "$hits"; exit 1; fi
}

# Result rows stay blocks (DESIGN.md, "Blocks are the result format"):
# a collected query keeps the blocks its plan emitted (`RowBatch`) and
# readers borrow rows through `RowBatch::iter`, so no engine or core code
# decodes a block into `Vec<Vec<Value>>` — no `collect_rows(`, no
# `TupleBlock::rows()?` and no `to_rows(` outside block.rs, which
# defines the decoders for tests, the oracle and examples. Comment lines
# and test modules are exempt.
result_rows_stay_blocks() {
  code() { awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$1" | grep -vE '^[^:]+:[0-9]+: *//'; }
  need crates/engine/src crates/core/src crates/engine/src/block.rs
  hits=$(
    for f in crates/engine/src/*.rs crates/core/src/*.rs; do
      case $f in
        crates/engine/src/block.rs) continue;;
      esac
      code $f | grep -E '\bcollect_rows\(|\.rows\(\)\?|\bto_rows\('
    done
  ) || true
  if [ -n "$hits" ]; then echo "$hits"; exit 1; fi
}

status=0
gate() {
  ( set -e; "$2" )
  if [ $? -ne 0 ]; then
    echo "gate fired: $1"
    status=1
  fi
}

gate "No page-type constructor above storage" no_page_type_constructor_above_storage
gate "Scan primitives have one home" scan_primitives_have_one_home
gate "The checksum has one home" the_checksum_has_one_home
gate "unsafe lives in named files" unsafe_lives_in_named_files
gate "An accounted field has one home" an_accounted_field_has_one_home
gate "A design is priced in one place" a_design_is_priced_in_one_place
gate "A codec is written once" a_codec_is_written_once
gate "One executor core" one_executor_core
gate "One scan entry point" one_scan_entry_point
gate "One grouping rule" one_grouping_rule
gate "No idle plane" no_idle_plane
gate "Result rows stay blocks" result_rows_stay_blocks
exit $status
