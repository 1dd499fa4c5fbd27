//! Vectorized scan fast path: decode kernels, code-space predicates, and
//! zone-map page skipping, A/B against the scalar per-value path.
//!
//! Builds a compressed column store with three predicate targets —
//! a sorted FOR column (`key`), a dictionary column (`dcol`), and a
//! bit-packed column (`bcol`) — and sweeps the same selective projection at
//! selectivities {0.1 %, 1 %, 10 %, 50 %} with `scan_fast_path` off and on.
//! For each point it reports the modeled CPU seconds (the deterministic,
//! host-independent number the acceptance gates check), best-of-REPS
//! measured wall time, bytes transferred, and pages skipped by zone maps.
//!
//! Gates (exit 1 on failure):
//! * at 1 % selectivity the fast path models >= 2x less *user-mode* CPU
//!   (uop + L2 + L1 + rest — the components decode kernels and predicate
//!   evaluation actually touch; `sys` is kernel I/O time and identical on
//!   both paths) on the FOR and Dict columns;
//! * on the sorted column at 1 % selectivity, zone maps skip >= 90 % of
//!   the column file's pages (measured at prefetch depth 1 so a burst
//!   doesn't pre-fetch pages the zone maps would have skipped).
//!
//! A `decode_gbps` section microbenchmarks the runtime-dispatched hardware
//! kernels directly: bit-unpack at every width 1..=32 plus the fused
//! base-add / prefix-sum / dictionary-gather kernels, scalar vs the active
//! SIMD tier, reported as decoded GB/s and speedup. `--arch
//! {auto,scalar,sse2,avx2,neon}` pins the dispatch tier for the whole run
//! (`RODB_FORCE_SCALAR=1` does the same from the environment); when the
//! active tier is AVX2 the full run gates bit-unpack widths <= 16 at
//! >= 3x over scalar (smoke and other SIMD tiers gate at >= 1x).
//!
//! Results land in `results/bench_decode_kernels.json`.
//! `--smoke` shrinks rows/reps for CI.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rodb_compress::simd::{self, KernelTier};
use rodb_compress::{BitReader, BitWriter, Codec, ColumnCompression, Dictionary, BLOCK};
use rodb_core::{QueryBuilder, QueryResult};
use rodb_engine::{CmpOp, ScanLayout};
use rodb_storage::{BuildLayouts, Table, TableBuilder};
use rodb_trace::{Json, MetricsRegistry};
use rodb_types::{Column, DataType, HardwareConfig, Schema, SystemConfig, Value};

const PAGE: usize = 4096;
const SELECTIVITIES: [f64; 4] = [0.001, 0.01, 0.1, 0.5];

/// One predicate target: a column plus how a selectivity maps to a literal.
struct Target {
    col: &'static str,
    codec: &'static str,
    /// Distinct-value domain: `col < ceil(sel * domain)` keeps ~`sel` rows.
    domain: i32,
}

const TARGETS: [Target; 3] = [
    Target {
        col: "key",
        codec: "for_sorted",
        domain: 0, // sorted 0..n — the literal is sel * n, filled per run
    },
    Target {
        col: "dcol",
        codec: "dict",
        domain: 1000,
    },
    Target {
        col: "bcol",
        codec: "bitpack",
        domain: 1000,
    },
];

/// `key` sorted (zone-map friendly), `dcol`/`bcol` uniform over 1000
/// distinct values, `pay` a wider bit-packed payload column.
fn build_table(n: usize) -> Arc<Table> {
    let schema = Arc::new(
        Schema::new(vec![
            Column::int("key"),
            Column::int("dcol"),
            Column::int("bcol"),
            Column::int("pay"),
        ])
        .expect("schema"),
    );
    let dvals: Vec<Value> = (0..n)
        .map(|i| Value::Int(((i as i64 * 7919) % 1000) as i32))
        .collect();
    let dict = Dictionary::build(DataType::Int, dvals.iter()).expect("dict over own data");
    let comps = vec![
        ColumnCompression::new(Codec::For { bits: 20 }, None).expect("for codec"),
        ColumnCompression::new(
            Codec::Dict {
                bits: dict.code_bits(),
            },
            Some(Arc::new(dict)),
        )
        .expect("dict codec"),
        ColumnCompression::new(Codec::BitPack { bits: 10 }, None).expect("bitpack codec"),
        ColumnCompression::new(Codec::BitPack { bits: 16 }, None).expect("payload codec"),
    ];
    let mut b =
        TableBuilder::with_compression("kernels", schema, PAGE, BuildLayouts::column_only(), comps)
            .expect("builder");
    for (i, dv) in dvals.iter().enumerate() {
        b.push_row(&[
            Value::Int(i as i32),
            dv.clone(),
            Value::Int(((i as i64 * 104_729) % 1000) as i32),
            Value::Int(((i as i64 * 31) % 60_000) as i32),
        ])
        .expect("row");
    }
    Arc::new(b.finish().expect("table"))
}

fn run_query(
    table: &Arc<Table>,
    proj: &[&str],
    col: &str,
    lit: i32,
    fast: bool,
    sys: SystemConfig,
) -> QueryResult {
    let sys = sys.with_scan_fast_path(fast);
    QueryBuilder::new(table.clone(), HardwareConfig::default(), sys)
        .layout(ScanLayout::Column)
        .select(proj)
        .expect("projection")
        .filter(col, CmpOp::Lt, Value::Int(lit))
        .expect("predicate")
        .run()
        .expect("bench run")
}

struct Point {
    col: &'static str,
    codec: &'static str,
    sel: f64,
    rows: u64,
    slow_cpu_s: f64,
    fast_cpu_s: f64,
    slow_user_s: f64,
    fast_user_s: f64,
    /// User-mode modeled CPU, slow / fast — the decode-kernel win.
    cpu_ratio: f64,
    slow_wall_s: f64,
    fast_wall_s: f64,
    slow_bytes: f64,
    fast_bytes: f64,
    pages_skipped: u64,
}

/// One kernel-microbench row: scalar vs active-tier decode throughput in
/// decoded output bytes (u64 for unpack, i32 for the fused kernels).
struct KernelPoint {
    kernel: &'static str,
    bits: u8,
    scalar_gbps: f64,
    simd_gbps: f64,
    speedup: f64,
    /// False when the active tier has no hardware path for this kernel and
    /// the measurement fell back to the scalar loop (speedup pinned to 1).
    accelerated: bool,
}

/// Best per-sweep seconds over `reps` timings of `inner` sweeps each.
fn best_secs(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..inner {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / inner as f64);
    }
    best
}

/// Time a full sweep of `nblocks` byte-aligned 128-value block unpacks at
/// the *currently forced* dispatch tier (the production `BitReader::unpack`
/// path, so dispatch overhead is included).
fn time_unpack(data: &[u8], bits: u8, nblocks: usize, reps: usize, inner: usize) -> f64 {
    let rdr = BitReader::new(data);
    let mut out = vec![0u64; BLOCK];
    best_secs(reps, inner, move || {
        for b in 0..nblocks {
            rdr.unpack(b * BLOCK, bits, &mut out)
                .expect("packed block in range");
            black_box(&out);
        }
    })
}

/// Microbenchmark the decode kernels scalar vs `tier`. Leaves `tier` forced
/// on return; the caller restores the user-requested dispatch state.
fn kernel_bench(smoke: bool, tier: KernelTier) -> Vec<KernelPoint> {
    let widths: Vec<u8> = if smoke {
        vec![1, 2, 4, 8, 12, 16, 24, 32]
    } else {
        (1..=32).collect()
    };
    let nblocks = if smoke { 256 } else { 2048 };
    let (reps, inner) = if smoke { (2, 2) } else { (5, 4) };
    let nvalues = nblocks * BLOCK;
    let mut points = Vec::new();

    println!(
        "\ndecode kernels: {} values/sweep, best of {}x{} sweeps, tier {}",
        nvalues,
        reps,
        inner,
        tier.name()
    );
    println!(
        "{:>12} {:>5} {:>12} {:>12} {:>9}",
        "kernel", "bits", "scalar GB/s", "tier GB/s", "speedup"
    );

    let force = |t: KernelTier| simd::force_tier(Some(t)).expect("tier available");

    for &w in &widths {
        let mask = (1u64 << w) - 1;
        let mut wtr = BitWriter::new();
        for i in 0..nvalues {
            wtr.write((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask, w)
                .expect("pack");
        }
        let data = wtr.into_bytes();
        // Both tiers must decode the first block identically (the compress
        // equivalence suite covers the exhaustive check).
        let rdr = BitReader::new(&data);
        let (mut a, mut b) = (vec![0u64; BLOCK], vec![0u64; BLOCK]);
        force(KernelTier::Scalar);
        rdr.unpack(0, w, &mut a).expect("scalar unpack");
        force(tier);
        rdr.unpack(0, w, &mut b).expect("tier unpack");
        assert_eq!(
            a,
            b,
            "tier {} diverged from scalar at width {w}",
            tier.name()
        );

        force(KernelTier::Scalar);
        let scalar_s = time_unpack(&data, w, nblocks, reps, inner);
        let simd_s = if tier == KernelTier::Scalar {
            scalar_s
        } else {
            force(tier);
            time_unpack(&data, w, nblocks, reps, inner)
        };
        let bytes = (nvalues * 8) as f64;
        let p = KernelPoint {
            kernel: "unpack",
            bits: w,
            scalar_gbps: bytes / scalar_s / 1e9,
            simd_gbps: bytes / simd_s / 1e9,
            speedup: scalar_s / simd_s,
            accelerated: tier != KernelTier::Scalar,
        };
        println!(
            "{:>12} {:>5} {:>12.2} {:>12.2} {:>8.2}x",
            p.kernel, p.bits, p.scalar_gbps, p.simd_gbps, p.speedup
        );
        points.push(p);
    }
    force(tier);

    // Fused post-unpack kernels over one large code buffer; the scalar
    // baselines are the exact fallback loops the codec decode paths use.
    let codes: Vec<u64> = (0..nvalues)
        .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & 0xFFF)
        .collect();
    let table: Vec<i32> = (0..4096).map(|i| i * 7 - 9000).collect();
    let base = 1_000_000i64;
    let mut out = vec![0i32; nvalues];
    let mut scalar_out = vec![0i32; nvalues];
    let out_bytes = (nvalues * 4) as f64;

    let mut fused = |kernel: &'static str,
                     scalar: &mut dyn FnMut(&mut [i32]),
                     simd: &mut dyn FnMut(&mut [i32]) -> bool| {
        scalar(&mut scalar_out);
        let accelerated = tier != KernelTier::Scalar && simd(&mut out);
        if accelerated {
            assert_eq!(
                scalar_out,
                out,
                "tier {} diverged from scalar on {kernel}",
                tier.name()
            );
        }
        let scalar_s = best_secs(reps, inner, || {
            scalar(&mut scalar_out);
            black_box(&scalar_out);
        });
        let simd_s = if accelerated {
            best_secs(reps, inner, || {
                simd(&mut out);
                black_box(&out);
            })
        } else {
            scalar_s
        };
        let p = KernelPoint {
            kernel,
            bits: 0,
            scalar_gbps: out_bytes / scalar_s / 1e9,
            simd_gbps: out_bytes / simd_s / 1e9,
            speedup: scalar_s / simd_s,
            accelerated,
        };
        println!(
            "{:>12} {:>5} {:>12.2} {:>12.2} {:>8.2}x{}",
            p.kernel,
            "-",
            p.scalar_gbps,
            p.simd_gbps,
            p.speedup,
            if accelerated {
                ""
            } else {
                "  (scalar fallback)"
            }
        );
        points.push(p);
    };

    fused(
        "base_add",
        &mut |o| {
            for (o, &c) in o.iter_mut().zip(codes.iter()) {
                *o = (base + c as i64) as i32;
            }
        },
        &mut |o| simd::base_add_with_tier(tier, &codes, base, o),
    );
    fused(
        "prefix_sum",
        &mut |o| {
            let mut running = 0i64;
            for (o, &c) in o.iter_mut().zip(codes.iter()) {
                running = running.wrapping_add(c as i64);
                *o = running as i32;
            }
        },
        &mut |o| {
            let mut running = 0i64;
            simd::prefix_sum_with_tier(tier, &codes, &mut running, o)
        },
    );
    fused(
        "dict_gather",
        &mut |o| {
            for (o, &c) in o.iter_mut().zip(codes.iter()) {
                *o = table[c as usize];
            }
        },
        &mut |o| simd::dict_gather_with_tier(tier, &codes, &table, o),
    );
    points
}

/// Best-of-`reps` wall plus the (deterministic) model numbers.
fn measure(
    table: &Arc<Table>,
    proj: &[&str],
    col: &str,
    lit: i32,
    fast: bool,
    reps: usize,
) -> (QueryResult, f64) {
    let mut best_wall = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let res = run_query(table, proj, col, lit, fast, SystemConfig::default());
        best_wall = best_wall.min(t0.elapsed().as_secs_f64());
        last = Some(res);
    }
    (last.expect("at least one rep"), best_wall)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let arch = args
        .iter()
        .position(|a| a == "--arch")
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix("--arch=").map(str::to_string))
        });
    let user_forced = match arch.as_deref() {
        None | Some("auto") => None,
        Some(s) => match KernelTier::parse(s) {
            Some(t) => Some(t),
            None => {
                eprintln!("unknown --arch '{s}' (expected auto|scalar|sse2|avx2|neon)");
                std::process::exit(2);
            }
        },
    };
    if let Some(t) = user_forced {
        if let Err(e) = simd::force_tier(Some(t)) {
            eprintln!("--arch {}: {e}", t.name());
            std::process::exit(2);
        }
    }
    let tier = simd::active_tier();
    let n = if smoke {
        20_000
    } else {
        rodb_bench::actual_rows() as usize
    };
    let reps = if smoke { 2 } else { 5 };
    rodb_bench::banner(
        "bench_decode_kernels",
        "vectorized decode + code-space predicates + zone maps vs scalar path",
    );
    println!("dispatch tier: {} (use --arch to pin)", tier.name());
    MetricsRegistry::counter_add(&format!("bench.kernel_tier.{}", tier.name()), 1.0);

    let kpoints = kernel_bench(smoke, tier);
    simd::force_tier(user_forced).expect("restore requested dispatch tier");

    let table = build_table(n);

    println!(
        "\n{:>10} {:>7} {:>9} {:>12} {:>12} {:>7} {:>10} {:>9}",
        "column", "sel", "rows", "slow usr ms", "fast usr ms", "ratio", "skipped", "wall x"
    );
    let mut points: Vec<Point> = Vec::new();
    for t in &TARGETS {
        for &sel in &SELECTIVITIES {
            let domain = if t.domain == 0 { n as i32 } else { t.domain };
            let lit = ((sel * domain as f64).ceil() as i32).max(1);
            let proj = [t.col, "pay"];
            let (slow, slow_wall) = measure(&table, &proj, t.col, lit, false, reps);
            let (fast, fast_wall) = measure(&table, &proj, t.col, lit, true, reps);
            assert_eq!(
                slow.report.rows, fast.report.rows,
                "fast path changed the answer on {} sel {}",
                t.col, sel
            );
            let p = Point {
                col: t.col,
                codec: t.codec,
                sel,
                rows: fast.report.rows,
                slow_cpu_s: slow.report.cpu.total(),
                fast_cpu_s: fast.report.cpu.total(),
                slow_user_s: slow.report.cpu.user(),
                fast_user_s: fast.report.cpu.user(),
                cpu_ratio: slow.report.cpu.user() / fast.report.cpu.user().max(1e-12),
                slow_wall_s: slow_wall,
                fast_wall_s: fast_wall,
                slow_bytes: slow.report.io.bytes_read,
                fast_bytes: fast.report.io.bytes_read,
                pages_skipped: fast.report.io.pages_skipped,
            };
            println!(
                "{:>10} {:>7.3} {:>9} {:>12.3} {:>12.3} {:>6.2}x {:>10} {:>8.2}x",
                p.col,
                p.sel,
                p.rows,
                p.slow_user_s * 1e3,
                p.fast_user_s * 1e3,
                p.cpu_ratio,
                p.pages_skipped,
                p.slow_wall_s / p.fast_wall_s.max(1e-12),
            );
            points.push(p);
        }
    }

    // Zone-map gate on its own single-column query, so every byte read (or
    // skipped) belongs to the sorted column file. One-page bursts
    // (io_unit = page, depth 1) keep bytes_read == pages actually
    // delivered — a deep burst would fetch pages the zone maps then skip,
    // hiding the saving.
    let zone_lit = ((0.01 * n as f64).ceil() as i32).max(1);
    let zone_sys = SystemConfig {
        io_unit: PAGE,
        ..SystemConfig::default().with_prefetch_depth(1)
    };
    let zfast = run_query(&table, &["key"], "key", zone_lit, true, zone_sys);
    let zslow = run_query(&table, &["key"], "key", zone_lit, false, zone_sys);
    let pages_read = (zfast.report.io.bytes_read / PAGE as f64).round() as u64;
    let pages_total = zfast.report.io.pages_skipped + pages_read;
    let skip_frac = zfast.report.io.pages_skipped as f64 / pages_total.max(1) as f64;
    assert_eq!(zslow.report.rows, zfast.report.rows);
    println!(
        "\nzone maps: skipped {}/{} pages ({:.1}%) of the sorted column at 1% selectivity",
        zfast.report.io.pages_skipped,
        pages_total,
        skip_frac * 100.0
    );

    let doc = Json::obj()
        .set("bench", "decode_kernels")
        .set("rows", n)
        .set("reps", reps)
        .set("smoke", smoke)
        .set("arch", tier.name())
        .set("page_size", PAGE)
        .set(
            "decode_gbps",
            Json::obj().set("tier", tier.name()).set(
                "kernels",
                kpoints
                    .iter()
                    .map(|k| {
                        Json::obj()
                            .set("kernel", k.kernel)
                            .set("bits", k.bits as usize)
                            .set("scalar_gbps", k.scalar_gbps)
                            .set("simd_gbps", k.simd_gbps)
                            .set("speedup", k.speedup)
                            .set("accelerated", k.accelerated)
                    })
                    .collect::<Vec<_>>(),
            ),
        )
        .set(
            "zone",
            Json::obj()
                .set("pages_total", pages_total)
                .set("pages_skipped", zfast.report.io.pages_skipped)
                .set("skip_frac", skip_frac),
        )
        .set(
            "points",
            points
                .iter()
                .map(|p| {
                    Json::obj()
                        .set("col", p.col)
                        .set("codec", p.codec)
                        .set("selectivity", p.sel)
                        .set("rows", p.rows)
                        .set("slow_cpu_s", p.slow_cpu_s)
                        .set("fast_cpu_s", p.fast_cpu_s)
                        .set("slow_user_s", p.slow_user_s)
                        .set("fast_user_s", p.fast_user_s)
                        .set("user_cpu_ratio", p.cpu_ratio)
                        .set("slow_wall_s", p.slow_wall_s)
                        .set("fast_wall_s", p.fast_wall_s)
                        .set("slow_bytes", p.slow_bytes)
                        .set("fast_bytes", p.fast_bytes)
                        .set("pages_skipped", p.pages_skipped)
                })
                .collect::<Vec<_>>(),
        )
        .set("metrics", MetricsRegistry::drain());
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/bench_decode_kernels.json", doc.pretty()).expect("write results");
    println!("wrote results/bench_decode_kernels.json");

    let mut failed = false;
    if tier != KernelTier::Scalar {
        // Acceptance target: >= 3x measured-wall unpack throughput vs scalar
        // for widths <= 16 on an AVX2 host. Smoke runs and narrower SIMD
        // tiers only sanity-check that hardware never loses to scalar.
        let need = if !smoke && tier == KernelTier::Avx2 {
            3.0
        } else {
            1.0
        };
        let worst = kpoints
            .iter()
            .filter(|k| k.kernel == "unpack" && k.bits <= 16)
            .min_by(|a, b| a.speedup.total_cmp(&b.speedup))
            .expect("unpack points");
        if worst.speedup < need {
            println!(
                "FAIL: bit-unpack width {} only {:.2}x over scalar on {} (< {:.1}x)",
                worst.bits,
                worst.speedup,
                tier.name(),
                need
            );
            failed = true;
        } else {
            println!(
                "gate: bit-unpack widths <= 16 at least {:.2}x over scalar on {} (>= {:.1}x)",
                worst.speedup,
                tier.name(),
                need
            );
        }
    } else {
        println!("gate: decode-kernel speedup skipped (scalar dispatch tier)");
    }
    for codec in ["for_sorted", "dict"] {
        let p = points
            .iter()
            .find(|p| p.codec == codec && (p.sel - 0.01).abs() < 1e-9)
            .expect("1% point");
        if p.cpu_ratio < 2.0 {
            println!(
                "FAIL: {} at 1% selectivity models only {:.2}x user-CPU reduction (< 2.0x)",
                codec, p.cpu_ratio
            );
            failed = true;
        } else {
            println!(
                "gate: {} at 1% selectivity models {:.2}x user-CPU reduction (>= 2.0x)",
                codec, p.cpu_ratio
            );
        }
    }
    if skip_frac < 0.9 {
        println!(
            "FAIL: zone maps skipped only {:.1}% of sorted-column pages (< 90%)",
            skip_frac * 100.0
        );
        failed = true;
    } else {
        println!(
            "gate: zone maps skipped {:.1}% of sorted-column pages (>= 90%)",
            skip_frac * 100.0
        );
    }
    if failed {
        std::process::exit(1);
    }
}
