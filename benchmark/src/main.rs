//! rodb's benchmark: measured-wall end-to-end metrics and a staircase
//! per-layer breakdown over five workloads. See `README.md` beside this
//! package for every metric and workload by name.
//!
//! ```text
//! rodb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rows <n>]
//! rodb-benchmark --all [--seed <n>] [--seconds <s>] [--rows <n>]
//! rodb-benchmark --check-repeat [--seed <n>] [--seconds <s>] [--rows <n>]
//! rodb-benchmark --smoke
//! ```
//!
//! `--workload` is one run in this process; its last line on standard
//! output is the result as one JSON object. The other modes start one fresh
//! process per run, so no workload inherits another's heap or caches.

mod cells;
mod host;
mod ingest;
mod metrics;
mod oracle;
mod probes;
mod run;
mod scan;
mod service;
mod spans;
mod stairs;
mod stats;
mod tables;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use rodb::trace::Json;

use crate::cells::Path;
use crate::metrics::{Def, Values, END_TO_END, INGEST_ONLY, PER_LAYER, WORKLOADS};
use crate::run::{Args, Outcome};

/// The paper's tables at 1/1000 scale: LINEITEM is 9 MB per layout, more
/// than a core's L2 and less than memory.
const DEFAULT_ROWS: u64 = 60_000;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 18.0;

fn run_workload(args: &Args) -> Option<Outcome> {
    Some(match args.workload.as_str() {
        "row_scan" => scan::run(Path::Row, args),
        "col_scan_scalar" => scan::run(Path::ColScalar, args),
        "col_scan_fast" => scan::run(Path::ColFast, args),
        "service_mix" => service::run(args),
        "ingest_snapshot" => ingest::run(args),
        _ => return None,
    })
}

/// Where output files go: `benchmark/out` under the checkout root the
/// command is run from, or `out` when run from inside the package.
fn out_dir() -> PathBuf {
    let dir = if std::path::Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    };
    std::fs::create_dir_all(&dir).expect("output directory");
    dir
}

fn kind(trace: bool) -> &'static str {
    if trace {
        "traced"
    } else {
        "e2e"
    }
}

fn metrics_json(defs: &[Def], values: &Values) -> Json {
    let mut obj = Json::obj();
    for d in defs {
        if let Some(v) = values.get(d.name) {
            obj = obj.set(d.name, Json::obj().set("value", v).set("unit", d.unit));
        }
    }
    obj
}

/// One run in this process: print every metric by name with its unit, write
/// the output files, and end with the result line the driver reads.
fn single(args: &Args) -> ExitCode {
    let Some(mut out) = run_workload(args) else {
        eprintln!("unknown workload {:?}; known: {}", args.workload, names());
        return ExitCode::from(2);
    };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    for d in defs {
        match out.metrics.get(d.name) {
            Some(v) if v.is_finite() => {}
            // A layer the workload does not exercise reports zero work.
            _ if args.trace => out.metrics.set(d.name, 0.0),
            _ => {
                eprintln!(
                    "{}: end-to-end metric {} was not measured",
                    args.workload, d.name
                );
                return ExitCode::from(1);
            }
        }
    }

    let correct = out.check.failed == 0;
    println!(
        "== {} ({} run, seed {}, {} rows/table, {} s) ==",
        args.workload,
        kind(args.trace),
        args.seed,
        args.rows,
        args.seconds
    );
    for line in &out.report {
        println!("{line}");
    }
    for d in defs {
        let bound = d
            .bound
            .map_or(String::new(), |b| format!("  [bound {:.0}%]", b * 100.0));
        println!(
            "  {:<46} {:>16.6} {:<8} {} is better{bound}",
            d.name,
            out.metrics.get(d.name).unwrap_or(0.0),
            d.unit,
            d.better.name()
        );
    }
    for (name, v) in &out.extra.0 {
        let unit = INGEST_ONLY
            .iter()
            .find(|d| d.name == name)
            .map_or("", |d| d.unit);
        println!("  {name:<46} {v:>16.6} {unit}");
    }
    let failed_frac = out.check.failed as f64 / out.check.attempted.max(1) as f64;
    println!(
        "  {:<46} {failed_frac:>16.6} ({} of {} operations)",
        "failed_frac", out.check.failed, out.check.attempted
    );
    if let Some(why) = &out.check.first_failure {
        println!("  first failure: {why}");
    }

    let dir = out_dir();
    let mut extra = Json::obj();
    for (name, v) in &out.extra.0 {
        extra = extra.set(name, *v);
    }
    let mut samples = Json::obj();
    for (name, walls) in &out.samples {
        let ms: Vec<Json> = walls.iter().map(|s| Json::Num(s * 1e3)).collect();
        samples = samples.set(name, ms);
    }
    let doc = Json::obj()
        .set("workload", args.workload.as_str())
        .set("run", kind(args.trace))
        .set("seconds", args.seconds)
        .set("host", host::descriptor(args.rows, args.seed))
        .set("attempted", out.check.attempted)
        .set("failed", out.check.failed)
        .set("failed_frac", failed_frac)
        .set("metrics", metrics_json(defs, &out.metrics))
        .set("extra", extra)
        .set("samples_ms", samples);
    let file = dir.join(format!("{}_{}.json", args.workload, kind(args.trace)));
    std::fs::write(&file, doc.pretty()).expect("write result file");
    if let Some(spans) = out.spans.take() {
        let trace = Json::obj()
            .set("workload", args.workload.as_str())
            .set("host", host::descriptor(args.rows, args.seed))
            .set("spans", spans);
        let file = dir.join(format!("trace_{}.json", args.workload));
        std::fs::write(&file, trace.compact()).expect("write span file");
    }

    let result = Json::obj()
        .set("correct", correct)
        .set("attempted", out.check.attempted)
        .set("failed", out.check.failed)
        .set("metrics", metrics_json(defs, &out.metrics));
    println!("{}", result.compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn names() -> String {
    WORKLOADS.map(|(n, _)| n).join(", ")
}

/// Run one workload in a fresh process and read back its result file.
fn child(args: &Args, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--rows", &args.rows.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!(
            "{workload} ({} run) exited with {status}",
            kind(trace)
        ));
    }
    let file = out_dir().join(format!("{workload}_{}.json", kind(trace)));
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    Json::parse(&text)
}

/// `--all` / `--smoke`: the five workloads one after the other, each as an
/// end-to-end run and a traced run, gathered into one file.
fn all(args: &Args, file_name: &str) -> ExitCode {
    let mut workloads = Json::obj();
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let mut entry = Json::obj();
        for trace in [false, true] {
            match child(args, name, trace) {
                // The summary keeps the figures; raw samples stay in the
                // per-run files.
                Ok(Json::Obj(mut fields)) => {
                    fields.retain(|(k, _)| k != "samples_ms");
                    entry = entry.set(kind(trace), Json::Obj(fields));
                }
                Ok(_) => unreachable!("result files are objects"),
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
        workloads = workloads.set(name, entry);
    }
    let doc = Json::obj()
        .set("host", host::descriptor(args.rows, args.seed))
        .set("seconds", args.seconds)
        .set("workloads", workloads);
    let file = out_dir().join(file_name);
    std::fs::write(&file, doc.pretty()).expect("write summary file");
    println!("wrote {}", file.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn metric_of(doc: &Json, section: &str, name: &str) -> Option<f64> {
    let v = doc.get(section)?.get(name)?;
    v.get("value").unwrap_or(v).as_f64()
}

/// `--check-repeat`: the end-to-end set twice on the same code; every
/// metric's two values must agree within its own bound.
fn check_repeat(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut lines = Vec::new();
    for (name, _) in WORKLOADS {
        let pair: Vec<Json> = match (0..2).map(|_| child(args, name, false)).collect() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(1);
            }
        };
        let ingest_only = INGEST_ONLY.iter().map(|d| (d, "extra"));
        for (d, section) in END_TO_END.iter().map(|d| (d, "metrics")).chain(ingest_only) {
            let values: Vec<f64> = pair
                .iter()
                .filter_map(|doc| metric_of(doc, section, d.name))
                .collect();
            let [a, b] = values[..] else { continue };
            let bound = d.bound.expect("end-to-end metrics are bounded");
            let within = (b / a - 1.0).abs() <= bound;
            ok &= within;
            lines.push(format!(
                "{name:<16} {:<28} {a:>16.4} {b:>16.4} {:>8.4} {:>5.0}%  {}",
                d.name,
                b / a,
                bound * 100.0,
                if within { "ok" } else { "unresolved" }
            ));
        }
        for doc in &pair {
            ok &= doc.get("failed").and_then(Json::as_f64) == Some(0.0);
        }
    }
    println!(
        "{:<16} {:<28} {:>16} {:>16} {:>8} {:>6}",
        "workload", "metric", "first", "second", "ratio", "bound"
    );
    for l in lines {
        println!("{l}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rodb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rows <n>]\n\
         \x20      rodb-benchmark --all | --check-repeat | --smoke  [--seed <n>] [--seconds <s>] [--rows <n>]\n\
         workloads: {}",
        names()
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // Timing a debug build measures the wrong thing.
    if cfg!(debug_assertions) {
        eprintln!("rodb-benchmark was built with debug assertions; build with --release");
        return ExitCode::from(2);
    }
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        rows: DEFAULT_ROWS,
    };
    let mut mode = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| eprintln!("{flag} needs {what}"))
                .ok()
        };
        let parsed = match flag.as_str() {
            "--all" | "--check-repeat" | "--smoke" => {
                mode = Some(flag.clone());
                Some(())
            }
            "--workload" => value("a name").map(|v| args.workload = v),
            "--seed" => value("a number")
                .and_then(|v| v.parse().ok())
                .map(|v| args.seed = v),
            "--seconds" => value("a number")
                .and_then(|v| v.parse().ok())
                .filter(|s: &f64| *s > 0.0)
                .map(|v| args.seconds = v),
            "--rows" => value("a number")
                .and_then(|v| v.parse().ok())
                .filter(|r: &u64| *r >= 1000)
                .map(|v| args.rows = v),
            "--trace" => value("0 or 1")
                .and_then(|v| match v.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                })
                .map(|v| args.trace = v),
            _ => None,
        };
        if parsed.is_none() {
            eprintln!("bad argument {flag}");
            return usage();
        }
    }
    match mode.as_deref() {
        Some("--all") => all(&args, "BENCH.json"),
        Some("--check-repeat") => check_repeat(&args),
        Some("--smoke") => {
            args.rows = 2_000;
            args.seconds = 1.0;
            all(&args, "BENCH_smoke.json")
        }
        _ if !args.workload.is_empty() => single(&args),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.into(),
            seed: 7,
            seconds: 0.01,
            trace,
            rows: 1_000,
        }
    }

    /// Metrics that are counts made by the program, not timings.
    fn is_count(d: &Def) -> bool {
        d.unit == "count"
            || d.unit == "tier"
            || d.name.starts_with("cpu.modeled_")
            || d.name.starts_with("core.service.modeled_")
            || [
                "io.modeled_io_s",
                "io.cache_hit_rate",
                "core.ingest.write_amplification",
                "stored_bytes_per_user_byte",
            ]
            .contains(&d.name)
    }

    /// Both kinds of run pass the oracle, and every count repeats exactly.
    fn passes_and_repeats(name: &str) {
        for trace in [false, true] {
            let a = run_workload(&args(name, trace)).expect("known workload");
            let b = run_workload(&args(name, trace)).expect("known workload");
            assert_eq!(a.check.failed, 0, "{name}: {:?}", a.check.first_failure);
            assert!(a.check.attempted > 0);
            let defs = if trace { PER_LAYER } else { END_TO_END };
            for d in defs.iter().filter(|d| is_count(d)) {
                assert_eq!(
                    a.metrics.get(d.name),
                    b.metrics.get(d.name),
                    "{name}: {} differs between two runs",
                    d.name
                );
            }
            if trace {
                // One span per stair under one span per cell, all closed.
                let spans = a.spans.expect("traced runs keep spans");
                assert!(spans.as_arr().unwrap().iter().all(|s| {
                    s.get("end_ns").and_then(Json::as_f64)
                        >= s.get("start_ns").and_then(Json::as_f64)
                }));
            } else {
                for d in END_TO_END {
                    let v = a.metrics.get(d.name).unwrap_or(f64::NAN);
                    assert!(v.is_finite() && v > 0.0, "{name}: {} = {v}", d.name);
                }
            }
        }
    }

    #[test]
    fn row_scan_passes_and_repeats() {
        passes_and_repeats("row_scan");
    }

    #[test]
    fn col_scan_scalar_passes_and_repeats() {
        passes_and_repeats("col_scan_scalar");
    }

    #[test]
    fn col_scan_fast_passes_and_repeats() {
        passes_and_repeats("col_scan_fast");
    }

    #[test]
    fn service_mix_passes_and_repeats() {
        passes_and_repeats("service_mix");
    }

    #[test]
    fn ingest_snapshot_passes_and_repeats() {
        passes_and_repeats("ingest_snapshot");
    }

    #[test]
    fn unknown_workload_is_refused() {
        assert!(run_workload(&args("nope", false)).is_none());
    }
}
