//! Fuzzer CLI.
//!
//! ```text
//! cargo run -p rodb-fuzz --release -- --iters 10000                  # plain oracle diff
//! cargo run -p rodb-fuzz --release -- --iters 10000 --mode composed  # every axis drawn
//! cargo run -p rodb-fuzz -- --mode recovery --seed 1234              # replay one
//! ```
//!
//! Every failure prints the reproducing mode and seed; the exit code is
//! non-zero if any seed failed. `--json PATH` additionally writes a
//! one-object summary (mode, seed window, failing seeds, drained metrics
//! registry) for CI artifacts; `--trace-dir DIR` re-runs the sweep's first
//! seed with span tracing and saves both trace formats there.

use std::process::ExitCode;

use rodb_fuzz::Mode;
use rodb_trace::{Json, MetricsRegistry};

fn usage() -> ! {
    eprintln!(
        "usage: rodb-fuzz [--seed N | --start-seed N --iters N] [--mode MODE] [--json PATH] \
         [--trace-dir DIR]\n\
         \n\
         --seed N        run exactly one seed (replay a failure)\n\
         --start-seed N  first seed of a sweep (default 0)\n\
         --iters N       number of seeds to sweep (default 200)\n\
         --mode MODE     which projection of the axis space to run (default plain):\n\
         \x20 plain       {{serial,parallel}}x{{scalar,fast}} rows == oracle; merge join\n\
         \x20 faults      every page read damaged + Fail: Err(Corrupt) or a proven skip\n\
         \x20 recovery    mirrored Retry == oracle; Skip (100%, 15%) == oracle over survivors\n\
         \x20 cache       drawn cache geometry on/off, healthy and mirrored: same rows\n\
         \x20 concurrent  plan + drawn riders through the service: rows == solo runs\n\
         \x20 observe     service with a drawn window and deadline: books == outcomes\n\
         \x20 ingest      drawn insert/merge/crash schedule: recovery and reads == model\n\
         \x20 composed    every axis drawn independently (DESIGN.md, \"Model oracle\")\n\
         --json PATH     write a JSON summary of the sweep to PATH\n\
         --trace-dir DIR re-run the first seed traced; save span + Chrome trace JSON"
    );
    std::process::exit(2);
}

fn parse_u64(v: Option<String>) -> u64 {
    match v.as_deref().map(str::parse) {
        Some(Ok(n)) => n,
        _ => usage(),
    }
}

fn write_json(
    path: &str,
    mode: &str,
    first: u64,
    count: u64,
    failed: &[u64],
) -> std::io::Result<()> {
    let doc = Json::obj()
        .set("mode", mode)
        .set("start_seed", first)
        .set("iters", count)
        .set("failures", failed.len() as u64)
        .set(
            "failed_seeds",
            failed.iter().map(|&s| Json::from(s)).collect::<Vec<_>>(),
        )
        .set("metrics", MetricsRegistry::drain());
    std::fs::write(path, doc.pretty())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut seed: Option<u64> = None;
    let mut start: u64 = 0;
    let mut iters: u64 = 200;
    let mut mode = Mode::Plain;
    let mut json: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = Some(parse_u64(args.next())),
            "--start-seed" => start = parse_u64(args.next()),
            "--iters" => iters = parse_u64(args.next()),
            "--mode" => {
                mode = args
                    .next()
                    .and_then(|m| Mode::parse(&m))
                    .unwrap_or_else(|| usage())
            }
            "--json" => json = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-dir" => trace_dir = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let (first, count) = match seed {
        Some(s) => (s, 1),
        None => (start, iters),
    };
    let name = mode.name();

    let mut failed: Vec<u64> = Vec::new();
    for s in first..first.saturating_add(count) {
        if let Err(msg) = rodb_fuzz::run(mode, s) {
            failed.push(s);
            eprintln!("FAIL {msg}");
            eprintln!("  reproduce: cargo run -p rodb-fuzz -- --mode {name} --seed {s}");
        }
    }
    if let Some(dir) = &trace_dir {
        match rodb_fuzz::save_case_trace(first, mode, dir) {
            Ok(path) => println!("trace: {}", path.display()),
            Err(e) => eprintln!("warning: could not save trace: {e}"),
        }
    }
    if let Some(path) = &json {
        if let Err(e) = write_json(path, &name, first, count, &failed) {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
    if failed.is_empty() {
        println!("ok: {count} seed(s) from {first} clean ({name} mode)");
        ExitCode::SUCCESS
    } else {
        eprintln!("{}/{count} seed(s) failed ({name} mode)", failed.len());
        ExitCode::FAILURE
    }
}
