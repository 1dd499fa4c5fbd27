//! Host descriptor recorded in every output file, and process memory.

use rodb::trace::Json;

use crate::tables::PAGE;

/// Where the numbers came from: enough to tell two files apart that were
/// measured on different machines, builds or inputs.
pub fn descriptor(rows: u64, seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj()
        .set("nproc", nproc)
        .set("kernel_tier", rodb::compress::active_tier().name())
        .set("rustc", env!("BENCH_RUSTC_VERSION"))
        .set("git_commit", git_commit().as_str())
        .set("rows", rows)
        .set("seed", seed)
        .set("page_size", PAGE)
}

/// The checked-out commit, read from `.git` without starting a process;
/// `unknown` outside a git checkout (the driver's checkouts are not one).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc` does
/// not provide it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
