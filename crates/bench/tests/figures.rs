//! `results/` is current: every figure regenerates byte for byte, and the
//! directory holds exactly the files [`FIGURES`] names, so a stale artifact
//! that nothing regenerates fails here too.
//!
//! The text figures run on two threads. A JSON figure snapshots the
//! process-wide metrics registry, so the two JSON figures run after them,
//! one at a time, with no other query in the process.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use rodb_bench::figures::{Figure, FIGURES};

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// `None` if the figure makes exactly the bytes of its `results/` file,
/// else what differs.
fn stale(&(file, make): &Figure) -> Option<String> {
    let fresh = make().unwrap_or_else(|e| panic!("{file}: {e}"));
    let path = results_dir().join(file);
    let kept = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    (fresh != kept).then(|| {
        let line = fresh
            .lines()
            .zip(kept.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(fresh.lines().count().min(kept.lines().count()));
        format!(
            "results/{file} differs from its figure at line {}",
            line + 1
        )
    })
}

#[test]
fn every_figure_regenerates_results_byte_for_byte() {
    let (json, text): (Vec<_>, Vec<_>) = FIGURES.iter().partition(|(f, _)| f.ends_with(".json"));
    let next = AtomicUsize::new(0);
    let mut failed: Vec<String> = std::thread::scope(|s| {
        let workers = [(); 2].map(|()| {
            s.spawn(|| {
                std::iter::from_fn(|| text.get(next.fetch_add(1, Ordering::Relaxed)))
                    .filter_map(|&f| stale(f))
                    .collect::<Vec<_>>()
            })
        });
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    failed.extend(json.into_iter().filter_map(stale));
    assert!(
        failed.is_empty(),
        "{}\nregenerate with `cargo run --release -p rodb-bench --bin figures`",
        failed.join("\n")
    );
}

/// Every file under `dir`, as a path relative to `results/`, except the
/// git-ignored `results/traces/` that `QueryTrace::save` writes by default.
fn files_under(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.strip_prefix(results_dir()).unwrap();
        if path.is_dir() {
            if name != Path::new("traces") {
                files_under(&path, out);
            }
        } else {
            out.insert(name.to_string_lossy().into_owned());
        }
    }
}

#[test]
fn results_holds_exactly_the_registered_files() {
    let named: BTreeSet<String> = FIGURES.iter().map(|(f, _)| f.to_string()).collect();
    assert_eq!(named.len(), FIGURES.len(), "a file is named twice");
    let mut present = BTreeSet::new();
    files_under(&results_dir(), &mut present);
    assert_eq!(
        present, named,
        "results/ must hold exactly the figures' files"
    );
}
