//! The design lints run in tier-1. `ci/gates.sh` holds them, one function
//! per gate; here it must pass on the tree, and each gate must fire — alone
//! — on one planted offending line in a copy of the sources, and on a file
//! it names being renamed away (gates fail closed).

use std::path::{Path, PathBuf};
use std::process::Command;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Runs `ci/gates.sh` over the tree at `root`: the gates that fired, and the
/// script's output.
fn run_gates(root: &Path) -> (Vec<String>, String) {
    let out = Command::new("bash")
        .arg(root.join("ci/gates.sh"))
        .output()
        .expect("bash runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let fired: Vec<String> = text
        .lines()
        .filter_map(|l| l.strip_prefix("gate fired: "))
        .map(str::to_string)
        .collect();
    assert_eq!(out.status.success(), fired.is_empty(), "{text}");
    (fired, text)
}

#[test]
fn every_design_gate_passes() {
    let (fired, text) = run_gates(Path::new(ROOT));
    assert!(fired.is_empty(), "{text}");
}

/// One offending line per gate: the gate, the file, and the line put at
/// the top of that file (above any test module and outside any comment).
/// Each line is spelled in two halves, so this file trips no gate itself.
const PLANTS: [(&str, &str, &str); 12] = [
    (
        "No page-type constructor above storage",
        "crates/engine/src/lib.rs",
        concat!("fn planted() { ColumnPage", "::new(); }"),
    ),
    (
        "Scan primitives have one home",
        "crates/engine/src/scan_row.rs",
        concat!("fn planted() { block_", "calls(1); }"),
    ),
    (
        "The checksum has one home",
        "src/lib.rs",
        concat!("fn crc", "32_planted() {}"),
    ),
    (
        "unsafe lives in named files",
        "crates/engine/src/lib.rs",
        concat!("uns", "afe fn planted() {}"),
    ),
    (
        "An accounted field has one home",
        "crates/engine/src/traced.rs",
        concat!("fn planted() { let se", "eks = 0; }"),
    ),
    (
        "A design is priced in one place",
        "crates/core/src/lib.rs",
        concat!("struct Advisor", "Goal;"),
    ),
    (
        "A codec is written once",
        "crates/engine/src/scan_col.rs",
        concat!("fn planted() { Codec::", "BitPack; }"),
    ),
    (
        "One executor core",
        "crates/engine/src/lib.rs",
        concat!("struct Query", "Job;"),
    ),
    (
        "One scan entry point",
        "crates/core/src/lib.rs",
        concat!("fn planted() { RowScanner", "::new(); }"),
    ),
    (
        "One grouping rule",
        "crates/engine/src/agg.rs",
        concat!("fn planted() { install_", "partial(); }"),
    ),
    (
        "No idle plane",
        "crates/types/src/lib.rs",
        concat!("fn with_", "ingest() {}"),
    ),
    (
        "Result rows stay blocks",
        "crates/core/src/lib.rs",
        concat!("fn planted() { to_", "rows(); }"),
    ),
];

/// A file a gate names, renamed away: that gate must fire, name the file,
/// and be the only one to fire.
const RENAMES: [(&str, &str); 2] = [
    (
        "An accounted field has one home",
        "crates/engine/src/traced.rs",
    ),
    ("One grouping rule", "crates/engine/src/agg.rs"),
];

/// One run of the gates over a copy of the sources.
#[derive(Clone, Copy)]
enum Case {
    /// The copy as it is: every gate passes.
    Clean,
    /// `(gate, file, line)`: the line put at the top of the file.
    Plant(&'static str, &'static str, &'static str),
    /// `(gate, file)`: the file moved to `<stem>_renamed.rs`.
    Rename(&'static str, &'static str),
}

/// Copies `from` into `to`, leaving out build output (`target/`).
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let (src, dst) = (entry.path(), to.join(entry.file_name()));
        if entry.file_type().unwrap().is_dir() {
            if entry.file_name() != "target" {
                copy_tree(&src, &dst);
            }
        } else {
            std::fs::copy(&src, &dst).unwrap();
        }
    }
}

/// A private copy of what the gates read: the script and the sources.
fn copy_sources(to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    for dir in ["ci", "crates", "src", "tests", "examples"] {
        copy_tree(&Path::new(ROOT).join(dir), &to.join(dir));
    }
}

/// Runs the gates over the copy at `root` as `case` changes it, and puts
/// the copy back: a clean copy must pass every gate, a plant must fire its
/// gate and no other, and a rename must too, naming the missing file.
/// `Some` says what went wrong.
fn check(root: &Path, case: Case) -> Option<String> {
    match case {
        Case::Clean => {
            let (fired, text) = run_gates(root);
            (!fired.is_empty()).then(|| format!("the unplanted copy fires {fired:?}:\n{text}"))
        }
        Case::Plant(gate, file, line) => {
            let path = root.join(file);
            let kept = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, format!("{line}\n{kept}")).unwrap();
            let (fired, text) = run_gates(root);
            std::fs::write(&path, kept).unwrap();
            (fired != [gate])
                .then(|| format!("`{line}` in {file} fires {fired:?}, not [{gate:?}]:\n{text}"))
        }
        Case::Rename(gate, file) => {
            let path = root.join(file);
            let moved = path.with_file_name(format!(
                "{}_renamed.rs",
                path.file_stem().unwrap().to_string_lossy()
            ));
            std::fs::rename(&path, &moved).unwrap();
            let (fired, text) = run_gates(root);
            std::fs::rename(&moved, &path).unwrap();
            let named = text.contains(&format!("missing path: {file}"));
            (fired != [gate] || !named).then(|| {
                format!("renaming {file} fires {fired:?}, not [{gate:?}] naming it:\n{text}")
            })
        }
    }
}

#[test]
fn each_gate_fires_alone_on_its_planted_line() {
    // Three copies, one per worker: each run of the script spawns a few
    // hundred short processes, so the cases share the cores.
    const WORKERS: usize = 3;
    let cases: Vec<Case> = std::iter::once(Case::Clean)
        .chain(PLANTS.map(|(gate, file, line)| Case::Plant(gate, file, line)))
        .chain(RENAMES.map(|(gate, file)| Case::Rename(gate, file)))
        .collect();
    let failures: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let cases = &cases;
                s.spawn(move || {
                    let root: PathBuf =
                        std::env::temp_dir().join(format!("rodb-gates-{}-{w}", std::process::id()));
                    copy_sources(&root);
                    let failed: Vec<String> = cases
                        .iter()
                        .skip(w)
                        .step_by(WORKERS)
                        .filter_map(|&case| check(&root, case))
                        .collect();
                    std::fs::remove_dir_all(&root).unwrap();
                    failed
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
