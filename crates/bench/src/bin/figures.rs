//! Writes every `results/` file: `cargo run --release -p rodb-bench --bin
//! figures` from the repository root. A figure that fails (a load error,
//! or a claim its numbers do not bear out) stops the run with its name and
//! the reason, and exit code 1.

use rodb_bench::figures::FIGURES;

fn main() {
    for (file, make) in FIGURES {
        let path = format!("results/{file}");
        if let Err(e) = make().and_then(|bytes| Ok(std::fs::write(&path, bytes)?)) {
            eprintln!("figures: {path}: {e}");
            std::process::exit(1);
        }
        println!("{path}");
    }
}
