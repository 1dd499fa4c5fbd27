//! Tier-1 guard for the planes: the differential harness (`crates/fuzz`)
//! on a small seed window of every mode — oracle diff, fault injection,
//! recovery, cache, service, observability, ingest, and the composed draw.
//! CI sweeps 200 seeds per mode; this keeps `cargo test` at the root honest.

use rodb_fuzz::Mode;

#[test]
fn every_fuzz_mode_is_clean_on_seeds_0_to_40() {
    for mode in Mode::ALL {
        for seed in 0..40 {
            if let Err(failure) = rodb_fuzz::run(mode, seed) {
                panic!("{failure}");
            }
        }
    }
}
