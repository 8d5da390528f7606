//! Communication-refinement equivalence and determinism suite: the
//! zero-latency bus must be observationally identical to the abstract
//! (pre-refinement) communication for **every** encoder/decoder
//! placement, the `comm_sweep` results document must match its committed
//! golden byte for byte at any `--jobs`, and contention must grow
//! monotonically as the bus narrows.

use std::path::PathBuf;
use std::process::Command;

use bench::farm::derive_seed;
use bench::scenario::{ScenarioSpec, Workload};
use sldl_sim::bus::Arbitration;

/// A zero-latency (ideal) split workload with the given placement.
fn ideal_split(enc_pe: usize, dec_pe: usize) -> Workload {
    Workload::VocoderSplit {
        clock_ns: 0,
        width: 0,
        setup_ns: 0,
        arbitration: Arbitration::FixedPriority,
        enc_pe,
        dec_pe,
    }
}

#[test]
fn zero_latency_placements_reproduce_the_single_pe_model() {
    // Every placement of the encoder and decoder across the two PEs —
    // split, swapped, and both co-located on either PE — exhaustively
    // covers the mapping space the refinement pass randomizes over.
    // With the ideal bus, refinement must be purely structural: the
    // functional results (frame count, decoded-signal quality) match
    // the single-PE architecture model exactly.
    for round in 0..2u64 {
        let seed = derive_seed(0x3A9, round);
        let frames = 2 + round as usize;
        let reference = ScenarioSpec::new("single_pe", Workload::VocoderArchitecture)
            .frames(frames)
            .run_seeded(seed);
        assert!(reference.completed, "{}", reference.status);
        for (enc_pe, dec_pe) in [(0, 1), (1, 0), (0, 0), (1, 1)] {
            let split = ScenarioSpec::new(
                format!("enc{enc_pe}_dec{dec_pe}"),
                ideal_split(enc_pe, dec_pe),
            )
            .frames(frames)
            .run_seeded(seed);
            assert!(split.completed, "enc{enc_pe}_dec{dec_pe}: {}", split.status);
            for metric in ["frames", "mean_snr_db"] {
                assert_eq!(
                    split.metric(metric),
                    reference.metric(metric),
                    "enc{enc_pe}_dec{dec_pe} seed {seed}: `{metric}` diverged \
                     from the single-PE model under the zero-latency bus"
                );
            }
            // And the ideal bus really is ideal: transfers happen, but
            // they cost nothing and nobody ever waits.
            assert!(split.metric("bus_transactions").unwrap() > 0.0);
            assert_eq!(split.metric("bus_busy_us"), Some(0.0));
            assert_eq!(split.metric("bus_max_wait_us"), Some(0.0));
            assert_eq!(split.metric("bus_contended"), Some(0.0));
        }
    }
}

#[test]
fn split_outcome_is_deterministic_per_placement() {
    for (enc_pe, dec_pe) in [(0, 1), (1, 1)] {
        let spec = ScenarioSpec::new("det", ideal_split(enc_pe, dec_pe)).frames(2);
        let a = spec.run_seeded(13);
        let b = spec.run_seeded(13);
        assert!(a.completed, "{}", a.status);
        assert_eq!(a.metrics, b.metrics, "enc{enc_pe}_dec{dec_pe}");
        assert_eq!(a.to_json().render(), b.to_json().render());
    }
}

/// The `comm_sweep` document is simulated-time only, so it is gated on
/// exact bytes: the default run at `--jobs 1` and `--jobs 4` must both
/// reproduce the committed golden. Any change to bus timing, arbitration
/// or the split-PE model moves some metric and fails here. Regenerate
/// alongside an intentional change with
/// `cargo run -p bench --bin comm_sweep -- -q --json
/// crates/bench/tests/golden/comm_sweep_default.json`.
#[test]
fn comm_sweep_json_is_jobs_invariant() {
    let exe = env!("CARGO_BIN_EXE_comm_sweep");
    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/comm_sweep_default.json");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("golden {}: {e}", golden_path.display()));
    for jobs in ["1", "4"] {
        let path: PathBuf = std::env::temp_dir().join(format!(
            "comm-determinism-{}-j{jobs}.json",
            std::process::id()
        ));
        let status = Command::new(exe)
            .args(["--jobs", jobs, "-q"])
            .arg("--json")
            .arg(&path)
            .status()
            .expect("comm_sweep runs");
        assert!(
            status.success(),
            "comm_sweep --jobs {jobs} failed: {status}"
        );
        let got = std::fs::read_to_string(&path).expect("json written");
        let _ = std::fs::remove_file(&path);
        for (line, (have, want)) in got.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                have,
                want,
                "comm_sweep --jobs {jobs} diverged from {} at line {}",
                golden_path.display(),
                line + 1
            );
        }
        assert!(
            got == golden,
            "comm_sweep --jobs {jobs}: {} lines, golden has {}",
            got.lines().count(),
            golden.lines().count()
        );
    }
}

#[test]
fn contention_is_monotone_as_the_bus_narrows() {
    // The acceptance shape of the comm sweep, asserted in-process: for a
    // fixed arbitration policy, bus busy time and max grant wait never
    // shrink as the width drops, and the narrowest bus does contend.
    // Same fast-DSP scaling as the comm_sweep bin — with the original
    // codec timing every transfer hides inside the encoder compute.
    for arb in [Arbitration::FixedPriority, Arbitration::RoundRobin] {
        let mut prev_busy = -1.0f64;
        let mut prev_wait = -1.0f64;
        let mut last_contended = 0.0;
        for width in [32u32, 8, 2, 1] {
            let o = ScenarioSpec::new(
                format!("w{width}"),
                Workload::VocoderSplit {
                    clock_ns: 500,
                    width,
                    setup_ns: 2_000,
                    arbitration: arb,
                    enc_pe: 0,
                    dec_pe: 1,
                },
            )
            .timing_scale(0.002)
            .frames(4)
            .run_seeded(21);
            assert!(o.completed, "w{width}: {}", o.status);
            let busy = o.metric("bus_busy_us").unwrap();
            let wait = o.metric("bus_max_wait_us").unwrap();
            assert!(
                busy >= prev_busy,
                "{}: busy shrank from {prev_busy} to {busy} at width {width}",
                arb.as_str()
            );
            assert!(
                wait >= prev_wait,
                "{}: max wait shrank from {prev_wait} to {wait} at width {width}",
                arb.as_str()
            );
            prev_busy = busy;
            prev_wait = wait;
            last_contended = o.metric("bus_contended").unwrap();
        }
        assert!(
            last_contended > 0.0,
            "{}: the width-1 bus never contended",
            arb.as_str()
        );
    }
}
