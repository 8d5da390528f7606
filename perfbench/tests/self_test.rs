//! The benchmark's own gate must trip on injected defects: a wrong
//! reference value must fail a unit, and a scribbled cache entry must be
//! counted corrupt and fail its pass. A held-out seed must pass on the
//! invariants alone.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use perfbench::report::Outcome;
use perfbench::spans::Spans;
use perfbench::sweep::run_sweep_workload;
use perfbench::workloads::{Kind, Opts, DEFAULT_SEED};

fn opts(kind: Kind, seed: u64, test: &str) -> Opts {
    let reference = if seed == DEFAULT_SEED {
        perfbench::reference::lines(kind)
    } else {
        Vec::new()
    };
    Opts {
        kind,
        seed,
        measure: Duration::from_millis(200),
        trace: false,
        reference,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test),
    }
}

fn run(opts: &Opts) -> Outcome {
    perfbench::run(opts, Instant::now())
}

#[test]
fn every_workload_matches_its_reference_on_the_default_seed() {
    for kind in Kind::ALL {
        let o = opts(kind, DEFAULT_SEED, "reference");
        assert!(
            !o.reference.is_empty(),
            "{} has no recorded reference",
            kind.name()
        );
        let out = run(&o);
        assert!(out.attempted > 0, "{}", kind.name());
        assert_eq!(out.failed, 0, "{}: {:?}", kind.name(), out.failures);
    }
}

#[test]
fn a_wrong_reference_value_fails_the_unit() {
    for kind in [
        Kind::VocoderArch,
        Kind::TasksetEdf,
        Kind::IssImpl,
        Kind::Sweep,
    ] {
        let mut o = opts(kind, DEFAULT_SEED, "wrong_reference");
        // One digit of the first unit's recorded statistics, changed.
        let line = &mut o.reference[0];
        let at = line.find(|c: char| c.is_ascii_digit()).expect("a digit");
        let digit = line.as_bytes()[at];
        line.replace_range(at..=at, if digit == b'9' { "8" } else { "9" });
        let out = run(&o);
        assert!(
            out.failed >= 1,
            "{}: wrong reference went unnoticed",
            kind.name()
        );
        assert!(
            out.failures.iter().any(|f| f.contains("reference")),
            "{}: {:?}",
            kind.name(),
            out.failures
        );
    }
}

fn scribble_one_entry(dir: &Path) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("cache directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    std::fs::write(&entries[0], b"\x00garbage{").expect("entry is writable");
}

#[test]
fn a_scribbled_cache_entry_is_counted_corrupt_and_fails_the_pass() {
    let o = opts(Kind::Sweep, 7, "scribble");
    let mut out = Outcome::default();
    run_sweep_workload(
        &o,
        Instant::now(),
        &Spans::new(false),
        &mut out,
        &mut scribble_one_entry,
    );
    assert!(out.metrics["cache.corrupt"] >= 1.0, "{:?}", out.metrics);
    assert!(out.failed >= 1);
    assert!(
        out.failures.iter().any(|f| f.contains("corrupt")),
        "{:?}",
        out.failures
    );
}

#[test]
fn a_held_out_seed_passes_the_invariants() {
    for kind in Kind::ALL {
        let o = opts(kind, 7, "held_out");
        assert!(o.reference.is_empty());
        let out = run(&o);
        assert!(out.attempted > 0, "{}", kind.name());
        assert_eq!(out.failed, 0, "{}: {:?}", kind.name(), out.failures);
    }
}

/// The results document and the span trace go through the repository's
/// writers, so its `trace_lint` accepts them.
#[test]
fn outputs_pass_trace_lint() {
    let mut o = opts(Kind::VocoderArch, DEFAULT_SEED, "lint");
    o.trace = true;
    let out = run(&o);
    assert_eq!(out.failed, 0, "{:?}", out.failures);
    let files = ["vocoder_arch-layers.json", "vocoder_arch-spans.json"].map(|f| o.out_dir.join(f));
    let status = std::process::Command::new(env!("CARGO"))
        .args([
            "run",
            "--quiet",
            "--offline",
            "--release",
            "--manifest-path",
        ])
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
        .args(["-p", "bench", "--bin", "trace_lint", "--"])
        .args(&files)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "trace_lint rejected {files:?}");
}
