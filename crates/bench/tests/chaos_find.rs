//! End-to-end validation of the chaos torture loop against the
//! test-only injected kernel bug (`--features chaos-bug`): the matrix
//! must *find* the bug at zero non-FIFO picks, in a notify-drop cell, and
//! the emitted artifact must replay.
//!
//! The whole suite is feature-gated: without `chaos-bug` the kernel is
//! healthy and there is nothing to find.
#![cfg(feature = "chaos-bug")]

use std::path::PathBuf;
use std::process::Command;

use bench::json::Json;
use bench::repro::{FailureKind, Repro};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chaos-find-{}-{name}", std::process::id()))
}

#[test]
fn injected_bug_is_found_at_zero_picks_and_replays() {
    let exe = env!("CARGO_BIN_EXE_chaos");
    let json_out = tmp("doc.json");
    let repro_out = tmp("repro.json");

    // 1. The torture matrix finds the injected bug (nonzero exit).
    let status = Command::new(exe)
        .args(["--seeds", "2", "-q", "--json"])
        .arg(&json_out)
        .arg("--repro-out")
        .arg(&repro_out)
        .status()
        .expect("chaos bin runs");
    assert_eq!(
        status.code(),
        Some(1),
        "chaos matrix must detect the injected kernel bug and exit 1"
    );

    // 2. The results document is well-formed, and the artifact is the
    //    FIFO schedule of a drop cell: the bug needs a dropped
    //    notification, not a reordering.
    let doc =
        Json::parse(&std::fs::read_to_string(&json_out).expect("doc written")).expect("doc parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("rtos-sld-bench/1")
    );
    let repro = Repro::from_json(
        &Json::parse(&std::fs::read_to_string(&repro_out).expect("repro written"))
            .expect("repro parses"),
    )
    .expect("artifact is a valid rtos-sld-chaos-repro/2 document");
    assert_eq!(
        repro.kind,
        FailureKind::Invariant,
        "the injected bug must surface through the invariant oracle"
    );
    assert!(
        repro.spec.chaos.is_armed() && repro.spec.chaos.picks().is_empty(),
        "found at {:?}, not at zero non-FIFO picks",
        repro.spec.chaos.picks()
    );
    assert!(
        repro.spec.faults.drop_notify > 0.0,
        "{:?}",
        repro.spec.faults
    );

    // 3. The artifact replays: the failure reproduces from nothing but
    //    the recorded spec.
    let status = Command::new(exe)
        .args(["--repro"])
        .arg(&repro_out)
        .arg("-q")
        .status()
        .expect("chaos replay runs");
    assert_eq!(
        status.code(),
        Some(0),
        "repro artifact failed to reproduce the failure"
    );

    let _ = std::fs::remove_file(&json_out);
    let _ = std::fs::remove_file(&repro_out);
}
