//! The committed chaos repro artifact (`tests/fixtures/chaos_repro.json`)
//! must keep parsing as a valid `rtos-sld-chaos-repro/2` document (through
//! `bench::repro`, the artifact's one reader and writer): the
//! replayer (`chaos --repro PATH`) reconstructs a run from nothing but
//! this shape, so the fixture pins the artifact schema independently of
//! the feature-gated find-and-replay loop in `chaos_find.rs`. It was
//! written by `chaos --seeds 2` on a `chaos-bug` build, and replays only
//! on one.
//!
//! Repro artifacts written during investigations are scratch output and
//! stay untracked (see EXPERIMENTS.md, "Repro-artifact hygiene"); this
//! fixture is the one committed exemplar.

use bench::json::Json;
use bench::repro::{FailureKind, Repro};
use bench::scenario::Workload;

#[test]
fn committed_repro_fixture_has_the_replayable_shape() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/chaos_repro.json"
    ))
    .expect("fixture readable");
    let doc = Json::parse(&text).expect("fixture parses");
    // The replayer's own reader reconstructs the run from the fixture.
    let repro = Repro::from_json(&doc).expect("fixture is a valid repro artifact");
    assert_eq!(repro.spec.workload, Workload::VocoderUnscheduled);
    assert_eq!(repro.kind, FailureKind::Invariant);
    assert!(repro.spec.chaos.is_armed() && repro.spec.chaos.picks().is_empty());
    // Its writer renders the fixture back byte for byte.
    assert_eq!(repro.to_json().render(), text);
}
