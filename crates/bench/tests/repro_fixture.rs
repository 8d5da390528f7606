//! The committed chaos repro artifact (`tests/fixtures/chaos_repro.json`)
//! must keep parsing as a valid `rtos-sld-chaos-repro/1` document (through
//! `bench::repro`, the artifact's one reader and writer): the
//! replayer (`chaos --repro PATH`) reconstructs a run from nothing but
//! this shape, so the fixture pins the artifact schema independently of
//! the feature-gated find–shrink–replay loop in `chaos_shrink.rs`.
//!
//! Repro artifacts written during investigations are scratch output and
//! stay untracked (see EXPERIMENTS.md, "Repro-artifact hygiene"); this
//! fixture is the one committed exemplar.

use bench::json::Json;
use bench::repro::{FailureKind, Repro};

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
    assert_eq!(repro.workload, "vocoder");
    assert_eq!(repro.kind, FailureKind::Overtime);
    // Its writer renders the fixture back byte for byte.
    assert_eq!(repro.to_json().render(), text);
}
