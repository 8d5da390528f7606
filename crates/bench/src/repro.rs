//! The chaos repro artifact, schema `rtos-sld-chaos-repro/2`.
//!
//! When the `chaos` bin's matrix finds a failure, it writes the failing
//! run as a [`Repro`]: the [`ScenarioSpec`] that fails, in its canonical
//! JSON (workload, frames, faults and the same-delta dispatch schedule
//! included), its seed, and the failure. `chaos --repro PATH` replays it.
//! This module is the artifact's only writer ([`Repro::to_json`]) and
//! only reader ([`Repro::from_json`]); the replayer and `trace_lint` both
//! parse through it.

use crate::json::Json;
use crate::scenario::ScenarioSpec;

/// Artifact schema identifier.
pub const REPRO_SCHEMA: &str = "rtos-sld-chaos-repro/2";

/// What the torture sweep counts as a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The invariant oracle rejected the run
    /// (`RunError::InvariantViolation`).
    Invariant,
    /// The run panicked.
    Panicked,
    /// The point exceeded the wall-clock watchdog and was abandoned.
    Overtime,
}

impl FailureKind {
    /// Stable string form used in the artifact.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Invariant => "invariant",
            FailureKind::Panicked => "panicked",
            FailureKind::Overtime => "overtime",
        }
    }

    /// Parses [`as_str`](Self::as_str)'s form.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "invariant" => Some(FailureKind::Invariant),
            "panicked" => Some(FailureKind::Panicked),
            "overtime" => Some(FailureKind::Overtime),
            _ => None,
        }
    }
}

/// A fully specified, one-line-replayable failing run.
#[derive(Debug, Clone)]
pub struct Repro {
    /// The failing run, seed and dispatch schedule included.
    pub spec: ScenarioSpec,
    /// The failure the run reproduces.
    pub kind: FailureKind,
    /// The failure's message when it was found.
    pub message: String,
}

impl Repro {
    /// Renders the artifact.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(REPRO_SCHEMA)),
            ("seed", Json::U64(self.spec.seed)),
            (
                "failure",
                Json::obj([
                    ("kind", Json::str(self.kind.as_str())),
                    ("message", Json::str(&self.message)),
                ]),
            ),
            ("spec", self.spec.to_canonical_json()),
        ])
    }

    /// Parses an artifact, checking every replay coordinate.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or ill-typed field.
    pub fn from_json(doc: &Json) -> Result<Repro, String> {
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing `{key}`"));
        let schema = field("schema")?.as_str().unwrap_or_default();
        if schema != REPRO_SCHEMA {
            return Err(format!("unsupported schema `{schema}`"));
        }
        let seed = field("seed")?.as_u64().ok_or("seed must be a u64")?;
        let spec = ScenarioSpec::from_json(field("spec")?)?;
        if spec.seed != seed {
            return Err(format!("seed {seed} differs from spec.seed {}", spec.seed));
        }
        let failure = field("failure")?;
        let kind = failure
            .get("kind")
            .and_then(Json::as_str)
            .and_then(FailureKind::parse)
            .ok_or("failure.kind must be invariant|panicked|overtime")?;
        let message = failure
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        Ok(Repro {
            spec,
            kind,
            message,
        })
    }
}
