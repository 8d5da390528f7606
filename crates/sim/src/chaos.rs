//! Explicit same-delta dispatch schedules, their enumeration, and the
//! kernel invariant oracle.
//!
//! The [`FaultPlan`](crate::FaultPlan) layer injects *model-level*
//! anomalies (lost interrupts, WCET overruns). A [`ChaosPlan`] acts one
//! layer below, on a decision the SLDL leaves unspecified: which runnable
//! process of a delta cycle is dispatched first. A **choice point** is a
//! dispatch decision with two or more processes ready. A plan is a sparse
//! list of [`Pick`]s — at choice point *i*, dispatch ready-queue position
//! *p* — and every choice point it does not list takes the head of the
//! queue, as the unarmed kernel does. A run under a plan is still a pure
//! function of *(model, plans, seeds)* and replays exactly.
//!
//! An armed run logs every choice point it met in
//! [`Report::chaos`](crate::Report::chaos). That log is all [`explore`]
//! needs to enumerate the schedules of a model by replay (stateless
//! model checking): it runs every schedule once, in rounds of 0, 1, 2, …
//! non-FIFO picks, so the first failing schedule it meets has the fewest
//! non-FIFO picks and needs no shrinking.
//!
//! **Invariant:** [`ChaosPlan::none`] is not armed by the kernel at all
//! and leaves the simulation byte-identical to one with no plan
//! installed — the same structural guarantee
//! [`FaultPlan`](crate::FaultPlan) gives. An armed schedule with no
//! picks dispatches exactly as the unarmed kernel does; it only logs.
//!
//! ## The invariant oracle
//!
//! [`KernelInvariants`] selects internal consistency checks the kernel
//! evaluates at delta-flush and teardown boundaries (opt in via
//! [`SimulationBuilder::invariants`](crate::SimulationBuilder::invariants)).
//! A failed check surfaces as
//! [`RunError::InvariantViolation`](crate::RunError::InvariantViolation)
//! naming the invariant and the offending process/event. With no oracle
//! installed the checks cost nothing: the hook is an `Option` that stays
//! `None`.

use crate::ids::ProcessId;
use crate::time::SimTime;

/// One non-FIFO pick of a [`ChaosPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Pick {
    /// Index of the choice point (0-based, counting only dispatch
    /// decisions with two or more processes ready).
    pub choice: u64,
    /// Ready-queue position dispatched there (≥ 1; position 0 is the
    /// head, which every unlisted choice point takes).
    pub position: u32,
}

/// A same-delta dispatch schedule for the kernel.
///
/// Install on a simulation with
/// [`SimulationBuilder::chaos_plan`](crate::SimulationBuilder::chaos_plan);
/// an armed plan logs every choice point in
/// [`Report::chaos`](crate::Report::chaos).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    /// `None` when unarmed; otherwise the non-FIFO picks, sorted by
    /// choice point, one per choice point, positions ≥ 1.
    picks: Option<Vec<Pick>>,
}

impl ChaosPlan {
    /// The unarmed plan. Installing it is byte-identical to installing
    /// no plan at all.
    #[must_use]
    pub fn none() -> Self {
        ChaosPlan { picks: None }
    }

    /// An armed schedule making `picks`; every other choice point takes
    /// the head. The picks are put in choice-point order; a pick at
    /// position 0 is dropped (it is the default), and a choice point
    /// listed twice keeps its first pick. A position past the end of the
    /// ready queue dispatches its tail.
    #[must_use]
    pub fn schedule(picks: impl IntoIterator<Item = Pick>) -> Self {
        let mut picks: Vec<Pick> = picks.into_iter().filter(|p| p.position > 0).collect();
        picks.sort_by_key(|p| p.choice);
        picks.dedup_by_key(|p| p.choice);
        ChaosPlan { picks: Some(picks) }
    }

    /// Whether the kernel arms this plan (every plan but
    /// [`none`](Self::none)).
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.picks.is_some()
    }

    /// The schedule's non-FIFO picks in choice-point order (empty for
    /// the unarmed plan).
    #[must_use]
    pub fn picks(&self) -> &[Pick] {
        self.picks.as_deref().unwrap_or_default()
    }
}

/// One choice point of an armed run, as logged in
/// [`Report::chaos`](crate::Report::chaos).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChoicePoint {
    /// Simulated time of the dispatch decision.
    pub at: SimTime,
    /// Processes ready at the decision (≥ 2).
    pub ready: u32,
    /// Ready-queue position dispatched (0 = head).
    pub position: u32,
    /// The process dispatched.
    pub process: ProcessId,
}

/// Armed schedule state held by the kernel (crate internal).
#[derive(Debug)]
pub(crate) struct ChaosState {
    picks: Vec<Pick>,
    /// Index into `picks` of the next pick not yet made.
    next: usize,
    pub(crate) log: Vec<ChoicePoint>,
}

impl ChaosState {
    /// The kernel state for `plan`, or `None` if the plan is unarmed.
    pub(crate) fn arm(plan: ChaosPlan) -> Option<Self> {
        plan.picks.map(|picks| ChaosState {
            picks,
            next: 0,
            log: Vec::new(),
        })
    }

    /// The ready-queue position to dispatch at the next choice point
    /// (0 = head). The choice-point index is the length of the log, which
    /// gains one entry per choice point.
    pub(crate) fn position(&mut self) -> usize {
        let choice = self.log.len() as u64;
        match self.picks.get(self.next) {
            Some(p) if p.choice == choice => {
                self.next += 1;
                p.position as usize
            }
            _ => 0,
        }
    }
}

/// What [`explore`] found.
#[derive(Debug, Clone, PartialEq)]
pub struct Exploration<F> {
    /// Schedules run, the failing one included.
    pub schedules: u64,
    /// Whether every schedule was run: no failure stopped the
    /// enumeration, no schedule needed more than the cap's non-FIFO
    /// picks, and every run returned its choice-point log.
    pub complete: bool,
    /// The first failing schedule and its failure. No failing schedule
    /// has fewer non-FIFO picks.
    pub failure: Option<(ChaosPlan, F)>,
}

/// Enumerates the same-delta dispatch schedules of a model by replay.
///
/// `run` executes the model once under the given plan and returns its
/// choice-point log ([`Report::chaos`](crate::Report::chaos)), `None` if
/// the run ended without one (a model-level error), or `Err` if the run
/// failed. Round *k* runs every schedule with *k* non-FIFO picks, for
/// *k* = 0, 1, …, `cap`; a schedule's extensions pick at choice points
/// after its last pick, so each schedule is run exactly once. The
/// enumeration stops at the first failure.
pub fn explore<F>(
    cap: usize,
    mut run: impl FnMut(&ChaosPlan) -> Result<Option<Vec<ChoicePoint>>, F>,
) -> Exploration<F> {
    let mut schedules = 0;
    let mut complete = true;
    let mut round = vec![Vec::new()];
    for depth in 0..=cap {
        let mut next = Vec::new();
        for picks in round {
            let plan = ChaosPlan { picks: Some(picks) };
            schedules += 1;
            let log = match run(&plan) {
                Err(failure) => {
                    return Exploration {
                        schedules,
                        complete: false,
                        failure: Some((plan, failure)),
                    }
                }
                Ok(None) => {
                    complete = false;
                    continue;
                }
                Ok(Some(log)) => log,
            };
            let picks = plan.picks();
            let first = picks.last().map_or(0, |p| p.choice + 1);
            if log.len() as u64 <= first {
                continue;
            }
            if depth == cap {
                complete = false;
                continue;
            }
            for (choice, point) in (first..).zip(&log[first as usize..]) {
                for position in 1..point.ready {
                    let mut child = picks.to_vec();
                    child.push(Pick { choice, position });
                    next.push(child);
                }
            }
        }
        round = next;
    }
    Exploration {
        schedules,
        complete,
        failure: None,
    }
}

/// Selection of kernel self-checks evaluated at delta-flush and teardown
/// boundaries. All checks default to off; enable everything with
/// [`KernelInvariants::all`]. Violations fail the run with
/// [`RunError::InvariantViolation`](crate::RunError::InvariantViolation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelInvariants {
    /// The delta generation counter strictly increases across flushes
    /// (the O(1) dedup stamps depend on it).
    pub delta_monotonic: bool,
    /// Every event queued for the current delta is alive and carries the
    /// current generation stamp.
    pub event_consistency: bool,
    /// Teardown's cancellation unwinds every suspended process to the end
    /// of its body, so no process stack is left holding live frames.
    pub pool_quiescence: bool,
    /// A wait-for cycle reported at end of run is well formed (each
    /// edge's holder is the next edge's waiter).
    pub wait_graph_acyclic: bool,
}

impl KernelInvariants {
    /// Every check enabled.
    #[must_use]
    pub fn all() -> Self {
        KernelInvariants {
            delta_monotonic: true,
            event_consistency: true,
            pool_quiescence: true,
            wait_graph_acyclic: true,
        }
    }

    /// No check enabled (the default): installing this is identical to
    /// installing no oracle at all.
    #[must_use]
    pub fn none() -> Self {
        KernelInvariants::default()
    }

    /// Whether every check is off. An all-off oracle is not armed by the
    /// kernel, guaranteeing the zero-overhead invariant structurally.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        !(self.delta_monotonic
            || self.event_consistency
            || self.pool_quiescence
            || self.wait_graph_acyclic)
    }
}

/// Armed oracle state held by the kernel (crate internal).
#[derive(Debug)]
pub(crate) struct OracleState {
    pub(crate) checks: KernelInvariants,
    /// Generation observed at the previous delta flush, for the
    /// monotonicity check.
    pub(crate) last_flush_gen: u64,
}

impl OracleState {
    pub(crate) fn new(checks: KernelInvariants) -> Self {
        OracleState {
            checks,
            last_flush_gen: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pick(choice: u64, position: u32) -> Pick {
        Pick { choice, position }
    }

    /// A stand-in model whose choice points have the given ready-queue
    /// lengths whatever the picks.
    fn fixed(lens: &[u32]) -> Vec<ChoicePoint> {
        lens.iter()
            .map(|&ready| ChoicePoint {
                at: SimTime::ZERO,
                ready,
                position: 0,
                process: ProcessId(0),
            })
            .collect()
    }

    #[test]
    fn none_is_unarmed_and_schedules_are_normalised() {
        assert!(!ChaosPlan::none().is_armed());
        assert!(ChaosPlan::none().picks().is_empty());
        let fifo = ChaosPlan::schedule([]);
        assert!(fifo.is_armed() && fifo.picks().is_empty());
        let plan = ChaosPlan::schedule([pick(4, 1), pick(2, 0), pick(1, 2), pick(4, 3)]);
        assert_eq!(plan.picks(), [pick(1, 2), pick(4, 1)]);
    }

    #[test]
    fn state_makes_each_pick_at_its_choice_point() {
        let mut st = ChaosState::arm(ChaosPlan::schedule([pick(1, 2), pick(3, 1)])).unwrap();
        let mut got = Vec::new();
        for _ in 0..5 {
            let position = st.position();
            got.push(position);
            st.log.push(fixed(&[3])[0]);
        }
        assert_eq!(got, [0, 2, 0, 1, 0]);
        assert!(ChaosState::arm(ChaosPlan::none()).is_none());
    }

    #[test]
    fn explore_runs_every_schedule_once() {
        let mut seen = Vec::new();
        let e = explore(8, |plan| -> Result<_, ()> {
            seen.push(plan.picks().to_vec());
            Ok(Some(fixed(&[2, 3])))
        });
        // 2 × 3 orders of two independent choice points.
        assert_eq!((e.schedules, e.complete, e.failure), (6, true, None));
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 6);
        assert!(seen.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn explore_stops_at_the_cap_and_reports_incomplete() {
        let e = explore(1, |_| -> Result<_, ()> { Ok(Some(fixed(&[2, 3]))) });
        // Round 0: one schedule; round 1: 1 + 2 single picks.
        assert_eq!((e.schedules, e.complete), (4, false));
        let e = explore(8, |_| -> Result<_, ()> { Ok(None) });
        assert_eq!((e.schedules, e.complete), (1, false));
    }

    #[test]
    fn explore_returns_a_failure_with_the_fewest_picks() {
        let e = explore(8, |plan| {
            let picks = plan.picks();
            if picks.contains(&pick(2, 1)) {
                Err(picks.len())
            } else {
                Ok(Some(fixed(&[2, 2, 2])))
            }
        });
        let (plan, picked) = e.failure.expect("a failing schedule exists");
        assert_eq!(plan.picks(), [pick(2, 1)]);
        assert_eq!(picked, 1);
        assert!(!e.complete);
    }

    #[test]
    fn invariants_all_and_none() {
        assert!(KernelInvariants::none().is_empty());
        assert!(KernelInvariants::default().is_empty());
        assert!(!KernelInvariants::all().is_empty());
        assert!(!KernelInvariants {
            wait_graph_acyclic: true,
            ..KernelInvariants::none()
        }
        .is_empty());
    }
}
