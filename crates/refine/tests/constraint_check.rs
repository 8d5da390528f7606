//! Design-space-exploration tests: timing constraints accept or reject
//! architecture-model candidates automatically — the paper's "evaluate a
//! potential system design (e.g. in respect to timing constraints)".

use std::time::Duration;

use model_refine::{
    check, figure3_spec, run_architecture, run_unscheduled, Constraint, Figure3Delays, RunConfig,
};
use rtos_model::{SchedAlg, TimeSlice};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// An interrupt-response budget of 100 µs on B3's `d3`.
fn irq_budget() -> Constraint {
    Constraint::ResponseWithin {
        marker_track: "bus_irq".into(),
        track: "task_b3".into(),
        label: "d3".into(),
        max: us(100),
    }
}

#[test]
fn whole_delay_candidate_misses_the_interrupt_budget() {
    // Under whole-delay preemption modeling, B3's d3 starts 250 µs after
    // the interrupt (the t4 → t4' delay): the candidate is rejected.
    let spec = figure3_spec(&Figure3Delays::default());
    let run = run_architecture(
        &spec,
        SchedAlg::PriorityPreemptive,
        TimeSlice::WholeDelay,
        &RunConfig::default(),
    )
    .unwrap();
    let violations = check(&run, &[irq_budget()]);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].message.contains("250"), "{}", violations[0]);
}

#[test]
fn sliced_candidate_meets_the_interrupt_budget() {
    // With 50 µs preemption slices the response is 0 µs: accepted. This is
    // the design-exploration loop the checker exists for.
    let spec = figure3_spec(&Figure3Delays::default());
    let run = run_architecture(
        &spec,
        SchedAlg::PriorityPreemptive,
        TimeSlice::Quantum(us(50)),
        &RunConfig::default(),
    )
    .unwrap();
    assert!(check(&run, &[irq_budget()]).is_empty());
}

#[test]
fn only_fine_preemptive_slices_meet_a_60us_budget() {
    // The interrupt arrives at 800 µs, inside B2's d6 (from 750 µs): 25 µs
    // preemptive slices dispatch B3's d3 at the 800 µs boundary, while
    // FIFO never preempts d6 at any slice length.
    let spec = figure3_spec(&Figure3Delays::default());
    let budget = Constraint::ResponseWithin {
        marker_track: "bus_irq".into(),
        track: "task_b3".into(),
        label: "d3".into(),
        max: us(60),
    };
    let violations = |alg| {
        let run = run_architecture(
            &spec,
            alg,
            TimeSlice::Quantum(us(25)),
            &RunConfig::default(),
        )
        .unwrap();
        check(&run, std::slice::from_ref(&budget))
    };
    assert!(violations(SchedAlg::PriorityPreemptive).is_empty());
    assert_eq!(violations(SchedAlg::Fifo).len(), 1);
}

#[test]
fn no_overlap_rejects_the_unscheduled_model_and_accepts_the_refined_one() {
    let spec = figure3_spec(&Figure3Delays::default());
    let c = Constraint::NoOverlap {
        tracks: vec!["task_b2".into(), "task_b3".into()],
    };
    let unsched = run_unscheduled(&spec, &RunConfig::default()).unwrap();
    assert_eq!(check(&unsched, std::slice::from_ref(&c)).len(), 1);
    let arch = run_architecture(
        &spec,
        SchedAlg::PriorityPreemptive,
        TimeSlice::WholeDelay,
        &RunConfig::default(),
    )
    .unwrap();
    assert!(check(&arch, &[c]).is_empty());
}

#[test]
fn segment_latency_flags_stretched_segments() {
    // In the sliced architecture model, B2's d6 is preempted mid-delay, so
    // some d6 *slice* segments are short; check the whole-delay model where
    // d6 is one 300 µs segment against a 200 µs budget.
    let spec = figure3_spec(&Figure3Delays::default());
    let run = run_architecture(
        &spec,
        SchedAlg::PriorityPreemptive,
        TimeSlice::WholeDelay,
        &RunConfig::default(),
    )
    .unwrap();
    let violations = check(
        &run,
        &[Constraint::SegmentLatency {
            track: "task_b2".into(),
            label: "d6".into(),
            max: us(200),
        }],
    );
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].constraint, 0);
}

#[test]
fn periodic_starts_accepts_regular_and_rejects_jittery_schedules() {
    use model_refine::{Action, Behavior, PeSpec, SystemSpec};
    use std::collections::HashMap;

    // A lone periodic task is perfectly regular.
    let mut spec = SystemSpec::new();
    spec.add_pe(PeSpec {
        name: "pe".into(),
        root: Behavior::periodic("tick", us(500), 6, vec![Action::compute("w", us(100))]),
        priorities: HashMap::new(),
    });
    let run = run_architecture(
        &spec,
        SchedAlg::Rms,
        TimeSlice::WholeDelay,
        &RunConfig::default(),
    )
    .unwrap();
    let regular = Constraint::PeriodicStarts {
        track: "tick".into(),
        label: "w".into(),
        period: us(500),
        jitter: us(0),
    };
    assert!(check(&run, std::slice::from_ref(&regular)).is_empty());

    // An impossible tighter period is rejected for every gap.
    let too_fast = Constraint::PeriodicStarts {
        track: "tick".into(),
        label: "w".into(),
        period: us(400),
        jitter: us(10),
    };
    assert_eq!(check(&run, &[too_fast]).len(), 5);
}

#[test]
fn missing_response_is_reported() {
    // A budget on a label that never executes reports "no response".
    let spec = figure3_spec(&Figure3Delays::default());
    let run = run_architecture(
        &spec,
        SchedAlg::PriorityPreemptive,
        TimeSlice::WholeDelay,
        &RunConfig::default(),
    )
    .unwrap();
    let violations = check(
        &run,
        &[Constraint::ResponseWithin {
            marker_track: "bus_irq".into(),
            track: "task_b3".into(),
            label: "nonexistent".into(),
            max: us(100),
        }],
    );
    assert_eq!(violations.len(), 1);
    assert!(violations[0].message.contains("no "), "{}", violations[0]);
}
