//! The SLDL leaves the order of processes within a delta cycle
//! unspecified, so what a model computes must not depend on it. This
//! enumerates every same-delta dispatch schedule of the unscheduled
//! vocoder and requires one outcome across all of them. Kernel
//! self-metrics (resumes, context switches of SLDL processes) count the
//! order itself, so they are left out of the comparison.

use bench::scenario::{ScenarioSpec, Workload};
use sldl_sim::chaos::explore;

#[test]
fn unscheduled_vocoder_outcome_is_independent_of_same_delta_order() {
    let spec = ScenarioSpec::new("order", Workload::VocoderUnscheduled).frames(2);
    let mut fifo = None;
    let e = explore(8, |plan| {
        let (mut outcome, choices) = spec.clone().chaos(plan.clone()).run_with_choices();
        outcome.kernel_stats = None;
        let rendered = outcome.to_json().render();
        match &fifo {
            None => fifo = Some(rendered),
            Some(first) if *first != rendered => return Err(rendered),
            Some(_) => {}
        }
        Ok(choices)
    });
    assert!(e.schedules > 1, "no same-delta choice to make");
    if let Some((plan, rendered)) = &e.failure {
        panic!(
            "{:?} changes the outcome:\n{rendered}\nFIFO:\n{}",
            plan.picks(),
            fifo.unwrap_or_default()
        );
    }
    assert!(e.complete, "{} schedules, incomplete", e.schedules);
    assert!(fifo.is_some_and(|f| f.contains("\"completed\": true")));
}
