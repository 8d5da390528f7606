//! Deterministic, seeded fault injection for robustness studies.
//!
//! A [`FaultPlan`] describes *which* anomalies the kernel should inject
//! and *how often*; the kernel consults it at three hook points:
//!
//! * **Delay perturbation** — [`ProcCtx::perturb_delay`] stretches a delay
//!   annotation (modeling WCET jitter / execution-time overruns). The RTOS
//!   model routes every `time_wait` through this hook, so only *computation*
//!   delays are perturbed, never the pure passage of time between periodic
//!   releases.
//! * **Notification faults** — [`ProcCtx::notify`] may drop the
//!   notification (a lost interrupt/event) or duplicate it into the next
//!   delta cycle (a double-latched interrupt).
//! * **Spurious releases** — whenever simulated time advances, registered
//!   events may fire spuriously (glitching interrupt lines).
//!
//! All decisions are drawn from per-category [`SmallRng`] streams forked
//! from the plan seed, so a run is a pure function of *(model, plan)* and
//! a given fault sequence can be replayed exactly.
//!
//! **Invariant:** an empty plan ([`FaultPlan::none`], or any plan whose
//! rates are all zero and which registers no spurious events) leaves the
//! simulation *byte-identical* to one with no plan installed: the hooks
//! draw no randomness, append no log records and change no kernel
//! scheduling state. `crates/sim/tests/fault_prop.rs` pins this down.
//!
//! Faults perturb the *model* (what the simulated system observes). The
//! companion [`ChaosPlan`](crate::ChaosPlan) in [`crate::chaos`] sets
//! the *kernel's* choices (which runnable process is dispatched first);
//! the two compose freely, and a chaos plan draws no randomness.
//!
//! [`ProcCtx::perturb_delay`]: crate::ProcCtx::perturb_delay
//! [`ProcCtx::notify`]: crate::ProcCtx::notify

use std::time::Duration;

use crate::ids::EventId;
use crate::rng::SmallRng;
use crate::time::SimTime;

/// WCET jitter configuration: with probability `probability`, a perturbed
/// delay is stretched by a uniform factor in `[1, max_stretch]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WcetJitter {
    /// Per-delay probability of injecting a stretch.
    pub probability: f64,
    /// Maximum stretch factor (e.g. `2.0` = up to a 2× WCET overrun).
    pub max_stretch: f64,
}

/// A spurious-release registration: `event` fires spuriously with
/// `probability` at every advance of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpuriousRelease {
    /// The event to glitch.
    pub event: EventId,
    /// Per-time-advance probability of a spurious notification.
    pub probability: f64,
}

/// A seeded description of the anomalies to inject into a run.
///
/// Install on a simulation with
/// [`SimulationBuilder::fault_plan`](crate::SimulationBuilder::fault_plan);
/// injections performed during the run are logged in
/// [`Report::faults`](crate::Report::faults).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Delay-annotation jitter (WCET overruns), if enabled.
    pub wcet: Option<WcetJitter>,
    /// Probability that a `notify` is silently dropped.
    pub drop_notify: f64,
    /// Probability that a `notify` is duplicated into the next delta.
    pub dup_notify: f64,
    /// Events that may fire spuriously when time advances.
    pub spurious: Vec<SpuriousRelease>,
}

impl FaultPlan {
    /// The empty plan: injects nothing. Installing it is byte-identical
    /// to installing no plan at all.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::seeded(0)
    }

    /// An empty plan carrying `seed`; chain builder calls to enable
    /// categories.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            wcet: None,
            drop_notify: 0.0,
            dup_notify: 0.0,
            spurious: Vec::new(),
        }
    }

    /// Enables WCET jitter: each perturbed delay is stretched with
    /// `probability` by a uniform factor in `[1, max_stretch]`.
    #[must_use]
    pub fn with_wcet_jitter(mut self, probability: f64, max_stretch: f64) -> Self {
        self.wcet = Some(WcetJitter {
            probability,
            max_stretch,
        });
        self
    }

    /// Enables dropping of event notifications with the given probability.
    #[must_use]
    pub fn with_drop_notify(mut self, probability: f64) -> Self {
        self.drop_notify = probability;
        self
    }

    /// Enables duplication of event notifications with the given
    /// probability.
    #[must_use]
    pub fn with_dup_notify(mut self, probability: f64) -> Self {
        self.dup_notify = probability;
        self
    }

    /// Registers `event` for spurious releases with the given per-time-
    /// advance probability.
    #[must_use]
    pub fn with_spurious(mut self, event: EventId, probability: f64) -> Self {
        self.spurious.push(SpuriousRelease { event, probability });
        self
    }

    /// The plan seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Returns the same plan (rates and registrations kept) re-keyed to
    /// `seed`. Sweep harnesses use this to give every sweep point an
    /// independent, reproducible fault stream derived from a base seed.
    #[must_use]
    pub fn reseed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether this plan can never inject anything. Empty plans are not
    /// armed by the kernel at all, guaranteeing the zero-perturbation
    /// invariant structurally.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.wcet
            .is_none_or(|w| w.probability <= 0.0 || w.max_stretch <= 1.0)
            && self.drop_notify <= 0.0
            && self.dup_notify <= 0.0
            && self.spurious.iter().all(|s| s.probability <= 0.0)
    }
}

/// One fault actually injected during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InjectedFault {
    /// A delay annotation was stretched from `requested` to `injected`.
    DelayStretched {
        /// Process whose delay was perturbed.
        process: String,
        /// The delay the model asked for.
        requested: Duration,
        /// The delay actually consumed.
        injected: Duration,
    },
    /// An event notification was dropped.
    NotifyDropped {
        /// The event whose notification was lost.
        event: EventId,
    },
    /// An event notification was duplicated into the next delta cycle.
    NotifyDuplicated {
        /// The duplicated event.
        event: EventId,
    },
    /// A registered event fired spuriously on a time advance.
    SpuriousNotify {
        /// The spuriously notified event.
        event: EventId,
    },
}

/// A time-stamped [`InjectedFault`], as logged in
/// [`Report::faults`](crate::Report::faults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Simulated time of the injection.
    pub at: SimTime,
    /// What was injected.
    pub fault: InjectedFault,
}

/// Armed injection state held by the kernel (crate internal).
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng_delay: SmallRng,
    rng_notify: SmallRng,
    rng_spurious: SmallRng,
    pub(crate) log: Vec<FaultRecord>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let root = SmallRng::seed_from_u64(plan.seed);
        FaultState {
            rng_delay: root.fork(1),
            rng_notify: root.fork(2),
            rng_spurious: root.fork(3),
            plan,
            log: Vec::new(),
        }
    }

    /// Applies WCET jitter to `requested`; returns the (possibly
    /// stretched) delay.
    pub(crate) fn perturb_delay(
        &mut self,
        at: SimTime,
        process: &str,
        requested: Duration,
    ) -> Duration {
        let Some(j) = self.plan.wcet else {
            return requested;
        };
        if j.probability <= 0.0 || j.max_stretch <= 1.0 || requested.is_zero() {
            return requested;
        }
        if !self.rng_delay.gen_bool(j.probability) {
            return requested;
        }
        let factor = 1.0 + self.rng_delay.gen_f64() * (j.max_stretch - 1.0);
        let injected = Duration::from_nanos((requested.as_nanos() as f64 * factor) as u64);
        self.log.push(FaultRecord {
            at,
            fault: InjectedFault::DelayStretched {
                process: process.to_string(),
                requested,
                injected,
            },
        });
        injected
    }

    /// Decides the fate of a notification of `event`.
    pub(crate) fn notify_fate(&mut self, at: SimTime, event: EventId) -> NotifyFate {
        if self.plan.drop_notify > 0.0 && self.rng_notify.gen_bool(self.plan.drop_notify) {
            self.log.push(FaultRecord {
                at,
                fault: InjectedFault::NotifyDropped { event },
            });
            return NotifyFate::Drop;
        }
        if self.plan.dup_notify > 0.0 && self.rng_notify.gen_bool(self.plan.dup_notify) {
            self.log.push(FaultRecord {
                at,
                fault: InjectedFault::NotifyDuplicated { event },
            });
            return NotifyFate::Duplicate;
        }
        NotifyFate::Deliver
    }

    /// Events to fire spuriously for a time advance to `at`.
    pub(crate) fn spurious_events(&mut self, at: SimTime) -> Vec<EventId> {
        let mut fired = Vec::new();
        // Iterate by index to appease the borrow checker; the list is tiny.
        for i in 0..self.plan.spurious.len() {
            let s = self.plan.spurious[i];
            if s.probability > 0.0 && self.rng_spurious.gen_bool(s.probability) {
                self.log.push(FaultRecord {
                    at,
                    fault: InjectedFault::SpuriousNotify { event: s.event },
                });
                fired.push(s.event);
            }
        }
        fired
    }
}

/// What the kernel should do with a notification (crate internal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NotifyFate {
    Deliver,
    Drop,
    Duplicate,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(FaultPlan::seeded(1).is_empty());
        assert!(FaultPlan::seeded(1).with_wcet_jitter(0.0, 2.0).is_empty());
        assert!(FaultPlan::seeded(1).with_wcet_jitter(0.5, 1.0).is_empty());
        assert!(!FaultPlan::seeded(1).with_wcet_jitter(0.5, 2.0).is_empty());
        assert!(!FaultPlan::seeded(1).with_drop_notify(0.1).is_empty());
    }

    #[test]
    fn perturb_is_deterministic_and_bounded() {
        let plan = FaultPlan::seeded(9).with_wcet_jitter(1.0, 2.0);
        let mut a = FaultState::new(plan.clone());
        let mut b = FaultState::new(plan);
        let d = Duration::from_micros(100);
        for _ in 0..50 {
            let x = a.perturb_delay(SimTime::ZERO, "p", d);
            let y = b.perturb_delay(SimTime::ZERO, "p", d);
            assert_eq!(x, y);
            assert!(x >= d && x <= d * 2, "{x:?}");
        }
        assert_eq!(a.log.len(), 50);
    }

    #[test]
    fn zero_rate_never_injects() {
        let mut st = FaultState::new(FaultPlan::seeded(3));
        let d = Duration::from_micros(10);
        assert_eq!(st.perturb_delay(SimTime::ZERO, "p", d), d);
        assert!(st.log.is_empty());
    }
}
