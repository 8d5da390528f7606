//! Equivalence property test: the indexed ready structure
//! ([`rtos_model::readyq::ReadyQueue`]) must produce *identical pick
//! sequences* to the reference model it replaced — a linear scan over an
//! insertion-ordered list that dispatches the first rank-minimal entry —
//! under randomized churn, for every scheduling algorithm.
//!
//! The per-algorithm rank shapes are restated here from the scheduler's
//! documented key layout (`SchedAlg::rank`); the crate's own unit test
//! `queue_rank_orders_exactly_like_rank` pins that the storage key
//! (`queue_rank`, seq-last) orders exactly like the dispatch rank, so
//! agreement *here* plus agreement *there* closes the loop between the
//! indexed structure and the conformance oracle's ground truth.
//!
//! A second test guards the reason the indexed structure exists: its
//! select cost stays flat as the ready set grows from 8 to 4096 tasks.
//! It compares two host timings from the same run, so it does not depend
//! on host speed, and runs the linear reference under the same bound to
//! show that the bound trips on the scan it replaced.

use rtos_model::readyq::{Rank, ReadyQueue};
use rtos_model::SchedAlg;
use std::time::{Duration, Instant};

/// Deterministic xorshift64* stream.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Synthetic task attributes, mirroring the fields `SchedAlg::rank` reads
/// from a TCB.
#[derive(Clone, Copy)]
struct Task {
    priority: u64,
    /// `Some(period_ns)` for periodic tasks, `None` for aperiodic.
    period_ns: Option<u64>,
    deadline_ns: u64,
    ready_seq: u64,
}

/// The dispatch rank (`SchedAlg::rank` key layout).
fn rank(alg: SchedAlg, t: &Task) -> Rank {
    match alg {
        SchedAlg::PriorityPreemptive | SchedAlg::PriorityCooperative => {
            (t.priority, t.ready_seq, 0)
        }
        SchedAlg::Fifo | SchedAlg::RoundRobin { .. } => (t.ready_seq, 0, 0),
        SchedAlg::Rms => match t.period_ns {
            Some(p) => (0, p, t.ready_seq),
            None => (1, t.priority, t.ready_seq),
        },
        SchedAlg::Edf => (t.deadline_ns, t.priority, t.ready_seq),
        _ => unreachable!("non-exhaustive enum: new algorithm not covered"),
    }
}

/// The storage key (`SchedAlg::queue_rank` key layout: seq always last).
fn queue_rank(alg: SchedAlg, t: &Task) -> Rank {
    match alg {
        SchedAlg::PriorityPreemptive | SchedAlg::PriorityCooperative => {
            (t.priority, 0, t.ready_seq)
        }
        SchedAlg::Fifo | SchedAlg::RoundRobin { .. } => (0, 0, t.ready_seq),
        // RMS and EDF dispatch ranks already carry the seq last.
        _ => rank(alg, t),
    }
}

/// Reference model: the old `Vec<TaskId>` ready list. Selection is a
/// linear scan keeping the *first* entry with the minimal dispatch rank.
struct LinearRef {
    queue: Vec<u32>,
}

impl LinearRef {
    fn first_minimal(&self, tasks: &[Task], alg: SchedAlg) -> Option<u32> {
        let mut best: Option<(Rank, u32)> = None;
        for &id in &self.queue {
            let r = rank(alg, &tasks[id as usize]);
            if best.is_none_or(|(br, _)| r < br) {
                best = Some((r, id));
            }
        }
        best.map(|(_, id)| id)
    }
}

/// A ready structure the select-cost guard can time: the indexed queue
/// or the linear reference.
trait Ready {
    fn make_ready(&mut self, alg: SchedAlg, id: u32, t: &Task);
    /// Removes and returns the task to dispatch.
    fn dispatch(&mut self, alg: SchedAlg, tasks: &[Task]) -> u32;
}

impl Ready for ReadyQueue {
    fn make_ready(&mut self, alg: SchedAlg, id: u32, t: &Task) {
        self.insert(id, queue_rank(alg, t));
    }
    fn dispatch(&mut self, _: SchedAlg, _: &[Task]) -> u32 {
        self.pop().expect("ready set never empties")
    }
}

impl Ready for LinearRef {
    fn make_ready(&mut self, _: SchedAlg, id: u32, _: &Task) {
        self.queue.push(id);
    }
    fn dispatch(&mut self, alg: SchedAlg, tasks: &[Task]) -> u32 {
        let id = self
            .first_minimal(tasks, alg)
            .expect("ready set never empties");
        self.queue.retain(|&q| q != id);
        id
    }
}

const ALGS: [SchedAlg; 6] = [
    SchedAlg::PriorityPreemptive,
    SchedAlg::PriorityCooperative,
    SchedAlg::Fifo,
    SchedAlg::RoundRobin {
        quantum: Duration::from_micros(100),
    },
    SchedAlg::Rms,
    SchedAlg::Edf,
];

fn random_task(rng: &mut Rng, seq: u64) -> Task {
    let r = rng.next();
    Task {
        priority: r % 8,
        period_ns: if r & (1 << 32) != 0 {
            Some(1_000 * (1 + (r >> 33) % 16))
        } else {
            None
        },
        deadline_ns: 100 * (1 + (r >> 16) % 512),
        ready_seq: seq,
    }
}

#[test]
fn indexed_structure_matches_linear_scan_pick_sequences() {
    for alg in ALGS {
        for seed in [1u64, 0x9E37_79B9, 0xFEED_F00D] {
            let mut rng = Rng(seed);
            let mut tasks: Vec<Task> = Vec::new();
            let mut rq = ReadyQueue::for_alg(alg);
            let mut linear = LinearRef { queue: Vec::new() };
            let mut next_seq = 0u64;
            let mut picks = 0u32;

            for step in 0..4_000 {
                match rng.next() % 10 {
                    // Make a fresh task ready (fresh seq: the global
                    // counter only grows).
                    0..=3 => {
                        next_seq += 1;
                        let id = tasks.len() as u32;
                        let t = random_task(&mut rng, next_seq);
                        tasks.push(t);
                        rq.insert(id, queue_rank(alg, &t));
                        linear.queue.push(id);
                    }
                    // Dispatch: both models must pick the same task.
                    4..=6 => {
                        let expect = linear.first_minimal(&tasks, alg);
                        assert_eq!(
                            rq.peek(),
                            expect,
                            "{alg} seed {seed} step {step}: peek diverged"
                        );
                        let got = rq.pop();
                        assert_eq!(got, expect, "{alg} seed {seed} step {step}: pop diverged");
                        if let Some(id) = got {
                            linear.queue.retain(|&q| q != id);
                            picks += 1;
                        }
                    }
                    // Block/kill a random queued task.
                    7 => {
                        if !linear.queue.is_empty() {
                            let victim =
                                linear.queue[(rng.next() % linear.queue.len() as u64) as usize];
                            assert!(rq.remove(victim));
                            linear.queue.retain(|&q| q != victim);
                        }
                    }
                    // Priority-inheritance requeue: re-rank a queued task
                    // in place, keeping its own seq (`boost_priority` on a
                    // READY task).
                    8 => {
                        if !linear.queue.is_empty() {
                            let id =
                                linear.queue[(rng.next() % linear.queue.len() as u64) as usize];
                            let t = &mut tasks[id as usize];
                            t.priority = rng.next() % 8;
                            t.deadline_ns = 100 * (1 + rng.next() % 512);
                            let nr = queue_rank(alg, t);
                            assert!(rq.remove(id));
                            rq.insert(id, nr);
                        }
                    }
                    // Re-activation of a previously dispatched task with a
                    // fresh seq (a task id can re-enter the queue).
                    _ => {
                        if !tasks.is_empty() {
                            let id = (rng.next() % tasks.len() as u64) as u32;
                            if !rq.contains(id) && !linear.queue.contains(&id) {
                                next_seq += 1;
                                tasks[id as usize].ready_seq = next_seq;
                                let t = tasks[id as usize];
                                rq.insert(id, queue_rank(alg, &t));
                                linear.queue.push(id);
                            }
                        }
                    }
                }
                assert_eq!(rq.len(), linear.queue.len());
            }

            // Drain to the end: full remaining order must agree too.
            loop {
                let expect = linear.first_minimal(&tasks, alg);
                let got = rq.pop();
                assert_eq!(got, expect, "{alg} seed {seed}: drain diverged");
                match got {
                    Some(id) => linear.queue.retain(|&q| q != id),
                    None => break,
                }
            }
            assert!(rq.is_empty());
            assert!(picks > 100, "{alg} seed {seed}: degenerate op stream");
        }
    }
}

/// Host nanoseconds per dispatch→re-ready cycle on a ready set of `n`
/// tasks: the median of five timings of `ops` cycles each.
fn select_ns<R: Ready>(alg: SchedAlg, n: usize, ops: u32, fresh: impl Fn() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..5u64)
        .map(|round| {
            let mut rng = Rng(0x9E37_79B9 + round);
            let mut tasks: Vec<Task> = (1..=n as u64)
                .map(|seq| random_task(&mut rng, seq))
                .collect();
            let mut ready = fresh();
            for (id, t) in tasks.iter().enumerate() {
                ready.make_ready(alg, id as u32, t);
            }
            let mut seq = n as u64;
            let started = Instant::now();
            for _ in 0..ops {
                let id = ready.dispatch(alg, &tasks);
                seq += 1;
                tasks[id as usize] = random_task(&mut rng, seq);
                ready.make_ready(alg, id, &tasks[id as usize]);
            }
            started.elapsed().as_nanos() as f64 / f64::from(ops)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[2]
}

#[test]
fn select_cost_is_flat_from_8_to_4096_ready_tasks() {
    // A 512x larger ready set may cost at most 32x per select. The
    // indexed queue measures about 1x (bitmap levels) to 3x (EDF heap);
    // the linear first-minimal scan it replaced measures hundreds of x,
    // and is run here too so the bound is shown to catch it.
    const BOUND: f64 = 32.0;
    for alg in ALGS {
        let fresh = || ReadyQueue::for_alg(alg);
        let indexed = select_ns(alg, 4096, 20_000, fresh) / select_ns(alg, 8, 20_000, fresh);
        let fresh = || LinearRef { queue: Vec::new() };
        let linear = select_ns(alg, 4096, 100, fresh) / select_ns(alg, 8, 100, fresh);
        println!("{alg}: 4096/8 select cost indexed {indexed:.1}x, linear {linear:.0}x");
        assert!(
            indexed < BOUND,
            "{alg}: indexed select at 4096 ready tasks costs {indexed:.1}x the 8-task cost"
        );
        assert!(
            linear > BOUND,
            "{alg}: the linear reference scan scaled only {linear:.1}x, so the \
             {BOUND}x bound would not catch it"
        );
    }
}
