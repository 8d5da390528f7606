//! Layer probes: small, fixed pieces of work the benchmark times through
//! each layer's public functions. Each returns the median of a few
//! repetitions, so one slow repetition does not set the figure.

use std::time::{Duration, Instant};

use dsp_iss::asm::assemble;
use dsp_iss::cpu::Machine;
use dsp_iss::rtk::kernel_asm;
use dsp_iss::vocoder_app::{app_asm, kernel_config, ImplConfig};
use rtos_model::readyq::ReadyQueue;
use rtos_model::{SchedAlg, TimeSlice};
use sldl_sim::{Child, SimTime, Simulation};
use vocoder::{simulate_architecture, Decoder, Encoder, SpeechSource, VocoderConfig, FRAME_PERIOD};

use crate::report::{median, ms};

const REPS: usize = 5;

fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    let xs: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&xs)
}

/// Host microseconds per kernel context switch: two processes
/// ping-ponging one notification each way, `iters` round trips.
#[must_use]
pub fn switch_us(iters: u64) -> f64 {
    median_of(|| {
        let mut sim = Simulation::new();
        let ping = sim.event_new();
        let pong = sim.event_new();
        sim.spawn(Child::new("ping", move |ctx| {
            for _ in 0..iters {
                ctx.notify(ping);
                ctx.wait(pong);
            }
            ctx.notify(ping);
        }));
        sim.spawn(Child::new("pong", move |ctx| {
            for _ in 0..=iters {
                ctx.wait(ping);
                ctx.notify(pong);
            }
        }));
        let started = Instant::now();
        let report = sim.run().expect("switch probe runs clean");
        started.elapsed().as_secs_f64() * 1e6 / report.kernel.context_switches.max(1) as f64
    })
}

/// Host nanoseconds per self-resume: one process doing `waitfor(0)`.
#[must_use]
pub fn resume_ns(iters: u64) -> f64 {
    median_of(|| {
        let mut sim = Simulation::new();
        sim.spawn(Child::new("yielder", move |ctx| {
            for _ in 0..iters {
                ctx.waitfor(Duration::ZERO);
            }
        }));
        let started = Instant::now();
        let report = sim.run().expect("resume probe runs clean");
        started.elapsed().as_secs_f64() * 1e9 / report.kernel.processes_resumed.max(1) as f64
    })
}

/// Host microseconds to build a simulation, spawn 8 trivial processes
/// and run it to the end.
#[must_use]
pub fn spawn_us(sims: u32) -> f64 {
    median_of(|| {
        let started = Instant::now();
        for _ in 0..sims {
            let mut sim = Simulation::new();
            for p in 0..8u64 {
                sim.spawn(Child::new("leaf", move |ctx| {
                    ctx.waitfor(Duration::from_micros(p));
                }));
            }
            sim.run().expect("spawn probe runs clean");
        }
        started.elapsed().as_secs_f64() * 1e6 / f64::from(sims)
    })
}

/// Host nanoseconds per select (pop the most urgent task, re-insert it
/// with a fresh rank) on the ready queue `alg` uses, at `tasks` ready
/// tasks.
#[must_use]
pub fn select_ns(alg: SchedAlg, tasks: u32, iters: u64) -> f64 {
    median_of(|| {
        let mut rq = ReadyQueue::for_alg(alg);
        // Deterministic spread of ranks over 32 levels / deadlines.
        let rank = |seq: u64| (seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59, 0, seq);
        for t in 0..tasks {
            rq.insert(t, rank(u64::from(t) + 1));
        }
        let mut seq = u64::from(tasks);
        let started = Instant::now();
        for _ in 0..iters {
            let t = rq.pop().expect("ready set never empties");
            seq += 1;
            rq.insert(t, rank(seq));
        }
        let took = started.elapsed();
        std::hint::black_box(rq.len());
        took.as_secs_f64() * 1e9 / iters as f64
    })
}

/// Host microseconds per frame of `Encoder::encode` and of
/// `Decoder::decode`, over `frames` frames of the given speech.
#[must_use]
pub fn codec_us(speech_seed: u64, frames: usize) -> (f64, f64) {
    let mut src = SpeechSource::new(speech_seed);
    let input: Vec<_> = (0..frames)
        .map(|k| src.next_frame(SimTime::ZERO + FRAME_PERIOD * u32::try_from(k).unwrap_or(0)))
        .collect();
    let mut enc = Encoder::new();
    let started = Instant::now();
    let encoded: Vec<_> = input.iter().map(|f| enc.encode(f)).collect();
    let enc_us = started.elapsed().as_secs_f64() * 1e6 / frames as f64;
    let mut dec = Decoder::new();
    let started = Instant::now();
    let decoded: Vec<_> = encoded.iter().map(|e| dec.decode(e)).collect();
    let dec_us = started.elapsed().as_secs_f64() * 1e6 / frames as f64;
    std::hint::black_box(decoded);
    (enc_us, dec_us)
}

/// Host milliseconds to generate, assemble and load the implementation
/// model's program: `kernel_asm` + `app_asm` + `assemble` +
/// `Machine::new`.
#[must_use]
pub fn assemble_ms(cfg: &ImplConfig) -> f64 {
    let started = Instant::now();
    let src = format!("{}\n{}", kernel_asm(&kernel_config(cfg)), app_asm(cfg));
    let prog = assemble(&src).expect("implementation model assembles");
    let machine = Machine::new(&prog);
    let took = started.elapsed();
    std::hint::black_box(machine.cycles());
    ms(took)
}

/// What tracing one vocoder unit costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceCost {
    /// Records a traced unit emits.
    pub records: f64,
    /// Extra host nanoseconds per record (traced − untraced unit).
    pub ns_per_record: f64,
    /// Host milliseconds of `to_chrome_json` plus rendering.
    pub export_ms: f64,
    /// Host milliseconds of `TraceData::from_records` plus
    /// `Analysis::from_trace`.
    pub analyze_ms: f64,
}

/// Runs the architecture model traced and untraced, alternately, and
/// measures the trace pipeline on the traced records.
#[must_use]
pub fn trace_cost(cfg: &VocoderConfig) -> TraceCost {
    let run = |trace: bool| {
        let cfg = VocoderConfig {
            trace,
            ..cfg.clone()
        };
        let started = Instant::now();
        let r = simulate_architecture(&cfg, SchedAlg::PriorityPreemptive, TimeSlice::WholeDelay)
            .expect("trace probe runs clean");
        (ms(started.elapsed()), r)
    };
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut records = Vec::new();
    for _ in 0..REPS {
        plain.push(run(false).0);
        let (t, r) = run(true);
        traced.push(t);
        records = r.records;
    }
    let n = records.len() as f64;
    let started = Instant::now();
    let rendered = bench::trace::to_chrome_json(&records).render();
    let export_ms = ms(started.elapsed());
    std::hint::black_box(rendered.len());
    let started = Instant::now();
    let data = bench::analyze::TraceData::from_records(&records, 0);
    let analysis = bench::analyze::Analysis::from_trace(&data);
    let analyze_ms = ms(started.elapsed());
    std::hint::black_box(analysis);
    TraceCost {
        records: n,
        ns_per_record: (median(&traced) - median(&plain)) * 1e6 / n.max(1.0),
        export_ms,
        analyze_ms,
    }
}

/// Host nanoseconds the benchmark's own span recorder spends per span.
#[must_use]
pub fn span_ns() -> f64 {
    let spans = crate::spans::Spans::new(true);
    let n = 10_000u32;
    let started = Instant::now();
    for i in 0..n {
        spans.timed("probe", "main", crate::spans::NONE, u64::from(i), |_| ());
    }
    started.elapsed().as_secs_f64() * 1e9 / f64::from(n)
}
