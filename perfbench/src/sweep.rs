//! The `sweep` workload: a design-space sweep through the farm and the
//! result cache. Each pass starts from a fresh cache directory: the cold
//! pass simulates and inserts every point, the warm pass answers every
//! point from the cache, and both render the `rtos-sld-bench/1`
//! document, which must come out byte-identical.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bench::cache::{hash_bytes, ScenarioCache};
use bench::cli::SweepPoint;
use bench::farm::{run_sweep, run_sweep_cached, CacheHooks, PointCtx, PointResult};
use bench::json::Json;
use bench::results::ResultsDoc;
use bench::scenario::{ScenarioOutcome, ScenarioSpec, Workload};
use rtos_model::{SchedAlg, TimeSlice};
use sldl_sim::bus::Arbitration;
use vocoder::VocoderConfig;

use crate::affinity;
use crate::probes;
use crate::report::{median, ms, quantile, Outcome};
use crate::spans::{SpanId, Spans, NONE};
use crate::workloads::{kernel_counts, set_overhead, set_sim_ratios, setups, sim_probes, Opts};

const COMM_FRAMES: usize = 10;
const COMM_CLOCK_NS: u64 = 500;
const COMM_SETUP_NS: u64 = 2_000;
const COMM_TIMING_SCALE: f64 = 0.002;
const SCHED_TASKS: usize = 5;
const SCHED_SETS: usize = 20;
const SCHED_HORIZON_US: u64 = 200_000;
const SCHED_UTILS: [f64; 5] = [0.5, 0.69, 0.85, 0.95, 1.05];

/// The sweep: the `comm_sweep` grid (split-PE vocoder over bus width ×
/// arbitration × scheduler, plus the ideal bus) and a `schedulers` grid
/// (utilization × algorithm × task set). Task sets come from the
/// per-point seeds the farm derives from the workload seed.
#[must_use]
pub fn sweep_points() -> Vec<SweepPoint> {
    let split = |clock_ns, width, setup_ns, arbitration| Workload::VocoderSplit {
        clock_ns,
        width,
        setup_ns,
        arbitration,
        enc_pe: 0,
        dec_pe: 1,
    };
    let mut points = vec![SweepPoint::new(
        ScenarioSpec::new("comm/ideal", split(0, 0, 0, Arbitration::FixedPriority))
            .timing_scale(COMM_TIMING_SCALE)
            .frames(COMM_FRAMES),
    )];
    for sched in [SchedAlg::PriorityPreemptive, SchedAlg::PriorityCooperative] {
        for arb in [Arbitration::FixedPriority, Arbitration::RoundRobin] {
            for width in [32u32, 8, 2, 1] {
                points.push(
                    SweepPoint::new(
                        ScenarioSpec::new(
                            format!("comm/w{width}/{}/{sched:?}", arb.as_str()),
                            split(COMM_CLOCK_NS, width, COMM_SETUP_NS, arb),
                        )
                        .sched(sched)
                        .timing_scale(COMM_TIMING_SCALE)
                        .frames(COMM_FRAMES),
                    )
                    .param("width", Json::U64(u64::from(width))),
                );
            }
        }
    }
    for util in SCHED_UTILS {
        for alg in [
            SchedAlg::Rms,
            SchedAlg::Edf,
            SchedAlg::PriorityPreemptive,
            SchedAlg::Fifo,
        ] {
            for set in 0..SCHED_SETS {
                // Each point draws its own task set from the farm's
                // per-point seed, so a seed brings 400 distinct sets and
                // the grid's cost barely depends on which seed it is.
                points.push(SweepPoint::new(
                    ScenarioSpec::new(
                        format!("sched/u{util:.2}/{alg:?}/{set}"),
                        Workload::TaskSet {
                            tasks: SCHED_TASKS,
                            utilization: util,
                            horizon_us: SCHED_HORIZON_US,
                        },
                    )
                    .sched(alg)
                    .slice(TimeSlice::Quantum(Duration::from_micros(100))),
                ));
            }
        }
    }
    points
}

/// One farm pass over the sweep.
#[derive(Debug, Default)]
pub struct Pass {
    /// The rendered `rtos-sld-bench/1` document.
    pub doc: String,
    /// Bus statistics line of each split-PE point.
    pub bus_lines: Vec<String>,
    /// Bus statistics summed over the split-PE points.
    pub bus: BusSum,
    /// Wall time of the pass, rendering included.
    pub wall: Duration,
    /// Host time of each simulated point, lookup to insert.
    pub point_ms: Vec<f64>,
    /// Host time of each cache lookup that hit, in microseconds.
    pub hit_us: Vec<f64>,
    /// … that missed.
    pub miss_us: Vec<f64>,
    /// Host time of each cache insert, in microseconds.
    pub insert_us: Vec<f64>,
    /// Host time of building and rendering the document.
    pub render_ms: f64,
    /// Points that did not complete.
    pub incomplete: Vec<String>,
    /// Per-point layer counts of simulated points.
    pub counts: BTreeMap<&'static str, Vec<f64>>,
}

/// Bus statistics summed over a pass's split-PE points (the wait is the
/// maximum), in simulated time.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct BusSum {
    /// Bus transactions.
    pub transactions: f64,
    /// Time the bus was busy.
    pub busy_us: f64,
    /// Transactions that had to wait for the bus.
    pub contended: f64,
    /// Longest wait for a grant.
    pub max_wait_us: f64,
}

/// Passes started so far in this process.
static PASS_SEQ: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The open `point` span and its start on this farm worker.
    static POINT: Cell<(SpanId, Option<Instant>)> = const { Cell::new((NONE, None)) };
    /// This worker's lane in the current pass: `(pass, lane)`.
    static LANE: Cell<(u64, usize)> = const { Cell::new((u64::MAX, 0)) };
}

/// Runs one pass of the sweep on `jobs` farm workers, through `cache` if
/// given, and renders its results document.
#[must_use]
pub fn sweep_pass(
    points: &[SweepPoint],
    seed: u64,
    jobs: usize,
    cache: Option<&ScenarioCache>,
    spans: &Spans,
    pass_id: u64,
    name: &'static str,
) -> Pass {
    // Farm workers are fresh threads each pass; a pass sequence number
    // keys their lanes all the same, should a worker ever be reused.
    let seq = PASS_SEQ.fetch_add(1, Ordering::Relaxed);
    let lanes = AtomicUsize::new(0);
    let lane = || {
        let (p, l) = LANE.with(Cell::get);
        if p == seq {
            return format!("w{l}");
        }
        let l = lanes.fetch_add(1, Ordering::Relaxed);
        LANE.with(|c| c.set((seq, l)));
        format!("w{l}")
    };
    let timings = Mutex::new(Pass::default());
    let pass_span = spans.open(name, "main", NONE, pass_id);
    let started = Instant::now();

    let lookup = |ctx: PointCtx, p: &SweepPoint| -> Option<ScenarioOutcome> {
        let lane = lane();
        let point = spans.open("point", &lane, pass_span, ctx.index as u64);
        POINT.with(|c| c.set((point, Some(Instant::now()))));
        let c = cache?;
        let (hit, t) = spans.timed("cache.lookup", &lane, point, ctx.index as u64, |_| {
            c.lookup_spec(&p.spec, p.effective_seed(ctx.seed))
        });
        let mut tm = timings.lock().expect("timings lock poisoned");
        if hit.is_some() {
            tm.hit_us.push(t.as_secs_f64() * 1e6);
            spans.close(point);
            POINT.with(|c| c.set((NONE, None)));
        } else {
            tm.miss_us.push(t.as_secs_f64() * 1e6);
        }
        hit
    };
    let runner = |ctx: PointCtx, p: &SweepPoint| -> ScenarioOutcome {
        let lane = lane();
        let (point, _) = POINT.with(Cell::get);
        let (o, _) = spans.timed("run", &lane, point, ctx.index as u64, |_| {
            p.spec.run_seeded(p.effective_seed(ctx.seed))
        });
        o
    };
    // A simulated point ends after its insert; without a cache, after
    // its run.
    let finish_point = || {
        let (point, start) = POINT.with(Cell::get);
        if let Some(start) = start {
            timings
                .lock()
                .expect("timings lock poisoned")
                .point_ms
                .push(ms(start.elapsed()));
        }
        spans.close(point);
        POINT.with(|c| c.set((NONE, None)));
    };
    let outcomes = if let Some(c) = cache {
        let insert = |ctx: PointCtx, p: &SweepPoint, r: &ScenarioOutcome| {
            let (point, _) = POINT.with(Cell::get);
            let ((), t) = spans.timed("cache.insert", &lane(), point, ctx.index as u64, |_| {
                c.insert_spec(&p.spec, p.effective_seed(ctx.seed), r);
            });
            timings
                .lock()
                .expect("timings lock poisoned")
                .insert_us
                .push(t.as_secs_f64() * 1e6);
            finish_point();
        };
        let hooks = CacheHooks {
            lookup: &lookup,
            insert: &insert,
        };
        run_sweep_cached(seed, jobs, points, Some(hooks), runner)
    } else {
        run_sweep(seed, jobs, points, |ctx, p| {
            let _ = lookup(ctx, p);
            let o = runner(ctx, p);
            finish_point();
            o
        })
    };

    let (doc, render_t) = spans.timed("render", "main", pass_span, pass_id, |_| {
        let mut doc = ResultsDoc::new("perfbench_sweep", seed);
        for (i, (p, o)) in points.iter().zip(&outcomes).enumerate() {
            match o {
                PointResult::Completed(o) => {
                    doc.push_point(&p.name, i, Json::Obj(p.params.clone()), o)
                }
                PointResult::Degraded(d) => doc.push_degraded(d),
            };
        }
        doc.to_json().render()
    });
    let wall = started.elapsed();
    spans.close(pass_span);

    let mut pass = timings.into_inner().expect("timings lock poisoned");
    pass.doc = doc;
    pass.wall = wall;
    pass.render_ms = ms(render_t);
    for (p, o) in points.iter().zip(&outcomes) {
        match o {
            PointResult::Completed(o) if o.completed => {
                if let Some(k) = &o.kernel_stats {
                    for (name, v) in kernel_counts(k) {
                        pass.counts.entry(name).or_default().push(v);
                    }
                }
                pass.counts
                    .entry("core.dispatches")
                    .or_default()
                    .push(o.tasks.iter().map(|t| t.dispatches).sum::<u64>() as f64);
                pass.counts
                    .entry("core.deadline_misses")
                    .or_default()
                    .push(o.metric("deadline_misses").unwrap_or(0.0));
                if let Some(tx) = o.metric("bus_transactions") {
                    let m = |k: &str| o.metric(k).unwrap_or(0.0);
                    pass.bus.transactions += tx;
                    pass.bus.busy_us += m("bus_busy_us");
                    pass.bus.contended += m("bus_contended");
                    pass.bus.max_wait_us = pass.bus.max_wait_us.max(m("bus_max_wait_us"));
                    pass.bus_lines.push(format!(
                        "{} transactions={tx} busy_us={} contended={} max_wait_us={} frames={}",
                        p.name,
                        o.fmt_metric("bus_busy_us", 3),
                        o.fmt_metric("bus_contended", 0),
                        o.fmt_metric("bus_max_wait_us", 3),
                        o.fmt_metric("frames", 0),
                    ));
                }
            }
            PointResult::Completed(o) => pass.incomplete.push(format!("{}: {}", p.name, o.status)),
            PointResult::Degraded(d) => pass.incomplete.push(format!("{}: {}", p.name, d.message)),
        }
    }
    pass
}

/// The deterministic summary of a cold pass that the reference records:
/// a digest of the document, then each split-PE point's bus statistics.
#[must_use]
pub fn sweep_reference_lines(pass: &Pass) -> Vec<String> {
    let mut lines = vec![format!("doc={}", hash_bytes(pass.doc.as_bytes()).to_hex())];
    lines.extend(pass.bus_lines.iter().cloned());
    lines
}

/// Checks a cold pass: every point completed, and the pass matches the
/// reference when one is given. Returns one message per failed check.
#[must_use]
fn check_cold(cold: &Pass, reference: &[String]) -> Vec<String> {
    let mut failed: Vec<String> = cold
        .incomplete
        .iter()
        .map(|s| format!("cold: {s}"))
        .collect();
    if !reference.is_empty() {
        let got = sweep_reference_lines(cold);
        if got != reference {
            let diff = got.iter().zip(reference).find(|(g, r)| g != r).map_or_else(
                || format!("{} lines vs {} expected", got.len(), reference.len()),
                |(g, r)| format!("expected {r}, got {g}"),
            );
            failed.push(format!("cold pass differs from the reference: {diff}"));
        }
    }
    failed
}

/// Checks a warm pass against its cold pass: every point answered from
/// the cache, none corrupt, and the same outcome and document bytes.
#[must_use]
fn check_warm(cold: &Pass, warm: &Pass, n: u64, hits: u64, corrupt: u64) -> Vec<String> {
    let mut failed = Vec::new();
    if warm.doc != cold.doc {
        let line = cold
            .doc
            .lines()
            .zip(warm.doc.lines())
            .position(|(c, w)| c != w);
        failed.push(format!(
            "warm document differs from cold (first at line {line:?})"
        ));
    }
    if hits != n || corrupt != 0 {
        failed.push(format!(
            "warm pass answered {hits} of {n} points from the cache ({corrupt} corrupt)"
        ));
    }
    failed
}

/// Points simulated, spread over the grid, to warm up each set-up.
const WARMUP_POINTS: usize = 16;

/// Warm passes per cold pass. A warm pass takes a few percent of a cold
/// one, so several are timed to measure the cache's read path for long
/// enough to be steady.
const WARM_PASSES: usize = 8;

/// Runs `sweep`: rounds of (fresh cache, cold pass, warm passes) until
/// the measured phase ends, then a `--jobs 1` pass held to one CPU whose
/// document must equal the parallel one. `between` runs after each cold
/// pass with the round's cache directory (tests scribble on it).
pub fn run_sweep_workload(
    opts: &Opts,
    process_start: Instant,
    spans: &Spans,
    out: &mut Outcome,
    between: &mut dyn FnMut(&Path),
) {
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let cache_root = opts
        .out_dir
        .join(format!("sweep-cache-{}", std::process::id()));
    let mut points = Vec::new();
    let setup_s = setups(process_start, || {
        sldl_sim::pool::drain();
        points = sweep_points();
        let _ = std::fs::remove_dir_all(&cache_root);
        std::fs::create_dir_all(&cache_root).expect("cache directory can be created");
        sldl_sim::pool::prewarm(jobs * 4);
        let warm: Vec<SweepPoint> = points
            .iter()
            .step_by((points.len() / WARMUP_POINTS).max(1))
            .cloned()
            .collect();
        let _ = run_sweep(opts.seed, jobs, &warm, |ctx, p: &SweepPoint| {
            p.spec.run_seeded(p.effective_seed(ctx.seed))
        });
    });
    out.set("setup_s", setup_s);
    out.notes
        .push(format!("sweep: {} points, jobs {jobs}", points.len()));

    if opts.trace {
        sim_probes(out, spans, false);
    }
    let n = points.len() as u64;
    let mut cold_ms = Vec::new();
    let mut cold_walls = Vec::new();
    let (mut warm_points, mut warm_wall) = (0u64, Duration::ZERO);
    let (mut hit_us, mut miss_us, mut insert_us, mut render_ms) = (vec![], vec![], vec![], vec![]);
    let (mut lookups, mut hits, mut corrupt) = (0u64, 0u64, 0u64);
    let mut busy = Vec::new();
    let mut counts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut bus = BusSum::default();
    let mut first_doc: Option<String> = None;
    let deadline = Instant::now() + opts.measure;
    let mut round = 0u64;
    while Instant::now() < deadline {
        let dir = cache_root.join(format!("round-{round}"));
        let cache = match ScenarioCache::open(&dir) {
            Ok(c) => c,
            Err(e) => {
                out.fail(format!("cannot open cache directory: {e}"));
                break;
            }
        };
        let cold = sweep_pass(
            &points,
            opts.seed,
            jobs,
            Some(&cache),
            spans,
            round,
            "pass.cold",
        );
        let mut failed = check_cold(&cold, if round == 0 { &opts.reference } else { &[] });
        match &first_doc {
            Some(d) if *d != cold.doc => failed.push("document differs from round 0".into()),
            Some(_) => {}
            None => first_doc = Some(cold.doc.clone()),
        }
        between(&dir);
        for _ in 0..WARM_PASSES {
            let before = (cache.stats().hits(), cache.stats().corrupt());
            let warm = sweep_pass(
                &points,
                opts.seed,
                jobs,
                Some(&cache),
                spans,
                round,
                "pass.warm",
            );
            let (h, c) = (
                cache.stats().hits() - before.0,
                cache.stats().corrupt() - before.1,
            );
            failed.extend(check_warm(&cold, &warm, n, h, c));
            warm_points += n;
            warm_wall += warm.wall;
            hit_us.extend_from_slice(&warm.hit_us);
            render_ms.push(warm.render_ms);
            lookups += n;
            hits += h;
            corrupt += c;
        }
        out.attempted += n * (1 + WARM_PASSES as u64);
        for f in failed {
            out.fail(format!("round {round}: {f}"));
        }
        cold_ms.extend_from_slice(&cold.point_ms);
        cold_walls.push(cold.wall.as_secs_f64());
        busy.push(cold.point_ms.iter().sum::<f64>() / (jobs as f64 * ms(cold.wall)));
        miss_us.extend_from_slice(&cold.miss_us);
        insert_us.extend_from_slice(&cold.insert_us);
        render_ms.push(cold.render_ms);
        for (k, v) in &cold.counts {
            counts.entry(k).or_default().extend_from_slice(v);
        }
        bus = cold.bus;
        let _ = std::fs::remove_dir_all(&dir);
        round += 1;
    }

    out.set("run_ms_p50", median(&cold_ms));
    out.set("run_ms_p90", quantile(&cold_ms, 0.9));
    let cold_s: f64 = cold_walls.iter().sum();
    out.set(
        "points_per_s",
        (n * round) as f64 / cold_s.max(f64::MIN_POSITIVE),
    );
    out.set(
        "warm_points_per_s",
        warm_points as f64 / warm_wall.as_secs_f64().max(f64::MIN_POSITIVE),
    );
    out.notes.push(format!(
        "rounds: {round}; cold points timed: {} (p90 has {} samples beyond it)",
        cold_ms.len(),
        cold_ms.len() - (cold_ms.len() * 9).div_ceil(10)
    ));

    // The serial pass: same points, one worker, one CPU.
    let serial_dir = cache_root.join("serial");
    let serial = affinity::confined(|| {
        let probes = opts.trace.then(|| {
            let mut o = Outcome::default();
            sim_probes(&mut o, spans, true);
            o.metrics
        });
        let cache = ScenarioCache::open(&serial_dir).ok();
        (
            sweep_pass(
                &points,
                opts.seed,
                1,
                cache.as_ref(),
                spans,
                u64::MAX,
                "pass.serial",
            ),
            probes,
        )
    });
    let _ = std::fs::remove_dir_all(&cache_root);
    match serial {
        Ok((serial, probes)) => {
            out.attempted += points.len() as u64;
            if Some(&serial.doc) != first_doc.as_ref() {
                out.fail("--jobs 1 document differs from the parallel one");
            }
            for (k, v) in probes.unwrap_or_default() {
                out.set(k, v);
            }
            out.set(
                "farm.speedup_vs_serial",
                serial.wall.as_secs_f64() / median(&cold_walls).max(f64::MIN_POSITIVE),
            );
        }
        Err(e) => out.fail(format!("cannot hold the process to one CPU: {e}")),
    }

    for (k, v) in &counts {
        out.set(k, v.iter().sum::<f64>() / v.len().max(1) as f64);
    }
    out.set("bus.transactions", bus.transactions);
    out.set("bus.busy_us", bus.busy_us);
    out.set(
        "bus.contended_frac",
        bus.contended / bus.transactions.max(1.0),
    );
    out.set("bus.max_wait_us", bus.max_wait_us);
    out.set("farm.busy_frac", median(&busy));
    out.set("cache.lookup_us", median(&hit_us));
    out.set("cache.miss_us", median(&miss_us));
    out.set("cache.insert_us", median(&insert_us));
    out.set("cache.hit_frac", hits as f64 / lookups.max(1) as f64);
    out.set("cache.corrupt", corrupt as f64);
    out.set("json.render_ms", median(&render_ms));
    out.notes.push(format!(
        "cache: {hits} of {lookups} warm lookups hit, {corrupt} corrupt"
    ));
    if opts.trace {
        set_sim_ratios(out, median(&cold_ms));
        let (v, _) = spans.timed("probe.select", "main", NONE, 0, |_| {
            probes::select_ns(SchedAlg::Edf, SCHED_TASKS as u32, 200_000)
        });
        out.set("core.select_ns", v);
        let ((e, d), _) = spans.timed("probe.codec", "main", NONE, 0, |_| {
            probes::codec_us(VocoderConfig::default().seed, COMM_FRAMES)
        });
        out.set("vocoder.encode_us", e);
        out.set("vocoder.decode_us", d);
        let t = spans.self_times();
        let (n, self_t) = ["pass.cold", "pass.warm"]
            .iter()
            .filter_map(|n| t.get(n))
            .fold((0u64, Duration::ZERO), |(n, s), p| {
                (n + p.count, s + p.self_time)
            });
        out.set("farm.self_ms", ms(self_t) / n.max(1) as f64);
        set_overhead(out, spans, cold_ms.len() as f64, &cold_ms, "point");
    }
}
