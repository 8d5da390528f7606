//! Shared argv parsing for every bench binary, plus the [`SweepApp`]
//! driver the sweep binaries are built on.
//!
//! All six experiment binaries (`robustness`, `schedulers`, `load_sweep`,
//! `granularity`, `table1`, `chaos`) accept the same core flags:
//!
//! * `--frames N` — workload size (binary-specific default);
//! * `--jobs N` — farm worker threads (default: all host cores). Results
//!   are bit-identical for any value, see [`crate::farm`];
//! * `--seed S` — base seed from which per-point seeds are derived;
//! * `--json PATH` — write the machine-readable results document
//!   (see `EXPERIMENTS.md` for the schema) to `PATH`;
//! * `--cache-dir DIR` — reuse previously computed point results from the
//!   content-addressed cache at `DIR` (see [`crate::cache`]); unchanged
//!   points replay instead of re-simulating, and the resulting document
//!   is byte-identical to a cold run;
//! * `--quiet` — suppress the human-readable tables;
//! * `--help` — print usage.
//!
//! Unknown flags produce a usage message and a nonzero exit instead of
//! being silently ignored. Binary-specific extras (e.g. `schedulers
//! --sets N`) are declared at the parse site and folded into the same
//! usage text.
//!
//! ## The sweep driver
//!
//! Every sweep binary used to hand-roll the same skeleton: run the farm,
//! print a farm summary line, build the [`ResultsDoc`], write `--json`,
//! export `--trace-out`. [`SweepApp`] owns that skeleton once. A binary
//! declares its [`SweepPoint`]s (spec + JSON params), calls
//! [`SweepApp::run`], prints its bench-specific tables from the returned
//! outcomes, and hands the document aggregates to [`SweepApp::finish`].

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::cache::ScenarioCache;
use crate::farm::{
    derive_seed, run_sweep_cached, run_sweep_guarded_cached, CacheHooks, PointCtx, PointResult,
};
use crate::json::Json;
use crate::results::ResultsDoc;
use crate::scenario::{ScenarioOutcome, ScenarioSpec};

/// One binary-specific extra flag: `(--name, VALUE, help)`.
pub type ExtraFlag = (&'static str, &'static str, &'static str);

/// A sweep point runner other than [`ScenarioSpec::run`]; it gets the
/// spec with the point's seed applied (see [`SweepApp::runner`]).
pub type PointRunner = fn(&ScenarioSpec) -> ScenarioOutcome;

/// Parsed command-line arguments shared by every bench binary.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--frames N`: workload size, if given (binaries apply their own
    /// defaults).
    pub frames: Option<usize>,
    /// `--jobs N`: number of farm workers (defaults to the host's
    /// available parallelism; always ≥ 1).
    pub jobs: usize,
    /// `--seed S`: base seed for per-point seed derivation.
    pub seed: u64,
    /// `--json PATH`: where to write the machine-readable results.
    pub json: Option<PathBuf>,
    /// `--trace-out PATH`: where to write a Chrome-trace-event /
    /// Perfetto JSON execution trace of the sweep's representative point
    /// (load the file at <https://ui.perfetto.dev>).
    pub trace_out: Option<PathBuf>,
    /// `--analyze-out PATH`: where to write the `rtos-sld-analysis/1`
    /// derived-analytics document ([`crate::analyze`]) of the sweep's
    /// representative point (same point `--trace-out` exports).
    pub analyze_out: Option<PathBuf>,
    /// `--cache-dir DIR`: root of the persistent content-addressed result
    /// cache ([`crate::cache`]); unset disables caching entirely.
    pub cache_dir: Option<PathBuf>,
    /// `--quiet`: suppress human-readable output.
    pub quiet: bool,
    extras: BTreeMap<&'static str, String>,
}

impl Args {
    /// The raw value of a binary-specific extra flag, if it was passed.
    #[must_use]
    pub fn extra(&self, name: &str) -> Option<&str> {
        self.extras.get(name).map(String::as_str)
    }

    /// Parses an extra flag's value, falling back to `default` when the
    /// flag was not passed.
    ///
    /// # Panics
    ///
    /// Panics if the flag was passed but does not parse as `T` (the value
    /// was already validated syntactically at parse time for core flags;
    /// extras are validated here).
    #[must_use]
    pub fn extra_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.extra(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("--{name} {v}: invalid value")),
        }
    }
}

/// Error produced by [`parse_from`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` was requested; the payload is the usage text.
    Help(String),
    /// Parsing failed; the payload is `(message, usage text)`.
    Invalid(String, String),
}

fn usage(bin: &str, about: &str, extras: &[ExtraFlag]) -> String {
    let mut u = format!(
        "{about}\n\n\
         Usage: cargo run -p bench --bin {bin} -- [FLAGS]\n\n\
         Flags:\n\
         \x20 --frames N    workload size (frames / horizon points; binary default)\n\
         \x20 --jobs N      worker threads (default: all cores; results identical for any N)\n\
         \x20 --seed S      base seed for per-point seed derivation\n\
         \x20 --json PATH   write machine-readable results JSON to PATH\n\
         \x20 --trace-out PATH  write a Perfetto/Chrome trace JSON of a representative point\n\
         \x20 --analyze-out PATH  write a derived-analytics (rtos-sld-analysis/1) JSON of that point\n\
         \x20 --cache-dir DIR   reuse cached point results (incremental sweeps; byte-identical)\n\
         \x20 --quiet       suppress human-readable tables\n\
         \x20 --help        print this message\n"
    );
    for (name, value, help) in extras {
        u.push_str(&format!("  --{name} {value}    {help}\n"));
    }
    u
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Parses `argv` (excluding the program name). Pure function for testing;
/// binaries use [`parse`].
///
/// # Errors
///
/// Returns [`CliError::Help`] on `--help` and [`CliError::Invalid`] on an
/// unknown flag, a missing value, or an unparsable value.
pub fn parse_from(
    bin: &str,
    about: &str,
    default_seed: u64,
    extras: &[ExtraFlag],
    argv: &[String],
) -> Result<Args, CliError> {
    let usage_text = usage(bin, about, extras);
    let invalid = |msg: String| CliError::Invalid(msg, usage_text.clone());
    let mut args = Args {
        frames: None,
        jobs: default_jobs(),
        seed: default_seed,
        json: None,
        trace_out: None,
        analyze_out: None,
        cache_dir: None,
        quiet: false,
        extras: BTreeMap::new(),
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        // Accept `--flag value` and `--flag=value`.
        let (flag, mut inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
            inline
                .take()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| invalid(format!("{flag} requires a value")))
        };
        match flag {
            "--help" | "-h" => return Err(CliError::Help(usage_text)),
            "--quiet" | "-q" => args.quiet = true,
            "--frames" => {
                let v = value(&mut it)?;
                args.frames = Some(
                    v.parse()
                        .map_err(|_| invalid(format!("--frames {v}: expected a count")))?,
                );
            }
            "--jobs" | "-j" => {
                let v = value(&mut it)?;
                let n: usize = v
                    .parse()
                    .map_err(|_| invalid(format!("--jobs {v}: expected a count")))?;
                if n == 0 {
                    return Err(invalid("--jobs must be >= 1".into()));
                }
                args.jobs = n;
            }
            "--seed" => {
                let v = value(&mut it)?;
                args.seed = v
                    .parse()
                    .map_err(|_| invalid(format!("--seed {v}: expected a u64")))?;
            }
            "--json" => {
                args.json = Some(PathBuf::from(value(&mut it)?));
            }
            "--trace-out" => {
                args.trace_out = Some(PathBuf::from(value(&mut it)?));
            }
            "--analyze-out" => {
                args.analyze_out = Some(PathBuf::from(value(&mut it)?));
            }
            "--cache-dir" => {
                args.cache_dir = Some(PathBuf::from(value(&mut it)?));
            }
            other => {
                let extra = extras
                    .iter()
                    .find(|(name, _, _)| other.strip_prefix("--") == Some(*name));
                match extra {
                    Some((name, _, _)) => {
                        let v = value(&mut it)?;
                        args.extras.insert(name, v);
                    }
                    None => return Err(invalid(format!("unknown flag `{other}`"))),
                }
            }
        }
    }
    Ok(args)
}

/// Parses the process argv; prints usage and exits on `--help` (code 0)
/// or on a bad flag (code 2).
#[must_use]
pub fn parse(bin: &str, about: &str, default_seed: u64, extras: &[ExtraFlag]) -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_from(bin, about, default_seed, extras, &argv) {
        Ok(args) => args,
        Err(CliError::Help(u)) => {
            print!("{u}");
            std::process::exit(0);
        }
        Err(CliError::Invalid(msg, u)) => {
            eprint!("error: {msg}\n\n{u}");
            std::process::exit(2);
        }
    }
}

/// One point of a [`SweepApp`] sweep: the scenario to run plus the
/// metadata describing it in the results document.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Point name in the results document (defaults to the spec's name;
    /// override with [`named`](Self::named) when the document name
    /// differs, as in `chaos`).
    pub name: String,
    /// The scenario to run.
    pub spec: ScenarioSpec,
    /// The point's JSON `params` object, in insertion order.
    pub params: Vec<(String, Json)>,
    /// When set, the spec's own pre-baked seed is used for running,
    /// caching and tracing (paired-sampling sweeps like `schedulers`);
    /// otherwise the farm derives the per-point seed from the base seed
    /// and point index.
    pub prebaked_seed: bool,
}

impl SweepPoint {
    /// A point named after its spec.
    #[must_use]
    pub fn new(spec: ScenarioSpec) -> Self {
        SweepPoint {
            name: spec.name.clone(),
            spec,
            params: Vec::new(),
            prebaked_seed: false,
        }
    }

    /// Overrides the document point name.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Appends one `params` entry.
    #[must_use]
    pub fn param(mut self, key: impl Into<String>, value: Json) -> Self {
        self.params.push((key.into(), value));
        self
    }

    /// Marks the spec's own seed as authoritative (no per-index
    /// derivation).
    #[must_use]
    pub fn prebaked(mut self) -> Self {
        self.prebaked_seed = true;
        self
    }

    /// The seed this point actually runs under, given the farm-derived
    /// per-index seed.
    #[must_use]
    pub fn effective_seed(&self, derived: u64) -> u64 {
        if self.prebaked_seed {
            self.spec.seed
        } else {
            derived
        }
    }
}

/// Everything [`SweepApp::run`] produced: the per-point outcomes (in
/// point order, `--jobs`-independent), the sweep wall time, and the
/// opened result cache (when `--cache-dir` was passed).
#[derive(Debug)]
pub struct SweepRun {
    /// Per-point results, in point order.
    pub outcomes: Vec<PointResult<ScenarioOutcome>>,
    /// Host wall clock of the whole sweep.
    pub wall: Duration,
    cache: Option<ScenarioCache>,
}

impl SweepRun {
    /// The cache's one-line stdout summary, if a cache was active.
    #[must_use]
    pub fn cache_summary(&self) -> Option<String> {
        self.cache.as_ref().map(ScenarioCache::summary)
    }

    /// The active cache, if any (tests use this to inspect counters).
    #[must_use]
    pub fn cache(&self) -> Option<&ScenarioCache> {
        self.cache.as_ref()
    }
}

/// The shared skeleton of every sweep binary: farm execution (optionally
/// watchdog-guarded and cache-accelerated), the farm/cache summary
/// lines, the `--json` results document and the `--trace-out` export.
///
/// ```no_run
/// use bench::cli::{self, SweepApp, SweepPoint};
/// use bench::json::Json;
/// use bench::scenario::{ScenarioSpec, Workload};
///
/// let args = cli::parse("demo", "a demo sweep", 0xD, &[]);
/// let points: Vec<SweepPoint> = (0..4)
///     .map(|i| {
///         SweepPoint::new(ScenarioSpec::new(
///             format!("p{i}"),
///             Workload::VocoderArchitecture,
///         ))
///         .param("i", Json::U64(i))
///     })
///     .collect();
/// let app = SweepApp::new("demo", args);
/// let run = app.run(&points);
/// // ... print bench-specific tables from run.outcomes ...
/// app.finish(&points, &run, |_doc| {});
/// ```
#[derive(Debug)]
pub struct SweepApp {
    bench: &'static str,
    /// The parsed command line (public: binaries read `frames`, `quiet`,
    /// extras, …).
    pub args: Args,
    headers: Vec<(String, Json)>,
    watchdog: Option<Duration>,
    trace_point: usize,
    runner: Option<(&'static str, PointRunner)>,
}

impl SweepApp {
    /// A driver for the binary named `bench` (the document's `bench`
    /// field) with the given parsed arguments.
    #[must_use]
    pub fn new(bench: &'static str, args: Args) -> Self {
        SweepApp {
            bench,
            args,
            headers: Vec::new(),
            watchdog: None,
            trace_point: 0,
            runner: None,
        }
    }

    /// Appends a document header field.
    #[must_use]
    pub fn header(mut self, key: impl Into<String>, value: Json) -> Self {
        self.headers.push((key.into(), value));
        self
    }

    /// Guards every point with a per-point wall-clock watchdog
    /// ([`crate::farm::run_sweep_guarded_cached`]) — for sweeps whose
    /// points can hang under injected faults.
    #[must_use]
    pub fn watchdog(mut self, timeout: Duration) -> Self {
        self.watchdog = Some(timeout);
        self
    }

    /// Runs every point through `runner` instead of
    /// [`ScenarioSpec::run`]. `name` keys the runner's cache entries
    /// apart from plain runs of the same specs.
    #[must_use]
    pub fn runner(mut self, name: &'static str, runner: PointRunner) -> Self {
        self.runner = Some((name, runner));
        self
    }

    /// Selects which point `--trace-out` re-runs traced (default 0).
    #[must_use]
    pub fn trace_point(mut self, index: usize) -> Self {
        self.trace_point = index;
        self
    }

    /// Executes the sweep on the farm. With `--cache-dir`, each point is
    /// answered from the content-addressed cache when possible and every
    /// fresh completed outcome is recorded; degraded points are never
    /// cached. Results are in point order and byte-identical for any
    /// `--jobs` and any cache state.
    #[must_use]
    pub fn run(&self, points: &[SweepPoint]) -> SweepRun {
        let cache = self.args.cache_dir.as_ref().map(|dir| {
            let cache = ScenarioCache::open(dir).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            });
            match self.runner {
                Some((name, _)) => cache.for_runner(name),
                None => cache,
            }
        });
        let lookup = |ctx: PointCtx, p: &SweepPoint| {
            cache
                .as_ref()
                .and_then(|c| c.lookup_spec(&p.spec, p.effective_seed(ctx.seed)))
        };
        let insert = |ctx: PointCtx, p: &SweepPoint, r: &ScenarioOutcome| {
            if let Some(c) = cache.as_ref() {
                c.insert_spec(&p.spec, p.effective_seed(ctx.seed), r);
            }
        };
        let hooks = cache.as_ref().map(|_| CacheHooks {
            lookup: &lookup,
            insert: &insert,
        });
        let run_one = self
            .runner
            .map_or(ScenarioSpec::run as PointRunner, |(_, r)| r);
        let runner = move |ctx: PointCtx, p: &SweepPoint| {
            if p.prebaked_seed {
                run_one(&p.spec)
            } else {
                run_one(&p.spec.clone().seeded(ctx.seed))
            }
        };
        let started = Instant::now();
        let outcomes = match self.watchdog {
            Some(timeout) => run_sweep_guarded_cached(
                self.args.seed,
                self.args.jobs,
                timeout,
                points,
                hooks,
                runner,
            ),
            None => run_sweep_cached(self.args.seed, self.args.jobs, points, hooks, runner),
        };
        SweepRun {
            outcomes,
            wall: started.elapsed(),
            cache,
        }
    }

    /// The shared epilogue: farm/cache summary lines (unless `--quiet`),
    /// the `--json` document (headers, points and degraded entries in
    /// point order, then whatever `aggregates` appends), and the
    /// `--trace-out` export of the representative point. Exits nonzero if
    /// the document cannot be written.
    pub fn finish(
        &self,
        points: &[SweepPoint],
        run: &SweepRun,
        aggregates: impl FnOnce(&mut ResultsDoc),
    ) {
        if !self.args.quiet {
            match self.watchdog {
                Some(wd) => println!(
                    "\nfarm: {} points, jobs={}, watchdog {} ms, wall {}",
                    points.len(),
                    self.args.jobs,
                    wd.as_millis(),
                    crate::fmt_host(run.wall)
                ),
                None => println!(
                    "\nfarm: {} points, jobs={}, wall {}",
                    points.len(),
                    self.args.jobs,
                    crate::fmt_host(run.wall)
                ),
            }
            if let Some(summary) = run.cache_summary() {
                println!("{summary}");
            }
        }

        write_json(&self.args, || {
            let mut doc = ResultsDoc::new(self.bench, self.args.seed);
            for (k, v) in &self.headers {
                doc.header(k.clone(), v.clone());
            }
            for (i, (p, outcome)) in points.iter().zip(&run.outcomes).enumerate() {
                match outcome {
                    PointResult::Completed(o) => {
                        doc.push_point(&p.name, i, Json::Obj(p.params.clone()), o);
                    }
                    PointResult::Degraded(d) => {
                        doc.push_degraded(d);
                    }
                }
            }
            aggregates(&mut doc);
            doc
        });

        if let Some(p) = points.get(self.trace_point) {
            let seed = p.effective_seed(derive_seed(self.args.seed, self.trace_point as u64));
            crate::trace::write_trace_outputs(&self.args, || {
                p.spec.clone().trace(true).run_seeded(seed).records
            });
        }
    }
}

/// Writes a bin's `--json` results document, which `doc` builds only
/// when the flag is set. With [`crate::trace::write_trace_outputs`] this
/// is the one epilogue every bench bin ends with. Exits the process with
/// status 1 when the file cannot be written.
pub fn write_json(args: &Args, doc: impl FnOnce() -> ResultsDoc) {
    if let Some(path) = &args.json {
        write_or_exit(
            path,
            &doc().to_json(),
            args.quiet,
            format!("wrote {}", path.display()),
        );
    }
}

/// Writes `doc` to `path` and prints `done` unless `quiet`; exits the
/// process with status 1 when the file cannot be written.
pub(crate) fn write_or_exit(path: &Path, doc: &Json, quiet: bool, done: String) {
    match doc.write_to(path) {
        Ok(()) if !quiet => println!("{done}"),
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn defaults_and_core_flags() {
        let a = parse_from("t", "about", 7, &[], &argv(&[])).unwrap();
        assert_eq!(a.seed, 7);
        assert!(a.jobs >= 1);
        assert!(a.frames.is_none() && a.json.is_none() && !a.quiet);
        assert!(a.trace_out.is_none());

        let a = parse_from(
            "t",
            "about",
            7,
            &[],
            &argv(&[
                "--frames",
                "5",
                "--jobs=3",
                "--seed",
                "9",
                "--json",
                "o.json",
                "--trace-out",
                "t.json",
                "-q",
            ]),
        )
        .unwrap();
        assert_eq!(a.frames, Some(5));
        assert_eq!(a.jobs, 3);
        assert_eq!(a.seed, 9);
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("o.json")));
        assert_eq!(a.trace_out.as_deref(), Some(std::path::Path::new("t.json")));
        assert!(a.quiet);
    }

    #[test]
    fn unknown_flag_is_rejected_with_usage() {
        let e = parse_from("t", "about", 0, &[], &argv(&["--bogus"])).unwrap_err();
        match e {
            CliError::Invalid(msg, usage) => {
                assert!(msg.contains("--bogus"), "{msg}");
                assert!(usage.contains("--jobs"), "{usage}");
            }
            CliError::Help(_) => panic!("expected Invalid"),
        }
    }

    #[test]
    fn extras_are_declared_per_binary() {
        let extras = [("sets", "N", "random sets per point")];
        let a = parse_from("t", "about", 0, &extras, &argv(&["--sets", "4"])).unwrap();
        assert_eq!(a.extra_or("sets", 10usize), 4);
        assert_eq!(a.extra_or("missing", 10usize), 10);
        // Undeclared extras are still rejected.
        assert!(parse_from("t", "about", 0, &[], &argv(&["--sets", "4"])).is_err());
    }

    #[test]
    fn bad_values_are_rejected() {
        assert!(parse_from("t", "a", 0, &[], &argv(&["--jobs", "0"])).is_err());
        assert!(parse_from("t", "a", 0, &[], &argv(&["--frames", "x"])).is_err());
        assert!(parse_from("t", "a", 0, &[], &argv(&["--seed"])).is_err());
        assert!(matches!(
            parse_from("t", "a", 0, &[], &argv(&["--help"])),
            Err(CliError::Help(_))
        ));
    }
}
