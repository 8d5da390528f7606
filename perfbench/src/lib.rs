//! The repository's benchmark: four closed-loop workloads that time the
//! crates' public functions from outside, check every unit's simulated
//! statistics, and report end-to-end metrics (untraced run) or per-layer
//! metrics (traced run). See `NOTES.md` for the choice of workloads and
//! metrics.

pub mod affinity;
pub mod probes;
pub mod reference;
pub mod report;
pub mod spans;
pub mod sweep;
pub mod workloads;

use std::time::Instant;

use bench::json::Json;
use report::{peak_rss_mb, Outcome};
use spans::Spans;
use workloads::{Kind, Opts};

/// Runs one workload and writes its results document (and, when traced,
/// its span trace) to `opts.out_dir`. `process_start` is when the
/// process started, the start of the first set-up.
#[must_use]
pub fn run(opts: &Opts, process_start: Instant) -> Outcome {
    let spans = Spans::new(opts.trace);
    let mut out = Outcome::default();
    match opts.kind {
        Kind::VocoderArch => workloads::run_vocoder_arch(opts, process_start, &spans, &mut out),
        Kind::TasksetEdf => workloads::run_taskset_edf(opts, process_start, &spans, &mut out),
        Kind::IssImpl => workloads::run_iss_impl(opts, process_start, &spans, &mut out),
        Kind::Sweep => {
            sweep::run_sweep_workload(opts, process_start, &spans, &mut out, &mut |_| {})
        }
    }

    let name = opts.kind.name();
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        out.fail(format!("creating {}: {e}", opts.out_dir.display()));
    }
    if opts.trace {
        let path = opts.out_dir.join(format!("{name}-spans.json"));
        if let Err(e) = spans.write_chrome(&path) {
            out.fail(format!("writing {}: {e}", path.display()));
        }
    }
    out.set("peak_rss_mb", peak_rss_mb());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let headers = [
        ("workload", Json::str(name)),
        ("seconds", Json::Num(opts.measure.as_secs_f64())),
        ("nproc", Json::U64(nproc as u64)),
        ("one_cpu", Json::Bool(opts.kind.single())),
    ];
    let stem = if opts.trace { "layers" } else { "e2e" };
    let path = opts.out_dir.join(format!("{name}-{stem}.json"));
    if let Err(e) = out.write_doc(&path, name, opts.seed, opts.trace, &headers) {
        out.fail(format!("writing {}: {e}", path.display()));
    }
    out
}
