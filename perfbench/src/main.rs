//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload for `S` seconds of measured time and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The results
//! document (`rtos-sld-bench/1`) and, when traced, the span trace
//! (Chrome/Perfetto JSON) are written under `perfbench/out/`.
//!
//! `--print-reference` prints the reference lines of the default seed
//! for `src/reference.rs` instead of measuring.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::spans::Spans;
use perfbench::sweep;
use perfbench::workloads::{self as w, Kind, Opts, DEFAULT_SEED, REFERENCE_UNITS};

const USAGE: &str = "usage: perfbench --workload vocoder_arch|taskset_edf|sweep|iss_impl \
                     --seed N --seconds S --trace 0|1 [--print-reference]";

fn parse(args: &[String]) -> Result<(Opts, bool), String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut print_reference = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--print-reference" => print_reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    let reference = if seed == DEFAULT_SEED {
        perfbench::reference::lines(kind)
    } else {
        Vec::new()
    };
    let opts = Opts {
        kind,
        seed,
        measure: Duration::from_secs_f64(seconds),
        trace,
        reference,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    Ok((opts, print_reference))
}

fn print_reference(kind: Kind) {
    let lines = match kind {
        Kind::VocoderArch => (0..REFERENCE_UNITS)
            .map(|i| w::vocoder_unit(DEFAULT_SEED, i).map(|u| u.line))
            .collect::<Result<Vec<_>, _>>(),
        Kind::TasksetEdf => (0..REFERENCE_UNITS)
            .map(|i| w::taskset_unit(DEFAULT_SEED, i).map(|u| u.line))
            .collect(),
        Kind::IssImpl => w::iss_unit().map(|u| vec![u.line]),
        Kind::Sweep => {
            let points = sweep::sweep_points();
            let jobs = std::thread::available_parallelism().map_or(1, usize::from);
            let pass = sweep::sweep_pass(
                &points,
                DEFAULT_SEED,
                jobs,
                None,
                &Spans::new(false),
                0,
                "pass",
            );
            Ok(sweep::sweep_reference_lines(&pass))
        }
    };
    match lines {
        Ok(lines) => {
            for l in lines {
                println!("    {l:?},");
            }
        }
        Err(e) => eprintln!("error: {e}"),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, reference_only) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if reference_only {
        print_reference(opts.kind);
        return ExitCode::SUCCESS;
    }

    let out = perfbench::run(&opts, process_start);
    let name = opts.kind.name();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench {name} seed={} trace={} nproc={nproc}",
        opts.seed,
        u8::from(opts.trace)
    );
    for n in &out.notes {
        println!("{n}");
    }
    for (n, u, v) in out.reported(opts.trace) {
        println!("  {n:<24} {v:>14.4} {u}");
    }
    if out.failed > 0 {
        eprintln!("{} failed check(s); the first:", out.failed);
        for f in out.failures.iter().take(5) {
            eprintln!("  {f}");
        }
    }
    println!("{}", out.result_line(opts.trace));
    ExitCode::SUCCESS
}
