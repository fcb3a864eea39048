//! Benchmark runner for the FF and EMB mapping flows and the mapping
//! daemon.
//!
//! ```text
//! perfbench --workload <paper-ff|paper-emb|corpus-service> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. Untraced runs (`--trace 0`) print the
//! end-to-end metrics, traced runs (`--trace 1`) the per-layer metrics;
//! either way the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`, preceded by a human-readable
//! summary. Any failed op or output check makes the run incorrect and
//! the exit code 1. See `README.md` beside this crate for what each
//! workload and metric measures.

mod calib;
mod metrics;
mod paper;
mod replay;
mod service;
mod stats;
mod trace;

use metrics::{RunResult, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Environment knobs the library reads; cleared so that every run
/// measures the same configuration whatever the caller's environment.
const LIBRARY_KNOBS: &[&str] = &[
    "FLOW_CACHE",
    "FLOW_CACHE_DIR",
    "FLOW_CACHE_MAX_BYTES",
    "MAP_BACKEND",
    "PLACE_TIMING_WEIGHT",
    "PLACE_CRIT_EXP",
    "PLACE_RETIME_INTERVAL",
    "FABRIC_MAX_INFLIGHT",
    "FABRIC_REQUEST_TIMEOUT_MS",
    "FABRIC_IDLE_TIMEOUT_MS",
    "FABRIC_CHAOS_SEED",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2004u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// This run's scratch directory, inside the benchmark's own directory.
fn work_dir(workload: &str) -> PathBuf {
    Path::new(".work").join(format!("{workload}-{}", std::process::id()))
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Relative paths (the daemon socket, the work directory) resolve in
    // the benchmark's directory, which keeps the socket path short.
    if let Err(e) = std::env::set_current_dir(env!("CARGO_MANIFEST_DIR")) {
        eprintln!("perfbench: entering the benchmark directory: {e}");
        std::process::exit(2);
    }
    // The cache configuration is read once per process, on the first
    // cache access: set it before any library call.
    for knob in LIBRARY_KNOBS {
        std::env::remove_var(knob);
    }
    let work = work_dir(&args.workload);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: creating {}: {e}", work.display());
        std::process::exit(2);
    }
    let spans = Path::new(".work").join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    let result = match args.workload.as_str() {
        "paper-ff" | "paper-emb" => {
            std::env::set_var("FLOW_CACHE", "0");
            let which = if args.workload == "paper-ff" {
                paper::Paper::Ff
            } else {
                paper::Paper::Emb
            };
            if args.trace {
                paper::run_traced(which, args.seed, args.seconds, &spans)
            } else {
                paper::run(which, args.seed, args.seconds, process_start)
            }
        }
        "corpus-service" => service::run(
            args.seed,
            args.seconds,
            args.trace,
            &work,
            &spans,
            process_start,
        ),
        other => {
            eprintln!("perfbench: unknown workload {other} (paper-ff, paper-emb, corpus-service)");
            let _ = std::fs::remove_dir_all(&work);
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    std::process::exit(report(&args, &result));
}

/// Prints the summary and the result line; returns the exit code.
fn report(args: &Args, r: &RunResult) -> i32 {
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for &(name, unit) in catalogue {
        let v = r.metrics.get(name).copied().unwrap_or(f64::NAN);
        println!("  {name:<26} {v:>16.4} {unit}");
    }
    for note in &r.notes {
        println!("  {note}");
    }
    for p in &r.problems {
        println!("  FAILED: {p}");
    }
    println!("  ops attempted {} failed {}", r.attempted, r.failed);
    if r.attempted == 0 {
        eprintln!("perfbench: no op was attempted");
        return 1;
    }
    match metrics::render(&r.metrics, catalogue) {
        Ok(json) => {
            let correct = r.correct();
            println!(
                "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
                r.attempted, r.failed
            );
            i32::from(!correct)
        }
        Err(e) => {
            eprintln!("perfbench: incomplete measurement: {e}");
            1
        }
    }
}
