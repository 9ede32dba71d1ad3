//! Seeded, answer-checked benchmark for register-saturation analysis.
//!
//! ```text
//! perfbench --workload <batch_heuristic|exact_intlp|serve_open_loop>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one readable line per metric, then one JSON result object as
//! the last line of standard output. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` runs the same workload with spans around every
//! call the benchmark makes into a layer and prints the per-layer
//! metrics. See `perfbench/README.md`.

mod batch;
mod exact;
mod gen;
mod oracle;
mod quality;
mod replay;
mod report;
mod serve;
mod stats;
mod trace;

use oracle::Oracle;
use report::{Report, END_TO_END, PER_LAYER};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Command-line arguments.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the median duration
/// in seconds with the last result; `release` disposes of the others.
pub fn time_setup<T>(mut setup: impl FnMut() -> T, mut release: impl FnMut(T)) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(prev) = last.take() {
            release(prev);
        }
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        stats::median(&times),
        last.expect("at least one set-up ran"),
    )
}

/// Writes the traced run's spans under `.perfbench_out/`.
pub fn write_spans(args: &Args, tr: &trace::Tracer) {
    let path = std::path::PathBuf::from(format!(
        ".perfbench_out/spans-{}-{}.jsonl",
        args.workload, args.seed
    ));
    match tr.write_jsonl(&path) {
        Ok(()) => println!("spans: {} written to {}", tr.spans().len(), path.display()),
        Err(e) => println!("spans: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut oracle = Oracle::new();
    let mut report = Report::default();
    match args.workload.as_str() {
        "batch_heuristic" => batch::run(&args, &mut oracle, &mut report),
        "exact_intlp" => exact::run(&args, &mut oracle, &mut report),
        "serve_open_loop" => serve::run(&args, &mut oracle, &mut report),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    }
    if args.trace {
        report.zero_unset_layers();
    } else {
        let t = Instant::now();
        let q = quality::guard(&mut oracle);
        println!(
            "guard corpus: {:.0} ms (untimed)",
            t.elapsed().as_secs_f64() * 1e3
        );
        let exact = format!("guard: {} DAGs of 10-16 ops", quality::GUARD_EXACT_DAGS);
        let reduce = format!("guard: {} DAGs of 16-39 ops", quality::GUARD_REDUCE_DAGS);
        report.set_noted("rs_gap_total", q.rs_gap_total as f64, exact);
        report.set_noted("cp_growth_total", q.cp_growth_total as f64, reduce.clone());
        report.set_noted("makespan_total", q.makespan_total as f64, reduce.clone());
        report.set_noted("spills_total", q.spills_total as f64, reduce);
        report.set_noted(
            "peak_rss_mb",
            report::peak_rss_mb(),
            "VmHWM of this process".into(),
        );
    }
    report.attempted = oracle.checked;
    report.failed = oracle.wrong;
    println!(
        "oracle: {} answers checked, {} wrong",
        oracle.checked, oracle.wrong
    );
    report.print(if args.trace { &PER_LAYER } else { &END_TO_END });
}
