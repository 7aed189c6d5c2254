//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints each metric with its unit and sample count,
//! then the result as one JSON line. Exits 1 when a correctness check
//! failed and 2 on a usage error.

use p2pfl_perfbench::report::{json_line, WORKLOADS};
use p2pfl_perfbench::stats::{samples_beyond, supported_tail, TAIL_SAMPLES};
use p2pfl_perfbench::{run_workload, Run};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Flags a tail percentile its sample count does not support, naming the
/// highest one it does.
fn tail_note(name: &str, n: usize) -> String {
    let Some(p) = name
        .rsplit_once(".p")
        .and_then(|(_, p)| p.parse::<f64>().ok())
    else {
        return String::new();
    };
    if p <= 50.0 || n == 0 || samples_beyond(n, p) >= TAIL_SAMPLES {
        return String::new();
    }
    match supported_tail(n) {
        Some(t) => format!("  (fewer than {TAIL_SAMPLES} samples beyond p{p}; n supports p{t})"),
        None => format!("  (fewer than {TAIL_SAMPLES} samples beyond p{p})"),
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload={} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut run = Run::new(args.seed, args.seconds, args.trace);
    run_workload(&args.workload, &mut run).expect("workload name validated above");
    if args.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match run.tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "# {} spans written to {}",
                run.tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    let report = &mut run.report;
    let metrics = report.finish(args.trace);
    for (name, unit, v) in &metrics {
        println!(
            "{name:<36} {:>16.6} {unit:<6} n={}{}",
            v.value,
            v.samples,
            tail_note(name, v.samples)
        );
    }
    for f in &report.failures {
        println!("# CHECK FAILED: {f}");
    }
    let correct = report.correct();
    println!(
        "{}",
        json_line(correct, report.attempted.max(1), report.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
