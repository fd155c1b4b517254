//! `citybench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. A traced run first repeats the workload untraced with the
//! same seed, and reports the difference as `trace.overhead_pct`.
//!
//! Results are written only under `--out-dir`: the result record, the span
//! file of a traced run, and a work directory for pane logs that is
//! removed before exit.

use citybench::outcome::{result_line, Outcome, END_TO_END, PER_LAYER};
use citybench::{run, Settings, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out_dir) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out_dir: out_dir.ok_or("--out-dir is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("citybench: {e}");
            return ExitCode::from(2);
        }
    };
    let work_dir = args.out_dir.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("citybench: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds,
        work_dir: work_dir.clone(),
    };
    let mut outcome = run_workload(&args.workload, &settings, args.trace);
    let _ = std::fs::remove_dir_all(&work_dir);

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if args.trace {
        let spans = args.out_dir.join(format!("{stem}.spans.tsv"));
        match outcome.tracer.write_spans(&spans) {
            Ok(()) => println!("# spans: {}", spans.display()),
            Err(e) => outcome.problems.push(format!("writing spans failed: {e}")),
        }
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut problems = std::mem::take(&mut outcome.problems);
    let line = result_line(&outcome, names, &mut problems);

    println!("# machine.cores {cores}");
    println!("# config {}", outcome.config);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for problem in &problems {
        println!("# problem: {problem}");
    }
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"machine\": {{\"cores\": {cores}}}, \"config\": {}, \"result\": {line}}}\n",
        args.workload, args.seed, args.seconds, args.trace, outcome.config
    );
    if let Err(e) = std::fs::write(args.out_dir.join(format!("{stem}.json")), record) {
        eprintln!("citybench: writing the result record failed: {e}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}

/// Runs the workload; traced, it first runs it untraced with the same seed
/// and adds the tracing overhead on the workload's headline metric.
fn run_workload(name: &str, settings: &Settings, trace: bool) -> Outcome {
    let run_once = |traced| run(name, settings, traced).expect("workload validated by parse");
    if !trace {
        return run_once(false);
    }
    let plain = run_once(false);
    let mut traced = run_once(true);
    let (metric, base, higher_is_better) = plain.headline;
    let with_trace = traced.headline.1;
    let overhead_pct = if higher_is_better {
        (base / with_trace - 1.0) * 100.0
    } else {
        (with_trace / base - 1.0) * 100.0
    };
    traced.notes.push(format!(
        "trace overhead on {metric}: untraced {base:.4}, traced {with_trace:.4}"
    ));
    traced.problems.extend(
        plain
            .problems
            .into_iter()
            .map(|p| format!("untraced run: {p}")),
    );
    traced.per_layer.push(("trace.overhead_pct", overhead_pct));
    traced
}
