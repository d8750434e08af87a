//! Command-line entry point:
//! `skewbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints host facts and every metric with its unit, then, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 0 only when every answer was correct.

use skewbench::run::{default_out_dir, run, RunConfig};
use skewbench::workload::{Spec, WORKLOADS};
use std::process::ExitCode;

fn usage(err: &str) -> ExitCode {
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("error: {err}");
    eprintln!(
        "usage: skewbench --workload <{}> --seed <u64> --seconds <secs> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Spec::named(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(spec), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required and valid");
    };
    let cfg = RunConfig {
        spec,
        seed,
        seconds,
        trace,
        out_dir: default_out_dir(),
    };
    match run(&cfg) {
        Ok(report) => {
            print!("{}", report.human());
            println!("{}", report.json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("correctness gate failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
