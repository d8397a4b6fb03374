//! `strbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one benchmark run from the current directory (trees, artifact
//! stores and trace output go under `.strbench/`) and prints the result
//! as one JSON object on the last line of standard output. Exit code 0
//! when every check passed, 1 when a check failed, 2 on bad usage or an
//! I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use strbench::{run, Options, Size, WORKLOADS};

const USAGE: &str = "usage: strbench --workload NAME --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size: Size::Full,
        work: PathBuf::from(".strbench"),
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("strbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "strbench: {} seed {} — {} round(s), {} operation(s), {} failed",
        opts.workload, opts.seed, outcome.rounds, outcome.attempted, outcome.failed
    );
    for (i, (scan, refresh)) in outcome.samples.iter().enumerate() {
        eprintln!("strbench: round {i}: scan {scan:.3}s, refresh {refresh:.3}s");
    }
    if let Some(e) = &outcome.error {
        eprintln!("strbench: check failed: {e}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
