//! The repository's benchmark: three workloads, end-to-end metrics from
//! untraced runs and per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <matrix_cold|noc_timed|serve_warm> --seed <n>
//!           --seconds <n> --trace <0|1> [--scale scaled|tiny]
//! ```
//!
//! Run it from the repository root (it reads the committed
//! `BENCH_results.json` and works under `.perfbench-work/`). Every metric is
//! printed with its unit; the last line of standard output is the JSON
//! result. See `perfbench/README.md` for what each workload and metric is
//! for.

mod batch;
mod inputs;
mod report;
mod serve;
mod spans;
mod stats;

use inputs::Scale;
use report::Report;
use std::path::{Path, PathBuf};

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

const USAGE: &str = "usage: perfbench --workload <matrix_cold|noc_timed|serve_warm> \
     --seed <n> --seconds <n> --trace <0|1> [--scale scaled|tiny]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Scaled,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, not `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "scaled" => Scale::Scaled,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad("scaled or tiny")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let (scale, seed, seconds) = (args.scale, args.seed, args.seconds);
    let mut report = match (args.workload.as_str(), args.trace) {
        ("matrix_cold", false) => batch::run(&batch::MATRIX_COLD, scale, seed, seconds, work)?,
        ("matrix_cold", true) => batch::run_traced(&batch::MATRIX_COLD, scale, seed, work)?,
        ("noc_timed", false) => batch::run(&batch::NOC_TIMED, scale, seed, seconds, work)?,
        ("noc_timed", true) => batch::run_traced(&batch::NOC_TIMED, scale, seed, work)?,
        ("serve_warm", false) => serve::run(scale, seed, seconds, work)?,
        ("serve_warm", true) => serve::run_traced(scale, seed, seconds, work)?,
        (other, _) => return Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    if !args.trace {
        let ok = 1.0 - report.failed() as f64 / report.attempted().max(1) as f64;
        report.metric("ok_ratio", ok, "ratio");
    }
    Ok(report)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    // Leave no empty parent behind; another run may still be using it.
    let _ = std::fs::remove_dir(".perfbench-work");
    match result {
        Ok(report) => print!("{}", report.render()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload noc_timed --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, "noc_timed");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 20.0);
        assert!(a.trace);
        assert_eq!(a.scale, Scale::Scaled);
    }

    #[test]
    fn rejects_bad_values_and_flags() {
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed -1").is_err());
        assert!(parse("--bogus 1").is_err());
        assert!(parse("--workload").is_err());
    }
}
