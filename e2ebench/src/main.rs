//! `ccam-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`. The human-readable
//! report goes to standard error and to `.bench_out/`.

use std::path::PathBuf;
use std::process::ExitCode;

use ccam_e2ebench::workload::Workload;
use ccam_e2ebench::{run, Options};

const USAGE: &str =
    "usage: ccam-e2ebench --workload lookup|traverse|update|build --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
        match a.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?)
            }
            "--seed" => seed = Some(v.parse().map_err(|_| format!("bad --seed {v}"))?),
            "--seconds" => {
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {v}")),
                })
            }
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny: false,
        out_dir: PathBuf::from(".bench_out"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&o) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
