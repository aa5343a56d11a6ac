//! `slicebench`: one workload per invocation, measured from outside.
//!
//! ```text
//! slicebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! slicebench compare <result_a.json> <result_b.json>
//! ```
//!
//! The last line of standard output is the result object the driver reads;
//! everything meant for people goes to standard error and to `<dir>`.

mod harness;
mod loadgen;
mod models;
mod probes;
mod prom;
mod record;
mod report;
mod runner;
mod spans;
mod stats;
mod sys;
mod workloads;

use harness::Args;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: slicebench --workload <infer_ladder|train_sliced|wire_staircase|fleet_flash> \
--seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--shard-bin <path>]
       slicebench compare <result_a.json> <result_b.json>";

struct Cli {
    args: Args,
    out_dir: PathBuf,
    shard_bin: PathBuf,
}

fn parse() -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut shard_bin = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out" => out_dir = PathBuf::from(value),
            "--shard-bin" => shard_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    // The shard binary is named explicitly, never searched for: by default
    // it is the `shard_server` built next to this executable.
    let shard_bin = match shard_bin {
        Some(p) => p,
        None => std::env::current_exe()
            .map_err(|e| format!("cannot locate this executable: {e}"))?
            .with_file_name("shard_server"),
    };
    Ok(Cli {
        args: Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
        out_dir,
        shard_bin,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.len() == 4 && argv[1] == "compare" {
        return match report::compare(argv[2].as_ref(), argv[3].as_ref()) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("slicebench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("slicebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    sys::install_interrupt_handler();
    sys::CpuSplit::get();
    if cli.args.trace {
        spans::enable();
    }
    let args = &cli.args;
    let outcome = match args.workload.as_str() {
        "infer_ladder" => workloads::infer_ladder::run(args),
        "train_sliced" => workloads::train_sliced::run(args),
        "wire_staircase" => workloads::wire_staircase::run(args),
        "fleet_flash" => workloads::fleet_flash::run(args, &cli.shard_bin),
        other => {
            eprintln!("slicebench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if sys::interrupted() {
        eprintln!("slicebench: interrupted; no result");
        return ExitCode::from(130);
    }
    match report::finish(&cli.args, outcome, &cli.out_dir, &cli.shard_bin) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("slicebench: {e}");
            ExitCode::FAILURE
        }
    }
}
