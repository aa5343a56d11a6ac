//! The experiment runner: `ms-experiments <name>...` (names from
//! [`ms_experiments::EXPERIMENTS`]).

use ms_experiments::{Experiment, Report, Run, EXPERIMENTS};
use ms_telemetry::Flusher;
use std::time::{Duration, Instant};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let chosen: Option<Vec<&Experiment>> = names
        .iter()
        .map(|n| EXPERIMENTS.iter().find(|e| e.name == n))
        .collect();
    let Some(chosen) = chosen.filter(|c| !c.is_empty()) else {
        let all: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!(
            "usage: ms-experiments <name>...  (names: {})",
            all.join(" ")
        );
        std::process::exit(2);
    };
    let run = Run {
        quick: std::env::var("MS_QUICK").is_ok_and(|v| v == "1"),
    };
    for exp in chosen {
        let start = Instant::now();
        // Trainer metrics, engine counters and pool hit/miss, dumped every
        // second and once more when dropped, so a killed run leaves a fresh
        // snapshot. `None` on a read-only checkout.
        let _telemetry = Flusher::start("results/logs", exp.name, Duration::from_secs(1));
        let report = (exp.run)(&run);
        report.print();
        if let Some(demo) = exp.demo {
            demo();
        }
        println!("elapsed: {:.1}s", start.elapsed().as_secs_f64());
        write_results(exp.name, &report);
    }
}

/// Writes `results/<name>.json`; a read-only checkout only prints.
fn write_results(name: &str, report: &Report) {
    let path = format!("results/{name}.json");
    let json = serde_json::to_string_pretty(report).expect("a report serialises");
    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|_| std::fs::write(&path, json + "\n"))
    {
        eprintln!("warn: could not write {path}: {e}");
    }
}
