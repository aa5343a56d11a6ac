//! The experiment runner: `ms-experiments <name>...` (names from
//! [`ms_experiments::EXPERIMENTS`]), and `ms-experiments render`, which
//! rewrites EXPERIMENTS.md's measured blocks from `results/*.json`.

use ms_experiments::{render_blocks, Experiment, Report, Run, EXPERIMENTS};
use ms_telemetry::Flusher;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if names == ["render"] {
        render_doc(Path::new("EXPERIMENTS.md"), Path::new("results"));
        return;
    }
    let chosen: Option<Vec<&Experiment>> = names
        .iter()
        .map(|n| EXPERIMENTS.iter().find(|e| e.name == n))
        .collect();
    let Some(chosen) = chosen.filter(|c| !c.is_empty()) else {
        let all: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!(
            "usage: ms-experiments <name>...  (names: {})\n       ms-experiments render",
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
        print!("{}", report.render());
        if let Some(demo) = exp.demo {
            demo();
        }
        println!("elapsed: {:.1}s", start.elapsed().as_secs_f64());
        write_results(&results_path(exp.name, run.quick), &report);
    }
}

/// Rewrites the measured blocks of `doc` from the reports in `results`.
fn render_doc(doc: &Path, results: &Path) {
    let rendered = std::fs::read_to_string(doc)
        .map_err(|e| format!("{}: {e}", doc.display()))
        .and_then(|text| render_blocks(&text, results))
        .and_then(|text| std::fs::write(doc, text).map_err(|e| format!("{}: {e}", doc.display())));
    if let Err(e) = rendered {
        eprintln!("render: {e}");
        std::process::exit(1);
    }
}

/// Where a run's report goes: `results/<name>.json` for a full run, which
/// is committed, and the git-ignored `results/quick/<name>.json` for an
/// `MS_QUICK=1` run, so a quick run never overwrites a full one.
fn results_path(name: &str, quick: bool) -> PathBuf {
    let dir = if quick { "results/quick" } else { "results" };
    Path::new(dir).join(format!("{name}.json"))
}

/// Writes the report to `path`; a read-only checkout only prints.
fn write_results(path: &Path, report: &Report) {
    let json = serde_json::to_string_pretty(report).expect("a report serialises");
    let dir = path.parent().expect("a results path has a directory");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(path, json + "\n")) {
        eprintln!("warn: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quick_run_writes_beside_the_committed_results_not_over_them() {
        assert_eq!(results_path("fig6", false), Path::new("results/fig6.json"));
        assert_eq!(
            results_path("fig6", true),
            Path::new("results/quick/fig6.json")
        );
    }
}
