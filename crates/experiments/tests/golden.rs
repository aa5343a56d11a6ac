//! Pins the paper's evaluation bit for bit: every entry of the runner's
//! table runs at quick scale (`MS_QUICK=1`), and its report must equal the
//! one in `tests/golden/experiments_quick.json` at the workspace root, every
//! value to the last bit.
//!
//! A change that moves the bits on purpose replaces the golden with the
//! fresh reports this test writes on a mismatch, in the same diff, and says
//! why.

use ms_experiments::{Item, Report, Run, Table, EXPERIMENTS};
use std::collections::BTreeMap;

/// Every value of `report` with a path that names it, in print order.
fn leaves(report: &Report) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut headline = String::new();
    let table = |out: &mut Vec<_>, t: &Table, headline: &str| {
        let at = format!("table '{}'", t.title.as_deref().unwrap_or(headline));
        out.push((format!("{at} rows"), format!("{:?}", t.rows)));
        for c in &t.columns {
            out.push((format!("{at} column '{}'", c.name), format!("{:?}", c.fmt)));
            for (row, v) in t.rows.iter().zip(&c.values) {
                out.push((
                    format!("{at} column '{}' row '{row}'", c.name),
                    format!("{v:?}"),
                ));
            }
        }
    };
    for (i, item) in report.items.iter().enumerate() {
        match item {
            Item::Title(text) => {
                headline = text.clone();
                out.push((format!("item {i}"), text.clone()));
            }
            Item::Line { text, scalars } => {
                out.push((format!("item {i}"), text.clone()));
                for s in scalars {
                    out.push((
                        format!("scalar '{}' ({:?})", s.name, s.fmt),
                        format!("{:?}", s.value),
                    ));
                }
            }
            Item::Table(t) | Item::Record(t) => table(&mut out, t, &headline),
            Item::Heat(rows) => {
                for (g, row) in rows.iter().enumerate() {
                    for (e, v) in row.iter().enumerate() {
                        out.push((
                            format!("heat map under '{headline}' G{} epoch {}", g + 1, e + 1),
                            format!("{v:?}"),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// The first value where `fresh` departs from `golden`, named.
fn first_difference(golden: &Report, fresh: &Report) -> Option<String> {
    let (g, f) = (leaves(golden), leaves(fresh));
    for i in 0..g.len().max(f.len()) {
        match (g.get(i), f.get(i)) {
            (Some(a), Some(b)) if a == b => {}
            (Some((path, a)), Some((_, b))) => return Some(format!("{path}: golden {a}, got {b}")),
            (Some((path, a)), None) => return Some(format!("{path}: golden {a}, got nothing")),
            (None, Some((path, b))) => return Some(format!("{path}: not in the golden, got {b}")),
            (None, None) => unreachable!(),
        }
    }
    None
}

#[test]
fn every_experiment_reproduces_its_golden_report() {
    let golden: BTreeMap<String, Report> =
        serde_json::from_str(include_str!("../../../tests/golden/experiments_quick.json"))
            .expect("the golden parses");
    // Two workers take the experiments in table order; the bits do not
    // depend on which thread runs an experiment or what runs beside it.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let fresh: BTreeMap<String, Report> = std::thread::scope(|s| {
        let worker = || {
            let mut done = Vec::new();
            while let Some(e) =
                EXPERIMENTS.get(next.fetch_add(1, std::sync::atomic::Ordering::Relaxed))
            {
                done.push((e.name.to_string(), (e.run)(&Run { quick: true })));
            }
            done
        };
        let workers = [s.spawn(worker), s.spawn(worker)];
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("an experiment panicked"))
            .collect()
    });
    let mut failures: Vec<String> = golden
        .keys()
        .filter(|name| !fresh.contains_key(*name))
        .map(|name| format!("{name}: in the golden, not in the runner's table"))
        .collect();
    for (name, report) in &fresh {
        match golden.get(name) {
            None => failures.push(format!("{name}: not in the golden")),
            Some(g) => failures.extend(first_difference(g, report).map(|d| format!("{name}: {d}"))),
        }
    }
    if !failures.is_empty() {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("experiments_quick.json");
        let json = serde_json::to_string_pretty(&fresh).expect("reports serialise");
        std::fs::write(&path, json + "\n").expect("write the fresh reports");
        panic!(
            "{} of {} experiments differ from tests/golden/experiments_quick.json:\n  {}\n\
             fresh reports: {}",
            failures.len(),
            fresh.len(),
            failures.join("\n  "),
            path.display()
        );
    }
}
