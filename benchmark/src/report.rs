//! Turns an [`Outcome`] into the result line, the table people read, and
//! the files under `out/`.

use crate::harness::{Args, Outcome};
use crate::record::{self, E2e};
use crate::{probes, spans, stats, sys};
use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics in print order: `(name, unit, higher is better,
/// bound)`. `BENCHMARK.json` carries the same table; a unit test keeps the
/// two in step.
pub const END_TO_END: [(&str, &str, bool, f64); 5] = [
    ("goodput_sps", "1/s", true, 0.25),
    ("served_macs_per_s", "MAC/s", true, 0.25),
    ("latency_tail_ms", "ms", false, 0.25),
    ("peak_rss_mb", "MiB", false, 0.15),
    ("setup_s", "s", false, 0.25),
];

fn json_metrics(values: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(*v)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// A JSON number with all its digits; non-finite values (which a correct
/// run never produces) become 0 so the line stays valid JSON.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub fn finish(
    args: &Args,
    mut out: Outcome,
    out_dir: &Path,
    shard_bin: &Path,
) -> Result<(), String> {
    let wall = out.marks.wall_s();
    let mut whole = record::e2e(&out.recs, &out.lp, wall, out.marks.cpu_s(), out.tail_q);
    let slices = out.marks.per_slice(&out.recs, &out.lp, out.tail_q);
    whole.latency_tail_ms = record::chunked_tail(&out.recs, out.tail_q);
    let setup_s = stats::median(&out.setup_s);
    let correct = out.errors.is_empty();
    for e in &out.errors {
        eprintln!("slicebench: CHECK FAILED: {e}");
    }

    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let fingerprint = sys::fingerprint_json();
    let head = format!(
        "\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"fingerprint\":{{{}}},\"attempted\":{},\"failed\":{},\"correct\":{}",
        args.workload, args.seed, args.seconds, args.trace, fingerprint, out.attempted, out.failed, correct
    );

    let metrics = if args.trace {
        let (recorded, dropped) = spans::take();
        span_layer_metrics(&recorded, &mut out.layer);
        out.layer
            .insert("bench.latency_p50_ms", whole.latency_p50_ms);
        out.layer
            .insert("bench.hits_per_cpu_s", whole.hits_per_cpu_s);
        let span_cost_ns = probes::span_cost_ns();
        out.layer.insert(
            "bench.trace_overhead_frac",
            recorded.len() as f64 * span_cost_ns / (wall * 1e9),
        );
        // What the run itself measured wins over a probe of the same name;
        // a layer neither entered did no work and reads 0.
        let mut measured = probes::run_all(args.seed, shard_bin)?;
        measured.append(&mut out.layer);
        let layer: Vec<_> = probes::PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, measured.get(name).copied().unwrap_or(0.0)))
            .collect();
        print_layer_table(args, &layer);
        let extra = format!("{head},\"per_layer\":{}", json_metrics(&layer));
        let path = out_dir.join(format!("trace_{}.json", args.workload));
        std::fs::write(&path, spans::chrome_trace_json(&recorded, dropped, &extra))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("trace written to {}", path.display());
        json_metrics(&layer)
    } else {
        let values = e2e_values(&whole, setup_s);
        print_e2e_table(args, &out, &values, &slices);
        let metrics = json_metrics(&values);
        let path = out_dir.join(format!("result_{}.json", args.workload));
        // No gain is claimed here: this file is the instrument, not a result.
        let body = format!(
            "{{{head},\"wall_s\":{},\"setup_runs_s\":{:?},\"tail_percentile\":{},\"end_to_end\":{metrics},\"claim\":null}}\n",
            number(wall),
            out.setup_s,
            out.tail_q
        );
        std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
        metrics
    };

    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        out.attempted, out.failed
    );
    if correct {
        Ok(())
    } else {
        Err(format!("{} output checks failed", out.errors.len()))
    }
}

/// The value of end-to-end metric `name` in a result file this program wrote.
fn metric_in(text: &str, name: &str) -> Option<f64> {
    let after = text.split(&format!("\"{name}\":{{\"value\":")).nth(1)?;
    after.split(',').next()?.parse().ok()
}

/// Compares two result files of the same workload: prints, per end-to-end
/// metric, by what share the second is worse than the first beside the
/// bound it has to stay within. `Ok(true)` when every metric does.
pub fn compare(first: &Path, second: &Path) -> Result<bool, String> {
    let read =
        |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()));
    let (a, b) = (read(first)?, read(second)?);
    let mut all_within = true;
    println!(
        "{:<20} {:>16} {:>16} {:>9} {:>7}",
        "metric", "first", "second", "worse by", "bound"
    );
    for &(name, _, higher, bound) in &END_TO_END {
        let (va, vb) = match (metric_in(&a, name), metric_in(&b, name)) {
            (Some(va), Some(vb)) => (va, vb),
            _ => {
                return Err(format!(
                    "{name} missing from {} or {}",
                    first.display(),
                    second.display()
                ))
            }
        };
        let worse = stats::worse_by(higher, va, vb);
        let verdict = if worse <= bound { "" } else { "  EXCEEDS" };
        all_within &= worse <= bound;
        println!(
            "{name:<20} {va:>16.4} {vb:>16.4} {:>8.2}% {:>6.0}%{verdict}",
            worse * 100.0,
            bound * 100.0
        );
    }
    Ok(all_within)
}

fn e2e_values(whole: &E2e, setup_s: f64) -> Vec<(&'static str, &'static str, f64)> {
    let mut by_name: BTreeMap<&str, f64> = E2e::NAMES.into_iter().zip(whole.values()).collect();
    by_name.insert("peak_rss_mb", sys::peak_rss_mb());
    by_name.insert("setup_s", setup_s);
    END_TO_END
        .iter()
        .map(|&(name, unit, _, _)| (name, unit, by_name[name]))
        .collect()
}

/// Every end-to-end metric by name with unit, bound and sample count, and
/// beside it the quartiles of the ten slices of the timed section, so the
/// noise inside one run is visible next to the bound it has to stay under.
fn print_e2e_table(args: &Args, out: &Outcome, values: &[(&str, &str, f64)], slices: &[E2e]) {
    let delivered = out.recs.iter().filter(|r| r.lat_ms.is_finite()).count();
    let chunk = record::tail_chunk(out.tail_q);
    // Ten chunks or more: a tenth of the run supports the percentile.
    if stats::tail_quantile(delivered / record::SLICES).is_none_or(|q| q < out.tail_q) {
        eprintln!(
            "slicebench: warning: only {} chunks of {chunk} operations; the run is too short for a tail at p{}",
            delivered / chunk,
            out.tail_q * 100.0
        );
    }
    eprintln!(
        "\n== {} · seed {} · {:.2} s timed · {} ops, {} delivered · tail = median of p{} over {} chunks of {chunk} ops (10 samples beyond in each) ==",
        args.workload,
        args.seed,
        out.marks.wall_s(),
        out.recs.len(),
        delivered,
        out.tail_q * 100.0,
        delivered / chunk
    );
    eprintln!(
        "{:<20} {:>16} {:<6} {:>6}   slices: {:>12} {:>12} {:>12} {:>8}",
        "metric", "value", "unit", "bound", "q1", "median", "q3", "iqr/med"
    );
    for (&(name, unit, value), &(_, _, _, bound)) in values.iter().zip(END_TO_END.iter()) {
        let per_slice: Vec<f64> = match E2e::NAMES.iter().position(|n| *n == name) {
            Some(i) => slices.iter().map(|s| s.values()[i]).collect(),
            None if name == "setup_s" => out.setup_s.clone(),
            None => Vec::new(),
        };
        let noise = if per_slice.len() >= 2 {
            let [q1, q2, q3] = stats::quartiles(&per_slice);
            format!(
                "{q1:>12.4} {q2:>12.4} {q3:>12.4} {:>7.2}%",
                stats::spread(&per_slice) * 100.0
            )
        } else {
            format!("{:>12} {:>12} {:>12} {:>8}", "-", "-", "-", "-")
        };
        eprintln!(
            "{name:<20} {value:>16.4} {unit:<6} {:>5.0}%   slices: {noise}",
            bound * 100.0
        );
    }
    match &out.lp {
        record::Loop::Open => eprintln!("(the offered load changes across the slices of an open-loop run by design; only the tail's slice spread reads as noise)"),
        record::Loop::Closed { paths } => {
            for (p, cells) in paths.iter().enumerate() {
                let sps: Vec<String> = cells
                    .iter()
                    .filter_map(|&c| record::cell_sps(&out.recs, c))
                    .map(|v| format!("{v:.0}"))
                    .collect();
                eprintln!("path {p} samples/s per cell: {}", sps.join(" "));
            }
        }
    }
    eprintln!("attempted {} · failed {}", out.attempted, out.failed);
}

/// Percentiles of the span durations of calls made once per request or
/// per loop turn, as per-layer metrics.
fn span_layer_metrics(recorded: &[spans::Span], layer: &mut BTreeMap<&'static str, f64>) {
    let wanted = [
        ("cluster.dispatch_us_p50", "cluster.dispatch", 0.5, 1.0),
        ("cluster.dispatch_us_p99", "cluster.dispatch", 0.99, 1.0),
        ("cluster.pump_us_p50", "cluster.pump", 0.5, 1.0),
        (
            "cluster.control_tick_ms_p50",
            "cluster.control_tick",
            0.5,
            1e3,
        ),
        (
            "cluster.control_tick_ms_p99",
            "cluster.control_tick",
            0.99,
            1e3,
        ),
        ("net.send_us_p50", "net.send", 0.5, 1.0),
        ("net.send_us_p99", "net.send", 0.99, 1.0),
    ];
    for (metric, span, q, scale) in wanted {
        let d = stats::sorted(spans::durations_us(recorded, span));
        if !d.is_empty() {
            layer.insert(metric, stats::percentile(&d, q) / scale);
        }
    }
}

fn print_layer_table(args: &Args, layer: &[(&str, &str, f64)]) {
    eprintln!(
        "\n== {} · seed {} · per-layer (traced run) ==",
        args.workload, args.seed
    );
    for (name, unit, v) in layer {
        eprintln!("{name:<36} {v:>16.4} {unit}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    /// `{"name": "<name>", "unit": "<unit>", "better": "<dir>"` as the file spells it.
    fn entry(name: &str, unit: &str, higher: Option<bool>) -> String {
        let mut s = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        if let Some(h) = higher {
            s.push_str(&format!(
                ", \"better\": \"{}\"",
                if h { "higher" } else { "lower" }
            ));
        }
        s
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_printed() {
        let text = benchmark_json();
        for &(name, unit, higher, bound) in &END_TO_END {
            let want = format!("{}, \"bound\": {bound}}}", entry(name, unit, Some(higher)));
            assert!(
                text.contains(&want),
                "end_to_end entry missing or different: {want}"
            );
        }
        for &(name, unit) in &probes::PER_LAYER {
            assert!(
                text.contains(&entry(name, unit, None)),
                "per_layer entry missing: {name} [{unit}]"
            );
        }
        let listed = text.matches("{\"name\": \"").count();
        // Four workloads are listed with the same leading key.
        assert_eq!(listed, END_TO_END.len() + probes::PER_LAYER.len() + 4);
    }

    #[test]
    fn result_files_read_back() {
        let line = json_metrics(&[("goodput_sps", "1/s", 1234.5), ("setup_s", "s", 0.25)]);
        let file = format!("{{\"seed\":1,\"end_to_end\":{line},\"claim\":null}}");
        assert_eq!(metric_in(&file, "goodput_sps"), Some(1234.5));
        assert_eq!(metric_in(&file, "setup_s"), Some(0.25));
        assert_eq!(metric_in(&file, "latency_tail_ms"), None);
    }

    #[test]
    fn non_finite_values_keep_the_line_valid() {
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(1.25), "1.25");
        let line = json_metrics(&[("a", "ms", 1.5), ("b", "count", 2.0)]);
        assert_eq!(
            line,
            "{\"a\":{\"value\":1.5,\"unit\":\"ms\"},\"b\":{\"value\":2,\"unit\":\"count\"}}"
        );
    }
}
