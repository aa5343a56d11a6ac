//! Exposition: Prometheus text format, JSON snapshots, periodic flushing.
//!
//! Rendering walks the registry under its registration mutex (handles keep
//! recording concurrently; values are relaxed-atomic snapshots). Histogram
//! series emit only non-empty buckets — the log-linear layout has 802
//! buckets per series and a dump that carried all of them would be mostly
//! zeros.

use crate::registry::Registry;
use crate::spans;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", prom_escape(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_labels(labels: &[(String, String)]) -> String {
    let parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Registry {
    /// Renders every registered series in Prometheus text format 0.0.4.
    /// Span aggregates (when compiled in) are appended as
    /// `span_calls_total` / `span_total_seconds` / `span_self_seconds`
    /// series labeled by site name.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().expect("registry lock");
        let mut out = String::new();
        let mut last_name = String::new();
        for c in &inner.counters {
            let desc = &c.0.desc;
            if desc.name != last_name {
                if !desc.help.is_empty() {
                    let _ = writeln!(out, "# HELP {} {}", desc.name, prom_escape(&desc.help));
                }
                let _ = writeln!(out, "# TYPE {} counter", desc.name);
                last_name = desc.name.clone();
            }
            let _ = writeln!(
                out,
                "{}{} {}",
                desc.name,
                label_block(&desc.labels, None),
                c.get()
            );
        }
        last_name.clear();
        for g in &inner.gauges {
            let desc = &g.0.desc;
            if desc.name != last_name {
                if !desc.help.is_empty() {
                    let _ = writeln!(out, "# HELP {} {}", desc.name, prom_escape(&desc.help));
                }
                let _ = writeln!(out, "# TYPE {} gauge", desc.name);
                last_name = desc.name.clone();
            }
            let _ = writeln!(
                out,
                "{}{} {}",
                desc.name,
                label_block(&desc.labels, None),
                fmt_f64(g.get())
            );
        }
        last_name.clear();
        for h in &inner.histograms {
            let desc = &h.0.desc;
            if desc.name != last_name {
                if !desc.help.is_empty() {
                    let _ = writeln!(out, "# HELP {} {}", desc.name, prom_escape(&desc.help));
                }
                let _ = writeln!(out, "# TYPE {} histogram", desc.name);
                last_name = desc.name.clone();
            }
            let count = h.count();
            for (le, cum) in h.cumulative_buckets() {
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    desc.name,
                    label_block(&desc.labels, Some(("le", &format!("{le:.9e}")))),
                    cum
                );
            }
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                desc.name,
                label_block(&desc.labels, Some(("le", "+Inf"))),
                count
            );
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                desc.name,
                label_block(&desc.labels, None),
                fmt_f64(h.sum())
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                desc.name,
                label_block(&desc.labels, None),
                count
            );
            // OpenMetrics-style exemplar, rendered as a comment so strict
            // 0.0.4 parsers skip it while humans and our own tools can
            // still jump from a histogram to the flight-recorder chain.
            if let Some((v, trace_id)) = h.exemplar() {
                let _ = writeln!(
                    out,
                    "# EXEMPLAR {}{} value={} trace_id={}",
                    desc.name,
                    label_block(&desc.labels, None),
                    fmt_f64(v),
                    trace_id
                );
            }
        }
        let span_snap = spans::snapshot();
        if !span_snap.is_empty() {
            let _ = writeln!(out, "# TYPE span_calls_total counter");
            for s in &span_snap {
                let _ = writeln!(out, "span_calls_total{{span=\"{}\"}} {}", s.name, s.calls);
            }
            let _ = writeln!(out, "# TYPE span_total_seconds counter");
            for s in &span_snap {
                let _ = writeln!(
                    out,
                    "span_total_seconds{{span=\"{}\"}} {}",
                    s.name,
                    s.total_ns as f64 * 1e-9
                );
            }
            let _ = writeln!(out, "# TYPE span_self_seconds counter");
            for s in &span_snap {
                let _ = writeln!(
                    out,
                    "span_self_seconds{{span=\"{}\"}} {}",
                    s.name,
                    s.self_ns as f64 * 1e-9
                );
            }
        }
        out
    }

    /// Renders a structured JSON snapshot: raw counter/gauge values,
    /// histogram count/sum plus p50/p90/p99 (bucket-resolution), and span
    /// aggregates.
    pub fn render_json(&self) -> String {
        let inner = self.inner.lock().expect("registry lock");
        let mut out = String::from("{\n  \"counters\": [\n");
        for (i, c) in inner.counters.iter().enumerate() {
            let desc = &c.0.desc;
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"labels\": {}, \"value\": {}}}{}\n",
                json_escape(&desc.name),
                json_labels(&desc.labels),
                c.get(),
                if i + 1 == inner.counters.len() {
                    ""
                } else {
                    ","
                }
            );
        }
        out.push_str("  ],\n  \"gauges\": [\n");
        for (i, g) in inner.gauges.iter().enumerate() {
            let desc = &g.0.desc;
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"labels\": {}, \"value\": {}}}{}\n",
                json_escape(&desc.name),
                json_labels(&desc.labels),
                json_num(g.get()),
                if i + 1 == inner.gauges.len() { "" } else { "," }
            );
        }
        out.push_str("  ],\n  \"histograms\": [\n");
        for (i, h) in inner.histograms.iter().enumerate() {
            let desc = &h.0.desc;
            let exemplar = match h.exemplar() {
                Some((v, id)) => {
                    format!("{{\"value\": {}, \"trace_id\": {}}}", json_num(v), id)
                }
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"labels\": {}, \"count\": {}, \"sum\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"exemplar\": {}}}{}\n",
                json_escape(&desc.name),
                json_labels(&desc.labels),
                h.count(),
                json_num(h.sum()),
                json_num(h.percentile(0.50)),
                json_num(h.percentile(0.90)),
                json_num(h.percentile(0.99)),
                exemplar,
                if i + 1 == inner.histograms.len() {
                    ""
                } else {
                    ","
                }
            );
        }
        out.push_str("  ],\n  \"spans\": [\n");
        let span_snap = spans::snapshot();
        for (i, s) in span_snap.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"calls\": {}, \"total_s\": {}, \"self_s\": {}}}{}\n",
                json_escape(s.name),
                s.calls,
                json_num(s.total_ns as f64 * 1e-9),
                json_num(s.self_ns as f64 * 1e-9),
                if i + 1 == span_snap.len() { "" } else { "," }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Atomic file replacement: write the full contents to a dot-prefixed
/// temp file in the same directory, then `rename` over the target. A
/// concurrent reader sees either the complete old snapshot or the
/// complete new one — never a torn prefix of a dump in progress (rename
/// within one directory is atomic on POSIX). The temp name carries the
/// process id so two processes flushing into one directory cannot
/// clobber each other's staging file.
fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let file = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "dump path has no file name"))?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        file.to_string_lossy(),
        std::process::id()
    ));
    std::fs::write(&tmp, contents)?;
    let renamed = std::fs::rename(&tmp, path);
    if renamed.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    renamed
}

/// Writes `<dir>/<prefix>.prom` and `<dir>/<prefix>.json` snapshots of the
/// global registry, creating `dir` if needed. Returns the two paths. Each
/// file is replaced atomically (temp file + rename), so a scrape racing a
/// dump never reads torn output.
pub fn dump(dir: &Path, prefix: &str) -> io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let reg = crate::global();
    let prom = dir.join(format!("{prefix}.prom"));
    let json = dir.join(format!("{prefix}.json"));
    write_atomic(&prom, &reg.render_prometheus())?;
    write_atomic(&json, &reg.render_json())?;
    Ok((prom, json))
}

/// Renders a [`TimeStore`](crate::timeseries::TimeStore)'s retained history as plottable JSON: one
/// entry per series with its kind, labels and points array — counters as
/// `[t, value, rate]`, gauges as `[t, value]`, histograms as per-tick
/// deltas `[t, count, p50, p99]`. Cold path; allocate freely.
pub fn render_history_json(store: &crate::timeseries::TimeStore) -> String {
    use crate::timeseries::SeriesHistory;
    let series = store.series_histories();
    let mut out = String::from("{\n  \"series\": [\n");
    for (i, s) in series.iter().enumerate() {
        let (kind, name, labels) = match s {
            SeriesHistory::Counter { name, labels, .. } => ("counter", name, labels),
            SeriesHistory::Gauge { name, labels, .. } => ("gauge", name, labels),
            SeriesHistory::Histogram { name, labels, .. } => ("histogram", name, labels),
        };
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"kind\": \"{kind}\", \"labels\": {}, \"points\": [",
            json_escape(name),
            json_labels(labels),
        );
        match s {
            SeriesHistory::Counter { points, .. } => {
                for (j, (t, v, rate)) in points.iter().enumerate() {
                    let _ = write!(
                        out,
                        "[{}, {}, {}]{}",
                        json_num(*t),
                        json_num(*v),
                        json_num(*rate),
                        if j + 1 == points.len() { "" } else { ", " }
                    );
                }
            }
            SeriesHistory::Gauge { points, .. } => {
                for (j, (t, v)) in points.iter().enumerate() {
                    let _ = write!(
                        out,
                        "[{}, {}]{}",
                        json_num(*t),
                        json_num(*v),
                        if j + 1 == points.len() { "" } else { ", " }
                    );
                }
            }
            SeriesHistory::Histogram { points, .. } => {
                for (j, (t, n, p50, p99)) in points.iter().enumerate() {
                    let _ = write!(
                        out,
                        "[{}, {n}, {}, {}]{}",
                        json_num(*t),
                        json_num(*p50),
                        json_num(*p99),
                        if j + 1 == points.len() { "" } else { ", " }
                    );
                }
            }
        }
        let _ = writeln!(out, "]}}{}", if i + 1 == series.len() { "" } else { "," });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Background thread that [`dump`]s the global registry every `interval`
/// and once more on shutdown. Stops (and flushes) on drop.
pub struct Flusher {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Flusher {
    /// Starts flushing to `<dir>/<prefix>.{prom,json}`.
    pub fn start(dir: impl Into<PathBuf>, prefix: &str, interval: Duration) -> io::Result<Flusher> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let prefix = prefix.to_string();
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("ms-telemetry-flush".into())
            .spawn(move || {
                let (lock, cv) = &*stop2;
                let mut stopped = lock.lock().expect("flusher lock");
                loop {
                    if *stopped {
                        break;
                    }
                    let (guard, _timeout) =
                        cv.wait_timeout(stopped, interval).expect("flusher lock");
                    stopped = guard;
                    let _ = dump(&dir, &prefix);
                    if *stopped {
                        break;
                    }
                }
            })
            .expect("spawn flusher");
        Ok(Flusher {
            stop,
            handle: Some(handle),
        })
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        let (lock, cv) = &*self.stop;
        *lock.lock().expect("flusher lock") = true;
        cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_text_has_type_lines_and_series() {
        let r = Registry::new();
        r.counter("expose_requests_total", "requests offered").inc();
        r.counter_with("expose_served", &[("rate", "0.5")], "served")
            .add(3);
        r.gauge("expose_depth", "queue depth").set(7.0);
        let h = r.histogram("expose_service_seconds", "service time");
        h.record(0.001);
        h.record_traced(0.002, 99);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE expose_requests_total counter"));
        assert!(text.contains("expose_requests_total 1"));
        assert!(text.contains("expose_served{rate=\"0.5\"} 3"));
        assert!(text.contains("# TYPE expose_depth gauge"));
        assert!(text.contains("expose_depth 7"));
        assert!(text.contains("# TYPE expose_service_seconds histogram"));
        assert!(text.contains("expose_service_seconds_count 2"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        assert!(text.contains("expose_service_seconds_sum"));
        assert!(text.contains("# EXEMPLAR expose_service_seconds value=0.002 trace_id=99"));
    }

    #[test]
    fn json_snapshot_is_structurally_sound() {
        let r = Registry::new();
        r.counter("expose_json_total", "").add(5);
        let h = r.histogram("expose_json_seconds", "");
        for i in 1..=100 {
            h.record(i as f64 * 1e-4);
        }
        let json = r.render_json();
        assert!(json.contains("\"name\": \"expose_json_total\""));
        assert!(json.contains("\"value\": 5"));
        assert!(json.contains("\"count\": 100"));
        assert!(json.contains("\"p50\":"));
        // Balanced braces/brackets (cheap well-formedness check, no serde
        // in this crate).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    /// Satellite-3 regression: a scrape racing the dump loop must never
    /// read torn output. Before the temp-file + rename fix, `dump` wrote
    /// straight into the target and readers routinely caught half-written
    /// JSON. The reader thread hammers the file while the writer dumps a
    /// registry big enough that a direct write is observably non-atomic;
    /// every successful read must be a complete, brace-balanced document.
    #[test]
    fn scrape_racing_dump_never_reads_torn_json() {
        let dir = std::env::temp_dir().join(format!("ms_atomic_dump_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Bulk up the global registry so renders are many kilobytes.
        for i in 0..200 {
            crate::global()
                .counter_with("expose_torn_total", &[("shard", &format!("{i}"))], "")
                .add(i);
        }
        let json_path = dir.join("race.json");
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop_r = Arc::clone(&stop);
        let path_r = json_path.clone();
        let reader = std::thread::spawn(move || {
            let mut reads = 0u32;
            while !stop_r.load(std::sync::atomic::Ordering::Relaxed) {
                if let Ok(s) = std::fs::read_to_string(&path_r) {
                    if !s.is_empty() {
                        reads += 1;
                        assert!(
                            s.ends_with("}\n") && s.matches('{').count() == s.matches('}').count(),
                            "torn read: {} bytes, ends {:?}",
                            s.len(),
                            &s[s.len().saturating_sub(16)..]
                        );
                    }
                }
            }
            reads
        });
        for _ in 0..50 {
            dump(&dir, "race").unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let reads = reader.join().unwrap();
        assert!(reads > 0, "reader never observed the file");
        // No staging litter left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn history_json_renders_all_kinds_plottably() {
        use crate::timeseries::{TimeStore, TsConfig};
        let reg: &'static Registry = Box::leak(Box::new(Registry::new()));
        let store = TimeStore::with_registry(
            reg,
            TsConfig {
                capacity: 8,
                hist_capacity: 4,
            },
        );
        let c = reg.counter_with("hist_json_total", &[("server", "s0")], "");
        let g = reg.gauge("hist_json_depth", "");
        let h = reg.histogram("hist_json_seconds", "");
        store.tick_at(0.0);
        c.add(40);
        g.set(3.0);
        h.record(0.25);
        store.tick_at(2.0);
        let json = render_history_json(&store);
        assert!(json.contains("\"name\": \"hist_json_total\""));
        assert!(json.contains("\"kind\": \"counter\""));
        assert!(json.contains("\"server\": \"s0\""));
        // Counter point: t=2, value 40, rate 20/s.
        assert!(json.contains("[2, 40, 20]"), "{json}");
        assert!(json.contains("\"kind\": \"gauge\""));
        assert!(json.contains("[2, 3]"));
        assert!(json.contains("\"kind\": \"histogram\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn flusher_writes_both_files() {
        let dir = std::env::temp_dir().join("ms_telemetry_flusher_test");
        let _ = std::fs::remove_dir_all(&dir);
        crate::global().counter("expose_flush_total", "").inc();
        {
            let _f = Flusher::start(&dir, "snap", Duration::from_millis(20)).unwrap();
            std::thread::sleep(Duration::from_millis(60));
        } // drop flushes once more
        let prom = std::fs::read_to_string(dir.join("snap.prom")).unwrap();
        let json = std::fs::read_to_string(dir.join("snap.json")).unwrap();
        assert!(prom.contains("expose_flush_total"));
        assert!(json.contains("expose_flush_total"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
