//! One-shot scraper for a running ms-net server — the curl equivalent.
//!
//! ```text
//! scrape 127.0.0.1:7878            # Prometheus text exposition
//! scrape 127.0.0.1:7878 health     # replica health snapshot + live SLOs
//! scrape 127.0.0.1:7878 watch 2    # live dashboard: windowed rates/p99/burn
//! scrape 127.0.0.1:7878 trace      # flight-recorder dump (Chrome trace JSON)
//! scrape 127.0.0.1:7878 drain      # graceful drain, prints delivered count
//! ```
//!
//! `watch` polls the metrics exposition every N seconds (default 2),
//! differences successive scrapes client-side — counters become
//! per-window rates, cumulative histogram buckets become *windowed*
//! percentiles covering exactly the samples of the last interval — and
//! joins the server's own SLO verdict (burn rates, firing alerts) from
//! the health frame. One line per tick, plottable with `| tee`.
//!
//! `trace` prints the Chrome trace-event JSON to stdout; redirect it to a
//! file and load it in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`.

use ms_net::Client;
use std::process::ExitCode;

// ---------------------------------------------------------------------------
// Exposition parsing (client-side; the server only ships text)
// ---------------------------------------------------------------------------

/// One parsed sample line: `name{k="v",...} value`.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Parses Prometheus text format 0.0.4 (the subset our own exposition
/// emits): comment lines are skipped, label values may contain escaped
/// quotes/backslashes/newlines. Malformed lines are dropped, not fatal —
/// a watch loop must survive a partially-understood server.
fn parse_exposition(text: &str) -> Vec<Sample> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(sample) = parse_line(line) else {
            continue;
        };
        out.push(sample);
    }
    out
}

fn parse_line(line: &str) -> Option<Sample> {
    let (series, value) = match line.find('{') {
        Some(open) => {
            let close = find_label_close(line, open)?;
            let name = &line[..open];
            let labels = parse_labels(&line[open + 1..close])?;
            let rest = line[close + 1..].trim();
            (Some((name, labels)), rest)
        }
        None => {
            let mut it = line.split_whitespace();
            let name = it.next()?;
            let value = it.next()?;
            (Some((name, Vec::new())), value)
        }
    };
    let (name, labels) = series?;
    let value = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v.parse().ok()?,
    };
    Some(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Index of the `}` closing the label block opened at `open`, honoring
/// quoted (and escaped) label values.
fn find_label_close(line: &str, open: usize) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate().skip(open + 1) {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_quotes => escaped = true,
            b'"' => in_quotes = !in_quotes,
            b'}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

fn parse_labels(block: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let mut rest = block.trim();
    while !rest.is_empty() {
        let eq = rest.find('=')?;
        let key = rest[..eq].trim().to_string();
        let after = rest[eq + 1..].trim_start();
        if !after.starts_with('"') {
            return None;
        }
        // Unescape the quoted value (\" \\ \n, as prom_escape emits).
        let mut value = String::new();
        let mut chars = after[1..].char_indices();
        let mut consumed = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, other)) => value.push(other),
                    None => return None,
                },
                '"' => {
                    consumed = Some(i + 1);
                    break;
                }
                other => value.push(other),
            }
        }
        // Index past the closing quote, re-based from `after` onto `rest`.
        let ws = rest[eq + 1..].len() - after.len();
        let end = eq + 1 + ws + 1 + consumed?;
        labels.push((key, value));
        rest = rest[end..].trim_start();
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped.trim_start();
        } else if !rest.is_empty() {
            return None;
        }
    }
    Some(labels)
}

// ---------------------------------------------------------------------------
// Client-side windowing: difference successive scrapes
// ---------------------------------------------------------------------------

/// Sum of every series named `name`, whatever its labels (a process may
/// host several servers/routers; the watch view aggregates them).
fn sum_by_name(samples: &[Sample], name: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

/// Cumulative histogram buckets of `<name>_bucket`, summed across label
/// sets and sorted by `le` (`+Inf` last). Returns `(le, cumulative)`.
fn buckets_by_name(samples: &[Sample], name: &str) -> Vec<(f64, f64)> {
    let bucket_name = format!("{name}_bucket");
    let mut acc: Vec<(f64, f64)> = Vec::new();
    for s in samples.iter().filter(|s| s.name == bucket_name) {
        let Some(le) =
            s.labels
                .iter()
                .find(|(k, _)| k == "le")
                .and_then(|(_, v)| match v.as_str() {
                    "+Inf" => Some(f64::INFINITY),
                    v => v.parse().ok(),
                })
        else {
            continue;
        };
        match acc.iter_mut().find(|(l, _)| *l == le) {
            Some((_, c)) => *c += s.value,
            None => acc.push((le, s.value)),
        }
    }
    acc.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("le ordering"));
    acc
}

/// Windowed percentile from two cumulative bucket scrapes: the delta
/// distribution covers exactly the samples recorded between them. Upper
/// bucket bound at the target rank; 0 for an empty window.
fn windowed_percentile(prev: &[(f64, f64)], curr: &[(f64, f64)], q: f64) -> f64 {
    // Per-bucket deltas of the *cumulative-over-le* counts, then walk.
    let mut deltas: Vec<(f64, f64)> = Vec::with_capacity(curr.len());
    for &(le, c) in curr {
        let p = prev
            .iter()
            .find(|(l, _)| *l == le)
            .map(|&(_, v)| v)
            .unwrap_or(0.0);
        deltas.push((le, (c - p).max(0.0)));
    }
    let total = deltas.last().map(|&(_, c)| c).unwrap_or(0.0);
    if total <= 0.0 {
        return 0.0;
    }
    let rank = (total - 1.0).max(0.0) * q.clamp(0.0, 1.0);
    for &(le, cum) in &deltas {
        if cum > rank {
            return if le.is_finite() { le } else { f64::NAN };
        }
    }
    f64::NAN
}

/// One watch tick's derived view.
struct Window {
    req_rate: f64,
    ok_rate: f64,
    shed_rate: f64,
    miss_ratio: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn window_between(prev: &[Sample], curr: &[Sample], dt: f64) -> Window {
    let dt = dt.max(1e-9);
    let d = |name: &str| (sum_by_name(curr, name) - sum_by_name(prev, name)).max(0.0);
    let dl_total = d("net_deadline_total");
    let pb = buckets_by_name(prev, "net_request_seconds");
    let cb = buckets_by_name(curr, "net_request_seconds");
    Window {
        req_rate: d("net_requests_total") / dt,
        ok_rate: d("net_responses_ok_total") / dt,
        shed_rate: d("net_responses_shed_total") / dt,
        miss_ratio: if dl_total > 0.0 {
            d("net_deadline_miss_total") / dl_total
        } else {
            0.0
        },
        p50_ms: windowed_percentile(&pb, &cb, 0.50) * 1e3,
        p99_ms: windowed_percentile(&pb, &cb, 0.99) * 1e3,
    }
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

fn print_health(h: &ms_net::HealthReply) {
    println!("build: {}", h.build);
    println!("uptime_seconds: {:.1}", h.uptime_seconds);
    println!("draining: {}", h.draining);
    for (i, r) in h.replicas.iter().enumerate() {
        println!(
            "replica {i}: draining={} queue_depth={:.0} rate={:.2} \
             p99_service_s={:.6} served={} shed={}",
            r.draining, r.queue_depth, r.rate, r.p99_service_s, r.served, r.shed
        );
    }
    match &h.slo {
        Some(s) => println!(
            "slo: deadline_burn={:.2}/{:.2} shed_burn={:.2}/{:.2} \
             firing={} window_p99_s={:.6}",
            s.deadline_fast_burn,
            s.deadline_slow_burn,
            s.shed_fast_burn,
            s.shed_slow_burn,
            s.firing_alerts,
            s.window_p99_s
        ),
        None => println!("slo: (sampling disabled or pre-SLO server)"),
    }
}

fn watch(client: &mut Client, interval: f64) -> Result<(), ms_net::NetError> {
    println!(
        "{:>8}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}  {:>7}  {:>11}  {:>6}",
        "t(s)", "req/s", "ok/s", "shed/s", "p50(ms)", "p99(ms)", "miss%", "burn f/s", "alerts"
    );
    let started = std::time::Instant::now();
    let mut prev: Option<(std::time::Instant, Vec<Sample>)> = None;
    loop {
        let text = client.metrics()?;
        let now = std::time::Instant::now();
        let samples = parse_exposition(&text);
        if let Some((t0, before)) = prev.take() {
            let w = window_between(&before, &samples, (now - t0).as_secs_f64());
            let h = client.health()?;
            let (burns, alerts) = match &h.slo {
                Some(s) => (
                    format!(
                        "{:.1}/{:.1}",
                        s.deadline_fast_burn.max(s.shed_fast_burn),
                        s.deadline_slow_burn.max(s.shed_slow_burn)
                    ),
                    s.firing_alerts.to_string(),
                ),
                None => ("-".to_string(), "-".to_string()),
            };
            println!(
                "{:>8.1}  {:>8.1}  {:>8.1}  {:>8.1}  {:>8.3}  {:>8.3}  {:>7.2}  {:>11}  {:>6}",
                started.elapsed().as_secs_f64(),
                w.req_rate,
                w.ok_rate,
                w.shed_rate,
                w.p50_ms,
                w.p99_ms,
                w.miss_ratio * 100.0,
                burns,
                alerts
            );
        }
        prev = Some((now, samples));
        std::thread::sleep(std::time::Duration::from_secs_f64(interval.max(0.05)));
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let addr = args.next().unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let what = args.next().unwrap_or_else(|| "metrics".to_string());
    let client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("scrape: connect {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut client = client;
    let result = match what.as_str() {
        "metrics" => client.metrics().map(|text| print!("{text}")),
        "health" => client.health().map(|h| print_health(&h)),
        "watch" => {
            let interval = args
                .next()
                .and_then(|s| s.parse::<f64>().ok())
                .unwrap_or(2.0);
            // Runs until the connection drops (server drained) or ^C.
            watch(&mut client, interval).map(|_| ())
        }
        "trace" => client.trace_dump().map(|json| println!("{json}")),
        "drain" => client.drain().map(|(flushed, delivered)| {
            println!(
                "drained: delivered={delivered} flushed_here={}",
                flushed.len()
            );
        }),
        other => {
            eprintln!(
                "scrape: unknown request {other:?} \
                 (want metrics | health | watch | trace | drain)"
            );
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scrape: {what} {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_labeled_and_escaped_lines() {
        let text = "\
# HELP net_requests_total inference requests received
# TYPE net_requests_total counter
net_requests_total{server=\"0\"} 120
net_requests_total{server=\"1\"} 30
plain_series 7.5
weird{msg=\"a\\\"b\\\\c\\nd\",k=\"v\"} 1
malformed{unclosed=\"x 3
";
        let s = parse_exposition(text);
        assert_eq!(s.len(), 4, "{s:?}");
        assert_eq!(s[0].name, "net_requests_total");
        assert_eq!(s[0].labels, vec![("server".to_string(), "0".to_string())]);
        assert_eq!(s[0].value, 120.0);
        assert_eq!(s[2].name, "plain_series");
        assert!(s[2].labels.is_empty());
        assert_eq!(
            s[3].labels,
            vec![
                ("msg".to_string(), "a\"b\\c\nd".to_string()),
                ("k".to_string(), "v".to_string()),
            ]
        );
        assert_eq!(sum_by_name(&s, "net_requests_total"), 150.0);
    }

    #[test]
    fn bucket_scrape_diff_yields_windowed_percentiles() {
        // Era 1: 100 samples ≤ 1.0 s. Era 2 adds 100 samples ≤ 0.001 s.
        // The window between the scrapes must see only the fast era.
        let prev_text = "\
net_request_seconds_bucket{server=\"0\",le=\"1.000000000e-3\"} 0
net_request_seconds_bucket{server=\"0\",le=\"1.000000000e0\"} 100
net_request_seconds_bucket{server=\"0\",le=\"+Inf\"} 100
";
        let curr_text = "\
net_request_seconds_bucket{server=\"0\",le=\"1.000000000e-3\"} 100
net_request_seconds_bucket{server=\"0\",le=\"1.000000000e0\"} 200
net_request_seconds_bucket{server=\"0\",le=\"+Inf\"} 200
";
        let prev = buckets_by_name(&parse_exposition(prev_text), "net_request_seconds");
        let curr = buckets_by_name(&parse_exposition(curr_text), "net_request_seconds");
        assert_eq!(prev.len(), 3);
        assert_eq!(windowed_percentile(&prev, &curr, 0.99), 1e-3);
        assert_eq!(windowed_percentile(&prev, &curr, 0.50), 1e-3);
        // Lifetime view over the same buckets would say 1.0 s — that is
        // exactly the distinction `watch` exists to draw.
        let zero: Vec<(f64, f64)> = prev.iter().map(|&(le, _)| (le, 0.0)).collect();
        assert_eq!(windowed_percentile(&zero, &curr, 0.99), 1.0);
    }

    #[test]
    fn empty_window_and_missing_series_degrade_to_zero() {
        let none: Vec<(f64, f64)> = Vec::new();
        assert_eq!(windowed_percentile(&none, &none, 0.99), 0.0);
        let w = window_between(&[], &[], 2.0);
        assert_eq!(w.req_rate, 0.0);
        assert_eq!(w.miss_ratio, 0.0);
        assert_eq!(w.p99_ms, 0.0);
    }

    #[test]
    fn rates_divide_by_elapsed_and_clamp_resets() {
        let prev = parse_exposition("net_requests_total{server=\"0\"} 100\n");
        let curr = parse_exposition("net_requests_total{server=\"0\"} 160\n");
        let w = window_between(&prev, &curr, 2.0);
        assert_eq!(w.req_rate, 30.0);
        // A counter that went backwards (server restart) reads 0, never
        // a negative rate.
        let w = window_between(&curr, &prev, 2.0);
        assert_eq!(w.req_rate, 0.0);
    }
}
