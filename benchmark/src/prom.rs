//! Reads percentiles back out of the Prometheus text a server exposes.

/// The `q`-quantile of histogram `name` restricted to series whose label
/// block contains `label` (e.g. `stage="wire"`), in the histogram's own
/// unit, resolved to the upper edge of the bucket it falls in. `None` when
/// the series is absent or empty.
pub fn histogram_quantile(text: &str, name: &str, label: &str, q: f64) -> Option<f64> {
    let prefix = format!("{name}_bucket{{");
    let mut buckets: Vec<(f64, u64)> = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else {
            continue;
        };
        let (labels, count) = rest.split_once("} ")?;
        if !labels.contains(label) {
            continue;
        }
        let le = labels.split("le=\"").nth(1)?.split('"').next()?;
        let edge = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse().ok()?
        };
        buckets.push((edge, count.trim().parse().ok()?));
    }
    let total = buckets.last()?.1;
    if total == 0 {
        return None;
    }
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    let finite_max = buckets
        .iter()
        .map(|b| b.0)
        .filter(|e| e.is_finite())
        .fold(0.0, f64::max);
    buckets
        .iter()
        .find(|(_, cum)| *cum >= rank)
        .map(|(edge, _)| if edge.is_finite() { *edge } else { finite_max })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# TYPE flight_stage_seconds histogram
flight_stage_seconds_bucket{stage=\"wire\",le=\"1.000000000e-4\"} 0
flight_stage_seconds_bucket{stage=\"wire\",le=\"2.000000000e-4\"} 6
flight_stage_seconds_bucket{stage=\"wire\",le=\"4.000000000e-4\"} 9
flight_stage_seconds_bucket{stage=\"wire\",le=\"+Inf\"} 10
flight_stage_seconds_sum{stage=\"wire\"} 0.002
flight_stage_seconds_count{stage=\"wire\"} 10
flight_stage_seconds_bucket{stage=\"compute\",le=\"1.000000000e-3\"} 0
flight_stage_seconds_bucket{stage=\"compute\",le=\"+Inf\"} 0
";

    #[test]
    fn quantiles_resolve_to_bucket_edges() {
        let q = |l: &str, q: f64| histogram_quantile(TEXT, "flight_stage_seconds", l, q);
        assert_eq!(q("stage=\"wire\"", 0.5), Some(2e-4));
        assert_eq!(q("stage=\"wire\"", 0.9), Some(4e-4));
        assert_eq!(q("stage=\"wire\"", 1.0), Some(4e-4)); // +Inf falls back to the last finite edge
        assert_eq!(q("stage=\"compute\"", 0.5), None);
        assert_eq!(q("stage=\"absent\"", 0.5), None);
    }
}
