//! Order statistics and the comparison rules the benchmark reports with.

/// Linear-interpolated percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a timing sample"));
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// The percentiles a tail may be reported at, ascending.
const TAIL_LADDER: [f64; 5] = [0.75, 0.90, 0.95, 0.99, 0.999];

/// The highest ladder percentile that still has at least ten samples
/// beyond it, or `None` when even p75 does not (fewer than 40 samples).
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        // The epsilon keeps 100 × (1 − 0.9), which is not quite 10 in
        // binary, on the right side of the rule.
        .find(|q| (n as f64) * (1.0 - q) + 1e-9 >= 10.0)
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` computes them (the
/// exclusive method), so spreads printed here match the driver's.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let pos = (i + 1) as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        *slot = s[j - 1] + (s[j] - s[j - 1]) * frac;
    }
    out
}

/// Interquartile range as a share of the median.
pub fn spread(v: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(v);
    (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE)
}

pub fn geomean(v: &[f64]) -> f64 {
    assert!(
        !v.is_empty() && v.iter().all(|&x| x > 0.0),
        "geomean needs positive values"
    );
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// By what share of `base` the value `new` is worse (negative when better).
pub fn worse_by(higher_is_better: bool, base: f64, new: f64) -> f64 {
    let delta = if higher_is_better {
        base - new
    } else {
        new - base
    };
    delta / base.abs().max(f64::MIN_POSITIVE)
}

/// Least-squares line through `(x, y)`: `(slope, intercept, max |residual|)`.
pub fn linfit(x: &[f64], y: &[f64]) -> (f64, f64, f64) {
    assert!(x.len() == y.len() && x.len() >= 2);
    let n = x.len() as f64;
    let (mx, my) = (x.iter().sum::<f64>() / n, y.iter().sum::<f64>() / n);
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let sxx: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let resid = x
        .iter()
        .zip(y)
        .map(|(a, b)| (b - (slope * a + intercept)).abs())
        .fold(0.0, f64::max);
    (slope, intercept, resid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(39), None);
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(99), Some(0.75));
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        for n in [40usize, 100, 250, 1000, 12_345] {
            let q = tail_quantile(n).unwrap();
            assert!((n as f64) * (1.0 - q) + 1e-9 >= 10.0, "n={n} q={q}");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_weighs_ratios_not_differences() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        // Halving the small cell moves it as much as halving the large one.
        let a = geomean(&[0.5, 100.0]);
        let b = geomean(&[1.0, 50.0]);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn bound_comparison_respects_direction() {
        assert!((worse_by(true, 100.0, 95.0) - 0.05).abs() < 1e-12);
        assert!((worse_by(false, 100.0, 95.0) + 0.05).abs() < 1e-12);
        assert!(worse_by(false, 10.0, 10.4) <= 0.05);
        assert!(worse_by(false, 10.0, 10.6) > 0.05);
    }

    #[test]
    fn linfit_recovers_a_power_law_exponent() {
        let r = [0.375f64, 0.5, 0.75, 1.0];
        let x: Vec<f64> = r.iter().map(|v| v.ln()).collect();
        let y: Vec<f64> = r.iter().map(|v| (3.0 * v * v).ln()).collect();
        let (slope, intercept, resid) = linfit(&x, &y);
        assert!((slope - 2.0).abs() < 1e-9);
        assert!((intercept - 3.0f64.ln()).abs() < 1e-9);
        assert!(resid < 1e-9);
    }

    #[test]
    fn percentile_interpolates() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 1.0), 40.0);
        assert_eq!(percentile(&s, 0.5), 25.0);
    }
}
