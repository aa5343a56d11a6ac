//! Evaluation metrics used by the experiments.

use ms_tensor::{ops, Tensor};

/// Classification accuracy of `logits: [N, K]` against integer labels.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
    let k = *logits.dims().last().expect("rank >= 1");
    let rows = logits.numel() / k;
    assert_eq!(rows, labels.len());
    if rows == 0 {
        return 0.0;
    }
    let correct = labels
        .iter()
        .enumerate()
        .filter(|&(row, &t)| ops::argmax(&logits.data()[row * k..(row + 1) * k]) == t)
        .count();
    correct as f64 / rows as f64
}

/// Indices of wrongly predicted rows (the raw material of Fig. 8).
pub fn wrong_indices(logits: &Tensor, labels: &[usize]) -> Vec<usize> {
    let k = *logits.dims().last().expect("rank >= 1");
    labels
        .iter()
        .enumerate()
        .filter(|&(row, &t)| ops::argmax(&logits.data()[row * k..(row + 1) * k]) != t)
        .map(|(row, _)| row)
        .collect()
}

/// Perplexity from a mean negative log-likelihood (nats per token).
pub fn perplexity(mean_nll: f64) -> f64 {
    mean_nll.exp()
}

/// Inclusion coefficient between two error sets (Figure 8): the fraction of
/// the *smaller* error set shared with the other —
/// `|A ∩ B| / min(|A|, |B|)`. Symmetric, 1.0 when one set contains the
/// other (e.g. a model compared against itself), and ≈ the paper's
/// "fraction of the wrongly predicted samples of the larger model over
/// those of the smaller model" since the larger (more accurate) model has
/// the smaller error set.
///
/// Inputs must be sorted ascending (as produced by [`wrong_indices`]).
pub fn inclusion_coefficient(a: &[usize], b: &[usize]) -> f64 {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "a must be sorted unique");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "b must be sorted unique");
    let denom = a.len().min(b.len());
    if denom == 0 {
        return 1.0; // both perfect, or one perfect: trivially consistent
    }
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter as f64 / denom as f64
}

/// Formats a MAC count the way the paper's tables do (`M FLOPs`).
pub fn format_flops(macs: u64) -> String {
    if macs >= 1_000_000_000 {
        format!("{:.2}G", macs as f64 / 1e9)
    } else if macs >= 1_000_000 {
        format!("{:.1}M", macs as f64 / 1e6)
    } else if macs >= 1_000 {
        format!("{:.1}K", macs as f64 / 1e3)
    } else {
        format!("{macs}")
    }
}

/// Formats a parameter count (`M` = millions, matching Table 3/5).
pub fn format_params(params: u64) -> String {
    if params >= 1_000_000 {
        format!("{:.2}M", params as f64 / 1e6)
    } else if params >= 1_000 {
        format!("{:.1}K", params as f64 / 1e3)
    } else {
        format!("{params}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = Tensor::from_vec(
            [3, 2],
            vec![
                1.0, 0.0, // → 0
                0.0, 1.0, // → 1
                1.0, 0.0, // → 0
            ],
        )
        .unwrap();
        assert_eq!(accuracy(&logits, &[0, 1, 1]), 2.0 / 3.0);
        assert_eq!(wrong_indices(&logits, &[0, 1, 1]), vec![2]);
    }

    #[test]
    fn perplexity_of_uniform_is_vocab() {
        let v = 50.0f64;
        assert!((perplexity(v.ln()) - v).abs() < 1e-9);
    }

    #[test]
    fn inclusion_coefficient_cases() {
        assert_eq!(inclusion_coefficient(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(inclusion_coefficient(&[1, 2], &[1, 2, 3, 4]), 1.0); // nested
        assert_eq!(inclusion_coefficient(&[1, 2], &[3, 4]), 0.0);
        assert_eq!(inclusion_coefficient(&[1, 2, 5, 9], &[2, 9]), 1.0);
        assert!((inclusion_coefficient(&[1, 2, 3, 4], &[3, 4, 5, 6]) - 0.5).abs() < 1e-12);
        assert_eq!(inclusion_coefficient(&[], &[1]), 1.0);
        // Symmetry.
        let a = [1usize, 4, 7, 9];
        let b = [2usize, 4, 9, 11, 13];
        assert_eq!(inclusion_coefficient(&a, &b), inclusion_coefficient(&b, &a));
    }

    #[test]
    fn flops_formatting() {
        assert_eq!(format_flops(500), "500");
        assert_eq!(format_flops(1_500), "1.5K");
        assert_eq!(format_flops(144_600_000), "144.6M");
        assert_eq!(format_flops(20_000_000_000), "20.00G");
        assert_eq!(format_params(9_420_000), "9.42M");
        assert_eq!(format_params(150), "150");
    }
}
