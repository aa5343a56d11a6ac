//! What every workload shares: its arguments, its outcome, repeated set-up.

use crate::record::{Loop, Marks, Rec};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Times set-up is run (and torn down again) in an untraced run; the median
/// is reported as `setup_s` and the last one feeds the timed section.
pub const SETUP_REPEATS: usize = 5;

/// Everything a workload hands back for reporting.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the outputs were judged wrong; empty when every check passed.
    pub errors: Vec<String>,
    pub setup_s: Vec<f64>,
    pub recs: Vec<Rec>,
    pub lp: Loop,
    pub marks: Marks,
    /// Tail percentile reported as `latency_tail_ms` (see
    /// [`crate::record::chunked_tail`]).
    pub tail_q: f64,
    /// Per-layer metrics the timed section itself yields (traced runs).
    pub layer: BTreeMap<&'static str, f64>,
}

/// Runs `build` [`SETUP_REPEATS`] times (once when tracing, which does not
/// report `setup_s`), dropping each result before the next starts, and
/// returns the last one with the seconds each took.
pub fn repeat_setup<S>(trace: bool, mut build: impl FnMut() -> S) -> (S, Vec<f64>) {
    let n = if trace { 1 } else { SETUP_REPEATS };
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// `|a − b|` within `tol` of the larger magnitude in the two slices.
pub fn close_rel(a: &[f32], b: &[f32], tol: f32) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let scale = a
        .iter()
        .chain(b)
        .fold(0.0f32, |m, v| m.max(v.abs()))
        .max(f32::MIN_POSITIVE);
    a.iter()
        .zip(b)
        .all(|(x, y)| x.is_finite() && y.is_finite() && (x - y).abs() <= tol * scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_repeats_and_keeps_the_last() {
        let mut calls = 0;
        let (last, times) = repeat_setup(false, || {
            calls += 1;
            calls
        });
        assert_eq!((last, times.len()), (SETUP_REPEATS, SETUP_REPEATS));
        let (_, times) = repeat_setup(true, || ());
        assert_eq!(times.len(), 1);
    }

    #[test]
    fn close_rel_scales_with_magnitude() {
        assert!(close_rel(&[100.0, 0.0], &[100.005, 0.004], 1e-4));
        assert!(!close_rel(&[100.0], &[100.02], 1e-4));
        assert!(!close_rel(&[1.0], &[f32::NAN], 1e-4));
        assert!(!close_rel(&[1.0], &[1.0, 2.0], 1e-4));
    }
}
