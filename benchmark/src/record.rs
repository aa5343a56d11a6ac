//! One record per operation, and the end-to-end metrics computed from them.
//!
//! Every workload reduces to the same thing: operations that were *due* at
//! some instant, completed (or not) some time later, carried a number of
//! samples and delivered a slice of known cost. The end-to-end metrics are
//! defined once, over these records, for all four workloads.

use crate::stats;
use std::collections::BTreeMap;

/// One operation: a batch in the closed loops, a request in the open ones.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    /// Seconds from the start of the timed section to when the op was due.
    pub t: f64,
    /// Due → completion in ms; NaN when nothing came back (shed, lost).
    pub lat_ms: f64,
    /// Completed, correct and (open loop) inside the client deadline.
    pub good: bool,
    pub samples: u32,
    /// Multiply-adds of the slice the op delivered, all samples together.
    pub macs: f64,
    /// Which homogeneous group of ops this one belongs to (closed loop).
    pub cell: u16,
}

/// How useful throughput is read off the records.
pub enum Loop {
    /// Closed loop: samples/s per cell, geometric mean inside each path,
    /// then across paths, so a thin cell weighs as much as a heavy one. The
    /// ops of a cell all do the same work.
    Closed { paths: Vec<Vec<u16>> },
    /// Open loop: good samples per second of offered schedule.
    Open,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct E2e {
    pub goodput_sps: f64,
    pub served_macs_per_s: f64,
    pub hits_per_cpu_s: f64,
    pub latency_p50_ms: f64,
    pub latency_tail_ms: f64,
}

impl E2e {
    pub const NAMES: [&'static str; 5] = [
        "goodput_sps",
        "served_macs_per_s",
        "hits_per_cpu_s",
        "latency_p50_ms",
        "latency_tail_ms",
    ];

    pub fn values(&self) -> [f64; 5] {
        [
            self.goodput_sps,
            self.served_macs_per_s,
            self.hits_per_cpu_s,
            self.latency_p50_ms,
            self.latency_tail_ms,
        ]
    }
}

/// What one operation of `cell` is taken to cost, in ms: the faster
/// quartile of the cell's good ops. What slows an op on the reference box
/// is other tenants taking cores and memory bandwidth, for seconds at a
/// time; the faster quartile still reads the machine undisturbed when that
/// lasts up to three quarters of the run, the median only up to half, the
/// mean not at all. A change to the code moves all three alike.
pub fn cell_op_ms(recs: &[Rec], cell: u16) -> Option<f64> {
    let lats: Vec<f64> = recs
        .iter()
        .filter(|r| r.cell == cell && r.good)
        .map(|r| r.lat_ms)
        .collect();
    (!lats.is_empty()).then(|| stats::percentile(&stats::sorted(lats), 0.25))
}

/// Samples per second of one cell's records.
pub fn cell_sps(recs: &[Rec], cell: u16) -> Option<f64> {
    let samples = recs.iter().find(|r| r.cell == cell && r.good)?.samples;
    Some(f64::from(samples) * 1e3 / cell_op_ms(recs, cell)?)
}

/// End-to-end metrics of `recs`, which spanned `wall_s` seconds of the
/// timed section and `cpu_s` CPU-seconds; `tail_q` is the tail percentile.
pub fn e2e(recs: &[Rec], lp: &Loop, wall_s: f64, cpu_s: f64, tail_q: f64) -> E2e {
    let good: Vec<&Rec> = recs.iter().filter(|r| r.good).collect();
    let good_samples: f64 = good.iter().map(|r| f64::from(r.samples)).sum();
    let goodput_sps = match lp {
        Loop::Open => good_samples / wall_s,
        Loop::Closed { paths } => {
            let per_path: Vec<f64> = paths
                .iter()
                .filter_map(|cells| {
                    let sps: Vec<f64> = cells.iter().filter_map(|&c| cell_sps(recs, c)).collect();
                    (!sps.is_empty()).then(|| stats::geomean(&sps))
                })
                .collect();
            if per_path.is_empty() {
                0.0
            } else {
                stats::geomean(&per_path)
            }
        }
    };
    let lats = stats::sorted(
        recs.iter()
            .map(|r| r.lat_ms)
            .filter(|l| l.is_finite())
            .collect(),
    );
    let (p50, tail) = if lats.is_empty() {
        (0.0, 0.0)
    } else {
        (
            stats::percentile(&lats, 0.5),
            stats::percentile(&lats, tail_q),
        )
    };
    // Closed loop: every good op is charged its cell's op time, so the
    // arithmetic throughput reads the same machine as `goodput_sps` does.
    let served_s = match lp {
        Loop::Open => wall_s,
        Loop::Closed { paths } => {
            let op_ms: BTreeMap<u16, f64> = paths
                .iter()
                .flatten()
                .filter_map(|&c| Some((c, cell_op_ms(recs, c)?)))
                .collect();
            good.iter().filter_map(|r| op_ms.get(&r.cell)).sum::<f64>() / 1e3
        }
    };
    E2e {
        goodput_sps,
        served_macs_per_s: good.iter().map(|r| r.macs).sum::<f64>() / served_s.max(1e-9),
        hits_per_cpu_s: good_samples / cpu_s.max(1e-9),
        latency_p50_ms: p50,
        latency_tail_ms: tail,
    }
}

/// Operations per chunk of [`chunked_tail`]: the fewest that leave ten
/// samples beyond percentile `q`.
pub fn tail_chunk(q: f64) -> usize {
    // The epsilon keeps 10 / (1 − 0.9), which is not quite 100 in binary,
    // from rounding up to 101.
    (10.0 / (1.0 - q) - 1e-9).ceil() as usize
}

/// The tail latency of a run: completed operations are cut, in due order,
/// into chunks of [`tail_chunk`] (so every chunk has ten samples beyond the
/// percentile), percentile `q` is taken inside each chunk, and the median of
/// the chunks is reported.
///
/// A stall of the machine reaches the operations due while it lasted and
/// the backlog behind them: a few chunks out of hundreds in the open loops,
/// where a chunk spans 30–300 ms of schedule. A percentile over the whole
/// run would instead be made of exactly those operations whenever stalls
/// touch more than `1 − q` of it, which on a shared host at bad hours they
/// do. Fewer than half the chunks can be disturbed before the median
/// moves; a change to the program moves every chunk.
pub fn chunked_tail(recs: &[Rec], q: f64) -> f64 {
    let lats: Vec<f64> = recs
        .iter()
        .map(|r| r.lat_ms)
        .filter(|l| l.is_finite())
        .collect();
    let tails: Vec<f64> = lats
        .chunks_exact(tail_chunk(q))
        .map(|c| stats::percentile(&stats::sorted(c.to_vec()), q))
        .collect();
    match (tails.is_empty(), lats.is_empty()) {
        (false, _) => stats::median(&tails),
        (true, false) => stats::percentile(&stats::sorted(lats), q),
        (true, true) => 0.0,
    }
}

/// CPU-clock readings taken at ten evenly spaced instants of the timed
/// section, so each end-to-end metric can also be computed per slice and
/// its spread inside one run printed beside it.
pub struct Marks {
    step_s: f64,
    /// `(seconds into the timed section, CPU-seconds so far)`.
    pub at: Vec<(f64, f64)>,
}

pub const SLICES: usize = 10;

impl Marks {
    pub fn start(seconds: f64, cpu_now: f64) -> Marks {
        Marks {
            step_s: seconds / SLICES as f64,
            at: vec![(0.0, cpu_now)],
        }
    }

    /// Call often; reads the CPU clock only when a slice boundary passed.
    #[inline]
    pub fn poll(&mut self, t: f64, cpu: impl FnOnce() -> f64) {
        if self.at.len() <= SLICES && t >= self.step_s * self.at.len() as f64 {
            self.at.push((t, cpu()));
        }
    }

    /// Closes the last slice at the end of the timed section.
    pub fn finish(&mut self, t: f64, cpu_now: f64) {
        if self.at.len() == SLICES + 1 {
            self.at[SLICES] = (t, cpu_now);
        } else {
            self.at.push((t, cpu_now));
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.at.last().map_or(0.0, |m| m.0)
    }

    pub fn cpu_s(&self) -> f64 {
        self.at.last().map_or(0.0, |m| m.1) - self.at[0].1
    }

    /// The metrics of each slice (records are assigned by their due time).
    pub fn per_slice(&self, recs: &[Rec], lp: &Loop, tail_q: f64) -> Vec<E2e> {
        self.at
            .windows(2)
            .filter_map(|w| {
                let ((t0, c0), (t1, c1)) = (w[0], w[1]);
                let part: Vec<Rec> = recs
                    .iter()
                    .filter(|r| r.t >= t0 && r.t < t1)
                    .copied()
                    .collect();
                (!part.is_empty() && t1 > t0).then(|| e2e(&part, lp, t1 - t0, c1 - c0, tail_q))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: f64, lat_ms: f64, good: bool, cell: u16) -> Rec {
        Rec {
            t,
            lat_ms,
            good,
            samples: 32,
            macs: 64.0,
            cell,
        }
    }

    #[test]
    fn closed_loop_goodput_is_a_geomean_of_path_geomeans() {
        // Cell 0: 32 samples / 1 ms; cell 1: 32 / 4 ms; cell 2 (own path): 32 / 16 ms.
        let recs = vec![
            rec(0.0, 1.0, true, 0),
            rec(0.1, 1.0, true, 0),
            rec(0.2, 4.0, true, 1),
            rec(0.3, 16.0, true, 2),
        ];
        let lp = Loop::Closed {
            paths: vec![vec![0, 1], vec![2]],
        };
        let m = e2e(&recs, &lp, 1.0, 0.5, 0.75);
        let path_a = (32_000.0f64 * 8_000.0).sqrt();
        assert!((m.goodput_sps - (path_a * 2_000.0).sqrt()).abs() < 1e-6);
        assert!((m.hits_per_cpu_s - 4.0 * 32.0 / 0.5).abs() < 1e-9);
        // 4 × 64 MACs over 1 + 1 + 4 + 16 ms of op time.
        assert!((m.served_macs_per_s - 256.0 / 0.022).abs() < 1e-6);
    }

    #[test]
    fn open_loop_counts_only_good_and_times_only_delivered() {
        let mut recs = vec![rec(0.0, 5.0, true, 0), rec(0.5, 50.0, false, 0)];
        recs.push(rec(0.9, f64::NAN, false, 0)); // shed
        for r in &mut recs {
            r.samples = 1;
        }
        let m = e2e(&recs, &Loop::Open, 2.0, 1.0, 0.75);
        assert_eq!(m.goodput_sps, 0.5);
        assert_eq!(m.latency_p50_ms, 27.5); // the late one still has a latency
        assert_eq!(m.served_macs_per_s, 32.0);
    }

    #[test]
    fn chunked_tail_rides_out_a_stall() {
        assert_eq!(tail_chunk(0.75), 40);
        assert_eq!(tail_chunk(0.90), 100);
        assert_eq!(tail_chunk(0.95), 200);
        // Ten chunks of 200 whose latencies run 1..=200 ms: p95 of each is
        // 190.05; a stall that ruins two whole chunks leaves the median be.
        let mut recs: Vec<Rec> = (0..2000)
            .map(|i| rec(i as f64 * 1e-3, (i % 200 + 1) as f64, true, 0))
            .collect();
        let calm = chunked_tail(&recs, 0.95);
        assert!((calm - 190.05).abs() < 1e-9, "{calm}");
        for r in &mut recs[400..800] {
            r.lat_ms += 500.0;
        }
        assert_eq!(chunked_tail(&recs, 0.95), calm);
        // Refused operations have no latency and fill no chunk.
        recs[0].lat_ms = f64::NAN;
        assert!(chunked_tail(&recs, 0.95) > 0.0);
        // Too few for one chunk: the plain percentile.
        assert_eq!(chunked_tail(&recs[1..4], 0.95), 3.9);
        assert_eq!(chunked_tail(&[], 0.95), 0.0);
    }

    #[test]
    fn marks_cut_ten_slices() {
        let mut cpu = 0.0;
        let mut marks = Marks::start(10.0, cpu);
        let mut recs = Vec::new();
        for i in 0..100 {
            let t = i as f64 * 0.1;
            recs.push(rec(t, 1.0, true, 0));
            cpu += 0.05;
            marks.poll(t, || cpu);
        }
        marks.finish(10.0, cpu);
        assert_eq!(marks.at.len(), SLICES + 1);
        assert!((marks.wall_s() - 10.0).abs() < 1e-12);
        let slices = marks.per_slice(&recs, &Loop::Open, 0.75);
        assert_eq!(slices.len(), SLICES);
        for s in &slices {
            assert!((s.goodput_sps - 320.0).abs() < 40.0, "{}", s.goodput_sps);
        }
    }
}
