//! The open-loop load generator both serving workloads share.
//!
//! Arrivals follow a schedule computed from `--seed` before the timed
//! section starts and never wait for completions: a request is sent when it
//! is due, whether or not earlier ones have come back, and its latency is
//! counted from the instant it was *due*, so a stall in the generator or
//! the system charges every request it delayed. How late the generator
//! itself ran is reported beside the results, and a run whose p90 lateness
//! exceeds [`MAX_LATENESS_P90_MS`] is remarked on as measuring the machine
//! more than the program. It is not failed for it: on a shared host other
//! tenants stall the whole virtual machine for tens of milliseconds at bad
//! hours, the outputs are no less correct for that, and the medians the
//! end-to-end metrics are built from ride such a run out.

use crate::harness::close_rel;
use crate::record::{Marks, Rec};
use crate::{stats, sys};
use ms_core::inference::batched_sliced_forward;
use ms_core::slice_rate::SliceRate;
use ms_net::protocol::{InferOutcome, InferResponse, WireShedReason};
use ms_nn::layer::Layer;
use ms_tensor::{SeededRng, Tensor};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub const MAX_LATENESS_P90_MS: f64 = 1.0;
/// One delivered response in this many has its logits recomputed in-process.
pub const VERIFY_EVERY: u64 = 64;
/// Seeded inputs the requests cycle through.
pub const INPUT_POOL: usize = 256;
/// Rates the serving controllers may pick, in both serving workloads (the
/// `shard_server` binary hard-codes the same list).
pub const SERVE_RATES: [f32; 4] = [0.25, 0.5, 0.75, 1.0];
/// How long after the last arrival a response may still come back.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(5);

/// Seeded Poisson arrivals over consecutive `(rate per second, seconds)`
/// steps; returns each arrival's due time in seconds from the start.
pub fn poisson_schedule(seed: u64, steps: &[(f64, f64)]) -> Vec<f64> {
    let mut rng = SeededRng::new(seed ^ 0xA221_7A15);
    let mut due = Vec::new();
    let mut start = 0.0;
    for &(rate, len) in steps {
        let mut t = start;
        loop {
            // Inverse-CDF exponential gap; 1 − u is never 0.
            let u = f64::from(rng.uniform(0.0, 1.0));
            t += -(1.0 - u).ln() / rate;
            if t >= start + len {
                break;
            }
            due.push(t);
        }
        start += len;
    }
    due
}

/// Arrivals given as a count per tick, spread evenly inside each tick.
pub fn spread_ticks(per_tick: &[usize], tick_s: f64) -> Vec<f64> {
    let mut due = Vec::with_capacity(per_tick.iter().sum());
    for (i, &n) in per_tick.iter().enumerate() {
        for k in 0..n {
            due.push((i as f64 + k as f64 / n as f64) * tick_s);
        }
    }
    due
}

/// `INPUT_POOL` seeded `[dim]` inputs with entries in −1..1.
pub fn input_pool(seed: u64, dim: usize) -> Vec<Tensor> {
    let mut rng = SeededRng::new(seed ^ 0x1A9B_7500);
    (0..INPUT_POOL)
        .map(|_| {
            let data = (0..dim).map(|_| rng.uniform(-1.0, 1.0)).collect();
            Tensor::from_vec([dim], data).expect("input shape")
        })
        .collect()
}

/// What the generator drives: a pipelined client or a front router.
pub trait Target {
    /// Queues one request. `Some` is an immediate refusal.
    fn send(&mut self, id: u64, input: &Tensor) -> Option<InferResponse>;
    /// Pushes queued requests to the sockets.
    fn flush(&mut self);
    /// Waits up to `wait` for a response and hands over the few that are
    /// there; must not keep draining a stream that is still arriving.
    fn poll(&mut self, wait: Duration, sink: &mut dyn FnMut(InferResponse));
    /// Called once per loop turn with the seconds since start; the fleet
    /// runs its control plane here, on the dispatching thread.
    fn housekeeping(&mut self, _now_s: f64) {}
    /// CPU-seconds used so far by everything that serves the load.
    fn cpu_seconds(&self) -> f64 {
        sys::cpu_seconds_self()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Pending,
    Delivered,
    Shed,
}

/// A delivered response kept for recomputation.
pub struct Kept {
    pub id: u64,
    pub rate_used: f32,
    pub logits: Vec<f32>,
}

pub struct Run {
    pub recs: Vec<Rec>,
    pub marks: Marks,
    pub sent: u64,
    pub delivered: u64,
    pub shed_backpressure: u64,
    pub shed_admission: u64,
    pub shed_other: u64,
    pub failover_shed: u64,
    pub lost: u64,
    /// Responses for an id that had already settled, or was never sent.
    pub strays: u64,
    pub lateness_ms: Vec<f64>,
    pub kept: Vec<Kept>,
    /// `rate_used` of every delivered response, by request index.
    pub rates: Vec<f32>,
}

/// Drives `target` through `due` (seconds from now, ascending). Request
/// `i` has id `i + 1` and input `inputs[i % len]`. `macs[k]` is the cost of
/// the slice served at `SERVE_RATES[k]` (a response counts at the candidate
/// nearest its `rate_used`); `deadline_ms` is the frozen client deadline a
/// good response must meet.
pub fn drive(
    target: &mut dyn Target,
    due: &[f64],
    inputs: &[Tensor],
    seconds: f64,
    deadline_ms: f64,
    macs: &[f64; 4],
) -> Run {
    let n = due.len();
    let mut fate = vec![Fate::Pending; n];
    let mut run = Run {
        recs: due
            .iter()
            .map(|&t| Rec {
                t,
                lat_ms: f64::NAN,
                good: false,
                samples: 1,
                macs: 0.0,
                cell: 0,
            })
            .collect(),
        marks: Marks::start(seconds, target.cpu_seconds()),
        sent: 0,
        delivered: 0,
        shed_backpressure: 0,
        shed_admission: 0,
        shed_other: 0,
        failover_shed: 0,
        lost: 0,
        strays: 0,
        lateness_ms: Vec::with_capacity(n),
        kept: Vec::new(),
        rates: vec![0.0; n],
    };
    if !sys::prefer_this_thread() {
        eprintln!("loadgen: could not raise the generator's priority; see its lateness below");
    }
    let t0 = Instant::now();
    let now_s = |t0: Instant| t0.elapsed().as_secs_f64();
    let mut outstanding = 0usize;
    let mut next = 0usize;
    let mut last_arrival_done: Option<Instant> = None;

    // Settles one response against the books; `at` is its receipt time.
    let mut settle = |resp: InferResponse, at: f64, run: &mut Run, outstanding: &mut usize| {
        let idx = resp.correlation_id.wrapping_sub(1) as usize;
        if idx >= n || fate[idx] != Fate::Pending || idx >= run.sent as usize {
            run.strays += 1;
            return;
        }
        *outstanding -= 1;
        match resp.outcome {
            InferOutcome::Logits { data, .. } => {
                fate[idx] = Fate::Delivered;
                run.delivered += 1;
                let lat_ms = (at - due[idx]) * 1e3;
                let rec = &mut run.recs[idx];
                rec.lat_ms = lat_ms;
                rec.good = lat_ms <= deadline_ms;
                let nearest = (0..SERVE_RATES.len())
                    .min_by(|&a, &b| {
                        let off = |k: usize| (SERVE_RATES[k] - resp.rate_used).abs();
                        off(a).total_cmp(&off(b))
                    })
                    .expect("four rates");
                rec.macs = macs[nearest];
                run.rates[idx] = resp.rate_used;
                if resp.correlation_id.is_multiple_of(VERIFY_EVERY) {
                    run.kept.push(Kept {
                        id: resp.correlation_id,
                        rate_used: resp.rate_used,
                        logits: data,
                    });
                }
            }
            InferOutcome::Shed(reason) => {
                fate[idx] = Fate::Shed;
                match reason {
                    WireShedReason::Backpressure => run.shed_backpressure += 1,
                    WireShedReason::Admission => run.shed_admission += 1,
                    WireShedReason::Failover => run.failover_shed += 1,
                    _ => run.shed_other += 1,
                }
            }
        }
    };

    while !sys::interrupted() {
        let mut now = now_s(t0);
        let mut sent_any = false;
        while next < n && due[next] <= now {
            run.lateness_ms.push((now - due[next]) * 1e3);
            let id = next as u64 + 1;
            let refused = target.send(id, &inputs[next % inputs.len()]);
            run.sent += 1;
            outstanding += 1;
            next += 1;
            sent_any = true;
            if let Some(resp) = refused {
                settle(resp, now_s(t0), &mut run, &mut outstanding);
            }
            now = now_s(t0);
        }
        if sent_any {
            target.flush();
        }
        target.housekeeping(now);
        run.marks.poll(now, || target.cpu_seconds());
        if next >= n {
            let since = *last_arrival_done.get_or_insert_with(Instant::now);
            if outstanding == 0 || since.elapsed() >= SETTLE_TIMEOUT {
                break;
            }
        }
        // Collect responses until the next arrival is due. Each poll hands
        // over what has arrived and returns, so a long burst of responses
        // can never keep the generator from its schedule.
        let until = Instant::now()
            + if next < n {
                Duration::from_secs_f64((due[next] - now_s(t0)).max(0.0))
            } else {
                Duration::from_millis(20)
            };
        loop {
            let left = until.saturating_duration_since(Instant::now());
            target.poll(left, &mut |resp| {
                let at = now_s(t0);
                settle(resp, at, &mut run, &mut outstanding)
            });
            if Instant::now() >= until || (next >= n && outstanding == 0) {
                break;
            }
        }
    }
    let end = due.last().copied().unwrap_or(0.0).max(seconds);
    run.marks.finish(end, target.cpu_seconds());
    run.lost = fate
        .iter()
        .take(run.sent as usize)
        .filter(|f| **f == Fate::Pending)
        .count() as u64;
    run
}

impl Run {
    /// Accounting checks every serving workload must pass; appends what
    /// failed to `errors` and returns how many checks were made.
    pub fn check_accounts(
        &self,
        planned: usize,
        max_refused_frac: f64,
        errors: &mut Vec<String>,
    ) -> u64 {
        let shed = self.shed_backpressure + self.shed_admission + self.shed_other;
        if self.sent as usize != planned {
            errors.push(format!(
                "sent {} of {planned} scheduled requests",
                self.sent
            ));
        }
        if self.sent != self.delivered + shed + self.failover_shed + self.lost {
            errors.push(format!(
                "accounts do not add up: sent {} != delivered {} + shed {shed} + failover {} + lost {}",
                self.sent, self.delivered, self.failover_shed, self.lost
            ));
        }
        if self.lost != 0 {
            errors.push(format!("{} requests never settled", self.lost));
        }
        if self.strays != 0 {
            errors.push(format!(
                "{} responses for ids that were not pending",
                self.strays
            ));
        }
        // The two remarks below are about the machine and the load, not
        // about the outputs: neither fails the run.
        let late = stats::percentile(&stats::sorted(self.lateness_ms.clone()), 0.90);
        if late > MAX_LATENESS_P90_MS {
            eprintln!(
                "slicebench: warning: generator lateness p90 {late:.3} ms exceeds {MAX_LATENESS_P90_MS} ms; this run measured a stalling machine"
            );
        }
        let refused = self.sent - self.delivered - self.lost;
        let refused_frac = refused as f64 / self.sent.max(1) as f64;
        if refused_frac > max_refused_frac {
            eprintln!(
                "slicebench: warning: {refused} of {} requests were refused ({refused_frac:.4} > {max_refused_frac})",
                self.sent
            );
        }
        4
    }

    /// Recomputes every kept response on `net`, a copy of the served model,
    /// at its `rate_used`; the wire must not have changed a logit by more
    /// than 1e-5 relative. Returns how many were checked.
    pub fn verify_kept(
        &self,
        net: &mut dyn Layer,
        inputs: &[Tensor],
        errors: &mut Vec<String>,
    ) -> u64 {
        for k in &self.kept {
            let input = inputs[(k.id as usize - 1) % inputs.len()].clone();
            let want = batched_sliced_forward(net, &[input], SliceRate::new(k.rate_used));
            if !close_rel(&k.logits, want[0].data(), 1e-5) {
                errors.push(format!(
                    "request {}: logits over the wire differ from an in-process pass at r={}",
                    k.id, k.rate_used
                ));
            }
        }
        self.kept.len() as u64
    }

    /// Requests whose outcome was wrong: never settled, or settled twice.
    /// A refusal is the admission controller answering as designed under
    /// overload; it misses its deadline (and so lowers `goodput_sps`) but
    /// is not a failed operation.
    pub fn failed(&self) -> u64 {
        self.lost + self.strays
    }

    /// The `loadgen.*` per-layer metrics; `step_s` is the length of one of
    /// the five steps the schedule is reported in.
    pub fn layer_metrics(&self, step_s: f64, out: &mut BTreeMap<&'static str, f64>) {
        let late = stats::sorted(self.lateness_ms.clone());
        out.insert("loadgen.lateness_ms_p50", stats::percentile(&late, 0.5));
        out.insert("loadgen.lateness_ms_p99", stats::percentile(&late, 0.99));
        out.insert(
            "loadgen.lateness_ms_max",
            *late.last().expect("at least one request"),
        );
        out.insert("loadgen.sent", self.sent as f64);
        out.insert("loadgen.delivered", self.delivered as f64);
        let shed =
            self.shed_backpressure + self.shed_admission + self.shed_other + self.failover_shed;
        out.insert("loadgen.shed", shed as f64);
        out.insert("loadgen.lost", self.lost as f64);
        let good = self.recs.iter().filter(|r| r.good).count() as f64;
        out.insert("loadgen.on_time_frac", good / self.sent.max(1) as f64);
        let delivered: Vec<f64> = self
            .rates
            .iter()
            .filter(|r| **r > 0.0)
            .map(|r| f64::from(*r))
            .collect();
        out.insert(
            "loadgen.mean_served_rate",
            delivered.iter().sum::<f64>() / delivered.len().max(1) as f64,
        );
        const ON_TIME: [&str; 5] = [
            "loadgen.step1_on_time_frac",
            "loadgen.step2_on_time_frac",
            "loadgen.step3_on_time_frac",
            "loadgen.step4_on_time_frac",
            "loadgen.step5_on_time_frac",
        ];
        const TAIL: [&str; 5] = [
            "loadgen.step1_p99_ms",
            "loadgen.step2_p99_ms",
            "loadgen.step3_p99_ms",
            "loadgen.step4_p99_ms",
            "loadgen.step5_p99_ms",
        ];
        const RATE: [&str; 5] = [
            "loadgen.step1_mean_rate",
            "loadgen.step2_mean_rate",
            "loadgen.step3_mean_rate",
            "loadgen.step4_mean_rate",
            "loadgen.step5_mean_rate",
        ];
        let mut max_ok_rps = 0.0f64;
        for k in 0..5 {
            let (lo, hi) = (k as f64 * step_s, (k + 1) as f64 * step_s);
            let idx: Vec<usize> = (0..self.recs.len())
                .filter(|&i| self.recs[i].t >= lo && self.recs[i].t < hi)
                .collect();
            if idx.is_empty() {
                continue;
            }
            let on_time =
                idx.iter().filter(|&&i| self.recs[i].good).count() as f64 / idx.len() as f64;
            let lats = stats::sorted(
                idx.iter()
                    .map(|&i| self.recs[i].lat_ms)
                    .filter(|l| l.is_finite())
                    .collect(),
            );
            let rates: Vec<f64> = idx
                .iter()
                .map(|&i| f64::from(self.rates[i]))
                .filter(|r| *r > 0.0)
                .collect();
            out.insert(ON_TIME[k], on_time);
            if !lats.is_empty() {
                out.insert(TAIL[k], stats::percentile(&lats, 0.99));
                // No growing backlog: the step's last tenth is no slower
                // than twice its median.
                let tail_third: Vec<f64> = idx[idx.len() * 9 / 10..]
                    .iter()
                    .map(|&i| self.recs[i].lat_ms)
                    .filter(|l| l.is_finite())
                    .collect();
                let settled = tail_third.is_empty()
                    || stats::median(&tail_third) <= 2.0 * stats::percentile(&lats, 0.5);
                if on_time >= 0.95 && settled {
                    max_ok_rps = max_ok_rps.max(idx.len() as f64 / step_s);
                }
            }
            out.insert(
                RATE[k],
                rates.iter().sum::<f64>() / rates.len().max(1) as f64,
            );
        }
        out.insert("loadgen.max_ok_rps", max_ok_rps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEPS: [(f64, f64); 2] = [(500.0, 4.0), (2000.0, 4.0)];

    #[test]
    fn same_seed_same_schedule_and_inputs() {
        assert_eq!(poisson_schedule(7, &STEPS), poisson_schedule(7, &STEPS));
        let (a, b) = (input_pool(7, 16), input_pool(7, 16));
        assert_eq!(a.len(), INPUT_POOL);
        assert!(a.iter().zip(&b).all(|(x, y)| x.data() == y.data()));
        assert_ne!(a[0].data(), input_pool(8, 16)[0].data());
    }

    #[test]
    fn another_seed_differs_but_keeps_the_mean_rate() {
        let (a, b) = (poisson_schedule(7, &STEPS), poisson_schedule(8, &STEPS));
        assert_ne!(a, b);
        let expected = 500.0 * 4.0 + 2000.0 * 4.0;
        for s in [&a, &b] {
            assert!(
                (s.len() as f64 - expected).abs() < 0.04 * expected,
                "{} arrivals",
                s.len()
            );
            assert!(s.windows(2).all(|w| w[0] <= w[1]), "ascending");
            let first_step = s.iter().filter(|t| **t < 4.0).count() as f64;
            assert!(
                (first_step - 2000.0).abs() < 0.08 * 2000.0,
                "{first_step} in step one"
            );
        }
    }

    #[test]
    fn ticks_spread_evenly() {
        let due = spread_ticks(&[2, 0, 4], 0.01);
        let want = [0.0, 0.005, 0.02, 0.0225, 0.025, 0.0275];
        assert_eq!(due.len(), want.len());
        assert!(due.iter().zip(want).all(|(a, b)| (a - b).abs() < 1e-12));
    }

    /// Answers every request on the next poll; sheds ids divisible by 5.
    struct Echo {
        queued: Vec<u64>,
    }

    impl Target for Echo {
        fn send(&mut self, id: u64, _input: &Tensor) -> Option<InferResponse> {
            self.queued.push(id);
            None
        }
        fn flush(&mut self) {}
        fn poll(&mut self, _wait: Duration, sink: &mut dyn FnMut(InferResponse)) {
            for id in self.queued.drain(..) {
                let outcome = if id % 5 == 0 {
                    InferOutcome::Shed(WireShedReason::Admission)
                } else {
                    InferOutcome::Logits {
                        dims: vec![1],
                        data: vec![id as f32],
                    }
                };
                sink(InferResponse {
                    correlation_id: id,
                    rate_used: if id % 5 == 0 { 0.0 } else { 0.5 },
                    outcome,
                });
            }
        }
    }

    #[test]
    fn every_id_settles_exactly_once() {
        let due: Vec<f64> = (0..200).map(|i| i as f64 * 1e-4).collect();
        let inputs = input_pool(1, 4);
        let mut echo = Echo { queued: Vec::new() };
        let run = drive(
            &mut echo,
            &due,
            &inputs,
            0.02,
            50.0,
            &[25.0, 50.0, 75.0, 100.0],
        );
        assert_eq!(
            (
                run.sent,
                run.delivered,
                run.shed_admission,
                run.lost,
                run.strays
            ),
            (200, 160, 40, 0, 0)
        );
        assert_eq!(run.failed(), 0);
        assert_eq!(run.kept.len(), 3); // ids 64, 128, 192
        let mut errors = Vec::new();
        run.check_accounts(200, 0.25, &mut errors);
        assert!(errors.is_empty(), "{errors:?}");
        assert!(run.recs.iter().filter(|r| r.good).all(|r| r.macs == 50.0));
        let mut layer = BTreeMap::new();
        run.layer_metrics(0.004, &mut layer);
        assert_eq!(layer["loadgen.sent"], 200.0);
        assert!((layer["loadgen.on_time_frac"] - 0.8).abs() < 1e-12);
        assert_eq!(layer["loadgen.mean_served_rate"], 0.5);
    }
}
