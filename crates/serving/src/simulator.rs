//! Discrete-time serving simulation.
//!
//! The §4.1 batching policy: "Build a mini-batch in every `T/2` time, and
//! utilise the rest `T/2` time budget for processing." One tick of the
//! simulation *is* one `T/2` interval: arrivals during tick `t` form the
//! batch processed during tick `t + 1`, giving every sample a worst-case
//! latency of `T` (up to `T/2` waiting + up to `T/2` processing) when the
//! controller keeps processing within budget. Overruns are impossible by
//! construction (policies shed instead), so the comparison is about
//! *effective accuracy* and *shed rate* — exactly the §4.1 claim that
//! fine-grained degradation dominates coarse degradation.

use crate::controller::{AccuracyTable, Policy};
use crate::workload::WorkloadTrace;
use serde::{Deserialize, Serialize};

/// Simulation parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Full-model per-sample processing time (seconds).
    pub t_full: f64,
    /// Latency constraint `T` (seconds); the processing budget is `T/2`.
    pub latency: f64,
}

/// Aggregated outcome of one policy over one trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Policy simulated.
    pub policy: Policy,
    /// Total queries that arrived.
    pub arrived: usize,
    /// Queries served within the latency bound.
    pub served: usize,
    /// Queries shed.
    pub shed: usize,
    /// Mean effective accuracy over batches, weighted by batch size
    /// (shed queries count as wrong).
    pub mean_accuracy: f64,
    /// Mean processing-budget utilisation over non-empty batches.
    pub utilization: f64,
    /// Width usage histogram `(rate, batches)`, elastic policies only.
    pub rate_histogram: Vec<(f32, usize)>,
}

/// Runs policies over workload traces.
pub struct Simulator {
    cfg: SimConfig,
    table: AccuracyTable,
}

impl Simulator {
    /// Creates the simulator.
    pub fn new(cfg: SimConfig, table: AccuracyTable) -> Self {
        assert!(cfg.t_full > 0.0 && cfg.latency > 0.0);
        Simulator { cfg, table }
    }

    /// The accuracy table in use.
    pub fn table(&self) -> &AccuracyTable {
        &self.table
    }

    /// Simulates one policy over a trace.
    pub fn run(&self, policy: Policy, trace: &WorkloadTrace) -> SimReport {
        let budget = self.cfg.latency / 2.0;
        let mut served = 0usize;
        let mut shed = 0usize;
        let mut acc_weighted = 0.0f64;
        let mut weight = 0.0f64;
        let mut util_sum = 0.0f64;
        let mut util_n = 0usize;
        let mut hist: Vec<(f32, usize)> = Vec::new();
        for &size in &trace.arrivals {
            let d = policy.decide(size, self.cfg.t_full, budget, &self.table);
            served += d.served;
            shed += d.shed;
            if size > 0 {
                acc_weighted += d.effective_accuracy * size as f64;
                weight += size as f64;
                util_sum += d.time_spent / budget;
                util_n += 1;
                if let Some(r) = d.rate {
                    match hist.iter_mut().find(|(hr, _)| (*hr - r).abs() < 1e-6) {
                        Some((_, c)) => *c += 1,
                        None => hist.push((r, 1)),
                    }
                }
            }
        }
        hist.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        SimReport {
            policy,
            arrived: trace.total(),
            served,
            shed,
            mean_accuracy: if weight > 0.0 {
                acc_weighted / weight
            } else {
                1.0
            },
            utilization: if util_n > 0 {
                util_sum / util_n as f64
            } else {
                0.0
            },
            rate_histogram: hist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadConfig;
    use ms_core::slice_rate::SliceRateList;

    fn sim() -> Simulator {
        Simulator::new(
            SimConfig {
                t_full: 0.001,
                latency: 0.05,
            },
            AccuracyTable::new(
                SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]),
                vec![0.90, 0.93, 0.94, 0.95],
            ),
        )
    }

    fn spiky_trace() -> WorkloadTrace {
        WorkloadTrace::generate(&WorkloadConfig {
            ticks: 800,
            base_rate: 10.0,
            diurnal_amplitude: 2.0,
            diurnal_period: 200,
            spike_prob: 0.01,
            spike_multiplier: 12.0,
            spike_len: 20,
            seed: 5,
        })
    }

    #[test]
    fn conservation_of_queries() {
        let s = sim();
        let trace = spiky_trace();
        for policy in [Policy::FixedFull, Policy::FixedBase, Policy::ModelSlicing] {
            let r = s.run(policy, &trace);
            assert_eq!(r.served + r.shed, r.arrived, "{policy:?}");
        }
    }

    #[test]
    fn slicing_dominates_coarse_policies_on_spiky_load() {
        let s = sim();
        let trace = spiky_trace();
        let slicing = s.run(Policy::ModelSlicing, &trace);
        let full = s.run(Policy::FixedFull, &trace);
        let base = s.run(Policy::FixedBase, &trace);
        let drop = s.run(Policy::DropCandidates, &trace);
        // The §4.1 headline: elastic width sheds (almost) nothing and keeps
        // accuracy above every coarse policy.
        assert!(slicing.shed <= full.shed);
        assert!(slicing.mean_accuracy > full.mean_accuracy);
        assert!(slicing.mean_accuracy > drop.mean_accuracy);
        // The base-width model also survives the load but pays accuracy for
        // it at all times; slicing only pays during the peaks.
        assert!(slicing.mean_accuracy > base.mean_accuracy);
    }

    #[test]
    fn slicing_uses_full_width_when_idle() {
        let s = sim();
        let trace = WorkloadTrace::generate(&WorkloadConfig {
            ticks: 100,
            base_rate: 2.0,
            diurnal_amplitude: 1.0,
            spike_prob: 0.0,
            ..WorkloadConfig::default()
        });
        let r = s.run(Policy::ModelSlicing, &trace);
        // Histogram collapses to rate 1.0.
        assert_eq!(r.rate_histogram.len(), 1);
        assert_eq!(r.rate_histogram[0].0, 1.0);
        assert!((r.mean_accuracy - 0.95).abs() < 1e-9);
    }

    #[test]
    fn utilization_stays_within_budget() {
        let s = sim();
        let trace = spiky_trace();
        let r = s.run(Policy::ModelSlicing, &trace);
        assert!(r.utilization <= 1.0 + 1e-9, "util {}", r.utilization);
        assert!(r.utilization > 0.05);
    }
}
