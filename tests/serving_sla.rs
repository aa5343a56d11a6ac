//! Serving-layer integration: latency SLA and degradation quality under
//! flash crowds.
//!
//! Two regimes, both asserted:
//! - **Moderate overload** (peaks near the base subnet's capacity — the
//!   paper's §4.1 setting): model slicing dominates *every* coarse policy,
//!   because it degrades exactly as much as the load requires.
//! - **Extreme overload** (peaks far beyond even the base subnet): slicing
//!   still beats the fixed/drop policies, but a swap to an ultra-cheap
//!   model (rel. cost 5 %, e.g. a GBDT) can win on raw throughput — the
//!   honest boundary of the method, since the narrowest subnet is only
//!   ~7× cheaper than the full model.
//!
//! Both are told twice: by the synthetic simulator, then by the real engine
//! on its virtual clock — dispatch-time binding and the refinement ladder
//! included, under a profile that is true and under one that has drifted 2×.

use modelslicing::models::mlp::{Mlp, MlpConfig};
use modelslicing::nn::layer::Layer;
use modelslicing::nn::shared::SharedWeights;
use modelslicing::serving::controller::{AccuracyTable, Policy, RatePolicy, SlaController};
use modelslicing::serving::engine::{Engine, EngineConfig, ReplayReport};
use modelslicing::serving::profile::LatencyProfile;
use modelslicing::serving::simulator::{SimConfig, Simulator};
use modelslicing::serving::workload::{WorkloadConfig, WorkloadTrace};
use modelslicing::slicing::slice_rate::{SliceRate, SliceRateList};
use modelslicing::telemetry::flight;
use modelslicing::tensor::{SeededRng, Tensor};
use std::collections::HashMap;

fn simulator() -> Simulator {
    Simulator::new(
        SimConfig {
            t_full: 1e-3,
            latency: 0.04, // budget 20 ms per batch → 20 full-model queries
        },
        AccuracyTable::new(
            SliceRateList::paper_cifar(),
            vec![0.90, 0.92, 0.93, 0.94, 0.945, 0.95],
        ),
    )
}

fn swap_policy() -> Policy {
    Policy::ModelSwap {
        rel_cost: 0.05,
        accuracy: 0.70,
    }
}

/// Peaks ≈ 140 queries/tick, right at the base subnet's capacity
/// (20 ms / (0.375² · 1 ms) ≈ 142).
fn moderate() -> WorkloadTrace {
    WorkloadTrace::generate(&WorkloadConfig {
        ticks: 3000,
        base_rate: 8.0,
        diurnal_amplitude: 2.0,
        diurnal_period: 600,
        spike_prob: 0.003,
        spike_multiplier: 8.0,
        spike_len: 30,
        seed: 99,
    })
}

/// Peaks ≈ 580 queries/tick, 4× beyond the base subnet's capacity.
fn extreme() -> WorkloadTrace {
    WorkloadTrace::generate(&WorkloadConfig {
        ticks: 3000,
        base_rate: 12.0,
        diurnal_amplitude: 3.0,
        diurnal_period: 600,
        spike_prob: 0.003,
        spike_multiplier: 16.0,
        spike_len: 30,
        seed: 99,
    })
}

#[test]
fn extreme_workload_hits_sixteen_x_peaks() {
    let trace = extreme();
    assert!(
        trace.volatility() > 8.0,
        "trace not volatile enough: {:.1}",
        trace.volatility()
    );
    let peak = trace.rates.iter().cloned().fold(0.0f64, f64::max);
    assert!(peak >= 12.0 * 16.0, "peak rate {peak}");
}

#[test]
fn moderate_overload_slicing_dominates_every_policy() {
    let sim = simulator();
    let trace = moderate();
    let slicing = sim.run(Policy::ModelSlicing, &trace);
    for policy in [
        Policy::FixedFull,
        Policy::FixedBase,
        Policy::DropCandidates,
        swap_policy(),
    ] {
        let other = sim.run(policy, &trace);
        assert!(
            slicing.mean_accuracy > other.mean_accuracy,
            "{policy:?}: {} vs slicing {}",
            other.mean_accuracy,
            slicing.mean_accuracy
        );
    }
    // And it sheds essentially nothing.
    let shed_rate = slicing.shed as f64 / slicing.arrived as f64;
    assert!(shed_rate < 0.005, "slicing shed {shed_rate:.4}");
}

#[test]
fn extreme_overload_slicing_beats_fixed_and_drop() {
    let sim = simulator();
    let trace = extreme();
    let slicing = sim.run(Policy::ModelSlicing, &trace);
    for policy in [Policy::FixedFull, Policy::DropCandidates] {
        let other = sim.run(policy, &trace);
        assert!(
            slicing.mean_accuracy > other.mean_accuracy,
            "{policy:?}: {} vs slicing {}",
            other.mean_accuracy,
            slicing.mean_accuracy
        );
        assert!(slicing.shed <= other.shed, "{policy:?}");
    }
}

#[test]
fn processing_never_exceeds_the_latency_budget() {
    // By construction every policy decision respects `time_spent ≤ T/2`;
    // verify over both traces for the elastic policy.
    let sim = simulator();
    for trace in [moderate(), extreme()] {
        let report = sim.run(Policy::ModelSlicing, &trace);
        assert!(report.utilization <= 1.0 + 1e-9);
    }
}

// ---------------------------------------------------------------------------
// The same SLA story told by the real engine: real forward passes through
// the worker pool, timed on the engine's virtual clock, where a pass costs
// what a *truth* profile says. Every verdict below is arithmetic on the
// trace and the two profiles — nothing here reads the wall. What the wall
// does to these numbers is the benchmark's to say (`loadgen.on_time_frac`,
// `loadgen.step<k>_*` @`wire_staircase`).
// ---------------------------------------------------------------------------

const INPUT_DIM: usize = 16;

fn mlp_config() -> MlpConfig {
    MlpConfig {
        input_dim: INPUT_DIM,
        hidden_dims: vec![48, 48],
        num_classes: 8,
        groups: 4,
        dropout: 0.0,
        input_rescale: true,
    }
}

/// The quadratic law at `t_full` seconds a full-width sample.
fn law(t_full: f64) -> LatencyProfile {
    LatencyProfile::quadratic(SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]), t_full)
}

/// What the controller believes a full-width sample costs.
const BELIEVED: f64 = 1e-5;

/// An engine whose processing window `T/2` is `window`, with an unbounded
/// queue.
fn config(window: f64, headroom: f64, refine: bool) -> EngineConfig {
    EngineConfig {
        latency: window * 2.0,
        headroom,
        max_queue: usize::MAX / 2,
        refine,
    }
}

/// Replays `trace` through `replicas` workers that plan with `law(BELIEVED)`
/// while a pass truly costs `law(truth)`.
fn replay(
    policy: RatePolicy,
    truth: f64,
    cfg: EngineConfig,
    replicas: usize,
    trace: &WorkloadTrace,
) -> ReplayReport {
    let mut proto = Mlp::new(&mlp_config(), &mut SeededRng::new(17));
    let weights = SharedWeights::capture(&mut proto);
    let replicas = (0..replicas)
        .map(|i| {
            let mut m = Mlp::new(&mlp_config(), &mut SeededRng::new(100 + i as u64));
            weights.hydrate(&mut m);
            Box::new(m) as Box<dyn Layer + Send>
        })
        .collect();
    let engine = Engine::start_virtual(
        cfg,
        SlaController::new(law(BELIEVED), policy),
        law(truth),
        replicas,
    );
    let report = engine.replay(trace, |id| {
        Tensor::full([INPUT_DIM], ((id % 31) as f32) * 0.06 - 0.9)
    });
    engine.shutdown();
    report
}

/// Planning budget of the comparisons below: a full-width batch of 200.
const BUDGET: f64 = 200.0 * BELIEVED;

/// Window 2·BUDGET at headroom 0.5; calm ticks of 140, two five-tick crowds
/// of 9600 against a base-rate capacity of 3200.
fn crowds() -> (EngineConfig, WorkloadTrace) {
    (
        config(2.0 * BUDGET, 0.5, false),
        WorkloadTrace::two_crowds(&law(BELIEVED), BUDGET, 60, 5),
    )
}

#[test]
fn elastic_beats_every_fixed_rate_on_deadline_hits() {
    let (cfg, trace) = crowds();
    let elastic = replay(RatePolicy::Elastic, BELIEVED, cfg, 1, &trace);
    // The plan is the truth: elastic admits what fits and all of it is on
    // time; each crowd tick keeps the base rate's 3200 and sheds 6400.
    assert_eq!(elastic.served + elastic.shed, trace.total());
    assert_eq!((elastic.shed, elastic.late), (10 * 6400, 0));
    assert_eq!(elastic.on_time, 50 * 140 + 10 * 3200);

    for r in law(BELIEVED).list().iter() {
        let fixed = replay(RatePolicy::Fixed(r), BELIEVED, cfg, 1, &trace);
        // The inelastic server answers everything, the crowds late and
        // whatever queued behind them with them.
        assert_eq!((fixed.served, fixed.shed), (trace.total(), 0));
        assert_eq!(fixed.on_time + fixed.late, fixed.served);
        assert!(
            fixed.late >= 10 * 9600,
            "fixed rate {r}: only {} late",
            fixed.late
        );
        assert!(fixed.p99_latency > elastic.p99_latency);
        assert!(
            elastic.on_time > fixed.on_time,
            "fixed rate {r}: {} on-time vs elastic {}",
            fixed.on_time,
            elastic.on_time
        );
    }
}

#[test]
fn halving_the_deadline_raises_the_fixed_servers_late_share_not_the_elastic_ones() {
    let (cfg, trace) = crowds();
    let halved = EngineConfig {
        latency: cfg.latency / 2.0,
        ..cfg
    };
    let late_share = |policy, cfg| {
        let r = replay(policy, BELIEVED, cfg, 1, &trace);
        r.late as f64 / r.served as f64
    };
    // Even the fixed server that copes best, pinned to the base rate: a
    // crowd tick is 1.5 windows of work for it, 3 of the halved ones, and
    // the calm batches behind the crowd wait that much longer.
    let base = RatePolicy::Fixed(SliceRate::new(0.25));
    assert!(late_share(base, halved) > late_share(base, cfg));
    assert_eq!(late_share(RatePolicy::Elastic, cfg), 0.0);
    assert_eq!(late_share(RatePolicy::Elastic, halved), 0.0);
}

#[test]
fn a_true_profile_binds_nothing_at_one_replica_or_four() {
    let (cfg, trace) = crowds();
    let solo = replay(RatePolicy::Elastic, BELIEVED, cfg, 1, &trace);
    let pool = replay(RatePolicy::Elastic, BELIEVED, cfg, 4, &trace);
    for r in [&solo, &pool] {
        assert_eq!(r.served + r.shed, r.arrived);
        assert_eq!((r.late, r.counters.rebound), (0, 0));
    }
    assert_eq!(
        (solo.served, solo.p99_latency),
        (pool.served, pool.p99_latency)
    );
    for (a, b) in solo.responses.iter().zip(&pool.responses) {
        assert_eq!((a.id, a.rate, a.batch_seq), (b.id, b.rate, b.batch_seq));
        assert_eq!(a.logits, b.logits, "request {}", a.id);
    }
}

#[test]
fn a_drifted_profile_is_rebound_narrower_never_wider() {
    // Full headroom and passes that cost twice the plan: a calm batch takes
    // 1.4 windows, so batches queue and dispatch finds less window than the
    // plan assumed.
    let cfg = config(BUDGET, 1.0, false);
    let trace = WorkloadTrace::two_crowds(&law(BELIEVED), BUDGET, 60, 5);
    let planned = replay(RatePolicy::Elastic, BELIEVED, cfg, 1, &trace);
    let drifted = replay(RatePolicy::Elastic, 2.0 * BELIEVED, cfg, 1, &trace);
    // A replay is a function of its arguments: run again, the same report.
    let again = replay(RatePolicy::Elastic, 2.0 * BELIEVED, cfg, 1, &trace);
    assert_eq!((drifted.on_time, drifted.late), (again.on_time, again.late));
    assert_eq!(
        (drifted.p50_latency, drifted.p99_latency),
        (again.p50_latency, again.p99_latency)
    );
    assert_eq!(
        drifted.counters.rate_histogram,
        again.counters.rate_histogram
    );
    for (a, b) in drifted.responses.iter().zip(&again.responses) {
        assert_eq!(
            (a.id, a.rate, a.service_time),
            (b.id, b.rate, b.service_time)
        );
        assert_eq!(a.logits, b.logits, "request {}", a.id);
    }
    assert_eq!(planned.counters.rebound, 0);
    // Binding never sheds: admission was settled at seal.
    assert_eq!(
        (drifted.served, drifted.shed),
        (planned.served, planned.shed)
    );
    let mut moved = HashMap::new();
    for (p, d) in planned.responses.iter().zip(&drifted.responses) {
        assert_eq!((p.id, p.batch_seq), (d.id, d.batch_seq));
        assert!(
            d.rate <= p.rate,
            "request {}: {} planned, ran {}",
            p.id,
            p.rate,
            d.rate
        );
        if d.rate < p.rate {
            moved.insert(d.batch_seq, d.rate);
        }
    }
    assert!(!moved.is_empty(), "nothing was rebound");
    assert_eq!(drifted.counters.rebound, moved.len() as u64);
    // Narrower batches are what lets the queue drain: the same drift on a
    // server that cannot rebind is late more often.
    let pinned = replay(
        RatePolicy::Fixed(SliceRate::FULL),
        2.0 * BELIEVED,
        cfg,
        1,
        &trace,
    );
    assert!(drifted.late > 0 && drifted.on_time > pinned.on_time);
}

#[test]
fn refine_beats_aggressive_planning_under_profile_drift() {
    // Both engines plan with a profile that claims the machine is 2× faster
    // than it is. Calm ticks are 70 % of what truly fits half a window at
    // full width; the crowds are 3× what truly fits it at the base rate.
    let window = 0.01;
    let trace = WorkloadTrace::two_crowds(&law(2.0 * BELIEVED), window / 2.0, 30, 4);

    // Headroom 1.0: the crowds are admitted whole at the base rate, planned
    // at 0.75 of the window and truly 1.5 of it — late, and the calm batches
    // queued behind them start late too.
    let aggressive = replay(
        RatePolicy::Elastic,
        2.0 * BELIEVED,
        config(window, 1.0, false),
        1,
        &trace,
    );
    // Headroom 0.125 + refinement: base passes are planned narrow (safe even
    // at 2× drift), then each batch climbs the ladder against the clock: the
    // base pass measures how far off the profile is, and every further rung
    // is charged accordingly.
    let refining = replay(
        RatePolicy::Elastic,
        2.0 * BELIEVED,
        config(window, 0.125, true),
        1,
        &trace,
    );

    assert!(
        refining.counters.refined > 0,
        "refinement ladder never fired"
    );
    let top_rate = refining
        .responses
        .iter()
        .map(|r| r.rate)
        .fold(0.0f32, f32::max);
    assert_eq!(top_rate, 1.0, "refinement never reached full width");
    assert_eq!(refining.late, 0, "the ladder climbed past a deadline");
    assert!(aggressive.late > 0);
    assert!(
        refining.on_time > aggressive.on_time,
        "refine {} on-time of {} vs aggressive {} of {}",
        refining.on_time,
        refining.served,
        aggressive.on_time,
        aggressive.served
    );
}

/// Soak: thousands of traced requests through a refining engine with the
/// flight recorder on. Every request must come back with logits at *some*
/// rate, every trace chain must be complete and time-ordered, and recorded
/// ladder steps must walk strictly upward without gaps.
#[test]
#[ignore = "anytime soak; run with --ignored"]
fn anytime_soak_serves_everyone_with_complete_monotone_traces() {
    let mut rng = SeededRng::new(17);
    let mut proto = Mlp::new(&mlp_config(), &mut rng);
    let weights = SharedWeights::capture(&mut proto);
    let mut replica = Mlp::new(&mlp_config(), &mut SeededRng::new(18));
    weights.hydrate(&mut replica);
    let engine = Engine::start(
        EngineConfig {
            latency: 0.1, // 50 ms window: every batch has refinement slack
            headroom: 0.25,
            max_queue: usize::MAX / 2,
            refine: true,
        },
        // Pin the planner to the base subnet: under this light load an
        // elastic planner would pick full width outright and leave the
        // ladder nothing to do. Fixed(0.25) makes every wider rate the
        // ladder's work, which is what the soak is here to exercise.
        SlaController::new(law(BELIEVED), RatePolicy::Fixed(SliceRate::new(0.25))),
        vec![Box::new(replica) as Box<dyn Layer + Send>],
    );

    flight::reset();
    flight::set_recording(true);
    const ROUNDS: usize = 800;
    const PER_ROUND: usize = 4;
    let mut traces = Vec::with_capacity(ROUNDS * PER_ROUND);
    for round in 0..ROUNDS {
        for k in 0..PER_ROUND {
            let tr = flight::next_trace_id();
            // The soak is its own front-end: stamp the wire event the TCP
            // layer would normally produce.
            flight::wire_decoded(tr, 100_000);
            let x = Tensor::full(
                [INPUT_DIM],
                (((round * PER_ROUND + k) % 31) as f32) * 0.06 - 0.9,
            );
            engine
                .submit_or_return(x, None, tr)
                .expect("soak admits all");
            traces.push(tr);
        }
        engine.seal();
        if round % 16 == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    engine.drain();
    let responses = engine.take_responses();
    for r in &responses {
        flight::delivered(r.trace_id);
        assert!(r.rate > 0.0, "request {} served without a rate", r.id);
    }
    assert_eq!(responses.len(), traces.len(), "soak shed requests");
    let refined_counter = engine.counters().refined;
    assert!(refined_counter > 0, "soak never exercised the ladder");
    engine.shutdown();

    let chains = flight::chains();
    let by_id: HashMap<u64, _> = chains.iter().map(|c| (c.trace_id, c)).collect();
    let mut refine_events = 0usize;
    for &tr in &traces {
        let c = by_id.get(&tr).unwrap_or_else(|| panic!("trace {tr} lost"));
        assert!(c.is_complete(), "incomplete chain for trace {tr}");
        assert!(c.is_monotonic(), "out-of-order chain for trace {tr}");
        let steps = c.refine_steps();
        for &(from, to) in &steps {
            assert!(from < to, "trace {tr}: non-ascending step {from}→{to}");
        }
        for w in steps.windows(2) {
            assert_eq!(w[0].1, w[1].0, "trace {tr}: ladder gap {w:?}");
        }
        refine_events += steps.len();
    }
    // `engine_refined_total` adds one per request per ladder step, and the
    // worker stamps one `RefineStep` event per trace per step: the flight
    // recorder and the metrics registry must tell the same story.
    assert_eq!(
        refine_events as u64, refined_counter,
        "flight ladder steps disagree with engine_refined_total"
    );
    flight::set_recording(false);
    flight::reset();
}
