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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// The measured-latency tests below time real forward passes, so no other
/// test in this binary may compete for the CPU while one runs (the harness
/// runs tests on parallel threads; CI boxes can be single-core). Every test
/// takes this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

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
    let _serial = serial();
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
    let _serial = serial();
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
    let _serial = serial();
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
    let _serial = serial();
    // By construction every policy decision respects `time_spent ≤ T/2`;
    // verify over both traces for the elastic policy.
    let sim = simulator();
    for trace in [moderate(), extreme()] {
        let report = sim.run(Policy::ModelSlicing, &trace);
        assert!(report.utilization <= 1.0 + 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Measured-latency assertions: the same SLA story, told by the real engine
// instead of the synthetic simulator. The latency profile is calibrated on
// the live network, so every number below is a wall-clock measurement on
// this machine.
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

fn calibrated_profile() -> LatencyProfile {
    let mut rng = SeededRng::new(11);
    let mut net = Mlp::new(&mlp_config(), &mut rng);
    LatencyProfile::calibrate(
        &mut net,
        SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]),
        &[INPUT_DIM],
        512,
        5,
    )
}

/// Runs one single-worker engine over `trace` under the given policy and
/// reports the replay (virtual arrival clock, measured service times).
fn replay_measured(
    profile: &LatencyProfile,
    policy: RatePolicy,
    trace: &WorkloadTrace,
    latency: f64,
) -> ReplayReport {
    let mut rng = SeededRng::new(17);
    let mut proto = Mlp::new(&mlp_config(), &mut rng);
    let weights = SharedWeights::capture(&mut proto);
    let mut replica = Mlp::new(&mlp_config(), &mut SeededRng::new(18));
    weights.hydrate(&mut replica);
    let engine = Engine::start(
        EngineConfig {
            latency,
            // Plan to half the window: the other half absorbs measurement
            // jitter between calibration time and replay time.
            headroom: 0.5,
            max_queue: usize::MAX / 2,
            refine: false,
        },
        SlaController::new(profile.clone(), policy),
        vec![Box::new(replica) as Box<dyn Layer + Send>],
    );
    let report = engine.replay(trace, |id| {
        Tensor::full([INPUT_DIM], ((id % 31) as f32) * 0.06 - 0.9)
    });
    engine.shutdown();
    report
}

/// Calm traffic sized from the calibrated profile itself, with two flash
/// crowds far beyond even the base subnet's capacity.
fn spike_trace(profile: &LatencyProfile, budget: f64) -> WorkloadTrace {
    let calm = (profile.max_batch(SliceRate::FULL, budget) * 7 / 10).max(1);
    let overload = profile.max_batch(SliceRate::new(0.25), budget) * 3;
    let arrivals: Vec<usize> = (0..60)
        .map(|t| {
            if (15..20).contains(&t) || (40..45).contains(&t) {
                overload
            } else {
                calm
            }
        })
        .collect();
    let rates = arrivals.iter().map(|&n| n as f64).collect();
    WorkloadTrace { arrivals, rates }
}

#[test]
fn measured_elastic_beats_every_fixed_rate_on_deadline_hits() {
    let _serial = serial();
    let profile = calibrated_profile();
    // Window sized so a full-width batch of a few hundred samples fits:
    // big enough that OS timing jitter is small relative to the budget.
    let budget = profile.predict(200, SliceRate::FULL);
    let latency = budget * 4.0; // window = T/2 = 2·budget, headroom 0.5
    let trace = spike_trace(&profile, budget);

    let elastic = replay_measured(&profile, RatePolicy::Elastic, &trace, latency);
    // Elastic never plans past the budget, so nearly everything it admits
    // hits the deadline even with measurement noise.
    // Rare multi-x outliers (OS scheduling) can push the odd batch past the
    // window; the bulk must hit the deadline.
    assert!(
        elastic.on_time as f64 >= elastic.served as f64 * 0.85,
        "elastic late too often: {} late of {} served",
        elastic.late,
        elastic.served
    );
    assert!(elastic.served > 0);

    for r in profile.list().iter() {
        let fixed = replay_measured(&profile, RatePolicy::Fixed(r), &trace, latency);
        // The inelastic server answers everything…
        assert_eq!(fixed.shed, 0);
        // …but under the flash crowds it answers late: the elastic engine
        // completes strictly more requests within the SLA.
        assert!(
            elastic.on_time > fixed.on_time,
            "fixed rate {r}: {} on-time vs elastic {} (elastic shed {})",
            fixed.on_time,
            elastic.on_time,
            elastic.shed
        );
    }
}

#[test]
fn measured_elastic_stays_on_time_with_multiple_workers() {
    let _serial = serial();
    let profile = calibrated_profile();
    let budget = profile.predict(200, SliceRate::FULL);
    let latency = budget * 4.0;
    let trace = spike_trace(&profile, budget);

    let mut rng = SeededRng::new(29);
    let mut proto = Mlp::new(&mlp_config(), &mut rng);
    let weights = SharedWeights::capture(&mut proto);
    let replicas = (0..3)
        .map(|i| {
            let mut m = Mlp::new(&mlp_config(), &mut SeededRng::new(100 + i));
            weights.hydrate(&mut m);
            Box::new(m) as Box<dyn Layer + Send>
        })
        .collect();
    let engine = Engine::start(
        EngineConfig {
            latency,
            headroom: 0.5,
            max_queue: usize::MAX / 2,
            refine: false,
        },
        SlaController::elastic(profile),
        replicas,
    );
    let report = engine.replay(&trace, |_| Tensor::zeros([INPUT_DIM]));
    engine.shutdown();
    assert_eq!(report.served + report.shed, report.arrived);
    assert!(
        report.on_time as f64 >= report.served as f64 * 0.85,
        "late {} of {}",
        report.late,
        report.served
    );
}

// ---------------------------------------------------------------------------
// Anytime refinement under calibration drift: live-paced engines.
//
// The replay harness scores deadlines on a virtual timeline, but the
// refinement ladder consults the *wall clock* — so the refine story needs
// engines paced in real time, with tick lengths far above OS jitter. All
// batch sizes below are derived from a live-calibrated profile, so the
// arithmetic is machine-independent: a spike batch is sized to take
// 1.5× the processing window at full width *on this machine, today*.
// ---------------------------------------------------------------------------

/// Wider MLP for the live-paced tests: per-sample cost large enough that
/// profile-derived batch sizes stay small (cheap to stage inside a tick).
fn wide_mlp_config() -> MlpConfig {
    MlpConfig {
        input_dim: INPUT_DIM,
        hidden_dims: vec![128, 128],
        num_classes: 8,
        groups: 4,
        dropout: 0.0,
        input_rescale: true,
    }
}

fn wide_calibrated_profile() -> LatencyProfile {
    let mut rng = SeededRng::new(11);
    let mut net = Mlp::new(&wide_mlp_config(), &mut rng);
    LatencyProfile::calibrate(
        &mut net,
        SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]),
        &[INPUT_DIM],
        128,
        3,
    )
}

/// Scales every per-sample time (and the overhead) by `factor` — a stale
/// profile calibrated when the machine looked `1/factor`× faster than it
/// measures today.
fn drifted(profile: &LatencyProfile, factor: f64) -> LatencyProfile {
    let per_sample = profile
        .list()
        .iter()
        .map(|r| profile.per_sample(r) * factor)
        .collect();
    LatencyProfile::new(
        profile.list().clone(),
        per_sample,
        profile.predict(0, SliceRate::FULL) * factor,
    )
}

struct LiveOutcome {
    served: usize,
    on_time: usize,
    /// Ladder-step counter (per request per step).
    refined: u64,
    /// Highest rate any response was served at.
    top_rate: f32,
}

/// Paces `arrivals` through a single-worker engine in real time: one seal
/// per tick of length `window` seconds, deadlines scored against the wall
/// clock (`sealed + window` — the same instant the refinement ladder
/// plans against). A collector thread timestamps responses as they land.
fn run_live(
    believed: &LatencyProfile,
    arrivals: &[usize],
    window: f64,
    headroom: f64,
    refine: bool,
) -> LiveOutcome {
    let mut rng = SeededRng::new(17);
    let mut proto = Mlp::new(&wide_mlp_config(), &mut rng);
    let weights = SharedWeights::capture(&mut proto);
    let mut replica = Mlp::new(&wide_mlp_config(), &mut SeededRng::new(18));
    weights.hydrate(&mut replica);
    let engine = Engine::start(
        EngineConfig {
            latency: window * 2.0,
            headroom,
            max_queue: usize::MAX / 2,
            refine,
        },
        SlaController::new(believed.clone(), RatePolicy::Elastic),
        vec![Box::new(replica) as Box<dyn Layer + Send>],
    );

    let mut deadline_of: HashMap<u64, Instant> = HashMap::new();
    let stop = AtomicBool::new(false);
    let done: Vec<(u64, f32, Instant)> = thread::scope(|s| {
        let collector = s.spawn(|| {
            let mut done = Vec::new();
            loop {
                let stopping = stop.load(Ordering::Acquire);
                let now = Instant::now();
                for r in engine.take_responses() {
                    done.push((r.id, r.rate, now));
                }
                if stopping {
                    return done;
                }
                thread::sleep(Duration::from_micros(500));
            }
        });
        let tick = Duration::from_secs_f64(window);
        let t0 = Instant::now();
        for (i, &n) in arrivals.iter().enumerate() {
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                let x = Tensor::full([INPUT_DIM], ((i % 31) as f32) * 0.06 - 0.9);
                if let Ok(id) = engine.submit(x) {
                    ids.push(id);
                }
            }
            engine.seal();
            let deadline = Instant::now() + tick;
            for id in ids {
                deadline_of.insert(id, deadline);
            }
            let next = t0 + tick * (i as u32 + 1);
            if let Some(d) = next.checked_duration_since(Instant::now()) {
                thread::sleep(d);
            }
        }
        engine.drain();
        stop.store(true, Ordering::Release);
        collector.join().expect("collector thread")
    });

    let refined = engine.counters().refined;
    engine.shutdown();
    let on_time = done
        .iter()
        .filter(|(id, _, at)| deadline_of.get(id).is_some_and(|d| at <= d))
        .count();
    let top_rate = done.iter().map(|&(_, r, _)| r).fold(0.0f32, f32::max);
    LiveOutcome {
        served: done.len(),
        on_time,
        refined,
        top_rate,
    }
}

/// Calm ticks sized at 70 % of full-width capacity, with two flash crowds
/// whose *true* full-width cost is 1.5× the processing window.
fn live_trace(truth: &LatencyProfile, window: f64) -> Vec<usize> {
    let c_full = truth.max_batch(SliceRate::FULL, window / 2.0).max(2);
    let calm = (c_full * 7 / 10).max(1);
    let overload = c_full * 3;
    (0..30)
        .map(|t| {
            if (8..12).contains(&t) || (20..24).contains(&t) {
                overload
            } else {
                calm
            }
        })
        .collect()
}

#[test]
fn refine_beats_aggressive_planning_under_profile_drift() {
    let _serial = serial();
    let truth = wide_calibrated_profile();
    // Both engines plan against a stale profile that claims the machine is
    // 2× faster than it is. The aggressive engine trusts it and plans the
    // whole window; the conservative engine plans an eighth of the window
    // and relies on the wall-clock refinement ladder to win the width back.
    let believed = drifted(&truth, 0.5);
    let window = 0.01; // 10 ms ticks: far above scheduler jitter
    let trace = live_trace(&truth, window);

    // Headroom 1.0 + optimistic profile: flash-crowd batches are planned at
    // full width but truly cost 1.5× the window — late by construction.
    // (The backlog behind them no longer compounds: a batch dispatched late
    // is re-fitted to the window it has left. The flash crowds themselves
    // are lost all the same.)
    let aggressive = run_live(&believed, &trace, window, 1.0, false);
    // Headroom 0.125 + refinement: base passes are planned narrow (safe even
    // at 2× drift), then each batch climbs the ladder against the *real*
    // clock, which no profile error can fake: the base pass measures how far
    // off the profile is, and every further rung is charged accordingly.
    let refining = run_live(&believed, &trace, window, 0.125, true);

    assert!(refining.refined > 0, "refinement ladder never fired");
    assert!(
        (refining.top_rate - 1.0).abs() < 1e-6,
        "refinement never reached full width: top rate {}",
        refining.top_rate
    );
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
    let _serial = serial();
    let profile = calibrated_profile();
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
        SlaController::new(profile, RatePolicy::Fixed(SliceRate::new(0.25))),
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
            engine.submit_traced(x, None, tr).expect("soak admits all");
            traces.push(tr);
        }
        engine.seal();
        if round % 16 == 0 {
            thread::sleep(Duration::from_millis(1));
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
