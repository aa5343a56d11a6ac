//! Serving-layer integration: latency SLA and degradation quality under
//! flash crowds, on the engine's virtual clock.
//!
//! First the §4.1 comparison. Each policy is a replay of one trace through
//! the real engine (`Engine::replay`): real forward passes, timed on a
//! virtual clock where a pass costs what Eq. 3's quadratic law says. Two
//! regimes, both asserted:
//! - **Moderate overload** (peaks near the base subnet's capacity — the
//!   paper's §4.1 setting): model slicing dominates *every* coarse policy,
//!   because it degrades exactly as much as the load requires.
//! - **Extreme overload** (peaks far beyond even the base subnet): slicing
//!   still beats the fixed/drop policies, but a swap to an ultra-cheap
//!   model (rel. cost 5 %, e.g. a GBDT) wins on raw throughput — the
//!   honest boundary of the method, since the narrowest subnet is only
//!   ~7× cheaper than the full model.
//!
//! Then the engine's own mechanism on the same clock: dispatch-time binding,
//! under a profile that is true and under one that has drifted 2×.

use modelslicing::models::mlp::{Mlp, MlpConfig};
use modelslicing::nn::layer::Layer;
use modelslicing::nn::shared::SharedWeights;
use modelslicing::serving::controller::{AccuracyTable, RatePolicy, SlaController};
use modelslicing::serving::engine::{Engine, EngineConfig, EngineRequest, ReplayReport};
use modelslicing::serving::profile::LatencyProfile;
use modelslicing::serving::workload::{WorkloadConfig, WorkloadTrace};
use modelslicing::slicing::slice_rate::{SliceRate, SliceRateList};
use modelslicing::telemetry::flight;
use modelslicing::tensor::{SeededRng, Tensor};
use std::collections::HashMap;

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

/// The serving binary's trace (`--bin serving`, full run).
fn binary_trace() -> WorkloadTrace {
    WorkloadTrace::generate(&WorkloadConfig {
        ticks: 4000,
        base_rate: 8.0,
        diurnal_amplitude: 2.0,
        diurnal_period: 500,
        spike_prob: 0.003,
        spike_multiplier: 9.0,
        spike_len: 40,
        seed: 23,
    })
}

/// The trace of `examples/elastic_serving.rs`.
fn example_trace() -> WorkloadTrace {
    WorkloadTrace::generate(&WorkloadConfig {
        ticks: 2000,
        base_rate: 8.0,
        diurnal_amplitude: 2.0,
        diurnal_period: 400,
        spike_prob: 0.004,
        spike_multiplier: 9.0,
        spike_len: 30,
        seed: 7,
    })
}

/// A full-width pass costs 1 ms a sample; at `T = 40 ms` a `T/2` window
/// holds 20 of them.
const T_FULL: f64 = 1e-3;

fn accuracy() -> AccuracyTable {
    AccuracyTable::new(
        SliceRateList::paper_cifar(),
        vec![0.90, 0.92, 0.93, 0.94, 0.945, 0.95],
    )
}

/// One §4.1 policy as the engine runs it: the rate policy, the profile it
/// plans with and is charged by, and the table its answers score against.
struct Row {
    policy: RatePolicy,
    profile: LatencyProfile,
    scores: AccuracyTable,
}

/// The five §4.1 policies: the inelastic full-width server, the base-width
/// model, the swap to a cheap model, dropping the candidates that do not fit
/// at full width, and model slicing.
fn rows() -> [Row; 5] {
    let table = accuracy();
    let law = LatencyProfile::quadratic(SliceRateList::paper_cifar(), T_FULL);
    let row = |policy| Row {
        policy,
        profile: law.clone(),
        scores: table.clone(),
    };
    // The swap is elastic over `{r_min, 1}`: full width while the batch
    // fits, else the `r_min` pass standing in for the cheap model, charged
    // 5 % of a full pass and scored 0.70.
    let r_min = SliceRateList::paper_cifar().min();
    let cheap = SliceRateList::from_rates(&[r_min.get(), 1.0]);
    let swap = Row {
        policy: RatePolicy::Elastic,
        profile: LatencyProfile::new(cheap.clone(), vec![0.05 * T_FULL, T_FULL], 0.0),
        scores: AccuracyTable::new(cheap, vec![0.70, table.at(SliceRate::FULL)]),
    };
    [
        row(RatePolicy::Fixed(SliceRate::FULL)),
        row(RatePolicy::FixedShedding(r_min)),
        swap,
        row(RatePolicy::FixedShedding(SliceRate::FULL)),
        row(RatePolicy::Elastic),
    ]
}

/// Replays `trace` through one replica under `row`, at `T = 40 ms` and
/// headroom 1.0 (the planning budget is the whole window), and scores it.
fn replay_row(row: &Row, trace: &WorkloadTrace) -> (ReplayReport, f64) {
    let replica = Mlp::new(
        &MlpConfig {
            groups: 8,
            ..mlp_config()
        },
        &mut SeededRng::new(11),
    );
    let engine = Engine::start_virtual(
        EngineConfig {
            latency: 0.04,
            headroom: 1.0,
            max_queue: usize::MAX / 2,
            refine: false,
        },
        SlaController::new(row.profile.clone(), row.policy),
        row.profile.clone(),
        vec![Box::new(replica) as Box<dyn Layer + Send>],
    );
    let report = engine.replay(trace, |id| {
        Tensor::full([INPUT_DIM], ((id % 31) as f32) * 0.06 - 0.9)
    });
    engine.shutdown();
    let accuracy = report.effective_accuracy(&row.scores);
    (report, accuracy)
}

/// Every row of [`rows`] over `trace`, in that order.
fn section41(trace: &WorkloadTrace) -> [(ReplayReport, f64); 5] {
    rows().map(|row| replay_row(&row, trace))
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
    let rows = section41(&moderate());
    let (slicing, best) = &rows[4];
    for (i, (_, accuracy)) in rows[..4].iter().enumerate() {
        assert!(best > accuracy, "row {i}: {accuracy} vs slicing {best}");
    }
    // And it sheds essentially nothing.
    let shed_rate = slicing.shed as f64 / slicing.arrived as f64;
    assert!(shed_rate < 0.005, "slicing shed {shed_rate:.4}");
}

#[test]
fn extreme_overload_slicing_beats_fixed_and_drop() {
    let [full, _, (_, swap), drop, (slicing, best)] = section41(&extreme());
    for (name, (other, accuracy)) in [("fixed full", full), ("drop", drop)] {
        assert!(best > accuracy, "{name}: {accuracy} vs slicing {best}");
        // Fewer requests go unanswered in time: shed, or answered late.
        assert!(
            slicing.shed + slicing.late <= other.shed + other.late,
            "{name}"
        );
    }
    // The boundary: beyond the base subnet's capacity the swap's 20× cheaper
    // tier answers more of the crowd, and that outweighs its accuracy.
    assert!(swap > best, "swap {swap} vs slicing {best}");
}

#[test]
fn processing_never_exceeds_the_latency_budget() {
    // Admission control admits only what the profile says finishes inside
    // the window, and here the profile is what a pass costs: nothing
    // admitted is late. Only the inelastic server, which admits all, goes late.
    for trace in [moderate(), extreme()] {
        let rows = section41(&trace);
        assert!(rows[0].0.late > 0);
        for (i, (r, _)) in rows.iter().enumerate().skip(1) {
            assert_eq!(r.late, 0, "row {i}");
        }
    }
}

#[test]
fn replay_reproduces_the_simulator_on_every_policy_and_trace() {
    // (served, shed, effective accuracy) of rows 1–4 and the slicing row's
    // batches per rate, as the discrete-time §4.1 simulator computed them
    // with one tick per T/2 window; the replays reproduce them exactly.
    type Pins = ([(usize, usize, f64); 4], [(f32, u64); 6]);
    let pinned: [(WorkloadTrace, Pins); 4] = [
        (
            moderate(),
            (
                [
                    (54237, 5, 0.899917038458),
                    (54242, 0, 0.840868699531),
                    (37564, 16678, 0.657899782457),
                    (54237, 5, 0.932632554109),
                ],
                [
                    (0.375, 138),
                    (0.5, 90),
                    (0.625, 2),
                    (0.75, 7),
                    (0.875, 113),
                    (1.0, 2650),
                ],
            ),
        ),
        (
            extreme(),
            (
                [
                    (99991, 59550, 0.564067543766),
                    (143690, 15851, 0.656209062246),
                    (53617, 105924, 0.319266834230),
                    (99991, 59550, 0.581103384083),
                ],
                [
                    (0.375, 240),
                    (0.5, 4),
                    (0.625, 345),
                    (0.75, 770),
                    (0.875, 500),
                    (1.0, 1141),
                ],
            ),
        ),
        (
            binary_trace(),
            (
                [
                    (93355, 628, 0.893986146430),
                    (93983, 0, 0.804893970185),
                    (51353, 42630, 0.519086962535),
                    (93355, 628, 0.917604992391),
                ],
                [
                    (0.375, 390),
                    (0.5, 89),
                    (0.625, 1),
                    (0.75, 7),
                    (0.875, 109),
                    (1.0, 3403),
                ],
            ),
        ),
        (
            example_trace(),
            (
                [
                    (40365, 469, 0.889663025910),
                    (40834, 0, 0.823806141941),
                    (24782, 16052, 0.576551403243),
                    (40365, 469, 0.917250330607),
                ],
                [
                    (0.375, 125),
                    (0.5, 24),
                    (0.625, 1),
                    (0.75, 2),
                    (0.875, 76),
                    (1.0, 1771),
                ],
            ),
        ),
    ];
    for (t, (trace, (counts, widths))) in pinned.iter().enumerate() {
        let rows = section41(trace);
        for (r, _) in &rows {
            assert_eq!(r.served + r.shed, r.arrived, "trace {t}");
        }
        // The inelastic server answers everything, and not all of it on time.
        let (full, _) = &rows[0];
        assert_eq!((full.served, full.shed), (trace.total(), 0), "trace {t}");
        assert!(full.late > 0, "trace {t}");
        for (i, ((r, accuracy), &(served, shed, pinned))) in
            rows[1..].iter().zip(counts).enumerate()
        {
            assert_eq!(
                (r.served, r.shed, r.late),
                (served, shed, 0),
                "trace {t} row {}",
                i + 1
            );
            assert!((accuracy - pinned).abs() < 1e-9, "trace {t} row {}", i + 1);
        }
        assert_eq!(rows[4].0.counters.rate_histogram, widths, "trace {t}");
    }
}

#[test]
fn slicing_uses_full_width_when_idle() {
    let trace = WorkloadTrace::generate(&WorkloadConfig {
        ticks: 100,
        base_rate: 2.0,
        diurnal_amplitude: 1.0,
        spike_prob: 0.0,
        ..WorkloadConfig::default()
    });
    let (r, accuracy) = replay_row(&rows()[4], &trace);
    assert_eq!((r.served, r.late), (trace.total(), 0));
    // Every batch runs at full width and scores the full model's accuracy.
    let batches = trace.arrivals.iter().filter(|&&n| n > 0).count() as u64;
    assert_eq!(r.counters.rate_histogram, vec![(1.0, batches)]);
    assert!((accuracy - 0.95).abs() < 1e-9, "{accuracy}");
}

#[test]
fn the_swap_runs_full_width_until_a_batch_overflows_then_the_cheap_model() {
    // A window holds 20 full-width samples and 400 of the cheap model's.
    let trace = WorkloadTrace {
        arrivals: vec![5, 100, 1000],
        rates: vec![5.0, 100.0, 1000.0],
    };
    let (r, accuracy) = replay_row(&rows()[2], &trace);
    assert_eq!((r.served, r.shed, r.late), (505, 600, 0));
    assert_eq!(r.counters.rate_histogram, vec![(0.375, 2), (1.0, 1)]);
    let expected = (5.0 * 0.95 + 500.0 * 0.70) / 1105.0;
    assert!((accuracy - expected).abs() < 1e-12, "{accuracy}");
}

// ---------------------------------------------------------------------------
// The engine's own SLA mechanisms on the same clock: real forward passes
// through the worker pool, where a pass costs what a *truth* profile says,
// which may not be the profile the controller plans with. Every verdict below
// is arithmetic on the trace and the two profiles — nothing here reads the
// wall. What the wall does to these numbers is the benchmark's to say
// (`loadgen.on_time_frac`, `loadgen.step<k>_*` @`wire_staircase`).
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
fn config(window: f64, headroom: f64) -> EngineConfig {
    EngineConfig {
        latency: window * 2.0,
        headroom,
        max_queue: usize::MAX / 2,
        refine: false,
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
        config(2.0 * BUDGET, 0.5),
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
    let cfg = config(BUDGET, 1.0);
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

/// Soak: thousands of traced requests through a wall-clock engine with the
/// flight recorder on. Every request must come back with logits at *some*
/// rate, and every trace chain must be complete and time-ordered.
#[test]
#[ignore = "traced soak; run with --ignored"]
fn traced_soak_serves_everyone_with_complete_monotone_traces() {
    let mut rng = SeededRng::new(17);
    let mut proto = Mlp::new(&mlp_config(), &mut rng);
    let weights = SharedWeights::capture(&mut proto);
    let mut replica = Mlp::new(&mlp_config(), &mut SeededRng::new(18));
    weights.hydrate(&mut replica);
    let engine = Engine::start(
        EngineConfig {
            latency: 0.1,
            headroom: 0.25,
            max_queue: usize::MAX / 2,
            refine: false,
        },
        SlaController::elastic(law(BELIEVED)),
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
                .submit(EngineRequest {
                    input: x,
                    deadline: None,
                    trace_id: tr,
                })
                .expect("soak admits all");
            traces.push(tr);
        }
        engine.seal();
        if round % 16 == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    engine.drain();
    let (responses, _) = engine.wait_events(std::time::Duration::ZERO);
    for r in &responses {
        flight::delivered(r.trace_id);
        assert!(r.rate > 0.0, "request {} served without a rate", r.id);
    }
    assert_eq!(responses.len(), traces.len(), "soak shed requests");
    engine.shutdown();

    let chains = flight::chains();
    let by_id: HashMap<u64, _> = chains.iter().map(|c| (c.trace_id, c)).collect();
    for &tr in &traces {
        let c = by_id.get(&tr).unwrap_or_else(|| panic!("trace {tr} lost"));
        assert!(c.is_complete(), "incomplete chain for trace {tr}");
        assert!(c.is_monotonic(), "out-of-order chain for trace {tr}");
    }
    flight::set_recording(false);
    flight::reset();
}
