//! `infer_ladder`: closed loop, one thread, no serving stack.
//!
//! Batches of 32 go through the direct sliced forward at four rates and
//! through the four-rung refine ladder, on three networks. `ms-tensor`,
//! `ms-nn` and `ms-core` do all the work here and `ms-net`/`ms-cluster`
//! none, so a change to the wire or the fleet must leave this flat. Direct
//! and refine are the same layers used two ways; each is its own path in
//! the goodput geomean so neither can hide behind the other.

use crate::harness::{close_rel, repeat_setup, Args, Outcome};
use crate::models::{self, Model, BATCH};
use crate::record::{Loop, Marks, Rec};
use crate::runner::Runner;
use crate::{spans, sys};
use ms_core::cost::CostModel;
use ms_core::inference::ElasticEngine;
use ms_core::slice_rate::SliceRateList;
use ms_tensor::{SeededRng, Tensor};
use std::collections::BTreeMap;
use std::time::Instant;

/// Distinct seeded batches each network cycles through.
const BATCHES: usize = 4;
/// Consecutive passes of one cell per round, so a cell runs on the caches
/// it warmed itself, as a server pinned to one rate would.
const REPS: usize = 2;
/// Tail percentile: the highest a tenth of the run (~170 ops) supports
/// with ten samples beyond it.
const TAIL_Q: f64 = 0.90;
/// Requests per batch checked against the per-sample path.
const CHECKED_ROWS: usize = 8;

const LADDER_CELL: u16 = 12;

fn direct_cell(m: usize, r: usize) -> u16 {
    (m * 4 + r) as u16
}

fn setup(seed: u64) -> Vec<Runner> {
    let mut rng = SeededRng::new(seed);
    let mut runners: Vec<Runner> = Model::ALL
        .iter()
        .map(|&m| Runner::new(m, BATCHES, &mut rng.fork(m as u64)))
        .collect();
    // Warm the buffer pool, workspaces and prefix caches of every cell.
    for run in &mut runners {
        for b in 0..BATCHES {
            for r in models::rates() {
                run.direct(b, r);
            }
            run.ladder(b, |_, _| {});
        }
    }
    runners
}

pub fn run(args: &Args) -> Outcome {
    let (mut runners, setup_s) = repeat_setup(args.trace, || setup(args.seed));
    let rates = models::rates();
    let mut recs: Vec<Rec> = Vec::with_capacity(1 << 14);
    let mut marks = Marks::start(args.seconds, sys::cpu_seconds_self());
    let t0 = Instant::now();
    let mut round = 0usize;
    let mut op = 0u64;
    while t0.elapsed().as_secs_f64() < args.seconds && !sys::interrupted() {
        let b = round % BATCHES;
        for (mi, run) in runners.iter_mut().enumerate() {
            for (ri, &r) in rates.iter().enumerate() {
                for _ in 0..REPS {
                    op += 1;
                    let due = t0.elapsed().as_secs_f64();
                    let t = Instant::now();
                    {
                        let _s = spans::span("core.batched_forward", op);
                        run.direct(b, r);
                    }
                    let lat_ms = t.elapsed().as_secs_f64() * 1e3;
                    recs.push(Rec {
                        t: due,
                        lat_ms,
                        good: !run.out.is_empty(),
                        samples: BATCH as u32,
                        macs: run.macs[ri] * BATCH as f64,
                        cell: direct_cell(mi, ri),
                    });
                }
            }
            for _ in 0..REPS {
                op += 1;
                let due = t0.elapsed().as_secs_f64();
                let t = Instant::now();
                {
                    let _s = spans::span("core.refine_ladder", op);
                    let mut from = None;
                    for &r in &rates {
                        let _s = spans::span("core.refine_step", op);
                        run.refine(b, from, r);
                        from = Some(r);
                    }
                }
                let lat_ms = t.elapsed().as_secs_f64() * 1e3;
                recs.push(Rec {
                    t: due,
                    lat_ms,
                    good: !run.out.is_empty(),
                    samples: BATCH as u32,
                    macs: run.macs[3] * BATCH as f64,
                    cell: LADDER_CELL + mi as u16,
                });
            }
        }
        round += 1;
        marks.poll(t0.elapsed().as_secs_f64(), sys::cpu_seconds_self);
    }
    marks.finish(t0.elapsed().as_secs_f64(), sys::cpu_seconds_self());

    let mut errors = Vec::new();
    let mut checks = 0u64;
    for run in &mut runners {
        checks += check(run, &mut errors);
    }
    let failed = recs.iter().filter(|r| !r.good).count() as u64 + errors.len() as u64;
    Outcome {
        attempted: recs.len() as u64 + checks,
        failed,
        errors,
        setup_s,
        recs,
        lp: Loop::Closed {
            paths: vec![
                (0..LADDER_CELL).collect(),
                (LADDER_CELL..LADDER_CELL + 3).collect(),
            ],
        },
        marks,
        tail_q: TAIL_Q,
        layer: BTreeMap::new(),
    }
}

/// Output checks on batch 0 of one network; returns how many were made.
///
/// Direct logits at each rate must match the per-sample
/// `ElasticEngine::predict_at` path within 1e-4 relative, and every rung of
/// the refine ladder must be bitwise-equal to a fresh `from = None` prefix
/// pass at the same rate on a second copy of the network.
fn check(run: &mut Runner, errors: &mut Vec<String>) -> u64 {
    let tag = run.model.tag();
    let list = SliceRateList::from_rates(&models::RATES);
    let engine = ElasticEngine::new(CostModel::measure(run.net.as_mut(), list));
    let mut checks = 0;
    for (r, rtag) in models::rates().into_iter().zip(models::RATE_TAGS) {
        run.direct(0, r);
        let got = run.out_flat();
        let per_row = got.len() / BATCH;
        for i in 0..CHECKED_ROWS {
            let row = &run.batches[0].rows[i];
            let mut dims = vec![1];
            dims.extend_from_slice(row.dims());
            let x = Tensor::from_vec(dims, row.data().to_vec()).expect("one-sample batch");
            let want = engine.predict_at(run.net.as_mut(), &x, r);
            checks += 1;
            if !close_rel(&got[i * per_row..(i + 1) * per_row], want.data(), 1e-4) {
                errors.push(format!(
                    "{tag} {rtag}: batched row {i} differs from predict_at"
                ));
            }
        }
    }
    let mut fresh = Runner::with_batches(run.model, vec![run.batches[0].clone()]);
    let mut rungs: Vec<Vec<f32>> = Vec::new();
    run.ladder(0, |r, _| rungs.push(r.out_flat()));
    for ((r, rtag), climbed) in models::rates()
        .into_iter()
        .zip(models::RATE_TAGS)
        .zip(&rungs)
    {
        fresh.refine(0, None, r);
        checks += 1;
        let same = fresh
            .out_flat()
            .iter()
            .zip(climbed)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same || fresh.out_flat().len() != climbed.len() {
            errors.push(format!(
                "{tag} {rtag}: refined logits are not bitwise a fresh prefix pass"
            ));
        }
    }
    checks
}
