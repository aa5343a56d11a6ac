//! Figure 4 + Table 2: NNLM perplexity vs slice rate on the synthetic PTB.
//!
//! Three curves:
//! - `NNLM-1.0` — conventional training (`r1 = 1.0`), then direct slicing:
//!   perplexity explodes as the recurrent width shrinks.
//! - `NNLM-0.375` — model slicing (`r1 = 0.375`): perplexity degrades
//!   gently and the full subnet matches (or beats) conventional training.
//! - `NNLM-fixed` — one independently trained fixed-width model per rate.
//!
//! Table 2 adds the remaining-computation row `Ct` (quadratic in rate).

use ms_core::scheduler::SchedulerKind;
use ms_data::synth_text::TextCorpus;
use ms_experiments::{
    fmt, perplexity_sweep, print_table, text_eval_batches, train_text_model, write_results,
    TextSetting,
};
use ms_models::nnlm::{Nnlm, NnlmConfig};
use ms_nn::slice::active_units;
use ms_tensor::SeededRng;
use serde::Serialize;

#[derive(Serialize)]
struct Fig4Results {
    rates: Vec<f32>,
    remaining_compute: Vec<f64>,
    nnlm_conventional: Vec<f64>,
    nnlm_sliced: Vec<f64>,
    nnlm_fixed: Vec<f64>,
    entropy_floor_ppl: f64,
}

fn nnlm_config(vocab: usize, hidden: usize, groups: usize) -> NnlmConfig {
    NnlmConfig {
        vocab,
        embed_dim: 32,
        hidden_dim: hidden,
        groups,
        dropout: 0.2,
        cell: ms_models::nnlm::RnnCell::Lstm,
    }
}

fn main() {
    let start = std::time::Instant::now();
    let setting = TextSetting::standard();
    let corpus = TextCorpus::generate(setting.corpus.clone());
    let test = text_eval_batches(&corpus.test, setting.batch, setting.seq_len);
    let vocab = setting.corpus.vocab;
    let hidden = 32usize;
    let groups = 8usize;

    // (1) Conventional (r1 = 1.0), directly sliced at eval time.
    eprintln!("[fig4] training conventional NNLM (r1=1.0)…");
    let mut rng = SeededRng::new(900);
    let mut conventional = Nnlm::new(&nnlm_config(vocab, hidden, groups), &mut rng);
    train_text_model(
        &mut conventional,
        &corpus,
        &setting,
        SchedulerKind::Fixed(1.0),
        901,
    );
    let conv_sweep = perplexity_sweep(&mut conventional, &test, &setting.rates);

    // (2) Model slicing (r1 = 0.375), R-min-max scheduling.
    eprintln!("[fig4] training sliced NNLM (r1=0.375)…");
    let mut rng = SeededRng::new(910);
    let mut sliced = Nnlm::new(&nnlm_config(vocab, hidden, groups), &mut rng);
    train_text_model(
        &mut sliced,
        &corpus,
        &setting,
        SchedulerKind::RandomMinMax,
        911,
    );
    let sliced_sweep = perplexity_sweep(&mut sliced, &test, &setting.rates);

    // (3) Fixed-width models, one per rate.
    let mut fixed_ppl = Vec::new();
    for (i, r) in setting.rates.iter().enumerate() {
        eprintln!("[fig4] training fixed NNLM width {:.3}…", r.get());
        let h = active_units(hidden, groups, r);
        let mut rng = SeededRng::new(920 + i as u64);
        let mut model = Nnlm::new(&nnlm_config(vocab, h, 1), &mut rng);
        train_text_model(
            &mut model,
            &corpus,
            &setting,
            SchedulerKind::Fixed(1.0),
            930 + i as u64,
        );
        let one = perplexity_sweep(
            &mut model,
            &test,
            &ms_core::slice_rate::SliceRateList::from_rates(&[1.0]),
        );
        fixed_ppl.push(one[0].perplexity.unwrap_or(f64::NAN));
    }

    // Report (Table 2 layout, descending rates).
    let full_flops = sliced_sweep.last().expect("nonempty").flops;
    let headers = [
        "slice rate",
        "Ct (%)",
        "NNLM-1.0",
        "NNLM-0.375",
        "NNLM-fixed",
    ];
    let mut rows = Vec::new();
    for i in (0..sliced_sweep.len()).rev() {
        rows.push(vec![
            format!("{:.4}", sliced_sweep[i].rate),
            format!(
                "{:.2}",
                100.0 * sliced_sweep[i].flops as f64 / full_flops as f64
            ),
            fmt(conv_sweep[i].perplexity.unwrap_or(f64::NAN), 2),
            fmt(sliced_sweep[i].perplexity.unwrap_or(f64::NAN), 2),
            fmt(fixed_ppl[i], 2),
        ]);
    }
    println!("\nFigure 4 / Table 2 — NNLM perplexity vs slice rate (synthetic PTB)\n");
    print_table(&headers, &rows);
    println!(
        "\ngenerating-chain perplexity floor: {:.2}",
        corpus.entropy_floor_ppl()
    );
    println!("elapsed: {:.1}s", start.elapsed().as_secs_f64());

    write_results(
        "fig4_table2",
        &Fig4Results {
            rates: sliced_sweep.iter().map(|p| p.rate).collect(),
            remaining_compute: sliced_sweep
                .iter()
                .map(|p| p.flops as f64 / full_flops as f64)
                .collect(),
            nnlm_conventional: conv_sweep
                .iter()
                .map(|p| p.perplexity.unwrap_or(f64::NAN))
                .collect(),
            nnlm_sliced: sliced_sweep
                .iter()
                .map(|p| p.perplexity.unwrap_or(f64::NAN))
                .collect(),
            nnlm_fixed: fixed_ppl,
            entropy_floor_ppl: corpus.entropy_floor_ppl(),
        },
    );
}
