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

use crate::{
    eval_nll, scalar, sweep, text_eval_batches, train_text_model, Fmt, RatePoint, Report, Run,
    Table, TextSetting,
};
use ms_core::scheduler::SchedulerKind;
use ms_core::slice_rate::SliceRate;
use ms_data::synth_text::TextCorpus;
use ms_models::nnlm::{Nnlm, NnlmConfig, RnnCell};
use ms_nn::slice::active_units;
use ms_tensor::SeededRng;

fn nnlm_config(vocab: usize, hidden: usize, groups: usize) -> NnlmConfig {
    NnlmConfig {
        vocab,
        embed_dim: 32,
        hidden_dim: hidden,
        groups,
        dropout: 0.2,
        cell: RnnCell::Lstm,
    }
}

/// Runs Figure 4 / Table 2.
pub fn run(run: &Run) -> Report {
    let setting = TextSetting::standard(run);
    let corpus = TextCorpus::generate(setting.corpus.clone());
    let test = text_eval_batches(&corpus.test, setting.batch, setting.seq_len);
    let vocab = setting.corpus.vocab;
    let (hidden, groups) = (32usize, 8usize);
    let ppl = |m: &mut dyn ms_nn::layer::Layer, r: SliceRate| eval_nll(m, &test, r).exp();
    // Trains an NNLM of width `hidden` split into `groups` under `kind`.
    let trained = |hidden: usize, groups: usize, kind: SchedulerKind, seeds: (u64, u64)| {
        let mut model = Nnlm::new(
            &nnlm_config(vocab, hidden, groups),
            &mut SeededRng::new(seeds.0),
        );
        train_text_model(&mut model, &corpus, &setting, kind, seeds.1);
        model
    };

    // (1) Conventional (r1 = 1.0), directly sliced at eval time.
    eprintln!("[fig4] training conventional NNLM (r1=1.0)…");
    let mut conventional = trained(hidden, groups, SchedulerKind::Fixed(1.0), (900, 901));
    let conv_sweep = sweep(&mut conventional, &setting.rates, ppl);

    // (2) Model slicing (r1 = 0.375), R-min-max scheduling.
    eprintln!("[fig4] training sliced NNLM (r1=0.375)…");
    let mut sliced = trained(hidden, groups, SchedulerKind::RandomMinMax, (910, 911));
    let sliced_sweep = sweep(&mut sliced, &setting.rates, ppl);

    // (3) Fixed-width models, one per rate.
    let mut fixed_ppl = Vec::new();
    for (i, r) in setting.rates.iter().enumerate() {
        eprintln!("[fig4] training fixed NNLM width {:.3}…", r.get());
        let h = active_units(hidden, groups, r);
        let seeds = (920 + i as u64, 930 + i as u64);
        let mut model = trained(h, 1, SchedulerKind::Fixed(1.0), seeds);
        fixed_ppl.push(ppl(&mut model, SliceRate::FULL));
    }

    // Report (Table 2 layout, descending rates).
    let full_flops = sliced_sweep.last().expect("nonempty").flops as f64;
    let of = |sweep: &[RatePoint], f: fn(&RatePoint) -> f64| sweep.iter().map(f).collect();
    let rows = sliced_sweep.iter().map(|p| format!("{:.4}", p.rate));
    let ct = sliced_sweep
        .iter()
        .map(|p| 100.0 * p.flops as f64 / full_flops);
    let table = Table::new("slice rate", rows.collect())
        .col("Ct (%)", Fmt::Dec(2), ct.collect())
        .col("NNLM-1.0", Fmt::Dec(2), of(&conv_sweep, |p| p.value))
        .col("NNLM-0.375", Fmt::Dec(2), of(&sliced_sweep, |p| p.value))
        .col("NNLM-fixed", Fmt::Dec(2), fixed_ppl)
        .rev();
    let mut report = Report::default();
    report.title("Figure 4 / Table 2 — NNLM perplexity vs slice rate (synthetic PTB)");
    report.table(table);
    report.line(
        "\ngenerating-chain perplexity floor: {}",
        vec![scalar(
            "entropy_floor_ppl",
            corpus.entropy_floor_ppl(),
            Fmt::Dec(2),
        )],
    );
    report
}
