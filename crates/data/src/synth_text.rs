//! Procedural language-modelling corpus — the Penn Tree Bank stand-in.
//!
//! Token streams are drawn from a sparse first-order Markov chain: every
//! token has a small set of preferred successors (a deterministic "grammar
//! skeleton" derived from the seed) mixed with an ε-uniform smoothing floor,
//! and the stationary distribution is skewed power-law-style by giving
//! low-index tokens more in-links. A perfect model of the chain attains the
//! chain's conditional entropy, so perplexity has a known floor
//! ([`TextCorpus::entropy_floor_ppl`]) and model-quality differences show up
//! as the gap above that floor — exactly the quantity Figure 4 / Table 2
//! track as width varies.

use ms_tensor::SeededRng;
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic corpus.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TextCorpusConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Preferred successors per token.
    pub branching: usize,
    /// Probability mass spread uniformly over the whole vocabulary
    /// (the rest goes to the preferred successors).
    pub smoothing: f64,
    /// Training tokens.
    pub train_tokens: usize,
    /// Validation tokens.
    pub valid_tokens: usize,
    /// Test tokens.
    pub test_tokens: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TextCorpusConfig {
    fn default() -> Self {
        TextCorpusConfig {
            vocab: 200,
            branching: 4,
            smoothing: 0.1,
            train_tokens: 60_000,
            valid_tokens: 6_000,
            test_tokens: 6_000,
            seed: 11,
        }
    }
}

/// A generated corpus with train/valid/test splits.
#[derive(Debug, Clone)]
pub struct TextCorpus {
    cfg: TextCorpusConfig,
    /// `successors[t]` = preferred next tokens of `t` with their weights.
    successors: Vec<Vec<(usize, f64)>>,
    /// Token id streams.
    pub train: Vec<usize>,
    /// Validation stream.
    pub valid: Vec<usize>,
    /// Test stream.
    pub test: Vec<usize>,
}

impl TextCorpus {
    /// Generates the corpus deterministically.
    pub fn generate(cfg: TextCorpusConfig) -> Self {
        assert!(cfg.vocab >= 8 && cfg.branching >= 1 && cfg.branching < cfg.vocab);
        assert!((0.0..1.0).contains(&cfg.smoothing));
        let mut rng = SeededRng::new(cfg.seed);
        let mut chain_rng = rng.fork(1);

        // Preferred successors biased toward low token ids → skewed
        // stationary distribution (the power-law flavour of natural text).
        let successors: Vec<Vec<(usize, f64)>> = (0..cfg.vocab)
            .map(|_| {
                let mut succ = Vec::with_capacity(cfg.branching);
                let mut weights = Vec::with_capacity(cfg.branching);
                for _ in 0..cfg.branching {
                    // Quadratic skew toward small ids.
                    let u = chain_rng.uniform(0.0, 1.0);
                    let id = ((u * u) * cfg.vocab as f32) as usize % cfg.vocab;
                    succ.push(id);
                    weights.push(chain_rng.uniform(0.5, 1.5) as f64);
                }
                let total: f64 = weights.iter().sum();
                succ.into_iter()
                    .zip(weights)
                    .map(|(id, w)| (id, w / total))
                    .collect()
            })
            .collect();

        let mut gen_rng = rng.fork(2);
        let sample_stream = |n: usize, rng: &mut SeededRng| -> Vec<usize> {
            let mut out = Vec::with_capacity(n);
            let mut cur = rng.below(cfg.vocab);
            for _ in 0..n {
                out.push(cur);
                cur = Self::next_token(&successors, cfg.vocab, cfg.smoothing, cur, rng);
            }
            out
        };
        let train = sample_stream(cfg.train_tokens, &mut gen_rng);
        let valid = sample_stream(cfg.valid_tokens, &mut gen_rng);
        let test = sample_stream(cfg.test_tokens, &mut gen_rng);
        TextCorpus {
            cfg,
            successors,
            train,
            valid,
            test,
        }
    }

    fn next_token(
        successors: &[Vec<(usize, f64)>],
        vocab: usize,
        smoothing: f64,
        cur: usize,
        rng: &mut SeededRng,
    ) -> usize {
        if rng.chance(smoothing) {
            rng.below(vocab)
        } else {
            let succ = &successors[cur];
            let weights: Vec<f64> = succ.iter().map(|&(_, w)| w).collect();
            succ[rng.weighted_index(&weights)].0
        }
    }

    /// The configuration used.
    pub fn config(&self) -> &TextCorpusConfig {
        &self.cfg
    }

    /// True next-token distribution `P(· | cur)` of the generating chain.
    pub fn true_conditional(&self, cur: usize) -> Vec<f64> {
        let mut p = vec![self.cfg.smoothing / self.cfg.vocab as f64; self.cfg.vocab];
        for &(id, w) in &self.successors[cur] {
            p[id] += (1.0 - self.cfg.smoothing) * w;
        }
        p
    }

    /// Perplexity floor: `exp` of the chain's conditional entropy estimated
    /// over the train stream. No model can beat this in expectation.
    pub fn entropy_floor_ppl(&self) -> f64 {
        let mut h = 0.0f64;
        let mut n = 0usize;
        for &t in self.train.iter().take(20_000) {
            let p = self.true_conditional(t);
            h += p
                .iter()
                .filter(|&&v| v > 0.0)
                .map(|&v| -v * v.ln())
                .sum::<f64>();
            n += 1;
        }
        (h / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TextCorpusConfig {
        TextCorpusConfig {
            vocab: 32,
            branching: 3,
            smoothing: 0.1,
            train_tokens: 5000,
            valid_tokens: 500,
            test_tokens: 500,
            seed: 3,
        }
    }

    #[test]
    fn generation_is_deterministic_and_sized() {
        let a = TextCorpus::generate(small());
        let b = TextCorpus::generate(small());
        assert_eq!(a.train, b.train);
        assert_eq!(a.train.len(), 5000);
        assert_eq!(a.valid.len(), 500);
        assert!(a.train.iter().all(|&t| t < 32));
    }

    #[test]
    fn conditional_distributions_sum_to_one() {
        let c = TextCorpus::generate(small());
        for t in 0..32 {
            let p = c.true_conditional(t);
            let s: f64 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "token {t}: {s}");
            assert!(p.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn floor_is_far_below_uniform() {
        let c = TextCorpus::generate(small());
        let floor = c.entropy_floor_ppl();
        // Sparse chain: far more predictable than uniform (PPL 32), but not
        // deterministic.
        assert!(floor > 1.5 && floor < 20.0, "floor {floor}");
    }

    #[test]
    fn bigram_structure_is_learnable() {
        // Empirical successor frequencies should concentrate on the
        // preferred successors — otherwise there is nothing for the LM to
        // learn.
        let c = TextCorpus::generate(small());
        let mut counts = vec![vec![0usize; 32]; 32];
        for w in c.train.windows(2) {
            counts[w[0]][w[1]] += 1;
        }
        // For a frequent token, its top empirical successor must be one of
        // the chain's preferred successors.
        let freq_token = (0..32)
            .max_by_key(|&t| counts[t].iter().sum::<usize>())
            .unwrap();
        let top_succ = (0..32).max_by_key(|&s| counts[freq_token][s]).unwrap();
        assert!(
            c.successors[freq_token]
                .iter()
                .any(|&(id, _)| id == top_succ),
            "empirical top successor not in chain skeleton"
        );
    }
}
