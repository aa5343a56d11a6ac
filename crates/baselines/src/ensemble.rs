//! Ensembles of independently trained fixed-width / fixed-depth models.
//!
//! The strongest baseline in Figures 2 and 5: one model per operating
//! point, each trained conventionally. Deploying it costs the *sum* of all
//! members' storage, and serving requires a scheduler to pick a member per
//! budget — the two drawbacks (§3, "Existing methods") that model slicing
//! removes by collapsing the ensemble into one network.

use ms_nn::layer::Layer;

/// A collection of fixed models, each trained on its own.
pub struct FixedEnsemble {
    members: Vec<Member>,
}

/// One trained member.
pub struct Member {
    /// Descriptive label, e.g. `"width-0.5"` or `"depth-8"`.
    pub label: String,
    /// The trained model.
    pub model: Box<dyn Layer>,
    /// Parameter count.
    pub params: u64,
}

impl FixedEnsemble {
    /// Creates an empty ensemble.
    pub fn new() -> Self {
        FixedEnsemble {
            members: Vec::new(),
        }
    }

    /// Adds a trained model, counting its parameters.
    pub fn add(&mut self, label: impl Into<String>, mut model: Box<dyn Layer>) {
        use ms_nn::layer::Network;
        let params = model.full_param_count();
        self.members.push(Member {
            label: label.into(),
            model,
            params,
        });
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ensemble is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Total storage across members — the deployment-cost figure the paper
    /// contrasts with one sliced model (Table 5: 29.3 M vs 9.42 M).
    pub fn total_params(&self) -> u64 {
        self.members.iter().map(|m| m.params).sum()
    }
}

impl Default for FixedEnsemble {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_models::mlp::{Mlp, MlpConfig};
    use ms_tensor::SeededRng;

    fn member(width: usize, rng: &mut SeededRng) -> Box<dyn Layer> {
        Box::new(Mlp::new(
            &MlpConfig {
                input_dim: 8,
                hidden_dims: vec![width],
                num_classes: 2,
                groups: 1,
                dropout: 0.0,
                input_rescale: false,
            },
            rng,
        ))
    }

    #[test]
    fn total_params_sums_members() {
        let mut rng = SeededRng::new(2);
        let mut e = FixedEnsemble::new();
        e.add("a", member(8, &mut rng));
        e.add("b", member(16, &mut rng));
        assert_eq!(e.len(), 2);
        // fc0 (8 inputs → w, with bias) and the head (w → 2, with bias).
        let params = |w: u64| (8 * w + w) + (w * 2 + 2);
        assert_eq!(e.total_params(), params(8) + params(16));
    }
}
