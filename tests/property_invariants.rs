//! Property-based tests (proptest) over the core invariants of model
//! slicing, run across randomly drawn configurations.

use modelslicing::nn::gradcheck::{check_layer, CheckOpts};
use modelslicing::nn::linear::{Linear, LinearConfig};
use modelslicing::nn::sequential::Sequential;
use modelslicing::nn::slice::{active_units, group_boundary};
use modelslicing::prelude::*;
use modelslicing::slicing::inference::ElasticEngine;
use modelslicing::tensor::matmul::{gemm, gemm_reference, Trans};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GEMM agrees with the naive reference for arbitrary small shapes,
    /// transposes and padding.
    #[test]
    fn gemm_matches_reference(
        m in 1usize..10, n in 1usize..10, k in 1usize..10,
        pad in 0usize..4,
        ta in any::<bool>(), tb in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = SeededRng::new(seed);
        let (ta, tb) = (
            if ta { Trans::Yes } else { Trans::No },
            if tb { Trans::Yes } else { Trans::No },
        );
        let (ar, ac) = match ta { Trans::No => (m, k), Trans::Yes => (k, m) };
        let (br, bc) = match tb { Trans::No => (k, n), Trans::Yes => (n, k) };
        let (lda, ldb, ldc) = (ac + pad, bc + pad, n + pad);
        let a: Vec<f32> = (0..ar * lda).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..br * ldb).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let c0: Vec<f32> = (0..m * ldc).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut fast = c0.clone();
        let mut refr = c0;
        gemm(ta, tb, m, n, k, 0.5, &a, lda, &b, ldb, 0.25, &mut fast, ldc);
        gemm_reference(ta, tb, m, n, k, 0.5, &a, lda, &b, ldb, 0.25, &mut refr, ldc);
        for (x, y) in fast.iter().zip(&refr) {
            prop_assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    /// Group boundaries always partition [0, m] into non-empty increasing
    /// segments, and active_units is monotone in the rate with the base
    /// group as a floor.
    #[test]
    fn slicing_group_math_invariants(
        m in 1usize..200,
        g_raw in 1usize..32,
        r1 in 0.01f32..1.0,
        r2 in 0.01f32..1.0,
    ) {
        let g = g_raw.min(m);
        prop_assert_eq!(group_boundary(m, g, 0), 0);
        prop_assert_eq!(group_boundary(m, g, g), m);
        for i in 1..=g {
            prop_assert!(group_boundary(m, g, i) > group_boundary(m, g, i - 1));
        }
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let a_lo = active_units(m, g, SliceRate::new(lo));
        let a_hi = active_units(m, g, SliceRate::new(hi));
        prop_assert!(a_lo <= a_hi, "monotonicity: {a_lo} > {a_hi}");
        prop_assert!(a_lo >= group_boundary(m, g, 1), "base group floor");
        prop_assert_eq!(active_units(m, g, SliceRate::FULL), m);
    }

    /// A sliced linear layer's active parameters are always a subset of the
    /// full layer's (subsumption), and FLOPs are monotone in the rate.
    #[test]
    fn linear_subsumption_and_cost_monotone(
        in_dim in 4usize..32,
        out_dim in 4usize..32,
        seed in any::<u64>(),
    ) {
        let mut rng = SeededRng::new(seed);
        let mut layer = Linear::new(
            "fc",
            LinearConfig {
                in_dim,
                out_dim,
                in_groups: Some(4.min(in_dim)),
                out_groups: Some(4.min(out_dim)),
                bias: true,
                input_rescale: false,
            },
            &mut rng,
        );
        let mut prev_flops = 0u64;
        let mut prev_params = 0u64;
        for k in 1..=8 {
            let r = SliceRate::new(k as f32 / 8.0);
            layer.set_slice_rate(r);
            let f = layer.flops_per_sample();
            let p = layer.active_param_count();
            prop_assert!(f >= prev_flops);
            prop_assert!(p >= prev_params);
            prev_flops = f;
            prev_params = p;
        }
        layer.set_slice_rate(SliceRate::FULL);
        prop_assert_eq!(prev_flops, (in_dim * out_dim) as u64);
    }

    /// The Eq.-3 solver's chosen rate always fits the budget (or is the
    /// base network) and is maximal on the candidate list.
    #[test]
    fn budget_solver_is_maximal_and_feasible(
        budget_frac in 0.0f64..1.5,
        seed in any::<u64>(),
    ) {
        let mut rng = SeededRng::new(seed);
        // An unsliced input side in front, so one input fits every rate.
        let mut net = Sequential::new("net");
        for (name, in_groups) in [("fc0", None), ("fc1", Some(8))] {
            net = net.push(Linear::new(
                name,
                LinearConfig {
                    in_dim: 32,
                    out_dim: 32,
                    in_groups,
                    out_groups: Some(8),
                    bias: false,
                    input_rescale: false,
                },
                &mut rng,
            ));
        }
        let rates = SliceRateList::with_granularity(0.25, 0.125);
        let engine = ElasticEngine::new(CostModel::measure(&mut net, rates.clone()));
        let cost = engine.cost();
        let budget = FlopsBudget((cost.full_flops() as f64 * budget_frac) as u64);
        let (_, chosen) = engine.predict_with_budget(&mut net, &Tensor::zeros([1, 32]), budget);
        let spent = cost.flops_at(chosen);
        if spent > budget.0 {
            prop_assert_eq!(chosen, rates.min(), "over budget must clamp to base");
        }
        // Maximality: no larger candidate also fits.
        for r in rates.iter() {
            if r > chosen {
                prop_assert!(cost.flops_at(r) > budget.0, "larger rate {r} also fits");
            }
        }
    }

    /// Gradient check on randomly configured linear layers at random rates.
    #[test]
    fn random_linear_layers_pass_gradcheck(
        in_dim in 4usize..12,
        out_dim in 4usize..12,
        rate_idx in 1usize..4,
        rescale in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = SeededRng::new(seed);
        let mut layer = Linear::new(
            "fc",
            LinearConfig {
                in_dim,
                out_dim,
                in_groups: Some(4.min(in_dim)),
                out_groups: Some(4.min(out_dim)),
                bias: true,
                input_rescale: rescale,
            },
            &mut rng,
        );
        let rate = SliceRate::new(rate_idx as f32 / 4.0);
        layer.set_slice_rate(rate);
        let a_in = active_units(in_dim, 4.min(in_dim), rate);
        let x = Tensor::from_vec(
            [2, a_in],
            (0..2 * a_in).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        ).expect("input");
        let result = check_layer(&mut layer, &x, &mut rng, &CheckOpts::default());
        prop_assert!(result.is_ok(), "{:?}", result.err());
    }

    /// Softmax rows are a probability distribution for any finite input.
    #[test]
    fn softmax_rows_are_distributions(
        vals in proptest::collection::vec(-50.0f32..50.0, 2..40),
    ) {
        let cols = vals.len();
        let mut row = vals;
        modelslicing::tensor::ops::softmax_rows_inplace(&mut row, cols);
        let sum: f32 = row.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// Inclusion coefficient is symmetric, bounded, and 1.0 for nested sets.
    #[test]
    fn inclusion_coefficient_properties(
        mut a in proptest::collection::btree_set(0usize..100, 0..30),
        mut b in proptest::collection::btree_set(0usize..100, 0..30),
    ) {
        use modelslicing::data::metrics::inclusion_coefficient;
        let av: Vec<usize> = a.iter().copied().collect();
        let bv: Vec<usize> = b.iter().copied().collect();
        let ab = inclusion_coefficient(&av, &bv);
        let ba = inclusion_coefficient(&bv, &av);
        prop_assert!((ab - ba).abs() < 1e-12, "symmetry");
        prop_assert!((0.0..=1.0).contains(&ab));
        // Nested: union vs subset.
        a.extend(b.iter().copied());
        let union: Vec<usize> = a.iter().copied().collect();
        b.retain(|v| union.contains(v));
        let sub: Vec<usize> = b.iter().copied().collect();
        prop_assert_eq!(inclusion_coefficient(&sub, &union), 1.0);
    }
}
