//! Property-based tests for the tensor kernels.

use ms_tensor::conv::{col2im, im2col, ConvGeom};
use ms_tensor::matmul::{dot, gemm, gemm_reference, Operand, Trans, KC, MR, NR, SMALL_GEMM_CUTOFF};
use ms_tensor::ops;
use ms_tensor::panels::{gemm_packed_a_stepped, gemm_packed_b, PackedA, PackedB};
use ms_tensor::{SeededRng, Shape, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GEMM is linear in alpha: C(2α) - C(0) == 2·(C(α) - C(0)).
    #[test]
    fn gemm_linear_in_alpha(
        m in 1usize..8, n in 1usize..8, k in 1usize..8,
        alpha in -2.0f32..2.0,
        seed in any::<u64>(),
    ) {
        let mut rng = SeededRng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let run = |al: f32| {
            let mut c = vec![0.0f32; m * n];
            gemm(Trans::No, Trans::No, m, n, k, al, &a, k, &b, n, 0.0, &mut c, n);
            c
        };
        let c1 = run(alpha);
        let c2 = run(2.0 * alpha);
        for (x, y) in c1.iter().zip(&c2) {
            prop_assert!((2.0 * x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// (A·B)ᵀ == Bᵀ·Aᵀ: computing with swapped transposes matches.
    #[test]
    fn gemm_transpose_identity(
        m in 1usize..8, n in 1usize..8, k in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut rng = SeededRng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        // C = A·B  (m×n)
        let mut c = vec![0.0f32; m * n];
        gemm(Trans::No, Trans::No, m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n);
        // D = Bᵀ·Aᵀ (n×m), via the transpose flags on the stored matrices.
        let mut d = vec![0.0f32; n * m];
        gemm(Trans::Yes, Trans::Yes, n, m, k, 1.0, &b, n, &a, k, 0.0, &mut d, m);
        for i in 0..m {
            for j in 0..n {
                prop_assert!((c[i * n + j] - d[j * m + i]).abs() < 1e-4);
            }
        }
    }

    /// The packed register-blocked GEMM agrees with the f64-accumulating
    /// reference over all four transpose cases, sizes straddling the
    /// MR/NR/KC block edges, padded leading dimensions (`ld > cols`) and
    /// degenerate alpha/beta scalings — and never touches the row padding.
    #[test]
    fn gemm_matches_reference(
        m in proptest::sample::select(vec![1usize, 5, MR - 1, MR, MR + 1, 2 * MR, 2 * MR + 1]),
        n in proptest::sample::select(vec![1usize, NR - 1, NR, NR + 1, 2 * NR - 1, 2 * NR + 1]),
        k in proptest::sample::select(vec![1usize, 2, 8, KC - 1, KC, KC + 1, 2 * KC + 3]),
        ta in any::<bool>(), tb in any::<bool>(),
        pad_a in 0usize..3, pad_b in 0usize..3, pad_c in 0usize..3,
        alpha in proptest::sample::select(vec![0.0f32, 0.5, 1.0]),
        beta in proptest::sample::select(vec![0.0f32, 0.5, 1.0]),
        seed in any::<u64>(),
    ) {
        let trans_a = if ta { Trans::Yes } else { Trans::No };
        let trans_b = if tb { Trans::Yes } else { Trans::No };
        // Stored dimensions of A and B under the transpose flags.
        let (ar, ac) = if ta { (k, m) } else { (m, k) };
        let (br, bc) = if tb { (n, k) } else { (k, n) };
        let (lda, ldb, ldc) = (ac + pad_a, bc + pad_b, n + pad_c);
        let mut rng = SeededRng::new(seed);
        let a: Vec<f32> = (0..ar * lda).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..br * ldb).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let c0: Vec<f32> = (0..m * ldc).map(|_| rng.uniform(-1.0, 1.0)).collect();

        let mut c = c0.clone();
        gemm(trans_a, trans_b, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c, ldc);
        let mut want = c0.clone();
        gemm_reference(trans_a, trans_b, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut want, ldc);

        for i in 0..m {
            for j in 0..n {
                let (x, y) = (c[i * ldc + j], want[i * ldc + j]);
                let tol = 1e-4 * y.abs().max(1.0);
                prop_assert!(
                    (x - y).abs() <= tol,
                    "C[{i},{j}] = {x} vs reference {y} (m={m} n={n} k={k} \
                     ta={ta} tb={tb} alpha={alpha} beta={beta})"
                );
            }
            for j in n..ldc {
                prop_assert_eq!(c[i * ldc + j], c0[i * ldc + j], "padding clobbered");
            }
        }
    }

    /// The three packed entry points print the same bits for the same
    /// product: `gemm`, `gemm_packed_b` over a `PackedB` of the same `B`, and
    /// a one-step `gemm_packed_a_stepped` over a `PackedA` of the same `A`.
    /// Every shape is above `SMALL_GEMM_CUTOFF`, so all three take the blocked
    /// loop: edge tiles on both sides, `k` on either side of one and two `KC`
    /// blocks, `n` past one 1024-column `NC` block, both `B` transposes,
    /// padded leading dimensions, `alpha` off 0 and 1, and `beta = 0` over a
    /// `C` poisoned with NaN.
    #[test]
    fn packed_entry_points_are_bitwise_one_product(
        m in proptest::sample::select(vec![1usize, MR - 1, MR + 1, 2 * MR + 1]),
        n in proptest::sample::select(vec![NR - 1, NR + 1, 2 * NR + 1, 1024 + NR + 3]),
        k in proptest::sample::select(vec![KC - 1, KC, KC + 1, 2 * KC + 3]),
        tb in any::<bool>(),
        pad_a in 0usize..3, pad_b in 0usize..3, pad_c in 0usize..3,
        (alpha, beta) in proptest::sample::select(vec![(0.7f32, 0.0f32), (-1.3, 0.5), (1.0, 1.0)]),
        seed in any::<u64>(),
    ) {
        prop_assume!(m * n * k > SMALL_GEMM_CUTOFF);
        let trans_b = if tb { Trans::Yes } else { Trans::No };
        let (br, bc) = if tb { (n, k) } else { (k, n) };
        let (lda, ldb, ldc) = (k + pad_a, bc + pad_b, n + pad_c);
        let mut rng = SeededRng::new(seed);
        let a: Vec<f32> = (0..m * lda).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..br * ldb).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let c0: Vec<f32> = if beta == 0.0 {
            vec![f32::NAN; m * ldc]
        } else {
            (0..m * ldc).map(|_| rng.uniform(-1.0, 1.0)).collect()
        };
        let bits = |c: &[f32]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        let mut by_gemm = c0.clone();
        gemm(Trans::No, trans_b, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut by_gemm, ldc);
        let mut pb = PackedB::new();
        pb.pack(trans_b, &b, ldb, k, n);
        let mut by_panel_b = c0.clone();
        gemm_packed_b(m, 0, k, 0, n, alpha, &a, lda, &pb, beta, &mut by_panel_b, ldc);
        let mut pa = PackedA::new();
        pa.pack(Trans::No, &a, lda, m, k);
        let mut by_panel_a = c0.clone();
        let b_op = Operand::Matrix(trans_b, &b, ldb);
        gemm_packed_a_stepped(&[0, m], &[k], n, alpha, &pa, b_op, beta, &mut by_panel_a, ldc);

        prop_assert_eq!(bits(&by_panel_b), bits(&by_gemm), "gemm_packed_b vs gemm");
        prop_assert_eq!(bits(&by_panel_a), bits(&by_gemm), "gemm_packed_a_stepped vs gemm");
        prop_assert!(
            by_gemm.chunks(ldc).all(|row| row[..n].iter().all(|v| v.is_finite())),
            "beta = {beta} left a NaN of C"
        );
    }

    /// dot is symmetric and matches the simple sum.
    #[test]
    fn dot_symmetric(len in 0usize..64, seed in any::<u64>()) {
        let mut rng = SeededRng::new(seed);
        let a: Vec<f32> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
        prop_assert!((dot(&a, &b) - dot(&b, &a)).abs() < 1e-5);
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        prop_assert!((dot(&a, &b) - naive).abs() < 1e-3);
    }

    /// im2col/col2im adjointness for arbitrary geometry:
    /// <im2col(x), y> == <x, col2im(y)>.
    #[test]
    fn conv_lowering_adjoint(
        h in 3usize..8, w in 3usize..8,
        k in 1usize..4, stride in 1usize..3, pad in 0usize..2,
        c in 1usize..4,
        seed in any::<u64>(),
    ) {
        let geom = ConvGeom { h, w, kh: k, kw: k, stride, pad };
        prop_assume!(geom.is_valid());
        let mut rng = SeededRng::new(seed);
        let x: Vec<f32> = (0..c * h * w).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let col_len = c * k * k * geom.out_len();
        let y: Vec<f32> = (0..col_len).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut col = vec![0.0f32; col_len];
        im2col(&x, c, &geom, &mut col, geom.out_len(), 0);
        let lhs: f64 = col.iter().zip(&y).map(|(a, b)| (a * b) as f64).sum();
        let mut back = vec![0.0f32; x.len()];
        col2im(&y, c, &geom, &mut back, geom.out_len(), 0);
        let rhs: f64 = x.iter().zip(&back).map(|(a, b)| (a * b) as f64).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    /// Shape offset is a bijection onto 0..numel.
    #[test]
    fn shape_offsets_are_bijective(dims in proptest::collection::vec(1usize..5, 1..4)) {
        let shape = Shape::new(dims.clone());
        let mut seen = vec![false; shape.numel()];
        let mut index = vec![0usize; dims.len()];
        loop {
            let off = shape.offset(&index);
            prop_assert!(!seen[off], "offset collision at {index:?}");
            seen[off] = true;
            // Odometer increment.
            let mut axis = dims.len();
            loop {
                if axis == 0 { break; }
                axis -= 1;
                index[axis] += 1;
                if index[axis] < dims[axis] { break; }
                index[axis] = 0;
                if axis == 0 { break; }
            }
            if index.iter().all(|&v| v == 0) { break; }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// log-softmax exp-normalises to softmax for arbitrary rows.
    #[test]
    fn log_softmax_consistency(
        vals in proptest::collection::vec(-30.0f32..30.0, 2..20),
    ) {
        let cols = vals.len();
        let mut ls = vals.clone();
        ops::log_softmax_rows_inplace(&mut ls, cols);
        let mut sm = vals;
        ops::softmax_rows_inplace(&mut sm, cols);
        for (a, b) in ls.iter().zip(&sm) {
            prop_assert!((a.exp() - b).abs() < 1e-4);
        }
    }

    /// mean_var matches the two-pass definition.
    #[test]
    fn mean_var_matches_two_pass(
        vals in proptest::collection::vec(-10.0f32..10.0, 1..50),
    ) {
        let (m, v) = ops::mean_var(&vals);
        let n = vals.len() as f64;
        let mean: f64 = vals.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var: f64 = vals.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((m as f64 - mean).abs() < 1e-4);
        prop_assert!((v as f64 - var).abs() < 1e-2 * (1.0 + var));
    }

    /// Tensor axpy/scale algebra: (x + αy)·β == βx + αβ·y.
    #[test]
    fn tensor_axpy_scale_algebra(
        len in 1usize..32,
        alpha in -2.0f32..2.0,
        beta in -2.0f32..2.0,
        seed in any::<u64>(),
    ) {
        let mut rng = SeededRng::new(seed);
        let x = Tensor::from_vec([len], (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()).unwrap();
        let y = Tensor::from_vec([len], (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()).unwrap();
        let mut lhs = x.clone();
        lhs.axpy(alpha, &y);
        lhs.scale(beta);
        let mut rhs = x.clone();
        rhs.scale(beta);
        rhs.axpy(alpha * beta, &y);
        for (a, b) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }
}
