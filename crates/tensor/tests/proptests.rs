//! Property-based tests for tensor operations.

use dpar2_linalg::Mat;
use dpar2_tensor::{khatri_rao, CpFactors, Dense3};
use proptest::prelude::*;

/// Strategy: tensor dims in [1, 6] and a rank in [1, 4].
fn dims() -> impl Strategy<Value = (usize, usize, usize, usize)> {
    (1usize..6, 1usize..6, 1usize..5, 1usize..4)
}

fn tensor_strategy(i: usize, j: usize, k: usize) -> impl Strategy<Value = Dense3> {
    prop::collection::vec(-5.0f64..5.0, i * j * k).prop_map(move |d| {
        let mut t = Dense3::zeros(i, j, k);
        let mut idx = 0;
        for kk in 0..k {
            for ii in 0..i {
                for jj in 0..j {
                    t.set(ii, jj, kk, d[idx]);
                    idx += 1;
                }
            }
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn unfoldings_preserve_norm(t in (1usize..6, 1usize..6, 1usize..5)
        .prop_flat_map(|(i, j, k)| tensor_strategy(i, j, k)))
    {
        let n = t.fro_norm_sq();
        prop_assert!((t.unfold1().fro_norm_sq() - n).abs() < 1e-9 * (1.0 + n));
        prop_assert!((t.unfold2().fro_norm_sq() - n).abs() < 1e-9 * (1.0 + n));
        prop_assert!((t.unfold3().fro_norm_sq() - n).abs() < 1e-9 * (1.0 + n));
    }

    #[test]
    fn khatri_rao_column_norms(
        (r, m, p) in (1usize..4, 1usize..6, 1usize..6),
        seed in 0u64..100,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Mat::from_fn(m, r, |_, _| rng.random::<f64>() - 0.5);
        let b = Mat::from_fn(p, r, |_, _| rng.random::<f64>() - 0.5);
        let kr = khatri_rao(&a, &b);
        // Column norms multiply: ‖a_c ⊗ b_c‖ = ‖a_c‖ ‖b_c‖.
        for c in 0..r {
            let na: f64 = a.col(c).iter().map(|x| x * x).sum::<f64>().sqrt();
            let nb: f64 = b.col(c).iter().map(|x| x * x).sum::<f64>().sqrt();
            let nk: f64 = kr.col(c).iter().map(|x| x * x).sum::<f64>().sqrt();
            prop_assert!((nk - na * nb).abs() < 1e-9 * (1.0 + nk));
        }
    }

    #[test]
    fn cp_reconstruct_rank_additivity((i, j, k, _r) in dims(), seed in 0u64..100) {
        // [[A,B,C]] with R columns equals the sum of R rank-1 tensors.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let r = 2;
        let f = CpFactors {
            a: Mat::from_fn(i, r, |_, _| rng.random::<f64>() - 0.5),
            b: Mat::from_fn(j, r, |_, _| rng.random::<f64>() - 0.5),
            c: Mat::from_fn(k, r, |_, _| rng.random::<f64>() - 0.5),
        };
        let whole = f.reconstruct();
        let part0 = CpFactors {
            a: f.a.block(0, i, 0, 1),
            b: f.b.block(0, j, 0, 1),
            c: f.c.block(0, k, 0, 1),
        }
        .reconstruct();
        let part1 = CpFactors {
            a: f.a.block(0, i, 1, 2),
            b: f.b.block(0, j, 1, 2),
            c: f.c.block(0, k, 1, 2),
        }
        .reconstruct();
        for kk in 0..k {
            let sum = part0.slice(kk) + part1.slice(kk);
            prop_assert!((&sum - whole.slice(kk)).fro_norm() < 1e-9 * (1.0 + sum.fro_norm()));
        }
    }
}
