//! Differential suite for the zero-copy view layer: a strided sub-block
//! [`MatRef`] must be **bit-identical**, through every GEMM entry point, to
//! the materialized owned copy of the same block. This is the property that
//! lets tensor slices, registry snapshots, and scratch sub-blocks flow
//! through the kernels without defensive copies — any stride-handling bug
//! in the packing/naive loops shows up here as a single differing bit.
//!
//! Coverage: all four transpose forms (`A·B`, `Aᵀ·B`, `A·Bᵀ`, `Aᵀ·Bᵀ`)
//! through [`product`] against [`gemm`] into a buffer, the Gram `Aᵀ·A`,
//! and the pooled paths, over randomized shapes that include empty,
//! `1×N`, `N×1`, and non-unit-stride blocks, plus deterministic
//! boundary-size pins that cross the blocked kernel's tile edges.

use dpar2_linalg::view::{AsMatRef, MatRef};
use dpar2_linalg::{gemm, product, Mat, Trans};
use dpar2_parallel::ThreadPool;
use proptest::prelude::*;

/// A host matrix plus a sub-block selection; the block may be empty, a
/// single row/column, or a strict interior block (non-unit stride).
#[derive(Debug, Clone)]
struct Block {
    host: Mat,
    r0: usize,
    r1: usize,
    c0: usize,
    c1: usize,
}

impl Block {
    fn view(&self) -> MatRef<'_> {
        self.host.subview(self.r0, self.r1, self.c0, self.c1)
    }

    fn owned(&self) -> Mat {
        self.host.block(self.r0, self.r1, self.c0, self.c1)
    }

    fn rows(&self) -> usize {
        self.r1 - self.r0
    }

    fn cols(&self) -> usize {
        self.c1 - self.c0
    }
}

/// Strategy: a host matrix (up to 40×40) and a sub-block of exactly
/// `rows × cols` carved out at a random offset — strided whenever the host
/// is wider than the block.
fn block_of(rows: usize, cols: usize) -> impl Strategy<Value = Block> {
    (0usize..6, 0usize..6, 0usize..6, 0usize..6).prop_flat_map(move |(top, bottom, left, right)| {
        let (hr, hc) = (rows + top + bottom, cols + left + right);
        prop::collection::vec(-10.0f64..10.0, (hr * hc).max(1)).prop_map(move |data| {
            let host = Mat::from_vec(hr, hc, data[..hr * hc].to_vec());
            Block { host, r0: top, r1: top + rows, c0: left, c1: left + cols }
        })
    })
}

/// Strategy: shapes spanning the interesting degenerate cases — empty,
/// single row, single column, and general small blocks.
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (0usize..6, 1usize..12, 1usize..12, 1usize..12).prop_map(|(case, m, n, k)| match case {
        // General small shapes (m, n, k up to 12).
        0 => (m, n, k),
        // Row/column vectors.
        1 => (1, n, k),
        2 => (m, 1, k),
        // Empty on each dimension.
        3 => (0, n % 6, k % 6),
        4 => (m % 6, 0, k % 6),
        _ => (m % 6, n % 6, 0),
    })
}

/// `C = op(a)·op(b)` through [`gemm`] on a fresh `threads`-worker pool.
fn gemm_on(ta: Trans, tb: Trans, a: impl AsMatRef, b: impl AsMatRef, threads: usize) -> Mat {
    let mut c = Mat::default();
    gemm(ta, tb, a, b, &mut c, &ThreadPool::new(threads));
    c
}

/// Asserts two matrices have identical shapes and bit patterns.
fn assert_bits(label: &str, got: &Mat, want: &Mat) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{label}: entry {i} differs ({g} vs {w})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// All four transpose forms through `product`: owned operands and a
    /// strided view on either side or both give the bits of `gemm` into a
    /// buffer on the materialized copies.
    #[test]
    fn gemm_variants_bitwise_stride_agnostic(
        (m, n, k) in dims(),
        offs in (0usize..4, 0usize..4, 0usize..4, 0usize..4),
        seed in 0u64..1000,
    ) {
        // Builds an interior block of the requested shape inside a larger
        // host (always ≥1 column of margin → non-unit stride when cols > 0).
        let mk_block = |rows: usize, cols: usize, top: usize, left: usize, salt: u64| {
            let (hr, hc) = (rows + top + 1, cols + left + 1);
            let host = Mat::from_fn(hr, hc, |i, j| {
                (((i * 31 + j * 17) as f64) * 0.43 + (seed + salt) as f64 * 0.37).sin()
            });
            Block { host, r0: top, r1: top + rows, c0: left, c1: left + cols }
        };
        let (at, al, bt, bl) = offs;
        // A-shaped and B-shaped blocks for each form's layout.
        let cases = [
            (Trans::N, Trans::N, (m, k), (k, n)),
            (Trans::T, Trans::N, (k, m), (k, n)),
            (Trans::N, Trans::T, (m, k), (n, k)),
            (Trans::T, Trans::T, (k, m), (n, k)),
        ];
        for (salt, (ta, tb, (ar, ac), (br, bc))) in cases.into_iter().enumerate() {
            let a = mk_block(ar, ac, at, al, salt as u64);
            let b = mk_block(br, bc, bt, bl, salt as u64 + 100);
            let (a_owned, b_owned) = (a.owned(), b.owned());
            // `gemm` into a buffer on the owned copies is the oracle;
            // `product` must give its bits on owned matrices, on a view on
            // either side, and on views on both sides.
            let want = gemm_on(ta, tb, &a_owned, &b_owned, 1);
            for (sides, got) in [
                ("owned·owned", product(ta, tb, &a_owned, &b_owned)),
                ("view·owned", product(ta, tb, a.view(), &b_owned)),
                ("owned·view", product(ta, tb, &a_owned, b.view())),
                ("view·view", product(ta, tb, a.view(), b.view())),
            ] {
                assert_bits(&format!("{ta:?}{tb:?}: {sides}"), &got, &want);
            }
        }
    }

    /// The Gram `Aᵀ·A` on a strided view matches the materialized copy
    /// bitwise.
    #[test]
    fn gram_bitwise_stride_agnostic(b in (0usize..14, 0usize..10).prop_flat_map(|(m, n)| block_of(m, n))) {
        let owned = b.owned();
        let want = product(Trans::T, Trans::N, &owned, &owned);
        assert_bits("gram", &product(Trans::T, Trans::N, b.view(), b.view()), &want);
    }

    /// `gemm` on a pool accepts views and agrees bitwise with the serial
    /// result for every thread count.
    #[test]
    fn pooled_paths_bitwise_on_views(
        b in (1usize..10, 1usize..10).prop_flat_map(|(m, n)| block_of(m, n)),
        threads in 1usize..4,
    ) {
        let owned = b.owned();
        let want_nn = product(Trans::N, Trans::T, &owned, &owned);
        let got_nn = gemm_on(Trans::N, Trans::T, b.view(), b.view(), threads);
        assert_bits("pooled nt", &got_nn, &want_nn);
        let got_gram = gemm_on(Trans::T, Trans::N, b.view(), b.view(), threads);
        assert_bits("pooled gram", &got_gram, &product(Trans::T, Trans::N, &owned, &owned));
    }

    /// Element accessors on a strided view agree with the owned copy.
    #[test]
    fn accessors_match_owned(b in (0usize..8, 0usize..8).prop_flat_map(|(m, n)| block_of(m, n))) {
        let owned = b.owned();
        let v = b.view();
        prop_assert_eq!(v.shape(), owned.shape());
        prop_assert_eq!(v.fro_norm_sq().to_bits(), owned.fro_norm_sq().to_bits());
        prop_assert_eq!(v.max_abs().to_bits(), owned.max_abs().to_bits());
        for i in 0..b.rows() {
            prop_assert_eq!(v.row(i), owned.row(i));
            for j in 0..b.cols() {
                prop_assert_eq!(v.at(i, j).to_bits(), owned.at(i, j).to_bits());
            }
        }
    }
}

/// Deterministic pins at blocked-kernel boundary sizes: a strided view must
/// ride the packed/tiled path identically to its owned copy (these shapes
/// cross the `MR`/`NR`/`MC`/`KC` edges where stride bugs would hide).
#[test]
fn blocked_path_bitwise_on_strided_views() {
    for &(m, n, k) in &[(64usize, 8usize, 256usize), (65, 17, 257), (130, 40, 70)] {
        // Hosts two rows/cols larger than the operands: interior blocks are
        // genuinely strided.
        let host_a = Mat::from_fn(m + 2, k + 2, |i, j| ((i * 7 + j * 3) as f64).sin());
        let host_b = Mat::from_fn(k + 2, n + 2, |i, j| ((i * 5 + j * 11) as f64).cos());
        let va = host_a.subview(1, m + 1, 1, k + 1);
        let vb = host_b.subview(1, k + 1, 1, n + 1);
        let (oa, ob) = (va.to_mat(), vb.to_mat());
        let want = product(Trans::N, Trans::N, &oa, &ob);
        let got = product(Trans::N, Trans::N, va, vb);
        assert_bits(&format!("blocked {m}x{n}x{k}"), &got, &want);
        // Pooled path on views, every thread count.
        for threads in [1, 2, 3] {
            let pooled = gemm_on(Trans::N, Trans::N, va, vb, threads);
            assert_bits(&format!("pooled blocked {m}x{n}x{k}@{threads}"), &pooled, &want);
        }
    }
}
