//! Property-based tests for tensor algebra invariants.

use pgmoe_tensor::{kernel, ops, quant, QuantMode, QuantizedTensor, Shape, Tensor};
use proptest::prelude::*;

/// Naive triple-loop reference GEMM (ascending-k accumulation, like the
/// kernels) used to pin the blocked implementations down.
fn reference_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kx in 0..k {
            for j in 0..n {
                out[i * n + j] += a[i * k + kx] * b[kx * n + j];
            }
        }
    }
    out
}

/// `(m, k, n)` plus random data for A and B, covering empty dims, 1×N/N×1
/// degenerate shapes, and sizes that are not multiples of the kernels'
/// four-row quad or block sizes.
#[allow(clippy::type_complexity)]
fn gemm_case(max_dim: usize) -> impl Strategy<Value = (usize, usize, usize, Vec<f32>, Vec<f32>)> {
    (0..=max_dim, 0..=max_dim, 0..=max_dim).prop_flat_map(|(m, k, n)| {
        let a = proptest::collection::vec(-3.0f32..3.0, m * k);
        let b = proptest::collection::vec(-3.0f32..3.0, k * n);
        (Just(m), Just(k), Just(n), a, b)
    })
}

fn assert_close(got: &[f32], want: &[f32], tol: f32, label: &str) {
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert!((x - y).abs() <= tol * (1.0 + y.abs()), "{label}[{i}]: {x} vs {y}");
    }
}

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Tensor::from_vec([r, c], data).unwrap())
    })
}

fn conformable_pair(max_dim: usize) -> impl Strategy<Value = (Tensor, Tensor)> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(|(m, k, n)| {
        let a = proptest::collection::vec(-5.0f32..5.0, m * k)
            .prop_map(move |d| Tensor::from_vec([m, k], d).unwrap());
        let b = proptest::collection::vec(-5.0f32..5.0, k * n)
            .prop_map(move |d| Tensor::from_vec([k, n], d).unwrap());
        (a, b)
    })
}

proptest! {
    #[test]
    fn matmul_output_shape((a, b) in conformable_pair(6)) {
        let c = a.matmul(&b);
        prop_assert_eq!(c.dims(), &[a.rows(), b.cols()]);
    }

    #[test]
    fn matmul_identity_right((a, _) in conformable_pair(6)) {
        let id = Tensor::eye(a.cols());
        let c = a.matmul(&id);
        for (x, y) in c.as_slice().iter().zip(a.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_distributes_over_addition((a, b) in conformable_pair(5), (c, _) in conformable_pair(5)) {
        // Rebuild c with b's shape so (b + c) conforms.
        prop_assume!(c.len() >= b.len());
        let c = Tensor::from_vec(b.shape().clone(), c.as_slice()[..b.len()].to_vec()).unwrap();
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_involution(a in small_matrix(8)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_swaps_matmul((a, b) in conformable_pair(5)) {
        // (A B)^T = B^T A^T
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn softmax_rows_are_probability_distributions(a in small_matrix(8)) {
        let s = a.softmax_rows();
        for r in 0..s.rows() {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant(a in small_matrix(6), shift in -5.0f32..5.0) {
        let s1 = a.softmax_rows();
        let s2 = a.map(|v| v + shift).softmax_rows();
        for (x, y) in s1.as_slice().iter().zip(s2.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn topk_returns_descending_values(a in proptest::collection::vec(-100.0f32..100.0, 1..32), k in 1usize..8) {
        prop_assume!(k <= a.len());
        let t = Tensor::vector(&a);
        let idx = t.topk(k).unwrap();
        prop_assert_eq!(idx.len(), k);
        for w in idx.windows(2) {
            prop_assert!(a[w[0]] >= a[w[1]]);
        }
        // Every non-selected element is <= the smallest selected one.
        let min_sel = a[*idx.last().unwrap()];
        for (i, &v) in a.iter().enumerate() {
            if !idx.contains(&i) {
                prop_assert!(v <= min_sel);
            }
        }
    }

    #[test]
    fn layer_norm_rows_have_zero_mean_unit_var(a in small_matrix(8)) {
        prop_assume!(a.cols() >= 2);
        // Skip degenerate constant rows where variance ~ 0.
        for r in 0..a.rows() {
            let row = a.row(r);
            let mean = row.iter().sum::<f32>() / row.len() as f32;
            let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / row.len() as f32;
            prop_assume!(var > 1e-3);
        }
        let gamma = Tensor::ones([a.cols()]);
        let beta = Tensor::zeros([a.cols()]);
        let (y, _) = ops::layer_norm_forward(&a, &gamma, &beta, 1e-5);
        for r in 0..y.rows() {
            let row = y.row(r);
            let mean = row.iter().sum::<f32>() / row.len() as f32;
            let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / row.len() as f32;
            prop_assert!(mean.abs() < 1e-3, "row {r} mean {mean}");
            prop_assert!((var - 1.0).abs() < 0.05, "row {r} var {var}");
        }
    }

    #[test]
    fn gather_scatter_adjoint(a in small_matrix(6), seed in 0u64..1000) {
        // <gather(A, idx), B> == <A, scatter(B, idx)> — the adjoint identity
        // that makes embedding backward correct.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 4usize;
        let idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..a.rows())).collect();
        let gathered = a.gather_rows(&idx);
        let b = Tensor::ones([n, a.cols()]);
        let lhs: f32 = gathered.mul(&b).sum();
        let mut scattered = Tensor::zeros([a.rows(), a.cols()]);
        scattered.scatter_add_rows(&idx, &b);
        let rhs: f32 = a.mul(&scattered).sum();
        prop_assert!((lhs - rhs).abs() < 1e-3);
    }

    #[test]
    fn cross_entropy_grads_sum_to_zero_per_row(a in small_matrix(6), seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let targets: Vec<usize> = (0..a.rows()).map(|_| rng.gen_range(0..a.cols())).collect();
        let (loss, d) = ops::cross_entropy_from_logits(&a, &targets);
        prop_assert!(loss >= 0.0);
        for r in 0..d.rows() {
            let s: f32 = d.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-5, "row {r} grad sum {s}");
        }
    }

    #[test]
    fn blocked_gemm_matches_naive_reference((m, k, n, a, b) in gemm_case(21)) {
        let mut got = vec![0.0f32; m * n];
        kernel::matmul_into(&mut got, &a, &b, m, k, n);
        let want = reference_matmul(&a, &b, m, k, n);
        assert_close(&got, &want, 1e-4, "matmul");
    }

    #[test]
    fn nt_kernel_matches_transposed_reference((m, k, n, a, bt) in gemm_case(17)) {
        // `bt` is B in [n, k] layout (same element count); build the
        // [k, n] form for the reference.
        let mut b = vec![0.0f32; k * n];
        for r in 0..n {
            for c in 0..k {
                b[c * n + r] = bt[r * k + c];
            }
        }
        let mut got = vec![0.0f32; m * n];
        kernel::matmul_nt_into(&mut got, &a, &bt, m, k, n);
        let want = reference_matmul(&a, &b, m, k, n);
        assert_close(&got, &want, 1e-4, "matmul_nt");
    }

    #[test]
    fn tn_kernel_matches_transposed_reference((m, k, n, at, b) in gemm_case(17)) {
        // `at` is A in [k, m] layout (it is generated with m*k elements,
        // which is the same length).
        let mut a = vec![0.0f32; m * k];
        for r in 0..k {
            for c in 0..m {
                a[c * k + r] = at[r * m + c];
            }
        }
        let mut got = vec![0.0f32; m * n];
        kernel::matmul_tn_into(&mut got, &at, &b, m, k, n);
        let want = reference_matmul(&a, &b, m, k, n);
        assert_close(&got, &want, 1e-4, "matmul_tn");
    }

    #[test]
    fn skip_zeros_kernel_equals_dense_matmul((a, b) in conformable_pair(8), zero_stride in 2usize..5) {
        // Zero out a strided subset so the skip branch actually fires.
        let mut sparse = a.clone();
        for (i, v) in sparse.as_mut_slice().iter_mut().enumerate() {
            if i % zero_stride != 0 {
                *v = 0.0;
            }
        }
        let (m, k, n) = (sparse.rows(), sparse.cols(), b.cols());
        let mut skipped = vec![0.0f32; m * n];
        kernel::matmul_skip_zeros_into(&mut skipped, sparse.as_slice(), b.as_slice(), m, k, n);
        let mut dense = vec![0.0f32; m * n];
        kernel::matmul_into(&mut dense, sparse.as_slice(), b.as_slice(), m, k, n);
        prop_assert_eq!(skipped, dense);
    }

    #[test]
    fn int8_round_trip_error_bounded_by_half_scale(
        (rows, cols) in (1usize..7, 1usize..40),
        group in 1usize..20,
        seed in 0u32..1000,
    ) {
        // Covers group-edge geometry by construction: cols frequently not a
        // multiple of `group`, 1×N rows, groups wider than the row.
        let data = lcg_fill(rows * cols, seed + 1);
        let t = Tensor::from_vec([rows, cols], data.clone()).unwrap();
        let q = QuantizedTensor::quantize(&t, QuantMode::Int8 { group });
        let back = q.dequantize();
        let (_, scales, _) = q.int8_parts().unwrap();
        let groups_per_row = cols.div_ceil(group);
        for (i, (&v, &b)) in data.iter().zip(back.as_slice()).enumerate() {
            let (r, c) = (i / cols, i % cols);
            let s = scales[r * groups_per_row + c / group];
            prop_assert!(
                (v - b).abs() <= s * 0.5 + 1e-6,
                "elem {i}: {v} → {b} exceeds scale/2 = {}", s * 0.5
            );
        }
        prop_assert!(q.bytes() < 4 * t.len() + 4 * rows * groups_per_row + 1);
    }

    #[test]
    fn f16_round_trip_error_bounded(len in 1usize..64, seed in 0u32..1000) {
        let data = lcg_fill(len, seed + 7);
        let t = Tensor::from_vec([1, len], data.clone()).unwrap();
        let q = QuantizedTensor::quantize(&t, QuantMode::F16);
        for (&v, &b) in data.iter().zip(q.dequantize().as_slice()) {
            // binary16: 11-bit significand → relative error ≤ 2⁻¹¹.
            prop_assert!((v - b).abs() <= v.abs() / 2048.0 + 1e-7, "{v} vs {b}");
        }
    }

    #[test]
    fn q4_round_trip_error_bounded_by_block_scale(
        (rows, cols) in (1usize..6, 1usize..80),
        seed in 0u32..1000,
    ) {
        // Covers block-edge geometry by construction: cols frequently not a
        // multiple of 32, 1×N rows, blocks wider than the row. Q4_0's scale
        // is d = max|v|/8, every element lands within |d| (rounding
        // half-step, plus one code of clamp slack at the positive edge).
        let data = lcg_fill(rows * cols, seed + 3);
        let t = Tensor::from_vec([rows, cols], data.clone()).unwrap();
        let q = QuantizedTensor::quantize(&t, QuantMode::Q4);
        let back = q.dequantize();
        let (_, scales) = q.q4_parts().unwrap();
        let blocks_per_row = cols.div_ceil(32);
        for (i, (&v, &b)) in data.iter().zip(back.as_slice()).enumerate() {
            let (r, c) = (i / cols, i % cols);
            let d = quant::f16_to_f32(scales[r * blocks_per_row + c / 32]).abs();
            prop_assert!(
                (v - b).abs() <= d + 1e-6,
                "elem {i}: {v} → {b} exceeds the block scale {d}"
            );
        }
        prop_assert_eq!(q.bytes(), rows * (cols.div_ceil(2) + 2 * blocks_per_row));
    }

    #[test]
    fn q4k_round_trip_error_bounded_by_sub_block_geometry(
        (rows, cols) in (1usize..4, 1usize..300),
        seed in 0u32..1000,
    ) {
        // Super-block edges by construction: cols spanning none, one, or
        // several 256-wide super-blocks, with ragged 32-wide sub-blocks.
        // The asymmetric bound is half the reconstructed sub-block scale
        // (value rounding) plus one dmin step (min-code rounding + clamp).
        let data = lcg_fill(rows * cols, seed + 5);
        let t = Tensor::from_vec([rows, cols], data.clone()).unwrap();
        let q = QuantizedTensor::quantize(&t, QuantMode::Q4K);
        let back = q.dequantize();
        let (_, d, dmin, sc, _) = q.q4k_parts().unwrap();
        let supers_per_row = cols.div_ceil(256);
        let subs_per_row = cols.div_ceil(32);
        for (i, (&v, &b)) in data.iter().zip(back.as_slice()).enumerate() {
            let (r, c) = (i / cols, i % cols);
            let sup = r * supers_per_row + c / 256;
            let sub = r * subs_per_row + c / 32;
            let ds = quant::f16_to_f32(d[sup]) * sc[sub] as f32;
            let dm_step = quant::f16_to_f32(dmin[sup]);
            prop_assert!(
                (v - b).abs() <= 0.5 * ds + dm_step + 1e-5,
                "elem {i}: {v} → {b} exceeds ds/2 + dmin = {}", 0.5 * ds + dm_step
            );
        }
    }

    #[test]
    fn fused_dequant_gemm_is_bitwise_dequantize_then_matmul(
        (m, k, n, a, b) in gemm_case(17),
        group in 1usize..24,
    ) {
        // The fused kernel must be indistinguishable from materialising the
        // f32 weights — for int8 (any group geometry), f16, and the packed
        // sub-byte formats alike.
        for mode in [QuantMode::Int8 { group }, QuantMode::F16, QuantMode::Q4, QuantMode::Q4K] {
            let bq = QuantizedTensor::quantize(
                &Tensor::from_vec([k, n], b.clone()).unwrap(), mode);
            let deq = bq.dequantize();
            let mut want = vec![0.0f32; m * n];
            kernel::matmul_into(&mut want, &a, deq.as_slice(), m, k, n);
            let mut got = vec![0.0f32; m * n];
            quant::matmul_dequant_into(&mut got, &a, &bq, m, k, n);
            prop_assert!(
                got.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
                "({m},{k},{n}) {mode:?}: fused dequant GEMM diverged"
            );
        }
    }

    #[test]
    fn shape_offset_bijective(dims in proptest::collection::vec(1usize..5, 1..4)) {
        let shape = Shape::new(dims.clone());
        let mut seen = std::collections::HashSet::new();
        let mut index = vec![0usize; dims.len()];
        loop {
            let off = shape.offset(&index).unwrap();
            prop_assert!(off < shape.len());
            prop_assert!(seen.insert(off), "duplicate offset {off}");
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
            if index.iter().all(|&i| i == 0) { break; }
        }
        prop_assert_eq!(seen.len(), shape.len());
    }
}

/// Deterministic pseudo-random fill for the kernel determinism tests.
fn lcg_fill(len: usize, seed: u32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(2654435761).max(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 8) as f32 / (1 << 24) as f32) * 4.0 - 2.0
        })
        .collect()
}

/// Thread-count determinism: the pool-dispatched kernel must be **bitwise**
/// identical to the single-threaded blocked kernel. The shape sits above the
/// parallel cutoff and is deliberately not a multiple of the quad/block
/// sizes, so row ranges land on odd boundaries.
#[test]
fn parallel_gemm_is_bitwise_deterministic_across_thread_counts() {
    let (m, k, n) = (203, 151, 97);
    let a = lcg_fill(m * k, 41);
    let b = lcg_fill(k * n, 43);
    let mut serial = vec![0.0f32; m * n];
    kernel::matmul_serial_into(&mut serial, &a, &b, m, k, n);
    let mut pooled = vec![0.0f32; m * n];
    kernel::matmul_into(&mut pooled, &a, &b, m, k, n);
    assert!(
        serial.iter().zip(&pooled).all(|(x, y)| x.to_bits() == y.to_bits()),
        "pool-dispatched GEMM must be bitwise identical to the serial kernel \
         ({} worker threads)",
        pgmoe_tensor::WorkerPool::global().num_threads()
    );
}

/// The fused dequantizing GEMM fans out across the same pool: above the
/// parallel cutoff, the pool-dispatched kernel must be bitwise identical to
/// the serial fused kernel, to the forced-scalar fallback (whatever SIMD
/// tier this CPU dispatched), AND to dequantize-then-serial-matmul, for any
/// thread count.
#[test]
fn fused_dequant_gemm_is_bitwise_deterministic_across_thread_counts() {
    let (m, k, n) = (203, 151, 97); // above PAR_MIN_WORK, odd boundaries
    let a = lcg_fill(m * k, 61);
    let b = Tensor::from_vec([k, n], lcg_fill(k * n, 67)).unwrap();
    for mode in [
        QuantMode::int8(),
        QuantMode::Int8 { group: 13 },
        QuantMode::F16,
        QuantMode::Q4,
        QuantMode::Q4K,
    ] {
        let q = QuantizedTensor::quantize(&b, mode);
        let mut serial = vec![0.0f32; m * n];
        quant::matmul_dequant_serial_into(&mut serial, &a, &q, m, k, n);
        let mut pooled = vec![0.0f32; m * n];
        quant::matmul_dequant_into(&mut pooled, &a, &q, m, k, n);
        assert!(
            serial.iter().zip(&pooled).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{mode:?}: pool-dispatched fused GEMM must match the serial fused kernel \
             ({} worker threads)",
            pgmoe_tensor::WorkerPool::global().num_threads()
        );
        let mut scalar = vec![0.0f32; m * n];
        quant::matmul_dequant_scalar_into(&mut scalar, &a, &q, m, k, n);
        assert!(
            scalar.iter().zip(&pooled).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{mode:?}: SIMD-dispatched fused GEMM must match the scalar fallback bitwise \
             (simd enabled: {})",
            pgmoe_tensor::simd::enabled()
        );
        let deq = q.dequantize();
        let mut dense = vec![0.0f32; m * n];
        kernel::matmul_serial_into(&mut dense, &a, deq.as_slice(), m, k, n);
        assert!(
            dense.iter().zip(&pooled).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{mode:?}: fused GEMM must match dequantize-then-matmul bitwise"
        );
    }
}

/// Q4 edge shapes the block geometry must survive: a 1×N vector, rows
/// shorter than one block, a zero-row tensor, and an empty GEMM.
#[test]
fn q4_edge_shapes_round_trip_and_multiply() {
    for mode in [QuantMode::Q4, QuantMode::Q4K] {
        // 1×N vector spanning several blocks, N not a multiple of 32.
        let v = Tensor::from_vec([71], lcg_fill(71, 71)).unwrap();
        let q = QuantizedTensor::quantize(&v, mode);
        assert_eq!(q.dequantize().dims(), &[71]);
        // Rows shorter than one block/sub-block.
        let t = Tensor::from_vec([4, 3], lcg_fill(12, 73)).unwrap();
        let q = QuantizedTensor::quantize(&t, mode);
        let back = q.dequantize();
        for (x, y) in t.as_slice().iter().zip(back.as_slice()) {
            assert!((x - y).abs() <= 0.5, "{mode:?}: tail block diverged ({x} vs {y})");
        }
        // Empty: zero rows quantize, dequantize, and multiply to nothing.
        let empty = QuantizedTensor::quantize(&Tensor::zeros([0, 5]), mode);
        assert_eq!(empty.dequantize().len(), 0);
        let mut out = vec![7.0f32; 10];
        quant::matmul_dequant_into(&mut out, &[], &empty, 2, 0, 5);
        assert_eq!(out, vec![0.0; 10], "{mode:?}: k=0 GEMM must zero the output");
    }
}

/// Large elementwise ops cross the parallel cutoff; results must match the
/// sequential formula bitwise.
#[test]
fn parallel_elementwise_is_bitwise_deterministic() {
    let len = 1 << 17; // above the elementwise cutoff
    let data = lcg_fill(len, 47);
    let t = Tensor::from_vec([len], data.clone()).unwrap();
    let mapped = t.map(|v| v * 1.5 + 0.25);
    for (got, src) in mapped.as_slice().iter().zip(&data) {
        assert_eq!(got.to_bits(), (src * 1.5 + 0.25).to_bits());
    }
    let other = Tensor::from_vec([len], lcg_fill(len, 53)).unwrap();
    let zipped = t.zip(&other, |x, y| x * y).unwrap();
    for ((got, x), y) in zipped.as_slice().iter().zip(&data).zip(other.as_slice()) {
        assert_eq!(got.to_bits(), (x * y).to_bits());
    }
}
