//! Single-head causal self-attention with manual backprop.

use super::{Layer, Linear, Param};
use crate::ops::softmax_backward;
use crate::{ScratchArena, Tensor};
use rand::Rng;

/// Single-head causal self-attention over one sequence `[t, dim] → [t, dim]`.
///
/// This is the sequence-mixing layer of the trainable scaled-down Switch
/// models used for the accuracy experiments (Table II, Fig 13). A single head
/// keeps the manual backward pass auditable; the systems-side experiments use
/// the analytic cost model in `pgmoe-device` for multi-head attention timing,
/// so head count does not affect any reproduced figure.
///
/// Batched input is handled by the caller looping over sequences (batch sizes
/// in the accuracy experiments are small).
#[derive(Debug, Clone)]
pub struct CausalSelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    scale: f32,
    cache: Option<AttnCache>,
}

#[derive(Debug, Clone)]
struct AttnCache {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    attn: Tensor,
}

impl CausalSelfAttention {
    /// Creates an attention layer of width `dim`.
    pub fn new(dim: usize, rng: &mut impl Rng) -> Self {
        CausalSelfAttention {
            wq: Linear::new(dim, dim, false, rng),
            wk: Linear::new(dim, dim, false, rng),
            wv: Linear::new(dim, dim, false, rng),
            wo: Linear::new(dim, dim, false, rng),
            scale: 1.0 / (dim as f32).sqrt(),
            cache: None,
        }
    }

    /// Model width.
    pub fn dim(&self) -> usize {
        self.wq.in_features()
    }

    /// Forward pass over one sequence `[t, dim]`, caching for backward.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let q = self.wq.forward(x);
        let k = self.wk.forward(x);
        let v = self.wv.forward(x);
        let attn = self.masked_attention(&q, &k);
        let ctx = attn.matmul(&v);
        let y = self.wo.forward(&ctx);
        self.cache = Some(AttnCache { q, k, v, attn });
        y
    }

    /// Inference-only forward pass that skips caching.
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        let q = self.wq.forward_inference(x);
        let k = self.wk.forward_inference(x);
        let v = self.wv.forward_inference(x);
        let attn = self.masked_attention(&q, &k);
        let ctx = attn.matmul(&v);
        self.wo.forward_inference(&ctx)
    }

    /// Inference forward through arena-recycled intermediates — the
    /// allocation-free serving path. The caller recycles the returned
    /// tensor when done. Exactly [`CausalSelfAttention::project_kv_into`]
    /// over every row followed by [`CausalSelfAttention::attend_arena`]
    /// from row 0.
    pub fn forward_inference_arena(&self, x: &Tensor, arena: &ScratchArena) -> Tensor {
        let mut k = arena.take([x.rows(), self.dim()]);
        let mut v = arena.take([x.rows(), self.dim()]);
        self.project_kv_into(x, 0, &mut k, &mut v);
        let y = self.attend_arena(x, 0, &k, &v, arena);
        arena.recycle(k);
        arena.recycle(v);
        y
    }

    /// Writes the key and value projections of the rows of `x` into rows
    /// `at..at + x.rows()` of `k` and `v` (both `[t, dim]`), leaving their
    /// other rows untouched — so keys and values of a prefix computed
    /// earlier can sit in front of freshly projected ones.
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch or if the rows do not fit.
    pub fn project_kv_into(&self, x: &Tensor, at: usize, k: &mut Tensor, v: &mut Tensor) {
        let span = at * self.dim()..(at + x.rows()) * self.dim();
        self.wk.forward_into(x, &mut k.as_mut_slice()[span.clone()]);
        self.wv.forward_into(x, &mut v.as_mut_slice()[span]);
    }

    /// Attention output for the query rows `x`, which sit at absolute
    /// positions `at..at + x.rows()` of a sequence whose keys and values
    /// are `k` and `v` (`[t, dim]`, as written by
    /// [`CausalSelfAttention::project_kv_into`]). Row `i` attends to keys
    /// `0..=at + i`; the scores still span all `t` keys (later ones
    /// masked), so each output row is bitwise identical to that row of the
    /// full-sequence forward. The caller recycles the returned tensor.
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch or if `k`/`v` disagree in shape.
    pub fn attend_arena(
        &self,
        x: &Tensor,
        at: usize,
        k: &Tensor,
        v: &Tensor,
        arena: &ScratchArena,
    ) -> Tensor {
        let q = self.wq.forward_inference_arena(x, arena);
        let mut attn = arena.take([x.rows(), k.rows()]);
        q.matmul_nt_into(k, &mut attn).expect("attention: q/k width mismatch");
        self.mask_and_softmax(&mut attn, at);
        let mut ctx = arena.take([x.rows(), v.cols()]);
        attn.matmul_into(v, &mut ctx).expect("attention: attn/v mismatch");
        let y = self.wo.forward_inference_arena(&ctx, arena);
        arena.recycle(q);
        arena.recycle(attn);
        arena.recycle(ctx);
        y
    }

    fn masked_attention(&self, q: &Tensor, k: &Tensor) -> Tensor {
        // Q·Kᵀ through the transpose-aware kernel: K is never transposed in
        // memory.
        let mut scores = q.matmul_nt(k);
        self.mask_and_softmax(&mut scores, 0);
        scores
    }

    /// Scales, masks every key after each query's own position (query row
    /// `i` sits at position `at + i`), and softmaxes each row.
    fn mask_and_softmax(&self, scores: &mut Tensor, at: usize) {
        let (rows, keys) = (scores.rows(), scores.cols());
        let scale = self.scale;
        scores.map_inplace(|v| v * scale);
        for i in 0..rows {
            for j in (at + i + 1)..keys {
                scores.set(&[i, j], f32::NEG_INFINITY);
            }
        }
        scores.softmax_rows_inplace();
    }

    /// Backward pass; accumulates projection grads, returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before [`CausalSelfAttention::forward`].
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("CausalSelfAttention::backward before forward");
        let dctx = self.wo.backward(dy);
        // ctx = attn · v — both factor gradients through the transpose-aware
        // kernels, so no transpose is ever materialised in this pass.
        let dattn = dctx.matmul_nt(&cache.v);
        let dv = cache.attn.matmul_tn(&dctx);
        // Masked positions have attn == 0, so softmax_backward already yields
        // zero gradient there; no explicit re-masking is needed.
        let dscores = softmax_backward(&cache.attn, &dattn).scale(self.scale);
        let dq = dscores.matmul(&cache.k);
        let dk = dscores.matmul_tn(&cache.q);
        let dx_q = self.wq.backward(&dq);
        let dx_k = self.wk.backward(&dk);
        let dx_v = self.wv.backward(&dv);
        dx_q.add(&dx_k).add(&dx_v)
    }
}

impl Layer for CausalSelfAttention {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape_matches_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut attn = CausalSelfAttention::new(8, &mut rng);
        let x = crate::init::normal([5, 8], 0.0, 1.0, &mut rng);
        let y = attn.forward(&x);
        assert_eq!(y.dims(), &[5, 8]);
    }

    #[test]
    fn causality_first_token_ignores_future() {
        // Changing later tokens must not change the first output row.
        let mut rng = StdRng::seed_from_u64(1);
        let attn = CausalSelfAttention::new(4, &mut rng);
        let mut x = crate::init::normal([3, 4], 0.0, 1.0, &mut rng);
        let y1 = attn.forward_inference(&x);
        for j in 0..4 {
            x.set(&[2, j], 99.0);
        }
        let y2 = attn.forward_inference(&x);
        for j in 0..4 {
            assert!((y1.at(&[0, j]) - y2.at(&[0, j])).abs() < 1e-6);
            assert!((y1.at(&[1, j]) - y2.at(&[1, j])).abs() < 1e-6);
        }
    }

    #[test]
    fn arena_inference_matches_plain_inference() {
        let mut rng = StdRng::seed_from_u64(9);
        let attn = CausalSelfAttention::new(8, &mut rng);
        let x = crate::init::normal([5, 8], 0.0, 1.0, &mut rng);
        let want = attn.forward_inference(&x);
        let arena = ScratchArena::new();
        for _ in 0..3 {
            let y = attn.forward_inference_arena(&x, &arena);
            for (a, b) in y.as_slice().iter().zip(want.as_slice()) {
                assert!((a - b).abs() < 1e-6, "{a} vs {b}");
            }
            arena.recycle(y);
        }
    }

    #[test]
    fn attending_from_an_offset_matches_those_rows_of_the_full_forward() {
        let mut rng = StdRng::seed_from_u64(4);
        let attn = CausalSelfAttention::new(8, &mut rng);
        let x = crate::init::normal([7, 8], 0.0, 1.0, &mut rng);
        let arena = ScratchArena::new();
        let full = attn.forward_inference_arena(&x, &arena);
        for at in 0..7 {
            let tail = Tensor::from_vec([7 - at, 8], x.as_slice()[at * 8..].to_vec()).unwrap();
            let head = Tensor::from_vec([at, 8], x.as_slice()[..at * 8].to_vec()).unwrap();
            // Keys/values projected in two pieces land where one pass puts them.
            let (mut k, mut v) = (Tensor::zeros([7, 8]), Tensor::zeros([7, 8]));
            attn.project_kv_into(&head, 0, &mut k, &mut v);
            attn.project_kv_into(&tail, at, &mut k, &mut v);
            let y = attn.attend_arena(&tail, at, &k, &v, &arena);
            let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(y.as_slice()), bits(&full.as_slice()[at * 8..]), "offset {at}");
        }
    }

    #[test]
    fn backward_gradient_check() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut attn = CausalSelfAttention::new(4, &mut rng);
        let x = crate::init::normal([3, 4], 0.0, 1.0, &mut rng);
        let w = crate::init::normal([3, 4], 0.0, 1.0, &mut rng);

        let _ = attn.forward(&x);
        let dx = attn.backward(&w);

        let eps = 1e-2;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let lp = attn.forward_inference(&xp).mul(&w).sum();
            let lm = attn.forward_inference(&xm).mul(&w).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (dx.as_slice()[i] - numeric).abs() < 3e-2,
                "elem {i}: analytic {} vs numeric {numeric}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn param_count_is_four_projections() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut attn = CausalSelfAttention::new(6, &mut rng);
        assert_eq!(attn.param_count(), 4 * 6 * 6);
    }
}
