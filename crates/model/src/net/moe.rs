//! The MoE FFN sub-layer: routed expert execution.

use super::expert::QuantizedExpertFfn;
use super::ExpertFfn;
use crate::ExpertPrecision;
use pgmoe_tensor::nn::{Layer, Param};
use pgmoe_tensor::{ScratchArena, Tensor};
use rand::Rng;
use std::cell::RefCell;

/// A per-token top-1 routing decision, produced by a [`super::Router`].
///
/// Carries the full softmax for the backward pass: Switch scales each
/// expert's output by its gate probability, which is the path through which
/// the router receives gradient.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteDecision {
    /// Selected expert per token.
    pub expert: Vec<usize>,
    /// Gate probability of the selected expert per token.
    pub prob: Vec<f32>,
    /// Full `[tokens, experts]` softmax (cached for backward).
    pub probs_full: Tensor,
}

/// One token's top-1 routing: the selected expert and its gate probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpertChoice {
    /// The selected expert.
    pub expert: usize,
    /// Its gate probability (the factor the expert's output is scaled by).
    pub prob: f32,
}

impl ExpertChoice {
    /// The top-1 choice from one token's gate probabilities: the first
    /// maximum, as every routing path in the crate picks it.
    pub fn top1(probs: &[f32]) -> Self {
        let mut expert = 0;
        for (e, &p) in probs.iter().enumerate() {
            if p > probs[expert] {
                expert = e;
            }
        }
        ExpertChoice { expert, prob: probs[expert] }
    }
}

impl RouteDecision {
    /// Builds the top-1 decision from a `[tokens, experts]` probability
    /// matrix.
    pub fn from_probs(probs: Tensor) -> Self {
        let (expert, prob) = (0..probs.rows())
            .map(|t| {
                let c = ExpertChoice::top1(probs.row(t));
                (c.expert, c.prob)
            })
            .unzip();
        RouteDecision { expert, prob, probs_full: probs }
    }

    /// Number of routed tokens.
    pub fn num_tokens(&self) -> usize {
        self.expert.len()
    }

    /// The distinct experts activated by this decision, sorted.
    pub fn active_experts(&self) -> Vec<usize> {
        let mut e = self.expert.clone();
        e.sort_unstable();
        e.dedup();
        e
    }
}

/// The expert bank of one MoE block: `num_experts` independent FFNs executed
/// on the token subsets a [`RouteDecision`] assigns them.
#[derive(Debug, Clone)]
pub struct MoeFfn {
    experts: Vec<ExpertFfn>,
    /// Quantized inference snapshot of the expert bank (see
    /// [`MoeFfn::quantize_experts`]); inference routes through it when set.
    quantized: Option<QuantizedBank>,
    cache: Option<MoeCache>,
    /// Reusable per-expert token-index buffers for the inference path:
    /// cleared (capacity kept) every call, so steady-state decode builds its
    /// expert groups without allocating.
    group_scratch: RefCell<Vec<Vec<usize>>>,
}

/// A quantized snapshot of the expert bank, remembering its precision so
/// [`Layer::visit_params`] can re-snapshot after parameter mutations.
#[derive(Debug, Clone)]
struct QuantizedBank {
    precision: ExpertPrecision,
    experts: Vec<QuantizedExpertFfn>,
}

#[derive(Debug, Clone)]
struct MoeCache {
    decision: RouteDecision,
    groups: Vec<Vec<usize>>,
    raw_out: Tensor,
}

impl MoeFfn {
    /// Creates `num_experts` experts of shape `d_model → d_ff → d_model`.
    pub fn new(num_experts: usize, d_model: usize, d_ff: usize, rng: &mut impl Rng) -> Self {
        assert!(num_experts >= 1, "need at least one expert");
        MoeFfn {
            experts: (0..num_experts).map(|_| ExpertFfn::new(d_model, d_ff, rng)).collect(),
            quantized: None,
            cache: None,
            group_scratch: RefCell::new(vec![Vec::new(); num_experts]),
        }
    }

    /// Snapshots the expert bank at `precision` for inference: subsequent
    /// inference forwards run every expert through the fused dequantizing
    /// GEMM instead of the f32 weights. [`ExpertPrecision::F32`] clears the
    /// snapshot (back to full-precision inference). Training always uses
    /// the f32 parameters; any mutation made through
    /// [`Layer::visit_params`] (optimizer steps, checkpoint loads)
    /// automatically re-snapshots, so the quantized bank never serves
    /// stale weights.
    pub fn quantize_experts(&mut self, precision: ExpertPrecision) {
        self.quantized = precision.quant_mode().map(|mode| QuantizedBank {
            precision,
            experts: self.experts.iter().map(|e| e.quantized(mode)).collect(),
        });
    }

    /// Re-snapshots the quantized bank (if any) from the current f32
    /// weights — called after every parameter visit, since visitors get
    /// mutable access.
    fn refresh_quantized(&mut self) {
        if let Some(bank) = &self.quantized {
            self.quantize_experts(bank.precision);
        }
    }

    /// Whether inference currently runs through a quantized snapshot.
    pub fn is_quantized(&self) -> bool {
        self.quantized.is_some()
    }

    /// Stored bytes of the quantized expert bank (`None` at f32).
    pub fn quantized_bytes(&self) -> Option<usize> {
        self.quantized.as_ref().map(|bank| bank.experts.iter().map(|e| e.weight_bytes()).sum())
    }

    /// Number of experts in the bank.
    pub fn num_experts(&self) -> usize {
        self.experts.len()
    }

    /// Immutable access to an expert (for weight surgery in tests/tools).
    pub fn expert(&self, e: usize) -> &ExpertFfn {
        &self.experts[e]
    }

    /// Executes the routed experts: token `t` flows through
    /// `expert[decision.expert[t]]` and is scaled by `decision.prob[t]`.
    ///
    /// # Panics
    ///
    /// Panics if the decision's token count differs from `h.rows()` or an
    /// expert index is out of range.
    pub fn forward(&mut self, h: &Tensor, decision: &RouteDecision) -> Tensor {
        assert_eq!(decision.num_tokens(), h.rows(), "decision/token mismatch");
        let groups = self.group_tokens(decision);
        let mut raw_out = Tensor::zeros([h.rows(), h.cols()]);
        for (e, idxs) in groups.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let sub = h.gather_rows(idxs);
            let out = self.experts[e].forward(&sub);
            for (row, &t) in idxs.iter().enumerate() {
                raw_out.row_mut(t).copy_from_slice(out.row(row));
            }
        }
        let mut scaled = raw_out.clone();
        for t in 0..scaled.rows() {
            let p = decision.prob[t];
            for v in scaled.row_mut(t) {
                *v *= p;
            }
        }
        self.cache = Some(MoeCache { decision: decision.clone(), groups, raw_out });
        scaled
    }

    /// Inference-only forward (no caching).
    ///
    /// Tokens are grouped by expert and each expert runs **once** on its
    /// whole token batch (the old path built a 1-row tensor per token).
    pub fn forward_inference(&self, h: &Tensor, decision: &RouteDecision) -> Tensor {
        self.forward_inference_arena(h, decision, &ScratchArena::new())
    }

    /// Grouped inference through arena-recycled buffers, routed by
    /// `decision`. The caller recycles the returned tensor when done.
    pub fn forward_inference_arena(
        &self,
        h: &Tensor,
        decision: &RouteDecision,
        arena: &ScratchArena,
    ) -> Tensor {
        assert_eq!(decision.num_tokens(), h.rows(), "decision/token mismatch");
        self.forward_routed_arena(
            h,
            |t| ExpertChoice { expert: decision.expert[t], prob: decision.prob[t] },
            arena,
        )
    }

    /// Grouped inference routed by the top-1 of each row of the
    /// `[tokens, experts]` gate probabilities `probs` (see
    /// [`ExpertChoice::top1`]) — the allocation-free serving path: no
    /// [`RouteDecision`] is built. The caller recycles the returned tensor.
    ///
    /// # Panics
    ///
    /// Panics if `probs` has a different row count than `h`.
    pub(crate) fn forward_gated_arena(
        &self,
        h: &Tensor,
        probs: &Tensor,
        arena: &ScratchArena,
    ) -> Tensor {
        assert_eq!(probs.rows(), h.rows(), "gate/token mismatch");
        self.forward_routed_arena(h, |t| ExpertChoice::top1(probs.row(t)), arena)
    }

    /// Token `t` flows through `route(t).expert`, scaled by `route(t).prob`;
    /// each expert runs once on its whole token group.
    fn forward_routed_arena(
        &self,
        h: &Tensor,
        route: impl Fn(usize) -> ExpertChoice,
        arena: &ScratchArena,
    ) -> Tensor {
        let cols = h.cols();
        let mut groups = self.group_scratch.borrow_mut();
        debug_assert_eq!(groups.len(), self.experts.len());
        for g in groups.iter_mut() {
            g.clear();
        }
        for t in 0..h.rows() {
            let e = route(t).expert;
            assert!(e < self.experts.len(), "expert {e} out of range");
            groups[e].push(t);
        }
        let mut out = arena.take([h.rows(), cols]);
        for (e, idxs) in groups.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let mut sub = arena.take([idxs.len(), cols]);
            for (row, &t) in idxs.iter().enumerate() {
                sub.row_mut(row).copy_from_slice(h.row(t));
            }
            // A quantized snapshot, when present, is the serving truth: the
            // fused kernel consumes the stored int8/f16 panels directly.
            let y = match &self.quantized {
                Some(bank) => bank.experts[e].forward_inference_arena(&sub, arena),
                None => self.experts[e].forward_inference_arena(&sub, arena),
            };
            for (row, &t) in idxs.iter().enumerate() {
                let p = route(t).prob;
                for (o, &v) in out.row_mut(t).iter_mut().zip(y.row(row)) {
                    *o = v * p;
                }
            }
            arena.recycle(sub);
            arena.recycle(y);
        }
        out
    }

    /// Backward pass. Returns `(dh, dprob)`: the gradient w.r.t. the block
    /// input and, per token, w.r.t. the selected gate probability (to be fed
    /// to [`super::Router::backward`]).
    ///
    /// # Panics
    ///
    /// Panics if called before [`MoeFfn::forward`].
    pub fn backward(&mut self, dy: &Tensor) -> (Tensor, Vec<f32>) {
        let cache = self.cache.take().expect("MoeFfn::backward before forward");
        let t_count = cache.decision.num_tokens();
        assert_eq!(dy.rows(), t_count, "dy/token mismatch");
        // dprob[t] = <dy[t], raw_out[t]>
        let mut dprob = Vec::with_capacity(t_count);
        for t in 0..t_count {
            let dot: f32 = dy.row(t).iter().zip(cache.raw_out.row(t)).map(|(a, b)| a * b).sum();
            dprob.push(dot);
        }
        // d_raw[t] = prob[t] · dy[t], routed back through each expert.
        let mut dh = Tensor::zeros([dy.rows(), dy.cols()]);
        for (e, idxs) in cache.groups.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let mut d_sub = dy.gather_rows(idxs);
            for (row, &t) in idxs.iter().enumerate() {
                let p = cache.decision.prob[t];
                for v in d_sub.row_mut(row) {
                    *v *= p;
                }
            }
            let dx_sub = self.experts[e].backward(&d_sub);
            for (row, &t) in idxs.iter().enumerate() {
                for (o, &v) in dh.row_mut(t).iter_mut().zip(dx_sub.row(row)) {
                    *o += v;
                }
            }
        }
        (dh, dprob)
    }

    fn group_tokens(&self, decision: &RouteDecision) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.experts.len()];
        for (t, &e) in decision.expert.iter().enumerate() {
            assert!(e < self.experts.len(), "expert {e} out of range");
            groups[e].push(t);
        }
        groups
    }
}

impl Layer for MoeFfn {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for e in &mut self.experts {
            e.visit_params(f);
        }
        // The visitor had mutable access; a stale snapshot would silently
        // serve the old expert weights.
        self.refresh_quantized();
    }

    fn visit_expert_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uniform_decision(tokens: usize, experts: &[usize], num_experts: usize) -> RouteDecision {
        // Hand-built decision with prob 1.0 on given experts.
        let mut probs = Tensor::zeros([tokens, num_experts]);
        for (t, &e) in experts.iter().enumerate() {
            probs.set(&[t, e], 1.0);
        }
        RouteDecision::from_probs(probs)
    }

    #[test]
    fn tokens_flow_through_their_selected_expert() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut moe = MoeFfn::new(2, 4, 8, &mut rng);
        let h = pgmoe_tensor::init::normal([3, 4], 0.0, 1.0, &mut rng);
        let dec = uniform_decision(3, &[1, 0, 1], 2);
        let out = moe.forward(&h, &dec);
        // Compare against running each expert directly.
        for (t, &e) in [1usize, 0, 1].iter().enumerate() {
            let row = Tensor::from_vec([1, 4], h.row(t).to_vec()).unwrap();
            let direct = moe.experts[e].forward_inference(&row);
            for (a, b) in out.row(t).iter().zip(direct.row(0)) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn output_scales_with_gate_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut moe = MoeFfn::new(2, 4, 8, &mut rng);
        let h = pgmoe_tensor::init::normal([1, 4], 0.0, 1.0, &mut rng);
        let mut probs = Tensor::zeros([1, 2]);
        probs.set(&[0, 0], 0.5);
        probs.set(&[0, 1], 0.5); // tie → argmax picks 0
        let dec = RouteDecision::from_probs(probs);
        assert_eq!(dec.expert[0], 0);
        let out_half = moe.forward(&h, &dec);
        let full = uniform_decision(1, &[0], 2);
        let out_full = moe.forward(&h, &full);
        for (a, b) in out_half.row(0).iter().zip(out_full.row(0)) {
            assert!((a * 2.0 - b).abs() < 1e-5);
        }
    }

    #[test]
    fn backward_gradient_check_with_fixed_routing() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut moe = MoeFfn::new(3, 4, 6, &mut rng);
        let h = pgmoe_tensor::init::normal([4, 4], 0.0, 1.0, &mut rng);
        let dec = uniform_decision(4, &[2, 0, 1, 2], 3);
        let w = pgmoe_tensor::init::normal([4, 4], 0.0, 1.0, &mut rng);
        let _ = moe.forward(&h, &dec);
        let (dh, _) = moe.backward(&w);
        let eps = 1e-2;
        for i in 0..h.len() {
            let mut hp = h.clone();
            hp.as_mut_slice()[i] += eps;
            let mut hm = h.clone();
            hm.as_mut_slice()[i] -= eps;
            let lp = moe.forward_inference(&hp, &dec).mul(&w).sum();
            let lm = moe.forward_inference(&hm, &dec).mul(&w).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (dh.as_slice()[i] - numeric).abs() < 3e-2,
                "elem {i}: {} vs {numeric}",
                dh.as_slice()[i]
            );
        }
    }

    #[test]
    fn dprob_matches_directional_derivative() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut moe = MoeFfn::new(2, 4, 6, &mut rng);
        let h = pgmoe_tensor::init::normal([2, 4], 0.0, 1.0, &mut rng);
        let dec = uniform_decision(2, &[0, 1], 2);
        let w = pgmoe_tensor::init::normal([2, 4], 0.0, 1.0, &mut rng);
        let _ = moe.forward(&h, &dec);
        let (_, dprob) = moe.backward(&w);
        // Perturb token 0's prob.
        let eps = 1e-3;
        let mut dec_p = dec.clone();
        dec_p.prob[0] += eps;
        let mut dec_m = dec.clone();
        dec_m.prob[0] -= eps;
        let lp = moe.forward_inference(&h, &dec_p).mul(&w).sum();
        let lm = moe.forward_inference(&h, &dec_m).mul(&w).sum();
        let numeric = (lp - lm) / (2.0 * eps);
        assert!((dprob[0] - numeric).abs() < 1e-2, "{} vs {numeric}", dprob[0]);
    }

    #[test]
    fn active_experts_deduplicates() {
        let dec = uniform_decision(4, &[1, 1, 0, 1], 3);
        assert_eq!(dec.active_experts(), vec![0, 1]);
    }

    #[test]
    fn quantized_bank_tracks_dense_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut moe = MoeFfn::new(3, 8, 16, &mut rng);
        let h = pgmoe_tensor::init::normal([5, 8], 0.0, 1.0, &mut rng);
        let dec = uniform_decision(5, &[2, 0, 1, 2, 0], 3);
        let dense = moe.forward_inference(&h, &dec);
        for precision in [ExpertPrecision::Int8, ExpertPrecision::F16] {
            moe.quantize_experts(precision);
            assert!(moe.is_quantized());
            assert!(
                moe.quantized_bytes().unwrap() < 3 * (8 * 16 * 2) * 4,
                "{precision}: quantized bank must be smaller than f32"
            );
            let q = moe.forward_inference(&h, &dec);
            let denom = dense.norm_sq().sqrt().max(1e-6);
            let err = dense.sub(&q).norm_sq().sqrt() / denom;
            assert!(err < 0.02, "{precision}: relative error {err}");
        }
        moe.quantize_experts(ExpertPrecision::F32);
        assert!(!moe.is_quantized());
        assert_eq!(moe.forward_inference(&h, &dec), dense);
    }
}
