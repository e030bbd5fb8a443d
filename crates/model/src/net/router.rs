//! The gate / pre-gate function: a compact routing MLP.

use super::RouteDecision;
use pgmoe_tensor::nn::{Layer, Linear, Param};
use pgmoe_tensor::{ops, ScratchArena, Tensor};
use rand::Rng;

/// A gate function: one linear projection `d_model → num_experts` followed by
/// a softmax and a top-1 selection, as in SwitchTransformer.
///
/// Whether a `Router` acts as a *conventional gate* or a *pre-gate* is purely
/// a matter of where it is evaluated and which block consumes its decision —
/// that wiring lives in [`crate::GateTopology`] and
/// [`super::SwitchNet`]; the function itself is identical, matching the
/// paper's claim that the pre-gate "is trained to preemptively select the
/// experts to activate for the next MoE block" with no architectural change
/// beyond placement (Section IV-B).
#[derive(Debug, Clone)]
pub struct Router {
    linear: Linear,
    cached: Option<RouteDecision>,
}

impl Router {
    /// Creates a router over `num_experts` experts for width `d_model`.
    pub fn new(d_model: usize, num_experts: usize, rng: &mut impl Rng) -> Self {
        Router { linear: Linear::new(d_model, num_experts, false, rng), cached: None }
    }

    /// Number of experts this router selects over.
    pub fn num_experts(&self) -> usize {
        self.linear.out_features()
    }

    /// Routes a token batch `[t, d]`, returning the per-token top-1 decision.
    ///
    /// Caches activations for [`Router::backward`].
    pub fn route(&mut self, h: &Tensor) -> RouteDecision {
        let mut probs = self.linear.forward(h);
        probs.softmax_rows_inplace();
        let decision = RouteDecision::from_probs(probs);
        self.cached = Some(decision.clone());
        decision
    }

    /// Inference-only routing (no caching). The only allocation is the
    /// returned decision, which owns its probability matrix.
    pub fn route_inference(&self, h: &Tensor) -> RouteDecision {
        RouteDecision::from_probs(self.gate_probs_arena(h, &ScratchArena::new()))
    }

    /// The `[t, experts]` gate probabilities for `h` in an arena tensor
    /// (the softmax runs in place on the logits buffer) — the
    /// allocation-free routing path; [`super::ExpertChoice::top1`] of a
    /// row is that token's decision. The caller recycles the result.
    pub(crate) fn gate_probs_arena(&self, h: &Tensor, arena: &ScratchArena) -> Tensor {
        let mut probs = self.linear.forward_inference_arena(h, arena);
        probs.softmax_rows_inplace();
        probs
    }

    /// Backward pass given the upstream gradient on each token's selected
    /// gate probability. Returns the gradient w.r.t. the router's input —
    /// which, for a pre-gate, belongs to an *earlier* block's activations.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Router::route`] or if `dprob` length
    /// mismatches.
    pub fn backward(&mut self, dprob: &[f32]) -> Tensor {
        let dec = self.cached.take().expect("Router::backward before route");
        assert_eq!(dprob.len(), dec.num_tokens(), "dprob length mismatch");
        // Upstream gradient only touches each row's selected probability.
        let mut dprobs = Tensor::zeros(dec.probs_full.shape().clone());
        for (t, (&e, &dp)) in dec.expert.iter().zip(dprob).enumerate() {
            dprobs.set(&[t, e], dp);
        }
        let dlogits = ops::softmax_backward(&dec.probs_full, &dprobs);
        self.linear.backward(&dlogits)
    }
}

impl Layer for Router {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.linear.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn route_selects_argmax_with_its_probability() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut r = Router::new(4, 3, &mut rng);
        let h = pgmoe_tensor::init::normal([6, 4], 0.0, 1.0, &mut rng);
        let dec = r.route(&h);
        assert_eq!(dec.num_tokens(), 6);
        for t in 0..6 {
            let row = dec.probs_full.row(t);
            let best = (0..3).max_by(|&a, &b| row[a].partial_cmp(&row[b]).unwrap()).unwrap();
            assert_eq!(dec.expert[t], best);
            assert!((dec.prob[t] - row[best]).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_gradient_check() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut r = Router::new(4, 3, &mut rng);
        let h = pgmoe_tensor::init::normal([2, 4], 0.0, 1.0, &mut rng);
        // Loss = sum of selected probabilities (selection held fixed).
        let dec0 = r.route(&h);
        let dprob = vec![1.0; 2];
        let dx = r.backward(&dprob);
        let eps = 1e-3;
        for i in 0..h.len() {
            let mut hp = h.clone();
            hp.as_mut_slice()[i] += eps;
            let mut hm = h.clone();
            hm.as_mut_slice()[i] -= eps;
            // Hold the original selection fixed (routing is piecewise
            // constant; gradients flow through the probability only).
            let lp: f32 =
                (0..2).map(|t| r.route_inference(&hp).probs_full.at(&[t, dec0.expert[t]])).sum();
            let lm: f32 =
                (0..2).map(|t| r.route_inference(&hm).probs_full.at(&[t, dec0.expert[t]])).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (dx.as_slice()[i] - numeric).abs() < 1e-2,
                "elem {i}: {} vs {numeric}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn deterministic_given_same_input() {
        let mut rng = StdRng::seed_from_u64(2);
        let r = Router::new(4, 8, &mut rng);
        let h = pgmoe_tensor::init::normal([3, 4], 0.0, 1.0, &mut rng);
        assert_eq!(r.route_inference(&h), r.route_inference(&h));
    }
}
