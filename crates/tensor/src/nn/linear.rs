//! Fully-connected layer with manual backprop.

use super::{Layer, Param};
use crate::{init, ScratchArena, Tensor};
use rand::Rng;

/// A dense affine layer `y = x W + b`.
///
/// Weights are stored `[in_features, out_features]` so the forward pass is a
/// single row-major matmul over a batch of row-vectors.
///
/// # Example
///
/// ```
/// use pgmoe_tensor::{nn::Linear, Tensor};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut layer = Linear::new(4, 2, true, &mut StdRng::seed_from_u64(0));
/// let x = Tensor::zeros([3, 4]);
/// let y = layer.forward(&x);
/// assert_eq!(y.dims(), &[3, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix `[in_features, out_features]`.
    pub weight: Param,
    /// Optional bias vector `[out_features]`.
    pub bias: Option<Param>,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, bias: bool, rng: &mut impl Rng) -> Self {
        Linear {
            weight: Param::new(init::xavier_uniform(in_features, out_features, rng)),
            bias: bias.then(|| Param::new(Tensor::zeros([out_features]))),
            cached_input: None,
        }
    }

    /// Creates a layer from explicit weight (and optional bias) tensors.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank 2 or the bias width mismatches.
    pub fn from_weights(weight: Tensor, bias: Option<Tensor>) -> Self {
        let (_, out) = weight.shape().as_matrix().expect("Linear weight must be rank 2");
        if let Some(b) = &bias {
            assert_eq!(b.len(), out, "Linear bias width mismatch");
        }
        Linear { weight: Param::new(weight), bias: bias.map(Param::new), cached_input: None }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.weight.value.dims()[1]
    }

    /// Forward pass over a batch of row-vectors `[n, in] → [n, out]`.
    ///
    /// Caches the input for [`Linear::backward`].
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut y = x.matmul(&self.weight.value);
        if let Some(b) = &self.bias {
            self.add_bias_inplace(&mut y, &b.value);
        }
        self.cached_input = Some(x.clone());
        y
    }

    /// Inference-only forward pass that skips caching.
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        let mut y = x.matmul(&self.weight.value);
        if let Some(b) = &self.bias {
            self.add_bias_inplace(&mut y, &b.value);
        }
        y
    }

    /// Inference forward into an arena-recycled output — the
    /// allocation-free serving path. The caller recycles `x` (and
    /// eventually the returned tensor) when done.
    pub fn forward_inference_arena(&self, x: &Tensor, arena: &ScratchArena) -> Tensor {
        let mut y = arena.take([x.rows(), self.out_features()]);
        self.forward_into(x, y.as_mut_slice());
        y
    }

    /// Inference forward written into `out`, a row-major
    /// `[x.rows(), out_features]` slice — e.g. a row range of a larger
    /// tensor.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[n, in_features]` or `out` has the wrong
    /// length.
    pub(crate) fn forward_into(&self, x: &Tensor, out: &mut [f32]) {
        let (rows, in_f) = x.shape().as_matrix().expect("Linear: input must be rank 2");
        assert_eq!(in_f, self.in_features(), "Linear: input width mismatch");
        let out_f = self.out_features();
        crate::kernel::matmul_into(
            out,
            x.as_slice(),
            self.weight.value.as_slice(),
            rows,
            in_f,
            out_f,
        );
        if let Some(b) = &self.bias {
            for row in out.chunks_mut(out_f) {
                for (v, b) in row.iter_mut().zip(b.value.as_slice()) {
                    *v += b;
                }
            }
        }
    }

    fn add_bias_inplace(&self, y: &mut Tensor, bias: &Tensor) {
        for r in 0..y.rows() {
            for (v, b) in y.row_mut(r).iter_mut().zip(bias.as_slice()) {
                *v += b;
            }
        }
    }

    /// Backward pass: accumulates `dW = xᵀ dy`, `db = Σ dy`, returns
    /// `dx = dy Wᵀ`.
    ///
    /// Both products run through the transpose-aware kernels — no transpose
    /// is materialised, and `dW` accumulates straight into the weight
    /// gradient with zero temporaries.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Linear::forward`].
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.cached_input.as_ref().expect("Linear::backward before forward");
        let (tokens, in_f) = (x.rows(), self.in_features());
        let out_f = self.out_features();
        // dW += xᵀ · dy, written directly onto the accumulated gradient.
        crate::kernel::matmul_tn_acc_into(
            self.weight.grad.as_mut_slice(),
            x.as_slice(),
            dy.as_slice(),
            in_f,
            tokens,
            out_f,
        );
        if let Some(b) = &mut self.bias {
            let db = b.grad.as_mut_slice();
            for r in 0..dy.rows() {
                for (g, v) in db.iter_mut().zip(dy.row(r)) {
                    *g += v;
                }
            }
        }
        // dx = dy · Wᵀ without materialising Wᵀ.
        dy.matmul_nt(&self.weight.value)
    }
}

impl Layer for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_manual_affine() {
        let w = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let b = Tensor::vector(&[0.5, -0.5]);
        let mut layer = Linear::from_weights(w, Some(b));
        let x = Tensor::from_rows(&[&[3.0, 4.0]]);
        let y = layer.forward(&x);
        assert_eq!(y.as_slice(), &[3.5, 7.5]);
    }

    #[test]
    fn backward_gradient_check() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Linear::new(3, 2, true, &mut rng);
        let x = Tensor::from_rows(&[&[0.5, -1.0, 2.0], &[1.0, 0.0, -0.5]]);
        // Loss: sum of outputs, so upstream gradient is all-ones.
        let _ = layer.forward(&x);
        let dy = Tensor::ones([2, 2]);
        let dx = layer.backward(&dy);

        let eps = 1e-3;
        // Check dx numerically.
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let lp = layer.forward_inference(&xp).sum();
            let lm = layer.forward_inference(&xm).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((dx.as_slice()[i] - numeric).abs() < 1e-2);
        }
        // Check dW numerically.
        for i in 0..layer.weight.value.len() {
            let orig = layer.weight.value.as_slice()[i];
            layer.weight.value.as_mut_slice()[i] = orig + eps;
            let lp = layer.forward_inference(&x).sum();
            layer.weight.value.as_mut_slice()[i] = orig - eps;
            let lm = layer.forward_inference(&x).sum();
            layer.weight.value.as_mut_slice()[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((layer.weight.grad.as_slice()[i] - numeric).abs() < 1e-2);
        }
    }

    #[test]
    fn arena_forward_matches_inference_and_reuses_buffers() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = Linear::new(6, 3, true, &mut rng);
        let x = crate::init::normal([4, 6], 0.0, 1.0, &mut rng);
        let want = layer.forward_inference(&x);
        let arena = ScratchArena::new();
        let warm = layer.forward_inference_arena(&x, &arena);
        assert_eq!(warm, want);
        arena.recycle(warm);
        let base = arena.stats();
        for _ in 0..5 {
            let y = layer.forward_inference_arena(&x, &arena);
            assert_eq!(y, want);
            arena.recycle(y);
        }
        let stats = arena.stats();
        assert_eq!(stats.takes - base.takes, stats.reuses - base.reuses, "steady state reuses");
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Linear::new(2, 2, false, &mut rng);
        let x = Tensor::ones([1, 2]);
        let dy = Tensor::ones([1, 2]);
        let _ = layer.forward(&x);
        let _ = layer.backward(&dy);
        let g1 = layer.weight.grad.clone();
        let _ = layer.forward(&x);
        let _ = layer.backward(&dy);
        assert_eq!(layer.weight.grad, g1.scale(2.0));
        layer.zero_grad();
        assert_eq!(layer.weight.grad.sum(), 0.0);
    }

    #[test]
    fn param_count_includes_bias() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Linear::new(4, 3, true, &mut rng);
        assert_eq!(layer.param_count(), 4 * 3 + 3);
    }
}
