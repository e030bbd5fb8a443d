//! Layer normalisation as a gradient-carrying layer.

use super::{Layer, Param};
use crate::ops::{
    layer_norm_backward, layer_norm_forward, layer_norm_inference_into, LayerNormCache,
};
use crate::{ScratchArena, Tensor};

/// Row-wise layer normalisation with learnable scale and shift.
///
/// Wraps [`layer_norm_forward`]/[`layer_norm_backward`] with parameter
/// storage; `gamma` initialises to ones and `beta` to zeros.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Learnable scale `γ`, length `dim`.
    pub gamma: Param,
    /// Learnable shift `β`, length `dim`.
    pub beta: Param,
    eps: f32,
    cache: Option<LayerNormCache>,
}

impl LayerNorm {
    /// Creates a layer normalising rows of width `dim`.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Param::new(Tensor::ones([dim])),
            beta: Param::new(Tensor::zeros([dim])),
            eps: 1e-5,
            cache: None,
        }
    }

    /// Normalised width.
    pub fn dim(&self) -> usize {
        self.gamma.value.len()
    }

    /// Forward pass over `[n, dim]`, caching statistics for backward.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let (y, cache) = layer_norm_forward(x, &self.gamma.value, &self.beta.value, self.eps);
        self.cache = Some(cache);
        y
    }

    /// Inference-only forward pass that skips caching.
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        let mut y = Tensor::zeros(x.shape().clone());
        layer_norm_inference_into(x, &self.gamma.value, &self.beta.value, self.eps, &mut y);
        y
    }

    /// Inference forward into an arena-recycled output — the
    /// allocation-free serving path (no statistics cache is built).
    pub fn forward_inference_arena(&self, x: &Tensor, arena: &ScratchArena) -> Tensor {
        let mut y = arena.take(x.dims());
        layer_norm_inference_into(x, &self.gamma.value, &self.beta.value, self.eps, &mut y);
        y
    }

    /// Backward pass; accumulates `dγ`, `dβ` and returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before [`LayerNorm::forward`].
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("LayerNorm::backward before forward");
        let (dx, dgamma, dbeta) = layer_norm_backward(cache, &self.gamma.value, dy);
        self.gamma.accumulate(&dgamma);
        self.beta.accumulate(&dbeta);
        dx
    }
}

impl Layer for LayerNorm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_then_backward_shapes() {
        let mut ln = LayerNorm::new(4);
        let x = Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[0.0, 0.5, -0.5, 2.0]]);
        let y = ln.forward(&x);
        assert_eq!(y.dims(), &[2, 4]);
        let dx = ln.backward(&Tensor::ones([2, 4]));
        assert_eq!(dx.dims(), &[2, 4]);
        assert_eq!(ln.param_count(), 8);
    }

    #[test]
    fn identity_params_give_unit_variance() {
        let mut ln = LayerNorm::new(8);
        let x = Tensor::from_rows(&[&[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]]);
        let y = ln.forward(&x);
        let mean = y.row(0).iter().sum::<f32>() / 8.0;
        assert!(mean.abs() < 1e-4);
    }
}
