//! Trainable scaled-down Switch transformers with pre-gating.
//!
//! This module implements a *real* (numerically trained) Switch transformer
//! over `pgmoe-tensor`, used by the accuracy experiments (Table II, Fig 13):
//! token + position embeddings, causal self-attention, and top-1-routed
//! expert FFNs whose gate placement follows [`crate::GateTopology`] — i.e.
//! the same pre-gating algorithm the paper fine-tunes into SwitchTransformer,
//! at a scale a CPU can train in seconds.
//!
//! The paper's recipe (Section IV-B) is preserved structurally: start from a
//! "pretrained" conventional checkpoint, re-wire the gate topology
//! (first blocks gain a dual gate, last blocks lose theirs — Fig 6), then
//! fine-tune every variant with identical steps and learning rate.

mod expert;
mod moe;
mod router;
mod switch;

pub use expert::{ExpertFfn, QuantizedExpertFfn};
pub use moe::{ExpertChoice, MoeFfn, RouteDecision};
pub use router::Router;
pub use switch::{SwitchNet, SwitchNetConfig};
