//! # pgmoe-workload
//!
//! Synthetic workloads for the Pre-gated MoE reproduction (ISCA 2024).
//!
//! The paper evaluates on three NLP datasets (Xsum summarization, CB Web QA
//! and SQuAD closed-book question answering) plus routing traces implied by
//! real SwitchTransformer inference. None of those datasets ship with this
//! repository, and per the substitution policy in DESIGN.md we replace them
//! with *seeded synthetic equivalents that exercise the same mechanisms*:
//!
//! * [`task`] — sequence-to-sequence tasks with **latent domain structure**,
//!   so that expert routing is learnable and the pre-gate function has a real
//!   signal to predict (Table II, Fig 13).
//! * [`routing`] — expert-selection traces with uniform, Zipf-skewed (hot
//!   experts, Fig 15's caching study) or domain-conditioned statistics.
//! * [`requests`] — decode request streams (batch-1 is the paper's serving
//!   point, Section VI-A) and open-loop arrival processes (Poisson, bursty,
//!   diurnal, flash-crowd) for the continuous-batching and fleet-control
//!   serving experiments.
//! * [`faults`] — deterministic, seed-driven fault schedules (replica
//!   kills, stalls, link degradations) for the chaos experiments.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod faults;
pub mod requests;
pub mod routing;
pub mod task;

pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use requests::{
    mixed_context_trace, stamp_domain_rotation, stamp_route_seeds, ArrivalProcess, ArrivalStream,
    ArrivedRequest, DecodeRequest, LiveClock, RequestStream, SharedPrefix,
};
pub use routing::{domain_of, RoutingKind, RoutingTrace};
pub use task::{Example, TaskKind, TaskSpec};
