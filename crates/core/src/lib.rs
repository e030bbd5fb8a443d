//! # pregated-moe
//!
//! A from-scratch Rust reproduction of **"Pre-gated MoE: An Algorithm-System
//! Co-Design for Fast and Scalable Mixture-of-Expert Inference"**
//! (Hwang et al., ISCA 2024, arXiv:2308.12066).
//!
//! Large MoE models don't fit in one GPU: SwitchTransformer-Large-128 needs
//! 105.6 GB against an A100's 80 GB. Offloading experts to CPU memory fixes
//! capacity but exposes the CPU→GPU migration latency, because a
//! conventional MoE block must run its gate (expert *selection*) before its
//! experts (expert *execution*). The paper's co-design breaks that
//! dependency: a **pre-gate** at block *N* selects the experts for block
//! *N+1*, so the runtime prefetches only the activated experts while block
//! *N* computes — reaching ~81 % of an (infeasible) GPU-resident oracle's
//! throughput at ~23 % of its memory.
//!
//! This crate is the facade over the reproduction's subsystems:
//!
//! | Re-export | Crate | Role |
//! |---|---|---|
//! | [`model`] | `pgmoe-model` | Table I model zoo, Fig 6 gate topology, trainable scaled-down Switch nets |
//! | [`runtime`] | `pgmoe-runtime` | The four policies, expert cache, inference simulator (Figs 10–12, 14–16) |
//! | [`device`] | `pgmoe-device` | Discrete-event GPU/CPU/SSD machine with CUDA-like streams |
//! | [`train`] | `pgmoe-train` | Pretrain→rewire→fine-tune recipe (Table II, Fig 13) |
//! | [`workload`] | `pgmoe-workload` | Synthetic tasks, routing traces, request streams |
//! | [`tensor`] | `pgmoe-tensor` | Dense f32 tensors with manual backprop |
//! | [`serve`] | `pgmoe-serve` | Streaming HTTP/1.1 front door with SLO-aware admission |
//!
//! # Quickstart
//!
//! Serve Switch-Large-128 — which OOMs under GPU-only — on one simulated
//! A100 with the Pre-gated policy:
//!
//! ```
//! use pregated_moe::prelude::*;
//!
//! let model = ModelConfig::switch_large_128();
//! let sim = InferenceSim::new(model, SimOptions::new(OffloadPolicy::Pregated));
//! let report = sim.run(DecodeRequest { input_tokens: 32, output_tokens: 8, batch_size: 1 }, 1)?;
//! println!("{:.0} tokens/s at {:.1} GB peak HBM",
//!          report.tokens_per_sec, report.peak_hbm_bytes as f64 / 1e9);
//! # Ok::<(), pregated_moe::runtime::RuntimeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pgmoe_device as device;
pub use pgmoe_model as model;
pub use pgmoe_runtime as runtime;
pub use pgmoe_serve as serve;
pub use pgmoe_tensor as tensor;
pub use pgmoe_train as train;
pub use pgmoe_workload as workload;

/// The most common imports for using the reproduction.
pub mod prelude {
    pub use pgmoe_device::{Machine, MachineConfig, SimDuration, SimTime, Tier};
    pub use pgmoe_model::{ExpertPrecision, GateTopology, GatingMode, ModelConfig, Precision};
    pub use pgmoe_runtime::{
        serve_batched, serve_cluster, Admission, BatchConfig, BatchScheduler, BatchSession,
        CacheAffinity, CacheCapacity, CacheConfig, ClusterConfig, ControlAction, ControlOptions,
        ControlStats, ControlWindow, ControlledFleet, DispatchPolicy, DriftSwitcher,
        ExpertScheduler, FetchSet, FleetConfig, FleetController, FleetSim, FleetStats,
        InferenceSim, JoinShortestQueue, KvBlockPool, KvServeStats, LiveRouting, NoControl,
        OffloadPolicy, PagedKvConfig, PlanTrace, PolicyCtx, PolicySpec, Prefetch, QueueAutoScaler,
        Replacement, ReplicaObs, ReplicaView, RequestProfile, Residency, RoundRobin, RunReport,
        SchedulerFactory, ServeStats, SimOptions, TokenEvent,
    };
    pub use pgmoe_serve::{EngineConfig, ServeConfig, Server, ServerHandle, SloConfig};
    pub use pgmoe_train::{Trainer, TrainerConfig};
    pub use pgmoe_workload::{
        mixed_context_trace, ArrivalProcess, ArrivalStream, ArrivedRequest, DecodeRequest,
        FaultEvent, FaultKind, FaultPlan, RequestStream, RoutingKind, RoutingTrace, SharedPrefix,
        TaskKind, TaskSpec,
    };
}
