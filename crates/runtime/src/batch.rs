//! Continuous-batching serving scheduler.
//!
//! [`crate::serve_stream`] reproduces the paper's operating point — batch-1,
//! closed-loop serving. Production serving is open-loop: requests arrive on
//! their own schedule and a scheduler decides how to share the GPU. This
//! module implements **iteration-level continuous batching** (the
//! Orca/vLLM discipline) on top of the same device simulator, placement
//! plan, expert cache — and, since the policy redesign, the exact same
//! policy-driven decode core — as [`crate::InferenceSim`]:
//!
//! * Requests arrive from a [`pgmoe_workload::ArrivalStream`] (Poisson or
//!   bursty) and wait in an admission queue.
//! * At every decode-iteration boundary the scheduler admits waiting
//!   requests while the batch is below `max_batch` **and** the admission
//!   would keep peak HBM — static weights + per-request KV/activations +
//!   the policy's worst-case migration transients (asked of the
//!   [`ExpertScheduler`] itself) — inside the budget.
//! * One iteration decodes one token for *every* in-flight request. Weight
//!   traffic (attention projections, dense FFNs) is read once per iteration
//!   regardless of batch size, which is exactly why continuous batching
//!   lifts tokens/sec; expert fetches migrate the *union* of the batch's
//!   activated experts, overlapped per the configured scheduler.
//! * Completed requests leave immediately; their slot is reusable at the
//!   next boundary ("continuous" — no waiting for the whole batch).
//!
//! Per-request QoS (queueing delay, TTFT, end-to-end latency) lands in the
//! same [`ServeStats`] the batch-1 path produces, so the two disciplines are
//! directly comparable (`examples/serve_batched.rs`).
//!
//! [`BatchScheduler::serve`] is a loop over `BatchSession::pump`, the one
//! admit-and-step turn in this crate; a fleet replica
//! ([`crate::ControlledFleet`], and through it [`crate::FleetSim`] and
//! [`crate::serve_cluster`]) takes the same turn at its own clock.
//!
//! [`ExpertScheduler`]: crate::scheduler::ExpertScheduler

use crate::serve::ServeStats;
use crate::session::BatchSession;
use crate::{Result, RuntimeError, SimOptions};
use pgmoe_model::ModelConfig;
use pgmoe_workload::ArrivedRequest;
use std::collections::VecDeque;

/// Scheduler knobs for continuous batching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum number of requests decoded together per iteration.
    pub max_batch: usize,
    /// HBM budget for admission control, bytes. `None` uses the machine's
    /// full HBM capacity. Values above the capacity are clamped to it.
    pub hbm_budget_bytes: Option<u64>,
    /// Block-paged KV cache with chunked prefill and shared-prefix reuse.
    /// `None` keeps the classic unpaged path (worst-case contiguous KV
    /// reserved per request at admission).
    pub paged_kv: Option<crate::kv::PagedKvConfig>,
}

impl BatchConfig {
    /// A config admitting up to `max_batch` concurrent requests under the
    /// machine's full HBM capacity.
    pub fn new(max_batch: usize) -> Self {
        BatchConfig { max_batch, hbm_budget_bytes: None, paged_kv: None }
    }

    /// Builder: cap the HBM bytes admission control may plan against.
    pub fn with_hbm_budget(mut self, bytes: u64) -> Self {
        self.hbm_budget_bytes = Some(bytes);
        self
    }

    /// Builder: switch the session to the block-paged KV path (see
    /// [`crate::PagedKvConfig`]).
    pub fn with_paged_kv(mut self, paged: crate::kv::PagedKvConfig) -> Self {
        self.paged_kv = Some(paged);
        self
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig::new(8)
    }
}

/// Iteration-level continuous-batching scheduler (see the module docs
/// above).
///
/// # Example
///
/// ```
/// use pgmoe_model::ModelConfig;
/// use pgmoe_runtime::{BatchConfig, BatchScheduler, OffloadPolicy, SimOptions};
/// use pgmoe_workload::{ArrivalProcess, ArrivalStream, DecodeRequest};
///
/// let arrivals = ArrivalStream::new(
///     ArrivalProcess::Poisson { rate_per_sec: 20.0 },
///     DecodeRequest { input_tokens: 16, output_tokens: 4, batch_size: 1 },
///     1,
///     7,
/// );
/// let scheduler = BatchScheduler::new(
///     ModelConfig::switch_base(8),
///     SimOptions::new(OffloadPolicy::Pregated),
///     BatchConfig::new(4),
/// );
/// let stats = scheduler.serve(arrivals.take(6))?;
/// assert_eq!(stats.request_latencies.len(), 6);
/// assert!(stats.mean_ttft() <= stats.mean_latency());
/// # Ok::<(), pgmoe_runtime::RuntimeError>(())
/// ```
pub struct BatchScheduler {
    cfg: ModelConfig,
    opts: SimOptions,
    batch: BatchConfig,
}

impl BatchScheduler {
    /// Creates a scheduler serving `cfg` under `opts` with the given
    /// batching knobs.
    pub fn new(cfg: ModelConfig, opts: SimOptions, batch: BatchConfig) -> Self {
        BatchScheduler { cfg, opts, batch }
    }

    /// Serves an open-loop arrival trace to completion.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::OutOfMemory`] if the static footprint (or a single
    ///   admitted request) cannot fit the HBM budget.
    /// * [`RuntimeError::InvalidConfig`] for a zero `max_batch`, a request
    ///   with zero output tokens or batch size ≠ 1, unsorted arrivals, or
    ///   options the policy surface rejects.
    pub fn serve(&self, arrivals: impl IntoIterator<Item = ArrivedRequest>) -> Result<ServeStats> {
        let arrivals: Vec<ArrivedRequest> = arrivals.into_iter().collect();
        if self.batch.max_batch == 0 {
            return Err(RuntimeError::InvalidConfig {
                message: "max_batch must be at least 1".into(),
            });
        }
        self.opts.validate(&self.cfg)?;
        validate_arrivals(&arrivals)?;
        if arrivals.is_empty() {
            return Ok(ServeStats::empty(&self.cfg, &self.opts));
        }

        let mut session = BatchSession::new(self.cfg.clone(), self.opts.clone(), self.batch)?;
        let mut pending: VecDeque<(usize, ArrivedRequest)> =
            arrivals.into_iter().enumerate().collect();
        while !pending.is_empty() || session.in_flight() > 0 {
            session.pump(&mut pending, |_, _| {})?;
        }
        Ok(session.finish())
    }

    /// Test/diagnostic variant of [`crate::session`]'s decode-transient
    /// bound, building its own scheduler instance.
    #[cfg(test)]
    fn worst_case_transient_bytes(&self, plan: &crate::PlacementPlan, batch: usize) -> u64 {
        let sched = self.opts.policy.build(&self.opts.setup_for(&self.cfg));
        crate::session::decode_transient_bytes(&self.cfg, sched.as_ref(), plan, batch)
    }

    /// Test/diagnostic variant of [`crate::session`]'s prefill-transient
    /// bound, building its own scheduler instance.
    #[cfg(test)]
    fn prefill_transient_bytes(&self, plan: &crate::PlacementPlan, total_inputs: usize) -> u64 {
        let sched = self.opts.policy.build(&self.opts.setup_for(&self.cfg));
        crate::session::prefill_transient_bytes_of(&self.cfg, sched.as_ref(), plan, total_inputs)
    }
}

/// What every open-loop driver requires of its trace: single-sequence
/// requests with at least one output token, sorted by arrival time.
pub(crate) fn validate_arrivals(arrivals: &[ArrivedRequest]) -> Result<()> {
    for (i, a) in arrivals.iter().enumerate() {
        if a.request.output_tokens == 0 || a.request.batch_size != 1 {
            return Err(RuntimeError::InvalidConfig {
                message: format!(
                    "request {i}: continuous batching serves single-sequence requests \
                     with at least one output token"
                ),
            });
        }
        if i > 0 && arrivals[i - 1].arrival_ns > a.arrival_ns {
            return Err(RuntimeError::InvalidConfig {
                message: format!("arrivals must be sorted by time (violated at index {i})"),
            });
        }
    }
    Ok(())
}

/// Convenience wrapper: build a [`BatchScheduler`] and serve `arrivals`.
///
/// # Errors
///
/// See [`BatchScheduler::serve`].
pub fn serve_batched(
    cfg: ModelConfig,
    opts: SimOptions,
    batch: BatchConfig,
    arrivals: impl IntoIterator<Item = ArrivedRequest>,
) -> Result<ServeStats> {
    BatchScheduler::new(cfg, opts, batch).serve(arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::PolicySpec;
    use crate::{OffloadPolicy, PlacementPlan, SimOptions};
    use pgmoe_workload::{ArrivalProcess, ArrivalStream, DecodeRequest};

    fn req(output_tokens: usize) -> DecodeRequest {
        DecodeRequest { input_tokens: 16, output_tokens, batch_size: 1 }
    }

    fn poisson(n: usize, rate: f64, seed: u64) -> Vec<ArrivedRequest> {
        ArrivalStream::new(ArrivalProcess::Poisson { rate_per_sec: rate }, req(4), 1, seed)
            .take(n)
            .collect()
    }

    #[test]
    fn serves_every_request_exactly_once() {
        let stats = serve_batched(
            ModelConfig::switch_base(8),
            SimOptions::new(OffloadPolicy::Pregated),
            BatchConfig::new(4),
            poisson(12, 50.0, 3),
        )
        .unwrap();
        assert_eq!(stats.request_latencies.len(), 12);
        assert_eq!(stats.queueing_delays.len(), 12);
        assert_eq!(stats.ttfts.len(), 12);
        assert!(stats.total_tokens >= 12 * 3);
        assert!(stats.tokens_per_sec > 0.0);
        assert_eq!(stats.policy, "Pre-gated MoE");
        for i in 0..12 {
            assert!(stats.ttfts[i] >= stats.queueing_delays[i], "ttft covers queueing at {i}");
            assert!(stats.request_latencies[i] >= stats.ttfts[i], "latency covers ttft at {i}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            serve_batched(
                ModelConfig::switch_base(8),
                SimOptions::new(OffloadPolicy::Pregated),
                BatchConfig::new(4),
                poisson(10, 100.0, 11),
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.request_latencies, b.request_latencies);
        assert_eq!(a.ttfts, b.ttfts);
        assert_eq!(a.total_tokens, b.total_tokens);
    }

    #[test]
    fn sparse_arrivals_have_zero_queueing_delay() {
        // Arrivals 10 s apart: the system is always idle when the next
        // request lands, so admission is immediate.
        let arrivals: Vec<ArrivedRequest> =
            (0..4).map(|i| ArrivedRequest::at_nanos(i * 10_000_000_000, req(3))).collect();
        let stats = serve_batched(
            ModelConfig::switch_base(8),
            SimOptions::new(OffloadPolicy::Pregated),
            BatchConfig::new(4),
            arrivals,
        )
        .unwrap();
        for (i, q) in stats.queueing_delays.iter().enumerate() {
            assert_eq!(q.as_nanos(), 0, "request {i} should not queue");
        }
    }

    #[test]
    fn continuous_batching_beats_batch_one_under_load() {
        // The tentpole claim: under a saturating Poisson stream, batching
        // lifts tokens/sec AND improves tail latency (queueing dominates
        // the batch-1 p95).
        let cfg = ModelConfig::switch_base(8);
        let arrivals = poisson(24, 12.0, 5);
        let opts = SimOptions::new(OffloadPolicy::Pregated);
        let b1 = serve_batched(cfg.clone(), opts.clone(), BatchConfig::new(1), arrivals.clone())
            .unwrap();
        let b8 = serve_batched(cfg, opts, BatchConfig::new(8), arrivals).unwrap();
        assert!(
            b8.tokens_per_sec > b1.tokens_per_sec,
            "batched {:.1} tok/s must beat batch-1 {:.1} tok/s",
            b8.tokens_per_sec,
            b1.tokens_per_sec
        );
        assert!(
            b8.p95() <= b1.p95(),
            "batched p95 {} must not exceed batch-1 p95 {}",
            b8.p95(),
            b1.p95()
        );
    }

    #[test]
    fn hbm_budget_throttles_admission_but_completes() {
        let cfg = ModelConfig::switch_base(8);
        // Budget just above the static footprint: at most a request or two
        // fit concurrently, but everything must still finish.
        let base = PlacementPlan::new(&cfg, &SimOptions::new(OffloadPolicy::Pregated), 0, 1);
        let one_request =
            PlacementPlan::new(&cfg, &SimOptions::new(OffloadPolicy::Pregated), 20, 1)
                .activation_bytes();
        // Room for two requests' activations plus the prefill/decode
        // transient of a small admitted set (the admission check's own
        // worst-case bound keeps actual usage below this).
        let budget =
            base.static_non_activation_bytes() + 2 * one_request + 2 * 8 * base.expert_bytes();
        let tight = serve_batched(
            cfg.clone(),
            SimOptions::new(OffloadPolicy::Pregated),
            BatchConfig::new(8).with_hbm_budget(budget),
            poisson(10, 200.0, 9),
        )
        .unwrap();
        assert_eq!(tight.request_latencies.len(), 10);
        let roomy = serve_batched(
            cfg,
            SimOptions::new(OffloadPolicy::Pregated),
            BatchConfig::new(8),
            poisson(10, 200.0, 9),
        )
        .unwrap();
        assert!(tight.peak_hbm_bytes <= budget, "admission must respect the budget");
        assert!(roomy.peak_hbm_bytes >= tight.peak_hbm_bytes);
    }

    #[test]
    fn budget_holds_at_gating_level_two() {
        // Regression: a level-2 pre-gate keeps three union-sets of expert
        // buffers in flight, which an earlier 2x reservation under-counted
        // and let peak HBM exceed the configured budget.
        use pgmoe_model::GatingMode;
        let cfg = ModelConfig::switch_base(8);
        let opts =
            SimOptions::new(OffloadPolicy::Pregated).with_gating(GatingMode::Pregated { level: 2 });
        let scheduler = BatchScheduler::new(cfg.clone(), opts.clone(), BatchConfig::new(8));
        let base = PlacementPlan::new(&cfg, &opts, 0, 1);
        let act = PlacementPlan::new(&cfg, &opts, 20, 1).activation_bytes();
        let budget = base.static_non_activation_bytes()
            + 2 * act
            + scheduler
                .worst_case_transient_bytes(&base, 2)
                .max(scheduler.prefill_transient_bytes(&base, 2 * 16));
        let stats = serve_batched(
            cfg,
            opts,
            BatchConfig::new(8).with_hbm_budget(budget),
            poisson(10, 200.0, 9),
        )
        .unwrap();
        assert_eq!(stats.request_latencies.len(), 10);
        assert!(
            stats.peak_hbm_bytes <= budget,
            "peak {} exceeded budget {budget} at gating level 2",
            stats.peak_hbm_bytes
        );
    }

    #[test]
    fn new_schedulers_serve_batched_streams() {
        let cfg = ModelConfig::switch_base(16);
        for spec in [PolicySpec::speculative_top_m(4), PolicySpec::cache_pinned(4)] {
            let name = spec.name();
            let stats = serve_batched(
                cfg.clone(),
                SimOptions::new(spec),
                BatchConfig::new(4),
                poisson(8, 50.0, 3),
            )
            .unwrap();
            assert_eq!(stats.request_latencies.len(), 8, "{name}");
            assert_eq!(stats.policy, name);
            assert!(stats.tokens_per_sec > 0.0, "{name}");
        }
    }

    #[test]
    fn gpu_only_oom_propagates() {
        let err = serve_batched(
            ModelConfig::switch_large_128(),
            SimOptions::new(OffloadPolicy::GpuOnly),
            BatchConfig::new(2),
            poisson(2, 10.0, 1),
        );
        assert!(matches!(err, Err(RuntimeError::OutOfMemory(_))));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let cfg = ModelConfig::switch_base(8);
        let opts = SimOptions::new(OffloadPolicy::Pregated);
        let zero_batch =
            serve_batched(cfg.clone(), opts.clone(), BatchConfig::new(0), poisson(2, 10.0, 1));
        assert!(matches!(zero_batch, Err(RuntimeError::InvalidConfig { .. })));
        let unsorted =
            vec![ArrivedRequest::at_nanos(1_000, req(2)), ArrivedRequest::at_nanos(0, req(2))];
        let bad = serve_batched(cfg.clone(), opts, BatchConfig::new(2), unsorted);
        assert!(matches!(bad, Err(RuntimeError::InvalidConfig { .. })));
        // The shared SimOptions validation applies to batched serving too.
        let zero_k = SimOptions::new(OffloadPolicy::Pregated).with_active_experts(0);
        assert!(matches!(
            serve_batched(cfg, zero_k, BatchConfig::new(2), poisson(2, 10.0, 1)),
            Err(RuntimeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn int8_experts_cut_traffic_and_lift_throughput_when_batched() {
        use pgmoe_model::ExpertPrecision;
        let cfg = ModelConfig::switch_base(64);
        let arrivals = poisson(12, 20.0, 7);
        let f32_stats = serve_batched(
            cfg.clone(),
            SimOptions::new(OffloadPolicy::Pregated),
            BatchConfig::new(4),
            arrivals.clone(),
        )
        .unwrap();
        let int8_stats = serve_batched(
            cfg,
            SimOptions::new(OffloadPolicy::Pregated).with_expert_precision(ExpertPrecision::Int8),
            BatchConfig::new(4),
            arrivals,
        )
        .unwrap();
        assert!(f32_stats.expert_fetch_bytes > 0);
        assert!(
            int8_stats.expert_fetch_bytes * 3 < f32_stats.expert_fetch_bytes,
            "int8 {} vs f32 {} fetched bytes",
            int8_stats.expert_fetch_bytes,
            f32_stats.expert_fetch_bytes
        );
        assert!(
            int8_stats.tokens_per_sec >= f32_stats.tokens_per_sec,
            "int8 {:.1} tok/s must not lose to f32 {:.1}",
            int8_stats.tokens_per_sec,
            f32_stats.tokens_per_sec
        );
        assert!(int8_stats.p95() <= f32_stats.p95());
    }

    #[test]
    fn pregated_beats_ondemand_when_batched() {
        // The paper's overlap advantage must survive batching: same arrival
        // trace, same batch limit, Pre-gated vs OnDemand.
        let cfg = ModelConfig::switch_base(64);
        let arrivals = poisson(12, 20.0, 7);
        let pg = serve_batched(
            cfg.clone(),
            SimOptions::new(OffloadPolicy::Pregated),
            BatchConfig::new(4),
            arrivals.clone(),
        )
        .unwrap();
        let od = serve_batched(
            cfg,
            SimOptions::new(OffloadPolicy::OnDemand),
            BatchConfig::new(4),
            arrivals,
        )
        .unwrap();
        assert!(
            pg.tokens_per_sec > od.tokens_per_sec,
            "Pre-gated {:.1} must beat OnDemand {:.1} under batching",
            pg.tokens_per_sec,
            od.tokens_per_sec
        );
        assert!(pg.p95() < od.p95());
    }
}
