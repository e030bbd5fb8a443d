//! The inference simulator: schedules one serving run under a policy.
//!
//! [`InferenceSim`] is deliberately not `BatchSession::pump` at
//! `max_batch = 1`. Figs 10–12 and the goldens pin three things only it
//! does:
//!
//! * its encoder pass stages fetches through a scheduler-sized region
//!   instead of per-expert buffers;
//! * it reserves the whole run's placement once, at full context and
//!   `batch_size`, instead of per admitted request;
//! * it replays one routing trace across its back-to-back requests and
//!   records every decode block's latency.

use crate::core::{self, CoreEnv, CoreScratch, DecodeCosts, PrefillCosts};
use crate::plan::{self, PlanSession, PlanTrace};
use crate::scheduler::{ExpertScheduler, RoutedSource};
use crate::{CacheStats, ExpertCache, PlacementPlan, Result, RuntimeError, SimOptions};
use pgmoe_device::{Machine, SimDuration, SimTime, Tier};
use pgmoe_model::{ExpertPrecision, GateTopology, ModelConfig};
use pgmoe_workload::{DecodeRequest, RoutingTrace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Measurements from one simulated serving run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Model name.
    pub model: String,
    /// Display name of the scheduler that produced the run (the paper
    /// policies use their figure names, e.g. `"Pre-gated MoE"`).
    pub policy: String,
    /// Latency of every decoder MoE block execution, in submission order
    /// (the population behind Fig 10's averages).
    pub block_latencies: Vec<SimDuration>,
    /// End-to-end generation throughput in output tokens per second
    /// (Fig 11).
    pub tokens_per_sec: f64,
    /// Wall-clock (simulated) time for the whole run.
    pub total_time: SimDuration,
    /// Time from run start until the first request's first output token
    /// completed (encoder pass + one decode iteration) — the per-request
    /// TTFT building block the serving layer aggregates.
    pub time_to_first_token: SimDuration,
    /// Measured peak HBM usage (Fig 12).
    pub peak_hbm_bytes: u64,
    /// Equation-1 analytic prediction, for cross-validation.
    pub predicted_peak_bytes: u64,
    /// Cache statistics if a cache was configured (Fig 15).
    pub cache_stats: Option<CacheStats>,
    /// GPU busy time (compute-utilisation numerator).
    pub gpu_busy: SimDuration,
    /// PCIe DMA busy time.
    pub pcie_busy: SimDuration,
    /// Total expert bytes migrated onto the GPU from the offload tier
    /// (0 under GPU-only; shrinks with the expert precision).
    pub expert_fetch_bytes: u64,
    /// Expert bytes copied on a block's critical path — serialized
    /// residency fetches and prefetch-miss fills. This is the on-demand
    /// stall metric: prefetching schedulers shrink it at the cost of more
    /// total [`RunReport::expert_fetch_bytes`].
    pub demand_fetch_bytes: u64,
    /// ASCII execution timeline of the final decode iteration, when
    /// requested (Fig 9).
    pub timeline: Option<String>,
    /// Decode iterations replayed from a compiled plan (see [`crate::plan`]).
    pub plan_cache_hits: u64,
    /// Decode iterations lowered and compiled because no cached plan
    /// matched (uncacheable configurations run interpreted and count
    /// neither way).
    pub plan_cache_misses: u64,
}

impl RunReport {
    /// Mean decoder-MoE-block latency.
    pub fn mean_block_latency(&self) -> SimDuration {
        if self.block_latencies.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u64 = self.block_latencies.iter().map(|d| d.as_nanos()).sum();
        SimDuration::from_nanos(total / self.block_latencies.len() as u64)
    }
}

/// Adapter: one decode iteration's routing as a slice of the trace.
pub(crate) struct TraceRouted<'a> {
    pub(crate) trace: &'a RoutingTrace,
    pub(crate) token: usize,
}

impl RoutedSource for TraceRouted<'_> {
    fn experts(&self, block: usize) -> &[usize] {
        self.trace.experts(self.token, block)
    }
}

/// Simulates serving a model under a policy on the paper's machine.
///
/// All policy decisions — built-in or user-defined — flow through the
/// [`ExpertScheduler`] hooks into the shared decode core; this type owns
/// only the run lifecycle (placement, routing trace, report assembly).
///
/// See the [crate docs](crate) for an end-to-end example.
///
/// [`ExpertScheduler`]: crate::scheduler::ExpertScheduler
#[derive(Debug, Clone)]
pub struct InferenceSim {
    cfg: ModelConfig,
    opts: SimOptions,
}

impl InferenceSim {
    /// Creates a simulator for `cfg` under `opts`.
    pub fn new(cfg: ModelConfig, opts: SimOptions) -> Self {
        InferenceSim { cfg, opts }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Runs `num_requests` back-to-back requests and reports measurements.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::OutOfMemory`] if the model does not fit the policy's
    ///   HBM footprint (GPU-only on Switch-Large-128).
    /// * [`RuntimeError::InvalidConfig`] for inconsistent options.
    pub fn run(&self, request: DecodeRequest, num_requests: usize) -> Result<RunReport> {
        let mut ps = PlanSession::new(self.opts.plan_cache, self.dequant());
        self.run_with(request, num_requests, &mut ps)
    }

    /// Compiles one decode iteration under this simulator's policy and
    /// returns its rendered plan, without caching or replaying it. Works for
    /// every scheduler — including uncacheable ones like
    /// `speculative_top_m` — because capture only records the interpreted
    /// iteration. The captured iteration is the run's *last* decode
    /// iteration (steady state: caches warm, frequency histograms settled).
    ///
    /// # Errors
    ///
    /// Same conditions as [`InferenceSim::run`].
    pub fn trace_plan(&self, request: DecodeRequest, num_requests: usize) -> Result<PlanTrace> {
        let mut ps = PlanSession::capturing(self.dequant());
        let report = self.run_with(request, num_requests, &mut ps)?;
        let plan = ps.take_captured().ok_or_else(|| RuntimeError::InvalidConfig {
            message: "plan capture recorded no decode iteration".into(),
        })?;
        Ok(PlanTrace::new(report.policy, plan))
    }

    /// Whether this run executes quantized experts through the fused
    /// dequant-GEMM path (annotates compiled plans).
    fn dequant(&self) -> bool {
        self.opts.expert_precision.unwrap_or(self.cfg.expert_precision) != ExpertPrecision::F32
    }

    fn run_with(
        &self,
        request: DecodeRequest,
        num_requests: usize,
        ps: &mut PlanSession,
    ) -> Result<RunReport> {
        self.validate(&request)?;
        let cfg = &self.cfg;
        let opts = &self.opts;
        let mut machine = Machine::new(opts.machine.clone());
        machine.set_trace_enabled(opts.trace_timeline);

        let ctx = request.input_tokens + request.output_tokens;
        let plan = PlacementPlan::new(cfg, opts, ctx, request.batch_size);
        machine.pool_mut(Tier::Hbm).alloc(plan.hbm_static_bytes())?;
        if plan.offload_bytes() > 0 {
            machine.pool_mut(opts.offload_tier).alloc(plan.offload_bytes())?;
        }

        let k_active = plan.active_per_block();
        let dec_blocks = cfg.decoder_moe_layers();
        let enc_blocks = cfg.encoder_layers / cfg.moe_every;
        let mut sched = opts.policy.build(&opts.setup_for(cfg));
        let topo = sched.decoder_topology(dec_blocks)?;
        let trace = RoutingTrace::generate(
            request.output_tokens,
            dec_blocks,
            cfg.num_experts,
            k_active,
            opts.routing,
            opts.seed,
        );
        let mut cache = opts.cache.map(|c| ExpertCache::new(plan.cache_experts(), c.replacement));
        let mut demand_bytes = 0u64;

        // One reservation up front; the token loop itself never allocates.
        let mut block_latencies =
            Vec::with_capacity(num_requests * request.output_tokens * dec_blocks);
        let mut scratch = CoreScratch::new(dec_blocks, cfg.num_experts);
        let mut ctx_len = request.input_tokens;
        let mut first_token_time: Option<SimTime> = None;
        for req in 0..num_requests {
            self.encoder_pass(
                &mut machine,
                &plan,
                &mut cache,
                sched.as_mut(),
                &topo,
                request.input_tokens,
                req as u64,
                &mut demand_bytes,
                &mut scratch,
            )?;
            for tok in 0..request.output_tokens {
                // Keep the timeline bounded: retain only the final iteration.
                if opts.trace_timeline {
                    let is_last = req + 1 == num_requests && tok + 1 == request.output_tokens;
                    if is_last {
                        machine.clear_trace();
                    }
                }
                let costs = DecodeCosts {
                    attn_bytes: self.attn_bytes(ctx_len + tok),
                    ffn_bytes: dense_ffn_bytes_for(cfg),
                    decoder_layers: cfg.decoder_layers,
                    moe_every: cfg.moe_every,
                };
                let mut env = CoreEnv {
                    machine: &mut machine,
                    plan: &plan,
                    cache: &mut cache,
                    offload_tier: opts.offload_tier,
                    num_experts: cfg.num_experts,
                    demand_bytes: &mut demand_bytes,
                };
                plan::decode_iteration_planned(
                    &mut env,
                    sched.as_mut(),
                    &topo,
                    &TraceRouted { trace: &trace, token: tok },
                    tok,
                    enc_blocks,
                    &costs,
                    &mut scratch,
                    Some(&mut block_latencies),
                    ps,
                    1,
                )?;
                if first_token_time.is_none() {
                    first_token_time = Some(machine.horizon());
                }
            }
            ctx_len = request.input_tokens; // next request starts fresh
        }

        let total_time = machine.horizon() - SimTime::ZERO;
        let generated = (num_requests * request.output_tokens) as f64;
        let timeline =
            opts.trace_timeline.then(|| pgmoe_device::render_timeline(machine.trace(), 100));
        Ok(RunReport {
            model: cfg.name.clone(),
            policy: sched.name(),
            block_latencies,
            tokens_per_sec: generated / total_time.as_secs_f64(),
            total_time,
            time_to_first_token: first_token_time.unwrap_or(SimTime::ZERO) - SimTime::ZERO,
            peak_hbm_bytes: machine.pool(Tier::Hbm).peak_bytes(),
            predicted_peak_bytes: plan.predicted_peak_bytes(),
            cache_stats: cache.map(|c| c.stats()),
            gpu_busy: machine.gpu_busy(),
            pcie_busy: machine.pcie_busy(),
            expert_fetch_bytes: machine.offload_traffic_bytes(),
            demand_fetch_bytes: demand_bytes,
            timeline,
            plan_cache_hits: ps.stats().hits,
            plan_cache_misses: ps.stats().misses,
        })
    }

    fn validate(&self, request: &DecodeRequest) -> Result<()> {
        if request.output_tokens == 0 || request.batch_size == 0 {
            return Err(RuntimeError::InvalidConfig {
                message: "request must generate at least one token with batch >= 1".into(),
            });
        }
        self.opts.validate(&self.cfg)
    }

    // ------------------------------------------------------------------
    // Kernel-cost helpers (all memory-bound at batch 1; see CostModel docs)
    // ------------------------------------------------------------------

    /// HBM bytes streamed by one decoder layer's attention (self + cross
    /// projections read once, plus the KV cache scan).
    fn attn_bytes(&self, ctx: usize) -> u64 {
        attn_bytes_for(&self.cfg, [ctx])
    }

    /// Simulates the encoder pass over the prompt: policy hooks drive the
    /// fetch structure through the shared prefill core, and fetches stream
    /// through a scheduler-sized staging region (`alloc_buffers = false`)
    /// so measured peaks stay on the decode-side Equation-1 footprint, as
    /// in the paper.
    #[allow(clippy::too_many_arguments)]
    fn encoder_pass(
        &self,
        machine: &mut Machine,
        plan: &PlacementPlan,
        cache: &mut Option<ExpertCache>,
        sched: &mut dyn ExpertScheduler,
        topo: &GateTopology,
        input_tokens: usize,
        request_seed: u64,
        demand_bytes: &mut u64,
        scratch: &mut CoreScratch,
    ) -> Result<()> {
        let cfg = &self.cfg;
        let enc_blocks = cfg.encoder_layers / cfg.moe_every;
        let staging = if plan.staging_experts() > 0 {
            Some(machine.pool_mut(Tier::Hbm).alloc(plan.staging_experts() * plan.expert_bytes())?)
        } else {
            None
        };
        let mut rng = StdRng::seed_from_u64(self.opts.seed ^ request_seed.wrapping_mul(0x9E37));
        // The shared prefill cost model over one prompt; only the kernel
        // labels differ, so timelines keep their names.
        let costs = PrefillCosts {
            labels: ["attn", "ffn", "expert"],
            ..core::batched_prefill_costs(cfg, plan, input_tokens, self.attn_bytes(input_tokens))
        };
        let mut env = CoreEnv {
            machine,
            plan,
            cache,
            offload_tier: self.opts.offload_tier,
            num_experts: cfg.num_experts,
            demand_bytes,
        };
        core::prefill_pass(&mut env, sched, topo, enc_blocks, &costs, &mut rng, false, scratch)?;
        if let Some(staging) = staging {
            machine.pool_mut(Tier::Hbm).free(staging).expect("encoder staging double free");
        }
        Ok(())
    }
}

/// HBM bytes streamed by one decoder attention layer: the projection
/// weights are read once regardless of batch size, the KV cache is scanned
/// per live context (one entry per batched request). The KV term is the
/// shared [`crate::memory::kv_bytes`] accounting path at depth 1 — the same
/// per-token bytes admission control multiplies by the full layer count.
pub(crate) fn attn_bytes_for(cfg: &ModelConfig, ctx_lens: impl IntoIterator<Item = usize>) -> u64 {
    let d = cfg.d_model as u64;
    let bpp = cfg.precision.bytes_per_param();
    let weights = (4 * d * d) as f64 * bpp;
    let kv: u64 =
        ctx_lens.into_iter().map(|ctx| crate::memory::kv_bytes(1, ctx, cfg.d_model, 1)).sum();
    (weights + kv as f64) as u64
}

/// HBM bytes streamed by one dense FFN layer (weights read once).
pub(crate) fn dense_ffn_bytes_for(cfg: &ModelConfig) -> u64 {
    let bpp = cfg.precision.bytes_per_param();
    (2.0 * cfg.d_model as f64 * cfg.d_ff as f64 * bpp) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::PolicySpec;
    use crate::OffloadPolicy;
    use pgmoe_model::ModelConfig;
    use pgmoe_workload::DecodeRequest;

    fn short_request() -> DecodeRequest {
        DecodeRequest { input_tokens: 32, output_tokens: 8, batch_size: 1 }
    }

    fn run(policy: OffloadPolicy, experts: usize) -> RunReport {
        let cfg = ModelConfig::switch_base(experts);
        InferenceSim::new(cfg, SimOptions::new(policy)).run(short_request(), 1).expect("run")
    }

    #[test]
    fn all_policies_complete_and_report() {
        for policy in OffloadPolicy::ALL {
            let r = run(policy, 8);
            assert!(r.tokens_per_sec > 0.0, "{policy}");
            assert_eq!(r.block_latencies.len(), 8 * 6, "{policy}: 8 tokens × 6 decoder blocks");
            assert!(r.peak_hbm_bytes > 0);
            assert_eq!(r.policy, policy.paper_name());
        }
    }

    #[test]
    fn new_schedulers_complete_and_report() {
        let cfg = ModelConfig::switch_base(16);
        for spec in [PolicySpec::speculative_top_m(4), PolicySpec::cache_pinned(4)] {
            let name = spec.name();
            let r = InferenceSim::new(cfg.clone(), SimOptions::new(spec))
                .run(short_request(), 1)
                .expect("run");
            assert!(r.tokens_per_sec > 0.0, "{name}");
            assert_eq!(r.policy, name);
            assert!(r.expert_fetch_bytes > 0, "{name} offloads");
            assert!(
                r.peak_hbm_bytes <= r.predicted_peak_bytes,
                "{name}: measured {} must stay under the scheduler's Eq.1 bound {}",
                r.peak_hbm_bytes,
                r.predicted_peak_bytes
            );
        }
    }

    #[test]
    fn speculative_trades_bytes_for_demand_stalls() {
        // The new-scheduler acceptance property: versus Pre-gated, the
        // speculative superset moves strictly more link bytes and stalls on
        // strictly fewer on-demand bytes.
        let cfg = ModelConfig::switch_base(64);
        let request = DecodeRequest { input_tokens: 32, output_tokens: 16, batch_size: 1 };
        let zipf = pgmoe_workload::RoutingKind::Zipf { s: 1.2 };
        let pg = InferenceSim::new(
            cfg.clone(),
            SimOptions::new(OffloadPolicy::Pregated).with_routing(zipf),
        )
        .run(request, 1)
        .unwrap();
        let spec = InferenceSim::new(
            cfg,
            SimOptions::new(PolicySpec::speculative_top_m(8)).with_routing(zipf),
        )
        .run(request, 1)
        .unwrap();
        assert!(pg.demand_fetch_bytes > 0, "Pre-gated serializes the first block");
        assert!(
            spec.demand_fetch_bytes < pg.demand_fetch_bytes,
            "speculation must cut demand stalls: {} !< {}",
            spec.demand_fetch_bytes,
            pg.demand_fetch_bytes
        );
        assert!(
            spec.expert_fetch_bytes > pg.expert_fetch_bytes,
            "the margin costs link bytes: {} !> {}",
            spec.expert_fetch_bytes,
            pg.expert_fetch_bytes
        );
    }

    #[test]
    fn cache_pinned_cuts_traffic_under_zipf() {
        let cfg = ModelConfig::switch_base(64);
        let request = DecodeRequest { input_tokens: 32, output_tokens: 16, batch_size: 1 };
        let zipf = pgmoe_workload::RoutingKind::Zipf { s: 1.2 };
        let pg = InferenceSim::new(
            cfg.clone(),
            SimOptions::new(OffloadPolicy::Pregated).with_routing(zipf),
        )
        .run(request, 1)
        .unwrap();
        let pinned =
            InferenceSim::new(cfg, SimOptions::new(PolicySpec::cache_pinned(8)).with_routing(zipf))
                .run(request, 1)
                .unwrap();
        assert!(
            pinned.expert_fetch_bytes < pg.expert_fetch_bytes,
            "pinned hot experts must shrink migration: {} !< {}",
            pinned.expert_fetch_bytes,
            pg.expert_fetch_bytes
        );
        assert!(pinned.peak_hbm_bytes > pg.peak_hbm_bytes, "residents cost HBM");
        assert!(pinned.total_time < pg.total_time, "fewer fetches, faster decode");
    }

    #[test]
    fn overlapping_prefetch_directives_merge_without_refetch() {
        // A scheduler that splits each pre-gated prefetch into two
        // overlapping directives must behave exactly like Pre-gated: the
        // core merges coverage and never copies an expert twice.
        use crate::scheduler::{
            ExpertScheduler as Es, FetchSet, Phase, PolicyCtx, Prefetch, Residency,
            SchedulerFactory, SchedulerSetup,
        };
        #[derive(Debug)]
        struct SplitFactory;
        impl SchedulerFactory for SplitFactory {
            fn scheduler_name(&self) -> String {
                "Split-Pregated".into()
            }
            fn build(&self, _setup: &SchedulerSetup) -> Box<dyn Es> {
                Box::new(Split)
            }
        }
        struct Split;
        impl Es for Split {
            fn name(&self) -> String {
                "Split-Pregated".into()
            }
            fn uses_pregate(&self) -> bool {
                true
            }
            fn decoder_topology(&self, dec_blocks: usize) -> crate::Result<GateTopology> {
                Ok(GateTopology::pregated(dec_blocks))
            }
            fn hbm_plan(&self, p: &crate::scheduler::MemoryProfile) -> crate::scheduler::HbmPlan {
                crate::scheduler::HbmPlan {
                    resident_bytes: 0,
                    transient_bytes: 2 * p.active_per_block as u64 * p.expert_bytes,
                    encoder_staging_experts: 2,
                }
            }
            fn on_block_start(&mut self, _ctx: &PolicyCtx<'_>, _block: usize) -> Residency {
                Residency::AwaitPending
            }
            fn on_gate(&mut self, ctx: &PolicyCtx<'_>, block: usize, out: &mut Vec<Prefetch>) {
                if ctx.phase == Phase::Prefill {
                    if block + 1 < ctx.blocks {
                        out.push(Prefetch {
                            block: block + 1,
                            set: FetchSet::Routed,
                            after_gate: true,
                        });
                    }
                    return;
                }
                for target in ctx.topology.gates_hosted_at(block) {
                    if target != block {
                        let routed = ctx.experts(target);
                        // First half, then the FULL set again (overlap).
                        out.push(Prefetch {
                            block: target,
                            set: FetchSet::Listed(routed[..routed.len() / 2].to_vec()),
                            after_gate: true,
                        });
                        out.push(Prefetch {
                            block: target,
                            set: FetchSet::Listed(routed.to_vec()),
                            after_gate: true,
                        });
                    }
                }
            }
        }
        let cfg = ModelConfig::switch_base(16);
        let request = DecodeRequest { input_tokens: 32, output_tokens: 8, batch_size: 1 };
        let opts = SimOptions::new(OffloadPolicy::Pregated).with_active_experts(2);
        let pg = InferenceSim::new(cfg.clone(), opts).run(request, 1).unwrap();
        let split_opts = SimOptions::new(PolicySpec::custom(std::sync::Arc::new(SplitFactory)))
            .with_active_experts(2);
        let split = InferenceSim::new(cfg, split_opts).run(request, 1).unwrap();
        assert_eq!(split.expert_fetch_bytes, pg.expert_fetch_bytes, "no duplicate copies");
        assert_eq!(split.demand_fetch_bytes, pg.demand_fetch_bytes, "merged coverage");
        assert_eq!(split.block_latencies, pg.block_latencies, "identical event graph");
        assert_eq!(split.total_time, pg.total_time);
    }

    #[test]
    fn fig10_latency_ordering() {
        // GPU-only < Pre-gated < OnDemand < PrefetchAll under sparse
        // activation — the core result of the paper.
        let gpu = run(OffloadPolicy::GpuOnly, 64).mean_block_latency();
        let pg = run(OffloadPolicy::Pregated, 64).mean_block_latency();
        let od = run(OffloadPolicy::OnDemand, 64).mean_block_latency();
        let pf = run(OffloadPolicy::PrefetchAll, 64).mean_block_latency();
        assert!(gpu < pg, "GPU-only {gpu} !< Pre-gated {pg}");
        assert!(pg < od, "Pre-gated {pg} !< OnDemand {od}");
        assert!(od.as_nanos() * 5 < pf.as_nanos(), "OnDemand {od} should be ≪ Prefetch {pf}");
    }

    #[test]
    fn fig10_bands_switch_base_64() {
        let gpu = run(OffloadPolicy::GpuOnly, 64).mean_block_latency().as_nanos() as f64;
        let pg = run(OffloadPolicy::Pregated, 64).mean_block_latency().as_nanos() as f64;
        let od = run(OffloadPolicy::OnDemand, 64).mean_block_latency().as_nanos() as f64;
        let pf = run(OffloadPolicy::PrefetchAll, 64).mean_block_latency().as_nanos() as f64;
        let pg_ratio = pg / gpu;
        let od_ratio = od / gpu;
        let pf_ratio = pf / gpu;
        assert!((1.0..1.45).contains(&pg_ratio), "Pre-gated/GPU-only {pg_ratio} (paper 1.2)");
        assert!((1.6..2.6).contains(&od_ratio), "OnDemand/GPU-only {od_ratio} (paper ~1.9-2.0)");
        assert!((30.0..90.0).contains(&pf_ratio), "Prefetch/GPU-only {pf_ratio} (paper 54)");
    }

    #[test]
    fn gpu_only_ooms_on_switch_large() {
        let cfg = ModelConfig::switch_large_128();
        let err = InferenceSim::new(cfg, SimOptions::new(OffloadPolicy::GpuOnly))
            .run(short_request(), 1)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::OutOfMemory(_)));
    }

    #[test]
    fn offloading_policies_fit_switch_large() {
        for policy in [OffloadPolicy::Pregated, OffloadPolicy::OnDemand, OffloadPolicy::PrefetchAll]
        {
            let cfg = ModelConfig::switch_large_128();
            let r = InferenceSim::new(cfg, SimOptions::new(policy)).run(short_request(), 1);
            assert!(r.is_ok(), "{policy} should fit Switch-Large");
        }
    }

    #[test]
    fn measured_peak_matches_equation1_prediction() {
        for policy in OffloadPolicy::ALL {
            let r = run(policy, 64);
            let measured = r.peak_hbm_bytes as f64;
            let predicted = r.predicted_peak_bytes as f64;
            let rel = (measured - predicted).abs() / predicted;
            assert!(rel < 0.05, "{policy}: measured {measured} vs Eq.1 {predicted} ({rel})");
        }
    }

    #[test]
    fn pregated_peak_is_close_to_ondemand() {
        let pg = run(OffloadPolicy::Pregated, 128).peak_hbm_bytes;
        let od = run(OffloadPolicy::OnDemand, 128).peak_hbm_bytes;
        let gpu = run(OffloadPolicy::GpuOnly, 128).peak_hbm_bytes;
        assert!(pg > od);
        let delta = (pg - od) as f64 / gpu as f64;
        assert!(delta < 0.005, "Pre-gated ≈ OnDemand + one expert (delta {delta})");
    }

    #[test]
    fn cache_improves_ondemand_more_than_pregated() {
        use crate::{CacheConfig, Replacement};
        use pgmoe_workload::RoutingKind;
        let cfg = ModelConfig::switch_base(64);
        let mk = |policy, cached: bool| {
            let mut opts = SimOptions::new(policy).with_routing(RoutingKind::Zipf { s: 1.2 });
            if cached {
                opts = opts.with_cache(CacheConfig::new(0.2, Replacement::Lru));
            }
            InferenceSim::new(cfg.clone(), opts)
                .run(DecodeRequest { input_tokens: 32, output_tokens: 16, batch_size: 1 }, 1)
                .unwrap()
                .tokens_per_sec
        };
        let od_gain = mk(OffloadPolicy::OnDemand, true) / mk(OffloadPolicy::OnDemand, false);
        let pg_gain = mk(OffloadPolicy::Pregated, true) / mk(OffloadPolicy::Pregated, false);
        assert!(od_gain > 1.02, "caching should speed up OnDemand (gain {od_gain})");
        assert!(od_gain > pg_gain, "caching helps OnDemand more (od {od_gain} vs pg {pg_gain})");
    }

    #[test]
    fn ssd_offload_degrades_throughput() {
        let cfg = ModelConfig::switch_large_128();
        let ddr = InferenceSim::new(cfg.clone(), SimOptions::new(OffloadPolicy::Pregated))
            .run(short_request(), 1)
            .unwrap();
        let ssd =
            InferenceSim::new(cfg, SimOptions::new(OffloadPolicy::Pregated).with_ssd_offload())
                .run(short_request(), 1)
                .unwrap();
        assert!(ssd.tokens_per_sec < ddr.tokens_per_sec / 2.0);
    }

    #[test]
    fn fig14_full_activation_closes_prefetch_gap() {
        let cfg = ModelConfig::switch_base(64);
        let ratio = |policy, k| {
            let r = InferenceSim::new(cfg.clone(), SimOptions::new(policy).with_active_experts(k))
                .run(short_request(), 1)
                .unwrap();
            r.mean_block_latency().as_nanos() as f64
        };
        let gap_sparse = ratio(OffloadPolicy::PrefetchAll, 1) / ratio(OffloadPolicy::Pregated, 1);
        let gap_dense = ratio(OffloadPolicy::PrefetchAll, 64) / ratio(OffloadPolicy::Pregated, 64);
        assert!(gap_sparse > 10.0, "sparse gap {gap_sparse}");
        assert!(gap_dense < 2.0, "dense gap {gap_dense} should collapse");
    }

    #[test]
    fn timeline_renders_when_requested() {
        let cfg = ModelConfig::switch_base(8);
        let r = InferenceSim::new(cfg, SimOptions::new(OffloadPolicy::Pregated).with_timeline())
            .run(short_request(), 1)
            .unwrap();
        let t = r.timeline.expect("timeline requested");
        assert!(t.contains("compute"));
        assert!(t.contains("copy"));
    }

    #[test]
    fn a_traced_cached_run_reports_what_an_untraced_one_does() {
        use crate::{CacheConfig, Replacement};
        use pgmoe_workload::RoutingKind;
        // Cached runs are interpreted; tracing only adds span labels, so
        // every measurement must be bit-identical with it on or off.
        let cfg = ModelConfig::switch_base(64);
        for policy in [OffloadPolicy::OnDemand, OffloadPolicy::Pregated] {
            let opts = SimOptions::new(policy)
                .with_routing(RoutingKind::Zipf { s: 1.2 })
                .with_cache(CacheConfig::new(0.2, Replacement::Lru));
            let request = DecodeRequest { input_tokens: 32, output_tokens: 16, batch_size: 1 };
            let plain = InferenceSim::new(cfg.clone(), opts.clone()).run(request, 2).unwrap();
            let mut traced =
                InferenceSim::new(cfg.clone(), opts.with_timeline()).run(request, 2).unwrap();
            let stats = traced.cache_stats.expect("cache stats");
            assert!(stats.hits > 0 && stats.misses > 0, "{policy}: {stats:?}");
            assert!(traced.timeline.take().expect("timeline").contains("copy"));
            assert_eq!(format!("{traced:?}"), format!("{plain:?}"), "{policy}");
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        use crate::{CacheConfig, Replacement};
        let cfg = ModelConfig::switch_base(8);
        let bad_cache = SimOptions::new(OffloadPolicy::Pregated)
            .with_cache(CacheConfig::new(0.0, Replacement::Lru));
        assert!(matches!(
            InferenceSim::new(cfg.clone(), bad_cache).run(short_request(), 1),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        let bad_k = SimOptions::new(OffloadPolicy::Pregated).with_active_experts(9);
        assert!(matches!(
            InferenceSim::new(cfg.clone(), bad_k).run(short_request(), 1),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        let bad_gating = SimOptions::new(OffloadPolicy::OnDemand)
            .with_gating(pgmoe_model::GatingMode::Pregated { level: 1 });
        assert!(matches!(
            InferenceSim::new(cfg, bad_gating).run(short_request(), 1),
            Err(RuntimeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn expert_precision_shrinks_traffic_and_time() {
        use pgmoe_model::ExpertPrecision;
        let f32_r = run(OffloadPolicy::Pregated, 64);
        assert!(f32_r.expert_fetch_bytes > 0, "offloading must move expert bytes");
        let int8_r = InferenceSim::new(
            ModelConfig::switch_base(64),
            SimOptions::new(OffloadPolicy::Pregated).with_expert_precision(ExpertPrecision::Int8),
        )
        .run(short_request(), 1)
        .unwrap();
        // Same routing trace (same seed) → same fetch count, ~3.76x fewer
        // bytes, strictly less simulated time.
        assert!(
            int8_r.expert_fetch_bytes * 3 < f32_r.expert_fetch_bytes,
            "int8 {} vs f32 {}",
            int8_r.expert_fetch_bytes,
            f32_r.expert_fetch_bytes
        );
        assert!(int8_r.total_time < f32_r.total_time);
        assert_eq!(run(OffloadPolicy::GpuOnly, 8).expert_fetch_bytes, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(OffloadPolicy::Pregated, 64);
        let b = run(OffloadPolicy::Pregated, 64);
        assert_eq!(a.tokens_per_sec, b.tokens_per_sec);
        assert_eq!(a.block_latencies, b.block_latencies);
    }
}
