//! Parameter placement and the peak-GPU-memory law (Equation 1).

use crate::scheduler::MemoryProfile;
use crate::{CacheCapacity, SimOptions};
use pgmoe_model::ModelConfig;

/// Static placement plan for one (model, policy) pair: what lives in HBM
/// permanently, what migrates, and the analytic peak-memory prediction of
/// the paper's Equation 1 — generalised per scheduler through
/// [`ExpertScheduler::hbm_plan`].
///
/// The simulator allocates through `pgmoe-device`'s pools; this plan exists
/// so tests can cross-validate the *measured* peak against the *predicted*
/// peak, and so Fig 12 can be regenerated analytically for configurations
/// the simulator marks OOM.
///
/// [`ExpertScheduler::hbm_plan`]: crate::scheduler::ExpertScheduler::hbm_plan
#[derive(Debug, Clone)]
pub struct PlacementPlan {
    offloads_experts: bool,
    expert_bytes: u64,
    moe_bytes: u64,
    non_moe_bytes: u64,
    activation_bytes: u64,
    cache_experts: usize,
    active_per_block: usize,
    /// Scheduler-pinned permanently-resident bytes (Equation 1 static term).
    resident_bytes: u64,
    /// Scheduler transient bytes per in-flight block (Equation 1 dynamic
    /// term).
    transient_bytes: u64,
    /// Experts' worth of encoder fetch staging.
    staging_experts: u64,
}

impl PlacementPlan {
    /// Builds the plan for a model under `opts`, serving requests with
    /// `ctx_tokens` of live context and the given batch size.
    ///
    /// Expert-byte-derived quantities honour the run's effective expert
    /// precision ([`SimOptions::expert_precision`] when set, else the
    /// model's own): smaller experts mean smaller fetches, smaller
    /// Equation-1 transients, and more experts per cache byte.
    pub fn new(cfg: &ModelConfig, opts: &SimOptions, ctx_tokens: usize, batch: usize) -> Self {
        let retagged;
        let eff = match opts.expert_precision {
            Some(p) if p != cfg.expert_precision => {
                retagged = cfg.clone().with_expert_precision(p);
                &retagged
            }
            _ => cfg,
        };
        let active_per_block = opts.active_per_block(cfg);
        let expert_bytes = eff.expert_bytes();
        let cache_experts = opts
            .cache
            .map(|c| {
                let total = cfg.moe_layers() * cfg.num_experts;
                match c.capacity {
                    CacheCapacity::Bytes(bytes) => {
                        ((bytes / expert_bytes.max(1)) as usize).min(total)
                    }
                    CacheCapacity::Fraction(fraction) => {
                        ((total as f64 * fraction).round() as usize).min(total)
                    }
                }
            })
            .unwrap_or(0);
        let sched = opts.policy.build(&opts.setup_for(cfg));
        let hbm = sched.hbm_plan(&MemoryProfile {
            expert_bytes,
            num_experts: cfg.num_experts,
            active_per_block,
            moe_layers: cfg.moe_layers(),
        });
        PlacementPlan {
            offloads_experts: sched.offloads_experts(),
            expert_bytes,
            moe_bytes: eff.moe_bytes(),
            non_moe_bytes: cfg.non_moe_bytes(),
            activation_bytes: kv_bytes(cfg.total_layers(), ctx_tokens, cfg.d_model, batch)
                + working_bytes(cfg, ctx_tokens, batch),
            cache_experts,
            active_per_block,
            resident_bytes: hbm.resident_bytes,
            transient_bytes: hbm.transient_bytes,
            staging_experts: hbm.encoder_staging_experts,
        }
    }

    /// Bytes held in HBM for the whole run: non-MoE parameters, activations
    /// and KV cache, the pinned expert cache, any scheduler-pinned resident
    /// experts — plus the full MoE parameters when nothing is offloaded.
    pub fn hbm_static_bytes(&self) -> u64 {
        let mut bytes = self.non_moe_bytes + self.activation_bytes;
        bytes += self.cache_experts as u64 * self.expert_bytes;
        bytes += self.resident_bytes;
        if !self.offloads_experts {
            bytes += self.moe_bytes;
        }
        bytes
    }

    /// Bytes of one expert at the model's precision.
    pub fn expert_bytes(&self) -> u64 {
        self.expert_bytes
    }

    /// Activation/KV-cache bytes this plan reserves (the `ctx_tokens` ×
    /// `batch` dependent part of [`PlacementPlan::hbm_static_bytes`]).
    pub fn activation_bytes(&self) -> u64 {
        self.activation_bytes
    }

    /// HBM bytes that do not depend on live context: non-MoE parameters,
    /// the pinned expert cache, and any weights the scheduler keeps
    /// resident. The continuous-batching scheduler reserves this once and
    /// accounts activations per admitted request on top.
    pub fn static_non_activation_bytes(&self) -> u64 {
        self.hbm_static_bytes() - self.activation_bytes
    }

    /// Experts pinned in the cache region.
    pub fn cache_experts(&self) -> usize {
        self.cache_experts
    }

    /// Experts activated per MoE block for this run.
    pub fn active_per_block(&self) -> usize {
        self.active_per_block
    }

    /// Experts' worth of staging the encoder pass streams fetches through.
    pub(crate) fn staging_experts(&self) -> u64 {
        self.staging_experts
    }

    /// Transient HBM bytes needed while one MoE block is in flight: the
    /// scheduler's migration buffers (Equation 1's dynamic term).
    pub fn transient_bytes_per_block(&self) -> u64 {
        self.transient_bytes
    }

    /// The paper's Equation 1 (generalised per scheduler): predicted peak
    /// GPU memory for model parameters + activations.
    pub fn predicted_peak_bytes(&self) -> u64 {
        self.hbm_static_bytes() + self.transient_bytes_per_block()
    }

    /// Bytes that must fit in the offload tier (CPU DRAM or SSD).
    pub fn offload_bytes(&self) -> u64 {
        if self.offloads_experts {
            self.moe_bytes
        } else {
            0
        }
    }
}

/// KV-cache bytes for `batch` sequences holding `ctx_tokens` of live
/// context across `layers` attention layers: one K and one V vector of
/// `d_model` f32 elements per token per layer.
///
/// This is the **single** KV accounting path. Admission control
/// ([`PlacementPlan::activation_bytes`], full-depth) and the decode cost
/// model ([`crate::InferenceSim`]'s per-layer attention bytes, `layers = 1`)
/// both route through it; they once used two hand-expanded copies of this
/// formula that disagreed on the layer factor, so admission and the cost
/// model accounted different KV footprints for the same request.
pub fn kv_bytes(layers: usize, ctx_tokens: usize, d_model: usize, batch: usize) -> u64 {
    2 * layers as u64 * ctx_tokens as u64 * d_model as u64 * 4 * batch as u64
}

/// Non-KV working buffers (logits, residuals, attention scratch) for
/// `batch` sequences of `ctx_tokens` context.
pub(crate) fn working_bytes(cfg: &ModelConfig, ctx_tokens: usize, batch: usize) -> u64 {
    8 * ctx_tokens as u64 * cfg.d_model as u64 * 4 * batch as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::PolicySpec;
    use crate::OffloadPolicy;
    use pgmoe_model::ModelConfig;

    fn plan(policy: OffloadPolicy, experts: usize) -> PlacementPlan {
        let cfg = ModelConfig::switch_base(experts);
        let opts = SimOptions::new(policy);
        PlacementPlan::new(&cfg, &opts, 320, 1)
    }

    #[test]
    fn gpu_only_holds_everything() {
        let cfg = ModelConfig::switch_base(64);
        let p = plan(OffloadPolicy::GpuOnly, 64);
        assert!(p.hbm_static_bytes() > cfg.capacity_bytes());
        assert_eq!(p.transient_bytes_per_block(), 0);
        assert_eq!(p.offload_bytes(), 0);
    }

    #[test]
    fn equation1_pregated_is_two_active_expert_sets() {
        let p = plan(OffloadPolicy::Pregated, 128);
        assert_eq!(p.transient_bytes_per_block(), 2 * p.expert_bytes());
        // OnDemand holds one set: exactly one expert fewer.
        let q = plan(OffloadPolicy::OnDemand, 128);
        assert_eq!(p.transient_bytes_per_block() - q.transient_bytes_per_block(), p.expert_bytes());
    }

    #[test]
    fn prefetch_all_holds_two_full_blocks() {
        let p = plan(OffloadPolicy::PrefetchAll, 64);
        assert_eq!(p.transient_bytes_per_block(), 2 * 64 * p.expert_bytes());
    }

    #[test]
    fn peak_ordering_matches_fig12() {
        // GPU-only > PrefetchAll > Pregated ≳ OnDemand.
        let gpu = plan(OffloadPolicy::GpuOnly, 128).predicted_peak_bytes();
        let pf = plan(OffloadPolicy::PrefetchAll, 128).predicted_peak_bytes();
        let pg = plan(OffloadPolicy::Pregated, 128).predicted_peak_bytes();
        let od = plan(OffloadPolicy::OnDemand, 128).predicted_peak_bytes();
        assert!(gpu > pf && pf > pg && pg > od);
        // Paper: Pre-gated uses ~23 % of GPU-only and ~0.2 % more than
        // OnDemand (Section VI-B). Check bands loosely.
        let frac = pg as f64 / gpu as f64;
        assert!(frac < 0.30, "Pre-gated/GPU-only peak fraction {frac}");
        let delta = (pg - od) as f64 / gpu as f64;
        assert!(delta < 0.01, "Pre-gated vs OnDemand delta {delta}");
    }

    #[test]
    fn memory_saving_grows_with_expert_count() {
        let f8 = plan(OffloadPolicy::Pregated, 8).predicted_peak_bytes() as f64
            / plan(OffloadPolicy::GpuOnly, 8).predicted_peak_bytes() as f64;
        let f256 = plan(OffloadPolicy::Pregated, 256).predicted_peak_bytes() as f64
            / plan(OffloadPolicy::GpuOnly, 256).predicted_peak_bytes() as f64;
        assert!(f256 < f8, "saving must grow with experts: {f8} vs {f256}");
    }

    #[test]
    fn cache_region_counts_toward_static_hbm() {
        let cfg = ModelConfig::switch_large_128();
        let base = SimOptions::new(OffloadPolicy::Pregated);
        let cached = SimOptions::new(OffloadPolicy::Pregated)
            .with_cache(crate::CacheConfig::new(0.1, crate::Replacement::Lru));
        let p0 = PlacementPlan::new(&cfg, &base, 320, 1);
        let p1 = PlacementPlan::new(&cfg, &cached, 320, 1);
        let expected = (cfg.moe_layers() * cfg.num_experts) as f64 * 0.1;
        assert_eq!(p1.cache_experts(), expected.round() as usize);
        assert_eq!(
            p1.hbm_static_bytes() - p0.hbm_static_bytes(),
            p1.cache_experts() as u64 * cfg.expert_bytes()
        );
    }

    #[test]
    fn fig14_override_scales_transients() {
        let cfg = ModelConfig::switch_base(64);
        let opts = SimOptions::new(OffloadPolicy::Pregated).with_active_experts(16);
        let p = PlacementPlan::new(&cfg, &opts, 320, 1);
        assert_eq!(p.active_per_block(), 16);
        assert_eq!(p.transient_bytes_per_block(), 2 * 16 * cfg.expert_bytes());
    }

    #[test]
    fn pinned_residents_count_toward_static_hbm() {
        let cfg = ModelConfig::switch_base(64);
        let base = PlacementPlan::new(&cfg, &SimOptions::new(OffloadPolicy::Pregated), 320, 1);
        let pinned =
            PlacementPlan::new(&cfg, &SimOptions::new(PolicySpec::cache_pinned(8)), 320, 1);
        assert_eq!(
            pinned.hbm_static_bytes() - base.hbm_static_bytes(),
            (cfg.moe_layers() * 8) as u64 * cfg.expert_bytes(),
            "pinned experts are Equation 1's static term"
        );
        // The pre-gated tail keeps the same transient shape.
        assert_eq!(pinned.transient_bytes_per_block(), base.transient_bytes_per_block());
        assert_eq!(pinned.offload_bytes(), base.offload_bytes());
    }

    #[test]
    fn expert_precision_override_shrinks_plan_bytes() {
        use pgmoe_model::ExpertPrecision;
        let cfg = ModelConfig::switch_base(64);
        let f32_plan = PlacementPlan::new(&cfg, &SimOptions::new(OffloadPolicy::Pregated), 320, 1);
        let int8_plan = PlacementPlan::new(
            &cfg,
            &SimOptions::new(OffloadPolicy::Pregated).with_expert_precision(ExpertPrecision::Int8),
            320,
            1,
        );
        let ratio = f32_plan.expert_bytes() as f64 / int8_plan.expert_bytes() as f64;
        assert!((3.7..3.8).contains(&ratio), "int8 expert shrink {ratio}");
        assert!(int8_plan.offload_bytes() < f32_plan.offload_bytes() / 3);
        assert!(int8_plan.transient_bytes_per_block() < f32_plan.transient_bytes_per_block() / 3);
        // Sub-byte Q4 pushes past 7× vs f32 and ≥1.7× vs int8 — the byte
        // geometry the quantized-offload e2e gate asserts end to end.
        let q4_plan = PlacementPlan::new(
            &cfg,
            &SimOptions::new(OffloadPolicy::Pregated).with_expert_precision(ExpertPrecision::Q4),
            320,
            1,
        );
        let q4_ratio = f32_plan.expert_bytes() as f64 / q4_plan.expert_bytes() as f64;
        assert!((7.0..7.2).contains(&q4_ratio), "q4 expert shrink {q4_ratio}");
        let int8_vs_q4 = int8_plan.expert_bytes() as f64 / q4_plan.expert_bytes() as f64;
        assert!(int8_vs_q4 >= 1.7, "q4 must beat int8 by ≥1.7×, got {int8_vs_q4}");
        // The override matches tagging the model itself.
        let tagged = cfg.with_expert_precision(ExpertPrecision::Int8);
        let tagged_plan =
            PlacementPlan::new(&tagged, &SimOptions::new(OffloadPolicy::Pregated), 320, 1);
        assert_eq!(tagged_plan.expert_bytes(), int8_plan.expert_bytes());
        assert_eq!(tagged_plan.offload_bytes(), int8_plan.offload_bytes());
    }

    #[test]
    fn admission_and_cost_model_kv_accounting_agree() {
        // Regression: admission control (PlacementPlan::activation_bytes,
        // all layers) and the decode cost model (attn_bytes_for, one layer
        // at a time) once hand-expanded the KV formula separately and
        // disagreed on the layer factor. Both now route through kv_bytes:
        // the full-depth footprint must be exactly the per-layer footprint
        // times the layer count, and the plan's activation bytes must
        // decompose into that same KV term plus working buffers.
        let cfg = ModelConfig::switch_base(8);
        let opts = SimOptions::new(OffloadPolicy::Pregated);
        for (ctx, batch) in [(1usize, 1usize), (320, 1), (544, 4), (7, 3)] {
            let per_layer = kv_bytes(1, ctx, cfg.d_model, 1);
            assert_eq!(
                kv_bytes(cfg.total_layers(), ctx, cfg.d_model, batch),
                per_layer * cfg.total_layers() as u64 * batch as u64,
                "layer factor must be the only difference between the two views"
            );
            let plan = PlacementPlan::new(&cfg, &opts, ctx, batch);
            assert_eq!(
                plan.activation_bytes(),
                kv_bytes(cfg.total_layers(), ctx, cfg.d_model, batch)
                    + working_bytes(&cfg, ctx, batch),
                "admission accounting must decompose into shared kv + working terms"
            );
            // The cost model's per-layer KV scan (attn_bytes_for minus its
            // batch-independent weight term) is the same shared term.
            let weights = {
                let d = cfg.d_model as u64;
                ((4 * d * d) as f64 * cfg.precision.bytes_per_param()) as u64
            };
            let attn = crate::engine::attn_bytes_for(&cfg, std::iter::repeat_n(ctx, batch));
            assert_eq!(attn - weights, per_layer * batch as u64);
        }
    }

    #[test]
    fn byte_budget_cache_fits_more_experts_at_lower_precision() {
        use crate::{CacheConfig, Replacement};
        use pgmoe_model::ExpertPrecision;
        let cfg = ModelConfig::switch_base(64);
        // A budget of exactly 16 f32 experts.
        let budget = 16 * cfg.expert_bytes();
        let plan_at = |p: ExpertPrecision| {
            let opts = SimOptions::new(OffloadPolicy::Pregated)
                .with_cache(CacheConfig::bytes(budget, Replacement::Lru))
                .with_expert_precision(p);
            PlacementPlan::new(&cfg, &opts, 320, 1)
        };
        let f32_cap = plan_at(ExpertPrecision::F32).cache_experts();
        let f16_cap = plan_at(ExpertPrecision::F16).cache_experts();
        let int8_cap = plan_at(ExpertPrecision::Int8).cache_experts();
        let q4_cap = plan_at(ExpertPrecision::Q4).cache_experts();
        let q4k_cap = plan_at(ExpertPrecision::Q4K).cache_experts();
        assert_eq!(f32_cap, 16);
        assert_eq!(f16_cap, 32);
        assert!(int8_cap >= 2 * f32_cap, "int8 cache {int8_cap} vs f32 {f32_cap}");
        // 4.5 bits/weight: the same budget holds ~7.1× the f32 experts.
        assert_eq!(q4_cap, 113, "q4 cache {q4_cap} vs f32 {f32_cap}");
        assert!(q4k_cap >= 6 * f32_cap && q4k_cap <= q4_cap, "q4k cache {q4k_cap}");
        // The HBM the region costs is capped by the budget either way.
        for p in ExpertPrecision::ALL {
            let plan = plan_at(p);
            assert!(plan.cache_experts() as u64 * plan.expert_bytes() <= budget);
        }
    }
}
