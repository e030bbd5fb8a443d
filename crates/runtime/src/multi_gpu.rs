//! Multi-GPU expert parallelism — the paper's *motivation* baseline, as a
//! pluggable scheduler.
//!
//! Section III-A argues that the conventional fix for MoE's memory footprint
//! — sharding experts across many GPUs ("expert parallelism", GShard/
//! DeepSpeed-MoE style) — wastes the machines: with top-1 routing at batch 1
//! "the number of experts actually executed by each GPU becomes very low",
//! leaving most GPUs idle each block, and the all-to-all exchanges add
//! latency.
//!
//! This module models that cluster as an [`ExpertScheduler`]: every expert
//! is resident on *some* GPU (no host offload, nothing to fetch), and the
//! [`ExpertScheduler::exec_plan`] hook charges only the critical-path
//! shard's bytes while serializing an all-to-all dispatch/combine hop around
//! every MoE kernel. Because it is an ordinary scheduler, the motivation
//! baseline executes through the exact same decode core as the paper's
//! single-GPU policies — and doubles as a drop-in *serving backend*:
//! `SimOptions::new(PolicySpec::expert_parallel(&cluster))` runs under
//! [`InferenceSim`], [`BatchScheduler`], and the fleet simulator alike
//! (`crate::fleet` stages the iso-GPU shootout).
//!
//! [`simulate_expert_parallel`] reproduces the Section III-A numbers
//! (utilization collapse, idle fractions) by driving the core directly.
//!
//! [`ExpertScheduler`]: crate::scheduler::ExpertScheduler
//! [`ExpertScheduler::exec_plan`]: crate::scheduler::ExpertScheduler::exec_plan
//! [`InferenceSim`]: crate::InferenceSim
//! [`BatchScheduler`]: crate::BatchScheduler

use crate::core::{self, CoreEnv, CoreScratch, DecodeCosts};
use crate::engine::TraceRouted;
use crate::scheduler::{
    ExecPlan, ExpertScheduler, HbmPlan, MemoryProfile, PolicyCtx, PolicySpec, Residency,
    SchedulerFactory, SchedulerSetup,
};
use crate::{ExpertKey, Result, RuntimeError, SimOptions};
use pgmoe_device::{CostModel, Link, Machine, MachineConfig, MemoryPool, SimDuration, Tier};
use pgmoe_model::ModelConfig;
use pgmoe_workload::{RoutingKind, RoutingTrace};
use std::sync::Arc;

/// Configuration of an expert-parallel cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of GPUs holding expert shards.
    pub num_gpus: usize,
    /// Per-GPU HBM capacity in bytes (A100-80GB by default).
    pub hbm_per_gpu: u64,
    /// Inter-GPU interconnect for the all-to-all token exchange.
    pub interconnect: Link,
    /// Kernel cost model (shared with the single-GPU experiments).
    pub cost: CostModel,
}

impl ClusterConfig {
    /// `num_gpus` A100s over 600 GB/s NVLink-class links (5 µs hop latency,
    /// the paper's kernel cost model). Override the defaults with
    /// [`ClusterConfig::with_cost`] / [`ClusterConfig::with_interconnect`].
    pub fn a100_nvlink(num_gpus: usize) -> Self {
        ClusterConfig {
            num_gpus,
            hbm_per_gpu: 80 * (1 << 30),
            interconnect: Link::new(600.0e9, SimDuration::from_micros(5)),
            cost: CostModel::a100_pcie4(),
        }
    }

    /// Builder: use a custom kernel cost model (different GPU generation,
    /// recalibrated bandwidth).
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Builder: use a custom all-to-all interconnect (PCIe-only clusters,
    /// multi-node Ethernet, faster NVLink).
    pub fn with_interconnect(mut self, interconnect: Link) -> Self {
        self.interconnect = interconnect;
        self
    }

    /// Builder: per-GPU HBM capacity in bytes.
    pub fn with_hbm_per_gpu(mut self, bytes: u64) -> Self {
        self.hbm_per_gpu = bytes;
        self
    }

    /// Validates the cluster shape.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] if the cluster has no GPUs.
    pub fn validate(&self) -> Result<()> {
        validate_gpus(self.num_gpus)
    }
}

/// The one copy of the cluster-shape rule, shared by [`ClusterConfig`] and
/// the scheduler's topology hook (which the serving paths call before any
/// work starts).
fn validate_gpus(num_gpus: usize) -> Result<()> {
    if num_gpus == 0 {
        return Err(RuntimeError::InvalidConfig {
            message: "an expert-parallel cluster needs at least 1 GPU".into(),
        });
    }
    Ok(())
}

/// Measurements from an expert-parallel decode simulation.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// GPUs in the cluster.
    pub num_gpus: usize,
    /// Mean MoE-block latency (compute + two all-to-alls).
    pub mean_block_latency: SimDuration,
    /// Fraction of GPU-time doing useful expert work during MoE blocks,
    /// averaged over GPUs — the paper's "low GPU compute utilization".
    pub expert_utilization: f64,
    /// Fraction of MoE blocks in which a given GPU had *no* expert activated
    /// ("none of the experts in a GPU are activated, leaving GPU idle").
    pub idle_block_fraction: f64,
}

impl PolicySpec {
    /// Expert-parallel execution over `cluster` as a pluggable scheduler —
    /// the motivation baseline as a drop-in serving backend.
    ///
    /// Experts of every MoE block are partitioned round-robin across the
    /// cluster's GPUs (`owner = expert % num_gpus`); nothing migrates from
    /// the host, and every MoE kernel is bracketed by an all-to-all
    /// dispatch and combine hop over [`ClusterConfig::interconnect`]. The
    /// simulated [`Machine`] stands for the cluster's critical-path GPU
    /// (the shards run in lockstep), so pair this spec with a machine whose
    /// cost model and HBM capacity match the cluster:
    ///
    /// ```
    /// use pgmoe_model::ModelConfig;
    /// use pgmoe_runtime::{ClusterConfig, InferenceSim, PolicySpec, SimOptions};
    /// use pgmoe_workload::DecodeRequest;
    ///
    /// let cluster = ClusterConfig::a100_nvlink(4);
    /// let mut opts = SimOptions::new(PolicySpec::expert_parallel(&cluster));
    /// opts.machine.hbm_capacity = cluster.hbm_per_gpu;
    /// opts.machine.cost = cluster.cost;
    /// let report = InferenceSim::new(ModelConfig::switch_base(8), opts)
    ///     .run(DecodeRequest { input_tokens: 16, output_tokens: 2, batch_size: 1 }, 1)?;
    /// assert_eq!(report.expert_fetch_bytes, 0, "nothing migrates from the host");
    /// # Ok::<(), pgmoe_runtime::RuntimeError>(())
    /// ```
    pub fn expert_parallel(cluster: &ClusterConfig) -> Self {
        PolicySpec::custom(Arc::new(ExpertParallelFactory {
            num_gpus: cluster.num_gpus,
            interconnect: cluster.interconnect,
        }))
    }
}

#[derive(Debug)]
struct ExpertParallelFactory {
    num_gpus: usize,
    interconnect: Link,
}

impl SchedulerFactory for ExpertParallelFactory {
    fn scheduler_name(&self) -> String {
        format!("Expert-Parallel-{}GPU", self.num_gpus)
    }

    fn build(&self, setup: &SchedulerSetup) -> Box<dyn ExpertScheduler> {
        Box::new(ClusterScheduler {
            num_gpus: self.num_gpus,
            a2a: self.interconnect.transfer_time(setup.token_bytes),
        })
    }
}

/// The expert-parallel cluster as an [`ExpertScheduler`]: all experts
/// resident across cluster HBM, sharded execution with all-to-all hops.
#[derive(Debug)]
struct ClusterScheduler {
    num_gpus: usize,
    /// One all-to-all hop: the interconnect moves one token's activation
    /// vector (latency-dominated at batch 1).
    a2a: SimDuration,
}

impl ClusterScheduler {
    /// Distinct GPUs owning at least one of `experts` (owner = `e % g`).
    fn owners(&self, experts: &[usize]) -> usize {
        let g = self.num_gpus.max(1);
        let mut seen = vec![false; g];
        let mut count = 0usize;
        for &e in experts {
            let owner = e % g;
            if !seen[owner] {
                seen[owner] = true;
                count += 1;
            }
        }
        count
    }
}

impl ExpertScheduler for ClusterScheduler {
    fn name(&self) -> String {
        format!("Expert-Parallel-{}GPU", self.num_gpus)
    }

    // Experts live off this GPU (on its peers), so the full MoE parameter
    // set is booked against the "offload" tier — which here stands for the
    // rest of the cluster's HBM, not host DRAM — while `is_resident` keeps
    // the core from ever copying anything across PCIe.
    fn offloads_experts(&self) -> bool {
        true
    }

    fn decoder_topology(&self, dec_blocks: usize) -> Result<pgmoe_model::GateTopology> {
        validate_gpus(self.num_gpus)?;
        Ok(pgmoe_model::GateTopology::conventional(dec_blocks))
    }

    fn hbm_plan(&self, profile: &MemoryProfile) -> HbmPlan {
        let g = self.num_gpus.max(1);
        let shard = profile.num_experts.div_ceil(g);
        HbmPlan {
            // The local shard is this GPU's permanent share of the experts.
            resident_bytes: (profile.moe_layers * shard) as u64 * profile.expert_bytes,
            transient_bytes: 0,
            encoder_staging_experts: 0,
        }
    }

    fn on_block_start(&mut self, _ctx: &PolicyCtx<'_>, _block: usize) -> Residency {
        // Somewhere in the cluster the expert is already in HBM.
        Residency::Resident
    }

    fn exec_plan(&self, ctx: &PolicyCtx<'_>, _block: usize, experts: &[usize]) -> ExecPlan {
        if experts.is_empty() {
            return ExecPlan::local(0, ctx.expert_bytes);
        }
        // The slowest owner executes ceil(|experts| / owners) experts; the
        // token exchange adds an all-to-all hop on both sides.
        let per_owner = experts.len().div_ceil(self.owners(experts));
        ExecPlan {
            exec_bytes: per_owner as u64 * ctx.expert_bytes,
            dispatch: self.a2a,
            combine: self.a2a,
        }
    }

    fn is_resident(&self, _key: ExpertKey) -> bool {
        true
    }
}

/// Simulates batch-1 decoding over an expert-parallel cluster by driving
/// the shared decode core with a [`PolicySpec::expert_parallel`] scheduler.
///
/// Experts of every MoE block are partitioned round-robin across GPUs; each
/// decode step routes the token through `top_k` experts per block,
/// requiring an all-to-all dispatch and combine over the interconnect. The
/// occupancy statistics (utilization, idle fraction) are computed over the
/// same routing trace the core executes.
///
/// # Errors
///
/// Returns an error if the shards do not fit per-GPU HBM, or the cluster
/// configuration is invalid.
pub fn simulate_expert_parallel(
    cfg: &ModelConfig,
    cluster: &ClusterConfig,
    decode_tokens: usize,
    seed: u64,
) -> Result<ClusterReport> {
    cluster.validate()?;
    let g = cluster.num_gpus;
    // Capacity check: each GPU holds the non-MoE replica + its expert shard.
    let shard_experts = cfg.num_experts.div_ceil(g);
    let shard_bytes =
        cfg.non_moe_bytes() + shard_experts as u64 * cfg.expert_bytes() * cfg.moe_layers() as u64;
    let mut pool = MemoryPool::new(Tier::Hbm, cluster.hbm_per_gpu);
    pool.alloc(shard_bytes).map_err(RuntimeError::OutOfMemory)?;

    let dec_blocks = cfg.decoder_moe_layers();
    let trace = RoutingTrace::generate(
        decode_tokens,
        dec_blocks,
        cfg.num_experts,
        cfg.top_k,
        RoutingKind::Uniform,
        seed,
    );

    // The machine stands for the cluster's critical-path GPU; the shards
    // run in lockstep, so one timeline prices every block.
    let spec = PolicySpec::expert_parallel(cluster);
    let mut opts = SimOptions::new(spec.clone());
    opts.machine = MachineConfig {
        hbm_capacity: cluster.hbm_per_gpu,
        cost: cluster.cost,
        ..MachineConfig::a100_like()
    };
    let plan = crate::PlacementPlan::new(cfg, &opts, 0, 1);
    let mut machine = Machine::new(opts.machine.clone());
    let mut sched = spec.build(&opts.setup_for(cfg));
    let topo = sched.decoder_topology(dec_blocks)?;

    // Only the MoE stack matters for the Section III-A statistics: drive
    // the core with one attention kernel per block (the paper's replicated
    // attention) and no dense-FFN interleave.
    let costs = DecodeCosts {
        attn_bytes: (4 * cfg.d_model * cfg.d_model) as u64,
        ffn_bytes: 0,
        decoder_layers: dec_blocks,
        moe_every: 1,
    };
    let mut cache = None;
    let mut demand_bytes = 0u64;
    let mut scratch = CoreScratch::new(dec_blocks, cfg.num_experts);
    let mut block_latencies: Vec<SimDuration> = Vec::with_capacity(decode_tokens * dec_blocks);
    for tok in 0..decode_tokens {
        let mut env = CoreEnv {
            machine: &mut machine,
            plan: &plan,
            cache: &mut cache,
            offload_tier: Tier::Ddr,
            num_experts: cfg.num_experts,
            demand_bytes: &mut demand_bytes,
        };
        core::decode_iteration(
            &mut env,
            sched.as_mut(),
            &topo,
            &TraceRouted { trace: &trace, token: tok },
            tok,
            0,
            &costs,
            &mut scratch,
            Some(&mut block_latencies),
            None,
        )?;
    }
    debug_assert_eq!(demand_bytes, 0, "cluster experts never migrate");

    // Occupancy statistics over the executed trace: which GPUs owned work,
    // and how long the slowest owner's kernel ran (the same pricing the
    // core used).
    let mut busy_expert = SimDuration::ZERO;
    let mut idle_blocks = 0u64;
    let mut blocks = 0u64;
    for tok in 0..decode_tokens {
        for b in 0..dec_blocks {
            let experts = trace.experts(tok, b);
            let owners: std::collections::HashSet<usize> = experts.iter().map(|e| e % g).collect();
            let per_owner = experts.len().div_ceil(owners.len());
            busy_expert += cluster.cost.membound_time(per_owner as u64 * cfg.expert_bytes());
            blocks += 1;
            idle_blocks += (g - owners.len()) as u64;
        }
    }
    let total: SimDuration = block_latencies.iter().fold(SimDuration::ZERO, |acc, &d| acc + d);
    let mean_block = SimDuration::from_nanos(total.as_nanos() / blocks.max(1));
    // Utilization: expert-busy GPU-time over total GPU-time across g GPUs.
    let utilization = busy_expert.as_nanos() as f64 / (total.as_nanos() as f64 * g as f64).max(1.0);
    Ok(ClusterReport {
        num_gpus: g,
        mean_block_latency: mean_block,
        expert_utilization: utilization,
        idle_block_fraction: idle_blocks as f64 / (blocks * g as u64).max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InferenceSim;
    use pgmoe_workload::DecodeRequest;

    #[test]
    fn switch_base_128_needs_multiple_gpus() {
        // 30 GB model: 1 GPU fits; but Switch-Large needs sharding.
        let large = ModelConfig::switch_large_128();
        let one = simulate_expert_parallel(&large, &ClusterConfig::a100_nvlink(1), 4, 1);
        assert!(one.is_err(), "105.6 GB cannot fit one 80 GB GPU");
        let four = simulate_expert_parallel(&large, &ClusterConfig::a100_nvlink(4), 4, 1);
        assert!(four.is_ok(), "4-way sharding must fit");
    }

    #[test]
    fn utilization_collapses_with_gpu_count() {
        // Section III-A: top-1 at batch 1 leaves most GPUs idle.
        let cfg = ModelConfig::switch_base(64);
        let u2 = simulate_expert_parallel(&cfg, &ClusterConfig::a100_nvlink(2), 16, 2)
            .unwrap()
            .expert_utilization;
        let u8 = simulate_expert_parallel(&cfg, &ClusterConfig::a100_nvlink(8), 16, 2)
            .unwrap()
            .expert_utilization;
        assert!(u8 < u2, "more GPUs must mean lower utilization ({u2} vs {u8})");
        assert!(u8 < 0.15, "8-way expert parallelism is mostly idle ({u8})");
    }

    #[test]
    fn idle_fraction_matches_top1_math() {
        // With top-1 routing, exactly one GPU owns the activated expert per
        // block: g-1 of g GPUs idle → idle fraction = (g-1)/g.
        let cfg = ModelConfig::switch_base(64);
        let r = simulate_expert_parallel(&cfg, &ClusterConfig::a100_nvlink(4), 8, 3).unwrap();
        assert!((r.idle_block_fraction - 0.75).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = ModelConfig::switch_base(8);
        let a = simulate_expert_parallel(&cfg, &ClusterConfig::a100_nvlink(2), 8, 5).unwrap();
        let b = simulate_expert_parallel(&cfg, &ClusterConfig::a100_nvlink(2), 8, 5).unwrap();
        assert_eq!(a.mean_block_latency, b.mean_block_latency);
    }

    /// Golden rows: the `ClusterScheduler` rewrite (through the shared
    /// decode core) must reproduce the legacy hand-rolled
    /// `simulate_expert_parallel` loop bit-exactly. Captured from the
    /// pre-rewrite implementation (commit `09c6314`).
    #[test]
    fn cluster_scheduler_reproduces_legacy_simulation_numbers() {
        let check = |experts: usize, g: usize, toks: usize, seed: u64, ns: u64, util: f64| {
            let cfg = ModelConfig::switch_base(experts);
            let r =
                simulate_expert_parallel(&cfg, &ClusterConfig::a100_nvlink(g), toks, seed).unwrap();
            let tag = format!("experts={experts} g={g} toks={toks} seed={seed}");
            assert_eq!(r.mean_block_latency.as_nanos(), ns, "{tag}: mean block latency");
            assert!((r.expert_utilization - util).abs() < 1e-12, "{tag}: utilization");
        };
        check(64, 4, 8, 3, 491_378, 0.20616307608399237);
        check(64, 2, 16, 2, 491_378, 0.41232615216798474);
        check(64, 8, 16, 2, 491_378, 0.10308153804199618);
        check(8, 2, 8, 5, 491_378, 0.41232615216798474);
        let large = ModelConfig::switch_large_128();
        let r = simulate_expert_parallel(&large, &ClusterConfig::a100_nvlink(4), 4, 1).unwrap();
        assert_eq!(r.mean_block_latency.as_nanos(), 835_446, "large golden");
        assert!((r.expert_utilization - 0.21277587061282238).abs() < 1e-12);
        assert!((r.idle_block_fraction - 0.75).abs() < 1e-12);
    }

    /// Hand-computable tiny topology: top-1 routing always activates one
    /// owner, so every MoE block costs attention + gate + two all-to-all
    /// hops + one expert kernel, and the per-GPU occupancy follows from
    /// closed-form arithmetic over the cost model.
    #[test]
    fn block_latency_and_occupancy_match_closed_form() {
        let cfg = ModelConfig::switch_base(8);
        let cluster = ClusterConfig::a100_nvlink(2);
        let r = simulate_expert_parallel(&cfg, &cluster, 8, 5).unwrap();
        let attn = cluster.cost.membound_time((4 * cfg.d_model * cfg.d_model) as u64);
        let exec = cluster.cost.membound_time(cfg.expert_bytes());
        let token_bytes = (cfg.d_model as f64 * cfg.precision.bytes_per_param()) as u64;
        let a2a = cluster.interconnect.transfer_time(token_bytes);
        let block = attn + cluster.cost.gate_overhead + a2a + exec + a2a;
        assert_eq!(r.mean_block_latency, block, "block = attn + gate + a2a + exec + a2a");
        let util = exec.as_nanos() as f64 / (block.as_nanos() as f64 * 2.0);
        assert!((r.expert_utilization - util).abs() < 1e-12, "util = exec / (block · g)");
        assert!((r.idle_block_fraction - 0.5).abs() < 1e-12, "(g-1)/g with g=2");
    }

    #[test]
    fn builders_override_cost_and_interconnect() {
        let slow_link = Link::new(64.0e9, SimDuration::from_micros(20));
        let slow = ClusterConfig::a100_nvlink(2).with_interconnect(slow_link);
        assert_eq!(slow.interconnect, slow_link);
        let cfg = ModelConfig::switch_base(8);
        let fast = simulate_expert_parallel(&cfg, &ClusterConfig::a100_nvlink(2), 4, 1).unwrap();
        let slowed = simulate_expert_parallel(&cfg, &slow, 4, 1).unwrap();
        assert!(
            slowed.mean_block_latency > fast.mean_block_latency,
            "a slower interconnect must lengthen every block ({} !> {})",
            slowed.mean_block_latency,
            fast.mean_block_latency
        );
        // A custom cost model flows into kernels and occupancy alike.
        let mut cheap_cost = CostModel::a100_pcie4();
        cheap_cost.effective_hbm_bw *= 2.0;
        let cheap = ClusterConfig::a100_nvlink(2).with_cost(cheap_cost);
        let faster = simulate_expert_parallel(&cfg, &cheap, 4, 1).unwrap();
        assert!(faster.mean_block_latency < fast.mean_block_latency);
        let tiny = ClusterConfig::a100_nvlink(4).with_hbm_per_gpu(1 << 30);
        assert!(simulate_expert_parallel(&cfg, &tiny, 4, 1).is_err(), "1 GB shards OOM");
    }

    #[test]
    fn zero_gpu_cluster_is_rejected_everywhere() {
        let cfg = ModelConfig::switch_base(8);
        let zero = ClusterConfig::a100_nvlink(0);
        assert!(matches!(zero.validate(), Err(RuntimeError::InvalidConfig { .. })));
        assert!(matches!(
            simulate_expert_parallel(&cfg, &zero, 4, 1),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        // The serving paths reject it through the scheduler's topology hook.
        let err = InferenceSim::new(cfg, SimOptions::new(PolicySpec::expert_parallel(&zero)))
            .run(DecodeRequest { input_tokens: 8, output_tokens: 2, batch_size: 1 }, 1);
        assert!(matches!(err, Err(RuntimeError::InvalidConfig { .. })));
    }

    #[test]
    fn cluster_spec_serves_through_the_shared_core() {
        // The motivation baseline as a drop-in backend: no host migration,
        // a2a-stretched blocks, name threading through RunReport.
        let cfg = ModelConfig::switch_base(8);
        let cluster = ClusterConfig::a100_nvlink(4);
        let mut opts = SimOptions::new(PolicySpec::expert_parallel(&cluster));
        opts.machine.cost = cluster.cost;
        let r = InferenceSim::new(cfg.clone(), opts)
            .run(DecodeRequest { input_tokens: 16, output_tokens: 4, batch_size: 1 }, 1)
            .unwrap();
        assert_eq!(r.policy, "Expert-Parallel-4GPU");
        assert_eq!(r.expert_fetch_bytes, 0, "nothing migrates from the host");
        assert_eq!(r.demand_fetch_bytes, 0);
        assert!(r.tokens_per_sec > 0.0);
        let gpu = InferenceSim::new(cfg, SimOptions::new(crate::OffloadPolicy::GpuOnly))
            .run(DecodeRequest { input_tokens: 16, output_tokens: 4, batch_size: 1 }, 1)
            .unwrap();
        assert!(
            r.mean_block_latency() > gpu.mean_block_latency(),
            "all-to-all hops must stretch every MoE block past GPU-only"
        );
    }
}
