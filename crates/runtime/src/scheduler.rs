//! The pluggable expert-scheduling API.
//!
//! The paper's four designs (GPU-only, on-demand, prefetch-all, pre-gated)
//! are one family of answers to a single question: *when* do an MoE block's
//! expert parameters migrate to the GPU, and *which* ones? This module turns
//! that question into a public seam — the [`ExpertScheduler`] trait — so new
//! strategies (speculative top-m prefetch, frequency-pinned residents,
//! anything a user can imagine) plug into the same decode core, cost model,
//! cache, and serving schedulers as the paper's baselines.
//!
//! A scheduler is a small state machine driven by the runtime's shared
//! decode core at three points per MoE block:
//!
//! 1. [`ExpertScheduler::on_iteration_start`] — once per decode iteration,
//!    before any block executes (MoE-Prefetch launches block 0's full-set
//!    migration here; SpeculativeTopM speculates the first block's experts).
//! 2. [`ExpertScheduler::on_block_start`] — how the executing block's
//!    experts become GPU-resident: already resident, fetched serially now,
//!    or awaited from an earlier prefetch (with automatic on-demand fill of
//!    anything the prefetch missed).
//! 3. [`ExpertScheduler::on_gate`] — once the block's gate has resolved,
//!    which *future* blocks' experts to start migrating (the pre-gate's
//!    whole trick).
//!
//! A scheduler also owns its memory contract ([`ExpertScheduler::hbm_plan`],
//! the paper's Equation 1 generalised) and may pin experts permanently
//! resident ([`ExpertScheduler::is_resident`]) or steer the expert cache
//! ([`ExpertScheduler::cache_admission`], [`ExpertScheduler::eviction_hint`]).
//!
//! Runs are configured with a [`PolicySpec`] — a cheap, cloneable handle to
//! a [`SchedulerFactory`]. The paper's four policies are available via
//! [`OffloadPolicy::scheduler`] (or just `SimOptions::new(OffloadPolicy::X)`,
//! which converts implicitly); two schedulers the old closed enum could not
//! express ship as [`PolicySpec::speculative_top_m`] and
//! [`PolicySpec::cache_pinned`]; `examples/custom_policy.rs` builds one
//! entirely outside this crate.

use crate::plan::{fingerprint_str, word_mix, RoutingSensitivity};
use crate::{ExpertCache, ExpertKey, OffloadPolicy, Result, RuntimeError};
use pgmoe_device::SimDuration;
use pgmoe_model::{GateTopology, GatingMode};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Context handed to scheduler hooks
// ---------------------------------------------------------------------

/// Which pass of the model the decode core is currently driving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Encoder / prompt prefill: expert activations are sampled as the pass
    /// runs, so [`PolicyCtx::experts`] is empty and prefetch directives
    /// should use [`FetchSet::Routed`] (the core samples the target set when
    /// it issues the copy).
    Prefill,
    /// Decode: the routing trace for the whole iteration is known, so
    /// [`PolicyCtx::experts`] answers for every block.
    Decode,
}

/// Read-only view of one iteration's state, handed to every scheduler hook.
///
/// Exposes the routing-trace window (which experts each block activates),
/// the gate topology, cache state, and the run's byte geometry — everything
/// a policy may condition on, nothing it may corrupt.
pub struct PolicyCtx<'a> {
    /// Which pass is executing.
    pub phase: Phase,
    /// Decode-iteration index within the request (0 during prefill).
    pub token: usize,
    /// Number of MoE blocks in the current pass (encoder blocks during
    /// [`Phase::Prefill`], decoder blocks during [`Phase::Decode`]).
    pub blocks: usize,
    /// Experts per MoE block.
    pub num_experts: usize,
    /// Experts activated per token per block for this run.
    pub active_per_block: usize,
    /// Bytes of one expert at the run's effective precision.
    pub expert_bytes: u64,
    /// The decoder's gate topology (which block hosts which block's gate).
    pub topology: &'a GateTopology,
    pub(crate) routed: RoutedView<'a>,
    pub(crate) cache: Option<&'a ExpertCache>,
}

/// Internal routing view behind [`PolicyCtx::experts`].
pub(crate) enum RoutedView<'a> {
    /// No routing decisions visible (prefill: sampled by the core).
    Hidden,
    /// Per-block expert sets for the current decode iteration.
    Sets(&'a dyn RoutedSource),
}

/// Source of per-block routed expert sets (object-safe so the engine's
/// trace-backed view and the batch scheduler's union-backed view share one
/// decode core).
pub(crate) trait RoutedSource {
    fn experts(&self, block: usize) -> &[usize];
}

impl PolicyCtx<'_> {
    /// The sorted expert set block `block` activates this iteration, or an
    /// empty slice during [`Phase::Prefill`] (where activations are sampled
    /// by the core as the pass runs).
    pub fn experts(&self, block: usize) -> &[usize] {
        match self.routed {
            RoutedView::Hidden => &[],
            RoutedView::Sets(s) => s.experts(block),
        }
    }

    /// Whether `key` is currently resident in the expert cache (false when
    /// no cache is configured). Does not touch recency/frequency state.
    pub fn cache_contains(&self, key: ExpertKey) -> bool {
        self.cache.map(|c| c.contains(key)).unwrap_or(false)
    }

    /// Whether an expert cache is configured for this run.
    pub fn has_cache(&self) -> bool {
        self.cache.is_some()
    }
}

// ---------------------------------------------------------------------
// Hook vocabulary
// ---------------------------------------------------------------------

/// Which experts a fetch directive moves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchSet {
    /// The target block's routed (activated) expert set. During prefill the
    /// core samples the set when the copy is issued, mirroring how a real
    /// pre-gate's selection materialises just-in-time.
    Routed,
    /// Every expert of the target block (MoE-Prefetch's firehose).
    All,
    /// An explicit sorted expert list chosen by the scheduler (speculative
    /// supersets, frequency predictions, random strawmen, ...).
    Listed(Vec<usize>),
}

/// A migration directive: start moving `set` for MoE block `block` now.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prefetch {
    /// Target MoE block (index within the current pass).
    pub block: usize,
    /// Which experts to move.
    pub set: FetchSet,
    /// Whether the copy must wait for the issuing block's gate to resolve
    /// (true for anything derived from routing; false for blind prefetch).
    pub after_gate: bool,
}

/// How the executing block's experts become GPU-resident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Residency {
    /// Weights are already on the GPU (GPU-only, or fully pinned blocks):
    /// execution waits only on the gate.
    Resident,
    /// Fetch `set` serially right now — the fetch is on the block's
    /// critical path (MoE-OnDemand's defining cost).
    Fetch {
        /// Which experts to move.
        set: FetchSet,
        /// Whether the copy waits on this block's gate.
        after_gate: bool,
    },
    /// Wait on the prefetch issued earlier for this block. Any activated
    /// expert the prefetch did not cover is fetched on demand (counted as a
    /// miss stall); if no prefetch is in flight at all, the core falls back
    /// to a serialized routed fetch, exactly like the paper's first-block
    /// footnote.
    AwaitPending,
}

/// How one MoE block's activated experts *execute*, consumed by the decode
/// core when it launches the block's expert kernel.
///
/// The default ([`ExecPlan::local`]) is single-GPU execution: the executing
/// GPU streams every activated expert's weights and no communication
/// happens. Schedulers that model distributed execution — the expert-parallel
/// [`ClusterScheduler`] sharding experts across GPUs — override
/// [`ExpertScheduler::exec_plan`] to charge only the critical-path shard and
/// to serialize all-to-all dispatch/combine hops around the kernel.
///
/// [`ClusterScheduler`]: crate::ClusterConfig
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPlan {
    /// HBM bytes the critical-path GPU streams executing the block's
    /// experts (the kernel is memory-bound at batch 1).
    pub exec_bytes: u64,
    /// Communication serialized *before* execution (all-to-all token
    /// dispatch under expert parallelism; zero on a single GPU).
    pub dispatch: SimDuration,
    /// Communication serialized *after* execution (all-to-all result
    /// combine; zero on a single GPU).
    pub combine: SimDuration,
}

impl ExecPlan {
    /// Single-GPU execution of `count` experts of `expert_bytes` each — the
    /// default every non-distributed scheduler uses.
    pub fn local(count: usize, expert_bytes: u64) -> Self {
        ExecPlan {
            exec_bytes: count as u64 * expert_bytes,
            dispatch: SimDuration::ZERO,
            combine: SimDuration::ZERO,
        }
    }
}

/// A scheduler's memory contract, consumed by the placement planner — the
/// paper's Equation 1 generalised per policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HbmPlan {
    /// HBM held for the whole run beyond weights/activations/cache (e.g.
    /// frequency-pinned resident experts).
    pub resident_bytes: u64,
    /// Peak transient migration-buffer bytes while one MoE block is in
    /// flight (two activated sets for the pre-gated pipeline, two full
    /// blocks for prefetch-all, ...).
    pub transient_bytes: u64,
    /// Experts' worth of staging the encoder pass streams its fetches
    /// through (0 when nothing migrates).
    pub encoder_staging_experts: u64,
}

impl HbmPlan {
    /// Resident plus transient bytes — the scheduler's whole claim on the
    /// HBM budget for one in-flight block. The paged-KV session arbitrates
    /// the expert cache against KV blocks around this floor: the cache may
    /// shrink under KV pressure, but the scheduler's own claim never does.
    pub fn total_bytes(&self) -> u64 {
        self.resident_bytes + self.transient_bytes
    }
}

/// Byte geometry a scheduler's memory hooks are evaluated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryProfile {
    /// Bytes of one expert at the run's effective precision.
    pub expert_bytes: u64,
    /// Experts per MoE block.
    pub num_experts: usize,
    /// Experts activated per block — the request's `top_k` for a single
    /// sequence, or the batch's union size for admission control.
    pub active_per_block: usize,
    /// Total MoE blocks in the model (encoder + decoder).
    pub moe_layers: usize,
}

/// Everything a [`SchedulerFactory`] gets to instantiate a per-run
/// scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerSetup {
    /// Decoder MoE blocks per iteration.
    pub dec_blocks: usize,
    /// Encoder MoE blocks per prefill pass.
    pub enc_blocks: usize,
    /// Experts per MoE block.
    pub num_experts: usize,
    /// Experts activated per token per block.
    pub active_per_block: usize,
    /// Bytes of one token's activation vector at the model's precision —
    /// what an all-to-all exchange moves per hop under expert parallelism.
    pub token_bytes: u64,
    /// The run's gate topology request ([`GatingMode::Conventional`] means
    /// "the scheduler's default level").
    pub gating: GatingMode,
    /// The run's routing seed (for schedulers that speculate).
    pub seed: u64,
}

impl SchedulerSetup {
    /// The pre-gate activation level this run asks for (≥ 1; conventional
    /// gating maps to the paper's default level 1).
    pub fn level(&self) -> usize {
        self.gating.level().max(1)
    }
}

// ---------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------

/// An expert-migration strategy, driven by the runtime's shared decode core.
///
/// One instance is built per run ([`SchedulerFactory::build`]) and may keep
/// arbitrary mutable state across iterations (observed frequencies, pending
/// predictions, ...). All hooks are infallible by design: a scheduler
/// *decides*, the core *executes* (and surfaces OOM or config errors).
///
/// See the [module docs](self) for the hook protocol and
/// `examples/custom_policy.rs` for a complete out-of-crate implementation.
pub trait ExpertScheduler {
    /// Display name threaded into `RunReport`/`ServeStats` and every sweep.
    fn name(&self) -> String;

    /// Whether expert parameters live off-GPU under this scheduler (false
    /// only for GPU-resident baselines).
    fn offloads_experts(&self) -> bool {
        true
    }

    /// Whether this scheduler consumes pre-gate routing (selection for block
    /// `b` available before block `b` starts). Configuring
    /// [`GatingMode::Pregated`] on a scheduler that answers false is
    /// rejected as an invalid configuration.
    fn uses_pregate(&self) -> bool {
        false
    }

    /// The decoder gate topology this scheduler runs under.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] if the topology cannot exist (e.g. a
    /// pre-gate level at or beyond the block count).
    fn decoder_topology(&self, dec_blocks: usize) -> Result<GateTopology> {
        Ok(GateTopology::conventional(dec_blocks))
    }

    /// The scheduler's Equation-1 memory contract for one in-flight block.
    fn hbm_plan(&self, profile: &MemoryProfile) -> HbmPlan;

    /// Worst-case transient bytes one decode iteration can have in flight —
    /// the headroom continuous-batching admission control must keep free.
    /// `profile.active_per_block` is the admitted batch's union size.
    /// Defaults to [`ExpertScheduler::hbm_plan`]'s transient bytes.
    fn admission_transient_bytes(&self, profile: &MemoryProfile) -> u64 {
        self.hbm_plan(profile).transient_bytes
    }

    /// Called once per decode iteration before any block executes; push
    /// migration directives into `out` (e.g. block 0's prefetch, which no
    /// gate can cover).
    fn on_iteration_start(&mut self, ctx: &PolicyCtx<'_>, out: &mut Vec<Prefetch>) {
        let _ = (ctx, out);
    }

    /// How block `block`'s activated experts become GPU-resident.
    fn on_block_start(&mut self, ctx: &PolicyCtx<'_>, block: usize) -> Residency;

    /// How block `block`'s experts *execute* once resident: the bytes the
    /// critical-path GPU streams and any serialized communication around
    /// the kernel. `experts` is the set the core is about to execute (the
    /// routed set or batch union during decode, the sampled activation set
    /// during prefill). Defaults to single-GPU execution of the whole set;
    /// distributed schedulers (expert parallelism) override this.
    fn exec_plan(&self, ctx: &PolicyCtx<'_>, block: usize, experts: &[usize]) -> ExecPlan {
        let _ = block;
        ExecPlan::local(experts.len(), ctx.expert_bytes)
    }

    /// Called after block `block`'s gate has resolved (and its residency was
    /// settled); push prefetch directives for *future* blocks into `out`.
    fn on_gate(&mut self, ctx: &PolicyCtx<'_>, block: usize, out: &mut Vec<Prefetch>) {
        let _ = (ctx, block, out);
    }

    /// Whether `key` is permanently GPU-resident under this scheduler
    /// (pinned experts are never fetched and never occupy cache slots).
    fn is_resident(&self, key: ExpertKey) -> bool {
        let _ = key;
        false
    }

    /// Whether a fetched expert should be admitted into the expert cache
    /// (consulted on every cache miss of a cache with nonzero capacity, and
    /// never on a hit; defaults to admit-everything).
    fn cache_admission(&self, key: ExpertKey) -> bool {
        let _ = key;
        true
    }

    /// A preferred eviction victim when admitting `key` into a full cache;
    /// `None` defers to the cache's configured replacement policy. A hint
    /// that is not resident is ignored. Consulted alongside
    /// [`ExpertScheduler::cache_admission`], on misses only.
    fn eviction_hint(&self, key: ExpertKey) -> Option<ExpertKey> {
        let _ = key;
        None
    }

    /// Fingerprint of this scheduler's *decision function* for compiled-plan
    /// caching, or `None` (the default) to opt out of plan caching.
    ///
    /// Returning `Some(fp)` is a contract: every hook must be a pure
    /// function of the scheduler's construction-time configuration (folded
    /// into `fp`) and the [`PolicyCtx`] fields the plan cache keys on — the
    /// routing window (see [`ExpertScheduler::plan_routing_sensitivity`])
    /// and `expert_bytes` (runs with an [`ExpertCache`] attached are never
    /// keyed, so `ctx.cache` is `None` here). Hooks must not consult
    /// mutable state accumulated across iterations and must not condition
    /// on `ctx.token`; schedulers that do either (e.g. the
    /// frequency-tracking `speculative_top_m`) must keep the `None`
    /// default, which makes the core interpret every iteration.
    fn plan_fingerprint(&self) -> Option<u64> {
        None
    }

    /// How much of the routing window this scheduler's decisions read,
    /// which decides what a compiled plan may leave symbolic. The
    /// conservative default, [`RoutingSensitivity::Exact`], keys plans on
    /// every routed expert id. A scheduler whose hooks never call
    /// [`PolicyCtx::experts`], never pin an expert through
    /// [`ExpertScheduler::is_resident`], and keep the default
    /// [`ExpertScheduler::exec_plan`] may answer
    /// [`RoutingSensitivity::Oblivious`]: its plans record routed fetch
    /// counts and expert-kernel bytes as parameters resolved at replay, so
    /// one plan serves every routing of a batch shape. Declaring it
    /// without meeting the contract replays wrong schedules; the recorder
    /// catches pinned experts, non-default exec plans and identity-sized
    /// fills in the iteration it records, not in later ones.
    fn plan_routing_sensitivity(&self) -> RoutingSensitivity {
        RoutingSensitivity::Exact
    }
}

/// Builds a fresh [`ExpertScheduler`] for each run.
///
/// Factories are the cloneable, shareable half of a policy: `SimOptions`
/// carries one (via [`PolicySpec`]) and every `InferenceSim::run` /
/// `BatchScheduler::serve` call instantiates its own scheduler state from
/// it, so concurrent runs never share mutable policy state.
pub trait SchedulerFactory: std::fmt::Debug + Send + Sync {
    /// Static display name for listings. Per-run reports
    /// (`RunReport::policy`, `ServeStats::policy`) use the *built*
    /// scheduler's [`ExpertScheduler::name`] instead, which may reflect
    /// run-clamped parameters (e.g. a speculative margin capped at the
    /// expert count).
    fn scheduler_name(&self) -> String;

    /// Instantiates per-run scheduler state.
    fn build(&self, setup: &SchedulerSetup) -> Box<dyn ExpertScheduler>;
}

/// A cheap, cloneable handle to an expert-scheduling policy.
///
/// Obtain one from [`OffloadPolicy::scheduler`] (the paper's four built-ins
/// — `SimOptions::new` also accepts the enum directly), from the
/// [`PolicySpec::speculative_top_m`] / [`PolicySpec::cache_pinned`]
/// constructors, or from [`PolicySpec::custom`] with your own factory.
#[derive(Debug, Clone)]
pub struct PolicySpec {
    factory: Arc<dyn SchedulerFactory>,
}

impl PolicySpec {
    /// Wraps a user-provided scheduler factory — the extension seam.
    pub fn custom(factory: Arc<dyn SchedulerFactory>) -> Self {
        PolicySpec { factory }
    }

    /// Speculative top-m prefetch: pre-gated migration widened to the
    /// predictor's top `margin ≥ top_k` candidates per block, plus a
    /// frequency-based speculation for the first block of each iteration
    /// (which plain pre-gating must fetch serially). Trades link bytes for
    /// on-demand miss stalls — something the closed policy enum could not
    /// express.
    pub fn speculative_top_m(margin: usize) -> Self {
        PolicySpec { factory: Arc::new(SpeculativeTopMFactory { margin }) }
    }

    /// Frequency-pinned residents: the `per_block` lowest-Zipf-rank experts
    /// of every MoE block stay permanently in HBM (paid for in Equation 1's
    /// static term), and the unpinned tail migrates pre-gated.
    pub fn cache_pinned(per_block: usize) -> Self {
        PolicySpec { factory: Arc::new(CachePinnedFactory { per_block }) }
    }

    /// The policy's display name (see
    /// [`SchedulerFactory::scheduler_name`] for how it relates to per-run
    /// report names).
    pub fn name(&self) -> String {
        self.factory.scheduler_name()
    }

    /// Instantiates the per-run scheduler state.
    pub fn build(&self, setup: &SchedulerSetup) -> Box<dyn ExpertScheduler> {
        self.factory.build(setup)
    }
}

impl From<OffloadPolicy> for PolicySpec {
    fn from(policy: OffloadPolicy) -> Self {
        policy.scheduler()
    }
}

impl OffloadPolicy {
    /// The built-in [`ExpertScheduler`] implementing this paper policy.
    ///
    /// The enum survives purely as a convenience constructor: every Table I
    /// / Fig 9–16 reproduction path spells `SimOptions::new(OffloadPolicy::X)`
    /// and runs through the same trait-driven decode core as any custom
    /// scheduler.
    pub fn scheduler(self) -> PolicySpec {
        PolicySpec { factory: Arc::new(PaperFactory { policy: self }) }
    }
}

// ---------------------------------------------------------------------
// Built-ins: the paper's four policies
// ---------------------------------------------------------------------

#[derive(Debug)]
struct PaperFactory {
    policy: OffloadPolicy,
}

impl SchedulerFactory for PaperFactory {
    fn scheduler_name(&self) -> String {
        self.policy.paper_name().to_string()
    }

    fn build(&self, setup: &SchedulerSetup) -> Box<dyn ExpertScheduler> {
        match self.policy {
            OffloadPolicy::GpuOnly => Box::new(GpuOnlySched),
            OffloadPolicy::OnDemand => Box::new(OnDemandSched),
            OffloadPolicy::PrefetchAll => Box::new(PrefetchAllSched),
            OffloadPolicy::Pregated => Box::new(PregatedSched { level: setup.level() }),
        }
    }
}

/// GPU-only: every parameter resident, no migration.
#[derive(Debug)]
struct GpuOnlySched;

impl ExpertScheduler for GpuOnlySched {
    fn name(&self) -> String {
        OffloadPolicy::GpuOnly.paper_name().to_string()
    }

    fn offloads_experts(&self) -> bool {
        false
    }

    fn hbm_plan(&self, _profile: &MemoryProfile) -> HbmPlan {
        HbmPlan { resident_bytes: 0, transient_bytes: 0, encoder_staging_experts: 0 }
    }

    fn on_block_start(&mut self, _ctx: &PolicyCtx<'_>, _block: usize) -> Residency {
        Residency::Resident
    }

    fn plan_fingerprint(&self) -> Option<u64> {
        Some(fingerprint_str("gpu-only"))
    }

    fn plan_routing_sensitivity(&self) -> RoutingSensitivity {
        RoutingSensitivity::Oblivious
    }
}

/// HF-Accelerate-style fetch-on-demand: gate, then fetch, then execute.
#[derive(Debug)]
struct OnDemandSched;

impl ExpertScheduler for OnDemandSched {
    fn name(&self) -> String {
        OffloadPolicy::OnDemand.paper_name().to_string()
    }

    fn hbm_plan(&self, profile: &MemoryProfile) -> HbmPlan {
        HbmPlan {
            resident_bytes: 0,
            transient_bytes: profile.active_per_block as u64 * profile.expert_bytes,
            encoder_staging_experts: 1,
        }
    }

    fn on_block_start(&mut self, _ctx: &PolicyCtx<'_>, _block: usize) -> Residency {
        Residency::Fetch { set: FetchSet::Routed, after_gate: true }
    }

    fn plan_fingerprint(&self) -> Option<u64> {
        Some(fingerprint_str("on-demand"))
    }

    fn plan_routing_sensitivity(&self) -> RoutingSensitivity {
        RoutingSensitivity::Oblivious
    }
}

/// SE-MoE-style prefetch-all: the next block's *entire* expert set migrates
/// during the current block's execution.
#[derive(Debug)]
struct PrefetchAllSched;

impl ExpertScheduler for PrefetchAllSched {
    fn name(&self) -> String {
        OffloadPolicy::PrefetchAll.paper_name().to_string()
    }

    fn hbm_plan(&self, profile: &MemoryProfile) -> HbmPlan {
        let e = profile.num_experts as u64;
        HbmPlan {
            resident_bytes: 0,
            transient_bytes: 2 * e * profile.expert_bytes,
            encoder_staging_experts: 2 * e,
        }
    }

    fn on_iteration_start(&mut self, ctx: &PolicyCtx<'_>, out: &mut Vec<Prefetch>) {
        if ctx.phase == Phase::Decode {
            out.push(Prefetch { block: 0, set: FetchSet::All, after_gate: false });
        }
    }

    fn on_block_start(&mut self, ctx: &PolicyCtx<'_>, _block: usize) -> Residency {
        match ctx.phase {
            // The encoder has no per-block prefetch pipeline: each block
            // streams the full set through staging as it executes.
            Phase::Prefill => Residency::Fetch { set: FetchSet::All, after_gate: false },
            Phase::Decode => Residency::AwaitPending,
        }
    }

    fn on_gate(&mut self, ctx: &PolicyCtx<'_>, block: usize, out: &mut Vec<Prefetch>) {
        if ctx.phase == Phase::Decode && block + 1 < ctx.blocks {
            out.push(Prefetch { block: block + 1, set: FetchSet::All, after_gate: false });
        }
    }

    fn plan_fingerprint(&self) -> Option<u64> {
        Some(fingerprint_str("prefetch-all"))
    }

    fn plan_routing_sensitivity(&self) -> RoutingSensitivity {
        RoutingSensitivity::Oblivious
    }
}

/// The paper's co-design: the pre-gate hosted at block `b` selects block
/// `b + level`'s experts, so only activated experts migrate, overlapped
/// with execution.
#[derive(Debug)]
struct PregatedSched {
    level: usize,
}

impl ExpertScheduler for PregatedSched {
    fn name(&self) -> String {
        OffloadPolicy::Pregated.paper_name().to_string()
    }

    fn uses_pregate(&self) -> bool {
        true
    }

    fn decoder_topology(&self, dec_blocks: usize) -> Result<GateTopology> {
        pregated_topology(self.level, dec_blocks)
    }

    fn hbm_plan(&self, profile: &MemoryProfile) -> HbmPlan {
        HbmPlan {
            resident_bytes: 0,
            // Equation 1: the activated sets of two consecutive blocks.
            transient_bytes: 2 * profile.active_per_block as u64 * profile.expert_bytes,
            encoder_staging_experts: 2,
        }
    }

    fn admission_transient_bytes(&self, profile: &MemoryProfile) -> u64 {
        // A level-N pre-gate keeps up to N prefetched unions in flight on
        // top of the executing block's set.
        (self.level as u64 + 1) * profile.active_per_block as u64 * profile.expert_bytes
    }

    fn on_block_start(&mut self, _ctx: &PolicyCtx<'_>, _block: usize) -> Residency {
        Residency::AwaitPending
    }

    fn on_gate(&mut self, ctx: &PolicyCtx<'_>, block: usize, out: &mut Vec<Prefetch>) {
        pregated_on_gate(ctx, block, out);
    }

    fn plan_fingerprint(&self) -> Option<u64> {
        Some(word_mix(fingerprint_str("pregated"), self.level as u64))
    }

    fn plan_routing_sensitivity(&self) -> RoutingSensitivity {
        RoutingSensitivity::Oblivious
    }
}

/// Shared pre-gated fan-out: prefetch every future block whose gate is
/// hosted at `block` (decode follows the topology; prefill pipelines the
/// next block, as the paper's encoder does).
///
/// Of the targets [`GateTopology::gates_hosted_at`] lists for `block`, the
/// only one other than `block` itself is the pre-gate's `block + level`,
/// when that is still inside the stack (none under conventional gating,
/// level 0), so decode pushes that one directly rather than collecting the
/// list.
fn pregated_on_gate(ctx: &PolicyCtx<'_>, block: usize, out: &mut Vec<Prefetch>) {
    let (target, blocks) = match ctx.phase {
        Phase::Prefill => (block + 1, ctx.blocks),
        Phase::Decode => match ctx.topology.mode().level() {
            0 => return,
            level => (block + level, ctx.topology.num_blocks()),
        },
    };
    if target < blocks {
        out.push(Prefetch { block: target, set: FetchSet::Routed, after_gate: true });
    }
}

/// Validated pre-gated decoder topology.
fn pregated_topology(level: usize, dec_blocks: usize) -> Result<GateTopology> {
    if level >= dec_blocks {
        return Err(RuntimeError::InvalidConfig {
            message: format!(
                "pre-gate level {level} needs more than {dec_blocks} decoder MoE blocks"
            ),
        });
    }
    Ok(GateTopology::new(dec_blocks, GatingMode::Pregated { level }))
}

// ---------------------------------------------------------------------
// SpeculativeTopM
// ---------------------------------------------------------------------

#[derive(Debug)]
struct SpeculativeTopMFactory {
    margin: usize,
}

impl SchedulerFactory for SpeculativeTopMFactory {
    fn scheduler_name(&self) -> String {
        format!("Speculative-Top{}", self.margin)
    }

    fn build(&self, setup: &SchedulerSetup) -> Box<dyn ExpertScheduler> {
        let margin = self.margin.clamp(setup.active_per_block, setup.num_experts);
        Box::new(SpeculativeTopMSched {
            margin,
            level: setup.level(),
            freq: vec![0; setup.num_experts],
            freq_version: 0,
            ranked: (0..setup.num_experts).collect(),
            ranked_version: u64::MAX,
        })
    }
}

/// Pre-gated migration widened to a top-`margin` candidate superset, plus a
/// frequency-predicted speculation for the first block of each iteration.
///
/// Plain pre-gating must fetch the first block's experts serially (no
/// earlier gate exists to pre-select them — the paper's footnote 1). This
/// scheduler keeps an activation-frequency histogram and, at iteration
/// start, speculatively migrates the `margin` historically hottest experts
/// for block 0; whatever the gate then actually picks is usually already
/// in flight. Misses are fetched on demand and counted as demand stalls —
/// strictly fewer than pre-gating's, at strictly more link bytes.
#[derive(Debug)]
struct SpeculativeTopMSched {
    margin: usize,
    level: usize,
    /// Observed activation counts across all decoder blocks.
    freq: Vec<u64>,
    /// Bumped whenever `freq` changes, so the ranking below is re-sorted
    /// lazily — once per observation batch, not once per prefetch directive.
    freq_version: u64,
    /// Expert ids sorted hottest-first at `ranked_version` (reused buffer).
    ranked: Vec<usize>,
    ranked_version: u64,
}

impl SpeculativeTopMSched {
    /// Expert ids sorted hottest-first (ties broken by index, so the
    /// prediction is deterministic from the routing trace alone). Cached
    /// against `freq_version`: the per-token host path re-sorts at most
    /// once per frequency update instead of once per directive.
    fn ranked(&mut self) -> &[usize] {
        if self.ranked_version != self.freq_version {
            let freq = &self.freq;
            self.ranked.sort_by_key(|&e| (std::cmp::Reverse(freq[e]), e));
            self.ranked_version = self.freq_version;
        }
        &self.ranked
    }

    /// The `margin` hottest experts so far, sorted by id.
    fn top_margin(&mut self) -> Vec<usize> {
        let margin = self.margin;
        let mut top: Vec<usize> = self.ranked()[..margin].to_vec();
        top.sort_unstable();
        top
    }

    /// `routed` widened with the hottest non-routed experts up to `margin`.
    fn widened(&mut self, routed: &[usize]) -> Vec<usize> {
        let margin = self.margin;
        let mut set: Vec<usize> = routed.to_vec();
        for &e in self.ranked() {
            if set.len() >= margin {
                break;
            }
            if !routed.contains(&e) {
                set.push(e);
            }
        }
        set.sort_unstable();
        set
    }
}

impl ExpertScheduler for SpeculativeTopMSched {
    fn name(&self) -> String {
        format!("Speculative-Top{}", self.margin)
    }

    fn uses_pregate(&self) -> bool {
        true
    }

    fn decoder_topology(&self, dec_blocks: usize) -> Result<GateTopology> {
        pregated_topology(self.level, dec_blocks)
    }

    fn hbm_plan(&self, profile: &MemoryProfile) -> HbmPlan {
        let m = self.margin.max(profile.active_per_block).min(profile.num_experts) as u64;
        HbmPlan {
            resident_bytes: 0,
            // Two widened sets in the pre-gate pipeline plus the iteration's
            // block-0 speculation can be in flight together.
            transient_bytes: (3 * m + profile.active_per_block as u64) * profile.expert_bytes,
            encoder_staging_experts: 2,
        }
    }

    fn admission_transient_bytes(&self, profile: &MemoryProfile) -> u64 {
        let m = self.margin.max(profile.active_per_block).min(profile.num_experts) as u64;
        (self.level as u64 + 2) * m * profile.expert_bytes
    }

    fn on_iteration_start(&mut self, ctx: &PolicyCtx<'_>, out: &mut Vec<Prefetch>) {
        if ctx.phase == Phase::Decode && ctx.token > 0 {
            out.push(Prefetch {
                block: 0,
                set: FetchSet::Listed(self.top_margin()),
                after_gate: false,
            });
        }
    }

    fn on_block_start(&mut self, ctx: &PolicyCtx<'_>, block: usize) -> Residency {
        if ctx.phase == Phase::Decode {
            for &e in ctx.experts(block) {
                self.freq[e] += 1;
            }
            self.freq_version += 1;
        }
        Residency::AwaitPending
    }

    fn on_gate(&mut self, ctx: &PolicyCtx<'_>, block: usize, out: &mut Vec<Prefetch>) {
        match ctx.phase {
            Phase::Prefill => pregated_on_gate(ctx, block, out),
            Phase::Decode => {
                for target in ctx.topology.gates_hosted_at(block) {
                    if target != block {
                        let widened = self.widened(ctx.experts(target));
                        out.push(Prefetch {
                            block: target,
                            set: FetchSet::Listed(widened),
                            after_gate: true,
                        });
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// CachePinned
// ---------------------------------------------------------------------

#[derive(Debug)]
struct CachePinnedFactory {
    per_block: usize,
}

impl SchedulerFactory for CachePinnedFactory {
    fn scheduler_name(&self) -> String {
        format!("Cache-Pinned-{}", self.per_block)
    }

    fn build(&self, setup: &SchedulerSetup) -> Box<dyn ExpertScheduler> {
        Box::new(CachePinnedSched {
            per_block: self.per_block.min(setup.num_experts),
            level: setup.level(),
        })
    }
}

/// Frequency-pinned residents + pre-gated tail.
///
/// The `per_block` hottest experts of every MoE block (the lowest Zipf
/// ranks — [`pgmoe_workload::RoutingKind::Zipf`] puts rank 1 at index 0)
/// are held permanently in HBM, paid for in Equation 1's static term;
/// everything else migrates through the pre-gated pipeline. Pinned experts
/// are never fetched, never stall, and never churn the expert cache —
/// a static counterpart to LIFO/LFU/LRU buffering the closed enum had no
/// way to spell.
#[derive(Debug)]
struct CachePinnedSched {
    per_block: usize,
    level: usize,
}

impl ExpertScheduler for CachePinnedSched {
    fn name(&self) -> String {
        format!("Cache-Pinned-{}", self.per_block)
    }

    fn uses_pregate(&self) -> bool {
        true
    }

    fn decoder_topology(&self, dec_blocks: usize) -> Result<GateTopology> {
        pregated_topology(self.level, dec_blocks)
    }

    fn hbm_plan(&self, profile: &MemoryProfile) -> HbmPlan {
        HbmPlan {
            resident_bytes: (profile.moe_layers * self.per_block) as u64 * profile.expert_bytes,
            transient_bytes: 2 * profile.active_per_block as u64 * profile.expert_bytes,
            encoder_staging_experts: 2,
        }
    }

    fn admission_transient_bytes(&self, profile: &MemoryProfile) -> u64 {
        (self.level as u64 + 1) * profile.active_per_block as u64 * profile.expert_bytes
    }

    fn is_resident(&self, key: ExpertKey) -> bool {
        key.expert < self.per_block
    }

    fn cache_admission(&self, key: ExpertKey) -> bool {
        // Pinned experts never transit the cache; everything else may.
        !self.is_resident(key)
    }

    fn on_block_start(&mut self, _ctx: &PolicyCtx<'_>, _block: usize) -> Residency {
        Residency::AwaitPending
    }

    fn on_gate(&mut self, ctx: &PolicyCtx<'_>, block: usize, out: &mut Vec<Prefetch>) {
        pregated_on_gate(ctx, block, out);
    }

    fn plan_fingerprint(&self) -> Option<u64> {
        // Keeps the `Exact` routing-sensitivity default: `is_resident`
        // partitions the routed set by expert id.
        Some(word_mix(
            word_mix(fingerprint_str("cache-pinned"), self.per_block as u64),
            self.level as u64,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> SchedulerSetup {
        SchedulerSetup {
            dec_blocks: 6,
            enc_blocks: 6,
            num_experts: 64,
            active_per_block: 1,
            token_bytes: 3072,
            gating: GatingMode::Conventional,
            seed: 7,
        }
    }

    fn profile() -> MemoryProfile {
        MemoryProfile { expert_bytes: 100, num_experts: 64, active_per_block: 1, moe_layers: 12 }
    }

    #[test]
    fn paper_names_thread_through_specs() {
        for policy in OffloadPolicy::ALL {
            assert_eq!(policy.scheduler().name(), policy.paper_name());
            let spec: PolicySpec = policy.into();
            assert_eq!(spec.build(&setup()).name(), policy.paper_name());
        }
        assert_eq!(PolicySpec::speculative_top_m(8).name(), "Speculative-Top8");
        assert_eq!(PolicySpec::cache_pinned(4).name(), "Cache-Pinned-4");
    }

    #[test]
    fn paper_hbm_plans_match_equation1() {
        let p = profile();
        let plan = |policy: OffloadPolicy| policy.scheduler().build(&setup()).hbm_plan(&p);
        assert_eq!(plan(OffloadPolicy::GpuOnly).transient_bytes, 0);
        assert_eq!(plan(OffloadPolicy::OnDemand).transient_bytes, 100);
        assert_eq!(plan(OffloadPolicy::Pregated).transient_bytes, 200);
        assert_eq!(plan(OffloadPolicy::PrefetchAll).transient_bytes, 2 * 64 * 100);
        assert!(!OffloadPolicy::GpuOnly.scheduler().build(&setup()).offloads_experts());
    }

    #[test]
    fn pregated_level_drives_admission_bound() {
        let mut s = setup();
        s.gating = GatingMode::Pregated { level: 2 };
        let sched = OffloadPolicy::Pregated.scheduler().build(&s);
        assert_eq!(sched.admission_transient_bytes(&profile()), 3 * 100);
        assert!(sched.uses_pregate());
        assert!(sched.decoder_topology(6).is_ok());
        assert!(sched.decoder_topology(2).is_err(), "level 2 needs > 2 blocks");
    }

    #[test]
    fn speculative_margin_is_clamped_and_widens() {
        let spec = PolicySpec::speculative_top_m(200);
        let sched = spec.build(&setup());
        // Clamped to the expert count.
        assert_eq!(sched.name(), "Speculative-Top64");
        let spec = PolicySpec::speculative_top_m(4);
        let mut sched = spec.build(&setup());
        let topo = sched.decoder_topology(6).unwrap();
        // Before any observation there is no block-0 speculation.
        let ctx = PolicyCtx {
            phase: Phase::Decode,
            token: 0,
            blocks: 6,
            num_experts: 64,
            active_per_block: 1,
            expert_bytes: 100,
            topology: &topo,
            routed: RoutedView::Hidden,
            cache: None,
        };
        let mut out = Vec::new();
        sched.on_iteration_start(&ctx, &mut out);
        assert!(out.is_empty(), "no history yet");
        let later = PolicyCtx { token: 3, ..ctx };
        sched.on_iteration_start(&later, &mut out);
        assert_eq!(out.len(), 1);
        match &out[0].set {
            FetchSet::Listed(l) => assert_eq!(l.len(), 4),
            other => panic!("expected a listed speculation, got {other:?}"),
        }
    }

    #[test]
    fn cache_pinned_pins_low_indices() {
        let sched = PolicySpec::cache_pinned(4).build(&setup());
        assert!(sched.is_resident(ExpertKey { block: 3, expert: 0 }));
        assert!(sched.is_resident(ExpertKey { block: 0, expert: 3 }));
        assert!(!sched.is_resident(ExpertKey { block: 0, expert: 4 }));
        assert!(!sched.cache_admission(ExpertKey { block: 1, expert: 2 }), "pinned skip cache");
        assert!(sched.cache_admission(ExpertKey { block: 1, expert: 9 }));
        let plan = sched.hbm_plan(&profile());
        assert_eq!(plan.resident_bytes, 12 * 4 * 100);
    }
}
