//! Compiled decode plans: an op-IR, a plan cache, and an arithmetic replay
//! for the shared decode core.
//!
//! The decode core (`crate::core`) derives every iteration's schedule from
//! `ExpertScheduler` trait-object hooks — pure host overhead once the HTTP
//! front door and the fleet multiply it by thousands of concurrent streams.
//! This module lowers one decode iteration into a small op-IR
//! ([`PlanOp`]), caches compiled plans keyed on
//! `(scheduler fingerprint, routing-window fingerprint, precision, batch
//! shape, pass geometry)`, and replays cached plans against the [`Machine`]
//! with zero per-op trait dispatch.
//!
//! One iteration runs one of three ways, all behind
//! `decode_iteration_planned`: *interpreted* (`core::decode_iteration`),
//! *interpreted and recorded* (the first time a key is seen, or for
//! [`PlanTrace`] capture), or *replayed* from a cached plan. The
//! interpreter is the only fallback: a replay that cannot run declines
//! before touching anything and the iteration is interpreted instead.
//!
//! # Bit-exactness contract
//!
//! Lowering *is* execution: the first time a key is seen, the core runs the
//! scheduler hooks for real while the recorder captures the resulting
//! machine-call stream. A cache hit replays exactly that stream — same
//! kernels, same copies, same waits, same transient-buffer high-water mark.
//! The IR changes *when* decisions are computed, never *what* they are,
//! which is why every golden-equivalence suite holds bit-exactly with the
//! plan cache enabled.
//!
//! # Cacheability
//!
//! A scheduler opts into plan caching by returning `Some` from
//! [`crate::ExpertScheduler::plan_fingerprint`]; the default `None` keeps
//! stateful or unknown schedulers on the interpreted path (e.g.
//! `speculative_top_m`, whose hooks mutate a frequency histogram every
//! block). Traced runs are never cached (their per-expert span labels are
//! the product being built). See
//! [`crate::ExpertScheduler::plan_routing_sensitivity`] for how much of the
//! routing window ends up in the key.
//!
//! Runs with an [`crate::ExpertCache`] attached are interpreted by design:
//! which experts a fetch copies depends on which are resident, so a key
//! would have to hash every routed expert id and the whole cache's recency
//! order — a key that never repeats. Such runs are neither keyed nor
//! recorded, and their [`PlanCacheStats`] stay zero.

use crate::core::{self, CoreEnv, CoreScratch, DecodeCosts};
use crate::scheduler::{ExpertScheduler, RoutedSource};
use crate::Result;
use pgmoe_device::{CostModel, EventId, Machine, SimDuration, SimTime, Tier};
use pgmoe_model::GateTopology;
use std::collections::HashMap;

/// Maximum number of compiled plans retained per run before the cache is
/// wholesale cleared (a routing-churn backstop, not a tuning knob).
const PLAN_CACHE_CAP: usize = 128;

// ---------------------------------------------------------------------
// FNV-1a fingerprinting
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one `u64` into an FNV-1a state.
pub(crate) fn fnv_mix(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over a string, used by schedulers to tag their
/// [`crate::ExpertScheduler::plan_fingerprint`] with a stable name+version.
pub(crate) fn fingerprint_str(s: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

// ---------------------------------------------------------------------
// Routing sensitivity
// ---------------------------------------------------------------------

/// How much of the routing window a scheduler's decisions depend on —
/// declared via [`crate::ExpertScheduler::plan_routing_sensitivity`] and
/// used to build the plan-cache key's routing fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingSensitivity {
    /// Decisions depend only on how *many* distinct experts each block
    /// routes, never on their identities. Valid for schedulers that never
    /// pin experts, never emit [`crate::FetchSet::Listed`] sets derived
    /// from expert ids, and use the default byte-proportional
    /// [`crate::ExecPlan`]. The paper's four built-ins qualify, which is
    /// what makes steady-state plans reusable across tokens whose routed
    /// sets differ but whose per-block counts repeat.
    Counts,
    /// Decisions may depend on exact expert identities (pinned residents,
    /// listed fetch sets). The key fingerprints the full per-block sets.
    Exact,
}

fn routing_fingerprint(
    routed: &dyn RoutedSource,
    blocks: usize,
    sensitivity: RoutingSensitivity,
) -> u64 {
    let mut h = FNV_OFFSET;
    for b in 0..blocks {
        let experts = routed.experts(b);
        h = fnv_mix(h, experts.len() as u64);
        if sensitivity == RoutingSensitivity::Exact {
            for &e in experts {
                h = fnv_mix(h, e as u64);
            }
        }
    }
    h
}

// ---------------------------------------------------------------------
// The op-IR
// ---------------------------------------------------------------------

/// A byte operand resolved at execution time, so one compiled plan serves
/// every token of a growing context (attention bytes grow per token; the
/// plan's *structure* does not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanBytes {
    /// The iteration's per-layer attention bytes.
    Attn,
    /// The iteration's dense-FFN bytes.
    Ffn,
    /// A byte count fixed at compile time (expert execution).
    Lit(u64),
}

/// One operation of a compiled decode plan.
///
/// Event operands are *slots* — indices into the executor's event table,
/// assigned in submission order at compile time — so a plan holds no live
/// [`EventId`]s and can be replayed any number of times.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Marks the compute-stream tail as the origin for the next
    /// [`PlanOp::Latency`] sample.
    BlockStart,
    /// A compute-stream kernel (`attn` / `ffn` / `expert`).
    Gemm {
        /// Kernel label.
        label: &'static str,
        /// HBM bytes streamed, possibly resolved at execution time.
        bytes: PlanBytes,
        /// Event slots the kernel waits on.
        waits: Vec<u32>,
        /// Completion-event slot, when later ops wait on this kernel.
        out: Option<u32>,
    },
    /// The block's gate evaluation (fixed host-side overhead from the cost
    /// model).
    Gate {
        /// Completion-event slot.
        out: u32,
    },
    /// An all-to-all communication hop serialized on the compute stream
    /// (expert-parallel dispatch/combine).
    AllToAll {
        /// Op label (`a2a-dispatch` / `a2a-combine`).
        label: &'static str,
        /// Serialized hop duration fixed at compile time.
        dur: SimDuration,
        /// Event slots the hop waits on.
        waits: Vec<u32>,
        /// Completion-event slot.
        out: u32,
    },
    /// Migration of one expert group for one MoE block: one transient HBM
    /// buffer and one host→device copy per expert, collapsing to a
    /// copy-stream barrier when every expert was resident.
    Fetch {
        /// Cache key-space block the fetch targets (encoder-offset).
        block: usize,
        /// Bytes of one expert at the run's effective precision.
        bytes_each: u64,
        /// Tier the copies read from.
        tier: Tier,
        /// Experts copied, in submission order (untraced copies all submit
        /// under the label `"fetch"`).
        copies: Vec<usize>,
        /// Event slots the copies wait on.
        waits: Vec<u32>,
        /// Whether the copied bytes count as demand (critical-path) stalls.
        demand: bool,
        /// Completion-event slot (last copy, or the barrier).
        out: u32,
    },
    /// Annotation: the expert kernel that follows consumes quantized
    /// weights through the fused dequant-GEMM path. Costs are folded into
    /// the kernel's bytes; executing this op is free.
    Dequant {
        /// MoE block index within the decoder.
        block: usize,
    },
    /// Paged-KV block bookkeeping charged to simulated time: `blocks`
    /// freshly allocated KV blocks and `cow_bytes` of copy-on-write block
    /// copies (see `kv_append_duration` for the cost model).
    KvAppend {
        /// KV blocks newly allocated this iteration.
        blocks: u64,
        /// Bytes copied by copy-on-write forks this iteration.
        cow_bytes: u64,
    },
    /// Frees `count` transient expert buffers.
    FreeBufs {
        /// Number of buffers freed.
        count: u32,
    },
    /// Samples `event_time(done) − block_start` into the caller's
    /// block-latency vector.
    Latency {
        /// Event slot of the block's completion event.
        done: u32,
    },
}

/// A lowered decode iteration: the op stream plus the sizes replay needs.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPlan {
    ops: Vec<PlanOp>,
    n_events: u32,
    /// Most transient expert buffers live at once (× `expert_bytes` =
    /// the iteration's transient HBM high-water mark).
    peak_bufs: u32,
}

impl CompiledPlan {
    /// The plan's operations in execution order.
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }
}

// ---------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------

/// Captures the machine-call stream of one interpreted decode iteration.
///
/// The recorder is passive: the core performs every call for real and the
/// recorder only notes what happened, mapping live [`EventId`]s to dense
/// slots. If the core ever waits on an event the recorder never saw (a
/// cross-iteration dependency no current scheduler can create), or leaves
/// a transient buffer alive past the iteration, the recording is not
/// self-contained and is simply not cached.
pub(crate) struct PlanRecorder {
    ops: Vec<PlanOp>,
    event_slots: HashMap<EventId, u32>,
    dequant: bool,
    poisoned: bool,
}

impl PlanRecorder {
    pub(crate) fn new(dequant: bool) -> Self {
        PlanRecorder {
            ops: Vec::with_capacity(64),
            event_slots: HashMap::new(),
            dequant,
            poisoned: false,
        }
    }

    /// Whether the run executes quantized experts (adds [`PlanOp::Dequant`]
    /// annotations ahead of expert kernels).
    pub(crate) fn dequant(&self) -> bool {
        self.dequant
    }

    pub(crate) fn op(&mut self, op: PlanOp) {
        self.ops.push(op);
    }

    /// Assigns the next event slot to a freshly created event.
    pub(crate) fn event(&mut self, ev: EventId) -> u32 {
        let slot = self.event_slots.len() as u32;
        if self.event_slots.insert(ev, slot).is_some() {
            self.poisoned = true;
        }
        slot
    }

    /// Resolves already-recorded events to their slots.
    pub(crate) fn slots_of(&mut self, waits: &[EventId]) -> Vec<u32> {
        let mut out = Vec::with_capacity(waits.len());
        for ev in waits {
            match self.event_slots.get(ev) {
                Some(&slot) => out.push(slot),
                None => self.poisoned = true,
            }
        }
        out
    }

    fn finish(self) -> Option<CompiledPlan> {
        let (mut live, mut peak) = (0u32, 0u32);
        for op in &self.ops {
            match op {
                PlanOp::Fetch { copies, .. } => {
                    live += copies.len() as u32;
                    peak = peak.max(live);
                }
                PlanOp::FreeBufs { count } => live = live.saturating_sub(*count),
                _ => {}
            }
        }
        if self.poisoned || live != 0 {
            return None;
        }
        Some(CompiledPlan {
            ops: self.ops,
            n_events: self.event_slots.len() as u32,
            peak_bufs: peak,
        })
    }
}

// ---------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------

/// The full cache key: any field drifting forces a recompile, which is the
/// entire invalidation story — `swap_scheduler` additionally clears the
/// cache outright (the old scheduler's plans can never be keyed again).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    /// Scheduler name+config fingerprint
    /// ([`crate::ExpertScheduler::plan_fingerprint`]).
    sched: u64,
    /// Routing-window fingerprint at the declared sensitivity.
    routing: u64,
    /// Bytes of one expert — the precision axis.
    expert_bytes: u64,
    /// Batch shape (ready-request count for the batched path, 1 for the
    /// batch-1 engine).
    batch_shape: u64,
    /// Pass geometry: decoder blocks, encoder offset, layer structure, and
    /// whether block latencies are sampled.
    shape: u64,
}

/// Plan-cache counters, surfaced through `RunReport`, `ServeStats`, and
/// `/metrics`. Iterations that were neither replayed nor compiled
/// (uncacheable schedulers, traced runs, any run with an expert cache, a
/// replay that declined) count nowhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Iterations executed from a cached plan (zero trait dispatch).
    pub hits: u64,
    /// Iterations lowered and compiled because no plan matched; the four
    /// `*_misses` causes below sum to this.
    pub misses: u64,
    /// Explicit invalidations (`swap_scheduler`, overflow clears).
    pub invalidations: u64,
    /// Misses with no previous key to compare against (a session's first
    /// keyed iteration, and the first after an invalidation).
    pub cold_misses: u64,
    /// Misses whose key first differs from the previous iteration's in the
    /// routing-window fingerprint.
    pub routing_misses: u64,
    /// Misses whose key first differs from the previous iteration's in the
    /// batch shape.
    pub batch_shape_misses: u64,
    /// Every other miss: scheduler, precision or pass geometry changed, or
    /// the same key recurred after its recording could not be cached.
    pub other_misses: u64,
}

impl PlanCacheStats {
    /// Cache-hit rate in `[0, 1]` (0 for a run that never compiled).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counts one miss on `key`, attributed to the first [`PlanKey`] field
    /// (in declaration order) in which it differs from `prev`.
    fn count_miss(&mut self, prev: Option<PlanKey>, key: PlanKey) {
        self.misses += 1;
        let cause = match prev {
            None => &mut self.cold_misses,
            Some(p) if p.sched != key.sched => &mut self.other_misses,
            Some(p) if p.routing != key.routing => &mut self.routing_misses,
            Some(p) if p.expert_bytes != key.expert_bytes => &mut self.other_misses,
            Some(p) if p.batch_shape != key.batch_shape => &mut self.batch_shape_misses,
            Some(_) => &mut self.other_misses,
        };
        *cause += 1;
    }
}

/// Per-run plan-compilation state: the bounded plan cache, its counters,
/// and the capture hook the plan tracer uses.
pub(crate) struct PlanSession {
    plans: Option<HashMap<PlanKey, CompiledPlan>>,
    /// Key of the previous keyed iteration, for miss attribution.
    last_key: Option<PlanKey>,
    stats: PlanCacheStats,
    dequant: bool,
    capture: bool,
    captured: Option<CompiledPlan>,
}

impl PlanSession {
    /// A session with plan caching `enabled`; `dequant` annotates expert
    /// kernels as fused dequant-GEMM in rendered plans.
    pub(crate) fn new(enabled: bool, dequant: bool) -> Self {
        PlanSession {
            plans: enabled.then(HashMap::new),
            last_key: None,
            stats: PlanCacheStats::default(),
            dequant,
            capture: false,
            captured: None,
        }
    }

    /// A capture session: every iteration is lowered (never cached, never
    /// replayed) and the last compiled plan is retained for rendering.
    pub(crate) fn capturing(dequant: bool) -> Self {
        PlanSession { capture: true, ..PlanSession::new(false, dequant) }
    }

    /// Drops every compiled plan (scheduler swap).
    pub(crate) fn invalidate(&mut self) {
        if let Some(plans) = self.plans.as_mut() {
            if !plans.is_empty() {
                plans.clear();
                self.last_key = None;
                self.stats.invalidations += 1;
            }
        }
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    pub(crate) fn take_captured(&mut self) -> Option<CompiledPlan> {
        self.captured.take()
    }
}

// ---------------------------------------------------------------------
// Replay-or-interpret entry point
// ---------------------------------------------------------------------

/// Runs one decode iteration: replayed from a cached plan when its key
/// matches, otherwise interpreted — and recorded, when the result can be
/// cached under a key or a capture session asked for it. Unkeyed
/// configurations (no scheduler fingerprint, traced runs, caching disabled,
/// an expert cache attached) and a replay that declines are plainly
/// interpreted, and behave identically either way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decode_iteration_planned(
    env: &mut CoreEnv<'_>,
    sched: &mut dyn ExpertScheduler,
    topo: &GateTopology,
    routed: &dyn RoutedSource,
    token: usize,
    enc_blocks: usize,
    costs: &DecodeCosts,
    scratch: &mut CoreScratch,
    mut block_latencies: Option<&mut Vec<SimDuration>>,
    ps: &mut PlanSession,
    batch_shape: u64,
) -> Result<()> {
    let keyed = ps.plans.is_some() && env.cache.is_none() && !env.machine.trace_enabled();
    let fingerprint = if keyed { sched.plan_fingerprint() } else { None };
    let key = fingerprint.map(|sched_fp| {
        let dec_blocks = scratch.dec_blocks();
        let mut shape = fnv_mix(FNV_OFFSET, dec_blocks as u64);
        shape = fnv_mix(shape, enc_blocks as u64);
        shape = fnv_mix(shape, costs.decoder_layers as u64);
        shape = fnv_mix(shape, costs.moe_every as u64);
        shape = fnv_mix(shape, block_latencies.is_some() as u64);
        PlanKey {
            sched: sched_fp,
            routing: routing_fingerprint(routed, dec_blocks, sched.plan_routing_sensitivity()),
            expert_bytes: env.plan.expert_bytes(),
            batch_shape,
            shape,
        }
    });
    let prev_key = key.and_then(|k| ps.last_key.replace(k));
    let cached = key.and_then(|k| ps.plans.as_ref()?.get(&k));
    if let Some(plan) = cached {
        if replay(plan, env, costs, block_latencies.as_deref_mut()) {
            ps.stats.hits += 1;
            return Ok(());
        }
    }
    // Interpret. A key without a plan compiles one; a key whose plan just
    // declined keeps that plan and counts neither way.
    let compile = key.filter(|_| cached.is_none());
    let mut rec = (ps.capture || compile.is_some()).then(|| PlanRecorder::new(ps.dequant));
    core::decode_iteration(
        env,
        sched,
        topo,
        routed,
        token,
        enc_blocks,
        costs,
        scratch,
        block_latencies,
        rec.as_mut(),
    )?;
    let plan = rec.and_then(PlanRecorder::finish);
    if let Some(key) = compile {
        ps.stats.count_miss(prev_key, key);
        if let Some(plan) = plan {
            let plans = ps.plans.as_mut().expect("a key implies an enabled cache");
            if plans.len() >= PLAN_CACHE_CAP {
                plans.clear();
                ps.stats.invalidations += 1;
            }
            plans.insert(key, plan);
        }
    } else if plan.is_some() {
        ps.captured = plan;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// Simulated cost of paged-KV block bookkeeping: copy-on-write block copies
/// read and write HBM (`2 × cow_bytes` memory-bound), and each fresh block
/// allocation costs one stream-sync of bookkeeping.
pub(crate) fn kv_append_duration(cost: &CostModel, blocks: u64, cow_bytes: u64) -> SimDuration {
    let copies = if cow_bytes > 0 { cost.membound_time(2 * cow_bytes) } else { SimDuration::ZERO };
    SimDuration::from_nanos(copies.as_nanos() + blocks * cost.sync_overhead.as_nanos())
}

/// Executes a [`PlanOp::KvAppend`] charge directly (the paged session emits
/// these outside the decode loop, once per chunked-prefill or token-append
/// step).
pub(crate) fn execute_kv_append(machine: &mut Machine, blocks: u64, cow_bytes: u64) {
    let dur = kv_append_duration(machine.cost(), blocks, cow_bytes);
    if dur > SimDuration::ZERO {
        machine.compute_op("kv-append", dur, &[]);
    }
}

/// Replays a compiled plan against the live machine, or declines.
///
/// Replay never touches the engine per op: plans are self-contained (the
/// recorder drops any recording that waits across iterations), so the whole
/// schedule is computed arithmetically with the exact
/// [`pgmoe_device::SimEngine::submit`] law and applied in one
/// [`Machine::apply_replay`] — same tails, busy time, traffic counters,
/// pool peak, block latencies.
///
/// Returns `false` — having changed nothing — when the plan's transient
/// reservation does not fit HBM; the caller then interprets the iteration,
/// which reports the out-of-memory condition with the interpreter's own
/// semantics. Past that one decision point a replay always completes.
fn replay(
    plan: &CompiledPlan,
    env: &mut CoreEnv<'_>,
    costs: &DecodeCosts,
    mut block_latencies: Option<&mut Vec<SimDuration>>,
) -> bool {
    // One peak-sized reservation stands in for the per-expert transient
    // buffers: the pool's high-water mark moves exactly as the interleaved
    // alloc/free stream would have moved it. A failed `alloc` leaves the
    // pool untouched.
    let reservation = plan.peak_bufs as u64 * env.plan.expert_bytes();
    if reservation > 0 {
        let hbm = env.machine.pool_mut(Tier::Hbm);
        match hbm.alloc(reservation) {
            Ok(id) => hbm.free(id).expect("replay reservation double free"),
            Err(_) => return false,
        }
    }
    let compute = env.machine.compute_stream();
    let copy = env.machine.copy_stream();
    let mut tail_c = env.machine.engine_mut().stream_tail(compute);
    let mut tail_p = env.machine.engine_mut().stream_tail(copy);
    let (mut busy_c, mut busy_p) = (SimDuration::ZERO, SimDuration::ZERO);
    let mut offload = 0u64;
    let mut times: Vec<SimTime> = Vec::with_capacity(plan.n_events as usize);
    let gate_dur = env.machine.cost().gate_overhead;
    let mut block_start = SimTime::ZERO;
    for op in &plan.ops {
        match op {
            PlanOp::BlockStart => block_start = tail_c,
            PlanOp::Gemm { bytes, waits, out, .. } => {
                let b = match bytes {
                    PlanBytes::Attn => costs.attn_bytes,
                    PlanBytes::Ffn => costs.ffn_bytes,
                    PlanBytes::Lit(v) => *v,
                };
                let dur = env.machine.cost().kernel_time(0.0, b);
                let mut start = tail_c;
                for &s in waits {
                    start = start.max(times[s as usize]);
                }
                tail_c = start + dur;
                busy_c += dur;
                if out.is_some() {
                    times.push(tail_c);
                }
            }
            PlanOp::Gate { .. } => {
                tail_c += gate_dur;
                busy_c += gate_dur;
                times.push(tail_c);
            }
            PlanOp::AllToAll { dur, waits, .. } => {
                let mut start = tail_c;
                for &s in waits {
                    start = start.max(times[s as usize]);
                }
                tail_c = start + *dur;
                busy_c += *dur;
                times.push(tail_c);
            }
            PlanOp::Fetch { bytes_each, tier, copies, waits, demand, .. } => {
                let mut start = tail_p;
                for &s in waits {
                    start = start.max(times[s as usize]);
                }
                // The copies serialize on the in-order copy stream behind a
                // shared wait set, so n equal-length copies collapse to one
                // interval (a zero-copy fetch is the zero-length barrier).
                let n = copies.len() as u64;
                let span = env.machine.transfer_time(*bytes_each, *tier).as_nanos() * n;
                tail_p = start + SimDuration::from_nanos(span);
                busy_p += SimDuration::from_nanos(span);
                if *tier != Tier::Hbm {
                    offload += n * bytes_each;
                }
                if *demand {
                    *env.demand_bytes += n * bytes_each;
                }
                times.push(tail_p);
            }
            PlanOp::Latency { done } => {
                if let Some(lat) = block_latencies.as_deref_mut() {
                    lat.push(times[*done as usize] - block_start);
                }
            }
            PlanOp::FreeBufs { .. } | PlanOp::Dequant { .. } => {}
            PlanOp::KvAppend { blocks, cow_bytes } => {
                let dur = kv_append_duration(env.machine.cost(), *blocks, *cow_bytes);
                if dur > SimDuration::ZERO {
                    tail_c += dur;
                    busy_c += dur;
                }
            }
        }
    }
    env.machine.apply_replay(tail_c, tail_p, busy_c, busy_p, offload);
    true
}

// ---------------------------------------------------------------------
// Plan tracing / diffing
// ---------------------------------------------------------------------

/// A rendered view of one compiled decode plan, for ablations that explain
/// *why* two policies' metrics differ by diffing what they scheduled
/// (`repro -- plans`).
#[derive(Debug, Clone)]
pub struct PlanTrace {
    policy: String,
    plan: CompiledPlan,
}

impl PlanTrace {
    pub(crate) fn new(policy: String, plan: CompiledPlan) -> Self {
        PlanTrace { policy, plan }
    }

    /// The policy the plan was compiled for.
    pub fn policy(&self) -> &str {
        &self.policy
    }

    /// The plan's operations in execution order.
    pub fn ops(&self) -> &[PlanOp] {
        self.plan.ops()
    }

    fn lines(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.plan.ops.len());
        for op in &self.plan.ops {
            out.push(match op {
                PlanOp::BlockStart => "block-start".to_string(),
                PlanOp::Gemm { label, bytes, waits, .. } => {
                    let b = match bytes {
                        PlanBytes::Attn => "attn-bytes".to_string(),
                        PlanBytes::Ffn => "ffn-bytes".to_string(),
                        PlanBytes::Lit(v) => format!("{v}B"),
                    };
                    format!("gemm {label} {b} waits={}", waits.len())
                }
                PlanOp::Gate { .. } => "gate".to_string(),
                PlanOp::AllToAll { label, dur, .. } => format!("a2a {label} {dur}"),
                PlanOp::Fetch { block, bytes_each, tier, copies, demand, .. } => {
                    let experts: Vec<String> = copies.iter().map(|e| e.to_string()).collect();
                    format!(
                        "fetch b{block} [{}] {}B {:?} demand={}",
                        experts.join(","),
                        bytes_each,
                        tier,
                        demand,
                    )
                }
                PlanOp::Dequant { block } => format!("dequant b{block} (fused)"),
                PlanOp::KvAppend { blocks, cow_bytes } => {
                    format!("kv-append blocks={blocks} cow={cow_bytes}B")
                }
                PlanOp::FreeBufs { count } => format!("free x{count}"),
                PlanOp::Latency { .. } => "latency-sample".to_string(),
            });
        }
        out
    }

    /// Renders the plan as one op per line.
    pub fn render(&self) -> String {
        let mut out = format!("plan[{}] {} ops\n", self.policy, self.plan.ops.len());
        for line in self.lines() {
            out.push_str("  ");
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Line-level diff against another plan: `-` lines only this plan
    /// schedules, `+` lines only the other schedules, positionally aligned.
    /// Returns the rendered diff and the number of differing lines.
    pub fn diff(&self, other: &PlanTrace) -> (String, usize) {
        let a = self.lines();
        let b = other.lines();
        let mut out = format!("diff {} vs {}\n", self.policy, other.policy);
        let mut differing = 0usize;
        for i in 0..a.len().max(b.len()) {
            match (a.get(i), b.get(i)) {
                (Some(x), Some(y)) if x == y => {}
                (x, y) => {
                    differing += 1;
                    if let Some(x) = x {
                        out.push_str(&format!("  - {x}\n"));
                    }
                    if let Some(y) = y {
                        out.push_str(&format!("  + {y}\n"));
                    }
                }
            }
        }
        (out, differing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        assert_eq!(fingerprint_str("pregated"), fingerprint_str("pregated"));
        assert_ne!(fingerprint_str("pregated"), fingerprint_str("on-demand"));
        assert_ne!(fnv_mix(FNV_OFFSET, 1), fnv_mix(FNV_OFFSET, 2));
    }

    struct FixedRouting(Vec<Vec<usize>>);
    impl RoutedSource for FixedRouting {
        fn experts(&self, block: usize) -> &[usize] {
            &self.0[block]
        }
    }

    #[test]
    fn counts_sensitivity_ignores_identities_exact_does_not() {
        let a = FixedRouting(vec![vec![1, 2], vec![5]]);
        let b = FixedRouting(vec![vec![3, 7], vec![9]]);
        let c = FixedRouting(vec![vec![3], vec![9]]);
        assert_eq!(
            routing_fingerprint(&a, 2, RoutingSensitivity::Counts),
            routing_fingerprint(&b, 2, RoutingSensitivity::Counts),
        );
        assert_ne!(
            routing_fingerprint(&a, 2, RoutingSensitivity::Counts),
            routing_fingerprint(&c, 2, RoutingSensitivity::Counts),
        );
        assert_ne!(
            routing_fingerprint(&a, 2, RoutingSensitivity::Exact),
            routing_fingerprint(&b, 2, RoutingSensitivity::Exact),
        );
    }

    #[test]
    fn recorder_poisons_on_unknown_event() {
        let mut m = Machine::new(pgmoe_device::MachineConfig::a100_like());
        let ev = m.compute_op("x", SimDuration::from_nanos(1), &[]);
        let mut rec = PlanRecorder::new(false);
        let slots = rec.slots_of(&[ev]);
        assert!(slots.is_empty());
        assert!(rec.finish().is_none(), "unknown waits must poison the recording");
    }

    #[test]
    fn recorder_drops_a_recording_that_leaves_buffers_alive() {
        let fetch = || PlanOp::Fetch {
            block: 0,
            bytes_each: 8,
            tier: Tier::Ddr,
            copies: vec![1, 2],
            waits: vec![],
            demand: false,
            out: 0,
        };
        let mut leaky = PlanRecorder::new(false);
        leaky.op(fetch());
        leaky.op(PlanOp::FreeBufs { count: 1 });
        assert!(leaky.finish().is_none(), "one buffer outlives the iteration");
        let mut balanced = PlanRecorder::new(false);
        balanced.op(fetch());
        balanced.op(fetch());
        balanced.op(PlanOp::FreeBufs { count: 4 });
        assert_eq!(balanced.finish().expect("self-contained").peak_bufs, 4);
    }

    #[test]
    fn hit_rate_counts() {
        let s = PlanCacheStats { hits: 3, misses: 1, ..Default::default() };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(PlanCacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn misses_are_attributed_to_the_first_differing_key_field() {
        let base = PlanKey { sched: 1, routing: 2, expert_bytes: 3, batch_shape: 4, shape: 5 };
        let mut s = PlanCacheStats::default();
        s.count_miss(None, base);
        s.count_miss(Some(base), PlanKey { routing: 9, batch_shape: 9, ..base });
        s.count_miss(Some(base), PlanKey { batch_shape: 9, shape: 9, ..base });
        s.count_miss(Some(base), PlanKey { shape: 9, ..base });
        s.count_miss(Some(base), PlanKey { sched: 9, routing: 9, ..base });
        s.count_miss(Some(base), base);
        let expect = PlanCacheStats {
            misses: 6,
            cold_misses: 1,
            routing_misses: 1,
            batch_shape_misses: 1,
            other_misses: 3,
            ..Default::default()
        };
        assert_eq!(s, expect);
    }

    #[test]
    fn kv_append_cost_scales_with_cow_bytes_and_blocks() {
        let cost = CostModel::a100_pcie4();
        assert_eq!(kv_append_duration(&cost, 0, 0), SimDuration::ZERO);
        let alloc_only = kv_append_duration(&cost, 3, 0);
        assert_eq!(alloc_only.as_nanos(), 3 * cost.sync_overhead.as_nanos());
        let with_cow = kv_append_duration(&cost, 3, 1 << 20);
        assert!(with_cow > alloc_only);
    }

    #[test]
    fn plan_trace_diff_counts_divergent_lines() {
        let plan_a = CompiledPlan {
            ops: vec![
                PlanOp::BlockStart,
                PlanOp::Gemm { label: "attn", bytes: PlanBytes::Attn, waits: vec![], out: None },
            ],
            n_events: 0,
            peak_bufs: 0,
        };
        let mut plan_b = plan_a.clone();
        plan_b.ops.push(PlanOp::Gate { out: 0 });
        let a = PlanTrace::new("A".into(), plan_a);
        let b = PlanTrace::new("B".into(), plan_b);
        let (text, differing) = a.diff(&b);
        assert_eq!(differing, 1);
        assert!(text.contains("+ gate"));
        let (_, same) = a.diff(&a);
        assert_eq!(same, 0);
    }
}
