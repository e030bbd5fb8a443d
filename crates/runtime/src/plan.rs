//! Compiled decode plans: an op-IR, a plan cache, and an arithmetic replay
//! for the shared decode core.
//!
//! The decode core (`crate::core`) derives every iteration's schedule from
//! `ExpertScheduler` trait-object hooks — pure host overhead once the HTTP
//! front door and the fleet multiply it by thousands of concurrent streams.
//! This module lowers one decode iteration into a small op-IR
//! ([`PlanOp`]), caches compiled plans keyed on
//! `(scheduler fingerprint, routing fingerprint, precision, batch shape,
//! pass geometry)`, and replays cached plans against the
//! [`Machine`](pgmoe_device::Machine) with zero per-op trait dispatch.
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
//! # Count-parametric plans
//!
//! A scheduler that declares [`RoutingSensitivity::Oblivious`] promises
//! that routing enters an iteration only as *how many* experts each block
//! moves and executes. Its plans are recorded symbolically — a routed fetch
//! copies [`PlanCount::Routed`] experts, an expert kernel streams
//! [`PlanBytes::Routed`] bytes — and resolved against the live routing at
//! replay, so the key carries no routing at all and one plan serves every
//! iteration of a batch shape. The transient high-water mark is computed
//! from the resolved counts before anything is touched. The recorder
//! refuses to cache an iteration it cannot express that way (a skipped
//! pinned expert, a non-default [`crate::ExecPlan`], a fill or merge whose
//! size depends on expert identities) instead of recording it wrongly.
//! [`RoutingSensitivity::Exact`] schedulers record literal counts under an
//! exact routing fingerprint.
//!
//! # Cacheability
//!
//! A scheduler opts into plan caching by returning `Some` from
//! [`crate::ExpertScheduler::plan_fingerprint`]; the default `None` keeps
//! stateful or unknown schedulers on the interpreted path (e.g.
//! `speculative_top_m`, whose hooks mutate a frequency histogram every
//! block). Traced runs are never cached (their per-expert span labels are
//! the product being built).
//!
//! Runs with an [`crate::ExpertCache`] attached are interpreted by design:
//! which experts a fetch copies depends on which are resident, so a key
//! would have to hash every routed expert id and the whole cache's recency
//! order — a key that never repeats. Such runs are neither keyed nor
//! recorded, and their [`PlanCacheStats`] stay zero. The interpreter they
//! run on shares replay's charging granularity: one staging reservation
//! and one copy-stream interval per fetch (one span per copied expert
//! when traced), and attention/FFN kernel durations priced once per pass.

use crate::core::{self, CoreEnv, CoreScratch, DecodeCosts};
use crate::scheduler::{ExpertScheduler, RoutedSource};
use crate::Result;
use pgmoe_device::{EventId, SimDuration, SimTime, Tier};
use pgmoe_model::GateTopology;
use std::collections::HashMap;

/// Maximum number of compiled plans retained per run before the cache is
/// wholesale cleared (a routing-churn backstop, not a tuning knob).
const PLAN_CACHE_CAP: usize = 128;

// ---------------------------------------------------------------------
// Word-mix fingerprinting
// ---------------------------------------------------------------------

/// Start state of every [`word_mix`] chain.
pub(crate) const MIX_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one `u64` into a running fingerprint in one multiply — the plan
/// key, the routing fingerprint, schedulers' plan tags and the paged-KV
/// prefix chain all use it. For a fixed state the step is a bijection of
/// `v` (the rotate and the odd multiplier both invert), so two chains that
/// differ in a single word never meet. Values are internal: callers only
/// compare fingerprints for equality (as map keys) and never persist or
/// report them, so only a collision between unequal inputs could change
/// behaviour.
pub(crate) fn word_mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(23) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// [`word_mix`] over a string's length and then its bytes in 8-byte
/// little-endian words (the last one zero-padded; the length keeps padding
/// from aliasing), used by schedulers to tag their
/// [`crate::ExpertScheduler::plan_fingerprint`] with a stable name+version.
pub(crate) fn fingerprint_str(s: &str) -> u64 {
    s.as_bytes().chunks(8).fold(word_mix(MIX_SEED, s.len() as u64), |h, chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        word_mix(h, u64::from_le_bytes(word))
    })
}

// ---------------------------------------------------------------------
// Routing sensitivity
// ---------------------------------------------------------------------

/// How much of the routing window a scheduler's decisions depend on —
/// declared via [`crate::ExpertScheduler::plan_routing_sensitivity`]; it
/// decides whether plans are count-parametric or keyed on exact routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingSensitivity {
    /// Hooks never read the routing window ([`crate::PolicyCtx::experts`]),
    /// never pin experts ([`crate::ExpertScheduler::is_resident`] is always
    /// false) and use the default [`crate::ExecPlan`]. An iteration's
    /// structure is then a function of the gate topology alone and routing
    /// enters only as per-block routed-set sizes, so plans are recorded
    /// count-parametric and the key carries no routing fingerprint. The
    /// paper's four built-ins qualify.
    Oblivious,
    /// Decisions may depend on exact expert identities (pinned residents,
    /// listed fetch sets). The key fingerprints the full per-block sets and
    /// plans record literal counts.
    Exact,
}

/// Fingerprint of the exact per-block routed sets (lengths delimit the
/// blocks, so no two distinct windows share an id stream).
fn routing_fingerprint(routed: &dyn RoutedSource, blocks: usize) -> u64 {
    let mut h = MIX_SEED;
    for b in 0..blocks {
        let experts = routed.experts(b);
        h = word_mix(h, experts.len() as u64);
        for &e in experts {
            h = word_mix(h, e as u64);
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
    /// Every expert MoE block `b` routes this iteration, streamed once:
    /// `routed.experts(b).len() × expert_bytes` (count-parametric plans).
    Routed(usize),
    /// A byte count fixed at compile time (expert execution).
    Lit(u64),
}

/// How many experts a [`PlanOp::Fetch`] copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanCount {
    /// The fetch block's routed-set size, resolved from the live routing
    /// at replay (count-parametric plans).
    Routed,
    /// A count fixed at compile time (full-set and listed fetches, and
    /// every fetch of an exact-routing plan).
    Lit(u32),
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
    /// Migration of experts for one MoE block from the run's offload tier:
    /// one transient HBM buffer and one expert-sized host→device copy per
    /// expert, collapsing to a copy-stream barrier when the count is zero.
    Fetch {
        /// Decoder MoE block the copies stage for.
        block: usize,
        /// Experts copied.
        count: PlanCount,
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
    /// Frees every transient buffer staged for a decoder MoE block.
    FreeBufs {
        /// The block whose buffers are freed.
        block: usize,
    },
    /// Samples `event_time(done) − block_start` into the caller's
    /// block-latency vector.
    Latency {
        /// Event slot of the block's completion event.
        done: u32,
    },
}

/// A lowered decode iteration: the op stream plus the event-table size
/// replay needs.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPlan {
    ops: Vec<PlanOp>,
    n_events: u32,
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
/// slots. A recording that waits on an event the recorder never saw (a
/// cross-iteration dependency no current scheduler can create), leaves a
/// block's transient buffers alive past the iteration, or — when
/// count-parametric — did something a count cannot express, is poisoned
/// and simply not cached.
pub(crate) struct PlanRecorder {
    ops: Vec<PlanOp>,
    event_slots: HashMap<EventId, u32>,
    dequant: bool,
    parametric: bool,
    /// Per decoder block: fetches recorded since the block's last free.
    staged: Vec<bool>,
    poisoned: bool,
}

impl PlanRecorder {
    pub(crate) fn new(dequant: bool, parametric: bool, blocks: usize) -> Self {
        PlanRecorder {
            ops: Vec::with_capacity(64),
            event_slots: HashMap::new(),
            dequant,
            parametric,
            staged: vec![false; blocks],
            poisoned: false,
        }
    }

    /// Whether the run executes quantized experts (adds [`PlanOp::Dequant`]
    /// annotations ahead of expert kernels).
    pub(crate) fn dequant(&self) -> bool {
        self.dequant
    }

    /// Whether routed counts are recorded symbolically (see the module
    /// docs).
    pub(crate) fn parametric(&self) -> bool {
        self.parametric
    }

    /// Marks the recording uncacheable.
    pub(crate) fn poison(&mut self) {
        self.poisoned = true;
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

    /// Records a fetch that asked for `requested` experts of decoder block
    /// `block` (its whole routed set when `routed`) and copied
    /// `fetched.1` of them, completing at `fetched.0`. A count-parametric
    /// recording must copy everything it asked for: a skipped expert would
    /// make the count depend on which experts were routed.
    pub(crate) fn fetch(
        &mut self,
        block: usize,
        routed: bool,
        requested: usize,
        (done, copied): (EventId, usize),
        waits: &[EventId],
        demand: bool,
    ) {
        self.poisoned |= self.parametric && copied != requested;
        let count = if self.parametric && routed {
            PlanCount::Routed
        } else {
            PlanCount::Lit(copied as u32)
        };
        let waits = self.slots_of(waits);
        let out = self.event(done);
        self.staged[block] = true;
        self.ops.push(PlanOp::Fetch { block, count, waits, demand, out });
    }

    /// Records the release of block `block`'s transient buffers, if any
    /// fetch staged some since its last release.
    pub(crate) fn free(&mut self, block: usize) {
        if std::mem::take(&mut self.staged[block]) {
            self.ops.push(PlanOp::FreeBufs { block });
        }
    }

    fn finish(self) -> Option<CompiledPlan> {
        if self.poisoned || self.staged.contains(&true) {
            return None;
        }
        Some(CompiledPlan { ops: self.ops, n_events: self.event_slots.len() as u32 })
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
    /// Exact routing-window fingerprint; 0 for routing-oblivious
    /// schedulers, whose plans resolve routed counts at replay.
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
    /// routing fingerprint (exact-routing schedulers only).
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

/// Buffers replay reuses across iterations (no allocation on a hit).
#[derive(Default)]
struct ReplayScratch {
    /// Completion time of every event slot, in slot order.
    times: Vec<SimTime>,
    /// Transient buffers currently staged per decoder block.
    staged: Vec<u64>,
    /// Block latencies, held back until the replay commits.
    latencies: Vec<SimDuration>,
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
    scratch: ReplayScratch,
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
            scratch: ReplayScratch::default(),
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
    // Counts stand in for routing only where fetches copy whole routed
    // sets, i.e. without an expert cache (captures may run with one).
    let parametric =
        sched.plan_routing_sensitivity() == RoutingSensitivity::Oblivious && env.cache.is_none();
    let dec_blocks = scratch.dec_blocks();
    let key = fingerprint.map(|sched_fp| {
        let mut shape = word_mix(MIX_SEED, dec_blocks as u64);
        shape = word_mix(shape, enc_blocks as u64);
        shape = word_mix(shape, costs.decoder_layers as u64);
        shape = word_mix(shape, costs.moe_every as u64);
        shape = word_mix(shape, block_latencies.is_some() as u64);
        PlanKey {
            sched: sched_fp,
            routing: if parametric { 0 } else { routing_fingerprint(routed, dec_blocks) },
            expert_bytes: env.plan.expert_bytes(),
            batch_shape,
            shape,
        }
    });
    let prev_key = key.and_then(|k| ps.last_key.replace(k));
    let cached = key.and_then(|k| ps.plans.as_ref()?.get(&k));
    if let Some(plan) = cached {
        if replay(plan, env, routed, costs, block_latencies.as_deref_mut(), &mut ps.scratch) {
            ps.stats.hits += 1;
            return Ok(());
        }
    }
    // Interpret. A key without a plan compiles one; a key whose plan just
    // declined keeps that plan and counts neither way.
    let compile = key.filter(|_| cached.is_none());
    let mut rec = (ps.capture || compile.is_some())
        .then(|| PlanRecorder::new(ps.dequant, parametric, dec_blocks));
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

/// Replays a compiled plan against the live machine, or declines.
///
/// Replay never touches the engine per op: plans are self-contained (the
/// recorder drops any recording that waits across iterations), so the whole
/// schedule is computed arithmetically with the exact
/// [`pgmoe_device::SimEngine::submit`] law and applied in one
/// [`pgmoe_device::Machine::apply_replay`] — same tails, busy time, traffic counters,
/// pool peak, block latencies. Routed counts resolve against `routed`.
///
/// The pass computes into locals and `scratch` only, tracking the transient
/// high-water mark at the resolved counts on the way. Returns `false` —
/// having changed nothing — when that reservation does not fit HBM; the
/// caller then interprets the iteration, which reports the out-of-memory
/// condition with the interpreter's own semantics. Otherwise the machine,
/// the demand-byte counter and the block latencies are updated together.
fn replay(
    plan: &CompiledPlan,
    env: &mut CoreEnv<'_>,
    routed: &dyn RoutedSource,
    costs: &DecodeCosts,
    block_latencies: Option<&mut Vec<SimDuration>>,
    scratch: &mut ReplayScratch,
) -> bool {
    let expert_bytes = env.plan.expert_bytes();
    let tier = env.offload_tier;
    let copy_ns = env.machine.transfer_time(expert_bytes, tier).as_nanos();
    let gate_dur = env.machine.cost().gate_overhead;
    // The dense kernels are priced once per pass, as the interpreter
    // prices them; expert kernels stream a per-op byte count.
    let attn_dur = env.machine.cost().kernel_time(0.0, costs.attn_bytes);
    let ffn_dur = env.machine.cost().kernel_time(0.0, costs.ffn_bytes);
    let compute = env.machine.compute_stream();
    let copy = env.machine.copy_stream();
    let mut tail_c = env.machine.engine_mut().stream_tail(compute);
    let mut tail_p = env.machine.engine_mut().stream_tail(copy);
    let (mut busy_c, mut busy_p) = (SimDuration::ZERO, SimDuration::ZERO);
    let (mut offload, mut demand_bytes) = (0u64, 0u64);
    let (mut live, mut peak) = (0u64, 0u64);
    let ReplayScratch { times, staged, latencies } = scratch;
    times.clear();
    staged.clear();
    latencies.clear();
    let mut block_start = SimTime::ZERO;
    for op in &plan.ops {
        match op {
            PlanOp::BlockStart => block_start = tail_c,
            PlanOp::Gemm { bytes, waits, out, .. } => {
                let cost = env.machine.cost();
                let dur = match *bytes {
                    PlanBytes::Attn => attn_dur,
                    PlanBytes::Ffn => ffn_dur,
                    PlanBytes::Routed(block) => {
                        cost.kernel_time(0.0, routed.experts(block).len() as u64 * expert_bytes)
                    }
                    PlanBytes::Lit(v) => cost.kernel_time(0.0, v),
                };
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
            PlanOp::Fetch { block, count, waits, demand, .. } => {
                let n = match *count {
                    PlanCount::Routed => routed.experts(*block).len() as u64,
                    PlanCount::Lit(n) => n as u64,
                };
                if *block >= staged.len() {
                    staged.resize(block + 1, 0);
                }
                staged[*block] += n;
                live += n;
                peak = peak.max(live);
                let mut start = tail_p;
                for &s in waits {
                    start = start.max(times[s as usize]);
                }
                // The copies serialize on the in-order copy stream behind a
                // shared wait set, so n equal-length copies collapse to one
                // interval (a zero-copy fetch is the zero-length barrier).
                let span = SimDuration::from_nanos(copy_ns * n);
                tail_p = start + span;
                busy_p += span;
                if tier != Tier::Hbm {
                    offload += n * expert_bytes;
                }
                if *demand {
                    demand_bytes += n * expert_bytes;
                }
                times.push(tail_p);
            }
            PlanOp::FreeBufs { block } => live -= std::mem::take(&mut staged[*block]),
            PlanOp::Latency { done } => latencies.push(times[*done as usize] - block_start),
            PlanOp::Dequant { .. } => {}
        }
    }
    // One peak-sized reservation stands in for the per-expert buffers: the
    // pool's high-water mark moves exactly as the interleaved alloc/free
    // stream would have moved it, and a failed `alloc` leaves it untouched.
    if peak > 0 {
        let hbm = env.machine.pool_mut(Tier::Hbm);
        match hbm.alloc(peak * expert_bytes) {
            Ok(id) => hbm.free(id).expect("replay reservation double free"),
            Err(_) => return false,
        }
    }
    env.machine.apply_replay(tail_c, tail_p, busy_c, busy_p, offload);
    *env.demand_bytes += demand_bytes;
    if let Some(lat) = block_latencies {
        lat.extend_from_slice(latencies);
    }
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
                        PlanBytes::Routed(block) => format!("b{block}-routed-bytes"),
                        PlanBytes::Lit(v) => format!("{v}B"),
                    };
                    format!("gemm {label} {b} waits={}", waits.len())
                }
                PlanOp::Gate { .. } => "gate".to_string(),
                PlanOp::AllToAll { label, dur, .. } => format!("a2a {label} {dur}"),
                PlanOp::Fetch { block, count, demand, .. } => {
                    let count = match count {
                        PlanCount::Routed => "routed".to_string(),
                        PlanCount::Lit(n) => format!("x{n}"),
                    };
                    format!("fetch b{block} {count} demand={demand}")
                }
                PlanOp::Dequant { block } => format!("dequant b{block} (fused)"),
                PlanOp::FreeBufs { block } => format!("free b{block}"),
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
    use pgmoe_device::Machine;

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        assert_eq!(fingerprint_str("pregated"), fingerprint_str("pregated"));
        assert_ne!(fingerprint_str("pregated"), fingerprint_str("on-demand"));
        assert_ne!(fingerprint_str("pregated"), fingerprint_str("pregated\0"));
        assert_ne!(word_mix(MIX_SEED, 1), word_mix(MIX_SEED, 2));
    }

    struct FixedRouting(Vec<Vec<usize>>);
    impl RoutedSource for FixedRouting {
        fn experts(&self, block: usize) -> &[usize] {
            &self.0[block]
        }
    }

    #[test]
    fn routing_fingerprint_separates_identities_and_block_boundaries() {
        let a = FixedRouting(vec![vec![1, 2], vec![5]]);
        let permuted = FixedRouting(vec![vec![3, 7], vec![9]]);
        let reblocked = FixedRouting(vec![vec![1], vec![2, 5]]);
        assert_eq!(routing_fingerprint(&a, 2), routing_fingerprint(&a, 2));
        assert_ne!(routing_fingerprint(&a, 2), routing_fingerprint(&permuted, 2));
        assert_ne!(routing_fingerprint(&a, 2), routing_fingerprint(&reblocked, 2));
    }

    #[test]
    fn recorder_poisons_on_unknown_event() {
        let mut m = Machine::new(pgmoe_device::MachineConfig::a100_like());
        let ev = m.compute_op("x", SimDuration::from_nanos(1), &[]);
        let mut rec = PlanRecorder::new(false, false, 1);
        let slots = rec.slots_of(&[ev]);
        assert!(slots.is_empty());
        assert!(rec.finish().is_none(), "unknown waits must poison the recording");
    }

    #[test]
    fn recorder_drops_a_recording_that_leaves_buffers_alive() {
        let mut m = Machine::new(pgmoe_device::MachineConfig::a100_like());
        let mut fetch = |rec: &mut PlanRecorder, block| {
            let ev = m.compute_op("x", SimDuration::from_nanos(1), &[]);
            rec.fetch(block, true, 2, (ev, 2), &[], false);
        };
        let mut leaky = PlanRecorder::new(false, true, 2);
        fetch(&mut leaky, 0);
        fetch(&mut leaky, 1);
        leaky.free(0);
        assert!(leaky.finish().is_none(), "block 1's buffers outlive the iteration");
        let mut balanced = PlanRecorder::new(false, true, 2);
        fetch(&mut balanced, 0);
        fetch(&mut balanced, 0);
        balanced.free(0);
        balanced.free(1);
        let plan = balanced.finish().expect("self-contained");
        assert_eq!(plan.ops.last(), Some(&PlanOp::FreeBufs { block: 0 }), "one free per block");
        assert!(matches!(plan.ops[0], PlanOp::Fetch { count: PlanCount::Routed, .. }));
    }

    #[test]
    fn a_parametric_recording_that_skips_an_expert_is_not_cached() {
        // A pinned expert is skipped by the copy loop: its count depends on
        // which experts were routed, so no count can stand in for it.
        let mut m = Machine::new(pgmoe_device::MachineConfig::a100_like());
        let ev = m.compute_op("x", SimDuration::from_nanos(1), &[]);
        let mut rec = PlanRecorder::new(false, true, 1);
        rec.fetch(0, true, 3, (ev, 2), &[], true);
        rec.free(0);
        assert!(rec.finish().is_none());
        let mut exact = PlanRecorder::new(false, false, 1);
        exact.fetch(0, true, 3, (ev, 2), &[], true);
        exact.free(0);
        let plan = exact.finish().expect("literal counts are exact");
        assert!(matches!(plan.ops[0], PlanOp::Fetch { count: PlanCount::Lit(2), .. }));
    }

    /// What one run of decode iterations leaves behind on the machine.
    #[derive(Debug, PartialEq)]
    struct MachineState {
        tails: (SimTime, SimTime),
        busy: (SimDuration, SimDuration),
        hbm_peak: u64,
        offload: u64,
        demand: u64,
        latencies: Vec<SimDuration>,
    }

    /// Decodes one iteration per routing window through the planned entry
    /// point, with plan caching on or off, on a fresh machine.
    fn decode_windows(
        opts: &crate::SimOptions,
        windows: &[FixedRouting],
        cached: bool,
    ) -> (MachineState, PlanCacheStats) {
        let cfg = pgmoe_model::ModelConfig::switch_base(8);
        let dec_blocks = cfg.decoder_moe_layers();
        let placement = crate::PlacementPlan::new(&cfg, opts, 0, 1);
        let mut sched = opts.policy.build(&opts.setup_for(&cfg));
        let topo = sched.decoder_topology(dec_blocks).unwrap();
        let mut machine = Machine::new(opts.machine.clone());
        machine.set_trace_enabled(false);
        let (mut cache, mut demand) = (None, 0u64);
        let mut scratch = CoreScratch::new(dec_blocks, cfg.num_experts);
        let mut ps = PlanSession::new(cached, false);
        let mut latencies = Vec::new();
        for (token, routed) in windows.iter().enumerate() {
            let costs = DecodeCosts {
                attn_bytes: 1 << 20,
                ffn_bytes: 1 << 22,
                decoder_layers: cfg.decoder_layers,
                moe_every: cfg.moe_every,
            };
            let mut env = CoreEnv {
                machine: &mut machine,
                plan: &placement,
                cache: &mut cache,
                offload_tier: opts.offload_tier,
                num_experts: cfg.num_experts,
                demand_bytes: &mut demand,
            };
            decode_iteration_planned(
                &mut env,
                sched.as_mut(),
                &topo,
                routed,
                token,
                cfg.encoder_layers / cfg.moe_every,
                &costs,
                &mut scratch,
                Some(&mut latencies),
                &mut ps,
                1,
            )
            .unwrap();
        }
        let (compute, copy) = (machine.compute_stream(), machine.copy_stream());
        let engine = machine.engine_mut();
        let tails = (engine.stream_tail(compute), engine.stream_tail(copy));
        let state = MachineState {
            tails,
            busy: (machine.gpu_busy(), machine.pcie_busy()),
            hbm_peak: machine.pool(Tier::Hbm).peak_bytes(),
            offload: machine.offload_traffic_bytes(),
            demand,
            latencies,
        };
        (state, ps.stats())
    }

    #[test]
    fn a_plan_recorded_at_one_count_vector_replays_exactly_at_another() {
        use crate::{OffloadPolicy, SimOptions};
        use pgmoe_model::GatingMode;
        // Recorded with 1-3 routed experts per block, replayed with 2-8:
        // the replay must resolve every routed fetch, expert kernel and the
        // transient high-water mark at the new counts.
        let window = |sizes: [usize; 6]| {
            FixedRouting(
                sizes
                    .iter()
                    .enumerate()
                    .map(|(b, &n)| (0..n).map(|e| (e + b) % 8).collect())
                    .collect(),
            )
        };
        let windows = [window([1, 3, 1, 2, 1, 1]), window([8, 2, 5, 7, 3, 6])];
        for opts in [
            SimOptions::new(OffloadPolicy::GpuOnly),
            SimOptions::new(OffloadPolicy::OnDemand),
            SimOptions::new(OffloadPolicy::PrefetchAll),
            SimOptions::new(OffloadPolicy::Pregated),
            SimOptions::new(OffloadPolicy::Pregated).with_gating(GatingMode::Pregated { level: 2 }),
        ] {
            let (replayed, stats) = decode_windows(&opts, &windows, true);
            let (interpreted, _) = decode_windows(&opts, &windows, false);
            let name = opts.policy.name();
            assert_eq!((stats.misses, stats.hits), (1, 1), "{name}: second window replays");
            assert_eq!(replayed, interpreted, "{name}");
        }
        // The second window's larger sets must be what set the peak.
        let pregated = SimOptions::new(OffloadPolicy::Pregated);
        let (first_only, _) = decode_windows(&pregated, &windows[..1], false);
        let (both, _) = decode_windows(&pregated, &windows, true);
        assert!(both.hbm_peak > first_only.hbm_peak, "{both:?} vs {first_only:?}");
    }

    /// Routing-oblivious schedulers whose iterations a routed count cannot
    /// describe: an on-demand fill after a fixed prefetch list, a routed
    /// prefetch merged into a partial one, a pinned expert skipped by the
    /// copy loop, a non-default exec plan.
    #[derive(Debug, Clone, Copy)]
    enum Breach {
        ListedPrefetch,
        PartialMerge,
        Pinned,
        DoubledExec,
    }

    #[derive(Debug)]
    struct BreachSched(Breach);

    impl crate::SchedulerFactory for BreachSched {
        fn scheduler_name(&self) -> String {
            format!("{:?}", self.0)
        }

        fn build(&self, _setup: &crate::SchedulerSetup) -> Box<dyn ExpertScheduler> {
            Box::new(BreachSched(self.0))
        }
    }

    impl ExpertScheduler for BreachSched {
        fn name(&self) -> String {
            format!("{:?}", self.0)
        }

        fn hbm_plan(&self, p: &crate::MemoryProfile) -> crate::HbmPlan {
            let transient_bytes = 2 * p.num_experts as u64 * p.expert_bytes;
            crate::HbmPlan { resident_bytes: 0, transient_bytes, encoder_staging_experts: 2 }
        }

        fn on_block_start(&mut self, _ctx: &crate::PolicyCtx<'_>, _b: usize) -> crate::Residency {
            match self.0 {
                Breach::Pinned | Breach::DoubledExec => {
                    crate::Residency::Fetch { set: crate::FetchSet::Routed, after_gate: true }
                }
                _ => crate::Residency::AwaitPending,
            }
        }

        fn on_gate(&mut self, ctx: &crate::PolicyCtx<'_>, b: usize, out: &mut Vec<Prefetch>) {
            let mut prefetch = |set| out.push(Prefetch { block: b + 1, set, after_gate: true });
            match self.0 {
                _ if b + 1 == ctx.blocks => {}
                Breach::ListedPrefetch => prefetch(crate::FetchSet::Listed(vec![0, 1])),
                Breach::PartialMerge => {
                    prefetch(crate::FetchSet::Listed(vec![0]));
                    prefetch(crate::FetchSet::Routed);
                }
                _ => {}
            }
        }

        fn is_resident(&self, key: crate::ExpertKey) -> bool {
            matches!(self.0, Breach::Pinned) && key.expert == 0
        }

        fn exec_plan(&self, ctx: &crate::PolicyCtx<'_>, _b: usize, e: &[usize]) -> crate::ExecPlan {
            let mut plan = crate::ExecPlan::local(e.len(), ctx.expert_bytes);
            if matches!(self.0, Breach::DoubledExec) {
                plan.exec_bytes *= 2;
            }
            plan
        }

        fn plan_fingerprint(&self) -> Option<u64> {
            Some(fingerprint_str(&self.name()))
        }

        fn plan_routing_sensitivity(&self) -> RoutingSensitivity {
            RoutingSensitivity::Oblivious
        }
    }

    use crate::scheduler::Prefetch;

    #[test]
    fn iterations_a_count_cannot_express_are_never_replayed() {
        // The recorded window routes expert 0 in block 0 (the pinned one)
        // and sets that differ from the second window's beyond their sizes.
        let window = |sizes: [usize; 6], shift: usize| {
            let sets = sizes.iter().enumerate();
            FixedRouting(
                sets.map(|(b, &n)| (0..n).map(|e| (e + b * shift) % 8).collect()).collect(),
            )
        };
        let windows = [window([2, 3, 2, 3, 2, 3], 1), window([2, 3, 2, 3, 2, 3], 3)];
        for breach in
            [Breach::ListedPrefetch, Breach::PartialMerge, Breach::Pinned, Breach::DoubledExec]
        {
            let spec = crate::PolicySpec::custom(std::sync::Arc::new(BreachSched(breach)));
            let opts = crate::SimOptions::new(spec);
            let (planned, stats) = decode_windows(&opts, &windows, true);
            let (interpreted, _) = decode_windows(&opts, &windows, false);
            assert_eq!((stats.hits, stats.misses), (0, 2), "{breach:?}: recorded, never cached");
            assert_eq!(planned, interpreted, "{breach:?}");
        }
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
    fn plan_trace_diff_counts_divergent_lines() {
        let plan_a = CompiledPlan {
            ops: vec![
                PlanOp::BlockStart,
                PlanOp::Gemm { label: "attn", bytes: PlanBytes::Attn, waits: vec![], out: None },
            ],
            n_events: 0,
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
