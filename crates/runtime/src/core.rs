//! The shared policy-driven decode core.
//!
//! Exactly one piece of code walks a transformer stack and migrates
//! experts: this module. The batch-1 engine ([`crate::InferenceSim`]), the
//! continuous-batching scheduler ([`crate::BatchScheduler`]), and every
//! [`ExpertScheduler`] — built-in or user-defined — execute through the
//! same block loop, fetch path, cache, and cost model, so the serving paths
//! cannot drift and a policy written once runs everywhere.
//!
//! The core owns the *mechanism* (event wiring, transient buffers, cache
//! accesses, demand-stall accounting); schedulers own the *policy* (what to
//! fetch, when, for which block) through the hooks defined in
//! [`crate::scheduler`].
//!
//! Each cost is charged at the granularity it really has, the same one
//! [`crate::plan`]'s replay uses: a fetch of `n` experts is one staging
//! reservation and one copy-stream submission of `n` equal copies (traced
//! runs still get one `fetch-b{block}e{expert}` span per copy), and the
//! attention and dense-FFN kernel durations are computed once per pass,
//! not once per block. Runs with an expert cache are always interpreted,
//! so this is what their host cost rests on.

use crate::plan::{PlanBytes, PlanOp, PlanRecorder};
use crate::scheduler::{
    ExecPlan, ExpertScheduler, FetchSet, Phase, PolicyCtx, Prefetch, Residency, RoutedSource,
    RoutedView,
};
use crate::{ExpertCache, ExpertKey, PlacementPlan, Result};
use pgmoe_device::{AllocId, EventId, Machine, SimDuration, Tier};
use pgmoe_model::GateTopology;
use rand::rngs::StdRng;
use rand::Rng;

/// Mutable run state the core drives on behalf of a serving path.
pub(crate) struct CoreEnv<'a> {
    pub machine: &'a mut Machine,
    pub plan: &'a PlacementPlan,
    pub cache: &'a mut Option<ExpertCache>,
    pub offload_tier: Tier,
    pub num_experts: usize,
    /// Bytes copied by fetches on a block's critical path (serialized
    /// residency fetches, prefetch-miss fills) — the on-demand stall metric.
    pub demand_bytes: &'a mut u64,
}

/// Per-block in-flight prefetch state.
#[derive(Debug, Default)]
struct Pending {
    done: Option<EventId>,
    /// Expert set the in-flight prefetch covers (`covered_all` short-cuts
    /// full-set prefetches).
    covered: Vec<usize>,
    covered_all: bool,
    /// Whether the coverage includes the block's whole routed set (a
    /// [`FetchSet::Routed`] prefetch): the on-demand fill is then empty at
    /// any routing, which is what lets a count-parametric plan omit it.
    covers_routed: bool,
    buffers: Vec<AllocId>,
}

impl Pending {
    fn clear(&mut self) {
        self.done = None;
        self.covered.clear();
        self.covered_all = false;
        self.covers_routed = false;
        debug_assert!(self.buffers.is_empty(), "iteration left transient buffers alive");
        self.buffers.clear();
    }
}

/// Reusable decode-iteration and prefill-pass state: hoisted out of the
/// token loop so the steady state performs no heap allocation (capacities
/// are retained).
pub(crate) struct CoreScratch {
    pending: Vec<Pending>,
    prefetches: Vec<Prefetch>,
    waits: Vec<EventId>,
    all_experts: Vec<usize>,
    missing: Vec<usize>,
    /// Prefill's per-encoder-block pending state (sized on first use).
    prefill_pending: Vec<Pending>,
    /// Prefill expert draws: the shuffle pool, the block's own sample and
    /// a routed prefetch's sample.
    draw_pool: Vec<usize>,
    own: Vec<usize>,
    sampled: Vec<usize>,
    /// The bitset a draw is read back through (all zero between draws).
    draw_bits: Vec<u64>,
}

impl CoreScratch {
    pub(crate) fn new(dec_blocks: usize, num_experts: usize) -> Self {
        CoreScratch {
            pending: (0..dec_blocks).map(|_| Pending::default()).collect(),
            prefetches: Vec::with_capacity(4),
            waits: Vec::with_capacity(4),
            all_experts: (0..num_experts).collect(),
            missing: Vec::new(),
            prefill_pending: Vec::new(),
            draw_pool: Vec::with_capacity(num_experts),
            own: Vec::with_capacity(num_experts),
            sampled: Vec::with_capacity(num_experts),
            draw_bits: vec![0; num_experts.div_ceil(64)],
        }
    }

    fn reset(&mut self) {
        for p in &mut self.pending {
            p.clear();
        }
        self.waits.clear();
        self.missing.clear();
    }

    /// Decoder MoE blocks this scratch was sized for.
    pub(crate) fn dec_blocks(&self) -> usize {
        self.pending.len()
    }
}

/// Fixed per-iteration decode costs (attention/FFN bytes differ between the
/// batch-1 engine and the batched scheduler; the structure does not).
pub(crate) struct DecodeCosts {
    pub attn_bytes: u64,
    pub ffn_bytes: u64,
    pub decoder_layers: usize,
    pub moe_every: usize,
}

/// Fixed prefill (encoder) costs and labels.
pub(crate) struct PrefillCosts {
    pub attn_flops: f64,
    pub attn_bytes: u64,
    pub ffn_flops: f64,
    pub ffn_bytes: u64,
    pub exec_flops: f64,
    pub encoder_layers: usize,
    pub moe_every: usize,
    /// Expected distinct experts activated per encoder MoE block.
    pub distinct: usize,
    /// Kernel labels: attention, dense FFN, expert execution.
    pub labels: [&'static str; 3],
}

/// The encoder-pass cost model: prefilling `total_inputs` prompt tokens
/// against a batch whose live contexts read `attn_bytes` per attention
/// layer. Token-parallel kernels: flops scale with tokens, weight bytes are
/// read once. A session's prefill and [`crate::InferenceSim`]'s batch-1
/// pass both build their [`PrefillCosts`] here, so the two cannot drift.
pub(crate) fn batched_prefill_costs(
    cfg: &pgmoe_model::ModelConfig,
    plan: &PlacementPlan,
    total_inputs: usize,
    attn_bytes: u64,
) -> PrefillCosts {
    let tokens = total_inputs as f64;
    let d = cfg.d_model as f64;
    let ffn_flops = tokens * 4.0 * d * cfg.d_ff as f64;
    PrefillCosts {
        attn_flops: tokens * 2.0 * (4.0 * d * d + 2.0 * d * tokens),
        attn_bytes,
        ffn_flops,
        ffn_bytes: crate::engine::dense_ffn_bytes_for(cfg),
        exec_flops: ffn_flops * plan.active_per_block() as f64,
        encoder_layers: cfg.encoder_layers,
        moe_every: cfg.moe_every,
        distinct: expected_distinct_experts(
            total_inputs * plan.active_per_block(),
            cfg.num_experts,
        ),
        labels: ["prefill-attn", "prefill-ffn", "prefill-expert"],
    }
}

/// Enqueues migration of `experts` for cache key-space `block`. Experts the
/// scheduler pins resident cost nothing; cache hits cost nothing; the `n`
/// others are copied from the offload tier and count toward the
/// demand-stall bytes when `demand`. Returns the event after which every
/// requested expert is GPU-resident, plus `n`.
///
/// Every expert's residency and cache check runs in order, then the fetch
/// is charged once, as [`crate::plan`]'s replay charges it: one transient
/// HBM reservation of `n` experts pushed onto `buffers` (when supplied) and
/// one copy-stream submission of `n` equal copies behind the shared
/// `waits` ([`Machine::copy_many_to_gpu`]). That is exact: the pool's
/// high-water mark moves as `n` single-expert buffers would move it, the
/// copies would serialize back to back on the in-order stream, and a
/// traced run still records one `fetch-b{block}e{expert}` span per copy.
/// An all-hit fetch (`n = 0`) is a zero-length barrier on `waits`. On OOM
/// the block's buffers are freed before the error propagates.
fn issue_copy(
    env: &mut CoreEnv<'_>,
    sched: &dyn ExpertScheduler,
    block: usize,
    experts: &[usize],
    waits: &[EventId],
    buffers: Option<&mut Vec<AllocId>>,
    demand: bool,
) -> Result<(EventId, usize)> {
    let trace = env.machine.trace_enabled();
    let expert_bytes = env.plan.expert_bytes();
    // The copied ids only label Fig 9's spans; untraced runs keep none.
    let mut labels = Vec::new();
    let mut copied = 0usize;
    for &e in experts {
        let key = ExpertKey { block, expert: e };
        if sched.is_resident(key) {
            continue;
        }
        let hit = match env.cache.as_mut() {
            Some(c) => {
                c.access_consulting(key, || (sched.cache_admission(key), sched.eviction_hint(key)))
            }
            None => false,
        };
        if hit {
            continue;
        }
        if trace {
            labels.push(e);
        }
        copied += 1;
    }
    // Transient staging; OOM here is a real capacity failure.
    if let Some(buffers) = buffers.filter(|_| copied > 0) {
        match env.machine.pool_mut(Tier::Hbm).alloc(copied as u64 * expert_bytes) {
            Ok(id) => buffers.push(id),
            Err(err) => {
                free_buffers(env.machine, buffers);
                return Err(err.into());
            }
        }
    }
    if demand {
        *env.demand_bytes += copied as u64 * expert_bytes;
    }
    let done = env.machine.copy_many_to_gpu(copied, expert_bytes, env.offload_tier, waits, |i| {
        format!("fetch-b{block}e{}", labels[i])
    });
    Ok((done, copied))
}

/// One policy-driven decode iteration: every layer of the decoder stack,
/// hooks consulted per MoE block, fetches and transients managed by the
/// core. `routed` supplies the iteration's expert sets (the engine's
/// per-token trace slice or the batch scheduler's unions); `enc_blocks`
/// offsets decoder cache keys past the encoder's; `block_latencies`, when
/// supplied, receives each MoE block's latency in submission order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decode_iteration(
    env: &mut CoreEnv<'_>,
    sched: &mut dyn ExpertScheduler,
    topo: &GateTopology,
    routed: &dyn RoutedSource,
    token: usize,
    enc_blocks: usize,
    costs: &DecodeCosts,
    scratch: &mut CoreScratch,
    mut block_latencies: Option<&mut Vec<SimDuration>>,
    mut rec: Option<&mut PlanRecorder>,
) -> Result<()> {
    let dec_blocks = scratch.pending.len();
    scratch.reset();

    // Iteration-start directives (MoE-Prefetch's block-0 firehose,
    // SpeculativeTopM's block-0 speculation).
    let mut prefetches = std::mem::take(&mut scratch.prefetches);
    prefetches.clear();
    {
        let ctx = decode_ctx(env, topo, routed, token, dec_blocks);
        sched.on_iteration_start(&ctx, &mut prefetches);
    }
    for p in prefetches.drain(..) {
        issue_decode_prefetch(
            env,
            sched,
            &p,
            routed,
            None,
            enc_blocks,
            scratch,
            rec.as_deref_mut(),
        )?;
    }

    // The dense kernels cost the same in every block: price them once.
    let attn_dur = env.machine.cost().kernel_time(0.0, costs.attn_bytes);
    let ffn_dur = env.machine.cost().kernel_time(0.0, costs.ffn_bytes);
    let mut moe_idx = 0usize;
    for layer in 0..costs.decoder_layers {
        let is_moe = layer % costs.moe_every == costs.moe_every - 1;
        let compute = env.machine.compute_stream();
        let block_start = env.machine.engine_mut().stream_tail(compute);
        if let Some(r) = rec.as_deref_mut() {
            r.op(PlanOp::BlockStart);
        }
        env.machine.compute_op("attn", attn_dur, &[]);
        if let Some(r) = rec.as_deref_mut() {
            r.op(PlanOp::Gemm {
                label: "attn",
                bytes: PlanBytes::Attn,
                waits: Vec::new(),
                out: None,
            });
        }
        if !is_moe {
            env.machine.compute_op("ffn", ffn_dur, &[]);
            if let Some(r) = rec.as_deref_mut() {
                r.op(PlanOp::Gemm {
                    label: "ffn",
                    bytes: PlanBytes::Ffn,
                    waits: Vec::new(),
                    out: None,
                });
            }
            continue;
        }
        let b = moe_idx;
        let experts = routed.experts(b);
        let gate = env.machine.compute_op("gate", env.machine.cost().gate_overhead, &[]);
        if let Some(r) = rec.as_deref_mut() {
            let out = r.event(gate);
            r.op(PlanOp::Gate { out });
        }

        // Resolve this block's expert availability FIRST: a serialized
        // residency fetch is on the block's critical path and must not
        // queue behind the next block's prefetch on the in-order copy
        // stream.
        scratch.waits.clear();
        let residency = {
            let ctx = decode_ctx(env, topo, routed, token, dec_blocks);
            sched.on_block_start(&ctx, b)
        };
        match residency {
            Residency::Resident => scratch.waits.push(gate),
            Residency::Fetch { set, after_gate } => {
                let slice: &[usize] = match &set {
                    FetchSet::Routed => experts,
                    FetchSet::All => &scratch.all_experts,
                    FetchSet::Listed(v) => v,
                };
                let waits: &[EventId] = if after_gate { &[gate] } else { &[] };
                let buffers = Some(&mut scratch.pending[b].buffers);
                let fetched = issue_copy(env, sched, enc_blocks + b, slice, waits, buffers, true)?;
                if let Some(r) = rec.as_deref_mut() {
                    r.fetch(b, set == FetchSet::Routed, slice.len(), fetched, waits, true);
                }
                scratch.waits.push(fetched.0);
                scratch.waits.push(gate);
            }
            Residency::AwaitPending => match scratch.pending[b].done.take() {
                Some(ev) => {
                    scratch.waits.push(ev);
                    // Fill whatever the prefetch missed, on demand.
                    let pending = &scratch.pending[b];
                    scratch.missing.clear();
                    if !pending.covered_all {
                        scratch.missing.extend(experts.iter().copied().filter(|&e| {
                            !pending.covered.contains(&e)
                                && !sched
                                    .is_resident(ExpertKey { block: enc_blocks + b, expert: e })
                        }));
                    }
                    if let Some(r) = rec.as_deref_mut() {
                        // Only a prefetch of the whole routed set leaves an
                        // empty fill at every routing; any other fill's
                        // size depends on which experts were routed.
                        if r.parametric() && !(pending.covered_all || pending.covers_routed) {
                            r.poison();
                        }
                    }
                    if !scratch.missing.is_empty() {
                        let missing = &scratch.missing;
                        let buffers = Some(&mut scratch.pending[b].buffers);
                        let fetched = issue_copy(
                            env,
                            sched,
                            enc_blocks + b,
                            missing,
                            &[gate],
                            buffers,
                            true,
                        )?;
                        if let Some(r) = rec.as_deref_mut() {
                            r.fetch(b, false, missing.len(), fetched, &[gate], true);
                        }
                        scratch.waits.push(fetched.0);
                    }
                    scratch.waits.push(gate);
                }
                None => {
                    // No prefetch in flight (first block(s) of the
                    // iteration): serialized routed fetch, like OnDemand —
                    // footnote 1 of the paper.
                    let buffers = Some(&mut scratch.pending[b].buffers);
                    let fetched =
                        issue_copy(env, sched, enc_blocks + b, experts, &[gate], buffers, true)?;
                    if let Some(r) = rec.as_deref_mut() {
                        r.fetch(b, true, experts.len(), fetched, &[gate], true);
                    }
                    scratch.waits.push(fetched.0);
                    scratch.waits.push(gate);
                }
            },
        }

        // Then the fetches this block's gate is responsible for (pre-gated
        // targets, the next block's full-set prefetch, ...).
        {
            let ctx = decode_ctx(env, topo, routed, token, dec_blocks);
            sched.on_gate(&ctx, b, &mut prefetches);
        }
        for p in prefetches.drain(..) {
            issue_decode_prefetch(
                env,
                sched,
                &p,
                routed,
                Some(gate),
                enc_blocks,
                scratch,
                rec.as_deref_mut(),
            )?;
        }

        // How the resident experts execute: single-GPU streaming by default,
        // or a sharded kernel bracketed by all-to-all hops under a
        // distributed scheduler (the hops serialize on the compute stream —
        // the cluster runs in lockstep).
        let eplan = {
            let ctx = decode_ctx(env, topo, routed, token, dec_blocks);
            sched.exec_plan(&ctx, b, experts)
        };
        let dispatch_wait;
        let exec_waits: &[EventId] = if eplan.dispatch > SimDuration::ZERO {
            let dispatch = env.machine.compute_op("a2a-dispatch", eplan.dispatch, &scratch.waits);
            if let Some(r) = rec.as_deref_mut() {
                let waits = r.slots_of(&scratch.waits);
                let out = r.event(dispatch);
                r.op(PlanOp::AllToAll { label: "a2a-dispatch", dur: eplan.dispatch, waits, out });
            }
            dispatch_wait = [dispatch];
            &dispatch_wait
        } else {
            &scratch.waits
        };
        let exec = env.machine.launch_kernel("expert", 0.0, eplan.exec_bytes, exec_waits);
        if let Some(r) = rec.as_deref_mut() {
            if r.dequant() {
                r.op(PlanOp::Dequant { block: b });
            }
            let bytes = if r.parametric() {
                // Count-parametric plans stream the routed set's bytes,
                // which only the default single-GPU exec plan does.
                if eplan != ExecPlan::local(experts.len(), env.plan.expert_bytes()) {
                    r.poison();
                }
                PlanBytes::Routed(b)
            } else {
                PlanBytes::Lit(eplan.exec_bytes)
            };
            let waits = r.slots_of(exec_waits);
            let out = r.event(exec);
            r.op(PlanOp::Gemm { label: "expert", bytes, waits, out: Some(out) });
        }
        let done = if eplan.combine > SimDuration::ZERO {
            let combine = env.machine.compute_op("a2a-combine", eplan.combine, &[exec]);
            if let Some(r) = rec.as_deref_mut() {
                let waits = r.slots_of(&[exec]);
                let out = r.event(combine);
                r.op(PlanOp::AllToAll { label: "a2a-combine", dur: eplan.combine, waits, out });
            }
            combine
        } else {
            exec
        };
        if let Some(r) = rec.as_deref_mut() {
            r.free(b);
        }
        free_buffers(env.machine, &mut scratch.pending[b].buffers);
        if let Some(lat) = block_latencies.as_deref_mut() {
            lat.push(env.machine.event_time(done) - block_start);
            if let Some(r) = rec.as_deref_mut() {
                let done_slots = r.slots_of(&[done]);
                if let Some(&slot) = done_slots.first() {
                    r.op(PlanOp::Latency { done: slot });
                }
            }
        }
        moe_idx += 1;
    }
    // Safety net for schedulers that prefetched blocks which never
    // consumed their buffers.
    for (b, p) in scratch.pending.iter_mut().enumerate() {
        if let Some(r) = rec.as_deref_mut() {
            r.free(b);
        }
        free_buffers(env.machine, &mut p.buffers);
    }
    scratch.prefetches = prefetches;
    Ok(())
}

/// Issues one decode-phase prefetch directive into its pending slot.
#[allow(clippy::too_many_arguments)]
fn issue_decode_prefetch(
    env: &mut CoreEnv<'_>,
    sched: &dyn ExpertScheduler,
    p: &Prefetch,
    routed: &dyn RoutedSource,
    gate: Option<EventId>,
    enc_blocks: usize,
    scratch: &mut CoreScratch,
    rec: Option<&mut PlanRecorder>,
) -> Result<()> {
    if p.block >= scratch.pending.len() {
        return Ok(()); // directive past the stack: ignore
    }
    let slice: &[usize] = match &p.set {
        FetchSet::Routed => routed.experts(p.block),
        FetchSet::All => &scratch.all_experts,
        FetchSet::Listed(v) => v,
    };
    let pending = &mut scratch.pending[p.block];
    // A second directive for the same block *merges* with the one already
    // in flight: experts the earlier prefetch covers are not copied again,
    // and coverage accumulates. The copy stream is in-order, so waiting on
    // the newest event also covers every earlier copy.
    let merging = pending.done.is_some();
    // A merge into a partial set copies only what the earlier directive
    // missed — a count no routed-set size expresses.
    let identity_merge = merging && !pending.covered_all;
    let dedup: Vec<usize>;
    let fetch_slice: &[usize] = if merging && pending.covered_all {
        &[]
    } else if merging {
        dedup = slice.iter().copied().filter(|e| !pending.covered.contains(e)).collect();
        &dedup
    } else {
        pending.covered.clear();
        pending.covered_all = false;
        pending.covers_routed = false;
        slice
    };
    let routed_set = p.set == FetchSet::Routed;
    if matches!(p.set, FetchSet::All) {
        pending.covered_all = true;
    } else if !pending.covered_all {
        pending.covered.extend_from_slice(fetch_slice);
    }
    pending.covers_routed |= routed_set;
    let waits_buf;
    let waits: &[EventId] = match (p.after_gate, gate) {
        (true, Some(g)) => {
            waits_buf = [g];
            &waits_buf
        }
        _ => &[],
    };
    let buffers = Some(&mut pending.buffers);
    let fetched = issue_copy(env, sched, enc_blocks + p.block, fetch_slice, waits, buffers, false)?;
    if let Some(r) = rec {
        if r.parametric() && identity_merge {
            r.poison();
        }
        r.fetch(p.block, routed_set && !merging, fetch_slice.len(), fetched, waits, false);
    }
    pending.done = Some(fetched.0);
    Ok(())
}

fn decode_ctx<'a>(
    env: &'a CoreEnv<'_>,
    topo: &'a GateTopology,
    routed: &'a dyn RoutedSource,
    token: usize,
    dec_blocks: usize,
) -> PolicyCtx<'a> {
    PolicyCtx {
        phase: Phase::Decode,
        token,
        blocks: dec_blocks,
        num_experts: env.num_experts,
        active_per_block: env.plan.active_per_block(),
        expert_bytes: env.plan.expert_bytes(),
        topology: topo,
        routed: RoutedView::Sets(routed),
        cache: env.cache.as_ref(),
    }
}

fn prefill_ctx<'a>(
    env: &'a CoreEnv<'_>,
    topo: &'a GateTopology,
    enc_blocks: usize,
) -> PolicyCtx<'a> {
    PolicyCtx {
        phase: Phase::Prefill,
        token: 0,
        blocks: enc_blocks,
        num_experts: env.num_experts,
        active_per_block: env.plan.active_per_block(),
        expert_bytes: env.plan.expert_bytes(),
        topology: topo,
        routed: RoutedView::Hidden,
        cache: env.cache.as_ref(),
    }
}

/// One policy-driven prefill (encoder) pass. Expert activations are
/// *sampled* per block as the pass runs (the routing trace only covers
/// decode), so [`FetchSet::Routed`] directives for future blocks sample a
/// fresh set when the copy is issued — matching how a pre-gate's selection
/// materialises just-in-time. When `alloc_buffers` is false the caller
/// provides a staging region and fetches stream through it (the batch-1
/// engine); when true each fetch gets transient buffers (the batched
/// scheduler's prefill).
#[allow(clippy::too_many_arguments)]
pub(crate) fn prefill_pass(
    env: &mut CoreEnv<'_>,
    sched: &mut dyn ExpertScheduler,
    topo: &GateTopology,
    enc_blocks: usize,
    costs: &PrefillCosts,
    rng: &mut StdRng,
    alloc_buffers: bool,
    scratch: &mut CoreScratch,
) -> Result<()> {
    scratch.prefill_pending.resize_with(enc_blocks, Pending::default);
    for p in &mut scratch.prefill_pending {
        p.done = None;
        p.buffers.clear();
    }
    let mut prefetches = std::mem::take(&mut scratch.prefetches);
    prefetches.clear();
    {
        let ctx = prefill_ctx(env, topo, enc_blocks);
        sched.on_iteration_start(&ctx, &mut prefetches);
    }
    for p in prefetches.drain(..) {
        issue_prefill_prefetch(env, sched, &p, None, costs, rng, alloc_buffers, scratch)?;
    }

    let attn_dur = env.machine.cost().kernel_time(costs.attn_flops, costs.attn_bytes);
    let ffn_dur = env.machine.cost().kernel_time(costs.ffn_flops, costs.ffn_bytes);
    let mut moe_idx = 0usize;
    for layer in 0..costs.encoder_layers {
        let is_moe = layer % costs.moe_every == costs.moe_every - 1;
        env.machine.compute_op(costs.labels[0], attn_dur, &[]);
        if !is_moe {
            env.machine.compute_op(costs.labels[1], ffn_dur, &[]);
            continue;
        }
        let b = moe_idx;
        // Sample this block's distinct activated experts.
        sample_distinct_experts(
            costs.distinct,
            env.num_experts,
            rng,
            &mut scratch.draw_pool,
            &mut scratch.draw_bits,
            &mut scratch.own,
        );
        let own = &scratch.own;
        let pending = &mut scratch.prefill_pending;
        let waits = &mut scratch.waits;
        waits.clear();
        let gate = env.machine.compute_op("gate", env.machine.cost().gate_overhead, &[]);

        let residency = {
            let ctx = prefill_ctx(env, topo, enc_blocks);
            sched.on_block_start(&ctx, b)
        };
        match residency {
            Residency::Resident => waits.push(gate),
            Residency::Fetch { set, after_gate } => {
                let slice: &[usize] = match &set {
                    FetchSet::Routed => own,
                    FetchSet::All => &scratch.all_experts,
                    FetchSet::Listed(v) => v,
                };
                let copy_waits: &[EventId] = if after_gate { &[gate] } else { &[] };
                let buffers = alloc_buffers.then_some(&mut pending[b].buffers);
                let (ev, _) = issue_copy(env, sched, b, slice, copy_waits, buffers, true)?;
                waits.push(ev);
                waits.push(gate);
            }
            // Prefill pipelines are approximate by design (prefetched
            // samples stand in for the block's own sample), so pending
            // fetches are taken at face value — no coverage fill.
            Residency::AwaitPending => match pending[b].done.take() {
                Some(ev) => {
                    waits.push(ev);
                    waits.push(gate);
                }
                None => {
                    let buffers = alloc_buffers.then_some(&mut pending[b].buffers);
                    let (ev, _) = issue_copy(env, sched, b, own, &[gate], buffers, true)?;
                    waits.push(ev);
                    waits.push(gate);
                }
            },
        }
        let eplan = {
            let ctx = prefill_ctx(env, topo, enc_blocks);
            sched.exec_plan(&ctx, b, own)
        };
        if eplan.dispatch > SimDuration::ZERO {
            let d = env.machine.compute_op("a2a-dispatch", eplan.dispatch, waits);
            waits.clear();
            waits.push(d);
        }
        let exec =
            env.machine.launch_kernel(costs.labels[2], costs.exec_flops, eplan.exec_bytes, waits);
        if eplan.combine > SimDuration::ZERO {
            env.machine.compute_op("a2a-combine", eplan.combine, &[exec]);
        }
        free_buffers(env.machine, &mut pending[b].buffers);

        // Issue follow-on fetches after this block's execution is queued —
        // the prefill pipeline holds at most one set of transients alive.
        {
            let ctx = prefill_ctx(env, topo, enc_blocks);
            sched.on_gate(&ctx, b, &mut prefetches);
        }
        for p in prefetches.drain(..) {
            issue_prefill_prefetch(env, sched, &p, Some(gate), costs, rng, alloc_buffers, scratch)?;
        }
        moe_idx += 1;
    }
    for p in &mut scratch.prefill_pending {
        free_buffers(env.machine, &mut p.buffers);
    }
    scratch.prefetches = prefetches;
    Ok(())
}

/// Issues one prefill-phase prefetch directive ([`FetchSet::Routed`]
/// samples a fresh activation set at issue time).
#[allow(clippy::too_many_arguments)]
fn issue_prefill_prefetch(
    env: &mut CoreEnv<'_>,
    sched: &dyn ExpertScheduler,
    p: &Prefetch,
    gate: Option<EventId>,
    costs: &PrefillCosts,
    rng: &mut StdRng,
    alloc_buffers: bool,
    scratch: &mut CoreScratch,
) -> Result<()> {
    if p.block >= scratch.prefill_pending.len() {
        return Ok(());
    }
    let slice: &[usize] = match &p.set {
        FetchSet::Routed => {
            sample_distinct_experts(
                costs.distinct,
                env.num_experts,
                rng,
                &mut scratch.draw_pool,
                &mut scratch.draw_bits,
                &mut scratch.sampled,
            );
            &scratch.sampled
        }
        FetchSet::All => &scratch.all_experts,
        FetchSet::Listed(v) => v,
    };
    let waits_buf;
    let waits: &[EventId] = match (p.after_gate, gate) {
        (true, Some(g)) => {
            waits_buf = [g];
            &waits_buf
        }
        _ => &[],
    };
    let pending = &mut scratch.prefill_pending[p.block];
    let buffers = alloc_buffers.then_some(&mut pending.buffers);
    let (ev, _) = issue_copy(env, sched, p.block, slice, waits, buffers, false)?;
    pending.done = Some(ev);
    Ok(())
}

/// Frees and drains transient expert buffers, keeping the vector's capacity
/// for the next iteration.
pub(crate) fn free_buffers(machine: &mut Machine, buffers: &mut Vec<AllocId>) {
    for id in buffers.drain(..) {
        machine.pool_mut(Tier::Hbm).free(id).expect("expert buffer double free");
    }
}

/// Expected number of distinct experts activated by `draws` independent
/// uniform draws over `experts` (balls-in-bins).
pub(crate) fn expected_distinct_experts(draws: usize, experts: usize) -> usize {
    let e = experts as f64;
    let expected = e * (1.0 - (1.0 - 1.0 / e).powi(draws as i32));
    (expected.round() as usize).clamp(1, experts)
}

/// Draws `count` distinct experts uniformly (partial Fisher–Yates over
/// `pool`) into `out`, sorted: the draws are marked in the bitset `bits`
/// and read back in ascending order ([`mark_experts`], [`drain_experts`]),
/// so no sort runs and `bits` is left all zero.
///
/// With `count >= experts` the sample is the full set whatever the draws
/// would be, so `out` becomes `0..experts` and `rng` is not touched. That
/// skip is exact for its callers: each prefill pass seeds its own RNG and
/// samples with one `count` throughout ([`PrefillCosts::distinct`]), so
/// either every sample in a pass draws or none does, and no later draw
/// sees a shifted stream.
pub(crate) fn sample_distinct_experts(
    count: usize,
    experts: usize,
    rng: &mut StdRng,
    pool: &mut Vec<usize>,
    bits: &mut Vec<u64>,
    out: &mut Vec<usize>,
) {
    out.clear();
    if count >= experts {
        out.extend(0..experts);
        return;
    }
    pool.clear();
    pool.extend(0..experts);
    for i in 0..count {
        let j = rng.gen_range(i..experts);
        pool.swap(i, j);
    }
    bits.resize(experts.div_ceil(64), 0);
    mark_experts(bits, &pool[..count], experts);
    drain_experts(bits, out);
}

/// Adds every id in `experts` below `num_experts` to the bitset `bits` (bit
/// `e % 64` of word `e / 64`; `bits` holds at least `num_experts` bits).
/// Larger ids — a live router naming an expert the model lacks — are
/// dropped.
pub(crate) fn mark_experts(bits: &mut [u64], experts: &[usize], num_experts: usize) {
    for &e in experts.iter().filter(|&&e| e < num_experts) {
        bits[e / 64] |= 1 << (e % 64);
    }
}

/// Replaces `out` with the ids set in `bits`, ascending, and clears `bits`:
/// a set built by [`mark_experts`] comes out sorted and deduplicated with
/// no sort, no dedup and, once `out` has grown, no allocation.
pub(crate) fn drain_experts(bits: &mut [u64], out: &mut Vec<usize>) {
    out.clear();
    for (w, word) in bits.iter_mut().enumerate() {
        let mut rest = std::mem::take(word);
        while rest != 0 {
            out.push(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_expert_expectation_is_sane() {
        assert_eq!(expected_distinct_experts(1, 64), 1);
        assert!(expected_distinct_experts(64, 64) > 30);
        assert_eq!(expected_distinct_experts(10_000, 8), 8);
    }

    #[test]
    fn full_set_sample_draws_nothing() {
        use rand::{RngCore, SeedableRng};
        let (mut pool, mut bits, mut out) = (Vec::new(), Vec::new(), vec![99]);
        for (count, experts) in [(8, 8), (9, 8), (usize::MAX, 3), (0, 0), (1, 1)] {
            let mut rng = StdRng::seed_from_u64(7);
            sample_distinct_experts(count, experts, &mut rng, &mut pool, &mut bits, &mut out);
            assert_eq!(out, (0..experts).collect::<Vec<_>>(), "count {count} of {experts}");
            assert_eq!(rng.next_u64(), StdRng::seed_from_u64(7).next_u64(), "rng advanced");
        }
    }

    #[test]
    fn bitset_sample_matches_shuffle_sort_oracle() {
        use rand::{RngCore, SeedableRng};
        // The draws read back through a sort, as they were before the
        // bitset: same experts, same order, same RNG stream afterwards.
        let oracle = |count: usize, experts: usize, rng: &mut StdRng| {
            let mut pool: Vec<usize> = (0..experts).collect();
            for i in 0..count {
                let j = rng.gen_range(i..experts);
                pool.swap(i, j);
            }
            let mut out = pool[..count].to_vec();
            out.sort_unstable();
            out
        };
        let (mut pool, mut bits, mut out) = (Vec::new(), Vec::new(), Vec::new());
        for experts in [8, 63, 64, 65, 128, 256] {
            for count in 0..experts {
                let seed = (experts * 1000 + count) as u64;
                let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                sample_distinct_experts(count, experts, &mut a, &mut pool, &mut bits, &mut out);
                assert_eq!(out, oracle(count, experts, &mut b), "{count} of {experts}");
                assert_eq!(a.next_u64(), b.next_u64(), "rng stream, {count} of {experts}");
                assert!(bits.iter().all(|&w| w == 0), "bits left set, {count} of {experts}");
            }
        }
    }
}
