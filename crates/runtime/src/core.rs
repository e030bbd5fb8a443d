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

use crate::plan::{PlanBytes, PlanOp, PlanRecorder};
use crate::scheduler::{
    ExpertScheduler, FetchSet, Phase, PolicyCtx, Prefetch, Residency, RoutedSource, RoutedView,
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
    buffers: Vec<AllocId>,
}

impl Pending {
    fn clear(&mut self) {
        self.done = None;
        self.covered.clear();
        self.covered_all = false;
        debug_assert!(self.buffers.is_empty(), "iteration left transient buffers alive");
        self.buffers.clear();
    }
}

/// Reusable decode-iteration state: hoisted out of the token loop so the
/// steady state performs no heap allocation (capacities are retained).
pub(crate) struct CoreScratch {
    pending: Vec<Pending>,
    prefetches: Vec<Prefetch>,
    waits: Vec<EventId>,
    all_experts: Vec<usize>,
    missing: Vec<usize>,
}

impl CoreScratch {
    pub(crate) fn new(dec_blocks: usize, num_experts: usize) -> Self {
        CoreScratch {
            pending: (0..dec_blocks).map(|_| Pending::default()).collect(),
            prefetches: Vec::with_capacity(4),
            waits: Vec::with_capacity(4),
            all_experts: (0..num_experts).collect(),
            missing: Vec::new(),
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

/// The batched serving paths' encoder-pass cost model: prefilling
/// `total_inputs` prompt tokens against a batch whose live contexts read
/// `attn_bytes` per attention layer. The all-at-once prefill and the paged
/// path's chunked prefill both build their [`PrefillCosts`] here so the two
/// cannot drift — with an unbounded chunk they submit byte- and
/// flop-identical passes.
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
/// scheduler pins resident cost nothing; cache hits cost nothing; every
/// other expert gets (when `alloc_buffers`) a transient HBM buffer pushed
/// onto `buffers` and a copy from the offload tier. Returns the event after
/// which every requested expert is GPU-resident, plus the bytes actually
/// copied. On OOM the block's buffers are freed before the error
/// propagates. When a [`PlanRecorder`] is attached (decode only, where
/// every copy stages through a transient buffer) the whole fetch — copies
/// and `demand` accounting — is captured as one [`PlanOp::Fetch`].
#[allow(clippy::too_many_arguments)]
fn issue_copy(
    machine: &mut Machine,
    plan: &PlacementPlan,
    cache: &mut Option<ExpertCache>,
    offload_tier: Tier,
    sched: &dyn ExpertScheduler,
    block: usize,
    experts: &[usize],
    waits: &[EventId],
    alloc_buffers: bool,
    buffers: &mut Vec<AllocId>,
    demand: bool,
    rec: Option<&mut PlanRecorder>,
) -> Result<(EventId, u64)> {
    let trace = machine.trace_enabled();
    let mut last = None;
    let mut copied = 0u64;
    debug_assert!(rec.is_none() || alloc_buffers, "recorded fetches stage through buffers");
    let mut copies: Vec<usize> = Vec::new();
    for &e in experts {
        let key = ExpertKey { block, expert: e };
        if sched.is_resident(key) {
            continue;
        }
        let hit = match cache.as_mut() {
            Some(c) => c.access_with(key, sched.cache_admission(key), sched.eviction_hint(key)),
            None => false,
        };
        if hit {
            continue;
        }
        // Transient staging buffer; OOM here is a real capacity failure.
        if alloc_buffers {
            match machine.pool_mut(Tier::Hbm).alloc(plan.expert_bytes()) {
                Ok(id) => buffers.push(id),
                Err(err) => {
                    free_buffers(machine, buffers);
                    return Err(err.into());
                }
            }
        }
        // Per-expert labels only exist to render Fig 9 timelines; skip the
        // string build on untraced (steady-state) runs.
        let ev = if trace {
            machine.copy_to_gpu(
                &format!("fetch-b{block}e{e}"),
                plan.expert_bytes(),
                offload_tier,
                waits,
            )
        } else {
            machine.copy_to_gpu("fetch", plan.expert_bytes(), offload_tier, waits)
        };
        copied += plan.expert_bytes();
        last = Some(ev);
        if rec.is_some() {
            copies.push(e);
        }
    }
    // All experts resident: the copy stream is in-order, so the last
    // submitted copy dominates. All-hit fetches complete immediately
    // relative to `waits` via a zero-length barrier.
    let done = match last {
        Some(ev) => ev,
        None => {
            let copy = machine.copy_stream();
            machine.engine_mut().barrier(copy, waits)
        }
    };
    if let Some(r) = rec {
        let wait_slots = r.slots_of(waits);
        let out = r.event(done);
        r.op(PlanOp::Fetch {
            block,
            bytes_each: plan.expert_bytes(),
            tier: offload_tier,
            copies,
            waits: wait_slots,
            demand,
            out,
        });
    }
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

    let mut moe_idx = 0usize;
    for layer in 0..costs.decoder_layers {
        let is_moe = layer % costs.moe_every == costs.moe_every - 1;
        let compute = env.machine.compute_stream();
        let block_start = env.machine.engine_mut().stream_tail(compute);
        if let Some(r) = rec.as_deref_mut() {
            r.op(PlanOp::BlockStart);
        }
        env.machine.launch_kernel("attn", 0.0, costs.attn_bytes, &[]);
        if let Some(r) = rec.as_deref_mut() {
            r.op(PlanOp::Gemm {
                label: "attn",
                bytes: PlanBytes::Attn,
                waits: Vec::new(),
                out: None,
            });
        }
        if !is_moe {
            env.machine.launch_kernel("ffn", 0.0, costs.ffn_bytes, &[]);
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
                let pending = &mut scratch.pending[b];
                let (ev, copied) = issue_copy(
                    env.machine,
                    env.plan,
                    env.cache,
                    env.offload_tier,
                    sched,
                    enc_blocks + b,
                    slice,
                    waits,
                    true,
                    &mut pending.buffers,
                    true,
                    rec.as_deref_mut(),
                )?;
                *env.demand_bytes += copied;
                scratch.waits.push(ev);
                scratch.waits.push(gate);
            }
            Residency::AwaitPending => match scratch.pending[b].done.take() {
                Some(ev) => {
                    scratch.waits.push(ev);
                    // Fill whatever the prefetch missed, on demand.
                    scratch.missing.clear();
                    if !scratch.pending[b].covered_all {
                        let covered = &scratch.pending[b].covered;
                        scratch.missing.extend(experts.iter().copied().filter(|&e| {
                            !covered.contains(&e)
                                && !sched
                                    .is_resident(ExpertKey { block: enc_blocks + b, expert: e })
                        }));
                    }
                    if !scratch.missing.is_empty() {
                        let missing = &scratch.missing;
                        let pending = &mut scratch.pending[b];
                        let (dev, copied) = issue_copy(
                            env.machine,
                            env.plan,
                            env.cache,
                            env.offload_tier,
                            sched,
                            enc_blocks + b,
                            missing,
                            &[gate],
                            true,
                            &mut pending.buffers,
                            true,
                            rec.as_deref_mut(),
                        )?;
                        *env.demand_bytes += copied;
                        scratch.waits.push(dev);
                    }
                    scratch.waits.push(gate);
                }
                None => {
                    // No prefetch in flight (first block(s) of the
                    // iteration): serialized routed fetch, like OnDemand —
                    // footnote 1 of the paper.
                    let pending = &mut scratch.pending[b];
                    let (ev, copied) = issue_copy(
                        env.machine,
                        env.plan,
                        env.cache,
                        env.offload_tier,
                        sched,
                        enc_blocks + b,
                        experts,
                        &[gate],
                        true,
                        &mut pending.buffers,
                        true,
                        rec.as_deref_mut(),
                    )?;
                    *env.demand_bytes += copied;
                    scratch.waits.push(ev);
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
            let waits = r.slots_of(exec_waits);
            let out = r.event(exec);
            r.op(PlanOp::Gemm {
                label: "expert",
                bytes: PlanBytes::Lit(eplan.exec_bytes),
                waits,
                out: Some(out),
            });
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
            if !scratch.pending[b].buffers.is_empty() {
                r.op(PlanOp::FreeBufs { count: scratch.pending[b].buffers.len() as u32 });
            }
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
    for p in &mut scratch.pending {
        if let Some(r) = rec.as_deref_mut() {
            if !p.buffers.is_empty() {
                r.op(PlanOp::FreeBufs { count: p.buffers.len() as u32 });
            }
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
    let dedup: Vec<usize>;
    let fetch_slice: &[usize] = if merging && pending.covered_all {
        &[]
    } else if merging {
        dedup = slice.iter().copied().filter(|e| !pending.covered.contains(e)).collect();
        &dedup
    } else {
        pending.covered.clear();
        pending.covered_all = false;
        slice
    };
    if matches!(p.set, FetchSet::All) {
        pending.covered_all = true;
    } else if !pending.covered_all {
        pending.covered.extend_from_slice(fetch_slice);
    }
    let waits_buf;
    let waits: &[EventId] = match (p.after_gate, gate) {
        (true, Some(g)) => {
            waits_buf = [g];
            &waits_buf
        }
        _ => &[],
    };
    let (ev, _copied) = issue_copy(
        env.machine,
        env.plan,
        env.cache,
        env.offload_tier,
        sched,
        enc_blocks + p.block,
        fetch_slice,
        waits,
        true,
        &mut pending.buffers,
        false,
        rec,
    )?;
    pending.done = Some(ev);
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
) -> Result<()> {
    let mut pending: Vec<Pending> = (0..enc_blocks).map(|_| Pending::default()).collect();
    let mut prefetches: Vec<Prefetch> = Vec::new();
    let all_experts: Vec<usize> = (0..env.num_experts).collect();
    {
        let ctx = prefill_ctx(env, topo, enc_blocks);
        sched.on_iteration_start(&ctx, &mut prefetches);
    }
    for p in std::mem::take(&mut prefetches) {
        issue_prefill_prefetch(
            env,
            sched,
            &p,
            None,
            costs,
            rng,
            alloc_buffers,
            &all_experts,
            &mut pending,
        )?;
    }

    let mut moe_idx = 0usize;
    for layer in 0..costs.encoder_layers {
        let is_moe = layer % costs.moe_every == costs.moe_every - 1;
        env.machine.launch_kernel(costs.labels[0], costs.attn_flops, costs.attn_bytes, &[]);
        if !is_moe {
            env.machine.launch_kernel(costs.labels[1], costs.ffn_flops, costs.ffn_bytes, &[]);
            continue;
        }
        let b = moe_idx;
        // Sample this block's distinct activated experts.
        let own = sample_distinct_experts(costs.distinct, env.num_experts, rng);
        let gate = env.machine.compute_op("gate", env.machine.cost().gate_overhead, &[]);

        let mut waits: Vec<EventId> = Vec::with_capacity(3);
        let residency = {
            let ctx = prefill_ctx(env, topo, enc_blocks);
            sched.on_block_start(&ctx, b)
        };
        match residency {
            Residency::Resident => waits.push(gate),
            Residency::Fetch { set, after_gate } => {
                let slice: &[usize] = match &set {
                    FetchSet::Routed => &own,
                    FetchSet::All => &all_experts,
                    FetchSet::Listed(v) => v,
                };
                let copy_waits: &[EventId] = if after_gate { &[gate] } else { &[] };
                let (ev, copied) = issue_copy(
                    env.machine,
                    env.plan,
                    env.cache,
                    env.offload_tier,
                    sched,
                    b,
                    slice,
                    copy_waits,
                    alloc_buffers,
                    &mut pending[b].buffers,
                    true,
                    None,
                )?;
                *env.demand_bytes += copied;
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
                    let (ev, copied) = issue_copy(
                        env.machine,
                        env.plan,
                        env.cache,
                        env.offload_tier,
                        sched,
                        b,
                        &own,
                        &[gate],
                        alloc_buffers,
                        &mut pending[b].buffers,
                        true,
                        None,
                    )?;
                    *env.demand_bytes += copied;
                    waits.push(ev);
                    waits.push(gate);
                }
            },
        }
        let eplan = {
            let ctx = prefill_ctx(env, topo, enc_blocks);
            sched.exec_plan(&ctx, b, &own)
        };
        if eplan.dispatch > SimDuration::ZERO {
            let d = env.machine.compute_op("a2a-dispatch", eplan.dispatch, &waits);
            waits.clear();
            waits.push(d);
        }
        let exec =
            env.machine.launch_kernel(costs.labels[2], costs.exec_flops, eplan.exec_bytes, &waits);
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
        for p in std::mem::take(&mut prefetches) {
            issue_prefill_prefetch(
                env,
                sched,
                &p,
                Some(gate),
                costs,
                rng,
                alloc_buffers,
                &all_experts,
                &mut pending,
            )?;
        }
        moe_idx += 1;
    }
    for p in &mut pending {
        free_buffers(env.machine, &mut p.buffers);
    }
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
    all_experts: &[usize],
    pending: &mut [Pending],
) -> Result<()> {
    if p.block >= pending.len() {
        return Ok(());
    }
    let sampled;
    let slice: &[usize] = match &p.set {
        FetchSet::Routed => {
            sampled = sample_distinct_experts(costs.distinct, env.num_experts, rng);
            &sampled
        }
        FetchSet::All => all_experts,
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
    let (ev, _copied) = issue_copy(
        env.machine,
        env.plan,
        env.cache,
        env.offload_tier,
        sched,
        p.block,
        slice,
        waits,
        alloc_buffers,
        &mut pending[p.block].buffers,
        false,
        None,
    )?;
    pending[p.block].done = Some(ev);
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

/// Draws `count` distinct experts uniformly (partial Fisher–Yates), sorted.
pub(crate) fn sample_distinct_experts(
    count: usize,
    experts: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..experts).collect();
    for i in 0..count.min(experts) {
        let j = rng.gen_range(i..experts);
        pool.swap(i, j);
    }
    let mut chosen: Vec<usize> = pool[..count.min(experts)].to_vec();
    chosen.sort_unstable();
    chosen
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
}
