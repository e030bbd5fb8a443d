//! Pull-based incremental decoding over the shared batch core.
//!
//! [`crate::BatchScheduler::serve`] is run-to-completion: it consumes a
//! whole pre-generated arrival trace and only then hands back statistics.
//! A real serving front door cannot work that way — requests arrive on
//! live sockets while earlier ones are mid-decode, and every generated
//! token must be streamed back the moment it exists. [`BatchSession`] is
//! the seam that makes that possible: it owns exactly the state the batch
//! scheduler's serve loop used to keep on its stack (machine, placement
//! plan, expert cache, policy scheduler, in-flight set) and exposes it as
//! three small operations the caller drives:
//!
//! * [`BatchSession::try_admit`] — offer one request at the current clock;
//!   admission control (max batch + the scheduler's own HBM contract)
//!   answers [`Admission::Admitted`], [`Admission::BatchFull`], or
//!   [`Admission::OverBudget`].
//! * [`BatchSession::step`] — run one scheduler step: prefill for pending
//!   prompts, then one decode iteration for every fully prefilled request,
//!   returning a [`TokenEvent`] per request that decoded.
//! * [`BatchSession::finish`] — consume the session and produce the same
//!   [`ServeStats`] the run-to-completion path reports.
//!
//! [`BatchScheduler::serve`] and every fleet replica are thin loops over
//! this handle (one shared admit-and-step turn, `BatchSession::pump`; the
//! golden-equivalence suite pins the refactor bit-exactly), and
//! `pgmoe-serve` drives the same handle from an HTTP event loop with live
//! wall-clock arrivals, streaming each [`TokenEvent`] back as an HTTP
//! chunk.
//!
//! # Real routing
//!
//! Offline simulation draws expert routing from a synthetic
//! [`RoutingTrace`]. When a *real* model runs next to the session (the
//! HTTP server runs the numeric `SwitchNet` forward pass), the caller can
//! supply the network's actual routing decisions through [`LiveRouting`]
//! and [`BatchSession::step_routed`], so fetch/cache bookkeeping follows
//! what the model really activated instead of the synthetic trace.
//!
//! [`BatchScheduler::serve`]: crate::BatchScheduler::serve

use crate::batch::BatchConfig;
use crate::core::{
    self, batched_prefill_costs, drain_experts, expected_distinct_experts, mark_experts, CoreEnv,
    CoreScratch, DecodeCosts,
};
use crate::engine::{attn_bytes_for, dense_ffn_bytes_for};
use crate::kv::{KvSeq, PagedKv, PagedKvConfig};
use crate::plan::{self, PlanCacheStats, PlanSession};
use crate::scheduler::{ExpertScheduler, MemoryProfile, PolicySpec, RoutedSource};
use crate::serve::ServeStats;
use crate::{ExpertCache, PlacementPlan, Result, RuntimeError, SimOptions};
use pgmoe_device::{Machine, SimDuration, SimTime, Tier};
use pgmoe_model::{ExpertPrecision, GateTopology, ModelConfig};
use pgmoe_workload::{ArrivedRequest, RoutingSampler, RoutingTrace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Outcome of offering one request to [`BatchSession::try_admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request joined the running batch and will receive its first
    /// token after the next [`BatchSession::step`]. `queueing` is the
    /// admission clock minus the request's arrival stamp.
    Admitted {
        /// Time the request waited between arrival and admission.
        queueing: SimDuration,
    },
    /// The batch already holds `max_batch` requests; offer again after a
    /// step retires someone.
    BatchFull,
    /// Admitting this request now would breach the HBM budget (static
    /// weights + in-flight KV/activations + the scheduler's worst-case
    /// migration transients). Offer again once the batch drains.
    OverBudget,
}

/// One token produced by a [`BatchSession::step`] for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenEvent {
    /// The id the caller passed to [`BatchSession::try_admit`].
    pub id: u64,
    /// Zero-based index of this token within the request's output.
    pub index: usize,
    /// `true` when this is the request's last token; its batch slot and
    /// activation memory have already been released.
    pub done: bool,
    /// Session clock when the token was emitted.
    pub at: SimTime,
}

/// What [`BatchSession::abort`] hands back for a request removed from the
/// batch before completing: enough for a control layer to account the
/// wasted work and redispatch the request elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbortedRequest {
    /// The id the caller passed to [`BatchSession::try_admit`].
    pub id: u64,
    /// Tokens the request had generated when it was aborted — work that is
    /// thrown away (the replica that takes the request over regenerates the
    /// stream from its route seed).
    pub tokens_generated: usize,
}

/// Caller-supplied expert routing for [`BatchSession::step_routed`].
///
/// Implemented by serving layers that run a real model alongside the
/// session: returning `true` after filling `out` with the experts request
/// `id` activates at decoder MoE block `block` for its `generated`-th
/// output token replaces the synthetic trace for that request/block.
/// Returning `false` falls back to the request's [`RoutingTrace`].
pub trait LiveRouting {
    /// Fills `out` with activated expert indices (may be empty) and
    /// returns whether live routing is available for this slot.
    fn experts(&mut self, id: u64, generated: usize, block: usize, out: &mut Vec<usize>) -> bool;
}

/// A request currently being decoded.
struct InFlight {
    id: u64,
    /// Index into `records` (admission order).
    record: usize,
    arrival: SimTime,
    request: pgmoe_workload::DecodeRequest,
    /// Synthetic per-request routing decisions (the fallback when no
    /// [`LiveRouting`] is supplied).
    trace: RoutingTrace,
    generated: usize,
    first_token_at: Option<SimTime>,
    /// Prompt tokens prefilled so far: the first step after admission
    /// prefills the whole prompt, or its share of a bounded paged chunk.
    prefilled: usize,
    /// The request's KV and working-buffer reservation.
    kv: KvSeq,
    /// The request's routing identity: its stamped `route_seed`, or the
    /// id-derived default. Seeds the decode trace, the prefill expert draw
    /// and the synthetic KV content stamps outside the shared prefix.
    route_seed: u64,
}

impl InFlight {
    fn ctx_len(&self) -> usize {
        self.request.input_tokens + self.generated
    }

    /// Whether the whole prompt is prefilled — only then does the request
    /// join decode iterations.
    fn ready(&self) -> bool {
        self.prefilled >= self.request.input_tokens
    }
}

/// Per-request completion record, in admission order.
struct Record {
    queueing: SimDuration,
    ttft: SimDuration,
    latency: SimDuration,
}

/// Adapter: the batch's per-block expert unions as a routing source.
struct UnionRouted<'a> {
    unions: &'a [Vec<usize>],
}

impl RoutedSource for UnionRouted<'_> {
    fn experts(&self, block: usize) -> &[usize] {
        &self.unions[block]
    }
}

/// An incrementally-driven continuous-batching decode session (see the
/// module docs for the protocol).
///
/// # Example
///
/// ```
/// use pgmoe_device::SimTime;
/// use pgmoe_model::ModelConfig;
/// use pgmoe_runtime::{Admission, BatchConfig, BatchSession, OffloadPolicy, SimOptions};
/// use pgmoe_workload::{ArrivedRequest, DecodeRequest};
///
/// let mut session = BatchSession::new(
///     ModelConfig::switch_base(8),
///     SimOptions::new(OffloadPolicy::Pregated),
///     BatchConfig::new(4),
/// )?;
/// let req = DecodeRequest { input_tokens: 16, output_tokens: 2, batch_size: 1 };
/// let admission = session.try_admit(0, ArrivedRequest::at_nanos(0, req))?;
/// assert!(matches!(admission, Admission::Admitted { .. }));
/// let first = session.step()?;
/// assert_eq!((first[0].id, first[0].index, first[0].done), (0, 0, false));
/// let second = session.step()?;
/// assert!(second[0].done);
/// let stats = session.finish();
/// assert_eq!(stats.total_tokens, 2);
/// # Ok::<(), pgmoe_runtime::RuntimeError>(())
/// ```
pub struct BatchSession {
    cfg: ModelConfig,
    opts: SimOptions,
    batch: BatchConfig,
    sched: Box<dyn ExpertScheduler>,
    topo: GateTopology,
    machine: Machine,
    base_plan: PlacementPlan,
    cache: Option<ExpertCache>,
    /// `opts.routing` over the model's experts, built once; each admission
    /// draws its request's trace from it.
    routing: RoutingSampler,
    budget: u64,
    inflight: Vec<InFlight>,
    /// Indices into `inflight` awaiting prefill, in admission order
    /// (rebuilt every step; kept to reuse its allocation).
    prefill_order: Vec<usize>,
    records: Vec<Record>,
    scratch: CoreScratch,
    plans: PlanSession,
    unions: Vec<Vec<usize>>,
    /// One bit per expert: where a block's union is gathered before
    /// [`drain_experts`] writes it into `unions` (all zero between steps).
    union_bits: Vec<u64>,
    route_scratch: Vec<usize>,
    demand_bytes: u64,
    iteration: usize,
    clock: SimTime,
    total_tokens: usize,
    first_arrival: Option<SimTime>,
    last_completion: SimTime,
    /// Every per-request HBM byte (contiguous KV is one configuration).
    kv: PagedKv,
    /// [`decode_transient_bytes`] by batch size (see [`transients_of`]).
    transients: Vec<u64>,
    peak_batch: usize,
}

impl BatchSession {
    /// Opens a session: validates the options, reserves the static model
    /// footprint, and builds the expert scheduler.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::InvalidConfig`] for a zero `max_batch` or options
    ///   the policy surface rejects.
    /// * [`RuntimeError::OutOfMemory`] if the static footprint does not
    ///   fit the machine.
    pub fn new(cfg: ModelConfig, opts: SimOptions, batch: BatchConfig) -> Result<Self> {
        // Contiguous KV is paged KV with unbounded blocks: each sequence's
        // single block holds its whole context, reserved when it opens.
        let kv = batch.paged_kv.unwrap_or(PagedKvConfig::new(usize::MAX).without_prefix_sharing());
        if batch.max_batch == 0 || kv.block_tokens == 0 || kv.prefill_chunk_tokens == 0 {
            return Err(RuntimeError::InvalidConfig {
                message: "max_batch, block_tokens and prefill_chunk_tokens must be positive".into(),
            });
        }
        opts.validate(&cfg)?;
        let sched = opts.policy.build(&opts.setup_for(&cfg));
        let topo = sched.decoder_topology(cfg.decoder_moe_layers())?;
        let mut machine = Machine::new(opts.machine.clone());
        // Sessions never render machine timelines, and span tracing forces
        // every iteration through the interpreted core (compiled-plan
        // replay does not re-emit trace spans — see [`crate::plan`]).
        machine.set_trace_enabled(false);
        let base_plan = PlacementPlan::new(&cfg, &opts, 0, 1);
        let kv = PagedKv::place(kv, &cfg, &base_plan, &mut machine)?;
        if base_plan.offload_bytes() > 0 {
            machine.pool_mut(opts.offload_tier).alloc(base_plan.offload_bytes())?;
        }
        let budget = batch
            .hbm_budget_bytes
            .unwrap_or(opts.machine.hbm_capacity)
            .min(opts.machine.hbm_capacity);
        let cache = opts.cache.map(|c| ExpertCache::new(base_plan.cache_experts(), c.replacement));
        let dec_blocks = cfg.decoder_moe_layers();
        let scratch = CoreScratch::new(dec_blocks, cfg.num_experts);
        let plans = PlanSession::new(
            opts.plan_cache,
            opts.expert_precision.unwrap_or(cfg.expert_precision) != ExpertPrecision::F32,
        );
        let transients = transients_of(&cfg, sched.as_ref(), &base_plan);
        Ok(BatchSession {
            sched,
            topo,
            machine,
            base_plan,
            cache,
            routing: RoutingSampler::new(opts.routing, cfg.num_experts),
            budget,
            inflight: Vec::new(),
            prefill_order: Vec::new(),
            records: Vec::new(),
            scratch,
            plans,
            unions: vec![Vec::new(); dec_blocks],
            union_bits: vec![0; cfg.num_experts.div_ceil(64)],
            route_scratch: Vec::new(),
            demand_bytes: 0,
            iteration: 0,
            clock: SimTime::ZERO,
            total_tokens: 0,
            first_arrival: None,
            last_completion: SimTime::ZERO,
            kv,
            transients,
            peak_batch: 0,
            cfg,
            opts,
            batch,
        })
    }

    /// The display name of the scheduler serving this session.
    pub fn policy_name(&self) -> String {
        self.sched.name()
    }

    /// Number of requests currently being decoded.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// The session clock (starts at zero, advances by the measured span of
    /// every step and by [`BatchSession::advance_clock`]).
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Advances the clock to `t` if it is ahead of the current clock —
    /// callers do this with the next arrival stamp when the system is
    /// idle, and live servers do it with the wall clock before offering
    /// fresh arrivals.
    pub fn advance_clock(&mut self, t: SimTime) {
        self.clock = self.clock.max(t);
    }

    /// Tokens emitted so far.
    pub fn total_tokens(&self) -> usize {
        self.total_tokens
    }

    /// Peak HBM across the session so far.
    pub fn peak_hbm_bytes(&self) -> u64 {
        self.machine.pool(Tier::Hbm).peak_bytes()
    }

    /// Expert bytes migrated from the offload tier so far.
    pub fn expert_fetch_bytes(&self) -> u64 {
        self.machine.offload_traffic_bytes()
    }

    /// Expert bytes fetched on a block's critical path so far (on-demand
    /// miss stalls).
    pub fn demand_fetch_bytes(&self) -> u64 {
        self.demand_bytes
    }

    /// Plan-cache counters so far: decode iterations replayed from a
    /// compiled plan (`hits`), iterations that compiled a fresh plan
    /// (`misses`, split by cause), and explicit invalidations (scheduler
    /// swaps). All zero for a session with an expert cache, which is
    /// interpreted by design. See [`crate::plan`].
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Offers one request for admission at the current clock. `id` is an
    /// opaque caller handle echoed in [`TokenEvent::id`]. A request without
    /// a `route_seed` derives one from `opts.seed` and `id`, so equal ids
    /// replay equal routing; a request that carries a `route_seed` draws
    /// everything synthetic about it (decode trace, prefill experts, KV
    /// content stamps) from that seed, and `id` seeds nothing — the same
    /// stamped request behaves identically under any id numbering.
    ///
    /// The request's arrival stamp must not be ahead of the session clock
    /// (advance the clock first); its queueing delay is the difference.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::InvalidConfig`] for a request with an empty prompt,
    ///   zero output tokens, a batch size other than 1, or an arrival stamp
    ///   ahead of the clock.
    /// * [`RuntimeError::OutOfMemory`] if the request cannot fit the HBM
    ///   budget even with the batch otherwise empty — it will *never* be
    ///   admissible, so the caller should reject it rather than retry.
    pub fn try_admit(&mut self, id: u64, arr: ArrivedRequest) -> Result<Admission> {
        let req = arr.request;
        if req.input_tokens == 0 || req.output_tokens == 0 || req.batch_size != 1 {
            return Err(RuntimeError::InvalidConfig {
                message: "batched serving admits single-sequence requests with a non-empty \
                          prompt and at least one output token"
                    .into(),
            });
        }
        let arrival = SimTime::from_nanos(arr.arrival_ns);
        if arrival > self.clock {
            return Err(RuntimeError::InvalidConfig {
                message: "request arrival is ahead of the session clock".into(),
            });
        }
        if self.inflight.len() >= self.batch.max_batch {
            return Ok(Admission::BatchFull);
        }
        let pending: usize =
            self.inflight.iter().map(|r| r.request.input_tokens - r.prefilled).sum::<usize>();
        let prefill = (pending + req.input_tokens).min(self.kv.prefill_chunk());
        let transient = self.decode_transient(self.inflight.len() + 1).max(
            prefill_transient_bytes_of(&self.cfg, self.sched.as_ref(), &self.base_plan, prefill),
        );
        let mut planned = self.base_plan.static_non_activation_bytes()
            + self.kv.admission_bytes(&arr)
            + transient;
        let lone = self.inflight.is_empty();
        if planned > self.budget {
            // A lone request's exact shortfall is reported below.
            planned -= self.kv.prefix_discount(&arr, planned - self.budget, lone);
        }
        if planned > self.budget {
            if lone {
                // Even alone this request cannot fit: fail loudly rather
                // than deadlock the queue.
                return Err(RuntimeError::OutOfMemory(pgmoe_device::DeviceError::OutOfMemory {
                    tier: Tier::Hbm,
                    requested: planned,
                    available: self
                        .budget
                        .saturating_sub(self.base_plan.static_non_activation_bytes()),
                    capacity: self.budget,
                }));
            }
            return Ok(Admission::OverBudget);
        }
        let (cfg, opts) = (&self.cfg, &self.opts);
        // A stamped route seed wins (fleet dispatch: routing is a property
        // of the request, not its placement); otherwise the seed derives
        // from the caller-chosen id.
        let seed = arr.route_seed.unwrap_or(opts.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let trace = self.routing.generate(
            req.output_tokens,
            cfg.decoder_moe_layers(),
            self.base_plan.active_per_block(),
            seed,
        );
        let queueing = self.clock - arrival;
        self.first_arrival = Some(match self.first_arrival {
            Some(t) => t.min(arrival),
            None => arrival,
        });
        self.records.push(Record { queueing, ttft: SimDuration::ZERO, latency: SimDuration::ZERO });
        self.inflight.push(InFlight {
            id,
            record: self.records.len() - 1,
            arrival,
            request: req,
            trace,
            generated: 0,
            first_token_at: None,
            prefilled: 0,
            kv: self.kv.open(&arr, seed),
            route_seed: seed,
        });
        self.sync_kv()?;
        Ok(Admission::Admitted { queueing })
    }

    /// One turn of the serving discipline every driver of a session runs
    /// ([`crate::BatchScheduler::serve`], each replica of a
    /// [`crate::ControlledFleet`]): an idle session jumps its clock to the
    /// queue head's arrival; the queue is offered FIFO while its head has
    /// arrived and the session accepts it, `admitted` hearing each
    /// admission's handle and queueing delay; then one
    /// [`BatchSession::step`] — prefill for pending prompts, one decode
    /// iteration for every fully prefilled request.
    pub(crate) fn pump(
        &mut self,
        queue: &mut VecDeque<(usize, ArrivedRequest)>,
        mut admitted: impl FnMut(usize, SimDuration),
    ) -> Result<Vec<TokenEvent>> {
        if self.inflight.is_empty() {
            if let Some(&(_, next)) = queue.front() {
                self.advance_clock(SimTime::from_nanos(next.arrival_ns));
            }
        }
        while let Some(&(handle, arr)) = queue.front() {
            if SimTime::from_nanos(arr.arrival_ns) > self.clock {
                break;
            }
            match self.try_admit(handle as u64, arr)? {
                Admission::Admitted { queueing } => {
                    admitted(handle, queueing);
                    queue.pop_front();
                }
                Admission::BatchFull | Admission::OverBudget => break,
            }
        }
        self.step()
    }

    /// Removes an in-flight request from the batch before it completes —
    /// the client disconnected or a control layer is draining the replica.
    /// The request's HBM activation reservation is released immediately
    /// (its batch slot is admissible again at the next
    /// [`BatchSession::try_admit`]); its per-request row in
    /// [`BatchSession::finish`] keeps zero latency, exactly like a request
    /// still in flight when the session ends.
    ///
    /// Returns `None` if `id` is not in flight.
    pub fn abort(&mut self, id: u64) -> Option<AbortedRequest> {
        let i = self.inflight.iter().position(|r| r.id == id)?;
        let r = self.inflight.swap_remove(i);
        self.kv.release(r.kv);
        self.sync_kv().expect("a reconcile after a release cannot fail (see PagedKv::sync)");
        Some(AbortedRequest { id: r.id, tokens_generated: r.generated })
    }

    /// Aborts every in-flight request (replica death / shutdown drain), in
    /// admission order. See [`BatchSession::abort`].
    pub fn drain_inflight(&mut self) -> Vec<AbortedRequest> {
        let mut order: Vec<(usize, u64)> = self.inflight.iter().map(|r| (r.record, r.id)).collect();
        order.sort_unstable();
        order.into_iter().filter_map(|(_, id)| self.abort(id)).collect()
    }

    /// Swaps the expert scheduler for `policy` at an iteration boundary,
    /// keeping the machine state, expert cache contents, clock and every
    /// in-flight request — the online policy-switching seam a drift
    /// controller uses on a *live* replica.
    ///
    /// The swap is only legal between steps (which is the only place a
    /// caller driving the admit/step protocol can be), and the new policy
    /// must keep the static placement footprint byte-identical — the
    /// session cannot re-place weights that are already resident.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::InvalidConfig`] if the options reject the new
    ///   policy or its static placement differs from the current one.
    pub fn swap_scheduler(&mut self, policy: PolicySpec) -> Result<()> {
        let mut opts = self.opts.clone();
        opts.policy = policy;
        opts.validate(&self.cfg)?;
        let new_plan = PlacementPlan::new(&self.cfg, &opts, 0, 1);
        if new_plan.static_non_activation_bytes() != self.base_plan.static_non_activation_bytes()
            || new_plan.offload_bytes() != self.base_plan.offload_bytes()
        {
            return Err(RuntimeError::InvalidConfig {
                message: format!(
                    "scheduler swap must preserve the static placement footprint \
                     (current {} B resident, replacement wants {} B)",
                    self.base_plan.static_non_activation_bytes(),
                    new_plan.static_non_activation_bytes()
                ),
            });
        }
        let sched = opts.policy.build(&opts.setup_for(&self.cfg));
        let topo = sched.decoder_topology(self.cfg.decoder_moe_layers())?;
        self.sched = sched;
        self.topo = topo;
        self.base_plan = new_plan;
        self.opts = opts;
        self.transients = transients_of(&self.cfg, self.sched.as_ref(), &self.base_plan);
        // Compiled plans bake in the old scheduler's decisions; drop them
        // all rather than trust the key to separate two schedulers that
        // might share a fingerprint scheme.
        self.plans.invalidate();
        Ok(())
    }

    /// Runs one scheduler step with synthetic trace routing: prefill for
    /// pending prompts, then one decode iteration emitting one token per
    /// fully prefilled request.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures (e.g. HBM exhaustion mid-iteration).
    pub fn step(&mut self) -> Result<Vec<TokenEvent>> {
        self.step_impl(None)
    }

    /// Like [`BatchSession::step`], but asks `routing` for each request's
    /// activated experts first, falling back to the synthetic trace where
    /// it reports none (see [`LiveRouting`]).
    ///
    /// # Errors
    ///
    /// See [`BatchSession::step`].
    pub fn step_routed(&mut self, routing: &mut dyn LiveRouting) -> Result<Vec<TokenEvent>> {
        self.step_impl(Some(routing))
    }

    fn step_impl(&mut self, mut routing: Option<&mut dyn LiveRouting>) -> Result<Vec<TokenEvent>> {
        let mut events = Vec::with_capacity(self.inflight.len());
        if self.inflight.is_empty() {
            return Ok(events);
        }
        // No event outlives a step: prefill keeps its handles in locals and
        // every decode pass starts by resetting `scratch`, so the engine can
        // drop all completion times recorded so far. Without this a live
        // server retains every op's event for the life of the process.
        self.machine.engine_mut().retire_events();
        let span_start = self.machine.horizon();
        self.prefill()?;
        // Only fully-prefilled requests decode (a bounded paged chunk can
        // leave a long prompt pending across steps).
        let ready = self.inflight.iter().filter(|r| r.ready()).count();
        self.peak_batch = self.peak_batch.max(ready);
        if ready > 0 {
            for (b, union) in self.unions.iter_mut().enumerate() {
                for r in self.inflight.iter().filter(|r| r.ready()) {
                    let live = match routing.as_deref_mut() {
                        Some(rt) => {
                            self.route_scratch.clear();
                            rt.experts(r.id, r.generated, b, &mut self.route_scratch)
                        }
                        None => false,
                    };
                    let experts = if live {
                        &self.route_scratch[..]
                    } else {
                        r.trace.experts(r.generated, b)
                    };
                    mark_experts(&mut self.union_bits, experts, self.cfg.num_experts);
                }
                drain_experts(&mut self.union_bits, union);
            }
            let costs = DecodeCosts {
                attn_bytes: attn_bytes_for(
                    &self.cfg,
                    self.inflight.iter().filter(|r| r.ready()).map(|r| r.ctx_len()),
                ),
                ffn_bytes: dense_ffn_bytes_for(&self.cfg),
                decoder_layers: self.cfg.decoder_layers,
                moe_every: self.cfg.moe_every,
            };
            let enc_blocks = self.cfg.encoder_layers / self.cfg.moe_every;
            let mut env = CoreEnv {
                machine: &mut self.machine,
                plan: &self.base_plan,
                cache: &mut self.cache,
                offload_tier: self.opts.offload_tier,
                num_experts: self.cfg.num_experts,
                demand_bytes: &mut self.demand_bytes,
            };
            plan::decode_iteration_planned(
                &mut env,
                self.sched.as_mut(),
                &self.topo,
                &UnionRouted { unions: &self.unions },
                self.iteration,
                enc_blocks,
                &costs,
                &mut self.scratch,
                None,
                &mut self.plans,
                ready as u64,
            )?;
            self.iteration += 1;
        }
        let span = self.machine.horizon() - span_start;
        self.clock += span;

        // Retire tokens; complete and release finished requests. Requests
        // still mid-prefill did not decode and are skipped.
        let mut i = 0;
        while i < self.inflight.len() {
            if !self.inflight[i].ready() {
                i += 1;
                continue;
            }
            let r = &mut self.inflight[i];
            r.generated += 1;
            self.total_tokens += 1;
            if r.first_token_at.is_none() {
                r.first_token_at = Some(self.clock);
                self.records[r.record].ttft = self.clock - r.arrival;
            }
            let done = r.generated == r.request.output_tokens;
            events.push(TokenEvent { id: r.id, index: r.generated - 1, done, at: self.clock });
            if done {
                self.records[r.record].latency = self.clock - r.arrival;
                self.last_completion = self.last_completion.max(self.clock);
                let finished = self.inflight.swap_remove(i);
                self.kv.release(finished.kv);
            } else {
                // The new decode token's KV joins its sequence.
                self.kv.append(&mut r.kv, 1);
                i += 1;
            }
        }
        self.sync_kv()?;
        Ok(events)
    }

    /// Consumes the session and reports the same [`ServeStats`] the
    /// run-to-completion [`crate::BatchScheduler::serve`] produces, with
    /// per-request rows in admission order. In-flight requests that never
    /// completed report zero latency.
    pub fn finish(self) -> ServeStats {
        let span = match self.first_arrival {
            // max: a session drained before completing anything has a
            // last-completion watermark predating its first arrival.
            Some(first) => self.last_completion.max(first).duration_since(first),
            None => SimDuration::ZERO,
        };
        let tokens_per_sec = if span == SimDuration::ZERO {
            0.0
        } else {
            self.total_tokens as f64 / span.as_secs_f64()
        };
        ServeStats {
            policy: self.sched.name(),
            request_latencies: self.records.iter().map(|r| r.latency).collect(),
            queueing_delays: self.records.iter().map(|r| r.queueing).collect(),
            ttfts: self.records.iter().map(|r| r.ttft).collect(),
            total_tokens: self.total_tokens,
            tokens_per_sec,
            peak_hbm_bytes: self.machine.pool(Tier::Hbm).peak_bytes(),
            expert_fetch_bytes: self.machine.offload_traffic_bytes(),
            demand_fetch_bytes: self.demand_bytes,
            gpu_busy: self.machine.gpu_busy(),
            peak_batch: self.peak_batch,
            plan_cache_hits: self.plans.stats().hits,
            plan_cache_misses: self.plans.stats().misses,
            kv: self.batch.paged_kv.map(|_| self.kv.stats()),
        }
    }

    /// Prefill at the decode-iteration boundary: spends at most
    /// [`PagedKv::prefill_chunk`] prompt tokens on the oldest pending
    /// prompts (admission order), appending their paged KV as it goes, then
    /// submits one batched encoder pass over them. Weight reads amortize
    /// across the prompts and expert fetches move the expected distinct set
    /// they activate; a bounded chunk changes only *when* prefill work
    /// runs, not what it costs.
    fn prefill(&mut self) -> Result<()> {
        self.prefill_order.clear();
        self.prefill_order.extend((0..self.inflight.len()).filter(|&i| !self.inflight[i].ready()));
        self.prefill_order.sort_unstable_by_key(|&i| self.inflight[i].record);
        let Some(&first) = self.prefill_order.first() else {
            return Ok(());
        };
        // Which experts the prompts activate is sampled (a fixed set would
        // make every later prefill a cache hit), seeded off the first
        // prompt's routing seed — like decode routing, a property of the
        // request rather than of the handle its driver numbered it with.
        let mut rng = StdRng::seed_from_u64(self.inflight[first].route_seed);
        let budget = self.kv.prefill_chunk();
        let mut total = 0usize;
        for &i in &self.prefill_order {
            let r = &mut self.inflight[i];
            let todo = (r.request.input_tokens - r.prefilled).min(budget - total);
            self.kv.append(&mut r.kv, todo);
            r.prefilled += todo;
            total += todo;
            if total == budget {
                break;
            }
        }
        self.sync_kv()?;
        let cfg = &self.cfg;
        let costs = batched_prefill_costs(
            cfg,
            &self.base_plan,
            total,
            attn_bytes_for(cfg, self.inflight.iter().map(InFlight::ctx_len)),
        );
        let enc_blocks = cfg.encoder_layers / cfg.moe_every;
        let mut env = CoreEnv {
            machine: &mut self.machine,
            plan: &self.base_plan,
            cache: &mut self.cache,
            offload_tier: self.opts.offload_tier,
            num_experts: cfg.num_experts,
            demand_bytes: &mut self.demand_bytes,
        };
        core::prefill_pass(
            &mut env,
            self.sched.as_mut(),
            &self.topo,
            enc_blocks,
            &costs,
            &mut rng,
            true,
            &mut self.scratch,
        )
    }

    /// Reconciles per-request HBM after a sequence opened, grew or was
    /// released (see [`PagedKv::sync`]).
    fn sync_kv(&mut self) -> Result<()> {
        let transient = self.decode_transient(self.inflight.len().max(1));
        let committed = self.base_plan.static_non_activation_bytes() + transient;
        self.kv.sync(&mut self.machine, &mut self.cache, committed, self.budget)
    }

    /// [`decode_transient_bytes`] at `batch`, looked up.
    fn decode_transient(&self, batch: usize) -> u64 {
        self.transients[batch.min(self.transients.len() - 1)]
    }
}

/// The scheduler-facing memory profile for `active` concurrently-activated
/// experts per block under `cfg`.
fn profile(cfg: &ModelConfig, plan: &PlacementPlan, active: usize) -> MemoryProfile {
    MemoryProfile {
        expert_bytes: plan.expert_bytes(),
        num_experts: cfg.num_experts,
        active_per_block: active,
        moe_layers: cfg.moe_layers(),
    }
}

/// Worst-case migration-transient bytes while prefilling prompts with
/// `total_inputs` tokens, per the scheduler's own memory contract.
pub(crate) fn prefill_transient_bytes_of(
    cfg: &ModelConfig,
    sched: &dyn ExpertScheduler,
    plan: &PlacementPlan,
    total_inputs: usize,
) -> u64 {
    let distinct =
        expected_distinct_experts(total_inputs * plan.active_per_block(), cfg.num_experts);
    sched.hbm_plan(&profile(cfg, plan, distinct)).transient_bytes
}

/// Worst-case migration-transient bytes for one decode iteration at batch
/// size `batch` — the headroom admission control keeps free.
pub(crate) fn decode_transient_bytes(
    cfg: &ModelConfig,
    sched: &dyn ExpertScheduler,
    plan: &PlacementPlan,
    batch: usize,
) -> u64 {
    let union = (batch * plan.active_per_block()).min(cfg.num_experts);
    sched.admission_transient_bytes(&profile(cfg, plan, union))
}

/// [`decode_transient_bytes`] at every batch size up to the first whose
/// union covers every expert; a larger batch claims what that one does.
fn transients_of(cfg: &ModelConfig, sched: &dyn ExpertScheduler, plan: &PlacementPlan) -> Vec<u64> {
    let covering = cfg.num_experts.div_ceil(plan.active_per_block().max(1));
    (0..=covering).map(|b| decode_transient_bytes(cfg, sched, plan, b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OffloadPolicy;
    use pgmoe_workload::DecodeRequest;

    fn req(input: usize, output: usize) -> DecodeRequest {
        DecodeRequest { input_tokens: input, output_tokens: output, batch_size: 1 }
    }

    fn session(max_batch: usize) -> BatchSession {
        BatchSession::new(
            ModelConfig::switch_base(8),
            SimOptions::new(OffloadPolicy::Pregated),
            BatchConfig::new(max_batch),
        )
        .unwrap()
    }

    #[test]
    fn bitset_union_matches_sort_dedup_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(40);
        let mut out = vec![usize::MAX];
        for num_experts in [1usize, 7, 8, 63, 64, 65, 130] {
            let mut bits = vec![0u64; num_experts.div_ceil(64)];
            for requests in 0..=16 {
                // Each request names 0-5 ids, overlapping and repeating,
                // some at or past `num_experts` as a live router may.
                let sets: Vec<Vec<usize>> = (0..requests)
                    .map(|_| {
                        let n = rng.gen_range(0..6);
                        (0..n).map(|_| rng.gen_range(0..num_experts + 3)).collect()
                    })
                    .collect();
                let mut oracle: Vec<usize> =
                    sets.iter().flatten().copied().filter(|&e| e < num_experts).collect();
                oracle.sort_unstable();
                oracle.dedup();
                for set in &sets {
                    mark_experts(&mut bits, set, num_experts);
                }
                drain_experts(&mut bits, &mut out);
                assert_eq!(out, oracle, "E = {num_experts}, sets {sets:?}");
                assert!(bits.iter().all(|&w| w == 0), "bits left set at E = {num_experts}");
            }
            // The full set and the top id, alone and repeated.
            let all: Vec<usize> = (0..num_experts).rev().chain(0..num_experts).collect();
            mark_experts(&mut bits, &all, num_experts);
            drain_experts(&mut bits, &mut out);
            assert_eq!(out, (0..num_experts).collect::<Vec<_>>());
            mark_experts(&mut bits, &[num_experts - 1, num_experts, num_experts - 1], num_experts);
            drain_experts(&mut bits, &mut out);
            assert_eq!(out, [num_experts - 1]);
            assert!(bits.iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn emits_one_event_per_inflight_request_per_step() {
        let mut s = session(4);
        for id in 0..3u64 {
            let adm = s.try_admit(id, ArrivedRequest::at_nanos(0, req(8, 2))).unwrap();
            assert!(matches!(adm, Admission::Admitted { .. }), "{adm:?}");
        }
        let first = s.step().unwrap();
        assert_eq!(first.len(), 3);
        assert!(first.iter().all(|e| e.index == 0 && !e.done));
        let second = s.step().unwrap();
        assert_eq!(second.len(), 3);
        assert!(second.iter().all(|e| e.index == 1 && e.done));
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.total_tokens(), 6);
    }

    #[test]
    fn retained_events_stay_bounded_over_thousands_of_requests() {
        let mut s = session(4);
        let mut peak = 0;
        for id in 0..2_000u64 {
            let adm = s.try_admit(id, ArrivedRequest::at_nanos(0, req(8, 2))).unwrap();
            assert!(matches!(adm, Admission::Admitted { .. }), "{adm:?}");
            // Every other request joins a running batch, the rest start one.
            if id % 2 == 0 {
                continue;
            }
            while s.in_flight() > 0 {
                s.step().unwrap();
                peak = peak.max(s.machine.engine_mut().live_events());
            }
        }
        assert_eq!(s.total_tokens(), 4_000);
        // A step materialises a few ops per layer of one prefill and one
        // decode pass; held for the session's life (as they once were) the
        // 1 000 prefills alone would retain over 50 000 events.
        assert!(peak > 0 && peak <= 512, "a step left {peak} events live");
    }

    #[test]
    fn batch_full_and_empty_step() {
        let mut s = session(1);
        assert!(s.step().unwrap().is_empty(), "empty session steps to no events");
        let a = s.try_admit(0, ArrivedRequest::at_nanos(0, req(8, 4))).unwrap();
        assert!(matches!(a, Admission::Admitted { .. }));
        let b = s.try_admit(1, ArrivedRequest::at_nanos(0, req(8, 4))).unwrap();
        assert_eq!(b, Admission::BatchFull);
    }

    #[test]
    fn future_arrival_is_rejected_until_clock_advances() {
        let mut s = session(2);
        let fut = ArrivedRequest::at_nanos(5_000, req(8, 1));
        assert!(matches!(s.try_admit(0, fut), Err(RuntimeError::InvalidConfig { .. })));
        s.advance_clock(SimTime::from_nanos(5_000));
        assert!(matches!(s.try_admit(0, fut).unwrap(), Admission::Admitted { .. }));
    }

    #[test]
    fn queueing_delay_reflects_clock_gap() {
        let mut s = session(2);
        s.advance_clock(SimTime::from_nanos(10_000));
        let adm = s.try_admit(0, ArrivedRequest::at_nanos(4_000, req(8, 1))).unwrap();
        match adm {
            Admission::Admitted { queueing } => {
                assert_eq!(queueing, SimDuration::from_nanos(6_000));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_output_request_is_invalid() {
        let mut s = session(2);
        let bad = s.try_admit(0, ArrivedRequest::at_nanos(0, req(8, 0)));
        assert!(matches!(bad, Err(RuntimeError::InvalidConfig { .. })));
    }

    #[test]
    fn never_fitting_request_errors_instead_of_deferring() {
        let cfg = ModelConfig::switch_base(8);
        let opts = SimOptions::new(OffloadPolicy::Pregated);
        let base = PlacementPlan::new(&cfg, &opts, 0, 1);
        // Budget below static + any request: the lone request can never fit.
        let budget = base.static_non_activation_bytes() + 1;
        let mut s =
            BatchSession::new(cfg, opts, BatchConfig::new(2).with_hbm_budget(budget)).unwrap();
        let res = s.try_admit(0, ArrivedRequest::at_nanos(0, req(64, 8)));
        assert!(matches!(res, Err(RuntimeError::OutOfMemory(_))));
    }

    #[test]
    fn a_refused_queue_head_is_admitted_once_its_prefix_discount_fits() {
        // Short and long requests offered at once under the paged-KV gate's
        // tight budget until one is refused; that queue head (a long prompt
        // whose 384-token prefix its tenant's earlier requests hold) is then
        // re-offered after every step. It is refused while the batch drains
        // and admitted as soon as the plan *with* its prefix discount fits —
        // sooner than the same session admits it with sharing disabled.
        let cfg = ModelConfig::switch_base(8);
        let opts = SimOptions::new(OffloadPolicy::Pregated);
        let base = PlacementPlan::new(&cfg, &opts, 0, 1);
        let long_act = PlacementPlan::new(&cfg, &opts, 536, 1).activation_bytes();
        let budget =
            base.static_non_activation_bytes() + 2 * long_act + 2 * 8 * base.expert_bytes();
        let offer = |id: u64| match id % 2 {
            0 => ArrivedRequest::at_nanos(0, req(32, 16)),
            _ => ArrivedRequest::at_nanos(0, req(512, 24)).with_shared_prefix(0x7e1a, 384),
        };
        let run = |paged: PagedKvConfig| {
            let batch = BatchConfig::new(16).with_hbm_budget(budget).with_paged_kv(paged);
            let mut s = BatchSession::new(cfg.clone(), opts.clone(), batch).unwrap();
            let mut head = 0;
            while matches!(s.try_admit(head, offer(head)).unwrap(), Admission::Admitted { .. }) {
                head += 1;
            }
            let mut refusals = 1;
            loop {
                s.step().unwrap();
                match s.try_admit(head, offer(head)).unwrap() {
                    Admission::OverBudget => refusals += 1,
                    Admission::Admitted { .. } => break,
                    Admission::BatchFull => panic!("the budget, not the batch size, binds"),
                }
            }
            while s.in_flight() > 0 {
                s.step().unwrap();
            }
            let stats = s.finish();
            assert_eq!(stats.request_latencies.len() as u64, head + 1);
            assert!(stats.request_latencies.iter().all(|&d| d > SimDuration::ZERO));
            (head, refusals)
        };
        let paged = PagedKvConfig::new(16).with_prefill_chunk(256);
        let (head, shared) = run(paged);
        let (private_head, private) = run(paged.without_prefix_sharing());
        assert_eq!((head % 2, private_head), (1, head), "the same long prompt heads the queue");
        assert!(shared >= 3, "refused for several steps first, not {shared}");
        assert!(shared < private, "the discount admits it sooner: {shared} vs {private}");
    }

    #[test]
    fn live_routing_overrides_trace_and_changes_traffic() {
        // A LiveRouting source that activates a single fixed expert must
        // fetch no more bytes than the synthetic trace's spread (dedup to
        // one expert per block vs up to batch-many distinct experts).
        struct Fixed;
        impl LiveRouting for Fixed {
            fn experts(
                &mut self,
                _id: u64,
                _generated: usize,
                _block: usize,
                out: &mut Vec<usize>,
            ) -> bool {
                out.push(0);
                true
            }
        }
        let run = |live: bool| {
            let mut s = BatchSession::new(
                ModelConfig::switch_base(64),
                SimOptions::new(OffloadPolicy::Pregated),
                BatchConfig::new(8),
            )
            .unwrap();
            for id in 0..8u64 {
                s.try_admit(id, ArrivedRequest::at_nanos(0, req(16, 4))).unwrap();
            }
            while s.in_flight() > 0 {
                if live {
                    s.step_routed(&mut Fixed).unwrap();
                } else {
                    s.step().unwrap();
                }
            }
            s.finish()
        };
        let traced = run(false);
        let fixed = run(true);
        assert_eq!(fixed.total_tokens, traced.total_tokens);
        assert!(
            fixed.expert_fetch_bytes < traced.expert_fetch_bytes,
            "single-expert live routing ({}) must migrate less than the synthetic trace ({})",
            fixed.expert_fetch_bytes,
            traced.expert_fetch_bytes
        );
    }

    #[test]
    fn abort_releases_hbm_reservation_and_readmits_a_queued_request() {
        // A batch-1 session holding one mid-decode request rejects the next
        // offer; aborting the in-flight request must free both the slot and
        // its activation bytes so the queued request is admissible at once.
        let mut s = session(1);
        let adm = s.try_admit(0, ArrivedRequest::at_nanos(0, req(8, 16))).unwrap();
        assert!(matches!(adm, Admission::Admitted { .. }));
        s.step().unwrap();
        s.step().unwrap();
        let blocked = s.try_admit(1, ArrivedRequest::at_nanos(0, req(8, 4))).unwrap();
        assert_eq!(blocked, Admission::BatchFull);
        let hbm_held = s.machine.pool(Tier::Hbm).used_bytes();

        let aborted = s.abort(0).expect("request 0 is in flight");
        assert_eq!(aborted, AbortedRequest { id: 0, tokens_generated: 2 });
        assert_eq!(s.in_flight(), 0);
        assert!(
            s.machine.pool(Tier::Hbm).used_bytes() < hbm_held,
            "abort must release the activation reservation"
        );
        assert_eq!(
            s.machine.pool(Tier::Hbm).used_bytes(),
            s.base_plan.static_non_activation_bytes(),
            "only the static footprint stays resident after the drain"
        );
        assert!(s.abort(0).is_none(), "double abort is a no-op");

        // The queued request now admits and runs to completion.
        let readmitted = s.try_admit(1, ArrivedRequest::at_nanos(0, req(8, 4))).unwrap();
        assert!(matches!(readmitted, Admission::Admitted { .. }));
        let mut done = 0;
        while s.in_flight() > 0 {
            done += s.step().unwrap().iter().filter(|e| e.done).count();
        }
        assert_eq!(done, 1);
        let stats = s.finish();
        // Two admission records: the aborted one reports zero latency, the
        // completed one a real one.
        assert_eq!(stats.request_latencies.len(), 2);
        assert_eq!(stats.request_latencies[0], SimDuration::ZERO);
        assert!(stats.request_latencies[1] > SimDuration::ZERO);
    }

    #[test]
    fn drain_aborts_every_inflight_request_in_admission_order() {
        let mut s = session(4);
        for id in 0..3u64 {
            s.try_admit(id, ArrivedRequest::at_nanos(0, req(8, 8))).unwrap();
        }
        s.step().unwrap();
        let drained = s.drain_inflight();
        assert_eq!(drained.len(), 3);
        assert_eq!(drained.iter().map(|a| a.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(drained.iter().all(|a| a.tokens_generated == 1));
        assert_eq!(s.in_flight(), 0);
        assert_eq!(
            s.machine.pool(Tier::Hbm).used_bytes(),
            s.base_plan.static_non_activation_bytes()
        );
        assert!(s.step().unwrap().is_empty(), "a drained session steps to nothing");
    }

    #[test]
    fn zero_token_prompt_is_invalid_on_both_kv_layouts() {
        // An empty prompt has nothing to prefill; admitting it once ran an
        // encoder pass over zero tokens on contiguous KV and none at all
        // on paged KV.
        for batch in
            [BatchConfig::new(2), BatchConfig::new(2).with_paged_kv(PagedKvConfig::new(16))]
        {
            let cfg = ModelConfig::switch_base(8);
            let opts = SimOptions::new(OffloadPolicy::Pregated);
            let mut s = BatchSession::new(cfg.clone(), opts.clone(), batch).unwrap();
            let empty = ArrivedRequest::at_nanos(0, req(0, 4));
            let bad = s.try_admit(0, empty);
            assert!(matches!(bad, Err(RuntimeError::InvalidConfig { .. })), "{batch:?}: {bad:?}");
            let bad = crate::serve_batched(cfg, opts, batch, [empty]);
            assert!(matches!(bad, Err(RuntimeError::InvalidConfig { .. })), "{batch:?}");
        }
    }

    #[test]
    fn abort_before_first_step_cancels_the_pending_prefill() {
        // Admit three, abort the middle one before stepping: the survivors'
        // prefill must run exactly once and cost exactly what it costs in a
        // session that only ever admitted them, on either KV layout.
        for batch in
            [BatchConfig::new(4), BatchConfig::new(4).with_paged_kv(PagedKvConfig::new(16))]
        {
            let run = |ids: &[u64], abort: Option<u64>| {
                let opts = SimOptions::new(OffloadPolicy::Pregated);
                let mut s = BatchSession::new(ModelConfig::switch_base(8), opts, batch).unwrap();
                for &id in ids {
                    s.try_admit(id, ArrivedRequest::at_nanos(0, req(8 + id as usize, 2))).unwrap();
                }
                if let Some(id) = abort {
                    assert!(s.abort(id).is_some());
                }
                let events = s.step().unwrap();
                assert_eq!(events.iter().map(|e| e.id).collect::<Vec<_>>(), vec![0, 2]);
                while s.in_flight() > 0 {
                    s.step().unwrap();
                }
                assert_eq!(s.total_tokens(), 4);
                let stats = (s.expert_fetch_bytes(), s.demand_fetch_bytes(), s.peak_hbm_bytes());
                (s.clock(), stats)
            };
            assert_eq!(run(&[0, 1, 2], Some(1)), run(&[0, 2], None), "{batch:?}");
        }
    }

    #[test]
    fn scheduler_swap_at_iteration_boundary_keeps_inflight_requests() {
        use crate::scheduler::PolicySpec;
        let mut s = session(4);
        s.try_admit(0, ArrivedRequest::at_nanos(0, req(8, 6))).unwrap();
        s.step().unwrap();
        assert_eq!(s.policy_name(), "Pre-gated MoE");
        s.swap_scheduler(PolicySpec::from(OffloadPolicy::OnDemand)).unwrap();
        assert_eq!(s.policy_name(), "MoE-OnDemand");
        let mut tokens = 1;
        while s.in_flight() > 0 {
            tokens += s.step().unwrap().len();
        }
        assert_eq!(tokens, 6, "the in-flight request finishes under the new scheduler");
        let stats = s.finish();
        assert_eq!(stats.policy, "MoE-OnDemand");
        assert_eq!(stats.request_latencies.len(), 1);
        assert!(stats.request_latencies[0] > SimDuration::ZERO);
    }

    #[test]
    fn scheduler_swap_rejects_a_different_static_footprint() {
        // GpuOnly places every expert in HBM — a radically different static
        // footprint the live session cannot adopt.
        let mut s = session(2);
        s.try_admit(0, ArrivedRequest::at_nanos(0, req(8, 4))).unwrap();
        s.step().unwrap();
        let err = s.swap_scheduler(PolicySpec::from(OffloadPolicy::GpuOnly));
        assert!(matches!(err, Err(RuntimeError::InvalidConfig { .. })));
        assert_eq!(s.policy_name(), "Pre-gated MoE", "a rejected swap leaves the scheduler alone");
    }

    #[test]
    fn scheduler_swap_invalidates_compiled_plans() {
        use crate::scheduler::PolicySpec;
        let mut s = session(2);
        s.try_admit(0, ArrivedRequest::at_nanos(0, req(8, 6))).unwrap();
        while s.in_flight() > 0 {
            s.step().unwrap();
        }
        let warm = s.plan_cache_stats();
        assert!(warm.hits > 0, "steady-state decode must replay compiled plans: {warm:?}");
        assert_eq!(warm.invalidations, 0);

        s.swap_scheduler(PolicySpec::from(OffloadPolicy::OnDemand)).unwrap();
        assert_eq!(
            s.plan_cache_stats().invalidations,
            1,
            "a swap must flush plans that baked in the old scheduler's decisions"
        );

        s.try_admit(1, ArrivedRequest::at_nanos(0, req(8, 6))).unwrap();
        while s.in_flight() > 0 {
            s.step().unwrap();
        }
        let resumed = s.plan_cache_stats();
        assert!(resumed.misses > warm.misses, "the first post-swap iteration must recompile");
        assert!(resumed.hits > warm.hits, "later iterations replay the fresh plan");
    }

    #[test]
    fn routing_drift_replays_count_parametric_plans_and_recompiles_exact_ones() {
        // A live router whose fan-out width drifts across iterations. A
        // routing-oblivious scheduler (Pre-gated) replays one plan at every
        // width, resolving the routed counts at replay, and must still match
        // the interpreter bit for bit; an exact-routing one (Cache-Pinned
        // partitions the routed set by id) recompiles on routing.
        struct Fan(usize);
        impl LiveRouting for Fan {
            fn experts(
                &mut self,
                _id: u64,
                _generated: usize,
                block: usize,
                out: &mut Vec<usize>,
            ) -> bool {
                for e in 0..self.0 {
                    out.push((block + e) % 8);
                }
                true
            }
        }
        let run = |opts: SimOptions, width: &dyn Fn(usize) -> usize| {
            let mut s =
                BatchSession::new(ModelConfig::switch_base(8), opts, BatchConfig::new(1)).unwrap();
            s.try_admit(0, ArrivedRequest::at_nanos(0, req(8, 9))).unwrap();
            let mut i = 0;
            while s.in_flight() > 0 {
                s.step_routed(&mut Fan(width(i))).unwrap();
                i += 1;
            }
            let plans = s.plan_cache_stats();
            (plans, s.finish())
        };
        let drift = |i: usize| 1 + i % 3;
        let pregated = SimOptions::new(OffloadPolicy::Pregated);
        let (parametric, stats) = run(pregated.clone(), &drift);
        assert_eq!((parametric.misses, parametric.cold_misses), (1, 1), "{parametric:?}");
        assert_eq!(parametric.hits, 8, "every later width replays: {parametric:?}");
        let (_, reference) = run(pregated.without_plan_cache(), &drift);
        assert_eq!(stats.request_latencies, reference.request_latencies);
        assert_eq!(stats.expert_fetch_bytes, reference.expert_fetch_bytes);
        assert_eq!(stats.demand_fetch_bytes, reference.demand_fetch_bytes);
        assert_eq!(stats.gpu_busy, reference.gpu_busy);
        assert_eq!(stats.peak_hbm_bytes, reference.peak_hbm_bytes);

        let pinned = SimOptions::new(crate::scheduler::PolicySpec::cache_pinned(2));
        let (steady, _) = run(pinned.clone(), &|_| 1);
        assert_eq!((steady.misses, steady.cold_misses), (1, 1), "{steady:?}");
        let (exact, _) = run(pinned, &drift);
        assert_eq!(exact.misses, 3, "three distinct routings need three compiles: {exact:?}");
        // One request at batch 1: after the cold first step, nothing but the
        // routing window can have changed the key.
        assert_eq!(exact.cold_misses, 1);
        assert_eq!(exact.routing_misses, exact.misses - 1, "{exact:?}");
        assert_eq!((exact.batch_shape_misses, exact.other_misses), (0, 0));
    }

    #[test]
    fn expert_cache_runs_are_interpreted_and_match_the_plan_off_reference() {
        use crate::{serve_batched, CacheConfig, InferenceSim, Replacement};
        // With an expert cache attached no iteration is keyed, recorded or
        // replayed: default options and `without_plan_cache()` must agree
        // bit for bit, and every plan counter must stay zero.
        let cfg = ModelConfig::switch_base(8);
        let eb = PlacementPlan::new(&cfg, &SimOptions::new(OffloadPolicy::Pregated), 0, 1)
            .expert_bytes();
        let arrivals = pgmoe_workload::mixed_context_trace(24, 512, 384, 2, 50_000);
        for replacement in [Replacement::Lru, Replacement::Lfu, Replacement::Lifo] {
            for cache_experts in [2u64, 48] {
                let case = format!("{replacement:?} x {cache_experts} experts");
                let on = SimOptions::new(OffloadPolicy::Pregated)
                    .with_cache(CacheConfig::bytes(cache_experts * eb, replacement));
                let off = on.clone().without_plan_cache();

                // Batch-1 engine.
                let single = |o: &SimOptions| {
                    InferenceSim::new(cfg.clone(), o.clone()).run(req(16, 12), 2).unwrap()
                };
                let (a, b) = (single(&on), single(&off));
                assert_eq!(a.block_latencies, b.block_latencies, "{case}");
                assert_eq!(a.total_time, b.total_time, "{case}");
                assert_eq!(a.time_to_first_token, b.time_to_first_token, "{case}");
                assert_eq!(a.expert_fetch_bytes, b.expert_fetch_bytes, "{case}");
                assert_eq!(a.demand_fetch_bytes, b.demand_fetch_bytes, "{case}");
                assert_eq!(a.cache_stats, b.cache_stats, "{case}");
                assert!(a.cache_stats.is_some_and(|c| c.hits + c.misses > 0), "{case}");
                assert_eq!((a.plan_cache_hits, a.plan_cache_misses), (0, 0), "{case}");

                // Paged batch session under the paged-KV gate's tight-budget
                // recipe: static weights + two long requests' activations +
                // the expert working set. Paging admits a deep batch whose
                // accumulated KV blocks squeeze the cache region mid-run.
                let base = PlacementPlan::new(&cfg, &on, 0, 1);
                let long = PlacementPlan::new(&cfg, &on, 536, 1).activation_bytes();
                let budget = base.static_non_activation_bytes() + 2 * long + 2 * 8 * eb;
                let batch = BatchConfig::new(16)
                    .with_hbm_budget(budget)
                    .with_paged_kv(PagedKvConfig::new(16).with_prefill_chunk(256));
                let paged =
                    |o: &SimOptions| serve_batched(cfg.clone(), o.clone(), batch, arrivals.clone());
                let (a, b) = (paged(&on).unwrap(), paged(&off).unwrap());
                let kv = a.kv.as_ref().expect("paged run reports kv stats");
                assert!(kv.cache_shrink_events > 0, "{case}: the budget must squeeze: {kv:?}");
                assert_eq!(a.request_latencies, b.request_latencies, "{case}");
                assert_eq!(a.ttfts, b.ttfts, "{case}");
                assert_eq!(a.expert_fetch_bytes, b.expert_fetch_bytes, "{case}");
                assert_eq!(a.demand_fetch_bytes, b.demand_fetch_bytes, "{case}");
                assert_eq!((a.plan_cache_hits, a.plan_cache_misses), (0, 0), "{case}");
            }
        }
    }

    #[test]
    fn traced_fetches_record_one_span_per_copied_expert() {
        use crate::{CacheConfig, Replacement};
        // A fetch is one copy-stream submission, but a traced run still
        // shows each copied expert as its own span: one transfer long,
        // labelled with its block and expert, and accounting for every
        // offloaded byte. The cache makes some fetches partial or empty.
        let opts = SimOptions::new(OffloadPolicy::Pregated)
            .with_cache(CacheConfig::new(0.2, Replacement::Lru));
        let mut s =
            BatchSession::new(ModelConfig::switch_base(64), opts, BatchConfig::new(4)).unwrap();
        s.machine.set_trace_enabled(true);
        for id in 0..3u64 {
            s.try_admit(id, ArrivedRequest::at_nanos(0, req(16, 8))).unwrap();
        }
        while s.in_flight() > 0 {
            s.step().unwrap();
        }
        let expert_bytes = s.base_plan.expert_bytes();
        let each = s.machine.transfer_time(expert_bytes, Tier::Ddr);
        let fetches: Vec<_> =
            s.machine.trace().iter().filter(|t| t.label.starts_with("fetch-b")).collect();
        assert!(!fetches.is_empty());
        for t in &fetches {
            assert_eq!((t.stream.as_str(), t.duration()), ("copy", each), "{t:?}");
            let (block, expert) = t.label["fetch-b".len()..].split_once('e').unwrap();
            assert!(block.parse::<usize>().is_ok() && expert.parse::<usize>().unwrap() < 64);
        }
        assert_eq!(fetches.len() as u64 * expert_bytes, s.machine.offload_traffic_bytes());
        let stats = s.cache.as_ref().expect("cache").stats();
        assert!(stats.hits > 0 && stats.misses > 0, "{stats:?}");
    }

    #[test]
    fn replay_that_cannot_reserve_falls_back_to_the_interpreters_oom() {
        // Warm a session until its steady-state plan replays, then occupy
        // HBM so the plan's transient reservation no longer fits. The
        // planned entry point must decline the replay untouched and report
        // exactly what the interpreter reports on an identical machine.
        let run = |opts: SimOptions| {
            let mut s =
                BatchSession::new(ModelConfig::switch_base(8), opts, BatchConfig::new(2)).unwrap();
            s.try_admit(0, ArrivedRequest::at_nanos(0, req(8, 16))).unwrap();
            for _ in 0..4 {
                s.step().unwrap();
            }
            let warm = s.plan_cache_stats();
            let hbm = s.machine.pool_mut(Tier::Hbm);
            let squeeze = hbm.available_bytes() - s.base_plan.expert_bytes() / 2;
            hbm.alloc(squeeze).unwrap();
            let err = s.step().unwrap_err();
            let hbm = s.machine.pool(Tier::Hbm);
            let pool = (hbm.used_bytes(), hbm.peak_bytes(), hbm.live_allocations());
            (err, pool, s.machine.horizon(), warm, s.plan_cache_stats())
        };
        let (err, pool, horizon, warm, after) = run(SimOptions::new(OffloadPolicy::Pregated));
        let (ref_err, ref_pool, ref_horizon, ..) =
            run(SimOptions::new(OffloadPolicy::Pregated).without_plan_cache());
        assert!(warm.hits > 0, "the squeezed step would have replayed: {warm:?}");
        assert!(matches!(err, RuntimeError::OutOfMemory(_)), "{err:?}");
        assert_eq!(err, ref_err);
        assert_eq!(pool, ref_pool);
        assert_eq!(horizon, ref_horizon);
        assert_eq!(after, warm, "a declined replay is neither a hit nor a miss");
    }

    #[test]
    fn a_stamped_request_behaves_identically_under_any_id_numbering() {
        use crate::{CacheConfig, Replacement};
        use pgmoe_workload::{stamp_route_seeds, RoutingKind};
        // Regression: the prefill expert draw was seeded off the driver's
        // handle, so a fleet that numbers requests per replica and one that
        // numbers them globally warmed the expert cache differently for the
        // very same stamped requests.
        let cfg = ModelConfig::switch_base(64);
        let opts = SimOptions::new(OffloadPolicy::Pregated)
            .with_routing(RoutingKind::ZipfDomains { s: 1.5, domains: 4 })
            .with_cache(CacheConfig::new(0.15, Replacement::Lru));
        let mut arrivals: Vec<ArrivedRequest> =
            (0..6).map(|i| ArrivedRequest::at_nanos(i * 40_000_000, req(16, 8))).collect();
        stamp_route_seeds(&mut arrivals, opts.seed);
        let serve = |ids: [usize; 6]| {
            let mut s = BatchSession::new(cfg.clone(), opts.clone(), BatchConfig::new(2)).unwrap();
            let mut queue: VecDeque<_> = ids.into_iter().zip(arrivals.iter().copied()).collect();
            while !queue.is_empty() || s.in_flight() > 0 {
                s.pump(&mut queue, |_, _| {}).unwrap();
            }
            s.finish()
        };
        let (dense, sparse) = (serve([0, 1, 2, 3, 4, 5]), serve([7, 19, 40, 41, 77, 1000]));
        assert!(dense.expert_fetch_bytes > 0 && dense.demand_fetch_bytes > 0);
        assert_eq!(sparse.request_latencies, dense.request_latencies);
        assert_eq!(sparse.ttfts, dense.ttfts);
        assert_eq!(sparse.queueing_delays, dense.queueing_delays);
        assert_eq!(sparse.expert_fetch_bytes, dense.expert_fetch_bytes);
        assert_eq!(sparse.demand_fetch_bytes, dense.demand_fetch_bytes);
        assert_eq!(sparse.peak_hbm_bytes, dense.peak_hbm_bytes);
    }

    #[test]
    fn finish_matches_run_to_completion_serve() {
        use pgmoe_workload::{ArrivalProcess, ArrivalStream};
        let cfg = ModelConfig::switch_base(8);
        let opts = SimOptions::new(OffloadPolicy::Pregated);
        let arrivals: Vec<ArrivedRequest> =
            ArrivalStream::new(ArrivalProcess::Poisson { rate_per_sec: 50.0 }, req(16, 4), 1, 3)
                .take(12)
                .collect();
        let via_serve =
            crate::serve_batched(cfg.clone(), opts.clone(), BatchConfig::new(4), arrivals.clone())
                .unwrap();
        // Drive a session by hand with the same FIFO discipline.
        let mut s = BatchSession::new(cfg, opts, BatchConfig::new(4)).unwrap();
        let mut pending: std::collections::VecDeque<(u64, ArrivedRequest)> =
            arrivals.iter().copied().enumerate().map(|(i, a)| (i as u64, a)).collect();
        while !pending.is_empty() || s.in_flight() > 0 {
            if s.in_flight() == 0 {
                if let Some(&(_, next)) = pending.front() {
                    s.advance_clock(SimTime::from_nanos(next.arrival_ns));
                }
            }
            while let Some(&(id, arr)) = pending.front() {
                if SimTime::from_nanos(arr.arrival_ns) > s.clock() {
                    break;
                }
                match s.try_admit(id, arr).unwrap() {
                    Admission::Admitted { .. } => {
                        pending.pop_front();
                    }
                    _ => break,
                }
            }
            s.step().unwrap();
        }
        let via_session = s.finish();
        assert_eq!(via_session.request_latencies, via_serve.request_latencies);
        assert_eq!(via_session.queueing_delays, via_serve.queueing_delays);
        assert_eq!(via_session.ttfts, via_serve.ttfts);
        assert_eq!(via_session.total_tokens, via_serve.total_tokens);
        assert_eq!(via_session.peak_hbm_bytes, via_serve.peak_hbm_bytes);
        assert_eq!(via_session.expert_fetch_bytes, via_serve.expert_fetch_bytes);
        assert_eq!(via_session.tokens_per_sec, via_serve.tokens_per_sec);
    }

    /// Options for `policy` with an expert cache of `cache_experts` (none at
    /// 0), and the paged-KV gate's tight budget for them: static weights,
    /// two long requests' activations and the expert working set.
    fn tight(policy: OffloadPolicy, cache_experts: u64) -> (SimOptions, PlacementPlan, u64) {
        use crate::{CacheConfig, Replacement};
        let cfg = ModelConfig::switch_base(8);
        let mut opts = SimOptions::new(policy);
        if cache_experts > 0 {
            let eb = PlacementPlan::new(&cfg, &opts, 0, 1).expert_bytes();
            opts = opts.with_cache(CacheConfig::bytes(cache_experts * eb, Replacement::Lru));
        }
        let base = PlacementPlan::new(&cfg, &opts, 0, 1);
        let long = PlacementPlan::new(&cfg, &opts, 536, 1).activation_bytes();
        let budget = base.static_non_activation_bytes() + 2 * long + 2 * 8 * base.expert_bytes();
        (opts, base, budget)
    }

    #[test]
    fn contiguous_kv_holds_its_reservations_and_never_squeezes_the_cache() {
        use crate::memory::{kv_bytes, working_bytes};
        // Contiguous KV reserves each request's working buffers and
        // whole-context KV when it opens, and admission planned all of it
        // with the cache region at plan capacity: after every step HBM holds
        // exactly the static footprint plus those reservations, and the
        // cache was never shrunk, under every paper policy with and without
        // a cache.
        let cfg = ModelConfig::switch_base(8);
        let arrivals = pgmoe_workload::mixed_context_trace(24, 512, 384, 2, 50_000);
        for policy in OffloadPolicy::ALL {
            for cache_experts in [0u64, 48] {
                let (opts, base, budget) = tight(policy, cache_experts);
                let batch = BatchConfig::new(16).with_hbm_budget(budget);
                let mut s = BatchSession::new(cfg.clone(), opts, batch).unwrap();
                let mut queue: VecDeque<_> = arrivals.iter().copied().enumerate().collect();
                let mut peak = 0;
                while !queue.is_empty() || s.in_flight() > 0 {
                    s.pump(&mut queue, |_, _| {}).unwrap();
                    let held: u64 = s
                        .inflight
                        .iter()
                        .map(|r| r.request.input_tokens + r.request.output_tokens)
                        .map(|ctx| {
                            working_bytes(&cfg, ctx, 1)
                                + kv_bytes(cfg.total_layers(), ctx, cfg.d_model, 1)
                        })
                        .sum();
                    let case = format!("{policy:?}, {cache_experts} cached experts");
                    let used = s.machine.pool(Tier::Hbm).used_bytes();
                    assert_eq!(used, base.static_non_activation_bytes() + held, "{case}");
                    let kv = s.kv.stats();
                    assert_eq!(kv.cache_shrink_events, 0, "{case}");
                    assert_eq!(kv.final_cache_experts, base.cache_experts(), "{case}");
                    peak = peak.max(s.in_flight());
                }
                assert!(peak >= 2, "{policy:?}: the budget must still admit a batch");
            }
        }
    }

    #[test]
    fn aborts_mid_prefill_and_mid_decode_reconcile_on_both_kv_layouts() {
        // An abort's reconcile cannot fail (see `PagedKv::sync`). Under the
        // tight cached budget, abort the most-prefilled request still
        // prefilling and a decoding one every third step: on paged KV the
        // released blocks let the cache region squeezed by KV regrow inside
        // the abort, and on both layouts HBM stays inside the budget.
        let cfg = ModelConfig::switch_base(8);
        let arrivals = pgmoe_workload::mixed_context_trace(24, 512, 384, 2, 50_000);
        let (opts, _, budget) = tight(OffloadPolicy::Pregated, 48);
        for paged in [None, Some(PagedKvConfig::new(16).with_prefill_chunk(256))] {
            let batch =
                BatchConfig { paged_kv: paged, ..BatchConfig::new(16).with_hbm_budget(budget) };
            let mut s = BatchSession::new(cfg.clone(), opts.clone(), batch).unwrap();
            let mut queue: VecDeque<_> = arrivals.iter().copied().enumerate().collect();
            let (mut seen, mut aborted, mut mid_chunk, mut regrown) = ([0; 2], [0; 2], 0, 0);
            while !queue.is_empty() || s.in_flight() > 0 {
                if s.in_flight() == 0 {
                    s.advance_clock(SimTime::from_nanos(queue[0].1.arrival_ns));
                }
                while let Some(&(handle, arr)) = queue.front() {
                    let arrived = SimTime::from_nanos(arr.arrival_ns) <= s.clock();
                    let admitted = arrived
                        && matches!(
                            s.try_admit(handle as u64, arr),
                            Ok(Admission::Admitted { .. })
                        );
                    if !admitted {
                        break;
                    }
                    queue.pop_front();
                }
                let pre = s.inflight.iter().filter(|r| !r.ready()).max_by_key(|r| r.prefilled);
                let pre = pre.map(|r| (r.id, r.prefilled));
                let dec = s.inflight.iter().find(|r| r.generated > 0).map(|r| (r.id, 0));
                for (k, victim) in [pre, dec].into_iter().enumerate() {
                    let Some((id, prefilled)) = victim else { continue };
                    seen[k] += 1;
                    if seen[k] % 3 != 0 {
                        continue;
                    }
                    aborted[k] += 1;
                    mid_chunk += usize::from(prefilled > 0);
                    let before = s.kv.stats().final_cache_experts;
                    s.abort(id).expect("the request is in flight");
                    regrown += usize::from(s.kv.stats().final_cache_experts > before);
                    assert!(s.machine.pool(Tier::Hbm).used_bytes() <= budget, "{paged:?}");
                }
                s.step().unwrap();
            }
            assert!(aborted[0] > 0 && aborted[1] > 0, "{paged:?}: {aborted:?} aborts");
            if paged.is_some() {
                assert!(mid_chunk > 0, "a bounded chunk must leave a prompt half prefilled");
                assert!(regrown > 0, "a paged abort must regrow the squeezed cache");
            }
        }
    }

    #[test]
    fn contiguous_kv_squeezes_the_cache_only_when_a_swap_raises_the_transient_claim() {
        use crate::scheduler::PolicySpec;
        // Admission fits a contiguous batch under On-demand's transient
        // claim; Pre-gated's is larger, so after the swap the reconcile
        // shrinks the cache region to keep the plan inside the budget, as it
        // does on paged KV.
        let (opts, base, budget) = tight(OffloadPolicy::OnDemand, 48);
        let batch = BatchConfig::new(16).with_hbm_budget(budget);
        let mut s = BatchSession::new(ModelConfig::switch_base(8), opts, batch).unwrap();
        let arrivals = pgmoe_workload::mixed_context_trace(24, 512, 384, 2, 50_000);
        let mut queue: VecDeque<_> = arrivals.iter().copied().enumerate().collect();
        for _ in 0..2 {
            s.pump(&mut queue, |_, _| {}).unwrap();
        }
        assert_eq!(s.kv.stats().final_cache_experts, base.cache_experts());
        s.swap_scheduler(PolicySpec::from(OffloadPolicy::Pregated)).unwrap();
        while !queue.is_empty() || s.in_flight() > 0 {
            s.pump(&mut queue, |_, _| {}).unwrap();
        }
        assert!(s.kv.stats().cache_shrink_events > 0, "{:?}", s.kv.stats());
    }
}
