//! Fleet-scale serving: multi-replica dispatch over the shared scheduler
//! core.
//!
//! The paper's headline claim is *economic*: one GPU running Pre-gated MoE
//! with CPU-offloaded experts matches an expert-parallel GPU farm, so a
//! serving fleet should be built from cheap single-GPU replicas rather than
//! sharded clusters (Sections III-A, VII). This module stages that argument
//! end to end:
//!
//! * [`FleetSim`] serves an open-loop arrival stream on `N` independent
//!   single-GPU replicas. Each replica is a [`BatchSession`] — continuous
//!   batching, HBM admission, expert cache, any [`PolicySpec`] — on the
//!   shared decode core; the fleet layer only decides *placement*, request
//!   by request at each arrival instant. There is one fleet driver, the
//!   event loop in [`crate::control`]: `FleetSim` is that loop with no
//!   faults and no controller, and `tests/fleet_chaos.rs` holds it equal to
//!   serving every replica's share alone on a [`BatchScheduler`].
//! * Dispatch is pluggable ([`DispatchPolicy`]): [`RoundRobin`],
//!   [`JoinShortestQueue`], and [`CacheAffinity`] (steer requests toward
//!   replicas whose [`ExpertCache`] already holds their hot experts — the
//!   win under domain-skewed Zipf routing) ship built in; implement the
//!   trait for your own (`tests/fleet_serving.rs` serves a stream with one).
//! * The expert-parallel cluster is a *drop-in alternative backend*:
//!   [`serve_cluster`] serves the same stream on one
//!   [`PolicySpec::expert_parallel`] pipeline (a one-replica fleet on the
//!   same driver) and reports the same [`FleetStats`], so the iso-GPU
//!   shootout (`repro -- fleet`) is a
//!   one-line comparison on tokens/s-per-GPU — the TCO metric.
//!
//! Routing identity is a property of the *request*: the fleet stamps every
//! arrival with a placement-independent route seed
//! ([`pgmoe_workload::stamp_route_seeds`]) that seeds its decode trace *and*
//! its prefill expert draw, so two dispatch policies serve byte-identical
//! request populations and differ only in placement.
//!
//! [`BatchScheduler`]: crate::BatchScheduler
//! [`BatchSession`]: crate::BatchSession
//! [`PolicySpec`]: crate::PolicySpec
//! [`PolicySpec::expert_parallel`]: crate::PolicySpec::expert_parallel
//! [`ExpertCache`]: crate::ExpertCache

use crate::control::{ControlOptions, ControlStats, ControlledFleet, NoControl};
use crate::core::{drain_experts, mark_experts};
use crate::multi_gpu::ClusterConfig;
use crate::scheduler::PolicySpec;
use crate::serve::{quantile_of, ServeStats};
use crate::{BatchConfig, InferenceSim, Result, RuntimeError, SimOptions};
use pgmoe_device::SimDuration;
use pgmoe_model::ModelConfig;
use pgmoe_workload::{ArrivedRequest, DecodeRequest, FaultPlan, RoutingSampler};
use std::collections::VecDeque;

/// Fleet shape: how many single-GPU replicas, each batching how.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of independent single-GPU replicas.
    pub replicas: usize,
    /// Continuous-batching knobs every replica runs with.
    pub batch: BatchConfig,
}

impl FleetConfig {
    /// A fleet of `replicas` single-GPU machines with the given batching
    /// knobs.
    pub fn new(replicas: usize, batch: BatchConfig) -> Self {
        FleetConfig { replicas, batch }
    }

    /// Rejects fleet shapes that cannot serve anything: zero replicas, or a
    /// batch config that admits no requests. Mirrors the
    /// [`ClusterConfig::validate`] convention — construction stays infallible
    /// and every serving entry point validates before touching a machine.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] with a message naming the bad knob.
    pub fn validate(&self) -> Result<()> {
        if self.replicas == 0 {
            return Err(RuntimeError::InvalidConfig {
                message: "a fleet needs at least 1 replica".into(),
            });
        }
        if self.batch.max_batch == 0 {
            return Err(RuntimeError::InvalidConfig {
                message: "fleet batch config must admit at least one request (max_batch >= 1)"
                    .into(),
            });
        }
        Ok(())
    }
}

/// What a dispatcher may observe about one replica at dispatch time — the
/// information a real load balancer has: its own assignment history and
/// service-time estimates, never the replica's internal simulator state.
#[derive(Debug)]
pub struct ReplicaView<'a> {
    /// Requests dispatched to this replica and estimated still unfinished.
    pub queue_depth: usize,
    /// Total requests assigned so far.
    pub assigned: usize,
    /// Estimated instant this replica drains its backlog, ns.
    pub est_free_at_ns: u64,
    /// Per-expert dispatch counts: how often each expert appeared in the
    /// routing probes of requests already steered here. The affinity signal
    /// cache-aware dispatch ranks replicas by.
    pub affinity: &'a [u64],
}

/// What a dispatcher may observe about the request being placed.
#[derive(Debug)]
pub struct RequestProfile<'a> {
    /// Arrival instant, ns.
    pub arrival_ns: u64,
    /// The request's shape.
    pub request: DecodeRequest,
    /// Sorted union of experts the request's first decode token activates
    /// (derived from its route seed — the dispatcher-visible routing
    /// fingerprint).
    pub probe: &'a [usize],
}

/// A fleet dispatch policy: given the replicas' observable state, pick the
/// replica that serves the next request.
///
/// Implement this trait to add your own strategy; the built-ins are
/// [`RoundRobin`], [`JoinShortestQueue`] and [`CacheAffinity`].
pub trait DispatchPolicy {
    /// Display name threaded into [`FleetStats::dispatch`].
    fn name(&self) -> String;

    /// The replica index (`< replicas.len()`) to serve `request`.
    fn choose(&mut self, replicas: &[ReplicaView<'_>], request: &RequestProfile<'_>) -> usize;
}

/// Cycle through replicas in order — the placement-blind baseline.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// A fresh round-robin dispatcher.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl DispatchPolicy for RoundRobin {
    fn name(&self) -> String {
        "round-robin".into()
    }

    fn choose(&mut self, replicas: &[ReplicaView<'_>], _request: &RequestProfile<'_>) -> usize {
        let r = self.next % replicas.len();
        self.next = self.next.wrapping_add(1);
        r
    }
}

/// Send each request to the replica with the fewest estimated-unfinished
/// requests (ties: earliest estimated drain, then lowest index).
#[derive(Debug, Default)]
pub struct JoinShortestQueue;

impl JoinShortestQueue {
    /// A fresh join-shortest-queue dispatcher.
    pub fn new() -> Self {
        JoinShortestQueue
    }
}

impl DispatchPolicy for JoinShortestQueue {
    fn name(&self) -> String {
        "join-shortest-queue".into()
    }

    fn choose(&mut self, replicas: &[ReplicaView<'_>], _request: &RequestProfile<'_>) -> usize {
        replicas
            .iter()
            .enumerate()
            .min_by_key(|(i, r)| (r.queue_depth, r.est_free_at_ns, *i))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Cache-affinity routing with bounded load: among the replicas whose queue
/// is within `slack` of the shortest, pick the one whose dispatch history
/// overlaps the request's expert probe the most — so requests sharing hot
/// experts pile onto the same replica and its [`ExpertCache`] stays warm,
/// instead of every replica's cache thrashing over the union of all
/// domains. Falls back to join-shortest-queue while no affinity signal has
/// accumulated.
///
/// [`ExpertCache`]: crate::ExpertCache
#[derive(Debug)]
pub struct CacheAffinity {
    /// How many requests beyond the shortest queue a replica may hold and
    /// still win on affinity (0 = strict JSQ with affinity tie-breaks).
    pub slack: usize,
}

impl CacheAffinity {
    /// Affinity dispatch tolerating `slack` extra queued requests for a
    /// warm cache.
    pub fn new(slack: usize) -> Self {
        CacheAffinity { slack }
    }
}

impl DispatchPolicy for CacheAffinity {
    fn name(&self) -> String {
        format!("cache-affinity(slack={})", self.slack)
    }

    fn choose(&mut self, replicas: &[ReplicaView<'_>], request: &RequestProfile<'_>) -> usize {
        let min_depth = replicas.iter().map(|r| r.queue_depth).min().unwrap_or(0);
        let score = |r: &ReplicaView<'_>| -> u64 {
            request.probe.iter().map(|&e| r.affinity.get(e).copied().unwrap_or(0)).sum()
        };
        replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.queue_depth <= min_depth + self.slack)
            .max_by_key(|(i, r)| {
                (score(r), std::cmp::Reverse(r.queue_depth), std::cmp::Reverse(*i))
            })
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Fleet-level serving statistics: per-replica [`ServeStats`] plus the
/// aggregate QoS and TCO metrics a fleet operator monitors.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Display name of the dispatch policy that placed the requests (the
    /// backend label for [`serve_cluster`] runs).
    pub dispatch: String,
    /// Display name of the expert scheduler every replica ran.
    pub policy: String,
    /// GPUs the deployment occupies (replica count, or the cluster's GPU
    /// count for [`serve_cluster`]).
    pub gpus: usize,
    /// Per-replica serving statistics, replica order.
    pub replicas: Vec<ServeStats>,
    /// Which replica served each request, global arrival order.
    pub assignment: Vec<usize>,
    /// Per-request end-to-end latency, global arrival order.
    pub request_latencies: Vec<SimDuration>,
    /// Per-request queueing delay, global arrival order.
    pub queueing_delays: Vec<SimDuration>,
    /// Per-request time to first token, global arrival order.
    pub ttfts: Vec<SimDuration>,
    /// Total generated tokens across the fleet.
    pub total_tokens: usize,
    /// First arrival to last completion across the whole fleet.
    pub makespan: SimDuration,
    /// Aggregate throughput over the makespan, tokens/s.
    pub tokens_per_sec: f64,
    /// Total expert bytes migrated from the offload tier, summed over
    /// replicas.
    pub expert_fetch_bytes: u64,
    /// Expert bytes fetched on block critical paths (miss stalls), summed
    /// over replicas — the metric cache-affinity dispatch drives down.
    pub demand_fetch_bytes: u64,
    /// Largest per-GPU peak HBM across replicas.
    pub peak_hbm_bytes: u64,
    /// Per-replica GPU-busy fraction of the fleet makespan. For
    /// [`serve_cluster`] runs there is one entry — the lockstep pipeline's
    /// busy fraction amortized over the cluster's GPUs, so it stays
    /// comparable with a replica fleet's per-GPU figures.
    pub utilization: Vec<f64>,
    /// Total GPU-time the deployment was billed for: each replica charged
    /// from when it joined the fleet (or the first arrival) until it retired
    /// (or the last completion). For a static fleet this is simply
    /// `makespan × gpus`; under autoscaling it is what an elastic deployment
    /// actually pays, the denominator of [`FleetStats::tokens_per_gpu_second`].
    pub gpu_time: SimDuration,
    /// Control-loop accounting (faults injected, redispatches, scaling and
    /// policy-switch actions). `None` for runs outside
    /// [`ControlledFleet`].
    pub control: Option<ControlStats>,
}

impl FleetStats {
    /// Tokens/s per occupied GPU — the TCO metric of the iso-GPU shootout.
    pub fn tokens_per_sec_per_gpu(&self) -> f64 {
        self.tokens_per_sec / self.gpus.max(1) as f64
    }

    /// Delivered tokens per GPU-*second* billed — the elastic-deployment
    /// TCO metric. Identical to [`FleetStats::tokens_per_sec_per_gpu`] for a
    /// static fleet (where `gpu_time = makespan × gpus`); under autoscaling
    /// it credits the controller for GPU-time it did *not* rent.
    pub fn tokens_per_gpu_second(&self) -> f64 {
        if self.gpu_time == SimDuration::ZERO {
            0.0
        } else {
            self.total_tokens as f64 / self.gpu_time.as_secs_f64()
        }
    }

    /// End-to-end latency at quantile `q ∈ [0, 1]` (nearest-rank). Zero
    /// when no requests were served.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn latency_quantile(&self, q: f64) -> SimDuration {
        quantile_of(&self.request_latencies, q)
    }

    /// Median end-to-end latency.
    pub fn p50(&self) -> SimDuration {
        self.latency_quantile(0.50)
    }

    /// 95th-percentile end-to-end latency.
    pub fn p95(&self) -> SimDuration {
        self.latency_quantile(0.95)
    }

    /// 99th-percentile end-to-end latency.
    pub fn p99(&self) -> SimDuration {
        self.latency_quantile(0.99)
    }

    /// Time-to-first-token at quantile `q ∈ [0, 1]` (nearest-rank). Zero
    /// when no requests were served.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn ttft_quantile(&self, q: f64) -> SimDuration {
        quantile_of(&self.ttfts, q)
    }

    /// Queueing delay at quantile `q ∈ [0, 1]` (nearest-rank). Zero when
    /// no requests were served.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn queueing_quantile(&self, q: f64) -> SimDuration {
        quantile_of(&self.queueing_delays, q)
    }

    /// Mean per-replica GPU-busy fraction of the makespan.
    pub fn mean_utilization(&self) -> f64 {
        if self.utilization.is_empty() {
            return 0.0;
        }
        self.utilization.iter().sum::<f64>() / self.utilization.len() as f64
    }
}

/// A multi-replica serving simulator (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use pgmoe_model::ModelConfig;
/// use pgmoe_runtime::{
///     BatchConfig, FleetConfig, FleetSim, OffloadPolicy, RoundRobin, SimOptions,
/// };
/// use pgmoe_workload::{ArrivalProcess, ArrivalStream, DecodeRequest};
///
/// let arrivals = ArrivalStream::new(
///     ArrivalProcess::Poisson { rate_per_sec: 40.0 },
///     DecodeRequest { input_tokens: 16, output_tokens: 4, batch_size: 1 },
///     1,
///     7,
/// );
/// let fleet = FleetSim::new(
///     ModelConfig::switch_base(8),
///     SimOptions::new(OffloadPolicy::Pregated),
///     FleetConfig::new(2, BatchConfig::new(4)),
/// );
/// let stats = fleet.serve(arrivals.take(6), &mut RoundRobin::new())?;
/// assert_eq!(stats.request_latencies.len(), 6);
/// assert_eq!(stats.gpus, 2);
/// assert!(stats.tokens_per_sec_per_gpu() > 0.0);
/// # Ok::<(), pgmoe_runtime::RuntimeError>(())
/// ```
pub struct FleetSim {
    cfg: ModelConfig,
    opts: SimOptions,
    fleet: FleetConfig,
}

impl FleetSim {
    /// A fleet of identical replicas serving `cfg` under `opts`.
    pub fn new(cfg: ModelConfig, opts: SimOptions, fleet: FleetConfig) -> Self {
        FleetSim { cfg, opts, fleet }
    }

    /// Serves `arrivals` across the fleet, `dispatch` placing each request
    /// at its arrival instant: the [`ControlledFleet`] event loop with no
    /// faults, no controller windows and no control block in the stats.
    ///
    /// Requests without a pre-stamped route seed are stamped from the run
    /// seed and their global arrival index, so routing is identical under
    /// every dispatch policy.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::InvalidConfig`] for a zero-replica fleet, options
    ///   the policy surface rejects, an invalid or unsorted trace, or a
    ///   dispatcher returning an out-of-range replica.
    /// * Any error a replica's session raises (e.g. OOM).
    pub fn serve(
        &self,
        arrivals: impl IntoIterator<Item = ArrivedRequest>,
        dispatch: &mut dyn DispatchPolicy,
    ) -> Result<FleetStats> {
        let mut stats = ControlledFleet::new(self.cfg.clone(), self.opts.clone(), self.fleet)
            .with_control(ControlOptions { window_ns: 0, ..ControlOptions::default() })
            .serve(arrivals, dispatch, &FaultPlan::new(), &mut NoControl)?;
        stats.control = None;
        Ok(stats)
    }
}

/// One replica's dispatcher-observable bookkeeping: the queue estimate and
/// affinity histogram its [`ReplicaView`] is built from. It is created with
/// the replica and dropped when the replica leaves the fleet.
#[derive(Default)]
pub(crate) struct DispatchBook {
    /// Estimated completion instants of the requests placed here,
    /// ascending (a request starts no earlier than the previous estimate),
    /// kept only while a later placement could still count them.
    pub(crate) est_done: VecDeque<u64>,
    est_free: u64,
    affinity: Vec<u64>,
    assigned: usize,
}

/// What every replica's dispatch shares: the service-time estimate and the
/// routing probe. The fleet event loop ([`crate::control`]) places
/// arrivals one at a time against the [`DispatchBook`]s of the replicas
/// currently eligible (warm, not draining).
pub(crate) struct DispatchState {
    /// A deterministic per-request service-time estimate, calibrated once
    /// on the replica configuration (one short batch-1 run): prefill to
    /// first token, then each further token. Dispatchers only need relative
    /// ordering, not absolute accuracy — real load balancers work from the
    /// same kind of estimate.
    ttft_ns: u64,
    per_decode_ns: u64,
    num_experts: usize,
    dec_blocks: usize,
    active: usize,
    routing: RoutingSampler,
    default_seed: u64,
    /// The probe of the request being placed, and the expert bitset it is
    /// gathered through; both reused across placements.
    probe: Vec<usize>,
    probe_bits: Vec<u64>,
}

impl DispatchState {
    pub(crate) fn new(cfg: &ModelConfig, opts: &SimOptions) -> Result<Self> {
        let calib = DecodeRequest { input_tokens: 32, output_tokens: 8, batch_size: 1 };
        let report = InferenceSim::new(cfg.clone(), opts.clone()).run(calib, 1)?;
        let ttft_ns = report.time_to_first_token.as_nanos();
        Ok(DispatchState {
            ttft_ns,
            per_decode_ns: (report.total_time.as_nanos().saturating_sub(ttft_ns))
                / (calib.output_tokens - 1) as u64,
            num_experts: cfg.num_experts,
            dec_blocks: cfg.decoder_moe_layers(),
            active: opts.active_per_block(cfg),
            routing: RoutingSampler::new(opts.routing, cfg.num_experts),
            default_seed: opts.seed,
            probe: Vec::new(),
            probe_bits: vec![0; cfg.num_experts.div_ceil(64)],
        })
    }

    /// The bookkeeping of a replica joining the fleet: no queue estimate
    /// and a cold affinity histogram.
    pub(crate) fn book(&self) -> DispatchBook {
        DispatchBook { affinity: vec![0; self.num_experts], ..DispatchBook::default() }
    }

    /// The routing fingerprint the dispatcher may inspect: the experts of
    /// the request's first decode token, regenerated from its seed (the
    /// replica will draw the identical trace), ascending and deduplicated.
    fn probe_of(&mut self, arr: &ArrivedRequest) -> &[usize] {
        let seed = arr.route_seed.unwrap_or(self.default_seed);
        let trace = self.routing.generate(1, self.dec_blocks, self.active, seed);
        for b in 0..self.dec_blocks {
            mark_experts(&mut self.probe_bits, trace.experts(0, b), self.num_experts);
        }
        drain_experts(&mut self.probe_bits, &mut self.probe);
        &self.probe
    }

    /// Places arrival `idx` on one of the `eligible` replicas' books (global
    /// replica order) and returns its position in `eligible`. Estimates at
    /// or before `settled_ns` are dropped first: the caller guarantees no
    /// later placement arrives before it, so they never count again.
    pub(crate) fn place(
        &mut self,
        idx: usize,
        arr: &ArrivedRequest,
        settled_ns: u64,
        eligible: &mut [&mut DispatchBook],
        dispatch: &mut dyn DispatchPolicy,
    ) -> Result<usize> {
        let t = arr.arrival_ns;
        self.probe_of(arr);
        for book in eligible.iter_mut() {
            let settled = book.est_done.partition_point(|&d| d <= settled_ns);
            book.est_done.drain(..settled);
        }
        let views: Vec<ReplicaView<'_>> = eligible
            .iter()
            .map(|b| ReplicaView {
                queue_depth: b.est_done.len() - b.est_done.partition_point(|&d| d <= t),
                assigned: b.assigned,
                est_free_at_ns: b.est_free.max(t),
                affinity: &b.affinity,
            })
            .collect();
        let profile = RequestProfile { arrival_ns: t, request: arr.request, probe: &self.probe };
        let v = dispatch.choose(&views, &profile);
        if v >= eligible.len() {
            return Err(RuntimeError::InvalidConfig {
                message: format!(
                    "dispatch policy `{}` chose replica {v} of {} for request {idx}",
                    dispatch.name(),
                    eligible.len()
                ),
            });
        }
        let book = &mut eligible[v];
        let service_ns =
            self.ttft_ns + self.per_decode_ns * arr.request.output_tokens.saturating_sub(1) as u64;
        let done = book.est_free.max(t) + service_ns;
        book.est_free = done;
        book.est_done.push_back(done);
        book.assigned += 1;
        for &e in &self.probe {
            book.affinity[e] += 1;
        }
        Ok(v)
    }
}

/// Serves `arrivals` on ONE expert-parallel cluster — the iso-GPU
/// alternative backend. The cluster's GPUs run in lockstep through a single
/// pipeline whose scheduler is [`PolicySpec::expert_parallel`]: a
/// one-replica fleet on the same driver as [`FleetSim::serve`], relabelled.
/// The returned [`FleetStats`] charges the deployment for all
/// `cluster.num_gpus` GPUs, so [`FleetStats::tokens_per_sec_per_gpu`] is
/// directly comparable with a replica fleet's.
///
/// `opts`' policy and machine are overridden from `cluster` (cost model,
/// per-GPU HBM); routing, seed and batching semantics carry over, so the
/// shootout serves the identical request population.
///
/// # Errors
///
/// See [`FleetSim::serve`]; additionally rejects invalid clusters.
///
/// [`PolicySpec::expert_parallel`]: crate::PolicySpec::expert_parallel
pub fn serve_cluster(
    cfg: ModelConfig,
    cluster: &ClusterConfig,
    mut opts: SimOptions,
    batch: BatchConfig,
    arrivals: impl IntoIterator<Item = ArrivedRequest>,
) -> Result<FleetStats> {
    cluster.validate()?;
    opts.policy = PolicySpec::expert_parallel(cluster);
    opts.machine.hbm_capacity = cluster.hbm_per_gpu;
    opts.machine.cost = cluster.cost;
    let mut fleet = FleetSim::new(cfg, opts, FleetConfig::new(1, batch))
        .serve(arrivals, &mut RoundRobin::new())?;
    fleet.dispatch = format!("cluster({}gpu)", cluster.num_gpus);
    fleet.gpus = cluster.num_gpus;
    fleet.gpu_time = SimDuration::from_nanos(fleet.makespan.as_nanos() * cluster.num_gpus as u64);
    // The single timeline stands for the lockstep cluster's critical path;
    // amortize its busy fraction over every GPU the deployment occupies so
    // the figure is per-GPU like a replica fleet's. (Attention is
    // replicated while each block's expert work lands on its owners, so
    // true mean per-GPU utilization lies between this amortized value and
    // the raw pipeline fraction — Section III-A's point is exactly that
    // (g-1)/g of the cluster idles during MoE blocks.)
    for u in &mut fleet.utilization {
        *u /= cluster.num_gpus.max(1) as f64;
    }
    Ok(fleet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheConfig, OffloadPolicy, Replacement};
    use pgmoe_workload::{ArrivalProcess, ArrivalStream, RoutingKind};

    fn req(output: usize) -> DecodeRequest {
        DecodeRequest { input_tokens: 16, output_tokens: output, batch_size: 1 }
    }

    fn poisson(n: usize, rate: f64, seed: u64) -> Vec<ArrivedRequest> {
        ArrivalStream::new(ArrivalProcess::Poisson { rate_per_sec: rate }, req(6), 1, seed)
            .take(n)
            .collect()
    }

    fn fleet(replicas: usize) -> FleetSim {
        FleetSim::new(
            ModelConfig::switch_base(8),
            SimOptions::new(OffloadPolicy::Pregated),
            FleetConfig::new(replicas, BatchConfig::new(4)),
        )
    }

    #[test]
    fn serves_every_request_exactly_once_across_replicas() {
        let stats = fleet(3).serve(poisson(18, 80.0, 5), &mut RoundRobin::new()).unwrap();
        assert_eq!(stats.request_latencies.len(), 18);
        assert_eq!(stats.assignment.len(), 18);
        assert_eq!(stats.gpus, 3);
        assert_eq!(stats.replicas.iter().map(|s| s.request_latencies.len()).sum::<usize>(), 18);
        assert_eq!(stats.total_tokens, stats.replicas.iter().map(|s| s.total_tokens).sum());
        assert!(stats.tokens_per_sec > 0.0);
        assert_eq!(stats.utilization.len(), 3);
        assert!(stats.utilization.iter().all(|&u| (0.0..=1.0).contains(&u)));
        // Round-robin spreads evenly.
        for r in 0..3 {
            assert_eq!(stats.assignment.iter().filter(|&&a| a == r).count(), 6);
        }
        for i in 0..18 {
            assert!(stats.request_latencies[i] >= stats.ttfts[i]);
            assert!(stats.ttfts[i] >= stats.queueing_delays[i]);
        }
    }

    #[test]
    fn deterministic_given_seed_and_dispatcher() {
        let run = || fleet(2).serve(poisson(10, 100.0, 9), &mut JoinShortestQueue::new()).unwrap();
        let a = run();
        let b = run();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.request_latencies, b.request_latencies);
        assert_eq!(a.total_tokens, b.total_tokens);
    }

    #[test]
    fn routing_is_placement_independent() {
        // The same request population must migrate the same expert bytes no
        // matter how it is placed — routing identity rides the route seed,
        // not the replica-local stream position. Batch-1 replicas isolate
        // the per-request traffic (continuous batching would legitimately
        // dedup co-batched unions differently per placement).
        let sim = FleetSim::new(
            ModelConfig::switch_base(8),
            SimOptions::new(OffloadPolicy::Pregated),
            FleetConfig::new(3, BatchConfig::new(1)),
        );
        let arrivals = poisson(12, 100.0, 7);
        let rr = sim.serve(arrivals.clone(), &mut RoundRobin::new()).unwrap();
        let jsq = sim.serve(arrivals, &mut JoinShortestQueue::new()).unwrap();
        assert_eq!(rr.total_tokens, jsq.total_tokens);
        assert_eq!(rr.expert_fetch_bytes, jsq.expert_fetch_bytes);
    }

    #[test]
    fn more_replicas_lift_aggregate_throughput_under_load() {
        let arrivals = poisson(24, 200.0, 3);
        let one = fleet(1).serve(arrivals.clone(), &mut RoundRobin::new()).unwrap();
        let four = fleet(4).serve(arrivals, &mut RoundRobin::new()).unwrap();
        assert!(
            four.tokens_per_sec > 2.0 * one.tokens_per_sec,
            "4 replicas must outrun 1 under saturating load ({:.1} vs {:.1})",
            four.tokens_per_sec,
            one.tokens_per_sec
        );
        assert!(four.p95() < one.p95(), "parallel service must cut the queueing tail");
    }

    #[test]
    fn jsq_beats_round_robin_on_queueing_under_bursty_load() {
        // Bursts land on a fleet whose replicas drain at different speeds
        // (heterogeneous request sizes): round-robin keeps feeding busy
        // replicas by position, JSQ routes around them.
        let arrivals: Vec<ArrivedRequest> = ArrivalStream::new(
            ArrivalProcess::Bursty { rate_per_sec: 120.0, burst: 5 },
            req(8),
            6,
            13,
        )
        .take(30)
        .collect();
        let sim = FleetSim::new(
            ModelConfig::switch_base(8),
            SimOptions::new(OffloadPolicy::Pregated),
            FleetConfig::new(3, BatchConfig::new(1)),
        );
        let rr = sim.serve(arrivals.clone(), &mut RoundRobin::new()).unwrap();
        let jsq = sim.serve(arrivals, &mut JoinShortestQueue::new()).unwrap();
        assert_ne!(rr.assignment, jsq.assignment, "JSQ must actually re-place requests");
        let mean = |s: &FleetStats| {
            s.queueing_delays.iter().map(|d| d.as_nanos()).sum::<u64>()
                / s.queueing_delays.len() as u64
        };
        assert!(
            mean(&jsq) < mean(&rr),
            "JSQ mean queueing {} must undercut round-robin {}",
            mean(&jsq),
            mean(&rr)
        );
    }

    #[test]
    fn cache_affinity_concentrates_domains_and_cuts_demand_fetches() {
        // Domain-skewed Zipf population + per-replica expert caches: the
        // affinity dispatcher keeps each domain's hot set warm on one
        // replica, so fleet-wide demand-fetch bytes drop vs round-robin.
        let cfg = ModelConfig::switch_base(64);
        let opts = SimOptions::new(OffloadPolicy::Pregated)
            .with_routing(RoutingKind::ZipfDomains { s: 1.5, domains: 4 })
            .with_cache(CacheConfig::new(0.15, Replacement::Lru));
        let sim = FleetSim::new(cfg, opts, FleetConfig::new(4, BatchConfig::new(4)));
        let decode_heavy = DecodeRequest { input_tokens: 4, output_tokens: 32, batch_size: 1 };
        let arrivals: Vec<ArrivedRequest> =
            ArrivalStream::new(ArrivalProcess::Poisson { rate_per_sec: 80.0 }, decode_heavy, 2, 11)
                .take(40)
                .collect();
        let rr = sim.serve(arrivals.clone(), &mut RoundRobin::new()).unwrap();
        let aff = sim.serve(arrivals, &mut CacheAffinity::new(8)).unwrap();
        assert!(
            (aff.demand_fetch_bytes as f64) < 0.9 * rr.demand_fetch_bytes as f64,
            "affinity demand {} must undercut round-robin {} by >10%",
            aff.demand_fetch_bytes,
            rr.demand_fetch_bytes
        );
        assert!(
            aff.expert_fetch_bytes < rr.expert_fetch_bytes,
            "warm caches must also cut total migration"
        );
    }

    #[test]
    fn cluster_backend_reports_iso_gpu_stats() {
        let cfg = ModelConfig::switch_base(8);
        let cluster = ClusterConfig::a100_nvlink(4);
        let stats = serve_cluster(
            cfg,
            &cluster,
            SimOptions::new(OffloadPolicy::Pregated), // policy overridden
            BatchConfig::new(4),
            poisson(8, 50.0, 3),
        )
        .unwrap();
        assert_eq!(stats.gpus, 4, "the deployment is charged for every cluster GPU");
        assert_eq!(stats.policy, "Expert-Parallel-4GPU");
        assert_eq!(stats.request_latencies.len(), 8);
        assert_eq!(stats.expert_fetch_bytes, 0, "cluster experts never cross PCIe");
        let per_gpu = stats.tokens_per_sec_per_gpu();
        assert!(per_gpu > 0.0 && per_gpu * 4.0 - stats.tokens_per_sec < 1e-9);
        // Utilization is amortized per GPU: one lockstep pipeline cannot
        // report more than 1/g busy fraction per GPU.
        assert_eq!(stats.utilization.len(), 1);
        assert!(
            stats.utilization[0] <= 0.25 + 1e-9,
            "per-GPU utilization {} must be the pipeline fraction / 4",
            stats.utilization[0]
        );
    }

    #[test]
    fn invalid_fleets_and_dispatchers_are_rejected() {
        let zero = fleet(0).serve(poisson(2, 10.0, 1), &mut RoundRobin::new());
        assert!(matches!(zero, Err(RuntimeError::InvalidConfig { .. })));

        struct OutOfRange;
        impl DispatchPolicy for OutOfRange {
            fn name(&self) -> String {
                "broken".into()
            }
            fn choose(&mut self, r: &[ReplicaView<'_>], _: &RequestProfile<'_>) -> usize {
                r.len() + 7
            }
        }
        let bad = fleet(2).serve(poisson(2, 10.0, 1), &mut OutOfRange);
        assert!(matches!(bad, Err(RuntimeError::InvalidConfig { .. })));

        let bad_opts = FleetSim::new(
            ModelConfig::switch_base(8),
            SimOptions::new(OffloadPolicy::Pregated).with_active_experts(0),
            FleetConfig::new(2, BatchConfig::new(2)),
        );
        assert!(matches!(
            bad_opts.serve(poisson(2, 10.0, 1), &mut RoundRobin::new()),
            Err(RuntimeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn probe_gathered_through_the_bitset_matches_sort_and_dedup() {
        let cfg = ModelConfig::switch_base(64);
        let (blocks, zipf) = (cfg.decoder_moe_layers(), RoutingKind::Zipf { s: 1.2 });
        for kind in [RoutingKind::Uniform, zipf, RoutingKind::ZipfDomains { s: 1.5, domains: 4 }] {
            for active in [1, 2, 3] {
                let opts = SimOptions::new(OffloadPolicy::Pregated)
                    .with_routing(kind)
                    .with_active_experts(active);
                let mut state = DispatchState::new(&cfg, &opts).unwrap();
                for seed in (0..300).map(Some).chain([None]) {
                    let arr =
                        ArrivedRequest { route_seed: seed, ..ArrivedRequest::at_nanos(0, req(4)) };
                    let route = seed.unwrap_or(opts.seed);
                    let trace = state.routing.generate(1, blocks, state.active, route);
                    let mut want: Vec<usize> =
                        (0..blocks).flat_map(|b| trace.experts(0, b).to_vec()).collect();
                    want.sort_unstable();
                    want.dedup();
                    assert_eq!(state.probe_of(&arr), want, "{kind:?}, top-{active}, seed {seed:?}");
                }
                assert!(state.probe_bits.iter().all(|&w| w == 0), "the bitset is left clear");
            }
        }
    }

    #[test]
    fn empty_stream_yields_zeroed_stats() {
        let stats = fleet(2).serve(Vec::new(), &mut RoundRobin::new()).unwrap();
        assert_eq!(stats.total_tokens, 0);
        assert_eq!(stats.tokens_per_sec, 0.0);
        assert!(stats.request_latencies.is_empty() && stats.assignment.is_empty());
        assert_eq!(stats.gpus, 2);
        assert_eq!((stats.makespan, stats.gpu_time), (SimDuration::ZERO, SimDuration::ZERO));
        assert_eq!(stats.utilization, vec![0.0; 2]);
        assert_eq!(stats.control, None);
        // The machines are never touched.
        assert_eq!(stats.replicas.len(), 2);
        assert!(stats.replicas.iter().all(|r| r.peak_hbm_bytes == 0 && r.policy == stats.policy));
        assert_eq!(stats.policy, "Pre-gated MoE");
    }
}
