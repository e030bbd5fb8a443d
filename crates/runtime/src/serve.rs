//! Multi-request serving with QoS statistics.
//!
//! The paper motivates offloading by *quality of service*: "CPU offloading …
//! comes with a significant increase in inference latency, deteriorating
//! quality of service (QoS) to end users" (Section I). This module serves a
//! stream of requests through [`InferenceSim`] and reports the request-level
//! latency distribution a serving operator would monitor.

use crate::{InferenceSim, Result, SimOptions};
use pgmoe_device::SimDuration;
use pgmoe_model::ModelConfig;
use pgmoe_workload::DecodeRequest;

/// Request-level latency/throughput statistics for a served stream.
///
/// Produced by both serving paths: the closed-loop batch-1
/// [`serve_stream`] (requests queued at time zero, served back-to-back) and
/// the open-loop continuous-batching [`crate::BatchScheduler`] (requests
/// arrive over time and are interleaved).
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Display name of the scheduler that served the stream.
    pub policy: String,
    /// Per-request end-to-end latencies (arrival → last token), in arrival
    /// order.
    pub request_latencies: Vec<SimDuration>,
    /// Per-request queueing delay (arrival → admission into the running
    /// batch), in arrival order.
    pub queueing_delays: Vec<SimDuration>,
    /// Per-request time to first token (arrival → first output token), in
    /// arrival order.
    pub ttfts: Vec<SimDuration>,
    /// Total generated tokens across the stream.
    pub total_tokens: usize,
    /// Aggregate throughput over the busy period (tokens/s).
    pub tokens_per_sec: f64,
    /// Peak HBM across the stream.
    pub peak_hbm_bytes: u64,
    /// Total expert bytes migrated from the offload tier across the stream
    /// (0 under GPU-only; shrinks with the expert precision).
    pub expert_fetch_bytes: u64,
    /// Expert bytes fetched on a block's critical path across the stream —
    /// the on-demand miss-stall metric (see
    /// [`RunReport::demand_fetch_bytes`]).
    ///
    /// [`RunReport::demand_fetch_bytes`]: crate::RunReport
    pub demand_fetch_bytes: u64,
    /// GPU compute-busy time across the stream (the utilization numerator a
    /// fleet divides by its makespan).
    pub gpu_busy: SimDuration,
    /// Largest number of requests decoded together in one iteration (1 on
    /// the batch-1 path; the admitted-batch metric the paged-KV gate
    /// compares).
    pub peak_batch: usize,
    /// Decode iterations replayed from a compiled plan across the stream
    /// (see [`crate::plan`]). Uncacheable configurations count neither hits
    /// nor misses.
    pub plan_cache_hits: u64,
    /// Decode iterations that compiled a fresh plan across the stream.
    pub plan_cache_misses: u64,
    /// Paged-KV statistics when the stream ran with
    /// [`crate::BatchConfig::with_paged_kv`]; `None` on the unpaged path.
    pub kv: Option<crate::kv::KvServeStats>,
}

/// Nearest-rank quantile. An empty population reports
/// [`SimDuration::ZERO`] — dashboards and controllers read quantiles off
/// idle windows and drained replicas, where "no requests" must mean "no
/// latency", not a panic (this used to assert non-emptiness and took down
/// callers on empty fleet windows).
pub(crate) fn quantile_of(samples: &[SimDuration], q: f64) -> SimDuration {
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    if samples.is_empty() {
        return SimDuration::ZERO;
    }
    let mut sorted: Vec<u64> = samples.iter().map(|d| d.as_nanos()).collect();
    sorted.sort_unstable();
    let idx = ((sorted.len() - 1) as f64 * q).floor() as usize;
    SimDuration::from_nanos(sorted[idx])
}

fn mean_of(samples: &[SimDuration]) -> SimDuration {
    let total: u64 = samples.iter().map(|d| d.as_nanos()).sum();
    SimDuration::from_nanos(total / samples.len().max(1) as u64)
}

impl ServeStats {
    /// What a stream that served nothing reports: the *built* scheduler's
    /// name (so the label matches a non-empty stream's) and zeros — the
    /// machine is never touched, the static footprint never placed.
    pub(crate) fn empty(cfg: &ModelConfig, opts: &SimOptions) -> Self {
        ServeStats {
            policy: opts.policy.build(&opts.setup_for(cfg)).name(),
            request_latencies: Vec::new(),
            queueing_delays: Vec::new(),
            ttfts: Vec::new(),
            total_tokens: 0,
            tokens_per_sec: 0.0,
            peak_hbm_bytes: 0,
            expert_fetch_bytes: 0,
            demand_fetch_bytes: 0,
            gpu_busy: SimDuration::ZERO,
            peak_batch: 0,
            plan_cache_hits: 0,
            plan_cache_misses: 0,
            kv: None,
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

    /// 95th-percentile end-to-end latency — the serving SLO the paper's QoS
    /// motivation is about.
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

    /// Mean request latency.
    pub fn mean_latency(&self) -> SimDuration {
        mean_of(&self.request_latencies)
    }

    /// Mean queueing delay (arrival → admission).
    pub fn mean_queueing_delay(&self) -> SimDuration {
        mean_of(&self.queueing_delays)
    }

    /// Mean time to first token.
    pub fn mean_ttft(&self) -> SimDuration {
        mean_of(&self.ttfts)
    }
}

/// Serves a finite request stream back-to-back under one policy and gathers
/// QoS statistics.
///
/// Requests are served sequentially (batch-1 serving, the paper's operating
/// point) in a *closed loop*: the whole stream is queued at time zero and
/// request `i` waits for requests `0..i` to finish. Its queueing delay is
/// therefore the sum of the earlier service times, its TTFT adds the
/// encoder pass plus one decode iteration, and its end-to-end latency adds
/// its full service time. For open-loop arrivals (Poisson/bursty) and
/// continuous batching, use [`crate::BatchScheduler`].
///
/// # Errors
///
/// Propagates the first simulator error (e.g. OOM under GPU-only).
///
/// # Example
///
/// ```
/// use pgmoe_model::ModelConfig;
/// use pgmoe_runtime::{serve_stream, OffloadPolicy, SimOptions};
/// use pgmoe_workload::{DecodeRequest, RequestStream};
///
/// let stream = RequestStream::new(
///     DecodeRequest { input_tokens: 16, output_tokens: 4, batch_size: 1 }, 2, 7);
/// let stats = serve_stream(
///     ModelConfig::switch_base(8),
///     SimOptions::new(OffloadPolicy::Pregated),
///     stream.take(5),
/// )?;
/// assert_eq!(stats.request_latencies.len(), 5);
/// # Ok::<(), pgmoe_runtime::RuntimeError>(())
/// ```
pub fn serve_stream(
    cfg: ModelConfig,
    opts: SimOptions,
    requests: impl IntoIterator<Item = DecodeRequest>,
) -> Result<ServeStats> {
    let mut latencies = Vec::new();
    let mut queueing_delays = Vec::new();
    let mut ttfts = Vec::new();
    let mut total_tokens = 0usize;
    let mut busy = SimDuration::ZERO;
    let mut peak = 0u64;
    let mut fetched = 0u64;
    let mut demand = 0u64;
    let mut gpu_busy = SimDuration::ZERO;
    let mut plan_hits = 0u64;
    let mut plan_misses = 0u64;
    let mut policy_name: Option<String> = None;
    for (i, request) in requests.into_iter().enumerate() {
        // Each request runs on a fresh simulated timeline; back-to-back
        // serving sums the busy periods (no idle gaps at saturation).
        let mut opts_i = opts.clone();
        opts_i.seed = opts.seed.wrapping_add(i as u64);
        let report = InferenceSim::new(cfg.clone(), opts_i).run(request, 1)?;
        // Closed loop: request i's queueing delay is the busy period so far.
        queueing_delays.push(busy);
        ttfts.push(busy + report.time_to_first_token);
        latencies.push(busy + report.total_time);
        busy += report.total_time;
        total_tokens += request.output_tokens;
        peak = peak.max(report.peak_hbm_bytes);
        fetched += report.expert_fetch_bytes;
        demand += report.demand_fetch_bytes;
        gpu_busy += report.gpu_busy;
        plan_hits += report.plan_cache_hits;
        plan_misses += report.plan_cache_misses;
        policy_name.get_or_insert(report.policy);
    }
    let tokens_per_sec =
        if busy == SimDuration::ZERO { 0.0 } else { total_tokens as f64 / busy.as_secs_f64() };
    Ok(ServeStats {
        // Empty streams still report the *built* scheduler's name, so the
        // label matches what a non-empty stream (or the batch path) reports.
        policy: policy_name.unwrap_or_else(|| opts.policy.build(&opts.setup_for(&cfg)).name()),
        request_latencies: latencies,
        queueing_delays,
        ttfts,
        total_tokens,
        tokens_per_sec,
        peak_hbm_bytes: peak,
        expert_fetch_bytes: fetched,
        demand_fetch_bytes: demand,
        gpu_busy,
        peak_batch: if total_tokens > 0 { 1 } else { 0 },
        plan_cache_hits: plan_hits,
        plan_cache_misses: plan_misses,
        kv: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OffloadPolicy;
    use pgmoe_workload::RequestStream;

    fn small_stream(n: usize) -> Vec<DecodeRequest> {
        RequestStream::new(
            DecodeRequest { input_tokens: 16, output_tokens: 4, batch_size: 1 },
            2,
            9,
        )
        .take(n)
        .collect()
    }

    #[test]
    fn serves_all_requests_and_sums_tokens() {
        let stats = serve_stream(
            ModelConfig::switch_base(8),
            SimOptions::new(OffloadPolicy::Pregated),
            small_stream(6),
        )
        .unwrap();
        assert_eq!(stats.request_latencies.len(), 6);
        assert!(stats.total_tokens >= 6 * 2);
        assert!(stats.tokens_per_sec > 0.0);
    }

    #[test]
    fn quantiles_are_ordered() {
        let stats = serve_stream(
            ModelConfig::switch_base(8),
            SimOptions::new(OffloadPolicy::OnDemand),
            small_stream(10),
        )
        .unwrap();
        let p50 = stats.latency_quantile(0.5);
        let p99 = stats.latency_quantile(0.99);
        assert!(p50 <= p99);
        assert!(stats.mean_latency() >= p50.saturating_sub(stats.mean_latency()));
    }

    #[test]
    fn pregated_beats_ondemand_qos() {
        // The QoS motivation: tail latency under Pre-gated is lower.
        let pg = serve_stream(
            ModelConfig::switch_base(64),
            SimOptions::new(OffloadPolicy::Pregated),
            small_stream(8),
        )
        .unwrap();
        let od = serve_stream(
            ModelConfig::switch_base(64),
            SimOptions::new(OffloadPolicy::OnDemand),
            small_stream(8),
        )
        .unwrap();
        assert!(pg.latency_quantile(0.9) < od.latency_quantile(0.9));
        assert!(pg.tokens_per_sec > od.tokens_per_sec);
    }

    #[test]
    fn gpu_only_oom_propagates() {
        let err = serve_stream(
            ModelConfig::switch_large_128(),
            SimOptions::new(OffloadPolicy::GpuOnly),
            small_stream(1),
        );
        assert!(matches!(err, Err(crate::RuntimeError::OutOfMemory(_))));
    }

    #[test]
    fn quantiles_of_empty_stream_are_zero() {
        // Regression: these asserted "no requests served" and panicked,
        // which took down anything reading tail stats off an idle window.
        let stats = serve_stream(
            ModelConfig::switch_base(8),
            SimOptions::new(OffloadPolicy::Pregated),
            std::iter::empty(),
        )
        .unwrap();
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(stats.latency_quantile(q), SimDuration::ZERO);
            assert_eq!(stats.ttft_quantile(q), SimDuration::ZERO);
        }
        assert_eq!(stats.p50(), SimDuration::ZERO);
        assert_eq!(stats.p95(), SimDuration::ZERO);
        assert_eq!(stats.p99(), SimDuration::ZERO);
        assert_eq!(stats.mean_latency(), SimDuration::ZERO);
        assert_eq!(stats.peak_batch, 0);
    }

    /// A hand-built stats value with known latencies, for quantile edge
    /// cases that should not depend on the simulator.
    fn fixed_stats(lats_us: &[u64]) -> ServeStats {
        let lats: Vec<SimDuration> = lats_us.iter().map(|&u| SimDuration::from_micros(u)).collect();
        ServeStats {
            policy: "test".into(),
            queueing_delays: vec![SimDuration::ZERO; lats.len()],
            ttfts: lats.clone(),
            request_latencies: lats,
            total_tokens: lats_us.len(),
            tokens_per_sec: 1.0,
            peak_hbm_bytes: 1,
            expert_fetch_bytes: 0,
            demand_fetch_bytes: 0,
            gpu_busy: SimDuration::ZERO,
            peak_batch: 1,
            plan_cache_hits: 0,
            plan_cache_misses: 0,
            kv: None,
        }
    }

    #[test]
    fn quantile_edges_are_min_and_max() {
        let stats = fixed_stats(&[40, 10, 30, 20]);
        assert_eq!(stats.latency_quantile(0.0), SimDuration::from_micros(10));
        assert_eq!(stats.latency_quantile(1.0), SimDuration::from_micros(40));
        assert_eq!(stats.p50(), SimDuration::from_micros(20));
        assert!(stats.p50() <= stats.p95() && stats.p95() <= stats.p99());
    }

    #[test]
    fn quantile_of_single_request_is_that_request() {
        let stats = fixed_stats(&[17]);
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(stats.latency_quantile(q), SimDuration::from_micros(17));
        }
        assert_eq!(stats.mean_latency(), SimDuration::from_micros(17));
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_above_one_panics() {
        let _ = fixed_stats(&[1]).latency_quantile(1.01);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn negative_quantile_panics() {
        let _ = fixed_stats(&[1]).latency_quantile(-0.01);
    }

    #[test]
    fn closed_loop_queueing_and_ttft_accounting() {
        // Deterministic trace: three identical requests queued at time zero.
        // Queueing delays must be the cumulative service times, TTFT must
        // sit strictly between queueing delay and completion, and the
        // accounting identity latency = queue + service must hold.
        let requests = vec![DecodeRequest { input_tokens: 16, output_tokens: 3, batch_size: 1 }; 3];
        let stats = serve_stream(
            ModelConfig::switch_base(8),
            SimOptions::new(OffloadPolicy::Pregated),
            requests,
        )
        .unwrap();
        assert_eq!(stats.queueing_delays[0], SimDuration::ZERO);
        let services: Vec<SimDuration> = (0..3)
            .map(|i| stats.request_latencies[i].saturating_sub(stats.queueing_delays[i]))
            .collect();
        assert_eq!(stats.queueing_delays[1], services[0]);
        assert_eq!(stats.queueing_delays[2], services[0] + services[1]);
        for i in 0..3 {
            assert!(stats.ttfts[i] > stats.queueing_delays[i], "TTFT covers queueing at {i}");
            assert!(stats.ttfts[i] < stats.request_latencies[i], "TTFT precedes completion at {i}");
        }
        assert!(stats.mean_queueing_delay() < stats.mean_ttft());
        assert_eq!(stats.ttft_quantile(0.0), stats.ttfts[0]);
    }
}
