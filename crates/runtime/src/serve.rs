//! Request-level QoS statistics.
//!
//! The paper motivates offloading by *quality of service*: "CPU offloading …
//! comes with a significant increase in inference latency, deteriorating
//! quality of service (QoS) to end users" (Section I). [`ServeStats`] is the
//! request-level latency distribution a serving operator would monitor.

use crate::SimOptions;
use pgmoe_device::SimDuration;
use pgmoe_model::ModelConfig;

/// Request-level latency/throughput statistics for a served stream.
///
/// Produced by every serving path built on a
/// [`crate::BatchSession`]: [`crate::BatchScheduler`] (requests arrive over
/// time and are interleaved; at `max_batch = 1` with every request queued
/// at time zero it serves the paper's closed-loop batch-1 stream), each
/// fleet replica, and the HTTP front door.
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
    /// Largest number of requests decoded together in one iteration (the
    /// admitted-batch metric the paged-KV gate compares).
    pub peak_batch: usize,
    /// Decode iterations replayed from a compiled plan across the stream
    /// (see [`crate::plan`]). Uncacheable configurations count neither hits
    /// nor misses.
    pub plan_cache_hits: u64,
    /// Decode iterations that compiled a fresh plan across the stream.
    pub plan_cache_misses: u64,
    /// Paged-KV statistics when the stream ran with
    /// [`crate::BatchConfig::with_paged_kv`]; `None` for contiguous KV.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{serve_batched, BatchConfig, OffloadPolicy, Result};
    use pgmoe_workload::{ArrivedRequest, DecodeRequest, RequestStream};

    fn small_stream(n: usize) -> Vec<DecodeRequest> {
        RequestStream::new(
            DecodeRequest { input_tokens: 16, output_tokens: 4, batch_size: 1 },
            2,
            9,
        )
        .take(n)
        .collect()
    }

    /// The paper's closed-loop batch-1 stream: every request queued at time
    /// zero, served one at a time in order.
    fn closed_loop(
        cfg: ModelConfig,
        policy: OffloadPolicy,
        requests: impl IntoIterator<Item = DecodeRequest>,
    ) -> Result<ServeStats> {
        let arrivals = requests.into_iter().map(|r| ArrivedRequest::at_nanos(0, r));
        serve_batched(cfg, SimOptions::new(policy), BatchConfig::new(1), arrivals)
    }

    #[test]
    fn serves_all_requests_and_sums_tokens() {
        let stats =
            closed_loop(ModelConfig::switch_base(8), OffloadPolicy::Pregated, small_stream(6))
                .unwrap();
        assert_eq!(stats.request_latencies.len(), 6);
        assert!(stats.total_tokens >= 6 * 2);
        assert!(stats.tokens_per_sec > 0.0);
        assert_eq!(stats.peak_batch, 1);
    }

    #[test]
    fn quantiles_are_ordered() {
        let stats =
            closed_loop(ModelConfig::switch_base(8), OffloadPolicy::OnDemand, small_stream(10))
                .unwrap();
        let p50 = stats.latency_quantile(0.5);
        let p99 = stats.latency_quantile(0.99);
        assert!(p50 <= p99);
        assert!(stats.mean_latency() >= p50.saturating_sub(stats.mean_latency()));
    }

    #[test]
    fn pregated_beats_ondemand_qos() {
        // The QoS motivation: tail latency under Pre-gated is lower.
        let run = |policy| closed_loop(ModelConfig::switch_base(64), policy, small_stream(8));
        let (pg, od) =
            (run(OffloadPolicy::Pregated).unwrap(), run(OffloadPolicy::OnDemand).unwrap());
        assert!(pg.latency_quantile(0.9) < od.latency_quantile(0.9));
        assert!(pg.tokens_per_sec > od.tokens_per_sec);
    }

    #[test]
    fn gpu_only_oom_propagates() {
        let err =
            closed_loop(ModelConfig::switch_large_128(), OffloadPolicy::GpuOnly, small_stream(1));
        assert!(matches!(err, Err(crate::RuntimeError::OutOfMemory(_))));
    }

    #[test]
    fn quantiles_of_empty_stream_are_zero() {
        // Regression: these asserted "no requests served" and panicked,
        // which took down anything reading tail stats off an idle window.
        let stats =
            closed_loop(ModelConfig::switch_base(8), OffloadPolicy::Pregated, std::iter::empty())
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
        // Three identical requests queued at time zero on one batch slot:
        // each is admitted the instant its predecessor completes, so its
        // queueing delay is that predecessor's latency, and its TTFT sits
        // strictly between its queueing delay and its completion.
        let requests = vec![DecodeRequest { input_tokens: 16, output_tokens: 3, batch_size: 1 }; 3];
        let stats =
            closed_loop(ModelConfig::switch_base(8), OffloadPolicy::Pregated, requests).unwrap();
        assert_eq!(stats.queueing_delays[0], SimDuration::ZERO);
        for i in 1..3 {
            assert_eq!(stats.queueing_delays[i], stats.request_latencies[i - 1], "at {i}");
        }
        for i in 0..3 {
            assert!(stats.ttfts[i] > stats.queueing_delays[i], "TTFT covers queueing at {i}");
            assert!(stats.ttfts[i] < stats.request_latencies[i], "TTFT precedes completion at {i}");
        }
        assert!(stats.mean_queueing_delay() < stats.mean_ttft());
        assert_eq!(stats.ttft_quantile(0.0), stats.ttfts[0]);
    }
}
