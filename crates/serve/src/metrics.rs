//! Lock-light server metrics with Prometheus text exposition.
//!
//! Every hot-path signal (tokens streamed, queue depth, TTFT samples) is
//! an atomic; the only mutex guards the per-`(route, status)` request
//! table, touched once per completed response. [`ServerMetrics::render`]
//! emits the [Prometheus text exposition format] that `GET /metrics`
//! serves, so the front door scrapes like any other serving system.
//!
//! [Prometheus text exposition format]:
//!     https://prometheus.io/docs/instrumenting/exposition_formats/

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge that can move in both directions.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket latency histogram (seconds), Prometheus-shaped:
/// per-bucket counts plus a running sum.
#[derive(Debug)]
pub struct Histogram {
    /// Upper bounds in seconds, ascending; an implicit `+Inf` bucket
    /// follows.
    bounds: Vec<f64>,
    /// Non-cumulative counts, one per bound plus the `+Inf` bucket.
    counts: Vec<AtomicU64>,
    sum_nanos: AtomicU64,
}

impl Histogram {
    /// A histogram over `bounds` (ascending upper bounds, in seconds).
    pub fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// Buckets suited to sub-millisecond .. multi-second serving latencies.
    pub fn latency() -> Self {
        Histogram::new(&[
            0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
        ])
    }

    /// Buckets for the engine→socket hand-off, which is tens of
    /// microseconds when healthy.
    pub fn handoff() -> Self {
        Histogram::new(&[
            0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.05, 0.25, 1.0,
        ])
    }

    /// Records one latency sample.
    pub fn observe(&self, d: Duration) {
        let secs = d.as_secs_f64();
        let idx = self.bounds.iter().position(|&b| secs <= b).unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX), Ordering::Relaxed);
    }

    /// Total samples observed.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.sum_nanos.load(Ordering::Relaxed))
    }

    /// Conservative quantile estimate: the upper bound of the bucket
    /// containing the `q`-th sample (`+Inf` reports the largest finite
    /// bound). Returns `None` with no samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(self.bounds.get(i).copied().unwrap_or(f64::INFINITY));
            }
        }
        Some(f64::INFINITY)
    }

    fn render_into(&self, out: &mut String, name: &str, help: &str) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cum = 0u64;
        for (i, bound) in self.bounds.iter().enumerate() {
            cum += self.counts[i].load(Ordering::Relaxed);
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cum}");
        }
        cum += self.counts[self.bounds.len()].load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
        let _ = writeln!(out, "{name}_sum {}", self.sum().as_secs_f64());
        let _ = writeln!(out, "{name}_count {cum}");
    }
}

/// Simulated-device counters exported by the engine thread (mirrors of the
/// [`BatchSession`] accessors; see `pgmoe_runtime::ServeStats`).
///
/// [`BatchSession`]: pgmoe_runtime::BatchSession
#[derive(Debug, Default, Clone, Copy)]
pub struct SimSnapshot {
    /// Simulated tokens decoded.
    pub total_tokens: u64,
    /// Peak simulated HBM bytes.
    pub peak_hbm_bytes: u64,
    /// Expert bytes migrated from the offload tier.
    pub expert_fetch_bytes: u64,
    /// Expert bytes fetched on the critical path (demand-miss stalls).
    pub demand_fetch_bytes: u64,
    /// Compiled-plan counters: iterations replayed, iterations compiled
    /// (split by miss cause), invalidations.
    pub plan: pgmoe_runtime::PlanCacheStats,
    /// Bytes of one expert at the serving precision (the migration unit
    /// every fetch/cache figure above is denominated in — 4 B/param at
    /// f32 down to 0.5625 B/param at Q4).
    pub expert_bytes: u64,
}

/// The server's full metric registry.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Currently open client connections.
    pub connections_open: Gauge,
    /// Connections accepted since start.
    pub connections_total: Counter,
    /// Completed responses keyed by `(route, status)`.
    pub responses: Mutex<BTreeMap<(&'static str, u16), u64>>,
    /// Requests waiting in the admission queue (accepted, not yet admitted
    /// into the decode batch).
    pub queue_depth: Gauge,
    /// Requests currently being decoded.
    pub inflight: Gauge,
    /// Requests shed with 429 by the SLO governor.
    pub shed_total: Counter,
    /// Tokens streamed to clients.
    pub tokens_total: Counter,
    /// Generate streams fully delivered.
    pub streams_completed: Counter,
    /// Decode iterations the engine has run.
    pub engine_iterations: Counter,
    /// Engine replicas restarted by the supervisor after a crash.
    pub engine_restarts: Counter,
    /// `1` while the engine is down and restarting (requests get `503` +
    /// `retry-after`), `0` while serving.
    pub failover_active: Gauge,
    /// Streams aborted because their connection disconnected mid-flight.
    pub streams_aborted: Counter,
    /// Wake-ups the engine paid for (1-byte writes to an IO worker's
    /// waker); at most one per worker per engine iteration.
    pub io_wakeups: Counter,
    /// Engine push → the owning IO worker handing the token to its socket,
    /// per streamed token.
    pub token_delivery_seconds: Histogram,
    /// Wall-clock time to first token, per completed stream.
    pub ttft_seconds: Histogram,
    /// Wall-clock request latency (arrival → last token), per stream.
    pub request_seconds: Histogram,
    /// Latest simulated-device counters from the engine.
    pub sim: Mutex<SimSnapshot>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics {
            connections_open: Gauge::default(),
            connections_total: Counter::default(),
            responses: Mutex::new(BTreeMap::new()),
            queue_depth: Gauge::default(),
            inflight: Gauge::default(),
            shed_total: Counter::default(),
            tokens_total: Counter::default(),
            streams_completed: Counter::default(),
            engine_iterations: Counter::default(),
            engine_restarts: Counter::default(),
            failover_active: Gauge::default(),
            streams_aborted: Counter::default(),
            io_wakeups: Counter::default(),
            token_delivery_seconds: Histogram::handoff(),
            ttft_seconds: Histogram::latency(),
            request_seconds: Histogram::latency(),
            sim: Mutex::new(SimSnapshot::default()),
        }
    }
}

impl ServerMetrics {
    /// Records a completed response on `route` with `status`.
    pub fn count_response(&self, route: &'static str, status: u16) {
        let mut map = self.responses.lock().expect("metrics poisoned");
        *map.entry((route, status)).or_insert(0) += 1;
    }

    /// Publishes the engine's latest simulated-device counters.
    pub fn publish_sim(&self, snap: SimSnapshot) {
        *self.sim.lock().expect("metrics poisoned") = snap;
    }

    /// Renders the registry in Prometheus text exposition format.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        let mut scalar = |name: &str, kind: &str, help: &str, value: String| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {value}");
        };
        scalar(
            "pgmoe_connections_open",
            "gauge",
            "Currently open client connections.",
            self.connections_open.get().to_string(),
        );
        scalar(
            "pgmoe_connections_total",
            "counter",
            "Connections accepted since start.",
            self.connections_total.get().to_string(),
        );
        scalar(
            "pgmoe_queue_depth",
            "gauge",
            "Requests accepted but not yet admitted into the decode batch.",
            self.queue_depth.get().to_string(),
        );
        scalar(
            "pgmoe_inflight_requests",
            "gauge",
            "Requests currently being decoded.",
            self.inflight.get().to_string(),
        );
        scalar(
            "pgmoe_shed_total",
            "counter",
            "Requests shed with 429 by the SLO governor.",
            self.shed_total.get().to_string(),
        );
        scalar(
            "pgmoe_tokens_streamed_total",
            "counter",
            "Tokens streamed to clients.",
            self.tokens_total.get().to_string(),
        );
        scalar(
            "pgmoe_streams_completed_total",
            "counter",
            "Generate streams fully delivered.",
            self.streams_completed.get().to_string(),
        );
        scalar(
            "pgmoe_engine_iterations_total",
            "counter",
            "Decode iterations the engine has run.",
            self.engine_iterations.get().to_string(),
        );
        scalar(
            "pgmoe_engine_restarts_total",
            "counter",
            "Engine replicas restarted by the supervisor after a crash.",
            self.engine_restarts.get().to_string(),
        );
        scalar(
            "pgmoe_failover_active",
            "gauge",
            "1 while the engine is down and restarting, 0 while serving.",
            self.failover_active.get().to_string(),
        );
        scalar(
            "pgmoe_streams_aborted_total",
            "counter",
            "Streams aborted because their connection disconnected mid-flight.",
            self.streams_aborted.get().to_string(),
        );
        scalar(
            "pgmoe_io_wakeups_total",
            "counter",
            "Wake-ups the engine sent to IO workers (at most one per worker per iteration).",
            self.io_wakeups.get().to_string(),
        );
        let sim = *self.sim.lock().expect("metrics poisoned");
        scalar(
            "pgmoe_sim_tokens_total",
            "counter",
            "Tokens decoded by the simulated device.",
            sim.total_tokens.to_string(),
        );
        scalar(
            "pgmoe_sim_peak_hbm_bytes",
            "gauge",
            "Peak simulated HBM bytes.",
            sim.peak_hbm_bytes.to_string(),
        );
        scalar(
            "pgmoe_sim_expert_fetch_bytes_total",
            "counter",
            "Expert bytes migrated from the offload tier.",
            sim.expert_fetch_bytes.to_string(),
        );
        scalar(
            "pgmoe_sim_demand_fetch_bytes_total",
            "counter",
            "Expert bytes fetched on the critical path (demand-miss stalls).",
            sim.demand_fetch_bytes.to_string(),
        );
        scalar(
            "pgmoe_plan_cache_hits_total",
            "counter",
            "Decode iterations replayed from a compiled plan.",
            sim.plan.hits.to_string(),
        );
        scalar(
            "pgmoe_plan_cache_misses_total",
            "counter",
            "Decode iterations that compiled a fresh plan.",
            sim.plan.misses.to_string(),
        );
        scalar(
            "pgmoe_sim_expert_bytes",
            "gauge",
            "Bytes of one expert at the serving precision (the migration unit).",
            sim.expert_bytes.to_string(),
        );

        let _ = writeln!(
            out,
            "# HELP pgmoe_plan_misses_total Plan compiles by the first key field that changed."
        );
        let _ = writeln!(out, "# TYPE pgmoe_plan_misses_total counter");
        for (cause, count) in [
            ("cold", sim.plan.cold_misses),
            ("routing", sim.plan.routing_misses),
            ("batch_shape", sim.plan.batch_shape_misses),
            ("other", sim.plan.other_misses),
        ] {
            let _ = writeln!(out, "pgmoe_plan_misses_total{{cause=\"{cause}\"}} {count}");
        }

        let _ = writeln!(out, "# HELP pgmoe_http_responses_total Completed HTTP responses.");
        let _ = writeln!(out, "# TYPE pgmoe_http_responses_total counter");
        for (&(route, status), &count) in self.responses.lock().expect("metrics poisoned").iter() {
            let _ = writeln!(
                out,
                "pgmoe_http_responses_total{{route=\"{route}\",status=\"{status}\"}} {count}"
            );
        }

        self.ttft_seconds.render_into(
            &mut out,
            "pgmoe_ttft_seconds",
            "Wall-clock time to first token.",
        );
        self.request_seconds.render_into(
            &mut out,
            "pgmoe_request_seconds",
            "Wall-clock request latency (arrival to last token).",
        );
        self.token_delivery_seconds.render_into(
            &mut out,
            "pgmoe_token_delivery_seconds",
            "Engine push to the IO worker handing the token to its socket.",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new(&[0.001, 0.01, 0.1]);
        assert_eq!(h.quantile(0.99), None);
        h.observe(Duration::from_micros(500)); // ≤ 0.001
        h.observe(Duration::from_millis(5)); // ≤ 0.01
        h.observe(Duration::from_millis(5));
        h.observe(Duration::from_secs(2)); // +Inf
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile(0.25), Some(0.001));
        assert_eq!(h.quantile(0.5), Some(0.01));
        assert_eq!(h.quantile(1.0), Some(f64::INFINITY));
        assert!(h.sum() > Duration::from_secs(2));
    }

    #[test]
    fn render_is_valid_prometheus_shape() {
        let m = ServerMetrics::default();
        m.tokens_total.add(7);
        m.count_response("/v1/generate", 200);
        m.count_response("/v1/generate", 200);
        m.count_response("/healthz", 200);
        m.ttft_seconds.observe(Duration::from_millis(3));
        m.publish_sim(SimSnapshot {
            total_tokens: 7,
            peak_hbm_bytes: 1,
            expert_bytes: 2_654_208,
            plan: pgmoe_runtime::PlanCacheStats {
                misses: 3,
                cold_misses: 1,
                routing_misses: 2,
                ..Default::default()
            },
            ..Default::default()
        });
        let text = m.render();
        assert!(text.contains("pgmoe_plan_cache_misses_total 3"));
        assert!(text.contains("pgmoe_plan_misses_total{cause=\"cold\"} 1"));
        assert!(text.contains("pgmoe_plan_misses_total{cause=\"routing\"} 2"));
        assert!(text.contains("pgmoe_plan_misses_total{cause=\"batch_shape\"} 0"));
        assert!(text.contains("pgmoe_tokens_streamed_total 7"));
        assert!(text.contains("pgmoe_sim_tokens_total 7"));
        assert!(text.contains("pgmoe_sim_expert_bytes 2654208"));
        assert!(
            text.contains("pgmoe_http_responses_total{route=\"/v1/generate\",status=\"200\"} 2")
        );
        assert!(text.contains("pgmoe_ttft_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("pgmoe_ttft_seconds_count 1"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("sample line");
            value.parse::<f64>().expect("numeric sample value");
        }
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::default();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }
}
