//! Decode request streams for the serving experiments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One inference request: a prompt to encode and a number of decoder
/// iterations to run.
///
/// The paper serves batch 1 ("real-world production ML serving systems are
/// optimized for a batch size of 1", Section VI-A), so batch size defaults
/// to 1 and the throughput experiments never change it; the batch-size
/// ablation bench raises it explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeRequest {
    /// Number of input tokens processed by the encoder.
    pub input_tokens: usize,
    /// Number of output tokens generated (= decoder iterations).
    pub output_tokens: usize,
    /// Sequences decoded together.
    pub batch_size: usize,
}

impl DecodeRequest {
    /// The paper's fine-tuning/serving shape: 256-token inputs, 64 generated
    /// tokens, batch 1.
    pub fn paper_default() -> Self {
        DecodeRequest { input_tokens: 256, output_tokens: 64, batch_size: 1 }
    }

    /// A request with a custom output length, batch 1.
    pub fn with_output_tokens(output_tokens: usize) -> Self {
        DecodeRequest { output_tokens, ..DecodeRequest::paper_default() }
    }
}

/// A seeded stream of decode requests with jittered output lengths, for
/// multi-request serving simulations.
#[derive(Debug, Clone)]
pub struct RequestStream {
    rng: StdRng,
    base: DecodeRequest,
    jitter: usize,
}

impl RequestStream {
    /// Creates a stream around `base`, jittering output length by ±`jitter`.
    pub fn new(base: DecodeRequest, jitter: usize, seed: u64) -> Self {
        RequestStream { rng: StdRng::seed_from_u64(seed), base, jitter }
    }
}

impl Iterator for RequestStream {
    type Item = DecodeRequest;

    fn next(&mut self) -> Option<DecodeRequest> {
        let jitter = if self.jitter == 0 {
            0
        } else {
            self.rng.gen_range(0..=2 * self.jitter) as isize - self.jitter as isize
        };
        let output = (self.base.output_tokens as isize + jitter).max(1) as usize;
        Some(DecodeRequest { output_tokens: output, ..self.base })
    }
}

/// Declaration that the leading `tokens` of a request's prompt are a
/// shared prefix (e.g. a tenant's system prompt), identified by a content
/// hash. A paged-KV serving layer uses this to point multiple requests'
/// block tables at one physical copy of the prefix's KV cache.
///
/// The hash is over prompt *content*: two requests declaring the same
/// `(hash, tokens)` pair promise their first `tokens` prompt tokens are
/// identical. [`SharedPrefix::of_tokens`] derives the hash from real token
/// ids; synthetic traces pick tenant constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedPrefix {
    /// Content hash of the shared prefix (FNV-1a over the token ids).
    pub hash: u64,
    /// Number of leading prompt tokens covered by the prefix.
    pub tokens: usize,
}

impl SharedPrefix {
    /// Hashes real prompt `tokens` into a prefix declaration covering all
    /// of them (FNV-1a over the token ids), for serving layers that see
    /// the actual prompt.
    pub fn of_tokens(tokens: &[usize]) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &t in tokens {
            for byte in (t as u64).to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        SharedPrefix { hash, tokens: tokens.len() }
    }
}

/// A request stamped with its (simulated) arrival time, for open-loop
/// serving experiments where requests arrive while earlier ones are still
/// decoding.
///
/// Arrival times are plain nanoseconds so this crate stays independent of
/// the device simulator's clock types; the runtime converts them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivedRequest {
    /// Arrival instant, in nanoseconds since the start of the experiment.
    pub arrival_ns: u64,
    /// The request itself.
    pub request: DecodeRequest,
    /// Explicit routing-trace seed for this request. `None` (the default)
    /// lets the serving scheduler derive a seed from the request's position
    /// in its stream; a fleet dispatcher sets it so a request activates the
    /// *same* experts no matter which replica serves it (routing identity
    /// must be a property of the request, not of its placement).
    pub route_seed: Option<u64>,
    /// Declared shared prompt prefix, if any (see [`SharedPrefix`]). Ignored
    /// by unpaged serving paths.
    pub shared_prefix: Option<SharedPrefix>,
}

impl ArrivedRequest {
    /// A request arriving at `arrival_ns` — handy for deterministic traces
    /// in tests.
    pub fn at_nanos(arrival_ns: u64, request: DecodeRequest) -> Self {
        ArrivedRequest { arrival_ns, request, route_seed: None, shared_prefix: None }
    }

    /// Builder: pin this request's routing-trace seed (see
    /// [`ArrivedRequest::route_seed`]).
    pub fn with_route_seed(mut self, seed: u64) -> Self {
        self.route_seed = Some(seed);
        self
    }

    /// Builder: declare that the leading `tokens` of this request's prompt
    /// are the shared prefix identified by `hash` (see [`SharedPrefix`]).
    /// The declared length is clamped to the prompt by consumers.
    pub fn with_shared_prefix(mut self, hash: u64, tokens: usize) -> Self {
        self.shared_prefix = Some(SharedPrefix { hash, tokens });
        self
    }
}

/// Stamps every *unseeded* request with a placement-independent routing
/// seed derived from `base_seed` and its global arrival index; requests the
/// caller already pinned via [`ArrivedRequest::with_route_seed`] keep their
/// seed. A multi-replica driver calls this once before placing anything,
/// so the same request draws the same routing on every replica it could
/// land on.
pub fn stamp_route_seeds(arrivals: &mut [ArrivedRequest], base_seed: u64) {
    for (idx, arr) in arrivals.iter_mut().enumerate() {
        if arr.route_seed.is_none() {
            arr.route_seed = Some(base_seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
    }
}

/// Stamps every request with a route seed whose
/// [`crate::routing::RoutingKind::ZipfDomains`] domain *rotates over time*:
/// requests arriving in window `w = arrival_ns / rotate_every_ns` map to
/// domain `w % domains`. This is the drift scenario an online
/// policy-switching controller must detect — the population's hot-expert
/// set moves mid-stream, so whatever a scheduler pinned or learned before
/// the rotation starts missing afterwards.
///
/// Existing seeds are overwritten (drift is a property of the *trace*, so
/// the stamper owns routing identity end to end); seeds remain
/// placement-independent and deterministic in `base_seed`.
///
/// # Panics
///
/// Panics if `domains == 0` or `rotate_every_ns == 0`.
pub fn stamp_domain_rotation(
    arrivals: &mut [ArrivedRequest],
    domains: usize,
    rotate_every_ns: u64,
    base_seed: u64,
) {
    assert!(domains > 0, "domain rotation needs at least one domain");
    assert!(rotate_every_ns > 0, "rotation window must be positive");
    for (idx, arr) in arrivals.iter_mut().enumerate() {
        let target = ((arr.arrival_ns / rotate_every_ns) as usize) % domains;
        // Start from the placement-independent default seed and walk until
        // the seed hashes into the scheduled domain; the walk is bounded in
        // expectation by `domains` steps and fully deterministic.
        let mut seed = base_seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        while crate::routing::domain_of(seed, domains) != target {
            seed = seed.wrapping_add(0x9E37_79B9);
        }
        arr.route_seed = Some(seed);
    }
}

/// Statistical family of an arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential inter-arrival gaps with the given
    /// mean rate — the standard open-loop load model for serving systems.
    Poisson {
        /// Mean arrival rate in requests per second.
        rate_per_sec: f64,
    },
    /// Bursty arrivals: groups of `burst` requests arrive together, with
    /// exponential gaps between groups scaled so the *mean* rate still
    /// equals `rate_per_sec` — stresses queueing and admission much harder
    /// than Poisson at the same average load.
    Bursty {
        /// Mean arrival rate in requests per second (across bursts).
        rate_per_sec: f64,
        /// Requests per burst (>= 1).
        burst: usize,
    },
    /// Deterministic arrivals with a fixed inter-arrival gap.
    Uniform {
        /// Gap between consecutive arrivals, nanoseconds.
        interval_ns: u64,
    },
    /// Diurnal (non-stationary Poisson) arrivals: the instantaneous rate
    /// swings sinusoidally between `trough_per_sec` (at time zero) and
    /// `peak_per_sec` (half a period later), sampled by thinning — the load
    /// shape a day/night traffic cycle presents to an autoscaler.
    Diurnal {
        /// Rate at the bottom of the cycle, requests per second (> 0).
        trough_per_sec: f64,
        /// Rate at the top of the cycle, requests per second (≥ trough).
        peak_per_sec: f64,
        /// Length of one full cycle, seconds (> 0).
        period_s: f64,
    },
    /// Flash-crowd arrivals: Poisson at `base_per_sec`, except during the
    /// window `[flash_start_s, flash_start_s + flash_len_s)` where the rate
    /// jumps to `flash_per_sec` — the sudden-viral-event shape that
    /// overwhelms a statically-sized fleet.
    FlashCrowd {
        /// Steady-state rate outside the flash window, per second (> 0).
        base_per_sec: f64,
        /// Rate during the flash window, per second (> 0).
        flash_per_sec: f64,
        /// When the flash starts, seconds.
        flash_start_s: f64,
        /// How long the flash lasts, seconds (> 0).
        flash_len_s: f64,
    },
}

impl ArrivalProcess {
    /// The instantaneous arrival rate at `t_ns`, requests per second.
    /// Constant for the stationary processes.
    pub fn rate_at(&self, t_ns: u64) -> f64 {
        let t_s = t_ns as f64 / 1e9;
        match *self {
            ArrivalProcess::Poisson { rate_per_sec }
            | ArrivalProcess::Bursty { rate_per_sec, .. } => rate_per_sec,
            ArrivalProcess::Uniform { interval_ns } => {
                if interval_ns == 0 {
                    0.0
                } else {
                    1e9 / interval_ns as f64
                }
            }
            ArrivalProcess::Diurnal { trough_per_sec, peak_per_sec, period_s } => {
                let phase = 2.0 * std::f64::consts::PI * (t_s / period_s);
                trough_per_sec + (peak_per_sec - trough_per_sec) * 0.5 * (1.0 - phase.cos())
            }
            ArrivalProcess::FlashCrowd {
                base_per_sec,
                flash_per_sec,
                flash_start_s,
                flash_len_s,
            } => {
                if t_s >= flash_start_s && t_s < flash_start_s + flash_len_s {
                    flash_per_sec
                } else {
                    base_per_sec
                }
            }
        }
    }

    /// An upper bound on the instantaneous rate — the thinning envelope for
    /// the non-stationary processes.
    fn max_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Diurnal { trough_per_sec, peak_per_sec, .. } => {
                trough_per_sec.max(peak_per_sec)
            }
            ArrivalProcess::FlashCrowd { base_per_sec, flash_per_sec, .. } => {
                base_per_sec.max(flash_per_sec)
            }
            other => other.rate_at(0),
        }
    }
}

/// A seeded open-loop arrival stream: request shapes from a
/// [`RequestStream`], arrival instants from an [`ArrivalProcess`].
///
/// # Example
///
/// ```
/// use pgmoe_workload::{ArrivalProcess, ArrivalStream, DecodeRequest};
///
/// let stream = ArrivalStream::new(
///     ArrivalProcess::Poisson { rate_per_sec: 10.0 },
///     DecodeRequest { input_tokens: 16, output_tokens: 4, batch_size: 1 },
///     1,
///     42,
/// );
/// let arrivals: Vec<_> = stream.take(8).collect();
/// assert!(arrivals.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
/// ```
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    process: ArrivalProcess,
    requests: RequestStream,
    rng: StdRng,
    clock_ns: u64,
    burst_left: usize,
}

impl ArrivalStream {
    /// Creates a stream around `base`, jittering output length by ±`jitter`
    /// (see [`RequestStream::new`]) and drawing arrival gaps per `process`.
    pub fn new(process: ArrivalProcess, base: DecodeRequest, jitter: usize, seed: u64) -> Self {
        match process {
            ArrivalProcess::Poisson { rate_per_sec }
            | ArrivalProcess::Bursty { rate_per_sec, .. } => {
                assert!(rate_per_sec > 0.0, "arrival rate must be positive");
            }
            ArrivalProcess::Uniform { .. } => {}
            ArrivalProcess::Diurnal { trough_per_sec, peak_per_sec, period_s } => {
                assert!(trough_per_sec > 0.0, "trough rate must be positive");
                assert!(peak_per_sec >= trough_per_sec, "peak rate must be >= trough rate");
                assert!(period_s > 0.0, "diurnal period must be positive");
            }
            ArrivalProcess::FlashCrowd { base_per_sec, flash_per_sec, flash_len_s, .. } => {
                assert!(base_per_sec > 0.0, "base rate must be positive");
                assert!(flash_per_sec > 0.0, "flash rate must be positive");
                assert!(flash_len_s > 0.0, "flash window must have positive length");
            }
        }
        if let ArrivalProcess::Bursty { burst, .. } = process {
            assert!(burst >= 1, "burst size must be >= 1");
        }
        ArrivalStream {
            process,
            requests: RequestStream::new(base, jitter, seed ^ 0xA5A5_5A5A),
            rng: StdRng::seed_from_u64(seed),
            clock_ns: 0,
            burst_left: 0,
        }
    }

    /// One exponential gap with the given mean rate, in nanoseconds.
    fn exp_gap_ns(&mut self, rate_per_sec: f64) -> u64 {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        ((-u.ln() / rate_per_sec) * 1e9).round() as u64
    }

    /// Next arrival of a non-stationary Poisson process by thinning: draw
    /// candidate gaps at the envelope rate and accept each with probability
    /// `rate(t) / max_rate` — the standard exact sampler for rate functions
    /// bounded by a constant envelope.
    fn thinned_gap_to(&mut self, process: ArrivalProcess) -> u64 {
        let envelope = process.max_rate();
        let mut t = self.clock_ns;
        loop {
            t += self.exp_gap_ns(envelope).max(1);
            let accept: f64 = self.rng.gen();
            if accept < process.rate_at(t) / envelope {
                return t;
            }
        }
    }
}

impl Iterator for ArrivalStream {
    type Item = ArrivedRequest;

    fn next(&mut self) -> Option<ArrivedRequest> {
        match self.process {
            ArrivalProcess::Poisson { rate_per_sec } => {
                self.clock_ns += self.exp_gap_ns(rate_per_sec);
            }
            ArrivalProcess::Uniform { interval_ns } => {
                self.clock_ns += interval_ns;
            }
            ArrivalProcess::Bursty { rate_per_sec, burst } => {
                if self.burst_left == 0 {
                    // Gaps separate whole bursts: mean gap = burst/rate keeps
                    // the long-run request rate at `rate_per_sec`.
                    let burst_rate = rate_per_sec / burst as f64;
                    self.clock_ns += self.exp_gap_ns(burst_rate);
                    self.burst_left = burst;
                }
                self.burst_left -= 1;
            }
            p @ (ArrivalProcess::Diurnal { .. } | ArrivalProcess::FlashCrowd { .. }) => {
                self.clock_ns = self.thinned_gap_to(p);
            }
        }
        let request = self.requests.next()?;
        Some(ArrivedRequest::at_nanos(self.clock_ns, request))
    }
}

/// A deterministic mixed short/long-context arrival trace for paged-KV
/// experiments: short chat-style requests interleaved with long-context
/// requests whose prompts open with a per-tenant shared system prefix.
///
/// The trace alternates short (32-in/16-out) and long (`long_input`-in/
/// 24-out) requests; long requests rotate across `tenants` tenants, each
/// declaring the same [`SharedPrefix`] (`prefix_tokens` tokens, hash keyed
/// on the tenant id) so a prefix-sharing KV pool stores each tenant's
/// system prompt once. Arrivals are uniformly spaced `gap_ns` apart, which
/// keeps queueing pressure high enough that admission capacity — not
/// arrival spacing — bounds the concurrent batch.
pub fn mixed_context_trace(
    n: usize,
    long_input: usize,
    prefix_tokens: usize,
    tenants: usize,
    gap_ns: u64,
) -> Vec<ArrivedRequest> {
    let tenants = tenants.max(1);
    (0..n)
        .map(|i| {
            let arrival_ns = i as u64 * gap_ns;
            if i % 2 == 0 {
                let short = DecodeRequest { input_tokens: 32, output_tokens: 16, batch_size: 1 };
                ArrivedRequest::at_nanos(arrival_ns, short)
            } else {
                let tenant = (i / 2) % tenants;
                let long =
                    DecodeRequest { input_tokens: long_input, output_tokens: 24, batch_size: 1 };
                let hash = 0x7e1a_57ab_c0ff_ee00 ^ (tenant as u64).wrapping_mul(0x9E37_79B9);
                ArrivedRequest::at_nanos(arrival_ns, long)
                    .with_shared_prefix(hash, prefix_tokens.min(long_input))
            }
        })
        .collect()
}

/// Stamps *live* arrivals — requests that materialise on real sockets
/// rather than from a pre-generated [`ArrivalStream`] — with nanoseconds
/// since the clock's epoch, in the same `arrival_ns` convention the
/// simulated streams use. A serving front door creates one clock when it
/// starts listening and stamps every accepted request with it, so the
/// open-loop serving machinery (admission queues, queueing-delay and TTFT
/// accounting) works identically whether arrivals were synthesised or
/// carried by HTTP.
///
/// Stamps from one clock are monotone non-decreasing (`std::time::Instant`
/// is monotonic), which is exactly the sortedness contract
/// [`ArrivedRequest`] consumers validate.
///
/// # Example
///
/// ```
/// use pgmoe_workload::{DecodeRequest, LiveClock};
///
/// let clock = LiveClock::start();
/// let a = clock.stamp(DecodeRequest::paper_default());
/// let b = clock.stamp(DecodeRequest::paper_default());
/// assert!(a.arrival_ns <= b.arrival_ns);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LiveClock {
    epoch: std::time::Instant,
}

impl LiveClock {
    /// Starts a clock; its epoch is "now".
    pub fn start() -> Self {
        LiveClock { epoch: std::time::Instant::now() }
    }

    /// Nanoseconds elapsed since the epoch (saturating at `u64::MAX`,
    /// ~584 years).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Wraps `request` as an [`ArrivedRequest`] arriving "now".
    pub fn stamp(&self, request: DecodeRequest) -> ArrivedRequest {
        ArrivedRequest::at_nanos(self.now_ns(), request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_batch_one() {
        let r = DecodeRequest::paper_default();
        assert_eq!(r.batch_size, 1);
        assert_eq!(r.input_tokens, 256);
    }

    #[test]
    fn stream_jitters_within_bounds() {
        let stream = RequestStream::new(DecodeRequest::paper_default(), 8, 1);
        for r in stream.take(100) {
            assert!((56..=72).contains(&r.output_tokens));
        }
    }

    #[test]
    fn zero_jitter_is_constant() {
        let stream = RequestStream::new(DecodeRequest::paper_default(), 0, 1);
        assert!(stream.take(10).all(|r| r.output_tokens == 64));
    }

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let rate = 100.0; // 10 ms mean gap
        let n = 4_000;
        let stream = ArrivalStream::new(
            ArrivalProcess::Poisson { rate_per_sec: rate },
            DecodeRequest::paper_default(),
            0,
            7,
        );
        let arrivals: Vec<_> = stream.take(n).collect();
        let span_s = arrivals.last().unwrap().arrival_ns as f64 / 1e9;
        let measured = n as f64 / span_s;
        assert!((measured / rate - 1.0).abs() < 0.1, "measured rate {measured} vs {rate}");
    }

    #[test]
    fn arrivals_are_monotone_and_deterministic() {
        let mk = || {
            ArrivalStream::new(
                ArrivalProcess::Poisson { rate_per_sec: 50.0 },
                DecodeRequest::paper_default(),
                4,
                9,
            )
            .take(64)
            .collect::<Vec<_>>()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
    }

    #[test]
    fn bursty_clusters_arrivals_at_equal_mean_rate() {
        let rate = 200.0;
        let n = 4_000;
        let burst = 8;
        let arrivals: Vec<_> = ArrivalStream::new(
            ArrivalProcess::Bursty { rate_per_sec: rate, burst },
            DecodeRequest::paper_default(),
            0,
            13,
        )
        .take(n)
        .collect();
        // Mean rate preserved.
        let span_s = arrivals.last().unwrap().arrival_ns as f64 / 1e9;
        let measured = n as f64 / span_s;
        assert!((measured / rate - 1.0).abs() < 0.15, "measured rate {measured} vs {rate}");
        // Bursts: most consecutive gaps are zero.
        let zero_gaps = arrivals.windows(2).filter(|w| w[1].arrival_ns == w[0].arrival_ns).count();
        assert!(
            zero_gaps >= n * (burst - 1) / burst - 1,
            "expected clustered arrivals, saw {zero_gaps} zero gaps"
        );
    }

    #[test]
    fn route_seed_stamping_is_placement_independent() {
        let req = DecodeRequest::paper_default();
        let mut arrivals: Vec<ArrivedRequest> =
            (0..6).map(|i| ArrivedRequest::at_nanos(i * 100, req)).collect();
        assert!(arrivals.iter().all(|a| a.route_seed.is_none()), "streams default unseeded");
        // A pinned seed survives stamping; only unseeded requests are filled.
        arrivals[2] = arrivals[2].with_route_seed(777);
        stamp_route_seeds(&mut arrivals, 42);
        assert_eq!(arrivals[2].route_seed, Some(777), "pinned seeds must not be clobbered");
        let seeds: Vec<u64> = arrivals.iter().map(|a| a.route_seed.unwrap()).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 6, "seeds must be distinct per request");
        assert_eq!(ArrivedRequest::at_nanos(0, req).with_route_seed(9).route_seed, Some(9));
    }

    #[test]
    fn diurnal_rate_tracks_the_cycle() {
        let process =
            ArrivalProcess::Diurnal { trough_per_sec: 20.0, peak_per_sec: 200.0, period_s: 20.0 };
        assert!((process.rate_at(0) - 20.0).abs() < 1e-9, "cycle starts at the trough");
        assert!((process.rate_at(10_000_000_000) - 200.0).abs() < 1e-9, "peak at half period");
        let arrivals: Vec<_> = ArrivalStream::new(process, DecodeRequest::paper_default(), 0, 11)
            .take(2_000)
            .collect();
        assert!(arrivals.windows(2).all(|w| w[0].arrival_ns < w[1].arrival_ns));
        // The valley (first quarter-period) must be materially sparser than
        // the crest (the quarter around the peak).
        let count_in = |lo_s: f64, hi_s: f64| {
            arrivals
                .iter()
                .filter(|a| {
                    let t = a.arrival_ns as f64 / 1e9;
                    t >= lo_s && t < hi_s
                })
                .count()
        };
        let valley = count_in(0.0, 5.0).max(1);
        let crest = count_in(7.5, 12.5);
        assert!(
            crest > 3 * valley,
            "peak window must out-arrive the trough window ({crest} vs {valley})"
        );
        // Determinism.
        let again: Vec<_> = ArrivalStream::new(process, DecodeRequest::paper_default(), 0, 11)
            .take(2_000)
            .collect();
        assert_eq!(arrivals, again);
    }

    #[test]
    fn flash_crowd_spikes_inside_its_window() {
        let process = ArrivalProcess::FlashCrowd {
            base_per_sec: 10.0,
            flash_per_sec: 400.0,
            flash_start_s: 2.0,
            flash_len_s: 1.0,
        };
        assert!((process.rate_at(0) - 10.0).abs() < 1e-9);
        assert!((process.rate_at(2_500_000_000) - 400.0).abs() < 1e-9);
        assert!((process.rate_at(3_500_000_000) - 10.0).abs() < 1e-9);
        let arrivals: Vec<_> =
            ArrivalStream::new(process, DecodeRequest::paper_default(), 0, 5).take(600).collect();
        let inside = arrivals
            .iter()
            .filter(|a| (2_000_000_000..3_000_000_000).contains(&a.arrival_ns))
            .count();
        let before = arrivals.iter().filter(|a| a.arrival_ns < 2_000_000_000).count();
        assert!(
            inside > 5 * before.max(1),
            "the one-second flash ({inside}) must dwarf two seconds of base load ({before})"
        );
    }

    #[test]
    fn domain_rotation_follows_the_schedule() {
        use crate::routing::domain_of;
        let req = DecodeRequest::paper_default();
        // Arrivals spread over 4 windows of 1 ms each.
        let mut arrivals: Vec<ArrivedRequest> =
            (0..40).map(|i| ArrivedRequest::at_nanos(i * 100_000, req)).collect();
        stamp_domain_rotation(&mut arrivals, 3, 1_000_000, 42);
        for arr in &arrivals {
            let expected = ((arr.arrival_ns / 1_000_000) as usize) % 3;
            assert_eq!(domain_of(arr.route_seed.unwrap(), 3), expected, "at {}", arr.arrival_ns);
        }
        // Deterministic and distinct.
        let mut again = arrivals.clone();
        for a in &mut again {
            a.route_seed = None;
        }
        stamp_domain_rotation(&mut again, 3, 1_000_000, 42);
        assert_eq!(arrivals, again);
        let mut seeds: Vec<u64> = arrivals.iter().map(|a| a.route_seed.unwrap()).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 40, "seeds stay distinct per request");
    }

    #[test]
    fn uniform_interval_is_exact() {
        let arrivals: Vec<_> = ArrivalStream::new(
            ArrivalProcess::Uniform { interval_ns: 1_000 },
            DecodeRequest::paper_default(),
            0,
            1,
        )
        .take(5)
        .collect();
        let times: Vec<u64> = arrivals.iter().map(|a| a.arrival_ns).collect();
        assert_eq!(times, vec![1_000, 2_000, 3_000, 4_000, 5_000]);
    }
}
