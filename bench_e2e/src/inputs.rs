//! Workload definitions and their seeded inputs.
//!
//! `--seed` is the only source of randomness: prompts, arrival streams,
//! routing seeds and fault plans all derive from it through [`mix`], and the
//! program under test sees only the generated inputs. Sizes are fixed here
//! (and repeated in the README); `--quick` divides them by [`QUICK_DIVISOR`].

use pregated_moe::model::net::SwitchNetConfig;
use pregated_moe::model::GatingMode;
use pregated_moe::prelude::*;
use pregated_moe::runtime::{PlacementPlan, Replacement};
use pregated_moe::serve::SloConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// `--quick` divides request counts, warm-ups and trace lengths by this.
pub const QUICK_DIVISOR: usize = 20;

/// SplitMix64 over `(seed, stream)`: independent sub-seeds from one seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words: the digests a later change compares with its
/// parent's to show "same outputs".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------- wire

/// Blocking client threads, one connection at a time each.
pub fn wire_clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

/// A closed-loop wire workload against an in-process server.
#[derive(Debug, Clone)]
pub struct WireSpec {
    /// The numeric network that generates the tokens.
    pub net: SwitchNetConfig,
    pub prompt_len: usize,
    pub max_tokens: usize,
    /// Untimed requests sent after the server starts (part of set-up).
    pub warmup: usize,
    /// The lowest-index requests are decoded again by the benchmark through
    /// the public `SwitchNet` and compared token by token; `output_digest`
    /// covers exactly these, so it does not depend on how many requests a
    /// timed run completes.
    pub checked: usize,
    /// Requests the traced run replays through the public calls.
    pub replayed: usize,
}

/// The tiny demo network (about 60 us per forward): HTTP parse, admission,
/// `step_routed`, chunk encoding and the engine-to-IO hand-off dominate.
pub fn wire_small_net(quick: bool) -> WireSpec {
    let q = if quick { QUICK_DIVISOR } else { 1 };
    WireSpec {
        net: EngineConfig::demo().net,
        prompt_len: 12,
        // Two clients' 2 x 16 forwards (2.1 ms) end well inside one 5 ms poll
        // tick. At 32 tokens the pair's 4.2 ms sits at the tick boundary: how
        // many requests spill into a second tick, and with it throughput,
        // then swings 10 % with the machine's speed.
        max_tokens: 16,
        warmup: 120 / q,
        checked: 256 / q,
        replayed: 512 / q,
    }
}

/// About 3 ms per forward: `SwitchNet::forward_inference_arena` is over
/// 95 % of an engine iteration.
pub fn wire_large_net(quick: bool) -> WireSpec {
    let q = if quick { QUICK_DIVISOR / 4 } else { 1 };
    WireSpec {
        net: SwitchNetConfig {
            vocab: 256,
            d_model: 128,
            d_ff: 512,
            num_blocks: 4,
            num_experts: 8,
            seq_len: 32,
            mode: GatingMode::Pregated { level: 1 },
        },
        prompt_len: 12,
        max_tokens: 16,
        warmup: 10 / q,
        checked: 20 / q,
        replayed: 20 / q,
    }
}

impl WireSpec {
    /// The demo server with the SLO target relaxed to 60 s (as `http_bench`
    /// does) so a closed loop is never shed; `io_workers`, queue bounds and
    /// `PGMOE_THREADS` stay at the shipped defaults.
    pub fn serve_config(&self) -> ServeConfig {
        let mut cfg = ServeConfig::demo();
        cfg.slo = SloConfig { target_ttft: Duration::from_secs(60) };
        cfg.engine.net = self.net.clone();
        cfg
    }

    /// How long a client waits before sending timed request `index`:
    /// uniform in `[0, 5 ms)`, one IO-worker poll tick. Two clients that
    /// send back to back phase-lock with the server's 5 ms ticks, and which
    /// mode they fall into moves throughput by 10 % from run to run; a
    /// seeded think time makes every request sample the tick phase anew.
    pub fn think_time(&self, seed: u64, index: u64) -> Duration {
        Duration::from_micros(mix(mix(seed, 3), index) % 5000)
    }

    /// Request `index`'s prompt. Warm-up prompts come from their own stream
    /// so they never repeat a timed request.
    pub fn prompt(&self, seed: u64, stream: PromptStream, index: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(mix(mix(seed, stream as u64), index));
        (0..self.prompt_len).map(|_| rng.gen_range(0..self.net.vocab)).collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromptStream {
    Timed = 1,
    Warmup = 2,
}

// ----------------------------------------------------------------- sim

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// `BatchScheduler` with contiguous KV: the plan-replay steady state.
    BatchUnpaged,
    /// Same trace and budget with block-paged KV and chunked prefill.
    BatchPaged,
    /// `ControlledFleet` with an expert cache, affinity dispatch, seeded
    /// faults and a queue autoscaler: the zero-plan-hit case.
    FleetCachedChaos,
}

/// One simulated trace with everything needed to serve it.
#[derive(Debug, Clone)]
pub struct SimCase {
    pub kind: SimKind,
    pub model: ModelConfig,
    pub opts: SimOptions,
    pub batch: BatchConfig,
    pub arrivals: Vec<ArrivedRequest>,
    /// Empty for the batch workloads.
    pub faults: FaultPlan,
}

/// Replicas the fleet starts with, each batching up to [`FLEET_BATCH`].
pub const FLEET_REPLICAS: usize = 4;
pub const FLEET_BATCH: usize = 4;
/// Twelve faults per trace: two kills, five stalls of 0.2-1 s, five link
/// degradations of 1.5-4x for 1-5 s.
const FLEET_FAULTS: usize = 12;
const FLEET_KILLS: usize = 2;
/// Below capacity, so queues stay bounded. The 10 s period puts ten load
/// peaks in every 100 s trace: the simulated p95 is set by how deep the
/// queues get at the peaks, and with a 60 s period (under two peaks per
/// trace) it moved 15 % from seed to seed.
const FLEET_ARRIVALS: ArrivalProcess =
    ArrivalProcess::Diurnal { trough_per_sec: 6.0, peak_per_sec: 34.0, period_s: 10.0 };
/// Mean of the diurnal rate: sizes the fault horizon without looking at
/// the generated arrivals.
const FLEET_MEAN_RATE: f64 = 20.0;

/// The fleet's fault plan: the seed decides when and where, the severity
/// is part of the workload. (`FaultPlan::random` draws stall lengths of
/// 1-10 % of the horizon and any number of kills; at these trace lengths
/// one draw then moves the simulated p95 tenfold from seed to seed.)
fn fleet_faults(seed: u64, horizon_ns: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plan = FaultPlan::new();
    for i in 0..FLEET_FAULTS {
        let at_ns = rng.gen_range(1..=horizon_ns);
        plan = match i {
            // Replica 0 is never killed, as in `FaultPlan::random`.
            0..FLEET_KILLS => plan.kill_at(at_ns, rng.gen_range(1..FLEET_REPLICAS)),
            _ if i % 2 == 0 => plan.stall_at(
                at_ns,
                rng.gen_range(0..FLEET_REPLICAS),
                rng.gen_range(200_000_000..=1_000_000_000),
            ),
            _ => plan.degrade_link_at(
                at_ns,
                rng.gen_range(0..FLEET_REPLICAS),
                1.5 + rng.gen_range(0.0..2.5),
                rng.gen_range(1_000_000_000..=5_000_000_000),
            ),
        };
    }
    plan
}

impl SimKind {
    /// Traces served per cycle. Simulated results are medians over these, so
    /// they are a function of `--seed` alone, however many cycles fit.
    pub fn traces(self, quick: bool) -> usize {
        match (self, quick) {
            (_, true) => 2,
            (SimKind::FleetCachedChaos, false) => 8,
            (_, false) => 4,
        }
    }

    /// Requests per trace, sized so one trace takes about a second of host
    /// time on the reference box.
    pub fn requests(self, quick: bool) -> usize {
        let full = match self {
            SimKind::BatchUnpaged => 60_000,
            SimKind::BatchPaged => 15_000,
            SimKind::FleetCachedChaos => 2_000,
        };
        if quick {
            full / QUICK_DIVISOR
        } else {
            full
        }
    }

    /// Requests of the first trace the traced run covers: a span per call
    /// must fit in memory.
    pub fn traced_requests(self, quick: bool) -> usize {
        match self {
            SimKind::BatchUnpaged | SimKind::BatchPaged => self.requests(quick) / 4,
            SimKind::FleetCachedChaos => self.requests(quick),
        }
    }

    /// Trace `index` of the cycle for `seed`.
    pub fn case(self, seed: u64, index: usize, quick: bool) -> SimCase {
        let sub = mix(seed, 0x51 + index as u64);
        let n = self.requests(quick);
        match self {
            SimKind::BatchUnpaged | SimKind::BatchPaged => {
                let model = ModelConfig::switch_base(8);
                let opts = SimOptions::new(OffloadPolicy::Pregated).with_seed(sub);
                // `paged_kv_gate`'s tight budget: room for two long
                // contexts and two blocks' worth of experts.
                let base = PlacementPlan::new(&model, &opts, 0, 1);
                let long = PlacementPlan::new(&model, &opts, 512 + 24, 1).activation_bytes();
                let budget =
                    base.static_non_activation_bytes() + 2 * long + 2 * 8 * base.expert_bytes();
                let mut batch = BatchConfig::new(16).with_hbm_budget(budget);
                if self == SimKind::BatchPaged {
                    batch = batch.with_paged_kv(PagedKvConfig::new(16).with_prefill_chunk(256));
                }
                SimCase {
                    kind: self,
                    model,
                    opts,
                    batch,
                    arrivals: mixed_context_trace(n, 512, 384, 2, 50_000),
                    faults: FaultPlan::new(),
                }
            }
            SimKind::FleetCachedChaos => {
                let opts = SimOptions::new(OffloadPolicy::Pregated)
                    .with_cache(CacheConfig::new(0.15, Replacement::Lru))
                    .with_routing(RoutingKind::ZipfDomains { s: 1.5, domains: 4 })
                    .with_seed(sub);
                let request = DecodeRequest { input_tokens: 16, output_tokens: 16, batch_size: 1 };
                let arrivals: Vec<ArrivedRequest> =
                    ArrivalStream::new(FLEET_ARRIVALS, request, 0, mix(sub, 1)).take(n).collect();
                let horizon_ns = (n as f64 / FLEET_MEAN_RATE * 1e9) as u64;
                SimCase {
                    kind: self,
                    model: ModelConfig::switch_base(64),
                    opts,
                    batch: BatchConfig::new(FLEET_BATCH),
                    arrivals,
                    faults: fleet_faults(mix(sub, 2), horizon_ns.max(1)),
                }
            }
        }
    }
}

impl SimCase {
    pub fn expected_tokens(&self) -> usize {
        self.arrivals.iter().map(|a| a.request.output_tokens).sum()
    }

    /// The same case cut to its first `n` arrivals (warm-up, replica pump).
    pub fn prefix(&self, n: usize) -> SimCase {
        let mut cut = self.clone();
        cut.arrivals.truncate(n.max(1));
        cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_is_the_only_source_of_randomness() {
        let spec = wire_small_net(true);
        let a = spec.prompt(1, PromptStream::Timed, 5);
        assert_eq!(a, spec.prompt(1, PromptStream::Timed, 5));
        assert_ne!(a, spec.prompt(2, PromptStream::Timed, 5));
        assert_ne!(a, spec.prompt(1, PromptStream::Timed, 6));
        assert_ne!(a, spec.prompt(1, PromptStream::Warmup, 5));
        assert!(a.len() == 12 && a.iter().all(|&t| t < 64));

        for kind in [SimKind::BatchUnpaged, SimKind::FleetCachedChaos] {
            let a = kind.case(1, 0, true);
            let same = kind.case(1, 0, true);
            let other_seed = kind.case(2, 0, true);
            let other_trace = kind.case(1, 1, true);
            assert_eq!((a.arrivals == same.arrivals, a.opts.seed), (true, same.opts.seed));
            assert_eq!(a.faults, same.faults);
            assert_ne!(a.opts.seed, other_seed.opts.seed);
            assert_ne!(a.opts.seed, other_trace.opts.seed);
        }
        let fleet = SimKind::FleetCachedChaos;
        assert_ne!(fleet.case(1, 0, true).arrivals, fleet.case(2, 0, true).arrivals);
        assert_ne!(fleet.case(1, 0, true).faults, fleet.case(2, 0, true).faults);
        assert_eq!(fleet.case(1, 0, true).faults.events().len(), FLEET_FAULTS);
    }

    #[test]
    fn fnv_depends_on_order_and_content() {
        let digest = |words: &[u64]| {
            let mut h = Fnv::new();
            words.iter().for_each(|&w| h.word(w));
            h.finish()
        };
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[3, 2, 1]));
        assert_ne!(digest(&[]), digest(&[0]));
    }
}
