//! The simulator workloads: `BatchScheduler` with contiguous and paged KV,
//! and `ControlledFleet` under cache-affinity dispatch, faults and
//! autoscaling — plus the traced run's own arrival pump and the timing
//! decorators around the public dispatch and controller traits.
//!
//! Host time is what this program takes to simulate; simulated time is what
//! the modelled GPU would take. `tokens_per_s` is simulated output tokens
//! per host second; every latency here is simulated.

use crate::inputs::{Fnv, SimCase, SimKind, FLEET_REPLICAS};
use crate::metrics::{Better, Outcome, Values};
use crate::spans::Recorder;
use crate::{micro, stats, RunArgs, SETUP_REPS};
use pregated_moe::device::{MachineConfig, SimDuration};
use pregated_moe::prelude::*;
use pregated_moe::runtime::{KvServeStats, RuntimeError};
use pregated_moe::workload::stamp_route_seeds;
use std::collections::VecDeque;
use std::time::Instant;

/// The controller observes once per simulated second; a scaled-up replica
/// takes the default quarter second to come online.
const CONTROL: ControlOptions = ControlOptions { window_ns: 1_000_000_000, warmup_ns: 250_000_000 };

fn dispatcher() -> CacheAffinity {
    CacheAffinity::new(8)
}

fn autoscaler() -> QueueAutoScaler {
    QueueAutoScaler::new(3, 8, 4)
}

/// What a served trace reports, whichever driver served it.
#[derive(Debug, Clone)]
pub(crate) struct Served {
    latencies: Vec<SimDuration>,
    ttfts: Vec<SimDuration>,
    queueing: Vec<SimDuration>,
    total_tokens: usize,
    tokens_per_sec: f64,
    peak_hbm_bytes: u64,
    expert_fetch_bytes: u64,
    demand_fetch_bytes: u64,
    /// Mean GPU-busy share of the simulated span, per GPU.
    gpu_busy_share: f64,
    gpus: usize,
    plan_hits: u64,
    plan_misses: u64,
    peak_batch: usize,
    kv: Option<KvServeStats>,
    control: Option<ControlStats>,
}

impl From<ServeStats> for Served {
    fn from(s: ServeStats) -> Self {
        let span_s =
            if s.tokens_per_sec > 0.0 { s.total_tokens as f64 / s.tokens_per_sec } else { 0.0 };
        Served {
            gpu_busy_share: if span_s > 0.0 { s.gpu_busy.as_secs_f64() / span_s } else { 0.0 },
            gpus: 1,
            latencies: s.request_latencies,
            ttfts: s.ttfts,
            queueing: s.queueing_delays,
            total_tokens: s.total_tokens,
            tokens_per_sec: s.tokens_per_sec,
            peak_hbm_bytes: s.peak_hbm_bytes,
            expert_fetch_bytes: s.expert_fetch_bytes,
            demand_fetch_bytes: s.demand_fetch_bytes,
            plan_hits: s.plan_cache_hits,
            plan_misses: s.plan_cache_misses,
            peak_batch: s.peak_batch,
            kv: s.kv,
            control: None,
        }
    }
}

impl From<FleetStats> for Served {
    fn from(s: FleetStats) -> Self {
        Served {
            gpu_busy_share: s.mean_utilization(),
            gpus: s.replicas.len().max(1),
            plan_hits: s.replicas.iter().map(|r| r.plan_cache_hits).sum(),
            plan_misses: s.replicas.iter().map(|r| r.plan_cache_misses).sum(),
            peak_batch: s.replicas.iter().map(|r| r.peak_batch).max().unwrap_or(0),
            latencies: s.request_latencies,
            ttfts: s.ttfts,
            queueing: s.queueing_delays,
            total_tokens: s.total_tokens,
            tokens_per_sec: s.tokens_per_sec,
            peak_hbm_bytes: s.peak_hbm_bytes,
            expert_fetch_bytes: s.expert_fetch_bytes,
            demand_fetch_bytes: s.demand_fetch_bytes,
            kv: None,
            control: s.control,
        }
    }
}

impl Served {
    /// Covers every simulated result a host-only change must leave
    /// bit-identical: throughput bits, peak HBM, fetch and demand bytes,
    /// and all three per-request latency vectors.
    fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.tokens_per_sec.to_bits());
        h.word(self.peak_hbm_bytes);
        h.word(self.expert_fetch_bytes);
        h.word(self.demand_fetch_bytes);
        h.word(self.total_tokens as u64);
        for series in [&self.latencies, &self.ttfts, &self.queueing] {
            h.word(series.len() as u64);
            series.iter().for_each(|d| h.word(d.as_nanos()));
        }
        h.finish()
    }

    /// Conservation: every offered request completed, every token counted.
    /// Returns how many requests were lost.
    fn check(&self, case: &SimCase, what: &str, out: &mut Outcome) -> u64 {
        let offered = case.arrivals.len();
        out.check(self.latencies.len() == offered, || {
            format!("{what}: {} latency rows for {offered} requests", self.latencies.len())
        });
        out.check(self.total_tokens == case.expected_tokens(), || {
            format!("{what}: {} tokens, expected {}", self.total_tokens, case.expected_tokens())
        });
        // A request that never completed reports zero latency.
        let lost: Vec<usize> = self
            .latencies
            .iter()
            .enumerate()
            .filter(|(_, d)| **d == SimDuration::ZERO)
            .map(|(i, _)| i)
            .collect();
        if let Some(first) = lost.first() {
            out.violate(format!("{what}: request {first} never completed ({} lost)", lost.len()));
        }
        lost.len() as u64 + offered.abs_diff(self.latencies.len()) as u64
    }

    /// Simulated latencies, ms: TTFT, per-output-token gap, whole request.
    fn latencies_ms(&self, case: &SimCase) -> [Vec<f64>; 3] {
        let ttft: Vec<f64> = self.ttfts.iter().map(|d| d.as_millis_f64()).collect();
        let total: Vec<f64> = self.latencies.iter().map(|d| d.as_millis_f64()).collect();
        let tpot = case
            .arrivals
            .iter()
            .zip(total.iter().zip(&ttft))
            .filter(|(a, _)| a.request.output_tokens > 1)
            .map(|(a, (total, ttft))| (total - ttft) / (a.request.output_tokens - 1) as f64)
            .collect();
        [ttft, tpot, total]
    }
}

fn fleet_of(case: &SimCase) -> ControlledFleet {
    ControlledFleet::new(
        case.model.clone(),
        case.opts.clone(),
        FleetConfig::new(FLEET_REPLICAS, case.batch),
    )
    .with_control(CONTROL)
}

/// Serves one case through the public driver its workload names.
fn serve(case: &SimCase) -> Result<Served, RuntimeError> {
    match case.kind {
        SimKind::BatchUnpaged | SimKind::BatchPaged => {
            BatchScheduler::new(case.model.clone(), case.opts.clone(), case.batch)
                .serve(case.arrivals.iter().copied())
                .map(Served::from)
        }
        SimKind::FleetCachedChaos => fleet_of(case)
            .serve(
                case.arrivals.iter().copied(),
                &mut dispatcher(),
                &case.faults,
                &mut autoscaler(),
            )
            .map(Served::from),
    }
}

/// Trace generation plus a warm-up serve of an eighth of the first trace:
/// what `setup_s` times.
fn set_up(kind: SimKind, args: &RunArgs) -> Vec<SimCase> {
    let cases: Vec<SimCase> =
        (0..kind.traces(args.quick)).map(|i| kind.case(args.seed, i, args.quick)).collect();
    let warm = cases[0].prefix(cases[0].arrivals.len() / 8);
    std::hint::black_box(serve(&warm).expect("warm-up trace serves"));
    cases
}

/// The end-to-end run, tracing off. Cycles through the seed's traces until
/// the time is up (at least one full cycle). Host speed is the best serve's
/// (see [`stats::best`]); simulated results come from the distinct traces,
/// and a trace served again must reproduce its digest exactly.
pub fn run(kind: SimKind, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut cases = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        cases = set_up(kind, args);
        setups.push(started.elapsed().as_secs_f64());
    }
    out.metrics.insert("setup_s", stats::median(&setups));

    let mut first: Vec<Option<Served>> = vec![None; cases.len()];
    let mut rates = Vec::new();
    let started = Instant::now();
    let mut rep = 0;
    while rep < cases.len() || started.elapsed().as_secs_f64() < args.seconds {
        let k = rep % cases.len();
        let case = &cases[k];
        let t0 = Instant::now();
        let served = serve(case);
        let host_s = t0.elapsed().as_secs_f64();
        rep += 1;
        out.attempted += case.arrivals.len() as u64;
        let served = match served {
            Ok(served) => served,
            Err(e) => {
                out.failed += case.arrivals.len() as u64;
                out.violate(format!("trace {k}: {e}"));
                continue;
            }
        };
        out.failed += served.check(case, &format!("trace {k}"), &mut out);
        rates.push(served.total_tokens as f64 / host_s);
        if rep == cases.len() {
            // After exactly one cycle, however many more the time allows.
            out.metrics.insert("peak_rss_mb", crate::peak_rss_mb());
        }
        match &first[k] {
            Some(before) => out.check(before.digest() == served.digest(), || {
                format!("trace {k} served twice gave different simulated results")
            }),
            None => first[k] = Some(served),
        }
    }

    let traces: Vec<(&SimCase, &Served)> =
        cases.iter().zip(&first).filter_map(|(c, s)| s.as_ref().map(|s| (c, s))).collect();
    // Latencies pool every distinct trace's requests: one percentile over
    // all of them moves less from seed to seed than a median of per-trace
    // percentiles.
    let mut pooled: [Vec<f64>; 3] = Default::default();
    for (case, served) in &traces {
        for (all, mine) in pooled.iter_mut().zip(served.latencies_ms(case)) {
            all.extend(mine);
        }
    }
    let [ttft, tpot, total] = pooled.map(stats::sorted);
    let sim_rates: Vec<f64> = traces.iter().map(|(_, s)| s.tokens_per_sec).collect();
    let peak_hbm = traces.iter().map(|(_, s)| s.peak_hbm_bytes).max().unwrap_or(0);
    let m = &mut out.metrics;
    m.insert("tokens_per_s", stats::best(&rates, Better::Higher));
    m.insert("ttft_p50_ms", stats::percentile(&ttft, 0.5));
    m.insert("ttft_p95_ms", stats::percentile(&ttft, 0.95));
    m.insert("request_p50_ms", stats::percentile(&total, 0.5));
    m.insert("request_p95_ms", stats::percentile(&total, 0.95));
    m.insert("sim_tokens_per_s", stats::median(&sim_rates));
    m.insert("sim_peak_hbm_gb", peak_hbm as f64 / 1e9);

    let mut digest = Fnv::new();
    traces.iter().for_each(|(_, s)| digest.word(s.digest()));
    out.digest = Some(("sim_digest", digest.finish()));
    out.notes.push(format!(
        "sim_digest covers {} traces of {} requests; {rep} serves, host us/token {}",
        traces.len(),
        cases[0].arrivals.len(),
        stats::describe(&rates.iter().map(|r| 1e6 / r).collect::<Vec<_>>(), "us"),
    ));
    out.notes.push(format!("simulated ttft {}", stats::describe(&ttft, "ms")));
    out.notes.push(format!("simulated tpot {}", stats::describe(&tpot, "ms")));
    out.notes.push(format!("simulated request {}", stats::describe(&total, "ms")));
    out
}

// ------------------------------------------------------------ traced run

const STEP_HIT: &str = "runtime.session.step.hit";
const STEP_MISS: &str = "runtime.session.step.miss";
const STEP_UNCACHED: &str = "runtime.session.step.uncached";

/// The benchmark's own arrival pump over the public `BatchSession` calls,
/// in `BatchScheduler::serve`'s order, each call a span; every step is
/// classified as plan hit or miss from the `plan_cache_stats()` delta.
fn pump(case: &SimCase, rec: &mut Recorder) -> Result<(Served, u64), RuntimeError> {
    let mut session = BatchSession::new(case.model.clone(), case.opts.clone(), case.batch)?;
    let mut pending: VecDeque<(usize, ArrivedRequest)> =
        case.arrivals.iter().copied().enumerate().collect();
    let root = rec.open("bench.pump", None, None);
    let mut iterations = 0;
    while !pending.is_empty() || session.in_flight() > 0 {
        if session.in_flight() == 0 {
            if let Some(&(_, next)) = pending.front() {
                session.advance_clock(SimTime::from_nanos(next.arrival_ns));
            }
        }
        while let Some(&(idx, arr)) = pending.front() {
            if SimTime::from_nanos(arr.arrival_ns) > session.clock() {
                break;
            }
            let t0 = rec.now_ns();
            let admission = session.try_admit(idx as u64, arr)?;
            rec.record("runtime.session.admit", Some(root), Some(idx as u64), t0, rec.now_ns());
            match admission {
                Admission::Admitted { .. } => {
                    pending.pop_front();
                }
                Admission::BatchFull | Admission::OverBudget => break,
            }
        }
        let before = session.plan_cache_stats();
        let t0 = rec.now_ns();
        session.step()?;
        let t1 = rec.now_ns();
        let after = session.plan_cache_stats();
        let name = if after.hits > before.hits {
            STEP_HIT
        } else if after.misses > before.misses {
            STEP_MISS
        } else {
            STEP_UNCACHED
        };
        rec.record(name, Some(root), None, t0, t1);
        iterations += 1;
    }
    rec.close(root);
    Ok((Served::from(session.finish()), iterations))
}

/// Times every `choose` of the wrapped dispatch policy.
struct TimedDispatch<P> {
    inner: P,
    rec: Recorder,
}

impl<P: DispatchPolicy> DispatchPolicy for TimedDispatch<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn choose(&mut self, replicas: &[ReplicaView<'_>], request: &RequestProfile<'_>) -> usize {
        let t0 = self.rec.now_ns();
        let chosen = self.inner.choose(replicas, request);
        self.rec.record("runtime.fleet.dispatch", None, None, t0, self.rec.now_ns());
        chosen
    }
}

/// Times every `observe` of the wrapped fleet controller.
struct TimedController<C> {
    inner: C,
    rec: Recorder,
}

impl<C: FleetController> FleetController for TimedController<C> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn observe(&mut self, window: &ControlWindow<'_>) -> Vec<ControlAction> {
        let t0 = self.rec.now_ns();
        let actions = self.inner.observe(window);
        self.rec.record("runtime.control.observe", None, None, t0, self.rec.now_ns());
        actions
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Session-level ledger from a pumped trace's spans and results.
fn session_metrics(v: &mut Values, rec: &Recorder, served: &Served, iterations: u64) {
    let median = |name: &str| rec.median_ns(name);
    let mut steps = rec.durations_ns(STEP_HIT);
    steps.extend(rec.durations_ns(STEP_MISS));
    steps.extend(rec.durations_ns(STEP_UNCACHED));
    let steps = stats::sorted(steps);
    v.insert("runtime.session.admit_ns", median("runtime.session.admit"));
    v.insert("runtime.session.step_ns_p50", stats::percentile(&steps, 0.5));
    v.insert("runtime.session.step_ns_p99", stats::percentile(&steps, 0.99));
    v.insert("runtime.session.iterations", iterations as f64);
    v.insert("runtime.session.mean_batch", served.total_tokens as f64 / iterations.max(1) as f64);
    v.insert("runtime.plan.hit_step_ns", median(STEP_HIT));
    v.insert("runtime.plan.miss_step_ns", median(STEP_MISS));
}

/// Results a driver reports for everything it served (fleet-wide on the
/// fleet; the live server's session on the wire workloads).
pub(crate) fn served_metrics(v: &mut Values, served: &Served, machine: &MachineConfig) {
    let (hits, misses) = (served.plan_hits as f64, served.plan_misses as f64);
    v.insert("runtime.plan.hits", hits);
    v.insert("runtime.plan.misses", misses);
    v.insert(
        "runtime.plan.hit_share",
        if hits + misses == 0.0 { 0.0 } else { hits / (hits + misses) },
    );
    v.insert("runtime.session.peak_batch", served.peak_batch as f64);
    if let Some(kv) = &served.kv {
        v.insert("runtime.kv.peak_blocks", kv.peak_blocks as f64);
        v.insert("runtime.kv.shared_hit_mb", kv.shared_hit_bytes as f64 / 1e6);
        v.insert("runtime.kv.cow_copy_mb", kv.cow_copy_bytes as f64 / 1e6);
        v.insert("runtime.kv.cache_shrinks", kv.cache_shrink_events as f64);
    }
    v.insert("runtime.fleet.demand_fetch_gb", served.demand_fetch_bytes as f64 / 1e9);
    v.insert("runtime.fleet.expert_fetch_gb", served.expert_fetch_bytes as f64 / 1e9);
    if let Some(c) = &served.control {
        v.insert("runtime.control.faults", c.faults_injected as f64);
        v.insert("runtime.control.redispatched", c.redispatched as f64);
        v.insert("runtime.control.dropped_tokens", c.dropped_tokens as f64);
        v.insert("runtime.control.scale_ups", c.scale_ups as f64);
        v.insert("runtime.control.scale_downs", c.scale_downs as f64);
    }
    v.insert("device.gpu_busy_share", served.gpu_busy_share);
    // Computed from bytes moved over the modelled link, not measured.
    let span_s = served.total_tokens as f64 / served.tokens_per_sec.max(f64::MIN_POSITIVE);
    let link_s = served.expert_fetch_bytes as f64 / machine.pcie.bandwidth_bytes_per_sec;
    v.insert("device.pcie_busy_share", link_s / span_s / served.gpus as f64);
}

/// The traced run on the seed's first trace, cut so that a span per call
/// fits in memory.
pub fn run_traced(kind: SimKind, args: &RunArgs) -> (Outcome, Recorder) {
    let mut out = Outcome::default();
    let mut rec = Recorder::new();
    let (full, generate_s) = timed(|| kind.case(args.seed, 0, args.quick));
    let case = full.prefix(kind.traced_requests(args.quick));
    out.attempted = case.arrivals.len() as u64;
    out.metrics.insert("workload.arrivals_ns", generate_s * 1e9 / full.arrivals.len() as f64);

    // The public driver, tracing off: the reference for results and time.
    let (plain, plain_s) = timed(|| serve(&case));
    let plain = match plain {
        Ok(plain) => plain,
        Err(e) => {
            out.failed = out.attempted;
            out.violate(format!("untraced serve: {e}"));
            return (out, rec);
        }
    };
    out.failed += plain.check(&case, "untraced serve", &mut out);
    served_metrics(&mut out.metrics, &plain, &case.opts.machine);
    out.metrics.insert("workload.fault_plan_events", case.faults.events().len() as f64);
    let [ttft, tpot, total] = plain.latencies_ms(&case);
    out.metrics.insert("sim.tpot_p50_ms", stats::median(&tpot));
    out.metrics.insert("sim.ttft_p99_ms", stats::percentile(&stats::sorted(ttft), 0.99));
    out.metrics.insert("sim.request_p99_ms", stats::percentile(&stats::sorted(total), 0.99));

    let traced_s = match kind {
        SimKind::BatchUnpaged | SimKind::BatchPaged => {
            let (pumped, pump_s) = timed(|| pump(&case, &mut rec));
            let (pumped, iterations) = pumped.expect("the pump serves what the driver served");
            out.check(pumped.digest() == plain.digest(), || {
                "the benchmark's pump and BatchScheduler::serve disagree on sim_digest".into()
            });
            session_metrics(&mut out.metrics, &rec, &pumped, iterations);
            pump_s
        }
        SimKind::FleetCachedChaos => {
            // The same run through timing decorators on the public traits.
            let mut dispatch = TimedDispatch { inner: dispatcher(), rec: rec.fork(1) };
            let mut control = TimedController { inner: autoscaler(), rec: rec.fork(2) };
            let (decorated, decorated_s) = timed(|| {
                fleet_of(&case).serve(
                    case.arrivals.iter().copied(),
                    &mut dispatch,
                    &case.faults,
                    &mut control,
                )
            });
            let decorated = Served::from(decorated.expect("decorated fleet serves"));
            out.check(decorated.digest() == plain.digest(), || {
                "timing decorators changed the fleet's simulated results".into()
            });
            let v = &mut out.metrics;
            v.insert("runtime.fleet.dispatch_ns", dispatch.rec.median_ns("runtime.fleet.dispatch"));
            v.insert(
                "runtime.control.observe_ns",
                control.rec.median_ns("runtime.control.observe"),
            );
            rec.absorb(dispatch.rec);
            rec.absorb(control.rec);

            // FleetSim against ControlledFleet+NoControl on the fault-free
            // trace: host-time ratio on the workload's own configuration,
            // equality of results on the cache-less one the repository
            // proves it for.
            let idle_pair = |case: &SimCase| {
                let fleet = FleetConfig::new(FLEET_REPLICAS, case.batch);
                let fixed = timed(|| {
                    FleetSim::new(case.model.clone(), case.opts.clone(), fleet)
                        .serve(case.arrivals.iter().copied(), &mut dispatcher())
                        .map(Served::from)
                        .expect("static fleet serves")
                });
                let idle = timed(|| {
                    fleet_of(case)
                        .serve(
                            case.arrivals.iter().copied(),
                            &mut dispatcher(),
                            &FaultPlan::new(),
                            &mut NoControl,
                        )
                        .map(Served::from)
                        .expect("uncontrolled fleet serves")
                });
                (fixed, idle)
            };
            let ((fixed, fixed_s), (idle, idle_s)) = idle_pair(&case);
            out.metrics.insert("runtime.fleet.static_vs_controlled", fixed_s / idle_s);
            let mut uncached = case.prefix(case.arrivals.len() / 4);
            uncached.opts.cache = None;
            let ((fixed_plain, _), (idle_plain, _)) = idle_pair(&uncached);
            out.check(fixed_plain.digest() == idle_plain.digest(), || {
                "FleetSim and ControlledFleet+NoControl disagree without an expert cache".into()
            });
            out.notes.push(format!(
                "FleetSim vs ControlledFleet+NoControl, fault-free: equal without a cache; \
                 with this workload's expert cache their results {}",
                if fixed.digest() == idle.digest() { "are equal too" } else { "differ" }
            ));

            // One replica's share of the trace through the pump, for the
            // session-level numbers of the cached configuration.
            let mut mine = case.clone();
            stamp_route_seeds(&mut mine.arrivals, mine.opts.seed);
            mine.arrivals = mine.arrivals.into_iter().step_by(FLEET_REPLICAS).collect();
            let (pumped, iterations) = pump(&mine, &mut rec).expect("replica pump serves");
            out.failed += pumped.check(&mine, "replica pump", &mut out);
            session_metrics(&mut out.metrics, &rec, &pumped, iterations);
            decorated_s
        }
    };
    out.metrics.insert("bench.trace_overhead_share", traced_s / plain_s - 1.0);
    micro::runtime_and_device(&mut out.metrics, args.seed);
    out.notes.push(format!(
        "traced {} of {} requests: untraced serve {plain_s:.3} s, traced {traced_s:.3} s, {} spans",
        case.arrivals.len(),
        full.arrivals.len(),
        rec.spans().len(),
    ));
    (out, rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunArgs {
        RunArgs { seed: 3, seconds: 0.0, quick: true }
    }

    #[test]
    fn the_pump_reproduces_batch_scheduler_serve_bit_for_bit() {
        for kind in [SimKind::BatchUnpaged, SimKind::BatchPaged] {
            let case = kind.case(3, 0, true);
            let driver = serve(&case).expect("driver serves");
            let mut rec = Recorder::new();
            let (pumped, iterations) = pump(&case, &mut rec).expect("pump serves");
            assert_eq!(pumped.digest(), driver.digest(), "{kind:?}");
            assert_eq!(pumped.total_tokens, case.expected_tokens());
            let steps: usize = [STEP_HIT, STEP_MISS, STEP_UNCACHED]
                .iter()
                .map(|name| rec.durations_ns(name).len())
                .sum();
            assert_eq!(steps as u64, iterations, "one span per step");
            assert_eq!(
                rec.durations_ns(STEP_HIT).len() as u64,
                driver.plan_hits,
                "hit classification matches the session's own counter"
            );
        }
    }

    #[test]
    fn digests_repeat_for_a_seed_and_differ_across_seeds() {
        for kind in [SimKind::BatchPaged, SimKind::FleetCachedChaos] {
            let digest = |seed| serve(&kind.case(seed, 0, true)).expect("serves").digest();
            assert_eq!(digest(1), digest(1), "{kind:?}");
            assert_ne!(digest(1), digest(2), "{kind:?}");
        }
    }

    #[test]
    fn a_lost_request_is_a_failed_operation_with_its_index() {
        let case = SimKind::BatchUnpaged.case(1, 0, true);
        let mut served = serve(&case).expect("serves");
        served.latencies[7] = SimDuration::ZERO;
        let mut out = Outcome::default();
        assert_eq!(served.check(&case, "trace 0", &mut out), 1);
        assert_eq!(out.violation.as_deref(), Some("trace 0: request 7 never completed (1 lost)"));
    }

    #[test]
    fn quick_runs_report_every_metric_and_pass_their_checks() {
        for kind in [SimKind::BatchUnpaged, SimKind::BatchPaged, SimKind::FleetCachedChaos] {
            let out = run(kind, &quick());
            assert_eq!(out.violation, None, "{kind:?}");
            assert_eq!(out.failed, 0);
            for d in crate::metrics::END_TO_END {
                assert!(out.metrics.get(d.name).is_some_and(|v| *v > 0.0), "{kind:?} {}", d.name);
            }
            let (traced, rec) = run_traced(kind, &quick());
            assert_eq!(traced.violation, None, "{kind:?}");
            assert!(!rec.spans().is_empty());
            assert!(traced.metrics["runtime.session.iterations"] > 0.0);
        }
    }
}
