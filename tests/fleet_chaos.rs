//! Chaos gate for the adaptive fleet-control layer.
//!
//! The acceptance harness for `pgmoe_runtime::control`, asserting the
//! robustness claims end to end:
//!
//! 1. **Replica death loses nothing** — killing a replica mid-run
//!    redispatches its queued and in-flight work; every request completes
//!    with its full token count and the tail stays bounded.
//! 2. **The event loop adds nothing of its own** — with no faults and a
//!    never-acting controller, interleaving the replicas in simulated time
//!    is *bit-exact* with serving each replica's share run-to-completion on
//!    a lone `BatchScheduler`, with and without an expert cache, and
//!    `FleetSim` is that same loop.
//! 3. **Online policy switching pays off** — when the drift detector
//!    fires, swapping the serving policy on live replicas strictly cuts
//!    fleet-wide demand-fetch bytes versus letting the drifted policy run.
//! 4. **Autoscaling absorbs a flash crowd** — the queue-driven scaler
//!    grows the fleet under burst and is billed elastically, below a
//!    peak-sized static fleet.
//! 5. **Controllers see what they always saw** — every `ControlWindow` of
//!    an autoscaled chaos run, finished replicas included, matches a
//!    recorded digest, so a change to how the fleet holds its state cannot
//!    change what a controller observes.
//!
//! Every claim is *asserted*; a regression in fault injection, recovery,
//! redispatch, or the controller loop fails this test.

use pregated_moe_repro::pgmoe::prelude::*;
use pregated_moe_repro::pgmoe::workload::stamp_route_seeds;

fn req(output: usize) -> DecodeRequest {
    DecodeRequest { input_tokens: 16, output_tokens: output, batch_size: 1 }
}

fn poisson(n: usize, rate: f64, seed: u64) -> Vec<ArrivedRequest> {
    ArrivalStream::new(ArrivalProcess::Poisson { rate_per_sec: rate }, req(8), 1, seed)
        .take(n)
        .collect()
}

fn controlled(replicas: usize, policy: OffloadPolicy) -> ControlledFleet {
    ControlledFleet::new(
        ModelConfig::switch_base(8),
        SimOptions::new(policy),
        FleetConfig::new(replicas, BatchConfig::new(4)),
    )
}

/// Claim 1: a seeded kill-one-replica fault loses zero requests, delivers
/// every token, and keeps the p99 within a bounded multiple of the
/// fault-free run.
#[test]
fn killing_one_replica_loses_nothing_and_keeps_the_tail_bounded() {
    let arrivals = poisson(24, 200.0, 41);
    let expected_tokens: usize = arrivals.iter().map(|a| a.request.output_tokens).sum();

    let clean = controlled(3, OffloadPolicy::Pregated)
        .serve(arrivals.clone(), &mut JoinShortestQueue::new(), &FaultPlan::new(), &mut NoControl)
        .unwrap();

    let kill_at = arrivals[8].arrival_ns + 1;
    let plan = FaultPlan::new().kill_at(kill_at, 2);
    let faulty = controlled(3, OffloadPolicy::Pregated)
        .serve(arrivals.clone(), &mut JoinShortestQueue::new(), &plan, &mut NoControl)
        .unwrap();

    assert_eq!(faulty.request_latencies.len(), 24, "zero requests lost to the kill");
    assert_eq!(faulty.total_tokens, expected_tokens, "every stream delivers its full output");
    let ctl = faulty.control.as_ref().unwrap();
    assert_eq!(ctl.faults_injected, 1);
    assert!(ctl.redispatched > 0, "the dead replica's work must move to survivors");
    // `dropped_tokens` is work paid for twice (decoded, then lost with the
    // replica, then re-decoded) — never tokens missing from a client.
    assert!(
        ctl.dropped_tokens < expected_tokens,
        "re-decoded waste must be a fraction of the run, got {}",
        ctl.dropped_tokens
    );
    for (i, a) in arrivals.iter().enumerate() {
        if a.arrival_ns > kill_at {
            assert_ne!(faulty.assignment[i], 2, "request {i} was dispatched to a dead replica");
        }
    }
    // Losing a third of the fleet inflates the tail, but recovery must
    // keep it bounded — not collapse into head-of-line starvation.
    assert!(
        faulty.p99().as_nanos() <= clean.p99().as_nanos().max(1) * 8,
        "post-kill p99 {} must stay within 8x the fault-free p99 {}",
        faulty.p99(),
        clean.p99()
    );
}

/// The oracle for claim 2, written against public API only: every replica
/// serves its share of the stamped trace alone, run-to-completion, numbered
/// from zero, and the fleet numbers are merged by hand.
fn per_replica_oracle(
    case: &str,
    model: &ModelConfig,
    opts: &SimOptions,
    fleet: FleetConfig,
    stamped: &[ArrivedRequest],
    live: &FleetStats,
) {
    assert_eq!(live.assignment.len(), stamped.len(), "{case}");
    assert_eq!(live.replicas.len(), fleet.replicas, "{case}");
    let alone: Vec<ServeStats> = (0..fleet.replicas)
        .map(|r| {
            let share = stamped.iter().zip(&live.assignment).filter(|(_, &a)| a == r);
            BatchScheduler::new(model.clone(), opts.clone(), fleet.batch)
                .serve(share.map(|(arr, _)| *arr))
                .unwrap()
        })
        .collect();
    for (r, (got, want)) in live.replicas.iter().zip(&alone).enumerate() {
        let case = format!("{case}, replica {r}");
        assert_eq!(got.request_latencies, want.request_latencies, "{case}");
        assert_eq!(got.queueing_delays, want.queueing_delays, "{case}");
        assert_eq!(got.ttfts, want.ttfts, "{case}");
        assert_eq!(got.total_tokens, want.total_tokens, "{case}");
        assert_eq!(got.expert_fetch_bytes, want.expert_fetch_bytes, "{case}");
        assert_eq!(got.demand_fetch_bytes, want.demand_fetch_bytes, "{case}");
        assert_eq!(got.gpu_busy, want.gpu_busy, "{case}");
        assert_eq!(got.peak_batch, want.peak_batch, "{case}");
        // A lone scheduler handed nothing never places the model; a fleet
        // replica holds its weights whether or not work reaches it.
        if !want.request_latencies.is_empty() {
            assert_eq!(got.peak_hbm_bytes, want.peak_hbm_bytes, "{case}");
        }
    }
    let mut served = vec![0usize; fleet.replicas];
    let mut last_completion_ns = 0;
    for (i, (arr, &r)) in stamped.iter().zip(&live.assignment).enumerate() {
        let k = served[r];
        served[r] += 1;
        assert_eq!(live.request_latencies[i], alone[r].request_latencies[k], "{case}, request {i}");
        assert_eq!(live.queueing_delays[i], alone[r].queueing_delays[k], "{case}, request {i}");
        assert_eq!(live.ttfts[i], alone[r].ttfts[k], "{case}, request {i}");
        last_completion_ns =
            last_completion_ns.max(arr.arrival_ns + alone[r].request_latencies[k].as_nanos());
    }
    let makespan_ns = last_completion_ns - stamped[0].arrival_ns;
    assert_eq!(live.makespan.as_nanos(), makespan_ns, "{case}");
    assert_eq!(live.gpu_time.as_nanos(), makespan_ns * fleet.replicas as u64, "{case}");
    assert_eq!(live.gpus, fleet.replicas, "{case}");
    assert_eq!(live.total_tokens, alone.iter().map(|s| s.total_tokens).sum::<usize>(), "{case}");
    let sum = |f: fn(&ServeStats) -> u64| alone.iter().map(f).sum::<u64>();
    assert_eq!(live.expert_fetch_bytes, sum(|s| s.expert_fetch_bytes), "{case}");
    assert_eq!(live.demand_fetch_bytes, sum(|s| s.demand_fetch_bytes), "{case}");
    assert_eq!(live.peak_hbm_bytes, alone.iter().map(|s| s.peak_hbm_bytes).max().unwrap());
    for (u, s) in live.utilization.iter().zip(&alone) {
        assert_eq!(*u, s.gpu_busy.as_nanos() as f64 / makespan_ns as f64, "{case}");
    }
}

/// Claim 2: the event loop adds nothing of its own. Fault-free, with a
/// controller that observes every window and never acts, the interleaved
/// run equals the per-replica oracle field for field — in the paper's
/// cached configuration too, where a request's prefill experts once
/// depended on how its driver numbered it — and `FleetSim` reports the
/// same numbers without the control block.
#[test]
fn idle_event_loop_matches_per_replica_run_to_completion() {
    let model = ModelConfig::switch_base(64);
    let plain = SimOptions::new(OffloadPolicy::Pregated);
    let cached = plain
        .clone()
        .with_routing(RoutingKind::ZipfDomains { s: 1.5, domains: 4 })
        .with_cache(CacheConfig::new(0.15, Replacement::Lru));
    let dispatchers: [fn() -> Box<dyn DispatchPolicy>; 3] = [
        || Box::new(RoundRobin::new()),
        || Box::new(JoinShortestQueue::new()),
        || Box::new(CacheAffinity::new(8)),
    ];
    for (label, opts) in [("no cache", &plain), ("LRU 15% + ZipfDomains", &cached)] {
        let mut stamped = poisson(20, 150.0, 13);
        stamp_route_seeds(&mut stamped, opts.seed);
        for (replicas, max_batch) in [(2, 1), (2, 4), (4, 4)] {
            let fleet = FleetConfig::new(replicas, BatchConfig::new(max_batch));
            for dispatcher in dispatchers {
                let case =
                    format!("{label}, {replicas}x batch {max_batch}, {}", dispatcher().name());
                let live = ControlledFleet::new(model.clone(), opts.clone(), fleet)
                    .serve(stamped.clone(), &mut *dispatcher(), &FaultPlan::new(), &mut NoControl)
                    .unwrap();
                per_replica_oracle(&case, &model, opts, fleet, &stamped, &live);
                let ctl = live.control.as_ref().expect("controlled runs report a control block");
                assert_eq!((ctl.faults_injected, ctl.redispatched, ctl.scale_ups), (0, 0, 0));

                let fixed = FleetSim::new(model.clone(), opts.clone(), fleet)
                    .serve(stamped.clone(), &mut *dispatcher())
                    .unwrap();
                assert_eq!(fixed.control, None, "{case}: a plain fleet carries no control block");
                assert_eq!(fixed.assignment, live.assignment, "{case}");
                per_replica_oracle(&case, &model, opts, fleet, &stamped, &fixed);
            }
        }
    }
}

/// Claim 3: when demand-fetch-per-token drifts above the detector's
/// threshold, switching every live replica from on-demand fetching to the
/// pre-gated policy strictly cuts fleet-wide demand-fetch bytes.
#[test]
fn drift_triggered_policy_switch_cuts_demand_fetch_bytes() {
    let arrivals = poisson(24, 150.0, 19);
    let ctl = ControlOptions { window_ns: 20_000_000, warmup_ns: 0 };

    let unswitched = controlled(2, OffloadPolicy::OnDemand)
        .with_control(ctl)
        .serve(arrivals.clone(), &mut RoundRobin::new(), &FaultPlan::new(), &mut NoControl)
        .unwrap();

    let mut switcher = DriftSwitcher::new(PolicySpec::from(OffloadPolicy::Pregated), 1e-9, 1);
    let switched = controlled(2, OffloadPolicy::OnDemand)
        .with_control(ctl)
        .serve(arrivals, &mut RoundRobin::new(), &FaultPlan::new(), &mut switcher)
        .unwrap();

    assert!(switcher.fired(), "on-demand traffic must trip the drift detector");
    assert_eq!(switched.control.as_ref().unwrap().policy_switches, 2, "both replicas swap");
    assert_eq!(switched.policy, "Pre-gated MoE", "the fleet finishes on the new policy");
    assert_eq!(switched.total_tokens, unswitched.total_tokens, "same request population");
    assert!(
        switched.demand_fetch_bytes < unswitched.demand_fetch_bytes,
        "switching to pre-gated mid-run must cut demand-fetch bytes ({} vs {})",
        switched.demand_fetch_bytes,
        unswitched.demand_fetch_bytes
    );
}

/// Claim 4: the queue autoscaler absorbs a flash crowd — it grows the
/// fleet when the backlog builds, serves everything, and elastic billing
/// charges less GPU-time than a statically peak-sized fleet would.
#[test]
fn autoscaler_absorbs_a_flash_crowd_cheaper_than_peak_sizing() {
    let arrivals: Vec<ArrivedRequest> = ArrivalStream::new(
        ArrivalProcess::FlashCrowd {
            base_per_sec: 20.0,
            flash_per_sec: 400.0,
            flash_start_s: 0.3,
            flash_len_s: 0.4,
        },
        req(6),
        1,
        29,
    )
    .take(64)
    .collect();
    let ctl = ControlOptions { window_ns: 50_000_000, warmup_ns: 50_000_000 };
    let mut scaler = QueueAutoScaler::new(1, 6, 4);
    let stats = controlled(1, OffloadPolicy::Pregated)
        .with_control(ctl)
        .serve(arrivals, &mut JoinShortestQueue::new(), &FaultPlan::new(), &mut scaler)
        .unwrap();
    assert_eq!(stats.request_latencies.len(), 64, "the burst is fully served");
    let c = stats.control.as_ref().unwrap();
    assert!(c.scale_ups > 0, "the flash crowd must trigger a scale-up");
    assert!(c.peak_replicas > 1);
    assert!(
        stats.gpu_time.as_nanos() < stats.makespan.as_nanos() * c.peak_replicas as u64,
        "elastic billing must undercut a statically peak-sized fleet"
    );
}

/// Stall and link-degradation faults slow the run without losing work —
/// the two non-fatal fault kinds the plan can inject.
#[test]
fn nonfatal_faults_slow_the_fleet_without_losing_work() {
    let arrivals = poisson(16, 200.0, 37);
    let t0 = arrivals[0].arrival_ns;
    let clean = controlled(2, OffloadPolicy::Pregated)
        .serve(arrivals.clone(), &mut RoundRobin::new(), &FaultPlan::new(), &mut NoControl)
        .unwrap();
    let plan = FaultPlan::new().stall_at(t0 + 1, 0, 40_000_000).degrade_link_at(
        t0 + 1,
        1,
        3.0,
        500_000_000,
    );
    let faulty = controlled(2, OffloadPolicy::Pregated)
        .serve(arrivals, &mut RoundRobin::new(), &plan, &mut NoControl)
        .unwrap();
    assert_eq!(faulty.total_tokens, clean.total_tokens);
    assert_eq!(faulty.request_latencies.len(), 16);
    assert!(faulty.makespan > clean.makespan, "injected slowness must be visible");
}

/// FNV-1a over 64-bit words: a stable fingerprint of what a controller saw.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Wraps the queue autoscaler and folds every window it is handed into a
/// digest; once, it also switches the policy of one replica by global index.
struct Recording {
    inner: QueueAutoScaler,
    digest: Digest,
    windows: usize,
}

impl FleetController for Recording {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn observe(&mut self, w: &ControlWindow<'_>) -> Vec<ControlAction> {
        self.windows += 1;
        let d = &mut self.digest;
        for x in [w.now_ns, w.window_ns, w.arrivals_delta as u64, w.completions_delta as u64] {
            d.word(x);
        }
        d.word(w.backlog as u64);
        d.word(w.replicas.len() as u64);
        for r in w.replicas {
            d.word(r.alive as u64 | (r.warming as u64) << 1 | (r.draining as u64) << 2);
            for x in [r.queued as u64, r.in_flight as u64, r.tokens_delta as u64] {
                d.word(x);
            }
            d.word(r.demand_bytes_delta);
            d.word(r.fetch_bytes_delta);
        }
        let mut actions = self.inner.observe(w);
        if self.windows == 12 {
            let last = w.replicas.len() - 1;
            actions.push(ControlAction::SwitchPolicy {
                replica: Some(last),
                policy: PolicySpec::from(OffloadPolicy::OnDemand),
            });
        }
        actions
    }
}

/// Claim 5: controllers see exactly the windows they always saw. An
/// autoscaled run with kills (one aimed at a scaled-up replica), stalls,
/// faults aimed at a replica that already drained away, and a per-replica
/// policy switch is digested window by window — finished replicas
/// included — together with the per-replica billing rows and the
/// assignment, which index replicas globally.
#[test]
fn control_windows_match_the_recorded_observation_golden() {
    let opts = SimOptions::new(OffloadPolicy::Pregated)
        .with_cache(CacheConfig::new(0.15, Replacement::Lru))
        .with_routing(RoutingKind::ZipfDomains { s: 1.5, domains: 4 })
        .with_seed(5);
    let arrivals: Vec<ArrivedRequest> = ArrivalStream::new(
        ArrivalProcess::Diurnal { trough_per_sec: 20.0, peak_per_sec: 260.0, period_s: 1.0 },
        req(8),
        0,
        3,
    )
    .take(600)
    .collect();
    let t = |i: usize| arrivals[i].arrival_ns;
    let plan = FaultPlan::new()
        .kill_at(t(80), 1)
        .stall_at(t(150), 0, 60_000_000)
        .degrade_link_at(t(200), 2, 3.0, 400_000_000)
        .kill_at(t(260), 3)
        .kill_at(t(420), 2)
        .stall_at(t(500), 4, 30_000_000);
    let mut rec = Recording {
        inner: QueueAutoScaler::new(2, 6, 4),
        digest: Digest(0xcbf2_9ce4_8422_2325),
        windows: 0,
    };
    let stats = ControlledFleet::new(
        ModelConfig::switch_base(64),
        opts,
        FleetConfig::new(3, BatchConfig::new(4)),
    )
    .with_control(ControlOptions { window_ns: 40_000_000, warmup_ns: 60_000_000 })
    .serve(arrivals, &mut CacheAffinity::new(8), &plan, &mut rec)
    .unwrap();
    let c = stats.control.as_ref().unwrap();
    assert_eq!(stats.request_latencies.len(), 600);
    for r in &stats.replicas {
        rec.digest.word(r.total_tokens as u64);
        rec.digest.word(r.request_latencies.len() as u64);
    }
    for &a in &stats.assignment {
        rec.digest.word(a as u64);
    }
    rec.digest.word(stats.gpu_time.as_nanos());
    // The run exercises what the golden pins: scale-ups and drains, kills
    // with redispatch, and two faults skipped because replica 2 drained
    // away in the first window.
    assert_eq!((c.scale_ups, c.scale_downs, c.faults_injected), (6, 4, 4));
    assert!(c.redispatched > 0 && c.policy_switches == 1);
    assert_eq!((rec.windows, stats.replicas.len()), (303, 9));
    assert_eq!(
        rec.digest.0, 0x9da9_11dd_d233_87e2,
        "controllers must see the windows they always saw"
    );
}
