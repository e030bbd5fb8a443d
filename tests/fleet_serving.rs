//! Fleet-serving end-to-end gate.
//!
//! The acceptance harness for the fleet layer, asserting the paper's TCO
//! claim (Sections III-A, VII) at serving scale:
//!
//! 1. **Iso-GPU shootout** — N single-GPU Pre-gated replicas with int8
//!    expert offload beat ONE N-GPU expert-parallel cluster on
//!    tokens/s-per-GPU under batch-1-heavy Poisson load, by at least 1.3x.
//! 2. **Cache-affinity dispatch** — on a domain-skewed Zipf population with
//!    per-replica expert caches, affinity routing strictly reduces
//!    fleet-wide demand-fetch bytes versus round-robin.
//!
//! Both claims are *asserted*, not just printed; a regression in the fleet
//! layer, the cluster backend, or the dispatch policies fails this test. A
//! dispatcher written outside the runtime crate serves a stream end to end,
//! so a break in the `DispatchPolicy` extension seam fails here too.

use pregated_moe_repro::pgmoe::prelude::*;

const GPUS: usize = 4;

fn poisson_arrivals(n: usize, rate: f64, request: DecodeRequest, seed: u64) -> Vec<ArrivedRequest> {
    ArrivalStream::new(ArrivalProcess::Poisson { rate_per_sec: rate }, request, 2, seed)
        .take(n)
        .collect()
}

/// The paper's economic argument at fleet scale: N cheap offload replicas
/// vs one N-GPU expert-parallel cluster, same model, same request stream,
/// same GPU count.
#[test]
fn pregated_replicas_beat_iso_gpu_expert_parallel_cluster_on_tco() {
    let cfg = ModelConfig::switch_base(64);
    // Batch-1-heavy load: every request is a single sequence; the Poisson
    // rate saturates both deployments so throughput reflects capacity.
    let request = DecodeRequest { input_tokens: 16, output_tokens: 16, batch_size: 1 };
    let arrivals = poisson_arrivals(32, 150.0, request, 7);

    let fleet = FleetSim::new(
        cfg.clone(),
        SimOptions::new(OffloadPolicy::Pregated).with_expert_precision(ExpertPrecision::Int8),
        FleetConfig::new(GPUS, BatchConfig::new(4)),
    );
    let replicas = fleet.serve(arrivals.clone(), &mut JoinShortestQueue::new()).unwrap();

    let cluster_cfg = ClusterConfig::a100_nvlink(GPUS);
    let cluster = serve_cluster(
        cfg,
        &cluster_cfg,
        SimOptions::new(OffloadPolicy::Pregated), // policy overridden by the cluster backend
        BatchConfig::new(4),
        arrivals,
    )
    .unwrap();

    // Both deployments served the full stream.
    assert_eq!(replicas.request_latencies.len(), 32);
    assert_eq!(cluster.request_latencies.len(), 32);
    assert_eq!(replicas.gpus, GPUS);
    assert_eq!(cluster.gpus, GPUS, "the cluster is charged for every GPU it occupies");
    assert_eq!(cluster.expert_fetch_bytes, 0, "cluster experts never cross PCIe");
    assert!(replicas.expert_fetch_bytes > 0, "offload replicas migrate experts");

    let ratio = replicas.tokens_per_sec_per_gpu() / cluster.tokens_per_sec_per_gpu();
    assert!(
        ratio >= 1.3,
        "N pre-gated int8 replicas must beat the iso-GPU expert-parallel cluster \
         on tokens/s-per-GPU by >= 1.3x, got {ratio:.2}x ({:.1} vs {:.1})",
        replicas.tokens_per_sec_per_gpu(),
        cluster.tokens_per_sec_per_gpu()
    );
    // The QoS side of the same story: a lockstep cluster funnels every
    // request through one pipeline, so its tail collapses too.
    assert!(
        replicas.p95() < cluster.p95(),
        "replica fleet p95 {} must undercut the cluster's {}",
        replicas.p95(),
        cluster.p95()
    );
}

/// The fleet claim must not depend on quantization alone: even at f32 the
/// replica fleet wins per GPU (int8 widens the gap).
#[test]
fn f32_replicas_still_beat_the_cluster_per_gpu() {
    let cfg = ModelConfig::switch_base(64);
    let request = DecodeRequest { input_tokens: 16, output_tokens: 16, batch_size: 1 };
    let arrivals = poisson_arrivals(32, 150.0, request, 7);
    let fleet = FleetSim::new(
        cfg.clone(),
        SimOptions::new(OffloadPolicy::Pregated),
        FleetConfig::new(GPUS, BatchConfig::new(4)),
    );
    let replicas = fleet.serve(arrivals.clone(), &mut JoinShortestQueue::new()).unwrap();
    let cluster = serve_cluster(
        cfg,
        &ClusterConfig::a100_nvlink(GPUS),
        SimOptions::new(OffloadPolicy::Pregated),
        BatchConfig::new(4),
        arrivals,
    )
    .unwrap();
    let ratio = replicas.tokens_per_sec_per_gpu() / cluster.tokens_per_sec_per_gpu();
    assert!(ratio > 1.0, "f32 replicas must still win per GPU, got {ratio:.2}x");
}

/// Cache-affinity dispatch on a domain-skewed Zipf population: steering
/// same-domain requests to the same replica keeps that replica's expert
/// cache warm, strictly reducing fleet-wide demand-fetch bytes (the
/// miss-stall metric) versus placement-blind round-robin.
#[test]
fn cache_affinity_dispatch_strictly_cuts_demand_fetch_bytes_vs_round_robin() {
    let cfg = ModelConfig::switch_base(64);
    let opts = SimOptions::new(OffloadPolicy::Pregated)
        .with_routing(RoutingKind::ZipfDomains { s: 1.5, domains: 4 })
        .with_cache(CacheConfig::new(0.15, Replacement::Lru));
    let sim = FleetSim::new(cfg, opts, FleetConfig::new(4, BatchConfig::new(4)));
    let decode_heavy = DecodeRequest { input_tokens: 4, output_tokens: 32, batch_size: 1 };
    let arrivals = poisson_arrivals(40, 80.0, decode_heavy, 11);

    let rr = sim.serve(arrivals.clone(), &mut RoundRobin::new()).unwrap();
    let aff = sim.serve(arrivals, &mut CacheAffinity::new(8)).unwrap();

    assert_eq!(rr.total_tokens, aff.total_tokens, "identical request population");
    assert!(
        aff.demand_fetch_bytes < rr.demand_fetch_bytes,
        "cache-affinity demand-fetch bytes {} must be strictly below round-robin's {}",
        aff.demand_fetch_bytes,
        rr.demand_fetch_bytes
    );
    assert!(
        aff.expert_fetch_bytes < rr.expert_fetch_bytes,
        "warm caches must also shrink total migrated bytes ({} vs {})",
        aff.expert_fetch_bytes,
        rr.expert_fetch_bytes
    );
}

/// The fleet layer's accounting identities hold for every built-in
/// dispatcher: per-request QoS ordering, conservation of requests/tokens,
/// utilization within [0, 1].
#[test]
fn fleet_accounting_identities_hold_for_every_dispatcher() {
    let cfg = ModelConfig::switch_base(8);
    let request = DecodeRequest { input_tokens: 8, output_tokens: 6, batch_size: 1 };
    let arrivals = poisson_arrivals(18, 90.0, request, 3);
    let sim = FleetSim::new(
        cfg,
        SimOptions::new(OffloadPolicy::Pregated),
        FleetConfig::new(3, BatchConfig::new(4)),
    );
    let mut dispatchers: Vec<Box<dyn DispatchPolicy>> = vec![
        Box::new(RoundRobin::new()),
        Box::new(JoinShortestQueue::new()),
        Box::new(CacheAffinity::new(2)),
    ];
    for d in dispatchers.iter_mut() {
        let name = d.name();
        let stats = sim.serve(arrivals.clone(), d.as_mut()).unwrap();
        assert_eq!(stats.request_latencies.len(), 18, "{name}");
        assert_eq!(
            stats.replicas.iter().map(|r| r.request_latencies.len()).sum::<usize>(),
            18,
            "{name}: every request served exactly once"
        );
        assert_eq!(
            stats.total_tokens,
            stats.replicas.iter().map(|r| r.total_tokens).sum::<usize>(),
            "{name}"
        );
        for i in 0..18 {
            assert!(stats.request_latencies[i] >= stats.ttfts[i], "{name} req {i}");
            assert!(stats.ttfts[i] >= stats.queueing_delays[i], "{name} req {i}");
        }
        assert!(stats.utilization.iter().all(|&u| (0.0..=1.0).contains(&u)), "{name}");
        assert!(stats.p50() <= stats.p95() && stats.p95() <= stats.p99(), "{name}");
        assert_eq!(stats.dispatch, name);
    }
}

/// A custom dispatcher, implemented entirely outside the runtime crate:
/// statically shard by the request's hottest probe expert. No queue
/// awareness — a strawman showing how little code a [`DispatchPolicy`]
/// needs.
struct HashByHotExpert;

impl DispatchPolicy for HashByHotExpert {
    fn name(&self) -> String {
        "hash-by-hot-expert".into()
    }

    fn choose(&mut self, replicas: &[ReplicaView<'_>], request: &RequestProfile<'_>) -> usize {
        request.probe.first().copied().unwrap_or(0) % replicas.len()
    }
}

/// The dispatch extension seam end to end: an out-of-crate policy places
/// a Poisson stream on an int8 replica fleet through `FleetSim`, and every
/// request is served once with its full token count.
#[test]
fn an_out_of_crate_dispatch_policy_serves_a_stream_end_to_end() {
    let request = DecodeRequest { input_tokens: 16, output_tokens: 16, batch_size: 1 };
    let arrivals = poisson_arrivals(32, 150.0, request, 7);
    let fleet = FleetSim::new(
        ModelConfig::switch_base(64),
        SimOptions::new(OffloadPolicy::Pregated).with_expert_precision(ExpertPrecision::Int8),
        FleetConfig::new(GPUS, BatchConfig::new(4)),
    );
    let expected_tokens: usize = arrivals.iter().map(|a| a.request.output_tokens).sum();
    let stats = fleet.serve(arrivals.clone(), &mut HashByHotExpert).unwrap();
    assert_eq!(stats.dispatch, "hash-by-hot-expert");
    assert_eq!(stats.request_latencies.len(), 32);
    assert_eq!(stats.total_tokens, expected_tokens, "every stream completed in full");
    assert_eq!(
        stats.replicas.iter().map(|r| r.request_latencies.len()).sum::<usize>(),
        32,
        "every request served exactly once"
    );
    // Static sharding spreads the stream, and the same stream lands the
    // same way again.
    assert!(stats.replicas.iter().filter(|r| !r.request_latencies.is_empty()).count() > 1);
    let again = fleet.serve(arrivals, &mut HashByHotExpert).unwrap();
    assert_eq!(again.assignment, stats.assignment);
}
