//! Equivalence gate for the policy-trait redesign.
//!
//! The `OffloadPolicy` enum used to be matched deep inside two hand-written
//! decode loops; it is now four `ExpertScheduler` trait impls running
//! through one shared decode core. This test pins the refactor: every
//! built-in scheduler must reproduce the **legacy enum path's `RunReport`
//! bit-exactly** — per-block latencies (hashed), total time, TTFT, measured
//! and predicted peak HBM, GPU/PCIe busy time, and migrated bytes — for all
//! 4 policies × {DDR, SSD} × {f32, int8}, plus a cached Zipf row per policy
//! (hit/miss/eviction counters included), and the cached rows again under
//! LFU and LIFO replacement.
//!
//! The constants below were captured by running the pre-refactor engine
//! (commit `5cb1dc9`) on `Switch-Base-32`, request 32→8, default seed. If
//! this test fails, the shared core's event wiring has drifted from the
//! paper's cost model — fix the core, do not re-capture, unless the change
//! to the cost model is intentional and documented.
//!
//! The last test holds compiled-plan replay to the interpreter instead of
//! to constants: default options against `without_plan_cache()`, bit for
//! bit, over every paper policy, precision and KV layout.

use pgmoe_model::{ExpertPrecision, GatingMode, ModelConfig};
use pgmoe_runtime::{
    serve_batched, BatchConfig, CacheConfig, InferenceSim, OffloadPolicy, PagedKvConfig,
    PlacementPlan, Replacement, RunReport, ServeStats, SimOptions,
};
use pgmoe_workload::{
    mixed_context_trace, ArrivalProcess, ArrivalStream, ArrivedRequest, DecodeRequest, RoutingKind,
};

/// FNV-1a over the little-endian nanos of every block latency.
fn latency_hash(report: &RunReport) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for d in &report.block_latencies {
        for b in d.as_nanos().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[derive(Debug, Clone, Copy)]
enum Tier {
    Ddr,
    Ssd,
}

#[derive(Debug)]
struct Golden {
    lat_hash: u64,
    total_ns: u64,
    ttft_ns: u64,
    peak: u64,
    predicted: u64,
    gpu_busy_ns: u64,
    pcie_busy_ns: u64,
    fetch_bytes: u64,
    /// `(hits, misses, evictions)` for the cached Zipf rows.
    cache: Option<(u64, u64, u64)>,
}

fn request() -> DecodeRequest {
    DecodeRequest { input_tokens: 32, output_tokens: 8, batch_size: 1 }
}

fn check(policy: OffloadPolicy, tier: Tier, precision: ExpertPrecision, golden: Golden) {
    check_with(policy, tier, precision, Replacement::Lru, golden);
}

/// [`check`] with the cached rows' replacement policy spelled out.
fn check_with(
    policy: OffloadPolicy,
    tier: Tier,
    precision: ExpertPrecision,
    replacement: Replacement,
    golden: Golden,
) {
    let mut opts = SimOptions::new(policy);
    if matches!(tier, Tier::Ssd) {
        opts = opts.with_ssd_offload();
    }
    if precision != ExpertPrecision::F32 {
        opts = opts.with_expert_precision(precision);
    }
    if golden.cache.is_some() {
        opts = opts
            .with_routing(RoutingKind::Zipf { s: 1.2 })
            .with_cache(CacheConfig::new(0.2, replacement));
    }
    let r = InferenceSim::new(ModelConfig::switch_base(32), opts).run(request(), 1).expect("run");
    let tag = format!("{policy} / {tier:?} / {precision} / {replacement:?}");
    assert_eq!(latency_hash(&r), golden.lat_hash, "{tag}: block latencies diverged");
    assert_eq!(r.total_time.as_nanos(), golden.total_ns, "{tag}: total time");
    assert_eq!(r.time_to_first_token.as_nanos(), golden.ttft_ns, "{tag}: TTFT");
    assert_eq!(r.peak_hbm_bytes, golden.peak, "{tag}: measured peak");
    assert_eq!(r.predicted_peak_bytes, golden.predicted, "{tag}: Eq.1 prediction");
    assert_eq!(r.gpu_busy.as_nanos(), golden.gpu_busy_ns, "{tag}: GPU busy");
    assert_eq!(r.pcie_busy.as_nanos(), golden.pcie_busy_ns, "{tag}: PCIe busy");
    assert_eq!(r.expert_fetch_bytes, golden.fetch_bytes, "{tag}: migrated bytes");
    assert_eq!(r.policy, policy.paper_name(), "{tag}: policy name threading");
    if let Some((hits, misses, evictions)) = golden.cache {
        let cs = r.cache_stats.expect("cache stats");
        assert_eq!((cs.hits, cs.misses, cs.evictions), (hits, misses, evictions), "{tag}: cache");
    }
}

#[test]
fn trait_schedulers_reproduce_legacy_runreports_bit_exactly() {
    let g = check;
    // 4 policies × {DDR, SSD} × {f32, int8}, captured from the legacy path.
    g(
        OffloadPolicy::GpuOnly,
        Tier::Ddr,
        ExpertPrecision::F32,
        Golden {
            lat_hash: 0x9136c725be126805,
            total_ns: 112414992,
            ttft_ns: 59836704,
            peak: 7921047552,
            predicted: 7921047552,
            gpu_busy_ns: 112414992,
            pcie_busy_ns: 0,
            fetch_bytes: 0,
            cache: None,
        },
    );
    g(
        OffloadPolicy::GpuOnly,
        Tier::Ddr,
        ExpertPrecision::Int8,
        Golden {
            lat_hash: 0x71f92e05725c6795,
            total_ns: 63901968,
            ttft_ns: 23451936,
            peak: 2598475776,
            predicted: 2598475776,
            gpu_busy_ns: 63901968,
            pcie_busy_ns: 0,
            fetch_bytes: 0,
            cache: None,
        },
    );
    g(
        OffloadPolicy::GpuOnly,
        Tier::Ssd,
        ExpertPrecision::F32,
        Golden {
            lat_hash: 0x9136c725be126805,
            total_ns: 112414992,
            ttft_ns: 59836704,
            peak: 7921047552,
            predicted: 7921047552,
            gpu_busy_ns: 112414992,
            pcie_busy_ns: 0,
            fetch_bytes: 0,
            cache: None,
        },
    );
    g(
        OffloadPolicy::GpuOnly,
        Tier::Ssd,
        ExpertPrecision::Int8,
        Golden {
            lat_hash: 0x71f92e05725c6795,
            total_ns: 63901968,
            ttft_ns: 23451936,
            peak: 2598475776,
            predicted: 2598475776,
            gpu_busy_ns: 63901968,
            pcie_busy_ns: 0,
            fetch_bytes: 0,
            cache: None,
        },
    );
    g(
        OffloadPolicy::Pregated,
        Tier::Ddr,
        ExpertPrecision::F32,
        Golden {
            lat_hash: 0xbc3fd438c36023bd,
            total_ns: 145582744,
            ttft_ns: 88805688,
            peak: 709859328,
            predicted: 709859328,
            gpu_busy_ns: 112414992,
            pcie_busy_ns: 100770432,
            fetch_bytes: 3170893824,
            cache: None,
        },
    );
    g(
        OffloadPolicy::Pregated,
        Tier::Ddr,
        ExpertPrecision::Int8,
        Golden {
            lat_hash: 0xb64ed6bdf465f6d5,
            total_ns: 70503064,
            ttft_ns: 28886328,
            peak: 682137600,
            predicted: 682137600,
            gpu_busy_ns: 63901968,
            pcie_busy_ns: 28000896,
            fetch_bytes: 842268672,
            cache: None,
        },
    );
    g(
        OffloadPolicy::Pregated,
        Tier::Ssd,
        ExpertPrecision::F32,
        Golden {
            lat_hash: 0x3c245c2fd2e5d9b9,
            total_ns: 1087460440,
            ttft_ns: 811516240,
            peak: 709859328,
            predicted: 709859328,
            gpu_busy_ns: 112414992,
            pcie_busy_ns: 1068724608,
            fetch_bytes: 3170893824,
            cache: None,
        },
    );
    g(
        OffloadPolicy::Pregated,
        Tier::Ssd,
        ExpertPrecision::Int8,
        Golden {
            lat_hash: 0xd08011584a10c581,
            total_ns: 303166552,
            ttft_ns: 223295824,
            peak: 682137600,
            predicted: 682137600,
            gpu_busy_ns: 63901968,
            pcie_busy_ns: 292516224,
            fetch_bytes: 842268672,
            cache: None,
        },
    );
    g(
        OffloadPolicy::OnDemand,
        Tier::Ddr,
        ExpertPrecision::F32,
        Golden {
            lat_hash: 0xed863c5fd680ec25,
            total_ns: 213185424,
            ttft_ns: 135414528,
            peak: 690984960,
            predicted: 690984960,
            gpu_busy_ns: 112414992,
            pcie_busy_ns: 100770432,
            fetch_bytes: 3170893824,
            cache: None,
        },
    );
    g(
        OffloadPolicy::OnDemand,
        Tier::Ddr,
        ExpertPrecision::Int8,
        Golden {
            lat_hash: 0x65252784deed65f5,
            total_ns: 91902864,
            ttft_ns: 44452608,
            peak: 677124096,
            predicted: 677124096,
            gpu_busy_ns: 63901968,
            pcie_busy_ns: 28000896,
            fetch_bytes: 842268672,
            cache: None,
        },
    );
    g(
        OffloadPolicy::OnDemand,
        Tier::Ssd,
        ExpertPrecision::F32,
        Golden {
            lat_hash: 0x5760d6925239eebd,
            total_ns: 1181139600,
            ttft_ns: 861380160,
            peak: 690984960,
            predicted: 690984960,
            gpu_busy_ns: 112414992,
            pcie_busy_ns: 1068724608,
            fetch_bytes: 3170893824,
            cache: None,
        },
    );
    g(
        OffloadPolicy::OnDemand,
        Tier::Ssd,
        ExpertPrecision::Int8,
        Golden {
            lat_hash: 0xf81a728bfec752bd,
            total_ns: 356418192,
            ttft_ns: 242839104,
            peak: 677124096,
            predicted: 677124096,
            gpu_busy_ns: 63901968,
            pcie_busy_ns: 292516224,
            fetch_bytes: 842268672,
            cache: None,
        },
    );
    g(
        OffloadPolicy::PrefetchAll,
        Tier::Ddr,
        ExpertPrecision::F32,
        Golden {
            lat_hash: 0x1b00789ed40dc544,
            total_ns: 1036901088,
            ttft_ns: 230737632,
            peak: 1880070144,
            predicted: 1880070144,
            gpu_busy_ns: 112414992,
            pcie_busy_ns: 1036495872,
            fetch_bytes: 32614907904,
            cache: None,
        },
    );
    g(
        OffloadPolicy::PrefetchAll,
        Tier::Ddr,
        ExpertPrecision::Int8,
        Golden {
            lat_hash: 0x118b25cac89d7e83,
            total_ns: 288125664,
            ttft_ns: 64118496,
            peak: 992974848,
            predicted: 992974848,
            gpu_busy_ns: 63901968,
            pcie_busy_ns: 288009216,
            fetch_bytes: 8663334912,
            cache: None,
        },
    );
    g(
        OffloadPolicy::PrefetchAll,
        Tier::Ssd,
        ExpertPrecision::F32,
        Golden {
            lat_hash: 0xec8ad03e825d997a,
            total_ns: 10993001184,
            ttft_ns: 2443204320,
            peak: 1880070144,
            predicted: 1880070144,
            gpu_busy_ns: 112414992,
            pcie_busy_ns: 10992595968,
            fetch_bytes: 32614907904,
            cache: None,
        },
    );
    g(
        OffloadPolicy::PrefetchAll,
        Tier::Ssd,
        ExpertPrecision::Int8,
        Golden {
            lat_hash: 0xb2525adbe6f5330f,
            total_ns: 3008854752,
            ttft_ns: 668724960,
            peak: 992974848,
            predicted: 992974848,
            gpu_busy_ns: 63901968,
            pcie_busy_ns: 3008738304,
            fetch_bytes: 8663334912,
            cache: None,
        },
    );
}

/// Golden metrics for the continuous-batching path (legacy
/// `BatchScheduler` loops, captured at commit `5cb1dc9`): one FNV hash
/// over every request's latency + TTFT + queueing delay, plus token,
/// peak-HBM, and migrated-byte totals.
#[derive(Debug)]
struct BatchGolden {
    qos_hash: u64,
    total_tokens: usize,
    peak: u64,
    fetch_bytes: u64,
}

fn check_batched(policy: OffloadPolicy, int8: bool, ssd: bool, golden: BatchGolden) {
    let req = DecodeRequest { input_tokens: 16, output_tokens: 4, batch_size: 1 };
    let arrivals: Vec<ArrivedRequest> =
        ArrivalStream::new(ArrivalProcess::Poisson { rate_per_sec: 50.0 }, req, 1, 3)
            .take(10)
            .collect();
    let mut opts = SimOptions::new(policy);
    if int8 {
        opts = opts.with_expert_precision(ExpertPrecision::Int8);
    }
    if ssd {
        opts = opts.with_ssd_offload();
    }
    let s = serve_batched(ModelConfig::switch_base(32), opts, BatchConfig::new(4), arrivals)
        .expect("serve");
    let mut h: u64 = 0xcbf29ce484222325;
    for d in s.request_latencies.iter().chain(&s.ttfts).chain(&s.queueing_delays) {
        for b in d.as_nanos().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    let tag = format!("batched {policy} int8={int8} ssd={ssd}");
    assert_eq!(h, golden.qos_hash, "{tag}: per-request QoS diverged");
    assert_eq!(s.total_tokens, golden.total_tokens, "{tag}: tokens");
    assert_eq!(s.peak_hbm_bytes, golden.peak, "{tag}: peak HBM");
    assert_eq!(s.expert_fetch_bytes, golden.fetch_bytes, "{tag}: migrated bytes");
    assert_eq!(s.policy, policy.paper_name(), "{tag}: policy name threading");
}

#[test]
fn trait_schedulers_reproduce_legacy_batched_serving_bit_exactly() {
    // The continuous-batching scheduler's legacy per-policy decode/prefill
    // loops were deleted too; the shared core must reproduce their
    // ServeStats exactly (at the default gating level, where the paths are
    // defined to coincide).
    let b = check_batched;
    b(
        OffloadPolicy::GpuOnly,
        false,
        false,
        BatchGolden {
            qos_hash: 0xf2b75cbbd6edf7e3,
            total_tokens: 42,
            peak: 7928272896,
            fetch_bytes: 0,
        },
    );
    b(
        OffloadPolicy::Pregated,
        false,
        false,
        BatchGolden {
            qos_hash: 0xed335ccc070cbac,
            total_tokens: 42,
            peak: 1151023104,
            fetch_bytes: 16382951424,
        },
    );
    b(
        OffloadPolicy::OnDemand,
        false,
        false,
        BatchGolden {
            qos_hash: 0x6a7a61ffa7398595,
            total_tokens: 42,
            peak: 1151023104,
            fetch_bytes: 16382951424,
        },
    );
    b(
        OffloadPolicy::PrefetchAll,
        false,
        false,
        BatchGolden {
            qos_hash: 0xb21d591234f25bb9,
            total_tokens: 42,
            peak: 1887295488,
            fetch_bytes: 68853694464,
        },
    );
    b(
        OffloadPolicy::Pregated,
        true,
        false,
        BatchGolden {
            qos_hash: 0xfdab66de98df661,
            total_tokens: 42,
            peak: 804501504,
            fetch_bytes: 4527194112,
        },
    );
    b(
        OffloadPolicy::Pregated,
        false,
        true,
        BatchGolden {
            qos_hash: 0xfcea6b1e90edecf0,
            total_tokens: 42,
            peak: 1151023104,
            fetch_bytes: 16382951424,
        },
    );
}

#[test]
fn trait_schedulers_reproduce_legacy_cache_interactions_bit_exactly() {
    let g = check;
    // Zipf(1.2) routing + 20 % LRU cache: the cache-touching order of the
    // shared core must match the legacy loops exactly, or hit/miss/eviction
    // counters (and therefore latencies) drift.
    g(
        OffloadPolicy::GpuOnly,
        Tier::Ddr,
        ExpertPrecision::F32,
        Golden {
            lat_hash: 0x9136c725be126805,
            total_ns: 112414992,
            ttft_ns: 59836704,
            peak: 9374373888,
            predicted: 9374373888,
            gpu_busy_ns: 112414992,
            pcie_busy_ns: 0,
            fetch_bytes: 0,
            cache: Some((0, 0, 0)),
        },
    );
    g(
        OffloadPolicy::Pregated,
        Tier::Ddr,
        ExpertPrecision::F32,
        Golden {
            lat_hash: 0xbb69857aa884b239,
            total_ns: 144383096,
            ttft_ns: 88805688,
            peak: 2163185664,
            predicted: 2163185664,
            gpu_busy_ns: 112414992,
            pcie_busy_ns: 91173248,
            fetch_bytes: 2868903936,
            cache: Some((16, 152, 75)),
        },
    );
    g(
        OffloadPolicy::OnDemand,
        Tier::Ddr,
        ExpertPrecision::F32,
        Golden {
            lat_hash: 0x8a0281f0d627f765,
            total_ns: 203588240,
            ttft_ns: 135414528,
            peak: 2144311296,
            predicted: 2144311296,
            gpu_busy_ns: 112414992,
            pcie_busy_ns: 91173248,
            fetch_bytes: 2868903936,
            cache: Some((16, 152, 75)),
        },
    );
    g(
        OffloadPolicy::PrefetchAll,
        Tier::Ddr,
        ExpertPrecision::F32,
        Golden {
            lat_hash: 0x1b00789ed40dc544,
            total_ns: 1036901088,
            ttft_ns: 230737632,
            peak: 3333396480,
            predicted: 3333396480,
            gpu_busy_ns: 112414992,
            pcie_busy_ns: 1036495872,
            fetch_bytes: 32614907904,
            cache: Some((0, 1728, 1651)),
        },
    );
    // The same rows under LFU and LIFO (captured on the linear-scan cache):
    // the eviction index must pick the scan's victim, ties included.
    let c = check_with;
    c(
        OffloadPolicy::Pregated,
        Tier::Ddr,
        ExpertPrecision::F32,
        Replacement::Lfu,
        Golden {
            lat_hash: 0xbb69857aa884b239,
            total_ns: 144383096,
            ttft_ns: 88805688,
            peak: 2163185664,
            predicted: 2163185664,
            gpu_busy_ns: 112414992,
            pcie_busy_ns: 91173248,
            fetch_bytes: 2868903936,
            cache: Some((16, 152, 75)),
        },
    );
    c(
        OffloadPolicy::OnDemand,
        Tier::Ddr,
        ExpertPrecision::F32,
        Replacement::Lfu,
        Golden {
            lat_hash: 0x8a0281f0d627f765,
            total_ns: 203588240,
            ttft_ns: 135414528,
            peak: 2144311296,
            predicted: 2144311296,
            gpu_busy_ns: 112414992,
            pcie_busy_ns: 91173248,
            fetch_bytes: 2868903936,
            cache: Some((16, 152, 75)),
        },
    );
    c(
        OffloadPolicy::PrefetchAll,
        Tier::Ddr,
        ExpertPrecision::F32,
        Replacement::Lfu,
        Golden {
            lat_hash: 0x80946d0c7e2d1246,
            total_ns: 720299984,
            ttft_ns: 230737632,
            peak: 3333396480,
            predicted: 3333396480,
            gpu_busy_ns: 112414992,
            pcie_busy_ns: 717389504,
            fetch_bytes: 22573744128,
            cache: Some((532, 1196, 1119)),
        },
    );
    c(
        OffloadPolicy::Pregated,
        Tier::Ddr,
        ExpertPrecision::F32,
        Replacement::Lifo,
        Golden {
            lat_hash: 0xbc3fd438c36023bd,
            total_ns: 145582744,
            ttft_ns: 88805688,
            peak: 2163185664,
            predicted: 2163185664,
            gpu_busy_ns: 112414992,
            pcie_busy_ns: 100770432,
            fetch_bytes: 3170893824,
            cache: Some((0, 168, 91)),
        },
    );
    c(
        OffloadPolicy::OnDemand,
        Tier::Ddr,
        ExpertPrecision::F32,
        Replacement::Lifo,
        Golden {
            lat_hash: 0xed863c5fd680ec25,
            total_ns: 213185424,
            ttft_ns: 135414528,
            peak: 2144311296,
            predicted: 2144311296,
            gpu_busy_ns: 112414992,
            pcie_busy_ns: 100770432,
            fetch_bytes: 3170893824,
            cache: Some((0, 168, 91)),
        },
    );
    c(
        OffloadPolicy::PrefetchAll,
        Tier::Ddr,
        ExpertPrecision::F32,
        Replacement::Lifo,
        Golden {
            lat_hash: 0x1b00789ed40dc544,
            total_ns: 1036901088,
            ttft_ns: 230737632,
            peak: 3333396480,
            predicted: 3333396480,
            gpu_busy_ns: 112414992,
            pcie_busy_ns: 1036495872,
            fetch_bytes: 32614907904,
            cache: Some((0, 1728, 1651)),
        },
    );
}

/// Every field of a serving run but the plan-cache counters, rendered
/// through `Debug` (floats print round-trip exact, so equal renderings are
/// equal bits).
fn served(stats: &ServeStats) -> String {
    format!("{:?}", ServeStats { plan_cache_hits: 0, plan_cache_misses: 0, ..stats.clone() })
}

/// Same for a batch-1 run.
fn reported(report: &RunReport) -> String {
    format!("{:?}", RunReport { plan_cache_hits: 0, plan_cache_misses: 0, ..report.clone() })
}

#[test]
fn compiled_plans_reproduce_the_interpreter_bit_exactly() {
    // Replay with count-parametric plans against pure interpretation
    // (`without_plan_cache`) on every paper policy × {unpaged, paged under
    // the paged-KV gate's tight budget, paged on roomy HBM} × {f32, int8,
    // q4} on the mixed short/long trace, plus the batch-1 engine.
    let cfg = ModelConfig::switch_base(8);
    let arrivals = mixed_context_trace(160, 512, 384, 2, 50_000);
    let pregated_2 = GatingMode::Pregated { level: 2 };
    let policies = [
        ("GPU-only", SimOptions::new(OffloadPolicy::GpuOnly)),
        ("OnDemand", SimOptions::new(OffloadPolicy::OnDemand)),
        ("PrefetchAll", SimOptions::new(OffloadPolicy::PrefetchAll)),
        ("Pre-gated L1", SimOptions::new(OffloadPolicy::Pregated)),
        ("Pre-gated L2", SimOptions::new(OffloadPolicy::Pregated).with_gating(pregated_2)),
    ];
    for (name, policy) in policies {
        for precision in [ExpertPrecision::F32, ExpertPrecision::Int8, ExpertPrecision::Q4] {
            let on = match precision {
                ExpertPrecision::F32 => policy.clone(),
                p => policy.clone().with_expert_precision(p),
            };
            let off = on.clone().without_plan_cache();
            let tag = format!("{name} / {precision}");

            let single = |o: &SimOptions| {
                InferenceSim::new(cfg.clone(), o.clone()).run(request(), 2).expect("batch-1 run")
            };
            let (a, b) = (single(&on), single(&off));
            assert_eq!(reported(&a), reported(&b), "{tag} / batch-1");
            assert!(a.plan_cache_hits > 0, "{tag} / batch-1 replays: {a:?}");

            let base = PlacementPlan::new(&cfg, &on, 0, 1);
            let long = PlacementPlan::new(&cfg, &on, 512 + 24, 1).activation_bytes();
            let tight = base.static_non_activation_bytes() + 2 * long + 2 * 8 * base.expert_bytes();
            let paged = PagedKvConfig::new(16).with_prefill_chunk(256);
            let rows = [
                ("unpaged", BatchConfig::new(16).with_hbm_budget(tight)),
                ("paged tight", BatchConfig::new(16).with_hbm_budget(tight).with_paged_kv(paged)),
                ("paged roomy", BatchConfig::new(16).with_paged_kv(paged)),
            ];
            for (row, batch) in rows {
                let serve = |o: &SimOptions| {
                    serve_batched(cfg.clone(), o.clone(), batch, arrivals.clone()).expect("serves")
                };
                let (a, b) = (serve(&on), serve(&off));
                assert_eq!(served(&a), served(&b), "{tag} / {row}");
                assert_eq!(a.request_latencies.len(), arrivals.len(), "{tag} / {row}");
                let share =
                    a.plan_cache_hits as f64 / (a.plan_cache_hits + a.plan_cache_misses) as f64;
                if row == "paged tight" {
                    assert!(share >= 0.9, "{tag} / {row}: hit share {share:.3}");
                }
            }
        }
    }
}
