//! Paged-KV acceptance gate.
//!
//! Three claims, all asserted:
//!
//! 1. **Golden equivalence** — with a roomy HBM budget and unbounded
//!    prefill chunks, the paged path is *bitwise identical* to the classic
//!    unpaged path (every per-request latency/TTFT/queueing sample, token
//!    counts, traffic counters), across block sizes 1, 16 and a prime 17.
//!    Paging changes memory bookkeeping, never simulated time.
//! 2. **Capacity win** — under a tight HBM budget on a mixed short/long
//!    trace with tenant-shared system prompts, paging admits at least a 2x
//!    larger concurrent batch and serves strictly more tokens/sec than the
//!    worst-case-reservation unpaged path.
//! 3. **Prefix reuse** — shared-prefix deduplication measurably reduces
//!    peak KV bytes versus the same paged run with sharing disabled.

use pregated_moe_repro::pgmoe::prelude::*;
use pregated_moe_repro::pgmoe::runtime::{kv_bytes, PlacementPlan};

fn poisson(n: usize, rate: f64, seed: u64) -> Vec<ArrivedRequest> {
    let request = DecodeRequest { input_tokens: 48, output_tokens: 12, batch_size: 1 };
    ArrivalStream::new(ArrivalProcess::Poisson { rate_per_sec: rate }, request, 1, seed)
        .take(n)
        .collect()
}

fn serve(batch: BatchConfig, arrivals: &[ArrivedRequest]) -> ServeStats {
    let cfg = ModelConfig::switch_base(8);
    let opts = SimOptions::new(OffloadPolicy::Pregated);
    BatchScheduler::new(cfg, opts, batch).serve(arrivals.iter().copied()).expect("trace serves")
}

/// Claim 1: the paged path must not perturb simulated time at all when
/// memory is not the binding constraint.
#[test]
fn paged_matches_unpaged_bitwise_when_memory_is_roomy() {
    let arrivals = poisson(16, 400.0, 11);
    let unpaged = serve(BatchConfig::new(4), &arrivals);
    for block_tokens in [1usize, 16, 17] {
        let paged =
            serve(BatchConfig::new(4).with_paged_kv(PagedKvConfig::new(block_tokens)), &arrivals);
        assert_eq!(
            paged.request_latencies, unpaged.request_latencies,
            "latencies diverged at block size {block_tokens}"
        );
        assert_eq!(paged.ttfts, unpaged.ttfts, "ttfts diverged at block size {block_tokens}");
        assert_eq!(
            paged.queueing_delays, unpaged.queueing_delays,
            "queueing diverged at block size {block_tokens}"
        );
        assert_eq!(paged.total_tokens, unpaged.total_tokens);
        assert_eq!(paged.expert_fetch_bytes, unpaged.expert_fetch_bytes);
        assert_eq!(paged.demand_fetch_bytes, unpaged.demand_fetch_bytes);
        assert_eq!(paged.gpu_busy, unpaged.gpu_busy);
        assert_eq!(paged.peak_batch, unpaged.peak_batch);
        // Block granularity rounds each in-flight tail up to a block
        // boundary, so paged peak HBM may overshoot the unpaged exact
        // reservation by at most one block per concurrent request — never
        // more.
        let cfg = ModelConfig::switch_base(8);
        let block_slack = paged.peak_batch as u64
            * block_tokens as u64
            * kv_bytes(cfg.total_layers(), 1, cfg.d_model, 1);
        assert!(
            paged.peak_hbm_bytes <= unpaged.peak_hbm_bytes + block_slack,
            "paged peak {} exceeds unpaged peak {} by more than tail rounding {} (block size {block_tokens})",
            paged.peak_hbm_bytes,
            unpaged.peak_hbm_bytes,
            block_slack
        );
        let kv = paged.kv.expect("paged run reports kv stats");
        assert_eq!(kv.block_tokens, block_tokens);
        assert!(kv.peak_blocks > 0, "requests must have occupied blocks");
    }
    assert!(unpaged.kv.is_none(), "unpaged run must not fabricate kv stats");
}

/// A budget with room for the static weights plus roughly two worst-case
/// long requests — the regime where unpaged admission starves the batch.
fn tight_budget(cfg: &ModelConfig, opts: &SimOptions, long_ctx: usize) -> u64 {
    let base = PlacementPlan::new(cfg, opts, 0, 1);
    let long = PlacementPlan::new(cfg, opts, long_ctx, 1).activation_bytes();
    base.static_non_activation_bytes() + 2 * long + 2 * 8 * base.expert_bytes()
}

/// Claim 2: the capacity win the subsystem exists for.
#[test]
fn paged_doubles_admitted_batch_on_mixed_context_trace() {
    let cfg = ModelConfig::switch_base(8);
    let opts = SimOptions::new(OffloadPolicy::Pregated);
    // 512-token prompts, 384 of them a per-tenant shared system prefix;
    // arrivals 50us apart so admission capacity, not arrival spacing,
    // bounds the batch.
    let arrivals = mixed_context_trace(24, 512, 384, 2, 50_000);
    let budget = tight_budget(&cfg, &opts, 512 + 24);
    let unpaged = serve(BatchConfig::new(16).with_hbm_budget(budget), &arrivals);
    let paged = serve(
        BatchConfig::new(16)
            .with_hbm_budget(budget)
            .with_paged_kv(PagedKvConfig::new(16).with_prefill_chunk(256)),
        &arrivals,
    );
    assert_eq!(unpaged.request_latencies.len(), arrivals.len(), "unpaged must still complete");
    assert_eq!(paged.request_latencies.len(), arrivals.len(), "paged must still complete");
    assert!(
        paged.peak_batch >= 2 * unpaged.peak_batch,
        "paged peak batch {} must be at least twice unpaged {}",
        paged.peak_batch,
        unpaged.peak_batch
    );
    assert!(
        paged.tokens_per_sec > unpaged.tokens_per_sec,
        "paged tokens/s {} must beat unpaged {}",
        paged.tokens_per_sec,
        unpaged.tokens_per_sec
    );
    let kv = paged.kv.expect("paged run reports kv stats");
    assert!(kv.shared_hit_bytes > 0, "tenant-shared prefixes must dedup blocks");
}

/// FNV-1a over `ServeStats`' `Debug` rendering with the plan-cache counters
/// zeroed: every admission decision shows in the queueing delays, latencies,
/// peak batch and KV counters; how many iterations replayed a plan does not.
fn admission_digest(stats: &ServeStats) -> u64 {
    let pinned = ServeStats { plan_cache_hits: 0, plan_cache_misses: 0, ..stats.clone() };
    format!("{pinned:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Admission decisions under paged KV, pinned across budgets around the
/// shared-prefix discount. At the tight budget (and one block under it)
/// the discount decides only refusals; one block over it and at the full
/// 24-block discount it also decides admissions — a long prompt fits only
/// because its tenant's prefix blocks are already resident. Digests were
/// captured before admission learned to skip the prefix probe when the
/// discount cannot change the answer.
#[test]
fn paged_admission_decisions_are_pinned_across_budgets() {
    let cfg = ModelConfig::switch_base(8);
    let opts = SimOptions::new(OffloadPolicy::Pregated);
    let arrivals = mixed_context_trace(48, 512, 384, 2, 50_000);
    let tight = tight_budget(&cfg, &opts, 512 + 24);
    let block = 16 * kv_bytes(cfg.total_layers(), 1, cfg.d_model, 1);
    let largest_discount = (384 / 16) as u64 * block;
    let cases = [
        ("tight - 1 block", Some(tight - block), 0x124d_ffb4_613e_5e86u64),
        ("tight", Some(tight), 0x124d_ffb4_613e_5e86),
        ("tight + 1 block", Some(tight + block), 0x0773_cdef_c05d_c33f),
        ("tight + discount / 2", Some(tight + largest_discount / 2), 0x64da_ec59_b3a6_62f0),
        ("tight + discount", Some(tight + largest_discount), 0xe37b_d1ee_63f1_3282),
        ("roomy", None, 0xc1af_0ac1_0d33_3bb1),
    ];
    for (name, budget, golden) in cases {
        let mut batch =
            BatchConfig::new(16).with_paged_kv(PagedKvConfig::new(16).with_prefill_chunk(256));
        if let Some(budget) = budget {
            batch = batch.with_hbm_budget(budget);
        }
        let stats = serve(batch, &arrivals);
        assert_eq!(stats.request_latencies.len(), arrivals.len(), "{name}: every request served");
        assert_eq!(admission_digest(&stats), golden, "{name}: admission decisions drifted");
    }
}

/// Claim 3: prefix sharing, specifically, is where the KV bytes go.
#[test]
fn prefix_sharing_reduces_peak_kv_bytes() {
    let arrivals = mixed_context_trace(16, 512, 384, 2, 50_000);
    let batch = BatchConfig::new(8);
    let shared = serve(batch.with_paged_kv(PagedKvConfig::new(16)), &arrivals);
    let private =
        serve(batch.with_paged_kv(PagedKvConfig::new(16).without_prefix_sharing()), &arrivals);
    let shared_kv = shared.kv.expect("kv stats");
    let private_kv = private.kv.expect("kv stats");
    assert!(shared_kv.shared_hit_bytes > 0, "sharing must register hits");
    assert_eq!(private_kv.shared_hit_bytes, 0, "disabled sharing must not dedup");
    assert!(
        shared_kv.peak_kv_bytes < private_kv.peak_kv_bytes,
        "sharing must lower peak KV bytes: shared {} vs private {}",
        shared_kv.peak_kv_bytes,
        private_kv.peak_kv_bytes
    );
    // Identical simulated time either way: dedup is a memory effect.
    assert_eq!(shared.request_latencies, private.request_latencies);
}
