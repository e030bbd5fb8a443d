//! Ablations beyond the paper's figures, probing the design choices
//! DESIGN.md calls out (Section VI-D spirit).

use pregated_moe::model::GatingMode;
use pregated_moe::prelude::*;

fn run(cfg: &ModelConfig, opts: SimOptions, request: DecodeRequest) -> RunReport {
    InferenceSim::new(cfg.clone(), opts).run(request, 1).expect("ablation run")
}

/// PCIe-bandwidth sensitivity: where does Pre-gated MoE stop hiding the
/// fetch? The overlap window is one block of compute; once the per-expert
/// migration exceeds it, exposure grows linearly — this sweep locates the
/// crossover the paper's calibration sits just inside.
pub fn pcie_sweep() -> String {
    let cfg = ModelConfig::switch_base(64);
    let request = crate::smoke_request();
    let mut out = String::from("== Ablation: PCIe bandwidth sensitivity (Switch-Base-64) ==\n");
    out.push_str(&format!(
        "{:<14} {:>14} {:>14} {:>10}\n",
        "PCIe (GB/s)", "Pre-gated", "GPU-only", "exposed"
    ));
    for gbps in [4.0, 8.0, 16.0, 32.0, 64.0, 128.0] {
        let machine = MachineConfig::a100_like().with_pcie_bandwidth(gbps * 1e9);
        let mut opts = SimOptions::new(OffloadPolicy::Pregated);
        opts.machine = machine.clone();
        let pg = run(&cfg, opts, request).mean_block_latency();
        let mut gpu_opts = SimOptions::new(OffloadPolicy::GpuOnly);
        gpu_opts.machine = machine;
        let gpu = run(&cfg, gpu_opts, request).mean_block_latency();
        out.push_str(&format!(
            "{:<14} {:>14} {:>14} {:>9.2}x\n",
            gbps,
            format!("{pg}"),
            format!("{gpu}"),
            pg.as_nanos() as f64 / gpu.as_nanos() as f64
        ));
    }
    out.push_str("shape: below ~8 GB/s the fetch no longer hides under one block of compute.\n");
    out
}

/// Pre-gate activation level vs *latency*: deeper lookahead gives the
/// runtime more overlap slack (the accuracy cost is Fig 13's subject).
pub fn level_sweep() -> String {
    let cfg = ModelConfig::switch_base(64);
    let request = crate::smoke_request();
    let mut out = String::from("== Ablation: pre-gate activation level vs block latency ==\n");
    for level in 1..=3usize {
        let mut opts = SimOptions::new(OffloadPolicy::Pregated);
        opts.gating = GatingMode::Pregated { level };
        let r = run(&cfg, opts, request);
        out.push_str(&format!(
            "level N={level}: mean block {}  (first {level} block(s) per iteration serialize)\n",
            r.mean_block_latency()
        ));
    }
    out.push_str(
        "shape: latency is flat in N at PCIe gen4 — the level-1 window already\n\
                  hides the fetch, so deeper lookahead only buys slack, not speed.\n",
    );
    out
}

/// Batch-size sensitivity: more concurrent sequences activate more distinct
/// experts per block, eroding the sparse-activation advantage (the paper
/// serves batch 1 for this reason).
pub fn batch_sweep() -> String {
    let cfg = ModelConfig::switch_base(64);
    let mut out = String::from("== Ablation: batch size (distinct experts per block grow) ==\n");
    for batch in [1usize, 4, 16, 64] {
        // Approximate batched decode: activation count ≈ expected distinct
        // experts over `batch` top-1 draws.
        let k = expected_distinct(batch, 64);
        let r = run(
            &cfg,
            SimOptions::new(OffloadPolicy::Pregated).with_active_experts(k),
            crate::smoke_request(),
        );
        let gpu = run(
            &cfg,
            SimOptions::new(OffloadPolicy::GpuOnly).with_active_experts(k),
            crate::smoke_request(),
        );
        out.push_str(&format!(
            "batch {batch:>3} (≈{k:>2} active experts/block): Pre-gated {:.2}x GPU-only\n",
            r.mean_block_latency().as_nanos() as f64 / gpu.mean_block_latency().as_nanos() as f64
        ));
    }
    out
}

/// Top-k routing (NLLB-MoE activates top-2): the migration doubles but so
/// does the execution window, so Pre-gated's hiding survives.
pub fn topk_sweep() -> String {
    let cfg = ModelConfig::switch_base(64);
    let request = crate::smoke_request();
    let mut out =
        String::from("== Ablation: top-k routing (NLLB-style top-2 vs Switch top-1) ==\n");
    for k in [1usize, 2, 4] {
        let pg =
            run(&cfg, SimOptions::new(OffloadPolicy::Pregated).with_active_experts(k), request);
        let od =
            run(&cfg, SimOptions::new(OffloadPolicy::OnDemand).with_active_experts(k), request);
        out.push_str(&format!(
            "top-{k}: Pre-gated {} vs OnDemand {}  (advantage {:.2}x)\n",
            pg.mean_block_latency(),
            od.mean_block_latency(),
            od.mean_block_latency().as_nanos() as f64 / pg.mean_block_latency().as_nanos() as f64
        ));
    }
    out
}

/// Expert-precision sweep: all four offload policies × {f32, f16, int8,
/// q4, q4k} expert storage. Reduced precision shrinks the migrated bytes
/// (the cost every offloading policy pays per fetch) and the expert
/// kernels' HBM traffic, so block latency drops everywhere and the
/// OnDemand/Prefetch penalty compresses toward the GPU-only bound; the
/// sub-byte formats roughly double the int8 win again.
pub fn precision_sweep() -> String {
    use pregated_moe::model::ExpertPrecision;
    let cfg = ModelConfig::switch_base(64);
    let request = crate::smoke_request();
    let mut out = String::from(
        "== Ablation: expert storage precision (Switch-Base-64, policies × {f32, f16, int8, q4, \
         q4k}) ==\n",
    );
    out.push_str(&format!(
        "{:<16} {:>10} {:>16} {:>14} {:>12}\n",
        "policy", "precision", "mean block", "fetched (MB)", "vs f32"
    ));
    for policy in OffloadPolicy::ALL {
        let mut f32_block_ns = 0.0f64;
        for precision in ExpertPrecision::ALL {
            let r = run(&cfg, SimOptions::new(policy).with_expert_precision(precision), request);
            let block_ns = r.mean_block_latency().as_nanos() as f64;
            if precision == ExpertPrecision::F32 {
                f32_block_ns = block_ns;
            }
            out.push_str(&format!(
                "{:<16} {:>10} {:>16} {:>14.1} {:>11.2}x\n",
                policy.paper_name(),
                precision.to_string(),
                format!("{}", r.mean_block_latency()),
                r.expert_fetch_bytes as f64 / 1e6,
                f32_block_ns / block_ns.max(1.0),
            ));
        }
    }
    out.push_str(
        "shape: int8 (~3.8x smaller experts) compresses every offloading policy's\n\
         block latency toward GPU-only; fetched bytes shrink by the same factor.\n\
         q4/q4k (~7.1x smaller than f32) roughly halve the int8 fetch bytes again.\n",
    );
    out
}

/// The pluggable-scheduler shootout: the paper's four built-ins plus the
/// two trait schedulers the closed enum could not express
/// (`Speculative-Top8`, `Cache-Pinned-8`), each reporting throughput, mean
/// block latency, total migrated bytes, and on-demand miss-stall bytes on a
/// Zipf-hot trace. The new columns make the speculative tradeoff visible:
/// fewer critical-path bytes, more link bytes. Self-asserts both trades.
pub fn policies_sweep() -> String {
    let cfg = ModelConfig::switch_base(64);
    let request = DecodeRequest { input_tokens: 32, output_tokens: 16, batch_size: 1 };
    let zipf = RoutingKind::Zipf { s: 1.2 };
    let mut specs: Vec<PolicySpec> = OffloadPolicy::ALL.iter().map(|&p| p.scheduler()).collect();
    specs.push(PolicySpec::speculative_top_m(8));
    specs.push(PolicySpec::cache_pinned(8));
    let mut out = String::from(
        "== Scheduler shootout: six expert schedulers (Switch-Base-64, Zipf 1.2) ==\n",
    );
    out.push_str(&format!(
        "{:<18} {:>10} {:>16} {:>14} {:>12}\n",
        "scheduler", "tokens/s", "mean block", "fetched (MB)", "demand (MB)"
    ));
    let mut reports = Vec::new();
    for spec in specs {
        let r = run(&cfg, SimOptions::new(spec).with_routing(zipf), request);
        out.push_str(&format!(
            "{:<18} {:>10.1} {:>16} {:>14.1} {:>12.1}\n",
            r.policy,
            r.tokens_per_sec,
            format!("{}", r.mean_block_latency()),
            r.expert_fetch_bytes as f64 / 1e6,
            r.demand_fetch_bytes as f64 / 1e6,
        ));
        reports.push(r);
    }
    // The two trait schedulers do what their names claim.
    let bytes = |name: &str| {
        let r = reports.iter().find(|r| r.policy == name).expect(name);
        (r.expert_fetch_bytes, r.demand_fetch_bytes)
    };
    let [(pg_fetched, pg_demand), (spec_fetched, spec_demand), (pinned_fetched, _)] =
        ["Pre-gated MoE", "Speculative-Top8", "Cache-Pinned-8"].map(bytes);
    assert!(
        spec_demand < pg_demand && spec_fetched > pg_fetched,
        "Speculative-Top8 must trade link bytes for fewer miss stalls: fetched {spec_fetched} \
         vs {pg_fetched}, demand {spec_demand} vs {pg_demand}"
    );
    assert!(pinned_fetched < pg_fetched, "Cache-Pinned-8 must shrink migration");
    out.push_str(
        "shape: Speculative-Top8 trades link bytes for miss stalls (lower demand MB\n\
         than Pre-gated, higher fetched MB); Cache-Pinned-8 buys migration savings\n\
         with pinned HBM. Add your own via the ExpertScheduler trait.\n",
    );
    out
}

/// GPUs per deployment in the iso-GPU fleet shootout.
const FLEET_GPUS: usize = 4;

/// The iso-GPU deployments of the fleet shootout, in presentation order:
/// `[f32 replica fleet, int8 replica fleet, expert-parallel cluster]` — all
/// serving the identical Poisson stream on the same number of GPUs. Shared
/// by the `repro -- fleet` report and the `fleet.csv` artifact
/// (`repro -- csv`).
pub fn fleet_shootout_runs() -> Vec<FleetStats> {
    let model = ModelConfig::switch_base(64);
    let request = DecodeRequest { input_tokens: 16, output_tokens: 16, batch_size: 1 };
    let arrivals: Vec<ArrivedRequest> =
        ArrivalStream::new(ArrivalProcess::Poisson { rate_per_sec: 150.0 }, request, 2, 7)
            .take(32)
            .collect();
    let mut runs: Vec<FleetStats> = Vec::new();
    for precision in [ExpertPrecision::F32, ExpertPrecision::Int8] {
        let fleet = FleetSim::new(
            model.clone(),
            SimOptions::new(OffloadPolicy::Pregated).with_expert_precision(precision),
            FleetConfig::new(FLEET_GPUS, BatchConfig::new(4)),
        );
        runs.push(fleet.serve(arrivals.clone(), &mut JoinShortestQueue::new()).expect("fleet run"));
    }
    runs.push(
        serve_cluster(
            model,
            &ClusterConfig::a100_nvlink(FLEET_GPUS),
            SimOptions::new(OffloadPolicy::Pregated),
            BatchConfig::new(4),
            arrivals,
        )
        .expect("cluster run"),
    );
    runs
}

/// The iso-GPU fleet shootout (`repro -- fleet`): N single-GPU Pre-gated
/// offload replicas vs ONE N-GPU expert-parallel cluster on the same
/// Poisson stream, scored by tokens/s-per-GPU — the TCO metric behind the
/// paper's economic claim (Sections III-A, VII). Also sweeps the dispatch
/// policies on a domain-skewed cached population. Self-asserts both
/// headline results.
pub fn fleet_shootout() -> String {
    const GPUS: usize = FLEET_GPUS;
    let model = ModelConfig::switch_base(64);
    let mut out = String::from(
        "== Fleet shootout: offload replicas vs iso-GPU expert parallelism (Switch-Base-64) ==\n",
    );
    out.push_str(&format!(
        "{:<40} {:>5} {:>9} {:>14} {:>10}\n",
        "deployment", "GPUs", "tokens/s", "tok/s-per-GPU", "p95"
    ));
    let runs = fleet_shootout_runs();
    let labels = [
        format!("{GPUS}x Pre-gated replicas (f32)"),
        format!("{GPUS}x Pre-gated replicas (int8)"),
        format!("1x {GPUS}-GPU expert-parallel cluster"),
    ];
    for (label, s) in labels.iter().zip(&runs) {
        out.push_str(&format!(
            "{:<40} {:>5} {:>9.1} {:>14.1} {:>10}\n",
            label,
            s.gpus,
            s.tokens_per_sec,
            s.tokens_per_sec_per_gpu(),
            format!("{}", s.p95()),
        ));
    }
    let cluster = &runs[2];
    let int8_ratio = runs[1].tokens_per_sec_per_gpu() / cluster.tokens_per_sec_per_gpu();
    let f32_ratio = runs[0].tokens_per_sec_per_gpu() / cluster.tokens_per_sec_per_gpu();
    out.push_str(&format!(
        "TCO: int8 replicas {int8_ratio:.2}x, f32 replicas {f32_ratio:.2}x the cluster's \
         tokens/s-per-GPU.\n"
    ));
    assert!(
        int8_ratio >= 1.3 && f32_ratio > 1.0,
        "offload replicas must beat iso-GPU expert parallelism per GPU \
         (int8 {int8_ratio:.2}x, f32 {f32_ratio:.2}x)"
    );

    // Dispatch-policy sweep on a domain-skewed cached population.
    let decode_heavy = DecodeRequest { input_tokens: 4, output_tokens: 32, batch_size: 1 };
    let skewed: Vec<ArrivedRequest> =
        ArrivalStream::new(ArrivalProcess::Poisson { rate_per_sec: 80.0 }, decode_heavy, 2, 11)
            .take(40)
            .collect();
    let cached_fleet = FleetSim::new(
        model,
        SimOptions::new(OffloadPolicy::Pregated)
            .with_routing(RoutingKind::ZipfDomains { s: 1.5, domains: 4 })
            .with_cache(CacheConfig::new(0.15, Replacement::Lru)),
        FleetConfig::new(GPUS, BatchConfig::new(4)),
    );
    out.push_str(&format!(
        "{:<28} {:>9} {:>13} {:>13}\n",
        "dispatch", "tokens/s", "fetched (GB)", "demand (GB)"
    ));
    let mut demand = Vec::new();
    let mut dispatchers: Vec<Box<dyn DispatchPolicy>> = vec![
        Box::new(RoundRobin::new()),
        Box::new(JoinShortestQueue::new()),
        Box::new(CacheAffinity::new(8)),
    ];
    for d in dispatchers.iter_mut() {
        let s = cached_fleet.serve(skewed.clone(), d.as_mut()).expect("dispatch run");
        out.push_str(&format!(
            "{:<28} {:>9.1} {:>13.2} {:>13.2}\n",
            s.dispatch,
            s.tokens_per_sec,
            s.expert_fetch_bytes as f64 / 1e9,
            s.demand_fetch_bytes as f64 / 1e9,
        ));
        demand.push(s.demand_fetch_bytes);
    }
    assert!(
        demand[2] < demand[0],
        "cache-affinity must strictly cut demand-fetch bytes vs round-robin"
    );
    out.push_str(
        "shape: N cheap offload replicas beat an N-GPU sharded cluster per GPU (the\n\
         paper's TCO claim), and cache-affinity dispatch keeps each Zipf domain's hot\n\
         experts warm on one replica. Implement DispatchPolicy to add your own.\n",
    );
    out
}

/// The chaos suite (`repro -- chaos`): fault injection, replica failure
/// recovery, autoscaling (against every static fleet size on the same
/// trace), and online policy switching on the controlled fleet layer. Every
/// row is recomputed and the robustness claims are self-asserted — a
/// regression in recovery or the controller loop panics here, not just in
/// CI.
pub fn chaos_suite() -> String {
    let model = ModelConfig::switch_base(8);
    let controlled = |replicas: usize, policy: OffloadPolicy| {
        ControlledFleet::new(
            model.clone(),
            SimOptions::new(policy),
            FleetConfig::new(replicas, BatchConfig::new(4)),
        )
    };
    let request = DecodeRequest { input_tokens: 16, output_tokens: 8, batch_size: 1 };
    let trace = |n: usize, seed: u64| -> Vec<ArrivedRequest> {
        ArrivalStream::new(
            ArrivalProcess::Diurnal { trough_per_sec: 15.0, peak_per_sec: 350.0, period_s: 1.0 },
            request,
            1,
            seed,
        )
        .take(n)
        .collect()
    };
    let mut out =
        String::from("== Chaos suite: faults, recovery, autoscaling, policy switching ==\n");

    // Kill-one-replica recovery: zero requests lost, full token delivery.
    let burst = trace(48, 23);
    let expected_tokens: usize = burst.iter().map(|a| a.request.output_tokens).sum();
    let plan = FaultPlan::new().kill_at(burst[12].arrival_ns + 1, 1);
    let survived = controlled(3, OffloadPolicy::Pregated)
        .serve(burst.clone(), &mut JoinShortestQueue::new(), &plan, &mut NoControl)
        .expect("kill run");
    let ctl = survived.control.as_ref().expect("control stats");
    out.push_str(&format!(
        "kill 1 of 3 replicas: {}/{} requests served, {}/{} tokens, {} redispatched, \
         {} tokens re-decoded\n",
        survived.request_latencies.len(),
        burst.len(),
        survived.total_tokens,
        expected_tokens,
        ctl.redispatched,
        ctl.dropped_tokens,
    ));
    assert_eq!(survived.request_latencies.len(), burst.len(), "zero requests lost to the kill");
    assert_eq!(survived.total_tokens, expected_tokens, "every stream completed in full");
    assert!(ctl.redispatched > 0, "the killed replica's work must be redispatched");

    // Autoscaling on the diurnal trace, billed elastically.
    let wave = trace(96, 17);
    let opts = ControlOptions { window_ns: 25_000_000, warmup_ns: 25_000_000 };
    let mut scaler = QueueAutoScaler::new(1, 5, 4);
    let adaptive = controlled(1, OffloadPolicy::Pregated)
        .with_control(opts)
        .serve(wave.clone(), &mut JoinShortestQueue::new(), &FaultPlan::new(), &mut scaler)
        .expect("adaptive run");
    let c = adaptive.control.as_ref().expect("control stats");
    out.push_str(&format!(
        "autoscaler on diurnal load: peak {} replicas ({} ups, {} downs), \
         {:.1} tokens/s-per-GPU at p99 {}\n",
        c.peak_replicas,
        c.scale_ups,
        c.scale_downs,
        adaptive.tokens_per_gpu_second(),
        adaptive.p99(),
    ));
    assert!(c.scale_ups > 0 && c.scale_downs > 0, "diurnal load must exercise both knobs");
    assert_eq!(adaptive.request_latencies.len(), wave.len());
    // Autoscaling dominates every static size on the same trace: each
    // static fleet either misses the autoscaler's p99 (underprovisioned) or
    // loses on tokens/s-per-GPU (idle through the trough).
    for replicas in 1..=5 {
        let fixed = controlled(replicas, OffloadPolicy::Pregated)
            .serve(wave.clone(), &mut JoinShortestQueue::new(), &FaultPlan::new(), &mut NoControl)
            .expect("static run");
        let (tps, p99) = (fixed.tokens_per_gpu_second(), fixed.p99());
        out.push_str(&format!(
            "  static {replicas} replica(s): {tps:.1} tokens/s-per-GPU at p99 {p99}\n"
        ));
        assert!(
            p99 > adaptive.p99() || adaptive.tokens_per_gpu_second() > tps,
            "static {replicas} replica(s) matched the autoscaler on p99 ({p99}) and on \
             tokens/s-per-GPU ({tps:.1}) — autoscaling should dominate"
        );
    }

    // Drift-triggered online policy switch cuts miss-stall bytes.
    let drifting = trace(48, 29);
    let stay = controlled(2, OffloadPolicy::OnDemand)
        .with_control(opts)
        .serve(drifting.clone(), &mut RoundRobin::new(), &FaultPlan::new(), &mut NoControl)
        .expect("unswitched run");
    let mut switcher = DriftSwitcher::new(PolicySpec::from(OffloadPolicy::Pregated), 1e-9, 1);
    let switched = controlled(2, OffloadPolicy::OnDemand)
        .with_control(opts)
        .serve(drifting, &mut RoundRobin::new(), &FaultPlan::new(), &mut switcher)
        .expect("switched run");
    out.push_str(&format!(
        "drift switch (OnDemand -> Pre-gated): demand-fetch {:.3} GB -> {:.3} GB\n",
        stay.demand_fetch_bytes as f64 / 1e9,
        switched.demand_fetch_bytes as f64 / 1e9,
    ));
    assert!(switcher.fired(), "the drift detector must fire on on-demand traffic");
    assert!(
        switched.demand_fetch_bytes < stay.demand_fetch_bytes,
        "switching policies mid-run must cut demand-fetch bytes"
    );
    assert_eq!(switched.total_tokens, stay.total_tokens, "no request lost across the swap");

    out.push_str(
        "shape: replica death redispatches with zero loss, the queue scaler rides the\n\
         diurnal wave on elastic billing, and the drift detector swaps policies on live\n\
         replicas. See tests/fleet_chaos.rs for the CI gate.\n",
    );
    out
}

/// Paged-KV capacity gate: the same mixed short/long-context trace served
/// under the same tight HBM budget, unpaged (worst-case contiguous KV
/// reserved at admission) versus block-paged with chunked prefill and
/// tenant-shared prefix reuse. Asserts the wins the subsystem exists for —
/// at least 2x the admitted concurrent batch and strictly higher tokens/s
/// — so a regression fails the bench, not just the figures. Also asserts
/// that paged decode iterations replay compiled plans at least 80 % of the
/// time (count-parametric plans do not re-key on routing).
pub fn paged_kv_gate() -> String {
    use pregated_moe::runtime::{PagedKvConfig, PlacementPlan};
    use pregated_moe::workload::mixed_context_trace;
    let cfg = ModelConfig::switch_base(8);
    let opts = SimOptions::new(OffloadPolicy::Pregated);
    // 512-token prompts, 384 of them a per-tenant shared system prefix,
    // arrivals 50us apart: admission capacity, not arrival spacing, bounds
    // the concurrent batch.
    let arrivals = mixed_context_trace(24, 512, 384, 2, 50_000);
    let base = PlacementPlan::new(&cfg, &opts, 0, 1);
    let long = PlacementPlan::new(&cfg, &opts, 512 + 24, 1).activation_bytes();
    let budget = base.static_non_activation_bytes() + 2 * long + 2 * 8 * base.expert_bytes();
    let serve = |batch: BatchConfig| {
        BatchScheduler::new(cfg.clone(), opts.clone(), batch)
            .serve(arrivals.iter().copied())
            .expect("mixed trace serves")
    };
    let unpaged = serve(BatchConfig::new(16).with_hbm_budget(budget));
    let paged = serve(
        BatchConfig::new(16)
            .with_hbm_budget(budget)
            .with_paged_kv(PagedKvConfig::new(16).with_prefill_chunk(256)),
    );
    let kv = paged.kv.expect("paged run reports kv stats");
    let hit_share = |s: &ServeStats| {
        s.plan_cache_hits as f64 / (s.plan_cache_hits + s.plan_cache_misses).max(1) as f64
    };
    let mut out = String::from("== Paged KV: block paging + prefix reuse vs worst-case KV ==\n");
    out.push_str(&format!(
        "unpaged: peak batch {:2}, {:8.1} tokens/s, p99 {}, plan hit share {:.2}\n",
        unpaged.peak_batch,
        unpaged.tokens_per_sec,
        unpaged.p99(),
        hit_share(&unpaged),
    ));
    out.push_str(&format!(
        "paged:   peak batch {:2}, {:8.1} tokens/s, p99 {}, plan hit share {:.2} \
         ({} KV blocks peak, {:.1} MB deduped, {} cache shrinks)\n",
        paged.peak_batch,
        paged.tokens_per_sec,
        paged.p99(),
        hit_share(&paged),
        kv.peak_blocks,
        kv.shared_hit_bytes as f64 / 1e6,
        kv.cache_shrink_events,
    ));
    assert_eq!(unpaged.request_latencies.len(), arrivals.len(), "unpaged run must complete");
    assert_eq!(paged.request_latencies.len(), arrivals.len(), "paged run must complete");
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
    assert!(kv.shared_hit_bytes > 0, "tenant-shared prefixes must dedup blocks");
    assert!(
        hit_share(&paged) >= 0.8,
        "paged decode must replay compiled plans: hit share {:.3}",
        hit_share(&paged)
    );
    out.push_str(
        "shape: block paging frees the worst-case decode reservation and prefix reuse\n\
         stores each tenant's system prompt once, so the same HBM budget admits a\n\
         2x+ larger batch at higher tokens/s. See tests/paged_kv.rs for the CI gate.\n",
    );
    out
}

/// Section III-A's motivation, quantified: multi-GPU expert parallelism
/// leaves GPUs idle at batch 1, while Pre-gated MoE matches the work to one
/// GPU + CPU memory.
pub fn multi_gpu_motivation() -> String {
    use pregated_moe::runtime::{simulate_expert_parallel, ClusterConfig};
    let mut out = String::from("== Motivation (Section III-A): expert-parallel multi-GPU ==\n");
    let cfg = ModelConfig::switch_large_128();
    out.push_str(&format!(
        "{:<8} {:>16} {:>14} {:>12}\n",
        "GPUs", "block latency", "expert util", "idle frac"
    ));
    for gpus in [2usize, 4, 8, 16] {
        match simulate_expert_parallel(&cfg, &ClusterConfig::a100_nvlink(gpus), 16, 7) {
            Ok(r) => out.push_str(&format!(
                "{:<8} {:>16} {:>13.1}% {:>11.1}%\n",
                gpus,
                format!("{}", r.mean_block_latency),
                100.0 * r.expert_utilization,
                100.0 * r.idle_block_fraction
            )),
            Err(e) => out.push_str(&format!("{gpus:<8} {e}\n")),
        }
    }
    let single = InferenceSim::new(cfg, SimOptions::new(OffloadPolicy::Pregated))
        .run(crate::smoke_request(), 1)
        .expect("run");
    out.push_str(&format!(
        "Pre-gated MoE on ONE GPU + CPU memory: block {} at {:.1} GB peak —\n\
         the TCO argument: top-1 routing leaves (g-1)/g of an expert-parallel\n\
         cluster idle every block, while offloading needs no second GPU.\n",
        single.mean_block_latency(),
        single.peak_hbm_bytes as f64 / 1e9
    ));
    out
}

/// Compiled-plan tracer (`repro -- plans`): captures the op-IR one decode
/// iteration lowers to under two schedulers and diffs the streams. The
/// diff is *asserted* nonempty — two different migration policies must
/// compile different plans, and an empty diff would mean the plan IR
/// stopped carrying the decisions the scheduler hooks inject.
pub fn plans_diff() -> String {
    let cfg = ModelConfig::switch_base(8);
    let request = crate::smoke_request();
    let trace = |spec: PolicySpec| {
        InferenceSim::new(cfg.clone(), SimOptions::new(spec))
            .trace_plan(request, 1)
            .expect("plan capture")
    };
    let pregated = trace(PolicySpec::from(OffloadPolicy::Pregated));
    let speculative = trace(PolicySpec::speculative_top_m(4));
    let (diff, differing) = pregated.diff(&speculative);
    assert!(
        differing > 0,
        "two schedulers compiled identical decode plans:\n{}",
        pregated.render()
    );
    let mut out =
        String::from("== Compiled decode plans (op-IR): Pre-gated vs Speculative-TopM ==\n");
    out.push_str(&format!(
        "{}: {} ops   {}: {} ops   {} line(s) differ\n",
        pregated.policy(),
        pregated.ops().len(),
        speculative.policy(),
        speculative.ops().len(),
        differing
    ));
    out.push_str(&diff);
    out.push_str(
        "shape: same attention/FFN/gate skeleton, different fetch sets — the\n\
         speculative margin prefetches extra experts per block, the pre-gate\n\
         moves only the activated set.\n",
    );
    out
}

fn expected_distinct(draws: usize, experts: usize) -> usize {
    let e = experts as f64;
    ((e * (1.0 - (1.0 - 1.0 / e).powi(draws as i32))).round() as usize).clamp(1, experts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcie_sweep_shows_monotone_exposure() {
        let report = pcie_sweep();
        // Exposure factor column must be non-increasing as bandwidth grows.
        let factors: Vec<f64> = report
            .lines()
            .filter(|l| l.contains('x') && !l.contains("shape"))
            .filter_map(|l| l.split_whitespace().last()?.trim_end_matches('x').parse().ok())
            .collect();
        assert!(factors.len() >= 5, "{report}");
        for w in factors.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "exposure must shrink with bandwidth: {factors:?}");
        }
    }

    #[test]
    fn level_sweep_runs_all_levels() {
        let report = level_sweep();
        for level in 1..=3 {
            assert!(report.contains(&format!("N={level}")), "{report}");
        }
    }

    #[test]
    fn precision_sweep_reports_all_cells_and_int8_wins() {
        let report = precision_sweep();
        for policy in OffloadPolicy::ALL {
            let rows = report.lines().filter(|l| l.starts_with(policy.paper_name())).count();
            assert_eq!(rows, 5, "{policy}: one row per precision\n{report}");
        }
        // Every reduced-precision row's speedup-vs-f32 column must be
        // >= 1.0 (never a slowdown) and offloading policies must show a
        // real gain.
        let speedups = |needle: &str| -> Vec<f64> {
            report
                .lines()
                .filter(|l| l.contains(needle))
                .filter_map(|l| l.split_whitespace().last()?.trim_end_matches('x').parse().ok())
                .collect()
        };
        let int8_speedups = speedups(" int8 ");
        assert_eq!(int8_speedups.len(), 4, "{report}");
        assert!(int8_speedups.iter().all(|&s| s >= 1.0), "{int8_speedups:?}\n{report}");
        assert!(
            int8_speedups.iter().any(|&s| s > 1.2),
            "offloading policies should gain >1.2x from int8: {int8_speedups:?}"
        );
        // The sub-byte formats never lose to f32 either, and at least one
        // offloading policy beats its own int8 cell (fewer migrated bytes).
        let q4_speedups = speedups(" q4 ");
        assert_eq!(q4_speedups.len(), 4, "{report}");
        assert!(q4_speedups.iter().all(|&s| s >= 1.0), "{q4_speedups:?}\n{report}");
        assert!(
            q4_speedups.iter().zip(&int8_speedups).any(|(&q, &i)| q > i),
            "q4 should beat int8 for at least one offloading policy:\n{report}"
        );
        assert_eq!(speedups(" q4k ").len(), 4, "{report}");
    }

    #[test]
    fn policies_sweep_reports_all_six_and_speculation_trades_bytes_for_stalls() {
        let report = policies_sweep();
        let row = |name: &str| -> Vec<f64> {
            report
                .lines()
                .find(|l| l.starts_with(name))
                .unwrap_or_else(|| panic!("missing row {name}:\n{report}"))
                .split_whitespace()
                .filter_map(|t| t.trim_end_matches("ms").trim_end_matches("µs").parse().ok())
                .collect()
        };
        for name in [
            "GPU-only",
            "Pre-gated MoE",
            "MoE-OnDemand",
            "MoE-Prefetch",
            "Speculative-Top8",
            "Cache-Pinned-8",
        ] {
            assert!(report.lines().any(|l| l.starts_with(name)), "missing {name}:\n{report}");
        }
        // Columns: tokens/s, mean block, fetched MB, demand MB (last two are
        // the final numeric fields on every row).
        let pg = row("Pre-gated MoE");
        let spec = row("Speculative-Top8");
        let (pg_fetched, pg_demand) = (pg[pg.len() - 2], pg[pg.len() - 1]);
        let (sp_fetched, sp_demand) = (spec[spec.len() - 2], spec[spec.len() - 1]);
        assert!(
            sp_demand < pg_demand,
            "SpeculativeTopM demand {sp_demand} must undercut Pre-gated {pg_demand}\n{report}"
        );
        assert!(
            sp_fetched > pg_fetched * 1.5,
            "the margin must cost measurably more link bytes: {sp_fetched} vs {pg_fetched}"
        );
    }

    #[test]
    fn fleet_shootout_reports_and_self_asserts() {
        // The function self-asserts the TCO ratio and the affinity win;
        // here we pin the report shape so the repro target stays parseable.
        let report = fleet_shootout();
        for needle in [
            "Pre-gated replicas (f32)",
            "Pre-gated replicas (int8)",
            "4-GPU expert-parallel cluster",
            "round-robin",
            "join-shortest-queue",
            "cache-affinity",
            "TCO:",
        ] {
            assert!(report.contains(needle), "missing `{needle}`:\n{report}");
        }
    }

    #[test]
    fn cluster_run_reproduces_the_pre_unification_fleet_stats() {
        // `serve_cluster` used to drive its own `BatchScheduler` and merge
        // the result by hand; it now serves a one-replica fleet through the
        // shared event loop. Golden captured before the switch: FNV-1a over
        // the `Debug` rendering covers every field, per-replica row
        // included, so `fleet.csv` (`repro -- csv`) stays byte-identical.
        let cluster = fleet_shootout_runs().pop().expect("the cluster run is last");
        assert_eq!(cluster.dispatch, "cluster(4gpu)");
        assert_eq!(cluster.policy, "Expert-Parallel-4GPU");
        assert_eq!((cluster.gpus, cluster.replicas.len()), (FLEET_GPUS, 1));
        assert_eq!(cluster.assignment, vec![0; 32]);
        assert_eq!(cluster.total_tokens, 516);
        assert_eq!(cluster.makespan.as_nanos(), 1_672_252_536);
        assert_eq!(cluster.gpu_time.as_nanos(), 1_672_252_536 * FLEET_GPUS as u64);
        assert_eq!(cluster.peak_hbm_bytes, 4_312_160_256);
        assert_eq!(cluster.control, None);
        let digest = format!("{cluster:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
        assert_eq!(digest, 0x28dd_79e8_29cf_4b46, "{cluster:#?}");
    }

    #[test]
    fn chaos_suite_reports_and_self_asserts() {
        // Recovery, autoscaling, and policy-switch claims self-assert
        // inside; here we pin the report shape for the repro target.
        let report = chaos_suite();
        for needle in [
            "kill 1 of 3 replicas: 48/48 requests served",
            "autoscaler on diurnal load",
            "static 5 replica(s)",
            "drift switch (OnDemand -> Pre-gated)",
        ] {
            assert!(report.contains(needle), "missing `{needle}`:\n{report}");
        }
    }

    #[test]
    fn plans_diff_reports_and_self_asserts() {
        // The function self-asserts the diff is nonempty (two schedulers
        // must compile different op streams); here we pin the report shape
        // so the `repro -- plans` target stays parseable.
        let report = plans_diff();
        // Pre-gated plans are count-parametric: their routed fetches render
        // symbolically, the speculative superset's as literal counts.
        for needle in [
            "Pre-gated MoE",
            "Speculative-Top4",
            "ops",
            "line(s) differ",
            "fetch",
            "fetch b1 routed",
            "fetch b1 x4",
        ] {
            assert!(report.contains(needle), "missing `{needle}`:\n{report}");
        }
    }

    #[test]
    fn topk_advantage_persists_at_top2() {
        let report = topk_sweep();
        let advantage: Vec<f64> = report
            .lines()
            .filter_map(|l| l.split("advantage ").nth(1)?.trim_end_matches("x)").parse().ok())
            .collect();
        assert!(advantage.iter().take(2).all(|&a| a > 1.3), "{report}");
    }
}
