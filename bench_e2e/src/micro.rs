//! Micro-timings of public leaf calls at the shapes the workloads use.
//!
//! The GEMM, fused-dequant and plan-replay numbers reuse
//! `pgmoe_bench::gate`'s measurements (which cross-check their outputs)
//! rather than re-implementing them.

use crate::metrics::Values;
use pgmoe_bench::gate;
use pregated_moe::device::{SimDuration, SimEngine};
use pregated_moe::runtime::{ExpertCache, ExpertKey, KvBlockPool, Replacement};
use pregated_moe::tensor::kernel;
use pregated_moe::workload::{RoutingKind, RoutingTrace};
use std::hint::black_box;
use std::time::Instant;

/// Best-of-five mean cost of one `op`, in ns, over `iters` calls per round.
fn per_call_ns(iters: usize, mut op: impl FnMut(usize)) -> f64 {
    (0..5)
        .map(|_| {
            let started = Instant::now();
            for i in 0..iters {
                op(i);
            }
            started.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// `tensor` layer: the 512-cubed GEMM family, the fused Q4 decode shape,
/// and the expert GEMM at the large wire network's
/// `[seq_len x d_model x d_ff]`.
pub fn tensor(v: &mut Values) {
    let gemm = gate::measure_gemm_512();
    v.insert("tensor.kernel.gemm512_ms", gemm.blocked_parallel_ms);
    v.insert("tensor.quant.int8_fused_ms", gemm.dequant_int8_fused_ms);
    v.insert("tensor.pool.threads", gemm.threads as f64);
    v.insert("tensor.quant.q4_fused_us", gate::measure_q4_fused().q4_fused_simd_ms * 1e3);

    let net = crate::inputs::wire_large_net(false).net;
    let (m, k, n) = (net.seq_len, net.d_model, net.d_ff);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 * 0.25 - 1.5).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 * 0.5 - 1.5).collect();
    let mut out = vec![0.0f32; m * n];
    let ms = gate::time_best_ms(200, || kernel::matmul_into(black_box(&mut out), &a, &b, m, k, n));
    v.insert("tensor.kernel.expert_gemm_gflops", 2.0 * (m * k * n) as f64 / (ms * 1e6));
}

/// `runtime.engine`, `runtime.kv`, `runtime.cache` and `device` leaves.
pub fn runtime_and_device(v: &mut Values, seed: u64) {
    let plan = gate::measure_plan_host();
    v.insert("runtime.engine.plan_on_us_per_token", plan.plan_on_us_per_token);
    v.insert("runtime.engine.plan_off_us_per_token", plan.plan_off_us_per_token);

    // KV: the paged workload's shape — 16-token blocks, a 512-token prompt
    // whose first 384 tokens are a shared prefix, 24 decode appends.
    let prompt: Vec<u64> = (0..512).collect();
    let mut pool = KvBlockPool::new(16, 1024);
    let mut tables = Vec::new();
    let appended = 512 + 24;
    let append_ns = per_call_ns(200, |i| {
        let mut table = pool.new_table(384);
        pool.append(&mut table, &prompt);
        for t in 0..24u64 {
            pool.append(&mut table, &[(i as u64) << 32 | t]);
        }
        tables.push(table);
        if tables.len() >= 8 {
            // Keep the pool at the workload's concurrency, not growing.
            tables.drain(..).for_each(|t| pool.release(t));
        }
    }) / appended as f64;
    v.insert("runtime.kv.append_ns", append_ns);
    // Releasing one 512-token table (32 private blocks), the append untimed.
    let releases: Vec<f64> = (0..200)
        .map(|_| {
            let mut table = pool.new_table(0);
            pool.append(&mut table, &prompt);
            let started = Instant::now();
            pool.release(table);
            started.elapsed().as_nanos() as f64
        })
        .collect();
    v.insert("runtime.kv.release_ns", crate::stats::median(&releases));

    // Expert cache: the fleet workload's shape — Switch-Base-64's 6
    // decoder MoE blocks, 15 % of its experts, LRU, Zipf-domain routing.
    let model = pregated_moe::model::ModelConfig::switch_base(64);
    let (blocks, experts) = (model.decoder_moe_layers(), model.num_experts);
    let trace = RoutingTrace::generate(
        4096,
        blocks,
        experts,
        1,
        RoutingKind::ZipfDomains { s: 1.5, domains: 4 },
        seed,
    );
    let keys: Vec<ExpertKey> = (0..trace.num_tokens())
        .flat_map(|t| (0..blocks).map(move |b| (t, b)))
        .flat_map(|(t, b)| {
            trace.experts(t, b).iter().map(move |&e| ExpertKey { block: b, expert: e })
        })
        .collect();
    let capacity = (0.15 * (model.moe_layers() * experts) as f64) as usize;
    let mut cache = ExpertCache::new(capacity, Replacement::Lru);
    let access_ns = per_call_ns(keys.len(), |i| {
        black_box(cache.access(keys[i]));
    });
    v.insert("runtime.cache.access_ns", access_ns);
    v.insert("runtime.cache.hit_share", cache.stats().hit_rate());
    v.insert(
        "runtime.cache.fingerprint_ns",
        per_call_ns(200, |_| {
            black_box(cache.state_fingerprint());
        }),
    );

    // Device: one op on the interpreted path, one O(1) fast-forward on the
    // replayed path.
    let mut engine = SimEngine::new();
    engine.set_trace_enabled(false);
    let gpu = engine.add_resource("gpu");
    let pcie = engine.add_resource("pcie");
    let compute = engine.add_stream("compute", gpu);
    let copy = engine.add_stream("copy", pcie);
    let mut last = engine.submit(copy, "h2d", SimDuration::from_micros(6), &[]);
    let submit_ns = per_call_ns(100_000, |_| {
        let fetch = engine.submit(copy, "h2d", SimDuration::from_micros(6), &[]);
        last = engine.submit(compute, "ffn", SimDuration::from_micros(3), &[fetch, last]);
    }) / 2.0;
    v.insert("device.submit_ns", submit_ns);
    let step = SimDuration::from_micros(9);
    let fast_forward_ns = per_call_ns(100_000, |_| {
        let tail = engine.stream_tail(compute) + step;
        engine.fast_forward(compute, tail, step);
    });
    v.insert("device.fast_forward_ns", fast_forward_ns);
}
