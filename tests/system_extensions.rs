//! Integration tests for the paper-motivated extensions: QoS serving,
//! checkpointing, and the multi-GPU expert-parallel motivation baseline.

use pregated_moe::model::net::{SwitchNet, SwitchNetConfig};
use pregated_moe::model::{load_params, save_params, GatingMode};
use pregated_moe::prelude::*;
use pregated_moe::runtime::{simulate_expert_parallel, ClusterConfig};
use pregated_moe::tensor::nn::Layer;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's closed-loop batch-1 stream: every request queued at time
/// zero on one batch slot, served back-to-back.
fn closed_loop(cfg: ModelConfig, policy: OffloadPolicy, requests: &[DecodeRequest]) -> ServeStats {
    let arrivals = requests.iter().map(|&r| ArrivedRequest::at_nanos(0, r));
    serve_batched(cfg, SimOptions::new(policy), BatchConfig::new(1), arrivals).unwrap()
}

#[test]
fn qos_tail_latency_ranks_policies_like_fig11() {
    let requests: Vec<DecodeRequest> = RequestStream::new(
        DecodeRequest { input_tokens: 16, output_tokens: 4, batch_size: 1 },
        1,
        3,
    )
    .take(6)
    .collect();
    let p95 = |policy| {
        closed_loop(ModelConfig::switch_base(64), policy, &requests).latency_quantile(0.95)
    };
    let gpu = p95(OffloadPolicy::GpuOnly);
    let pg = p95(OffloadPolicy::Pregated);
    let od = p95(OffloadPolicy::OnDemand);
    let pf = p95(OffloadPolicy::PrefetchAll);
    assert!(gpu <= pg && pg < od && od < pf, "QoS ordering: {gpu} {pg} {od} {pf}");
}

#[test]
fn checkpoint_transfers_pretrained_weights_across_topologies() {
    // The paper's protocol end-to-end through the checkpoint format:
    // pretrain conventional → save → load into a *pre-gated* clone (same
    // parameter set — pre-gating moves gates, it does not add them) →
    // routing changes, parameters do not.
    let mut rng = StdRng::seed_from_u64(11);
    let cfg = SwitchNetConfig::small(24, 8, 4, GatingMode::Conventional);
    let mut teacher = SwitchNet::new(cfg.clone(), &mut rng);
    let mut buf = Vec::new();
    save_params(&mut teacher, &mut buf).unwrap();

    let mut rng2 = StdRng::seed_from_u64(99);
    let mut student = SwitchNet::new(
        SwitchNetConfig { mode: GatingMode::Pregated { level: 1 }, ..cfg },
        &mut rng2,
    );
    load_params(&mut student, &mut buf.as_slice()).unwrap();

    let mut a = Vec::new();
    teacher.visit_params(&mut |p| a.push(p.value.clone()));
    let mut b = Vec::new();
    student.visit_params(&mut |p| b.push(p.value.clone()));
    assert_eq!(a, b, "checkpoint must transfer every parameter");
    assert_eq!(student.topology().mode(), GatingMode::Pregated { level: 1 });
}

#[test]
fn expert_parallel_cluster_vs_single_gpu_tco() {
    // Section III-A quantified: the cluster's aggregate GPU-seconds per
    // token dwarf the single-GPU Pre-gated deployment's.
    let cfg = ModelConfig::switch_large_128();
    let cluster = simulate_expert_parallel(&cfg, &ClusterConfig::a100_nvlink(4), 8, 5).unwrap();
    assert!(cluster.expert_utilization < 0.35);
    assert!(cluster.idle_block_fraction >= 0.74);

    // The TCO shape: at batch 1, adding GPUs does NOT speed up decoding
    // (one expert runs per block regardless), so GPU-seconds per token grow
    // ~linearly with cluster size, while the single-GPU Pre-gated deployment
    // is a fixed one-GPU cost.
    let big = simulate_expert_parallel(&cfg, &ClusterConfig::a100_nvlink(16), 8, 5).unwrap();
    assert!(
        big.mean_block_latency.as_nanos() as f64
            <= cluster.mean_block_latency.as_nanos() as f64 * 1.05,
        "more GPUs must not help batch-1 latency"
    );
    let gpu_s = |r: &pregated_moe::runtime::ClusterReport| {
        r.mean_block_latency.as_secs_f64() * r.num_gpus as f64
    };
    assert!(gpu_s(&big) > 3.5 * gpu_s(&cluster), "GPU-seconds/token must scale with g");
    assert!(big.expert_utilization < cluster.expert_utilization / 3.0);
}

#[test]
fn closed_loop_stream_is_deterministic() {
    let requests = [DecodeRequest { input_tokens: 16, output_tokens: 3, batch_size: 1 }; 3];
    let run = || closed_loop(ModelConfig::switch_base(8), OffloadPolicy::Pregated, &requests);
    let (a, b) = (run(), run());
    assert_eq!(a.request_latencies, b.request_latencies);
    assert_eq!(a.ttfts, b.ttfts);
    assert_eq!(a.queueing_delays, b.queueing_delays);
    assert_eq!(a.expert_fetch_bytes, b.expert_fetch_bytes);
}
