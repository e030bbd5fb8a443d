//! Golden table for the live-rows decode: `SwitchNet::forward_last_arena`
//! must reproduce the last row of `SwitchNet::forward_inference_arena` bit
//! for bit — logits, and every block's expert and gate probability — for
//! every gating mode, every expert precision and every amount of token-0
//! padding, and must never serve a stale padding-prefix cache after a
//! mutation.
//!
//! CI runs this file under `PGMOE_THREADS=1` and `PGMOE_THREADS=2`: the
//! wide configuration's full-window GEMMs cross the pool's fan-out
//! threshold while the live rows' do not, so the table also pins 1 ≡ N
//! threads.

use pgmoe_model::net::{ExpertChoice, SwitchNet, SwitchNetConfig};
use pgmoe_model::{ExpertPrecision, GatingMode};
use pgmoe_tensor::nn::optim::Adam;
use pgmoe_tensor::nn::Layer;
use pgmoe_tensor::{ScratchArena, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MODES: [GatingMode; 3] = [
    GatingMode::Conventional,
    GatingMode::Pregated { level: 1 },
    GatingMode::Pregated { level: 2 },
];

/// Odd widths on purpose: column tails in every projection, a key count
/// that is not a multiple of the 16-wide tile.
fn odd(mode: GatingMode) -> SwitchNetConfig {
    SwitchNetConfig {
        vocab: 37,
        d_model: 24,
        d_ff: 40,
        num_blocks: 3,
        num_experts: 4,
        seq_len: 11,
        mode,
    }
}

/// The served demo network's shape.
fn demo(mode: GatingMode) -> SwitchNetConfig {
    SwitchNetConfig::small(64, 16, 8, mode)
}

/// Wide enough that the full window's vocabulary projection (32 × 64 ×
/// 128) crosses the pool's fan-out threshold while the one live row's
/// does not.
fn wide(mode: GatingMode) -> SwitchNetConfig {
    SwitchNetConfig {
        vocab: 128,
        d_model: 64,
        d_ff: 256,
        num_blocks: 4,
        num_experts: 8,
        seq_len: 32,
        mode,
    }
}

fn net(cfg: SwitchNetConfig, seed: u64) -> SwitchNet {
    SwitchNet::new(cfg, &mut StdRng::seed_from_u64(seed))
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs both forwards on `window` and compares the last row bit for bit.
fn assert_last_row_matches(net: &SwitchNet, window: &[usize], arena: &ScratchArena, label: &str) {
    let n = window.len();
    let (full, decisions) = net.forward_inference_arena(window, arena);
    let mut route = vec![ExpertChoice { expert: usize::MAX, prob: f32::NAN }];
    let last = net.forward_last_arena(window, arena, &mut route);
    assert_eq!(last.dims(), &[1, net.config().vocab], "{label}: logits shape");
    assert_eq!(bits(last.row(0)), bits(full.row(n - 1)), "{label}: logits of the last row");
    assert_eq!(route.len(), decisions.len(), "{label}: one route entry per block");
    for (b, (choice, dec)) in route.iter().zip(&decisions).enumerate() {
        assert_eq!(choice.expert, dec.expert[n - 1], "{label}: block {b} expert");
        assert_eq!(choice.prob.to_bits(), dec.prob[n - 1].to_bits(), "{label}: block {b} gate");
    }
    arena.recycle(full);
    arena.recycle(last);
}

/// `z` token-0 rows, then non-zero tokens.
fn padded(z: usize, n: usize, vocab: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut window = vec![0; z];
    window.extend((z..n).map(|_| rng.gen_range(1..vocab)));
    window
}

/// Named token windows.
type Windows = Vec<(String, Vec<usize>)>;

/// Every padding amount `0..=seq_len` (`seq_len` is the all-zero window),
/// a prompt that itself starts with token 0, and a context sliding past
/// `seq_len` whose zeros cross the window's left edge.
fn windows(cfg: &SwitchNetConfig) -> Windows {
    let (n, vocab) = (cfg.seq_len, cfg.vocab);
    let mut rng = StdRng::seed_from_u64(0x11ce);
    let mut out: Windows =
        (0..=n).map(|z| (format!("z={z}"), padded(z, n, vocab, &mut rng))).collect();
    let mut prompt_from_zero = vec![0; n / 2];
    prompt_from_zero.extend([0, 0]);
    prompt_from_zero.extend((prompt_from_zero.len()..n).map(|_| rng.gen_range(1..vocab)));
    out.push(("prompt starting with token 0".into(), prompt_from_zero));
    let mut ctx: Vec<usize> = (0..n + 6).map(|_| rng.gen_range(1..vocab)).collect();
    ctx[3] = 0;
    ctx[4] = 0;
    for slide in 0..=6 {
        out.push((format!("slid by {slide}"), ctx[slide..slide + n].to_vec()));
    }
    out
}

fn golden_table(
    cfg: fn(GatingMode) -> SwitchNetConfig,
    modes: &[GatingMode],
    windows: fn(&SwitchNetConfig) -> Windows,
) {
    for &mode in modes {
        let mut net = net(cfg(mode), 5);
        let windows = windows(net.config());
        let arena = ScratchArena::new();
        for precision in ExpertPrecision::ALL {
            net.quantize_experts(precision);
            for (name, window) in &windows {
                assert_last_row_matches(
                    &net,
                    window,
                    &arena,
                    &format!("{mode:?} {precision} {name}"),
                );
            }
        }
    }
}

#[test]
fn odd_widths_every_mode_precision_and_padding() {
    golden_table(odd, &MODES, windows);
}

#[test]
fn demo_net_every_mode_precision_and_padding() {
    golden_table(demo, &MODES, windows);
}

#[test]
fn wide_net_every_precision() {
    let some_paddings = |cfg: &SwitchNetConfig| {
        let mut rng = StdRng::seed_from_u64(0x3e);
        [0, 1, 20, 31, 32]
            .iter()
            .map(|&z| (format!("z={z}"), padded(z, cfg.seq_len, cfg.vocab, &mut rng)))
            .collect()
    };
    golden_table(wide, &[GatingMode::Pregated { level: 1 }], some_paddings);
}

/// One mutation between two decodes of the same padded window: the second
/// decode must match the mutated net's full forward, and the mutation must
/// have moved that forward (otherwise the row proves nothing).
fn assert_mutation_is_seen(label: &str, mutate: impl FnOnce(&mut SwitchNet)) {
    let mut net = net(odd(GatingMode::Conventional), 9);
    let window = padded(6, 11, 37, &mut StdRng::seed_from_u64(3));
    let arena = ScratchArena::new();
    assert_last_row_matches(&net, &window, &arena, &format!("{label}: before"));
    let (before, _) = net.forward_inference_arena(&window, &arena);
    mutate(&mut net);
    let (after, _) = net.forward_inference_arena(&window, &arena);
    assert_ne!(
        bits(before.as_slice()),
        bits(after.as_slice()),
        "{label}: mutation changed nothing"
    );
    assert_last_row_matches(&net, &window, &arena, &format!("{label}: after"));
}

#[test]
fn quantize_experts_drops_the_padding_cache() {
    assert_mutation_is_seen("quantize_experts", |net| net.quantize_experts(ExpertPrecision::Q4));
}

#[test]
fn rewire_drops_the_padding_cache() {
    assert_mutation_is_seen("rewire", |net| net.rewire(GatingMode::Pregated { level: 1 }));
}

#[test]
fn an_optimizer_step_drops_the_padding_cache() {
    assert_mutation_is_seen("Adam step", |net| {
        let tokens = padded(6, 11, 37, &mut StdRng::seed_from_u64(4));
        net.zero_grad();
        let logits = net.forward(&tokens);
        net.backward(&Tensor::full(logits.dims(), 0.1));
        let mut adam = Adam::new(1e-2);
        adam.begin_step();
        net.visit_params(&mut |p| adam.step(p));
    });
}

#[test]
fn a_position_embedding_edit_drops_the_padding_cache() {
    assert_mutation_is_seen("pos_emb_mut", |net| net.pos_emb_mut().value.as_mut_slice()[0] += 0.5);
}
