//! The live-rows decode allocates nothing once warm: a counting global
//! allocator sees zero heap allocations across repeated
//! `SwitchNet::forward_last_arena` calls that reuse one arena and one route
//! buffer, at every expert precision.
//!
//! The claim covers work the calling thread does inline. When the worker
//! pool has more than one thread, a GEMM above `kernel::PAR_MIN_WORK`
//! boxes its tasks for the workers; the served demo network never gets
//! there, and the large network is measured only on a one-thread pool.
//!
//! The counter is process-wide, so this file holds a single test: a second
//! one would allocate concurrently and pollute the count.

use pgmoe_model::net::{SwitchNet, SwitchNetConfig};
use pgmoe_model::{ExpertPrecision, GatingMode};
use pgmoe_tensor::{ScratchArena, WorkerPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// relaxed atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Decodes a cycle of windows (none, one, half and all but one row of
/// token-0 padding, so the padding-prefix cache is exercised) until warm,
/// then counts the allocations of one more pass over the same cycle.
fn steady_state_allocations(cfg: &SwitchNetConfig, precision: ExpertPrecision) -> usize {
    let mut net = SwitchNet::new(cfg.clone(), &mut StdRng::seed_from_u64(7));
    net.quantize_experts(precision);
    let mut rng = StdRng::seed_from_u64(1);
    let n = cfg.seq_len;
    let windows: Vec<Vec<usize>> = [0, 1, n / 2, n - 1]
        .iter()
        .map(|&z| (0..n).map(|t| if t < z { 0 } else { rng.gen_range(1..cfg.vocab) }).collect())
        .collect();
    let arena = ScratchArena::new();
    let mut route = Vec::new();
    let mut pass = || {
        for window in &windows {
            let logits = net.forward_last_arena(window, &arena, &mut route);
            arena.recycle(logits);
        }
    };
    pass();
    pass();
    let steady = allocations_during(&mut pass);
    // Positive control: the counter does see the full forward's decisions.
    assert!(allocations_during(|| drop(net.forward_inference_arena(&windows[0], &arena))) > 0);
    steady
}

#[test]
fn warm_live_rows_decode_performs_no_heap_allocation() {
    let demo = SwitchNetConfig::small(64, 16, 8, GatingMode::Pregated { level: 1 });
    let mut cases: Vec<(SwitchNetConfig, ExpertPrecision)> =
        ExpertPrecision::ALL.iter().map(|&p| (demo.clone(), p)).collect();
    if WorkerPool::global().num_threads() == 1 {
        let large = SwitchNetConfig { d_model: 128, d_ff: 512, vocab: 256, seq_len: 32, ..demo };
        cases.extend([ExpertPrecision::F32, ExpertPrecision::Int8].map(|p| (large.clone(), p)));
    }
    for (cfg, precision) in &cases {
        let n = steady_state_allocations(cfg, *precision);
        assert_eq!(n, 0, "d_model {} at {precision}: {n} allocations per pass", cfg.d_model);
    }
}
