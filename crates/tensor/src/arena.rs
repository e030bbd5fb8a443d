//! Recycled scratch buffers for allocation-free hot paths.
//!
//! Serving decodes run the same layer shapes every iteration, so every
//! intermediate a forward pass allocates can be recycled for the next one.
//! [`ScratchArena`] is a free-list of recycled tensors: [`take`] hands out
//! a zeroed [`Tensor`] of the requested extents backed by a recycled one
//! (growing a buffer only when the free list has nothing big enough) and
//! [`recycle`] returns a tensor to the list. A reuse rewrites the recycled
//! tensor's shape in place, so after a warm-up pass steady-state decode
//! through the arena-aware layer paths performs **zero heap allocations**
//! for tensors — [`ScratchArena::stats`] counts the reuses, and the model
//! crate's counting-allocator test pins the whole live-rows decode.
//!
//! Usage rules:
//!
//! * The arena is single-threaded (`RefCell`-based): one arena per engine /
//!   per serving thread. Kernels parallelise *inside* an op; the arena is
//!   only touched between ops.
//! * `recycle` every intermediate when its last reader is done. Recycling
//!   is optional for correctness — an un-recycled tensor is just a normal
//!   allocation — but required for the zero-allocation steady state.
//! * Tensors returned to callers (logits, decisions) may outlive the arena;
//!   recycle them at the call site when convenient.
//!
//! [`take`]: ScratchArena::take
//! [`recycle`]: ScratchArena::recycle

use crate::Tensor;
use std::cell::{Cell, RefCell};

/// Counters exposing arena behaviour (see [`ScratchArena::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Total buffers handed out by [`ScratchArena::take`].
    pub takes: usize,
    /// Takes served from the free list without growing a buffer — in a
    /// warmed-up steady state this tracks `takes` exactly.
    pub reuses: usize,
    /// Buffers currently parked on the free list.
    pub free: usize,
}

/// A free-list of recycled tensors (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct ScratchArena {
    free: RefCell<Vec<Tensor>>,
    takes: Cell<usize>,
    reuses: Cell<usize>,
}

impl ScratchArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        ScratchArena::default()
    }

    /// Hands out a zeroed tensor of extents `dims`, reusing a recycled
    /// tensor when one with sufficient capacity exists (best fit), growing
    /// one otherwise. A recycled tensor keeps its shape storage too, so a
    /// reuse allocates nothing at all.
    ///
    /// The zeroing is a deliberate part of the contract (recycled buffers
    /// hold stale data from unrelated ops): it costs one cheap memset per
    /// take, and it means callers that only partially write the tensor —
    /// scatter-style outputs like the grouped MoE path — stay correct. The
    /// GEMM kernels overwrite every element anyway and skip their own
    /// zero-fill, so outputs are not cleared twice.
    pub fn take(&self, dims: impl AsRef<[usize]>) -> Tensor {
        let dims = dims.as_ref();
        let len = dims.iter().product();
        let mut free = self.free.borrow_mut();
        // Best fit: smallest capacity that already holds `len`; otherwise
        // the largest buffer (so the grow happens on the best candidate).
        let mut best: Option<(usize, usize)> = None; // (index, capacity)
        let mut largest: Option<(usize, usize)> = None;
        for (i, t) in free.iter().enumerate() {
            let cap = t.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
            }
            if largest.is_none_or(|(_, c)| cap > c) {
                largest = Some((i, cap));
            }
        }
        let picked = best.or(largest).map(|(i, cap)| (free.swap_remove(i), cap >= len));
        drop(free);
        self.takes.set(self.takes.get() + 1);
        match picked {
            Some((mut t, fits)) => {
                if fits {
                    self.reuses.set(self.reuses.get() + 1);
                }
                t.reset_zeroed(dims);
                t
            }
            None => Tensor::zeros(dims),
        }
    }

    /// Returns a tensor (storage and shape) to the free list.
    pub fn recycle(&self, tensor: Tensor) {
        self.free.borrow_mut().push(tensor);
    }

    /// Current counters.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            takes: self.takes.get(),
            reuses: self.reuses.get(),
            free: self.free.borrow().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_tensor_of_requested_shape() {
        let arena = ScratchArena::new();
        let t = arena.take([3, 4]);
        assert_eq!(t.dims(), &[3, 4]);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn steady_state_reuses_every_buffer() {
        let arena = ScratchArena::new();
        // Warm-up: allocates.
        for _ in 0..3 {
            let a = arena.take([8, 8]);
            let b = arena.take([8, 16]);
            arena.recycle(a);
            arena.recycle(b);
        }
        let warm = arena.stats();
        // Steady state: every take must be a reuse.
        for _ in 0..10 {
            let a = arena.take([8, 8]);
            let b = arena.take([8, 16]);
            arena.recycle(a);
            arena.recycle(b);
        }
        let stats = arena.stats();
        assert_eq!(stats.takes - warm.takes, stats.reuses - warm.reuses, "steady state must reuse");
    }

    #[test]
    fn recycled_buffer_is_rezeroed() {
        let arena = ScratchArena::new();
        let mut t = arena.take([4]);
        t.as_mut_slice().fill(7.0);
        arena.recycle(t);
        let t2 = arena.take([2]);
        assert!(t2.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let arena = ScratchArena::new();
        let big = arena.take([64]);
        let small = arena.take([4]);
        arena.recycle(big);
        arena.recycle(small);
        let t = arena.take([4]);
        assert!(t.as_slice().len() == 4);
        // The 64-element buffer must still be parked for the next big take.
        let stats = arena.stats();
        assert_eq!(stats.free, 1);
        let big2 = arena.take([64]);
        assert_eq!(arena.stats().reuses, stats.reuses + 1, "64-wide buffer reused");
        arena.recycle(big2);
        arena.recycle(t);
    }
}
