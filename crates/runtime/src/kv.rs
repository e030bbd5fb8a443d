//! Block-paged KV cache with copy-on-write prefix sharing.
//!
//! Contiguous KV reserves **worst-case KV** per request when it is
//! admitted (`input + output` tokens, all layers), which caps the admitted
//! batch far below what HBM actually holds: most of the reservation is
//! decode context that does not exist yet, and tenants' shared system
//! prompts are stored once *per request*. This module is the vLLM-style
//! fix:
//!
//! * KV lives in fixed-size **blocks** of [`KvBlockPool::block_tokens`]
//!   tokens; a request holds a [`BlockTable`] of physical block ids and
//!   only the blocks its *current* context needs.
//! * Full blocks inside a request's declared shared-prefix region are
//!   content-addressed by a chain of per-token stamps folded one word per
//!   step (the crate's word mix, shared with the plan cache's keys); a
//!   second request whose prompt opens with the same tokens points its
//!   table at the **same physical block** ([`KvPoolStats::shared_hit_bytes`]
//!   counts the copies avoided). The chain's values are internal —
//!   compared only for equality, as index keys, and never reported — so
//!   sharing depends only on whether two prefixes are equal (barring a
//!   64-bit collision).
//! * Shared blocks are refcounted and immutable. Writing into a shared
//!   *partial* block (possible after [`KvBlockPool::fork`], the
//!   parallel-sampling seam) triggers **copy-on-write**: the writer gets a
//!   private copy, the sibling's contents are untouched.
//!
//! The pool is a pure data structure — it owns no device memory.
//! [`PagedKv`] is the serving session's whole view of per-request HBM: it
//! places the expert-cache region, plans admissions, reserves each
//! sequence's working buffers, appends prompt chunks and decode tokens,
//! reconciles all of it against the simulated HBM pool in one alloc, and
//! arbitrates the budget between KV and the expert cache. Contiguous KV is
//! one of its configurations: blocks of unbounded size, so a sequence's
//! single block holds its whole worst-case context and is reserved when
//! the sequence opens, with no prefix sharing, no prefill chunk limit and
//! no growth block.

use crate::plan::{word_mix, MIX_SEED};
use crate::{ExpertCache, PlacementPlan, Result};
use pgmoe_device::{AllocId, Machine, MemoryPool, Tier};
use pgmoe_model::ModelConfig;
use pgmoe_workload::ArrivedRequest;
use std::collections::HashMap;

/// Knobs for the paged-KV serving path (see
/// [`crate::BatchConfig::with_paged_kv`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagedKvConfig {
    /// Tokens per KV block. Small blocks waste less tail space but shard
    /// the prefix index finer; vLLM's default is 16.
    pub block_tokens: usize,
    /// Maximum prompt tokens prefilled per scheduler step. Prefill work for
    /// longer prompts is chunked across decode-iteration boundaries so one
    /// long prompt cannot stall the whole batch. `usize::MAX` prefills
    /// every pending prompt in one step, as contiguous KV does (with roomy
    /// HBM the two layouts then time identically).
    pub prefill_chunk_tokens: usize,
    /// Whether full blocks inside a declared shared prefix are deduplicated
    /// across requests.
    pub share_prefixes: bool,
}

impl PagedKvConfig {
    /// Paged KV with `block_tokens`-token blocks, unbounded prefill chunks,
    /// and prefix sharing enabled.
    pub fn new(block_tokens: usize) -> Self {
        PagedKvConfig { block_tokens, prefill_chunk_tokens: usize::MAX, share_prefixes: true }
    }

    /// Builder: bound prompt prefill to `tokens` per scheduler step.
    pub fn with_prefill_chunk(mut self, tokens: usize) -> Self {
        self.prefill_chunk_tokens = tokens.max(1);
        self
    }

    /// Builder: disable shared-prefix deduplication (every request gets
    /// private blocks).
    pub fn without_prefix_sharing(mut self) -> Self {
        self.share_prefixes = false;
        self
    }
}

/// Counters the pool accumulates across its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvPoolStats {
    /// Bytes of KV *not* written because a full shared-prefix block was
    /// already resident (one hit = one block's bytes).
    pub shared_hit_bytes: u64,
    /// Bytes copied by copy-on-write when a writer appended into a shared
    /// partial block.
    pub cow_copy_bytes: u64,
    /// Copy-on-write events.
    pub cow_copies: u64,
    /// Physical blocks allocated over the pool's lifetime (frees not
    /// subtracted).
    pub blocks_allocated: u64,
}

/// Per-session paged-KV statistics surfaced in
/// [`crate::ServeStats::kv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvServeStats {
    /// Tokens per block the session ran with.
    pub block_tokens: usize,
    /// High-water physical blocks in use.
    pub peak_blocks: usize,
    /// High-water KV bytes in use (`peak_blocks` × block bytes).
    pub peak_kv_bytes: u64,
    /// Bytes saved by shared-prefix block reuse.
    pub shared_hit_bytes: u64,
    /// Bytes copied by copy-on-write.
    pub cow_copy_bytes: u64,
    /// Times the expert cache was shrunk to make room for KV blocks.
    pub cache_shrink_events: u64,
    /// Expert-cache capacity (in experts) when the session finished, after
    /// any KV-pressure arbitration.
    pub final_cache_experts: usize,
}

/// One request's view of its KV cache: an ordered list of physical block
/// ids plus the number of logical tokens stored. Obtained from
/// [`KvBlockPool::new_table`]; must be returned via
/// [`KvBlockPool::release`].
#[derive(Debug, Clone)]
pub struct BlockTable {
    blocks: Vec<usize>,
    tokens: usize,
    /// Running chained hash over every stamp appended so far inside the
    /// sharable region — the content address of the *next* full block
    /// boundary there.
    chain: u64,
    /// Leading tokens eligible for shared-prefix deduplication.
    sharable_tokens: usize,
}

impl BlockTable {
    /// Logical tokens stored.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Physical blocks referenced (shared blocks count once per table).
    pub fn blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The physical block ids, in logical order (the "block-table walk" an
    /// attention kernel would gather from).
    pub fn physical_blocks(&self) -> &[usize] {
        &self.blocks
    }
}

#[derive(Debug, Clone)]
struct PhysBlock {
    refcount: u32,
    /// Per-token content stamps. Length < `block_tokens` means partial.
    stamps: Vec<u64>,
    /// The chained content hash this block is indexed under, if shared.
    key: Option<u64>,
}

/// A refcounted slab of fixed-size KV blocks with a content-addressed
/// prefix index (module docs above).
///
/// # Example
///
/// ```
/// use pgmoe_runtime::KvBlockPool;
///
/// let mut pool = KvBlockPool::new(4, 1024); // 4-token blocks, 1 KiB/token
/// let mut a = pool.new_table(8);
/// pool.append(&mut a, &[1, 2, 3, 4, 5, 6, 7, 8]);
/// let mut b = pool.new_table(8);
/// pool.append(&mut b, &[1, 2, 3, 4, 5, 6, 7, 8]); // same prefix content
/// assert_eq!(pool.used_blocks(), 2, "both tables share both blocks");
/// assert_eq!(pool.stats().shared_hit_bytes, 2 * 4 * 1024);
/// pool.release(a);
/// pool.release(b);
/// assert_eq!(pool.used_blocks(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct KvBlockPool {
    block_tokens: usize,
    bytes_per_token: u64,
    blocks: Vec<PhysBlock>,
    free: Vec<usize>,
    index: HashMap<u64, usize>,
    used_blocks: usize,
    peak_blocks: usize,
    stats: KvPoolStats,
}

impl KvBlockPool {
    /// A pool of `block_tokens`-token blocks costing `bytes_per_token` KV
    /// bytes per token (all layers). `block_tokens` is clamped to ≥ 1.
    pub fn new(block_tokens: usize, bytes_per_token: u64) -> Self {
        KvBlockPool {
            block_tokens: block_tokens.max(1),
            bytes_per_token,
            blocks: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            used_blocks: 0,
            peak_blocks: 0,
            stats: KvPoolStats::default(),
        }
    }

    /// Tokens per block.
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// HBM bytes one block occupies (saturating for unbounded blocks).
    pub fn block_bytes(&self) -> u64 {
        (self.block_tokens as u64).saturating_mul(self.bytes_per_token)
    }

    /// Physical blocks currently in use.
    pub fn used_blocks(&self) -> usize {
        self.used_blocks
    }

    /// High-water physical blocks.
    pub fn peak_blocks(&self) -> usize {
        self.peak_blocks
    }

    /// HBM bytes currently occupied by KV blocks.
    pub fn used_bytes(&self) -> u64 {
        self.used_blocks as u64 * self.block_bytes()
    }

    /// High-water KV bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_blocks as u64 * self.block_bytes()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> KvPoolStats {
        self.stats
    }

    /// An empty table whose first `sharable_tokens` tokens may be
    /// deduplicated against other tables' identical prefixes. Pass 0 to
    /// keep every block private.
    pub fn new_table(&self, sharable_tokens: usize) -> BlockTable {
        BlockTable { blocks: Vec::new(), tokens: 0, chain: MIX_SEED, sharable_tokens }
    }

    /// How many of the first `min(tokens, sharable)` tokens' full blocks
    /// are already resident for the given stamp sequence — what admission
    /// control subtracts from a prompt's planned KV footprint. Does not
    /// touch refcounts.
    pub fn probe_shared_blocks(&self, stamps: impl IntoIterator<Item = u64>) -> usize {
        let mut chain = MIX_SEED;
        let mut hits = 0;
        let mut in_block = 0;
        for stamp in stamps {
            chain = word_mix(chain, stamp);
            in_block += 1;
            if in_block == self.block_tokens {
                match self.index.get(&chain) {
                    Some(_) => hits += 1,
                    // A miss breaks the chain of *resident* prefix blocks;
                    // later blocks would chain off a private block anyway.
                    None => break,
                }
                in_block = 0;
            }
        }
        hits
    }

    fn alloc_block(&mut self) -> usize {
        self.stats.blocks_allocated += 1;
        self.used_blocks += 1;
        self.peak_blocks = self.peak_blocks.max(self.used_blocks);
        match self.free.pop() {
            Some(id) => {
                debug_assert_eq!(self.blocks[id].refcount, 0);
                self.blocks[id].refcount = 1;
                self.blocks[id].stamps.clear();
                self.blocks[id].key = None;
                id
            }
            None => {
                self.blocks.push(PhysBlock { refcount: 1, stamps: Vec::new(), key: None });
                self.blocks.len() - 1
            }
        }
    }

    fn release_block(&mut self, id: usize) {
        let b = &mut self.blocks[id];
        debug_assert!(b.refcount > 0, "block double free");
        b.refcount -= 1;
        if b.refcount == 0 {
            if let Some(key) = b.key.take() {
                self.index.remove(&key);
            }
            b.stamps.clear();
            self.free.push(id);
            self.used_blocks -= 1;
        }
    }

    /// Appends token `stamps` to `table`, sharing full shared-prefix blocks
    /// with identical content and copy-on-write-copying a shared partial
    /// tail before writing into it. Stamps are the per-token content
    /// identity (real token ids, or deterministic synthetic stamps).
    pub fn append(&mut self, table: &mut BlockTable, stamps: &[u64]) {
        let mut rest = stamps;
        while !rest.is_empty() {
            let filled = table.tokens % self.block_tokens;
            let at_boundary = filled == 0;
            // Whole-block fast path: at a boundary, with a full block of
            // stamps entirely inside the sharable region, try the index
            // before allocating anything.
            if at_boundary
                && rest.len() >= self.block_tokens
                && table.tokens + self.block_tokens <= table.sharable_tokens
            {
                let (seg, tail) = rest.split_at(self.block_tokens);
                let chain = seg.iter().fold(table.chain, |h, &s| word_mix(h, s));
                if let Some(&shared) = self.index.get(&chain) {
                    self.blocks[shared].refcount += 1;
                    table.blocks.push(shared);
                    table.tokens += self.block_tokens;
                    table.chain = chain;
                    self.stats.shared_hit_bytes += self.block_bytes();
                    rest = tail;
                    continue;
                }
            }
            // Slow path: write into the (possibly new) last block.
            if at_boundary {
                let id = self.alloc_block();
                table.blocks.push(id);
            }
            let last = *table.blocks.last().expect("table has a tail block");
            let last = if self.blocks[last].refcount > 1 {
                // Copy-on-write: the tail is shared (a fork sibling or an
                // immutable prefix block we must not mutate).
                let copy = self.alloc_block();
                let stamps_now = self.blocks[last].stamps.clone();
                self.stats.cow_copies += 1;
                self.stats.cow_copy_bytes += stamps_now.len() as u64 * self.bytes_per_token;
                self.blocks[copy].stamps = stamps_now;
                self.release_block(last);
                *table.blocks.last_mut().expect("table has a tail block") = copy;
                copy
            } else {
                last
            };
            let room = self.block_tokens - self.blocks[last].stamps.len();
            let take = room.min(rest.len());
            let (seg, tail) = rest.split_at(take);
            // The chain is read only while the table is inside the sharable
            // region, so tokens past it are never hashed.
            let hashed = table.sharable_tokens.saturating_sub(table.tokens).min(take);
            table.chain = seg[..hashed].iter().fold(table.chain, |h, &s| word_mix(h, s));
            for &s in seg {
                self.blocks[last].stamps.push(s);
            }
            table.tokens += take;
            rest = tail;
            // Seal: a block that just filled inside the sharable region is
            // registered so later identical prefixes dedup against it.
            if self.blocks[last].stamps.len() == self.block_tokens
                && table.tokens <= table.sharable_tokens
                && self.blocks[last].key.is_none()
            {
                self.index.entry(table.chain).or_insert(last);
                if self.index[&table.chain] == last {
                    self.blocks[last].key = Some(table.chain);
                }
            }
        }
    }

    /// Forks `table` — the parallel-sampling/beam-search seam: the child
    /// shares every physical block (refcounts bumped), including a partial
    /// tail. The first append through either table copy-on-writes the tail.
    pub fn fork(&mut self, table: &BlockTable) -> BlockTable {
        for &id in &table.blocks {
            self.blocks[id].refcount += 1;
        }
        table.clone()
    }

    /// Content stamps of the physical block at `table`'s `idx`-th position
    /// (test/diagnostic: lets callers assert CoW really isolated a fork).
    pub fn block_stamps(&self, table: &BlockTable, idx: usize) -> &[u64] {
        &self.blocks[table.blocks[idx]].stamps
    }

    /// Returns `table`'s blocks to the pool; physical blocks are freed when
    /// their last reference drops (shared-prefix blocks leave the index at
    /// that point).
    pub fn release(&mut self, table: BlockTable) {
        for id in table.blocks {
            self.release_block(id);
        }
    }
}

/// Splitmix-style finalizer: deterministic, well-spread content stamps for
/// synthetic KV blocks.
fn kv_stamp(seed: u64, pos: usize) -> u64 {
    let mut z = seed ^ (pos as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One request's KV: its block table, the identity its synthetic content
/// stamps derive from, and what it reserved when it opened.
pub(crate) struct KvSeq {
    table: BlockTable,
    /// The declared shared prefix's hash and its length within the prompt.
    prefix: (u64, usize),
    /// Stamp seed of every position outside the prefix.
    private: u64,
    /// Unwritten tokens of the block reserved at open. It holds the whole
    /// context and a last token is never appended, so it never fills.
    room: usize,
    /// HBM reserved at open: working buffers and the reserved block.
    reserved: u64,
}

impl KvSeq {
    /// Content stamp of the token at position `pos`: shared-prefix tokens
    /// stamp off the tenant's prefix hash (equal across that tenant's
    /// requests, which is what makes their KV blocks deduplicate), every
    /// other position off the request's private seed.
    fn stamp_at(&self, pos: usize) -> u64 {
        kv_stamp(if pos < self.prefix.1 { self.prefix.0 } else { self.private }, pos)
    }
}

/// Every per-request HBM byte of one serving session (the block pool and the
/// reservations, in one HBM mirror) and the expert-cache region they squeeze.
pub(crate) struct PagedKv {
    cfg: PagedKvConfig,
    pool: KvBlockPool,
    /// Working-buffer bytes per token of context.
    working_per_token: u64,
    /// What every open sequence reserved when it opened.
    reserved: u64,
    /// Open sequences without reserved room (each may grow a block a step).
    growing: usize,
    /// One HBM alloc mirroring `reserved + pool.used_bytes()`.
    kv_alloc: Option<AllocId>,
    kv_alloc_bytes: u64,
    /// The `committed` bytes the last reconcile arbitrated against.
    committed: u64,
    /// The expert-cache region's own alloc, resizable under KV pressure.
    cache_alloc: Option<AllocId>,
    cache_experts_now: usize,
    plan_cache_experts: usize,
    expert_bytes: u64,
    shrink_events: u64,
    /// Reused buffer for the stamps one append writes.
    stamps: Vec<u64>,
}

impl PagedKv {
    /// Places `plan`'s static footprint with the expert-cache region as its
    /// own alloc, so arbitration can resize it (the same total bytes as one
    /// alloc of the whole footprint, so peak accounting is untouched).
    pub(crate) fn place(
        cfg: PagedKvConfig,
        model: &ModelConfig,
        plan: &PlacementPlan,
        machine: &mut Machine,
    ) -> Result<Self> {
        let hbm = machine.pool_mut(Tier::Hbm);
        let cache_region = plan.cache_experts() as u64 * plan.expert_bytes();
        hbm.alloc(plan.static_non_activation_bytes() - cache_region)?;
        let cache_alloc = if cache_region > 0 { Some(hbm.alloc(cache_region)?) } else { None };
        let bytes_per_token = crate::memory::kv_bytes(model.total_layers(), 1, model.d_model, 1);
        Ok(PagedKv {
            cfg,
            pool: KvBlockPool::new(cfg.block_tokens, bytes_per_token),
            working_per_token: crate::memory::working_bytes(model, 1, 1),
            reserved: 0,
            growing: 0,
            kv_alloc: None,
            kv_alloc_bytes: 0,
            committed: 0,
            cache_alloc,
            cache_experts_now: plan.cache_experts(),
            plan_cache_experts: plan.cache_experts(),
            expert_bytes: plan.expert_bytes(),
            shrink_events: 0,
            stamps: Vec::new(),
        })
    }

    /// Most prompt tokens prefilled per scheduler step.
    pub(crate) fn prefill_chunk(&self) -> usize {
        self.cfg.prefill_chunk_tokens
    }

    /// The tokens and bytes `arr`'s sequence reserves when it opens: its
    /// working buffers, and one block holding its whole context when blocks
    /// are unbounded (contiguous KV) — the one place the layouts differ —
    /// but none when the pool hands out blocks as tokens arrive.
    fn opening(&self, arr: &ArrivedRequest) -> (usize, u64) {
        let full_ctx = arr.request.input_tokens + arr.request.output_tokens;
        let room = if self.cfg.block_tokens == usize::MAX { full_ctx } else { 0 };
        (room, full_ctx as u64 * self.working_per_token + room as u64 * self.pool.bytes_per_token)
    }

    /// Every per-request HBM byte planned if `arr` joins the open
    /// sequences: their reservations and live blocks, `arr`'s reservation,
    /// the blocks its prompt needs beyond that, and one growth block per
    /// sequence without reserved room, `arr`'s included.
    pub(crate) fn admission_bytes(&self, arr: &ArrivedRequest) -> u64 {
        let (room, opening) = self.opening(arr);
        let prompt = arr.request.input_tokens.saturating_sub(room);
        let blocks =
            prompt.div_ceil(self.pool.block_tokens()) + self.growing + usize::from(room == 0);
        self.reserved + self.pool.used_bytes() + opening + blocks as u64 * self.pool.block_bytes()
    }

    /// The shared-prefix discount on a plan `over` bytes above budget:
    /// prompt blocks a sibling's identical prefix already holds, at most
    /// every full block of the sharable prefix. Probing re-hashes the whole
    /// prefix, so it runs only when the discount could close the gap, or
    /// when the `exact` shortfall must be reported. Otherwise the
    /// undiscounted plan already decides the offer and this returns 0.
    pub(crate) fn prefix_discount(&self, arr: &ArrivedRequest, over: u64, exact: bool) -> u64 {
        let (true, Some(sp)) = (self.cfg.share_prefixes, arr.shared_prefix) else {
            return 0;
        };
        let n = sp.tokens.min(arr.request.input_tokens);
        let block_bytes = self.pool.block_bytes();
        let most = (n / self.cfg.block_tokens) as u64 * block_bytes;
        if !exact && most < over {
            return 0;
        }
        self.pool.probe_shared_blocks((0..n).map(|i| kv_stamp(sp.hash, i))) as u64 * block_bytes
    }

    /// Opens `arr`'s sequence and takes its reservation; stamps outside the
    /// shared prefix seed off `route_seed`.
    pub(crate) fn open(&mut self, arr: &ArrivedRequest, route_seed: u64) -> KvSeq {
        let (room, reserved) = self.opening(arr);
        self.reserved += reserved;
        self.growing += usize::from(room == 0);
        let prefix = arr
            .shared_prefix
            .map_or((0, 0), |sp| (sp.hash, sp.tokens.min(arr.request.input_tokens)));
        let sharable = if self.cfg.share_prefixes { prefix.1 } else { 0 };
        KvSeq {
            table: self.pool.new_table(sharable),
            prefix,
            private: route_seed ^ 0xD6E8_FEB8_6659_FD93,
            room,
            reserved,
        }
    }

    /// Appends the KV of `seq`'s next `tokens` tokens (a prompt chunk or a
    /// decode token): free inside its reserved block, else into pool blocks.
    pub(crate) fn append(&mut self, seq: &mut KvSeq, tokens: usize) {
        if seq.room > 0 {
            debug_assert!(tokens < seq.room, "a reserved block holds the whole context");
            seq.room -= tokens;
            return;
        }
        let from = seq.table.tokens();
        self.stamps.clear();
        self.stamps.extend((from..from + tokens).map(|pos| seq.stamp_at(pos)));
        self.pool.append(&mut seq.table, &self.stamps);
    }

    /// Returns a finished or aborted sequence's reservation and blocks.
    pub(crate) fn release(&mut self, seq: KvSeq) {
        self.reserved -= seq.reserved;
        self.growing -= usize::from(seq.room == 0);
        self.pool.release(seq.table);
    }

    /// Reconciles the HBM mirror with the reservations and the pool, then
    /// arbitrates the expert-cache region: when they plus the `committed`
    /// bytes (static weights, cache region included, and the scheduler's
    /// transient claim) leave less headroom under `budget` than the cache's
    /// plan capacity, the cache shrinks through its replacement policy; when
    /// headroom returns it regrows. Unchanged inputs cost nothing. After a
    /// release this cannot fail: it frees before it allocates, the mirror
    /// only shrinks, and the cache regrows only into headroom under
    /// `budget`, which the caller caps at the HBM capacity.
    pub(crate) fn sync(
        &mut self,
        machine: &mut Machine,
        cache: &mut Option<ExpertCache>,
        committed: u64,
        budget: u64,
    ) -> Result<()> {
        let want = self.reserved + self.pool.used_bytes();
        if want == self.kv_alloc_bytes && committed == self.committed {
            return Ok(());
        }
        let raised = committed > self.committed;
        self.committed = committed;
        let hbm = machine.pool_mut(Tier::Hbm);
        if want != self.kv_alloc_bytes {
            realloc(hbm, &mut self.kv_alloc, want)?;
            self.kv_alloc_bytes = want;
        }
        let region = self.plan_cache_experts as u64 * self.expert_bytes;
        let headroom = budget.saturating_sub(committed - region + want);
        let plan = self.plan_cache_experts;
        let target =
            if headroom >= region { plan } else { (headroom / self.expert_bytes) as usize };
        if target != self.cache_experts_now {
            if target < self.cache_experts_now {
                // Admission planned reservations with the full cache: only
                // blocks taken since, or a swap raising `committed`, squeeze it.
                debug_assert!(self.pool.used_blocks() > 0 || raised, "reserved KV squeezed cache");
                self.shrink_events += 1;
            }
            realloc(hbm, &mut self.cache_alloc, target as u64 * self.expert_bytes)?;
            if let Some(c) = cache.as_mut() {
                c.set_capacity(target);
            }
            self.cache_experts_now = target;
        }
        Ok(())
    }

    /// The session's paged-KV statistics.
    pub(crate) fn stats(&self) -> KvServeStats {
        KvServeStats {
            block_tokens: self.pool.block_tokens(),
            peak_blocks: self.pool.peak_blocks(),
            peak_kv_bytes: self.pool.peak_bytes(),
            shared_hit_bytes: self.pool.stats().shared_hit_bytes,
            cow_copy_bytes: self.pool.stats().cow_copy_bytes,
            cache_shrink_events: self.shrink_events,
            final_cache_experts: self.cache_experts_now,
        }
    }
}

/// Frees `slot`'s alloc, if any, and allocates `bytes` in its place.
fn realloc(hbm: &mut MemoryPool, slot: &mut Option<AllocId>, bytes: u64) -> Result<()> {
    if let Some(id) = slot.take() {
        hbm.free(id).expect("a live alloc frees");
    }
    *slot = if bytes > 0 { Some(hbm.alloc(bytes)?) } else { None };
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const BPT: u64 = 100; // bytes per token

    #[test]
    fn blocks_grow_and_free_by_refcount() {
        let mut pool = KvBlockPool::new(4, BPT);
        let mut t = pool.new_table(0);
        pool.append(&mut t, &[1, 2, 3, 4, 5]);
        assert_eq!(t.tokens(), 5);
        assert_eq!(t.blocks(), 2, "5 tokens over 4-token blocks");
        assert_eq!(pool.used_blocks(), 2);
        assert_eq!(pool.used_bytes(), 2 * 4 * BPT);
        pool.append(&mut t, &[6, 7, 8]);
        assert_eq!(t.blocks(), 2, "tail block had room");
        pool.append(&mut t, &[9]);
        assert_eq!(t.blocks(), 3);
        assert_eq!(pool.peak_blocks(), 3);
        pool.release(t);
        assert_eq!(pool.used_blocks(), 0);
        assert_eq!(pool.peak_blocks(), 3, "peak is a high-water mark");
    }

    #[test]
    fn freed_blocks_are_reused() {
        let mut pool = KvBlockPool::new(2, BPT);
        let mut a = pool.new_table(0);
        pool.append(&mut a, &[1, 2, 3, 4]);
        pool.release(a);
        let mut b = pool.new_table(0);
        pool.append(&mut b, &[5, 6]);
        assert_eq!(pool.blocks.len(), 2, "slab must not grow while free blocks exist");
        assert_eq!(pool.used_blocks(), 1);
        pool.release(b);
    }

    #[test]
    fn identical_shared_prefixes_occupy_one_physical_copy() {
        let mut pool = KvBlockPool::new(4, BPT);
        let stamps: Vec<u64> = (100..112).collect(); // 3 full blocks
        let mut a = pool.new_table(12);
        pool.append(&mut a, &stamps);
        assert_eq!(pool.used_blocks(), 3);
        let mut b = pool.new_table(12);
        pool.append(&mut b, &stamps);
        assert_eq!(pool.used_blocks(), 3, "b shares all of a's blocks");
        assert_eq!(pool.stats().shared_hit_bytes, 3 * 4 * BPT);
        assert_eq!(a.physical_blocks(), b.physical_blocks());
        // Releasing one table keeps the blocks for the other.
        pool.release(a);
        assert_eq!(pool.used_blocks(), 3);
        pool.release(b);
        assert_eq!(pool.used_blocks(), 0);
    }

    #[test]
    fn different_content_or_private_regions_do_not_share() {
        let mut pool = KvBlockPool::new(4, BPT);
        let mut a = pool.new_table(8);
        pool.append(&mut a, &[1, 2, 3, 4, 5, 6, 7, 8]);
        // Same sharable length, different content: no sharing.
        let mut b = pool.new_table(8);
        pool.append(&mut b, &[9, 9, 9, 9, 5, 6, 7, 8]);
        assert_eq!(pool.used_blocks(), 4);
        // Same content, sharable region zero: no sharing.
        let mut c = pool.new_table(0);
        pool.append(&mut c, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(pool.used_blocks(), 6);
        assert_eq!(pool.stats().shared_hit_bytes, 0);
        pool.release(a);
        pool.release(b);
        pool.release(c);

        // Near misses of one prompt: one stamp changed (low or high bit) at
        // every position, each adjacent pair swapped, and all-zero stamps
        // against all-one stamps. No block from the first difference on is
        // shared, and the probe predicts exactly what `append` shares.
        let base: Vec<u64> = (1..=8).collect();
        let mut pairs = vec![(vec![0; 8], vec![1; 8]), (vec![0; 8], vec![u64::MAX; 8])];
        for pos in 0..8 {
            for bit in [0, 63] {
                let mut v = base.clone();
                v[pos] ^= 1 << bit;
                pairs.push((base.clone(), v));
            }
            if pos < 7 {
                let mut v = base.clone();
                v.swap(pos, pos + 1);
                pairs.push((base.clone(), v));
            }
        }
        for (first, second) in pairs {
            let mut pool = KvBlockPool::new(4, BPT);
            let mut a = pool.new_table(8);
            pool.append(&mut a, &first);
            let differs = first.iter().zip(&second).position(|(x, y)| x != y).unwrap();
            let probed = pool.probe_shared_blocks(second.iter().copied());
            let mut b = pool.new_table(8);
            pool.append(&mut b, &second);
            let shared = pool.stats().shared_hit_bytes / pool.block_bytes();
            assert_eq!(shared as usize, differs / 4, "{first:?} vs {second:?}");
            assert_eq!(probed as u64, shared, "probe disagrees: {first:?} vs {second:?}");
            assert_eq!(pool.used_blocks(), 4 - differs / 4);
            pool.release(a);
            pool.release(b);
        }
    }

    #[test]
    fn partial_tail_inside_sharable_region_stays_private() {
        let mut pool = KvBlockPool::new(4, BPT);
        let mut a = pool.new_table(6);
        pool.append(&mut a, &[1, 2, 3, 4, 5, 6]);
        let mut b = pool.new_table(6);
        pool.append(&mut b, &[1, 2, 3, 4, 5, 6]);
        // First (full) block shared; 2-token tails private to each table.
        assert_eq!(pool.used_blocks(), 3);
        assert_eq!(pool.stats().shared_hit_bytes, 4 * BPT);
        // Appends into the private tails never CoW.
        pool.append(&mut a, &[7]);
        pool.append(&mut b, &[8]);
        assert_eq!(pool.stats().cow_copies, 0);
        assert_ne!(pool.block_stamps(&a, 1), pool.block_stamps(&b, 1));
        pool.release(a);
        pool.release(b);
    }

    #[test]
    fn cow_isolates_forked_tables() {
        // The satellite's aliasing property: fork a table mid-block, write
        // through one fork, and the sibling's bytes must be untouched.
        let mut pool = KvBlockPool::new(4, BPT);
        let mut a = pool.new_table(0);
        pool.append(&mut a, &[1, 2, 3, 4, 5, 6]); // partial tail [5, 6]
        let mut b = pool.fork(&a);
        assert_eq!(pool.used_blocks(), 2, "fork shares, does not copy");
        pool.append(&mut b, &[77]);
        assert_eq!(pool.stats().cow_copies, 1);
        assert_eq!(pool.stats().cow_copy_bytes, 2 * BPT, "two stamps copied");
        assert_eq!(pool.used_blocks(), 3);
        assert_eq!(pool.block_stamps(&a, 1), &[5, 6], "sibling untouched");
        assert_eq!(pool.block_stamps(&b, 1), &[5, 6, 77]);
        // The still-shared full block CoWs for whichever fork appends past
        // it... (it is full, so appends open new blocks — no aliasing).
        pool.append(&mut a, &[8, 9]);
        assert_eq!(pool.block_stamps(&b, 1), &[5, 6, 77], "a's append cannot reach b");
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.used_blocks(), 0);
    }

    #[test]
    fn appending_past_a_shared_prefix_never_mutates_it() {
        let mut pool = KvBlockPool::new(4, BPT);
        let prefix: Vec<u64> = (0..4).collect();
        let mut a = pool.new_table(4);
        pool.append(&mut a, &prefix);
        let mut b = pool.new_table(4);
        pool.append(&mut b, &prefix);
        assert_eq!(pool.used_blocks(), 1);
        // Both continue privately: the shared block is full, so each append
        // opens a fresh private block.
        pool.append(&mut a, &[10]);
        pool.append(&mut b, &[20]);
        assert_eq!(pool.used_blocks(), 3);
        assert_eq!(pool.block_stamps(&a, 0), pool.block_stamps(&b, 0));
        assert_eq!(pool.block_stamps(&a, 1), &[10]);
        assert_eq!(pool.block_stamps(&b, 1), &[20]);
        pool.release(a);
        pool.release(b);
    }

    #[test]
    fn probe_counts_resident_prefix_blocks_without_touching_refcounts() {
        let mut pool = KvBlockPool::new(4, BPT);
        let stamps: Vec<u64> = (0..8).collect();
        assert_eq!(pool.probe_shared_blocks(stamps.iter().copied()), 0);
        let mut a = pool.new_table(8);
        pool.append(&mut a, &stamps);
        assert_eq!(pool.probe_shared_blocks(stamps.iter().copied()), 2);
        // A diverging second block only credits the first.
        let diverge: Vec<u64> = (0..4).chain(90..94).collect();
        assert_eq!(pool.probe_shared_blocks(diverge.iter().copied()), 1);
        assert_eq!(pool.used_blocks(), 2, "probe allocates nothing");
        pool.release(a);
        assert_eq!(pool.probe_shared_blocks(stamps.iter().copied()), 0, "index cleared on free");
    }

    #[test]
    fn block_size_one_and_prime_sizes_behave() {
        for bt in [1usize, 3, 16, 17] {
            let mut pool = KvBlockPool::new(bt, BPT);
            let stamps: Vec<u64> = (0..37).collect();
            let mut a = pool.new_table(37);
            pool.append(&mut a, &stamps);
            assert_eq!(a.tokens(), 37);
            assert_eq!(a.blocks(), 37_usize.div_ceil(bt), "block count at size {bt}");
            let mut b = pool.new_table(37);
            pool.append(&mut b, &stamps);
            let full = 37 / bt;
            assert_eq!(
                pool.stats().shared_hit_bytes,
                (full * bt) as u64 * BPT,
                "full blocks shared at size {bt}"
            );
            pool.release(a);
            pool.release(b);
            assert_eq!(pool.used_blocks(), 0);
        }
    }
}
