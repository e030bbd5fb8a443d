//! Expert cache with LIFO / LFU / LRU replacement (Fig 15).
//!
//! Huang et al. observed a few hot experts dominate MoE inference and
//! proposed buffering them in GPU memory with a LIFO policy; SE-MoE uses
//! LFU. The paper evaluates caching on top of both Pre-gated MoE and
//! MoE-OnDemand with all three replacement policies — this type implements
//! the cache those experiments share.
//!
//! # Eviction index
//!
//! No operation scans the residents. Residency lives in a per-block table
//! indexed by expert id (keys are small `(block, expert)` integers, so
//! nothing is hashed) whose slots hold a `u32` index into one node per
//! resident. The nodes form a doubly-linked list in ascending `(rank, key)`
//! order. The rank is `last_used` under LRU, `uses` under LFU and
//! `u64::MAX − inserted_at` under LIFO, so the victim is always the list's
//! head: the smallest rank, ties broken by key order. The clock rises on
//! every access, which fixes where most moves land:
//!
//! - **LRU**: a hit or an insert carries the newest clock, so it always
//!   links at the tail. O(1).
//! - **LIFO**: an insert carries the newest clock, so the smallest rank,
//!   and links at the head; a hit never moves. O(1).
//! - **LFU**: a hit walks forward from the entry's old successor and an
//!   insert (at `uses = 1`) from the head. Either walk passes only entries
//!   tied with the old or the new count, so it is O(1) plus those ties.
//!
//! A lookup is O(1), an eviction unlinks the head in O(1), and
//! [`ExpertCache::set_capacity`] shrinking by k evictions is O(k). A
//! vacated node is reused by the next insert, so there are never more nodes
//! than the peak resident count. The table walks keys in order, which is
//! the order [`ExpertCache::state_fingerprint`] hashes them in.

use crate::Replacement;

/// Identity of an expert: (MoE block index, expert index within the block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExpertKey {
    /// MoE block the expert belongs to.
    pub block: usize,
    /// Expert index within the block.
    pub expert: usize,
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups that found the expert resident.
    pub hits: u64,
    /// Number of lookups that missed.
    pub misses: u64,
    /// Number of evictions performed.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (0 for an unused cache).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    inserted_at: u64,
    last_used: u64,
    uses: u64,
}

/// An entry's position in the eviction list under `replacement`: the
/// smallest rank is evicted first.
fn rank(replacement: Replacement, e: &Entry) -> u64 {
    match replacement {
        // LIFO keeps early residents and evicts the newest arrival —
        // that is what protects hot experts admitted early.
        Replacement::Lifo => u64::MAX - e.inserted_at,
        Replacement::Lfu => e.uses,
        Replacement::Lru => e.last_used,
    }
}

/// No node: an empty table slot, or the end of the eviction list.
const NIL: u32 = u32::MAX;

/// One resident: its entry and its neighbours in the eviction list.
#[derive(Debug, Clone, Copy)]
struct Node {
    key: ExpertKey,
    entry: Entry,
    prev: u32,
    next: u32,
}

/// A fixed-capacity set of GPU-resident experts.
///
/// `access` performs lookup + admission in one step, mirroring how the
/// serving loop touches the cache: every fetched expert is admitted, evicting
/// per the configured policy when full.
///
/// # Example
///
/// ```
/// use pgmoe_runtime::{ExpertCache, ExpertKey, Replacement};
///
/// let mut cache = ExpertCache::new(1, Replacement::Lru);
/// let a = ExpertKey { block: 0, expert: 3 };
/// let b = ExpertKey { block: 0, expert: 5 };
/// assert!(!cache.access(a)); // miss, admitted
/// assert!(cache.access(a));  // hit
/// assert!(!cache.access(b)); // miss, evicts a (LRU)
/// assert!(!cache.access(a));
/// ```
#[derive(Debug, Clone)]
pub struct ExpertCache {
    capacity: usize,
    replacement: Replacement,
    /// Residency table, `slots[block][expert]`: the resident's index into
    /// `nodes`, or [`NIL`]. Grown on insert; four bytes a slot, so a
    /// replica's table stays small however many experts it has seen.
    slots: Vec<Vec<u32>>,
    /// One node per resident; a vacated node's index waits in `free`.
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// Ends of the eviction list, which runs through `nodes` in ascending
    /// `(rank, key)` order: the head is the victim.
    head: u32,
    tail: u32,
    clock: u64,
    stats: CacheStats,
}

impl ExpertCache {
    /// Creates a cache holding up to `capacity` experts.
    pub fn new(capacity: usize, replacement: Replacement) -> Self {
        ExpertCache {
            capacity,
            replacement,
            slots: Vec::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Cache capacity in experts.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of experts currently resident.
    pub fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Whether the cache holds no experts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `key` is resident, without touching recency/frequency state.
    pub fn contains(&self, key: ExpertKey) -> bool {
        self.node_of(key).is_some()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `key`; on a miss the expert is admitted (evicting if full).
    /// Returns whether the lookup was a hit.
    pub fn access(&mut self, key: ExpertKey) -> bool {
        self.access_with(key, true, None)
    }

    /// Policy-steered lookup: like [`ExpertCache::access`], but a scheduler
    /// may veto admission on a miss (`admit = false`) or suggest a preferred
    /// eviction victim (`evict_hint`; ignored unless resident). The
    /// hit/miss counters are identical to `access` either way — only what
    /// ends up resident changes.
    pub fn access_with(
        &mut self,
        key: ExpertKey,
        admit: bool,
        evict_hint: Option<ExpertKey>,
    ) -> bool {
        self.access_consulting(key, || (admit, evict_hint))
    }

    /// [`ExpertCache::access_with`] whose admission decision and eviction
    /// hint come from `policy`, called only on a miss that may admit: a
    /// hit, the bulk of accesses to a warm cache, never asks the scheduler.
    pub(crate) fn access_consulting(
        &mut self,
        key: ExpertKey,
        policy: impl FnOnce() -> (bool, Option<ExpertKey>),
    ) -> bool {
        self.clock += 1;
        if self.capacity == 0 {
            self.stats.misses += 1;
            return false;
        }
        if let Some(i) = self.node_of(key) {
            let node = &mut self.nodes[i as usize];
            let before = rank(self.replacement, &node.entry);
            node.entry.last_used = self.clock;
            node.entry.uses += 1;
            let successor = node.next;
            if rank(self.replacement, &node.entry) != before {
                // The rank only rose: LRU now outranks everyone, LFU
                // passes at most the ties after its old place.
                self.unlink(i);
                let from = match self.replacement {
                    Replacement::Lfu => successor,
                    _ => self.tail,
                };
                self.link(i, from);
            }
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        let (admit, evict_hint) = policy();
        if !admit {
            return false;
        }
        if self.len() >= self.capacity {
            let victim = evict_hint
                .filter(|hint| *hint != key)
                .and_then(|hint| self.node_of(hint))
                .or_else(|| self.victim());
            if let Some(victim) = victim {
                self.remove(victim);
                self.stats.evictions += 1;
            }
        }
        let node = Node {
            key,
            entry: Entry { inserted_at: self.clock, last_used: self.clock, uses: 1 },
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                u32::try_from(self.nodes.len() - 1).expect("fewer than u32::MAX residents")
            }
        };
        if self.slots.len() <= key.block {
            self.slots.resize_with(key.block + 1, Vec::new);
        }
        let row = &mut self.slots[key.block];
        if row.len() <= key.expert {
            row.resize(key.expert + 1, NIL);
        }
        row[key.expert] = i;
        // The newest clock: LRU's largest rank, LIFO's smallest, and LFU's
        // smallest count (ties with other single-use residents by key).
        let from = match self.replacement {
            Replacement::Lru => self.tail,
            _ => self.head,
        };
        self.link(i, from);
        false
    }

    /// Resizes the cache to hold `capacity` experts, evicting down through
    /// the configured replacement policy when the new capacity is below the
    /// current residency. This is the KV-arbitration seam: the paged-KV
    /// session shrinks the cache when KV blocks need its HBM and regrows it
    /// when headroom returns.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.len() > self.capacity {
            let victim = self.victim().expect("an over-full cache has a victim");
            self.remove(victim);
            self.stats.evictions += 1;
        }
    }

    /// Shift-invariant fingerprint of the cache's decision-relevant state,
    /// used as the residency component of a compiled-plan cache key.
    ///
    /// Two states share a fingerprint only when every future
    /// lookup/eviction decision would be identical: the hash covers
    /// capacity, replacement policy, the resident key set, each entry's
    /// recency expressed as `clock - last_used` (invariant under the
    /// uniform clock advance of a steady-state iteration), and the
    /// *ranks* (with ties preserved) of `uses` and `inserted_at` — the
    /// orderings [`ExpertCache::set_capacity`] and eviction consult —
    /// rather than their raw counters, so two iterations that touch the
    /// same residents in the same relative order fingerprint equal even
    /// though the absolute clock has moved on.
    pub fn state_fingerprint(&self) -> u64 {
        // The table walks keys in `ExpertKey` order already.
        let nodes = &self.nodes;
        let residents = self.slots.iter().enumerate().flat_map(|(block, row)| {
            row.iter()
                .enumerate()
                .filter(|&(_, &i)| i != NIL)
                .map(move |(expert, &i)| (ExpertKey { block, expert }, nodes[i as usize].entry))
        });
        fingerprint(self.capacity, self.replacement, self.clock, residents)
    }

    /// `key`'s node, if it is resident (a key past the table's end is not).
    fn node_of(&self, key: ExpertKey) -> Option<u32> {
        let i = *self.slots.get(key.block)?.get(key.expert)?;
        (i != NIL).then_some(i)
    }

    /// Node `i`'s place in the eviction order.
    fn order_key(&self, i: u32) -> (u64, ExpertKey) {
        let node = &self.nodes[i as usize];
        (rank(self.replacement, &node.entry), node.key)
    }

    /// The eviction candidate's node under the configured policy: the
    /// list's head, so ties break by key order.
    fn victim(&self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }

    /// Links unlinked node `i` into the eviction list, walking forward from
    /// node `from` ([`NIL`]: the tail end) past every node that sorts before
    /// it. Every node before `from` must already sort before `i`.
    fn link(&mut self, i: u32, from: u32) {
        let target = self.order_key(i);
        let mut at = from;
        while at != NIL && self.order_key(at) < target {
            at = self.nodes[at as usize].next;
        }
        let prev = if at == NIL { self.tail } else { self.nodes[at as usize].prev };
        let node = &mut self.nodes[i as usize];
        node.prev = prev;
        node.next = at;
        match prev {
            NIL => self.head = i,
            p => self.nodes[p as usize].next = i,
        }
        match at {
            NIL => self.tail = i,
            n => self.nodes[n as usize].prev = i,
        }
    }

    /// Unlinks node `i` from the eviction list (it stays resident).
    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Drops resident node `i` from the list and the table.
    fn remove(&mut self, i: u32) {
        let key = self.nodes[i as usize].key;
        self.unlink(i);
        self.slots[key.block][key.expert] = NIL;
        self.free.push(i);
    }

    /// The eviction list head to tail, checking every back link on the way.
    #[cfg(test)]
    fn order(&self) -> impl Iterator<Item = ExpertKey> + '_ {
        let first = (self.head != NIL).then_some(self.head);
        std::iter::successors(first, move |&i| {
            let next = self.nodes[i as usize].next;
            let back = if next == NIL { self.tail } else { self.nodes[next as usize].prev };
            assert_eq!(back, i, "broken back link after {:?}", self.nodes[i as usize].key);
            (next != NIL).then_some(next)
        })
        .map(|i| self.nodes[i as usize].key)
    }
}

/// FNV-1a over capacity, policy, and each resident in key order with its
/// recency and its tie-preserving `uses` / `inserted_at` ranks.
fn fingerprint(
    capacity: usize,
    replacement: Replacement,
    clock: u64,
    residents: impl Iterator<Item = (ExpertKey, Entry)>,
) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    fn mix(h: u64, v: u64) -> u64 {
        let mut h = h;
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }
    // Tie-preserving rank: entries sharing a raw value share a rank.
    fn ranks(values: &[u64]) -> Vec<u64> {
        let mut sorted: Vec<u64> = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        values
            .iter()
            .map(|v| sorted.binary_search(v).expect("rank of present value") as u64)
            .collect()
    }
    let residents: Vec<(ExpertKey, Entry)> = residents.collect();
    let uses: Vec<u64> = residents.iter().map(|(_, e)| e.uses).collect();
    let inserted: Vec<u64> = residents.iter().map(|(_, e)| e.inserted_at).collect();
    let use_ranks = ranks(&uses);
    let ins_ranks = ranks(&inserted);
    let mut h = FNV_OFFSET;
    h = mix(h, capacity as u64);
    h = mix(
        h,
        match replacement {
            Replacement::Lifo => 1,
            Replacement::Lfu => 2,
            Replacement::Lru => 3,
        },
    );
    h = mix(h, residents.len() as u64);
    for (i, (k, e)) in residents.iter().enumerate() {
        h = mix(h, k.block as u64);
        h = mix(h, k.expert as u64);
        h = mix(h, clock - e.last_used);
        h = mix(h, use_ranks[i]);
        h = mix(h, ins_ranks[i]);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn key(block: usize, expert: usize) -> ExpertKey {
        ExpertKey { block, expert }
    }

    /// The linear-scan cache the eviction index replaced, kept as the
    /// oracle: a `HashMap` of entries and a `(value, key)` minimum over all
    /// of them per eviction.
    struct LinearCache {
        capacity: usize,
        replacement: Replacement,
        entries: HashMap<ExpertKey, Entry>,
        clock: u64,
        stats: CacheStats,
    }

    impl LinearCache {
        fn new(capacity: usize, replacement: Replacement) -> Self {
            LinearCache {
                capacity,
                replacement,
                entries: HashMap::new(),
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn access_with(
            &mut self,
            key: ExpertKey,
            admit: bool,
            evict_hint: Option<ExpertKey>,
        ) -> bool {
            self.clock += 1;
            if self.capacity == 0 {
                self.stats.misses += 1;
                return false;
            }
            if let Some(e) = self.entries.get_mut(&key) {
                e.last_used = self.clock;
                e.uses += 1;
                self.stats.hits += 1;
                return true;
            }
            self.stats.misses += 1;
            if !admit {
                return false;
            }
            if self.entries.len() >= self.capacity {
                let victim = evict_hint
                    .filter(|hint| *hint != key && self.entries.contains_key(hint))
                    .or_else(|| self.pick_victim());
                if let Some(victim) = victim {
                    self.entries.remove(&victim);
                    self.stats.evictions += 1;
                }
            }
            self.entries
                .insert(key, Entry { inserted_at: self.clock, last_used: self.clock, uses: 1 });
            false
        }

        fn set_capacity(&mut self, capacity: usize) {
            self.capacity = capacity;
            while self.entries.len() > self.capacity {
                match self.pick_victim() {
                    Some(victim) => {
                        self.entries.remove(&victim);
                        self.stats.evictions += 1;
                    }
                    None => break,
                }
            }
        }

        fn state_fingerprint(&self) -> u64 {
            let mut keys: Vec<ExpertKey> = self.entries.keys().copied().collect();
            keys.sort_unstable();
            let residents = keys.iter().map(|k| (*k, self.entries[k]));
            fingerprint(self.capacity, self.replacement, self.clock, residents)
        }

        /// Every resident in eviction order: ascending `(rank, key)`.
        fn eviction_order(&self) -> Vec<ExpertKey> {
            let mut keys: Vec<ExpertKey> = self.entries.keys().copied().collect();
            keys.sort_unstable_by_key(|k| (rank(self.replacement, &self.entries[k]), *k));
            keys
        }

        fn pick_victim(&self) -> Option<ExpertKey> {
            let best = |f: fn(&Entry) -> u64, prefer_large: bool| {
                self.entries
                    .iter()
                    .min_by_key(|(k, e)| {
                        let v = f(e);
                        (if prefer_large { u64::MAX - v } else { v }, **k)
                    })
                    .map(|(k, _)| *k)
            };
            match self.replacement {
                Replacement::Lifo => best(|e| e.inserted_at, true),
                Replacement::Lfu => best(|e| e.uses, false),
                Replacement::Lru => best(|e| e.last_used, false),
            }
        }
    }

    /// The eviction list against the linear scan over seeded streams:
    /// every policy × admission vetoes × eviction hints (resident, absent,
    /// the accessed key itself) × `set_capacity` shrink and regrow ×
    /// capacities 0, 1 and 115. Return values, counters, residency,
    /// fingerprints and the list's order must agree after every step.
    #[test]
    fn indexed_cache_matches_linear_scan_oracle() {
        const BLOCKS: usize = 12;
        const EXPERTS: usize = 64;
        for policy in Replacement::ALL {
            for capacity in [0usize, 1, 115] {
                for (vetoes, hints, resizes) in (0..8).map(|m| (m & 1 != 0, m & 2 != 0, m & 4 != 0))
                {
                    let tag = format!(
                        "{policy:?} cap {capacity} vetoes {vetoes} hints {hints} resizes {resizes}"
                    );
                    let mut fast = ExpertCache::new(capacity, policy);
                    let mut slow = LinearCache::new(capacity, policy);
                    let mut state = 0x9E37_79B9u64 ^ capacity as u64;
                    let mut next = move |n: usize| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 33) as usize % n
                    };
                    for step in 0..800 {
                        // Two thirds of the traffic on a 160-key hot set,
                        // so every policy both hits and evicts.
                        let id = if next(3) < 2 { next(160) * 5 } else { next(BLOCKS * EXPERTS) };
                        let k = key(id / EXPERTS, id % EXPERTS);
                        let admit = !vetoes || next(4) != 0;
                        let hint = if !hints {
                            None
                        } else {
                            match next(4) {
                                0 => None,
                                1 => Some(k),
                                2 => Some(key(BLOCKS + 3, next(EXPERTS))),
                                // The first resident at or after a random
                                // key, when there is one.
                                _ => {
                                    let from = next(BLOCKS * EXPERTS);
                                    (0..BLOCKS * EXPERTS)
                                        .map(|i| (from + i) % (BLOCKS * EXPERTS))
                                        .map(|i| key(i / EXPERTS, i % EXPERTS))
                                        .find(|&r| slow.entries.contains_key(&r))
                                }
                            }
                        };
                        assert_eq!(
                            fast.access_with(k, admit, hint),
                            slow.access_with(k, admit, hint),
                            "{tag}: step {step} hit"
                        );
                        if resizes && next(40) == 0 {
                            let to = match next(3) {
                                0 => capacity / 2,
                                1 => 0,
                                _ => capacity + next(8),
                            };
                            fast.set_capacity(to);
                            slow.set_capacity(to);
                        }
                        assert_eq!(fast.stats(), slow.stats, "{tag}: step {step} stats");
                        assert_eq!(fast.len(), slow.entries.len(), "{tag}: step {step} len");
                        assert_eq!(fast.capacity(), slow.capacity, "{tag}: step {step} capacity");
                        assert_eq!(
                            fast.state_fingerprint(),
                            slow.state_fingerprint(),
                            "{tag}: step {step} fingerprint"
                        );
                        assert_eq!(fast.contains(k), slow.entries.contains_key(&k), "{tag}");
                        assert_eq!(
                            fast.order().collect::<Vec<_>>(),
                            slow.eviction_order(),
                            "{tag}: step {step} eviction order"
                        );
                        if step % 64 == 0 {
                            for b in 0..=BLOCKS {
                                for e in 0..EXPERTS {
                                    assert_eq!(
                                        fast.contains(key(b, e)),
                                        slow.entries.contains_key(&key(b, e)),
                                        "{tag}: step {step} residency of ({b}, {e})"
                                    );
                                }
                            }
                        }
                    }
                    if capacity > 1 {
                        let s = fast.stats();
                        assert!(s.hits > 0 && s.evictions > 0, "{tag}: stream too tame: {s:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ExpertCache::new(2, Replacement::Lru);
        c.access(key(0, 0));
        c.access(key(0, 1));
        c.access(key(0, 0)); // refresh 0
        c.access(key(0, 2)); // evicts 1
        assert!(c.contains(key(0, 0)));
        assert!(!c.contains(key(0, 1)));
        assert!(c.contains(key(0, 2)));
    }

    #[test]
    fn lfu_evicts_least_frequently_used() {
        let mut c = ExpertCache::new(2, Replacement::Lfu);
        c.access(key(0, 0));
        c.access(key(0, 0));
        c.access(key(0, 0));
        c.access(key(0, 1));
        c.access(key(0, 2)); // evicts 1 (1 use vs 3)
        assert!(c.contains(key(0, 0)));
        assert!(!c.contains(key(0, 1)));
    }

    #[test]
    fn lifo_protects_early_residents() {
        let mut c = ExpertCache::new(2, Replacement::Lifo);
        c.access(key(0, 0)); // early resident
        c.access(key(0, 1));
        c.access(key(0, 2)); // evicts 1 (newest), keeps 0
        assert!(c.contains(key(0, 0)));
        assert!(!c.contains(key(0, 1)));
        assert!(c.contains(key(0, 2)));
    }

    #[test]
    fn stats_count_hits_misses_evictions() {
        let mut c = ExpertCache::new(1, Replacement::Lru);
        c.access(key(0, 0)); // miss
        c.access(key(0, 0)); // hit
        c.access(key(0, 1)); // miss + eviction
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.evictions, 1);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut c = ExpertCache::new(0, Replacement::Lfu);
        assert!(!c.access(key(0, 0)));
        assert!(!c.access(key(0, 0)));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn hot_expert_survives_under_all_policies() {
        // A Zipf-hot expert accessed every other step should stay resident
        // under LFU and LRU, and under LIFO if admitted first.
        for policy in Replacement::ALL {
            let mut c = ExpertCache::new(4, policy);
            c.access(key(0, 99)); // hot expert admitted first
            for i in 0..50 {
                c.access(key(0, 99));
                c.access(key(0, i % 10));
            }
            assert!(c.contains(key(0, 99)), "{policy:?} evicted the hot expert");
        }
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut c = ExpertCache::new(3, Replacement::Lru);
        for i in 0..100 {
            c.access(key(i % 7, i));
            assert!(c.len() <= 3);
        }
    }

    #[test]
    fn gated_access_counts_miss_without_admitting() {
        let mut c = ExpertCache::new(2, Replacement::Lru);
        assert!(!c.access_with(key(0, 0), false, None));
        assert_eq!(c.len(), 0, "vetoed admission must not insert");
        assert_eq!(c.stats().misses, 1);
        assert!(!c.access_with(key(0, 0), true, None));
        assert!(c.contains(key(0, 0)));
    }

    #[test]
    fn eviction_hint_overrides_replacement_policy() {
        let mut c = ExpertCache::new(2, Replacement::Lru);
        c.access(key(0, 0));
        c.access(key(0, 1));
        c.access(key(0, 0)); // 1 is now the LRU victim
                             // Hint at evicting 0 instead: the hint wins over LRU.
        assert!(!c.access_with(key(0, 2), true, Some(key(0, 0))));
        assert!(!c.contains(key(0, 0)));
        assert!(c.contains(key(0, 1)));
        assert!(c.contains(key(0, 2)));
        assert_eq!(c.stats().evictions, 1);
        // A non-resident hint falls back to the configured policy.
        assert!(!c.access_with(key(0, 3), true, Some(key(9, 9))));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn state_fingerprint_is_shift_invariant_but_order_sensitive() {
        // Steady state: two iterations that touch the same residents in the
        // same order fingerprint equal despite the advancing clock.
        let mut c = ExpertCache::new(3, Replacement::Lru);
        c.access(key(0, 0));
        c.access(key(0, 1));
        c.access(key(0, 2));
        c.access(key(0, 0));
        c.access(key(0, 1));
        c.access(key(0, 2));
        let f1 = c.state_fingerprint();
        c.access(key(0, 0));
        c.access(key(0, 1));
        c.access(key(0, 2));
        let f2 = c.state_fingerprint();
        assert_eq!(f1, f2, "uniform clock shift must not change the fingerprint");
        // Divergent relative recency (which flips the LRU victim) must.
        c.access(key(0, 2));
        c.access(key(0, 1));
        c.access(key(0, 0));
        assert_ne!(f1, c.state_fingerprint(), "recency reorder must change the fingerprint");
        // A different resident set must too.
        let mut d = ExpertCache::new(3, Replacement::Lru);
        d.access(key(0, 0));
        d.access(key(0, 1));
        assert_ne!(f1, d.state_fingerprint());
        // And a different capacity with the same residents.
        let mut e = ExpertCache::new(4, Replacement::Lru);
        e.access(key(0, 0));
        e.access(key(0, 1));
        e.access(key(0, 2));
        e.access(key(0, 0));
        e.access(key(0, 1));
        e.access(key(0, 2));
        assert_ne!(f1, e.state_fingerprint());
    }

    #[test]
    fn eviction_counters_stay_consistent_under_all_policies() {
        // Accounting identities that must hold for every replacement policy
        // on any access stream: each lookup is a hit or a miss, each miss
        // admits exactly one entry, each eviction removes exactly one — so
        // residency always equals misses − evictions.
        for policy in Replacement::ALL {
            let mut c = ExpertCache::new(5, policy);
            let mut state = 0x1234_5678u64;
            let mut accesses = 0u64;
            for _ in 0..500 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let block = (state >> 33) as usize % 3;
                let expert = (state >> 40) as usize % 12;
                c.access(key(block, expert));
                accesses += 1;
                let s = c.stats();
                assert_eq!(s.hits + s.misses, accesses, "{policy:?}: lookup accounting");
                assert_eq!(
                    c.len() as u64,
                    s.misses - s.evictions,
                    "{policy:?}: residency = misses − evictions"
                );
                assert!(c.len() <= 5, "{policy:?}: capacity respected");
            }
            let s = c.stats();
            assert!(s.evictions > 0, "{policy:?}: stream must overflow the cache");
            assert!(s.hits > 0, "{policy:?}: stream must re-touch residents");
            assert!((0.0..=1.0).contains(&s.hit_rate()));
        }
    }
}
