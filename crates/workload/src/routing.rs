//! Expert-routing traces for the systems experiments.
//!
//! The inference-side experiments (Figs 10–12, 14–16) need to know *which*
//! experts each token activates at every MoE block, but not the weight
//! values. A [`RoutingTrace`] supplies those decisions with controllable
//! statistics:
//!
//! * [`RoutingKind::Uniform`] — every expert equally likely; the conservative
//!   assumption used for the latency/memory experiments.
//! * [`RoutingKind::Zipf`] — a few hot experts dominate, the behaviour Huang
//!   et al. observed and that the paper's Fig 15 caching study relies on.
//! * [`RoutingKind::DomainSticky`] — consecutive tokens tend to reuse the
//!   previous token's expert (temporal locality across decode iterations).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Statistical family of a routing trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoutingKind {
    /// Independent uniform choice over experts.
    Uniform,
    /// Independent Zipf-distributed choice with exponent `s` (rank 1 is the
    /// hottest expert). `s ≈ 1.0` reproduces the "few hot experts" shape.
    Zipf {
        /// Zipf exponent; larger = more skew.
        s: f64,
    },
    /// Zipf routing with per-request *domain* structure: the trace's seed
    /// deterministically picks one of `domains` rotations of the expert
    /// ranking, so requests of the same domain share a hot-expert set while
    /// different domains hammer disjoint regions of the expert space. This
    /// is the population heterogeneity real serving fleets see (different
    /// tenants/tasks route to different experts) and what cache-affinity
    /// dispatch exploits.
    ZipfDomains {
        /// Zipf exponent within each domain; larger = more skew.
        s: f64,
        /// Number of distinct domains the seed space maps onto (>= 1).
        domains: usize,
    },
    /// Markovian reuse: with probability `stickiness` a token keeps its
    /// previous block's expert, otherwise it re-samples uniformly.
    DomainSticky {
        /// Probability of reusing the previous expert.
        stickiness: f64,
    },
}

/// A complete routing decision tensor: `trace[token][block]` is the sorted
/// set of experts activated by decode-token `token` at MoE block `block`.
///
/// Every set has exactly `top_k` experts, so the tensor is stored flat, one
/// `Vec<usize>` laid out `[token][block][k]`: the set for `(token, block)`
/// starts at `(token · num_blocks + block) · top_k`.
///
/// # Example
///
/// ```
/// use pgmoe_workload::{RoutingKind, RoutingTrace};
///
/// let trace = RoutingTrace::generate(16, 12, 64, 1, RoutingKind::Uniform, 7);
/// assert_eq!(trace.num_tokens(), 16);
/// assert_eq!(trace.num_blocks(), 12);
/// assert_eq!(trace.experts(0, 0).len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingTrace {
    num_tokens: usize,
    /// 0 when the trace has no tokens.
    num_blocks: usize,
    num_experts: usize,
    top_k: usize,
    decisions: Vec<usize>,
}

impl RoutingTrace {
    /// Generates a seeded trace for `num_tokens` decode iterations over
    /// `num_blocks` MoE blocks, activating `top_k` of `num_experts` experts.
    /// A caller drawing many traces of one kind should hold a
    /// [`RoutingSampler`], which builds the Zipf table once.
    ///
    /// # Panics
    ///
    /// Panics if `top_k == 0` or `top_k > num_experts`.
    pub fn generate(
        num_tokens: usize,
        num_blocks: usize,
        num_experts: usize,
        top_k: usize,
        kind: RoutingKind,
        seed: u64,
    ) -> Self {
        RoutingSampler::new(kind, num_experts).generate(num_tokens, num_blocks, top_k, seed)
    }

    /// Number of decode iterations in the trace.
    pub fn num_tokens(&self) -> usize {
        self.num_tokens
    }

    /// Number of MoE blocks per iteration.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Number of experts per block.
    pub fn num_experts(&self) -> usize {
        self.num_experts
    }

    /// Experts activated per token per block (`top_k` of them).
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// The sorted expert set activated by `token` at `block`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn experts(&self, token: usize, block: usize) -> &[usize] {
        assert!(
            token < self.num_tokens && block < self.num_blocks,
            "routing position ({token}, {block}) out of range"
        );
        let start = (token * self.num_blocks + block) * self.top_k;
        &self.decisions[start..start + self.top_k]
    }

    /// Per-expert activation counts across the whole trace (for skew
    /// diagnostics and cache-hit analysis).
    pub fn activation_histogram(&self) -> Vec<u64> {
        let mut hist = vec![0u64; self.num_experts];
        for &e in &self.decisions {
            hist[e] += 1;
        }
        hist
    }
}

/// A [`RoutingKind`] over a fixed expert count with its sampling table
/// built once: the Zipf CDF costs one `powf` per expert, which a serving
/// loop drawing one trace per request would otherwise pay every time.
///
/// # Example
///
/// ```
/// use pgmoe_workload::{RoutingKind, RoutingSampler, RoutingTrace};
///
/// let kind = RoutingKind::ZipfDomains { s: 1.5, domains: 4 };
/// let sampler = RoutingSampler::new(kind, 64);
/// for seed in 0..3 {
///     assert_eq!(sampler.generate(8, 6, 1, seed), RoutingTrace::generate(8, 6, 64, 1, kind, seed));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RoutingSampler {
    kind: RoutingKind,
    num_experts: usize,
    zipf_cdf: Option<Vec<f64>>,
}

impl RoutingSampler {
    /// A sampler of `kind` routing over `num_experts` experts.
    pub fn new(kind: RoutingKind, num_experts: usize) -> Self {
        let zipf_cdf = match kind {
            RoutingKind::Zipf { s } | RoutingKind::ZipfDomains { s, .. } => {
                Some(zipf_cdf(num_experts, s))
            }
            _ => None,
        };
        RoutingSampler { kind, num_experts, zipf_cdf }
    }

    /// The trace [`RoutingTrace::generate`] returns for this sampler's kind
    /// and expert count.
    ///
    /// # Panics
    ///
    /// Panics if `top_k == 0` or `top_k > num_experts`.
    pub fn generate(
        &self,
        num_tokens: usize,
        num_blocks: usize,
        top_k: usize,
        seed: u64,
    ) -> RoutingTrace {
        let num_experts = self.num_experts;
        assert!(top_k >= 1 && top_k <= num_experts, "top_k out of range");
        let mut rng = StdRng::seed_from_u64(seed);
        // Domain rotation: rank r lands on expert (r + offset) mod E, so
        // each domain's hot set occupies its own region of the expert space.
        let domain_offset = match self.kind {
            RoutingKind::ZipfDomains { domains, .. } => {
                let d = domain_of(seed, domains);
                d * (num_experts / domains.clamp(1, num_experts)).max(1) % num_experts
            }
            _ => 0,
        };
        let mut decisions = Vec::with_capacity(num_tokens * num_blocks * top_k);
        let row = num_blocks * top_k;
        for token in 0..num_tokens {
            for _ in 0..num_blocks {
                match self.kind {
                    RoutingKind::Uniform => {
                        sample_distinct(num_experts, top_k, &mut rng, &mut decisions, |r| {
                            r.gen_range(0..num_experts)
                        })
                    }
                    RoutingKind::Zipf { .. } => {
                        let cdf = self.zipf_cdf.as_ref().expect("zipf cdf");
                        sample_distinct(num_experts, top_k, &mut rng, &mut decisions, |r| {
                            sample_from_cdf(cdf, r)
                        })
                    }
                    RoutingKind::ZipfDomains { .. } => {
                        let cdf = self.zipf_cdf.as_ref().expect("zipf cdf");
                        // Both terms are below `num_experts`: one subtraction
                        // wraps the sum, with no division per draw.
                        sample_distinct(num_experts, top_k, &mut rng, &mut decisions, |r| {
                            let e = sample_from_cdf(cdf, r) + domain_offset;
                            if e >= num_experts {
                                e - num_experts
                            } else {
                                e
                            }
                        })
                    }
                    RoutingKind::DomainSticky { stickiness } => {
                        if token > 0 && rng.gen_bool(stickiness.clamp(0.0, 1.0)) {
                            let prev = decisions.len() - row;
                            decisions.extend_from_within(prev..prev + top_k);
                        } else {
                            sample_distinct(num_experts, top_k, &mut rng, &mut decisions, |r| {
                                r.gen_range(0..num_experts)
                            })
                        }
                    }
                }
            }
        }
        let num_blocks = if num_tokens == 0 { 0 } else { num_blocks };
        RoutingTrace { num_tokens, num_blocks, num_experts, top_k, decisions }
    }
}

/// Draws `k` *distinct* experts using `draw`, resampling duplicates, and
/// appends them to `out` sorted.
fn sample_distinct(
    num_experts: usize,
    k: usize,
    rng: &mut StdRng,
    out: &mut Vec<usize>,
    mut draw: impl FnMut(&mut StdRng) -> usize,
) {
    let base = out.len();
    // Resampling terminates quickly because k ≪ num_experts in every
    // experiment; fall back to a linear fill for k close to num_experts.
    let mut attempts = 0;
    while out.len() - base < k {
        let e = draw(rng);
        if !out[base..].contains(&e) {
            out.push(e);
        }
        attempts += 1;
        if attempts > 64 * k {
            for e in 0..num_experts {
                if out.len() - base == k {
                    break;
                }
                if !out[base..].contains(&e) {
                    out.push(e);
                }
            }
        }
    }
    out[base..].sort_unstable();
}

/// The domain a routing seed maps onto under [`RoutingKind::ZipfDomains`] —
/// exposed so a dispatcher can predict a request's hot-expert region from
/// its route seed alone.
pub fn domain_of(seed: u64, domains: usize) -> usize {
    if domains <= 1 {
        return 0;
    }
    ((seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize) % domains
}

/// Cumulative distribution of a Zipf law over ranks `0..n` with exponent `s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for w in weights {
        acc += w / total;
        cdf.push(acc);
    }
    cdf
}

fn sample_from_cdf(cdf: &[f64], rng: &mut StdRng) -> usize {
    let u: f64 = rng.gen();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The nested generator the flat layout replaced, kept as the oracle:
    /// one `Vec` per (token, block), the previous token's row cloned.
    fn nested_generate(
        num_tokens: usize,
        num_blocks: usize,
        num_experts: usize,
        top_k: usize,
        kind: RoutingKind,
        seed: u64,
    ) -> Vec<Vec<Vec<usize>>> {
        fn sample(
            num_experts: usize,
            k: usize,
            rng: &mut StdRng,
            mut draw: impl FnMut(&mut StdRng) -> usize,
        ) -> Vec<usize> {
            let mut chosen: Vec<usize> = Vec::with_capacity(k);
            let mut attempts = 0;
            while chosen.len() < k {
                let e = draw(rng);
                if !chosen.contains(&e) {
                    chosen.push(e);
                }
                attempts += 1;
                if attempts > 64 * k {
                    for e in 0..num_experts {
                        if chosen.len() == k {
                            break;
                        }
                        if !chosen.contains(&e) {
                            chosen.push(e);
                        }
                    }
                }
            }
            chosen.sort_unstable();
            chosen
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let zipf_cdf = match kind {
            RoutingKind::Zipf { s } | RoutingKind::ZipfDomains { s, .. } => {
                Some(zipf_cdf(num_experts, s))
            }
            _ => None,
        };
        let domain_offset = match kind {
            RoutingKind::ZipfDomains { domains, .. } => {
                domain_of(seed, domains) * (num_experts / domains.clamp(1, num_experts)).max(1)
            }
            _ => 0,
        };
        let mut decisions = Vec::with_capacity(num_tokens);
        let mut prev: Vec<Vec<usize>> = Vec::new();
        for token in 0..num_tokens {
            let mut per_block = Vec::with_capacity(num_blocks);
            for block in 0..num_blocks {
                let experts = match kind {
                    RoutingKind::Uniform => {
                        sample(num_experts, top_k, &mut rng, |r| r.gen_range(0..num_experts))
                    }
                    RoutingKind::Zipf { .. } => {
                        let cdf = zipf_cdf.as_ref().expect("zipf cdf");
                        sample(num_experts, top_k, &mut rng, |r| sample_from_cdf(cdf, r))
                    }
                    RoutingKind::ZipfDomains { .. } => {
                        let cdf = zipf_cdf.as_ref().expect("zipf cdf");
                        sample(num_experts, top_k, &mut rng, |r| {
                            (sample_from_cdf(cdf, r) + domain_offset) % num_experts
                        })
                    }
                    RoutingKind::DomainSticky { stickiness } => {
                        if token > 0 && rng.gen_bool(stickiness.clamp(0.0, 1.0)) {
                            prev[block].clone()
                        } else {
                            sample(num_experts, top_k, &mut rng, |r| r.gen_range(0..num_experts))
                        }
                    }
                };
                per_block.push(experts);
            }
            prev = per_block.clone();
            decisions.push(per_block);
        }
        decisions
    }

    #[test]
    fn flat_trace_matches_nested_generator() {
        let kinds = [
            RoutingKind::Uniform,
            RoutingKind::Zipf { s: 1.2 },
            RoutingKind::ZipfDomains { s: 1.5, domains: 4 },
            // More domains than the smallest shape has experts: the
            // rotation offset itself wraps.
            RoutingKind::ZipfDomains { s: 1.5, domains: 7 },
            RoutingKind::DomainSticky { stickiness: 0.7 },
        ];
        // (tokens, blocks, experts): the serving shapes, plus 4 experts
        // under top-4, where Zipf draws exhaust the resampling budget and
        // take the linear fill.
        for (tokens, blocks, experts) in [(40, 6, 64), (25, 12, 8), (30, 3, 4)] {
            for kind in kinds {
                for top_k in [1, 2, 4] {
                    for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
                        let tag = format!("{kind:?} top-{top_k} seed {seed} E={experts}");
                        let flat =
                            RoutingTrace::generate(tokens, blocks, experts, top_k, kind, seed);
                        let nested = nested_generate(tokens, blocks, experts, top_k, kind, seed);
                        assert_eq!(flat.num_tokens(), tokens, "{tag}");
                        assert_eq!(flat.num_blocks(), blocks, "{tag}");
                        let mut hist = vec![0u64; experts];
                        for (t, per_block) in nested.iter().enumerate() {
                            for (b, set) in per_block.iter().enumerate() {
                                assert_eq!(flat.experts(t, b), set.as_slice(), "{tag} ({t}, {b})");
                                set.iter().for_each(|&e| hist[e] += 1);
                            }
                        }
                        assert_eq!(flat.activation_histogram(), hist, "{tag}");
                    }
                }
            }
        }
        // The sticky oracle comparison above only means something if the
        // reuse branch ran.
        let t =
            RoutingTrace::generate(50, 4, 64, 2, RoutingKind::DomainSticky { stickiness: 0.7 }, 1);
        assert!((1..50).any(|tok| t.experts(tok, 2) == t.experts(tok - 1, 2)));
    }

    #[test]
    fn out_of_range_positions_panic() {
        let t = RoutingTrace::generate(3, 4, 16, 2, RoutingKind::Uniform, 1);
        for (token, block) in [(3, 0), (0, 4), (1, 9), (2, 4)] {
            let r = std::panic::catch_unwind(|| t.experts(token, block).to_vec());
            assert!(r.is_err(), "({token}, {block}) must panic");
        }
        let empty = RoutingTrace::generate(0, 4, 16, 2, RoutingKind::Uniform, 1);
        assert_eq!(empty.num_blocks(), 0);
        assert!(std::panic::catch_unwind(|| empty.experts(0, 0).to_vec()).is_err());
    }

    #[test]
    fn trace_has_requested_dimensions() {
        let t = RoutingTrace::generate(8, 6, 32, 2, RoutingKind::Uniform, 1);
        assert_eq!(t.num_tokens(), 8);
        assert_eq!(t.num_blocks(), 6);
        assert_eq!(t.top_k(), 2);
        for token in 0..8 {
            for block in 0..6 {
                let e = t.experts(token, block);
                assert_eq!(e.len(), 2);
                assert!(e.windows(2).all(|w| w[0] < w[1]), "distinct & sorted");
                assert!(e.iter().all(|&x| x < 32));
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = RoutingTrace::generate(4, 4, 16, 1, RoutingKind::Zipf { s: 1.2 }, 9);
        let b = RoutingTrace::generate(4, 4, 16, 1, RoutingKind::Zipf { s: 1.2 }, 9);
        let c = RoutingTrace::generate(4, 4, 16, 1, RoutingKind::Zipf { s: 1.2 }, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_concentrates_on_hot_experts() {
        let t = RoutingTrace::generate(500, 4, 64, 1, RoutingKind::Zipf { s: 1.2 }, 3);
        let hist = t.activation_histogram();
        let total: u64 = hist.iter().sum();
        let mut sorted = hist.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top8: u64 = sorted.iter().take(8).sum();
        assert!(
            top8 as f64 / total as f64 > 0.5,
            "top-8 experts should dominate a Zipf(1.2) trace, got {top8}/{total}"
        );
        // Uniform comparison: top-8 of 64 ≈ 12.5 %.
        let u = RoutingTrace::generate(500, 4, 64, 1, RoutingKind::Uniform, 3);
        let uh = u.activation_histogram();
        let mut us = uh.clone();
        us.sort_unstable_by(|a, b| b.cmp(a));
        let utop8: u64 = us.iter().take(8).sum();
        assert!(top8 > utop8);
    }

    #[test]
    fn zipf_domains_rotate_hot_sets_by_seed() {
        let kind = RoutingKind::ZipfDomains { s: 1.4, domains: 4 };
        // Find two seeds in different domains and one pair sharing a domain.
        let d = |seed| domain_of(seed, 4);
        let mut by_domain: [Option<u64>; 4] = [None; 4];
        for seed in 0..64u64 {
            by_domain[d(seed)].get_or_insert(seed);
        }
        let hot = |seed: u64| {
            let t = RoutingTrace::generate(300, 2, 64, 1, kind, seed);
            let hist = t.activation_histogram();
            let mut idx: Vec<usize> = (0..64).collect();
            idx.sort_unstable_by_key(|&e| std::cmp::Reverse(hist[e]));
            idx.truncate(8);
            idx.sort_unstable();
            idx
        };
        let (a, b) = (by_domain[0].unwrap(), by_domain[1].unwrap());
        let (ha, hb) = (hot(a), hot(b));
        let overlap = ha.iter().filter(|e| hb.contains(e)).count();
        assert!(overlap <= 2, "different domains must have disjoint hot sets, overlap {overlap}");
        // Same-domain seeds share their hot set.
        let a2 = (0..999u64).find(|&s| s != a && d(s) == d(a)).unwrap();
        let ha2 = hot(a2);
        let same = ha.iter().filter(|e| ha2.contains(e)).count();
        assert!(same >= 6, "same-domain seeds must share hot experts, overlap {same}");
        // Still a valid skewed trace: within one request the hot set dominates.
        let t = RoutingTrace::generate(300, 2, 64, 1, kind, a);
        let hist = t.activation_histogram();
        let total: u64 = hist.iter().sum();
        let top: u64 = ha.iter().map(|&e| hist[e]).sum();
        assert!(top as f64 / total as f64 > 0.5, "domain hot set must dominate");
    }

    #[test]
    fn domain_of_is_stable_and_in_range() {
        for seed in 0..100u64 {
            assert_eq!(domain_of(seed, 1), 0);
            assert!(domain_of(seed, 5) < 5);
            assert_eq!(domain_of(seed, 5), domain_of(seed, 5));
        }
        // The seed space actually spreads across domains.
        let mut seen = [false; 4];
        for seed in 0..64u64 {
            seen[domain_of(seed, 4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 seeds must cover 4 domains");
    }

    #[test]
    fn sticky_routing_reuses_previous_experts() {
        let t =
            RoutingTrace::generate(200, 2, 32, 1, RoutingKind::DomainSticky { stickiness: 0.9 }, 5);
        let mut reused = 0;
        for token in 1..200 {
            if t.experts(token, 0) == t.experts(token - 1, 0) {
                reused += 1;
            }
        }
        assert!(reused > 120, "expected heavy reuse, got {reused}/199");
    }

    #[test]
    fn full_activation_uses_every_expert() {
        let t = RoutingTrace::generate(2, 2, 8, 8, RoutingKind::Uniform, 1);
        assert_eq!(t.experts(0, 0), &[0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "top_k out of range")]
    fn zero_top_k_panics() {
        let _ = RoutingTrace::generate(1, 1, 4, 0, RoutingKind::Uniform, 0);
    }
}
