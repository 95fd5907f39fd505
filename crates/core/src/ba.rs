//! Barabási–Albert preferential attachment, communication-free version of
//! Sanders & Schulz \[4\] (§3.5.1).
//!
//! The sequential Batagelj–Brandes generator fills a virtual array `M` of
//! length 2·n·d where `M[2i] = ⌊i/d⌋` (the source of edge slot `i`) and
//! `M[2i+1] = M[r]` for `r` uniform in `[0, 2i+1)`. Reading `M[r]` is what
//! makes it look inherently sequential — Sanders & Schulz observe that the
//! value of any odd position can be *recomputed* by replaying its random
//! choice, which is fixed by a per-position hash ([`draw`]). Each edge then
//! becomes an independent function of the seed: PE `p` simply evaluates the
//! slots of its vertex range.
//!
//! The chain `r → r' → …` ends at the first even position, and a drawn
//! position is even every other time: 2.000 draws per edge measured
//! (`gen.ba.draws / gen.edges`), O(log) w.h.p. One chain is one serial
//! dependency of ≈ 6 multiplies per draw with a coin-flip branch at its
//! end, so resolving slot after slot costs latency, not work. The slots
//! are independent, which the paper uses across PEs and
//! [`BarabasiAlbert::fill_edges`] uses inside one core: it resolves a
//! block of slots in *rounds*, each round replaying one draw for every
//! chain still open — iterations the out-of-order core overlaps — and
//! keeping the lanes that drew an odd position for the next round without
//! a branch. Half the lanes retire per round, so a block of `B` slots takes
//! ≈ log2 `B` rounds and the same draws in total.
//! [`BarabasiAlbert::edge`] is the one-slot reference the block path is
//! tested against.

use crate::streaming::{fill_range_batched, BatchEmit};
use crate::{even_split, Generator, PeGraph};
use kagen_obs::Counter;
use kagen_util::seed::stream;
use kagen_util::{derive_seed, Rng64, SplitMix64};

/// Draws replayed by the block resolver (counted once per round);
/// `gen.ba.draws / gen.edges` is the attachment-chain length per edge.
static BA_DRAWS: Counter = Counter::new("gen.ba.draws");

/// Slots resolved together by [`BarabasiAlbert::fill_edges`]: 8 KiB of
/// positions plus 2 KiB of lane numbers on the stack. Swept 64 … 4096
/// (CHANGES.md, PR 24; ns/edge on one core): 11.0 at 64, 9.0 at 256,
/// 8.4–8.5 at 512 and 1024, 7.8 at 4096 — and that last 0.7 ns does
/// not show in `kagen stream ba` wall time (0.448 s against 0.445 s,
/// 3 of 6 pairs each), so the block stays at a quarter of the stack.
const BLOCK: usize = 1024;
// Lane numbers are `u16`.
const _: () = assert!(BLOCK <= 1 << 16);

/// Replay the random choice made for odd position `pos` of the virtual
/// array: the position `r ~ U[0, pos)` it copies. `base` is the
/// instance's [`BarabasiAlbert::resolve_base`]; `mix2` gives every
/// position its own one-shot stream for the bounded draw.
#[inline]
fn draw(base: u64, pos: u64) -> u64 {
    SplitMix64::at(base, pos).next_below(pos)
}

/// `x / d` for `x < 2^63` and a divisor fixed at construction, without
/// the divide instruction (Granlund & Montgomery's round-up reciprocal).
/// With `2^(l−1) < d ≤ 2^l` and `m = ⌈2^(63+l) / d⌉` — which fits a
/// `u64` — `m·d = 2^(63+l) + e` for some `e < d ≤ 2^l`, so
/// `x·m / 2^(63+l)` exceeds `x / d` by `x·e / (d·2^(63+l)) < 1/d`: too
/// little to reach the next integer, and the floor is the quotient
/// exactly. A power of two gives `m = 2^63`, i.e. the plain shift.
#[derive(Clone, Copy, Debug)]
pub struct Reciprocal {
    m: u64,
    l: u32,
}

impl Reciprocal {
    /// The reciprocal of `d` in `1..=2^63`.
    pub fn new(d: u64) -> Self {
        assert!((1..=1 << 63).contains(&d));
        let l = u64::BITS - (d - 1).leading_zeros();
        let m = (1u128 << (63 + l)).div_ceil(d as u128);
        Reciprocal { m: m as u64, l }
    }

    /// `x / d`; `x < 2^63`.
    #[inline]
    pub fn quotient(self, x: u64) -> u64 {
        debug_assert!(x < 1 << 63);
        (((2 * x) as u128 * self.m as u128) >> 64) as u64 >> self.l
    }
}

/// Preferential attachment: each new vertex attaches `d` edges to earlier
/// vertices with probability proportional to their current degree.
/// Self-loops and parallel edges occur with the model's natural (small)
/// probability, exactly as in \[4\] and Batagelj–Brandes.
#[derive(Clone, Debug)]
pub struct BarabasiAlbert {
    n: u64,
    d: u64,
    seed: u64,
    chunks: usize,
}

impl BarabasiAlbert {
    /// `n` vertices each attaching `d` edges; `n·d ≤ 2^63`, so that the
    /// last slot's position `2·slot + 1` fits a `u64`.
    pub fn new(n: u64, d: u64) -> Self {
        assert!(d >= 1);
        assert!(
            n.checked_mul(d).is_some_and(|slots| slots <= 1 << 63),
            "n*d = {n}*{d} exceeds 2^63"
        );
        BarabasiAlbert {
            n,
            d,
            seed: 1,
            chunks: 64,
        }
    }

    /// Set the instance seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the number of logical PEs.
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        assert!(chunks >= 1);
        self.chunks = chunks;
        self
    }

    /// The instance's base seed for [`draw`] — hashed once, shared by
    /// every position.
    #[inline]
    fn resolve_base(&self) -> u64 {
        derive_seed(self.seed, &[stream::BA])
    }

    /// Edge of slot `i` (pure function): `(⌊i/d⌋, M[2i+1])`, the chain
    /// followed one draw at a time.
    #[inline]
    pub fn edge(&self, slot: u64) -> (u64, u64) {
        let base = self.resolve_base();
        let mut pos = 2 * slot + 1;
        // Even positions hold a slot's source vertex directly.
        while pos & 1 == 1 {
            pos = draw(base, pos);
        }
        (slot / self.d, (pos / 2) / self.d)
    }

    /// Append the edges of slot range `slots` to `out` — identical to
    /// calling [`BarabasiAlbert::edge`] per slot, resolved a block of
    /// slots at a time in rounds (see the module doc).
    pub fn fill_edges(&self, slots: std::ops::Range<u64>, out: &mut Vec<(u64, u64)>) {
        out.reserve((slots.end - slots.start) as usize);
        let base = self.resolve_base();
        let by_d = Reciprocal::new(self.d);
        // The source column is a running (vertex, slot within it) counter.
        let (mut vertex, mut within) = (slots.start / self.d, slots.start % self.d);
        let mut pos = [0u64; BLOCK];
        let mut lanes = [0u16; BLOCK];
        let mut lo = slots.start;
        while lo < slots.end {
            let len = (slots.end - lo).min(BLOCK as u64) as usize;
            // First round: every slot draws from its own odd position.
            // `lanes[..open]` lists the chains that drew an odd one again.
            BA_DRAWS.add(len as u64);
            let mut open = 0;
            for (j, p) in pos[..len].iter_mut().enumerate() {
                *p = draw(base, 2 * (lo + j as u64) + 1);
                lanes[open] = j as u16;
                open += (*p & 1) as usize;
            }
            while open > 0 {
                BA_DRAWS.add(open as u64);
                // The list is compacted in place: entry `i` is read
                // before entry `still <= i` is written.
                let mut still = 0;
                for i in 0..open {
                    let j = lanes[i] as usize;
                    pos[j] = draw(base, pos[j]);
                    lanes[still] = j as u16;
                    still += (pos[j] & 1) as usize;
                }
                open = still;
            }
            out.extend(pos[..len].iter().map(|&p| {
                let edge = (vertex, by_d.quotient(p / 2));
                within += 1;
                if within == self.d {
                    (vertex, within) = (vertex + 1, 0);
                }
                edge
            }));
            lo += len as u64;
        }
    }

    /// Slot range owned by PE `pe` (its vertex range × `d`).
    #[inline]
    pub fn pe_slot_range(&self, pe: usize) -> std::ops::Range<u64> {
        let vertices = even_split(self.n, self.chunks, pe);
        vertices.start * self.d..vertices.end * self.d
    }
}

impl Generator for BarabasiAlbert {
    fn num_vertices(&self) -> u64 {
        self.n
    }

    fn num_chunks(&self) -> usize {
        self.chunks
    }

    fn directed(&self) -> bool {
        true
    }

    /// Range fill: [`BarabasiAlbert::fill_edges`] over the PE's slots, a
    /// batch at a time.
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        fill_range_batched(self.pe_slot_range(pe), buf, emit, |r, out| {
            self.fill_edges(r, out)
        });
    }

    fn pe_vertices(&self, pe: usize) -> PeGraph {
        // PE p owns a contiguous vertex range and therefore the slot range
        // [begin*d, end*d).
        let vertices = even_split(self.n, self.chunks, pe);
        PeGraph {
            pe,
            vertex_begin: vertices.start,
            vertex_end: vertices.end,
            ..PeGraph::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_directed;

    #[test]
    fn edge_count_and_targets_older() {
        let gen = BarabasiAlbert::new(1000, 4).with_seed(3).with_chunks(8);
        let el = generate_directed(&gen);
        assert_eq!(el.edges.len(), 4000);
        for &(u, v) in &el.edges {
            assert!(v <= u, "target {v} newer than source {u}");
        }
    }

    #[test]
    fn chunk_invariance() {
        let a = generate_directed(&BarabasiAlbert::new(500, 3).with_seed(7).with_chunks(1));
        let b = generate_directed(&BarabasiAlbert::new(500, 3).with_seed(7).with_chunks(16));
        assert_eq!(a, b);
    }

    #[test]
    fn degrees_skewed_towards_early_vertices() {
        let gen = BarabasiAlbert::new(5000, 4).with_seed(1);
        let el = generate_directed(&gen);
        let mut indeg = vec![0u64; 5000];
        for &(_, v) in &el.edges {
            indeg[v as usize] += 1;
        }
        // Preferential attachment: the first percentile of vertices must
        // receive far more than a uniform share of the in-edges.
        let early: u64 = indeg[..50].iter().sum();
        let uniform_share = el.edges.len() as u64 / 100;
        assert!(
            early > 3 * uniform_share,
            "early mass {early} vs uniform {uniform_share}"
        );
    }

    #[test]
    fn power_law_tail() {
        // BA degree distribution has exponent 3: max degree grows ~ sqrt(n).
        let gen = BarabasiAlbert::new(20_000, 2).with_seed(9);
        let el = generate_directed(&gen);
        let mut deg = vec![0u64; 20_000];
        for &(u, v) in &el.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let max = *deg.iter().max().unwrap();
        assert!(
            max > 100,
            "hub degree {max} too small for preferential attachment"
        );
    }

    #[test]
    fn fill_edges_matches_edge_across_block_boundaries() {
        // Ranges that start and end inside a block, span several, are
        // empty; divisors with and without a power of two, `d = 1`, and
        // one larger than a block. The sources cross vertex boundaries
        // mid-block wherever `d` does not divide the block length.
        const B: u64 = BLOCK as u64;
        for d in [1, 2, 3, 5, 7, 8, 1000, (1 << 20) + 1] {
            let gen = BarabasiAlbert::new(1 << 22, d).with_seed(5);
            for range in [
                0..0,
                B..B,
                0..1,
                B - 50..B + 50,
                B / 2..B / 2 + 7,
                3..3 * B + 11,
                0..2 * B,
                (1 << 21) + 1..(1 << 21) + B + 2,
            ] {
                let mut filled = Vec::new();
                gen.fill_edges(range.clone(), &mut filled);
                let expect: Vec<_> = range.clone().map(|slot| gen.edge(slot)).collect();
                assert_eq!(filled, expect, "d = {d}, slots {range:?}");
            }
        }
    }

    #[test]
    fn reciprocal_is_exact_around_powers_of_two() {
        // `d = 2^k + 1` is where `m` comes closest to 2^64, `d = 2^k`
        // where it is the plain shift; `tests/proptest_substrates.rs`
        // draws the divisors in between.
        const TOP: u64 = (1 << 63) - 1;
        for k in 0..=63 {
            for d in [(1u64 << k) - 1, 1 << k, (1 << k) + 1] {
                if !(1..=1 << 63).contains(&d) {
                    continue;
                }
                let by_d = Reciprocal::new(d);
                let last = TOP / d * d;
                for x in [0, d - 1, d, last.saturating_sub(1), last, TOP - 1, TOP] {
                    let x = x.min(TOP);
                    assert_eq!(by_d.quotient(x), x / d, "{x} / {d}");
                }
            }
        }
    }

    #[test]
    fn rejected_draws_inside_a_block_redraw_as_the_serial_chain_does() {
        // Above 2^63 a position `p` rejects a word with probability
        // (2^64 mod p) / 2^64 — just under a half at the slots used here
        // — so every block below has lanes in Lemire's redraw loop.
        let gen = BarabasiAlbert::new(1 << 61, 4).with_seed(3);
        let base = gen.resolve_base();
        let first = (1 << 62) + 7;
        let range = first..first + 2 * BLOCK as u64 + 9;
        let rejected = range
            .clone()
            .filter(|slot| {
                let p = 2 * slot + 1;
                let low = SplitMix64::at(base, p).next_u64().wrapping_mul(p);
                low < p.wrapping_neg() % p
            })
            .count();
        assert!(rejected > BLOCK / 2, "{rejected} first words rejected");
        let mut filled = Vec::new();
        gen.fill_edges(range.clone(), &mut filled);
        let expect: Vec<_> = range.map(|slot| gen.edge(slot)).collect();
        assert_eq!(filled, expect);
    }

    #[test]
    fn pe_ranges_do_not_wrap_at_scale() {
        // n · pe passes 2^64 from PE 11 on; the wrapped product gave PE 12
        // the vertices from 2 097 152 on.
        let (n, d) = (3u64 << 59, 4);
        let gen = BarabasiAlbert::new(n, d).with_chunks(1 << 40);
        let vertices = 36 << 19..(39 << 19);
        assert_eq!(vertices.start, 18_874_368);
        let part = gen.pe_vertices(12);
        assert_eq!(part.vertex_begin..part.vertex_end, vertices);
        let slots = gen.pe_slot_range(12);
        assert_eq!(slots, vertices.start * d..vertices.end * d);
        let mut ends = Vec::new();
        gen.fill_edges(slots.start..slots.start + 1, &mut ends);
        gen.fill_edges(slots.end - 1..slots.end, &mut ends);
        assert_eq!((ends[0].0, ends[1].0), (vertices.start, vertices.end - 1));
        assert_eq!(gen.pe_slot_range((1 << 40) - 1).end, n * d);
    }

    #[test]
    #[should_panic(expected = "exceeds 2^63")]
    fn positions_must_fit_a_word() {
        // 2·slot + 1 wraps from slot 2^63 on.
        BarabasiAlbert::new(3 << 60, 4);
    }

    #[test]
    fn resolve_chain_terminates_fast() {
        let gen = BarabasiAlbert::new(1_000_000, 8).with_seed(2);
        // Spot-check a few far positions — must terminate (and quickly).
        for slot in [0u64, 1, 999, 7_999_999] {
            let (_, v) = gen.edge(slot);
            assert!(v <= slot / 8);
        }
    }
}
