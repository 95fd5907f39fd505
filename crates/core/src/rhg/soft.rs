//! The soft (binomial / probabilistic) random hyperbolic graph — the §9
//! future-work model of Krioukov et al. [9].
//!
//! Instead of the hard threshold `d(p,q) < R`, every pair connects
//! independently with the Fermi–Dirac probability
//!
//! ```text
//! p_T(d) = 1 / (1 + exp((d − R) / (2T)))
//! ```
//!
//! with temperature `T > 0`; `T → 0` recovers the threshold model (§7).
//!
//! **Communication-free construction.** The vertex set is the *identical*
//! skeleton the threshold generators use ([`RhgInstance`]), so points are
//! recomputable by any PE. The per-pair coin is pseudorandom in the pair
//! identity — `mix2`-style hashing of `(seed, min_id, max_id)` — so the
//! two PEs owning the endpoints decide the pair identically without
//! messages, exactly like the Sanders–Schulz recomputation trick for
//! Barabási–Albert edges (§3.5.1) transplanted to pairwise coins.
//!
//! **Truncation.** Pairs farther than `R_eff = R + 2T · ln(1/ε − 1)`
//! have connection probability `< ε` and never connect: the pair rule
//! compares the distance with `R_eff` before the coin, and the
//! neighborhood queries use `R_eff` in the Δθ bound of Eq. 8. Which
//! candidates a query's window happens to hold beyond `R_eff` therefore
//! decides no edge, and the edge set does not depend on the chunking. With the default
//! `ε = 10⁻⁹`, the expected number of missed edges over *all* `Θ(n²)`
//! pairs is below `n²ε` — for the instance sizes this library targets,
//! ≪ 1 edge. The truncation is a documented approximation of the ideal
//! model; its error bound is checked statistically in the tests.

use super::common::{Queries, RhgInstance};
use crate::streaming::{BatchEmit, Batcher};
use crate::{Generator, PeGraph};
use kagen_geometry::hyperbolic::PrePoint;
use kagen_util::seed::stream;
use kagen_util::{derive_seed, splitmix::mix64};

/// Soft random hyperbolic graph generator.
#[derive(Clone, Debug)]
pub struct SoftRhg {
    n: u64,
    avg_deg: f64,
    gamma: f64,
    temperature: f64,
    eps: f64,
    seed: u64,
    chunks: usize,
}

impl SoftRhg {
    /// `n` vertices, degree parameter `avg_deg` (calibrated for the `T→0`
    /// limit), power-law exponent `gamma` (> 2), temperature
    /// `temperature ∈ (0, 1)`.
    pub fn new(n: u64, avg_deg: f64, gamma: f64, temperature: f64) -> Self {
        assert!(
            temperature > 0.0 && temperature < 1.0,
            "temperature must be in (0,1); use Rhg for the threshold model"
        );
        SoftRhg {
            n,
            avg_deg,
            gamma,
            temperature,
            eps: 1e-9,
            seed: 1,
            chunks: 8,
        }
    }

    /// Set the instance seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the number of logical PEs (angular sectors).
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        assert!(chunks >= 1);
        self.chunks = chunks;
        self
    }

    /// Set the truncation threshold ε (pairs with `p_T(d) < ε` are never
    /// enumerated).
    pub fn with_truncation(mut self, eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 0.5);
        self.eps = eps;
        self
    }

    /// Build the shared instance skeleton (identical to the threshold
    /// generators' for equal parameters and seed).
    pub fn instance(&self) -> RhgInstance {
        RhgInstance::new(self.n, self.avg_deg, self.gamma, self.seed)
    }

    /// The enlarged query distance `R_eff`.
    pub fn effective_radius(&self, inst: &RhgInstance) -> f64 {
        inst.space.r_max + 2.0 * self.temperature * (1.0 / self.eps - 1.0).ln()
    }

    /// Fermi–Dirac connection probability for hyperbolic distance `d`.
    pub fn connection_prob(&self, inst: &RhgInstance, d: f64) -> f64 {
        1.0 / (1.0 + ((d - inst.space.r_max) / (2.0 * self.temperature)).exp())
    }

    /// The pair's uniform coin in `[0,1)`: pseudorandom in `(seed, pair)`,
    /// identical on every PE that evaluates it.
    #[inline]
    fn pair_coin(&self, a: u64, b: u64) -> f64 {
        let (lo, hi) = (a.min(b), a.max(b));
        let h = mix64(derive_seed(self.seed, &[stream::HYP, 0x736f6674, lo, hi]));
        // 53-bit mantissa → uniform in [0,1).
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// cosh of the hyperbolic distance between two pre-computed points
    /// (via the Eq. 9 terms, no trigonometry beyond the stored sin/cos);
    /// symmetric in `u` and `v` to the bit.
    #[inline]
    fn cosh_distance(u: &PrePoint, v: &PrePoint) -> f64 {
        let cos_dtheta = u.cos_theta * v.cos_theta + u.sin_theta * v.sin_theta;
        (u.coth_r * v.coth_r - cos_dtheta) / (u.inv_sinh_r * v.inv_sinh_r)
    }

    /// Hyperbolic distance between two pre-computed points.
    #[cfg(test)]
    fn distance(u: &PrePoint, v: &PrePoint) -> f64 {
        Self::cosh_distance(u, v).max(1.0).acosh()
    }

    /// Decide the pair `(u, v)`, the test both owning PEs make: no edge at
    /// distance `R_eff` or more (`cosh_r_eff` = cosh R_eff), the pair's
    /// coin below it.
    #[inline]
    fn pair_connected(
        &self,
        inst: &RhgInstance,
        cosh_r_eff: f64,
        u: &PrePoint,
        v: &PrePoint,
    ) -> bool {
        let cosh_d = Self::cosh_distance(u, v);
        let d = cosh_d.max(1.0).acosh();
        cosh_d < cosh_r_eff && self.pair_coin(u.id, v.id) < self.connection_prob(inst, d)
    }

    /// The engine over `inst`: queries truncated at `R_eff` (Eq. 8 at
    /// `R_eff`), pairs decided by [`SoftRhg::pair_connected`].
    fn queries<'a>(
        &'a self,
        inst: &'a RhgInstance,
    ) -> Queries<'a, impl Fn(&PrePoint, &PrePoint) -> bool + 'a> {
        let r_eff = self.effective_radius(inst);
        let cosh_r_eff = r_eff.cosh();
        Queries::new(inst, self.chunks, r_eff, move |u, v| {
            self.pair_connected(inst, cosh_r_eff, u, v)
        })
    }
}

impl Generator for SoftRhg {
    fn num_vertices(&self) -> u64 {
        self.n
    }

    fn num_chunks(&self) -> usize {
        self.chunks
    }

    fn directed(&self) -> bool {
        false
    }

    /// Truncated-radius queries (§9 soft model) through the §7.1 engine
    /// of `Queries`: every touched cell generated once and held.
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        let inst = self.instance();
        Batcher::run(buf, emit, |b| {
            self.queries(&inst)
                .stream(pe, &mut |_| {}, &mut |u, v| b.push(u, v));
        });
    }

    /// The same pass as the stream, also recording the local vertices'
    /// `[r, θ]`.
    fn generate_pe(&self, pe: usize) -> PeGraph {
        self.queries(&self.instance()).materialize(pe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_undirected;
    use crate::rhg::common::reference::{all_pairs, all_points, check_corner_matrix};
    use crate::rhg::Rhg;

    /// Brute-force reference: full point set, exact pair rule (no
    /// truncation at all).
    fn brute_force(gen: &SoftRhg) -> Vec<(u64, u64)> {
        let inst = gen.instance();
        all_pairs(&inst, |p, q| {
            gen.pair_coin(p.id, q.id) < gen.connection_prob(&inst, SoftRhg::distance(p, q))
        })
    }

    #[test]
    fn matches_untruncated_brute_force() {
        // With ε = 1e-9 on a 500-vertex instance, missing even one edge
        // has probability < 500²·1e-9 ≈ 2.5e-4.
        let gen = SoftRhg::new(500, 8.0, 2.8, 0.3).with_seed(5).with_chunks(4);
        let el = generate_undirected(&gen);
        assert_eq!(el.edges, brute_force(&gen));
    }

    #[test]
    fn corner_matrix_matches_all_pairs_and_generate_pe_is_the_stream() {
        check_corner_matrix(
            |n, gamma, chunks| {
                let gen = SoftRhg::new(n, 8.0, gamma, 0.5)
                    .with_seed(5)
                    .with_chunks(chunks);
                let inst = gen.instance();
                (gen, inst)
            },
            |gen, inst, p, q| gen.pair_connected(inst, gen.effective_radius(inst).cosh(), p, q),
            false,
        );
    }

    #[test]
    fn no_pair_beyond_the_truncation_connects_at_any_chunking() {
        // At ε = 0.3 a pair just beyond R_eff still has p ≈ 0.3, so a
        // window that held it and coined it would add an edge. The union
        // of the streams is the truncated all-pairs list at every
        // chunking, and that list misses edges of the untruncated rule.
        let gen = SoftRhg::new(800, 8.0, 2.8, 0.5)
            .with_seed(13)
            .with_truncation(0.3);
        let inst = gen.instance();
        let cosh_r_eff = gen.effective_radius(&inst).cosh();
        let truncated = all_pairs(&inst, |p, q| gen.pair_connected(&inst, cosh_r_eff, p, q));
        assert!(
            truncated.len() < brute_force(&gen).len(),
            "no pair beyond R_eff"
        );
        for chunks in [1, 7, 64] {
            let el = generate_undirected(&gen.clone().with_chunks(chunks));
            assert_eq!(el.edges, truncated, "chunks={chunks}");
        }
    }

    #[test]
    fn chunk_invariance() {
        let mk = |chunks| {
            generate_undirected(
                &SoftRhg::new(700, 6.0, 3.0, 0.5)
                    .with_seed(9)
                    .with_chunks(chunks),
            )
        };
        let a = mk(1);
        assert_eq!(a, mk(8));
        assert_eq!(a, mk(32));
    }

    #[test]
    fn zero_temperature_limit_recovers_threshold_model() {
        // At T = 1e-5 the sigmoid is a step except within |d−R| ≲ 4e-4;
        // the soft and threshold graphs may differ only on pairs that
        // close to the threshold.
        let n = 600u64;
        let soft =
            generate_undirected(&SoftRhg::new(n, 8.0, 2.8, 1e-5).with_seed(3).with_chunks(4));
        let hard = generate_undirected(&Rhg::new(n, 8.0, 2.8).with_seed(3).with_chunks(4));
        let s: std::collections::HashSet<_> = soft.edges.iter().collect();
        let h: std::collections::HashSet<_> = hard.edges.iter().collect();
        let sym_diff = s.symmetric_difference(&h).count();
        assert!(
            sym_diff * 50 <= hard.edges.len().max(50),
            "soft(T→0) vs threshold: {sym_diff} of {} edges differ",
            hard.edges.len()
        );
    }

    #[test]
    fn temperature_softens_the_threshold() {
        // At high T, a non-trivial fraction of edges crosses distance R
        // (impossible in the threshold model).
        let gen = SoftRhg::new(2000, 8.0, 2.8, 0.8)
            .with_seed(7)
            .with_chunks(4);
        let inst = gen.instance();
        let el = generate_undirected(&gen);
        let mut pts: Vec<Option<PrePoint>> = vec![None; 2000];
        for a in 0..inst.num_annuli() {
            for c in 0..inst.ann_cells[a] {
                for p in inst.cell_points(a, c) {
                    pts[p.id as usize] = Some(p);
                }
            }
        }
        let beyond = el
            .edges
            .iter()
            .filter(|&&(u, v)| {
                SoftRhg::distance(&pts[u as usize].unwrap(), &pts[v as usize].unwrap())
                    > inst.space.r_max
            })
            .count();
        assert!(
            beyond * 20 > el.edges.len(),
            "only {beyond}/{} edges beyond R at T=0.8",
            el.edges.len()
        );
    }

    #[test]
    fn connection_frequency_follows_sigmoid() {
        // Empirical P[edge | d bucket] must track p_T(d).
        let gen = SoftRhg::new(1500, 10.0, 2.6, 0.5)
            .with_seed(11)
            .with_chunks(1);
        let inst = gen.instance();
        let pts = all_points(&inst);
        let r = inst.space.r_max;
        let cosh_r_eff = gen.effective_radius(&inst).cosh();
        // Buckets around R where the sigmoid varies meaningfully.
        let mut hits = [0u64; 4];
        let mut totals = [0u64; 4];
        let buckets = [
            (r - 2.0, r - 1.0),
            (r - 1.0, r),
            (r, r + 1.0),
            (r + 1.0, r + 2.0),
        ];
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                let d = SoftRhg::distance(&pts[i], &pts[j]);
                for (k, &(lo, hi)) in buckets.iter().enumerate() {
                    if d >= lo && d < hi {
                        totals[k] += 1;
                        hits[k] += gen.pair_connected(&inst, cosh_r_eff, &pts[i], &pts[j]) as u64;
                    }
                }
            }
        }
        for (k, &(lo, hi)) in buckets.iter().enumerate() {
            assert!(totals[k] > 500, "bucket {k} too thin: {}", totals[k]);
            let mid = (lo + hi) / 2.0;
            let expect = gen.connection_prob(&inst, mid);
            let got = hits[k] as f64 / totals[k] as f64;
            // Sigmoid varies across the bucket; allow a wide but shaped band.
            let lo_p = gen.connection_prob(&inst, hi);
            let hi_p = gen.connection_prob(&inst, lo);
            assert!(
                got >= lo_p * 0.8 && got <= hi_p * 1.2 + 0.01,
                "bucket {k}: freq {got} outside [{lo_p}, {hi_p}] (mid expect {expect})"
            );
        }
    }

    #[test]
    fn pair_coins_symmetric_and_seeded() {
        let gen = SoftRhg::new(100, 8.0, 2.8, 0.5).with_seed(42);
        assert_eq!(
            gen.pair_coin(3, 17).to_bits(),
            gen.pair_coin(17, 3).to_bits()
        );
        let other = SoftRhg::new(100, 8.0, 2.8, 0.5).with_seed(43);
        assert_ne!(
            gen.pair_coin(3, 17).to_bits(),
            other.pair_coin(3, 17).to_bits()
        );
        let c = gen.pair_coin(3, 17);
        assert!((0.0..1.0).contains(&c));
    }

    #[test]
    fn same_skeleton_as_threshold_model() {
        // The vertex set (ids and coordinates) is the threshold instance's.
        let soft = SoftRhg::new(400, 8.0, 2.8, 0.4).with_seed(5).with_chunks(4);
        let hard = Rhg::new(400, 8.0, 2.8).with_seed(5).with_chunks(4);
        let a = crate::generate_parallel(&soft, 0);
        let b = crate::generate_parallel(&hard, 0);
        let coords = |parts: &[PeGraph]| {
            let mut v: Vec<(u64, [f64; 2])> = parts
                .iter()
                .flat_map(|p| p.coords2.iter().copied())
                .collect();
            v.sort_by_key(|x| x.0);
            v.dedup_by_key(|x| x.0);
            v
        };
        let (ca, cb) = (coords(&a), coords(&b));
        assert_eq!(ca.len(), cb.len());
        for (x, y) in ca.iter().zip(&cb) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1[0].to_bits(), y.1[0].to_bits());
            assert_eq!(x.1[1].to_bits(), y.1[1].to_bits());
        }
    }
}
