//! G(n,p) by a binomial count and Vitter's Method D per leaf.
//!
//! §4.3 draws a G(n,p) leaf as a "predetermined" binomial count of its
//! pairs and then that many distinct pairs, sorted — the leaves the
//! product drew before geometric skip sampling replaced them, with a
//! serial `ln → exp` accept chain per sample. [`GnpAlgoD`] keeps them as
//! the denominator of the skip kernel's speedup in `crates/bench`: it
//! wraps a core G(n,p) instance and draws on that instance's own leaf
//! plan ([`GnpPlan`]) — the same leaves, decoders and sample seeds, and
//! each leaf's count from its count stream — so its instance is the one
//! `--gnp-leaves algo-d` used to write.

use kagen_core::er::GnpPlan;
use kagen_core::streaming::BatchEmit;
use kagen_core::{Generator, PeGraph};
use kagen_dist::binomial;
use kagen_sampling::Take;
use kagen_util::Mt64;

/// A core G(n,p) instance (`GnpDirected` or `GnpUndirected`) drawn with
/// binomial counts and Method D on its leaves.
#[derive(Clone, Debug)]
pub struct GnpAlgoD<G> {
    inner: G,
}

impl<G: GnpPlan> GnpAlgoD<G> {
    /// The Algorithm-D draw of `inner`'s plan; `inner`'s seed and chunk
    /// count are the instance's.
    pub fn new(inner: G) -> Self {
        GnpAlgoD { inner }
    }
}

impl<G: GnpPlan> Generator for GnpAlgoD<G> {
    fn num_vertices(&self) -> u64 {
        self.inner.num_vertices()
    }

    fn num_chunks(&self) -> usize {
        self.inner.num_chunks()
    }

    fn directed(&self) -> bool {
        self.inner.directed()
    }

    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        let p = self.inner.p();
        self.inner.stream_leaves(pe, buf, emit, |leaf| {
            Take::Exact(binomial(
                &mut Mt64::new(leaf.count_seed),
                leaf.len as u128,
                p,
            ))
        });
    }

    fn pe_vertices(&self, pe: usize) -> PeGraph {
        self.inner.pe_vertices(pe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kagen_core::prelude::*;
    use kagen_core::{generate_directed, generate_undirected};

    #[test]
    fn gnp_leaf_samplers_define_distinct_instances() {
        // Same distribution, different PRNG walk: the baseline must not
        // silently alias the product's instance.
        let skip = generate_directed(&GnpDirected::new(200, 0.05).with_seed(3));
        let algo_d = generate_directed(&GnpAlgoD::new(GnpDirected::new(200, 0.05).with_seed(3)));
        assert_ne!(skip.edges, algo_d.edges);
        let skip_u =
            generate_undirected(&GnpUndirected::new(150, 0.05).with_seed(3).with_chunks(4));
        let algo_d_u = generate_undirected(&GnpAlgoD::new(
            GnpUndirected::new(150, 0.05).with_seed(3).with_chunks(4),
        ));
        assert_ne!(skip_u.edges, algo_d_u.edges);
        // Both stay simple and in range.
        for el in [&skip, &algo_d, &skip_u, &algo_d_u] {
            assert!(!el.has_self_loops());
            assert!(!el.has_out_of_range());
        }
    }

    #[test]
    fn gnp_algo_d_mean_edge_count() {
        // Binomial counts keep the draw G(n,p).
        let n = 300u64;
        let p = 0.01;
        let reps = 40;
        let total: usize = (0..reps)
            .map(|seed| {
                generate_directed(&GnpAlgoD::new(GnpDirected::new(n, p).with_seed(seed)))
                    .edges
                    .len()
            })
            .sum();
        let mean = total as f64 / reps as f64;
        let expect = (n * (n - 1)) as f64 * p;
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn gnp_algo_d_chunk_invariance() {
        let at = |chunks| {
            let gnp = GnpDirected::new(150, 0.05).with_seed(9).with_chunks(chunks);
            generate_directed(&GnpAlgoD::new(gnp))
        };
        assert_eq!(at(1), at(13));
    }

    #[test]
    fn gnp_algo_d_mean_and_redundancy() {
        let n = 250u64;
        let p = 0.02;
        let reps = 30;
        let mut total = 0usize;
        for seed in 0..reps {
            let gnp = GnpUndirected::new(n, p).with_seed(seed).with_chunks(5);
            let el = generate_undirected(&GnpAlgoD::new(gnp));
            assert!(!el.has_self_loops());
            total += el.edges.len();
        }
        let mean = total as f64 / reps as f64;
        let expect = (n * (n - 1) / 2) as f64 * p;
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean {mean} vs {expect}"
        );
    }
}
