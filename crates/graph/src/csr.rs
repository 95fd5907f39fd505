//! Compressed sparse row adjacency, built from edge lists.

use crate::{EdgeList, Node};
use std::io;

/// CSR adjacency structure.
///
/// For an undirected graph build it with [`Csr::undirected`], which inserts
/// both orientations; `neighbors(v)` then yields every neighbor of `v`.
#[derive(Clone, Debug)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` indexes `targets` for vertex `v`.
    pub offsets: Vec<usize>,
    /// Concatenated adjacency lists, each sorted ascending.
    pub targets: Vec<Node>,
}

impl Csr {
    /// Build from a directed edge list (edges kept as-is).
    pub fn directed(el: &EdgeList) -> Self {
        Self::try_build(el.n, el.edges.iter().copied()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build from a canonical undirected edge list (both orientations
    /// inserted).
    pub fn undirected(el: &EdgeList) -> Self {
        Self::try_undirected(el).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Csr::undirected`], with an `OutOfMemory` error instead of an
    /// abort when the offsets or targets cannot be allocated — `n + 1`
    /// offsets come before any edge, 8 TiB at n = 2^40.
    pub fn try_undirected(el: &EdgeList) -> io::Result<Self> {
        Self::try_build(el.n, el.edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]))
    }

    /// Counting sort by source into one offsets array: count into
    /// `offsets[u + 1]`, prefix-sum to the list starts, scatter with
    /// `offsets[u]` as the cursor (it ends at the next list's start),
    /// then shift the array back by one.
    fn try_build(n: Node, edges: impl Iterator<Item = (Node, Node)> + Clone) -> io::Result<Self> {
        let n = usize::try_from(n).map_err(|_| out_of_memory(n, "vertices"))?;
        let mut offsets = zeroed(n.saturating_add(1), "offsets")?;
        for (u, _) in edges.clone() {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = zeroed(offsets[n], "adjacency entries")?;
        for (u, v) in edges {
            targets[offsets[u as usize]] = v;
            offsets[u as usize] += 1;
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        // Sort each adjacency list for deterministic iteration and binary
        // search.
        for v in 0..n {
            targets[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Ok(Csr { offsets, targets })
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored arcs.
    pub fn arcs(&self) -> usize {
        self.targets.len()
    }

    /// Neighbors of `v`, ascending.
    pub fn neighbors(&self, v: Node) -> &[Node] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: Node) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Adjacency test via binary search, O(log deg).
    pub fn has_edge(&self, u: Node, v: Node) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Global clustering-style triangle count (each triangle counted once).
    /// Intended for validation on small/medium graphs.
    pub fn count_triangles(&self) -> u64 {
        let mut count = 0u64;
        for u in 0..self.n() as Node {
            let nu = self.neighbors(u);
            for &v in nu.iter().filter(|&&v| v > u) {
                let nv = self.neighbors(v);
                // Intersect the two sorted lists above u.
                let (mut i, mut j) = (0usize, 0usize);
                while i < nu.len() && j < nv.len() {
                    let (a, b) = (nu[i], nv[j]);
                    if a <= v {
                        i += 1;
                        continue;
                    }
                    match a.cmp(&b) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            count += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
        }
        count
    }
}

/// `len` zeros, or `OutOfMemory` naming what did not fit.
fn zeroed<T: Copy + Default>(len: usize, what: &str) -> io::Result<Vec<T>> {
    let mut v = Vec::new();
    v.try_reserve_exact(len)
        .map_err(|_| out_of_memory(len, what))?;
    v.resize(len, T::default());
    Ok(v)
}

fn out_of_memory(len: impl std::fmt::Display, what: &str) -> io::Error {
    let msg = format!("cannot allocate the CSR's {len} {what}");
    io::Error::new(io::ErrorKind::OutOfMemory, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeList;

    fn path_graph() -> EdgeList {
        EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn undirected_degrees() {
        let csr = Csr::undirected(&path_graph());
        assert_eq!(csr.degree(0), 1);
        assert_eq!(csr.degree(1), 2);
        assert_eq!(csr.arcs(), 6);
    }

    #[test]
    fn neighbors_sorted() {
        let el = EdgeList::new(5, vec![(2, 4), (2, 0), (2, 3), (2, 1)]);
        let csr = Csr::directed(&el);
        assert_eq!(csr.neighbors(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn has_edge_both_ways_undirected() {
        let csr = Csr::undirected(&path_graph());
        assert!(csr.has_edge(0, 1));
        assert!(csr.has_edge(1, 0));
        assert!(!csr.has_edge(0, 3));
    }

    #[test]
    fn triangle_count() {
        // K4 has 4 triangles.
        let el = EdgeList::new(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let csr = Csr::undirected(&el);
        assert_eq!(csr.count_triangles(), 4);
        // A path has none.
        assert_eq!(Csr::undirected(&path_graph()).count_triangles(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let el = EdgeList::new(10, vec![(0, 1)]);
        let csr = Csr::undirected(&el);
        assert_eq!(csr.degree(5), 0);
        assert_eq!(csr.n(), 10);
    }
}
