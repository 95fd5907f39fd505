//! Union–find connected components (path halving + union by size).
//!
//! Used by tests and examples to validate structural properties the models
//! predict, e.g. the RGG connectivity threshold r ≈ 0.55·sqrt(ln n / n).

use crate::EdgeList;

/// Disjoint-set forest over `0..n`.
#[derive(Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "UnionFind limited to 2^32 vertices");
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Representative of `x`'s set (path halving).
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let grandparent = self.parent[self.parent[x] as usize];
            self.parent[x] = grandparent;
            x = grandparent as usize;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns true if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        self.components -= 1;
        true
    }

    /// Number of disjoint sets remaining.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Size of the largest set.
    pub fn largest_component(&mut self) -> usize {
        let n = self.parent.len();
        let mut best = 0;
        for v in 0..n {
            if self.find(v) == v {
                best = best.max(self.size[v] as usize);
            }
        }
        best
    }
}

/// Component statistics of an undirected edge list.
pub fn connected_components(el: &EdgeList) -> UnionFind {
    let mut uf = UnionFind::new(el.n as usize);
    for &(u, v) in &el.edges {
        uf.union(u as usize, v as usize);
    }
    uf
}

/// Convenience: is the graph connected (n >= 1)?
pub fn is_connected(el: &EdgeList) -> bool {
    el.n <= 1 || connected_components(el).component_count() == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeList;

    #[test]
    fn singletons() {
        let uf = connected_components(&EdgeList::new(5, vec![]));
        assert_eq!(uf.component_count(), 5);
    }

    #[test]
    fn path_is_connected() {
        let el = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3)]);
        assert!(is_connected(&el));
    }

    #[test]
    fn two_components() {
        let el = EdgeList::new(5, vec![(0, 1), (2, 3)]);
        let mut uf = connected_components(&el);
        assert_eq!(uf.component_count(), 3); // {0,1} {2,3} {4}
        assert_eq!(uf.largest_component(), 2);
    }

    #[test]
    fn union_reports_merges() {
        let mut uf = UnionFind::new(3);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(1, 2));
        assert_eq!(uf.component_count(), 1);
    }

    #[test]
    fn large_random_union_stress() {
        let n = 10_000;
        let mut uf = UnionFind::new(n);
        // Chain everything: exactly n-1 successful unions.
        let mut merges = 0;
        for i in 1..n {
            if uf.union(i - 1, i) {
                merges += 1;
            }
        }
        assert_eq!(merges, n - 1);
        assert_eq!(uf.component_count(), 1);
        assert_eq!(uf.largest_component(), n);
    }
}
