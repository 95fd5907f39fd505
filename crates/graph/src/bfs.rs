//! Breadth-first search (the Graph500 kernel; used in examples/tests).

use crate::{Csr, Node};

/// BFS distances from `source`; unreachable vertices get `u32::MAX`.
pub fn bfs_distances(csr: &Csr, source: Node) -> Vec<u32> {
    let n = csr.n();
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in csr.neighbors(u) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Eccentricity-style summary of a BFS: (reached vertices, max finite
/// distance).
pub fn bfs_summary(csr: &Csr, source: Node) -> (usize, u32) {
    let dist = bfs_distances(csr, source);
    let reached = dist.iter().filter(|&&d| d != u32::MAX).count();
    let max = dist
        .iter()
        .filter(|&&d| d != u32::MAX)
        .max()
        .copied()
        .unwrap_or(0);
    (reached, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeList;

    #[test]
    fn path_distances() {
        let el = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3)]);
        let csr = Csr::undirected(&el);
        assert_eq!(bfs_distances(&csr, 0), vec![0, 1, 2, 3]);
        assert_eq!(bfs_distances(&csr, 2), vec![2, 1, 0, 1]);
    }

    #[test]
    fn unreachable_marked() {
        let el = EdgeList::new(4, vec![(0, 1)]);
        let csr = Csr::undirected(&el);
        let d = bfs_distances(&csr, 0);
        assert_eq!(d[2], u32::MAX);
        assert_eq!(bfs_summary(&csr, 0), (2, 1));
    }

    #[test]
    fn star_graph() {
        let el = EdgeList::new(5, vec![(0, 1), (0, 2), (0, 3), (0, 4)]);
        let csr = Csr::undirected(&el);
        let (reached, ecc) = bfs_summary(&csr, 1);
        assert_eq!(reached, 5);
        assert_eq!(ecc, 2);
    }
}
