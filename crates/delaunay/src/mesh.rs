//! The incremental Bowyer–Watson mesh behind [`crate::Delaunay2`] and
//! [`crate::Delaunay3`], written once for both dimensions.
//!
//! Standard scheme: a super-simplex encloses all input points; points are
//! inserted one by one by (1) locating the containing simplex with a
//! visibility walk, (2) flooding the *cavity* of simplices whose
//! circumsphere contains the point, (3) retriangulating the cavity
//! boundary as a fan around the new point. Simplices touching the
//! super-vertices are excluded from the finite output.
//!
//! Adjacency is one neighbour array parallel to the simplex array; the
//! cavity is an epoch stamp per simplex; the fan is linked through one
//! scratch slot per vertex; dead slots are refilled by the fan that
//! replaces them. Nothing is allocated per insert. Points go in along a
//! Z-order curve over their bounding box, so the walk starts next to where
//! it ends. None of this decides what the mesh *is*: a simplex is judged
//! by `orient`/`in_sphere` alone, and ties (`Sign::Zero`) stay out of the
//! cavity.

use crate::predicates::{incircle2, insphere3, orient2, orient3, Sign};
use crate::{circumcircle2, circumsphere3};
use kagen_util::morton;

/// "No simplex": a hull facet's neighbour, an empty scratch slot, and —
/// as a cavity stamp no epoch reaches — a free simplex slot.
const NONE: u32 = u32::MAX;

/// Vertex slots of the facets of a positively oriented triangle /
/// tetrahedron, each ordered so that the omitted vertex lies on its
/// positive side. Facet 0 omits the last vertex.
const FACETS2: [[usize; 2]; 3] = [[0, 1], [1, 2], [2, 0]];
const FACETS3: [[usize; 3]; 4] = [[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]];

/// Super-simplex vertices as offsets from the bounding box centre, in
/// units of 64 × the box's longest side.
const SUPER2: [[f64; 2]; 3] = [[-2.0, -1.0], [2.0, -1.0], [0.0, 2.0]];
const SUPER3: [[f64; 3]; 4] = [
    [-1.0, -1.0, -1.0],
    [3.0, -1.0, -1.0],
    [-1.0, 3.0, -1.0],
    [-1.0, -1.0, 3.0],
];

#[inline]
fn xy<const D: usize>(p: [f64; D]) -> [f64; 2] {
    [p[0], p[1]]
}

#[inline]
fn xyz<const D: usize>(p: [f64; D]) -> [f64; 3] {
    [p[0], p[1], p[2]]
}

/// A facet of the cavity boundary: its vertices, the simplex outside it
/// and that simplex's facet looking back.
type Boundary<const D: usize> = ([u32; D], u32, usize);

/// A facet of the new fan waiting for the fan simplex on its other side.
/// The two share the facet's vertices other than the new point — one
/// vertex in 2D, an edge in 3D — and meet in the scratch list of the
/// smallest of them.
#[derive(Clone, Copy, Debug)]
struct Ridge {
    hi: u32,
    simplex: u32,
    facet: usize,
    next: u32,
}

/// A Delaunay mesh of points in `D` dimensions, `K = D + 1` vertices per
/// simplex.
#[derive(Debug)]
pub struct Mesh<const D: usize, const K: usize> {
    /// Input points, then the `K` super-vertices.
    pts: Vec<[f64; D]>,
    n_input: usize,
    /// The box the super-simplex was built around.
    bounds: ([f64; D], [f64; D]),
    /// Positively oriented simplices; free slots carry the stamp `NONE`.
    simplices: Vec<[u32; K]>,
    /// `nbr[s][k]`: the simplex across facet `k` of `s`, `NONE` on the hull.
    nbr: Vec<[u32; K]>,
    /// `stamp[s] == epoch`: `s` is in the cavity of the current insert.
    stamp: Vec<u32>,
    epoch: u32,
    /// The simplex created last: where the next walk starts.
    last: u32,
    cavity: Vec<u32>,
    stack: Vec<u32>,
    boundary: Vec<Boundary<D>>,
    free: Vec<u32>,
    /// Per vertex: head of its list in `ridges`.
    link: Vec<u32>,
    ridges: Vec<Ridge>,
}

impl<const D: usize, const K: usize> Mesh<D, K> {
    /// Triangulate `points`. Duplicate points must not be present.
    pub fn new(points: &[[f64; D]]) -> Self {
        let (mut lo, mut hi) = ([f64::MAX; D], [f64::MIN; D]);
        for p in points {
            for i in 0..D {
                lo[i] = lo[i].min(p[i]);
                hi[i] = hi[i].max(p[i]);
            }
        }
        if points.is_empty() {
            (lo, hi) = ([0.0; D], [1.0; D]);
        }
        let mut dt = Self::with_bounds(lo, hi);
        dt.extend(points);
        dt
    }

    /// The empty mesh of the box `[lo, hi]`: a super-simplex comfortably
    /// containing it, ready for [`Self::extend`] with points inside it.
    pub fn with_bounds(lo: [f64; D], hi: [f64; D]) -> Self {
        assert!((D == 2 || D == 3) && K == D + 1);
        let span = (0..D).map(|i| hi[i] - lo[i]).fold(1.0, f64::max);
        let s = 64.0 * span;
        let pts = (0..K).map(|j| {
            std::array::from_fn(|i| {
                let unit = if D == 2 { SUPER2[j][i] } else { SUPER3[j][i] };
                (lo[i] + hi[i]) / 2.0 + unit * s
            })
        });
        let mut dt = Mesh {
            pts: pts.collect(),
            n_input: 0,
            bounds: (lo, hi),
            simplices: Vec::new(),
            nbr: Vec::new(),
            stamp: Vec::new(),
            epoch: 0,
            last: 0,
            cavity: Vec::new(),
            stack: Vec::new(),
            boundary: Vec::new(),
            free: Vec::new(),
            link: Vec::new(),
            ridges: Vec::new(),
        };
        let mut first: [u32; K] = std::array::from_fn(|j| j as u32);
        if dt.orient(first, 0, dt.pts[K - 1]) == Sign::Negative {
            first.swap(0, 1);
        }
        dt.simplices.push(first);
        dt.nbr.push([NONE; K]);
        dt.stamp.push(0);
        dt
    }

    /// Insert `points` (inside the mesh's bounds, distinct from each
    /// other and from the points already in) as vertices
    /// `num_points()..`, along the Z-order curve of their positions
    /// quantised on the bounds — ties by index; a zero-width axis
    /// quantises to one cell.
    pub fn extend(&mut self, points: &[[f64; D]]) {
        let (old, n) = (self.n_input, self.n_input + points.len());
        assert!(n < (NONE as usize) - K, "vertex ids are u32");
        // The super-vertices stay behind the input points.
        self.pts.splice(old..old, points.iter().copied());
        for v in self.simplices.iter_mut().flatten() {
            if *v as usize >= old {
                *v += points.len() as u32;
            }
        }
        self.n_input = n;
        self.link.resize(n + K, NONE);
        // Expected simplices per point of a uniform sample: 2 triangles,
        // ≈ 6.8 tetrahedra.
        let more = points.len() * if D == 2 { 2 } else { 7 };
        self.simplices.reserve(more);
        self.nbr.reserve(more);
        self.stamp.reserve(more);

        let (lo, hi) = self.bounds;
        let bits = if D == 2 { 32 } else { 21 };
        let cells = (1u64 << bits) as f64;
        let mut order: Vec<(u64, u32)> = (old..n)
            .map(|v| {
                let q = std::array::from_fn(|i| {
                    let x = (self.pts[v][i] - lo[i]) / (hi[i] - lo[i]) * cells;
                    (x as u64).min((1 << bits) - 1)
                });
                (morton::encode::<D>(q), v as u32)
            })
            .collect();
        order.sort_unstable();
        for (_, v) in order {
            self.insert(v);
        }
    }

    /// Vertices of facet `k` of the simplex `s`.
    #[inline]
    fn facet(s: [u32; K], k: usize) -> [u32; D] {
        std::array::from_fn(|i| s[if D == 2 { FACETS2[k][i] } else { FACETS3[k][i] }])
    }

    /// Side of facet `k` of `s` that `p` lies on; the simplex's own
    /// omitted vertex is on the positive one.
    #[inline]
    fn orient(&self, s: [u32; K], k: usize, p: [f64; D]) -> Sign {
        let f = Self::facet(s, k).map(|v| self.pts[v as usize]);
        match D {
            2 => orient2(xy(f[0]), xy(f[1]), xy(p)),
            _ => orient3(xyz(f[0]), xyz(f[1]), xyz(f[2]), xyz(p)),
        }
    }

    #[inline]
    fn in_sphere(&self, s: u32, p: [f64; D]) -> Sign {
        let v = self.simplices[s as usize].map(|v| self.pts[v as usize]);
        match D {
            2 => incircle2(xy(v[0]), xy(v[1]), xy(v[2]), xy(p)),
            _ => insphere3(xyz(v[0]), xyz(v[1]), xyz(v[2]), xyz(v[3]), xyz(p)),
        }
    }

    fn contains(&self, s: [u32; K], p: [f64; D]) -> bool {
        (0..K).all(|k| self.orient(s, k, p) != Sign::Negative)
    }

    /// Visibility walk from the last created simplex; falls back to a
    /// linear scan if the walk stalls or leaves the hull (degenerate
    /// configurations).
    fn locate(&self, p: [f64; D]) -> u32 {
        let mut s = self.last;
        'walk: for _ in 0..4 * self.simplices.len() + 64 {
            let v = self.simplices[s as usize];
            for k in 0..K {
                if self.orient(v, k, p) == Sign::Negative {
                    s = self.nbr[s as usize][k];
                    if s == NONE {
                        break 'walk;
                    }
                    continue 'walk;
                }
            }
            return s;
        }
        self.live()
            .find(|&s| self.contains(self.simplices[s as usize], p))
            .unwrap_or_else(|| panic!("point {p:?} not inside the super-simplex"))
    }

    fn insert(&mut self, pi: u32) {
        let p = self.pts[pi as usize];
        let start = self.locate(p);

        // Cavity flood fill over circumsphere-violating simplices.
        self.epoch += 1;
        let epoch = self.epoch;
        self.cavity.clear();
        self.cavity.push(start);
        self.stack.push(start);
        self.stamp[start as usize] = epoch;
        while let Some(s) = self.stack.pop() {
            for nb in self.nbr[s as usize] {
                if nb != NONE
                    && self.stamp[nb as usize] != epoch
                    && self.in_sphere(nb, p) == Sign::Positive
                {
                    self.stamp[nb as usize] = epoch;
                    self.cavity.push(nb);
                    self.stack.push(nb);
                }
            }
        }

        // Boundary facets: cavity facets whose far side is not in the cavity.
        self.boundary.clear();
        for &s in &self.cavity {
            for (k, nb) in self.nbr[s as usize].into_iter().enumerate() {
                if nb != NONE && self.stamp[nb as usize] == epoch {
                    continue;
                }
                let back = match nb {
                    NONE => 0,
                    _ => {
                        let back = self.nbr[nb as usize].iter().position(|&x| x == s);
                        back.expect("neighbour links are symmetric")
                    }
                };
                let facet = Self::facet(self.simplices[s as usize], k);
                self.boundary.push((facet, nb, back));
            }
        }

        // The fan: one simplex per boundary facet, the new point last,
        // stored in the cavity's slots first.
        for i in 0..self.boundary.len() {
            let (f, outside, back) = self.boundary[i];
            let simplex: [u32; K] = std::array::from_fn(|j| if j < D { f[j] } else { pi });
            debug_assert_ne!(
                self.orient(simplex, 0, p),
                Sign::Negative,
                "inverted simplex"
            );
            let mut nbr = [NONE; K];
            nbr[0] = outside;
            let id = match self.cavity.get(i).copied().or_else(|| self.free.pop()) {
                Some(id) => {
                    self.simplices[id as usize] = simplex;
                    self.nbr[id as usize] = nbr;
                    self.stamp[id as usize] = epoch;
                    id
                }
                None => {
                    self.simplices.push(simplex);
                    self.nbr.push(nbr);
                    self.stamp.push(epoch);
                    (self.simplices.len() - 1) as u32
                }
            };
            if outside != NONE {
                self.nbr[outside as usize][back] = id;
            }
            for k in 1..K {
                let ridge = Self::facet(simplex, k);
                let rest = ridge.iter().filter(|&&v| v != pi);
                let (lo, hi) = rest.fold((NONE, 0), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                let mut at = self.link[lo as usize];
                while at != NONE && self.ridges[at as usize].hi != hi {
                    at = self.ridges[at as usize].next;
                }
                if at == NONE {
                    self.ridges.push(Ridge {
                        hi,
                        simplex: id,
                        facet: k,
                        next: self.link[lo as usize],
                    });
                    self.link[lo as usize] = (self.ridges.len() - 1) as u32;
                } else {
                    let other = self.ridges[at as usize];
                    self.nbr[id as usize][k] = other.simplex;
                    self.nbr[other.simplex as usize][other.facet] = id;
                }
            }
            self.last = id;
        }
        for &(f, _, _) in &self.boundary {
            for v in f {
                self.link[v as usize] = NONE;
            }
        }
        self.ridges.clear();
        // A fan smaller than its cavity (3D only) leaves slots free.
        for &s in self.cavity.iter().skip(self.boundary.len()) {
            self.stamp[s as usize] = NONE;
            self.free.push(s);
        }
    }

    fn live(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.simplices.len() as u32).filter(|&s| self.stamp[s as usize] != NONE)
    }

    /// Number of input points.
    pub fn num_points(&self) -> usize {
        self.n_input
    }

    /// Coordinates of an input point.
    pub fn point(&self, i: usize) -> [f64; D] {
        self.pts[i]
    }

    /// Is `i` one of the synthetic super-simplex vertices?
    #[inline]
    pub fn is_super(&self, i: u32) -> bool {
        i as usize >= self.n_input
    }

    /// Every simplex of the mesh, those touching super-vertices included
    /// (needed for the RDG halo-convergence checks), as point indices.
    pub fn simplices(&self) -> impl Iterator<Item = [u32; K]> + '_ {
        self.live().map(|s| self.simplices[s as usize])
    }

    /// The finite simplices (no super-vertices).
    pub fn finite(&self) -> impl Iterator<Item = [u32; K]> + '_ {
        self.simplices()
            .filter(|s| s.iter().all(|&v| !self.is_super(v)))
    }

    /// Circumsphere of a simplex: (center, squared radius).
    pub fn circumsphere(&self, s: [u32; K]) -> ([f64; D], f64) {
        let v = s.map(|v| self.pts[v as usize]);
        match D {
            2 => {
                let (c, r2) = circumcircle2(xy(v[0]), xy(v[1]), xy(v[2]));
                (std::array::from_fn(|i| c[i]), r2)
            }
            _ => {
                let (c, r2) = circumsphere3(xyz(v[0]), xyz(v[1]), xyz(v[2]), xyz(v[3]));
                (std::array::from_fn(|i| c[i]), r2)
            }
        }
    }

    /// Undirected finite edges, deduplicated and sorted.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut edges = Vec::new();
        for s in self.finite() {
            for i in 0..K {
                for j in (i + 1)..K {
                    edges.push((s[i].min(s[j]), s[i].max(s[j])));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }
}

/// The invariants both instances test (`tri2.rs`, `tet3.rs`).
#[cfg(test)]
pub(crate) mod invariants {
    use super::*;
    use kagen_util::{Mt64, Rng64};

    pub(crate) fn random_points<const D: usize>(n: usize, seed: u64) -> Vec<[f64; D]> {
        let mut rng = Mt64::new(seed);
        (0..n)
            .map(|_| std::array::from_fn(|_| rng.next_f64()))
            .collect()
    }

    impl<const D: usize, const K: usize> Mesh<D, K> {
        /// Neighbour links are symmetric across the facet both sides
        /// share, and every simplex is positively oriented.
        fn assert_consistent(&self) {
            for s in self.live() {
                let v = self.simplices[s as usize];
                assert_eq!(
                    self.orient(v, 0, self.pts[v[K - 1] as usize]),
                    Sign::Positive,
                    "simplex {v:?} is not positively oriented"
                );
                for (k, nb) in self.nbr[s as usize].into_iter().enumerate() {
                    if nb == NONE {
                        continue;
                    }
                    assert_ne!(self.stamp[nb as usize], NONE, "{s} points at a free slot");
                    let back = self.nbr[nb as usize].iter().position(|&x| x == s);
                    let back = back.unwrap_or_else(|| panic!("{nb} does not point back at {s}"));
                    let mut sides = [
                        Self::facet(v, k),
                        Self::facet(self.simplices[nb as usize], back),
                    ];
                    sides.iter_mut().for_each(|f| f.sort_unstable());
                    assert_eq!(sides[0], sides[1], "{s} and {nb} disagree on their facet");
                }
            }
        }
    }

    /// The mesh is consistent after every insert (the points extend it
    /// one at a time); returns the most slots that were free at once.
    pub(crate) fn consistent_after_each_insert_of<const D: usize, const K: usize>(
        points: &[[f64; D]],
    ) -> usize {
        let mut dt = Mesh::<D, K>::with_bounds([0.0; D], [1.0; D]);
        let mut freed = 0;
        for p in points {
            dt.extend(&[*p]);
            dt.assert_consistent();
            freed = freed.max(dt.free.len());
        }
        assert_eq!(dt.edges(), Mesh::<D, K>::new(points).edges());
        freed
    }

    /// `edges()` of a point set is `edges()` of the same set shuffled:
    /// the graph does not depend on the order the points arrive in.
    pub(crate) fn edges_ignore_input_order<const D: usize, const K: usize>(n: usize) {
        for seed in 0..20 {
            let pts = random_points::<D>(n, seed);
            let mut perm: Vec<usize> = (0..n).collect();
            let mut rng = Mt64::new(seed ^ 0xface);
            for i in (1..n).rev() {
                perm.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            let shuffled: Vec<[f64; D]> = perm.iter().map(|&i| pts[i]).collect();
            let mut back: Vec<(u32, u32)> = Mesh::<D, K>::new(&shuffled)
                .edges()
                .into_iter()
                .map(|(a, b)| (perm[a as usize] as u32, perm[b as usize] as u32))
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect();
            back.sort_unstable();
            assert_eq!(Mesh::<D, K>::new(&pts).edges(), back, "seed {seed}");
        }
    }
}
