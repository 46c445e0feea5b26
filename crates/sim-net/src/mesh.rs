//! Mesh topology and dimension-ordered routing.

use sim_engine::NodeId;

/// A `cols × rows` bidirectional mesh.
///
/// Nodes are numbered row-major: node `i` sits at
/// `(i % cols, i / cols)`. Dimension-ordered (X-then-Y) routing on a mesh
/// yields a path length equal to the Manhattan distance, which is all the
/// endpoint-contention network model needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshShape {
    /// Mesh width (X dimension).
    pub cols: usize,
    /// Mesh height (Y dimension).
    pub rows: usize,
}

impl MeshShape {
    /// The squarest mesh that holds exactly `nodes` nodes.
    ///
    /// Machine configurations used by the paper's experiments map to:
    /// 1 → 1×1, 2 → 2×1, 4 → 2×2, 8 → 4×2, 16 → 4×4, 32 → 8×4.
    ///
    /// Every positive count factors as at least `nodes × 1`, so this never
    /// fails on a valid count — but a prime count has *only* that
    /// factorization and yields a degenerate 1-row strip mesh (7 → 7×1),
    /// with correspondingly longer average routes than a near-square shape.
    ///
    /// # Panics
    ///
    /// Panics for `nodes == 0`.
    pub fn for_nodes(nodes: usize) -> Self {
        assert!(nodes > 0, "mesh needs at least one node");
        // Find the factorization cols*rows == nodes with cols >= rows and
        // cols/rows minimal.
        let mut best: Option<(usize, usize)> = None;
        let mut r = 1;
        while r * r <= nodes {
            if nodes % r == 0 {
                best = Some((nodes / r, r));
            }
            r += 1;
        }
        let (cols, rows) = best.expect("factorization exists for any positive count");
        MeshShape { cols, rows }
    }

    /// Total number of nodes.
    pub fn nodes(&self) -> usize {
        self.cols * self.rows
    }

    /// Coordinates of node `id`.
    pub fn coords(&self, id: NodeId) -> (usize, usize) {
        debug_assert!(id < self.nodes());
        (id % self.cols, id / self.cols)
    }

    /// Node id at coordinates `(x, y)`.
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        debug_assert!(x < self.cols && y < self.rows);
        y * self.cols + x
    }

    /// Number of switch hops between two nodes under dimension-ordered
    /// routing (the Manhattan distance; 0 for a node to itself).
    pub fn hops(&self, a: NodeId, b: NodeId) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// Every directed physical link of the mesh — each ordered pair of
    /// adjacent nodes — in a canonical order: ascending by source node,
    /// then by destination. A `cols × rows` mesh has
    /// `2·(2·cols·rows − cols − rows)` directed links. This enumeration
    /// fixes the index space used by per-link traffic attribution.
    pub fn links(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for a in 0..self.nodes() {
            let (x, y) = self.coords(a);
            if y > 0 {
                out.push((a, self.node_at(x, y - 1)));
            }
            if x > 0 {
                out.push((a, self.node_at(x - 1, y)));
            }
            if x + 1 < self.cols {
                out.push((a, self.node_at(x + 1, y)));
            }
            if y + 1 < self.rows {
                out.push((a, self.node_at(x, y + 1)));
            }
        }
        out
    }

    /// The dimension-ordered route from `a` to `b`, inclusive of both
    /// endpoints. Provided for tests and tooling: the latency model only
    /// needs [`MeshShape::hops`], and the observing collector walks the
    /// same route through a per-node link table, checked against this.
    pub fn route(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        let mut path = vec![a];
        let (mut x, mut y) = (ax, ay);
        while x != bx {
            x = if bx > x { x + 1 } else { x - 1 };
            path.push(self.node_at(x, y));
        }
        while y != by {
            y = if by > y { y + 1 } else { y - 1 };
            path.push(self.node_at(x, y));
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_shapes() {
        assert_eq!(MeshShape::for_nodes(1), MeshShape { cols: 1, rows: 1 });
        assert_eq!(MeshShape::for_nodes(2), MeshShape { cols: 2, rows: 1 });
        assert_eq!(MeshShape::for_nodes(4), MeshShape { cols: 2, rows: 2 });
        assert_eq!(MeshShape::for_nodes(8), MeshShape { cols: 4, rows: 2 });
        assert_eq!(MeshShape::for_nodes(16), MeshShape { cols: 4, rows: 4 });
        assert_eq!(MeshShape::for_nodes(32), MeshShape { cols: 8, rows: 4 });
    }

    #[test]
    fn coords_roundtrip() {
        let m = MeshShape::for_nodes(32);
        for id in 0..32 {
            let (x, y) = m.coords(id);
            assert_eq!(m.node_at(x, y), id);
        }
    }

    #[test]
    fn hop_examples() {
        let m = MeshShape { cols: 8, rows: 4 };
        assert_eq!(m.hops(0, 0), 0);
        assert_eq!(m.hops(0, 7), 7);
        assert_eq!(m.hops(0, 31), 7 + 3);
        assert_eq!(m.hops(9, 10), 1);
    }

    #[test]
    fn route_is_dimension_ordered() {
        let m = MeshShape { cols: 4, rows: 4 };
        // 0=(0,0) to 15=(3,3): X first, then Y.
        assert_eq!(m.route(0, 15), vec![0, 1, 2, 3, 7, 11, 15]);
        assert_eq!(m.route(5, 5), vec![5]);
    }

    #[test]
    fn hops_symmetric_and_triangle() {
        let mut rng = sim_engine::SplitMix64::new(0x4057);
        for _ in 0..512 {
            let nodes = rng.next_range(1, 63) as usize;
            let m = MeshShape::for_nodes(nodes);
            let n = m.nodes();
            let (a, b, c) = (
                rng.next_below(n as u64) as usize,
                rng.next_below(n as u64) as usize,
                rng.next_below(n as u64) as usize,
            );
            assert_eq!(m.hops(a, b), m.hops(b, a));
            assert!(m.hops(a, c) <= m.hops(a, b) + m.hops(b, c));
            assert_eq!(m.hops(a, a), 0);
        }
    }

    #[test]
    fn route_length_matches_hops() {
        let mut rng = sim_engine::SplitMix64::new(0x4058);
        for _ in 0..512 {
            let nodes = rng.next_range(1, 63) as usize;
            let m = MeshShape::for_nodes(nodes);
            let n = m.nodes();
            let (a, b) = (rng.next_below(n as u64) as usize, rng.next_below(n as u64) as usize);
            let route = m.route(a, b);
            assert_eq!(route.len(), m.hops(a, b) + 1);
            assert_eq!(route[0], a);
            assert_eq!(*route.last().unwrap(), b);
            // Consecutive route nodes are mesh neighbors.
            for w in route.windows(2) {
                assert_eq!(m.hops(w[0], w[1]), 1);
            }
        }
    }

    #[test]
    fn prime_counts_yield_strip_meshes() {
        // Primes have no factorization other than n×1: the shape degrades
        // to a single-row strip rather than panicking.
        for p in [2usize, 3, 5, 7, 13, 31] {
            assert_eq!(MeshShape::for_nodes(p), MeshShape { cols: p, rows: 1 });
        }
        // The strip is fully routable end to end.
        let m = MeshShape::for_nodes(7);
        assert_eq!(m.hops(0, 6), 6);
        assert_eq!(m.route(0, 6), vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn links_enumerate_every_adjacent_pair_once() {
        for nodes in [1usize, 2, 6, 7, 16, 32] {
            let m = MeshShape::for_nodes(nodes);
            let links = m.links();
            assert_eq!(links.len(), 2 * (2 * m.cols * m.rows - m.cols - m.rows));
            let mut seen = std::collections::BTreeSet::new();
            for &(a, b) in &links {
                assert_eq!(m.hops(a, b), 1, "links connect mesh neighbors");
                assert!(seen.insert((a, b)), "no duplicate directed link");
            }
            // Bidirectional: the reverse of every link is present too.
            for &(a, b) in &links {
                assert!(seen.contains(&(b, a)));
            }
            // Canonical order: ascending by (source, destination).
            assert!(links.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn shape_is_near_square() {
        for nodes in 1usize..256 {
            let m = MeshShape::for_nodes(nodes);
            assert_eq!(m.nodes(), nodes);
            assert!(m.cols >= m.rows);
        }
    }
}
