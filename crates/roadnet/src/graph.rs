//! The road-network graph.

use crate::geo::Point;

/// Index of an intersection node.
pub type NodeId = usize;
/// Index of a directed road segment.
pub type EdgeId = usize;

/// A directed road segment.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Tail node.
    pub from: NodeId,
    /// Head node.
    pub to: NodeId,
    /// Segment length, meters.
    pub length_m: f64,
    /// Free-flow speed, meters per second.
    pub base_speed_mps: f64,
    /// Whether this segment belongs to an arterial road (faster, preferred
    /// by drivers — the simulator's congestion profile also differs).
    pub arterial: bool,
}

impl Edge {
    /// Free-flow traversal time, seconds.
    pub fn base_travel_time(&self) -> f64 {
        self.length_m / self.base_speed_mps
    }
}

/// A directed road network with planar node positions.
#[derive(Clone, Debug)]
pub struct RoadNetwork {
    positions: Vec<Point>,
    edges: Vec<Edge>,
    out: Vec<Vec<EdgeId>>,
}

/// Free-flow speed of side streets (~30 km/h).
pub const SIDE_STREET_SPEED: f64 = 8.33;
/// Free-flow speed of arterial roads (~50 km/h).
pub const ARTERIAL_SPEED: f64 = 13.89;

impl RoadNetwork {
    /// Build a network from explicit nodes and edges.
    pub fn from_parts(positions: Vec<Point>, edges: Vec<Edge>) -> Self {
        let mut out = vec![Vec::new(); positions.len()];
        for (i, e) in edges.iter().enumerate() {
            assert!(
                e.from < positions.len() && e.to < positions.len(),
                "edge endpoint out of range"
            );
            assert!(
                e.length_m > 0.0 && e.base_speed_mps > 0.0,
                "degenerate edge"
            );
            out[e.from].push(i);
        }
        RoadNetwork {
            positions,
            edges,
            out,
        }
    }

    /// Generate a grid city: `nx × ny` intersections spaced `spacing_m`
    /// apart, connected by bidirectional streets. Every `arterial_every`-th
    /// row and column is an arterial with a higher free-flow speed — the
    /// structure that makes "fast detour vs. short side-street" route choice
    /// meaningful, as in the paper's motivating Figure 1.
    pub fn grid_city(nx: usize, ny: usize, spacing_m: f64, arterial_every: usize) -> Self {
        assert!(nx >= 2 && ny >= 2, "grid city needs at least 2x2 nodes");
        assert!(arterial_every >= 1, "arterial_every must be >= 1");
        let mut positions = Vec::with_capacity(nx * ny);
        for yi in 0..ny {
            for xi in 0..nx {
                positions.push(Point::new(xi as f64 * spacing_m, yi as f64 * spacing_m));
            }
        }
        let id = |xi: usize, yi: usize| yi * nx + xi;
        let mut edges = Vec::new();
        let mut push_both = |a: NodeId, b: NodeId, arterial: bool| {
            let length = spacing_m;
            let speed = if arterial {
                ARTERIAL_SPEED
            } else {
                SIDE_STREET_SPEED
            };
            edges.push(Edge {
                from: a,
                to: b,
                length_m: length,
                base_speed_mps: speed,
                arterial,
            });
            edges.push(Edge {
                from: b,
                to: a,
                length_m: length,
                base_speed_mps: speed,
                arterial,
            });
        };
        for yi in 0..ny {
            for xi in 0..nx {
                // Horizontal street along row yi.
                if xi + 1 < nx {
                    let arterial = yi % arterial_every == 0;
                    push_both(id(xi, yi), id(xi + 1, yi), arterial);
                }
                // Vertical street along column xi.
                if yi + 1 < ny {
                    let arterial = xi % arterial_every == 0;
                    push_both(id(xi, yi), id(xi, yi + 1), arterial);
                }
            }
        }
        Self::from_parts(positions, edges)
    }

    /// Number of intersection nodes.
    pub fn num_nodes(&self) -> usize {
        self.positions.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Position of a node.
    pub fn position(&self, n: NodeId) -> Point {
        self.positions[n]
    }

    /// A directed edge by id.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e]
    }

    /// Outgoing edge ids of a node.
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.out[n]
    }

    /// The edge from `a` to `b`, if one exists.
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        self.out[a].iter().copied().find(|&e| self.edges[e].to == b)
    }

    /// Nearest node to a planar point (linear scan; networks here are small).
    pub fn nearest_node(&self, p: Point) -> NodeId {
        assert!(!self.positions.is_empty(), "empty network");
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, q) in self.positions.iter().enumerate() {
            let d = p.distance(q);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// Bounding box of all node positions: `(min, max)`.
    pub fn bbox(&self) -> (Point, Point) {
        let mut min = Point::new(f64::INFINITY, f64::INFINITY);
        let mut max = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in &self.positions {
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
        }
        (min, max)
    }

    /// Total length of a node path, meters. Panics if consecutive nodes are
    /// not adjacent.
    pub fn path_length(&self, path: &[NodeId]) -> f64 {
        path.windows(2)
            .map(|w| {
                let e = self
                    .edge_between(w[0], w[1])
                    .unwrap_or_else(|| panic!("no edge {} -> {}", w[0], w[1]));
                self.edges[e].length_m
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_city_counts() {
        let net = RoadNetwork::grid_city(4, 3, 100.0, 2);
        assert_eq!(net.num_nodes(), 12);
        // Horizontal: 3 per row * 3 rows; vertical: 2 per column * 4 cols;
        // each bidirectional.
        assert_eq!(net.num_edges(), 2 * (3 * 3 + 2 * 4));
    }

    #[test]
    fn arterials_are_faster() {
        let net = RoadNetwork::grid_city(4, 4, 100.0, 3);
        let arterial_speeds: Vec<f64> = (0..net.num_edges())
            .map(|e| net.edge(e))
            .filter(|e| e.arterial)
            .map(|e| e.base_speed_mps)
            .collect();
        assert!(!arterial_speeds.is_empty());
        assert!(arterial_speeds.iter().all(|&s| s > SIDE_STREET_SPEED));
    }

    #[test]
    fn edge_between_finds_neighbors() {
        let net = RoadNetwork::grid_city(3, 3, 100.0, 2);
        assert!(net.edge_between(0, 1).is_some());
        assert!(net.edge_between(1, 0).is_some());
        assert!(net.edge_between(0, 8).is_none());
    }

    #[test]
    fn nearest_node_picks_closest_corner() {
        let net = RoadNetwork::grid_city(3, 3, 100.0, 2);
        assert_eq!(net.nearest_node(Point::new(-5.0, -5.0)), 0);
        assert_eq!(net.nearest_node(Point::new(205.0, 205.0)), 8);
        assert_eq!(net.nearest_node(Point::new(101.0, 99.0)), 4);
    }

    #[test]
    fn bbox_spans_grid() {
        let net = RoadNetwork::grid_city(3, 2, 50.0, 2);
        let (min, max) = net.bbox();
        assert_eq!((min.x, min.y), (0.0, 0.0));
        assert_eq!((max.x, max.y), (100.0, 50.0));
    }

    #[test]
    fn path_length_sums_edges() {
        let net = RoadNetwork::grid_city(3, 3, 100.0, 2);
        assert_eq!(net.path_length(&[0, 1, 2]), 200.0);
    }

    #[test]
    #[should_panic(expected = "no edge")]
    fn path_length_rejects_gaps() {
        let net = RoadNetwork::grid_city(3, 3, 100.0, 2);
        let _ = net.path_length(&[0, 8]);
    }
}
