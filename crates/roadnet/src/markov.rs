//! Destination-conditioned Markov transition routing — the stand-in for
//! DeepST (Li et al., ICDE 2020).
//!
//! DeepST "makes use of historical travel behavior derived from trajectory
//! data, thereby enhancing the accuracy of generated paths" (paper §2.1).
//! This router captures the same mechanism without a neural network: it
//! counts, from historical matched paths, how often drivers at node `u`
//! heading toward a destination in direction-octant `o` during time-slot `s`
//! chose each outgoing neighbor, and routes new queries by following the
//! most probable transitions. Unvisited states fall back to the
//! shortest-path direction, so the router always terminates.

use crate::dijkstra::dijkstra;
use crate::graph::{EdgeId, NodeId, RoadNetwork};
use std::collections::HashMap;

const OCTANTS: usize = 8;

/// A routing model over `(node, destination octant, time slot)` states.
///
/// The router does not own the network; pass the same [`RoadNetwork`] to
/// [`MarkovRouter::observe_path`] and [`MarkovRouter::route`].
pub struct MarkovRouter {
    slots: usize,
    /// `(state, next_node) -> count`.
    counts: HashMap<(usize, NodeId), u32>,
    /// Total count per state for normalization.
    totals: HashMap<usize, u32>,
}

impl MarkovRouter {
    /// An untrained router with `slots` time-of-day slots.
    pub fn new(slots: usize) -> Self {
        assert!(slots >= 1, "need at least one slot");
        MarkovRouter {
            slots,
            counts: HashMap::new(),
            totals: HashMap::new(),
        }
    }

    fn octant(&self, net: &RoadNetwork, from: NodeId, dest: NodeId) -> usize {
        let a = net.position(from);
        let b = net.position(dest);
        let angle = (b.y - a.y).atan2(b.x - a.x); // [-pi, pi]
        let frac = (angle + std::f64::consts::PI) / (2.0 * std::f64::consts::PI);
        ((frac * OCTANTS as f64) as usize).min(OCTANTS - 1)
    }

    fn state(&self, net: &RoadNetwork, node: NodeId, dest: NodeId, slot: usize) -> usize {
        (node * OCTANTS + self.octant(net, node, dest)) * self.slots + slot
    }

    /// Learn from one historical node path departing in `slot`.
    pub fn observe_path(&mut self, net: &RoadNetwork, path: &[NodeId], slot: usize) {
        assert!(slot < self.slots, "slot out of range");
        if path.len() < 2 {
            return;
        }
        let dest = *path.last().unwrap();
        for w in path.windows(2) {
            let s = self.state(net, w[0], dest, slot);
            *self.counts.entry((s, w[1])).or_insert(0) += 1;
            *self.totals.entry(s).or_insert(0) += 1;
        }
    }

    /// Number of distinct observed states (diagnostic).
    pub fn num_states(&self) -> usize {
        self.totals.len()
    }

    /// Route from `origin` to `dest` in `slot` by following the most
    /// probable learned transitions; falls back to the shortest-path next
    /// hop in unobserved states. Always returns a path ending at `dest`.
    pub fn route(
        &self,
        net: &RoadNetwork,
        origin: NodeId,
        dest: NodeId,
        slot: usize,
    ) -> Vec<NodeId> {
        assert!(slot < self.slots, "slot out of range");
        let mut path = vec![origin];
        let mut current = origin;
        let mut prev: Option<NodeId> = None;
        let max_steps = net.num_nodes() * 4;
        let dist = |e: EdgeId| net.edge(e).length_m;
        for _ in 0..max_steps {
            if current == dest {
                return path;
            }
            let s = self.state(net, current, dest, slot);
            // Most probable observed next hop, excluding an immediate
            // backtrack (which would loop forever on bidirectional edges).
            let mut best: Option<(NodeId, u32)> = None;
            for &e in net.out_edges(current) {
                let next = net.edge(e).to;
                if Some(next) == prev {
                    continue;
                }
                if let Some(&c) = self.counts.get(&(s, next)) {
                    if best.is_none_or(|(_, bc)| c > bc) {
                        best = Some((next, c));
                    }
                }
            }
            let next = match best {
                Some((n, _)) => n,
                None => {
                    // Unobserved state: take the shortest-path next hop.
                    match dijkstra(net, current, dest, &dist) {
                        Some(r) if r.nodes.len() >= 2 => r.nodes[1],
                        _ => return path, // unreachable destination
                    }
                }
            };
            prev = Some(current);
            current = next;
            path.push(current);
        }
        // Step budget exhausted (cyclic learned behavior): finish by
        // shortest path so the caller always gets a complete route.
        if current != dest {
            if let Some(r) = dijkstra(net, current, dest, &dist) {
                path.extend_from_slice(&r.nodes[1..]);
            }
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_router_follows_shortest_path() {
        let net = RoadNetwork::grid_city(4, 4, 100.0, 10);
        let router = MarkovRouter::new(4);
        let path = router.route(&net, 0, 3, 0);
        assert_eq!(path, vec![0, 1, 2, 3]);
    }

    #[test]
    fn learns_preferred_detour() {
        // Historical drivers go 0 -> 4 -> 5 -> 1 (detour via row 1) instead
        // of 0 -> 1 directly. After observing, routing 0 -> 1 must follow
        // the learned detour.
        let net = RoadNetwork::grid_city(4, 4, 100.0, 10);
        let mut router = MarkovRouter::new(1);
        for _ in 0..5 {
            router.observe_path(&net, &[0, 4, 5, 1], 0);
        }
        let path = router.route(&net, 0, 1, 0);
        assert_eq!(path, vec![0, 4, 5, 1]);
    }

    #[test]
    fn slots_separate_behavior() {
        // Slot 0 drivers detour; slot 1 has no data and uses shortest path.
        let net = RoadNetwork::grid_city(4, 4, 100.0, 10);
        let mut router = MarkovRouter::new(2);
        router.observe_path(&net, &[0, 4, 5, 1], 0);
        assert_eq!(router.route(&net, 0, 1, 0), vec![0, 4, 5, 1]);
        assert_eq!(router.route(&net, 0, 1, 1), vec![0, 1]);
    }

    #[test]
    fn route_always_reaches_destination() {
        let net = RoadNetwork::grid_city(5, 5, 100.0, 2);
        let mut router = MarkovRouter::new(2);
        // Observe some arbitrary paths.
        router.observe_path(&net, &[0, 1, 2, 7, 12], 0);
        router.observe_path(&net, &[24, 23, 22, 17], 1);
        for (o, d) in [(0usize, 24usize), (3, 20), (12, 0)] {
            for s in 0..2 {
                let p = router.route(&net, o, d, s);
                assert_eq!(*p.first().unwrap(), o);
                assert_eq!(*p.last().unwrap(), d);
                // Path must be connected.
                for w in p.windows(2) {
                    assert!(net.edge_between(w[0], w[1]).is_some());
                }
            }
        }
    }

    #[test]
    fn octants_partition_directions() {
        let net = RoadNetwork::grid_city(3, 3, 100.0, 2);
        let router = MarkovRouter::new(1);
        // From center node 4, the 8 neighbors' octants must not all agree.
        let octants: Vec<usize> = [0usize, 2, 6, 8, 1, 3, 5, 7]
            .iter()
            .map(|&d| router.octant(&net, 4, d))
            .collect();
        let distinct: std::collections::HashSet<_> = octants.iter().collect();
        assert!(distinct.len() >= 4, "octants {octants:?}");
    }
}
