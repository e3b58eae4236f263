//! Edge travel-time weights learned from historical trajectories.
//!
//! The paper's routing baselines get "a weighted road network, where the
//! weights represent the average travel time of road segments that is
//! calculated from historical trajectories" (§6.2.1). [`EdgeWeights`] is
//! that static average; [`TimeDependentWeights`] buckets the averages by
//! time-of-day slot, which the ablation harness uses to fill the temporal
//! PiT channels for routing-based variants (§6.5.4 observation 1).

use crate::graph::{EdgeId, RoadNetwork};

/// Historical average travel time per directed edge, seconds. Edges never
/// observed fall back to their free-flow time.
#[derive(Clone, Debug)]
pub struct EdgeWeights {
    avg: Vec<f64>,
}

impl EdgeWeights {
    /// Free-flow weights (no history).
    pub fn free_flow(net: &RoadNetwork) -> Self {
        EdgeWeights {
            avg: (0..net.num_edges())
                .map(|e| net.edge(e).base_travel_time())
                .collect(),
        }
    }

    /// Average observed traversal times; unobserved edges use free flow.
    pub fn from_observations(
        net: &RoadNetwork,
        observations: impl IntoIterator<Item = (EdgeId, f64)>,
    ) -> Self {
        let mut sum = vec![0.0; net.num_edges()];
        let mut count = vec![0usize; net.num_edges()];
        for (e, t) in observations {
            assert!(e < net.num_edges(), "edge id out of range");
            assert!(t.is_finite() && t >= 0.0, "invalid observation {t}");
            sum[e] += t;
            count[e] += 1;
        }
        let avg = (0..net.num_edges())
            .map(|e| {
                if count[e] > 0 {
                    sum[e] / count[e] as f64
                } else {
                    net.edge(e).base_travel_time()
                }
            })
            .collect();
        EdgeWeights { avg }
    }

    /// Weight of an edge, seconds.
    pub fn get(&self, e: EdgeId) -> f64 {
        self.avg[e]
    }

    /// A closure view usable with [`crate::dijkstra`].
    pub fn as_fn(&self) -> impl Fn(EdgeId) -> f64 + '_ {
        move |e| self.avg[e]
    }
}

/// Average edge travel times bucketed by time-of-day slot.
#[derive(Clone, Debug)]
pub struct TimeDependentWeights {
    slots: usize,
    /// `table[e * slots + s]` = average seconds in slot `s`.
    table: Vec<f64>,
}

impl TimeDependentWeights {
    /// Build from `(edge, slot, seconds)` observations; empty buckets fall
    /// back to the edge's all-day average, then to free flow.
    pub fn from_observations(
        net: &RoadNetwork,
        slots: usize,
        observations: impl IntoIterator<Item = (EdgeId, usize, f64)>,
    ) -> Self {
        assert!(slots >= 1, "need at least one slot");
        let ne = net.num_edges();
        let mut sum = vec![0.0; ne * slots];
        let mut count = vec![0usize; ne * slots];
        let mut day_sum = vec![0.0; ne];
        let mut day_count = vec![0usize; ne];
        for (e, s, t) in observations {
            assert!(e < ne && s < slots, "observation out of range");
            sum[e * slots + s] += t;
            count[e * slots + s] += 1;
            day_sum[e] += t;
            day_count[e] += 1;
        }
        let table = (0..ne * slots)
            .map(|i| {
                let e = i / slots;
                if count[i] > 0 {
                    sum[i] / count[i] as f64
                } else if day_count[e] > 0 {
                    day_sum[e] / day_count[e] as f64
                } else {
                    net.edge(e).base_travel_time()
                }
            })
            .collect();
        TimeDependentWeights { slots, table }
    }

    /// Number of time slots per day.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Weight of `e` in slot `s`, seconds.
    pub fn get(&self, e: EdgeId, s: usize) -> f64 {
        self.table[e * self.slots + s]
    }

    /// Map a second-of-day to a slot index.
    pub fn slot_of(&self, second_of_day: u32) -> usize {
        ((second_of_day as usize * self.slots) / 86_400).min(self.slots - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_edges_average() {
        let net = RoadNetwork::grid_city(3, 3, 100.0, 2);
        let w = EdgeWeights::from_observations(&net, vec![(0, 10.0), (0, 20.0), (1, 5.0)]);
        assert_eq!(w.get(0), 15.0);
        assert_eq!(w.get(1), 5.0);
    }

    #[test]
    fn unobserved_edges_fall_back_to_free_flow() {
        let net = RoadNetwork::grid_city(3, 3, 100.0, 2);
        let w = EdgeWeights::from_observations(&net, vec![]);
        for e in 0..net.num_edges() {
            assert!((w.get(e) - net.edge(e).base_travel_time()).abs() < 1e-9);
        }
    }

    #[test]
    fn time_dependent_buckets() {
        let net = RoadNetwork::grid_city(3, 3, 100.0, 2);
        let w = TimeDependentWeights::from_observations(
            &net,
            4,
            vec![(0, 0, 10.0), (0, 0, 14.0), (0, 2, 30.0)],
        );
        assert_eq!(w.get(0, 0), 12.0);
        assert_eq!(w.get(0, 2), 30.0);
        // Slot 1 unobserved -> all-day average of edge 0 = (10+14+30)/3 = 18.
        assert_eq!(w.get(0, 1), 18.0);
        // Unobserved edge -> free flow.
        assert!((w.get(5, 3) - net.edge(5).base_travel_time()).abs() < 1e-9);
    }

    #[test]
    fn slot_mapping_covers_day() {
        let net = RoadNetwork::grid_city(2, 2, 100.0, 2);
        let w = TimeDependentWeights::from_observations(&net, 24, vec![]);
        assert_eq!(w.slot_of(0), 0);
        assert_eq!(w.slot_of(3_600), 1);
        assert_eq!(w.slot_of(86_399), 23);
    }
}
