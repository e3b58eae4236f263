//! Property tests for routing and matching invariants. Each property runs
//! `CASES` cases; case `n` draws its inputs from `SplitMix64::new(n)`, so the
//! case number in a failure message is the seed that replays it.

use odt_obs::SplitMix64;
use odt_roadnet::{dijkstra, k_shortest_paths, matching, Point, RoadNetwork};

const CASES: u64 = 32;

/// A node of the 5×5 grid.
fn node(rng: &mut SplitMix64) -> usize {
    rng.next_below(25) as usize
}

fn grid() -> RoadNetwork {
    RoadNetwork::grid_city(5, 5, 100.0, 3)
}

/// Brute-force shortest path cost by exhaustive BFS over bounded-length
/// paths (ok on a 5×5 grid with ≤ 8 hops for nearby pairs).
fn brute_force_cost(net: &RoadNetwork, from: usize, to: usize, max_hops: usize) -> Option<f64> {
    let weight = |e: usize| net.edge(e).base_travel_time();
    let mut best: Option<f64> = None;
    let mut stack = vec![(from, 0.0f64, vec![from])];
    while let Some((node, cost, path)) = stack.pop() {
        if best.is_some_and(|b| cost >= b) {
            continue;
        }
        if node == to {
            best = Some(best.map_or(cost, |b: f64| b.min(cost)));
            continue;
        }
        if path.len() > max_hops {
            continue;
        }
        for &e in net.out_edges(node) {
            let next = net.edge(e).to;
            if path.contains(&next) {
                continue;
            }
            let mut p = path.clone();
            p.push(next);
            stack.push((next, cost + weight(e), p));
        }
    }
    best
}

#[test]
fn dijkstra_matches_brute_force() {
    let net = grid();
    let weight = |e: usize| net.edge(e).base_travel_time();
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let (from, to) = (node(&mut rng), node(&mut rng));
        let d = dijkstra(&net, from, to, &weight).expect("grid is connected");
        // Bound hops to keep brute force tractable: grid diameter is 8.
        // Brute force with bounded hops may miss longer-but-cheaper routes
        // only if they exceed 9 hops; on a 5x5 grid the optimum never does.
        let bf = brute_force_cost(&net, from, to, 9).expect("bounded search must reach the target");
        assert!(
            (d.cost - bf).abs() < 1e-9,
            "case {case}: {from} -> {to}: dijkstra {} vs brute {bf}",
            d.cost
        );
    }
}

#[test]
fn dijkstra_path_is_connected_and_cost_consistent() {
    let net = grid();
    let weight = |e: usize| net.edge(e).base_travel_time();
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let (from, to) = (node(&mut rng), node(&mut rng));
        let d = dijkstra(&net, from, to, &weight).unwrap();
        assert_eq!(*d.nodes.first().unwrap(), from, "case {case}");
        assert_eq!(*d.nodes.last().unwrap(), to, "case {case}");
        let mut total = 0.0;
        for w in d.nodes.windows(2) {
            let e = net
                .edge_between(w[0], w[1])
                .expect("consecutive nodes adjacent");
            total += weight(e);
        }
        assert!(
            (total - d.cost).abs() < 1e-9,
            "case {case}: {from} -> {to}: path sums to {total}, cost {}",
            d.cost
        );
    }
}

#[test]
fn triangle_inequality_over_waypoints() {
    let net = grid();
    let weight = |e: usize| net.edge(e).base_travel_time();
    let d = |x, y| dijkstra(&net, x, y, &weight).unwrap().cost;
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let (a, b, c) = (node(&mut rng), node(&mut rng), node(&mut rng));
        assert!(
            d(a, c) <= d(a, b) + d(b, c) + 1e-9,
            "case {case}: {a} -> {c} costs more than via {b}"
        );
    }
}

#[test]
fn k_shortest_first_is_optimal() {
    let net = grid();
    let weight = |e: usize| net.edge(e).base_travel_time();
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let from = node(&mut rng);
        // Any node but `from`.
        let to = (from + 1 + rng.next_below(24) as usize) % 25;
        let best = dijkstra(&net, from, to, &weight).unwrap().cost;
        let alts = k_shortest_paths(&net, from, to, &weight, 3, 1.5);
        assert!(!alts.is_empty(), "case {case}: {from} -> {to}");
        assert!(
            (alts[0].cost - best).abs() < 1e-9,
            "case {case}: {from} -> {to}: first alternative {} vs optimum {best}",
            alts[0].cost
        );
        for a in &alts[1..] {
            assert!(a.cost >= best - 1e-9, "case {case}: {from} -> {to}");
        }
    }
}

#[test]
fn matched_trajectories_are_connected() {
    let net = grid();
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let mut uniform = |lo: f64, hi: f64| lo + (hi - lo) * rng.next_f64();
        // A random wandering trace with noise.
        let mut pts = Vec::new();
        let (mut x, mut y) = (uniform(0.0, 400.0), uniform(0.0, 400.0));
        for _ in 0..8 {
            x = (x + uniform(-120.0, 120.0)).clamp(0.0, 400.0);
            y = (y + uniform(-120.0, 120.0)).clamp(0.0, 400.0);
            pts.push(Point::new(x, y));
        }
        let path = matching::match_trajectory(&net, &pts);
        assert!(!path.is_empty(), "case {case}");
        for w in path.windows(2) {
            assert!(
                net.edge_between(w[0], w[1]).is_some(),
                "case {case}: gap between {} and {}",
                w[0],
                w[1]
            );
        }
    }
}
