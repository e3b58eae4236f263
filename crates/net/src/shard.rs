//! Grid-region shard placement for the oracle cluster.
//!
//! The router partitions the OD space by hashing `(origin_cell,
//! dest_cell)` — the same cell quantization the oracle's own grid uses,
//! at a router-chosen resolution — onto `N` shards via **rendezvous
//! (highest-random-weight) hashing**: every `(key, shard)` pair gets a
//! deterministic 64-bit score and the key lives on the shard with the
//! highest score. That buys three properties the property tests pin down:
//!
//! * **Deterministic** — placement is a pure function of
//!   `(key, shard count, seed)`; two routers with the same config agree
//!   on every key, so replicas can be probed/retried freely.
//! * **Balanced** — scores are i.i.d. uniform per shard, so keys split
//!   evenly within statistical tolerance; no token-ring hot arcs.
//! * **Minimal remap** — adding shard `N` only moves the keys whose new
//!   shard *is* `N` (a key's scores on the existing shards don't change),
//!   an expected `1/(N+1)` fraction; nothing shuffles between old shards.

use crate::loadgen::Region;
use crate::wire::WireQuery;

/// SplitMix64 finalizer as a stateless 64-bit mixer: the avalanche step
/// of the PRNG `odt_obs::SplitMix64` advances with, without the stream
/// state (placement wants a hash, not a sequence).
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic `(origin_cell, dest_cell)` → shard placement.
#[derive(Clone, Debug)]
pub struct ShardMap {
    shards: usize,
    cells: u32,
    region: Region,
    seed: u64,
}

impl ShardMap {
    /// A placement over `shards` shards, quantizing coordinates onto a
    /// `cells × cells` grid over `region`. `seed` perturbs the score
    /// space (routers in one cluster must share it).
    pub fn new(shards: usize, cells: u32, region: Region, seed: u64) -> ShardMap {
        assert!(shards >= 1, "a cluster needs at least one shard");
        let cells = cells.clamp(1, 1 << 15);
        ShardMap {
            shards,
            cells,
            region,
            seed,
        }
    }

    /// Number of shards keys are placed across.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Per-axis cell count of the placement grid.
    pub fn cells(&self) -> u32 {
        self.cells
    }

    /// Quantize one coordinate pair onto the placement grid (clamping
    /// out-of-region and non-finite points onto the border, mirroring
    /// `GridSpec::cell_of` — routing must never panic on bad input; the
    /// downstream oracle owns rejection).
    fn cell(&self, lng: f64, lat: f64) -> u32 {
        let span_lng = (self.region.lng1 - self.region.lng0).max(1e-12);
        let span_lat = (self.region.lat1 - self.region.lat0).max(1e-12);
        let fx = (lng - self.region.lng0) / span_lng;
        let fy = (lat - self.region.lat0) / span_lat;
        let max = (self.cells - 1) as f64;
        let col = if fx.is_finite() {
            (fx * self.cells as f64).clamp(0.0, max) as u32
        } else {
            0
        };
        let row = if fy.is_finite() {
            (fy * self.cells as f64).clamp(0.0, max) as u32
        } else {
            0
        };
        row * self.cells + col
    }

    /// The placement key for a query: packed `(origin_cell, dest_cell)`.
    pub fn od_key(&self, q: &WireQuery) -> u64 {
        let o = self.cell(q.o_lng, q.o_lat) as u64;
        let d = self.cell(q.d_lng, q.d_lat) as u64;
        (o << 32) | d
    }

    /// Rendezvous score of `key` on `shard`.
    #[inline]
    fn score(&self, key: u64, shard: usize) -> u64 {
        mix64(key ^ mix64(self.seed ^ (shard as u64).wrapping_mul(0xA24B_AED4_963E_E407)))
    }

    /// The shard owning a placement key.
    pub fn shard_of_key(&self, key: u64) -> usize {
        let mut best = 0usize;
        let mut best_score = self.score(key, 0);
        for shard in 1..self.shards {
            let s = self.score(key, shard);
            if s > best_score {
                best = shard;
                best_score = s;
            }
        }
        best
    }

    /// The shard a query routes to.
    pub fn shard_of(&self, q: &WireQuery) -> usize {
        self.shard_of_key(self.od_key(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odt_obs::SplitMix64;

    fn map(shards: usize) -> ShardMap {
        ShardMap::new(shards, 32, Region::default(), 0xC1A5)
    }

    fn query(rng: &mut SplitMix64, r: &Region) -> WireQuery {
        WireQuery {
            o_lng: r.lng0 + rng.next_f64() * (r.lng1 - r.lng0),
            o_lat: r.lat0 + rng.next_f64() * (r.lat1 - r.lat0),
            d_lng: r.lng0 + rng.next_f64() * (r.lng1 - r.lng0),
            d_lat: r.lat0 + rng.next_f64() * (r.lat1 - r.lat0),
            t_dep: 43_200.0,
        }
    }

    #[test]
    fn placement_is_deterministic_and_in_range() {
        let a = map(5);
        let b = map(5);
        let mut rng = SplitMix64::new(7);
        for _ in 0..2_000 {
            let q = query(&mut rng, &Region::default());
            let s = a.shard_of(&q);
            assert_eq!(s, b.shard_of(&q));
            assert!(s < 5);
        }
    }

    #[test]
    fn identical_od_cells_share_a_shard() {
        let m = map(4);
        // Two queries in the same origin/dest cells must co-locate: the
        // cache/affinity contract the cluster design leans on.
        let a = WireQuery {
            o_lng: 103.96,
            o_lat: 30.61,
            d_lng: 104.01,
            d_lat: 30.65,
            t_dep: 100.0,
        };
        let b = WireQuery {
            o_lng: a.o_lng + 1e-6,
            o_lat: a.o_lat + 1e-6,
            d_lng: a.d_lng - 1e-6,
            d_lat: a.d_lat - 1e-6,
            t_dep: 90_000.0,
        };
        assert_eq!(m.od_key(&a), m.od_key(&b));
        assert_eq!(m.shard_of(&a), m.shard_of(&b));
    }

    #[test]
    fn bad_coordinates_route_without_panicking() {
        let m = map(3);
        for q in [
            WireQuery {
                o_lng: f64::NAN,
                o_lat: f64::INFINITY,
                d_lng: -1e9,
                d_lat: 1e9,
                t_dep: 0.0,
            },
            WireQuery {
                o_lng: 0.0,
                o_lat: 0.0,
                d_lng: 0.0,
                d_lat: 0.0,
                t_dep: -5.0,
            },
        ] {
            assert!(m.shard_of(&q) < 3);
        }
    }

    #[test]
    fn keys_balance_within_tolerance() {
        for shards in [2usize, 3, 5, 8] {
            let m = map(shards);
            let mut counts = vec![0usize; shards];
            let n_keys = 20_000u64;
            for k in 0..n_keys {
                counts[m.shard_of_key(mix64(k))] += 1;
            }
            let mean = n_keys as f64 / shards as f64;
            for (i, &c) in counts.iter().enumerate() {
                assert!(
                    (c as f64) > mean * 0.8 && (c as f64) < mean * 1.2,
                    "shard {i}/{shards} holds {c} of {n_keys} keys (mean {mean:.0})"
                );
            }
        }
    }

    #[test]
    fn adding_a_shard_only_moves_keys_onto_it() {
        let old = map(4);
        let new = map(5);
        let mut moved = 0usize;
        let n_keys = 10_000u64;
        for k in 0..n_keys {
            let key = mix64(k ^ 0xFEED);
            let before = old.shard_of_key(key);
            let after = new.shard_of_key(key);
            if before != after {
                assert_eq!(after, 4, "remapped key must land on the new shard");
                moved += 1;
            }
        }
        // Expected fraction 1/5; allow generous statistical slack.
        let expect = n_keys as f64 / 5.0;
        assert!(
            (moved as f64) > expect * 0.6 && (moved as f64) < expect * 1.6,
            "moved {moved} keys, expected ≈{expect:.0}"
        );
    }
}
