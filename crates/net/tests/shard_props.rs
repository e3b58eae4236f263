//! Property tests for the cluster's rendezvous shard placement: the
//! three contracts the router leans on (`odt_net::shard` module docs) —
//! placement is a pure function of `(key, shard count, seed)`, keys
//! balance across shards within statistical tolerance, and growing the
//! cluster by one shard only moves keys *onto* the new shard, an
//! expected `1/(N+1)` fraction.
//!
//! Case `n` of a property draws its inputs from `SplitMix64::new(n)`, so the
//! case number in a failure message is the seed that replays it.

use odt_net::{Region, ShardMap};
use odt_obs::SplitMix64;

/// Uniform draw in `lo..=hi`.
fn between(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.next_below(hi - lo + 1)
}

fn map(shards: usize, cells: u32, seed: u64) -> ShardMap {
    ShardMap::new(shards, cells, Region::default(), seed)
}

/// A stream of well-spread placement keys (packed OD cell pairs live in
/// the same u64 space; the scores only see the mixed key).
fn keys(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Two routers built from the same `(shards, cells, seed)` config
/// agree on every key, and every placement is in range — the
/// precondition for retrying a request against sibling replicas.
#[test]
fn placement_is_deterministic_and_in_range() {
    for case in 0..64 {
        let mut rng = SplitMix64::new(case);
        let shards = between(&mut rng, 1, 9) as usize;
        let cells = between(&mut rng, 1, 128) as u32;
        let (seed, key) = (rng.next_u64(), rng.next_u64());
        let a = map(shards, cells, seed);
        let b = map(shards, cells, seed);
        let s = a.shard_of_key(key);
        assert_eq!(s, b.shard_of_key(key), "case {case}");
        assert!(s < shards, "case {case}: shard {s} of {shards}");
    }
}

/// Arbitrary coordinate bit patterns — NaN, infinities, way out of
/// region — route without panicking and stay in range; rejection is
/// the downstream oracle's job, never the router's.
#[test]
fn any_coordinates_route_in_range() {
    for case in 0..64 {
        let mut rng = SplitMix64::new(case);
        let shards = between(&mut rng, 1, 6) as usize;
        let m = map(shards, 64, 0xC1A5);
        let mut any_f64 = || f64::from_bits(rng.next_u64());
        let q = odt_net::WireQuery {
            o_lng: any_f64(),
            o_lat: any_f64(),
            d_lng: any_f64(),
            d_lat: any_f64(),
            t_dep: any_f64(),
        };
        assert!(m.shard_of(&q) < shards, "case {case}: {q:?}");
    }
}

// The statistical properties sweep thousands of keys per case; a smaller
// case count keeps the suite fast while still varying the score space
// (every case is a fresh seed).

/// Rendezvous scores are i.i.d. uniform per shard, so keys split
/// evenly: every shard's share stays within ±30% of the mean (many
/// standard deviations of slack at this key count).
#[test]
fn keys_balance_within_tolerance() {
    for case in 0..12 {
        let mut rng = SplitMix64::new(case);
        let shards = between(&mut rng, 2, 8) as usize;
        let (seed, key_seed) = (rng.next_u64(), rng.next_u64());
        let m = map(shards, 64, seed);
        let mut counts = vec![0usize; shards];
        let n_keys = 4_000;
        for k in keys(key_seed, n_keys) {
            counts[m.shard_of_key(k)] += 1;
        }
        let mean = n_keys as f64 / shards as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > mean * 0.7 && (c as f64) < mean * 1.3,
                "case {case}: shard {i}/{shards} holds {c} of {n_keys} keys (mean {mean:.0})"
            );
        }
    }
}

/// Growing the cluster from `N` to `N+1` shards never shuffles keys
/// between the old shards: a key's scores on them are unchanged, so
/// every remapped key lands on the new shard, and the moved
/// fraction is the expected `1/(N+1)` within generous slack.
#[test]
fn adding_a_shard_only_moves_the_expected_fraction() {
    for case in 0..12 {
        let mut rng = SplitMix64::new(case);
        let shards = between(&mut rng, 1, 8) as usize;
        let (seed, key_seed) = (rng.next_u64(), rng.next_u64());
        let old = map(shards, 64, seed);
        let new = map(shards + 1, 64, seed);
        let n_keys = 4_000;
        let mut moved = 0usize;
        for k in keys(key_seed, n_keys) {
            let before = old.shard_of_key(k);
            let after = new.shard_of_key(k);
            if before != after {
                assert_eq!(
                    after, shards,
                    "case {case}: a remapped key must land on the new shard"
                );
                moved += 1;
            }
        }
        let expect = n_keys as f64 / (shards + 1) as f64;
        assert!(
            (moved as f64) > expect * 0.5 && (moved as f64) < expect * 1.6,
            "case {case}: moved {moved} keys, expected ≈{expect:.0}"
        );
    }
}
