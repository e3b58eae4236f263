//! Property-based tests for the hot-path estimate cache (the invariants
//! the cached ladder rungs rest on):
//!
//! 1. **Bounded** — no workload, however adversarial, ever pushes the
//!    resident entry count past the configured capacity.
//! 2. **Deterministic admission** — with a fixed sketch seed, replaying
//!    the same access/insert sequence produces the identical cache: same
//!    resident set, same admission rejects, same eviction count.
//! 3. **Exact staleness boundaries** — an entry is fresh up to and
//!    including its TTL, stale up to and including `ttl * stale_grace`,
//!    and a miss one microsecond past the grace bound, for arbitrary
//!    buckets and offsets.
//! 4. **Bit-identity** — a lookup returns exactly the f64 bits the fill
//!    inserted (no rounding, no re-derivation), which is what makes the
//!    cached rung's answer bit-identical to the `estimate_batch` value
//!    that produced it.
//!
//! Each property runs `CASES` cases; case `n` draws its inputs from
//! `SplitMix64::new(n)`, so the case number in a failure message is the seed
//! that replays it.

use odt_obs::SplitMix64;
use odt_serve::{CacheConfig, CacheLookup, EstimateCache, OdKey};

const CASES: u64 = 256;

fn small_cfg(capacity: usize, seed: u64) -> CacheConfig {
    CacheConfig {
        capacity,
        shards: 4,
        sketch_seed: seed,
        ..CacheConfig::default()
    }
}

/// One step of a replayable cache workload.
#[derive(Copy, Clone, Debug)]
enum Op {
    Insert { key: u16, bits: u16, forced: bool },
    Lookup { key: u16 },
    Advance { us: u32 },
}

/// Up to 255 ops: inserts, lookups and clock advances in a 4 : 2 : 1 mix.
fn ops(rng: &mut SplitMix64) -> Vec<Op> {
    (0..rng.next_below(256))
        .map(|_| match rng.next_below(7) {
            0..=3 => Op::Insert {
                key: rng.next_u64() as u16,
                bits: rng.next_u64() as u16,
                forced: rng.next_u64() & 1 == 1,
            },
            4..=5 => Op::Lookup {
                key: rng.next_u64() as u16,
            },
            _ => Op::Advance {
                us: rng.next_below(2_000_000) as u32,
            },
        })
        .collect()
}

/// Map a compact op key onto a real OD key (distinct cells, bucket 0 so
/// the default non-rush TTL applies throughout).
fn od_key(k: u16) -> OdKey {
    OdKey::new(u32::from(k) & 0xFF, (u32::from(k) >> 8) & 0xFF, 0)
}

/// Finite, non-NaN payload derived from arbitrary bits (the cache refuses
/// non-finite values by design, so the workload only offers finite ones).
fn payload(bits: u16) -> f64 {
    f64::from(bits) + 0.125
}

fn replay(cache: &EstimateCache, ops: &[Op], case: u64) -> (u64, u64, Vec<(u64, u64)>) {
    let mut now = 1u64;
    let mut resident_max = 0usize;
    for op in ops {
        match *op {
            Op::Insert { key, bits, forced } => {
                if forced {
                    cache.insert_forced(od_key(key), payload(bits), now);
                } else {
                    cache.insert(od_key(key), payload(bits), now);
                }
            }
            Op::Lookup { key } => {
                cache.lookup(od_key(key), now);
            }
            Op::Advance { us } => now += u64::from(us),
        }
        let len = cache.len();
        assert!(
            len <= cache.capacity(),
            "case {case}: resident {len} exceeded capacity {}",
            cache.capacity()
        );
        resident_max = resident_max.max(len);
    }
    // The final resident *set and payloads*, probed without perturbing
    // anything: generation matching via a fresh lookup at the same clock.
    let mut survivors = Vec::new();
    for k in 0u16..=255 {
        for hi in 0u16..=3 {
            let key = k | (hi << 8);
            if let CacheLookup::Fresh { seconds, .. } | CacheLookup::Stale { seconds, .. } =
                cache.lookup(od_key(key), now)
            {
                survivors.push((od_key(key).0, seconds.to_bits()));
            }
        }
    }
    let s = cache.stats();
    let _ = resident_max;
    (s.admission_rejects, s.evictions, survivors)
}

/// Property 1: the resident count never exceeds capacity, at any point
/// during any workload (checked after every op inside `replay`).
#[test]
fn capacity_is_never_exceeded() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let cap = 1 + rng.next_below(63) as usize;
        let cache = EstimateCache::new(small_cfg(cap, 0xCAFE));
        replay(&cache, &ops(&mut rng), case);
        assert!(cache.len() <= cache.capacity(), "case {case}");
    }
}

/// Property 2: with a fixed sketch seed, the cache is a pure function
/// of the op sequence — two replays agree on the resident set, the
/// payload bits, the admission rejects, and the evictions.
#[test]
fn admission_is_deterministic_under_a_fixed_seed() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let seed = rng.next_u64();
        let ops = ops(&mut rng);
        let a = EstimateCache::new(small_cfg(16, seed));
        let b = EstimateCache::new(small_cfg(16, seed));
        assert_eq!(
            replay(&a, &ops, case),
            replay(&b, &ops, case),
            "case {case}"
        );
    }
}

/// Property 3: exact TTL / staleness boundaries. For any bucket and
/// any TTL pair, the transitions happen at exactly `ttl` and exactly
/// `ttl * stale_grace`, never one microsecond early or late.
#[test]
fn staleness_boundaries_are_exact() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let bucket = rng.next_below(48) as u16;
        let cfg = CacheConfig {
            capacity: 8,
            shards: 1,
            ttl_us: (1 + rng.next_below(9_999)) * 1_000,
            rush_ttl_us: (1 + rng.next_below(9_999)) * 1_000,
            ..CacheConfig::default()
        };
        let ttl = cfg.ttl_for_bucket(bucket);
        let expiry = cfg.expiry_for_bucket(bucket);
        let cache = EstimateCache::new(cfg);
        let key = OdKey::new(1, 2, bucket);
        let t0 = 1_000u64;
        cache.insert_forced(key, payload(rng.next_u64() as u16), t0);

        assert!(
            matches!(cache.lookup(key, t0 + ttl), CacheLookup::Fresh { .. }),
            "case {case}: age == ttl must still be fresh"
        );
        assert!(
            matches!(cache.lookup(key, t0 + ttl + 1), CacheLookup::Stale { .. }),
            "case {case}: age == ttl + 1 must be stale"
        );
        assert!(
            matches!(cache.lookup(key, t0 + expiry), CacheLookup::Stale { .. }),
            "case {case}: age == grace bound must still be stale"
        );
        assert!(
            matches!(cache.lookup(key, t0 + expiry + 1), CacheLookup::Miss),
            "case {case}: age past the grace bound must miss (hard expiry)"
        );
    }
}

/// Property 4: lookups return the exact bits the fill inserted, for
/// any finite payload — the cached rung serves the `estimate_batch`
/// value verbatim.
#[test]
fn lookups_are_bit_identical_to_the_fill() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let seconds = f64::from_bits(rng.next_u64());
        let cache = EstimateCache::new(small_cfg(8, 7));
        let key = od_key(rng.next_u64() as u16);
        cache.insert_forced(key, seconds, 500);
        match cache.lookup(key, 600) {
            CacheLookup::Fresh { seconds: got, .. } => {
                assert_eq!(got.to_bits(), seconds.to_bits(), "case {case}");
            }
            // Non-finite payloads are refused by design; everything
            // finite must round-trip.
            CacheLookup::Miss => {
                assert!(
                    !seconds.is_finite(),
                    "case {case}: finite fill {seconds} vanished"
                )
            }
            other => panic!("case {case}: unexpected lookup result {other:?}"),
        }
    }
}
