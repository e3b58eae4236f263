//! The hot-path OD estimate cache: TinyLFU-admitted, time-bucketed,
//! drift-invalidated.
//!
//! The oracle's query key is tiny and exact — `(origin cell, destination
//! cell, time-of-day bucket)` — and map-service demand is hotspot-skewed,
//! so a small bounded cache of inferred estimates serves the bulk of
//! traffic at microsecond latency while the diffusion path stays the
//! latency floor for the cold tail. Three properties keep the cache
//! honest:
//!
//! * **TinyLFU admission over segmented LRU** — a 4-bit counting-Bloom
//!   frequency sketch (hashes derived from the workspace SplitMix64,
//!   halved every sample period so history ages out) decides whether a
//!   candidate may displace the eviction victim. One-hit wonders never
//!   push hot entries out, which is exactly the failure mode plain LRU
//!   has under a scan. Eviction inside a shard is segmented LRU: new
//!   entries land in a probation segment and are promoted to the
//!   protected segment on re-reference.
//! * **Staleness-aware TTL per time bucket** — congestion profiles make
//!   estimates time-varying, so rush-hour buckets get a shorter TTL than
//!   off-peak ones. Past its TTL an entry is *stale* but not gone: up to
//!   `stale_grace × ttl` it may still answer on the slightly-stale ladder
//!   tier (better than the haversine prior), after which it expires.
//! * **Generation-stamped invalidation** — every entry records the cache
//!   generation at fill time; [`EstimateCache::invalidate_all`] bumps the
//!   generation so every older entry is discarded lazily at lookup. The
//!   [`DriftInvalidator`] wires this to the quality tracker's drift
//!   alert: a drifted model cannot keep serving poisoned entries, with
//!   zero pre-drift serves after the bump (drilled in `chaos_drill
//!   --scenario cache_drift_invalidation`).
//!
//! The cache is std-only and sharded (`Mutex` per shard, key-hash
//! partitioned) so the dispatcher thread and background prewarmer never
//! contend on one lock. All counters are mirrored into the process
//! metrics registry (`cache.*` families + the `cache.hit_age_us`
//! histogram — size the cache by where that histogram's mass sits
//! relative to the TTL).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use odt_obs::json::{self, ToJson};
use odt_obs::rng::splitmix64;
use odt_obs::{event, Level};

/// A packed cache key: `(o_cell << 40) | (d_cell << 16) | bucket`.
///
/// 24 bits per cell index and 16 bits for the time-of-day bucket — far
/// beyond any grid the oracle trains on (`lg²` cells, `lg ≤ 4096`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct OdKey(pub u64);

impl OdKey {
    /// Pack `(o_cell, d_cell, bucket)` into one key.
    pub fn new(o_cell: u32, d_cell: u32, bucket: u16) -> OdKey {
        OdKey(
            (u64::from(o_cell) & 0xFF_FFFF) << 40
                | (u64::from(d_cell) & 0xFF_FFFF) << 16
                | u64::from(bucket),
        )
    }

    /// The time-of-day bucket this key was built with.
    pub fn bucket(self) -> u16 {
        (self.0 & 0xFFFF) as u16
    }
}

/// Cache tuning.
#[derive(Copy, Clone, Debug)]
pub struct CacheConfig {
    /// Total entry capacity across all shards (≥ 1).
    pub capacity: usize,
    /// Shard count (rounded up to a power of two).
    pub shards: usize,
    /// Time-of-day buckets per day (48 = 30-minute buckets).
    pub buckets_per_day: u16,
    /// Off-peak TTL, µs on the caller's clock.
    pub ttl_us: u64,
    /// Rush-hour TTL (buckets covering 07–09 h and 17–19 h), µs.
    pub rush_ttl_us: u64,
    /// Stale-grace multiplier: past `ttl` but within `stale_grace × ttl`
    /// an entry may still serve on the slightly-stale tier.
    pub stale_grace: f64,
    /// Seed for the frequency sketch's hash functions.
    pub sketch_seed: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 4096,
            shards: 8,
            buckets_per_day: 48,
            ttl_us: 300_000_000,     // 5 min off-peak
            rush_ttl_us: 60_000_000, // 1 min in rush hour
            stale_grace: 3.0,
            sketch_seed: 0xCACE,
        }
    }
}

impl CacheConfig {
    /// The TTL for a key's time bucket: rush-hour buckets age faster.
    pub fn ttl_for_bucket(&self, bucket: u16) -> u64 {
        let hour = f64::from(bucket) * 24.0 / f64::from(self.buckets_per_day.max(1));
        if (7.0..9.0).contains(&hour) || (17.0..19.0).contains(&hour) {
            self.rush_ttl_us
        } else {
            self.ttl_us
        }
    }

    /// The hard expiry bound for a bucket (`stale_grace × ttl`).
    pub fn expiry_for_bucket(&self, bucket: u16) -> u64 {
        let ttl = self.ttl_for_bucket(bucket) as f64;
        (ttl * self.stale_grace.max(1.0)).min(u64::MAX as f64) as u64
    }
}

/// What a lookup found.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum CacheLookup {
    /// A live entry within its TTL.
    Fresh {
        /// The cached estimate, seconds.
        seconds: f64,
        /// Entry age at lookup, µs.
        age_us: u64,
    },
    /// An entry past its TTL but within the stale-grace window: may only
    /// answer on the slightly-stale ladder tier.
    Stale {
        /// The cached estimate, seconds.
        seconds: f64,
        /// Entry age at lookup, µs.
        age_us: u64,
    },
    /// No usable entry (absent, expired, or from an old generation).
    Miss,
}

/// 4-bit counting-Bloom frequency sketch with periodic halving — the
/// "TinyLFU" part of the admission policy. Four hash functions derived
/// from the workspace SplitMix64 mix; counters saturate at 15 and are
/// all halved once `sample_period` increments have been recorded, so the
/// sketch tracks *recent* popularity rather than all-time counts.
struct FreqSketch {
    /// Two 4-bit counters per byte.
    nibbles: Vec<u8>,
    /// Counter-index mask (`width - 1`, width a power of two).
    mask: u64,
    seeds: [u64; 4],
    ops: u64,
    sample_period: u64,
}

impl FreqSketch {
    fn new(min_counters: usize, seed: u64) -> FreqSketch {
        let width = min_counters.max(64).next_power_of_two();
        FreqSketch {
            nibbles: vec![0u8; width / 2],
            mask: width as u64 - 1,
            seeds: std::array::from_fn(|i| splitmix64(seed.wrapping_add(i as u64 + 1))),
            ops: 0,
            sample_period: (width as u64) * 8,
        }
    }

    fn counter_index(&self, key: u64, hash: usize) -> usize {
        (splitmix64(self.seeds[hash] ^ key) & self.mask) as usize
    }

    fn get(&self, idx: usize) -> u8 {
        let byte = self.nibbles[idx / 2];
        if idx.is_multiple_of(2) {
            byte & 0x0F
        } else {
            byte >> 4
        }
    }

    fn bump(&mut self, idx: usize) {
        let cur = self.get(idx);
        if cur < 15 {
            let byte = &mut self.nibbles[idx / 2];
            if idx.is_multiple_of(2) {
                *byte = (*byte & 0xF0) | (cur + 1);
            } else {
                *byte = (*byte & 0x0F) | ((cur + 1) << 4);
            }
        }
    }

    /// Record one access.
    fn increment(&mut self, key: u64) {
        for h in 0..4 {
            let idx = self.counter_index(key, h);
            self.bump(idx);
        }
        self.ops += 1;
        if self.ops >= self.sample_period {
            self.halve();
            self.ops = 0;
        }
    }

    /// Estimated access frequency: the count-min over the four counters.
    fn estimate(&self, key: u64) -> u8 {
        (0..4)
            .map(|h| self.get(self.counter_index(key, h)))
            .min()
            .unwrap_or(0)
    }

    /// Age the sketch: halve every counter (both nibbles at once).
    fn halve(&mut self) {
        for byte in &mut self.nibbles {
            *byte = (*byte >> 1) & 0x77;
        }
    }
}

const NIL: u32 = u32::MAX;

#[derive(Copy, Clone, PartialEq)]
enum Seg {
    Probation,
    Protected,
}

struct Entry {
    key: u64,
    seconds: f64,
    generation: u64,
    filled_at_us: u64,
    prev: u32,
    next: u32,
    seg: Seg,
}

/// One intrusive doubly-linked list over the shard's slot arena.
#[derive(Copy, Clone)]
struct DList {
    head: u32,
    tail: u32,
    len: usize,
}

impl DList {
    fn new() -> DList {
        DList {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    fn push_front(&mut self, slots: &mut [Entry], i: u32) {
        slots[i as usize].prev = NIL;
        slots[i as usize].next = self.head;
        if self.head != NIL {
            slots[self.head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
        self.len += 1;
    }

    fn unlink(&mut self, slots: &mut [Entry], i: u32) {
        let (prev, next) = (slots[i as usize].prev, slots[i as usize].next);
        if prev != NIL {
            slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        self.len -= 1;
    }
}

/// Why a shard dropped an entry (for the caller's stat accounting).
enum Dropped {
    Evicted,
    Expired,
    Invalidated,
}

/// One cache shard: slab-allocated segmented LRU plus its own frequency
/// sketch (keys are hash-partitioned onto shards, so a per-shard sketch
/// observes every access to its keys — and stays deterministic without
/// atomics).
struct Shard {
    map: HashMap<u64, u32>,
    slots: Vec<Entry>,
    free: Vec<u32>,
    probation: DList,
    protected: DList,
    cap: usize,
    protected_cap: usize,
    sketch: FreqSketch,
}

enum InsertOutcome {
    Stored,
    Rejected,
}

impl Shard {
    fn new(cap: usize, sketch_seed: u64) -> Shard {
        let cap = cap.max(1);
        Shard {
            map: HashMap::with_capacity(cap),
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            probation: DList::new(),
            protected: DList::new(),
            cap,
            // Classic SLRU split: ~80% protected, at least one probation
            // slot so admission always has a victim to compare against.
            protected_cap: (cap * 4 / 5).min(cap.saturating_sub(1)),
            sketch: FreqSketch::new(cap * 4, sketch_seed),
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn remove_slot(&mut self, slot: u32) {
        let seg = self.slots[slot as usize].seg;
        let key = self.slots[slot as usize].key;
        match seg {
            Seg::Probation => self.probation.unlink(&mut self.slots, slot),
            Seg::Protected => self.protected.unlink(&mut self.slots, slot),
        }
        self.map.remove(&key);
        self.free.push(slot);
    }

    /// Move a touched entry toward the protected head, demoting the
    /// protected tail into probation if the protected segment overflows.
    fn promote(&mut self, slot: u32) {
        let seg = self.slots[slot as usize].seg;
        match seg {
            Seg::Probation => {
                self.probation.unlink(&mut self.slots, slot);
                self.slots[slot as usize].seg = Seg::Protected;
                self.protected.push_front(&mut self.slots, slot);
                if self.protected.len > self.protected_cap.max(1) {
                    let demote = self.protected.tail;
                    if demote != NIL && demote != slot {
                        self.protected.unlink(&mut self.slots, demote);
                        self.slots[demote as usize].seg = Seg::Probation;
                        self.probation.push_front(&mut self.slots, demote);
                    }
                }
            }
            Seg::Protected => {
                self.protected.unlink(&mut self.slots, slot);
                self.protected.push_front(&mut self.slots, slot);
            }
        }
    }

    /// Look `key` up, dropping dead entries on the way. Does *not* count
    /// hits — the caller does, and only when the cache actually serves.
    fn get(
        &mut self,
        key: u64,
        now_us: u64,
        generation: u64,
        ttl_us: u64,
        expiry_us: u64,
        count_access: bool,
    ) -> (CacheLookup, Option<Dropped>) {
        if count_access {
            self.sketch.increment(key);
        }
        let Some(&slot) = self.map.get(&key) else {
            return (CacheLookup::Miss, None);
        };
        let e = &self.slots[slot as usize];
        if e.generation != generation {
            self.remove_slot(slot);
            return (CacheLookup::Miss, Some(Dropped::Invalidated));
        }
        let age_us = now_us.saturating_sub(e.filled_at_us);
        if age_us > expiry_us {
            self.remove_slot(slot);
            return (CacheLookup::Miss, Some(Dropped::Expired));
        }
        let seconds = e.seconds;
        if count_access {
            self.promote(slot);
        }
        if age_us <= ttl_us {
            (CacheLookup::Fresh { seconds, age_us }, None)
        } else {
            (CacheLookup::Stale { seconds, age_us }, None)
        }
    }

    /// Insert (or refresh) `key`. With `force` off, a full shard admits
    /// the candidate only if the sketch estimates it more popular than
    /// the eviction victim — the TinyLFU gate.
    fn insert(
        &mut self,
        key: u64,
        seconds: f64,
        now_us: u64,
        generation: u64,
        force: bool,
    ) -> (InsertOutcome, Option<Dropped>) {
        self.sketch.increment(key);
        if let Some(&slot) = self.map.get(&key) {
            let e = &mut self.slots[slot as usize];
            e.seconds = seconds;
            e.filled_at_us = now_us;
            e.generation = generation;
            return (InsertOutcome::Stored, None);
        }
        let mut dropped = None;
        if self.len() >= self.cap {
            // Victim: the probation tail; if probation is empty, the
            // protected tail (capacity-1 shards).
            let victim = if self.probation.tail != NIL {
                self.probation.tail
            } else {
                self.protected.tail
            };
            let victim_key = self.slots[victim as usize].key;
            if !force && self.sketch.estimate(key) <= self.sketch.estimate(victim_key) {
                return (InsertOutcome::Rejected, None);
            }
            self.remove_slot(victim);
            dropped = Some(Dropped::Evicted);
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Entry {
                    key,
                    seconds,
                    generation,
                    filled_at_us: now_us,
                    prev: NIL,
                    next: NIL,
                    seg: Seg::Probation,
                };
                s
            }
            None => {
                self.slots.push(Entry {
                    key,
                    seconds,
                    generation,
                    filled_at_us: now_us,
                    prev: NIL,
                    next: NIL,
                    seg: Seg::Probation,
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.map.insert(key, slot);
        self.probation.push_front(&mut self.slots, slot);
        (InsertOutcome::Stored, dropped)
    }
}

/// Point-in-time cache counters for reports and `/varz`.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Fresh entries actually served.
    pub hits: u64,
    /// Stale-tier entries actually served.
    pub stale_hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries displaced by capacity pressure or hard expiry.
    pub evictions: u64,
    /// Candidates the TinyLFU gate refused to admit.
    pub admission_rejects: u64,
    /// Prewarm batches inferred into the cache.
    pub prewarm_batches: u64,
    /// `invalidate_all` calls (generation bumps).
    pub invalidations: u64,
    /// Lazily-discarded entries from pre-bump generations.
    pub invalidated_entries: u64,
    /// Live entries right now.
    pub len: u64,
    /// Configured capacity.
    pub capacity: u64,
    /// Current generation stamp.
    pub generation: u64,
}

impl CacheStats {
    /// `hits / (hits + stale_hits + misses)`, 0 when nothing looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.stale_hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl ToJson for CacheStats {
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        json::object(out, |o| {
            o.field("len", self.len)
                .field("capacity", self.capacity)
                .field("generation", self.generation)
                .field("hits", self.hits)
                .field("stale_hits", self.stale_hits)
                .field("misses", self.misses)
                .field("hit_rate", self.hit_rate())
                .field("evictions", self.evictions)
                .field("admission_rejects", self.admission_rejects)
                .field("prewarm_batches", self.prewarm_batches)
                .field("invalidations", self.invalidations)
                .field("invalidated_entries", self.invalidated_entries);
        })
    }
}

/// The sharded, bounded, TinyLFU-admitted estimate cache. See the module
/// docs for the policy walk-through.
pub struct EstimateCache {
    cfg: CacheConfig,
    shards: Vec<Mutex<Shard>>,
    shard_mask: u64,
    generation: AtomicU64,
    hits: AtomicU64,
    stale_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    admission_rejects: AtomicU64,
    prewarm_batches: AtomicU64,
    invalidations: AtomicU64,
    invalidated_entries: AtomicU64,
}

impl EstimateCache {
    /// A cache with `cfg.capacity` total entries spread over the shards.
    pub fn new(cfg: CacheConfig) -> EstimateCache {
        let shards = cfg.shards.max(1).next_power_of_two();
        let per_shard = cfg.capacity.max(1).div_ceil(shards);
        let shard_vec = (0..shards)
            .map(|i| {
                Mutex::new(Shard::new(
                    per_shard,
                    splitmix64(cfg.sketch_seed ^ (i as u64).wrapping_mul(0x9E37)),
                ))
            })
            .collect();
        // Touch the metric families once at construction so they exist in
        // the registry (and the exposition) before any traffic arrives.
        for name in [
            "cache.hits",
            "cache.misses",
            "cache.stale_hits",
            "cache.evictions",
            "cache.admission_rejects",
            "cache.prewarm_batches",
            "cache.invalidations",
        ] {
            let _ = odt_obs::counter(name);
        }
        let _ = odt_obs::histogram("cache.hit_age_us");
        EstimateCache {
            shards: shard_vec,
            shard_mask: shards as u64 - 1,
            generation: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            stale_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            admission_rejects: AtomicU64::new(0),
            prewarm_batches: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            invalidated_entries: AtomicU64::new(0),
            cfg,
        }
    }

    /// The configured tuning.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Pack a key: cells from the serving grid, the bucket from the
    /// departure's second-of-day.
    pub fn key_for(&self, o_cell: u32, d_cell: u32, second_of_day: f64) -> OdKey {
        let buckets = f64::from(self.cfg.buckets_per_day.max(1));
        let frac = (second_of_day.rem_euclid(86_400.0)) / 86_400.0;
        let bucket = ((frac * buckets) as u16).min(self.cfg.buckets_per_day.max(1) - 1);
        OdKey::new(o_cell, d_cell, bucket)
    }

    fn shard_of(&self, key: OdKey) -> &Mutex<Shard> {
        &self.shards[(splitmix64(key.0) & self.shard_mask) as usize]
    }

    fn record_drop(&self, d: Dropped) {
        match d {
            Dropped::Evicted | Dropped::Expired => {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                odt_obs::counter("cache.evictions").inc();
            }
            Dropped::Invalidated => {
                self.invalidated_entries.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Look `key` up and count the access (sketch + recency + a miss if
    /// nothing usable was found). Hits are *not* counted here — call
    /// [`EstimateCache::note_served`] when the looked-up value actually
    /// answers a request, so hit counters measure serves, not probes.
    pub fn lookup(&self, key: OdKey, now_us: u64) -> CacheLookup {
        let gen = self.generation.load(Ordering::Acquire);
        let ttl = self.cfg.ttl_for_bucket(key.bucket());
        let expiry = self.cfg.expiry_for_bucket(key.bucket());
        let (found, dropped) = self
            .shard_of(key)
            .lock()
            .unwrap()
            .get(key.0, now_us, gen, ttl, expiry, true);
        if let Some(d) = dropped {
            self.record_drop(d);
        }
        if found == CacheLookup::Miss {
            self.misses.fetch_add(1, Ordering::Relaxed);
            odt_obs::counter("cache.misses").inc();
        }
        found
    }

    /// A stat-free, order-free freshness check (used by the prewarmer to
    /// pick targets without polluting the sketch or the hit counters).
    pub fn peek_fresh(&self, key: OdKey, now_us: u64) -> bool {
        let gen = self.generation.load(Ordering::Acquire);
        let ttl = self.cfg.ttl_for_bucket(key.bucket());
        let expiry = self.cfg.expiry_for_bucket(key.bucket());
        let (found, dropped) = self
            .shard_of(key)
            .lock()
            .unwrap()
            .get(key.0, now_us, gen, ttl, expiry, false);
        if let Some(d) = dropped {
            self.record_drop(d);
        }
        matches!(found, CacheLookup::Fresh { .. })
    }

    /// Count one served answer that came from this cache (`fresh` =
    /// within TTL, otherwise the stale tier) and record its age.
    pub fn note_served(&self, age_us: u64, fresh: bool) {
        if fresh {
            self.hits.fetch_add(1, Ordering::Relaxed);
            odt_obs::counter("cache.hits").inc();
        } else {
            self.stale_hits.fetch_add(1, Ordering::Relaxed);
            odt_obs::counter("cache.stale_hits").inc();
        }
        odt_obs::histogram("cache.hit_age_us").record_micros(age_us);
    }

    /// Offer `(key, seconds)` through the TinyLFU admission gate. Returns
    /// whether the value was stored (refreshing an existing entry always
    /// stores).
    pub fn insert(&self, key: OdKey, seconds: f64, now_us: u64) -> bool {
        self.insert_inner(key, seconds, now_us, false)
    }

    /// Insert bypassing admission — the prewarmer's path: it has already
    /// paid for the inference, so the value always lands.
    pub fn insert_forced(&self, key: OdKey, seconds: f64, now_us: u64) {
        self.insert_inner(key, seconds, now_us, true);
    }

    fn insert_inner(&self, key: OdKey, seconds: f64, now_us: u64, force: bool) -> bool {
        if !seconds.is_finite() {
            return false;
        }
        let gen = self.generation.load(Ordering::Acquire);
        let (outcome, dropped) = self
            .shard_of(key)
            .lock()
            .unwrap()
            .insert(key.0, seconds, now_us, gen, force);
        if let Some(d) = dropped {
            self.record_drop(d);
        }
        match outcome {
            InsertOutcome::Stored => true,
            InsertOutcome::Rejected => {
                self.admission_rejects.fetch_add(1, Ordering::Relaxed);
                odt_obs::counter("cache.admission_rejects").inc();
                false
            }
        }
    }

    /// Bump the generation: every entry filled before this call is dead
    /// (discarded lazily at its next lookup). `reason` lands in the event
    /// stream.
    pub fn invalidate_all(&self, reason: &str) {
        let gen = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        odt_obs::counter("cache.invalidations").inc();
        event(Level::Warn, "cache.invalidate_all")
            .field("reason", reason)
            .field("generation", gen)
            .emit();
    }

    /// The current generation stamp.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total configured capacity (per-shard rounding may admit slightly
    /// more than `cfg.capacity`; never less).
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.shards[0].lock().unwrap().cap
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            stale_hits: self.stale_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            admission_rejects: self.admission_rejects.load(Ordering::Relaxed),
            prewarm_batches: self.prewarm_batches.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            invalidated_entries: self.invalidated_entries.load(Ordering::Relaxed),
            len: self.len() as u64,
            capacity: self.capacity() as u64,
            generation: self.generation(),
        }
    }
}

/// Bounded Space-Saving top-K tracker over cache keys, keeping one
/// representative query per key so the prewarmer can re-infer it.
pub struct HotTracker<Q> {
    cap: usize,
    entries: HashMap<u64, (u64, Q)>,
}

impl<Q: Clone> HotTracker<Q> {
    /// A tracker holding at most `cap` keys.
    pub fn new(cap: usize) -> HotTracker<Q> {
        HotTracker {
            cap: cap.max(1),
            entries: HashMap::new(),
        }
    }

    /// Record one access to `key` (Space-Saving: when full, the minimum
    /// counter is displaced and the newcomer inherits its count + 1, so
    /// a genuinely hot key can never be starved out by churn).
    pub fn touch(&mut self, key: OdKey, query: &Q) {
        if let Some((count, q)) = self.entries.get_mut(&key.0) {
            *count += 1;
            *q = query.clone();
            return;
        }
        if self.entries.len() < self.cap {
            self.entries.insert(key.0, (1, query.clone()));
            return;
        }
        let (&min_key, &(min_count, _)) = self
            .entries
            .iter()
            .min_by_key(|(k, (c, _))| (*c, **k))
            .expect("tracker is non-empty at capacity");
        self.entries.remove(&min_key);
        self.entries.insert(key.0, (min_count + 1, query.clone()));
    }

    /// The top `k` keys by estimated count, hottest first (ties broken by
    /// key for determinism).
    pub fn top(&self, k: usize) -> Vec<(OdKey, Q)> {
        let mut all: Vec<_> = self
            .entries
            .iter()
            .map(|(key, (count, q))| (*count, *key, q.clone()))
            .collect();
        all.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        all.into_iter()
            .take(k)
            .map(|(_, key, q)| (OdKey(key), q))
            .collect()
    }

    /// Tracked key count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been tracked yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Prewarmer tuning.
#[derive(Copy, Clone, Debug)]
pub struct PrewarmConfig {
    /// Hot keys to consider per batch.
    pub top_k: usize,
    /// Minimum µs between batches (idle ticks fire far more often than
    /// prewarming should run).
    pub min_interval_us: u64,
}

impl Default for PrewarmConfig {
    fn default() -> Self {
        PrewarmConfig {
            top_k: 32,
            min_interval_us: 250_000,
        }
    }
}

/// Background prewarmer: on each eligible idle tick, batch-infers the
/// hottest not-currently-fresh OD keys through the caller's `infer`
/// closure (`estimate_batch` in production) and force-inserts the
/// results. Runs beside the shadow scorer on the dispatcher idle tick.
pub struct Prewarmer<Q> {
    cfg: PrewarmConfig,
    cache: Arc<EstimateCache>,
    hot: Arc<Mutex<HotTracker<Q>>>,
    last_run_us: Option<u64>,
}

impl<Q: Clone> Prewarmer<Q> {
    /// A prewarmer over `cache`, fed by the shared `hot` tracker.
    pub fn new(
        cfg: PrewarmConfig,
        cache: Arc<EstimateCache>,
        hot: Arc<Mutex<HotTracker<Q>>>,
    ) -> Prewarmer<Q> {
        Prewarmer {
            cfg,
            cache,
            hot,
            last_run_us: None,
        }
    }

    /// Run one prewarm batch if the throttle allows and any hot key needs
    /// warming. Returns the number of entries inferred and inserted.
    pub fn step(&mut self, now_us: u64, infer: impl FnOnce(&[Q]) -> Vec<f64>) -> usize {
        if let Some(last) = self.last_run_us {
            if now_us.saturating_sub(last) < self.cfg.min_interval_us {
                return 0;
            }
        }
        let candidates: Vec<(OdKey, Q)> = {
            let hot = self.hot.lock().unwrap();
            hot.top(self.cfg.top_k)
                .into_iter()
                .filter(|(key, _)| !self.cache.peek_fresh(*key, now_us))
                .collect()
        };
        self.last_run_us = Some(now_us);
        if candidates.is_empty() {
            return 0;
        }
        let queries: Vec<Q> = candidates.iter().map(|(_, q)| q.clone()).collect();
        let values = infer(&queries);
        let mut stored = 0usize;
        for ((key, _), seconds) in candidates.iter().zip(values) {
            if seconds.is_finite() {
                self.cache.insert_forced(*key, seconds, now_us);
                stored += 1;
            }
        }
        if stored > 0 {
            self.cache.prewarm_batches.fetch_add(1, Ordering::Relaxed);
            odt_obs::counter("cache.prewarm_batches").inc();
            event(Level::Info, "cache.prewarm")
                .field("entries", stored as u64)
                .emit();
        }
        stored
    }
}

/// Edge-triggered bridge from the quality tracker's drift alert to cache
/// invalidation: each *new* drift alert (the `drift_alerts` counter in a
/// [`odt_obs::quality::QualitySnapshot`] advancing) flushes the cache by
/// generation bump, so no pre-drift estimate can be served again.
#[derive(Default)]
pub struct DriftInvalidator {
    seen_alerts: u64,
}

impl DriftInvalidator {
    /// A fresh invalidator (no alerts seen).
    pub fn new() -> DriftInvalidator {
        DriftInvalidator::default()
    }

    /// Compare the latest quality snapshot against the alerts already
    /// handled; invalidate on any new alert. Returns whether a flush
    /// happened.
    pub fn observe(
        &mut self,
        quality: &odt_obs::quality::QualitySnapshot,
        cache: &EstimateCache,
    ) -> bool {
        if quality.drift_alerts > self.seen_alerts {
            self.seen_alerts = quality.drift_alerts;
            cache.invalidate_all("drift_alert");
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(capacity: usize) -> CacheConfig {
        CacheConfig {
            capacity,
            shards: 1,
            ttl_us: 1_000,
            rush_ttl_us: 500,
            stale_grace: 3.0,
            ..CacheConfig::default()
        }
    }

    #[test]
    fn key_packing_round_trips_the_bucket() {
        let k = OdKey::new(0xABCDE, 0x12345, 47);
        assert_eq!(k.bucket(), 47);
        assert_ne!(OdKey::new(1, 2, 3), OdKey::new(2, 1, 3));
        assert_ne!(OdKey::new(1, 2, 3), OdKey::new(1, 2, 4));
    }

    #[test]
    fn bucketing_maps_second_of_day_and_rush_hours() {
        let cache = EstimateCache::new(CacheConfig::default());
        let k_night = cache.key_for(1, 2, 3.0 * 3600.0);
        let k_rush = cache.key_for(1, 2, 8.0 * 3600.0);
        assert_ne!(k_night.bucket(), k_rush.bucket());
        let cfg = cache.config();
        assert_eq!(cfg.ttl_for_bucket(k_night.bucket()), cfg.ttl_us);
        assert_eq!(cfg.ttl_for_bucket(k_rush.bucket()), cfg.rush_ttl_us);
        // Wrap-around: unix-epoch-scale departures map by second-of-day.
        let k_wrapped = cache.key_for(1, 2, 86_400.0 * 100.0 + 3.0 * 3600.0);
        assert_eq!(k_wrapped.bucket(), k_night.bucket());
    }

    #[test]
    fn fresh_stale_expired_boundaries_are_exact() {
        let cache = EstimateCache::new(small_cfg(16));
        let k = OdKey::new(1, 2, 0); // off-peak bucket: ttl 1000, expiry 3000
        cache.insert_forced(k, 42.0, 1_000);
        // age == ttl: still fresh.
        assert!(matches!(
            cache.lookup(k, 2_000),
            CacheLookup::Fresh { seconds, age_us } if seconds == 42.0 && age_us == 1_000
        ));
        // age == ttl + 1: stale tier.
        assert!(matches!(
            cache.lookup(k, 2_001),
            CacheLookup::Stale { seconds, .. } if seconds == 42.0
        ));
        // age == grace bound: still stale.
        assert!(matches!(cache.lookup(k, 4_000), CacheLookup::Stale { .. }));
        // One µs past the grace bound: gone.
        assert_eq!(cache.lookup(k, 4_001), CacheLookup::Miss);
        assert_eq!(cache.len(), 0);
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.evictions, 1, "hard expiry counts as an eviction");
    }

    #[test]
    fn capacity_is_never_exceeded_and_eviction_counts() {
        let cache = EstimateCache::new(small_cfg(4));
        for i in 0..64u32 {
            cache.insert_forced(OdKey::new(i, i, 0), f64::from(i), 10);
            assert!(cache.len() <= cache.capacity());
        }
        assert!(cache.stats().evictions >= 60);
    }

    #[test]
    fn tinylfu_prefers_the_frequent_key_over_a_scan() {
        let cache = EstimateCache::new(small_cfg(4));
        let hot = OdKey::new(999, 999, 0);
        cache.insert(hot, 1.0, 0);
        // Make `hot` popular in the sketch.
        for _ in 0..10 {
            let _ = cache.lookup(hot, 1);
        }
        // A scan of cold keys: each is seen once; the gate must not let
        // them displace entries ahead of `hot` faster than `hot`'s own
        // sketch weight protects it once it becomes the victim.
        for i in 0..32u32 {
            cache.insert(OdKey::new(i, i, 0), 2.0, 2);
        }
        assert!(
            matches!(cache.lookup(hot, 3), CacheLookup::Fresh { .. }),
            "hot key survived the scan"
        );
        assert!(cache.stats().admission_rejects > 0);
    }

    #[test]
    fn admission_is_deterministic_under_a_fixed_seed() {
        let run = || {
            let cache = EstimateCache::new(small_cfg(8));
            let mut decisions = Vec::new();
            for i in 0..200u32 {
                let key = OdKey::new(i % 23, (i * 7) % 23, 0);
                decisions.push(cache.insert(key, f64::from(i), u64::from(i)));
                let _ = cache.lookup(OdKey::new(i % 5, (i * 3) % 5, 0), u64::from(i));
            }
            (decisions, cache.stats())
        };
        let (d1, s1) = run();
        let (d2, s2) = run();
        assert_eq!(d1, d2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn generation_bump_kills_older_entries_lazily() {
        let cache = EstimateCache::new(small_cfg(16));
        let k_old = OdKey::new(1, 1, 0);
        let k_new = OdKey::new(2, 2, 0);
        cache.insert_forced(k_old, 10.0, 0);
        cache.invalidate_all("test");
        assert_eq!(cache.generation(), 1);
        cache.insert_forced(k_new, 20.0, 0);
        assert_eq!(cache.lookup(k_old, 1), CacheLookup::Miss);
        assert!(matches!(
            cache.lookup(k_new, 1),
            CacheLookup::Fresh { seconds, .. } if seconds == 20.0
        ));
        let s = cache.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.invalidated_entries, 1);
    }

    #[test]
    fn note_served_splits_fresh_and_stale_hits() {
        let cache = EstimateCache::new(small_cfg(4));
        cache.note_served(10, true);
        cache.note_served(20, true);
        cache.note_served(2_000, false);
        let s = cache.stats();
        assert_eq!((s.hits, s.stale_hits), (2, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn hot_tracker_keeps_the_heavy_hitters() {
        let mut hot: HotTracker<&'static str> = HotTracker::new(4);
        for _ in 0..50 {
            hot.touch(OdKey::new(1, 1, 0), &"a");
            hot.touch(OdKey::new(2, 2, 0), &"b");
        }
        for i in 10..40u32 {
            hot.touch(OdKey::new(i, i, 0), &"churn");
        }
        let top = hot.top(2);
        let keys: Vec<OdKey> = top.iter().map(|(k, _)| *k).collect();
        assert!(keys.contains(&OdKey::new(1, 1, 0)));
        assert!(keys.contains(&OdKey::new(2, 2, 0)));
        assert!(hot.len() <= 4);
    }

    #[test]
    fn prewarmer_fills_hot_missing_keys_and_throttles() {
        let cache = Arc::new(EstimateCache::new(small_cfg(16)));
        let hot = Arc::new(Mutex::new(HotTracker::new(8)));
        for _ in 0..5 {
            hot.lock().unwrap().touch(OdKey::new(7, 8, 0), &"q1");
        }
        hot.lock().unwrap().touch(OdKey::new(9, 9, 0), &"q2");
        let mut pw = Prewarmer::new(
            PrewarmConfig {
                top_k: 8,
                min_interval_us: 1_000,
            },
            Arc::clone(&cache),
            Arc::clone(&hot),
        );
        let n = pw.step(10, |qs| qs.iter().map(|_| 123.0).collect());
        assert_eq!(n, 2);
        assert!(matches!(
            cache.lookup(OdKey::new(7, 8, 0), 11),
            CacheLookup::Fresh { seconds, .. } if seconds == 123.0
        ));
        assert_eq!(cache.stats().prewarm_batches, 1);
        // Inside the throttle window: no work, even though keys are warm
        // anyway. A throttled step does not advance last_run.
        assert_eq!(pw.step(500, |_| panic!("throttled step must not infer")), 0);
        // Past the throttle with everything still fresh (age == ttl is the
        // fresh boundary): no inference.
        assert_eq!(pw.step(1_010, |_| panic!("all fresh, no infer")), 0);
        // Once the TTL lapses the hot keys count as needing warmth again.
        assert_eq!(pw.step(2_100, |qs| qs.iter().map(|_| 99.0).collect()), 2);
        assert_eq!(cache.stats().prewarm_batches, 2);
    }

    #[test]
    fn drift_invalidator_is_edge_triggered() {
        let cache = EstimateCache::new(small_cfg(4));
        let mut inv = DriftInvalidator::new();
        let mut q = odt_obs::quality::QualitySnapshot::default();
        assert!(!inv.observe(&q, &cache));
        q.drift_alerts = 1;
        assert!(inv.observe(&q, &cache));
        assert_eq!(cache.generation(), 1);
        // Same alert count again: no second flush.
        assert!(!inv.observe(&q, &cache));
        assert_eq!(cache.generation(), 1);
        q.drift_alerts = 3;
        assert!(inv.observe(&q, &cache));
        assert_eq!(cache.generation(), 2);
    }

    #[test]
    fn non_finite_values_are_never_stored() {
        let cache = EstimateCache::new(small_cfg(4));
        assert!(!cache.insert(OdKey::new(1, 1, 0), f64::NAN, 0));
        cache.insert_forced(OdKey::new(2, 2, 0), f64::INFINITY, 0);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn sharded_capacity_holds_under_shards() {
        let cache = EstimateCache::new(CacheConfig {
            capacity: 64,
            shards: 8,
            ..CacheConfig::default()
        });
        for i in 0..1_000u32 {
            cache.insert_forced(OdKey::new(i, i * 3, (i % 48) as u16), 1.0, 0);
            assert!(cache.len() <= cache.capacity());
        }
        assert!(cache.capacity() >= 64 && cache.capacity() <= 64 + 8);
    }
}
