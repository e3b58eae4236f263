//! Open/closed-loop load generation against an `odt-wire/v1` server.
//!
//! The **open-loop** mode is the honest one for latency measurement: a
//! Poisson arrival schedule (exponential inter-arrival gaps from the
//! shared [`SplitMix64`] generator) is fixed *before* the run, and each
//! request's latency is measured from its **scheduled** send time, not
//! from when the sender thread actually got around to writing it. A
//! server that stalls therefore inflates the latencies of every request
//! scheduled during the stall — the coordinated-omission error that
//! closed-loop harnesses silently hide.
//!
//! The **closed-loop** mode (send → wait → send) is kept for saturation
//! throughput probing, where arrival-rate fidelity doesn't matter.
//!
//! Queries are drawn from a **hotspot-skewed OD mix**: with probability
//! `p_hot` an endpoint snaps near one of `hotspots` fixed centers
//! (jittered), otherwise it falls uniformly in the region — the skew the
//! paper's OD pairs exhibit and the serving stack must absorb. Two knobs
//! shape the skew further for cache benchmarking:
//!
//! * `zipf_s` — hotspot *rank* skew: centers are picked with Zipf
//!   weights `1/(rank+1)^s` instead of uniformly, so a handful of OD
//!   cells dominate the key stream (the regime where an estimate cache
//!   earns its keep). `0` keeps the uniform pick.
//! * `center_drift` — slow time-of-day drift: each center's position
//!   shifts sinusoidally with the query's departure time (morning
//!   hotspots are not evening hotspots), defeating caches that assume a
//!   static hot set.
//!
//! Every run also records the **achieved key skew** over coarse OD
//! cells — distinct keys, top-1/top-10 share — so reports show the
//! workload the server actually saw, not just the knobs requested.

use crate::wire::{
    read_frame, Client, FrameRead, WireErrorCode, WireQuery, WireRequest, WireResponse,
};
use odt_obs::{SplitMix64, TraceId};
use odt_serve::LngLat;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Generation mode.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum LoadMode {
    /// Poisson arrivals at `rate_rps` requests/second across all
    /// connections; latency from scheduled send time (CO-free).
    Open {
        /// Offered rate, requests per second (whole run, all conns).
        rate_rps: f64,
    },
    /// Each connection sends, waits for the reply, sends again.
    Closed,
}

impl LoadMode {
    /// Short tag for reports.
    pub fn name(&self) -> &'static str {
        match self {
            LoadMode::Open { .. } => "open",
            LoadMode::Closed => "closed",
        }
    }
}

/// The rectangle queries are drawn from, degrees.
#[derive(Copy, Clone, Debug)]
pub struct Region {
    /// West edge.
    pub lng0: f64,
    /// South edge.
    pub lat0: f64,
    /// East edge.
    pub lng1: f64,
    /// North edge.
    pub lat1: f64,
}

impl Region {
    /// The box from `min` to `max` pulled in by `margin` of its extent on
    /// every side: `inside(grid.min, grid.max, 0.05)` is where strict
    /// admission accepts both endpoints with room to spare.
    pub fn inside(min: LngLat, max: LngLat, margin: f64) -> Region {
        let (mx, my) = ((max.lng - min.lng) * margin, (max.lat - min.lat) * margin);
        Region {
            lng0: min.lng + mx,
            lat0: min.lat + my,
            lng1: max.lng - mx,
            lat1: max.lat - my,
        }
    }
}

impl Default for Region {
    /// Roughly the Chengdu box the paper's taxi data covers.
    fn default() -> Self {
        Region {
            lng0: 104.0,
            lat0: 30.6,
            lng1: 104.2,
            lat1: 30.8,
        }
    }
}

/// Load-generator tuning.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Client connections.
    pub conns: usize,
    /// Run length.
    pub duration: Duration,
    /// Open or closed loop.
    pub mode: LoadMode,
    /// Seed for the arrival schedule and the OD mix.
    pub seed: u64,
    /// Deadline budget attached to every request, ms (`None` = server
    /// default).
    pub deadline_ms: Option<u64>,
    /// Hotspot centers in the OD mix (0 disables the skew).
    pub hotspots: usize,
    /// Probability an endpoint snaps to a hotspot.
    pub p_hot: f64,
    /// Zipf exponent for hotspot *rank* selection (`0` = uniform pick
    /// over the centers; larger = heavier concentration on the top-ranked
    /// centers).
    pub zipf_s: f64,
    /// Amplitude of the sinusoidal time-of-day drift of hotspot centers,
    /// as a fraction of the region span (`0` = static centers).
    pub center_drift: f64,
    /// Query region.
    pub region: Region,
    /// Departure-time range drawn uniformly, seconds since midnight.
    pub t_dep_range: (f64, f64),
    /// Attach a trace id to every `trace_every`-th request (0 = never).
    pub trace_every: u64,
    /// Frame cap for reads.
    pub max_frame_bytes: usize,
    /// Total budget for establishing each connection, ms. Refused
    /// connects (server still booting, listener racing the generator)
    /// are retried with doubling backoff until the budget runs out —
    /// a warmup race becomes a counted retry instead of a dead worker.
    /// `0` restores the old fail-fast behaviour.
    pub connect_retry_ms: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:7878".to_string(),
            conns: 4,
            duration: Duration::from_secs(10),
            mode: LoadMode::Open { rate_rps: 200.0 },
            seed: 0xD07_CAFE,
            deadline_ms: Some(200),
            hotspots: 8,
            p_hot: 0.6,
            zipf_s: 0.0,
            center_drift: 0.0,
            region: Region::default(),
            t_dep_range: (6.0 * 3600.0, 22.0 * 3600.0),
            trace_every: 64,
            max_frame_bytes: crate::wire::DEFAULT_MAX_FRAME_BYTES,
            connect_retry_ms: 10_000,
        }
    }
}

/// How long a load connection waits for one connect attempt, one write
/// or (closed loop) one reply.
const IO_DEADLINE: Duration = Duration::from_secs(5);

/// Connect one load connection, retrying refusals for up to
/// [`LoadConfig::connect_retry_ms`] ([`Client::connect`]). Returns the
/// client and how many retries it took.
fn connect(cfg: &LoadConfig) -> io::Result<(Client, u64)> {
    let mut client = Client::new(cfg.addr.clone(), IO_DEADLINE, cfg.max_frame_bytes);
    let retries = client.connect(Duration::from_millis(cfg.connect_retry_ms))?;
    Ok((client, retries))
}

/// Hotspot-skewed OD query sampler.
pub struct OdMixer {
    rng: SplitMix64,
    centers: Vec<(f64, f64)>,
    region: Region,
    p_hot: f64,
    t_dep_range: (f64, f64),
    /// Cumulative Zipf weights over the centers; empty = uniform pick.
    zipf_cum: Vec<f64>,
    /// Center drift amplitude, fraction of the region span.
    center_drift: f64,
}

impl OdMixer {
    /// A mixer with `hotspots` centers drawn (deterministically from
    /// `seed`) inside `region`; uniform center pick, static centers.
    pub fn new(
        seed: u64,
        hotspots: usize,
        p_hot: f64,
        region: Region,
        t_dep_range: (f64, f64),
    ) -> OdMixer {
        let mut rng = SplitMix64::new(seed);
        let centers = (0..hotspots)
            .map(|_| {
                (
                    region.lng0 + rng.next_f64() * (region.lng1 - region.lng0),
                    region.lat0 + rng.next_f64() * (region.lat1 - region.lat0),
                )
            })
            .collect();
        OdMixer {
            rng,
            centers,
            region,
            p_hot: p_hot.clamp(0.0, 1.0),
            t_dep_range,
            zipf_cum: Vec::new(),
            center_drift: 0.0,
        }
    }

    /// Pick hotspot centers with Zipf weights `1/(rank+1)^s` instead of
    /// uniformly (`s <= 0` restores the uniform pick). Rank order is the
    /// deterministic center draw order, so the same seed always crowns
    /// the same top hotspot.
    pub fn with_zipf(mut self, s: f64) -> OdMixer {
        self.zipf_cum.clear();
        if s > 0.0 {
            let mut cum = 0.0;
            for i in 0..self.centers.len() {
                cum += 1.0 / ((i + 1) as f64).powf(s);
                self.zipf_cum.push(cum);
            }
        }
        self
    }

    /// Drift each center sinusoidally with the query's departure time,
    /// `frac` of the region span peak-to-center (`0` = static).
    pub fn with_drift(mut self, frac: f64) -> OdMixer {
        self.center_drift = frac.max(0.0);
        self
    }

    /// Where center `i` sits at departure time `t_dep` (seconds since
    /// midnight): the base position plus a slow circular drift, one full
    /// cycle per day, phase-offset per center so the hot set reshapes
    /// rather than translating rigidly.
    fn center_at(&self, i: usize, t_dep: f64) -> (f64, f64) {
        let (cx, cy) = self.centers[i];
        if self.center_drift <= 0.0 {
            return (cx, cy);
        }
        let day = (t_dep / 86_400.0) * std::f64::consts::TAU;
        let phase = i as f64 / self.centers.len().max(1) as f64 * std::f64::consts::TAU;
        let r = &self.region;
        (
            cx + (day + phase).sin() * self.center_drift * (r.lng1 - r.lng0),
            cy + (day + phase).cos() * self.center_drift * (r.lat1 - r.lat0),
        )
    }

    fn pick_center(&mut self) -> usize {
        if self.zipf_cum.is_empty() {
            return self.rng.next_below(self.centers.len() as u64) as usize;
        }
        let total = *self.zipf_cum.last().unwrap();
        let u = self.rng.next_f64() * total;
        self.zipf_cum
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.centers.len() - 1)
    }

    fn endpoint(&mut self, t_dep: f64) -> (f64, f64) {
        let r = self.region;
        if !self.centers.is_empty() && self.rng.next_f64() < self.p_hot {
            let rank = self.pick_center();
            let c = self.center_at(rank, t_dep);
            // Jitter ~1% of the region around the hotspot center (sum of
            // two uniforms ≈ triangular, denser near the center).
            let jl = (r.lng1 - r.lng0) * 0.01;
            let jt = (r.lat1 - r.lat0) * 0.01;
            let jitter = |rng: &mut SplitMix64, s: f64| (rng.next_f64() + rng.next_f64() - 1.0) * s;
            (
                (c.0 + jitter(&mut self.rng, jl)).clamp(r.lng0, r.lng1),
                (c.1 + jitter(&mut self.rng, jt)).clamp(r.lat0, r.lat1),
            )
        } else {
            (
                r.lng0 + self.rng.next_f64() * (r.lng1 - r.lng0),
                r.lat0 + self.rng.next_f64() * (r.lat1 - r.lat0),
            )
        }
    }

    /// Draw one OD query. Departure time is drawn first so the drifted
    /// hotspot positions are a function of *this query's* time of day.
    pub fn next_query(&mut self) -> WireQuery {
        let (t0, t1) = self.t_dep_range;
        let t_dep = t0 + self.rng.next_f64() * (t1 - t0).max(0.0);
        let (o_lng, o_lat) = self.endpoint(t_dep);
        let (d_lng, d_lat) = self.endpoint(t_dep);
        WireQuery {
            o_lng,
            o_lat,
            d_lng,
            d_lat,
            t_dep,
        }
    }
}

/// The achieved key skew of a run, measured over coarse OD cells (a
/// 16×16 grid per endpoint — the granularity an estimate cache keys on,
/// give or take the time bucket).
#[derive(Copy, Clone, Debug, Default)]
pub struct KeySkew {
    /// Distinct coarse OD keys observed.
    pub distinct: u64,
    /// Total keyed requests.
    pub total: u64,
    /// Share of traffic on the single hottest key.
    pub top1_share: f64,
    /// Share of traffic on the ten hottest keys.
    pub top10_share: f64,
}

/// The coarse OD key used for skew accounting: origin and destination
/// snapped to a 16×16 grid over `region`.
pub fn coarse_od_key(q: &WireQuery, region: &Region) -> u32 {
    let cell = |lng: f64, lat: f64| {
        let fx = ((lng - region.lng0) / (region.lng1 - region.lng0)).clamp(0.0, 1.0);
        let fy = ((lat - region.lat0) / (region.lat1 - region.lat0)).clamp(0.0, 1.0);
        let col = ((fx * 16.0) as u32).min(15);
        let row = ((fy * 16.0) as u32).min(15);
        row * 16 + col
    };
    cell(q.o_lng, q.o_lat) << 8 | cell(q.d_lng, q.d_lat)
}

fn key_skew_from_counts(counts: &HashMap<u32, u64>) -> KeySkew {
    let total: u64 = counts.values().sum();
    if total == 0 {
        return KeySkew::default();
    }
    let mut sorted: Vec<u64> = counts.values().copied().collect();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let top_n = |n: usize| sorted.iter().take(n).sum::<u64>() as f64 / total as f64;
    KeySkew {
        distinct: counts.len() as u64,
        total,
        top1_share: top_n(1),
        top10_share: top_n(10),
    }
}

/// Latency percentiles over a run, milliseconds.
#[derive(Copy, Clone, Debug, Default)]
pub struct LatencySummary {
    /// Median.
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Worst observed.
    pub max_ms: f64,
    /// Mean.
    pub mean_ms: f64,
}

impl LatencySummary {
    fn from_micros(mut samples: Vec<u64>) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let q = |p: f64| {
            let idx = ((samples.len() as f64 - 1.0) * p).round() as usize;
            samples[idx] as f64 / 1_000.0
        };
        let sum: u128 = samples.iter().map(|&v| u128::from(v)).sum();
        LatencySummary {
            p50_ms: q(0.50),
            p90_ms: q(0.90),
            p99_ms: q(0.99),
            max_ms: *samples.last().unwrap() as f64 / 1_000.0,
            mean_ms: sum as f64 / samples.len() as f64 / 1_000.0,
        }
    }
}

/// What one load run observed.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// `open` or `closed`.
    pub mode: String,
    /// Offered rate (open loop; 0 for closed).
    pub offered_rps: f64,
    /// Requests sent (closed loop: including one a broken connection
    /// may not have carried; it is also counted `lost`).
    pub sent: u64,
    /// OK responses received.
    pub ok: u64,
    /// Typed wire errors received, by code name.
    pub errors: Vec<(String, u64)>,
    /// Requests with no response by the end-of-run grace window.
    pub lost: u64,
    /// Wall time, seconds.
    pub wall_s: f64,
    /// Achieved OK throughput, responses/second.
    pub throughput_rps: f64,
    /// End-to-end latency (open loop: from *scheduled* send — CO-free).
    pub latency: LatencySummary,
    /// OK responses per rung name.
    pub rungs: Vec<(String, u64)>,
    /// Served responses whose `deadline_met` was true.
    pub deadline_met: u64,
    /// Worst sender lateness vs the schedule, ms (open loop; a large
    /// value means the generator itself saturated and offered less than
    /// configured).
    pub send_lag_max_ms: f64,
    /// Requests that carried a trace id.
    pub traces_sent: u64,
    /// Connection attempts retried during warmup (transient refusals
    /// absorbed by the connect backoff instead of killing a worker).
    pub connect_retries: u64,
    /// Achieved key skew over coarse OD cells (what the cache actually
    /// saw, regardless of the knobs requested).
    pub key_skew: KeySkew,
    /// OK responses per serving replica (the wire `served_by` field), so
    /// a run against a router shows how traffic actually spread across
    /// shards/replicas. Responses from servers that predate the field
    /// land under `"unknown"`.
    pub served_by: Vec<(String, u64)>,
}

struct ConnTally {
    sent: u64,
    ok: u64,
    lost: u64,
    errors: HashMap<&'static str, u64>,
    rungs: HashMap<String, u64>,
    latencies_us: Vec<u64>,
    deadline_met: u64,
    send_lag_max_us: u64,
    traces_sent: u64,
    keys: HashMap<u32, u64>,
    connect_retries: u64,
    served_by: HashMap<String, u64>,
}

impl ConnTally {
    fn new() -> ConnTally {
        ConnTally {
            sent: 0,
            ok: 0,
            lost: 0,
            errors: HashMap::new(),
            rungs: HashMap::new(),
            latencies_us: Vec::new(),
            deadline_met: 0,
            send_lag_max_us: 0,
            traces_sent: 0,
            keys: HashMap::new(),
            connect_retries: 0,
            served_by: HashMap::new(),
        }
    }
}

/// Run one load generation pass. Returns `Err` only when no connection
/// could be established at all.
pub fn run(cfg: &LoadConfig) -> io::Result<LoadReport> {
    let conns = cfg.conns.max(1);
    let t0 = Instant::now();
    let next_trace = Arc::new(AtomicU64::new(1));
    let mut handles = Vec::new();
    for c in 0..conns {
        let cfg = cfg.clone();
        let next_trace = Arc::clone(&next_trace);
        handles.push(thread::spawn(move || conn_run(&cfg, c, &next_trace)));
    }
    let mut tallies = Vec::new();
    for h in handles {
        match h.join() {
            Ok(Ok(t)) => tallies.push(t),
            Ok(Err(e)) => {
                if tallies.is_empty() {
                    return Err(e);
                }
            }
            Err(_) => {}
        }
    }
    if tallies.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            "no connection completed",
        ));
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let mut report = LoadReport {
        mode: cfg.mode.name().to_string(),
        offered_rps: match cfg.mode {
            LoadMode::Open { rate_rps } => rate_rps,
            LoadMode::Closed => 0.0,
        },
        wall_s,
        ..LoadReport::default()
    };
    let mut errors: HashMap<String, u64> = HashMap::new();
    let mut rungs: HashMap<String, u64> = HashMap::new();
    let mut keys: HashMap<u32, u64> = HashMap::new();
    let mut served_by: HashMap<String, u64> = HashMap::new();
    let mut all_lat = Vec::new();
    let mut lag_max = 0u64;
    for t in tallies {
        report.sent += t.sent;
        report.ok += t.ok;
        report.lost += t.lost;
        report.deadline_met += t.deadline_met;
        report.traces_sent += t.traces_sent;
        report.connect_retries += t.connect_retries;
        lag_max = lag_max.max(t.send_lag_max_us);
        for (k, v) in t.errors {
            *errors.entry(k.to_string()).or_insert(0) += v;
        }
        for (k, v) in t.rungs {
            *rungs.entry(k).or_insert(0) += v;
        }
        for (k, v) in t.keys {
            *keys.entry(k).or_insert(0) += v;
        }
        for (k, v) in t.served_by {
            *served_by.entry(k).or_insert(0) += v;
        }
        all_lat.extend(t.latencies_us);
    }
    report.key_skew = key_skew_from_counts(&keys);
    report.throughput_rps = if wall_s > 0.0 {
        report.ok as f64 / wall_s
    } else {
        0.0
    };
    report.latency = LatencySummary::from_micros(all_lat);
    report.send_lag_max_ms = lag_max as f64 / 1_000.0;
    let mut errors: Vec<_> = errors.into_iter().collect();
    errors.sort();
    report.errors = errors;
    let mut rungs: Vec<_> = rungs.into_iter().collect();
    rungs.sort();
    report.rungs = rungs;
    let mut served_by: Vec<_> = served_by.into_iter().collect();
    served_by.sort();
    report.served_by = served_by;
    Ok(report)
}

fn classify(tally: &mut ConnTally, resp: &WireResponse, sched: Option<Instant>) {
    match resp {
        WireResponse::Ok {
            rung,
            deadline_met,
            served_by,
            ..
        } => {
            tally.ok += 1;
            if *deadline_met {
                tally.deadline_met += 1;
            }
            *tally.rungs.entry(rung.clone()).or_insert(0) += 1;
            let replica = served_by.as_deref().unwrap_or("unknown");
            *tally.served_by.entry(replica.to_string()).or_insert(0) += 1;
            if let Some(t) = sched {
                tally
                    .latencies_us
                    .push(t.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
            }
        }
        WireResponse::Err { code, .. } => {
            *tally.errors.entry(code.name()).or_insert(0) += 1;
        }
    }
}

fn conn_run(cfg: &LoadConfig, conn_idx: usize, next_trace: &AtomicU64) -> io::Result<ConnTally> {
    match cfg.mode {
        LoadMode::Open { rate_rps } => open_loop(cfg, conn_idx, rate_rps, next_trace),
        LoadMode::Closed => closed_loop(cfg, conn_idx, next_trace),
    }
}

fn make_request(
    id: u64,
    mixer: &mut OdMixer,
    cfg: &LoadConfig,
    next_trace: &AtomicU64,
    tally: &mut ConnTally,
) -> WireRequest {
    let trace = if cfg.trace_every > 0 && id.is_multiple_of(cfg.trace_every) {
        let raw = next_trace.fetch_add(1, Ordering::Relaxed);
        let t = TraceId::from_raw(0x10AD_0000_0000_0000 | raw);
        if t.is_some() {
            tally.traces_sent += 1;
        }
        t
    } else {
        None
    };
    let query = mixer.next_query();
    *tally
        .keys
        .entry(coarse_od_key(&query, &cfg.region))
        .or_insert(0) += 1;
    WireRequest {
        id,
        query,
        deadline_ms: cfg.deadline_ms,
        trace,
        parent_span: None,
    }
}

fn closed_loop(cfg: &LoadConfig, conn_idx: usize, next_trace: &AtomicU64) -> io::Result<ConnTally> {
    let (mut client, connect_retries) = connect(cfg)?;
    let mut mixer = OdMixer::new(
        cfg.seed ^ (conn_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        cfg.hotspots,
        cfg.p_hot,
        cfg.region,
        cfg.t_dep_range,
    )
    .with_zipf(cfg.zipf_s)
    .with_drift(cfg.center_drift);
    let mut tally = ConnTally::new();
    tally.connect_retries = connect_retries;
    let t0 = Instant::now();
    let mut id = 1u64;
    while t0.elapsed() < cfg.duration {
        let req = make_request(id, &mut mixer, cfg, next_trace, &mut tally);
        id += 1;
        let sent_at = Instant::now();
        tally.sent += 1;
        match client.call(&req, IO_DEADLINE) {
            Ok(resp) => {
                classify(&mut tally, &resp, Some(sent_at));
                // A drain refusal means the run is over for us.
                if matches!(
                    resp,
                    WireResponse::Err {
                        code: WireErrorCode::ServerDraining,
                        ..
                    }
                ) {
                    break;
                }
            }
            Err(_) => {
                tally.lost += 1;
                break;
            }
        }
    }
    Ok(tally)
}

fn open_loop(
    cfg: &LoadConfig,
    conn_idx: usize,
    rate_rps: f64,
    next_trace: &AtomicU64,
) -> io::Result<ConnTally> {
    let (mut client, connect_retries) = connect(cfg)?;
    // The receiver reads replies off its own handle of the socket while
    // the client below only ever writes.
    let stream = client.stream()?.try_clone()?;
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;

    // Each connection carries an independent Poisson stream at 1/Nth of
    // the configured rate (a superposition of Poisson processes is
    // Poisson at the summed rate).
    let per_conn_rate = rate_rps / cfg.conns.max(1) as f64;
    let mut rng = SplitMix64::new(
        cfg.seed.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ conn_idx as u64,
    );
    let mut mixer = OdMixer::new(
        cfg.seed ^ (conn_idx as u64).wrapping_mul(0xA24B_AED4_963E_E407),
        cfg.hotspots,
        cfg.p_hot,
        cfg.region,
        cfg.t_dep_range,
    )
    .with_zipf(cfg.zipf_s)
    .with_drift(cfg.center_drift);

    // Scheduled send times, fixed up front — the definition of open loop.
    let mut schedule = Vec::new();
    let mut t = 0.0f64;
    let horizon = cfg.duration.as_secs_f64();
    loop {
        t += rng.next_exp_secs(per_conn_rate);
        if !t.is_finite() || t >= horizon {
            break;
        }
        schedule.push(Duration::from_secs_f64(t));
    }

    let epoch = Instant::now();
    let inflight: Arc<Mutex<HashMap<u64, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
    let done_sending = Arc::new(AtomicBool::new(false));
    let tally = Arc::new(Mutex::new(ConnTally::new()));
    tally.lock().unwrap().connect_retries = connect_retries;

    // Receiver: classifies replies against scheduled send times.
    let receiver = {
        let inflight = Arc::clone(&inflight);
        let done = Arc::clone(&done_sending);
        let tally = Arc::clone(&tally);
        let max_frame = cfg.max_frame_bytes;
        let mut rstream = stream;
        thread::spawn(move || {
            let grace = Duration::from_secs(2);
            let mut idle_since: Option<Instant> = None;
            loop {
                let outstanding = { !inflight.lock().unwrap().is_empty() };
                if done.load(Ordering::Relaxed) && !outstanding {
                    break;
                }
                match read_frame(&mut rstream, max_frame) {
                    Ok(FrameRead::Payload(p)) => {
                        idle_since = None;
                        if let Ok(resp) = WireResponse::from_json(&p) {
                            let sched = inflight.lock().unwrap().remove(&resp.id());
                            classify(&mut tally.lock().unwrap(), &resp, sched);
                        }
                    }
                    Ok(FrameRead::Closed) => break,
                    Err(crate::wire::FrameError::Io(e))
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        // Reads time out every 50ms so the done/grace
                        // checks run even with a silent server.
                        if done.load(Ordering::Relaxed) {
                            let since = *idle_since.get_or_insert_with(Instant::now);
                            if since.elapsed() > grace {
                                break;
                            }
                        }
                    }
                    Err(_) => break,
                }
            }
        })
    };

    // Sender: walks the schedule, never skipping a slot (late sends are
    // recorded as lag, not dropped — dropping would be coordinated
    // omission by another name).
    for (i, due) in schedule.iter().enumerate() {
        let now = epoch.elapsed();
        if *due > now {
            thread::sleep(*due - now);
        }
        let id = i as u64 + 1;
        let req = make_request(id, &mut mixer, cfg, next_trace, &mut tally.lock().unwrap());
        let sched_at = epoch + *due;
        let lag = epoch.elapsed().saturating_sub(*due);
        inflight.lock().unwrap().insert(id, sched_at);
        if client.send(&req, IO_DEADLINE).is_err() {
            inflight.lock().unwrap().remove(&id);
            break;
        }
        let mut t = tally.lock().unwrap();
        t.sent += 1;
        t.send_lag_max_us = t.send_lag_max_us.max(lag.as_micros() as u64);
    }
    done_sending.store(true, Ordering::Relaxed);
    let _ = receiver.join();

    let mut tally = Arc::try_unwrap(tally)
        .map(|m| m.into_inner().unwrap())
        .unwrap_or_else(|_| ConnTally::new());
    let unanswered = inflight.lock().unwrap().len() as u64;
    tally.lost += unanswered;
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{start, EchoBackend, ServerConfig};

    fn server_cfg() -> ServerConfig {
        ServerConfig {
            acceptor_threads: 1,
            read_timeout_ms: 5,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn od_mixer_is_deterministic_and_in_region() {
        let region = Region::default();
        let mk = || OdMixer::new(7, 4, 0.7, region, (0.0, 86_400.0));
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..200 {
            let qa = a.next_query();
            let qb = b.next_query();
            assert_eq!(qa, qb, "same seed must give the same mix");
            for (lng, lat) in [(qa.o_lng, qa.o_lat), (qa.d_lng, qa.d_lat)] {
                assert!((region.lng0..=region.lng1).contains(&lng));
                assert!((region.lat0..=region.lat1).contains(&lat));
            }
            assert!((0.0..=86_400.0).contains(&qa.t_dep));
        }
    }

    #[test]
    fn hotspot_skew_concentrates_endpoints() {
        let region = Region::default();
        let mut hot = OdMixer::new(11, 2, 1.0, region, (0.0, 1.0));
        let mut uniform = OdMixer::new(11, 0, 0.0, region, (0.0, 1.0));
        // With p_hot=1 and 2 centers, distinct origin longitudes collapse
        // to a narrow set; uniform stays spread. Compare coarse-bucket
        // occupancy.
        let buckets = |m: &mut OdMixer| {
            let mut seen = std::collections::HashSet::new();
            for _ in 0..300 {
                let q = m.next_query();
                let w = region.lng1 - region.lng0;
                seen.insert(((q.o_lng - region.lng0) / w * 50.0) as u32);
            }
            seen.len()
        };
        let hot_buckets = buckets(&mut hot);
        let uni_buckets = buckets(&mut uniform);
        assert!(
            hot_buckets < uni_buckets / 2,
            "hotspot mix not skewed: {hot_buckets} vs {uni_buckets} buckets"
        );
    }

    #[test]
    fn zipf_skew_concentrates_on_the_top_ranked_center() {
        let region = Region::default();
        // Same seed, same centers; only the rank distribution differs.
        let counts = |zipf_s: f64| {
            let mut m = OdMixer::new(13, 8, 1.0, region, (0.0, 1.0)).with_zipf(zipf_s);
            let mut per_key: HashMap<u32, u64> = HashMap::new();
            for _ in 0..2_000 {
                let q = m.next_query();
                *per_key.entry(coarse_od_key(&q, &region)).or_insert(0) += 1;
            }
            key_skew_from_counts(&per_key)
        };
        let uniform = counts(0.0);
        let skewed = counts(2.0);
        assert!(
            skewed.top1_share > uniform.top1_share * 2.0,
            "zipf s=2 not skewed: top1 {} vs uniform {}",
            skewed.top1_share,
            uniform.top1_share
        );
        assert!(skewed.distinct < uniform.distinct);
        assert_eq!(uniform.total, 2_000);
    }

    #[test]
    fn center_drift_moves_hotspots_with_time_of_day() {
        let region = Region::default();
        // p_hot=1, one center, zero jitter influence dominated by drift:
        // morning and evening queries must land in different places.
        let centroid = |t_range: (f64, f64)| {
            let mut m = OdMixer::new(17, 1, 1.0, region, t_range).with_drift(0.2);
            let (mut sx, mut n) = (0.0, 0);
            for _ in 0..300 {
                let q = m.next_query();
                sx += q.o_lng;
                n += 1;
            }
            sx / n as f64
        };
        let morning = centroid((6.0 * 3600.0, 6.5 * 3600.0));
        let evening = centroid((18.0 * 3600.0, 18.5 * 3600.0));
        let span = region.lng1 - region.lng0;
        assert!(
            (morning - evening).abs() > span * 0.05,
            "drifted centers did not move: morning {morning} vs evening {evening}"
        );
        // No drift: the same two windows agree.
        let centroid0 = |t_range: (f64, f64)| {
            let mut m = OdMixer::new(17, 1, 1.0, region, t_range);
            let (mut sx, mut n) = (0.0, 0);
            for _ in 0..300 {
                sx += m.next_query().o_lng;
                n += 1;
            }
            sx / n as f64
        };
        let m0 = centroid0((6.0 * 3600.0, 6.5 * 3600.0));
        let e0 = centroid0((18.0 * 3600.0, 18.5 * 3600.0));
        assert!((m0 - e0).abs() < span * 0.02, "static centers moved");
    }

    #[test]
    fn load_runs_record_the_achieved_key_skew() {
        let h = start(server_cfg(), EchoBackend::instant()).unwrap();
        let report = run(&LoadConfig {
            addr: h.addr().to_string(),
            conns: 2,
            duration: Duration::from_millis(300),
            mode: LoadMode::Closed,
            zipf_s: 1.5,
            p_hot: 0.95,
            ..LoadConfig::default()
        })
        .unwrap();
        assert!(report.ok > 0);
        let ks = report.key_skew;
        assert_eq!(ks.total, report.sent, "every sent request is keyed");
        assert!(ks.distinct >= 1);
        assert!(ks.top1_share > 0.0 && ks.top1_share <= 1.0);
        assert!(ks.top10_share >= ks.top1_share && ks.top10_share <= 1.0);
        let _ = h.drain();
    }

    #[test]
    fn latency_summary_percentiles_are_ordered() {
        let s = LatencySummary::from_micros((1..=1000).collect());
        assert!(s.p50_ms <= s.p90_ms && s.p90_ms <= s.p99_ms && s.p99_ms <= s.max_ms);
        assert!((s.max_ms - 1.0).abs() < 1e-9);
        let empty = LatencySummary::from_micros(Vec::new());
        assert_eq!(empty.p99_ms, 0.0);
    }

    #[test]
    fn closed_loop_round_trips_against_an_echo_server() {
        let h = start(server_cfg(), EchoBackend::instant()).unwrap();
        let report = run(&LoadConfig {
            addr: h.addr().to_string(),
            conns: 2,
            duration: Duration::from_millis(300),
            mode: LoadMode::Closed,
            trace_every: 4,
            ..LoadConfig::default()
        })
        .unwrap();
        assert!(report.ok > 0, "{report:?}");
        assert_eq!(report.sent, report.ok, "echo server sheds nothing");
        assert_eq!(report.lost, 0);
        assert!(report.traces_sent > 0);
        assert_eq!(report.mode, "closed");
        let drained = h.drain();
        assert_eq!(drained.stats.active, 0);
    }

    #[test]
    fn open_loop_measures_from_the_schedule() {
        // A deliberately slow echo server: 5ms per request, offered at
        // 100 rps on one connection — the server saturates and open-loop
        // p99 must blow up past the per-request service time, which is
        // exactly what coordinated omission would hide.
        let h = start(
            server_cfg(),
            EchoBackend {
                delay: Duration::from_millis(5),
            },
        )
        .unwrap();
        let report = run(&LoadConfig {
            addr: h.addr().to_string(),
            conns: 1,
            duration: Duration::from_millis(600),
            mode: LoadMode::Open { rate_rps: 150.0 },
            trace_every: 0,
            ..LoadConfig::default()
        })
        .unwrap();
        assert!(report.ok > 10, "{report:?}");
        // Saturated open loop: tail latency reflects queue buildup, so it
        // must exceed the 5ms service floor by a wide margin.
        assert!(
            report.latency.p99_ms > 15.0,
            "open-loop p99 suspiciously low (CO leak?): {:?}",
            report.latency
        );
        assert_eq!(report.mode, "open");
        assert!(report.offered_rps > 0.0);
        let drained = h.drain();
        assert_eq!(drained.stats.active, 0);
    }
}
