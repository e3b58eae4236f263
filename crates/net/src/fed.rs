//! Cluster metrics federation: one scrape plane for the whole fleet.
//!
//! A sharded oracle cluster has N×R replica processes, each serving its
//! own Prometheus `/metrics` and `/varz`. Operators should not need N×R
//! scrape configs (or N×R dashboards) to answer "what is the cluster's
//! p99 right now?" — the router already knows the topology, so it hosts
//! the single pane: a [`ClusterScraper`] pulls every replica's admin
//! plane on a fixed period and the router's own admin endpoint re-serves
//! the assembly as `GET /metrics/cluster` and `GET /varz/cluster`.
//!
//! The federated exposition has three layers:
//!
//! 1. **Stale markers** — `odt_cluster_replica_stale{shard,replica}`,
//!    `1` while the replica's last scrape attempt failed (or it was
//!    never reachable). A dead replica keeps its *last good* scrape in
//!    the output so the shard's history survives the outage; the marker
//!    is how dashboards know the numbers stopped moving.
//! 2. **Per-replica families** — every family of every replica's
//!    `/metrics`, re-emitted verbatim with `shard`/`replica` labels
//!    appended (one `# TYPE` line per family, series grouped so the
//!    body is valid 0.0.4 text).
//! 3. **Merged cluster families** — every histogram family is re-parsed
//!    into its fixed-bound [`HistogramData`] form and merged bucket-wise
//!    across replicas ([`HistogramData::merged`]) under the
//!    `odt_cluster_` prefix. The merge is *exact*, not approximate:
//!    every process buckets into the same `2^i − 1` µs bounds, so
//!    bucket-wise sums are the histogram the cluster would have recorded
//!    had it been one process, and cluster `_count`/`_sum` equal the
//!    sums of the per-replica series by construction.
//!
//! `varz_cluster` is the JSON sibling (`odt-cluster-varz/v1`): topology,
//! per-replica state/quality/cache pulled from each scraped `/varz`,
//! staleness, and a per-shard quality roll-up (worst MAE / drift across
//! the shard's live replicas).

use crate::admin::http_request;
use crate::cluster::{PollerHandle, ReplicaAddr};
use odt_obs::expo::{self, ParsedExposition};
use odt_obs::json::{self, JsonValue};
use odt_obs::{counter, event, HistogramData, Level};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One admin endpoint the scraper pulls.
#[derive(Clone, Debug)]
pub struct ScrapeTarget {
    /// Shard ordinal in the router's topology.
    pub shard: usize,
    /// Replica ordinal within the shard.
    pub replica: usize,
    /// Admin-plane address; `None` for replicas configured without one
    /// (those are permanently stale — there is nothing to scrape).
    pub admin: Option<String>,
}

/// Last-known-good scrape state for one target.
struct TargetState {
    /// Last successfully parsed `/metrics` body.
    metrics: Option<ParsedExposition>,
    /// Last successfully parsed `/varz` body.
    varz: Option<JsonValue>,
    /// Whether the *most recent* attempt failed. Starts `true`: a
    /// replica is stale until proven fresh.
    stale: bool,
    /// Lifetime successful scrapes.
    ok: u64,
    /// Lifetime failed attempts.
    failed: u64,
}

impl Default for TargetState {
    fn default() -> Self {
        TargetState {
            metrics: None,
            varz: None,
            stale: true, // stale until the first successful scrape
            ok: 0,
            failed: 0,
        }
    }
}

/// Pull-based collector for every replica admin plane in a topology.
/// Thread-safe: the scrape thread writes, admin handler threads render.
pub struct ClusterScraper {
    targets: Vec<ScrapeTarget>,
    timeout: Duration,
    states: Vec<Mutex<TargetState>>,
}

impl ClusterScraper {
    /// Build a scraper over the router's replica topology (the same
    /// `Vec<Vec<ReplicaAddr>>` the cluster config holds).
    pub fn new(topology: &[Vec<ReplicaAddr>], timeout_ms: u64) -> ClusterScraper {
        let mut targets = Vec::new();
        for (s, replicas) in topology.iter().enumerate() {
            for (r, addr) in replicas.iter().enumerate() {
                targets.push(ScrapeTarget {
                    shard: s,
                    replica: r,
                    admin: addr.admin.clone(),
                });
            }
        }
        let states = targets.iter().map(|_| Mutex::default()).collect();
        ClusterScraper {
            targets,
            timeout: Duration::from_millis(timeout_ms.max(1)),
            states,
        }
    }

    /// The scrape targets, in topology order.
    pub fn targets(&self) -> &[ScrapeTarget] {
        &self.targets
    }

    /// One synchronous pass over every target: fetch `/metrics` and
    /// `/varz`, keep the parses on success, flip the stale marker on
    /// failure (keeping the last good data). Returns how many targets
    /// scraped clean.
    pub fn scrape_once(&self) -> usize {
        let mut fresh = 0;
        for (i, t) in self.targets.iter().enumerate() {
            let Some(admin) = &t.admin else {
                // Nothing to pull; the default state is already stale.
                continue;
            };
            let metrics = http_get(admin, "/metrics", self.timeout)
                .filter(|(st, _)| *st == 200)
                .and_then(|(_, body)| expo::parse(&body).ok());
            let varz = http_get(admin, "/varz", self.timeout)
                .filter(|(st, _)| *st == 200)
                .and_then(|(_, body)| JsonValue::parse(&body).ok());
            let mut st = self.states[i].lock().expect("scrape state poisoned");
            match metrics {
                Some(parsed) => {
                    st.metrics = Some(parsed);
                    if let Some(v) = varz {
                        st.varz = Some(v);
                    }
                    if st.stale && st.ok > 0 {
                        event(Level::Info, "fed.replica_fresh")
                            .field("shard", t.shard as u64)
                            .field("replica", t.replica as u64)
                            .emit();
                    }
                    st.stale = false;
                    st.ok += 1;
                    fresh += 1;
                    counter("fed.scrape_ok").inc();
                }
                None => {
                    if !st.stale {
                        event(Level::Warn, "fed.replica_stale")
                            .field("shard", t.shard as u64)
                            .field("replica", t.replica as u64)
                            .emit();
                    }
                    st.stale = true;
                    st.failed += 1;
                    counter("fed.scrape_failed").inc();
                }
            }
        }
        fresh
    }

    /// Render the federated Prometheus 0.0.4 body (see module docs for
    /// the three layers). Always parseable by [`expo::parse`].
    pub fn federated(&self) -> String {
        let states: Vec<_> = self
            .states
            .iter()
            .map(|m| m.lock().expect("scrape state poisoned"))
            .collect();
        let mut out = String::with_capacity(4096);

        // Layer 1: staleness markers, one gauge per target.
        out.push_str(
            "# HELP odt_cluster_replica_stale 1 while the replica's last scrape failed\n\
             # TYPE odt_cluster_replica_stale gauge\n",
        );
        for (t, st) in self.targets.iter().zip(&states) {
            out.push_str(&format!(
                "odt_cluster_replica_stale{{shard=\"{}\",replica=\"{}\"}} {}\n",
                t.shard,
                t.replica,
                if st.stale { 1 } else { 0 }
            ));
        }

        // Layer 2: per-replica families. Collect family → declared type
        // in first-seen order, then emit each family's series from every
        // replica together so the family stays contiguous.
        let mut fams: Vec<(String, String)> = Vec::new();
        for st in &states {
            let Some(p) = &st.metrics else { continue };
            for (n, k) in &p.types {
                if !fams.iter().any(|(fn_, _)| fn_ == n) {
                    fams.push((n.clone(), k.clone()));
                }
            }
        }
        for (fam, kind) in &fams {
            out.push_str(&format!("# TYPE {fam} {kind}\n"));
            for (t, st) in self.targets.iter().zip(&states) {
                let Some(p) = &st.metrics else { continue };
                for s in &p.samples {
                    if !family_member(fam, &s.name) {
                        continue;
                    }
                    out.push_str(&s.name);
                    out.push('{');
                    for (k, v) in &s.labels {
                        out.push_str(k);
                        out.push_str("=\"");
                        expo::push_label_value(&mut out, v);
                        out.push_str("\",");
                    }
                    out.push_str(&format!(
                        "shard=\"{}\",replica=\"{}\"}} ",
                        t.shard, t.replica
                    ));
                    expo::push_sample(&mut out, s.value);
                    out.push('\n');
                }
            }
        }

        // Layer 3: exact bucket-wise merges of every histogram family.
        let mut merged: BTreeMap<String, HistogramData> = BTreeMap::new();
        for st in &states {
            let Some(p) = &st.metrics else { continue };
            let Ok(hists) = expo::histograms_from_parts(p) else {
                continue;
            };
            for (fam, d) in hists {
                merged.entry(fam).or_default().merge_from(&d);
            }
        }
        for (fam, d) in &merged {
            let cname = cluster_family(fam);
            out.push_str(&format!(
                "# HELP {cname} bucket-wise merge of {fam} across all replicas\n\
                 # TYPE {cname} histogram\n"
            ));
            for (le, cum) in d.cumulative_buckets() {
                out.push_str(&format!("{cname}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!("{cname}_bucket{{le=\"+Inf\"}} {}\n", d.count));
            out.push_str(&format!("{cname}_sum {}\n", d.sum_us));
            out.push_str(&format!("{cname}_count {}\n", d.count));
            out.push_str(&format!("# TYPE {cname}_quantile gauge\n"));
            for (label, q) in [("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)] {
                out.push_str(&format!("{cname}_quantile{{quantile=\"{label}\"}} "));
                expo::push_sample(&mut out, d.quantile_micros(q));
                out.push('\n');
            }
            out.push_str(&format!(
                "# TYPE {cname}_max gauge\n{cname}_max {}\n",
                d.max_us
            ));
        }
        out
    }

    /// Render the `odt-cluster-varz/v1` JSON roll-up: topology, each
    /// replica's scraped state/quality/cache, staleness, and per-shard
    /// worst-case quality.
    pub fn varz_cluster(&self) -> String {
        let states: Vec<_> = self
            .states
            .iter()
            .map(|m| m.lock().expect("scrape state poisoned"))
            .collect();
        let shards = self.targets.iter().map(|t| t.shard + 1).max().unwrap_or(0);
        json::object_string(|o| {
            o.field("schema", "odt-cluster-varz/v1")
                .array("shards", |a| {
                    for s in 0..shards {
                        let rows: Vec<(&ScrapeTarget, &TargetState)> = self
                            .targets
                            .iter()
                            .zip(states.iter().map(|st| &**st))
                            .filter(|(t, _)| t.shard == s)
                            .collect();
                        a.object(|o| shard_members(o, s, &rows));
                    }
                });
        })
    }
}

/// One shard of the roll-up: its replicas' rows, then the worst quality
/// over the live ones (NaN, no data, renders as `null`).
fn shard_members(
    o: &mut json::Obj<'_, String>,
    shard: usize,
    rows: &[(&ScrapeTarget, &TargetState)],
) {
    o.field("shard", shard).array("replicas", |a| {
        for (t, st) in rows {
            a.object(|o| replica_members(o, t, st));
        }
    });
    let live = || rows.iter().filter(|(_, st)| !st.stale);
    let worst = |key: &str| {
        live()
            .filter_map(|(_, st)| st.varz.as_ref()?.get("quality")?.get(key)?.as_f64())
            .fold(f64::NAN, |worst, v| if worst >= v { worst } else { v })
    };
    o.field("live_replicas", live().count())
        .field("worst_mae_s", worst("mae_s"))
        .field("worst_drift_score", worst("drift_score"));
}

/// One replica's row of the roll-up: scrape bookkeeping, then the state
/// and the three blocks of its last good `/varz`, re-serialized verbatim.
fn replica_members(o: &mut json::Obj<'_, String>, t: &ScrapeTarget, st: &TargetState) {
    let v = st.varz.as_ref();
    o.field("replica", t.replica)
        .field("admin", &t.admin)
        .field("stale", st.stale)
        .field("scrapes_ok", st.ok)
        .field("scrapes_failed", st.failed)
        .field("state", v.and_then(|v| v.get("state")?.as_str()));
    for key in ["quality", "cache", "frontend"] {
        o.field(key, v.and_then(|v| v.get(key)));
    }
}

/// Whether sample `name` belongs to exposition family `fam` (the family
/// itself, or one of the histogram triplet suffixes).
fn family_member(fam: &str, name: &str) -> bool {
    match name.strip_prefix(fam) {
        Some(rest) => matches!(rest, "" | "_bucket" | "_sum" | "_count"),
        None => false,
    }
}

/// The merged family name for a per-process family: `odt_serve_request_us`
/// → `odt_cluster_serve_request_us`.
fn cluster_family(fam: &str) -> String {
    format!("odt_cluster_{}", fam.strip_prefix("odt_").unwrap_or(fam))
}

/// `GET path` against an admin endpoint (see [`http_request`]).
pub fn http_get(admin_addr: &str, path: &str, timeout: Duration) -> Option<(u16, String)> {
    http_request(admin_addr, "GET", path, timeout)
}

/// Start the periodic scrape loop: one [`ClusterScraper::scrape_once`]
/// pass every `period_ms` (the first pass runs immediately, so the
/// federated body is populated as soon as replicas answer).
pub fn start_scraper(scraper: Arc<ClusterScraper>, period_ms: u64) -> PollerHandle {
    PollerHandle::spawn("odt-fed-scraper", period_ms, move || {
        scraper.scrape_once();
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::{start_admin, AdminConfig, AdminSources};

    fn one_replica(admin: &str) -> Vec<Vec<ReplicaAddr>> {
        vec![vec![ReplicaAddr::with_admin("127.0.0.1:9", admin)]]
    }

    #[test]
    fn scrape_federates_with_labels_and_exact_histogram_merge() {
        // Make sure the process registry has a histogram to federate.
        odt_obs::histogram("fed.test.lat").record_micros(500);
        odt_obs::histogram("fed.test.lat").record_micros(9_000);
        let admin = start_admin(AdminConfig::default(), AdminSources::default()).unwrap();
        let scraper = ClusterScraper::new(&one_replica(&admin.addr().to_string()), 1_000);
        assert_eq!(scraper.scrape_once(), 1);
        let body = scraper.federated();
        assert!(
            body.contains("odt_cluster_replica_stale{shard=\"0\",replica=\"0\"} 0"),
            "{body}"
        );
        // Per-replica series carry topology labels.
        assert!(
            body.contains("shard=\"0\",replica=\"0\"} "),
            "missing replica labels: {body}"
        );
        // The federated body is itself valid exposition text.
        let parsed = expo::parse(&body).expect("federated body must re-parse");
        // Exact merge: with one replica, the cluster count equals the
        // replica's own count series.
        let cluster_count = parsed
            .samples
            .iter()
            .find(|s| s.name == "odt_cluster_fed_test_lat_us_count")
            .expect("merged family missing")
            .value;
        let replica_count = parsed
            .samples
            .iter()
            .find(|s| s.name == "odt_fed_test_lat_us_count" && s.label("replica").is_some())
            .expect("labeled replica count missing")
            .value;
        assert_eq!(cluster_count, replica_count);
        assert!(cluster_count >= 2.0, "{cluster_count}");
        admin.shutdown();
    }

    #[test]
    fn dead_replicas_go_stale_but_keep_their_history() {
        odt_obs::counter("fed.test.keepalive").inc();
        let admin = start_admin(AdminConfig::default(), AdminSources::default()).unwrap();
        let scraper = ClusterScraper::new(&one_replica(&admin.addr().to_string()), 300);
        assert_eq!(scraper.scrape_once(), 1);
        admin.shutdown();
        // The replica is gone: the next pass fails…
        assert_eq!(scraper.scrape_once(), 0);
        let body = scraper.federated();
        // …the marker flips…
        assert!(
            body.contains("odt_cluster_replica_stale{shard=\"0\",replica=\"0\"} 1"),
            "{body}"
        );
        // …but the last good scrape still renders: history survives.
        assert!(
            body.contains("odt_fed_test_keepalive_total{shard=\"0\",replica=\"0\"}"),
            "dead replica's history dropped: {body}"
        );
        let varz = scraper.varz_cluster();
        assert!(
            varz.starts_with("{\"schema\":\"odt-cluster-varz/v1\""),
            "{varz}"
        );
        assert!(varz.contains("\"stale\":true"), "{varz}");
        assert!(varz.contains("\"live_replicas\":0"), "{varz}");
    }

    #[test]
    fn replicas_without_admin_planes_are_permanently_stale() {
        let topo = vec![vec![ReplicaAddr::wire_only("127.0.0.1:9")]];
        let scraper = ClusterScraper::new(&topo, 100);
        assert_eq!(scraper.scrape_once(), 0);
        let body = scraper.federated();
        assert!(
            body.contains("odt_cluster_replica_stale{shard=\"0\",replica=\"0\"} 1"),
            "{body}"
        );
        // Valid exposition even with zero scraped families.
        expo::parse(&body).expect("empty federation must still parse");
    }

    #[test]
    fn cluster_varz_bytes_are_pinned() {
        let topo = vec![
            vec![
                ReplicaAddr::with_admin("127.0.0.1:9", "10.0.0.1:9100"),
                ReplicaAddr::with_admin("127.0.0.1:9", "10.0.0.2:9100"),
            ],
            vec![ReplicaAddr::wire_only("127.0.0.1:9")],
        ];
        let scraper = ClusterScraper::new(&topo, 100);
        let varz = |mae: &str| {
            let doc = format!(
                "{{\"state\":\"running\",\"quality\":{{\"mae_s\":{mae},\"drift_score\":0.25,\
                 \"slo\":null}},\"cache\":null,\
                 \"frontend\":{{\"served\":8,\"rung_hits\":{{\"cached\":3}},\"note\":\"a\\\"b\"}}}}"
            );
            JsonValue::parse(&doc).unwrap()
        };
        // Replica 0 scraped clean twice; replica 1 scraped once, then died
        // (stale, history kept); the shard-1 replica has no admin plane.
        *scraper.states[0].lock().unwrap() = TargetState {
            metrics: None,
            varz: Some(varz("12.5")),
            stale: false,
            ok: 2,
            failed: 0,
        };
        *scraper.states[1].lock().unwrap() = TargetState {
            metrics: None,
            varz: Some(varz("99")),
            stale: true,
            ok: 1,
            failed: 3,
        };
        assert_eq!(
            scraper.varz_cluster(),
            "{\"schema\":\"odt-cluster-varz/v1\",\"shards\":[\
             {\"shard\":0,\"replicas\":[\
             {\"replica\":0,\"admin\":\"10.0.0.1:9100\",\"stale\":false,\"scrapes_ok\":2,\
             \"scrapes_failed\":0,\"state\":\"running\",\
             \"quality\":{\"mae_s\":12.5,\"drift_score\":0.25,\"slo\":null},\"cache\":null,\
             \"frontend\":{\"served\":8,\"rung_hits\":{\"cached\":3},\"note\":\"a\\\"b\"}},\
             {\"replica\":1,\"admin\":\"10.0.0.2:9100\",\"stale\":true,\"scrapes_ok\":1,\
             \"scrapes_failed\":3,\"state\":\"running\",\
             \"quality\":{\"mae_s\":99,\"drift_score\":0.25,\"slo\":null},\"cache\":null,\
             \"frontend\":{\"served\":8,\"rung_hits\":{\"cached\":3},\"note\":\"a\\\"b\"}}],\
             \"live_replicas\":1,\"worst_mae_s\":12.5,\"worst_drift_score\":0.25},\
             {\"shard\":1,\"replicas\":[\
             {\"replica\":0,\"admin\":null,\"stale\":true,\"scrapes_ok\":0,\
             \"scrapes_failed\":0,\"state\":null,\"quality\":null,\"cache\":null,\
             \"frontend\":null}],\
             \"live_replicas\":0,\"worst_mae_s\":null,\"worst_drift_score\":null}]}"
        );
    }
}
