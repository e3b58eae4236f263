//! `odt_router`: the cluster front door — shard placement, replica
//! failover, and degrade-to-prior, speaking `odt-wire/v1` on both sides.
//!
//! Hashes each query's `(origin cell, destination cell)` onto a shard
//! (rendezvous hashing over the placement grid; every router with the
//! same `--region`/`--cells`/`--seed` computes the same placement),
//! forwards to that shard's replicas with round-robin + health-probe +
//! circuit-breaker failover, and degrades to a router-local haversine
//! prior when a whole shard is dark — an answer, never a hang.
//!
//! ```text
//! odt_router --shard <wire[@admin]>[,<wire[@admin]>...]   (one per shard,
//!            repeatable)
//!            [--addr <host:port>] [--admin <host:port>]
//!            [--region <lng0,lat0,lng1,lat1>] [--cells <n>] [--seed <u64>]
//!            [--probe-interval-ms <ms>] [--probe-timeout-ms <ms>]
//!            [--scrape-interval-ms <ms>] [--scrape-timeout-ms <ms>]
//!            [--connect-timeout-ms <ms>] [--request-timeout-ms <ms>]
//!            [--instance <name>]
//!            [--quorum-wait-s <s>] [--max-run-s <s>] [--report <path>]
//! ```
//!
//! * `--shard`     — one shard's replicas, comma-separated. Each replica
//!   is `wire_addr` or `wire_addr@admin_addr`; with an
//!   admin address the health prober polls its `/readyz`
//!   and the router routes around unready replicas.
//! * `--region`    — the placement grid's bbox (must match the shards'
//!   served region; default: the loadgen default region).
//! * `--instance`  — this process's name in traces (`/tracez` tags every
//!   span fragment with it so `trace_report` can give
//!   the router its own Perfetto track).
//! * `--admin`     — the router's own admin plane. Its `/readyz` is the
//!   quorum aggregation: 200 only while every shard has
//!   at least one routable replica, 503 otherwise and
//!   during drain. `/varz` serves `odt-router-varz/v2`
//!   (per-replica health/breaker rows, failover and
//!   prior-serve totals). `/metrics/cluster` federates
//!   every replica's `/metrics` (shard/replica labels +
//!   exact merged `odt_cluster_*` histograms) and
//!   `/varz/cluster` rolls up per-shard health, model
//!   quality and cache state — both fed by a background
//!   scraper (`--scrape-interval-ms`).
//!
//! Startup prints machine-readable lines in this order:
//!
//! ```text
//! odt_router listening on <addr>
//! odt_router admin on <addr>          # only with --admin
//! odt_router ready                    # quorum reached (or wait expired)
//! ```
//!
//! On drain the final report (`odt-router/v2`) carries the wire-port
//! connection counters, the full cluster snapshot (per-replica rows,
//! `failovers_total`, `prior_serves_total`, `quorum_ready`), and the
//! drain outcome; exit status is non-zero on forced drain or leaked
//! connections.

use odt_net::admin::{start_admin, AdminConfig, AdminSources};
use odt_net::cluster::{
    render_router_varz, start_health_prober, ClusterConfig, ClusterShared, ReplicaAddr,
    RouterBackend,
};
use odt_net::fed::{start_scraper, ClusterScraper};
use odt_net::loadgen::Region;
use odt_net::server::{set_instance_name, ServerConfig};
use odt_net::signal;
use odt_obs::json::{self, Text};
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Every occurrence of `--shard <spec>`, in order.
fn shard_args() -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .enumerate()
        .filter(|(_, a)| a.as_str() == "--shard")
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

/// Parse one `--shard` spec: comma-separated `wire` or `wire@admin`.
fn parse_shard(spec: &str) -> Vec<ReplicaAddr> {
    spec.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|rep| match rep.split_once('@') {
            Some((wire, admin)) => ReplicaAddr::with_admin(wire, admin),
            None => ReplicaAddr::wire_only(rep),
        })
        .collect()
}

fn parse_region(spec: &str) -> Region {
    let parts: Vec<f64> = spec
        .split(',')
        .map(|p| p.trim().parse().expect("--region wants four floats"))
        .collect();
    assert_eq!(parts.len(), 4, "--region is <lng0,lat0,lng1,lat1>");
    Region {
        lng0: parts[0],
        lat0: parts[1],
        lng1: parts[2],
        lat1: parts[3],
    }
}

fn main() {
    odt_obs::flightrec::install_panic_hook();
    odt_obs::trace::init_from_env();
    odt_obs::flightrec::init_from_env();
    signal::install();

    let shards: Vec<Vec<ReplicaAddr>> = shard_args().iter().map(|s| parse_shard(s)).collect();
    assert!(
        !shards.is_empty() && shards.iter().all(|s| !s.is_empty()),
        "odt_router needs at least one --shard with at least one replica"
    );
    if let Some(name) = arg_value("--instance") {
        set_instance_name(&name);
    }
    let addr = arg_value("--addr").unwrap_or_else(|| "127.0.0.1:7979".to_string());
    let admin_addr = arg_value("--admin");
    let report_path = arg_value("--report").unwrap_or_else(|| "BENCH_net_router.json".to_string());
    let max_run_s: Option<u64> =
        arg_value("--max-run-s").map(|v| v.parse().expect("--max-run-s must be an integer"));
    let quorum_wait_s: u64 = arg_value("--quorum-wait-s")
        .map(|v| v.parse().expect("--quorum-wait-s must be an integer"))
        .unwrap_or(30);
    let probe_interval_ms: u64 = arg_value("--probe-interval-ms")
        .map(|v| v.parse().expect("--probe-interval-ms must be an integer"))
        .unwrap_or(100);
    let probe_timeout_ms: u64 = arg_value("--probe-timeout-ms")
        .map(|v| v.parse().expect("--probe-timeout-ms must be an integer"))
        .unwrap_or(300);
    let scrape_interval_ms: u64 = arg_value("--scrape-interval-ms")
        .map(|v| v.parse().expect("--scrape-interval-ms must be an integer"))
        .unwrap_or(1_000);
    let scrape_timeout_ms: u64 = arg_value("--scrape-timeout-ms")
        .map(|v| v.parse().expect("--scrape-timeout-ms must be an integer"))
        .unwrap_or(500);

    // The federation scraper wants the topology before ClusterConfig
    // consumes it; it only ever talks to replica admin planes.
    let scraper = Arc::new(ClusterScraper::new(&shards, scrape_timeout_ms));

    let mut ccfg = ClusterConfig::new(shards);
    if let Some(v) = arg_value("--region") {
        ccfg.region = parse_region(&v);
    }
    if let Some(v) = arg_value("--cells") {
        ccfg.cells = v.parse().expect("--cells must be an integer");
    }
    if let Some(v) = arg_value("--seed") {
        ccfg.seed = v.parse().expect("--seed must be an integer");
    }
    if let Some(v) = arg_value("--connect-timeout-ms") {
        ccfg.connect_timeout_ms = v.parse().expect("--connect-timeout-ms must be an integer");
    }
    if let Some(v) = arg_value("--request-timeout-ms") {
        ccfg.request_timeout_ms = v.parse().expect("--request-timeout-ms must be an integer");
    }

    let mut scfg = ServerConfig {
        addr,
        ..ServerConfig::default()
    };
    if let Some(v) = arg_value("--max-conns") {
        scfg.max_connections = v.parse().expect("--max-conns must be an integer");
    }
    if let Some(v) = arg_value("--drain-budget-ms") {
        scfg.drain_budget_ms = v.parse().expect("--drain-budget-ms must be an integer");
    }

    let shared = ClusterShared::new(&ccfg);
    let prober = start_health_prober(Arc::clone(&shared), probe_interval_ms, probe_timeout_ms);
    let backend = RouterBackend::new(ccfg, Arc::clone(&shared));
    let handle = odt_net::server::start(scfg, backend).expect("binding the listen address");
    let bound = handle.addr();
    println!("odt_router listening on {bound}");
    let _ = std::io::stdout().flush();

    // The scraper pulls every replica's /metrics and /varz so the
    // router's admin plane can serve the single-pane cluster views.
    let fed = start_scraper(Arc::clone(&scraper), scrape_interval_ms);

    let admin = admin_addr.map(|a| {
        let stats_handle = handle.stats_handle();
        let varz_shared = Arc::clone(&shared);
        let fed_metrics = Arc::clone(&scraper);
        let fed_varz = Arc::clone(&scraper);
        let admin = start_admin(
            AdminConfig {
                addr: a,
                ..AdminConfig::default()
            },
            AdminSources {
                varz: Some(Box::new(move || {
                    render_router_varz(
                        stats_handle.state_name(),
                        &stats_handle.stats(),
                        &varz_shared.snapshot(),
                    )
                })),
                metrics_cluster: Some(Box::new(move || fed_metrics.federated())),
                varz_cluster: Some(Box::new(move || fed_varz.varz_cluster())),
                ..AdminSources::default()
            },
        )
        .expect("binding the admin address");
        println!("odt_router admin on {}", admin.addr());
        let _ = std::io::stdout().flush();
        admin
    });

    // The quorum wait: the ready line is the start-traffic signal for
    // scripts, so hold it until every shard has proven a routable
    // replica (or the wait expires — degraded but still answering).
    let t0 = Instant::now();
    while !shared.quorum_ready() && t0.elapsed().as_secs() < quorum_wait_s {
        std::thread::sleep(Duration::from_millis(20));
    }
    if !shared.quorum_ready() {
        println!("odt_router: quorum wait expired; serving degraded");
    }
    println!("odt_router ready");
    let _ = std::io::stdout().flush();

    let started = Instant::now();
    loop {
        // /readyz *is* the quorum aggregation: it retreats the moment
        // any shard loses its last routable replica, and returns when
        // the prober sees one come back.
        if let Some(a) = &admin {
            a.set_ready(shared.quorum_ready());
        }
        if signal::shutdown_requested() {
            println!("odt_router: shutdown signal, draining");
            break;
        }
        if let Some(s) = max_run_s {
            if started.elapsed().as_secs() >= s {
                println!("odt_router: --max-run-s reached, draining");
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    if let Some(a) = &admin {
        a.set_ready(false);
    }
    let uptime_s = started.elapsed().as_secs_f64();
    let report = handle.drain();
    prober.shutdown();
    fed.shutdown();
    let snap = shared.snapshot();
    let c = &report.stats;
    let pass = report.clean && c.active == 0;
    println!(
        "odt_router: drained (clean={}, forced={}, active={}), {} forwarded / {} failovers / {} prior serves",
        report.clean, report.forced_conns, c.active, snap.forwarded, snap.failovers, snap.prior_serves
    );

    let mut json = json::object_string(|o| {
        o.field("schema", "odt-router/v2")
            .field("addr", Text(bound))
            .field("uptime_s", uptime_s)
            .field("conns", c)
            .field("cluster", &snap)
            .object_or_null("admin", admin.as_ref(), |o, a| {
                o.field("addr", Text(a.addr()))
                    .field("requests", a.requests());
            })
            .field("drain", &report)
            .field("pass", pass);
    });
    json.push('\n');
    std::fs::write(&report_path, json).unwrap_or_else(|e| panic!("writing {report_path}: {e}"));
    println!("wrote {report_path}");

    if let Some(a) = admin {
        a.shutdown();
    }
    if !pass {
        eprintln!("odt_router: drain was forced or connections leaked");
        std::process::exit(1);
    }
}
