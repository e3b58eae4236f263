//! `odt-net`: the networked serving layer for the OD travel-time oracle.
//!
//! Everything here is `std`-only TCP: a length-prefixed JSON protocol
//! ([`wire`], `odt-wire/v1`), a hardened multi-threaded server
//! ([`server`]) that feeds the deadline-aware [`odt_serve`] frontend
//! through bounded queues with typed overload errors and graceful
//! drain, a coordinated-omission-free load generator ([`loadgen`]), a
//! tiny Unix signal shim ([`signal`]) so server binaries
//! can drain on SIGTERM/ctrl-c, and a live introspection plane
//! ([`admin`]): an off-band HTTP endpoint serving Prometheus
//! `/metrics`, `/healthz`/`/readyz` probes, `/varz`/`/tracez` JSON and
//! operator-triggered flight-recorder dumps. Each of the two protocols
//! has one client, next to its server side: [`wire::Client`] and
//! [`admin::http_request`].
//!
//! On top of the single-process stack sits the sharded cluster: grid-
//! region placement by rendezvous hashing ([`shard`]), a router with
//! per-replica health probing, circuit-breaker failover, and the
//! shard's own fallback prior when a shard is dark ([`cluster`]). The
//! network- and cluster-fault drills that abuse all of this over real
//! loopback sockets are rows of `odt_eval::drill::DRILLS`.
//!
//! The cluster observes itself through one pane: requests carry
//! trace/parent-span context across every hop (router spans and shard
//! spans stitch into one tree by trace id), and the router federates
//! every replica's `/metrics` and `/varz` into `GET /metrics/cluster` /
//! `GET /varz/cluster` with exact bucket-wise histogram merges
//! ([`fed`]).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod cluster;
pub mod fed;
pub mod loadgen;
pub mod server;
pub mod shard;
pub mod signal;
pub mod wire;

pub use admin::{
    http_request, render_varz, start_admin, AdminConfig, AdminHandle, AdminSources, SwapFn, VarzFn,
};
pub use cluster::{
    render_router_varz, start_health_prober, ClusterConfig, ClusterShared, ClusterSnapshot,
    PollerHandle, ReplicaAddr, ReplicaHealth, ReplicaSnapshot, RouterBackend, PRIOR_RUNG,
};
pub use fed::{http_get, start_scraper, ClusterScraper, ScrapeTarget};
pub use loadgen::{
    coarse_od_key, KeySkew, LatencySummary, LoadConfig, LoadMode, LoadReport, OdMixer, Region,
};
pub use server::{
    instance_name, set_instance_name, start, start_with, ConnStatsSnapshot, DrainReport,
    EchoBackend, FrontendBridge, NetBackend, NetRequest, ServerConfig, ServerHandle,
    ServerStatsHandle, SharedFrontendStats,
};
pub use shard::ShardMap;
pub use wire::{
    read_frame, tune_stream, write_frame, Client, FrameError, FrameRead, WireErrorCode, WireQuery,
    WireRequest, WireResponse, WIRE_SCHEMA,
};
