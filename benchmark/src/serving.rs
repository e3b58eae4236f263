//! The serving stack under test, booted in-process exactly as `odt_server`
//! wires it (`start_with` + `FrontendBridge` + `dot_frontend_cached`), and
//! the benchmark's own loopback client.

use crate::inputs;
use odt_core::Dot;
use odt_net::server::{start_with, FrontendBridge, ServerConfig, ServerHandle};
use odt_net::wire::{
    read_frame, write_frame, FrameRead, WireQuery, WireRequest, WireResponse,
    DEFAULT_MAX_FRAME_BYTES,
};
use odt_roadnet::LngLat;
use odt_serve::{
    dot_frontend_cached, CacheConfig, ChaosConfig, DotFrontendConfig, EstimateCache,
    FrontendConfig, HotTracker, OdKey,
};
use odt_traj::{Dataset, GridSpec, OdtInput};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Entries in the estimate cache: four times the hot set, small enough that
/// `query_cold` starts evicting within a run.
pub const CACHE_CAPACITY: usize = 256;
/// Every request's deadline. A minute pins the ladder on its top usable rung
/// by construction, instead of by live latency feedback.
pub const DEADLINE_MS: u64 = 60_000;

/// Train the `bench` model on this thread.
pub fn train(data: &Dataset, seed: u64) -> Dot {
    Dot::train(inputs::bench_config(seed), data, |_| {})
}

/// A booted server and what set-up learned on the way.
pub struct Serving<T> {
    pub handle: ServerHandle,
    pub addr: SocketAddr,
    pub grid: GridSpec,
    pub cache: Arc<EstimateCache>,
    /// What `make_model` returned beside the model.
    pub probe: T,
}

/// Simulate the dataset, boot the server and build the model behind it.
/// `Dot` is `!Send`, so `make_model` (training, and in a traced run the
/// probes that need the served model) runs inside the `start_with` factory
/// on the dispatcher thread; whatever else it returns is sent back. Returns
/// once the backend is ready to answer.
pub fn boot<T: Send + 'static>(
    make_model: impl FnOnce(&Dataset) -> (Dot, T) + Send + 'static,
) -> Serving<T> {
    let data = inputs::dataset();
    let grid = data.grid;
    let cache = Arc::new(EstimateCache::new(CacheConfig {
        capacity: CACHE_CAPACITY,
        ..CacheConfig::default()
    }));
    let (ready_tx, ready_rx) = mpsc::channel();
    let cache_fe = Arc::clone(&cache);
    let handle = start_with(ServerConfig::default(), move || {
        let (model, probe) = make_model(&data);
        // The backend must be 'static; the model lives as long as the process.
        let model: &'static Dot = Box::leak(Box::new(model));
        let fe = dot_frontend_cached(
            model,
            DotFrontendConfig::default(),
            FrontendConfig::default(),
            ChaosConfig::quiet(0),
            cache_fe,
            Arc::new(Mutex::new(HotTracker::new(128))),
        );
        ready_tx
            .send(probe)
            .expect("the booting thread waits for this");
        FrontendBridge::new(fe, from_wire)
    })
    .expect("binding a loopback port");
    let probe = ready_rx
        .recv()
        .expect("the dispatcher thread panicked during set-up");
    Serving {
        addr: handle.addr(),
        handle,
        grid,
        cache,
        probe,
    }
}

impl<T> Serving<T> {
    /// The cache key the server derives for `q` (mirrors
    /// `DotExecutor::cache_key`, which is out of reach behind the frontend).
    pub fn cache_key(&self, q: &OdtInput) -> OdKey {
        let (orow, ocol) = self.grid.cell_of(q.origin);
        let (drow, dcol) = self.grid.cell_of(q.dest);
        self.cache.key_for(
            self.grid.flat_index(orow, ocol) as u32,
            self.grid.flat_index(drow, dcol) as u32,
            q.second_of_day(),
        )
    }

    /// Pre-warm the cache with `queries` through the prewarmer's insertion
    /// path (`insert_forced`). The values are the model-free prior's: 64
    /// full inferences would add 8 s to every set-up, and a cache read costs
    /// the same whatever number it returns. Returns the value stored per
    /// query, which replies are checked against bit for bit.
    pub fn prewarm(&self, queries: &[OdtInput]) -> Vec<f64> {
        queries
            .iter()
            .map(|q| {
                let seconds = odt_core::fallback_estimate_seconds(q);
                self.cache.insert_forced(self.cache_key(q), seconds, 0);
                seconds
            })
            .collect()
    }

    /// Drain the server; `true` when it drained clean with no connection
    /// left open.
    pub fn shutdown(self) -> bool {
        let report = self.handle.drain();
        report.clean && report.stats.active == 0
    }
}

fn from_wire(q: &WireQuery) -> OdtInput {
    OdtInput {
        origin: LngLat {
            lng: q.o_lng,
            lat: q.o_lat,
        },
        dest: LngLat {
            lng: q.d_lng,
            lat: q.d_lat,
        },
        t_dep: q.t_dep,
    }
}

pub fn to_wire(q: &OdtInput) -> WireQuery {
    WireQuery {
        o_lng: q.origin.lng,
        o_lat: q.origin.lat,
        d_lng: q.dest.lng,
        d_lat: q.dest.lat,
        t_dep: q.t_dep,
    }
}

/// One `odt-wire/v1` connection: `TCP_NODELAY` on, one `write` per frame.
pub struct Client {
    stream: TcpStream,
    frame: Vec<u8>,
    next_id: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A reply that takes longer than this is a failed operation, not a hang.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            frame: Vec::with_capacity(256),
            next_id: 1,
        })
    }

    /// The request this client would send next for `q`.
    pub fn request(&mut self, q: &OdtInput) -> WireRequest {
        let id = self.next_id;
        self.next_id += 1;
        WireRequest {
            id,
            query: to_wire(q),
            deadline_ms: Some(DEADLINE_MS),
            trace: None,
            parent_span: None,
        }
    }

    /// Send an encoded request and wait for the reply payload.
    pub fn round_trip(&mut self, payload: &str) -> Result<String, String> {
        self.frame.clear();
        write_frame(&mut self.frame, payload).map_err(|e| e.to_string())?;
        self.stream
            .write_all(&self.frame)
            .map_err(|e| e.to_string())?;
        match read_frame(&mut self.stream, DEFAULT_MAX_FRAME_BYTES) {
            Ok(FrameRead::Payload(p)) => Ok(p),
            Ok(FrameRead::Closed) => Err("connection closed".to_string()),
            Err(e) => Err(format!("{e:?}")),
        }
    }

    /// Encode, send, receive and decode one query.
    pub fn call(&mut self, q: &OdtInput) -> Result<Reply, String> {
        let req = self.request(q);
        let payload = self.round_trip(&req.to_json())?;
        Reply::decode(req.id, &payload)
    }
}

/// The fields of a successful reply the benchmark reads.
#[derive(Clone, Debug)]
pub struct Reply {
    pub seconds: f64,
    pub rung: String,
    pub queue_wait_us: u64,
    pub service_us: u64,
}

impl Reply {
    /// Decode a reply payload; a typed error reply, a reply to another
    /// request or a non-finite or non-positive time is a failure.
    pub fn decode(id: u64, payload: &str) -> Result<Reply, String> {
        match WireResponse::from_json(payload)? {
            WireResponse::Ok {
                id: got,
                seconds,
                rung,
                queue_wait_us,
                service_us,
                ..
            } => {
                if got != id {
                    return Err(format!("reply to request {got}, expected {id}"));
                }
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(format!("travel time {seconds} is not a positive number"));
                }
                Ok(Reply {
                    seconds,
                    rung,
                    queue_wait_us,
                    service_us,
                })
            }
            WireResponse::Err { code, detail, .. } => {
                Err(format!("refused: {} ({detail})", code.name()))
            }
        }
    }
}

/// Run `f` on `threads` client connections at once; each thread gets its
/// index and its own connection, and their results come back in order.
pub fn on_connections<R: Send>(
    addr: SocketAddr,
    threads: usize,
    f: impl Fn(usize, &mut Client) -> R + Sync,
) -> Vec<R> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let f = &f;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connecting over loopback");
                    f(i, &mut client)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}
