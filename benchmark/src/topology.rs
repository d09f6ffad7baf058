//! The system under test, assembled in-process behind real loopback
//! sockets: plain or durable `Server`s, optionally fronted by a `Router`.
//! The load generator only ever talks to [`Topology::front_addr`].

use ldp_collector::{Collector, CollectorConfig, SlotRetention};
use ldp_router::{Router, RouterConfig};
use ldp_server::{recover, FlushPolicy, Server, ServerConfig, WalConfig};
use ldp_telemetry::TelemetrySnapshot;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which servers stand behind the front socket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyKind {
    /// One `Server::bind` — no WAL, no router.
    Plain,
    /// One `Server::bind_durable` with the given flush policy.
    Durable(FlushPolicy),
    /// `Router` → `downstreams` × `Server::bind_durable`.
    Routed {
        downstreams: usize,
        flush: FlushPolicy,
    },
}

/// The collector configuration every workload's servers run with: the
/// production defaults (shards, fold pool) plus the ring's retention.
pub fn collector_config(retention: SlotRetention) -> CollectorConfig {
    CollectorConfig {
        retention,
        ..CollectorConfig::default()
    }
}

/// A scratch directory under `benchmark/out/`, removed on drop. Every
/// byte the benchmark writes lands under here or in `benchmark/out/`
/// itself.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

/// `benchmark/out/`, next to this crate's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

impl ScratchDir {
    /// Creates `benchmark/out/tmp-<pid>-<n>-<label>/`.
    pub fn create(label: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("tmp-{}-{n}-{label}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Where the WAL directories live, for the environment block: the
/// benchmark may only write inside its checkout, so the logs are on
/// whatever filesystem holds it — never `/dev/shm`.
pub const STORAGE: &str = "checkout-disk";

/// A running topology. Dropping it shuts every service down (routers
/// first) and removes the WAL directories.
pub struct Topology {
    // Field order is drop order: the router must stop dialing before the
    // servers go, and the servers must seal their logs before the
    // directories are removed.
    router: Option<Router>,
    servers: Vec<Server>,
    _wal_dirs: Vec<ScratchDir>,
}

impl Topology {
    /// Binds every service on an ephemeral loopback port.
    pub fn build(kind: TopologyKind, config: CollectorConfig) -> std::io::Result<Self> {
        let mut wal_dirs = Vec::new();
        let mut durable_server = |flush: FlushPolicy| -> std::io::Result<Server> {
            let dir = ScratchDir::create("wal")?;
            let (collector, durability, _report) =
                recover(config, WalConfig::new(dir.path()).flush(flush))?;
            wal_dirs.push(dir);
            Server::bind_durable(collector, durability, ServerConfig::default())
        };
        let (router, servers) = match kind {
            TopologyKind::Plain => {
                let collector = Arc::new(Collector::new(config));
                (
                    None,
                    vec![Server::bind(collector, ServerConfig::default())?],
                )
            }
            TopologyKind::Durable(flush) => (None, vec![durable_server(flush)?]),
            TopologyKind::Routed { downstreams, flush } => {
                let servers = (0..downstreams)
                    .map(|_| durable_server(flush))
                    .collect::<std::io::Result<Vec<_>>>()?;
                let addrs = servers.iter().map(Server::local_addr).collect();
                (Some(Router::bind(addrs, RouterConfig::default())?), servers)
            }
        };
        Ok(Self {
            router,
            servers,
            _wal_dirs: wal_dirs,
        })
    }

    /// The one address the load generator connects to.
    pub fn front_addr(&self) -> SocketAddr {
        match &self.router {
            Some(router) => router.local_addr(),
            None => self.servers[0].local_addr(),
        }
    }

    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    pub fn router_metrics(&self) -> Option<TelemetrySnapshot> {
        self.router.as_ref().map(Router::metrics)
    }

    /// Sum of a counter over every server's registry (0 where absent).
    pub fn server_counter(&self, name: &str) -> u64 {
        self.servers
            .iter()
            .map(|s| s.metrics().counter(name).unwrap_or(0))
            .sum()
    }

    /// (sum of recorded values, sample count) of a histogram over every
    /// server's registry.
    pub fn server_histogram(&self, name: &str) -> (u64, u64) {
        self.servers
            .iter()
            .filter_map(|s| s.metrics().histogram(name).map(|h| (h.sum(), h.count())))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }
}
