//! `ldp-server` — the network edge of the LDP stream-publication stack.
//!
//! The paper's deployment story is millions of LDP clients streaming
//! perturbed reports to a central aggregator. `ldp-collector` is that
//! aggregator as a library; this crate puts it behind a socket:
//!
//! ```text
//! ClientFleet ─▶ RemoteCollector ─╥─ framed TCP ─╥─▶ Transport ─▶ Backend
//!   (sessions)     (client.rs)    ║   (wire.rs)  ║ (transport.rs)   │
//!                                 ║              ║                  ├─ Server: Collector
//!            queries ◀────────────╨──────────────╨── MergedParts ◀──┤   + QueryEngine (serve.rs)
//!                                                                   └─ Router: N × downstream
//!                                                                       (ldp-router)
//! ```
//!
//! * [`wire`] — the versioned, length-prefixed, checksummed binary frame
//!   codec: columnar report uploads, the query request/response family
//!   (population mean, windowed/per-slot means, snapshot summary, the
//!   telemetry snapshot that carries every counter), and explicit error
//!   frames.
//! * [`transport`] — the **one** connection driver, [`Transport`]: accept
//!   loop, connection limit, the framed read, framing-error
//!   and bad-query replies, the read verbs, the reply write and the front
//!   books, generic over a small [`Backend`] trait with
//!   exactly two implementations — [`Server`]'s local collector here and
//!   the federation in `ldp-router`.
//! * [`serve`] — [`Server`]: the driver over a shared
//!   [`ldp_collector::Collector`] + [`ldp_collector::QueryEngine`], with
//!   per-connection ingest ledgers, optional write-ahead logging, and
//!   graceful shutdown.
//! * [`client`] — [`RemoteCollector`]: the fleet's in-process ingest
//!   surface over one connection (also each router downstream link); and
//!   [`drive_fleet_remote`], the fleet's remote mode.
//! * [`durable`] — crash durability: a write-ahead ingest log
//!   ([`ldp_wal`]) appended before every fold, fsynced before every ack,
//!   and replayed at boot ([`durable::recover`]) to the exact pre-crash
//!   state — snapshots, ledger tallies, and telemetry books included.
//!
//! Everything is `std`-only: no async runtime, no serialization
//! framework — one thread per connection and hand-rolled little-endian
//! frames, which is both the fastest option at this report size and the
//! only option in an offline build environment.
//!
//! # Quickstart
//!
//! ```
//! use ldp_collector::{ClientFleet, Collector, CollectorConfig, FleetConfig};
//! use ldp_core::{PipelineSpec, SessionKind};
//! use ldp_server::{drive_fleet_remote, RemoteCollector, Server, ServerConfig};
//! use ldp_streams::synthetic::taxi_population;
//! use std::sync::Arc;
//!
//! let collector = Arc::new(Collector::new(CollectorConfig::default()));
//! let server = Server::bind(Arc::clone(&collector), ServerConfig::default()).unwrap();
//!
//! let population = taxi_population(20, 16, 7);
//! let fleet = ClientFleet::new(FleetConfig {
//!     spec: PipelineSpec::sw(SessionKind::Capp),
//!     epsilon: 2.0,
//!     w: 8,
//!     seed: 99,
//!     threads: 2,
//! });
//! let accepted = drive_fleet_remote(&fleet, &population, 0..16, server.local_addr()).unwrap();
//! assert_eq!(accepted, 20 * 16);
//!
//! let mut client = RemoteCollector::connect(server.local_addr()).unwrap();
//! let crowd = client.population_mean().unwrap().unwrap();
//! assert!(crowd.is_finite());
//! assert_eq!(client.summary().unwrap().total_reports, 20 * 16);
//! ```

#![forbid(unsafe_code)]

pub mod client;
pub mod durable;
pub mod serve;
pub mod transport;
pub mod wire;

pub use client::{drive_fleet_remote, IngestLoss, RemoteCollector};
pub use durable::{recover, Durability, FlushPolicy, RecoveryReport, WalConfig};
pub use serve::{Server, ServerConfig};
pub use transport::{read_reply, Backend, Transport};
pub use wire::{
    checksum, frame_type_name, Frame, FrameReader, FrameView, Header, IngestScratch, IngestView,
    SummaryBody, WireError, METRICS_SNAPSHOT_VERSION, WIRE_VERSION,
};
