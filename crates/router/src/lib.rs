//! `ldp-router` — multi-collector federation for the LDP stream stack.
//!
//! One `ldp-server` process scales across cores; this crate scales
//! across *processes* (and therefore hosts): a [`Router`] speaks the
//! same LDPW wire protocol on its front socket that the servers speak,
//! shards every ingested report row across N downstream collector
//! processes by user-id hash, and answers every query verb by fanning
//! out and merging the downstreams' raw contributions — so a
//! [`ldp_server::RemoteCollector`] pointed at a router sees, bit-for-bit
//! in the counts and to float-summation-order in the means, the same
//! answers it would get from one big collector.
//!
//! ```text
//! fleet ──▶ Router ──┬──▶ ldp-server (users with h(u) % N == 0)
//!  (LDPW)    │       ├──▶ ldp-server (… == 1)
//!            │       └──▶ ldp-server (… == N-1)
//!            └─ merge: MergedParts / summed ledgers
//! ```
//!
//! * [`serve`] — the [`Router`]: the federation backend behind
//!   `ldp-server`'s connection driver — per-connection downstream
//!   sockets driven by the connection's own thread, counting-sort ingest
//!   partition gathered once, send-to-all-then-read-from-each fan-out +
//!   merge query answering, degraded mode, telemetry (a downstream's
//!   liveness is the `downstream.NN.answered` gauge of a `Metrics` query).
//!
//! A router has no frame loop of its own: it *is* the server's
//! [`ldp_server::Transport`] with a remote [`ldp_server::Backend`].
//!
//! ```text
//!            ┌─ ldp_server::Transport ─┐   ┌─ Backend ────────────────────┐
//! client ───▶│ accept · read · verify  │──▶│ Server: Collector (+ WAL)    │
//!            │ validate · reply · books│   │ Router: links → N × that ────┼──▶ …
//!            └─────────────────────────┘   └──────────────────────────────┘
//! ```
//!
//! That is the "routers stack" property, made structural: a router
//! answers `QueryParts` itself (with the merged part), and everything else
//! a peer can observe at its front socket is the same code a server runs,
//! so a router's downstream may be another router.
//!
//! # Quickstart
//!
//! ```
//! use ldp_collector::{Collector, CollectorConfig};
//! use ldp_router::{Router, RouterConfig};
//! use ldp_server::{RemoteCollector, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! // Two in-process downstreams (production runs `ldp-server` binaries).
//! let servers: Vec<Server> = (0..2)
//!     .map(|_| {
//!         let collector = Arc::new(Collector::new(CollectorConfig::default()));
//!         Server::bind(collector, ServerConfig::default()).unwrap()
//!     })
//!     .collect();
//! let downstreams = servers.iter().map(|s| s.local_addr()).collect();
//! let router = Router::bind(downstreams, RouterConfig::default()).unwrap();
//!
//! // The router speaks the same protocol the servers do.
//! let mut client = RemoteCollector::connect(router.local_addr()).unwrap();
//! let mut batch = ldp_collector::ReportBatch::new();
//! for user in 0..100u64 {
//!     batch.push(user, user % 8, 0.5);
//! }
//! client.ingest(&batch).unwrap();
//! let ack = client.sync().unwrap();
//! assert_eq!(ack.accepted, 100);
//! assert_eq!(client.summary().unwrap().total_reports, 100);
//! ```

#![forbid(unsafe_code)]

pub mod serve;

pub use serve::{downstream_of, Router, RouterConfig, DOWNSTREAM_SEED};
