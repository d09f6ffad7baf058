//! `ldp-server` — a standalone collector process behind a TCP socket.
//!
//! One downstream of a federated deployment (see `ldp-router`), or a
//! single-node service on its own. Prints `LISTENING <addr>` on stdout
//! once the socket is bound (how a parent process or test harness learns
//! the ephemeral port), then serves until stdin reaches EOF — closing the
//! parent's pipe is the shutdown signal, so an orphaned server never
//! outlives its supervisor.
//!
//! ```text
//! ldp-server [--bind ADDR] [--shards N] [--max-slots N]
//!            [--retention R] [--workers N] [--max-connections N]
//!            [--data-dir DIR] [--wal-segment-bytes N]
//! ```
//!
//! `--retention 0` (the default) keeps every slot; `R > 0` bounds each
//! shard to its most recent `R` slots.
//!
//! `--data-dir DIR` makes the server **durable**: every accepted ingest
//! frame is appended to a write-ahead log under `DIR` before folding, and
//! on start the previous state is recovered — checkpoint restore plus
//! record replay — before the socket binds. A recovering server prints a
//! second stdout line before `LISTENING`:
//!
//! ```text
//! RECOVERED records=<n> rows=<n> clean=<true|false>
//! ```
//!
//! The flush cadence comes from `LDP_WAL_FLUSH` (`barrier` — the default,
//! fsync at each IngestSync — or `batched:<nanos>` for periodic group
//! commit on top of barrier fsyncs); a value that is neither is refused
//! like a bad flag — usage line, exit 2 — with or without `--data-dir`, as
//! is `--wal-segment-bytes` without `--data-dir` or with `0`. A valid
//! `LDP_WAL_FLUSH` on a server with no data dir is ignored. Clean shutdown
//! (stdin EOF) seals the log so the next boot replays zero records; a
//! crash replays the `fsync`ed tail.

use ldp_collector::{Collector, CollectorConfig, SlotRetention};
use ldp_server::durable::{self, FlushPolicy, WalConfig};
use ldp_server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ldp-server [--bind ADDR] [--shards N] [--max-slots N] \
         [--retention R] [--workers N] [--max-connections N] \
         [--data-dir DIR] [--wal-segment-bytes N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut bind = String::from("127.0.0.1:0");
    let mut collector_config = CollectorConfig::default();
    let mut server_config = ServerConfig::default();
    let mut data_dir: Option<PathBuf> = None;
    let mut wal_segment_bytes: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage();
        };
        let parsed = match flag.as_str() {
            "--bind" => {
                bind = value;
                continue;
            }
            "--data-dir" => {
                data_dir = Some(PathBuf::from(value));
                continue;
            }
            "--shards" => value.parse().map(|v| collector_config.shards = v),
            "--max-slots" => value.parse().map(|v| collector_config.max_slots = v),
            "--retention" => value.parse().map(|r: u64| {
                collector_config.retention = if r == 0 {
                    SlotRetention::Unbounded
                } else {
                    SlotRetention::Last(r)
                };
            }),
            "--workers" => value.parse().map(|v| collector_config.ingest_workers = v),
            "--max-connections" => value.parse().map(|v| server_config.max_connections = v),
            "--wal-segment-bytes" => value.parse().map(|v| wal_segment_bytes = Some(v)),
            _ => return usage(),
        };
        if parsed.is_err() {
            return usage();
        }
    }
    // The collector asserts both bounds; refuse them like a bad flag.
    if collector_config.shards == 0 || u32::try_from(collector_config.shards).is_err() {
        eprintln!("ldp-server: --shards must be between 1 and {}", u32::MAX);
        return usage();
    }
    if server_config.max_connections == 0 {
        eprintln!("ldp-server: --max-connections must be at least 1");
        return usage();
    }
    // A zero-byte segment would roll the log on every append.
    if wal_segment_bytes == Some(0) {
        eprintln!("ldp-server: --wal-segment-bytes must be at least 1");
        return usage();
    }
    // WAL settings are checked whether or not the server is durable, so a
    // typo never boots a server that silently drops them.
    if wal_segment_bytes.is_some() && data_dir.is_none() {
        eprintln!("ldp-server: --wal-segment-bytes needs --data-dir");
        return usage();
    }
    let flush = match std::env::var("LDP_WAL_FLUSH") {
        Err(std::env::VarError::NotPresent) => Some(FlushPolicy::Barrier),
        Ok(raw) => FlushPolicy::parse(&raw),
        Err(std::env::VarError::NotUnicode(_)) => None,
    };
    let Some(flush) = flush else {
        eprintln!("ldp-server: LDP_WAL_FLUSH must be `barrier` or `batched:<nanos>`");
        return usage();
    };

    let server = if let Some(dir) = data_dir {
        let mut wal_config = WalConfig::new(&dir).flush(flush);
        if let Some(bytes) = wal_segment_bytes {
            wal_config = wal_config.segment_bytes(bytes);
        }
        let (collector, durability, report) = match durable::recover(collector_config, wal_config) {
            Ok(recovered) => recovered,
            Err(e) => {
                eprintln!("ldp-server: recover {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        };
        // The parent (or operator) reads this line to learn how much the
        // log replayed; printed before LISTENING so a harness waiting for
        // the address also sees the recovery story.
        println!(
            "RECOVERED records={} rows={} clean={}",
            report.replayed_records, report.replayed_rows, report.clean
        );
        Server::bind_addr_durable(collector, durability, bind.as_str(), server_config)
    } else {
        let collector = Arc::new(Collector::new(collector_config));
        Server::bind_addr(collector, bind.as_str(), server_config)
    };
    let server = match server {
        Ok(server) => server,
        Err(e) => {
            eprintln!("ldp-server: bind {bind}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The parent parses this line to learn the ephemeral port; flush so
    // it never sits in a pipe buffer.
    println!("LISTENING {}", server.local_addr());
    let _ = std::io::stdout().flush();

    // Serve until the parent closes our stdin (or we're killed). Reading
    // in a loop tolerates stray input; EOF is the shutdown signal.
    let mut sink = [0u8; 256];
    let mut stdin = std::io::stdin().lock();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
    drop(server); // graceful shutdown: joins threads, then seals the WAL
    ExitCode::SUCCESS
}
