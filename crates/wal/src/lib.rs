//! Segmented, checksummed write-ahead ingest log.
//!
//! `ldp-wal` gives the collector tier crash durability: the server appends
//! every accepted ingest frame to the active segment — the wire's own
//! frame, in the one envelope [`record`] defines — *before* folding it,
//! and only answers an `IngestSync` barrier after the covered bytes are
//! `fsync`ed. Recovery replays surviving records through the normal
//! ingest path, so the restarted collector's ledger, snapshots, and
//! telemetry books match the pre-crash process exactly.
//!
//! Design constraints, in the same discipline as `crates/shims`:
//!
//! - std only, no registry dependencies, `#![forbid(unsafe_code)]`;
//! - no internal locking: [`Wal`] takes `&mut self` everywhere and the
//!   embedding layer chooses the synchronization primitive. This matters
//!   because the server wraps the log in the `ldp_collector::sync` facade so
//!   `ldp-check` can explore a kill at every disk operation as a scheduling
//!   decision — a std mutex hidden inside this crate and held across an
//!   instrumented decision would deadlock the cooperative scheduler;
//! - one way to the filesystem: every read and write goes through the
//!   [`Disk`] in [`WalConfig`] (the operating system's, unless
//!   [`WalConfig::disk`] swaps it). Tests put the log on a model disk that
//!   keeps its own books of what an `fsync` or a directory sync made
//!   durable, and cut power or kill the process at any disk operation.
//!
//! On-disk layout (`WalConfig::dir`):
//!
//! - `FORMAT` — the directory's format stamp, one line naming the byte
//!   format of everything else in it (`ldp-wal log format 5, wire v7`;
//!   the version comes from [`record::WIRE_VERSION`], so a wire bump is a
//!   new stamp). An open writes it (temp file, `fsync`, rename, directory
//!   `fsync`) into a directory with no segments or checkpoints yet, and
//!   refuses with [`WalError::Format`] one whose segments or checkpoints
//!   carry no stamp or another one (an older format, or this one at
//!   another wire version) before it reads, truncates, prunes or removes
//!   anything;
//! - `seg-<first-seq, zero padded>` — append-only segments, each nothing
//!   but wire frames ([`record`]) back to back: an ingest frame per record
//!   and an empty seal frame at a clean shutdown. A record's sequence
//!   number is `first-seq` plus its index in the file;
//! - `ck-<covered-seq, zero padded>` — checkpoints, wire frames too: an
//!   opaque collector state covering every record with `seq <=
//!   covered-seq`, in checkpoint frames, then one empty seal frame. Only
//!   the newest is read, and one that is not whole fails the open;
//! - `*.tmp` — in-flight checkpoint writes, ignored (and removed) on open.
//!
//! Reading a log back is one streaming pass, and the only way a log is
//! read: [`Wal::recovery`] lists the directory and lends the newest
//! checkpoint's state, then [`Recovery::replay`] streams the segments
//! through one [`record::FrameReader`] (the reader every socket uses too)
//! and hands each surviving record to a visitor as soon as its checksum
//! verifies, retaining nothing — memory is the reader's buffer, however
//! long the log. [`Wal::open`] is that pass with a visitor that ignores the
//! records. The visitor runs on whichever thread called `replay`; this crate
//! starts none.
//!
//! See [`record`] for the frame format and [`Wal`] for the recovery
//! (visitor) contract.

#![forbid(unsafe_code)]

mod disk;
mod log;
pub mod record;

pub use disk::{Disk, DiskFile};
pub use log::{Recovered, Recovery, Wal, WalConfig};

use std::fmt;
use std::time::Duration;

/// Errors surfaced by WAL operations.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The newest checkpoint is not whole wire frames ending in its one
    /// seal. Refused with the directory unchanged.
    Corrupt(&'static str),
    /// The directory holds a log in a byte format this build does not
    /// read: segments or checkpoints with no format stamp (written before
    /// stamps existed, with the one-lane checksum) or a stamp naming
    /// another format or wire version. Refused before anything in the
    /// directory was read, changed or removed.
    Format {
        /// The stamp found; `None` when there was none.
        found: Option<String>,
    },
    /// An earlier [`Wal::append`], [`Wal::barrier`], [`Wal::checkpoint`]
    /// or [`Wal::seal`] failed, so what it left on disk is unknown: the
    /// log refuses every further one, and only a reopen, which scans what
    /// is really there, brings it back.
    Dead,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(err) => write!(f, "wal i/o error: {err}"),
            WalError::Corrupt(what) => write!(f, "wal corrupt: {what}"),
            WalError::Format { found } => {
                match found {
                    None => f.write_str("wal log format: segments or checkpoints with no stamp")?,
                    Some(stamp) => write!(f, "wal log format: stamped {stamp:?}")?,
                }
                write!(
                    f,
                    "; this build reads only {:?} and left the directory untouched",
                    log::format_name()
                )
            }
            WalError::Dead => f.write_str("wal is dead: an earlier disk operation failed"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(err: std::io::Error) -> Self {
        WalError::Io(err)
    }
}

/// Result alias for WAL operations.
pub type WalResult<T> = Result<T, WalError>;

/// When appended bytes are pushed to the kernel and `fsync`ed.
///
/// Both policies uphold the ack-implies-durable invariant: [`Wal::barrier`]
/// always flushes and syncs, regardless of policy, and the server only sends
/// `IngestAck` after a successful barrier. The policy governs what happens to
/// *unacked* bytes between barriers:
///
/// - [`FlushPolicy::Barrier`] (default): appends buffer in memory; the only
///   syncs are the ones barriers force. A crash loses at most the frames
///   since the last barrier — exactly the frames no client was promised.
/// - [`FlushPolicy::Batched`]: additionally group-commits during append
///   streams — at most one sync per `interval`, amortized over every frame
///   buffered since the previous sync. Bounds the *age* of unacked data at
///   risk for fire-and-forget workloads that rarely barrier. The sync is
///   not free for appenders: it runs inside the [`Wal::append`] that finds
///   the interval elapsed, so that append — and, in a server, the
///   connection thread calling it, while it holds the log's mutex — waits
///   for the `fsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Flush + `fsync` only at explicit sync barriers.
    Barrier,
    /// Barrier behavior plus a periodic group commit: an append whose
    /// elapsed time since the last sync exceeds the interval runs a
    /// flush + `fsync` of everything buffered so far before it returns.
    Batched(Duration),
}

impl FlushPolicy {
    /// Parse a policy string: `barrier` (the default) or
    /// `batched:<nanos>`. `None` for anything else — the caller decides
    /// how to refuse it; nothing here falls back silently.
    pub fn parse(raw: &str) -> Option<Self> {
        let raw = raw.trim();
        if raw.eq_ignore_ascii_case("barrier") {
            return Some(FlushPolicy::Barrier);
        }
        let (head, nanos) = raw.split_once(':')?;
        if !head.eq_ignore_ascii_case("batched") {
            return None;
        }
        nanos
            .trim()
            .parse::<u64>()
            .ok()
            .map(|n| FlushPolicy::Batched(Duration::from_nanos(n)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_policy_parses() {
        assert_eq!(FlushPolicy::parse("barrier"), Some(FlushPolicy::Barrier));
        assert_eq!(FlushPolicy::parse("Barrier"), Some(FlushPolicy::Barrier));
        assert_eq!(
            FlushPolicy::parse("batched:2000000"),
            Some(FlushPolicy::Batched(Duration::from_nanos(2_000_000)))
        );
        assert_eq!(FlushPolicy::parse("1500"), None, "only one spelling");
        assert_eq!(FlushPolicy::parse("bogus:1"), None);
        assert_eq!(FlushPolicy::parse("batched:x"), None);
    }
}
