//! Collector state checkpoint codec.
//!
//! Serializes the *entire* aggregation state — every shard's retained
//! slots, frozen prefix, per-user running sums, incremental `mean_sum`
//! scalar, and the telemetry book counters that constitute the service's
//! ledger — into one opaque byte blob, and restores a collector from it
//! bit-exactly. The WAL (`ldp-wal`) stores this blob in its checkpoint
//! files so recovery is `restore(checkpoint)` + replay of the records the
//! checkpoint does not cover.
//!
//! Integrity is the *container's* job: the WAL checkpoint file wraps the
//! blob in a checksum, so this codec validates structure (lengths, shard
//! count, entry invariants) but carries no CRC of its own.
//!
//! Exactness argument: a shard's state is exactly `(base, slots, frozen,
//! {user → (count, sum)}, mean_sum, reports)`. Nothing per user is derived
//! and stored — a fold recomputes the user's previous mean as
//! `sum / count` — and `mean_sum` is stored as raw f64 bits. Replaying
//! post-checkpoint frames through the normal ingest path therefore evolves
//! the restored state exactly as the pre-crash collector evolved. Users
//! are listed in their table's scan order, and restore rebuilds each table
//! at the capacity growth gave it, so a restored collector encodes to the
//! same bytes as the one it was restored from.

use crate::accumulator::{ShardAccumulator, SlotStats};
use crate::engine::{Collector, CollectorConfig};
use std::collections::VecDeque;
use std::fmt;

/// First bytes of an encoded checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"LDPC";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u8 = 1;

/// Why a checkpoint blob was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob ended before the declared structure did.
    Truncated,
    /// The magic bytes did not match.
    BadMagic,
    /// A checkpoint from a newer (or corrupted) format version.
    UnknownVersion(u8),
    /// The checkpoint was taken with a different shard count than the
    /// restoring configuration — user→shard routing would not line up.
    ShardMismatch {
        /// Shards in the restoring configuration.
        expected: usize,
        /// Shards recorded in the checkpoint.
        found: usize,
    },
    /// A structural invariant failed (e.g. a user row with zero count).
    Invalid(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "bad checkpoint magic"),
            CheckpointError::UnknownVersion(v) => {
                write!(f, "unknown checkpoint version {v}")
            }
            CheckpointError::ShardMismatch { expected, found } => write!(
                f,
                "checkpoint has {found} shards but the collector is configured for {expected}"
            ),
            CheckpointError::Invalid(what) => write!(f, "invalid checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(CheckpointError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_slot(out: &mut Vec<u8>, s: &SlotStats) {
    put_u64(out, s.count);
    put_f64(out, s.sum);
    put_f64(out, s.sum_sq);
}

fn read_slot(r: &mut Reader<'_>) -> Result<SlotStats, CheckpointError> {
    Ok(SlotStats {
        count: r.u64()?,
        sum: r.f64()?,
        sum_sq: r.f64()?,
    })
}

impl Collector {
    /// Serialize the full aggregation state plus ledger books.
    ///
    /// Locks each shard in turn, so concurrent ingest must be excluded by
    /// the caller for the blob to be a consistent cross-shard cut — the
    /// server's durability layer holds its checkpoint gate (writer side of
    /// the append/fold gate) across this call.
    #[must_use]
    pub fn encode_checkpoint(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.push(CHECKPOINT_VERSION);
        put_u64(&mut out, self.shard_count() as u64);
        for v in self.book_counters() {
            put_u64(&mut out, v);
        }
        for shard in 0..self.shard_count() {
            put_u64(&mut out, self.shard_batches_count(shard));
            let acc = self.lock_shard(shard);
            put_u64(&mut out, acc.base());
            put_u64(&mut out, acc.reports());
            put_f64(&mut out, acc.user_mean_sum());
            put_slot(&mut out, acc.frozen());
            put_u64(&mut out, acc.slot_count() as u64);
            for (_, s) in acc.retained_slots() {
                put_slot(&mut out, s);
            }
            put_u64(&mut out, acc.user_count() as u64);
            for (user, stats) in acc.users() {
                put_u64(&mut out, user);
                put_u64(&mut out, stats.count);
                put_f64(&mut out, stats.sum);
            }
        }
        out
    }

    /// Rebuild a collector from a checkpoint blob, using `config` for
    /// everything the blob does not carry (retention policy, slot bound,
    /// fold-pool sizing — the same flags the pre-crash process ran with).
    ///
    /// # Errors
    /// Refuses blobs that are structurally invalid or were taken with a
    /// different shard count (user→shard routing would not line up).
    pub fn restore_checkpoint(
        config: CollectorConfig,
        bytes: &[u8],
    ) -> Result<Self, CheckpointError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(4)? != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u8()?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnknownVersion(version));
        }
        let found = usize::try_from(r.u64()?)
            .map_err(|_| CheckpointError::Invalid("shard count overflows usize"))?;
        if found != config.shards {
            return Err(CheckpointError::ShardMismatch {
                expected: config.shards,
                found,
            });
        }
        let mut books = [0u64; 5];
        for b in &mut books {
            *b = r.u64()?;
        }
        let collector = Collector::new(config);
        let mut shard_batches = Vec::with_capacity(found);
        for shard in 0..found {
            shard_batches.push(r.u64()?);
            let base = r.u64()?;
            let reports = r.u64()?;
            let mean_sum = r.f64()?;
            let frozen = read_slot(&mut r)?;
            let slot_count = usize::try_from(r.u64()?)
                .map_err(|_| CheckpointError::Invalid("slot count overflows usize"))?;
            if slot_count > bytes.len() {
                // Cheap sanity bound: every slot costs ≥ 24 encoded bytes,
                // so a count beyond the blob length is corrupt — refuse it
                // before attempting a huge allocation.
                return Err(CheckpointError::Truncated);
            }
            let mut slots = VecDeque::with_capacity(slot_count);
            for _ in 0..slot_count {
                slots.push_back(read_slot(&mut r)?);
            }
            let user_count = usize::try_from(r.u64()?)
                .map_err(|_| CheckpointError::Invalid("user count overflows usize"))?;
            if user_count > bytes.len() {
                return Err(CheckpointError::Truncated);
            }
            let mut users = Vec::with_capacity(user_count);
            for _ in 0..user_count {
                let user = r.u64()?;
                let count = r.u64()?;
                let sum = r.f64()?;
                if count == 0 {
                    return Err(CheckpointError::Invalid("user row with zero count"));
                }
                users.push((user, count, sum));
            }
            let acc = ShardAccumulator::restore(
                config.retention,
                base,
                slots,
                frozen,
                mean_sum,
                reports,
                &users,
            );
            collector.restore_shard(shard, acc);
        }
        if !r.done() {
            return Err(CheckpointError::Invalid("trailing bytes"));
        }
        collector.restore_books(books, &shard_batches);
        Ok(collector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ReportBatch;
    use crate::SlotRetention;

    fn config() -> CollectorConfig {
        CollectorConfig {
            shards: 4,
            retention: SlotRetention::Last(8),
            ingest_workers: 0,
            ..CollectorConfig::default()
        }
    }

    fn drive(collector: &Collector, batches: usize, seed: u64) {
        let mut state = seed;
        for _ in 0..batches {
            let mut batch = ReportBatch::new();
            for _ in 0..50 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                let user = state >> 40;
                let slot = (state >> 20) % 32;
                let value = (state % 1000) as f64 / 1000.0 - 0.5;
                assert!(batch.push(user, slot, value));
            }
            collector.ingest(&batch);
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        // From ~12 to ~2,000 users a shard, so the user tables span several
        // doublings.
        for batches in [1, 3, 8, 20, 60, 160] {
            round_trip_of(batches);
        }
    }

    fn round_trip_of(batches: usize) {
        let original = Collector::new(config());
        drive(&original, batches, 7);
        original.note_upstream_rejections(3);
        let blob = original.encode_checkpoint();
        let restored = Collector::restore_checkpoint(config(), &blob).unwrap();
        // Restore sizes each table as growth did and puts every user back
        // in its slot, so the restored collector scans — and checkpoints —
        // to the very same bytes.
        assert!(
            restored.encode_checkpoint() == blob,
            "batches = {batches}: the restored collector checkpoints differently"
        );

        assert_eq!(restored.total_reports(), original.total_reports());
        assert_eq!(restored.dropped_reports(), original.dropped_reports());
        assert_eq!(restored.rejected_reports(), original.rejected_reports());
        let (books, restored_books) = (
            original.telemetry().snapshot(),
            restored.telemetry().snapshot(),
        );
        for name in [
            "collector.reports.rejected_upstream",
            "collector.ingest.batches",
        ] {
            assert!(books.counter(name) > Some(0), "{name} exercised");
            assert_eq!(restored_books.counter(name), books.counter(name), "{name}");
        }

        let a = original.snapshot();
        let b = restored.snapshot();
        assert_eq!(a.per_user_means(), b.per_user_means());
        assert_eq!(format!("{:?}", a.slots()), format!("{:?}", b.slots()));

        // Continued ingest evolves identically: fold the same batches into
        // both and the states stay bit-equal.
        drive(&original, 5, 99);
        drive(&restored, 5, 99);
        assert_eq!(
            original.snapshot().per_user_means(),
            restored.snapshot().per_user_means()
        );
        assert_eq!(original.total_reports(), restored.total_reports());
    }

    /// Restore must be linear in the user count. A checkpoint lists each
    /// shard's users in table-scan (hash) order; inserting them into a
    /// table that grows from 16 slots piles every key onto one probe
    /// cluster — 30,000 users took 73,000,170 probe steps that way. Sized up
    /// front, each insert examines one slot (30,000 steps). Counted, not timed.
    #[test]
    fn restore_probes_a_constant_number_of_slots_per_user() {
        use crate::accumulator::PROBE_STEPS;
        let one_shard = CollectorConfig {
            shards: 1,
            ..config()
        };
        let original = Collector::new(one_shard);
        let users = 30_000u64;
        let all: Vec<u64> = (0..users).collect();
        original.ingest(&ReportBatch::from_columns(
            all.clone(),
            vec![0; all.len()],
            vec![0.5; all.len()],
        ));
        let blob = original.encode_checkpoint();

        let before = PROBE_STEPS.with(std::cell::Cell::get);
        let restored = Collector::restore_checkpoint(one_shard, &blob).unwrap();
        let steps = PROBE_STEPS.with(std::cell::Cell::get) - before;
        assert!(
            steps <= 2 * users,
            "restoring {users} users examined {steps} table slots"
        );
        assert_eq!(restored.per_user_rows(), original.per_user_rows());
    }

    #[test]
    fn refuses_structural_corruption() {
        let collector = Collector::new(config());
        drive(&collector, 3, 1);
        let blob = collector.encode_checkpoint();

        assert_eq!(
            Collector::restore_checkpoint(config(), &blob[..blob.len() - 1]).unwrap_err(),
            CheckpointError::Truncated
        );
        let mut bad_magic = blob.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(
            Collector::restore_checkpoint(config(), &bad_magic).unwrap_err(),
            CheckpointError::BadMagic
        );
        let mut bad_version = blob.clone();
        bad_version[4] = 99;
        assert_eq!(
            Collector::restore_checkpoint(config(), &bad_version).unwrap_err(),
            CheckpointError::UnknownVersion(99)
        );
        let wrong_shards = CollectorConfig {
            shards: 2,
            ..config()
        };
        assert!(matches!(
            Collector::restore_checkpoint(wrong_shards, &blob).unwrap_err(),
            CheckpointError::ShardMismatch {
                expected: 2,
                found: 4
            }
        ));
        let mut trailing = blob.clone();
        trailing.push(0);
        assert_eq!(
            Collector::restore_checkpoint(config(), &trailing).unwrap_err(),
            CheckpointError::Invalid("trailing bytes")
        );
    }

    #[test]
    fn empty_collector_round_trips() {
        let blob = Collector::new(config()).encode_checkpoint();
        let restored = Collector::restore_checkpoint(config(), &blob).unwrap();
        assert_eq!(restored.total_reports(), 0);
        assert!(restored.snapshot().per_user_means().is_empty());
    }
}
