//! The segmented log: append/barrier/checkpoint/seal + recovery scan.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::fault::{self, CrashPoint};
use crate::record::{self, RecordKind};
use crate::{FlushPolicy, WalError, WalResult};

const CHECKPOINT_MAGIC: [u8; 4] = *b"LDPK";
const CHECKPOINT_VERSION: u8 = 1;
/// Buffered appends are pushed to the kernel past this size so the in-memory
/// buffer stays bounded between syncs (capacity is retained across flushes,
/// keeping the steady state allocation-free).
const FLUSH_THRESHOLD: usize = 256 << 10;

/// Where and how the log persists.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding segments and checkpoints (created if missing).
    pub dir: PathBuf,
    /// Target size of one segment file; the active segment rolls to a new
    /// file once it crosses this. Default 8 MiB.
    pub segment_bytes: u64,
    /// Number of live segments that triggers [`Wal::wants_checkpoint`]
    /// (checkpoint + truncate keeps disk bounded near
    /// `segment_bytes * checkpoint_segments`). Default 4.
    pub checkpoint_segments: u64,
    /// Flush policy. Default [`FlushPolicy::Barrier`].
    pub flush: FlushPolicy,
}

impl WalConfig {
    /// Config with defaults rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            segment_bytes: 8 << 20,
            checkpoint_segments: 4,
            flush: FlushPolicy::Barrier,
        }
    }

    /// Override the segment roll size.
    #[must_use]
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(1);
        self
    }

    /// Override the checkpoint trigger (in live segments).
    #[must_use]
    pub fn checkpoint_segments(mut self, segments: u64) -> Self {
        self.checkpoint_segments = segments.max(1);
        self
    }

    /// Override the flush policy.
    #[must_use]
    pub fn flush(mut self, policy: FlushPolicy) -> Self {
        self.flush = policy;
        self
    }
}

/// One surviving ingest record to replay: where its payload sits in the
/// segment images [`Recovered`] keeps. Read it with [`Recovered::payload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredRecord {
    /// The record's sequence number.
    pub seq: u64,
    /// Index of the segment image holding the payload.
    segment: usize,
    /// The payload's byte range within that image.
    bytes: Range<usize>,
}

/// Everything [`Wal::open`] learned from disk.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// Highest sequence covered by the newest valid checkpoint (0 if none).
    pub checkpoint_seq: u64,
    /// The checkpoint's opaque collector state, if one was found.
    pub checkpoint_state: Option<Vec<u8>>,
    /// Surviving ingest records with `seq > checkpoint_seq`, in order.
    pub records: Vec<RecoveredRecord>,
    /// Bytes discarded as a torn/corrupt tail (0 on a clean log).
    pub truncated_bytes: u64,
    /// True when the log ends in a clean-shutdown seal with no damage and
    /// no ingest records after it.
    pub clean: bool,
    /// The segment files as read, for those that hold a record to replay:
    /// replay borrows payloads from these instead of owning a copy each.
    segments: Vec<Vec<u8>>,
}

impl Recovered {
    /// The ingest frame payload of `record`, byte-for-byte as originally
    /// appended.
    ///
    /// # Panics
    /// Panics if `record` did not come from this `Recovered`'s `records`.
    #[must_use]
    pub fn payload(&self, record: &RecoveredRecord) -> &[u8] {
        &self.segments[record.segment][record.bytes.clone()]
    }
}

/// A segmented, checksummed write-ahead log.
///
/// All methods take `&mut self`; the embedding layer provides locking (see
/// the crate docs for why). The durability contract:
///
/// - [`Wal::append`] buffers a record and returns its sequence number; the
///   record is **not** durable yet.
/// - [`Wal::barrier`] returns only after every appended record is `fsync`ed;
///   an ack sent after a successful barrier is a durable promise.
/// - [`Wal::checkpoint`] atomically persists an opaque state blob covering
///   every record appended so far, then prunes all segments.
/// - After any [`WalError::Dead`] (injected crash) the log refuses all
///   further operations, modeling a killed process.
pub struct Wal {
    dir: PathBuf,
    segment_bytes: u64,
    checkpoint_segments: u64,
    flush_policy: FlushPolicy,
    file: File,
    active_path: PathBuf,
    next_seq: u64,
    checkpoint_seq: u64,
    buf: Vec<u8>,
    /// Bytes written to the active segment file (its length).
    written: u64,
    /// Prefix of `written` known to be `fsync`ed.
    synced: u64,
    /// Total bytes in closed (rolled, durable) segments not yet pruned.
    closed_bytes: u64,
    /// Closed segments awaiting the next checkpoint prune.
    closed_segments: u64,
    last_sync: Instant,
    dead: bool,
    appended_records: u64,
    appended_bytes: u64,
    sync_count: u64,
    checkpoint_count: u64,
}

impl Wal {
    /// Open (or create) the log at `config.dir`, recovering whatever
    /// survived: picks the newest valid checkpoint, scans segments in
    /// order, stops at the first bad record, **physically truncates** the
    /// damage (so a later crash cannot silently lose newer data behind an
    /// old torn tail), and returns the surviving post-checkpoint records.
    pub fn open(config: WalConfig) -> WalResult<(Wal, Recovered)> {
        fs::create_dir_all(&config.dir)?;
        let mut segs: Vec<(u64, PathBuf)> = Vec::new();
        let mut cks: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&config.dir)? {
            let entry = entry?;
            let path = entry.path();
            let Ok(name) = entry.file_name().into_string() else {
                continue;
            };
            if name.ends_with(".tmp") {
                // In-flight checkpoint write that never renamed: dead weight.
                let _ = fs::remove_file(&path);
                continue;
            }
            if let Some(num) = name
                .strip_prefix("seg-")
                .and_then(|s| s.parse::<u64>().ok())
            {
                segs.push((num, path));
            } else if let Some(num) = name.strip_prefix("ck-").and_then(|s| s.parse::<u64>().ok()) {
                cks.push((num, path));
            }
        }
        segs.sort();
        cks.sort();

        // Newest checkpoint that validates wins; corrupt ones are removed so
        // they cannot shadow an older good one forever.
        let mut checkpoint_seq = 0u64;
        let mut checkpoint_state: Option<Vec<u8>> = None;
        for (num, path) in cks.iter().rev() {
            match read_checkpoint(path) {
                Ok((covered, state)) if covered == *num && checkpoint_state.is_none() => {
                    checkpoint_seq = covered;
                    checkpoint_state = Some(state);
                }
                _ if checkpoint_state.is_none() => {
                    let _ = fs::remove_file(path);
                }
                _ => {}
            }
        }

        let mut records: Vec<RecoveredRecord> = Vec::new();
        let mut segments: Vec<Vec<u8>> = Vec::new();
        let mut truncated_bytes = 0u64;
        let mut clean = false;
        let mut max_seq = checkpoint_seq;
        let mut kept: Vec<(PathBuf, u64)> = Vec::new(); // (path, surviving len)
        let mut damaged = false;
        for (_, path) in &segs {
            if damaged {
                // Framing after damage is unknowable; later segments were
                // written after the damaged one and cannot be trusted to
                // chain onto a truncated history.
                truncated_bytes += fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                let _ = fs::remove_file(path);
                continue;
            }
            let data = fs::read(path)?;
            let mut off = 0usize;
            loop {
                match record::decode_record(&data[off..]) {
                    Ok(None) => break,
                    Ok(Some((rec, used))) => {
                        match rec.kind {
                            RecordKind::Seal => clean = true,
                            RecordKind::Ingest => {
                                clean = false;
                                if rec.seq > checkpoint_seq {
                                    // The payload is the record's tail.
                                    let end = off + used;
                                    records.push(RecoveredRecord {
                                        seq: rec.seq,
                                        segment: segments.len(),
                                        bytes: end - rec.payload.len()..end,
                                    });
                                }
                            }
                        }
                        max_seq = max_seq.max(rec.seq);
                        off += used;
                    }
                    Err(_) => {
                        truncated_bytes += (data.len() - off) as u64;
                        let f = OpenOptions::new().write(true).open(path)?;
                        f.set_len(off as u64)?;
                        f.sync_all()?;
                        damaged = true;
                        clean = false;
                        break;
                    }
                }
            }
            kept.push((path.clone(), off as u64));
            if records.last().is_some_and(|r| r.segment == segments.len()) {
                segments.push(data);
            }
        }

        let next_seq = max_seq + 1;
        let (active_path, file, written) = match kept.last() {
            Some((path, len)) => {
                let file = OpenOptions::new().append(true).open(path)?;
                (path.clone(), file, *len)
            }
            None => {
                let (path, file) = create_segment(&config.dir, next_seq)?;
                (path, file, 0)
            }
        };
        let closed: u64 = kept
            .iter()
            .take(kept.len().saturating_sub(1))
            .map(|(_, len)| *len)
            .sum();
        sync_dir(&config.dir)?;

        let wal = Wal {
            dir: config.dir,
            segment_bytes: config.segment_bytes.max(1),
            checkpoint_segments: config.checkpoint_segments.max(1),
            flush_policy: config.flush,
            file,
            active_path,
            next_seq,
            checkpoint_seq,
            buf: Vec::with_capacity(FLUSH_THRESHOLD * 2),
            written,
            synced: written,
            closed_bytes: closed,
            closed_segments: kept.len().saturating_sub(1) as u64,
            last_sync: Instant::now(),
            dead: false,
            appended_records: 0,
            appended_bytes: 0,
            sync_count: 0,
            checkpoint_count: 0,
        };
        let recovered = Recovered {
            checkpoint_seq,
            checkpoint_state,
            records,
            truncated_bytes,
            clean,
            segments,
        };
        Ok((wal, recovered))
    }

    fn check_alive(&self) -> WalResult<()> {
        if self.dead {
            return Err(WalError::Dead);
        }
        Ok(())
    }

    fn die<T>(&mut self) -> WalResult<T> {
        self.dead = true;
        Err(WalError::Dead)
    }

    /// Buffer one ingest payload; returns its sequence number. The record
    /// is durable only after a later successful [`Wal::barrier`].
    pub fn append(&mut self, payload: &[u8]) -> WalResult<u64> {
        self.check_alive()?;
        if fault::hit(CrashPoint::Append) {
            return self.die();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        record::encode_record(seq, RecordKind::Ingest, payload, &mut self.buf);
        self.appended_records += 1;
        self.appended_bytes += record::encoded_len(payload.len()) as u64;
        if self.buf.len() >= FLUSH_THRESHOLD {
            self.flush_buf()?;
        }
        if self.written + self.buf.len() as u64 >= self.segment_bytes {
            self.roll_segment()?;
        } else if let FlushPolicy::Batched(interval) = self.flush_policy {
            if self.last_sync.elapsed() >= interval {
                self.sync_to_disk()?;
            }
        }
        Ok(seq)
    }

    /// Flush and `fsync` everything appended so far. After this returns,
    /// every issued sequence number is durable.
    pub fn barrier(&mut self) -> WalResult<()> {
        self.check_alive()?;
        self.sync_to_disk()?;
        if fault::hit(CrashPoint::AfterSync) {
            return self.die();
        }
        Ok(())
    }

    /// Whether enough live segments have accumulated that the embedder
    /// should take a checkpoint to re-bound disk usage.
    #[must_use]
    pub fn wants_checkpoint(&self) -> bool {
        self.closed_segments >= self.checkpoint_segments
    }

    /// Persist `state` as a checkpoint covering every record appended so
    /// far, then prune all segments (their records are all covered) and
    /// start a fresh one. Crash-safe: the checkpoint is written to a temp
    /// file, `fsync`ed, and atomically renamed before anything is deleted;
    /// a crash at any point leaves either the old or the new checkpoint
    /// authoritative, with stale segments filtered by sequence on replay.
    pub fn checkpoint(&mut self, state: &[u8]) -> WalResult<u64> {
        self.check_alive()?;
        self.sync_to_disk()?;
        let covered = self.next_seq - 1;
        if fault::hit(CrashPoint::CheckpointWrite) {
            return self.die();
        }
        let final_path = self.dir.join(format!("ck-{covered:020}"));
        let tmp_path = self.dir.join(format!("ck-{covered:020}.tmp"));
        {
            let mut body = Vec::with_capacity(8 + state.len());
            body.extend_from_slice(&covered.to_le_bytes());
            body.extend_from_slice(state);
            let mut f = File::create(&tmp_path)?;
            f.write_all(&CHECKPOINT_MAGIC)?;
            f.write_all(&[CHECKPOINT_VERSION])?;
            f.write_all(&record::checksum(&body).to_le_bytes())?;
            f.write_all(&body)?;
            f.sync_all()?;
        }
        if fault::hit(CrashPoint::CheckpointRename) {
            return self.die();
        }
        fs::rename(&tmp_path, &final_path)?;
        sync_dir(&self.dir)?;
        if fault::hit(CrashPoint::CheckpointPrune) {
            return self.die();
        }
        // Roll to a fresh segment, then delete everything the checkpoint
        // covers: all other segments and all older checkpoints.
        let (new_path, new_file) = create_segment(&self.dir, self.next_seq)?;
        self.file = new_file;
        self.active_path = new_path.clone();
        self.written = 0;
        self.synced = 0;
        self.closed_bytes = 0;
        self.closed_segments = 0;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if path == new_path || path == final_path {
                continue;
            }
            let Ok(name) = entry.file_name().into_string() else {
                continue;
            };
            if name.starts_with("seg-") || name.starts_with("ck-") {
                let _ = fs::remove_file(&path);
            }
        }
        sync_dir(&self.dir)?;
        self.checkpoint_seq = covered;
        self.checkpoint_count += 1;
        Ok(covered)
    }

    /// Append the clean-shutdown seal and sync it. A log whose last record
    /// is a seal recovers with `clean = true`.
    pub fn seal(&mut self) -> WalResult<()> {
        self.check_alive()?;
        if fault::hit(CrashPoint::Seal) {
            return self.die();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        record::encode_record(seq, RecordKind::Seal, &[], &mut self.buf);
        self.sync_to_disk()
    }

    fn flush_buf(&mut self) -> WalResult<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        if fault::hit(CrashPoint::Flush) {
            return self.die();
        }
        self.file.write_all(&self.buf)?;
        self.written += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    fn sync_to_disk(&mut self) -> WalResult<()> {
        self.flush_buf()?;
        if self.synced < self.written {
            if fault::hit(CrashPoint::Sync) {
                return self.die();
            }
            self.file.sync_data()?;
            self.synced = self.written;
            self.sync_count += 1;
        }
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Close the active segment (durable) and start a new one.
    fn roll_segment(&mut self) -> WalResult<()> {
        self.sync_to_disk()?;
        let (path, file) = create_segment(&self.dir, self.next_seq)?;
        self.closed_bytes += self.written;
        self.closed_segments += 1;
        self.file = file;
        self.active_path = path;
        self.written = 0;
        self.synced = 0;
        Ok(())
    }

    /// Next sequence number to be issued.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Covered sequence of the last checkpoint taken or recovered.
    #[must_use]
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq
    }

    /// Records appended through this handle (excludes recovered history).
    #[must_use]
    pub fn appended_records(&self) -> u64 {
        self.appended_records
    }

    /// Encoded bytes appended through this handle.
    #[must_use]
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// `fsync`s issued through this handle.
    #[must_use]
    pub fn sync_count(&self) -> u64 {
        self.sync_count
    }

    /// Checkpoints taken through this handle.
    #[must_use]
    pub fn checkpoint_count(&self) -> u64 {
        self.checkpoint_count
    }

    /// Live (unpruned) segment files, including the active one.
    #[must_use]
    pub fn live_segments(&self) -> u64 {
        self.closed_segments + 1
    }

    /// Total live log bytes on disk plus buffered.
    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        self.closed_bytes + self.written + self.buf.len() as u64
    }

    /// Test support: model a kill plus power loss. Buffered bytes vanish
    /// and the active segment is truncated back to the last `fsync`ed
    /// offset (written-but-unsynced bytes are assumed lost — the harshest
    /// outcome the durability contract must survive). The log is dead
    /// afterwards; reopen the directory to recover.
    pub fn simulate_power_loss(&mut self) -> WalResult<()> {
        self.buf.clear();
        self.dead = true;
        let f = OpenOptions::new().write(true).open(&self.active_path)?;
        f.set_len(self.synced)?;
        f.sync_all()?;
        Ok(())
    }
}

fn create_segment(dir: &Path, first_seq: u64) -> WalResult<(PathBuf, File)> {
    let path = dir.join(format!("seg-{first_seq:020}"));
    let file = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(&path)?;
    sync_dir(dir)?;
    Ok((path, file))
}

fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

fn read_checkpoint(path: &Path) -> WalResult<(u64, Vec<u8>)> {
    let data = fs::read(path)?;
    if data.len() < 9 + 8 {
        return Err(WalError::Corrupt("checkpoint too short"));
    }
    if data[0..4] != CHECKPOINT_MAGIC {
        return Err(WalError::Corrupt("bad checkpoint magic"));
    }
    if data[4] != CHECKPOINT_VERSION {
        return Err(WalError::Corrupt("unknown checkpoint version"));
    }
    let crc = u32::from_le_bytes(data[5..9].try_into().expect("4 bytes"));
    let body = &data[9..];
    if record::checksum(body) != crc {
        return Err(WalError::Corrupt("checkpoint checksum mismatch"));
    }
    let covered = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
    Ok((covered, body[8..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ldp-wal-unit-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(dir: &Path) -> WalConfig {
        WalConfig::new(dir).flush(FlushPolicy::Barrier)
    }

    /// What recovery would replay: `(seq, payload)` per surviving record.
    fn replayable(rec: &Recovered) -> Vec<(u64, &[u8])> {
        rec.records
            .iter()
            .map(|r| (r.seq, rec.payload(r)))
            .collect()
    }

    #[test]
    fn new_config_syncs_at_barriers_only() {
        // A constant: no environment variable steers an embedder's policy.
        assert_eq!(WalConfig::new("unused").flush, FlushPolicy::Barrier);
    }

    #[test]
    fn append_barrier_recover() {
        let dir = temp_dir("abr");
        {
            let (mut wal, rec) = Wal::open(cfg(&dir)).unwrap();
            assert_eq!(rec.checkpoint_seq, 0);
            assert!(rec.records.is_empty());
            assert!(!rec.clean);
            assert_eq!(wal.append(b"one").unwrap(), 1);
            assert_eq!(wal.append(b"two").unwrap(), 2);
            wal.barrier().unwrap();
        }
        let (_, rec) = Wal::open(cfg(&dir)).unwrap();
        assert_eq!(
            replayable(&rec),
            vec![(1, b"one".as_slice()), (2, b"two".as_slice())]
        );
        assert!(!rec.clean);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn power_loss_drops_unsynced_only() {
        let dir = temp_dir("loss");
        let (mut wal, _) = Wal::open(cfg(&dir)).unwrap();
        wal.append(b"durable").unwrap();
        wal.barrier().unwrap();
        wal.append(b"volatile").unwrap();
        wal.simulate_power_loss().unwrap();
        assert!(matches!(wal.append(b"x"), Err(WalError::Dead)));
        let (_, rec) = Wal::open(cfg(&dir)).unwrap();
        assert_eq!(replayable(&rec), vec![(1, b"durable".as_slice())]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_prunes_and_filters() {
        let dir = temp_dir("ck");
        {
            let (mut wal, _) = Wal::open(cfg(&dir)).unwrap();
            wal.append(b"a").unwrap();
            wal.append(b"b").unwrap();
            let covered = wal.checkpoint(b"STATE").unwrap();
            assert_eq!(covered, 2);
            wal.append(b"c").unwrap();
            wal.barrier().unwrap();
            assert_eq!(wal.live_segments(), 1);
        }
        let (_, rec) = Wal::open(cfg(&dir)).unwrap();
        assert_eq!(rec.checkpoint_seq, 2);
        assert_eq!(rec.checkpoint_state.as_deref(), Some(b"STATE".as_slice()));
        assert_eq!(replayable(&rec), vec![(3, b"c".as_slice())]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seal_recovers_clean_with_zero_records() {
        let dir = temp_dir("seal");
        {
            let (mut wal, _) = Wal::open(cfg(&dir)).unwrap();
            wal.append(b"row").unwrap();
            wal.checkpoint(b"S").unwrap();
            wal.seal().unwrap();
        }
        let (_, rec) = Wal::open(cfg(&dir)).unwrap();
        assert!(rec.clean);
        assert!(rec.records.is_empty());
        assert_eq!(rec.checkpoint_state.as_deref(), Some(b"S".as_slice()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_physically_truncated() {
        let dir = temp_dir("torn");
        let seg_path;
        {
            let (mut wal, _) = Wal::open(cfg(&dir)).unwrap();
            wal.append(b"good").unwrap();
            wal.append(b"doomed-by-tear").unwrap();
            wal.barrier().unwrap();
            seg_path = wal.active_path.clone();
        }
        // Tear off the last 3 bytes of the final record.
        let len = fs::metadata(&seg_path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg_path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let (_, rec) = Wal::open(cfg(&dir)).unwrap();
        assert_eq!(replayable(&rec), vec![(1, b"good".as_slice())]);
        assert!(rec.truncated_bytes > 0);
        // The damage is gone from disk: a second open sees a clean log.
        let (_, rec2) = Wal::open(cfg(&dir)).unwrap();
        assert_eq!(rec2.truncated_bytes, 0);
        assert_eq!(rec2.records.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_and_checkpoint_trigger_fires() {
        let dir = temp_dir("roll");
        let config = cfg(&dir).segment_bytes(64).checkpoint_segments(2);
        let (mut wal, _) = Wal::open(config).unwrap();
        let mut appended = 0;
        while !wal.wants_checkpoint() {
            wal.append(b"0123456789abcdef").unwrap();
            appended += 1;
            assert!(appended < 100, "checkpoint trigger never fired");
        }
        assert!(wal.live_segments() >= 3);
        wal.checkpoint(b"S").unwrap();
        assert_eq!(wal.live_segments(), 1);
        assert!(!wal.wants_checkpoint());
        // Everything is covered; replay is empty but state survives.
        drop(wal);
        let (_, rec) = Wal::open(cfg(&dir)).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(rec.checkpoint_state.as_deref(), Some(b"S".as_slice()));
        fs::remove_dir_all(&dir).unwrap();
    }
}
