//! The segmented log: append/barrier/checkpoint/seal + recovery scan.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::disk::{Disk, DiskFile, StdDisk};
use crate::record::{
    self, FrameReader, CHECKPOINT, DEFAULT_MAX_PAYLOAD, HEADER_LEN, INGEST, SEAL, WIRE_VERSION,
};
use crate::{FlushPolicy, WalError, WalResult};

/// The file that stamps a log directory with its byte format.
const FORMAT_FILE: &str = "FORMAT";
/// The byte format this build reads and writes, as its stamp names it:
/// segments and checkpoints, both files of wire frames ([`record`]) at
/// this build's [`WIRE_VERSION`]. The wire version is part of the name
/// because every logged frame carries it: a build speaking another version
/// refuses the directory untouched instead of truncating its first frame
/// as damage. Format 4 gave checkpoints an envelope of their own; format 3
/// framed v6 payloads in the log's own record codec; format 2 held v5
/// payloads (full-width ids); the one-lane format before it left no stamp.
pub(crate) fn format_name() -> String {
    format!("ldp-wal log format 5, wire v{WIRE_VERSION}")
}
/// Buffered appends are pushed to the kernel past this size so the in-memory
/// buffer stays bounded between syncs (capacity is retained across flushes,
/// keeping the steady state allocation-free).
const FLUSH_THRESHOLD: usize = 256 << 10;
/// Where the one reader a recovery reads every file through starts.
const SCAN_BUFFER_BYTES: usize = 1 << 20;
/// Closed segments that trigger [`Wal::wants_checkpoint`]: checkpoint +
/// truncate keeps disk bounded near `segment_bytes * CHECKPOINT_SEGMENTS`.
const CHECKPOINT_SEGMENTS: u64 = 4;

/// Where and how the log persists.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding segments and checkpoints (created if missing).
    pub dir: PathBuf,
    /// Target size of one segment file; the active segment rolls to a new
    /// file once it crosses this; four closed segments call for a
    /// checkpoint ([`Wal::wants_checkpoint`]). Default 8 MiB. At least 1:
    /// [`Wal::recovery`] refuses 0, which would roll on every append.
    pub segment_bytes: u64,
    /// Flush policy. Default [`FlushPolicy::Barrier`].
    pub flush: FlushPolicy,
    /// The filesystem every read and write goes through: the operating
    /// system's unless [`WalConfig::disk`] swaps it.
    disk: Arc<dyn Disk>,
}

impl WalConfig {
    /// Config with defaults rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            segment_bytes: 8 << 20,
            flush: FlushPolicy::Barrier,
            disk: Arc::new(StdDisk),
        }
    }

    /// Override the segment roll size (see [`Self::segment_bytes`]).
    #[must_use]
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Override the flush policy.
    #[must_use]
    pub fn flush(mut self, policy: FlushPolicy) -> Self {
        self.flush = policy;
        self
    }

    /// Put the log on `disk` instead of the operating system's filesystem
    /// (a model disk that can lose power, in tests).
    #[must_use]
    pub fn disk(mut self, disk: Arc<dyn Disk>) -> Self {
        self.disk = disk;
        self
    }
}

/// What a recovery scan found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovered {
    /// Sequence the newest checkpoint covers (0 if none).
    pub checkpoint_seq: u64,
    /// Surviving ingest records with `seq > checkpoint_seq` — the ones the
    /// visitor was handed, in order.
    pub records: u64,
    /// Bytes discarded as a torn/corrupt tail (0 on a clean log).
    pub truncated_bytes: u64,
    /// True when the log ends in a clean-shutdown seal with no damage and
    /// no ingest records after it.
    pub clean: bool,
}

/// A log directory opened for recovery: the files are listed and the newest
/// checkpoint's state is in memory, but no segment has been read yet.
///
/// The two halves of the visitor contract are the two steps this type
/// offers. First [`Recovery::checkpoint_state`] *lends* the checkpoint blob;
/// then [`Recovery::replay`] drops the blob and streams the segments,
/// handing each surviving record to the visitor, and returns the log ready
/// for appends. See [`Wal`] for what the visitor may rely on.
#[derive(Debug)]
pub struct Recovery {
    config: WalConfig,
    /// Live segment files in sequence order: the first sequence their name
    /// gives, the path, and their length on disk.
    segments: Vec<(u64, PathBuf, u64)>,
    checkpoint_seq: u64,
    /// The newest checkpoint's state; `None` when there is none.
    checkpoint: Option<Vec<u8>>,
    /// The scan's one reader, as the checkpoint read left it.
    reader: FrameReader,
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
///   every record appended so far, then prunes all segments and older
///   checkpoints.
/// - Any error inside [`Wal::append`], [`Wal::barrier`],
///   [`Wal::checkpoint`] or [`Wal::seal`] kills the log: that call returns
///   the error and every later one [`WalError::Dead`]. A failed write may
///   have left part of a frame in the file, and a failed `fsync` may have
///   dropped bytes the kernel will not write again, so no later barrier
///   may promise them; only a reopen, which scans what is really there,
///   brings the log back.
///
/// The recovery (visitor) contract — [`Wal::recovery`] then
/// [`Recovery::replay`]; [`Wal::open`] is the same pass with a visitor that
/// ignores everything:
///
/// - Only the newest checkpoint counts; its state is lent first
///   ([`Recovery::checkpoint_state`]) and dropped before the first segment
///   is read. One that is not whole frames ending in its only seal
///   ([`WalError::Corrupt`]) or cannot be read ([`WalError::Io`]) fails
///   the open with nothing on disk changed: it is the only copy of the
///   records it covers.
/// - The checkpoint, then the segments in sequence order, stream through
///   **one** [`FrameReader`] (1 MiB at first). The visitor is handed
///   `(seq, payload)` for every ingest record with `seq >` the
///   checkpoint's, as soon as *that record's* checksum verifies — records
///   after it have not been looked at yet. The payload is lent for the
///   call only: the next read overwrites it.
/// - The scan stops at the first bad record, physically truncates the
///   damage and deletes later segments, so what the visitor saw is exactly
///   the prefix a second open would replay.
/// - A visitor error ends the scan at once and comes back as
///   [`WalError::Io`]; nothing on disk has been changed by then, and the
///   directory opens again.
pub struct Wal {
    disk: Arc<dyn Disk>,
    dir: PathBuf,
    segment_bytes: u64,
    flush_policy: FlushPolicy,
    file: Box<dyn DiskFile>,
    active_path: PathBuf,
    next_seq: u64,
    checkpoint_seq: u64,
    buf: Vec<u8>,
    /// Bytes written to the active segment file (its length).
    written: u64,
    /// Prefix of `written` known to be `fsync`ed.
    synced: u64,
    /// Closed segments awaiting the next checkpoint prune.
    closed_segments: u64,
    last_sync: Instant,
    dead: bool,
}

impl Wal {
    /// Open (or create) the log at `config.dir`, recovering whatever
    /// survived: reads the newest checkpoint, scans segments in order,
    /// stops at the first bad record, **physically truncates** the
    /// damage (so a later crash cannot silently lose newer data behind an
    /// old torn tail), and reports what it found. The records themselves
    /// are verified and dropped; a caller that wants them replays through
    /// [`Wal::recovery`].
    pub fn open(config: WalConfig) -> WalResult<(Wal, Recovered)> {
        Wal::recovery(config)?.replay(|_, _| Ok(()))
    }

    /// First half of an open: list `config.dir` (created if missing),
    /// check its format stamp, and read the newest checkpoint. No segment
    /// is read.
    ///
    /// A directory with no segments or checkpoints yet is stamped with this
    /// build's format. One whose segments or checkpoints carry no stamp, or
    /// another format's, is refused with [`WalError::Format`] before
    /// anything in it is read, truncated, pruned or removed. A zero
    /// `segment_bytes` is refused with an [`io::ErrorKind::InvalidInput`]
    /// [`WalError::Io`] before the directory is touched.
    pub fn recovery(config: WalConfig) -> WalResult<Recovery> {
        Wal::recovery_reading(config, SCAN_BUFFER_BYTES)
    }

    /// [`Wal::recovery`] whose reader starts at `chunk` bytes, so tests can
    /// put read boundaries anywhere in a frame.
    fn recovery_reading(config: WalConfig, chunk: usize) -> WalResult<Recovery> {
        if config.segment_bytes == 0 {
            return Err(WalError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "segment_bytes must be at least 1",
            )));
        }
        let disk = &*config.disk;
        disk.create_dir_all(&config.dir)?;
        let (mut segs, mut cks, mut in_flight) = (Vec::new(), Vec::new(), Vec::new());
        let mut has_log = false;
        for (name, len) in disk.list(&config.dir)? {
            let path = config.dir.join(&name);
            let number = |prefix: &str| name.strip_prefix(prefix)?.parse::<u64>().ok();
            has_log |= name.starts_with("seg-") || name.starts_with("ck-");
            if name.ends_with(".tmp") {
                in_flight.push(path);
            } else if let Some(num) = number("seg-") {
                segs.push((num, path, len));
            } else if let Some(num) = number("ck-") {
                cks.push((num, path, len));
            }
        }
        check_format(disk, &config.dir, has_log)?;
        segs.sort();

        // Only the newest checkpoint counts, and it must read back whole:
        // the segments it covered were pruned when it was written, so an
        // error here fails the open with the directory as it was.
        let mut reader = FrameReader::new(chunk);
        let (checkpoint_seq, checkpoint) = match cks.into_iter().max() {
            Some((covered, path, len)) => {
                let state = read_state(disk, &path, len, &mut reader)?;
                (covered, Some(state))
            }
            None => (0, None),
        };
        for path in in_flight {
            // A checkpoint write that never renamed: dead weight.
            let _ = disk.remove(&path);
        }
        Ok(Recovery {
            config,
            segments: segs,
            checkpoint_seq,
            checkpoint,
            reader,
        })
    }

    /// Runs one write-path operation on a live log, and kills the log when
    /// it fails: whatever the failed call left on disk is unknown until a
    /// reopen scans it.
    fn fail_closed<T>(&mut self, op: impl FnOnce(&mut Wal) -> WalResult<T>) -> WalResult<T> {
        if self.dead {
            return Err(WalError::Dead);
        }
        let result = op(self);
        self.dead = result.is_err();
        result
    }

    /// Buffer one ingest payload as an [`INGEST`] frame; returns its
    /// sequence number. The record is durable only after a later
    /// successful [`Wal::barrier`].
    ///
    /// # Panics
    /// When `payload` is longer than [`DEFAULT_MAX_PAYLOAD`], which the
    /// recovery scan would refuse as damage.
    pub fn append(&mut self, payload: &[u8]) -> WalResult<u64> {
        assert!(
            payload.len() <= DEFAULT_MAX_PAYLOAD as usize,
            "ingest payload above the log's frame bound"
        );
        self.fail_closed(|wal| {
            let seq = wal.next_seq;
            wal.next_seq += 1;
            record::envelope(&mut wal.buf, INGEST, |buf| buf.extend_from_slice(payload));
            if wal.buf.len() >= FLUSH_THRESHOLD {
                wal.flush_buf()?;
            }
            if wal.written + wal.buf.len() as u64 >= wal.segment_bytes {
                wal.roll_segment()?;
            } else if let FlushPolicy::Batched(interval) = wal.flush_policy {
                if wal.last_sync.elapsed() >= interval {
                    wal.sync_to_disk()?;
                }
            }
            Ok(seq)
        })
    }

    /// Flush and `fsync` everything appended so far. After this returns,
    /// every issued sequence number is durable.
    pub fn barrier(&mut self) -> WalResult<()> {
        self.fail_closed(Wal::sync_to_disk)
    }

    /// Whether enough live segments have accumulated that the embedder
    /// should take a checkpoint to re-bound disk usage.
    #[must_use]
    pub fn wants_checkpoint(&self) -> bool {
        self.closed_segments >= CHECKPOINT_SEGMENTS
    }

    /// Persist `state` — cut into [`CHECKPOINT`] frames of at most
    /// [`DEFAULT_MAX_PAYLOAD`] bytes, then one empty [`SEAL`] frame — as a
    /// checkpoint covering every record appended so far, then prune all
    /// segments (their records are all covered) and start a fresh one.
    /// Crash-safe: the checkpoint is written to a temp file, `fsync`ed, and
    /// atomically renamed before anything is deleted; a crash at any point
    /// leaves either the old or the new checkpoint the newest, with stale
    /// segments filtered by sequence on replay.
    pub fn checkpoint(&mut self, state: &[u8]) -> WalResult<u64> {
        self.fail_closed(|wal| wal.write_checkpoint(state))
    }

    fn write_checkpoint(&mut self, state: &[u8]) -> WalResult<u64> {
        self.sync_to_disk()?;
        let covered = self.next_seq - 1;
        let final_path = self.dir.join(format!("ck-{covered:020}"));
        let tmp_path = self.dir.join(format!("ck-{covered:020}.tmp"));
        let piece = DEFAULT_MAX_PAYLOAD as usize;
        let mut image = Vec::with_capacity(state.len() + HEADER_LEN * (2 + state.len() / piece));
        for part in state.chunks(piece) {
            record::envelope(&mut image, CHECKPOINT, |buf| buf.extend_from_slice(part));
        }
        record::envelope(&mut image, SEAL, |_| {});
        let mut f = self.disk.create(&tmp_path)?;
        f.write_all(&image)?;
        f.sync_all()?;
        self.disk.rename(&tmp_path, &final_path)?;
        self.disk.sync_dir(&self.dir)?;
        // Roll to a fresh segment, then delete everything the checkpoint
        // covers: all other segments and all older checkpoints.
        self.start_segment()?;
        self.closed_segments = 0;
        for (name, _) in self.disk.list(&self.dir)? {
            let path = self.dir.join(&name);
            let covered = name.starts_with("seg-") || name.starts_with("ck-");
            if covered && path != self.active_path && path != final_path {
                let _ = self.disk.remove(&path);
            }
        }
        self.disk.sync_dir(&self.dir)?;
        self.checkpoint_seq = covered;
        Ok(covered)
    }

    /// Append the clean-shutdown seal (an empty [`SEAL`] frame, which takes
    /// a sequence number like any record) and sync it. A log whose last
    /// record is a seal recovers with `clean = true`.
    pub fn seal(&mut self) -> WalResult<()> {
        self.fail_closed(|wal| {
            wal.next_seq += 1;
            record::envelope(&mut wal.buf, SEAL, |_| {});
            wal.sync_to_disk()
        })
    }

    fn flush_buf(&mut self) -> WalResult<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.buf)?;
        self.written += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    fn sync_to_disk(&mut self) -> WalResult<()> {
        self.flush_buf()?;
        if self.synced < self.written {
            self.file.sync_data()?;
            self.synced = self.written;
        }
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Close the active segment (durable) and start a new one.
    fn roll_segment(&mut self) -> WalResult<()> {
        self.sync_to_disk()?;
        self.start_segment()?;
        self.closed_segments += 1;
        Ok(())
    }

    /// Make a fresh segment, named for the next sequence, the active one.
    fn start_segment(&mut self) -> WalResult<()> {
        (self.active_path, self.file) = create_segment(&*self.disk, &self.dir, self.next_seq)?;
        (self.written, self.synced) = (0, 0);
        Ok(())
    }

    /// Covered sequence of the last checkpoint taken or recovered.
    #[must_use]
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq
    }

    /// Live (unpruned) segment files, including the active one.
    #[must_use]
    pub fn live_segments(&self) -> u64 {
        self.closed_segments + 1
    }
}

/// Creates the segment whose first record is `first_seq`, entry durable.
fn create_segment(
    disk: &dyn Disk,
    dir: &Path,
    first_seq: u64,
) -> WalResult<(PathBuf, Box<dyn DiskFile>)> {
    let path = dir.join(format!("seg-{first_seq:020}"));
    let file = disk.create(&path)?;
    disk.sync_dir(dir)?;
    Ok((path, file))
}

/// Accepts `dir` if its stamp names [`format_name`]; stamps it if it has
/// no stamp and no log files (`has_log` false); refuses it otherwise.
/// Reads at most one stamp's worth of bytes and changes nothing it refuses.
fn check_format(disk: &dyn Disk, dir: &Path, has_log: bool) -> WalResult<()> {
    let stamp = format!("{}\n", format_name());
    match disk.open_read(&dir.join(FORMAT_FILE)) {
        Ok(file) => {
            let mut found = Vec::new();
            file.take(stamp.len() as u64 + 1).read_to_end(&mut found)?;
            if found == stamp.as_bytes() {
                return Ok(());
            }
            let found = String::from_utf8_lossy(&found).trim_end().to_owned();
            Err(WalError::Format { found: Some(found) })
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound && has_log => {
            Err(WalError::Format { found: None })
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let tmp = dir.join(format!("{FORMAT_FILE}.tmp"));
            let mut file = disk.create(&tmp)?;
            file.write_all(stamp.as_bytes())?;
            file.sync_all()?;
            disk.rename(&tmp, &dir.join(FORMAT_FILE))?;
            Ok(disk.sync_dir(dir)?)
        }
        Err(e) => Err(e.into()),
    }
}

/// Reads the checkpoint at `path`, `len` bytes long, through `reader`: the
/// state its [`CHECKPOINT`] frames concatenate to, in one `Vec` reserved
/// from that length. A file that does not scan whole, or whose last frame
/// is not its only [`SEAL`], is [`WalError::Corrupt`].
fn read_state(
    disk: &dyn Disk,
    path: &Path,
    len: u64,
    reader: &mut FrameReader,
) -> WalResult<Vec<u8>> {
    let file = disk.open_read(path)?;
    let mut state = Vec::with_capacity(len as usize);
    let (mut sealed, mut in_order) = (false, true);
    let (_, intact) = scan(reader, file, &[CHECKPOINT, SEAL], |frame_type, payload| {
        in_order &= !sealed;
        sealed = frame_type == SEAL;
        if !sealed {
            state.extend_from_slice(payload);
        }
        Ok(())
    })?;
    if intact && sealed && in_order {
        Ok(state)
    } else {
        Err(WalError::Corrupt(
            "the newest checkpoint is not whole frames ending in its one seal",
        ))
    }
}

impl Recovery {
    /// The newest checkpoint's opaque collector state — `None` when the
    /// directory has no checkpoint.
    #[must_use]
    pub fn checkpoint_state(&self) -> Option<&[u8]> {
        self.checkpoint.as_deref()
    }

    /// Total bytes in the segment files [`Recovery::replay`] will read.
    /// Zero means the replay reads nothing, allocates no read buffer and
    /// never calls its visitor.
    #[must_use]
    pub fn segment_bytes(&self) -> u64 {
        self.segments.iter().map(|(_, _, len)| len).sum()
    }

    /// Second half of an open: drop the checkpoint blob, stream every
    /// segment through the recovery's one reader handing `visit` each
    /// surviving `(seq, payload)`, repair the tail, and return the log
    /// ready for appends. See [`Wal`] for the contract.
    pub fn replay(
        self,
        mut visit: impl FnMut(u64, &[u8]) -> io::Result<()>,
    ) -> WalResult<(Wal, Recovered)> {
        let Recovery {
            config,
            segments,
            checkpoint_seq,
            checkpoint,
            mut reader,
        } = self;
        drop(checkpoint);
        let disk = &*config.disk;

        let mut records = 0u64;
        let mut truncated_bytes = 0u64;
        let mut clean = false;
        // (path, surviving len, sequence after its last surviving frame)
        let mut kept: Vec<(PathBuf, u64, u64)> = Vec::new();
        let mut damaged = false;
        for (first_seq, path, len) in segments {
            if damaged {
                // Framing after damage is unknowable; later segments were
                // written after the damaged one and cannot be trusted to
                // chain onto a truncated history.
                truncated_bytes += len;
                let _ = disk.remove(&path);
                continue;
            }
            let mut seq = first_seq;
            let mut good = 0u64;
            if len > 0 {
                // A fresh directory never reads, so never allocates.
                let (valid, intact) = scan(
                    &mut reader,
                    disk.open_read(&path)?,
                    &[INGEST, SEAL],
                    |frame_type, payload| {
                        clean = frame_type == SEAL;
                        if frame_type == INGEST && seq > checkpoint_seq {
                            records += 1;
                            visit(seq, payload)?;
                        }
                        seq += 1;
                        Ok(())
                    },
                )?;
                good = valid;
                if !intact {
                    truncated_bytes += len.saturating_sub(good);
                    let f = disk.open_append(&path)?;
                    f.set_len(good)?;
                    f.sync_all()?;
                    damaged = true;
                    clean = false;
                }
            }
            kept.push((path, good, seq));
        }

        // Appends resume in the last surviving segment, unless damage cut
        // the log back to records the checkpoint covers: the next record's
        // sequence must follow the checkpoint's, and a record's sequence is
        // its segment's name plus its index, so it starts a fresh segment.
        let next_seq = kept
            .last()
            .map_or(0, |(_, _, next)| *next)
            .max(checkpoint_seq + 1);
        let (active_path, file, written) = match kept.pop() {
            Some((path, len, next)) if next == next_seq => {
                let file = disk.open_append(&path)?;
                (path, file, len)
            }
            last => {
                kept.extend(last);
                let (path, file) = create_segment(disk, &config.dir, next_seq)?;
                (path, file, 0)
            }
        };
        disk.sync_dir(&config.dir)?;

        let wal = Wal {
            disk: config.disk,
            dir: config.dir,
            segment_bytes: config.segment_bytes,
            flush_policy: config.flush,
            file,
            active_path,
            next_seq,
            checkpoint_seq,
            buf: Vec::with_capacity(FLUSH_THRESHOLD * 2),
            written,
            synced: written,
            closed_segments: kept.len() as u64,
            last_sync: Instant::now(),
            dead: false,
        };
        let recovered = Recovered {
            checkpoint_seq,
            records,
            truncated_bytes,
            clean,
        };
        Ok((wal, recovered))
    }
}

/// Streams one file of frames — a segment or a checkpoint — through
/// `reader`, handing `on_frame` each frame of a type in `accept` as soon as
/// its checksum verifies. Returns the length of the valid prefix and
/// whether the file ended cleanly there (not at a bad or torn frame).
fn scan(
    reader: &mut FrameReader,
    mut src: impl Read,
    accept: &[u8],
    mut on_frame: impl FnMut(u8, &[u8]) -> io::Result<()>,
) -> io::Result<(u64, bool)> {
    reader.clear();
    let mut good = 0u64;
    loop {
        let (header, payload) = match reader.next(&mut src, || false) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok((good, true)),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ) =>
            {
                return Ok((good, false))
            }
            Err(e) => return Err(e),
        };
        if !accept.contains(&header.frame_type) || header.verify(payload).is_err() {
            return Ok((good, false));
        }
        on_frame(header.frame_type, payload)?;
        good += (HEADER_LEN + payload.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Header;
    use proptest::prelude::*;
    use std::fs::{self, OpenOptions};

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

    /// One open, with everything its visitor was shown.
    struct Opened {
        wal: Wal,
        rec: Recovered,
        state: Option<Vec<u8>>,
        /// What recovery would replay: `(seq, payload)` per surviving record.
        replayed: Vec<(u64, Vec<u8>)>,
    }

    fn open_chunked(config: WalConfig, chunk: usize) -> Opened {
        let recovery = Wal::recovery_reading(config, chunk).unwrap();
        let state = recovery.checkpoint_state().map(<[u8]>::to_vec);
        let mut replayed = Vec::new();
        let (wal, rec) = recovery
            .replay(|seq, payload| {
                replayed.push((seq, payload.to_vec()));
                Ok(())
            })
            .unwrap();
        assert_eq!(rec.records, replayed.len() as u64);
        Opened {
            wal,
            rec,
            state,
            replayed,
        }
    }

    fn open(dir: &Path) -> Opened {
        open_chunked(cfg(dir), SCAN_BUFFER_BYTES)
    }

    /// The directory's segment files in sequence order: `(path, bytes)`.
    fn segment_files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| {
                let name = path.file_name().unwrap().to_str().unwrap();
                name.starts_with("seg-")
            })
            .map(|path| {
                let bytes = fs::read(&path).unwrap();
                (path, bytes)
            })
            .collect();
        files.sort();
        files
    }

    /// Writes `payloads` as one record each into small segments.
    fn write_log(dir: &Path, segment_bytes: u64, payloads: &[Vec<u8>]) {
        let (mut wal, _) = Wal::open(cfg(dir).segment_bytes(segment_bytes)).unwrap();
        for payload in payloads {
            wal.append(payload).unwrap();
        }
        wal.barrier().unwrap();
    }

    #[test]
    fn new_config_syncs_at_barriers_only() {
        // A constant: no environment variable steers an embedder's policy.
        assert_eq!(WalConfig::new("unused").flush, FlushPolicy::Barrier);
    }

    #[test]
    fn a_zero_segment_size_is_refused_before_the_directory_is_touched() {
        let dir = temp_dir("zero-segment");
        match Wal::recovery(cfg(&dir).segment_bytes(0)) {
            Err(WalError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
            Err(other) => panic!("refused as {other}"),
            Ok(_) => panic!("a zero segment size opened a log"),
        }
        assert!(!dir.exists(), "the refusal created the directory");
    }

    #[test]
    fn append_barrier_recover() {
        let dir = temp_dir("abr");
        {
            let mut opened = open(&dir);
            assert_eq!(opened.rec.checkpoint_seq, 0);
            assert!(opened.replayed.is_empty());
            assert!(!opened.rec.clean);
            assert_eq!(opened.wal.append(b"one").unwrap(), 1);
            assert_eq!(opened.wal.append(b"two").unwrap(), 2);
            opened.wal.barrier().unwrap();
        }
        let opened = open(&dir);
        assert_eq!(
            opened.replayed,
            [(1, b"one".to_vec()), (2, b"two".to_vec())]
        );
        assert!(!opened.rec.clean);
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
        let opened = open(&dir);
        assert_eq!(opened.rec.checkpoint_seq, 2);
        assert_eq!(opened.state.as_deref(), Some(b"STATE".as_slice()));
        assert_eq!(opened.replayed, [(3, b"c".to_vec())]);
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
        let opened = open(&dir);
        assert!(opened.rec.clean);
        assert_eq!(opened.rec.records, 0);
        assert_eq!(opened.state.as_deref(), Some(b"S".as_slice()));
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
        let opened = open(&dir);
        assert_eq!(opened.replayed, [(1, b"good".to_vec())]);
        assert!(opened.rec.truncated_bytes > 0);
        drop(opened);
        // The damage is gone from disk: a second open sees a clean log.
        let (_, rec2) = Wal::open(cfg(&dir)).unwrap();
        assert_eq!(rec2.truncated_bytes, 0);
        assert_eq!(rec2.records, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_and_checkpoint_trigger_fires() {
        let dir = temp_dir("roll");
        let (mut wal, _) = Wal::open(cfg(&dir).segment_bytes(64)).unwrap();
        let mut appended = 0;
        while !wal.wants_checkpoint() {
            wal.append(b"0123456789abcdef").unwrap();
            appended += 1;
            assert!(appended < 100, "checkpoint trigger never fired");
        }
        assert!(wal.live_segments() > CHECKPOINT_SEGMENTS);
        wal.checkpoint(b"S").unwrap();
        assert_eq!(wal.live_segments(), 1);
        assert!(!wal.wants_checkpoint());
        // Everything is covered; replay is empty but state survives.
        drop(wal);
        let opened = open(&dir);
        assert_eq!(opened.rec.records, 0);
        assert_eq!(opened.state.as_deref(), Some(b"S".as_slice()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn records_survive_any_read_boundary() {
        // 3-byte payloads frame to 19 bytes. A 24-byte buffer splits the
        // second frame's header (5 of its 16 bytes arrive first); 19 and 38
        // end a read exactly on a frame boundary, 20 and 40 one byte into
        // the next frame; 7 is smaller than a header, and the 100-byte
        // payload is longer than all of them, so the buffer has to grow to
        // hold that one frame.
        let dir = temp_dir("boundary");
        let mut payloads = vec![b"abc".to_vec(); 5];
        payloads.insert(3, vec![0x5A; 100]);
        write_log(&dir, 1 << 20, &payloads);
        let expected: Vec<(u64, Vec<u8>)> = (1..).zip(payloads).collect();
        for chunk in [24, 19, 38, 20, 40, 7, 1, SCAN_BUFFER_BYTES] {
            let opened = open_chunked(cfg(&dir), chunk);
            assert_eq!(opened.replayed, expected, "chunk {chunk}");
            assert_eq!(opened.rec.truncated_bytes, 0, "chunk {chunk}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_empty_segment_file_is_kept_and_reused() {
        let dir = temp_dir("empty");
        drop(Wal::open(cfg(&dir)).unwrap());
        let before = segment_files(&dir);
        assert_eq!(before.len(), 1);
        assert!(before[0].1.is_empty());

        let recovery = Wal::recovery(cfg(&dir)).unwrap();
        assert_eq!(recovery.segment_bytes(), 0);
        let (mut wal, rec) = recovery
            .replay(|_, _| panic!("an empty log has nothing to visit"))
            .unwrap();
        assert_eq!(
            rec,
            Recovered {
                checkpoint_seq: 0,
                records: 0,
                truncated_bytes: 0,
                clean: false
            }
        );
        assert_eq!(wal.active_path, before[0].0, "no second file");
        wal.append(b"x").unwrap();
        wal.barrier().unwrap();
        drop(wal);
        assert_eq!(open_chunked(cfg(&dir), 5).replayed, [(1, b"x".to_vec())]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_in_a_middle_segment_drops_every_later_one() {
        let dir = temp_dir("middle");
        let payloads: Vec<Vec<u8>> = (0..12u8).map(|i| vec![i; 16]).collect();
        write_log(&dir, 64, &payloads);
        let files = segment_files(&dir);
        assert!(files.len() >= 4, "{} segments", files.len());
        // Flip a payload bit of the second record of the second segment.
        let (path, mut bytes) = files[1].clone();
        let record_len = HEADER_LEN + 16;
        bytes[record_len + record_len - 1] ^= 0x10;
        fs::write(&path, &bytes).unwrap();

        let first_segment_records = files[0].1.len() / record_len;
        let later: u64 = files[2..].iter().map(|(_, b)| b.len() as u64).sum();
        let opened = open_chunked(cfg(&dir), 48);
        assert_eq!(opened.replayed.len(), first_segment_records + 1);
        assert_eq!(
            opened.rec.truncated_bytes,
            (bytes.len() - record_len) as u64 + later
        );
        assert!(!opened.rec.clean);
        assert_eq!(opened.wal.active_path, path, "appends resume after the cut");
        let expected = opened.replayed;
        drop(opened.wal);

        let after = segment_files(&dir);
        assert_eq!(after.len(), 2, "later segments are deleted");
        assert_eq!(after[0], files[0]);
        assert_eq!(after[1].1, files[1].1[..record_len]);
        let again = open(&dir);
        assert_eq!(again.rec.truncated_bytes, 0);
        assert_eq!(again.replayed, expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_log_cut_back_below_its_checkpoint_resumes_after_it() {
        let dir = temp_dir("below-checkpoint");
        let (mut wal, _) = Wal::open(cfg(&dir).segment_bytes(64)).unwrap();
        for i in 0..4 {
            wal.append(&[i; 16]).unwrap();
        }
        wal.barrier().unwrap();
        // A crash between the checkpoint's rename and its prune leaves the
        // covered segments behind.
        let stale = segment_files(&dir);
        assert_eq!(wal.checkpoint(b"S").unwrap(), 4);
        for (path, bytes) in &stale {
            if *path != wal.active_path {
                fs::write(path, bytes).unwrap();
            }
        }
        wal.append(b"after").unwrap();
        wal.barrier().unwrap();
        drop(wal);
        // Damage in the first stale frame cuts the log back to nothing the
        // checkpoint does not cover.
        let (path, mut bytes) = stale[0].clone();
        bytes[HEADER_LEN] ^= 1;
        fs::write(&path, &bytes).unwrap();

        let mut opened = open(&dir);
        assert!(opened.replayed.is_empty());
        assert!(opened.rec.truncated_bytes > 0);
        assert_eq!(opened.wal.append(b"kept").unwrap(), 5);
        assert_eq!(opened.wal.active_path, dir.join(format!("seg-{:020}", 5)));
        opened.wal.barrier().unwrap();
        drop(opened);
        assert_eq!(open(&dir).replayed, [(5, b"kept".to_vec())]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_visitor_error_stops_the_scan_and_changes_nothing() {
        let dir = temp_dir("refuse");
        write_log(&dir, 64, &vec![vec![7u8; 16]; 9]);
        let before = segment_files(&dir);
        let mut seen = 0;
        let refused = Wal::recovery_reading(cfg(&dir), 32)
            .unwrap()
            .replay(|_, _| {
                seen += 1;
                if seen == 4 {
                    return Err(io::Error::other("visitor refuses"));
                }
                Ok(())
            });
        assert!(matches!(refused, Err(WalError::Io(_))));
        assert_eq!(seen, 4, "nothing is visited after the refusal");
        assert_eq!(segment_files(&dir), before);
        assert_eq!(open(&dir).rec.records, 9);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Every entry of `dir` by name: file bytes, or `None` for a directory.
    fn dir_image(dir: &Path) -> std::collections::BTreeMap<String, Option<Vec<u8>>> {
        fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let name = path.file_name().unwrap().to_str().unwrap().to_owned();
                (name, fs::read(&path).ok())
            })
            .collect()
    }

    #[test]
    fn fresh_and_empty_directories_are_stamped_and_reopen() {
        let missing = temp_dir("fresh");
        let empty = temp_dir("empty-unstamped");
        fs::create_dir_all(&empty).unwrap();
        for dir in [missing, empty] {
            write_log(&dir, 1 << 20, &[b"row".to_vec()]);
            let stamp = fs::read(dir.join(FORMAT_FILE)).unwrap();
            assert_eq!(stamp, format!("{}\n", format_name()).as_bytes());
            assert_eq!(open(&dir).replayed, [(1, b"row".to_vec())]);
            assert_eq!(fs::read(dir.join(FORMAT_FILE)).unwrap(), stamp);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_log_without_this_formats_stamp_is_refused_untouched() {
        let format_4 = format!("ldp-wal log format 4, wire v{WIRE_VERSION}");
        let other_wire = format!("ldp-wal log format 5, wire v{}", WIRE_VERSION + 1);
        for (tag, stamp) in [
            ("unstamped", None),
            ("foreign", Some("ldp-wal log format 1")),
            ("format-2", Some("ldp-wal log format 2")),
            ("format-3", Some("ldp-wal log format 3")),
            ("format-4", Some(format_4.as_str())),
            ("other-wire", Some(other_wire.as_str())),
        ] {
            let dir = temp_dir(tag);
            let (mut wal, _) = Wal::open(cfg(&dir).segment_bytes(64)).unwrap();
            for i in 0..12 {
                wal.append(&[i; 16]).unwrap();
                if i == 5 {
                    wal.checkpoint(b"STATE").unwrap();
                }
            }
            wal.barrier().unwrap();
            drop(wal);
            match stamp {
                None => fs::remove_file(dir.join(FORMAT_FILE)).unwrap(),
                Some(stamp) => fs::write(dir.join(FORMAT_FILE), format!("{stamp}\n")).unwrap(),
            }
            fs::write(dir.join("ck-00000000000000000099.tmp"), b"in flight").unwrap();
            let before = dir_image(&dir);
            assert!(before.keys().any(|name| name.starts_with("seg-")));
            assert!(before.keys().any(|name| name.starts_with("ck-0")));

            match Wal::recovery(cfg(&dir)) {
                Err(WalError::Format { found }) => {
                    assert_eq!(found.as_deref(), stamp, "{tag}");
                }
                other => panic!("{tag}: {other:?}"),
            }
            assert!(matches!(Wal::open(cfg(&dir)), Err(WalError::Format { .. })));
            assert_eq!(dir_image(&dir), before, "{tag}: every byte unchanged");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// The frames of the checkpoint file at `path`: `(type, payload)` each,
    /// read with the wire's own header parse and checksum.
    fn checkpoint_frames(path: &Path) -> Vec<(u8, Vec<u8>)> {
        let image = fs::read(path).unwrap();
        let mut frames = Vec::new();
        let mut at = 0;
        while at < image.len() {
            let header = Header::parse(image[at..].first_chunk().unwrap()).unwrap();
            let payload = &image[at + HEADER_LEN..][..header.payload_len as usize];
            header.verify(payload).unwrap();
            frames.push((header.frame_type, payload.to_vec()));
            at += HEADER_LEN + payload.len();
        }
        frames
    }

    #[test]
    fn a_checkpoint_is_a_file_of_wire_frames() {
        let dir = temp_dir("ck-frames");
        let piece = DEFAULT_MAX_PAYLOAD as usize;
        let state: Vec<u8> = (0..=piece).map(|i| (i % 251) as u8).collect();
        let (mut wal, _) = Wal::open(cfg(&dir)).unwrap();
        wal.append(b"a").unwrap();
        let covered = wal.checkpoint(&state).unwrap();
        drop(wal);
        let frames = checkpoint_frames(&dir.join(format!("ck-{covered:020}")));
        let types: Vec<u8> = frames.iter().map(|(kind, _)| *kind).collect();
        assert_eq!(types, [CHECKPOINT, CHECKPOINT, SEAL]);
        assert_eq!((frames[0].1.len(), frames[1].1.len()), (piece, 1));
        assert!(frames[2].1.is_empty());
        assert_eq!([&frames[0].1[..], &frames[1].1[..]].concat(), state);
        let opened = open(&dir);
        assert_eq!(opened.rec.checkpoint_seq, covered);
        assert_eq!(opened.state.as_deref(), Some(&state[..]));
        drop(opened);

        // An empty state is a lone seal, and still a checkpoint.
        let covered = open(&dir).wal.checkpoint(b"").unwrap();
        let path = dir.join(format!("ck-{covered:020}"));
        assert_eq!(checkpoint_frames(&path), [(SEAL, Vec::new())]);
        assert_eq!(open(&dir).state.as_deref(), Some(&b""[..]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_checkpoint_of_unknown_version_fails_the_open_and_stays() {
        let dir = temp_dir("ck-version");
        write_log(&dir, 1 << 20, &[b"a".to_vec()]);
        let covered = Wal::open(cfg(&dir)).unwrap().0.checkpoint(b"S").unwrap();
        let path = dir.join(format!("ck-{covered:020}"));
        let mut image = fs::read(&path).unwrap();
        assert_eq!(image[4], WIRE_VERSION, "the first frame's version byte");
        image[4] = WIRE_VERSION + 1;
        fs::write(&path, &image).unwrap();
        let before = dir_image(&dir);
        assert!(matches!(
            Wal::recovery(cfg(&dir)),
            Err(WalError::Corrupt(_))
        ));
        assert_eq!(dir_image(&dir), before, "the checkpoint is kept");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_unreadable_checkpoint_fails_the_open() {
        let dir = temp_dir("ck-unreadable");
        write_log(&dir, 1 << 20, &[b"a".to_vec()]);
        let covered = Wal::open(cfg(&dir)).unwrap().0.checkpoint(b"S").unwrap();
        let path = dir.join(format!("ck-{covered:020}"));
        let image = fs::read(&path).unwrap();
        fs::remove_file(&path).unwrap();
        fs::create_dir(&path).unwrap();
        assert!(matches!(Wal::recovery(cfg(&dir)), Err(WalError::Io(_))));
        fs::remove_dir(&path).unwrap();
        fs::write(&path, image).unwrap();
        let opened = open(&dir);
        assert_eq!(opened.rec.checkpoint_seq, covered);
        assert_eq!(opened.state.as_deref(), Some(b"S".as_slice()));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Flips bit `bit` of byte `at` of the file at `path`.
    fn flip(path: &Path, at: usize, bit: u32) {
        let mut image = fs::read(path).unwrap();
        image[at] ^= 1 << bit;
        fs::write(path, &image).unwrap();
    }

    #[test]
    fn a_damaged_checkpoint_refuses_the_open_untouched() {
        // In both shapes a record was acked after the next older
        // checkpoint (or none), so falling back to it would lose that row.
        let sole = temp_dir("ck-damaged-sole");
        let (mut wal, _) = Wal::open(cfg(&sole)).unwrap();
        wal.append(b"a").unwrap();
        wal.append(b"b").unwrap();
        let sole_ck = sole.join(format!("ck-{:020}", wal.checkpoint(b"AB").unwrap()));
        wal.append(b"c").unwrap();
        wal.barrier().unwrap();
        drop(wal);

        let beside = temp_dir("ck-damaged-beside");
        let (mut wal, _) = Wal::open(cfg(&beside)).unwrap();
        wal.append(b"a").unwrap();
        let older = beside.join(format!("ck-{:020}", wal.checkpoint(b"OLD").unwrap()));
        let older_image = fs::read(&older).unwrap();
        wal.append(b"b").unwrap();
        wal.barrier().unwrap();
        let newer = beside.join(format!("ck-{:020}", wal.checkpoint(b"NEW").unwrap()));
        drop(wal);
        // The older checkpoint outlived its prune (a crash before it).
        fs::write(&older, &older_image).unwrap();

        for (dir, damaged, state) in [
            (&sole, &sole_ck, &b"AB"[..]),
            (&beside, &newer, &b"NEW"[..]),
        ] {
            let image = fs::read(damaged).unwrap();
            // One bit of the state's second byte.
            flip(damaged, HEADER_LEN + 1, 0);
            fs::write(dir.join("ck-00000000000000000099.tmp"), b"in flight").unwrap();
            let before = dir_image(dir);
            assert!(matches!(Wal::recovery(cfg(dir)), Err(WalError::Corrupt(_))));
            assert!(matches!(Wal::open(cfg(dir)), Err(WalError::Corrupt(_))));
            assert_eq!(dir_image(dir), before, "nothing removed, nothing truncated");

            // Undamaged, the same directory recovers every acked row.
            fs::write(damaged, &image).unwrap();
            let opened = open(dir);
            assert_eq!(opened.state.as_deref(), Some(state));
            assert_eq!(opened.rec.truncated_bytes, 0);
            fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn every_bit_flip_of_a_checkpoint_refuses_the_open_untouched() {
        let dir = temp_dir("ck-flips");
        let (mut wal, _) = Wal::open(cfg(&dir)).unwrap();
        wal.append(b"a").unwrap();
        let path = dir.join(format!("ck-{:020}", wal.checkpoint(b"STATE").unwrap()));
        wal.append(b"b").unwrap();
        wal.barrier().unwrap();
        drop(wal);
        let image = fs::read(&path).unwrap();
        assert_eq!(image.len(), 2 * HEADER_LEN + 5);
        for at in 0..image.len() {
            for bit in 0..8 {
                flip(&path, at, bit);
                let before = dir_image(&dir);
                assert!(
                    matches!(Wal::recovery(cfg(&dir)), Err(WalError::Corrupt(_))),
                    "flip {at}:{bit}"
                );
                assert_eq!(dir_image(&dir), before, "flip {at}:{bit}");
                flip(&path, at, bit);
            }
        }
        assert_eq!(open(&dir).replayed, [(2, b"b".to_vec())]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// What a whole-file scan of `files` (segment files in order) keeps —
    /// the loop `Wal::open` ran before it streamed.
    struct Reference {
        replayed: Vec<(u64, Vec<u8>)>,
        truncated_bytes: u64,
        /// Surviving length per segment; `None` once the file is deleted.
        lengths: Vec<Option<u64>>,
        clean: bool,
    }

    /// The log frame heading `data`: type, payload and encoded length, or
    /// `None` when `data` does not start with a whole valid one.
    fn whole_frame(data: &[u8]) -> Option<(u8, &[u8], usize)> {
        let header = Header::parse(data.first_chunk()?).ok()?;
        if header.payload_len > DEFAULT_MAX_PAYLOAD || !matches!(header.frame_type, INGEST | SEAL) {
            return None;
        }
        let payload = data[HEADER_LEN..].get(..header.payload_len as usize)?;
        header.verify(payload).ok()?;
        Some((header.frame_type, payload, HEADER_LEN + payload.len()))
    }

    fn reference_scan(files: &[(PathBuf, Vec<u8>)], checkpoint_seq: u64) -> Reference {
        let mut out = Reference {
            replayed: Vec::new(),
            truncated_bytes: 0,
            lengths: Vec::new(),
            clean: false,
        };
        let mut damaged = false;
        let mut next_seq = 0;
        for (path, data) in files {
            if damaged {
                out.truncated_bytes += data.len() as u64;
                out.lengths.push(None);
                continue;
            }
            let name = path.file_name().unwrap().to_str().unwrap();
            let mut seq: u64 = name.strip_prefix("seg-").unwrap().parse().unwrap();
            let mut off = 0;
            while off < data.len() {
                let Some((kind, payload, used)) = whole_frame(&data[off..]) else {
                    out.truncated_bytes += (data.len() - off) as u64;
                    damaged = true;
                    out.clean = false;
                    break;
                };
                out.clean = kind == SEAL;
                if kind == INGEST && seq > checkpoint_seq {
                    out.replayed.push((seq, payload.to_vec()));
                }
                seq += 1;
                off += used;
            }
            out.lengths.push(Some(off as u64));
            next_seq = seq;
        }
        // Cut back to records the checkpoint covers, the log resumes in a
        // fresh segment named for the sequence after the checkpoint's.
        if next_seq <= checkpoint_seq {
            let fresh = format!("seg-{:020}", checkpoint_seq + 1);
            for ((path, _), length) in files.iter().zip(&mut out.lengths) {
                if path.file_name() == Some(fresh.as_ref()) {
                    *length = Some(0);
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn streamed_scan_equals_a_whole_file_scan(
            lengths in proptest::collection::vec(0usize..90, 0..24),
            chunk in 1usize..80,
            checkpoint_after in 0usize..40,
            seal in any::<bool>(),
            damage in 0usize..3,
            at in any::<u64>(),
        ) {
            let dir = temp_dir("prop");
            let payloads: Vec<Vec<u8>> = lengths
                .iter()
                .enumerate()
                .map(|(i, &len)| (0..len).map(|b| (i * 31 + b) as u8).collect())
                .collect();
            {
                let (mut wal, _) = Wal::open(cfg(&dir).segment_bytes(150)).unwrap();
                for (i, payload) in payloads.iter().enumerate() {
                    wal.append(payload).unwrap();
                    if i + 1 == checkpoint_after {
                        // A crash between the checkpoint's rename and its
                        // prune: the covered segments are still there.
                        wal.barrier().unwrap();
                        let stale = segment_files(&dir);
                        wal.checkpoint(b"STATE").unwrap();
                        for (path, bytes) in stale {
                            if path != wal.active_path {
                                fs::write(path, bytes).unwrap();
                            }
                        }
                    }
                }
                if seal {
                    wal.seal().unwrap();
                }
                wal.barrier().unwrap();
            }

            // One cut or one bit flip somewhere in the log's bytes.
            let mut files = segment_files(&dir);
            let total: usize = files.iter().map(|(_, bytes)| bytes.len()).sum();
            if damage > 0 && total > 0 {
                let mut offset = (at % total as u64) as usize;
                let hit = files
                    .iter_mut()
                    .find(|(_, bytes)| {
                        let inside = offset < bytes.len();
                        if !inside {
                            offset -= bytes.len();
                        }
                        inside
                    })
                    .expect("offset is inside the log");
                if damage == 1 {
                    hit.1.truncate(offset);
                } else {
                    hit.1[offset] ^= 1 << ((at >> 32) % 8);
                }
                fs::write(&hit.0, &hit.1).unwrap();
            }

            let checkpoint_seq = if (1..=payloads.len()).contains(&checkpoint_after) {
                checkpoint_after as u64
            } else {
                0
            };
            let expected = reference_scan(&files, checkpoint_seq);

            let opened = open_chunked(cfg(&dir), chunk);
            prop_assert_eq!(opened.rec.checkpoint_seq, checkpoint_seq);
            prop_assert_eq!(&opened.replayed, &expected.replayed);
            prop_assert_eq!(opened.rec.truncated_bytes, expected.truncated_bytes);
            prop_assert_eq!(opened.rec.clean, expected.clean);
            drop(opened);
            let surviving: Vec<Option<u64>> = files
                .iter()
                .map(|(path, _)| fs::metadata(path).ok().map(|m| m.len()))
                .collect();
            prop_assert_eq!(surviving, expected.lengths);
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}
