//! The versioned, length-prefixed binary wire protocol.
//!
//! Every message on the wire is one **frame**: the 16-byte envelope
//! (magic, [`WIRE_VERSION`], frame type, reserved, payload length, payload
//! checksum), then the payload its frame type lays out, all
//! little-endian. The envelope — its layout, constants, [`split_frame`] /
//! [`Header::verify`], the one [`FrameReader`] and the writer — is defined
//! once in [`ldp_wal::record`] and re-exported here, because the
//! write-ahead log is a file of these same frames. This module owns the
//! frame types and their payloads.
//!
//! Design rules:
//!
//! * **Versioning** — the version byte is checked on every frame; a
//!   decoder that sees a newer version refuses the frame (`
//!   UnknownVersion`) rather than guessing at the payload layout. New
//!   frame types may be added within a version (old servers answer them
//!   with an [`Frame::Error`] frame); any change to an *existing*
//!   payload layout bumps the version.
//! * **Length-prefixed** — the header carries the exact payload length,
//!   so a reader never scans for delimiters and can enforce a hard size
//!   bound *before* allocating ([`WireError::Oversized`]).
//! * **Checksummed** — the payload checksum ([`checksum`]) is verified
//!   before any payload byte is interpreted, so a corrupt or truncated
//!   frame surfaces as [`WireError::BadChecksum`]/[`WireError::Truncated`]
//!   instead of a garbage [`ReportBatch`] poisoning shard accumulators.
//! * **Columnar ingest** — the ingest payload carries the
//!   [`ReportBatch`] columns (users / slots / values) back-to-back, so
//!   decoding is bulk column copies; no per-report parsing. Each id
//!   column travels as a `u64` base plus 0/1/2/4/8-byte offsets, the
//!   width sized from that frame's own span ([`IngestView`] has the
//!   layout); values stay raw `f64` bits, so folds are bit-identical.
//! * **One decode per layout** — [`Frame::decode_body`] parses every
//!   payload layout into the owned [`Frame`] in one walk, reserving
//!   nothing from a count the payload claims. The ingest payload, the one
//!   worth decoding without a copy, is parsed by [`IngestView`] into
//!   slices *over the receive buffer* and widened only into a reusable
//!   [`IngestScratch`] (a byte-aligned copy is unavoidable: the wire
//!   layout is packed little-endian with no alignment guarantee), so a
//!   long-lived connection ingests with **zero steady-state heap
//!   allocation**. A server reads a [`FrameView`]: the borrowed ingest, or
//!   any other request owned — those carry only scalars, so they allocate
//!   nothing either — while a server-to-client frame type is refused from
//!   its type byte before its payload is parsed ([`decode_request`]).
//!
//! The codec is pure (`&[u8]` ↔ [`Frame`], ingest also ↔ [`IngestView`])
//! and std-only; sockets are read in [`crate::transport`].

use ldp_collector::{ReportBatch, ReportColumns, SlotStats, SnapshotPart};
use ldp_telemetry::{
    HistogramSnapshot, MetricEntry, MetricValue, TelemetrySnapshot, HISTOGRAM_BUCKETS,
};

/// Version byte of the metrics-snapshot payload carried by
/// [`Frame::Metrics`] — versioned independently of the envelope so the
/// snapshot layout can evolve without a protocol-wide bump.
pub const METRICS_SNAPSHOT_VERSION: u8 = 1;
/// Most reports one ingest frame may carry, whatever its id widths: as
/// many 24-byte full-width rows as fit [`DEFAULT_MAX_PAYLOAD`]. Narrow id
/// columns shrink a row to as little as 8 bytes, so without this bound a
/// 16 MiB payload could claim ~2M rows and make the receiver's decode
/// scratch (24 bytes a row once widened) three times the payload.
pub const MAX_INGEST_ROWS: usize = DEFAULT_MAX_PAYLOAD as usize / 24;
/// Hard bound on the slot count one [`Frame::QueryWindowedMean`],
/// [`Frame::QuerySlotMeans`] or (after clipping to the retained range)
/// [`Frame::QueryParts`] may ask a tier for — bounds the response
/// allocation, and the `QueryParts` fan-out a router answers a windowed
/// mean from, so every tier refuses the same queries.
pub const MAX_QUERY_SLOTS: u64 = 1 << 16;

/// Error codes carried by [`Frame::Error`].
pub mod code {
    /// The peer sent bytes that do not parse as a frame.
    pub const MALFORMED: u16 = 1;
    /// The frame parsed but the server cannot handle it (e.g. a query
    /// frame type this server does not implement).
    pub const UNSUPPORTED: u16 = 2;
    /// The server is at its connection limit.
    pub const BUSY: u16 = 3;
    /// The query parsed but its arguments are invalid (e.g. an empty or
    /// inverted slot range).
    pub const BAD_QUERY: u16 = 4;
    /// A federation tier could not reach every downstream it needs for
    /// an exact answer; the healthy subset is still being served.
    pub const DEGRADED: u16 = 5;
    /// A durable server could not persist an ingest frame to its
    /// write-ahead log; the frame was **not** folded (fail-closed — an
    /// unlogged fold would be silently lost on crash) and the connection
    /// closes so the client's ledger stays truthful.
    pub const UNAVAILABLE: u16 = 6;
}

/// Everything that can go wrong turning bytes into a [`Frame`].
#[derive(Debug)]
pub enum WireError {
    /// The stream ended mid-header or mid-payload.
    Truncated,
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte is one this decoder does not speak.
    UnknownVersion(u8),
    /// The frame-type byte names no known frame.
    UnknownFrameType(u8),
    /// Reserved header bytes were non-zero.
    BadReserved,
    /// The payload length exceeds the reader's configured bound.
    Oversized {
        /// Length the header claimed.
        len: u32,
        /// The reader's bound.
        max: u32,
    },
    /// The payload checksum did not match.
    BadChecksum,
    /// The payload parsed structurally but violated a frame invariant.
    BadPayload(&'static str),
    /// Transport error while reading or writing a frame.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnknownVersion(v) => write!(f, "unknown wire version {v}"),
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            WireError::BadReserved => write!(f, "reserved header bytes not zero"),
            WireError::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds bound {max}")
            }
            WireError::BadChecksum => write!(f, "payload checksum mismatch"),
            WireError::BadPayload(what) => write!(f, "bad payload: {what}"),
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(io) => io,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// `Result` alias for codec operations.
pub type WireResult<T> = Result<T, WireError>;

/// The envelope — [`ldp_wal::record`], re-exported: the write-ahead log
/// is a file of wire frames, so the two share one definition of the
/// header, its constants and the checksum (and `ldp-wal` stays
/// dependency-free).
pub use ldp_wal::record::{
    checksum, split_frame, EnvelopeError, FrameReader, Header, DEFAULT_MAX_PAYLOAD, HEADER_LEN,
    MAGIC, WIRE_VERSION,
};
use ldp_wal::record::{envelope, INGEST};

impl From<EnvelopeError> for WireError {
    fn from(e: EnvelopeError) -> Self {
        match e {
            EnvelopeError::BadMagic(magic) => WireError::BadMagic(magic),
            EnvelopeError::UnknownVersion(version) => WireError::UnknownVersion(version),
            EnvelopeError::BadReserved => WireError::BadReserved,
            EnvelopeError::Oversized { len, max } => WireError::Oversized { len, max },
            EnvelopeError::BadChecksum => WireError::BadChecksum,
        }
    }
}

/// [`Header::verify`], then what a server makes of a request: `None` for a
/// server-to-client frame type, refused from the type byte alone — its
/// payload is never parsed, so a misdirected reply costs no allocation
/// whatever it claims to hold — and the [`FrameView`] of any other.
///
/// # Errors
/// [`WireError::BadChecksum`], or whatever [`FrameView::decode_body`]
/// raises.
pub fn decode_request<'a>(header: &Header, payload: &'a [u8]) -> WireResult<Option<FrameView<'a>>> {
    header.verify(payload)?;
    if is_reply(header.frame_type) {
        return Ok(None);
    }
    FrameView::decode_body(header.frame_type, payload).map(Some)
}

/// Snapshot-level summary served by [`Frame::QuerySummary`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SummaryBody {
    /// Total reports accepted (retained + frozen).
    pub total_reports: u64,
    /// Distinct users seen.
    pub user_count: u64,
    /// First retained slot.
    pub retained_base: u64,
    /// One past the highest slot covered.
    pub slot_end: u64,
    /// Reports folded into the frozen (expired) prefix.
    pub frozen_count: u64,
    /// Population-mean estimate, `None` before any user reported.
    pub population_mean: Option<f64>,
}

/// One protocol message. Client→server frames are `Ingest`, `IngestSync`,
/// the `Query*` family and `Goodbye`; server→client frames are
/// `IngestAck`, the query responses and `Error`.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A columnar report upload (fire-and-forget: no per-frame ack; see
    /// [`Frame::IngestSync`]). `rejected_upstream` counts reports the
    /// client itself refused (non-finite values) so the server ledger
    /// still accounts for them.
    Ingest {
        /// Client-side rejections to fold into the server's ledger.
        rejected_upstream: u64,
        /// User-id column.
        users: Vec<u64>,
        /// Slot-index column.
        slots: Vec<u64>,
        /// Value column.
        values: Vec<f64>,
    },
    /// Barrier: asks the server to acknowledge everything ingested on
    /// this connection so far.
    IngestSync,
    /// Reply to [`Frame::IngestSync`]: this connection's disposition
    /// totals.
    IngestAck {
        /// Reports accepted from this connection.
        accepted: u64,
        /// Reports dropped (slot out of bounds) from this connection.
        dropped: u64,
        /// Reports rejected (non-finite, incl. upstream) from this
        /// connection.
        rejected: u64,
    },
    /// Crowd query: the population-mean estimate.
    QueryPopulationMean,
    /// Reply to [`Frame::QueryPopulationMean`].
    PopulationMean {
        /// The estimate, `None` before any user reported.
        mean: Option<f64>,
    },
    /// Windowed query: the mean over slots `start..end`.
    QueryWindowedMean {
        /// First slot of the window.
        start: u64,
        /// One past the last slot of the window.
        end: u64,
    },
    /// Reply to [`Frame::QueryWindowedMean`].
    WindowedMean {
        /// The windowed mean, `None` if any slot is unreported/expired.
        mean: Option<f64>,
    },
    /// Windowed query: each slot's own mean over `start..end`.
    QuerySlotMeans {
        /// First slot.
        start: u64,
        /// One past the last slot.
        end: u64,
    },
    /// Reply to [`Frame::QuerySlotMeans`].
    SlotMeans {
        /// First slot the means cover.
        start: u64,
        /// Per-slot means, `None` where unreported/expired.
        means: Vec<Option<f64>>,
    },
    /// Snapshot-summary query.
    QuerySummary,
    /// Reply to [`Frame::QuerySummary`].
    Summary(SummaryBody),
    /// Telemetry query: asks for a full metrics snapshot.
    QueryMetrics,
    /// Reply to [`Frame::QueryMetrics`]: every registered metric —
    /// counters, gauges, and full histogram bucket arrays — as a
    /// versioned [`TelemetrySnapshot`] (see [`METRICS_SNAPSHOT_VERSION`]).
    Metrics(TelemetrySnapshot),
    /// Server-reported failure (see [`code`]). After a framing-level
    /// error the server closes the connection — the stream position is no
    /// longer trustworthy; query-level errors keep the connection open.
    Error {
        /// One of the [`code`] constants.
        code: u16,
        /// Human-readable context.
        message: String,
    },
    /// Polite connection close.
    Goodbye,
    /// Federation query (added in v3): asks for the raw per-slot stats
    /// and scalar ledger over `start..end`, clipped server-side to the
    /// retained range. Unlike the human-facing query verbs an empty (or
    /// fully expired) range is fine — the reply still carries the scalar
    /// ledger, which is all a population-mean merge needs.
    QueryParts {
        /// First slot requested.
        start: u64,
        /// One past the last slot requested (`u64::MAX` = everything
        /// retained).
        end: u64,
    },
    /// Reply to [`Frame::QueryParts`]: this collector's mergeable
    /// contribution (see [`SnapshotPart`]) — per-slot
    /// count/sum/sum-of-squares records plus the frozen aggregate and
    /// the scalar user ledger, everything a router needs to reproduce
    /// the single-process answers exactly.
    Parts(SnapshotPart),
}

// Frame-type discriminants.
const FT_INGEST: u8 = INGEST;
const FT_INGEST_SYNC: u8 = 2;
const FT_INGEST_ACK: u8 = 3;
const FT_QUERY_POPULATION_MEAN: u8 = 4;
const FT_POPULATION_MEAN: u8 = 5;
const FT_QUERY_WINDOWED_MEAN: u8 = 6;
const FT_WINDOWED_MEAN: u8 = 7;
const FT_QUERY_SLOT_MEANS: u8 = 8;
const FT_SLOT_MEANS: u8 = 9;
const FT_QUERY_SUMMARY: u8 = 10;
const FT_SUMMARY: u8 = 11;
const FT_ERROR: u8 = 12;
const FT_GOODBYE: u8 = 13;
const FT_QUERY_METRICS: u8 = 14;
const FT_METRICS: u8 = 15;
// 16 and 17 (v3's liveness probe and its reply) are unassigned: like any
// unknown type, they decode to `WireError::UnknownFrameType`.
const FT_QUERY_PARTS: u8 = 18;
const FT_PARTS: u8 = 19;

/// The range spanning every assigned frame-type discriminant (used by the
/// server to size its per-frame-type telemetry counters; the unassigned
/// ones inside it have no [`frame_type_name`] and get no counter).
pub(crate) const KNOWN_FRAME_TYPES: std::ops::RangeInclusive<u8> = FT_INGEST..=FT_PARTS;

/// Whether `frame_type` travels server to client — the one definition of
/// a frame type's direction. A server refuses these unparsed
/// ([`decode_request`]).
fn is_reply(frame_type: u8) -> bool {
    matches!(
        frame_type,
        FT_INGEST_ACK
            | FT_POPULATION_MEAN
            | FT_WINDOWED_MEAN
            | FT_SLOT_MEANS
            | FT_SUMMARY
            | FT_METRICS
            | FT_ERROR
            | FT_PARTS
    )
}

/// Stable lowercase name of a frame type (for metric names and
/// dashboards), or `None` for an unassigned discriminant.
#[must_use]
pub fn frame_type_name(frame_type: u8) -> Option<&'static str> {
    Some(match frame_type {
        FT_INGEST => "ingest",
        FT_INGEST_SYNC => "ingest_sync",
        FT_INGEST_ACK => "ingest_ack",
        FT_QUERY_POPULATION_MEAN => "query_population_mean",
        FT_POPULATION_MEAN => "population_mean",
        FT_QUERY_WINDOWED_MEAN => "query_windowed_mean",
        FT_WINDOWED_MEAN => "windowed_mean",
        FT_QUERY_SLOT_MEANS => "query_slot_means",
        FT_SLOT_MEANS => "slot_means",
        FT_QUERY_SUMMARY => "query_summary",
        FT_SUMMARY => "summary",
        FT_ERROR => "error",
        FT_GOODBYE => "goodbye",
        FT_QUERY_METRICS => "query_metrics",
        FT_METRICS => "metrics",
        FT_QUERY_PARTS => "query_parts",
        FT_PARTS => "parts",
        _ => return None,
    })
}

/// Little-endian payload reader with explicit truncation errors.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u16(&mut self) -> WireResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn i64(&mut self) -> WireResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn opt_f64(&mut self) -> WireResult<Option<f64>> {
        let tag = self.take(1)?[0];
        let value = self.f64()?;
        match tag {
            0 => Ok(None),
            1 => Ok(Some(value)),
            _ => Err(WireError::BadPayload("option tag must be 0 or 1")),
        }
    }

    fn slot_stats(&mut self) -> WireResult<SlotStats> {
        Ok(SlotStats {
            count: self.u64()?,
            sum: self.f64()?,
            sum_sq: self.f64()?,
        })
    }

    /// A [`Frame::Parts`] payload:
    ///
    /// ```text
    /// u64 retained_base | u64 slot_end | u64 start | u32 count
    /// count × (u64 count, f64 sum, f64 sum_sq)   per-slot records from start
    /// frozen (u64, f64, f64) | u64 total_reports | u64 user_count | f64 user_mean_sum
    /// ```
    ///
    /// The record count is cross-checked against the payload length, and
    /// the slot range for consistency, before any record is read.
    fn part(&mut self) -> WireResult<SnapshotPart> {
        const DISAGREE: WireError = WireError::BadPayload("parts records disagree with count");
        const INCONSISTENT: WireError = WireError::BadPayload("parts slot range inconsistent");
        let retained_base = self.u64()?;
        let slot_end = self.u64()?;
        let start = self.u64()?;
        let count = self.u32()? as usize;
        // Checked for the same reason as the ingest cross-check: a wrap on
        // 32-bit targets must refuse, not alias. 48 bytes of scalars
        // follow the records.
        let record_bytes = count.checked_mul(24).ok_or(DISAGREE)?;
        if self.buf.len().checked_sub(48) != Some(record_bytes) {
            return Err(DISAGREE);
        }
        let covered_end = start.checked_add(count as u64).ok_or(INCONSISTENT)?;
        if start < retained_base || covered_end > slot_end.max(start) {
            return Err(INCONSISTENT);
        }
        Ok(SnapshotPart {
            retained_base,
            slot_end,
            start,
            slots: (0..count)
                .map(|_| self.slot_stats())
                .collect::<WireResult<_>>()?,
            frozen: self.slot_stats()?,
            total_reports: self.u64()?,
            user_count: self.u64()?,
            user_mean_sum: self.f64()?,
        })
    }

    /// A [`Frame::Metrics`] payload, in one walk that fails as soon as the
    /// payload runs out (so a hostile entry count forces no allocation):
    ///
    /// ```text
    /// u8   snapshot version (must be METRICS_SNAPSHOT_VERSION)
    /// u32  entry count
    /// then per entry, in strictly ascending name order:
    ///   u16  name length     name bytes (UTF-8)
    ///   u8   kind            0 counter | 1 gauge | 2 histogram
    ///   counter:   u64 value
    ///   gauge:     i64 value
    ///   histogram: u64 sum, u64 max, u8 bucket count (≤ 64), count × u64
    /// ```
    ///
    /// A histogram whose buckets add up past `u64::MAX` is refused, so
    /// every decoded histogram's `count()` is its exact bucket total.
    fn snapshot(&mut self) -> WireResult<TelemetrySnapshot> {
        if self.take(1)?[0] != METRICS_SNAPSHOT_VERSION {
            return Err(WireError::BadPayload("unknown metrics snapshot version"));
        }
        let count = self.u32()?;
        let mut entries: Vec<MetricEntry> = Vec::new();
        for _ in 0..count {
            let name_len = usize::from(self.u16()?);
            let name = std::str::from_utf8(self.take(name_len)?)
                .map_err(|_| WireError::BadPayload("metric name not utf-8"))?;
            // Strictly ascending order makes the decoded snapshot honor
            // the sorted-unique invariant its lookups rely on.
            if entries
                .last()
                .is_some_and(|prev| prev.name.as_str() >= name)
            {
                return Err(WireError::BadPayload("metric names not strictly ascending"));
            }
            let value = match self.take(1)?[0] {
                0 => MetricValue::Counter(self.u64()?),
                1 => MetricValue::Gauge(self.i64()?),
                2 => {
                    let sum = self.u64()?;
                    let max = self.u64()?;
                    let buckets = usize::from(self.take(1)?[0]);
                    if buckets > HISTOGRAM_BUCKETS {
                        return Err(WireError::BadPayload("histogram bucket count exceeds 64"));
                    }
                    let buckets: Vec<u64> = (0..buckets)
                        .map(|_| self.u64())
                        .collect::<WireResult<_>>()?;
                    if buckets
                        .iter()
                        .try_fold(0u64, |total, &n| total.checked_add(n))
                        .is_none()
                    {
                        return Err(WireError::BadPayload(
                            "histogram bucket total overflows u64",
                        ));
                    }
                    MetricValue::Histogram(HistogramSnapshot::from_parts(sum, max, buckets))
                }
                _ => return Err(WireError::BadPayload("unknown metric kind")),
            };
            entries.push(MetricEntry {
                name: name.to_owned(),
                value,
            });
        }
        Ok(TelemetrySnapshot { entries })
    }

    fn finish(&self) -> WireResult<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::BadPayload("trailing bytes after payload"))
        }
    }
}

/// Bytes `entries` take as a [`Frame::Metrics`] payload (the layout is
/// `Reader::snapshot`'s) — what a tier assembling a snapshot from other
/// tiers' checks against [`DEFAULT_MAX_PAYLOAD`].
#[must_use]
pub fn metrics_payload_len<'a>(entries: impl IntoIterator<Item = &'a MetricEntry>) -> usize {
    let value_len = |value: &MetricValue| match value {
        MetricValue::Counter(_) | MetricValue::Gauge(_) => 8,
        MetricValue::Histogram(h) => 17 + 8 * h.buckets().len(),
    };
    5 + entries
        .into_iter()
        .map(|entry| 3 + entry.name.len() + value_len(&entry.value))
        .sum::<usize>()
}

/// Bulk-decodes a packed little-endian `f64`-bits column into `dst`.
fn fill_f64_column(dst: &mut Vec<f64>, raw: &[u8]) {
    debug_assert_eq!(raw.len() % 8, 0, "column byte length validated at parse");
    dst.clear();
    dst.extend(
        raw.chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8"))),
    );
}

/// The offset widths an id column may travel at, in bytes.
const ID_WIDTHS: [usize; 5] = [0, 1, 2, 4, 8];

/// The largest offset a `width`-byte column can hold.
fn max_offset(width: usize) -> u64 {
    if width == 0 {
        0
    } else {
        u64::MAX >> (64 - 8 * width)
    }
}

/// One narrow id column as it travels: `count` little-endian offsets of
/// `width` bytes each, added to `base`. Width 0 means every row equals
/// the base; width 8 forces base 0. Both rules follow from the one parse
/// check that `base + max_offset(width)` fits a `u64`, so no decoded id
/// can wrap.
#[derive(Debug, Clone, Copy)]
struct IdColumn<'a> {
    width: usize,
    base: u64,
    raw: &'a [u8],
}

impl<'a> IdColumn<'a> {
    /// The narrowest `(width, base)` that covers `ids`: one min/max pass,
    /// then the smallest width whose largest offset covers the span. The
    /// base is the minimum, lowered where needed so that `base` plus the
    /// width's largest offset still fits a `u64` (the parse rule): ids up
    /// against `u64::MAX` keep their narrow width, and width 8 gets base 0.
    fn fit(ids: &[u64]) -> (usize, u64) {
        if ids.is_empty() {
            return (0, 0);
        }
        let (lo, hi) = ids
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &id| (lo.min(id), hi.max(id)));
        let width = ID_WIDTHS
            .into_iter()
            .find(|&w| hi - lo <= max_offset(w))
            .expect("width 8 covers every span");
        (width, lo.min(u64::MAX - max_offset(width)))
    }

    /// Reads a column header — width code, then base — refusing a width
    /// outside [`ID_WIDTHS`] and a base whose largest offset overflows.
    fn header(r: &mut Reader<'_>) -> WireResult<(usize, u64)> {
        let width = usize::from(r.take(1)?[0]);
        let base = r.u64()?;
        if !ID_WIDTHS.contains(&width) {
            return Err(WireError::BadPayload("ingest id width not 0, 1, 2, 4 or 8"));
        }
        if base.checked_add(max_offset(width)).is_none() {
            return Err(WireError::BadPayload(
                "ingest id base overflows at its width",
            ));
        }
        Ok((width, base))
    }

    /// The id of row `row`.
    fn get(&self, row: usize) -> u64 {
        let w = self.width;
        let bytes = &self.raw[w * row..w * row + w];
        self.base
            + match w {
                0 => 0,
                1 => u64::from(bytes[0]),
                2 => u64::from(u16::from_le_bytes(bytes.try_into().expect("2"))),
                4 => u64::from(u32::from_le_bytes(bytes.try_into().expect("4"))),
                _ => u64::from_le_bytes(bytes.try_into().expect("8")),
            }
    }

    /// Widens the column into `dst` (cleared first; capacity is reused,
    /// so a warmed buffer makes this a pure widen). One loop per width:
    /// a fixed-size load and an add per row, no branch inside the loop.
    fn widen(&self, count: usize, dst: &mut Vec<u64>) {
        fn run<const W: usize>(dst: &mut Vec<u64>, raw: &[u8], base: u64) {
            dst.extend(raw.chunks_exact(W).map(|c| {
                let mut word = [0u8; 8];
                word[..W].copy_from_slice(c);
                base + u64::from_le_bytes(word)
            }));
        }
        dst.clear();
        match self.width {
            0 => dst.resize(count, self.base),
            1 => run::<1>(dst, self.raw, self.base),
            2 => run::<2>(dst, self.raw, self.base),
            4 => run::<4>(dst, self.raw, self.base),
            _ => run::<8>(dst, self.raw, self.base),
        }
    }
}

/// Appends the `width`-byte cells `rows` of the packed column `raw`.
///
/// # Panics
/// If a row index is out of range (never reads past `raw`).
fn gather(buf: &mut Vec<u8>, raw: &[u8], width: usize, rows: &[u32]) {
    fn run<const W: usize>(out: &mut [u8], raw: &[u8], rows: &[u32]) {
        let len = raw.len() / W;
        for (out, &row) in out.chunks_exact_mut(W).zip(rows) {
            let row = row as usize;
            assert!(row < len, "row {row} out of range for a {len}-row frame");
            out.copy_from_slice(&raw[W * row..W * row + W]);
        }
    }
    let at = buf.len();
    buf.resize(at + width * rows.len(), 0);
    let out = &mut buf[at..];
    match width {
        0 => {}
        1 => run::<1>(out, raw, rows),
        2 => run::<2>(out, raw, rows),
        4 => run::<4>(out, raw, rows),
        _ => run::<8>(out, raw, rows),
    }
}

/// Writes an id column's header: width code, then base.
fn put_id_header(buf: &mut Vec<u8>, width: usize, base: u64) {
    buf.push(u8::try_from(width).expect("width is at most 8"));
    buf.extend_from_slice(&base.to_le_bytes());
}

/// Writes `ids` as `width`-byte offsets from `base` into `out`.
fn narrow_into(out: &mut [u8], ids: &[u64], width: usize, base: u64) {
    fn run<const W: usize>(out: &mut [u8], ids: &[u64], base: u64) {
        for (out, &id) in out.chunks_exact_mut(W).zip(ids) {
            out.copy_from_slice(&(id - base).to_le_bytes()[..W]);
        }
    }
    match width {
        0 => {}
        1 => run::<1>(out, ids, base),
        2 => run::<2>(out, ids, base),
        4 => run::<4>(out, ids, base),
        _ => run::<8>(out, ids, base),
    }
}

/// Reusable per-connection decode scratch for [`IngestView::columns`]:
/// three column buffers that keep their capacity across frames, so the
/// steady-state ingest decode performs no heap allocation.
#[derive(Debug, Default)]
pub struct IngestScratch {
    users: Vec<u64>,
    slots: Vec<u64>,
    values: Vec<f64>,
}

impl IngestScratch {
    /// The columns [`IngestView::columns`] last widened into this scratch.
    pub(crate) fn columns(&self) -> ReportColumns<'_> {
        ReportColumns::new(&self.users, &self.slots, &self.values)
    }
}

/// Borrowed decode of an ingest payload: the three report columns as
/// **byte slices over the receive buffer**, structurally validated (id
/// widths and bases checked, count cross-checked against the payload
/// length) but not yet widened to `u64`/`f64`.
///
/// Payload layout (all little-endian):
///
/// ```text
/// u64 rejected_upstream | u32 count
/// u8 user_width | u64 user_base | u8 slot_width | u64 slot_base
/// count × user_width bytes   user − user_base
/// count × slot_width bytes   slot − slot_base
/// count × 8 bytes            value f64 bits
/// ```
///
/// Each id width is one of 0, 1, 2, 4, 8 — the smallest that covers the
/// column's span in the frame that was encoded. A row is therefore
/// 8 + `user_width` + `slot_width` bytes, 24 only when both id columns
/// span 2³² or more.
///
/// The wire layout is packed with no alignment guarantee, so reading the
/// columns requires a byte-aligned copy; [`Self::columns`] makes exactly
/// one, widening into a reusable [`IngestScratch`], and hands back a
/// borrowed [`ReportColumns`] the collector ingests directly — no `Vec`
/// allocation, no owned [`ReportBatch`], no second copy.
#[derive(Debug, Clone, Copy)]
pub struct IngestView<'a> {
    rejected_upstream: u64,
    count: usize,
    users: IdColumn<'a>,
    slots: IdColumn<'a>,
    values: &'a [u8],
}

impl<'a> IngestView<'a> {
    /// Parses an ingest payload into column slices. Same validation (and
    /// same errors) as the owned decoder. Every check — the count against
    /// [`MAX_INGEST_ROWS`], id widths, id bases, and the count against the
    /// payload size — runs
    /// *before* any column byte is read, so a hostile header cannot force
    /// an allocation here or later.
    ///
    /// # Errors
    /// [`WireError::Truncated`] / [`WireError::BadPayload`].
    pub fn parse(payload: &'a [u8]) -> WireResult<Self> {
        let mut r = Reader { buf: payload };
        let rejected_upstream = r.u64()?;
        let count = r.u32()? as usize;
        if count > MAX_INGEST_ROWS {
            return Err(WireError::BadPayload(
                "ingest frame exceeds MAX_INGEST_ROWS",
            ));
        }
        let (user_width, user_base) = IdColumn::header(&mut r)?;
        let (slot_width, slot_base) = IdColumn::header(&mut r)?;
        // Checked: on a 32-bit target a hostile count near u32::MAX would
        // wrap the product to a small number and sail past the
        // cross-check; overflow must refuse the frame, not alias it.
        let column_bytes = count
            .checked_mul(user_width + slot_width + 8)
            .ok_or(WireError::BadPayload("ingest columns disagree with count"))?;
        if r.buf.len() != column_bytes {
            return Err(WireError::BadPayload("ingest columns disagree with count"));
        }
        let users = IdColumn {
            width: user_width,
            base: user_base,
            raw: r.take(count * user_width)?,
        };
        let slots = IdColumn {
            width: slot_width,
            base: slot_base,
            raw: r.take(count * slot_width)?,
        };
        let values = r.take(count * 8)?;
        r.finish()?;
        Ok(Self {
            rejected_upstream,
            count,
            users,
            slots,
            values,
        })
    }

    /// Number of reports the frame carries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the frame carries no reports.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Client-side rejections riding along for the server's ledger.
    #[must_use]
    pub fn rejected_upstream(&self) -> u64 {
        self.rejected_upstream
    }

    /// The user-id column, decoded on the fly from the receive buffer —
    /// all a router needs to partition the frame, so it widens nothing.
    pub fn users(&self) -> impl ExactSizeIterator<Item = u64> + 'a {
        let users = self.users;
        (0..self.count).map(move |row| users.get(row))
    }

    /// Appends one ingest frame carrying this frame's rows `rows` (row
    /// indices, in that order) and `rejected_upstream` — the router's
    /// fan-out hot path: each column is gathered straight from the
    /// receive buffer into `buf`, the only copy a routed row gets. The
    /// sub-frame keeps this frame's id widths and bases (valid for any
    /// subset of its rows), so it decodes to exactly the chosen rows and
    /// is never wider than this frame.
    ///
    /// # Panics
    /// If a row index is out of range.
    pub fn encode_rows_into(&self, rows: &[u32], rejected_upstream: u64, buf: &mut Vec<u8>) {
        envelope(buf, FT_INGEST, |buf| {
            write_ingest_preamble(buf, rejected_upstream, rows.len());
            let (users, slots) = (self.users, self.slots);
            put_id_header(buf, users.width, users.base);
            put_id_header(buf, slots.width, slots.base);
            gather(buf, users.raw, users.width, rows);
            gather(buf, slots.raw, slots.width, rows);
            gather(buf, self.values, 8, rows);
        });
    }

    /// Decodes the columns into `scratch` (one widening copy per column,
    /// reusing the scratch capacity) and returns them as a borrowed
    /// [`ReportColumns`] ready for `Collector::ingest_outcome` — the
    /// zero-allocation ingest path.
    pub fn columns<'s>(&self, scratch: &'s mut IngestScratch) -> ReportColumns<'s> {
        self.users.widen(self.count, &mut scratch.users);
        self.slots.widen(self.count, &mut scratch.slots);
        fill_f64_column(&mut scratch.values, self.values);
        ReportColumns::new(&scratch.users, &scratch.slots, &scratch.values)
    }

    /// Materializes the owned frame (the cold path — tests, relays).
    #[must_use]
    pub fn to_frame(&self) -> Frame {
        let mut users = Vec::new();
        let mut slots = Vec::new();
        let mut values = Vec::new();
        self.users.widen(self.count, &mut users);
        self.slots.widen(self.count, &mut slots);
        fill_f64_column(&mut values, self.values);
        Frame::Ingest {
            rejected_upstream: self.rejected_upstream,
            users,
            slots,
            values,
        }
    }
}

/// A decoded frame as a server reads it: an ingest frame borrowed, as an
/// [`IngestView`] over the receive buffer, and any other frame owned.
/// Every other client-to-server frame carries only scalars, so decoding a
/// request allocates nothing either way.
#[derive(Debug, Clone)]
pub enum FrameView<'a> {
    /// Borrowed [`Frame::Ingest`].
    Ingest(IngestView<'a>),
    /// Any other frame, as [`Frame::decode_body`] decodes it.
    Owned(Frame),
}

impl<'a> FrameView<'a> {
    /// Decodes a payload whose header named `frame_type` (checksum must
    /// already be verified — see [`Header::verify`]): an ingest payload
    /// with [`IngestView::parse`], any other with [`Frame::decode_body`].
    ///
    /// # Errors
    /// As [`Frame::decode_body`].
    pub fn decode_body(frame_type: u8, payload: &'a [u8]) -> WireResult<Self> {
        if frame_type == FT_INGEST {
            IngestView::parse(payload).map(FrameView::Ingest)
        } else {
            Frame::decode_body(frame_type, payload).map(FrameView::Owned)
        }
    }
}

/// Writes what precedes an ingest payload's columns: the rejected count,
/// then the report count.
fn write_ingest_preamble(buf: &mut Vec<u8>, rejected_upstream: u64, rows: usize) {
    buf.extend_from_slice(&rejected_upstream.to_le_bytes());
    let count = u32::try_from(rows).expect("batch exceeds u32::MAX reports");
    buf.extend_from_slice(&count.to_le_bytes());
}

/// Writes the ingest payload layout (preamble, the two id column headers,
/// then the three columns back-to-back; see [`IngestView`]) — shared by
/// the enum encoder and the hot-path batch encoder so the two can never
/// drift.
fn write_ingest_payload(
    buf: &mut Vec<u8>,
    rejected_upstream: u64,
    users: &[u64],
    slots: &[u64],
    values: &[f64],
) {
    assert!(
        users.len() == slots.len() && slots.len() == values.len(),
        "ingest columns disagree in length"
    );
    write_ingest_preamble(buf, rejected_upstream, users.len());
    let (user_width, user_base) = IdColumn::fit(users);
    let (slot_width, slot_base) = IdColumn::fit(slots);
    put_id_header(buf, user_width, user_base);
    put_id_header(buf, slot_width, slot_base);
    // Size the three columns once, then fill them in place: one bounds
    // check per column instead of one `extend` per element.
    let rows = users.len();
    let columns_at = buf.len();
    buf.resize(columns_at + (user_width + slot_width + 8) * rows, 0);
    let (user_bytes, rest) = buf[columns_at..].split_at_mut(user_width * rows);
    let (slot_bytes, value_bytes) = rest.split_at_mut(slot_width * rows);
    narrow_into(user_bytes, users, user_width, user_base);
    narrow_into(slot_bytes, slots, slot_width, slot_base);
    for (out, value) in value_bytes.chunks_exact_mut(8).zip(values) {
        out.copy_from_slice(&value.to_bits().to_le_bytes());
    }
}

fn put_opt_f64(buf: &mut Vec<u8>, v: Option<f64>) {
    buf.push(u8::from(v.is_some()));
    buf.extend_from_slice(&v.unwrap_or(0.0).to_bits().to_le_bytes());
}

impl Frame {
    /// The frame-type byte this frame encodes as.
    #[must_use]
    pub fn frame_type(&self) -> u8 {
        match self {
            Frame::Ingest { .. } => FT_INGEST,
            Frame::IngestSync => FT_INGEST_SYNC,
            Frame::IngestAck { .. } => FT_INGEST_ACK,
            Frame::QueryPopulationMean => FT_QUERY_POPULATION_MEAN,
            Frame::PopulationMean { .. } => FT_POPULATION_MEAN,
            Frame::QueryWindowedMean { .. } => FT_QUERY_WINDOWED_MEAN,
            Frame::WindowedMean { .. } => FT_WINDOWED_MEAN,
            Frame::QuerySlotMeans { .. } => FT_QUERY_SLOT_MEANS,
            Frame::SlotMeans { .. } => FT_SLOT_MEANS,
            Frame::QuerySummary => FT_QUERY_SUMMARY,
            Frame::Summary(_) => FT_SUMMARY,
            Frame::QueryMetrics => FT_QUERY_METRICS,
            Frame::Metrics(_) => FT_METRICS,
            Frame::Error { .. } => FT_ERROR,
            Frame::Goodbye => FT_GOODBYE,
            Frame::QueryParts { .. } => FT_QUERY_PARTS,
            Frame::Parts(_) => FT_PARTS,
        }
    }

    /// Appends this frame — header and payload — to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        envelope(buf, self.frame_type(), |buf| self.encode_payload(buf));
    }

    /// Encodes this frame into a fresh buffer.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_LEN + 64);
        self.encode_into(&mut buf);
        buf
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::Ingest {
                rejected_upstream,
                users,
                slots,
                values,
            } => write_ingest_payload(buf, *rejected_upstream, users, slots, values),
            Frame::IngestSync
            | Frame::QueryPopulationMean
            | Frame::QuerySummary
            | Frame::QueryMetrics
            | Frame::Goodbye => {}
            Frame::IngestAck {
                accepted,
                dropped,
                rejected,
            } => {
                buf.extend_from_slice(&accepted.to_le_bytes());
                buf.extend_from_slice(&dropped.to_le_bytes());
                buf.extend_from_slice(&rejected.to_le_bytes());
            }
            Frame::PopulationMean { mean } | Frame::WindowedMean { mean } => {
                put_opt_f64(buf, *mean);
            }
            Frame::QueryWindowedMean { start, end } | Frame::QuerySlotMeans { start, end } => {
                buf.extend_from_slice(&start.to_le_bytes());
                buf.extend_from_slice(&end.to_le_bytes());
            }
            Frame::SlotMeans { start, means } => {
                buf.extend_from_slice(&start.to_le_bytes());
                let count = u32::try_from(means.len()).expect("means exceed u32::MAX slots");
                buf.extend_from_slice(&count.to_le_bytes());
                for &m in means {
                    put_opt_f64(buf, m);
                }
            }
            Frame::Summary(s) => {
                buf.extend_from_slice(&s.total_reports.to_le_bytes());
                buf.extend_from_slice(&s.user_count.to_le_bytes());
                buf.extend_from_slice(&s.retained_base.to_le_bytes());
                buf.extend_from_slice(&s.slot_end.to_le_bytes());
                buf.extend_from_slice(&s.frozen_count.to_le_bytes());
                put_opt_f64(buf, s.population_mean);
            }
            Frame::Metrics(snap) => {
                buf.push(METRICS_SNAPSHOT_VERSION);
                let count =
                    u32::try_from(snap.entries.len()).expect("snapshot exceeds u32::MAX metrics");
                buf.extend_from_slice(&count.to_le_bytes());
                for entry in &snap.entries {
                    let name_len = u16::try_from(entry.name.len())
                        .expect("metric name exceeds u16::MAX bytes");
                    buf.extend_from_slice(&name_len.to_le_bytes());
                    buf.extend_from_slice(entry.name.as_bytes());
                    match &entry.value {
                        MetricValue::Counter(v) => {
                            buf.push(0);
                            buf.extend_from_slice(&v.to_le_bytes());
                        }
                        MetricValue::Gauge(v) => {
                            buf.push(1);
                            buf.extend_from_slice(&v.to_le_bytes());
                        }
                        MetricValue::Histogram(h) => {
                            buf.push(2);
                            buf.extend_from_slice(&h.sum().to_le_bytes());
                            buf.extend_from_slice(&h.max().to_le_bytes());
                            buf.push(u8::try_from(h.buckets().len()).expect("≤ 64 buckets"));
                            for &b in h.buckets() {
                                buf.extend_from_slice(&b.to_le_bytes());
                            }
                        }
                    }
                }
            }
            Frame::Error { code, message } => {
                buf.extend_from_slice(&code.to_le_bytes());
                let len = u32::try_from(message.len()).expect("message exceeds u32::MAX bytes");
                buf.extend_from_slice(&len.to_le_bytes());
                buf.extend_from_slice(message.as_bytes());
            }
            Frame::QueryParts { start, end } => {
                buf.extend_from_slice(&start.to_le_bytes());
                buf.extend_from_slice(&end.to_le_bytes());
            }
            Frame::Parts(p) => {
                debug_assert!(
                    p.start >= p.retained_base
                        && p.start + p.slots.len() as u64 <= p.slot_end.max(p.start),
                    "parts slot range inconsistent"
                );
                buf.extend_from_slice(&p.retained_base.to_le_bytes());
                buf.extend_from_slice(&p.slot_end.to_le_bytes());
                buf.extend_from_slice(&p.start.to_le_bytes());
                let count = u32::try_from(p.slots.len()).expect("parts exceed u32::MAX slots");
                buf.extend_from_slice(&count.to_le_bytes());
                for s in &p.slots {
                    buf.extend_from_slice(&s.count.to_le_bytes());
                    buf.extend_from_slice(&s.sum.to_bits().to_le_bytes());
                    buf.extend_from_slice(&s.sum_sq.to_bits().to_le_bytes());
                }
                buf.extend_from_slice(&p.frozen.count.to_le_bytes());
                buf.extend_from_slice(&p.frozen.sum.to_bits().to_le_bytes());
                buf.extend_from_slice(&p.frozen.sum_sq.to_bits().to_le_bytes());
                buf.extend_from_slice(&p.total_reports.to_le_bytes());
                buf.extend_from_slice(&p.user_count.to_le_bytes());
                buf.extend_from_slice(&p.user_mean_sum.to_bits().to_le_bytes());
            }
        }
    }

    /// Appends an ingest frame built directly from `batch` — the upload
    /// hot path: columns are written straight from the batch's storage
    /// into the frame buffer, no intermediate [`Frame`] allocation.
    /// Wire-identical to encoding the [`Frame::Ingest`] that holds the
    /// batch's columns and client-side rejection count.
    pub fn encode_ingest_into(batch: &ReportBatch, buf: &mut Vec<u8>) {
        envelope(buf, FT_INGEST, |buf| {
            write_ingest_payload(
                buf,
                batch.rejected_non_finite(),
                batch.users(),
                batch.slots(),
                batch.values(),
            );
        });
    }

    /// Decodes a payload whose header named `frame_type` (checksum must
    /// already be verified — see [`Header::verify`]) — the one parser of
    /// every payload layout, walking it once; an ingest payload goes
    /// through [`IngestView::parse`]. Validation is exhaustive, and no
    /// layout reserves anything from a count it claims: a hostile count
    /// fails the length cross-check or runs out of payload first.
    ///
    /// # Errors
    /// [`WireError::UnknownFrameType`] / [`WireError::Truncated`] /
    /// [`WireError::BadPayload`].
    pub fn decode_body(frame_type: u8, payload: &[u8]) -> WireResult<Frame> {
        let mut r = Reader { buf: payload };
        let frame = match frame_type {
            FT_INGEST => return IngestView::parse(payload).map(|ingest| ingest.to_frame()),
            FT_INGEST_SYNC => Frame::IngestSync,
            FT_INGEST_ACK => Frame::IngestAck {
                accepted: r.u64()?,
                dropped: r.u64()?,
                rejected: r.u64()?,
            },
            FT_QUERY_POPULATION_MEAN => Frame::QueryPopulationMean,
            FT_POPULATION_MEAN => Frame::PopulationMean { mean: r.opt_f64()? },
            FT_QUERY_WINDOWED_MEAN => Frame::QueryWindowedMean {
                start: r.u64()?,
                end: r.u64()?,
            },
            FT_WINDOWED_MEAN => Frame::WindowedMean { mean: r.opt_f64()? },
            FT_QUERY_SLOT_MEANS => Frame::QuerySlotMeans {
                start: r.u64()?,
                end: r.u64()?,
            },
            FT_SLOT_MEANS => {
                let start = r.u64()?;
                let count = r.u32()? as usize;
                // Checked for the same reason as the ingest cross-check:
                // a wrap on 32-bit targets must refuse, not alias.
                if count.checked_mul(9) != Some(r.buf.len()) {
                    return Err(WireError::BadPayload("slot means disagree with count"));
                }
                let means = (0..count).map(|_| r.opt_f64()).collect::<WireResult<_>>()?;
                Frame::SlotMeans { start, means }
            }
            FT_QUERY_SUMMARY => Frame::QuerySummary,
            FT_SUMMARY => Frame::Summary(SummaryBody {
                total_reports: r.u64()?,
                user_count: r.u64()?,
                retained_base: r.u64()?,
                slot_end: r.u64()?,
                frozen_count: r.u64()?,
                population_mean: r.opt_f64()?,
            }),
            FT_QUERY_METRICS => Frame::QueryMetrics,
            FT_METRICS => Frame::Metrics(r.snapshot()?),
            FT_ERROR => {
                let code = r.u16()?;
                let len = r.u32()? as usize;
                let message = std::str::from_utf8(r.take(len)?)
                    .map_err(|_| WireError::BadPayload("error message not utf-8"))?;
                Frame::Error {
                    code,
                    message: message.to_owned(),
                }
            }
            FT_GOODBYE => Frame::Goodbye,
            FT_QUERY_PARTS => Frame::QueryParts {
                start: r.u64()?,
                end: r.u64()?,
            },
            FT_PARTS => Frame::Parts(r.part()?),
            other => return Err(WireError::UnknownFrameType(other)),
        };
        r.finish()?;
        Ok(frame)
    }

    /// Decodes one complete frame from the start of `bytes` ([`split_frame`],
    /// verify, [`Frame::decode_body`]), returning it with the number of
    /// bytes consumed. Pure-buffer counterpart of [`FrameReader`].
    ///
    /// # Errors
    /// Any [`WireError`] the header, checksum, or payload raises;
    /// `max_payload` bounds the accepted payload length.
    pub fn decode(bytes: &[u8], max_payload: u32) -> WireResult<(Frame, usize)> {
        let (header, payload) = split_frame(bytes, max_payload)?.or(Err(WireError::Truncated))?;
        header.verify(payload)?;
        let frame = Frame::decode_body(header.frame_type, payload)?;
        Ok((frame, HEADER_LEN + payload.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(frame: &Frame) {
        let bytes = frame.encode();
        let (decoded, consumed) = Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD)
            .unwrap_or_else(|e| panic!("decode failed for {frame:?}: {e}"));
        assert_eq!(consumed, bytes.len(), "whole frame consumed");
        assert_eq!(&decoded, frame);
    }

    #[test]
    fn every_frame_type_round_trips() {
        let frames = [
            Frame::Ingest {
                rejected_upstream: 2,
                users: vec![1, 2, u64::MAX],
                slots: vec![0, 5, 9],
                values: vec![0.25, -1.5, f64::NAN],
            },
            Frame::IngestSync,
            Frame::IngestAck {
                accepted: 10,
                dropped: 1,
                rejected: 2,
            },
            Frame::QueryPopulationMean,
            Frame::PopulationMean { mean: Some(0.5) },
            Frame::PopulationMean { mean: None },
            Frame::QueryWindowedMean { start: 3, end: 11 },
            Frame::WindowedMean { mean: Some(-0.25) },
            Frame::QuerySlotMeans { start: 0, end: 4 },
            Frame::SlotMeans {
                start: 7,
                means: vec![Some(0.1), None, Some(0.9)],
            },
            Frame::QuerySummary,
            Frame::Summary(SummaryBody {
                total_reports: 1000,
                user_count: 50,
                retained_base: 12,
                slot_end: 44,
                frozen_count: 600,
                population_mean: Some(0.42),
            }),
            Frame::QueryMetrics,
            Frame::Metrics(TelemetrySnapshot {
                entries: vec![
                    MetricEntry {
                        name: "a.count".into(),
                        value: MetricValue::Counter(42),
                    },
                    MetricEntry {
                        name: "b.level".into(),
                        value: MetricValue::Gauge(-7),
                    },
                    MetricEntry {
                        name: "c.nanos".into(),
                        value: MetricValue::Histogram(HistogramSnapshot::from_parts(
                            1234,
                            999,
                            vec![1, 0, 3, 7],
                        )),
                    },
                ],
            }),
            Frame::Metrics(TelemetrySnapshot::default()),
            Frame::Metrics(sample_snapshot()),
            Frame::Error {
                code: code::MALFORMED,
                message: "bad frame".into(),
            },
            Frame::Goodbye,
            Frame::QueryParts {
                start: 3,
                end: u64::MAX,
            },
            Frame::Parts(SnapshotPart {
                retained_base: 4,
                slot_end: 9,
                start: 6,
                slots: vec![
                    SlotStats {
                        count: 3,
                        sum: 1.5,
                        sum_sq: 0.875,
                    },
                    SlotStats::default(),
                    SlotStats {
                        count: 1,
                        sum: -0.25,
                        sum_sq: 0.0625,
                    },
                ],
                frozen: SlotStats {
                    count: 40,
                    sum: 20.0,
                    sum_sq: 10.5,
                },
                total_reports: 44,
                user_count: 7,
                user_mean_sum: 3.25,
            }),
            Frame::Parts(SnapshotPart::default()),
        ];
        for frame in &frames {
            match frame {
                // NaN != NaN, so the ingest case is checked structurally.
                Frame::Ingest {
                    users,
                    slots,
                    values,
                    rejected_upstream,
                } => {
                    let bytes = frame.encode();
                    let (decoded, n) = Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD).unwrap();
                    assert_eq!(n, bytes.len());
                    match decoded {
                        Frame::Ingest {
                            rejected_upstream: ru,
                            users: u,
                            slots: s,
                            values: v,
                        } => {
                            assert_eq!(ru, *rejected_upstream);
                            assert_eq!(&u, users);
                            assert_eq!(&s, slots);
                            assert_eq!(
                                v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                                values.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                                "values round-trip bit-exactly, NaN included"
                            );
                        }
                        other => panic!("decoded wrong frame {other:?}"),
                    }
                }
                _ => round_trip(frame),
            }
        }

        // Quantiles survive the wire: same buckets, same estimates.
        let snap = sample_snapshot();
        let bytes = Frame::Metrics(snap.clone()).encode();
        let Ok((Frame::Metrics(decoded), _)) = Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD) else {
            panic!("a metrics frame decodes as metrics");
        };
        let h = decoded.histogram("ingest.fold_nanos").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 1 << 30);
        assert_eq!(h.p99(), snap.histogram("ingest.fold_nanos").unwrap().p99());

        // The assigned types span the range the per-type books index;
        // 16 and 17 inside it are unassigned and decode like any unknown.
        assert_eq!(KNOWN_FRAME_TYPES, 1..=19);
        for ft in 1..=20 {
            let assigned = !matches!(ft, 16 | 17 | 20);
            assert_eq!(frame_type_name(ft).is_some(), assigned, "type {ft}");
        }
        for ft in [16, 17] {
            assert!(matches!(
                Frame::decode(&frame_with_payload(ft, &[0; 8]), DEFAULT_MAX_PAYLOAD),
                Err(WireError::UnknownFrameType(t)) if t == ft
            ));
        }

        // `metrics_payload_len` is the encoder's payload length, exactly.
        for frame in &frames {
            if let Frame::Metrics(snap) = frame {
                let payload = metrics_payload_len(&snap.entries);
                assert_eq!(frame.encode().len(), HEADER_LEN + payload);
            }
        }
    }

    #[test]
    fn hot_path_ingest_encoder_matches_the_enum_encoder() {
        let mut batch = ReportBatch::new();
        batch.push(1, 0, 0.5);
        batch.push(2, 1, f64::NAN); // rejected client-side, rides as count
        batch.push(3, 2, -0.25);
        let mut direct = Vec::new();
        Frame::encode_ingest_into(&batch, &mut direct);
        let enum_frame = Frame::Ingest {
            rejected_upstream: batch.rejected_non_finite(),
            users: batch.users().to_vec(),
            slots: batch.slots().to_vec(),
            values: batch.values().to_vec(),
        };
        assert_eq!(direct, enum_frame.encode());
    }

    #[test]
    fn borrowed_ingest_decode_matches_owned_and_reuses_scratch() {
        let mut batch = ReportBatch::new();
        batch.push(7, 3, 0.125);
        batch.push(8, 4, -0.5);
        batch.push(9, 200, 0.75);
        let mut bytes = Vec::new();
        Frame::encode_ingest_into(&batch, &mut bytes);
        let payload = &bytes[HEADER_LEN..];

        let view = IngestView::parse(payload).expect("valid payload");
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        let mut scratch = IngestScratch::default();
        let columns = view.columns(&mut scratch);
        assert_eq!(columns.users(), batch.users());
        assert_eq!(columns.slots(), batch.slots());
        assert_eq!(columns.values(), batch.values());

        // The same scratch serves the next frame without reallocating.
        let mut batch2 = ReportBatch::new();
        batch2.push(1, 0, 0.5);
        let mut bytes2 = Vec::new();
        Frame::encode_ingest_into(&batch2, &mut bytes2);
        let view2 = IngestView::parse(&bytes2[HEADER_LEN..]).unwrap();
        let columns2 = view2.columns(&mut scratch);
        assert_eq!(columns2.len(), 1);
        assert_eq!(columns2.users(), &[1]);

        // Owned materialization agrees with the enum decoder.
        let owned = view.to_frame();
        assert_eq!(
            owned,
            Frame::decode_body(FT_INGEST, payload).expect("owned decode")
        );
    }

    fn sample_snapshot() -> TelemetrySnapshot {
        let registry = ldp_telemetry::Registry::new();
        registry.counter("ingest.accepted").add(1_000_000);
        registry.gauge("connections.active").set(3);
        let h = registry.histogram("ingest.fold_nanos");
        for v in [90, 2_000, 65_000, 1 << 30] {
            h.record(v);
        }
        registry.snapshot()
    }

    fn metrics_frame_with_payload(payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(WIRE_VERSION);
        bytes.push(FT_METRICS);
        bytes.extend_from_slice(&[0, 0]);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&checksum(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn hostile_metrics_entry_count_cannot_force_allocation() {
        // A snapshot claiming u32::MAX entries in a 5-byte payload must
        // fail the structural walk, not trigger a huge reservation.
        let mut payload = vec![METRICS_SNAPSHOT_VERSION];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&metrics_frame_with_payload(&payload), DEFAULT_MAX_PAYLOAD),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn metrics_snapshot_version_is_checked() {
        let mut bytes = Frame::Metrics(sample_snapshot()).encode();
        bytes[HEADER_LEN] = METRICS_SNAPSHOT_VERSION + 1;
        // Re-checksum so only the snapshot version is at fault.
        let sum = checksum(&bytes[HEADER_LEN..]);
        bytes[12..16].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadPayload("unknown metrics snapshot version"))
        ));
    }

    #[test]
    fn hostile_metrics_payloads_are_refused() {
        let encode_entry = |name: &str, kind: u8| {
            let mut p = Vec::new();
            p.extend_from_slice(&(name.len() as u16).to_le_bytes());
            p.extend_from_slice(name.as_bytes());
            p.push(kind);
            p.extend_from_slice(&7u64.to_le_bytes());
            p
        };
        let with_entries = |entries: &[Vec<u8>]| {
            let mut p = vec![METRICS_SNAPSHOT_VERSION];
            p.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for e in entries {
                p.extend_from_slice(e);
            }
            p
        };

        // Unknown metric kind.
        let bad_kind = with_entries(&[encode_entry("a", 3)]);
        // Names out of order (and duplicates, which "not strictly
        // ascending" also covers).
        let unsorted = with_entries(&[encode_entry("b", 0), encode_entry("a", 0)]);
        let duplicate = with_entries(&[encode_entry("a", 0), encode_entry("a", 0)]);
        // One histogram "h" claiming `claimed` buckets, then `buckets`.
        let histogram = |claimed: u8, buckets: &[u64]| {
            let mut p = vec![METRICS_SNAPSHOT_VERSION];
            p.extend_from_slice(&1u32.to_le_bytes());
            p.extend_from_slice(&(1u16).to_le_bytes());
            p.push(b'h');
            p.push(2);
            p.extend_from_slice(&[0; 16]); // sum, max
            p.push(claimed);
            for b in buckets {
                p.extend_from_slice(&b.to_le_bytes());
            }
            p
        };
        // Histogram claiming more than 64 buckets.
        let fat_hist = histogram(65, &[0; 65]);
        // Buckets whose total overflows u64: `count()` and the quantiles
        // add them up.
        let overflowing = histogram(2, &[u64::MAX, 1]);
        // Non-UTF-8 name.
        let mut bad_name = vec![METRICS_SNAPSHOT_VERSION];
        bad_name.extend_from_slice(&1u32.to_le_bytes());
        bad_name.extend_from_slice(&(2u16).to_le_bytes());
        bad_name.extend_from_slice(&[0xFF, 0xFE]);
        bad_name.push(0);
        bad_name.extend_from_slice(&0u64.to_le_bytes());

        for payload in [
            bad_kind,
            unsorted,
            duplicate,
            fat_hist,
            overflowing,
            bad_name,
        ] {
            assert!(matches!(
                Frame::decode(&metrics_frame_with_payload(&payload), DEFAULT_MAX_PAYLOAD),
                Err(WireError::BadPayload(_))
            ));
        }
        // A total of exactly `u64::MAX` still fits, and counts exactly.
        let full = metrics_frame_with_payload(&histogram(2, &[u64::MAX, 0]));
        let Ok((Frame::Metrics(snap), _)) = Frame::decode(&full, DEFAULT_MAX_PAYLOAD) else {
            panic!("a full histogram decodes");
        };
        assert_eq!(snap.histogram("h").unwrap().count(), u64::MAX);

        // Truncation anywhere in a valid metrics frame is caught (by the
        // checksum at the envelope level, or Truncated below it).
        let good = Frame::Metrics(sample_snapshot()).encode();
        let payload = good[HEADER_LEN..].to_vec();
        for cut in 0..payload.len() {
            assert!(
                Frame::decode_body(FT_METRICS, &payload[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    fn frame_with_payload(frame_type: u8, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(WIRE_VERSION);
        bytes.push(frame_type);
        bytes.extend_from_slice(&[0, 0]);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&checksum(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn hostile_parts_payloads_are_refused() {
        // A record count that disagrees with the payload length (here:
        // u32::MAX records in a scalar-only payload) must be refused by
        // the cross-check, not by OOM.
        let mut hostile_count = Vec::new();
        for scalar in [0u64, 0, 0] {
            hostile_count.extend_from_slice(&scalar.to_le_bytes());
        }
        hostile_count.extend_from_slice(&u32::MAX.to_le_bytes());
        hostile_count.extend_from_slice(&[0u8; 48]);
        assert!(matches!(
            Frame::decode(
                &frame_with_payload(FT_PARTS, &hostile_count),
                DEFAULT_MAX_PAYLOAD
            ),
            Err(WireError::BadPayload(_))
        ));

        // Records starting below the owner's retained base are
        // structurally inconsistent.
        let mut below_base = Frame::Parts(SnapshotPart {
            retained_base: 5,
            slot_end: 7,
            start: 5,
            slots: vec![SlotStats::default()],
            ..SnapshotPart::default()
        })
        .encode();
        below_base[HEADER_LEN + 16..HEADER_LEN + 24].copy_from_slice(&2u64.to_le_bytes());
        let sum = checksum(&below_base[HEADER_LEN..]);
        below_base[12..16].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Frame::decode(&below_base, DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadPayload("parts slot range inconsistent"))
        ));

        // Records running past the claimed slot_end are refused too.
        let mut past_end = Frame::Parts(SnapshotPart {
            retained_base: 0,
            slot_end: 4,
            start: 2,
            slots: vec![SlotStats::default(); 2],
            ..SnapshotPart::default()
        })
        .encode();
        past_end[HEADER_LEN + 8..HEADER_LEN + 16].copy_from_slice(&3u64.to_le_bytes());
        let sum = checksum(&past_end[HEADER_LEN..]);
        past_end[12..16].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Frame::decode(&past_end, DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadPayload("parts slot range inconsistent"))
        ));

        // Truncation anywhere in a valid parts frame is caught (by the
        // checksum at the envelope level, or Truncated/BadPayload below).
        let good = Frame::Parts(SnapshotPart {
            retained_base: 1,
            slot_end: 4,
            start: 1,
            slots: vec![
                SlotStats {
                    count: 2,
                    sum: 0.5,
                    sum_sq: 0.25,
                },
                SlotStats::default(),
                SlotStats::default(),
            ],
            frozen: SlotStats {
                count: 1,
                sum: 0.125,
                sum_sq: 0.015_625,
            },
            total_reports: 3,
            user_count: 2,
            user_mean_sum: 0.375,
        })
        .encode();
        let payload = good[HEADER_LEN..].to_vec();
        for cut in 0..payload.len() {
            assert!(
                Frame::decode_body(FT_PARTS, &payload[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn truncated_header_is_rejected() {
        let bytes = Frame::IngestSync.encode();
        for cut in 0..HEADER_LEN {
            assert!(
                matches!(
                    Frame::decode(&bytes[..cut], DEFAULT_MAX_PAYLOAD),
                    Err(WireError::Truncated)
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let bytes = Frame::QueryWindowedMean { start: 0, end: 9 }.encode();
        for cut in HEADER_LEN..bytes.len() {
            assert!(matches!(
                Frame::decode(&bytes[..cut], DEFAULT_MAX_PAYLOAD),
                Err(WireError::Truncated)
            ));
        }
    }

    #[test]
    fn bad_magic_version_and_reserved_are_rejected() {
        let good = Frame::IngestSync.encode();
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Frame::decode(&bad_magic, DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadMagic(_))
        ));
        let mut bad_version = good.clone();
        bad_version[4] = WIRE_VERSION + 1;
        assert!(matches!(
            Frame::decode(&bad_version, DEFAULT_MAX_PAYLOAD),
            Err(WireError::UnknownVersion(_))
        ));
        // A v4 peer (one-lane checksum) is refused by version, before its
        // payload or checksum is looked at.
        let mut v4 = Frame::PopulationMean { mean: Some(0.5) }.encode();
        v4[4] = 4;
        assert!(matches!(
            Frame::decode(&v4, DEFAULT_MAX_PAYLOAD),
            Err(WireError::UnknownVersion(4))
        ));
        // So is a v5 peer (full-width ingest ids).
        let mut v5 = Frame::Ingest {
            rejected_upstream: 0,
            users: vec![1],
            slots: vec![2],
            values: vec![0.5],
        }
        .encode();
        v5[4] = 5;
        assert!(matches!(
            Frame::decode(&v5, DEFAULT_MAX_PAYLOAD),
            Err(WireError::UnknownVersion(5))
        ));
        let mut bad_reserved = good;
        bad_reserved[6] = 1;
        assert!(matches!(
            Frame::decode(&bad_reserved, DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadReserved)
        ));
    }

    #[test]
    fn corrupt_payload_fails_the_checksum() {
        let mut bytes = Frame::PopulationMean { mean: Some(0.5) }.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadChecksum)
        ));
    }

    #[test]
    fn corrupt_header_checksum_field_is_caught() {
        let mut bytes = Frame::IngestSync.encode();
        bytes[12] ^= 0xFF;
        assert!(matches!(
            Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadChecksum)
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_reading_the_payload() {
        let mut bytes = Frame::IngestSync.encode();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes, 1024),
            Err(WireError::Oversized { max: 1024, .. })
        ));
    }

    #[test]
    fn unknown_frame_type_is_rejected_with_valid_checksum() {
        let mut bytes = Frame::IngestSync.encode();
        bytes[5] = 200;
        assert!(matches!(
            Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(WireError::UnknownFrameType(200))
        ));
    }

    /// An ingest payload: preamble, the two id column headers (width code,
    /// base), then `body` zero bytes standing in for the columns.
    fn ingest_payload(count: u32, user: (u8, u64), slot: (u8, u64), body: usize) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&count.to_le_bytes());
        for (width, base) in [user, slot] {
            payload.push(width);
            payload.extend_from_slice(&base.to_le_bytes());
        }
        payload.resize(payload.len() + body, 0);
        payload
    }

    #[test]
    fn hostile_ingest_count_cannot_force_allocation() {
        // Every refusal comes from the header checks or the length
        // cross-check, before a column byte is read — never from OOM.
        let max_rows = u32::try_from(MAX_INGEST_ROWS).expect("fits u32");
        let refused = [
            // u32::MAX reports behind a valid column header in a short
            // payload.
            ("hostile count", ingest_payload(u32::MAX, (1, 0), (0, 7), 9)),
            (
                "hostile count, narrowest ids",
                ingest_payload(u32::MAX, (0, 0), (0, 0), 8),
            ),
            // A count inside the row bound still meets the length
            // cross-check.
            (
                "short payload at the row bound",
                ingest_payload(max_rows, (1, 0), (0, 7), 9),
            ),
            // Length-consistent, but more rows than a full-width frame
            // could carry: width-0 ids must not let 16 MiB claim ~2M rows.
            (
                "one row past the row bound, width-0 ids",
                ingest_payload(max_rows + 1, (0, 0), (0, 0), 8 * (MAX_INGEST_ROWS + 1)),
            ),
            ("user width 3", ingest_payload(2, (3, 0), (0, 0), 2 * 11)),
            ("user width 5", ingest_payload(2, (5, 0), (0, 0), 2 * 13)),
            ("slot width 9", ingest_payload(2, (0, 0), (9, 0), 2 * 17)),
            (
                "user base u64::MAX at width 1",
                ingest_payload(2, (1, u64::MAX), (0, 0), 2 * 9),
            ),
            (
                "slot base u64::MAX at width 1",
                ingest_payload(2, (0, 0), (1, u64::MAX), 2 * 9),
            ),
            (
                "non-zero base at width 8",
                ingest_payload(2, (8, 1), (0, 0), 2 * 16),
            ),
            (
                "columns one byte short",
                ingest_payload(3, (2, 10), (1, 5), 3 * 11 - 1),
            ),
            (
                "columns one byte long",
                ingest_payload(3, (2, 10), (1, 5), 3 * 11 + 1),
            ),
            (
                "column header cut short",
                ingest_payload(0, (0, 0), (0, 0), 0)[..20].to_vec(),
            ),
        ];
        for (what, payload) in refused {
            let decoded = Frame::decode(
                &frame_with_payload(FT_INGEST, &payload),
                DEFAULT_MAX_PAYLOAD,
            );
            assert!(
                matches!(
                    decoded,
                    Err(WireError::BadPayload(_) | WireError::Truncated)
                ),
                "{what}: {:?}",
                decoded.err()
            );
        }
        // The same shapes one step inside each bound are accepted.
        let accepted = [
            ingest_payload(3, (2, 10), (1, 5), 3 * 11),
            ingest_payload(2, (1, u64::MAX - 0xFF), (0, u64::MAX), 2 * 9),
            ingest_payload(2, (8, 0), (4, u64::MAX - 0xFFFF_FFFF), 2 * 20),
            ingest_payload(0, (0, 0), (0, 0), 0),
            ingest_payload(max_rows, (0, 0), (0, 0), 8 * MAX_INGEST_ROWS),
        ];
        for payload in accepted {
            Frame::decode(
                &frame_with_payload(FT_INGEST, &payload),
                DEFAULT_MAX_PAYLOAD,
            )
            .expect("a payload inside every bound decodes");
        }
    }

    /// Parses whitespace-separated hex bytes.
    fn hex(text: &str) -> Vec<u8> {
        text.split_whitespace()
            .map(|byte| u8::from_str_radix(byte, 16).expect("hex byte"))
            .collect()
    }

    #[test]
    fn ingest_payload_bytes_are_pinned_at_every_width() {
        // One frame per row of id widths; together they reach 0, 1, 2, 4
        // and 8. Values are raw f64 bits whatever the ids do.
        let cases = [
            // users all 7: width 0, base 7. slots 300, 45: span 0xFF,
            // width 1, base 45.
            (
                (vec![7, 7], vec![300, 45], vec![0.5, -1.0]),
                "03 00 00 00 00 00 00 00  02 00 00 00
                 00  07 00 00 00 00 00 00 00
                 01  2D 00 00 00 00 00 00 00
                 FF 00
                 00 00 00 00 00 00 E0 3F  00 00 00 00 00 00 F0 BF",
            ),
            // users span 0x1_0000: width 4, base 5. slots span 0xFFFF:
            // width 2, base 1000.
            (
                (vec![0x1_0005, 5], vec![1000, 1000 + 0xFFFF], vec![0.0, 2.0]),
                "03 00 00 00 00 00 00 00  02 00 00 00
                 04  05 00 00 00 00 00 00 00
                 02  E8 03 00 00 00 00 00 00
                 00 00 01 00  00 00 00 00
                 00 00  FF FF
                 00 00 00 00 00 00 00 00  00 00 00 00 00 00 00 40",
            ),
            // users span 2^32: width 8, base forced to 0. slots all 9.
            (
                (vec![(1 << 32) + 1, 1], vec![9, 9], vec![1.0, 0.25]),
                "03 00 00 00 00 00 00 00  02 00 00 00
                 08  00 00 00 00 00 00 00 00
                 00  09 00 00 00 00 00 00 00
                 01 00 00 00 01 00 00 00  01 00 00 00 00 00 00 00
                 00 00 00 00 00 00 F0 3F  00 00 00 00 00 00 D0 3F",
            ),
            // users and slots both u64::MAX - 1, u64::MAX: span 1, width
            // 1, base lowered to u64::MAX - 0xFF so the largest offset
            // fits.
            (
                (
                    vec![u64::MAX - 1, u64::MAX],
                    vec![u64::MAX, u64::MAX - 1],
                    vec![0.5, 0.5],
                ),
                "03 00 00 00 00 00 00 00  02 00 00 00
                 01  00 FF FF FF FF FF FF FF
                 01  00 FF FF FF FF FF FF FF
                 FE FF
                 FF FE
                 00 00 00 00 00 00 E0 3F  00 00 00 00 00 00 E0 3F",
            ),
            // The empty frame: both widths 0, both bases 0.
            (
                (vec![], vec![], vec![]),
                "03 00 00 00 00 00 00 00  00 00 00 00
                 00  00 00 00 00 00 00 00 00
                 00  00 00 00 00 00 00 00 00",
            ),
        ];
        for ((users, slots, values), expected) in cases {
            let frame = Frame::Ingest {
                rejected_upstream: 3,
                users,
                slots,
                values,
            };
            let bytes = frame.encode();
            assert_eq!(bytes[HEADER_LEN..], hex(expected)[..], "{frame:?}");
            round_trip(&frame);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        // A sync frame whose header claims 4 payload bytes (checksummed
        // correctly) must still fail: the sync payload is empty.
        let payload = [1u8, 2, 3, 4];
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(WIRE_VERSION);
        bytes.push(2); // FT_INGEST_SYNC
        bytes.extend_from_slice(&[0, 0]);
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&checksum(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadPayload(_))
        ));
    }

    #[test]
    fn checksum_detects_single_bit_flips() {
        let data: Vec<u8> = (0..97u8).collect();
        let sum = checksum(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(checksum(&flipped), sum, "flip at {byte}:{bit} undetected");
            }
        }
    }

    /// Id-column spans on each side of every width boundary.
    const SPAN_BOUNDARIES: [u64; 8] = [
        0,
        0xFF,
        0x100,
        0xFFFF,
        0x1_0000,
        u32::MAX as u64,
        1 << 32,
        u64::MAX,
    ];

    /// The width code the encoder must pick for a column of `span`.
    fn width_of(span: u64) -> u8 {
        match span {
            0 => 0,
            1..=0xFF => 1,
            0x100..=0xFFFF => 2,
            0x1_0000..=0xFFFF_FFFF => 4,
            _ => 8,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ingest_frames_round_trip(
            n in 0usize..200,
            rejected in 0u64..100,
            seed in 0u64..1000,
            user_span in 0usize..8,
            slot_span in 0usize..8,
            user_base in any::<u64>(),
            slot_base in any::<u64>(),
            user_top in 0usize..2,
            slot_top in 0usize..2,
        ) {
            // Each id column's span lands on a width boundary (its first
            // two rows are its min and max), from any base that leaves
            // room for it; n = 0 is the empty frame. Half the columns
            // start within 2^17 of u64::MAX, so a span below its width's
            // largest offset runs up against the top of the range.
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                state
            };
            let mut column = |span: u64, base: u64| -> Vec<u64> {
                let lo = base.min(u64::MAX - span);
                (0..n)
                    .map(|i| match i {
                        0 => lo,
                        1 => lo + span,
                        _ => lo + next() % span.saturating_add(1).max(1),
                    })
                    .collect()
            };
            let near_top = |top: usize, base: u64| {
                if top == 1 { u64::MAX - (base & 0x1_FFFF) } else { base }
            };
            let users = column(SPAN_BOUNDARIES[user_span], near_top(user_top, user_base));
            let slots = column(SPAN_BOUNDARIES[slot_span], near_top(slot_top, slot_base));
            let values = (0..n).map(|i| i as f64 / 8.0 - 0.5).collect();
            let frame = Frame::Ingest { rejected_upstream: rejected, users, slots, values };
            let bytes = frame.encode();
            let (decoded, consumed) = Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD).unwrap();
            prop_assert_eq!(consumed, bytes.len());
            prop_assert_eq!(decoded, frame);
            // The width byte is the narrowest that covers the span.
            let width = |span: usize| if n < 2 { 0 } else { width_of(SPAN_BOUNDARIES[span]) };
            prop_assert_eq!(bytes[HEADER_LEN + 12], width(user_span));
            prop_assert_eq!(bytes[HEADER_LEN + 21], width(slot_span));
        }

        #[test]
        fn encode_rows_gathers_exactly_the_rows_asked_for(
            n in 0usize..200,
            keep in 0usize..200,
            rejected in any::<u64>(),
            seed in 0u64..1000,
            prefix in 0usize..5,
            user_span in 0usize..8,
            slot_span in 0usize..8,
        ) {
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                state >> 11
            };
            let mut column = |span: u64| -> Vec<u64> {
                (0..n).map(|_| (next() << 11 ^ next()) % span.saturating_add(1).max(1)).collect()
            };
            let users = column(SPAN_BOUNDARIES[user_span]);
            let slots = column(SPAN_BOUNDARIES[slot_span]);
            let values: Vec<f64> = (0..n).map(|_| f64::from_bits(next())).collect();
            // A permuted subset of the row indices: shuffle, keep a prefix.
            let mut rows: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                rows.swap(i, next() as usize % (i + 1));
            }
            rows.truncate(keep);

            let whole = Frame::Ingest { rejected_upstream: 7, users, slots, values }.encode();
            let view = IngestView::parse(&whole[HEADER_LEN..]).unwrap();
            let Frame::Ingest { users, slots, values, .. } = view.to_frame() else {
                unreachable!("to_frame builds an ingest frame")
            };
            prop_assert_eq!(view.users().collect::<Vec<_>>(), users.clone());

            let mut buf = vec![0xEE; prefix];
            view.encode_rows_into(&rows, rejected, &mut buf);
            prop_assert_eq!(&buf[..prefix], &vec![0xEE; prefix][..]);
            let (sub, consumed) = Frame::decode(&buf[prefix..], DEFAULT_MAX_PAYLOAD).unwrap();
            prop_assert_eq!(consumed, buf.len() - prefix);
            // The sub-frame decodes to exactly the chosen rows (values
            // compared as bits: NaN payloads travel too) ...
            let Frame::Ingest {
                rejected_upstream: sub_rejected,
                users: sub_users,
                slots: sub_slots,
                values: sub_values,
            } = sub
            else {
                unreachable!("encode_rows_into writes an ingest frame")
            };
            let pick = |i: &u32| *i as usize;
            prop_assert_eq!(sub_rejected, rejected);
            prop_assert_eq!(sub_users, rows.iter().map(|i| users[pick(i)]).collect::<Vec<_>>());
            prop_assert_eq!(sub_slots, rows.iter().map(|i| slots[pick(i)]).collect::<Vec<_>>());
            prop_assert_eq!(
                sub_values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                rows.iter().map(|i| values[pick(i)].to_bits()).collect::<Vec<_>>()
            );
            // ... and is never wider than its parent: it keeps the
            // parent's widths, so a fresh encode of the same rows is at
            // most as long.
            let sub_payload = &buf[prefix + HEADER_LEN..];
            let parent_payload = &whole[HEADER_LEN..];
            for width_at in [12, 21] {
                prop_assert!(sub_payload[width_at] <= parent_payload[width_at]);
            }
            let fresh = Frame::Ingest {
                rejected_upstream: rejected,
                users: rows.iter().map(|i| users[pick(i)]).collect(),
                slots: rows.iter().map(|i| slots[pick(i)]).collect(),
                values: rows.iter().map(|i| values[pick(i)]).collect(),
            }
            .encode();
            prop_assert!(fresh.len() <= buf.len() - prefix);

            // One past the end must panic, never read a neighbouring column.
            rows.push(n as u32);
            let out_of_range = std::panic::catch_unwind(|| {
                view.encode_rows_into(&rows, rejected, &mut Vec::new());
            });
            prop_assert!(out_of_range.is_err());
        }

        #[test]
        fn query_and_response_frames_round_trip(
            start in 0u64..10_000,
            len in 0u64..64,
            mean in -1.0..1.0f64,
            some in any::<bool>(),
            n_means in 0usize..32,
        ) {
            let opt = some.then_some(mean);
            round_trip(&Frame::QueryWindowedMean { start, end: start + len });
            round_trip(&Frame::QuerySlotMeans { start, end: start + len });
            round_trip(&Frame::WindowedMean { mean: opt });
            round_trip(&Frame::PopulationMean { mean: opt });
            round_trip(&Frame::SlotMeans {
                start,
                means: (0..n_means).map(|i| (i % 3 != 0).then_some(mean + i as f64)).collect(),
            });
            round_trip(&Frame::IngestAck { accepted: start, dropped: len, rejected: n_means as u64 });
            round_trip(&Frame::Summary(SummaryBody {
                total_reports: start,
                user_count: len,
                retained_base: start / 2,
                slot_end: start + len,
                frozen_count: len * 3,
                population_mean: opt,
            }));
            round_trip(&Frame::QueryParts { start, end: start + len });
            round_trip(&Frame::Parts(SnapshotPart {
                retained_base: start,
                slot_end: start + n_means as u64 + len,
                start: start + len,
                slots: (0..n_means)
                    .map(|i| SlotStats {
                        count: i as u64 % 5,
                        sum: mean * i as f64,
                        sum_sq: (mean * i as f64).abs(),
                    })
                    .collect(),
                frozen: SlotStats {
                    count: len,
                    sum: mean * 3.0,
                    sum_sq: mean.abs(),
                },
                total_reports: start + len,
                user_count: len,
                user_mean_sum: mean * len as f64,
            }));
        }

        #[test]
        fn random_garbage_never_panics_the_decoder(
            bytes in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            // Any outcome is fine except a panic.
            let _ = Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD);
        }

        #[test]
        fn borrowed_and_owned_decode_agree_on_hostile_payloads(
            frame_type_raw in 0u32..24,
            payload in proptest::collection::vec(any::<u8>(), 0..160),
            cut in 0usize..160,
        ) {
            let frame_type = frame_type_raw as u8;
            // Field-for-field agreement between the server's decode and
            // the owned one on arbitrary (including truncated) payloads:
            // both accept or both refuse, and acceptance yields equal
            // frames. `FrameView` hands every type but ingest to
            // `Frame::decode_body`, so this is (a) a panic-freedom fuzz
            // over both decodes and the re-encode, and (b) a guard that
            // the borrowed ingest parse, widened, is the owned one and
            // that nothing else decodes as borrowed ingest.
            let truncated = &payload[..cut.min(payload.len())];
            for p in [&payload[..], truncated] {
                let owned = Frame::decode_body(frame_type, p);
                let borrowed = FrameView::decode_body(frame_type, p);
                match (owned, borrowed) {
                    (Ok(o), Ok(b)) => {
                        let b = match b {
                            FrameView::Ingest(ingest) => {
                                prop_assert_eq!(frame_type, FT_INGEST);
                                ingest.to_frame()
                            }
                            FrameView::Owned(frame) => {
                                prop_assert_ne!(frame_type, FT_INGEST);
                                frame
                            }
                        };
                        // NaN values make Frame::Ingest non-reflexive under
                        // PartialEq; compare through the bit-exact encoding.
                        prop_assert_eq!(o.encode(), b.encode());
                    }
                    (Err(eo), Err(eb)) => {
                        prop_assert_eq!(eo.to_string(), eb.to_string());
                    }
                    (o, b) => panic!("decoders disagree: owned {o:?} vs borrowed {b:?}"),
                }
            }
        }

        #[test]
        fn scratch_columns_agree_with_owned_ingest_decode(
            n in 0usize..64,
            rejected in 0u64..10,
            seed in 0u64..500,
        ) {
            let mut batch = ReportBatch::new();
            let mut state = seed;
            for i in 0..n {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                // Include non-finite bit patterns via raw column smuggling.
                batch.push(state >> 40, i as u64, (state % 4096) as f64 / 4096.0 - 0.5);
            }
            let frame = Frame::Ingest {
                rejected_upstream: rejected,
                users: batch.users().to_vec(),
                slots: batch.slots().to_vec(),
                values: batch.values().to_vec(),
            };
            let bytes = frame.encode();
            let payload = &bytes[HEADER_LEN..];
            let view = IngestView::parse(payload).unwrap();
            prop_assert_eq!(view.rejected_upstream(), rejected);
            let mut scratch = IngestScratch::default();
            let columns = view.columns(&mut scratch);
            match Frame::decode_body(FT_INGEST, payload).unwrap() {
                Frame::Ingest { users, slots, values, .. } => {
                    prop_assert_eq!(columns.users(), &users[..]);
                    prop_assert_eq!(columns.slots(), &slots[..]);
                    prop_assert_eq!(columns.values(), &values[..]);
                }
                other => panic!("wrong frame {other:?}"),
            }
        }

        #[test]
        fn error_frames_round_trip(code_v in 0u32..7, msg_len in 0usize..64) {
            let message: String = "wire error message ".chars().cycle().take(msg_len).collect();
            round_trip(&Frame::Error { code: code_v as u16, message });
        }
    }
}
